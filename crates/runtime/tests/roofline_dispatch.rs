//! Roofline-aware dispatch: the properties the routing layer rests on.
//!
//! Three contracts, checked end to end through the public engine API:
//!
//! 1. **The ridge flip is monotone.** Sweeping the output width `c`
//!    across the device's ridge point flips the band kernel's
//!    [`venom_sim::Roofline::memory_bound`] from memory- to
//!    compute-bound *exactly once* — arithmetic intensity is strictly
//!    increasing in `c` under the band counts model, so there is one
//!    crossing, not a threshold band the router could oscillate in.
//! 2. **Winner pins.** The fig. 9 wide bound (c = 4096) stays on the
//!    Spatha `mma.sp` stream; the tall-skinny c = 8 bound routes to the
//!    band path — both as *emergent* outcomes of `plan_auto`'s cost
//!    minimisation, no hard-coded threshold anywhere.
//! 3. **Bit-exactness across the V x N:M grid.** The band replay and
//!    the swapped-operand per-call kernel agree with `spmm_ref` (and
//!    with the mma-stream plan) to the bit for every probed pattern.
//! 4. **One contract per route.** Every route `plan_auto` can pick —
//!    the V:N:M mma stream, the band replay, the int8 V:N:M stream, and
//!    the N:M, CSR, CVSE, Blocked-ELL and dense streams — replays
//!    bit-identically to its per-call reference on every dispatch path,
//!    carries the counts it was priced on, and charges the plan cache
//!    for exactly the bytes it keeps resident: its executor's stream and
//!    its compressed weight.

use proptest::prelude::*;
use std::sync::Arc;
use venom_runtime::{DType, Engine, MatmulFormat, MatmulPlan, Regime, VnmConfig};
use venom_sim::DeviceConfig;
use venom_tensor::{random, Matrix};

fn dev() -> DeviceConfig {
    DeviceConfig::rtx3090()
}

/// A compliant V:2:M weight (keep the first two columns of each group).
fn vnm_dense(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> Matrix<venom_fp16::Half> {
    let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
    let mask = venom_format::SparsityMask::from_fn(r, k, |_, c| c % cfg.m < cfg.n);
    mask.apply_f32(&w).to_half()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sweeping `c` from 1 past the ridge point flips the band kernel's
    /// regime memory -> compute exactly once: the counts model charges
    /// `B` and the output linearly in `c` against a constant stream, so
    /// intensity is strictly increasing and there is a single crossing.
    #[test]
    fn band_regime_flips_exactly_once_across_the_ridge(
        r in prop::sample::select(vec![512usize, 768, 1024, 1536]),
        k in prop::sample::select(vec![512usize, 768, 1280]),
        m in prop::sample::select(vec![8usize, 10, 16]),
        seed in 0u64..1000,
    ) {
        let nnz = r * k * 2 / m; // the 2:M density of the stream
        let _ = seed;
        let mut flips = 0usize;
        let mut prev_bound = None;
        let mut prev_intensity = 0.0f64;
        let mut c = 1usize;
        while c <= 1 << 16 {
            let counts = venom_core::build_counts_band(r, k, c, nnz);
            let roof = venom_sim::roofline::analyze(&dev(), &counts);
            prop_assert!(
                roof.intensity > prev_intensity,
                "intensity must be strictly increasing in c (c={c})"
            );
            prev_intensity = roof.intensity;
            if let Some(prev) = prev_bound {
                match (prev, roof.memory_bound) {
                    (true, false) => flips += 1,
                    (false, true) => prop_assert!(
                        false,
                        "regime flipped back to memory-bound at c={c}"
                    ),
                    _ => {}
                }
            }
            prev_bound = Some(roof.memory_bound);
            c *= 2;
        }
        prop_assert_eq!(flips, 1, "r={} k={} m={}", r, k, m);
    }
}

#[test]
fn winner_pins_hold_on_both_sides_of_the_ridge() {
    let cfg = VnmConfig::new(128, 2, 10);
    let w = vnm_dense(1024, 768, cfg, 7);

    // Left of the ridge (the acceptance shape r=1024 k=768 c=8): the
    // band path must win and report the memory regime.
    let small = Engine::new(dev()).with_b_cols_hint(8);
    let plan = small.plan_auto_hinted(&small.descriptor(1024, 768), &w, Some(cfg));
    assert_eq!(plan.format(), MatmulFormat::Vnm);
    assert_eq!(plan.path(), "band", "cost {:?}", plan.cost_ms());
    assert_eq!(plan.regime(small.device()), Some(Regime::MemoryBound));

    // Right of the ridge (fig. 9's c=4096): the mma stream must win.
    let wide = Engine::new(dev()).with_b_cols_hint(4096);
    let plan = wide.plan_auto_hinted(&wide.descriptor(1024, 768), &w, Some(cfg));
    assert_eq!(plan.format(), MatmulFormat::Vnm);
    assert_eq!(plan.path(), "vnm", "cost {:?}", plan.cost_ms());
    assert_eq!(plan.regime(wide.device()), Some(Regime::ComputeBound));
}

#[test]
fn tall_skinny_routes_to_the_band_path() {
    // r >> c with low-reuse k: the mma pipeline cannot amortize its
    // staging traffic, the band stream can.
    let cfg = VnmConfig::new(64, 2, 8);
    let w = vnm_dense(2048, 512, cfg, 9);
    let engine = Engine::new(dev()).with_b_cols_hint(8);
    let plan = engine.plan_auto_hinted(&engine.descriptor(2048, 512), &w, Some(cfg));
    assert_eq!(plan.path(), "band", "cost {:?}", plan.cost_ms());
    let b = random::normal_matrix(512, 8, 0.0, 1.0, 10).to_half();
    assert_eq!(plan.run(&b), plan.run_oneshot(&b));
}

#[test]
fn band_paths_are_bit_identical_across_the_config_grid() {
    // The conformance grid: every probed V x N:M pattern must agree to
    // the bit between spmm_ref, the band plan's staged replay, the
    // swapped-operand per-call kernel, and the mma-stream plan.
    for &v in &[16usize, 32, 64, 128] {
        for &m in &[8usize, 10, 16] {
            let cfg = VnmConfig::new(v, 2, m);
            let (r, k) = (2 * v, 10 * m);
            let w = vnm_dense(r, k, cfg, (v * m) as u64);
            let engine = Engine::new(dev()).with_b_cols_hint(24);
            let desc = engine.descriptor(r, k);
            let band = engine
                .plan_band_hinted(&desc, &w, Some(cfg))
                .expect("K fits 16-bit indices");
            let mma = engine
                .plan_with_format(MatmulFormat::Vnm, &desc, &w)
                .expect("compliant structure");
            let b = random::normal_matrix(k, 24, 0.0, 1.0, (v + m) as u64).to_half();
            let reference = mma.run_oneshot(&b);
            assert_eq!(band.run(&b), reference, "V={v} M={m}: band replay");
            assert_eq!(
                band.run_oneshot(&b),
                reference,
                "V={v} M={m}: swapped kernel"
            );
            assert_eq!(mma.run(&b), reference, "V={v} M={m}: mma stream");
        }
    }
}

/// Resident bytes of a plan: 64 structural bytes, `per_operand` bytes
/// per stored operand — f16 bits + u16 source (the f16 stream, whichever
/// loop replays it), i8 code + u16 source (int8) — a u32 row pointer per
/// row plus one, and the `reference` bytes of the compressed weight the
/// per-call path runs.
fn expected_bytes(plan: &dyn MatmulPlan, per_operand: usize, reference: usize) -> usize {
    let rows = plan.descriptor().out_features;
    64 + plan.stored_values() * per_operand + (rows + 1) * 4 + reference
}

#[test]
fn every_route_replays_bitwise_and_reports_its_pricing() {
    // A 2:4-pruned weight complies with every format's structure, so
    // one weight reaches every route; 64 x 96 lets Blocked-ELL tile it.
    use venom_format::{BlockedEllMatrix, CsrMatrix, CvseMatrix, NmCompressed, NmConfig};
    use venom_runtime::SparseKernel;
    let (r, k) = (64usize, 96usize);
    let cfg = VnmConfig::new(64, 2, 4);
    let w = vnm_dense(r, k, cfg, 31);
    let engine = Engine::new(dev()).with_b_cols_hint(16);
    let f16 = engine.descriptor(r, k);
    let i8 = f16.with_dtype(DType::I8);
    let format = |f: MatmulFormat| engine.plan_with_format(f, &f16, &w).unwrap();
    // The compressed weights the plans keep: 64:2:4 is the strongest
    // probed pattern the weight complies with, Blocked-ELL takes the
    // first probed block edge dividing both dimensions, and CVSE the
    // cheapest vector length.
    let mask = venom_format::SparsityMask::from_fn(r, k, |_, c| c % cfg.m < cfg.n);
    let vnm = venom_runtime::VnmMatrix::compress(&w, &mask, cfg);
    let quant = venom_runtime::QuantVnmMatrix::quantize(&vnm, venom_runtime::Calibration::AbsMax);
    let nm = NmCompressed::compress(&w, &mask, NmConfig { n: 2, m: 4 });
    let cvse = format(MatmulFormat::Cvse);
    let cvse_bytes = [16, 8, 4]
        .map(|l| CvseMatrix::from_dense(&w, l))
        .into_iter()
        .find(|a| Some(venom_baselines::ClaspSpmm::time(a, 16, &dev()).time_ms) == cvse.cost_ms())
        .expect("the plan is priced at one probed vector length")
        .total_bytes();
    let routes: Vec<(&str, Arc<dyn MatmulPlan>, usize, usize)> = vec![
        ("vnm", format(MatmulFormat::Vnm), 4, vnm.total_bytes()),
        (
            "band",
            engine.plan_band_hinted(&f16, &w, None).unwrap(),
            4,
            vnm.total_bytes(),
        ),
        (
            "vnm-i8",
            engine.plan_with_format(MatmulFormat::Vnm, &i8, &w).unwrap(),
            3,
            quant.total_bytes(),
        ),
        ("nm", format(MatmulFormat::Nm), 4, nm.compressed_bytes()),
        (
            "csr",
            format(MatmulFormat::Csr),
            4,
            CsrMatrix::from_dense(&w).total_bytes(),
        ),
        ("cvse", cvse, 4, cvse_bytes),
        (
            "blocked-ell",
            format(MatmulFormat::BlockedEll),
            4,
            BlockedEllMatrix::from_dense(&w, 32).total_bytes(),
        ),
        ("dense", format(MatmulFormat::Dense), 4, r * k * 2),
    ];
    let b = random::normal_matrix(k, 13, 0.0, 1.0, 32).to_half();
    let batch: Vec<Matrix<venom_fp16::Half>> = [5usize, 11, 1]
        .iter()
        .enumerate()
        .map(|(i, &c)| random::normal_matrix(k, c, 0.0, 1.0, 33 + i as u64).to_half())
        .collect();
    let x = random::activation_matrix(9, k, 36);
    let bias: Vec<f32> = (0..r).map(|i| i as f32 * 0.125 - 2.0).collect();
    for (route, plan, per_operand, reference) in &routes {
        let label = match plan.descriptor().dtype {
            DType::I8 => format!("{}-i8", plan.path()),
            DType::F16 => plan.path().to_string(),
        };
        assert_eq!(&label, route, "the route label names the executor");
        assert_eq!(
            plan.run(&b),
            plan.run_oneshot(&b),
            "{route}: planned vs per-call"
        );
        let refs: Vec<_> = batch.iter().collect();
        let together = plan.run_batch(&refs);
        assert_eq!(
            together.len(),
            batch.len(),
            "{route}: one result per request"
        );
        for (got, one) in together.iter().zip(&batch) {
            assert_eq!(got, &plan.run(one), "{route}: batched vs separate");
        }
        assert_eq!(
            plan.run_linear(&x, &bias),
            plan.run_linear_percall(&x, &bias),
            "{route}: fused linear vs per-call chain"
        );
        assert!(plan.counts().is_some(), "{route}: priced counts");
        assert!(plan.regime(&dev()).is_some(), "{route}: roofline regime");
        assert_eq!(
            plan.approx_bytes(),
            expected_bytes(plan.as_ref(), *per_operand, *reference),
            "{route}: cache bytes are the plan's resident bytes"
        );
    }
}

#[test]
fn i8_auto_winner_reports_counts_and_regime() {
    // Fig. 9's BERT-large layer at the wide bound: the int8 V:N:M
    // candidate wins auto, and the winner must still answer the
    // roofline questions the dispatch and telemetry layers ask.
    let cfg = VnmConfig::new(128, 2, 10);
    let w = vnm_dense(1024, 768, cfg, 7);
    let engine = Engine::new(dev()).with_b_cols_hint(4096);
    let desc = engine.descriptor(1024, 768).with_dtype(DType::I8);
    let plan = engine.plan_auto(&desc, &w);
    assert_eq!(plan.descriptor().dtype, DType::I8, "the i8 candidate wins");
    let counts = plan.counts().expect("an int8 plan keeps its priced counts");
    assert!(counts.effective_flops > 0, "{}", counts.name);
    assert!(plan.roofline(engine.device()).is_some());
    assert!(plan.regime(engine.device()).is_some());
}
