//! Bitwise-equality regression suite for the plan-once/run-many engine.
//!
//! A plan captures the weight's staged operands and tile selection at
//! build time; this suite pins the contract that *nothing* about planning
//! changes the numerics: `Plan::run` (single, batched, repeated, and
//! fused-layer calls) must be bit-identical to the one-shot `spmm`
//! dispatch — and to the compressed-format oracle `spmm_ref` — across the
//! V x N:M grid, including V = 8, which only the plan's stream executes
//! (the kernel's fragment contract needs V to be a multiple of 16, so the
//! one-shot comparison there is the oracle).

use proptest::prelude::*;
use venom::dnn::layers::{Linear, PlannedLinear};
use venom::prelude::*;
use venom::pruner::magnitude;
use venom::spatha::spmm;
use venom::tensor::random;

/// The ISSUE-3 acceptance grid: every supported vector length crossed
/// with the paper's most-used N:M patterns.
const GRID_V: [usize; 3] = [8, 64, 128];
const GRID_NM: [(usize, usize); 3] = [(2, 8), (2, 10), (2, 16)];

fn device() -> DeviceConfig {
    DeviceConfig::rtx3090()
}

fn engine() -> Engine {
    Engine::new(device()).with_b_cols_hint(64)
}

/// A magnitude-pruned V:N:M fixture with partial row blocks and a partial
/// K group, so the tails exercise the stream's padding-drop logic.
fn fixture(cfg: VnmConfig, seed: u64) -> VnmMatrix {
    let (r, k) = (2 * cfg.v + 7, 5 * cfg.m + 3);
    let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
    let mask = magnitude::prune_vnm(&w, cfg);
    VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg)
}

#[test]
fn plan_run_matches_one_shot_spmm_across_grid() {
    for v in GRID_V {
        for (n, m) in GRID_NM {
            let cfg = VnmConfig::new(v, n, m);
            let a = fixture(cfg, v as u64 + m as u64);
            let b = random::normal_matrix(a.cols(), 43, 0.0, 1.0, 99).to_half();
            let plan = engine().plan_spmm(&a);
            let got = plan.run(&b);
            assert_eq!(got, a.spmm_ref(&b), "plan vs spmm_ref at V={v} {n}:{m}");
            if v >= 16 {
                let want = spmm(&a, &b, &SpmmOptions::default(), &device()).c;
                assert_eq!(got, want, "plan vs one-shot spmm at V={v} {n}:{m}");
            } else {
                assert!(plan.tile().is_none(), "V=8 has no launchable tile");
            }
        }
    }
}

#[test]
fn repeated_runs_stay_bit_identical_across_grid() {
    // Plan reuse must not drift: the arena-backed scratch is re-leased on
    // every call, and three consecutive runs must produce the same bits.
    for v in GRID_V {
        let cfg = VnmConfig::new(v, 2, 10);
        let a = fixture(cfg, v as u64);
        let b = random::normal_matrix(a.cols(), 21, 0.0, 1.0, 7).to_half();
        let plan = engine().plan_spmm(&a);
        let first = plan.run(&b);
        for round in 0..3 {
            assert_eq!(plan.run(&b), first, "run {round} drifted at V={v}");
        }
    }
}

#[test]
fn batched_runs_match_per_request_dispatch_across_grid() {
    for v in GRID_V {
        for (n, m) in GRID_NM {
            let cfg = VnmConfig::new(v, n, m);
            let a = fixture(cfg, v as u64 * 3 + m as u64);
            let plan = engine().plan_spmm(&a);
            let seqs: Vec<_> = (0..3)
                .map(|i| {
                    random::normal_matrix(a.cols(), 11 + 5 * i, 0.0, 1.0, 40 + i as u64).to_half()
                })
                .collect();
            let refs: Vec<&Matrix<Half>> = seqs.iter().collect();
            let batch = plan.run_batch(&refs);
            for (i, b) in seqs.iter().enumerate() {
                assert_eq!(batch[i], plan.run(b), "batch seq {i} at V={v} {n}:{m}");
                assert_eq!(batch[i], a.spmm_ref(b), "batch vs oracle at V={v} {n}:{m}");
            }
        }
    }
}

#[test]
fn fused_layer_forward_matches_percall_across_grid() {
    // The layer-level contract: the engine's fused stage->run->transpose
    // chain equals the per-call convert/transpose/spmm/transpose chain.
    for v in GRID_V {
        if v < 16 {
            continue; // forward_percall dispatches the kernel: V >= 16
        }
        for (n, m) in GRID_NM {
            let cfg = VnmConfig::new(v, n, m);
            let out_f = 2 * v + 7;
            let in_f = 5 * m + 3;
            let w = random::normal_matrix(out_f, in_f, 0.0, 1.0, v as u64 + n as u64);
            let mask = magnitude::prune_vnm(&w, cfg);
            let lin = Linear::new(&w, (0..out_f).map(|i| i as f32 * 0.01).collect());
            let sparse: PlannedLinear = lin.to_sparse(&engine(), &mask, cfg);
            let x = random::activation_matrix(19, in_f, 3);
            assert_eq!(
                sparse.forward(&x),
                sparse.forward_percall(&x),
                "fused layer at V={v} {n}:{m}"
            );
        }
    }
}

proptest! {
    // Pinned case count and seed, matching the repository's determinism
    // contract for CI (see tests/proptest_pipeline.rs).
    #![proptest_config(ProptestConfig::with_cases(16).with_seed(0x56454e4f4d5f5033))]

    /// Plan reuse across varying widths within the planned bound stays
    /// exact: one plan built at bound 64 serves every b_cols in [1, 64]
    /// with bit-identical results versus the one-shot dispatch.
    #[test]
    fn plan_reuse_across_b_cols_within_bound_is_exact(
        vi in 0usize..GRID_V.len(),
        nmi in 0usize..GRID_NM.len(),
        b_cols in 1usize..=64,
        seed in 0u64..1000,
    ) {
        let (n, m) = GRID_NM[nmi];
        let cfg = VnmConfig::new(GRID_V[vi], n, m);
        let a = fixture(cfg, seed);
        let plan = engine().plan_spmm(&a); // bound = 64 via the hint
        prop_assert!(b_cols <= plan.descriptor().b_cols);
        let b = random::normal_matrix(a.cols(), b_cols, 0.0, 1.0, seed + 1).to_half();
        let got = plan.run(&b);
        prop_assert_eq!(&got, &a.spmm_ref(&b));
        if cfg.v >= 16 {
            let want = spmm(&a, &b, &SpmmOptions::default(), &device()).c;
            prop_assert_eq!(&got, &want);
        }
    }
}
