//! `plan_auto` prices every candidate and builds only the winner. These
//! tests pin that the winner is exactly the plan the public entry points
//! would have built for the cheapest candidate:
//!
//! 1. **Winner identity.** Every candidate is built through its public
//!    entry point (`plan_with_format` per format, `plan_band_hinted`, and
//!    `plan_spmm` / `plan_quant_spmm` for a hinted pattern) in the
//!    candidate order `plan_auto` documents, and the first minimum under
//!    [`pricing::cost_cmp`] is the reference. `plan_auto` /
//!    `plan_auto_hinted` must return a plan with the same format, path,
//!    cost bits, priced counts (which name the tile), stored values and
//!    resident bytes, whose `run` is
//!    bitwise equal — over V:N:M, 2:4, unstructured, dense and all-zero
//!    weights, three output widths, both dtypes, hinted and unhinted.
//! 2. **No panic on an unlaunchable tile.** An engine whose explicit
//!    [`SpmmOptions::tile`] cannot launch prices the Spatha stream as
//!    ineligible and still returns a servable plan.

use std::sync::Arc;
use venom_format::{NmCompressed, NmConfig, SparsityMask};
use venom_fp16::Half;
use venom_pruner::magnitude;
use venom_runtime::{
    pricing, DType, Engine, MatmulFormat, MatmulPlan, SpmmOptions, TileConfig, VnmConfig, VnmMatrix,
};
use venom_sim::DeviceConfig;
use venom_tensor::{random, Matrix};

const ROWS: usize = 256;
const COLS: usize = 320;

fn dev() -> DeviceConfig {
    DeviceConfig::rtx3090()
}

fn nonzero_mask(w: &Matrix<Half>) -> SparsityMask {
    SparsityMask::from_fn(w.rows(), w.cols(), |r, c| !w.get(r, c).is_zero())
}

/// The weights under test, each with the pattern a hinted call passes:
/// the prune pattern of a V:N:M weight (one outside the probed
/// re-detection grid), a complying in-grid pattern for
/// 2:4 and all-zero weights, and a non-complying one elsewhere (the hint
/// must then fall back to re-detection).
fn weights() -> Vec<(&'static str, Matrix<Half>, VnmConfig)> {
    let dense = random::normal_matrix(ROWS, COLS, 0.0, 1.0, 41);
    let vnm = |cfg: VnmConfig| {
        magnitude::prune_vnm(&dense, cfg)
            .apply_f32(&dense)
            .to_half()
    };
    let (p64_8, p128_10, p128_20) = (
        VnmConfig::new(64, 2, 8),
        VnmConfig::new(128, 2, 10),
        VnmConfig::new(128, 2, 20),
    );
    let nm = NmCompressed::compress_magnitude(&dense.to_half(), NmConfig::new(2, 4)).decompress();
    let unstructured = magnitude::prune_unstructured(&dense, 0.9)
        .apply_f32(&dense)
        .to_half();
    vec![
        ("vnm 64:2:8", vnm(p64_8), p64_8),
        ("vnm 128:2:10", vnm(p128_10), p128_10),
        ("vnm 128:2:20", vnm(p128_20), p128_20),
        // M = 12 is outside the probed grid: only the hint finds it.
        (
            "vnm 64:2:12",
            vnm(VnmConfig::new(64, 2, 12)),
            VnmConfig::new(64, 2, 12),
        ),
        ("2:4", nm, VnmConfig::new(64, 2, 4)),
        ("unstructured 90%", unstructured, p128_10),
        ("dense", dense.to_half(), p128_10),
        ("all-zero", Matrix::<Half>::zeros(ROWS, COLS), p128_20),
    ]
}

fn cost(plan: &Arc<dyn MatmulPlan>) -> f64 {
    plan.cost_ms().unwrap_or(f64::INFINITY)
}

/// The V:N:M candidates in `plan_auto`'s order — int8 stream (i8
/// descriptors only), mma stream, band replay — built one by one through
/// the public entry points. A hint the weight complies with seeds the
/// compression; otherwise the pattern is re-detected.
fn vnm_candidates(
    engine: &Engine,
    w: &Matrix<Half>,
    dtype: DType,
    hint: Option<VnmConfig>,
) -> Vec<Arc<dyn MatmulPlan>> {
    let f16 = engine.descriptor(w.rows(), w.cols());
    let mask = nonzero_mask(w);
    let mut out: Vec<Arc<dyn MatmulPlan>> = Vec::new();
    match hint.filter(|&cfg| mask.complies_vnm(cfg)) {
        Some(cfg) => {
            let a = VnmMatrix::compress(w, &mask, cfg);
            if dtype == DType::I8 {
                out.push(Arc::new(engine.plan_quant_spmm(&a)));
            }
            out.push(Arc::new(engine.plan_spmm(&a)));
        }
        None => {
            let Ok(mma) = engine.plan_with_format(MatmulFormat::Vnm, &f16, w) else {
                return out; // no V:N:M structure: no V:N:M candidate
            };
            if dtype == DType::I8 {
                let i8 = f16.with_dtype(DType::I8);
                out.push(engine.plan_with_format(MatmulFormat::Vnm, &i8, w).unwrap());
            }
            out.push(mma);
        }
    }
    if let Ok(band) = engine.plan_band_hinted(&f16, w, hint) {
        out.push(band);
    }
    out
}

/// Every other format, in `MatmulFormat::ALL` order, at f16.
fn format_candidates(engine: &Engine, w: &Matrix<Half>) -> Vec<Arc<dyn MatmulPlan>> {
    let f16 = engine.descriptor(w.rows(), w.cols());
    MatmulFormat::ALL
        .iter()
        .filter(|&&f| f != MatmulFormat::Vnm)
        .filter_map(|&f| engine.plan_with_format(f, &f16, w).ok())
        .collect()
}

fn assert_same_plan(got: &Arc<dyn MatmulPlan>, want: &Arc<dyn MatmulPlan>, case: &str) {
    assert_eq!(got.format(), want.format(), "{case}: format");
    assert_eq!(got.path(), want.path(), "{case}: path");
    assert_eq!(
        got.descriptor().dtype,
        want.descriptor().dtype,
        "{case}: dtype"
    );
    assert_eq!(
        got.cost_ms().map(f64::to_bits),
        want.cost_ms().map(f64::to_bits),
        "{case}: cost {:?} vs {:?}",
        got.cost_ms(),
        want.cost_ms()
    );
    // The priced counts: a Spatha launch's name carries its tile, so
    // equal counts mean the same autotuned instantiation.
    assert_eq!(got.counts(), want.counts(), "{case}: counts and tile");
    assert_eq!(got.timing(), want.timing(), "{case}: timing");
    assert_eq!(
        got.stored_values(),
        want.stored_values(),
        "{case}: stored values"
    );
    assert_eq!(got.approx_bytes(), want.approx_bytes(), "{case}: bytes");
    if got.path() == "band" {
        // The band candidate is priced before its stream exists; the
        // price must count exactly the operands the built stream holds.
        let built =
            venom_core::build_counts_band(ROWS, COLS, got.descriptor().b_cols, got.stored_values());
        assert_eq!(
            got.counts(),
            Some(&built),
            "{case}: band priced on its stream"
        );
    }
    let b = random::normal_matrix(COLS, 5, 0.0, 1.0, 43).to_half();
    let bits = |m: Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got.run(&b)), bits(want.run(&b)), "{case}: run bits");
}

#[test]
fn plan_auto_returns_the_first_cheapest_candidate_bit_for_bit() {
    let mut routes = std::collections::BTreeSet::new();
    for (name, w, pattern) in weights() {
        for width in [8usize, 256, 4096] {
            let engine = Engine::new(dev()).with_b_cols_hint(width);
            let others = format_candidates(&engine, &w);
            for dtype in [DType::F16, DType::I8] {
                let desc = engine.descriptor(ROWS, COLS).with_dtype(dtype);
                for hint in [None, Some(pattern)] {
                    let case = format!("{name} c={width} {dtype:?} hint={hint:?}");
                    let mut candidates = vnm_candidates(&engine, &w, dtype, hint);
                    candidates.extend(others.iter().cloned());
                    let want = candidates
                        .into_iter()
                        .min_by(|a, b| pricing::cost_cmp(cost(a), cost(b)))
                        .expect("the dense path is always eligible");
                    let got = match hint {
                        None => engine.plan_auto(&desc, &w),
                        Some(_) => engine.plan_auto_hinted(&desc, &w, hint),
                    };
                    assert_same_plan(&got, &want, &case);
                    routes.insert(format!("{}-{:?}", got.path(), got.descriptor().dtype));
                }
            }
        }
    }
    // The grid reaches every kind of winner the selection can return
    // here, so the identity is not checked on one route only.
    for route in [
        "vnm-I8",
        "vnm-F16",
        "band-F16",
        "csr-F16",
        "cvse-F16",
        "dense-F16",
    ] {
        assert!(
            routes.contains(route),
            "no case routes to {route}: {routes:?}"
        );
    }
}

#[test]
fn an_unlaunchable_explicit_tile_is_ineligible_in_plan_auto() {
    // BSr = V = 128, but 8 stages of a 256 x 256 condensed tile need far
    // more shared memory than an SM has: the tile cannot launch.
    let cfg = VnmConfig::new(128, 2, 10);
    let tile = TileConfig::new(128, 256, 256, 32, 64, 8);
    let opts = SpmmOptions {
        tile: Some(tile),
        ..SpmmOptions::default()
    };
    let dense = random::normal_matrix(ROWS, COLS, 0.0, 1.0, 44);
    let w = magnitude::prune_vnm(&dense, cfg)
        .apply_f32(&dense)
        .to_half();
    let b = random::normal_matrix(COLS, 7, 0.0, 1.0, 45).to_half();
    for width in [8usize, 4096] {
        let engine = Engine::new(dev())
            .with_b_cols_hint(width)
            .with_options(opts);
        for dtype in [DType::F16, DType::I8] {
            let desc = engine.descriptor(ROWS, COLS).with_dtype(dtype);
            for plan in [
                engine.plan_auto(&desc, &w),
                engine.plan_auto_hinted(&desc, &w, Some(cfg)),
            ] {
                assert_ne!(plan.path(), "vnm", "the unlaunchable stream cannot win");
                assert!(plan.cost_ms().is_some_and(f64::is_finite));
                assert_eq!(plan.run(&b), plan.run_oneshot(&b), "servable");
            }
        }
        // The explicit entry point reports it instead of panicking.
        let err = engine
            .plan_with_format(MatmulFormat::Vnm, &engine.descriptor(ROWS, COLS), &w)
            .unwrap_err();
        assert!(err.to_string().contains("cannot launch"), "{err}");
    }
}

#[test]
#[should_panic(expected = "cannot launch")]
fn plan_spmm_keeps_its_panic_on_an_unlaunchable_tile() {
    let cfg = VnmConfig::new(128, 2, 10);
    let opts = SpmmOptions {
        tile: Some(TileConfig::new(128, 256, 256, 32, 64, 8)),
        ..SpmmOptions::default()
    };
    let dense = random::normal_matrix(ROWS, COLS, 0.0, 1.0, 46);
    let mask = magnitude::prune_vnm(&dense, cfg);
    let a = VnmMatrix::compress(&mask.apply_f32(&dense).to_half(), &mask, cfg);
    let _ = Engine::new(dev()).with_options(opts).plan_spmm(&a);
}
