//! Cross-crate integration: pruning -> format -> kernel -> verification,
//! exercised across the configuration matrix the paper evaluates.

use venom::baselines::DenseGemm;
use venom::prelude::*;
use venom::pruner::magnitude;
use venom::spatha::{spmm, SpmmOptions};
use venom::tensor::{gemm, norms, random};

fn pipeline(r: usize, k: usize, c: usize, cfg: VnmConfig, seed: u64) -> (f64, f64) {
    let dev = DeviceConfig::rtx3090();
    let w = random::glorot_matrix(r, k, seed);
    let mask = magnitude::prune_vnm(&w, cfg);
    assert!(mask.complies_vnm(cfg));
    let a = VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg);
    let b = random::activation_matrix(k, c, seed + 1).to_half();

    let sparse = spmm(&a, &b, &SpmmOptions::default(), &dev);
    let reference = gemm::gemm_ref(&a.decompress(), &b);
    let err = norms::rel_frobenius_error(&sparse.c, &reference);
    assert!(err < 1e-5, "{cfg} at {r}x{k}x{c}: functional error {err}");

    let dense = DenseGemm::time(GemmShape::new(r, k, c), &dev);
    (dense.time_ms, sparse.timing.time_ms)
}

#[test]
fn full_pipeline_across_v_values() {
    for v in [16usize, 32, 64, 128] {
        let (dense_ms, sparse_ms) = pipeline(128, 256, 64, VnmConfig::new(v, 2, 8), v as u64);
        assert!(dense_ms > 0.0 && sparse_ms > 0.0, "V={v}");
    }
}

#[test]
fn full_pipeline_across_m_values() {
    for m in [4usize, 8, 10, 16, 20] {
        let cfg = VnmConfig::new(32, 2, m);
        let (_, sparse_ms) = pipeline(96, 320, 48, cfg, m as u64);
        assert!(sparse_ms > 0.0, "M={m}");
    }
}

#[test]
fn simulated_speedup_grows_with_sparsity_at_scale() {
    // Model-only pricing at benchmark scale: the headline monotonicity.
    let dev = DeviceConfig::rtx3090();
    let dense = DenseGemm::time(GemmShape::new(1024, 8192, 4096), &dev).time_ms;
    let mut prev_speedup = 0.0;
    for m in [4usize, 8, 16, 32, 64] {
        let cfg = VnmConfig::new(128, 2, m);
        let t =
            venom::spatha::spmm_time_tuned(1024, 8192, 4096, cfg, &SpmmOptions::default(), &dev);
        let speedup = dense / t.time_ms;
        assert!(
            speedup > prev_speedup,
            "2:{m}: speedup {speedup} should exceed 2:{}'s {prev_speedup}",
            m / 2
        );
        assert!(
            speedup <= cfg.theoretical_speedup_cap() * 1.02,
            "2:{m}: speedup {speedup} must respect the cap {}",
            cfg.theoretical_speedup_cap()
        );
        prev_speedup = speedup;
    }
    // And it must be a real speedup from 2:4 onwards.
    assert!(
        prev_speedup > 10.0,
        "2:64 should be >10x (got {prev_speedup})"
    );
}

#[test]
fn sparse_result_matches_direct_reference_on_awkward_shapes() {
    // Shapes with every divisibility hazard at once.
    let cfg = VnmConfig::new(16, 2, 10);
    let (dense_ms, sparse_ms) = pipeline(50, 73, 19, cfg, 99);
    assert!(dense_ms > 0.0 && sparse_ms > 0.0);
}

#[test]
fn batched_dense_baseline_consistency() {
    // time_batched(b=1) must agree with time() for the same shape.
    let dev = DeviceConfig::rtx3090();
    let shape = GemmShape::new(512, 64, 512);
    let single = DenseGemm::time(shape, &dev).time_ms;
    let batched = DenseGemm::time_batched(shape, 1, &dev).time_ms;
    assert!((single - batched).abs() < 1e-9);
    // And a batch of 8 takes more time but less than 8x (better fill).
    let b8 = DenseGemm::time_batched(shape, 8, &dev).time_ms;
    assert!(b8 > single && b8 < 8.0 * single);
}
