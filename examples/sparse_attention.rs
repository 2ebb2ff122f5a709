//! Structured sparse attention with V:N:M — the DFSS-style mechanism the
//! paper cites (Chen et al., PPoPP'23) generalised beyond 2:4:
//!
//! 1. `S = sddmm(Q, K^T, pattern)` — only the selected score positions are
//!    computed, emitted directly in the compressed V:N:M layout;
//! 2. row-softmax over the surviving scores;
//! 3. `O = spmm(P, V)` — the probabilities multiply the value matrix
//!    through the Spatha kernel.
//!
//! Run with: `cargo run --release --example sparse_attention`

use venom::format::SparsityMask;
use venom::prelude::*;
use venom::spatha::{sddmm, spmm, SpmmOptions};
use venom::tensor::{gemm, norms, random};

fn main() {
    let device = DeviceConfig::rtx3090();
    let (seq, d_head) = (128usize, 64usize);
    let cfg = VnmConfig::new(16, 2, 8); // 75% of attention scores pruned

    let q = random::activation_matrix(seq, d_head, 1).to_half();
    let kt = random::activation_matrix(d_head, seq, 2).to_half();
    let v = random::activation_matrix(seq, d_head, 3).to_half();

    // Dynamic pattern: keep the strongest score columns per V x M block,
    // estimated from the full product (a real kernel would fuse this).
    let probe = gemm::gemm_ref(&q, &kt);
    let mask: SparsityMask = venom::pruner::magnitude::prune_vnm(&probe, cfg);
    println!(
        "attention pattern {cfg}: keeping {:.1}% of {}x{} scores",
        100.0 * mask.density(),
        seq,
        seq
    );

    // 1. Sampled score computation.
    let scores = sddmm(&q, &kt, &mask, cfg, &device);
    println!(
        "sddmm: {:.4} ms simulated ({:?})",
        scores.timing.time_ms, scores.timing.limiter
    );

    // 2. Softmax over the surviving entries (dense staging for clarity).
    let scale = 1.0 / (d_head as f32).sqrt();
    let mut dense_scores = scores.out.decompress().to_f32().map(|s| s * scale);
    for r in 0..seq {
        let row = dense_scores.row_mut(r);
        let max = row
            .iter()
            .enumerate()
            .filter(|(c, _)| mask.get(r, *c))
            .map(|(_, &x)| x)
            .fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (c, x) in row.iter_mut().enumerate() {
            if mask.get(r, c) {
                *x = (*x - max).exp();
                sum += *x;
            } else {
                *x = 0.0;
            }
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
    let probs = VnmMatrix::compress(&dense_scores.to_half(), &mask, cfg);

    // 3. Probabilities x values through Spatha.
    let out = spmm(&probs, &v, &SpmmOptions::default(), &device);
    println!(
        "spmm:  {:.4} ms simulated ({:?})",
        out.timing.time_ms, out.timing.limiter
    );

    // Verify against the dense attention on the same (masked) scores.
    let reference = gemm::gemm_ref(&probs.decompress(), &v);
    let err = norms::rel_frobenius_error(&out.c, &reference);
    println!(
        "output {}x{}, relative error vs reference: {err:.2e}",
        out.c.rows(),
        out.c.cols()
    );
    assert!(err < 1e-5);

    // Compare with fully dense attention cost at the same sizes.
    let dense_scores_t =
        venom::baselines::DenseGemm::time(GemmShape::new(seq, d_head, seq), &device);
    let dense_ctx_t = venom::baselines::DenseGemm::time(GemmShape::new(seq, seq, d_head), &device);
    println!(
        "dense attention matmuls would cost {:.4} ms; sparse pipeline {:.4} ms",
        dense_scores_t.time_ms + dense_ctx_t.time_ms,
        scores.timing.time_ms + out.timing.time_ms
    );
}
