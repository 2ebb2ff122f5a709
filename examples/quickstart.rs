//! Quickstart: prune a weight matrix to V:N:M, compress it, multiply it
//! against dense activations on the simulated RTX 3090, and verify the
//! result against a dense reference.
//!
//! Run with: `cargo run --release --example quickstart`

use venom::prelude::*;
use venom::pruner::{energy, magnitude};
use venom::tensor::{gemm, norms, random};

fn main() {
    // A "trained" weight matrix: 512 x 1024, Glorot-shaped magnitudes.
    let weight = random::glorot_matrix(512, 1024, 42);

    // Prune to 64:2:16 — 87.5% sparsity, far beyond the hardware's 2:4.
    let cfg = VnmConfig::new(64, 2, 16);
    let mask = magnitude::prune_vnm(&weight, cfg);
    println!("pattern {cfg}: sparsity {:.1}%", 100.0 * mask.sparsity());
    println!("energy preserved: {:.3}", energy(&weight, &mask));

    // Compress to the paper's three structures.
    let sparse = VnmMatrix::compress(&mask.apply_f32(&weight).to_half(), &mask, cfg);
    println!(
        "compressed: values {} B + m-indices {} B + column-loc {} B ({:.1}x smaller than dense)",
        sparse.values_bytes(),
        sparse.m_indices_bytes(),
        sparse.column_loc_bytes(),
        sparse.compression_ratio()
    );

    // Multiply against activations on the simulated device.
    let activations = random::activation_matrix(1024, 256, 7).to_half();
    let device = DeviceConfig::rtx3090();
    let out = venom::spatha::spmm(&sparse, &activations, &SpmmOptions::default(), &device);

    println!(
        "Spatha {}: {:.3} ms simulated on {} ({:.1} effective TFLOP/s, limited by {:?})",
        out.tile, out.timing.time_ms, device.name, out.timing.tflops, out.timing.limiter
    );

    // Verify against the dense reference on the pruned weights.
    let reference = gemm::gemm_ref(&sparse.decompress(), &activations);
    let err = norms::rel_frobenius_error(&out.c, &reference);
    println!("relative error vs dense reference: {err:.2e}");
    assert!(err < 1e-6, "functional execution must match the reference");

    // And compare with the dense GEMM's simulated time.
    let shape = gemm::shape_of(&weight.to_half(), &activations);
    let dense = venom::baselines::DenseGemm::time(shape, &device);
    println!(
        "dense cuBLAS model: {:.3} ms -> speedup {:.2}x (theoretical cap for 2:16 is {:.0}x)",
        dense.time_ms,
        dense.time_ms / out.timing.time_ms,
        cfg.theoretical_speedup_cap()
    );
}
