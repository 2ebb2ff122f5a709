//! Figure 12 — baseline performance at 50% sparsity (2:4).
//!
//! GEMM problems R x K x C with (R, C) fixed by two BERT linear layers
//! ((768, 4096) for BERT-base, (1024, 4096) for BERT-large) and K swept;
//! TFLOPS of cuBLAS, cuSparseLt and Spatha, plus sparse speedups over
//! cuBLAS.
//!
//! Paper reference: throughput grows with K; at large K cuSparseLt and
//! Spatha are similar, at small/medium K Spatha is ahead (up to 1.38x over
//! cuSparseLt); cuBLAS saturates around 60-70 TFLOPS.

use venom_baselines::cublas::DenseGemm;
use venom_baselines::cusparselt::SparseLtSpmm;
use venom_bench::{banner, csv_header, csv_row};
use venom_core::{build_counts, SpmmOptions};
use venom_format::VnmConfig;
use venom_sim::pipeline::simulate;
use venom_sim::DeviceConfig;
use venom_tensor::GemmShape;

/// Spatha at 2:4 with the autotuner (the library's tuned configuration).
fn spatha_24_ms(r: usize, k: usize, c: usize, dev: &DeviceConfig) -> f64 {
    let cfg = VnmConfig::new(128, 2, 4);
    let opts = SpmmOptions::default();
    // Shape-level autotune: evaluate the candidate space on the cost model.
    let mut best = f64::INFINITY;
    for bs_c in [32usize, 64, 128] {
        for bs_k in [32usize, 64] {
            for ws_c in [16usize, 32, 64] {
                if bs_c % ws_c != 0 {
                    continue;
                }
                for stages in [2u32, 3, 4] {
                    let tile = venom_core::TileConfig::new(128, bs_c, bs_k, 32, ws_c, stages);
                    let counts = build_counts(r, k, c, cfg, &tile, &opts);
                    if let Ok(t) = simulate(dev, &counts) {
                        best = best.min(t.time_ms);
                    }
                }
            }
        }
    }
    best
}

fn main() {
    let dev = DeviceConfig::rtx3090();
    let ks: Vec<usize> = (1..=16).map(|i| i * 768).collect();

    for (r, c, model) in [
        (768usize, 4096usize, "BERT-base (M=768, N=4096)"),
        (1024, 4096, "BERT-large (M=1024, N=4096)"),
    ] {
        banner(&format!("Figure 12: {model}"));
        csv_header(&[
            "K",
            "cublas_tflops",
            "cusparselt_tflops",
            "spatha_tflops",
            "cusparselt_speedup",
            "spatha_speedup",
            "spatha_over_cusparselt",
        ]);
        for &k in &ks {
            let shape = GemmShape::new(r, k, c);
            let flops = shape.flops() as f64;
            let dense = DenseGemm::time(shape, &dev).time_ms;
            let lt = SparseLtSpmm::time(shape, &dev).time_ms;
            let sp = spatha_24_ms(r, k, c, &dev);
            let tf = |ms: f64| flops / (ms * 1e-3) / 1e12;
            csv_row(
                &k.to_string(),
                &[tf(dense), tf(lt), tf(sp), dense / lt, dense / sp, lt / sp],
            );
        }
    }

    banner(
        "Checks (paper: Spatha ahead at small K, similar at large K, up to 1.38x over cuSparseLt)",
    );
    let small = {
        let shape = GemmShape::new(1024, 768, 4096);
        SparseLtSpmm::time(shape, &dev).time_ms / spatha_24_ms(1024, 768, 4096, &dev)
    };
    let large = {
        let shape = GemmShape::new(1024, 12288, 4096);
        SparseLtSpmm::time(shape, &dev).time_ms / spatha_24_ms(1024, 12288, 4096, &dev)
    };
    println!("Spatha over cuSparseLt at K=768: {small:.2}x; at K=12288: {large:.2}x");
}
