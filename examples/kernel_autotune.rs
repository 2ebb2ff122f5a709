//! Template autotuning: enumerate Spatha tile configurations for one
//! problem, price them on the cost model, and compare the winner with the
//! rule-based default — the Rust equivalent of picking a CUDA template
//! specialisation.
//!
//! Run with: `cargo run --release --example kernel_autotune`

use venom::prelude::*;
use venom::spatha::{autotune, build_counts, default_config, SpmmOptions};

fn main() {
    let device = DeviceConfig::rtx3090();
    let cfg = VnmConfig::new(128, 2, 16);

    for (r, k, c, label) in [
        (1024usize, 4096usize, 4096usize, "BERT-large square-ish"),
        (1024, 12288, 512, "long-K, narrow output"),
        (4096, 1024, 8192, "short-K, wide output"),
    ] {
        println!("\n=== {label}: {r} x {k} x {c}, pattern {cfg} ===");
        // The cost model reads the shape and the pattern only, so no
        // weight is materialised.
        let opts = SpmmOptions::default();
        let def = default_config(cfg, k, c, &device);
        let def_counts = build_counts(r, k, c, cfg, &def, &opts);
        let def_ms = venom::sim::pipeline::simulate(&device, &def_counts)
            .unwrap()
            .time_ms;

        let (best, best_ms) = autotune(r, k, c, cfg, &opts, &device);
        println!("default  {def}: {def_ms:.3} ms");
        println!(
            "autotuned {best}: {best_ms:.3} ms ({:.1}% faster)",
            100.0 * (def_ms - best_ms) / def_ms
        );

        let best_counts = build_counts(r, k, c, cfg, &best, &opts);
        let timing = venom::sim::pipeline::simulate(&device, &best_counts).unwrap();
        println!(
            "  limiter {:?}, waves {:.2}, pipeline efficiency {:.2}, {:.1} TFLOP/s effective",
            timing.limiter, timing.waves, timing.pipeline_efficiency, timing.tflops
        );
    }
}
