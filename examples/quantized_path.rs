//! End-to-end tour of the int8 quantized path, and the generator of the
//! EXPERIMENTS.md int8-vs-f16 accuracy table.
//!
//! For each Fig. 9 layer shape and each calibrator, quantizes a
//! magnitude-pruned V:N:M weight, plans the i32-accumulating dispatch
//! (`Engine::plan_quant_spmm`: a `Plan` on the int8 executor, next to
//! the f16 `Plan` on the stream executor from `Engine::plan_spmm`),
//! and reports max-abs / relative error of the dequantized output
//! against the f16 planned path, plus wall time of both.
//!
//! Run: `cargo run --release --example quantized_path`

use std::time::Instant;
use venom::prelude::*;
use venom::pruner::magnitude;
use venom::quant::Calibration;
use venom::tensor::random;

fn main() {
    let dev = DeviceConfig::rtx3090();
    let c = 4096;
    println!("int8 vs f16 on the Fig. 9 shapes (R=1024, C={c}), both calibrators\n");
    println!(
        "{:<22} {:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "shape", "calib", "max-abs err", "rel-frob err", "f16 ms", "i8 ms", "i8 model ms"
    );
    for (k, cfg) in [
        (768usize, VnmConfig::new(128, 2, 10)),
        (1536, VnmConfig::new(128, 2, 10)),
        (3072, VnmConfig::new(128, 2, 20)),
    ] {
        let w = random::glorot_matrix(1024, k, 1);
        let mask = magnitude::prune_vnm(&w, cfg);
        let a = VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg);
        let b = random::normal_matrix(k, c, 0.0, 1.0, 2).to_half();
        let engine = Engine::new(dev.clone()).with_b_cols_hint(c);
        let fplan = engine.plan_spmm(&a);
        let y_f16 = fplan.run(&b);
        let t0 = Instant::now();
        let _ = std::hint::black_box(fplan.run(&b));
        let f16_ms = t0.elapsed().as_secs_f64() * 1e3;
        for calib in [Calibration::AbsMax, Calibration::Percentile(99.5)] {
            let qplan = engine.clone().with_calibration(calib).plan_quant_spmm(&a);
            let y_i8 = qplan.run(&b);
            let t0 = Instant::now();
            let _ = std::hint::black_box(qplan.run(&b));
            let i8_ms = t0.elapsed().as_secs_f64() * 1e3;
            let max_abs = venom::tensor::norms::max_abs_diff(&y_i8, &y_f16);
            let rel = venom::tensor::norms::rel_frobenius_error(&y_i8, &y_f16);
            println!(
                "{:<22} {:<8} {:>12.4} {:>12.5} {:>12.1} {:>12.1} {:>12.3}",
                format!("1024x{k} {cfg}"),
                calib.to_string(),
                max_abs,
                rel,
                f16_ms,
                i8_ms,
                qplan.timing().map(|t| t.time_ms).unwrap_or(f64::NAN),
            );
        }
    }
    println!(
        "\n(max-abs and relative Frobenius error of the dequantized int8 output vs the\n\
         f16 planned path; wall times are one functional CPU dispatch; 'i8 model ms'\n\
         is the simulated GPU launch the engine prices plans with)"
    );
}
