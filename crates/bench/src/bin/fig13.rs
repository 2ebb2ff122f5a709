//! Figure 13 — library comparison on BERT-shaped layers.
//!
//! Sparse matrices from weight-pruned BERT linear layers (sequence length
//! 512, batch 8 and 16) at sparsities 50..98%; Spatha (V = 64 and 128)
//! against cuBLAS (reference), cuSparseLt (2:4 only), Sputnik
//! (unstructured CSR) and CLASP (vw_4 / vw_8). Speedups over cuBLAS,
//! log-scale in the paper.
//!
//! Paper reference: existing sparse libraries beat cuBLAS only above
//! ~80-90% and top out around ~3x; Spatha starts at ~2x (50%) and reaches
//! up to ~27x on BERT-large with batch 16.

use std::collections::HashMap;
use venom_baselines::cublas::DenseGemm;
use venom_baselines::cusparselt::SparseLtSpmm;
use venom_baselines::{ClaspSpmm, SputnikSpmm};
use venom_bench::{banner, csv_header, csv_row, SPARSITY_LADDER};
use venom_core::{spmm_time_tuned, SpmmOptions};
use venom_format::{CsrMatrix, CvseMatrix, SparsityMask, VnmConfig};
use venom_pruner::magnitude;
use venom_sim::DeviceConfig;
use venom_tensor::{random, GemmShape};

/// The sparsified weight shapes of one BERT encoder layer.
fn weight_shapes(hidden: usize) -> Vec<(usize, usize)> {
    vec![(hidden, hidden), (4 * hidden, hidden), (hidden, 4 * hidden)]
}

/// Unstructured mask at a given sparsity (Sputnik's input).
fn unstructured_csr(rows: usize, cols: usize, sparsity: f64, seed: u64) -> CsrMatrix {
    let w = random::glorot_matrix(rows, cols, seed);
    let mask = magnitude::prune_unstructured(&w, sparsity);
    CsrMatrix::from_masked(&w.to_half(), &mask)
}

/// Vector-wise pruned CVSE matrix (CLASP's input).
fn vw_cvse(rows: usize, cols: usize, l: usize, sparsity: f64, seed: u64) -> CvseMatrix {
    let w = random::glorot_matrix(rows, cols, seed);
    let mask: SparsityMask = magnitude::prune_vectorwise(&w, l, sparsity);
    CvseMatrix::from_dense(&mask.apply_f32(&w).to_half(), l)
}

/// Sputnik and CLASP milliseconds of every pruned weight of one hidden
/// size, keyed by `(vw_l, sparsity label, r, k, c_cols)`, with `vw_l = 0`
/// for Sputnik's CSR. The seeds depend on neither the batch nor Spatha's
/// `V`, so each weight is pruned and built once per (sparsity, shape) —
/// the CVSE once per `vw_l` too — and priced at every width in `widths`.
fn baseline_times(
    hidden: usize,
    vw_ls: &[usize],
    widths: &[usize],
    dev: &DeviceConfig,
) -> HashMap<(usize, &'static str, usize, usize, usize), f64> {
    let mut times = HashMap::new();
    for (n, m, label) in SPARSITY_LADDER {
        let sparsity = 1.0 - n as f64 / m as f64;
        for (r, k) in weight_shapes(hidden) {
            let csr = unstructured_csr(r, k, sparsity, (r + k) as u64);
            for &c in widths {
                let ms = SputnikSpmm::time(&csr, c, dev).time_ms;
                times.insert((0, label, r, k, c), ms);
            }
            for &l in vw_ls {
                let cvse = vw_cvse(r, k, l, sparsity, (r * 2 + k) as u64);
                for &c in widths {
                    let ms = ClaspSpmm::time(&cvse, c, dev).time_ms;
                    times.insert((l, label, r, k, c), ms);
                }
            }
        }
    }
    times
}

/// Speedup over cuBLAS summed over the layer's weight shapes.
fn layer_speedup(
    hidden: usize,
    c_cols: usize,
    dev: &DeviceConfig,
    mut time_of: impl FnMut(usize, usize) -> f64,
) -> f64 {
    let mut time_total = 0.0;
    let mut dense_total = 0.0;
    for (r, k) in weight_shapes(hidden) {
        dense_total += DenseGemm::time(GemmShape::new(r, k, c_cols), dev).time_ms;
        time_total += time_of(r, k);
    }
    dense_total / time_total
}

fn main() {
    let dev = DeviceConfig::rtx3090();
    let seq = 512usize;

    let batches = [8usize, 16];
    let spatha_clasp = [(64usize, 4usize), (128, 8)];
    for (hidden, model) in [(768usize, "BERT-base"), (1024, "BERT-large")] {
        let baselines = baseline_times(
            hidden,
            &spatha_clasp.map(|(_, vw_l)| vw_l),
            &batches.map(|batch| seq * batch),
            &dev,
        );
        for batch in batches {
            let c_cols = seq * batch;
            for (v, vw_l) in spatha_clasp {
                banner(&format!(
                    "Figure 13: {model}, batch={batch}, Spatha {v}:N:M vs CLASP vw_{vw_l}"
                ));
                csv_header(&["sparsity", "spatha", "cusparselt", "sputnik", "clasp"]);
                for (n, m, label) in SPARSITY_LADDER {
                    let spatha = layer_speedup(hidden, c_cols, &dev, |r, k| {
                        spmm_time_tuned(
                            r,
                            k,
                            c_cols,
                            VnmConfig::new(v, n, m),
                            &SpmmOptions::default(),
                            &dev,
                        )
                        .time_ms
                    });
                    let cusparselt = if m == 4 {
                        layer_speedup(hidden, c_cols, &dev, |r, k| {
                            SparseLtSpmm::time(GemmShape::new(r, k, c_cols), &dev).time_ms
                        })
                    } else {
                        f64::NAN // the vendor library only supports 2:4
                    };
                    let sputnik = layer_speedup(hidden, c_cols, &dev, |r, k| {
                        baselines[&(0, label, r, k, c_cols)]
                    });
                    let clasp = layer_speedup(hidden, c_cols, &dev, |r, k| {
                        baselines[&(vw_l, label, r, k, c_cols)]
                    });
                    csv_row(label, &[spatha, cusparselt, sputnik, clasp]);
                }
            }
        }
    }

    banner("Checks");
    // Spatha ~2x at 50% enables the high-sparsity scaling (paper).
    let s50 = layer_speedup(1024, 512 * 16, &dev, |r, k| {
        spmm_time_tuned(
            r,
            k,
            512 * 16,
            VnmConfig::new(128, 2, 4),
            &SpmmOptions::default(),
            &dev,
        )
        .time_ms
    });
    let s98 = layer_speedup(1024, 512 * 16, &dev, |r, k| {
        spmm_time_tuned(
            r,
            k,
            512 * 16,
            VnmConfig::new(128, 2, 100),
            &SpmmOptions::default(),
            &dev,
        )
        .time_ms
    });
    println!("Spatha BERT-large bs=16: {s50:.2}x at 50% (paper ~2x), {s98:.1}x at 98% (paper up to ~27x)");
}
