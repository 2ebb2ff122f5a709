//! Int8 conformance suite for the quantized V:N:M subsystem.
//!
//! Two contracts, checked across the V x N:M grid and both calibrators:
//!
//! 1. **Exactness of the integer core** — the full
//!    quantize → compress → plan → run chain (engine-built
//!    int8 [`Plan`], i16-staged stream, banded parallel replay) is
//!    *bit-identical* to the scalar i32 oracle: the container's
//!    `spmm_ref_i8` and, behind it, `venom::quant::gemm_ref_i8` over the
//!    decompressed i8 plane. Integer accumulation never rounds, so any
//!    divergence is a real bug, not a tolerance question.
//! 2. **Accuracy of the dequantized surface** — on the Fig. 9 layer
//!    shapes, the f32 output of the int8 plan stays within the
//!    *calibrator-derived* error bound of the f16 oracle: per output
//!    element, the propagated bound
//!    `sum_k (bw_r |b(k,c)| + |w(r,k)| bb + bw_r bb)` built from
//!    [`venom::quant::quant_error_bound`] of the row's stored weights
//!    (`bw_r`) and of the activation tensor (`bb`), plus a small float
//!    headroom for the two accumulations' own rounding. No hand-waved
//!    tolerances: the bound is computed from the calibrators, and the
//!    suite also asserts it is *tight enough to be meaningful* (the
//!    percentile calibrator must actually deliver smaller bounds than
//!    absmax would on heavy-tailed rows).

use venom::format::{QuantVnmMatrix, SparsityMask};
use venom::prelude::*;
use venom::pruner::magnitude;
use venom::quant::{gemm_ref_i8, quant_error_bound, Calibration};
use venom::runtime::MatmulPlan;
use venom::tensor::random;

const GRID_V: [usize; 4] = [8, 16, 64, 128];
const GRID_NM: [(usize, usize); 3] = [(2, 8), (2, 10), (2, 16)];
const CALIBRATORS: [Calibration; 2] = [Calibration::AbsMax, Calibration::Percentile(99.5)];

fn engine() -> Engine {
    Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(48)
}

/// A magnitude-pruned half weight complying with `cfg`.
fn pruned_weight(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> (Matrix<Half>, SparsityMask) {
    let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
    let mask = magnitude::prune_vnm(&w, cfg);
    (mask.apply_f32(&w).to_half(), mask)
}

/// A deterministic i8 operand.
fn i8_operand(rows: usize, cols: usize, seed: usize) -> Matrix<i32> {
    // Returned as i32 matrix codes in [-127, 127]; converted below.
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17 + seed * 7) % 255) as i32 - 127
    })
}

fn to_i8(m: &Matrix<i32>) -> Matrix<i8> {
    Matrix::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) as i8)
}

#[test]
fn plan_run_is_bit_identical_to_the_i8_oracle_across_the_grid() {
    for &v in &GRID_V {
        for &(n, m) in &GRID_NM {
            let cfg = VnmConfig::new(v, n, m);
            let (r, k) = (2 * v.max(16), 4 * m.max(10));
            let (w, mask) = pruned_weight(r, k, cfg, (v * m) as u64);
            assert!(mask.complies_vnm(cfg));
            for calib in CALIBRATORS {
                let tag = format!("{cfg} {calib}");
                // quantize -> compress (the container) ...
                let a = VnmMatrix::compress(&w, &mask, cfg);
                let q = QuantVnmMatrix::quantize(&a, calib);
                // ... -> plan (engine path over the same weights) ...
                let eng = engine().with_calibration(calib);
                let plan = eng.plan_quant_spmm(&a);
                assert_eq!(
                    plan.quantized().expect("an int8 plan").values(),
                    q.values(),
                    "{tag}: containers agree"
                );
                // ... -> run: bit-identical to the scalar i32 oracle.
                let b = to_i8(&i8_operand(k, 13, v + m));
                let want = q.spmm_ref_i8(&b);
                assert_eq!(
                    plan.run_i8(&b),
                    Some(want.clone()),
                    "{tag}: plan vs spmm_ref_i8"
                );
                assert_eq!(gemm_ref_i8(&q.dense_i8(), &b), want, "{tag}: dense oracle");
                assert_eq!(
                    q.spmm_parallel_i8(&b),
                    want,
                    "{tag}: parallel container path"
                );
                // The f16-facing surface keeps planned == per-call bitwise.
                let bh = random::normal_matrix(k, 9, 0.0, 1.0, (v + m) as u64).to_half();
                assert_eq!(
                    plan.run(&bh),
                    plan.run_oneshot(&bh),
                    "{tag}: planned vs per-call"
                );
            }
        }
    }
}

#[test]
fn engine_i8_descriptor_chain_matches_the_oracle() {
    // The erased plan_with_format path (dtype I8) must execute the same
    // integer core: its f32 output over a half operand equals manual
    // quantize -> integer oracle -> dequantize.
    let cfg = VnmConfig::new(16, 2, 8);
    let (w, mask) = pruned_weight(48, 64, cfg, 3);
    assert!(mask.complies_vnm(cfg));
    let eng = engine();
    let desc = eng.descriptor(48, 64).with_dtype(venom::runtime::DType::I8);
    let plan = eng.plan_with_format(MatmulFormat::Vnm, &desc, &w).unwrap();
    let bh = random::normal_matrix(64, 11, 0.0, 1.0, 4).to_half();
    assert_eq!(plan.run(&bh), plan.run_oneshot(&bh));
    assert_eq!(plan.descriptor().dtype, venom::runtime::DType::I8);
}

/// The calibrator-derived per-element bound of `|y_q - y_f16|` for one
/// weight row: `sum_k in row (bw |b| + |w| bb + bw bb)` plus float
/// headroom for the two chains' own f32 accumulation rounding.
struct ErrorBound {
    /// `sum_k |b(k, c)|` restricted to the row's stored columns.
    babs_row: Vec<f64>,
    /// `sum_k |w(r, k)|`.
    wabs: f64,
    nnz: usize,
    bw: f64,
    bb: f64,
}

impl ErrorBound {
    fn bound(&self, c: usize) -> f64 {
        self.bw * self.babs_row[c] + (self.wabs + self.nnz as f64 * self.bw) * self.bb
    }
}

#[test]
fn dequantized_error_is_within_the_calibrator_bound_on_fig9_shapes() {
    // Fig. 9 fixes R = 1024 and sweeps K; two points of the sweep at a
    // test-sized column count.
    let shapes = [
        (1024usize, 768usize, VnmConfig::new(128, 2, 10)),
        (1024, 1536, VnmConfig::new(128, 2, 10)),
    ];
    for (r, k, cfg) in shapes {
        let (w, mask) = pruned_weight(r, k, cfg, 9);
        let a = VnmMatrix::compress(&w, &mask, cfg);
        let bh = random::activation_matrix(32, k, 10).to_half().transpose(); // k x 32
        let oracle = a.spmm_ref(&bh);
        // Stored columns of every row, gathered in one traversal.
        let mut rows_cols: Vec<Vec<usize>> = vec![Vec::new(); r];
        a.for_each_nonzero(|rr, cc, _| rows_cols[rr].push(cc));
        for calib in CALIBRATORS {
            let eng = engine().with_calibration(calib);
            let plan = eng.plan_quant_spmm(&a);
            let got = plan.run(&bh);
            // Activation-side bound: the plan quantizes b per tensor
            // with the same calibrator.
            let b_f32: Vec<f32> = bh.as_slice().iter().map(|h| h.to_f32()).collect();
            let bb = quant_error_bound(&b_f32, calib) as f64;
            let spr = a.slots_per_row();
            let mut worst_ratio = 0.0f64;
            for row in 0..r {
                let stored: Vec<f32> = a.values()[row * spr..(row + 1) * spr]
                    .iter()
                    .filter(|h| !h.is_zero())
                    .map(|h| h.to_f32())
                    .collect();
                let bw = quant_error_bound(&stored, calib) as f64;
                let cols = &rows_cols[row];
                let mut babs_row = vec![0.0f64; bh.cols()];
                for &kk in cols {
                    for (c, s) in babs_row.iter_mut().enumerate() {
                        *s += bh.get(kk, c).to_f32().abs() as f64;
                    }
                }
                let wabs: f64 = stored.iter().map(|v| v.abs() as f64).sum();
                let eb = ErrorBound {
                    babs_row,
                    wabs,
                    nnz: cols.len(),
                    bw,
                    bb,
                };
                for c in 0..bh.cols() {
                    let err = (got.get(row, c) as f64 - oracle.get(row, c) as f64).abs();
                    // Float headroom: both chains accumulate ~nnz f32
                    // products; their own rounding is far below the
                    // quantization bound but not zero.
                    let tol =
                        eb.bound(c) * (1.0 + 1e-4) + 1e-3 * (1.0 + oracle.get(row, c).abs() as f64);
                    assert!(
                        err <= tol,
                        "({row},{c}) err {err} > bound {tol} [{calib}, k={k}]"
                    );
                    worst_ratio = worst_ratio.max(err / tol);
                }
            }
            // The bound must be doing real work: the observed error gets
            // within an order of magnitude of it somewhere.
            assert!(
                worst_ratio > 1e-3,
                "bound is vacuously loose (worst err/bound {worst_ratio:.2e}) [{calib}, k={k}]"
            );
        }
    }
}

#[test]
fn percentile_calibration_tightens_heavy_tailed_rows() {
    // A weight with planted outliers: absmax spends the whole grid on
    // the outlier, the 99.5th percentile clips it and resolves the bulk
    // ~10x finer — the accuracy knob the README documents.
    let cfg = VnmConfig::new(16, 2, 8);
    let mut w = random::normal_matrix(64, 128, 0.0, 0.05, 11);
    for r in 0..64 {
        let c = (r * 7) % 128;
        w.set(r, c, 8.0 * if r % 2 == 0 { 1.0 } else { -1.0 });
    }
    let mask = magnitude::prune_vnm(&w, cfg);
    let a = VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg);
    let q_abs = QuantVnmMatrix::quantize(&a, Calibration::AbsMax);
    let q_pct = QuantVnmMatrix::quantize(&a, Calibration::Percentile(95.0));
    let finer = (0..64)
        .filter(|&r| q_pct.scales()[r] < q_abs.scales()[r] / 5.0)
        .count();
    assert!(
        finer > 32,
        "only {finer}/64 rows got a finer grid from percentile calibration"
    );
}
