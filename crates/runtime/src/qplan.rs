//! The int8 lane: the value plane a [`crate::Plan`] built for an `i8`
//! descriptor replays through the one operand stream.
//!
//! An int8 plan captures, at build time, the calibrated
//! [`QuantVnmMatrix`] (per-output-channel symmetric scales), its i8
//! codes condensed into the operand container every f16 plan also
//! replays ([`QuantVnmMatrix::operands`]: row pointers, an i8 value
//! plane and the shared u16/u32 sources, 3 B per operand below
//! K = 65536) — a `Stream<i8>` the f16 plans' sweep replays — and the
//! int8-priced launch (Table 1's `Uint8` `mma.sp` row: half the operand
//! bytes, double the k-depth per instruction). The quantized container
//! is the one owner of the row scales and of the activation calibrator;
//! every run reads them from it ([`Lane::Boundary`]).
//!
//! Codes are widened to `i16` as they load — the integer analogue of the
//! f16 pipeline's f32 staging: an i8 x i8 product fits exactly in an i16
//! multiply, the operation SSE2-class vector units execute natively,
//! where a 32-bit integer multiply would fall back to scalar code. The
//! widening changes no value (`|code| <= 128`).
//!
//! Numerics contract, stated precisely because it differs from the f16
//! plans:
//!
//! * The **integer core** is exact: [`crate::Plan::run_i8`] equals
//!   [`QuantVnmMatrix::spmm_ref_i8`] (and [`venom_quant::gemm_ref_i8`]
//!   over the dense i8 plane) bit-for-bit, for any worker count —
//!   integer accumulation never rounds, so ordering is irrelevant.
//! * The **f16-facing surface** ([`crate::MatmulPlan`]) quantizes the
//!   activation operand per call at the boundary (one per-tensor scale
//!   under the plan's calibrator), runs the integer core, and dequantizes
//!   through the single expression `acc as f32 * (row_scale * act_scale)`
//!   — folded into the transpose/bias epilogue on the linear path. The
//!   planned and per-call paths share the quantizer and that expression,
//!   so they stay bit-identical *to each other*; versus the f16 oracle
//!   they carry the calibrator-bounded quantization error the accuracy
//!   suites measure.

use crate::plan::Lane;
use std::borrow::Cow;
use venom_format::QuantVnmMatrix;
use venom_fp16::Half;
use venom_quant::{calibrate, Calibration};
use venom_tensor::Matrix;

impl Lane for i8 {
    type Staged = i16;
    type Acc = i32;
    type Decode = ();
    type Boundary = QuantVnmMatrix;

    #[inline]
    fn decode() -> &'static () {
        &()
    }

    #[inline(always)]
    fn load(_: &(), q: i8) -> i16 {
        i16::from(q)
    }

    /// The i16 multiply is exact (both factors are i8-ranged) before the
    /// widening add.
    #[inline(always)]
    fn mac(acc: i32, v: i16, x: i16) -> i32 {
        acc + i32::from(v * x)
    }

    /// Per-tensor quantization of `b` under the weight's calibrator,
    /// through [`venom_quant::quantize_slice_i16`].
    fn stage_half(
        w: &QuantVnmMatrix,
        b: &Matrix<Half>,
        dst: &mut [i16],
        stride: usize,
        col0: usize,
    ) -> f32 {
        let (q, params) = venom_quant::quantize_slice_i16(b.as_slice(), w.calibration());
        let cols = b.cols();
        for r in 0..b.rows() {
            dst[r * stride + col0..][..cols].copy_from_slice(&q[r * cols..][..cols]);
        }
        params.scale
    }

    /// The staged buffer holds exact f16 decodes, so calibrating it
    /// equals calibrating the half operand, and mapping each value's f16
    /// bits through the code table lands on the same codes the per-call
    /// chain gets.
    fn stage_f32<'a>(w: &QuantVnmMatrix, staged: &'a [f32]) -> (Cow<'a, [i16]>, f32) {
        let params = calibrate(staged, w.calibration());
        let table = venom_quant::quant_code_table(params);
        let codes = staged
            .iter()
            .map(|&v| i16::from(table[venom_fp16::f32_to_f16_bits(v) as usize]))
            .collect();
        (Cow::Owned(codes), params.scale)
    }

    /// Accumulates the band into a cache-resident i32 scratch, then
    /// writes `acc as f32 * (row_scale * act_scale)` straight into the
    /// f32 output: one pass over the 4-byte output instead of an i32
    /// store pass plus a dequantize pass, with the expression of
    /// [`dequantize`].
    fn finish(
        w: &QuantVnmMatrix,
        acts: &[(usize, f32)],
        row0: usize,
        b_cols: usize,
        out: &mut [f32],
        replay: impl FnOnce(&mut [i32]),
    ) {
        let mut acc = vec![0i32; out.len()];
        replay(&mut acc);
        for (i, (orow, arow)) in out.chunks_mut(b_cols).zip(acc.chunks(b_cols)).enumerate() {
            let row_scale = w.scales()[row0 + i];
            let mut j0 = 0;
            for &(cols, act_scale) in acts {
                let s = row_scale * act_scale;
                for (o, &a) in orow[j0..j0 + cols].iter_mut().zip(&arow[j0..j0 + cols]) {
                    *o = a as f32 * s;
                }
                j0 += cols;
            }
        }
    }

    fn lease(len: usize) -> (Vec<i16>, usize) {
        (vec![0; len], 0)
    }

    fn release(_: Vec<i16>) {}
}

/// Quantizes an activation operand under `calib`: one per-tensor scale
/// over the exactly-decoded halves.
pub(crate) fn quantize_operand(b: &Matrix<Half>, calib: Calibration) -> (Matrix<i8>, f32) {
    let (q, params) = venom_quant::quantize_slice(b.as_slice(), calib);
    (Matrix::from_vec(b.rows(), b.cols(), q), params.scale)
}

/// Dequantizes an integer result into f32 (`acc * (row_scale *
/// act_scale)`, one rounding per element) — the expression the planned
/// paths fold into their epilogues.
pub(crate) fn dequantize(acc: Matrix<i32>, scales: &[f32], act_scale: f32) -> Matrix<f32> {
    let (rows, cols) = (acc.rows(), acc.cols());
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let s = scales[r] * act_scale;
        for (o, &a) in out[r * cols..(r + 1) * cols].iter_mut().zip(acc.row(r)) {
            *o = a as f32 * s;
        }
    }
    Matrix::from_vec(rows, cols, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, MatmulDescriptor, MatmulPlan, Plan, SpmmOptions};
    use venom_format::{SparsityMask, VnmConfig, VnmMatrix};
    use venom_quant::gemm_ref_i8;
    use venom_sim::DeviceConfig;
    use venom_tensor::random;

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    fn vnm_fixture(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> VnmMatrix {
        let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mask = SparsityMask::from_fn(r, k, |_, c| c % cfg.m < cfg.n);
        VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg)
    }

    fn build(a: &VnmMatrix, b_cols: usize) -> Plan {
        crate::Engine::new(dev())
            .with_b_cols_hint(b_cols)
            .plan_quant_spmm(a)
    }

    #[test]
    fn integer_core_is_bit_identical_to_the_i8_oracle() {
        let a = vnm_fixture(70, 93, VnmConfig::new(16, 2, 10), 1);
        let plan = build(&a, 64);
        let b = Matrix::from_fn(93, 37, |r, c| ((r * 19 + c * 7) % 255) as i32 as u8 as i8);
        let got = plan.run_i8(&b).unwrap();
        assert_eq!(got, plan.quantized().unwrap().spmm_ref_i8(&b));
        assert_eq!(got, gemm_ref_i8(&plan.quantized().unwrap().dense_i8(), &b));
    }

    #[test]
    fn planned_and_per_call_paths_are_bit_identical() {
        let a = vnm_fixture(64, 64, VnmConfig::new(32, 2, 8), 2);
        let plan = build(&a, 32);
        let b = random::normal_matrix(64, 13, 0.0, 1.0, 3).to_half();
        assert_eq!(MatmulPlan::run(&plan, &b), plan.run_oneshot(&b));
    }

    #[test]
    fn batched_run_matches_separate_runs() {
        let a = vnm_fixture(48, 64, VnmConfig::new(16, 2, 8), 4);
        let plan = build(&a, 48);
        let b1 = random::normal_matrix(64, 11, 0.0, 1.0, 5).to_half();
        let b2 = random::normal_matrix(64, 24, 0.0, 1.0, 6).to_half();
        let batch = plan.run_batch(&[&b1, &b2]);
        assert_eq!(batch[0], MatmulPlan::run(&plan, &b1));
        assert_eq!(batch[1], MatmulPlan::run(&plan, &b2));
    }

    #[test]
    fn fused_linear_matches_the_per_call_chain() {
        let a = vnm_fixture(32, 48, VnmConfig::new(16, 2, 8), 7);
        let plan = build(&a, 32);
        let bias: Vec<f32> = (0..32).map(|i| i as f32 * 0.25 - 4.0).collect();
        let x = random::activation_matrix(19, 48, 8);
        assert_eq!(
            plan.run_linear(&x, &bias),
            MatmulPlan::run_linear_percall(&plan, &x, &bias)
        );
    }

    #[test]
    fn descriptor_reports_i8_and_pricing_beats_f16() {
        let a = vnm_fixture(128, 1024, VnmConfig::new(64, 2, 8), 9);
        let plan = build(&a, 1024);
        assert_eq!(plan.descriptor().dtype, DType::I8);
        let t8 = plan.timing().expect("launchable V is priced").time_ms;
        let f16 = Plan::build_vnm(
            &a,
            MatmulDescriptor::new(128, 1024).with_b_cols(1024),
            &SpmmOptions::default(),
            &dev(),
        );
        let t16 = f16.timing().expect("priced").time_ms;
        assert!(t8 > 0.0 && t8 < t16, "i8 {t8} !< f16 {t16}");
    }

    #[test]
    fn sub_fragment_v_still_executes_exactly() {
        let a = vnm_fixture(24, 40, VnmConfig::new(8, 2, 8), 10);
        let plan = build(&a, 16);
        assert!(plan.tile().is_none());
        let b = Matrix::from_fn(40, 9, |r, c| ((r + c * 3) % 100) as i8);
        assert_eq!(
            plan.run_i8(&b).unwrap(),
            plan.quantized().unwrap().spmm_ref_i8(&b)
        );
    }

    #[test]
    fn dequantized_output_tracks_the_f16_oracle() {
        // Sanity (the precise bound check lives in the conformance
        // suite): absmax-quantized output stays close to the f16 path.
        let a = vnm_fixture(64, 80, VnmConfig::new(16, 2, 10), 11);
        let plan = build(&a, 16);
        let b = random::normal_matrix(80, 16, 0.0, 1.0, 12).to_half();
        let got = MatmulPlan::run(&plan, &b);
        let oracle = a.spmm_ref(&b);
        let rel = venom_tensor::norms::rel_frobenius_error(&got, &oracle);
        assert!(rel < 0.05, "relative error {rel} too large");
    }
}
