//! The int8 executor: the i32-accumulating stream a [`crate::Plan`]
//! built for an `i8` descriptor replays.
//!
//! An int8 plan captures, at build time, the calibrated
//! [`QuantVnmMatrix`] (per-output-channel symmetric scales), its i8
//! codes condensed into the operand container every f16 plan also
//! replays ([`QuantVnmMatrix::operands`]: row pointers, an i8 value
//! plane and the shared u16/u32 sources, 3 B per operand below
//! K = 65536) — the `IntStream` below — and the int8-priced launch
//! (Table 1's `Uint8` `mma.sp` row: half the operand bytes, double the
//! k-depth per instruction).
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

use crate::plan::BAND_ROWS;
use crate::simd::avx2_dispatch;
use crate::stage;
use rayon::prelude::*;
use venom_format::{Extent, Operands, QuantVnmMatrix, Sources};
use venom_fp16::Half;
use venom_quant::{calibrate, Calibration};
use venom_tensor::Matrix;

/// The condensed int8 stream: the quantized container's i8 codes in the
/// shared operand container, plus the scales that dequantize them.
///
/// Codes are widened to `i16` as they load — the integer analogue of the
/// f16 pipeline's f32 staging: an i8 x i8 product fits exactly in an i16
/// multiply, the operation SSE2-class vector units execute natively,
/// where a 32-bit integer multiply would fall back to scalar code. The
/// widening changes no value (`|code| <= 127`).
#[derive(Clone, Debug)]
pub(crate) struct IntStream {
    pub(crate) ops: Operands<i8>,
    /// Per-row weight scales of the quantized container.
    scales: Vec<f32>,
    /// Per-call calibrator of the activation operand.
    act_calib: Calibration,
}

impl IntStream {
    /// The quantized container's condensed codes and scales.
    pub(crate) fn from_quant(a: &QuantVnmMatrix, act_calib: Calibration) -> Self {
        IntStream {
            ops: a.operands(),
            scales: a.scales().to_vec(),
            act_calib,
        }
    }

    /// Accumulates one output row's stream chain into `orow` — THE
    /// integer kernel: a 4-way-unrolled walk multiplying i16 codes
    /// (exact: both factors are i8-ranged) before the widening add, the
    /// shape baseline vector ISAs execute without a 32-bit integer
    /// multiply. Both run paths call this one body, through the AVX2
    /// dispatch (`dispatch_accumulate_row`), which is what keeps
    /// fused-dequant and plain runs bit-identical by construction; integer
    /// accumulation is exact, so lane width cannot change a bit either.
    #[inline(always)]
    fn accumulate_row(&self, r: usize, b_i16: &[i16], b_cols: usize, orow: &mut [i32]) {
        match self.ops.sources() {
            Sources::Narrow(s) => self.accumulate_run(s, r, b_i16, b_cols, orow),
            Sources::Wide(s) => self.accumulate_run(s, r, b_i16, b_cols, orow),
        }
    }

    /// [`Self::accumulate_row`] over the stream's sources `srcs`.
    #[inline(always)]
    fn accumulate_run<S: Copy + Into<u64>>(
        &self,
        srcs: &[S],
        r: usize,
        b_i16: &[i16],
        b_cols: usize,
        orow: &mut [i32],
    ) {
        let ops = self.ops.row(r);
        let (vals, srcs) = (&self.ops.values()[ops.clone()], &srcs[ops]);
        let brow = |s: S| &b_i16[s.into() as usize * b_cols..][..b_cols];
        let quads = vals.len() / 4 * 4;
        for (v, s) in vals[..quads].chunks_exact(4).zip(srcs.chunks_exact(4)) {
            let (v0, v1, v2, v3) = (
                i16::from(v[0]),
                i16::from(v[1]),
                i16::from(v[2]),
                i16::from(v[3]),
            );
            let (b0, b1, b2, b3) = (brow(s[0]), brow(s[1]), brow(s[2]), brow(s[3]));
            for ((((o, &x0), &x1), &x2), &x3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o += (v0 * x0) as i32 + (v1 * x1) as i32 + (v2 * x2) as i32 + (v3 * x3) as i32;
            }
        }
        for (&q, &s) in vals[quads..].iter().zip(&srcs[quads..]) {
            let vi = i16::from(q);
            for (o, &x) in orow.iter_mut().zip(brow(s)) {
                *o += (vi * x) as i32;
            }
        }
    }

    /// `C = A * B` over a staged RHS (`k x b_cols`, row-major i16 codes)
    /// into `out` (`rows x b_cols` i32, zero-initialised). Accumulation
    /// is exact, so neither the banding parallelism nor the unroll can
    /// change a bit.
    fn run_into(&self, b_i16: &[i16], b_cols: usize, out: &mut [i32]) {
        let Extent { rows, k, .. } = self.ops.extent();
        assert_eq!(b_i16.len(), k * b_cols, "staged RHS size mismatch");
        assert_eq!(out.len(), rows * b_cols, "output size mismatch");
        out.par_chunks_mut(BAND_ROWS * b_cols)
            .enumerate()
            .for_each(|(band, chunk)| {
                let row0 = band * BAND_ROWS;
                for (i, orow) in chunk.chunks_mut(b_cols).enumerate() {
                    dispatch_accumulate_row(self, row0 + i, b_i16, b_cols, orow);
                }
            });
    }

    fn run(&self, b_i16: &[i16], b_cols: usize) -> Matrix<i32> {
        let rows = self.ops.extent().rows;
        let mut out = vec![0i32; rows * b_cols];
        self.run_into(b_i16, b_cols, &mut out);
        Matrix::from_vec(rows, b_cols, out)
    }

    /// [`Self::run`] with the dequantization fused into the band loop:
    /// each band accumulates into a cache-resident i32 scratch and then
    /// writes `acc as f32 * scales[r]` straight into the f32 output —
    /// one pass over the 4-byte output instead of an i32 store pass plus
    /// a dequantize pass. The integer accumulation and the per-element
    /// dequant expression are exactly those of the unfused path, so the
    /// result is bit-identical to `run` followed by elementwise
    /// dequantization.
    fn run_dequant(&self, b_i16: &[i16], b_cols: usize, scales: &[f32]) -> Matrix<f32> {
        let Extent { rows, k, .. } = self.ops.extent();
        assert_eq!(b_i16.len(), k * b_cols, "staged RHS size mismatch");
        assert_eq!(scales.len(), rows, "one dequant scale per row");
        let mut out = vec![0.0f32; rows * b_cols];
        out.par_chunks_mut(BAND_ROWS * b_cols)
            .enumerate()
            .for_each(|(band, chunk)| {
                let row0 = band * BAND_ROWS;
                let band_rows = chunk.len() / b_cols;
                // The same accumulation kernel, into a cache-resident
                // band scratch.
                let mut acc = vec![0i32; band_rows * b_cols];
                for (i, arow) in acc.chunks_mut(b_cols).enumerate() {
                    dispatch_accumulate_row(self, row0 + i, b_i16, b_cols, arow);
                }
                for (i, (orow, arow)) in
                    chunk.chunks_mut(b_cols).zip(acc.chunks(b_cols)).enumerate()
                {
                    let sc = scales[row0 + i];
                    for (o, &a) in orow.iter_mut().zip(arow) {
                        *o = a as f32 * sc;
                    }
                }
            });
        Matrix::from_vec(rows, b_cols, out)
    }

    /// The exact integer entry point: `C = A_q * B_q` with i32
    /// accumulation (the codes are staged to i16; `|code| <= 127` makes
    /// the widening value-preserving).
    ///
    /// # Panics
    /// Panics if `B` has a row count different from the planned K.
    pub(crate) fn run_i8(&self, b: &Matrix<i8>) -> Matrix<i32> {
        let k = self.ops.extent().k;
        assert_eq!(b.rows(), k, "B must have K = {k} rows");
        let staged: Vec<i16> = b.as_slice().iter().map(|&q| q as i16).collect();
        self.run(&staged, b.cols())
    }

    /// [`quantize_operand`] staged directly to the i16 codes the stream
    /// consumes — numerically identical codes, one pass.
    fn quantize_operand_i16(&self, b: &Matrix<Half>) -> (Vec<i16>, f32) {
        let (q, params) = venom_quant::quantize_slice_i16(b.as_slice(), self.act_calib);
        (q, params.scale)
    }

    /// The dequantization factor of row `r` for an operand quantized at
    /// `act_scale` — the one expression every f32-facing path multiplies
    /// the integer accumulators by.
    #[inline]
    fn dequant_scale(&self, r: usize, act_scale: f32) -> f32 {
        self.scales[r] * act_scale
    }

    /// `C = A * B` over a half RHS: quantize, integer multiply, fused
    /// dequantization.
    pub(crate) fn run_half(&self, b: &Matrix<Half>) -> Matrix<f32> {
        let Extent { rows, k, .. } = self.ops.extent();
        assert_eq!(b.rows(), k, "B must have K = {k} rows");
        let (b_q, act_scale) = self.quantize_operand_i16(b);
        let scales: Vec<f32> = (0..rows)
            .map(|r| self.dequant_scale(r, act_scale))
            .collect();
        self.run_dequant(&b_q, b.cols(), &scales)
    }

    /// One dispatch over many requests; each request keeps its own
    /// per-tensor scale.
    pub(crate) fn run_batch(&self, bs: &[&Matrix<Half>]) -> Vec<Matrix<f32>> {
        if bs.is_empty() {
            return Vec::new();
        }
        let Extent { rows, k, .. } = self.ops.extent();
        let total: usize = bs.iter().map(|b| b.cols()).sum();
        // The concatenated integer dispatch is column-independent, so one
        // multiply and a per-block dequantization is bit-identical to
        // separate runs.
        let mut staged = vec![0i16; k * total];
        let mut scales = Vec::with_capacity(bs.len());
        let mut col0 = 0usize;
        for b in bs {
            assert_eq!(b.rows(), k, "B must have K = {k} rows");
            let (b_q, s) = self.quantize_operand_i16(b);
            scales.push(s);
            let cols = b.cols();
            for r in 0..k {
                staged[r * total + col0..r * total + col0 + cols]
                    .copy_from_slice(&b_q[r * cols..(r + 1) * cols]);
            }
            col0 += cols;
        }
        let acc = self.run(&staged, total);
        let mut out = Vec::with_capacity(bs.len());
        let mut col0 = 0usize;
        for (b, &act_scale) in bs.iter().zip(&scales) {
            let cols = b.cols();
            let mut part = vec![0.0f32; rows * cols];
            for r in 0..rows {
                let s = self.dequant_scale(r, act_scale);
                let arow = &acc.as_slice()[r * total + col0..r * total + col0 + cols];
                for (o, &a) in part[r * cols..(r + 1) * cols].iter_mut().zip(arow) {
                    *o = a as f32 * s;
                }
            }
            out.push(Matrix::from_vec(rows, cols, part));
            col0 += cols;
        }
        out
    }

    /// The fused layer forward `y = x W^T + b`.
    pub(crate) fn run_linear(&self, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        assert_eq!(x.cols(), self.ops.extent().k, "input features mismatch");
        let staged = stage::stage_activations_t(x);
        self.run_linear_staged(&staged, x.rows(), bias)
    }

    /// [`Self::run_linear`] over a pre-staged operand.
    pub(crate) fn run_linear_staged(
        &self,
        staged: &[f32],
        tokens: usize,
        bias: &[f32],
    ) -> Matrix<f32> {
        let rows = self.ops.extent().rows;
        assert_eq!(bias.len(), rows, "bias must match out_features");
        // The staged buffer holds exact f16 decodes, so calibrating it
        // equals calibrating the half operand, and mapping each value's
        // f16 bits through the code table lands on the same codes the
        // per-call chain gets.
        let params = calibrate(staged, self.act_calib);
        let table = venom_quant::quant_code_table(params);
        let b_q: Vec<i16> = staged
            .iter()
            .map(|&v| table[venom_fp16::f32_to_f16_bits(v) as usize] as i16)
            .collect();
        let mut acc = vec![0i32; rows * tokens];
        self.run_into(&b_q, tokens, &mut acc);
        // Dequantization folded into the tiled transpose+bias epilogue:
        // y[t][r] = acc[r][t] * s_r + bias[r], the exact expression of
        // the per-call chain (`run_oneshot` dequant, transpose, bias).
        const TILE: usize = 32;
        let mut y = vec![0.0f32; tokens * rows];
        for t0 in (0..tokens).step_by(TILE) {
            let t1 = (t0 + TILE).min(tokens);
            for r0 in (0..rows).step_by(TILE) {
                let r1 = (r0 + TILE).min(rows);
                for t in t0..t1 {
                    let yrow = &mut y[t * rows..][r0..r1];
                    for (r, o) in (r0..r1).zip(yrow.iter_mut()) {
                        *o = acc[r * tokens + t] as f32 * self.dequant_scale(r, params.scale)
                            + bias[r];
                    }
                }
            }
        }
        Matrix::from_vec(tokens, rows, y)
    }
}

avx2_dispatch! {
    /// [`IntStream::accumulate_row`], compiled for AVX2 where the host has
    /// it.
    fn dispatch_accumulate_row(
        s: &IntStream,
        r: usize,
        b_i16: &[i16],
        b_cols: usize,
        orow: &mut [i32],
    ) = IntStream::accumulate_row;
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
        let desc = MatmulDescriptor::new(a.shape().0, a.shape().1).with_b_cols(b_cols);
        Plan::build_quant(
            a,
            Calibration::AbsMax,
            desc,
            &SpmmOptions::default(),
            &dev(),
        )
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
    #[test]
    fn int_replay_reads_wide_sources() {
        // K past 16-bit sources: the codes replay over 32-bit sources,
        // some of them past 65535.
        let k = (u16::MAX as usize + 1) + 64;
        let a = vnm_fixture(16, k, VnmConfig::new(16, 2, 8), 13);
        let weight = QuantVnmMatrix::quantize(&a, Calibration::AbsMax);
        let stream = IntStream::from_quant(&weight, Calibration::AbsMax);
        let Sources::Wide(srcs) = stream.ops.sources() else {
            panic!("K = {k} needs 32-bit sources")
        };
        assert!(srcs.iter().any(|&s| s > u32::from(u16::MAX)));
        let b = Matrix::from_fn(k, 9, |r, c| ((r * 19 + c * 7) % 255) as u8 as i8);
        assert_eq!(stream.run_i8(&b), weight.spmm_ref_i8(&b));
    }

    #[test]
    fn int_replay_matches_baseline_and_the_i8_oracle() {
        // Widths around one AVX2 lane block, row counts off the band
        // height, K = 1, and codes at both ends of the i8 range.
        for cfg in [VnmConfig::new(64, 2, 10), VnmConfig::new(8, 2, 4)] {
            for (rows, k) in [(37usize, 1usize), (150, 230)] {
                let a = vnm_fixture(rows, k, cfg, (rows + k) as u64);
                let weight = QuantVnmMatrix::quantize(&a, Calibration::AbsMax);
                let stream = IntStream::from_quant(&weight, Calibration::AbsMax);
                for width in [1usize, 7, 8, 9, 255, 256, 300] {
                    let b = Matrix::from_fn(k, width, |r, c| match (r * 7 + c * 13) % 11 {
                        0 => i8::MIN,
                        1 => i8::MAX,
                        2 => -127,
                        _ => ((r * 19 + c * 7) % 255) as u8 as i8,
                    });
                    let staged: Vec<i16> = b.as_slice().iter().map(|&q| q as i16).collect();
                    let got = stream.run_i8(&b);
                    let mut base = vec![0i32; rows * width];
                    for (r, orow) in base.chunks_mut(width).enumerate() {
                        stream.accumulate_row(r, &staged, width, orow);
                    }
                    let at = format!("{cfg} {rows}x{k} width {width}");
                    assert_eq!(got.as_slice(), &base[..], "{at}: dispatched != baseline");
                    assert_eq!(got, weight.spmm_ref_i8(&b), "{at}: planned != spmm_ref_i8");
                }
            }
        }
    }
}
