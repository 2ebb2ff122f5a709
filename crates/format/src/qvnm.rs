//! The int8-quantized V:N:M container.
//!
//! Magicube's observation carries over to the V:N:M format unchanged: the
//! value plane is the only structure whose width depends on the operand
//! dtype. [`QuantVnmMatrix`] therefore stores the *same* `m-indices` and
//! `column-loc` metadata as [`VnmMatrix`] (the paper's Fig. 3 layout) and
//! swaps the 2-byte half values for a 1-byte i8 plane plus one symmetric
//! scale per logical row — per-output-channel quantization, so dequantizing
//! a row is a single multiply that folds into any epilogue.
//!
//! The container is integer-only: it does not implement
//! [`crate::SparseKernel`], whose operands are f16 values. Its execution
//! is the **integer** path ([`QuantVnmMatrix::spmm_ref_i8`] /
//! [`QuantVnmMatrix::spmm_parallel_i8`]) — exact `i32` accumulation over
//! i8 operands, bit-identical to [`venom_quant::gemm_ref_i8`] over the
//! decompressed plane (integer sums never round, so the equality is
//! order-independent). Its i8 codes condense into the same [`Operands`]
//! container the f16 formats fill ([`QuantVnmMatrix::operands`]), which
//! the runtime's int8 plans replay. [`QuantVnmMatrix::to_dense`] and
//! [`QuantVnmMatrix::dequantize_dense`] give the dequantized weight
//! (`q as f32 * row_scale`) for reporting and accuracy checks.

use crate::{OperandBuilder, Operands, SparsityMask, VnmConfig, VnmMatrix, SELECTED_COLUMNS};
use venom_fp16::Half;
use venom_quant::{calibrate, Calibration, QuantParams};
use venom_tensor::Matrix;

/// A V:N:M matrix with an int8 value plane and per-row symmetric scales.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantVnmMatrix {
    cfg: VnmConfig,
    rows: usize,
    cols: usize,
    k_groups: usize,
    row_blocks: usize,
    /// `rows * k_groups * n` quantized values in the exact slot layout of
    /// [`VnmMatrix::values`] (padding slots quantize to 0).
    values: Vec<i8>,
    /// Shared metadata, byte-identical to the f16 container's.
    m_indices: Vec<u8>,
    column_loc: Vec<u16>,
    /// One symmetric scale per logical row (output channel).
    scales: Vec<f32>,
    calibration: Calibration,
}

impl QuantVnmMatrix {
    /// Quantizes a compressed f16 V:N:M matrix: per row, the scale is
    /// calibrated over the row's stored nonzeros and every slot is
    /// quantized onto that row's grid. Metadata is carried over untouched.
    pub fn quantize(a: &VnmMatrix, calibration: Calibration) -> Self {
        let (rows, cols) = a.shape();
        let spr = a.slots_per_row();
        let mut scales = Vec::with_capacity(rows);
        let mut values = Vec::with_capacity(a.values().len());
        for r in 0..rows {
            let slots = &a.values()[r * spr..(r + 1) * spr];
            let nonzeros: Vec<f32> = slots
                .iter()
                .filter(|h| !h.is_zero())
                .map(|h| h.to_f32())
                .collect();
            let params = calibrate(&nonzeros, calibration);
            scales.push(params.scale);
            values.extend(slots.iter().map(|h| params.quantize(h.to_f32())));
        }
        QuantVnmMatrix {
            cfg: a.config(),
            rows,
            cols,
            k_groups: a.k_groups(),
            row_blocks: a.row_blocks(),
            values,
            m_indices: a.m_indices().to_vec(),
            column_loc: a.column_loc().to_vec(),
            scales,
            calibration,
        }
    }

    /// Compress-and-quantize convenience: `dense` under `mask` to V:N:M,
    /// then onto the i8 grid.
    ///
    /// # Panics
    /// Panics if the mask violates `cfg` (see [`VnmMatrix::compress`]).
    pub fn from_dense(
        dense: &Matrix<Half>,
        mask: &SparsityMask,
        cfg: VnmConfig,
        calibration: Calibration,
    ) -> Self {
        Self::quantize(&VnmMatrix::compress(dense, mask, cfg), calibration)
    }

    /// The pattern descriptor.
    pub fn config(&self) -> VnmConfig {
        self.cfg
    }

    /// Logical (uncompressed) shape `(R, K)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The calibrator the scales were derived with.
    pub fn calibration(&self) -> Calibration {
        self.calibration
    }

    /// The raw i8 value plane, `(row, group, slot)` row-major.
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// The shared m-indices buffer (identical to the f16 container's).
    pub fn m_indices(&self) -> &[u8] {
        &self.m_indices
    }

    /// The shared column-loc buffer (identical to the f16 container's).
    pub fn column_loc(&self) -> &[u16] {
        &self.column_loc
    }

    /// Per-row symmetric scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The [`QuantParams`] of one row.
    pub fn row_params(&self, r: usize) -> QuantParams {
        QuantParams {
            scale: self.scales[r],
        }
    }

    /// Stored value slots per row (`k_groups * n`).
    pub fn slots_per_row(&self) -> usize {
        self.k_groups * self.cfg.n
    }

    /// Bytes of the value plane — 1 per i8, half the f16 container's.
    pub fn values_bytes(&self) -> usize {
        self.values.len()
    }

    /// Bytes of the m-indices structure (2 bits per stored value).
    pub fn m_indices_bytes(&self) -> usize {
        (self.m_indices.len() * 2).div_ceil(8)
    }

    /// Bytes of the column-loc structure (matches [`VnmMatrix`]).
    pub fn column_loc_bytes(&self) -> usize {
        let entry = if self.cfg.m <= 256 { 1 } else { 2 };
        self.column_loc.len() * entry
    }

    /// Bytes of the per-row scale vector (4 per row).
    pub fn scales_bytes(&self) -> usize {
        self.scales.len() * 4
    }

    /// Total compressed footprint in bytes.
    pub fn total_bytes(&self) -> usize {
        self.values_bytes() + self.m_indices_bytes() + self.column_loc_bytes() + self.scales_bytes()
    }

    /// Reconstructs the dense i8 plane (pruned entries and padding become
    /// zero) — the operand [`venom_quant::gemm_ref_i8`] consumes.
    pub fn dense_i8(&self) -> Matrix<i8> {
        let mut out = Matrix::<i8>::zeros(self.rows, self.cols);
        self.for_each_operand_i8(&mut |r, q, c| out.set(r, c, q));
        out
    }

    /// The dequantized weight rounded to half — a reporting view, not
    /// an exact path (the half rounding is a second one).
    pub fn to_dense(&self) -> Matrix<Half> {
        self.dequantize_dense().to_half()
    }

    /// Reconstructs the dequantized dense f32 matrix.
    pub fn dequantize_dense(&self) -> Matrix<f32> {
        let mut out = Matrix::<f32>::zeros(self.rows, self.cols);
        self.for_each_operand_i8(&mut |r, q, c| out.set(r, c, q as f32 * self.scales[r]));
        out
    }

    /// Calls `visit(row, q, col)` for every stored nonzero quantized
    /// value, in the exact `(row, group, slot)` traversal of
    /// [`VnmMatrix::for_each_nonzero`] (zero slots — padding or values
    /// that quantized to 0 — are skipped; in exact integer arithmetic
    /// they contribute nothing).
    pub fn for_each_operand_i8(&self, visit: &mut dyn FnMut(usize, i8, usize)) {
        let n = self.cfg.n;
        for r in 0..self.rows {
            let b = r / self.cfg.v;
            for g in 0..self.k_groups {
                for s in 0..n {
                    let slot = (r * self.k_groups + g) * n + s;
                    let q = self.values[slot];
                    if q == 0 {
                        continue;
                    }
                    let j = self.m_indices[slot] as usize;
                    let rel = self.column_loc[(b * self.k_groups + g) * SELECTED_COLUMNS + j];
                    visit(r, q, g * self.cfg.m + rel as usize);
                }
            }
        }
    }

    /// Reference int8 SpMM `C = self * B` with exact `i32` accumulation,
    /// traversing the compressed structure directly — the correctness
    /// oracle of the int8 plan path, bit-identical to
    /// [`venom_quant::gemm_ref_i8`] over [`Self::dense_i8`].
    ///
    /// # Panics
    /// Panics if `B` does not have K rows.
    pub fn spmm_ref_i8(&self, b: &Matrix<i8>) -> Matrix<i32> {
        assert_eq!(b.rows(), self.cols, "B must have K rows");
        let mut out = Matrix::<i32>::zeros(self.rows, b.cols());
        self.for_each_operand_i8(&mut |r, q, k| {
            let qi = q as i32;
            let orow = out.row_mut(r);
            for (o, &bv) in orow.iter_mut().zip(b.row(k)) {
                *o += qi * bv as i32;
            }
        });
        out
    }

    /// The i8 codes condensed in [`Self::for_each_operand_i8`] order.
    pub fn operands(&self) -> Operands<i8> {
        let mut ops = OperandBuilder::new(self.rows, self.cols, self.values.len());
        self.for_each_operand_i8(&mut |r, q, c| ops.push(r, q, c));
        ops.finish()
    }

    /// Parallel int8 SpMM over [`Self::operands`], bit-identical to
    /// [`Self::spmm_ref_i8`] (integer accumulation is exact, so
    /// row-parallel replay cannot diverge).
    ///
    /// # Panics
    /// Panics if `B` does not have K rows.
    pub fn spmm_parallel_i8(&self, b: &Matrix<i8>) -> Matrix<i32> {
        assert_eq!(b.rows(), self.cols, "B must have K rows");
        let bcols = b.cols();
        let ops = self.operands();
        let mut out = vec![0i32; self.rows * bcols];
        use rayon::prelude::*;
        out.par_chunks_mut(bcols).enumerate().for_each(|(r, orow)| {
            for i in ops.row(r) {
                let qi = ops.values()[i] as i32;
                for (o, &bv) in orow.iter_mut().zip(b.row(ops.sources().get(i))) {
                    *o += qi * bv as i32;
                }
            }
        });
        Matrix::from_vec(self.rows, bcols, out)
    }

    /// Number of stored nonzero (non-padding, non-underflowed) values.
    pub fn nnz(&self) -> usize {
        self.values.iter().filter(|&&q| q != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_quant::gemm_ref_i8;
    use venom_tensor::random;

    /// A compliant V:N:M fixture (keep the first N of the first four
    /// columns of every group).
    fn fixture(rows: usize, cols: usize, cfg: VnmConfig, seed: u64) -> VnmMatrix {
        let w = random::normal_matrix(rows, cols, 0.0, 1.0, seed);
        let mask = SparsityMask::from_fn(rows, cols, |_, c| c % cfg.m < cfg.n);
        VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg)
    }

    #[test]
    fn metadata_is_shared_with_the_f16_container() {
        let a = fixture(32, 64, VnmConfig::new(16, 2, 8), 1);
        let q = QuantVnmMatrix::quantize(&a, Calibration::AbsMax);
        assert_eq!(q.m_indices(), a.m_indices());
        assert_eq!(q.column_loc(), a.column_loc());
        assert_eq!(q.values().len(), a.values().len());
        // Half the value bytes, same metadata bytes.
        assert_eq!(q.values_bytes() * 2, a.values_bytes());
        assert_eq!(q.m_indices_bytes(), a.m_indices_bytes());
        assert_eq!(q.column_loc_bytes(), a.column_loc_bytes());
    }

    #[test]
    fn spmm_ref_i8_matches_dense_expansion() {
        let cfg = VnmConfig::new(8, 2, 10);
        let a = fixture(24, 40, cfg, 2);
        let q = QuantVnmMatrix::quantize(&a, Calibration::AbsMax);
        let b = Matrix::from_fn(40, 9, |r, c| ((r * 17 + c * 41) % 255) as i32 as u8 as i8);
        assert_eq!(q.spmm_ref_i8(&b), gemm_ref_i8(&q.dense_i8(), &b));
        assert_eq!(q.spmm_parallel_i8(&b), q.spmm_ref_i8(&b));
    }

    #[test]
    fn operands_replay_spmm_ref_i8() {
        let cfg = VnmConfig::new(4, 2, 8);
        let a = fixture(16, 32, cfg, 3);
        let q = QuantVnmMatrix::quantize(&a, Calibration::Percentile(99.0));
        let b = Matrix::from_fn(32, 7, |r, c| ((r * 13 + c * 29) % 255) as i32 as u8 as i8);
        let want = q.spmm_ref_i8(&b);
        assert_eq!(q.spmm_parallel_i8(&b), want);
        // A sequential replay of the condensed codes equals the
        // reference, and holds exactly the nonzero codes.
        let ops = q.operands();
        assert_eq!(ops.extent().nnz, q.nnz());
        let mut replay = Matrix::<i32>::zeros(16, 7);
        for r in 0..16 {
            for i in ops.row(r) {
                let qi = ops.values()[i] as i32;
                let orow = replay.row_mut(r);
                for (o, &bv) in orow.iter_mut().zip(b.row(ops.sources().get(i))) {
                    *o += qi * bv as i32;
                }
            }
        }
        assert_eq!(replay, want);
    }

    #[test]
    fn dequantized_error_stays_within_the_calibrator_bound() {
        let cfg = VnmConfig::new(16, 2, 10);
        let a = fixture(64, 80, cfg, 5);
        for calib in [Calibration::AbsMax, Calibration::Percentile(99.5)] {
            let q = QuantVnmMatrix::quantize(&a, calib);
            let dq = q.dequantize_dense();
            let orig = a.decompress();
            let spr = a.slots_per_row();
            for r in 0..64 {
                let nz: Vec<f32> = a.values()[r * spr..(r + 1) * spr]
                    .iter()
                    .filter(|h| !h.is_zero())
                    .map(|h| h.to_f32())
                    .collect();
                let bound = venom_quant::quant_error_bound(&nz, calib);
                for c in 0..80 {
                    let err = (orig.get(r, c).to_f32() - dq.get(r, c)).abs();
                    assert!(
                        err <= bound + 1e-7,
                        "({r},{c}) err={err} bound={bound} {calib}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantization_preserves_structure() {
        let cfg = VnmConfig::new(8, 2, 16);
        let a = fixture(32, 64, cfg, 6);
        let q = QuantVnmMatrix::quantize(&a, Calibration::AbsMax);
        // Every quantized nonzero sits where an f16 nonzero sat (a value
        // may underflow to 0, never appear from nowhere).
        let dense = a.decompress();
        q.for_each_operand_i8(&mut |r, _, c| {
            assert!(
                !dense.get(r, c).is_zero(),
                "({r},{c}) appeared from nowhere"
            );
        });
        assert!(q.nnz() <= a.nnz());
        // The per-row scale covers the row's largest stored magnitude.
        let spr = a.slots_per_row();
        for r in 0..32 {
            let max = a.values()[r * spr..(r + 1) * spr]
                .iter()
                .fold(0.0f32, |m, h| m.max(h.to_f32().abs()));
            assert!(q.row_params(r).range() >= max * 0.999, "row {r}");
        }
    }

    #[test]
    fn partial_tails_roundtrip() {
        // R=10 not divisible by V=4, K=26 not divisible by M=8.
        let cfg = VnmConfig::new(4, 2, 8);
        let a = fixture(10, 26, cfg, 7);
        let q = QuantVnmMatrix::quantize(&a, Calibration::AbsMax);
        let b = Matrix::from_fn(26, 5, |r, c| ((r + 3 * c) % 200) as i32 as u8 as i8);
        assert_eq!(q.spmm_ref_i8(&b), gemm_ref_i8(&q.dense_i8(), &b));
    }
}
