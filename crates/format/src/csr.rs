//! Compressed Sparse Rows — the format of the Sputnik baseline.

use crate::SparsityMask;
use rayon::prelude::*;
use venom_fp16::Half;
use venom_tensor::Matrix;

/// A CSR matrix over half-precision values.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<Half>,
}

impl CsrMatrix {
    /// Builds CSR from the nonzero entries of a dense matrix.
    pub fn from_dense(dense: &Matrix<Half>) -> Self {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if !v.is_zero() {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds CSR keeping the entries selected by `mask`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn from_masked(dense: &Matrix<Half>, mask: &SparsityMask) -> Self {
        assert_eq!(
            (dense.rows(), dense.cols()),
            (mask.rows(), mask.cols()),
            "shape mismatch"
        );
        Self::from_dense(&mask.apply_half(dense))
    }

    /// Logical shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, aligned with [`Self::values`].
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Nonzero values.
    pub fn values(&self) -> &[Half] {
        &self.values
    }

    /// `(col_idx, value)` pairs of one row.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, Half)> + '_ {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        self.col_idx[s..e]
            .iter()
            .copied()
            .zip(self.values[s..e].iter().copied())
    }

    /// Nonzeros in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Load-imbalance factor: max row nnz / mean row nnz (1.0 = perfectly
    /// balanced). Drives the Sputnik timing model's divergence penalty.
    pub fn imbalance(&self) -> f64 {
        let max = (0..self.rows).map(|r| self.row_nnz(r)).max().unwrap_or(0);
        crate::load_imbalance(max, self.nnz(), self.rows)
    }

    /// Bytes of the compressed structure (2B values, 4B column indices,
    /// 4B row pointers — the widths Sputnik ships).
    pub fn total_bytes(&self) -> usize {
        self.values.len() * 2 + self.col_idx.len() * 4 + self.row_ptr.len() * 4
    }

    /// Reconstructs the dense matrix.
    pub fn to_dense(&self) -> Matrix<Half> {
        let mut out = Matrix::<Half>::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                out.set(r, c as usize, v);
            }
        }
        out
    }

    /// Reference SpMM `C = self * B` with f32 accumulation.
    ///
    /// # Panics
    /// Panics if `B` has the wrong number of rows.
    pub fn spmm_ref(&self, b: &Matrix<Half>) -> Matrix<f32> {
        assert_eq!(b.rows(), self.cols, "B must have {} rows", self.cols);
        let mut out = Matrix::<f32>::zeros(self.rows, b.cols());
        for r in 0..self.rows {
            let orow = out.row_mut(r);
            for (c, v) in self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
                .iter()
                .zip(&self.values[self.row_ptr[r]..self.row_ptr[r + 1]])
            {
                let vf = v.to_f32();
                for (o, &bv) in orow.iter_mut().zip(b.row(*c as usize)) {
                    *o += vf * bv.to_f32();
                }
            }
        }
        out
    }

    /// Parallel SpMM with f32-staged operands: `B` is decoded to f32 once,
    /// output rows are processed in parallel. Each row accumulates its
    /// nonzeros in the same stored order as [`Self::spmm_ref`] with the
    /// same exact products, so results are bit-identical.
    ///
    /// # Panics
    /// Panics if `B` has the wrong number of rows.
    pub fn spmm_parallel(&self, b: &Matrix<Half>) -> Matrix<f32> {
        assert_eq!(b.rows(), self.cols, "B must have {} rows", self.cols);
        let bcols = b.cols();
        let b_f32 = venom_fp16::slice::decode_f32_vec(b.as_slice());
        let table = venom_fp16::f16_to_f32_table();
        let mut out = vec![0.0f32; self.rows * bcols];
        out.par_chunks_mut(bcols).enumerate().for_each(|(r, orow)| {
            for (c, v) in self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
                .iter()
                .zip(&self.values[self.row_ptr[r]..self.row_ptr[r + 1]])
            {
                let vf = table[v.to_bits() as usize];
                let brow = &b_f32[*c as usize * bcols..][..bcols];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += vf * bv;
                }
            }
        });
        Matrix::from_vec(self.rows, bcols, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_tensor::random;

    fn sparse_matrix(rows: usize, cols: usize, keep: f64, seed: u64) -> Matrix<Half> {
        let dense = random::normal_matrix(rows, cols, 0.0, 1.0, seed);
        let mask = SparsityMask::from_fn(rows, cols, |r, c| {
            // Deterministic pseudo-random keep pattern.
            ((r * 31 + c * 17 + seed as usize) % 1000) as f64 / 1000.0 < keep
        });
        mask.apply_f32(&dense).to_half()
    }

    #[test]
    fn roundtrip() {
        let dense = sparse_matrix(16, 24, 0.2, 1);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn nnz_and_rows() {
        let mut dense = Matrix::<Half>::zeros(3, 4);
        dense.set(0, 1, Half::ONE);
        dense.set(0, 3, Half::ONE);
        dense.set(2, 0, Half::NEG_ONE);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row_nnz(0), 2);
        assert_eq!(csr.row_nnz(1), 0);
        assert_eq!(csr.row_nnz(2), 1);
        assert_eq!(csr.row_ptr(), &[0, 2, 2, 3]);
    }

    #[test]
    fn imbalance_detects_skew() {
        let mut skewed = Matrix::<Half>::zeros(4, 8);
        for c in 0..8 {
            skewed.set(0, c, Half::ONE);
        }
        skewed.set(1, 0, Half::ONE);
        let csr = CsrMatrix::from_dense(&skewed);
        // mean = 9/4, max = 8 -> imbalance ~ 3.55
        assert!(csr.imbalance() > 3.0);
        let uniform = sparse_matrix(32, 64, 0.5, 3);
        assert!(CsrMatrix::from_dense(&uniform).imbalance() < 2.0);
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = sparse_matrix(20, 30, 0.3, 5);
        let b = random::normal_matrix(30, 12, 0.0, 1.0, 6).to_half();
        let via_csr = CsrMatrix::from_dense(&a).spmm_ref(&b);
        let via_dense = venom_tensor::gemm::gemm_ref(&a, &b);
        assert!(venom_tensor::norms::max_abs_diff(&via_csr, &via_dense) < 1e-3);
    }

    #[test]
    fn parallel_spmm_is_bitwise_identical_to_reference() {
        let a = sparse_matrix(37, 53, 0.4, 9);
        let b = random::normal_matrix(53, 21, 0.0, 1.0, 10).to_half();
        let csr = CsrMatrix::from_dense(&a);
        assert_eq!(csr.spmm_parallel(&b), csr.spmm_ref(&b));
    }

    #[test]
    fn empty_rows_are_fine() {
        let dense = Matrix::<Half>::zeros(4, 4);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.imbalance(), 1.0);
        assert_eq!(csr.to_dense(), dense);
    }
}
