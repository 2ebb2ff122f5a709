//! Column-Vector Sparse Encoding — the format of the CLASP / vectorSparse
//! baselines.
//!
//! The matrix is partitioned into horizontal bands of `l` rows. Within a
//! band, sparsity is at the granularity of `l x 1` column vectors: a column
//! of the band is either fully kept (all `l` values stored) or fully
//! pruned. Each band stores the indices of its kept columns plus the
//! `l`-value vectors, contiguously — the layout that lets a tensor-core
//! kernel gather whole operand fragments per kept vector.

use rayon::prelude::*;
use venom_fp16::Half;
use venom_tensor::Matrix;

/// A matrix in column-vector sparse encoding with vector length `l`.
#[derive(Clone, Debug, PartialEq)]
pub struct CvseMatrix {
    l: usize,
    rows: usize,
    cols: usize,
    /// Per-band prefix sum of kept-vector counts (length `bands + 1`).
    band_ptr: Vec<usize>,
    /// Column index of each kept vector, band-major.
    col_idx: Vec<u32>,
    /// `l` values per kept vector, vector-major then row-within-band.
    values: Vec<Half>,
}

impl CvseMatrix {
    /// Encodes the dense matrix, keeping every column vector that contains
    /// at least one nonzero. A final partial band (when `rows % l != 0`) is
    /// stored with zero padding in the missing rows.
    ///
    /// # Panics
    /// Panics if `l == 0`.
    pub fn from_dense(dense: &Matrix<Half>, l: usize) -> Self {
        assert!(l > 0, "vector length must be positive");
        let rows = dense.rows();
        let cols = dense.cols();
        let bands = rows.div_ceil(l);
        let mut band_ptr = Vec::with_capacity(bands + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        band_ptr.push(0);
        for band in 0..bands {
            let r0 = band * l;
            let r1 = (r0 + l).min(rows);
            for c in 0..cols {
                if (r0..r1).any(|r| !dense.get(r, c).is_zero()) {
                    col_idx.push(c as u32);
                    for r in r0..r0 + l {
                        values.push(if r < rows {
                            dense.get(r, c)
                        } else {
                            Half::ZERO
                        });
                    }
                }
            }
            band_ptr.push(col_idx.len());
        }
        CvseMatrix {
            l,
            rows,
            cols,
            band_ptr,
            col_idx,
            values,
        }
    }

    /// Vector length.
    pub fn vector_len(&self) -> usize {
        self.l
    }

    /// Logical shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of row bands.
    pub fn bands(&self) -> usize {
        self.band_ptr.len() - 1
    }

    /// Number of kept column vectors.
    pub fn vector_count(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of stored values (`vector_count * l`, including padding).
    pub fn stored_values(&self) -> usize {
        self.values.len()
    }

    /// Kept vectors in one band as `(column, values)` pairs.
    pub fn band(&self, band: usize) -> impl Iterator<Item = (u32, &[Half])> + '_ {
        let (s, e) = (self.band_ptr[band], self.band_ptr[band + 1]);
        self.col_idx[s..e]
            .iter()
            .enumerate()
            .map(move |(i, &c)| (c, &self.values[(s + i) * self.l..(s + i + 1) * self.l]))
    }

    /// Kept vectors in one band.
    pub fn band_nnz_vectors(&self, band: usize) -> usize {
        self.band_ptr[band + 1] - self.band_ptr[band]
    }

    /// Load-imbalance factor across bands (max kept vectors / mean).
    pub fn imbalance(&self) -> f64 {
        let max = (0..self.bands())
            .map(|b| self.band_nnz_vectors(b))
            .max()
            .unwrap_or(0);
        crate::load_imbalance(max, self.vector_count(), self.bands())
    }

    /// Bytes of the compressed structure (2B values, 4B indices/pointers).
    pub fn total_bytes(&self) -> usize {
        self.values.len() * 2 + self.col_idx.len() * 4 + self.band_ptr.len() * 4
    }

    /// Fraction of the dense matrix kept, at vector granularity.
    pub fn density(&self) -> f64 {
        self.stored_values() as f64 / (self.bands() * self.l * self.cols) as f64
    }

    /// Reconstructs the dense matrix.
    pub fn to_dense(&self) -> Matrix<Half> {
        let mut out = Matrix::<Half>::zeros(self.rows, self.cols);
        for band in 0..self.bands() {
            let r0 = band * self.l;
            for (c, vals) in self.band(band) {
                for (i, &v) in vals.iter().enumerate() {
                    if r0 + i < self.rows {
                        out.set(r0 + i, c as usize, v);
                    }
                }
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
        for band in 0..self.bands() {
            let r0 = band * self.l;
            for (c, vals) in self.band(band) {
                let brow = b.row(c as usize);
                for (i, &v) in vals.iter().enumerate() {
                    let r = r0 + i;
                    if r >= self.rows || v.is_zero() {
                        continue;
                    }
                    let vf = v.to_f32();
                    for (o, &bv) in out.row_mut(r).iter_mut().zip(brow) {
                        *o += vf * bv.to_f32();
                    }
                }
            }
        }
        out
    }

    /// Parallel SpMM with f32-staged operands: `B` is decoded to f32 once,
    /// bands (disjoint row ranges) are processed in parallel. Within a band
    /// the stored vectors accumulate in the same order as
    /// [`Self::spmm_ref`] with the same exact products, so results are
    /// bit-identical.
    ///
    /// # Panics
    /// Panics if `B` has the wrong number of rows.
    pub fn spmm_parallel(&self, b: &Matrix<Half>) -> Matrix<f32> {
        assert_eq!(b.rows(), self.cols, "B must have {} rows", self.cols);
        let bcols = b.cols();
        let b_f32 = venom_fp16::slice::decode_f32_vec(b.as_slice());
        let table = venom_fp16::f16_to_f32_table();
        let mut out = vec![0.0f32; self.rows * bcols];
        out.par_chunks_mut(self.l * bcols)
            .enumerate()
            .for_each(|(band, chunk)| {
                let rows_here = chunk.len() / bcols;
                for (c, vals) in self.band(band) {
                    let brow = &b_f32[c as usize * bcols..][..bcols];
                    for (i, &v) in vals.iter().enumerate() {
                        if i >= rows_here || v.is_zero() {
                            continue;
                        }
                        let vf = table[v.to_bits() as usize];
                        for (o, &bv) in chunk[i * bcols..(i + 1) * bcols].iter_mut().zip(brow) {
                            *o += vf * bv;
                        }
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

    /// Vector-wise pruned matrix: keeps `keep_frac` of each band's column
    /// vectors by largest L1 norm (what the CLASP baseline prunes to).
    fn vw_pruned(rows: usize, cols: usize, l: usize, keep_frac: f64, seed: u64) -> Matrix<Half> {
        let dense = random::normal_matrix(rows, cols, 0.0, 1.0, seed);
        let mut out = Matrix::<Half>::zeros(rows, cols);
        let keep = ((cols as f64 * keep_frac).round() as usize).max(1);
        for band in 0..rows.div_ceil(l) {
            let r0 = band * l;
            let r1 = (r0 + l).min(rows);
            let mut order: Vec<usize> = (0..cols).collect();
            order.sort_by(|&a, &b| {
                let sa: f32 = (r0..r1).map(|r| dense.get(r, a).abs()).sum();
                let sb: f32 = (r0..r1).map(|r| dense.get(r, b).abs()).sum();
                sb.partial_cmp(&sa).unwrap()
            });
            for &c in order.iter().take(keep) {
                for r in r0..r1 {
                    out.set(r, c, Half::from_f32(dense.get(r, c)));
                }
            }
        }
        out
    }

    #[test]
    fn roundtrip() {
        let dense = vw_pruned(16, 32, 4, 0.25, 1);
        let cvse = CvseMatrix::from_dense(&dense, 4);
        assert_eq!(cvse.to_dense(), dense);
        assert_eq!(cvse.bands(), 4);
    }

    #[test]
    fn roundtrip_partial_band() {
        let dense = vw_pruned(10, 16, 4, 0.5, 2); // 3 bands, last of height 2
        let cvse = CvseMatrix::from_dense(&dense, 4);
        assert_eq!(cvse.bands(), 3);
        assert_eq!(cvse.to_dense(), dense);
    }

    #[test]
    fn vector_counts() {
        let dense = vw_pruned(8, 40, 8, 0.25, 3);
        let cvse = CvseMatrix::from_dense(&dense, 8);
        assert_eq!(cvse.vector_count(), 10); // 1 band * 10 kept columns
        assert_eq!(cvse.stored_values(), 80);
        assert!((cvse.density() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = vw_pruned(24, 36, 4, 0.3, 4);
        let b = random::normal_matrix(36, 10, 0.0, 1.0, 5).to_half();
        let via_cvse = CvseMatrix::from_dense(&a, 4).spmm_ref(&b);
        let via_dense = venom_tensor::gemm::gemm_ref(&a, &b);
        assert!(venom_tensor::norms::max_abs_diff(&via_cvse, &via_dense) < 1e-3);
    }

    #[test]
    fn parallel_spmm_is_bitwise_identical_to_reference() {
        // Partial final band (26 % 4 != 0) exercises the padded-row skip.
        let a = vw_pruned(26, 36, 4, 0.4, 11);
        let cvse = CvseMatrix::from_dense(&a, 4);
        let b = random::normal_matrix(36, 17, 0.0, 1.0, 12).to_half();
        assert_eq!(cvse.spmm_parallel(&b), cvse.spmm_ref(&b));
    }

    #[test]
    fn imbalance_on_uniform_pruning_is_low() {
        let dense = vw_pruned(32, 64, 8, 0.25, 6);
        let cvse = CvseMatrix::from_dense(&dense, 8);
        assert!(cvse.imbalance() < 1.2, "imbalance={}", cvse.imbalance());
    }

    #[test]
    fn dense_matrix_keeps_every_vector() {
        let dense = random::normal_matrix(8, 8, 0.0, 1.0, 7).to_half();
        let cvse = CvseMatrix::from_dense(&dense, 4);
        assert_eq!(cvse.vector_count(), 16);
        assert_eq!(cvse.to_dense(), dense);
    }
}
