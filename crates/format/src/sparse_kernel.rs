//! The format-erased kernel surface: every storage format this crate
//! ships — and the dense fallback — behind one trait.
//!
//! The paper frames cuSPARSELt's handle/descriptor/plan workflow as the
//! interface a serving system actually wants: describe the matmul once,
//! let the library pick the implementation. [`SparseKernel`] is the
//! format side of that contract. Each implementor exposes
//!
//! * its identity ([`MatmulFormat`]) and logical shape,
//! * its storage cost (stored value slots, compressed bytes),
//! * functional execution (`spmm_ref` / `spmm_parallel`), and
//! * [`SparseKernel::for_each_operand`] — the exact per-row accumulation
//!   stream of its `spmm_ref`, rows ascending, which lets
//!   [`crate::Operands::condense`] turn *any* format into the one operand
//!   container whose replay is bit-identical to the format's own
//!   reference kernel.
//!
//! The cost models that price each format live with the execution
//! engines (`venom-baselines`, `venom-runtime`); this trait is purely
//! the storage/execution seam.

use crate::{BlockedEllMatrix, CsrMatrix, CvseMatrix, NmCompressed, Operands, VnmMatrix};
use venom_fp16::Half;
use venom_tensor::Matrix;

/// The storage formats the unified matmul surface can plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatmulFormat {
    /// The paper's V:N:M format executed by the Spatha kernel.
    Vnm,
    /// NVIDIA's native N:M compressed layout (the cuSPARSELt format).
    Nm,
    /// Compressed sparse rows (the Sputnik baseline format).
    Csr,
    /// Column-vector sparse encoding (the CLASP/vectorSparse format).
    Cvse,
    /// Blocked-ELLPACK (the cuSPARSE block format).
    BlockedEll,
    /// Dense half-precision weights (the cuBLAS path).
    Dense,
}

impl MatmulFormat {
    /// Every plannable format, in preference-listing order.
    pub const ALL: [MatmulFormat; 6] = [
        MatmulFormat::Vnm,
        MatmulFormat::Nm,
        MatmulFormat::Csr,
        MatmulFormat::Cvse,
        MatmulFormat::BlockedEll,
        MatmulFormat::Dense,
    ];

    /// The CLI/report name of the format.
    pub fn name(&self) -> &'static str {
        match self {
            MatmulFormat::Vnm => "vnm",
            MatmulFormat::Nm => "nm",
            MatmulFormat::Csr => "csr",
            MatmulFormat::Cvse => "cvse",
            MatmulFormat::BlockedEll => "blocked-ell",
            MatmulFormat::Dense => "dense",
        }
    }

    /// The comma-separated list of valid format names (for error
    /// messages and usage text).
    pub fn valid_names() -> String {
        Self::ALL
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Parses a format name as the CLI spells it.
    ///
    /// # Errors
    /// Returns a message listing the valid choices.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .iter()
            .find(|f| f.name() == s)
            .copied()
            .ok_or_else(|| format!("unknown format '{s}' (valid: {})", Self::valid_names()))
    }
}

impl core::fmt::Display for MatmulFormat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl core::str::FromStr for MatmulFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// One weight matrix in some storage format, executable as the `A`
/// operand of `C = A * B`.
///
/// The trait's contract is *bitwise*: `spmm_parallel` must equal
/// `spmm_ref` exactly, and `for_each_operand` must emit, for every
/// output row, the same `(f16 value, B row)` products `spmm_ref`
/// accumulates, in the same order, with the same zero skips — so a plan
/// that replays the emitted stream reproduces every f32 accumulation
/// chain of the reference kernel bit-for-bit.
pub trait SparseKernel: Send + Sync + std::fmt::Debug {
    /// Which storage format this is.
    fn format(&self) -> MatmulFormat;

    /// Logical (uncompressed) shape `(rows, k)`.
    fn shape(&self) -> (usize, usize);

    /// Stored value slots, including any format padding.
    fn stored_values(&self) -> usize;

    /// Bytes of the compressed structure (values + metadata).
    fn compressed_bytes(&self) -> usize;

    /// Reconstructs the dense matrix (pruned entries become zero).
    fn to_dense(&self) -> Matrix<Half>;

    /// Reference SpMM `C = self * B` with f32 accumulation — the
    /// correctness oracle of the format.
    fn spmm_ref(&self, b: &Matrix<Half>) -> Matrix<f32>;

    /// Parallel f32-staged SpMM, bit-identical to [`Self::spmm_ref`].
    fn spmm_parallel(&self, b: &Matrix<Half>) -> Matrix<f32>;

    /// Calls `visit(output_row, value, b_row)` for every product
    /// [`Self::spmm_ref`] accumulates, with the stored f16 `value`: rows
    /// ascending, and within a row in the row's exact accumulation order.
    fn for_each_operand(&self, visit: &mut dyn FnMut(usize, Half, usize));
}

impl SparseKernel for VnmMatrix {
    fn format(&self) -> MatmulFormat {
        MatmulFormat::Vnm
    }

    fn shape(&self) -> (usize, usize) {
        VnmMatrix::shape(self)
    }

    fn stored_values(&self) -> usize {
        self.values().len()
    }

    fn compressed_bytes(&self) -> usize {
        self.total_bytes()
    }

    fn to_dense(&self) -> Matrix<Half> {
        self.decompress()
    }

    fn spmm_ref(&self, b: &Matrix<Half>) -> Matrix<f32> {
        VnmMatrix::spmm_ref(self, b)
    }

    fn spmm_parallel(&self, b: &Matrix<Half>) -> Matrix<f32> {
        // The hot V:N:M parallel paths live in the kernel/runtime crates;
        // this trait-level path replays the single operand traversal
        // (shared with `for_each_operand`) with parallel rows.
        parallel_from_operands(self, b)
    }

    fn for_each_operand(&self, visit: &mut dyn FnMut(usize, Half, usize)) {
        // `for_each_nonzero` visits `(row, group, slot)` ascending with
        // zero slots skipped — exactly `spmm_ref`'s accumulation order.
        self.for_each_nonzero(|r, c, v| visit(r, v, c));
    }
}

/// Shared parallel SpMM over a kernel's condensed operands
/// ([`Operands::condense`]), rows replayed in parallel — bit-identical to
/// the kernel's `spmm_ref` by the `for_each_operand` contract.
fn parallel_from_operands(kernel: &dyn SparseKernel, b: &Matrix<Half>) -> Matrix<f32> {
    let (rows, k) = kernel.shape();
    assert_eq!(b.rows(), k, "B must have {k} rows");
    let bcols = b.cols();
    let b_f32 = venom_fp16::slice::decode_f32_vec(b.as_slice());
    let ops = Operands::condense(kernel);
    let mut out = vec![0.0f32; rows * bcols];
    use rayon::prelude::*;
    out.par_chunks_mut(bcols).enumerate().for_each(|(r, orow)| {
        for i in ops.row(r) {
            let brow = &b_f32[ops.sources().get(i) * bcols..][..bcols];
            let vf = Half::from_bits(ops.values()[i]).to_f32();
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += vf * bv;
            }
        }
    });
    Matrix::from_vec(rows, bcols, out)
}

impl SparseKernel for NmCompressed {
    fn format(&self) -> MatmulFormat {
        MatmulFormat::Nm
    }

    fn shape(&self) -> (usize, usize) {
        NmCompressed::shape(self)
    }

    fn stored_values(&self) -> usize {
        self.stored_len()
    }

    fn compressed_bytes(&self) -> usize {
        self.values_bytes() + self.metadata_bytes()
    }

    fn to_dense(&self) -> Matrix<Half> {
        self.decompress()
    }

    fn spmm_ref(&self, b: &Matrix<Half>) -> Matrix<f32> {
        NmCompressed::spmm_ref(self, b)
    }

    fn spmm_parallel(&self, b: &Matrix<Half>) -> Matrix<f32> {
        NmCompressed::spmm_parallel(self, b)
    }

    fn for_each_operand(&self, visit: &mut dyn FnMut(usize, Half, usize)) {
        let cfg = self.config();
        let (rows, cols) = NmCompressed::shape(self);
        let groups = cols.div_ceil(cfg.m);
        let values = self.values();
        let indices = self.indices();
        for r in 0..rows {
            for g in 0..groups {
                for s in 0..cfg.n {
                    let slot = (r * groups + g) * cfg.n + s;
                    let v = values[slot];
                    if v.is_zero() {
                        continue;
                    }
                    visit(r, v, g * cfg.m + indices[slot] as usize);
                }
            }
        }
    }
}

impl SparseKernel for CsrMatrix {
    fn format(&self) -> MatmulFormat {
        MatmulFormat::Csr
    }

    fn shape(&self) -> (usize, usize) {
        CsrMatrix::shape(self)
    }

    fn stored_values(&self) -> usize {
        self.nnz()
    }

    fn compressed_bytes(&self) -> usize {
        self.total_bytes()
    }

    fn to_dense(&self) -> Matrix<Half> {
        CsrMatrix::to_dense(self)
    }

    fn spmm_ref(&self, b: &Matrix<Half>) -> Matrix<f32> {
        CsrMatrix::spmm_ref(self, b)
    }

    fn spmm_parallel(&self, b: &Matrix<Half>) -> Matrix<f32> {
        CsrMatrix::spmm_parallel(self, b)
    }

    fn for_each_operand(&self, visit: &mut dyn FnMut(usize, Half, usize)) {
        // CSR's reference accumulates every stored entry (construction
        // already dropped zeros), so no zero skip here.
        let (rows, _) = CsrMatrix::shape(self);
        for r in 0..rows {
            for (c, v) in self.row(r) {
                visit(r, v, c as usize);
            }
        }
    }
}

impl SparseKernel for CvseMatrix {
    fn format(&self) -> MatmulFormat {
        MatmulFormat::Cvse
    }

    fn shape(&self) -> (usize, usize) {
        CvseMatrix::shape(self)
    }

    fn stored_values(&self) -> usize {
        CvseMatrix::stored_values(self)
    }

    fn compressed_bytes(&self) -> usize {
        self.total_bytes()
    }

    fn to_dense(&self) -> Matrix<Half> {
        CvseMatrix::to_dense(self)
    }

    fn spmm_ref(&self, b: &Matrix<Half>) -> Matrix<f32> {
        CvseMatrix::spmm_ref(self, b)
    }

    fn spmm_parallel(&self, b: &Matrix<Half>) -> Matrix<f32> {
        CvseMatrix::spmm_parallel(self, b)
    }

    fn for_each_operand(&self, visit: &mut dyn FnMut(usize, Half, usize)) {
        // Band, then row within the band, then the band's stored
        // vectors: each row sees its vectors in stored (ascending-column)
        // order, exactly `spmm_ref`'s traversal.
        let (rows, _) = CvseMatrix::shape(self);
        let l = self.vector_len();
        for band in 0..self.bands() {
            for r in band * l..((band + 1) * l).min(rows) {
                for (c, vals) in self.band(band) {
                    let v = vals[r - band * l];
                    if !v.is_zero() {
                        visit(r, v, c as usize);
                    }
                }
            }
        }
    }
}

impl SparseKernel for BlockedEllMatrix {
    fn format(&self) -> MatmulFormat {
        MatmulFormat::BlockedEll
    }

    fn shape(&self) -> (usize, usize) {
        BlockedEllMatrix::shape(self)
    }

    fn stored_values(&self) -> usize {
        let (rows, _) = BlockedEllMatrix::shape(self);
        (rows / self.block_size().max(1)) * self.ell_width() * self.block_size().pow(2)
    }

    fn compressed_bytes(&self) -> usize {
        self.total_bytes()
    }

    fn to_dense(&self) -> Matrix<Half> {
        BlockedEllMatrix::to_dense(self)
    }

    fn spmm_ref(&self, b: &Matrix<Half>) -> Matrix<f32> {
        BlockedEllMatrix::spmm_ref(self, b)
    }

    fn spmm_parallel(&self, b: &Matrix<Half>) -> Matrix<f32> {
        BlockedEllMatrix::spmm_parallel(self, b)
    }

    fn for_each_operand(&self, visit: &mut dyn FnMut(usize, Half, usize)) {
        // `for_each_nonzero` visits each row's blocks in stored-slot then
        // in-block column order — `spmm_ref`'s per-row accumulation order.
        self.for_each_nonzero(|r, c, v| visit(r, v, c));
    }
}

impl SparseKernel for Matrix<Half> {
    fn format(&self) -> MatmulFormat {
        MatmulFormat::Dense
    }

    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    fn stored_values(&self) -> usize {
        self.len()
    }

    fn compressed_bytes(&self) -> usize {
        self.len() * 2
    }

    fn to_dense(&self) -> Matrix<Half> {
        self.clone()
    }

    fn spmm_ref(&self, b: &Matrix<Half>) -> Matrix<f32> {
        venom_tensor::gemm::gemm_ref(self, b)
    }

    fn spmm_parallel(&self, b: &Matrix<Half>) -> Matrix<f32> {
        venom_tensor::gemm::gemm_parallel(self, b)
    }

    fn for_each_operand(&self, visit: &mut dyn FnMut(usize, Half, usize)) {
        // `gemm_ref` walks K ascending and skips explicit zeros.
        for r in 0..self.rows() {
            for (kk, &h) in self.row(r).iter().enumerate() {
                if !h.is_zero() {
                    visit(r, h, kk);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NmConfig, SparsityMask, VnmConfig};
    use venom_tensor::random;

    #[test]
    fn format_names_roundtrip() {
        for f in MatmulFormat::ALL {
            assert_eq!(MatmulFormat::parse(f.name()).unwrap(), f);
            assert_eq!(f.to_string(), f.name());
        }
        let err = MatmulFormat::parse("sparse-ish").unwrap_err();
        assert!(
            err.contains("blocked-ell") && err.contains("dense"),
            "{err}"
        );
        assert!("csr".parse::<MatmulFormat>().is_ok());
    }

    /// Replays the operand stream sequentially; must equal `spmm_ref`
    /// bit-for-bit for every implementor.
    fn replay(kernel: &dyn SparseKernel, b: &Matrix<Half>) -> Matrix<f32> {
        let (rows, _) = kernel.shape();
        let bcols = b.cols();
        let b_f32 = venom_fp16::slice::decode_f32_vec(b.as_slice());
        let mut out = Matrix::<f32>::zeros(rows, bcols);
        kernel.for_each_operand(&mut |r, v, k| {
            let orow = out.row_mut(r);
            for (o, &bv) in orow.iter_mut().zip(&b_f32[k * bcols..(k + 1) * bcols]) {
                *o += v.to_f32() * bv;
            }
        });
        out
    }

    #[test]
    fn operand_stream_replays_spmm_ref_for_every_format() {
        let cfg = VnmConfig::new(16, 2, 8);
        let w = random::normal_matrix(32, 32, 0.0, 1.0, 3);
        let mask = {
            // Miniature magnitude V:N:M selection (see vnm.rs tests).
            let mut m = SparsityMask::empty(32, 32);
            for r in 0..32 {
                for g in 0..4 {
                    m.set(r, g * 8 + (r % 2), true);
                    m.set(r, g * 8 + 2 + (r % 2), true);
                }
            }
            m
        };
        assert!(mask.complies_vnm(cfg));
        let pruned = mask.apply_f32(&w).to_half();
        let b = random::normal_matrix(32, 9, 0.0, 1.0, 4).to_half();

        let kernels: Vec<Box<dyn SparseKernel>> = vec![
            Box::new(VnmMatrix::compress(&pruned, &mask, cfg)),
            Box::new(NmCompressed::compress_magnitude(
                &pruned,
                NmConfig::new(2, 4),
            )),
            Box::new(CsrMatrix::from_dense(&pruned)),
            Box::new(CvseMatrix::from_dense(&pruned, 8)),
            Box::new(BlockedEllMatrix::from_dense(&pruned, 8)),
            Box::new(pruned.clone()),
        ];
        for k in &kernels {
            let want = k.spmm_ref(&b);
            assert_eq!(
                replay(k.as_ref(), &b),
                want,
                "stream replay for {}",
                k.format()
            );
            assert_eq!(
                k.spmm_parallel(&b),
                want,
                "parallel path for {}",
                k.format()
            );
            assert_eq!(k.shape(), (32, 32));
            assert!(k.compressed_bytes() > 0);
        }
    }
}
