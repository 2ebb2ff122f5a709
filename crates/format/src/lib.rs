//! Sparse matrix formats for the VENOM reproduction.
//!
//! This crate implements every storage format the paper touches:
//!
//! * [`SparsityMask`] — a packed bitmask with N:M / V:N:M compliance checks.
//! * [`NmCompressed`] — NVIDIA's native N:M compressed layout (Fig. 1):
//!   a values matrix of `R x K/M*N` plus 2-bit metadata per nonzero.
//! * [`VnmMatrix`] — the paper's V:N:M format (Fig. 3): values, `m-indices`
//!   (2-bit, relative to the four selected columns) and `column-loc`
//!   (which 4 of each block's M columns survived vector-wise pruning).
//! * [`QuantVnmMatrix`] — the int8-quantized V:N:M container: the same
//!   metadata with a 1-byte value plane and per-row symmetric scales.
//! * [`Operands`] — the row-ordered operand stream every format condenses
//!   to (row pointers, an f16-bits or i8 value plane, u16/u32 sources).
//! * [`storage`] — the interleaved kernel storage order of Fig. 7 (128-bit
//!   per-thread chunks, coalesced, no `ldmatrix` required).
//! * [`CsrMatrix`] — compressed sparse rows, the Sputnik baseline format.
//! * [`CvseMatrix`] — column-vector sparse encoding, the CLASP/vectorSparse
//!   baseline format.
//!
//! Terminology follows the paper: a `R x K` weight matrix is partitioned
//! into `V x M` blocks; vector-wise pruning keeps 4 columns per block, and
//! N:M pruning keeps N values in each row of the 4 surviving columns, which
//! is exactly the 2:4 pattern Sparse Tensor Cores accept.

pub mod blocked_ell;
pub mod csr;
pub mod cvse;
pub mod mask;
pub mod nm;
pub mod operands;
pub mod qvnm;
pub mod sparse_kernel;
pub mod storage;
pub mod vnm;

pub use blocked_ell::BlockedEllMatrix;
pub use csr::CsrMatrix;
pub use cvse::CvseMatrix;
pub use mask::SparsityMask;
pub use nm::NmCompressed;
pub use operands::{Extent, OperandBuilder, Operands, Sources};
pub use qvnm::QuantVnmMatrix;
pub use sparse_kernel::{MatmulFormat, SparseKernel};
pub use storage::StorageOrder;
pub use vnm::{CompressError, RowSink, VnmMatrix};

/// Number of columns the vector-wise stage selects per `V x M` block — fixed
/// at 4 because the selected columns must form the SPTC-native 2:4 pattern.
pub const SELECTED_COLUMNS: usize = 4;

/// Load-imbalance factor of `total` units of work split over `parts`
/// workers whose busiest holds `max`: `max / mean`, at least 1.0, and 1.0
/// when there is no work. [`CsrMatrix::imbalance`] (over rows) and
/// [`CvseMatrix::imbalance`] (over bands) are this of their counts, so a
/// caller that reads the same counts off a [`SparsityMask`] gets the same
/// bits without building the container.
pub fn load_imbalance(max: usize, total: usize, parts: usize) -> f64 {
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / parts as f64;
    (max as f64 / mean).max(1.0)
}

/// An N:M sparsity pattern: at most `n` nonzeros in every group of `m`
/// consecutive row elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NmConfig {
    /// Maximum nonzeros per group.
    pub n: usize,
    /// Group width.
    pub m: usize,
}

impl NmConfig {
    /// Creates an N:M pattern descriptor.
    ///
    /// # Panics
    /// Panics unless `0 < n < m`.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n > 0 && n < m, "N:M requires 0 < N < M (got {n}:{m})");
        NmConfig { n, m }
    }

    /// The sparsity this pattern enforces, `1 - n/m`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.n as f64 / self.m as f64
    }

    /// Density `n/m`.
    pub fn density(&self) -> f64 {
        self.n as f64 / self.m as f64
    }
}

impl core::fmt::Display for NmConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}", self.n, self.m)
    }
}

/// A V:N:M pattern: the matrix is split into `V x M` blocks; 4 columns
/// survive per block and each row keeps at most `n` of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VnmConfig {
    /// Vector (block) height. `V = 1` degenerates to the plain N:M format.
    pub v: usize,
    /// Nonzeros kept per M-group per row (the paper uses N = 2 throughout,
    /// matching the SPTC-native 2:4 mapping).
    pub n: usize,
    /// Group width along K.
    pub m: usize,
}

impl VnmConfig {
    /// Creates a V:N:M descriptor.
    ///
    /// # Panics
    /// Panics unless `v >= 1`, `0 < n <= SELECTED_COLUMNS`, `m >= 4` and
    /// `n < m`.
    pub fn new(v: usize, n: usize, m: usize) -> Self {
        assert!(v >= 1, "V must be at least 1 (got {v})");
        assert!(
            n > 0 && n <= SELECTED_COLUMNS,
            "N must be in 1..=4 so the selected columns map to 2:4 (got {n})"
        );
        assert!(m >= SELECTED_COLUMNS, "M must be at least 4 (got {m})");
        assert!(n < m, "V:N:M requires N < M (got {n}:{m})");
        VnmConfig { v, n, m }
    }

    /// The row-wise N:M pattern this config realises.
    pub fn nm(&self) -> NmConfig {
        NmConfig::new(self.n, self.m)
    }

    /// The sparsity this pattern enforces, `1 - n/m`.
    pub fn sparsity(&self) -> f64 {
        self.nm().sparsity()
    }

    /// Number of K-groups (blocks along the K dimension) for a given K,
    /// counting a final partial group.
    pub fn k_groups(&self, k: usize) -> usize {
        k.div_ceil(self.m)
    }

    /// Number of row blocks for a given R, counting a final partial block.
    pub fn row_blocks(&self, r: usize) -> usize {
        r.div_ceil(self.v)
    }

    /// The operation-reduction factor over dense for the SPTC mapping:
    /// dense processes M columns per group, V:N:M processes 4 at twice the
    /// rate — i.e. the theoretical speedup cap `M/4 * 2 = M/2` for N = 2
    /// (the paper quotes 5x for 2:10, 10x for 2:20, 20x for 2:40, 50x for
    /// 2:100).
    pub fn theoretical_speedup_cap(&self) -> f64 {
        (self.m as f64 / SELECTED_COLUMNS as f64) * 2.0
    }
}

impl core::fmt::Display for VnmConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}:{}", self.v, self.n, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nm_config_sparsity() {
        assert_eq!(NmConfig::new(2, 4).sparsity(), 0.5);
        assert_eq!(NmConfig::new(2, 8).sparsity(), 0.75);
        assert_eq!(NmConfig::new(2, 10).sparsity(), 0.8);
        assert_eq!(NmConfig::new(2, 100).sparsity(), 0.98);
        assert_eq!(NmConfig::new(2, 4).to_string(), "2:4");
    }

    #[test]
    #[should_panic(expected = "0 < N < M")]
    fn nm_rejects_degenerate() {
        let _ = NmConfig::new(4, 4);
    }

    #[test]
    fn vnm_theoretical_caps_match_paper() {
        // Section 4.1 ablation: caps of 5x/10x/20x/50x for 2:10/20/40/100.
        assert_eq!(VnmConfig::new(128, 2, 10).theoretical_speedup_cap(), 5.0);
        assert_eq!(VnmConfig::new(128, 2, 20).theoretical_speedup_cap(), 10.0);
        assert_eq!(VnmConfig::new(128, 2, 40).theoretical_speedup_cap(), 20.0);
        assert_eq!(VnmConfig::new(128, 2, 100).theoretical_speedup_cap(), 50.0);
    }

    #[test]
    fn vnm_partial_groups_counted() {
        let cfg = VnmConfig::new(64, 2, 10);
        assert_eq!(cfg.k_groups(768), 77); // 76 full + 1 partial
        assert_eq!(cfg.k_groups(770), 77);
        assert_eq!(cfg.row_blocks(128), 2);
        assert_eq!(cfg.row_blocks(130), 3);
    }

    #[test]
    fn vnm_display() {
        assert_eq!(VnmConfig::new(64, 2, 8).to_string(), "64:2:8");
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn vnm_rejects_small_m() {
        let _ = VnmConfig::new(64, 2, 3);
    }
}
