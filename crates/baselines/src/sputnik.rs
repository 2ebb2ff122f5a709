//! Sputnik-like CSR SpMM on CUDA cores.
//!
//! Sputnik (Gale et al., SC'20) executes unstructured CSR matrices with a
//! one-dimensional tiling over output rows, on the regular FP units (no
//! tensor cores). Its published character on LLM-sized matrices — which
//! the paper reproduces in Fig. 13 — is:
//!
//! * compute throughput far below the tensor-core peak (scalar FMA lanes,
//!   gather-dominated inner loop),
//! * a load-imbalance penalty that grows with the row-length variance
//!   (charged here from the *measured* imbalance of the actual matrix),
//! * wins over dense GEMM only above ~90 % sparsity.

use crate::{BaselineResult, Mode};
use venom_format::CsrMatrix;
use venom_fp16::Half;
use venom_sim::pipeline::{simulate, KernelCounts};
use venom_sim::{BlockResources, DeviceConfig};
use venom_tensor::Matrix;

/// Fraction of the CUDA-core FMA peak the gather-heavy inner loop sustains.
/// Encodes Sputnik's published ~20-30 % of scalar peak on DL matrices.
pub const SPUTNIK_EFFICIENCY: f64 = 0.25;

/// Rows per thread block of the 1-D tiling.
const ROWS_PER_BLOCK: usize = 32;
/// Output columns per thread block.
const COLS_PER_BLOCK: usize = 64;

/// Sputnik-like CSR SpMM.
pub struct SputnikSpmm;

impl SputnikSpmm {
    /// Builds counts from the actual CSR structure (nnz, imbalance).
    pub fn counts(a: &CsrMatrix, b_cols: usize) -> KernelCounts {
        let (r, k) = a.shape();
        Self::counts_from(r, k, a.nnz(), a.imbalance(), b_cols)
    }

    /// Builds counts from the numbers the model reads of an `r x k` CSR
    /// weight: its nonzero count and its row [`CsrMatrix::imbalance`]
    /// (which a caller holding only the nonzero mask computes with
    /// [`venom_format::load_imbalance`]).
    pub fn counts_from(
        r: usize,
        k: usize,
        nnz: usize,
        imbalance: f64,
        b_cols: usize,
    ) -> KernelCounts {
        let nnz = nnz.max(1);
        let grid = (r.div_ceil(ROWS_PER_BLOCK) * b_cols.div_ceil(COLS_PER_BLOCK)) as u64;
        let nnz_per_block = nnz as u64 * ROWS_PER_BLOCK as u64 / r as u64;
        // Each nonzero: one FMA per output column of the tile.
        let fma = nnz_per_block * COLS_PER_BLOCK as u64;
        // Loads: CSR values (2 B) + column indices (4 B), plus the gathered
        // B row segments. The 32 rows of a block share B rows whenever
        // their nonzero columns coincide, so the unique gathered rows per
        // block are K * (1 - (1-d)^32) for density d, not one per nonzero.
        let a_bytes = nnz_per_block * 6;
        let density = nnz as f64 / (r as f64 * k as f64);
        let unique_rows = k as f64 * (1.0 - (1.0 - density).powi(ROWS_PER_BLOCK as i32));
        let b_bytes = (unique_rows * (COLS_PER_BLOCK * 2) as f64) as u64;
        // The imbalance factor stretches the effective work of the busiest
        // block; charging it on the FMA count models warp divergence and
        // tail rows (the paper's "inter- and intra-warp load balance").
        let fma_charged = (fma as f64 * imbalance) as u64;
        KernelCounts {
            name: format!("sputnik[{}x{}]", ROWS_PER_BLOCK, COLS_PER_BLOCK),
            grid_blocks: grid,
            block: BlockResources::new(128, 8 * 1024, 64),
            k_iters: (nnz_per_block / ROWS_PER_BLOCK as u64).max(1),
            pipeline_stages: 2,
            fma_per_block: fma_charged,
            gmem_load_bytes_per_block: a_bytes + b_bytes,
            gmem_store_bytes_per_block: (ROWS_PER_BLOCK * COLS_PER_BLOCK * 2) as u64,
            // Blocks in different grid rows re-gather overlapping B rows
            // (same columns appear across row tiles), so a substantial
            // fraction of the gather hits L2.
            l2_hit_fraction: 0.55,
            smem_transactions_per_block: (a_bytes + b_bytes) / 128 * 2,
            prologue_cycles_per_wave: 800,
            efficiency: SPUTNIK_EFFICIENCY,
            effective_flops: 2 * (r * k * b_cols) as u64,
            ..KernelCounts::named("sputnik")
        }
    }

    /// Prices a CSR SpMM on `dev`.
    pub fn time(a: &CsrMatrix, b_cols: usize, dev: &DeviceConfig) -> venom_sim::KernelTiming {
        simulate(dev, &Self::counts(a, b_cols)).expect("small fixed blocks always fit")
    }

    /// Runs `C = A * B`.
    ///
    /// # Panics
    /// Panics if `B` has the wrong number of rows.
    pub fn run(a: &CsrMatrix, b: &Matrix<Half>, dev: &DeviceConfig, mode: Mode) -> BaselineResult {
        let counts = Self::counts(a, b.cols());
        let timing = simulate(dev, &counts).expect("small fixed blocks always fit");
        let c = match mode {
            Mode::Functional => a.spmm_parallel(b),
            Mode::ModelOnly => Matrix::<f32>::zeros(a.shape().0, b.cols()),
        };
        BaselineResult { c, timing, counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cublas::DenseGemm;
    use venom_format::SparsityMask;
    use venom_tensor::{random, GemmShape};

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    /// Unstructured random matrix at the given sparsity.
    fn unstructured(r: usize, k: usize, sparsity: f64, seed: u64) -> CsrMatrix {
        let dense = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mask = SparsityMask::from_fn(r, k, |i, j| {
            ((i * 131 + j * 37 + seed as usize) % 10_000) as f64 / 10_000.0 >= sparsity
        });
        CsrMatrix::from_masked(&dense.to_half(), &mask)
    }

    #[test]
    fn functional_matches_reference() {
        let a = unstructured(24, 48, 0.8, 1);
        let b = random::normal_matrix(48, 16, 0.0, 1.0, 2).to_half();
        let res = SputnikSpmm::run(&a, &b, &dev(), Mode::Functional);
        assert_eq!(res.c, a.spmm_ref(&b));
    }

    #[test]
    fn crossover_with_cublas_is_around_90_percent() {
        // Fig. 13: Sputnik only beats dense above ~90 % sparsity on
        // LLM-sized matrices.
        let shape = GemmShape::new(1024, 4096, 4096);
        let dense = DenseGemm::time(shape, &dev()).time_ms;
        let at = |s: f64, seed: u64| {
            let a = unstructured(1024, 4096, s, seed);
            dense / SputnikSpmm::time(&a, 4096, &dev()).time_ms
        };
        let s80 = at(0.80, 3);
        let s95 = at(0.95, 5);
        assert!(s80 < 1.0, "80%: speedup {s80} should lose to cuBLAS");
        assert!(s95 > 1.0, "95%: speedup {s95} should beat cuBLAS");
    }

    #[test]
    fn imbalance_slows_the_kernel() {
        // Same nnz, one pathological row vs uniform rows.
        let r = 256;
        let k = 1024;
        let dense = random::normal_matrix(r, k, 0.0, 1.0, 7).to_half();
        let uniform = SparsityMask::from_fn(r, k, |_, j| j % 10 == 0);
        let mut skewed = SparsityMask::empty(r, k);
        // Row 0 takes the nonzeros of 10 rows; the rest stay sparse.
        for j in 0..k {
            skewed.set(0, j, true);
        }
        for i in 1..r {
            for j in 0..k {
                if (i * 7 + j) % 11 == 0 {
                    skewed.set(i, j, true);
                }
            }
        }
        let t_uniform = SputnikSpmm::time(&CsrMatrix::from_masked(&dense, &uniform), 512, &dev());
        let t_skewed = SputnikSpmm::time(&CsrMatrix::from_masked(&dense, &skewed), 512, &dev());
        // The skewed matrix has slightly MORE nnz but the point is the
        // imbalance multiplier, visible in the priced FMA count.
        let c_uniform = SputnikSpmm::counts(&CsrMatrix::from_masked(&dense, &uniform), 512);
        let c_skewed = SputnikSpmm::counts(&CsrMatrix::from_masked(&dense, &skewed), 512);
        let per_nnz_uniform =
            c_uniform.fma_per_block as f64 / CsrMatrix::from_masked(&dense, &uniform).nnz() as f64;
        let per_nnz_skewed =
            c_skewed.fma_per_block as f64 / CsrMatrix::from_masked(&dense, &skewed).nnz() as f64;
        assert!(per_nnz_skewed > per_nnz_uniform * 2.0);
        let _ = (t_uniform, t_skewed);
    }
}
