//! CLASP-like vector-wise SpMM on dense tensor cores.
//!
//! CLASP (Castro et al., PACT'22) extends vectorSparse to Ampere: the
//! matrix is pruned at `l x 1` column-vector granularity (CVSE format) and
//! the kept vectors are gathered into *dense* `mma` fragments. Character
//! encoded per the published results and the paper's Fig. 13:
//!
//! * fragment under-utilisation: a band of `l` rows fills only `l` of the
//!   16 fragment rows, so `l = 4` wastes 4x more issue slots than `l = 16`
//!   would — short vectors are slower (vw_4 below vw_8);
//! * per-vector B gather with little inter-block reuse;
//! * no sparse tensor cores (dense `mma` only).

use crate::{BaselineResult, Mode};
use venom_format::CvseMatrix;
use venom_fp16::Half;
use venom_sim::pipeline::{simulate, KernelCounts};
use venom_sim::{BlockResources, DeviceConfig};
use venom_tensor::Matrix;

/// Steady-state issue efficiency of the gather-based tensor-core loop.
pub const CLASP_EFFICIENCY: f64 = 0.55;

/// Output columns per thread block.
const COLS_PER_BLOCK: usize = 64;

/// CLASP-like vector-wise SpMM.
pub struct ClaspSpmm;

impl ClaspSpmm {
    /// Builds counts from the actual CVSE structure.
    pub fn counts(a: &CvseMatrix, b_cols: usize) -> KernelCounts {
        let (r, k) = a.shape();
        let (l, bands, vectors) = (a.vector_len(), a.bands(), a.vector_count());
        Self::counts_from(r, k, l, bands, vectors, a.imbalance(), b_cols)
    }

    /// Builds counts from the numbers the model reads of an `r x k` CVSE
    /// weight with vector length `l`: its band count, its kept-vector
    /// count and its band [`CvseMatrix::imbalance`] (which a caller
    /// holding only the nonzero mask computes with
    /// [`venom_format::load_imbalance`]).
    pub fn counts_from(
        r: usize,
        k: usize,
        l: usize,
        bands: usize,
        vectors: usize,
        imbalance: f64,
        b_cols: usize,
    ) -> KernelCounts {
        let bands = bands.max(1);
        let vectors = vectors.max(1);
        let vectors_per_band = vectors as f64 / bands as f64;

        // One block: one band x COLS_PER_BLOCK output columns.
        let grid = (bands * b_cols.div_ceil(COLS_PER_BLOCK)) as u64;
        // Each mma.m16n8k16 covers 16 gathered vectors (k-dim) for up to 16
        // rows; a band provides only l rows, so the fragment row dimension
        // is padded — the instruction count does NOT shrink with l.
        let k_steps = (vectors_per_band / 16.0).ceil() as u64;
        let mma = k_steps * (COLS_PER_BLOCK / 8) as u64;
        // Loads: vector values (l halves each) + one B row per vector.
        let a_bytes = (vectors_per_band * (l * 2) as f64) as u64 + (vectors_per_band * 4.0) as u64;
        let b_bytes = (vectors_per_band * (COLS_PER_BLOCK * 2) as f64) as u64;
        let mma_charged = (mma as f64 * imbalance) as u64;
        KernelCounts {
            name: format!("clasp[vw_{l}]"),
            grid_blocks: grid,
            block: BlockResources::new(128, 16 * 1024, 80),
            k_iters: k_steps.max(1),
            pipeline_stages: 2,
            mma_dense_per_block: mma_charged,
            gmem_load_bytes_per_block: a_bytes + b_bytes,
            gmem_store_bytes_per_block: (l * COLS_PER_BLOCK * 2) as u64,
            l2_hit_fraction: 0.3,
            smem_transactions_per_block: (a_bytes + b_bytes) / 128 * 2,
            prologue_cycles_per_wave: 1000,
            efficiency: CLASP_EFFICIENCY,
            effective_flops: 2 * (r * k * b_cols) as u64,
            ..KernelCounts::named("clasp")
        }
    }

    /// Prices a CVSE SpMM on `dev`.
    pub fn time(a: &CvseMatrix, b_cols: usize, dev: &DeviceConfig) -> venom_sim::KernelTiming {
        simulate(dev, &Self::counts(a, b_cols)).expect("small fixed blocks always fit")
    }

    /// Runs `C = A * B`.
    ///
    /// # Panics
    /// Panics if `B` has the wrong number of rows.
    pub fn run(a: &CvseMatrix, b: &Matrix<Half>, dev: &DeviceConfig, mode: Mode) -> BaselineResult {
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
    use venom_tensor::random;

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    /// Vector-wise pruned matrix keeping `keep` of each band's columns.
    fn vw_matrix(r: usize, k: usize, l: usize, keep: f64, seed: u64) -> CvseMatrix {
        let dense = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mut pruned = Matrix::<Half>::zeros(r, k);
        let keep_n = ((k as f64 * keep).round() as usize).max(1);
        for band in 0..r.div_ceil(l) {
            let r0 = band * l;
            let r1 = (r0 + l).min(r);
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_by(|&a, &b| {
                let sa: f32 = (r0..r1).map(|rr| dense.get(rr, a).abs()).sum();
                let sb: f32 = (r0..r1).map(|rr| dense.get(rr, b).abs()).sum();
                sb.partial_cmp(&sa).unwrap()
            });
            for &c in order.iter().take(keep_n) {
                for rr in r0..r1 {
                    pruned.set(rr, c, Half::from_f32(dense.get(rr, c)));
                }
            }
        }
        CvseMatrix::from_dense(&pruned, l)
    }

    #[test]
    fn functional_matches_reference() {
        let a = vw_matrix(16, 64, 4, 0.25, 1);
        let b = random::normal_matrix(64, 24, 0.0, 1.0, 2).to_half();
        let res = ClaspSpmm::run(&a, &b, &dev(), Mode::Functional);
        assert_eq!(res.c, a.spmm_ref(&b));
    }

    #[test]
    fn longer_vectors_are_faster() {
        // Fig. 13: vw_8 outperforms vw_4 at equal sparsity (fragment
        // utilisation scales with l).
        let t4 = ClaspSpmm::time(&vw_matrix(1024, 4096, 4, 0.1, 3), 4096, &dev());
        let t8 = ClaspSpmm::time(&vw_matrix(1024, 4096, 8, 0.1, 4), 4096, &dev());
        assert!(
            t8.time_ms < t4.time_ms,
            "vw_8 {} should beat vw_4 {}",
            t8.time_ms,
            t4.time_ms
        );
    }

    #[test]
    fn speedup_grows_with_sparsity() {
        let mut prev = f64::INFINITY;
        for keep in [0.5, 0.25, 0.1, 0.02] {
            let t = ClaspSpmm::time(&vw_matrix(1024, 4096, 8, keep, 5), 4096, &dev());
            assert!(t.time_ms < prev, "keep={keep}: {} !< {prev}", t.time_ms);
            prev = t.time_ms;
        }
    }

    #[test]
    fn beats_cublas_only_at_high_sparsity() {
        let dense =
            crate::cublas::DenseGemm::time(venom_tensor::GemmShape::new(1024, 4096, 4096), &dev());
        let at = |keep: f64, seed: u64| {
            dense.time_ms
                / ClaspSpmm::time(&vw_matrix(1024, 4096, 8, keep, seed), 4096, &dev()).time_ms
        };
        assert!(at(0.5, 6) < 1.0, "50% sparsity must lose to cuBLAS");
        assert!(at(0.05, 8) > 1.0, "95% sparsity should win");
    }
}
