//! Cost-model pricing for every plannable format.
//!
//! `plan_auto` compares formats by the same currency: simulated
//! milliseconds of one dispatch at the descriptor's column bound on the
//! engine's device. The dense, 2:4, CSR and CVSE models are the baseline
//! crate's ([`venom_baselines::DenseGemm`], [`venom_baselines::SparseLtSpmm`],
//! [`venom_baselines::SputnikSpmm`], [`venom_baselines::ClaspSpmm`]; each
//! encodes its library's published performance character), and the engine
//! calls them directly. This module holds what the runtime adds on top:
//! the V:N:M price over the autotuned Spatha template space, the band
//! replay's price, the cuSPARSE-style Blocked-ELL block-kernel model
//! (dense tensor-core `mma` over every stored block, padding included —
//! the format's honest cost), the mask-priced CSR, CVSE and Blocked-ELL
//! encodings and the NaN-safe [`cost_cmp`].
//!
//! No function here builds an executor or a container: each reads what
//! its model reads — a shape, a V:N:M weight's pattern or its count of
//! stored nonzeros, or, for the CSR, CVSE and Blocked-ELL models, a few
//! popcounts of the weight's packed nonzero mask ([`SparsityMask::row_nnz`],
//! [`SparsityMask::union_nnz`], [`SparsityMask::union_blocks`]) — so
//! `plan_auto` prices every candidate and builds only the winner.
//! [`blocked_ell_counts`] and [`price_blocked_ell`] read the same numbers
//! off a built container and call the same formula.

use crate::descriptor::DType;
use crate::matmul::PlanError;
use venom_baselines::{ClaspSpmm, SputnikSpmm};
use venom_core::{SpmmOptions, TileConfig};
use venom_format::{load_imbalance, BlockedEllMatrix, MatmulFormat, SparsityMask, VnmMatrix};
use venom_sim::pipeline::{simulate, KernelCounts};
use venom_sim::{BlockResources, DeviceConfig, KernelTiming};

/// A priced launch: the simulated timing and the counts it was
/// simulated from.
pub(crate) type Priced = (KernelTiming, KernelCounts);

/// Output columns per thread block of the Blocked-ELL model.
pub const ELL_COLS_PER_BLOCK: usize = 64;

/// A CSR, CVSE or Blocked-ELL encoding of a weight, priced from its
/// nonzero mask and built only when it wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Baseline {
    /// CSR on the Sputnik model.
    Csr,
    /// CVSE with this vector length on the CLASP model.
    Cvse(usize),
    /// Blocked-ELL with this block size (dividing both dimensions).
    BlockedEll(usize),
}

impl Baseline {
    /// The counts of this encoding's model for the weight whose stored
    /// nonzeros `mask` marks, equal to the counts of the built container.
    /// They come from the mask's words: row popcounts (CSR `nnz` and its
    /// busiest row), popcounts of the OR of each `l`-row band (CVSE kept
    /// vectors per band), and the populated `bs`-column blocks of the OR
    /// of each block row (Blocked-ELL `ell_width`).
    pub(crate) fn counts(self, mask: &SparsityMask, b_cols: usize) -> KernelCounts {
        let (r, k) = (mask.rows(), mask.cols());
        match self {
            Baseline::Csr => {
                let per_row: Vec<usize> = (0..r).map(|row| mask.row_nnz(row)).collect();
                let (nnz, max) = sum_max(&per_row);
                SputnikSpmm::counts_from(r, k, nnz, load_imbalance(max, nnz, r), b_cols)
            }
            Baseline::Cvse(l) => {
                let per_band: Vec<usize> = (0..r)
                    .step_by(l)
                    .map(|r0| mask.union_nnz(r0..(r0 + l).min(r)))
                    .collect();
                let ((vectors, max), bands) = (sum_max(&per_band), per_band.len());
                let imbalance = load_imbalance(max, vectors, bands);
                ClaspSpmm::counts_from(r, k, l, bands, vectors, imbalance, b_cols)
            }
            Baseline::BlockedEll(bs) => {
                let width = (0..r)
                    .step_by(bs)
                    .map(|r0| mask.union_blocks(r0..r0 + bs, bs))
                    .max()
                    .unwrap_or(0);
                blocked_ell_counts_from(r, k, bs, width, b_cols)
            }
        }
    }

    /// Prices this encoding of the weight `mask` marks on `dev`.
    pub(crate) fn price(self, mask: &SparsityMask, b_cols: usize, dev: &DeviceConfig) -> Priced {
        let counts = self.counts(mask, b_cols);
        let timing = simulate(dev, &counts).expect("small fixed blocks always fit");
        (timing, counts)
    }
}

/// The sum and the maximum of per-worker counts.
fn sum_max(counts: &[usize]) -> (usize, usize) {
    (
        counts.iter().sum(),
        counts.iter().copied().max().unwrap_or(0),
    )
}

/// The priced Spatha launch of a V:N:M weight: the template
/// instantiation and what the cost model says one launch of it costs.
#[derive(Clone, Debug)]
pub struct VnmPrice {
    /// `SpmmOptions::tile` when set, else the autotuned instantiation.
    pub tile: TileConfig,
    /// Simulated timing of one launch.
    pub timing: KernelTiming,
    /// The counts the timing was simulated from.
    pub counts: KernelCounts,
}

/// Prices a V:N:M SpMM on the Spatha template: `opts.tile` when set,
/// else the autotuned instantiation of the template space, counted with
/// the operand profile of `dtype`. `I8` is the int8-quantized container:
/// the same template (the autotune is the f16 one), 1-byte value/B
/// planes (half the bytes), Table 1's doubled k-depth per `mma.sp` (half
/// the instructions) and the per-row dequantization scales.
///
/// `Ok(None)` when `V` violates the kernel's 16-row fragment contract:
/// the functional streams still execute such weights, they just have no
/// launchable configuration to price.
///
/// # Errors
/// [`PlanError::Incompatible`] when an explicit `opts.tile` cannot
/// launch: its `BSr` is not `V`, or its block does not fit an SM.
pub fn price_vnm(
    a: &VnmMatrix,
    b_cols: usize,
    dtype: DType,
    opts: &SpmmOptions,
    dev: &DeviceConfig,
) -> Result<Option<VnmPrice>, PlanError> {
    let cfg = a.config();
    if cfg.v < 16 || !cfg.v.is_multiple_of(16) {
        return Ok(None);
    }
    let (r, k) = a.shape();
    let tile = opts
        .tile
        .unwrap_or_else(|| venom_core::autotune(r, k, b_cols, cfg, opts, dev).0);
    let unlaunchable = |why: String| PlanError::Incompatible {
        format: MatmulFormat::Vnm,
        reason: format!("planned configuration {tile} cannot launch: {why}"),
    };
    if tile.bs_r != cfg.v {
        return Err(unlaunchable(format!(
            "BSr = {} but the weight has V = {}",
            tile.bs_r, cfg.v
        )));
    }
    let counts = match dtype {
        DType::F16 => venom_core::build_counts(r, k, b_cols, cfg, &tile, opts),
        DType::I8 => venom_core::build_counts_i8(r, k, b_cols, cfg, &tile, opts),
    };
    let timing =
        simulate(dev, &counts).map_err(|e| unlaunchable(format!("{e:?} on {}", dev.name)))?;
    Ok(Some(VnmPrice {
        tile,
        timing,
        counts,
    }))
}

/// Prices the band replay of an `r x k` V:N:M weight with `nnz` stored
/// nonzeros (the operands the band stream keeps) on the CUDA-core DRAM
/// roofline ([`venom_core::build_counts_band`]), its sources at the width
/// the stream stores them.
pub(crate) fn price_band(
    (r, k): (usize, usize),
    nnz: usize,
    b_cols: usize,
    dev: &DeviceConfig,
) -> Priced {
    let counts = venom_core::build_counts_band(r, k, b_cols, nnz);
    let timing =
        simulate(dev, &counts).expect("the band kernel uses no shared memory and always launches");
    (timing, counts)
}

/// Builds the kernel counts of the Blocked-ELL model from the actual
/// stored structure.
pub fn blocked_ell_counts(a: &BlockedEllMatrix, b_cols: usize) -> KernelCounts {
    let (r, k) = a.shape();
    blocked_ell_counts_from(r, k, a.block_size(), a.ell_width(), b_cols)
}

/// The counts of the Blocked-ELL model for an `r x k` weight stored in
/// `bs x bs` blocks, `ell_width` of them per block row.
///
/// One thread block covers one block row x [`ELL_COLS_PER_BLOCK`] output
/// columns and iterates the row's `ell_width` stored blocks. Every
/// stored block — padding included — costs dense `mma.m16n8k16`
/// instructions (`bs < 16` pads the fragment rows, so the instruction
/// count does not shrink with small blocks), its value bytes, and the
/// gather of its `bs` B rows. That is exactly the regular-layout waste
/// that makes the format lose at skewed DL sparsity.
fn blocked_ell_counts_from(
    r: usize,
    k: usize,
    bs: usize,
    ell_width: usize,
    b_cols: usize,
) -> KernelCounts {
    let brs = (r / bs).max(1);
    let width = ell_width.max(1);
    let grid = (brs * b_cols.div_ceil(ELL_COLS_PER_BLOCK)) as u64;
    // Per stored block: bs/16 fragment rows x 64/8 fragment cols x bs/16
    // K steps of dense mma (ceil: partial fragments cost full issues).
    let mma = (width * bs.div_ceil(16) * ELL_COLS_PER_BLOCK.div_ceil(8) * bs.div_ceil(16)) as u64;
    // Loads: the row's stored block payloads + block indices + one bs-row
    // B panel per stored block.
    let a_bytes = (width * bs * bs * 2 + width * 4) as u64;
    let b_bytes = (width * bs * ELL_COLS_PER_BLOCK * 2) as u64;
    KernelCounts {
        name: format!("blocked_ell[{bs}x{bs}]"),
        grid_blocks: grid,
        block: BlockResources::new(128, 32 * 1024, 96),
        k_iters: width as u64,
        pipeline_stages: 2,
        mma_dense_per_block: mma,
        gmem_load_bytes_per_block: a_bytes + b_bytes,
        gmem_store_bytes_per_block: (bs * ELL_COLS_PER_BLOCK * 2) as u64,
        // Blocks in different grid columns re-read the same stored blocks'
        // B rows; the regular layout prefetches well.
        l2_hit_fraction: 0.5,
        smem_transactions_per_block: (a_bytes + b_bytes) / 128 * 2,
        prologue_cycles_per_wave: 1000,
        efficiency: 0.6,
        effective_flops: 2 * (r * k * b_cols) as u64,
        ..KernelCounts::named("blocked_ell")
    }
}

/// Prices a Blocked-ELL SpMM on `dev`.
pub fn price_blocked_ell(a: &BlockedEllMatrix, b_cols: usize, dev: &DeviceConfig) -> KernelTiming {
    simulate(dev, &blocked_ell_counts(a, b_cols)).expect("small fixed blocks always fit")
}

/// NaN-safe total order on candidate costs: a NaN cost (a degenerate
/// descriptor or a cost model dividing 0 by 0) sorts as infinitely
/// expensive — the candidate loses the selection instead of panicking it
/// mid-`min_by`, so `plan_auto` always returns a servable plan.
pub fn cost_cmp(a: f64, b: f64) -> core::cmp::Ordering {
    let sane = |x: f64| if x.is_nan() { f64::INFINITY } else { x };
    sane(a).total_cmp(&sane(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_format::SparsityMask;
    use venom_fp16::Half;
    use venom_tensor::{random, Matrix};

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    fn block_sparse(r: usize, k: usize, bs: usize, keep: f64, seed: u64) -> Matrix<Half> {
        let dense = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mask = SparsityMask::from_fn(r, k, |i, j| {
            ((i / bs * 31 + j / bs * 17 + seed as usize) % 100) as f64 / 100.0 < keep
        });
        mask.apply_f32(&dense).to_half()
    }

    #[test]
    fn cost_cmp_is_nan_safe_and_total() {
        use core::cmp::Ordering;
        // NaN sorts as infinitely expensive — never panics, never wins.
        assert_eq!(cost_cmp(f64::NAN, 1.0), Ordering::Greater);
        assert_eq!(cost_cmp(1.0, f64::NAN), Ordering::Less);
        // Two NaNs (or a NaN vs infinity) compare equal, keeping min_by
        // deterministic instead of order-dependent.
        assert_eq!(cost_cmp(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(cost_cmp(f64::NAN, f64::INFINITY), Ordering::Equal);
        // Finite costs keep their numeric order.
        assert_eq!(cost_cmp(0.5, 2.0), Ordering::Less);
        assert_eq!(cost_cmp(2.0, 0.5), Ordering::Greater);
        assert_eq!(cost_cmp(1.5, 1.5), Ordering::Equal);
        // The regression that motivated the helper: min_by over a pool
        // containing a NaN cost must pick the cheapest finite candidate.
        let best = [f64::NAN, 3.0, 1.0, f64::INFINITY]
            .into_iter()
            .min_by(|a, b| cost_cmp(*a, *b))
            .unwrap();
        assert_eq!(best, 1.0);
    }

    #[test]
    fn blocked_ell_speeds_up_with_block_sparsity() {
        let sparse = BlockedEllMatrix::from_dense(&block_sparse(1024, 4096, 32, 0.2, 1), 32);
        let denser = BlockedEllMatrix::from_dense(&block_sparse(1024, 4096, 32, 0.8, 2), 32);
        let t_sparse = price_blocked_ell(&sparse, 4096, &dev());
        let t_denser = price_blocked_ell(&denser, 4096, &dev());
        assert!(
            t_sparse.time_ms < t_denser.time_ms,
            "20% kept {} !< 80% kept {}",
            t_sparse.time_ms,
            t_denser.time_ms
        );
    }

    #[test]
    fn blocked_ell_charges_padding() {
        // One crowded block row forces padding everywhere: the priced
        // time must track ell_width, not the true population.
        let mut skewed = Matrix::<Half>::zeros(256, 1024);
        for c in 0..1024 {
            skewed.set(0, c, Half::ONE);
        }
        for br in 1..(256 / 16) {
            skewed.set(br * 16, 0, Half::ONE);
        }
        let skew = BlockedEllMatrix::from_dense(&skewed, 16);
        let mut uniform = Matrix::<Half>::zeros(256, 1024);
        for br in 0..(256 / 16) {
            uniform.set(br * 16, (br * 16) % 1024, Half::ONE);
        }
        let uni = BlockedEllMatrix::from_dense(&uniform, 16);
        assert!(skew.ell_width() > uni.ell_width());
        let t_skew = price_blocked_ell(&skew, 512, &dev());
        let t_uni = price_blocked_ell(&uni, 512, &dev());
        assert!(t_skew.time_ms > t_uni.time_ms);
    }

    #[test]
    fn format_prices_are_positive_and_ranked_sanely() {
        // At 50% unstructured sparsity every sparse CUDA-core path loses
        // to the dense tensor-core GEMM (the Fig. 13 shape).
        let shape = venom_tensor::GemmShape::new(1024, 4096, 4096);
        let dense_ms = venom_baselines::DenseGemm::time(shape, &dev()).time_ms;
        let w = {
            let d = random::normal_matrix(1024, 4096, 0.0, 1.0, 3);
            let mask = SparsityMask::from_fn(1024, 4096, |i, j| (i * 131 + j * 37) % 2 == 0);
            mask.apply_f32(&d).to_half()
        };
        let csr = venom_format::CsrMatrix::from_dense(&w);
        let csr_ms = SputnikSpmm::time(&csr, 4096, &dev()).time_ms;
        assert!(
            dense_ms > 0.0 && csr_ms > dense_ms,
            "dense {dense_ms} vs csr {csr_ms}"
        );
    }
}
