//! Dense half-precision GEMM with cuBLAS-like behaviour.
//!
//! Timing comes from the pipeline model with a tile configuration chosen —
//! like the real library — by an internal heuristic that evaluates a small
//! candidate set and keeps the fastest. The dense product itself is
//! `venom_tensor::gemm`.

use venom_sim::pipeline::{simulate, KernelCounts};
use venom_sim::{BlockResources, DeviceConfig};
use venom_tensor::GemmShape;

/// Steady-state issue efficiency of the vendor dense kernels (cuBLAS runs
/// within a few percent of the instruction-issue peak at large K).
pub const CUBLAS_EFFICIENCY: f64 = 0.97;

/// L2 hit fraction of a swizzled dense GEMM: A row-tiles and B column-tiles
/// are re-read by whole grid rows/columns and mostly hit.
pub const CUBLAS_L2_HIT: f64 = 0.75;

/// The tile candidates the heuristic evaluates (CUTLASS-style shapes).
const TILE_CANDIDATES: [(usize, usize, usize); 5] = [
    (256, 128, 32),
    (128, 128, 32),
    (128, 64, 32),
    (64, 64, 32),
    (64, 32, 32),
];

/// cuBLAS-like dense GEMM.
pub struct DenseGemm;

impl DenseGemm {
    /// Builds the kernel counts for one tile candidate.
    fn counts(shape: GemmShape, tile: (usize, usize, usize)) -> KernelCounts {
        let (bs_r, bs_c, bs_k) = tile;
        let grid = (shape.r.div_ceil(bs_r) * shape.c.div_ceil(bs_c)) as u64;
        let k_iters = shape.k.div_ceil(bs_k) as u64;
        let mma = (bs_r.div_ceil(16) * bs_c.div_ceil(8) * shape.k.div_ceil(16)) as u64;
        let load = ((bs_r + bs_c) * shape.k * 2) as u64;
        let store = (bs_r * bs_c * 2) as u64;
        let stages = 3u32;
        let smem_bytes = stages as usize * (bs_r + bs_c) * bs_k * 2;
        let warps = (bs_r * bs_c / (64 * 32)).clamp(2, 16);
        KernelCounts {
            name: format!("cublas[{bs_r}x{bs_c}x{bs_k}]"),
            grid_blocks: grid,
            block: BlockResources::new((warps * 32) as u32, smem_bytes as u32, 96),
            k_iters,
            pipeline_stages: stages,
            mma_dense_per_block: mma,
            gmem_load_bytes_per_block: load,
            gmem_store_bytes_per_block: store,
            l2_hit_fraction: CUBLAS_L2_HIT,
            smem_transactions_per_block: (load / 128) * 2,
            // Conflict-free vendor epilogue: store + read back of the f32
            // accumulator tile.
            smem_epilogue_transactions_per_block: ((bs_r * bs_c * 4) as u64 / 128) * 2,
            prologue_cycles_per_wave: 1500,
            efficiency: CUBLAS_EFFICIENCY,
            effective_flops: shape.flops(),
            ..KernelCounts::named("cublas")
        }
    }

    /// Picks the fastest launchable tile for `shape` on `dev` and returns
    /// its counts (the library's kernel-selection heuristic).
    pub fn select(shape: GemmShape, dev: &DeviceConfig) -> KernelCounts {
        TILE_CANDIDATES
            .iter()
            .filter_map(|&t| {
                let c = Self::counts(shape, t);
                simulate(dev, &c).ok().map(|timing| (c, timing.time_ms))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("some dense tile always fits")
            .0
    }

    /// Prices a dense GEMM of `shape` without executing it.
    pub fn time(shape: GemmShape, dev: &DeviceConfig) -> venom_sim::KernelTiming {
        let counts = Self::select(shape, dev);
        simulate(dev, &counts).expect("selected configuration fits")
    }

    /// Prices a strided-batched GEMM (one launch, `batch` independent
    /// problems — the attention-matmul workload). Each candidate tile's
    /// grid is replicated `batch` times before wave accounting, matching
    /// how `cublasGemmStridedBatched` schedules.
    pub fn time_batched(
        shape: GemmShape,
        batch: usize,
        dev: &DeviceConfig,
    ) -> venom_sim::KernelTiming {
        assert!(batch >= 1, "batch must be positive");
        TILE_CANDIDATES
            .iter()
            .filter_map(|&t| {
                let mut c = Self::counts(shape, t);
                c.grid_blocks *= batch as u64;
                c.effective_flops *= batch as u64;
                simulate(dev, &c).ok()
            })
            .min_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).unwrap())
            .expect("some dense tile always fits")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    #[test]
    fn large_gemm_tflops_match_paper_ceiling() {
        // Fig. 12: cuBLAS saturates around 60-70 TFLOPS on
        // 1024 x 12288 x 4096.
        let t = DenseGemm::time(GemmShape::new(1024, 12288, 4096), &dev());
        assert!(t.tflops > 55.0 && t.tflops < 71.2, "tflops={}", t.tflops);
    }

    #[test]
    fn tflops_increase_with_k() {
        let mut prev = 0.0;
        for k in [768, 3072, 12288] {
            let t = DenseGemm::time(GemmShape::new(1024, k, 4096), &dev());
            assert!(t.tflops > prev, "k={k}");
            prev = t.tflops;
        }
    }

    #[test]
    fn tile_selection_adapts_to_problem_size() {
        let big = DenseGemm::select(GemmShape::new(4096, 4096, 4096), &dev());
        let small = DenseGemm::select(GemmShape::new(128, 1024, 256), &dev());
        // The small problem must not pick the 256-wide tile (it could not
        // even fill one wave).
        assert!(small.grid_blocks >= 8, "grid={}", small.grid_blocks);
        assert!(big.name != small.name || big.grid_blocks != small.grid_blocks);
    }
}
