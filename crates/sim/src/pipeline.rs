//! The kernel cost model.
//!
//! A kernel implementation (Spatha or a baseline) describes one launch as a
//! [`KernelCounts`]: grid/block geometry, per-block instruction and byte
//! counts, shared-memory transactions (with bank-conflict multipliers from
//! [`crate::banks`]), and pipeline depth. [`simulate`] turns that into a
//! latency estimate using a bounded-resource model:
//!
//! 1. **Occupancy & waves.** Blocks are scheduled in waves of
//!    `SMs x blocks_per_sm`. A partial tail wave costs time proportional to
//!    the busiest SM's share (wave quantization — the reason well-chosen
//!    tile sizes beat oversized ones on small GEMMs).
//! 2. **Steady-state roofs.** Over the whole kernel, each resource imposes
//!    a lower time bound: tensor-core issue slots, CUDA-core FMA lanes,
//!    shared-memory transaction slots, L2 and DRAM bandwidth. The kernel
//!    runs at the max (the binding roof).
//! 3. **Pipeline fill.** The software pipeline (`batchSize` in the paper)
//!    needs `stages` iterations to fill and drain, discounting short-K
//!    kernels: efficiency `k_iters / (k_iters + 2*stages)`.
//! 4. **Fixed overheads.** Kernel launch latency plus a per-wave prologue
//!    (column-loc prefetch, address setup).
//!
//! Every quantity is counted from the actual compressed data structures by
//! the kernel layer; this module only prices them.

use crate::config::DeviceConfig;
use crate::occupancy::{blocks_per_sm, BlockResources, LaunchError};

/// Per-launch resource counts describing one kernel execution.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelCounts {
    /// Human-readable kernel name (reports only).
    pub name: String,
    /// Thread blocks in the grid.
    pub grid_blocks: u64,
    /// Per-block resource footprint.
    pub block: BlockResources,
    /// Main-loop iterations per block (K tiles).
    pub k_iters: u64,
    /// Software pipeline depth (the paper's `batchSize`); 1 = no pipelining.
    pub pipeline_stages: u32,
    /// Sparse `mma.sp` instructions per block (whole kernel).
    pub mma_sp_per_block: u64,
    /// Dense `mma` instructions per block.
    pub mma_dense_per_block: u64,
    /// CUDA-core fp16/fp32 FMA operations per block (scalar fallback paths).
    pub fma_per_block: u64,
    /// Bytes loaded from global memory per block (before L2 filtering).
    pub gmem_load_bytes_per_block: u64,
    /// Bytes stored to global memory per block.
    pub gmem_store_bytes_per_block: u64,
    /// Fraction of loads served from L2 (data reuse between blocks).
    pub l2_hit_fraction: f64,
    /// Main-loop shared-memory transactions per block, *including*
    /// bank-conflict serialization multipliers. These overlap the compute
    /// pipeline and enter the steady-state roof.
    pub smem_transactions_per_block: u64,
    /// Stage-3 epilogue shared-memory transactions per block, including
    /// conflict multipliers. The epilogue runs after the k-loop behind a
    /// barrier, so it cannot hide under the main-loop roofs: it is charged
    /// additively (this is what makes the Fig. 10 store-width ablation
    /// visible).
    pub smem_epilogue_transactions_per_block: u64,
    /// One-off cycles per wave before the pipeline reaches steady state
    /// (column-loc prefetch, address setup, barrier).
    pub prologue_cycles_per_wave: u64,
    /// Steady-state issue efficiency of the inner loop in (0, 1]:
    /// instruction-mix and scheduling quality of the library.
    pub efficiency: f64,
    /// Effective FLOPs of the logical problem (2*R*K*C for a GEMM-shaped
    /// op), used only for TFLOPS reporting.
    pub effective_flops: u64,
}

impl KernelCounts {
    /// A reasonable default skeleton; callers override the fields that
    /// matter for their kernel.
    pub fn named(name: impl Into<String>) -> Self {
        KernelCounts {
            name: name.into(),
            grid_blocks: 1,
            block: BlockResources::new(128, 0, 64),
            k_iters: 1,
            pipeline_stages: 1,
            mma_sp_per_block: 0,
            mma_dense_per_block: 0,
            fma_per_block: 0,
            gmem_load_bytes_per_block: 0,
            gmem_store_bytes_per_block: 0,
            l2_hit_fraction: 0.0,
            smem_transactions_per_block: 0,
            smem_epilogue_transactions_per_block: 0,
            prologue_cycles_per_wave: 0,
            efficiency: 1.0,
            effective_flops: 0,
        }
    }
}

/// Which resource bound the kernel's runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Limiter {
    /// Tensor-core issue slots.
    TensorCore,
    /// CUDA-core FMA lanes.
    CudaCore,
    /// Shared-memory transaction throughput.
    SharedMemory,
    /// DRAM bandwidth.
    Dram,
    /// L2 bandwidth.
    L2,
    /// Fixed overheads (launch + prologue) dominate.
    Overhead,
}

/// Simulated timing of one kernel launch.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelTiming {
    /// Total latency in milliseconds.
    pub time_ms: f64,
    /// The binding resource.
    pub limiter: Limiter,
    /// Achieved effective TFLOP/s (`effective_flops / time`).
    pub tflops: f64,
    /// Steady-state roof times in ms (tensor, cuda, smem, dram, l2).
    pub roofs_ms: [f64; 5],
    /// Wave-quantization factor (>= 1).
    pub wave_imbalance: f64,
    /// Pipeline fill efficiency in (0, 1].
    pub pipeline_efficiency: f64,
    /// Fixed overhead (launch + prologue) in ms.
    pub overhead_ms: f64,
    /// Number of scheduling waves (fractional: tail waves count partially).
    pub waves: f64,
}

impl KernelTiming {
    /// Speedup of `self` relative to `other` (other.time / self.time).
    pub fn speedup_over(&self, other: &KernelTiming) -> f64 {
        other.time_ms / self.time_ms
    }
}

/// Prices a kernel launch on a device.
///
/// # Errors
/// Returns the launch error if the block cannot fit on an SM.
pub fn simulate(dev: &DeviceConfig, counts: &KernelCounts) -> Result<KernelTiming, LaunchError> {
    assert!(counts.grid_blocks > 0, "empty grid");
    assert!(
        counts.efficiency > 0.0 && counts.efficiency <= 1.0,
        "efficiency in (0,1]"
    );

    let bps = blocks_per_sm(dev, &counts.block)? as u64;
    let sm = dev.sm_count as u64;
    let concurrent = sm * bps;
    let blocks = counts.grid_blocks;

    // --- Wave accounting -------------------------------------------------
    let full_waves = blocks / concurrent;
    let tail = blocks % concurrent;
    let tail_fraction = if tail == 0 {
        0.0
    } else {
        // The tail wave lasts as long as its busiest SM: ceil(tail/sm)
        // blocks of the bps a full wave would run.
        (tail.div_ceil(sm)) as f64 / bps as f64
    };
    let waves = full_waves as f64 + tail_fraction;
    let ideal_waves = blocks as f64 / concurrent as f64;
    let wave_imbalance = if ideal_waves > 0.0 {
        (waves / ideal_waves).max(1.0)
    } else {
        1.0
    };

    // --- Pipeline fill ---------------------------------------------------
    // Filling the software pipeline costs ~stages iterations; the drain
    // overlaps the epilogue, so only the fill is charged.
    let ki = counts.k_iters.max(1) as f64;
    let pipeline_efficiency = ki / (ki + counts.pipeline_stages as f64);

    // --- Steady-state roofs (seconds over the whole kernel) --------------
    let clock = dev.clock_hz();
    let issue_derate = counts.efficiency * pipeline_efficiency;

    let total_mma = (counts.mma_sp_per_block + counts.mma_dense_per_block) as f64 * blocks as f64;
    let tensor_s = total_mma * dev.mma_cycles
        / dev.tc_partitions_per_sm as f64
        / (sm as f64 * clock)
        / issue_derate;

    let total_fma = counts.fma_per_block as f64 * blocks as f64;
    let cuda_s = total_fma
        / (dev.fp32_lanes_per_sm as f64 * dev.fp16_cuda_rate)
        / (sm as f64 * clock)
        / issue_derate;

    let total_smem = counts.smem_transactions_per_block as f64 * blocks as f64;
    let smem_s = total_smem / (sm as f64 * clock);

    let load_bytes = counts.gmem_load_bytes_per_block as f64 * blocks as f64;
    let store_bytes = counts.gmem_store_bytes_per_block as f64 * blocks as f64;
    let dram_s = (load_bytes * (1.0 - counts.l2_hit_fraction) + store_bytes) / dev.dram_bw_bytes();
    let l2_s = (load_bytes + store_bytes) / (dev.dram_bw_bytes() * dev.l2_bw_multiplier);

    let roofs = [tensor_s, cuda_s, smem_s, dram_s, l2_s];
    let (limiter_idx, &steady_s) = roofs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .expect("five roofs");

    // Stage-3 epilogue: runs after the k-loop behind a block-wide barrier,
    // serialized on the SM's shared-memory unit — additive, not hidden.
    let epilogue_s =
        counts.smem_epilogue_transactions_per_block as f64 * blocks as f64 / (sm as f64 * clock);

    let main_s = (steady_s + epilogue_s) * wave_imbalance;

    // --- Fixed overheads --------------------------------------------------
    let prologue_s = counts.prologue_cycles_per_wave as f64 * waves.ceil() / clock;
    let launch_s = dev.kernel_launch_us * 1e-6;
    let overhead_s = prologue_s + launch_s;

    let total_s = main_s + overhead_s;
    let limiter = if overhead_s > main_s {
        Limiter::Overhead
    } else {
        match limiter_idx {
            0 => Limiter::TensorCore,
            1 => Limiter::CudaCore,
            2 => Limiter::SharedMemory,
            3 => Limiter::Dram,
            _ => Limiter::L2,
        }
    };

    Ok(KernelTiming {
        time_ms: total_s * 1e3,
        limiter,
        tflops: if total_s > 0.0 {
            counts.effective_flops as f64 / total_s / 1e12
        } else {
            0.0
        },
        roofs_ms: roofs.map(|r| r * 1e3),
        wave_imbalance,
        pipeline_efficiency,
        overhead_ms: overhead_s * 1e3,
        waves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    /// A dense-GEMM-shaped workload: 1024 x K x 4096 with 128x64 tiles.
    fn dense_gemm_counts(k: u64) -> KernelCounts {
        let (bsr, bsc, bsk) = (128u64, 64u64, 32u64);
        let blocks = (1024 / bsr) * (4096 / bsc);
        let k_iters = k / bsk;
        // mma per block: (128/16)*(64/8) tiles * K/16 dense instructions.
        let mma = (bsr / 16) * (bsc / 8) * (k / 16);
        let load = k * (bsr + bsc) * 2;
        let smem = (load + bsr * bsc * 4) / 128;
        KernelCounts {
            grid_blocks: blocks,
            block: BlockResources::new(256, 36 * 1024, 96),
            k_iters,
            pipeline_stages: 3,
            mma_dense_per_block: mma,
            gmem_load_bytes_per_block: load,
            gmem_store_bytes_per_block: bsr * bsc * 2,
            // A row-tiles are re-read by every block in the same grid row
            // and B column-tiles by every block in the same column; with
            // tile swizzling most re-reads hit L2.
            l2_hit_fraction: 0.75,
            smem_transactions_per_block: smem,
            prologue_cycles_per_wave: 2000,
            efficiency: 0.97,
            effective_flops: 2 * 1024 * k * 4096,
            ..KernelCounts::named("dense")
        }
    }

    #[test]
    fn large_dense_gemm_approaches_datasheet_peak() {
        let t = simulate(&dev(), &dense_gemm_counts(12288)).unwrap();
        assert!(t.tflops > 50.0 && t.tflops < 71.2, "tflops={}", t.tflops);
        assert_eq!(t.limiter, Limiter::TensorCore);
    }

    #[test]
    fn small_k_is_less_efficient() {
        let small = simulate(&dev(), &dense_gemm_counts(768)).unwrap();
        let large = simulate(&dev(), &dense_gemm_counts(12288)).unwrap();
        assert!(
            small.tflops < large.tflops * 0.92,
            "small={} large={}",
            small.tflops,
            large.tflops
        );
    }

    #[test]
    fn tflops_scale_monotonically_with_k() {
        let mut prev = 0.0;
        for k in [768u64, 1536, 3072, 6144, 12288] {
            let t = simulate(&dev(), &dense_gemm_counts(k)).unwrap();
            assert!(t.tflops > prev, "k={k}: {} !> {prev}", t.tflops);
            prev = t.tflops;
        }
    }

    #[test]
    fn wave_quantization_penalizes_oversized_tiles() {
        // Same total work split over 96 giant blocks (2 waves of 82 wasted)
        // versus 512 small blocks.
        let mut big = dense_gemm_counts(4096);
        big.grid_blocks = 96;
        big.block = BlockResources::new(256, 80 * 1024, 96); // bps = 1
        let t_big = simulate(&dev(), &big).unwrap();
        assert!(
            t_big.wave_imbalance > 1.5,
            "imbalance={}",
            t_big.wave_imbalance
        );
        let t_small = simulate(&dev(), &dense_gemm_counts(4096)).unwrap();
        assert!(t_small.wave_imbalance < 1.3);
    }

    #[test]
    fn overhead_dominates_tiny_kernels() {
        let mut c = KernelCounts::named("tiny");
        c.grid_blocks = 4;
        c.mma_dense_per_block = 8;
        c.effective_flops = 4 * 8 * 4096;
        let t = simulate(&dev(), &c).unwrap();
        assert_eq!(t.limiter, Limiter::Overhead);
        assert!(t.time_ms >= 0.003, "at least the launch latency");
    }

    #[test]
    fn dram_bound_kernel_reports_dram() {
        let mut c = KernelCounts::named("streaming");
        c.grid_blocks = 1000;
        c.gmem_load_bytes_per_block = 10 * 1024 * 1024;
        c.l2_hit_fraction = 0.0;
        let t = simulate(&dev(), &c).unwrap();
        assert_eq!(t.limiter, Limiter::Dram);
        // 10 GB at 936 GB/s ~ 10.7 ms, plus ~12% wave-quantization tail.
        assert!((t.time_ms - 11.9).abs() < 1.0, "t={}", t.time_ms);
    }

    #[test]
    fn launch_error_propagates() {
        let mut c = KernelCounts::named("too-big");
        c.block = BlockResources::new(128, 200 * 1024, 32);
        assert!(simulate(&dev(), &c).is_err());
    }

    #[test]
    fn sparse_mma_counts_halve_tensor_time() {
        let mut dense = dense_gemm_counts(8192);
        let t_dense = simulate(&dev(), &dense).unwrap();
        // Same problem with mma.sp: half the instructions for the same
        // effective flops (that is exactly what 2:4 gives).
        dense.mma_sp_per_block = dense.mma_dense_per_block / 2;
        dense.mma_dense_per_block = 0;
        let t_sparse = simulate(&dev(), &dense).unwrap();
        let speedup = t_sparse.speedup_over(&t_dense);
        assert!(speedup > 1.6 && speedup <= 2.05, "speedup={speedup}");
    }
}
