//! Device configurations, calibrated to vendor datasheets.
//!
//! Every constant here encodes a *datasheet* or microbenchmark-published
//! fact about the device, never a result the benchmarks are supposed to
//! predict.

/// Static description of a simulated GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, for report headers.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Sustained SM clock in GHz.
    pub clock_ghz: f64,
    /// DRAM bandwidth in GB/s.
    pub dram_bw_gbps: f64,
    /// L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// L2 bandwidth as a multiple of DRAM bandwidth (Ampere ~3x, from the
    /// Sun et al. microbenchmark study the paper cites).
    pub l2_bw_multiplier: f64,
    /// Usable shared memory per SM in bytes.
    pub smem_per_sm: u32,
    /// Maximum shared memory per thread block in bytes.
    pub max_smem_per_block: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Tensor-core partitions (processing blocks) per SM.
    pub tc_partitions_per_sm: u32,
    /// Issue cycles of one `mma.m16n8k16` (dense) or `mma.sp.m16n8k32`
    /// (sparse) half-precision instruction on one partition. 32 cycles
    /// reproduces the GA102 datasheet peaks: dense fp16/fp32-acc
    /// = 82 SM x 4 part x (16*8*16*2 FLOP / 32 cy) x 1.695 GHz = 71 TFLOPS,
    /// and 2x that with sparsity.
    pub mma_cycles: f64,
    /// Shared-memory banks (each 4 bytes wide, one word per cycle).
    pub smem_banks: u32,
    /// FP32 FMA lanes per SM (CUDA cores): 128 on GA102.
    pub fp32_lanes_per_sm: u32,
    /// Non-tensor fp16 throughput multiplier over fp32 (1.0 on GA102).
    pub fp16_cuda_rate: f64,
    /// Kernel launch + tail latency in microseconds.
    pub kernel_launch_us: f64,
}

impl DeviceConfig {
    /// NVIDIA GeForce RTX 3090 (GA102) — the paper's evaluation GPU.
    pub fn rtx3090() -> Self {
        DeviceConfig {
            name: "NVIDIA GeForce RTX 3090 (simulated)",
            sm_count: 82,
            clock_ghz: 1.695,
            dram_bw_gbps: 936.0,
            l2_bytes: 6 * 1024 * 1024,
            l2_bw_multiplier: 3.0,
            smem_per_sm: 100 * 1024,
            max_smem_per_block: 100 * 1024,
            regs_per_sm: 65536,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 16,
            warp_size: 32,
            tc_partitions_per_sm: 4,
            mma_cycles: 32.0,
            smem_banks: 32,
            fp32_lanes_per_sm: 128,
            fp16_cuda_rate: 1.0,
            kernel_launch_us: 3.0,
        }
    }

    /// NVIDIA A100-SXM4-80GB (GA100) — for cross-device sanity studies.
    pub fn a100() -> Self {
        DeviceConfig {
            name: "NVIDIA A100 80GB (simulated)",
            sm_count: 108,
            clock_ghz: 1.41,
            dram_bw_gbps: 2039.0,
            l2_bytes: 40 * 1024 * 1024,
            l2_bw_multiplier: 3.0,
            smem_per_sm: 164 * 1024,
            max_smem_per_block: 164 * 1024,
            regs_per_sm: 65536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            warp_size: 32,
            tc_partitions_per_sm: 4,
            // A100 dense fp16/fp32-acc peak 312 TFLOPS:
            // 108 x 4 x (4096/8) x 1.41e9 = 312e12 -> 8 cycles.
            mma_cycles: 8.0,
            smem_banks: 32,
            fp32_lanes_per_sm: 64,
            fp16_cuda_rate: 4.0,
            kernel_launch_us: 3.0,
        }
    }

    /// Clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1e9
    }

    /// Peak dense half-precision tensor throughput (f32 accumulate), FLOP/s.
    pub fn dense_tensor_flops(&self) -> f64 {
        let flop_per_mma = 16.0 * 8.0 * 16.0 * 2.0;
        self.sm_count as f64 * self.tc_partitions_per_sm as f64 * flop_per_mma / self.mma_cycles
            * self.clock_hz()
    }

    /// Peak sparse (2:4) effective tensor throughput, FLOP/s — 2x dense.
    pub fn sparse_tensor_flops(&self) -> f64 {
        2.0 * self.dense_tensor_flops()
    }

    /// Peak CUDA-core fp32 FMA throughput, FLOP/s.
    pub fn cuda_fp32_flops(&self) -> f64 {
        self.sm_count as f64 * self.fp32_lanes_per_sm as f64 * 2.0 * self.clock_hz()
    }

    /// Peak CUDA-core fp16 throughput, FLOP/s.
    pub fn cuda_fp16_flops(&self) -> f64 {
        self.cuda_fp32_flops() * self.fp16_cuda_rate
    }

    /// DRAM bandwidth in bytes/second.
    pub fn dram_bw_bytes(&self) -> f64 {
        self.dram_bw_gbps * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx3090_peaks_match_datasheet() {
        let d = DeviceConfig::rtx3090();
        let dense_tflops = d.dense_tensor_flops() / 1e12;
        // GA102 datasheet: 71 TFLOPS fp16 with fp32 accumulate.
        assert!((dense_tflops - 71.1).abs() < 1.0, "dense={dense_tflops}");
        assert!((d.sparse_tensor_flops() / 1e12 - 142.2).abs() < 2.0);
        // 35.6 TFLOPS fp32 CUDA cores.
        assert!((d.cuda_fp32_flops() / 1e12 - 35.6).abs() < 0.5);
    }

    #[test]
    fn a100_peaks_match_datasheet() {
        let d = DeviceConfig::a100();
        let dense_tflops = d.dense_tensor_flops() / 1e12;
        assert!((dense_tflops - 312.0).abs() < 5.0, "dense={dense_tflops}");
        assert!((d.cuda_fp32_flops() / 1e12 - 19.5).abs() < 0.5);
    }

    #[test]
    fn sparse_is_double_dense() {
        let d = DeviceConfig::rtx3090();
        assert_eq!(d.sparse_tensor_flops(), 2.0 * d.dense_tensor_flops());
    }
}
