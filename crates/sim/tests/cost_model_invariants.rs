//! Invariants of the cost model: the simulator's answers must respond to
//! its inputs the way real hardware does, or the benchmark shapes built on
//! top of it mean nothing.

use proptest::prelude::*;
use venom_sim::pipeline::{simulate, KernelCounts};
use venom_sim::{banks, BlockResources, DeviceConfig};

fn dev() -> DeviceConfig {
    DeviceConfig::rtx3090()
}

fn base_counts() -> KernelCounts {
    KernelCounts {
        grid_blocks: 512,
        block: BlockResources::new(256, 32 * 1024, 96),
        k_iters: 64,
        pipeline_stages: 3,
        mma_sp_per_block: 4096,
        gmem_load_bytes_per_block: 1 << 20,
        gmem_store_bytes_per_block: 1 << 14,
        l2_hit_fraction: 0.5,
        smem_transactions_per_block: 20_000,
        prologue_cycles_per_wave: 1500,
        efficiency: 0.95,
        effective_flops: 1 << 36,
        ..KernelCounts::named("invariant")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// More instructions never make the kernel faster.
    #[test]
    fn monotone_in_instructions(extra in 0u64..100_000) {
        let mut a = base_counts();
        let t0 = simulate(&dev(), &a).unwrap().time_ms;
        a.mma_sp_per_block += extra;
        let t1 = simulate(&dev(), &a).unwrap().time_ms;
        prop_assert!(t1 >= t0 - 1e-12);
    }

    /// More bytes never make the kernel faster.
    #[test]
    fn monotone_in_bytes(extra in 0u64..(1 << 24)) {
        let mut a = base_counts();
        let t0 = simulate(&dev(), &a).unwrap().time_ms;
        a.gmem_load_bytes_per_block += extra;
        let t1 = simulate(&dev(), &a).unwrap().time_ms;
        prop_assert!(t1 >= t0 - 1e-12);
    }

    /// A higher L2 hit rate never hurts.
    #[test]
    fn monotone_in_l2_hits(hit in 0.0f64..1.0) {
        let mut a = base_counts();
        a.l2_hit_fraction = 0.0;
        let cold = simulate(&dev(), &a).unwrap().time_ms;
        a.l2_hit_fraction = hit;
        let warm = simulate(&dev(), &a).unwrap().time_ms;
        prop_assert!(warm <= cold + 1e-12);
    }

    /// More blocks never reduce total time, and per-block throughput never
    /// improves beyond linear.
    #[test]
    fn monotone_in_grid(mult in 1u64..8) {
        let mut a = base_counts();
        let t1 = simulate(&dev(), &a).unwrap().time_ms;
        a.grid_blocks *= mult;
        let tm = simulate(&dev(), &a).unwrap().time_ms;
        prop_assert!(tm >= t1 - 1e-12);
        prop_assert!(tm <= t1 * mult as f64 * 1.5 + 1.0, "superlinear blowup: {t1} -> {tm} x{mult}");
    }

    /// Stage-3 epilogue transactions are strictly additive.
    #[test]
    fn epilogue_is_additive(epi in 1u64..1_000_000) {
        let mut a = base_counts();
        let t0 = simulate(&dev(), &a).unwrap().time_ms;
        a.smem_epilogue_transactions_per_block = epi;
        let t1 = simulate(&dev(), &a).unwrap().time_ms;
        prop_assert!(t1 > t0, "epilogue must cost time");
    }

    /// Deeper pipelines only pay off with enough iterations: at one
    /// iteration, more stages never help.
    #[test]
    fn pipeline_fill_costs_short_loops(stages in 1u32..8) {
        let mut a = base_counts();
        a.k_iters = 1;
        a.pipeline_stages = 1;
        let shallow = simulate(&dev(), &a).unwrap().time_ms;
        a.pipeline_stages = stages;
        let deep = simulate(&dev(), &a).unwrap().time_ms;
        prop_assert!(deep >= shallow - 1e-12);
    }

    /// Bank-conflict cost is bounded: 1 <= factor <= 32, and permuting the
    /// threads inside a phase does not change it.
    #[test]
    fn bank_conflicts_bounded_and_order_free(seed in 0u64..10_000) {
        let addrs: Vec<u64> = (0..32u64).map(|t| ((t * seed) % 256) * 4).collect();
        let c = banks::warp_access(&addrs, 4);
        prop_assert!(c.transactions >= 1 && c.transactions <= 32);
        let mut rev = addrs.clone();
        rev.reverse();
        // 4-byte accesses are a single phase: order inside it is free.
        prop_assert_eq!(banks::warp_access(&rev, 4).transactions, c.transactions);
    }
}

#[test]
fn roofline_consistency_with_simulation() {
    // A kernel the roofline calls memory-bound must be DRAM- or L2-limited
    // in the pipeline model too (when smem/overheads are negligible).
    let mut c = base_counts();
    c.mma_sp_per_block = 10; // negligible compute
    c.smem_transactions_per_block = 10;
    c.gmem_load_bytes_per_block = 1 << 24;
    c.l2_hit_fraction = 0.0;
    let roof = venom_sim::roofline::analyze(&dev(), &c);
    assert!(roof.memory_bound);
    let t = simulate(&dev(), &c).unwrap();
    assert!(
        matches!(t.limiter, venom_sim::Limiter::Dram | venom_sim::Limiter::L2),
        "limiter {:?}",
        t.limiter
    );
}

#[test]
fn a100_is_faster_than_rtx3090_on_the_same_kernel() {
    let c = base_counts();
    let t39 = simulate(&DeviceConfig::rtx3090(), &c).unwrap().time_ms;
    let ta = simulate(&DeviceConfig::a100(), &c).unwrap().time_ms;
    assert!(ta < t39, "A100 {ta} should beat RTX 3090 {t39}");
}

#[test]
fn launch_overhead_floors_every_kernel() {
    let mut c = KernelCounts::named("empty-ish");
    c.mma_dense_per_block = 1;
    c.effective_flops = 1;
    let t = simulate(&dev(), &c).unwrap();
    assert!(t.time_ms * 1e3 >= dev().kernel_launch_us);
}
