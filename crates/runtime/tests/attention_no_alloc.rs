//! Steady-state allocations of planned attention: after a warm-up call,
//! one `AttentionPlan::attention` call allocates a fixed number of times
//! (the returned context, the parallel region's bookkeeping, a thread's
//! first scratch lease) — never once per row or per head. A counting
//! global allocator wraps the system one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use venom_runtime::{AttentionMask, AttentionPlan};
use venom_sim::DeviceConfig;
use venom_tensor::random;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter increment
// has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one steady-state attention call at `(seq, heads)`
/// (head size 64, causal mask).
fn allocations_per_call(seq: usize, heads: usize) -> u64 {
    let hidden = 64 * heads;
    let plan = AttentionPlan::build(
        seq,
        hidden,
        heads,
        AttentionMask::Causal,
        &DeviceConfig::rtx3090(),
    )
    .expect("valid attention shape");
    let q = random::activation_matrix(seq, hidden, 1);
    let k = random::activation_matrix(seq, hidden, 2);
    let v = random::activation_matrix(seq, hidden, 3);
    // Warm-up: fills this thread's scratch arena at this shape.
    for _ in 0..2 {
        drop(plan.attention(&q, &k, &v));
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let ctx = plan.attention(&q, &k, &v);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    drop(ctx);
    after - before
}

// One test function: the counter is process-wide, so concurrently
// running tests would pollute each other's counts.
#[test]
fn attention_allocations_do_not_grow_with_seq_or_heads() {
    venom_obs::profile::set_enabled(false);
    let base = allocations_per_call(64, 4);
    for (seq, heads) in [(256, 4), (64, 12), (256, 12)] {
        let n = allocations_per_call(seq, heads);
        assert!(
            n <= base,
            "seq {seq}, {heads} heads: {n} allocations per call vs {base} at seq 64, 4 heads"
        );
    }
}
