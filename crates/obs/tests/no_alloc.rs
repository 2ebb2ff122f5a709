//! The overhead gate's allocation half: disabled spans and phase timers
//! must not allocate on the hot path, and an enabled phase record into
//! an existing `(kernel, phase)` key must not either. A counting global
//! allocator wraps the system one; those paths must leave the counter
//! untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

// One test function: the counting allocator is shared by every thread
// of this binary, so a second test running in parallel would perturb it.
#[test]
fn disabled_spans_and_timers_do_not_allocate() {
    venom_obs::trace::set_enabled(false);
    venom_obs::profile::set_enabled(false);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        let _span = venom_obs::span!("hot_path");
        let _tagged = venom_obs::span!("hot_path_req", i);
        let timer = venom_obs::profile::PhaseTimer::start();
        timer.stop("hot_kernel", "mma", 64);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled telemetry allocated {} times on the hot path",
        after - before
    );

    venom_obs::profile::set_enabled(true);
    venom_obs::profile::record("warm_kernel", "mma", 1, 64);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000u64 {
        venom_obs::profile::record("warm_kernel", "mma", 1, 64);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    venom_obs::profile::set_enabled(false);
    assert_eq!(
        after - before,
        0,
        "enabled profiling allocated {} times recording into a warm key",
        after - before
    );
}
