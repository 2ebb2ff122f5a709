//! Helpers the workloads share: seeded inputs, memory, computed work.

use std::time::{Duration, Instant};
use venom_sim::KernelCounts;

/// SplitMix64: derives independent seeds and draws from one run seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of input `index` of stream `stream` under run seed `seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(stream)) ^ index)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on; returns that CPU. The kernels split
/// each call over `available_parallelism()` threads, so once pinned they
/// run on one thread.
///
/// # Errors
/// When the affinity mask cannot be read or set.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    /// glibc's `cpu_set_t`: a 1024-bit mask.
    #[repr(C)]
    struct CpuSet([u64; 16]);
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a writable mask of exactly `size` bytes; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| (allowed.0[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("the affinity mask allows no CPU")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable mask of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Computed work of one kernel launch: `(GFLOP, MB of global memory
/// traffic)`, from its priced counts — not measured.
pub fn computed_work(counts: &KernelCounts) -> (f64, f64) {
    let bytes =
        counts.grid_blocks * (counts.gmem_load_bytes_per_block + counts.gmem_store_bytes_per_block);
    (counts.effective_flops as f64 / 1e9, bytes as f64 / 1e6)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Sleeps until `t` (returns at once if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// `secs` seconds as a [`Duration`].
pub fn seconds(secs: f64) -> Duration {
    Duration::from_secs_f64(secs)
}
