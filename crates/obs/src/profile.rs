//! Per-phase kernel profiling: measured wall time and compulsory bytes
//! per `(kernel, phase)`, for placing next to the cost model's
//! [`KernelCounts`] prediction on one roofline.
//!
//! The runtime's dispatch paths call [`PhaseTimer::start`] /
//! [`PhaseTimer::stop`] around each phase (stage / gather / mma or band
//! / epilogue). While profiling is disabled — the default — a timer is
//! one relaxed atomic load and records nothing. When enabled
//! (`venom infer --profile`), each stop accumulates elapsed nanoseconds
//! and the phase's *compulsory* byte traffic — every persistent operand
//! counted once per dispatch (source RHS, condensed stream, final
//! output), never per-tile re-reads — which is the DRAM-analog the
//! simulator's post-L2 byte model predicts. `measured intensity =
//! effective FLOPs / compulsory bytes` is then directly comparable to
//! the predicted intensity of `venom_sim::roofline::analyze` (this
//! crate depends on nothing, so the comparison lives in the callers).
//!
//! [`KernelCounts`]: https://docs.rs/venom-sim

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns phase recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether phases currently record.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Accumulated measurements of one `(kernel, phase)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Recorded phase executions.
    pub calls: u64,
    /// Total wall time, nanoseconds.
    pub ns: u64,
    /// Total compulsory bytes attributed to the phase.
    pub bytes: u64,
}

/// One row of a profile snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Kernel label (e.g. `spmm[mma]`, `sddmm`, `attention`).
    pub kernel: &'static str,
    /// Phase within the kernel (`stage`, `gather`, `mma`, `band`,
    /// `epilogue`).
    pub phase: &'static str,
    /// Accumulated measurements.
    pub stat: PhaseStat,
}

/// Keyed by literals, so a record into an existing key allocates nothing.
type Store = BTreeMap<(&'static str, &'static str), PhaseStat>;

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Accumulates one phase execution (no-op while disabled).
pub fn record(kernel: &'static str, phase: &'static str, ns: u64, bytes: u64) {
    if !enabled() {
        return;
    }
    let mut store = store().lock().unwrap_or_else(|e| e.into_inner());
    let stat = store.entry((kernel, phase)).or_default();
    stat.calls += 1;
    stat.ns += ns;
    stat.bytes += bytes;
}

/// Every accumulated `(kernel, phase)` row, sorted by kernel then phase.
pub fn snapshot() -> Vec<PhaseRecord> {
    store()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|((kernel, phase), stat)| PhaseRecord {
            kernel,
            phase,
            stat: *stat,
        })
        .collect()
}

/// Clears the accumulated rows (the CLI resets around each pinned probe
/// run so measurements attribute to one dispatch window).
pub fn reset() {
    store().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Sums a snapshot's time and bytes per kernel:
/// `(kernel, total_ns, total_bytes)`.
pub fn kernel_totals(records: &[PhaseRecord]) -> Vec<(&'static str, u64, u64)> {
    let mut totals: Vec<(&'static str, u64, u64)> = Vec::new();
    for r in records {
        match totals.iter_mut().find(|(k, _, _)| *k == r.kernel) {
            Some((_, ns, bytes)) => {
                *ns += r.stat.ns;
                *bytes += r.stat.bytes;
            }
            None => totals.push((r.kernel, r.stat.ns, r.stat.bytes)),
        }
    }
    totals
}

/// A phase scope: started before the work, stopped after with the
/// phase's byte attribution. Inert while profiling is disabled.
#[derive(Debug)]
#[must_use = "a timer only records when stopped"]
pub struct PhaseTimer {
    start: Option<Instant>,
}

impl PhaseTimer {
    /// Starts timing (no clock read while profiling is disabled).
    pub fn start() -> PhaseTimer {
        PhaseTimer {
            start: enabled().then(Instant::now),
        }
    }

    /// Stops and accumulates into `(kernel, phase)`.
    pub fn stop(self, kernel: &'static str, phase: &'static str, bytes: u64) {
        if let Some(start) = self.start {
            record(
                kernel,
                phase,
                start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                bytes,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The store is process-global; tests only assert on their own
    // kernel labels, and hold this lock so one test's enable/disable
    // cannot flip another's mid-body.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_timers_record_nothing() {
        let _serial = serial();
        set_enabled(false);
        let t = PhaseTimer::start();
        t.stop("test_disabled_kernel", "stage", 128);
        assert!(
            !snapshot()
                .iter()
                .any(|r| r.kernel == "test_disabled_kernel"),
            "disabled profiling must not record"
        );
    }

    #[test]
    fn enabled_timers_accumulate_per_phase() {
        let _serial = serial();
        set_enabled(true);
        let t = PhaseTimer::start();
        t.stop("test_enabled_kernel", "stage", 100);
        let t = PhaseTimer::start();
        t.stop("test_enabled_kernel", "stage", 50);
        let t = PhaseTimer::start();
        t.stop("test_enabled_kernel", "mma", 999);
        set_enabled(false);
        let rows: Vec<PhaseRecord> = snapshot()
            .into_iter()
            .filter(|r| r.kernel == "test_enabled_kernel")
            .collect();
        assert_eq!(rows.len(), 2, "two phases: {rows:?}");
        let stage = rows.iter().find(|r| r.phase == "stage").unwrap();
        assert_eq!(stage.stat.calls, 2);
        assert_eq!(stage.stat.bytes, 150);
        let totals = kernel_totals(&rows);
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].2, 150 + 999);
    }
}
