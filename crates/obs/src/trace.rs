//! Chrome-trace spans: zero-allocation when disabled, a complete-event
//! buffer when enabled.
//!
//! The serving stack opens a [`Span`] (usually through the
//! [`crate::span!`] macro) around admission, plan builds, batch
//! dispatches and degraded fallbacks. While tracing is disabled — the
//! default — `Span::begin` is one relaxed atomic load, no clock read,
//! no allocation, and drop is a no-op; the hot path stays untouched.
//! When enabled (`venom serve --trace-out`), each dropped span records a
//! chrome://tracing "complete" event (`ph: "X"`), and
//! [`drain_chrome_json`] renders the buffer as a JSON object loadable by
//! chrome://tracing or Perfetto. Events carry an optional request id in
//! `args.req`, so one request correlates across threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Trace clock origin, pinned the first time tracing is enabled.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn events() -> &'static Mutex<Vec<TraceEvent>> {
    static EVENTS: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Stable per-thread id for the chrome `tid` field.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Turns span recording on or off (on pins the trace clock origin).
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans currently record.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One recorded complete event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name (e.g. `plan_build`).
    pub name: &'static str,
    /// Category, for trace-viewer filtering.
    pub cat: &'static str,
    /// Start, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recording thread.
    pub tid: u64,
    /// Correlated request id, when the span belongs to one request.
    pub req: Option<u64>,
}

/// Records a complete event from an explicit start instant — for call
/// sites that must decide *after the fact* whether the work counts
/// (e.g. the plan cache records `plan_build` only for successful
/// builds, so span count equals the `builds` counter).
pub fn record_complete(name: &'static str, cat: &'static str, start: Instant, req: Option<u64>) {
    if !enabled() {
        return;
    }
    let ts_us = start
        .saturating_duration_since(epoch())
        .as_micros()
        .min(u128::from(u64::MAX)) as u64;
    let dur_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    let event = TraceEvent {
        name,
        cat,
        ts_us,
        dur_us,
        tid: thread_id(),
        req,
    };
    events()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(event);
}

/// A scope guard recording one complete event on drop. Construct with
/// [`Span::begin`] or the [`crate::span!`] macro.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    cat: &'static str,
    req: Option<u64>,
    /// `None` while tracing is disabled: begin took no clock read and
    /// drop records nothing.
    start: Option<Instant>,
}

impl Span {
    /// Opens a span; inert (no allocation, no clock read) while tracing
    /// is disabled.
    pub fn begin(name: &'static str, cat: &'static str, req: Option<u64>) -> Span {
        let start = enabled().then(Instant::now);
        Span {
            name,
            cat,
            req,
            start,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_complete(self.name, self.cat, start, self.req);
        }
    }
}

/// Removes and returns every recorded event (oldest first).
pub fn drain() -> Vec<TraceEvent> {
    std::mem::take(&mut *events().lock().unwrap_or_else(|e| e.into_inner()))
}

/// Recorded events so far, without draining.
pub fn snapshot() -> Vec<TraceEvent> {
    events().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Renders events as a chrome://tracing-loadable JSON object
/// (`{"traceEvents": [...]}`, complete events, microsecond clock).
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut items = Vec::with_capacity(events.len());
    for e in events {
        let args = match e.req {
            Some(req) => format!("{{\"req\":{req}}}"),
            None => "{}".to_string(),
        };
        items.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
            e.name, e.cat, e.ts_us, e.dur_us, e.tid, args
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        items.join(",")
    )
}

/// Drains the buffer and renders it as chrome-trace JSON.
pub fn drain_chrome_json() -> String {
    to_chrome_json(&drain())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global: one test's `set_enabled(true)`
    // would let another's "disabled" spans record, and its drain would
    // shrink another's snapshot. Tests here hold this lock for their
    // whole body and leave tracing disabled.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = serial();
        set_enabled(false);
        let before = snapshot().len();
        {
            let _s = crate::span!("quiet");
            let _t = crate::span!("quiet_req", 7u64);
        }
        assert_eq!(snapshot().len(), before, "disabled spans must not record");
    }

    #[test]
    fn enabled_spans_emit_loadable_chrome_json() {
        let _serial = serial();
        set_enabled(true);
        {
            let _s = Span::begin("unit_test_span", "test", Some(42));
            std::hint::black_box(0);
        }
        set_enabled(false);
        let events = drain();
        let mine: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name == "unit_test_span")
            .collect();
        assert_eq!(mine.len(), 1, "exactly one span recorded");
        assert_eq!(mine[0].req, Some(42));
        let json = to_chrome_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"args\":{\"req\":42}"), "{json}");
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{json}");
    }
}
