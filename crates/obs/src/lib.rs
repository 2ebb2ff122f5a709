//! Unified telemetry for the VENOM runtime.
//!
//! Three generations of ad-hoc instrumentation grew alongside the
//! serving stack — cache atomics, sorted-`Vec` percentile math, per-PR
//! printlns — with no way to observe a live server or to check the cost
//! model's roofline predictions against what the machine actually does.
//! This crate replaces them with one permanent layer, in three parts:
//!
//! * [`metrics`] — a process-wide [`metrics::MetricsRegistry`] of
//!   lock-free counters, gauges and log-bucketed latency histograms
//!   (bounded relative quantile error, mergeable across worker threads),
//!   with Prometheus-style text exposition and a JSON snapshot. Instance
//!   handles give each cache or server its own exact store, and the
//!   exposition sums them into one series per name and label set.
//! * [`trace`] — a span API that is zero-allocation when disabled and
//!   emits chrome://tracing-compatible JSON when enabled, so a full
//!   `venom serve` run opens in a trace viewer with request-id
//!   correlation across admission, plan build, batch dispatch and the
//!   degraded fallback.
//! * [`profile`] — per-phase kernel measurement (stage / gather /
//!   mma-or-band / epilogue) recording wall time and compulsory bytes,
//!   so a plan's [`KernelCounts`]-predicted arithmetic intensity can be
//!   placed next to a measured one on the same roofline.
//!
//! The measured-vs-modeled methodology follows the papers the repo
//! reproduces against (see PAPERS.md): a cost model is only trustworthy
//! while its predicted regime (compute- vs memory-bound) matches the
//! measured one on pinned shapes.
//!
//! [`KernelCounts`]: https://docs.rs/venom-sim

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{registry, Counter, Gauge, Histogram, MetricsRegistry};
pub use trace::Span;

/// Opens a trace span that records a chrome-trace complete event when
/// dropped. Zero allocation (and no clock read) while tracing is
/// disabled.
///
/// ```
/// let _guard = venom_obs::span!("plan_build");
/// let _tagged = venom_obs::span!("batch_dispatch", 42u64); // request id
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::Span::begin($name, "runtime", None)
    };
    ($name:expr, $req:expr) => {
        $crate::trace::Span::begin($name, "runtime", Some($req as u64))
    };
}
