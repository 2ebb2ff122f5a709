//! The concurrent serving runtime: queue → coalescer → planned dispatch,
//! hardened against partial failure.
//!
//! Serving is where the plan-once/run-many split finally pays out: the
//! measured batched-SpMM win (`spmm_plan_batch` in BENCH_SPMM.json) only
//! materialises when *concurrent* requests against the same weight are
//! dispatched together instead of one at a time. This module is that
//! layer, in three pieces:
//!
//! * [`PlanCache`] — a thread-safe plan cache, shared by every server
//!   handed the same `Arc`, keyed by [`crate::MatmulDescriptor`] (plus a
//!   weight fingerprint, so two same-shape models never alias). Plans
//!   build exactly once per key no matter how many threads race the
//!   first request; eviction is LRU under a configurable byte budget
//!   and never drops a plan a caller still holds; hit/miss/eviction/build
//!   counters are exposed for the steady-state hit-ratio contract.
//!   [`PlanCache::warm`] builds a cold descriptor on a background thread
//!   before the first request lands, and
//!   [`PlanCache::get_or_plan_deadline`] bounds how long a request waits
//!   on a cold build — a stuck builder keeps running in the background
//!   instead of wedging its key.
//! * [`RequestQueue`] — a bounded MPMC queue with two admission modes:
//!   [`Server::try_submit`] rejects when full (admission control), and
//!   [`Server::submit`] blocks until a slot frees (backpressure); an
//!   optional depth watermark sheds the worst-deadline request under
//!   load. The dequeue side is the *coalescer*:
//!   [`RequestQueue::pop_coalesced`] answers expired requests with
//!   [`ServeError::DeadlineExceeded`], then pops the oldest live request
//!   and greedily packs queued requests for the same plan key into one
//!   batch, up to the configured bound.
//! * [`Server`] — supervised worker threads that drain coalesced
//!   batches, resolve the plan through the cache (retrying failed
//!   builds with deterministic jittered backoff), and execute one
//!   [`crate::MatmulPlan::run_batch`] dispatch per batch. Batching is
//!   bit-identical to serving each request alone (columns are
//!   independent in every execution path), so coalescing changes
//!   throughput and nothing else — and when planning fails outright,
//!   [`Server::register_degradable`] batches fall back to the per-call
//!   baseline, which is bit-identical too. Batch panics are contained
//!   by `catch_unwind`: the affected requests get
//!   [`ServeError::WorkerPanicked`], the worker respawns within
//!   [`ServeConfig::restart_budget`], and poisoned locks are recovered
//!   rather than cascading. [`Server::health`] polls liveness;
//!   [`Server::shutdown`] answers every undelivered handle before
//!   returning the session's [`ServeReport`].
//!
//! The failure contract, enforced by `tests/serve_faults.rs` under
//! seeded fault injection ([`FaultConfig`] / [`FaultPlan`], reachable
//! from the CLI as `venom serve --inject`): every submitted request
//! resolves to a result or a typed [`ServeError`] — never a hang, never
//! a lost request.

mod cache;
mod fault;
mod queue;
mod retry;
mod server;
mod sync;

pub use cache::{CacheStats, PlanBuildError, PlanCache, PlanKey};
pub use fault::{FaultConfig, FaultPlan, FaultTrips, InjectedPanic};
pub use queue::{RequestQueue, ResponseHandle, ServeError, ServeRequest};
pub use retry::RetryPolicy;
pub use server::{HealthReport, ServeConfig, ServeReport, Server};
