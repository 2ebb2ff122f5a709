//! The serving loop: supervised worker threads draining coalesced
//! batches through cached plans, degrading to per-call dispatch when
//! planning fails.
//!
//! Failure containment is per batch: each coalesced dispatch runs inside
//! `catch_unwind`, so a panic — injected or genuine — costs exactly the
//! requests packed into that batch (answered with
//! [`ServeError::WorkerPanicked`]) and one worker thread, which respawns
//! itself while the restart budget lasts. Plan-resolution failures never
//! strand a batch either: failed builds are retried with deterministic
//! jittered backoff, timed-out builds are abandoned (the build keeps
//! running for later requests), and either way the batch falls back to
//! the registered per-call baseline when one exists — bit-identical to
//! the planned path by the conformance contract — before giving up with
//! a typed error.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use super::cache::{PlanBuildError, PlanCache, PlanKey};
use super::queue::{RequestQueue, ResponseHandle, ServeError, ServeRequest};
use super::retry::RetryPolicy;
use super::sync::{lock_recover, read_recover, write_recover};
use crate::matmul::MatmulPlan;
use venom_fp16::Half;
use venom_obs::{Counter, Histogram};
use venom_tensor::Matrix;

/// Serving-loop knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub concurrency: usize,
    /// Most requests one coalesced dispatch may pack.
    pub max_batch: usize,
    /// Bound of the request queue (the admission-control limit).
    pub queue_capacity: usize,
    /// Queue depth at which load shedding starts answering the
    /// worst-deadline request with [`ServeError::Shed`] (`None`
    /// disables shedding; rejection/backpressure still apply).
    pub shed_watermark: Option<usize>,
    /// Worker threads the server may respawn after panics before it
    /// stops replacing them.
    pub restart_budget: u32,
    /// How long a worker waits for a cold plan build before falling
    /// back (the build itself keeps running in the background).
    pub build_timeout: Duration,
    /// Backoff schedule for retrying failed plan builds.
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            concurrency: 4,
            max_batch: 8,
            queue_capacity: 64,
            shed_watermark: None,
            restart_budget: 2,
            build_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Overrides the worker count.
    ///
    /// # Panics
    /// Panics if `concurrency` is zero.
    #[must_use]
    pub fn with_concurrency(mut self, concurrency: usize) -> Self {
        assert!(concurrency >= 1, "concurrency must be at least 1");
        self.concurrency = concurrency;
        self
    }

    /// Overrides the coalescing bound.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        self.max_batch = max_batch;
        self
    }

    /// Overrides the queue capacity.
    ///
    /// # Panics
    /// Panics if `queue_capacity` is zero.
    #[must_use]
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        assert!(queue_capacity >= 1, "queue capacity must be at least 1");
        self.queue_capacity = queue_capacity;
        self
    }

    /// Enables (or disables, with `None`) load shedding at the given
    /// queue depth.
    ///
    /// # Panics
    /// Panics if `watermark` is `Some(0)`.
    #[must_use]
    pub fn with_shed_watermark(mut self, watermark: Option<usize>) -> Self {
        assert!(
            watermark != Some(0),
            "a zero watermark would shed every request"
        );
        self.shed_watermark = watermark;
        self
    }

    /// Overrides how many panicked workers the server will replace.
    #[must_use]
    pub fn with_restart_budget(mut self, restart_budget: u32) -> Self {
        self.restart_budget = restart_budget;
        self
    }

    /// Overrides the per-batch plan-build wait bound.
    #[must_use]
    pub fn with_build_timeout(mut self, build_timeout: Duration) -> Self {
        self.build_timeout = build_timeout;
        self
    }

    /// Overrides the failed-build retry schedule.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// What one serving session did: request counts, batch shape, latency
/// distribution, and the fault-handling tallies.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    /// Requests served successfully through the planned path.
    pub served: u64,
    /// Requests answered with an error.
    pub errored: u64,
    /// Requests served through the degraded per-call fallback (also
    /// counted in [`Self::served`]).
    pub degraded: u64,
    /// Requests answered with [`ServeError::Shed`] by the watermark.
    pub shed: u64,
    /// Requests answered with [`ServeError::DeadlineExceeded`] by the
    /// dequeue-side expiry sweep.
    pub deadline_expired: u64,
    /// Panicked workers that were replaced.
    pub worker_restarts: u64,
    /// Coalesced dispatches executed.
    pub batches: u64,
    /// `served / batches` — how well the coalescer packed.
    pub mean_batch: f64,
    /// Median submit-to-response latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile submit-to-response latency, milliseconds.
    pub p99_ms: f64,
    /// Worst submit-to-response latency, milliseconds.
    pub max_ms: f64,
}

/// A liveness snapshot, pollable while the server runs — the signal an
/// operator (or an orchestration layer) watches to decide whether the
/// process is still worth sending traffic to. Each field is read on its
/// own, not under one lock: while workers run, two fields may straddle
/// a batch (say `served` already counting it and `degraded` not yet).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Worker threads currently alive and draining the queue.
    pub live_workers: usize,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Worker panics contained so far.
    pub worker_panics: u64,
    /// Panicked workers replaced so far (bounded by the restart budget).
    pub worker_restarts: u64,
    /// Requests shed by the watermark so far.
    pub shed: u64,
    /// Requests expired by the deadline sweep so far.
    pub deadline_expired: u64,
    /// Requests served through the degraded fallback so far.
    pub degraded: u64,
    /// Requests served so far.
    pub served: u64,
    /// Requests answered with an error so far.
    pub errored: u64,
}

/// One server's counts and latencies, each stored only in its registry
/// instance handle: [`Server::health`] and [`Server::shutdown`] read the
/// handles, and the exposition sums every server's into
/// `serve_requests_total`, `serve_batches_total` and `serve_latency_ms`.
#[derive(Debug)]
struct Metrics {
    latency: Arc<Histogram>,
    served: Arc<Counter>,
    errored: Arc<Counter>,
    degraded: Arc<Counter>,
    batches: Arc<Counter>,
}

impl Default for Metrics {
    fn default() -> Self {
        let reg = venom_obs::registry();
        let requests =
            |outcome| reg.instance_counter("serve_requests_total", &[("outcome", outcome)]);
        Metrics {
            latency: reg.instance_histogram("serve_latency_ms", &[]),
            served: requests("served"),
            errored: requests("errored"),
            degraded: requests("degraded"),
            batches: reg.instance_counter("serve_batches_total", &[]),
        }
    }
}

impl Metrics {
    fn report(&self) -> ServeReport {
        let (served, batches) = (self.served.get(), self.batches.get());
        ServeReport {
            served,
            errored: self.errored.get(),
            degraded: self.degraded.get(),
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                served as f64 / batches as f64
            },
            p50_ms: self.latency.quantile(0.50),
            p99_ms: self.latency.quantile(0.99),
            // Exact: the histogram tracks its extrema outside the buckets.
            max_ms: self.latency.max(),
            // Queue- and supervision-side tallies are merged by the
            // caller, which owns those counters.
            shed: 0,
            deadline_expired: 0,
            worker_restarts: 0,
        }
    }
}

type PlanBuilder = Arc<dyn Fn() -> Result<Arc<dyn MatmulPlan>, String> + Send + Sync>;

/// How one plan key is served: the (possibly fallible) builder for the
/// planned path, plus an optional pre-built per-call baseline to degrade
/// to when planning fails.
#[derive(Clone)]
struct Registration {
    build: PlanBuilder,
    baseline: Option<Arc<dyn MatmulPlan>>,
}

/// Everything the workers share — kept behind one `Arc` so a dying
/// worker can spawn its own replacement.
struct WorkerShared {
    queue: Arc<RequestQueue>,
    cache: Arc<PlanCache>,
    registry: RwLock<HashMap<PlanKey, Registration>>,
    metrics: Metrics,
    config: ServeConfig,
    live: AtomicUsize,
    panics: AtomicU64,
    restarts: AtomicU64,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A multi-tenant serving loop: submissions enter a bounded queue, the
/// coalescer packs same-key requests, supervised worker threads resolve
/// plans through the shared [`PlanCache`] and dispatch one
/// [`MatmulPlan::run_batch`] per batch — falling back to per-call
/// dispatch when planning fails. See the module docs for the
/// architecture and failure semantics.
pub struct Server {
    shared: Arc<WorkerShared>,
}

impl Server {
    /// Starts `config.concurrency` workers against `cache`.
    pub fn start(config: ServeConfig, cache: Arc<PlanCache>) -> Self {
        let queue = Arc::new(
            RequestQueue::bounded(config.queue_capacity).with_shed_watermark(config.shed_watermark),
        );
        let shared = Arc::new(WorkerShared {
            queue,
            cache,
            registry: RwLock::new(HashMap::new()),
            metrics: Metrics::default(),
            config,
            live: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            handles: Mutex::new(Vec::new()),
        });
        for _ in 0..config.concurrency.max(1) {
            spawn_worker(&shared);
        }
        Server { shared }
    }

    /// The shared plan cache (for stats or warm-up).
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.shared.cache
    }

    /// Registers how to build `key`'s plan when the cache is cold. The
    /// builder runs at most once per cache residency (the cache's
    /// exactly-once contract).
    pub fn register(
        &self,
        key: PlanKey,
        build: impl Fn() -> Arc<dyn MatmulPlan> + Send + Sync + 'static,
    ) {
        self.insert_registration(key, Arc::new(move || Ok(build())), None);
    }

    /// [`Self::register`] plus background warm-up: the plan starts
    /// building on a spare thread immediately, so the first request
    /// finds a hot cache instead of paying the build.
    pub fn register_warm(
        &self,
        key: PlanKey,
        build: impl Fn() -> Arc<dyn MatmulPlan> + Send + Sync + 'static,
    ) -> JoinHandle<()> {
        let build = Arc::new(build);
        let registered = Arc::clone(&build);
        self.insert_registration(key, Arc::new(move || Ok(registered())), None);
        self.shared.cache.warm(key, move || build())
    }

    /// Registers a builder that may fail. Failed builds are retried on
    /// the server's [`RetryPolicy`]; once exhausted (or once the build
    /// timeout passes), the affected batch is answered with
    /// [`ServeError::BuildFailed`] / [`ServeError::BuildTimedOut`] —
    /// with no baseline registered there is nothing to degrade to.
    pub fn register_fallible(
        &self,
        key: PlanKey,
        build: impl Fn() -> Result<Arc<dyn MatmulPlan>, String> + Send + Sync + 'static,
    ) {
        self.insert_registration(key, Arc::new(build), None);
    }

    /// Registers a *fallible* builder for `key` together with a per-call
    /// baseline to degrade to: when the build fails (past the retry
    /// schedule) or outlasts the build timeout, workers serve the batch
    /// through `baseline.run_oneshot` — bit-identical to the planned
    /// path — instead of failing it.
    pub fn register_degradable(
        &self,
        key: PlanKey,
        build: impl Fn() -> Result<Arc<dyn MatmulPlan>, String> + Send + Sync + 'static,
        baseline: Arc<dyn MatmulPlan>,
    ) {
        self.insert_registration(key, Arc::new(build), Some(baseline));
    }

    fn insert_registration(
        &self,
        key: PlanKey,
        build: PlanBuilder,
        baseline: Option<Arc<dyn MatmulPlan>>,
    ) {
        write_recover(&self.shared.registry).insert(key, Registration { build, baseline });
    }

    /// Non-blocking submission (admission control): rejects immediately
    /// when the queue is at capacity.
    ///
    /// # Errors
    /// [`ServeError::QueueFull`] at capacity, [`ServeError::ShuttingDown`]
    /// after shutdown began.
    pub fn try_submit(
        &self,
        key: PlanKey,
        operand: Matrix<Half>,
    ) -> Result<ResponseHandle, ServeError> {
        let (req, handle) = ServeRequest::new(key, operand);
        let _span = venom_obs::span!("admission", req.id);
        self.shared
            .queue
            .try_submit(req)
            .map(|()| handle)
            .map_err(|(e, _)| e)
    }

    /// Blocking submission (backpressure): waits for queue space.
    ///
    /// # Errors
    /// [`ServeError::ShuttingDown`] if the server closes while waiting.
    pub fn submit(
        &self,
        key: PlanKey,
        operand: Matrix<Half>,
    ) -> Result<ResponseHandle, ServeError> {
        let (req, handle) = ServeRequest::new(key, operand);
        let _span = venom_obs::span!("admission", req.id);
        self.shared
            .queue
            .submit(req)
            .map(|()| handle)
            .map_err(|(e, _)| e)
    }

    /// [`Self::submit`] with a deadline: past `deadline` the request is
    /// answered with [`ServeError::DeadlineExceeded`] instead of
    /// dispatched.
    ///
    /// # Errors
    /// As [`Self::submit`].
    pub fn submit_with_deadline(
        &self,
        key: PlanKey,
        operand: Matrix<Half>,
        deadline: std::time::Instant,
    ) -> Result<ResponseHandle, ServeError> {
        let (req, handle) = ServeRequest::new(key, operand);
        let _span = venom_obs::span!("admission", req.id);
        self.shared
            .queue
            .submit(req.with_deadline_at(deadline))
            .map(|()| handle)
            .map_err(|(e, _)| e)
    }

    /// Non-blocking submission with client-side retry: a
    /// [`ServeError::QueueFull`] rejection is retried up to
    /// `policy.max_retries` times, sleeping the policy's jittered
    /// backoff (seeded per request, so the schedule is deterministic)
    /// between attempts.
    ///
    /// # Errors
    /// [`ServeError::QueueFull`] once retries are exhausted;
    /// [`ServeError::ShuttingDown`] immediately (never retried).
    pub fn submit_retry(
        &self,
        key: PlanKey,
        operand: Matrix<Half>,
        policy: RetryPolicy,
    ) -> Result<ResponseHandle, ServeError> {
        let (mut req, handle) = ServeRequest::new(key, operand);
        let _span = venom_obs::span!("admission", req.id);
        let mut attempt = 0u32;
        loop {
            match self.shared.queue.try_submit(req) {
                Ok(()) => return Ok(handle),
                Err((e @ ServeError::QueueFull { .. }, rejected)) => {
                    if attempt >= policy.max_retries {
                        return Err(e);
                    }
                    std::thread::sleep(policy.backoff(rejected.seed, attempt));
                    attempt += 1;
                    req = rejected;
                }
                Err((e, _)) => return Err(e),
            }
        }
    }

    /// Requests currently queued.
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// A liveness snapshot: worker, queue and fault counters as of now.
    pub fn health(&self) -> HealthReport {
        let m = &self.shared.metrics;
        HealthReport {
            live_workers: self.shared.live.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.len(),
            worker_panics: self.shared.panics.load(Ordering::Relaxed),
            worker_restarts: self.shared.restarts.load(Ordering::Relaxed),
            shed: self.shared.queue.shed_count(),
            deadline_expired: self.shared.queue.expired_count(),
            degraded: m.degraded.get(),
            served: m.served.get(),
            errored: m.errored.get(),
        }
    }

    /// Stops admissions, drains the queue, joins the workers, answers
    /// any request no worker took with [`ServeError::ShuttingDown`]
    /// (nothing submitted is ever left hanging — even if every worker
    /// died), and returns the session's metrics.
    pub fn shutdown(self) -> ServeReport {
        shutdown_shared(&self.shared);
        let mut report = self.shared.metrics.report();
        report.shed = self.shared.queue.shed_count();
        report.deadline_expired = self.shared.queue.expired_count();
        report.worker_restarts = self.shared.restarts.load(Ordering::Relaxed);
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        shutdown_shared(&self.shared);
    }
}

/// Closes the queue, joins every worker (including respawns: a dying
/// worker pushes its replacement's handle before exiting, so join-until-
/// empty observes it), then answers anything left in the queue.
fn shutdown_shared(shared: &Arc<WorkerShared>) {
    shared.queue.close();
    loop {
        let handle = lock_recover(&shared.handles).pop();
        match handle {
            Some(h) => {
                let _ = h.join();
            }
            None => break,
        }
    }
    // With all workers gone, whatever is still queued will never be
    // taken: flush it so no client hangs on a stranded handle.
    let stranded = shared.queue.drain_remaining();
    if !stranded.is_empty() {
        let mut flushed = 0u64;
        for req in &stranded {
            if req.fulfill(Err(ServeError::ShuttingDown)) {
                flushed += 1;
            }
        }
        shared.metrics.errored.add(flushed);
    }
}

/// Spawns one worker and records its handle for shutdown. The worker
/// counts as live from here, not from when its thread is first
/// scheduled, so `health()` never misses a spawned replacement.
fn spawn_worker(shared: &Arc<WorkerShared>) {
    shared.live.fetch_add(1, Ordering::Relaxed);
    let worker_shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || worker_main(&worker_shared));
    lock_recover(&shared.handles).push(handle);
}

/// One worker thread: drain coalesced batches until the queue closes,
/// containing batch panics and self-respawning within the restart
/// budget.
fn worker_main(shared: &Arc<WorkerShared>) {
    while let Some(batch) = shared.queue.pop_coalesced(shared.config.max_batch.max(1)) {
        let outcome = catch_unwind(AssertUnwindSafe(|| process_batch(shared, &batch)));
        if outcome.is_err() {
            // The batch died mid-dispatch. Respawn if the budget allows,
            // hand this thread back, then answer exactly its requests
            // (first-write-wins skips any already delivered). The
            // replacement and this worker's exit are both counted
            // *before* the requests are answered, so a client that
            // observes the error sees consistent health.
            shared.panics.fetch_add(1, Ordering::Relaxed);
            let within_budget = shared
                .restarts
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                    (r < u64::from(shared.config.restart_budget)).then(|| r + 1)
                })
                .is_ok();
            if within_budget {
                spawn_worker(shared);
            }
            shared.live.fetch_sub(1, Ordering::Relaxed);
            let mut newly_errored = 0u64;
            for req in &batch {
                if req.fulfill(Err(ServeError::WorkerPanicked)) {
                    newly_errored += 1;
                }
            }
            shared.metrics.errored.add(newly_errored);
            return;
        }
    }
    shared.live.fetch_sub(1, Ordering::Relaxed);
}

/// How a batch's plan got resolved.
enum Resolution {
    /// The planned path is available.
    Planned(Arc<dyn MatmulPlan>),
    /// Planning failed; serve per-call through the baseline.
    Degraded(Arc<dyn MatmulPlan>),
    /// Planning failed and there is nothing to degrade to.
    Failed(ServeError),
}

/// Resolves the plan for `key`: cache hit, or build with retry/backoff
/// on failure and a bounded wait on stalls, degrading to the registered
/// baseline when the planned path cannot be had.
fn resolve_plan(shared: &Arc<WorkerShared>, key: PlanKey, seed: u64) -> Resolution {
    let registration = read_recover(&shared.registry).get(&key).cloned();
    let Some(registration) = registration else {
        // No registered builder: serve from the cache if someone planted
        // the plan there directly, else fail the batch.
        return match shared.cache.get(&key) {
            Some(plan) => Resolution::Planned(plan),
            None => Resolution::Failed(ServeError::UnknownKey),
        };
    };
    let mut attempt = 0u32;
    let failure = loop {
        let build = Arc::clone(&registration.build);
        match shared
            .cache
            .get_or_plan_deadline(key, move || build(), shared.config.build_timeout)
        {
            Ok(plan) => return Resolution::Planned(plan),
            // A stalled build is already still running in the
            // background — retrying would just queue more waits.
            Err(PlanBuildError::TimedOut { .. }) => break ServeError::BuildTimedOut,
            Err(PlanBuildError::Failed(reason)) => {
                if attempt >= shared.config.retry.max_retries {
                    break ServeError::BuildFailed { reason };
                }
                std::thread::sleep(shared.config.retry.backoff(seed, attempt));
                attempt += 1;
            }
        }
    };
    match registration.baseline {
        Some(baseline) => Resolution::Degraded(baseline),
        None => Resolution::Failed(failure),
    }
}

/// Serves one coalesced batch end to end.
fn process_batch(shared: &Arc<WorkerShared>, batch: &[ServeRequest]) {
    let key = batch[0].key;
    // Spans are tagged with the batch leader's request id — enough to
    // line the whole pipeline up under one request in a trace viewer.
    let resolution = {
        let _span = venom_obs::span!("plan_resolve", batch[0].id);
        resolve_plan(shared, key, batch[0].seed)
    };
    let (plan, degraded) = match resolution {
        Resolution::Planned(plan) => (plan, false),
        Resolution::Degraded(baseline) => (baseline, true),
        Resolution::Failed(err) => {
            shared.metrics.errored.add(batch.len() as u64);
            for req in batch {
                req.fulfill(Err(err.clone()));
            }
            return;
        }
    };
    let expected_k = plan.descriptor().in_features;
    let (good, bad): (Vec<_>, Vec<_>) = batch
        .iter()
        .partition(|req| req.operand.rows() == expected_k);
    // On every path in this function requests are counted before they
    // are answered, so a client holding its response already sees it in
    // `health()`. The panic path in `worker_main` and the shutdown flush
    // count only the answers their first-write-wins `fulfill` delivered,
    // so they book their count after they answer.
    let m = &shared.metrics;
    m.errored.add(bad.len() as u64);
    for req in &bad {
        req.fulfill(Err(ServeError::OperandShape {
            expected_k,
            got: req.operand.rows(),
        }));
    }
    let outputs: Vec<Matrix<f32>> = if good.is_empty() {
        Vec::new()
    } else if degraded {
        // Degraded dispatch: per-request, through the per-call path —
        // bit-identical to the planned path, minus the batching win.
        let _span = venom_obs::span!("degraded_dispatch", good[0].id);
        good.iter()
            .map(|req| plan.run_oneshot(&req.operand))
            .collect()
    } else {
        let _span = venom_obs::span!("batch_dispatch", good[0].id);
        let operands: Vec<&Matrix<Half>> = good.iter().map(|req| &req.operand).collect();
        plan.run_batch(&operands)
    };
    let served = outputs.len() as u64;
    m.served.add(served);
    if degraded {
        m.degraded.add(served);
    }
    if served > 0 {
        m.batches.inc();
    }
    for (req, out) in good.iter().zip(outputs) {
        m.latency
            .record(req.submitted.elapsed().as_secs_f64() * 1e3);
        req.fulfill(Ok(out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The histogram-backed report must stay within the histogram's
    /// guaranteed relative error of the exact sorted-`Vec` percentiles
    /// it replaced (same nearest-rank convention), and the max must be
    /// exact — the report's numbers are a drop-in for the old math.
    #[test]
    fn report_percentiles_track_exact_within_bounded_drift() {
        let m = Metrics::default();
        let mut exact: Vec<f64> = Vec::new();
        let mut state = 0x5eed_f00du64;
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            // Log-uniform over 0.05..20 ms — the shape real serve
            // latencies take (a long right tail).
            let ms = 0.05 * 400f64.powf(unit);
            exact.push(ms);
            m.latency.record(ms);
            m.served.inc();
        }
        exact.sort_by(f64::total_cmp);
        let pct = |q: f64| exact[(q * (exact.len() - 1) as f64).round() as usize];
        let report = m.report();
        let tol = venom_obs::Histogram::relative_error() * 1.0000001;
        for (got, want, name) in [
            (report.p50_ms, pct(0.50), "p50"),
            (report.p99_ms, pct(0.99), "p99"),
        ] {
            assert!(
                (got - want).abs() <= want * tol,
                "{name}: histogram {got} vs exact {want} drifts past {tol}"
            );
        }
        assert_eq!(report.max_ms, *exact.last().expect("non-empty"));
    }
}
