//! The serving plan cache: descriptor-keyed, build-once, LRU under
//! a byte budget, with bounded-wait builds so one stuck builder cannot
//! wedge a key.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::sync::{lock_recover, wait_recover, wait_timeout_recover};
use crate::descriptor::MatmulDescriptor;
use crate::matmul::MatmulPlan;
use venom_fp16::Half;
use venom_obs::Counter;
use venom_tensor::Matrix;

/// The cache key: the planned matmul's descriptor plus a fingerprint of
/// the weight bits (and an optional caller salt).
///
/// The descriptor alone names the *problem* (shape, dtype, column
/// bound) — exactly what concurrent requests must share to be
/// coalesced into one dispatch. The fingerprint disambiguates the
/// *instance*: two models with the same layer shape must not serve each
/// other's weights. [`PlanKey::bare`] keys on the descriptor alone for
/// single-tenant serving; [`PlanKey::for_weight`] folds in an FNV-1a
/// hash of the weight's half bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The matmul being served.
    pub desc: MatmulDescriptor,
    /// FNV-1a over the weight's f16 bit patterns (0 for [`Self::bare`]).
    pub fingerprint: u64,
}

impl PlanKey {
    /// Keys on the descriptor alone — for serving setups where one
    /// descriptor maps to one registered weight.
    pub fn bare(desc: MatmulDescriptor) -> Self {
        PlanKey {
            desc,
            fingerprint: 0,
        }
    }

    /// Keys on the descriptor plus a fingerprint of the weight bits, so
    /// same-shape weights occupy distinct cache lines.
    pub fn for_weight(desc: MatmulDescriptor, w: &Matrix<Half>) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(w.rows() as u64);
        mix(w.cols() as u64);
        for v in w.as_slice() {
            mix(v.to_bits() as u64);
        }
        PlanKey {
            desc,
            fingerprint: h,
        }
    }

    /// Folds caller context (e.g. a planning-strategy discriminant) into
    /// the fingerprint, so the same weight planned two different ways
    /// occupies two cache lines.
    #[must_use]
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.fingerprint = (self.fingerprint ^ salt).wrapping_mul(0x0000_0100_0000_01b3);
        self
    }
}

/// Why a bounded-wait build ([`PlanCache::get_or_plan_deadline`]) did
/// not produce a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanBuildError {
    /// The builder returned an error (or panicked — a panicking builder
    /// is contained and reported as a failure, not propagated).
    Failed(String),
    /// The build did not finish within the caller's timeout. The build
    /// keeps running on its background thread; if it eventually
    /// succeeds, the plan becomes resident for later requests.
    TimedOut {
        /// How long the caller waited.
        waited: Duration,
    },
}

impl core::fmt::Display for PlanBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlanBuildError::Failed(reason) => write!(f, "plan build failed: {reason}"),
            PlanBuildError::TimedOut { waited } => {
                write!(f, "plan build still running after {waited:?}")
            }
        }
    }
}

impl std::error::Error for PlanBuildError {}

/// A point-in-time snapshot of the cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a built plan (including waiters that arrived
    /// while another thread was building the same key — they reuse the
    /// build, they do not trigger one).
    pub hits: u64,
    /// Lookups that found no entry for the key.
    pub misses: u64,
    /// Plans removed by the byte-budget LRU sweep.
    pub evictions: u64,
    /// Plan builds actually executed (the exactly-once contract: one per
    /// resident key however many threads raced it).
    pub builds: u64,
    /// Plan builds that failed (builder error or contained panic).
    pub failed_builds: u64,
    /// Bounded waits that gave up before their build finished.
    pub build_timeouts: u64,
    /// Plans currently resident.
    pub resident_plans: usize,
    /// Approximate bytes currently resident (see
    /// [`MatmulPlan::approx_bytes`]).
    pub resident_bytes: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One key's build state. Builds are exactly-once *without* serialising
/// the whole cache: the first thread for a key flips `building` and runs
/// (or spawns) the build outside every lock, so concurrent requests for
/// the same key wait on this slot's condvar while other keys proceed
/// through the map untouched. Critically, the slot mutex is only held
/// for state flips — never across a build — so a stuck build cannot
/// wedge the slot: bounded waiters time out and fall back.
#[derive(Debug, Default)]
struct SlotState {
    plan: Option<Arc<dyn MatmulPlan>>,
    /// Whether some thread is currently running this key's build.
    building: bool,
    /// The most recent build failure, for waiters that never ran the
    /// builder themselves.
    last_error: Option<String>,
}

#[derive(Debug, Default)]
struct Slot {
    state: Mutex<SlotState>,
    ready: std::sync::Condvar,
}

#[derive(Debug)]
struct Entry {
    slot: Arc<Slot>,
    /// LRU clock value of the last lookup.
    last_used: u64,
    /// [`MatmulPlan::approx_bytes`] once built, 0 while building.
    bytes: usize,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<PlanKey, Entry>,
    /// Monotonic lookup clock driving the LRU order.
    tick: u64,
}

/// A thread-safe, build-once plan cache with LRU eviction under a byte
/// budget.
///
/// See the module docs for the role it plays in serving. A server takes
/// its cache as an `Arc`, so servers handed the same cache share its hot
/// plans.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    budget: usize,
    // This cache's registry instance handles, the one store of each
    // count: [`Self::stats`] reads them, and the exposition sums them
    // with every other cache's into `cache_*_total{cache="plan"}`.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    builds: Arc<Counter>,
    // No registry series: plain per-cache tallies.
    failed_builds: AtomicU64,
    build_timeouts: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_budget(Self::DEFAULT_BYTE_BUDGET)
    }
}

impl PlanCache {
    /// Default byte budget of [`PlanCache::new`]:
    /// roomy enough for every layer plan of a BERT-large-scale stack.
    pub const DEFAULT_BYTE_BUDGET: usize = 512 << 20;

    /// A cache with the default byte budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache evicting least-recently-used plans once the resident
    /// approximate bytes exceed `budget` (in-use plans are never
    /// evicted, so the budget can be transiently exceeded).
    pub fn with_budget(budget: usize) -> Self {
        let reg = venom_obs::registry();
        let labels = [("cache", "plan")];
        PlanCache {
            inner: Mutex::new(Inner::default()),
            budget,
            hits: reg.instance_counter("cache_hits_total", &labels),
            misses: reg.instance_counter("cache_misses_total", &labels),
            evictions: reg.instance_counter("cache_evictions_total", &labels),
            builds: reg.instance_counter("cache_builds_total", &labels),
            failed_builds: AtomicU64::new(0),
            build_timeouts: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Looks up a built plan without building; counts a hit or miss.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<dyn MatmulPlan>> {
        let slot = {
            let mut inner = lock_recover(&self.inner);
            inner.tick += 1;
            let tick = inner.tick;
            match inner.entries.get_mut(key) {
                Some(e) => {
                    e.last_used = tick;
                    Arc::clone(&e.slot)
                }
                None => {
                    self.misses.inc();
                    return None;
                }
            }
        };
        let plan = lock_recover(&slot.state).plan.clone();
        match plan {
            Some(p) => {
                self.hits.inc();
                Some(p)
            }
            None => {
                // Entry exists but a racing build has not finished (or
                // failed and is being torn down) — a miss to this caller.
                self.misses.inc();
                None
            }
        }
    }

    /// Fetches (inserting if absent) the slot for `key`, counting a hit
    /// or miss at the map level.
    fn slot_for(&self, key: PlanKey) -> Arc<Slot> {
        let mut inner = lock_recover(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                self.hits.inc();
                Arc::clone(&e.slot)
            }
            None => {
                self.misses.inc();
                let slot = Arc::new(Slot::default());
                inner.entries.insert(
                    key,
                    Entry {
                        slot: Arc::clone(&slot),
                        last_used: tick,
                        bytes: 0,
                    },
                );
                slot
            }
        }
    }

    /// Publishes a finished build on `slot` and wakes every waiter.
    fn finish_build(
        &self,
        key: &PlanKey,
        slot: &Arc<Slot>,
        result: Result<Arc<dyn MatmulPlan>, String>,
    ) {
        let built = {
            let mut state = lock_recover(&slot.state);
            state.building = false;
            match result {
                Ok(plan) => {
                    self.builds.inc();
                    state.plan = Some(Arc::clone(&plan));
                    state.last_error = None;
                    Some(plan.approx_bytes())
                }
                Err(reason) => {
                    self.failed_builds.fetch_add(1, Ordering::Relaxed);
                    state.last_error = Some(reason);
                    None
                }
            }
        };
        slot.ready.notify_all();
        match built {
            Some(bytes) => self.note_built(key, bytes),
            None => self.remove_if_unbuilt(key, slot),
        }
    }

    /// Returns the cached plan for `key`, building it with `build` on
    /// first use. However many threads race the same cold key, exactly
    /// one executes `build`; the rest block on that key's slot (builds
    /// for *other* keys proceed concurrently) and reuse the result.
    pub fn get_or_plan(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Arc<dyn MatmulPlan>,
    ) -> Arc<dyn MatmulPlan> {
        self.try_get_or_plan(key, || Ok::<_, core::convert::Infallible>(build()))
            .unwrap_or_else(|never| match never {})
    }

    /// [`Self::get_or_plan`] with a fallible builder. A failed build
    /// removes the key's (empty) entry so a later request can retry; the
    /// error is returned to the caller that ran the build, while racing
    /// waiters fall back to running their own builder.
    ///
    /// # Errors
    /// Propagates the builder's error.
    pub fn try_get_or_plan<E>(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<Arc<dyn MatmulPlan>, E>,
    ) -> Result<Arc<dyn MatmulPlan>, E> {
        let slot = self.slot_for(key);
        {
            let mut state = lock_recover(&slot.state);
            loop {
                if let Some(plan) = state.plan.as_ref() {
                    return Ok(Arc::clone(plan));
                }
                if !state.building {
                    state.building = true;
                    break;
                }
                state = wait_recover(&slot.ready, state);
            }
        }
        // Build election won: run the builder with no lock held.
        let started = Instant::now();
        match build() {
            Ok(plan) => {
                // Spans cover successful builds only, so the trace's
                // `plan_build` count matches the registry `builds` counter.
                venom_obs::trace::record_complete("plan_build", "cache", started, None);
                self.finish_build(&key, &slot, Ok(Arc::clone(&plan)));
                Ok(plan)
            }
            Err(e) => {
                // The error type is the caller's; record a generic reason
                // for waiters and hand the typed error back.
                self.finish_build(&key, &slot, Err("builder returned an error".to_string()));
                Err(e)
            }
        }
    }

    /// Bounded-wait variant for serving: returns the cached plan, or
    /// runs `build` on a background thread and waits at most `timeout`
    /// for it. A timeout abandons the *wait*, never the build — the
    /// builder keeps running and installs the plan for later requests —
    /// so one stalled build cannot wedge its key's slot, and a
    /// panicking builder is contained into [`PlanBuildError::Failed`].
    ///
    /// # Errors
    /// [`PlanBuildError::Failed`] when the build (run by this call or a
    /// racing one) failed; [`PlanBuildError::TimedOut`] when `timeout`
    /// elapsed with the build still running.
    pub fn get_or_plan_deadline(
        self: &Arc<Self>,
        key: PlanKey,
        build: impl FnOnce() -> Result<Arc<dyn MatmulPlan>, String> + Send + 'static,
        timeout: Duration,
    ) -> Result<Arc<dyn MatmulPlan>, PlanBuildError> {
        let slot = self.slot_for(key);
        let started = Instant::now();
        let deadline = started + timeout;
        let mut build = Some(build);
        let mut state = lock_recover(&slot.state);
        loop {
            if let Some(plan) = state.plan.as_ref() {
                return Ok(Arc::clone(plan));
            }
            if !state.building {
                match build.take() {
                    Some(build) => {
                        state.building = true;
                        drop(state);
                        self.spawn_build(key, &slot, build);
                        state = lock_recover(&slot.state);
                        continue;
                    }
                    None => {
                        // Our build ran and failed (possibly raced by
                        // another failing builder); report why.
                        let reason = state
                            .last_error
                            .clone()
                            .unwrap_or_else(|| "plan build failed".to_string());
                        return Err(PlanBuildError::Failed(reason));
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                self.build_timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(PlanBuildError::TimedOut {
                    waited: started.elapsed(),
                });
            }
            (state, _) = wait_timeout_recover(&slot.ready, state, deadline - now);
        }
    }

    /// Runs `build` on a detached thread that publishes into `slot`
    /// when done. The builder is wrapped in `catch_unwind`: an injected
    /// (or genuine) panic becomes a failed build, not a poisoned slot.
    fn spawn_build(
        self: &Arc<Self>,
        key: PlanKey,
        slot: &Arc<Slot>,
        build: impl FnOnce() -> Result<Arc<dyn MatmulPlan>, String> + Send + 'static,
    ) {
        let slot = Arc::clone(slot);
        let cache = Arc::clone(self);
        std::thread::spawn(move || {
            let started = Instant::now();
            let result = match catch_unwind(AssertUnwindSafe(build)) {
                Ok(r) => r,
                Err(panic) => Err(panic_reason(&panic)),
            };
            if result.is_ok() {
                venom_obs::trace::record_complete("plan_build", "cache", started, None);
            }
            cache.finish_build(&key, &slot, result);
        });
    }

    /// Builds `key` on a background thread (if not already resident) —
    /// warm-up for descriptors that are known to be requested soon.
    pub fn warm(
        self: &Arc<Self>,
        key: PlanKey,
        build: impl FnOnce() -> Arc<dyn MatmulPlan> + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        let cache = Arc::clone(self);
        std::thread::spawn(move || {
            let _ = cache.get_or_plan(key, build);
        })
    }

    /// Counter and residency snapshot.
    pub fn stats(&self) -> CacheStats {
        let (resident_plans, resident_bytes) = {
            let inner = lock_recover(&self.inner);
            let built = inner.entries.values().filter(|e| e.bytes > 0);
            (built.clone().count(), built.map(|e| e.bytes).sum())
        };
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            builds: self.builds.get(),
            failed_builds: self.failed_builds.load(Ordering::Relaxed),
            build_timeouts: self.build_timeouts.load(Ordering::Relaxed),
            resident_plans,
            resident_bytes,
        }
    }

    /// Resident entry count (including slots still building).
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a finished build's size and runs the LRU sweep.
    fn note_built(&self, key: &PlanKey, bytes: usize) {
        let mut inner = lock_recover(&self.inner);
        if let Some(e) = inner.entries.get_mut(key) {
            e.bytes = bytes;
        }
        self.evict_over_budget(&mut inner);
    }

    /// Drops a failed build's empty entry — unless a concurrent retry
    /// already replaced the slot (checked by identity, not emptiness).
    fn remove_if_unbuilt(&self, key: &PlanKey, slot: &Arc<Slot>) {
        let mut inner = lock_recover(&self.inner);
        if let Some(e) = inner.entries.get(key) {
            let same_slot = Arc::ptr_eq(&e.slot, slot);
            let unbuilt = e
                .slot
                .state
                .try_lock()
                .map(|s| s.plan.is_none() && !s.building)
                .unwrap_or(false);
            if same_slot && unbuilt {
                inner.entries.remove(key);
            }
        }
    }

    /// Evicts least-recently-used *idle* plans until the resident bytes
    /// fit the budget. A plan is idle when no caller holds its `Arc` and
    /// no thread is mid-lookup on its slot — an in-flight plan is never
    /// dropped, so the budget is a soft ceiling under load.
    fn evict_over_budget(&self, inner: &mut Inner) {
        loop {
            let total: usize = inner.entries.values().map(|e| e.bytes).sum();
            if total <= self.budget {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| e.bytes > 0 && Self::is_idle(e))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    inner.entries.remove(&k);
                    self.evictions.inc();
                }
                // Everything over budget is in use: keep it resident.
                None => return,
            }
        }
    }

    /// Whether no thread can observe this entry's plan except through a
    /// fresh map lookup: the cache holds the only slot reference, the
    /// slot is not locked or mid-build, and the cache holds the only
    /// plan reference.
    fn is_idle(e: &Entry) -> bool {
        if Arc::strong_count(&e.slot) != 1 {
            return false;
        }
        match e.slot.state.try_lock() {
            Ok(state) => {
                !state.building
                    && state
                        .plan
                        .as_ref()
                        .is_none_or(|plan| Arc::strong_count(plan) == 1)
            }
            Err(_) => false,
        }
    }
}

/// Extracts a printable reason from a caught panic payload.
pub(crate) fn panic_reason(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("builder panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("builder panicked: {s}")
    } else {
        "builder panicked".to_string()
    }
}
