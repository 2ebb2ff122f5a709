//! Deterministic fault injection for the serving stack.
//!
//! Fault-tolerance claims are only as good as the faults they were tested
//! against, so the harness is part of the runtime: [`FaultConfig`]
//! describes a seeded, reproducible failure schedule (build failures,
//! build stalls, run panics, slow runs) and [`FaultPlan`] is a
//! [`MatmulPlan`] wrapper that trips those failures on the *planned*
//! dispatch path while leaving the per-call fallback untouched — exactly
//! the asymmetry graceful degradation exploits. Every roll derives from
//! `splitmix64(seed ^ site ^ event-ordinal)`, so a failing schedule
//! replays bit-for-bit across runs and threads regardless of
//! interleaving.

use std::panic::panic_any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::retry::splitmix64;
use crate::descriptor::MatmulDescriptor;
use crate::matmul::MatmulPlan;
use venom_format::MatmulFormat;
use venom_fp16::Half;
use venom_obs::Counter;
use venom_sim::KernelTiming;
use venom_tensor::Matrix;

/// Marker payload for injected worker panics, so supervision tests can
/// tell an injected panic from a genuine bug.
#[derive(Debug)]
pub struct InjectedPanic {
    /// The event ordinal whose roll tripped the panic.
    pub event: u64,
}

/// A seeded, deterministic failure schedule for the serving stack.
///
/// Each probability is evaluated per *event* (one build attempt, one
/// batch dispatch) with a hash of `(seed, site, event ordinal)` — no
/// global RNG, no time dependence — so `--inject seed=7,run-panic=0.3`
/// reproduces the same failures in the same order on every run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Root seed every roll derives from.
    pub seed: u64,
    /// Probability a plan build returns an error.
    pub build_fail: f64,
    /// Probability a plan build stalls for [`Self::stall_ms`] before
    /// completing (exercises the build timeout).
    pub build_stall: f64,
    /// How long a stalled build sleeps.
    pub stall_ms: u64,
    /// Probability a planned batch dispatch panics mid-run (exercises
    /// worker supervision).
    pub run_panic: f64,
    /// Probability a planned batch dispatch sleeps [`Self::slow_ms`]
    /// first (exercises client-side deadlines).
    pub run_slow: f64,
    /// How long a slow run sleeps.
    pub slow_ms: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            build_fail: 0.0,
            build_stall: 0.0,
            stall_ms: 50,
            run_panic: 0.0,
            run_slow: 0.0,
            slow_ms: 20,
        }
    }
}

/// Distinct roll domains so the same event ordinal draws independent
/// outcomes per fault type.
mod site {
    pub(super) const BUILD_FAIL: u64 = 0x1;
    pub(super) const BUILD_STALL: u64 = 0x2;
    pub(super) const RUN_PANIC: u64 = 0x3;
    pub(super) const RUN_SLOW: u64 = 0x4;
}

/// Per-site tally of faults that actually *tripped* (as opposed to the
/// probabilities that were merely armed). [`FaultConfig`] is `Copy` and
/// cannot own shared state, so the tally lives in an `Arc` threaded
/// through [`FaultConfig::wrap_builder_counted`] /
/// [`FaultPlan::wrap_counted`]. Each site is one registry instance
/// handle, the trip count's only store: the getters read it, and the
/// exposition sums every tally into `fault_trips_total{fault="..."}`.
#[derive(Debug)]
pub struct FaultTrips {
    build_fail: Arc<Counter>,
    build_stall: Arc<Counter>,
    run_panic: Arc<Counter>,
    run_slow: Arc<Counter>,
}

impl Default for FaultTrips {
    fn default() -> Self {
        let site = |fault| {
            venom_obs::registry().instance_counter("fault_trips_total", &[("fault", fault)])
        };
        FaultTrips {
            build_fail: site("build_fail"),
            build_stall: site("build_stall"),
            run_panic: site("run_panic"),
            run_slow: site("run_slow"),
        }
    }
}

impl FaultTrips {
    /// A zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Injected build failures tripped so far.
    pub fn build_fail(&self) -> u64 {
        self.build_fail.get()
    }

    /// Injected build stalls tripped so far.
    pub fn build_stall(&self) -> u64 {
        self.build_stall.get()
    }

    /// Injected dispatch panics tripped so far.
    pub fn run_panic(&self) -> u64 {
        self.run_panic.get()
    }

    /// Injected slow dispatches tripped so far.
    pub fn run_slow(&self) -> u64 {
        self.run_slow.get()
    }

    /// All trips across the four sites.
    pub fn total(&self) -> u64 {
        self.build_fail() + self.build_stall() + self.run_panic() + self.run_slow()
    }
}

impl FaultConfig {
    /// A schedule with the given root seed and no faults enabled.
    pub fn with_seed(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..Self::default()
        }
    }

    /// Parses the `--inject` flag syntax: comma-separated `key=value`
    /// pairs from `seed`, `build-fail`, `build-stall`, `stall-ms`,
    /// `run-panic`, `run-slow`, `slow-ms`. Probabilities must be in
    /// `[0, 1]`. Example: `seed=7,build-fail=0.4,run-panic=0.25`.
    ///
    /// # Errors
    /// Describes the offending pair on unknown keys, bad numbers, or
    /// out-of-range probabilities.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = Self::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("`{pair}`: expected key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("`{key}={v}`: not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("`{key}={v}`: probability must be in [0, 1]"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("`{key}={v}`: not an integer"))
            };
            match key {
                "seed" => cfg.seed = int(value)?,
                "build-fail" => cfg.build_fail = prob(value)?,
                "build-stall" => cfg.build_stall = prob(value)?,
                "stall-ms" => cfg.stall_ms = int(value)?,
                "run-panic" => cfg.run_panic = prob(value)?,
                "run-slow" => cfg.run_slow = prob(value)?,
                "slow-ms" => cfg.slow_ms = int(value)?,
                other => {
                    return Err(format!(
                        "`{other}`: unknown fault key (expected seed, build-fail, \
                         build-stall, stall-ms, run-panic, run-slow, slow-ms)"
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// Whether any fault has nonzero probability.
    pub fn any_enabled(&self) -> bool {
        self.build_fail > 0.0
            || self.build_stall > 0.0
            || self.run_panic > 0.0
            || self.run_slow > 0.0
    }

    /// One deterministic Bernoulli roll: event `n` at roll domain `site`
    /// trips with probability `p`.
    fn roll(&self, site: u64, n: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let bits = splitmix64(self.seed ^ site.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ n);
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// Wraps an infallible plan builder into a fallible one that follows
    /// this schedule: per attempt, maybe stall, maybe fail; successful
    /// builds come back wrapped in a [`FaultPlan`] so run-side faults
    /// apply too. Attempts are numbered by a counter owned by the
    /// returned closure, so retries advance the schedule.
    ///
    /// A schedule with no fault armed ([`Self::any_enabled`] false)
    /// returns the built plan *unwrapped*: the clean serving path pays
    /// neither the wrapper indirection nor the per-dispatch fault draws.
    pub fn wrap_builder(
        &self,
        build: impl Fn() -> Arc<dyn MatmulPlan> + Send + Sync + 'static,
    ) -> impl Fn() -> Result<Arc<dyn MatmulPlan>, String> + Send + Sync + 'static {
        self.wrap_builder_counted(build, Arc::new(FaultTrips::default()))
    }

    /// [`Self::wrap_builder`] with a caller-owned [`FaultTrips`] tally:
    /// every fault that actually trips (build or run side — the tally is
    /// shared with the [`FaultPlan`]s this builder produces) is counted,
    /// so an injection report can say what the schedule *did*, not just
    /// what it armed.
    pub fn wrap_builder_counted(
        &self,
        build: impl Fn() -> Arc<dyn MatmulPlan> + Send + Sync + 'static,
        trips: Arc<FaultTrips>,
    ) -> impl Fn() -> Result<Arc<dyn MatmulPlan>, String> + Send + Sync + 'static {
        let cfg = *self;
        let attempts = AtomicU64::new(0);
        move || {
            if !cfg.any_enabled() {
                return Ok(build());
            }
            let n = attempts.fetch_add(1, Ordering::Relaxed);
            if cfg.roll(site::BUILD_STALL, n, cfg.build_stall) {
                trips.build_stall.inc();
                std::thread::sleep(Duration::from_millis(cfg.stall_ms));
            }
            if cfg.roll(site::BUILD_FAIL, n, cfg.build_fail) {
                trips.build_fail.inc();
                return Err(format!("injected build failure (attempt {n})"));
            }
            Ok(FaultPlan::wrap_counted(build(), cfg, Arc::clone(&trips)))
        }
    }
}

/// A [`MatmulPlan`] wrapper that injects the run-side faults of a
/// [`FaultConfig`]. Only the *planned* dispatch entry points
/// ([`MatmulPlan::run`] / [`MatmulPlan::run_batch`]) trip faults; the
/// per-call paths (`run_oneshot`, `run_linear_percall`) pass straight
/// through, because they are the degraded fallback whose correctness the
/// harness is checking against.
#[derive(Debug)]
pub struct FaultPlan {
    inner: Arc<dyn MatmulPlan>,
    cfg: FaultConfig,
    /// Dispatch ordinal driving the deterministic schedule.
    events: AtomicU64,
    /// Shared trip tally (run-side trips are booked here).
    trips: Arc<FaultTrips>,
}

impl FaultPlan {
    /// Wraps `inner` with the run-side faults of `cfg`.
    pub fn wrap(inner: Arc<dyn MatmulPlan>, cfg: FaultConfig) -> Arc<dyn MatmulPlan> {
        Self::wrap_counted(inner, cfg, Arc::new(FaultTrips::default()))
    }

    /// [`Self::wrap`] booking trips into a caller-owned tally.
    pub fn wrap_counted(
        inner: Arc<dyn MatmulPlan>,
        cfg: FaultConfig,
        trips: Arc<FaultTrips>,
    ) -> Arc<dyn MatmulPlan> {
        Arc::new(FaultPlan {
            inner,
            cfg,
            events: AtomicU64::new(0),
            trips,
        })
    }

    /// Injected-fault dispatch count so far (for assertions in tests).
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// One planned dispatch: advance the ordinal, maybe sleep, maybe
    /// panic (with an [`InjectedPanic`] payload supervision can spot).
    fn before_dispatch(&self) {
        let n = self.events.fetch_add(1, Ordering::Relaxed);
        if self.cfg.roll(site::RUN_SLOW, n, self.cfg.run_slow) {
            self.trips.run_slow.inc();
            std::thread::sleep(Duration::from_millis(self.cfg.slow_ms));
        }
        if self.cfg.roll(site::RUN_PANIC, n, self.cfg.run_panic) {
            // Booked before the unwind so the tally survives the panic.
            self.trips.run_panic.inc();
            panic_any(InjectedPanic { event: n });
        }
    }
}

impl MatmulPlan for FaultPlan {
    fn format(&self) -> MatmulFormat {
        self.inner.format()
    }

    fn descriptor(&self) -> &MatmulDescriptor {
        self.inner.descriptor()
    }

    fn timing(&self) -> Option<&KernelTiming> {
        self.inner.timing()
    }

    fn cost_ms(&self) -> Option<f64> {
        self.inner.cost_ms()
    }

    fn counts(&self) -> Option<&venom_sim::pipeline::KernelCounts> {
        self.inner.counts()
    }

    fn path(&self) -> &'static str {
        self.inner.path()
    }

    fn stored_values(&self) -> usize {
        self.inner.stored_values()
    }

    fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
    }

    fn weight_dense(&self) -> Matrix<Half> {
        self.inner.weight_dense()
    }

    fn run(&self, b: &Matrix<Half>) -> Matrix<f32> {
        self.before_dispatch();
        self.inner.run(b)
    }

    fn run_batch(&self, bs: &[&Matrix<Half>]) -> Vec<Matrix<f32>> {
        self.before_dispatch();
        self.inner.run_batch(bs)
    }

    fn run_linear(&self, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        self.before_dispatch();
        self.inner.run_linear(x, bias)
    }

    fn run_linear_staged(&self, staged: &[f32], tokens: usize, bias: &[f32]) -> Matrix<f32> {
        self.before_dispatch();
        self.inner.run_linear_staged(staged, tokens, bias)
    }

    fn run_oneshot(&self, b: &Matrix<Half>) -> Matrix<f32> {
        // Degraded-path dispatch: deliberately fault-free.
        self.inner.run_oneshot(b)
    }

    fn run_linear_percall(&self, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        // Degraded-path dispatch: deliberately fault-free.
        self.inner.run_linear_percall(x, bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_key() {
        let cfg = FaultConfig::parse(
            "seed=7,build-fail=0.4,build-stall=0.25,stall-ms=30,run-panic=0.3,run-slow=1,slow-ms=5",
        )
        .expect("valid spec");
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.build_fail, 0.4);
        assert_eq!(cfg.build_stall, 0.25);
        assert_eq!(cfg.stall_ms, 30);
        assert_eq!(cfg.run_panic, 0.3);
        assert_eq!(cfg.run_slow, 1.0);
        assert_eq!(cfg.slow_ms, 5);
        assert!(cfg.any_enabled());
        assert!(!FaultConfig::default().any_enabled());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultConfig::parse("run-panic").is_err(), "missing value");
        assert!(FaultConfig::parse("run-panic=2").is_err(), "p > 1");
        assert!(FaultConfig::parse("run-panic=-0.5").is_err(), "p < 0");
        assert!(FaultConfig::parse("bogus=1").is_err(), "unknown key");
        assert!(FaultConfig::parse("seed=x").is_err(), "non-integer seed");
        assert!(FaultConfig::parse("").is_ok(), "empty spec = no faults");
    }

    #[test]
    fn rolls_are_deterministic_and_sites_independent() {
        let cfg = FaultConfig {
            seed: 42,
            ..FaultConfig::default()
        };
        for n in 0..64 {
            assert_eq!(
                cfg.roll(site::RUN_PANIC, n, 0.5),
                cfg.roll(site::RUN_PANIC, n, 0.5),
                "event {n} must replay identically"
            );
        }
        // The same event ordinals under different sites must not be
        // perfectly correlated (independent failure axes).
        let a: Vec<bool> = (0..64).map(|n| cfg.roll(site::RUN_PANIC, n, 0.5)).collect();
        let b: Vec<bool> = (0..64).map(|n| cfg.roll(site::RUN_SLOW, n, 0.5)).collect();
        assert_ne!(a, b);
        // Probability extremes short-circuit.
        assert!(!cfg.roll(site::RUN_PANIC, 0, 0.0));
        assert!(cfg.roll(site::RUN_PANIC, 0, 1.0));
    }

    #[test]
    fn disarmed_schedule_skips_the_wrapper_entirely() {
        // The clean serving path must not pay for the fault apparatus:
        // with no fault armed, the builder hands back the inner plan
        // itself — no wrapper, no per-dispatch draws.
        let w = Matrix::<Half>::zeros(8, 8);
        let plan: Arc<dyn MatmulPlan> = Arc::new(crate::Plan::from_dense(&w));
        let clean = {
            let p = Arc::clone(&plan);
            FaultConfig::default().wrap_builder(move || Arc::clone(&p))
        };
        let built = clean().expect("no faults means no failures");
        assert!(
            !format!("{built:?}").contains("FaultPlan"),
            "disarmed schedule still wrapped: {built:?}"
        );
        // Any armed fault restores the wrapper (run-side faults apply).
        let armed = {
            let p = Arc::clone(&plan);
            FaultConfig {
                run_slow: 0.5,
                ..FaultConfig::default()
            }
            .wrap_builder(move || Arc::clone(&p))
        };
        let built = armed().expect("run faults do not fail builds");
        assert!(format!("{built:?}").contains("FaultPlan"), "{built:?}");
    }

    #[test]
    fn roll_rate_tracks_probability() {
        let cfg = FaultConfig {
            seed: 9,
            ..FaultConfig::default()
        };
        let trips = (0..10_000)
            .filter(|&n| cfg.roll(site::BUILD_FAIL, n, 0.3))
            .count();
        assert!(
            (2_500..3_500).contains(&trips),
            "0.3 probability tripped {trips}/10000 times"
        );
    }
}
