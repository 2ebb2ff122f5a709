//! One store per metric: every plan cache, fault tally and server keeps
//! its counts only in its own registry instance handles. Each instance's
//! `stats()`, `health()`, `shutdown()` and trip getters must stay exact,
//! and each exposed series must rise by exactly the sum over instances,
//! a dropped instance included.
//!
//! One `#[test]` in its own binary, so the deltas on the process-wide
//! registry come from this traffic alone.

use std::sync::Arc;

use venom_format::{MatmulFormat, VnmConfig};
use venom_fp16::Half;
use venom_pruner::magnitude;
use venom_runtime::{
    CacheStats, Engine, FaultConfig, FaultTrips, HealthReport, MatmulPlan, PlanCache, PlanKey,
    RetryPolicy, ServeConfig, ServeError, Server,
};
use venom_sim::DeviceConfig;
use venom_tensor::{random, Matrix};

fn planned_weight(seed: u64, engine: &Engine) -> (PlanKey, Arc<dyn MatmulPlan>) {
    let w = random::glorot_matrix(64, 64, seed);
    let mask = magnitude::prune_vnm(&w, VnmConfig::new(16, 2, 8));
    let pruned = mask.apply_f32(&w).to_half();
    let plan = engine
        .plan_with_format(MatmulFormat::Vnm, &engine.descriptor(64, 64), &pruned)
        .expect("V:N:M plan");
    (PlanKey::for_weight(*plan.descriptor(), &pruned), plan)
}

fn operand(k: usize, seed: u64) -> Matrix<Half> {
    random::activation_matrix(k, 4, seed).to_half()
}

/// The value of the sample `key` (`name{labels}`), 0 when absent.
fn sample(text: &str, key: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(' '))
        .map_or(0.0, |v| v.parse().expect("numeric sample"))
}

const SERIES: [&str; 10] = [
    "cache_hits_total{cache=\"plan\"}",
    "cache_misses_total{cache=\"plan\"}",
    "cache_evictions_total{cache=\"plan\"}",
    "cache_builds_total{cache=\"plan\"}",
    "fault_trips_total{fault=\"build_fail\"}",
    "serve_requests_total{outcome=\"served\"}",
    "serve_requests_total{outcome=\"errored\"}",
    "serve_requests_total{outcome=\"degraded\"}",
    "serve_batches_total",
    "serve_latency_ms_count",
];

/// Every tracked series, read from one exposition.
fn exposed() -> [f64; 10] {
    let text = venom_obs::registry().prometheus_text();
    SERIES.map(|key| sample(&text, key))
}

/// The expected rise of every tracked series, in `SERIES` order.
fn expected(
    caches: &[CacheStats],
    trips: u64,
    servers: &[HealthReport],
    batches: u64,
) -> [f64; 10] {
    let cache = |f: fn(&CacheStats) -> u64| caches.iter().map(f).sum::<u64>();
    let server = |f: fn(&HealthReport) -> u64| servers.iter().map(f).sum::<u64>();
    let served = server(|h| h.served);
    [
        cache(|s| s.hits),
        cache(|s| s.misses),
        cache(|s| s.evictions),
        cache(|s| s.builds),
        trips,
        served,
        server(|h| h.errored),
        server(|h| h.degraded),
        batches,
        served,
    ]
    .map(|n| n as f64)
}

fn counts(stats: CacheStats) -> (u64, u64, u64, u64) {
    (stats.hits, stats.misses, stats.evictions, stats.builds)
}

/// `(served, errored, degraded)` of a health snapshot.
fn outcomes(h: &HealthReport) -> (u64, u64, u64) {
    (h.served, h.errored, h.degraded)
}

#[test]
fn every_instance_is_exact_and_the_exposition_sums_them() {
    let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(4);
    let (k1, p1) = planned_weight(1, &engine);
    let (k2, p2) = planned_weight(2, &engine);
    let before = exposed();

    // Cache A holds one plan at a time: building k2 evicts the idle k1
    // (each build is a fresh plan, so only the cache holds it).
    let a = PlanCache::with_budget(1);
    let _ = a.get_or_plan(k1, || planned_weight(1, &engine).1);
    let _ = a.get_or_plan(k1, || unreachable!("k1 is resident"));
    let _ = a.get_or_plan(k2, || planned_weight(2, &engine).1);
    assert!(a.get(&k1).is_none(), "k1 was evicted");
    assert!(a.get(&k2).is_some());
    assert_eq!(counts(a.stats()), (2, 3, 1, 2), "{:?}", a.stats());

    // Cache B: one build, one hit, one unknown key.
    let b = PlanCache::new();
    let _ = b.get_or_plan(k1, || Arc::clone(&p1));
    assert!(b.get(&k1).is_some());
    assert!(b.get(&k2).is_none());
    assert_eq!(counts(b.stats()), (1, 2, 0, 1), "{:?}", b.stats());

    // Cache C is dropped before the exposition is read.
    let c = PlanCache::new();
    let _ = c.get_or_plan(k2, || Arc::clone(&p2));
    let c_stats = c.stats();
    assert_eq!(counts(c_stats), (0, 1, 0, 1));
    drop(c);

    // Two fault tallies behind always-failing builders; one is dropped.
    let fail_all = FaultConfig::parse("seed=1,build-fail=1.0").expect("valid spec");
    let kept = Arc::new(FaultTrips::new());
    let dropped = Arc::new(FaultTrips::new());
    for (trips, attempts) in [(&kept, 3), (&dropped, 2)] {
        let p = Arc::clone(&p1);
        let build = fail_all.wrap_builder_counted(move || Arc::clone(&p), Arc::clone(trips));
        for _ in 0..attempts {
            assert!(build().is_err());
        }
    }
    assert_eq!((kept.build_fail(), dropped.build_fail()), (3, 2));
    assert_eq!((kept.total(), dropped.total()), (3, 2));
    drop(dropped);

    // Server 1 plans k1: 5 served, then 2 wrong-shape operands. One
    // request at a time, so every good request is its own batch.
    let config = ServeConfig::default()
        .with_concurrency(1)
        .with_retry(RetryPolicy::none());
    let s1 = Server::start(config, Arc::new(PlanCache::new()));
    let plan = Arc::clone(&p1);
    s1.register(k1, move || Arc::clone(&plan));
    for i in 0..5 {
        let out = s1.submit(k1, operand(64, i)).unwrap().wait().unwrap();
        assert_eq!(out, p1.run(&operand(64, i)));
    }
    for i in 0..2 {
        let err = s1.submit(k1, operand(32, i)).unwrap().wait().unwrap_err();
        assert!(matches!(err, ServeError::OperandShape { .. }), "{err:?}");
    }

    // Server 2 degrades k2 to its baseline once and fails an unknown key.
    let s2 = Server::start(config, Arc::new(PlanCache::new()));
    s2.register_degradable(k2, || Err("no plan".to_string()), Arc::clone(&p2));
    let out = s2.submit(k2, operand(64, 9)).unwrap().wait().unwrap();
    assert_eq!(out, p2.run(&operand(64, 9)));
    let err = s2.submit(k1, operand(64, 9)).unwrap().wait().unwrap_err();
    assert_eq!(err, ServeError::UnknownKey);

    let (h1, h2) = (s1.health(), s2.health());
    assert_eq!(outcomes(&h1), (5, 2, 0), "{h1:?}");
    assert_eq!(outcomes(&h2), (1, 1, 1), "{h2:?}");
    let (s1_cache, s2_cache) = (s1.cache().stats(), s2.cache().stats());
    assert_eq!(counts(s1_cache), (6, 1, 0, 1), "{s1_cache:?}");
    assert_eq!(counts(s2_cache), (0, 2, 0, 0), "{s2_cache:?}");

    let caches = [a.stats(), b.stats(), c_stats, s1_cache, s2_cache];
    let want = expected(&caches, 5, &[h1, h2], 6);
    let rise = |now: [f64; 10]| -> Vec<(&str, f64)> {
        SERIES
            .iter()
            .zip(now.iter().zip(before))
            .map(|(&k, (n, b))| (k, n - b))
            .collect()
    };
    let want: Vec<(&str, f64)> = SERIES.into_iter().zip(want).collect();
    assert_eq!(rise(exposed()), want, "live servers");

    // Shutdown drops both servers; their counts stay in the exposition.
    let (r1, r2) = (s1.shutdown(), s2.shutdown());
    assert_eq!(
        (r1.served, r1.errored, r1.degraded, r1.batches),
        (5, 2, 0, 5)
    );
    assert_eq!(
        (r2.served, r2.errored, r2.degraded, r2.batches),
        (1, 1, 1, 1)
    );
    assert_eq!(rise(exposed()), want, "dropped servers");
    assert_eq!(kept.build_fail(), 3, "the kept tally is untouched");
}
