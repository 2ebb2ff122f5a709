//! `plan_churn`: 24 distinct seeded weights of BERT-base shapes with
//! mixed patterns (64:2:8, 128:2:10, 128:2:20, and two 90% unstructured
//! weights that price into CSR), cycled through a two-worker `Server`
//! whose `PlanCache` byte budget holds about a third of their plans.
//!
//! Every request's plan is built by `plan_auto_hinted`, and cycling
//! through more plans than the cache holds makes nearly every request
//! miss, build and evict. One client keeps two requests outstanding. The
//! same plan and cache layers as `serve_small_batch`, used the other way
//! round: builds and evictions instead of hits and replays, so format
//! compression and pricing dominate and kernel time is small.

use crate::encoder::tail;
use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::util::{derive, ms_since, peak_rss_mb, seconds};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use venom_format::{MatmulFormat, VnmConfig};
use venom_fp16::Half;
use venom_runtime::serve::ResponseHandle;
use venom_runtime::{
    CacheStats, DeviceConfig, Engine, MatmulDescriptor, MatmulPlan, PlanCache, PlanKey,
    ServeConfig, Server,
};
use venom_tensor::{random, Matrix};

/// The workload's name on the command line.
pub const NAME: &str = "plan_churn";
/// Distinct weights cycled through the server.
pub const WEIGHTS: usize = 24;
/// Operand columns (tokens) per request.
pub const REQUEST_COLS: usize = 8;
/// Requests the client keeps outstanding.
pub const OUTSTANDING: usize = 2;
/// Plan-cache byte budget: about a third of the 24 plans'
/// `approx_bytes` (their sum is about 30 MiB).
pub const CACHE_BUDGET: usize = 10 << 20;
/// Cycles after which the cache counters are read, so they repeat
/// exactly whatever the run length.
pub const COUNTED_CYCLES: usize = 2;
/// Whole cycles an untraced run makes at least, however long they take:
/// 120 requests support a p90 with 10 samples beyond its rank, so a host
/// slowed by outside load lengthens the run instead of failing it.
const MIN_CYCLES: usize = 5;
/// Weights whose outputs are checked, drawn by seed.
const SAMPLED: usize = 6;
/// Seeded operands per weight.
const OPERANDS: usize = 2;
/// Set-up passes per untraced run; the median is reported.
const SETUP_REPEATS: usize = 5;

/// How weight `i` is pruned.
#[derive(Clone, Copy, Debug)]
pub enum Prune {
    /// Magnitude V:N:M pruning to the pattern.
    Vnm(VnmConfig),
    /// Unstructured magnitude pruning at this sparsity.
    Unstructured(f64),
}

/// Shape `(rows, cols)` and pruning of weight `i`: the three BERT-base
/// shapes in turn, crossed with the three V:N:M patterns; weights 9
/// (768x768) and 20 (768x3072) are 90% unstructured, shapes at which
/// unstructured weights price into CSR.
pub fn spec(i: usize) -> (usize, usize, Prune) {
    const SHAPES: [(usize, usize); 3] = [(768, 768), (3072, 768), (768, 3072)];
    const PATTERNS: [(usize, usize, usize); 3] = [(64, 2, 8), (128, 2, 10), (128, 2, 20)];
    let (r, k) = SHAPES[i % 3];
    let prune = if i == 9 || i == 20 {
        Prune::Unstructured(0.9)
    } else {
        let (v, n, m) = PATTERNS[(i / 3) % 3];
        Prune::Vnm(VnmConfig::new(v, n, m))
    };
    (r, k, prune)
}

fn engine() -> Engine {
    Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(REQUEST_COLS)
}

/// One weight of the churn set.
pub struct Weight {
    /// Cache and registration key.
    pub key: PlanKey,
    /// The planned matmul.
    pub desc: MatmulDescriptor,
    /// The pruned weight.
    pub w: Arc<Matrix<Half>>,
    /// The V:N:M pattern handed to `plan_auto_hinted`, if any.
    pub hint: Option<VnmConfig>,
}

fn dense(seed: u64, i: usize) -> Matrix<f32> {
    let (r, k, _) = spec(i);
    random::glorot_matrix(r, k, derive(seed, 1, i as u64))
}

/// Builds weight `i`'s plan the way every request does.
fn plan(engine: &Engine, w: &Weight) -> Arc<dyn MatmulPlan> {
    engine.plan_auto_hinted(&w.desc, &w.w, w.hint)
}

/// One set-up pass: prunes every weight (generation of the dense inputs
/// is not timed), then starts the server and registers each weight's
/// builder. Returns the weights, the server and the timed seconds.
fn setup(
    seed: u64,
    engine: &Engine,
    t: &Arc<Tracer>,
    current: &Arc<Vec<AtomicU64>>,
) -> (Vec<Weight>, Server, f64) {
    let op = t.op();
    let setup_start = Instant::now();
    let mut timed = Duration::ZERO;
    let mut weights = Vec::with_capacity(WEIGHTS);
    for i in 0..WEIGHTS {
        let wf = dense(seed, i);
        let started = Instant::now();
        let (_, _, prune) = spec(i);
        let (mask, hint) = t.time(op, "pruner.prune", || match prune {
            Prune::Vnm(cfg) => (venom_pruner::magnitude::prune_vnm(&wf, cfg), Some(cfg)),
            Prune::Unstructured(s) => (venom_pruner::magnitude::prune_unstructured(&wf, s), None),
        });
        let w = mask.apply_f32(&wf).to_half();
        let desc = engine.descriptor(w.rows(), w.cols());
        weights.push(Weight {
            key: PlanKey::for_weight(desc, &w),
            desc,
            w: Arc::new(w),
            hint,
        });
        timed += started.elapsed();
    }
    let started = Instant::now();
    let config = ServeConfig::default()
        .with_concurrency(2)
        .with_queue_capacity(64)
        .with_build_timeout(Duration::from_secs(60));
    let server = Server::start(config, Arc::new(PlanCache::with_budget(CACHE_BUDGET)));
    for (i, wt) in weights.iter().enumerate() {
        let weight = Weight {
            key: wt.key,
            desc: wt.desc,
            w: Arc::clone(&wt.w),
            hint: wt.hint,
        };
        let (engine, t, current) = (engine.clone(), Arc::clone(t), Arc::clone(current));
        server.register_fallible(wt.key, move || {
            // The request that caused this build owns its span.
            let op = current[i].load(Ordering::Relaxed);
            Ok(t.time(op, "runtime.plan.build_auto", || plan(&engine, &weight)))
        });
    }
    timed += started.elapsed();
    t.finish_op(op, "setup", setup_start);
    (weights, server, timed.as_secs_f64())
}

/// What one run of request cycles measured.
#[derive(Default)]
struct Cycles {
    latencies: Vec<f64>,
    submit_us: Vec<f64>,
    depths: Vec<f64>,
    /// Wall-clock seconds of each whole cycle.
    cycle_s: Vec<f64>,
    /// Cache counters after [`COUNTED_CYCLES`] whole cycles, if this run
    /// was asked for them.
    counted: Option<CacheStats>,
}

/// One request in flight.
struct Flight {
    index: u64,
    weight: usize,
    slot: usize,
    sent: Instant,
    op: u64,
    handle: ResponseHandle,
}

/// Waits for `f`, timing it from its send and checking sampled outputs.
fn complete(
    f: Flight,
    refs: &[Option<Vec<Matrix<f32>>>],
    t: &Tracer,
    run: &mut Cycles,
    out: &mut Outcome,
) {
    out.attempted += 1;
    match f.handle.wait() {
        Ok(y) => {
            run.latencies.push(ms_since(f.sent));
            t.finish_op(f.op, "request", f.sent);
            if refs[f.weight].as_ref().is_some_and(|r| y != r[f.slot]) {
                out.mismatch(
                    NAME,
                    &format!("request={} weight={} vs=run_oneshot", f.index, f.weight),
                );
            }
        }
        Err(e) => {
            out.failed += 1;
            println!(
                "FAILED workload={NAME} request={} weight={} error={e}",
                f.index, f.weight
            );
        }
    }
}

/// Sends requests cycling over every weight, keeping [`OUTSTANDING`] in
/// flight, until `secs` pass (and at least `min_cycles` cycles finish).
#[allow(clippy::too_many_arguments)]
fn cycles(
    server: &Server,
    weights: &[Weight],
    operands: &[Vec<Matrix<Half>>],
    refs: &[Option<Vec<Matrix<f32>>>],
    secs: f64,
    min_cycles: usize,
    t: &Tracer,
    current: &[AtomicU64],
    out: &mut Outcome,
) -> Cycles {
    let start = Instant::now();
    let end = start + seconds(secs);
    let mut run = Cycles::default();
    let mut inflight = VecDeque::with_capacity(OUTSTANDING);
    let mut index = 0u64;
    let mut cycle = 0;
    let mut cycle_start = start;
    'run: loop {
        for w in 0..weights.len() {
            if cycle >= min_cycles && Instant::now() >= end {
                break 'run;
            }
            let slot = cycle % OPERANDS;
            let op = t.op();
            current[w].store(op, Ordering::Relaxed);
            run.depths.push(server.queued() as f64);
            let operand = operands[w][slot].clone();
            let sent = Instant::now();
            let h = t.time(op, "runtime.serve.submit", || {
                server.submit(weights[w].key, operand)
            });
            run.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            match h {
                Ok(handle) => inflight.push_back(Flight {
                    index,
                    weight: w,
                    slot,
                    sent,
                    op,
                    handle,
                }),
                Err(e) => {
                    out.attempted += 1;
                    out.failed += 1;
                    println!("FAILED workload={NAME} request={index} weight={w} error={e}");
                }
            }
            index += 1;
            if inflight.len() >= OUTSTANDING {
                let f = inflight.pop_front().expect("non-empty");
                complete(f, refs, t, &mut run, out);
            }
        }
        // Whole cycles end drained, so the counters read after them are
        // exact.
        while let Some(f) = inflight.pop_front() {
            complete(f, refs, t, &mut run, out);
        }
        run.cycle_s.push(cycle_start.elapsed().as_secs_f64());
        cycle_start = Instant::now();
        cycle += 1;
        if cycle == min_cycles {
            run.counted = Some(server.cache().stats());
        }
    }
    while let Some(f) = inflight.pop_front() {
        complete(f, refs, t, &mut run, out);
    }
    run
}

/// Runs the workload for `secs` seconds of measurement.
///
/// # Errors
/// When a percentile lacks samples or memory cannot be read.
pub fn run(seed: u64, secs: f64, tracer: &Arc<Tracer>) -> Result<Outcome, String> {
    let engine = engine();
    let mut out = Outcome::default();
    let current: Arc<Vec<AtomicU64>> = Arc::new((0..WEIGHTS).map(|_| AtomicU64::new(0)).collect());

    let repeats = if tracer.enabled() { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut ready = None;
    for _ in 0..repeats {
        if let Some((_, server)) = ready.take() {
            Server::shutdown(server);
        }
        let (weights, server, secs) = setup(seed, &engine, tracer, &current);
        setups.push(secs);
        ready = Some((weights, server));
    }
    let (weights, server) = ready.expect("at least one set-up pass");
    let operands: Vec<Vec<Matrix<Half>>> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| {
            (0..OPERANDS)
                .map(|j| {
                    let s = derive(seed, 2, (i * OPERANDS + j) as u64);
                    random::activation_matrix(w.desc.in_features, REQUEST_COLS, s).to_half()
                })
                .collect()
        })
        .collect();

    // References for a seeded sample of weights: a plan built outside the
    // server, run through the retained per-call path.
    let mut sampled: Vec<usize> = (0..WEIGHTS).collect();
    sampled.sort_by_key(|&i| derive(seed, 3, i as u64));
    sampled.truncate(SAMPLED);
    sampled.sort_unstable();
    // A traced run builds every weight's plan outside the server, so the
    // computed work covers the whole mix; it checks every output too.
    let checked: Vec<usize> = if tracer.enabled() {
        (0..WEIGHTS).collect()
    } else {
        sampled.clone()
    };
    let probe = tracer.op();
    let probe_start = Instant::now();
    let mut refs: Vec<Option<Vec<Matrix<f32>>>> = vec![None; WEIGHTS];
    let mut checked_plans = Vec::with_capacity(checked.len());
    for &i in &checked {
        let p = plan(&engine, &weights[i]);
        let first = tracer.time(probe, "runtime.plan.first_run", || p.run(&operands[i][0]));
        let r: Vec<Matrix<f32>> = operands[i].iter().map(|b| p.run_oneshot(b)).collect();
        if first != r[0] {
            out.mismatch(NAME, &format!("weight={i} first_run vs=run_oneshot"));
        }
        refs[i] = Some(r);
        checked_plans.push(p);
    }
    tracer.finish_op(probe, "probe", probe_start);

    if !tracer.enabled() {
        let run = cycles(
            &server, &weights, &operands, &refs, secs, MIN_CYCLES, tracer, &current, &mut out,
        );
        server.shutdown();
        // Throughput of the median whole cycle, so a burst of outside load
        // during one cycle barely moves it.
        let per_s = WEIGHTS as f64 / median(&run.cycle_s).expect("at least MIN_CYCLES cycles");
        out.set("setup_s", median(&setups).expect("set-up ran"));
        out.set("latency_ms_p50", tail(&run.latencies, 50.0)?);
        out.set("latency_ms_p90", tail(&run.latencies, 90.0)?);
        out.set("requests_per_s", per_s);
        out.set("tokens_per_s", per_s * REQUEST_COLS as f64);
        out.set("peak_rss_mb", peak_rss_mb()?);
        return Ok(out);
    }

    out.set("pruner.prune_ms", tracer.total_ms("pruner.prune"));
    out.set(
        "runtime.plan.first_run_ms",
        mean(&tracer.durations_ms("runtime.plan.first_run")).expect("every weight ran once"),
    );
    let plain_tracer = Tracer::new(false);
    let plain = cycles(
        &server,
        &weights,
        &operands,
        &refs,
        secs / 3.0,
        COUNTED_CYCLES,
        &plain_tracer,
        &current,
        &mut out,
    );
    let traced = cycles(
        &server,
        &weights,
        &operands,
        &refs,
        secs / 3.0,
        0,
        tracer,
        &current,
        &mut out,
    );
    let counted = plain.counted.expect("the first phase counts its cycles");
    let after = server.cache().stats();
    let report = server.shutdown();

    // What plan_auto prices, split: one build per format on the sample.
    let split = tracer.op();
    let split_start = Instant::now();
    for &i in &sampled {
        let w = &weights[i];
        for (format, span) in [
            (MatmulFormat::Csr, "format.csr"),
            (MatmulFormat::Cvse, "format.cvse"),
            (MatmulFormat::BlockedEll, "format.blocked_ell"),
        ] {
            let built = tracer.time(split, span, || {
                engine.plan_with_format(format, &w.desc, &w.w)
            });
            built.map_err(|e| format!("{NAME}: weight {i} cannot plan {format}: {e}"))?;
        }
        // Unstructured weights have no V:N:M structure for the band path.
        let _ = tracer.time(split, "runtime.plan.build_band", || {
            engine.plan_band_hinted(&w.desc, &w.w, w.hint)
        });
        tracer.time(split, "runtime.plan.build_gemm", || engine.plan_gemm(&w.w));
    }
    tracer.finish_op(split, "split", split_start);
    for (span, metric) in [
        ("format.csr", "format.csr_ms"),
        ("format.cvse", "format.cvse_ms"),
        ("format.blocked_ell", "format.blocked_ell_ms"),
        ("runtime.plan.build_band", "runtime.plan.build_band_ms"),
        ("runtime.plan.build_gemm", "runtime.plan.build_gemm_ms"),
    ] {
        out.set(
            metric,
            mean(&tracer.durations_ms(span)).expect("one call per sampled weight"),
        );
    }

    let (gflop, mbytes, band_share) = crate::serve::work_and_band_share(&checked_plans);
    out.set("runtime.serve.mean_batch", report.mean_batch);
    out.set("runtime.serve.batches", report.batches as f64);
    out.set("runtime.serve.server_latency_ms_p50", report.p50_ms);
    out.set(
        "runtime.serve.submit_us_p50",
        tail(&traced.submit_us, 50.0)?,
    );
    out.set(
        "runtime.serve.queue_depth_mean",
        mean(&traced.depths).unwrap_or(0.0),
    );
    out.set("runtime.plan.band_share", band_share);
    out.set(
        "runtime.plan.build_auto_ms_p50",
        tail(&tracer.durations_ms("runtime.plan.build_auto"), 50.0)?,
    );
    out.set("runtime.cache.hit_ratio", after.hit_ratio());
    out.set("runtime.cache.builds", counted.builds as f64);
    out.set("runtime.cache.evictions", counted.evictions as f64);
    out.set("core.gflop_per_op", gflop);
    out.set("core.mbytes_per_op", mbytes);
    let (p_plain, p_traced) = (
        tail(&plain.latencies, 50.0)?,
        tail(&traced.latencies, 50.0)?,
    );
    out.set("bench.trace_overhead_ratio", p_traced / p_plain - 1.0);
    out.set("bench.traced_ops", traced.latencies.len() as f64);
    Ok(out)
}
