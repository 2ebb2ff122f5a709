//! `serve_small_batch`: the six weights of one BERT-base layer, planned
//! once by `plan_auto` at the request width so the memory-bound shapes
//! route to the band path, served by a two-worker `Server`.
//!
//! Requests are seeded `K x 8` operands spread uniformly over the six
//! weights. An untraced run saturates the server from one closed-loop
//! client and reports its capacity and latencies. A traced run instead
//! has one generator thread send the same mix open-loop at a fixed rate
//! while a second thread collects the results, each request timed from
//! when it was due. Queue, coalescer and plan-cache hits do the work
//! here; nothing is planned after warm-up and there is no attention.

use crate::encoder::{tail, windowed_tail};
use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::util::{
    computed_work, derive, ms_since, peak_rss_mb, pin_to_one_cpu, seconds, sleep_until,
};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use venom_format::VnmConfig;
use venom_fp16::Half;
use venom_runtime::serve::ResponseHandle;
use venom_runtime::{
    CacheStats, DeviceConfig, Engine, MatmulDescriptor, MatmulPlan, PlanCache, PlanKey,
    ServeConfig, ServeError, Server,
};
use venom_tensor::{random, Matrix};

/// The workload's name on the command line.
pub const NAME: &str = "serve_small_batch";
/// Operand columns (tokens) per request.
pub const REQUEST_COLS: usize = 8;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Most requests one coalesced batch packs.
pub const MAX_BATCH: usize = 8;
/// Open-loop arrival rate in requests per second: about a quarter of the
/// closed-loop saturation throughput (about 950 req/s on one CPU of a
/// 2-vCPU x86-64 VM), so a machine slowed by outside load still keeps up
/// and the latencies measure service, not a queue near saturation. A
/// constant, so a faster server shows as lower latency at the same load.
pub const OPEN_LOOP_RATE: f64 = 250.0;
/// Requests the saturating client keeps outstanding.
const SATURATION_WINDOW: usize = 32;
/// Equal slices of the saturated phase whose median the untraced run
/// reports: capacity moves by several percent from one second to the next
/// on a shared host, and the median of many windows damps that.
const WINDOWS: usize = 16;
/// Seeded operands per weight the requests draw from.
const POOL: usize = 8;
/// Set-up passes per untraced run; the median is reported.
const SETUP_REPEATS: usize = 5;
/// Growth of the mean queue depth, from the first to the last quarter of
/// an open-loop phase, that marks a growing backlog.
const BACKLOG_GROWTH: f64 = 16.0;

/// The prune pattern of every weight.
pub fn pattern() -> VnmConfig {
    VnmConfig::new(64, 2, 10)
}

fn engine() -> Engine {
    Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(REQUEST_COLS)
}

/// One served weight.
pub struct Weight {
    /// Cache and registration key.
    pub key: PlanKey,
    /// The planned matmul.
    pub desc: MatmulDescriptor,
    /// The pruned weight.
    pub w: Arc<Matrix<Half>>,
}

/// The seeded dense weights of one BERT-base layer (Q, K, V, O, FFN1,
/// FFN2).
pub fn dense_weights(seed: u64) -> Vec<Matrix<f32>> {
    venom_dnn::TransformerConfig::bert_base()
        .weight_shapes()
        .into_iter()
        .enumerate()
        .map(|(i, (r, k))| random::glorot_matrix(r, k, derive(seed, 1, i as u64)))
        .collect()
}

/// Prunes every weight (each call in a span under `op`) and keys it.
fn prune(dense: &[Matrix<f32>], engine: &Engine, t: &Tracer, op: u64) -> Vec<Weight> {
    dense
        .iter()
        .map(|wf| {
            let mask = t.time(op, "pruner.prune", || {
                venom_pruner::magnitude::prune_vnm(wf, pattern())
            });
            let w = mask.apply_f32(wf).to_half();
            let desc = engine.descriptor(w.rows(), w.cols());
            Weight {
                key: PlanKey::for_weight(desc, &w),
                desc,
                w: Arc::new(w),
            }
        })
        .collect()
}

fn server_config() -> ServeConfig {
    ServeConfig::default()
        .with_concurrency(WORKERS)
        .with_max_batch(MAX_BATCH)
        .with_queue_capacity(1 << 16)
        .with_build_timeout(Duration::from_secs(60))
}

/// Starts a server over `weights` and waits until every plan is warm.
pub fn start(weights: &[Weight], engine: &Engine) -> Server {
    let server = Server::start(server_config(), Arc::new(PlanCache::new()));
    let warming: Vec<_> = weights
        .iter()
        .map(|wt| {
            let (engine, desc, w) = (engine.clone(), wt.desc, Arc::clone(&wt.w));
            server.register_warm(wt.key, move || {
                engine.plan_auto_hinted(&desc, &w, Some(pattern()))
            })
        })
        .collect();
    for h in warming {
        h.join().expect("a warm-up build panicked");
    }
    server
}

/// The set-up under test: prune, start, warm.
pub fn setup(dense: &[Matrix<f32>], engine: &Engine, t: &Tracer) -> (Vec<Weight>, Server) {
    let op = t.op();
    let start_at = Instant::now();
    let weights = prune(dense, engine, t, op);
    let server = start(&weights, engine);
    t.finish_op(op, "setup", start_at);
    (weights, server)
}

/// Computed work per request over the uniform mix, `(GFLOP, MB)`, and
/// the share of weights the router sent to the band path.
pub fn work_and_band_share(plans: &[Arc<dyn MatmulPlan>]) -> (f64, f64, f64) {
    let n = plans.len() as f64;
    let (mut g, mut m, mut band) = (0.0, 0.0, 0.0);
    for p in plans {
        let (pg, pm) = p.counts().map_or((0.0, 0.0), computed_work);
        g += pg;
        m += pm;
        band += f64::from(u8::from(p.path() == "band"));
    }
    (g / n, m / n, band / n)
}

/// Seeded operands per weight and their per-call references.
struct Pool {
    operands: Vec<Vec<Matrix<Half>>>,
    refs: Vec<Vec<Matrix<f32>>>,
}

fn pool(seed: u64, plans: &[Arc<dyn MatmulPlan>]) -> Pool {
    let operands: Vec<Vec<Matrix<Half>>> = plans
        .iter()
        .enumerate()
        .map(|(w, p)| {
            let k = p.descriptor().in_features;
            (0..POOL)
                .map(|j| {
                    let s = derive(seed, 2, (w * POOL + j) as u64);
                    random::activation_matrix(k, REQUEST_COLS, s).to_half()
                })
                .collect()
        })
        .collect();
    let refs = plans
        .iter()
        .zip(&operands)
        .map(|(p, ops)| ops.iter().map(|b| p.run_oneshot(b)).collect())
        .collect();
    Pool { operands, refs }
}

/// Which weight and pooled operand request `i` of stream `stream` uses.
fn pick(seed: u64, stream: u64, i: u64, weights: usize) -> (usize, usize) {
    let r = derive(seed, stream, i);
    (
        (r % weights as u64) as usize,
        ((r >> 32) % POOL as u64) as usize,
    )
}

/// One request in flight.
struct Sent {
    index: u64,
    weight: usize,
    slot: usize,
    due: Instant,
    op: u64,
    handle: Result<ResponseHandle, ServeError>,
}

/// What one open-loop phase measured.
struct OpenLoop {
    latencies: Vec<f64>,
    lags: Vec<f64>,
    depths: Vec<f64>,
    submit_us: Vec<f64>,
}

/// Sends requests at [`OPEN_LOOP_RATE`] for `secs` from one thread and
/// collects them on this one, timing each from its due time.
fn open_loop(
    server: &Server,
    weights: &[Weight],
    pool: &Pool,
    seed: u64,
    secs: f64,
    t: &Tracer,
    out: &mut Outcome,
) -> Result<OpenLoop, String> {
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut latencies = Vec::new();
    let (lags, depths, submit_us) = std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let start = Instant::now() + Duration::from_millis(1);
            let end = start + seconds(secs);
            let (mut lags, mut depths, mut submit_us) = (Vec::new(), Vec::new(), Vec::new());
            for index in 0u64.. {
                let due = start + seconds(index as f64 / OPEN_LOOP_RATE);
                if due >= end {
                    break;
                }
                sleep_until(due);
                lags.push(ms_since(due));
                depths.push(server.queued() as f64);
                let (weight, slot) = pick(seed, 3, index, weights.len());
                let operand = pool.operands[weight][slot].clone();
                let op = t.op();
                let submitted = Instant::now();
                let handle = t.time(op, "runtime.serve.submit", || {
                    server.submit(weights[weight].key, operand)
                });
                submit_us.push(submitted.elapsed().as_secs_f64() * 1e6);
                let sent = Sent {
                    index,
                    weight,
                    slot,
                    due,
                    op,
                    handle,
                };
                if tx.send(sent).is_err() {
                    break;
                }
            }
            (lags, depths, submit_us)
        });
        for sent in rx {
            out.attempted += 1;
            match sent.handle.and_then(|h| h.wait()) {
                Ok(y) => {
                    latencies.push(ms_since(sent.due));
                    t.finish_op(sent.op, "request", sent.due);
                    if y != pool.refs[sent.weight][sent.slot] {
                        out.mismatch(
                            NAME,
                            &format!(
                                "request={} weight={} vs=run_oneshot",
                                sent.index, sent.weight
                            ),
                        );
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    println!("FAILED workload={NAME} request={} error={e}", sent.index);
                }
            }
        }
        generator.join().expect("the generator thread panicked")
    });
    // A backlog that grows across the phase means the rate outran the
    // server: its latencies measure the queue, not the system.
    let quarter = depths.len() / 4;
    if quarter > 0 {
        let first = mean(&depths[..quarter]).unwrap_or(0.0);
        let last = mean(&depths[depths.len() - quarter..]).unwrap_or(0.0);
        if last - first > BACKLOG_GROWTH {
            return Err(format!(
                "invalid run: mean queue depth grew from {first:.1} to {last:.1} across the \
                 open-loop phase at {OPEN_LOOP_RATE} req/s (a growing backlog)"
            ));
        }
    }
    Ok(OpenLoop {
        latencies,
        lags,
        depths,
        submit_us,
    })
}

/// Closed-loop capacity: one client keeps [`SATURATION_WINDOW`] requests
/// outstanding for `secs`. Returns completed requests per second, the
/// median over [`WINDOWS`] equal spans of the phase, and each request's
/// latency from its send, in send order.
fn saturate(
    server: &Server,
    weights: &[Weight],
    pool: &Pool,
    seed: u64,
    secs: f64,
    out: &mut Outcome,
) -> (f64, Vec<f64>) {
    let start = Instant::now();
    let span = secs / WINDOWS as f64;
    let mut done = [0u64; WINDOWS];
    let mut latencies = Vec::new();
    let mut inflight = VecDeque::with_capacity(SATURATION_WINDOW);
    let mut index = 0u64;
    loop {
        while inflight.len() < SATURATION_WINDOW && start.elapsed().as_secs_f64() < secs {
            let (w, slot) = pick(seed, 4, index, weights.len());
            let sent = Instant::now();
            let h = server.submit(weights[w].key, pool.operands[w][slot].clone());
            inflight.push_back((index, w, slot, sent, h));
            index += 1;
        }
        let Some((i, w, slot, sent, h)) = inflight.pop_front() else {
            break;
        };
        out.attempted += 1;
        match h.and_then(|h| h.wait()) {
            Ok(y) => {
                latencies.push(ms_since(sent));
                // Completions after the phase (the drain) fall in no window.
                let window = (start.elapsed().as_secs_f64() / span) as usize;
                if let Some(n) = done.get_mut(window) {
                    *n += 1;
                }
                if y != pool.refs[w][slot] {
                    out.mismatch(NAME, &format!("request={i} weight={w} vs=run_oneshot"));
                }
            }
            Err(e) => {
                out.failed += 1;
                println!("FAILED workload={NAME} request={i} error={e}");
            }
        }
    }
    let rates: Vec<f64> = done.iter().map(|&n| n as f64 / span).collect();
    (median(&rates).expect("WINDOWS is not zero"), latencies)
}

fn hit_ratio(before: &CacheStats, after: &CacheStats) -> f64 {
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    hits as f64 / lookups.max(1) as f64
}

/// Runs the workload for `secs` seconds of measurement.
///
/// # Errors
/// When the open loop builds a backlog, a percentile lacks samples, or
/// memory cannot be read.
pub fn run(seed: u64, secs: f64, tracer: &Arc<Tracer>) -> Result<Outcome, String> {
    // Unpinned, each worker's kernel call spawns a thread per vCPU for a
    // sub-millisecond batch, and capacity moved by 30% between runs on a
    // shared host. Pinned, the two workers share one CPU and run their
    // kernels inline, as the encoder workload does.
    pin_to_one_cpu()?;
    let dense = dense_weights(seed);
    let engine = engine();
    let mut out = Outcome::default();

    let repeats = if tracer.enabled() { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut ready = None;
    for _ in 0..repeats {
        if let Some((_, server)) = ready.take() {
            Server::shutdown(server);
        }
        let t = Instant::now();
        ready = Some(setup(&dense, &engine, tracer));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (weights, server) = ready.expect("at least one set-up pass");
    drop(dense);
    let plans: Vec<Arc<dyn MatmulPlan>> = weights
        .iter()
        .map(|w| {
            server
                .cache()
                .get(&w.key)
                .expect("warm-up planned every weight")
        })
        .collect();
    let pool = pool(seed, &plans);
    let (gflop, mbytes, band_share) = work_and_band_share(&plans);
    let before = server.cache().stats();

    if !tracer.enabled() {
        // Sub-millisecond open-loop latencies on a shared 2-vCPU host move
        // by tens of percent with the host's wake-up latency, so the gated
        // latencies are those of the saturated phase, where queueing and
        // service dominate; the open loop is measured in the traced run.
        let (capacity, latencies) = saturate(&server, &weights, &pool, seed, secs, &mut out);
        server.shutdown();
        out.set("setup_s", median(&setups).expect("set-up ran"));
        out.set("latency_ms_p50", windowed_tail(&latencies, WINDOWS, 50.0)?);
        out.set("latency_ms_p90", windowed_tail(&latencies, WINDOWS, 90.0)?);
        out.set("requests_per_s", capacity);
        out.set("tokens_per_s", capacity * REQUEST_COLS as f64);
        out.set("peak_rss_mb", peak_rss_mb()?);
        return Ok(out);
    }

    out.set("pruner.prune_ms", tracer.total_ms("pruner.prune"));
    let plain = open_loop(
        &server,
        &weights,
        &pool,
        seed,
        secs / 2.0,
        &Tracer::new(false),
        &mut out,
    )?;
    let traced = open_loop(
        &server,
        &weights,
        &pool,
        seed ^ 1,
        secs / 2.0,
        tracer,
        &mut out,
    )?;
    // One full batch straight through each plan, outside the server.
    let probe = tracer.op();
    let probe_start = Instant::now();
    let mut batch_ms = Vec::new();
    for (p, ops) in plans.iter().zip(&pool.operands) {
        let batch: Vec<&Matrix<Half>> = ops.iter().take(MAX_BATCH).collect();
        let reps: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(
                    tracer.time(probe, "runtime.plan.run_batch", || p.run_batch(&batch)),
                );
                ms_since(t)
            })
            .collect();
        batch_ms.push(median(&reps).expect("three repetitions"));
    }
    tracer.finish_op(probe, "probe", probe_start);
    let after = server.cache().stats();
    let report = server.shutdown();

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
    out.set(
        "runtime.serve.generator_lag_ms_p95",
        tail(&traced.lags, 95.0)?,
    );
    out.set(
        "runtime.plan.run_batch_ms",
        mean(&batch_ms).expect("six weights"),
    );
    out.set("runtime.plan.band_share", band_share);
    out.set("runtime.cache.hit_ratio", hit_ratio(&before, &after));
    out.set("runtime.cache.builds", after.builds as f64);
    out.set("runtime.cache.evictions", after.evictions as f64);
    out.set("core.gflop_per_op", gflop);
    out.set("core.mbytes_per_op", mbytes);
    let (p_plain, p_traced) = (
        tail(&plain.latencies, 50.0)?,
        tail(&traced.latencies, 50.0)?,
    );
    out.set("runtime.serve.open_latency_ms_p50", p_plain);
    out.set(
        "runtime.serve.open_latency_ms_p90",
        tail(&plain.latencies, 90.0)?,
    );
    out.set("bench.trace_overhead_ratio", p_traced / p_plain - 1.0);
    out.set("bench.traced_ops", traced.latencies.len() as f64);
    Ok(out)
}
