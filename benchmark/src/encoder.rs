//! `encoder_causal256`: a 2-layer BERT-base stack pruned 64:2:10 with
//! planned causal attention, one seq-256 sequence per forward, driven by
//! one caller in a closed loop with no think time.
//!
//! The compute-bound inference case: weight SpMMs on the mma stream do
//! most of the work and `AttentionPlan::attention` most of the rest.
//! Serving and the plan cache do nothing here.

use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::util::{computed_work, derive, ms_since, peak_rss_mb, pin_to_one_cpu, seconds};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;
use venom_dnn::layers::gelu;
use venom_dnn::model::SparseTransformerEncoder;
use venom_dnn::transformer::SparseEncoderBlock;
use venom_dnn::{
    MultiHeadAttention, PlannedLinear, SparseAttention, TransformerConfig, TransformerEncoder,
};
use venom_format::{VnmConfig, VnmMatrix};
use venom_fp16::Half;
use venom_runtime::{stage, AttentionMask, DeviceConfig, Engine};
use venom_tensor::{random, Matrix};

/// The workload's name on the command line.
pub const NAME: &str = "encoder_causal256";
/// Tokens per sequence.
pub const SEQ: usize = 256;
/// Distinct seeded input sequences the loop cycles through.
const INPUTS: u64 = 2;
/// Set-up passes per untraced run; the median is reported.
const SETUP_REPEATS: usize = 5;
/// Forwards an untraced run makes at least, however long they take: the
/// fewest that support a p90 with 10 samples beyond its rank, so a host
/// slowed by outside load lengthens the run instead of failing it.
const MIN_FORWARDS: usize = 100;

/// The stack: BERT-base widths, two layers.
pub fn config() -> TransformerConfig {
    TransformerConfig::new("bert-base-2l", 768, 12, 2, 3072, SEQ)
}

/// The prune pattern of every weight.
pub fn pattern() -> VnmConfig {
    VnmConfig::new(64, 2, 10)
}

fn engine() -> Engine {
    Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(SEQ)
}

/// Seeded inputs: the dense stack and the input sequences.
pub struct Inputs {
    dense: TransformerEncoder,
    xs: Vec<Matrix<f32>>,
}

/// Generates the workload's inputs from `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let cfg = config();
    Inputs {
        dense: TransformerEncoder::new(cfg, derive(seed, 1, 0) % (1 << 40)),
        xs: (0..INPUTS)
            .map(|i| random::activation_matrix(SEQ, cfg.hidden, derive(seed, 2, i)))
            .collect(),
    }
}

/// Set-up through the library: prune, compress and plan every weight,
/// then adopt planned causal attention.
pub fn build(dense: &TransformerEncoder, engine: &Engine) -> SparseTransformerEncoder {
    let mut model = dense.sparsify(engine, pattern());
    model
        .adopt_planned_attention(engine, SEQ, &AttentionMask::Causal)
        .expect("causal attention plans at any sequence length");
    model
}

/// Computed work of one forward, `(GFLOP, MB)`: every weight plan and
/// every layer's attention plan at the planned width.
pub fn work_per_forward(model: &SparseTransformerEncoder) -> (f64, f64) {
    let mut total = (0.0, 0.0);
    for block in &model.blocks {
        let weights = block.plans().into_iter().filter_map(|p| p.plan.counts());
        let attn = block.planned_attn.iter().map(|a| a.plan.counts());
        for counts in weights.chain(attn) {
            let (g, m) = computed_work(counts);
            total.0 += g;
            total.1 += m;
        }
    }
    total
}

/// The traced forward's layer calls: span name, metric name.
const FORWARD_LAYERS: [(&str, &str); 9] = [
    ("runtime.stage", "runtime.stage.ms"),
    ("runtime.plan.qkv", "runtime.plan.qkv_ms"),
    ("runtime.plan.out", "runtime.plan.out_ms"),
    ("runtime.plan.ffn1", "runtime.plan.ffn1_ms"),
    ("runtime.plan.ffn2", "runtime.plan.ffn2_ms"),
    ("runtime.attn", "runtime.attn.ms"),
    ("dnn.layernorm", "dnn.layernorm_ms"),
    ("dnn.gelu", "dnn.gelu_ms"),
    ("dnn.residual", "dnn.residual_ms"),
];

/// The traced set-up's layer calls: span name, metric name.
const SETUP_LAYERS: [(&str, &str); 4] = [
    ("pruner.prune", "pruner.prune_ms"),
    ("format.compress_vnm", "format.compress_vnm_ms"),
    ("runtime.plan.build_spmm", "runtime.plan.build_spmm_ms"),
    ("runtime.attn.build", "runtime.attn.build_ms"),
];

fn add_into(h: &mut Matrix<f32>, x: &Matrix<f32>) {
    for (o, a) in h.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *o += a;
    }
}

/// [`SparseTransformerEncoder::forward`] recomposed from the layers'
/// public calls, each in a span parented to operation `op`. Must stay
/// bit-identical to the library forward.
fn traced_forward(
    model: &SparseTransformerEncoder,
    x: &Matrix<f32>,
    t: &Tracer,
    op: u64,
) -> Matrix<f32> {
    let mut h = x.clone();
    for block in &model.blocks {
        let attn = block
            .planned_attn
            .as_ref()
            .expect("the workload adopts planned attention in every block");
        let mha = &attn.mha;
        let ln1 = t.time(op, "dnn.layernorm", || block.ln1.forward(&h));
        let staged = t.time(op, "runtime.stage", || stage::stage_activations_t(&ln1));
        let (q, k, v) = t.time(op, "runtime.plan.qkv", || {
            (
                mha.wq.forward_staged(&staged, ln1.rows()),
                mha.wk.forward_staged(&staged, ln1.rows()),
                mha.wv.forward_staged(&staged, ln1.rows()),
            )
        });
        let ctx = t.time(op, "runtime.attn", || attn.plan.attention(&q, &k, &v));
        let a = t.time(op, "runtime.plan.out", || mha.wo.forward(&ctx));
        t.time(op, "dnn.residual", || add_into(&mut h, &a));
        let ln2 = t.time(op, "dnn.layernorm", || block.ln2.forward(&h));
        let f1 = t.time(op, "runtime.plan.ffn1", || block.ff1.forward(&ln2));
        let g = t.time(op, "dnn.gelu", || gelu(&f1));
        let f2 = t.time(op, "runtime.plan.ffn2", || block.ff2.forward(&g));
        t.time(op, "dnn.residual", || add_into(&mut h, &f2));
    }
    t.time(op, "dnn.layernorm", || model.ln_final.forward(&h))
}

/// Prunes, compresses and plans one weight through the public calls
/// `sparsify` makes, each in a span.
fn traced_sparsify(
    w: &Matrix<Half>,
    bias: &[f32],
    engine: &Engine,
    t: &Tracer,
    op: u64,
) -> PlannedLinear {
    let wf = w.to_f32();
    let mask = t.time(op, "pruner.prune", || {
        venom_pruner::magnitude::prune_vnm(&wf, pattern())
    });
    let pruned = mask.apply_half(w);
    let vnm = t.time(op, "format.compress_vnm", || {
        VnmMatrix::compress(&pruned, &mask, pattern())
    });
    let plan = t.time(op, "runtime.plan.build_spmm", || engine.plan_spmm(&vnm));
    PlannedLinear::new(Arc::new(plan), bias.to_vec())
}

/// [`build`] recomposed from the layers' public calls, each in a span
/// parented to operation `op`.
fn traced_build(
    dense: &TransformerEncoder,
    engine: &Engine,
    t: &Tracer,
    op: u64,
) -> SparseTransformerEncoder {
    let cfg = dense.config;
    // One shape, one mask: the library builds the attention plan once and
    // shares it across layers; so does this.
    let attn_plan = t.time(op, "runtime.attn.build", || {
        engine.plan_attention(SEQ, cfg.hidden, cfg.heads, &AttentionMask::Causal)
    });
    let attn_plan = attn_plan.expect("causal attention plans at any sequence length");
    let blocks = dense
        .blocks
        .iter()
        .map(|b| {
            let proj =
                |p: &PlannedLinear| traced_sparsify(&p.plan.weight_dense(), &p.bias, engine, t, op);
            let mha = MultiHeadAttention {
                wq: proj(&b.mha.wq),
                wk: proj(&b.mha.wk),
                wv: proj(&b.mha.wv),
                wo: proj(&b.mha.wo),
                heads: b.mha.heads,
            };
            SparseEncoderBlock {
                planned_attn: Some(SparseAttention {
                    mha: mha.clone(),
                    plan: Arc::clone(&attn_plan),
                }),
                mha,
                ff1: traced_sparsify(b.ff1.weight(), &b.ff1.bias, engine, t, op),
                ff2: traced_sparsify(b.ff2.weight(), &b.ff2.bias, engine, t, op),
                ln1: b.ln1.clone(),
                ln2: b.ln2.clone(),
            }
        })
        .collect();
    SparseTransformerEncoder {
        config: cfg,
        blocks,
        ln_final: dense.ln_final.clone(),
        pattern: pattern(),
    }
}

/// Runs `forward` in a closed loop for `secs` and at least `min_forwards`
/// times, checking every output against its reference; returns the
/// per-forward latencies (ms) and the loop's wall time (s).
fn closed_loop(
    xs: &[Matrix<f32>],
    refs: &[Matrix<f32>],
    secs: f64,
    min_forwards: usize,
    out: &mut Outcome,
    mut forward: impl FnMut(&Matrix<f32>) -> Matrix<f32>,
) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let end = start + seconds(secs);
    let mut latencies = Vec::new();
    let mut i = 0;
    while Instant::now() < end || latencies.len() < min_forwards {
        let slot = i % xs.len();
        let t = Instant::now();
        let y = forward(&xs[slot]);
        latencies.push(ms_since(t));
        out.attempted += 1;
        if y != refs[slot] {
            out.mismatch(
                NAME,
                &format!("forward={i} input={slot} vs=forward_percall"),
            );
        }
        i += 1;
    }
    (latencies, start.elapsed().as_secs_f64())
}

/// Runs the workload for `secs` seconds of measurement.
///
/// # Errors
/// When a percentile lacks samples or memory cannot be read.
pub fn run(seed: u64, secs: f64, tracer: &Arc<Tracer>) -> Result<Outcome, String> {
    // Split over two vCPUs of a shared host, every kernel call waits for
    // its slower half, and forwards moved by 30-40% between runs; on one
    // CPU they moved by about 3%. The workload measures per-core work.
    pin_to_one_cpu()?;
    let Inputs { dense, xs } = inputs(seed);
    let engine = engine();
    let mut out = Outcome::default();

    let repeats = if tracer.enabled() { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut model = None;
    for _ in 0..repeats {
        drop(model.take());
        let t = Instant::now();
        model = Some(build(&dense, &engine));
        setups.push(t.elapsed().as_secs_f64());
    }
    let model = model.expect("at least one set-up pass");
    // The retained per-call path is the reference for every output.
    let refs: Vec<Matrix<f32>> = xs.iter().map(|x| model.forward_percall(x)).collect();
    let (gflop, mbytes) = work_per_forward(&model);

    if !tracer.enabled() {
        let (lat, wall) = closed_loop(&xs, &refs, secs, MIN_FORWARDS, &mut out, |x| {
            model.forward(x)
        });
        let n = lat.len() as f64;
        out.set("setup_s", median(&setups).expect("set-up ran"));
        out.set("latency_ms_p50", tail(&lat, 50.0)?);
        out.set("latency_ms_p90", tail(&lat, 90.0)?);
        out.set("tokens_per_s", n * SEQ as f64 / wall);
        out.set("requests_per_s", n / wall);
        out.set("peak_rss_mb", peak_rss_mb()?);
        return Ok(out);
    }

    // Traced set-up: the same model, built call by call.
    let op = tracer.op();
    let t = Instant::now();
    let recomposed = traced_build(&dense, &engine, tracer, op);
    tracer.finish_op(op, "setup", t);
    if recomposed.forward(&xs[0]) != model.forward(&xs[0]) {
        out.mismatch(NAME, "setup=recomposed vs=sparsify");
    }
    drop(recomposed);
    for (span, metric) in SETUP_LAYERS {
        out.set(metric, tracer.total_ms(span));
    }

    // Untraced then traced halves; the gap is the tracing overhead.
    let (plain, _) = closed_loop(&xs, &refs, secs / 2.0, 1, &mut out, |x| model.forward(x));
    // Parts-sum check: the recomposed forward is the library's, bit for
    // bit. Checked directly on the first traced forward; every later one
    // is checked against the same per-call reference the library forward
    // matched in the untraced half.
    let checked = Cell::new(false);
    let parts_differ = Cell::new(false);
    let (traced, _) = closed_loop(&xs, &refs, secs / 2.0, 1, &mut out, |x| {
        let op = tracer.op();
        let t = Instant::now();
        let y = traced_forward(&model, x, tracer, op);
        tracer.finish_op(op, "forward", t);
        if !checked.replace(true) && y != model.forward(x) {
            parts_differ.set(true);
        }
        y
    });
    if parts_differ.get() {
        out.mismatch(
            NAME,
            "forward=recomposed vs=SparseTransformerEncoder::forward",
        );
    }
    let forwards = traced.len() as f64;
    let whole: f64 = traced.iter().sum();
    let mut parts = 0.0;
    for (span, metric) in FORWARD_LAYERS {
        let ms = tracer.total_ms(span);
        parts += ms;
        out.set(metric, ms / forwards);
    }
    out.set("dnn.unaccounted_ratio", (whole - parts).abs() / whole);
    out.set("core.gflop_per_op", gflop);
    out.set("core.mbytes_per_op", mbytes);
    out.set(
        "bench.trace_overhead_ratio",
        median(&traced).expect("traced forwards ran") / median(&plain).expect("forwards ran") - 1.0,
    );
    out.set("bench.traced_ops", forwards);
    Ok(out)
}

/// A percentile the sample must support.
pub(crate) fn tail(samples: &[f64], p: f64) -> Result<f64, String> {
    percentile(samples, p).ok_or_else(|| {
        format!(
            "p{p} needs at least {} samples beyond its rank; the run measured {}",
            crate::stats::MIN_BEYOND,
            samples.len()
        )
    })
}

/// The median of a percentile over `windows` consecutive slices of
/// `samples`, each of which must support it.
pub(crate) fn windowed_tail(samples: &[f64], windows: usize, p: f64) -> Result<f64, String> {
    crate::stats::windowed(samples, windows, |w| percentile(w, p)).ok_or_else(|| {
        format!(
            "p{p} needs at least {} samples beyond its rank in each of {windows} windows; \
             the run measured {}",
            crate::stats::MIN_BEYOND,
            samples.len()
        )
    })
}
