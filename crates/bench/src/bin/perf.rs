//! `perf` — CPU wall-clock harness for the functional execution engine.
//!
//! Times the *functional* (bit-faithful numerics) paths — Spatha SpMM, the
//! dense GEMM baseline, V:N:M compression, the end-to-end planned
//! serving paths (engine-planned SpMM dispatch, batched multi-sequence
//! dispatch, a full BERT-base encoder layer, and a two-layer model
//! forward), the auto-selected plan (`plan_auto` picks the format), and
//! one planned dispatch per non-V:N:M storage format — at paper-scale
//! transformer shapes, over fixed iteration counts, and writes
//! `BENCH_SPMM.json` (median wall-ms per op plus speedup against the
//! retained slow reference paths). Every PR can regenerate the file,
//! giving the repository a machine-readable perf trajectory for the
//! staged-operand pipeline and the plan/execute engine.
//!
//! Usage: `cargo run --release -p venom-bench --bin perf -- [--quick]
//! [--iters N] [--ref-iters N] [--only SUBSTR] [--out PATH]`
//!
//! `--quick` drops to minimal iteration counts (CI smoke); the series list
//! is identical in both modes so consumers can rely on the keys.
//! `--only SUBSTR` runs just the series whose label contains the
//! substring — for local iteration on one series; the emitted JSON then
//! carries a partial series list, so don't commit it as the baseline
//! (the regression gate fails on series missing versus the committed
//! file).

use std::cell::OnceCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use venom_bench::vnm_weight;
use venom_core::{spmm, SpmmOptions};
use venom_dnn::transformer::{EncoderBlock, SparseEncoderBlock, TransformerConfig};
use venom_dnn::TransformerEncoder;
use venom_dnn::{MultiHeadAttention, SparseAttention};
use venom_format::{MatmulFormat, VnmConfig, VnmMatrix};
use venom_fp16::Half;
use venom_pruner::magnitude;
use venom_runtime::{
    AttentionMask, Engine, MatmulPlan, PlanCache, PlanKey, RetryPolicy, ServeConfig, Server,
};
use venom_sim::DeviceConfig;
use venom_tensor::{gemm, random, Matrix};

struct Args {
    iters: usize,
    ref_iters: usize,
    out: String,
    quick: bool,
    /// Run only series whose label contains this substring.
    only: Option<String>,
}

impl Args {
    /// Whether the series with `label` is selected by `--only`.
    fn selected(&self, label: &str) -> bool {
        self.only.as_deref().is_none_or(|o| label.contains(o))
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 5,
        ref_iters: 3,
        out: "BENCH_SPMM.json".to_string(),
        quick: false,
        only: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => {
                args.quick = true;
                args.iters = 2;
                args.ref_iters = 1;
            }
            "--iters" => {
                args.iters = it.next().and_then(|v| v.parse().ok()).expect("--iters N");
            }
            "--ref-iters" => {
                args.ref_iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--ref-iters N");
            }
            "--out" => {
                args.out = it.next().expect("--out PATH");
            }
            "--only" => {
                args.only = Some(it.next().expect("--only SUBSTR"));
            }
            other => panic!(
                "unknown flag {other} (try --quick / --iters / --ref-iters / --only / --out)"
            ),
        }
    }
    assert!(
        args.iters >= 1 && args.ref_iters >= 1,
        "iteration counts must be positive"
    );
    args
}

/// Median wall-clock milliseconds of `iters` runs of `f` (after one
/// warm-up run that also primes the decode table and thread pool).
fn median_ms<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut ts: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut ts)
}

/// The median of `ts`: the middle time of an odd count, the mean of the
/// two middle times of an even one.
fn median(ts: &mut [f64]) -> f64 {
    ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = ts.len() / 2;
    if ts.len().is_multiple_of(2) {
        (ts[mid - 1] + ts[mid]) / 2.0
    } else {
        ts[mid]
    }
}

struct Series {
    op: &'static str,
    label: &'static str,
    r: usize,
    k: usize,
    c: usize,
    config: String,
    median_ms: f64,
    /// `(reference name, reference median ms)` where a slow reference path
    /// is retained for comparison.
    reference: Option<(&'static str, f64)>,
    /// The roofline regime (`"memory"` / `"compute"`) the dispatched
    /// plan reported at this shape, where the series exercises the
    /// roofline router; the regression gate pins it against the
    /// committed baseline.
    regime: Option<String>,
}

impl Series {
    fn to_json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "    {{\"op\": \"{}\", \"label\": \"{}\", \"r\": {}, \"k\": {}, \"c\": {}, \
             \"config\": \"{}\", \"median_ms\": {:.3}",
            self.op, self.label, self.r, self.k, self.c, self.config, self.median_ms
        )
        .unwrap();
        if let Some((name, ref_ms)) = self.reference {
            write!(
                s,
                ", \"ref\": \"{}\", \"ref_median_ms\": {:.3}, \"speedup_vs_ref\": {:.2}",
                name,
                ref_ms,
                ref_ms / self.median_ms
            )
            .unwrap();
        }
        if let Some(regime) = &self.regime {
            write!(s, ", \"regime\": \"{regime}\"").unwrap();
        }
        s.push('}');
        s
    }
}

fn spmm_series(
    label: &'static str,
    r: usize,
    k: usize,
    c: usize,
    cfg: VnmConfig,
    args: &Args,
    with_ref: bool,
) -> Series {
    let a = vnm_weight(r, k, cfg, 1);
    let b = random::normal_matrix(k, c, 0.0, 1.0, 2).to_half();
    let dev = DeviceConfig::rtx3090();
    let opts = SpmmOptions::default();
    let median = median_ms(args.iters, || spmm(&a, &b, &opts, &dev).c);
    let reference = with_ref.then(|| {
        (
            "VnmMatrix::spmm_ref",
            median_ms(args.ref_iters, || a.spmm_ref(&b)),
        )
    });
    eprintln!(
        "spmm/{label}: {median:.1} ms{}",
        ref_note(&reference, median)
    );
    Series {
        op: "spmm",
        label,
        r,
        k,
        c,
        config: cfg.to_string(),
        median_ms: median,
        reference,
        regime: None,
    }
}

fn gemm_series(
    label: &'static str,
    r: usize,
    k: usize,
    c: usize,
    args: &Args,
    with_ref: bool,
) -> Series {
    let a = random::glorot_matrix(r, k, 3).to_half();
    let b = random::normal_matrix(k, c, 0.0, 1.0, 4).to_half();
    let median = median_ms(args.iters, || gemm::gemm_parallel(&a, &b));
    let reference = with_ref.then(|| {
        (
            "gemm_ref",
            median_ms(args.ref_iters, || gemm::gemm_ref(&a, &b)),
        )
    });
    eprintln!(
        "gemm/{label}: {median:.1} ms{}",
        ref_note(&reference, median)
    );
    Series {
        op: "gemm",
        label,
        r,
        k,
        c,
        config: "dense".to_string(),
        median_ms: median,
        reference,
        regime: None,
    }
}

fn compress_series(label: &'static str, r: usize, k: usize, cfg: VnmConfig, args: &Args) -> Series {
    let w = random::glorot_matrix(r, k, 5);
    let mask = magnitude::prune_vnm(&w, cfg);
    let wh = mask.apply_f32(&w).to_half();
    let median = median_ms(args.iters, || VnmMatrix::compress(&wh, &mask, cfg));
    eprintln!("compress/{label}: {median:.1} ms");
    Series {
        op: "compress",
        label,
        r,
        k,
        c: 0,
        config: cfg.to_string(),
        median_ms: median,
        reference: None,
        regime: None,
    }
}

/// Engine-planned SpMM dispatch versus the per-call `spmm` entry point at
/// the same shape (the plan-once/run-many split of ISSUE 3).
fn spmm_plan_series(
    label: &'static str,
    r: usize,
    k: usize,
    c: usize,
    cfg: VnmConfig,
    args: &Args,
) -> Series {
    let a = vnm_weight(r, k, cfg, 1);
    let b = random::normal_matrix(k, c, 0.0, 1.0, 2).to_half();
    let dev = DeviceConfig::rtx3090();
    let opts = SpmmOptions::default();
    let plan = Engine::new(dev.clone()).with_b_cols_hint(c).plan_spmm(&a);
    assert_eq!(
        plan.run(&b),
        spmm(&a, &b, &opts, &dev).c,
        "planned dispatch must stay exact"
    );
    let median = median_ms(args.iters, || plan.run(&b));
    let reference = Some((
        "venom_core::spmm (per-call)",
        median_ms(args.ref_iters, || spmm(&a, &b, &opts, &dev).c),
    ));
    eprintln!(
        "spmm_plan/{label}: {median:.1} ms{}",
        ref_note(&reference, median)
    );
    Series {
        op: "spmm_plan",
        label,
        r,
        k,
        c,
        config: cfg.to_string(),
        median_ms: median,
        reference,
        regime: None,
    }
}

/// Batched serving dispatch: one `run_batch` over `seqs` concatenated
/// requests versus `seqs` separate per-call `spmm` dispatches.
fn spmm_plan_batch_series(
    label: &'static str,
    r: usize,
    k: usize,
    seq_cols: usize,
    seqs: usize,
    cfg: VnmConfig,
    args: &Args,
) -> Series {
    let a = vnm_weight(r, k, cfg, 1);
    let dev = DeviceConfig::rtx3090();
    let opts = SpmmOptions::default();
    let bs: Vec<Matrix<Half>> = (0..seqs)
        .map(|i| random::normal_matrix(k, seq_cols, 0.0, 1.0, 10 + i as u64).to_half())
        .collect();
    let refs: Vec<&Matrix<Half>> = bs.iter().collect();
    let plan = Engine::new(dev.clone())
        .with_b_cols_hint(seqs * seq_cols)
        .plan_spmm(&a);
    let median = median_ms(args.iters, || plan.run_batch(&refs));
    let reference = Some((
        "venom_core::spmm (per-request)",
        median_ms(args.ref_iters, || {
            bs.iter()
                .map(|b| spmm(&a, b, &opts, &dev).c)
                .collect::<Vec<_>>()
        }),
    ));
    eprintln!(
        "spmm_plan_batch/{label}: {median:.1} ms{}",
        ref_note(&reference, median)
    );
    Series {
        op: "spmm_plan_batch",
        label,
        r,
        k,
        c: seqs * seq_cols,
        config: cfg.to_string(),
        median_ms: median,
        reference,
        regime: None,
    }
}

/// End-to-end BERT-base encoder layer: planned forward versus the
/// retained per-call path (every weight op through one-shot `spmm`).
fn encoder_layer_series(label: &'static str, seq: usize, cfg: VnmConfig, args: &Args) -> Series {
    let tcfg = TransformerConfig::bert_base();
    let dev = DeviceConfig::rtx3090();
    let engine = Engine::new(dev.clone()).with_b_cols_hint(seq);
    let block = EncoderBlock::dense(&tcfg, 1);
    let sparse = SparseEncoderBlock::from_dense(&engine, &block, cfg);
    let x = random::activation_matrix(seq, tcfg.hidden, 2);
    assert_eq!(
        sparse.forward(&x),
        sparse.forward_percall(&x),
        "planned layer must stay exact"
    );
    let median = median_ms(args.iters, || sparse.forward(&x));
    let reference = Some((
        "SparseEncoderBlock::forward_percall",
        median_ms(args.ref_iters, || sparse.forward_percall(&x)),
    ));
    eprintln!(
        "encoder_layer/{label}: {median:.1} ms{}",
        ref_note(&reference, median)
    );
    Series {
        op: "encoder_layer",
        label,
        r: tcfg.hidden,
        k: tcfg.ff_inner,
        c: seq,
        config: cfg.to_string(),
        median_ms: median,
        reference,
        regime: None,
    }
}

/// End-to-end model forward: a two-layer BERT-base stack through the
/// planned path versus the per-call path.
fn model_forward_series(label: &'static str, seq: usize, cfg: VnmConfig, args: &Args) -> Series {
    let tcfg = TransformerConfig::new("bert-base-2l", 768, 12, 2, 3072, seq);
    let dev = DeviceConfig::rtx3090();
    let engine = Engine::new(dev.clone()).with_b_cols_hint(seq);
    let sparse = TransformerEncoder::new(tcfg, 3).sparsify(&engine, cfg);
    let x = random::activation_matrix(seq, tcfg.hidden, 4);
    let median = median_ms(args.iters, || sparse.forward(&x));
    let reference = Some((
        "SparseTransformerEncoder::forward_percall",
        median_ms(args.ref_iters, || sparse.forward_percall(&x)),
    ));
    eprintln!(
        "model_forward/{label}: {median:.1} ms{}",
        ref_note(&reference, median)
    );
    Series {
        op: "model_forward",
        label,
        r: tcfg.hidden,
        k: tcfg.ff_inner,
        c: seq,
        config: cfg.to_string(),
        median_ms: median,
        reference,
        regime: None,
    }
}

/// A magnitude-pruned dense half weight (the input `plan_auto` and
/// `plan_with_format` consume).
fn pruned_weight(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> Matrix<Half> {
    let w = random::glorot_matrix(r, k, seed);
    let mask = magnitude::prune_vnm(&w, cfg);
    mask.apply_f32(&w).to_half()
}

/// Auto-selected plan at the fig09 shape: `plan_auto` compresses the
/// pruned weight into every eligible format, prices each, and serves the
/// winner; the series records which format won in `config`.
fn spmm_auto_series(
    label: &'static str,
    r: usize,
    k: usize,
    c: usize,
    cfg: VnmConfig,
    args: &Args,
) -> Series {
    let w = pruned_weight(r, k, cfg, 1);
    let b = random::normal_matrix(k, c, 0.0, 1.0, 2).to_half();
    let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(c);
    let plan = engine.plan_auto(&engine.descriptor(r, k), &w);
    assert_eq!(
        plan.run(&b),
        plan.run_oneshot(&b),
        "auto plan must stay exact"
    );
    let median = median_ms(args.iters, || plan.run(&b));
    let reference = Some((
        "MatmulPlan::run_oneshot (per-call)",
        median_ms(args.ref_iters, || plan.run_oneshot(&b)),
    ));
    eprintln!(
        "spmm_auto/{label}: {median:.1} ms (chose {}){}",
        plan.format(),
        ref_note(&reference, median)
    );
    Series {
        op: "spmm_auto",
        label,
        r,
        k,
        c,
        config: format!("{cfg}->{}", plan.format()),
        median_ms: median,
        reference,
        regime: None,
    }
}

/// One planned dispatch in a forced storage format — the per-format
/// series of the unified surface (V:N:M and dense are covered by the
/// `spmm_plan`/`gemm` series; these are the other four backends).
fn spmm_format_series(
    label: &'static str,
    format: MatmulFormat,
    r: usize,
    k: usize,
    c: usize,
    cfg: VnmConfig,
    args: &Args,
) -> Series {
    let w = pruned_weight(r, k, cfg, 1);
    let b = random::normal_matrix(k, c, 0.0, 1.0, 2).to_half();
    let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(c);
    let plan = engine
        .plan_with_format(format, &engine.descriptor(r, k), &w)
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        plan.run(&b),
        plan.run_oneshot(&b),
        "format plan must stay exact"
    );
    let median = median_ms(args.iters, || plan.run(&b));
    let reference = Some((
        "SparseKernel::spmm_parallel (per-call)",
        median_ms(args.ref_iters, || plan.run_oneshot(&b)),
    ));
    eprintln!(
        "spmm_format/{label}: {median:.1} ms{}",
        ref_note(&reference, median)
    );
    Series {
        op: "spmm_format",
        label,
        r,
        k,
        c,
        config: format.name().to_string(),
        median_ms: median,
        reference,
        regime: None,
    }
}

/// Roofline-routed band dispatch (ISSUE 8): `plan_auto` at a
/// bandwidth-bound shape must route to the non-mma band path; the
/// reference is the forced mma-stream plan at the same shape, so the
/// speedup is exactly the win the router's DRAM-byte pricing predicted.
fn spmm_band_series(
    label: &'static str,
    r: usize,
    k: usize,
    c: usize,
    cfg: VnmConfig,
    args: &Args,
) -> Series {
    let w = pruned_weight(r, k, cfg, 1);
    let b = random::normal_matrix(k, c, 0.0, 1.0, 2).to_half();
    let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(c);
    let desc = engine.descriptor(r, k);
    let plan = engine.plan_auto_hinted(&desc, &w, Some(cfg));
    assert_eq!(
        plan.path(),
        "band",
        "plan_auto must route {label} ({r}x{k}x{c}) to the band path"
    );
    let mma = engine
        .plan_with_format(MatmulFormat::Vnm, &desc, &w)
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(plan.run(&b), mma.run(&b), "band dispatch must stay exact");
    let median = median_ms(args.iters, || plan.run(&b));
    let reference = Some((
        "SpmmPlan::run (mma stream)",
        median_ms(args.ref_iters, || mma.run(&b)),
    ));
    let regime = plan.regime(engine.device()).map(|g| g.to_string());
    eprintln!(
        "spmm_band/{label}: {median:.1} ms ({}-bound){}",
        regime.as_deref().unwrap_or("?"),
        ref_note(&reference, median)
    );
    Series {
        op: "spmm_band",
        label,
        r,
        k,
        c,
        config: format!("{cfg}->band"),
        median_ms: median,
        reference,
        regime,
    }
}

/// The FlashSparse-style swapped-operand kernel head to head with the
/// reference SpMM at the same memory-bound shape — the per-call variant
/// the band plan's `run_oneshot` dispatches.
fn spmm_swapped_series(
    label: &'static str,
    r: usize,
    k: usize,
    c: usize,
    cfg: VnmConfig,
    args: &Args,
) -> Series {
    let a = vnm_weight(r, k, cfg, 1);
    let b = random::normal_matrix(k, c, 0.0, 1.0, 2).to_half();
    assert_eq!(
        venom_core::spmm_swapped(&a, &b),
        a.spmm_ref(&b),
        "swapped kernel must stay exact"
    );
    let median = median_ms(args.iters, || venom_core::spmm_swapped(&a, &b));
    let reference = Some((
        "VnmMatrix::spmm_ref",
        median_ms(args.ref_iters, || a.spmm_ref(&b)),
    ));
    let counts = venom_core::build_counts_band(r, k, c, a.nnz());
    let regime = venom_sim::roofline::analyze(&DeviceConfig::rtx3090(), &counts)
        .regime()
        .to_string();
    eprintln!(
        "spmm_swapped/{label}: {median:.1} ms ({regime}-bound){}",
        ref_note(&reference, median)
    );
    Series {
        op: "spmm_swapped",
        label,
        r,
        k,
        c,
        config: cfg.to_string(),
        median_ms: median,
        reference,
        regime: Some(regime),
    }
}

/// The quantized int8 dispatch versus the f16 functional path at the
/// same shape: the planned i8 stream (per-call operand quantization,
/// exact i32 accumulation, fused dequant) against the per-call f16
/// `venom_core::spmm` entry point — the same functional baseline the
/// `spmm_plan` series references, so the two series decompose the gain
/// into plan-replay and operand-width effects.
fn spmm_i8_series(
    label: &'static str,
    r: usize,
    k: usize,
    c: usize,
    cfg: VnmConfig,
    args: &Args,
) -> Series {
    let a = vnm_weight(r, k, cfg, 1);
    let b = random::normal_matrix(k, c, 0.0, 1.0, 2).to_half();
    let dev = DeviceConfig::rtx3090();
    let opts = SpmmOptions::default();
    let engine = Engine::new(dev.clone()).with_b_cols_hint(c);
    let qplan = engine.plan_quant_spmm(&a);
    // The quantized output must track the f16 path (exact equality is not
    // the contract here — the conformance suite bounds the error).
    let rel =
        venom_tensor::norms::rel_frobenius_error(&qplan.run(&b), &spmm(&a, &b, &opts, &dev).c);
    assert!(rel < 0.05, "quantized output drifted: rel {rel}");
    let median = median_ms(args.iters, || qplan.run(&b));
    let reference = Some((
        "venom_core::spmm (f16 per-call)",
        median_ms(args.ref_iters, || spmm(&a, &b, &opts, &dev).c),
    ));
    eprintln!(
        "spmm_i8/{label}: {median:.1} ms{}",
        ref_note(&reference, median)
    );
    Series {
        op: "spmm_i8",
        label,
        r,
        k,
        c,
        config: format!("{cfg}-i8"),
        median_ms: median,
        reference,
        regime: None,
    }
}

/// Plan-once/run-many on the int8 path: the planned i8 stream replay
/// versus the per-call int8 dispatch (re-quantizes the operand and runs
/// the container's one-shot parallel kernel every invocation).
fn spmm_i8_plan_series(
    label: &'static str,
    r: usize,
    k: usize,
    c: usize,
    cfg: VnmConfig,
    args: &Args,
) -> Series {
    let a = vnm_weight(r, k, cfg, 1);
    let b = random::normal_matrix(k, c, 0.0, 1.0, 2).to_half();
    let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(c);
    let plan = engine.plan_quant_spmm(&a);
    assert_eq!(
        plan.run(&b),
        plan.run_oneshot(&b),
        "planned i8 dispatch must stay exact"
    );
    let median = median_ms(args.iters, || plan.run(&b));
    let reference = Some((
        "QuantSpmmPlan::run_oneshot (per-call)",
        median_ms(args.ref_iters, || plan.run_oneshot(&b)),
    ));
    eprintln!(
        "spmm_i8_plan/{label}: {median:.1} ms{}",
        ref_note(&reference, median)
    );
    Series {
        op: "spmm_i8_plan",
        label,
        r,
        k,
        c,
        config: format!("{cfg}-i8"),
        median_ms: median,
        reference,
        regime: None,
    }
}

/// The planned attention pipeline (ISSUE 9): SDDMM over the mask's
/// condensed gather order, masked softmax over the compressed scores,
/// planned P·V — versus the unplanned per-call attention path (per-call
/// projections plus the dense masked core, re-staged every invocation).
/// The two paths are asserted bit-identical before timing.
fn attn_series(
    label: &'static str,
    seq: usize,
    hidden: usize,
    heads: usize,
    mask: AttentionMask,
    args: &Args,
) -> Series {
    let dev = DeviceConfig::rtx3090();
    let engine = Engine::new(dev.clone()).with_b_cols_hint(seq);
    let mut mha = MultiHeadAttention::dense(hidden, heads, 1);
    mha.sparsify(&engine, VnmConfig::new(16, 2, 8));
    let attn =
        SparseAttention::from_mha(mha, &engine, seq, &mask).unwrap_or_else(|e| panic!("{e}"));
    let x = random::activation_matrix(seq, hidden, 2);
    assert_eq!(
        attn.forward(&x),
        attn.forward_percall(&x),
        "planned attention must stay exact under {mask}"
    );
    eprintln!("attention outputs bit-identical to dense per-call reference: yes");
    let median = median_ms(args.iters, || attn.forward(&x));
    let reference = Some((
        "SparseAttention::forward_percall (dense masked, per-call)",
        median_ms(args.ref_iters, || attn.forward_percall(&x)),
    ));
    let regime = attn.plan.regime(engine.device()).to_string();
    eprintln!(
        "attn/{label}: {median:.1} ms ({} nnz, {:.0}% dense, {}, {regime}-bound){}",
        attn.plan.nnz(),
        100.0 * attn.plan.density(),
        attn.plan.path(),
        ref_note(&reference, median)
    );
    Series {
        op: "attn",
        label,
        r: seq,
        k: hidden,
        c: seq,
        config: format!("{mask} h{heads}"),
        median_ms: median,
        reference,
        regime: Some(regime),
    }
}

/// The serving-under-load numbers one scenario yields: concurrent and
/// sequential wall time plus the per-request latency tail.
struct ServeNumbers {
    conc_ms: f64,
    seq_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Shape of the serving scenario: `SERVE_REQUESTS` operands of
/// `K x SERVE_REQ_COLS` against one fig09-shaped V:N:M weight, served by
/// `SERVE_CONCURRENCY` workers coalescing up to `SERVE_MAX_BATCH`.
const SERVE_REQUESTS: usize = 64;
const SERVE_CONCURRENCY: usize = 4;
const SERVE_MAX_BATCH: usize = 8;
const SERVE_REQ_COLS: usize = 8;

/// Runs the serving scenario: a sequential per-request baseline on one
/// thread, then `args.iters` timed passes through [`Server`] — all
/// sharing one [`PlanCache`], so every pass after the first build runs
/// at a steady-state hit ratio. Outputs are checked bit-identical to the
/// baseline and the hit ratio is asserted ≥ 90%.
fn serve_numbers(args: &Args) -> ServeNumbers {
    let (r, k) = (1024, 768);
    let cfg = VnmConfig::new(128, 2, 10);
    let w = pruned_weight(r, k, cfg, 1);
    let engine =
        Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(SERVE_MAX_BATCH * SERVE_REQ_COLS);
    let plan = engine
        .plan_with_format(MatmulFormat::Vnm, &engine.descriptor(r, k), &w)
        .unwrap_or_else(|e| panic!("{e}"));
    let key = PlanKey::for_weight(*plan.descriptor(), &w);
    let operands: Vec<Matrix<Half>> = (0..SERVE_REQUESTS)
        .map(|i| random::activation_matrix(k, SERVE_REQ_COLS, 2 + i as u64).to_half())
        .collect();

    let seq_ms = median_ms(args.ref_iters, || {
        operands.iter().map(|b| plan.run(b)).collect::<Vec<_>>()
    });
    let baseline: Vec<Matrix<f32>> = operands.iter().map(|b| plan.run(b)).collect();

    let cache = Arc::new(PlanCache::new());
    let run_once = |check: bool| -> (f64, f64, f64) {
        let server = Server::start(
            ServeConfig::default()
                .with_concurrency(SERVE_CONCURRENCY)
                .with_max_batch(SERVE_MAX_BATCH)
                .with_queue_capacity(SERVE_REQUESTS),
            Arc::clone(&cache),
        );
        let registered = Arc::clone(&plan);
        server.register(key, move || Arc::clone(&registered));
        let t0 = Instant::now();
        let outs: Vec<(usize, Matrix<f32>)> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..SERVE_CONCURRENCY)
                .map(|c| {
                    let (server, operands) = (&server, &operands);
                    s.spawn(move || {
                        // Submit the whole stripe before waiting: the
                        // queue fills, so the coalescer sees full
                        // batches instead of whatever happens to be
                        // in flight.
                        let handles: Vec<_> = (c..operands.len())
                            .step_by(SERVE_CONCURRENCY)
                            .map(|i| (i, server.submit(key, operands[i].clone()).expect("submit")))
                            .collect();
                        handles
                            .into_iter()
                            .map(|(i, h)| (i, h.wait().expect("serve")))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let report = server.shutdown();
        if check {
            for (i, out) in &outs {
                assert_eq!(out, &baseline[*i], "served output drifted from plan.run");
            }
        }
        (wall, report.p50_ms, report.p99_ms)
    };

    // One checked warm-up pass, then the timed passes.
    run_once(true);
    let (mut walls, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..args.iters {
        let (wall, p50, p99) = run_once(false);
        walls.push(wall);
        p50s.push(p50);
        p99s.push(p99);
    }
    let stats = cache.stats();
    assert!(
        stats.hit_ratio() >= 0.9,
        "steady-state plan-cache hit ratio {:.3} below 0.9 ({stats:?})",
        stats.hit_ratio()
    );
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    ServeNumbers {
        conc_ms: median(walls),
        seq_ms,
        p50_ms: median(p50s),
        p99_ms: median(p99s),
    }
}

/// The serving wall-clock series: one request stream through the
/// concurrent server versus the same stream dispatched per-request on a
/// single thread.
fn serve_throughput_series(label: &'static str, n: &ServeNumbers) -> Series {
    let reference = Some(("MatmulPlan::run (sequential per-request)", n.seq_ms));
    eprintln!(
        "serve/{label}: {:.1} ms{}",
        n.conc_ms,
        ref_note(&reference, n.conc_ms)
    );
    Series {
        op: "serve",
        label,
        r: 1024,
        k: 768,
        c: SERVE_REQ_COLS,
        config: serve_config_string(),
        median_ms: n.conc_ms,
        reference,
        regime: None,
    }
}

/// A latency-under-load percentile of the serving scenario.
fn serve_latency_series(label: &'static str, percentile_ms: f64) -> Series {
    eprintln!("serve/{label}: {percentile_ms:.2} ms");
    Series {
        op: "serve",
        label,
        r: 1024,
        k: 768,
        c: SERVE_REQ_COLS,
        config: serve_config_string(),
        median_ms: percentile_ms,
        reference: None,
        regime: None,
    }
}

fn serve_config_string() -> String {
    format!("128:2:10 x{SERVE_REQUESTS}req c{SERVE_CONCURRENCY} b{SERVE_MAX_BATCH}")
}

/// The graceful-degradation series (ISSUE 7): the serving scenario with
/// the plan build disabled, so every dispatch rides the per-call
/// `run_oneshot` fallback. The reference is the same per-call path on a
/// single thread — the series prices what degraded mode still buys
/// (worker parallelism) once the planned path is gone.
fn serve_degraded_series(label: &'static str, args: &Args) -> Series {
    let (r, k) = (1024, 768);
    let cfg = VnmConfig::new(128, 2, 10);
    let w = pruned_weight(r, k, cfg, 1);
    let engine =
        Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(SERVE_MAX_BATCH * SERVE_REQ_COLS);
    let plan = engine
        .plan_with_format(MatmulFormat::Vnm, &engine.descriptor(r, k), &w)
        .unwrap_or_else(|e| panic!("{e}"));
    let key = PlanKey::for_weight(*plan.descriptor(), &w);
    let operands: Vec<Matrix<Half>> = (0..SERVE_REQUESTS)
        .map(|i| random::activation_matrix(k, SERVE_REQ_COLS, 2 + i as u64).to_half())
        .collect();

    let seq_ms = median_ms(args.ref_iters, || {
        operands
            .iter()
            .map(|b| plan.run_oneshot(b))
            .collect::<Vec<_>>()
    });
    let baseline: Vec<Matrix<f32>> = operands.iter().map(|b| plan.run_oneshot(b)).collect();

    let run_once = |check: bool| -> f64 {
        // A fresh cache per pass: the build must fail again each time,
        // so every pass serves the whole stream degraded.
        let server = Server::start(
            ServeConfig::default()
                .with_concurrency(SERVE_CONCURRENCY)
                .with_max_batch(SERVE_MAX_BATCH)
                .with_queue_capacity(SERVE_REQUESTS)
                .with_retry(RetryPolicy::none()),
            Arc::new(PlanCache::new()),
        );
        let fallback = Arc::clone(&plan);
        server.register_degradable(
            key,
            || Err("bench: planned path disabled".to_string()),
            fallback,
        );
        let t0 = Instant::now();
        let outs: Vec<(usize, Matrix<f32>)> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..SERVE_CONCURRENCY)
                .map(|c| {
                    let (server, operands) = (&server, &operands);
                    s.spawn(move || {
                        let handles: Vec<_> = (c..operands.len())
                            .step_by(SERVE_CONCURRENCY)
                            .map(|i| (i, server.submit(key, operands[i].clone()).expect("submit")))
                            .collect();
                        handles
                            .into_iter()
                            .map(|(i, h)| (i, h.wait().expect("degraded serve")))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let report = server.shutdown();
        assert_eq!(
            report.degraded, SERVE_REQUESTS as u64,
            "every dispatch must ride the degraded path"
        );
        if check {
            for (i, out) in &outs {
                assert_eq!(
                    out, &baseline[*i],
                    "degraded output drifted from run_oneshot"
                );
            }
        }
        wall
    };

    run_once(true);
    let mut walls: Vec<f64> = (0..args.iters).map(|_| run_once(false)).collect();
    walls.sort_by(f64::total_cmp);
    let conc_ms = walls[walls.len() / 2];
    let reference = Some(("MatmulPlan::run_oneshot (sequential per-request)", seq_ms));
    eprintln!(
        "serve/{label}: {conc_ms:.1} ms{}",
        ref_note(&reference, conc_ms)
    );
    Series {
        op: "serve",
        label,
        r: 1024,
        k: 768,
        c: SERVE_REQ_COLS,
        config: serve_config_string(),
        median_ms: conc_ms,
        reference,
        regime: None,
    }
}

fn ref_note(reference: &Option<(&'static str, f64)>, median_ms: f64) -> String {
    match reference {
        Some((name, ms)) => format!(" (ref {name}: {ms:.1} ms, {:.2}x)", ms / median_ms),
        None => String::new(),
    }
}

fn main() {
    let args = parse_args();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Figure 9 fixes the outer dimensions at one BERT-large linear layer
    // (R = 1024, C = 4096) and sweeps the sparsified K; the harness takes
    // three points of that sweep plus compression at the same weights.
    //
    // One catalogue row per series: the label is written once and passed
    // to the builder, so the `--only` selection can never drift from the
    // emitted label.
    type Builder = Box<dyn FnOnce(&'static str, &Args) -> Series>;
    // The three serve_* series come from one scenario run: the cell is
    // filled by whichever of them executes first (and never filled when
    // `--only` deselects all three).
    let serve_cell: Rc<OnceCell<ServeNumbers>> = Rc::new(OnceCell::new());
    let (serve_a, serve_b, serve_c) = (
        Rc::clone(&serve_cell),
        Rc::clone(&serve_cell),
        Rc::clone(&serve_cell),
    );
    let catalogue: Vec<(&'static str, Builder)> = vec![
        (
            "fig09_k768_80pct",
            Box::new(|l, a| spmm_series(l, 1024, 768, 4096, VnmConfig::new(128, 2, 10), a, true)),
        ),
        (
            "fig09_k1536_80pct",
            Box::new(|l, a| spmm_series(l, 1024, 1536, 4096, VnmConfig::new(128, 2, 10), a, true)),
        ),
        (
            "fig09_k3072_90pct",
            Box::new(|l, a| spmm_series(l, 1024, 3072, 4096, VnmConfig::new(128, 2, 20), a, true)),
        ),
        (
            "bert_qkv_768",
            Box::new(|l, a| gemm_series(l, 1024, 768, 1024, a, true)),
        ),
        (
            "bert_ffn_768x4096",
            Box::new(|l, a| gemm_series(l, 1024, 768, 4096, a, false)),
        ),
        (
            "bert_k3072",
            Box::new(|l, a| gemm_series(l, 1024, 3072, 1024, a, false)),
        ),
        (
            "bert_1024x4096_80pct",
            Box::new(|l, a| compress_series(l, 1024, 4096, VnmConfig::new(128, 2, 10), a)),
        ),
        (
            "bert_1024x12288_95pct",
            Box::new(|l, a| compress_series(l, 1024, 12288, VnmConfig::new(128, 2, 40), a)),
        ),
        (
            "gpt3_4096x4096_75pct",
            Box::new(|l, a| compress_series(l, 4096, 4096, VnmConfig::new(64, 2, 8), a)),
        ),
        // Plan-once/run-many serving paths (ISSUE 3): the same weights,
        // dispatched through the engine instead of the per-call entry
        // points.
        (
            "fig09_k768_80pct_planned",
            Box::new(|l, a| spmm_plan_series(l, 1024, 768, 4096, VnmConfig::new(128, 2, 10), a)),
        ),
        (
            "fig09_k768_batch4x128",
            Box::new(|l, a| {
                spmm_plan_batch_series(l, 1024, 768, 128, 4, VnmConfig::new(128, 2, 10), a)
            }),
        ),
        (
            "bert_base_seq128",
            Box::new(|l, a| encoder_layer_series(l, 128, VnmConfig::new(64, 2, 10), a)),
        ),
        (
            "bert_base_2layer_seq128",
            Box::new(|l, a| model_forward_series(l, 128, VnmConfig::new(64, 2, 10), a)),
        ),
        // The unified-surface series (ISSUE 4): plan_auto's chosen format
        // at the fig09 shape, plus one planned dispatch per non-V:N:M
        // backend at a lighter column count.
        (
            "fig09_k768_auto",
            Box::new(|l, a| spmm_auto_series(l, 1024, 768, 4096, VnmConfig::new(128, 2, 10), a)),
        ),
        (
            "fmt_nm24_k768",
            Box::new(|l, a| {
                spmm_format_series(
                    l,
                    MatmulFormat::Nm,
                    1024,
                    768,
                    1024,
                    VnmConfig::new(128, 2, 4),
                    a,
                )
            }),
        ),
        (
            "fmt_csr_k768",
            Box::new(|l, a| {
                spmm_format_series(
                    l,
                    MatmulFormat::Csr,
                    1024,
                    768,
                    1024,
                    VnmConfig::new(128, 2, 10),
                    a,
                )
            }),
        ),
        (
            "fmt_cvse_k768",
            Box::new(|l, a| {
                spmm_format_series(
                    l,
                    MatmulFormat::Cvse,
                    1024,
                    768,
                    1024,
                    VnmConfig::new(128, 2, 10),
                    a,
                )
            }),
        ),
        (
            "fmt_blocked_ell_k768",
            Box::new(|l, a| {
                spmm_format_series(
                    l,
                    MatmulFormat::BlockedEll,
                    1024,
                    768,
                    1024,
                    VnmConfig::new(128, 2, 10),
                    a,
                )
            }),
        ),
        // The roofline-dispatch series (ISSUE 8): bandwidth-bound shapes
        // routed to the non-mma band path by `plan_auto`, referenced
        // against the forced mma stream, plus the swapped-operand kernel
        // against the reference SpMM.
        (
            "spmm_small_c",
            Box::new(|l, a| spmm_band_series(l, 1024, 768, 8, VnmConfig::new(128, 2, 10), a)),
        ),
        (
            "spmm_tall_skinny",
            Box::new(|l, a| spmm_band_series(l, 4096, 512, 8, VnmConfig::new(64, 2, 8), a)),
        ),
        (
            "spmm_swapped",
            Box::new(|l, a| spmm_swapped_series(l, 1024, 768, 8, VnmConfig::new(128, 2, 10), a)),
        ),
        // The int8 series (ISSUE 5): the quantized stream versus the f16
        // functional path, and plan-once/run-many on the integer path.
        (
            "fig09_k768_i8",
            Box::new(|l, a| spmm_i8_series(l, 1024, 768, 4096, VnmConfig::new(128, 2, 10), a)),
        ),
        (
            "fig09_k768_i8_plan",
            Box::new(|l, a| spmm_i8_plan_series(l, 1024, 768, 4096, VnmConfig::new(128, 2, 10), a)),
        ),
        // The serving-under-load series (ISSUE 6): one request stream
        // through the concurrent server (bounded queue, coalescer, shared
        // plan cache) versus sequential per-request dispatch, plus the
        // latency tail the concurrent path delivers.
        (
            "serve_throughput_c4",
            Box::new(move |l, a| {
                serve_throughput_series(l, serve_a.get_or_init(|| serve_numbers(a)))
            }),
        ),
        (
            "serve_p50_c4",
            Box::new(move |l, a| {
                serve_latency_series(l, serve_b.get_or_init(|| serve_numbers(a)).p50_ms)
            }),
        ),
        (
            "serve_p99_c4",
            Box::new(move |l, a| {
                serve_latency_series(l, serve_c.get_or_init(|| serve_numbers(a)).p99_ms)
            }),
        ),
        // The fault-tolerance series (ISSUE 7): the same stream with the
        // planned path disabled — what graceful degradation still
        // delivers over naive sequential per-call fallback.
        ("serve_degraded_c4", Box::new(serve_degraded_series)),
        // The planned-attention series (ISSUE 9): one per mask kind, each
        // referenced against the unplanned per-call attention path at the
        // same shape and asserted bit-identical before timing.
        (
            "attn_causal",
            Box::new(|l, a| attn_series(l, 256, 256, 4, AttentionMask::Causal, a)),
        ),
        (
            "attn_sliding_window",
            Box::new(|l, a| {
                attn_series(
                    l,
                    512,
                    256,
                    4,
                    AttentionMask::SlidingWindow { window: 64 },
                    a,
                )
            }),
        ),
        (
            "attn_plan_vs_dense",
            Box::new(|l, a| {
                attn_series(l, 512, 256, 4, AttentionMask::Blockwise { block: 128 }, a)
            }),
        ),
    ];
    let series: Vec<Series> = catalogue
        .into_iter()
        .filter(|(label, _)| args.selected(label))
        .map(|(label, build)| build(label, &args))
        .collect();
    assert!(
        !series.is_empty(),
        "--only {:?} matched no series labels",
        args.only
    );

    let mut json = String::from("{\n");
    writeln!(json, "  \"schema\": 1,").unwrap();
    writeln!(json, "  \"generated_by\": \"venom-bench perf\",").unwrap();
    writeln!(
        json,
        "  \"mode\": \"{}\",",
        if args.quick { "quick" } else { "full" }
    )
    .unwrap();
    writeln!(json, "  \"iters\": {},", args.iters).unwrap();
    writeln!(json, "  \"ref_iters\": {},", args.ref_iters).unwrap();
    writeln!(json, "  \"threads\": {threads},").unwrap();
    writeln!(json, "  \"series\": [").unwrap();
    let rows: Vec<String> = series.iter().map(Series::to_json).collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");

    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    eprintln!("wrote {}", args.out);
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_two_middles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [9.6, 0.4]), 5.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }
}
