//! `perf` — CPU wall-clock harness for the kernel-level series.
//!
//! Times the *functional* (bit-faithful numerics) kernels at fixed,
//! paper-scale transformer shapes — Spatha SpMM, the dense GEMM
//! baseline, V:N:M compression, the engine-planned SpMM dispatch
//! (single and batched), the auto-selected plan (`plan_auto` picks the
//! format), one planned dispatch per non-V:N:M storage format, the
//! roofline-routed band path and the swapped-operand kernel, the int8
//! stream and planned attention — each against a retained slow
//! reference path where one exists, over fixed iteration counts, and
//! writes `BENCH_SPMM.json` (median wall-ms per op plus speedup against
//! the reference). End-to-end numbers (an encoder stack, a serving
//! loop, plan churn) come from the repository benchmark in `benchmark/`,
//! which reports their spread and a per-layer split.
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

use std::fmt::Write as _;
use std::time::Instant;
use venom_bench::vnm_weight;
use venom_core::{spmm, SpmmOptions};
use venom_dnn::{MultiHeadAttention, SparseAttention};
use venom_format::{MatmulFormat, VnmConfig, VnmMatrix};
use venom_fp16::Half;
use venom_pruner::magnitude;
use venom_runtime::{AttentionMask, Engine, MatmulPlan};
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

/// What a series times: everything in its JSON row but the timings.
struct Case {
    op: &'static str,
    label: &'static str,
    r: usize,
    k: usize,
    c: usize,
    config: String,
    /// The roofline regime (`"memory"` / `"compute"`) the dispatched
    /// plan reported at this shape, where the series exercises the
    /// roofline router; the regression gate pins it against the
    /// committed baseline.
    regime: Option<String>,
}

impl Case {
    fn new(
        op: &'static str,
        label: &'static str,
        (r, k, c): (usize, usize, usize),
        config: impl ToString,
    ) -> Case {
        Case {
            op,
            label,
            r,
            k,
            c,
            config: config.to_string(),
            regime: None,
        }
    }
}

struct Series {
    case: Case,
    median_ms: f64,
    /// `(reference name, reference median ms)` where a slow reference path
    /// is retained for comparison.
    reference: Option<(&'static str, f64)>,
}

impl Series {
    fn to_json(&self) -> String {
        let case = &self.case;
        let mut s = String::new();
        write!(
            s,
            "    {{\"op\": \"{}\", \"label\": \"{}\", \"r\": {}, \"k\": {}, \"c\": {}, \
             \"config\": \"{}\", \"median_ms\": {:.3}",
            case.op, case.label, case.r, case.k, case.c, case.config, self.median_ms
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
        if let Some(regime) = &case.regime {
            write!(s, ", \"regime\": \"{regime}\"").unwrap();
        }
        s.push('}');
        s
    }
}

/// The tail every series builder ends with: times `path` over
/// `args.iters` runs and the retained `reference` (name, path), if any,
/// over `args.ref_iters`, prints one `op/label: ms{note} (ref …)` line
/// and returns the series.
fn measure<T, U>(
    case: Case,
    note: &str,
    args: &Args,
    path: impl FnMut() -> T,
    reference: Option<(&'static str, impl FnMut() -> U)>,
) -> Series {
    let median = median_ms(args.iters, path);
    let reference = reference.map(|(name, f)| (name, median_ms(args.ref_iters, f)));
    let ref_note = match reference {
        Some((name, ms)) => format!(" (ref {name}: {ms:.1} ms, {:.2}x)", ms / median),
        None => String::new(),
    };
    eprintln!("{}/{}: {median:.1} ms{note}{ref_note}", case.op, case.label);
    Series {
        case,
        median_ms: median,
        reference,
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
    measure(
        Case::new("spmm", label, (r, k, c), cfg),
        "",
        args,
        || spmm(&a, &b, &opts, &dev).c,
        with_ref.then_some(("VnmMatrix::spmm_ref", || a.spmm_ref(&b))),
    )
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
    measure(
        Case::new("gemm", label, (r, k, c), "dense"),
        "",
        args,
        || gemm::gemm_parallel(&a, &b),
        with_ref.then_some(("gemm_ref", || gemm::gemm_ref(&a, &b))),
    )
}

fn compress_series(label: &'static str, r: usize, k: usize, cfg: VnmConfig, args: &Args) -> Series {
    let w = random::glorot_matrix(r, k, 5);
    let mask = magnitude::prune_vnm(&w, cfg);
    let wh = mask.apply_f32(&w).to_half();
    measure(
        Case::new("compress", label, (r, k, 0), cfg),
        "",
        args,
        || VnmMatrix::compress(&wh, &mask, cfg),
        None::<(&str, fn())>,
    )
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
    measure(
        Case::new("spmm_plan", label, (r, k, c), cfg),
        "",
        args,
        || plan.run(&b),
        Some(("venom_core::spmm (per-call)", || {
            spmm(&a, &b, &opts, &dev).c
        })),
    )
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
    measure(
        Case::new("spmm_plan_batch", label, (r, k, seqs * seq_cols), cfg),
        "",
        args,
        || plan.run_batch(&refs),
        Some(("venom_core::spmm (per-request)", || {
            bs.iter()
                .map(|b| spmm(&a, b, &opts, &dev).c)
                .collect::<Vec<_>>()
        })),
    )
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
    measure(
        Case::new(
            "spmm_auto",
            label,
            (r, k, c),
            format!("{cfg}->{}", plan.format()),
        ),
        &format!(" (chose {})", plan.format()),
        args,
        || plan.run(&b),
        Some(("MatmulPlan::run_oneshot (per-call)", || {
            plan.run_oneshot(&b)
        })),
    )
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
    measure(
        Case::new("spmm_format", label, (r, k, c), format.name()),
        "",
        args,
        || plan.run(&b),
        Some(("SparseKernel::spmm_parallel (per-call)", || {
            plan.run_oneshot(&b)
        })),
    )
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
    let regime = plan.regime(engine.device()).map(|g| g.to_string());
    let note = format!(" ({}-bound)", regime.as_deref().unwrap_or("?"));
    measure(
        Case {
            regime,
            ..Case::new("spmm_band", label, (r, k, c), format!("{cfg}->band"))
        },
        &note,
        args,
        || plan.run(&b),
        Some(("SpmmPlan::run (mma stream)", || mma.run(&b))),
    )
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
    let counts = venom_core::build_counts_band(r, k, c, a.nnz());
    let regime = venom_sim::roofline::analyze(&DeviceConfig::rtx3090(), &counts)
        .regime()
        .to_string();
    measure(
        Case {
            regime: Some(regime.clone()),
            ..Case::new("spmm_swapped", label, (r, k, c), cfg)
        },
        &format!(" ({regime}-bound)"),
        args,
        || venom_core::spmm_swapped(&a, &b),
        Some(("VnmMatrix::spmm_ref", || a.spmm_ref(&b))),
    )
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
    measure(
        Case::new("spmm_i8", label, (r, k, c), format!("{cfg}-i8")),
        "",
        args,
        || qplan.run(&b),
        Some(("venom_core::spmm (f16 per-call)", || {
            spmm(&a, &b, &opts, &dev).c
        })),
    )
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
    measure(
        Case::new("spmm_i8_plan", label, (r, k, c), format!("{cfg}-i8")),
        "",
        args,
        || plan.run(&b),
        Some(("QuantSpmmPlan::run_oneshot (per-call)", || {
            plan.run_oneshot(&b)
        })),
    )
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
    let regime = attn.plan.regime(engine.device()).to_string();
    let note = format!(
        " ({} nnz, {:.0}% dense, {}, {regime}-bound)",
        attn.plan.nnz(),
        100.0 * attn.plan.density(),
        attn.plan.path(),
    );
    measure(
        Case {
            regime: Some(regime),
            ..Case::new(
                "attn",
                label,
                (seq, hidden, seq),
                format!("{mask} h{heads}"),
            )
        },
        &note,
        args,
        || attn.forward(&x),
        Some((
            "SparseAttention::forward_percall (dense masked, per-call)",
            || attn.forward_percall(&x),
        )),
    )
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
    type Builder = fn(&'static str, &Args) -> Series;
    let catalogue: &[(&'static str, Builder)] = &[
        ("fig09_k768_80pct", |l, a| {
            spmm_series(l, 1024, 768, 4096, VnmConfig::new(128, 2, 10), a, true)
        }),
        ("fig09_k1536_80pct", |l, a| {
            spmm_series(l, 1024, 1536, 4096, VnmConfig::new(128, 2, 10), a, true)
        }),
        ("fig09_k3072_90pct", |l, a| {
            spmm_series(l, 1024, 3072, 4096, VnmConfig::new(128, 2, 20), a, true)
        }),
        ("bert_qkv_768", |l, a| {
            gemm_series(l, 1024, 768, 1024, a, true)
        }),
        ("bert_ffn_768x4096", |l, a| {
            gemm_series(l, 1024, 768, 4096, a, false)
        }),
        ("bert_k3072", |l, a| {
            gemm_series(l, 1024, 3072, 1024, a, false)
        }),
        ("bert_1024x4096_80pct", |l, a| {
            compress_series(l, 1024, 4096, VnmConfig::new(128, 2, 10), a)
        }),
        ("bert_1024x12288_95pct", |l, a| {
            compress_series(l, 1024, 12288, VnmConfig::new(128, 2, 40), a)
        }),
        ("gpt3_4096x4096_75pct", |l, a| {
            compress_series(l, 4096, 4096, VnmConfig::new(64, 2, 8), a)
        }),
        // Plan-once/run-many serving paths (ISSUE 3): the same weights,
        // dispatched through the engine instead of the per-call entry
        // points.
        ("fig09_k768_80pct_planned", |l, a| {
            spmm_plan_series(l, 1024, 768, 4096, VnmConfig::new(128, 2, 10), a)
        }),
        ("fig09_k768_batch4x128", |l, a| {
            spmm_plan_batch_series(l, 1024, 768, 128, 4, VnmConfig::new(128, 2, 10), a)
        }),
        // The unified-surface series (ISSUE 4): plan_auto's chosen format
        // at the fig09 shape, plus one planned dispatch per non-V:N:M
        // backend at a lighter column count.
        ("fig09_k768_auto", |l, a| {
            spmm_auto_series(l, 1024, 768, 4096, VnmConfig::new(128, 2, 10), a)
        }),
        ("fmt_nm24_k768", |l, a| {
            let cfg = VnmConfig::new(128, 2, 4);
            spmm_format_series(l, MatmulFormat::Nm, 1024, 768, 1024, cfg, a)
        }),
        ("fmt_csr_k768", |l, a| {
            let cfg = VnmConfig::new(128, 2, 10);
            spmm_format_series(l, MatmulFormat::Csr, 1024, 768, 1024, cfg, a)
        }),
        ("fmt_cvse_k768", |l, a| {
            let cfg = VnmConfig::new(128, 2, 10);
            spmm_format_series(l, MatmulFormat::Cvse, 1024, 768, 1024, cfg, a)
        }),
        ("fmt_blocked_ell_k768", |l, a| {
            let cfg = VnmConfig::new(128, 2, 10);
            spmm_format_series(l, MatmulFormat::BlockedEll, 1024, 768, 1024, cfg, a)
        }),
        // The roofline-dispatch series (ISSUE 8): bandwidth-bound shapes
        // routed to the non-mma band path by `plan_auto`, referenced
        // against the forced mma stream, plus the swapped-operand kernel
        // against the reference SpMM.
        ("spmm_small_c", |l, a| {
            spmm_band_series(l, 1024, 768, 8, VnmConfig::new(128, 2, 10), a)
        }),
        ("spmm_tall_skinny", |l, a| {
            spmm_band_series(l, 4096, 512, 8, VnmConfig::new(64, 2, 8), a)
        }),
        ("spmm_swapped", |l, a| {
            spmm_swapped_series(l, 1024, 768, 8, VnmConfig::new(128, 2, 10), a)
        }),
        // The int8 series (ISSUE 5): the quantized stream versus the f16
        // functional path, and plan-once/run-many on the integer path.
        ("fig09_k768_i8", |l, a| {
            spmm_i8_series(l, 1024, 768, 4096, VnmConfig::new(128, 2, 10), a)
        }),
        ("fig09_k768_i8_plan", |l, a| {
            spmm_i8_plan_series(l, 1024, 768, 4096, VnmConfig::new(128, 2, 10), a)
        }),
        // The planned-attention series (ISSUE 9): one per mask kind, each
        // referenced against the unplanned per-call attention path at the
        // same shape and asserted bit-identical before timing.
        ("attn_causal", |l, a| {
            attn_series(l, 256, 256, 4, AttentionMask::Causal, a)
        }),
        ("attn_sliding_window", |l, a| {
            let mask = AttentionMask::SlidingWindow { window: 64 };
            attn_series(l, 512, 256, 4, mask, a)
        }),
        ("attn_plan_vs_dense", |l, a| {
            attn_series(l, 512, 256, 4, AttentionMask::Blockwise { block: 128 }, a)
        }),
    ];
    let series: Vec<Series> = catalogue
        .iter()
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
