//! Command implementations for the `venom` CLI.

use crate::args::{AttentionChoice, Command, FormatChoice, USAGE};
use std::sync::Arc;
use venom_baselines::cublas::DenseGemm;
use venom_core::{spmm_time_tuned, SpmmOptions};
use venom_dnn::layers::PlanStrategy;
use venom_dnn::transformer::TransformerConfig;
use venom_dnn::TransformerEncoder;
use venom_format::{MatmulFormat, SparsityMask, VnmConfig, VnmMatrix};
use venom_pruner::{energy, magnitude};
use venom_quant::Calibration;
use venom_runtime::{
    AttentionMask, AttentionPlan, DType, Engine, FaultConfig, FaultTrips, MatmulPlan, PlanCache,
    PlanKey, RetryPolicy, ServeConfig, Server,
};
use venom_sim::DeviceConfig;
use venom_tensor::{random, GemmShape, Half, Matrix};

fn device_by_name(name: &str) -> DeviceConfig {
    match name {
        "a100" => DeviceConfig::a100(),
        _ => DeviceConfig::rtx3090(),
    }
}

/// Maps a validated `--format`/`--dtype` pair onto the planning strategy.
///
/// # Errors
/// Returns a message when the pair has no execution path (int8 runs in
/// the quantized V:N:M container, so `--dtype i8` needs `vnm` or `auto`).
fn strategy_of(format: FormatChoice, dtype: DType) -> Result<PlanStrategy, String> {
    match (dtype, format) {
        (DType::F16, FormatChoice::Auto) => Ok(PlanStrategy::Auto),
        (DType::F16, FormatChoice::Band) => Ok(PlanStrategy::Band),
        (DType::F16, FormatChoice::Fixed(MatmulFormat::Vnm)) => Ok(PlanStrategy::Vnm),
        (DType::F16, FormatChoice::Fixed(f)) => Ok(PlanStrategy::Format(f)),
        (DType::I8, FormatChoice::Fixed(MatmulFormat::Vnm)) => {
            Ok(PlanStrategy::Quantized(Calibration::AbsMax))
        }
        (DType::I8, FormatChoice::Auto) => Ok(PlanStrategy::AutoQuantized(Calibration::AbsMax)),
        (DType::I8, FormatChoice::Band) => Err(
            "--dtype i8 has no 'band' execution path: there is no int8 band price or \
             candidate (use --format vnm or --format auto)"
                .to_string(),
        ),
        (DType::I8, FormatChoice::Fixed(f)) => Err(format!(
            "--dtype i8 has no '{f}' execution path: the int8 pipeline runs in the \
             quantized V:N:M container (use --format vnm or --format auto)"
        )),
    }
}

/// Runs a parsed command and returns the report text.
pub fn execute(cmd: &Command) -> String {
    match cmd {
        Command::Help => USAGE.to_string(),
        Command::Info { device } => info(&device_by_name(device)),
        Command::Compress {
            rows,
            cols,
            pattern,
            seed,
        } => compress(*rows, *cols, *pattern, *seed),
        Command::Bench {
            shape,
            pattern,
            format,
            dtype,
            device,
        } => bench(*shape, *pattern, *format, *dtype, &device_by_name(device)),
        Command::Energy {
            rows,
            cols,
            sparsity,
        } => energy_report(*rows, *cols, *sparsity),
        Command::Serve {
            requests,
            concurrency,
            max_batch,
            queue,
            shape,
            req_cols,
            pattern,
            device,
            seed,
            deadline_ms,
            inject,
            metrics_out,
            trace_out,
        } => serve(
            *requests,
            *concurrency,
            *max_batch,
            *queue,
            *shape,
            *req_cols,
            *pattern,
            &device_by_name(device),
            *seed,
            *deadline_ms,
            *inject,
            metrics_out.as_deref(),
            trace_out.as_deref(),
        ),
        Command::Infer {
            model,
            layers,
            seq,
            batch,
            pattern,
            format,
            dtype,
            device,
            seed,
            attention,
            profile,
        } => infer(
            model,
            *layers,
            *seq,
            *batch,
            *pattern,
            *format,
            *dtype,
            &device_by_name(device),
            *seed,
            *attention,
            *profile,
        ),
    }
}

fn info(dev: &DeviceConfig) -> String {
    format!(
        "{}\n\
         SMs: {} @ {:.3} GHz | DRAM {:.0} GB/s | L2 {} MiB | SMEM/SM {} KiB\n\
         dense tensor peak : {:.1} TFLOP/s (fp16, f32 accumulate)\n\
         sparse tensor peak: {:.1} TFLOP/s (2:4 mma.sp)\n\
         CUDA-core fp32    : {:.1} TFLOP/s",
        dev.name,
        dev.sm_count,
        dev.clock_ghz,
        dev.dram_bw_gbps,
        dev.l2_bytes / (1024 * 1024),
        dev.smem_per_sm / 1024,
        dev.dense_tensor_flops() / 1e12,
        dev.sparse_tensor_flops() / 1e12,
        dev.cuda_fp32_flops() / 1e12,
    )
}

fn compress(rows: usize, cols: usize, (v, n, m): (usize, usize, usize), seed: u64) -> String {
    let cfg = VnmConfig::new(v, n, m);
    let w = random::glorot_matrix(rows, cols, seed);
    let mask: SparsityMask = magnitude::prune_vnm(&w, cfg);
    let vnm = VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg);
    format!(
        "pattern {cfg} on {rows}x{cols} (seed {seed})\n\
         sparsity          : {:.2}% ({} nonzeros kept)\n\
         energy preserved  : {:.3}\n\
         values            : {} B\n\
         m-indices         : {} B\n\
         column-loc        : {} B\n\
         compression ratio : {:.2}x vs dense fp16",
        100.0 * mask.sparsity(),
        vnm.nnz(),
        energy(&w, &mask),
        vnm.values_bytes(),
        vnm.m_indices_bytes(),
        vnm.column_loc_bytes(),
        vnm.compression_ratio(),
    )
}

fn bench(
    (r, k, c): (usize, usize, usize),
    (v, n, m): (usize, usize, usize),
    format: FormatChoice,
    dtype: DType,
    dev: &DeviceConfig,
) -> String {
    let cfg = VnmConfig::new(v, n, m);
    let dense = DenseGemm::time(GemmShape::new(r, k, c), dev);
    if format == FormatChoice::Fixed(MatmulFormat::Vnm) && dtype == DType::F16 {
        // The paper's headline comparison: Spatha's tuned kernel on the
        // shape-only cost model (no weight needs materialising).
        let opts = SpmmOptions::default();
        let sparse = spmm_time_tuned(r, k, c, cfg, &opts, dev);
        let (tile, _) = venom_core::autotune(r, k, c, cfg, &opts, dev);
        let roof = venom_sim::roofline::analyze(
            dev,
            &venom_core::build_counts(r, k, c, cfg, &tile, &opts),
        );
        // The companion SDDMM at the same shape (scores sampled where the
        // pattern keeps them): its regime tells the attention planner
        // which side of the roofline Q·K^T lands on for this pattern.
        let sddmm_roof = venom_sim::roofline::analyze(dev, &venom_core::sddmm_counts(r, k, c, cfg));
        return format!(
            "{} — GEMM {r}x{k}x{c}, pattern {cfg}\n\
             cuBLAS (dense)  : {:8.3} ms  ({:.1} TFLOP/s)\n\
             Spatha ({cfg})  : {:8.3} ms  ({:.1} effective TFLOP/s, {:?}-limited)\n\
             roofline        : {:.1} FLOP/B vs ridge {:.1} — {}-bound on the 'vnm' path\n\
             sddmm roofline  : {:.1} FLOP/B vs ridge {:.1} — {}-bound sampling this pattern\n\
             speedup         : {:.2}x (theoretical cap {:.0}x)",
            dev.name,
            dense.time_ms,
            dense.tflops,
            sparse.time_ms,
            sparse.tflops,
            sparse.limiter,
            roof.intensity,
            roof.ridge,
            roof.regime(),
            sddmm_roof.intensity,
            sddmm_roof.ridge,
            sddmm_roof.regime(),
            dense.time_ms / sparse.time_ms,
            cfg.theoretical_speedup_cap(),
        );
    }
    // Any other format goes through the unified plan surface: prune a
    // weight to the pattern, plan it in the requested (or auto-chosen)
    // format, and report the priced launch against dense.
    let w = random::glorot_matrix(r, k, 2023);
    let mask = magnitude::prune_vnm(&w, cfg);
    let pruned = mask.apply_f32(&w).to_half();
    let engine = Engine::new(dev.clone()).with_b_cols_hint(c);
    let desc = engine.descriptor(r, k).with_dtype(dtype);
    let plan = match format {
        FormatChoice::Auto => engine.plan_auto_hinted(&desc, &pruned, Some(cfg)),
        FormatChoice::Band => match engine.plan_band_hinted(&desc, &pruned, Some(cfg)) {
            Ok(p) => p,
            Err(e) => return format!("{e}"),
        },
        FormatChoice::Fixed(f) => match engine.plan_with_format(f, &desc, &pruned) {
            Ok(p) => p,
            Err(e) => return format!("{e}"),
        },
    };
    let mut out = format!(
        "{} — GEMM {r}x{k}x{c}, pattern {cfg}, format {}, dtype {}\n\
         cuBLAS (dense)  : {:8.3} ms  ({:.1} TFLOP/s)",
        dev.name,
        plan.path(),
        plan.descriptor().dtype,
        dense.time_ms,
        dense.tflops,
    );
    match plan.timing() {
        Some(t) => {
            out += &format!(
                "\n{:<16}: {:8.3} ms  ({:.1} effective TFLOP/s, {:?}-limited)\n\
                 speedup         : {:.2}x vs dense",
                plan.path(),
                t.time_ms,
                t.tflops,
                t.limiter,
                dense.time_ms / t.time_ms,
            );
        }
        None => out += "\n(no launchable configuration to price)",
    }
    if let Some(roof) = plan.roofline(engine.device()) {
        out += &format!(
            "\nroofline        : {:.1} FLOP/B vs ridge {:.1} — {}-bound on the '{}' path",
            roof.intensity,
            roof.ridge,
            roof.regime(),
            plan.path(),
        );
    }
    out
}

/// Serves `batch` sequences through a planned sparse encoder stack: build
/// once (prune, compress, plan each weight in the chosen format), run
/// many (one plan replay per weight op per request) — the end-to-end
/// descriptor/plan split.
#[allow(clippy::too_many_arguments)]
fn infer(
    model: &str,
    layers: Option<usize>,
    seq: usize,
    batch: usize,
    (v, n, m): (usize, usize, usize),
    format: FormatChoice,
    dtype: DType,
    dev: &DeviceConfig,
    seed: u64,
    attention: AttentionChoice,
    profile: bool,
) -> String {
    let preset = match model {
        "bert-base" => TransformerConfig::bert_base(),
        "bert-large" => TransformerConfig::bert_large(),
        "mini" => TransformerConfig::new("mini", 64, 4, 2, 128, 128),
        other => return format!("unknown model '{other}' (expected bert-base, bert-large, mini)"),
    };
    if seq == 0 || batch == 0 {
        return "both --seq and --batch must be at least 1".to_string();
    }
    // Functional execution on a CPU: default to a two-layer slice of the
    // preset (the per-layer numbers extrapolate; --layers overrides).
    let layer_count = layers.unwrap_or_else(|| preset.layers.min(2));
    let cfg = TransformerConfig::new(
        preset.name,
        preset.hidden,
        preset.heads,
        layer_count,
        preset.ff_inner,
        seq,
    );
    let pattern = VnmConfig::new(v, n, m);
    let strategy = match strategy_of(format, dtype) {
        Ok(s) => s,
        Err(e) => return e,
    };

    let t0 = std::time::Instant::now();
    let engine = Engine::new(dev.clone()).with_b_cols_hint(seq * batch);
    let mut sparse =
        match TransformerEncoder::new(cfg, seed).sparsify_with(&engine, pattern, strategy) {
            Ok(s) => s,
            Err(e) => return format!("{e}"),
        };
    if attention == AttentionChoice::Planned {
        // Adopt the planned causal pipeline in every block: SDDMM over
        // each row's run of the mask, masked softmax over the
        // compressed scores, planned P·V — one plan shared stack-wide.
        if let Err(e) = sparse.adopt_planned_attention(&engine, seq, &AttentionMask::Causal) {
            return format!("{e}");
        }
    }
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;

    let xs: Vec<Matrix<f32>> = (0..batch)
        .map(|i| random::activation_matrix(seq, cfg.hidden, seed + 1 + i as u64))
        .collect();
    let refs: Vec<&Matrix<f32>> = xs.iter().collect();
    let t1 = std::time::Instant::now();
    let outs = sparse.forward_batch(&refs);
    let run_ms = t1.elapsed().as_secs_f64() * 1e3;
    let tokens = batch * seq;

    // Which storage formats the engine actually chose, weight by weight.
    let census = sparse
        .format_census()
        .iter()
        .map(|(f, count)| format!("{f} x{count}"))
        .collect::<Vec<_>>()
        .join(", ");
    // The execution path and roofline regime each plan landed on — the
    // dispatch decision the roofline router made per weight.
    let regimes = sparse
        .path_census(engine.device())
        .iter()
        .map(|(key, count)| format!("{key} x{count}"))
        .collect::<Vec<_>>()
        .join(", ");
    // Which attention core each block runs — `planned <mask>` for
    // adopted layers, `dense` otherwise.
    let attn_census = sparse
        .attention_census()
        .iter()
        .map(|(kind, count)| format!("{kind} x{count}"))
        .collect::<Vec<_>>()
        .join(", ");
    // Publish the census counts and planned pricing as registry gauges,
    // then read the planned weight-op time back from the registry — the
    // report line and an operator scraping the process see one number.
    sparse.publish_census_gauges(engine.device());
    let plan_gpu_ms = venom_obs::registry()
        .gauge("dnn_planned_weight_op_ms", &[])
        .get();

    let mut out = format!(
        "{} x{layer_count} layer(s), pattern {pattern}, seq {seq}, batch {batch} on {}\n\
         weight formats (--format {format}, --dtype {dtype})   : {census}\n\
         attention cores (--attention {attention})          : {attn_census}\n\
         roofline regimes (path/bound at plan time)       : {regimes}\n\
         plan build (prune + compress + tune + stage)     : {plan_ms:9.1} ms (once)\n\
         serve {batch} request(s), {tokens} tokens        : {run_ms:9.1} ms wall\n\
         per-request                                      : {:9.1} ms\n\
         throughput (functional CPU execution)            : {:9.1} tokens/s\n\
         simulated weight-op time captured in the plans   : {plan_gpu_ms:9.3} ms\n\
         outputs: {} matrices of {}x{}",
        cfg.name,
        dev.name,
        run_ms / batch as f64,
        tokens as f64 / (run_ms / 1e3),
        outs.len(),
        outs[0].rows(),
        outs[0].cols(),
    );
    if profile {
        out += &profile_probes(dev, attention, seq, cfg.hidden, cfg.heads);
    }
    out
}

/// `--profile`: replays the pinned acceptance shapes with per-phase
/// profiling enabled and reports each kernel's measured compulsory-byte
/// intensity next to its [`Roofline`](venom_sim::roofline::Roofline)
/// prediction — the fig09 mma shape, the skinny band shape, and (when
/// adopted) the planned causal attention core at the served shape.
fn profile_probes(
    dev: &DeviceConfig,
    attention: AttentionChoice,
    seq: usize,
    hidden: usize,
    heads: usize,
) -> String {
    venom_obs::profile::set_enabled(true);
    let mut out = String::from("\nper-phase kernel profile (pinned probes):");
    out += &spmm_probe(dev, 4096, false);
    out += &spmm_probe(dev, 8, true);
    if attention == AttentionChoice::Planned {
        out += &attention_probe(dev, seq, hidden, heads);
    }
    venom_obs::profile::set_enabled(false);
    out
}

/// One pinned SpMM probe: plans `1024x768` under the fig09 pattern
/// `128:2:10`, replays it against a fresh `768 x c` operand, and
/// compares the replay's phase-accounted traffic to the plan's roofline.
/// `band` routes the skinny shape through the non-mma band stream.
fn spmm_probe(dev: &DeviceConfig, c: usize, band: bool) -> String {
    let (r, k) = (1024usize, 768usize);
    let cfg = VnmConfig::new(128, 2, 10);
    let w = random::glorot_matrix(r, k, 2023);
    let pruned = magnitude::prune_vnm(&w, cfg).apply_f32(&w).to_half();
    let engine = Engine::new(dev.clone()).with_b_cols_hint(c);
    let desc = engine.descriptor(r, k);
    let planned = if band {
        engine.plan_band_hinted(&desc, &pruned, Some(cfg))
    } else {
        engine.plan_with_format(MatmulFormat::Vnm, &desc, &pruned)
    };
    let plan = match planned {
        Ok(p) => p,
        Err(e) => return format!("\n  probe {r}x{k}x{c} unavailable: {e}"),
    };
    let kernel = if band { "spmm[band]" } else { "spmm[mma]" };
    let Some(roof) = plan.roofline(engine.device()) else {
        return format!("\n  {kernel} {r}x{k}x{c}: no priced roofline to compare against");
    };
    venom_obs::profile::reset();
    let b = random::activation_matrix(k, c, 7).to_half();
    let _ = plan.run(&b);
    probe_report(kernel, &format!("{r}x{k}x{c}"), &roof)
}

/// The planned causal attention probe at the served shape: one replay of
/// the condensed softmax(QKᵀ)V chain under profiling, compared against
/// the attention plan's priced roofline.
fn attention_probe(dev: &DeviceConfig, seq: usize, hidden: usize, heads: usize) -> String {
    let plan = match AttentionPlan::build(seq, hidden, heads, AttentionMask::Causal, dev) {
        Ok(p) => p,
        Err(e) => return format!("\n  attention probe unavailable: {e}"),
    };
    let roof = plan.roofline(dev);
    venom_obs::profile::reset();
    let q = random::activation_matrix(seq, hidden, 11);
    let k = random::activation_matrix(seq, hidden, 12);
    let v = random::activation_matrix(seq, hidden, 13);
    let _ = plan.attention(&q, &k, &v);
    probe_report(
        "attention",
        &format!("seq {seq}, hidden {hidden}, heads {heads} (causal)"),
        &roof,
    )
}

/// Renders one probe's `predicted vs measured` roofline verdict and
/// per-phase table from the profile records accumulated under `kernel`,
/// and publishes the byte-model fidelity gauge
/// (`kernel_model_byte_fidelity{kernel=}`: modelled post-L2 DRAM bytes
/// over measured compulsory bytes).
fn probe_report(kernel: &str, shape: &str, roof: &venom_sim::roofline::Roofline) -> String {
    let recs: Vec<_> = venom_obs::profile::snapshot()
        .into_iter()
        .filter(|rec| rec.kernel == kernel)
        .collect();
    let measured_bytes: u64 = recs.iter().map(|rec| rec.stat.bytes).sum();
    let measured_ns: u64 = recs.iter().map(|rec| rec.stat.ns).sum();
    if measured_bytes == 0 {
        return format!("\n  {kernel} {shape}: no phase records captured");
    }
    let measured = roof.flops / measured_bytes as f64;
    let measured_regime = if measured < roof.ridge {
        "memory"
    } else {
        "compute"
    };
    let predicted_regime = roof.regime().to_string();
    let fidelity = roof.dram_bytes / measured_bytes as f64;
    venom_obs::registry()
        .gauge("kernel_model_byte_fidelity", &[("kernel", kernel)])
        .set(fidelity);
    let phases = recs
        .iter()
        .map(|rec| {
            format!(
                "{} {:.3} ms / {:.2} MB",
                rec.phase,
                rec.stat.ns as f64 / 1e6,
                rec.stat.bytes as f64 / 1e6
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "\n  {kernel} {shape} predicted vs measured: {:.1} vs {measured:.1} FLOP/B \
         (ridge {:.1}) — {predicted_regime} / {measured_regime} ({})\n    \
         phases ({:.3} ms replay): {phases}\n    \
         model bytes {:.2} MB vs compulsory {:.2} MB (byte fidelity {fidelity:.2})",
        roof.intensity,
        roof.ridge,
        if predicted_regime == measured_regime {
            "agree"
        } else {
            "DISAGREE"
        },
        measured_ns as f64 / 1e6,
        roof.dram_bytes / 1e6,
        measured_bytes as f64 / 1e6,
    )
}

/// Injected worker panics are caught and answered by the supervisor,
/// but the default panic hook would still print a backtrace per event;
/// filter those (and only those) out so the fault report stays legible.
fn silence_injected_panics() {
    use venom_runtime::serve::InjectedPanic;
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                default_hook(info);
            }
        }));
    });
}

/// Drives the concurrent serving runtime end to end: plans one V:N:M
/// weight, times a sequential per-request baseline on a single thread,
/// then replays the same request stream through [`Server`] — bounded
/// queue, coalescer, shared [`PlanCache`] — and reports throughput,
/// tail latency, batch shape and cache counters. Every concurrent
/// output is checked bit-identical against the sequential baseline.
///
/// With `--inject` the builder and plan are wrapped in the seeded
/// [`FaultConfig`], the plan is registered with the pristine plan as a
/// per-call degradation baseline, and clients switch to retrying
/// submission plus bounded waits; the report then also accounts every
/// request as resolved (a result or a typed error — never lost).
#[allow(clippy::too_many_arguments)]
fn serve(
    requests: usize,
    concurrency: usize,
    max_batch: usize,
    queue: usize,
    (r, k): (usize, usize),
    req_cols: usize,
    (v, n, m): (usize, usize, usize),
    dev: &DeviceConfig,
    seed: u64,
    deadline_ms: Option<u64>,
    inject: Option<FaultConfig>,
    metrics_out: Option<&str>,
    trace_out: Option<&str>,
) -> String {
    if trace_out.is_some() {
        // Pin the trace epoch and drop spans left over from earlier runs
        // in this process so the written file covers only this serve.
        venom_obs::trace::set_enabled(true);
        let _ = venom_obs::trace::drain();
    }
    let cfg = VnmConfig::new(v, n, m);
    let w = random::glorot_matrix(r, k, seed);
    let mask = magnitude::prune_vnm(&w, cfg);
    let pruned = mask.apply_f32(&w).to_half();
    let engine = Engine::new(dev.clone()).with_b_cols_hint(max_batch * req_cols);
    let plan: Arc<dyn MatmulPlan> =
        match engine.plan_with_format(MatmulFormat::Vnm, &engine.descriptor(r, k), &pruned) {
            Ok(p) => p,
            Err(e) => return format!("{e}"),
        };
    let key = PlanKey::for_weight(*plan.descriptor(), &pruned);

    let operands: Vec<Matrix<Half>> = (0..requests)
        .map(|i| random::activation_matrix(k, req_cols, seed + 1 + i as u64).to_half())
        .collect();

    // Sequential per-request baseline: one thread, one dispatch per
    // request, no batching — what a naive caller pays.
    let t0 = std::time::Instant::now();
    let baseline: Vec<Matrix<f32>> = operands.iter().map(|b| plan.run(b)).collect();
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;

    let faulted = inject.is_some_and(|f| f.any_enabled());
    if faulted {
        silence_injected_panics();
    }
    let mut config = ServeConfig::default()
        .with_concurrency(concurrency)
        .with_max_batch(max_batch)
        .with_queue_capacity(queue);
    if faulted {
        // Injected run panics can keep killing workers, and stalled
        // builds must not wedge the stream: budget a respawn per
        // request and keep the build timeout short so degraded
        // dispatch kicks in quickly.
        config = config
            .with_restart_budget((requests + concurrency) as u32)
            .with_build_timeout(std::time::Duration::from_millis(50));
    }
    let server = Server::start(config, Arc::new(PlanCache::new()));
    // Books every fault the injector actually trips (build-fail, stall,
    // run-panic, run-slow) for the report footer and the registry.
    let trips = Arc::new(FaultTrips::new());
    match inject {
        Some(faults) if faulted => {
            // The pristine plan doubles as the per-call degradation
            // baseline, so even a build that never lands still serves
            // bit-identical results through `run_oneshot`.
            let inner = Arc::clone(&plan);
            server.register_degradable(
                key,
                faults.wrap_builder_counted(move || Arc::clone(&inner), Arc::clone(&trips)),
                Arc::clone(&plan),
            );
        }
        _ => {
            let warm_plan = Arc::clone(&plan);
            let warm = server.register_warm(key, move || Arc::clone(&warm_plan));
            let _ = warm.join();
        }
    }

    // `concurrency` client threads stripe the request stream; blocking
    // submission exercises backpressure when `requests` exceeds `queue`.
    // Under injection, clients retry rejected submissions with seeded
    // backoff and bound every wait, so a faulty server can never hang
    // the client side.
    let deadline = deadline_ms.map(std::time::Duration::from_millis);
    let t1 = std::time::Instant::now();
    let mut results: Vec<Option<Matrix<f32>>> = vec![None; requests];
    let mut errors: Vec<String> = Vec::new();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..concurrency.max(1))
            .map(|c| {
                let server = &server;
                let operands = &operands;
                s.spawn(move || {
                    let handles: Vec<_> = (c..operands.len())
                        .step_by(concurrency.max(1))
                        .map(|i| {
                            let operand = operands[i].clone();
                            let submitted = if let Some(d) = deadline {
                                server.submit_with_deadline(
                                    key,
                                    operand,
                                    std::time::Instant::now() + d,
                                )
                            } else if faulted {
                                server.submit_retry(key, operand, RetryPolicy::default())
                            } else {
                                server.submit(key, operand)
                            };
                            (i, submitted)
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|(i, h)| {
                            let res = h.and_then(|h| {
                                if faulted {
                                    h.wait_timeout(std::time::Duration::from_secs(30))
                                } else {
                                    h.wait()
                                }
                            });
                            (i, res)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for client in clients {
            for (i, res) in client.join().expect("client thread panicked") {
                match res {
                    Ok(out) => results[i] = Some(out),
                    Err(e) => errors.push(format!("request {i}: {e}")),
                }
            }
        }
    });
    let conc_ms = t1.elapsed().as_secs_f64() * 1e3;
    let stats = server.cache().stats();
    let report = server.shutdown();

    // Errors are a hard failure only on a clean run; with faults
    // injected (or client deadlines) they are expected outcomes the
    // resolution accounting below reports.
    if !errors.is_empty() && !faulted && deadline.is_none() {
        return format!("serving failed: {}", errors.join("; "));
    }
    let identical = results
        .iter()
        .zip(&baseline)
        .all(|(got, want)| got.as_ref().is_none_or(|g| g == want));
    let resolved = results.iter().filter(|r| r.is_some()).count() + errors.len();
    let mut out = format!(
        "serving {requests} requests of {k}x{req_cols} through {r}x{k} ({cfg}) on {}\n\
         workers {concurrency}, max batch {max_batch}, queue capacity {queue}\n\
         sequential baseline : {seq_ms:9.2} ms wall ({:8.0} req/s)\n\
         concurrent serving  : {conc_ms:9.2} ms wall ({:8.0} req/s, {:.2}x vs sequential)\n\
         batches dispatched  : {} (mean {:.2} requests/batch)\n\
         latency p50 / p99 / max : {:.3} / {:.3} / {:.3} ms\n\
         plan cache          : {} hit(s), {} miss(es), {} build(s), hit ratio {:.1}%\n\
         outputs bit-identical to per-request baseline: {}",
        dev.name,
        requests as f64 / (seq_ms / 1e3),
        requests as f64 / (conc_ms / 1e3),
        seq_ms / conc_ms,
        report.batches,
        report.mean_batch,
        report.p50_ms,
        report.p99_ms,
        report.max_ms,
        stats.hits,
        stats.misses,
        stats.builds,
        100.0 * stats.hit_ratio(),
        if identical { "yes" } else { "NO — MISMATCH" },
    );
    if let Some(faults) = inject {
        out += &format!(
            "\nfault injection     : seed {} (build-fail {:.2}, build-stall {:.2}, \
             run-panic {:.2}, run-slow {:.2})\n\
             degraded / restarts : {} degraded dispatch(es), {} worker restart(s)",
            faults.seed,
            faults.build_fail,
            faults.build_stall,
            faults.run_panic,
            faults.run_slow,
            report.degraded,
            report.worker_restarts,
        );
        out += &format!(
            "\nfault trips booked  : {} build-fail, {} build-stall, {} run-panic, {} run-slow",
            trips.build_fail(),
            trips.build_stall(),
            trips.run_panic(),
            trips.run_slow(),
        );
    }
    out += &format!(
        "\n{}: {resolved}/{requests} resolved (served {}, degraded {}, shed {}, expired {}, \
         errors {})",
        if resolved == requests {
            "no requests lost"
        } else {
            "REQUESTS LOST"
        },
        report.served,
        report.degraded,
        report.shed,
        report.deadline_expired,
        report.errored,
    );
    if let Some(path) = metrics_out {
        match std::fs::write(path, venom_obs::registry().prometheus_text()) {
            Ok(()) => out += &format!("\nmetrics written     : {path}"),
            Err(e) => out += &format!("\nmetrics write FAILED: {path}: {e}"),
        }
    }
    if let Some(path) = trace_out {
        let json = venom_obs::trace::drain_chrome_json();
        venom_obs::trace::set_enabled(false);
        match std::fs::write(path, json) {
            Ok(()) => out += &format!("\ntrace written       : {path}"),
            Err(e) => out += &format!("\ntrace write FAILED: {path}: {e}"),
        }
    }
    out
}

fn energy_report(rows: usize, cols: usize, sparsity: f64) -> String {
    let w = random::glorot_matrix(rows, cols, 2023);
    let mut out = format!(
        "energy at {:.0}% sparsity on {rows}x{cols}:\n",
        sparsity * 100.0
    );
    out += &format!(
        "  unstructured : {:.3}\n",
        energy(&w, &magnitude::prune_unstructured(&w, sparsity))
    );
    // Find an N:M pair matching the sparsity (n = 2).
    let m = (2.0 / (1.0 - sparsity)).round() as usize;
    if m >= 4 && (1.0 - 2.0 / m as f64 - sparsity).abs() < 0.05 {
        for v in [1usize, 64, 128] {
            if rows >= v {
                let cfg = VnmConfig::new(v, 2, m);
                out += &format!(
                    "  {v}:2:{m}       : {:.3}\n",
                    energy(&w, &magnitude::prune_vnm(&w, cfg))
                );
            }
        }
    }
    out += &format!(
        "  vw_8         : {:.3}",
        energy(&w, &magnitude::prune_vectorwise(&w, 8, sparsity))
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_mentions_peaks() {
        let s = info(&DeviceConfig::rtx3090());
        assert!(s.contains("RTX 3090"));
        assert!(s.contains("sparse tensor peak"));
    }

    #[test]
    fn compress_reports_all_three_structures() {
        let s = compress(64, 128, (32, 2, 8), 1);
        assert!(s.contains("values"));
        assert!(s.contains("m-indices"));
        assert!(s.contains("column-loc"));
        assert!(s.contains("75.00%"));
    }

    #[test]
    fn bench_reports_speedup_and_cap() {
        let s = bench(
            (256, 1024, 512),
            (64, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Vnm),
            DType::F16,
            &DeviceConfig::rtx3090(),
        );
        assert!(s.contains("speedup"));
        assert!(s.contains("cap 4x"));
        // The headline branch prints the per-shape roofline verdict too,
        // plus the companion SDDMM verdict for the same pattern.
        assert!(s.contains("roofline"), "{s}");
        assert!(s.contains("vs ridge"), "{s}");
        assert!(s.contains("sddmm roofline"), "{s}");
        assert!(s.contains("-bound sampling this pattern"), "{s}");
    }

    #[test]
    fn bench_routes_and_explains_the_band_path() {
        let dev = DeviceConfig::rtx3090();
        // The acceptance shape (r=1024, k=768, c=8): auto must route to
        // the band path and say why in roofline terms.
        let s = bench(
            (1024, 768, 8),
            (128, 2, 10),
            FormatChoice::Auto,
            DType::F16,
            &dev,
        );
        assert!(s.contains("format band"), "{s}");
        assert!(s.contains("memory-bound on the 'band' path"), "{s}");
        // Forcing the band path works on any compliant weight.
        let s = bench(
            (256, 320, 64),
            (64, 2, 10),
            FormatChoice::Band,
            DType::F16,
            &dev,
        );
        assert!(s.contains("format band"), "{s}");
        assert!(s.contains("roofline"), "{s}");
        // i8 has no band execution path; the plan error says so.
        let s = bench(
            (256, 320, 64),
            (64, 2, 10),
            FormatChoice::Band,
            DType::I8,
            &dev,
        );
        assert!(s.contains("i8"), "{s}");
    }

    #[test]
    fn bench_prices_other_formats_through_the_plan_surface() {
        let dev = DeviceConfig::rtx3090();
        let s = bench(
            (128, 256, 128),
            (32, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Csr),
            DType::F16,
            &dev,
        );
        assert!(s.contains("format csr"), "{s}");
        assert!(s.contains("speedup"), "{s}");
        let s = bench(
            (128, 256, 128),
            (32, 2, 8),
            FormatChoice::Auto,
            DType::F16,
            &dev,
        );
        assert!(s.contains("format "), "{s}");
        // A forced format the structure cannot serve reports the reason.
        let s = bench(
            (128, 256, 128),
            (32, 2, 10),
            FormatChoice::Fixed(MatmulFormat::Nm),
            DType::F16,
            &dev,
        );
        assert!(s.contains("2:4"), "{s}");
    }

    #[test]
    fn energy_report_lists_policies() {
        let s = energy_report(128, 160, 0.75);
        assert!(s.contains("unstructured"));
        assert!(s.contains("vw_8"));
        assert!(s.contains("128:2:8"));
    }

    #[test]
    fn infer_serves_a_planned_mini_stack() {
        let s = infer(
            "mini",
            Some(1),
            16,
            2,
            (16, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Vnm),
            DType::F16,
            &DeviceConfig::rtx3090(),
            1,
            AttentionChoice::Dense,
            false,
        );
        assert!(s.contains("plan build"), "{s}");
        assert!(s.contains("serve 2 request(s), 32 tokens"), "{s}");
        assert!(s.contains("2 matrices of 16x64"), "{s}");
        assert!(s.contains("vnm x6"), "{s}");
        assert!(s.contains("attention cores (--attention dense)"), "{s}");
        assert!(s.contains("dense x1"), "{s}");
    }

    #[test]
    fn infer_adopts_the_planned_attention_pipeline() {
        let planned = infer(
            "mini",
            Some(2),
            16,
            2,
            (16, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Vnm),
            DType::F16,
            &DeviceConfig::rtx3090(),
            1,
            AttentionChoice::Planned,
            false,
        );
        // The mask census must show every block on the planned causal core.
        assert!(
            planned.contains("attention cores (--attention planned)"),
            "{planned}"
        );
        assert!(planned.contains("planned causal x2"), "{planned}");
        assert!(
            planned.contains("serve 2 request(s), 32 tokens"),
            "{planned}"
        );
    }

    #[test]
    fn infer_with_auto_format_reports_the_census() {
        let s = infer(
            "mini",
            Some(1),
            16,
            1,
            (16, 2, 8),
            FormatChoice::Auto,
            DType::F16,
            &DeviceConfig::rtx3090(),
            2,
            AttentionChoice::Dense,
            false,
        );
        // The census line must exist and its per-format counts must sum
        // to the six weight tensors of the single layer.
        let line = s
            .lines()
            .find(|l| l.contains("weight formats"))
            .unwrap_or_else(|| panic!("missing census line in {s}"));
        assert!(line.contains("--format auto"), "{line}");
        // The roofline dispatch line reports each plan's path and regime.
        let regimes = s
            .lines()
            .find(|l| l.contains("roofline regimes"))
            .unwrap_or_else(|| panic!("missing regimes line in {s}"));
        assert!(
            regimes.contains("/compute") || regimes.contains("/memory"),
            "{regimes}"
        );
        let census = line
            .split(':')
            .nth(1)
            .unwrap_or_else(|| panic!("malformed: {line}"));
        let total: usize = census
            .split(" x")
            .skip(1)
            .filter_map(|t| {
                t.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse::<usize>()
                    .ok()
            })
            .sum();
        assert_eq!(total, 6, "census counts must cover all six weights: {line}");
    }

    #[test]
    fn bench_prices_the_i8_path() {
        let dev = DeviceConfig::rtx3090();
        let i8 = bench(
            (256, 1024, 512),
            (64, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Vnm),
            DType::I8,
            &dev,
        );
        assert!(i8.contains("dtype i8"), "{i8}");
        // i8 must price strictly below f16 at the same shape.
        let extract = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.starts_with("vnm"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no vnm line in {s}"))
        };
        let f16 = bench(
            (256, 1024, 512),
            (64, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Vnm),
            DType::F16,
            &dev,
        );
        // The f16 vnm path prints through the headline branch; compare
        // the i8 priced line against its Spatha line instead.
        let f16_ms: f64 = f16
            .lines()
            .find(|l| l.contains("Spatha"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no Spatha line in {f16}"));
        assert!(extract(&i8) < f16_ms, "i8 {i8}\nvs f16 {f16}");
        // An i8 descriptor on a format with no int8 path reports why.
        let e = bench(
            (128, 256, 128),
            (32, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Csr),
            DType::I8,
            &dev,
        );
        assert!(e.contains("dtype i8"), "{e}");
    }

    #[test]
    fn infer_serves_the_quantized_stack() {
        let s = infer(
            "mini",
            Some(1),
            16,
            2,
            (16, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Vnm),
            DType::I8,
            &DeviceConfig::rtx3090(),
            3,
            AttentionChoice::Dense,
            false,
        );
        assert!(s.contains("--dtype i8"), "{s}");
        assert!(s.contains("vnm x6"), "{s}");
        // i8 with a format that has no int8 path is rejected up front.
        let e = infer(
            "mini",
            Some(1),
            16,
            1,
            (16, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Csr),
            DType::I8,
            &DeviceConfig::rtx3090(),
            3,
            AttentionChoice::Dense,
            false,
        );
        assert!(e.contains("--format vnm or --format auto"), "{e}");
    }

    #[test]
    fn infer_rejects_unknown_model() {
        let s = infer(
            "nope",
            None,
            8,
            1,
            (16, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Vnm),
            DType::F16,
            &DeviceConfig::rtx3090(),
            1,
            AttentionChoice::Dense,
            false,
        );
        assert!(s.contains("unknown model"), "{s}");
    }

    #[test]
    fn serve_reports_throughput_and_bit_identical_outputs() {
        let s = serve(
            16,
            2,
            4,
            8,
            (128, 96),
            4,
            (32, 2, 8),
            &DeviceConfig::rtx3090(),
            5,
            None,
            None,
            None,
            None,
        );
        assert!(s.contains("serving 16 requests of 96x4"), "{s}");
        assert!(s.contains("sequential baseline"), "{s}");
        assert!(s.contains("concurrent serving"), "{s}");
        assert!(s.contains("batches dispatched"), "{s}");
        assert!(s.contains("latency p50 / p99 / max"), "{s}");
        assert!(s.contains("plan cache"), "{s}");
        assert!(
            s.contains("outputs bit-identical to per-request baseline: yes"),
            "{s}"
        );
    }

    #[test]
    fn serve_backpressures_when_requests_exceed_queue_capacity() {
        // 12 requests through a 2-slot queue: blocking submission must
        // still complete every request with outputs intact.
        let s = serve(
            12,
            3,
            2,
            2,
            (64, 64),
            2,
            (16, 2, 8),
            &DeviceConfig::rtx3090(),
            6,
            None,
            None,
            None,
            None,
        );
        assert!(s.contains("serving 12 requests"), "{s}");
        assert!(
            s.contains("outputs bit-identical to per-request baseline: yes"),
            "{s}"
        );
        assert!(s.contains("no requests lost: 12/12 resolved"), "{s}");
    }

    #[test]
    fn serve_resolves_every_request_under_injected_faults() {
        // Builds fail or stall, runs panic or crawl — yet every request
        // must resolve (planned, degraded-bit-identical, or a typed
        // error) and the report must say so.
        let faults = FaultConfig::parse(
            "seed=9,build-fail=0.5,build-stall=0.4,stall-ms=20,run-panic=0.3,run-slow=0.3,slow-ms=2",
        )
        .expect("valid spec");
        let s = serve(
            16,
            2,
            4,
            8,
            (64, 64),
            2,
            (16, 2, 8),
            &DeviceConfig::rtx3090(),
            7,
            None,
            Some(faults),
            None,
            None,
        );
        assert!(s.contains("fault injection"), "{s}");
        assert!(s.contains("no requests lost: 16/16 resolved"), "{s}");
        assert!(
            s.contains("outputs bit-identical to per-request baseline: yes"),
            "{s}"
        );
    }

    #[test]
    fn serve_writes_metrics_and_trace_files() {
        let dir = std::env::temp_dir();
        let metrics = dir.join("venom_cli_metrics_test.prom");
        let trace = dir.join("venom_cli_trace_test.json");
        let s = serve(
            8,
            2,
            4,
            8,
            (64, 64),
            2,
            (16, 2, 8),
            &DeviceConfig::rtx3090(),
            11,
            None,
            None,
            Some(metrics.to_str().unwrap()),
            Some(trace.to_str().unwrap()),
        );
        assert!(s.contains("metrics written"), "{s}");
        assert!(s.contains("trace written"), "{s}");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("# TYPE serve_requests_total counter"), "{m}");
        assert!(
            m.contains("serve_requests_total{outcome=\"served\"}"),
            "{m}"
        );
        assert!(m.contains("cache_builds_total{cache=\"plan\"}"), "{m}");
        assert!(m.contains("serve_latency_ms"), "{m}");
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("\"traceEvents\""), "{t}");
        assert!(t.contains("\"batch_dispatch\""), "{t}");
        assert!(t.contains("\"admission\""), "{t}");
        assert!(t.contains("\"plan_build\""), "{t}");
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn serve_counts_fault_trips_in_the_report_footer() {
        let faults = FaultConfig::parse("seed=3,build-fail=1.0").expect("valid spec");
        let s = serve(
            4,
            1,
            2,
            4,
            (64, 64),
            2,
            (16, 2, 8),
            &DeviceConfig::rtx3090(),
            13,
            None,
            Some(faults),
            None,
            None,
        );
        let line = s
            .lines()
            .find(|l| l.contains("fault trips booked"))
            .unwrap_or_else(|| panic!("missing trips footer in {s}"));
        // Every build roll fails at probability 1.0, so at least one
        // build-fail trip must be booked (and no stalls are configured).
        assert!(!line.contains("0 build-fail"), "{line}");
        assert!(line.contains("0 build-stall"), "{line}");
    }

    #[test]
    fn infer_profile_reports_measured_regimes_in_agreement() {
        let s = infer(
            "mini",
            Some(1),
            16,
            1,
            (16, 2, 8),
            FormatChoice::Fixed(MatmulFormat::Vnm),
            DType::F16,
            &DeviceConfig::rtx3090(),
            1,
            AttentionChoice::Planned,
            true,
        );
        assert!(s.contains("per-phase kernel profile"), "{s}");
        assert!(s.contains("spmm[mma] 1024x768x4096"), "{s}");
        assert!(s.contains("spmm[band] 1024x768x8"), "{s}");
        assert!(s.contains("attention seq 16"), "{s}");
        // The acceptance bar: each probe's measured compulsory-byte
        // intensity must land in the regime the plan predicted.
        let verdicts: Vec<&str> = s
            .lines()
            .filter(|l| l.contains("predicted vs measured"))
            .collect();
        assert_eq!(verdicts.len(), 3, "{s}");
        for line in &verdicts {
            assert!(line.contains("(agree)"), "{line}");
        }
        assert!(s.contains("byte fidelity"), "{s}");
    }

    #[test]
    fn execute_dispatches_help() {
        let s = execute(&Command::Help);
        assert!(s.contains("USAGE"));
    }

    #[test]
    fn end_to_end_run() {
        let out = crate::run(&["info".to_string()]).unwrap();
        assert!(out.contains("TFLOP/s"));
        let err = crate::run(&["nope".to_string()]).unwrap_err();
        assert!(err.contains("unknown"));
    }
}
