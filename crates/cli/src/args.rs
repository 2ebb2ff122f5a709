//! Hand-rolled argument parsing (the offline dependency set has no clap;
//! the grammar is small enough that a table-driven parser is clearer
//! anyway).

use venom_format::MatmulFormat;
use venom_runtime::{DType, FaultConfig};

/// A validated `--format` value: automatic selection or one concrete
/// storage format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FormatChoice {
    /// Let the engine pick the cost-model-cheapest eligible format.
    Auto,
    /// Force the bandwidth-optimized non-mma V:N:M execution path (the
    /// swapped-operand replay `auto` routes memory-bound shapes to).
    Band,
    /// Force one storage format.
    Fixed(MatmulFormat),
}

impl FormatChoice {
    /// Parses a `--format` value.
    ///
    /// # Errors
    /// Returns a message listing the valid choices.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => return Ok(FormatChoice::Auto),
            "band" => return Ok(FormatChoice::Band),
            _ => {}
        }
        MatmulFormat::parse(s)
            .map(FormatChoice::Fixed)
            .map_err(|_| {
                format!(
                    "invalid --format '{s}' (valid: auto, band, {})",
                    MatmulFormat::valid_names()
                )
            })
    }

    /// The name as the CLI spells it.
    pub fn name(&self) -> &'static str {
        match self {
            FormatChoice::Auto => "auto",
            FormatChoice::Band => "band",
            FormatChoice::Fixed(f) => f.name(),
        }
    }
}

impl core::fmt::Display for FormatChoice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated `--attention` value: the dense bidirectional core, or the
/// planned masked pipeline (causal mask, SDDMM over each row's sampled
/// run, softmax over compressed scores, planned `P·V`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttentionChoice {
    /// Dense bidirectional attention (full `seq x seq` scores).
    Dense,
    /// Planned causal attention through the `AttentionPlan` pipeline.
    Planned,
}

impl AttentionChoice {
    /// Parses an `--attention` value.
    ///
    /// # Errors
    /// Returns a message listing the valid choices.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dense" => Ok(AttentionChoice::Dense),
            "planned" => Ok(AttentionChoice::Planned),
            _ => Err(format!("invalid --attention '{s}' (valid: dense, planned)")),
        }
    }

    /// The name as the CLI spells it.
    pub fn name(&self) -> &'static str {
        match self {
            AttentionChoice::Dense => "dense",
            AttentionChoice::Planned => "planned",
        }
    }
}

impl core::fmt::Display for AttentionChoice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `venom info [--device NAME]` — device presets and peaks.
    Info {
        /// `rtx3090` or `a100`.
        device: String,
    },
    /// `venom compress --rows R --cols K --pattern V:N:M [--seed S]`.
    Compress {
        /// Weight rows.
        rows: usize,
        /// Weight columns.
        cols: usize,
        /// The V:N:M pattern.
        pattern: (usize, usize, usize),
        /// RNG seed.
        seed: u64,
    },
    /// `venom bench --shape RxKxC --pattern V:N:M [--format F]
    /// [--dtype D] [--device NAME]`.
    Bench {
        /// GEMM shape.
        shape: (usize, usize, usize),
        /// The V:N:M pattern.
        pattern: (usize, usize, usize),
        /// Storage format to plan (`auto` or a concrete format name).
        format: FormatChoice,
        /// Operand dtype of the planned dispatch (`f16` or `i8`).
        dtype: DType,
        /// Device preset name.
        device: String,
    },
    /// `venom energy --rows R --cols K --sparsity S`.
    Energy {
        /// Weight rows.
        rows: usize,
        /// Weight columns.
        cols: usize,
        /// Target sparsity in (0, 1).
        sparsity: f64,
    },
    /// `venom infer --model NAME [--layers N] [--seq S] [--batch B]
    /// [--pattern V:N:M] [--format F] [--dtype D] [--device NAME]
    /// [--seed S]` — plan a sparse encoder stack once (each weight in
    /// the chosen storage format, or the cost-model-cheapest one with
    /// `--format auto`; `--dtype i8` serves the calibrated int8 path),
    /// then serve a batch of sequences through it.
    Infer {
        /// Model preset (`bert-base`, `bert-large`, or `mini`).
        model: String,
        /// Encoder layers to instantiate (defaults to the preset's count,
        /// capped for functional execution).
        layers: Option<usize>,
        /// Sequence length per request.
        seq: usize,
        /// Requests served per dispatch.
        batch: usize,
        /// The V:N:M pattern.
        pattern: (usize, usize, usize),
        /// Storage format to plan (`auto` or a concrete format name).
        format: FormatChoice,
        /// Operand dtype of the planned weights (`f16` or `i8`).
        dtype: DType,
        /// Attention core (`dense` or the `planned` masked pipeline).
        attention: AttentionChoice,
        /// Device preset name.
        device: String,
        /// RNG seed.
        seed: u64,
        /// Enable per-phase kernel profiling and report measured-vs-
        /// predicted roofline placement for pinned probe shapes.
        profile: bool,
    },
    /// `venom serve [--requests N] [--concurrency T] [--max-batch B]
    /// [--queue Q] [--shape RxK] [--req-cols C] [--pattern V:N:M]
    /// [--device NAME] [--seed S] [--deadline-ms D] [--inject SPEC]` —
    /// run the concurrent serving loop: plan one V:N:M weight, warm the
    /// shared plan cache, then serve N requests through T workers with
    /// same-descriptor requests coalesced into batched dispatches,
    /// against a sequential per-request baseline. `--inject` turns on
    /// the deterministic fault harness (seeded build failures/stalls,
    /// run panics, slow runs) to demonstrate that every request still
    /// resolves; `--deadline-ms` bounds each request's queue life.
    Serve {
        /// Total requests to serve.
        requests: usize,
        /// Worker threads (and client submitter threads).
        concurrency: usize,
        /// Most requests one coalesced dispatch may pack.
        max_batch: usize,
        /// Request-queue bound (admission control).
        queue: usize,
        /// Weight shape `RxK`.
        shape: (usize, usize),
        /// Operand columns per request (decoder-style small dispatches).
        req_cols: usize,
        /// The V:N:M pattern.
        pattern: (usize, usize, usize),
        /// Device preset name.
        device: String,
        /// RNG seed.
        seed: u64,
        /// Per-request deadline in milliseconds (`None` = no deadline).
        deadline_ms: Option<u64>,
        /// Fault-injection schedule (`None` = no faults).
        inject: Option<FaultConfig>,
        /// Write the metrics registry (Prometheus text) here on exit.
        metrics_out: Option<String>,
        /// Enable tracing and write chrome://tracing JSON here on exit.
        trace_out: Option<String>,
    },
    /// `venom help`.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
venom — V:N:M sparsity toolkit (simulated Sparse Tensor Cores)

USAGE:
  venom info     [--device rtx3090|a100]
  venom compress --rows R --cols K --pattern V:N:M [--seed S]
  venom bench    --shape RxKxC --pattern V:N:M [--format F] [--dtype D]
                 [--device rtx3090|a100]
  venom energy   --rows R --cols K --sparsity S
  venom infer    --model bert-base|bert-large|mini [--layers N] [--seq S]
                 [--batch B] [--pattern V:N:M] [--format F] [--dtype D]
                 [--attention dense|planned] [--device rtx3090|a100]
                 [--seed S] [--profile]
  venom serve    [--requests N] [--concurrency T] [--max-batch B]
                 [--queue Q] [--shape RxK] [--req-cols C]
                 [--pattern V:N:M] [--device rtx3090|a100] [--seed S]
                 [--deadline-ms D] [--inject SPEC]
                 [--metrics-out FILE] [--trace-out FILE]
  venom help

  --format F chooses the weight storage format planned by the engine:
  auto, band, vnm, nm, csr, cvse, blocked-ell, dense (default vnm).
  'band' pins the bandwidth-optimized non-mma V:N:M path (swapped-operand
  replay); 'auto' routes to it on memory-bound shapes by cost alone and
  reports the roofline regime it planned against.
  --dtype D chooses the operand precision: f16 (exact mixed precision)
  or i8 (calibrated int8, i32 accumulation; vnm/auto formats only).
  --attention planned adopts the planned causal attention pipeline in
  every layer (SDDMM over each row's run of the mask, masked
  softmax over compressed scores, planned P·V) and reports the mask
  census; dense keeps the bidirectional dense core (default dense).
  --inject SPEC enables deterministic fault injection while serving:
  comma-separated key=value from seed, build-fail, build-stall,
  stall-ms, run-panic, run-slow, slow-ms (probabilities in [0, 1]),
  e.g. --inject seed=7,build-fail=0.4,run-panic=0.25.
  --profile turns on per-phase kernel profiling for the inference run
  and prints a 'predicted vs measured' roofline line per probe shape.
  --metrics-out FILE writes the process metrics registry as Prometheus
  text on exit; --trace-out FILE enables span tracing and writes
  chrome://tracing JSON (open via chrome://tracing or Perfetto).
";

fn take_flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

/// A boolean switch: present (no value) or absent.
fn has_flag(argv: &[String], name: &str) -> bool {
    argv.iter().any(|a| a == name)
}

fn parse_pattern(s: &str) -> Result<(usize, usize, usize), String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("pattern must be V:N:M, got '{s}'"));
    }
    let nums: Result<Vec<usize>, _> = parts.iter().map(|p| p.parse::<usize>()).collect();
    let nums = nums.map_err(|_| format!("pattern must be numeric, got '{s}'"))?;
    Ok((nums[0], nums[1], nums[2]))
}

fn parse_shape(s: &str) -> Result<(usize, usize, usize), String> {
    let parts: Vec<&str> = s.split('x').collect();
    if parts.len() != 3 {
        return Err(format!("shape must be RxKxC, got '{s}'"));
    }
    let nums: Result<Vec<usize>, _> = parts.iter().map(|p| p.parse::<usize>()).collect();
    let nums = nums.map_err(|_| format!("shape must be numeric, got '{s}'"))?;
    Ok((nums[0], nums[1], nums[2]))
}

fn req_usize(argv: &[String], name: &str) -> Result<usize, String> {
    take_flag(argv, name)
        .ok_or_else(|| format!("missing {name}"))?
        .parse()
        .map_err(|_| format!("{name} must be an integer"))
}

/// A weight shape `RxK` (two dimensions — the serve command's weight).
fn parse_weight_shape(s: &str) -> Result<(usize, usize), String> {
    let parts: Vec<&str> = s.split('x').collect();
    if parts.len() != 2 {
        return Err(format!("shape must be RxK, got '{s}'"));
    }
    let nums: Result<Vec<usize>, _> = parts.iter().map(|p| p.parse::<usize>()).collect();
    let nums = nums.map_err(|_| format!("shape must be numeric, got '{s}'"))?;
    if nums[0] == 0 || nums[1] == 0 {
        return Err(format!("invalid --shape '{s}' (valid: RxK with R, K >= 1)"));
    }
    Ok((nums[0], nums[1]))
}

/// An optional integer flag with a lower bound. Degenerate serving
/// inputs (`--batch 0`, `--requests 0`, an empty `--seq` token stream)
/// are rejected at parse time with the valid range spelled out,
/// mirroring the `--format` error style.
fn bounded_usize(argv: &[String], name: &str, default: usize, min: usize) -> Result<usize, String> {
    let Some(raw) = take_flag(argv, name) else {
        return Ok(default);
    };
    match raw.parse::<usize>() {
        Ok(v) if v >= min => Ok(v),
        _ => Err(format!(
            "invalid {name} '{raw}' (valid: an integer >= {min})"
        )),
    }
}

/// Parses `argv` (without the program name).
///
/// # Errors
/// Returns a message (including usage) for malformed input.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let cmd = argv.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "info" => Ok(Command::Info {
            device: take_flag(argv, "--device").unwrap_or("rtx3090").to_string(),
        }),
        "compress" => Ok(Command::Compress {
            rows: req_usize(argv, "--rows")?,
            cols: req_usize(argv, "--cols")?,
            pattern: parse_pattern(take_flag(argv, "--pattern").ok_or("missing --pattern")?)?,
            seed: take_flag(argv, "--seed")
                .unwrap_or("42")
                .parse()
                .map_err(|_| "--seed must be an integer".to_string())?,
        }),
        "bench" => Ok(Command::Bench {
            shape: parse_shape(take_flag(argv, "--shape").ok_or("missing --shape")?)?,
            pattern: parse_pattern(take_flag(argv, "--pattern").ok_or("missing --pattern")?)?,
            format: FormatChoice::parse(take_flag(argv, "--format").unwrap_or("vnm"))?,
            dtype: DType::parse(take_flag(argv, "--dtype").unwrap_or("f16"))?,
            device: take_flag(argv, "--device").unwrap_or("rtx3090").to_string(),
        }),
        "energy" => Ok(Command::Energy {
            rows: req_usize(argv, "--rows")?,
            cols: req_usize(argv, "--cols")?,
            sparsity: take_flag(argv, "--sparsity")
                .ok_or("missing --sparsity")?
                .parse()
                .map_err(|_| "--sparsity must be a float".to_string())?,
        }),
        "infer" => Ok(Command::Infer {
            model: take_flag(argv, "--model")
                .ok_or("missing --model")?
                .to_string(),
            layers: match take_flag(argv, "--layers") {
                Some(_) => Some(bounded_usize(argv, "--layers", 1, 1)?),
                None => None,
            },
            seq: bounded_usize(argv, "--seq", 128, 1)?,
            batch: bounded_usize(argv, "--batch", 4, 1)?,
            pattern: parse_pattern(take_flag(argv, "--pattern").unwrap_or("64:2:10"))?,
            format: FormatChoice::parse(take_flag(argv, "--format").unwrap_or("vnm"))?,
            dtype: DType::parse(take_flag(argv, "--dtype").unwrap_or("f16"))?,
            attention: AttentionChoice::parse(take_flag(argv, "--attention").unwrap_or("dense"))?,
            device: take_flag(argv, "--device").unwrap_or("rtx3090").to_string(),
            seed: take_flag(argv, "--seed")
                .unwrap_or("42")
                .parse()
                .map_err(|_| "--seed must be an integer".to_string())?,
            profile: has_flag(argv, "--profile"),
        }),
        "serve" => Ok(Command::Serve {
            requests: bounded_usize(argv, "--requests", 64, 1)?,
            concurrency: bounded_usize(argv, "--concurrency", 4, 1)?,
            max_batch: bounded_usize(argv, "--max-batch", 8, 1)?,
            queue: bounded_usize(argv, "--queue", 64, 1)?,
            shape: parse_weight_shape(take_flag(argv, "--shape").unwrap_or("1024x768"))?,
            req_cols: bounded_usize(argv, "--req-cols", 8, 1)?,
            pattern: parse_pattern(take_flag(argv, "--pattern").unwrap_or("128:2:10"))?,
            device: take_flag(argv, "--device").unwrap_or("rtx3090").to_string(),
            seed: take_flag(argv, "--seed")
                .unwrap_or("42")
                .parse()
                .map_err(|_| "--seed must be an integer".to_string())?,
            deadline_ms: match take_flag(argv, "--deadline-ms") {
                Some(raw) => match raw.parse::<u64>() {
                    Ok(ms) if ms >= 1 => Some(ms),
                    _ => {
                        return Err(format!(
                            "invalid --deadline-ms '{raw}' (valid: an integer >= 1)"
                        ))
                    }
                },
                None => None,
            },
            inject: match take_flag(argv, "--inject") {
                Some(spec) => Some(
                    FaultConfig::parse(spec).map_err(|e| format!("invalid --inject spec: {e}"))?,
                ),
                None => None,
            },
            metrics_out: take_flag(argv, "--metrics-out").map(str::to_string),
            trace_out: take_flag(argv, "--trace-out").map(str::to_string),
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_info_with_default_device() {
        assert_eq!(
            parse(&v(&["info"])).unwrap(),
            Command::Info {
                device: "rtx3090".into()
            }
        );
        assert_eq!(
            parse(&v(&["info", "--device", "a100"])).unwrap(),
            Command::Info {
                device: "a100".into()
            }
        );
    }

    #[test]
    fn parses_compress() {
        let c = parse(&v(&[
            "compress",
            "--rows",
            "128",
            "--cols",
            "256",
            "--pattern",
            "64:2:8",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Compress {
                rows: 128,
                cols: 256,
                pattern: (64, 2, 8),
                seed: 42
            }
        );
    }

    #[test]
    fn parses_bench_shape() {
        let c = parse(&v(&[
            "bench",
            "--shape",
            "1024x4096x4096",
            "--pattern",
            "128:2:16",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Bench {
                shape: (1024, 4096, 4096),
                pattern: (128, 2, 16),
                format: FormatChoice::Fixed(venom_format::MatmulFormat::Vnm),
                dtype: DType::F16,
                device: "rtx3090".into()
            }
        );
    }

    #[test]
    fn parses_format_choices() {
        for f in [
            "auto",
            "band",
            "vnm",
            "nm",
            "csr",
            "cvse",
            "blocked-ell",
            "dense",
        ] {
            let c = parse(&v(&[
                "bench",
                "--shape",
                "8x8x8",
                "--pattern",
                "16:2:8",
                "--format",
                f,
            ]))
            .unwrap();
            assert!(matches!(c, Command::Bench { format, .. } if format.name() == f));
        }
        let c = parse(&v(&["infer", "--model", "mini", "--format", "auto"])).unwrap();
        assert!(matches!(c, Command::Infer { format, .. } if format == FormatChoice::Auto));
    }

    #[test]
    fn parses_dtype_choices() {
        for d in ["f16", "i8"] {
            let c = parse(&v(&[
                "bench",
                "--shape",
                "8x8x8",
                "--pattern",
                "16:2:8",
                "--dtype",
                d,
            ]))
            .unwrap();
            assert!(matches!(c, Command::Bench { dtype, .. } if dtype.name() == d));
        }
        let c = parse(&v(&["infer", "--model", "mini", "--dtype", "i8"])).unwrap();
        assert!(matches!(c, Command::Infer { dtype, .. } if dtype == DType::I8));
    }

    #[test]
    fn rejects_unknown_dtype_listing_choices() {
        let e = parse(&v(&[
            "bench",
            "--shape",
            "8x8x8",
            "--pattern",
            "16:2:8",
            "--dtype",
            "int4",
        ]))
        .unwrap_err();
        assert!(e.contains("unknown dtype 'int4'"), "{e}");
        assert!(e.contains("f16") && e.contains("i8"), "{e}");
    }

    #[test]
    fn rejects_unknown_format_listing_choices() {
        let e = parse(&v(&[
            "bench",
            "--shape",
            "8x8x8",
            "--pattern",
            "16:2:8",
            "--format",
            "elll",
        ]))
        .unwrap_err();
        assert!(e.contains("invalid --format 'elll'"), "{e}");
        for name in [
            "auto",
            "band",
            "vnm",
            "nm",
            "csr",
            "cvse",
            "blocked-ell",
            "dense",
        ] {
            assert!(e.contains(name), "error must list '{name}': {e}");
        }
    }

    #[test]
    fn parses_infer_with_defaults() {
        let c = parse(&v(&["infer", "--model", "mini"])).unwrap();
        assert_eq!(
            c,
            Command::Infer {
                model: "mini".into(),
                layers: None,
                seq: 128,
                batch: 4,
                pattern: (64, 2, 10),
                format: FormatChoice::Fixed(venom_format::MatmulFormat::Vnm),
                dtype: DType::F16,
                attention: AttentionChoice::Dense,
                device: "rtx3090".into(),
                seed: 42,
                profile: false,
            }
        );
        let c = parse(&v(&[
            "infer",
            "--model",
            "bert-base",
            "--layers",
            "2",
            "--seq",
            "64",
            "--batch",
            "8",
            "--pattern",
            "32:2:8",
            "--format",
            "csr",
            "--device",
            "a100",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Infer {
                model: "bert-base".into(),
                layers: Some(2),
                seq: 64,
                batch: 8,
                pattern: (32, 2, 8),
                format: FormatChoice::Fixed(venom_format::MatmulFormat::Csr),
                dtype: DType::F16,
                attention: AttentionChoice::Dense,
                device: "a100".into(),
                seed: 7,
                profile: false,
            }
        );
    }

    #[test]
    fn parses_infer_profile_switch() {
        let c = parse(&v(&["infer", "--model", "mini", "--profile"])).unwrap();
        assert!(matches!(c, Command::Infer { profile: true, .. }));
    }

    #[test]
    fn parses_attention_choices() {
        for a in ["dense", "planned"] {
            let c = parse(&v(&["infer", "--model", "mini", "--attention", a])).unwrap();
            assert!(matches!(c, Command::Infer { attention, .. } if attention.name() == a));
        }
        let e = parse(&v(&["infer", "--model", "mini", "--attention", "flash"])).unwrap_err();
        assert!(e.contains("invalid --attention 'flash'"), "{e}");
        assert!(e.contains("dense") && e.contains("planned"), "{e}");
    }

    #[test]
    fn parses_serve_with_defaults() {
        assert_eq!(
            parse(&v(&["serve"])).unwrap(),
            Command::Serve {
                requests: 64,
                concurrency: 4,
                max_batch: 8,
                queue: 64,
                shape: (1024, 768),
                req_cols: 8,
                pattern: (128, 2, 10),
                device: "rtx3090".into(),
                seed: 42,
                deadline_ms: None,
                inject: None,
                metrics_out: None,
                trace_out: None,
            }
        );
        let c = parse(&v(&[
            "serve",
            "--requests",
            "32",
            "--concurrency",
            "2",
            "--max-batch",
            "4",
            "--queue",
            "16",
            "--shape",
            "256x512",
            "--req-cols",
            "12",
            "--pattern",
            "64:2:8",
            "--device",
            "a100",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                requests: 32,
                concurrency: 2,
                max_batch: 4,
                queue: 16,
                shape: (256, 512),
                req_cols: 12,
                pattern: (64, 2, 8),
                device: "a100".into(),
                seed: 7,
                deadline_ms: None,
                inject: None,
                metrics_out: None,
                trace_out: None,
            }
        );
    }

    #[test]
    fn parses_serve_telemetry_outputs() {
        let c = parse(&v(&[
            "serve",
            "--metrics-out",
            "metrics.txt",
            "--trace-out",
            "trace.json",
        ]))
        .unwrap();
        match c {
            Command::Serve {
                metrics_out,
                trace_out,
                ..
            } => {
                assert_eq!(metrics_out.as_deref(), Some("metrics.txt"));
                assert_eq!(trace_out.as_deref(), Some("trace.json"));
            }
            other => panic!("expected Serve, got {other:?}"),
        }
    }

    #[test]
    fn parses_serve_fault_injection_and_deadlines() {
        let c = parse(&v(&[
            "serve",
            "--deadline-ms",
            "250",
            "--inject",
            "seed=7,build-fail=0.4,run-panic=0.25",
        ]))
        .unwrap();
        match c {
            Command::Serve {
                deadline_ms,
                inject: Some(cfg),
                ..
            } => {
                assert_eq!(deadline_ms, Some(250));
                assert_eq!(cfg.seed, 7);
                assert_eq!(cfg.build_fail, 0.4);
                assert_eq!(cfg.run_panic, 0.25);
                assert_eq!(cfg.run_slow, 0.0);
            }
            other => panic!("expected Serve with injection, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_injection_specs_and_deadlines() {
        let e = parse(&v(&["serve", "--inject", "run-panic=2"])).unwrap_err();
        assert!(e.contains("invalid --inject spec"), "{e}");
        assert!(e.contains("[0, 1]"), "{e}");
        let e = parse(&v(&["serve", "--inject", "bogus=1"])).unwrap_err();
        assert!(e.contains("unknown fault key"), "{e}");
        let e = parse(&v(&["serve", "--deadline-ms", "0"])).unwrap_err();
        assert!(e.contains("invalid --deadline-ms '0'"), "{e}");
    }

    #[test]
    fn rejects_degenerate_serving_inputs_listing_valid_ranges() {
        // The satellite contract: `--batch 0`, zero requests, or an
        // empty token stream fail at parse time with the valid range
        // spelled out, in the `--format` error style.
        for (args, flag) in [
            (vec!["infer", "--model", "mini", "--batch", "0"], "--batch"),
            (vec!["infer", "--model", "mini", "--seq", "0"], "--seq"),
            (
                vec!["infer", "--model", "mini", "--layers", "0"],
                "--layers",
            ),
            (vec!["serve", "--requests", "0"], "--requests"),
            (vec!["serve", "--concurrency", "0"], "--concurrency"),
            (vec!["serve", "--max-batch", "0"], "--max-batch"),
            (vec!["serve", "--queue", "0"], "--queue"),
            (vec!["serve", "--req-cols", "0"], "--req-cols"),
        ] {
            let e = parse(&v(&args)).unwrap_err();
            assert!(e.contains(&format!("invalid {flag} '0'")), "{flag}: {e}");
            assert!(e.contains("an integer >= 1"), "{flag}: {e}");
        }
        // Non-numeric values get the same message shape.
        let e = parse(&v(&["serve", "--requests", "many"])).unwrap_err();
        assert!(e.contains("invalid --requests 'many'"), "{e}");
        // A zero weight dimension cannot be served either.
        let e = parse(&v(&["serve", "--shape", "0x768"])).unwrap_err();
        assert!(e.contains("invalid --shape '0x768'"), "{e}");
    }

    #[test]
    fn infer_requires_model() {
        let e = parse(&v(&["infer"])).unwrap_err();
        assert!(e.contains("--model"));
    }

    #[test]
    fn rejects_malformed_pattern() {
        let e = parse(&v(&["bench", "--shape", "8x8x8", "--pattern", "2:8"])).unwrap_err();
        assert!(e.contains("V:N:M"));
    }

    #[test]
    fn rejects_unknown_command() {
        let e = parse(&v(&["frobnicate"])).unwrap_err();
        assert!(e.contains("unknown command"));
        assert!(e.contains("USAGE"));
    }

    #[test]
    fn missing_flags_are_reported() {
        let e = parse(&v(&["compress", "--rows", "8"])).unwrap_err();
        assert!(e.contains("--cols") || e.contains("cols"));
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }
}
