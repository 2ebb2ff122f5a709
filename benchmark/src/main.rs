//! `venom-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with the run's correctness, operation counts and metrics.
//! A traced run also writes its spans to
//! `.bench_build/traces/<workload>-<seed>.json` (a Chrome trace).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use venom_benchmark::trace::Tracer;
use venom_benchmark::{churn, encoder, serve};

const USAGE: &str =
    "usage: venom-benchmark --workload <encoder_causal256|serve_small_batch|plan_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Arc::new(Tracer::new(args.trace));
    let outcome = match args.workload.as_str() {
        encoder::NAME => encoder::run(args.seed, args.seconds, &tracer),
        serve::NAME => serve::run(args.seed, args.seconds, &tracer),
        churn::NAME => churn::run(args.seed, args.seconds, &tracer),
        other => {
            eprintln!("unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = outcome.and_then(|o| o.result_line(args.trace));
    match line {
        Ok(line) => {
            if args.trace {
                let path = PathBuf::from(format!(
                    ".bench_build/traces/{}-{}.json",
                    args.workload, args.seed
                ));
                if let Err(e) = tracer.write_chrome(&path) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
