//! Counts the benchmark reports as exact must repeat exactly: across two
//! runs of one seed, and on a holdout seed no tuning used. Each case runs
//! a short traced pass of the workload; run with `--release`.

use std::sync::Arc;
use venom_benchmark::report::{valid_name, Outcome};
use venom_benchmark::trace::Tracer;
use venom_benchmark::{churn, encoder, serve};

const SEED: u64 = 7;
const HOLDOUT: u64 = 90_210;

type Run = fn(u64, f64, &Arc<Tracer>) -> Result<Outcome, String>;

fn traced(run: Run, seed: u64, secs: f64) -> Outcome {
    let out = run(seed, secs, &Arc::new(Tracer::new(true))).expect("the traced run completes");
    assert_eq!(out.mismatches, 0, "outputs must match their references");
    assert_eq!(out.failed, 0, "no operation may fail");
    assert!(out.values.keys().all(|k| valid_name(k)));
    out
}

fn assert_exact(run: Run, secs: f64, names: &[&str]) {
    let a = traced(run, SEED, secs);
    let b = traced(run, SEED, secs);
    let h = traced(run, HOLDOUT, secs);
    for name in names {
        let value = |o: &Outcome| {
            *o.values
                .get(name)
                .unwrap_or_else(|| panic!("{name} reported"))
        };
        assert_eq!(
            value(&a).to_bits(),
            value(&b).to_bits(),
            "{name} differs between runs"
        );
        assert_eq!(
            value(&a).to_bits(),
            value(&h).to_bits(),
            "{name} differs on the holdout seed"
        );
    }
}

#[test]
fn encoder_work_counts_repeat_exactly() {
    assert_exact(
        encoder::run,
        2.0,
        &["core.gflop_per_op", "core.mbytes_per_op"],
    );
}

#[test]
fn serve_counts_repeat_exactly() {
    assert_exact(
        serve::run,
        2.0,
        &[
            "core.gflop_per_op",
            "core.mbytes_per_op",
            "runtime.cache.builds",
            "runtime.plan.band_share",
        ],
    );
}

#[test]
fn churn_counts_repeat_exactly() {
    assert_exact(
        churn::run,
        12.0,
        &[
            "core.gflop_per_op",
            "core.mbytes_per_op",
            "runtime.cache.builds",
            "runtime.plan.band_share",
        ],
    );
}
