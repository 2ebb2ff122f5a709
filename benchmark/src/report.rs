//! Metric names, units and the result line.
//!
//! Every run prints one JSON object as its last line of standard output:
//! the end-to-end metrics for an untraced run, the per-layer metrics for a
//! traced one. The name lists here are the single source of both; the
//! tests check them against `BENCHMARK.json`.

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("tokens_per_s", "tokens/s"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`. A workload that does not exercise a
/// layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 38] = [
    // encoder_causal256 forward, per forward.
    ("runtime.stage.ms", "ms"),
    ("runtime.plan.qkv_ms", "ms"),
    ("runtime.plan.out_ms", "ms"),
    ("runtime.plan.ffn1_ms", "ms"),
    ("runtime.plan.ffn2_ms", "ms"),
    ("runtime.attn.ms", "ms"),
    ("dnn.layernorm_ms", "ms"),
    ("dnn.gelu_ms", "ms"),
    ("dnn.residual_ms", "ms"),
    ("dnn.unaccounted_ratio", "ratio"),
    // Set-up, per set-up pass.
    ("pruner.prune_ms", "ms"),
    ("format.compress_vnm_ms", "ms"),
    ("runtime.plan.build_spmm_ms", "ms"),
    ("runtime.attn.build_ms", "ms"),
    // Serving.
    ("runtime.serve.mean_batch", "requests"),
    ("runtime.serve.batches", "count"),
    ("runtime.serve.server_latency_ms_p50", "ms"),
    ("runtime.serve.submit_us_p50", "us"),
    ("runtime.serve.queue_depth_mean", "requests"),
    ("runtime.serve.generator_lag_ms_p95", "ms"),
    ("runtime.serve.open_latency_ms_p50", "ms"),
    ("runtime.serve.open_latency_ms_p90", "ms"),
    ("runtime.plan.run_batch_ms", "ms"),
    ("runtime.plan.band_share", "ratio"),
    // Plan cache.
    ("runtime.cache.hit_ratio", "ratio"),
    ("runtime.cache.builds", "count"),
    ("runtime.cache.evictions", "count"),
    // Plan building, per call.
    ("runtime.plan.build_auto_ms_p50", "ms"),
    ("format.csr_ms", "ms"),
    ("format.cvse_ms", "ms"),
    ("format.blocked_ell_ms", "ms"),
    ("runtime.plan.build_band_ms", "ms"),
    ("runtime.plan.build_gemm_ms", "ms"),
    ("runtime.plan.first_run_ms", "ms"),
    // Kernel work, computed from the plans' counts, per operation.
    ("core.gflop_per_op", "GFLOP-computed"),
    ("core.mbytes_per_op", "MB-computed"),
    // Tracing cost.
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_ops", "count"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, timeouts and output
    /// mismatches.
    pub failed: u64,
    /// Output or parts-sum mismatches (each also counts as failed).
    pub mismatches: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics if `name` is in neither metric list (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Counts one failed operation that was a wrong output, printing one
    /// greppable line naming it.
    pub fn mismatch(&mut self, workload: &str, what: &str) {
        self.mismatches += 1;
        self.failed += 1;
        println!("MISMATCH workload={workload} {what}");
    }

    /// The result line: the end-to-end metrics (`traced == false`) or the
    /// per-layer metrics, as one JSON object.
    ///
    /// # Errors
    /// Names an end-to-end metric the run did not measure, or a value
    /// that is not finite.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("the run attempted no operation".to_string());
        }
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.values.get(name) {
                Some(&v) => v,
                // A layer the workload does not exercise did no work.
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_name(name), "illegal metric name {name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "illegal unit {unit}"
            );
        }
    }

    #[test]
    fn name_check_rejects_outsiders() {
        assert!(valid_name("runtime.cache.hit_ratio"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("ms/op"));
    }

    #[test]
    fn result_line_requires_every_end_to_end_metric() {
        let mut o = Outcome::default();
        assert!(o.result_line(true).is_err(), "nothing attempted");
        o.attempted = 1;
        for (name, _) in END_TO_END.iter().skip(1) {
            o.set(name, 1.5);
        }
        assert!(o.result_line(false).is_err());
        o.set("setup_s", 0.25);
        let line = o.result_line(false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        // Traced lines fill unexercised layers with zero.
        let traced = o.result_line(true).expect("layers default to zero");
        assert!(traced.contains("\"runtime.attn.ms\": {\"value\": 0, \"unit\": \"ms\"}"));
    }

    /// The names and units here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
