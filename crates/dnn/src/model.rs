//! A full encoder stack — the model object of the §7.2 case study.
//!
//! Wraps `layers` encoder blocks plus a final layer norm, with a
//! one-call [`TransformerEncoder::sparsify`] that converts every weight
//! tensor to V:N:M (the STen integration path: "users can specify a list
//! of weights to be made sparse ... with just a few lines of code") and
//! plans it on the serving engine. [`TransformerEncoder::sparsify_with`]
//! generalises the conversion over the unified plan surface: with
//! [`PlanStrategy::Auto`] every weight lands in the
//! cost-model-cheapest storage format, so one stack mixes formats per
//! layer. This is the stack's one sparsify path; a replica of a planned
//! stack is a `clone` (the plans are shared `Arc`s), and plan caching
//! across weights lives in `venom_runtime::serve` alone. The sparse
//! stack also serves batched multi-sequence requests:
//! [`SparseTransformerEncoder::forward_batch`] runs every sequence
//! through the same plans.

use crate::attention::SparseAttention;
use crate::layers::{ExecPath, LayerNorm, PlanStrategy};
use crate::transformer::{EncoderBlock, SparseEncoderBlock, TransformerConfig};
use std::sync::Arc;
use venom_format::{MatmulFormat, VnmConfig};
use venom_runtime::{AttentionMask, Engine, PlanError};
use venom_tensor::Matrix;

/// A dense encoder stack.
#[derive(Clone, Debug)]
pub struct TransformerEncoder {
    /// Architecture parameters.
    pub config: TransformerConfig,
    /// The blocks.
    pub blocks: Vec<EncoderBlock>,
    /// Final layer norm.
    pub ln_final: LayerNorm,
}

/// A fully sparsified encoder stack.
#[derive(Clone, Debug)]
pub struct SparseTransformerEncoder {
    /// Architecture parameters.
    pub config: TransformerConfig,
    /// The sparsified blocks.
    pub blocks: Vec<SparseEncoderBlock>,
    /// Final layer norm.
    pub ln_final: LayerNorm,
    /// The pattern every weight was pruned to.
    pub pattern: VnmConfig,
}

impl TransformerEncoder {
    /// A dense stack with Glorot weights (`layers` taken from the config).
    pub fn new(config: TransformerConfig, seed: u64) -> Self {
        let blocks = (0..config.layers)
            .map(|i| EncoderBlock::dense(&config, seed + 100 * i as u64))
            .collect();
        TransformerEncoder {
            blocks,
            ln_final: LayerNorm::new(config.hidden),
            config,
        }
    }

    /// Forward over `x` (`seq x hidden`).
    pub fn forward(&self, x: &Matrix<f32>) -> Matrix<f32> {
        let mut h = x.clone();
        for block in &self.blocks {
            h = block.forward(&h);
        }
        self.ln_final.forward(&h)
    }

    /// Sparsifies every weight tensor to `pattern` via magnitude V:N:M
    /// pruning (the Fig. 14 configuration applied stack-wide), planning
    /// each compressed weight on `engine`.
    pub fn sparsify(&self, engine: &Engine, pattern: VnmConfig) -> SparseTransformerEncoder {
        self.sparsify_with(engine, pattern, PlanStrategy::Vnm)
            .expect("V:N:M planning accepts any complying mask")
    }

    /// Prunes every weight tensor to `pattern` and plans it per
    /// `strategy` on the unified surface — [`PlanStrategy::Auto`] lets
    /// every weight land in its cost-model-cheapest format.
    ///
    /// # Errors
    /// Returns [`PlanError`] when a forced format cannot serve one of
    /// the pruned weights.
    pub fn sparsify_with(
        &self,
        engine: &Engine,
        pattern: VnmConfig,
        strategy: PlanStrategy,
    ) -> Result<SparseTransformerEncoder, PlanError> {
        Ok(SparseTransformerEncoder {
            config: self.config,
            blocks: self
                .blocks
                .iter()
                .map(|b| SparseEncoderBlock::from_dense_with(engine, b, pattern, strategy))
                .collect::<Result<_, _>>()?,
            ln_final: self.ln_final.clone(),
            pattern,
        })
    }
}

impl SparseTransformerEncoder {
    /// The shared forward body over `x` (`seq x hidden`); both execution
    /// paths are bit-identical.
    pub fn forward_with(&self, x: &Matrix<f32>, path: ExecPath) -> Matrix<f32> {
        let mut h = x.clone();
        for block in &self.blocks {
            h = block.forward_with(&h, path);
        }
        self.ln_final.forward(&h)
    }

    /// Forward with every weight GEMM replaying its plan.
    pub fn forward(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_with(x, ExecPath::Planned)
    }

    /// Serves a batch of sequences through the same plans. Each sequence
    /// attends only to itself, so the result equals mapping
    /// [`Self::forward`] over the batch.
    pub fn forward_batch(&self, xs: &[&Matrix<f32>]) -> Vec<Matrix<f32>> {
        xs.iter().map(|x| self.forward(x)).collect()
    }

    /// The retained per-call path (the unplanned serving baseline);
    /// bit-identical to [`Self::forward`].
    pub fn forward_percall(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_with(x, ExecPath::PerCall)
    }

    /// Adopts the planned masked-attention pipeline in every block for
    /// sequences of length `seq` under `mask`. All layers share one
    /// `(seq, hidden, heads, mask)` shape, so one plan is built and
    /// every block holds an `Arc` of it.
    ///
    /// # Errors
    /// Propagates [`PlanError::Unplannable`] from the plan build.
    pub fn adopt_planned_attention(
        &mut self,
        engine: &Engine,
        seq: usize,
        mask: &AttentionMask,
    ) -> Result<(), PlanError> {
        let plan = engine.plan_attention(seq, self.config.hidden, self.config.heads, mask)?;
        for block in &mut self.blocks {
            block.planned_attn = Some(SparseAttention {
                mha: block.mha.clone(),
                plan: Arc::clone(&plan),
            });
        }
        Ok(())
    }

    /// How many blocks run each attention core — `planned <mask>` for
    /// adopted layers, `dense` otherwise. The CLI's mask census line.
    pub fn attention_census(&self) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for block in &self.blocks {
            let key = match &block.planned_attn {
                Some(attn) => format!("planned {}", attn.mask()),
                None => "dense".to_string(),
            };
            match counts.iter_mut().find(|(g, _)| *g == key) {
                Some((_, n)) => *n += 1,
                None => counts.push((key, 1)),
            }
        }
        counts
    }

    /// How many weight tensors landed in each storage format — the
    /// mix report for auto-planned stacks.
    pub fn format_census(&self) -> Vec<(MatmulFormat, usize)> {
        let mut counts: Vec<(MatmulFormat, usize)> = Vec::new();
        for block in &self.blocks {
            for plan in block.plans() {
                let f = plan.format();
                match counts.iter_mut().find(|(g, _)| *g == f) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((f, 1)),
                }
            }
        }
        counts
    }

    /// How many weight plans landed on each execution path, labelled
    /// with the roofline regime each reports on `dev` — the dispatch
    /// report for auto-planned stacks (e.g. `vnm/compute x4,
    /// band/memory x8`). Plans without resource counts label as
    /// `unpriced`.
    pub fn path_census(&self, dev: &venom_runtime::DeviceConfig) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for block in &self.blocks {
            for plan in block.plans() {
                let regime = plan
                    .plan
                    .regime(dev)
                    .map_or_else(|| "unpriced".to_string(), |r| r.to_string());
                let key = format!("{}/{regime}", plan.plan.path());
                match counts.iter_mut().find(|(g, _)| *g == key) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((key, 1)),
                }
            }
        }
        counts
    }

    /// Total simulated weight-op time captured in the plans, in
    /// milliseconds (plans without a launchable configuration are
    /// skipped).
    pub fn planned_weight_op_ms(&self) -> f64 {
        self.blocks
            .iter()
            .flat_map(|b| b.plans())
            .filter_map(|p| p.plan.timing().map(|t| t.time_ms))
            .sum()
    }

    /// Publishes the stack's census counts and planned weight-op time
    /// into the process metrics registry as gauges
    /// (`dnn_weight_format_plans{format=}`,
    /// `dnn_path_regime_plans{path_regime=}`,
    /// `dnn_attention_blocks{core=}`, `dnn_planned_weight_op_ms`), so
    /// the CLI's census report lines and an operator scraping the
    /// registry read the same numbers.
    pub fn publish_census_gauges(&self, dev: &venom_runtime::DeviceConfig) {
        let reg = venom_obs::registry();
        for (f, n) in self.format_census() {
            let f = f.to_string();
            reg.gauge("dnn_weight_format_plans", &[("format", &f)])
                .set(n as f64);
        }
        for (key, n) in self.path_census(dev) {
            reg.gauge("dnn_path_regime_plans", &[("path_regime", &key)])
                .set(n as f64);
        }
        for (core, n) in self.attention_census() {
            reg.gauge("dnn_attention_blocks", &[("core", &core)])
                .set(n as f64);
        }
        reg.gauge("dnn_planned_weight_op_ms", &[])
            .set(self.planned_weight_op_ms());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_runtime::DeviceConfig;
    use venom_tensor::random;

    fn mini() -> TransformerConfig {
        TransformerConfig::new("mini", 32, 4, 2, 64, 16)
    }

    fn engine() -> Engine {
        Engine::new(DeviceConfig::rtx3090())
    }

    #[test]
    fn dense_stack_runs_and_normalises() {
        let model = TransformerEncoder::new(mini(), 1);
        assert_eq!(model.blocks.len(), 2);
        let x = random::activation_matrix(16, 32, 2);
        let y = model.forward(&x);
        assert_eq!((y.rows(), y.cols()), (16, 32));
        // Final layer norm: every row has ~zero mean.
        for r in 0..16 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 32.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
        }
    }

    #[test]
    fn sparse_stack_stays_close_to_dense_at_50_percent() {
        let model = TransformerEncoder::new(mini(), 3);
        let sparse = model.sparsify(&engine(), VnmConfig::new(16, 2, 4)); // 50%
        let x = random::activation_matrix(16, 32, 4);
        let yd = model.forward(&x);
        let ys = sparse.forward(&x);
        assert_eq!((ys.rows(), ys.cols()), (16, 32));
        assert!(ys.as_slice().iter().all(|v| v.is_finite()));
        // 50% magnitude pruning keeps the bulk of the signal: outputs
        // correlate strongly with the dense stack.
        let dot: f64 = yd
            .as_slice()
            .iter()
            .zip(ys.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let nd: f64 = yd
            .as_slice()
            .iter()
            .map(|a| (*a as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        let ns: f64 = ys
            .as_slice()
            .iter()
            .map(|a| (*a as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        let cosine = dot / (nd * ns);
        assert!(cosine > 0.7, "cosine similarity {cosine}");
    }

    #[test]
    fn planned_stack_is_bit_identical_to_percall() {
        let model = TransformerEncoder::new(mini(), 7);
        let sparse = model.sparsify(&engine(), VnmConfig::new(16, 2, 8));
        let x = random::activation_matrix(16, 32, 8);
        assert_eq!(sparse.forward(&x), sparse.forward_percall(&x));
    }

    #[test]
    fn auto_planned_stack_is_exact_and_reports_its_mix() {
        let model = TransformerEncoder::new(mini(), 11);
        let sparse = model
            .sparsify_with(&engine(), VnmConfig::new(16, 2, 8), PlanStrategy::Auto)
            .unwrap();
        let x = random::activation_matrix(16, 32, 12);
        assert_eq!(sparse.forward(&x), sparse.forward_percall(&x));
        let census = sparse.format_census();
        let total: usize = census.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 12, "2 blocks x 6 weights: {census:?}");
    }

    #[test]
    fn path_census_reports_regimes_per_execution_path() {
        let eng = engine();
        let model = TransformerEncoder::new(mini(), 13);
        // Forced band path: every weight reports the band path with a
        // regime (the tiny shapes are bandwidth-bound on an RTX 3090).
        let sparse = model
            .sparsify_with(&eng, VnmConfig::new(16, 2, 8), PlanStrategy::Band)
            .unwrap();
        let census = sparse.path_census(eng.device());
        let total: usize = census.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 12, "2 blocks x 6 weights: {census:?}");
        assert!(
            census.iter().all(|(k, _)| k.starts_with("band/")),
            "{census:?}"
        );
        assert!(
            census.iter().all(|(k, _)| !k.ends_with("unpriced")),
            "every band plan carries counts: {census:?}"
        );
        // The forced band stack still computes the exact bits.
        let x = random::activation_matrix(16, 32, 14);
        assert_eq!(sparse.forward(&x), sparse.forward_percall(&x));
    }

    #[test]
    fn batched_forward_matches_sequential() {
        let model = TransformerEncoder::new(mini(), 9);
        let sparse = model.sparsify(&engine(), VnmConfig::new(16, 2, 4));
        let x1 = random::activation_matrix(16, 32, 10);
        let x2 = random::activation_matrix(12, 32, 11);
        let batch = sparse.forward_batch(&[&x1, &x2]);
        assert_eq!(batch[0], sparse.forward(&x1));
        assert_eq!(batch[1], sparse.forward(&x2));
    }

    #[test]
    fn adopted_attention_stays_bit_identical_and_reports_census() {
        let eng = engine();
        let model = TransformerEncoder::new(mini(), 15);
        let mut sparse = model.sparsify(&eng, VnmConfig::new(16, 2, 8));
        let mask = AttentionMask::SlidingWindow { window: 4 };
        sparse
            .adopt_planned_attention(&eng, 16, &mask)
            .expect("mini stack plans");
        // Both execution paths stay bit-identical with the planned
        // attention core in the loop.
        let x = random::activation_matrix(16, 32, 16);
        assert_eq!(sparse.forward(&x), sparse.forward_percall(&x));
        // All layers share one plan (one shape, shared cache).
        let p0 = &sparse.blocks[0].planned_attn.as_ref().unwrap().plan;
        let p1 = &sparse.blocks[1].planned_attn.as_ref().unwrap().plan;
        assert!(std::sync::Arc::ptr_eq(p0, p1));
        // The census labels the adopted mask.
        assert_eq!(
            sparse.attention_census(),
            vec![("planned sliding-window(4)".to_string(), 2)]
        );
        // The adopted stack differs from the unadopted bidirectional one
        // (it is masked attention now).
        let plain = model.sparsify(&eng, VnmConfig::new(16, 2, 8));
        assert_ne!(sparse.forward(&x), plain.forward(&x));
        assert_eq!(plain.attention_census(), vec![("dense".to_string(), 2)]);
    }

    #[test]
    fn census_reads_the_projections_the_forward_runs() {
        let eng = engine();
        let model = TransformerEncoder::new(mini(), 17);
        let mut sparse = model.sparsify(&eng, VnmConfig::new(16, 2, 8));
        sparse
            .adopt_planned_attention(&eng, 16, &AttentionMask::Causal)
            .expect("mini stack plans");
        assert_eq!(sparse.format_census(), vec![(MatmulFormat::Vnm, 12)]);
        // Re-plan one adopted projection dense: the census, the path
        // census and the planned op time follow the plan `forward` runs.
        let before_ms = sparse.planned_weight_op_ms();
        let adopted = &mut sparse.blocks[0].planned_attn.as_mut().unwrap().mha;
        let dense = eng.plan_gemm(&adopted.wq.plan.weight_dense());
        adopted.wq.plan = Arc::new(dense);
        let block = &sparse.blocks[0];
        let runs = &block.planned_attn.as_ref().unwrap().mha.wq.plan;
        assert!(Arc::ptr_eq(&block.plans()[0].plan, runs));
        assert_eq!(
            sparse.format_census(),
            vec![(MatmulFormat::Dense, 1), (MatmulFormat::Vnm, 11)]
        );
        let paths = sparse.path_census(eng.device());
        let total: usize = paths.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 12, "{paths:?}");
        assert!(
            paths.iter().any(|(k, _)| k.starts_with("dense/")),
            "{paths:?}"
        );
        assert_ne!(sparse.planned_weight_op_ms(), before_ms);
        let x = random::activation_matrix(16, 32, 18);
        assert_eq!(sparse.forward(&x), sparse.forward_percall(&x));
    }

    #[test]
    fn sparsify_records_the_pattern() {
        let model = TransformerEncoder::new(mini(), 5);
        let pattern = VnmConfig::new(16, 2, 8);
        let sparse = model.sparsify(&engine(), pattern);
        assert_eq!(sparse.pattern, pattern);
        assert_eq!(sparse.blocks.len(), 2);
        assert_eq!(sparse.blocks[0].ff1.format(), MatmulFormat::Vnm);
        assert!(sparse.planned_weight_op_ms() > 0.0);
    }
}
