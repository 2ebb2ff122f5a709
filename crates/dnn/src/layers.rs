//! Neural-network layers with functional forward passes.
//!
//! Activations are kept in `f32`; GEMM operands are converted to half at
//! the layer boundary (standard mixed-precision inference). Layers hold
//! *execution plans* built by the [`Engine`] behind the format-erased
//! [`MatmulPlan`] surface: a [`Linear`] owns a dense [`Plan`] over its
//! half weight, a [`PlannedLinear`] owns an `Arc<dyn MatmulPlan>`
//! in whatever storage format the engine chose — so one model mixes
//! V:N:M, 2:4, CSR, CVSE, Blocked-ELL and dense weights per layer.
//!
//! Both execution paths of every layer go through the same trait: the
//! planned fast path replays the condensed stream, and the retained
//! per-call baseline ([`ExecPath::PerCall`]) re-stages and re-dispatches
//! on every invocation via [`MatmulPlan::run_linear_percall`]. The two
//! are bit-identical; the serving benchmarks time them against each
//! other.

use std::sync::Arc;
use venom_format::{MatmulFormat, SparsityMask, VnmConfig, VnmMatrix};
use venom_fp16::Half;
use venom_runtime::{Calibration, DType, Engine, Epilogue, MatmulPlan, Plan, PlanError};
use venom_tensor::Matrix;

/// Which of a layer's two bit-identical execution paths to take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecPath {
    /// Replay the plan built at construction (the serving fast path).
    Planned,
    /// Re-stage and re-dispatch per call (the unplanned baseline the
    /// benchmarks compare against).
    PerCall,
}

/// How a pruned weight is planned for execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanStrategy {
    /// Compress to the pruned V:N:M pattern and plan on the Spatha
    /// kernel (the paper's configuration).
    Vnm,
    /// Let [`Engine::plan_auto`] pick the cost-model-cheapest eligible
    /// format per weight.
    Auto,
    /// Force the bandwidth-optimized non-mma V:N:M path (the
    /// FlashSparse-style swapped-operand replay) for every weight —
    /// what `plan_auto` routes memory-bound shapes to on its own.
    Band,
    /// Force one storage format for every weight.
    Format(MatmulFormat),
    /// Compress to V:N:M and quantize to the calibrated int8 container:
    /// the i32-accumulating plan with the dequantization scale folded
    /// into the epilogue. Weights quantize once at plan build
    /// (per-output-channel symmetric scales); activations quantize per
    /// call at the matmul boundary, the same way on the planned and
    /// per-call paths.
    Quantized(Calibration),
    /// Automatic selection with int8 allowed: every f16 format competes
    /// with the quantized V:N:M candidate on the same cost currency, per
    /// weight.
    AutoQuantized(Calibration),
}

/// A dense linear layer `y = x W^T + b` with `W: [out x in]`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Planned dense weight, `out_features x in_features`.
    pub plan: Plan,
    /// Bias, length `out_features`.
    pub bias: Vec<f32>,
}

impl Linear {
    /// Creates a layer from an f32 weight matrix and bias.
    ///
    /// # Panics
    /// Panics if `bias.len() != weight.rows()`.
    pub fn new(weight: &Matrix<f32>, bias: Vec<f32>) -> Self {
        Self::from_half(&weight.to_half(), bias)
    }

    /// Creates a layer from a half weight matrix and bias.
    ///
    /// # Panics
    /// Panics if `bias.len() != weight.rows()`.
    pub fn from_half(weight: &Matrix<Half>, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), weight.rows(), "bias must match out_features");
        Linear {
            plan: Plan::from_dense(weight),
            bias,
        }
    }

    /// Glorot-initialised layer.
    pub fn glorot(out_features: usize, in_features: usize, seed: u64) -> Self {
        let w = venom_tensor::random::glorot_matrix(out_features, in_features, seed);
        Linear::new(&w, vec![0.0; out_features])
    }

    /// The dense half weight.
    pub fn weight(&self) -> &Matrix<Half> {
        self.plan
            .dense()
            .expect("a Linear is built only over a dense plan")
    }

    /// `(out_features, in_features)`.
    pub fn shape(&self) -> (usize, usize) {
        let d = self.plan.descriptor();
        (d.out_features, d.in_features)
    }

    /// Forward through the chosen execution path; both are bit-identical.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn forward_via(&self, path: ExecPath, x: &Matrix<f32>) -> Matrix<f32> {
        match path {
            ExecPath::Planned => self.plan.run_linear(x, &self.bias),
            ExecPath::PerCall => self.plan.run_linear_percall(x, &self.bias),
        }
    }

    /// Forward pass: `x` is `tokens x in_features`; returns
    /// `tokens x out_features`. Bit-identical to [`Self::forward_percall`].
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn forward(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_via(ExecPath::Planned, x)
    }

    /// Forward over an operand staged once for several sibling layers
    /// (see [`venom_runtime::stage::stage_activations_t`]).
    pub fn forward_staged(&self, staged: &[f32], tokens: usize) -> Matrix<f32> {
        self.plan.run_linear_staged(staged, tokens, &self.bias)
    }

    /// The retained per-call path: converts, transposes and multiplies on
    /// every invocation, via the trait's per-call chain.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn forward_percall(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_via(ExecPath::PerCall, x)
    }

    /// Converts to a planned sparse layer by pruning with `mask`,
    /// compressing to V:N:M and planning on `engine` (the paper's
    /// configuration; see [`Self::to_sparse_with`] for other formats).
    ///
    /// # Panics
    /// Panics if the mask does not comply with `cfg`.
    pub fn to_sparse(&self, engine: &Engine, mask: &SparsityMask, cfg: VnmConfig) -> PlannedLinear {
        self.to_sparse_with(engine, mask, cfg, PlanStrategy::Vnm)
            .expect("V:N:M planning accepts any complying mask")
    }

    /// Prunes with `mask` and plans the pruned weight per `strategy` —
    /// fixed V:N:M, automatic format selection, a forced format, or the
    /// calibrated int8 container.
    ///
    /// # Errors
    /// Returns [`PlanError`] when a forced format cannot serve the
    /// pruned weight's structure, and [`PlanError::Incompatible`] when
    /// the mask violates `cfg` under [`PlanStrategy::Vnm`] or
    /// [`PlanStrategy::Quantized`], which both compress through
    /// [`VnmMatrix::try_compress`], or when the pruned weight holds NaN or
    /// ±Inf under [`PlanStrategy::Quantized`], which calibration refuses.
    ///
    /// # Panics
    /// Panics if the mask shape mismatches.
    pub fn to_sparse_with(
        &self,
        engine: &Engine,
        mask: &SparsityMask,
        cfg: VnmConfig,
        strategy: PlanStrategy,
    ) -> Result<PlannedLinear, PlanError> {
        let pruned = mask.apply_half(self.weight());
        let desc = engine
            .descriptor(pruned.rows(), pruned.cols())
            .with_epilogue(Epilogue::Bias);
        let compress = || {
            VnmMatrix::try_compress(&pruned, mask, cfg).map_err(|e| PlanError::Incompatible {
                format: MatmulFormat::Vnm,
                reason: e.to_string(),
            })
        };
        let plan: Arc<dyn MatmulPlan> = match strategy {
            PlanStrategy::Vnm => Arc::new(engine.plan_spmm(&compress()?)),
            // The prune pattern is known here — seed the V:N:M candidate
            // with it so patterns outside the engine's re-detection grid
            // still compete.
            PlanStrategy::Auto => engine.plan_auto_hinted(&desc, &pruned, Some(cfg)),
            PlanStrategy::Band => engine.plan_band_hinted(&desc, &pruned, Some(cfg))?,
            PlanStrategy::Format(f) => engine.plan_with_format(f, &desc, &pruned)?,
            PlanStrategy::Quantized(calib) => {
                let e = engine.clone().with_calibration(calib);
                Arc::new(e.try_plan_quant_spmm(&compress()?)?)
            }
            PlanStrategy::AutoQuantized(calib) => engine
                .clone()
                .with_calibration(calib)
                .plan_auto_hinted(&desc.with_dtype(DType::I8), &pruned, Some(cfg)),
        };
        Ok(PlannedLinear {
            plan,
            bias: self.bias.clone(),
        })
    }
}

/// A linear layer over a format-erased execution plan — the layer type
/// sparsified models hold, in whatever storage format the engine chose.
#[derive(Clone, Debug)]
pub struct PlannedLinear {
    /// The planned weight, logically `out_features x in_features`.
    pub plan: Arc<dyn MatmulPlan>,
    /// Bias, length `out_features`.
    pub bias: Vec<f32>,
}

impl PlannedLinear {
    /// Wraps an already-built plan with its bias.
    ///
    /// # Panics
    /// Panics if `bias.len()` mismatches the plan's output features.
    pub fn new(plan: Arc<dyn MatmulPlan>, bias: Vec<f32>) -> Self {
        assert_eq!(
            bias.len(),
            plan.descriptor().out_features,
            "bias must match out_features"
        );
        PlannedLinear { plan, bias }
    }

    /// The storage format the plan executes.
    pub fn format(&self) -> MatmulFormat {
        self.plan.format()
    }

    /// `(out_features, in_features)`.
    pub fn shape(&self) -> (usize, usize) {
        let d = self.plan.descriptor();
        (d.out_features, d.in_features)
    }

    /// Forward through the chosen execution path; both are bit-identical.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn forward_via(&self, path: ExecPath, x: &Matrix<f32>) -> Matrix<f32> {
        match path {
            ExecPath::Planned => self.plan.run_linear(x, &self.bias),
            ExecPath::PerCall => self.plan.run_linear_percall(x, &self.bias),
        }
    }

    /// Forward pass through the plan. Bit-identical to
    /// [`Self::forward_percall`].
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn forward(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_via(ExecPath::Planned, x)
    }

    /// Forward over an operand staged once for several sibling layers.
    pub fn forward_staged(&self, staged: &[f32], tokens: usize) -> Matrix<f32> {
        self.plan.run_linear_staged(staged, tokens, &self.bias)
    }

    /// The retained per-call path: re-stages and re-dispatches through
    /// the one-shot entry points on every invocation (the unplanned
    /// baseline of the serving benchmarks).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn forward_percall(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_via(ExecPath::PerCall, x)
    }
}

/// Layer normalisation over the feature dimension.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    /// Scale, length = features.
    pub gamma: Vec<f32>,
    /// Shift, length = features.
    pub beta: Vec<f32>,
    /// Numerical floor.
    pub eps: f32,
}

impl LayerNorm {
    /// Identity-initialised layer norm.
    pub fn new(features: usize) -> Self {
        LayerNorm {
            gamma: vec![1.0; features],
            beta: vec![0.0; features],
            eps: 1e-5,
        }
    }

    /// Normalises each row of `x`.
    ///
    /// # Panics
    /// Panics if the feature dimension mismatches.
    pub fn forward(&self, x: &Matrix<f32>) -> Matrix<f32> {
        assert_eq!(x.cols(), self.gamma.len(), "feature mismatch");
        let mut out = x.clone();
        for r in 0..x.rows() {
            let row = x.row(r);
            let n = row.len() as f32;
            let mean: f32 = row.iter().sum::<f32>() / n;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            let inv = 1.0 / (var + self.eps).sqrt();
            let orow = out.row_mut(r);
            for (c, o) in orow.iter_mut().enumerate() {
                *o = (row[c] - mean) * inv * self.gamma[c] + self.beta[c];
            }
        }
        out
    }
}

/// GELU activation (tanh approximation, as BERT uses), evaluated in half
/// precision: the input rounds to f16 — the precision the activation
/// tensor has in the mixed-precision dataflow, where the preceding GEMM's
/// epilogue stores half before the activation kernel reads it — and the
/// result is the exact f32 GELU of that value, read from a table over all
/// 2^16 half bit patterns (a tanh per element is a measurable slice of
/// end-to-end serving wall time on the functional path).
pub fn gelu(x: &Matrix<f32>) -> Matrix<f32> {
    let table = gelu_table();
    x.map(|v| table[venom_fp16::f32_to_f16_bits(v) as usize])
}

/// The f32 GELU (tanh approximation) of one value.
fn gelu_scalar(v: f32) -> f32 {
    0.5 * v * (1.0 + ((2.0 / core::f32::consts::PI).sqrt() * (v + 0.044715 * v * v * v)).tanh())
}

/// Exact GELU values for every f16 bit pattern, built on first use.
fn gelu_table() -> &'static [f32; 1 << 16] {
    static TABLE: std::sync::OnceLock<Box<[f32; 1 << 16]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = vec![0.0f32; 1 << 16];
        for (bits, slot) in t.iter_mut().enumerate() {
            *slot = gelu_scalar(venom_fp16::f16_bits_to_f32(bits as u16));
        }
        t.try_into().expect("table has 2^16 entries")
    })
}

/// Row-wise softmax.
///
/// A fully-masked row (every entry `-inf`, as attention masks produce)
/// yields zeros rather than NaN: without the guard, `max` is `-inf`,
/// every shifted entry becomes `-inf - -inf = NaN`, and the division
/// spreads it. Zeros are the limit the masked attention semantics want —
/// the row attends to nothing, so it contributes nothing to `P·V`.
pub fn softmax_rows(x: &Matrix<f32>) -> Matrix<f32> {
    let mut out = x.clone();
    for r in 0..x.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if max == f32::NEG_INFINITY {
            row.fill(0.0);
            continue;
        }
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_pruner::magnitude;
    use venom_sim::DeviceConfig;
    use venom_tensor::random;

    fn engine() -> Engine {
        Engine::new(DeviceConfig::rtx3090())
    }

    #[test]
    fn linear_forward_matches_manual() {
        let w = Matrix::from_vec(2, 3, vec![1.0f32, 0.0, -1.0, 0.5, 2.0, 0.0]);
        let lin = Linear::new(&w, vec![1.0, -1.0]);
        let x = Matrix::from_vec(1, 3, vec![2.0f32, 3.0, 4.0]);
        let y = lin.forward(&x);
        // y0 = 2 - 4 + 1 = -1 ; y1 = 1 + 6 - 1 = 6.
        assert_eq!(y.as_slice(), &[-1.0, 6.0]);
    }

    #[test]
    fn non_compliant_mask_is_an_error_not_a_panic() {
        // Every column kept: each row's 8-wide group holds 8 > 2 values.
        let cfg = VnmConfig::new(16, 2, 8);
        let lin = Linear::glorot(32, 64, 3);
        let mask = SparsityMask::from_fn(32, 64, |_, _| true);
        for strategy in [
            PlanStrategy::Vnm,
            PlanStrategy::Quantized(Calibration::AbsMax),
        ] {
            let err = lin
                .to_sparse_with(&engine(), &mask, cfg, strategy)
                .expect_err("the mask violates 16:2:8");
            assert!(
                err.to_string().contains("mask violates the 16:2:8 pattern"),
                "{strategy:?}: {err}"
            );
        }
    }

    #[test]
    fn non_finite_weight_is_an_int8_error_not_a_panic() {
        // A kept NaN: calibration refuses it, so the int8 strategy reports
        // why, and the auto int8 strategy plans in f16.
        let cfg = VnmConfig::new(16, 2, 8);
        let mut w = random::normal_matrix(32, 64, 0.0, 1.0, 11);
        let mask = magnitude::prune_vnm(&w, cfg);
        let c = (0..64)
            .find(|&c| mask.get(0, c))
            .expect("row 0 keeps values");
        w.set(0, c, f32::NAN);
        let lin = Linear::new(&w, vec![0.0; 32]);
        let err = lin
            .to_sparse_with(
                &engine(),
                &mask,
                cfg,
                PlanStrategy::Quantized(Calibration::AbsMax),
            )
            .expect_err("a NaN weight cannot be calibrated");
        assert!(
            matches!(err, PlanError::Incompatible { .. }) && err.to_string().contains("NaN"),
            "{err}"
        );
        let auto = PlanStrategy::AutoQuantized(Calibration::AbsMax);
        let planned = lin.to_sparse_with(&engine(), &mask, cfg, auto).unwrap();
        assert_eq!(planned.plan.descriptor().dtype, DType::F16);
    }

    #[test]
    fn planned_forward_is_bit_identical_to_percall() {
        let lin = Linear::glorot(48, 80, 7);
        let x = random::activation_matrix(21, 80, 8);
        assert_eq!(lin.forward(&x), lin.forward_percall(&x));
    }

    #[test]
    fn sparse_planned_forward_is_bit_identical_to_percall() {
        let cfg = VnmConfig::new(32, 2, 8);
        let lin = Linear::glorot(64, 64, 1);
        let wf = lin.weight().to_f32();
        let mask = magnitude::prune_vnm(&wf, cfg);
        let sparse = lin.to_sparse(&engine(), &mask, cfg);
        assert_eq!(sparse.format(), MatmulFormat::Vnm);
        let x = random::activation_matrix(16, 64, 2);
        assert_eq!(sparse.forward(&x), sparse.forward_percall(&x));
    }

    #[test]
    fn every_strategy_stays_bit_identical_across_paths() {
        // The dedup contract: whatever format a layer plans in, the
        // planned and per-call paths produce the same bits.
        let cfg = VnmConfig::new(16, 2, 4); // 2:4 so the nm format is eligible
        let lin = Linear::glorot(32, 32, 5);
        let wf = lin.weight().to_f32();
        let mask = magnitude::prune_vnm(&wf, cfg);
        let x = random::activation_matrix(9, 32, 6);
        for strategy in [
            PlanStrategy::Vnm,
            PlanStrategy::Auto,
            PlanStrategy::Band,
            PlanStrategy::Format(MatmulFormat::Nm),
            PlanStrategy::Format(MatmulFormat::Csr),
            PlanStrategy::Format(MatmulFormat::Cvse),
            PlanStrategy::Format(MatmulFormat::BlockedEll),
            PlanStrategy::Format(MatmulFormat::Dense),
            PlanStrategy::Quantized(Calibration::AbsMax),
            PlanStrategy::Quantized(Calibration::Percentile(99.5)),
            PlanStrategy::AutoQuantized(Calibration::AbsMax),
        ] {
            let planned = lin.to_sparse_with(&engine(), &mask, cfg, strategy).unwrap();
            assert_eq!(
                planned.forward(&x),
                planned.forward_percall(&x),
                "paths diverged for {strategy:?} ({})",
                planned.format()
            );
        }
    }

    #[test]
    fn forced_format_error_names_the_reason() {
        let lin = Linear::glorot(32, 40, 9);
        let wf = lin.weight().to_f32();
        let mask = magnitude::prune_vnm(&wf, VnmConfig::new(16, 2, 10));
        let err = lin
            .to_sparse_with(
                &engine(),
                &mask,
                VnmConfig::new(16, 2, 10),
                PlanStrategy::Format(MatmulFormat::Nm),
            )
            .unwrap_err();
        assert!(err.to_string().contains("2:4"), "{err}");
    }

    #[test]
    fn sparse_linear_matches_masked_dense() {
        let cfg = VnmConfig::new(32, 2, 8);
        let lin = Linear::glorot(64, 64, 1);
        let wf = lin.weight().to_f32();
        let mask = magnitude::prune_vnm(&wf, cfg);
        let sparse = lin.to_sparse(&engine(), &mask, cfg);
        let x = random::activation_matrix(16, 64, 2);
        let y_sparse = sparse.forward(&x);
        // Reference: dense forward with the pruned weights.
        let pruned = Linear::new(&mask.apply_f32(&wf), lin.bias.clone());
        let y_dense = pruned.forward(&x);
        assert!(
            venom_tensor::norms::allclose(&y_sparse, &y_dense, 1e-2, 1e-2),
            "max diff {}",
            venom_tensor::norms::max_abs_diff(&y_sparse, &y_dense)
        );
    }

    #[test]
    fn layernorm_normalises_rows() {
        let ln = LayerNorm::new(4);
        let x = Matrix::from_vec(2, 4, vec![1.0f32, 2.0, 3.0, 4.0, -2.0, 0.0, 2.0, 4.0]);
        let y = ln.forward(&x);
        for r in 0..2 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "mean={mean}");
            assert!((var - 1.0).abs() < 1e-3, "var={var}");
        }
    }

    #[test]
    fn gelu_fixed_points() {
        let x = Matrix::from_vec(1, 3, vec![0.0f32, 10.0, -10.0]);
        let y = gelu(&x);
        assert_eq!(y.get(0, 0), 0.0);
        assert!((y.get(0, 1) - 10.0).abs() < 1e-3);
        assert!(y.get(0, 2).abs() < 1e-3);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = random::activation_matrix(5, 7, 3);
        let y = softmax_rows(&x);
        for r in 0..5 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(y.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_fully_masked_row_yields_zeros_not_nan() {
        // Regression: a row of -inf (a fully-masked attention row) used
        // to shift by max = -inf, producing NaN everywhere; it must
        // yield zeros while untouched rows keep their exact bits.
        let masked = Matrix::from_vec(
            2,
            3,
            vec![
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                0.5,
                f32::NEG_INFINITY,
                -0.25,
            ],
        );
        let y = softmax_rows(&masked);
        assert!(y.row(0).iter().all(|&v| v == 0.0), "{:?}", y.row(0));
        // A partially-masked row still normalizes over the live entries.
        let s: f32 = y.row(1).iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert_eq!(y.get(1, 1), 0.0, "masked entry carries zero probability");
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let x = Matrix::from_vec(1, 3, vec![1000.0f32, 1001.0, 999.0]);
        let y = softmax_rows(&x);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        let x2 = Matrix::from_vec(1, 3, vec![0.0f32, 1.0, -1.0]);
        let y2 = softmax_rows(&x2);
        for (a, b) in y.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
