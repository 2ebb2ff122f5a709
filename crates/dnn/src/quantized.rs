//! The int8 layer path: [`QuantizedLinear`], a linear layer served by the
//! calibrated int8 [`Plan`].
//!
//! The dataflow mirrors Magicube's serving recipe: weights are quantized
//! *once* at plan-build time (per-output-channel symmetric scales over
//! the stored V:N:M nonzeros); activations stay f32 in the model and are
//! quantized per call at the matmul boundary (one per-tensor scale after
//! the usual f16 rounding); the integer matmul accumulates exactly in
//! i32; and the dequantization multiply `row_scale * act_scale` is
//! folded into the transpose+bias epilogue, so the int8 layer has the
//! same fused two-pass shape as the f16 planned layer.
//!
//! Like every layer in this crate, the planned and per-call execution
//! paths are bit-identical *to each other*; versus the f16 layer the
//! output carries the calibrator-bounded quantization error reported in
//! EXPERIMENTS.md.

use crate::layers::{ExecPath, Linear};
use venom_format::{SparsityMask, VnmConfig, VnmMatrix};
use venom_runtime::{Calibration, Engine, MatmulPlan, Plan};
use venom_tensor::Matrix;

/// A linear layer `y = x W^T + b` over a calibrated int8 V:N:M plan.
#[derive(Clone, Debug)]
pub struct QuantizedLinear {
    /// The i32-accumulating execution plan.
    pub plan: Plan,
    /// Bias, length `out_features`.
    pub bias: Vec<f32>,
}

impl QuantizedLinear {
    /// Wraps an already-built quantized plan with its bias.
    ///
    /// # Panics
    /// Panics if `bias.len()` mismatches the plan's output features.
    pub fn new(plan: Plan, bias: Vec<f32>) -> Self {
        assert_eq!(
            bias.len(),
            plan.descriptor().out_features,
            "bias must match out_features"
        );
        QuantizedLinear { plan, bias }
    }

    /// Prunes a dense layer with `mask`, compresses to V:N:M, quantizes
    /// under `calib` and plans the int8 dispatch on `engine`.
    ///
    /// # Panics
    /// Panics if the mask shape mismatches or violates `cfg`.
    pub fn from_linear(
        engine: &Engine,
        linear: &Linear,
        mask: &SparsityMask,
        cfg: VnmConfig,
        calib: Calibration,
    ) -> Self {
        let pruned = mask.apply_half(linear.weight());
        let a = VnmMatrix::compress(&pruned, mask, cfg);
        let plan = engine.clone().with_calibration(calib).plan_quant_spmm(&a);
        Self::new(plan, linear.bias.clone())
    }

    /// `(out_features, in_features)`.
    pub fn shape(&self) -> (usize, usize) {
        let d = self.plan.descriptor();
        (d.out_features, d.in_features)
    }

    /// The calibrator of the weight scales.
    pub fn calibration(&self) -> Calibration {
        self.plan
            .quantized()
            .expect("a QuantizedLinear is built only over an int8 plan")
            .calibration()
    }

    /// Forward through the chosen execution path; both quantize the
    /// activations identically and are bit-identical to each other.
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
    /// `tokens x out_features`. Bit-identical to
    /// [`Self::forward_percall`].
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn forward(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_via(ExecPath::Planned, x)
    }

    /// The retained per-call path: re-quantizes and re-dispatches through
    /// the one-shot integer kernel on every invocation.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn forward_percall(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_via(ExecPath::PerCall, x)
    }

    /// Erases the layer into a [`crate::layers::PlannedLinear`], so int8
    /// layers slot into models next to f16 plans.
    pub fn into_planned(self) -> crate::layers::PlannedLinear {
        crate::layers::PlannedLinear::new(std::sync::Arc::new(self.plan), self.bias)
    }
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

    fn fixture(cfg: VnmConfig, seed: u64) -> (Linear, SparsityMask) {
        let lin = Linear::glorot(64, 64, seed);
        let mask = magnitude::prune_vnm(&lin.weight().to_f32(), cfg);
        (lin, mask)
    }

    #[test]
    fn planned_and_percall_paths_are_bit_identical() {
        let cfg = VnmConfig::new(32, 2, 8);
        let (lin, mask) = fixture(cfg, 1);
        for calib in [Calibration::AbsMax, Calibration::Percentile(99.0)] {
            let q = QuantizedLinear::from_linear(&engine(), &lin, &mask, cfg, calib);
            let x = random::activation_matrix(16, 64, 2);
            assert_eq!(q.forward(&x), q.forward_percall(&x), "{calib}");
        }
    }

    #[test]
    fn quantized_forward_tracks_the_f16_layer() {
        let cfg = VnmConfig::new(32, 2, 8);
        let (lin, mask) = fixture(cfg, 3);
        let q = QuantizedLinear::from_linear(&engine(), &lin, &mask, cfg, Calibration::AbsMax);
        let f16 = lin.to_sparse(&engine(), &mask, cfg);
        let x = random::activation_matrix(16, 64, 4);
        let yq = q.forward(&x);
        let yf = f16.forward(&x);
        let rel = venom_tensor::norms::rel_frobenius_error(&yq, &yf);
        assert!(rel < 0.05, "relative error {rel}");
        assert_eq!(q.shape(), (64, 64));
    }

    #[test]
    fn into_planned_keeps_the_i8_plan() {
        use venom_runtime::DType;
        let cfg = VnmConfig::new(16, 2, 8);
        let (lin, mask) = fixture(cfg, 5);
        let q = QuantizedLinear::from_linear(&engine(), &lin, &mask, cfg, Calibration::AbsMax);
        let x = random::activation_matrix(9, 64, 6);
        let want = q.forward(&x);
        let planned = q.into_planned();
        assert_eq!(planned.plan.descriptor().dtype, DType::I8);
        assert_eq!(planned.forward(&x), want);
    }
}
