//! Tests of the int8 layer: a [`PlannedLinear`] planned through
//! [`PlanStrategy::Quantized`] over the calibrated V:N:M container.

#[cfg(test)]
mod tests {
    use crate::layers::{Linear, PlanStrategy, PlannedLinear};
    use std::sync::Arc;
    use venom_format::{SparsityMask, VnmConfig, VnmMatrix};
    use venom_pruner::magnitude;
    use venom_runtime::{Calibration, DType, Engine};
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

    fn quantized(
        lin: &Linear,
        mask: &SparsityMask,
        cfg: VnmConfig,
        calib: Calibration,
    ) -> PlannedLinear {
        lin.to_sparse_with(&engine(), mask, cfg, PlanStrategy::Quantized(calib))
            .expect("quantized V:N:M planning accepts any complying mask")
    }

    #[test]
    fn planned_and_percall_paths_are_bit_identical() {
        let cfg = VnmConfig::new(32, 2, 8);
        let (lin, mask) = fixture(cfg, 1);
        for calib in [Calibration::AbsMax, Calibration::Percentile(99.0)] {
            let q = quantized(&lin, &mask, cfg, calib);
            let x = random::activation_matrix(16, 64, 2);
            assert_eq!(q.forward(&x), q.forward_percall(&x), "{calib}");
        }
    }

    #[test]
    fn quantized_forward_tracks_the_f16_layer() {
        let cfg = VnmConfig::new(32, 2, 8);
        let (lin, mask) = fixture(cfg, 3);
        let q = quantized(&lin, &mask, cfg, Calibration::AbsMax);
        let f16 = lin.to_sparse(&engine(), &mask, cfg);
        let x = random::activation_matrix(16, 64, 4);
        let rel = venom_tensor::norms::rel_frobenius_error(&q.forward(&x), &f16.forward(&x));
        assert!(rel < 0.05, "relative error {rel}");
        assert_eq!(q.shape(), (64, 64));
    }

    #[test]
    fn into_planned_keeps_the_i8_plan() {
        // A quant plan built straight from the engine and wrapped with
        // `PlannedLinear::new` is the layer `to_sparse_with` builds.
        let cfg = VnmConfig::new(16, 2, 8);
        let (lin, mask) = fixture(cfg, 5);
        let q = quantized(&lin, &mask, cfg, Calibration::AbsMax);
        let x = random::activation_matrix(9, 64, 6);
        let want = q.forward(&x);
        let compressed = VnmMatrix::compress(&mask.apply_half(lin.weight()), &mask, cfg);
        let plan = engine()
            .with_calibration(Calibration::AbsMax)
            .plan_quant_spmm(&compressed);
        let planned = PlannedLinear::new(Arc::new(plan), lin.bias.clone());
        assert_eq!(q.plan.descriptor().dtype, DType::I8);
        assert_eq!(planned.plan.descriptor().dtype, DType::I8);
        assert_eq!(planned.forward(&x), want);
    }
}
