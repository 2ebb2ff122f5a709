//! STen-style sparsifier dispatch (Listing 1 of the paper).
//!
//! The paper integrates Spatha into PyTorch through STen: a *sparsifier*
//! turns a dense tensor into a format-specific wrapped tensor, and the
//! framework dispatches `spmm` on the wrapper to the efficient
//! implementation. This module is the Rust analogue: a [`Sparsifier`]
//! trait, the [`VnmSparsifier`] (the paper's `spatha.VNMSparsifier`), and
//! a [`SparseTensorWrapper`] that keeps the dense original alongside the
//! *planned* compressed form, mirroring
//! `sten.SparseTensorWrapper.wrapped_from_dense`. Wrapping plans the
//! tensor once on the engine; every `spmm` dispatch replays the plan
//! instead of rebuilding options and re-staging operands per call.

use venom_format::{SparsityMask, VnmConfig, VnmMatrix};
use venom_fp16::Half;
use venom_pruner::magnitude;
use venom_runtime::{Engine, MatmulPlan, Plan};
use venom_tensor::Matrix;

/// Turns dense weights into a compressed sparse form.
pub trait Sparsifier {
    /// The compressed output type.
    type Output;

    /// Sparsifies `dense`.
    fn sparsify(&self, dense: &Matrix<Half>) -> Self::Output;
}

/// The V:N:M magnitude sparsifier (`spatha.VNMSparsifier(n, m, v)`).
#[derive(Clone, Copy, Debug)]
pub struct VnmSparsifier {
    /// Target pattern.
    pub cfg: VnmConfig,
}

impl VnmSparsifier {
    /// Creates the sparsifier for `v:n:m`.
    pub fn new(v: usize, n: usize, m: usize) -> Self {
        VnmSparsifier {
            cfg: VnmConfig::new(v, n, m),
        }
    }
}

impl Sparsifier for VnmSparsifier {
    type Output = VnmMatrix;

    fn sparsify(&self, dense: &Matrix<Half>) -> VnmMatrix {
        let wf = dense.to_f32();
        let mask: SparsityMask = magnitude::prune_vnm(&wf, self.cfg);
        VnmMatrix::compress(&mask.apply_half(dense), &mask, self.cfg)
    }
}

/// A tensor that remembers both its dense origin and its planned
/// compressed form — `sten.SparseTensorWrapper.wrapped_from_dense(...)`.
#[derive(Clone, Debug)]
pub struct SparseTensorWrapper {
    /// The dense weights the wrapper was built from (used for gradient
    /// formats in STen; kept here for verification).
    pub dense_origin: Matrix<Half>,
    /// The compressed V:N:M tensor, planned on the wrapping engine.
    pub plan: Plan,
}

impl SparseTensorWrapper {
    /// Wraps `dense` using `sparsifier` (Listing 1's
    /// `torch_tensor_to_vnm`) and plans the compressed tensor on
    /// `engine` — the single place tile selection and operand staging
    /// happen.
    pub fn wrapped_from_dense(
        sparsifier: &VnmSparsifier,
        dense: &Matrix<Half>,
        engine: &Engine,
    ) -> Self {
        SparseTensorWrapper {
            dense_origin: dense.clone(),
            plan: engine.plan_spmm(&sparsifier.sparsify(dense)),
        }
    }

    /// The compressed V:N:M tensor.
    pub fn compressed(&self) -> &VnmMatrix {
        self.plan
            .vnm()
            .expect("wrapping always plans the V:N:M Spatha path")
    }

    /// Dispatches the SpMM through the plan (Listing 1's
    /// `spatha.spmm(values, columns, metadata, input, bias, ...)`),
    /// bit-identical to the one-shot `venom_core::spmm` dispatch it
    /// replaces.
    pub fn spmm(&self, input: &Matrix<Half>) -> Matrix<f32> {
        self.plan.run(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_sim::DeviceConfig;
    use venom_tensor::random;

    fn engine() -> Engine {
        Engine::new(DeviceConfig::rtx3090())
    }

    #[test]
    fn sparsifier_produces_compliant_tensor() {
        let dense = random::glorot_matrix(64, 128, 1).to_half();
        let sp = VnmSparsifier::new(32, 2, 8);
        let vnm = sp.sparsify(&dense);
        assert_eq!(vnm.shape(), (64, 128));
        assert_eq!(vnm.config(), VnmConfig::new(32, 2, 8));
        // The decompressed tensor is a masked version of the original.
        let dec = vnm.decompress();
        for r in 0..64 {
            for c in 0..128 {
                let v = dec.get(r, c);
                assert!(v.is_zero() || v == dense.get(r, c));
            }
        }
    }

    #[test]
    fn wrapper_keeps_origin_and_dispatches() {
        let dense = random::glorot_matrix(64, 64, 2).to_half();
        let sp = VnmSparsifier::new(32, 2, 8);
        let wrapped = SparseTensorWrapper::wrapped_from_dense(&sp, &dense, &engine());
        assert_eq!(wrapped.dense_origin, dense);
        let x = random::activation_matrix(64, 16, 3).to_half();
        let out = wrapped.spmm(&x);
        // The planned dispatch is exactly the compressed-format oracle.
        assert_eq!(out, wrapped.compressed().spmm_ref(&x));
    }

    #[test]
    fn repeated_dispatch_reuses_the_plan_exactly() {
        let dense = random::glorot_matrix(32, 64, 4).to_half();
        let sp = VnmSparsifier::new(16, 2, 8);
        let wrapped = SparseTensorWrapper::wrapped_from_dense(&sp, &dense, &engine());
        let x = random::activation_matrix(64, 8, 5).to_half();
        let first = wrapped.spmm(&x);
        for _ in 0..3 {
            assert_eq!(wrapped.spmm(&x), first);
        }
    }
}
