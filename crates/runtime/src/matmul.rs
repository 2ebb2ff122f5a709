//! The format-erased plan surface: one trait every backend executes
//! through.
//!
//! A [`MatmulPlan`] is the execute half of the cuSPARSELt-style
//! descriptor/plan split: built once by the [`crate::Engine`] for one
//! [`MatmulDescriptor`], replayed on every request. One type implements
//! it for every format, dtype and executor: [`crate::Plan`], whose
//! executor is the f16 stream — replayed by the `mma.sp` sweep (V:N:M on
//! the Spatha path, dense, N:M, CSR, CVSE, Blocked-ELL) or by the band
//! replay (V:N:M, memory-bound shapes) — or the int8 stream (quantized
//! V:N:M). Layers, models and the
//! CLI hold `Arc<dyn MatmulPlan>` and mix formats per weight; the
//! serving stack's fault-injecting wrapper is the trait's other
//! implementation.
//!
//! Every plan carries two execution paths with one bitwise contract:
//!
//! * the **planned** path (`run` / `run_batch` / `run_linear`) replays
//!   the condensed operand stream captured at build time, and
//! * the **per-call** path (`run_oneshot` / `run_linear_percall`)
//!   redoes staging and dispatch on every invocation — the unplanned
//!   baseline the serving benchmarks compare against.
//!
//! Both must produce identical bits: the stream stores each row's
//! operands in the exact order the format's `spmm_ref` accumulates
//! them (see [`venom_format::SparseKernel::for_each_operand`]).

use crate::descriptor::MatmulDescriptor;
use venom_format::MatmulFormat;
use venom_fp16::Half;
use venom_sim::pipeline::KernelCounts;
use venom_sim::{DeviceConfig, KernelTiming, Regime, Roofline};
use venom_tensor::Matrix;

/// A planning failure: the weights cannot be served in the requested
/// format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The weights' nonzero structure does not fit the format.
    Incompatible {
        /// The format that was requested.
        format: MatmulFormat,
        /// Why the weights cannot be planned in it.
        reason: String,
    },
    /// A non-weight plan (e.g. the attention pipeline) cannot be built
    /// for the requested shape or mask.
    Unplannable {
        /// What was being planned ("attention", "sddmm", ...).
        what: &'static str,
        /// Why the plan cannot be built.
        reason: String,
    },
}

impl core::fmt::Display for PlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlanError::Incompatible { format, reason } => {
                write!(f, "cannot plan format '{format}': {reason}")
            }
            PlanError::Unplannable { what, reason } => {
                write!(f, "cannot plan {what}: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A built execution plan for one weight matmul: priced at build time,
/// replayed bit-exactly on every request.
pub trait MatmulPlan: Send + Sync + std::fmt::Debug {
    /// The storage format this plan executes.
    fn format(&self) -> MatmulFormat;

    /// The matmul the plan was built for.
    fn descriptor(&self) -> &MatmulDescriptor;

    /// Cost-model timing of one dispatch at the planned bound (`None`
    /// when the format has no launchable configuration for this weight,
    /// e.g. V:N:M with V below the kernel's fragment contract).
    fn timing(&self) -> Option<&KernelTiming>;

    /// The plan's priced cost in milliseconds — what
    /// [`crate::Engine::plan_auto`] minimises.
    fn cost_ms(&self) -> Option<f64> {
        self.timing().map(|t| t.time_ms)
    }

    /// The resource counts the plan was priced on (`None` when the
    /// format was priced without a counts model, or not priced at all).
    fn counts(&self) -> Option<&KernelCounts> {
        None
    }

    /// Places the priced launch on `dev`'s roofline — intensity, ridge
    /// point and attainable bound. `None` without [`Self::counts`].
    fn roofline(&self, dev: &DeviceConfig) -> Option<Roofline> {
        self.counts().map(|c| venom_sim::roofline::analyze(dev, c))
    }

    /// Which side of `dev`'s ridge point the plan sits on — the
    /// classification the dispatch layer routes on. `None` without
    /// [`Self::counts`].
    fn regime(&self, dev: &DeviceConfig) -> Option<Regime> {
        self.roofline(dev).map(|r| r.regime())
    }

    /// The execution path within the format — distinguishes variants
    /// that share a storage format, e.g. the V:N:M `mma.sp` stream
    /// (`"vnm"`) from the bandwidth-optimized band replay (`"band"`).
    fn path(&self) -> &'static str {
        self.format().name()
    }

    /// Stored operand count of the condensed stream.
    fn stored_values(&self) -> usize;

    /// Approximate resident bytes of the plan: a fixed 64-byte
    /// structural overhead, the executor's values, source indices and
    /// row pointers (the bytes a dispatch reads as compulsory operand
    /// traffic), and the compressed weight the per-call path runs
    /// (values and metadata). The currency of the serving plan cache's
    /// byte budget ([`crate::serve::PlanCache`]).
    fn approx_bytes(&self) -> usize;

    /// Reconstructs the dense weight (pruned entries are zero) — used to
    /// re-plan a weight in another format.
    fn weight_dense(&self) -> Matrix<Half>;

    /// Executes `C = A * B`; bit-identical to the format's `spmm_ref`.
    ///
    /// # Panics
    /// Panics if `B` has a row count different from the planned K.
    /// An int8 plan (dtype [`crate::DType::I8`]) also panics on an
    /// activation holding NaN or ±Inf.
    fn run(&self, b: &Matrix<Half>) -> Matrix<f32>;

    /// One dispatch over many requests, concatenated along the
    /// output-column dimension; bit-identical to running each
    /// separately.
    ///
    /// # Panics
    /// Panics if any operand has a row count different from the planned K.
    /// An int8 plan (dtype [`crate::DType::I8`]) also panics on an
    /// activation holding NaN or ±Inf.
    fn run_batch(&self, bs: &[&Matrix<Half>]) -> Vec<Matrix<f32>>;

    /// The fused layer forward `y = x W^T + b`; bit-identical to the
    /// per-call chain [`Self::run_linear_percall`].
    ///
    /// # Panics
    /// Panics on feature or bias length mismatch.
    /// An int8 plan (dtype [`crate::DType::I8`]) also panics on an
    /// activation holding NaN or ±Inf.
    fn run_linear(&self, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32>;

    /// [`Self::run_linear`] over a pre-staged operand (see
    /// [`crate::stage::stage_activations_t`]); `tokens` is the
    /// activation row count the buffer was staged from.
    ///
    /// # Panics
    /// Panics on staging or bias length mismatch.
    /// An int8 plan (dtype [`crate::DType::I8`]) also panics on an
    /// activation holding NaN or ±Inf.
    fn run_linear_staged(&self, staged: &[f32], tokens: usize, bias: &[f32]) -> Matrix<f32>;

    /// The retained per-call dispatch: redoes operand staging (and, for
    /// the Spatha path, tile selection and pricing) on every invocation.
    /// Bit-identical to [`Self::run`]; the serving benchmarks use it as
    /// the unplanned baseline, and the server's graceful degradation
    /// rides it when a plan build fails or times out — that fallback is
    /// only sound because this bit-identity holds for every format
    /// (enforced by the conformance harness).
    ///
    /// # Panics
    /// Panics if `B` has a row count different from the planned K.
    /// An int8 plan (dtype [`crate::DType::I8`]) also panics on an
    /// activation holding NaN or ±Inf.
    fn run_oneshot(&self, b: &Matrix<Half>) -> Matrix<f32>;

    /// The per-call layer forward: converts, transposes and dispatches
    /// through [`Self::run_oneshot`] on every invocation — the chain
    /// every `forward_percall` used to hand-write. Bit-identical to
    /// [`Self::run_linear`].
    ///
    /// # Panics
    /// Panics on feature or bias length mismatch.
    fn run_linear_percall(&self, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        let desc = self.descriptor();
        assert_eq!(x.cols(), desc.in_features, "input features mismatch");
        assert_eq!(
            bias.len(),
            desc.out_features,
            "bias must match out_features"
        );
        // y^T = W x^T in the library's sparse-friendly orientation, then
        // transpose back and add the bias row-wise.
        let xt = x.to_half().transpose();
        let mut y = self.run_oneshot(&xt).transpose();
        for r in 0..y.rows() {
            for (c, bv) in bias.iter().enumerate() {
                y.set(r, c, y.get(r, c) + bv);
            }
        }
        y
    }
}
