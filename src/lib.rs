//! # VENOM — Vectorized N:M sparsity on (simulated) Sparse Tensor Cores
//!
//! Facade crate for the VENOM/Spatha reproduction. It re-exports the public
//! API of every subsystem crate so that applications can depend on a single
//! `venom` crate:
//!
//! * [`fp16`] — software half-precision arithmetic (tensor-core numerics).
//! * [`tensor`] — dense matrices, reference/parallel GEMM, RNG fills.
//! * [`mod@format`] — sparsity masks, the 2:4 and V:N:M compressed
//!   formats, CSR and column-vector encodings for the baselines, and the
//!   [`format::SparseKernel`] trait every format executes through.
//! * [`sim`] — the Ampere-class GPU simulator (occupancy, memory hierarchy,
//!   shared-memory banks, tensor-core pipeline).
//! * [`spatha`] — the Spatha SpMM library (the paper's contribution).
//! * [`runtime`] — the plan-once/run-many inference engine: descriptor
//!   in, format-erased [`runtime::MatmulPlan`] out, with automatic
//!   format selection ([`runtime::Engine::plan_auto`]). Every plan is
//!   one [`runtime::Plan`] over the stream, band or int8 executor.
//! * [`baselines`] — cuBLAS-, cuSparseLt-, Sputnik- and CLASP-like models.
//! * [`pruner`] — magnitude and second-order (OBS) pruning, energy metric,
//!   gradual structure-decay scheduling.
//! * [`quant`] — calibrated symmetric int8 quantization (absmax and
//!   percentile calibrators) and the exact i32 references behind the
//!   engine's `i8` descriptor path.
//! * [`dnn`] — transformer inference substrate and latency profiling.
//!
//! ## Quickstart
//!
//! ```
//! use venom::prelude::*;
//!
//! // A 128 x 256 weight matrix pruned to 64:2:8 (75% sparsity)...
//! let dense = venom::tensor::random::normal_matrix(128, 256, 0.0, 1.0, 42).to_half();
//! let cfg = VnmConfig::new(64, 2, 8);
//! let mask = venom::pruner::magnitude::prune_vnm(&dense.to_f32(), cfg);
//! let sparse = VnmMatrix::compress(&dense, &mask, cfg);
//!
//! // ...multiplied against dense activations on the simulated RTX 3090.
//! let b = venom::tensor::random::normal_matrix(256, 64, 0.0, 1.0, 7).to_half();
//! let device = DeviceConfig::rtx3090();
//! let out = venom::spatha::spmm(&sparse, &b, &SpmmOptions::default(), &device);
//! assert_eq!(out.c.rows(), 128);
//! assert!(out.timing.time_ms > 0.0);
//! ```

pub use venom_baselines as baselines;
pub use venom_core as spatha;
pub use venom_dnn as dnn;
pub use venom_format as format;
pub use venom_fp16 as fp16;
pub use venom_pruner as pruner;
pub use venom_quant as quant;
pub use venom_runtime as runtime;
pub use venom_sim as sim;
pub use venom_tensor as tensor;

/// Commonly used types, re-exported for `use venom::prelude::*`.
pub mod prelude {
    pub use venom_core::{spmm, SpmmOptions, SpmmResult, TileConfig};
    pub use venom_format::{
        MatmulFormat, NmConfig, QuantVnmMatrix, SparsityMask, VnmConfig, VnmMatrix,
    };
    pub use venom_fp16::Half;
    pub use venom_quant::Calibration;
    pub use venom_runtime::{DType, Engine, MatmulDescriptor, MatmulPlan, Plan, PlanError};
    pub use venom_sim::{DeviceConfig, KernelTiming};
    pub use venom_tensor::{GemmShape, Matrix};
}
