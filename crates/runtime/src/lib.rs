//! The inference engine: the cuSPARSELt-style descriptor/plan workflow
//! the paper benchmarks against (§7.2), over every storage format the
//! repository ships.
//!
//! The per-call [`venom_core::spmm`] entry point redoes tile-config
//! selection, cost-model pricing and operand staging on every invocation —
//! the right shape for one-shot benchmarks, the wrong one for serving,
//! where the compressed weights are static across every forward pass. An
//! [`Engine`] builds *plans* instead, behind one format-erased surface:
//!
//! * A [`MatmulDescriptor`] describes the matmul — weight shape, dtype,
//!   and the output-column bound the plan is tuned and priced for. The
//!   layer's bias is [`MatmulPlan::run_linear`]'s argument.
//! * [`Engine::plan_auto`] prices every format the weights' nonzero
//!   structure is eligible for (V:N:M, 2:4, CSR, CVSE, Blocked-ELL,
//!   dense) with its cost model on the target device, then builds only
//!   the cheapest, returned as an `Arc<dyn `[`MatmulPlan`]`>` — so a
//!   model mixes formats per layer and callers never name one.
//!   [`Engine::plan_with_format`] prices and builds one pinned format
//!   through the same per-format pricing, and reports *why* when the
//!   weights cannot serve it; [`Engine::plan_spmm`],
//!   [`Engine::plan_quant_spmm`], [`Engine::plan_gemm`] and
//!   [`Engine::plan_band_hinted`] build one known kind of plan.
//! * Every one of them returns the same type, [`Plan`]: the descriptor,
//!   the priced launch and its resource counts, the compressed weight
//!   the per-call reference runs, and one operand **stream**: the
//!   weight's nonzeros condensed into a per-row `(value, B-row)` list in
//!   the kernel's exact accumulation order. An f16 stream serves V:N:M
//!   (with the autotuned [`TileConfig`] for the `(weight, b_cols)`
//!   shape) and every other format through the K-chunked sweep, or the
//!   same V:N:M weight through the bandwidth-optimized non-mma **band**
//!   replay (FlashSparse-style, priced on DRAM bytes) that
//!   [`Engine::plan_auto`] routes memory-bound shapes to. An int8 stream
//!   serves descriptors with [`descriptor::DType::I8`]: the calibrated
//!   quantized V:N:M container's codes through the same sweep, with
//!   exact i32 accumulation, priced on the `Uint8` `mma.sp` profile
//!   (half the operand bytes, half the instruction count).
//! * [`Engine::plan_attention`] plans the activation side: the masked
//!   attention pipeline for one `(seq, hidden, heads, mask)` shape,
//!   shared by every layer of that shape through its `Arc`.
//!
//! Every plan execution is **bit-identical** to the one-shot path it
//! amortises: the stream stores each row's nonzeros in the same order the
//! format's reference kernel accumulates in (pinned by
//! [`venom_format::SparseKernel::for_each_operand`]), with the same
//! exactly-decoded f32 products, so the f32 additions happen in the same
//! order with the same values. Batched runs concatenate requests along
//! the output-column dimension; columns are independent in every path, so
//! batching changes nothing numerically either.
//!
//! Per-call scratch (the staged RHS, intermediate products) leases from a
//! per-thread [`arena`], so steady-state serving performs no staging
//! allocations beyond the returned output matrices.

pub mod arena;
pub mod attn;
pub mod descriptor;
pub mod engine;
pub mod matmul;
pub mod plan;
pub mod pricing;
mod qplan;
pub mod serve;
mod simd;
pub mod stage;

pub use attn::{AttentionMask, AttentionPlan, SddmmPath};
pub use descriptor::{DType, MatmulDescriptor};
pub use engine::Engine;
pub use matmul::{MatmulPlan, PlanError};
pub use plan::Plan;
pub use serve::{
    CacheStats, FaultConfig, FaultPlan, FaultTrips, HealthReport, PlanBuildError, PlanCache,
    PlanKey, RetryPolicy, ServeConfig, ServeError, ServeReport, Server,
};

pub use venom_core::{SpmmOptions, TileConfig};
pub use venom_format::{MatmulFormat, QuantVnmMatrix, SparseKernel, VnmConfig, VnmMatrix};
pub use venom_quant::Calibration;
pub use venom_sim::{DeviceConfig, KernelTiming, Regime, Roofline};
