//! An analytical + functional simulator of an Ampere-class GPU.
//!
//! The VENOM paper evaluates on an NVIDIA RTX 3090 whose Sparse Tensor
//! Cores execute `mma.sp` instructions. No such hardware (nor a Rust path
//! to its intrinsics) is available here, so this crate provides the
//! substitute substrate: kernels written against it are
//! *functionally executed* (bit-faithful fp16×fp16+fp32 numerics via
//! [`tensorcore`]) and *timed* by a first-principles cost model
//! ([`pipeline`]) fed with instruction, byte, and shared-memory-transaction
//! counts derived from the kernels' real data structures.
//!
//! Components:
//!
//! * [`DeviceConfig`] — datasheet-calibrated machine descriptions
//!   (RTX 3090 and A100 presets).
//! * [`occupancy`] — the CUDA occupancy calculation (blocks per SM limited
//!   by threads, shared memory, registers, and the block cap).
//! * [`banks`] — a shared-memory bank-conflict analyzer used to verify the
//!   paper's conflict-free epilogue layout (Fig. 8) and to charge
//!   conflicted layouts their serialization cost (Fig. 10).
//! * [`tensorcore`] — the `mma`/`mma.sp` shape table (Table 1) and a
//!   functional executor for the half-precision sparse instruction.
//! * [`pipeline`] — the kernel cost model: wave scheduling, pipeline
//!   fill/drain, compute/bandwidth roofs, launch overhead.

pub mod banks;
pub mod config;
pub mod occupancy;
pub mod pipeline;
pub mod roofline;
pub mod tensorcore;
pub mod trace;

pub use config::DeviceConfig;
pub use occupancy::BlockResources;
pub use pipeline::{KernelCounts, KernelTiming, Limiter};
pub use roofline::{Regime, Roofline};
pub use tensorcore::{MmaShape, Precision};
