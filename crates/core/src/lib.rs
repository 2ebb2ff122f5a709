//! Spatha — the paper's high-performance SpMM library for the V:N:M format.
//!
//! Computes `C[R x C] = A[R x K] * B[K x C]` where `A` is a
//! [`VnmMatrix`]. The kernel follows the paper's three stages (§4.1):
//!
//! 1. **Data loading** — `column-loc` is prefetched and used to gather only
//!    the selected rows of `B` from global memory into shared memory; the
//!    compressed `A` values and m-indices stream in the Fig. 7 interleaved
//!    order; loads are software-pipelined (`batchSize` stages).
//! 2. **Computation** — warp tiles decompose into `mma.sp.m16n8k32`
//!    instruction tiles executed by the simulated Sparse Tensor Cores.
//! 3. **Result storage** — accumulators stage through shared memory with
//!    the padded, conflict-free 128-bit layout of Fig. 8 (a 32-bit variant
//!    exists for the Fig. 10 ablation).
//!
//! The library is template-based like the CUDA original: a [`TileConfig`]
//! fixes the thread-block tile (`BSr x BSk x BSc`), the warp tile
//! (`WSr x WSc`), the `mma` shape and the pipeline depth, and
//! [`fn@autotune`] searches that space with the cost model.
//!
//! There is one way to compute and one way to price. [`spmm`] always
//! executes the kernel and reports the price of the launch it ran. The
//! price-only entries read a shape and a pattern, never a matrix:
//! [`build_counts`] / [`build_counts_i8`] with [`default_config`] or
//! [`fn@autotune`] picking the tile, and [`spmm_time_tuned`] for the
//! autotuned launch's timing.

pub mod autotune;
pub mod counts;
pub mod kernel;
pub mod sddmm;
pub mod swapped;
pub mod tile;

pub use autotune::{autotune, default_config};
pub use counts::{build_counts, build_counts_band, build_counts_i8, BAND_TILE_ROWS};
pub use kernel::{spmm, spmm_time_tuned, SpmmOptions, SpmmResult};
pub use sddmm::{sddmm, sddmm_counts, sddmm_counts_swapped, SddmmResult};
pub use swapped::{spmm_swapped, SWAP_PANEL};
pub use tile::TileConfig;

pub use venom_format::{VnmConfig, VnmMatrix};
pub use venom_sim::{DeviceConfig, KernelTiming};
