//! Comparator libraries for the evaluation section.
//!
//! The paper benchmarks Spatha against four systems. None of them can run
//! here (closed-source CUDA or GPU-only), so each is rebuilt as a cost
//! model on the simulated device that encodes the library's published
//! performance character (EXPERIMENTS.md's Fig. 12 and Fig. 13 sections
//! set its predictions next to the paper's numbers):
//!
//! * [`cublas`] — dense half-precision GEMM. Tile configurations chosen by
//!   an internal heuristic over a candidate set, near-peak steady state.
//! * [`cusparselt`] — the vendor 2:4 SpMM. Same kernel skeleton as Spatha
//!   with `M = 4` (no column gather), fixed large tiles, higher launch
//!   overhead (kernel selection), slightly better inner loop.
//! * [`sputnik`] — CSR SpMM on CUDA cores with 1-D tiling; pays a load
//!   imbalance factor measured from the actual row-length distribution.
//! * [`clasp`] — column-vector sparse encoding on dense tensor cores;
//!   fragment utilisation degrades with shorter vectors (`l < 16` wastes
//!   `16 - l` rows of every `mma` fragment).
//!
//! Each model prices from what it reads of a weight — [`DenseGemm::select`]
//! and [`SparseLtSpmm::counts`] a GEMM shape, [`SputnikSpmm::counts_from`]
//! and [`ClaspSpmm::counts_from`] a few structure counts — and its `time`
//! simulates those counts. The products themselves are computed by the
//! formats' own kernels (`venom_format::SparseKernel`) and the runtime's
//! plans.

pub mod clasp;
pub mod cublas;
pub mod cusparselt;
pub mod sputnik;

pub use clasp::ClaspSpmm;
pub use cublas::DenseGemm;
pub use cusparselt::SparseLtSpmm;
pub use sputnik::SputnikSpmm;
