//! Deep-learning substrate for the end-to-end experiments.
//!
//! The paper's case study (§7.2) prunes transformer weight tensors, runs
//! inference with Spatha, and reports latency breakdowns (Fig. 15) plus
//! post-pruning accuracy (Table 2). This crate provides everything those
//! experiments need:
//!
//! * [`layers`] — Linear and the format-erased [`layers::PlannedLinear`],
//!   LayerNorm, GELU, row-softmax, with functional forward passes in
//!   tensor-core numerics. Layers hold `venom_runtime` execution plans
//!   behind the `MatmulPlan` trait (built once, replayed per request), so
//!   one model mixes storage formats per weight — int8 included, through
//!   [`layers::PlanStrategy::Quantized`] /
//!   [`layers::PlanStrategy::AutoQuantized`]; the per-call dispatch
//!   survives as the bit-identical `forward_percall` baseline the serving
//!   benchmarks compare against — expressed through the same trait, not a
//!   hand-written twin.
//! * [`attention`] — multi-head attention (the pruned MHA of Fig. 14),
//!   including the planned masked pipeline
//!   ([`attention::SparseAttention`] over a `venom_runtime`
//!   `AttentionPlan`) that computes only the mask's sampled score
//!   positions yet stays bit-identical to the dense chain.
//! * [`transformer`] — encoder blocks and the model configurations the
//!   paper measures (BERT-base/large, GPT2-large, GPT-3).
//! * [`profile`] — simulated-latency profiling with the Fig. 15 breakdown
//!   (GEMMs / attention matmuls / softmax / others) on the target device.
//! * [`sten`] — the STen-style sparsifier dispatch of Listing 1.
//! * [`train`] — a small manually-differentiated MLP with per-sample
//!   gradients (the empirical Fisher's input), synthetic data, and the
//!   fine-tuning loop for the Table 2 accuracy-recovery proxy.

pub mod attention;
pub mod layers;
pub mod model;
pub mod profile;
#[cfg(test)]
mod quantized;
pub mod sten;
pub mod train;
pub mod transformer;

pub use attention::{MultiHeadAttention, SparseAttention};
pub use layers::{ExecPath, Linear, PlanStrategy, PlannedLinear};
pub use model::{SparseTransformerEncoder, TransformerEncoder};
pub use profile::{profile_model, LatencyBreakdown, WeightSparsity};
pub use transformer::TransformerConfig;
