//! A tiny, manually-differentiated trainer.
//!
//! Table 2 of the paper needs (a) a trained dense model, (b) per-sample
//! gradients for the empirical Fisher, (c) pruning with each policy, and
//! (d) fine-tuning under a fixed mask. BERT + SQuAD cannot run here, so
//! this module provides the documented substitution (EXPERIMENTS.md,
//! "Table 2 (proxy)"): a two-layer MLP classifier on synthetic Gaussian
//! clusters — small enough to train in seconds, rich enough that pruning
//! the hidden weight matrix degrades accuracy in a format-dependent way.

pub mod data;
pub mod mlp;

pub use data::{gaussian_clusters, gaussian_clusters_split};
pub use mlp::Mlp;
