//! The repository benchmark: three workloads driven through the public
//! APIs of `venom-dnn`, `venom-runtime`, `venom-format` and
//! `venom-pruner`, each printing end-to-end metrics from an untraced run
//! or per-layer metrics from a traced one. See `benchmark/README.md`.

pub mod churn;
pub mod encoder;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod util;
