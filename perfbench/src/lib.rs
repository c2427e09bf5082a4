//! The repository benchmark: the `ingest`, `query` and `live` workloads,
//! run through the public `Flowstream` API and measured end to end, plus a
//! traced run that times each layer's public functions from outside.
//!
//! See `perfbench/README.md` for the workloads, the metric → layer →
//! workload map and the first measured numbers.

pub mod common;
pub mod ingest;
pub mod live;
pub mod probes;
pub mod query;
pub mod report;
pub mod spans;
