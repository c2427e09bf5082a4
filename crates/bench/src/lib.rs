//! Shared workload builders for the experiment benches.
//!
//! One bench target per table/figure of the paper lives in `benches/`; see
//! DESIGN.md §4 for the experiment index and EXPERIMENTS.md for recorded
//! results. Each bench first prints its experiment's rows (the "table" or
//! "figure series"), then runs Criterion micro-measurements of the hot
//! operations involved.

#![forbid(unsafe_code)]
// The package's lint table lets the benches read the wall clock; the shared
// workload builders here must not.
#![deny(clippy::disallowed_methods)]

use megastream_flow::record::FlowRecord;
use megastream_flow::time::TimeDelta;
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

/// A deterministic flow trace with the given seed, rate, duration and skew.
pub fn flow_trace(seed: u64, flows_per_sec: f64, secs: u64, skew: f64) -> Vec<FlowRecord> {
    FlowTraceGenerator::new(FlowTraceConfig {
        seed,
        flows_per_sec,
        duration: TimeDelta::from_secs(secs),
        host_skew: skew,
        ..Default::default()
    })
    .collect()
}

/// Standard skews swept by the accuracy experiments.
pub const SKEWS: [f64; 3] = [0.8, 1.1, 1.4];

/// Prints a rule line for the experiment reports.
pub fn rule(title: &str) {
    println!("\n==== {title} ====");
}
