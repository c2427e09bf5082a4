//! Ops-plane end-to-end (ISSUE 6 acceptance): (a) the health model walks
//! Healthy → Degraded → Healthy across a seeded outage without flapping,
//! (b) the windowed p99 from the time-series agrees with an oracle over
//! the same recorded latencies to within one histogram bucket, and
//! (c) on the E11 ingest workload the sampler's work is set by its cadence
//! and the registry, never by ingest volume.

use megastream::flowstream::{DegradationPolicy, Flowstream, FlowstreamConfig};
use megastream::ops::OpsPlane;
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_netsim::FaultPlan;
use megastream_telemetry::{HealthStatus, MetricSampler, SamplerConfig, Telemetry};
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};
use std::sync::Arc;

const SEC: u64 = 1_000_000;
const OUTAGE_FROM: u64 = 60;
const OUTAGE_UNTIL: u64 = 180;

fn workload(seed: u64, flows_per_sec: f64, mins: u64) -> FlowTraceGenerator {
    FlowTraceGenerator::new(FlowTraceConfig {
        seed,
        flows_per_sec,
        duration: TimeDelta::from_mins(mins),
        ..Default::default()
    })
}

fn chaos_deployment(tel: &Telemetry) -> Flowstream {
    let mut fs = Flowstream::new(
        3,
        2,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    )
    .with_telemetry(tel);
    let mut plan = FaultPlan::seeded(42);
    plan.link_down(
        fs.region_node(1),
        fs.noc_node(),
        Timestamp::from_secs(OUTAGE_FROM),
        Timestamp::from_secs(OUTAGE_UNTIL),
    );
    fs.network_mut().install_faults(plan);
    fs
}

/// (a) A seeded uplink outage drives the hierarchy spill-occupancy rule
/// Healthy → Degraded while summaries buffer, and back to Healthy after
/// the post-recovery flush — exactly one transition each way (the
/// hysteresis must not flap), and the timestamps must bracket the fault
/// window.
#[test]
fn health_walks_degraded_and_back_across_outage() {
    let tel = Telemetry::new();
    let mut fs = chaos_deployment(&tel);
    let mut ops = OpsPlane::standard(&tel).expect("telemetry is enabled");

    let mut last_end = Timestamp::ZERO;
    for rec in workload(77, 60.0, 5) {
        fs.ingest_round_robin(&rec);
        last_end = last_end.max(rec.ts);
        ops.tick(rec.ts);
    }
    fs.finish();
    // Frames past the last rotation so the post-recovery flush (and the
    // transition back to Healthy) is observed.
    for s in 1..=4u64 {
        ops.force_tick(last_end + TimeDelta::from_secs(s));
    }

    let spill_alerts: Vec<_> = ops
        .health()
        .alerts()
        .iter()
        .filter(|a| a.component == "hierarchy" && a.rule == "spill-occupancy")
        .cloned()
        .collect();
    assert_eq!(
        spill_alerts.len(),
        2,
        "exactly one transition each way (no flapping): {spill_alerts:?}"
    );
    assert_eq!(spill_alerts[0].from, HealthStatus::Healthy);
    assert_eq!(spill_alerts[0].to, HealthStatus::Degraded);
    assert_eq!(spill_alerts[1].from, HealthStatus::Degraded);
    assert_eq!(spill_alerts[1].to, HealthStatus::Healthy);
    // Degraded only after the fault begins; recovered only after it ends.
    assert!(spill_alerts[0].at_micros >= OUTAGE_FROM * SEC);
    assert!(spill_alerts[1].at_micros >= OUTAGE_UNTIL * SEC);
    assert_eq!(ops.overall(), HealthStatus::Healthy, "recovered at the end");

    // The alert log as a whole must also be flap-free: per (component,
    // rule), transitions alternate, so there are at most 2 more alerts
    // than distinct transitioning rules would need... simplest invariant:
    // consecutive alerts of one rule always chain from -> to.
    let mut last_state: std::collections::HashMap<(String, String), HealthStatus> =
        std::collections::HashMap::new();
    for a in ops.health().alerts() {
        let key = (a.component.clone(), a.rule.clone());
        let prev = last_state.get(&key).copied().unwrap_or_default();
        assert_eq!(a.from, prev, "alert chain broken for {key:?}");
        last_state.insert(key, a.to);
    }
}

/// (b) The windowed p99 over `flowstream.query.micros` agrees with the
/// oracle — the registry's own full-history histogram over the same raw
/// latencies — to within one bucket. The sampler's first frame predates
/// every query, so the trailing window covers exactly the samples the
/// oracle saw.
#[test]
fn windowed_p99_matches_oracle_within_one_bucket() {
    let tel = Telemetry::new();
    let mut fs = Flowstream::new(2, 2, FlowstreamConfig::default()).with_telemetry(&tel);
    for rec in workload(7, 100.0, 3) {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();

    let mut sampler = MetricSampler::new(
        Arc::clone(tel.registry().expect("telemetry is enabled")),
        SamplerConfig::default(),
    );
    sampler.force_sample(0);
    let queries = [
        "SELECT TOPK 5 FROM ALL WHERE location = \"region-0\"",
        "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8",
        "SELECT HHH 5000 FROM ALL WHERE location = \"region-1\"",
        "SELECT TOPK 3 FROM ALL GROUP BY location",
        "SELECT QUERY FROM [0, 120) WHERE dst_ip = 10.0.0.0/8",
    ];
    for (i, q) in queries.iter().cycle().take(40).enumerate() {
        fs.query_with_policy(q, DegradationPolicy::Partial)
            .expect("query plane is healthy");
        sampler.force_sample((i as u64 + 1) * SEC);
    }

    let window = 40 * SEC;
    let oracle = tel
        .snapshot()
        .histograms
        .iter()
        .find(|(name, _)| name == "flowstream.query.micros")
        .expect("queries were timed")
        .1
        .clone();
    let w = sampler
        .histogram_window("flowstream.query.micros", window)
        .expect("window covers the query frames");
    assert_eq!(w.count, 40, "every query latency landed in the window");
    for q in [0.5, 0.99] {
        let ours = w.quantile(q);
        let oracle_q = oracle.quantile(q);
        let our_idx = w.bounds.iter().position(|&b| b >= ours);
        let oracle_idx = w.bounds.iter().position(|&b| b >= oracle_q);
        let (a, b) = (
            our_idx.unwrap_or(w.bounds.len()),
            oracle_idx.unwrap_or(w.bounds.len()),
        );
        assert!(
            a.abs_diff(b) <= 1,
            "p{:.0} windowed {} vs oracle {} differ by more than one bucket",
            q * 100.0,
            ours,
            oracle_q
        );
    }
}

/// (c) Deterministic work counts on the E11 ingest workload (60 k flows
/// through a 2×4 deployment, ticked once per record at the default
/// one-second cadence): a tick takes a frame exactly when it crosses a
/// cadence boundary — at least one cadence since the previous frame — and
/// none otherwise; each frame copies one series per registered metric,
/// and that count stops growing once every layer has registered, however
/// many records follow. What the ticking costs in wall-clock time is the
/// `+ops 1 s` arm of the E11 overhead matrix.
#[test]
fn sampler_work_follows_cadence_not_ingest() {
    let trace: Vec<_> = workload(2026, 500.0, 2).collect();
    let tel = Telemetry::new();
    let registry = Arc::clone(tel.registry().expect("telemetry is enabled"));
    let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default()).with_telemetry(&tel);
    let mut ops = OpsPlane::standard(&tel).expect("telemetry is enabled");
    let cadence = ops.sampler().config().cadence_micros;
    let mut last_frame: Option<u64> = None;
    let mut boundaries = 0u64;
    // Series tracked by the first frame after the first rotation (60 s).
    let mut settled: Option<(usize, usize)> = None;
    for (i, rec) in trace.iter().enumerate() {
        fs.ingest_round_robin(rec);
        let now = rec.ts.as_micros();
        let crosses = last_frame.is_none_or(|last| now >= last + cadence);
        assert_eq!(ops.tick(rec.ts), crosses, "tick at {now} µs");
        if crosses {
            boundaries += 1;
            last_frame = Some(now);
            assert_eq!(ops.sampler().series(), registry.len(), "frame at {now} µs");
            if now >= 61 * SEC && settled.is_none() {
                settled = Some((i, ops.sampler().series()));
            }
        }
        assert_eq!(ops.sampler().total_frames(), boundaries);
    }
    assert!(boundaries >= 110, "{boundaries} frames over a 120 s trace");
    let (settled_at, settled_series) = settled.expect("the trace outlasts one rotation");
    assert!(
        trace.len() - settled_at > 25_000,
        "ingest continued after settling"
    );
    assert_eq!(
        ops.sampler().series(),
        settled_series,
        "series grew with ingest"
    );
}
