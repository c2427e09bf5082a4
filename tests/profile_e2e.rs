//! Profiling and cost-accounting end to end (PR 8).
//!
//! Three claims are pinned here. First, the scoped-activity profiler
//! attached to a live deployment produces a well-formed collapsed-stack
//! export: every line is `path count` with positive counts, no empty
//! frames, and the known pipeline roots present. Second, the bounded
//! heavy-query log ranks queries by *deterministic* work units, so a
//! deliberately expensive full-fleet drilldown lands on top of a batch of
//! repeated cheap point queries — regardless of machine speed. Third, the
//! `completeness-burn` SLO rule flips out of Healthy exactly once during a
//! chaos outage (multi-window burn rates cannot flap on blips) and
//! recovers to Healthy after the uplink heals.

use megastream::ops::OpsPlane;
use megastream::{DegradationPolicy, Flowstream, FlowstreamConfig};
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_netsim::FaultPlan;
use megastream_telemetry::{HealthStatus, SamplePolicy, Telemetry};
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

fn profiled_deployment() -> (Flowstream, Telemetry) {
    let profiler = Telemetry::new().with_profiling();
    let mut fs = Flowstream::new(
        2,
        2,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    )
    .with_telemetry(&profiler);
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 5,
        flows_per_sec: 150.0,
        duration: TimeDelta::from_mins(3),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    (fs, profiler)
}

#[test]
fn collapsed_stack_export_is_wellformed() {
    let (fs, _profiler) = profiled_deployment();
    fs.query("SELECT TOPK 3 FROM ALL").expect("query");
    let snap = fs.telemetry().profile_snapshot();
    let collapsed = snap.render_collapsed();
    assert!(!collapsed.is_empty(), "a profiled run must record activity");
    for line in collapsed.lines() {
        let (path, count) = line.rsplit_once(' ').expect("line must be `path count`");
        let count: u64 = count.parse().expect("count must be an integer");
        assert!(count > 0, "exported counts are exclusive micros > 0");
        assert!(!path.is_empty(), "path must not be empty");
        for frame in path.split(';') {
            assert!(!frame.is_empty(), "no empty frames in {path:?}");
        }
    }
    // The known pipeline roots are present, and child activities appear
    // under their parents, never as roots.
    let paths: Vec<&str> = snap.activities.iter().map(|a| a.path.as_str()).collect();
    assert!(paths.contains(&"flowstream.ingest"));
    assert!(paths.contains(&"flowstream.rotate"));
    assert!(paths.contains(&"flowstream.query;flowdb.parse"));
    assert!(
        !paths.contains(&"flowdb.parse"),
        "parse only runs inside a query"
    );
}

#[test]
fn heavy_query_log_ranks_expensive_drilldown_first() {
    let (fs, _profiler) = profiled_deployment();
    // A batch of cheap point queries: one location, one 30-second window.
    let cheap = "SELECT QUERY FROM [0, 30) WHERE location = \"region-0\" AND src_ip = 10.0.0.0/8";
    for _ in 0..3 {
        fs.query(cheap).expect("cheap query");
    }
    // One deliberately expensive query: a drilldown that visits every
    // location, every window, and returns a row per child key.
    let expensive = "SELECT DRILLDOWN FROM ALL";
    let result = fs.query(expensive).expect("expensive query");
    assert!(result.cost.work_units() > 0, "cost must be populated");
    assert!(result.cost.locations > 1 && result.cost.summaries > 1);

    let top = fs.heavy_queries(2);
    assert_eq!(
        top.first().map(|(q, _)| q.as_str()),
        Some(expensive),
        "the full-fleet drilldown must rank first: {top:?}"
    );
    // The ranking weight is deterministic work, not wall-clock: the top
    // entry's work units dominate the repeated cheap query's total.
    let cheap_total = top
        .iter()
        .find(|(q, _)| q == cheap)
        .map(|(_, w)| *w)
        .unwrap_or(0);
    assert!(top[0].1 > cheap_total, "work ranking must be strict");
}

#[test]
fn query_cost_reaches_trace_annotations() {
    let (mut fs, profiler) = profiled_deployment();
    let tracer = profiler.with_tracing(SamplePolicy::Always);
    fs.set_telemetry(&tracer);
    fs.query("SELECT TOPK 3 FROM ALL").expect("query");
    let spans = tracer.trace_snapshot();
    let root = spans
        .spans
        .iter()
        .find(|s| s.name == "flowstream.query")
        .expect("traced query root");
    let cost = root
        .attrs
        .iter()
        .find(|(k, _)| k == "cost")
        .map(|(_, v)| v.clone())
        .expect("root span must carry a cost annotation");
    assert!(
        cost.contains("location"),
        "cost text names locations: {cost}"
    );
}

#[test]
fn completeness_burn_flips_once_during_outage_and_recovers() {
    let tel = Telemetry::new();
    let mut fs = Flowstream::new(3, 2, FlowstreamConfig::default()).with_telemetry(&tel);
    let mut plan = FaultPlan::seeded(7);
    plan.link_down(
        fs.region_node(1),
        fs.noc_node(),
        Timestamp::from_secs(90),
        Timestamp::from_secs(210),
    );
    fs.network_mut().install_faults(plan);
    let mut ops = OpsPlane::standard(&tel).expect("telemetry is enabled");

    let mut last_query_s = 0u64;
    let mut last_end = Timestamp::ZERO;
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 7,
        flows_per_sec: 300.0,
        duration: TimeDelta::from_mins(5),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
        last_end = last_end.max(rec.ts);
        if ops.tick(rec.ts) {
            let s = rec.ts.as_micros() / 1_000_000;
            // A standing query keeps the completeness ratio populated;
            // Partial answers keep flowing during the outage.
            if s >= last_query_s + 5 {
                last_query_s = s;
                let _ = fs.query_with_policy("SELECT TOPK 3 FROM ALL", DegradationPolicy::Partial);
            }
        }
    }
    fs.finish();
    for s in 1..=30u64 {
        ops.force_tick(last_end + TimeDelta::from_secs(s));
    }

    let burn_alerts: Vec<_> = ops
        .health()
        .alerts()
        .iter()
        .filter(|a| a.rule == "completeness-burn")
        .collect();
    assert!(
        !burn_alerts.is_empty(),
        "the outage must trip the completeness burn rule; alerts: {:?}",
        ops.health().alerts()
    );
    // Exactly one departure from Healthy over the whole run: the rule
    // trips once for the outage and does not flap on per-window noise.
    let departures = burn_alerts
        .iter()
        .filter(|a| a.from == HealthStatus::Healthy)
        .count();
    assert_eq!(departures, 1, "burn rule flapped: {burn_alerts:?}");
    assert!(
        burn_alerts.iter().any(|a| a.to >= HealthStatus::Degraded),
        "the rule must reach at least Degraded during the outage"
    );
    // And it heals: the short window clears soon after the uplink returns.
    assert_eq!(
        ops.health().rule_status("completeness-burn"),
        HealthStatus::Healthy,
        "rule must recover after the outage"
    );
    // The latency SLO never burned — simulated queries are fast.
    assert_eq!(
        ops.health().rule_status("latency-burn"),
        HealthStatus::Healthy
    );
}
