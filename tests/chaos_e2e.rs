//! Chaos end-to-end: a seeded fault plan takes a region uplink down
//! mid-run and the deployment must degrade gracefully — a `Partial`
//! query answers with completeness < 1 while `FailFast` errors, spilled
//! summaries re-aggregate after recovery so totals converge to the
//! no-fault run exactly, every retry/spill/flush is counted, and two
//! same-seed runs are bit-identical.

use megastream::flowstream::FlowstreamError;
use megastream::{DegradationPolicy, Flowstream, FlowstreamConfig, PumpPolicy};
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_flowdb::QueryResult;
use megastream_netsim::topology::{Network, NodeKind, TransferError};
use megastream_netsim::FaultPlan;
use megastream_telemetry::Telemetry;
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

const QUERY: &str = "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8";
const OUTAGE_FROM: u64 = 60;
const OUTAGE_UNTIL: u64 = 180;

fn workload() -> FlowTraceGenerator {
    FlowTraceGenerator::new(FlowTraceConfig {
        seed: 77,
        flows_per_sec: 60.0,
        duration: TimeDelta::from_mins(5),
        ..Default::default()
    })
}

fn deployment() -> Flowstream {
    Flowstream::new(
        3,
        2,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    )
}

/// Everything a chaos run observes; compared across same-seed runs.
#[derive(Debug, PartialEq)]
struct ChaosObservation {
    unreachable_mid_outage: Vec<String>,
    partial_mid_outage: QueryResult,
    /// The locations [`FlowstreamError::Unreachable`] reported mid-outage.
    failfast_refused: Vec<String>,
    final_result: QueryResult,
    /// Post-recovery result per region location (the authoritative copies).
    final_region_results: Vec<QueryResult>,
    stats: megastream::flowstream::FlowstreamStats,
}

/// One location-restricted query per region.
fn region_results(fs: &Flowstream) -> Vec<QueryResult> {
    (0..fs.regions())
        .map(|g| {
            let q = format!(
                "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8 AND location = region-{g}"
            );
            fs.query(&q).expect("region location is indexed")
        })
        .collect()
}

/// Runs the faulted deployment: region 1's uplink to the NOC is down for
/// `[OUTAGE_FROM, OUTAGE_UNTIL)` seconds; mid-outage both degradation
/// policies are probed, then ingest continues past recovery.
fn run_chaos(seed: u64) -> ChaosObservation {
    let tel = Telemetry::new();
    let mut fs = deployment().with_telemetry(&tel);
    let mut plan = FaultPlan::seeded(seed);
    plan.link_down(
        fs.region_node(1),
        fs.noc_node(),
        Timestamp::from_secs(OUTAGE_FROM),
        Timestamp::from_secs(OUTAGE_UNTIL),
    );
    fs.network_mut().install_faults(plan);

    let mut mid = None;
    for rec in workload() {
        // Probe once, mid-outage, before the record that crosses 120 s
        // rotates the epoch (the stream clock still reads < 120 s).
        if mid.is_none() && rec.ts >= Timestamp::from_secs(120) {
            let unreachable: Vec<String> = fs.unreachable_locations().into_iter().collect();
            let partial = fs
                .query_with_policy(QUERY, DegradationPolicy::Partial)
                .expect("Partial degradation answers from reachable locations");
            let failfast = match fs.query_with_policy(QUERY, DegradationPolicy::FailFast) {
                Err(FlowstreamError::Unreachable { locations }) => locations,
                other => panic!("FailFast must refuse a partial answer, got {other:?}"),
            };
            mid = Some((unreachable, partial, failfast));
        }
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    let (unreachable_mid_outage, partial_mid_outage, failfast_refused) =
        mid.expect("workload extends past the probe point");
    let final_result = fs.query(QUERY).expect("uplink recovered before finish");
    ChaosObservation {
        unreachable_mid_outage,
        partial_mid_outage,
        failfast_refused,
        final_result,
        final_region_results: region_results(&fs),
        stats: fs.stats(),
    }
}

/// The same deployment and workload with no faults installed.
fn run_reference() -> (Vec<QueryResult>, megastream::flowstream::FlowstreamStats) {
    let mut fs = deployment();
    for rec in workload() {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    (region_results(&fs), fs.stats())
}

#[test]
fn partial_query_degrades_while_failfast_refuses() {
    let obs = run_chaos(42);
    assert_eq!(
        obs.unreachable_mid_outage,
        vec!["region-1".to_string()],
        "only the severed region is unreachable"
    );
    let completeness = obs.partial_mid_outage.completeness;
    assert!(
        !completeness.is_complete(),
        "mid-outage answer must be partial, got {completeness}"
    );
    assert_eq!(
        completeness.total - completeness.reached,
        1,
        "exactly one location (region-1) is skipped"
    );
    assert!(completeness.fraction() < 1.0);
    assert_eq!(obs.failfast_refused, vec!["region-1".to_string()]);
}

/// `FailFast` names the unreachable locations the plan needed, not every
/// unreachable location that holds data: with region-1 and region-2 both
/// cut off, a query restricted to region-1 names region-1 only, and once
/// the NOC epoch of [0, 120) s aggregates everything indexed, an
/// unrestricted query needs neither.
#[test]
fn failfast_names_only_the_locations_the_plan_needs() {
    let mut fs = deployment();
    let mut plan = FaultPlan::seeded(5);
    for g in [1, 2] {
        plan.link_down(
            fs.region_node(g),
            fs.noc_node(),
            Timestamp::from_secs(OUTAGE_FROM),
            Timestamp::from_secs(OUTAGE_UNTIL),
        );
    }
    fs.network_mut().install_faults(plan);
    let refused =
        |fs: &Flowstream, q: &str| match fs.query_with_policy(q, DegradationPolicy::FailFast) {
            Err(FlowstreamError::Unreachable { locations }) => locations,
            other => panic!("{q}: FailFast must refuse, got {other:?}"),
        };
    let (mut before_noc, mut after_noc) = (false, false);
    for rec in workload() {
        if !before_noc && rec.ts >= Timestamp::from_secs(100) {
            before_noc = true;
            assert_eq!(
                fs.unreachable_locations().into_iter().collect::<Vec<_>>(),
                vec!["region-1".to_owned(), "region-2".to_owned()]
            );
            let restricted = "SELECT QUERY FROM ALL WHERE location = \"region-1\"";
            assert_eq!(refused(&fs, restricted), vec!["region-1".to_owned()]);
            assert_eq!(
                refused(&fs, "SELECT QUERY FROM ALL"),
                vec!["region-1".to_owned(), "region-2".to_owned()]
            );
        }
        if !after_noc && rec.ts >= Timestamp::from_secs(130) {
            after_noc = true;
            let answer = fs
                .query_with_policy("SELECT QUERY FROM ALL", DegradationPolicy::FailFast)
                .expect("the reachable NOC epoch stands for every indexed region summary");
            assert!(answer.completeness.is_complete());
            assert!(answer.skipped.is_empty());
            assert_eq!(
                refused(&fs, "SELECT QUERY FROM ALL GROUP BY location").len(),
                2
            );
        }
        fs.ingest_round_robin(&rec);
    }
    assert!(before_noc && after_noc);
}

#[test]
fn spilled_summaries_reaggregate_to_exact_no_fault_totals() {
    let obs = run_chaos(42);
    let (reference, ref_stats) = run_reference();
    // The outage suppressed part of the mid-run answer…
    let mid_total: u64 = obs.partial_mid_outage.rows.iter().map(|r| r.score).sum();
    let final_total: u64 = obs.final_result.rows.iter().map(|r| r.score).sum();
    assert!(mid_total < final_total);
    assert!(obs.final_result.completeness.is_complete());
    // …but after recovery the flushed spill re-aggregates each region's
    // authoritative copy to the exact rows of the run that never saw a
    // fault. (The `noc` roll-up buckets late deliveries into different
    // 240 s epochs, so convergence is asserted on the region locations.)
    for (g, (got, want)) in obs
        .final_region_results
        .iter()
        .zip(reference.iter())
        .enumerate()
    {
        assert_eq!(got.rows, want.rows, "region-{g} diverged from reference");
    }
    assert_eq!(
        obs.stats.flows, ref_stats.flows,
        "no flow records were lost to the outage"
    );
}

#[test]
fn fault_handling_is_fully_accounted() {
    let obs = run_chaos(42);
    assert!(obs.stats.export_retries > 0, "retries: {:?}", obs.stats);
    assert!(obs.stats.spilled_summaries > 0, "spills: {:?}", obs.stats);
    assert!(
        obs.stats.flushed_summaries > 0,
        "every spill flushes after recovery: {:?}",
        obs.stats
    );
    assert_eq!(
        obs.stats.dropped_summaries, 0,
        "a 2-minute outage fits the spill budget"
    );
    assert_eq!(obs.stats.partial_queries, 1);
}

#[test]
fn same_seed_runs_are_identical() {
    assert_eq!(run_chaos(42), run_chaos(42));
}

/// The export-retry backoff carries deterministic seeded jitter (so real
/// deployments don't retry in lock-step). Same seed → bit-identical run;
/// a different seed shifts retry *timing* but never the data: region
/// results and ingested-flow counts still converge exactly.
#[test]
fn jittered_backoff_is_seed_deterministic() {
    let run = |jitter_seed: u64| {
        let mut fs = Flowstream::new(
            3,
            2,
            FlowstreamConfig {
                epoch_len: TimeDelta::from_secs(30),
                export: PumpPolicy {
                    jitter_seed,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut plan = FaultPlan::seeded(7);
        plan.link_down(
            fs.region_node(1),
            fs.noc_node(),
            Timestamp::from_secs(OUTAGE_FROM),
            Timestamp::from_secs(OUTAGE_UNTIL),
        );
        fs.network_mut().install_faults(plan);
        for rec in workload() {
            fs.ingest_round_robin(&rec);
        }
        fs.finish();
        (region_results(&fs), fs.stats())
    };
    let (rows_a, stats_a) = run(11);
    let (rows_b, stats_b) = run(11);
    assert_eq!(rows_a, rows_b, "same jitter seed must be bit-identical");
    assert_eq!(stats_a, stats_b);
    assert!(stats_a.export_retries > 0, "the outage forces retries");
    let (rows_c, stats_c) = run(99);
    assert_eq!(rows_a, rows_c, "jitter shifts timing, never data");
    assert_eq!(stats_a.flows, stats_c.flows);
}

/// Fatal routing errors must surface, not be retried or spilled: an
/// unknown node and a disconnected island are programming/topology errors.
#[test]
fn fatal_transfer_errors_are_not_swallowed() {
    let mut net = Network::new();
    let a = net.add_node("a", NodeKind::DataStore);
    let island = net.add_node("island", NodeKind::DataStore);
    // An id minted by a larger network is out of range here.
    let mut other = Network::new();
    other.add_node("x", NodeKind::DataStore);
    other.add_node("y", NodeKind::DataStore);
    let phantom = other.add_node("z", NodeKind::DataStore);
    assert_eq!(
        net.transfer(a, phantom, 10, Timestamp::ZERO),
        Err(TransferError::UnknownNode(phantom))
    );
    assert_eq!(
        net.transfer(a, island, 10, Timestamp::ZERO),
        Err(TransferError::NoRoute(a, island))
    );
}
