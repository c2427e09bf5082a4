//! Parallel-vs-sequential equivalence oracle.
//!
//! The parallel data plane claims its results are **bit-identical** to the
//! sequential reference — `Parallelism::Sequential` is kept forever as the
//! oracle, and this suite is where the claim is enforced: the same workload
//! and seed run under `Sequential`, `Threads(2)`, `Threads(8)`, and `Auto`,
//! and every FlowQL query of the canonical E14 set (see `EXPERIMENTS.md`)
//! must return exactly the same rows, the same `Completeness`, and the same
//! partial-query counters across all settings — with and without a fault
//! plan installed. A parallel pump mid-outage must spill and recover to the
//! same converged state `tests/chaos_e2e.rs` pins for the sequential one.
//!
//! A separate test storms a traced deployment from 8 threads and checks
//! every query still yields one *connected* span tree plus a valid Chrome
//! export — the tracer must not lose or cross-link spans under concurrency.
//!
//! FlowDB's per-location rollups are derived state, so they must not show
//! either: a query's first answer on a fresh deployment (which builds the
//! rollups it reads) equals its repeat answer (which finds them warm),
//! `QueryCost` work fields included, and a location holding an
//! incompatible summary errors the same way on both paths.

use std::collections::HashMap;

use megastream::flowstream::FlowstreamStats;
use megastream::{DegradationPolicy, Flowstream, FlowstreamConfig, Parallelism};
use megastream_flow::record::FlowRecord;
use megastream_flow::score::ScoreKind;
use megastream_flow::time::TimeWindow;
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_flowdb::{FlowDb, QueryError, QueryResult};
use megastream_flowtree::{Flowtree, FlowtreeConfig};
use megastream_netsim::FaultPlan;
use megastream_telemetry::json::Json;
use megastream_telemetry::{SamplePolicy, SpanId, SpanRecord, Telemetry};
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

/// Every parallelism setting the oracle compares. `Sequential` is the
/// reference semantics; the rest must be indistinguishable from it.
const SETTINGS: [Parallelism; 4] = [
    Parallelism::Sequential,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
    Parallelism::Auto,
];

/// The canonical FlowQL query set of experiment E14 — every query listed in
/// `EXPERIMENTS.md` §E14, covering all five SELECT operators, window and
/// location restrictions, and the GROUP BY fan-out shape.
fn canonical_queries() -> Vec<&'static str> {
    vec![
        "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8",
        "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8 GROUP BY location",
        "SELECT TOPK 5 FROM ALL",
        "SELECT TOPK 3 FROM ALL GROUP BY location",
        "SELECT ABOVE 500 FROM ALL",
        "SELECT HHH 2000 FROM ALL",
        "SELECT DRILLDOWN FROM ALL WHERE src_ip = 10.0.0.0/8",
        "SELECT QUERY FROM [0, 60) WHERE src_ip = 10.0.0.0/8",
        "SELECT QUERY FROM ALL WHERE location = \"region-0\"",
        "SELECT TOPK 5 FROM [60, 240) WHERE dst_ip = 0.0.0.0/0",
    ]
}

fn workload() -> FlowTraceGenerator {
    FlowTraceGenerator::new(FlowTraceConfig {
        seed: 77,
        flows_per_sec: 60.0,
        duration: TimeDelta::from_mins(5),
        ..Default::default()
    })
}

fn deployment(par: Parallelism) -> Flowstream {
    Flowstream::new(
        3,
        2,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            parallelism: par,
            ..Default::default()
        },
    )
}

/// Everything one run observes — the unit of cross-setting comparison.
#[derive(Debug, PartialEq)]
struct Observation {
    /// Per canonical query: the result, or the error rendered to a string.
    answers: Vec<Result<QueryResult, String>>,
    stats: FlowstreamStats,
    /// The counters the oracle pins exactly (worker gauges are excluded:
    /// they differ across settings by definition).
    partial_counter: u64,
    error_counter: u64,
}

fn observe(fs: &Flowstream, tel: &Telemetry) -> Observation {
    let answers = canonical_queries()
        .into_iter()
        .map(|q| fs.query(q).map_err(|e| e.to_string()))
        .collect();
    let snap = tel.snapshot();
    Observation {
        answers,
        stats: fs.stats(),
        partial_counter: snap.counter("flowdb.exec.partial_total").unwrap_or(0),
        error_counter: snap.counter("flowdb.exec.errors_total").unwrap_or(0),
    }
}

/// Ingests the seeded workload and answers the canonical query set.
fn run_clean(par: Parallelism) -> Observation {
    let tel = Telemetry::new();
    let mut fs = deployment(par).with_telemetry(&tel);
    for rec in workload() {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    observe(&fs, &tel)
}

/// The chaos_e2e scenario under a parallelism setting: region 1's uplink is
/// down for `[60 s, 180 s)`, a `Partial` query probes mid-outage, ingest
/// continues past recovery, and the converged per-region results are
/// captured alongside the canonical set.
#[derive(Debug, PartialEq)]
struct FaultObservation {
    unreachable_mid_outage: Vec<String>,
    partial_mid_outage: QueryResult,
    final_region_results: Vec<QueryResult>,
    observation: Observation,
}

fn run_faulted(par: Parallelism) -> FaultObservation {
    let tel = Telemetry::new();
    let mut fs = deployment(par).with_telemetry(&tel);
    let mut plan = FaultPlan::seeded(42);
    plan.link_down(
        fs.region_node(1),
        fs.noc_node(),
        Timestamp::from_secs(60),
        Timestamp::from_secs(180),
    );
    fs.network_mut().install_faults(plan);
    let mut mid = None;
    for rec in workload() {
        if mid.is_none() && rec.ts >= Timestamp::from_secs(120) {
            let unreachable: Vec<String> = fs.unreachable_locations().into_iter().collect();
            let partial = fs
                .query_with_policy(
                    "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8",
                    DegradationPolicy::Partial,
                )
                .expect("Partial degradation answers from reachable locations");
            mid = Some((unreachable, partial));
        }
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    let (unreachable_mid_outage, partial_mid_outage) = mid.expect("workload passes 120 s");
    let final_region_results = (0..fs.regions())
        .map(|g| {
            let q = format!(
                "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8 AND location = region-{g}"
            );
            fs.query(&q).expect("region location is indexed")
        })
        .collect();
    FaultObservation {
        unreachable_mid_outage,
        partial_mid_outage,
        final_region_results,
        observation: observe(&fs, &tel),
    }
}

#[test]
fn every_parallelism_setting_answers_identically() {
    let reference = run_clean(Parallelism::Sequential);
    // The clean run must be fully healthy before it can be a reference.
    assert_eq!(reference.partial_counter, 0);
    assert_eq!(reference.error_counter, 0);
    assert!(reference.answers.iter().all(|a| a.is_ok()));
    for par in SETTINGS {
        let got = run_clean(par);
        assert_eq!(
            got, reference,
            "results under {par} diverged from the sequential oracle"
        );
    }
}

#[test]
fn every_parallelism_setting_degrades_and_recovers_identically() {
    let reference = run_faulted(Parallelism::Sequential);
    // Pin the chaos_e2e shape first: mid-outage exactly region-1 is
    // unreachable and the answer is partial (2 of 3 locations).
    assert_eq!(
        reference.unreachable_mid_outage,
        vec!["region-1".to_string()]
    );
    let completeness = reference.partial_mid_outage.completeness;
    assert!(!completeness.is_complete());
    assert_eq!(completeness.total - completeness.reached, 1);
    assert_eq!(reference.observation.stats.partial_queries, 1);
    assert!(reference.observation.stats.export_retries > 0);
    assert!(reference.observation.stats.spilled_summaries > 0);
    assert!(reference.observation.stats.flushed_summaries > 0);
    assert_eq!(reference.observation.stats.dropped_summaries, 0);
    for par in SETTINGS {
        let got = run_faulted(par);
        assert_eq!(
            got, reference,
            "faulted run under {par} diverged from the sequential oracle"
        );
    }
}

#[test]
fn faulted_runs_converge_to_clean_region_state() {
    // The chaos_e2e convergence pin, under the most parallel setting: after
    // recovery every region's rows equal a run that never saw a fault.
    let faulted = run_faulted(Parallelism::Threads(8));
    let mut clean_fs = deployment(Parallelism::Threads(8));
    for rec in workload() {
        clean_fs.ingest_round_robin(&rec);
    }
    clean_fs.finish();
    for (g, got) in faulted.final_region_results.iter().enumerate() {
        let q =
            format!("SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8 AND location = region-{g}");
        let want = clean_fs.query(&q).expect("region location is indexed");
        assert_eq!(got.rows, want.rows, "region-{g} diverged after recovery");
    }
}

#[test]
fn same_seed_parallel_runs_are_identical() {
    // Determinism holds *within* a setting too — two Threads(8) runs are
    // bit-identical, so flakes cannot hide behind scheduling.
    assert_eq!(
        run_faulted(Parallelism::Threads(8)),
        run_faulted(Parallelism::Threads(8))
    );
}

/// Catch-up merges a deployment's queries made so far.
fn folds(tel: &Telemetry) -> u64 {
    tel.snapshot()
        .counter("flowdb.rollup.folds_total")
        .unwrap_or(0)
}

#[test]
fn cold_and_warm_rollups_answer_identically() {
    let records: Vec<FlowRecord> = workload().collect();
    for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
        let mut cold_builds = 0;
        for q in canonical_queries() {
            let tel = Telemetry::new();
            let mut fs = deployment(par).with_telemetry(&tel);
            for rec in &records {
                fs.ingest_round_robin(rec);
            }
            fs.finish();
            assert_eq!(folds(&tel), 0, "ingest never folds a rollup");
            let cold = fs.query(q).expect("canonical query");
            let built = folds(&tel);
            let warm = fs.query(q).expect("canonical query");
            assert_eq!(
                folds(&tel),
                built,
                "{q} under {par}: warm rollups fold nothing"
            );
            assert_eq!(warm, cold, "{q} under {par}: warm answer differs from cold");
            assert_eq!(warm.cost, cold.cost, "{q} under {par}");
            cold_builds += usize::from(built > 0);
        }
        // Both GROUP BY queries, `location = "region-0"` and every
        // unrestricted `FROM ALL` (its `noc` group) read a rollup.
        assert_eq!(cold_builds, 8, "queries that built a rollup under {par}");
    }
}

#[test]
fn racing_cold_queries_fold_each_entry_once() {
    let loaded = |tel: &Telemetry| {
        let mut fs = deployment(Parallelism::Threads(2)).with_telemetry(tel);
        for rec in workload() {
            fs.ingest_round_robin(&rec);
        }
        fs.finish();
        fs
    };
    let queries = canonical_queries();
    // One pass in order on a fresh deployment: the reference answers and
    // the entries its rollups hold.
    let tel = Telemetry::new();
    let fs = loaded(&tel);
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|q| fs.query(q).expect("canonical query"))
        .collect();
    let once = folds(&tel);
    assert!(once > 0);
    // Four threads start the whole set at once on another fresh
    // deployment, each at a different query, so several race to build
    // the same rollups. Every answer matches and no entry folds twice.
    let tel = Telemetry::new();
    let fs = loaded(&tel);
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (fs, queries, reference, start) = (&fs, &queries, &reference, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..queries.len() {
                    let i = (i + 3 * t) % queries.len();
                    let answer = fs.query(queries[i]).expect("canonical query");
                    assert_eq!(answer, reference[i], "{} on thread {t}", queries[i]);
                }
            });
        }
    });
    assert_eq!(folds(&tel), once, "entries folded into rollups");
}

fn window(start: u64) -> TimeWindow {
    TimeWindow::starting_at(Timestamp::from_secs(start), TimeDelta::from_secs(30))
}

fn summary(records: &[FlowRecord], config: FlowtreeConfig) -> Flowtree {
    let mut tree = Flowtree::new(config);
    for rec in records {
        tree.observe(rec);
    }
    tree
}

#[test]
fn an_incompatible_summary_errors_on_the_cold_and_the_warm_path() {
    let records: Vec<FlowRecord> = workload().take(2_000).collect();
    let packets = || summary(&records[..500], FlowtreeConfig::default());
    let bytes = summary(
        &records[500..1_000],
        FlowtreeConfig::default().with_score_kind(ScoreKind::Bytes),
    );
    for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
        let queries = [
            "SELECT TOPK 3 FROM ALL WHERE location = \"a\"",
            "SELECT TOPK 3 FROM ALL GROUP BY location",
            "SELECT TOPK 3 FROM ALL",
        ];
        // Cold: the rollup's first build meets the incompatible entry.
        let mut db = FlowDb::new().with_parallelism(par);
        db.insert("a", window(0), packets());
        db.insert("a", window(30), bytes.clone());
        db.insert("b", window(0), packets());
        for q in queries {
            let q = megastream_flowdb::parse(q).unwrap();
            for _ in 0..2 {
                assert_eq!(db.execute(&q), Err(QueryError::IncompatibleSummaries));
            }
        }
        // Warm: a built rollup catches up to the incompatible entry.
        let mut db = FlowDb::new().with_parallelism(par);
        db.insert("a", window(0), packets());
        db.insert("a", window(30), packets());
        db.insert("b", window(0), packets());
        for q in queries {
            assert!(db.execute(&megastream_flowdb::parse(q).unwrap()).is_ok());
        }
        db.insert("a", window(60), bytes.clone());
        for q in queries {
            let q = megastream_flowdb::parse(q).unwrap();
            for _ in 0..2 {
                assert_eq!(db.execute(&q), Err(QueryError::IncompatibleSummaries));
            }
        }
        // A window without the incompatible entry still answers.
        let early = megastream_flowdb::parse("SELECT TOPK 3 FROM [0, 60)").unwrap();
        assert!(db.execute(&early).is_ok());
    }
}

/// Every span of one trace must reach its single root by parent links.
fn assert_connected(spans: &[&SpanRecord]) {
    let by_id: HashMap<SpanId, &SpanRecord> = spans.iter().map(|s| (s.id, *s)).collect();
    let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root span per trace");
    let root_id = roots[0].id;
    for span in spans {
        let mut cursor = *span;
        let mut hops = 0;
        while let Some(parent) = cursor.parent {
            cursor = by_id
                .get(&parent)
                .unwrap_or_else(|| panic!("span {:?} has dangling parent {parent:?}", span.id));
            hops += 1;
            assert!(hops <= spans.len(), "parent cycle at {:?}", span.id);
        }
        assert_eq!(cursor.id, root_id, "span {:?} not under the root", span.id);
    }
}

#[test]
fn query_storm_from_eight_threads_keeps_traces_connected() {
    let tel = Telemetry::new().with_tracing(SamplePolicy::Always);
    let mut fs = deployment(Parallelism::Auto).with_telemetry(&tel);
    for rec in workload() {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    // The pumps traced too: each is one connected tree. Only the storm's
    // query traces are counted below.
    let pumps = tel.trace_snapshot();
    assert!(!pumps.is_empty(), "pumps must trace");
    for trace in pumps.trace_ids() {
        assert_connected(&pumps.trace(trace));
    }
    tel.clear_traces();
    let queries = canonical_queries();
    let expected_locations = fs.flowdb().locations().len();
    // 8 threads × 5 queries each, every query itself fanning out on worker
    // threads — the tracer's concurrent span attachment under real load.
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let fs = &fs;
            let queries = &queries;
            scope.spawn(move || {
                for i in 0..5usize {
                    let q = queries[(t + i) % queries.len()];
                    fs.query(q).expect("storm query");
                }
            });
        }
    });
    let snap = tel.trace_snapshot();
    let traces = snap.trace_ids();
    assert_eq!(traces.len(), 40, "one trace per storm query");
    for trace in traces {
        let spans = snap.trace(trace);
        assert_connected(&spans);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.name, "flowstream.query");
        assert!(spans.iter().any(|s| s.name == "flowdb.parse"));
        // Each fanout child hangs off this trace's root and carries its
        // location and payload annotations.
        let fanouts: Vec<_> = spans.iter().filter(|s| s.name == "flowdb.fanout").collect();
        assert!(!fanouts.is_empty(), "query without fan-out spans");
        assert!(fanouts.len() <= expected_locations);
        for fanout in &fanouts {
            assert_eq!(fanout.parent, Some(root.id), "fanout crossed traces");
            assert!(fanout.attr("location").is_some());
            assert!(fanout.records > 0);
        }
    }
    let parsed = Json::parse(&fs.telemetry().trace_snapshot().render_chrome_json())
        .expect("chrome export must stay valid JSON");
    drop(parsed);
}
