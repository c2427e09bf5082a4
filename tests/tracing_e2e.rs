//! End-to-end causal tracing: a traced FlowQL query must yield one
//! connected span tree covering fan-out and merge, a traced `pump` must
//! link child exports to parent absorption across hierarchy levels, the
//! Chrome export must be valid JSON, and concurrent emitters must never
//! lose or cross-link spans.

use std::collections::{BTreeSet, HashMap};

use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream::hierarchy::StoreHierarchy;
use megastream_datastore::store::DataStore;
use megastream_datastore::{AggregatorSpec, StorageStrategy};
use megastream_flow::record::FlowRecord;
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_flowdb::FlowDb;
use megastream_flowtree::FlowtreeConfig;
use megastream_manager::manager::Manager;
use megastream_netsim::topology::{LinkSpec, Network, NodeKind};
use megastream_replication::policy::ReplicationPolicy;
use megastream_telemetry::json::Json;
use megastream_telemetry::{SamplePolicy, SpanId, SpanRecord, Telemetry, TraceSnapshot};
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

fn traced_deployment() -> (Flowstream, Telemetry) {
    let tel = Telemetry::new().with_tracing(SamplePolicy::Always);
    let mut fs = Flowstream::new(
        2,
        2,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    )
    .with_telemetry(&tel);
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 11,
        flows_per_sec: 100.0,
        duration: TimeDelta::from_secs(150),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    // The pumps traced too: each is one connected tree. Tests count only
    // the query traces that follow.
    let pumps = tel.trace_snapshot();
    assert!(!pumps.is_empty(), "pumps must trace");
    for trace in pumps.trace_ids() {
        assert_connected(&pumps.trace(trace));
    }
    tel.clear_traces();
    (fs, tel)
}

/// Every span of `trace` must reach the root by walking parent links.
fn assert_connected(spans: &[&SpanRecord]) {
    let by_id: HashMap<SpanId, &SpanRecord> = spans.iter().map(|s| (s.id, *s)).collect();
    let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
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

/// The locations an unrestricted `FROM ALL` query plans over: every NOC
/// epoch that aggregates region summaries, read in their place, plus every
/// region summary no NOC epoch covers yet.
fn unrestricted_plan_locations(db: &FlowDb) -> Vec<&str> {
    let covered: BTreeSet<usize> = db
        .entries()
        .iter()
        .filter_map(|e| e.covers.as_ref())
        .flatten()
        .map(|id| id.index())
        .collect();
    let mut out: Vec<&str> = db
        .entries()
        .iter()
        .enumerate()
        .filter(|(i, e)| match &e.covers {
            Some(ids) => !ids.is_empty(),
            None => !covered.contains(i),
        })
        .map(|(_, e)| e.location.as_str())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[test]
fn query_trace_has_one_fanout_span_per_contacted_location_plus_merge() {
    let (fs, tel) = traced_deployment();
    // No location restriction: the query contacts the locations of its
    // plan. The NOC epoch rotated at 120 s aggregates the eight region
    // summaries before it, so the plan reads it in their place, plus the
    // two region summaries of [120, 150) that no NOC epoch covers yet.
    let expected = unrestricted_plan_locations(fs.flowdb());
    assert_eq!(expected, vec!["noc", "region-0", "region-1"]);
    fs.query("SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8")
        .expect("traced query");
    let snap = tel.trace_snapshot();
    let traces = snap.trace_ids();
    assert_eq!(traces.len(), 1, "one query → one trace");
    let spans = snap.trace(traces[0]);
    assert_connected(&spans);

    let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
    assert_eq!(root.name, "flowstream.query");
    assert!(root.attr("flowql").unwrap().contains("SELECT QUERY"));

    // One fan-out span per contacted location, each a child of the root
    // and annotated with the summaries + bytes it contributed.
    let mut fanout_locations: Vec<&str> = spans
        .iter()
        .filter(|s| s.name == "flowdb.fanout")
        .map(|s| {
            assert_eq!(s.parent, Some(root.id));
            assert!(s.records > 0, "fanout without payload records");
            assert!(s.bytes > 0, "fanout without payload bytes");
            s.attr("location").expect("fanout location attr")
        })
        .collect();
    fanout_locations.sort_unstable();
    assert_eq!(
        fanout_locations, expected,
        "fanout must cover every planned location"
    );

    // The merge is one fold step per fan-out, also under the root, in
    // location order (spans list in creation order), each consuming what
    // its location's fan-out produced and, the last one, run once no
    // group was running any more.
    let merges: Vec<_> = spans.iter().filter(|s| s.name == "flowdb.merge").collect();
    let merge_locations: Vec<&str> = merges
        .iter()
        .map(|m| {
            assert_eq!(m.parent, Some(root.id));
            let location = m.attr("location").expect("merge location attr");
            let fanout = spans
                .iter()
                .find(|s| s.name == "flowdb.fanout" && s.attr("location") == Some(location))
                .expect("fold step of a fanned-out location");
            assert_eq!(m.records, fanout.records, "{location} folds its fan-out");
            let running: usize = m.attr("running").expect("running attr").parse().unwrap();
            assert!(running < expected.len(), "{location}: running={running}");
            location
        })
        .collect();
    assert_eq!(
        merge_locations, expected,
        "fold steps run in location order"
    );
    assert_eq!(merges.last().and_then(|m| m.attr("running")), Some("0"));
    let fanned: u64 = spans
        .iter()
        .filter(|s| s.name == "flowdb.fanout")
        .map(|s| s.records)
        .sum();
    assert_eq!(
        merges.iter().map(|m| m.records).sum::<u64>(),
        fanned,
        "merge consumes all fanned-out summaries"
    );
    assert!(spans.iter().any(|s| s.name == "flowdb.parse"));
    assert!(spans.iter().any(|s| s.name == "flowdb.operator"));
}

#[test]
fn explain_analyze_works_without_an_attached_tracer() {
    let mut fs = Flowstream::new(1, 2, FlowstreamConfig::default());
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 5,
        flows_per_sec: 100.0,
        duration: TimeDelta::from_mins(1),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    assert!(!fs.telemetry().is_enabled());
    let (result, explanation) = fs.explain("SELECT TOPK 3 FROM ALL WHERE location = \"region-0\"");
    result.expect("explained query succeeds");
    for stage in [
        "flowstream.query",
        "flowdb.parse",
        "flowdb.fanout",
        "flowdb.merge",
        "flowdb.operator",
    ] {
        assert!(
            explanation.tree.contains(stage),
            "stage {stage} missing from explanation:\n{}",
            explanation.tree
        );
    }
    assert!(explanation.tree.contains("location=region-0"));
    // The one planned location's fold step consumes what its fan-out
    // produced, once no group is running.
    let tree = explanation.tree.as_str();
    let line = |stage: &str| {
        tree.lines()
            .find(|l| l.contains(stage))
            .unwrap_or_else(|| panic!("no {stage} in:\n{tree}"))
    };
    fn records(line: &str) -> Option<&str> {
        line.split("  [").nth(1)?.split(" rec").next()
    }
    let merge = line("flowdb.merge");
    assert!(merge.contains("location=region-0  running=0"), "{merge}");
    assert_eq!(
        records(merge),
        records(line("flowdb.fanout")),
        "merge consumes all fanned-out summaries"
    );
    assert!(records(merge).is_some_and(|n| n != "0"), "{merge}");
    // The throwaway tracer left nothing behind on the deployment.
    assert!(fs.telemetry().trace_snapshot().is_empty());
}

#[test]
fn explain_lists_the_summaries_whose_masses_make_the_answer() {
    // 150 s at 30 s epochs: the NOC epoch rotated at 120 s aggregates the
    // first eight region summaries; the two of [120, 150) are on their own.
    let mut fs = Flowstream::new(
        2,
        2,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    );
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 19,
        flows_per_sec: 100.0,
        duration: TimeDelta::from_secs(150),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    let (result, explanation) = fs.explain("SELECT QUERY FROM ALL");
    let answer = result.expect("explained query succeeds").rows[0].score;
    let plan = explanation
        .tree
        .lines()
        .find(|l| l.contains("flowdb.plan"))
        .unwrap_or_else(|| panic!("no plan span in:\n{}", explanation.tree));
    let listed: Vec<&str> = plan.split("  summary=").skip(1).collect();
    assert_eq!(listed.len(), 3, "{plan}");
    assert!(listed[0].starts_with("noc [0.000s, 120.000s) mass="));
    assert!(listed[0].contains("covers=8"), "{plan}");
    assert!(listed[1].starts_with("region-0 [120.000s, 150.000s) mass="));
    assert!(listed[2].starts_with("region-1 [120.000s, 150.000s) mass="));
    let masses: u64 = listed
        .iter()
        .map(|s| {
            let mass = s.split("mass=").nth(1).expect("mass listed");
            let digits: String = mass.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().expect("mass is a number")
        })
        .sum();
    assert_eq!(masses, answer, "listed masses must make up the answer");
}

#[test]
fn explain_shows_a_rollup_read_and_its_catch_up() {
    // 150 s at 30 s epochs: five summaries indexed per region.
    let mut fs = Flowstream::new(
        2,
        2,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    );
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 19,
        flows_per_sec: 100.0,
        duration: TimeDelta::from_secs(150),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    assert_eq!(fs.flowdb().windows_of("region-0").len(), 5);
    let line = |tree: &str, stage: &str| -> String {
        tree.lines()
            .find(|l| l.contains(stage))
            .unwrap_or_else(|| panic!("no {stage} in:\n{tree}"))
            .to_owned()
    };
    let region0 = "SELECT QUERY FROM ALL WHERE location = \"region-0\"";
    // The first query builds region-0's rollup from all five entries, the
    // second finds it caught up; both read one summary.
    for folds in [5, 0] {
        let (result, explanation) = fs.explain(region0);
        let result = result.expect("explained query succeeds");
        let tree = explanation.tree.as_str();
        let plan = line(tree, "flowdb.plan");
        let answer = result.rows[0].score;
        let rollup = format!("rollup=region-0 entries=5 folds={folds} mass={answer}  [1 rec");
        assert!(plan.contains(&rollup), "{plan}");
        assert!(!plan.contains("summary="), "{plan}");
        let fanout = line(tree, "flowdb.fanout");
        let bytes = format!("location=region-0  [1 rec, {} B]", result.cost.bytes_merged);
        assert!(fanout.contains(&bytes), "{fanout}");
        assert!(line(tree, "flowdb.merge").contains("running=0  [1 rec"));
        assert_eq!(result.cost.summaries, 1);
    }
    // GROUP BY reads every region's whole history: region-0's rollup is
    // warm, region-1's is built by this query.
    let (result, explanation) = fs.explain("SELECT QUERY FROM ALL GROUP BY location");
    assert_eq!(result.expect("grouped query succeeds").summaries_used, 2);
    let plan = line(&explanation.tree, "flowdb.plan");
    let rollups: Vec<&str> = plan.split("  rollup=").skip(1).collect();
    assert_eq!(rollups.len(), 2, "{plan}");
    assert!(
        rollups[0].starts_with("region-0 entries=5 folds=0 "),
        "{plan}"
    );
    assert!(
        rollups[1].starts_with("region-1 entries=5 folds=5 "),
        "{plan}"
    );
}

fn hierarchy_store(name: &str, epoch_secs: u64) -> DataStore {
    let mut s = DataStore::new(
        name,
        StorageStrategy::RoundRobin {
            budget_bytes: 10 << 20,
        },
        TimeDelta::from_secs(epoch_secs),
    );
    s.install_aggregator(AggregatorSpec::Flowtree(
        FlowtreeConfig::default().with_capacity(4096),
    ));
    s
}

#[test]
fn pump_links_child_exports_to_parent_absorb_across_three_levels() {
    // leaf (60 s epochs) → mid (60 s) → root (120 s).
    let mut net = Network::new();
    let root_n = net.add_node("root", NodeKind::DataStore);
    let mid_n = net.add_node("mid", NodeKind::DataStore);
    let leaf_n = net.add_node("leaf", NodeKind::DataStore);
    net.connect(leaf_n, mid_n, LinkSpec::lan_1g());
    net.connect(mid_n, root_n, LinkSpec::wan_100m());
    let tel = Telemetry::new().with_tracing(SamplePolicy::Always);
    let mut h = StoreHierarchy::new(net);
    h.set_telemetry(&tel);
    let root = h.add_root(hierarchy_store("root", 120), root_n);
    let mid = h.add_child(hierarchy_store("mid", 60), mid_n, root);
    let leaf = h.add_child(hierarchy_store("leaf", 60), leaf_n, mid);
    let rec = FlowRecord::builder()
        .proto(6)
        .src("10.0.0.1".parse().unwrap(), 5000)
        .dst("1.1.1.1".parse().unwrap(), 443)
        .packets(9)
        .build();
    h.ingest_flow(leaf, &"r".into(), &rec, Timestamp::from_secs(10));
    let stats = h.pump(Timestamp::from_secs(60)).unwrap();
    assert!(stats.exported_summaries > 0);

    let snap = tel.trace_snapshot();
    let traces = snap.trace_ids();
    assert_eq!(traces.len(), 1, "one pump → one trace");
    let spans = snap.trace(traces[0]);
    assert_connected(&spans);
    let pump_root = spans.iter().find(|s| s.parent.is_none()).unwrap();
    assert_eq!(pump_root.name, "hierarchy.pump");

    // Exports happened at both lower levels (leaf and mid rotate at 60 s);
    // each absorb span is stamped with — i.e. parented under — its export.
    let exports: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "hierarchy.export")
        .collect();
    let absorbs: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "hierarchy.absorb")
        .collect();
    assert_eq!(absorbs.len(), 2, "leaf→mid and mid→root links");
    let linked: HashMap<&str, &str> = absorbs
        .iter()
        .map(|a| {
            let export = exports
                .iter()
                .find(|e| Some(e.id) == a.parent)
                .expect("absorb span must be parented under an export span");
            assert_eq!(export.parent, Some(pump_root.id));
            assert_eq!(a.records, export.records, "absorb covers the whole export");
            (export.attr("store").unwrap(), a.attr("store").unwrap())
        })
        .collect();
    assert_eq!(linked.get("leaf"), Some(&"mid"));
    assert_eq!(linked.get("mid"), Some(&"root"));
    // Depth annotations survive: leaf is level 2, mid is level 1.
    let by_store: HashMap<&str, &SpanRecord> = exports
        .iter()
        .map(|e| (e.attr("store").unwrap(), **e))
        .collect();
    assert_eq!(by_store["leaf"].attr("level"), Some("2"));
    assert_eq!(by_store["mid"].attr("level"), Some("1"));
}

#[test]
fn replication_decisions_are_stamped() {
    let mut net = Network::new();
    let owner = net.add_node("owner", NodeKind::DataStore);
    let remote = net.add_node("remote", NodeKind::DataStore);
    net.connect(owner, remote, LinkSpec::wan_100m());
    let tel = Telemetry::new().with_tracing(SamplePolicy::Always);
    let mut mgr = Manager::new(ReplicationPolicy::BreakEven { factor: 1.0 });
    mgr.set_telemetry(&tel);
    let p = mgr.replication_mut().register_partition(owner, 1_000);
    for i in 0..5u64 {
        mgr.replication_mut()
            .on_access(p, remote, 300, &mut net, Timestamp::from_secs(i))
            .unwrap();
    }
    let snap = tel.trace_snapshot();
    // Remote accesses 1–4 trace; accesses after replication are local hits
    // and trace nothing.
    let accesses = snap.spans_named("replication.access");
    assert_eq!(accesses.len(), 4);
    assert_eq!(snap.spans_named("replication.ship").len(), 4);
    let replicates = snap.spans_named("replication.replicate");
    assert_eq!(replicates.len(), 1, "the policy fired exactly once");
    let rep = replicates[0];
    assert_eq!(rep.bytes, 1_000);
    assert_eq!(rep.attr("from"), Some(owner.to_string().as_str()));
    assert_eq!(rep.attr("to"), Some(remote.to_string().as_str()));
    // The replicate span sits inside the access that triggered it.
    let parent = snap.span(rep.parent.unwrap()).unwrap();
    assert_eq!(parent.name, "replication.access");
    assert_eq!(parent.attr("partition"), Some("0"));
}

#[test]
fn chrome_export_of_a_real_query_is_valid_and_complete() {
    let (fs, tel) = traced_deployment();
    fs.query("SELECT TOPK 3 FROM ALL WHERE location = \"region-0\"")
        .expect("traced query");
    let snap = tel.trace_snapshot();
    let json_text = fs.telemetry().trace_snapshot().render_chrome_json();
    let parsed = Json::parse(&json_text).expect("chrome export must parse");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), snap.spans.len(), "one event per span");
    // All events of the single trace share one timeline row (tid).
    let tids: Vec<_> = events
        .iter()
        .map(|e| e.get("tid").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(tids.iter().all(|t| *t == tids[0]));
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
}

#[test]
fn eight_threads_share_one_store_without_loss_or_cross_links() {
    const THREADS: u64 = 8;
    const ROOTS_PER_THREAD: u64 = 50;
    let tel = Telemetry::new().with_tracing(SamplePolicy::Always);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let tel = tel.clone();
            scope.spawn(move || {
                for i in 0..ROOTS_PER_THREAD {
                    let mut root = tel.root("work");
                    root.annotate("thread", t);
                    root.annotate("i", i);
                    let child = tel.scope("inner");
                    let grandchild = tel.scope("leaf");
                    grandchild.finish();
                    child.finish();
                    root.finish();
                }
            });
        }
    });
    let snap = tel.trace_snapshot();
    assert_eq!(snap.dropped, 0, "store under capacity — nothing dropped");
    assert_eq!(snap.spans.len() as u64, THREADS * ROOTS_PER_THREAD * 3);
    let traces = snap.trace_ids();
    assert_eq!(traces.len() as u64, THREADS * ROOTS_PER_THREAD);
    for trace in traces {
        let spans = snap.trace(trace);
        assert_eq!(spans.len(), 3, "no lost or leaked spans in {trace:?}");
        assert_connected(&spans);
        // Stable parent ordering: creation-ordered ids, parent before
        // child within the trace.
        for span in &spans {
            if let Some(parent) = span.parent {
                assert!(parent < span.id, "parent must precede child");
                let parent = snap.span(parent).unwrap();
                assert_eq!(parent.trace, span.trace, "cross-linked trace");
            }
        }
    }
}

#[test]
fn untraced_deployment_records_no_spans() {
    let mut fs = Flowstream::new(1, 1, FlowstreamConfig::default());
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 3,
        flows_per_sec: 50.0,
        duration: TimeDelta::from_mins(1),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    fs.query("SELECT TOPK 1 FROM ALL WHERE location = \"region-0\"")
        .expect("query");
    let snap: TraceSnapshot = fs.telemetry().trace_snapshot();
    assert!(snap.is_empty());
    assert_eq!(snap.render_tree(), "");
}
