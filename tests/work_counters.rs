//! The counter gate: the deterministic work counts of scaled-down
//! `ingest`, `query` and `live` shapes (perfbench's three workloads),
//! compared line by line with `tests/golden/work_counters.txt`.
//!
//! Each shape runs through the public `Flowstream` API with an `OnSeal`
//! cold tier and reports:
//! - state bytes (stores plus the FlowDB index) and sealed cold bytes;
//! - Flowtree nodes and bytes per node of the stores' summaries;
//! - fsyncs, export retries, spills, flushes and drops;
//! - trigger firings;
//! - for every query, `summaries_used`, the `QueryCost` work fields, the
//!   completeness and a digest of the answer.
//!
//! All of them are pure functions of the seed, so any difference is a
//! behaviour change. A change that moves a count on purpose replaces the
//! golden file with the `work_counters.actual` file the failing run
//! writes next to the test binary's scratch directory, and lists the
//! moved counts in its change notes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use megastream::flowstream::{DegradationPolicy, Flowstream, FlowstreamConfig};
use megastream_datastore::summary::Summary;
use megastream_datastore::trigger::TriggerCondition;
use megastream_flow::addr::Ipv4Addr;
use megastream_flow::key::FlowKey;
use megastream_flow::mask::GeneralizationSchema;
use megastream_flow::record::FlowRecord;
use megastream_flow::score::Popularity;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_flowdb::QueryResult;
use megastream_netsim::FaultPlan;
use megastream_storage::segment::parse_sealed_name;
use megastream_storage::{ColdTier, SyncPolicy};
use megastream_telemetry::Telemetry;
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator, TrafficEvent};

const GOLDEN: &str = include_str!("golden/work_counters.txt");

/// The E14 query set (EXPERIMENTS.md §E14), as perfbench issues it.
const E14_QUERIES: [&str; 10] = [
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
];

fn trace(seed: u64, flows_per_sec: f64, secs: u64, events: Vec<TrafficEvent>) -> Vec<FlowRecord> {
    FlowTraceGenerator::new(FlowTraceConfig {
        seed,
        flows_per_sec,
        duration: TimeDelta::from_secs(secs),
        events,
        ..Default::default()
    })
    .collect()
}

/// A fresh cold-tier directory, removed again on drop.
struct TierDir(PathBuf);

impl TierDir {
    fn fresh(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "megastream-work-counters-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tier dir");
        TierDir(dir)
    }

    /// Attaches an `OnSeal` tier that counts its fsyncs into `tel`.
    fn attach(&self, fs: &mut Flowstream, tel: &Telemetry) {
        let tier = ColdTier::create(&self.0, SyncPolicy::OnSeal, tel.clone()).expect("cold tier");
        fs.attach_cold_tier(tier);
    }

    fn sealed_bytes(&self) -> u64 {
        sealed_bytes(&self.0)
    }
}

impl Drop for TierDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sealed_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("tier dir")
        .flatten()
        .filter(|e| e.file_name().to_str().and_then(parse_sealed_name).is_some())
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The deployment-wide counts of a finished shape.
fn deployment_counts(out: &mut String, fs: &Flowstream, tier: &TierDir, tel: &Telemetry) {
    let stats = fs.stats();
    let stores: Vec<_> = (0..fs.regions())
        .map(|g| fs.region_store(g))
        .chain([fs.noc_store()])
        .collect();
    let state: usize =
        stores.iter().map(|s| s.accounted_bytes()).sum::<usize>() + fs.flowdb().total_bytes();
    let (mut nodes, mut bytes) = (0u64, 0u64);
    for store in &stores {
        for s in store.summaries().iter() {
            if let Summary::Flowtree(t) = &s.summary {
                nodes += t.node_count() as u64;
                bytes += t.deep_bytes() as u64;
            }
        }
    }
    let firings: Vec<String> = fs
        .trigger_log()
        .iter()
        .map(|e| format!("{}@{}", e.installed_by, e.at.as_micros()))
        .collect();
    let rows = [
        ("flows", stats.flows.to_string()),
        ("state_bytes", state.to_string()),
        ("cold_bytes", tier.sealed_bytes().to_string()),
        ("flowdb.summaries", fs.flowdb().len().to_string()),
        ("flowdb.bytes", fs.flowdb().total_bytes().to_string()),
        ("flowtree.nodes", nodes.to_string()),
        ("flowtree.bytes", bytes.to_string()),
        (
            "flowtree.bytes_per_node",
            format!("{:.3}", bytes as f64 / nodes.max(1) as f64),
        ),
        (
            "fsyncs",
            tel.counter("storage.segments.fsync_total")
                .get()
                .to_string(),
        ),
        ("region_epochs", stats.region_epochs.to_string()),
        ("noc_epochs", stats.noc_epochs.to_string()),
        ("network_bytes", stats.network_bytes.to_string()),
        ("export.retries", stats.export_retries.to_string()),
        ("export.spilled", stats.spilled_summaries.to_string()),
        ("export.flushed", stats.flushed_summaries.to_string()),
        ("export.dropped", stats.dropped_summaries.to_string()),
        ("raw_deferrals", stats.raw_deferrals.to_string()),
        ("partial_queries", stats.partial_queries.to_string()),
        ("trigger.firings", stats.trigger_events.to_string()),
        ("trigger.at", firings.join(",")),
    ];
    for (name, value) in rows {
        let _ = writeln!(out, "{name} {value}");
    }
}

/// One query's line: its work counts, completeness and answer digest.
fn query_line(out: &mut String, text: &str, result: &QueryResult) {
    let cost = &result.cost;
    let score_sum: u64 = result.rows.iter().map(|r| r.score).sum();
    let first = result.rows.first().map_or_else(
        || "-".to_owned(),
        |r| {
            let key = r.key.map_or_else(|| "-".to_owned(), |k| k.to_string());
            format!("{key}={}", r.score)
        },
    );
    let _ = writeln!(
        out,
        "query {text:?} used={} locations={} summaries={} nodes={} bytes={} rows={} \
         complete={} score_sum={score_sum} first={first}",
        result.summaries_used,
        cost.locations,
        cost.summaries,
        cost.nodes_visited,
        cost.bytes_merged,
        cost.rows_returned,
        result.completeness,
    );
}

/// `ingest`: 2 regions × 4 routers, default config (60 s epochs), a
/// 600 s trace replayed round-robin, then the E14 set once.
fn ingest_shape(out: &mut String) {
    let tel = Telemetry::new();
    let tier = TierDir::fresh("ingest");
    let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default());
    tier.attach(&mut fs, &tel);
    for rec in &trace(11, 100.0, 600, Vec::new()) {
        fs.ingest_round_robin(rec);
    }
    fs.finish();
    let _ = writeln!(out, "== ingest");
    for text in E14_QUERIES {
        let result = fs.query(text).expect("E14 query");
        query_line(out, text, &result);
    }
    deployment_counts(out, &fs, &tier, &tel);
}

/// `query`: 4 regions × 2 routers, 30 s epochs, a 300 s trace, then the
/// E14 set once.
fn query_shape(out: &mut String) {
    let tel = Telemetry::new();
    let tier = TierDir::fresh("query");
    let config = FlowstreamConfig {
        epoch_len: TimeDelta::from_secs(30),
        ..Default::default()
    };
    let mut fs = Flowstream::new(4, 2, config);
    tier.attach(&mut fs, &tel);
    for rec in &trace(12, 100.0, 300, Vec::new()) {
        fs.ingest_round_robin(rec);
    }
    fs.finish();
    let _ = writeln!(out, "== query");
    for text in E14_QUERIES {
        let result = fs.query(text).expect("E14 query");
        query_line(out, text, &result);
    }
    deployment_counts(out, &fs, &tier, &tel);
}

/// Dashboard settings of the `live` shape.
const LIVE_ATTACK_FLOWS_PER_SEC: f64 = 600.0;
const LIVE_FLOWS_PER_SEC: f64 = 150.0;
const DASHBOARD_FROM: u64 = 60;
const DASHBOARD_EVERY: u64 = 2;
const DASHBOARD_WINDOW: u64 = 60;

/// The dashboard query due at `due` seconds, the `k`-th issued.
fn dashboard_query(k: usize, due: u64) -> String {
    let (from, to) = (due - DASHBOARD_WINDOW, due);
    let hhh = (LIVE_FLOWS_PER_SEC * 50.0) as u64;
    match k % 3 {
        0 => format!("SELECT TOPK 5 FROM [{from}, {to})"),
        1 => format!("SELECT HHH {hhh} FROM [{from}, {to})"),
        _ => format!("SELECT QUERY FROM [{from}, {to}) GROUP BY location"),
    }
}

/// Totals of one dashboard query kind over a pass.
#[derive(Default)]
struct KindTotals {
    issued: u64,
    partial: u64,
    used: u64,
    locations: u64,
    nodes: u64,
    bytes: u64,
    rows: u64,
    score_sum: u64,
}

/// `live`: 2 × 4, 10 s epochs, `dst_preserving`, `Partial`. A 600 s
/// trace carries a 60 s DDoS on 100.64.0.1:53, each region holds a
/// trigger on it, region 1's uplink is down for [250, 340) s, and a
/// dashboard query over the last 60 s runs every 2 s from t = 60 s.
fn live_shape(out: &mut String) {
    let victim = Ipv4Addr::from_octets([100, 64, 0, 1]);
    let attack = TimeWindow::starting_at(Timestamp::from_secs(200), TimeDelta::from_secs(60));
    let records = trace(
        13,
        LIVE_FLOWS_PER_SEC,
        600,
        vec![TrafficEvent::Ddos {
            window: attack,
            target: victim,
            target_port: 53,
            flows_per_sec: LIVE_ATTACK_FLOWS_PER_SEC,
        }],
    );
    let tel = Telemetry::new();
    let tier = TierDir::fresh("live");
    let config = FlowstreamConfig {
        epoch_len: TimeDelta::from_secs(10),
        schema: GeneralizationSchema::dst_preserving(),
        degradation: DegradationPolicy::Partial,
        ..Default::default()
    };
    let mut fs = Flowstream::new(2, 4, config);
    tier.attach(&mut fs, &tel);
    let key = FlowKey::root().with_dst_prefix(format!("{victim}/32").parse().unwrap());
    for g in 0..2 {
        fs.region_store_mut(g).install_trigger(
            "work-counters",
            TriggerCondition::FlowScoreAbove {
                key,
                threshold: Popularity::new((LIVE_ATTACK_FLOWS_PER_SEC * 5.0) as u64),
                window_len: TimeDelta::from_secs(10),
            },
            TimeDelta::from_secs(10),
        );
    }
    let mut plan = FaultPlan::seeded(13);
    plan.link_down(
        fs.region_node(1),
        fs.noc_node(),
        Timestamp::from_secs(250),
        Timestamp::from_secs(340),
    );
    fs.network_mut().install_faults(plan);
    let mut kinds: [KindTotals; 3] = Default::default();
    let mut due = DASHBOARD_FROM;
    let mut issued = 0;
    for rec in &records {
        while rec.ts >= Timestamp::from_secs(due) {
            let window = TimeWindow::new(
                Timestamp::from_secs(due - DASHBOARD_WINDOW),
                Timestamp::from_secs(due),
            );
            let db = fs.flowdb();
            let indexed = db
                .locations()
                .iter()
                .any(|l| db.windows_of(l).iter().any(|w| w.overlaps(window)));
            if indexed {
                let text = dashboard_query(issued, due);
                let result = fs.query(&text).expect("dashboard query");
                let totals = &mut kinds[issued % 3];
                totals.issued += 1;
                totals.partial += u64::from(!result.completeness.is_complete());
                totals.used += result.summaries_used as u64;
                totals.locations += result.cost.locations as u64;
                totals.nodes += result.cost.nodes_visited as u64;
                totals.bytes += result.cost.bytes_merged;
                totals.rows += result.rows.len() as u64;
                totals.score_sum += result.rows.iter().map(|r| r.score).sum::<u64>();
                issued += 1;
            }
            due += DASHBOARD_EVERY;
        }
        fs.ingest_round_robin(rec);
    }
    fs.finish();
    let _ = writeln!(out, "== live");
    for (name, t) in ["topk", "hhh", "grouped-query"].iter().zip(&kinds) {
        let _ = writeln!(
            out,
            "dashboard {name} issued={} partial={} used={} locations={} nodes={} bytes={} \
             rows={} score_sum={}",
            t.issued, t.partial, t.used, t.locations, t.nodes, t.bytes, t.rows, t.score_sum
        );
    }
    for text in ["SELECT QUERY FROM ALL", "SELECT TOPK 5 FROM ALL"] {
        let result = fs.query(text).expect("post-run query");
        query_line(out, text, &result);
    }
    deployment_counts(out, &fs, &tier, &tel);
}

#[test]
fn deterministic_work_counts_match_the_golden_file() {
    let mut actual = String::new();
    ingest_shape(&mut actual);
    query_shape(&mut actual);
    live_shape(&mut actual);
    if actual == GOLDEN {
        return;
    }
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("work_counters.actual");
    let _ = std::fs::write(&path, &actual);
    let mut diff = String::new();
    let (want, got): (Vec<&str>, Vec<&str>) = (GOLDEN.lines().collect(), actual.lines().collect());
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            let _ = writeln!(diff, "-{}\n+{}", w.unwrap_or(&""), g.unwrap_or(&""));
        }
    }
    panic!(
        "work counts differ from tests/golden/work_counters.txt \
         (actual counts written to {}):\n{diff}",
        path.display()
    );
}
