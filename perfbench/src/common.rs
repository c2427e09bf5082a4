//! What the three workloads share: trace generation, the cold-tier
//! directory, timed ingest and query calls, and the deterministic counts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use megastream::datastore::summary::{StoredSummary, Summary};
use megastream::flow::record::FlowRecord;
use megastream::flow::time::{TimeDelta, Timestamp};
use megastream::flowdb::{QueryCost, QueryResult};
use megastream::flowstream::Flowstream;
use megastream::storage::segment::parse_sealed_name;
use megastream::workloads::netflow::{FlowTraceConfig, FlowTraceGenerator, TrafficEvent};
use megastream::{ColdTier, Parallelism, SyncPolicy};
use megastream_telemetry::Telemetry;

use crate::report::{median, Report, Samples};
use crate::spans::{SpanId, Spans};

/// Worker threads of every deployment: no more than the 2 cores of the host
/// the benchmark was written on, and the same on every host.
pub const PARALLELISM: Parallelism = Parallelism::Threads(2);

/// How often a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Fewest replays a run makes, so each epoch's median rejects one slow
/// replay.
pub const MIN_REPLAYS: usize = 3;

/// Fewest queries a run issues, so the p95 has ten samples beyond it.
pub const MIN_QUERIES: usize = 200;

/// The E14 canonical query set (EXPERIMENTS.md §E14), in its fixed order.
pub const E14_QUERIES: [&str; 10] = [
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

/// The FlowDB operators, as `SelectOp::kind` names them.
pub const OPERATORS: [&str; 5] = ["query", "topk", "above", "hhh", "drilldown"];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for cold tiers and the span file.
    pub work_dir: PathBuf,
}

/// A seeded flow trace.
pub fn generate(
    seed: u64,
    flows_per_sec: f64,
    secs: u64,
    events: Vec<TrafficEvent>,
) -> Vec<FlowRecord> {
    FlowTraceGenerator::new(FlowTraceConfig {
        seed,
        flows_per_sec,
        duration: TimeDelta::from_secs(secs),
        events,
        ..Default::default()
    })
    .collect()
}

/// Runs a set-up step [`SETUP_REPEATS`] times and keeps the last result,
/// with the wall time of each repetition.
pub fn repeat_setup<T>(mut step: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        // Free the previous repetition first, so each one allocates alike.
        drop(last.take());
        let t = Instant::now();
        last = Some(step(i));
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repetition"), secs)
}

/// Trace generation cost per record, from timed repetitions.
pub fn emit_generate(report: &mut Report, gen_secs: &[f64], records: usize) {
    report.metric(
        "workloads.generate.ns_per_record",
        median(gen_secs) * 1e9 / records.max(1) as f64,
        "ns",
    );
}

/// A fresh cold-tier directory inside the work directory, removed on drop.
#[derive(Debug)]
pub struct TierDir(PathBuf);

impl TierDir {
    /// Creates an empty directory `work/<tag>-<pid>`.
    pub fn fresh(work: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = work.join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(TierDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Attaches an `OnSeal` cold tier in this directory to `fs`.
    pub fn attach(&self, fs: &mut Flowstream) -> Result<(), String> {
        let tier = ColdTier::create(&self.0, SyncPolicy::OnSeal, Telemetry::disabled())
            .map_err(|e| format!("cold tier in {}: {e:?}", self.0.display()))?;
        fs.attach_cold_tier(tier);
        Ok(())
    }

    /// Bytes of the sealed epoch segments.
    pub fn sealed_bytes(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.0) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| e.file_name().to_str().and_then(parse_sealed_name).is_some())
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// Whether `fsck` finds the tier clean.
    pub fn is_clean(&self) -> bool {
        megastream::storage::fsck::fsck(&self.0, false).is_ok_and(|r| r.is_clean())
    }
}

impl Drop for TierDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The deployment's state size: region and NOC stores plus the FlowDB index.
pub fn state_bytes(fs: &Flowstream) -> u64 {
    let stores: usize = (0..fs.regions())
        .map(|g| fs.region_store(g).accounted_bytes())
        .sum();
    (stores + fs.noc_store().accounted_bytes() + fs.flowdb().total_bytes()) as u64
}

/// Copies of the summaries the regions exported, for the codec probe.
pub fn exported(fs: &Flowstream) -> Vec<StoredSummary> {
    (0..fs.regions())
        .flat_map(|g| fs.region_store(g).summaries().iter().cloned())
        .collect()
}

/// Checks a finished replay: every record arrived and the tier is clean.
pub fn check_replay(report: &mut Report, fs: &Flowstream, tier: &TierDir, records: usize) {
    report.attempted(records as u64);
    let flows = fs.stats().flows;
    report.check(flows == records as u64, || {
        format!("ingested {flows} flows, trace has {records}")
    });
    report.check(tier.is_clean(), || {
        format!("fsck finds {} unclean", tier.path().display())
    });
    report.check(!fs.cold_tier_dead(), || "cold tier died".to_owned());
}

/// Tracks epoch boundaries the way a deployment crosses them.
#[derive(Debug, Clone)]
pub struct Epochs {
    len: TimeDelta,
    end: Timestamp,
}

impl Epochs {
    /// Epochs of `len` starting at time zero.
    pub fn new(len: TimeDelta) -> Self {
        Epochs {
            len,
            end: Timestamp::ZERO + len,
        }
    }

    /// The boundary a record at `ts` crosses, if any, advancing past it:
    /// ingesting that record rotates the deployment first.
    pub fn cross(&mut self, ts: Timestamp) -> Option<Timestamp> {
        if ts < self.end {
            return None;
        }
        let at = self.end;
        while ts >= self.end {
            self.end += self.len;
        }
        Some(at)
    }
}

/// Time spent inside ingest and finish calls, per epoch of one replay.
///
/// An epoch's unit starts with the call that rotates into it, so it holds
/// that rotation plus the epoch's own ingest calls; `finish` belongs to the
/// last unit. Replays of one trace have the same units, which lets
/// [`records_per_s`] compare them epoch by epoch.
#[derive(Debug)]
pub struct EpochClock {
    epochs: Epochs,
    units: Vec<f64>,
    mark: Option<Instant>,
}

impl EpochClock {
    /// A stopped clock for deployments rotating every `epoch_len`.
    pub fn new(epoch_len: TimeDelta) -> Self {
        EpochClock {
            epochs: Epochs::new(epoch_len),
            units: vec![0.0],
            mark: None,
        }
    }

    fn charge(&mut self, secs: f64) {
        if let Some(unit) = self.units.last_mut() {
            *unit += secs;
        }
    }

    /// Starts timing the calls that follow.
    pub fn resume(&mut self) {
        self.mark = Some(Instant::now());
    }

    /// Stops timing (before a query, say), charging the current epoch.
    pub fn pause(&mut self) {
        if let Some(mark) = self.mark.take() {
            self.charge(mark.elapsed().as_secs_f64());
        }
    }

    /// Call before ingesting a record at `ts`: returns whether the call
    /// rotates, in which case a new unit begins.
    pub fn before(&mut self, ts: Timestamp) -> bool {
        if self.epochs.cross(ts).is_none() {
            return false;
        }
        if let Some(mark) = self.mark {
            let now = Instant::now();
            self.charge(now.duration_since(mark).as_secs_f64());
            self.mark = Some(now);
        }
        self.units.push(0.0);
        true
    }

    /// The seconds of each epoch, once the replay is over.
    pub fn into_units(mut self) -> Vec<f64> {
        self.pause();
        self.units
    }
}

/// Replays `trace` round-robin and calls `finish`, timing whole stretches
/// of calls per epoch.
pub fn replay_untraced(
    fs: &mut Flowstream,
    trace: &[FlowRecord],
    epoch_len: TimeDelta,
) -> Vec<f64> {
    let mut clock = EpochClock::new(epoch_len);
    clock.resume();
    for rec in trace {
        clock.before(rec.ts);
        fs.ingest_round_robin(rec);
    }
    fs.finish();
    clock.into_units()
}

/// `records_per_s` over several replays of one trace: the records divided
/// by the ingest time of the median replay, assembled epoch by epoch (each
/// epoch's median over the replays). A slow spell of the shared host then
/// costs only the epochs it covers in one replay, not the figure.
pub fn records_per_s(records: usize, replays: &[Vec<f64>]) -> f64 {
    let epochs = replays.iter().map(Vec::len).min().unwrap_or(0);
    let secs: f64 = (0..epochs)
        .map(|e| median(&replays.iter().map(|r| r[e]).collect::<Vec<_>>()))
        .sum();
    records as f64 / secs
}

/// Notes each replay's plain rate, records over its total ingest time.
pub fn note_rates(report: &mut Report, records: usize, replays: &[Vec<f64>]) {
    let rates: Vec<f64> = replays
        .iter()
        .map(|r| records as f64 / r.iter().sum::<f64>())
        .collect();
    report.note(format!("records_per_s of each replay: {rates:.0?}"));
}

/// Per-call timing of ingest, rotation and finish in a traced run.
///
/// The benchmark knows which `ingest_round_robin` calls rotate: a record at
/// or past the end of the current epoch closes it first.
#[derive(Debug)]
pub struct TracedIngest {
    epoch_len: TimeDelta,
    clock: EpochClock,
    batch: Option<(Instant, Instant)>,
    /// Calls that rotate nothing.
    pub ingest: Samples,
    /// Calls that rotate, plus `finish`.
    pub rotate: Samples,
    /// Replays timed so far.
    pub replays: usize,
}

impl TracedIngest {
    /// A timer for deployments rotating every `epoch_len`.
    pub fn new(epoch_len: TimeDelta) -> Self {
        TracedIngest {
            epoch_len,
            clock: EpochClock::new(epoch_len),
            batch: None,
            ingest: Samples::default(),
            rotate: Samples::default(),
            replays: 0,
        }
    }

    /// Starts timing a fresh deployment.
    pub fn start_replay(&mut self) {
        self.clock = EpochClock::new(self.epoch_len);
        self.replays += 1;
    }

    /// Ingests one record round-robin, timing the call. Consecutive calls
    /// that rotate nothing become one `flowstream.ingest` span.
    pub fn ingest(
        &mut self,
        fs: &mut Flowstream,
        rec: &FlowRecord,
        spans: &mut Spans,
        parent: SpanId,
    ) {
        let rotates = self.clock.before(rec.ts);
        let t0 = Instant::now();
        fs.ingest_round_robin(rec);
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.clock.charge(ns as f64 / 1e9);
        if rotates {
            self.pause(spans, parent);
            self.rotate.push(ns);
            spans.interval(parent, "flowstream.rotate", t0, t1);
        } else {
            self.ingest.push(ns);
            self.batch = Some((self.batch.map_or(t0, |(s, _)| s), t1));
        }
    }

    /// Closes the open run of ingest calls (before a query, say).
    pub fn pause(&mut self, spans: &mut Spans, parent: SpanId) {
        if let Some((start, end)) = self.batch.take() {
            spans.interval(parent, "flowstream.ingest", start, end);
        }
    }

    /// Calls `finish`, timed as one more rotation, and returns the
    /// replay's seconds per epoch.
    pub fn finish(&mut self, fs: &mut Flowstream, spans: &mut Spans, parent: SpanId) -> Vec<f64> {
        self.pause(spans, parent);
        let t0 = Instant::now();
        fs.finish();
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.clock.charge(ns as f64 / 1e9);
        self.rotate.push(ns);
        spans.interval(parent, "flowstream.finish", t0, t1);
        std::mem::replace(&mut self.clock, EpochClock::new(self.epoch_len)).into_units()
    }

    /// The `flowstream.ingest.*` and `flowstream.rotate.*` metrics; counts
    /// and totals are per replay.
    pub fn emit(&self, report: &mut Report) {
        let replays = self.replays.max(1) as f64;
        report.metric(
            "flowstream.ingest.p50_ns",
            self.ingest.quantile_ns(0.5),
            "ns",
        );
        report.metric(
            "flowstream.ingest.p99_ns",
            self.ingest.quantile_ns(0.99),
            "ns",
        );
        report.metric(
            "flowstream.rotate.p50_ms",
            self.rotate.quantile_ns(0.5) / 1e6,
            "ms",
        );
        report.metric("flowstream.rotate.max_ms", self.rotate.max_ns() / 1e6, "ms");
        report.metric(
            "flowstream.rotate.count",
            self.rotate.len() as f64 / replays,
            "count",
        );
        report.metric(
            "flowstream.rotate.total_s",
            self.rotate.total_ns() / 1e9 / replays,
            "s",
        );
    }
}

/// Timing state of a traced replay.
pub struct Tracing<'a> {
    /// Per-call ingest and rotation times.
    pub ingest: &'a mut TracedIngest,
    /// Parse and execution times.
    pub queries: &'a mut QueryTimes,
    /// The span recorder.
    pub spans: &'a mut Spans,
}

/// A traced query: parse, then FlowDB execution, in place of
/// `Flowstream::query`. Unreachable locations make it a partial execution,
/// as `DegradationPolicy::Partial` does.
pub fn query_traced(
    fs: &Flowstream,
    text: &str,
    times: &mut QueryTimes,
    spans: &mut Spans,
    parent: SpanId,
) -> Result<QueryResult, String> {
    let t0 = Instant::now();
    let parsed = megastream::flowdb::parse(text);
    let t1 = Instant::now();
    let query = parsed.map_err(|e| format!("{text}: {e}"))?;
    let unavailable = fs.unreachable_locations();
    let t2 = Instant::now();
    let result = if unavailable.is_empty() {
        fs.flowdb().execute(&query)
    } else {
        fs.flowdb().execute_partial(&query, &unavailable)
    };
    let t3 = Instant::now();
    spans.interval(parent, "flowdb.parse", t0, t1);
    spans.interval(parent, "netsim.unreachable", t1, t2);
    spans.interval(parent, "flowdb.execute", t2, t3);
    times.parse.push(t1.duration_since(t0).as_nanos() as u64);
    let exec = t3.duration_since(t2).as_nanos() as u64;
    times.exec.push(exec);
    times.by_op.entry(query.op.kind()).or_default().push(exec);
    result.map_err(|e| format!("{text}: {e}"))
}

/// Parse and execution latencies of traced queries.
#[derive(Debug, Default)]
pub struct QueryTimes {
    /// `megastream_flowdb::parse` calls.
    pub parse: Samples,
    /// `FlowDb::execute`/`execute_partial` calls.
    pub exec: Samples,
    /// Execution calls by operator.
    pub by_op: BTreeMap<&'static str, Samples>,
}

impl QueryTimes {
    /// The `flowdb.parse.*` and `flowdb.execute.*` metrics; an operator the
    /// workload never runs reads 0.
    pub fn emit(&self, report: &mut Report) {
        report.metric(
            "flowdb.parse.p50_us",
            self.parse.quantile_ns(0.5) / 1e3,
            "us",
        );
        report.metric(
            "flowdb.execute.p50_ms",
            self.exec.quantile_ns(0.5) / 1e6,
            "ms",
        );
        report.metric(
            "flowdb.execute.p95_ms",
            self.exec.quantile_ns(0.95) / 1e6,
            "ms",
        );
        for op in OPERATORS {
            let p50 = self.by_op.get(op).map_or(0.0, |s| s.quantile_ns(0.5));
            report.metric(format!("flowdb.execute.{op}.p50_ms"), p50 / 1e6, "ms");
        }
    }
}

/// Consecutive queries per latency block: five passes over the E14 set.
pub const LATENCY_BLOCK: usize = 50;

/// End-to-end query latency percentiles, with the sample count noted.
///
/// Each percentile is the median, over blocks of [`LATENCY_BLOCK`]
/// consecutive queries, of that block's percentile: a slow spell of the
/// shared host then moves only the blocks it covers, not the whole figure.
pub fn emit_query_latency(report: &mut Report, latency: &Samples) {
    report.note(format!(
        "query latency samples: {} (pooled p50 {:.3} ms, p95 {:.3} ms)",
        latency.len(),
        latency.quantile_ns(0.5) / 1e6,
        latency.quantile_ns(0.95) / 1e6
    ));
    let p50 = latency.block_quantile_ns(0.5, LATENCY_BLOCK);
    let p95 = latency.block_quantile_ns(0.95, LATENCY_BLOCK);
    report.metric("query_p50_ms", p50 / 1e6, "ms");
    report.metric("query_p95_ms", p95 / 1e6, "ms");
}

/// Work counters that repeat exactly for a given seed and shape.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Summed `QueryCost::summaries` over one fixed pass of queries.
    pub cost_summaries: u64,
    /// Summed `QueryCost::nodes_visited`.
    pub cost_nodes: u64,
    /// Summed `QueryCost::bytes_merged`.
    pub cost_bytes: u64,
    /// Summaries indexed in FlowDB.
    pub index_summaries: u64,
    /// Bytes of the FlowDB index.
    pub index_bytes: u64,
    /// Flowtree nodes held in the stores' summaries.
    pub tree_nodes: u64,
    /// Deep bytes of those Flowtrees.
    pub tree_bytes: u64,
    /// Region epoch rotations.
    pub region_epochs: u64,
    /// Summary bytes the regions exported.
    pub exported_bytes: u64,
    /// Bytes of sealed cold-tier segments.
    pub sealed_bytes: u64,
    /// Bytes moved over the simulated network.
    pub network_bytes: u64,
    /// Export re-attempts.
    pub retries: u64,
    /// Summaries parked in spill buffers.
    pub spilled: u64,
    /// Parked summaries delivered later.
    pub flushed: u64,
    /// Bytes dropped from full spill buffers.
    pub dropped_bytes: u64,
    /// Trigger firings.
    pub trigger_events: u64,
}

impl Counts {
    /// The counts of a finished deployment and its cold tier.
    pub fn of(fs: &Flowstream, tier: &TierDir) -> Self {
        let stats = fs.stats();
        let (mut tree_nodes, mut tree_bytes) = (0, 0);
        let stores = (0..fs.regions())
            .map(|g| fs.region_store(g))
            .chain([fs.noc_store()]);
        for store in stores {
            for s in store.summaries().iter() {
                if let Summary::Flowtree(t) = &s.summary {
                    tree_nodes += t.node_count() as u64;
                    tree_bytes += t.deep_bytes() as u64;
                }
            }
        }
        Counts {
            index_summaries: fs.flowdb().len() as u64,
            index_bytes: fs.flowdb().total_bytes() as u64,
            tree_nodes,
            tree_bytes,
            region_epochs: stats.region_epochs,
            exported_bytes: stats.exported_bytes,
            sealed_bytes: tier.sealed_bytes(),
            network_bytes: stats.network_bytes,
            retries: stats.export_retries,
            spilled: stats.spilled_summaries,
            flushed: stats.flushed_summaries,
            dropped_bytes: stats.dropped_bytes,
            trigger_events: stats.trigger_events as u64,
            ..Counts::default()
        }
    }

    /// Adds one query's deterministic work.
    pub fn add_cost(&mut self, cost: &QueryCost) {
        self.cost_summaries += cost.summaries as u64;
        self.cost_nodes += cost.nodes_visited as u64;
        self.cost_bytes += cost.bytes_merged;
    }

    /// Reports every count.
    pub fn emit(&self, report: &mut Report) {
        let per_node = self.tree_bytes as f64 / self.tree_nodes.max(1) as f64;
        let rows: [(&str, f64, &'static str); 16] = [
            ("flowdb.cost.summaries", self.cost_summaries as f64, "count"),
            ("flowdb.cost.nodes_visited", self.cost_nodes as f64, "count"),
            ("flowdb.cost.bytes_merged", self.cost_bytes as f64, "B"),
            (
                "flowdb.index.summaries",
                self.index_summaries as f64,
                "count",
            ),
            ("flowdb.index.bytes", self.index_bytes as f64, "B"),
            ("flowtree.nodes", self.tree_nodes as f64, "count"),
            ("flowtree.bytes_per_node", per_node, "B"),
            (
                "flowstream.region_epochs",
                self.region_epochs as f64,
                "count",
            ),
            ("flowstream.exported_bytes", self.exported_bytes as f64, "B"),
            ("storage.sealed_bytes", self.sealed_bytes as f64, "B"),
            ("netsim.network_bytes", self.network_bytes as f64, "B"),
            ("export.retries", self.retries as f64, "count"),
            ("export.spilled", self.spilled as f64, "count"),
            ("export.flushed", self.flushed as f64, "count"),
            ("export.dropped_bytes", self.dropped_bytes as f64, "B"),
            (
                "datastore.trigger_events",
                self.trigger_events as f64,
                "count",
            ),
        ];
        for (name, value, unit) in rows {
            report.metric(name, value, unit);
        }
    }
}

/// Traced-minus-untraced `records_per_s` and `query_p50_ms`, each side
/// computed as its end-to-end metric is: index 0 holds the untraced
/// replays and queries, index 1 the traced ones.
pub fn emit_overhead(
    report: &mut Report,
    records: usize,
    replays: &[Vec<Vec<f64>>; 2],
    latency: &[Samples; 2],
) {
    let rate = |k: usize| records_per_s(records, &replays[k]);
    report.metric("trace.overhead.records_per_s", rate(1) - rate(0), "1/s");
    let p50 = |k: usize| latency[k].block_quantile_ns(0.5, LATENCY_BLOCK) / 1e6;
    report.metric("trace.overhead.query_p50_ms", p50(1) - p50(0), "ms");
}

/// Prints self time per layer and writes the spans out.
pub fn finish_trace(report: &mut Report, spans: &Spans, cfg: &RunConfig, workload: &str) {
    for (layer, secs) in spans.self_time_by_layer() {
        report.note(format!("self time {layer:<11} {secs:>10.4} s"));
    }
    let path = cfg
        .work_dir
        .join(format!("spans-{workload}-seed{}.tsv", cfg.seed));
    match spans.write_tsv(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
}
