//! `ingest`: journaled ingest through a 2-region × 4-router deployment.
//!
//! The deployment runs `FlowstreamConfig::default()` (60 s epochs) with an
//! `OnSeal` cold tier in a fresh directory. It replays a seeded trace
//! round-robin as fast as it accepts it and calls `finish()`. The per-record
//! path (routing, `DataStore::ingest_flow`, Flowtree observe, WAL append)
//! does nearly all the work. After `finish()` the E14 query set runs over
//! the result, untimed by `records_per_s`, so the run also reports query
//! latency on a deployment shaped by ingest alone.

use std::time::Instant;

use megastream::datastore::summary::StoredSummary;
use megastream::flow::record::FlowRecord;
use megastream::flowdb::QueryResult;
use megastream::flowstream::{Flowstream, FlowstreamConfig};

use crate::common::{
    check_replay, emit_generate, emit_overhead, emit_query_latency, exported, finish_trace,
    generate, note_rates, query_traced, records_per_s, repeat_setup, replay_untraced, state_bytes,
    Counts, QueryTimes, RunConfig, TierDir, TracedIngest, Tracing, E14_QUERIES, MIN_QUERIES,
    MIN_REPLAYS, PARALLELISM,
};
use crate::probes::{self, RegionShape};
use crate::report::{median, Report, Samples};
use crate::spans::Spans;

/// Size of the `ingest` workload.
#[derive(Debug, Clone)]
pub struct IngestShape {
    /// Regions.
    pub regions: usize,
    /// Routers per region.
    pub routers: usize,
    /// Trace rate.
    pub flows_per_sec: f64,
    /// Trace length in simulated seconds.
    pub secs: u64,
    /// Passes over the E14 query set after each replay.
    pub query_passes: usize,
}

/// The benchmarked shape: 600k records, ten 60 s epochs.
pub const STANDARD: IngestShape = IngestShape {
    regions: 2,
    routers: 4,
    flows_per_sec: 1000.0,
    secs: 600,
    query_passes: 5,
};

fn config() -> FlowstreamConfig {
    FlowstreamConfig {
        parallelism: PARALLELISM,
        ..Default::default()
    }
}

/// What must repeat exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Work counters (query costs summed over the first query pass).
    pub counts: Counts,
    /// Answers of the first query pass.
    pub answers: Vec<QueryResult>,
    /// `state_bytes` after `finish()`.
    pub state_bytes: u64,
}

/// One replay and its query passes.
pub struct Pass {
    /// The deterministic part.
    pub outcome: Outcome,
    /// Seconds inside ingest and finish calls, per epoch.
    pub epoch_secs: Vec<f64>,
    /// Latency of every query.
    pub query_ns: Vec<u64>,
    /// Sealed segment bytes per record.
    pub cold_bytes_per_record: f64,
    /// The summaries the regions exported.
    pub exported: Vec<StoredSummary>,
}

/// Replays `trace` into a fresh deployment, then runs the query passes.
/// Untraced, only whole stretches of calls are timed.
pub fn replay(
    shape: &IngestShape,
    trace: &[FlowRecord],
    cfg: &RunConfig,
    report: &mut Report,
    mut tracing: Option<Tracing<'_>>,
) -> Result<Pass, String> {
    let tier = TierDir::fresh(&cfg.work_dir, "ingest").map_err(|e| e.to_string())?;
    let mut fs = Flowstream::new(shape.regions, shape.routers, config());
    tier.attach(&mut fs)?;
    let epoch_secs = match tracing.as_mut() {
        None => replay_untraced(&mut fs, trace, config().epoch_len),
        Some(tr) => {
            let root = tr.spans.root("run.ingest");
            tr.ingest.start_replay();
            for rec in trace {
                tr.ingest.ingest(&mut fs, rec, tr.spans, root);
            }
            let epoch_secs = tr.ingest.finish(&mut fs, tr.spans, root);
            let fsck = tr.spans.child(root, "storage.fsck");
            check_replay(report, &fs, &tier, trace.len());
            tr.spans.end(fsck);
            tr.spans.end(root);
            epoch_secs
        }
    };
    if tracing.is_none() {
        check_replay(report, &fs, &tier, trace.len());
    }
    // The region-0 total is known from the trace: packets of the records
    // round-robin sent to region 0.
    let slots = shape.regions * shape.routers;
    let region0_packets: u64 = trace
        .iter()
        .enumerate()
        .filter(|(i, _)| i % slots < shape.routers)
        .map(|(_, r)| r.packets)
        .sum();
    let mut counts = Counts::of(&fs, &tier);
    let mut answers: Vec<QueryResult> = Vec::new();
    let mut query_ns = Vec::new();
    for pass in 0..shape.query_passes {
        for (i, text) in E14_QUERIES.iter().enumerate() {
            let t = Instant::now();
            let result = match tracing.as_mut() {
                None => fs.query(text).map_err(|e| format!("{text}: {e}")),
                Some(tr) => {
                    let root = tr.spans.root("run.query");
                    let r = query_traced(&fs, text, tr.queries, tr.spans, root);
                    tr.spans.end(root);
                    r
                }
            };
            query_ns.push(t.elapsed().as_nanos() as u64);
            let Ok(result) = result.map_err(|e| report.check(false, || e)) else {
                continue;
            };
            if pass == 0 {
                if i == 8 {
                    let total = result.rows.first().map_or(0, |r| r.score);
                    report.check(total == region0_packets, || {
                        format!("region-0 total {total}, trace sent {region0_packets} packets")
                    });
                }
                counts.add_cost(&result.cost);
                answers.push(result);
            } else {
                report.check(answers.get(i) == Some(&result), || {
                    format!("{text}: answer changed between passes")
                });
            }
        }
    }
    Ok(Pass {
        outcome: Outcome {
            state_bytes: state_bytes(&fs),
            counts,
            answers,
        },
        epoch_secs,
        query_ns,
        cold_bytes_per_record: tier.sealed_bytes() as f64 / trace.len().max(1) as f64,
        exported: exported(&fs),
    })
}

/// Runs the workload for `cfg.seconds`, at least [`MIN_REPLAYS`] replays
/// and at least [`MIN_QUERIES`] queries. In the traced run, replays
/// alternate untraced and traced. Every replay must match the first.
pub fn run(cfg: &RunConfig, shape: &IngestShape) -> Result<Report, String> {
    let mut report = Report::default();
    let (trace, gen_secs) =
        repeat_setup(|_| generate(cfg.seed, shape.flows_per_sec, shape.secs, Vec::new()));
    let mut spans = Spans::new(cfg.trace);
    let mut ingest_times = TracedIngest::new(config().epoch_len);
    let mut query_times = QueryTimes::default();
    // Index 0: untraced replays, index 1: traced ones.
    let mut replays: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    let mut latency: [Samples; 2] = [Samples::default(), Samples::default()];
    let mut first: Option<Pass> = None;
    let start = Instant::now();
    for i in 0.. {
        let traced = cfg.trace && i % 2 == 1;
        let tracing = traced.then_some(Tracing {
            ingest: &mut ingest_times,
            queries: &mut query_times,
            spans: &mut spans,
        });
        let mut pass = replay(shape, &trace, cfg, &mut report, tracing)?;
        let k = usize::from(traced);
        replays[k].push(std::mem::take(&mut pass.epoch_secs));
        for &ns in &pass.query_ns {
            latency[k].push(ns);
        }
        match &first {
            None => first = Some(pass),
            Some(f) => {
                report.check(f.outcome == pass.outcome, || {
                    format!("replay {i} differs from the first")
                });
            }
        }
        let queries = latency[0].len() + latency[1].len();
        let done = start.elapsed().as_secs_f64() >= cfg.seconds
            && queries >= MIN_QUERIES
            && i + 1 >= MIN_REPLAYS;
        if done {
            break;
        }
    }
    let first = first.ok_or("no replay ran")?;
    report.note(format!(
        "ingest: {} records per replay, {} replays",
        trace.len(),
        replays[0].len() + replays[1].len()
    ));
    if cfg.trace {
        emit_generate(&mut report, &gen_secs, trace.len());
        ingest_times.emit(&mut report);
        query_times.emit(&mut report);
        first.outcome.counts.emit(&mut report);
        probes::run(
            &RegionShape::of(&config(), shape.regions, shape.routers, None),
            &trace,
            &first.exported,
            &cfg.work_dir,
            &mut report,
            &mut spans,
        );
        emit_overhead(&mut report, trace.len(), &replays, &latency);
        finish_trace(&mut report, &spans, cfg, "ingest");
    } else {
        report.metric("setup_s", median(&gen_secs), "s");
        note_rates(&mut report, trace.len(), &replays[0]);
        let rate = records_per_s(trace.len(), &replays[0]);
        report.metric("records_per_s", rate, "1/s");
        emit_query_latency(&mut report, &latency[0]);
        report.metric("state_bytes", first.outcome.state_bytes as f64, "B");
        report.metric("cold_bytes_per_record", first.cold_bytes_per_record, "B");
    }
    Ok(report)
}
