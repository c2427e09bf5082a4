//! `query`: one closed-loop client cycling the E14 canonical query set.
//!
//! Set-up loads a 4-region × 2-router deployment with 30 s epochs from a
//! seeded 400 flows/s trace of 300 s (an `OnSeal` cold tier journals the
//! load), then answers every E14 query once under
//! `Parallelism::Sequential` as the reference. The measured phase issues
//! the ten queries in their fixed order, each after the previous answer
//! arrived, and compares every answer, `QueryCost` work fields included,
//! with the reference. FlowDB fan-out/merge and the Flowtree operators do
//! almost all the work; ingest happens only in set-up.

use std::time::Instant;

use megastream::flow::record::FlowRecord;
use megastream::flow::time::TimeDelta;
use megastream::flowdb::QueryResult;
use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream::Parallelism;

use crate::common::{
    check_replay, emit_generate, emit_overhead, emit_query_latency, exported, finish_trace,
    generate, note_rates, query_traced, records_per_s, repeat_setup, replay_untraced, state_bytes,
    Counts, QueryTimes, RunConfig, TierDir, TracedIngest, E14_QUERIES, MIN_QUERIES, PARALLELISM,
    SETUP_REPEATS,
};
use crate::probes::{self, RegionShape};
use crate::report::{median, Report, Samples};
use crate::spans::Spans;

/// Size of the `query` workload's deployment.
#[derive(Debug, Clone)]
pub struct QueryShape {
    /// Regions.
    pub regions: usize,
    /// Routers per region.
    pub routers: usize,
    /// Trace rate.
    pub flows_per_sec: f64,
    /// Trace length in simulated seconds.
    pub secs: u64,
}

/// The benchmarked shape: 120k records, 42 indexed summaries.
pub const STANDARD: QueryShape = QueryShape {
    regions: 4,
    routers: 2,
    flows_per_sec: 400.0,
    secs: 300,
};

fn config() -> FlowstreamConfig {
    FlowstreamConfig {
        epoch_len: TimeDelta::from_secs(30),
        parallelism: PARALLELISM,
        ..Default::default()
    }
}

/// A loaded deployment with its reference answers.
pub struct Loaded {
    /// The trace it was loaded from.
    pub trace: Vec<FlowRecord>,
    /// The deployment.
    pub fs: Flowstream,
    /// Its cold tier.
    pub tier: TierDir,
    /// E14 answers computed under `Parallelism::Sequential`.
    pub reference: Vec<QueryResult>,
    /// Seconds spent generating the trace.
    pub gen_secs: f64,
    /// Seconds inside ingest and finish calls, per epoch.
    pub epoch_secs: Vec<f64>,
}

/// Generates the trace, loads the deployment and computes the reference.
/// With `timing`, every ingest call of the load is timed.
pub fn load(
    shape: &QueryShape,
    cfg: &RunConfig,
    report: &mut Report,
    timing: Option<(&mut TracedIngest, &mut Spans)>,
) -> Result<Loaded, String> {
    let t = Instant::now();
    let trace = generate(cfg.seed, shape.flows_per_sec, shape.secs, Vec::new());
    let gen_secs = t.elapsed().as_secs_f64();
    let tier = TierDir::fresh(&cfg.work_dir, "query").map_err(|e| e.to_string())?;
    let mut fs = Flowstream::new(shape.regions, shape.routers, config());
    tier.attach(&mut fs)?;
    let epoch_secs = match timing {
        None => replay_untraced(&mut fs, &trace, config().epoch_len),
        Some((timer, spans)) => {
            let root = spans.root("run.load");
            timer.start_replay();
            for rec in &trace {
                timer.ingest(&mut fs, rec, spans, root);
            }
            let epoch_secs = timer.finish(&mut fs, spans, root);
            spans.end(root);
            epoch_secs
        }
    };
    check_replay(report, &fs, &tier, trace.len());
    fs.set_parallelism(Parallelism::Sequential);
    let reference = E14_QUERIES
        .iter()
        .map(|q| fs.query(q).map_err(|e| format!("reference {q}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    fs.set_parallelism(PARALLELISM);
    Ok(Loaded {
        trace,
        fs,
        tier,
        reference,
        gen_secs,
        epoch_secs,
    })
}

/// The deterministic counts of a loaded deployment: index, stores, tier,
/// and the reference pass's query costs.
pub fn counts(loaded: &Loaded) -> Counts {
    let mut counts = Counts::of(&loaded.fs, &loaded.tier);
    for answer in &loaded.reference {
        counts.add_cost(&answer.cost);
    }
    counts
}

/// Runs the workload: set-up [`SETUP_REPEATS`] times, then the closed
/// loop for `cfg.seconds` and at least [`MIN_QUERIES`] queries. In the
/// traced run the last load is timed per call and every other pass over
/// the query set is traced.
pub fn run(cfg: &RunConfig, shape: &QueryShape) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Spans::new(cfg.trace);
    let mut ingest_times = TracedIngest::new(config().epoch_len);
    // Index 0: untraced loads, index 1: the traced one.
    let mut loads: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    let mut gen_secs = Vec::new();
    let (loaded, setup_secs) = repeat_setup(|i| {
        let traced = cfg.trace && i + 1 == SETUP_REPEATS;
        let timing = traced.then_some((&mut ingest_times, &mut spans));
        let mut loaded = load(shape, cfg, &mut report, timing);
        if let Ok(l) = &mut loaded {
            loads[usize::from(traced)].push(std::mem::take(&mut l.epoch_secs));
            gen_secs.push(l.gen_secs);
        }
        loaded
    });
    let loaded = loaded?;
    let fs = &loaded.fs;
    let mut query_times = QueryTimes::default();
    // Index 0: untraced queries, index 1: traced ones.
    let mut latency: [Samples; 2] = [Samples::default(), Samples::default()];
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_QUERIES || start.elapsed().as_secs_f64() < cfg.seconds {
        let i = n % E14_QUERIES.len();
        let text = E14_QUERIES[i];
        let traced = cfg.trace && (n / E14_QUERIES.len()) % 2 == 1;
        let t = Instant::now();
        let result = if traced {
            let root = spans.root("run.query");
            let r = query_traced(fs, text, &mut query_times, &mut spans, root);
            spans.end(root);
            r
        } else {
            fs.query(text).map_err(|e| format!("{text}: {e}"))
        };
        latency[usize::from(traced)].push(t.elapsed().as_nanos() as u64);
        report.check(result.as_ref() == Ok(&loaded.reference[i]), || {
            format!("{text}: answer differs from the sequential reference")
        });
        n += 1;
    }
    report.note(format!(
        "query: {} records loaded, {} summaries indexed, {n} queries",
        loaded.trace.len(),
        fs.flowdb().len()
    ));
    if cfg.trace {
        emit_generate(&mut report, &gen_secs, loaded.trace.len());
        ingest_times.emit(&mut report);
        query_times.emit(&mut report);
        counts(&loaded).emit(&mut report);
        probes::run(
            &RegionShape::of(&config(), shape.regions, shape.routers, None),
            &loaded.trace,
            &exported(fs),
            &cfg.work_dir,
            &mut report,
            &mut spans,
        );
        emit_overhead(&mut report, loaded.trace.len(), &loads, &latency);
        finish_trace(&mut report, &spans, cfg, "query");
    } else {
        report.metric("setup_s", median(&setup_secs), "s");
        note_rates(&mut report, loaded.trace.len(), &loads[0]);
        let rate = records_per_s(loaded.trace.len(), &loads[0]);
        report.metric("records_per_s", rate, "1/s");
        emit_query_latency(&mut report, &latency[0]);
        report.metric("state_bytes", state_bytes(fs) as f64, "B");
        report.metric(
            "cold_bytes_per_record",
            loaded.tier.sealed_bytes() as f64 / loaded.trace.len() as f64,
            "B",
        );
    }
    Ok(report)
}
