//! `live`: the network-monitoring scenario, scaled up, with a dashboard
//! reading while the deployment writes.
//!
//! A 2-region × 4-router deployment with 10 s epochs and the
//! `dst_preserving` schema ingests a seeded 1000 flows/s trace carrying a
//! 60 s, 2000 flows/s DDoS on 100.64.0.1:53. Each region store holds a
//! `FlowScoreAbove` trigger on the victim (10 s window); a seeded fault plan
//! takes region 1's uplink down for a stretch of the run; an `OnSeal` cold
//! tier journals everything. From t = 60 s a dashboard query runs every 2
//! simulated seconds over the last 60 s, cycling TOPK, HHH and a grouped
//! QUERY under `DegradationPolicy::Partial`. Against `ingest` this takes 6×
//! more rotations, exports and index inserts, the export retry/park/flush
//! path, trigger evaluation, and narrow-window reads interleaved with
//! writes to a growing index.

use std::time::Instant;

use megastream::datastore::summary::StoredSummary;
use megastream::datastore::trigger::TriggerCondition;
use megastream::flow::addr::Ipv4Addr;
use megastream::flow::key::FlowKey;
use megastream::flow::mask::GeneralizationSchema;
use megastream::flow::record::FlowRecord;
use megastream::flow::score::Popularity;
use megastream::flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream::flowdb::QueryResult;
use megastream::flowstream::{DegradationPolicy, Flowstream, FlowstreamConfig};
use megastream::netsim::FaultPlan;
use megastream::workloads::netflow::TrafficEvent;

use crate::common::{
    check_replay, emit_generate, emit_overhead, emit_query_latency, exported, finish_trace,
    generate, note_rates, query_traced, records_per_s, repeat_setup, state_bytes, Counts,
    EpochClock, QueryTimes, RunConfig, TierDir, TracedIngest, Tracing, MIN_REPLAYS, PARALLELISM,
};
use crate::probes::{self, RegionShape};
use crate::report::{median, Report, Samples};
use crate::spans::{SpanId, Spans};

/// Size of the `live` workload.
#[derive(Debug, Clone)]
pub struct LiveShape {
    /// Baseline trace rate.
    pub flows_per_sec: f64,
    /// Extra rate of the attack.
    pub attack_flows_per_sec: f64,
}

/// The benchmarked shape.
pub const STANDARD: LiveShape = LiveShape {
    flows_per_sec: 1000.0,
    attack_flows_per_sec: 2000.0,
};

const REGIONS: usize = 2;
const ROUTERS: usize = 4;
/// Trace length: 270 dashboard slots after the first minute.
const TRACE_SECS: u64 = 600;
const ATTACK_SECS: u64 = 60;
const DASHBOARD_FROM: u64 = 60;
const DASHBOARD_EVERY: u64 = 2;
const DASHBOARD_WINDOW: u64 = 60;
const TRIGGER_WINDOW: TimeDelta = TimeDelta::from_secs(10);
const TRIGGER_COOLDOWN: TimeDelta = TimeDelta::from_secs(10);

fn victim() -> Ipv4Addr {
    Ipv4Addr::from_octets([100, 64, 0, 1])
}

fn config() -> FlowstreamConfig {
    FlowstreamConfig {
        epoch_len: TimeDelta::from_secs(10),
        schema: GeneralizationSchema::dst_preserving(),
        degradation: DegradationPolicy::Partial,
        parallelism: PARALLELISM,
        ..Default::default()
    }
}

/// When the attack and the outage happen, drawn from the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// The attack's window.
    pub attack: TimeWindow,
    /// Region 1's uplink is down over `[outage.0, outage.1)`.
    pub outage: (Timestamp, Timestamp),
}

/// splitmix64: spreads consecutive seeds over the schedule.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Schedule {
    /// The attack starts in `[120, 420)` s; the outage starts in
    /// `[150, 350)` s and lasts 60 to 120 s, so its parked summaries flush
    /// well before the trace ends.
    pub fn of(seed: u64) -> Self {
        let mut x = seed;
        let attack_start = 120 + mix(&mut x) % 300;
        let outage_start = 150 + mix(&mut x) % 200;
        let outage_len = 60 + mix(&mut x) % 61;
        Schedule {
            attack: TimeWindow::starting_at(
                Timestamp::from_secs(attack_start),
                TimeDelta::from_secs(ATTACK_SECS),
            ),
            outage: (
                Timestamp::from_secs(outage_start),
                Timestamp::from_secs(outage_start + outage_len),
            ),
        }
    }
}

fn trigger(shape: &LiveShape) -> TriggerCondition {
    // A region sees half the attack, ~10 packets a flow: the threshold is a
    // tenth of the attack's packets in one window, far above the baseline.
    let key = FlowKey::root().with_dst_prefix(
        format!("{}/32", victim())
            .parse()
            .expect("a /32 prefix parses"),
    );
    TriggerCondition::FlowScoreAbove {
        key,
        threshold: Popularity::new((shape.attack_flows_per_sec * 5.0) as u64),
        window_len: TRIGGER_WINDOW,
    }
}

/// The seeded trace with its attack.
pub fn trace(shape: &LiveShape, seed: u64) -> Vec<FlowRecord> {
    generate(
        seed,
        shape.flows_per_sec,
        TRACE_SECS,
        vec![TrafficEvent::Ddos {
            window: Schedule::of(seed).attack,
            target: victim(),
            target_port: 53,
            flows_per_sec: shape.attack_flows_per_sec,
        }],
    )
}

/// The dashboard query due at `due` seconds, the `k`-th issued. The HHH
/// threshold is 50 packets per baseline flow per second: about 1% of a
/// window's traffic.
fn dashboard_query(shape: &LiveShape, k: usize, due: u64) -> String {
    let (from, to) = (due - DASHBOARD_WINDOW, due);
    let hhh = (shape.flows_per_sec * 50.0) as u64;
    match k % 3 {
        0 => format!("SELECT TOPK 5 FROM [{from}, {to})"),
        1 => format!("SELECT HHH {hhh} FROM [{from}, {to})"),
        _ => format!("SELECT QUERY FROM [{from}, {to}) GROUP BY location"),
    }
}

/// Whether any indexed summary overlaps `window`: before the first
/// rotation a query would fail with `NoMatchingSummaries`.
fn window_indexed(fs: &Flowstream, window: TimeWindow) -> bool {
    let db = fs.flowdb();
    db.locations()
        .iter()
        .any(|l| db.windows_of(l).iter().any(|w| w.overlaps(window)))
}

/// What must repeat exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Work counters (query costs summed over every dashboard query).
    pub counts: Counts,
    /// Every dashboard answer.
    pub answers: Vec<QueryResult>,
    /// `state_bytes` after `finish()`.
    pub state_bytes: u64,
}

/// One run of the scenario.
pub struct Pass {
    /// The deterministic part.
    pub outcome: Outcome,
    /// Seconds inside ingest and finish calls, per epoch.
    pub epoch_secs: Vec<f64>,
    /// Latency of every dashboard query.
    pub query_ns: Vec<u64>,
    /// Sealed segment bytes per record.
    pub cold_bytes_per_record: f64,
    /// The summaries the regions exported.
    pub exported: Vec<StoredSummary>,
}

/// Runs the scenario once on a fresh deployment and checks its outputs.
pub fn pass(
    shape: &LiveShape,
    seed: u64,
    trace: &[FlowRecord],
    cfg: &RunConfig,
    report: &mut Report,
    mut tracing: Option<Tracing<'_>>,
) -> Result<Pass, String> {
    let schedule = Schedule::of(seed);
    let tier = TierDir::fresh(&cfg.work_dir, "live").map_err(|e| e.to_string())?;
    let mut fs = Flowstream::new(REGIONS, ROUTERS, config());
    tier.attach(&mut fs)?;
    for g in 0..REGIONS {
        fs.region_store_mut(g)
            .install_trigger("perfbench", trigger(shape), TRIGGER_COOLDOWN);
    }
    let mut plan = FaultPlan::seeded(seed);
    plan.link_down(
        fs.region_node(1),
        fs.noc_node(),
        schedule.outage.0,
        schedule.outage.1,
    );
    fs.network_mut().install_faults(plan);

    let root = match tracing.as_mut() {
        Some(tr) => {
            tr.ingest.start_replay();
            tr.spans.root("run.live")
        }
        None => SpanId::default(),
    };
    let mut clock = EpochClock::new(config().epoch_len);
    let mut query_ns = Vec::new();
    let mut answers = Vec::new();
    let mut partial = 0;
    let mut due = DASHBOARD_FROM;
    clock.resume();
    for rec in trace {
        while rec.ts >= Timestamp::from_secs(due) {
            match tracing.as_mut() {
                Some(tr) => tr.ingest.pause(tr.spans, root),
                None => clock.pause(),
            }
            let window = TimeWindow::new(
                Timestamp::from_secs(due - DASHBOARD_WINDOW),
                Timestamp::from_secs(due),
            );
            if window_indexed(&fs, window) {
                let text = dashboard_query(shape, answers.len(), due);
                let unreachable = fs.unreachable_locations();
                let t = Instant::now();
                let result = match tracing.as_mut() {
                    None => fs.query(&text).map_err(|e| format!("{text}: {e}")),
                    Some(tr) => {
                        let q = tr.spans.child(root, "run.query");
                        let r = query_traced(&fs, &text, tr.queries, tr.spans, q);
                        tr.spans.end(q);
                        r
                    }
                };
                query_ns.push(t.elapsed().as_nanos() as u64);
                if let Some(answer) = check_answer(report, &text, result, &unreachable) {
                    if let Some(tr) = tracing.as_mut() {
                        let check = tr.spans.child(root, "check.query");
                        let plain = fs.query(&text).map_err(|e| e.to_string());
                        tr.spans.end(check);
                        report.check(plain.as_ref() == Ok(&answer), || {
                            format!("{text}: traced answer differs from Flowstream::query")
                        });
                    }
                    partial += usize::from(!answer.completeness.is_complete());
                    answers.push(answer);
                }
            }
            due += DASHBOARD_EVERY;
            if tracing.is_none() {
                clock.resume();
            }
        }
        match tracing.as_mut() {
            Some(tr) => tr.ingest.ingest(&mut fs, rec, tr.spans, root),
            None => {
                clock.before(rec.ts);
                fs.ingest_round_robin(rec);
            }
        }
    }
    let epoch_secs = match tracing.as_mut() {
        Some(tr) => {
            let epoch_secs = tr.ingest.finish(&mut fs, tr.spans, root);
            let fsck = tr.spans.child(root, "storage.fsck");
            check_replay(report, &fs, &tier, trace.len());
            tr.spans.end(fsck);
            tr.spans.end(root);
            epoch_secs
        }
        None => {
            fs.finish();
            let epoch_secs = clock.into_units();
            check_replay(report, &fs, &tier, trace.len());
            epoch_secs
        }
    };
    check_scenario(report, &fs, &schedule, partial);
    let mut counts = Counts::of(&fs, &tier);
    for answer in &answers {
        counts.add_cost(&answer.cost);
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

/// Checks one dashboard answer: no error, rows present, and partial only
/// while region 1 is unreachable.
fn check_answer(
    report: &mut Report,
    text: &str,
    result: Result<QueryResult, String>,
    unreachable: &std::collections::BTreeSet<String>,
) -> Option<QueryResult> {
    let answer = match result {
        Ok(a) => a,
        Err(e) => {
            report.check(false, || e);
            return None;
        }
    };
    let partial = !answer.completeness.is_complete();
    let ok = !answer.rows.is_empty() && (!partial || unreachable.contains("region-1"));
    report.check(ok, || {
        format!(
            "{text}: {} rows, completeness {}, unreachable {unreachable:?}",
            answer.rows.len(),
            answer.completeness
        )
    });
    Some(answer)
}

/// Checks the scenario's outcome after `finish()`: each region's trigger
/// fired, only during the attack; the outage parked summaries, all of which
/// flushed after recovery with none dropped; some answers were partial.
fn check_scenario(report: &mut Report, fs: &Flowstream, schedule: &Schedule, partial: usize) {
    for g in 0..REGIONS {
        let fired = fs.region_store(g).triggers().fired();
        report.check(fired > 0, || format!("region-{g}: trigger never fired"));
    }
    let attack = schedule.attack;
    let stray = fs
        .trigger_log()
        .iter()
        .filter(|e| !attack.contains(e.at))
        .count();
    report.check(stray == 0, || {
        format!("{stray} trigger firings outside the attack {attack:?}")
    });
    let stats = fs.stats();
    let parked: usize = (0..REGIONS).map(|g| fs.spilled(g)).sum();
    report.check(
        stats.spilled_summaries > 0
            && stats.flushed_summaries > 0
            && stats.dropped_summaries == 0
            && parked == 0,
        || {
            format!(
                "spill: {} parked, {} flushed, {} dropped, {parked} still parked",
                stats.spilled_summaries, stats.flushed_summaries, stats.dropped_summaries
            )
        },
    );
    report.check(partial > 0, || {
        "no partial answer during the outage".to_owned()
    });
}

/// Runs the scenario for `cfg.seconds` and at least [`MIN_REPLAYS`]
/// passes. In the traced run, passes alternate untraced and traced. Every
/// pass must match the first.
pub fn run(cfg: &RunConfig, shape: &LiveShape) -> Result<Report, String> {
    let mut report = Report::default();
    let (trace, gen_secs) = repeat_setup(|_| trace(shape, cfg.seed));
    let mut spans = Spans::new(cfg.trace);
    let mut ingest_times = TracedIngest::new(config().epoch_len);
    let mut query_times = QueryTimes::default();
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
        let mut pass = pass(shape, cfg.seed, &trace, cfg, &mut report, tracing)?;
        let k = usize::from(traced);
        replays[k].push(std::mem::take(&mut pass.epoch_secs));
        for &ns in &pass.query_ns {
            latency[k].push(ns);
        }
        match &first {
            None => first = Some(pass),
            Some(f) => {
                report.check(f.outcome == pass.outcome, || {
                    format!("pass {i} differs from the first")
                });
            }
        }
        let done = start.elapsed().as_secs_f64() >= cfg.seconds && i + 1 >= MIN_REPLAYS;
        if done {
            break;
        }
    }
    let first = first.ok_or("no pass ran")?;
    let schedule = Schedule::of(cfg.seed);
    report.note(format!(
        "live: {} records, {} dashboard queries per pass, attack {:?}, outage {:?}",
        trace.len(),
        first.outcome.answers.len(),
        schedule.attack,
        schedule.outage
    ));
    if cfg.trace {
        emit_generate(&mut report, &gen_secs, trace.len());
        ingest_times.emit(&mut report);
        query_times.emit(&mut report);
        first.outcome.counts.emit(&mut report);
        let config = config();
        let region = RegionShape::of(
            &config,
            REGIONS,
            ROUTERS,
            Some((trigger(shape), TRIGGER_COOLDOWN)),
        );
        probes::run(
            &region,
            &trace,
            &first.exported,
            &cfg.work_dir,
            &mut report,
            &mut spans,
        );
        emit_overhead(&mut report, trace.len(), &replays, &latency);
        finish_trace(&mut report, &spans, cfg, "live");
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
