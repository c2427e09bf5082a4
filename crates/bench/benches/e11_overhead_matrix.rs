//! E11 — the overhead matrix: what each instrumentation sink costs on one
//! workload, and what one scope, metric record or ops-plane frame costs in
//! isolation.
//!
//! The workload is a 2×4 Flowstream deployment ingesting 60k flows (500
//! flows/s for 120 s) and then answering 64 FlowQL queries. Every arm runs
//! it unchanged; only the telemetry handle differs:
//!
//! * `never attached` — no `set_telemetry` call at all;
//! * `disabled` — the null handle attached (the default in production);
//! * `metrics` — a live registry;
//! * `+trace 1/16`, `+trace always` — metrics plus a trace sink sampling
//!   every 16th or every trace root (queries and pumps);
//! * `+profile` — metrics plus a profile sink (every scope, the per-record
//!   `flowstream.ingest` one included, is a call path);
//! * `+ops 1 s` — metrics plus an ops plane ticking at a one-second cadence
//!   of simulated time.
//!
//! Arms run interleaved, one pass of each per round, each round starting
//! at the next arm, so host drift and run order hit every arm alike. The
//! table gives each arm's median with its min–max over the rounds: that
//! range is the run-to-run noise a difference must exceed.
//!
//! Shape expectations (recorded in EXPERIMENTS.md E11): the disabled handle
//! within run-to-run noise of never attached (one `Option` branch per
//! site); metrics a few percent on ingest (two clock reads and a histogram
//! record per ingested record); tracing visible on queries only, scaled by
//! the sampled fraction; profiling the most expensive sink, since every
//! scope formats its path and takes the aggregate's lock; the ops plane
//! scaling with frames, not with ingest volume.
//!
//! `-- --test` runs one round instead of nine, then each routine once.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream::ops::OpsPlane;
use megastream_bench::{flow_trace, rule};
use megastream_flow::record::FlowRecord;
use megastream_flow::time::Timestamp;
use megastream_telemetry::{
    MetricSampler, SamplePolicy, SamplerConfig, Telemetry, LATENCY_MICROS_BOUNDS,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEC: u64 = 1_000_000;
const QUERIES: usize = 64;
const QUERY: &str = "SELECT TOPK 5 FROM ALL WHERE location = \"region-0\"";

/// One arm of the matrix: a fresh handle per pass (`None` = never
/// attached) and whether an ops plane ticks alongside.
struct Arm {
    name: &'static str,
    tel: fn() -> Option<Telemetry>,
    ops: bool,
}

const ARMS: [Arm; 7] = [
    Arm {
        name: "never attached",
        tel: || None,
        ops: false,
    },
    Arm {
        name: "disabled",
        tel: || Some(Telemetry::disabled()),
        ops: false,
    },
    Arm {
        name: "metrics",
        tel: || Some(Telemetry::new()),
        ops: false,
    },
    Arm {
        name: "+trace 1/16",
        tel: || Some(Telemetry::new().with_tracing(SamplePolicy::EveryNth(16))),
        ops: false,
    },
    Arm {
        name: "+trace always",
        tel: || Some(Telemetry::new().with_tracing(SamplePolicy::Always)),
        ops: false,
    },
    Arm {
        name: "+profile",
        tel: || Some(Telemetry::new().with_profiling()),
        ops: false,
    },
    Arm {
        name: "+ops 1 s",
        tel: || Some(Telemetry::new()),
        ops: true,
    },
];

/// What one pass of an arm measured.
struct Pass {
    ingest: Duration,
    queries: Duration,
    /// Spans, profile paths or ops frames the pass left behind.
    recorded: usize,
}

fn run_arm(arm: &Arm, trace: &[FlowRecord]) -> Pass {
    let tel = (arm.tel)();
    let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default());
    if let Some(tel) = &tel {
        fs.set_telemetry(tel);
    }
    let mut ops = match (&tel, arm.ops) {
        (Some(tel), true) => OpsPlane::standard(tel),
        _ => None,
    };
    let start = Instant::now();
    for r in trace {
        fs.ingest_round_robin(r);
        if let Some(ops) = ops.as_mut() {
            ops.tick(r.ts);
        }
    }
    fs.finish();
    let ingest = start.elapsed();
    let start = Instant::now();
    for _ in 0..QUERIES {
        fs.query(QUERY).expect("bench query");
    }
    let queries = start.elapsed();
    let tel = fs.telemetry();
    let recorded = match &ops {
        Some(ops) => ops.sampler().total_frames() as usize,
        None => tel.trace_snapshot().spans.len() + tel.profile_snapshot().activities.len(),
    };
    Pass {
        ingest,
        queries,
        recorded,
    }
}

/// Milliseconds of one measured quantity over the rounds, sorted.
fn millis(passes: &[Pass], of: fn(&Pass) -> Duration) -> Vec<f64> {
    let mut ms: Vec<f64> = passes.iter().map(|p| of(p).as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// `median [min–max]`, and the median's change against `base`'s median.
fn cell(ms: &[f64], base: &[f64]) -> String {
    let median = |v: &[f64]| v[v.len() / 2];
    let (lo, hi) = (ms[0], ms[ms.len() - 1]);
    let pct = (median(ms) / median(base) - 1.0) * 100.0;
    format!("{:>7.1} [{lo:>6.1}–{hi:>6.1}] {pct:>+6.1}%", median(ms))
}

fn matrix_report(rounds: usize) {
    rule("E11 — overhead matrix: 60k-flow 2×4 ingest + 64 queries, per telemetry arm");
    let trace = flow_trace(2026, 500.0, 120, 1.1);
    let mut passes: Vec<Vec<Pass>> = ARMS.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        // Each round starts at the next arm, so no arm always runs first.
        for k in 0..ARMS.len() {
            let a = (round + k) % ARMS.len();
            passes[a].push(run_arm(&ARMS[a], &trace));
        }
    }
    println!("median [min–max] of {rounds} round(s), change of the median vs never attached");
    println!(
        "{:>15} {:>32} {:>32} {:>9}",
        "arm", "ingest ms", "queries ms", "recorded"
    );
    let ingest: Vec<Vec<f64>> = passes.iter().map(|p| millis(p, |p| p.ingest)).collect();
    let queries: Vec<Vec<f64>> = passes.iter().map(|p| millis(p, |p| p.queries)).collect();
    for (a, arm) in ARMS.iter().enumerate() {
        println!(
            "{:>15} {:>32} {:>32} {:>9}",
            arm.name,
            cell(&ingest[a], &ingest[0]),
            cell(&queries[a], &queries[0]),
            passes[a].last().map_or(0, |p| p.recorded),
        );
    }
}

fn bench_overhead(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    matrix_report(if test_mode { 1 } else { 9 });

    let mut group = c.benchmark_group("e11_overhead");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));

    // One scope per sink: the hot-path form (`scope_with`, histogram
    // registered once) nested under a trace root, as inside a query.
    let sinks = [
        ("disabled", Telemetry::disabled()),
        ("metrics", Telemetry::new()),
        ("trace", Telemetry::new().with_tracing(SamplePolicy::Always)),
        ("profile", Telemetry::new().with_profiling()),
    ];
    for (name, tel) in &sinks {
        let hist = tel.histogram("bench.scope.micros", LATENCY_MICROS_BOUNDS);
        group.bench_function(BenchmarkId::new("scope_x1000", name), |b| {
            b.iter(|| {
                let _root = tel.root("bench.root");
                for _ in 0..1000 {
                    black_box(tel.scope_with("bench.scope", &hist).finish());
                }
            });
            tel.clear_traces();
        });
    }

    // Raw metric handles, null vs live: a no-op handle is a branch on a
    // `None`, nothing more.
    for (name, tel) in &sinks[..2] {
        let counter = tel.counter("bench.counter");
        group.bench_function(BenchmarkId::new("counter_inc_x1000", name), |b| {
            b.iter(|| {
                for _ in 0..1000 {
                    black_box(&counter).inc();
                }
            });
        });
        let hist = tel.histogram("bench.hist", LATENCY_MICROS_BOUNDS);
        group.bench_function(BenchmarkId::new("histogram_record_x1000", name), |b| {
            b.iter(|| {
                for i in 0..1000u64 {
                    black_box(&hist).record(i * 17 % 5_000);
                }
            });
        });
    }

    // The ops plane over a populated registry: one frame, and the cadence
    // gate paid on every ingest that crosses no boundary.
    let tel = Telemetry::new();
    let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default()).with_telemetry(&tel);
    for r in flow_trace(7, 500.0, 60, 1.1) {
        fs.ingest_round_robin(&r);
    }
    fs.finish();
    let registry = Arc::clone(tel.registry().expect("telemetry is enabled"));
    println!("registry series sampled below: {}", registry.len());
    group.bench_function("sampler_frame", |b| {
        let mut s = MetricSampler::new(Arc::clone(&registry), SamplerConfig::default());
        let mut now = 0u64;
        b.iter(|| {
            now += SEC;
            s.force_sample(black_box(now));
        });
    });
    group.bench_function("ops_tick_gated_x1000", |b| {
        let mut ops = OpsPlane::standard(&tel).expect("telemetry is enabled");
        ops.force_tick(Timestamp::from_micros(SEC));
        b.iter(|| {
            for _ in 0..1000 {
                black_box(ops.tick(Timestamp::from_micros(SEC + 1)));
            }
        });
    });

    // The incremental store account vs the deep recompute it replaces at
    // every rotation.
    let store = fs.region_store(0);
    group.bench_function("store_accounted_bytes", |b| {
        b.iter(|| black_box(store).accounted_bytes());
    });
    group.bench_function("store_deep_bytes_recompute", |b| {
        b.iter(|| black_box(store).deep_bytes());
    });
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
