//! E14 — parallel data plane scaling: grouped query fan-out latency and
//! hierarchy pump throughput as a function of the worker count, against
//! the `Parallelism::Sequential` oracle.
//!
//! An 8-region Flowstream deployment (9 indexed locations with the NOC)
//! answers the E14 grouped query under 1/2/4/8 workers, and the whole
//! canonical query set under `Sequential` and `Threads(2)`: first the cold
//! pass over a fresh deployment, which builds the per-location rollups it
//! reads, then warm passes, each with the summaries it merged; a flat
//! 8-leaf store hierarchy rotates one epoch per setting. The report prints the latency tables with a speedup
//! column — `tests/parallel_e2e.rs` proves the answers themselves are
//! identical, this experiment measures what the parallelism buys. The
//! target figure is ≥2x fan-out speedup at 4 threads.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream::hierarchy::StoreHierarchy;
use megastream::Parallelism;
use megastream_bench::{flow_trace, rule};
use megastream_datastore::store::DataStore;
use megastream_datastore::{AggregatorSpec, StorageStrategy};
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_flowtree::FlowtreeConfig;
use megastream_netsim::topology::{LinkSpec, Network, NodeKind};
use megastream_telemetry::Telemetry;

const REGIONS: usize = 8;
const ROUTERS: usize = 2;
const RUN_SECS: u64 = 300;
/// The E14 grouped query: one merge + operator run per location, the
/// fan-out shape that parallelizes across workers.
const QUERY: &str = "SELECT TOPK 3 FROM ALL GROUP BY location";

/// The canonical query set (EXPERIMENTS.md §E14, mirrored verbatim in
/// `tests/parallel_e2e.rs`).
const CANONICAL: [&str; 10] = [
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

const SETTINGS: [Parallelism; 4] = [
    Parallelism::Sequential,
    Parallelism::Threads(2),
    Parallelism::Threads(4),
    Parallelism::Threads(8),
];

/// An ingested 8-region deployment with ten 30 s epochs per region store.
fn loaded_deployment() -> Flowstream {
    let mut fs = Flowstream::new(
        REGIONS,
        ROUTERS,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    );
    for rec in flow_trace(14, 400.0, RUN_SECS, 1.1) {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    fs
}

/// Median wall time of `reps` runs of `f`, in microseconds.
fn time_micros<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_micros() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn query_scaling_report(fs: &mut Flowstream) {
    rule("E14 — grouped query fan-out latency vs workers (8 regions + NOC)");
    // Wall-clock speedup is bounded by the host: on a single-core runner
    // every setting degenerates to ~1.0 and Threads(n) only adds spawn
    // overhead. The equivalence suite, not this table, proves correctness.
    println!(
        "host cores: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "{:>12} {:>12} {:>8}",
        "parallelism", "latency_us", "speedup"
    );
    let mut sequential_us = 0u64;
    for par in SETTINGS {
        fs.set_parallelism(par);
        let us = time_micros(15, || fs.query(QUERY).expect("grouped query"));
        if par == Parallelism::Sequential {
            sequential_us = us;
        }
        println!(
            "{:>12} {:>12} {:>8.2}",
            par.to_string(),
            us,
            sequential_us as f64 / us.max(1) as f64
        );
    }
    fs.set_parallelism(Parallelism::default());
}

/// One canonical pass: the summaries its plans read
/// (`QueryCost::summaries`, identical for every setting and for cold and
/// warm rollups).
fn canonical_pass(fs: &Flowstream) -> usize {
    CANONICAL
        .iter()
        .map(|q| fs.query(q).expect("canonical query").cost.summaries)
        .sum()
}

/// Entries folded into rollups so far.
fn folds(tel: &Telemetry) -> u64 {
    tel.snapshot()
        .counter("flowdb.rollup.folds_total")
        .unwrap_or(0)
}

/// The canonical set per setting: the cold pass, the first over a fresh
/// deployment, which builds the rollups (median time of 3 deployments),
/// then the warm passes over the last of them (median of 5). Each row
/// reports the summaries a pass merged and the entries it folded into
/// rollups.
fn canonical_set_report() {
    rule("E14 — canonical query set: cold and warm passes vs workers");
    println!(
        "{:>12} {:>5} {:>10} {:>6} {:>12} {:>8}",
        "parallelism", "pass", "summaries", "folds", "pass_us", "speedup"
    );
    let mut sequential_us = [0u64; 2];
    for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
        let mut cold_us = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let tel = Telemetry::new();
            let mut fs = loaded_deployment().with_telemetry(&tel);
            fs.set_parallelism(par);
            let start = Instant::now();
            let summaries = canonical_pass(&fs);
            cold_us.push(start.elapsed().as_micros() as u64);
            let cold = (summaries, folds(&tel));
            last = Some((fs, tel, cold));
        }
        cold_us.sort_unstable();
        let (fs, tel, cold) = last.expect("three cold passes ran");
        let built = folds(&tel);
        let warm = (canonical_pass(&fs), folds(&tel) - built);
        let warm_us = time_micros(5, || canonical_pass(&fs));
        let rows = [("cold", cold, cold_us[1]), ("warm", warm, warm_us)];
        for (i, (pass, (summaries, folds), us)) in rows.into_iter().enumerate() {
            if par == Parallelism::Sequential {
                sequential_us[i] = us;
            }
            println!(
                "{:>12} {:>5} {:>10} {:>6} {:>12} {:>8.2}",
                par.to_string(),
                pass,
                summaries,
                folds,
                us,
                sequential_us[i] as f64 / us.max(1) as f64
            );
        }
    }
}

/// A flat hierarchy: one root store with `REGIONS` leaf stores, each leaf
/// loaded with one epoch of flows, all due for rotation at `pump_at`.
fn loaded_hierarchy(par: Parallelism) -> (StoreHierarchy, Timestamp) {
    let mut net = Network::new();
    let root_n = net.add_node("root", NodeKind::DataStore);
    let mut leaves = Vec::new();
    for g in 0..REGIONS {
        let leaf_n = net.add_node(format!("leaf-{g}"), NodeKind::DataStore);
        net.connect(leaf_n, root_n, LinkSpec::wan_100m());
        leaves.push(leaf_n);
    }
    let mut h = StoreHierarchy::new(net);
    h.set_parallelism(par);
    let store = |name: &str| {
        let mut s = DataStore::new(
            name,
            StorageStrategy::RoundRobin {
                budget_bytes: 64 << 20,
            },
            TimeDelta::from_secs(60),
        );
        s.install_aggregator(AggregatorSpec::Flowtree(
            FlowtreeConfig::default().with_capacity(8192),
        ));
        s
    };
    let root = h.add_root(store("root"), root_n);
    let ids: Vec<_> = leaves
        .iter()
        .enumerate()
        .map(|(g, &n)| h.add_child(store(&format!("leaf-{g}")), n, root))
        .collect();
    let trace = flow_trace(15, 200.0, 59, 1.1);
    for (g, id) in ids.iter().enumerate() {
        let stream = format!("router-{g}").as_str().into();
        for rec in &trace {
            h.ingest_flow(*id, &stream, rec, rec.ts);
        }
    }
    (h, Timestamp::from_secs(60))
}

fn pump_scaling_report() {
    rule("E14 — hierarchy pump wall time vs workers (8 sibling leaves)");
    println!(
        "{:>12} {:>12} {:>10} {:>8}",
        "parallelism", "pump_us", "exported", "speedup"
    );
    let mut sequential_us = 0u64;
    for par in SETTINGS {
        // The pump consumes the rotation, so each sample gets a fresh
        // hierarchy; only the pump itself is timed.
        let mut samples = Vec::new();
        let mut exported = 0;
        for _ in 0..5 {
            let (mut h, at) = loaded_hierarchy(par);
            let start = Instant::now();
            let stats = h.pump(at).expect("pump succeeds");
            samples.push(start.elapsed().as_micros() as u64);
            exported = stats.exported_summaries;
        }
        samples.sort_unstable();
        let us = samples[samples.len() / 2];
        if par == Parallelism::Sequential {
            sequential_us = us;
        }
        println!(
            "{:>12} {:>12} {:>10} {:>8.2}",
            par.to_string(),
            us,
            exported,
            sequential_us as f64 / us.max(1) as f64
        );
    }
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let mut fs = loaded_deployment();
    query_scaling_report(&mut fs);
    canonical_set_report();
    pump_scaling_report();

    let mut group = c.benchmark_group("e14_parallel_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for par in [Parallelism::Sequential, Parallelism::Threads(4)] {
        fs.set_parallelism(par);
        group.bench_function(format!("grouped_query_{par}"), |b| {
            b.iter(|| fs.query(QUERY).expect("grouped query"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
