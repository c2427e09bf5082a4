//! Quickstart: build a Flowtree from a synthetic trace and run all eight
//! Table II operators.
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --example quickstart -- --stats      # + telemetry walkthrough
//! cargo run --example quickstart -- --trace      # + causal span trees
//! cargo run --example quickstart -- --threads 4  # parallel query fan-out
//! cargo run --example quickstart -- --health     # + ops-plane health report
//! cargo run --example quickstart -- --watch      # + live dashboard frames
//! cargo run --example quickstart -- --profile    # + flamegraph profile
//! cargo run --example quickstart -- --durable target/quickstart-store
//!                                                # + checksummed cold tier
//! ```

use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream::ops::OpsPlane;
use megastream::Parallelism;
use megastream_flow::key::FlowKey;
use megastream_flow::score::Popularity;
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_flowtree::{Flowtree, FlowtreeConfig};
use megastream_telemetry::{SamplePolicy, Telemetry};
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

/// `--threads N` from the command line, or the `Auto` default.
fn parallelism_flag() -> Parallelism {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--threads") {
        Some(i) => {
            let n = args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("--threads needs a positive number, e.g. --threads 4");
                    std::process::exit(2);
                });
            Parallelism::Threads(n)
        }
        None => Parallelism::default(),
    }
}

/// `--durable <dir>` from the command line: a fresh cold-tier directory.
fn durable_flag() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--durable").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with('-'))
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                eprintln!("--durable needs a directory, e.g. --durable target/quickstart-store");
                std::process::exit(2);
            })
    })
}

fn main() {
    let stats = std::env::args().any(|a| a == "--stats");
    let want_trace = std::env::args().any(|a| a == "--trace");
    let parallelism = parallelism_flag();
    // 1. Generate a small synthetic sampled-NetFlow trace.
    let trace: Vec<_> = FlowTraceGenerator::new(FlowTraceConfig {
        seed: 7,
        flows_per_sec: 200.0,
        duration: TimeDelta::from_secs(60),
        internal_hosts: 500,
        external_hosts: 500,
        ..Default::default()
    })
    .collect();
    println!("trace: {} flow records", trace.len());

    // 2. Summarize it with a budget of 512 tree nodes.
    let mut tree = Flowtree::new(FlowtreeConfig::default().with_capacity(512));
    for rec in &trace {
        tree.observe(rec);
    }
    println!(
        "flowtree: {} nodes summarizing {} packets from {} records\n",
        tree.len(),
        tree.total(),
        tree.records()
    );

    // 3. Query — popularity score of one generalized flow.
    let ten_slash_eight = FlowKey::root().with_src_prefix("10.0.0.0/8".parse().unwrap());
    println!(
        "QUERY    src=10.0.0.0/8            -> {} packets",
        tree.query(&ten_slash_eight)
    );

    // 4. Top-k — the most popular flows.
    println!("TOP-K    (k = 3)");
    for (key, score) in tree.top_k(3) {
        println!("         {score:>10}  {key}");
    }

    // 5. Above-x — everything above a threshold.
    let x = Popularity::new(tree.total().value() / 10);
    println!("ABOVE-X  (x = {x}) -> {} flows", tree.above_x(x).len());

    // 6. HHH — hierarchical heavy hitters.
    println!("HHH      (threshold = {x})");
    for item in tree.hhh(x).into_iter().take(5) {
        println!(
            "         {:>10}  {} (discounted {})",
            item.score, item.key, item.discounted
        );
    }

    // 7. Drilldown — one level below the busiest /8.
    println!("DRILLDOWN under src=10.0.0.0/8");
    for row in tree.drilldown(&ten_slash_eight).into_iter().take(4) {
        println!("         {:>10}  {}", row.score, row.key);
    }

    // 8. Merge + Compress — the paper's A12 = compress(A1 ∪ A2).
    let mut other = Flowtree::new(FlowtreeConfig::default().with_capacity(512));
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 99,
        flows_per_sec: 200.0,
        duration: TimeDelta::from_secs(60),
        ..Default::default()
    }) {
        other.observe(&rec);
    }
    let mut merged = tree.clone();
    merged.merge(&other);
    merged.compress_to(256);
    println!(
        "\nMERGE    two 512-node trees -> {} packets total",
        merged.total()
    );
    println!(
        "COMPRESS merged tree to {} nodes (root query still exact: {})",
        merged.len(),
        merged.query(&FlowKey::root())
    );

    // 9. Diff — subtract one epoch from another.
    let mut diffed = merged.clone();
    diffed.diff(&other);
    println!(
        "DIFF     merged - second epoch -> {} packets (first epoch had {})",
        diffed.total(),
        tree.total()
    );

    // 10. --stats / --trace / --threads: the same pipeline as a Flowstream
    // deployment with the observability layers attached. --stats records
    // aggregate metrics into one registry (per-router ingest counters,
    // data-store rotation latency, FlowDB execution timings, the
    // end-to-end FlowQL latency histogram); --trace records each query's
    // causal span tree; --threads N answers the queries with an N-worker
    // fan-out (same results by construction — DESIGN.md §10); --health
    // folds the sampled registry through the standard health rules and
    // prints the report; --watch also renders dashboard frames; --profile
    // aggregates scoped activities into a flamegraph (top-N table on
    // stdout plus a collapsed-stack file for flamegraph.pl).
    let threads_given = std::env::args().any(|a| a == "--threads");
    let want_health = std::env::args().any(|a| a == "--health");
    let want_watch = std::env::args().any(|a| a == "--watch");
    let want_profile = std::env::args().any(|a| a == "--profile");
    let durable = durable_flag();
    if stats
        || want_trace
        || threads_given
        || want_health
        || want_watch
        || want_profile
        || durable.is_some()
    {
        if threads_given {
            println!("\nflowstream parallelism: {parallelism}");
        }
        let mut tel = Telemetry::new();
        if want_trace {
            tel = tel.with_tracing(SamplePolicy::Always);
        }
        if want_profile {
            tel = tel.with_profiling();
        }
        let mut fs = Flowstream::new(
            2,
            2,
            FlowstreamConfig {
                epoch_len: TimeDelta::from_secs(30),
                parallelism,
                ..Default::default()
            },
        );
        if stats || want_health || want_watch || want_trace || want_profile {
            fs.set_telemetry(&tel);
        }
        if let Some(dir) = durable.as_ref() {
            // A fresh store each run: epoch segments + WAL land here.
            let _ = std::fs::remove_dir_all(dir);
            match megastream::ColdTier::create(dir, megastream::SyncPolicy::OnSeal, tel.clone()) {
                Ok(tier) => fs.attach_cold_tier(tier),
                Err(e) => {
                    eprintln!("--durable: cannot create store at {}: {e}", dir.display());
                    std::process::exit(2);
                }
            }
        }
        let mut ops = if want_health || want_watch {
            OpsPlane::standard(&tel)
        } else {
            None
        };
        let mut last_end = Timestamp::ZERO;
        for rec in FlowTraceGenerator::new(FlowTraceConfig {
            seed: 7,
            flows_per_sec: 200.0,
            duration: TimeDelta::from_mins(3),
            internal_hosts: 500,
            external_hosts: 500,
            ..Default::default()
        }) {
            fs.ingest_round_robin(&rec);
            last_end = last_end.max(rec.ts);
            if let Some(ops) = ops.as_mut() {
                if ops.tick(rec.ts) && want_watch && ops.sampler().frames().is_multiple_of(60) {
                    print!("\n{}", ops.render_dashboard());
                }
            }
        }
        fs.finish();
        fs.query("SELECT TOPK 3 FROM ALL WHERE location = \"region-0\"")
            .expect("quickstart query");
        fs.query("SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8")
            .expect("quickstart query");
        if let Some(dir) = durable.as_ref() {
            match megastream::storage::fsck::fsck(dir, false) {
                Ok(report) => println!(
                    "\ndurable store: {} sealed segment(s), {} clean frame(s), \
                     {} WAL record(s) -> {}",
                    report.segments.len(),
                    report.clean_frames,
                    report.wal_records,
                    dir.display()
                ),
                Err(e) => {
                    eprintln!("--durable: verify failed for {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
        if stats {
            println!("\n--- telemetry ({} metrics) ---", tel.snapshot().len());
            print!("{}", tel.render_text());
        }
        if let Some(ops) = ops.as_mut() {
            // One frame past the end so the session's queries are folded in.
            ops.force_tick(last_end + TimeDelta::from_secs(1));
            if want_watch {
                print!("\n{}", ops.render_dashboard());
            }
            println!("\n--- health ---");
            print!("{}", ops.health_report());
        }
        if want_trace {
            let traces = tel.trace_snapshot();
            println!("\n--- trace ({} spans) ---", traces.spans.len());
            print!("{}", traces.render_tree());
        }
        if want_profile {
            let snap = tel.profile_snapshot();
            println!("\n--- profile ({} paths) ---", snap.activities.len());
            print!("{}", snap.render_top(10));
            let path = std::path::Path::new("target").join("quickstart.collapsed");
            match std::fs::write(&path, snap.render_collapsed()) {
                Ok(()) => println!("collapsed stacks -> {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }
}
