//! Network monitoring with Flowstream (paper Fig. 5 + §II-B).
//!
//! Two regions of routers feed per-region data stores running Flowtree
//! aggregators. A DDoS is injected mid-trace; the operator investigates
//! interactively with FlowQL, and a DDoS-detection application plus a
//! flow-score trigger close the fast control loop.
//!
//! ```text
//! cargo run --example network_monitoring
//! cargo run --example network_monitoring -- --stats     # + telemetry report
//! cargo run --example network_monitoring -- --trace     # + causal span trees
//! cargo run --example network_monitoring -- --chaos     # + mid-run uplink outage
//! cargo run --example network_monitoring -- --threads 4 # parallel data plane
//! cargo run --example network_monitoring -- --health    # + live health alerts
//! cargo run --example network_monitoring -- --watch     # + periodic dashboards
//! cargo run --example network_monitoring -- --profile   # + flamegraph profile
//! ```
//!
//! `--chaos --health` shows the ops plane reacting live: the hierarchy
//! component flips Degraded when region-1's spill buffer fills during the
//! outage window and recovers to Healthy after the flush.

use megastream::application::{AppDirective, Application, DdosDetectionApp};
use megastream::flowstream::{DegradationPolicy, Flowstream, FlowstreamConfig};
use megastream::ops::OpsPlane;
use megastream::Parallelism;
use megastream_datastore::summary::Summary;
use megastream_flow::addr::Ipv4Addr;
use megastream_flow::mask::GeneralizationSchema;
use megastream_flow::score::Popularity;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_netsim::FaultPlan;
use megastream_telemetry::{SamplePolicy, Telemetry};
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator, TrafficEvent};

/// The operator queries during the outage: `Partial` answers what it can
/// (annotated), `FailFast` refuses — both name the severed region.
fn mid_outage_session(fs: &Flowstream) {
    let q = "SELECT QUERY FROM ALL WHERE dst_ip = 100.64.0.1";
    println!("--- mid-outage (unreachable: {:?}) ---", {
        fs.unreachable_locations().into_iter().collect::<Vec<_>>()
    });
    println!("flowql> {q}  (degradation = partial)");
    match fs.query_with_policy(q, DegradationPolicy::Partial) {
        Ok(result) => print!("{result}"),
        Err(e) => println!("error: {e}"),
    }
    println!("flowql> {q}  (degradation = fail-fast)");
    match fs.query_with_policy(q, DegradationPolicy::FailFast) {
        Ok(result) => print!("{result}"),
        Err(e) => println!("error: {e}"),
    }
    println!();
}

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

fn main() {
    let stats = std::env::args().any(|a| a == "--stats");
    let want_trace = std::env::args().any(|a| a == "--trace");
    let chaos = std::env::args().any(|a| a == "--chaos");
    let want_health = std::env::args().any(|a| a == "--health");
    let want_watch = std::env::args().any(|a| a == "--watch");
    let parallelism = parallelism_flag();
    let want_profile = std::env::args().any(|a| a == "--profile");
    let mut tel = if stats || want_health || want_watch {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    if want_trace {
        tel = tel.with_tracing(SamplePolicy::Always);
    }
    if want_profile {
        tel = tel.with_profiling();
    }
    let victim: Ipv4Addr = "100.64.0.1".parse().unwrap();
    let attack_window =
        TimeWindow::starting_at(Timestamp::from_secs(120), TimeDelta::from_secs(60));

    // --- data plane: 2 regions × 4 routers, 5 minutes of traffic with an
    // injected DDoS in minute 3.
    let trace = FlowTraceGenerator::new(FlowTraceConfig {
        seed: 42,
        flows_per_sec: 300.0,
        duration: TimeDelta::from_mins(5),
        events: vec![TrafficEvent::Ddos {
            window: attack_window,
            target: victim,
            target_port: 53,
            flows_per_sec: 2_000.0,
        }],
        ..Default::default()
    });

    // Domain knowledge (property P5): for attack investigation, configure
    // the trees to keep *destinations* specific under compression — spoofed
    // sources carry no information, the victim address is the answer.
    let mut fs = Flowstream::new(
        2,
        4,
        FlowstreamConfig {
            schema: GeneralizationSchema::dst_preserving(),
            parallelism,
            ..Default::default()
        },
    )
    .with_telemetry(&tel);

    // --- chaos mode: region 1 loses its NOC uplink during the attack
    // minute. Exports spill locally and re-aggregate after recovery; the
    // operator sees annotated partial answers in the meantime.
    if chaos {
        let mut plan = FaultPlan::seeded(42);
        plan.link_down(
            fs.region_node(1),
            fs.noc_node(),
            Timestamp::from_secs(90),
            Timestamp::from_secs(210),
        );
        fs.network_mut().install_faults(plan);
        println!("chaos: region-1 uplink down for [90 s, 210 s)\n");
    }

    // --health / --watch: the ops plane samples the registry once per
    // simulated second, folds the windows through the standard health
    // rules, prints alerts as they fire, and (--watch) renders a dashboard
    // frame every 30 simulated seconds.
    let mut ops = if want_health || want_watch {
        OpsPlane::standard(&tel)
    } else {
        None
    };
    let mut alerts_printed = 0usize;
    let mut n = 0u64;
    let mut probed = false;
    let mut last_end = Timestamp::ZERO;
    for rec in trace {
        if chaos && !probed && rec.ts >= Timestamp::from_secs(150) {
            probed = true;
            mid_outage_session(&fs);
        }
        fs.ingest_round_robin(&rec);
        last_end = last_end.max(rec.ts);
        n += 1;
        if let Some(ops) = ops.as_mut() {
            if ops.tick(rec.ts) {
                for alert in &ops.health().alerts()[alerts_printed..] {
                    println!("health: {alert}");
                }
                alerts_printed = ops.health().alerts().len();
                if want_watch && ops.sampler().frames().is_multiple_of(30) {
                    print!("{}", ops.render_dashboard());
                }
            }
        }
    }
    fs.finish();
    if let Some(ops) = ops.as_mut() {
        // A final frame past the last rotation, so post-recovery flushes
        // (and the alert back to Healthy) are observed.
        for s in 1..=4u64 {
            ops.force_tick(last_end + TimeDelta::from_secs(s));
        }
        for alert in &ops.health().alerts()[alerts_printed..] {
            println!("health: {alert}");
        }
        println!("\n--- health ---");
        print!("{}", ops.health_report());
    }
    println!(
        "ingested {n} flow records into {} region stores ({} summaries indexed, {} bytes moved)\n",
        fs.regions(),
        fs.flowdb().len(),
        fs.network().total_bytes()
    );

    // --- the operator's FlowQL session.
    let session = [
        // What are the heavy flows overall?
        "SELECT TOPK 5 FROM ALL WHERE location = \"region-0\"",
        // Anything unusual in minute 3?
        "SELECT HHH 20000 FROM [120, 180) WHERE location = \"region-0\"",
        // Drill into the victim.
        "SELECT QUERY FROM [120, 180) WHERE location = \"region-0\" AND dst_ip = 100.64.0.1",
        // Compare against the minute before the attack.
        "SELECT QUERY FROM [60, 120) WHERE location = \"region-0\" AND dst_ip = 100.64.0.1",
        // Is the other region seeing it too?
        "SELECT QUERY FROM [120, 180) WHERE location = \"region-1\" AND dst_ip = 100.64.0.1",
    ];
    for q in session {
        println!("flowql> {q}");
        match fs.query(q) {
            Ok(result) => print!("{result}"),
            Err(e) => println!("error: {e}"),
        }
        println!();
    }

    // --- the application view: DDoS detection over the indexed summaries.
    let mut app = DdosDetectionApp::new(Popularity::new(10_000));
    let mut directives = Vec::new();
    for g in 0..fs.regions() {
        let store = fs.region_store(g);
        for summary in store.summaries().iter() {
            if matches!(summary.summary, Summary::Flowtree(_)) {
                directives.extend(app.on_summary(summary, summary.window.end));
            }
        }
    }
    println!("--- ddos-detection application ---");
    for d in &directives {
        match d {
            AppDirective::Report(msg) => println!("report:   {msg}"),
            AppDirective::MitigateFlow { key, reason } => {
                println!("mitigate: {key}  ({reason})")
            }
            AppDirective::RequestTrigger { condition, .. } => {
                println!("trigger:  install {condition:?}")
            }
            other => println!("other:    {other:?}"),
        }
    }
    assert!(
        directives
            .iter()
            .any(|d| matches!(d, AppDirective::MitigateFlow { .. })),
        "the injected attack must be detected"
    );
    println!("\nvictims identified: {}", app.victims().count());

    // --- fault accounting: what did the outage cost, and did we recover?
    if chaos {
        let s = fs.stats();
        println!("--- fault accounting ---");
        println!("export retries:    {}", s.export_retries);
        println!("summaries spilled: {}", s.spilled_summaries);
        println!("summaries flushed: {}", s.flushed_summaries);
        println!("summaries dropped: {}", s.dropped_summaries);
        println!("partial queries:   {}", s.partial_queries);
        println!(
            "unreachable now:   {:?}\n",
            fs.unreachable_locations().into_iter().collect::<Vec<_>>()
        );
    }

    // --- operations view: what did that run cost, per component?
    if stats {
        let s = fs.stats();
        println!("\n--- operating stats ---");
        println!("flows ingested:    {}", s.flows);
        println!("raw bytes:         {}", s.raw_bytes);
        println!("region epochs:     {}", s.region_epochs);
        println!("exported bytes:    {}", s.exported_bytes);
        println!("flowdb summaries:  {}", s.flowdb_summaries);
        println!("network bytes:     {}", s.network_bytes);
        println!("\n--- telemetry ---");
        print!("{}", tel.render_text());
    }

    // --- causality view: the span tree of every pump and query in the
    // session.
    if want_trace {
        let traces = tel.trace_snapshot();
        println!(
            "\n--- trace ({} spans across {} traces) ---",
            traces.spans.len(),
            traces.trace_ids().len()
        );
        print!("{}", traces.render_tree());
    }

    // --- cost view: where the run's time went, and which FlowQL queries
    // did the most deterministic work.
    if want_profile {
        let snap = tel.profile_snapshot();
        println!("\n--- profile ({} paths) ---", snap.activities.len());
        print!("{}", snap.render_top(10));
        println!("\n--- heaviest queries (by work units) ---");
        for (q, work) in fs.heavy_queries(3) {
            println!("{work:>12}  {q}");
        }
        let path = std::path::Path::new("target").join("network_monitoring.collapsed");
        match std::fs::write(&path, snap.render_collapsed()) {
            Ok(()) => println!("collapsed stacks -> {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
