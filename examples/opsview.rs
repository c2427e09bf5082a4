//! Live terminal dashboard over a chaos deployment — the ops plane
//! end to end (sampler → health rules → dashboard/exposition).
//!
//! Three regions of two routers each feed the hierarchy for five
//! simulated minutes while region-1's NOC uplink is severed for the
//! window [90 s, 210 s). A standing `TOPK` query runs every 15 simulated
//! seconds with `DegradationPolicy::Partial`, so the query plane's
//! latency and completeness series stay populated — completeness dips
//! while region-1 is unreachable and recovers after the flush.
//!
//! ```text
//! cargo run --example opsview              # a dashboard frame every 30 s
//! cargo run --example opsview -- --live    # redraw in place (ANSI clear)
//! cargo run --example opsview -- --profile # + flamegraph profile at exit
//! ```
//!
//! The run ends with the final dashboard, the health report with the
//! full alert log, and a sample of the Prometheus exposition.

use megastream::flowstream::{DegradationPolicy, Flowstream, FlowstreamConfig};
use megastream::ops::OpsPlane;
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_netsim::FaultPlan;
use megastream_telemetry::Telemetry;
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

fn main() {
    let live = std::env::args().any(|a| a == "--live");
    let want_profile = std::env::args().any(|a| a == "--profile");
    let tel = if want_profile {
        Telemetry::new().with_profiling()
    } else {
        Telemetry::new()
    };
    let mut fs = Flowstream::new(3, 2, FlowstreamConfig::default()).with_telemetry(&tel);
    let mut plan = FaultPlan::seeded(7);
    plan.link_down(
        fs.region_node(1),
        fs.noc_node(),
        Timestamp::from_secs(90),
        Timestamp::from_secs(210),
    );
    fs.network_mut().install_faults(plan);
    let mut ops = OpsPlane::standard(&tel).expect("telemetry is enabled");

    println!("opsview: 3 regions x 2 routers, 5 min of traffic");
    println!("chaos:   region-1 uplink down for [90 s, 210 s)\n");

    let mut last_query_s = 0u64;
    let mut last_end = Timestamp::ZERO;
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 7,
        flows_per_sec: 400.0,
        duration: TimeDelta::from_mins(5),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
        last_end = last_end.max(rec.ts);
        if ops.tick(rec.ts) {
            let s = rec.ts.as_micros() / 1_000_000;
            // A standing query keeps the query plane's latency and
            // completeness series moving; Partial answers what it can
            // while region-1 is severed.
            if s >= last_query_s + 15 {
                last_query_s = s;
                let _ = fs.query_with_policy("SELECT TOPK 3 FROM ALL", DegradationPolicy::Partial);
            }
            if ops.sampler().frames().is_multiple_of(30) {
                if live {
                    print!("\x1b[2J\x1b[H");
                }
                println!("t = {s} s");
                print!("{}", ops.render_dashboard());
                println!();
            }
        }
    }
    fs.finish();
    // Frames past the last rotation so post-recovery flushes (and the
    // alerts back to Healthy) are observed.
    for s in 1..=4u64 {
        ops.force_tick(last_end + TimeDelta::from_secs(s));
    }

    if live {
        print!("\x1b[2J\x1b[H");
    }
    println!("=== final dashboard ===");
    print!("{}", ops.render_dashboard());
    println!("\n=== health ===");
    print!("{}", ops.health_report());
    println!("\n=== prometheus exposition (first lines) ===");
    for line in tel.snapshot().render_prometheus().lines().take(10) {
        println!("{line}");
    }
    println!("...");
    if want_profile {
        let snap = tel.profile_snapshot();
        println!("\n=== profile ({} paths) ===", snap.activities.len());
        print!("{}", snap.render_top(10));
        let path = std::path::Path::new("target").join("opsview.collapsed");
        match std::fs::write(&path, snap.render_collapsed()) {
            Ok(()) => println!("collapsed stacks -> {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
