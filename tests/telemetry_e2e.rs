//! End-to-end telemetry: a Flowstream deployment with a live registry must
//! record ingest, epoch-rotation, and query-latency metrics from every
//! layer it wires through — and a deployment with the default (disabled)
//! handle must register nothing at all.

use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream_flow::time::TimeDelta;
use megastream_telemetry::{labeled, Telemetry};
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

fn run_workload(fs: &mut Flowstream) {
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 11,
        flows_per_sec: 100.0,
        duration: TimeDelta::from_mins(3),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
}

#[test]
fn flowstream_workload_populates_all_layers() {
    let tel = Telemetry::new();
    let mut fs = Flowstream::new(
        2,
        2,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    )
    .with_telemetry(&tel);
    run_workload(&mut fs);
    fs.query("SELECT TOPK 3 FROM ALL WHERE location = \"region-0\"")
        .expect("topk query");
    fs.query("SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8")
        .expect("point query");
    assert!(fs.query("SELECT TOPK 3 FROM ALL WHERE").is_err());

    let snap = fs.telemetry().snapshot();

    // Ingest: every router counted records, and the per-store totals match
    // the deployment's own accounting.
    let mut router_total = 0;
    for g in 0..2 {
        for r in 0..2 {
            let name = labeled(
                "flowstream.ingest.records_total",
                "router",
                &format!("{g}-{r}"),
            );
            let n = snap.counter(&name).expect("router counter registered");
            assert!(n > 0, "router {g}-{r} saw no records");
            router_total += n;
        }
    }
    assert_eq!(router_total, fs.stats().flows);
    let store_total: u64 = (0..2)
        .map(|g| {
            snap.counter(&labeled(
                "datastore.ingest.flows_total",
                "store",
                &format!("region-{g}"),
            ))
            .expect("store counter registered")
        })
        .sum();
    assert_eq!(store_total, router_total);

    // Epoch rotations: counters and latency samples agree, and match the
    // aggregate stats view.
    let mut rotations = 0;
    for g in 0..2 {
        let store = format!("region-{g}");
        let n = snap
            .counter(&labeled("datastore.epoch.rotations_total", "store", &store))
            .expect("rotation counter registered");
        assert!(n > 0, "store {store} never rotated");
        let h = snap
            .histogram(&labeled("datastore.epoch.rotate.micros", "store", &store))
            .expect("rotation histogram registered");
        assert_eq!(h.count, n, "every rotation must be timed");
        rotations += n;
    }
    assert_eq!(rotations, fs.stats().region_epochs);

    // Queries: end-to-end latency histogram saw every call (including the
    // failed parse), FlowDB recorded per-operator timings.
    assert_eq!(snap.counter("flowstream.query.total"), Some(3));
    assert_eq!(snap.counter("flowstream.query.errors_total"), Some(1));
    let lat = snap
        .histogram("flowstream.query.micros")
        .expect("query latency histogram registered");
    assert_eq!(lat.count, 3);
    assert!(lat.sum > 0, "query latency samples must be nonzero");
    assert_eq!(
        snap.counter(&labeled("flowdb.exec.total", "op", "topk")),
        Some(1)
    );
    assert_eq!(
        snap.counter(&labeled("flowdb.exec.total", "op", "query")),
        Some(1)
    );
    assert!(snap.histogram("flowdb.parse.micros").is_some());

    // The text report surfaces all of it.
    let report = fs.telemetry().render_text();
    assert!(report.contains("flowstream.ingest.records_total"));
    assert!(report.contains("datastore.epoch.rotations_total"));
    assert!(report.contains("flowstream.query.micros"));
}

#[test]
fn disabled_deployment_registers_no_metrics() {
    // The null-handle fast path: the exact same workload with telemetry
    // left at its default must touch no registry and allocate no metrics.
    let mut fs = Flowstream::new(2, 2, FlowstreamConfig::default());
    run_workload(&mut fs);
    fs.query("SELECT TOPK 3 FROM ALL WHERE location = \"region-0\"")
        .expect("topk query");
    assert!(!fs.telemetry().is_enabled());
    assert!(fs.telemetry().snapshot().is_empty());
    assert_eq!(fs.telemetry().render_text(), "");
}

#[test]
fn detaching_telemetry_stops_recording() {
    let tel = Telemetry::new();
    let mut fs = Flowstream::new(1, 1, FlowstreamConfig::default()).with_telemetry(&tel);
    run_workload(&mut fs);
    let before = tel
        .snapshot()
        .counter(&labeled("flowstream.ingest.records_total", "router", "0-0"))
        .expect("counter registered");
    assert!(before > 0);
    fs.set_telemetry(&Telemetry::disabled());
    run_workload(&mut fs);
    let after = tel
        .snapshot()
        .counter(&labeled("flowstream.ingest.records_total", "router", "0-0"))
        .expect("counter still in registry");
    assert_eq!(before, after, "detached deployment must not record");
}
