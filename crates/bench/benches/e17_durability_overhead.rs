//! E17 — durability overhead: what the checksummed cold tier costs the
//! ingest path at each fsync policy, against the detached baseline.
//!
//! Shape expectations (recorded in EXPERIMENTS.md): with the tier off,
//! ingest is the E11 baseline; attached with `SyncPolicy::Off` the tax is
//! the WAL/frame encoding; `OnSeal` (the default) adds one fsync per
//! sealed epoch plus one per WAL reset, amortized to noise; `WriteThrough`
//! fsyncs every append and pays for it — that is the point of the knob.

use std::path::PathBuf;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream::storage::segment::parse_sealed_name;
use megastream::{ColdTier, SyncPolicy};
use megastream_bench::{flow_trace, rule};
use megastream_telemetry::Telemetry;

/// The cold-tier modes swept: detached, and one per fsync policy.
const MODES: [&str; 4] = ["off", "sync-off", "on-seal", "write-through"];

fn store_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("megastream-e17-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn attach(fs: &mut Flowstream, mode: &str, dir: &PathBuf, tel: &Telemetry) {
    let sync = match mode {
        "off" => return,
        "sync-off" => SyncPolicy::Off,
        "on-seal" => SyncPolicy::OnSeal,
        _ => SyncPolicy::WriteThrough,
    };
    let _ = std::fs::remove_dir_all(dir);
    let tier = ColdTier::create(dir, sync, tel.clone()).expect("store creates");
    fs.attach_cold_tier(tier);
}

/// Bytes of the sealed epoch segments in `dir` (0 when there is none).
fn sealed_bytes(dir: &PathBuf) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_str().and_then(parse_sealed_name).is_some())
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn ingest_overhead_report() {
    rule("E17 — ingest throughput: cold tier off vs Off vs OnSeal vs WriteThrough (60k flows)");
    let trace = flow_trace(2026, 500.0, 120, 1.1);
    println!(
        "{:>14} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "mode", "elapsed ms", "segments", "disk KiB", "sealed B/rec", "fsyncs"
    );
    for mode in MODES {
        let tel = Telemetry::new();
        let dir = store_dir(mode);
        let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default()).with_telemetry(&tel);
        attach(&mut fs, mode, &dir, &tel);
        let start = std::time::Instant::now();
        for r in &trace {
            fs.ingest_round_robin(r);
        }
        fs.finish();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        let snap = tel.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        println!(
            "{:>14} {:>12.1} {:>10} {:>12.1} {:>12.2} {:>10}",
            mode,
            elapsed,
            counter("storage.segments.sealed_total"),
            (counter("storage.segments.bytes_total") + counter("storage.wal.bytes_total")) as f64
                / 1024.0,
            sealed_bytes(&dir) as f64 / trace.len() as f64,
            counter("storage.segments.fsync_total"),
        );
        drop(fs);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn bench_durability(c: &mut Criterion) {
    ingest_overhead_report();

    let mut group = c.benchmark_group("e17_durability");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    // End-to-end ingest per mode (the E11 workload shape, 15k flows).
    let trace = flow_trace(7, 500.0, 30, 1.1);
    for mode in MODES {
        group.bench_function(BenchmarkId::new("flowstream_ingest_15k", mode), |b| {
            let dir = store_dir(&format!("bench-{mode}"));
            let tel = Telemetry::disabled();
            b.iter(|| {
                let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default());
                attach(&mut fs, mode, &dir, &tel);
                for r in &trace {
                    fs.ingest_round_robin(r);
                }
                black_box(fs.stats().flows)
            });
            let _ = std::fs::remove_dir_all(&dir);
        });
    }

    // Recovery latency: open + replay of a store the 15k-flow run left
    // behind — the restart-path cost the e2e proves correct.
    let dir = store_dir("recover");
    {
        let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default());
        attach(&mut fs, "sync-off", &dir, &Telemetry::disabled());
        for r in &trace {
            fs.ingest_round_robin(r);
        }
        // Leave the store as a kill would: WAL intact, no finish().
    }
    group.bench_function("recover_15k_flow_store", |b| {
        b.iter(|| {
            let (fs, report) = Flowstream::recover(
                2,
                4,
                FlowstreamConfig::default(),
                &dir,
                SyncPolicy::Off,
                &Telemetry::disabled(),
            )
            .expect("store recovers");
            black_box((fs.stats().flows, report.recovered_frames))
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
