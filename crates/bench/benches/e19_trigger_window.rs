//! E19 — the cost of a flow-score trigger per matching record as the
//! attack rate grows (§III-A triggers, §VI DDoS detection).
//!
//! One `FlowScoreAbove` trigger on the victim's /32 (10 s window, 10 s
//! cooldown) sees a 60 s attack of evenly spaced matching records at 250,
//! 1000 and 4000 records/s. Prints, per rate: the matching records, the
//! entries a full window holds, µs per matching record (best of 3 whole
//! attacks) and the window entries touched per matching record. Criterion
//! then times one whole attack per rate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;

use megastream_bench::rule;
use megastream_datastore::trigger::{TriggerCondition, TriggerEngine};
use megastream_flow::addr::Ipv4Addr;
use megastream_flow::key::FlowKey;
use megastream_flow::record::FlowRecord;
use megastream_flow::score::Popularity;
use megastream_flow::time::{TimeDelta, Timestamp};

/// Matching records per second: 1×, 4× and 16× the lowest rate.
const RATES: [u64; 3] = [250, 1000, 4000];
const ATTACK_SECS: u64 = 60;
const WINDOW_SECS: u64 = 10;

/// The attack: `rate` records a second to the victim, 1 to 19 packets
/// each (10 on average).
fn attack(rate: u64) -> Vec<FlowRecord> {
    (0..rate * ATTACK_SECS)
        .map(|k| {
            FlowRecord::builder()
                .ts(Timestamp::from_micros(k * 1_000_000 / rate))
                .proto(17)
                .src(Ipv4Addr::from_octets([10, 0, 0, 1]), 4000)
                .dst(Ipv4Addr::from_octets([100, 64, 0, 1]), 53)
                .packets(1 + k * 7919 % 19)
                .build()
        })
        .collect()
}

/// An engine holding the victim trigger. The threshold is a tenth of a
/// full window's packets.
fn engine(rate: u64) -> TriggerEngine {
    let mut eng = TriggerEngine::new();
    eng.install(
        "ddos-app",
        TriggerCondition::FlowScoreAbove {
            key: FlowKey::root().with_dst_prefix("100.64.0.1/32".parse().expect("a /32")),
            threshold: Popularity::new(rate * WINDOW_SECS),
            window_len: TimeDelta::from_secs(WINDOW_SECS),
        },
        TimeDelta::from_secs(10),
    );
    eng
}

/// Feeds the whole attack through a fresh engine.
fn replay(rate: u64, trace: &[FlowRecord]) -> TriggerEngine {
    let mut eng = engine(rate);
    for rec in trace {
        eng.on_flow(rec, rec.ts);
    }
    eng
}

fn report() {
    rule("E19 — flow-trigger window cost per matching record");
    println!(
        "{:>8} {:>8} {:>8} | {:>9} {:>9} | {:>7}",
        "rate/s", "records", "window", "µs/match", "touched", "fired"
    );
    for rate in RATES {
        let trace = attack(rate);
        let best = (0..3)
            .map(|_| {
                let start = Instant::now();
                black_box(replay(rate, &trace));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let eng = replay(rate, &trace);
        let records = trace.len() as f64;
        println!(
            "{:>8} {:>8} {:>8} | {:>9.3} {:>9.2} | {:>7}",
            rate,
            trace.len(),
            rate * WINDOW_SECS,
            best * 1e6 / records,
            eng.window_touches() as f64 / records,
            eng.fired()
        );
    }
}

fn bench_trigger_window(c: &mut Criterion) {
    report();
    let mut group = c.benchmark_group("e19_trigger_window");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));
    for rate in RATES {
        let trace = attack(rate);
        group.bench_with_input(BenchmarkId::new("attack", rate), &rate, |b, &rate| {
            b.iter(|| replay(rate, &trace).fired());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trigger_window);
criterion_main!(benches);
