//! Flow-score trigger firings on the shape of perfbench's `live` workload,
//! scaled down: a 2-region × 4-router deployment with 10 s epochs and the
//! `dst_preserving` schema ingests a trace carrying a 60 s, 2000 flows/s
//! DDoS. Each region store holds a trigger on the victim's /32 (10 s
//! window, 10 s cooldown), and region 1's uplink is down for part of the
//! run. `Flowstream::trigger_log` must equal the firings computed from the
//! trace alone.

use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream_datastore::trigger::{TriggerCondition, TriggerId};
use megastream_flow::addr::Ipv4Addr;
use megastream_flow::key::FlowKey;
use megastream_flow::mask::GeneralizationSchema;
use megastream_flow::record::FlowRecord;
use megastream_flow::score::Popularity;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_netsim::FaultPlan;
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator, TrafficEvent};

const REGIONS: usize = 2;
const ROUTERS: usize = 4;
const ATTACK_FLOWS_PER_SEC: f64 = 2000.0;
/// A region sees half the attack, ~10 packets a flow: a tenth of the
/// attack's packets in one window, far above the baseline.
const THRESHOLD: u64 = (ATTACK_FLOWS_PER_SEC * 5.0) as u64;
const WINDOW: TimeDelta = TimeDelta::from_secs(10);
const COOLDOWN: TimeDelta = TimeDelta::from_secs(10);

fn attack() -> TimeWindow {
    TimeWindow::starting_at(Timestamp::from_secs(60), TimeDelta::from_secs(60))
}

fn victim() -> Ipv4Addr {
    Ipv4Addr::from_octets([100, 64, 0, 1])
}

fn victim_key() -> FlowKey {
    FlowKey::root().with_dst_prefix(format!("{}/32", victim()).parse().unwrap())
}

fn trace() -> Vec<FlowRecord> {
    FlowTraceGenerator::new(FlowTraceConfig {
        seed: 16,
        flows_per_sec: 500.0,
        duration: TimeDelta::from_secs(180),
        events: vec![TrafficEvent::Ddos {
            window: attack(),
            target: victim(),
            target_port: 53,
            flows_per_sec: ATTACK_FLOWS_PER_SEC,
        }],
        ..Default::default()
    })
    .collect()
}

/// A firing: region, time, observed score.
type Firing = (usize, Timestamp, u64);

/// The firings the trace implies. Round-robin sends record `i` to region
/// `(i % 8) / 4`. A matching record fires its region's trigger when the
/// matching packets of the last 10 s, itself included, exceed the
/// threshold and at least 10 s have passed since that trigger last fired.
/// Also returns the matching records per region.
fn reference(trace: &[FlowRecord]) -> (Vec<Firing>, [u64; REGIONS]) {
    let key = victim_key();
    let mut seen: [Vec<(Timestamp, u64)>; REGIONS] = Default::default();
    let mut last: [Option<Timestamp>; REGIONS] = [None; REGIONS];
    let mut firings = Vec::new();
    for (i, rec) in trace.iter().enumerate() {
        let g = (i % (REGIONS * ROUTERS)) / ROUTERS;
        if !key.contains(&FlowKey::from_record(rec)) {
            continue;
        }
        let at = rec.ts;
        seen[g].push((at, rec.packets));
        if last[g].is_some_and(|l| at < l + COOLDOWN) {
            continue;
        }
        let score: u64 = seen[g]
            .iter()
            .filter(|(ts, _)| *ts + WINDOW > at)
            .map(|(_, p)| p)
            .sum();
        if score > THRESHOLD {
            last[g] = Some(at);
            firings.push((g, at, score));
        }
    }
    (firings, seen.map(|s| s.len() as u64))
}

#[test]
fn live_shape_firings_match_trace_reference() {
    let trace = trace();
    // The reference's window is "everything within 10 s before": that is
    // the engine's window only when records arrive in time order.
    assert!(trace.windows(2).all(|w| w[0].ts <= w[1].ts));
    let mut fs = Flowstream::new(
        REGIONS,
        ROUTERS,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(10),
            schema: GeneralizationSchema::dst_preserving(),
            ..Default::default()
        },
    );
    let ids: Vec<TriggerId> = (0..REGIONS)
        .map(|g| {
            fs.region_store_mut(g).install_trigger(
                format!("ddos-region-{g}"),
                TriggerCondition::FlowScoreAbove {
                    key: victim_key(),
                    threshold: Popularity::new(THRESHOLD),
                    window_len: WINDOW,
                },
                COOLDOWN,
            )
        })
        .collect();
    let mut plan = FaultPlan::seeded(16);
    plan.link_down(
        fs.region_node(1),
        fs.noc_node(),
        Timestamp::from_secs(90),
        Timestamp::from_secs(150),
    );
    fs.network_mut().install_faults(plan);
    for rec in &trace {
        fs.ingest_round_robin(rec);
    }
    fs.finish();
    assert!(
        fs.stats().spilled_summaries > 0,
        "the outage parked nothing"
    );

    let (want, matching) = reference(&trace);
    let got: Vec<Firing> = fs
        .trigger_log()
        .iter()
        .map(|e| {
            // Trigger ids are per store, so the installer names the region.
            let g = (0..REGIONS)
                .find(|g| e.installed_by == format!("ddos-region-{g}"))
                .expect("a firing of an installed trigger");
            assert_eq!(e.trigger, ids[g]);
            (g, e.at, e.observed as u64)
        })
        .collect();
    assert_eq!(got, want);

    for (g, matching) in matching.into_iter().enumerate() {
        let fired = want.iter().filter(|f| f.0 == g).count() as u64;
        // The attack lasts six cooldowns.
        assert!(fired >= 5, "region-{g} fired {fired} times");
        let engine = fs.region_store(g).triggers();
        assert_eq!(engine.fired(), fired);
        // In time order each matching record is pushed once and popped
        // at most once.
        assert!(
            engine.window_touches() <= 2 * matching,
            "region-{g}: {} window entries touched for {matching} matching records",
            engine.window_touches(),
        );
    }
    assert!(want.iter().all(|&(_, at, _)| attack().contains(at)));
}
