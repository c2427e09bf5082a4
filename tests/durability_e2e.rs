//! Durability end-to-end: kill-and-restart crash recovery.
//!
//! A Flowstream deployment runs with a durable cold tier and is killed at
//! seeded crash points — mid-rotation, mid-seal, mid-spill-flush, and
//! between rotations mid-WAL. After each kill the deployment is rebuilt
//! from disk with [`Flowstream::recover`] and the client re-sends from the
//! first unacknowledged record. The recovered system must converge
//! **bit-identically** — region and unrestricted query results, the FlowDB
//! index with its NOC coverage, live scores, accounted bytes, ingest
//! statistics — with an oracle that never crashed, under
//! both `Sequential` and `Threads(n)` parallelism. Torn tails and
//! bit-flips are detected (nonzero `storage.recovery.*` counters), never
//! panicked on, and `fsck` verifies the surviving store.

use std::path::{Path, PathBuf};

use megastream::flowstream::FlowstreamConfig;
use megastream::storage::fsck::fsck;
use megastream::{
    ColdTier, FaultMode, FaultSpec, Flowstream, Parallelism, RecoveryReport, SyncPolicy,
};
use megastream_flow::key::FlowKey;
use megastream_flow::record::FlowRecord;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_flowdb::QueryResult;
use megastream_netsim::FaultPlan;
use megastream_telemetry::Telemetry;
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

const REGIONS: usize = 3;
const ROUTERS: usize = 2;
/// Region 1's uplink to the NOC is down for this window, forcing exports
/// into the spill buffer so the mid-spill-flush crash point exists.
const OUTAGE_FROM: u64 = 60;
const OUTAGE_UNTIL: u64 = 150;

fn trace() -> Vec<FlowRecord> {
    FlowTraceGenerator::new(FlowTraceConfig {
        seed: 4242,
        flows_per_sec: 40.0,
        duration: TimeDelta::from_mins(5),
        internal_hosts: 120,
        external_hosts: 120,
        ..Default::default()
    })
    .collect()
}

fn config(par: Parallelism) -> FlowstreamConfig {
    FlowstreamConfig {
        epoch_len: TimeDelta::from_secs(30),
        parallelism: par,
        ..Default::default()
    }
}

fn install_outage(fs: &mut Flowstream) {
    let mut plan = FaultPlan::seeded(9);
    plan.link_down(
        fs.region_node(1),
        fs.noc_node(),
        Timestamp::from_secs(OUTAGE_FROM),
        Timestamp::from_secs(OUTAGE_UNTIL),
    );
    fs.network_mut().install_faults(plan);
}

/// A fresh scratch directory per test; removed on success.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "megastream-durability-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything convergence is asserted on. Telemetry counters and
/// simulated-network byte meters are deliberately excluded: they describe
/// the *process* (which legitimately differs across a crash), not the
/// data.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    region_results: Vec<QueryResult>,
    /// Queries without a location restriction: planned over the coverage.
    unrestricted_results: Vec<QueryResult>,
    /// Every FlowDB entry: location, window, the ids it covers, tree total
    /// and wire size.
    index: Vec<IndexedEntry>,
    live_scores: Vec<u64>,
    noc_live: u64,
    accounted: Vec<usize>,
    noc_accounted: usize,
    flows: u64,
    raw_bytes: u64,
}

type IndexedEntry = (String, TimeWindow, Option<Vec<usize>>, u64, usize);

fn fingerprint(fs: &Flowstream) -> Fingerprint {
    let region_results = (0..fs.regions())
        .map(|g| {
            fs.query(&format!(
                "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8 AND location = region-{g}"
            ))
            .expect("region location is indexed")
        })
        .collect();
    let unrestricted_results = ["SELECT QUERY FROM ALL", "SELECT TOPK 5 FROM [60, 200)"]
        .iter()
        .map(|q| fs.query(q).expect("unrestricted query"))
        .collect();
    let index = fs
        .flowdb()
        .entries()
        .iter()
        .map(|e| {
            (
                e.location.clone(),
                e.window,
                e.covers
                    .as_ref()
                    .map(|ids| ids.iter().map(|id| id.index()).collect()),
                e.tree.total().value(),
                e.tree.wire_size(),
            )
        })
        .collect();
    let stats = fs.stats();
    Fingerprint {
        region_results,
        unrestricted_results,
        index,
        live_scores: (0..fs.regions())
            .map(|g| fs.region_store(g).live_flow_score(&FlowKey::root()).value())
            .collect(),
        noc_live: fs.noc_store().live_flow_score(&FlowKey::root()).value(),
        accounted: (0..fs.regions())
            .map(|g| fs.region_store(g).accounted_bytes())
            .collect(),
        noc_accounted: fs.noc_store().accounted_bytes(),
        flows: stats.flows,
        raw_bytes: stats.raw_bytes,
    }
}

/// The full workload with no crash. `durable` additionally journals into a
/// cold tier — the results must be identical either way.
fn run_oracle(par: Parallelism, durable: Option<&Path>) -> Fingerprint {
    let tel = Telemetry::new();
    let mut fs = Flowstream::new(REGIONS, ROUTERS, config(par)).with_telemetry(&tel);
    install_outage(&mut fs);
    if let Some(dir) = durable {
        let tier = ColdTier::create(dir, SyncPolicy::OnSeal, tel.clone()).expect("create tier");
        fs.attach_cold_tier(tier);
    }
    for rec in trace() {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    fingerprint(&fs)
}

/// Durable-op ordinals observed around each ingest of a clean run, used to
/// aim crash points at specific operations. The op sequence is fully
/// deterministic, so ordinals transfer exactly to the crash runs.
struct Probe {
    /// `(ops_before, ops_after)` around ingest of record `i`.
    spans: Vec<(u64, u64)>,
    /// First record whose ingest rotated an epoch.
    first_rotation: usize,
    /// Record whose rotation flushed spilled summaries (post-outage).
    flush_rotation: usize,
}

/// A rotating ingest spends ≥ 5 ops: `begin_epoch`, ≥ 1 `append_frame`
/// (the Meta frame at minimum), `seal_epoch`, `wal_reset`, and the
/// record's own `wal_append`. A non-rotating ingest spends exactly 1.
fn probe(par: Parallelism, tag: &str) -> Probe {
    let dir = temp_dir(tag);
    let tel = Telemetry::new();
    let mut fs = Flowstream::new(REGIONS, ROUTERS, config(par)).with_telemetry(&tel);
    install_outage(&mut fs);
    let tier = ColdTier::create(&dir, SyncPolicy::OnSeal, tel.clone()).expect("create tier");
    fs.attach_cold_tier(tier);
    let mut spans = Vec::new();
    let mut first_rotation = None;
    let mut flush_rotation = None;
    for (i, rec) in trace().iter().enumerate() {
        let before = fs.cold_tier().expect("attached").ops();
        let flushed_before = fs.stats().flushed_summaries;
        fs.ingest_round_robin(rec);
        let after = fs.cold_tier().expect("attached").ops();
        spans.push((before, after));
        if after > before + 1 && first_rotation.is_none() {
            first_rotation = Some(i);
        }
        if fs.stats().flushed_summaries > flushed_before && flush_rotation.is_none() {
            flush_rotation = Some(i);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Probe {
        spans,
        first_rotation: first_rotation.expect("the workload rotates epochs"),
        flush_rotation: flush_rotation.expect("the outage forces spills that later flush"),
    }
}

/// Kills the deployment at durable-op `at_op` with `mode`, recovers from
/// disk, re-sends from the first unacknowledged record, and returns the
/// final fingerprint plus what recovery reported.
fn run_with_crash(
    par: Parallelism,
    at_op: u64,
    mode: FaultMode,
    tag: &str,
) -> (Fingerprint, RecoveryReport, Telemetry) {
    let dir = temp_dir(tag);
    let tel = Telemetry::new();
    let mut fs = Flowstream::new(REGIONS, ROUTERS, config(par)).with_telemetry(&tel);
    install_outage(&mut fs);
    let mut tier = ColdTier::create(&dir, SyncPolicy::OnSeal, tel.clone()).expect("create tier");
    tier.set_fault(Some(FaultSpec { at_op, mode }));
    fs.attach_cold_tier(tier);

    let records = trace();
    let mut crash_at = None;
    for (i, rec) in records.iter().enumerate() {
        fs.ingest_round_robin(rec);
        if fs.cold_tier_dead() {
            crash_at = Some(i);
            break;
        }
    }
    let crash_at = crash_at.expect("the seeded fault fires mid-run");
    // The process dies: every byte of in-memory state is lost.
    drop(fs);

    let rtel = Telemetry::new();
    let (mut fs, report) = Flowstream::recover(
        REGIONS,
        ROUTERS,
        config(par),
        &dir,
        SyncPolicy::OnSeal,
        &rtel,
    )
    .expect("recovery never fails on kill residue");
    install_outage(&mut fs);
    // The client re-sends from the record that was never acknowledged.
    for rec in &records[crash_at..] {
        fs.ingest_round_robin(rec);
        assert!(!fs.cold_tier_dead(), "no second fault is installed");
    }
    fs.finish();
    let fp = fingerprint(&fs);
    let _ = std::fs::remove_dir_all(&dir);
    (fp, report, rtel)
}

/// Asserts one crash scenario converges bit-identically with the oracle
/// under both parallelism settings, and that the kill left a detectable —
/// counted, never panicked-on — torn tail.
fn assert_crash_converges(pick: impl Fn(&Probe) -> u64, mode: FaultMode, tag: &str) {
    for (par, par_tag) in [
        (Parallelism::Sequential, "seq"),
        (Parallelism::Threads(3), "thr"),
    ] {
        let oracle = run_oracle(par, None);
        let p = probe(par, &format!("{tag}-probe-{par_tag}"));
        let at_op = pick(&p);
        let (recovered, report, rtel) =
            run_with_crash(par, at_op, mode, &format!("{tag}-{par_tag}"));
        assert_eq!(
            recovered, oracle,
            "{tag}/{par_tag}: recovered run diverged from the never-crashed oracle"
        );
        // A torn write leaves a detectable partial tail; a clean stop by
        // definition leaves none — recovery must report exactly that.
        let torn_detected = report.torn_frames > 0 || report.discarded_open_segment;
        assert_eq!(
            torn_detected,
            mode == FaultMode::TornWrite,
            "{tag}/{par_tag}: torn-tail detection mismatch: torn={} open_discarded={}",
            report.torn_frames,
            report.discarded_open_segment
        );
        let snap = rtel.snapshot();
        assert_eq!(
            snap.counter("storage.recovery.torn_frames"),
            Some(report.torn_frames),
            "{tag}/{par_tag}: torn-frame counter mismatch"
        );
        assert!(
            snap.counter("storage.wal.replayed_total").unwrap_or(0)
                == report.wal_records.len() as u64,
            "{tag}/{par_tag}: every WAL record must be counted as replayed"
        );
        assert_eq!(
            report.corrupt_frames, 0,
            "{tag}/{par_tag}: a torn write never corrupts sealed data"
        );
    }
}

#[test]
fn durable_oracle_matches_in_memory_oracle() {
    // Journaling must be invisible to the data plane: the same workload
    // with and without a cold tier produces identical results, and the
    // store it leaves behind verifies clean.
    for (par, tag) in [
        (Parallelism::Sequential, "oracle-seq"),
        (Parallelism::Threads(3), "oracle-thr"),
    ] {
        let dir = temp_dir(tag);
        let durable = run_oracle(par, Some(&dir));
        let in_memory = run_oracle(par, None);
        assert_eq!(durable, in_memory, "journaling changed observable results");
        let report = fsck(&dir, false).expect("store is readable");
        assert!(
            report.is_clean(),
            "clean shutdown must verify clean: {:?}",
            report.problems
        );
        assert!(report.segments.len() > 1, "multiple epochs sealed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_mid_rotation_recovers_bit_identically() {
    // Die on the first frame append of an epoch segment: the header and a
    // partial frame are on disk, the seal never happened.
    assert_crash_converges(
        |p| p.spans[p.first_rotation].0 + 2,
        FaultMode::TornWrite,
        "mid-rotation",
    );
}

#[test]
fn crash_mid_seal_recovers_bit_identically() {
    // Die inside `seal_epoch`: the index trailer is half-written and the
    // atomic rename never happened, so the whole epoch falls back to WAL
    // replay.
    assert_crash_converges(
        |p| p.spans[p.first_rotation].1 - 2,
        FaultMode::TornWrite,
        "mid-seal",
    );
}

#[test]
fn crash_mid_spill_flush_recovers_bit_identically() {
    // Die on the first `Flushed` frame of the post-outage rotation — the
    // moment spilled summaries finally reach the NOC. Recovery must
    // rebuild the spill buffer from sealed `Parked` frames and re-deliver.
    assert_crash_converges(
        |p| p.spans[p.flush_rotation].0 + 2,
        FaultMode::TornWrite,
        "mid-spill-flush",
    );
}

#[test]
fn clean_stop_mid_wal_recovers_bit_identically() {
    // Die before a mid-epoch `wal_append`: the record is not applied
    // (WAL'd ⇔ applied), so the client re-sends exactly from it.
    assert_crash_converges(
        |p| {
            let (_, after) = p
                .spans
                .iter()
                .skip(p.first_rotation + 5)
                .find(|(b, a)| a == &(b + 1))
                .expect("plain ingests exist between rotations");
            *after
        },
        FaultMode::CleanStop,
        "mid-wal",
    );
}

#[test]
fn bit_flip_is_detected_quarantined_and_survivable() {
    // A bit-flip inside a sealed frame is silent data corruption, not a
    // crash: the run completes, recovery detects it by checksum,
    // quarantines the frame, repairs the segment — and never panics.
    let par = Parallelism::Sequential;
    let dir = temp_dir("bit-flip");
    let p = probe(par, "bit-flip-probe");
    let tel = Telemetry::new();
    let mut fs = Flowstream::new(REGIONS, ROUTERS, config(par)).with_telemetry(&tel);
    install_outage(&mut fs);
    let mut tier = ColdTier::create(&dir, SyncPolicy::OnSeal, tel.clone()).expect("create tier");
    tier.set_fault(Some(FaultSpec {
        at_op: p.spans[p.first_rotation].0 + 2,
        mode: FaultMode::BitFlip,
    }));
    fs.attach_cold_tier(tier);
    for rec in trace() {
        fs.ingest_round_robin(&rec);
        assert!(!fs.cold_tier_dead(), "a bit-flip is silent, not fatal");
    }
    fs.finish();
    drop(fs);

    // fsck flags the corruption before recovery touches it.
    let dirty = fsck(&dir, false).expect("store is readable");
    assert!(!dirty.is_clean(), "fsck must flag the flipped frame");
    assert!(dirty.corrupt_frames >= 1);

    let rtel = Telemetry::new();
    let (fs, report) = Flowstream::recover(
        REGIONS,
        ROUTERS,
        config(par),
        &dir,
        SyncPolicy::OnSeal,
        &rtel,
    )
    .expect("corruption is quarantined, not fatal");
    assert!(report.corrupt_frames >= 1, "checksum must catch the flip");
    assert!(report.repaired_segments >= 1, "bad segment rewritten");
    let snap = rtel.snapshot();
    assert_eq!(
        snap.counter("storage.recovery.corrupt_frames"),
        Some(report.corrupt_frames)
    );
    // The quarantined frame's data is lost by design — but the store is
    // consistent again and queries still answer.
    for g in 0..fs.regions() {
        fs.query(&format!(
            "SELECT QUERY FROM ALL WHERE location = region-{g}"
        ))
        .expect("recovered deployment answers queries");
    }
    let clean = fsck(&dir, false).expect("store is readable");
    assert!(
        clean.is_clean(),
        "recovery must leave a verifiable store: {:?}",
        clean.problems
    );
    // The quarantine directory holds the evidence.
    let quarantined = std::fs::read_dir(dir.join("quarantine"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert!(quarantined >= 1, "flipped frame preserved for forensics");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durability_run_drops_nothing() {
    // The spill budget absorbs the whole outage: the labeled per-edge drop
    // counters stay at zero across crash and recovery, proving the durable
    // path loses no summaries to back-pressure.
    let tel = Telemetry::new();
    let mut fs =
        Flowstream::new(REGIONS, ROUTERS, config(Parallelism::Sequential)).with_telemetry(&tel);
    install_outage(&mut fs);
    let dir = temp_dir("no-drops");
    let tier = ColdTier::create(&dir, SyncPolicy::OnSeal, tel.clone()).expect("create tier");
    fs.attach_cold_tier(tier);
    for rec in trace() {
        fs.ingest_round_robin(&rec);
    }
    fs.finish();
    assert_eq!(fs.stats().dropped_summaries, 0);
    assert_eq!(fs.stats().dropped_bytes, 0);
    let snap = tel.snapshot();
    // The filter below must match a live metric family: the outage spills.
    assert!(snap.counter("hierarchy.spill.spilled_total").unwrap_or(0) > 0);
    for (name, value) in &snap.counters {
        if name.starts_with("hierarchy.spill.dropped") {
            assert_eq!(*value, 0, "durable run must not drop: {name}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
