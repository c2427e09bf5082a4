//! Oracle for FlowQL's plan over the store hierarchy: every region summary
//! that reached the NOC counts exactly once, whatever mix of NOC epochs
//! and region summaries a query reads.
//!
//! E13's deployment (3 regions × 2 routers, 30 s region epochs, 120 s NOC
//! epochs) ingests seeded traces twice: without faults, and with region
//! 1's uplink down for [60, 180) s. The outage parks three region-1
//! summaries; they merge in the spill buffer and flush at 180 s into the
//! NOC epoch of [120, 240) s. At probes during the run and after
//! `finish()`:
//! - root-key `SELECT QUERY FROM <w>` equals the packets the trace sent to
//!   the region epochs whose indexed summaries overlap `w`;
//! - `SELECT QUERY FROM ALL` after `finish()` equals the trace's packets;
//! - the unrestricted `QUERY` equals the sum of its `GROUP BY location`
//!   rows;
//! - every NOC entry's tree total equals the sum of the totals of the
//!   entries it covers.
//!
//! Before the plan was a cover, an unrestricted query also merged every
//! NOC epoch on top of the region summaries it aggregates.

use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream_flow::record::FlowRecord;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_netsim::FaultPlan;
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

const REGIONS: usize = 3;
const ROUTERS: usize = 2;
const RUN_SECS: u64 = 300;
const OUTAGE: (u64, u64) = (60, 180);

fn trace(seed: u64) -> Vec<FlowRecord> {
    FlowTraceGenerator::new(FlowTraceConfig {
        seed,
        flows_per_sec: 60.0,
        duration: TimeDelta::from_secs(RUN_SECS),
        host_skew: 1.1,
        ..Default::default()
    })
    .collect()
}

fn deployment(outage: bool) -> Flowstream {
    let mut fs = Flowstream::new(
        REGIONS,
        ROUTERS,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    );
    if outage {
        let mut plan = FaultPlan::seeded(13);
        plan.link_down(
            fs.region_node(1),
            fs.noc_node(),
            Timestamp::from_secs(OUTAGE.0),
            Timestamp::from_secs(OUTAGE.1),
        );
        fs.network_mut().install_faults(plan);
    }
    fs
}

/// The `FROM` selections probed: aligned and unaligned windows of many
/// lengths, and two multi-window selections.
fn selections() -> Vec<Vec<(u64, u64)>> {
    let mut out = Vec::new();
    for start in [0, 20, 45, 60, 100, 120, 150, 170, 240] {
        for len in [10, 60, 120, 300] {
            out.push(vec![(start, start + len)]);
        }
    }
    out.push(vec![(0, 30), (120, 150)]);
    out.push(vec![(45, 75), (200, 280)]);
    out
}

fn from_clause(windows: &[(u64, u64)]) -> String {
    let parts: Vec<String> = windows.iter().map(|(a, b)| format!("[{a}, {b})")).collect();
    parts.join(", ")
}

fn window((a, b): (u64, u64)) -> TimeWindow {
    TimeWindow::new(Timestamp::from_secs(a), Timestamp::from_secs(b))
}

/// Per region, the packets of the trace's first records, accumulated per
/// second: `cumulative[g][s]` holds the packets region `g` received before
/// second `s`. Round-robin ingest sends record `i` to region `(i % 6) / 2`.
fn cumulative(trace: &[FlowRecord]) -> Vec<Vec<u64>> {
    let secs = RUN_SECS as usize + 1;
    let mut per_sec = vec![vec![0u64; secs]; REGIONS];
    for (i, r) in trace.iter().enumerate() {
        let g = (i % (REGIONS * ROUTERS)) / ROUTERS;
        per_sec[g][(r.ts.as_micros() / 1_000_000) as usize] += r.packets;
    }
    per_sec
        .into_iter()
        .map(|row| {
            let mut acc = vec![0u64; secs + 1];
            for (s, p) in row.into_iter().enumerate() {
                acc[s + 1] = acc[s] + p;
            }
            acc
        })
        .collect()
}

/// The packets the ingested records delivered to the region epochs whose
/// indexed summaries overlap one of `windows`.
fn oracle(fs: &Flowstream, sent: &[Vec<u64>], windows: &[(u64, u64)]) -> u64 {
    let db = fs.flowdb();
    let mut total = 0;
    for (g, acc) in sent.iter().enumerate() {
        for indexed in db.windows_of(&format!("region-{g}")) {
            if !windows.iter().any(|&w| window(w).overlaps(indexed)) {
                continue;
            }
            // Epochs start and end on whole seconds.
            let (start, end) = (indexed.start.as_micros(), indexed.end.as_micros());
            assert!(start % 1_000_000 == 0 && end % 1_000_000 == 0);
            let second = |t: u64| ((t / 1_000_000) as usize).min(acc.len() - 1);
            total += acc[second(end)] - acc[second(start)];
        }
    }
    total
}

fn root_score(fs: &Flowstream, flowql: &str) -> u64 {
    let result = fs.query(flowql).unwrap_or_else(|e| panic!("{flowql}: {e}"));
    assert!(result.completeness.is_complete(), "{flowql}");
    result.rows.iter().map(|r| r.score).sum()
}

/// Checks the mass laws for every probed selection.
fn check_laws(fs: &Flowstream, sent: &[FlowRecord], label: &str) {
    let sent = cumulative(sent);
    for windows in selections() {
        let from = from_clause(&windows);
        let want = oracle(fs, &sent, &windows);
        if want == 0 && fs.query(&format!("SELECT QUERY FROM {from}")).is_err() {
            // Nothing indexed overlaps the selection yet.
            continue;
        }
        let got = root_score(fs, &format!("SELECT QUERY FROM {from}"));
        assert_eq!(got, want, "{label}: SELECT QUERY FROM {from}");
        let grouped = root_score(fs, &format!("SELECT QUERY FROM {from} GROUP BY location"));
        assert_eq!(grouped, want, "{label}: GROUP BY location of FROM {from}");
    }
}

/// Every NOC entry's tree total is the sum of what it covers.
fn check_coverage_totals(fs: &Flowstream, label: &str) {
    let entries = fs.flowdb().entries();
    let mut aggregates = 0;
    for entry in entries {
        let Some(ids) = &entry.covers else {
            continue;
        };
        aggregates += 1;
        assert_eq!(entry.location, "noc");
        let covered: u64 = ids
            .iter()
            .map(|id| entries[id.index()].tree.total().value())
            .sum();
        assert_eq!(
            entry.tree.total().value(),
            covered,
            "{label}: NOC entry {} vs the {} entries it covers",
            entry.window,
            ids.len()
        );
    }
    assert!(aggregates > 0, "{label}: no NOC entry indexed");
}

fn run(seed: u64, outage: bool) {
    let label = format!("seed {seed}, outage {outage}");
    let trace = trace(seed);
    let mut fs = deployment(outage);
    // Probe when every location is reachable: before the outage, after
    // the late flush, and after the NOC epoch that holds it rotated.
    let mut probes = vec![50, 200, 250];
    for (i, rec) in trace.iter().enumerate() {
        if probes
            .first()
            .is_some_and(|&p| rec.ts >= Timestamp::from_secs(p))
        {
            probes.remove(0);
            assert!(fs.unreachable_locations().is_empty());
            check_laws(&fs, &trace[..i], &label);
        }
        fs.ingest_round_robin(rec);
    }
    fs.finish();
    let stats = fs.stats();
    if outage {
        assert!(
            stats.spilled_summaries >= 3 && stats.flushed_summaries > 0,
            "{stats:?}"
        );
    }
    assert_eq!(stats.dropped_summaries, 0);
    check_laws(&fs, &trace, &label);
    check_coverage_totals(&fs, &label);
    let packets: u64 = trace.iter().map(|r| r.packets).sum();
    assert_eq!(root_score(&fs, "SELECT QUERY FROM ALL"), packets, "{label}");
    assert_eq!(
        root_score(&fs, "SELECT QUERY FROM ALL GROUP BY location"),
        packets,
        "{label}"
    );
}

#[test]
fn every_region_summary_counts_once_without_faults() {
    for seed in [13, 31] {
        run(seed, false);
    }
}

#[test]
fn every_region_summary_counts_once_across_parks_and_a_late_flush() {
    for seed in [13, 31] {
        run(seed, true);
    }
}
