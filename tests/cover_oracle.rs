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
//!
//! The same probes check FlowDB's per-location rollups: a query whose plan
//! reads a location's whole history must answer from exactly the tree this
//! test folds itself, left to right over that location's indexed entries,
//! with the public Flowtree API. Each probe falls between ingests, so the
//! rollups catch up by the entries indexed since the previous one; in the
//! outage run those include region summaries that arrive late, out of
//! time order.

use std::collections::{BTreeMap, BTreeSet};

use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream_flow::key::FlowKey;
use megastream_flow::record::FlowRecord;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_flowdb::{DbEntry, QueryResult};
use megastream_flowtree::Flowtree;
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

/// The left fold of `entries`, in order, from a copy of the first.
fn fold<'a>(entries: impl IntoIterator<Item = &'a DbEntry>) -> Option<Flowtree> {
    let mut entries = entries.into_iter();
    let mut out = entries.next()?.tree.clone();
    for entry in entries {
        out.merge(&entry.tree);
    }
    Some(out)
}

/// The test's own fold of every entry indexed at `location`.
fn history(fs: &Flowstream, location: &str) -> Flowtree {
    let entries = fs.flowdb().entries().iter();
    fold(entries.filter(|e| e.location == location))
        .unwrap_or_else(|| panic!("nothing indexed at {location}"))
}

fn top_rows(tree: &Flowtree, k: usize) -> Vec<(FlowKey, u64)> {
    let rows = tree.top_k_where(k, |_| true).into_iter();
    rows.map(|(key, score)| (key, score.value())).collect()
}

fn answer_rows(result: &QueryResult) -> Vec<(FlowKey, u64)> {
    let rows = result.rows.iter();
    rows.map(|r| (r.key.expect("keyed row"), r.score)).collect()
}

fn ask(fs: &Flowstream, flowql: &str) -> QueryResult {
    let result = fs.query(flowql).unwrap_or_else(|e| panic!("{flowql}: {e}"));
    assert!(result.completeness.is_complete(), "{flowql}");
    result
}

/// Rollup oracle at one probe: `QUERY … GROUP BY location`, every
/// `location = "region-<g>"` and `TOPK 5 FROM ALL` answer from the test's
/// own fold of each location's entries. Returns whether `FROM ALL` read
/// the NOC's whole history (at least two entries: a rollup).
fn check_rollups(fs: &Flowstream, label: &str) -> bool {
    let db = fs.flowdb();
    let grouped = "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8 GROUP BY location";
    let ten = megastream_flowdb::parse(grouped)
        .unwrap()
        .where_key()
        .unwrap();
    let grouped = ask(fs, grouped);
    let regions: Vec<&str> = db.locations().into_iter().filter(|l| *l != "noc").collect();
    assert_eq!(grouped.rows.len(), regions.len(), "{label}");
    for (row, region) in grouped.rows.iter().zip(&regions) {
        assert_eq!(row.location.as_deref(), Some(*region), "{label}");
        let want = history(fs, region).query(&ten).value();
        assert_eq!(row.score, want, "{label}: GROUP BY row of {region}");
    }
    for region in &regions {
        let answer = ask(
            fs,
            &format!("SELECT TOPK 5 FROM ALL WHERE location = \"{region}\""),
        );
        let want = top_rows(&history(fs, region), 5);
        assert_eq!(answer_rows(&answer), want, "{label}: TOPK 5 of {region}");
    }
    // `FROM ALL` merges one partial per location, in location order: the
    // fold of that location's planned entries.
    let query = megastream_flowdb::parse("SELECT TOPK 5 FROM ALL").unwrap();
    let mut planned: BTreeMap<&str, Vec<&DbEntry>> = BTreeMap::new();
    for entry in db.cover(&query, &BTreeSet::new()) {
        planned
            .entry(entry.location.as_str())
            .or_default()
            .push(entry);
    }
    let partials = planned
        .values()
        .map(|entries| fold(entries.iter().copied()));
    let mut partials = partials.map(|p| p.expect("a planned location has entries"));
    let mut want = partials.next().expect("FROM ALL plans a location");
    for partial in partials {
        want.merge(&partial);
    }
    let answer = ask(fs, "SELECT TOPK 5 FROM ALL");
    assert_eq!(
        answer_rows(&answer),
        top_rows(&want, 5),
        "{label}: TOPK 5 FROM ALL"
    );
    let noc = planned.get("noc").map_or(0, Vec::len);
    noc >= 2 && noc == db.entries().iter().filter(|e| e.location == "noc").count()
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
            check_rollups(&fs, &label);
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
    assert!(
        check_rollups(&fs, &label),
        "{label}: FROM ALL must read the NOC's rollup"
    );
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
