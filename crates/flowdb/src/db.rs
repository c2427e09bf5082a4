//! The FlowDB summary store and index.

use megastream_flow::time::TimeWindow;
use megastream_flowtree::Flowtree;
use megastream_telemetry::{labeled, Telemetry, LATENCY_MICROS_BOUNDS};

use std::collections::BTreeSet;

use crate::ast::Query;
use crate::exec::{self, QueryError, QueryResult};
use crate::par::Parallelism;

/// Stable identity of an indexed summary: its insertion position. FlowDB
/// never removes an entry, so an id names the same summary for the
/// database's whole life — unlike a Flowtree's contents or hash, which
/// two summaries can share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryId(usize);

impl EntryId {
    /// The entry's position in [`FlowDb::entries`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// One indexed flow summary.
#[derive(Debug, Clone, PartialEq)]
pub struct DbEntry {
    /// Where the summary was produced (a data-store name).
    pub location: String,
    /// The time period it covers.
    pub window: TimeWindow,
    /// The summary itself.
    pub tree: Flowtree,
    /// `Some` for an aggregate: a summary merged from the listed, older
    /// entries and from nothing else (a NOC epoch covers the region
    /// summaries that reached the NOC during it). `None` for a summary
    /// built from raw records.
    pub covers: Option<Vec<EntryId>>,
}

/// FlowDB: "takes flow summaries as input, stores, and indexes them while
/// using them to answer FlowQL queries" (§VI).
///
/// Entries form a coverage forest: an aggregate covers the entries merged
/// into it, and each entry has at most one aggregate. Queries are planned
/// over that forest so each matching summary is merged exactly once (see
/// [`exec`](crate::exec)).
#[derive(Debug, Clone, Default)]
pub struct FlowDb {
    entries: Vec<DbEntry>,
    /// Whether an aggregate covers entry `i` (derived from `entries`).
    covered: Vec<bool>,
    /// Wire bytes of all entries, kept as they are inserted.
    bytes: usize,
    tel: Telemetry,
    par: Parallelism,
}

impl PartialEq for FlowDb {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl FlowDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        FlowDb::default()
    }

    /// Connects the database to a telemetry registry: insert counts and
    /// per-operator execution timings are recorded. Passing
    /// [`Telemetry::disabled`] detaches again.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
    }

    /// Sets how many worker threads the per-location query fan-out uses.
    /// The default is [`Parallelism::Auto`]; every setting produces the
    /// same results ([`Parallelism::Sequential`] is the oracle the
    /// equivalence tests compare against).
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    /// Builder-style [`FlowDb::set_parallelism`].
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.set_parallelism(par);
        self
    }

    /// The fan-out parallelism in effect.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Inserts one flow summary built from raw records.
    pub fn insert(
        &mut self,
        location: impl Into<String>,
        window: TimeWindow,
        tree: Flowtree,
    ) -> EntryId {
        self.push(location.into(), window, tree, None)
    }

    /// Inserts an aggregate: a summary merged from the entries `covers`
    /// and from nothing else. Queries without a `location` restriction
    /// read it in place of those entries when all of them match.
    ///
    /// An id is recorded only if it names an existing entry that no other
    /// aggregate covers and whose configuration is compatible with
    /// `tree`'s (an incompatible tree cannot have merged into it); others
    /// are ignored, so the coverage stays a forest whose every edge is a
    /// possible merge.
    pub fn insert_covering(
        &mut self,
        location: impl Into<String>,
        window: TimeWindow,
        tree: Flowtree,
        covers: impl IntoIterator<Item = EntryId>,
    ) -> EntryId {
        let mut kept = Vec::new();
        for id in covers {
            let ok = self.entries.get(id.0).is_some_and(|e| {
                !self.covered[id.0] && e.tree.config().compatible_with(tree.config())
            });
            if ok {
                self.covered[id.0] = true;
                kept.push(id);
            }
        }
        kept.sort_unstable();
        self.push(location.into(), window, tree, Some(kept))
    }

    fn push(
        &mut self,
        location: String,
        window: TimeWindow,
        tree: Flowtree,
        covers: Option<Vec<EntryId>>,
    ) -> EntryId {
        let id = EntryId(self.entries.len());
        self.bytes += tree.wire_size();
        self.entries.push(DbEntry {
            location,
            window,
            tree,
            covers,
        });
        self.covered.push(false);
        self.tel.counter("flowdb.summaries_total").inc();
        self.tel.gauge("flowdb.index_bytes").set(self.bytes as i64);
        id
    }

    /// Number of indexed summaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of all indexed summaries.
    pub fn total_bytes(&self) -> usize {
        self.bytes
    }

    /// Distinct locations with stored summaries, sorted.
    pub fn locations(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.entries.iter().map(|e| e.location.as_str()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All windows stored for `location`, sorted by start.
    pub fn windows_of(&self, location: &str) -> Vec<TimeWindow> {
        let mut out: Vec<TimeWindow> = self
            .entries
            .iter()
            .filter(|e| e.location == location)
            .map(|e| e.window)
            .collect();
        out.sort_by_key(|w| w.start);
        out
    }

    /// Every indexed summary, in insertion order: `entries()[id.index()]`
    /// is the entry `id` names.
    pub fn entries(&self) -> &[DbEntry] {
        &self.entries
    }

    /// The cover a query reads, in insertion order: each matching summary
    /// exactly once. [`FlowDb::execute_partial`] merges these entries,
    /// skipping those of `unavailable` locations.
    ///
    /// An entry *matches* when its window overlaps the `FROM` selection
    /// and either the query names its location, or the query names no
    /// location and the entry is not an aggregate. So `location =
    /// "noc"` reads the NOC's own epochs, `location = "region-<g>"` and
    /// `GROUP BY location` read region summaries only, and a query with
    /// neither reads every region summary once.
    ///
    /// Only that last form uses aggregates, as shortcuts: an aggregate is
    /// read in place of the entries it covers when it is not in
    /// `unavailable` and every entry it covers would be read on its own
    /// (recursively: a covered aggregate qualifies if it qualifies
    /// itself). Otherwise its covered entries are planned one by one.
    /// Each aggregate read replaces at least one matching entry, so the
    /// cover is never larger than the set of matching entries.
    pub fn cover(&self, query: &Query, unavailable: &BTreeSet<String>) -> Vec<&DbEntry> {
        let names = query.locations();
        let mut read: Vec<bool> = self
            .entries
            .iter()
            .map(|e| {
                query.time.matches(e.window)
                    && if names.is_empty() {
                        e.covers.is_none()
                    } else {
                        names.contains(&e.location.as_str())
                    }
            })
            .collect();
        if names.is_empty() && !query.group_by_location {
            // Aggregates cover older entries only, so one forward pass
            // decides which aggregates stand for matching entries alone,
            // and one backward pass visits each aggregate before what it
            // covers.
            let mut whole = read.clone();
            for (i, e) in self.entries.iter().enumerate() {
                if let Some(ids) = &e.covers {
                    whole[i] = !ids.is_empty() && ids.iter().all(|c| whole[c.0]);
                }
            }
            let mut replaced = vec![false; self.entries.len()];
            for (i, e) in self.entries.iter().enumerate().rev() {
                let Some(ids) = &e.covers else {
                    read[i] &= !replaced[i];
                    continue;
                };
                read[i] = !replaced[i] && whole[i] && !unavailable.contains(&e.location);
                if replaced[i] || read[i] {
                    for c in ids {
                        replaced[c.0] = true;
                    }
                }
            }
        }
        self.entries
            .iter()
            .zip(&read)
            .filter(|(_, &r)| r)
            .map(|(e, _)| e)
            .collect()
    }

    /// Executes a parsed FlowQL query.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] if no summary matches the selection or the
    /// matching summaries have incompatible configurations.
    pub fn execute(&self, query: &Query) -> Result<QueryResult, QueryError> {
        self.execute_with(query, &BTreeSet::new(), &self.tel)
    }

    /// Degraded execution: the plan ([`FlowDb::cover`]) reads no
    /// aggregate of an `unavailable` location, summaries from
    /// `unavailable` locations are excluded, and the result's
    /// [`Completeness`](crate::exec::Completeness) records locations
    /// reached vs planned. If every planned location is unavailable the
    /// result is empty with completeness `0/n`, not an error.
    ///
    /// # Errors
    ///
    /// Same as [`FlowDb::execute`], except unreachable locations no longer
    /// cause incomplete results to error.
    pub fn execute_partial(
        &self,
        query: &Query,
        unavailable: &BTreeSet<String>,
    ) -> Result<QueryResult, QueryError> {
        self.execute_with(query, unavailable, &self.tel)
    }

    /// [`FlowDb::execute_partial`] recording into `tel` instead of the
    /// database's own handle. The execution stages (plan, per-location
    /// fan-out, merge, operator) are scopes, so under a sampled trace root
    /// they form the query's `EXPLAIN ANALYZE` lineage tree. With nothing
    /// unavailable the result is complete.
    ///
    /// # Errors
    ///
    /// Same as [`FlowDb::execute_partial`].
    pub fn execute_with(
        &self,
        query: &Query,
        unavailable: &BTreeSet<String>,
        tel: &Telemetry,
    ) -> Result<QueryResult, QueryError> {
        let result = exec::execute(self, query, unavailable, tel);
        if tel.is_enabled() {
            record_metrics(tel, query.op.kind(), &result);
        }
        result
    }
}

/// Per-operator execution metrics: the call count, the execution time
/// the result's [`QueryCost`](crate::exec::QueryCost) measured, the
/// completeness percentage the ops plane's degradation rule watches, and
/// the result-shape distributions (rows, bytes merged, nodes visited).
fn record_metrics(tel: &Telemetry, kind: &str, result: &Result<QueryResult, QueryError>) {
    tel.counter(&labeled("flowdb.exec.total", "op", kind)).inc();
    let r = match result {
        Err(_) => {
            tel.counter("flowdb.exec.errors_total").inc();
            return;
        }
        Ok(r) => r,
    };
    tel.histogram(
        &labeled("flowdb.exec.micros", "op", kind),
        LATENCY_MICROS_BOUNDS,
    )
    .record(r.cost.total_micros);
    if !r.completeness.is_complete() {
        tel.counter("flowdb.exec.partial_total").inc();
    }
    tel.histogram("flowdb.exec.rows", EXEC_ROWS_BOUNDS)
        .record(r.rows.len() as u64);
    let pct = (r.completeness.fraction() * 100.0).round() as i64;
    tel.gauge("flowdb.exec.completeness_pct").set(pct);
    tel.histogram("flowdb.cost.bytes_merged", COST_BYTES_BOUNDS)
        .record(r.cost.bytes_merged);
    tel.histogram("flowdb.cost.nodes_visited", COST_NODES_BOUNDS)
        .record(r.cost.nodes_visited as u64);
}

/// Bucket bounds for the per-query answer row count
/// (`flowdb.exec.rows`).
const EXEC_ROWS_BOUNDS: &[u64] = &[1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 10_000];

/// Bucket bounds for per-query merged wire bytes
/// (`flowdb.cost.bytes_merged`).
const COST_BYTES_BOUNDS: &[u64] = &[
    1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
];

/// Bucket bounds for per-query Flowtree nodes visited
/// (`flowdb.cost.nodes_visited`).
const COST_NODES_BOUNDS: &[u64] = &[
    16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
];

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_flow::record::FlowRecord;
    use megastream_flow::time::{TimeDelta, Timestamp};
    use megastream_flowtree::FlowtreeConfig;

    fn tree(packets: u64) -> Flowtree {
        let mut t = Flowtree::new(FlowtreeConfig::default());
        t.observe(
            &FlowRecord::builder()
                .proto(6)
                .src("10.0.0.1".parse().unwrap(), 80)
                .dst("1.1.1.1".parse().unwrap(), 443)
                .packets(packets)
                .build(),
        );
        t
    }

    fn w(s: u64) -> TimeWindow {
        TimeWindow::starting_at(Timestamp::from_secs(s), TimeDelta::from_secs(60))
    }

    #[test]
    fn insert_and_index() {
        let mut db = FlowDb::new();
        db.insert("a", w(0), tree(1));
        db.insert("b", w(0), tree(2));
        db.insert("a", w(60), tree(3));
        assert_eq!(db.len(), 3);
        assert_eq!(db.locations(), vec!["a", "b"]);
        assert_eq!(db.windows_of("a").len(), 2);
        assert_eq!(db.windows_of("a")[1].start, Timestamp::from_secs(60));
        assert!(db.total_bytes() > 0);
    }

    #[test]
    fn cover_filters_by_time_and_location() {
        use crate::ast::{Restriction, SelectOp, TimeSelection};
        let mut db = FlowDb::new();
        db.insert("a", w(0), tree(1));
        db.insert("b", w(0), tree(2));
        db.insert("a", w(60), tree(3));
        let q = Query {
            op: SelectOp::Query,
            time: TimeSelection::Windows(vec![w(0)]),
            restrictions: vec![Restriction::Location("a".into())],
            group_by_location: false,
        };
        let selected = db.cover(&q, &BTreeSet::new());
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].location, "a");
        assert_eq!(selected[0].window, w(0));
    }

    fn merged(trees: &[&Flowtree]) -> Flowtree {
        let mut out = trees[0].clone();
        for t in &trees[1..] {
            out.merge(t);
        }
        out
    }

    /// Two regions, three epochs each; `noc` covers the first two epochs
    /// of both. Returns the database and the planned locations/windows.
    fn hierarchy() -> FlowDb {
        let mut db = FlowDb::new();
        let mut ids = Vec::new();
        let mut trees = Vec::new();
        for epoch in 0..2u64 {
            for region in ["region-0", "region-1"] {
                let t = tree(epoch + 1);
                ids.push(db.insert(region, w(epoch * 60), t.clone()));
                trees.push(t);
            }
        }
        let refs: Vec<&Flowtree> = trees.iter().collect();
        let window = TimeWindow::new(w(0).start, w(60).end);
        db.insert_covering("noc", window, merged(&refs), ids);
        db.insert("region-0", w(120), tree(5));
        db.insert("region-1", w(120), tree(7));
        db
    }

    fn plan(db: &FlowDb, flowql: &str, down: &[&str]) -> Vec<(String, u64)> {
        let q = crate::parse(flowql).unwrap();
        let down: BTreeSet<String> = down.iter().map(|s| (*s).to_owned()).collect();
        db.cover(&q, &down)
            .into_iter()
            .map(|e| (e.location.clone(), e.window.start.as_micros() / 1_000_000))
            .collect()
    }

    #[test]
    fn cover_reads_an_aggregate_in_place_of_its_matching_entries() {
        let db = hierarchy();
        let all = plan(&db, "SELECT QUERY FROM ALL", &[]);
        assert_eq!(
            all,
            vec![
                ("noc".to_owned(), 0),
                ("region-0".to_owned(), 120),
                ("region-1".to_owned(), 120)
            ]
        );
        // The aggregate also covers [0, 60), which [60, 180) misses.
        let late = plan(&db, "SELECT QUERY FROM [60, 180)", &[]);
        assert_eq!(late.len(), 4);
        assert!(late.iter().all(|(l, s)| l != "noc" && *s >= 60));
        // Every answer counts each region summary once: 2·(1 + 2) + 5 + 7.
        let total = db.execute(&crate::parse("SELECT QUERY FROM ALL").unwrap());
        assert_eq!(total.unwrap().rows[0].score, 18);
    }

    #[test]
    fn cover_expands_an_unreachable_aggregate() {
        let db = hierarchy();
        let planned = plan(&db, "SELECT QUERY FROM ALL", &["noc"]);
        assert_eq!(planned.len(), 6);
        assert!(planned.iter().all(|(l, _)| l != "noc"));
    }

    #[test]
    fn named_locations_and_groups_read_entries_as_they_are() {
        let db = hierarchy();
        assert_eq!(
            plan(&db, "SELECT QUERY FROM ALL WHERE location = \"noc\"", &[]),
            vec![("noc".to_owned(), 0)]
        );
        assert_eq!(
            plan(
                &db,
                "SELECT QUERY FROM ALL WHERE location = \"region-0\"",
                &[]
            )
            .len(),
            3
        );
        let grouped = plan(&db, "SELECT QUERY FROM ALL GROUP BY location", &[]);
        assert_eq!(grouped.len(), 6);
        assert!(grouped.iter().all(|(l, _)| l != "noc"));
    }

    #[test]
    fn an_empty_aggregate_is_never_read() {
        let mut db = FlowDb::new();
        db.insert("region-0", w(0), tree(1));
        let empty = Flowtree::new(FlowtreeConfig::default());
        db.insert_covering("noc", w(0), empty, []);
        assert_eq!(
            plan(&db, "SELECT QUERY FROM ALL", &[]),
            vec![("region-0".to_owned(), 0)]
        );
    }

    #[test]
    fn insert_covering_keeps_only_sound_edges() {
        use megastream_flow::score::ScoreKind;
        let mut db = FlowDb::new();
        let a = db.insert("region-0", w(0), tree(1));
        let bytes = Flowtree::new(FlowtreeConfig::default().with_score_kind(ScoreKind::Bytes));
        let b = db.insert("region-1", w(0), bytes);
        let first = db.insert_covering("noc", w(0), tree(1), [a, b, EntryId(99)]);
        // `b` cannot have merged into a packet tree; 99 does not exist.
        assert_eq!(db.entries()[first.index()].covers, Some(vec![a]));
        // `a` already has an aggregate.
        let second = db.insert_covering("noc", w(60), tree(1), [a]);
        assert_eq!(db.entries()[second.index()].covers, Some(vec![]));
        assert_eq!(db.entries()[a.index()].covers, None);
    }
}
