//! The FlowDB summary store and index.

use megastream_flow::time::TimeWindow;
use megastream_flowtree::Flowtree;
use megastream_telemetry::{labeled, Telemetry, LATENCY_MICROS_BOUNDS};

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
/// [`exec`]).
///
/// Each location also has a *rollup*: the left fold, in insertion order,
/// of every entry indexed there — the partial a plan that reads the
/// location's whole history would merge. Rollups are lazy: inserts never
/// fold, and the first query that reads a rollup builds it inside its
/// fan-out, later ones catch it up.
#[derive(Debug, Default)]
pub struct FlowDb {
    entries: Vec<DbEntry>,
    /// Whether an aggregate covers entry `i` (derived from `entries`).
    covered: Vec<bool>,
    /// Each location's entries and rollup, by location name.
    locations: BTreeMap<String, Location>,
    /// Wire bytes of all entries, kept as they are inserted.
    bytes: usize,
    tel: Telemetry,
    par: Parallelism,
}

/// The entries indexed under one location, in insertion order, and the
/// location's rollup.
#[derive(Debug, Default)]
struct Location {
    ids: Vec<EntryId>,
    /// `None` until a query first reads the rollup. A poisoned lock is
    /// recovered: a holder folds into a rollup it has taken out of the
    /// slot, so a panic mid-fold leaves `None` behind, never a
    /// half-merged tree.
    rollup: Mutex<Option<Rollup>>,
}

impl Location {
    fn slot(&self) -> MutexGuard<'_, Option<Rollup>> {
        self.rollup.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The left fold of a location's first `folded` entries.
#[derive(Debug, Clone)]
struct Rollup {
    tree: Flowtree,
    folded: usize,
}

impl Clone for FlowDb {
    /// Copies the index; each rollup is shared as an O(1) snapshot.
    fn clone(&self) -> Self {
        let locations = self
            .locations
            .iter()
            .map(|(name, loc)| {
                let copy = Location {
                    ids: loc.ids.clone(),
                    rollup: Mutex::new(loc.slot().clone()),
                };
                (name.clone(), copy)
            })
            .collect();
        FlowDb {
            entries: self.entries.clone(),
            covered: self.covered.clone(),
            locations,
            bytes: self.bytes,
            tel: self.tel.clone(),
            par: self.par,
        }
    }
}

impl PartialEq for FlowDb {
    /// Databases are equal when they index the same entries; rollups are
    /// derived state and do not take part.
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
        match self.locations.get_mut(&location) {
            Some(loc) => loc.ids.push(id),
            None => {
                let loc = Location {
                    ids: vec![id],
                    ..Location::default()
                };
                self.locations.insert(location.clone(), loc);
            }
        }
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

    /// Total bytes FlowDB holds: the wire bytes of every indexed summary
    /// plus those of every rollup built so far.
    pub fn total_bytes(&self) -> usize {
        let rollups: usize = self
            .locations
            .values()
            .map(|loc| loc.slot().as_ref().map_or(0, |r| r.tree.wire_size()))
            .sum();
        self.bytes + rollups
    }

    /// Distinct locations with stored summaries, sorted.
    pub fn locations(&self) -> Vec<&str> {
        self.locations.keys().map(String::as_str).collect()
    }

    /// All windows stored for `location`, sorted by start.
    pub fn windows_of(&self, location: &str) -> Vec<TimeWindow> {
        let ids = self.locations.get(location).map(|loc| loc.ids.as_slice());
        let mut out: Vec<TimeWindow> = ids
            .unwrap_or_default()
            .iter()
            .filter_map(|id| self.entries.get(id.0))
            .map(|e| e.window)
            .collect();
        out.sort_by_key(|w| w.start);
        out
    }

    /// How many entries are indexed under `location`.
    pub(crate) fn entries_at(&self, location: &str) -> usize {
        self.locations.get(location).map_or(0, |loc| loc.ids.len())
    }

    /// How many of `location`'s entries its rollup does not hold yet: all
    /// of them before a query first reads it.
    pub(crate) fn rollup_lag(&self, location: &str) -> usize {
        self.locations.get(location).map_or(0, |loc| {
            let folded = loc.slot().as_ref().map_or(0, |r| r.folded);
            loc.ids.len().saturating_sub(folded)
        })
    }

    /// `location`'s rollup, caught up with every entry indexed there: the
    /// tree [`exec`](crate::exec) would get by merging all of them left to
    /// right from a copy of the first, bit for bit, since each catch-up
    /// step is that fold's next merge. Returns an O(1) snapshot of it
    /// and how many entries this call folded in (all of them for the call
    /// that builds it, 0 when it was caught up).
    ///
    /// The catch-up runs under the location's lock, so concurrent queries
    /// fold each entry once. It copies the rollup on write when a query
    /// still holds an older snapshot, and it checks compatibility before
    /// each merge: an entry whose configuration does not match returns
    /// [`QueryError::IncompatibleSummaries`] — exactly when a merge of the
    /// whole group would — and the rollup keeps the entries before it.
    ///
    /// # Errors
    ///
    /// [`QueryError::NoMatchingSummaries`] if nothing is indexed under
    /// `location`; [`QueryError::IncompatibleSummaries`] as above.
    pub(crate) fn rollup(&self, location: &str) -> Result<(Flowtree, usize), QueryError> {
        let loc = self
            .locations
            .get(location)
            .ok_or(QueryError::NoMatchingSummaries)?;
        let mut slot = loc.slot();
        // Fold into a rollup taken out of the slot: a panic mid-merge
        // leaves the slot empty, to be rebuilt, not half-merged.
        let taken = slot.take();
        let start = taken.as_ref().map_or(0, |r| r.folded);
        let (mut tree, mut folded) = (taken.map(|r| r.tree), start);
        let outcome = loc
            .ids
            .iter()
            .skip(start)
            .filter_map(|id| self.entries.get(id.0))
            .try_for_each(|entry| {
                exec::fold_tree(&mut tree, &entry.tree)?;
                folded += 1;
                Ok(())
            });
        *slot = tree.map(|tree| Rollup { tree, folded });
        let Some(r) = slot.as_ref() else {
            return Err(QueryError::NoMatchingSummaries);
        };
        outcome.map(|()| (r.tree.clone(), r.folded - start))
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

    /// Three differently shaped trees per location.
    fn shaped(seed: u32) -> Flowtree {
        let mut t = Flowtree::new(FlowtreeConfig::default().with_capacity(64));
        for i in 0..40u32 {
            t.observe(
                &FlowRecord::builder()
                    .proto(6)
                    .src(format!("10.{}.{}.1", seed % 5, i % 13).parse().unwrap(), 80)
                    .dst(format!("1.1.{}.1", (i * seed) % 9).parse().unwrap(), 443)
                    .packets(u64::from(1 + (i * 7 + seed) % 11))
                    .build(),
            );
        }
        t
    }

    #[test]
    fn a_rollup_is_the_left_fold_of_its_location_and_catches_up() {
        let mut db = FlowDb::new();
        let mut trees = Vec::new();
        for epoch in 0..3u32 {
            trees.push(shaped(epoch + 1));
            db.insert("a", w(u64::from(epoch) * 60), shaped(epoch + 1));
            db.insert("b", w(u64::from(epoch) * 60), shaped(epoch + 7));
        }
        let bytes = db.total_bytes();
        assert_eq!(db.rollup_lag("a"), 3);
        let (cold, folds) = db.rollup("a").unwrap();
        assert_eq!((folds, db.rollup_lag("a")), (3, 0));
        let refs: Vec<&Flowtree> = trees.iter().collect();
        assert_eq!(cold.flat_nodes(), merged(&refs).flat_nodes());
        assert_eq!(db.total_bytes(), bytes + cold.wire_size());
        // Warm: nothing to fold, the same tree.
        let (warm, folds) = db.rollup("a").unwrap();
        assert_eq!((folds, warm.flat_nodes()), (0, cold.flat_nodes()));
        // A new entry is folded into the rollup, copying it on write: the
        // snapshot a query holds does not change.
        trees.push(shaped(4));
        db.insert("a", w(180), shaped(4));
        assert_eq!(db.rollup_lag("a"), 1);
        let (caught_up, folds) = db.rollup("a").unwrap();
        assert_eq!(folds, 1);
        let refs: Vec<&Flowtree> = trees.iter().collect();
        assert_eq!(caught_up.flat_nodes(), merged(&refs).flat_nodes());
        assert_eq!(warm.flat_nodes(), cold.flat_nodes());
        assert!(!caught_up.shares_storage_with(&warm));
        // Clones share the rollups; equality ignores them.
        let copy = db.clone();
        assert_eq!(copy.total_bytes(), db.total_bytes());
        assert_eq!(copy.rollup_lag("a"), 0);
        assert_eq!(copy.rollup_lag("b"), 3);
        assert_eq!(copy, db);
        assert_eq!(db.rollup("mars"), Err(QueryError::NoMatchingSummaries));
    }

    #[test]
    fn an_incompatible_entry_stops_the_rollup_cold_and_warm() {
        use megastream_flow::score::ScoreKind;
        let mut db = FlowDb::new();
        db.insert("a", w(0), shaped(1));
        db.insert("a", w(60), shaped(2));
        let bytes = Flowtree::new(FlowtreeConfig::default().with_score_kind(ScoreKind::Bytes));
        db.insert("a", w(120), bytes);
        db.insert("a", w(180), shaped(3));
        let cold = db.rollup("a");
        assert_eq!(cold, Err(QueryError::IncompatibleSummaries));
        // The rollup keeps the two entries before the incompatible one.
        assert_eq!(db.rollup_lag("a"), 2);
        assert_eq!(db.rollup("a"), Err(QueryError::IncompatibleSummaries));
        assert_eq!(db.rollup_lag("a"), 2);
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
