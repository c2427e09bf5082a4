//! The FlowDB summary store and index.

use megastream_flow::time::TimeWindow;
use megastream_flowtree::Flowtree;
use megastream_telemetry::{labeled, Telemetry, LATENCY_MICROS_BOUNDS};

use std::collections::BTreeSet;

use crate::ast::Query;
use crate::exec::{self, QueryError, QueryResult};
use crate::par::Parallelism;

/// One indexed flow summary.
#[derive(Debug, Clone, PartialEq)]
pub struct DbEntry {
    /// Where the summary was produced (a data-store name).
    pub location: String,
    /// The time period it covers.
    pub window: TimeWindow,
    /// The summary itself.
    pub tree: Flowtree,
}

/// FlowDB: "takes flow summaries as input, stores, and indexes them while
/// using them to answer FlowQL queries" (§VI).
#[derive(Debug, Clone, Default)]
pub struct FlowDb {
    entries: Vec<DbEntry>,
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

    /// Inserts one flow summary.
    pub fn insert(&mut self, location: impl Into<String>, window: TimeWindow, tree: Flowtree) {
        self.bytes += tree.wire_size();
        self.entries.push(DbEntry {
            location: location.into(),
            window,
            tree,
        });
        self.tel.counter("flowdb.summaries_total").inc();
        self.tel.gauge("flowdb.index_bytes").set(self.bytes as i64);
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

    /// Entries matching a query's time selection and location restrictions.
    pub(crate) fn select<'a>(&'a self, query: &'a Query) -> impl Iterator<Item = &'a DbEntry> {
        let locations = query.locations();
        self.entries.iter().filter(move |e| {
            query.time.matches(e.window)
                && (locations.is_empty() || locations.contains(&e.location.as_str()))
        })
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

    /// Degraded execution: summaries from `unavailable` locations are
    /// excluded and the result's
    /// [`Completeness`](crate::exec::Completeness) records locations
    /// reached vs matching. If every matching location is unavailable the
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
    fn select_filters_by_time_and_location() {
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
        let selected: Vec<_> = db.select(&q).collect();
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].location, "a");
        assert_eq!(selected[0].window, w(0));
    }
}
