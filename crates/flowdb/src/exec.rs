//! FlowQL query execution.
//!
//! Execution follows the §VI composition: plan the summaries the
//! `FROM`/`location` clauses select, `Merge` them ("A12 = compress(A1 ∪
//! A2)"), then run the selected Flowtree operator restricted to the WHERE
//! key. With `GROUP BY location`, the merge-and-operate step runs once per
//! location instead of across all of them.
//!
//! The plan is a *cover* of the index's coverage forest
//! ([`FlowDb`]): each matching summary is merged exactly
//! once, and an aggregate (a NOC epoch) is read in place of the region
//! summaries it covers when all of them match — paper Fig. 5 ③–④, where
//! the network store "further aggregates" region summaries and uses them
//! to answer queries.
//!
//! The merge step is structured as a **per-location fan-out** (property P2:
//! summaries combine across location): each contacted location's trees
//! merge into one partial, and the partials combine in fixed location
//! order. The fan-out runs on up to
//! [`Parallelism::worker_count`](crate::Parallelism) threads, the
//! caller's included, and the caller folds each partial into the running
//! merge as soon as it and every earlier one exist, so the cross-location
//! merge overlaps the groups still running. Because the partials are
//! folded in location order no matter which thread produced them or when,
//! every [`Parallelism`](crate::par) setting yields the same result
//! (`tests/parallel_e2e.rs` pins this).
//!
//! A group that holds every entry indexed at its location, and at least
//! two, reads the location's *rollup* ([`FlowDb`] keeps
//! it) instead of merging them: the rollup is that group's left fold,
//! caught up inside the group's fan-out item, so the answer is the same
//! bit for bit and the plan reads one summary in place of the group.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use megastream_flow::key::{Feature, FlowKey};
use megastream_flow::score::Popularity;
use megastream_flowtree::Flowtree;
use megastream_telemetry::{clock, Scope, Telemetry, LATENCY_MICROS_BOUNDS};

use crate::ast::{Query, SelectOp};
use crate::db::{DbEntry, FlowDb};
use crate::par::{fan_out, fold_in_order};

/// A query-execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// No stored summary matched the FROM/location selection.
    NoMatchingSummaries,
    /// Matching summaries have incompatible Flowtree configurations.
    IncompatibleSummaries,
    /// A `WHERE` restriction gives a feature the wrong kind of value: a
    /// prefix for a numeric feature, a number for an IP feature, or a
    /// number wider than the feature. The parser never builds such a
    /// query; a hand-built [`Query`] can.
    InvalidRestriction(Feature),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoMatchingSummaries => {
                write!(f, "no stored summary matches the FROM/location selection")
            }
            QueryError::IncompatibleSummaries => {
                write!(f, "matching summaries have incompatible configurations")
            }
            QueryError::InvalidRestriction(feature) => {
                write!(f, "invalid restriction on {feature}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// One result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultRow {
    /// The flow the row describes (`None` for scalar results).
    pub key: Option<FlowKey>,
    /// The popularity score.
    pub score: u64,
    /// Extra annotation (e.g. the discounted HHH score).
    pub note: Option<String>,
    /// The location this row belongs to (`None` unless `GROUP BY location`).
    pub location: Option<String>,
}

/// How much of the queried data a result actually covers: the locations
/// whose summaries were consulted vs the locations the query's plan
/// needed. A degraded (partial) execution skips unreachable locations, so
/// `reached < total` — see [`FlowDb::execute_partial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completeness {
    /// Locations whose summaries contributed to the result.
    pub reached: usize,
    /// Locations holding summaries of the query's plan.
    pub total: usize,
}

impl Completeness {
    /// A fully complete result over `n` locations.
    pub fn complete(n: usize) -> Self {
        Completeness {
            reached: n,
            total: n,
        }
    }

    /// `reached / total` as a fraction (1.0 when nothing matched at all —
    /// an empty result is vacuously complete).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.reached as f64 / self.total as f64
        }
    }

    /// Whether every planned location was consulted.
    pub fn is_complete(&self) -> bool {
        self.reached == self.total
    }
}

impl fmt::Display for Completeness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} locations", self.reached, self.total)
    }
}

/// Per-query resource accounting: how much work an execution did and how
/// long its stages took.
///
/// The *work* fields (locations, summaries, nodes, bytes, rows) are pure
/// functions of the database contents and the query, so they are
/// **bit-identical across [`Parallelism`](crate::par) settings** — the
/// equivalence tests pin this. The `*_micros` *timing* fields are
/// wall-clock measurements and vary run to run; they are deliberately
/// **excluded from `PartialEq`/`Eq`** so result comparison (and the
/// sequential-vs-threaded oracle) stays exact.
#[derive(Debug, Clone, Default)]
pub struct QueryCost {
    /// Locations whose summaries were consulted (fan-out width).
    pub locations: usize,
    /// Summaries the plan reads to answer the query: stored summaries,
    /// with a location's rollup counting as one.
    pub summaries: usize,
    /// Total materialized Flowtree nodes in the consulted summaries (a
    /// rollup's once caught up).
    pub nodes_visited: usize,
    /// Total wire bytes of the consulted summaries (the merge input).
    pub bytes_merged: u64,
    /// Result rows produced.
    pub rows_returned: usize,
    /// Wall-clock micros spent selecting and grouping summaries.
    pub plan_micros: u64,
    /// Wall-clock micros spent in the fan-out + merge + operator stage.
    pub run_micros: u64,
    /// Wall-clock micros for the whole execution.
    pub total_micros: u64,
}

impl QueryCost {
    /// Adds the work fields of `other` (summaries, nodes, bytes).
    fn add_work(&mut self, other: &QueryCost) {
        self.summaries += other.summaries;
        self.nodes_visited += other.nodes_visited;
        self.bytes_merged += other.bytes_merged;
    }

    /// Deterministic work units for ranking queries by expense: bytes
    /// merged dominate (the merge step is the paper's costly primitive),
    /// with node and row counts as tie-breakers. Stable across runs and
    /// parallelism settings, unlike wall-clock time.
    pub fn work_units(&self) -> u64 {
        self.bytes_merged + self.nodes_visited as u64 + self.rows_returned as u64
    }
}

impl PartialEq for QueryCost {
    fn eq(&self, other: &Self) -> bool {
        // Timing fields excluded: only deterministic work is compared.
        self.locations == other.locations
            && self.summaries == other.summaries
            && self.nodes_visited == other.nodes_visited
            && self.bytes_merged == other.bytes_merged
            && self.rows_returned == other.rows_returned
    }
}

impl Eq for QueryCost {}

impl fmt::Display for QueryCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} location(s), {} summaries, {} nodes, {} B merged, {} row(s) in {}us (plan {}us, run {}us)",
            self.locations,
            self.summaries,
            self.nodes_visited,
            self.bytes_merged,
            self.rows_returned,
            self.total_micros,
            self.plan_micros,
            self.run_micros,
        )
    }
}

/// The result of a FlowQL query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// The operator that produced the result.
    pub op: String,
    /// How many stored summaries were merged to answer it.
    pub summaries_used: usize,
    /// Result rows, most significant first (grouped queries order by
    /// location first).
    pub rows: Vec<ResultRow>,
    /// Locations reached vs planned (always complete outside degraded
    /// executions).
    pub completeness: Completeness,
    /// The unreachable locations the plan needed and skipped, sorted
    /// (empty when the result is complete).
    pub skipped: Vec<String>,
    /// Resource accounting for the execution that produced this result.
    pub cost: QueryCost,
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "-- {} over {} summaries, {} row(s)",
            self.op,
            self.summaries_used,
            self.rows.len()
        )?;
        if !self.completeness.is_complete() {
            write!(f, " [PARTIAL: {}]", self.completeness)?;
        }
        writeln!(f)?;
        let mut current_location: Option<&str> = None;
        for row in &self.rows {
            if let Some(loc) = &row.location {
                if current_location != Some(loc.as_str()) {
                    writeln!(f, "[{loc}]")?;
                    current_location = Some(loc);
                }
            }
            match (&row.key, &row.note) {
                (Some(k), Some(n)) => writeln!(f, "{:>12}  {k}  ({n})", row.score)?,
                (Some(k), None) => writeln!(f, "{:>12}  {k}", row.score)?,
                (None, Some(n)) => writeln!(f, "{:>12}  ({n})", row.score)?,
                (None, None) => writeln!(f, "{:>12}", row.score)?,
            }
        }
        Ok(())
    }
}

/// Runs one Table II operator on a merged tree.
fn run_op(merged: &Flowtree, op: &SelectOp, where_key: &FlowKey) -> Vec<ResultRow> {
    let row = |key: Option<FlowKey>, score: u64, note: Option<String>| ResultRow {
        key,
        score,
        note,
        location: None,
    };
    match op {
        SelectOp::Query => vec![row(Some(*where_key), merged.query(where_key).value(), None)],
        SelectOp::Drilldown => merged
            .drilldown(where_key)
            .into_iter()
            .map(|e| {
                row(
                    Some(e.key),
                    e.score.value(),
                    e.is_leaf.then(|| "leaf".to_owned()),
                )
            })
            .collect(),
        SelectOp::TopK(k) => merged
            .top_k_where(*k, |key| where_key.contains(key))
            .into_iter()
            .map(|(key, score)| row(Some(key), score.value(), None))
            .collect(),
        SelectOp::Above(x) => merged
            .above_x(Popularity::new(*x))
            .into_iter()
            .filter(|(key, _)| where_key.contains(key))
            .map(|(key, score)| row(Some(key), score.value(), None))
            .collect(),
        SelectOp::Hhh(x) => merged
            .hhh(Popularity::new(*x))
            .into_iter()
            .filter(|item| where_key.contains(&item.key))
            .map(|item| {
                row(
                    Some(item.key),
                    item.score.value(),
                    Some(format!("discounted {}", item.discounted)),
                )
            })
            .collect(),
    }
}

/// One step of FlowDB's left fold of trees: `tree` starts the fold as a
/// copy when `acc` is empty and merges into it otherwise. A tree whose
/// configuration is not compatible with the fold's
/// (`FlowtreeConfig::compatible_with`) is
/// [`QueryError::IncompatibleSummaries`], and `acc` keeps the trees
/// folded before it. Group merges, rollup catch-ups and the fold of the
/// location partials all step through here.
pub(crate) fn fold_tree(acc: &mut Option<Flowtree>, tree: &Flowtree) -> Result<(), QueryError> {
    match acc {
        None => *acc = Some(tree.clone()),
        Some(merged) if merged.config().compatible_with(tree.config()) => merged.merge(tree),
        Some(_) => return Err(QueryError::IncompatibleSummaries),
    }
    Ok(())
}

/// Merges the trees of a group of entries, left to right from a copy of
/// the first.
fn merge_group(entries: &[&DbEntry]) -> Result<Flowtree, QueryError> {
    let mut merged = None;
    for entry in entries {
        fold_tree(&mut merged, &entry.tree)?;
    }
    merged.ok_or(QueryError::NoMatchingSummaries)
}

/// One location's share of a fan-out: the planned entries, in insertion
/// order.
struct LocationGroup<'a> {
    location: &'a str,
    entries: Vec<&'a DbEntry>,
    /// The group holds every entry indexed at its location, and at least
    /// two: the fan-out reads the location's rollup instead of merging
    /// them.
    rollup: bool,
}

impl LocationGroup<'_> {
    /// How many summaries the group reads: its entries, or one rollup.
    fn summaries(&self) -> usize {
        if self.rollup {
            1
        } else {
            self.entries.len()
        }
    }
}

/// The plan stage: the query's cover ([`FlowDb::cover`]) grouped by
/// location, in location order (`BTreeMap` iteration), each group's
/// entries in insertion order, and each group marked when it reads its
/// location's rollup. When `scope` records, each group's summaries are
/// annotated in that order: a rollup with its location, how many entries
/// it stands for, how many of them this query folds in (read here, before
/// the fan-out catches it up) and its mass; any other planned summary
/// with its location, window and mass, and an aggregate with how many
/// entries it stands for.
fn plan_groups<'a>(
    db: &'a FlowDb,
    query: &Query,
    unavailable: &BTreeSet<String>,
    scope: &mut Scope,
) -> Vec<LocationGroup<'a>> {
    let mut by_location: BTreeMap<&str, LocationGroup<'a>> = BTreeMap::new();
    for entry in db.cover(query, unavailable) {
        let group = by_location
            .entry(entry.location.as_str())
            .or_insert_with(|| LocationGroup {
                location: entry.location.as_str(),
                entries: Vec::new(),
                rollup: false,
            });
        group.entries.push(entry);
    }
    let mut groups: Vec<LocationGroup<'a>> = by_location.into_values().collect();
    for group in &mut groups {
        let planned = group.entries.len();
        group.rollup = planned >= 2 && planned == db.entries_at(group.location);
        if scope.is_recording() {
            annotate_group(db, group, scope);
        }
    }
    groups
}

/// The `flowdb.plan` annotations of one group (see [`plan_groups`]).
fn annotate_group(db: &FlowDb, group: &LocationGroup<'_>, scope: &mut Scope) {
    if group.rollup {
        let entries = group.entries.iter();
        let mass = entries.fold(Popularity::ZERO, |mass, e| mass + e.tree.total());
        scope.annotate(
            "rollup",
            format_args!(
                "{} entries={} folds={} mass={}",
                group.location,
                group.entries.len(),
                db.rollup_lag(group.location),
                mass.value()
            ),
        );
        return;
    }
    for entry in &group.entries {
        let covers = entry
            .covers
            .as_ref()
            .map_or_else(String::new, |ids| format!(" covers={}", ids.len()));
        scope.annotate(
            "summary",
            format_args!(
                "{} {} mass={}{covers}",
                entry.location,
                entry.window,
                entry.tree.total().value()
            ),
        );
    }
}

/// One group's partial, with the work it stands for: the location's
/// rollup ([`FlowDb::rollup`]), one summary with the caught-up rollup's
/// node count and wire bytes whether this query built it or found it
/// warm; otherwise the left fold of the group's entries, with theirs.
/// Rollup catch-ups count into `flowdb.rollup.folds_total`.
fn partial(
    db: &FlowDb,
    group: &LocationGroup<'_>,
    tel: &Telemetry,
) -> Result<(Flowtree, QueryCost), QueryError> {
    if !group.rollup {
        let trees = || group.entries.iter().map(|e| &e.tree);
        let work = QueryCost {
            summaries: group.entries.len(),
            nodes_visited: trees().map(Flowtree::node_count).sum(),
            bytes_merged: trees().map(|t| t.wire_size() as u64).sum(),
            ..QueryCost::default()
        };
        return Ok((merge_group(&group.entries)?, work));
    }
    let (rollup, folds) = db.rollup(group.location)?;
    if folds > 0 {
        tel.counter("flowdb.rollup.folds_total").add(folds as u64);
    }
    let work = QueryCost {
        summaries: 1,
        nodes_visited: rollup.node_count(),
        bytes_merged: rollup.wire_size() as u64,
        ..QueryCost::default()
    };
    Ok((rollup, work))
}

/// The fan-out + merge + operator stage: every group in `groups` is
/// scanned — concurrently on up to
/// [`Parallelism::worker_count`](crate::Parallelism) threads, the
/// caller's included — and the partial results are combined **in location
/// order**, so the outcome is independent of the thread count. Returns the
/// result rows and the work the groups' partials stand for.
///
/// Each location's scan is a `flowdb.fanout` scope; the scheduler hands
/// the caller's open scope to the worker threads, so the scopes nest under
/// it from any thread. With `GROUP BY location` each carries its own
/// `flowdb.merge`/`flowdb.operator` children. Otherwise the caller folds
/// each partial into the running merge as soon as it and every earlier
/// one exist ([`fold_in_order`]): one `flowdb.merge` scope per fold step,
/// in location order, annotated with the partial's location, its summary
/// count and how many groups were still `running` (a step with
/// `running > 0` was folded while groups were still running), then one
/// `flowdb.operator`.
fn run_groups(
    db: &FlowDb,
    query: &Query,
    tel: &Telemetry,
    groups: Vec<LocationGroup<'_>>,
    where_key: &FlowKey,
) -> Result<(Vec<ResultRow>, QueryCost), QueryError> {
    let workers = db.parallelism().worker_count(groups.len());
    if tel.is_enabled() {
        tel.gauge("flowdb.fanout.workers").set(workers as i64);
    }
    let worker_micros = tel.histogram("flowdb.fanout.worker.micros", LATENCY_MICROS_BOUNDS);
    let report = |micros: u64| worker_micros.record(micros);
    let operate = |merged: &Flowtree| {
        let mut scope = tel.scope("flowdb.operator");
        scope.annotate("op", query.op.kind());
        let rows = run_op(merged, &query.op, where_key);
        scope.add_records(rows.len() as u64);
        rows
    };
    if query.group_by_location {
        // One merge-and-operate pass per location; rows concatenate in
        // location order.
        let per_location = fan_out(
            groups,
            workers,
            |group| {
                let mut scope = tel.scope("flowdb.fanout");
                scope.annotate("location", group.location);
                scope.add_records(group.summaries() as u64);
                let merge = tel.scope("flowdb.merge");
                let partial = partial(db, &group, tel);
                merge.finish();
                let (merged, work) = partial?;
                Ok((group.location, operate(&merged), work))
            },
            report,
        );
        let (mut rows, mut work) = (Vec::new(), QueryCost::default());
        for result in per_location {
            let (location, group_rows, group_work) = result?;
            work.add_work(&group_work);
            for mut row in group_rows {
                row.location = Some(location.to_owned());
                rows.push(row);
            }
        }
        return Ok((rows, work));
    }
    // Each location merges its own trees into a partial (or reads its
    // rollup); the caller folds the partials in location order as they
    // complete.
    let (merged, work) = fold_in_order(
        groups,
        workers,
        |group| {
            let mut scope = tel.scope("flowdb.fanout");
            scope.annotate("location", group.location);
            scope.add_records(group.summaries() as u64);
            let (partial, work) = partial(db, &group, tel)?;
            scope.add_bytes(work.bytes_merged);
            Ok((group.location, partial, work))
        },
        (None, QueryCost::default()),
        |acc: &mut (Option<Flowtree>, QueryCost), partial, running| {
            let (location, partial, work) = partial?;
            let mut step = tel.scope("flowdb.merge");
            step.annotate("location", location);
            step.annotate("running", running);
            step.add_records(work.summaries as u64);
            let (merged, total) = acc;
            total.add_work(&work);
            fold_tree(merged, &partial)
        },
        report,
    )?;
    let merged = merged.ok_or(QueryError::NoMatchingSummaries)?;
    Ok((operate(&merged), work))
}

/// Executes `query` against `db`, recording into `tel`; summaries of
/// `unavailable` locations are left out. See [`FlowDb::execute_with`].
///
/// The stages are scopes: `flowdb.plan` (the cover and its grouping,
/// annotated with every planned summary and rollup and any `skipped`
/// unreachable locations), then [`run_groups`]' fan-out, merge and
/// operator. The result's [`QueryCost`] times plan, run and total whether
/// or not `tel` is live; the run time also lands in `flowdb.run.micros`.
/// The result's [`Completeness`] counts the planned locations consulted —
/// all of them when none is unavailable — and `skipped` names the others.
/// If every planned location is unavailable the result is empty (`0/n`),
/// not an error.
pub(crate) fn execute(
    db: &FlowDb,
    query: &Query,
    unavailable: &BTreeSet<String>,
    tel: &Telemetry,
) -> Result<QueryResult, QueryError> {
    let where_key = query.where_key()?;
    let clock_total = clock::start();
    let mut plan = tel.scope("flowdb.plan");
    let (groups, skipped): (Vec<_>, Vec<_>) = plan_groups(db, query, unavailable, &mut plan)
        .into_iter()
        .partition(|group| !unavailable.contains(group.location));
    plan.add_records(groups.iter().map(|g| g.summaries() as u64).sum());
    let skipped: Vec<String> = skipped.iter().map(|g| g.location.to_owned()).collect();
    if !skipped.is_empty() {
        plan.annotate("skipped", skipped.join(","));
    }
    plan.finish();
    let plan_micros = clock_total.elapsed_micros();
    let total = groups.len() + skipped.len();
    if total == 0 {
        return Err(QueryError::NoMatchingSummaries);
    }
    let completeness = Completeness {
        reached: groups.len(),
        total,
    };
    // Cost counts only the work actually done: skipped locations
    // contribute nothing to the fan-out, merge, or node walks.
    let mut cost = QueryCost {
        locations: groups.len(),
        plan_micros,
        ..QueryCost::default()
    };
    let op = if query.group_by_location {
        format!("{} GROUP BY location", query.op)
    } else {
        query.op.to_string()
    };
    let rows = if groups.is_empty() {
        Vec::new()
    } else {
        let clock_run = clock::start();
        let (rows, work) = run_groups(db, query, tel, groups, &where_key)?;
        cost.add_work(&work);
        cost.run_micros = clock_run.elapsed_micros();
        tel.histogram("flowdb.run.micros", LATENCY_MICROS_BOUNDS)
            .record(cost.run_micros);
        rows
    };
    cost.rows_returned = rows.len();
    cost.total_micros = clock_total.elapsed_micros();
    Ok(QueryResult {
        op,
        summaries_used: cost.summaries,
        rows,
        completeness,
        skipped,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use megastream_flow::record::FlowRecord;
    use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
    use megastream_flowtree::FlowtreeConfig;

    fn rec(src: &str, dst: &str, dport: u16, packets: u64) -> FlowRecord {
        FlowRecord::builder()
            .proto(6)
            .src(src.parse().unwrap(), 50_000)
            .dst(dst.parse().unwrap(), dport)
            .packets(packets)
            .build()
    }

    fn w(s: u64) -> TimeWindow {
        TimeWindow::starting_at(Timestamp::from_secs(s), TimeDelta::from_secs(60))
    }

    /// Two sites, two epochs each.
    fn db() -> FlowDb {
        let mut db = FlowDb::new();
        for (site, base) in [("region-0", "10.0"), ("region-1", "10.1")] {
            for epoch in 0..2u64 {
                let mut t = Flowtree::new(FlowtreeConfig::default());
                for i in 0..5u32 {
                    t.observe(&rec(
                        &format!("{base}.0.{i}"),
                        "1.1.1.1",
                        443,
                        10 * (epoch + 1),
                    ));
                }
                // An elephant at region-1, epoch 1.
                if site == "region-1" && epoch == 1 {
                    t.observe(&rec("10.1.0.99", "2.2.2.2", 53, 1_000));
                }
                db.insert(site, w(epoch * 60), t);
            }
        }
        db
    }

    #[test]
    fn query_across_sites_and_time() {
        let db = db();
        // All traffic: 2 sites × (5×10 + 5×20) + 1000 elephant = 1300.
        let q = parse("SELECT QUERY FROM ALL").unwrap();
        let r = db.execute(&q).unwrap();
        // Each site's whole history: one rollup per site.
        assert_eq!(r.summaries_used, 2);
        assert_eq!(r.rows[0].score, 1300);
    }

    #[test]
    fn query_restricted_by_location_and_prefix() {
        let db = db();
        let q =
            parse("SELECT QUERY FROM ALL WHERE location = \"region-0\" AND src_ip = 10.0.0.0/16")
                .unwrap();
        let r = db.execute(&q).unwrap();
        assert_eq!(r.summaries_used, 1);
        assert_eq!(r.rows[0].score, 150);
    }

    #[test]
    fn query_restricted_by_time() {
        let db = db();
        let q = parse("SELECT QUERY FROM [0, 60)").unwrap();
        let r = db.execute(&q).unwrap();
        // Epoch 0 only: 2 sites × 50, one summary each, no rollup.
        assert_eq!(r.rows[0].score, 100);
        assert_eq!(r.summaries_used, 2);
    }

    #[test]
    fn topk_finds_elephant() {
        let db = db();
        let q = parse("SELECT TOPK 1 FROM ALL WHERE dst_port = 53").unwrap();
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].score, 1000);
    }

    #[test]
    fn above_filters_by_where() {
        let db = db();
        let q = parse("SELECT ABOVE 500 FROM ALL WHERE src_ip = 10.1.0.0/16").unwrap();
        let r = db.execute(&q).unwrap();
        assert!(!r.rows.is_empty());
        assert!(r.rows.iter().all(|row| row.score > 500));
    }

    #[test]
    fn hhh_reports_with_notes() {
        let db = db();
        let q = parse("SELECT HHH 900 FROM ALL").unwrap();
        let r = db.execute(&q).unwrap();
        assert!(!r.rows.is_empty());
        assert!(r.rows.iter().all(|row| row.note.is_some()));
    }

    #[test]
    fn drilldown_descends() {
        let db = db();
        let q = parse("SELECT DRILLDOWN FROM ALL WHERE src_ip = 10.0.0.0/24").unwrap();
        let r = db.execute(&q).unwrap();
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn group_by_location_runs_per_site() {
        let db = db();
        let q = parse("SELECT QUERY FROM ALL GROUP BY location").unwrap();
        let r = db.execute(&q).unwrap();
        assert_eq!(r.summaries_used, 2);
        assert_eq!(r.rows.len(), 2);
        let by_loc: std::collections::BTreeMap<&str, u64> = r
            .rows
            .iter()
            .map(|row| (row.location.as_deref().unwrap(), row.score))
            .collect();
        assert_eq!(by_loc["region-0"], 150);
        assert_eq!(by_loc["region-1"], 1150);
        // Display prints location headers.
        let text = r.to_string();
        assert!(text.contains("[region-0]"));
        assert!(text.contains("GROUP BY location"));
    }

    #[test]
    fn group_by_composes_with_where() {
        let db = db();
        let q =
            parse("SELECT TOPK 1 FROM [60, 120) WHERE dst_port = 443 GROUP BY location").unwrap();
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert!(r.rows.iter().all(|row| row.location.is_some()));
        // Epoch 1 per-site top flows carry 20 packets each.
        assert!(r.rows.iter().all(|row| row.score >= 20));
    }

    #[test]
    fn group_by_parse_errors() {
        assert!(parse("SELECT QUERY FROM ALL GROUP BY proto").is_err());
        assert!(parse("SELECT QUERY FROM ALL GROUP location").is_err());
    }

    #[test]
    fn no_matching_summaries_error() {
        let db = db();
        let q = parse("SELECT QUERY FROM [900, 999)").unwrap();
        assert_eq!(db.execute(&q), Err(QueryError::NoMatchingSummaries));
        let q2 = parse("SELECT QUERY FROM ALL WHERE location = \"mars\"").unwrap();
        assert_eq!(db.execute(&q2), Err(QueryError::NoMatchingSummaries));
        let q3 = parse("SELECT QUERY FROM [900, 999) GROUP BY location").unwrap();
        assert_eq!(db.execute(&q3), Err(QueryError::NoMatchingSummaries));
    }

    #[test]
    fn incompatible_summaries_error() {
        use megastream_flow::score::ScoreKind;
        let mut db = FlowDb::new();
        db.insert("a", w(0), Flowtree::new(FlowtreeConfig::default()));
        db.insert(
            "a",
            w(60),
            Flowtree::new(FlowtreeConfig::default().with_score_kind(ScoreKind::Bytes)),
        );
        let q = parse("SELECT QUERY FROM ALL").unwrap();
        assert_eq!(db.execute(&q), Err(QueryError::IncompatibleSummaries));
    }

    #[test]
    fn a_hand_built_restriction_of_the_wrong_kind_is_an_error() {
        use crate::ast::{Restriction, TimeSelection};
        let db = db();
        let query = |restriction| Query {
            op: SelectOp::Query,
            time: TimeSelection::All,
            restrictions: vec![restriction],
            group_by_location: false,
        };
        let cases = [
            (
                Restriction::IpFeature {
                    feature: Feature::DstPort,
                    prefix: "10.0.0.0/8".parse().unwrap(),
                },
                Feature::DstPort,
            ),
            (
                Restriction::NumericFeature {
                    feature: Feature::SrcIp,
                    value: 7,
                },
                Feature::SrcIp,
            ),
            (
                Restriction::NumericFeature {
                    feature: Feature::Proto,
                    value: 256,
                },
                Feature::Proto,
            ),
        ];
        for (restriction, feature) in cases {
            let q = query(restriction);
            let want = QueryError::InvalidRestriction(feature);
            assert_eq!(q.where_key(), Err(want.clone()));
            assert_eq!(db.execute(&q), Err(want.clone()));
            let down: BTreeSet<String> = ["region-0".to_owned()].into();
            assert_eq!(db.execute_partial(&q, &down), Err(want));
        }
        // The widest values that fit still run.
        let fits = query(Restriction::NumericFeature {
            feature: Feature::DstPort,
            value: u32::from(u16::MAX),
        });
        assert!(db.execute(&fits).is_ok());
    }

    #[test]
    fn partial_execution_excludes_unavailable_locations() {
        let db = db();
        let q = parse("SELECT QUERY FROM ALL").unwrap();
        let unavailable: BTreeSet<String> = ["region-1".to_owned()].into();
        let r = db.execute_partial(&q, &unavailable).unwrap();
        // region-0 only: 150 packets, its rollup, 1 of 2 locations.
        assert_eq!(r.rows[0].score, 150);
        assert_eq!(r.summaries_used, 1);
        assert_eq!(
            r.completeness,
            Completeness {
                reached: 1,
                total: 2
            }
        );
        assert!((r.completeness.fraction() - 0.5).abs() < 1e-9);
        assert!(!r.completeness.is_complete());
        assert!(r.to_string().contains("[PARTIAL: 1/2 locations]"));
        // The complete execution of the same query says so.
        let full = db.execute(&q).unwrap();
        assert!(full.completeness.is_complete());
        assert_eq!(full.completeness, Completeness::complete(2));
        assert!(!full.to_string().contains("PARTIAL"));
    }

    #[test]
    fn partial_execution_composes_with_group_by() {
        let db = db();
        let q = parse("SELECT QUERY FROM ALL GROUP BY location").unwrap();
        let unavailable: BTreeSet<String> = ["region-1".to_owned()].into();
        let r = db.execute_partial(&q, &unavailable).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].location.as_deref(), Some("region-0"));
        assert_eq!(
            r.completeness,
            Completeness {
                reached: 1,
                total: 2
            }
        );
        assert!(r.op.contains("GROUP BY location"));
    }

    #[test]
    fn all_locations_unavailable_is_empty_not_error() {
        let db = db();
        let q = parse("SELECT QUERY FROM ALL").unwrap();
        let unavailable: BTreeSet<String> = ["region-0".to_owned(), "region-1".to_owned()].into();
        let r = db.execute_partial(&q, &unavailable).unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.summaries_used, 0);
        assert_eq!(
            r.completeness,
            Completeness {
                reached: 0,
                total: 2
            }
        );
        assert_eq!(r.completeness.fraction(), 0.0);
        // But a query matching nothing at all still errors.
        let q2 = parse("SELECT QUERY FROM [900, 999)").unwrap();
        assert_eq!(
            db.execute_partial(&q2, &unavailable),
            Err(QueryError::NoMatchingSummaries)
        );
    }

    #[test]
    fn unavailable_set_not_matching_anything_is_complete() {
        let db = db();
        let q = parse("SELECT QUERY FROM ALL").unwrap();
        let unavailable: BTreeSet<String> = ["mars".to_owned()].into();
        let r = db.execute_partial(&q, &unavailable).unwrap();
        assert!(r.completeness.is_complete());
        assert_eq!(r.rows[0].score, 1300);
    }

    #[test]
    fn huge_time_range_is_parse_error_not_panic() {
        // Seconds past u64::MAX / 1e6 would overflow Timestamp::from_secs.
        let err = parse("SELECT QUERY FROM [0, 99999999999999999999]");
        assert!(err.is_err());
        let err = parse("SELECT QUERY FROM [0, 18446744073709551)").unwrap_err();
        assert!(err.to_string().contains("out of range") || format!("{err:?}").contains("Range"));
        // The largest representable bound still parses.
        assert!(parse("SELECT QUERY FROM [0, 18446744073709)").is_ok());
    }

    #[test]
    fn query_cost_accounts_deterministic_work() {
        let db = db();
        let q = parse("SELECT QUERY FROM ALL").unwrap();
        let r = db.execute(&q).unwrap();
        assert_eq!(r.cost.locations, 2);
        assert_eq!(r.cost.summaries, 2);
        assert_eq!(r.cost.summaries, r.summaries_used);
        assert_eq!(r.cost.rows_returned, r.rows.len());
        assert!(r.cost.nodes_visited > 0);
        assert!(r.cost.bytes_merged > 0);
        assert!(r.cost.work_units() >= r.cost.bytes_merged);
        // Equality ignores wall-clock timing: a re-run compares equal even
        // though its micros differ.
        let again = db.execute(&q).unwrap();
        assert_eq!(r, again);
        assert_eq!(r.cost, again.cost);
        let text = r.cost.to_string();
        assert!(text.contains("2 location(s)"));
        assert!(text.contains("2 summaries"));
    }

    #[test]
    fn partial_cost_counts_only_reached_locations() {
        let db = db();
        let q = parse("SELECT QUERY FROM ALL").unwrap();
        let full = db.execute(&q).unwrap();
        let unavailable: BTreeSet<String> = ["region-1".to_owned()].into();
        let r = db.execute_partial(&q, &unavailable).unwrap();
        assert_eq!(r.cost.locations, 1);
        assert_eq!(r.cost.summaries, 1);
        assert!(r.cost.bytes_merged < full.cost.bytes_merged);
        assert!(r.cost.nodes_visited < full.cost.nodes_visited);
        // All locations down: zero work, zero rows.
        let all: BTreeSet<String> = ["region-0".to_owned(), "region-1".to_owned()].into();
        let empty = db.execute_partial(&q, &all).unwrap();
        assert_eq!(empty.cost.work_units(), 0);
        assert_eq!(empty.cost.locations, 0);
    }

    #[test]
    fn result_display_renders_rows() {
        let db = db();
        let q = parse("SELECT TOPK 3 FROM ALL").unwrap();
        let text = db.execute(&q).unwrap().to_string();
        assert!(text.contains("TOPK 3"));
        assert!(text.lines().count() >= 2);
    }
}
