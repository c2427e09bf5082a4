//! The three storage strategies of §IV.
//!
//! > "We identify three basic strategies for storing data in the data
//! > store: (1) storage with predefined expiration, (2) storage using a
//! > round-robin mechanism, and (3) storage using a round-robin mechanism
//! > and hierarchical aggregation."

use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};

use crate::summary::StoredSummary;

/// Which storage strategy a [`SummaryStore`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageStrategy {
    /// **S1**: summaries expire `ttl` after the end of their window.
    /// Storage use is unbounded but retention is guaranteed for `ttl`.
    FixedExpiration {
        /// Time to live after a summary's window ends.
        ttl: TimeDelta,
    },
    /// **S2**: a byte budget is fully utilized; when exceeded, the oldest
    /// summaries are evicted. Retention depends on the data rate.
    RoundRobin {
        /// Storage budget in bytes.
        budget_bytes: usize,
    },
    /// **S3**: like S2, but instead of evicting, the oldest `fanout`
    /// summaries of the same source and kind are merged into one coarser
    /// summary ("older data is not expired but aggregated to a coarser
    /// granularity with a smaller footprint").
    RoundRobinHierarchical {
        /// Storage budget in bytes.
        budget_bytes: usize,
        /// How many summaries merge into one per aggregation step.
        fanout: usize,
    },
}

/// A budget-managed collection of [`StoredSummary`] values.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryStore {
    strategy: StorageStrategy,
    location: String,
    /// Ordered by insertion (oldest first).
    summaries: Vec<StoredSummary>,
    evicted: u64,
    aggregated: u64,
    /// Incrementally maintained sum of the stored summaries'
    /// [`StoredSummary::deep_bytes`]: adjusted by delta at every insert,
    /// eviction, and hierarchical aggregation instead of re-walking the
    /// store. The accounting property tests assert it equals the
    /// independent recompute [`SummaryStore::deep_bytes`] after arbitrary
    /// operation sequences.
    deep_accounted: usize,
}

impl SummaryStore {
    /// Creates an empty store running `strategy` at `location` (the
    /// location is recorded in lineage when the store transforms data).
    pub fn new(strategy: StorageStrategy, location: impl Into<String>) -> Self {
        SummaryStore {
            strategy,
            location: location.into(),
            summaries: Vec::new(),
            evicted: 0,
            aggregated: 0,
            deep_accounted: 0,
        }
    }

    /// Charges an incoming summary to the deep-byte account.
    fn account_insert(&mut self, s: &StoredSummary) {
        self.deep_accounted = self.deep_accounted.saturating_add(s.deep_bytes());
    }

    /// Discharges a summary that leaves the store (or is about to be
    /// mutated — callers discharge *before* mutating and re-charge after,
    /// so the account always reflects the state that was charged).
    fn account_remove(&mut self, s: &StoredSummary) {
        self.deep_accounted = self.deep_accounted.saturating_sub(s.deep_bytes());
    }

    /// The strategy in force.
    pub fn strategy(&self) -> StorageStrategy {
        self.strategy
    }

    /// Inserts a summary and enforces the strategy at time `now`.
    pub fn insert(&mut self, summary: StoredSummary, now: Timestamp) {
        self.account_insert(&summary);
        self.summaries.push(summary);
        self.enforce(now);
    }

    /// Enforces the strategy (expiry/eviction/aggregation) at time `now`.
    pub fn enforce(&mut self, now: Timestamp) {
        match self.strategy {
            StorageStrategy::FixedExpiration { ttl } => {
                let mut kept = Vec::with_capacity(self.summaries.len());
                for s in std::mem::take(&mut self.summaries) {
                    if s.window.end + ttl > now {
                        kept.push(s);
                    } else {
                        self.account_remove(&s);
                        self.evicted += 1;
                    }
                }
                self.summaries = kept;
            }
            StorageStrategy::RoundRobin { budget_bytes } => {
                while self.total_bytes() > budget_bytes && !self.summaries.is_empty() {
                    let gone = self.summaries.remove(0);
                    self.account_remove(&gone);
                    self.evicted += 1;
                }
            }
            StorageStrategy::RoundRobinHierarchical {
                budget_bytes,
                fanout,
            } => {
                let fanout = fanout.max(2);
                while self.total_bytes() > budget_bytes {
                    if !self.aggregate_oldest(fanout, now) {
                        // Nothing left to merge — fall back to eviction so
                        // the budget is still honoured.
                        if self.summaries.is_empty() {
                            break;
                        }
                        let gone = self.summaries.remove(0);
                        self.account_remove(&gone);
                        self.evicted += 1;
                    }
                }
            }
        }
    }

    /// Merges the oldest group of ≥2 same-source same-kind summaries into a
    /// degraded, coarser one. Returns whether any aggregation happened.
    fn aggregate_oldest(&mut self, fanout: usize, now: Timestamp) -> bool {
        // Find the oldest summary that has at least one mergeable sibling.
        for i in 0..self.summaries.len() {
            let (source, kind, level) = {
                let s = &self.summaries[i];
                (s.source.clone(), s.summary.kind(), s.level)
            };
            let mut group = vec![i];
            for (j, s) in self.summaries.iter().enumerate().skip(i + 1) {
                if group.len() >= fanout {
                    break;
                }
                if s.source == source && s.summary.kind() == kind && s.level == level {
                    group.push(j);
                }
            }
            if group.len() >= 2 {
                // Merge group members into the first, back to front so
                // indices stay valid. Accounting: every member is
                // discharged *before* the merge mutates it, and the
                // compressed result is re-charged once finished.
                let mut base = self.summaries[group[0]].clone();
                self.account_remove(&base);
                for &j in group[1..].iter().rev() {
                    let other = self.summaries.remove(j);
                    self.account_remove(&other);
                    base.merge(&other, &self.location, now);
                }
                base.level = level + 1;
                base.summary.degrade(fanout);
                base.lineage
                    .record("hierarchical-aggregate", &self.location, now);
                self.account_insert(&base);
                self.summaries[group[0]] = base;
                self.aggregated += 1;
                return true;
            }
        }
        false
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.summaries.iter().map(|s| s.wire_size()).sum()
    }

    /// Total deterministic deep in-memory bytes of the stored summaries,
    /// recomputed independently from scratch (the accounting-plane
    /// counterpart of [`SummaryStore::total_bytes`]). The property tests
    /// compare this against [`SummaryStore::accounted_deep_bytes`].
    pub fn deep_bytes(&self) -> usize {
        self.summaries.iter().map(StoredSummary::deep_bytes).sum()
    }

    /// `(live nodes, arena bytes)` across the stored Flowtree summaries
    /// (drives the `flowtree.arena.nodes` / `flowtree.arena.bytes`
    /// gauges).
    pub fn arena_stats(&self) -> (usize, usize) {
        self.summaries
            .iter()
            .filter_map(|s| s.summary.as_flowtree())
            .fold((0, 0), |(nodes, bytes), t| {
                (nodes + t.len(), bytes + t.arena_bytes())
            })
    }

    /// The incrementally maintained deep-byte account (what the
    /// `store.memory.bytes` gauge carries). Equal to
    /// [`SummaryStore::deep_bytes`] by the accounting invariant.
    pub fn accounted_deep_bytes(&self) -> usize {
        self.deep_accounted
    }

    /// Number of stored summaries.
    pub fn len(&self) -> usize {
        self.summaries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }

    /// Summaries whose window overlaps `window`.
    pub fn summaries_in(&self, window: TimeWindow) -> impl Iterator<Item = &StoredSummary> {
        self.summaries
            .iter()
            .filter(move |s| s.window.overlaps(window))
    }

    /// All stored summaries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &StoredSummary> {
        self.summaries.iter()
    }

    /// The oldest window still covered by any summary, if non-empty.
    pub fn oldest_window(&self) -> Option<TimeWindow> {
        self.summaries
            .iter()
            .map(|s| s.window)
            .min_by_key(|w| w.start)
    }

    /// How many summaries were evicted outright (data irrecoverably lost —
    /// "when a data store chooses to delete data, it cannot be recovered").
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// How many hierarchical aggregation steps ran.
    pub fn aggregations(&self) -> u64 {
        self.aggregated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{Lineage, Summary};
    use megastream_flow::record::FlowRecord;
    use megastream_flowtree::{Flowtree, FlowtreeConfig};

    fn tree_summary(n_flows: u32, epoch: u64) -> StoredSummary {
        let mut t = Flowtree::new(FlowtreeConfig::default().with_capacity(4096));
        for i in 0..n_flows {
            t.observe(
                &FlowRecord::builder()
                    .proto(6)
                    .src(format!("10.0.{}.{}", i / 250, i % 250).parse().unwrap(), 99)
                    .dst("1.1.1.1".parse().unwrap(), 443)
                    .packets(1)
                    .build(),
            );
        }
        StoredSummary::new(
            "router-0",
            TimeWindow::starting_at(Timestamp::from_secs(epoch * 60), TimeDelta::from_secs(60)),
            Summary::Flowtree(t),
            Lineage::from_source("router-0"),
        )
    }

    #[test]
    fn s1_expires_old_summaries() {
        let mut store = SummaryStore::new(
            StorageStrategy::FixedExpiration {
                ttl: TimeDelta::from_secs(120),
            },
            "edge",
        );
        for epoch in 0..5 {
            store.insert(
                tree_summary(10, epoch),
                Timestamp::from_secs(epoch * 60 + 60),
            );
        }
        // At t=360 s only summaries with window.end + ttl > 360 survive,
        // i.e. end > 240 s — epoch 4 alone (epoch 3 ends exactly at 240).
        store.enforce(Timestamp::from_secs(360));
        assert_eq!(store.len(), 1);
        assert!(store.evicted() >= 4);
        assert_eq!(
            store.oldest_window().unwrap().start,
            Timestamp::from_secs(240)
        );
    }

    #[test]
    fn s2_honours_budget_by_dropping_oldest() {
        let one_size = tree_summary(50, 0).wire_size();
        let mut store = SummaryStore::new(
            StorageStrategy::RoundRobin {
                budget_bytes: one_size * 3,
            },
            "edge",
        );
        for epoch in 0..10 {
            store.insert(tree_summary(50, epoch), Timestamp::from_secs(epoch * 60));
        }
        assert!(store.total_bytes() <= one_size * 3);
        assert!(store.len() <= 3);
        // Newest survive.
        assert!(store
            .iter()
            .any(|s| s.window.start == Timestamp::from_secs(9 * 60)));
        assert!(store.evicted() >= 7);
    }

    #[test]
    fn s3_aggregates_instead_of_dropping() {
        let one_size = tree_summary(50, 0).wire_size();
        let mut store = SummaryStore::new(
            StorageStrategy::RoundRobinHierarchical {
                budget_bytes: one_size * 3,
                fanout: 2,
            },
            "edge",
        );
        for epoch in 0..10 {
            store.insert(tree_summary(50, epoch), Timestamp::from_secs(epoch * 60));
        }
        assert!(store.total_bytes() <= one_size * 3 + one_size);
        assert!(store.aggregations() > 0);
        // Old data is still covered: some summary reaches back to epoch 0.
        let oldest = store.oldest_window().unwrap();
        assert_eq!(oldest.start, Timestamp::ZERO);
        // Aggregated summaries moved up a level and merged lineage ops.
        let top = store.iter().map(|s| s.level).max().unwrap();
        assert!(top >= 1);
        let agg = store.iter().find(|s| s.level >= 1).unwrap();
        assert!(agg
            .lineage
            .transforms
            .iter()
            .any(|t| t.op == "hierarchical-aggregate"));
    }

    #[test]
    fn s3_retains_total_mass() {
        let mut store = SummaryStore::new(
            StorageStrategy::RoundRobinHierarchical {
                budget_bytes: tree_summary(50, 0).wire_size() * 2,
                fanout: 2,
            },
            "edge",
        );
        for epoch in 0..8 {
            store.insert(tree_summary(50, epoch), Timestamp::from_secs(epoch * 60));
        }
        let total: u64 = store
            .iter()
            .map(|s| match &s.summary {
                Summary::Flowtree(t) => t.total().value(),
                _ => 0,
            })
            .sum();
        // 8 epochs × 50 flows × 1 packet — aggregation loses no mass (as
        // long as nothing was evicted outright).
        assert_eq!(total + store.evicted() * 50, 8 * 50);
    }

    #[test]
    fn query_by_window() {
        let mut store = SummaryStore::new(
            StorageStrategy::FixedExpiration {
                ttl: TimeDelta::from_hours(1),
            },
            "edge",
        );
        for epoch in 0..5 {
            store.insert(tree_summary(5, epoch), Timestamp::from_secs(epoch * 60));
        }
        let w = TimeWindow::starting_at(Timestamp::from_secs(60), TimeDelta::from_secs(120));
        assert_eq!(store.summaries_in(w).count(), 2);
    }
}
