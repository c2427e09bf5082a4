//! Type-erased data summaries and schema-level lineage.
//!
//! Data stores exchange summaries up and down the hierarchy; since a store
//! may host heterogeneous aggregators, the exchanged unit is the
//! [`Summary`] enum. Every stored summary carries a [`Lineage`] tag —
//! *schema-level* lineage as argued in §III-C ("instance-level … usually
//! comes at a high cost"): which sources fed it and which transformations it
//! went through, but not per-item provenance.

use megastream_flow::key::FlowKey;
use megastream_flow::record::FlowRecord;
use megastream_flow::score::{Popularity, ScoreKind};
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_flowtree::Flowtree;
use megastream_primitives::aggregator::{Combinable, ComputingPrimitive};
use megastream_primitives::exact::ExactFlowTable;
use megastream_primitives::sampling::SampledSeries;
use megastream_primitives::spacesaving::SpaceSaving;
use megastream_primitives::timebin::BinnedSeries;

/// One record of a transformation applied to a summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformRecord {
    /// Operation name (`"snapshot"`, `"merge"`, `"hierarchical-aggregate"`,
    /// `"replicate"`, ...).
    pub op: String,
    /// Where it happened (data-store name).
    pub location: String,
    /// When it happened.
    pub at: Timestamp,
}

/// Schema-level lineage: sources and transformation chain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lineage {
    /// Stream/sensor identifiers that contributed data.
    pub sources: Vec<String>,
    /// Transformations applied, oldest first.
    pub transforms: Vec<TransformRecord>,
}

impl Lineage {
    /// Lineage with a single source.
    pub fn from_source(source: impl Into<String>) -> Self {
        Lineage {
            sources: vec![source.into()],
            transforms: Vec::new(),
        }
    }

    /// Appends a transformation record.
    pub fn record(&mut self, op: impl Into<String>, location: impl Into<String>, at: Timestamp) {
        self.transforms.push(TransformRecord {
            op: op.into(),
            location: location.into(),
            at,
        });
    }

    /// Merges another lineage (union of sources, concatenated transforms).
    pub fn absorb(&mut self, other: &Lineage) {
        for s in &other.sources {
            if !self.sources.contains(s) {
                self.sources.push(s.clone());
            }
        }
        self.transforms.extend(other.transforms.iter().cloned());
    }
}

/// A type-erased data summary produced by some aggregator.
// Flowtree dwarfs the other variants; summaries are moved, not stored in
// dense arrays, so the padding is cheaper than boxing every query path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Summary {
    /// A Flowtree (network-monitoring primitive, §VI).
    Flowtree(Flowtree),
    /// A sampled time series (the §V-B toy primitive).
    Series(SampledSeries),
    /// Time-bin statistics.
    Bins(BinnedSeries),
    /// Space-Saving top flows.
    TopFlows(SpaceSaving<FlowKey>),
    /// An exact flow table (ground truth / small streams).
    Exact(ExactFlowTable),
    /// Raw flow records (Fig. 4 "Raw Access"): the most recent records,
    /// bounded by the ring capacity — full detail, shortest retention.
    Raw {
        /// The retained records, oldest first.
        records: Vec<FlowRecord>,
        /// The measure [`Summary::flow_score`] counts over them.
        score_kind: ScoreKind,
    },
}

impl Summary {
    /// Short kind name (used in lineage and reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Summary::Flowtree(_) => "flowtree",
            Summary::Series(_) => "series",
            Summary::Bins(_) => "bins",
            Summary::TopFlows(_) => "top-flows",
            Summary::Exact(_) => "exact",
            Summary::Raw { .. } => "raw",
        }
    }

    /// Approximate serialized size in bytes (drives storage budgets and
    /// transfer accounting).
    pub fn wire_size(&self) -> usize {
        match self {
            Summary::Flowtree(t) => t.wire_size(),
            Summary::Series(s) => s.len() * 24 + 32,
            Summary::Bins(b) => b.len() * 320 + 32,
            Summary::TopFlows(ss) => ss.len() * (std::mem::size_of::<FlowKey>() + 16) + 32,
            Summary::Exact(t) => t.len() * (std::mem::size_of::<FlowKey>() + 8) + 32,
            Summary::Raw { records, .. } => records.len() * FlowRecord::WIRE_BYTES + 32,
        }
    }

    /// Deterministic deep in-memory size in bytes — the accounting-plane
    /// counterpart of [`Summary::wire_size`]. A pure function of element
    /// counts (never allocator capacities), so independently recomputing
    /// it always reproduces the incrementally maintained gauges.
    pub fn deep_bytes(&self) -> usize {
        match self {
            Summary::Flowtree(t) => t.deep_bytes(),
            Summary::TopFlows(ss) => ComputingPrimitive::deep_bytes(ss),
            Summary::Exact(t) => ComputingPrimitive::deep_bytes(t),
            Summary::Raw { records, .. } => records.len() * FlowRecord::WIRE_BYTES + 32,
            // Scalar summaries: the wire estimate is already a pure
            // function of their element counts.
            Summary::Series(_) | Summary::Bins(_) => self.wire_size(),
        }
    }

    /// The inner Flowtree, if this is a flowtree summary.
    pub fn as_flowtree(&self) -> Option<&Flowtree> {
        match self {
            Summary::Flowtree(t) => Some(t),
            _ => None,
        }
    }

    /// Number of discrete elements (tree nodes, counters, entries,
    /// records) the summary holds.
    pub fn node_count(&self) -> usize {
        match self {
            Summary::Flowtree(t) => t.node_count(),
            Summary::Series(s) => s.len(),
            Summary::Bins(b) => b.len(),
            Summary::TopFlows(ss) => ss.len(),
            Summary::Exact(t) => t.len(),
            Summary::Raw { records, .. } => records.len(),
        }
    }

    /// Combines another summary of the *same kind* into this one
    /// (property P2).
    ///
    /// # Panics
    ///
    /// Panics if the kinds differ — heterogeneous summaries cannot be
    /// combined meaningfully.
    pub fn combine(&mut self, other: &Summary) {
        match (self, other) {
            (Summary::Flowtree(a), Summary::Flowtree(b)) => a.merge(b),
            (Summary::Series(a), Summary::Series(b)) => a.combine(b),
            (Summary::Bins(a), Summary::Bins(b)) => a.combine(b),
            (Summary::TopFlows(a), Summary::TopFlows(b)) => a.combine(b),
            (Summary::Exact(a), Summary::Exact(b)) => a.combine(b),
            (Summary::Raw { records: a, .. }, Summary::Raw { records: b, .. }) => {
                a.extend_from_slice(b);
                a.sort_by_key(|r| r.ts);
            }
            (me, other) => panic!(
                "cannot combine summary kinds {} and {}",
                me.kind(),
                other.kind()
            ),
        }
    }

    /// Reduces the summary's detail (and footprint) by roughly `factor`
    /// (used by storage strategy S3, hierarchical aggregation).
    pub fn degrade(&mut self, factor: usize) {
        let factor = factor.max(2);
        match self {
            Summary::Flowtree(t) => {
                let target = (t.len() / factor).max(1);
                t.compress_to(target);
            }
            Summary::Series(s) => s.thin(factor),
            Summary::Bins(b) => {
                let width =
                    TimeDelta::from_micros(b.width().as_micros().saturating_mul(factor as u64));
                *b = b.coarsened_to(width);
            }
            Summary::TopFlows(ss) => {
                let target = (ss.len() / factor).max(1);
                ss.set_capacity(target);
            }
            Summary::Exact(_) => {
                // Exact tables are ground truth; degrading them would defeat
                // their purpose. S3 keeps them as-is (they are only used for
                // baselines and small streams).
            }
            Summary::Raw { records, .. } => {
                // Raw records cannot be summarized without changing kind;
                // drop the oldest fraction (they are ordered by time).
                let keep = records.len() / factor;
                let start = records.len() - keep;
                records.drain(..start);
            }
        }
    }

    /// P1 point query where the summary supports it: the score of traffic
    /// matching `key` (flow summaries only).
    pub fn flow_score(&self, key: &FlowKey) -> Option<Popularity> {
        match self {
            Summary::Flowtree(t) => Some(t.query(key)),
            Summary::Exact(t) => Some(t.query(key)),
            Summary::TopFlows(ss) => ss.estimate(key).map(|c| Popularity::new(c.count)),
            Summary::Raw {
                records,
                score_kind,
            } => Some(
                records
                    .iter()
                    .filter(|r| key.contains(&FlowKey::from_record(r)))
                    .map(|r| score_kind.score(r))
                    .sum(),
            ),
            _ => None,
        }
    }
}

/// A summary plus the metadata the data store tracks for it.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSummary {
    /// Name of the producing data store or stream.
    pub source: String,
    /// The period the summary covers.
    pub window: TimeWindow,
    /// Aggregation level: 0 = as produced; each hierarchical re-aggregation
    /// increments it.
    pub level: u32,
    /// Schema-level provenance.
    pub lineage: Lineage,
    /// The payload.
    pub summary: Summary,
}

impl StoredSummary {
    /// Creates a level-0 summary from a freshly produced payload.
    pub fn new(
        source: impl Into<String>,
        window: TimeWindow,
        summary: Summary,
        lineage: Lineage,
    ) -> Self {
        StoredSummary {
            source: source.into(),
            window,
            level: 0,
            lineage,
            summary,
        }
    }

    /// The payload's approximate size in bytes.
    pub fn wire_size(&self) -> usize {
        self.summary.wire_size() + 64
    }

    /// Deterministic deep in-memory size: the payload's
    /// [`Summary::deep_bytes`] plus this record's fixed metadata header.
    /// Lineage strings are excluded deliberately — they grow with merge
    /// *history*, and the accounting invariant (incremental gauge ==
    /// independent recompute) must be a function of structure, not of the
    /// path that produced it.
    pub fn deep_bytes(&self) -> usize {
        self.summary.deep_bytes() + 64
    }

    /// Merges a compatible stored summary into this one: payloads combine,
    /// windows take the hull, lineages union, the level becomes the max.
    ///
    /// # Panics
    ///
    /// Panics if the payload kinds differ.
    pub fn merge(&mut self, other: &StoredSummary, location: &str, at: Timestamp) {
        self.summary.combine(&other.summary);
        self.window = if self.window.is_empty() {
            other.window
        } else if other.window.is_empty() {
            self.window
        } else {
            self.window.hull(other.window)
        };
        self.level = self.level.max(other.level);
        self.lineage.absorb(&other.lineage);
        self.lineage.record("merge", location, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_flow::key::FeatureSet;
    use megastream_flow::record::FlowRecord;
    use megastream_flow::score::ScoreKind;
    use megastream_flowtree::FlowtreeConfig;

    fn rec(src: &str, packets: u64) -> FlowRecord {
        FlowRecord::builder()
            .proto(6)
            .src(src.parse().unwrap(), 1000)
            .dst("1.1.1.1".parse().unwrap(), 80)
            .packets(packets)
            .build()
    }

    fn tree_summary(packets: u64) -> Summary {
        let mut t = Flowtree::new(FlowtreeConfig::default().with_capacity(256));
        t.observe(&rec("10.0.0.1", packets));
        Summary::Flowtree(t)
    }

    #[test]
    fn lineage_tracks_sources_and_transforms() {
        let mut l = Lineage::from_source("router-0");
        l.record("snapshot", "region-0", Timestamp::from_secs(1));
        let mut l2 = Lineage::from_source("router-1");
        l2.record("snapshot", "region-0", Timestamp::from_secs(1));
        l.absorb(&l2);
        assert_eq!(l.sources, vec!["router-0", "router-1"]);
        assert_eq!(l.transforms.len(), 2);
        // Absorbing the same source twice does not duplicate it.
        l.absorb(&Lineage::from_source("router-0"));
        assert_eq!(l.sources.len(), 2);
    }

    #[test]
    fn combine_same_kind() {
        let mut a = tree_summary(5);
        let b = tree_summary(3);
        a.combine(&b);
        match &a {
            Summary::Flowtree(t) => assert_eq!(t.total().value(), 8),
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "cannot combine")]
    fn combine_mismatched_kinds_panics() {
        let mut a = tree_summary(5);
        let b = Summary::Exact(ExactFlowTable::new(
            FeatureSet::FIVE_TUPLE,
            ScoreKind::Packets,
        ));
        a.combine(&b);
    }

    #[test]
    fn degrade_shrinks_flowtree() {
        let mut t = Flowtree::new(FlowtreeConfig::default().with_capacity(4096));
        for i in 0..100u32 {
            t.observe(&rec(&format!("10.0.{}.1", i), 1));
        }
        let mut s = Summary::Flowtree(t);
        let before = s.wire_size();
        s.degrade(4);
        assert!(s.wire_size() < before / 2);
        // Mass conserved.
        match &s {
            Summary::Flowtree(t) => assert_eq!(t.total().value(), 100),
            _ => unreachable!(),
        }
    }

    #[test]
    fn flow_score_dispatch() {
        let s = tree_summary(9);
        let key = FlowKey::from_record(&rec("10.0.0.1", 0));
        assert_eq!(s.flow_score(&key), Some(Popularity::new(9)));
        let none = Summary::Series(SampledSeries::default());
        assert_eq!(none.flow_score(&key), None);
    }

    #[test]
    fn stored_summary_merge() {
        let w1 = TimeWindow::starting_at(Timestamp::ZERO, TimeDelta::from_secs(10));
        let w2 = TimeWindow::starting_at(Timestamp::from_secs(10), TimeDelta::from_secs(10));
        let mut a = StoredSummary::new("r0", w1, tree_summary(5), Lineage::from_source("r0"));
        let b = StoredSummary::new("r1", w2, tree_summary(3), Lineage::from_source("r1"));
        a.merge(&b, "region", Timestamp::from_secs(20));
        assert_eq!(a.window.len(), TimeDelta::from_secs(20));
        assert_eq!(a.lineage.sources.len(), 2);
        assert_eq!(a.lineage.transforms.last().unwrap().op, "merge");
    }

    #[test]
    fn kinds_and_sizes() {
        let s = tree_summary(1);
        assert_eq!(s.kind(), "flowtree");
        assert!(s.wire_size() > 0);
        let e = Summary::Exact(ExactFlowTable::new(
            FeatureSet::FIVE_TUPLE,
            ScoreKind::Packets,
        ));
        assert_eq!(e.kind(), "exact");
    }
}
