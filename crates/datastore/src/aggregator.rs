//! Installable aggregator instances.
//!
//! "A data store aggregates data, using one or multiple instances of
//! computing primitives, which we refer to as aggregators" (§III-A). The
//! data store hosts heterogeneous primitives, so instances are wrapped in
//! the [`AggregatorInstance`] enum, installed from an [`AggregatorSpec`].

use std::fmt;

use megastream_flow::key::{FeatureSet, FlowKey};
use megastream_flow::record::FlowRecord;
use megastream_flow::score::ScoreKind;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_flowtree::{Flowtree, FlowtreeConfig};
use megastream_primitives::aggregator::{AdaptationFeedback, ComputingPrimitive, Granularity};
use megastream_primitives::exact::ExactFlowTable;
use megastream_primitives::sampling::SampledTimeSeries;
use megastream_primitives::spacesaving::SpaceSaving;
use megastream_primitives::timebin::TimeBinStats;

use crate::summary::Summary;

/// Identifier of an installed aggregator within one data store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AggregatorId(pub(crate) usize);

impl fmt::Display for AggregatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agg{}", self.0)
    }
}

/// Blueprint for installing an aggregator (what the manager configures,
/// Fig. 3b "add/remove", "change parameter").
#[derive(Debug, Clone, PartialEq)]
pub enum AggregatorSpec {
    /// A Flowtree over flow records.
    Flowtree(FlowtreeConfig),
    /// The §V-B toy primitive over a scalar stream.
    SampledSeries {
        /// RNG seed.
        seed: u64,
        /// Initial sampling rate in `(0, 1]`.
        rate: f64,
    },
    /// Time-bin statistics over a scalar stream.
    TimeBins {
        /// Finest bin width.
        width: TimeDelta,
        /// RNG seed for quantile reservoirs.
        seed: u64,
    },
    /// Space-Saving top flows.
    TopFlows {
        /// Number of monitored keys.
        capacity: usize,
        /// Feature projection applied to records.
        features: FeatureSet,
        /// Score measure.
        score_kind: ScoreKind,
    },
    /// An exact flow table.
    ExactFlows {
        /// Feature projection applied to records.
        features: FeatureSet,
        /// Score measure.
        score_kind: ScoreKind,
    },
    /// A raw ring buffer (Fig. 4 "Raw Access"): keeps the most recent
    /// `capacity` records at full detail.
    RawRing {
        /// Maximum records retained.
        capacity: usize,
        /// Measure used when the summary answers score queries.
        score_kind: ScoreKind,
    },
}

impl AggregatorSpec {
    /// Instantiates the aggregator.
    pub fn build(&self) -> AggregatorInstance {
        match self {
            AggregatorSpec::Flowtree(cfg) => {
                AggregatorInstance::Flowtree(Flowtree::new(cfg.clone()))
            }
            AggregatorSpec::SampledSeries { seed, rate } => AggregatorInstance::SampledSeries(
                SampledTimeSeries::new(*seed, Granularity::new(*rate)),
            ),
            AggregatorSpec::TimeBins { width, seed } => {
                AggregatorInstance::TimeBins(TimeBinStats::new(*width, *seed))
            }
            AggregatorSpec::TopFlows {
                capacity,
                features,
                score_kind,
            } => AggregatorInstance::TopFlows {
                sketch: SpaceSaving::new(*capacity),
                features: *features,
                score_kind: *score_kind,
            },
            AggregatorSpec::ExactFlows {
                features,
                score_kind,
            } => AggregatorInstance::Exact(ExactFlowTable::new(*features, *score_kind)),
            AggregatorSpec::RawRing {
                capacity,
                score_kind,
            } => AggregatorInstance::RawRing {
                buf: std::collections::VecDeque::with_capacity((*capacity).min(1 << 16)),
                capacity: (*capacity).max(1),
                score_kind: *score_kind,
            },
        }
    }

    /// Short kind name matching [`Summary::kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            AggregatorSpec::Flowtree(_) => "flowtree",
            AggregatorSpec::SampledSeries { .. } => "series",
            AggregatorSpec::TimeBins { .. } => "bins",
            AggregatorSpec::TopFlows { .. } => "top-flows",
            AggregatorSpec::ExactFlows { .. } => "exact",
            AggregatorSpec::RawRing { .. } => "raw",
        }
    }

    /// Whether the aggregator consumes flow records (vs scalar readings).
    pub fn consumes_flows(&self) -> bool {
        matches!(
            self,
            AggregatorSpec::Flowtree(_)
                | AggregatorSpec::TopFlows { .. }
                | AggregatorSpec::ExactFlows { .. }
                | AggregatorSpec::RawRing { .. }
        )
    }
}

/// A live aggregator instance inside a data store.
#[allow(
    clippy::large_enum_variant,
    reason = "Flowtree dwarfs the other variants; instances live in a store's small \
              aggregator table, so per-variant boxing would cost more indirection on \
              every observe() than the padding costs in memory"
)]
#[derive(Debug, Clone)]
pub enum AggregatorInstance {
    /// A Flowtree.
    Flowtree(Flowtree),
    /// A sampled time series.
    SampledSeries(SampledTimeSeries),
    /// Time-bin statistics.
    TimeBins(TimeBinStats),
    /// Space-Saving top flows with its projection parameters.
    TopFlows {
        /// The sketch.
        sketch: SpaceSaving<FlowKey>,
        /// Feature projection applied to records.
        features: FeatureSet,
        /// Score measure.
        score_kind: ScoreKind,
    },
    /// An exact flow table.
    Exact(ExactFlowTable),
    /// A raw ring buffer of recent records.
    RawRing {
        /// The retained records, oldest first.
        buf: std::collections::VecDeque<FlowRecord>,
        /// Maximum records retained.
        capacity: usize,
        /// Score measure for queries.
        score_kind: ScoreKind,
    },
}

impl AggregatorInstance {
    /// Feeds one flow record (no-op for scalar aggregators).
    pub fn ingest_flow(&mut self, rec: &FlowRecord, ts: Timestamp) {
        match self {
            AggregatorInstance::Flowtree(t) => t.ingest(rec, ts),
            AggregatorInstance::TopFlows {
                sketch,
                features,
                score_kind,
            } => {
                let key = FlowKey::from_record_projected(rec, *features);
                sketch.offer(key, score_kind.score(rec).value());
            }
            AggregatorInstance::Exact(t) => t.ingest(rec, ts),
            AggregatorInstance::RawRing { buf, capacity, .. } => {
                if buf.len() == *capacity {
                    buf.pop_front();
                }
                buf.push_back(*rec);
            }
            _ => {}
        }
    }

    /// Feeds one scalar reading (no-op for flow aggregators).
    pub fn ingest_scalar(&mut self, value: f64, ts: Timestamp) {
        match self {
            AggregatorInstance::SampledSeries(s) => s.ingest(&value, ts),
            AggregatorInstance::TimeBins(b) => b.ingest(&value, ts),
            _ => {}
        }
    }

    /// Snapshots the current summary for `window`.
    pub fn snapshot(&self, window: TimeWindow) -> Summary {
        match self {
            AggregatorInstance::Flowtree(t) => Summary::Flowtree(t.snapshot(window)),
            AggregatorInstance::SampledSeries(s) => Summary::Series(s.snapshot(window)),
            AggregatorInstance::TimeBins(b) => Summary::Bins(b.snapshot(window)),
            AggregatorInstance::TopFlows { sketch, .. } => {
                Summary::TopFlows(sketch.snapshot(window))
            }
            AggregatorInstance::Exact(t) => Summary::Exact(t.snapshot(window)),
            AggregatorInstance::RawRing {
                buf, score_kind, ..
            } => Summary::Raw {
                records: buf.iter().copied().collect(),
                score_kind: *score_kind,
            },
        }
    }

    /// Clears accumulated state (epoch rotation).
    pub fn reset(&mut self) {
        match self {
            AggregatorInstance::Flowtree(t) => t.reset(),
            AggregatorInstance::SampledSeries(s) => s.reset(),
            AggregatorInstance::TimeBins(b) => b.reset(),
            AggregatorInstance::TopFlows { sketch, .. } => sketch.reset(),
            AggregatorInstance::Exact(t) => t.reset(),
            AggregatorInstance::RawRing { buf, .. } => buf.clear(),
        }
    }

    /// Current storage footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        match self {
            AggregatorInstance::Flowtree(t) => t.footprint_bytes(),
            AggregatorInstance::SampledSeries(s) => s.footprint_bytes(),
            AggregatorInstance::TimeBins(b) => b.footprint_bytes(),
            AggregatorInstance::TopFlows { sketch, .. } => sketch.footprint_bytes(),
            AggregatorInstance::Exact(t) => t.footprint_bytes(),
            AggregatorInstance::RawRing { buf, .. } => buf.len() * FlowRecord::WIRE_BYTES,
        }
    }

    /// Deterministic deep memory footprint in bytes (accounting plane):
    /// a pure function of element counts, never allocator capacities, so
    /// the incrementally maintained `store.memory.bytes` gauge can be
    /// verified against an independent recompute.
    pub fn deep_bytes(&self) -> usize {
        match self {
            AggregatorInstance::Flowtree(t) => ComputingPrimitive::deep_bytes(t),
            AggregatorInstance::SampledSeries(s) => s.footprint_bytes(),
            AggregatorInstance::TimeBins(b) => b.footprint_bytes(),
            AggregatorInstance::TopFlows { sketch, .. } => ComputingPrimitive::deep_bytes(sketch),
            AggregatorInstance::Exact(t) => ComputingPrimitive::deep_bytes(t),
            AggregatorInstance::RawRing { buf, .. } => buf.len() * FlowRecord::WIRE_BYTES + 32,
        }
    }

    /// Number of discrete elements the aggregator currently holds (zero
    /// for scalar aggregators without a meaningful element count).
    pub fn node_count(&self) -> usize {
        match self {
            AggregatorInstance::Flowtree(t) => ComputingPrimitive::node_count(t),
            AggregatorInstance::SampledSeries(s) => ComputingPrimitive::node_count(s),
            AggregatorInstance::TimeBins(b) => ComputingPrimitive::node_count(b),
            AggregatorInstance::TopFlows { sketch, .. } => ComputingPrimitive::node_count(sketch),
            AggregatorInstance::Exact(t) => ComputingPrimitive::node_count(t),
            AggregatorInstance::RawRing { buf, .. } => buf.len(),
        }
    }

    /// Property P3: sets the granularity dial.
    pub fn set_granularity(&mut self, g: Granularity) {
        match self {
            AggregatorInstance::Flowtree(t) => t.set_granularity(g),
            AggregatorInstance::SampledSeries(s) => s.set_granularity(g),
            AggregatorInstance::TimeBins(b) => b.set_granularity(g),
            AggregatorInstance::TopFlows { sketch, .. } => sketch.set_granularity(g),
            AggregatorInstance::Exact(t) => t.set_granularity(g),
            AggregatorInstance::RawRing { buf, capacity, .. } => {
                // The dial scales the retained-record count.
                *capacity = ((*capacity as f64) * g.value()).round().max(1.0) as usize;
                while buf.len() > *capacity {
                    buf.pop_front();
                }
            }
        }
    }

    /// The current granularity dial.
    pub fn granularity(&self) -> Granularity {
        match self {
            AggregatorInstance::Flowtree(t) => ComputingPrimitive::granularity(t),
            AggregatorInstance::SampledSeries(s) => s.granularity(),
            AggregatorInstance::TimeBins(b) => b.granularity(),
            AggregatorInstance::TopFlows { sketch, .. } => ComputingPrimitive::granularity(sketch),
            AggregatorInstance::Exact(t) => ComputingPrimitive::granularity(t),
            AggregatorInstance::RawRing { .. } => Granularity::FULL,
        }
    }

    /// Property P4: self-adapts to feedback.
    pub fn adapt(&mut self, feedback: &AdaptationFeedback) {
        match self {
            AggregatorInstance::Flowtree(t) => t.adapt(feedback),
            AggregatorInstance::SampledSeries(s) => s.adapt(feedback),
            AggregatorInstance::TimeBins(b) => b.adapt(feedback),
            AggregatorInstance::TopFlows { sketch, .. } => sketch.adapt(feedback),
            AggregatorInstance::Exact(t) => t.adapt(feedback),
            AggregatorInstance::RawRing { buf, capacity, .. } => {
                // Shrink the ring if over budget.
                let per_rec = FlowRecord::WIRE_BYTES;
                let max_records = (feedback.footprint_budget / per_rec).max(1);
                if *capacity > max_records {
                    *capacity = max_records;
                    while buf.len() > *capacity {
                        buf.pop_front();
                    }
                }
            }
        }
    }

    /// Short kind name matching [`Summary::kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            AggregatorInstance::Flowtree(_) => "flowtree",
            AggregatorInstance::SampledSeries(_) => "series",
            AggregatorInstance::TimeBins(_) => "bins",
            AggregatorInstance::TopFlows { .. } => "top-flows",
            AggregatorInstance::Exact(_) => "exact",
            AggregatorInstance::RawRing { .. } => "raw",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(packets: u64) -> FlowRecord {
        FlowRecord::builder()
            .proto(6)
            .src("10.0.0.1".parse().unwrap(), 9000)
            .dst("1.1.1.1".parse().unwrap(), 443)
            .packets(packets)
            .build()
    }

    fn window() -> TimeWindow {
        TimeWindow::starting_at(Timestamp::ZERO, TimeDelta::from_secs(60))
    }

    #[test]
    fn spec_builds_matching_instances() {
        let specs = [
            AggregatorSpec::Flowtree(FlowtreeConfig::default()),
            AggregatorSpec::SampledSeries { seed: 1, rate: 0.5 },
            AggregatorSpec::TimeBins {
                width: TimeDelta::from_secs(1),
                seed: 1,
            },
            AggregatorSpec::TopFlows {
                capacity: 10,
                features: FeatureSet::FIVE_TUPLE,
                score_kind: ScoreKind::Packets,
            },
            AggregatorSpec::ExactFlows {
                features: FeatureSet::FIVE_TUPLE,
                score_kind: ScoreKind::Packets,
            },
        ];
        for spec in &specs {
            let inst = spec.build();
            assert_eq!(spec.kind(), inst.kind());
            assert_eq!(spec.kind(), inst.snapshot(window()).kind());
        }
    }

    #[test]
    fn flow_ingest_routes_to_flow_aggregators() {
        let mut ft = AggregatorSpec::Flowtree(FlowtreeConfig::default()).build();
        let mut series = AggregatorSpec::SampledSeries { seed: 1, rate: 1.0 }.build();
        ft.ingest_flow(&rec(5), Timestamp::ZERO);
        series.ingest_flow(&rec(5), Timestamp::ZERO); // no-op
        match ft.snapshot(window()) {
            Summary::Flowtree(t) => assert_eq!(t.total().value(), 5),
            _ => unreachable!(),
        }
        match series.snapshot(window()) {
            Summary::Series(s) => assert!(s.is_empty()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn scalar_ingest_routes_to_scalar_aggregators() {
        let mut bins = AggregatorSpec::TimeBins {
            width: TimeDelta::from_secs(1),
            seed: 1,
        }
        .build();
        bins.ingest_scalar(42.0, Timestamp::ZERO);
        bins.ingest_flow(&rec(5), Timestamp::ZERO); // no-op
        match bins.snapshot(window()) {
            Summary::Bins(b) => {
                assert_eq!(b.aggregate(window()).count(), 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn top_flows_projects_and_scores() {
        let mut tf = AggregatorSpec::TopFlows {
            capacity: 4,
            features: FeatureSet::SRC_DST_IP,
            score_kind: ScoreKind::Bytes,
        }
        .build();
        let mut r = rec(5);
        r.bytes = 1000;
        tf.ingest_flow(&r, Timestamp::ZERO);
        match tf.snapshot(window()) {
            Summary::TopFlows(ss) => {
                assert_eq!(ss.total(), 1000);
                let key = FlowKey::from_record_projected(&r, FeatureSet::SRC_DST_IP);
                assert_eq!(ss.estimate(&key).unwrap().count, 1000);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn raw_ring_keeps_most_recent_records() {
        let mut ring = AggregatorSpec::RawRing {
            capacity: 3,
            score_kind: ScoreKind::Packets,
        }
        .build();
        for i in 0..5u64 {
            let mut r = rec(i + 1);
            r.ts = Timestamp::from_secs(i);
            ring.ingest_flow(&r, r.ts);
        }
        match ring.snapshot(window()) {
            Summary::Raw { records, .. } => {
                assert_eq!(records.len(), 3);
                // Oldest two evicted: packets 3, 4, 5 remain.
                assert_eq!(
                    records.iter().map(|r| r.packets).collect::<Vec<_>>(),
                    vec![3, 4, 5]
                );
            }
            other => panic!("expected raw summary, got {}", other.kind()),
        }
        assert_eq!(ring.footprint_bytes(), 3 * FlowRecord::WIRE_BYTES);
    }

    #[test]
    fn raw_summary_answers_exact_queries() {
        let mut ring = AggregatorSpec::RawRing {
            capacity: 16,
            score_kind: ScoreKind::Packets,
        }
        .build();
        ring.ingest_flow(&rec(7), Timestamp::ZERO);
        ring.ingest_flow(&rec(3), Timestamp::ZERO);
        let s = ring.snapshot(window());
        let key = FlowKey::from_record(&rec(0));
        assert_eq!(s.flow_score(&key).unwrap().value(), 10);
        assert_eq!(s.flow_score(&FlowKey::root()).unwrap().value(), 10);
    }

    #[test]
    fn raw_ring_adapt_shrinks_to_budget() {
        use megastream_primitives::aggregator::AdaptationFeedback;
        let mut ring = AggregatorSpec::RawRing {
            capacity: 1000,
            score_kind: ScoreKind::Packets,
        }
        .build();
        for i in 0..1000u64 {
            ring.ingest_flow(&rec(i), Timestamp::ZERO);
        }
        let before = ring.footprint_bytes();
        ring.adapt(&AdaptationFeedback::budget(before / 10));
        assert!(ring.footprint_bytes() <= before / 10 + FlowRecord::WIRE_BYTES);
    }

    #[test]
    fn reset_and_footprint_and_granularity() {
        let mut ft = AggregatorSpec::Flowtree(FlowtreeConfig::default().with_capacity(64)).build();
        ft.ingest_flow(&rec(5), Timestamp::ZERO);
        assert!(ft.footprint_bytes() > 0);
        ft.set_granularity(Granularity::new(0.5));
        assert!((ft.granularity().value() - 0.5).abs() < 0.02);
        ft.reset();
        match ft.snapshot(window()) {
            Summary::Flowtree(t) => assert!(t.is_empty()),
            _ => unreachable!(),
        }
    }
}
