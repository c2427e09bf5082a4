//! Property suite for the cold-tier codec: an arbitrary [`StoredSummary`]
//! encodes and decodes back to the identical value — structural equality,
//! `deep_bytes()`/`wire_size()` equality, and byte-stable re-encoding —
//! across every summary kind the data plane produces.

use megastream_datastore::summary::{Lineage, StoredSummary, Summary};
use megastream_flow::addr::Ipv4Addr;
use megastream_flow::key::{Feature, FeatureSet, FlowKey};
use megastream_flow::record::FlowRecord;
use megastream_flow::score::{Popularity, ScoreKind};
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_flowtree::{Flowtree, FlowtreeConfig};
use megastream_primitives::aggregator::ComputingPrimitive;
use megastream_primitives::exact::ExactFlowTable;
use megastream_primitives::sampling::{SamplePoint, SampledSeries};
use megastream_primitives::spacesaving::SpaceSaving;
use megastream_primitives::timebin::TimeBinStats;
use megastream_storage::{decode_stored_summary, encode_stored_summary};
use proptest::collection::vec;
use proptest::prelude::*;

fn record(src: u32, dst: u32, packets: u64) -> FlowRecord {
    FlowRecord::builder()
        .proto(6)
        .src(Ipv4Addr::from(src), 5000)
        .dst(Ipv4Addr::from(dst), 443)
        .packets(packets % 10_000 + 1)
        .build()
}

/// A key with every field cut to a rung of the default schema's ladders,
/// picked by `rungs`: proto and the ports whole or wildcard, each address
/// at /0, /8, /16, /24 or /32.
fn masked_key(src: u32, dst: u32, ports: u32, rungs: u16) -> FlowKey {
    let rung = |shift: u16, count: u16| (rungs >> shift) % count;
    FlowKey::five_tuple(
        6,
        Ipv4Addr::from(src),
        (ports >> 16) as u16,
        Ipv4Addr::from(dst),
        ports as u16,
    )
    .generalize(Feature::Proto, 8 * rung(0, 2) as u8)
    .generalize(Feature::SrcIp, 8 * rung(1, 5) as u8)
    .generalize(Feature::DstIp, 8 * rung(4, 5) as u8)
    .generalize(Feature::SrcPort, 16 * rung(7, 2) as u8)
    .generalize(Feature::DstPort, 16 * rung(8, 2) as u8)
}

/// A tree of `capacity` holding the merge of one observed tree per part,
/// each of `part_capacity` — the shape of a NOC summary, where a merged
/// key attaches under its deepest materialized ancestor and so may skip
/// rungs and change several fields at once. Addresses are confined to a
/// few subnets so that the parts share prefixes and the merge nests.
fn merged_tree(parts: &[Vec<(u32, u32, u64)>], part_capacity: usize, capacity: usize) -> Flowtree {
    let mut noc = Flowtree::new(FlowtreeConfig::default().with_capacity(capacity));
    for part in parts {
        let mut tree = Flowtree::new(FlowtreeConfig::default().with_capacity(part_capacity));
        for (s, d, p) in part {
            tree.observe(&record(
                0x0a00_0000 | (s & 0x0003_0f3f),
                0x0101_0000 | (d & 0x0303),
                *p,
            ));
        }
        noc.merge(&tree);
    }
    noc
}

/// A tree built by `add_mass` on masked keys — the lattice shapes that
/// `observe`'s exact keys never produce.
fn lattice_tree(masses: &[(u32, u32, u32, u16, u64)], capacity: usize) -> Flowtree {
    let mut tree = Flowtree::new(FlowtreeConfig::default().with_capacity(capacity));
    for (s, d, ports, rungs, p) in masses {
        let key = masked_key(*s, *d, *ports, *rungs);
        tree.add_mass(&key, Popularity::new(p % 10_000 + 1));
    }
    tree
}

/// Encode → decode must be the identity, sizes must agree, and a second
/// roundtrip must be lossless too (recovered summaries re-journal without
/// drift; exact byte stability is not promised for every kind).
fn assert_roundtrip(summary: Summary, start: u64) {
    let stored = StoredSummary::new(
        format!("region-{}", start % 7),
        TimeWindow::starting_at(
            Timestamp::from_secs(start % 100_000),
            TimeDelta::from_secs(60),
        ),
        summary,
        Lineage::from_source(format!("router-{}", start % 5)),
    );
    let bytes = encode_stored_summary(&stored);
    let decoded = decode_stored_summary(&bytes).expect("a valid encoding decodes");
    prop_assert_eq!(&decoded, &stored);
    prop_assert_eq!(decoded.summary.deep_bytes(), stored.summary.deep_bytes());
    prop_assert_eq!(decoded.wire_size(), stored.wire_size());
    let reencoded = encode_stored_summary(&decoded);
    let twice = decode_stored_summary(&reencoded).expect("a re-encoding decodes");
    prop_assert_eq!(&twice, &decoded);
    prop_assert_eq!(twice.summary.deep_bytes(), decoded.summary.deep_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flowtree_summaries_roundtrip(
        stream in vec((any::<u32>(), any::<u32>(), any::<u64>()), 0..48),
        capacity in 8usize..96,
        start in any::<u64>(),
    ) {
        let mut tree = Flowtree::new(FlowtreeConfig::default().with_capacity(capacity));
        for (s, d, p) in &stream {
            tree.observe(&record(*s, *d, *p));
        }
        assert_roundtrip(Summary::Flowtree(tree), start);
    }

    #[test]
    fn merged_flowtree_summaries_roundtrip(
        parts in vec(vec((any::<u32>(), any::<u32>(), any::<u64>()), 0..32), 1..5),
        part_capacity in 8usize..64,
        capacity in 8usize..96,
        start in any::<u64>(),
    ) {
        let tree = merged_tree(&parts, part_capacity, capacity);
        assert_roundtrip(Summary::Flowtree(tree), start);
    }

    #[test]
    fn lattice_flowtree_summaries_roundtrip(
        masses in vec((any::<u32>(), any::<u32>(), any::<u32>(), any::<u16>(), any::<u64>()), 0..48),
        capacity in 8usize..96,
        start in any::<u64>(),
    ) {
        let mut tree = lattice_tree(&masses, capacity);
        // Merged into a fresh tree too: the lattice keys then attach with
        // gaps under whatever the merge materialized first.
        let mut merged = Flowtree::new(FlowtreeConfig::default().with_capacity(capacity));
        merged.merge(&tree);
        assert_roundtrip(Summary::Flowtree(merged), start);
        tree.compress_to(capacity / 2);
        assert_roundtrip(Summary::Flowtree(tree), start);
    }

    #[test]
    fn exact_table_summaries_roundtrip(
        stream in vec((any::<u32>(), any::<u64>()), 0..48),
        start in any::<u64>(),
    ) {
        let mut table = ExactFlowTable::new(FeatureSet::FIVE_TUPLE, ScoreKind::Packets);
        for (s, p) in &stream {
            table.observe(&record(*s, 0x0808_0808, *p));
        }
        assert_roundtrip(Summary::Exact(table), start);
    }

    #[test]
    fn top_flows_summaries_roundtrip(
        stream in vec((any::<u32>(), any::<u64>()), 0..48),
        capacity in 4usize..32,
        start in any::<u64>(),
    ) {
        let mut sketch = SpaceSaving::new(capacity);
        for (s, w) in &stream {
            sketch.offer(FlowKey::from_record(&record(*s, 1, 1)), w % 1_000 + 1);
        }
        assert_roundtrip(Summary::TopFlows(sketch), start);
    }

    #[test]
    fn sampled_series_summaries_roundtrip(
        // Integer-derived values: exact f64s, so equality is exact.
        points in vec((0u64..600_000_000, any::<i32>(), 1u32..64), 0..48),
        start in any::<u64>(),
    ) {
        let window = TimeWindow::starting_at(Timestamp::ZERO, TimeDelta::from_secs(600));
        let points = points
            .into_iter()
            .map(|(ts, value, weight)| SamplePoint {
                ts: Timestamp::from_micros(ts),
                value: f64::from(value),
                weight: f64::from(weight),
            })
            .collect();
        assert_roundtrip(Summary::Series(SampledSeries::from_parts(window, points)), start);
    }

    #[test]
    fn binned_series_summaries_roundtrip(
        samples in vec((0u64..600_000_000, any::<i16>()), 0..64),
        width_secs in 1u64..30,
        start in any::<u64>(),
    ) {
        let mut bins = TimeBinStats::new(TimeDelta::from_secs(width_secs), 7);
        for (ts, value) in &samples {
            bins.ingest(&f64::from(*value), Timestamp::from_micros(*ts));
        }
        let window = TimeWindow::starting_at(Timestamp::ZERO, TimeDelta::from_secs(600));
        assert_roundtrip(Summary::Bins(bins.snapshot(window)), start);
    }

    #[test]
    fn raw_summaries_roundtrip(
        stream in vec((any::<u32>(), any::<u32>(), any::<u64>()), 0..48),
        by_bytes in any::<bool>(),
        start in any::<u64>(),
    ) {
        let records = stream
            .iter()
            .map(|(s, d, p)| record(*s, *d, *p))
            .collect();
        let score_kind = if by_bytes { ScoreKind::Bytes } else { ScoreKind::Packets };
        assert_roundtrip(Summary::Raw { records, score_kind }, start);
    }
}

/// The widest parent-relative steps in a tree: the most key fields one
/// node changes from its parent, the longest mask jump in one field, and
/// the most entries one up-link pops off the root path.
fn widest_steps(tree: &Flowtree) -> (usize, u8, usize) {
    let flat = tree.flat_nodes();
    let mut depth = vec![0usize; flat.len()];
    let (mut fields, mut jump, mut up) = (0, 0, 0);
    for (i, node) in flat.iter().enumerate().skip(1) {
        let parent = &flat[node.parent as usize];
        depth[i] = depth[node.parent as usize] + 1;
        up = up.max(depth[i - 1] + 1 - depth[i]);
        let changed: Vec<Feature> = Feature::ALL
            .into_iter()
            .filter(|&f| node.key.field(f) != parent.key.field(f))
            .collect();
        fields = fields.max(changed.len());
        for f in changed {
            jump = jump.max(node.key.field(f).len() - parent.key.field(f).len());
        }
    }
    (fields, jump, up)
}

/// The generators above reach what `observe` alone never does: nodes that
/// change several fields at once, skip rungs, and sit far from the
/// previous node — so the parent-relative codec is tested on them.
#[test]
fn flowtree_generators_reach_non_chain_shapes() {
    let mut observed = Flowtree::new(FlowtreeConfig::default().with_capacity(32));
    for i in 0..40u32 {
        observed.observe(&record(i.wrapping_mul(0x9e37_79b9), i, 7));
    }
    let (fields, jump, _) = widest_steps(&observed);
    assert_eq!(
        (fields, jump),
        (1, 16),
        "observe steps one rung of one field"
    );

    let parts: Vec<Vec<(u32, u32, u64)>> = (0..4u32)
        .map(|p| {
            (0..200u32)
                .map(|i| (i.wrapping_mul(0x0001_0405) ^ p, i % 7, u64::from(i % 9 + p)))
                .collect()
        })
        .collect();
    let merged = merged_tree(&parts, 128, 4096);
    let (fields, jump, up) = widest_steps(&merged);
    assert!(fields >= 2, "merge leaves multi-field steps ({fields})");
    assert!(jump > 16, "merge leaves rung gaps ({jump})");
    assert!(up >= 3, "long up-links ({up})");

    let masses: Vec<(u32, u32, u32, u16, u64)> = (0..48u32)
        .map(|i| {
            (
                i.wrapping_mul(0x9e37_79b9),
                i * 31,
                i * 977,
                i as u16 * 37,
                u64::from(i),
            )
        })
        .collect();
    let mut lattice = Flowtree::new(FlowtreeConfig::default().with_capacity(4096));
    lattice.merge(&lattice_tree(&masses, 4096));
    let (fields, jump, _) = widest_steps(&lattice);
    assert!(fields >= 3, "lattice keys merged under the root ({fields})");
    assert!(jump >= 24, "lattice keys skip rungs ({jump})");

    for tree in [merged, lattice] {
        assert_roundtrip(Summary::Flowtree(tree.clone()), 1);
        let stored = StoredSummary::new(
            "noc",
            TimeWindow::starting_at(Timestamp::ZERO, TimeDelta::from_secs(60)),
            Summary::Flowtree(tree),
            Lineage::from_source("region-0"),
        );
        let bytes = encode_stored_summary(&stored);
        let again = encode_stored_summary(&decode_stored_summary(&bytes).expect("decodes"));
        assert_eq!(again, bytes, "a flowtree frame re-encodes byte for byte");
    }
}
