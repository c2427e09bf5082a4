//! Structural operators: Merge, Diff, and the computing-primitive contract.
//!
//! Merge and Compress "enable us to compute efficient summaries across time
//! and/or space. In effect, they allow us to add the time and location as
//! features" (§VI): given trees `A1` (time `t1` / location `l1`) and `A2`
//! (`t2` / `l2`), `compress(A1 ∪ A2)` summarizes the joined period or both
//! locations.

use megastream_flow::record::FlowRecord;
use megastream_flow::time::{TimeWindow, Timestamp};
use megastream_primitives::aggregator::{
    Combinable, ComputingPrimitive, Granularity, PrimitiveDescription,
};

use crate::tree::Flowtree;

impl Flowtree {
    /// **Merge** (Table II): joins another Flowtree into this one.
    ///
    /// Scores of keys present in both trees add; keys present only in
    /// `other` are inserted (attached under their deepest materialized
    /// ancestor, mirroring `other`'s compression state). The result is
    /// compressed back to this tree's capacity if necessary.
    ///
    /// # Panics
    ///
    /// Panics if the two trees are not
    /// [`compatible`](crate::FlowtreeConfig::compatible_with) (different
    /// schema, feature projection, or score measure) — such summaries do not
    /// describe the same hierarchy and must not be combined.
    pub fn merge(&mut self, other: &Flowtree) {
        assert!(
            self.config().compatible_with(other.config()),
            "cannot merge flowtrees with incompatible configurations"
        );
        // The budget must cover the merge transient (both key sets live at
        // once); compression at the end restores it.
        self.reserve_nodes(other.len());
        // `other`'s canonical pre-order lists every ancestor before its
        // descendants, so each inserted key finds its true deepest
        // materialized ancestor without any re-sorting. Compatible trees
        // share schema and features, so `other`'s keys are already
        // normalized and projected for this tree. One batch, so the arena
        // is copied on write at most once per merge.
        self.insert_normalized(
            other
                .preorder()
                .filter(|node| !node.own.is_zero())
                .map(|node| (node.key, node.own)),
        );
        *self.records_mut() += other.records();
        self.maybe_compress();
    }

    /// **Diff** (Table II): subtracts `other`'s per-key scores from this
    /// tree ("subtract the popularity scores from flows appearing in one
    /// tree from the other"). Subtraction saturates at zero; keys absent
    /// from this tree are ignored; leaves whose score reaches zero are
    /// pruned.
    ///
    /// # Panics
    ///
    /// Panics if the trees are not compatible.
    pub fn diff(&mut self, other: &Flowtree) {
        assert!(
            self.config().compatible_with(other.config()),
            "cannot diff flowtrees with incompatible configurations"
        );
        let ids: Vec<_> = other.live_ids().collect();
        for id in ids {
            let (key, own) = other.node_ref(id);
            if own.is_zero() {
                continue;
            }
            if let Some(my_id) = self.id_of(&key) {
                self.remove_own(my_id, own);
            }
        }
        self.prune_zero_leaves();
    }

    /// Removes leaves with zero score repeatedly (a leaf whose removal
    /// exposes a zero-score parent removes that parent too).
    pub(crate) fn prune_zero_leaves(&mut self) {
        loop {
            let victims: Vec<_> = self
                .live_ids()
                .filter(|&id| {
                    id != self.root_id()
                        && self.node_ref_children_empty(id)
                        && self.node_ref(id).1.is_zero()
                })
                .collect();
            if victims.is_empty() {
                return;
            }
            for id in victims {
                self.detach_and_free(id);
            }
        }
    }
}

impl Combinable for Flowtree {
    fn combine(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl ComputingPrimitive for Flowtree {
    type Item = FlowRecord;
    type Summary = Flowtree;

    fn describe(&self) -> PrimitiveDescription {
        PrimitiveDescription {
            name: "flowtree",
            // P5: aggregation follows the subnet structure of the domain.
            domain_aware: true,
            // Queries may address any generalization level at any time.
            on_demand_granularity: true,
        }
    }

    fn ingest(&mut self, item: &FlowRecord, _ts: Timestamp) {
        self.observe(item);
    }

    fn snapshot(&self, _window: TimeWindow) -> Flowtree {
        self.clone()
    }

    fn reset(&mut self) {
        self.clear();
    }

    fn set_granularity(&mut self, granularity: Granularity) {
        let base = self.base_capacity();
        let new_capacity = ((base as f64) * granularity.value()).round().max(1.0) as usize;
        self.set_capacity(new_capacity);
    }

    fn granularity(&self) -> Granularity {
        Granularity::new(self.config().capacity as f64 / self.base_capacity() as f64)
    }

    fn footprint_bytes(&self) -> usize {
        self.wire_size()
    }

    fn deep_bytes(&self) -> usize {
        Flowtree::deep_bytes(self)
    }

    fn node_count(&self) -> usize {
        Flowtree::node_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FlowtreeConfig;
    use megastream_flow::key::FlowKey;
    use megastream_flow::score::{Popularity, ScoreKind};
    use proptest::prelude::*;

    fn rec(src: &str, dst: &str, packets: u64) -> FlowRecord {
        FlowRecord::builder()
            .proto(6)
            .src(src.parse().unwrap(), 4242)
            .dst(dst.parse().unwrap(), 80)
            .packets(packets)
            .build()
    }

    fn tree(cap: usize) -> Flowtree {
        Flowtree::new(FlowtreeConfig::default().with_capacity(cap))
    }

    #[test]
    fn merge_adds_scores() {
        let mut a = tree(1024);
        a.observe(&rec("10.0.0.1", "1.1.1.1", 5));
        let mut b = tree(1024);
        b.observe(&rec("10.0.0.1", "1.1.1.1", 3));
        b.observe(&rec("10.0.0.2", "1.1.1.1", 4));
        a.merge(&b);
        assert_eq!(a.total().value(), 12);
        assert_eq!(a.records(), 3);
        let k1 = FlowKey::from_record(&rec("10.0.0.1", "1.1.1.1", 0));
        assert_eq!(a.get(&k1).unwrap().own_score.value(), 8);
        a.check_invariants();
    }

    #[test]
    fn merge_is_commutative_on_summaries() {
        let mut a1 = tree(1024);
        let mut b1 = tree(1024);
        for i in 0..20u32 {
            a1.observe(&rec(&format!("10.0.{i}.1"), "1.1.1.1", i as u64 + 1));
            b1.observe(&rec(&format!("10.1.{i}.1"), "2.2.2.2", i as u64 + 1));
        }
        let mut ab = a1.clone();
        ab.merge(&b1);
        let mut ba = b1.clone();
        ba.merge(&a1);
        // Same mass at the same keys in both directions (zero-score
        // structure nodes may differ — merge only transfers mass).
        assert_eq!(ab.total(), ba.total());
        for v in ab.nodes().into_iter().filter(|v| !v.own_score.is_zero()) {
            assert_eq!(
                ba.get(&v.key).map(|n| n.own_score),
                Some(v.own_score),
                "mismatch at {}",
                v.key
            );
        }
        ab.check_invariants();
        ba.check_invariants();
    }

    #[test]
    fn merge_respects_capacity() {
        let mut a = tree(32);
        let mut b = tree(1024);
        for i in 0..100u32 {
            b.observe(&rec(&format!("10.{}.{}.1", i % 10, i), "1.1.1.1", 1));
        }
        a.merge(&b);
        assert!(a.len() <= 32);
        assert_eq!(a.total().value(), 100);
        a.check_invariants();
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_incompatible() {
        let mut a = tree(8);
        let b = Flowtree::new(FlowtreeConfig::default().with_score_kind(ScoreKind::Bytes));
        a.merge(&b);
    }

    #[test]
    fn diff_subtracts_and_prunes() {
        let mut a = tree(1024);
        a.observe(&rec("10.0.0.1", "1.1.1.1", 5));
        a.observe(&rec("10.0.0.2", "1.1.1.1", 7));
        let mut b = tree(1024);
        b.observe(&rec("10.0.0.1", "1.1.1.1", 5));
        let len_before = a.len();
        a.diff(&b);
        // 10.0.0.1's leaf hit zero and was pruned; 10.0.0.2 untouched.
        let k1 = FlowKey::from_record(&rec("10.0.0.1", "1.1.1.1", 0));
        let k2 = FlowKey::from_record(&rec("10.0.0.2", "1.1.1.1", 0));
        assert!(a.get(&k1).is_none());
        assert_eq!(a.get(&k2).unwrap().own_score.value(), 7);
        assert!(a.len() < len_before);
        assert_eq!(a.total().value(), 7);
        a.check_invariants();
    }

    #[test]
    fn diff_saturates_at_zero() {
        let mut a = tree(1024);
        a.observe(&rec("10.0.0.1", "1.1.1.1", 3));
        let mut b = tree(1024);
        b.observe(&rec("10.0.0.1", "1.1.1.1", 100));
        a.diff(&b);
        assert_eq!(a.total(), Popularity::ZERO);
        a.check_invariants();
    }

    #[test]
    fn diff_ignores_absent_keys() {
        let mut a = tree(1024);
        a.observe(&rec("10.0.0.1", "1.1.1.1", 3));
        let mut b = tree(1024);
        b.observe(&rec("99.99.99.99", "1.1.1.1", 100));
        a.diff(&b);
        assert_eq!(a.total().value(), 3);
    }

    #[test]
    fn self_diff_empties_tree() {
        let mut a = tree(1024);
        for i in 0..10u32 {
            a.observe(&rec(&format!("10.0.0.{i}"), "1.1.1.1", i as u64 + 1));
        }
        let b = a.clone();
        a.diff(&b);
        assert_eq!(a.total(), Popularity::ZERO);
        assert_eq!(a.len(), 1, "everything but the root pruned");
        a.check_invariants();
    }

    #[test]
    fn paper_composition_merge_then_compress() {
        // A12 = compress(A1 ∪ A2) — the §VI composition.
        let mut a1 = tree(4096);
        let mut a2 = tree(4096);
        for i in 0..200u32 {
            a1.observe(&rec(&format!("10.0.{}.1", i % 50), "1.1.1.1", 2));
            a2.observe(&rec(&format!("10.1.{}.1", i % 50), "1.1.1.1", 3));
        }
        let mut a12 = a1.clone();
        a12.merge(&a2);
        a12.compress_to(64);
        assert!(a12.len() <= 64);
        assert_eq!(a12.total().value(), 200 * 2 + 200 * 3);
        // Region queries still answered (prefix aggregate preserved).
        let left = FlowKey::root().with_src_prefix("10.0.0.0/16".parse().unwrap());
        let right = FlowKey::root().with_src_prefix("10.1.0.0/16".parse().unwrap());
        assert_eq!(a12.query(&left).value() + a12.query(&right).value(), 1000);
        a12.check_invariants();
    }

    #[test]
    fn primitive_contract() {
        let mut t = tree(100);
        assert!(t.describe().domain_aware);
        t.ingest(&rec("10.0.0.1", "1.1.1.1", 5), Timestamp::ZERO);
        assert_eq!(t.total().value(), 5);
        let snap = t.snapshot(TimeWindow::default());
        assert_eq!(snap.total().value(), 5);
        t.set_granularity(Granularity::new(0.1));
        assert_eq!(t.config().capacity, 10);
        assert!((ComputingPrimitive::granularity(&t).value() - 0.1).abs() < 1e-9);
        t.reset();
        assert!(t.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Merge conserves total mass and invariants for arbitrary pairs.
        #[test]
        fn prop_merge_mass_conserved(
            fa in proptest::collection::vec((0u8..6, 1u64..30), 1..60),
            fb in proptest::collection::vec((0u8..6, 1u64..30), 1..60),
            cap in 8usize..128,
        ) {
            let mut a = tree(cap);
            let mut b = tree(cap);
            for (i, p) in &fa {
                a.observe(&rec(&format!("10.0.{i}.1"), "1.1.1.1", *p));
            }
            for (i, p) in &fb {
                b.observe(&rec(&format!("10.{i}.0.2"), "2.2.2.2", *p));
            }
            let expected = a.total() + b.total();
            a.merge(&b);
            prop_assert_eq!(a.total(), expected);
            a.check_invariants();
        }

        /// diff(merge(a, b), b) never leaves more mass than a had.
        #[test]
        fn prop_merge_diff_roundtrip_bounded(
            fa in proptest::collection::vec((0u8..4, 1u64..20), 1..40),
            fb in proptest::collection::vec((0u8..4, 1u64..20), 1..40),
        ) {
            let mut a = tree(4096);
            let mut b = tree(4096);
            for (i, p) in &fa {
                a.observe(&rec(&format!("10.0.{i}.1"), "1.1.1.1", *p));
            }
            for (i, p) in &fb {
                b.observe(&rec(&format!("10.0.{i}.1"), "1.1.1.1", *p));
            }
            let orig = a.total();
            let mut ab = a.clone();
            ab.merge(&b);
            ab.diff(&b);
            // With ample capacity (no compression), diff exactly undoes merge.
            prop_assert_eq!(ab.total(), orig);
            ab.check_invariants();
        }
    }
}
