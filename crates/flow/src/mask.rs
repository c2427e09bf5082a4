//! The generalization schema: how flow keys are widened step by step.
//!
//! The paper derives the flow hierarchy by masking features ("moving from an
//! IP to a prefix"). A [`GeneralizationSchema`] makes that hierarchy precise:
//! each feature has a *ladder* of admissible mask lengths, and a
//! deterministic rule picks which feature the next generalization step
//! widens. This gives every flow key a unique parent, so the set of all
//! generalizations of observed flows forms a **tree** — the substrate of the
//! Flowtree primitive.

use crate::key::{Feature, FlowKey};

/// Which feature the next generalization step widens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOrder {
    /// Fully generalize features one after another, in list order.
    Priority(Vec<Feature>),
    /// Widen the feature with the most remaining rungs first (ties broken by
    /// list order), which alternates evenly across features.
    RoundRobin(Vec<Feature>),
    /// Apply the stages in order: a stage only starts once every feature of
    /// the previous stages is fully generalized. E.g. "drop ports and
    /// protocol first, then alternate source and destination IP".
    Stages(Vec<StepOrder>),
}

impl StepOrder {
    /// All features named anywhere in the order.
    fn features(&self) -> Vec<Feature> {
        match self {
            StepOrder::Priority(fs) | StepOrder::RoundRobin(fs) => fs.clone(),
            StepOrder::Stages(stages) => stages.iter().flat_map(StepOrder::features).collect(),
        }
    }
}

/// Per-feature mask ladders plus a step order.
///
/// ```
/// use megastream_flow::key::FlowKey;
/// use megastream_flow::mask::GeneralizationSchema;
///
/// let schema = GeneralizationSchema::default();
/// let key = FlowKey::five_tuple(6, "10.1.2.3".parse()?, 443, "8.8.8.8".parse()?, 53);
/// let parent = schema.parent(&key).unwrap();
/// assert!(parent.contains(&key));
/// assert_eq!(schema.depth(&key), schema.depth(&parent) + 1);
/// # Ok::<(), megastream_flow::addr::ParseAddrError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralizationSchema {
    /// Ascending admissible mask lengths per feature; each ladder starts at 0.
    ladders: [Vec<u8>; 5],
    order: StepOrder,
}

#[expect(
    clippy::expect_used,
    reason = "the four default-schema constructors call .expect() on \
              GeneralizationSchema::new over const literal ladders; validity is a \
              compile-time property exercised by the schema unit tests, so failure is \
              unreachable without editing the literals"
)]
impl GeneralizationSchema {
    /// Creates a schema from per-feature ladders and a step order.
    ///
    /// Each ladder is sorted, deduplicated and forced to contain `0` (the
    /// wildcard rung). Entries beyond the feature width are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError`] if a ladder contains a mask length longer than
    /// the feature's width, or if the step order names no features.
    pub fn new(mut ladders: [Vec<u8>; 5], order: StepOrder) -> Result<Self, SchemaError> {
        for f in Feature::ALL {
            let ladder = &mut ladders[f.index()];
            if ladder.iter().any(|&l| l > f.width()) {
                return Err(SchemaError::LadderExceedsWidth(f));
            }
            ladder.push(0);
            ladder.sort_unstable();
            ladder.dedup();
        }
        if order.features().is_empty() {
            return Err(SchemaError::EmptyOrder);
        }
        Ok(GeneralizationSchema { ladders, order })
    }

    /// The default network-monitoring schema: IPs widen in /8 steps,
    /// ports and protocol are all-or-nothing. Ports are dropped first, then
    /// the protocol, then source and destination IP alternate rung by rung
    /// — so that compressed mass consolidates at `(src /p, dst /p)` prefix
    /// pairs rather than losing one side entirely.
    pub fn network_default() -> Self {
        let mut ladders: [Vec<u8>; 5] = Default::default();
        ladders[Feature::Proto.index()] = vec![0, 8];
        ladders[Feature::SrcIp.index()] = vec![0, 8, 16, 24, 32];
        ladders[Feature::DstIp.index()] = vec![0, 8, 16, 24, 32];
        ladders[Feature::SrcPort.index()] = vec![0, 16];
        ladders[Feature::DstPort.index()] = vec![0, 16];
        GeneralizationSchema::new(
            ladders,
            StepOrder::Stages(vec![
                StepOrder::Priority(vec![Feature::SrcPort, Feature::DstPort, Feature::Proto]),
                StepOrder::RoundRobin(vec![Feature::SrcIp, Feature::DstIp]),
            ]),
        )
        .expect("default schema is valid")
    }

    /// A schema that keeps the **destination** specific as long as
    /// possible (sources collapse first). The right choice when queries
    /// identify victims/services — e.g. DDoS investigation, where sources
    /// are spoofed and worthless but the victim address is the answer.
    pub fn dst_preserving() -> Self {
        let mut ladders: [Vec<u8>; 5] = Default::default();
        ladders[Feature::Proto.index()] = vec![0, 8];
        ladders[Feature::SrcIp.index()] = vec![0, 8, 16, 24, 32];
        ladders[Feature::DstIp.index()] = vec![0, 8, 16, 24, 32];
        ladders[Feature::SrcPort.index()] = vec![0, 16];
        ladders[Feature::DstPort.index()] = vec![0, 16];
        GeneralizationSchema::new(
            ladders,
            StepOrder::Priority(vec![
                Feature::SrcPort,
                Feature::DstPort,
                Feature::Proto,
                Feature::SrcIp,
                Feature::DstIp,
            ]),
        )
        .expect("dst-preserving schema is valid")
    }

    /// A schema that keeps the **source** specific as long as possible
    /// (destinations collapse first) — e.g. for per-customer accounting.
    pub fn src_preserving() -> Self {
        let mut ladders: [Vec<u8>; 5] = Default::default();
        ladders[Feature::Proto.index()] = vec![0, 8];
        ladders[Feature::SrcIp.index()] = vec![0, 8, 16, 24, 32];
        ladders[Feature::DstIp.index()] = vec![0, 8, 16, 24, 32];
        ladders[Feature::SrcPort.index()] = vec![0, 16];
        ladders[Feature::DstPort.index()] = vec![0, 16];
        GeneralizationSchema::new(
            ladders,
            StepOrder::Priority(vec![
                Feature::SrcPort,
                Feature::DstPort,
                Feature::Proto,
                Feature::DstIp,
                Feature::SrcIp,
            ]),
        )
        .expect("src-preserving schema is valid")
    }

    /// A fine-grained schema where IPs widen bit by bit and source and
    /// destination IP alternate (useful for hierarchical heavy hitters).
    pub fn bitwise_ip_pair() -> Self {
        let mut ladders: [Vec<u8>; 5] = Default::default();
        ladders[Feature::Proto.index()] = vec![0];
        ladders[Feature::SrcIp.index()] = (0..=32).collect();
        ladders[Feature::DstIp.index()] = (0..=32).collect();
        ladders[Feature::SrcPort.index()] = vec![0];
        ladders[Feature::DstPort.index()] = vec![0];
        GeneralizationSchema::new(
            ladders,
            StepOrder::RoundRobin(vec![Feature::SrcIp, Feature::DstIp]),
        )
        .expect("bitwise schema is valid")
    }

    /// The ladder of admissible mask lengths for `feature`.
    pub fn ladder(&self, feature: Feature) -> &[u8] {
        &self.ladders[feature.index()]
    }

    /// The generalization step order. Together with [`Self::ladder`] this
    /// exposes everything [`Self::new`] consumed, so a schema can be
    /// serialized and rebuilt exactly (used by the cold-tier codec).
    pub fn order(&self) -> &StepOrder {
        &self.order
    }

    /// Index of the rung at-or-below `len` on the ladder of `feature`.
    fn rung_index(&self, feature: Feature, len: u8) -> usize {
        let ladder = self.ladder(feature);
        match ladder.binary_search(&len) {
            Ok(i) => i,
            Err(i) => i - 1, // ladder always contains 0, so i >= 1 here
        }
    }

    /// Snaps every feature's mask length *down* to the nearest ladder rung.
    ///
    /// Normalization only ever generalizes, so the result contains the input.
    pub fn normalize(&self, key: &FlowKey) -> FlowKey {
        self.normalize_with_rungs(key).0
    }

    /// [`Self::normalize`] plus the rung index each feature landed on.
    fn normalize_with_rungs(&self, key: &FlowKey) -> (FlowKey, [usize; 5]) {
        let rungs = Feature::ALL.map(|f| self.rung_index(f, key.field(f).len()));
        let mut out = *key;
        for (f, idx) in Feature::ALL.into_iter().zip(rungs) {
            let rung = self.ladder(f)[idx];
            if rung < key.field(f).len() {
                out = out.generalize(f, rung);
            }
        }
        (out, rungs)
    }

    /// Whether `key` sits exactly on ladder rungs for every feature.
    pub fn is_normalized(&self, key: &FlowKey) -> bool {
        Feature::ALL
            .into_iter()
            .all(|f| self.ladder(f).binary_search(&key.field(f).len()).is_ok())
    }

    /// Number of generalization steps separating `key` from the root.
    pub fn depth(&self, key: &FlowKey) -> usize {
        Feature::ALL
            .into_iter()
            .map(|f| self.rung_index(f, key.field(f).len()))
            .sum()
    }

    /// The unique parent of `key` in the hierarchy, or `None` for the root.
    ///
    /// The key is normalized first, so the parent of an off-ladder key is the
    /// parent of its normalization (unless normalization itself already
    /// generalized it, in which case that normalization is returned).
    pub fn parent(&self, key: &FlowKey) -> Option<FlowKey> {
        let norm = self.normalize(key);
        if norm != *key {
            return Some(norm);
        }
        let feature = self.pick_step_feature(&norm)?;
        let idx = self.rung_index(feature, norm.field(feature).len());
        debug_assert!(idx > 0);
        let target = self.ladder(feature)[idx - 1];
        Some(norm.generalize(feature, target))
    }

    /// Picks the feature the next generalization step widens, or `None` if
    /// the key is already the root with respect to the step order.
    fn pick_step_feature(&self, key: &FlowKey) -> Option<Feature> {
        self.pick_in_order(&self.order, &|f| self.rung_index(f, key.field(f).len()))
    }

    /// The step-order rule over a key given as its per-feature rung index.
    fn pick_in_order(
        &self,
        order: &StepOrder,
        rung: &impl Fn(Feature) -> usize,
    ) -> Option<Feature> {
        match order {
            StepOrder::Priority(features) => features.iter().copied().find(|f| rung(*f) > 0),
            StepOrder::RoundRobin(features) => features
                .iter()
                .copied()
                .map(|f| (rung(f), f))
                .filter(|(r, _)| *r > 0)
                // max_by_key returns the *last* max, so order descending by
                // reversing the tie-break: scan manually.
                .fold(None, |best: Option<(usize, Feature)>, cand| match best {
                    None => Some(cand),
                    Some(b) if cand.0 > b.0 => Some(cand),
                    Some(b) => Some(b),
                })
                .map(|(_, f)| f),
            StepOrder::Stages(stages) => stages
                .iter()
                .find_map(|stage| self.pick_in_order(stage, rung)),
        }
    }

    /// Iterates over the proper ancestors of `key`, from its parent up to and
    /// including the root — the chain of [`Self::parent`] calls. An
    /// off-ladder key's first ancestor is its normalization.
    pub fn ancestors<'a>(&'a self, key: &FlowKey) -> Ancestors<'a> {
        let (norm, rungs) = self.normalize_with_rungs(key);
        Ancestors {
            schema: self,
            cur: Some(norm),
            rungs,
            include_self: norm != *key,
        }
    }

    /// Iterates over `key` (normalized) followed by all its ancestors.
    pub fn self_and_ancestors<'a>(&'a self, key: &FlowKey) -> Ancestors<'a> {
        let (norm, rungs) = self.normalize_with_rungs(key);
        Ancestors {
            schema: self,
            cur: Some(norm),
            rungs,
            include_self: true,
        }
    }

    /// The deepest common ancestor of two keys.
    pub fn common_ancestor(&self, a: &FlowKey, b: &FlowKey) -> FlowKey {
        let mut a = self.normalize(a);
        let mut b = self.normalize(b);
        // Lift the deeper key until both are at the same depth, then lift in
        // lock-step until they coincide. `parent` returns `None` only at the
        // root, where the loop conditions are already false (the root is its
        // own common ancestor) — so a `None` ends the lift instead of
        // panicking.
        while self.depth(&a) > self.depth(&b) {
            match self.parent(&a) {
                Some(p) => a = p,
                None => break,
            }
        }
        while self.depth(&b) > self.depth(&a) {
            match self.parent(&b) {
                Some(p) => b = p,
                None => break,
            }
        }
        while a != b {
            match (self.parent(&a), self.parent(&b)) {
                (Some(pa), Some(pb)) => {
                    a = pa;
                    b = pb;
                }
                // Only the root has no parent; two distinct keys cannot both
                // be the root, so reaching here means one key already is —
                // return it as the ancestor rather than panicking.
                (None, _) => return a,
                (_, None) => return b,
            }
        }
        a
    }

    /// Maximum depth of the hierarchy (depth of an exact key).
    pub fn max_depth(&self) -> usize {
        self.ladders.iter().map(|l| l.len() - 1).sum()
    }
}

impl Default for GeneralizationSchema {
    fn default() -> Self {
        GeneralizationSchema::network_default()
    }
}

/// Iterator over successive generalizations of a key.
///
/// Produced by [`GeneralizationSchema::ancestors`] and
/// [`GeneralizationSchema::self_and_ancestors`]. It carries the current
/// (normalized) key's rung index per feature and steps that vector, so
/// each step is one step-order pick plus one `generalize` — never the
/// re-normalization and ladder searches of [`GeneralizationSchema::parent`],
/// whose chain it reproduces exactly.
#[derive(Debug, Clone)]
pub struct Ancestors<'a> {
    schema: &'a GeneralizationSchema,
    cur: Option<FlowKey>,
    /// `cur`'s rung index on each feature's ladder, in [`Feature::ALL`]
    /// order.
    rungs: [usize; 5],
    include_self: bool,
}

impl Iterator for Ancestors<'_> {
    type Item = FlowKey;

    fn next(&mut self) -> Option<FlowKey> {
        let cur = self.cur?;
        if self.include_self {
            self.include_self = false;
            return Some(cur);
        }
        let rungs = self.rungs;
        let schema = self.schema;
        let rung_of = |f: Feature| rungs.get(f.index()).copied().unwrap_or(0);
        // No pick at the top of the step order. A picked feature sits above
        // rung 0, so stepping it down one rung cannot underflow.
        let parent = schema.pick_in_order(&schema.order, &rung_of).and_then(|f| {
            let rung = self.rungs.get_mut(f.index())?;
            *rung -= 1;
            Some(cur.generalize(f, *schema.ladder(f).get(*rung)?))
        });
        self.cur = parent;
        parent
    }
}

/// Error constructing a [`GeneralizationSchema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A ladder rung exceeds the feature's bit width.
    LadderExceedsWidth(Feature),
    /// The step order lists no features.
    EmptyOrder,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::LadderExceedsWidth(feat) => {
                write!(f, "ladder for {feat} exceeds the feature width")
            }
            SchemaError::EmptyOrder => write!(f, "step order lists no features"),
        }
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FeatureSet;
    use proptest::prelude::*;

    fn exact() -> FlowKey {
        FlowKey::five_tuple(
            17,
            "10.1.2.3".parse().unwrap(),
            5353,
            "192.168.9.1".parse().unwrap(),
            53,
        )
    }

    #[test]
    fn default_schema_depth() {
        let s = GeneralizationSchema::default();
        assert_eq!(s.max_depth(), 1 + 4 + 4 + 1 + 1);
        assert_eq!(s.depth(&exact()), s.max_depth());
        assert_eq!(s.depth(&FlowKey::root()), 0);
    }

    #[test]
    fn parent_chain_reaches_root() {
        let s = GeneralizationSchema::default();
        let chain: Vec<_> = s.self_and_ancestors(&exact()).collect();
        assert_eq!(chain.len(), s.max_depth() + 1);
        assert_eq!(*chain.last().unwrap(), FlowKey::root());
        // Every ancestor contains the exact key.
        for a in &chain {
            assert!(a.contains(&exact()));
        }
        // Depth decreases by exactly one at each step.
        for w in chain.windows(2) {
            assert_eq!(s.depth(&w[0]), s.depth(&w[1]) + 1);
        }
    }

    #[test]
    fn priority_order_drops_ports_first() {
        let s = GeneralizationSchema::default();
        let p1 = s.parent(&exact()).unwrap();
        assert!(p1.field(Feature::SrcPort).is_wildcard());
        assert!(p1.field(Feature::DstPort).is_exact());
        let p2 = s.parent(&p1).unwrap();
        assert!(p2.field(Feature::DstPort).is_wildcard());
        assert!(p2.field(Feature::Proto).is_exact());
    }

    #[test]
    fn round_robin_alternates() {
        let s = GeneralizationSchema::bitwise_ip_pair();
        let key = FlowKey::five_tuple(
            6,
            "10.0.0.1".parse().unwrap(),
            1,
            "10.0.0.2".parse().unwrap(),
            2,
        );
        let norm = s.normalize(&key);
        // Ports/proto are off-ladder -> wildcarded by normalization.
        assert!(norm.field(Feature::SrcPort).is_wildcard());
        let p1 = s.parent(&norm).unwrap();
        let p2 = s.parent(&p1).unwrap();
        // First step widens src (tie, earliest in list), second widens dst.
        assert_eq!(p1.field(Feature::SrcIp).len(), 31);
        assert_eq!(p1.field(Feature::DstIp).len(), 32);
        assert_eq!(p2.field(Feature::SrcIp).len(), 31);
        assert_eq!(p2.field(Feature::DstIp).len(), 31);
    }

    #[test]
    fn normalize_snaps_down() {
        let s = GeneralizationSchema::default();
        let key = exact().generalize(Feature::SrcIp, 20);
        let norm = s.normalize(&key);
        assert_eq!(norm.field(Feature::SrcIp).len(), 16);
        assert!(s.is_normalized(&norm));
        assert!(!s.is_normalized(&key));
        assert!(norm.contains(&key));
    }

    #[test]
    fn parent_of_offladder_key_is_normalization() {
        let s = GeneralizationSchema::default();
        let key = exact().generalize(Feature::SrcIp, 20);
        assert_eq!(s.parent(&key).unwrap(), s.normalize(&key));
    }

    #[test]
    fn root_has_no_parent() {
        let s = GeneralizationSchema::default();
        assert_eq!(s.parent(&FlowKey::root()), None);
        assert_eq!(s.ancestors(&FlowKey::root()).count(), 0);
    }

    #[test]
    fn common_ancestor_basics() {
        let s = GeneralizationSchema::default();
        let a = exact();
        let b = FlowKey::five_tuple(
            17,
            "10.1.2.99".parse().unwrap(),
            5353,
            "192.168.9.1".parse().unwrap(),
            53,
        );
        let anc = s.common_ancestor(&a, &b);
        assert!(anc.contains(&a) && anc.contains(&b));
        assert_eq!(s.common_ancestor(&a, &a), a);
        assert_eq!(s.common_ancestor(&a, &FlowKey::root()), FlowKey::root());
    }

    #[test]
    fn schema_rejects_bad_ladders() {
        let mut ladders: [Vec<u8>; 5] = Default::default();
        ladders[Feature::Proto.index()] = vec![0, 9]; // width is 8
        assert_eq!(
            GeneralizationSchema::new(ladders, StepOrder::Priority(vec![Feature::Proto])),
            Err(SchemaError::LadderExceedsWidth(Feature::Proto))
        );
        assert_eq!(
            GeneralizationSchema::new(Default::default(), StepOrder::Priority(vec![])),
            Err(SchemaError::EmptyOrder)
        );
    }

    fn arb_exact_key() -> impl Strategy<Value = FlowKey> {
        (
            any::<u8>(),
            any::<u32>(),
            any::<u16>(),
            any::<u32>(),
            any::<u16>(),
        )
            .prop_map(|(p, si, sp, di, dp)| {
                FlowKey::five_tuple(
                    p,
                    crate::addr::Ipv4Addr::new(si),
                    sp,
                    crate::addr::Ipv4Addr::new(di),
                    dp,
                )
            })
    }

    proptest! {
        #[test]
        fn prop_parent_chain_terminates_and_contains(key in arb_exact_key()) {
            let s = GeneralizationSchema::default();
            let mut cur = key;
            let mut steps = 0;
            while let Some(p) = s.parent(&cur) {
                prop_assert!(p.contains(&cur));
                prop_assert!(s.depth(&p) < s.depth(&cur));
                cur = p;
                steps += 1;
                prop_assert!(steps <= s.max_depth());
            }
            prop_assert_eq!(cur, FlowKey::root());
        }

        #[test]
        fn prop_common_ancestor_symmetric(a in arb_exact_key(), b in arb_exact_key()) {
            let s = GeneralizationSchema::default();
            let ab = s.common_ancestor(&a, &b);
            prop_assert_eq!(ab, s.common_ancestor(&b, &a));
            prop_assert!(ab.contains(&a));
            prop_assert!(ab.contains(&b));
        }

        #[test]
        fn prop_bitwise_schema_chain(a in arb_exact_key()) {
            let s = GeneralizationSchema::bitwise_ip_pair();
            let chain: Vec<_> = s.self_and_ancestors(&a).collect();
            prop_assert_eq!(chain.len(), s.depth(&s.normalize(&a)) + 1);
            prop_assert_eq!(*chain.last().unwrap(), FlowKey::root());
        }

        /// The stepped walk reproduces the `parent()` chain exactly on every
        /// built-in schema, for exact, arbitrarily masked (mostly off-ladder,
        /// e.g. /20) and feature-projected keys.
        #[test]
        fn prop_stepped_ancestors_equal_parent_chain(
            exact in arb_exact_key(),
            lens in (0u8..=8, 0u8..=32, 0u8..=32, 0u8..=16, 0u8..=16),
            projection in 0u8..32,
        ) {
            let masked = exact
                .generalize(Feature::Proto, lens.0)
                .generalize(Feature::SrcIp, lens.1)
                .generalize(Feature::DstIp, lens.2)
                .generalize(Feature::SrcPort, lens.3)
                .generalize(Feature::DstPort, lens.4);
            let features: FeatureSet = Feature::ALL
                .into_iter()
                .filter(|f| projection & (1 << f.index()) != 0)
                .collect();
            for s in builtin_schemas() {
                for key in [exact, masked, exact.project(features), masked.project(features)] {
                    let ancestors: Vec<_> = s.ancestors(&key).collect();
                    prop_assert_eq!(ancestors, parent_chain(&s, &key));
                    let norm = s.normalize(&key);
                    let mut expected = vec![norm];
                    expected.extend(parent_chain(&s, &norm));
                    let walked: Vec<_> = s.self_and_ancestors(&key).collect();
                    prop_assert_eq!(walked, expected);
                }
            }
        }
    }

    fn builtin_schemas() -> [GeneralizationSchema; 4] {
        [
            GeneralizationSchema::network_default(),
            GeneralizationSchema::dst_preserving(),
            GeneralizationSchema::src_preserving(),
            GeneralizationSchema::bitwise_ip_pair(),
        ]
    }

    /// The reference chain: `parent()` applied until the root.
    fn parent_chain(s: &GeneralizationSchema, key: &FlowKey) -> Vec<FlowKey> {
        let mut chain = Vec::new();
        let mut cur = *key;
        while let Some(p) = s.parent(&cur) {
            chain.push(p);
            cur = p;
        }
        chain
    }

    #[test]
    fn stepped_ancestors_of_offladder_key_start_at_normalization() {
        for s in builtin_schemas() {
            let key = exact().generalize(Feature::SrcIp, 20);
            let ancestors: Vec<_> = s.ancestors(&key).collect();
            assert_eq!(ancestors, parent_chain(&s, &key));
            assert_eq!(ancestors.first(), Some(&s.normalize(&key)));
        }
    }
}
