//! Generalized flow keys.
//!
//! A *flow key* is a vector of five maskable features — protocol, source IP,
//! destination IP, source port, destination port. Each feature can be
//! *generalized* by shortening its mask; a key with every feature fully
//! wildcarded is the root of the flow hierarchy. "k-feature" flow types from
//! the paper (e.g. the 2-feature `src IP × dst IP` flow) are keys whose
//! remaining features are fully wildcarded — see [`FeatureSet`].

use std::fmt;

use crate::addr::{Ipv4Addr, Prefix};
use crate::record::FlowRecord;

/// One of the five flow features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Feature {
    /// IP protocol number (8 bits).
    Proto,
    /// Source IPv4 address (32 bits).
    SrcIp,
    /// Destination IPv4 address (32 bits).
    DstIp,
    /// Source transport port (16 bits).
    SrcPort,
    /// Destination transport port (16 bits).
    DstPort,
}

impl Feature {
    /// All features in canonical order.
    pub const ALL: [Feature; 5] = [
        Feature::Proto,
        Feature::SrcIp,
        Feature::DstIp,
        Feature::SrcPort,
        Feature::DstPort,
    ];

    /// Bit width of the feature's value space.
    pub const fn width(self) -> u8 {
        match self {
            Feature::Proto => 8,
            Feature::SrcIp | Feature::DstIp => 32,
            Feature::SrcPort | Feature::DstPort => 16,
        }
    }

    /// Index of the feature in [`Feature::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Feature::Proto => 0,
            Feature::SrcIp => 1,
            Feature::DstIp => 2,
            Feature::SrcPort => 3,
            Feature::DstPort => 4,
        }
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Feature::Proto => "proto",
            Feature::SrcIp => "src_ip",
            Feature::DstIp => "dst_ip",
            Feature::SrcPort => "src_port",
            Feature::DstPort => "dst_port",
        };
        f.write_str(name)
    }
}

/// A set of flow features, e.g. the paper's "5-feature" or "2-feature" flows.
///
/// ```
/// use megastream_flow::key::{Feature, FeatureSet};
/// let pair = FeatureSet::SRC_DST_IP;
/// assert!(pair.contains(Feature::SrcIp));
/// assert!(!pair.contains(Feature::DstPort));
/// assert_eq!(pair.iter().count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureSet(u8);

impl FeatureSet {
    /// The empty feature set.
    pub const EMPTY: FeatureSet = FeatureSet(0);
    /// The classical 5-tuple.
    pub const FIVE_TUPLE: FeatureSet = FeatureSet(0b11111);
    /// The 2-feature `src IP × dst IP` flow type.
    pub const SRC_DST_IP: FeatureSet = FeatureSet(0b00110);
    /// The 2-feature `dst IP × dst port` flow type.
    pub const DST_IP_PORT: FeatureSet = FeatureSet(0b10100);

    /// Builds a set from a list of features.
    pub fn of(features: &[Feature]) -> Self {
        let mut bits = 0;
        for f in features {
            bits |= 1 << f.index();
        }
        FeatureSet(bits)
    }

    /// Whether the set contains `feature`.
    pub const fn contains(self, feature: Feature) -> bool {
        self.0 & (1 << feature.index()) != 0
    }

    /// Adds a feature, returning the extended set.
    #[must_use]
    pub const fn with(self, feature: Feature) -> Self {
        FeatureSet(self.0 | (1 << feature.index()))
    }

    /// Number of features in the set.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the contained features in canonical order.
    pub fn iter(self) -> impl Iterator<Item = Feature> {
        Feature::ALL.into_iter().filter(move |f| self.contains(*f))
    }
}

impl Default for FeatureSet {
    fn default() -> Self {
        FeatureSet::FIVE_TUPLE
    }
}

impl FromIterator<Feature> for FeatureSet {
    fn from_iter<I: IntoIterator<Item = Feature>>(iter: I) -> Self {
        let mut set = FeatureSet::EMPTY;
        for f in iter {
            set = set.with(f);
        }
        set
    }
}

/// A masked feature value: `len` significant high bits out of `width`.
///
/// Invariant: bits below the mask are zero and `len <= width <= 32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MaskedField {
    value: u32,
    width: u8,
    len: u8,
}

impl MaskedField {
    /// Creates a field, normalizing the value to the mask.
    ///
    /// # Panics
    ///
    /// Panics if `len > width` or `width > 32`.
    pub fn new(value: u32, width: u8, len: u8) -> Self {
        assert!(width <= 32, "field width {width} out of range");
        assert!(len <= width, "mask length {len} exceeds width {width}");
        MaskedField {
            value: mask_to(value, width, len),
            width,
            len,
        }
    }

    /// A fully-specified (exact) field.
    pub fn exact(value: u32, width: u8) -> Self {
        MaskedField::new(value, width, width)
    }

    /// A fully wildcarded field.
    pub fn wildcard(width: u8) -> Self {
        MaskedField::new(0, width, 0)
    }

    /// The masked value.
    pub const fn value(self) -> u32 {
        self.value
    }

    /// The bit width of the value space.
    pub const fn width(self) -> u8 {
        self.width
    }

    /// The mask length (0 = wildcard, `width` = exact).
    #[allow(
        clippy::len_without_is_empty,
        reason = "mask length in bits, not a container"
    )]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Whether the field is fully wildcarded.
    pub const fn is_wildcard(self) -> bool {
        self.len == 0
    }

    /// Whether the field is fully specified.
    pub const fn is_exact(self) -> bool {
        self.len == self.width
    }

    /// Generalizes the field to a shorter mask.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current mask length.
    #[must_use]
    pub fn generalized(self, len: u8) -> Self {
        assert!(
            len <= self.len,
            "cannot generalize mask {} to longer {}",
            self.len,
            len
        );
        MaskedField::new(self.value, self.width, len)
    }

    /// Whether `other` is equal to or more specific than `self`.
    pub fn contains(self, other: MaskedField) -> bool {
        self.width == other.width
            && other.len >= self.len
            && mask_to(other.value, self.width, self.len) == self.value
    }
}

fn mask_to(value: u32, width: u8, len: u8) -> u32 {
    debug_assert!(len <= width && width <= 32);
    if len == 0 {
        return 0;
    }
    let keep = len as u32;
    let total = width as u32;
    // Mask of `keep` high bits within a `total`-bit value.
    let mask = if keep >= total {
        if total == 32 {
            u32::MAX
        } else {
            (1u32 << total) - 1
        }
    } else {
        (((1u32 << keep) - 1) << (total - keep))
            & if total == 32 {
                u32::MAX
            } else {
                (1u32 << total) - 1
            }
    };
    value & mask
}

/// A generalized flow: five masked features.
///
/// `FlowKey` is a point in the flow generalization lattice. The fully
/// wildcarded key ([`FlowKey::root`]) generalizes every flow.
///
/// ```
/// use megastream_flow::key::{Feature, FlowKey};
/// let key = FlowKey::five_tuple(6, "10.1.2.3".parse()?, 443, "8.8.8.8".parse()?, 53);
/// let wide = key.generalize(Feature::SrcIp, 8).generalize(Feature::SrcPort, 0);
/// assert!(wide.contains(&key));
/// assert_eq!(wide.to_string(), "proto=6 src=10.0.0.0/8:* dst=8.8.8.8/32:53");
/// # Ok::<(), megastream_flow::addr::ParseAddrError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    fields: [MaskedField; 5],
}

impl FlowKey {
    /// The fully wildcarded key (root of the hierarchy).
    pub fn root() -> Self {
        FlowKey {
            fields: [
                MaskedField::wildcard(Feature::Proto.width()),
                MaskedField::wildcard(Feature::SrcIp.width()),
                MaskedField::wildcard(Feature::DstIp.width()),
                MaskedField::wildcard(Feature::SrcPort.width()),
                MaskedField::wildcard(Feature::DstPort.width()),
            ],
        }
    }

    /// An exact 5-tuple key.
    pub fn five_tuple(
        proto: u8,
        src_ip: Ipv4Addr,
        src_port: u16,
        dst_ip: Ipv4Addr,
        dst_port: u16,
    ) -> Self {
        let mut key = FlowKey::root();
        key.fields[Feature::Proto.index()] = MaskedField::exact(proto as u32, 8);
        key.fields[Feature::SrcIp.index()] = MaskedField::exact(src_ip.bits(), 32);
        key.fields[Feature::DstIp.index()] = MaskedField::exact(dst_ip.bits(), 32);
        key.fields[Feature::SrcPort.index()] = MaskedField::exact(src_port as u32, 16);
        key.fields[Feature::DstPort.index()] = MaskedField::exact(dst_port as u32, 16);
        key
    }

    /// Builds the exact key of a raw flow record.
    pub fn from_record(record: &FlowRecord) -> Self {
        FlowKey::five_tuple(
            record.proto,
            record.src_ip,
            record.src_port,
            record.dst_ip,
            record.dst_port,
        )
    }

    /// Builds the key of a record *projected* onto `features`: features
    /// outside the set are fully wildcarded.
    pub fn from_record_projected(record: &FlowRecord, features: FeatureSet) -> Self {
        FlowKey::from_record(record).project(features)
    }

    /// Returns the field of `feature`.
    pub fn field(&self, feature: Feature) -> MaskedField {
        self.fields[feature.index()]
    }

    /// Replaces the field of `feature`.
    ///
    /// # Panics
    ///
    /// Panics if the field width does not match the feature width.
    #[must_use]
    pub fn with_field(mut self, feature: Feature, field: MaskedField) -> Self {
        assert_eq!(
            field.width(),
            feature.width(),
            "field width mismatch for {feature}"
        );
        self.fields[feature.index()] = field;
        self
    }

    /// Sets the source-IP feature to a prefix.
    #[must_use]
    pub fn with_src_prefix(self, prefix: Prefix) -> Self {
        self.with_field(
            Feature::SrcIp,
            MaskedField::new(prefix.addr().bits(), 32, prefix.len()),
        )
    }

    /// Sets the destination-IP feature to a prefix.
    #[must_use]
    pub fn with_dst_prefix(self, prefix: Prefix) -> Self {
        self.with_field(
            Feature::DstIp,
            MaskedField::new(prefix.addr().bits(), 32, prefix.len()),
        )
    }

    /// Returns the source-IP feature as a prefix.
    pub fn src_prefix(&self) -> Prefix {
        let f = self.field(Feature::SrcIp);
        Prefix::new(Ipv4Addr::new(f.value()), f.len())
    }

    /// Returns the destination-IP feature as a prefix.
    pub fn dst_prefix(&self) -> Prefix {
        let f = self.field(Feature::DstIp);
        Prefix::new(Ipv4Addr::new(f.value()), f.len())
    }

    /// Generalizes one feature to mask length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the feature's current mask length.
    #[must_use]
    pub fn generalize(mut self, feature: Feature, len: u8) -> Self {
        let idx = feature.index();
        self.fields[idx] = self.fields[idx].generalized(len);
        self
    }

    /// Wildcards every feature not in `features`.
    #[must_use]
    pub fn project(mut self, features: FeatureSet) -> Self {
        for f in Feature::ALL {
            if !features.contains(f) {
                self.fields[f.index()] = MaskedField::wildcard(f.width());
            }
        }
        self
    }

    /// Whether `other` is equal to or more specific than `self` on every
    /// feature (the partial order of the generalization lattice).
    pub fn contains(&self, other: &FlowKey) -> bool {
        self.fields
            .iter()
            .zip(other.fields.iter())
            .all(|(a, b)| a.contains(*b))
    }

    /// Total number of specified mask bits across all features.
    ///
    /// The root has specificity 0; an exact 5-tuple has
    /// `8 + 32 + 32 + 16 + 16 = 104`.
    pub fn specificity(&self) -> u32 {
        self.fields.iter().map(|f| f.len() as u32).sum()
    }

    /// Whether this is the fully wildcarded root key.
    pub fn is_root(&self) -> bool {
        self.specificity() == 0
    }

    /// The set of features that are not fully wildcarded.
    pub fn feature_set(&self) -> FeatureSet {
        Feature::ALL
            .into_iter()
            .filter(|f| !self.field(*f).is_wildcard())
            .collect()
    }
}

impl Default for FlowKey {
    fn default() -> Self {
        FlowKey::root()
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let proto = self.field(Feature::Proto);
        if proto.is_wildcard() {
            write!(f, "proto=* ")?;
        } else if proto.is_exact() {
            write!(f, "proto={} ", proto.value())?;
        } else {
            write!(f, "proto={}/{} ", proto.value(), proto.len())?;
        }
        let port = |pf: MaskedField| -> String {
            if pf.is_wildcard() {
                "*".to_owned()
            } else if pf.is_exact() {
                pf.value().to_string()
            } else {
                format!("{}/{}", pf.value(), pf.len())
            }
        };
        write!(
            f,
            "src={}:{} dst={}:{}",
            self.src_prefix(),
            port(self.field(Feature::SrcPort)),
            self.dst_prefix(),
            port(self.field(Feature::DstPort)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key() -> FlowKey {
        FlowKey::five_tuple(
            6,
            "10.1.2.3".parse().unwrap(),
            443,
            "8.8.8.8".parse().unwrap(),
            53,
        )
    }

    #[test]
    fn root_contains_everything() {
        assert!(FlowKey::root().contains(&key()));
        assert!(FlowKey::root().is_root());
        assert_eq!(FlowKey::root().specificity(), 0);
    }

    #[test]
    fn exact_key_specificity() {
        assert_eq!(key().specificity(), 104);
        assert!(!key().is_root());
    }

    #[test]
    fn generalization_preserves_containment() {
        let k = key();
        let wide = k.generalize(Feature::SrcIp, 16);
        assert!(wide.contains(&k));
        assert!(!k.contains(&wide));
        assert_eq!(wide.src_prefix().to_string(), "10.1.0.0/16");
    }

    #[test]
    fn projection_wildcards_other_features() {
        let k = key().project(FeatureSet::SRC_DST_IP);
        assert!(k.field(Feature::Proto).is_wildcard());
        assert!(k.field(Feature::SrcPort).is_wildcard());
        assert!(k.field(Feature::SrcIp).is_exact());
        assert_eq!(k.feature_set(), FeatureSet::SRC_DST_IP);
        assert_eq!(k.specificity(), 64);
    }

    #[test]
    fn feature_set_ops() {
        let s = FeatureSet::of(&[Feature::Proto, Feature::DstPort]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Feature::Proto));
        assert!(!s.contains(Feature::SrcIp));
        let s2: FeatureSet = [Feature::Proto, Feature::DstPort].into_iter().collect();
        assert_eq!(s, s2);
        assert!(FeatureSet::EMPTY.is_empty());
        assert_eq!(FeatureSet::FIVE_TUPLE.len(), 5);
    }

    #[test]
    fn masked_field_normalizes() {
        let f = MaskedField::new(0xFFFF, 16, 8);
        assert_eq!(f.value(), 0xFF00);
        assert!(MaskedField::wildcard(16).is_wildcard());
        assert!(MaskedField::exact(80, 16).is_exact());
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn masked_field_rejects_len_over_width() {
        let _ = MaskedField::new(0, 16, 17);
    }

    #[test]
    fn display_format() {
        let k = key();
        assert_eq!(
            k.to_string(),
            "proto=6 src=10.1.2.3/32:443 dst=8.8.8.8/32:53"
        );
        assert_eq!(
            FlowKey::root().to_string(),
            "proto=* src=0.0.0.0/0:* dst=0.0.0.0/0:*"
        );
    }

    fn arb_key() -> impl Strategy<Value = FlowKey> {
        (
            any::<u8>(),
            any::<u32>(),
            any::<u16>(),
            any::<u32>(),
            any::<u16>(),
            0u8..=8,
            0u8..=32,
            0u8..=32,
            0u8..=16,
            0u8..=16,
        )
            .prop_map(|(p, si, sp, di, dp, lp, lsi, ldi, lsp, ldp)| {
                FlowKey::five_tuple(p, Ipv4Addr::new(si), sp, Ipv4Addr::new(di), dp)
                    .generalize(Feature::Proto, lp)
                    .generalize(Feature::SrcIp, lsi)
                    .generalize(Feature::DstIp, ldi)
                    .generalize(Feature::SrcPort, lsp)
                    .generalize(Feature::DstPort, ldp)
            })
    }

    proptest! {
        #[test]
        fn prop_contains_partial_order(k in arb_key()) {
            // Reflexive.
            prop_assert!(k.contains(&k));
            // Root is the top element.
            prop_assert!(FlowKey::root().contains(&k));
        }

        #[test]
        fn prop_generalize_monotone(k in arb_key(), f_idx in 0usize..5) {
            let f = Feature::ALL[f_idx];
            let cur = k.field(f).len();
            if cur > 0 {
                let wide = k.generalize(f, cur - 1);
                prop_assert!(wide.contains(&k));
                prop_assert_eq!(wide.specificity() + 1, k.specificity());
            }
        }

        #[test]
        fn prop_projection_idempotent(k in arb_key()) {
            let p = k.project(FeatureSet::SRC_DST_IP);
            prop_assert_eq!(p, p.project(FeatureSet::SRC_DST_IP));
            prop_assert!(p.contains(&k.project(FeatureSet::SRC_DST_IP)));
        }
    }
}
