//! IPv4 addresses and CIDR prefixes.
//!
//! The crate uses its own address type (a transparent wrapper over `u32`)
//! rather than `std::net::Ipv4Addr` so that masking, ordering and arithmetic
//! on the generalization lattice are explicit and cheap.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address stored as a host-order `u32`.
///
/// ```
/// use megastream_flow::addr::Ipv4Addr;
/// let a: Ipv4Addr = "10.0.0.1".parse()?;
/// assert_eq!(a.octets(), [10, 0, 0, 1]);
/// # Ok::<(), megastream_flow::addr::ParseAddrError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(u32);

impl Ipv4Addr {
    /// The all-zero address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);

    /// Creates an address from a host-order `u32`.
    pub const fn new(bits: u32) -> Self {
        Ipv4Addr(bits)
    }

    /// Creates an address from four octets.
    pub const fn from_octets(o: [u8; 4]) -> Self {
        Ipv4Addr(u32::from_be_bytes(o))
    }

    /// Returns the raw host-order bits.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Returns the four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Masks the address down to its `len` most significant bits.
    ///
    /// ```
    /// use megastream_flow::addr::Ipv4Addr;
    /// let a: Ipv4Addr = "10.1.2.3".parse().unwrap();
    /// assert_eq!(a.masked(8), "10.0.0.0".parse().unwrap());
    /// ```
    pub const fn masked(self, len: u8) -> Self {
        Ipv4Addr(mask_bits(self.0, len))
    }
}

/// Masks `bits` to its `len` most significant bits (`len` is clamped to 32).
const fn mask_bits(bits: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else if len >= 32 {
        bits
    } else {
        bits & (u32::MAX << (32 - len))
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl From<u32> for Ipv4Addr {
    fn from(bits: u32) -> Self {
        Ipv4Addr(bits)
    }
}

impl From<[u8; 4]> for Ipv4Addr {
    fn from(octets: [u8; 4]) -> Self {
        Ipv4Addr::from_octets(octets)
    }
}

/// Error produced when parsing an [`Ipv4Addr`] or [`Prefix`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddrError {
    input: String,
}

impl ParseAddrError {
    fn new(input: &str) -> Self {
        ParseAddrError {
            input: input.to_owned(),
        }
    }
}

impl fmt::Display for ParseAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 address or prefix syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseAddrError {}

impl FromStr for Ipv4Addr {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts.next().ok_or_else(|| ParseAddrError::new(s))?;
            *slot = part.parse().map_err(|_| ParseAddrError::new(s))?;
        }
        if parts.next().is_some() {
            return Err(ParseAddrError::new(s));
        }
        Ok(Ipv4Addr::from_octets(octets))
    }
}

/// A CIDR prefix: an address plus a mask length in `0..=32`.
///
/// The stored address is always normalized (bits below the mask are zero),
/// so two prefixes compare equal iff they denote the same address block.
///
/// ```
/// use megastream_flow::addr::Prefix;
/// let p: Prefix = "10.1.0.0/16".parse()?;
/// assert!(p.contains_addr("10.1.200.7".parse()?));
/// assert!(!p.contains_addr("10.2.0.1".parse()?));
/// # Ok::<(), megastream_flow::addr::ParseAddrError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Ipv4Addr,
    len: u8,
}

impl Prefix {
    /// The root prefix `0.0.0.0/0` containing every address.
    pub const ROOT: Prefix = Prefix {
        addr: Ipv4Addr::UNSPECIFIED,
        len: 0,
    };

    /// Creates a prefix, normalizing the address to the mask length.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range 0..=32");
        Prefix {
            addr: addr.masked(len),
            len,
        }
    }

    /// Creates a /32 host prefix.
    pub fn host(addr: Ipv4Addr) -> Self {
        Prefix { addr, len: 32 }
    }

    /// The (normalized) network address.
    pub fn addr(self) -> Ipv4Addr {
        self.addr
    }

    /// The mask length.
    #[allow(
        clippy::len_without_is_empty,
        reason = "prefix length in bits, not a container"
    )]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Whether this is the root prefix `0.0.0.0/0`.
    pub fn is_root(self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains_addr(self, addr: Ipv4Addr) -> bool {
        addr.masked(self.len) == self.addr
    }

    /// Whether `other` is equal to or more specific than `self`.
    pub fn contains(self, other: Prefix) -> bool {
        other.len >= self.len && other.addr.masked(self.len) == self.addr
    }

    /// Generalizes this prefix to `len` bits (a shorter mask).
    ///
    /// # Panics
    ///
    /// Panics if `len` is longer than the current mask (that would be a
    /// *specialization*, which loses no information only for hosts).
    pub fn generalized(self, len: u8) -> Prefix {
        assert!(
            len <= self.len,
            "cannot generalize /{} to longer /{}",
            self.len,
            len
        );
        Prefix::new(self.addr, len)
    }

    /// The longest prefix containing both `self` and `other`.
    pub fn common_ancestor(self, other: Prefix) -> Prefix {
        let max_len = self.len.min(other.len);
        let diff = self.addr.bits() ^ other.addr.bits();
        let common = (diff.leading_zeros() as u8).min(max_len);
        Prefix::new(self.addr, common)
    }
}

impl Default for Prefix {
    fn default() -> Self {
        Prefix::ROOT
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl From<Ipv4Addr> for Prefix {
    fn from(addr: Ipv4Addr) -> Self {
        Prefix::host(addr)
    }
}

impl FromStr for Prefix {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            Some((addr, len)) => {
                let addr: Ipv4Addr = addr.parse()?;
                let len: u8 = len.parse().map_err(|_| ParseAddrError::new(s))?;
                if len > 32 {
                    return Err(ParseAddrError::new(s));
                }
                Ok(Prefix::new(addr, len))
            }
            None => Ok(Prefix::host(s.parse()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0.0.0.0", "10.1.2.3", "255.255.255.255", "192.168.0.1"] {
            let a: Ipv4Addr = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3"] {
            assert!(s.parse::<Ipv4Addr>().is_err(), "accepted {s:?}");
        }
    }

    #[test]
    fn prefix_parse_and_display() {
        let p: Prefix = "10.1.2.3/16".parse().unwrap();
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(p.len(), 16);
        let host: Prefix = "10.1.2.3".parse().unwrap();
        assert_eq!(host.len(), 32);
    }

    #[test]
    fn prefix_parse_rejects_bad_lengths() {
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn masking_zeroes_low_bits() {
        let a: Ipv4Addr = "10.1.2.3".parse().unwrap();
        assert_eq!(a.masked(0), Ipv4Addr::UNSPECIFIED);
        assert_eq!(a.masked(32), a);
        assert_eq!(a.masked(24), "10.1.2.0".parse().unwrap());
    }

    #[test]
    fn containment_is_reflexive_and_ordered() {
        let wide: Prefix = "10.0.0.0/8".parse().unwrap();
        let narrow: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(wide.contains(wide));
        assert!(wide.contains(narrow));
        assert!(!narrow.contains(wide));
        assert!(Prefix::ROOT.contains(wide));
    }

    #[test]
    fn common_ancestor_examples() {
        let a: Prefix = "10.1.0.0/16".parse().unwrap();
        let b: Prefix = "10.2.0.0/16".parse().unwrap();
        let anc = a.common_ancestor(b);
        assert!(anc.contains(a) && anc.contains(b));
        assert_eq!(anc, "10.0.0.0/14".parse().unwrap());
        assert_eq!(a.common_ancestor(a), a);
    }

    #[test]
    #[should_panic(expected = "cannot generalize")]
    fn generalized_rejects_longer_mask() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let _ = p.generalized(16);
    }

    proptest! {
        #[test]
        fn prop_display_parse_roundtrip(bits in any::<u32>()) {
            let a = Ipv4Addr::new(bits);
            let parsed: Ipv4Addr = a.to_string().parse().unwrap();
            prop_assert_eq!(a, parsed);
        }

        #[test]
        fn prop_mask_idempotent(bits in any::<u32>(), len in 0u8..=32) {
            let a = Ipv4Addr::new(bits);
            prop_assert_eq!(a.masked(len).masked(len), a.masked(len));
        }

        #[test]
        fn prop_shorter_mask_contains(bits in any::<u32>(), l1 in 0u8..=32, l2 in 0u8..=32) {
            let (short, long) = (l1.min(l2), l1.max(l2));
            let p_long = Prefix::new(Ipv4Addr::new(bits), long);
            let p_short = Prefix::new(Ipv4Addr::new(bits), short);
            prop_assert!(p_short.contains(p_long));
        }

        #[test]
        fn prop_common_ancestor_contains_both(a in any::<u32>(), b in any::<u32>(), la in 0u8..=32, lb in 0u8..=32) {
            let pa = Prefix::new(Ipv4Addr::new(a), la);
            let pb = Prefix::new(Ipv4Addr::new(b), lb);
            let anc = pa.common_ancestor(pb);
            prop_assert!(anc.contains(pa));
            prop_assert!(anc.contains(pb));
            // Symmetry.
            prop_assert_eq!(anc, pb.common_ancestor(pa));
        }
    }
}
