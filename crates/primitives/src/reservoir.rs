//! Mergeable reservoir sampling (Algorithm R with weighted merge).
//!
//! Reservoirs back the quantile estimates of [`crate::timebin`] and are a
//! sampling method in their own right (paper §V: "sampling methods").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::aggregator::Combinable;

/// A fixed-capacity uniform sample of a stream.
///
/// ```
/// use megastream_primitives::reservoir::Reservoir;
/// let mut r = Reservoir::new(8, 42);
/// for v in 0..1000 {
///     r.insert(v);
/// }
/// assert_eq!(r.len(), 8);
/// assert_eq!(r.seen(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
    rng: StdRng,
}

impl<T: PartialEq> PartialEq for Reservoir<T> {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.seen == other.seen && self.items == other.items
    }
}

impl<T: Clone> Reservoir<T> {
    /// Creates an empty reservoir with the given capacity and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be non-zero");
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Rebuilds a reservoir from its observable parts, or `None` if the
    /// parts violate the invariants (`capacity == 0`, more items than
    /// capacity, or more items than seen). The RNG is reseeded from `seed`:
    /// the in-flight generator state is not observable, and [`PartialEq`]
    /// deliberately ignores it, so a round-tripped reservoir compares equal
    /// to the original. Used by the cold-tier codec.
    pub fn from_parts(capacity: usize, seed: u64, seen: u64, items: Vec<T>) -> Option<Self> {
        if capacity == 0 || items.len() > capacity || (items.len() as u64) > seen {
            return None;
        }
        Some(Reservoir {
            capacity,
            seen,
            items,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Offers one stream item to the reservoir.
    pub fn insert(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let j = self.rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// The retained sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of retained items (at most the capacity).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no item has been retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total number of items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears the sample and the seen counter.
    pub fn clear(&mut self) {
        self.items.clear();
        self.seen = 0;
    }
}

impl<T: Clone> Combinable for Reservoir<T> {
    /// Merges two reservoirs into a sample approximating a uniform draw from
    /// the union of both underlying streams: each slot of the merged sample
    /// is drawn from one side with probability proportional to how many
    /// items that side has seen.
    fn combine(&mut self, other: &Self) {
        if other.seen == 0 {
            return;
        }
        if self.seen == 0 {
            self.items = other.items.clone();
            self.seen = other.seen;
            self.capacity = self.capacity.max(other.capacity);
            return;
        }
        let total = self.seen + other.seen;
        let capacity = self.capacity.max(other.capacity);
        let target = capacity.min((self.items.len() + other.items.len()).max(1));
        let mut merged = Vec::with_capacity(target);
        for _ in 0..target {
            let from_self = self.rng.gen_range(0..total) < self.seen;
            let source = if from_self && !self.items.is_empty() {
                &self.items
            } else if !other.items.is_empty() {
                &other.items
            } else {
                &self.items
            };
            let idx = self.rng.gen_range(0..source.len());
            merged.push(source[idx].clone());
        }
        self.items = merged;
        self.seen = total;
        self.capacity = capacity;
    }
}

impl<T: Clone + PartialOrd> Reservoir<T> {
    /// Estimates the `q`-quantile (`0.0..=1.0`) of the sampled stream, or
    /// `None` if the reservoir is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0` or any sampled value is
    /// unordered (e.g. NaN).
    #[expect(
        clippy::expect_used,
        reason = "the quantile sort's partial_cmp expect encodes the documented non-NaN \
                  contract of the generic T: PartialOrd API; all in-tree instantiations are \
                  integer scores where NaN cannot occur"
    )]
    pub fn quantile(&self, q: f64) -> Option<T> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
        if self.items.is_empty() {
            return None;
        }
        let mut sorted = self.items.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("unordered value in reservoir"));
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fills_up_to_capacity_then_samples() {
        let mut r = Reservoir::new(4, 1);
        for v in 0..3 {
            r.insert(v);
        }
        assert_eq!(r.items(), &[0, 1, 2]);
        for v in 3..1000 {
            r.insert(v);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.seen(), 1000);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Mean of a uniform sample of 0..10_000 should be near 5_000.
        let mut r = Reservoir::new(200, 7);
        for v in 0..10_000u64 {
            r.insert(v);
        }
        let mean = r.items().iter().sum::<u64>() as f64 / r.len() as f64;
        assert!((mean - 5_000.0).abs() < 1_000.0, "mean {mean}");
    }

    #[test]
    fn quantile_estimates() {
        let mut r = Reservoir::new(1000, 3);
        for v in 0..1000u64 {
            r.insert(v);
        }
        // Capacity >= stream length → exact quantiles.
        assert_eq!(r.quantile(0.0), Some(0));
        assert_eq!(r.quantile(1.0), Some(999));
        let med = r.quantile(0.5).unwrap();
        assert!((med as i64 - 500).abs() <= 1, "median {med}");
        assert_eq!(Reservoir::<u64>::new(4, 0).quantile(0.5), None);
    }

    #[test]
    fn merge_respects_seen_proportions() {
        let mut a = Reservoir::new(100, 11);
        for _ in 0..9_000 {
            a.insert(1u8);
        }
        let mut b = Reservoir::new(100, 12);
        for _ in 0..1_000 {
            b.insert(2u8);
        }
        a.combine(&b);
        assert_eq!(a.seen(), 10_000);
        let ones = a.items().iter().filter(|&&v| v == 1).count();
        // Expect ~90 ones out of 100.
        assert!(ones > 70 && ones <= 100, "{ones} ones after merge");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Reservoir::new(4, 1);
        for v in 0..10 {
            a.insert(v);
        }
        let snapshot = a.items().to_vec();
        let b = Reservoir::new(4, 2);
        a.combine(&b);
        assert_eq!(a.items(), &snapshot[..]);
        let mut empty = Reservoir::new(4, 3);
        empty.combine(&a);
        assert_eq!(empty.seen(), 10);
        assert_eq!(empty.len(), a.len());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Reservoir::<u8>::new(0, 0);
    }

    proptest! {
        #[test]
        fn prop_len_never_exceeds_capacity(cap in 1usize..64, n in 0u64..500) {
            let mut r = Reservoir::new(cap, 99);
            for v in 0..n {
                r.insert(v);
            }
            prop_assert!(r.len() <= cap);
            prop_assert_eq!(r.seen(), n);
            prop_assert_eq!(r.len() as u64, n.min(cap as u64));
        }

        #[test]
        fn prop_merge_seen_additive(n1 in 0u64..200, n2 in 0u64..200) {
            let mut a = Reservoir::new(16, 1);
            for v in 0..n1 { a.insert(v); }
            let mut b = Reservoir::new(16, 2);
            for v in 0..n2 { b.insert(v); }
            a.combine(&b);
            prop_assert_eq!(a.seen(), n1 + n2);
        }
    }
}
