//! Statistics over time bins: "simple statistics over time bins (e.g., sum,
//! mean, median, and standard deviation)" (paper §V).
//!
//! [`TimeBinStats`] buckets a stream of `(ts, value)` observations into bins
//! of a configurable width and keeps per-bin [`BinStats`] — count, sum,
//! min/max, sum of squares (for the standard deviation) and a small
//! reservoir (for the median and other quantiles).
//!
//! Granularity maps to the bin width: dial value `g` selects a width of
//! `base_width · 2^⌈log2(1/g)⌉`, so all admissible widths are power-of-two
//! multiples of the base width and any two summaries can be aligned by
//! re-binning the finer one ([`BinnedSeries::coarsened_to`]).

use std::collections::BTreeMap;

use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};

use crate::aggregator::{Combinable, ComputingPrimitive, Granularity, PrimitiveDescription};
use crate::reservoir::Reservoir;

/// Default number of values retained per bin for quantile estimation.
const QUANTILE_SAMPLE: usize = 32;

/// Aggregate statistics of one time bin.
#[derive(Debug, Clone, PartialEq)]
pub struct BinStats {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    sample: Reservoir<f64>,
}

impl BinStats {
    fn new(seed: u64) -> Self {
        BinStats {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sample: Reservoir::new(QUANTILE_SAMPLE, seed),
        }
    }

    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.sum_sq += value * value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sample.insert(value);
    }

    /// Rebuilds bin statistics from their parts, or `None` if the parts are
    /// inconsistent: a NaN moment or bound (NaN would poison the quantile
    /// sort's ordering contract), or `min > max` for a non-empty bin. Raw
    /// IEEE-754 bounds are accepted as-is so an empty bin's `+∞/-∞`
    /// sentinels round-trip exactly. Used by the cold-tier codec.
    pub fn from_parts(
        count: u64,
        sum: f64,
        sum_sq: f64,
        min: f64,
        max: f64,
        sample: Reservoir<f64>,
    ) -> Option<Self> {
        if sum.is_nan() || sum_sq.is_nan() || min.is_nan() || max.is_nan() {
            return None;
        }
        if count > 0 && min > max {
            return None;
        }
        if sample.items().iter().any(|v| v.is_nan()) {
            return None;
        }
        Some(BinStats {
            count,
            sum,
            sum_sq,
            min,
            max,
            sample,
        })
    }

    /// Number of observations in the bin.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sum of squared values (backs [`BinStats::stddev`]).
    pub fn sum_sq(&self) -> f64 {
        self.sum_sq
    }

    /// The raw `(min, max)` bounds, including the `(+∞, -∞)` sentinels of an
    /// empty bin — the exact stored parts, unlike [`BinStats::min`] /
    /// [`BinStats::max`] which hide the sentinels behind `Option`.
    pub fn raw_bounds(&self) -> (f64, f64) {
        (self.min, self.max)
    }

    /// The per-bin quantile reservoir.
    pub fn sample(&self) -> &Reservoir<f64> {
        &self.sample
    }

    /// Smallest observed value, or `None` for an empty bin.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed value, or `None` for an empty bin.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean value, or `None` for an empty bin.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Population standard deviation, or `None` for an empty bin.
    pub fn stddev(&self) -> Option<f64> {
        self.mean().map(|m| {
            let var = (self.sum_sq / self.count as f64 - m * m).max(0.0);
            var.sqrt()
        })
    }

    /// Estimated median (from the per-bin reservoir sample).
    pub fn median(&self) -> Option<f64> {
        self.sample.quantile(0.5)
    }

    /// Estimated `q`-quantile (from the per-bin reservoir sample).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sample.quantile(q)
    }
}

impl Combinable for BinStats {
    fn combine(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sample.combine(&other.sample);
    }
}

/// The data summary of [`TimeBinStats`]: a run of time bins.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedSeries {
    /// The time period this summary covers.
    pub window: TimeWindow,
    width: TimeDelta,
    bins: BTreeMap<u64, BinStats>,
}

impl BinnedSeries {
    /// Rebuilds a series from `(bin index, stats)` pairs, or `None` if
    /// `width` is zero (a zero width would divide by zero in every lookup).
    /// Duplicate indices are combined. Used by the cold-tier codec.
    pub fn from_parts(
        window: TimeWindow,
        width: TimeDelta,
        bins: Vec<(u64, BinStats)>,
    ) -> Option<Self> {
        if width.is_zero() {
            return None;
        }
        let mut map: BTreeMap<u64, BinStats> = BTreeMap::new();
        for (idx, stats) in bins {
            map.entry(idx)
                .and_modify(|b| b.combine(&stats))
                .or_insert(stats);
        }
        Some(BinnedSeries {
            window,
            width,
            bins: map,
        })
    }

    /// The bin width.
    pub fn width(&self) -> TimeDelta {
        self.width
    }

    /// Iterates over `(bin index, stats)` — the exact stored parts, inverse
    /// of [`BinnedSeries::from_parts`].
    pub fn raw_bins(&self) -> impl Iterator<Item = (u64, &BinStats)> {
        self.bins.iter().map(|(idx, stats)| (*idx, stats))
    }

    /// Number of non-empty bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether the summary holds no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Iterates over `(bin start, stats)` in time order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, &BinStats)> {
        let width = self.width.as_micros();
        self.bins
            .iter()
            .map(move |(idx, stats)| (Timestamp::from_micros(idx * width), stats))
    }

    /// P1 query: the statistics of the bin containing `ts`.
    pub fn bin_at(&self, ts: Timestamp) -> Option<&BinStats> {
        self.bins.get(&(ts.as_micros() / self.width.as_micros()))
    }

    /// P1 query: aggregate statistics over all bins intersecting `window`.
    pub fn aggregate(&self, window: TimeWindow) -> BinStats {
        let mut acc = BinStats::new(0);
        let width = self.width.as_micros();
        for (idx, stats) in &self.bins {
            let start = Timestamp::from_micros(idx * width);
            let bin_window = TimeWindow::starting_at(start, self.width);
            if bin_window.overlaps(window) {
                acc.combine(stats);
            }
        }
        acc
    }

    /// Re-bins into a coarser width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a non-zero multiple of the current width.
    #[must_use]
    pub fn coarsened_to(&self, width: TimeDelta) -> BinnedSeries {
        let cur = self.width.as_micros();
        let new = width.as_micros();
        assert!(
            new >= cur && new.is_multiple_of(cur),
            "target width {width} is not a multiple of current {}",
            self.width
        );
        let factor = new / cur;
        let mut bins: BTreeMap<u64, BinStats> = BTreeMap::new();
        for (idx, stats) in &self.bins {
            bins.entry(idx / factor)
                .and_modify(|b| b.combine(stats))
                .or_insert_with(|| stats.clone());
        }
        BinnedSeries {
            window: self.window,
            width,
            bins,
        }
    }
}

impl Combinable for BinnedSeries {
    /// Merges two binned series. If the widths differ, the finer series is
    /// re-binned to the coarser width first (widths are always power-of-two
    /// multiples of a common base, so this is exact).
    fn combine(&mut self, other: &Self) {
        let other_owned;
        let other = if other.width == self.width {
            other
        } else if other.width > self.width {
            *self = self.coarsened_to(other.width);
            other
        } else {
            other_owned = other.coarsened_to(self.width);
            &other_owned
        };
        for (idx, stats) in &other.bins {
            self.bins
                .entry(*idx)
                .and_modify(|b| b.combine(stats))
                .or_insert_with(|| stats.clone());
        }
        self.window = if self.window.is_empty() {
            other.window
        } else if other.window.is_empty() {
            self.window
        } else {
            self.window.hull(other.window)
        };
    }
}

/// The time-bin statistics primitive.
///
/// ```
/// use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
/// use megastream_primitives::aggregator::ComputingPrimitive;
/// use megastream_primitives::timebin::TimeBinStats;
///
/// let mut agg = TimeBinStats::new(TimeDelta::from_secs(1), 42);
/// for i in 0..10u64 {
///     agg.ingest(&(i as f64), Timestamp::from_micros(i * 500_000));
/// }
/// let window = TimeWindow::starting_at(Timestamp::ZERO, TimeDelta::from_secs(5));
/// let s = agg.snapshot(window);
/// assert_eq!(s.bin_at(Timestamp::ZERO).unwrap().count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TimeBinStats {
    base_width: TimeDelta,
    granularity: Granularity,
    seed: u64,
    bins: BTreeMap<u64, BinStats>,
}

impl TimeBinStats {
    /// Creates a time-bin aggregator with the given *base* (finest) bin
    /// width and RNG seed for the quantile reservoirs.
    ///
    /// # Panics
    ///
    /// Panics if `base_width` is zero.
    pub fn new(base_width: TimeDelta, seed: u64) -> Self {
        assert!(!base_width.is_zero(), "bin width must be non-zero");
        TimeBinStats {
            base_width,
            granularity: Granularity::FULL,
            seed,
            bins: BTreeMap::new(),
        }
    }

    /// The current effective bin width (base width scaled by granularity).
    pub fn effective_width(&self) -> TimeDelta {
        TimeDelta::from_micros(self.base_width.as_micros() * self.width_factor())
    }

    /// Folds an already-aggregated [`BinnedSeries`] into this aggregator —
    /// how a parent store absorbs the bins summaries its children export.
    /// The series is re-binned to this aggregator's effective width first.
    ///
    /// # Panics
    ///
    /// Panics if the widths are incompatible (neither divides the other).
    #[expect(
        clippy::panic,
        reason = "absorb() documents a `# Panics` contract: bins of different widths \
                  cannot be merged without aliasing time ranges; the width is fixed at \
                  construction so a mismatch is a configuration bug caught in tests"
    )]
    pub fn absorb(&mut self, series: &BinnedSeries) {
        let width = self.effective_width();
        let series_owned;
        let series = if series.width() == width {
            series
        } else if width.as_micros().is_multiple_of(series.width().as_micros()) {
            series_owned = series.coarsened_to(width);
            &series_owned
        } else if series.width().as_micros().is_multiple_of(width.as_micros()) {
            // The incoming series is coarser: coarsen ourselves to match.
            let factor = series.width().as_micros() / width.as_micros();
            let g = self.granularity.value() / factor as f64;
            self.set_granularity(Granularity::new(g));
            assert_eq!(
                self.effective_width(),
                series.width(),
                "width alignment failed"
            );
            series
        } else {
            panic!(
                "cannot absorb series of width {} into bins of width {width}",
                series.width()
            );
        };
        let w = self.effective_width().as_micros();
        for (ts, stats) in series.iter() {
            let idx = ts.as_micros() / w;
            self.bins
                .entry(idx)
                .and_modify(|b| b.combine(stats))
                .or_insert_with(|| stats.clone());
        }
    }

    /// Power-of-two factor the granularity dial maps to.
    fn width_factor(&self) -> u64 {
        let g = self.granularity.value();
        let exp = (1.0 / g).log2().ceil().max(0.0);
        // Cap the factor so the width stays representable.
        1u64 << (exp as u32).min(32)
    }
}

impl ComputingPrimitive for TimeBinStats {
    type Item = f64;
    type Summary = BinnedSeries;

    fn describe(&self) -> PrimitiveDescription {
        PrimitiveDescription {
            name: "timebin-stats",
            domain_aware: false,
            on_demand_granularity: true,
        }
    }

    fn ingest(&mut self, item: &f64, ts: Timestamp) {
        let width = self.effective_width().as_micros();
        let idx = ts.as_micros() / width;
        let seed = self.seed ^ idx;
        self.bins
            .entry(idx)
            .or_insert_with(|| BinStats::new(seed))
            .observe(*item);
    }

    fn snapshot(&self, window: TimeWindow) -> BinnedSeries {
        let width = self.effective_width();
        let w = width.as_micros();
        let bins = self
            .bins
            .iter()
            .filter(|(idx, _)| {
                let start = Timestamp::from_micros(*idx * w);
                TimeWindow::starting_at(start, width).overlaps(window)
            })
            .map(|(idx, stats)| (*idx, stats.clone()))
            .collect();
        BinnedSeries {
            window,
            width,
            bins,
        }
    }

    fn reset(&mut self) {
        self.bins.clear();
    }

    fn set_granularity(&mut self, granularity: Granularity) {
        if granularity == self.granularity {
            return;
        }
        let old_width = self.effective_width();
        self.granularity = granularity;
        let new_width = self.effective_width();
        if new_width > old_width {
            // Coarsen accumulated bins in place so past and future data share
            // the new width (possible because widths are nested).
            let factor = new_width.as_micros() / old_width.as_micros();
            let mut rebinned: BTreeMap<u64, BinStats> = BTreeMap::new();
            for (idx, stats) in std::mem::take(&mut self.bins) {
                rebinned
                    .entry(idx / factor)
                    .and_modify(|b| b.combine(&stats))
                    .or_insert(stats);
            }
            self.bins = rebinned;
        } else if new_width < old_width {
            // Refining cannot recover already-merged detail; keep coarse
            // history and only bin *future* data finely. To keep a single
            // width per aggregator we simply re-index coarse bins at the new
            // width boundary (their stats stay attached to the bin start).
            let factor = old_width.as_micros() / new_width.as_micros();
            let mut rebinned: BTreeMap<u64, BinStats> = BTreeMap::new();
            for (idx, stats) in std::mem::take(&mut self.bins) {
                rebinned.insert(idx * factor, stats);
            }
            self.bins = rebinned;
        }
    }

    fn granularity(&self) -> Granularity {
        self.granularity
    }

    fn footprint_bytes(&self) -> usize {
        self.bins.len() * (std::mem::size_of::<BinStats>() + QUANTILE_SAMPLE * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(secs: u64) -> TimeWindow {
        TimeWindow::starting_at(Timestamp::ZERO, TimeDelta::from_secs(secs))
    }

    #[test]
    fn bins_by_timestamp() {
        let mut agg = TimeBinStats::new(TimeDelta::from_secs(1), 1);
        for i in 0..10u64 {
            agg.ingest(&1.0, Timestamp::from_micros(i * 500_000));
        }
        let s = agg.snapshot(window(5));
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|(_, b)| b.count() == 2));
    }

    #[test]
    fn stats_are_correct() {
        let mut agg = TimeBinStats::new(TimeDelta::from_secs(10), 1);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            agg.ingest(&v, Timestamp::from_secs(1));
        }
        let s = agg.snapshot(window(10));
        let b = s.bin_at(Timestamp::ZERO).unwrap();
        assert_eq!(b.count(), 8);
        assert_eq!(b.sum(), 40.0);
        assert_eq!(b.mean(), Some(5.0));
        assert_eq!(b.stddev(), Some(2.0)); // classic example
        assert_eq!(b.min(), Some(2.0));
        assert_eq!(b.max(), Some(9.0));
        let med = b.median().unwrap();
        assert!((4.0..=5.0).contains(&med), "median {med}");
    }

    #[test]
    fn granularity_coarsens_bins_in_place() {
        let mut agg = TimeBinStats::new(TimeDelta::from_secs(1), 1);
        for i in 0..8u64 {
            agg.ingest(&(i as f64), Timestamp::from_secs(i));
        }
        assert_eq!(agg.snapshot(window(8)).len(), 8);
        agg.set_granularity(Granularity::new(0.25)); // width ×4
        assert_eq!(agg.effective_width(), TimeDelta::from_secs(4));
        let s = agg.snapshot(window(8));
        assert_eq!(s.len(), 2);
        assert_eq!(s.bin_at(Timestamp::ZERO).unwrap().count(), 4);
        // Total mass preserved across re-binning.
        assert_eq!(s.aggregate(window(8)).count(), 8);
    }

    #[test]
    fn combine_aligns_widths() {
        let mut fine = TimeBinStats::new(TimeDelta::from_secs(1), 1);
        let mut coarse = TimeBinStats::new(TimeDelta::from_secs(1), 2);
        coarse.set_granularity(Granularity::new(0.5)); // 2 s bins
        for i in 0..8u64 {
            fine.ingest(&1.0, Timestamp::from_secs(i));
            coarse.ingest(&1.0, Timestamp::from_secs(i));
        }
        let mut a = fine.snapshot(window(8));
        let b = coarse.snapshot(window(8));
        a.combine(&b);
        assert_eq!(a.width(), TimeDelta::from_secs(2));
        assert_eq!(a.aggregate(window(8)).count(), 16);
        // And in the other direction (coarse absorbs fine).
        let mut c = coarse.snapshot(window(8));
        c.combine(&fine.snapshot(window(8)));
        assert_eq!(c.width(), TimeDelta::from_secs(2));
        assert_eq!(c.aggregate(window(8)).count(), 16);
    }

    #[test]
    fn absorb_merges_child_summaries() {
        // Two "machine" aggregators at 1 s bins export to a "line"
        // aggregator at 2 s bins.
        let mut m1 = TimeBinStats::new(TimeDelta::from_secs(1), 1);
        let mut m2 = TimeBinStats::new(TimeDelta::from_secs(1), 2);
        for i in 0..8u64 {
            m1.ingest(&1.0, Timestamp::from_secs(i));
            m2.ingest(&3.0, Timestamp::from_secs(i));
        }
        let mut line = TimeBinStats::new(TimeDelta::from_secs(1), 3);
        line.set_granularity(Granularity::new(0.5)); // 2 s bins
        line.absorb(&m1.snapshot(window(8)));
        line.absorb(&m2.snapshot(window(8)));
        let s = line.snapshot(window(8));
        assert_eq!(s.len(), 4);
        let agg = s.aggregate(window(8));
        assert_eq!(agg.count(), 16);
        assert_eq!(agg.mean(), Some(2.0));
    }

    #[test]
    fn absorb_coarser_series_coarsens_self() {
        let mut fine = TimeBinStats::new(TimeDelta::from_secs(1), 1);
        for i in 0..8u64 {
            fine.ingest(&1.0, Timestamp::from_secs(i));
        }
        let mut coarse_src = TimeBinStats::new(TimeDelta::from_secs(1), 2);
        coarse_src.set_granularity(Granularity::new(0.25)); // 4 s bins
        for i in 0..8u64 {
            coarse_src.ingest(&1.0, Timestamp::from_secs(i));
        }
        fine.absorb(&coarse_src.snapshot(window(8)));
        assert_eq!(fine.effective_width(), TimeDelta::from_secs(4));
        assert_eq!(fine.snapshot(window(8)).aggregate(window(8)).count(), 16);
    }

    #[test]
    fn aggregate_windows_subsets() {
        let mut agg = TimeBinStats::new(TimeDelta::from_secs(1), 1);
        for i in 0..10u64 {
            agg.ingest(&(i as f64), Timestamp::from_secs(i));
        }
        let s = agg.snapshot(window(10));
        let firsthalf = s.aggregate(TimeWindow::starting_at(
            Timestamp::ZERO,
            TimeDelta::from_secs(5),
        ));
        assert_eq!(firsthalf.count(), 5);
        assert_eq!(firsthalf.sum(), 0.0 + 1.0 + 2.0 + 3.0 + 4.0);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn coarsened_to_rejects_non_multiple() {
        let agg = TimeBinStats::new(TimeDelta::from_secs(2), 1);
        let s = agg.snapshot(window(2));
        let _ = s.coarsened_to(TimeDelta::from_secs(3));
    }

    #[test]
    fn empty_summary_behaves() {
        let agg = TimeBinStats::new(TimeDelta::from_secs(1), 1);
        let s = agg.snapshot(window(10));
        assert!(s.is_empty());
        assert_eq!(s.aggregate(window(10)).count(), 0);
        assert_eq!(s.aggregate(window(10)).mean(), None);
        assert_eq!(s.aggregate(window(10)).stddev(), None);
    }

    #[test]
    fn reset_and_footprint() {
        let mut agg = TimeBinStats::new(TimeDelta::from_secs(1), 1);
        agg.ingest(&1.0, Timestamp::ZERO);
        assert!(agg.footprint_bytes() > 0);
        agg.reset();
        assert_eq!(agg.footprint_bytes(), 0);
    }
}
