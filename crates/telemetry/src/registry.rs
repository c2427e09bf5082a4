//! The sharded metric registry and its snapshot/export machinery.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64};
use std::sync::{Arc, Mutex};

use crate::json;
use crate::metrics::{Counter, Gauge, HistCore, Histogram, HistogramSnapshot};

const SHARD_COUNT: usize = 16;

/// One registered metric. Kinds are fixed at first registration.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistCore>),
}

/// A concurrent registry of named metrics.
///
/// Lookups take one short-lived lock on one of 16 name-hashed shards; the
/// returned handles then record through lock-free atomics, so the hot path
/// (ingest loops, per-query timers) never contends on the registry itself.
/// Register handles once and reuse them where possible.
#[derive(Debug, Default)]
pub struct Registry {
    shards: Vec<Mutex<HashMap<String, Metric>>>,
}

/// FNV-1a, used only to pick a shard for a metric name.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % SHARD_COUNT
}

#[expect(
    clippy::panic,
    reason = "registering one metric name at two types is what megalint's \
              metric-registry pass denies statically, so the runtime panic is a second \
              line of defense for dynamically-built names that the lexical pass cannot see"
)]
impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Locks one shard, recovering from poisoning: metric cells are plain
    /// atomics, so a panic mid-insert cannot leave them inconsistent.
    fn lock_shard(
        shard: &Mutex<HashMap<String, Metric>>,
    ) -> std::sync::MutexGuard<'_, HashMap<String, Metric>> {
        match shard.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn shard(&self, name: &str) -> std::sync::MutexGuard<'_, HashMap<String, Metric>> {
        Self::lock_shard(&self.shards[shard_of(name)])
    }

    /// Returns the counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut shard = self.shard(name);
        let metric = shard
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
        match metric {
            Metric::Counter(cell) => Counter(Some(Arc::clone(cell))),
            _ => panic!("telemetry metric {name:?} already registered as a non-counter"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut shard = self.shard(name);
        let metric = shard
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicI64::new(0))));
        match metric {
            Metric::Gauge(cell) => Gauge(Some(Arc::clone(cell))),
            _ => panic!("telemetry metric {name:?} already registered as a non-gauge"),
        }
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given inclusive upper `bounds` on first use. Later calls reuse the
    /// original bounds and ignore the argument.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut shard = self.shard(name);
        let metric = shard
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistCore::new(bounds))));
        match metric {
            Metric::Histogram(core) => Histogram(Some(Arc::clone(core))),
            _ => panic!("telemetry metric {name:?} already registered as a non-histogram"),
        }
    }

    /// Number of registered metrics across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock_shard(s).len()).sum()
    }

    /// Whether no metrics have been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live handles to every registered metric, in no particular order.
    /// Intended for pollers (the time-series sampler) that cache the
    /// handles and thereafter read values lock-free.
    pub fn handles(&self) -> Vec<(String, MetricHandle)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = Self::lock_shard(shard);
            for (name, metric) in shard.iter() {
                let handle = match metric {
                    Metric::Counter(cell) => MetricHandle::Counter(Counter(Some(Arc::clone(cell)))),
                    Metric::Gauge(cell) => MetricHandle::Gauge(Gauge(Some(Arc::clone(cell)))),
                    Metric::Histogram(core) => {
                        MetricHandle::Histogram(Histogram(Some(Arc::clone(core))))
                    }
                };
                out.push((name.clone(), handle));
            }
        }
        out
    }

    /// Takes a consistent-enough point-in-time copy of every metric, sorted
    /// by name within each kind. (Individual metrics are read atomically;
    /// cross-metric skew is possible under concurrent writes.)
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for shard in &self.shards {
            let shard = Self::lock_shard(shard);
            for (name, metric) in shard.iter() {
                match metric {
                    Metric::Counter(cell) => snap.counters.push((
                        name.clone(),
                        cell.load(std::sync::atomic::Ordering::Relaxed),
                    )),
                    Metric::Gauge(cell) => snap.gauges.push((
                        name.clone(),
                        cell.load(std::sync::atomic::Ordering::Relaxed),
                    )),
                    Metric::Histogram(core) => snap
                        .histograms
                        .push((name.clone(), HistogramSnapshot::from_core(core))),
                }
            }
        }
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

/// A live handle to one registered metric of any kind — what
/// [`Registry::handles`] enumerates.
#[derive(Debug, Clone)]
pub enum MetricHandle {
    /// A counter handle.
    Counter(Counter),
    /// A gauge handle.
    Gauge(Gauge),
    /// A histogram handle.
    Histogram(Histogram),
}

/// A point-in-time copy of an entire registry, sorted by metric name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Total number of metrics captured.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge value by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram snapshot by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders a human-readable multi-line report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter   {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge     {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} sum={} min={} max={} mean={:.1} p50~{} p99~{}\n",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
            ));
        }
        out
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name: {"bounds":
    /// [..], "counts": [..], "count": n, "sum": n, "min": n, "max": n}}}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            out.push_str(":{\"bounds\":[");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push_str(&format!(
                "],\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                h.count, h.sum, h.min, h.max
            ));
        }
        out.push_str("}}");
        out
    }
}
