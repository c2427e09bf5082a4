//! # megastream-telemetry
//!
//! A zero-dependency metrics, tracing and profiling layer for the megastream
//! pipeline, reproducing the observability surface the paper's Manager
//! relies on ("the manager *monitors* system health and each site's
//! resource footprint", Fig. 3b) without pulling any external crate into
//! the fully offline build.
//!
//! ## Model
//!
//! * A [`Registry`] holds named [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s behind 16 name-hashed shards; handles record through
//!   lock-free atomics.
//! * [`Telemetry`] is the one handle threaded through the pipeline: a cheap
//!   `Option<Arc<..>>` clone of the registry plus the optional trace and
//!   profile sinks. [`Telemetry::disabled`] yields no-op handles whose
//!   recording methods are a single branch — the instrumented code pays
//!   nothing when observability is off.
//! * [`Scope`] is the one timing guard: [`Telemetry::scope`] reads the
//!   clock when it opens and when it finishes, and feeds that one
//!   measurement to the latency histogram `<name>.micros`, a span of the
//!   sampled trace, and the call path of the profile. The disabled
//!   handle's scope never reads the clock.
//! * The [`trace`] module holds the optional trace sink
//!   ([`Telemetry::with_tracing`]): parent-linked spans with head-based
//!   sampling in a lock-sharded ring buffer, exportable as a text span
//!   tree or Chrome `trace_event` JSON.
//! * The [`profile`] module holds the optional profile sink
//!   ([`Telemetry::with_profiling`]): inclusive/exclusive time per call
//!   path, exportable as a `flamegraph.pl`-compatible collapsed-stack file
//!   or a top-N table.
//! * The [`timeseries`] module samples a registry on a cadence into
//!   fixed-capacity ring buffers and derives windowed rates and
//!   histogram-delta percentiles; the [`health`] module folds those
//!   windows through declarative rules with hysteresis into per-component
//!   `Healthy`/`Degraded`/`Critical` states plus an alert log.
//! * [`Snapshot::render_prometheus`] exposes the registry in the
//!   Prometheus text format (sanitized names, escaped label values,
//!   cumulative buckets).
//!
//! ```
//! use megastream_telemetry::{Telemetry, LATENCY_MICROS_BOUNDS};
//!
//! let tel = Telemetry::new();
//! tel.counter("ingest.records_total").add(128);
//! tel.gauge("store.footprint_bytes").set(4096);
//! let hist = tel.histogram("query.micros", LATENCY_MICROS_BOUNDS);
//! hist.record(250);
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("ingest.records_total"), Some(128));
//! assert!(snap.render_json().contains("\"query.micros\""));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Data-plane rules (DESIGN.md §12): no panicking call in non-test code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unreachable, reason = "tests are exempt"))]

pub mod clock;
pub mod health;
pub mod json;
mod metrics;
pub mod profile;
mod prom;
mod registry;
mod scope;
pub mod timeseries;
pub mod trace;

use std::sync::Arc;

use profile::ProfileStore;

pub use health::{Alert, BurnSource, Direction, HealthMonitor, HealthRule, HealthStatus, Signal};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, LATENCY_MICROS_BOUNDS, SIZE_BYTES_BOUNDS,
};
pub use profile::{ActivityStat, ProfileSnapshot};
pub use registry::{MetricHandle, Registry, Snapshot};
pub use scope::{Scope, ScopeParent};
pub use timeseries::{monotonic_increase, MetricSampler, SamplerConfig, WindowedHistogram};
pub use trace::{
    SamplePolicy, SpanContext, SpanId, SpanRecord, TraceId, TraceSnapshot, TraceStore,
};

/// The pipeline's one instrumentation handle: either live — a shared
/// [`Registry`] plus an optional trace sink and an optional profile sink —
/// or a null handle whose every operation is a no-op.
///
/// Cloning is cheap (an `Option<Arc>` clone); components store their own
/// copy. `Default` is the *disabled* handle so that instrumented structs
/// stay zero-cost unless explicitly given a live one.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Option<Arc<Sinks>>);

/// What a live handle records into.
#[derive(Debug, Clone)]
struct Sinks {
    registry: Arc<Registry>,
    trace: Option<Arc<TraceStore>>,
    profile: Option<Arc<ProfileStore>>,
}

impl Telemetry {
    /// Creates a live handle backed by a fresh registry, with no trace or
    /// profile sink.
    pub fn new() -> Self {
        Telemetry(Some(Arc::new(Sinks::metrics_only())))
    }

    /// The null handle: all metric handles and scopes it yields are no-ops.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// The sinks of this handle, a fresh registry if it is disabled, for
    /// the builders to extend.
    fn sinks(&self) -> Sinks {
        match &self.0 {
            Some(sinks) => Sinks::clone(sinks),
            None => Sinks::metrics_only(),
        }
    }

    /// This handle plus a fresh trace sink sampling trace roots per
    /// `policy`; the metric registry and profile sink stay shared with
    /// `self`. A disabled handle gets a fresh registry.
    #[must_use]
    pub fn with_tracing(&self, policy: SamplePolicy) -> Self {
        self.with_trace_store(Arc::new(TraceStore::with_policy_and_capacity(
            policy,
            trace::DEFAULT_TRACE_CAPACITY,
        )))
    }

    fn with_trace_store(&self, store: Arc<TraceStore>) -> Self {
        let mut sinks = self.sinks();
        sinks.trace = Some(store);
        Telemetry(Some(Arc::new(sinks)))
    }

    /// This handle plus a fresh profile sink; the metric registry and trace
    /// sink stay shared with `self`. A disabled handle gets a fresh
    /// registry.
    #[must_use]
    pub fn with_profiling(&self) -> Self {
        let mut sinks = self.sinks();
        sinks.profile = Some(Arc::new(ProfileStore::default()));
        Telemetry(Some(Arc::new(sinks)))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The underlying registry, if enabled.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.0.as_ref().map(|s| &s.registry)
    }

    /// Counter handle for `name` (no-op when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.0 {
            Some(sinks) => sinks.registry.counter(name),
            None => Counter::noop(),
        }
    }

    /// Gauge handle for `name` (no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.0 {
            Some(sinks) => sinks.registry.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// Histogram handle for `name` with inclusive upper `bounds` (no-op when
    /// disabled; bounds are fixed by the first registration).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        match &self.0 {
            Some(sinks) => sinks.registry.histogram(name, bounds),
            None => Histogram::noop(),
        }
    }

    /// Opens a [`Scope`] timing into the latency histogram `<name>.micros`.
    /// It nests under the scope open on this thread, joining its trace if
    /// that one is sampled; outside any trace it records no span.
    pub fn scope(&self, name: &'static str) -> Scope {
        match &self.0 {
            Some(sinks) => {
                let micros = sinks
                    .registry
                    .histogram(&format!("{name}.micros"), LATENCY_MICROS_BOUNDS);
                Scope::open(sinks, name, micros, false)
            }
            None => Scope::inert(),
        }
    }

    /// [`Telemetry::scope`] timing into `micros`, a histogram the caller
    /// registered once — for hot paths, and for labeled families such as
    /// `<name>.micros{store=…}`.
    pub fn scope_with(&self, name: &'static str, micros: &Histogram) -> Scope {
        match &self.0 {
            Some(sinks) => Scope::open(sinks, name, micros.clone(), false),
            None => Scope::inert(),
        }
    }

    /// Opens a [`Scope`] that starts a new trace: one causal episode such
    /// as a query or a pump pass. The head-sampling decision is made here
    /// and holds for every scope nested under this one.
    pub fn root(&self, name: &'static str) -> Scope {
        match &self.0 {
            Some(sinks) => {
                let micros = sinks
                    .registry
                    .histogram(&format!("{name}.micros"), LATENCY_MICROS_BOUNDS);
                Scope::open(sinks, name, micros, true)
            }
            None => Scope::inert(),
        }
    }

    /// Point-in-time copy of all metrics (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        match &self.0 {
            Some(sinks) => sinks.registry.snapshot(),
            None => Snapshot::default(),
        }
    }

    /// Convenience: [`Snapshot::render_text`] of the current state.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }

    /// Convenience: [`Snapshot::render_json`] of the current state.
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }

    /// Every finished span still in the trace sink (empty without one).
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        match self.0.as_ref().and_then(|s| s.trace.as_ref()) {
            Some(store) => store.snapshot(),
            None => TraceSnapshot::default(),
        }
    }

    /// Discards every span in the trace sink (sampling counters are kept).
    pub fn clear_traces(&self) {
        if let Some(store) = self.0.as_ref().and_then(|s| s.trace.as_ref()) {
            store.clear();
        }
    }

    /// The profile sink's per-path aggregate (empty without one).
    pub fn profile_snapshot(&self) -> ProfileSnapshot {
        match self.0.as_ref().and_then(|s| s.profile.as_ref()) {
            Some(store) => store.snapshot(),
            None => ProfileSnapshot::default(),
        }
    }
}

impl Sinks {
    fn metrics_only() -> Self {
        Sinks {
            registry: Arc::new(Registry::new()),
            trace: None,
            profile: None,
        }
    }
}

/// Formats a labeled metric name, e.g. `labeled("flowdb.exec", "op", "topk")`
/// → `flowdb.exec{op=topk}`.
pub fn labeled(base: &str, key: &str, value: &str) -> String {
    format!("{base}{{{key}={value}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sinks() -> Telemetry {
        Telemetry::new()
            .with_tracing(SamplePolicy::Always)
            .with_profiling()
    }

    #[test]
    fn one_scope_feeds_every_sink_the_same_reading() {
        let tel = all_sinks();
        let root = tel.root("test.root");
        let scope = tel.scope("test.stage");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let micros = scope.finish();
        root.finish();
        assert!(micros >= 1000);
        let hist = tel
            .snapshot()
            .histogram("test.stage.micros")
            .unwrap()
            .clone();
        assert_eq!((hist.count, hist.sum), (1, micros));
        let traces = tel.trace_snapshot();
        let span = traces.spans_named("test.stage")[0];
        assert_eq!(span.duration_micros, micros);
        let profile = tel.profile_snapshot();
        let path = profile
            .activities
            .iter()
            .find(|a| a.path == "test.root;test.stage")
            .expect("nested profile path");
        assert_eq!(path.inclusive_micros, micros);
    }

    #[test]
    fn disabled_handle_registers_nothing_in_any_sink() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let c = tel.counter("x");
        let g = tel.gauge("y");
        let h = tel.histogram("z", LATENCY_MICROS_BOUNDS);
        c.inc();
        g.set(5);
        h.record(10);
        assert!(!c.is_enabled());
        assert_eq!((c.get(), g.get(), h.count()), (0, 0, 0));
        let mut root = tel.root("test.root");
        root.annotate("k", "v");
        root.add_bytes(10);
        assert!(!root.is_recording());
        let child = tel.scope("test.stage");
        assert_eq!(tel.scope_with("test.hot", &h).finish(), 0);
        assert_eq!(child.finish(), 0);
        assert_eq!(root.finish(), 0);
        // Nothing was pushed for a worker to inherit.
        assert!(ScopeParent::current().enter().finish() == 0);
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
        assert_eq!(tel.render_text(), "");
        assert!(tel.trace_snapshot().is_empty());
        assert!(tel.profile_snapshot().is_empty());
    }

    #[test]
    fn scope_with_records_into_the_given_histogram() {
        let tel = Telemetry::new();
        let hist = tel.histogram(
            &labeled("test.rotate.micros", "store", "a"),
            LATENCY_MICROS_BOUNDS,
        );
        tel.scope_with("test.rotate", &hist).finish();
        let snap = tel.snapshot();
        assert_eq!(
            snap.histogram("test.rotate.micros{store=a}").unwrap().count,
            1
        );
        assert!(snap.histogram("test.rotate.micros").is_none());
    }

    #[test]
    fn labeled_formats_prometheus_style() {
        assert_eq!(labeled("a.b", "op", "topk"), "a.b{op=topk}");
    }

    #[test]
    fn builders_share_the_registry() {
        let tel = Telemetry::new();
        let traced = tel.with_tracing(SamplePolicy::Always);
        tel.counter("shared").inc();
        traced.counter("shared").add(2);
        assert_eq!(tel.snapshot().counter("shared"), Some(3));
        assert!(Telemetry::disabled().with_profiling().is_enabled());
    }
}
