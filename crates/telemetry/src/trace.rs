//! Causal tracing: connected span trees across the hierarchy.
//!
//! The metrics layer answers "how much, how often"; this module answers
//! *which* levels, stores, and operators one particular query or export
//! pass touched, and where its time went. The model follows the usual
//! distributed-tracing shape:
//!
//! * A **trace** is one causal episode (a FlowQL query, one
//!   `hierarchy.pump` pass, one replication decision), identified by a
//!   [`TraceId`] and opened by [`Telemetry::root`](crate::Telemetry::root).
//! * A **span** is one timed stage inside it — one [`Scope`](crate::Scope)
//!   — identified by a [`SpanId`] and linked to its parent span. Spans
//!   carry string attributes plus dedicated byte/record payload
//!   annotations, so a span tree doubles as a lineage tree ("this merge
//!   consumed 3 summaries, 12 kB").
//! * A [`SpanContext`] is the `(trace, span)` pair a scope's children
//!   link to; a [`ScopeParent`](crate::ScopeParent) carries it to worker
//!   threads.
//!
//! **Head-based sampling** decides once per trace root (always / never /
//! every-Nth); the scopes of an unsampled trace record no spans. Finished
//! spans land in a lock-sharded ring buffer ([`TraceStore`]) whose oldest
//! spans are overwritten under pressure.
//!
//! ```
//! use megastream_telemetry::{SamplePolicy, Telemetry};
//!
//! let tel = Telemetry::new().with_tracing(SamplePolicy::Always);
//! {
//!     let _query = tel.root("query.run");
//!     let mut fanout = tel.scope("query.fanout");
//!     fanout.annotate("location", "region-0");
//!     fanout.add_bytes(1024);
//!     fanout.finish();
//!     tel.scope("query.merge").finish();
//! }
//! let snap = tel.trace_snapshot();
//! assert_eq!(snap.spans.len(), 3);
//! assert!(snap.render_tree().contains("query.merge"));
//! assert!(snap.render_chrome_json().starts_with("{\"traceEvents\":["));
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock::{self, Stopwatch};

use crate::json;

const SHARD_COUNT: usize = 16;

/// Default total span capacity of a [`TraceStore`].
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// Identifier of one causal episode. Allocated monotonically per store,
/// never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifier of one span. Allocation order is creation order, so sorting
/// a trace's spans by id yields a stable parent-before-child ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The copyable context that propagates a trace across component
/// boundaries: "whatever you do with this payload, file it under me."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace this context belongs to.
    pub trace: TraceId,
    /// The span that new work should link to as its parent.
    pub span: SpanId,
}

/// Head-based sampling policy: decided once when a trace root is opened,
/// inherited by every descendant span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplePolicy {
    /// Record every trace.
    #[default]
    Always,
    /// Record no traces (the store stays reachable for explicit contexts).
    Never,
    /// Record one of every `n` trace roots (n = 0 behaves like `Never`).
    EveryNth(u64),
}

/// One finished span as stored in the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id (creation-ordered).
    pub id: SpanId,
    /// The parent span, `None` for trace roots.
    pub parent: Option<SpanId>,
    /// The stage label, e.g. `flowstream.query` or `fanout`.
    pub name: String,
    /// Start time in microseconds since the store was created.
    pub start_micros: u64,
    /// Elapsed microseconds.
    pub duration_micros: u64,
    /// Payload bytes attributed to this span (0 if not annotated).
    pub bytes: u64,
    /// Payload records/summaries attributed to this span (0 if none).
    pub records: u64,
    /// Free-form `(key, value)` attributes, in annotation order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[derive(Debug, Default)]
struct Shard {
    spans: VecDeque<SpanRecord>,
}

/// The lock-sharded ring buffer finished spans land in.
///
/// Spans are sharded by span id; each shard holds at most
/// `capacity / SHARD_COUNT` records and overwrites its oldest span when
/// full (the `dropped` counter keeps the loss observable). All clocks are
/// relative to the store's creation instant, so spans from different
/// threads order consistently.
#[derive(Debug)]
pub struct TraceStore {
    epoch: Stopwatch,
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    policy: SamplePolicy,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    roots_seen: AtomicU64,
    roots_sampled: AtomicU64,
    dropped: AtomicU64,
}

impl TraceStore {
    /// Creates a store with the given sampling policy and total span
    /// capacity (rounded up to a multiple of the shard count).
    pub fn with_policy_and_capacity(policy: SamplePolicy, capacity: usize) -> Self {
        TraceStore {
            epoch: clock::start(),
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            per_shard_capacity: capacity.div_ceil(SHARD_COUNT).max(1),
            policy,
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            roots_seen: AtomicU64::new(0),
            roots_sampled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Creates an always-sampling store with [`DEFAULT_TRACE_CAPACITY`].
    pub fn new() -> Self {
        TraceStore::with_policy_and_capacity(SamplePolicy::Always, DEFAULT_TRACE_CAPACITY)
    }

    /// The sampling policy in force.
    pub fn policy(&self) -> SamplePolicy {
        self.policy
    }

    /// Trace roots opened (sampled or not).
    pub fn roots_seen(&self) -> u64 {
        self.roots_seen.load(Ordering::Relaxed)
    }

    /// Trace roots the head-based decision kept.
    pub fn roots_sampled(&self) -> u64 {
        self.roots_sampled.load(Ordering::Relaxed)
    }

    /// Spans overwritten by ring-buffer pressure.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn sample_decision(&self) -> bool {
        let seen = self.roots_seen.fetch_add(1, Ordering::Relaxed);
        let keep = match self.policy {
            SamplePolicy::Always => true,
            SamplePolicy::Never => false,
            SamplePolicy::EveryNth(0) => false,
            SamplePolicy::EveryNth(n) => seen.is_multiple_of(n),
        };
        if keep {
            self.roots_sampled.fetch_add(1, Ordering::Relaxed);
        }
        keep
    }

    pub(crate) fn alloc_trace(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn alloc_span(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn micros_since_epoch(&self, at: Stopwatch) -> u64 {
        at.micros_since(&self.epoch)
    }

    pub(crate) fn push(&self, record: SpanRecord) {
        let shard = (record.id.0 as usize) % SHARD_COUNT;
        let mut shard = match self.shards[shard].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if shard.spans.len() >= self.per_shard_capacity {
            shard.spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.spans.push_back(record);
    }

    /// Copies out every stored span, sorted by span id (creation order).
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut spans = Vec::new();
        for shard in &self.shards {
            let shard = match shard.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            spans.extend(shard.spans.iter().cloned());
        }
        spans.sort_by_key(|s| s.id);
        TraceSnapshot {
            spans,
            roots_seen: self.roots_seen(),
            roots_sampled: self.roots_sampled(),
            dropped: self.dropped(),
        }
    }

    /// Discards every stored span (sampling counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            match shard.lock() {
                Ok(mut guard) => guard.spans.clear(),
                Err(poisoned) => poisoned.into_inner().spans.clear(),
            }
        }
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

/// A point-in-time copy of a [`TraceStore`], creation-ordered.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Every finished span still in the ring, sorted by span id.
    pub spans: Vec<SpanRecord>,
    /// Trace roots opened against the store.
    pub roots_seen: u64,
    /// Roots the head-based sampler kept.
    pub roots_sampled: u64,
    /// Spans lost to ring-buffer pressure.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Whether no spans were captured.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Distinct trace ids, ascending.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut out: Vec<TraceId> = self.spans.iter().map(|s| s.trace).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All spans of one trace, creation-ordered.
    pub fn trace(&self, id: TraceId) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.trace == id).collect()
    }

    /// Spans with the given name, across all traces.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Looks a span up by id.
    pub fn span(&self, id: SpanId) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Renders every captured trace as an indented span tree:
    ///
    /// ```text
    /// trace 1 (3 spans)
    /// flowstream.query                            412 µs  flowql="SELECT …"
    /// ├─ parse                                      8 µs
    /// └─ fanout                                    90 µs  location=region-0  [3 rec, 12034 B]
    /// ```
    ///
    /// Spans whose parent fell out of the ring are promoted to roots so
    /// the render never loses spans silently.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for trace in self.trace_ids() {
            let spans = self.trace(trace);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!("trace {} ({} spans)\n", trace.0, spans.len()),
            );
            let present: std::collections::HashSet<SpanId> = spans.iter().map(|s| s.id).collect();
            let roots: Vec<&SpanRecord> = spans
                .iter()
                .filter(|s| s.parent.is_none_or(|p| !present.contains(&p)))
                .copied()
                .collect();
            for root in roots {
                self.render_subtree(&mut out, &spans, root, "", true, true);
            }
        }
        out
    }

    fn render_subtree(
        &self,
        out: &mut String,
        spans: &[&SpanRecord],
        node: &SpanRecord,
        prefix: &str,
        is_last: bool,
        is_root: bool,
    ) {
        let connector = if is_root {
            String::new()
        } else if is_last {
            format!("{prefix}└─ ")
        } else {
            format!("{prefix}├─ ")
        };
        let label = format!("{connector}{}", node.name);
        let mut line = format!("{label:<44}{:>8} µs", node.duration_micros);
        for (k, v) in &node.attrs {
            line.push_str(&format!("  {k}={v}"));
        }
        if node.records > 0 || node.bytes > 0 {
            line.push_str(&format!("  [{} rec, {} B]", node.records, node.bytes));
        }
        line.push('\n');
        out.push_str(&line);
        let children: Vec<&&SpanRecord> =
            spans.iter().filter(|s| s.parent == Some(node.id)).collect();
        let child_prefix = if is_root {
            String::new()
        } else if is_last {
            format!("{prefix}   ")
        } else {
            format!("{prefix}│  ")
        };
        let n = children.len();
        for (i, child) in children.into_iter().enumerate() {
            self.render_subtree(out, spans, child, &child_prefix, i + 1 == n, false);
        }
    }

    /// Renders the snapshot in Chrome `trace_event` JSON (the format
    /// `chrome://tracing` / Perfetto load): one complete (`"ph":"X"`)
    /// event per span, one timeline row (`tid`) per trace. Span links and
    /// payload annotations ride in `args`.
    pub fn render_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_string(&mut out, &s.name);
            out.push_str(",\"cat\":\"megastream\",\"ph\":\"X\",\"pid\":1,\"tid\":");
            out.push_str(&s.trace.0.to_string());
            out.push_str(&format!(
                ",\"ts\":{},\"dur\":{},\"args\":{{\"span\":{},\"parent\":{}",
                s.start_micros,
                s.duration_micros,
                s.id.0,
                s.parent.map_or(0, |p| p.0),
            ));
            if s.bytes > 0 {
                out.push_str(&format!(",\"bytes\":{}", s.bytes));
            }
            if s.records > 0 {
                out.push_str(&format!(",\"records\":{}", s.records));
            }
            for (k, v) in &s.attrs {
                out.push(',');
                json::write_string(&mut out, k);
                out.push(':');
                json::write_string(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::{ScopeParent, Telemetry};
    use std::sync::Arc;

    fn traced() -> Telemetry {
        Telemetry::new().with_tracing(SamplePolicy::Always)
    }

    /// A handle whose trace store holds one span per shard.
    fn tiny_ring() -> Telemetry {
        Telemetry::new().with_trace_store(Arc::new(TraceStore::with_policy_and_capacity(
            SamplePolicy::Always,
            SHARD_COUNT,
        )))
    }

    #[test]
    fn spans_link_parent_to_child() {
        let tel = traced();
        let root = tel.root("root");
        let mut child = tel.scope("child");
        child.annotate("k", "v");
        child.add_bytes(64);
        child.add_records(2);
        tel.scope("grandchild").finish();
        child.finish();
        root.finish();
        let snap = tel.trace_snapshot();
        assert_eq!(snap.spans.len(), 3);
        let root_rec = &snap.spans_named("root")[0];
        let child_rec = &snap.spans_named("child")[0];
        let grand_rec = &snap.spans_named("grandchild")[0];
        assert_eq!(root_rec.parent, None);
        assert_eq!(child_rec.parent, Some(root_rec.id));
        assert_eq!(grand_rec.parent, Some(child_rec.id));
        assert_eq!(child_rec.attr("k"), Some("v"));
        assert_eq!(child_rec.bytes, 64);
        assert_eq!(child_rec.records, 2);
        // One trace, parent ids precede child ids.
        assert_eq!(snap.trace_ids().len(), 1);
        assert!(root_rec.id < child_rec.id && child_rec.id < grand_rec.id);
    }

    #[test]
    fn scopes_outside_a_trace_record_no_span() {
        let tel = traced();
        let scope = tel.scope("loose");
        assert!(!scope.is_recording());
        scope.finish();
        assert!(tel.trace_snapshot().is_empty());
        assert_eq!(tel.snapshot().histogram("loose.micros").unwrap().count, 1);
    }

    #[test]
    fn entered_parent_links_a_worker_thread_into_the_trace() {
        let tel = traced();
        let root = tel.root("export");
        let parent = ScopeParent::current();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _entered = parent.enter();
                tel.scope("absorb").finish();
            });
            // A worker that does not enter the parent starts outside it.
            s.spawn(|| tel.scope("stray").finish());
        });
        root.finish();
        let snap = tel.trace_snapshot();
        let export = &snap.spans_named("export")[0];
        let absorb = &snap.spans_named("absorb")[0];
        assert_eq!(absorb.trace, export.trace);
        assert_eq!(absorb.parent, Some(export.id));
        assert!(snap.spans_named("stray").is_empty());
    }

    #[test]
    fn head_sampling_keeps_every_nth_trace() {
        let tel = Telemetry::new().with_tracing(SamplePolicy::EveryNth(4));
        let mut recorded = 0;
        for _ in 0..16 {
            let root = tel.root("r");
            // Children of sampled roots record; of unsampled, don't.
            assert_eq!(tel.scope("c").is_recording(), root.is_recording());
            if root.is_recording() {
                recorded += 1;
            }
        }
        assert_eq!(recorded, 4);
        let snap = tel.trace_snapshot();
        assert_eq!(snap.roots_seen, 16);
        assert_eq!(snap.roots_sampled, 4);
        assert_eq!(snap.spans.len(), 8);
        assert_eq!(snap.trace_ids().len(), 4);
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let tel = tiny_ring();
        for _ in 0..3 * SHARD_COUNT as u64 {
            tel.root("r").finish();
        }
        let snap = tel.trace_snapshot();
        assert_eq!(snap.spans.len(), SHARD_COUNT);
        assert_eq!(snap.dropped, 2 * SHARD_COUNT as u64);
        // The survivors are the newest spans.
        assert!(snap.spans.iter().all(|s| s.id.0 > SHARD_COUNT as u64));
    }

    #[test]
    fn clear_empties_the_ring() {
        let tel = traced();
        tel.root("r").finish();
        assert!(!tel.trace_snapshot().is_empty());
        tel.clear_traces();
        assert!(tel.trace_snapshot().is_empty());
    }

    #[test]
    fn tree_render_shows_structure_and_annotations() {
        let tel = traced();
        let mut root = tel.root("query");
        root.annotate("flowql", "SELECT QUERY FROM ALL");
        let mut a = tel.scope("fanout");
        a.annotate("location", "region-0");
        a.add_bytes(123);
        a.add_records(3);
        a.finish();
        tel.scope("merge").finish();
        root.finish();
        let text = tel.trace_snapshot().render_tree();
        assert!(text.contains("trace 1 (3 spans)"));
        assert!(text.contains("query"));
        assert!(text.contains("├─ fanout") || text.contains("└─ fanout"));
        assert!(text.contains("location=region-0"));
        assert!(text.contains("[3 rec, 123 B]"));
        assert!(text.contains("flowql=SELECT QUERY FROM ALL"));
    }

    #[test]
    fn orphaned_spans_render_as_roots() {
        // A parent that fell out of the ring must not hide its children.
        let tel = tiny_ring();
        let root = tel.root("will-be-dropped");
        let orphan = tel.scope("orphan");
        root.finish();
        for _ in 0..SHARD_COUNT as u64 {
            tel.root("filler").finish();
        }
        orphan.finish();
        let text = tel.trace_snapshot().render_tree();
        assert!(text.contains("orphan"), "orphan missing from:\n{text}");
    }

    #[test]
    fn chrome_export_is_valid_and_complete() {
        let tel = traced();
        let mut root = tel.root("query");
        root.annotate("flowql", "SELECT \"x\"");
        let mut child = tel.scope("merge");
        child.add_bytes(42);
        child.finish();
        root.finish();
        let json_text = tel.trace_snapshot().render_chrome_json();
        let parsed = Json::parse(&json_text).expect("chrome export must be valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(ev.get("cat").and_then(Json::as_str), Some("megastream"));
            assert!(ev.get("ts").and_then(Json::as_u64).is_some());
            assert!(ev.get("dur").and_then(Json::as_u64).is_some());
        }
        let merge = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("merge"))
            .unwrap();
        let root_ev = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("query"))
            .unwrap();
        assert_eq!(
            merge
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_u64),
            root_ev
                .get("args")
                .and_then(|a| a.get("span"))
                .and_then(Json::as_u64),
        );
        assert_eq!(
            merge
                .get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(Json::as_u64),
            Some(42)
        );
    }

    #[test]
    fn drop_finishes_unfinished_spans() {
        let tel = traced();
        {
            let _root = tel.root("r");
            let _child = tel.scope("c");
            // both dropped here
        }
        assert_eq!(tel.trace_snapshot().spans.len(), 2);
    }
}
