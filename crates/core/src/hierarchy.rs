//! A hierarchy of data stores over a simulated network (paper Fig. 2b).
//!
//! "In the case of distributed mega-datasets, each mega-dataset is stored
//! in its own data store. Further data stores exist to merge and aggregate
//! data from multiple mega-datasets." The [`StoreHierarchy`] binds data
//! stores to nodes of a [`Network`], rotates their epochs, and pushes each
//! epoch's summaries to the parent store — accounting every byte that
//! crosses a link, which is what experiment E3 measures.
//!
//! Every edge runs the one export path of the workspace: retry with
//! backoff, park in a spill buffer, flush on recovery.
//! [`StoreHierarchy::pump_with`] reports what happened to each summary,
//! and [`StoreHierarchy::replay`] re-applies those reports after a crash.
//! Flowstream (Fig. 5) is such a hierarchy, rooted at its NOC store.

use megastream_datastore::aggregator::AggregatorInstance;
use megastream_datastore::store::{DataStore, StreamId};
use megastream_datastore::summary::{StoredSummary, Summary};
use megastream_datastore::trigger::TriggerEvent;
use megastream_flow::record::FlowRecord;
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_flowdb::par::fan_out;
use megastream_flowdb::Parallelism;
use megastream_netsim::topology::{Network, NodeId, TransferError};
use megastream_primitives::aggregator::Combinable;
use megastream_telemetry::{labeled, Histogram, Telemetry, LATENCY_MICROS_BOUNDS};

use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a store within a hierarchy: its position in insertion
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HierarchyId(pub(crate) usize);

#[derive(Debug)]
struct Entry {
    store: DataStore,
    net: NodeId,
    parent: Option<usize>,
    depth: usize,
    /// Store-and-forward buffer for summaries whose export failed: they are
    /// re-merged (P2) while waiting and re-exported once the edge recovers.
    spill: Vec<StoredSummary>,
    spill_bytes: u64,
}

/// Retry/spill policy for [`StoreHierarchy::pump`] exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PumpPolicy {
    /// Re-attempts after a transient transfer failure (0 = no retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub initial_backoff: TimeDelta,
    /// Per-edge spill buffer bound; the oldest spilled summaries are
    /// dropped (with accounting) when an insert would exceed it.
    pub spill_capacity_bytes: u64,
    /// Seed of the deterministic retry jitter: each backoff step is
    /// stretched by up to half its length, decorrelating the retry storms
    /// of many edges hitting the same outage. Same seed → bit-identical
    /// schedule, so determinism tests hold.
    pub jitter_seed: u64,
}

impl Default for PumpPolicy {
    fn default() -> Self {
        PumpPolicy {
            max_retries: 3,
            initial_backoff: TimeDelta::from_millis(200),
            spill_capacity_bytes: 4 << 20,
            jitter_seed: 0,
        }
    }
}

/// Deterministic backoff jitter (SplitMix64 over `seed ^ salt`): a delta in
/// `[0, backoff/2)`, so retries from different edges decorrelate while any
/// fixed seed reproduces the exact schedule.
fn jitter_micros(seed: u64, salt: u64, backoff: TimeDelta) -> TimeDelta {
    let mut z = (seed ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let span = backoff.as_micros() / 2;
    if span == 0 {
        return TimeDelta::ZERO;
    }
    TimeDelta::from_micros(z % span)
}

/// Fatal error from [`StoreHierarchy::pump`]: the topology itself is broken
/// (transient faults are retried/spilled, never surfaced here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PumpError {
    /// A transfer between two stores failed with a non-transient error.
    Transfer {
        /// The exporting store's network node.
        from: NodeId,
        /// The parent store's network node.
        to: NodeId,
        /// The underlying error ([`TransferError::NoRoute`] or
        /// [`TransferError::UnknownNode`]).
        source: TransferError,
    },
}

impl std::fmt::Display for PumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PumpError::Transfer { from, to, source } => {
                write!(f, "export {from} -> {to} failed fatally: {source}")
            }
        }
    }
}

impl std::error::Error for PumpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PumpError::Transfer { source, .. } => Some(source),
        }
    }
}

/// Statistics of one [`StoreHierarchy::pump`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportStats {
    /// Epoch rotations performed.
    pub rotations: u64,
    /// Summaries exported to parent stores.
    pub exported_summaries: u64,
    /// Bytes those exports put on the network.
    pub exported_bytes: u64,
    /// Summaries absorbed into a parent's live aggregator (vs stored).
    pub absorbed: u64,
    /// Transfer re-attempts after transient failures.
    pub retries: u64,
    /// Summaries parked in a spill buffer after retries were exhausted.
    pub spilled: u64,
    /// Previously spilled summaries delivered after the edge recovered.
    pub flushed: u64,
    /// Spilled summaries dropped because a spill buffer overflowed.
    pub dropped: u64,
    /// Bytes those drops discarded.
    pub dropped_bytes: u64,
}

impl std::ops::AddAssign for ExportStats {
    fn add_assign(&mut self, rhs: ExportStats) {
        self.rotations += rhs.rotations;
        self.exported_summaries += rhs.exported_summaries;
        self.exported_bytes += rhs.exported_bytes;
        self.absorbed += rhs.absorbed;
        self.retries += rhs.retries;
        self.spilled += rhs.spilled;
        self.flushed += rhs.flushed;
        self.dropped += rhs.dropped;
        self.dropped_bytes += rhs.dropped_bytes;
    }
}

/// What one edge of the hierarchy did with a summary during a pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOutcome {
    /// A freshly rotated summary reached the parent.
    Exported,
    /// A freshly rotated summary still failed after its retries and
    /// entered the store's spill buffer.
    Parked,
    /// The head of the spill buffer reached the parent after the edge
    /// recovered.
    Flushed,
}

/// One summary movement that [`StoreHierarchy::pump_with`] reports to its
/// observer, in the order the pump performs them.
#[derive(Debug, Clone, Copy)]
pub enum PumpEvent<'a> {
    /// The uplink of the store handled the summary as the outcome says. A
    /// parked summary is reported before it merges into the spill buffer.
    Edge(EdgeOutcome, HierarchyId, &'a StoredSummary),
    /// Rotating a root store produced the summary. A root has no parent,
    /// so the summary stays in the root's own summary store.
    RootRotated(HierarchyId, &'a StoredSummary),
}

/// A tree of data stores bound to network nodes.
#[derive(Debug)]
pub struct StoreHierarchy {
    entries: Vec<Entry>,
    network: Network,
    tel: Telemetry,
    policy: PumpPolicy,
    par: Parallelism,
}

impl StoreHierarchy {
    /// Creates a hierarchy over `network`.
    pub fn new(network: Network) -> Self {
        StoreHierarchy {
            entries: Vec::new(),
            network,
            tel: Telemetry::disabled(),
            policy: PumpPolicy::default(),
            par: Parallelism::default(),
        }
    }

    /// Sets the retry/spill policy [`pump`](Self::pump) uses.
    pub fn set_pump_policy(&mut self, policy: PumpPolicy) {
        self.policy = policy;
    }

    /// The retry/spill policy in effect.
    pub fn pump_policy(&self) -> PumpPolicy {
        self.policy
    }

    /// Sets how many worker threads [`pump`](Self::pump) uses to rotate
    /// sibling subtrees of one level concurrently. Every setting produces
    /// the same observable outcome ([`Parallelism::Sequential`] is the
    /// oracle the equivalence tests compare against); only wall-clock time
    /// differs.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    /// The pump parallelism in effect.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Summaries currently parked in `id`'s spill buffer (awaiting a
    /// recovered edge to the parent).
    pub fn spilled(&self, id: HierarchyId) -> usize {
        self.entries[id.0].spill.len()
    }

    /// Bytes currently parked in `id`'s spill buffer.
    pub fn spilled_bytes(&self, id: HierarchyId) -> u64 {
        self.entries[id.0].spill_bytes
    }

    /// Connects the hierarchy (and every store in it, present or future) to
    /// a telemetry handle. [`StoreHierarchy::pump`] records per-level
    /// export volume and latency under `hierarchy.*{level=<depth>}` names,
    /// and each pump is a `hierarchy.pump` trace: a `hierarchy.rotate`
    /// scope per level over the stores' rotations, a `hierarchy.flush`
    /// scope per spill flush, and a `hierarchy.export` scope per rotated
    /// store with the parent-side re-aggregation nested in it as
    /// `hierarchy.absorb` — so a summary's lineage across levels is one
    /// connected tree.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        // Registered up front so the ops plane's export rules read zero on
        // a run that never retries or spills, not a missing signal.
        tel.counter("hierarchy.export.retries_total");
        tel.gauge("hierarchy.spill.buffered_bytes");
        for entry in &mut self.entries {
            entry.store.set_telemetry(tel);
        }
    }

    /// Total accounted deep memory of every store in the hierarchy:
    /// the sum of each store's incrementally maintained
    /// [`accounted_bytes`](DataStore::accounted_bytes) (live aggregator
    /// state plus stored summaries).
    pub fn memory_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.store.accounted_bytes()).sum()
    }

    /// Adds a root store (no parent — typically the cloud/datacenter).
    pub fn add_root(&mut self, mut store: DataStore, net: NodeId) -> HierarchyId {
        store.set_telemetry(&self.tel);
        self.entries.push(Entry {
            store,
            net,
            parent: None,
            depth: 0,
            spill: Vec::new(),
            spill_bytes: 0,
        });
        HierarchyId(self.entries.len() - 1)
    }

    /// Adds a store below `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is unknown.
    pub fn add_child(
        &mut self,
        mut store: DataStore,
        net: NodeId,
        parent: HierarchyId,
    ) -> HierarchyId {
        store.set_telemetry(&self.tel);
        let depth = self.entries[parent.0].depth + 1;
        self.entries.push(Entry {
            store,
            net,
            parent: Some(parent.0),
            depth,
            spill: Vec::new(),
            spill_bytes: 0,
        });
        HierarchyId(self.entries.len() - 1)
    }

    /// Number of stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the hierarchy is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Read access to a store.
    pub fn store(&self, id: HierarchyId) -> &DataStore {
        &self.entries[id.0].store
    }

    /// Mutable access to a store.
    pub fn store_mut(&mut self, id: HierarchyId) -> &mut DataStore {
        &mut self.entries[id.0].store
    }

    /// The network node a store is bound to.
    pub fn net_node(&self, id: HierarchyId) -> NodeId {
        self.entries[id.0].net
    }

    /// The parent of a store, if any.
    pub fn parent(&self, id: HierarchyId) -> Option<HierarchyId> {
        self.entries[id.0].parent.map(HierarchyId)
    }

    /// The underlying network (with its byte accounting).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the network.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// All store ids, top-down.
    pub fn ids(&self) -> Vec<HierarchyId> {
        (0..self.entries.len()).map(HierarchyId).collect()
    }

    /// Ingests a flow record at a store (trigger firings returned).
    pub fn ingest_flow(
        &mut self,
        id: HierarchyId,
        stream: &StreamId,
        rec: &FlowRecord,
        now: Timestamp,
    ) -> Vec<TriggerEvent> {
        self.entries[id.0].store.ingest_flow(stream, rec, now)
    }

    /// Ingests a scalar reading at a store (trigger firings returned).
    pub fn ingest_scalar(
        &mut self,
        id: HierarchyId,
        stream: &StreamId,
        value: f64,
        now: Timestamp,
    ) -> Vec<TriggerEvent> {
        self.entries[id.0].store.ingest_scalar(stream, value, now)
    }

    /// Rotates every store whose epoch is due (deepest stores first) and
    /// exports the produced summaries to the parent over the network. A
    /// summary a parent can merge into one of its live aggregators is
    /// *absorbed* (so the parent's own epoch summarizes its children);
    /// anything else is imported into the parent's summary store.
    ///
    /// Transient transfer failures (link/node down, loss — see
    /// [`TransferError::is_transient`]) are retried with exponential
    /// backoff per the installed [`PumpPolicy`]; summaries that still
    /// cannot be delivered are parked in a bounded per-edge spill buffer
    /// (re-merged while waiting, exercising P2 combinability) and
    /// re-exported by a later pump once the edge recovers. Overflowing
    /// the buffer drops the oldest spilled summaries with accounting.
    ///
    /// # Errors
    ///
    /// Returns [`PumpError::Transfer`] only for non-transient failures
    /// ([`TransferError::NoRoute`] / [`TransferError::UnknownNode`]) —
    /// those mean the hierarchy is miswired, not that the network is
    /// having a bad day.
    pub fn pump(&mut self, now: Timestamp) -> Result<ExportStats, PumpError> {
        self.pump_with(now, &mut |_| {})
    }

    /// [`StoreHierarchy::pump`], reporting every summary the pump moves to
    /// `observer` as it happens: each export, park and flush as a
    /// [`PumpEvent::Edge`], and each summary a root's rotation produces as
    /// a [`PumpEvent::RootRotated`]. Handing the recorded edge events to
    /// [`StoreHierarchy::replay`] rebuilds the state the pump left.
    ///
    /// # Errors
    ///
    /// Same as [`StoreHierarchy::pump`].
    pub fn pump_with(
        &mut self,
        now: Timestamp,
        observer: &mut dyn FnMut(PumpEvent<'_>),
    ) -> Result<ExportStats, PumpError> {
        let _pump = self.tel.root("hierarchy.pump");
        if self.tel.is_enabled() {
            // Simulated-time progress of the pump loop — the ops plane's
            // freshness rules compare this against "now".
            self.tel
                .gauge("hierarchy.watermark_micros")
                .set(now.as_micros() as i64);
        }
        let mut stats = ExportStats::default();
        // Deepest level first, so child exports are absorbed before parents
        // rotate (when epochs align). Each level runs in three phases:
        // spills flush first, in index order, so a parent rotating in this
        // same pump sees the late data; then every due store of the level
        // rotates — sibling subtrees concurrently, per the parallelism
        // knob, since rotation touches only the store itself; finally the
        // produced summaries export to the parents in index order. The
        // retry/backoff/spill path is untouched and the export order is
        // fixed, so the observable outcome is identical for every worker
        // count.
        let mut levels: BTreeMap<std::cmp::Reverse<usize>, Vec<usize>> = BTreeMap::new();
        for (i, entry) in self.entries.iter().enumerate() {
            levels
                .entry(std::cmp::Reverse(entry.depth))
                .or_default()
                .push(i);
        }
        for level in levels.into_values() {
            for &i in &level {
                if !self.entries[i].spill.is_empty() {
                    self.flush_spill(i, now, &mut stats, observer)?;
                }
            }
            let due: Vec<usize> = level
                .into_iter()
                .filter(|&i| self.entries[i].store.epoch_due(now))
                .collect();
            if due.is_empty() {
                continue;
            }
            let rotated = self.rotate_due(&due, now);
            stats.rotations += due.len() as u64;
            for (i, exported) in due.into_iter().zip(rotated) {
                self.export_rotated(i, exported, now, &mut stats, observer)?;
            }
        }
        Ok(stats)
    }

    /// Phase 2 of [`StoreHierarchy::pump`]: rotates the due stores of one
    /// level — sibling subtrees — on up to [`Parallelism::worker_count`]
    /// threads, the caller's included, returning each store's exported
    /// summaries in the order `due` lists them. Records the thread count
    /// and per-thread busy time under `hierarchy.pump.workers` /
    /// `hierarchy.pump.worker.micros`.
    fn rotate_due(&mut self, due: &[usize], now: Timestamp) -> Vec<Vec<StoredSummary>> {
        let _rotate = self.tel.scope("hierarchy.rotate");
        let workers = self.par.worker_count(due.len());
        if self.tel.is_enabled() {
            self.tel.gauge("hierarchy.pump.workers").set(workers as i64);
        }
        let worker_micros = self
            .tel
            .histogram("hierarchy.pump.worker.micros", LATENCY_MICROS_BOUNDS);
        let due_set: BTreeSet<usize> = due.iter().copied().collect();
        let stores: Vec<&mut DataStore> = self
            .entries
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| due_set.contains(i))
            .map(|(_, entry)| &mut entry.store)
            .collect();
        fan_out(
            stores,
            workers,
            |store| store.rotate_epoch(now),
            |micros| worker_micros.record(micros),
        )
    }

    /// Phase 3 of [`StoreHierarchy::pump`]: exports one rotated store's
    /// summaries to its parent with the retry/backoff/spill semantics. A
    /// root has no parent: its summaries only go to the observer.
    fn export_rotated(
        &mut self,
        i: usize,
        exported: Vec<StoredSummary>,
        now: Timestamp,
        stats: &mut ExportStats,
        observer: &mut dyn FnMut(PumpEvent<'_>),
    ) -> Result<(), PumpError> {
        let Some(parent) = self.entries[i].parent else {
            for summary in &exported {
                observer(PumpEvent::RootRotated(HierarchyId(i), summary));
            }
            return Ok(());
        };
        let depth = self.entries[i].depth;
        let level_micros = if self.tel.is_enabled() {
            self.tel.histogram(
                &labeled("hierarchy.export.micros", "level", &depth.to_string()),
                LATENCY_MICROS_BOUNDS,
            )
        } else {
            Histogram::noop()
        };
        let mut export = self.tel.scope_with("hierarchy.export", &level_micros);
        export.annotate("store", self.entries[i].store.name());
        export.annotate("level", depth);
        // The parent-side re-aggregation nests in the export, linking the
        // two levels into one lineage tree.
        let mut absorb = self.tel.scope("hierarchy.absorb");
        absorb.annotate("store", self.entries[parent].store.name());
        let (from, to) = (self.entries[i].net, self.entries[parent].net);
        let mut level_bytes = 0u64;
        let (mut absorbed, mut imported, mut spilled) = (0u64, 0u64, 0u64);
        for summary in exported {
            let bytes = summary.wire_size() as u64;
            match self.transfer_with_retry(from, to, bytes, now, stats) {
                Ok(()) => {
                    stats.exported_summaries += 1;
                    stats.exported_bytes += bytes;
                    level_bytes += bytes;
                    export.add_bytes(bytes);
                    export.add_records(1);
                    observer(PumpEvent::Edge(
                        EdgeOutcome::Exported,
                        HierarchyId(i),
                        &summary,
                    ));
                    if self.deliver(parent, summary, now) {
                        stats.absorbed += 1;
                        absorbed += 1;
                    } else {
                        imported += 1;
                    }
                    absorb.add_bytes(bytes);
                    absorb.add_records(1);
                }
                Err(err) if err.is_transient() => {
                    export.annotate("fault", err);
                    observer(PumpEvent::Edge(
                        EdgeOutcome::Parked,
                        HierarchyId(i),
                        &summary,
                    ));
                    self.park(i, summary, now, stats);
                    spilled += 1;
                }
                Err(source) => {
                    return Err(PumpError::Transfer { from, to, source });
                }
            }
        }
        if spilled > 0 {
            export.annotate("spilled", spilled);
        }
        absorb.annotate("absorbed", absorbed);
        absorb.annotate("imported", imported);
        absorb.finish();
        if self.tel.is_enabled() {
            self.tel
                .counter(&labeled(
                    "hierarchy.export.bytes_total",
                    "level",
                    &depth.to_string(),
                ))
                .add(level_bytes);
        }
        export.finish();
        Ok(())
    }

    /// Hands a summary that reached store `parent` to it: absorbed into a
    /// compatible live aggregator, else imported into its summary store.
    /// Returns whether it was absorbed.
    fn deliver(&mut self, parent: usize, summary: StoredSummary, now: Timestamp) -> bool {
        let store = &mut self.entries[parent].store;
        let absorbed = absorb(store, &summary);
        if !absorbed {
            store.import_summary(summary, now);
        }
        absorbed
    }

    /// One transfer with bounded retry + exponential backoff. Each retry
    /// happens at a later simulated timestamp (`now + backoff * 2^k`), so
    /// a short outage window can end mid-sequence.
    fn transfer_with_retry(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        now: Timestamp,
        stats: &mut ExportStats,
    ) -> Result<(), TransferError> {
        let mut attempt_at = now;
        let mut backoff = self.policy.initial_backoff;
        for attempt in 0..=self.policy.max_retries {
            match self.network.transfer(from, to, bytes, attempt_at) {
                Ok(_) => return Ok(()),
                Err(err) if err.is_transient() && attempt < self.policy.max_retries => {
                    stats.retries += 1;
                    self.tel.counter("hierarchy.export.retries_total").inc();
                    let salt = now
                        .as_micros()
                        .wrapping_mul(31)
                        .wrapping_add((from.index() as u64) << 40)
                        .wrapping_add((to.index() as u64) << 20)
                        .wrapping_add(bytes)
                        .wrapping_add(attempt as u64);
                    attempt_at += backoff + jitter_micros(self.policy.jitter_seed, salt, backoff);
                    backoff = TimeDelta::from_micros(backoff.as_micros().saturating_mul(2));
                }
                Err(err) => return Err(err),
            }
        }
        unreachable!("loop always returns")
    }

    /// Parks a summary in `i`'s spill buffer: merged into a compatible
    /// already-spilled summary where possible (P2), bounded by the policy's
    /// capacity with oldest-first drops.
    fn park(&mut self, i: usize, summary: StoredSummary, now: Timestamp, stats: &mut ExportStats) {
        let location = self.entries[i].store.name().to_string();
        let cap = self.policy.spill_capacity_bytes;
        let entry = &mut self.entries[i];
        if let Some(existing) = entry
            .spill
            .iter_mut()
            .find(|s| summaries_mergeable(s, &summary))
        {
            let before = existing.wire_size() as u64;
            existing.merge(&summary, &location, now);
            entry.spill_bytes = entry.spill_bytes - before + existing.wire_size() as u64;
        } else {
            entry.spill_bytes += summary.wire_size() as u64;
            entry.spill.push(summary);
        }
        stats.spilled += 1;
        self.tel.counter("hierarchy.spill.spilled_total").inc();
        while entry.spill_bytes > cap && !entry.spill.is_empty() {
            let victim = entry.spill.remove(0);
            let bytes = victim.wire_size() as u64;
            entry.spill_bytes -= bytes;
            stats.dropped += 1;
            stats.dropped_bytes += bytes;
            self.tel.counter("hierarchy.spill.dropped_total").inc();
            self.tel
                .counter("hierarchy.spill.dropped_bytes_total")
                .add(bytes);
            // Per-edge attribution, so a durability audit can pin a drop to
            // the specific store whose uplink overflowed its buffer.
            self.tel
                .counter(&labeled("hierarchy.spill.dropped_bytes", "edge", &location))
                .add(bytes);
        }
        self.update_spill_gauges(i);
    }

    /// Refreshes the spill-occupancy gauges after store `i`'s buffer
    /// changed: the per-store labeled gauge plus the hierarchy-wide
    /// aggregate the ops plane's health rules watch.
    fn update_spill_gauges(&self, i: usize) {
        if !self.tel.is_enabled() {
            return;
        }
        self.tel
            .gauge(&labeled(
                "hierarchy.spill.buffered_bytes",
                "store",
                self.entries[i].store.name(),
            ))
            .set(self.entries[i].spill_bytes as i64);
        let total: u64 = self.entries.iter().map(|e| e.spill_bytes).sum();
        self.tel
            .gauge("hierarchy.spill.buffered_bytes")
            .set(total as i64);
    }

    /// Attempts to deliver `i`'s spilled summaries to its parent. Stops at
    /// the first transient failure (the edge is still down); fatal errors
    /// propagate.
    fn flush_spill(
        &mut self,
        i: usize,
        now: Timestamp,
        stats: &mut ExportStats,
        observer: &mut dyn FnMut(PumpEvent<'_>),
    ) -> Result<(), PumpError> {
        let Some(parent) = self.entries[i].parent else {
            // A root cannot export; anything spilled here is unreachable.
            return Ok(());
        };
        let (from, to) = (self.entries[i].net, self.entries[parent].net);
        let mut flush = self.tel.scope("hierarchy.flush");
        flush.annotate("store", self.entries[i].store.name());
        flush.annotate("pending", self.entries[i].spill.len());
        while let Some(head) = self.entries[i].spill.first() {
            let bytes = head.wire_size() as u64;
            match self.network.transfer(from, to, bytes, now) {
                Ok(_) => {
                    let summary = self.entries[i].spill.remove(0);
                    self.entries[i].spill_bytes = self.entries[i].spill_bytes.saturating_sub(bytes);
                    stats.flushed += 1;
                    stats.exported_summaries += 1;
                    stats.exported_bytes += bytes;
                    flush.add_bytes(bytes);
                    flush.add_records(1);
                    self.tel.counter("hierarchy.spill.flushed_total").inc();
                    observer(PumpEvent::Edge(
                        EdgeOutcome::Flushed,
                        HierarchyId(i),
                        &summary,
                    ));
                    if self.deliver(parent, summary, now) {
                        stats.absorbed += 1;
                    }
                }
                Err(err) if err.is_transient() => {
                    flush.annotate("fault", err);
                    break;
                }
                Err(source) => {
                    return Err(PumpError::Transfer { from, to, source });
                }
            }
        }
        self.update_spill_gauges(i);
        Ok(())
    }

    /// Re-applies one edge outcome that a [`pump_with`](Self::pump_with)
    /// observer recorded, without touching the network; crash recovery
    /// replays a journaled pump this way. An export is delivered to the
    /// parent (absorbed, else imported), a park re-runs the spill merge
    /// and overflow drops, and a flush pops the spill head and delivers
    /// `summary`. The caller restores the rotation that produced exported
    /// and parked summaries first ([`DataStore::restore_rotation`]), and
    /// rotates a due root afterwards.
    pub fn replay(
        &mut self,
        outcome: EdgeOutcome,
        store: HierarchyId,
        summary: &StoredSummary,
        now: Timestamp,
    ) {
        let i = store.0;
        let Some(parent) = self.entries[i].parent else {
            return;
        };
        match outcome {
            EdgeOutcome::Exported => {
                self.deliver(parent, summary.clone(), now);
            }
            EdgeOutcome::Parked => self.park(i, summary.clone(), now, &mut ExportStats::default()),
            EdgeOutcome::Flushed => {
                let entry = &mut self.entries[i];
                if !entry.spill.is_empty() {
                    let head = entry.spill.remove(0);
                    entry.spill_bytes = entry.spill_bytes.saturating_sub(head.wire_size() as u64);
                }
                self.update_spill_gauges(i);
                self.deliver(parent, summary.clone(), now);
            }
        }
    }
}

/// Whether two stored summaries can merge without panicking: same kind,
/// and for Flowtrees / exact tables, matching configuration. Spill buffers
/// use this to coalesce parked summaries (P2) while an edge is down.
pub fn summaries_mergeable(a: &StoredSummary, b: &StoredSummary) -> bool {
    match (&a.summary, &b.summary) {
        (Summary::Flowtree(x), Summary::Flowtree(y)) => x.config().compatible_with(y.config()),
        (Summary::Exact(x), Summary::Exact(y)) => {
            x.features() == y.features() && x.score_kind() == y.score_kind()
        }
        (x, y) => x.kind() == y.kind(),
    }
}

/// Merges a summary into a compatible live aggregator of `store`, if any:
/// Flowtrees merge with Flowtrees of the same configuration, Space-Saving
/// sketches and exact tables with their counterparts. Returns whether the
/// summary was absorbed (callers typically import it otherwise).
fn absorb(store: &mut DataStore, summary: &StoredSummary) -> bool {
    for id in store.aggregator_ids() {
        let Some(inst) = store.aggregator_mut(id) else {
            continue;
        };
        match (inst, &summary.summary) {
            (AggregatorInstance::Flowtree(mine), Summary::Flowtree(theirs))
                if mine.config().compatible_with(theirs.config()) =>
            {
                mine.merge(theirs);
                return true;
            }
            (AggregatorInstance::TopFlows { sketch, .. }, Summary::TopFlows(theirs)) => {
                sketch.combine(theirs);
                return true;
            }
            (AggregatorInstance::TimeBins(mine), Summary::Bins(theirs)) => {
                mine.absorb(theirs);
                return true;
            }
            (AggregatorInstance::Exact(mine), Summary::Exact(theirs))
                if mine.features() == theirs.features()
                    && mine.score_kind() == theirs.score_kind() =>
            {
                mine.combine(theirs);
                return true;
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_datastore::{AggregatorSpec, StorageStrategy};
    use megastream_flow::key::FlowKey;
    use megastream_flow::time::TimeDelta;
    use megastream_flowtree::FlowtreeConfig;
    use megastream_netsim::topology::{LinkSpec, NodeKind};

    fn store(name: &str, epoch_secs: u64) -> DataStore {
        let mut s = DataStore::new(
            name,
            StorageStrategy::RoundRobin {
                budget_bytes: 10 << 20,
            },
            TimeDelta::from_secs(epoch_secs),
        );
        s.install_aggregator(AggregatorSpec::Flowtree(
            FlowtreeConfig::default().with_capacity(4096),
        ));
        s
    }

    fn rec(src: &str, packets: u64) -> FlowRecord {
        FlowRecord::builder()
            .proto(6)
            .src(src.parse().unwrap(), 5000)
            .dst("1.1.1.1".parse().unwrap(), 443)
            .packets(packets)
            .build()
    }

    /// Two leaves under one parent.
    fn two_level() -> (StoreHierarchy, HierarchyId, HierarchyId, HierarchyId) {
        let mut net = Network::new();
        let parent_n = net.add_node("parent", NodeKind::DataStore);
        let a_n = net.add_node("a", NodeKind::DataStore);
        let b_n = net.add_node("b", NodeKind::DataStore);
        net.connect(a_n, parent_n, LinkSpec::lan_1g());
        net.connect(b_n, parent_n, LinkSpec::lan_1g());
        let mut h = StoreHierarchy::new(net);
        let root = h.add_root(store("parent", 120), parent_n);
        let a = h.add_child(store("a", 60), a_n, root);
        let b = h.add_child(store("b", 60), b_n, root);
        (h, root, a, b)
    }

    #[test]
    fn pump_exports_and_absorbs() {
        let (mut h, root, a, b) = two_level();
        h.ingest_flow(
            a,
            &"ra".into(),
            &rec("10.0.0.1", 5),
            Timestamp::from_secs(10),
        );
        h.ingest_flow(
            b,
            &"rb".into(),
            &rec("10.1.0.1", 7),
            Timestamp::from_secs(10),
        );
        let stats = h.pump(Timestamp::from_secs(60)).unwrap();
        assert_eq!(stats.rotations, 2);
        assert_eq!(stats.exported_summaries, 2);
        assert_eq!(stats.absorbed, 2);
        assert!(stats.exported_bytes > 0);
        // Parent's live flowtree merged both children.
        assert_eq!(h.store(root).live_flow_score(&FlowKey::root()).value(), 12);
        // Network accounted the transfers.
        assert_eq!(h.network().total_bytes(), stats.exported_bytes);
        assert_eq!(h.network().transfer_count(), 2);
    }

    #[test]
    fn parent_epoch_produces_combined_summary() {
        let (mut h, root, a, b) = two_level();
        for t in [10u64, 70] {
            h.ingest_flow(
                a,
                &"ra".into(),
                &rec("10.0.0.1", 5),
                Timestamp::from_secs(t),
            );
            h.ingest_flow(
                b,
                &"rb".into(),
                &rec("10.1.0.1", 7),
                Timestamp::from_secs(t),
            );
            h.pump(Timestamp::from_secs(t + 50)).unwrap();
        }
        // The t=120 pump closed the parent epoch right after absorbing the
        // children's second exports (children rotate first within a pump).
        let total: u64 = h
            .store(root)
            .summaries()
            .iter()
            .filter_map(|s| match &s.summary {
                Summary::Flowtree(t) => Some(t.total().value()),
                _ => None,
            })
            .sum();
        assert_eq!(total, 24, "parent summary should combine both epochs");
    }

    #[test]
    fn rate_reduction_across_levels() {
        let (mut h, _root, a, b) = two_level();
        for i in 0..2_000u32 {
            let t = Timestamp::from_micros(i as u64 * 25_000);
            h.ingest_flow(a, &"ra".into(), &rec(&format!("10.0.{}.1", i % 50), 1), t);
            h.ingest_flow(b, &"rb".into(), &rec(&format!("10.1.{}.1", i % 50), 1), t);
        }
        let stats = h.pump(Timestamp::from_secs(60)).unwrap();
        let raw: u64 = [a, b].iter().map(|id| h.store(*id).stats().raw_bytes).sum();
        assert!(
            stats.exported_bytes < raw / 2,
            "summaries ({}) not smaller than raw stream ({raw})",
            stats.exported_bytes
        );
    }

    #[test]
    fn incompatible_summary_is_imported_not_absorbed() {
        let mut net = Network::new();
        let p = net.add_node("p", NodeKind::DataStore);
        let c = net.add_node("c", NodeKind::DataStore);
        net.connect(p, c, LinkSpec::lan_1g());
        let mut h = StoreHierarchy::new(net);
        // Parent has no aggregator at all.
        let parent_store = DataStore::new(
            "p",
            StorageStrategy::RoundRobin {
                budget_bytes: 1 << 20,
            },
            TimeDelta::from_secs(3600),
        );
        let root = h.add_root(parent_store, p);
        let child = h.add_child(store("c", 60), c, root);
        h.ingest_flow(
            child,
            &"r".into(),
            &rec("10.0.0.1", 5),
            Timestamp::from_secs(1),
        );
        let stats = h.pump(Timestamp::from_secs(60)).unwrap();
        assert_eq!(stats.absorbed, 0);
        assert_eq!(h.store(root).summaries().len(), 1);
    }

    #[test]
    fn pump_surfaces_fatal_transfer_errors() {
        // A child bound to a node with no link to its parent: NoRoute is a
        // wiring bug and must surface as an error, not be swallowed.
        let mut net = Network::new();
        let p = net.add_node("p", NodeKind::DataStore);
        let _linked = net.add_node("linked", NodeKind::DataStore);
        let island = net.add_node("island", NodeKind::DataStore);
        net.connect(p, _linked, LinkSpec::lan_1g());
        let mut h = StoreHierarchy::new(net);
        let root = h.add_root(store("p", 3600), p);
        let child = h.add_child(store("c", 60), island, root);
        h.ingest_flow(
            child,
            &"r".into(),
            &rec("10.0.0.1", 5),
            Timestamp::from_secs(1),
        );
        let err = h.pump(Timestamp::from_secs(60)).unwrap_err();
        assert_eq!(
            err,
            PumpError::Transfer {
                from: h.net_node(child),
                to: h.net_node(root),
                source: megastream_netsim::TransferError::NoRoute(
                    h.net_node(child),
                    h.net_node(root)
                ),
            }
        );
        assert!(err.to_string().contains("no route"));
    }

    #[test]
    fn link_down_spills_then_flushes_and_converges() {
        use megastream_netsim::FaultPlan;
        // Reference run without faults.
        let (mut ref_h, ref_root, ref_a, ref_b) = two_level();
        // Faulted run: a's uplink is down across the t=60 rotation and
        // recovers before t=120.
        let (mut h, root, a, b) = two_level();
        let mut plan = FaultPlan::seeded(42);
        plan.link_down(
            h.net_node(a),
            h.net_node(root),
            Timestamp::from_secs(50),
            Timestamp::from_secs(100),
        );
        h.network_mut().install_faults(plan);
        for (hh, aa, bb) in [(&mut ref_h, ref_a, ref_b), (&mut h, a, b)] {
            for t in [10u64, 70] {
                hh.ingest_flow(
                    aa,
                    &"ra".into(),
                    &rec("10.0.0.1", 5),
                    Timestamp::from_secs(t),
                );
                hh.ingest_flow(
                    bb,
                    &"rb".into(),
                    &rec("10.1.0.1", 7),
                    Timestamp::from_secs(t),
                );
            }
        }
        let ref_s1 = ref_h.pump(Timestamp::from_secs(60)).unwrap();
        let s1 = h.pump(Timestamp::from_secs(60)).unwrap();
        // b exported fine; a retried, gave up, and spilled.
        assert_eq!(s1.exported_summaries, 1);
        assert_eq!(s1.spilled, 1);
        assert!(s1.retries >= 1);
        assert_eq!(h.spilled(a), 1);
        assert!(h.spilled_bytes(a) > 0);
        assert_eq!(ref_s1.spilled, 0);
        // Next pump runs after recovery: the spill flushes and the parent
        // converges to the reference run's exact totals.
        let ref_s2 = ref_h.pump(Timestamp::from_secs(120)).unwrap();
        let s2 = h.pump(Timestamp::from_secs(120)).unwrap();
        assert_eq!(s2.flushed, 1);
        assert_eq!(h.spilled(a), 0);
        assert_eq!(
            h.store(root).live_flow_score(&FlowKey::root()).value(),
            ref_h
                .store(ref_root)
                .live_flow_score(&FlowKey::root())
                .value(),
        );
        assert_eq!(
            s1.exported_summaries + s2.exported_summaries,
            ref_s1.exported_summaries + ref_s2.exported_summaries,
        );
    }

    /// The observer sees every edge outcome in pump order, and replaying
    /// the recorded outcomes into a fresh hierarchy — restoring the
    /// children's rotations first and rotating a due root after, as crash
    /// recovery does — reproduces the live run after every pump.
    #[test]
    fn observed_pump_events_replay_to_the_live_state() {
        use megastream_netsim::FaultPlan;
        let (mut h, root, a, b) = two_level();
        let (mut copy, ..) = two_level();
        let mut plan = FaultPlan::seeded(42);
        plan.link_down(
            h.net_node(a),
            h.net_node(root),
            Timestamp::from_secs(50),
            Timestamp::from_secs(100),
        );
        h.network_mut().install_faults(plan);
        let expected = [
            vec![
                (Some(EdgeOutcome::Parked), a),
                (Some(EdgeOutcome::Exported), b),
            ],
            vec![
                (Some(EdgeOutcome::Flushed), a),
                (Some(EdgeOutcome::Exported), a),
                (Some(EdgeOutcome::Exported), b),
                (None, root),
            ],
        ];
        for (secs, want) in [60u64, 120].into_iter().zip(expected) {
            for (id, src) in [(a, "10.0.0.1"), (b, "10.1.0.1")] {
                h.ingest_flow(
                    id,
                    &"r".into(),
                    &rec(src, 5),
                    Timestamp::from_secs(secs - 50),
                );
            }
            let now = Timestamp::from_secs(secs);
            let mut events = Vec::new();
            h.pump_with(now, &mut |event| {
                events.push(match event {
                    PumpEvent::Edge(outcome, id, s) => (Some(outcome), id, s.clone()),
                    PumpEvent::RootRotated(id, s) => (None, id, s.clone()),
                });
            })
            .unwrap();
            let seen: Vec<_> = events.iter().map(|(o, id, _)| (*o, *id)).collect();
            assert_eq!(seen, want, "pump at {secs} s");

            for child in [a, b] {
                let rotated: Vec<StoredSummary> = events
                    .iter()
                    .filter(|(o, id, _)| {
                        *id == child
                            && matches!(o, Some(EdgeOutcome::Exported | EdgeOutcome::Parked))
                    })
                    .map(|(_, _, s)| s.clone())
                    .collect();
                copy.store_mut(child).restore_rotation(&rotated, now);
            }
            for (outcome, id, summary) in &events {
                if let Some(outcome) = outcome {
                    copy.replay(*outcome, *id, summary, now);
                }
            }
            if copy.store(root).epoch_due(now) {
                copy.store_mut(root).rotate_epoch(now);
            }
            assert_eq!(
                copy.store(root).accounted_bytes(),
                h.store(root).accounted_bytes()
            );
            assert_eq!(
                copy.store(root).live_flow_score(&FlowKey::root()),
                h.store(root).live_flow_score(&FlowKey::root())
            );
            for id in [root, a, b] {
                assert_eq!(copy.spilled(id), h.spilled(id));
            }
        }
    }

    /// Each level's export time is one labeled histogram family, and a
    /// root rotation — which exports nothing — records no export.
    #[test]
    fn export_timer_is_one_family_labeled_by_level() {
        let tel = Telemetry::new();
        let (mut h, _root, a, b) = two_level();
        h.set_telemetry(&tel);
        for (id, src) in [(a, "10.0.0.1"), (b, "10.1.0.1")] {
            h.ingest_flow(id, &"r".into(), &rec(src, 5), Timestamp::from_secs(10));
        }
        let stats = h.pump(Timestamp::from_secs(120)).unwrap();
        assert_eq!(stats.rotations, 3, "both children and the root rotate");
        let snap = tel.snapshot();
        let prom = snap.render_prometheus();
        assert!(
            prom.contains("hierarchy_export_micros_bucket{level=\"1\","),
            "{prom}"
        );
        assert!(!prom.contains("level=\"0\""), "{prom}");
        for (name, _) in &snap.histograms {
            if let Some(close) = name.find('}') {
                assert_eq!(close + 1, name.len(), "text after the labels: {name}");
            }
        }
    }

    /// The pump's retry backoff carries deterministic seeded jitter: the
    /// same seed reproduces the same retry schedule bit-for-bit, and any
    /// seed converges to the same data — jitter shifts timing, never
    /// outcomes.
    #[test]
    fn pump_retry_jitter_is_seed_deterministic() {
        use megastream_netsim::FaultPlan;
        let run = |jitter_seed: u64| {
            let (mut h, root, a, b) = two_level();
            h.set_pump_policy(PumpPolicy {
                jitter_seed,
                ..PumpPolicy::default()
            });
            let mut plan = FaultPlan::seeded(42);
            plan.link_down(
                h.net_node(a),
                h.net_node(root),
                Timestamp::from_secs(50),
                Timestamp::from_secs(100),
            );
            h.network_mut().install_faults(plan);
            for (id, src) in [(a, "10.0.0.1"), (b, "10.1.0.1")] {
                h.ingest_flow(id, &"r".into(), &rec(src, 5), Timestamp::from_secs(10));
            }
            let s1 = h.pump(Timestamp::from_secs(60)).unwrap();
            let s2 = h.pump(Timestamp::from_secs(120)).unwrap();
            let score = h.store(root).live_flow_score(&FlowKey::root()).value();
            (s1, s2, score)
        };
        let first = run(1234);
        assert_eq!(first, run(1234), "same seed must be bit-identical");
        assert!(first.0.retries >= 1, "the outage forces retries");
        let other = run(5678);
        assert_eq!(first.2, other.2, "jitter shifts timing, never data");
        assert_eq!(
            first.0.spilled + first.1.flushed,
            other.0.spilled + other.1.flushed
        );
    }

    #[test]
    fn spilled_summaries_merge_while_waiting() {
        use megastream_netsim::FaultPlan;
        let (mut h, root, a, _b) = two_level();
        let mut plan = FaultPlan::seeded(7);
        // Down across both rotations.
        plan.link_down(
            h.net_node(a),
            h.net_node(root),
            Timestamp::from_secs(50),
            Timestamp::from_secs(500),
        );
        h.network_mut().install_faults(plan);
        for t in [10u64, 70] {
            h.ingest_flow(
                a,
                &"ra".into(),
                &rec("10.0.0.1", 5),
                Timestamp::from_secs(t),
            );
        }
        let s1 = h.pump(Timestamp::from_secs(60)).unwrap();
        let s2 = h.pump(Timestamp::from_secs(120)).unwrap();
        assert_eq!(s1.spilled + s2.spilled, 2);
        // Both epochs merged into ONE parked summary (P2 combinability).
        assert_eq!(h.spilled(a), 1);
        // After recovery the single flushed summary carries both epochs
        // (the root rotates at t=500 too, so count live + stored mass).
        let s3 = h.pump(Timestamp::from_secs(500)).unwrap();
        assert_eq!(s3.flushed, 1);
        let total = h.store(root).live_flow_score(&FlowKey::root()).value()
            + h.store(root)
                .summaries()
                .iter()
                .filter_map(|s| match &s.summary {
                    Summary::Flowtree(t) => Some(t.total().value()),
                    _ => None,
                })
                .sum::<u64>();
        assert_eq!(total, 10);
    }

    #[test]
    fn spill_overflow_drops_oldest_with_accounting() {
        use megastream_netsim::FaultPlan;
        let (mut h, root, a, _b) = two_level();
        h.set_pump_policy(PumpPolicy {
            max_retries: 0,
            spill_capacity_bytes: 1, // any spill overflows immediately
            ..PumpPolicy::default()
        });
        let mut plan = FaultPlan::seeded(7);
        plan.link_down(
            h.net_node(a),
            h.net_node(root),
            Timestamp::ZERO,
            Timestamp::from_secs(500),
        );
        h.network_mut().install_faults(plan);
        h.ingest_flow(
            a,
            &"ra".into(),
            &rec("10.0.0.1", 5),
            Timestamp::from_secs(10),
        );
        let s = h.pump(Timestamp::from_secs(60)).unwrap();
        assert_eq!(s.spilled, 1);
        assert_eq!(s.dropped, 1);
        assert!(s.dropped_bytes > 0);
        assert_eq!(h.spilled(a), 0);
    }

    #[test]
    fn trigger_events_surface_at_ingest() {
        use megastream_datastore::trigger::TriggerCondition;
        let (mut h, _root, a, _b) = two_level();
        h.store_mut(a).install_trigger(
            "app",
            TriggerCondition::ScalarAbove {
                stream: "m/temp".into(),
                threshold: 50.0,
            },
            TimeDelta::ZERO,
        );
        let events = h.ingest_scalar(a, &"m/temp".into(), 60.0, Timestamp::ZERO);
        assert_eq!(events.len(), 1);
    }
}
