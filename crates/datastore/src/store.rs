//! The [`DataStore`]: collect & aggregate (Fig. 2a, Fig. 4).

use std::collections::BTreeMap;
use std::fmt;

use megastream_flow::key::FlowKey;
use megastream_flow::record::FlowRecord;
use megastream_flow::score::Popularity;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_primitives::aggregator::AdaptationFeedback;
use megastream_telemetry::{labeled, Counter, Gauge, Histogram, Telemetry, LATENCY_MICROS_BOUNDS};

use crate::aggregator::{AggregatorId, AggregatorInstance, AggregatorSpec};
use crate::storage::{StorageStrategy, SummaryStore};
use crate::summary::{Lineage, StoredSummary};
use crate::trigger::{TriggerCondition, TriggerEngine, TriggerEvent, TriggerId};

/// Identifier of a data stream (a sensor channel, a router export, ...).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(String);

impl StreamId {
    /// Creates a stream id.
    pub fn new(name: impl Into<String>) -> Self {
        StreamId(name.into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for StreamId {
    fn from(s: &str) -> Self {
        StreamId(s.to_owned())
    }
}

/// Ingest/processing statistics of one data store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Flow records ingested.
    pub flows: u64,
    /// Scalar readings ingested.
    pub scalars: u64,
    /// Raw bytes ingested (what full forwarding would have cost).
    pub raw_bytes: u64,
    /// Bytes exported as summaries so far.
    pub exported_bytes: u64,
    /// Epoch rotations performed.
    pub epochs: u64,
}

/// Cached telemetry handles for one store's hot paths. All handles are
/// no-ops until [`DataStore::set_telemetry`] installs a live registry.
#[derive(Debug, Clone, Default)]
struct StoreMetrics {
    /// The handle the rotation scope opens on.
    tel: Telemetry,
    flows: Counter,
    scalars: Counter,
    raw_bytes: Counter,
    exported_bytes: Counter,
    epochs: Counter,
    imports: Counter,
    rotate_micros: Histogram,
    footprint: Gauge,
    /// Deterministic deep memory account (live aggregators + stored
    /// summaries), maintained incrementally at merge/compress/rotate
    /// boundaries — the accounting plane's per-store gauge.
    memory: Gauge,
    /// Newest ingested simulated timestamp — the ops plane's freshness
    /// rules compare it against "now".
    watermark: Gauge,
    /// Simulated timestamp of the last epoch rotation (rotation lag).
    last_rotation: Gauge,
    /// Live nodes across the store's stored Flowtree summaries.
    arena_nodes: Gauge,
    /// Bytes held by the arenas of the store's stored Flowtree summaries.
    arena_bytes: Gauge,
}

impl StoreMetrics {
    fn for_store(tel: &Telemetry, store: &str) -> Self {
        StoreMetrics {
            tel: tel.clone(),
            flows: tel.counter(&labeled("datastore.ingest.flows_total", "store", store)),
            scalars: tel.counter(&labeled("datastore.ingest.scalars_total", "store", store)),
            raw_bytes: tel.counter(&labeled("datastore.ingest.raw_bytes_total", "store", store)),
            exported_bytes: tel.counter(&labeled(
                "datastore.export.summary_bytes_total",
                "store",
                store,
            )),
            epochs: tel.counter(&labeled("datastore.epoch.rotations_total", "store", store)),
            imports: tel.counter(&labeled("datastore.import.summaries_total", "store", store)),
            rotate_micros: tel.histogram(
                &labeled("datastore.epoch.rotate.micros", "store", store),
                LATENCY_MICROS_BOUNDS,
            ),
            footprint: tel.gauge(&labeled("datastore.footprint_bytes", "store", store)),
            memory: tel.gauge(&labeled("store.memory.bytes", "store", store)),
            watermark: tel.gauge(&labeled("datastore.watermark_micros", "store", store)),
            last_rotation: tel.gauge(&labeled(
                "datastore.epoch.last_rotation_micros",
                "store",
                store,
            )),
            arena_nodes: tel.gauge(&labeled("flowtree.arena.nodes", "store", store)),
            arena_bytes: tel.gauge(&labeled("flowtree.arena.bytes", "store", store)),
        }
    }
}

/// One data store in the hierarchy.
///
/// ```
/// use megastream_datastore::{AggregatorSpec, DataStore, StorageStrategy};
/// use megastream_flow::record::FlowRecord;
/// use megastream_flow::time::{TimeDelta, Timestamp};
/// use megastream_flowtree::FlowtreeConfig;
///
/// let mut store = DataStore::new(
///     "region-0",
///     StorageStrategy::RoundRobin { budget_bytes: 1 << 20 },
///     TimeDelta::from_secs(60),
/// );
/// let agg = store.install_aggregator(AggregatorSpec::Flowtree(FlowtreeConfig::default()));
/// let rec = FlowRecord::builder()
///     .proto(6)
///     .src("10.0.0.1".parse()?, 443)
///     .dst("1.1.1.1".parse()?, 80)
///     .packets(10)
///     .build();
/// store.ingest_flow(&"router-0".into(), &rec, Timestamp::ZERO);
/// let exported = store.rotate_epoch(Timestamp::from_secs(60));
/// assert_eq!(exported.len(), 1);
/// # let _ = agg;
/// # Ok::<(), megastream_flow::addr::ParseAddrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DataStore {
    name: String,
    epoch_len: TimeDelta,
    epoch_start: Timestamp,
    next_agg_id: usize,
    aggregators: Vec<(AggregatorId, AggregatorSpec, AggregatorInstance)>,
    /// Streams each aggregator subscribed to; empty = all streams of the
    /// matching type ("instances of computing primitives … have subscribed
    /// to the respective data streams").
    subscriptions: BTreeMap<AggregatorId, Vec<StreamId>>,
    /// Streams that contributed to the current epoch (for lineage).
    epoch_sources: Vec<StreamId>,
    summaries: SummaryStore,
    triggers: TriggerEngine,
    stats: StoreStats,
    metrics: StoreMetrics,
}

impl DataStore {
    /// Creates a data store named `name`, storing summaries under
    /// `strategy`, rotating epochs every `epoch_len`.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    pub fn new(name: impl Into<String>, strategy: StorageStrategy, epoch_len: TimeDelta) -> Self {
        assert!(!epoch_len.is_zero(), "epoch length must be non-zero");
        let name = name.into();
        DataStore {
            summaries: SummaryStore::new(strategy, &name),
            name,
            epoch_len,
            epoch_start: Timestamp::ZERO,
            next_agg_id: 0,
            aggregators: Vec::new(),
            subscriptions: BTreeMap::new(),
            epoch_sources: Vec::new(),
            triggers: TriggerEngine::new(),
            stats: StoreStats::default(),
            metrics: StoreMetrics::default(),
        }
    }

    /// Connects this store to a telemetry registry; its ingest, rotation,
    /// import, and footprint metrics are recorded under names labeled with
    /// the store's name. Passing [`Telemetry::disabled`] detaches again.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.metrics = StoreMetrics::for_store(tel, &self.name);
    }

    /// Builder-style [`DataStore::set_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.set_telemetry(tel);
        self
    }

    /// The store's name (its location in lineage records).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured epoch length.
    pub fn epoch_len(&self) -> TimeDelta {
        self.epoch_len
    }

    /// When the current epoch started.
    pub fn epoch_start(&self) -> Timestamp {
        self.epoch_start
    }

    /// Whether `now` has passed the end of the current epoch.
    pub fn epoch_due(&self, now: Timestamp) -> bool {
        now >= self.epoch_start + self.epoch_len
    }

    /// Ingest statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // aggregator management (driven by the manager, Fig. 3b)
    // ------------------------------------------------------------------

    /// Installs an aggregator; it initially subscribes to all streams of
    /// its input type.
    pub fn install_aggregator(&mut self, spec: AggregatorSpec) -> AggregatorId {
        let id = AggregatorId(self.next_agg_id);
        self.next_agg_id += 1;
        let instance = spec.build();
        self.aggregators.push((id, spec, instance));
        id
    }

    /// Removes an aggregator. Returns whether it existed.
    pub fn remove_aggregator(&mut self, id: AggregatorId) -> bool {
        let before = self.aggregators.len();
        self.aggregators.retain(|(aid, _, _)| *aid != id);
        self.subscriptions.remove(&id);
        before != self.aggregators.len()
    }

    /// Restricts an aggregator to the given stream (may be called multiple
    /// times to subscribe to several streams).
    ///
    /// # Panics
    ///
    /// Panics if the aggregator does not exist.
    pub fn subscribe(&mut self, id: AggregatorId, stream: StreamId) {
        assert!(
            self.aggregators.iter().any(|(aid, _, _)| *aid == id),
            "unknown aggregator {id}"
        );
        self.subscriptions.entry(id).or_default().push(stream);
    }

    /// Number of installed aggregators.
    pub fn aggregator_count(&self) -> usize {
        self.aggregators.len()
    }

    /// Access to a live aggregator (e.g. for direct queries, Fig. 5 ⑤).
    pub fn aggregator(&self, id: AggregatorId) -> Option<&AggregatorInstance> {
        self.aggregators
            .iter()
            .find(|(aid, _, _)| *aid == id)
            .map(|(_, _, inst)| inst)
    }

    /// Mutable access to a live aggregator (manager reconfiguration).
    pub fn aggregator_mut(&mut self, id: AggregatorId) -> Option<&mut AggregatorInstance> {
        self.aggregators
            .iter_mut()
            .find(|(aid, _, _)| *aid == id)
            .map(|(_, _, inst)| inst)
    }

    /// Ids of all installed aggregators.
    pub fn aggregator_ids(&self) -> Vec<AggregatorId> {
        self.aggregators.iter().map(|(id, _, _)| *id).collect()
    }

    /// Whether aggregator `id` takes input from `stream` under
    /// `subscriptions` (a free function of the map, so the ingest loops can
    /// read it while mutably borrowing the aggregators).
    fn is_subscribed(
        subscriptions: &BTreeMap<AggregatorId, Vec<StreamId>>,
        id: AggregatorId,
        stream: &StreamId,
    ) -> bool {
        match subscriptions.get(&id) {
            None => true,
            Some(streams) => streams.is_empty() || streams.contains(stream),
        }
    }

    // ------------------------------------------------------------------
    // data path (Fig. 3a)
    // ------------------------------------------------------------------

    /// Ingests one flow record from `stream`, feeding subscribed
    /// aggregators and evaluating triggers. Returns any trigger firings
    /// (to be delivered to the controller).
    pub fn ingest_flow(
        &mut self,
        stream: &StreamId,
        rec: &FlowRecord,
        now: Timestamp,
    ) -> Vec<TriggerEvent> {
        self.stats.flows += 1;
        self.stats.raw_bytes += FlowRecord::WIRE_BYTES as u64;
        self.metrics.flows.inc();
        self.metrics.raw_bytes.add(FlowRecord::WIRE_BYTES as u64);
        self.metrics.watermark.set(now.as_micros() as i64);
        self.note_source(stream);
        for (id, spec, inst) in &mut self.aggregators {
            if spec.consumes_flows() && Self::is_subscribed(&self.subscriptions, *id, stream) {
                inst.ingest_flow(rec, now);
            }
        }
        self.triggers.on_flow(rec, now)
    }

    /// Ingests one scalar reading from `stream`. Returns trigger firings.
    pub fn ingest_scalar(
        &mut self,
        stream: &StreamId,
        value: f64,
        now: Timestamp,
    ) -> Vec<TriggerEvent> {
        self.stats.scalars += 1;
        self.stats.raw_bytes += 16;
        self.metrics.scalars.inc();
        self.metrics.raw_bytes.add(16);
        self.metrics.watermark.set(now.as_micros() as i64);
        self.note_source(stream);
        for (id, spec, inst) in &mut self.aggregators {
            if !spec.consumes_flows() && Self::is_subscribed(&self.subscriptions, *id, stream) {
                inst.ingest_scalar(value, now);
            }
        }
        self.triggers.on_scalar(stream, value, now)
    }

    fn note_source(&mut self, stream: &StreamId) {
        if !self.epoch_sources.contains(stream) {
            self.epoch_sources.push(stream.clone());
        }
    }

    /// Closes the current epoch: snapshots every aggregator into the
    /// summary store and returns copies of the snapshots for export to
    /// parent stores (Fig. 5 ③). Aggregator state is reset.
    pub fn rotate_epoch(&mut self, now: Timestamp) -> Vec<StoredSummary> {
        let scope = self
            .metrics
            .tel
            .scope_with("datastore.epoch.rotate", &self.metrics.rotate_micros);
        self.metrics.last_rotation.set(now.as_micros() as i64);
        let window = TimeWindow::new(self.epoch_start, now.max(self.epoch_start));
        let mut exported = Vec::new();
        for (id, _, inst) in &mut self.aggregators {
            // An aggregator's lineage names the streams that actually fed
            // it: its explicit subscriptions, or every stream seen this
            // epoch if it subscribed to all.
            let sources: Vec<String> = match self.subscriptions.get(id) {
                Some(streams) if !streams.is_empty() => {
                    streams.iter().map(|s| s.as_str().to_owned()).collect()
                }
                _ => self
                    .epoch_sources
                    .iter()
                    .map(|s| s.as_str().to_owned())
                    .collect(),
            };
            let mut lineage = Lineage {
                sources,
                transforms: Vec::new(),
            };
            lineage.record("snapshot", &self.name, now);
            let summary = inst.snapshot(window);
            inst.reset();
            let stored =
                StoredSummary::new(format!("{}/{}", self.name, id), window, summary, lineage);
            self.stats.exported_bytes += stored.wire_size() as u64;
            exported.push(stored.clone());
            self.summaries.insert(stored, now);
        }
        self.epoch_sources.clear();
        self.epoch_start = now;
        self.stats.epochs += 1;
        self.metrics.epochs.inc();
        self.metrics
            .exported_bytes
            .add(exported.iter().map(|s| s.wire_size() as u64).sum());
        self.update_memory_gauges();
        scope.finish();
        exported
    }

    /// Imports a summary produced elsewhere (a child store's export or a
    /// replica; Fig. 5 ③/④).
    pub fn import_summary(&mut self, mut summary: StoredSummary, now: Timestamp) {
        summary.lineage.record("import", &self.name, now);
        self.metrics.imports.inc();
        self.summaries.insert(summary, now);
        self.update_memory_gauges();
    }

    // ------------------------------------------------------------------
    // crash recovery (driven by the durable cold tier's replay)
    // ------------------------------------------------------------------

    /// Re-applies one sealed epoch rotation during crash recovery: the
    /// summaries the original rotation exported are inserted back into the
    /// summary store (same order, so round-robin eviction replays
    /// identically) and the rotation bookkeeping — export accounting, epoch
    /// counter, epoch start — is repeated. The caller re-delivers the same
    /// summaries upward, exactly as the original rotation did.
    pub fn restore_rotation(&mut self, exported: &[StoredSummary], at: Timestamp) {
        for stored in exported {
            self.stats.exported_bytes += stored.wire_size() as u64;
            self.summaries.insert(stored.clone(), at);
        }
        self.epoch_start = at;
        self.stats.epochs += 1;
        self.update_memory_gauges();
    }

    /// Restores the cumulative ingest counters from a recovery snapshot.
    /// Absolute values: the raw records that produced them were summarized
    /// and discarded, so they cannot be re-counted — only restored.
    pub fn restore_ingest_stats(&mut self, flows: u64, scalars: u64, raw_bytes: u64) {
        self.stats.flows = flows;
        self.stats.scalars = scalars;
        self.stats.raw_bytes = raw_bytes;
    }

    // ------------------------------------------------------------------
    // queries (the Data API of Fig. 4)
    // ------------------------------------------------------------------

    /// The summary store (read access for analytics/FlowDB export).
    pub fn summaries(&self) -> &SummaryStore {
        &self.summaries
    }

    /// Estimated score of traffic matching `key` within `window`, summed
    /// over all stored flow summaries overlapping the window, plus the live
    /// aggregators if the window extends into the current epoch.
    pub fn flow_score(&self, key: &FlowKey, window: TimeWindow) -> Popularity {
        let mut total: Popularity = self
            .summaries
            .summaries_in(window)
            .filter_map(|s| s.summary.flow_score(key))
            .sum();
        if window.end > self.epoch_start {
            total += self.live_flow_score(key);
        }
        total
    }

    /// Score of traffic matching `key` in the current (uncommitted) epoch.
    pub fn live_flow_score(&self, key: &FlowKey) -> Popularity {
        self.aggregators
            .iter()
            .filter_map(|(_, _, inst)| match inst {
                AggregatorInstance::Flowtree(t) => Some(t.query(key)),
                AggregatorInstance::Exact(t) => Some(t.query(key)),
                _ => None,
            })
            .max()
            .unwrap_or(Popularity::ZERO)
    }

    // ------------------------------------------------------------------
    // triggers (installed by applications via the controller)
    // ------------------------------------------------------------------

    /// Installs a trigger.
    pub fn install_trigger(
        &mut self,
        installed_by: impl Into<String>,
        condition: TriggerCondition,
        cooldown: TimeDelta,
    ) -> TriggerId {
        self.triggers.install(installed_by, condition, cooldown)
    }

    /// Removes a trigger.
    pub fn remove_trigger(&mut self, id: TriggerId) -> bool {
        self.triggers.remove(id)
    }

    /// The trigger engine (read access).
    pub fn triggers(&self) -> &TriggerEngine {
        &self.triggers
    }

    // ------------------------------------------------------------------
    // resource management (driven by the manager)
    // ------------------------------------------------------------------

    /// Total live-aggregator footprint in bytes.
    pub fn live_footprint(&self) -> usize {
        self.aggregators
            .iter()
            .map(|(_, _, inst)| inst.footprint_bytes())
            .sum()
    }

    /// Total footprint including stored summaries.
    pub fn footprint_bytes(&self) -> usize {
        self.live_footprint() + self.summaries.total_bytes()
    }

    /// Deterministic deep memory size of the whole store, recomputed
    /// independently from scratch: every live aggregator's `deep_bytes`
    /// plus every stored summary's. The accounting property tests compare
    /// this against [`DataStore::accounted_bytes`].
    pub fn deep_bytes(&self) -> usize {
        let live: usize = self
            .aggregators
            .iter()
            .map(|(_, _, inst)| inst.deep_bytes())
            .sum();
        live + self.summaries.deep_bytes()
    }

    /// The incrementally maintained deep-byte account carried by the
    /// `store.memory.bytes` gauge: live aggregators (O(#aggregators), each
    /// a pure function of its element count) plus the summary store's
    /// delta-maintained total.
    pub fn accounted_bytes(&self) -> usize {
        let live: usize = self
            .aggregators
            .iter()
            .map(|(_, _, inst)| inst.deep_bytes())
            .sum();
        live + self.summaries.accounted_deep_bytes()
    }

    /// Refreshes the footprint/memory gauges plus the flowtree arena gauges
    /// (stored arena nodes and bytes).
    fn update_memory_gauges(&self) {
        self.metrics.footprint.set(self.footprint_bytes() as i64);
        self.metrics.memory.set(self.accounted_bytes() as i64);
        let (nodes, bytes) = self.summaries.arena_stats();
        self.metrics.arena_nodes.set(nodes as i64);
        self.metrics.arena_bytes.set(bytes as i64);
    }

    /// Distributes `budget` equally across aggregators and lets each adapt
    /// (property P4 driven by the store).
    pub fn adapt_aggregators(&mut self, budget: usize, ingest_rate: f64) {
        if self.aggregators.is_empty() {
            return;
        }
        let per = budget / self.aggregators.len();
        let feedback = AdaptationFeedback {
            ingest_rate,
            footprint_budget: per,
            query_granularity: None,
        };
        for (_, _, inst) in &mut self.aggregators {
            inst.adapt(&feedback);
        }
        self.metrics.memory.set(self.accounted_bytes() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_flow::key::FeatureSet;
    use megastream_flow::score::ScoreKind;
    use megastream_flowtree::FlowtreeConfig;

    fn store() -> DataStore {
        DataStore::new(
            "test-store",
            StorageStrategy::RoundRobin {
                budget_bytes: 1 << 20,
            },
            TimeDelta::from_secs(60),
        )
    }

    fn rec(src: &str, packets: u64) -> FlowRecord {
        FlowRecord::builder()
            .proto(6)
            .src(src.parse().unwrap(), 5555)
            .dst("1.1.1.1".parse().unwrap(), 443)
            .packets(packets)
            .build()
    }

    #[test]
    fn install_subscribe_ingest() {
        let mut s = store();
        let ft = s.install_aggregator(AggregatorSpec::Flowtree(FlowtreeConfig::default()));
        s.subscribe(ft, "router-0".into());
        // Subscribed stream reaches the aggregator; others do not.
        s.ingest_flow(&"router-0".into(), &rec("10.0.0.1", 5), Timestamp::ZERO);
        s.ingest_flow(&"router-1".into(), &rec("10.0.0.2", 7), Timestamp::ZERO);
        let key = FlowKey::root();
        assert_eq!(s.live_flow_score(&key).value(), 5);
        assert_eq!(s.stats().flows, 2);
    }

    #[test]
    fn unsubscribed_aggregator_gets_everything() {
        let mut s = store();
        s.install_aggregator(AggregatorSpec::Flowtree(FlowtreeConfig::default()));
        s.ingest_flow(&"a".into(), &rec("10.0.0.1", 5), Timestamp::ZERO);
        s.ingest_flow(&"b".into(), &rec("10.0.0.2", 7), Timestamp::ZERO);
        assert_eq!(s.live_flow_score(&FlowKey::root()).value(), 12);
    }

    #[test]
    fn rotate_epoch_snapshots_and_resets() {
        let mut s = store();
        s.install_aggregator(AggregatorSpec::Flowtree(FlowtreeConfig::default()));
        s.install_aggregator(AggregatorSpec::ExactFlows {
            features: FeatureSet::FIVE_TUPLE,
            score_kind: ScoreKind::Packets,
        });
        s.ingest_flow(&"r0".into(), &rec("10.0.0.1", 5), Timestamp::from_secs(10));
        let exported = s.rotate_epoch(Timestamp::from_secs(60));
        assert_eq!(exported.len(), 2);
        assert_eq!(s.summaries().len(), 2);
        // Live state reset.
        assert_eq!(s.live_flow_score(&FlowKey::root()), Popularity::ZERO);
        // Summary window covers the epoch.
        assert_eq!(exported[0].window.start, Timestamp::ZERO);
        assert_eq!(exported[0].window.end, Timestamp::from_secs(60));
        // Lineage carries the source stream and the snapshot transform.
        assert_eq!(exported[0].lineage.sources, vec!["r0"]);
        assert_eq!(exported[0].lineage.transforms[0].op, "snapshot");
        assert_eq!(s.stats().epochs, 1);
        assert!(s.stats().exported_bytes > 0);
    }

    #[test]
    fn flow_score_spans_stored_and_live() {
        let mut s = store();
        s.install_aggregator(AggregatorSpec::Flowtree(FlowtreeConfig::default()));
        s.ingest_flow(&"r0".into(), &rec("10.0.0.1", 5), Timestamp::from_secs(10));
        s.rotate_epoch(Timestamp::from_secs(60));
        s.ingest_flow(&"r0".into(), &rec("10.0.0.1", 3), Timestamp::from_secs(70));
        let all_time = TimeWindow::starting_at(Timestamp::ZERO, TimeDelta::from_secs(120));
        assert_eq!(s.flow_score(&FlowKey::root(), all_time).value(), 8);
        // Query restricted to the first epoch only sees the stored 5.
        let first = TimeWindow::starting_at(Timestamp::ZERO, TimeDelta::from_secs(60));
        assert_eq!(s.flow_score(&FlowKey::root(), first).value(), 5);
    }

    #[test]
    fn import_records_lineage() {
        let mut parent = store();
        let mut child = store();
        child.install_aggregator(AggregatorSpec::Flowtree(FlowtreeConfig::default()));
        child.ingest_flow(&"r0".into(), &rec("10.0.0.1", 5), Timestamp::from_secs(1));
        let exported = child.rotate_epoch(Timestamp::from_secs(60));
        parent.import_summary(exported[0].clone(), Timestamp::from_secs(61));
        assert_eq!(parent.summaries().len(), 1);
        let imported = parent.summaries().iter().next().unwrap();
        assert_eq!(imported.lineage.transforms.last().unwrap().op, "import");
    }

    #[test]
    fn epoch_due() {
        let mut s = store();
        assert!(!s.epoch_due(Timestamp::from_secs(30)));
        assert!(s.epoch_due(Timestamp::from_secs(60)));
        s.rotate_epoch(Timestamp::from_secs(60));
        assert!(!s.epoch_due(Timestamp::from_secs(90)));
    }

    #[test]
    fn trigger_path_on_ingest() {
        let mut s = store();
        s.install_trigger(
            "app",
            TriggerCondition::ScalarAbove {
                stream: "m0/temp".into(),
                threshold: 80.0,
            },
            TimeDelta::ZERO,
        );
        let events = s.ingest_scalar(&"m0/temp".into(), 99.0, Timestamp::ZERO);
        assert_eq!(events.len(), 1);
        assert_eq!(s.triggers().fired(), 1);
    }

    #[test]
    fn adapt_shrinks_oversized_aggregators() {
        let mut s = store();
        let id = s.install_aggregator(AggregatorSpec::Flowtree(
            FlowtreeConfig::default().with_capacity(4096),
        ));
        for i in 0..500u32 {
            s.ingest_flow(
                &"r0".into(),
                &rec(&format!("10.{}.{}.1", i % 20, i % 100), 1),
                Timestamp::ZERO,
            );
        }
        let before = s.live_footprint();
        s.adapt_aggregators(before / 50, 500.0);
        assert!(s.live_footprint() < before);
        assert!(s.aggregator(id).is_some());
    }

    #[test]
    fn remove_aggregator() {
        let mut s = store();
        let id = s.install_aggregator(AggregatorSpec::Flowtree(FlowtreeConfig::default()));
        assert_eq!(s.aggregator_count(), 1);
        assert!(s.remove_aggregator(id));
        assert!(!s.remove_aggregator(id));
        assert_eq!(s.aggregator_count(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown aggregator")]
    fn subscribe_unknown_panics() {
        let mut s = store();
        s.subscribe(AggregatorId(7), "x".into());
    }
}
