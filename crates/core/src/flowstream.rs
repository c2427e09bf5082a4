//! **Flowstream** — the complete system of paper Fig. 5.
//!
//! > "The router sends its raw flow data to a data store ①. The data store
//! > uses Flowtree as its aggregator to compute summaries ② and potentially
//! > exports these to other data stores ③. The data store can either
//! > further aggregate them or use them ④ to answer user queries via the
//! > FlowQL API ⑤."
//!
//! [`Flowstream`] wires routers (flow sources) to per-region data stores
//! running Flowtree aggregators over an [`IspTopology`]. The region stores
//! are the children of a network-wide (NOC) store in a [`StoreHierarchy`],
//! whose pump exports each epoch's summaries up to the NOC. An observer of
//! that pump indexes what reaches the NOC in a [`FlowDb`] and journals
//! it. Each NOC epoch is indexed as the aggregate of the region summaries
//! that reached the NOC during it, and FlowQL queries are planned over
//! that coverage so every region summary counts once.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use megastream_datastore::store::{DataStore, StreamId};
use megastream_datastore::summary::{StoredSummary, Summary};
use megastream_datastore::trigger::TriggerEvent;
use megastream_datastore::{AggregatorSpec, StorageStrategy};
use megastream_flow::mask::GeneralizationSchema;
use megastream_flow::record::FlowRecord;
use megastream_flow::score::ScoreKind;
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_flowdb::{EntryId, FlowDb, Parallelism, QueryResult};
use megastream_flowtree::FlowtreeConfig;
use megastream_netsim::hierarchy::IspTopology;
use megastream_netsim::topology::{Network, NodeId};
use megastream_primitives::SpaceSaving;
use megastream_storage::{
    ColdTier, EpochBundle, EpochMeta, Frame, RecoveryReport, RegionStatsSnapshot, SegmentError,
    SyncPolicy, WalRecord,
};
use megastream_telemetry::{
    labeled, Counter, Gauge, Histogram, SamplePolicy, Telemetry, LATENCY_MICROS_BOUNDS,
};

use crate::hierarchy::{
    EdgeOutcome, ExportStats, HierarchyId, PumpEvent, PumpPolicy, StoreHierarchy,
};

/// What a fan-out query does when some locations are unreachable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Error with [`FlowstreamError::Unreachable`] if any location the
    /// query needs cannot be reached — never return partial data.
    #[default]
    FailFast,
    /// Answer from the reachable locations and annotate the result's
    /// [`Completeness`](megastream_flowdb::Completeness) — availability
    /// over exactness.
    Partial,
}

/// Configuration of a [`Flowstream`] deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowstreamConfig {
    /// Epoch length of the region data stores.
    pub epoch_len: TimeDelta,
    /// Node budget of each region Flowtree.
    pub tree_capacity: usize,
    /// Popularity measure.
    pub score_kind: ScoreKind,
    /// The generalization schema of all trees — pick it for the task at
    /// hand (property P5): the balanced default alternates source and
    /// destination;
    /// [`GeneralizationSchema::dst_preserving`] keeps victims/services
    /// specific under compression,
    /// [`GeneralizationSchema::src_preserving`] keeps customers specific.
    pub schema: GeneralizationSchema,
    /// Storage strategy of region stores.
    pub storage: StorageStrategy,
    /// What queries do when locations are unreachable.
    pub degradation: DegradationPolicy,
    /// Retries, backoff, jitter seed and spill bound of the region → NOC
    /// exports.
    pub export: PumpPolicy,
    /// Worker threads of the data plane: region epoch rotations and
    /// FlowDB's per-location query fan-out. Every setting produces
    /// bit-identical results ([`Parallelism::Sequential`] is the oracle
    /// the equivalence tests compare against); only wall-clock differs.
    pub parallelism: Parallelism,
}

impl Default for FlowstreamConfig {
    fn default() -> Self {
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(60),
            tree_capacity: 4096,
            score_kind: ScoreKind::Packets,
            schema: GeneralizationSchema::network_default(),
            storage: StorageStrategy::RoundRobinHierarchical {
                budget_bytes: 4 << 20,
                fanout: 2,
            },
            degradation: DegradationPolicy::default(),
            export: PumpPolicy::default(),
            parallelism: Parallelism::default(),
        }
    }
}

/// Errors a FlowQL round-trip can produce.
#[derive(Debug)]
pub enum FlowstreamError {
    /// The query failed to parse.
    Parse(megastream_flowdb::ParseError),
    /// The query failed to execute.
    Query(megastream_flowdb::QueryError),
    /// The query needs locations that are currently unreachable and the
    /// deployment runs [`DegradationPolicy::FailFast`].
    Unreachable {
        /// The unreachable locations the query's plan needed.
        locations: Vec<String>,
    },
}

impl std::fmt::Display for FlowstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowstreamError::Parse(e) => write!(f, "flowql parse error: {e}"),
            FlowstreamError::Query(e) => write!(f, "flowql execution error: {e}"),
            FlowstreamError::Unreachable { locations } => {
                write!(f, "unreachable locations: {}", locations.join(", "))
            }
        }
    }
}

impl std::error::Error for FlowstreamError {}

/// The rendered span tree of an `EXPLAIN ANALYZE` run — see
/// [`Flowstream::explain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// Human-readable span tree of the query's execution stages.
    pub tree: String,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.tree)
    }
}

/// Aggregated operating statistics of a [`Flowstream`] deployment, summed
/// over its region stores, the NOC store, and the FlowDB index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowstreamStats {
    /// Flow records ingested across all regions.
    pub flows: u64,
    /// Raw bytes received from routers (full-forwarding cost).
    pub raw_bytes: u64,
    /// Epoch rotations across region stores.
    pub region_epochs: u64,
    /// Epoch rotations of the NOC store.
    pub noc_epochs: u64,
    /// Summary bytes exported by region stores.
    pub exported_bytes: u64,
    /// Summaries indexed in FlowDB.
    pub flowdb_summaries: usize,
    /// Trigger firings observed during ingest.
    pub trigger_events: usize,
    /// Bytes moved over the simulated network (raw + summary transfers).
    pub network_bytes: u64,
    /// Summary-export re-attempts after transient transfer failures.
    pub export_retries: u64,
    /// Summaries parked in a region spill buffer (uplink down).
    pub spilled_summaries: u64,
    /// Spilled summaries delivered after the uplink recovered.
    pub flushed_summaries: u64,
    /// Spilled summaries dropped to spill-buffer overflow.
    pub dropped_summaries: u64,
    /// Bytes those drops discarded.
    pub dropped_bytes: u64,
    /// Raw router→region accounting batches deferred to a later epoch
    /// because the link was down (no data loss — records are already in
    /// the region store).
    pub raw_deferrals: u64,
    /// Queries answered partially (completeness < 1).
    pub partial_queries: u64,
}

/// Cached telemetry handles for the Flowstream ingest path (per-router
/// counters, the ingest scope's histogram, and the watermark gauge). The
/// export edges record under `hierarchy.*`.
#[derive(Debug, Clone, Default)]
struct StreamMetrics {
    /// `router_records[region][router]` — empty when telemetry is disabled.
    router_records: Vec<Vec<Counter>>,
    /// The `flowstream.ingest` scope's `flowstream.ingest.micros`.
    ingest_micros: Histogram,
    /// Newest ingested simulated timestamp (`flowstream.watermark_micros`).
    watermark: Gauge,
}

/// Capacity of the bounded heavy-query log: only the heaviest ~64 distinct
/// FlowQL texts are tracked exactly; lighter ones may be evicted with the
/// usual SpaceSaving overestimation bound.
pub const HEAVY_QUERY_LOG_CAPACITY: usize = 64;

/// The Fig. 5 system: routers → region data stores (Flowtree) → network
/// store + FlowDB → FlowQL.
#[derive(Debug)]
pub struct Flowstream {
    tel: Telemetry,
    /// Bounded top-K heavy-query log: FlowQL text → accumulated
    /// deterministic work units
    /// ([`QueryCost::work_units`](megastream_flowdb::QueryCost::work_units)).
    /// A mutex because queries run through `&self`, possibly from several
    /// threads.
    heavy_queries: Mutex<SpaceSaving<String>>,
    metrics: StreamMetrics,
    /// `routers[region][router]`: the routers' network nodes.
    routers: Vec<Vec<NodeId>>,
    /// The cloud node queries fan out from.
    cloud: NodeId,
    config: FlowstreamConfig,
    /// The NOC store ([`NOC`]) over the region stores ([`region_id`]), on
    /// the topology's network. Its pump retries, parks and flushes the
    /// region → NOC exports.
    hierarchy: StoreHierarchy,
    flowdb: FlowDb,
    /// The region entries that reached the NOC since its previous
    /// rotation: the coverage of the next NOC entry.
    noc_pending: Vec<EntryId>,
    /// Raw bytes received per (region, router) in the current epoch —
    /// transferred in one batch at rotation for link accounting.
    raw_pending: Vec<Vec<u64>>,
    /// `streams[region][router]`: each router's export stream id
    /// (`router-<region>-<router>`), built once so ingest never formats
    /// one.
    streams: Vec<Vec<StreamId>>,
    /// Running totals of every pump; the fault counters among them are
    /// copied into [`FlowstreamStats`].
    exports: ExportStats,
    /// Raw router → region accounting batches deferred on a down link.
    raw_deferrals: u64,
    /// Queries answered partially. Atomic because queries run through
    /// `&self`, possibly from several threads at once.
    partial_queries: AtomicU64,
    epoch_end: Timestamp,
    now: Timestamp,
    rr: usize,
    trigger_log: Vec<TriggerEvent>,
    /// Optional durable cold tier: ingests are WAL-logged, every rotation
    /// seals one checksummed epoch segment, and
    /// [`Flowstream::recover`] rebuilds the deployment from both after a
    /// crash. `None` keeps the system purely in-memory.
    cold: Option<ColdTier>,
}

/// The NOC store: the hierarchy's root, added first.
const NOC: HierarchyId = HierarchyId(0);

/// Region `g`'s store: the NOC's child added `g`-th.
fn region_id(g: usize) -> HierarchyId {
    HierarchyId(g + 1)
}

impl Flowstream {
    /// Builds a Flowstream over `regions` regions of `routers_per_region`
    /// routers.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(regions: usize, routers_per_region: usize, config: FlowstreamConfig) -> Self {
        let IspTopology {
            network,
            routers,
            regions: region_nodes,
            noc,
            cloud,
        } = IspTopology::build(regions, routers_per_region);
        let tree_config = FlowtreeConfig::default()
            .with_capacity(config.tree_capacity)
            .with_score_kind(config.score_kind)
            .with_schema(config.schema.clone());
        let mut hierarchy = StoreHierarchy::new(network);
        hierarchy.set_pump_policy(config.export);
        hierarchy.set_parallelism(config.parallelism);
        // The network-wide store aggregates over a 4× longer horizon.
        let mut noc_store = DataStore::new(
            "noc",
            config.storage,
            TimeDelta::from_micros(config.epoch_len.as_micros() * 4),
        );
        noc_store.install_aggregator(AggregatorSpec::Flowtree(tree_config.clone()));
        hierarchy.add_root(noc_store, noc);
        for (g, &node) in region_nodes.iter().enumerate() {
            let mut store = DataStore::new(format!("region-{g}"), config.storage, config.epoch_len);
            store.install_aggregator(AggregatorSpec::Flowtree(tree_config.clone()));
            hierarchy.add_child(store, node, NOC);
        }
        let epoch_end = Timestamp::ZERO + config.epoch_len;
        let par = config.parallelism;
        Flowstream {
            tel: Telemetry::disabled(),
            heavy_queries: Mutex::new(SpaceSaving::new(HEAVY_QUERY_LOG_CAPACITY)),
            metrics: StreamMetrics::default(),
            raw_pending: vec![vec![0; routers_per_region]; regions],
            streams: (0..regions)
                .map(|g| {
                    (0..routers_per_region)
                        .map(|r| StreamId::new(format!("router-{g}-{r}")))
                        .collect()
                })
                .collect(),
            exports: ExportStats::default(),
            raw_deferrals: 0,
            partial_queries: AtomicU64::new(0),
            routers,
            cloud,
            config,
            hierarchy,
            flowdb: FlowDb::new().with_parallelism(par),
            noc_pending: Vec::new(),
            epoch_end,
            now: Timestamp::ZERO,
            rr: 0,
            trigger_log: Vec::new(),
            cold: None,
        }
    }

    /// Attaches a durable cold tier: from here on every ingested record is
    /// WAL-logged before it is applied and every rotation seals one
    /// checksummed epoch segment in the tier's directory. Attach before
    /// the first ingest (or right after [`Flowstream::recover`]) so the
    /// journal covers the deployment's whole history.
    ///
    /// Storage failures never disturb the data plane: the tier is marked
    /// dead on the first real I/O error and the stream degrades to
    /// in-memory operation ([`Flowstream::cold_tier_dead`] turns true).
    pub fn attach_cold_tier(&mut self, tier: ColdTier) {
        self.cold = Some(tier);
    }

    /// The attached cold tier, if any.
    pub fn cold_tier(&self) -> Option<&ColdTier> {
        self.cold.as_ref()
    }

    /// Mutable access to the attached cold tier — e.g. to install a
    /// [`FaultSpec`](megastream_storage::FaultSpec) in crash tests.
    pub fn cold_tier_mut(&mut self) -> Option<&mut ColdTier> {
        self.cold.as_mut()
    }

    /// Detaches and returns the cold tier; the stream continues in-memory.
    pub fn detach_cold_tier(&mut self) -> Option<ColdTier> {
        self.cold.take()
    }

    /// Whether an attached cold tier has died (injected crash point or
    /// real storage failure). A durability harness polls this after each
    /// ingest to decide when to kill and recover the deployment.
    pub fn cold_tier_dead(&self) -> bool {
        self.cold.as_ref().is_some_and(ColdTier::is_dead)
    }

    /// Sets how many worker threads the data plane uses — region epoch
    /// rotations in the pump and FlowDB's per-location query fan-out.
    /// Every setting produces bit-identical results; only wall-clock time
    /// differs. Can be changed at any point in a deployment's life.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.config.parallelism = par;
        self.hierarchy.set_parallelism(par);
        self.flowdb.set_parallelism(par);
    }

    /// The data-plane parallelism in effect.
    pub fn parallelism(&self) -> Parallelism {
        self.config.parallelism
    }

    /// Connects the whole deployment to a telemetry handle: the store
    /// hierarchy (every region store, the NOC store and the exports
    /// between them), FlowDB, per-router ingest counters, and the
    /// `flowstream.{ingest,rotate,query}` scopes — with the handle's trace
    /// sink, every FlowQL query and every pump is a trace; with its profile
    /// sink, ingest, rotation (the pump under it) and queries are call
    /// paths. Passing [`Telemetry::disabled`] detaches everything again.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.hierarchy.set_telemetry(tel);
        self.flowdb.set_telemetry(tel);
        // Registered up front so the ops plane samples them from its
        // first frame.
        tel.histogram("flowstream.query.micros", LATENCY_MICROS_BOUNDS);
        tel.counter("flowstream.query.total");
        tel.counter("flowstream.query.errors_total");
        tel.histogram("flowstream.rotate.micros", LATENCY_MICROS_BOUNDS);
        self.metrics = if tel.is_enabled() {
            StreamMetrics {
                router_records: (0..self.regions())
                    .map(|g| {
                        (0..self.raw_pending[g].len())
                            .map(|r| {
                                tel.counter(&labeled(
                                    "flowstream.ingest.records_total",
                                    "router",
                                    &format!("{g}-{r}"),
                                ))
                            })
                            .collect()
                    })
                    .collect(),
                ingest_micros: tel.histogram("flowstream.ingest.micros", LATENCY_MICROS_BOUNDS),
                watermark: tel.gauge("flowstream.watermark_micros"),
            }
        } else {
            StreamMetrics::default()
        };
    }

    /// Builder-style [`Flowstream::set_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.set_telemetry(tel);
        self
    }

    /// The top `k` heaviest queries by accumulated deterministic work
    /// units — FlowQL text with total
    /// [`work_units`](megastream_flowdb::QueryCost::work_units), heaviest
    /// first, ties broken by query text. The log is bounded
    /// ([SpaceSaving], capacity [`HEAVY_QUERY_LOG_CAPACITY`]), so
    /// long-running deployments keep only the heavy tail.
    pub fn heavy_queries(&self, k: usize) -> Vec<(String, u64)> {
        let log = match self.heavy_queries.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        log.top_k(k)
            .into_iter()
            .map(|(q, c)| (q, c.count))
            .collect()
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.routers.len()
    }

    /// Number of routers per region.
    pub fn routers_per_region(&self) -> usize {
        self.routers[0].len()
    }

    /// Ingests one flow record observed at `router` in `region` (①).
    /// Records must arrive in non-decreasing time order.
    ///
    /// With a cold tier attached, the record is WAL-logged *before* it is
    /// applied: a record is either durable and applied, or neither. When
    /// the WAL write fails the tier is marked dead and the record is
    /// dropped un-applied — after [`Flowstream::recover`], the client
    /// re-sends from exactly that record.
    ///
    /// # Panics
    ///
    /// Panics if `region`/`router` are out of range.
    pub fn ingest(&mut self, region: usize, router: usize, rec: &FlowRecord) {
        assert!(region < self.regions(), "region {region} out of range");
        assert!(
            router < self.routers_per_region(),
            "router {router} out of range"
        );
        while rec.ts >= self.epoch_end {
            let at = self.epoch_end;
            self.rotate(at);
        }
        if cold_active(&self.cold) {
            let wrec = WalRecord {
                rr: self.rr as u64,
                region: region as u32,
                router: router as u32,
                record: *rec,
            };
            let mut logged = false;
            cold_op(&mut self.cold, |t| {
                t.wal_append(&wrec)?;
                logged = true;
                Ok(())
            });
            if !logged {
                // WAL'd ⇔ applied: an un-logged record is never applied,
                // so recovery converges with a client that re-sends it.
                return;
            }
        }
        self.apply_ingest(region, router, rec);
    }

    /// The in-memory half of [`Flowstream::ingest`]: applies one record
    /// whose timestamp is within the current epoch. WAL replay calls this
    /// directly — the replayed record is already in the journal.
    fn apply_ingest(&mut self, region: usize, router: usize, rec: &FlowRecord) {
        // Opened after any rotations so `flowstream.rotate` stays a root
        // scope of its own rather than nesting under every ingest.
        let _scope = self
            .tel
            .scope_with("flowstream.ingest", &self.metrics.ingest_micros);
        self.now = self.now.max(rec.ts);
        self.metrics.watermark.set(self.now.as_micros() as i64);
        if let Some(counter) = self
            .metrics
            .router_records
            .get(region)
            .and_then(|v| v.get(router))
        {
            counter.inc();
        }
        self.raw_pending[region][router] += FlowRecord::WIRE_BYTES as u64;
        let events = self.hierarchy.ingest_flow(
            region_id(region),
            &self.streams[region][router],
            rec,
            rec.ts,
        );
        self.trigger_log.extend(events);
    }

    /// Ingests a record, assigning it to a router round-robin — convenient
    /// when replaying a single generated trace across the deployment.
    pub fn ingest_round_robin(&mut self, rec: &FlowRecord) {
        let routers = self.routers_per_region();
        let slot = self.rr % (self.regions() * routers);
        self.rr += 1;
        self.ingest(slot / routers, slot % routers, rec);
    }

    /// Closes the current epoch at `at`: flushes raw-transfer accounting,
    /// then one pump of the store hierarchy rotates the region stores (②),
    /// exports their summaries to the NOC store (③) and rotates the NOC
    /// when due. The pump's observer indexes what reaches the NOC in
    /// FlowDB (④) and journals every export, park and flush.
    ///
    /// Fault handling: a down router→region link defers the batch's byte
    /// accounting to the next rotation (records are already in the region
    /// store, so nothing is lost); a failed region→NOC export is retried,
    /// parked and later flushed by the hierarchy (see
    /// [`StoreHierarchy::pump`]), and indexed in FlowDB only once it
    /// reaches the NOC.
    ///
    /// # Panics
    ///
    /// Panics on a fatal (non-transient) transfer error from a router to
    /// its region store, or on a [`PumpError`](crate::PumpError) from a
    /// region store to the NOC. [`Flowstream::new`] links every such pair,
    /// so neither can occur.
    fn rotate(&mut self, at: Timestamp) {
        let scope = self.tel.scope("flowstream.rotate");
        // Open this epoch's segment before any frame can be produced.
        cold_op(&mut self.cold, |t| t.begin_epoch(at));
        // ① account the raw router → region-store transfers of this epoch.
        for (g, routers) in self.routers.iter().enumerate() {
            let to = self.hierarchy.net_node(region_id(g));
            for (r, &from) in routers.iter().enumerate() {
                let pending = self.raw_pending[g][r];
                if pending == 0 {
                    continue;
                }
                match self.hierarchy.network_mut().transfer(from, to, pending, at) {
                    Ok(_) => self.raw_pending[g][r] = 0,
                    Err(e) if e.is_transient() => {
                        // Defer: the batch rides along at the next rotate.
                        self.raw_deferrals += 1;
                        self.tel.counter("flowstream.raw.deferred_total").inc();
                    }
                    Err(e) => panic!("router is connected to its region: {e}"),
                }
            }
        }
        // ②–④ Rotation happens exactly at each region's epoch end, so the
        // pump's `epoch_due` filter picks every region.
        debug_assert!((0..self.regions()).all(|g| self.region_store(g).epoch_due(at)));
        let (flowdb, pending, cold) = (&mut self.flowdb, &mut self.noc_pending, &mut self.cold);
        let stats = self
            .hierarchy
            .pump_with(at, &mut |event| observe(flowdb, pending, cold, event))
            .unwrap_or_else(|e| panic!("regions are connected to the noc: {e}"));
        self.exports += stats;
        if cold_active(&self.cold) {
            // The Meta frame is written last: replay reruns the epoch's
            // deliveries/parks and then snaps counters and cursors to the
            // authoritative end-of-epoch values. Sealing renames the
            // segment into place atomically; only then is the WAL — whose
            // records this epoch just made redundant — reset.
            let meta = Frame::Meta(self.snapshot_meta());
            cold_op(&mut self.cold, |t| t.append_frame(&meta));
            cold_op(&mut self.cold, |t| t.seal_epoch());
            cold_op(&mut self.cold, |t| t.wal_reset());
        }
        self.epoch_end = at + self.config.epoch_len;
        scope.finish();
    }

    /// End-of-epoch snapshot journaled as the sealing [`Frame::Meta`]:
    /// everything recovery cannot re-derive by replaying the epoch's
    /// frames — watermark, round-robin cursor, fault counters, deferred
    /// raw-transfer accounting, and per-region ingest statistics.
    fn snapshot_meta(&self) -> EpochMeta {
        EpochMeta {
            now: self.now,
            rr: self.rr as u64,
            export_retries: self.exports.retries,
            spilled: self.exports.spilled,
            flushed: self.exports.flushed,
            dropped: self.exports.dropped,
            dropped_bytes: self.exports.dropped_bytes,
            raw_deferrals: self.raw_deferrals,
            raw_pending: self.raw_pending.clone(),
            region_stats: (0..self.regions())
                .map(|g| {
                    let s = self.region_store(g).stats();
                    RegionStatsSnapshot {
                        flows: s.flows,
                        scalars: s.scalars,
                        raw_bytes: s.raw_bytes,
                    }
                })
                .collect(),
        }
    }

    /// Flushes the current (partial) epoch so all ingested data is
    /// queryable.
    pub fn finish(&mut self) {
        let at = self.epoch_end.max(self.now);
        self.rotate(at);
    }

    /// Rebuilds a deployment from a cold tier's on-disk state after a
    /// crash: sealed epoch segments replay first (rebuilding region
    /// summary stores, the NOC store, FlowDB, and spill buffers), then the
    /// WAL replays the current epoch's ingests. The recovered stream
    /// converges bit-identically with a never-crashed run on query
    /// results, accounted bytes, live scores, and ingest statistics —
    /// telemetry counters and simulated-network byte meters are
    /// deliberately *not* restored (they describe the process, not the
    /// data).
    ///
    /// Torn tails are truncated and bit-flipped frames quarantined during
    /// the underlying [`ColdTier::open`]; the returned
    /// [`RecoveryReport`] counts both. A record whose WAL append failed at
    /// crash time was never applied, so the client re-sends from exactly
    /// the first unacknowledged record.
    ///
    /// # Errors
    ///
    /// Returns [`SegmentError`] when the store is unreadable or an epoch
    /// segment is missing from the sequence — corruption *within* frames
    /// is repaired, not fatal.
    pub fn recover(
        regions: usize,
        routers_per_region: usize,
        config: FlowstreamConfig,
        dir: &Path,
        sync: SyncPolicy,
        tel: &Telemetry,
    ) -> Result<(Self, RecoveryReport), SegmentError> {
        let (tier, report) = ColdTier::open(dir, sync, tel.clone())?;
        let mut fs = Flowstream::new(regions, routers_per_region, config);
        fs.set_telemetry(tel);
        for bundle in &report.bundles {
            fs.replay_bundle(bundle);
        }
        // Attach only now: sealed-epoch replay must never write frames.
        fs.cold = Some(tier);
        let replayed = tel.counter("storage.wal.replayed_total");
        for rec in &report.wal_records {
            fs.replay_wal_record(rec);
            replayed.inc();
        }
        Ok((fs, report))
    }

    /// Replays one sealed epoch. Every summary a region exported this
    /// epoch — delivered (`Exported`) or parked — also entered its summary
    /// store at rotation, so those rebuild the rotation first; then the
    /// frames rerun the epoch's deliveries and parks in their original
    /// order through [`StoreHierarchy::replay`], indexing deliveries as the
    /// live pump's observer did; the closing `Meta` frame snaps counters
    /// and cursors to their authoritative end-of-epoch values.
    fn replay_bundle(&mut self, bundle: &EpochBundle) {
        let at = bundle.at;
        let regions = self.regions();
        let mut rotated: Vec<Vec<StoredSummary>> = vec![Vec::new(); regions];
        for frame in &bundle.frames {
            if let Frame::Exported { region, summary } | Frame::Parked { region, summary } = frame {
                if let Some(row) = rotated.get_mut(*region as usize) {
                    row.push(summary.clone());
                }
            }
        }
        // Every region rotated this epoch (possibly exporting nothing) —
        // restore unconditionally so epoch starts and counts line up.
        for (g, summaries) in rotated.iter().enumerate() {
            self.hierarchy
                .store_mut(region_id(g))
                .restore_rotation(summaries, at);
        }
        for frame in &bundle.frames {
            let (outcome, region, summary) = match frame {
                Frame::Exported { region, summary } => (EdgeOutcome::Exported, region, summary),
                Frame::Parked { region, summary } => (EdgeOutcome::Parked, region, summary),
                Frame::Flushed { region, summary } => (EdgeOutcome::Flushed, region, summary),
                Frame::Meta(meta) => {
                    self.apply_meta(meta);
                    continue;
                }
            };
            let g = *region as usize;
            if g < regions {
                let event = PumpEvent::Edge(outcome, region_id(g), summary);
                // No tier is attached yet, so this indexes without journaling.
                observe(
                    &mut self.flowdb,
                    &mut self.noc_pending,
                    &mut self.cold,
                    event,
                );
                self.hierarchy.replay(outcome, region_id(g), summary, at);
            }
        }
        let noc = self.hierarchy.store_mut(NOC);
        if noc.epoch_due(at) {
            for summary in noc.rotate_epoch(at) {
                let event = PumpEvent::RootRotated(NOC, &summary);
                observe(
                    &mut self.flowdb,
                    &mut self.noc_pending,
                    &mut self.cold,
                    event,
                );
            }
        }
        self.epoch_end = at + self.config.epoch_len;
    }

    /// Applies a journaled end-of-epoch snapshot (see
    /// [`Flowstream::snapshot_meta`]).
    fn apply_meta(&mut self, meta: &EpochMeta) {
        self.now = meta.now;
        self.rr = meta.rr as usize;
        self.exports.retries = meta.export_retries;
        self.exports.spilled = meta.spilled;
        self.exports.flushed = meta.flushed;
        self.exports.dropped = meta.dropped;
        self.exports.dropped_bytes = meta.dropped_bytes;
        self.raw_deferrals = meta.raw_deferrals;
        for (g, row) in meta.raw_pending.iter().enumerate() {
            let Some(mine) = self.raw_pending.get_mut(g) else {
                break;
            };
            for (r, &pending) in row.iter().enumerate() {
                if let Some(slot) = mine.get_mut(r) {
                    *slot = pending;
                }
            }
        }
        for (g, snap) in meta.region_stats.iter().enumerate().take(self.regions()) {
            self.hierarchy.store_mut(region_id(g)).restore_ingest_stats(
                snap.flows,
                snap.scalars,
                snap.raw_bytes,
            );
        }
    }

    /// Replays one WAL record of the epoch in flight at crash time: it is
    /// re-logged into the fresh WAL (preserving the original round-robin
    /// cursor, so a second crash before the next seal still recovers) and
    /// applied. Records are guaranteed in-epoch — a record beyond the
    /// epoch end would have rotated (and reset the WAL) before being
    /// logged.
    fn replay_wal_record(&mut self, wrec: &WalRecord) {
        let region = wrec.region as usize;
        let router = wrec.router as usize;
        if region >= self.regions() || router >= self.routers_per_region() {
            return;
        }
        let rec = wrec.record;
        let copy = *wrec;
        cold_op(&mut self.cold, |t| t.wal_append(&copy));
        self.apply_ingest(region, router, &rec);
        self.rr = wrec.rr as usize;
    }

    /// Runs a FlowQL query against the indexed summaries (⑤), under the
    /// configured [`DegradationPolicy`]. Every region summary that reached
    /// the NOC counts once: a query without a `location` restriction reads
    /// a NOC epoch in place of the region summaries it aggregates when all
    /// of them match, and their own summaries otherwise; `GROUP BY
    /// location` and `location = "region-<g>"` read region summaries, and
    /// `location = "noc"` the NOC's own epochs.
    ///
    /// # Errors
    ///
    /// Returns [`FlowstreamError`] on parse or execution failures, and —
    /// under [`DegradationPolicy::FailFast`] with unreachable locations
    /// the plan needs — [`FlowstreamError::Unreachable`].
    pub fn query(&self, flowql: &str) -> Result<QueryResult, FlowstreamError> {
        self.query_with(flowql, self.config.degradation, &self.tel)
    }

    /// [`Flowstream::query`] under an explicit policy, overriding the
    /// configured one for this call.
    ///
    /// # Errors
    ///
    /// Same as [`Flowstream::query`].
    pub fn query_with_policy(
        &self,
        flowql: &str,
        policy: DegradationPolicy,
    ) -> Result<QueryResult, FlowstreamError> {
        self.query_with(flowql, policy, &self.tel)
    }

    /// Region locations (plus `noc`) currently unreachable from the cloud
    /// vantage point, per the network's installed fault plan. Empty
    /// without faults.
    pub fn unreachable_locations(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let network = self.network();
        if network.faults().is_none() {
            return out;
        }
        for g in 0..self.regions() {
            if network
                .route_at(self.cloud, self.region_node(g), self.now)
                .is_none()
            {
                out.insert(format!("region-{g}"));
            }
        }
        if network
            .route_at(self.cloud, self.noc_node(), self.now)
            .is_none()
        {
            out.insert("noc".to_owned());
        }
        out
    }

    /// [`Flowstream::query`] recording into `tel`: a `flowstream.query`
    /// root scope with a `flowdb.parse` child and the FlowDB execution
    /// stages (plan, per-location fan-out, merge, operator) underneath.
    /// With unreachable locations, the root is annotated with the policy,
    /// the unreachable set, and the result's completeness — so `explain`
    /// shows *why* a result is partial. `FailFast` names the unreachable
    /// locations the plan needed, not every unreachable one.
    fn query_with(
        &self,
        flowql: &str,
        policy: DegradationPolicy,
        tel: &Telemetry,
    ) -> Result<QueryResult, FlowstreamError> {
        let mut root = tel.root("flowstream.query");
        tel.counter("flowstream.query.total").inc();
        root.annotate("flowql", flowql);
        let parse = tel.scope("flowdb.parse");
        let parsed = megastream_flowdb::parse(flowql).map_err(FlowstreamError::Parse);
        parse.finish();
        let unavailable = self.unreachable_locations();
        let result = parsed.and_then(|query| {
            if !unavailable.is_empty() {
                root.annotate("degradation", format_args!("{policy:?}"));
                root.annotate(
                    "unreachable",
                    unavailable.iter().cloned().collect::<Vec<_>>().join(","),
                );
            }
            let result = self
                .flowdb
                .execute_with(&query, &unavailable, tel)
                .map_err(FlowstreamError::Query)?;
            if result.completeness.is_complete() {
                // The query never needed the unreachable locations.
                return Ok(result);
            }
            root.annotate("completeness", result.completeness);
            match policy {
                DegradationPolicy::FailFast => Err(FlowstreamError::Unreachable {
                    locations: result.skipped,
                }),
                DegradationPolicy::Partial => {
                    self.partial_queries.fetch_add(1, Ordering::Relaxed);
                    tel.counter("flowstream.query.partial_total").inc();
                    Ok(result)
                }
            }
        });
        match &result {
            Err(e) => {
                tel.counter("flowstream.query.errors_total").inc();
                root.annotate("error", e);
            }
            Ok(r) => {
                // Cost metering: annotate the trace root and charge the
                // heavy-query log with the execution's deterministic work.
                root.annotate("cost", &r.cost);
                let mut log = match self.heavy_queries.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                log.offer(flowql.to_owned(), r.cost.work_units());
            }
        }
        root.finish();
        result
    }

    /// Runs a FlowQL query under a throwaway handle that traces every query
    /// and returns both the result and its rendered span tree — `EXPLAIN
    /// ANALYZE` for FlowQL. Works whether or not the deployment traces, and
    /// leaves nothing in the deployment's own sinks. The `flowdb.plan` span
    /// lists every summary the answer merged (`summary=<location> <window>
    /// mass=<total>`, plus `covers=<n>` for a NOC epoch read in place of
    /// `n` region summaries).
    ///
    /// # Errors
    ///
    /// Returns [`FlowstreamError`] on parse or execution failures; the
    /// explanation still carries the spans recorded up to the failure.
    pub fn explain(&self, flowql: &str) -> (Result<QueryResult, FlowstreamError>, Explanation) {
        let tel = Telemetry::new().with_tracing(SamplePolicy::Always);
        let result = self.query_with(flowql, self.config.degradation, &tel);
        (
            result,
            Explanation {
                tree: tel.trace_snapshot().render_tree(),
            },
        )
    }

    /// Aggregated operating statistics across the deployment.
    pub fn stats(&self) -> FlowstreamStats {
        let mut stats = FlowstreamStats::default();
        for g in 0..self.regions() {
            let s = self.region_store(g).stats();
            stats.flows += s.flows;
            stats.raw_bytes += s.raw_bytes;
            stats.region_epochs += s.epochs;
            stats.exported_bytes += s.exported_bytes;
        }
        stats.noc_epochs = self.noc_store().stats().epochs;
        stats.flowdb_summaries = self.flowdb.len();
        stats.trigger_events = self.trigger_log.len();
        stats.network_bytes = self.network().total_bytes();
        stats.export_retries = self.exports.retries;
        stats.spilled_summaries = self.exports.spilled;
        stats.flushed_summaries = self.exports.flushed;
        stats.dropped_summaries = self.exports.dropped;
        stats.dropped_bytes = self.exports.dropped_bytes;
        stats.raw_deferrals = self.raw_deferrals;
        stats.partial_queries = self.partial_queries.load(Ordering::Relaxed);
        stats
    }

    /// The telemetry handle this deployment records into (disabled unless
    /// [`Flowstream::set_telemetry`] was called): its metric snapshot and
    /// text report, its trace snapshot (span trees, Chrome JSON) and its
    /// profile snapshot (top table, collapsed stacks).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// The FlowDB index.
    pub fn flowdb(&self) -> &FlowDb {
        &self.flowdb
    }

    /// The simulated network with its transfer accounting.
    pub fn network(&self) -> &Network {
        self.hierarchy.network()
    }

    /// Mutable access to the simulated network — install a
    /// [`FaultPlan`](megastream_netsim::FaultPlan) here to script outages.
    pub fn network_mut(&mut self) -> &mut Network {
        self.hierarchy.network_mut()
    }

    /// The network node hosting `region`'s data store.
    pub fn region_node(&self, region: usize) -> NodeId {
        self.hierarchy.net_node(region_id(region))
    }

    /// The network node hosting the NOC store.
    pub fn noc_node(&self) -> NodeId {
        self.hierarchy.net_node(NOC)
    }

    /// The cloud node — the vantage point queries fan out from.
    pub fn cloud_node(&self) -> NodeId {
        self.cloud
    }

    /// Summaries currently parked in `region`'s spill buffer.
    pub fn spilled(&self, region: usize) -> usize {
        self.hierarchy.spilled(region_id(region))
    }

    /// Read access to a region's data store.
    pub fn region_store(&self, region: usize) -> &DataStore {
        self.hierarchy.store(region_id(region))
    }

    /// Mutable access to a region's data store (e.g. to install triggers).
    pub fn region_store_mut(&mut self, region: usize) -> &mut DataStore {
        self.hierarchy.store_mut(region_id(region))
    }

    /// The network-wide (NOC) store.
    pub fn noc_store(&self) -> &DataStore {
        self.hierarchy.store(NOC)
    }

    /// Trigger firings collected during ingest.
    pub fn trigger_log(&self) -> &[TriggerEvent] {
        &self.trigger_log
    }
}

/// Whether a cold tier is attached and still accepting writes.
fn cold_active(cold: &Option<ColdTier>) -> bool {
    cold.as_ref().is_some_and(|t| !t.is_dead())
}

/// Runs one cold-tier operation, declaring the tier dead on any real
/// failure so the data plane degrades to in-memory instead of erroring.
/// No-op when no live tier is attached.
fn cold_op(
    cold: &mut Option<ColdTier>,
    op: impl FnOnce(&mut ColdTier) -> Result<(), SegmentError>,
) {
    let Some(tier) = cold.as_mut().filter(|t| !t.is_dead()) else {
        return;
    };
    if let Err(e) = op(tier) {
        if !matches!(e, SegmentError::TierDead) {
            tier.mark_dead(e);
        }
    }
}

/// The pump observer. It journals each edge outcome into the open epoch
/// segment as the frame of the same name, tagged with the region index,
/// and indexes each Flowtree that reached the NOC in FlowDB: region
/// deliveries under `region-<g>`, the NOC's own epochs under `noc`. A
/// parked summary is indexed only at its flush, because data that has not
/// reached the NOC must not be queryable there.
///
/// Coverage follows the event order: the region entries delivered
/// (exported or flushed) since the NOC's previous rotation are exactly
/// what the NOC's live tree absorbed, so the next NOC epoch is indexed as
/// their aggregate. Recovery replays the same events in the same order and
/// so rebuilds the same coverage.
fn observe(
    flowdb: &mut FlowDb,
    noc_pending: &mut Vec<EntryId>,
    cold: &mut Option<ColdTier>,
    event: PumpEvent<'_>,
) {
    match event {
        PumpEvent::RootRotated(_, summary) => {
            if let Summary::Flowtree(tree) = &summary.summary {
                let covers = std::mem::take(noc_pending);
                flowdb.insert_covering("noc", summary.window, tree.clone(), covers);
            }
        }
        PumpEvent::Edge(outcome, store, summary) => {
            let region = store.0 - 1;
            if cold_active(cold) {
                let (region, summary) = (region as u32, summary.clone());
                let frame = match outcome {
                    EdgeOutcome::Exported => Frame::Exported { region, summary },
                    EdgeOutcome::Parked => Frame::Parked { region, summary },
                    EdgeOutcome::Flushed => Frame::Flushed { region, summary },
                };
                cold_op(cold, |t| t.append_frame(&frame));
            }
            if outcome == EdgeOutcome::Parked {
                return;
            }
            if let Summary::Flowtree(tree) = &summary.summary {
                let id = flowdb.insert(format!("region-{region}"), summary.window, tree.clone());
                noc_pending.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

    fn small_trace(secs: u64) -> Vec<FlowRecord> {
        FlowTraceGenerator::new(FlowTraceConfig {
            flows_per_sec: 50.0,
            duration: TimeDelta::from_secs(secs),
            internal_hosts: 100,
            external_hosts: 100,
            ..Default::default()
        })
        .collect()
    }

    #[test]
    fn end_to_end_ingest_and_query() {
        let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default());
        let trace = small_trace(150);
        let total_packets: u64 = trace.iter().map(|r| r.packets).sum();
        for rec in &trace {
            fs.ingest_round_robin(rec);
        }
        fs.finish();
        // Epochs of 60 s over 150 s → 3 windows per region.
        assert!(fs.flowdb().len() >= 4, "{} summaries", fs.flowdb().len());
        // Region-scoped total equals the ingested packet mass.
        let mut region_total = 0;
        for g in 0..2 {
            let r = fs
                .query(&format!(
                    "SELECT QUERY FROM ALL WHERE location = \"region-{g}\""
                ))
                .unwrap();
            region_total += r.rows[0].score;
        }
        assert_eq!(region_total, total_packets);
        // The network moved raw bytes and summary bytes.
        assert!(fs.network().total_bytes() > 0);
    }

    #[test]
    fn noc_store_absorbs_all_regions() {
        use megastream_flow::key::FlowKey;
        let mut fs = Flowstream::new(2, 2, FlowstreamConfig::default());
        let trace = small_trace(60);
        let total: u64 = trace.iter().map(|r| r.packets).sum();
        for rec in &trace {
            fs.ingest_round_robin(rec);
        }
        fs.finish();
        // NOC live tree + its stored summaries account for every packet.
        let noc_total = fs.noc_store().live_flow_score(&FlowKey::root()).value()
            + fs.noc_store()
                .summaries()
                .iter()
                .filter_map(|s| match &s.summary {
                    Summary::Flowtree(t) => Some(t.total().value()),
                    _ => None,
                })
                .sum::<u64>();
        assert_eq!(noc_total, total);
    }

    #[test]
    fn queries_by_time_window() {
        let mut fs = Flowstream::new(1, 2, FlowstreamConfig::default());
        for rec in small_trace(120) {
            fs.ingest_round_robin(&rec);
        }
        fs.finish();
        let first = fs
            .query("SELECT QUERY FROM [0, 60) WHERE location = \"region-0\"")
            .unwrap();
        let second = fs
            .query("SELECT QUERY FROM [60, 120) WHERE location = \"region-0\"")
            .unwrap();
        let all = fs
            .query("SELECT QUERY FROM ALL WHERE location = \"region-0\"")
            .unwrap();
        assert_eq!(
            first.rows[0].score + second.rows[0].score,
            all.rows[0].score
        );
        assert!(first.rows[0].score > 0);
    }

    #[test]
    fn bad_queries_are_reported() {
        let fs = Flowstream::new(1, 1, FlowstreamConfig::default());
        assert!(matches!(
            fs.query("SELEC nonsense"),
            Err(FlowstreamError::Parse(_))
        ));
        assert!(matches!(
            fs.query("SELECT QUERY FROM ALL"),
            Err(FlowstreamError::Query(_))
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ingest_checks_bounds() {
        let mut fs = Flowstream::new(1, 1, FlowstreamConfig::default());
        let rec = FlowRecord::builder().build();
        fs.ingest(5, 0, &rec);
    }
}
