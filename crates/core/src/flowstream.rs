//! **Flowstream** — the complete system of paper Fig. 5.
//!
//! > "The router sends its raw flow data to a data store ①. The data store
//! > uses Flowtree as its aggregator to compute summaries ② and potentially
//! > exports these to other data stores ③. The data store can either
//! > further aggregate them or use them ④ to answer user queries via the
//! > FlowQL API ⑤."
//!
//! [`Flowstream`] wires routers (flow sources) to per-region data stores
//! running Flowtree aggregators over an [`IspTopology`], exports each
//! epoch's summaries up to a network-wide store *and* into a [`FlowDb`],
//! and answers FlowQL queries.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Mutex;

use megastream_datastore::store::{DataStore, StreamId};
use megastream_datastore::summary::{StoredSummary, Summary};
use megastream_datastore::trigger::TriggerEvent;
use megastream_datastore::{AggregatorSpec, StorageStrategy};
use megastream_flow::mask::GeneralizationSchema;
use megastream_flow::record::FlowRecord;
use megastream_flow::score::ScoreKind;
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_flowdb::par::fan_out;
use megastream_flowdb::{FlowDb, Parallelism, QueryResult};
use megastream_flowtree::FlowtreeConfig;
use megastream_netsim::hierarchy::IspTopology;
use megastream_netsim::topology::{Network, NodeId};
use megastream_primitives::SpaceSaving;
use megastream_storage::{
    ColdTier, EpochBundle, EpochMeta, Frame, RecoveryReport, RegionStatsSnapshot, SegmentError,
    SyncPolicy, WalRecord,
};
use megastream_telemetry::{
    labeled, Counter, Gauge, Histogram, ProfileSnapshot, Profiler, ScopedTimer, Snapshot,
    Telemetry, TraceSnapshot, Tracer, LATENCY_MICROS_BOUNDS,
};

use crate::hierarchy::{absorb_summary, jitter_micros, summaries_mergeable};

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
    /// Re-attempts after a transient summary-export failure.
    pub export_retries: u32,
    /// Backoff before the first export retry; doubles per retry.
    pub export_backoff: TimeDelta,
    /// Seed of the deterministic jitter added to each export backoff so
    /// concurrent regions don't retry in lock-step (thundering herd). The
    /// same seed reproduces the same retry schedule bit-for-bit.
    pub export_jitter_seed: u64,
    /// Per-region spill buffer bound for summaries awaiting a recovered
    /// uplink (oldest dropped, with accounting, on overflow).
    pub spill_capacity_bytes: u64,
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
            export_retries: 3,
            export_backoff: TimeDelta::from_millis(200),
            export_jitter_seed: 0,
            spill_capacity_bytes: 4 << 20,
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
        /// The unreachable locations with matching data.
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

/// Cached telemetry handles for the Flowstream fabric itself (per-router
/// ingest counters, FlowQL end-to-end latency, rotation stage timers, and
/// the watermark/spill gauges the ops plane's health rules watch).
#[derive(Debug, Clone, Default)]
struct StreamMetrics {
    /// `router_records[region][router]` — empty when telemetry is disabled.
    router_records: Vec<Vec<Counter>>,
    query_micros: Histogram,
    queries: Counter,
    query_errors: Counter,
    /// End-to-end wall-clock of one `rotate` pass.
    rotate_micros: Histogram,
    /// Per-stage wall-clock inside `rotate`: spill flush, region rotation,
    /// NOC export + indexing.
    stage_flush_micros: Histogram,
    stage_rotate_micros: Histogram,
    stage_export_micros: Histogram,
    /// Newest ingested simulated timestamp (`flowstream.watermark_micros`).
    watermark: Gauge,
    /// Aggregate spill occupancy across regions, plus one labeled gauge
    /// per region (`flowstream.spill.buffered_bytes{region=g}`).
    spill_bytes_gauge: Gauge,
    spill_summaries_gauge: Gauge,
    spill_region_bytes: Vec<Gauge>,
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
    tracer: Tracer,
    profiler: Profiler,
    /// Bounded top-K heavy-query log: FlowQL text → accumulated
    /// deterministic work units
    /// ([`QueryCost::work_units`](megastream_flowdb::QueryCost::work_units)).
    /// A mutex because queries run through `&self`, possibly from several
    /// threads.
    heavy_queries: Mutex<SpaceSaving<String>>,
    metrics: StreamMetrics,
    topology: IspTopology,
    config: FlowstreamConfig,
    regions: Vec<DataStore>,
    noc: DataStore,
    flowdb: FlowDb,
    /// Raw bytes received per (region, router) in the current epoch —
    /// transferred in one batch at rotation for link accounting.
    raw_pending: Vec<Vec<u64>>,
    /// `streams[region][router]`: each router's export stream id
    /// (`router-<region>-<router>`), built once so ingest never formats
    /// one.
    streams: Vec<Vec<StreamId>>,
    /// Per-region store-and-forward buffers for summaries whose export to
    /// the NOC failed (uplink down); flushed on a later rotation.
    spill: Vec<Vec<StoredSummary>>,
    spill_bytes: Vec<u64>,
    faults_seen: FaultCounters,
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

/// Running totals of fault handling, copied into [`FlowstreamStats`].
/// `partial_queries` is atomic because queries run through `&self` — and,
/// since the data plane went parallel, possibly from several threads at
/// once.
#[derive(Debug, Default)]
struct FaultCounters {
    export_retries: u64,
    spilled: u64,
    flushed: u64,
    dropped: u64,
    dropped_bytes: u64,
    raw_deferrals: u64,
    partial_queries: std::sync::atomic::AtomicU64,
}

impl Flowstream {
    /// Builds a Flowstream over `regions` regions of `routers_per_region`
    /// routers.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(regions: usize, routers_per_region: usize, config: FlowstreamConfig) -> Self {
        let topology = IspTopology::build(regions, routers_per_region);
        let tree_config = FlowtreeConfig::default()
            .with_capacity(config.tree_capacity)
            .with_score_kind(config.score_kind)
            .with_schema(config.schema.clone());
        let mut region_stores = Vec::with_capacity(regions);
        for g in 0..regions {
            let mut store = DataStore::new(format!("region-{g}"), config.storage, config.epoch_len);
            store.install_aggregator(AggregatorSpec::Flowtree(tree_config.clone()));
            region_stores.push(store);
        }
        // The network-wide store aggregates over a 4× longer horizon.
        let mut noc = DataStore::new(
            "noc",
            config.storage,
            TimeDelta::from_micros(config.epoch_len.as_micros() * 4),
        );
        noc.install_aggregator(AggregatorSpec::Flowtree(tree_config));
        let epoch_end = Timestamp::ZERO + config.epoch_len;
        let par = config.parallelism;
        Flowstream {
            tel: Telemetry::disabled(),
            tracer: Tracer::disabled(),
            profiler: Profiler::disabled(),
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
            spill: vec![Vec::new(); regions],
            spill_bytes: vec![0; regions],
            faults_seen: FaultCounters::default(),
            topology,
            config,
            regions: region_stores,
            noc,
            flowdb: FlowDb::new().with_parallelism(par),
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

    /// Whether a cold tier is attached and still accepting writes.
    fn cold_active(&self) -> bool {
        self.cold.as_ref().is_some_and(|t| !t.is_dead())
    }

    /// Runs one cold-tier operation, declaring the tier dead on any real
    /// failure so the data plane degrades to in-memory instead of
    /// erroring. No-op when no live tier is attached.
    fn cold_op(&mut self, op: impl FnOnce(&mut ColdTier) -> Result<(), SegmentError>) {
        let Some(tier) = self.cold.as_mut() else {
            return;
        };
        if tier.is_dead() {
            return;
        }
        if let Err(e) = op(tier) {
            if !matches!(e, SegmentError::TierDead) {
                tier.mark_dead(e);
            }
        }
    }

    /// Journals one frame into the cold tier's open epoch segment.
    fn cold_frame(&mut self, frame: Frame) {
        self.cold_op(|t| t.append_frame(&frame));
    }

    /// Sets how many worker threads the data plane uses — region epoch
    /// rotations in the pump and FlowDB's per-location query fan-out.
    /// Every setting produces bit-identical results; only wall-clock time
    /// differs. Can be changed at any point in a deployment's life.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.config.parallelism = par;
        self.flowdb.set_parallelism(par);
    }

    /// The data-plane parallelism in effect.
    pub fn parallelism(&self) -> Parallelism {
        self.config.parallelism
    }

    /// Connects the whole deployment to a telemetry registry: every region
    /// store, the NOC store, FlowDB, per-router ingest counters, and the
    /// FlowQL end-to-end latency histogram. Passing
    /// [`Telemetry::disabled`] detaches everything again.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        for store in &mut self.regions {
            store.set_telemetry(tel);
        }
        self.noc.set_telemetry(tel);
        self.flowdb.set_telemetry(tel);
        self.metrics = if tel.is_enabled() {
            StreamMetrics {
                router_records: (0..self.regions.len())
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
                query_micros: tel.histogram(
                    "flowstream.query.micros",
                    megastream_telemetry::LATENCY_MICROS_BOUNDS,
                ),
                queries: tel.counter("flowstream.query.total"),
                query_errors: tel.counter("flowstream.query.errors_total"),
                rotate_micros: tel.histogram("flowstream.rotate.micros", LATENCY_MICROS_BOUNDS),
                stage_flush_micros: tel
                    .histogram("flowstream.stage.flush.micros", LATENCY_MICROS_BOUNDS),
                stage_rotate_micros: tel
                    .histogram("flowstream.stage.rotate.micros", LATENCY_MICROS_BOUNDS),
                stage_export_micros: tel
                    .histogram("flowstream.stage.export.micros", LATENCY_MICROS_BOUNDS),
                watermark: tel.gauge("flowstream.watermark_micros"),
                spill_bytes_gauge: tel.gauge("flowstream.spill.buffered_bytes"),
                spill_summaries_gauge: tel.gauge("flowstream.spill.buffered_summaries"),
                spill_region_bytes: (0..self.regions.len())
                    .map(|g| {
                        tel.gauge(&labeled(
                            "flowstream.spill.buffered_bytes",
                            "region",
                            &g.to_string(),
                        ))
                    })
                    .collect(),
            }
        } else {
            StreamMetrics::default()
        };
    }

    /// Refreshes the spill-occupancy gauges the ops plane's health rules
    /// watch: one labeled gauge per region plus the aggregate bytes and
    /// summary count.
    fn update_spill_gauges(&self) {
        for (g, gauge) in self.metrics.spill_region_bytes.iter().enumerate() {
            gauge.set(self.spill_bytes[g] as i64);
        }
        self.metrics
            .spill_bytes_gauge
            .set(self.spill_bytes.iter().sum::<u64>() as i64);
        self.metrics
            .spill_summaries_gauge
            .set(self.spill.iter().map(Vec::len).sum::<usize>() as i64);
    }

    /// Builder-style [`Flowstream::set_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.set_telemetry(tel);
        self
    }

    /// Connects the deployment to a causal tracer: every FlowQL query
    /// records a `flowstream.query` span tree (subject to the tracer's
    /// sampling policy). Passing [`Tracer::disabled`] detaches again at
    /// one-branch cost per span site.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Builder-style [`Flowstream::set_tracer`].
    #[must_use]
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// The tracer queries record into (disabled unless
    /// [`Flowstream::set_tracer`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Connects the deployment to a scoped-activity profiler: ingest,
    /// rotation stages, and FlowQL query phases record into its activity
    /// tree (see [`Profiler`]). Passing [`Profiler::disabled`] detaches
    /// again at one-branch cost per activity site.
    pub fn set_profiler(&mut self, profiler: &Profiler) {
        self.profiler = profiler.clone();
    }

    /// Builder-style [`Flowstream::set_profiler`].
    #[must_use]
    pub fn with_profiler(mut self, profiler: &Profiler) -> Self {
        self.set_profiler(profiler);
        self
    }

    /// The profiler activity sites record into (disabled unless
    /// [`Flowstream::set_profiler`] was called).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Snapshot of aggregated profile activities (empty when profiling is
    /// off).
    pub fn profile_snapshot(&self) -> ProfileSnapshot {
        self.profiler.snapshot()
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

    /// Snapshot of all recorded trace spans (empty when tracing is off).
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Human-readable span-tree report of all recorded traces (empty when
    /// tracing is off).
    pub fn trace_report(&self) -> String {
        self.tracer.render_tree()
    }

    /// All recorded traces as Chrome `trace_event` JSON, loadable in
    /// `chrome://tracing` or Perfetto (empty event list when tracing is
    /// off).
    pub fn trace_chrome_json(&self) -> String {
        self.tracer.render_chrome_json()
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// Number of routers per region.
    pub fn routers_per_region(&self) -> usize {
        self.topology.routers[0].len()
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
        assert!(region < self.regions.len(), "region {region} out of range");
        assert!(
            router < self.raw_pending[region].len(),
            "router {router} out of range"
        );
        while rec.ts >= self.epoch_end {
            let at = self.epoch_end;
            self.rotate(at);
        }
        if self.cold_active() {
            let wrec = WalRecord {
                rr: self.rr as u64,
                region: region as u32,
                router: router as u32,
                record: *rec,
            };
            let mut logged = false;
            self.cold_op(|t| {
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
        // Started after any rotations so `flowstream.rotate` stays a root
        // activity of its own rather than nesting under every ingest.
        let _activity = self.profiler.activity("flowstream.ingest");
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
        let events = self.regions[region].ingest_flow(&self.streams[region][router], rec, rec.ts);
        self.trigger_log.extend(events);
    }

    /// Ingests a record, assigning it to a router round-robin — convenient
    /// when replaying a single generated trace across the deployment.
    pub fn ingest_round_robin(&mut self, rec: &FlowRecord) {
        let total_routers = self.regions.len() * self.raw_pending[0].len();
        let slot = self.rr % total_routers;
        self.rr += 1;
        let region = slot / self.raw_pending[0].len();
        let router = slot % self.raw_pending[0].len();
        self.ingest(region, router, rec);
    }

    /// Closes the current epoch at `at`: flushes raw-transfer accounting,
    /// rotates region stores (②), exports summaries to the NOC store (③)
    /// and indexes Flowtrees into FlowDB (④).
    ///
    /// Fault handling: a down router→region link defers the batch's byte
    /// accounting to the next rotation (records are already in the region
    /// store, so nothing is lost); a failed region→NOC export is retried
    /// with exponential backoff, then parked in the region's bounded spill
    /// buffer and re-exported — and only then indexed in FlowDB — once the
    /// uplink recovers.
    fn rotate(&mut self, at: Timestamp) {
        let rotate_timer = ScopedTimer::start(&self.metrics.rotate_micros);
        let _activity = self.profiler.activity("flowstream.rotate");
        // Open this epoch's segment before any frame can be produced.
        self.cold_op(|t| t.begin_epoch(at));
        // ① account the raw router → region-store transfers of this epoch.
        for g in 0..self.raw_pending.len() {
            for r in 0..self.raw_pending[g].len() {
                let pending = self.raw_pending[g][r];
                if pending == 0 {
                    continue;
                }
                let from = self.topology.routers[g][r];
                let to = self.topology.regions[g];
                match self.topology.network.transfer(from, to, pending, at) {
                    Ok(_) => self.raw_pending[g][r] = 0,
                    Err(e) if e.is_transient() => {
                        // Defer: the batch rides along at the next rotate.
                        self.faults_seen.raw_deferrals += 1;
                        self.tel.counter("flowstream.raw.deferred_total").inc();
                    }
                    Err(e) => panic!("router is connected to its region: {e}"),
                }
            }
        }
        // Recovery first: spilled summaries from earlier epochs, so the NOC
        // absorbs late data before it rotates below.
        let flush_timer = ScopedTimer::start(&self.metrics.stage_flush_micros);
        let flush_activity = self.profiler.activity("flush_spill");
        self.flush_spill(at);
        drop(flush_activity);
        flush_timer.stop();
        // ② rotate every region store — sibling subtrees concurrently, per
        // the parallelism knob; rotation touches only the store itself —
        // then ③ + ④ export each region's summaries to the NOC in region
        // order, exactly as the sequential loop did, so the observable
        // outcome is identical for every worker count.
        let workers = self.config.parallelism.worker_count(self.regions.len());
        if self.tel.is_enabled() {
            self.tel
                .gauge("flowstream.rotate.workers")
                .set(workers as i64);
        }
        let worker_micros = self
            .tel
            .histogram("flowstream.rotate.worker.micros", LATENCY_MICROS_BOUNDS);
        let stage_timer = ScopedTimer::start(&self.metrics.stage_rotate_micros);
        let regions_activity = self.profiler.activity("rotate_regions");
        let rotated: Vec<Vec<StoredSummary>> = fan_out(
            self.regions.iter_mut().collect(),
            workers,
            |store| store.rotate_epoch(at),
            |micros| worker_micros.record(micros),
        );
        drop(regions_activity);
        stage_timer.stop();
        let export_timer = ScopedTimer::start(&self.metrics.stage_export_micros);
        let export_activity = self.profiler.activity("export");
        for (g, exported) in rotated.into_iter().enumerate() {
            for summary in exported {
                self.export_to_noc(g, summary, at);
            }
        }
        if self.noc.epoch_due(at) {
            let exported = self.noc.rotate_epoch(at);
            for summary in exported {
                if let Summary::Flowtree(tree) = &summary.summary {
                    self.flowdb.insert("noc", summary.window, tree.clone());
                }
            }
        }
        drop(export_activity);
        export_timer.stop();
        if self.cold_active() {
            // The Meta frame is written last: replay reruns the epoch's
            // deliveries/parks and then snaps counters and cursors to the
            // authoritative end-of-epoch values. Sealing renames the
            // segment into place atomically; only then is the WAL — whose
            // records this epoch just made redundant — reset.
            let meta = Frame::Meta(self.snapshot_meta());
            self.cold_frame(meta);
            self.cold_op(|t| t.seal_epoch());
            self.cold_op(|t| t.wal_reset());
        }
        self.epoch_end = at + self.config.epoch_len;
        rotate_timer.stop();
    }

    /// End-of-epoch snapshot journaled as the sealing [`Frame::Meta`]:
    /// everything recovery cannot re-derive by replaying the epoch's
    /// frames — watermark, round-robin cursor, fault counters, deferred
    /// raw-transfer accounting, and per-region ingest statistics.
    fn snapshot_meta(&self) -> EpochMeta {
        EpochMeta {
            now: self.now,
            rr: self.rr as u64,
            export_retries: self.faults_seen.export_retries,
            spilled: self.faults_seen.spilled,
            flushed: self.faults_seen.flushed,
            dropped: self.faults_seen.dropped,
            dropped_bytes: self.faults_seen.dropped_bytes,
            raw_deferrals: self.faults_seen.raw_deferrals,
            raw_pending: self.raw_pending.clone(),
            region_stats: self
                .regions
                .iter()
                .map(|store| {
                    let s = store.stats();
                    RegionStatsSnapshot {
                        flows: s.flows,
                        scalars: s.scalars,
                        raw_bytes: s.raw_bytes,
                    }
                })
                .collect(),
        }
    }

    /// Exports one region summary to the NOC with bounded retry +
    /// exponential backoff, spilling it on persistent transient failure.
    fn export_to_noc(&mut self, g: usize, summary: StoredSummary, at: Timestamp) {
        let bytes = summary.wire_size() as u64;
        let (from, to) = (self.topology.regions[g], self.topology.noc);
        let mut attempt_at = at;
        let mut backoff = self.config.export_backoff;
        for attempt in 0..=self.config.export_retries {
            match self.topology.network.transfer(from, to, bytes, attempt_at) {
                Ok(_) => {
                    if self.cold_active() {
                        self.cold_frame(Frame::Exported {
                            region: g as u32,
                            summary: summary.clone(),
                        });
                    }
                    self.deliver_to_noc(g, summary, at);
                    return;
                }
                Err(e) if e.is_transient() && attempt < self.config.export_retries => {
                    self.faults_seen.export_retries += 1;
                    self.tel.counter("flowstream.export.retries_total").inc();
                    let salt = at
                        .as_micros()
                        .wrapping_mul(31)
                        .wrapping_add((g as u64) << 40)
                        .wrapping_add(bytes)
                        .wrapping_add(u64::from(attempt));
                    attempt_at +=
                        backoff + jitter_micros(self.config.export_jitter_seed, salt, backoff);
                    backoff = TimeDelta::from_micros(backoff.as_micros().saturating_mul(2));
                }
                Err(e) if e.is_transient() => {
                    self.park(g, summary, at);
                    return;
                }
                Err(e) => panic!("region is connected to the noc: {e}"),
            }
        }
        unreachable!("loop always returns")
    }

    /// Indexes a delivered summary in FlowDB and merges it into the NOC
    /// store.
    fn deliver_to_noc(&mut self, g: usize, summary: StoredSummary, at: Timestamp) {
        if let Summary::Flowtree(tree) = &summary.summary {
            self.flowdb
                .insert(format!("region-{g}"), summary.window, tree.clone());
        }
        if !absorb_summary(&mut self.noc, &summary) {
            self.noc.import_summary(summary, at);
        }
    }

    /// Parks a summary in region `g`'s spill buffer: merged into a
    /// compatible parked summary where possible (P2), bounded with
    /// oldest-first drops. FlowDB indexing is deferred until the flush —
    /// the data has not reached the NOC yet.
    fn park(&mut self, g: usize, summary: StoredSummary, at: Timestamp) {
        // Journal the incoming summary pre-merge: replay reruns this very
        // method, reproducing the merge/overflow decisions bit-for-bit.
        if self.cold_active() {
            self.cold_frame(Frame::Parked {
                region: g as u32,
                summary: summary.clone(),
            });
        }
        let location = format!("region-{g}");
        if let Some(existing) = self.spill[g]
            .iter_mut()
            .find(|s| summaries_mergeable(s, &summary))
        {
            let before = existing.wire_size() as u64;
            existing.merge(&summary, &location, at);
            self.spill_bytes[g] = self.spill_bytes[g] - before + existing.wire_size() as u64;
        } else {
            self.spill_bytes[g] += summary.wire_size() as u64;
            self.spill[g].push(summary);
        }
        self.faults_seen.spilled += 1;
        self.tel.counter("flowstream.spill.spilled_total").inc();
        while self.spill_bytes[g] > self.config.spill_capacity_bytes && !self.spill[g].is_empty() {
            let victim = self.spill[g].remove(0);
            let bytes = victim.wire_size() as u64;
            self.spill_bytes[g] -= bytes;
            self.faults_seen.dropped += 1;
            self.faults_seen.dropped_bytes += bytes;
            self.tel.counter("flowstream.spill.dropped_total").inc();
            self.tel
                .counter("flowstream.spill.dropped_bytes_total")
                .add(bytes);
        }
        self.update_spill_gauges();
    }

    /// Re-exports spilled summaries whose uplink has recovered; stops at
    /// the first still-failing transfer per region.
    fn flush_spill(&mut self, at: Timestamp) {
        for g in 0..self.spill.len() {
            let (from, to) = (self.topology.regions[g], self.topology.noc);
            while let Some(summary) = self.spill[g].first().cloned() {
                let bytes = summary.wire_size() as u64;
                match self.topology.network.transfer(from, to, bytes, at) {
                    Ok(_) => {
                        self.spill[g].remove(0);
                        self.spill_bytes[g] = self.spill_bytes[g].saturating_sub(bytes);
                        self.faults_seen.flushed += 1;
                        self.tel.counter("flowstream.spill.flushed_total").inc();
                        if self.cold_active() {
                            self.cold_frame(Frame::Flushed {
                                region: g as u32,
                                summary: summary.clone(),
                            });
                        }
                        self.deliver_to_noc(g, summary, at);
                    }
                    Err(e) if e.is_transient() => break,
                    Err(e) => panic!("region is connected to the noc: {e}"),
                }
            }
        }
        self.update_spill_gauges();
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
    /// order; the closing `Meta` frame snaps counters and cursors to their
    /// authoritative end-of-epoch values.
    fn replay_bundle(&mut self, bundle: &EpochBundle) {
        let at = bundle.at;
        let mut rotated: Vec<Vec<StoredSummary>> = vec![Vec::new(); self.regions.len()];
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
            self.regions[g].restore_rotation(summaries, at);
        }
        for frame in &bundle.frames {
            match frame {
                Frame::Flushed { region, summary } => {
                    let g = *region as usize;
                    if g >= self.regions.len() {
                        continue;
                    }
                    if let Some(front) =
                        (!self.spill[g].is_empty()).then(|| self.spill[g].remove(0))
                    {
                        self.spill_bytes[g] =
                            self.spill_bytes[g].saturating_sub(front.wire_size() as u64);
                    }
                    self.deliver_to_noc(g, summary.clone(), at);
                }
                Frame::Exported { region, summary } => {
                    let g = *region as usize;
                    if g < self.regions.len() {
                        self.deliver_to_noc(g, summary.clone(), at);
                    }
                }
                Frame::Parked { region, summary } => {
                    let g = *region as usize;
                    if g < self.regions.len() {
                        self.park(g, summary.clone(), at);
                    }
                }
                Frame::Meta(meta) => self.apply_meta(meta),
            }
        }
        if self.noc.epoch_due(at) {
            let exported = self.noc.rotate_epoch(at);
            for summary in exported {
                if let Summary::Flowtree(tree) = &summary.summary {
                    self.flowdb.insert("noc", summary.window, tree.clone());
                }
            }
        }
        self.epoch_end = at + self.config.epoch_len;
        self.update_spill_gauges();
    }

    /// Applies a journaled end-of-epoch snapshot (see
    /// [`Flowstream::snapshot_meta`]).
    fn apply_meta(&mut self, meta: &EpochMeta) {
        self.now = meta.now;
        self.rr = meta.rr as usize;
        self.faults_seen.export_retries = meta.export_retries;
        self.faults_seen.spilled = meta.spilled;
        self.faults_seen.flushed = meta.flushed;
        self.faults_seen.dropped = meta.dropped;
        self.faults_seen.dropped_bytes = meta.dropped_bytes;
        self.faults_seen.raw_deferrals = meta.raw_deferrals;
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
        for (g, snap) in meta.region_stats.iter().enumerate() {
            if g >= self.regions.len() {
                break;
            }
            self.regions[g].restore_ingest_stats(snap.flows, snap.scalars, snap.raw_bytes);
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
        if region >= self.regions.len() || router >= self.raw_pending[region].len() {
            return;
        }
        let rec = wrec.record;
        let copy = *wrec;
        self.cold_op(|t| t.wal_append(&copy));
        self.apply_ingest(region, router, &rec);
        self.rr = wrec.rr as usize;
    }

    /// Runs a FlowQL query against the indexed summaries (⑤), under the
    /// configured [`DegradationPolicy`].
    ///
    /// Note that `noc`-level summaries cover the same traffic as the
    /// per-region ones; restrict by `location` to avoid double counting
    /// when both are indexed, or query only region locations (the default
    /// examples do).
    ///
    /// # Errors
    ///
    /// Returns [`FlowstreamError`] on parse or execution failures, and —
    /// under [`DegradationPolicy::FailFast`] with unreachable locations
    /// holding matching data — [`FlowstreamError::Unreachable`].
    pub fn query(&self, flowql: &str) -> Result<QueryResult, FlowstreamError> {
        self.query_with(flowql, self.config.degradation, &self.tracer)
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
        self.query_with(flowql, policy, &self.tracer)
    }

    /// Region locations (plus `noc`) currently unreachable from the cloud
    /// vantage point, per the network's installed fault plan. Empty
    /// without faults.
    pub fn unreachable_locations(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        if self.topology.network.faults().is_none() {
            return out;
        }
        let cloud = self.topology.cloud;
        for (g, &region) in self.topology.regions.iter().enumerate() {
            if self
                .topology
                .network
                .route_at(cloud, region, self.now)
                .is_none()
            {
                out.insert(format!("region-{g}"));
            }
        }
        if self
            .topology
            .network
            .route_at(cloud, self.topology.noc, self.now)
            .is_none()
        {
            out.insert("noc".to_owned());
        }
        out
    }

    /// [`Flowstream::query`] recording its causal lineage into `tracer`:
    /// a `flowstream.query` root span with a `parse` child and the FlowDB
    /// execution stages (plan, per-location fan-out, merge, operator run)
    /// underneath. With unreachable locations, the root span is annotated
    /// with the policy, the unreachable set, and the result's
    /// completeness — so `explain` shows *why* a result is partial.
    fn query_with(
        &self,
        flowql: &str,
        policy: DegradationPolicy,
        tracer: &Tracer,
    ) -> Result<QueryResult, FlowstreamError> {
        let timer = ScopedTimer::start(&self.metrics.query_micros);
        self.metrics.queries.inc();
        let _activity = self.profiler.activity("flowstream.query");
        let mut root = tracer.root("flowstream.query");
        root.annotate("flowql", flowql);
        let parse_timer = self.tel.timer("flowdb.parse.micros");
        let parse_activity = self.profiler.activity("parse");
        let parse_span = root.child("parse");
        let parsed = megastream_flowdb::parse(flowql).map_err(FlowstreamError::Parse);
        drop(parse_span);
        drop(parse_activity);
        parse_timer.stop();
        let _exec_activity = self.profiler.activity("execute");
        let unavailable = self.unreachable_locations();
        let result = parsed.and_then(|query| {
            if unavailable.is_empty() {
                return self
                    .flowdb
                    .execute_traced(&query, &root)
                    .map_err(FlowstreamError::Query);
            }
            root.annotate("degradation", &format!("{policy:?}"));
            root.annotate(
                "unreachable",
                &unavailable.iter().cloned().collect::<Vec<_>>().join(","),
            );
            let partial = self
                .flowdb
                .execute_partial_traced(&query, &root, &unavailable)
                .map_err(FlowstreamError::Query)?;
            if partial.completeness.is_complete() {
                // The query never needed the unreachable locations.
                return Ok(partial);
            }
            root.annotate("completeness", &partial.completeness.to_string());
            match policy {
                DegradationPolicy::FailFast => Err(FlowstreamError::Unreachable {
                    locations: self
                        .flowdb
                        .locations()
                        .into_iter()
                        .filter(|l| unavailable.contains(*l))
                        .map(str::to_owned)
                        .collect(),
                }),
                DegradationPolicy::Partial => {
                    self.faults_seen
                        .partial_queries
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    self.tel.counter("flowstream.query.partial_total").inc();
                    Ok(partial)
                }
            }
        });
        match &result {
            Err(e) => {
                self.metrics.query_errors.inc();
                root.annotate("error", &e.to_string());
            }
            Ok(r) => {
                // Cost metering: annotate the trace root and charge the
                // heavy-query log with the execution's deterministic work.
                root.annotate("cost", &r.cost.to_string());
                let mut log = match self.heavy_queries.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                log.offer(flowql.to_owned(), r.cost.work_units());
            }
        }
        timer.stop();
        result
    }

    /// Runs a FlowQL query under a throwaway always-on tracer and returns
    /// both the result and its rendered span tree — `EXPLAIN ANALYZE` for
    /// FlowQL. Works regardless of whether the deployment itself has a
    /// tracer attached.
    ///
    /// # Errors
    ///
    /// Returns [`FlowstreamError`] on parse or execution failures; the
    /// explanation still carries the spans recorded up to the failure.
    pub fn explain(&self, flowql: &str) -> (Result<QueryResult, FlowstreamError>, Explanation) {
        let tracer = Tracer::new();
        let result = self.query_with(flowql, self.config.degradation, &tracer);
        (
            result,
            Explanation {
                tree: tracer.render_tree(),
            },
        )
    }

    /// Aggregated operating statistics across the deployment.
    pub fn stats(&self) -> FlowstreamStats {
        let mut stats = FlowstreamStats::default();
        for store in &self.regions {
            let s = store.stats();
            stats.flows += s.flows;
            stats.raw_bytes += s.raw_bytes;
            stats.region_epochs += s.epochs;
            stats.exported_bytes += s.exported_bytes;
        }
        stats.noc_epochs = self.noc.stats().epochs;
        stats.flowdb_summaries = self.flowdb.len();
        stats.trigger_events = self.trigger_log.len();
        stats.network_bytes = self.topology.network.total_bytes();
        stats.export_retries = self.faults_seen.export_retries;
        stats.spilled_summaries = self.faults_seen.spilled;
        stats.flushed_summaries = self.faults_seen.flushed;
        stats.dropped_summaries = self.faults_seen.dropped;
        stats.dropped_bytes = self.faults_seen.dropped_bytes;
        stats.raw_deferrals = self.faults_seen.raw_deferrals;
        stats.partial_queries = self
            .faults_seen
            .partial_queries
            .load(std::sync::atomic::Ordering::Relaxed);
        stats
    }

    /// The telemetry handle this deployment records into (disabled unless
    /// [`Flowstream::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Snapshot of all telemetry metrics (empty when disabled).
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.tel.snapshot()
    }

    /// Human-readable telemetry report (empty when disabled).
    pub fn telemetry_report(&self) -> String {
        self.tel.render_text()
    }

    /// The FlowDB index.
    pub fn flowdb(&self) -> &FlowDb {
        &self.flowdb
    }

    /// The simulated network with its transfer accounting.
    pub fn network(&self) -> &Network {
        &self.topology.network
    }

    /// Mutable access to the simulated network — install a
    /// [`FaultPlan`](megastream_netsim::FaultPlan) here to script outages.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.topology.network
    }

    /// The network node hosting `region`'s data store.
    pub fn region_node(&self, region: usize) -> NodeId {
        self.topology.regions[region]
    }

    /// The network node hosting the NOC store.
    pub fn noc_node(&self) -> NodeId {
        self.topology.noc
    }

    /// The cloud node — the vantage point queries fan out from.
    pub fn cloud_node(&self) -> NodeId {
        self.topology.cloud
    }

    /// Summaries currently parked in `region`'s spill buffer.
    pub fn spilled(&self, region: usize) -> usize {
        self.spill[region].len()
    }

    /// Read access to a region's data store.
    pub fn region_store(&self, region: usize) -> &DataStore {
        &self.regions[region]
    }

    /// Mutable access to a region's data store (e.g. to install triggers).
    pub fn region_store_mut(&mut self, region: usize) -> &mut DataStore {
        &mut self.regions[region]
    }

    /// The network-wide (NOC) store.
    pub fn noc_store(&self) -> &DataStore {
        &self.noc
    }

    /// Trigger firings collected during ingest.
    pub fn trigger_log(&self) -> &[TriggerEvent] {
        &self.trigger_log
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
