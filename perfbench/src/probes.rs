//! Standalone probes of single layers, run only in the traced run.
//!
//! Each probe feeds region 0's share of the workload's records (the records
//! `ingest_round_robin` sends to region 0, in order) to one layer's public
//! API, configured like the region: a `DataStore` with the region's
//! aggregator and trigger, a bare `Flowtree`, a `TriggerEngine` with the
//! region's trigger (empty when the workload installs none), and a
//! standalone `OnSeal` cold tier's WAL. The codec probe encodes and decodes
//! the summaries the run's regions exported.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use megastream::datastore::store::{DataStore, StreamId};
use megastream::datastore::summary::StoredSummary;
use megastream::datastore::trigger::{TriggerCondition, TriggerEngine};
use megastream::datastore::{AggregatorSpec, StorageStrategy};
use megastream::flow::record::FlowRecord;
use megastream::flow::time::TimeDelta;
use megastream::flowstream::FlowstreamConfig;
use megastream::flowtree::{Flowtree, FlowtreeConfig};
use megastream::storage::{decode_stored_summary, encode_stored_summary, WalRecord};
use megastream::{ColdTier, SyncPolicy};
use megastream_telemetry::Telemetry;

use crate::common::{Epochs, TierDir};
use crate::report::{Report, Samples};
use crate::spans::Spans;

/// Most records a probe feeds, so probes stay short on every workload.
const PROBE_RECORDS: usize = 150_000;

/// How the probed region is configured.
#[derive(Debug, Clone)]
pub struct RegionShape {
    /// Regions of the deployment.
    pub regions: usize,
    /// Routers per region.
    pub routers: usize,
    /// Epoch length of the region stores.
    pub epoch_len: TimeDelta,
    /// The region Flowtree's configuration.
    pub tree: FlowtreeConfig,
    /// The region store's storage strategy.
    pub storage: StorageStrategy,
    /// The trigger each region store holds, with its cooldown.
    pub trigger: Option<(TriggerCondition, TimeDelta)>,
}

impl RegionShape {
    /// A region of a deployment configured by `config`, as
    /// `Flowstream::new` builds it.
    pub fn of(
        config: &FlowstreamConfig,
        regions: usize,
        routers: usize,
        trigger: Option<(TriggerCondition, TimeDelta)>,
    ) -> Self {
        RegionShape {
            regions,
            routers,
            epoch_len: config.epoch_len,
            tree: FlowtreeConfig::default()
                .with_capacity(config.tree_capacity)
                .with_score_kind(config.score_kind)
                .with_schema(config.schema.clone()),
            storage: config.storage,
            trigger,
        }
    }

    /// Region 0's records with their router, in arrival order.
    fn share<'a>(&self, trace: &'a [FlowRecord]) -> Vec<(usize, &'a FlowRecord)> {
        let slots = self.regions * self.routers;
        trace
            .iter()
            .enumerate()
            .filter(|(i, _)| i % slots < self.routers)
            .map(|(i, rec)| (i % slots, rec))
            .take(PROBE_RECORDS)
            .collect()
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs every probe and reports its metrics.
pub fn run(
    shape: &RegionShape,
    trace: &[FlowRecord],
    exported: &[StoredSummary],
    work: &Path,
    report: &mut Report,
    spans: &mut Spans,
) {
    let share = shape.share(trace);
    datastore_probe(shape, &share, report, spans);
    flowtree_probe(shape, &share, report, spans);
    trigger_probe(shape, &share, report, spans);
    wal_probe(shape, &share, work, report, spans);
    codec_probe(exported, report, spans);
}

fn datastore_probe(
    shape: &RegionShape,
    share: &[(usize, &FlowRecord)],
    report: &mut Report,
    spans: &mut Spans,
) {
    let mut store = DataStore::new("region-0", shape.storage, shape.epoch_len);
    store.install_aggregator(AggregatorSpec::Flowtree(shape.tree.clone()));
    if let Some((condition, cooldown)) = &shape.trigger {
        store.install_trigger("perfbench", condition.clone(), *cooldown);
    }
    let streams: Vec<StreamId> = (0..shape.routers)
        .map(|r| StreamId::new(format!("router-0-{r}")))
        .collect();
    let (mut ingest, mut rotate) = (Samples::default(), Samples::default());
    let root = spans.root("datastore.probe.ingest_flow");
    for &(router, rec) in share {
        while store.epoch_due(rec.ts) {
            let at = store.epoch_start() + shape.epoch_len;
            let t = Instant::now();
            black_box(store.rotate_epoch(at));
            rotate.push(ns_since(t));
        }
        let t = Instant::now();
        black_box(store.ingest_flow(&streams[router], rec, rec.ts));
        ingest.push(ns_since(t));
    }
    spans.end(root);
    report.metric(
        "datastore.ingest_flow.p50_ns",
        ingest.quantile_ns(0.5),
        "ns",
    );
    report.metric(
        "datastore.rotate_epoch.p50_ms",
        rotate.quantile_ns(0.5) / 1e6,
        "ms",
    );
}

fn flowtree_probe(
    shape: &RegionShape,
    share: &[(usize, &FlowRecord)],
    report: &mut Report,
    spans: &mut Spans,
) {
    let mut tree = Flowtree::new(shape.tree.clone());
    let mut epochs = Epochs::new(shape.epoch_len);
    let mut observe = Samples::default();
    let root = spans.root("flowtree.probe.observe");
    for &(_, rec) in share {
        if epochs.cross(rec.ts).is_some() {
            // A rotation resets the region's tree.
            tree.clear();
        }
        let t = Instant::now();
        tree.observe(black_box(rec));
        observe.push(ns_since(t));
    }
    spans.end(root);
    report.metric("flowtree.observe.p50_ns", observe.quantile_ns(0.5), "ns");
}

fn trigger_probe(
    shape: &RegionShape,
    share: &[(usize, &FlowRecord)],
    report: &mut Report,
    spans: &mut Spans,
) {
    let mut engine = TriggerEngine::new();
    if let Some((condition, cooldown)) = &shape.trigger {
        engine.install("perfbench", condition.clone(), *cooldown);
    }
    let mut eval = Samples::default();
    let root = spans.root("datastore.probe.trigger");
    for &(_, rec) in share {
        let t = Instant::now();
        black_box(engine.on_flow(rec, rec.ts));
        eval.push(ns_since(t));
    }
    spans.end(root);
    report.metric("datastore.trigger.p50_ns", eval.quantile_ns(0.5), "ns");
}

fn wal_probe(
    shape: &RegionShape,
    share: &[(usize, &FlowRecord)],
    work: &Path,
    report: &mut Report,
    spans: &mut Spans,
) {
    let tier = TierDir::fresh(work, "probe-wal")
        .map_err(|e| e.to_string())
        .and_then(|dir| {
            ColdTier::create(dir.path(), SyncPolicy::OnSeal, Telemetry::disabled())
                .map(|tier| (dir, tier))
                .map_err(|e| format!("{e:?}"))
        });
    let (_dir, mut tier) = match tier {
        Ok(t) => t,
        Err(e) => {
            report.check(false, || format!("WAL probe tier: {e}"));
            return;
        }
    };
    let mut epochs = Epochs::new(shape.epoch_len);
    let mut append = Samples::default();
    let mut errors = 0u64;
    let root = spans.root("storage.probe.wal_append");
    for (i, &(router, rec)) in share.iter().enumerate() {
        if let Some(at) = epochs.cross(rec.ts) {
            // Seal and reset as a rotation does, so the WAL stays one
            // epoch long.
            let sealed = tier
                .begin_epoch(at)
                .and_then(|()| tier.seal_epoch())
                .and_then(|()| tier.wal_reset());
            errors += u64::from(sealed.is_err());
        }
        let wrec = WalRecord {
            rr: i as u64 + 1,
            region: 0,
            router: router as u32,
            record: *rec,
        };
        let t = Instant::now();
        let appended = tier.wal_append(&wrec);
        append.push(ns_since(t));
        errors += u64::from(appended.is_err());
    }
    spans.end(root);
    report.check(errors == 0, || {
        format!("WAL probe: {errors} storage errors")
    });
    report.metric("storage.wal_append.p50_ns", append.quantile_ns(0.5), "ns");
}

fn codec_probe(exported: &[StoredSummary], report: &mut Report, spans: &mut Spans) {
    let (mut encode, mut decode) = (Samples::default(), Samples::default());
    let mut mismatches = 0;
    let root = spans.root("storage.probe.codec");
    for summary in exported {
        let t = Instant::now();
        let bytes = encode_stored_summary(black_box(summary));
        encode.push(ns_since(t));
        let t = Instant::now();
        let back = decode_stored_summary(black_box(&bytes));
        decode.push(ns_since(t));
        mismatches += usize::from(back.as_ref() != Ok(summary));
    }
    spans.end(root);
    report.check(mismatches == 0 && !exported.is_empty(), || {
        format!(
            "codec probe: {mismatches} of {} summaries did not round-trip",
            exported.len()
        )
    });
    report.metric(
        "storage.encode_summary.p50_us",
        encode.quantile_ns(0.5) / 1e3,
        "us",
    );
    report.metric(
        "storage.decode_summary.p50_us",
        decode.quantile_ns(0.5) / 1e3,
        "us",
    );
}
