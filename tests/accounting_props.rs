//! Accounting-plane property suite (PR 8).
//!
//! The resource-accounting plane keeps one invariant everywhere: the
//! *incrementally maintained* byte account (what the `store.memory.bytes`
//! gauge carries, adjusted by delta at every insert, eviction, and
//! hierarchical aggregation) must always equal the *independent recompute*
//! that walks every summary and live aggregator from scratch. This suite
//! drives arbitrary operation sequences — inserts under all three storage
//! strategies, ingest/rotate/import cycles on a full `DataStore`, and
//! clean plus chaos `Flowstream` deployments (the spill/flush path) — and
//! asserts the two sides agree after every step.
//!
//! The second half pins the cost-metering claim: `QueryCost`'s work
//! fields (locations, summaries, nodes visited, bytes merged, rows) are a
//! pure function of database contents and query, so they are bit-identical
//! across `Parallelism::Sequential` and `Parallelism::Threads(n)`.

use megastream::{DegradationPolicy, Flowstream, FlowstreamConfig, Parallelism};
use megastream_datastore::storage::{StorageStrategy, SummaryStore};
use megastream_datastore::store::DataStore;
use megastream_datastore::summary::{Lineage, StoredSummary, Summary};
use megastream_datastore::AggregatorSpec;
use megastream_flow::key::FeatureSet;
use megastream_flow::record::FlowRecord;
use megastream_flow::score::ScoreKind;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_flowdb::QueryCost;
use megastream_flowtree::{Flowtree, FlowtreeConfig};
use megastream_netsim::FaultPlan;
use megastream_telemetry::{labeled, Telemetry};
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------- helpers

fn record(src: u32, dst: u32, packets: u64) -> FlowRecord {
    FlowRecord::builder()
        .proto(6)
        .src(megastream_flow::addr::Ipv4Addr::from(src), 80)
        .dst(megastream_flow::addr::Ipv4Addr::from(dst), 443)
        .packets(packets.clamp(1, 1_000))
        .build()
}

/// One epoch's flowtree summary from a small synthetic stream.
fn epoch_summary(source: &str, epoch: u64, flows: &[(u32, u32)]) -> StoredSummary {
    let mut tree = Flowtree::new(FlowtreeConfig::default().with_capacity(128));
    for (src, dst) in flows {
        tree.observe(&record(*src, *dst, 3));
    }
    StoredSummary::new(
        format!("{source}/agg0"),
        TimeWindow::starting_at(Timestamp::from_secs(epoch * 60), TimeDelta::from_secs(60)),
        Summary::Flowtree(tree),
        Lineage::from_source(source),
    )
}

/// Every strategy, parameterized so enforcement actually fires: a tight
/// byte budget forces evictions (S2) and hierarchical merges (S3), and a
/// short TTL forces expiry (S1).
fn strategies() -> [StorageStrategy; 3] {
    [
        StorageStrategy::FixedExpiration {
            ttl: TimeDelta::from_secs(120),
        },
        StorageStrategy::RoundRobin {
            budget_bytes: 4_096,
        },
        StorageStrategy::RoundRobinHierarchical {
            budget_bytes: 4_096,
            fanout: 3,
        },
    ]
}

/// Whether two stored Flowtree summaries share one arena. The store's
/// deep-byte account is a plain sum of its summaries, so it counts no
/// arena twice only while none do.
fn shares_an_arena(store: &SummaryStore) -> bool {
    let trees: Vec<&Flowtree> = store
        .iter()
        .filter_map(|s| s.summary.as_flowtree())
        .collect();
    trees
        .iter()
        .enumerate()
        .any(|(i, a)| trees[i + 1..].iter().any(|b| a.shares_storage_with(b)))
}

// ------------------------------------------------ summary-store invariant

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary insert sequences from two sources, under every storage
    /// strategy: the delta-maintained account equals the recompute after
    /// every single insert (each of which may trigger expiry, eviction,
    /// or a chain of hierarchical aggregations).
    #[test]
    fn summary_store_account_matches_recompute(
        epochs in vec(vec((any::<u32>(), any::<u32>()), 1..20), 1..24),
    ) {
        for strategy in strategies() {
            let mut store = SummaryStore::new(strategy, "prop-loc");
            for (e, flows) in epochs.iter().enumerate() {
                let source = if e % 2 == 0 { "router-a" } else { "router-b" };
                let now = Timestamp::from_secs((e as u64 + 1) * 60);
                store.insert(epoch_summary(source, e as u64, flows), now);
                prop_assert_eq!(
                    store.accounted_deep_bytes(),
                    store.deep_bytes(),
                    "strategy {:?} diverged after insert {}",
                    strategy,
                    e
                );
                prop_assert!(
                    !shares_an_arena(&store),
                    "strategy {:?} shares an arena after insert {}",
                    strategy,
                    e
                );
            }
            // Late enforcement (time passing with no inserts) must hold too.
            store.enforce(Timestamp::from_secs(10_000));
            prop_assert_eq!(store.accounted_deep_bytes(), store.deep_bytes());
            prop_assert!(!shares_an_arena(&store));
        }
    }

    /// A full `DataStore` under arbitrary ingest/rotate/import schedules:
    /// live aggregators plus the summary store, with the
    /// `store.memory.bytes` gauge along for the ride.
    #[test]
    fn data_store_account_matches_recompute(
        ops in vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..120),
    ) {
        let tel = Telemetry::new();
        let mut store = DataStore::new(
            "prop-store",
            StorageStrategy::RoundRobinHierarchical {
                budget_bytes: 8_192,
                fanout: 2,
            },
            TimeDelta::from_secs(30),
        )
        .with_telemetry(&tel);
        let tree_id = store.install_aggregator(AggregatorSpec::Flowtree(
            FlowtreeConfig::default().with_capacity(64),
        ));
        let top_id = store.install_aggregator(AggregatorSpec::TopFlows {
            capacity: 16,
            features: FeatureSet::FIVE_TUPLE,
            score_kind: ScoreKind::Packets,
        });
        let stream = megastream_datastore::store::StreamId::new("prop-stream");
        store.subscribe(tree_id, stream.clone());
        store.subscribe(top_id, stream.clone());

        let mut now = Timestamp::ZERO;
        for (i, (op, src, dst)) in ops.iter().enumerate() {
            now += TimeDelta::from_secs(1);
            match op % 4 {
                // Most ops ingest; every 4th-ish rotates or imports.
                0..=1 => {
                    store.ingest_flow(&stream, &record(*src, *dst, u64::from(*op) + 1), now);
                }
                2 => {
                    store.rotate_epoch(now);
                }
                _ => {
                    let flows = [(*src, *dst), (*dst, *src)];
                    store.import_summary(epoch_summary("child", i as u64, &flows), now);
                }
            }
            prop_assert_eq!(
                store.accounted_bytes(),
                store.deep_bytes(),
                "diverged after op {} ({})",
                i,
                op % 4
            );
            prop_assert!(
                !shares_an_arena(store.summaries()),
                "stored summaries share an arena after op {} ({})",
                i,
                op % 4
            );
        }
        // After a final rotation the gauge must carry exactly the account.
        store.rotate_epoch(now + TimeDelta::from_secs(60));
        prop_assert_eq!(store.accounted_bytes(), store.deep_bytes());
        prop_assert!(!shares_an_arena(store.summaries()));
        let gauge = tel
            .snapshot()
            .gauge(&labeled("store.memory.bytes", "store", "prop-store"));
        prop_assert_eq!(gauge, Some(store.accounted_bytes() as i64));
    }
}

// ------------------------------------------------- deployment-level runs

fn run_deployment(chaos: bool) -> Flowstream {
    let tel = Telemetry::new();
    let mut fs = Flowstream::new(
        3,
        2,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    )
    .with_telemetry(&tel);
    if chaos {
        let mut plan = FaultPlan::seeded(7);
        plan.link_down(
            fs.region_node(1),
            fs.noc_node(),
            Timestamp::from_secs(60),
            Timestamp::from_secs(180),
        );
        fs.network_mut().install_faults(plan);
    }
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 21,
        flows_per_sec: 120.0,
        duration: TimeDelta::from_mins(4),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
        if chaos && rec.ts >= Timestamp::from_secs(100) && rec.ts < Timestamp::from_secs(101) {
            // Query mid-outage so the partial path also runs.
            let _ = fs.query_with_policy("SELECT TOPK 3 FROM ALL", DegradationPolicy::Partial);
        }
    }
    fs.finish();
    fs
}

fn assert_stores_consistent(fs: &Flowstream) {
    let snap = fs.telemetry().snapshot();
    for g in 0..fs.regions() {
        let store = fs.region_store(g);
        assert_eq!(
            store.accounted_bytes(),
            store.deep_bytes(),
            "store {} account diverged",
            store.name()
        );
        assert!(
            !shares_an_arena(store.summaries()),
            "store {} shares an arena",
            store.name()
        );
        // The exported gauge carries the same number (it is refreshed at
        // every rotation, and no ingest has happened since `finish`).
        let gauge = snap.gauge(&labeled("store.memory.bytes", "store", store.name()));
        assert_eq!(gauge, Some(store.accounted_bytes() as i64));
    }
}

#[test]
fn clean_run_keeps_store_accounts_exact() {
    let fs = run_deployment(false);
    assert_stores_consistent(&fs);
}

#[test]
fn chaos_run_keeps_store_accounts_exact() {
    // The outage forces exports to spill and re-flush; the invariant must
    // survive the whole detour.
    let fs = run_deployment(true);
    assert!(
        fs.stats().spilled_summaries > 0,
        "chaos run must exercise the spill path"
    );
    assert_stores_consistent(&fs);
}

// ---------------------------------------------- query-cost determinism

/// The canonical query set from E14, reused here: for each query, the
/// cost's work fields must be bit-identical between the sequential oracle
/// and a threaded run (QueryCost's PartialEq deliberately compares only
/// the work fields, never wall-clock micros).
#[test]
fn query_cost_is_bit_identical_across_parallelism() {
    let costs: Vec<Vec<Option<QueryCost>>> = [Parallelism::Sequential, Parallelism::Threads(3)]
        .into_iter()
        .map(|par| {
            let mut fs = Flowstream::new(
                3,
                2,
                FlowstreamConfig {
                    epoch_len: TimeDelta::from_secs(30),
                    parallelism: par,
                    ..Default::default()
                },
            );
            for rec in FlowTraceGenerator::new(FlowTraceConfig {
                seed: 77,
                flows_per_sec: 60.0,
                duration: TimeDelta::from_mins(5),
                ..Default::default()
            }) {
                fs.ingest_round_robin(&rec);
            }
            fs.finish();
            [
                "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8",
                "SELECT TOPK 5 FROM ALL",
                "SELECT TOPK 3 FROM ALL GROUP BY location",
                "SELECT HHH 2000 FROM ALL",
                "SELECT DRILLDOWN FROM ALL WHERE src_ip = 10.0.0.0/8",
                "SELECT QUERY FROM [0, 60) WHERE src_ip = 10.0.0.0/8",
            ]
            .into_iter()
            .map(|q| fs.query(q).ok().map(|r| r.cost))
            .collect()
        })
        .collect();
    assert_eq!(costs[0], costs[1], "QueryCost diverged across parallelism");
    // And the costs are actually populated, not vacuous zeroes.
    for cost in costs[0].iter().flatten() {
        assert!(cost.locations > 0, "cost must name its locations");
        assert!(cost.summaries > 0, "cost must count merged summaries");
        assert!(cost.work_units() > 0, "cost must carry work");
    }
}
