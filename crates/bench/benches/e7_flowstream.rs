//! E7 — Fig. 5 / §VI: Flowstream accuracy vs summary budget, against the
//! exact table and the classic sketch baselines (Space-Saving, Count-Min),
//! plus the generalization-order ablation.
//!
//! Shape expectations (recorded in EXPERIMENTS.md): at a few percent of
//! exact-table memory, Flowtree answers heavy-prefix queries with small
//! error and degrades gracefully as the budget shrinks; Space-Saving only
//! answers exact-key queries (no prefixes); Count-Min overestimates the
//! tail. The ablation shows the dst-/src-preserving orders trading one
//! side's accuracy for the other's. The same method scores FlowQL's
//! `FROM ALL` plans over the store hierarchy: every indexed summary (NOC
//! epochs on top of the region summaries they aggregate), the cover, and
//! the region summaries alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::{BTreeMap, BTreeSet};

use megastream_bench::{flow_trace, rule};
use megastream_flow::key::{FeatureSet, FlowKey};
use megastream_flow::mask::GeneralizationSchema;
use megastream_flow::record::FlowRecord;
use megastream_flow::score::{Popularity, ScoreKind};
use megastream_flow::time::TimeDelta;
use megastream_flowdb::{parse, DbEntry};
use megastream_flowtree::{Flowtree, FlowtreeConfig};
use megastream_primitives::aggregator::ComputingPrimitive;
use megastream_primitives::cms::CountMinSketch;
use megastream_primitives::exact::ExactFlowTable;
use megastream_primitives::spacesaving::SpaceSaving;
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

fn trace() -> Vec<FlowRecord> {
    flow_trace(2026, 500.0, 240, 1.1)
}

/// Mean relative error of per-key point queries over the true top-k exact
/// flows (0 = perfect).
fn top_k_mre(estimate: impl Fn(&FlowKey) -> u64, exact: &ExactFlowTable, k: usize) -> f64 {
    let top = exact.top_k(k);
    let mut err = 0.0;
    for (key, truth) in &top {
        let est = estimate(key) as f64;
        err += (est - truth.value() as f64).abs() / truth.value() as f64;
    }
    err / top.len() as f64
}

/// Mean relative error over all src-/8 prefixes carrying traffic.
fn prefix_mre(tree: &Flowtree, exact: &ExactFlowTable) -> f64 {
    let (mut err, mut n) = (0.0, 0);
    for octet in 1..=255u8 {
        let key = FlowKey::root().with_src_prefix(format!("{octet}.0.0.0/8").parse().unwrap());
        let truth = exact.query(&key).value();
        if truth == 0 {
            continue;
        }
        err += (tree.query(&key).value() as f64 - truth as f64).abs() / truth as f64;
        n += 1;
    }
    err / n.max(1) as f64
}

fn hhh_precision_recall(
    tree: &Flowtree,
    exact: &ExactFlowTable,
    threshold: Popularity,
) -> (f64, f64) {
    let mine: BTreeSet<FlowKey> = tree.hhh(threshold).into_iter().map(|h| h.key).collect();
    let truth: BTreeSet<FlowKey> = exact
        .hhh(&GeneralizationSchema::network_default(), threshold)
        .into_iter()
        .map(|h| h.key)
        .collect();
    if mine.is_empty() || truth.is_empty() {
        return (1.0, if truth.is_empty() { 1.0 } else { 0.0 });
    }
    let hit = mine.intersection(&truth).count() as f64;
    (hit / mine.len() as f64, hit / truth.len() as f64)
}

fn accuracy_report() {
    rule("E7 / Fig. 5 — accuracy vs summary budget (trace: 120k flows, skew 1.1)");
    let trace = trace();
    let mut exact = ExactFlowTable::new(FeatureSet::FIVE_TUPLE, ScoreKind::Packets);
    for r in &trace {
        exact.observe(r);
    }
    let exact_bytes = exact.footprint_bytes();
    let threshold = Popularity::new(exact.total().value() / 200); // 0.5 %
    println!(
        "exact table: {} keys, {} bytes, total {} packets",
        exact.len(),
        exact_bytes,
        exact.total()
    );
    println!(
        "{:>9} | {:>9} {:>8} {:>8} {:>7} {:>7} | {:>9} {:>8} | {:>9} {:>8}",
        "capacity",
        "ft bytes",
        "top20mre",
        "pfx mre",
        "hhh P",
        "hhh R",
        "ss bytes",
        "top20mre",
        "cms bytes",
        "top20mre"
    );
    for capacity in [256usize, 512, 1024, 2048, 4096, 8192, 16384] {
        let mut tree = Flowtree::new(FlowtreeConfig::default().with_capacity(capacity));
        let mut ss: SpaceSaving<FlowKey> = SpaceSaving::new(capacity);
        // Memory-match the CMS to the flowtree (8-byte counters, depth 4).
        let tree_bytes_est = capacity * (std::mem::size_of::<FlowKey>() + 8);
        let cms_width = (tree_bytes_est / (8 * 4)).max(16);
        let mut cms = CountMinSketch::new(cms_width, 4, 7);
        for r in &trace {
            tree.observe(r);
            ss.offer(FlowKey::from_record(r), r.packets);
            cms.offer(&FlowKey::from_record(r), r.packets);
        }
        let ft_mre = top_k_mre(|k| tree.query(k).value(), &exact, 20);
        let pfx = prefix_mre(&tree, &exact);
        let (p, rcl) = hhh_precision_recall(&tree, &exact, threshold);
        let ss_mre = top_k_mre(|k| ss.estimate(k).map(|c| c.count).unwrap_or(0), &exact, 20);
        let cms_mre = top_k_mre(|k| cms.estimate(k), &exact, 20);
        println!(
            "{:>9} | {:>9} {:>8.3} {:>8.3} {:>7.2} {:>7.2} | {:>9} {:>8.3} | {:>9} {:>8.3}",
            capacity,
            tree.wire_size(),
            ft_mre,
            pfx,
            p,
            rcl,
            ss.footprint_bytes(),
            ss_mre,
            cms.footprint_bytes(),
            cms_mre
        );
    }
    println!("(ft/ss/cms at equal memory; 'pfx mre' is a query class only the flowtree answers)");
}

fn ablation_report() {
    rule("E7 ablation — generalization order vs query side (capacity 1024)");
    let trace = trace();
    let mut exact = ExactFlowTable::new(FeatureSet::FIVE_TUPLE, ScoreKind::Packets);
    for r in &trace {
        exact.observe(r);
    }
    println!("{:<16} {:>12} {:>12}", "schema", "src/8 mre", "dst/8 mre");
    for (name, schema) in [
        ("alternating", GeneralizationSchema::network_default()),
        ("dst-preserving", GeneralizationSchema::dst_preserving()),
        ("src-preserving", GeneralizationSchema::src_preserving()),
    ] {
        let mut tree = Flowtree::new(
            FlowtreeConfig::default()
                .with_capacity(1024)
                .with_schema(schema),
        );
        for r in &trace {
            tree.observe(r);
        }
        let src_err = prefix_mre(&tree, &exact);
        // dst-side error.
        let (mut err, mut n) = (0.0, 0);
        for octet in 1..=255u8 {
            let key = FlowKey::root().with_dst_prefix(format!("{octet}.0.0.0/8").parse().unwrap());
            let truth = exact.query(&key).value();
            if truth == 0 {
                continue;
            }
            err += (tree.query(&key).value() as f64 - truth as f64).abs() / truth as f64;
            n += 1;
        }
        let dst_err = err / n.max(1) as f64;
        println!("{name:<16} {src_err:>12.3} {dst_err:>12.3}");
    }
    println!("(each preserving order wins on its own side — property P5 is a real dial)");
}

/// Merges a plan's trees the way FlowDB's fan-out does: per location in
/// insertion order, then the partials in location order.
fn merge_plan(entries: &[&DbEntry]) -> Flowtree {
    let mut by_location: BTreeMap<&str, Flowtree> = BTreeMap::new();
    for e in entries {
        by_location
            .entry(e.location.as_str())
            .and_modify(|t| t.merge(&e.tree))
            .or_insert_with(|| e.tree.clone());
    }
    let mut partials = by_location.into_values();
    let mut out = partials.next().expect("a plan is never empty");
    for partial in partials {
        out.merge(&partial);
    }
    out
}

/// The E7 method on perfbench's `query` shape, seed 1: 4 regions × 2
/// routers, 30 s epochs, 400 flows/s for 300 s, so 40 region summaries
/// and 2 NOC epochs. Each `FROM ALL` plan's merged tree is scored against
/// the exact table of the trace.
fn plan_accuracy_report() {
    use megastream::flowstream::{Flowstream, FlowstreamConfig};
    rule("E7 method — FROM ALL plans over the store hierarchy (perfbench `query` shape, seed 1)");
    let trace: Vec<FlowRecord> = FlowTraceGenerator::new(FlowTraceConfig {
        seed: 1,
        flows_per_sec: 400.0,
        duration: TimeDelta::from_secs(300),
        ..Default::default()
    })
    .collect();
    let mut fs = Flowstream::new(
        4,
        2,
        FlowstreamConfig {
            epoch_len: TimeDelta::from_secs(30),
            ..Default::default()
        },
    );
    let mut exact = ExactFlowTable::new(FeatureSet::FIVE_TUPLE, ScoreKind::Packets);
    for r in &trace {
        fs.ingest_round_robin(r);
        exact.observe(r);
    }
    fs.finish();
    let threshold = Popularity::new(exact.total().value() / 200); // 0.5 %
    println!(
        "exact table: {} keys, {} bytes, total {} packets",
        exact.len(),
        exact.footprint_bytes(),
        exact.total()
    );
    let db = fs.flowdb();
    let all = parse("SELECT QUERY FROM ALL").expect("valid FlowQL");
    let plans: [(&str, Vec<&DbEntry>); 3] = [
        ("every entry", db.entries().iter().collect()),
        ("cover", db.cover(&all, &BTreeSet::new())),
        (
            "region entries",
            db.entries().iter().filter(|e| e.covers.is_none()).collect(),
        ),
    ];
    println!(
        "{:<15} {:>9} {:>10} {:>8} {:>8} {:>7} {:>7}",
        "plan", "summaries", "total", "top20mre", "pfx mre", "hhh P", "hhh R"
    );
    for (name, entries) in plans {
        let tree = merge_plan(&entries);
        let (p, rcl) = hhh_precision_recall(&tree, &exact, threshold);
        println!(
            "{:<15} {:>9} {:>10} {:>8.3} {:>8.3} {:>7.2} {:>7.2}",
            name,
            entries.len(),
            tree.total().value(),
            top_k_mre(|k| tree.query(k).value(), &exact, 20),
            prefix_mre(&tree, &exact),
            p,
            rcl
        );
    }
    println!(
        "('every entry' is the selection before the cover: NOC epochs on top of their regions)"
    );
}

fn bench_flowstream(c: &mut Criterion) {
    accuracy_report();
    ablation_report();
    plan_accuracy_report();

    let mut group = c.benchmark_group("e7_flowstream");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(1));
    let trace = trace();
    for capacity in [1024usize, 8192] {
        group.bench_with_input(
            BenchmarkId::new("build_tree", capacity),
            &capacity,
            |b, &cap| {
                b.iter(|| {
                    let mut tree = Flowtree::new(FlowtreeConfig::default().with_capacity(cap));
                    for r in trace.iter().take(20_000) {
                        tree.observe(r);
                    }
                    tree.len()
                });
            },
        );
    }
    // FlowQL round trip over a populated deployment.
    use megastream::flowstream::{Flowstream, FlowstreamConfig};
    let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default());
    for r in &trace {
        fs.ingest_round_robin(r);
    }
    fs.finish();
    group.bench_function("flowql_topk_across_sites", |b| {
        b.iter(|| {
            fs.query("SELECT TOPK 10 FROM ALL WHERE src_ip = 10.0.0.0/8")
                .unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_flowstream);
criterion_main!(benches);
