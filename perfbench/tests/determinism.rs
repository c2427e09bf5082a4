//! The benchmark's own test: a seed fixes everything but wall time.
//!
//! Two runs with one seed must produce identical deterministic counts and
//! answers, every output check must pass, and another seed must produce
//! another trace. The shapes are scaled down so the test stays quick; the
//! code paths are the benchmarked ones.

use std::path::PathBuf;

use megastream_perfbench::common::{generate, RunConfig};
use megastream_perfbench::report::Report;
use megastream_perfbench::{ingest, live, query};

fn cfg(seed: u64, tag: &str) -> RunConfig {
    RunConfig {
        seed,
        seconds: 1.0,
        trace: false,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
    }
}

fn assert_checks_pass(report: &Report) {
    if report.failures() > 0 {
        report.print();
    }
    assert_eq!(report.failures(), 0, "output checks failed");
}

#[test]
fn ingest_repeats_for_a_seed() {
    let shape = ingest::IngestShape {
        flows_per_sec: 200.0,
        secs: 240,
        query_passes: 1,
        ..ingest::STANDARD
    };
    let cfg = cfg(11, "ingest");
    let trace = generate(cfg.seed, shape.flows_per_sec, shape.secs, Vec::new());
    let mut report = Report::default();
    let a = ingest::replay(&shape, &trace, &cfg, &mut report, None).expect("first replay");
    let b = ingest::replay(&shape, &trace, &cfg, &mut report, None).expect("second replay");
    assert_checks_pass(&report);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.outcome.answers.len(), 10);
    assert!(a.outcome.counts.cost_bytes > 0 && a.outcome.counts.sealed_bytes > 0);
}

#[test]
fn query_repeats_for_a_seed() {
    let shape = query::QueryShape {
        flows_per_sec: 100.0,
        secs: 120,
        ..query::STANDARD
    };
    let cfg = cfg(12, "query");
    let mut report = Report::default();
    let a = query::load(&shape, &cfg, &mut report, None).expect("first load");
    let b = query::load(&shape, &cfg, &mut report, None).expect("second load");
    assert_checks_pass(&report);
    assert_eq!(a.reference, b.reference);
    assert_eq!(query::counts(&a), query::counts(&b));
}

#[test]
fn live_repeats_for_a_seed() {
    let shape = live::LiveShape {
        flows_per_sec: 300.0,
        attack_flows_per_sec: 600.0,
    };
    let cfg = cfg(13, "live");
    let trace = live::trace(&shape, cfg.seed);
    let mut report = Report::default();
    let a = live::pass(&shape, cfg.seed, &trace, &cfg, &mut report, None).expect("first pass");
    let b = live::pass(&shape, cfg.seed, &trace, &cfg, &mut report, None).expect("second pass");
    assert_checks_pass(&report);
    assert_eq!(a.outcome, b.outcome);
    assert!(a.outcome.counts.spilled > 0 && a.outcome.counts.trigger_events > 0);
}

#[test]
fn another_seed_gives_another_trace() {
    let a = generate(1, 100.0, 30, Vec::new());
    assert_eq!(a, generate(1, 100.0, 30, Vec::new()));
    assert_ne!(a, generate(2, 100.0, 30, Vec::new()));
    let shape = live::LiveShape {
        flows_per_sec: 100.0,
        attack_flows_per_sec: 200.0,
    };
    assert_ne!(live::Schedule::of(1), live::Schedule::of(2));
    assert_ne!(live::trace(&shape, 1), live::trace(&shape, 2));
}
