//! Fixture-corpus integration tests.
//!
//! Each pass must fire on its known-bad fixture — so these tests fail if a
//! pass is disabled, its scope shrinks, or its detection regresses — and
//! the whole analyzer must stay silent on the known-clean fixture, which
//! is saturated with decoys (banned constructs inside comments, plain and
//! raw strings, and test modules). The fixture `.rs` files live under
//! `tests/fixtures/`, which cargo never compiles and the workspace walker
//! skips, so they are only ever seen through `SourceFile::from_text`.

use megastream_analyzer::findings::Finding;
use megastream_analyzer::passes::{all_passes, Ctx};
use megastream_analyzer::source::{SourceFile, Workspace};
use megastream_analyzer::{run_with, Report};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lints fixture contents mounted at the given workspace paths.
fn analyze(files: &[(&str, &str)]) -> Report {
    let ws = Workspace {
        files: files
            .iter()
            .map(|(path, name)| SourceFile::from_text(path, fixture(name)))
            .collect(),
    };
    let ctx = Ctx {
        ws: &ws,
        design_md: None,
    };
    run_with(&ctx)
}

fn denies<'r>(report: &'r Report, pass: &str) -> Vec<&'r Finding> {
    report.findings.iter().filter(|f| f.pass == pass).collect()
}

fn count_key(findings: &[&Finding], key: &str) -> usize {
    findings.iter().filter(|f| f.key == key).count()
}

#[test]
fn lock_discipline_fires_on_cross_file_cycle() {
    let report = analyze(&[
        ("crates/datastore/src/fix_a.rs", "lock_cycle_a.rs"),
        ("crates/datastore/src/fix_b.rs", "lock_cycle_b.rs"),
    ]);
    let found = denies(&report, "lock-discipline");
    // Both edges of the table/index cycle are reported, plus the send
    // under a live guard.
    assert!(count_key(&found, "table->index") >= 1, "{found:#?}");
    assert!(count_key(&found, "index->table") >= 1, "{found:#?}");
    assert_eq!(count_key(&found, "table->send"), 1, "{found:#?}");
    let cycle = report.lock_graph.find_cycle().expect("cycle detected");
    assert!(cycle.contains(&"table".to_string()));
    assert!(cycle.contains(&"index".to_string()));
}

#[test]
fn lock_discipline_half_a_alone_is_acyclic() {
    // Each half on its own is fine: the cycle only exists across files,
    // which is exactly what per-file review misses.
    let report = analyze(&[("crates/datastore/src/fix_a.rs", "lock_cycle_a.rs")]);
    assert!(denies(&report, "lock-discipline").is_empty());
    assert!(report.lock_graph.find_cycle().is_none());
    assert_eq!(report.lock_graph.edges.len(), 1);
}

#[test]
fn metric_registry_fires_on_bad_fixture() {
    let report = analyze(&[("crates/flowdb/src/fixture.rs", "metric_bad.rs")]);
    let found = denies(&report, "metric-registry");
    assert_eq!(count_key(&found, "BadName"), 1, "{found:#?}");
    // Cross-type reuse is reported at both sites.
    assert_eq!(count_key(&found, "shared.metric"), 2, "{found:#?}");
    // The clean histogram is collected but not flagged.
    assert!(report
        .metric_table
        .metrics
        .contains_key("fixture.latency.micros"));
}

#[test]
fn metric_registry_checks_scope_names() {
    let report = analyze(&[("crates/flowdb/src/fixture.rs", "metric_scope_bad.rs")]);
    let found = denies(&report, "metric-registry");
    assert_eq!(count_key(&found, "Parse"), 1, "{found:#?}");
    // The scope's histogram and the counter clash: reported at both sites.
    assert_eq!(count_key(&found, "fixture.stage.micros"), 2, "{found:#?}");
    assert!(report
        .metric_table
        .metrics
        .contains_key("fixture.query.micros"));
    assert!(!report.metric_table.metrics.contains_key("Decoy.micros"));
}

#[test]
fn gates_fire_on_bad_fixture() {
    let report = analyze(&[("crates/flow/src/fixture.rs", "gates_bad.rs")]);
    let found = denies(&report, "gates");
    assert_eq!(count_key(&found, "unsafe"), 2, "{found:#?}");
    assert_eq!(count_key(&found, "ignore"), 1, "{found:#?}");
}

#[test]
fn clean_fixture_is_silent() {
    let report = analyze(&[("crates/flowdb/src/fixture.rs", "clean.rs")]);
    assert!(
        report.findings.is_empty(),
        "decoys leaked through: {:#?}",
        report.findings
    );
    assert!(!report.is_failure());
}

#[test]
fn every_pass_fired_somewhere() {
    // Meta-check: the corpus exercises every pass megalint runs, so
    // disabling any one of them — or adding one without a firing fixture —
    // fails here. Run the whole corpus together and require one finding per
    // pass id.
    let report = analyze(&[
        ("crates/datastore/src/f1.rs", "lock_cycle_a.rs"),
        ("crates/datastore/src/f2.rs", "lock_cycle_b.rs"),
        ("crates/flowdb/src/f3.rs", "metric_bad.rs"),
        ("crates/flow/src/f4.rs", "gates_bad.rs"),
    ]);
    for pass in all_passes() {
        assert!(
            !denies(&report, pass.id()).is_empty(),
            "pass {} produced no findings on the corpus",
            pass.id()
        );
    }
    // Findings come out in (file, line, col, pass, key) order, so two runs
    // over the same tree diff clean.
    let keys: Vec<_> = report.findings.iter().map(|f| f.sort_key()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings not in sort-key order");
}
