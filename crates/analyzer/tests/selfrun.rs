//! Workspace self-run: the analyzer's own acceptance test.
//!
//! Runs every pass over the real repository (two directories up from this
//! crate) and requires the gate to pass: zero findings and an acyclic lock
//! graph. This is the test that breaks when someone adds `unsafe`, an
//! `#[ignore]`d test, a lock-order cycle or an ill-formed metric name.

use std::path::Path;

use megastream_analyzer::run;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_is_clean() {
    let report = run(workspace_root()).expect("analyzer run");
    assert!(
        report.findings.is_empty(),
        "megalint findings:\n{:#?}",
        report.findings
    );
    assert!(!report.is_failure());
    // Sanity: this really scanned the workspace, not an empty directory.
    assert!(report.files > 50, "only {} files scanned", report.files);
}

#[test]
fn lock_graph_is_acyclic_and_nonempty() {
    let report = run(workspace_root()).expect("analyzer run");
    assert!(
        !report.lock_graph.locks.is_empty(),
        "the telemetry registry and trace store are lock-sharded; finding \
         no locks at all means the scanner broke"
    );
    assert_eq!(
        report.lock_graph.find_cycle(),
        None,
        "lock acquisition-order graph has a cycle"
    );
}

#[test]
fn two_runs_are_byte_identical() {
    let a = run(workspace_root()).expect("run a");
    let b = run(workspace_root()).expect("run b");
    assert_eq!(
        a.render_json(),
        b.render_json(),
        "two runs must be byte-identical"
    );
}
