//! # megastream-analyzer (`megalint`)
//!
//! A zero-dependency static-analysis subsystem for the megastream
//! workspace. Some of the data plane's conventions are invisible to the
//! compiler and to clippy — a cycle-free lock graph, stable dotted metric
//! names, no `unsafe` or `#[ignore]` even where cargo's lint configuration
//! does not reach — and until this crate they were enforced by `grep`/`awk`
//! lines in `scripts/check.sh` that matched comments and string literals
//! and truncated files at the first `#[cfg(test)]`. `megalint` re-states
//! those conventions as lexer-accurate passes over the whole workspace:
//!
//! * [`passes::lock_discipline`] — the cross-file lock acquisition graph
//!   is proven acyclic, no sends under a lock;
//! * [`passes::metric_registry`] — dotted metric names, one type per name,
//!   DESIGN.md registry table in sync;
//! * [`passes::gates`] — token-accurate `unsafe` / `#[ignore]` bans.
//!
//! The panic-surface and determinism rules live in clippy's configuration
//! instead (DESIGN.md §12). Every finding fails the run. Findings are
//! sorted so two runs over the same tree are byte-identical — `--json`
//! output is diffable and CI-ready.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod findings;
pub mod lexer;
pub mod passes;
pub mod source;

use std::fmt::Write as _;
use std::path::Path;

use findings::Finding;
use passes::lock_discipline::LockGraph;
use passes::metric_registry::MetricTable;
use passes::{all_passes, Ctx};
use source::Workspace;

/// Everything one analysis run produced.
pub struct Report {
    /// Every finding, sorted.
    pub findings: Vec<Finding>,
    /// The lock acquisition graph, for the acyclicity proof in the output.
    pub lock_graph: LockGraph,
    /// The collected metric table (drives `--emit-metric-table`).
    pub metric_table: MetricTable,
    /// Number of files analyzed.
    pub files: usize,
}

impl Report {
    /// Does the run fail the gate?
    pub fn is_failure(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render_text());
            out.push('\n');
        }
        let cycle = self.lock_graph.find_cycle();
        let _ = writeln!(
            out,
            "lock graph: {} locks, {} edges — {}",
            self.lock_graph.locks.len(),
            self.lock_graph.edges.len(),
            match &cycle {
                None => "acyclic".to_string(),
                Some(c) => format!("CYCLE through {}", c.join(", ")),
            }
        );
        let _ = writeln!(
            out,
            "megalint: {} files, {} metrics; {} findings{}",
            self.files,
            self.metric_table.metrics.len(),
            self.findings.len(),
            if self.is_failure() {
                " — FAIL"
            } else {
                " — ok"
            }
        );
        out
    }

    /// Machine-readable report (stable field order, findings sorted).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"findings\":{},",
            findings::render_json_array(&self.findings)
        );
        let cycle = self.lock_graph.find_cycle();
        let _ = write!(
            out,
            "\"lock_graph\":{{\"locks\":[{}],\"edges\":[{}],\"acyclic\":{}}},",
            self.lock_graph
                .locks
                .iter()
                .map(|l| format!("\"{}\"", findings::json_escape(l)))
                .collect::<Vec<_>>()
                .join(","),
            self.lock_graph
                .edges
                .iter()
                .map(|((a, b), (file, line))| format!(
                    "{{\"held\":\"{}\",\"acquired\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
                    findings::json_escape(a),
                    findings::json_escape(b),
                    findings::json_escape(file),
                    line
                ))
                .collect::<Vec<_>>()
                .join(","),
            cycle.is_none()
        );
        let _ = write!(
            out,
            "\"metrics\":[{}],",
            self.metric_table
                .metrics
                .iter()
                .flat_map(
                    |(name, types)| types.iter().map(move |(ty, (file, line))| format!(
                        "{{\"name\":\"{}\",\"type\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
                        findings::json_escape(name),
                        ty,
                        findings::json_escape(file),
                        line
                    ))
                )
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = write!(
            out,
            "\"summary\":{{\"files\":{},\"findings\":{},\"ok\":{}}}",
            self.files,
            self.findings.len(),
            !self.is_failure()
        );
        out.push('}');
        out
    }
}

/// Runs every pass over the workspace at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    let ws = Workspace::load(root)?;
    let design_md = std::fs::read_to_string(root.join("DESIGN.md")).ok();
    Ok(run_with(&Ctx { ws: &ws, design_md }))
}

/// Runs every pass over an already-lexed context (used by fixture tests).
pub fn run_with(ctx: &Ctx<'_>) -> Report {
    let mut findings = Vec::new();
    for pass in all_passes() {
        pass.run(ctx, &mut findings);
    }
    findings.sort_by_key(|f| f.sort_key());
    let (lock_graph, _) = passes::lock_discipline::build_graph(ctx);
    let metric_table = passes::metric_registry::collect(ctx, &mut Vec::new());
    Report {
        findings,
        lock_graph,
        metric_table,
        files: ctx.ws.files.len(),
    }
}
