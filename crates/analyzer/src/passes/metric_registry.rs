//! Pass `metric-registry`: metric names are a stable, typed, documented
//! interface.
//!
//! The ops plane (PR 6) binds health rules, windowed quantiles, and
//! dashboards to dotted metric names (`hierarchy.pump.workers`), so a
//! renamed counter or a name reused at a different type silently breaks
//! alerting. This pass collects every static registration/lookup site —
//! including telemetry scopes, each of which times into the histogram
//! `<name>.micros` — enforces the naming convention, denies cross-type
//! reuse, and cross-checks the generated registry table in `DESIGN.md` so
//! the documentation provably matches the code.

use std::collections::BTreeMap;

use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::passes::{live_ident, report, Ctx, Pass};
use crate::source::FileClass;

/// See module docs.
pub struct MetricRegistry;

/// Markers delimiting the generated table in `DESIGN.md`.
pub const TABLE_BEGIN: &str = "<!-- megalint:metric-registry:begin -->";
/// Closing marker.
pub const TABLE_END: &str = "<!-- megalint:metric-registry:end -->";

/// One collected metric: name → (type, first site, all types seen).
#[derive(Debug, Default)]
pub struct MetricTable {
    /// name → per-type first site `(file, line)`.
    pub metrics: BTreeMap<String, BTreeMap<&'static str, (String, u32)>>,
}

impl MetricTable {
    /// Renders the canonical markdown table (sorted by name) that belongs
    /// between the DESIGN.md markers. `megalint --emit-metric-table` prints
    /// exactly this.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| metric | type | first registered at |\n");
        out.push_str("|---|---|---|\n");
        for (name, types) in &self.metrics {
            for (ty, (file, line)) in types {
                out.push_str(&format!("| `{name}` | {ty} | `{file}:{line}` |\n"));
            }
        }
        out
    }
}

/// Registration methods: `(method, metric type, suffix of the registered
/// name)`. Scopes — `scope("a.b")`, `scope_with`, `root` — time into the
/// histogram `a.b.micros`; the scope name itself is a span and profile-path
/// name, so it must follow the convention too.
const REGISTRATIONS: &[(&str, &str, &str)] = &[
    ("counter", "counter", ""),
    ("gauge", "gauge", ""),
    ("histogram", "histogram", ""),
    ("scope", "histogram", ".micros"),
    ("scope_with", "histogram", ".micros"),
    ("root", "histogram", ".micros"),
];

impl Pass for MetricRegistry {
    fn id(&self) -> &'static str {
        "metric-registry"
    }

    fn summary(&self) -> &'static str {
        "dotted metric-name convention, cross-type reuse, DESIGN.md registry table sync"
    }

    fn explain(&self) -> &'static str {
        "WHAT: collects every static `counter(\"…\")` / `gauge(\"…\")` / `histogram(\"…\")` \
call with a literal first argument in non-test crate sources (the telemetry crate itself \
is excluded — its toy names are API examples), plus every scope — `scope(\"…\")`, \
`scope_with(\"…\", …)`, `root(\"…\")` — as the histogram `<name>.micros` it times \
into, then enforces: (a) names, scope names included, follow the \
`component.sub.name` convention — at least two lowercase dot-separated segments of \
`[a-z][a-z0-9_]*`; (b) a name is never used at two different metric types (a counter in \
one file, a gauge in another — reads through `Snapshot` count too); (c) the generated \
registry table between the `megalint:metric-registry` markers in DESIGN.md exactly \
matches the collected set (regenerate with `megalint --emit-metric-table`).\n\
WHY: the time-series sampler, health rules, and dashboards (PR 6) address metrics by \
name string; the compiler sees none of it. A drifted name or type is a silent \
observability outage — exactly the class of interface the paper's P1–P4 stack assumes \
is stable. Dynamic names (`format!`-built, per-region labels) are out of lexical reach \
and are governed by the runtime type check in the registry instead."
    }

    fn run(&self, ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
        let table = collect(ctx, out);
        // Cross-type reuse.
        for (name, types) in &table.metrics {
            if types.len() > 1 {
                let kinds: Vec<&str> = types.keys().copied().collect();
                for (ty, (file, line)) in types {
                    out.push(Finding {
                        pass: self.id(),
                        file: file.clone(),
                        line: *line,
                        col: 1,
                        key: name.clone(),
                        message: format!(
                            "metric `{name}` used as {} here but also as {}: one name, one type",
                            ty,
                            kinds
                                .iter()
                                .filter(|k| *k != ty)
                                .copied()
                                .collect::<Vec<_>>()
                                .join("/")
                        ),
                    });
                }
            }
        }
        // DESIGN.md cross-check.
        check_design_table(ctx, &table, out);
    }
}

/// Collects the metric table, reporting convention violations as findings.
pub fn collect(ctx: &Ctx<'_>, out: &mut Vec<Finding>) -> MetricTable {
    let mut table = MetricTable::default();
    for file in &ctx.ws.files {
        let in_scope = matches!(file.class, FileClass::CrateSrc | FileClass::RootSrc)
            && file.crate_name.as_deref() != Some("telemetry");
        if !in_scope {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            for &(method, ty, suffix) in REGISTRATIONS {
                if live_ident(file, i, method)
                    && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Punct(b'('))
                    && toks.get(i + 2).map(|t| t.kind) == Some(TokenKind::StrLit)
                {
                    let name = toks[i + 2].str_contents(&file.text).to_string();
                    if !well_formed(&name) {
                        let what = if suffix.is_empty() { "metric" } else { "scope" };
                        report(
                            out,
                            file,
                            i + 2,
                            "metric-registry",
                            &name,
                            format!(
                                "{what} name `{name}` violates the `component.sub.name` \
                                 convention (≥2 lowercase dot-separated segments)"
                            ),
                        );
                    }
                    table
                        .metrics
                        .entry(format!("{name}{suffix}"))
                        .or_default()
                        .entry(ty)
                        .or_insert((file.rel_path.clone(), toks[i + 2].line));
                }
            }
        }
    }
    table
}

fn well_formed(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|s| {
            let mut chars = s.chars();
            chars.next().is_some_and(|c| c.is_ascii_lowercase())
                && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

fn check_design_table(ctx: &Ctx<'_>, table: &MetricTable, out: &mut Vec<Finding>) {
    let Some(design) = &ctx.design_md else {
        return; // fixture runs have no DESIGN.md; the self-run does.
    };
    let expected = table.render_markdown();
    let actual = design
        .split_once(TABLE_BEGIN)
        .and_then(|(_, rest)| rest.split_once(TABLE_END))
        .map(|(body, _)| body.trim());
    match actual {
        None => out.push(Finding {
            pass: "metric-registry",
            file: "DESIGN.md".to_string(),
            line: 1,
            col: 1,
            key: "table-missing".to_string(),
            message: format!(
                "DESIGN.md has no `{TABLE_BEGIN} … {TABLE_END}` block; add one and paste the \
                 output of `megalint --emit-metric-table`"
            ),
        }),
        Some(body) if body != expected.trim() => out.push(Finding {
            pass: "metric-registry",
            file: "DESIGN.md".to_string(),
            line: 1,
            col: 1,
            key: "table-stale".to_string(),
            message: "DESIGN.md metric registry table does not match the code; regenerate \
                      with `megalint --emit-metric-table`"
                .to_string(),
        }),
        Some(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SourceFile, Workspace};

    fn run_on(files: Vec<(&str, &str)>, design: Option<&str>) -> (Vec<Finding>, MetricTable) {
        let ws = Workspace {
            files: files
                .into_iter()
                .map(|(p, s)| SourceFile::from_text(p, s.to_string()))
                .collect(),
        };
        let ctx = Ctx {
            ws: &ws,
            design_md: design.map(str::to_string),
        };
        let mut out = Vec::new();
        MetricRegistry.run(&ctx, &mut out);
        let table = collect(&ctx, &mut Vec::new());
        (out, table)
    }

    #[test]
    fn collects_and_checks_convention() {
        let (findings, table) = run_on(
            vec![(
                "crates/flowdb/src/db.rs",
                "fn f(t: &Telemetry) { t.counter(\"flowdb.rows_total\").add(1); \
                 t.gauge(\"BadName\").set(1); }",
            )],
            None,
        );
        assert!(table.metrics.contains_key("flowdb.rows_total"));
        let bad: Vec<_> = findings.iter().filter(|f| f.key == "BadName").collect();
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn single_segment_names_violate_convention() {
        let (findings, _) = run_on(
            vec![(
                "crates/flowdb/src/db.rs",
                "fn f(t: &Telemetry) { t.counter(\"rows\").add(1); }",
            )],
            None,
        );
        assert_eq!(findings.iter().filter(|f| f.key == "rows").count(), 1);
    }

    #[test]
    fn scopes_register_their_micros_histogram() {
        let (findings, table) = run_on(
            vec![(
                "crates/flowdb/src/db.rs",
                "fn f(t: &Telemetry) { let _a = t.scope(\"flowdb.plan\"); \
                 let _b = t.root(\"flowdb.query\"); \
                 let _c = t.scope_with(\"flowdb.hot\", &h); let _d = t.scope(\"plan\"); }",
            )],
            None,
        );
        for name in [
            "flowdb.plan.micros",
            "flowdb.query.micros",
            "flowdb.hot.micros",
        ] {
            assert!(table.metrics[name].contains_key("histogram"), "{name}");
        }
        // `plan.micros` would pass the two-segment rule; the scope name
        // itself must not.
        assert_eq!(findings.iter().filter(|f| f.key == "plan").count(), 1);
    }

    #[test]
    fn cross_type_reuse_is_denied() {
        let (findings, _) = run_on(
            vec![
                (
                    "crates/flowdb/src/a.rs",
                    "fn f(t: &T) { t.counter(\"x.shared\").add(1); }",
                ),
                (
                    "crates/manager/src/b.rs",
                    "fn g(t: &T) { t.gauge(\"x.shared\").set(1); }",
                ),
            ],
            None,
        );
        assert_eq!(findings.iter().filter(|f| f.key == "x.shared").count(), 2);
    }

    #[test]
    fn telemetry_crate_and_tests_are_excluded() {
        let (findings, table) = run_on(
            vec![
                (
                    "crates/telemetry/src/lib.rs",
                    "fn f(t: &T) { t.counter(\"x\").add(1); }",
                ),
                (
                    "crates/flowdb/src/a.rs",
                    "#[cfg(test)]\nmod tests { fn t(tel: &T) { tel.counter(\"y\").add(1); } }",
                ),
            ],
            None,
        );
        assert!(findings.is_empty());
        assert!(table.metrics.is_empty());
    }

    #[test]
    fn design_table_must_match() {
        let src = "fn f(t: &T) { t.counter(\"a.b\").add(1); }";
        let files = vec![("crates/flowdb/src/a.rs", src)];
        let (findings, table) = run_on(files.clone(), Some("# doc\nno markers here\n"));
        assert!(findings.iter().any(|f| f.key == "table-missing"));
        let good = format!(
            "# doc\n{}\n{}\n{}\n",
            TABLE_BEGIN,
            table.render_markdown().trim(),
            TABLE_END
        );
        let (findings, _) = run_on(files.clone(), Some(&good));
        assert!(findings.is_empty(), "{findings:?}");
        let stale = format!("# doc\n{TABLE_BEGIN}\n| wrong |\n{TABLE_END}\n");
        let (findings, _) = run_on(files, Some(&stale));
        assert!(findings.iter().any(|f| f.key == "table-stale"));
    }
}
