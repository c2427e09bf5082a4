//! The pass framework: a pass walks the lexed workspace and reports
//! [`Finding`]s. Passes are deliberately independent — each one reads the
//! token streams directly and owns its own scoping rules, so one pass never
//! changes another's output.

use crate::findings::Finding;
use crate::source::{SourceFile, Workspace};

pub mod gates;
pub mod lock_discipline;
pub mod metric_registry;

/// Context shared by all passes in one run.
pub struct Ctx<'a> {
    /// The lexed workspace.
    pub ws: &'a Workspace,
    /// Contents of `DESIGN.md` at the workspace root, if present (the
    /// metric-registry pass cross-checks its generated table).
    pub design_md: Option<String>,
}

/// One analysis pass.
pub trait Pass {
    /// Stable id used on the CLI and in findings.
    fn id(&self) -> &'static str;
    /// One-line summary shown by `--list-passes`.
    fn summary(&self) -> &'static str;
    /// The full rule description shown by `--explain <pass>`: what is
    /// flagged, where, and *why the rule exists* in this codebase.
    fn explain(&self) -> &'static str;
    /// Runs the pass, appending its findings to `out`.
    fn run(&self, ctx: &Ctx<'_>, out: &mut Vec<Finding>);
}

/// All passes, in canonical order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(lock_discipline::LockDiscipline),
        Box::new(metric_registry::MetricRegistry),
        Box::new(gates::Gates),
    ]
}

/// Is token `i` the identifier `name` (outside test code)?
pub(crate) fn live_ident(file: &SourceFile, i: usize, name: &str) -> bool {
    !file.in_test[i]
        && file.tokens[i].kind == crate::lexer::TokenKind::Ident
        && file.tokens[i].text(&file.text) == name
}

/// Pushes a finding anchored at token `i` of `file`.
pub(crate) fn report(
    out: &mut Vec<Finding>,
    file: &SourceFile,
    i: usize,
    pass: &'static str,
    key: &str,
    message: String,
) {
    let t = &file.tokens[i];
    out.push(Finding {
        pass,
        file: file.rel_path.clone(),
        line: t.line,
        col: t.col,
        key: key.to_string(),
        message,
    });
}
