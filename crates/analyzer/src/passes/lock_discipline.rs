//! Pass `lock-discipline`: the cross-file lock acquisition-order graph must
//! be acyclic, and no lock may be held across a channel send.
//!
//! The analysis is lexical but state-aware: within each function it tracks
//! which lock guards are live (a `let`-bound guard lives to the end of its
//! enclosing block or an explicit `drop(guard)`; an unbound temporary lives
//! to the end of its statement). Acquiring lock B while guard A is live
//! records the ordered edge `A -> B`; the union of edges across the whole
//! workspace forms the acquisition-order graph, and a cycle in that graph
//! is a potential deadlock (two threads taking the cycle from different
//! entry points). Lock identity is the receiver name (`self.shards[i]
//! .lock()` → `shards`), which deliberately over-approximates: distinct
//! locks that share a field name collapse into one node, which can create
//! false cycles but never miss a real one within the naming convention.

use std::collections::{BTreeMap, BTreeSet};

use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::passes::{Ctx, Pass};
use crate::source::{FileClass, SourceFile};

/// See module docs.
pub struct LockDiscipline;

/// The workspace's acquisition-order graph, exposed so the run report can
/// *prove* acyclicity rather than just not finding cycles.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Every lock name that is ever acquired.
    pub locks: BTreeSet<String>,
    /// `(held, acquired)` → first site that creates the edge.
    pub edges: BTreeMap<(String, String), (String, u32)>,
}

impl LockGraph {
    /// Kahn's algorithm: returns `None` if acyclic, else one cycle's nodes.
    pub fn find_cycle(&self) -> Option<Vec<String>> {
        let mut out_edges: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut in_deg: BTreeMap<&str, usize> = BTreeMap::new();
        for name in &self.locks {
            in_deg.entry(name).or_insert(0);
        }
        for (held, acquired) in self.edges.keys() {
            out_edges.entry(held).or_default().push(acquired);
            *in_deg.entry(acquired).or_insert(0) += 1;
            in_deg.entry(held).or_insert(0);
        }
        let mut queue: Vec<&str> = in_deg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut removed = 0usize;
        while let Some(n) = queue.pop() {
            removed += 1;
            for &m in out_edges.get(n).into_iter().flatten() {
                let d = in_deg.get_mut(m).expect("edge target has a degree");
                *d -= 1;
                if *d == 0 {
                    queue.push(m);
                }
            }
        }
        if removed == in_deg.len() {
            return None;
        }
        // Leftover nodes all sit on or downstream of a cycle; report them
        // sorted for determinism.
        Some(
            in_deg
                .iter()
                .filter(|(_, &d)| d > 0)
                .map(|(&n, _)| n.to_string())
                .collect(),
        )
    }
}

/// A live guard inside the per-function scan.
struct Guard {
    lock: String,
    /// Variable it is bound to, if `let`-bound (killable by `drop(var)`).
    var: Option<String>,
    /// Brace depth at the binding; the guard dies when depth drops below.
    depth: usize,
    /// Unbound temporary: dies at the next `;`.
    temporary: bool,
}

impl Pass for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn summary(&self) -> &'static str {
        "acquisition-order cycles (deadlock risk) and locks held across channel sends"
    }

    fn explain(&self) -> &'static str {
        "WHAT: tracks `.lock()` / `.read()` / `.write()` (zero-argument, so io::Read/Write \
calls don't count) acquisitions per function in all first-party crate sources, models \
guard lifetimes (let-bound → end of block or drop(); temporary → end of statement), and \
builds the workspace-wide acquisition-order graph. Deny findings: (a) a cycle in the \
graph — potential deadlock; (b) nested acquisition of the same lock name — guaranteed \
self-deadlock for a Mutex; (c) a channel `.send(…)`/`.try_send(…)` while any guard is \
live — a blocking send under a lock couples the lock to channel backpressure.\n\
WHY: the data plane is parallel (PR 4) and the telemetry registry and trace store are \
lock-sharded by design (16 name-hashed shards, PR 1/2). Today every function takes one \
shard at a time; the moment someone adds a second nested shard lookup or logs under a \
guard, the ordering discipline exists only in review comments. The graph makes it a \
machine-checked invariant, and `megalint` prints it (`locks/edges/acyclic`) so the proof \
is visible, not just the absence of an error."
    }

    fn run(&self, ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
        let (graph, mut local_findings) = build_graph(ctx);
        out.append(&mut local_findings);
        if let Some(cycle) = graph.find_cycle() {
            let members: BTreeSet<&str> = cycle.iter().map(String::as_str).collect();
            for ((held, acquired), (file, line)) in &graph.edges {
                if members.contains(held.as_str()) && members.contains(acquired.as_str()) {
                    out.push(Finding {
                        pass: self.id(),
                        file: file.clone(),
                        line: *line,
                        col: 1,
                        key: format!("{held}->{acquired}"),
                        message: format!(
                            "lock acquisition edge `{held}` -> `{acquired}` participates in a \
                             cycle ({}): potential deadlock",
                            cycle.join(", ")
                        ),
                    });
                }
            }
        }
    }
}

/// Scans the workspace and returns the acquisition graph plus the nested
/// same-lock / send-under-lock findings discovered along the way.
pub fn build_graph(ctx: &Ctx<'_>) -> (LockGraph, Vec<Finding>) {
    let mut graph = LockGraph::default();
    let mut findings = Vec::new();
    for file in &ctx.ws.files {
        if !matches!(file.class, FileClass::CrateSrc | FileClass::RootSrc) {
            continue;
        }
        scan_file(file, &mut graph, &mut findings);
    }
    (graph, findings)
}

const LOCK_METHODS: &[&str] = &["lock", "read", "write"];
const SEND_METHODS: &[&str] = &["send", "try_send"];
/// Receivers that are locks in name only (stdio handles are per-thread and
/// never part of the data plane's ordering discipline).
const IGNORED_RECEIVERS: &[&str] = &["stdout", "stderr", "stdin"];

fn scan_file(file: &SourceFile, graph: &mut LockGraph, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    for i in 0..toks.len() {
        if file.in_test[i] {
            continue;
        }
        match toks[i].kind {
            TokenKind::Punct(b'{') => depth += 1,
            TokenKind::Punct(b'}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            TokenKind::Punct(b';') => {
                guards.retain(|g| !g.temporary);
            }
            TokenKind::Ident => {
                let text = toks[i].text(&file.text);
                // drop(var) kills the named guard.
                if text == "drop" && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Punct(b'('))
                {
                    if let Some(var) = toks.get(i + 2).map(|t| t.text(&file.text)) {
                        guards.retain(|g| g.var.as_deref() != Some(var));
                    }
                }
                let is_dot_call = i > 0
                    && toks[i - 1].kind == TokenKind::Punct(b'.')
                    && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Punct(b'('));
                if is_dot_call && SEND_METHODS.contains(&text) {
                    for g in &guards {
                        findings.push(Finding {
                            pass: "lock-discipline",
                            file: file.rel_path.clone(),
                            line: toks[i].line,
                            col: toks[i].col,
                            key: format!("{}->send", g.lock),
                            message: format!(
                                "channel `.{text}(…)` while holding lock `{}`: a blocking \
                                 send under a lock couples lock hold time to channel \
                                 backpressure",
                                g.lock
                            ),
                        });
                    }
                }
                let zero_arg = toks.get(i + 2).map(|t| t.kind) == Some(TokenKind::Punct(b')'));
                if is_dot_call && zero_arg && LOCK_METHODS.contains(&text) {
                    if let Some(lock) = receiver_name(file, i - 1) {
                        if IGNORED_RECEIVERS.contains(&lock.as_str()) {
                            continue;
                        }
                        graph.locks.insert(lock.clone());
                        for g in &guards {
                            if g.lock == lock {
                                findings.push(Finding {
                                    pass: "lock-discipline",
                                    file: file.rel_path.clone(),
                                    line: toks[i].line,
                                    col: toks[i].col,
                                    key: format!("{lock}->{lock}"),
                                    message: format!(
                                        "nested acquisition of lock `{lock}` while already \
                                         held: self-deadlock for a Mutex"
                                    ),
                                });
                            } else {
                                graph
                                    .edges
                                    .entry((g.lock.clone(), lock.clone()))
                                    .or_insert((file.rel_path.clone(), toks[i].line));
                            }
                        }
                        let (var, temporary) = binding_of(file, i);
                        guards.push(Guard {
                            lock,
                            var,
                            depth,
                            temporary,
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// The receiver name of a method call whose `.` is at token `dot`:
/// the nearest identifier scanning left, skipping one balanced `(…)` or
/// `[…]` group (so `self.shards[i].lock()` and `self.shard(name).lock()`
/// both yield `shards`/`shard`).
fn receiver_name(file: &SourceFile, dot: usize) -> Option<String> {
    let toks = &file.tokens;
    let mut j = dot.checked_sub(1)?;
    for _ in 0..2 {
        match toks[j].kind {
            TokenKind::Punct(b')') | TokenKind::Punct(b']') => {
                let open = match toks[j].kind {
                    TokenKind::Punct(b')') => b'(',
                    _ => b'[',
                };
                let close = match toks[j].kind {
                    TokenKind::Punct(b')') => b')',
                    _ => b']',
                };
                let mut bal = 1usize;
                while bal > 0 {
                    j = j.checked_sub(1)?;
                    match toks[j].kind {
                        TokenKind::Punct(c) if c == close => bal += 1,
                        TokenKind::Punct(c) if c == open => bal -= 1,
                        _ => {}
                    }
                }
                j = j.checked_sub(1)?;
            }
            TokenKind::Ident => return Some(toks[j].text(&file.text).to_string()),
            TokenKind::Punct(b'.') => j = j.checked_sub(1)?,
            _ => return None,
        }
    }
    (toks[j].kind == TokenKind::Ident).then(|| toks[j].text(&file.text).to_string())
}

/// Whether the acquisition at token `i` is `let`-bound within its statement
/// and to which variable. Scans back to the start of the statement.
fn binding_of(file: &SourceFile, i: usize) -> (Option<String>, bool) {
    let toks = &file.tokens;
    let mut j = i;
    let mut eq_pos: Option<usize> = None;
    while j > 0 {
        j -= 1;
        match toks[j].kind {
            TokenKind::Punct(b';') | TokenKind::Punct(b'{') | TokenKind::Punct(b'}') => break,
            TokenKind::Punct(b'=')
                if toks.get(j + 1).map(|t| t.kind) != Some(TokenKind::Punct(b'='))
                    && toks.get(j.wrapping_sub(1)).map(|t| t.kind)
                        != Some(TokenKind::Punct(b'=')) =>
            {
                eq_pos = Some(j);
            }
            TokenKind::Ident if toks[j].text(&file.text) == "let" => {
                // Variable = last ident before the `=` (handles `let mut g`,
                // `if let Ok(g) =`, `while let Some(g) =`).
                let Some(eq) = eq_pos else {
                    return (None, true);
                };
                let mut k = eq;
                while k > j {
                    k -= 1;
                    if toks[k].kind == TokenKind::Ident {
                        let name = toks[k].text(&file.text);
                        if name != "mut" {
                            return (Some(name.to_string()), false);
                        }
                    }
                }
                return (None, false);
            }
            _ => {}
        }
    }
    (None, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    fn analyze(src: &str) -> (LockGraph, Vec<Finding>) {
        let ws = Workspace {
            files: vec![SourceFile::from_text(
                "crates/telemetry/src/x.rs",
                src.to_string(),
            )],
        };
        let ctx = Ctx {
            ws: &ws,
            design_md: None,
        };
        build_graph(&ctx)
    }

    #[test]
    fn single_locks_make_no_edges() {
        let src = "fn f(&self) { let g = self.reg.lock(); g.insert(1); }\n\
                   fn h(&self) { let g = self.store.lock(); }";
        let (graph, findings) = analyze(src);
        assert_eq!(graph.locks.len(), 2);
        assert!(graph.edges.is_empty());
        assert!(findings.is_empty());
        assert!(graph.find_cycle().is_none());
    }

    #[test]
    fn nested_locks_make_an_edge() {
        let src = "fn f(&self) { let a = self.reg.lock(); let b = self.store.lock(); }";
        let (graph, _) = analyze(src);
        assert!(graph
            .edges
            .contains_key(&("reg".to_string(), "store".to_string())));
        assert!(graph.find_cycle().is_none());
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let src = "fn f(&self) { let a = self.reg.lock(); let b = self.store.lock(); }\n\
                   fn g(&self) { let b = self.store.lock(); let a = self.reg.lock(); }";
        let (graph, _) = analyze(src);
        let cycle = graph.find_cycle().expect("cycle");
        assert!(cycle.contains(&"reg".to_string()));
        assert!(cycle.contains(&"store".to_string()));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn f(&self) { let a = self.reg.lock(); drop(a); \
                   let b = self.store.lock(); }";
        let (graph, _) = analyze(src);
        assert!(graph.edges.is_empty());
    }

    #[test]
    fn block_end_releases_the_guard() {
        let src = "fn f(&self) { { let a = self.reg.lock(); } let b = self.store.lock(); }";
        let (graph, _) = analyze(src);
        assert!(graph.edges.is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn f(&self) { self.reg.lock().insert(1); let b = self.store.lock(); }";
        let (graph, _) = analyze(src);
        assert!(graph.edges.is_empty());
    }

    #[test]
    fn same_lock_nested_is_flagged() {
        let src = "fn f(&self) { let a = self.reg.lock(); let b = self.reg.lock(); }";
        let (_, findings) = analyze(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].key, "reg->reg");
    }

    #[test]
    fn send_under_lock_is_flagged() {
        let src = "fn f(&self) { let a = self.reg.lock(); self.tx.send(1); }";
        let (_, findings) = analyze(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].key, "reg->send");
    }

    #[test]
    fn send_after_drop_is_fine() {
        let src = "fn f(&self) { let a = self.reg.lock(); drop(a); self.tx.send(1); }";
        let (_, findings) = analyze(src);
        assert!(findings.is_empty());
    }

    #[test]
    fn indexed_and_called_receivers_resolve() {
        let src = "fn f(&self) { let a = self.shards[i].lock(); \
                   let b = self.shard(name).lock(); }";
        let (graph, _) = analyze(src);
        assert!(graph.locks.contains("shards"));
        assert!(graph.locks.contains("shard"));
    }

    #[test]
    fn io_write_with_args_is_not_a_lock() {
        let src = "fn f(&self) { out.write(buf); file.read(buf); }";
        let (graph, _) = analyze(src);
        assert!(graph.locks.is_empty());
    }

    #[test]
    fn if_let_bound_guard_is_tracked() {
        let src = "fn f(&self) { if let Ok(g) = self.reg.lock() { \
                   let b = self.store.lock(); } }";
        let (graph, _) = analyze(src);
        assert!(graph
            .edges
            .contains_key(&("reg".to_string(), "store".to_string())));
    }
}
