//! Pass `gates`: lexer-aware replacements for the `scripts/check.sh` grep
//! gates.
//!
//! The three historical gates were byte-pattern greps: `unsafe ` (which a
//! string literal or comment could false-positive, and `unsafe{` could
//! false-negative), `#\[ignore` (same), and an awk scan for
//! `.unwrap()`/`.expect(` in telemetry that truncated each file at the
//! *first* `#[cfg(test)]` marker — so any code after a test module was
//! simply never checked. This pass re-states the first two in token space;
//! clippy's `unwrap_used` and `expect_used` took over the telemetry-unwrap
//! gate (DESIGN.md §12).

use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::passes::{report, Ctx, Pass};

/// See module docs.
pub struct Gates;

impl Pass for Gates {
    fn id(&self) -> &'static str {
        "gates"
    }

    fn summary(&self) -> &'static str {
        "workspace-wide `unsafe` and `#[ignore]` bans (token-accurate check.sh gates)"
    }

    fn explain(&self) -> &'static str {
        "WHAT: flags (a) the `unsafe` keyword anywhere in the workspace — first-party \
crates, vendored shims, tests, benches, and examples alike (`forbid(unsafe_code)` \
attributes don't trip it: `unsafe_code` is a different token); (b) the `#[ignore]` \
attribute (including `#[ignore = \"reason\"]`) anywhere.\n\
WHY: every crate declares `#![forbid(unsafe_code)]` — the gate catches the attribute \
being *removed* along with unsafe being added, which the compiler alone would accept. \
`#[ignore]` is banned because an ignored test is a silently-shrinking test suite: the \
chaos/parallel equivalence suites are the correctness proof, and PR 2 made their \
non-ignoring a checked invariant. Both were previously greps that matched inside \
comments and string literals; this pass only sees code tokens, so writing the word \
`unsafe` in a doc comment (or in this very explain string) is fine. The pass also \
scans perfbench/, which has a Cargo workspace of its own."
    }

    fn run(&self, ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
        for file in &ctx.ws.files {
            let toks = &file.tokens;
            for i in 0..toks.len() {
                if toks[i].kind == TokenKind::Ident && toks[i].text(&file.text) == "unsafe" {
                    report(
                        out,
                        file,
                        i,
                        self.id(),
                        "unsafe",
                        "`unsafe` is banned workspace-wide (every crate forbids unsafe_code)"
                            .to_string(),
                    );
                }
                if toks[i].kind == TokenKind::Punct(b'#')
                    && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Punct(b'['))
                    && toks.get(i + 2).is_some_and(|t| {
                        t.kind == TokenKind::Ident && t.text(&file.text) == "ignore"
                    })
                {
                    report(
                        out,
                        file,
                        i,
                        self.id(),
                        "ignore",
                        "`#[ignore]`d tests are not allowed: an ignored test is a silently \
                         shrinking suite"
                            .to_string(),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SourceFile, Workspace};

    fn run_on(path: &str, src: &str) -> Vec<Finding> {
        let ws = Workspace {
            files: vec![SourceFile::from_text(path, src.to_string())],
        };
        let ctx = Ctx {
            ws: &ws,
            design_md: None,
        };
        let mut out = Vec::new();
        Gates.run(&ctx, &mut out);
        out
    }

    #[test]
    fn flags_unsafe_code_tokens_only() {
        let src = "// unsafe in a comment\nlet s = \"unsafe \";\n\
                   #![forbid(unsafe_code)]\nunsafe fn f() {}";
        let found = run_on("crates/flow/src/a.rs", src);
        let unsafe_hits: Vec<_> = found.iter().filter(|f| f.key == "unsafe").collect();
        assert_eq!(unsafe_hits.len(), 1);
        assert_eq!(unsafe_hits[0].line, 4);
    }

    #[test]
    fn unsafe_block_without_space_is_caught() {
        // The old `grep 'unsafe '` missed this spelling entirely.
        let found = run_on("tests/x.rs", "fn f() { unsafe{ } }");
        assert_eq!(found.iter().filter(|f| f.key == "unsafe").count(), 1);
    }

    #[test]
    fn flags_ignore_attribute_even_in_tests() {
        let src = "#[test]\n#[ignore = \"slow\"]\nfn t() {}";
        let found = run_on("tests/x.rs", src);
        assert_eq!(found.iter().filter(|f| f.key == "ignore").count(), 1);
    }

    #[test]
    fn ignore_in_string_is_fine() {
        let found = run_on("tests/x.rs", "let s = \"#[ignore]\";");
        assert!(found.is_empty());
    }
}
