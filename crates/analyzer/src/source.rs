//! Workspace discovery and per-file token context.
//!
//! [`Workspace::load`] walks the repository for `.rs` files (skipping
//! `target/`, VCS metadata, and analyzer test fixtures), lexes each one, and
//! precomputes the two classifications every pass needs:
//!
//! * a [`FileClass`] derived from the path (crate source, vendored shim,
//!   test/bench/example code, …), and
//! * the set of tokens inside `#[cfg(test)]` items, found by walking the
//!   token stream and brace-matching the attributed item — the lexer-aware
//!   replacement for the old `awk '/#\[cfg\(test\)\]/{exit}'` truncation,
//!   which silently assumed test modules were always last in the file.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Token, TokenKind};

/// Vendored stand-ins for crates.io packages (offline build): analyzed only
/// by the workspace-wide gates, not by the lock and metric passes.
pub const VENDORED_SHIMS: &[&str] = &["rand", "proptest", "criterion"];

/// Where a file sits in the workspace, which decides which passes apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/<name>/src/**` for a first-party crate.
    CrateSrc,
    /// Vendored shim source (`crates/rand`, `crates/proptest`, `crates/criterion`).
    ShimSrc,
    /// Test, bench, or example code (`tests/`, `benches/`, `examples/`).
    TestOrBench,
    /// The workspace umbrella `src/lib.rs`.
    RootSrc,
}

/// One lexed source file.
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// The crate the file belongs to (`flow`, `telemetry`, …), if under
    /// `crates/`.
    pub crate_name: Option<String>,
    /// Path-derived classification.
    pub class: FileClass,
    /// The file's text.
    pub text: String,
    /// The lexed token stream.
    pub tokens: Vec<Token>,
    /// `in_test[i]` — is token `i` inside a `#[cfg(test)]` item?
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Builds a source file from in-memory text (used by fixture tests).
    pub fn from_text(rel_path: &str, text: String) -> SourceFile {
        let tokens = lexer::lex(&text);
        let in_test = mark_test_regions(&text, &tokens);
        let (crate_name, class) = classify(rel_path);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name,
            class,
            text,
            tokens,
            in_test,
        }
    }
}

fn classify(rel_path: &str) -> (Option<String>, FileClass) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.first() == Some(&"crates") && parts.len() >= 3 {
        let krate = parts[1].to_string();
        let class = if parts[2] == "src" {
            if VENDORED_SHIMS.contains(&parts[1]) {
                FileClass::ShimSrc
            } else {
                FileClass::CrateSrc
            }
        } else {
            // crates/<name>/{tests,benches,examples}/…
            FileClass::TestOrBench
        };
        return (Some(krate), class);
    }
    if parts.first() == Some(&"src") {
        return (None, FileClass::RootSrc);
    }
    (None, FileClass::TestOrBench)
}

/// Marks every token inside an item carrying `#[cfg(test)]` (and, for
/// belt-and-braces, items under `#[test]`). The attributed item extends to
/// the end of its brace-balanced block, or to the first `;` at attribute
/// depth for block-less items.
fn mark_test_regions(src: &str, tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after_attr) = match_test_attr(src, tokens, i) {
            // Everything from the attribute through the end of the item is
            // test code.
            let item_end = end_of_item(tokens, after_attr);
            for flag in in_test.iter_mut().take(item_end).skip(i) {
                *flag = true;
            }
            i = item_end;
        } else {
            i += 1;
        }
    }
    in_test
}

/// If tokens at `i` begin `#[cfg(test)]` / `#[cfg(all(test, …))]` /
/// `#[test]` / `#[cfg(any(test, …))]`, returns the index one past the
/// closing `]` of the attribute.
fn match_test_attr(src: &str, tokens: &[Token], i: usize) -> Option<usize> {
    if tokens[i].kind != TokenKind::Punct(b'#') {
        return None;
    }
    if tokens.get(i + 1)?.kind != TokenKind::Punct(b'[') {
        return None;
    }
    // Scan to the matching `]`, remembering the idents seen inside.
    let mut depth = 1usize;
    let mut j = i + 2;
    let mut head: Option<&str> = None;
    let mut mentions_test = false;
    while j < tokens.len() && depth > 0 {
        match tokens[j].kind {
            TokenKind::Punct(b'[') => depth += 1,
            TokenKind::Punct(b']') => depth -= 1,
            TokenKind::Ident => {
                let text = tokens[j].text(src);
                if head.is_none() {
                    head = Some(text);
                }
                if text == "test" {
                    mentions_test = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    match head {
        Some("test") => Some(j),
        Some("cfg") if mentions_test => Some(j),
        _ => None,
    }
}

/// Returns the index one past the attributed item starting at `start`
/// (skipping further attributes), by brace-matching its first `{…}` block
/// or stopping at a top-level `;`.
fn end_of_item(tokens: &[Token], mut start: usize) -> usize {
    // Skip any further attributes (`#[…]`) stacked on the item.
    while start + 1 < tokens.len()
        && tokens[start].kind == TokenKind::Punct(b'#')
        && tokens[start + 1].kind == TokenKind::Punct(b'[')
    {
        let mut depth = 0usize;
        let mut j = start + 1;
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct(b'[') => depth += 1,
                TokenKind::Punct(b']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        start = j + 1;
    }
    let mut depth = 0usize;
    let mut j = start;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::Punct(b'{') => depth += 1,
            TokenKind::Punct(b'}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            TokenKind::Punct(b';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// The lexed workspace: every first-party `.rs` file, sorted by path so all
/// downstream output is deterministic.
pub struct Workspace {
    /// All files, ordered by `rel_path`.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `root` and lexes every `.rs` file. Directories named `target`,
    /// `.git`, or `fixtures` are skipped (the last so megalint's own
    /// known-bad corpus never trips the real gates).
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut paths: Vec<PathBuf> = Vec::new();
        walk(root, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            files.push(SourceFile::from_text(&rel, text));
        }
        Ok(Workspace { files })
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n\
                   fn also_live() {}\n";
        let f = SourceFile::from_text("crates/flow/src/a.rs", src.to_string());
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .filter(|(t, _)| t.text(&f.text) == "unwrap")
            .map(|(_, &in_test)| in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        // Code *after* the test module is live again — the old awk gate got
        // this wrong by truncating at the first marker.
        let also_live = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .find(|(t, _)| t.text(&f.text) == "also_live")
            .map(|(_, &in_test)| in_test);
        assert_eq!(also_live, Some(false));
    }

    #[test]
    fn test_attr_fn_is_marked() {
        let src = "#[test]\nfn t() { y.unwrap(); }\nfn live() {}\n";
        let f = SourceFile::from_text("crates/flow/src/a.rs", src.to_string());
        let unwrap_in_test = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .find(|(t, _)| t.text(&f.text) == "unwrap")
            .map(|(_, &b)| b);
        assert_eq!(unwrap_in_test, Some(true));
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let src = "#[cfg(feature = \"x\")]\nfn live() { y.unwrap(); }\n";
        let f = SourceFile::from_text("crates/flow/src/a.rs", src.to_string());
        let unwrap_in_test = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .find(|(t, _)| t.text(&f.text) == "unwrap")
            .map(|(_, &b)| b);
        assert_eq!(unwrap_in_test, Some(false));
    }

    #[test]
    fn classification() {
        let flow = SourceFile::from_text("crates/flow/src/lib.rs", String::new());
        assert_eq!(flow.class, FileClass::CrateSrc);
        assert_eq!(flow.crate_name.as_deref(), Some("flow"));
        let shim = SourceFile::from_text("crates/rand/src/lib.rs", String::new());
        assert_eq!(shim.class, FileClass::ShimSrc);
        let root = SourceFile::from_text("src/lib.rs", String::new());
        assert_eq!(root.class, FileClass::RootSrc);
        let test = SourceFile::from_text("tests/chaos_e2e.rs", String::new());
        assert_eq!(test.class, FileClass::TestOrBench);
        let bench = SourceFile::from_text("crates/bench/benches/e3.rs", String::new());
        assert_eq!(bench.class, FileClass::TestOrBench);
    }
}
