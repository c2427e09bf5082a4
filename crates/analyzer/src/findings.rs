//! Findings: what a pass reports, how it is sorted, and rendered. Every
//! finding fails the run (exit 1).

use std::fmt::Write as _;

/// One finding, anchored to a file position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The pass that produced it (`gates`, `lock-discipline`, …).
    pub pass: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Short stable key naming what was found (`unsafe`, `ignore`, a metric
    /// name, a lock edge `a->b`, …).
    pub key: String,
    /// Human-oriented explanation of this specific site.
    pub message: String,
}

impl Finding {
    /// Deterministic ordering: by file, then position, then pass and key —
    /// two runs over the same tree always diff clean.
    pub fn sort_key(&self) -> (String, u32, u32, &'static str, String) {
        (
            self.file.clone(),
            self.line,
            self.col,
            self.pass,
            self.key.clone(),
        )
    }

    /// `path:line:col: pass/key: message`
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}:{}: {}/{}: {}",
            self.file, self.line, self.col, self.pass, self.key, self.message
        )
    }
}

/// Escapes `s` as a JSON string body (without surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON array (used by `megalint --json`).
pub fn render_json_array(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"pass\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"key\":\"{}\",\"message\":\"{}\"}}",
            json_escape(f.pass),
            json_escape(&f.file),
            f.line,
            f.col,
            json_escape(&f.key),
            json_escape(&f.message)
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering() {
        let f = Finding {
            pass: "gates",
            file: "crates/flow/src/x.rs".into(),
            line: 3,
            col: 9,
            key: "unsafe".into(),
            message: "`unsafe` is banned".into(),
        };
        assert_eq!(
            f.render_text(),
            "crates/flow/src/x.rs:3:9: gates/unsafe: `unsafe` is banned"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let f = Finding {
            pass: "gates",
            file: "a.rs".into(),
            line: 1,
            col: 1,
            key: "k".into(),
            message: "say \"hi\"".into(),
        };
        let json = render_json_array(&[f]);
        assert!(json.contains("\\\"hi\\\""));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }
}
