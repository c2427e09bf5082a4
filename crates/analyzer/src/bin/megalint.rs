//! `megalint` — the workspace static-analysis gate.
//!
//! ```text
//! megalint                     # analyze ., human output
//! megalint --json              # machine-readable, stable ordering
//! megalint --explain <pass>    # what a rule checks and why it exists
//! megalint --list-passes       # all passes with one-line summaries
//! megalint --emit-metric-table # the DESIGN.md metric registry table
//! ```
//!
//! Exit code 0 when clean, 1 on any finding or on usage/IO errors.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use megastream_analyzer::passes::all_passes;
use megastream_analyzer::run;

struct Args {
    root: PathBuf,
    json: bool,
    emit_metric_table: bool,
    explain: Option<String>,
    list_passes: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        emit_metric_table: false,
        explain: None,
        list_passes: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--json" => args.json = true,
            "--emit-metric-table" => args.emit_metric_table = true,
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a pass id")?);
            }
            "--list-passes" => args.list_passes = true,
            "--help" | "-h" => {
                emit(HELP);
                emit("\n");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(args)
}

const HELP: &str = "megalint — megastream workspace static analysis

USAGE: megalint [OPTIONS]

OPTIONS:
    --root <DIR>         workspace root to analyze (default: .)
    --json               machine-readable output (sorted, diffable)
    --explain <PASS>     print what a pass checks and why, then exit
    --list-passes        list all passes, then exit
    --emit-metric-table  print the DESIGN.md metric registry table, then exit";

/// Writes to stdout ignoring `EPIPE`, so `megalint | head` exits quietly
/// instead of panicking when the reader closes early.
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("megalint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list_passes {
        for pass in all_passes() {
            emit(&format!("{:<16} {}\n", pass.id(), pass.summary()));
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &args.explain {
        for pass in all_passes() {
            if pass.id() == id {
                emit(&format!(
                    "{} — {}\n\n{}\n",
                    pass.id(),
                    pass.summary(),
                    pass.explain()
                ));
                return ExitCode::SUCCESS;
            }
        }
        eprintln!("megalint: unknown pass `{id}` (see --list-passes)");
        return ExitCode::FAILURE;
    }
    let report = match run(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("megalint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.emit_metric_table {
        emit(&report.metric_table.render_markdown());
        return ExitCode::SUCCESS;
    }
    if args.json {
        emit(&report.render_json());
        emit("\n");
    } else {
        emit(&report.render_text());
    }
    if report.is_failure() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
