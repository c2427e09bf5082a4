//! `mega-fsck` — offline verifier for a cold-tier directory.
//!
//! ```text
//! mega-fsck [--repair] <dir>
//! ```
//!
//! Exit codes: `0` the store is clean, `1` problems were found, `2` usage
//! or I/O error. With `--repair`, corrupt frames are quarantined and the
//! damaged segments rewritten; the exit code then reflects the state
//! *after* repair.

// Data-plane rules (DESIGN.md §12): no panicking call and no hash-ordered
// collection in non-test code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types)]

use std::path::PathBuf;
use std::process::ExitCode;

use megastream_storage::fsck::fsck;

fn main() -> ExitCode {
    let mut repair = false;
    let mut dir: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--repair" => repair = true,
            "--help" | "-h" => {
                println!("usage: mega-fsck [--repair] <dir>");
                return ExitCode::SUCCESS;
            }
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("mega-fsck: unexpected argument `{other}`");
                eprintln!("usage: mega-fsck [--repair] <dir>");
                return ExitCode::from(2);
            }
        }
    }
    let dir = match dir {
        Some(d) => d,
        None => {
            eprintln!("usage: mega-fsck [--repair] <dir>");
            return ExitCode::from(2);
        }
    };

    let report = match fsck(&dir, repair) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mega-fsck: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };

    for seg in &report.segments {
        println!(
            "segment epoch {:>4}: {} clean frame(s), {} corrupt, index {}",
            seg.epoch_seq,
            seg.frames,
            seg.corrupt_frames,
            if seg.index_ok { "ok" } else { "BAD" }
        );
    }
    if report.open_segment {
        println!("open segment present (uncommitted epoch; recovery will discard it)");
    }
    println!(
        "wal: {} record(s); torn frames in tails: {}",
        report.wal_records, report.torn_frames
    );
    if report.repaired_segments > 0 {
        println!(
            "repaired {} segment(s), corrupt frames quarantined",
            report.repaired_segments
        );
    }

    if report.problems.is_empty() {
        println!(
            "clean: {} sealed segment(s), {} frame(s)",
            report.segments.len(),
            report.clean_frames
        );
        ExitCode::SUCCESS
    } else {
        for p in &report.problems {
            eprintln!("problem: {p}");
        }
        eprintln!("{} problem(s) found", report.problems.len());
        ExitCode::FAILURE
    }
}
