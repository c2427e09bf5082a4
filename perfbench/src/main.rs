//! `perfbench --workload <ingest|query|live> --seed <n> --seconds <s>
//! --trace <0|1> --work-dir <dir>`
//!
//! Prints human-readable lines, then one JSON result line last. Untraced
//! (`--trace 0`), the result holds the end-to-end metrics; traced
//! (`--trace 1`), the per-layer ones. Exits 0 whenever a result was printed
//! (its `correct` field says whether every check passed), 1 when the
//! workload could not run and 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use megastream_perfbench::common::{RunConfig, PARALLELISM};
use megastream_perfbench::{ingest, live, query};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <ingest|query|live> --seed <n> --seconds <s> \
         --trace <0|1> --work-dir <dir>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = flag("--workload") else {
        return usage("--workload is required");
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse().ok()) else {
        return usage("--seed needs a whole number");
    };
    let Some(seconds) = flag("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("--seconds needs a positive number");
    };
    let trace = match flag("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace is 0 or 1"),
    };
    let Some(work_dir) = flag("--work-dir").map(PathBuf::from) else {
        return usage("--work-dir is required");
    };
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        work_dir,
    };
    println!(
        "perfbench workload={workload} seed={seed} seconds={seconds} trace={} nproc={} workers={PARALLELISM}",
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let report = match workload.as_str() {
        "ingest" => ingest::run(&cfg, &ingest::STANDARD),
        "query" => query::run(&cfg, &query::STANDARD),
        "live" => live::run(&cfg, &live::STANDARD),
        other => return usage(&format!("unknown workload {other:?}")),
    };
    match report {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload} could not run: {e}");
            ExitCode::FAILURE
        }
    }
}
