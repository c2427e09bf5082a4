//! An interactive FlowQL shell over a generated two-region trace
//! (paper Fig. 5 ⑤: "answer user queries via the FlowQL API").
//!
//! ```text
//! cargo run --example flowql_repl
//! cargo run --example flowql_repl -- --trace   # span tree after each query
//! flowql> SELECT TOPK 5 FROM ALL WHERE location = "region-0"
//! flowql> SELECT QUERY FROM [0, 120) WHERE src_ip = 10.0.0.0/8
//! flowql> :explain SELECT TOPK 5 FROM ALL WHERE location = "region-0"
//! flowql> :health
//! flowql> :metrics prom
//! flowql> \help
//! ```
//!
//! Reads queries from stdin; when stdin is closed (e.g. piped `echo`), a
//! small demo session runs instead.

use std::io::{self, BufRead, Write};

use megastream::flowstream::{Flowstream, FlowstreamConfig};
use megastream::ops::OpsPlane;
use megastream_flow::time::{TimeDelta, Timestamp};
use megastream_telemetry::{SamplePolicy, Telemetry};
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

const HELP: &str = "\
FlowQL grammar:
  SELECT <op> FROM <periods> [WHERE <cond> [AND <cond>]...] [GROUP BY location]
  op      := QUERY | TOPK <k> | ABOVE <x> | HHH <x> | DRILLDOWN
  periods := ALL | [<start_s>, <end_s>) , ...
  cond    := location = \"<name>\"
           | src_ip = <a.b.c.d[/len]> | dst_ip = <a.b.c.d[/len]>
           | proto = <n> | src_port = <n> | dst_port = <n>
meta commands: \\help  \\locations  \\windows <location>
               :explain <query>  (EXPLAIN ANALYZE — result + span tree)
               :health           (component states + alert log)
               :metrics [prom]   (metric snapshot — text or Prometheus)
               :profile [<file>] (top activities + heaviest queries;
                                  with <file>, write collapsed stacks)
               \\quit";

fn main() {
    let trace = std::env::args().any(|a| a == "--trace");
    // Build a deployment worth querying: 2 regions × 4 routers, 4 minutes.
    eprintln!("generating trace and building flowstream (2 regions x 4 routers)...");
    // Metrics and profiling are always on in the shell so `:health` /
    // `:metrics` / `:profile` have something to show; the ops plane
    // samples once per simulated second.
    let mut tel = Telemetry::new().with_profiling();
    if trace {
        tel = tel.with_tracing(SamplePolicy::Always);
    }
    let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default()).with_telemetry(&tel);
    let mut ops = OpsPlane::standard(&tel).expect("telemetry is enabled");
    let mut clock = Timestamp::ZERO;
    for rec in FlowTraceGenerator::new(FlowTraceConfig {
        seed: 2026,
        flows_per_sec: 250.0,
        duration: TimeDelta::from_mins(4),
        ..Default::default()
    }) {
        fs.ingest_round_robin(&rec);
        clock = clock.max(rec.ts);
        ops.tick(rec.ts);
    }
    fs.finish();
    // Show only the traces of the session's queries, not the load's pumps.
    tel.clear_traces();
    eprintln!(
        "{} summaries indexed from locations {:?}\n{HELP}\n",
        fs.flowdb().len(),
        fs.flowdb().locations()
    );

    let stdin = io::stdin();
    let mut saw_input = false;
    print!("flowql> ");
    io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        saw_input = true;
        let line = line.trim();
        match line {
            "" => {}
            "\\quit" | "\\q" | "exit" => break,
            "\\help" | "\\h" => println!("{HELP}"),
            "\\locations" => println!("{:?}", fs.flowdb().locations()),
            _ if line.starts_with("\\windows") => {
                let loc = line.trim_start_matches("\\windows").trim();
                for w in fs.flowdb().windows_of(loc) {
                    println!("{w}");
                }
            }
            ":health" | "\\health" => {
                // Fold the queries run since the last frame into a fresh
                // one, then report.
                clock += TimeDelta::from_secs(1);
                ops.force_tick(clock);
                print!("{}", ops.health_report());
            }
            ":metrics" | "\\metrics" => {
                clock += TimeDelta::from_secs(1);
                ops.force_tick(clock);
                print!("{}", tel.snapshot().render_text());
            }
            ":metrics prom" | "\\metrics prom" => {
                clock += TimeDelta::from_secs(1);
                ops.force_tick(clock);
                print!("{}", tel.snapshot().render_prometheus());
            }
            _ if line.starts_with(":profile") || line.starts_with("\\profile") => {
                let file = line
                    .trim_start_matches(":profile")
                    .trim_start_matches("\\profile")
                    .trim();
                let snap = tel.profile_snapshot();
                print!("{}", snap.render_top(10));
                println!("heaviest queries (by work units):");
                for (q, work) in fs.heavy_queries(5) {
                    println!("{work:>12}  {q}");
                }
                if !file.is_empty() {
                    match std::fs::write(file, snap.render_collapsed()) {
                        Ok(()) => println!("collapsed stacks -> {file}"),
                        Err(e) => println!("could not write {file}: {e}"),
                    }
                }
            }
            _ if line.starts_with(":explain") || line.starts_with("\\explain") => {
                let q = line
                    .trim_start_matches(":explain")
                    .trim_start_matches("\\explain")
                    .trim();
                let (result, explanation) = fs.explain(q);
                match result {
                    Ok(result) => print!("{result}"),
                    Err(e) => println!("error: {e}"),
                }
                print!("{explanation}");
            }
            query => {
                match fs.query(query) {
                    Ok(result) => print!("{result}"),
                    Err(e) => println!("error: {e}"),
                }
                if trace {
                    print!("{}", tel.trace_snapshot().render_tree());
                    tel.clear_traces();
                }
            }
        }
        print!("flowql> ");
        io::stdout().flush().ok();
    }
    println!();

    if !saw_input {
        // Non-interactive fallback: run a demo session.
        println!("(no stdin — running demo session)\n");
        for q in [
            "SELECT TOPK 5 FROM ALL WHERE location = \"region-0\"",
            "SELECT QUERY FROM [0, 120) WHERE src_ip = 10.0.0.0/8 AND location = \"region-0\"",
            "SELECT HHH 5000 FROM ALL WHERE location = \"region-1\"",
            "SELECT TOPK 2 FROM ALL GROUP BY location",
        ] {
            println!("flowql> {q}");
            match fs.query(q) {
                Ok(result) => println!("{result}"),
                Err(e) => println!("error: {e}\n"),
            }
            if trace {
                print!("{}", tel.trace_snapshot().render_tree());
                tel.clear_traces();
            }
        }
        let explain_q = "SELECT TOPK 3 FROM ALL WHERE location = \"region-0\"";
        println!("flowql> :explain {explain_q}");
        let (result, explanation) = fs.explain(explain_q);
        if let Ok(result) = result {
            println!("{result}");
        }
        print!("{explanation}");
        println!("flowql> :health");
        clock += TimeDelta::from_secs(1);
        ops.force_tick(clock);
        print!("{}", ops.health_report());
        println!("flowql> :metrics prom");
        clock += TimeDelta::from_secs(1);
        ops.force_tick(clock);
        for line in tel.snapshot().render_prometheus().lines().take(12) {
            println!("{line}");
        }
        println!("...");
        println!("flowql> :profile");
        print!("{}", tel.profile_snapshot().render_top(5));
        println!("heaviest queries (by work units):");
        for (q, work) in fs.heavy_queries(3) {
            println!("{work:>12}  {q}");
        }
    }
}
