//! What a run reports: named metrics with units, the operation tally, and
//! the one-line JSON result that closes standard output.

use std::fmt::Write as _;

/// Metrics and operation counts of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Records one metric; a second value under the same name replaces the
    /// first.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Counts `n` operations that cannot fail on their own (ingested
    /// records): the checks made over them count their failures.
    pub fn attempted(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
        ok
    }

    /// Adds a human-readable line printed ahead of the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Operations that failed or answered wrongly so far.
    pub fn failures(&self) -> u64 {
        self.failed
    }

    /// Prints the notes and one `name value unit` line per metric, then the
    /// JSON result line (always last).
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "operations: {} attempted, {} failed, error_rate {rate}",
            self.attempted, self.failed
        );
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>18.6} {unit}");
        }
        println!("{}", self.json_line());
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a metric that cannot be computed
            // is reported as 0 rather than breaking the line.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Latency samples of one kind of call, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The nearest-rank `q`-quantile (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        quantile(&sorted, q)
    }

    /// The median over whole blocks of `block` consecutive samples of each
    /// block's `q`-quantile; the pooled quantile when there is no whole
    /// block.
    pub fn block_quantile_ns(&self, q: f64, block: usize) -> f64 {
        let blocks: Vec<f64> = self
            .0
            .chunks_exact(block.max(1))
            .map(|chunk| {
                let mut sorted = chunk.to_vec();
                sorted.sort_unstable();
                quantile(&sorted, q)
            })
            .collect();
        if blocks.is_empty() {
            self.quantile_ns(q)
        } else {
            median(&blocks)
        }
    }

    /// The largest sample (0 when empty).
    pub fn max_ns(&self) -> f64 {
        self.0.iter().copied().max().unwrap_or(0) as f64
    }

    /// The sum of all samples.
    pub fn total_ns(&self) -> f64 {
        self.0.iter().sum::<u64>() as f64
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of a list of measurements (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
