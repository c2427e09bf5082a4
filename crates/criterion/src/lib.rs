//! A vendored, zero-dependency stand-in for the subset of `criterion` that
//! megastream's experiment benches use.
//!
//! The build environment is offline (no crates.io), so the real
//! `criterion` cannot be fetched. The benches are primarily experiment
//! printers (each emits its paper table before timing hot operations), so
//! this shim keeps their source unchanged and provides honest but simple
//! timing: per benchmark it runs one warm-up iteration plus `sample_size`
//! timed samples (each sample capped by `measurement_time`) and prints
//! min / mean / max microseconds per iteration.
//!
//! Like the real crate, `-- --test` switches to test mode: every benchmark
//! routine runs exactly once, untimed, so a bench binary can be smoke-tested
//! in seconds. The experiment tables the benches print before measuring
//! are unaffected.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark harness measures wall time"
)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`], mirroring `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The benchmark driver, mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    test_mode: bool,
}

impl Criterion {
    /// Applies the command-line flags, mirroring
    /// `criterion::Criterion::configure_from_args`: `--test` selects test
    /// mode (each routine runs once, untimed).
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.test_mode = std::env::args().any(|a| a == "--test");
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== bench group: {name}");
        BenchmarkGroup {
            c: self,
            name,
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
        }
    }
}

/// A benchmark identifier: a function name plus a parameter label.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id labelled `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { name: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// A group of related benchmarks, mirroring `criterion::BenchmarkGroup`.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples to take per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Accepted for API compatibility; the shim has no separate warm-up
    /// phase beyond its single untimed iteration.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Caps the total time spent sampling one benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Runs one benchmark closure.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let mut b = self.bencher();
        f(&mut b);
        b.report(&self.name, &id.name);
        self
    }

    /// Runs one benchmark closure against a borrowed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = self.bencher();
        f(&mut b, input);
        b.report(&self.name, &id.name);
        self
    }

    fn bencher(&self) -> Bencher {
        Bencher {
            samples_us: Vec::new(),
            sample_size: self.sample_size,
            budget: self.measurement_time,
            test_mode: self.c.test_mode,
        }
    }

    /// Ends the group (no-op; prints nothing further).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; `iter` does the timing.
#[derive(Debug)]
pub struct Bencher {
    samples_us: Vec<f64>,
    sample_size: usize,
    budget: Duration,
    test_mode: bool,
}

impl Bencher {
    /// Times `routine`: one untimed warm-up call, then up to
    /// `sample_size` timed samples within the measurement budget. In test
    /// mode the untimed call is all that runs.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        std::hint::black_box(routine());
        if self.test_mode {
            return;
        }
        let started = Instant::now();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            self.samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if started.elapsed() > self.budget {
                break;
            }
        }
    }

    fn report(&self, group: &str, name: &str) {
        if self.test_mode {
            println!("{group}/{name}: ok (test mode, ran once, not timed)");
            return;
        }
        if self.samples_us.is_empty() {
            println!("{group}/{name}: no samples");
            return;
        }
        let n = self.samples_us.len() as f64;
        let mean = self.samples_us.iter().sum::<f64>() / n;
        let min = self
            .samples_us
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = self.samples_us.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{group}/{name}: {:>10.1} µs/iter (min {min:.1}, max {max:.1}, {} samples)",
            mean,
            self.samples_us.len()
        );
    }
}

/// Collects benchmark functions into one runner, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench binary's `main`, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test`/`cargo bench` may pass harness flags; `--test`
            // is read by `Criterion::configure_from_args`, and `--help`
            // should not hang scripts.
            if std::env::args().any(|a| a == "--help") {
                println!(
                    "megastream offline bench shim; runs all benches \
                     (`--test`: each routine once, untimed)"
                );
                return;
            }
            $($group();)+
        }
    };
}
