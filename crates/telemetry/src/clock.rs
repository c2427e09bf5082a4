//! The single sanctioned monotonic-clock site in the workspace.
//!
//! Clippy's `disallowed_methods` lint denies `Instant::now()` and
//! `SystemTime::now()` everywhere else in first-party code (`clippy.toml`):
//! the parallel equivalence proof (bit-identical results across
//! `Sequential` and `Threads(n)`) only holds while no result path consults
//! a clock, and concentrating every read here makes "who can observe
//! time?" a one-file audit instead of a grep. Telemetry spans, scoped
//! timers, the trace store's epoch, and the data plane's worker-busy
//! accounting all measure durations through [`Stopwatch`]; none of them
//! can leak an absolute time into a result.
//!
//! Benches and the vendored criterion shim read `Instant` directly — they
//! *are* measurement harnesses.

use std::time::Instant;

/// An opaque monotonic start point. The only operations are relative
/// (`elapsed_micros`, `micros_since`), so holders can measure durations
/// but never observe an absolute timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopwatch(Instant);

/// Starts a stopwatch at the current monotonic instant.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned clock read: callers get only relative durations"
)]
pub fn start() -> Stopwatch {
    Stopwatch(Instant::now())
}

impl Stopwatch {
    /// Microseconds elapsed since this stopwatch started, saturating at
    /// `u64::MAX`.
    pub fn elapsed_micros(&self) -> u64 {
        self.0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Microseconds from `earlier` to this stopwatch's start point
    /// (saturating at zero if `earlier` is actually later, and at
    /// `u64::MAX` above).
    pub fn micros_since(&self, earlier: &Stopwatch) -> u64 {
        self.0
            .saturating_duration_since(earlier.0)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let sw = start();
        let a = sw.elapsed_micros();
        let b = sw.elapsed_micros();
        assert!(b >= a);
    }

    #[test]
    fn micros_since_orders_start_points() {
        let earlier = start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let later = start();
        assert!(later.micros_since(&earlier) >= 1000);
        assert_eq!(earlier.micros_since(&later), 0, "saturates at zero");
    }
}
