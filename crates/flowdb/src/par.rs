//! The parallelism knob of the data plane.
//!
//! The paper's property P2 (combinable summaries) is what makes the
//! per-location query fan-out embarrassingly parallel: each location's
//! summaries merge into a partial result independently, and the partials
//! combine in a **fixed location order** regardless of which thread
//! produced them. [`Parallelism`] selects how many worker threads carry
//! that fan-out — the *result* is identical across every setting, which is
//! why [`Parallelism::Sequential`] is kept forever as the test oracle
//! (`tests/parallel_e2e.rs` pins the equivalence, `tests/merge_laws.rs`
//! the algebraic laws it rests on).

use std::num::NonZeroUsize;

use megastream_telemetry::{clock, ScopeParent};

/// How many worker threads data-plane fan-outs use.
///
/// Applies to FlowDB's per-location query fan-out and (through the same
/// type re-exported from the `megastream` facade) to the hierarchy pump's
/// sibling epoch rotations. Every setting produces bit-identical results;
/// only wall-clock time differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread, inline — the reference semantics and the test oracle.
    Sequential,
    /// A fixed worker count (`Threads(0)` is treated as `Threads(1)`).
    Threads(usize),
    /// Use up to [`std::thread::available_parallelism`] workers.
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of workers to use for `items` independent work units:
    /// the configured width, clamped to `[1, items]`. Zero items still
    /// report one worker (the caller runs inline and does nothing).
    pub fn worker_count(self, items: usize) -> usize {
        let width = match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        };
        width.clamp(1, items.max(1))
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Sequential => write!(f, "sequential"),
            Parallelism::Threads(n) => write!(f, "threads({n})"),
            Parallelism::Auto => write!(f, "auto"),
        }
    }
}

/// Maps `f` over `items` on up to `workers` scoped threads, returning the
/// outputs **in input order** — the deterministic fan-out primitive behind
/// the parallel data plane (FlowDB's per-location query fan-out and the
/// store hierarchy's sibling epoch rotations both run on it). Work unit
/// `i` goes to worker `i % workers` (striped), so the assignment is itself
/// deterministic.
///
/// With one worker (or one item) everything runs inline on the caller's
/// thread: that *is* the sequential path, not a simulation of it.
///
/// `report` receives each worker's busy time in microseconds (used for the
/// `*.workers` telemetry histograms); it is called once per worker, in
/// worker order, from the calling thread. Each worker first enters the
/// caller's innermost open scope ([`ScopeParent`]), so telemetry scopes
/// opened inside `f` nest under it whichever thread runs them.
pub fn fan_out<T, U, F>(items: Vec<T>, workers: usize, f: F, mut report: impl FnMut(u64)) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        let started = clock::start();
        let out: Vec<U> = items.into_iter().map(&f).collect();
        report(started.elapsed_micros());
        return out;
    }
    // Striped assignment: worker w takes items w, w+workers, w+2*workers…
    let mut stripes: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        stripes[i % workers].push((i, item));
    }
    let mut indexed: Vec<(usize, U)> = Vec::new();
    let mut busy: Vec<u64> = Vec::with_capacity(workers);
    let parent = ScopeParent::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .into_iter()
            .map(|stripe| {
                scope.spawn(|| {
                    let _entered = parent.enter();
                    let started = clock::start();
                    let out: Vec<(usize, U)> =
                        stripe.into_iter().map(|(i, item)| (i, f(item))).collect();
                    (out, started.elapsed_micros())
                })
            })
            .collect();
        for handle in handles {
            // A worker panic is re-raised on the caller's thread as-is:
            // this introduces no new panic site, it propagates the
            // original one across the scope boundary.
            let (out, micros) = match handle.join() {
                Ok(pair) => pair,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            indexed.extend(out);
            busy.push(micros);
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    for micros in busy {
        report(micros);
    }
    indexed.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_clamps_to_items() {
        assert_eq!(Parallelism::Sequential.worker_count(100), 1);
        assert_eq!(Parallelism::Threads(4).worker_count(100), 4);
        assert_eq!(Parallelism::Threads(4).worker_count(2), 2);
        assert_eq!(Parallelism::Threads(0).worker_count(5), 1);
        assert!(Parallelism::Auto.worker_count(100) >= 1);
        assert_eq!(Parallelism::Auto.worker_count(1), 1);
        assert_eq!(Parallelism::Threads(8).worker_count(0), 1);
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn display_names() {
        assert_eq!(Parallelism::Sequential.to_string(), "sequential");
        assert_eq!(Parallelism::Threads(3).to_string(), "threads(3)");
        assert_eq!(Parallelism::Auto.to_string(), "auto");
    }

    #[test]
    fn fan_out_preserves_input_order() {
        for workers in [1, 2, 3, 8] {
            let mut reports = 0;
            let out = fan_out(
                (0..17u64).collect::<Vec<_>>(),
                workers,
                |x| x * 2,
                |_| reports += 1,
            );
            assert_eq!(out, (0..17u64).map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(reports, workers.min(17));
        }
    }

    #[test]
    fn fan_out_empty_input() {
        let out: Vec<u64> = fan_out(Vec::<u64>::new(), 4, |x| x, |_| {});
        assert!(out.is_empty());
    }
}
