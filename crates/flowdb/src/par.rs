//! The parallelism knob of the data plane and its one scheduler.
//!
//! The paper's property P2 (combinable summaries) is what makes the
//! per-location query fan-out embarrassingly parallel: each location's
//! summaries merge into a partial result independently, and the partials
//! combine in a **fixed location order** regardless of which thread
//! produced them. [`Parallelism`] selects how many threads carry that
//! fan-out and [`fold_in_order`] runs it: the caller folds each partial as
//! soon as it and every earlier one exist, so the cross-location merge
//! overlaps the groups still running instead of waiting for all of them.
//! The *result* is identical across every setting, which is why
//! [`Parallelism::Sequential`] is kept forever as the test oracle
//! (`tests/parallel_e2e.rs` pins the equivalence, `tests/merge_laws.rs`
//! the algebraic laws it rests on).

use std::iter::Enumerate;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, OnceLock, PoisonError};
use std::vec;

use megastream_telemetry::{clock, ScopeParent};

/// How many threads data-plane fan-outs use.
///
/// Applies to FlowDB's per-location query fan-out and (through the same
/// type re-exported from the `megastream` facade) to the hierarchy pump's
/// sibling epoch rotations. Every setting produces bit-identical results;
/// only wall-clock time differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread, inline — the reference semantics and the test oracle.
    Sequential,
    /// A fixed thread count, the caller's included (`Threads(0)` is
    /// treated as `Threads(1)`).
    Threads(usize),
    /// Use up to [`std::thread::available_parallelism`] threads.
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of threads to use for `items` independent work units:
    /// the configured width, clamped to `[1, items]`. Zero or one item
    /// report one thread without consulting the host.
    pub fn worker_count(self, items: usize) -> usize {
        if items <= 1 {
            return 1;
        }
        let width = match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => host_width(),
        };
        width.min(items)
    }
}

/// [`std::thread::available_parallelism`], read once per process: the
/// call reads the cgroup CPU quota (tens of microseconds), and `Auto` is
/// asked on every query and every pump level.
fn host_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
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

/// Runs `f` over `items` on the caller plus up to `workers - 1` scoped
/// threads and folds the outputs into `init` with `fold`, **in input
/// order**, on the calling thread — the scheduler behind the whole
/// parallel data plane (FlowDB's per-location query fan-out and, through
/// [`fan_out`], the store hierarchy's sibling epoch rotations).
///
/// Every thread claims the next unclaimed item from one shared cursor, so
/// a slow item holds up no other. Between claims the caller folds:
/// whenever the output after the last folded one is ready it is folded
/// first; otherwise the caller claims and runs another item itself, and
/// it waits for the other threads only when no item is left to claim.
/// `fold` therefore sees outputs `0, 1, 2, …` exactly as a sequential left
/// fold does; the schedule decides only *when* it sees each. Its third
/// argument is how many items had not finished when it was called (0 once
/// all have), i.e. how far the fold ran ahead of the fan-out.
///
/// A `fold` error ends the run: no further item is claimed, items already
/// running finish and are dropped, and that error is returned. Since the
/// fold goes in input order, the error of the earliest failing output
/// wins even when a later one fails first. A panic in `f` on any thread
/// reaches the caller as the same panic once the other threads stop.
///
/// With one worker (or at most one item) the caller runs every item
/// inline and starts no thread: that *is* the sequential path, not a
/// simulation of it.
///
/// `report` receives each thread's busy time in microseconds (the
/// `*.workers` telemetry histograms): once per thread, the caller's
/// first, from the calling thread. Each worker thread first enters the
/// caller's innermost open scope ([`ScopeParent`]), so telemetry scopes
/// opened inside `f` nest under it whichever thread runs them.
pub fn fold_in_order<T, U, A, E>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(T) -> U + Sync,
    init: A,
    mut fold: impl FnMut(&mut A, U, usize) -> Result<(), E>,
    mut report: impl FnMut(u64),
) -> Result<A, E>
where
    T: Send,
    U: Send,
{
    let total = items.len();
    let workers = workers.clamp(1, total.max(1));
    let cursor = Cursor(Mutex::new(items.into_iter().enumerate()));
    let (done_tx, done_rx) = mpsc::channel();
    let parent = ScopeParent::current();
    let mut acc = init;
    let (outcome, busy) = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                let done = done_tx.clone();
                let (cursor, f, parent) = (&cursor, &f, &parent);
                scope.spawn(move || {
                    let _entered = parent.enter();
                    let started = clock::start();
                    while let Some((i, item)) = cursor.claim() {
                        // A panic travels to the caller as a message, so
                        // every claimed item sends exactly one.
                        let out = panic::catch_unwind(AssertUnwindSafe(|| f(item)));
                        if done.send((i, out)).is_err() {
                            break;
                        }
                    }
                    started.elapsed_micros()
                })
            })
            .collect();
        drop(done_tx);
        // A worker's panic ends the run where its message arrives.
        let deliver = |ready: &mut Ready<U>, (i, out): (usize, std::thread::Result<U>)| match out {
            Ok(out) => ready.file(i, out),
            Err(payload) => {
                cursor.stop();
                panic::resume_unwind(payload)
            }
        };
        let mut ready = Ready {
            slots: (0..total).map(|_| None).collect(),
            finished: 0,
        };
        let (mut folded, mut caller_busy) = (0, 0);
        let outcome = loop {
            while let Ok(message) = done_rx.try_recv() {
                deliver(&mut ready, message);
            }
            if let Some(out) = ready.slots.get_mut(folded).and_then(Option::take) {
                folded += 1;
                if let Err(e) = fold(&mut acc, out, total - ready.finished) {
                    cursor.stop();
                    break Err(e);
                }
                continue;
            }
            if folded == total {
                break Ok(());
            }
            if let Some((i, item)) = cursor.claim() {
                let started = clock::start();
                let out = f(item);
                caller_busy += started.elapsed_micros();
                ready.file(i, out);
                continue;
            }
            match done_rx.recv() {
                Ok(message) => deliver(&mut ready, message),
                // Every worker exited with outputs missing, which only a
                // panic outside `f` can cause: joining re-raises it.
                Err(mpsc::RecvError) => break Ok(()),
            }
        };
        let mut busy = Vec::with_capacity(workers);
        busy.push(caller_busy);
        for handle in handles {
            match handle.join() {
                Ok(micros) => busy.push(micros),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        (outcome, busy)
    });
    for micros in busy {
        report(micros);
    }
    outcome.map(|()| acc)
}

/// The items not yet claimed, with their input positions: every thread
/// claims from this one cursor. A poisoned lock is recovered, since no
/// holder runs anything that could leave the iterator half-advanced.
struct Cursor<T>(Mutex<Enumerate<vec::IntoIter<T>>>);

impl<T> Cursor<T> {
    fn claim(&self) -> Option<(usize, T)> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).next()
    }

    /// Drops every unclaimed item, which ends the run for every thread.
    fn stop(&self) {
        let mut unclaimed = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        unclaimed.by_ref().for_each(drop);
    }
}

/// The outputs that finished ahead of the fold, by input position.
struct Ready<U> {
    slots: Vec<Option<U>>,
    finished: usize,
}

impl<U> Ready<U> {
    fn file(&mut self, i: usize, out: U) {
        if let Some(slot) = self.slots.get_mut(i) {
            *slot = Some(out);
        }
        self.finished += 1;
    }
}

/// Maps `f` over `items` on up to `workers` threads, returning the outputs
/// **in input order**: [`fold_in_order`] with a fold that collects.
pub fn fan_out<T, U, F>(items: Vec<T>, workers: usize, f: F, report: impl FnMut(u64)) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    let collect = |out: &mut Vec<U>, u, _| {
        out.push(u);
        Ok::<(), std::convert::Infallible>(())
    };
    let Ok(out) = fold_in_order(items, workers, f, Vec::with_capacity(len), collect, report);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{Receiver, Sender};

    const WIDTHS: [usize; 4] = [1, 2, 3, 8];
    const ITEMS: usize = 17;

    #[test]
    fn worker_count_clamps_to_items() {
        assert_eq!(Parallelism::Sequential.worker_count(100), 1);
        assert_eq!(Parallelism::Threads(4).worker_count(100), 4);
        assert_eq!(Parallelism::Threads(4).worker_count(2), 2);
        assert_eq!(Parallelism::Threads(0).worker_count(5), 1);
        assert!(Parallelism::Auto.worker_count(100) >= 1);
        assert_eq!(Parallelism::Auto.worker_count(1), 1);
        assert_eq!(Parallelism::Auto.worker_count(0), 1);
        assert_eq!(Parallelism::Threads(8).worker_count(0), 1);
    }

    #[test]
    fn auto_uses_the_host_width() {
        let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(Parallelism::Auto.worker_count(usize::MAX), host);
        assert_eq!(Parallelism::Auto.worker_count(2), host.min(2));
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
        for workers in WIDTHS {
            let mut reports = 0;
            let out = fan_out(
                (0..ITEMS as u64).collect::<Vec<_>>(),
                workers,
                |x| x * 2,
                |_| reports += 1,
            );
            assert_eq!(out, (0..ITEMS as u64).map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(reports, workers.min(ITEMS));
        }
    }

    #[test]
    fn fan_out_empty_input() {
        let mut reports = 0;
        let out: Vec<u64> = fan_out(Vec::<u64>::new(), 4, |x| x, |_| reports += 1);
        assert!(out.is_empty());
        assert_eq!(reports, 1);
    }

    /// One work item of the interleaving tests. It waits until every
    /// sender of `wait` is gone, logs its index, and on drop releases
    /// whoever waits on `signal` — also when it panics or is dropped
    /// unclaimed.
    struct Gated {
        index: usize,
        wait: Option<Receiver<()>>,
        signal: Option<Sender<()>>,
    }

    impl Gated {
        fn run(self, log: &Mutex<Vec<usize>>) -> usize {
            if let Some(wait) = &self.wait {
                while wait.recv().is_ok() {}
            }
            log.lock().unwrap().push(self.index);
            self.index
        }
    }

    fn ungated(n: usize) -> Vec<Gated> {
        (0..n)
            .map(|index| Gated {
                index,
                wait: None,
                signal: None,
            })
            .collect()
    }

    /// Items in blocks of `workers`, each waiting for the next item of its
    /// block to finish, so every block finishes last item first. A block
    /// holds no more items than there are threads, so an item that waits
    /// always leaves a thread free for the item it waits on.
    fn reversed_blocks(n: usize, workers: usize) -> Vec<Gated> {
        let mut items = ungated(n);
        for i in 1..n {
            if i % workers != 0 {
                let (tx, rx) = mpsc::channel();
                items[i - 1].wait = Some(rx);
                items[i].signal = Some(tx);
            }
        }
        items
    }

    /// Items whose first one finishes after all the others. Needs at
    /// least two threads: the one holding item 0 waits for the rest.
    fn first_finishes_last(n: usize) -> Vec<Gated> {
        let mut items = ungated(n);
        let (tx, rx) = mpsc::channel();
        for item in items.iter_mut().skip(1) {
            item.signal = Some(tx.clone());
        }
        items[0].wait = Some(rx);
        items
    }

    fn position(log: &[usize], index: usize) -> usize {
        log.iter().position(|&i| i == index).unwrap()
    }

    #[test]
    fn fold_equals_the_sequential_left_fold() {
        let step = |acc: u64, i: usize| acc.wrapping_mul(31) ^ i as u64;
        let expected = (0..ITEMS).fold(7, step);
        for workers in WIDTHS {
            let log = Mutex::new(Vec::new());
            let (mut seen, mut running, mut reports) = (Vec::new(), Vec::new(), 0);
            let out = fold_in_order(
                reversed_blocks(ITEMS, workers),
                workers,
                |item| item.run(&log),
                7,
                |acc, i, still_running| {
                    seen.push(i);
                    running.push(still_running);
                    *acc = step(*acc, i);
                    Ok::<(), ()>(())
                },
                |_| reports += 1,
            );
            assert_eq!(out, Ok(expected), "workers {workers}");
            assert_eq!(seen, (0..ITEMS).collect::<Vec<_>>());
            assert_eq!(running.last(), Some(&0), "the last fold follows every item");
            assert_eq!(reports, workers);
            // With two or more threads the gates really reordered the
            // finishes: item 1 completed before item 0.
            let log = log.into_inner().unwrap();
            assert_eq!(log.len(), ITEMS);
            assert_eq!(
                position(&log, 1) < position(&log, 0),
                workers > 1,
                "workers {workers}: {log:?}"
            );
        }
    }

    #[test]
    fn the_first_error_in_input_order_wins() {
        for workers in WIDTHS {
            let log = Mutex::new(Vec::new());
            let items = if workers > 1 {
                first_finishes_last(ITEMS)
            } else {
                ungated(ITEMS)
            };
            let mut reports = 0;
            let out = fold_in_order(
                items,
                workers,
                |item| match item.run(&log) {
                    i @ (0 | 5) => Err(i),
                    i => Ok(i),
                },
                0,
                |acc, out: Result<usize, usize>, _| {
                    *acc += out?;
                    Ok(())
                },
                |_| reports += 1,
            );
            assert_eq!(out, Err(0), "workers {workers}");
            assert_eq!(reports, workers);
            let log = log.into_inner().unwrap();
            if workers > 1 {
                // Item 5 failed while item 0 was still running.
                assert!(position(&log, 5) < position(&log, 0), "{log:?}");
            } else {
                // Sequentially, the error stops the run at once.
                assert_eq!(log, vec![0]);
            }
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caller = std::thread::current().id();
        for workers in WIDTHS {
            let log = Mutex::new(Vec::new());
            // With two or more threads another thread must run an item of
            // block 0 while its holder waits, and every item run off the
            // caller's thread panics. With one, the caller's item 3 does.
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                fan_out(
                    reversed_blocks(ITEMS, workers),
                    workers,
                    |item| {
                        let off_caller = std::thread::current().id() != caller;
                        if off_caller || (workers == 1 && item.index == 3) {
                            panic!("item {} failed", item.index);
                        }
                        item.run(&log)
                    },
                    |_| {},
                )
            }));
            let payload = result.expect_err("the panic propagates");
            let message = payload.downcast_ref::<String>().expect("panic message");
            assert!(message.starts_with("item "), "{message}");
        }
    }
}
