//! Call-path profiling: scope stacks aggregated into a flamegraph.
//!
//! The paper's P4 property (self-adaptation) presumes the system can answer
//! "where does the time go?" — not just *how long* a stage took (the scope
//! histograms already answer that) but *under which caller*. With a
//! profile sink attached ([`Telemetry::with_profiling`](crate::Telemetry::with_profiling)),
//! every finished [`Scope`](crate::Scope) folds its inclusive and
//! exclusive time into an aggregate keyed by its full call path (`a;b;c`),
//! the `;`-joined names of the scopes open on its thread:
//!
//! * [`ProfileSnapshot::render_collapsed`] exports the aggregate in the
//!   collapsed-stack format `flamegraph.pl` consumes (`path count`, one
//!   line per path, counts in exclusive microseconds);
//! * [`ProfileSnapshot::render_top`] is the human-readable top-N table.
//!
//! ```
//! use megastream_telemetry::Telemetry;
//!
//! let tel = Telemetry::new().with_profiling();
//! {
//!     let _q = tel.scope("query.run");
//!     let _p = tel.scope("query.parse");
//!     std::thread::sleep(std::time::Duration::from_millis(2));
//! } // scopes drop: paths "query.run" and "query.run;query.parse" are recorded
//! let snap = tel.profile_snapshot();
//! assert_eq!(snap.activities.len(), 2);
//! assert!(snap.activities.iter().any(|a| a.path == "query.run;query.parse"));
//! assert!(snap.render_collapsed().contains("query.run;query.parse "));
//! ```

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Aggregate for one call path.
#[derive(Debug, Default, Clone, Copy)]
struct PathAgg {
    count: u64,
    inclusive_micros: u64,
    exclusive_micros: u64,
}

/// The profile sink: per-path aggregates behind one lock.
#[derive(Debug, Default)]
pub(crate) struct ProfileStore {
    agg: Mutex<BTreeMap<String, PathAgg>>,
}

impl ProfileStore {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, PathAgg>> {
        match self.agg.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub(crate) fn record(&self, path: &str, inclusive: u64, exclusive: u64) {
        let mut agg = self.lock();
        // BTreeMap keeps exports deterministic in path order.
        let e = agg.entry(path.to_owned()).or_default();
        e.count += 1;
        e.inclusive_micros += inclusive;
        e.exclusive_micros += exclusive;
    }

    /// Point-in-time copy of the aggregate, sorted by path.
    pub(crate) fn snapshot(&self) -> ProfileSnapshot {
        let activities = self
            .lock()
            .iter()
            .map(|(path, a)| ActivityStat {
                path: path.clone(),
                count: a.count,
                inclusive_micros: a.inclusive_micros,
                exclusive_micros: a.exclusive_micros,
            })
            .collect();
        ProfileSnapshot { activities }
    }
}

/// One aggregated call path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityStat {
    /// `;`-joined path from the thread's root activity to this one.
    pub path: String,
    /// How many times this exact path completed.
    pub count: u64,
    /// Total microseconds including children.
    pub inclusive_micros: u64,
    /// Total microseconds excluding children (self time).
    pub exclusive_micros: u64,
}

impl ActivityStat {
    /// The leaf activity name (the last `;` segment).
    pub fn leaf(&self) -> &str {
        self.path.rsplit(';').next().unwrap_or(&self.path)
    }
}

/// Point-in-time aggregate of every completed activity path.
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    /// All paths, sorted lexicographically by path.
    pub activities: Vec<ActivityStat>,
}

impl ProfileSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }

    /// Total self time across all paths (equals total inclusive time of
    /// root activities).
    pub fn total_micros(&self) -> u64 {
        self.activities.iter().map(|a| a.exclusive_micros).sum()
    }

    /// Collapsed-stack export, one `path count` line per path with
    /// non-zero self time, `flamegraph.pl`-compatible (counts are
    /// exclusive microseconds). Lines are sorted by path, so the export
    /// is deterministic for a given aggregate.
    pub fn render_collapsed(&self) -> String {
        let mut out = String::new();
        for a in &self.activities {
            if a.exclusive_micros > 0 {
                out.push_str(&format!("{} {}\n", a.path, a.exclusive_micros));
            }
        }
        out
    }

    /// Human-readable top-`n` table by exclusive (self) time.
    pub fn render_top(&self, n: usize) -> String {
        let mut ranked: Vec<&ActivityStat> = self.activities.iter().collect();
        ranked.sort_by(|a, b| {
            b.exclusive_micros
                .cmp(&a.exclusive_micros)
                .then_with(|| a.path.cmp(&b.path))
        });
        let total = self.total_micros().max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{:>10}  {:>6}  {:>8}  {:>10}  path\n",
            "self µs", "%", "calls", "incl µs"
        ));
        for a in ranked.into_iter().take(n) {
            out.push_str(&format!(
                "{:>10}  {:>5.1}%  {:>8}  {:>10}  {}\n",
                a.exclusive_micros,
                a.exclusive_micros as f64 * 100.0 / total as f64,
                a.count,
                a.inclusive_micros,
                a.path,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScopeParent, Telemetry};

    fn profiled() -> Telemetry {
        Telemetry::new().with_profiling()
    }

    fn paths(tel: &Telemetry) -> Vec<String> {
        let snap = tel.profile_snapshot();
        snap.activities.into_iter().map(|a| a.path).collect()
    }

    #[test]
    fn nesting_builds_semicolon_paths() {
        let tel = profiled();
        {
            let _q = tel.scope("query");
            {
                let _p = tel.scope("parse");
            }
            {
                let _m = tel.scope("merge");
                let _i = tel.scope("inner");
            }
        }
        assert_eq!(
            paths(&tel),
            vec!["query", "query;merge", "query;merge;inner", "query;parse"]
        );
        assert!(tel
            .profile_snapshot()
            .activities
            .iter()
            .all(|a| a.count == 1));
    }

    #[test]
    fn exclusive_excludes_children_inclusive_does_not() {
        let tel = profiled();
        {
            let _outer = tel.scope("outer");
            {
                let _inner = tel.scope("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let snap = tel.profile_snapshot();
        let outer = snap
            .activities
            .iter()
            .find(|a| a.path == "outer")
            .expect("outer recorded");
        let inner = snap
            .activities
            .iter()
            .find(|a| a.path == "outer;inner")
            .expect("inner recorded");
        assert!(inner.inclusive_micros >= 2000);
        assert!(outer.inclusive_micros >= inner.inclusive_micros);
        // Outer self time excludes the slept-in child.
        assert_eq!(
            outer.exclusive_micros,
            outer.inclusive_micros - inner.inclusive_micros
        );
        assert_eq!(inner.inclusive_micros, inner.exclusive_micros);
    }

    #[test]
    fn repeated_paths_aggregate() {
        let tel = profiled();
        for _ in 0..5 {
            let _a = tel.scope("tick");
        }
        let snap = tel.profile_snapshot();
        assert_eq!(snap.activities.len(), 1);
        assert_eq!(snap.activities[0].count, 5);
    }

    #[test]
    fn collapsed_stack_lines_parse() {
        let tel = profiled();
        {
            let _a = tel.scope("a");
            let _b = tel.scope("b");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        for line in tel.profile_snapshot().render_collapsed().lines() {
            let (path, count) = line.rsplit_once(' ').expect("space-separated");
            assert!(!path.is_empty());
            assert!(path.split(';').all(|f| !f.is_empty()), "no empty frames");
            assert!(count.parse::<u64>().expect("count parses") > 0);
        }
    }

    #[test]
    fn worker_paths_continue_only_through_an_entered_parent() {
        let tel = profiled();
        let main = tel.scope("main");
        let parent = ScopeParent::current();
        std::thread::scope(|s| {
            // A fresh worker stack starts empty: no "main;" prefix.
            s.spawn(|| tel.scope("worker").finish());
            s.spawn(|| {
                let _entered = parent.enter();
                tel.scope("joined").finish();
            });
        });
        drop(main);
        assert_eq!(paths(&tel), vec!["main", "main;joined", "worker"]);
    }

    #[test]
    fn out_of_order_drop_does_not_corrupt_stack() {
        let tel = profiled();
        let a = tel.scope("a");
        let b = tel.scope("b");
        drop(a); // drops before b: b's frame is discarded from the stack
        let c = tel.scope("c");
        drop(b); // must not pop c's frame
        {
            let _d = tel.scope("d");
        }
        drop(c);
        // "c" is a fresh root, not nested under a stale frame, and "d"
        // still nests under it.
        let paths = paths(&tel);
        assert!(paths.contains(&"c".to_owned()), "{paths:?}");
        assert!(paths.contains(&"c;d".to_owned()), "{paths:?}");
    }

    #[test]
    fn top_table_ranks_by_self_time() {
        let tel = profiled();
        tel.scope("fast").finish();
        {
            let _slow = tel.scope("slow");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let top = tel.profile_snapshot().render_top(1);
        assert!(top.contains("slow"));
        assert!(!top.contains("fast"));
    }

    #[test]
    fn leaf_returns_last_segment() {
        let s = ActivityStat {
            path: "a;b;c".into(),
            count: 1,
            inclusive_micros: 1,
            exclusive_micros: 1,
        };
        assert_eq!(s.leaf(), "c");
    }
}
