//! Triggers: the data store's fast path to the controller.
//!
//! "Applications … install triggers in the data store, to influence future
//! behavior. As the name suggests, triggers are triggered by events and
//! then signal a controller" (§III-A). Triggers are evaluated on the data
//! path — against raw readings and flow records as they arrive — so the
//! controller can react within machine-level time budgets without waiting
//! for analytics.

use std::collections::VecDeque;
use std::fmt;

use megastream_flow::key::FlowKey;
use megastream_flow::record::FlowRecord;
use megastream_flow::score::Popularity;
use megastream_flow::time::{TimeDelta, Timestamp};

use crate::store::StreamId;

/// Identifier of an installed trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TriggerId(pub(crate) usize);

impl fmt::Display for TriggerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trig{}", self.0)
    }
}

/// The condition a trigger matches.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerCondition {
    /// A scalar reading on `stream` exceeds `threshold`.
    ScalarAbove {
        /// The watched stream.
        stream: StreamId,
        /// Firing threshold.
        threshold: f64,
    },
    /// A scalar reading on `stream` falls below `threshold`.
    ScalarBelow {
        /// The watched stream.
        stream: StreamId,
        /// Firing threshold.
        threshold: f64,
    },
    /// Accumulated score of flows matching `key` exceeds `threshold`
    /// within a sliding window of `window_len` (e.g. a DDoS rate trigger).
    FlowScoreAbove {
        /// Flows matching this (generalized) key are counted.
        key: FlowKey,
        /// Score threshold within the window.
        threshold: Popularity,
        /// Sliding-window length.
        window_len: TimeDelta,
    },
}

/// An installed trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    /// Identifier within the owning data store.
    pub id: TriggerId,
    /// Name of the application that installed it.
    pub installed_by: String,
    /// The matching condition.
    pub condition: TriggerCondition,
    /// Minimum time between firings (debounce), so a persistently abnormal
    /// signal does not flood the controller.
    pub cooldown: TimeDelta,
}

/// A firing produced when a trigger matches.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerEvent {
    /// Which trigger fired.
    pub trigger: TriggerId,
    /// The application that installed it.
    pub installed_by: String,
    /// When it fired.
    pub at: Timestamp,
    /// The observed value/score that crossed the threshold.
    pub observed: f64,
}

/// Per-trigger runtime state.
#[derive(Debug, Clone, Default)]
struct TriggerState {
    last_fired: Option<Timestamp>,
    /// For flow-score triggers: the (timestamp, packets) entries in the window.
    window: FlowWindow,
}

/// A flow-score trigger's sliding window: `(timestamp, packets)` entries
/// sorted by timestamp, and their wrapping sum.
///
/// An entry leaves the window once a record arrives at `at` with
/// `ts + window_len <= at`. That condition is monotone in `ts`, so the
/// expired entries are always a prefix of the sorted window, whatever
/// order records arrive in: popping from the front removes exactly the
/// entries a scan of the whole window would, and the sum is the score.
#[derive(Debug, Clone, Default)]
struct FlowWindow {
    entries: VecDeque<(Timestamp, u64)>,
    sum: u64,
}

impl FlowWindow {
    /// Adds `packets` seen at `at` and expires what `at` pushes out of a
    /// window of `len`. Returns the score and the entries touched: pushed,
    /// popped, or shifted by a late record's insert.
    fn slide(&mut self, at: Timestamp, packets: u64, len: TimeDelta) -> (u64, u64) {
        let mut touched = 1;
        match self.entries.back() {
            Some(&(newest, _)) if at < newest => {
                // A late record goes after every entry at or before `at`;
                // the entries behind its slot shift.
                let slot = self.entries.partition_point(|&(ts, _)| ts <= at);
                touched += (self.entries.len() - slot) as u64;
                self.entries.insert(slot, (at, packets));
            }
            _ => self.entries.push_back((at, packets)),
        }
        self.sum = self.sum.wrapping_add(packets);
        // Pop while `ts + len <= at`. The front is never later than the new
        // entry at `at`, so `at - ts` cannot underflow, and unlike
        // `ts + len` it cannot overflow.
        while let Some(&(ts, old)) = self.entries.front() {
            if at.saturating_since(ts) < len {
                break;
            }
            touched += 1;
            self.sum = self.sum.wrapping_sub(old);
            self.entries.pop_front();
        }
        (self.sum, touched)
    }
}

/// The trigger registry and matcher of one data store.
#[derive(Debug, Clone, Default)]
pub struct TriggerEngine {
    triggers: Vec<(Trigger, TriggerState)>,
    next_id: usize,
    fired: u64,
    window_touches: u64,
}

impl TriggerEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        TriggerEngine::default()
    }

    /// Installs a trigger, returning its id.
    pub fn install(
        &mut self,
        installed_by: impl Into<String>,
        condition: TriggerCondition,
        cooldown: TimeDelta,
    ) -> TriggerId {
        let id = TriggerId(self.next_id);
        self.next_id += 1;
        self.triggers.push((
            Trigger {
                id,
                installed_by: installed_by.into(),
                condition,
                cooldown,
            },
            TriggerState::default(),
        ));
        id
    }

    /// Removes a trigger. Returns whether it existed.
    pub fn remove(&mut self, id: TriggerId) -> bool {
        let before = self.triggers.len();
        self.triggers.retain(|(t, _)| t.id != id);
        before != self.triggers.len()
    }

    /// Number of installed triggers.
    pub fn len(&self) -> usize {
        self.triggers.len()
    }

    /// Whether no triggers are installed.
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }

    /// Total number of firings so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Installed triggers.
    pub fn iter(&self) -> impl Iterator<Item = &Trigger> {
        self.triggers.iter().map(|(t, _)| t)
    }

    /// Flow-score window entries touched so far: each entry pushed,
    /// popped, or shifted by a late record's insert. A deterministic work
    /// counter: for in-order records it stays within two per matching
    /// record, whatever the attack rate.
    pub fn window_touches(&self) -> u64 {
        self.window_touches
    }

    /// Evaluates a scalar reading, returning any firings.
    pub fn on_scalar(&mut self, stream: &StreamId, value: f64, at: Timestamp) -> Vec<TriggerEvent> {
        let mut out = Vec::new();
        for (trigger, state) in &mut self.triggers {
            let hit = match &trigger.condition {
                TriggerCondition::ScalarAbove {
                    stream: s,
                    threshold,
                } => s == stream && value > *threshold,
                TriggerCondition::ScalarBelow {
                    stream: s,
                    threshold,
                } => s == stream && value < *threshold,
                TriggerCondition::FlowScoreAbove { .. } => false,
            };
            if hit && cooldown_ok(state, trigger.cooldown, at) {
                state.last_fired = Some(at);
                self.fired += 1;
                out.push(TriggerEvent {
                    trigger: trigger.id,
                    installed_by: trigger.installed_by.clone(),
                    at,
                    observed: value,
                });
            }
        }
        out
    }

    /// Evaluates a flow record, returning any firings.
    pub fn on_flow(&mut self, rec: &FlowRecord, at: Timestamp) -> Vec<TriggerEvent> {
        let mut out = Vec::new();
        let rec_key = FlowKey::from_record(rec);
        for (trigger, state) in &mut self.triggers {
            if let TriggerCondition::FlowScoreAbove {
                key,
                threshold,
                window_len,
            } = &trigger.condition
            {
                if !key.contains(&rec_key) {
                    continue;
                }
                let (score, touched) = state.window.slide(at, rec.packets, *window_len);
                self.window_touches += touched;
                if score > threshold.value() && cooldown_ok(state, trigger.cooldown, at) {
                    state.last_fired = Some(at);
                    self.fired += 1;
                    out.push(TriggerEvent {
                        trigger: trigger.id,
                        installed_by: trigger.installed_by.clone(),
                        at,
                        observed: score as f64,
                    });
                }
            }
        }
        out
    }
}

fn cooldown_ok(state: &TriggerState, cooldown: TimeDelta, at: Timestamp) -> bool {
    match state.last_fired {
        None => true,
        Some(last) => at.saturating_since(last) >= cooldown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::{collection, sample};

    fn stream(name: &str) -> StreamId {
        StreamId::new(name)
    }

    fn dst_key(prefix: &str) -> FlowKey {
        FlowKey::root().with_dst_prefix(prefix.parse().unwrap())
    }

    fn flow(dst: &str, packets: u64) -> FlowRecord {
        FlowRecord::builder()
            .proto(17)
            .src("1.2.3.4".parse().unwrap(), 5000)
            .dst(dst.parse().unwrap(), 53)
            .packets(packets)
            .build()
    }

    /// The brute-force window the deque must match: push, `retain` the
    /// live entries, then re-sum the whole window on every match. The sum
    /// wraps, as `Iterator::sum` does in a release build.
    struct Reference {
        /// Each trigger with its last firing and its window.
        triggers: Vec<(Trigger, Option<Timestamp>, Window)>,
    }

    type Window = Vec<(Timestamp, u64)>;

    impl Reference {
        fn of(eng: &TriggerEngine) -> Self {
            Reference {
                triggers: eng.iter().map(|t| (t.clone(), None, Vec::new())).collect(),
            }
        }

        fn on_flow(&mut self, rec: &FlowRecord, at: Timestamp) -> Vec<TriggerEvent> {
            let mut out = Vec::new();
            let rec_key = FlowKey::from_record(rec);
            for (trigger, last_fired, window) in &mut self.triggers {
                let TriggerCondition::FlowScoreAbove {
                    key,
                    threshold,
                    window_len,
                } = &trigger.condition
                else {
                    continue;
                };
                if !key.contains(&rec_key) {
                    continue;
                }
                window.push((at, rec.packets));
                window.retain(|(ts, _)| *ts + *window_len > at);
                let score = window.iter().fold(0u64, |s, (_, p)| s.wrapping_add(*p));
                let cooled = match last_fired {
                    None => true,
                    Some(last) => at.saturating_since(*last) >= trigger.cooldown,
                };
                if score > threshold.value() && cooled {
                    *last_fired = Some(at);
                    out.push(TriggerEvent {
                        trigger: trigger.id,
                        installed_by: trigger.installed_by.clone(),
                        at,
                        observed: score as f64,
                    });
                }
            }
            out
        }
    }

    /// One generated record: how its timestamp moves, the step, which
    /// destination it hits, and its packet count.
    type Op = (u8, u64, u8, u8);

    /// Timestamp and record of every op. The cursor starts at 100 µs and
    /// the windows are a few µs long, so equal timestamps and
    /// `ts + window_len == at` are common:
    /// - kind 0 repeats the cursor (an equal timestamp);
    /// - kind 1 advances it by `step`;
    /// - kind 2 is a late record `step` before the cursor, which stays;
    /// - kind 3 advances it by exactly the first trigger's window.
    ///
    /// Destination 0 matches both triggers, 1 only the /24 and 2 neither.
    /// Packet code 0 is a zero-packet record; with `huge` set, code 7 is
    /// `u64::MAX / 3`, so the sum wraps.
    fn records(ops: &[Op], len_a: u64, huge: bool) -> Vec<(Timestamp, FlowRecord)> {
        let mut cursor = 100u64;
        ops.iter()
            .map(|&(kind, step, dst, code)| {
                let at = match kind {
                    0 => cursor,
                    1 => {
                        cursor += step;
                        cursor
                    }
                    2 => cursor.saturating_sub(step),
                    _ => {
                        cursor += len_a;
                        cursor
                    }
                };
                let dst = ["9.9.9.9", "9.9.9.77", "8.8.8.8"][usize::from(dst)];
                let packets = match code {
                    7 if huge => u64::MAX / 3,
                    c => u64::from(c),
                };
                let at = Timestamp::from_micros(at);
                let mut rec = flow(dst, packets);
                rec.ts = at;
                (at, rec)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The deque window fires exactly as the push/`retain`/sum window:
        /// same trigger, time and observed score on every record.
        #[test]
        fn window_matches_retain_reference(
            ops in collection::vec((0u8..4, 0u64..30, 0u8..3, 0u8..8), 1..400),
            len_a in sample::select(vec![0u64, 1, 10, 25]),
            len_b in sample::select(vec![1u64, 10, 25]),
            threshold_a in sample::select(vec![0u64, 8, 30]),
            cooldown_b in 1u64..12,
            huge in any::<bool>(),
        ) {
            let mut eng = TriggerEngine::new();
            eng.install(
                "victim",
                TriggerCondition::FlowScoreAbove {
                    key: dst_key("9.9.9.9/32"),
                    threshold: Popularity::new(threshold_a),
                    window_len: TimeDelta::from_micros(len_a),
                },
                TimeDelta::ZERO,
            );
            eng.install(
                "subnet",
                TriggerCondition::FlowScoreAbove {
                    key: dst_key("9.9.9.0/24"),
                    threshold: Popularity::new(12),
                    window_len: TimeDelta::from_micros(len_b),
                },
                TimeDelta::from_micros(cooldown_b),
            );
            let mut reference = Reference::of(&eng);
            let mut fired = 0;
            for (i, (at, rec)) in records(&ops, len_a, huge).iter().enumerate() {
                let want = reference.on_flow(rec, *at);
                fired += want.len() as u64;
                prop_assert_eq!(
                    eng.on_flow(rec, *at),
                    want,
                    "record {} at {}: len_a {} len_b {} threshold_a {} cooldown_b {} huge {} ops {:?}",
                    i, at, len_a, len_b, threshold_a, cooldown_b, huge, ops
                );
            }
            prop_assert_eq!(eng.fired(), fired);
        }
    }

    #[test]
    fn late_record_does_not_revive_expired_entries() {
        let mut eng = TriggerEngine::new();
        eng.install(
            "app",
            TriggerCondition::FlowScoreAbove {
                key: dst_key("9.9.9.9/32"),
                threshold: Popularity::new(0),
                window_len: TimeDelta::from_secs(10),
            },
            TimeDelta::ZERO,
        );
        let mut score_at = |secs: u64, packets: u64| {
            let at = Timestamp::from_secs(secs);
            eng.on_flow(&flow("9.9.9.9", packets), at)[0].observed
        };
        assert_eq!(score_at(0, 1), 1.0);
        // t = 0 expires at t = 10: 0 + 10 <= 10.
        assert_eq!(score_at(10, 2), 2.0);
        assert_eq!(score_at(20, 4), 4.0);
        // A late record at t = 5: t = 0 and t = 10 left the window earlier
        // and do not come back; t = 20 is later than t = 5 and still counts.
        assert_eq!(score_at(5, 8), 12.0);
        // The late entry sorts first and expires first.
        assert_eq!(score_at(25, 16), 20.0);
    }

    #[test]
    fn window_expiry_does_not_overflow_near_the_end_of_time() {
        let mut eng = TriggerEngine::new();
        eng.install(
            "app",
            TriggerCondition::FlowScoreAbove {
                key: dst_key("9.9.9.9/32"),
                threshold: Popularity::new(0),
                window_len: TimeDelta::from_secs(10),
            },
            TimeDelta::ZERO,
        );
        let last = Timestamp::from_micros(u64::MAX);
        let early = Timestamp::from_micros(u64::MAX - 20_000_000);
        for (at, score) in [(early, 1.0), (last, 1.0), (early, 2.0)] {
            assert_eq!(eng.on_flow(&flow("9.9.9.9", 1), at)[0].observed, score);
        }
    }

    /// The work gate: 1×, 4× and 16× the attack rate, in order, a 10 s
    /// window over a 60 s attack. Each matching record touches a bounded
    /// number of window entries, however full the window is.
    #[test]
    fn window_work_per_match_is_flat_in_attack_rate() {
        for rate in [250u64, 1000, 4000] {
            let mut eng = TriggerEngine::new();
            eng.install(
                "ddos-app",
                TriggerCondition::FlowScoreAbove {
                    key: dst_key("9.9.9.9/32"),
                    threshold: Popularity::new(rate * 10),
                    window_len: TimeDelta::from_secs(10),
                },
                TimeDelta::from_secs(10),
            );
            let matching = rate * 60;
            let mut rec = flow("9.9.9.9", 10);
            for k in 0..matching {
                rec.ts = Timestamp::from_micros(k * 1_000_000 / rate);
                eng.on_flow(&rec, rec.ts);
            }
            let per_match = eng.window_touches() as f64 / matching as f64;
            assert!(
                per_match <= 3.0,
                "{rate} matching records/s: {per_match:.2} window entries touched per record"
            );
            assert!(eng.fired() >= 5, "{rate}/s: fired {}", eng.fired());
        }
    }

    #[test]
    fn scalar_above_fires_once_per_cooldown() {
        let mut eng = TriggerEngine::new();
        let id = eng.install(
            "maintenance-app",
            TriggerCondition::ScalarAbove {
                stream: stream("m0/temperature"),
                threshold: 80.0,
            },
            TimeDelta::from_secs(10),
        );
        // Below threshold → nothing.
        assert!(eng
            .on_scalar(&stream("m0/temperature"), 75.0, Timestamp::ZERO)
            .is_empty());
        // Above → fires.
        let events = eng.on_scalar(&stream("m0/temperature"), 85.0, Timestamp::from_secs(1));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trigger, id);
        assert_eq!(events[0].observed, 85.0);
        // Within cooldown → suppressed.
        assert!(eng
            .on_scalar(&stream("m0/temperature"), 90.0, Timestamp::from_secs(5))
            .is_empty());
        // After cooldown → fires again.
        assert_eq!(
            eng.on_scalar(&stream("m0/temperature"), 90.0, Timestamp::from_secs(12))
                .len(),
            1
        );
        assert_eq!(eng.fired(), 2);
    }

    #[test]
    fn scalar_triggers_are_stream_scoped() {
        let mut eng = TriggerEngine::new();
        eng.install(
            "app",
            TriggerCondition::ScalarAbove {
                stream: stream("m0/temperature"),
                threshold: 80.0,
            },
            TimeDelta::ZERO,
        );
        assert!(eng
            .on_scalar(&stream("m1/temperature"), 99.0, Timestamp::ZERO)
            .is_empty());
    }

    #[test]
    fn scalar_below() {
        let mut eng = TriggerEngine::new();
        eng.install(
            "app",
            TriggerCondition::ScalarBelow {
                stream: stream("m0/current"),
                threshold: 5.0,
            },
            TimeDelta::ZERO,
        );
        assert_eq!(
            eng.on_scalar(&stream("m0/current"), 2.0, Timestamp::ZERO)
                .len(),
            1
        );
    }

    #[test]
    fn flow_score_trigger_slides_window() {
        let mut eng = TriggerEngine::new();
        let victim = FlowKey::root().with_dst_prefix("9.9.9.9/32".parse().unwrap());
        eng.install(
            "ddos-app",
            TriggerCondition::FlowScoreAbove {
                key: victim,
                threshold: Popularity::new(100),
                window_len: TimeDelta::from_secs(10),
            },
            TimeDelta::from_secs(30),
        );
        let attack = |ts: u64| {
            FlowRecord::builder()
                .ts(Timestamp::from_secs(ts))
                .proto(17)
                .src("1.2.3.4".parse().unwrap(), 5000)
                .dst("9.9.9.9".parse().unwrap(), 53)
                .packets(30)
                .build()
        };
        // 3 records × 30 packets = 90 ≤ 100 → no firing yet.
        for ts in 0..3 {
            assert!(eng
                .on_flow(&attack(ts), Timestamp::from_secs(ts))
                .is_empty());
        }
        // Fourth crosses 100.
        let events = eng.on_flow(&attack(3), Timestamp::from_secs(3));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].observed, 120.0);
        // Unrelated traffic never matches.
        let other = FlowRecord::builder()
            .proto(6)
            .src("1.2.3.4".parse().unwrap(), 5000)
            .dst("8.8.8.8".parse().unwrap(), 443)
            .packets(1000)
            .build();
        assert!(eng.on_flow(&other, Timestamp::from_secs(4)).is_empty());
    }

    #[test]
    fn flow_window_expires_old_traffic() {
        let mut eng = TriggerEngine::new();
        let victim = FlowKey::root().with_dst_prefix("9.9.9.9/32".parse().unwrap());
        eng.install(
            "ddos-app",
            TriggerCondition::FlowScoreAbove {
                key: victim,
                threshold: Popularity::new(50),
                window_len: TimeDelta::from_secs(5),
            },
            TimeDelta::ZERO,
        );
        let attack = |_ts: u64, pkts: u64| {
            FlowRecord::builder()
                .proto(17)
                .src("1.2.3.4".parse().unwrap(), 5000)
                .dst("9.9.9.9".parse().unwrap(), 53)
                .packets(pkts)
                .build()
        };
        // 40 packets at t=0, 40 more at t=10: window slid, never exceeds 50.
        assert!(eng.on_flow(&attack(0, 40), Timestamp::ZERO).is_empty());
        assert!(eng
            .on_flow(&attack(10, 40), Timestamp::from_secs(10))
            .is_empty());
    }

    #[test]
    fn install_remove() {
        let mut eng = TriggerEngine::new();
        let id = eng.install(
            "app",
            TriggerCondition::ScalarAbove {
                stream: stream("s"),
                threshold: 1.0,
            },
            TimeDelta::ZERO,
        );
        assert_eq!(eng.len(), 1);
        assert!(eng.remove(id));
        assert!(!eng.remove(id));
        assert!(eng.is_empty());
    }
}
