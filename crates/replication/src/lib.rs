//! Adaptive replication via ski rental (paper §VII, Fig. 6).
//!
//! When a data store repeatedly answers remote queries over a partition it
//! owns, the system faces the classical *ski-rental* dilemma: keep paying
//! the per-query shipping cost ("renting"), or pay the one-time cost of
//! replicating the partition ("buying"). This crate implements:
//!
//! * [`skirental`] — the threshold mathematics: the deterministic
//!   break-even rule (2-competitive, Karlin et al.), the randomized rule
//!   (e/(e−1)-competitive), and the distribution-aware average-case optimal
//!   threshold (Fujiwara & Iwama style) fitted from past partitions,
//! * [`policy`] — the [`ReplicationPolicy`] enum the manager installs per
//!   data store,
//! * [`tracker`] — per-partition access records ("the accesses of
//!   partitions ① can be recorded by the manager"),
//! * [`simulator`] — an offline replayer that scores a policy against a
//!   query trace and against the offline optimum (experiment E8).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod policy;
pub mod simulator;
pub mod skirental;
pub mod tracker;

pub use policy::ReplicationPolicy;
pub use simulator::{replay, replay_with_history, training_volumes, Access, ReplayReport};
pub use skirental::{break_even_threshold, optimal_threshold, randomized_threshold};
pub use tracker::{AccessTracker, PartitionState};
