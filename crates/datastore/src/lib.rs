//! The **data store** (paper §IV, Fig. 4): the only entity in the
//! architecture that persistently stores data.
//!
//! A data store selects and collects data from sensors, feeds it into
//! *aggregators* (instances of computing primitives that subscribed to the
//! respective streams), matches *triggers* against incoming data on behalf
//! of the controller, and manages its storage budget with one of three
//! strategies (§IV "Storage"):
//!
//! * **S1** fixed expiration — summaries live for a configured TTL,
//! * **S2** round-robin — the budget is fully used; the oldest summaries
//!   are dropped when space runs out,
//! * **S3** round-robin + hierarchical aggregation — instead of dropping,
//!   old summaries are merged and degraded to a coarser granularity with a
//!   smaller footprint ("long-term storage but at the price of reduced
//!   detail").
//!
//! Modules:
//!
//! * [`summary`] — the type-erased [`Summary`] exchanged
//!   between stores, with schema-level lineage tags (§III-C),
//! * [`aggregator`] — installable aggregator instances,
//! * [`storage`] — the three storage strategies,
//! * [`trigger`] — trigger registry and matching,
//! * [`store`] — the [`DataStore`] tying it together.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Data-plane rules (DESIGN.md §12): no panicking call and no hash-ordered
// collection in non-test code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types)]
#![cfg_attr(test, allow(clippy::unreachable, reason = "tests are exempt"))]
#![cfg_attr(test, allow(clippy::disallowed_types, reason = "tests are exempt"))]

pub mod aggregator;
pub mod storage;
pub mod store;
pub mod summary;
pub mod trigger;

pub use aggregator::{AggregatorId, AggregatorInstance, AggregatorSpec};
pub use storage::{StorageStrategy, SummaryStore};
pub use store::{DataStore, StreamId};
pub use summary::{Lineage, StoredSummary, Summary};
pub use trigger::{Trigger, TriggerCondition, TriggerEngine, TriggerEvent, TriggerId};
