//! **megastream** — an architecture for processing *distributed
//! mega-datasets*, reproducing "Distributed Mega-Datasets: The Need for
//! Novel Computing Primitives" (ICDCS 2019).
//!
//! The paper's four building blocks (Fig. 2a) map onto this workspace:
//!
//! | Building block | Crate / module |
//! |---|---|
//! | Data Store — collect & aggregate | [`megastream_datastore`] |
//! | Analytics — transfer & process | [`megastream_analytics`] |
//! | Application — model & learn | [`application`] |
//! | Controller — resolve conflicts & decide | [`controller`] |
//! | Manager (control plane, Fig. 3b) | [`megastream_manager`] |
//!
//! plus the computing primitives themselves ([`megastream_primitives`],
//! [`megastream_flowtree`]), the FlowDB/FlowQL analytic engine
//! ([`megastream_flowdb`]), adaptive replication
//! ([`megastream_replication`]), the network substrate
//! ([`megastream_netsim`]) and the synthetic workloads
//! ([`megastream_workloads`]).
//!
//! This facade crate adds the pieces that tie a deployment together:
//!
//! * [`controller`] — rule installation, conflict resolution, safety
//!   envelopes, actuation,
//! * [`application`] — the application trait plus the three applications
//!   the paper motivates (predictive maintenance, DDoS investigation,
//!   traffic matrices),
//! * [`hierarchy`] — a hierarchy of data stores bound to a simulated
//!   network, with epoch-driven upward summary export (Fig. 2b): the one
//!   export path, with retry, spill and flush per edge, an observer of
//!   every summary it moves, and crash replay of what it observed,
//! * [`flowstream`] — the complete Flowstream system of Fig. 5
//!   (routers → Flowtree data stores → FlowDB → FlowQL), built on a
//!   hierarchy rooted at the NOC store,
//! * [`ops`] — the ops plane: time-series sampling, a rule-driven health
//!   model with hysteresis, and dashboard/JSON/Prometheus exposition.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, or:
//!
//! ```
//! use megastream::flowstream::{Flowstream, FlowstreamConfig};
//! use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};
//!
//! let mut fs = Flowstream::new(2, 4, FlowstreamConfig::default());
//! for rec in FlowTraceGenerator::new(FlowTraceConfig::default()).take(5_000) {
//!     fs.ingest_round_robin(&rec);
//! }
//! fs.finish();
//! let result = fs.query("SELECT TOPK 3 FROM ALL")?;
//! assert_eq!(result.rows.len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod application;
pub mod controller;
pub mod flowstream;
pub mod hierarchy;
pub mod ops;

pub use application::{AppDirective, Application};
pub use controller::{ControlAction, Controller, Rule, RuleId, SafetyEnvelope};
pub use flowstream::{DegradationPolicy, Explanation, Flowstream, FlowstreamConfig};
pub use hierarchy::{ExportStats, HierarchyId, PumpError, PumpPolicy, StoreHierarchy};
pub use megastream_flowdb::Parallelism;
pub use megastream_storage::{ColdTier, FaultMode, FaultSpec, RecoveryReport, SyncPolicy};
pub use ops::OpsPlane;

// Re-export the member crates under short names for downstream users.
pub use megastream_analytics as analytics;
pub use megastream_datastore as datastore;
pub use megastream_flow as flow;
pub use megastream_flowdb as flowdb;
pub use megastream_flowtree as flowtree;
pub use megastream_manager as manager;
pub use megastream_netsim as netsim;
pub use megastream_primitives as primitives;
pub use megastream_replication as replication;
pub use megastream_storage as storage;
pub use megastream_workloads as workloads;
