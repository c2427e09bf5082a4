//! Generalized network flows for distributed mega-dataset summarization.
//!
//! This crate provides the data model behind the *Flowtree* computing
//! primitive described in "Distributed Mega-Datasets: The Need for Novel
//! Computing Primitives" (ICDCS 2019), §VI:
//!
//! * [`addr::Ipv4Addr`] and [`addr::Prefix`] — addresses and CIDR-style
//!   prefixes used to generalize IP features,
//! * [`key::FlowKey`] — a *generalized flow*: a vector of masked features
//!   (protocol, source/destination IP, source/destination port),
//! * [`mask::GeneralizationSchema`] — the per-feature mask steps that induce
//!   the flow hierarchy ("an IP a.b.c.d is part of the prefix a.b.c.d/n1 and
//!   a.b.c.d/n1 is a more specific of a.b.c.d/n2 if n1 > n2"),
//! * [`record::FlowRecord`] — a raw flow observation (e.g. one NetFlow
//!   record) feeding aggregators,
//! * [`score::Popularity`] — the popularity score annotation (packet, byte
//!   or flow counts) that Flowtree nodes carry,
//! * [`time`] — simulation-friendly timestamps shared across the workspace.
//!
//! # Example
//!
//! ```
//! use megastream_flow::key::FlowKey;
//! use megastream_flow::mask::GeneralizationSchema;
//! use megastream_flow::record::FlowRecord;
//!
//! let rec = FlowRecord::builder()
//!     .proto(6)
//!     .src("10.1.2.3".parse()?, 443)
//!     .dst("192.168.7.9".parse()?, 55211)
//!     .packets(12)
//!     .bytes(9_000)
//!     .build();
//! let key = FlowKey::from_record(&rec);
//! let schema = GeneralizationSchema::default();
//! // Walking up the generalization chain ends at the fully wildcarded root.
//! let ancestors: Vec<_> = schema.ancestors(&key).collect();
//! assert_eq!(ancestors.last().unwrap(), &FlowKey::root());
//! # Ok::<(), megastream_flow::addr::ParseAddrError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Data-plane rules (DESIGN.md §12): no panicking call and no hash-ordered
// collection in non-test code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types)]
#![cfg_attr(test, allow(clippy::unreachable, reason = "tests are exempt"))]
#![cfg_attr(test, allow(clippy::disallowed_types, reason = "tests are exempt"))]

pub mod addr;
pub mod key;
pub mod mask;
pub mod record;
pub mod score;
pub mod time;

pub use addr::{Ipv4Addr, Prefix};
pub use key::{Feature, FeatureSet, FlowKey, MaskedField};
pub use mask::GeneralizationSchema;
pub use record::FlowRecord;
pub use score::{Popularity, ScoreKind};
pub use time::{TimeDelta, TimeWindow, Timestamp};
