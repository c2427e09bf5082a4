//! **Flowtree** — the paper's novel computing primitive for network
//! monitoring (§VI, Table II).
//!
//! A Flowtree is a *self-adjusting* summary of a stream of flow records.
//! Every observed flow and every generalization thereof is a node of the
//! flow hierarchy (induced by a
//! [`GeneralizationSchema`](megastream_flow::mask::GeneralizationSchema));
//! the tree materializes a bounded-size subset of that hierarchy and
//! annotates each node with a popularity score. When the node budget is
//! exceeded, the least popular leaves are folded into their parents
//! (*compression*), trading detail for space while **never losing score
//! mass** — the sum of all node scores always equals the total score
//! ingested.
//!
//! The eight operators of Table II:
//!
//! | Operator | Method |
//! |---|---|
//! | Merge | [`Flowtree::merge`] |
//! | Compress | [`Flowtree::compress_to`] |
//! | Diff | [`Flowtree::diff`] |
//! | Query | [`Flowtree::query`] |
//! | Drilldown | [`Flowtree::drilldown`] |
//! | Top-k | [`Flowtree::top_k`] |
//! | Above-x | [`Flowtree::above_x`] |
//! | HHH | [`Flowtree::hhh`] |
//!
//! # Example
//!
//! ```
//! use megastream_flow::record::FlowRecord;
//! use megastream_flow::key::FlowKey;
//! use megastream_flowtree::{Flowtree, FlowtreeConfig};
//!
//! let mut tree = Flowtree::new(FlowtreeConfig::default().with_capacity(256));
//! for i in 0..100u32 {
//!     let rec = FlowRecord::builder()
//!         .proto(6)
//!         .src(format!("10.0.{}.{}", i / 256, i % 256).parse()?, 443)
//!         .dst("93.184.216.34".parse()?, 55000)
//!         .packets(10)
//!         .build();
//!     tree.observe(&rec);
//! }
//! // All traffic came from 10.0.0.0/8.
//! let q = FlowKey::root().with_src_prefix("10.0.0.0/8".parse()?);
//! assert_eq!(tree.query(&q).value(), 1000);
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

mod arena;
mod builder;
mod ops;
#[cfg(feature = "oracle")]
pub mod oracle;
mod query;
mod tree;

pub use builder::FlowtreeConfig;
pub use query::{DrilldownEntry, TreeHhhItem};
pub use tree::{FlatNode, FlatTreeError, Flowtree, NodeView, PreorderNode, FLAT_NO_PARENT};
