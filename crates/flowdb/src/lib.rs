//! **FlowDB** and **FlowQL** (paper §VI, Fig. 5 ④/⑤).
//!
//! FlowDB is the analytic engine of the Flowstream system: it "takes flow
//! summaries as input, stores, and indexes them while using them to answer
//! FlowQL queries". FlowQL is "an SQL-like query language which uses
//! Flowtree operators to answer network management questions": the user
//! chooses the operator via the `SELECT` clause, one or multiple time
//! periods via the `FROM` clause, and the feature set plus restrictions via
//! the `WHERE` clause.
//!
//! ```
//! use megastream_flowdb::{FlowDb, parse};
//! use megastream_flow::record::FlowRecord;
//! use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
//! use megastream_flowtree::{Flowtree, FlowtreeConfig};
//!
//! let mut tree = Flowtree::new(FlowtreeConfig::default());
//! tree.observe(&FlowRecord::builder()
//!     .proto(6)
//!     .src("10.1.2.3".parse()?, 443)
//!     .dst("8.8.8.8".parse()?, 53)
//!     .packets(10)
//!     .build());
//!
//! let mut db = FlowDb::new();
//! db.insert("region-0", TimeWindow::starting_at(Timestamp::ZERO, TimeDelta::from_secs(60)), tree);
//!
//! let query = parse("SELECT QUERY FROM [0, 60) WHERE src_ip = 10.0.0.0/8")?;
//! let result = db.execute(&query)?;
//! assert_eq!(result.rows[0].score, 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
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

pub mod ast;
pub mod db;
pub mod exec;
pub mod lexer;
pub mod par;
pub mod parser;

pub use ast::{Query, Restriction, SelectOp, TimeSelection};
pub use db::{DbEntry, EntryId, FlowDb};
pub use exec::{Completeness, QueryCost, QueryError, QueryResult, ResultRow};
pub use par::Parallelism;
pub use parser::{parse, ParseError};
