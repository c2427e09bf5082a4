//! Computing primitives: flexible, combinable, self-adaptive stream
//! aggregators.
//!
//! §V of the paper calls for *novel computing primitives* with five design
//! properties:
//!
//! * **P1 — arbitrary queries** on the data summary,
//! * **P2 — combinable summaries** across time and location,
//! * **P3 — adjustable aggregation granularity**,
//! * **P4 — self-adaptation** to incoming data and queries,
//! * **P5 — domain knowledge** shaping aggregation levels.
//!
//! The [`aggregator`] module captures this contract as traits; the remaining
//! modules provide the aggregation methods the paper lists as building
//! blocks ("simple statistics over time bins …, sampling methods, … heavy
//! hitter detection or even hierarchical heavy hitter detection"):
//!
//! * [`sampling`] — the paper's §V-B *toy example*: a randomly sampled time
//!   series,
//! * [`timebin`] — sum/mean/min/max/stddev/quantile statistics over time bins,
//! * [`reservoir`] — mergeable reservoir sampling,
//! * [`spacesaving`] — Space-Saving heavy-hitter detection,
//! * [`cms`] — Count-Min sketch frequency estimation,
//! * [`exact`] — an exact flow table (the memory-unconstrained baseline) and
//!   exact hierarchical heavy hitters,
//! * [`adaptive`] — a feedback controller that retunes granularity online
//!   (property P4).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Data-plane rules (DESIGN.md §12): no panicking call and no hash-ordered
// collection in non-test code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types)]
#![cfg_attr(test, allow(clippy::unreachable, reason = "tests are exempt"))]
#![cfg_attr(test, allow(clippy::disallowed_types, reason = "tests are exempt"))]

pub mod adaptive;
pub mod aggregator;
pub mod cms;
pub mod exact;
pub mod reservoir;
pub mod sampling;
pub mod spacesaving;
pub mod timebin;

pub use adaptive::GranularityController;
pub use aggregator::{
    AdaptationFeedback, Combinable, ComputingPrimitive, Granularity, PrimitiveDescription,
};
pub use cms::CountMinSketch;
pub use exact::{ExactFlowTable, HhhItem};
pub use reservoir::Reservoir;
pub use sampling::{SampledSeries, SampledTimeSeries};
pub use spacesaving::SpaceSaving;
pub use timebin::{BinStats, TimeBinStats};
