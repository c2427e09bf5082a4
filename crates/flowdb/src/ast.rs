//! The FlowQL abstract syntax tree.

use megastream_flow::addr::Prefix;
use megastream_flow::key::{Feature, FlowKey, MaskedField};
use megastream_flow::time::TimeWindow;

use crate::exec::QueryError;

/// The operator chosen in the `SELECT` clause — one Flowtree operator per
/// query (Table II).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectOp {
    /// `SELECT QUERY` — popularity score of the WHERE key.
    Query,
    /// `SELECT TOPK k` — the k most popular flows under the WHERE key.
    TopK(usize),
    /// `SELECT ABOVE x` — flows with popularity above `x`.
    Above(u64),
    /// `SELECT HHH x` — hierarchical heavy hitters at threshold `x`.
    Hhh(u64),
    /// `SELECT DRILLDOWN` — children of the WHERE key.
    Drilldown,
}

impl SelectOp {
    /// Stable lower-case label of the operator kind, used as the `op=` tag
    /// on telemetry metric names.
    pub fn kind(&self) -> &'static str {
        match self {
            SelectOp::Query => "query",
            SelectOp::TopK(_) => "topk",
            SelectOp::Above(_) => "above",
            SelectOp::Hhh(_) => "hhh",
            SelectOp::Drilldown => "drilldown",
        }
    }
}

impl std::fmt::Display for SelectOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectOp::Query => write!(f, "QUERY"),
            SelectOp::TopK(k) => write!(f, "TOPK {k}"),
            SelectOp::Above(x) => write!(f, "ABOVE {x}"),
            SelectOp::Hhh(x) => write!(f, "HHH {x}"),
            SelectOp::Drilldown => write!(f, "DRILLDOWN"),
        }
    }
}

/// The `FROM` clause: which time periods to combine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimeSelection {
    /// `FROM ALL` — every stored period.
    All,
    /// `FROM [a, b), [c, d), …` — explicit windows (seconds).
    Windows(Vec<TimeWindow>),
}

impl TimeSelection {
    /// Whether a stored summary window matches the selection.
    pub fn matches(&self, window: TimeWindow) -> bool {
        match self {
            TimeSelection::All => true,
            TimeSelection::Windows(ws) => ws.iter().any(|w| w.overlaps(window)),
        }
    }
}

/// One `WHERE` restriction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Restriction {
    /// `location = "region-0"` — restrict to summaries from one location.
    Location(String),
    /// `src_ip = a.b.c.d/n` (or `dst_ip = …`) — an IP feature restriction.
    IpFeature {
        /// Which IP feature.
        feature: Feature,
        /// The prefix to match.
        prefix: Prefix,
    },
    /// `proto = 6`, `src_port = 443`, `dst_port = 53` — an exact numeric
    /// feature restriction.
    NumericFeature {
        /// Which numeric feature.
        feature: Feature,
        /// The exact value.
        value: u32,
    },
}

/// A parsed FlowQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The Flowtree operator to run.
    pub op: SelectOp,
    /// Which time periods to combine.
    pub time: TimeSelection,
    /// WHERE restrictions.
    pub restrictions: Vec<Restriction>,
    /// `GROUP BY location`: run the operator once per location instead of
    /// merging across locations (e.g. a per-region top-k).
    pub group_by_location: bool,
}

impl Query {
    /// The locations the query restricts to (empty = all locations).
    pub fn locations(&self) -> Vec<&str> {
        self.restrictions
            .iter()
            .filter_map(|r| match r {
                Restriction::Location(l) => Some(l.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Builds the generalized flow key the feature restrictions describe
    /// (the WHERE clause "chooses the feature set").
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidRestriction`] if a prefix restriction names a
    /// numeric feature, a numeric one names an IP feature, or a numeric
    /// value does not fit its feature's width. The parser never produces
    /// such a query; a hand-built one can.
    pub fn where_key(&self) -> Result<FlowKey, QueryError> {
        let mut key = FlowKey::root();
        for r in &self.restrictions {
            match r {
                Restriction::Location(_) => {}
                Restriction::IpFeature { feature, prefix } => {
                    if !is_ip(*feature) {
                        return Err(QueryError::InvalidRestriction(*feature));
                    }
                    key = key.with_field(
                        *feature,
                        MaskedField::new(prefix.addr().bits(), 32, prefix.len()),
                    );
                }
                Restriction::NumericFeature { feature, value } => {
                    if is_ip(*feature) || u64::from(*value) >> feature.width() != 0 {
                        return Err(QueryError::InvalidRestriction(*feature));
                    }
                    key = key.with_field(*feature, MaskedField::exact(*value, feature.width()));
                }
            }
        }
        Ok(key)
    }
}

fn is_ip(feature: Feature) -> bool {
    matches!(feature, Feature::SrcIp | Feature::DstIp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_flow::time::{TimeDelta, Timestamp};

    #[test]
    fn time_selection_matching() {
        let w = |s: u64| TimeWindow::starting_at(Timestamp::from_secs(s), TimeDelta::from_secs(60));
        assert!(TimeSelection::All.matches(w(5)));
        let sel = TimeSelection::Windows(vec![w(0), w(120)]);
        assert!(sel.matches(w(30)));
        assert!(!sel.matches(w(60)));
        assert!(sel.matches(w(150)));
    }

    #[test]
    fn where_key_combines_restrictions() {
        let q = Query {
            op: SelectOp::Query,
            time: TimeSelection::All,
            restrictions: vec![
                Restriction::IpFeature {
                    feature: Feature::SrcIp,
                    prefix: "10.0.0.0/8".parse().unwrap(),
                },
                Restriction::NumericFeature {
                    feature: Feature::DstPort,
                    value: 53,
                },
                Restriction::Location("region-0".into()),
            ],
            group_by_location: false,
        };
        let key = q.where_key().unwrap();
        assert_eq!(key.src_prefix().to_string(), "10.0.0.0/8");
        assert_eq!(key.field(Feature::DstPort).value(), 53);
        assert!(key.field(Feature::Proto).is_wildcard());
        assert_eq!(q.locations(), vec!["region-0"]);
    }

    #[test]
    fn empty_where_is_root() {
        let q = Query {
            op: SelectOp::Query,
            time: TimeSelection::All,
            restrictions: vec![],
            group_by_location: false,
        };
        assert!(q.where_key().unwrap().is_root());
        assert!(q.locations().is_empty());
    }

    #[test]
    fn select_op_display() {
        assert_eq!(SelectOp::TopK(5).to_string(), "TOPK 5");
        assert_eq!(SelectOp::Hhh(100).to_string(), "HHH 100");
    }
}
