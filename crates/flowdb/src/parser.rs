//! The FlowQL recursive-descent parser.
//!
//! Grammar (keywords are case-insensitive):
//!
//! ```text
//! query      := SELECT op FROM time_sel [WHERE cond (AND cond)*]
//!               [GROUP BY location]
//! op         := QUERY | TOPK <n> | ABOVE <n> | HHH <n> | DRILLDOWN
//! time_sel   := ALL | range (',' range)*
//! range      := '[' <secs> ',' <secs> ')'
//! cond       := location '=' <string>
//!             | (src_ip | dst_ip) '=' <addr>[/<len>]
//!             | (proto | src_port | dst_port) '=' <n>
//! ```

use std::fmt;

use megastream_flow::addr::Prefix;
use megastream_flow::key::Feature;
use megastream_flow::time::{TimeWindow, Timestamp};

use crate::ast::{Query, Restriction, SelectOp, TimeSelection};
use crate::lexer::{lex, LexError, Token};

/// A FlowQL parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Lexing failed.
    Lex(LexError),
    /// A token differed from what the grammar expects.
    Unexpected {
        /// What the parser was looking for.
        expected: String,
        /// What it found (`None` = end of input).
        found: Option<Token>,
    },
    /// A numeric value was out of range for its feature.
    ValueOutOfRange {
        /// The feature the value was for.
        feature: String,
        /// The offending value.
        value: u64,
    },
    /// A time range had `end <= start`.
    EmptyTimeRange,
    /// An IP prefix failed to parse.
    BadPrefix(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "lex error: {e}"),
            ParseError::Unexpected { expected, found } => match found {
                Some(t) => write!(f, "expected {expected}, found {t}"),
                None => write!(f, "expected {expected}, found end of query"),
            },
            ParseError::ValueOutOfRange { feature, value } => {
                write!(f, "value {value} out of range for {feature}")
            }
            ParseError::EmptyTimeRange => write!(f, "time range is empty or reversed"),
            ParseError::BadPrefix(s) => write!(f, "invalid address or prefix {s:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses one FlowQL query.
///
/// # Errors
///
/// Returns [`ParseError`] describing the first grammar violation.
///
/// ```
/// use megastream_flowdb::parser::parse;
/// let q = parse("SELECT HHH 1000 FROM ALL WHERE dst_port = 53")?;
/// assert_eq!(q.op.to_string(), "HHH 1000");
/// # Ok::<(), megastream_flowdb::parser::ParseError>(())
/// ```
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let query = p.query()?;
    if let Some(extra) = p.peek() {
        return Err(ParseError::Unexpected {
            expected: "end of query".into(),
            found: Some(extra.clone()),
        });
    }
    Ok(query)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(ParseError::Unexpected {
                expected: kw.to_owned(),
                found: other,
            }),
        }
    }

    fn expect_token(&mut self, token: Token, name: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == token => Ok(()),
            other => Err(ParseError::Unexpected {
                expected: name.to_owned(),
                found: other,
            }),
        }
    }

    fn number(&mut self, what: &str) -> Result<u64, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => Err(ParseError::Unexpected {
                expected: format!("number ({what})"),
                found: other,
            }),
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword("SELECT")?;
        let op = self.select_op()?;
        self.expect_keyword("FROM")?;
        let time = self.time_selection()?;
        let mut restrictions = Vec::new();
        if let Some(Token::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case("WHERE") {
                self.next();
                restrictions.push(self.condition()?);
                while let Some(Token::Word(w)) = self.peek() {
                    if w.eq_ignore_ascii_case("AND") {
                        self.next();
                        restrictions.push(self.condition()?);
                    } else {
                        break;
                    }
                }
            }
        }
        let mut group_by_location = false;
        if let Some(Token::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case("GROUP") {
                self.next();
                self.expect_keyword("BY")?;
                match self.next() {
                    Some(Token::Word(w)) if w.eq_ignore_ascii_case("location") => {
                        group_by_location = true;
                    }
                    other => {
                        return Err(ParseError::Unexpected {
                            expected: "location (the only GROUP BY dimension)".into(),
                            found: other,
                        })
                    }
                }
            }
        }
        Ok(Query {
            op,
            time,
            restrictions,
            group_by_location,
        })
    }

    fn select_op(&mut self) -> Result<SelectOp, ParseError> {
        match self.next() {
            Some(Token::Word(w)) => match w.to_ascii_uppercase().as_str() {
                "QUERY" => Ok(SelectOp::Query),
                "DRILLDOWN" => Ok(SelectOp::Drilldown),
                "TOPK" => Ok(SelectOp::TopK(self.number("k")? as usize)),
                "ABOVE" => Ok(SelectOp::Above(self.number("threshold")?)),
                "HHH" => Ok(SelectOp::Hhh(self.number("threshold")?)),
                other => Err(ParseError::Unexpected {
                    expected: "QUERY, TOPK, ABOVE, HHH or DRILLDOWN".into(),
                    found: Some(Token::Word(other.to_owned())),
                }),
            },
            other => Err(ParseError::Unexpected {
                expected: "an operator".into(),
                found: other,
            }),
        }
    }

    fn time_selection(&mut self) -> Result<TimeSelection, ParseError> {
        if let Some(Token::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case("ALL") {
                self.next();
                return Ok(TimeSelection::All);
            }
        }
        let mut windows = vec![self.time_range()?];
        while self.peek() == Some(&Token::Comma) {
            // A comma here could also start the WHERE clause boundary; the
            // grammar only allows commas between ranges.
            self.next();
            windows.push(self.time_range()?);
        }
        Ok(TimeSelection::Windows(windows))
    }

    fn time_range(&mut self) -> Result<TimeWindow, ParseError> {
        self.expect_token(Token::LBracket, "'['")?;
        let start = self.number("range start, seconds")?;
        self.expect_token(Token::Comma, "','")?;
        let end = self.number("range end, seconds")?;
        self.expect_token(Token::RParen, "')'")?;
        if end <= start {
            return Err(ParseError::EmptyTimeRange);
        }
        // Timestamps are micros in a u64; a seconds literal past this bound
        // would overflow (and panic) in Timestamp::from_secs. Surface it as
        // a parse error instead — this path is reachable from user FlowQL.
        const MAX_SECS: u64 = u64::MAX / 1_000_000;
        for bound in [start, end] {
            if bound > MAX_SECS {
                return Err(ParseError::ValueOutOfRange {
                    feature: "time range bound, seconds".into(),
                    value: bound,
                });
            }
        }
        Ok(TimeWindow::new(
            Timestamp::from_secs(start),
            Timestamp::from_secs(end),
        ))
    }

    fn condition(&mut self) -> Result<Restriction, ParseError> {
        let field = match self.next() {
            Some(Token::Word(w)) => w.to_ascii_lowercase(),
            other => {
                return Err(ParseError::Unexpected {
                    expected: "a feature name or 'location'".into(),
                    found: other,
                })
            }
        };
        self.expect_token(Token::Equals, "'='")?;
        match field.as_str() {
            "location" => match self.next() {
                Some(Token::Str(s)) => Ok(Restriction::Location(s)),
                Some(Token::Word(w)) => Ok(Restriction::Location(w)),
                other => Err(ParseError::Unexpected {
                    expected: "a location name".into(),
                    found: other,
                }),
            },
            "src_ip" | "dst_ip" => {
                let feature = if field == "src_ip" {
                    Feature::SrcIp
                } else {
                    Feature::DstIp
                };
                match self.next() {
                    Some(Token::Address(a)) => {
                        let prefix: Prefix =
                            a.parse().map_err(|_| ParseError::BadPrefix(a.clone()))?;
                        Ok(Restriction::IpFeature { feature, prefix })
                    }
                    other => Err(ParseError::Unexpected {
                        expected: "an IP address or prefix".into(),
                        found: other,
                    }),
                }
            }
            "proto" | "src_port" | "dst_port" => {
                let feature = match field.as_str() {
                    "proto" => Feature::Proto,
                    "src_port" => Feature::SrcPort,
                    _ => Feature::DstPort,
                };
                let value = self.number(&field)?;
                let max = (1u64 << feature.width()) - 1;
                if value > max {
                    return Err(ParseError::ValueOutOfRange {
                        feature: field,
                        value,
                    });
                }
                Ok(Restriction::NumericFeature {
                    feature,
                    value: value as u32,
                })
            }
            other => Err(ParseError::Unexpected {
                expected: "location, src_ip, dst_ip, proto, src_port or dst_port".into(),
                found: Some(Token::Word(other.to_owned())),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_query() {
        let q = parse("SELECT QUERY FROM ALL").unwrap();
        assert_eq!(q.op, SelectOp::Query);
        assert_eq!(q.time, TimeSelection::All);
        assert!(q.restrictions.is_empty());
    }

    #[test]
    fn parses_full_query() {
        let q = parse(
            "SELECT TOPK 5 FROM [0, 60), [120, 180) \
             WHERE src_ip = 10.0.0.0/8 AND dst_port = 53 AND location = \"region-0\"",
        )
        .unwrap();
        assert_eq!(q.op, SelectOp::TopK(5));
        match &q.time {
            TimeSelection::Windows(ws) => {
                assert_eq!(ws.len(), 2);
                assert_eq!(ws[0].start, Timestamp::ZERO);
                assert_eq!(ws[1].end, Timestamp::from_secs(180));
            }
            TimeSelection::All => panic!("expected windows"),
        }
        assert_eq!(q.restrictions.len(), 3);
        assert_eq!(q.locations(), vec!["region-0"]);
        assert_eq!(
            q.where_key().unwrap().src_prefix().to_string(),
            "10.0.0.0/8"
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse("select hhh 100 from all where proto = 17").unwrap();
        assert_eq!(q.op, SelectOp::Hhh(100));
        assert_eq!(q.restrictions.len(), 1);
    }

    #[test]
    fn host_address_becomes_slash_32() {
        let q = parse("SELECT QUERY FROM ALL WHERE dst_ip = 1.2.3.4").unwrap();
        match &q.restrictions[0] {
            Restriction::IpFeature { prefix, .. } => assert_eq!(prefix.len(), 32),
            other => panic!("unexpected restriction {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_queries() {
        assert!(parse("").is_err());
        assert!(parse("SELECT NOPE FROM ALL").is_err());
        assert!(parse("SELECT QUERY").is_err());
        assert!(parse("SELECT QUERY FROM [5, 5)").is_err());
        assert!(parse("SELECT QUERY FROM [9, 2)").is_err());
        assert!(parse("SELECT QUERY FROM ALL WHERE proto = 999").is_err());
        assert!(parse("SELECT QUERY FROM ALL WHERE src_ip = 300.0.0.0/8").is_err());
        assert!(parse("SELECT QUERY FROM ALL WHERE nonsense = 1").is_err());
        assert!(parse("SELECT QUERY FROM ALL trailing").is_err());
    }

    #[test]
    fn error_messages_are_descriptive() {
        let err = parse("SELECT QUERY FROM").unwrap_err();
        assert!(err.to_string().contains("end of query"), "{err}");
        let err = parse("SELECT TOPK x FROM ALL").unwrap_err();
        assert!(err.to_string().contains("number"), "{err}");
    }

    #[test]
    fn port_bounds() {
        assert!(parse("SELECT QUERY FROM ALL WHERE dst_port = 65535").is_ok());
        assert!(parse("SELECT QUERY FROM ALL WHERE dst_port = 65536").is_err());
        assert!(parse("SELECT QUERY FROM ALL WHERE proto = 255").is_ok());
        assert!(parse("SELECT QUERY FROM ALL WHERE proto = 256").is_err());
    }
}
