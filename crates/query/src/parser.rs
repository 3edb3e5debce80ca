//! Parser for the TinyDB-style declarative query language.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query    := SELECT sel_list [FROM sensors] [WHERE cond (AND cond)*]
//!             EPOCH DURATION <int> [ms]
//! sel_list := sel_item (',' sel_item)*
//! sel_item := attr | aggop '(' attr ')'
//! cond     := attr cmp num | num cmp attr | num cmp attr cmp num
//!           | attr BETWEEN num AND num
//!           | REGION '(' num ',' num ',' num ',' num ')'
//! cmp      := '<' | '<=' | '>' | '>=' | '='
//! ```
//!
//! Sensor readings are integral (ADC counts), so a strict bound is translated
//! to an inclusive one: `light < 600` becomes `light <= 599`, matching the
//! paper's `280<light<600` examples.

use crate::agg::AggOp;
use crate::attr::Attribute;
use crate::query::{BuildQueryError, Query, QueryBuilder, QueryId};
use std::fmt;

/// Error produced when a query string cannot be parsed or validated.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseQueryError {
    /// Lexical or syntactic problem, with a human-readable description.
    Syntax(String),
    /// The query parsed but failed validation.
    Build(BuildQueryError),
}

impl fmt::Display for ParseQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseQueryError::Syntax(msg) => write!(f, "syntax error: {msg}"),
            ParseQueryError::Build(e) => write!(f, "invalid query: {e}"),
        }
    }
}

impl std::error::Error for ParseQueryError {}

impl From<BuildQueryError> for ParseQueryError {
    fn from(e: BuildQueryError) -> Self {
        ParseQueryError::Build(e)
    }
}

/// Parses a query string into a validated [`Query`].
///
/// # Examples
///
/// ```
/// use ttmqo_query::{parse_query, QueryId, Attribute};
///
/// let q = parse_query(QueryId(1), "SELECT light WHERE 280 < light < 600 EPOCH DURATION 2048")?;
/// assert!(q.is_acquisition());
/// let r = q.predicates().range(Attribute::Light).unwrap();
/// assert_eq!((r.min(), r.max()), (281.0, 599.0));
/// # Ok::<(), ttmqo_query::ParseQueryError>(())
/// ```
///
/// # Errors
///
/// Returns [`ParseQueryError`] on malformed syntax or an invalid query (see
/// [`BuildQueryError`]).
pub fn parse_query(id: QueryId, text: &str) -> Result<Query, ParseQueryError> {
    Parser::new(text)?.parse(id)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    Comma,
    LParen,
    RParen,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "`{s}`"),
            Token::Number(n) => write!(f, "`{n}`"),
            Token::Comma => f.write_str("`,`"),
            Token::LParen => f.write_str("`(`"),
            Token::RParen => f.write_str("`)`"),
            Token::Lt => f.write_str("`<`"),
            Token::Le => f.write_str("`<=`"),
            Token::Gt => f.write_str("`>`"),
            Token::Ge => f.write_str("`>=`"),
            Token::Eq => f.write_str("`=`"),
        }
    }
}

fn tokenize(text: &str) -> Result<Vec<Token>, ParseQueryError> {
    let mut tokens = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(text[start..i].to_ascii_lowercase()));
            }
            c if c.is_ascii_digit() || c == '-' || c == '.' => {
                let start = i;
                i += 1;
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let s = &text[start..i];
                let n: f64 = s
                    .parse()
                    .map_err(|_| ParseQueryError::Syntax(format!("bad number `{s}`")))?;
                tokens.push(Token::Number(n));
            }
            _ => {
                // Every arm above consumes ASCII only, so `i` is on a
                // character boundary; `c` is just the lead byte.
                let other = text[i..].chars().next().expect("i < len");
                return Err(ParseQueryError::Syntax(format!(
                    "unexpected character `{other}`"
                )));
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(text: &str) -> Result<Self, ParseQueryError> {
        Ok(Parser {
            tokens: tokenize(text)?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseQueryError> {
        match self.next() {
            Some(Token::Ident(s)) if s == kw => Ok(()),
            Some(t) => Err(ParseQueryError::Syntax(format!(
                "expected `{kw}`, found {t}"
            ))),
            None => Err(ParseQueryError::Syntax(format!(
                "expected `{kw}`, found end of input"
            ))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    fn parse(mut self, id: QueryId) -> Result<Query, ParseQueryError> {
        self.expect_keyword("select")?;
        let mut builder = Query::builder(id);
        builder = self.parse_select_list(builder)?;

        if self.peek_keyword("from") {
            self.next();
            self.expect_keyword("sensors")?;
        }

        if self.peek_keyword("where") {
            self.next();
            builder = self.parse_condition(builder)?;
            while self.peek_keyword("and") {
                self.next();
                builder = self.parse_condition(builder)?;
            }
        }

        self.expect_keyword("epoch")?;
        self.expect_keyword("duration")?;
        let ms = match self.next() {
            Some(Token::Number(n)) if n > 0.0 && n.fract() == 0.0 => n as u64,
            Some(t) => {
                return Err(ParseQueryError::Syntax(format!(
                    "expected integer epoch duration, found {t}"
                )))
            }
            None => {
                return Err(ParseQueryError::Syntax(
                    "expected epoch duration, found end of input".into(),
                ))
            }
        };
        if self.peek_keyword("ms") {
            self.next();
        }
        if let Some(t) = self.peek() {
            return Err(ParseQueryError::Syntax(format!("trailing input at {t}")));
        }
        builder = builder.epoch_ms(ms);
        Ok(builder.build()?)
    }

    fn parse_select_list(&mut self, mut b: QueryBuilder) -> Result<QueryBuilder, ParseQueryError> {
        loop {
            b = self.parse_select_item(b)?;
            if matches!(self.peek(), Some(Token::Comma)) {
                self.next();
            } else {
                return Ok(b);
            }
        }
    }

    fn parse_select_item(&mut self, b: QueryBuilder) -> Result<QueryBuilder, ParseQueryError> {
        let name = match self.next() {
            Some(Token::Ident(s)) => s,
            Some(t) => {
                return Err(ParseQueryError::Syntax(format!(
                    "expected selection item, found {t}"
                )))
            }
            None => {
                return Err(ParseQueryError::Syntax(
                    "expected selection item, found end of input".into(),
                ))
            }
        };
        if matches!(self.peek(), Some(Token::LParen)) {
            // aggregate: op(attr)
            self.next();
            let op: AggOp = name
                .parse()
                .map_err(|e| ParseQueryError::Syntax(format!("{e}")))?;
            let attr = self.parse_attr()?;
            match self.next() {
                Some(Token::RParen) => Ok(b.select_agg(op, attr)),
                _ => Err(ParseQueryError::Syntax(
                    "expected `)` after aggregate".into(),
                )),
            }
        } else {
            let attr: Attribute = name
                .parse()
                .map_err(|e| ParseQueryError::Syntax(format!("{e}")))?;
            Ok(b.select_attr(attr))
        }
    }

    fn parse_attr(&mut self) -> Result<Attribute, ParseQueryError> {
        match self.next() {
            Some(Token::Ident(s)) => s
                .parse()
                .map_err(|e| ParseQueryError::Syntax(format!("{e}"))),
            Some(t) => Err(ParseQueryError::Syntax(format!(
                "expected attribute, found {t}"
            ))),
            None => Err(ParseQueryError::Syntax(
                "expected attribute, found end of input".into(),
            )),
        }
    }

    fn parse_number(&mut self) -> Result<f64, ParseQueryError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            Some(t) => Err(ParseQueryError::Syntax(format!(
                "expected number, found {t}"
            ))),
            None => Err(ParseQueryError::Syntax(
                "expected number, found end of input".into(),
            )),
        }
    }

    /// Parses one condition, producing `[min, max]` bounds on one attribute.
    fn parse_condition(&mut self, b: QueryBuilder) -> Result<QueryBuilder, ParseQueryError> {
        match self.peek().cloned() {
            Some(Token::Number(_)) => {
                // num cmp attr [cmp num]   (e.g. `280 < light < 600`)
                let lo_num = self.parse_number()?;
                let op1 = self.parse_cmp()?;
                let attr = self.parse_attr()?;
                let (mut min, mut max) = full_bounds(attr);
                apply_bound_from_left(&mut min, &mut max, lo_num, op1, attr)?;
                if matches!(
                    self.peek(),
                    Some(Token::Lt | Token::Le | Token::Gt | Token::Ge)
                ) {
                    let op2 = self.parse_cmp()?;
                    let hi_num = self.parse_number()?;
                    apply_bound_from_right(&mut min, &mut max, hi_num, op2, attr)?;
                }
                Ok(b.filter(attr, min, max))
            }
            Some(Token::Ident(name)) if name == "region" => {
                self.next();
                match self.next() {
                    Some(Token::LParen) => {}
                    _ => return Err(ParseQueryError::Syntax("expected `(` after region".into())),
                }
                let mut coords = [0.0f64; 4];
                for (i, c) in coords.iter_mut().enumerate() {
                    if i > 0 {
                        match self.next() {
                            Some(Token::Comma) => {}
                            _ => {
                                return Err(ParseQueryError::Syntax(
                                    "expected `,` between region coordinates".into(),
                                ))
                            }
                        }
                    }
                    *c = self.parse_number()?;
                }
                match self.next() {
                    Some(Token::RParen) => {}
                    _ => {
                        return Err(ParseQueryError::Syntax(
                            "expected `)` after region coordinates".into(),
                        ))
                    }
                }
                Ok(b.in_region(coords[0], coords[1], coords[2], coords[3]))
            }
            Some(Token::Ident(_)) => {
                let attr = self.parse_attr()?;
                if self.peek_keyword("between") {
                    self.next();
                    let lo = self.parse_number()?;
                    self.expect_keyword("and")?;
                    let hi = self.parse_number()?;
                    return Ok(b.filter(attr, lo, hi));
                }
                let op = self.parse_cmp()?;
                let num = self.parse_number()?;
                let (mut min, mut max) = full_bounds(attr);
                apply_bound_from_right(&mut min, &mut max, num, op, attr)?;
                Ok(b.filter(attr, min, max))
            }
            Some(t) => Err(ParseQueryError::Syntax(format!(
                "expected condition, found {t}"
            ))),
            None => Err(ParseQueryError::Syntax(
                "expected condition, found end of input".into(),
            )),
        }
    }

    fn parse_cmp(&mut self) -> Result<Token, ParseQueryError> {
        match self.next() {
            Some(t @ (Token::Lt | Token::Le | Token::Gt | Token::Ge | Token::Eq)) => Ok(t),
            Some(t) => Err(ParseQueryError::Syntax(format!(
                "expected comparison, found {t}"
            ))),
            None => Err(ParseQueryError::Syntax(
                "expected comparison, found end of input".into(),
            )),
        }
    }
}

fn full_bounds(attr: Attribute) -> (f64, f64) {
    attr.domain()
}

/// Readings are integral, so strict bounds tighten by one unit.
const STRICT_STEP: f64 = 1.0;

/// Applies `num OP attr` (number on the left).
fn apply_bound_from_left(
    min: &mut f64,
    max: &mut f64,
    num: f64,
    op: Token,
    attr: Attribute,
) -> Result<(), ParseQueryError> {
    match op {
        Token::Lt => *min = min.max(num + STRICT_STEP), // num < attr
        Token::Le => *min = min.max(num),               // num <= attr
        Token::Gt => *max = max.min(num - STRICT_STEP), // num > attr
        Token::Ge => *max = max.min(num),               // num >= attr
        Token::Eq => {
            *min = min.max(num);
            *max = max.min(num);
        }
        t => {
            return Err(ParseQueryError::Syntax(format!(
                "operator {t} not valid in a range condition on `{attr}`"
            )))
        }
    }
    Ok(())
}

/// Applies `attr OP num` (number on the right).
fn apply_bound_from_right(
    min: &mut f64,
    max: &mut f64,
    num: f64,
    op: Token,
    attr: Attribute,
) -> Result<(), ParseQueryError> {
    match op {
        Token::Lt => *max = max.min(num - STRICT_STEP),
        Token::Le => *max = max.min(num),
        Token::Gt => *min = min.max(num + STRICT_STEP),
        Token::Ge => *min = min.max(num),
        Token::Eq => {
            *min = min.max(num);
            *max = max.min(num);
        }
        t => {
            return Err(ParseQueryError::Syntax(format!(
                "operator {t} not valid in a range condition on `{attr}`"
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Selection;

    fn parse(text: &str) -> Query {
        parse_query(QueryId(1), text).unwrap()
    }

    #[test]
    fn paper_example_q1() {
        let q = parse("select light where 280<light<600 epoch duration 2048");
        let r = q.predicates().range(Attribute::Light).unwrap();
        assert_eq!((r.min(), r.max()), (281.0, 599.0));
        assert_eq!(q.epoch().as_ms(), 2048);
        assert!(q.is_acquisition());
    }

    #[test]
    fn select_multiple_attributes() {
        let q = parse("SELECT nodeid, light, temp FROM sensors EPOCH DURATION 4096");
        assert_eq!(
            q.selection(),
            &Selection::attributes([Attribute::NodeId, Attribute::Light, Attribute::Temp])
        );
        assert!(q.predicates().is_empty());
    }

    #[test]
    fn aggregate_query() {
        let q = parse("SELECT MAX(light) WHERE temp >= 100 EPOCH DURATION 8192");
        assert_eq!(
            q.selection(),
            &Selection::aggregates([(AggOp::Max, Attribute::Light)])
        );
        let r = q.predicates().range(Attribute::Temp).unwrap();
        assert_eq!(r.min(), 100.0);
    }

    #[test]
    fn multiple_aggregates() {
        let q = parse("select min(temp), max(temp) epoch duration 2048");
        assert_eq!(
            q.selection(),
            &Selection::aggregates([(AggOp::Min, Attribute::Temp), (AggOp::Max, Attribute::Temp)])
        );
    }

    #[test]
    fn between_condition() {
        let q = parse("select light where light between 100 and 300 epoch duration 2048");
        let r = q.predicates().range(Attribute::Light).unwrap();
        assert_eq!((r.min(), r.max()), (100.0, 300.0));
    }

    #[test]
    fn and_of_conditions() {
        let q = parse(
            "select light where light > 100 and light < 300 and temp <= 50 epoch duration 2048",
        );
        let l = q.predicates().range(Attribute::Light).unwrap();
        assert_eq!((l.min(), l.max()), (101.0, 299.0));
        let t = q.predicates().range(Attribute::Temp).unwrap();
        assert_eq!(t.max(), 50.0);
    }

    #[test]
    fn equality_condition() {
        let q = parse("select light where nodeid = 5 epoch duration 2048");
        let r = q.predicates().range(Attribute::NodeId).unwrap();
        assert_eq!((r.min(), r.max()), (5.0, 5.0));
    }

    #[test]
    fn ms_suffix_accepted() {
        let q = parse("select light epoch duration 2048 ms");
        assert_eq!(q.epoch().as_ms(), 2048);
    }

    #[test]
    fn syntax_errors() {
        for bad in [
            "light epoch duration 2048",                         // missing SELECT
            "select epoch duration 2048",                        // epoch parsed as attr
            "select light epoch duration",                       // missing number
            "select light epoch duration 2048 extra",            // trailing
            "select light where light !! 3 epoch duration 2048", // bad char
            "select max(light epoch duration 2048",              // missing paren
            "select pressure epoch duration 2048",               // unknown attr
            "select median(light) epoch duration 2048",          // unknown agg
        ] {
            assert!(
                parse_query(QueryId(1), bad).is_err(),
                "expected error for: {bad}"
            );
        }
    }

    #[test]
    fn a_non_ascii_character_is_named_whole() {
        // Not `Ã`, the lead byte of `é` read as Latin-1.
        for (text, c) in [
            ("select light where é epoch duration 2048", 'é'),
            ("select light\0", '\0'),
            ("select 光", '光'),
        ] {
            let err = parse_query(QueryId(1), text).unwrap_err();
            assert_eq!(
                err,
                ParseQueryError::Syntax(format!("unexpected character `{c}`"))
            );
        }
    }

    #[test]
    fn build_errors_propagate() {
        let err = parse_query(QueryId(1), "select light epoch duration 1000").unwrap_err();
        assert!(matches!(err, ParseQueryError::Build(_)));
        let err = parse_query(
            QueryId(1),
            "select light where light > 900 and light < 100 epoch duration 2048",
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ParseQueryError::Build(BuildQueryError::UnsatisfiablePredicates)
        ));
    }

    #[test]
    fn negative_numbers_in_conditions() {
        let q = parse("select temp where temp >= -100 epoch duration 2048");
        let r = q.predicates().range(Attribute::Temp).unwrap();
        assert_eq!(r.min(), -100.0);
    }
}

#[cfg(test)]
mod region_tests {
    use super::*;

    #[test]
    fn region_clause_parses() {
        let q = parse_query(
            QueryId(1),
            "select light where region(0, 0, 60, 40) epoch duration 2048",
        )
        .unwrap();
        let r = q.region().expect("region set");
        assert_eq!(
            (r.x_min(), r.y_min(), r.x_max(), r.y_max()),
            (0.0, 0.0, 60.0, 40.0)
        );
    }

    #[test]
    fn region_combines_with_value_predicates() {
        let q = parse_query(
            QueryId(1),
            "select max(light) where light >= 200 and region(20, 20, 100, 100) epoch duration 4096",
        )
        .unwrap();
        assert!(q.region().is_some());
        assert!(q.predicates().range(crate::Attribute::Light).is_some());
    }

    #[test]
    fn malformed_region_clauses_error() {
        for bad in [
            "select light where region(0, 0, 60) epoch duration 2048",
            "select light where region(0 0 60 40) epoch duration 2048",
            "select light where region 0, 0, 60, 40 epoch duration 2048",
            "select light where region(60, 0, 0, 40) epoch duration 2048", // inverted
        ] {
            assert!(parse_query(QueryId(1), bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn region_display_roundtrips() {
        let q = parse_query(
            QueryId(1),
            "select light where region(0, 0, 60, 40) epoch duration 2048",
        )
        .unwrap();
        let q2 = parse_query(QueryId(1), &q.to_string()).unwrap();
        assert_eq!(q.region(), q2.region());
    }
}
