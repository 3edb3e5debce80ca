//! TinyDB-style declarative query model for the TTMQO reproduction.
//!
//! This crate defines the query language shared by every other crate in the
//! workspace: sensor [attributes](Attribute), [aggregation
//! operators](AggOp) with decomposable [partial state](PartialAgg), conjunctive
//! [range predicates](PredicateSet), validated [epoch
//! durations](EpochDuration), the [`Query`] type itself with its
//! [builder](QueryBuilder) and [text parser](parse_query), result-side types
//! ([`Row`], [`RowSet`], [`EpochAnswer`]), and the [rewrite
//! algebra](integrate) the base-station optimizer builds on.
//!
//! # Quick example
//!
//! ```
//! use ttmqo_query::{parse_query, integrate, covers_query, QueryId};
//!
//! let q1 = parse_query(QueryId(1), "select light where 280<light<600 epoch duration 2048")?;
//! let q2 = parse_query(QueryId(2), "select light where 100<light<300 epoch duration 4096")?;
//!
//! // A semantically correct merged query always exists for acquisition pairs…
//! let merged = integrate(QueryId(100), &q1, &q2).unwrap();
//! assert!(covers_query(&merged, &q1) && covers_query(&merged, &q2));
//! // …whether it is *beneficial* is the cost model's call (see `ttmqo-core`).
//! # Ok::<(), ttmqo_query::ParseQueryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod agg;
mod attr;
mod epoch;
mod merge;
mod parser;
mod predicate;
mod query;
mod region;
mod result;

pub use agg::{AggOp, MergePartialError, ParseAggOpError, PartialAgg};
pub use attr::{AttrSet, AttrSetIter, Attribute, ParseAttributeError};
pub use epoch::{gcd_u64, EpochDuration, InvalidEpochError, BASE_EPOCH_MS};
pub use merge::{can_integrate, covers_query, integrate, needed_attributes};
pub use parser::{parse_query, ParseQueryError};
pub use predicate::{InvalidPredicateError, Predicate, PredicateSet};
pub use query::{BuildQueryError, Query, QueryBuilder, QueryId, Selection};
pub use region::{InvalidRegionError, Region};
pub use result::{
    aggregate_rows, AggValue, EpochAnswer, Readings, Row, RowRef, RowSet, RowSetIter,
};
