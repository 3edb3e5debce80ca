//! The query type: a TinyDB-style continuous query.
//!
//! Queries follow the semantics of TinyDB's acquisitional SQL (§2 of the
//! paper): a `SELECT`-`FROM`-`WHERE` clause supporting selection, projection
//! and aggregation, plus an `EPOCH DURATION` clause giving the sampling
//! period. A single query is either a *data acquisition* query (projecting raw
//! attributes) or an *aggregation* query (computing aggregates) — never both.

use crate::agg::AggOp;
use crate::attr::{AttrSet, Attribute};
use crate::epoch::EpochDuration;
use crate::predicate::{Predicate, PredicateSet};
use crate::region::Region;
use std::fmt;

/// Unique identifier of a user query.
///
/// ```
/// use ttmqo_query::QueryId;
/// let q = QueryId(7);
/// assert_eq!(q.to_string(), "q7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// What a query asks the network for: raw attributes or aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Data acquisition: project these raw attributes from every qualifying
    /// node each epoch. Sorted and deduplicated.
    Attributes(Vec<Attribute>),
    /// Aggregation: compute these `(op, attribute)` aggregates over all
    /// qualifying nodes each epoch. Sorted and deduplicated.
    Aggregates(Vec<(AggOp, Attribute)>),
}

impl Selection {
    /// Acquisition selection over the given attributes (sorted, deduped).
    pub fn attributes<I: IntoIterator<Item = Attribute>>(attrs: I) -> Self {
        let mut v: Vec<Attribute> = attrs.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Selection::Attributes(v)
    }

    /// Aggregation selection over the given `(op, attr)` pairs (sorted, deduped).
    pub fn aggregates<I: IntoIterator<Item = (AggOp, Attribute)>>(aggs: I) -> Self {
        let mut v: Vec<(AggOp, Attribute)> = aggs.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Selection::Aggregates(v)
    }

    /// Whether this is an acquisition selection.
    pub fn is_acquisition(&self) -> bool {
        matches!(self, Selection::Attributes(_))
    }

    /// Whether this is an aggregation selection.
    pub fn is_aggregation(&self) -> bool {
        matches!(self, Selection::Aggregates(_))
    }

    /// Every attribute the selection needs sampled (for aggregates, the
    /// aggregated attributes).
    pub fn sampled_attributes(&self) -> AttrSet {
        match self {
            Selection::Attributes(attrs) => attrs.iter().collect(),
            Selection::Aggregates(aggs) => aggs.iter().map(|&(_, a)| a).collect(),
        }
    }

    /// Payload bytes a single result tuple of this selection occupies.
    pub fn wire_size(&self) -> usize {
        match self {
            Selection::Attributes(attrs) => attrs.iter().map(|a| a.wire_size()).sum(),
            Selection::Aggregates(aggs) => aggs.iter().map(|&(op, _)| op.wire_size()).sum(),
        }
    }

    /// Whether the selection requests nothing.
    pub fn is_empty(&self) -> bool {
        match self {
            Selection::Attributes(v) => v.is_empty(),
            Selection::Aggregates(v) => v.is_empty(),
        }
    }
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Selection::Attributes(attrs) => {
                let names: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
                f.write_str(&names.join(", "))
            }
            Selection::Aggregates(aggs) => {
                let names: Vec<String> = aggs.iter().map(|(op, a)| format!("{op}({a})")).collect();
                f.write_str(&names.join(", "))
            }
        }
    }
}

/// A validated user query.
///
/// Construct with [`Query::builder`] or parse from text with
/// [`parse_query`](crate::parse_query).
///
/// # Examples
///
/// ```
/// use ttmqo_query::{Attribute, Query, QueryId};
///
/// let q = Query::builder(QueryId(1))
///     .select_attr(Attribute::Light)
///     .filter(Attribute::Light, 280.0, 600.0)
///     .epoch_ms(2048)
///     .build()?;
/// assert!(q.is_acquisition());
/// assert_eq!(q.epoch().as_ms(), 2048);
/// # Ok::<(), ttmqo_query::BuildQueryError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    id: QueryId,
    selection: Selection,
    predicates: PredicateSet,
    epoch: EpochDuration,
    region: Option<Region>,
}

impl Query {
    /// Starts building a query with the given id.
    pub fn builder(id: QueryId) -> QueryBuilder {
        QueryBuilder {
            id,
            attrs: Vec::new(),
            aggs: Vec::new(),
            predicates: PredicateSet::new(),
            epoch: None,
            region: None,
            error: None,
        }
    }

    /// Constructs a query from parts, validating the combination.
    ///
    /// # Errors
    ///
    /// Returns [`BuildQueryError`] if the selection is empty, mixes
    /// acquisition and aggregation, or the predicates are unsatisfiable.
    pub fn from_parts(
        id: QueryId,
        selection: Selection,
        predicates: PredicateSet,
        epoch: EpochDuration,
    ) -> Result<Self, BuildQueryError> {
        if selection.is_empty() {
            return Err(BuildQueryError::EmptySelection);
        }
        if predicates.is_unsatisfiable() {
            return Err(BuildQueryError::UnsatisfiablePredicates);
        }
        Ok(Query {
            id,
            selection,
            predicates: predicates.normalize(),
            epoch,
            region: None,
        })
    }

    /// Returns a copy restricted to the given deployment region (§3.2.2's
    /// region-based queries): only nodes physically inside the rectangle can
    /// contribute.
    pub fn with_region(&self, region: Region) -> Query {
        Query {
            region: Some(region),
            ..self.clone()
        }
    }

    /// The spatial restriction, if any (`None` = the whole deployment).
    pub fn region(&self) -> Option<&Region> {
        self.region.as_ref()
    }

    /// The query's unique identifier.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Returns a copy of this query carrying a different id.
    pub fn with_id(&self, id: QueryId) -> Query {
        Query { id, ..self.clone() }
    }

    /// The selection clause.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// The `WHERE` clause as a normalized predicate set.
    pub fn predicates(&self) -> &PredicateSet {
        &self.predicates
    }

    /// The epoch duration.
    pub fn epoch(&self) -> EpochDuration {
        self.epoch
    }

    /// Whether this is a data acquisition query.
    pub fn is_acquisition(&self) -> bool {
        self.selection.is_acquisition()
    }

    /// Whether this is an aggregation query.
    pub fn is_aggregation(&self) -> bool {
        self.selection.is_aggregation()
    }

    /// Attributes that must be sampled to evaluate this query (selection
    /// attributes plus predicate attributes).
    pub fn sampled_attributes(&self) -> AttrSet {
        let mut set = self.selection.sampled_attributes();
        set.extend(self.predicates.attrs());
        set
    }

    /// Payload bytes of one result tuple for this query (Eq. 3's `len(q)`).
    pub fn result_len(&self) -> usize {
        self.selection.wire_size()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select {}", self.selection)?;
        match (&self.region, self.predicates.is_empty()) {
            (None, true) => {}
            (None, false) => write!(f, " where {}", self.predicates)?,
            (Some(region), true) => write!(f, " where {region}")?,
            (Some(region), false) => write!(f, " where {} and {region}", self.predicates)?,
        }
        write!(f, " epoch duration {}", self.epoch)
    }
}

/// Error building an invalid query.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildQueryError {
    /// No attribute or aggregate was selected.
    EmptySelection,
    /// Both raw attributes and aggregates were selected.
    MixedSelection,
    /// A predicate range is invalid.
    InvalidPredicate(String),
    /// The conjunction of predicates can never be satisfied.
    UnsatisfiablePredicates,
    /// No epoch duration was given, or it was invalid.
    InvalidEpoch(String),
}

impl fmt::Display for BuildQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildQueryError::EmptySelection => f.write_str("query selects nothing"),
            BuildQueryError::MixedSelection => {
                f.write_str("query mixes raw attributes and aggregates")
            }
            BuildQueryError::InvalidPredicate(msg) => write!(f, "invalid predicate: {msg}"),
            BuildQueryError::UnsatisfiablePredicates => {
                f.write_str("predicates can never be satisfied")
            }
            BuildQueryError::InvalidEpoch(msg) => write!(f, "invalid epoch: {msg}"),
        }
    }
}

impl std::error::Error for BuildQueryError {}

/// Incremental builder for [`Query`]; see [`Query::builder`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    id: QueryId,
    attrs: Vec<Attribute>,
    aggs: Vec<(AggOp, Attribute)>,
    predicates: PredicateSet,
    epoch: Option<EpochDuration>,
    region: Option<Region>,
    error: Option<BuildQueryError>,
}

impl QueryBuilder {
    /// Adds a raw attribute to the selection (acquisition query).
    pub fn select_attr(mut self, attr: Attribute) -> Self {
        self.attrs.push(attr);
        self
    }

    /// Adds an aggregate to the selection (aggregation query).
    pub fn select_agg(mut self, op: AggOp, attr: Attribute) -> Self {
        self.aggs.push((op, attr));
        self
    }

    /// Conjoins a range predicate `min <= attr <= max`.
    pub fn filter(mut self, attr: Attribute, min: f64, max: f64) -> Self {
        match Predicate::new(attr, min, max) {
            Ok(p) => self.predicates.and(p),
            Err(e) => {
                self.error
                    .get_or_insert(BuildQueryError::InvalidPredicate(e.to_string()));
            }
        }
        self
    }

    /// Sets the epoch duration in milliseconds.
    pub fn epoch_ms(mut self, ms: u64) -> Self {
        match EpochDuration::from_ms(ms) {
            Ok(e) => self.epoch = Some(e),
            Err(e) => {
                self.error
                    .get_or_insert(BuildQueryError::InvalidEpoch(e.to_string()));
            }
        }
        self
    }

    /// Sets the epoch duration directly.
    pub fn epoch(mut self, e: EpochDuration) -> Self {
        self.epoch = Some(e);
        self
    }

    /// Restricts the query to a deployment rectangle.
    pub fn in_region(mut self, x_min: f64, y_min: f64, x_max: f64, y_max: f64) -> Self {
        match Region::new(x_min, y_min, x_max, y_max) {
            Ok(r) => self.region = Some(r),
            Err(e) => {
                self.error
                    .get_or_insert(BuildQueryError::InvalidPredicate(e.to_string()));
            }
        }
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns the first [`BuildQueryError`] encountered while building, or a
    /// validation error from [`Query::from_parts`].
    pub fn build(self) -> Result<Query, BuildQueryError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if !self.attrs.is_empty() && !self.aggs.is_empty() {
            return Err(BuildQueryError::MixedSelection);
        }
        let selection = if self.aggs.is_empty() {
            Selection::attributes(self.attrs)
        } else {
            Selection::aggregates(self.aggs)
        };
        let epoch = self
            .epoch
            .ok_or_else(|| BuildQueryError::InvalidEpoch("missing epoch duration".into()))?;
        let q = Query::from_parts(self.id, selection, self.predicates, epoch)?;
        Ok(match self.region {
            Some(r) => q.with_region(r),
            None => q,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_builds_acquisition_query() {
        let q = Query::builder(QueryId(1))
            .select_attr(Attribute::Light)
            .select_attr(Attribute::Temp)
            .select_attr(Attribute::Light) // duplicate ignored
            .filter(Attribute::Light, 100.0, 300.0)
            .epoch_ms(4096)
            .build()
            .unwrap();
        assert!(q.is_acquisition());
        assert_eq!(
            q.selection(),
            &Selection::attributes([Attribute::Light, Attribute::Temp])
        );
        assert_eq!(q.result_len(), 4);
        assert_eq!(
            q.sampled_attributes().iter().collect::<Vec<_>>(),
            [Attribute::Light, Attribute::Temp]
        );
    }

    #[test]
    fn builder_builds_aggregation_query() {
        let q = Query::builder(QueryId(2))
            .select_agg(AggOp::Max, Attribute::Light)
            .epoch_ms(2048)
            .build()
            .unwrap();
        assert!(q.is_aggregation());
        assert_eq!(q.result_len(), 2);
    }

    #[test]
    fn mixed_selection_is_rejected() {
        let err = Query::builder(QueryId(3))
            .select_attr(Attribute::Light)
            .select_agg(AggOp::Max, Attribute::Light)
            .epoch_ms(2048)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildQueryError::MixedSelection);
    }

    #[test]
    fn empty_selection_is_rejected() {
        let err = Query::builder(QueryId(4))
            .epoch_ms(2048)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildQueryError::EmptySelection);
    }

    #[test]
    fn missing_epoch_is_rejected() {
        let err = Query::builder(QueryId(5))
            .select_attr(Attribute::Light)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildQueryError::InvalidEpoch(_)));
    }

    #[test]
    fn invalid_epoch_is_reported() {
        let err = Query::builder(QueryId(6))
            .select_attr(Attribute::Light)
            .epoch_ms(1000)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildQueryError::InvalidEpoch(_)));
    }

    #[test]
    fn unsatisfiable_predicates_rejected() {
        let err = Query::builder(QueryId(7))
            .select_attr(Attribute::Light)
            .filter(Attribute::Light, 0.0, 100.0)
            .filter(Attribute::Light, 200.0, 300.0)
            .epoch_ms(2048)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildQueryError::UnsatisfiablePredicates);
    }

    #[test]
    fn invalid_predicate_reported_before_build() {
        let err = Query::builder(QueryId(8))
            .select_attr(Attribute::Light)
            .filter(Attribute::Light, 500.0, 100.0)
            .epoch_ms(2048)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildQueryError::InvalidPredicate(_)));
    }

    #[test]
    fn sampled_attributes_include_predicate_attrs() {
        let q = Query::builder(QueryId(9))
            .select_agg(AggOp::Max, Attribute::Light)
            .filter(Attribute::Temp, 0.0, 100.0)
            .epoch_ms(2048)
            .build()
            .unwrap();
        assert_eq!(
            q.sampled_attributes().iter().collect::<Vec<_>>(),
            [Attribute::Light, Attribute::Temp]
        );
    }

    #[test]
    fn display_matches_paper_style() {
        let q = Query::builder(QueryId(1))
            .select_attr(Attribute::Light)
            .filter(Attribute::Light, 280.0, 600.0)
            .epoch_ms(2048)
            .build()
            .unwrap();
        assert_eq!(
            q.to_string(),
            "select light where 280 <= light <= 600 epoch duration 2048 ms"
        );
    }

    #[test]
    fn with_id_changes_only_id() {
        let q = Query::builder(QueryId(1))
            .select_attr(Attribute::Light)
            .epoch_ms(2048)
            .build()
            .unwrap();
        let q2 = q.with_id(QueryId(42));
        assert_eq!(q2.id(), QueryId(42));
        assert_eq!(q2.selection(), q.selection());
        assert_eq!(q2.epoch(), q.epoch());
    }
}
