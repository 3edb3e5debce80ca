//! Result mapping: recovering each user query's exact answer from its
//! synthetic query's result stream ("mapping and calculation", §3.1).
//!
//! A synthetic query's answer is a superset of each member's needs, so the
//! mapper re-filters rows with the member's original predicates, projects the
//! member's attributes, computes the member's aggregates from raw rows when
//! an aggregation query was folded into an acquisition stream, and aligns
//! epochs (a member with a 4096 ms epoch only receives answers for epochs at
//! multiples of 4096 ms even when the synthetic query fires every 2048 ms).

use ttmqo_query::{aggregate_rows, Attribute, EpochAnswer, Query, RowRef, Selection};

/// Maps one synthetic-query epoch answer onto one member user query.
///
/// Returns `None` when this epoch is not an epoch of the user query (epoch
/// alignment), or when the synthetic stream cannot answer the user query at
/// all (which indicates an optimizer bug — the synthetic must cover its
/// members).
///
/// # Examples
///
/// ```
/// use ttmqo_core::map_epoch_answer;
/// use ttmqo_query::{parse_query, EpochAnswer, QueryId, Readings, Row, RowSet, Attribute};
///
/// let synthetic = parse_query(QueryId(100), "select light, temp epoch duration 2048")?;
/// let user = parse_query(QueryId(1), "select light where light >= 500 epoch duration 4096")?;
///
/// let mut readings = Readings::new();
/// readings.set(Attribute::Light, 700.0);
/// readings.set(Attribute::Temp, 20.0);
/// let rows = EpochAnswer::Rows(RowSet::new(4096, [Row { node: 3, time_ms: 4096, readings }]));
///
/// // At t=4096 (a user epoch) the qualifying row is re-filtered & projected.
/// match map_epoch_answer(&user, &synthetic, 4096, &rows).unwrap() {
///     EpochAnswer::Rows(rs) => {
///         let row = rs.iter().next().unwrap();
///         assert_eq!(rs.len(), 1);
///         assert_eq!(row.readings.get(Attribute::Temp), None, "projected away");
///     }
///     _ => unreachable!(),
/// }
/// // At t=2048 the user query is not due.
/// assert!(map_epoch_answer(&user, &synthetic, 2048, &rows).is_none());
/// # Ok::<(), ttmqo_query::ParseQueryError>(())
/// ```
pub fn map_epoch_answer(
    user: &Query,
    synthetic: &Query,
    epoch_ms: u64,
    answer: &EpochAnswer,
) -> Option<EpochAnswer> {
    map_epoch_answer_at(user, synthetic, epoch_ms, answer, &|_| None)
}

/// [`map_epoch_answer`] with a node-position resolver for region-based
/// queries: rows from outside the user's region clause are filtered out (the
/// base station knows every node's deployment position).
///
/// `position_of` maps a raw node id to its `(x, y)` position; returning
/// `None` for an unknown node keeps the row only if the user query has no
/// region clause.
pub fn map_epoch_answer_at(
    user: &Query,
    synthetic: &Query,
    epoch_ms: u64,
    answer: &EpochAnswer,
    position_of: &dyn Fn(u16) -> Option<(f64, f64)>,
) -> Option<EpochAnswer> {
    if !user.epoch().fires_at(epoch_ms) {
        return None;
    }
    match (answer, user.selection()) {
        (EpochAnswer::Rows(rows), Selection::Attributes(attrs)) => {
            let attrs = attrs.iter().collect();
            let kept = rows.select(epoch_ms, attrs, |r| keeps(user, position_of, r));
            Some(EpochAnswer::Rows(kept))
        }
        (EpochAnswer::Rows(rows), Selection::Aggregates(aggs)) => {
            let kept = rows.refs().filter(|&r| keeps(user, position_of, r));
            Some(EpochAnswer::Aggregates(aggregate_rows(kept, aggs)))
        }
        (EpochAnswer::Aggregates(values), Selection::Aggregates(aggs)) => {
            // Correct only because aggregation merges require equivalent
            // predicates (§3.1.2).
            debug_assert!(synthetic.predicates().equivalent(user.predicates()));
            let subset: Vec<_> = values
                .iter()
                .filter(|v| aggs.contains(&(v.op, v.attr)))
                .cloned()
                .collect();
            Some(EpochAnswer::Aggregates(subset))
        }
        // An aggregate stream can never answer an acquisition query.
        (EpochAnswer::Aggregates(_), Selection::Attributes(_)) => None,
    }
}

/// Whether a row of the synthetic stream satisfies the user's own
/// predicates and region clause.
fn keeps(user: &Query, position_of: &dyn Fn(u16) -> Option<(f64, f64)>, row: RowRef<'_>) -> bool {
    let in_region = user
        .region()
        .is_none_or(|reg| position_of(row.node()).is_some_and(|(x, y)| reg.contains(x, y)));
    in_region
        && user.predicates().matches_with(|attr| {
            // `nodeid` is the row's identity, not a sensed reading — it never
            // travels in the readings map. Any other missing attribute fails
            // the predicate; the optimizer's needed-attribute rule ensures
            // re-filter attributes travel with the row.
            if attr == Attribute::NodeId {
                return f64::from(row.node());
            }
            row.get(attr).unwrap_or(f64::NAN)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_query::{parse_query, AggOp, QueryId, Readings, Row, RowSet};

    fn q(id: u64, text: &str) -> Query {
        parse_query(QueryId(id), text).unwrap()
    }

    fn rows<const N: usize>(rows: [Row; N]) -> EpochAnswer {
        EpochAnswer::Rows(RowSet::new(0, rows))
    }

    /// The rows of a mapped acquisition answer.
    fn mapped_rows(mapped: Option<EpochAnswer>) -> Vec<Row> {
        let Some(EpochAnswer::Rows(rows)) = mapped else {
            panic!("{mapped:?} is not a rows answer")
        };
        rows.iter().collect()
    }

    fn row(node: u16, light: f64, temp: f64) -> Row {
        let mut readings = Readings::new();
        readings.set(Attribute::Light, light);
        readings.set(Attribute::Temp, temp);
        Row {
            node,
            time_ms: 0,
            readings,
        }
    }

    #[test]
    fn refilters_with_user_predicates() {
        let synthetic = q(100, "select light, temp epoch duration 2048");
        let user = q(1, "select light where 200<=light<=400 epoch duration 2048");
        let rows = rows([row(1, 100.0, 0.0), row(2, 300.0, 0.0), row(3, 500.0, 0.0)]);
        let mapped = mapped_rows(map_epoch_answer(&user, &synthetic, 2048, &rows));
        assert_eq!(mapped.len(), 1);
        assert_eq!(mapped[0].node, 2);
    }

    #[test]
    fn nodeid_predicate_is_answered_from_the_row_identity() {
        // `nodeid` never appears in the readings map — the mapper must read
        // it off the row itself, or every nodeid-filtered query maps to an
        // empty answer forever.
        let synthetic = q(100, "select light epoch duration 2048");
        let user = q(1, "select light where nodeid = 2 epoch duration 2048");
        let rows = rows([row(1, 100.0, 0.0), row(2, 300.0, 0.0), row(3, 500.0, 0.0)]);
        let mapped = mapped_rows(map_epoch_answer(&user, &synthetic, 2048, &rows));
        assert_eq!(mapped.len(), 1);
        assert_eq!(mapped[0].node, 2);
    }

    #[test]
    fn projects_to_user_attributes() {
        let synthetic = q(100, "select light, temp epoch duration 2048");
        let user = q(1, "select temp epoch duration 2048");
        let rows = rows([row(1, 100.0, 42.0)]);
        let mapped = mapped_rows(map_epoch_answer(&user, &synthetic, 2048, &rows));
        assert_eq!(mapped[0].time_ms, 2048, "stamped with the user's epoch");
        assert_eq!(mapped[0].readings.get(Attribute::Temp), Some(42.0));
        assert_eq!(mapped[0].readings.get(Attribute::Light), None);
    }

    #[test]
    fn computes_user_aggregates_from_rows() {
        let synthetic = q(100, "select light epoch duration 2048");
        let user = q(1, "select max(light), count(light) epoch duration 2048");
        let rows = rows([row(1, 100.0, 0.0), row(2, 300.0, 0.0)]);
        let EpochAnswer::Aggregates(vals) =
            map_epoch_answer(&user, &synthetic, 2048, &rows).unwrap()
        else {
            panic!()
        };
        let max = vals.iter().find(|v| v.op == AggOp::Max).unwrap();
        let count = vals.iter().find(|v| v.op == AggOp::Count).unwrap();
        assert_eq!(max.value, 300.0);
        assert_eq!(count.value, 2.0);
    }

    #[test]
    fn epoch_alignment_suppresses_off_epochs() {
        let synthetic = q(100, "select light epoch duration 2048");
        let user = q(1, "select light epoch duration 6144");
        let rows = rows([row(1, 1.0, 1.0)]);
        assert!(map_epoch_answer(&user, &synthetic, 2048, &rows).is_none());
        assert!(map_epoch_answer(&user, &synthetic, 4096, &rows).is_none());
        assert!(map_epoch_answer(&user, &synthetic, 6144, &rows).is_some());
        assert!(map_epoch_answer(&user, &synthetic, 12288, &rows).is_some());
    }

    #[test]
    fn aggregate_stream_maps_subset() {
        let synthetic = q(100, "select min(light), max(light) epoch duration 2048");
        let user = q(1, "select max(light) epoch duration 2048");
        let answer = EpochAnswer::Aggregates(vec![
            ttmqo_query::AggValue {
                op: AggOp::Min,
                attr: Attribute::Light,
                value: 1.0,
            },
            ttmqo_query::AggValue {
                op: AggOp::Max,
                attr: Attribute::Light,
                value: 9.0,
            },
        ]);
        let EpochAnswer::Aggregates(vals) =
            map_epoch_answer(&user, &synthetic, 2048, &answer).unwrap()
        else {
            panic!()
        };
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].op, AggOp::Max);
        assert_eq!(vals[0].value, 9.0);
    }

    #[test]
    fn aggregate_stream_cannot_answer_acquisition() {
        let synthetic = q(100, "select max(light) epoch duration 2048");
        let user = q(1, "select light epoch duration 2048");
        let answer = EpochAnswer::Aggregates(vec![]);
        assert!(map_epoch_answer(&user, &synthetic, 2048, &answer).is_none());
    }

    #[test]
    fn empty_rows_map_to_empty_answers() {
        let synthetic = q(100, "select light epoch duration 2048");
        let user = q(1, "select max(light) epoch duration 2048");
        let EpochAnswer::Aggregates(vals) =
            map_epoch_answer(&user, &synthetic, 2048, &rows([])).unwrap()
        else {
            panic!()
        };
        assert!(vals.is_empty());
    }
}
