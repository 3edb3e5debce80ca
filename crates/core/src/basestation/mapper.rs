//! Result mapping: recovering each user query's exact answer from its
//! synthetic query's result stream ("mapping and calculation", §3.1).
//!
//! A synthetic query's answer is a superset of each member's needs, so the
//! mapper re-filters rows with the member's original predicates, projects the
//! member's attributes, computes the member's aggregates from raw rows when
//! an aggregation query was folded into an acquisition stream, and aligns
//! epochs (a member with a 4096 ms epoch only receives answers for epochs at
//! multiples of 4096 ms even when the synthetic query fires every 2048 ms).
//!
//! [`map_epoch_answers_at`] maps one synthetic epoch answer onto all its
//! members at once. Their acquisition answers are views of one shared block
//! that stores only the rows some member keeps, each projected onto the
//! attributes its keepers want, so a synthetic answer costs one allocation
//! however many members it serves. [`map_epoch_answer_at`] is its
//! one-member case.

use std::iter;
use ttmqo_query::{aggregate_rows, Attribute, EpochAnswer, Query, RowRef, Selection};

/// Maps one synthetic-query epoch answer onto one member user query.
///
/// Returns `None` when this epoch is not an epoch of the user query (epoch
/// alignment), or when the synthetic stream cannot answer the user query at
/// all (which indicates an optimizer bug — the synthetic must cover its
/// members).
///
/// The one-member case of [`map_epoch_answers_at`]. `position_of` is
/// ignored: no query restricts by position. It is kept because the repo
/// benchmark passes it; it can go when the benchmark may be edited.
///
/// # Examples
///
/// ```
/// use ttmqo_core::map_epoch_answer_at;
/// use ttmqo_query::{parse_query, EpochAnswer, QueryId, Readings, Row, RowSet, Attribute};
///
/// let synthetic = parse_query(QueryId(100), "select light, temp epoch duration 2048")?;
/// let user = parse_query(QueryId(1), "select light where light >= 500 epoch duration 4096")?;
///
/// let mut readings = Readings::new();
/// readings.set(Attribute::Light, 700.0);
/// readings.set(Attribute::Temp, 20.0);
/// let rows = EpochAnswer::Rows(RowSet::new(4096, [Row { node: 3, time_ms: 4096, readings }]));
/// let nowhere = |_| None; // ignored
///
/// // At t=4096 (a user epoch) the qualifying row is re-filtered & projected.
/// match map_epoch_answer_at(&user, &synthetic, 4096, &rows, &nowhere).unwrap() {
///     EpochAnswer::Rows(rs) => {
///         let row = rs.iter().next().unwrap();
///         assert_eq!(rs.len(), 1);
///         assert_eq!(row.readings.get(Attribute::Temp), None, "projected away");
///     }
///     _ => unreachable!(),
/// }
/// // At t=2048 the user query is not due.
/// assert!(map_epoch_answer_at(&user, &synthetic, 2048, &rows, &nowhere).is_none());
/// # Ok::<(), ttmqo_query::ParseQueryError>(())
/// ```
pub fn map_epoch_answer_at(
    user: &Query,
    synthetic: &Query,
    epoch_ms: u64,
    answer: &EpochAnswer,
    _position_of: &dyn Fn(u16) -> Option<(f64, f64)>,
) -> Option<EpochAnswer> {
    let mut mapped = None;
    let member = || iter::once((user, synthetic));
    map_epoch_answers_at(member, epoch_ms, answer, |_, a| {
        mapped = Some(a);
    });
    mapped
}

/// [`map_epoch_answer_at`] for every member one synthetic epoch answer
/// serves, at once. `members` lists them as `(user, synthetic)` pairs and
/// is walked twice, so it must list the same pairs each time; `emit` is
/// handed each member's answer, in that order, except where
/// [`map_epoch_answer_at`] returns `None`.
///
/// The acquisition members' answers are views of one block that holds only
/// the rows some member keeps
/// ([`RowSet::select_all`](ttmqo_query::RowSet::select_all)): the whole call
/// allocates once for them, not once per member.
pub fn map_epoch_answers_at<'q, I>(
    members: impl Fn() -> I,
    epoch_ms: u64,
    answer: &EpochAnswer,
    mut emit: impl FnMut(&'q Query, EpochAnswer),
) where
    I: Iterator<Item = (&'q Query, &'q Query)>,
{
    let due = || members().filter(|(user, _)| user.epoch().fires_at(epoch_ms));
    let rows = match answer {
        EpochAnswer::Rows(rows) => rows,
        EpochAnswer::Aggregates(values) => {
            for (user, synthetic) in due() {
                // An aggregate stream can never answer an acquisition query.
                let Selection::Aggregates(aggs) = user.selection() else {
                    continue;
                };
                // Correct only because aggregation merges require equivalent
                // predicates (§3.1.2).
                debug_assert!(synthetic.predicates().equivalent(user.predicates()));
                let subset = values.iter().filter(|v| aggs.contains(&(v.op, v.attr)));
                emit(user, EpochAnswer::Aggregates(subset.cloned().collect()));
            }
            return;
        }
    };
    let selections = due().filter_map(|(user, _)| match user.selection() {
        Selection::Attributes(attrs) => {
            let keep = move |r: RowRef<'_>| keeps(user, r);
            Some((attrs.iter().collect(), keep))
        }
        Selection::Aggregates(_) => None,
    });
    let mut views = rows.select_all(epoch_ms, selections);
    for (user, _) in due() {
        let mapped = match user.selection() {
            Selection::Attributes(_) => {
                EpochAnswer::Rows(views.next().expect("one view per acquisition member"))
            }
            Selection::Aggregates(aggs) => {
                let kept = rows.refs().filter(|&r| keeps(user, r));
                EpochAnswer::Aggregates(aggregate_rows(kept, aggs))
            }
        };
        emit(user, mapped);
    }
}

/// Whether a row of the synthetic stream satisfies the user's own
/// predicates.
fn keeps(user: &Query, row: RowRef<'_>) -> bool {
    user.predicates().matches_with(|attr| {
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

    /// `map_epoch_answer_at` ignores positions.
    const NOWHERE: &dyn Fn(u16) -> Option<(f64, f64)> = &|_| None;

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
        let mapped = mapped_rows(map_epoch_answer_at(&user, &synthetic, 2048, &rows, NOWHERE));
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
        let mapped = mapped_rows(map_epoch_answer_at(&user, &synthetic, 2048, &rows, NOWHERE));
        assert_eq!(mapped.len(), 1);
        assert_eq!(mapped[0].node, 2);
    }

    #[test]
    fn projects_to_user_attributes() {
        let synthetic = q(100, "select light, temp epoch duration 2048");
        let user = q(1, "select temp epoch duration 2048");
        let rows = rows([row(1, 100.0, 42.0)]);
        let mapped = mapped_rows(map_epoch_answer_at(&user, &synthetic, 2048, &rows, NOWHERE));
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
            map_epoch_answer_at(&user, &synthetic, 2048, &rows, NOWHERE).unwrap()
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
        assert!(map_epoch_answer_at(&user, &synthetic, 2048, &rows, NOWHERE).is_none());
        assert!(map_epoch_answer_at(&user, &synthetic, 4096, &rows, NOWHERE).is_none());
        assert!(map_epoch_answer_at(&user, &synthetic, 6144, &rows, NOWHERE).is_some());
        assert!(map_epoch_answer_at(&user, &synthetic, 12288, &rows, NOWHERE).is_some());
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
            map_epoch_answer_at(&user, &synthetic, 2048, &answer, NOWHERE).unwrap()
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
        assert!(map_epoch_answer_at(&user, &synthetic, 2048, &answer, NOWHERE).is_none());
    }

    #[test]
    fn empty_rows_map_to_empty_answers() {
        let synthetic = q(100, "select light epoch duration 2048");
        let user = q(1, "select max(light) epoch duration 2048");
        let EpochAnswer::Aggregates(vals) =
            map_epoch_answer_at(&user, &synthetic, 2048, &rows([]), NOWHERE).unwrap()
        else {
            panic!()
        };
        assert!(vals.is_empty());
    }

    #[test]
    fn mapping_all_members_at_once_is_mapping_each_alone() {
        let synthetic = q(100, "select light, temp, humidity epoch duration 2048");
        let users = [
            q(1, "select light where light >= 200 epoch duration 2048"),
            q(2, "select temp, light where temp <= 30 epoch duration 2048"),
            q(3, "select humidity where nodeid >= 3 epoch duration 2048"),
            q(
                4,
                "select max(light), count(temp) where light >= 150 epoch duration 2048",
            ),
            q(5, "select light epoch duration 4096"),
            q(6, "select temp where nodeid <= 2 epoch duration 2048"),
            q(7, "select light where light >= 999 epoch duration 2048"),
            q(8, "select light, temp, humidity epoch duration 2048"),
        ];
        let answer = rows(std::array::from_fn::<_, 70, _>(|i| {
            let i = i as u16;
            let mut r = row(i, f64::from(i * 7 % 500), f64::from(i % 40));
            if i.is_multiple_of(3) {
                r.readings.set(Attribute::Humidity, f64::from(i));
            }
            r
        }));
        let members = || users.iter().map(|u| (u, &synthetic));
        for epoch_ms in [2048, 4096] {
            let mut all = Vec::new();
            map_epoch_answers_at(members, epoch_ms, &answer, |u, a| {
                all.push((u.id(), a));
            });
            let alone: Vec<_> = users
                .iter()
                .filter_map(|u| {
                    let mapped = map_epoch_answer_at(u, &synthetic, epoch_ms, &answer, NOWHERE);
                    Some((u.id(), mapped?))
                })
                .collect();
            assert_eq!(all.len(), if epoch_ms == 4096 { 8 } else { 7 });
            assert_eq!(format!("{all:?}"), format!("{alone:?}"), "at {epoch_ms}");
            // Most members keep some rows but not all of the 70: their views
            // carry row masks two words long.
            let nonempty = all
                .iter()
                .filter(|(_, a)| matches!(a, EpochAnswer::Rows(r) if !r.is_empty()));
            assert!(nonempty.count() >= 4);
        }
    }
}
