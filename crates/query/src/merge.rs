//! Query rewrite algebra: coverage tests and semantically-correct integration.
//!
//! The base-station tier (§3.1) rewrites user queries into synthetic queries.
//! This module implements the *semantic* half of that rewriting — which
//! integrations are correct at all, and what the merged query looks like —
//! leaving the *cost-based* half (whether the merge is beneficial) to the
//! optimizer in `ttmqo-core`.
//!
//! Correctness rules (§3.1.2):
//!
//! * **aggregation + aggregation** — only integrable when the two queries have
//!   equivalent predicates; the merged query is an aggregation query over the
//!   union of the aggregate lists and the GCD epoch.
//! * **acquisition + anything** — the merged query is an acquisition query;
//!   attributes are the union of what each member needs (its selected or
//!   aggregated attributes, plus any predicate attribute the member must be
//!   re-filtered on at the base station), predicates are the covering union
//!   box, and the epoch is the GCD.
//!
//! A merged query always requests a *superset* of the data its members need,
//! so the base station can reconstruct every member's exact answer by
//! re-filtering, projecting, aggregating and epoch-aligning (`ttmqo-core`'s
//! result mapper).

use crate::attr::{AttrSet, Attribute};
use crate::query::{Query, QueryId, Selection};
use crate::region::Region;

/// Whether `outer`'s result stream contains all data needed to answer `inner`
/// exactly at the base station.
///
/// Requires:
/// 1. `outer.epoch` divides `inner.epoch` (aligned schedules: every firing of
///    `inner` coincides with a firing of `outer`);
/// 2. `outer`'s predicates qualify a superset of `inner`'s rows;
/// 3. `outer` carries the values `inner` needs: for an acquisition `outer`,
///    its attribute list must include `inner`'s needed attributes (selected or
///    aggregated attributes plus re-filtering attributes); an aggregation
///    `outer` can only cover an aggregation `inner` with *equivalent*
///    predicates and a superset aggregate list.
///
/// # Examples
///
/// ```
/// use ttmqo_query::{covers_query, parse_query, QueryId};
///
/// let broad = parse_query(QueryId(1), "select light where 100 <= light <= 600 epoch duration 2048")?;
/// let narrow = parse_query(QueryId(2), "select light where 200 <= light <= 500 epoch duration 4096")?;
/// assert!(covers_query(&broad, &narrow));
/// assert!(!covers_query(&narrow, &broad));
/// # Ok::<(), ttmqo_query::ParseQueryError>(())
/// ```
pub fn covers_query(outer: &Query, inner: &Query) -> bool {
    if !outer.epoch().divides(inner.epoch()) {
        return false;
    }
    if !outer.predicates().covers(inner.predicates()) {
        return false;
    }
    if !Region::covers_opt(outer.region(), inner.region()) {
        return false;
    }
    match (outer.selection(), inner.selection()) {
        (Selection::Attributes(outer_attrs), _) => needed_attributes(inner, outer)
            .iter()
            .all(|a| outer_attrs.contains(&a)),
        (Selection::Aggregates(outer_aggs), Selection::Aggregates(inner_aggs)) => {
            outer.predicates().equivalent(inner.predicates())
                && inner_aggs.iter().all(|p| outer_aggs.contains(p))
        }
        // An aggregation stream can never answer an acquisition query.
        (Selection::Aggregates(_), Selection::Attributes(_)) => false,
    }
}

/// The attributes an acquisition-style carrier must include so the base
/// station can answer `member` exactly.
///
/// That is `member`'s selected (or aggregated) attributes, plus every
/// predicate attribute on which the carrier's predicates are strictly wider
/// than `member`'s (those rows must be re-filtered, which requires the value
/// to travel with the row).
pub fn needed_attributes(member: &Query, carrier: &Query) -> AttrSet {
    let mut attrs = member.selection().sampled_attributes();
    for p in member.predicates().iter() {
        let carrier_range = carrier.predicates().effective_range(p.attr());
        let member_range = member.predicates().effective_range(p.attr());
        let identical =
            carrier_range.min() == member_range.min() && carrier_range.max() == member_range.max();
        if !identical {
            attrs.insert(p.attr());
        }
    }
    attrs
}

/// Whether the two queries may be integrated at all under the paper's
/// semantic-correctness constraints (ignoring cost).
pub fn can_integrate(a: &Query, b: &Query) -> bool {
    match (a.selection(), b.selection()) {
        (Selection::Aggregates(_), Selection::Aggregates(_)) => {
            // §3.1.2: aggregation pairs need identical qualifying row sets —
            // equivalent predicates *and* the same spatial restriction.
            a.predicates().equivalent(b.predicates()) && a.region() == b.region()
        }
        _ => true,
    }
}

/// Integrates two queries into one covering both, or `None` when no
/// semantically correct integration exists.
///
/// The merged query gets id `id`; its epoch is the GCD of the members'
/// epochs; its predicates the covering union box; its selection per the rules
/// in the module docs. The result is guaranteed to [`covers_query`] both
/// inputs.
///
/// # Examples
///
/// ```
/// use ttmqo_query::{integrate, covers_query, parse_query, QueryId};
///
/// let q2 = parse_query(QueryId(2), "select light where 100<light<300 epoch duration 4096")?;
/// let q3 = parse_query(QueryId(3), "select light where 150<light<500 epoch duration 4096")?;
/// let merged = integrate(QueryId(100), &q2, &q3).unwrap();
/// assert!(covers_query(&merged, &q2));
/// assert!(covers_query(&merged, &q3));
/// assert_eq!(merged.epoch().as_ms(), 4096);
/// # Ok::<(), ttmqo_query::ParseQueryError>(())
/// ```
pub fn integrate(id: QueryId, a: &Query, b: &Query) -> Option<Query> {
    if !can_integrate(a, b) {
        return None;
    }
    let epoch = a.epoch().gcd(b.epoch());
    let predicates = a.predicates().union_cover(b.predicates());

    let selection = match (a.selection(), b.selection()) {
        (Selection::Aggregates(aggs_a), Selection::Aggregates(aggs_b)) => {
            Selection::aggregates(aggs_a.iter().chain(aggs_b.iter()).copied())
        }
        _ => {
            // Acquisition carrier. Build a probe carrier to compute the
            // attribute set each member needs for re-filtering.
            let probe = Query::from_parts(
                id,
                Selection::attributes([Attribute::NodeId]),
                predicates.clone(),
                epoch,
            )
            .ok()?;
            let mut attrs = needed_attributes(a, &probe);
            attrs.extend(needed_attributes(b, &probe));
            Selection::attributes(attrs)
        }
    };

    let merged = Query::from_parts(id, selection, predicates, epoch).ok()?;
    Ok::<_, ()>(
        match Region::union_opt(a.region().copied(), b.region().copied()) {
            Some(r) => merged.with_region(r),
            None => merged,
        },
    )
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggOp;
    use crate::parser::parse_query;

    fn q(id: u64, text: &str) -> Query {
        parse_query(QueryId(id), text).unwrap()
    }

    #[test]
    fn acquisition_merge_covers_both_members() {
        let a = q(1, "select light where 280<light<600 epoch duration 2048");
        let b = q(2, "select light where 100<light<300 epoch duration 4096");
        let m = integrate(QueryId(10), &a, &b).unwrap();
        assert!(covers_query(&m, &a));
        assert!(covers_query(&m, &b));
        assert_eq!(m.epoch().as_ms(), 2048);
        let r = m.predicates().range(Attribute::Light).unwrap();
        assert_eq!((r.min(), r.max()), (101.0, 599.0));
    }

    #[test]
    fn aggregation_pair_requires_equivalent_predicates() {
        let a = q(1, "select max(light) where 0<=temp<=50 epoch duration 2048");
        let b = q(2, "select min(light) where 0<=temp<=50 epoch duration 4096");
        let c = q(3, "select min(light) where 0<=temp<=60 epoch duration 4096");
        assert!(can_integrate(&a, &b));
        assert!(!can_integrate(&a, &c));
        assert!(integrate(QueryId(10), &a, &c).is_none());

        let m = integrate(QueryId(10), &a, &b).unwrap();
        assert!(m.is_aggregation());
        assert!(covers_query(&m, &a));
        assert!(covers_query(&m, &b));
        assert_eq!(
            m.selection(),
            &Selection::aggregates([
                (AggOp::Min, Attribute::Light),
                (AggOp::Max, Attribute::Light)
            ])
        );
    }

    #[test]
    fn aggregation_folds_into_acquisition() {
        let acq = q(1, "select light, temp epoch duration 2048");
        let agg = q(2, "select max(light) epoch duration 4096");
        let m = integrate(QueryId(10), &acq, &agg).unwrap();
        assert!(m.is_acquisition());
        assert!(covers_query(&m, &acq));
        assert!(covers_query(&m, &agg));
    }

    #[test]
    fn refilter_attribute_is_added_to_carrier() {
        // b selects only light but filters on temp; merging with a (different
        // temp range) forces temp into the carrier's attribute list so the
        // base station can re-filter b's rows.
        let a = q(1, "select light epoch duration 2048");
        let b = q(2, "select light where 0<=temp<=50 epoch duration 2048");
        let m = integrate(QueryId(10), &a, &b).unwrap();
        match m.selection() {
            Selection::Attributes(attrs) => {
                assert!(attrs.contains(&Attribute::Temp), "carrier must carry temp");
                assert!(attrs.contains(&Attribute::Light));
            }
            _ => panic!("expected acquisition"),
        }
        assert!(covers_query(&m, &b));
    }

    #[test]
    fn coverage_requires_epoch_divisibility() {
        let outer = q(1, "select light epoch duration 4096");
        let inner = q(2, "select light epoch duration 6144");
        // 4096 does not divide 6144: the 6144-query fires at t=6144 where the
        // 4096-query produces nothing.
        assert!(!covers_query(&outer, &inner));
        let outer2 = q(3, "select light epoch duration 2048");
        assert!(covers_query(&outer2, &inner));
    }

    #[test]
    fn coverage_requires_predicate_superset() {
        let outer = q(1, "select light where 200<=light<=400 epoch duration 2048");
        let inner = q(2, "select light where 100<=light<=300 epoch duration 4096");
        assert!(!covers_query(&outer, &inner));
    }

    #[test]
    fn aggregation_stream_cannot_cover_acquisition() {
        let outer = q(1, "select max(light) epoch duration 2048");
        let inner = q(2, "select light epoch duration 4096");
        assert!(!covers_query(&outer, &inner));
    }

    #[test]
    fn aggregation_coverage_requires_equivalent_predicates() {
        let outer = q(
            1,
            "select max(light) where 0<=light<=600 epoch duration 2048",
        );
        let inner = q(
            2,
            "select max(light) where 0<=light<=300 epoch duration 4096",
        );
        // outer's rows are a superset but MAX over the superset is wrong for inner.
        assert!(!covers_query(&outer, &inner));
    }

    #[test]
    fn integrate_is_symmetric_in_coverage() {
        let a = q(1, "select light where 100<light<300 epoch duration 4096");
        let b = q(2, "select temp where 0<=temp<=50 epoch duration 6144");
        let m1 = integrate(QueryId(10), &a, &b).unwrap();
        let m2 = integrate(QueryId(11), &b, &a).unwrap();
        for m in [&m1, &m2] {
            assert!(covers_query(m, &a));
            assert!(covers_query(m, &b));
        }
        assert_eq!(m1.epoch(), m2.epoch());
        assert!(m1.predicates().equivalent(m2.predicates()));
    }

    #[test]
    fn self_integration_covers_self() {
        let a = q(1, "select light where 100<light<300 epoch duration 4096");
        let m = integrate(QueryId(10), &a, &a).unwrap();
        assert!(covers_query(&m, &a));
        assert_eq!(m.epoch(), a.epoch());
    }
}
