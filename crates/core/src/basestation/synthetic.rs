//! Synthetic queries — the rewritten queries actually injected into the
//! network (§3.1.1).
//!
//! A synthetic query wraps the network-facing [`Query`] with the enhanced
//! bookkeeping the paper keeps at the base station only: per-entry demand
//! *counts* (how many member user queries require each attribute, aggregate,
//! predicate range and epoch), the *from-list* of member queries, and the
//! current *benefit*. None of this travels in the query-propagation message.

use std::collections::{BTreeMap, BTreeSet};
use ttmqo_query::{AggOp, Attribute, Query, QueryId};

/// Requirements a user query contributes to its synthetic query's counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Demand {
    /// Attributes the member needs carried (selection + re-filter attributes
    /// for acquisition carriers; aggregated attributes otherwise).
    pub attrs: Vec<Attribute>,
    /// Aggregates the member needs computed in-network.
    pub aggs: Vec<(AggOp, Attribute)>,
    /// Predicate ranges `(attr, min, max)` the member's WHERE clause uses.
    pub pred_ranges: Vec<(Attribute, f64, f64)>,
    /// The member's epoch duration, ms.
    pub epoch_ms: u64,
}

impl Demand {
    /// Extracts the demand of a user query.
    pub fn of(query: &Query) -> Self {
        let aggs = match query.selection() {
            ttmqo_query::Selection::Attributes(_) => Vec::new(),
            ttmqo_query::Selection::Aggregates(aggs) => aggs.clone(),
        };
        Demand {
            attrs: query.sampled_attributes().iter().collect(),
            aggs,
            pred_ranges: query
                .predicates()
                .iter()
                .map(|p| (p.attr(), p.min(), p.max()))
                .collect(),
            epoch_ms: query.epoch().as_ms(),
        }
    }
}

/// A synthetic query: the network-facing query plus base-station-only
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct SyntheticQuery {
    query: Query,
    from_list: BTreeSet<QueryId>,
    attr_counts: BTreeMap<Attribute, usize>,
    agg_counts: BTreeMap<(AggOp, Attribute), usize>,
    // Count per exact predicate range, keyed by (attr, min-bits, max-bits) so
    // ranges can live in an ordered map.
    pred_counts: BTreeMap<(Attribute, u64, u64), usize>,
    epoch_counts: BTreeMap<u64, usize>,
    benefit: f64,
}

impl SyntheticQuery {
    /// Wraps a network-facing query with empty bookkeeping.
    pub fn new(query: Query) -> Self {
        SyntheticQuery {
            query,
            from_list: BTreeSet::new(),
            attr_counts: BTreeMap::new(),
            agg_counts: BTreeMap::new(),
            pred_counts: BTreeMap::new(),
            epoch_counts: BTreeMap::new(),
            benefit: 0.0,
        }
    }

    /// The query as injected into the network.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The synthetic query's id.
    pub fn id(&self) -> QueryId {
        self.query.id()
    }

    /// Member user queries this synthetic query answers.
    pub fn members(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.from_list.iter().copied()
    }

    /// Number of member user queries.
    pub fn member_count(&self) -> usize {
        self.from_list.len()
    }

    /// Whether the given user query is a member.
    pub fn contains_member(&self, qid: QueryId) -> bool {
        self.from_list.contains(&qid)
    }

    /// Current benefit estimate (Σ member costs − cost of this query).
    pub fn benefit(&self) -> f64 {
        self.benefit
    }

    /// Updates the stored benefit.
    pub fn set_benefit(&mut self, benefit: f64) {
        self.benefit = benefit;
    }

    /// The paper's `UpdateCount(q, sq, 1)`: registers a member and increments
    /// every count its demand touches.
    pub fn add_member(&mut self, qid: QueryId, demand: &Demand) {
        if !self.from_list.insert(qid) {
            return;
        }
        for &a in &demand.attrs {
            *self.attr_counts.entry(a).or_insert(0) += 1;
        }
        for &g in &demand.aggs {
            *self.agg_counts.entry(g).or_insert(0) += 1;
        }
        for &(a, lo, hi) in &demand.pred_ranges {
            *self
                .pred_counts
                .entry((a, lo.to_bits(), hi.to_bits()))
                .or_insert(0) += 1;
        }
        *self.epoch_counts.entry(demand.epoch_ms).or_insert(0) += 1;
    }

    /// The paper's `UpdateCount(q, sq, 0)`: removes a member, decrements its
    /// counts, and reports whether *some count dropped to zero* — the
    /// Algorithm-2 trigger meaning the member was the only query demanding
    /// some piece of data.
    pub fn remove_member(&mut self, qid: QueryId, demand: &Demand) -> bool {
        if !self.from_list.remove(&qid) {
            return false;
        }
        let mut freed = false;
        for &a in &demand.attrs {
            if let Some(c) = self.attr_counts.get_mut(&a) {
                *c -= 1;
                if *c == 0 {
                    self.attr_counts.remove(&a);
                    freed = true;
                }
            }
        }
        for &g in &demand.aggs {
            if let Some(c) = self.agg_counts.get_mut(&g) {
                *c -= 1;
                if *c == 0 {
                    self.agg_counts.remove(&g);
                    freed = true;
                }
            }
        }
        for &(a, lo, hi) in &demand.pred_ranges {
            let k = (a, lo.to_bits(), hi.to_bits());
            if let Some(c) = self.pred_counts.get_mut(&k) {
                *c -= 1;
                if *c == 0 {
                    self.pred_counts.remove(&k);
                    freed = true;
                }
            }
        }
        if let Some(c) = self.epoch_counts.get_mut(&demand.epoch_ms) {
            *c -= 1;
            if *c == 0 {
                self.epoch_counts.remove(&demand.epoch_ms);
                freed = true;
            }
        }
        freed
    }

    /// Demand count for an attribute (testing/diagnostics).
    pub fn attr_count(&self, attr: Attribute) -> usize {
        self.attr_counts.get(&attr).copied().unwrap_or(0)
    }

    /// Demand count for an epoch duration (testing/diagnostics).
    pub fn epoch_count(&self, epoch_ms: u64) -> usize {
        self.epoch_counts.get(&epoch_ms).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_query::parse_query;

    fn q(id: u64, text: &str) -> Query {
        parse_query(QueryId(id), text).unwrap()
    }

    #[test]
    fn demand_of_acquisition_includes_predicate_attrs() {
        let query = q(1, "select light where 0<=temp<=50 epoch duration 4096");
        let d = Demand::of(&query);
        assert!(d.attrs.contains(&Attribute::Light));
        assert!(d.attrs.contains(&Attribute::Temp));
        assert!(d.aggs.is_empty());
        assert_eq!(d.pred_ranges, vec![(Attribute::Temp, 0.0, 50.0)]);
        assert_eq!(d.epoch_ms, 4096);
    }

    #[test]
    fn demand_of_aggregation_lists_aggs() {
        let query = q(1, "select max(light) epoch duration 2048");
        let d = Demand::of(&query);
        assert_eq!(d.aggs, vec![(AggOp::Max, Attribute::Light)]);
    }

    #[test]
    fn add_remove_members_tracks_counts() {
        let carrier = q(100, "select light, temp epoch duration 2048");
        let mut sq = SyntheticQuery::new(carrier);
        let q1 = q(1, "select light epoch duration 2048");
        let q2 = q(2, "select light, temp epoch duration 4096");
        sq.add_member(QueryId(1), &Demand::of(&q1));
        sq.add_member(QueryId(2), &Demand::of(&q2));
        assert_eq!(sq.member_count(), 2);
        assert_eq!(sq.attr_count(Attribute::Light), 2);
        assert_eq!(sq.attr_count(Attribute::Temp), 1);
        assert_eq!(sq.epoch_count(2048), 1);
        assert_eq!(sq.epoch_count(4096), 1);

        // Removing q1 frees epoch 2048 → a count dropped to zero.
        let freed = sq.remove_member(QueryId(1), &Demand::of(&q1));
        assert!(freed);
        assert_eq!(sq.attr_count(Attribute::Light), 1);
        assert!(!sq.contains_member(QueryId(1)));
    }

    #[test]
    fn removing_redundant_member_frees_nothing() {
        let carrier = q(100, "select light epoch duration 2048");
        let mut sq = SyntheticQuery::new(carrier);
        let q1 = q(1, "select light epoch duration 2048");
        let q2 = q(2, "select light epoch duration 2048");
        sq.add_member(QueryId(1), &Demand::of(&q1));
        sq.add_member(QueryId(2), &Demand::of(&q2));
        // q2 demands exactly what q1 still demands: nothing freed.
        assert!(!sq.remove_member(QueryId(2), &Demand::of(&q2)));
    }

    #[test]
    fn duplicate_add_is_ignored() {
        let carrier = q(100, "select light epoch duration 2048");
        let mut sq = SyntheticQuery::new(carrier);
        let q1 = q(1, "select light epoch duration 2048");
        sq.add_member(QueryId(1), &Demand::of(&q1));
        sq.add_member(QueryId(1), &Demand::of(&q1));
        assert_eq!(sq.member_count(), 1);
        assert_eq!(sq.attr_count(Attribute::Light), 1);
    }

    #[test]
    fn remove_unknown_member_is_noop() {
        let carrier = q(100, "select light epoch duration 2048");
        let mut sq = SyntheticQuery::new(carrier);
        let q1 = q(1, "select light epoch duration 2048");
        assert!(!sq.remove_member(QueryId(1), &Demand::of(&q1)));
    }
}
