//! Query-aware DAG routing: dynamic parent selection (§3.2.2).
//!
//! During query propagation every node keeps an edge to each of its
//! upper-level neighbours, together with piggybacked knowledge of *which
//! queries each of those neighbours has data for*. When a node has a result
//! message serving a set of queries, it picks parents dynamically:
//! "Neighbors with data for more queries have higher priority to be chosen.
//! Ties are broken by favoring those nodes with more stable link. … if
//! multiple neighbors are chosen (each is responsible for forwarding message
//! for a subset of queries), one multicast message is required."
//!
//! This is the receive path's hot state — every overheard result frame
//! refreshes it — so it is dense: one slot per upper neighbour, found by a
//! scan of the (short) neighbour list, and query-id lists kept **sorted and
//! unique** so that set operations are merge walks over slices and a warm
//! update reuses the list's buffer instead of allocating.

use ttmqo_query::QueryId;
use ttmqo_sim::NodeId;

/// The elements common to two ascending, duplicate-free query-id sequences,
/// in ascending order — a merge walk, no allocation.
fn sorted_intersection<'a>(
    a: &'a [QueryId],
    b: impl Iterator<Item = QueryId> + 'a,
) -> impl Iterator<Item = QueryId> + 'a {
    let mut b = b.peekable();
    a.iter().copied().filter(move |q| {
        while b.next_if(|x| x < q).is_some() {}
        b.peek() == Some(q)
    })
}

/// Where a result message goes: the outcome of [`DagState::choose_parents`].
#[derive(Debug, Clone, PartialEq)]
pub enum Election {
    /// No live upper neighbour (or no query to route).
    NoRoute,
    /// One parent, responsible for every query of the message — unicast.
    One(NodeId),
    /// Two or more parents, each responsible for its share of the queries —
    /// "one multicast message is required". Parents ascending, each share
    /// ascending, the shares partitioning the message's queries: the
    /// `assignments` a multicast frame carries.
    Split(Vec<(NodeId, Vec<QueryId>)>),
}

/// What a node knows about its upper-level neighbours. Every per-neighbour
/// vector is indexed by the neighbour's position in `upper`.
#[derive(Debug, Clone, Default)]
pub struct DagState {
    /// Upper-level neighbours (the DAG edges toward the base station),
    /// distinct.
    upper: Vec<NodeId>,
    /// Link quality per upper neighbour.
    link: Vec<f64>,
    /// Queries each upper neighbour is believed to have data for (from flood
    /// piggybacks, wake-up broadcasts and overheard result frames): sorted
    /// ascending, no duplicates, overwritten in place. `None` until the
    /// neighbour is first heard about — distinct from a known-empty list.
    has_data: Vec<Option<Vec<QueryId>>>,
    /// Failure detector: consecutive failed unicast sends (retry budget
    /// exhausted without a link-layer acknowledgement) toward each upper
    /// neighbour since we last heard *any* frame from it.
    failures_since_heard: Vec<u32>,
    /// Upper neighbours currently presumed dead (excluded from parent
    /// election until heard from again).
    dead: Vec<bool>,
    /// Consecutive-failure threshold before a parent is presumed dead
    /// (0 = detector disabled, the default).
    dead_after: u32,
}

impl DagState {
    /// Initializes the DAG edges from the topology-derived upper neighbour
    /// list (distinct nodes) and link qualities.
    pub fn new(upper: Vec<(NodeId, f64)>) -> Self {
        let n = upper.len();
        DagState {
            link: upper.iter().map(|&(_, q)| q).collect(),
            upper: upper.into_iter().map(|(n, _)| n).collect(),
            has_data: vec![None; n],
            failures_since_heard: vec![0; n],
            dead: vec![false; n],
            dead_after: 0,
        }
    }

    /// The upper-level neighbours.
    pub fn upper_neighbors(&self) -> &[NodeId] {
        &self.upper
    }

    /// Position of `neighbor` in `upper` — the index of its state in every
    /// per-neighbour vector. A scan: the list is a handful of 2-byte ids.
    fn slot(&self, neighbor: NodeId) -> Option<usize> {
        self.upper.iter().position(|&n| n == neighbor)
    }

    /// Arms the parent failure detector: a parent whose unicast sends fail
    /// `threshold` consecutive times (each failure is a whole retry budget
    /// exhausted without a link-layer acknowledgement) with nothing heard
    /// from it in between is presumed dead and excluded from parent election
    /// until heard again. Hearing is proof of life: the radio is a broadcast
    /// medium, so a live parent is overheard even when it talks to someone
    /// else. `threshold == 0` disables the detector (the default), leaving
    /// parent choice byte-identical to the pre-fault-subsystem behaviour.
    pub fn set_failure_detector(&mut self, threshold: u32) {
        self.dead_after = threshold;
        if threshold == 0 {
            self.dead.fill(false);
            self.failures_since_heard.fill(0);
        }
    }

    /// Records one failed unicast send toward `parent` (the engine's
    /// `on_send_failed` feedback: every retry went unacknowledged). With the
    /// failure detector armed, enough consecutive failures mark the parent
    /// dead. Returns `true` if this failure crossed the threshold (the
    /// caller may want to log or re-route the next message).
    pub fn record_send_failure(&mut self, parent: NodeId) -> bool {
        if self.dead_after == 0 {
            return false;
        }
        let Some(i) = self.slot(parent) else {
            return false;
        };
        self.failures_since_heard[i] += 1;
        if self.failures_since_heard[i] >= self.dead_after && !self.dead[i] {
            self.dead[i] = true;
            return true;
        }
        false
    }

    /// Records a neighbour's explicit no-route resignation: an alive parent
    /// with no path toward the base station is as useless as a dead one, but
    /// unlike a crashed node it keeps acknowledging frames, so only this
    /// announcement reveals it. It is revived like a dead parent: by hearing
    /// result traffic from it again. Ignored while the detector is disabled.
    pub fn record_no_route(&mut self, neighbor: NodeId) {
        if self.dead_after == 0 {
            return;
        }
        if let Some(i) = self.slot(neighbor) {
            self.failures_since_heard[i] = 0;
            self.dead[i] = true;
        }
    }

    /// Records that *any* frame was heard from `neighbor` (message or
    /// overhear): resets its consecutive-failure counter and revives it if
    /// it was presumed dead — hearing a node is proof of life.
    pub fn record_heard(&mut self, neighbor: NodeId) {
        if self.dead_after == 0 {
            return;
        }
        if let Some(i) = self.slot(neighbor) {
            self.failures_since_heard[i] = 0;
            self.dead[i] = false;
        }
    }

    /// Whether `neighbor` is currently presumed dead.
    pub fn presumed_dead(&self, neighbor: NodeId) -> bool {
        self.slot(neighbor).is_some_and(|i| self.dead[i])
    }

    /// Whether every upper neighbour is presumed dead — the node is orphaned
    /// and has no live route toward the base station.
    pub fn is_orphaned(&self) -> bool {
        !self.upper.is_empty() && self.dead.iter().all(|&d| d)
    }

    /// Records (replaces) the set of queries `neighbor` has data for. The
    /// input may come in any order and repeat ids; the stored list is sorted
    /// and unique. Once a neighbour's list has grown to its working size,
    /// updating it allocates nothing.
    pub fn record_has_data<I: IntoIterator<Item = QueryId>>(&mut self, neighbor: NodeId, qids: I) {
        let Some(i) = self.slot(neighbor) else {
            return;
        };
        let known = self.has_data[i].get_or_insert_with(Vec::new);
        known.clear();
        known.extend(qids);
        known.sort_unstable();
        known.dedup();
    }

    /// Forgets a query everywhere (on abort).
    pub fn forget_query(&mut self, qid: QueryId) {
        for known in self.has_data.iter_mut().flatten() {
            if let Ok(at) = known.binary_search(&qid) {
                known.remove(at);
            }
        }
    }

    /// Queries `neighbor` is believed to have data for, ascending; `None`
    /// when nothing was ever recorded about it (or it is no upper
    /// neighbour).
    pub fn known_data(&self, neighbor: NodeId) -> Option<&[QueryId]> {
        self.has_data[self.slot(neighbor)?].as_deref()
    }

    /// The queries of `queries` that upper neighbour `i` has data for and
    /// that no parent picked so far is responsible for, ascending.
    fn uncovered_overlap<'a>(
        &'a self,
        i: usize,
        queries: impl Iterator<Item = QueryId> + 'a,
        picked: &'a [(NodeId, Vec<QueryId>)],
    ) -> impl Iterator<Item = QueryId> + 'a {
        let known = self.has_data[i].as_deref().unwrap_or(&[]);
        sorted_intersection(known, queries).filter(move |&q| !covered(picked, q))
    }

    /// Chooses parents for a message serving `queries` (ascending, no
    /// duplicates; an iterator so that a caller whose ids sit inside other
    /// records need not copy them out).
    ///
    /// Greedy set cover: repeatedly pick the upper neighbour with data for
    /// the most still-uncovered queries (ties broken by link quality, then by
    /// node id for determinism). Queries no neighbour has data for are
    /// assigned to the best-link neighbour. Neighbours presumed dead by the
    /// failure detector are excluded.
    ///
    /// Overlaps are counted by merge walks over the sorted lists, never
    /// materialised. The common outcome — the first round's winner overlaps
    /// every query, or nobody overlaps any and everything rides the best
    /// link — is [`Election::One`] before any vector exists; otherwise the
    /// only allocations are the vectors of the returned [`Election::Split`].
    pub fn choose_parents<Q>(&self, queries: Q) -> Election
    where
        Q: ExactSizeIterator<Item = QueryId> + Clone,
    {
        debug_assert!(
            queries
                .clone()
                .zip(queries.clone().skip(1))
                .all(|(a, b)| a < b),
            "queries are sorted and unique"
        );
        let live = self.dead.iter().filter(|&&d| !d).count();
        let mut uncovered = queries.len();
        if live == 0 || uncovered == 0 {
            return Election::NoRoute;
        }
        let mut picked: Vec<(NodeId, Vec<QueryId>)> = Vec::new();
        while uncovered > 0 {
            let (best, overlap) = (0..self.upper.len())
                .filter(|&i| !self.dead[i])
                .map(|i| {
                    let overlap = self.uncovered_overlap(i, queries.clone(), &picked);
                    (i, overlap.count())
                })
                .max_by(|&(a, oa), &(b, ob)| {
                    oa.cmp(&ob)
                        .then_with(|| {
                            self.link[a]
                                .partial_cmp(&self.link[b])
                                .expect("link qualities are finite")
                        })
                        .then_with(|| self.upper[b].0.cmp(&self.upper[a].0)) // lower id wins ties
                })
                .expect("a live upper neighbour exists");
            let parent = self.upper[best];
            if picked.is_empty() {
                if overlap == uncovered || overlap == 0 {
                    // The first round settles it: `parent` has data for
                    // every query, or nobody has data for any and `parent`
                    // is the best live link, which takes them all.
                    return Election::One(parent);
                }
                picked.reserve_exact(live.min(uncovered));
            }
            if overlap > 0 {
                // A neighbour picked earlier has no uncovered overlap left,
                // so `parent` is new. Room for everything still uncovered:
                // its share can only grow by the leftovers below.
                let mut share = Vec::with_capacity(uncovered);
                share.extend(self.uncovered_overlap(best, queries.clone(), &picked));
                picked.push((parent, share));
                uncovered -= overlap;
            } else {
                // Nobody has data for what is left, so the comparison above
                // fell through to link quality: hand the rest to `best`, the
                // best live link — merged into its share if it has one.
                // Inserting in order keeps every share searchable meanwhile.
                let at = picked
                    .iter()
                    .position(|&(n, _)| n == parent)
                    .unwrap_or_else(|| {
                        picked.push((parent, Vec::with_capacity(uncovered)));
                        picked.len() - 1
                    });
                for q in queries.clone() {
                    if !covered(&picked, q) {
                        let share = &mut picked[at].1;
                        share.insert(share.partition_point(|&x| x < q), q);
                    }
                }
                uncovered = 0;
            }
        }
        if let [(only, _)] = picked[..] {
            // The leftovers merged into the first round's parent.
            return Election::One(only);
        }
        picked.sort_unstable_by_key(|&(n, _)| n);
        Election::Split(picked)
    }
}

/// Whether some picked parent is already responsible for `q`.
fn covered(picked: &[(NodeId, Vec<QueryId>)], q: QueryId) -> bool {
    picked.iter().any(|(_, qs)| qs.binary_search(&q).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A query-id list; callers pass ascending ids.
    fn qs(ids: &[u64]) -> Vec<QueryId> {
        ids.iter().map(|&i| QueryId(i)).collect()
    }

    /// The election for a message serving `ids` (ascending).
    fn elect(d: &DagState, ids: &[u64]) -> Election {
        d.choose_parents(ids.iter().map(|&i| QueryId(i)))
    }

    fn dag() -> DagState {
        // Three upper neighbours with decreasing link quality.
        DagState::new(vec![(NodeId(1), 0.9), (NodeId(2), 0.5), (NodeId(3), 0.3)])
    }

    #[test]
    fn no_knowledge_falls_back_to_best_link_unicast() {
        let d = dag();
        let parents = elect(&d, &[10, 11]);
        assert_eq!(parents, Election::One(NodeId(1)));
    }

    #[test]
    fn single_covering_neighbor_wins_over_better_link() {
        let mut d = dag();
        d.record_has_data(NodeId(3), qs(&[10, 11]));
        let parents = elect(&d, &[10, 11]);
        assert_eq!(parents, Election::One(NodeId(3)));
    }

    #[test]
    fn ties_break_by_link_quality() {
        let mut d = dag();
        d.record_has_data(NodeId(2), qs(&[10]));
        d.record_has_data(NodeId(3), qs(&[10]));
        let parents = elect(&d, &[10]);
        assert_eq!(
            parents,
            Election::One(NodeId(2)),
            "better link wins the tie"
        );
    }

    #[test]
    fn split_assignment_multicasts() {
        let mut d = dag();
        d.record_has_data(NodeId(2), qs(&[10]));
        d.record_has_data(NodeId(3), qs(&[11]));
        assert_eq!(
            elect(&d, &[10, 11]),
            Election::Split(vec![(NodeId(2), qs(&[10])), (NodeId(3), qs(&[11]))])
        );
    }

    #[test]
    fn uncovered_queries_ride_with_best_link() {
        let mut d = dag();
        d.record_has_data(NodeId(3), qs(&[10]));
        assert_eq!(
            elect(&d, &[10, 12]),
            Election::Split(vec![(NodeId(1), qs(&[12])), (NodeId(3), qs(&[10]))]),
            "orphan query goes to best link"
        );
    }

    #[test]
    fn leftovers_merging_into_the_first_pick_is_still_one_parent() {
        let mut d = dag();
        d.record_has_data(NodeId(1), qs(&[10]));
        // Node 1 wins round one on overlap, and round two as the best link.
        assert_eq!(elect(&d, &[10, 12]), Election::One(NodeId(1)));
    }

    #[test]
    fn greedy_prefers_wider_coverage() {
        let mut d = dag();
        d.record_has_data(NodeId(2), qs(&[10, 11, 12]));
        d.record_has_data(NodeId(1), qs(&[10]));
        let parents = elect(&d, &[10, 11, 12]);
        assert_eq!(parents, Election::One(NodeId(2)));
    }

    #[test]
    fn forget_query_removes_knowledge() {
        let mut d = dag();
        d.record_has_data(NodeId(3), qs(&[10]));
        d.forget_query(QueryId(10));
        let parents = elect(&d, &[10]);
        assert_eq!(parents, Election::One(NodeId(1)), "back to best link");
    }

    #[test]
    fn record_ignores_non_upper_neighbors() {
        let mut d = dag();
        d.record_has_data(NodeId(99), qs(&[10]));
        assert!(d.known_data(NodeId(99)).is_none());
    }

    #[test]
    fn empty_inputs_yield_empty_assignment() {
        let d = dag();
        assert_eq!(elect(&d, &[]), Election::NoRoute);
        let empty = DagState::new(vec![]);
        assert_eq!(elect(&empty, &[1]), Election::NoRoute);
    }

    #[test]
    fn later_record_replaces_earlier() {
        let mut d = dag();
        d.record_has_data(NodeId(2), qs(&[10, 11]));
        d.record_has_data(NodeId(2), qs(&[11]));
        assert_eq!(d.known_data(NodeId(2)), Some(&qs(&[11])[..]));
    }

    #[test]
    fn detector_disabled_never_marks_dead() {
        let mut d = dag();
        for _ in 0..100 {
            assert!(!d.record_send_failure(NodeId(1)));
        }
        assert!(!d.presumed_dead(NodeId(1)));
        assert_eq!(elect(&d, &[10]), Election::One(NodeId(1)));
    }

    #[test]
    fn silent_parent_is_presumed_dead_and_reelection_preserves_query_awareness() {
        let mut d = dag();
        d.set_failure_detector(3);
        // Node 3 is the only one known to serve query 10, but it goes silent.
        d.record_has_data(NodeId(3), qs(&[10]));
        assert_eq!(elect(&d, &[10]), Election::One(NodeId(3)));
        assert!(!d.record_send_failure(NodeId(3)));
        assert!(!d.record_send_failure(NodeId(3)));
        assert!(
            d.record_send_failure(NodeId(3)),
            "third consecutive failure crosses threshold"
        );
        assert!(d.presumed_dead(NodeId(3)));
        // Re-election skips the dead parent; among the survivors the
        // query-aware rule still applies (2 has data for 11, so it beats the
        // better-link node 1 for that query).
        d.record_has_data(NodeId(2), qs(&[11]));
        assert_eq!(elect(&d, &[10]), Election::One(NodeId(1)));
        assert_eq!(elect(&d, &[11]), Election::One(NodeId(2)));
    }

    #[test]
    fn hearing_a_dead_parent_revives_it() {
        let mut d = dag();
        d.set_failure_detector(2);
        d.record_send_failure(NodeId(1));
        d.record_send_failure(NodeId(1));
        assert!(d.presumed_dead(NodeId(1)));
        d.record_heard(NodeId(1));
        assert!(!d.presumed_dead(NodeId(1)));
        assert_eq!(elect(&d, &[10]), Election::One(NodeId(1)));
    }

    #[test]
    fn hearing_resets_the_failure_counter() {
        let mut d = dag();
        d.set_failure_detector(3);
        d.record_send_failure(NodeId(1));
        d.record_send_failure(NodeId(1));
        d.record_heard(NodeId(1)); // proof of life just in time
        d.record_send_failure(NodeId(1));
        d.record_send_failure(NodeId(1));
        assert!(
            !d.presumed_dead(NodeId(1)),
            "counter restarted after hearing"
        );
    }

    #[test]
    fn all_parents_dead_means_orphaned() {
        let mut d = dag();
        d.set_failure_detector(1);
        for n in [1u16, 2, 3] {
            d.record_send_failure(NodeId(n));
        }
        assert!(d.is_orphaned());
        assert_eq!(
            elect(&d, &[10]),
            Election::NoRoute,
            "no live route toward the base station"
        );
        d.record_heard(NodeId(2));
        assert!(!d.is_orphaned());
        assert_eq!(elect(&d, &[10]), Election::One(NodeId(2)));
    }

    #[test]
    fn no_route_resignation_excludes_an_alive_parent() {
        let mut d = dag();
        d.set_failure_detector(3);
        d.record_no_route(NodeId(1));
        assert!(d.presumed_dead(NodeId(1)));
        // Election falls back to the best live link (2 at 0.5 beats 3 at 0.3).
        assert_eq!(elect(&d, &[10]), Election::One(NodeId(2)));
        // Hearing result traffic from the resigned parent revives it.
        d.record_heard(NodeId(1));
        assert!(!d.presumed_dead(NodeId(1)));
    }

    #[test]
    fn no_route_is_ignored_while_the_detector_is_disabled() {
        let mut d = dag();
        d.record_no_route(NodeId(1));
        assert!(!d.presumed_dead(NodeId(1)));
        assert_eq!(elect(&d, &[10]), Election::One(NodeId(1)));
    }

    #[test]
    fn disabling_the_detector_clears_dead_state() {
        let mut d = dag();
        d.set_failure_detector(1);
        d.record_send_failure(NodeId(1));
        assert!(d.presumed_dead(NodeId(1)));
        d.set_failure_detector(0);
        assert!(!d.presumed_dead(NodeId(1)));
        assert!(!d.record_send_failure(NodeId(1)));
    }

    /// Pins the two best-link tie rules. Some sensing nodes have two upper
    /// neighbours at the same best link quality; TinyDB's tree
    /// (`Topology::default_parent`, also TTMQO's route when
    /// `dynamic_parents` is off) takes the higher id, and `choose_parents`
    /// with no has-data knowledge takes the lower. They agree everywhere
    /// else. Unifying them moves simulated bits (ROADMAP item 11).
    #[test]
    fn the_two_routing_rules_break_best_link_ties_in_opposite_directions() {
        use ttmqo_sim::Topology;
        for (grid_n, ties) in [(4, 2), (8, 14), (32, 310)] {
            let topo = Topology::grid(grid_n).unwrap();
            let mut tied = 0;
            for node in topo.nodes().skip(1) {
                let upper: Vec<(NodeId, f64)> = topo
                    .upper_neighbors(node)
                    .into_iter()
                    .map(|n| (n, topo.link_quality(node, n)))
                    .collect();
                let best = upper.iter().map(|&(_, q)| q).fold(0.0, f64::max);
                let at_best: Vec<NodeId> = upper
                    .iter()
                    .filter(|&&(_, q)| q == best)
                    .map(|&(n, _)| n)
                    .collect();
                let tinydb = topo
                    .default_parent(node)
                    .expect("a sensing node has a parent");
                let Election::One(elected) = elect(&DagState::new(upper), &[1]) else {
                    panic!("no has-data knowledge elects one parent");
                };
                if at_best.len() == 1 {
                    assert_eq!((tinydb, elected), (at_best[0], at_best[0]), "node {node}");
                } else {
                    tied += 1;
                    assert_eq!(at_best.len(), 2, "node {node}");
                    assert_eq!((tinydb, elected), (at_best[1], at_best[0]), "node {node}");
                }
            }
            assert_eq!(tied, ties, "{grid_n}x{grid_n}");
        }
    }
}
