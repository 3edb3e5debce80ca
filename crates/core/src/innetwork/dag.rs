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
//! refreshes it — so it is dense: one record per upper neighbour, found by a
//! scan of the (short) record list, and every neighbour's query-id list kept
//! **sorted and unique**, back to back in one shared vector, so that set
//! operations are merge walks over slices and a warm update reuses the
//! vector's buffer instead of allocating.

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

/// What a node knows about one upper-level neighbour.
#[derive(Debug, Clone)]
struct Upper {
    /// Link quality toward it.
    link: f64,
    /// Failure detector: consecutive failed unicast sends (retry budget
    /// exhausted without a link-layer acknowledgement) toward it since we
    /// last heard *any* frame from it.
    failures: u32,
    /// Where its has-data list starts in [`DagState::known`], and its length.
    start: u32,
    len: u32,
    node: NodeId,
    /// Presumed dead: excluded from parent election until heard from again.
    dead: bool,
    /// Whether its has-data list was ever recorded — an empty list once
    /// recorded is knowledge, distinct from never having heard about it.
    recorded: bool,
}

/// What a node knows about its upper-level neighbours.
#[derive(Debug, Clone, Default)]
pub struct DagState {
    /// The upper-level neighbours (the DAG edges toward the base station),
    /// distinct.
    uppers: Vec<Upper>,
    /// The queries each upper neighbour is believed to have data for (from
    /// flood piggybacks, wake-up broadcasts and overheard result frames),
    /// one list per neighbour, back to back in `uppers` order: each sorted
    /// ascending, no duplicates, overwritten in place.
    known: Vec<QueryId>,
    /// Consecutive-failure threshold before a parent is presumed dead
    /// (0 = detector disabled, the default).
    dead_after: u32,
}

impl DagState {
    /// Initializes the DAG edges from the topology-derived upper neighbours
    /// (distinct nodes) and their link qualities.
    pub fn new(upper: impl IntoIterator<Item = (NodeId, f64)>) -> Self {
        let uppers = upper.into_iter().map(|(node, link)| Upper {
            link,
            failures: 0,
            start: 0,
            len: 0,
            node,
            dead: false,
            recorded: false,
        });
        DagState {
            uppers: uppers.collect(),
            known: Vec::new(),
            dead_after: 0,
        }
    }

    /// The upper-level neighbours.
    pub fn upper_neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.uppers.iter().map(|u| u.node)
    }

    /// Position of `neighbor`'s record in `uppers`. A scan: the list is a
    /// handful of records.
    fn slot(&self, neighbor: NodeId) -> Option<usize> {
        self.uppers.iter().position(|u| u.node == neighbor)
    }

    /// The has-data list of the neighbour whose record is `u`.
    fn list(&self, u: &Upper) -> &[QueryId] {
        let start = u.start as usize;
        &self.known[start..start + u.len as usize]
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
            for u in &mut self.uppers {
                (u.dead, u.failures) = (false, 0);
            }
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
        let u = &mut self.uppers[i];
        u.failures += 1;
        if u.failures >= self.dead_after && !u.dead {
            u.dead = true;
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
            (self.uppers[i].failures, self.uppers[i].dead) = (0, true);
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
            (self.uppers[i].failures, self.uppers[i].dead) = (0, false);
        }
    }

    /// Whether `neighbor` is currently presumed dead.
    pub fn presumed_dead(&self, neighbor: NodeId) -> bool {
        self.slot(neighbor).is_some_and(|i| self.uppers[i].dead)
    }

    /// Whether every upper neighbour is presumed dead — the node is orphaned
    /// and has no live route toward the base station.
    pub fn is_orphaned(&self) -> bool {
        !self.uppers.is_empty() && self.uppers.iter().all(|u| u.dead)
    }

    /// Records (replaces) the set of queries `neighbor` has data for. The
    /// input may come in any order and repeat ids; the stored list is sorted
    /// and unique. The new list overwrites the old one in place: an unchanged
    /// list (the common case: a neighbour's frames keep serving the same
    /// queries) writes nothing, only a change of length moves the lists after
    /// it (once), and once the shared vector has grown to its working size an
    /// update allocates nothing.
    pub fn record_has_data<I: IntoIterator<Item = QueryId>>(&mut self, neighbor: NodeId, qids: I) {
        let Some(i) = self.slot(neighbor) else {
            return;
        };
        let (start, old) = (self.uppers[i].start as usize, self.uppers[i].len as usize);
        self.uppers[i].recorded = true;
        let (mut len, mut changed) = (0, false);
        for q in qids {
            if len >= old {
                self.known.push(q);
                changed = true;
            } else if self.known[start + len] != q {
                self.known[start + len] = q;
                changed = true;
            }
            len += 1;
        }
        if !changed && len == old {
            return;
        }
        if len > old {
            // What outgrew the old list went to the end: one rotation puts
            // it in place, where an insert per id would move the lists
            // after it once per id.
            self.known[start + old..].rotate_right(len - old);
        }
        let list = &mut self.known[start..start + len];
        list.sort_unstable();
        let mut unique = len.min(1);
        for r in 1..len {
            if list[r] != list[unique - 1] {
                list[unique] = list[r];
                unique += 1;
            }
        }
        self.known.drain(start + unique..start + len.max(old));
        self.uppers[i].len = unique as u32;
        self.shift_after(i, unique as i64 - old as i64);
    }

    /// Moves the lists of the records after `i` by `by` places.
    fn shift_after(&mut self, i: usize, by: i64) {
        if by != 0 {
            for u in &mut self.uppers[i + 1..] {
                u.start = (i64::from(u.start) + by) as u32;
            }
        }
    }

    /// Forgets a query everywhere (on abort).
    pub fn forget_query(&mut self, qid: QueryId) {
        for i in 0..self.uppers.len() {
            let u = &self.uppers[i];
            if let Ok(at) = self.list(u).binary_search(&qid) {
                self.known.remove(u.start as usize + at);
                self.uppers[i].len -= 1;
                self.shift_after(i, -1);
            }
        }
    }

    /// Queries `neighbor` is believed to have data for, ascending; `None`
    /// when nothing was ever recorded about it (or it is no upper
    /// neighbour).
    pub fn known_data(&self, neighbor: NodeId) -> Option<&[QueryId]> {
        let u = &self.uppers[self.slot(neighbor)?];
        u.recorded.then(|| self.list(u))
    }

    /// The queries of `queries` that the neighbour whose record is `u` has
    /// data for and that no parent picked so far is responsible for,
    /// ascending.
    fn uncovered_overlap<'a>(
        &'a self,
        u: &'a Upper,
        queries: impl Iterator<Item = QueryId> + 'a,
        picked: &'a [(NodeId, Vec<QueryId>)],
    ) -> impl Iterator<Item = QueryId> + 'a {
        sorted_intersection(self.list(u), queries).filter(move |&q| !covered(picked, q))
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
        let live = self.uppers.iter().filter(|u| !u.dead).count();
        let mut uncovered = queries.len();
        if live == 0 || uncovered == 0 {
            return Election::NoRoute;
        }
        let mut picked: Vec<(NodeId, Vec<QueryId>)> = Vec::new();
        while uncovered > 0 {
            let (best, overlap) = self
                .uppers
                .iter()
                .filter(|u| !u.dead)
                .map(|u| {
                    let overlap = self.uncovered_overlap(u, queries.clone(), &picked);
                    (u, overlap.count())
                })
                .max_by(|&(a, oa), &(b, ob)| {
                    oa.cmp(&ob)
                        .then_with(|| {
                            a.link
                                .partial_cmp(&b.link)
                                .expect("link qualities are finite")
                        })
                        .then_with(|| b.node.0.cmp(&a.node.0)) // lower id wins ties
                })
                .expect("a live upper neighbour exists");
            let parent = best.node;
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

    #[test]
    fn records_match_the_per_neighbour_vectors_they_replaced() {
        // Replay one deterministic pseudo-random stream of has-data records
        // (any order, with repeats, lists growing and shrinking), aborts,
        // sends that fail, no-route resignations and frames heard through
        // the records and through one vector per neighbour fact, as the
        // state was kept before, and demand the same answer to every lookup
        // and the same list order after each step.
        let mut state = 0x5eed_0fda_6500_0001_u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let upper = [
            (NodeId(4), 0.9),
            (NodeId(9), 0.5),
            (NodeId(2), 0.5),
            (NodeId(7), 0.3),
        ];
        let mut d = DagState::new(upper);
        d.set_failure_detector(3);
        let mut has_data: Vec<Option<Vec<QueryId>>> = vec![None; upper.len()];
        let mut failures = [0u32; 4];
        let mut dead = [false; 4];
        let (mut longest, mut died) = (0, 0);
        for step in 0..20_000 {
            let i = (rand() % 5) as usize; // 4 is a stranger
            let node = upper.get(i).map_or(NodeId(99), |&(n, _)| n);
            match rand() % 8 {
                0..=3 => {
                    let len = rand() % 9;
                    let qids: Vec<QueryId> = (0..len).map(|_| QueryId(rand() % 12)).collect();
                    if let Some(known) = has_data.get_mut(i) {
                        let mut list = qids.clone();
                        list.sort_unstable();
                        list.dedup();
                        longest = longest.max(list.len());
                        *known = Some(list);
                    }
                    d.record_has_data(node, qids);
                }
                4 => {
                    let qid = QueryId(rand() % 12);
                    for known in has_data.iter_mut().flatten() {
                        known.retain(|&q| q != qid);
                    }
                    d.forget_query(qid);
                }
                5 => {
                    let crossed = i < 4 && {
                        failures[i] += 1;
                        failures[i] >= 3 && !std::mem::replace(&mut dead[i], true)
                    };
                    died += usize::from(crossed);
                    assert_eq!(d.record_send_failure(node), crossed, "step {step}");
                }
                6 => {
                    if i < 4 {
                        (failures[i], dead[i]) = (0, true);
                    }
                    d.record_no_route(node);
                }
                _ => {
                    if i < 4 {
                        (failures[i], dead[i]) = (0, false);
                    }
                    d.record_heard(node);
                }
            }
            let nodes: Vec<NodeId> = upper.iter().map(|&(n, _)| n).collect();
            assert_eq!(d.upper_neighbors().collect::<Vec<_>>(), nodes);
            for (j, &n) in nodes.iter().enumerate() {
                assert_eq!(
                    d.known_data(n),
                    has_data[j].as_deref(),
                    "{n} at step {step}"
                );
                assert_eq!(d.presumed_dead(n), dead[j], "{n} at step {step}");
            }
            assert_eq!(d.known_data(NodeId(99)), None);
            assert_eq!(d.is_orphaned(), dead.iter().all(|&x| x));
        }
        assert!(
            longest >= 7 && died > 40,
            "longest list {longest}, {died} deaths"
        );
    }

    /// Pins the two best-link tie rules. Some sensing nodes have two upper
    /// neighbours at the same best link quality; TinyDB's tree
    /// (`Topology::default_parent`, also TTMQO's route when
    /// `dynamic_parents` is off) takes the higher id, and `choose_parents`
    /// with no has-data knowledge takes the lower. They agree everywhere
    /// else. Unifying them moves simulated bits.
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
