//! Property tests for the query-aware DAG parent selection.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use ttmqo_core::{DagState, Election};
use ttmqo_query::QueryId;
use ttmqo_sim::NodeId;

prop_compose! {
    fn arb_dag()(
        n_upper in 1usize..6,
        links in prop::collection::vec(0.01f64..1.0, 6),
        knowledge in prop::collection::vec(
            prop::collection::btree_set(0u64..8, 0..5), 6),
    ) -> DagState {
        let upper: Vec<(NodeId, f64)> = (0..n_upper)
            .map(|i| (NodeId(i as u16 + 1), links[i]))
            .collect();
        let mut dag = DagState::new(upper);
        for (i, qids) in knowledge.iter().take(n_upper).enumerate() {
            dag.record_has_data(
                NodeId(i as u16 + 1),
                qids.iter().map(|&q| QueryId(q)),
            );
        }
        dag
    }
}

/// A message's query set the way the in-network tier carries it: ascending,
/// no duplicates.
fn arb_queries() -> impl Strategy<Value = Vec<QueryId>> {
    prop::collection::btree_set((0u64..8).prop_map(QueryId), 1..6)
        .prop_map(|set| set.into_iter().collect())
}

/// The election in the shape the properties read: `(parent, share)` pairs,
/// a one-parent outcome being that parent with every query.
fn elect(dag: &DagState, queries: &[QueryId]) -> Vec<(NodeId, Vec<QueryId>)> {
    match dag.choose_parents(queries.iter().copied()) {
        Election::NoRoute => Vec::new(),
        Election::One(parent) => vec![(parent, queries.to_vec())],
        Election::Split(split) => split,
    }
}

/// The greedy set cover as it was written before the DAG state went dense:
/// a `BTreeSet` intersection per neighbour per round, hash-free here only
/// because the maps are ordered. Kept as the reference `choose_parents`
/// must reproduce pick for pick.
#[derive(Debug)]
struct ReferenceDag {
    upper: Vec<NodeId>,
    link: BTreeMap<NodeId, f64>,
    has_data: BTreeMap<NodeId, BTreeSet<QueryId>>,
    dead: BTreeSet<NodeId>,
}

impl ReferenceDag {
    fn choose_parents(&self, queries: &BTreeSet<QueryId>) -> Vec<(NodeId, BTreeSet<QueryId>)> {
        let live: Vec<NodeId> = self
            .upper
            .iter()
            .copied()
            .filter(|n| !self.dead.contains(n))
            .collect();
        if live.is_empty() || queries.is_empty() {
            return Vec::new();
        }
        let mut assignment: BTreeMap<NodeId, BTreeSet<QueryId>> = BTreeMap::new();
        let mut remaining: BTreeSet<QueryId> = queries.clone();

        while !remaining.is_empty() {
            let (best, overlap) = live
                .iter()
                .map(|&n| {
                    let overlap: BTreeSet<QueryId> = self
                        .has_data
                        .get(&n)
                        .map(|d| d.intersection(&remaining).copied().collect())
                        .unwrap_or_default();
                    (n, overlap)
                })
                .max_by(|(a, oa), (b, ob)| {
                    oa.len()
                        .cmp(&ob.len())
                        .then_with(|| {
                            self.link[a]
                                .partial_cmp(&self.link[b])
                                .expect("link qualities are finite")
                        })
                        .then_with(|| b.0.cmp(&a.0)) // lower id wins ties
                })
                .expect("live list is non-empty");

            if overlap.is_empty() {
                // Nobody has data for what's left: hand it to the best link.
                let fallback = live
                    .iter()
                    .copied()
                    .max_by(|a, b| {
                        self.link[a]
                            .partial_cmp(&self.link[b])
                            .expect("link qualities are finite")
                            .then_with(|| b.0.cmp(&a.0))
                    })
                    .expect("live list is non-empty");
                assignment
                    .entry(fallback)
                    .or_default()
                    .extend(remaining.iter().copied());
                remaining.clear();
            } else {
                for q in &overlap {
                    remaining.remove(q);
                }
                assignment.entry(best).or_default().extend(overlap);
            }
        }
        assignment.into_iter().collect()
    }
}

/// One random DAG in both representations, built from the same inputs:
/// 1–6 upper neighbours with distinct ids in no particular order, link
/// qualities from three values (so ties are common), per-neighbour knowledge
/// that is unknown, empty, or a list in any order with repeats, and a dead
/// subset.
#[derive(Debug)]
struct Scenario {
    dag: DagState,
    reference: ReferenceDag,
}

prop_compose! {
    fn arb_scenario()(
        n_upper in 1usize..7,
        first_id in 0u16..7,
        links in prop::collection::vec(1u32..4, 6),
        knowledge in prop::collection::vec(
            (0u8..4, prop::collection::vec(0u64..8, 0..7)), 6),
        dead in prop::collection::vec(0u8..3, 6),
    ) -> Scenario {
        // Stepping by 5 modulo 7 visits seven distinct ids out of order.
        let upper: Vec<(NodeId, f64)> = (0..n_upper)
            .map(|i| (NodeId((first_id + 5 * i as u16) % 7 + 1), links[i] as f64 / 4.0))
            .collect();
        let mut dag = DagState::new(upper.clone());
        dag.set_failure_detector(1);
        let mut reference = ReferenceDag {
            upper: upper.iter().map(|&(n, _)| n).collect(),
            link: upper.iter().copied().collect(),
            has_data: BTreeMap::new(),
            dead: BTreeSet::new(),
        };
        for (i, &(n, _)) in upper.iter().enumerate() {
            let (kind, ref qids) = knowledge[i];
            // kind 0: never told; 1: told "nothing"; else the raw list.
            if kind > 0 {
                let qids = if kind == 1 { &[][..] } else { &qids[..] };
                dag.record_has_data(n, qids.iter().map(|&q| QueryId(q)));
                reference.has_data.insert(n, qids.iter().map(|&q| QueryId(q)).collect());
            }
            if dead[i] == 0 {
                dag.record_no_route(n);
                reference.dead.insert(n);
            }
        }
        Scenario { dag, reference }
    }
}

proptest! {
    /// Every query is assigned to exactly one parent — the partition covers
    /// the whole set with no overlap.
    #[test]
    fn assignment_partitions_the_query_set(dag in arb_dag(), queries in arb_queries()) {
        let parents = elect(&dag, &queries);
        prop_assert!(!parents.is_empty(), "non-empty upper set always routes");
        let mut seen: BTreeSet<QueryId> = BTreeSet::new();
        for (_, qs) in &parents {
            for q in qs {
                prop_assert!(seen.insert(*q), "query {q} assigned twice");
            }
        }
        prop_assert_eq!(seen.into_iter().collect::<Vec<_>>(), queries);
    }

    /// Chosen parents are always actual upper-level neighbours.
    #[test]
    fn parents_come_from_the_upper_set(dag in arb_dag(), queries in arb_queries()) {
        let upper: BTreeSet<NodeId> = dag.upper_neighbors().collect();
        for (parent, _) in elect(&dag, &queries) {
            prop_assert!(upper.contains(&parent));
        }
    }

    /// Selection is deterministic: same state, same choice.
    #[test]
    fn selection_is_deterministic(dag in arb_dag(), queries in arb_queries()) {
        let again = dag.choose_parents(queries.iter().copied());
        prop_assert_eq!(dag.choose_parents(queries.iter().copied()), again);
    }

    /// A parent known to hold data for every query wins outright (unicast).
    #[test]
    fn full_knowledge_yields_unicast(queries in arb_queries(), links in prop::collection::vec(0.01f64..1.0, 3)) {
        let mut dag = DagState::new(vec![
            (NodeId(1), links[0]),
            (NodeId(2), links[1]),
            (NodeId(3), links[2]),
        ]);
        dag.record_has_data(NodeId(2), queries.iter().copied());
        prop_assert_eq!(dag.choose_parents(queries.iter().copied()), Election::One(NodeId(2)));
    }

    /// The counting, set-free election picks exactly what the `BTreeSet`
    /// greedy set cover picks — same parents, same split, same tie-breaks
    /// (overlap, then link quality, then lower id). Where the reference ends
    /// with a single `(p, queries)` pair the election says `One(p)` — the
    /// early return of its first round included, which in a release build
    /// nothing else checks — and where it splits, the shares match pick for
    /// pick in the frame's shape: parents ascending, each share ascending.
    #[test]
    fn choose_parents_matches_the_set_based_reference(
        scenario in arb_scenario(),
        queries in arb_queries(),
    ) {
        let expected: Vec<(NodeId, Vec<QueryId>)> = scenario
            .reference
            .choose_parents(&queries.iter().copied().collect())
            .into_iter()
            .map(|(n, qs)| (n, qs.into_iter().collect()))
            .collect();
        let expected = match expected.as_slice() {
            [] => Election::NoRoute,
            [(only, all)] => {
                prop_assert_eq!(all, &queries);
                Election::One(*only)
            }
            _ => Election::Split(expected),
        };
        prop_assert_eq!(scenario.dag.choose_parents(queries.iter().copied()), expected);
    }

    /// `record_has_data` has set semantics whatever the input's order and
    /// repeats: the stored list is the sorted, deduplicated input, a later
    /// record replaces an earlier one, and strangers are ignored.
    #[test]
    fn record_has_data_keeps_sorted_unique_lists(
        first in prop::collection::vec(0u64..8, 0..9),
        second in prop::collection::vec(0u64..8, 0..9),
    ) {
        let mut dag = DagState::new(vec![(NodeId(4), 0.5), (NodeId(2), 0.5)]);
        prop_assert_eq!(dag.known_data(NodeId(2)), None);
        for raw in [&first, &second] {
            dag.record_has_data(NodeId(2), raw.iter().map(|&q| QueryId(q)));
            dag.record_has_data(NodeId(9), raw.iter().map(|&q| QueryId(q)));
            let as_set: Vec<QueryId> = raw
                .iter()
                .map(|&q| QueryId(q))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            prop_assert_eq!(dag.known_data(NodeId(2)), Some(&as_set[..]));
            prop_assert_eq!(dag.known_data(NodeId(4)), None);
            prop_assert_eq!(dag.known_data(NodeId(9)), None);
        }
    }
}
