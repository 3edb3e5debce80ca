//! Wire messages of the in-network tier.
//!
//! Unlike the baseline's strictly per-query traffic, TTMQO messages are
//! *shared*: one result frame can answer several queries at once, and query
//! floods piggyback has-data information that builds the routing DAG.
//!
//! Query-id lists inside result frames ([`RowEntry::qids`] and every
//! explicit per-recipient list of `assignments`) are **ascending and free of
//! duplicates**: the receive path walks them in place instead of building a
//! set per frame.
//!
//! A result frame's `assignments` exist for §3.2.2's multicast — "if
//! multiple neighbors are chosen (each is responsible for forwarding message
//! for a subset of queries), one multicast message is required". A frame to
//! one parent carries an **empty** list: the one addressee is responsible
//! for every query the frame serves, which `Destination::Unicast` already
//! says. It is charged the bytes of the single `(recipient, queries)` pair it
//! stands for, so airtime does not depend on the representation.

use std::sync::Arc;
use ttmqo_query::{PartialAgg, Query, QueryId, Readings};
use ttmqo_sim::NodeId;

/// One source node's contribution to a shared acquisition message.
#[derive(Debug, Clone, PartialEq)]
pub struct RowEntry {
    /// The producing node.
    pub node: u16,
    /// Queries this entry answers, ascending, no duplicates.
    pub qids: Vec<QueryId>,
    /// The union of attributes those queries request from this node.
    pub readings: Readings,
}

/// Partial aggregate state for one query inside a shared aggregation message.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialEntry {
    /// The aggregation query.
    pub qid: QueryId,
    /// One partial per `(op, attr)` of the query's aggregate list.
    pub partials: Vec<Option<PartialAgg>>,
}

/// Radio payloads of the TTMQO in-network protocol.
#[derive(Debug, Clone)]
pub enum TtmqoPayload {
    /// Query dissemination flood, piggybacking the sender's has-data set
    /// ("node x checks whether it has the data the query retrieves, and
    /// piggybacks this information down", §3.2.2).
    Query {
        /// The query being flooded: the allocation the base station made
        /// when it was posed, shared by every frame and installed copy.
        query: Arc<Query>,
        /// All queries the *sender* currently has data for.
        has_data: Vec<QueryId>,
    },
    /// Query abortion flood.
    Abort(QueryId),
    /// One-hop wake-up announcement from a node whose data now satisfies
    /// queries again.
    Wakeup {
        /// Queries the sender has data for.
        has_data: Vec<QueryId>,
    },
    /// Shared acquisition result: one source node's readings, answering one
    /// or more queries. Rows of different sources are never merged into one
    /// frame — an origin sends its own entry and a relay passes on the entry
    /// it was handed (all of it, or its share of the queries) — so the frame
    /// holds the entry itself, not a list of them.
    SharedRows {
        /// Epoch start the row belongs to, ms.
        epoch_ms: u64,
        /// The source entry.
        entry: RowEntry,
        /// Split responsibility of a multicast frame: one pair per
        /// recipient, recipients ascending, their lists ascending and
        /// partitioning `entry.qids`. **Empty on a unicast frame**: the one
        /// addressee is responsible for all of `entry.qids`.
        assignments: Vec<(NodeId, Vec<QueryId>)>,
    },
    /// Shared aggregation result: per-query partials for every due
    /// aggregation query, in one frame.
    SharedPartials {
        /// Epoch start the partials belong to, ms.
        epoch_ms: u64,
        /// Per-query partial state, ascending by query id.
        entries: Vec<PartialEntry>,
        /// Split responsibility of a multicast frame, as in
        /// [`TtmqoPayload::SharedRows`]; **empty on a unicast frame**, whose
        /// addressee is responsible for every entry.
        assignments: Vec<(NodeId, Vec<QueryId>)>,
    },
    /// An orphaned node's resignation: it is alive but has no route toward
    /// the base station (every upper neighbour presumed dead), so lower
    /// neighbours must stop electing it as a parent until they hear result
    /// traffic from it again. Without this announcement an orphaned node is
    /// a silent black hole — it still acknowledges its children's unicast
    /// frames while dropping their data (failure recovery extension).
    NoRoute,
    /// A rebooted node heard traffic for a query it does not know and asks
    /// its neighbours for the definition (failure recovery).
    QueryRequest(QueryId),
    /// A neighbour's answer to a [`TtmqoPayload::QueryRequest`]: its own
    /// installed copy, shared.
    QueryShare(Arc<Query>),
}

impl TtmqoPayload {
    /// Application payload length in bytes.
    ///
    /// Shared messages are longer than single-query ones — the paper's "the
    /// length of a shared message may be larger, but it is cheaper to
    /// transmit one shared message than multiple query result messages".
    /// Queries sharing identical partial aggregate values share the bytes of
    /// that value ("one data message can be packed to share among all of the
    /// queries whose partial aggregation value are the same").
    pub fn wire_size(&self) -> usize {
        match self {
            TtmqoPayload::Query { query, has_data } => {
                8 + 4 * query.predicates().len() + 2 * has_data.len()
            }
            TtmqoPayload::Abort(_) => 2,
            TtmqoPayload::NoRoute => 1,
            TtmqoPayload::QueryRequest(_) => 2,
            TtmqoPayload::QueryShare(query) => 8 + 4 * query.predicates().len(),
            TtmqoPayload::Wakeup { has_data } => 1 + 2 * has_data.len(),
            TtmqoPayload::SharedRows {
                entry, assignments, ..
            } => {
                2 + assignment_bytes(assignments, entry.qids.len())
                    + (2 + entry.qids.len() + 2 * entry.readings.len())
            }
            TtmqoPayload::SharedPartials {
                entries,
                assignments,
                ..
            } => {
                // Queries with equal partial values share one copy of the
                // value bytes: an entry pays for its values only if no
                // earlier entry carries the same ones.
                let value_bytes: usize = entries
                    .iter()
                    .enumerate()
                    .filter(|&(i, e)| !entries[..i].iter().any(|d| d.partials == e.partials))
                    .flat_map(|(_, e)| e.partials.iter().flatten())
                    .map(|p| p.op().wire_size())
                    .sum();
                2 + assignment_bytes(assignments, entries.len()) + 2 * entries.len() + value_bytes
            }
        }
    }
}

/// Bytes of a result frame's responsibility lists: two per recipient plus one
/// per query id. The empty list of a unicast frame costs what the one pair it
/// stands for would — the addressee and all `served` queries.
fn assignment_bytes(assignments: &[(NodeId, Vec<QueryId>)], served: usize) -> usize {
    if assignments.is_empty() {
        2 + served
    } else {
        assignments.iter().map(|(_, qs)| 2 + qs.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_query::{parse_query, AggOp, Attribute};

    fn qs(ids: std::ops::RangeInclusive<u64>) -> Vec<QueryId> {
        ids.map(QueryId).collect()
    }

    fn rows(qids: Vec<QueryId>, assignments: Vec<(NodeId, Vec<QueryId>)>) -> TtmqoPayload {
        let mut readings = Readings::new();
        readings.set(Attribute::Light, 1.0);
        TtmqoPayload::SharedRows {
            epoch_ms: 0,
            entry: RowEntry {
                node: 1,
                qids,
                readings,
            },
            assignments,
        }
    }

    fn partials(values: &[f64], assignments: Vec<(NodeId, Vec<QueryId>)>) -> TtmqoPayload {
        TtmqoPayload::SharedPartials {
            epoch_ms: 0,
            entries: (1..)
                .zip(values)
                .map(|(q, &v)| PartialEntry {
                    qid: QueryId(q),
                    partials: vec![Some(AggOp::Max.seed(v))],
                })
                .collect(),
            assignments,
        }
    }

    #[test]
    fn shared_rows_size_scales_with_queries_not_frames() {
        let one = rows(qs(1..=1), vec![]);
        let two = rows(qs(1..=2), vec![]);
        // A second query adds its id to the entry and to the addressee's
        // responsibility, nothing else.
        assert_eq!(two.wire_size(), one.wire_size() + 2);
        // One shared frame is smaller than two single-query frames would be:
        // entry bytes counted once, not once per query.
        assert!(two.wire_size() < 2 * one.wire_size());
    }

    #[test]
    fn a_unicast_frame_costs_what_its_explicit_pair_would() {
        for n in 1..=6 {
            let all = qs(1..=n);
            let values: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
            let explicit = vec![(NodeId(7), all.clone())];
            assert_eq!(
                rows(all.clone(), vec![]).wire_size(),
                rows(all.clone(), explicit.clone()).wire_size(),
                "rows, {n} queries"
            );
            assert_eq!(
                partials(&values, vec![]).wire_size(),
                partials(&values, explicit).wire_size(),
                "partials, {n} queries"
            );
        }
    }

    #[test]
    fn a_split_costs_two_bytes_per_extra_recipient() {
        let split = vec![(NodeId(3), qs(1..=2)), (NodeId(4), qs(3..=3))];
        assert_eq!(
            rows(qs(1..=3), split.clone()).wire_size(),
            rows(qs(1..=3), vec![]).wire_size() + 2
        );
        assert_eq!(
            partials(&[1.0, 2.0, 3.0], split).wire_size(),
            partials(&[1.0, 2.0, 3.0], vec![]).wire_size() + 2
        );
    }

    #[test]
    fn identical_partials_share_value_bytes() {
        let same = partials(&[10.0, 10.0], vec![]);
        let different = partials(&[10.0, 99.0], vec![]);
        assert!(same.wire_size() < different.wire_size());
        // Equal values are found wherever they sit in the frame: a third
        // query repeating the first one's adds its two ids and no value.
        assert_eq!(
            partials(&[10.0, 99.0, 10.0], vec![]).wire_size(),
            different.wire_size() + 3
        );
    }

    #[test]
    fn flood_size_includes_piggyback() {
        let q = Arc::new(parse_query(QueryId(1), "select light epoch duration 2048").unwrap());
        let bare = TtmqoPayload::Query {
            query: Arc::clone(&q),
            has_data: vec![],
        };
        let loaded = TtmqoPayload::Query {
            query: q,
            has_data: vec![QueryId(1), QueryId(2)],
        };
        assert_eq!(loaded.wire_size() - bare.wire_size(), 4);
    }
}
