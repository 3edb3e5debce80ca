//! Wire messages of the in-network tier.
//!
//! Unlike the baseline's strictly per-query traffic, TTMQO messages are
//! *shared*: one result frame can answer several queries at once, and query
//! floods piggyback has-data information that builds the routing DAG.
//!
//! Query-id lists inside result frames ([`RowEntry::qids`] and the
//! per-recipient lists of `assignments`) are **ascending and free of
//! duplicates**: the receive path intersects them by merge walks instead of
//! building a set per frame.

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
        /// The query being flooded.
        query: Query,
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
    /// Shared acquisition result: entries from one or more sources, each
    /// answering one or more queries, routed with split responsibility.
    SharedRows {
        /// Epoch start the rows belong to, ms.
        epoch_ms: u64,
        /// Source entries.
        entries: Vec<RowEntry>,
        /// Which recipient is responsible for which queries (multicast
        /// splitting; a single pair means plain unicast). One pair per
        /// recipient, its queries ascending.
        assignments: Vec<(NodeId, Vec<QueryId>)>,
    },
    /// Shared aggregation result: per-query partials for every due
    /// aggregation query, in one frame.
    SharedPartials {
        /// Epoch start the partials belong to, ms.
        epoch_ms: u64,
        /// Per-query partial state.
        entries: Vec<PartialEntry>,
        /// Which recipient is responsible for which queries.
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
    /// A neighbour's answer to a [`TtmqoPayload::QueryRequest`].
    QueryShare(Query),
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
                8 + 4 * query.predicates().len()
                    + if query.region().is_some() { 8 } else { 0 }
                    + 2 * has_data.len()
            }
            TtmqoPayload::Abort(_) => 2,
            TtmqoPayload::NoRoute => 1,
            TtmqoPayload::QueryRequest(_) => 2,
            TtmqoPayload::QueryShare(query) => {
                8 + 4 * query.predicates().len() + if query.region().is_some() { 8 } else { 0 }
            }
            TtmqoPayload::Wakeup { has_data } => 1 + 2 * has_data.len(),
            TtmqoPayload::SharedRows {
                entries,
                assignments,
                ..
            } => {
                2 + assignments
                    .iter()
                    .map(|(_, qs)| 2 + qs.len())
                    .sum::<usize>()
                    + entries
                        .iter()
                        .map(|e| 2 + e.qids.len() + 2 * e.readings.len())
                        .sum::<usize>()
            }
            TtmqoPayload::SharedPartials {
                entries,
                assignments,
                ..
            } => {
                // Deduplicate identical partial vectors: queries with equal
                // partial values share one copy of the value bytes.
                let mut distinct: Vec<&Vec<Option<PartialAgg>>> = Vec::new();
                let mut value_bytes = 0;
                for e in entries {
                    if !distinct.iter().any(|d| **d == e.partials) {
                        value_bytes += e
                            .partials
                            .iter()
                            .flatten()
                            .map(|p| p.op().wire_size())
                            .sum::<usize>();
                        distinct.push(&e.partials);
                    }
                }
                2 + assignments
                    .iter()
                    .map(|(_, qs)| 2 + qs.len())
                    .sum::<usize>()
                    + 2 * entries.len()
                    + value_bytes
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_query::{parse_query, AggOp, Attribute};

    #[test]
    fn shared_rows_size_scales_with_entries() {
        let mut readings = Readings::new();
        readings.set(Attribute::Light, 1.0);
        let entry = RowEntry {
            node: 1,
            qids: vec![QueryId(1), QueryId(2)],
            readings,
        };
        let one = TtmqoPayload::SharedRows {
            epoch_ms: 0,
            entries: vec![entry.clone()],
            assignments: vec![(NodeId(0), vec![QueryId(1), QueryId(2)])],
        };
        let two = TtmqoPayload::SharedRows {
            epoch_ms: 0,
            entries: vec![entry.clone(), entry],
            assignments: vec![(NodeId(0), vec![QueryId(1), QueryId(2)])],
        };
        assert!(two.wire_size() > one.wire_size());
        // One shared frame is smaller than two single-query frames would be:
        // entry bytes counted once, not once per query.
        assert!(one.wire_size() < 2 * (2 + 4 + 2 + 1 + 2));
    }

    #[test]
    fn identical_partials_share_value_bytes() {
        let p = vec![Some(AggOp::Max.seed(10.0))];
        let same = TtmqoPayload::SharedPartials {
            epoch_ms: 0,
            entries: vec![
                PartialEntry {
                    qid: QueryId(1),
                    partials: p.clone(),
                },
                PartialEntry {
                    qid: QueryId(2),
                    partials: p.clone(),
                },
            ],
            assignments: vec![(NodeId(0), vec![QueryId(1), QueryId(2)])],
        };
        let different = TtmqoPayload::SharedPartials {
            epoch_ms: 0,
            entries: vec![
                PartialEntry {
                    qid: QueryId(1),
                    partials: p,
                },
                PartialEntry {
                    qid: QueryId(2),
                    partials: vec![Some(AggOp::Max.seed(99.0))],
                },
            ],
            assignments: vec![(NodeId(0), vec![QueryId(1), QueryId(2)])],
        };
        assert!(same.wire_size() < different.wire_size());
    }

    #[test]
    fn flood_size_includes_piggyback() {
        let q = parse_query(QueryId(1), "select light epoch duration 2048").unwrap();
        let bare = TtmqoPayload::Query {
            query: q.clone(),
            has_data: vec![],
        };
        let loaded = TtmqoPayload::Query {
            query: q,
            has_data: vec![QueryId(1), QueryId(2)],
        };
        assert_eq!(loaded.wire_size() - bare.wire_size(), 4);
    }
}
