//! Which nodes can ever answer a query, from their ids alone.
//!
//! §3.2.2 of the TTMQO paper: "If the query is a region-based query or a
//! node-id based query, the set of answer nodes are known in advance, and
//! more efficient techniques such as SRT can be used [instead of flooding]."
//! Both tiers here flood, as the paper's evaluation does, and no workload
//! poses a region, so what is kept of TinyDB's Semantic Routing Tree is the
//! check it rests on — whether a node's own id satisfies a `nodeid`
//! predicate — which the static answer-set estimate reads.

use ttmqo_query::{Attribute, Query};
use ttmqo_sim::{NodeId, Topology};

/// The static answer-set check. It holds nothing: a node's id is all it
/// reads. It stays a type, built from a topology, because the repo
/// benchmark calls [`Srt::build`] and [`Srt::node_matches`]; it can become a
/// free function when the benchmark may be edited.
#[derive(Debug, Clone, Copy)]
pub struct Srt;

impl Srt {
    /// The check for `topo`'s nodes (it reads nothing of `topo`).
    pub fn build(_topo: &Topology) -> Self {
        Srt
    }

    /// Whether `node` itself can ever produce data for `query`: its own id
    /// satisfies any `nodeid` predicate.
    pub fn node_matches(&self, node: NodeId, query: &Query) -> bool {
        match query.predicates().range(Attribute::NodeId) {
            Some(range) => range.matches(node.0 as f64),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_query::{parse_query, QueryId};

    fn q(text: &str) -> Query {
        parse_query(QueryId(1), text).unwrap()
    }

    #[test]
    fn node_matches_respects_the_id_predicate() {
        let topo = Topology::grid(4).unwrap();
        let srt = Srt::build(&topo);
        let query = q("select light where 4 <= nodeid <= 6 epoch duration 2048");
        assert!(!srt.node_matches(NodeId(3), &query));
        assert!(srt.node_matches(NodeId(4), &query));
        assert!(srt.node_matches(NodeId(6), &query));
        assert!(!srt.node_matches(NodeId(7), &query));
        let free = q("select light epoch duration 2048");
        assert!(srt.node_matches(NodeId(3), &free));
    }
}
