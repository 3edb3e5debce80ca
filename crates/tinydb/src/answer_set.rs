//! Which nodes can ever answer a query, from their ids and positions alone.
//!
//! §3.2.2 of the TTMQO paper: "If the query is a region-based query or a
//! node-id based query, the set of answer nodes are known in advance, and
//! more efficient techniques such as SRT can be used [instead of flooding]."
//! Both tiers here flood, as the paper's evaluation does; what is kept of
//! TinyDB's Semantic Routing Tree is the check it rests on — whether a
//! node's own id satisfies a `nodeid` predicate and its position a region
//! clause — which the static answer-set estimate reads.

use ttmqo_query::{Attribute, Query};
use ttmqo_sim::{NodeId, Topology};

/// Every node's position, for the static answer-set check.
#[derive(Debug, Clone)]
pub struct Srt {
    positions: Vec<(f64, f64)>,
}

impl Srt {
    /// Reads the topology's node positions.
    pub fn build(topo: &Topology) -> Self {
        let positions = topo
            .nodes()
            .map(|node| {
                let p = topo.position(node);
                (p.x, p.y)
            })
            .collect();
        Srt { positions }
    }

    /// Whether `node` itself can ever produce data for `query` (its own id
    /// satisfies any `nodeid` predicate and its position any region clause).
    pub fn node_matches(&self, node: NodeId, query: &Query) -> bool {
        if let Some(region) = query.region() {
            let (x, y) = self.positions[node.index()];
            if !region.contains(x, y) {
                return false;
            }
        }
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

    #[test]
    fn region_and_id_predicates_match_conjunctively() {
        let topo = Topology::grid(4).unwrap();
        let srt = Srt::build(&topo);
        // Node 15 sits at (60, 60): inside the far corner, outside the near.
        let corner = q("select light where region(55, 55, 60, 60) epoch duration 2048");
        assert!(srt.node_matches(NodeId(15), &corner));
        assert!(!srt.node_matches(NodeId(14), &corner));
        // Its id matches but its position does not: it never answers.
        let query =
            q("select light where nodeid = 15 and region(0, 0, 10, 10) epoch duration 2048");
        assert!(!srt.node_matches(NodeId(15), &query));
    }
}
