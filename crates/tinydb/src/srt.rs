//! Semantic Routing Tree (SRT) — TinyDB's dissemination pruning.
//!
//! §3.2.2 of the TTMQO paper: "If the query is a region-based query or a
//! node-id based query, the set of answer nodes are known in advance, and
//! more efficient techniques such as SRT can be used [instead of flooding]."
//!
//! The classic SRT keeps, at every node, the interval of attribute values
//! (here: node ids) present in its routing subtree. A query carrying a
//! `nodeid` range predicate is forwarded into a subtree only if the subtree's
//! interval intersects the predicate. Intervals over-approximate the id set,
//! so pruning can only suppress provably irrelevant forwards — never a
//! relevant one: every matching node's ancestor chain (whose subtrees all
//! contain it) keeps forwarding.

use ttmqo_query::{Attribute, Query, Region};
use ttmqo_sim::{NodeId, Topology};

/// Per-node `[min, max]` id intervals and spatial bounding boxes of the fixed
/// routing tree's subtrees.
#[derive(Debug, Clone)]
pub struct Srt {
    ranges: Vec<(u16, u16)>,
    bboxes: Vec<Region>,
    positions: Vec<(f64, f64)>,
}

impl Srt {
    /// Builds the SRT over the topology's fixed (link-quality) routing tree.
    pub fn build(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut ranges: Vec<(u16, u16)> = (0..n as u16).map(|i| (i, i)).collect();
        let mut bboxes: Vec<Region> = topo
            .nodes()
            .map(|node| {
                let p = topo.position(node);
                Region::new(p.x, p.y, p.x, p.y).expect("point region")
            })
            .collect();
        // Children ordered by decreasing level so each node's interval is
        // complete before its parent folds it in.
        let mut order: Vec<NodeId> = topo.nodes().collect();
        order.sort_by_key(|&node| std::cmp::Reverse(topo.level(node)));
        for node in order {
            if let Some(parent) = topo.default_parent(node) {
                let (clo, chi) = ranges[node.index()];
                let r = &mut ranges[parent.index()];
                r.0 = r.0.min(clo);
                r.1 = r.1.max(chi);
                let child_box = bboxes[node.index()];
                let parent_box = &mut bboxes[parent.index()];
                *parent_box = parent_box.union_cover(&child_box);
            }
        }
        let positions = topo
            .nodes()
            .map(|node| {
                let p = topo.position(node);
                (p.x, p.y)
            })
            .collect();
        Srt {
            ranges,
            bboxes,
            positions,
        }
    }

    /// The id interval covered by `node`'s subtree (itself included).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn subtree_range(&self, node: NodeId) -> (u16, u16) {
        self.ranges[node.index()]
    }

    /// The spatial bounding box of `node`'s subtree (itself included).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn subtree_bbox(&self, node: NodeId) -> Region {
        self.bboxes[node.index()]
    }

    /// Whether `node` should forward the dissemination of `query`.
    ///
    /// `true` unless the query carries a `nodeid` range predicate that misses
    /// the node's whole subtree interval, or a region clause disjoint from
    /// the subtree's spatial bounding box.
    pub fn forwards(&self, node: NodeId, query: &Query) -> bool {
        if let Some(region) = query.region() {
            if !region.intersects(&self.bboxes[node.index()]) {
                return false;
            }
        }
        let Some(range) = query.predicates().range(Attribute::NodeId) else {
            return true;
        };
        let (lo, hi) = (range.min(), range.max());
        let (smin, smax) = self.ranges[node.index()];
        hi >= smin as f64 && lo <= smax as f64
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
    fn subtree_ranges_cover_descendants() {
        let topo = Topology::grid(4).unwrap();
        let srt = Srt::build(&topo);
        // The base station's subtree is the whole network.
        assert_eq!(srt.subtree_range(NodeId(0)), (0, 15));
        // Every node's interval contains its own id.
        for node in topo.nodes() {
            let (lo, hi) = srt.subtree_range(node);
            assert!(lo <= node.0 && node.0 <= hi);
        }
        // A parent's interval contains each child's interval.
        for node in topo.nodes() {
            if let Some(parent) = topo.default_parent(node) {
                let (clo, chi) = srt.subtree_range(node);
                let (plo, phi) = srt.subtree_range(parent);
                assert!(plo <= clo && phi >= chi, "{node} ⊄ {parent}");
            }
        }
    }

    #[test]
    fn queries_without_nodeid_predicate_always_forward() {
        let topo = Topology::grid(4).unwrap();
        let srt = Srt::build(&topo);
        let query = q("select light where 100<light<300 epoch duration 2048");
        for node in topo.nodes() {
            assert!(srt.forwards(node, &query));
        }
    }

    #[test]
    fn disjoint_nodeid_range_prunes_leaf_subtrees() {
        let topo = Topology::grid(4).unwrap();
        let srt = Srt::build(&topo);
        let query = q("select light where nodeid = 3 epoch duration 2048");
        // The base station always forwards (its subtree holds everything).
        assert!(srt.forwards(NodeId(0), &query));
        // A leaf whose id (and subtree) is far from 3 does not.
        let pruned = topo.nodes().filter(|&n| !srt.forwards(n, &query)).count();
        assert!(pruned > 0, "some subtree must be prunable");
        // Every ancestor of node 3 still forwards.
        let mut node = NodeId(3);
        while let Some(parent) = topo.default_parent(node) {
            assert!(
                srt.forwards(parent, &query),
                "ancestor {parent} must forward"
            );
            node = parent;
        }
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

#[cfg(test)]
mod bbox_tests {
    use super::*;
    use ttmqo_query::{parse_query, QueryId};

    #[test]
    fn subtree_bboxes_nest_along_the_tree() {
        let topo = Topology::grid(4).unwrap();
        let srt = Srt::build(&topo);
        for node in topo.nodes() {
            let own = topo.position(node);
            let bbox = srt.subtree_bbox(node);
            assert!(bbox.contains(own.x, own.y), "{node}'s bbox misses itself");
            if let Some(parent) = topo.default_parent(node) {
                assert!(
                    srt.subtree_bbox(parent).contains_region(&bbox),
                    "{parent}'s bbox must contain {node}'s"
                );
            }
        }
    }

    #[test]
    fn region_disjoint_from_subtree_is_pruned() {
        let topo = Topology::grid(4).unwrap();
        let srt = Srt::build(&topo);
        // A region containing nothing but the far SE corner.
        let query = parse_query(
            QueryId(1),
            "select light where region(55, 55, 60, 60) epoch duration 2048",
        )
        .unwrap();
        // The base station's subtree covers everything, so it forwards.
        assert!(srt.forwards(NodeId(0), &query));
        // At least one node's subtree is entirely north-west of the region.
        let pruned = topo.nodes().filter(|&n| !srt.forwards(n, &query)).count();
        assert!(pruned > 0, "some subtree must be outside the region");
        // Node 15 at (60, 60) matches and all its ancestors forward.
        assert!(srt.node_matches(NodeId(15), &query));
        let mut node = NodeId(15);
        while let Some(parent) = topo.default_parent(node) {
            assert!(srt.forwards(parent, &query));
            node = parent;
        }
    }

    #[test]
    fn region_and_id_predicates_prune_conjunctively() {
        let topo = Topology::grid(4).unwrap();
        let srt = Srt::build(&topo);
        let query = parse_query(
            QueryId(1),
            "select light where nodeid = 15 and region(0, 0, 10, 10) epoch duration 2048",
        )
        .unwrap();
        // Node 15's position (60, 60) is outside the region: it never matches
        // even though its id does.
        assert!(!srt.node_matches(NodeId(15), &query));
    }
}
