//! Network topology: node placement, radio connectivity, levels.
//!
//! The paper deploys nodes "uniformly in an n×n two-dimensional grid, with the
//! base station node 0 at the upper left corner. The radio transmission radius
//! is set to be 50 feet, while the grid spacing is 20 feet." [`Topology::grid`]
//! reproduces exactly that; arbitrary placements are supported through
//! [`Topology::from_positions`].

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a node in the simulated network.
///
/// Node 0 is, by convention, the base station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The base station's id.
    pub const BASE_STATION: NodeId = NodeId(0);

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A 2-D position in feet.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// Horizontal coordinate, feet.
    pub x: f64,
    /// Vertical coordinate, feet.
    pub y: f64,
}

impl Position {
    /// Euclidean distance to another position, feet.
    pub fn distance(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Error constructing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No nodes were given.
    Empty,
    /// More nodes than `NodeId` can address: the id space is `u16`, so a
    /// topology holds at most 65,536 nodes (node 65,537 and beyond have no
    /// id). A 256×256 grid is exactly the cap.
    TooManyNodes(usize),
    /// The radio range is not positive and finite.
    InvalidRange,
    /// This node's position has an infinite or NaN coordinate.
    NonFinitePosition(u16),
    /// Some node cannot reach the base station over any number of hops.
    Disconnected(u16),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => f.write_str("topology has no nodes"),
            TopologyError::TooManyNodes(n) => write!(f, "too many nodes: {n}"),
            TopologyError::InvalidRange => f.write_str("radio range must be positive and finite"),
            TopologyError::NonFinitePosition(id) => write!(f, "node n{id} has no finite position"),
            TopologyError::Disconnected(id) => {
                write!(f, "node n{id} cannot reach the base station")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// An immutable network layout: positions, radio range and derived
/// connectivity (neighbour lists and hop levels from the base station).
///
/// Holds at most 65,536 nodes (the `u16` id space; a 256×256 grid fits
/// exactly). Construction is near-linear in the node count for
/// bounded-density deployments; the neighbour lists are stored back to back.
///
/// # Examples
///
/// ```
/// use ttmqo_sim::{Topology, NodeId};
///
/// // The paper's 4×4 deployment: 20 ft spacing, 50 ft radio range.
/// let topo = Topology::grid(4)?;
/// assert_eq!(topo.node_count(), 16);
/// assert_eq!(topo.level(NodeId(0)), 0);
/// assert!(topo.neighbors(NodeId(0)).len() >= 3);
/// # Ok::<(), ttmqo_sim::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Position>,
    radio_range: f64,
    /// Every node's neighbour list, in node order, each ascending by id.
    adjacency: Vec<NodeId>,
    /// Node `i`'s list is `adjacency[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    levels: Vec<u32>,
    /// The largest of `levels`, fixed at construction like the levels are.
    max_level: u32,
}

/// The nodes counting-sorted, ascending by id, into a dense row-major grid
/// of square buckets whose side is a little over the radio range (so nodes
/// in range share or abut a bucket, rounding included) and at least
/// `extent / √n` (so there are O(n) buckets at any spread).
struct Buckets {
    cols: usize,
    rows: usize,
    /// Each node's bucket, `row * cols + col`.
    bucket_of: Vec<u32>,
    /// Bucket `b` holds `order[bounds[b]..bounds[b + 1]]`.
    bounds: Vec<u32>,
    order: Vec<NodeId>,
}

impl Buckets {
    /// Bins finite `positions`. Halved coordinates and a side never below
    /// `f64::MIN_POSITIVE` keep every offset, extent and quotient finite.
    fn new(positions: &[Position], range: f64) -> Self {
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            (min_x, max_x) = (min_x.min(p.x), max_x.max(p.x));
            (min_y, max_y) = (min_y.min(p.y), max_y.max(p.y));
        }
        let (half_min_x, half_min_y) = (min_x / 2.0, min_y / 2.0);
        let half_extent = (max_x / 2.0 - half_min_x).max(max_y / 2.0 - half_min_y);
        let n = positions.len() as f64;
        let half_side = (range / 2.0 * (1.0 + 1.0 / 1024.0))
            .max(half_extent / n.sqrt())
            .max(f64::MIN_POSITIVE);
        let index = |half_offset: f64| (half_offset / half_side) as usize;
        let cols = index(max_x / 2.0 - half_min_x) + 1;
        let rows = index(max_y / 2.0 - half_min_y) + 1;
        let bucket_of: Vec<u32> = positions
            .iter()
            .map(|p| (index(p.y / 2.0 - half_min_y) * cols + index(p.x / 2.0 - half_min_x)) as u32)
            .collect();
        // Counted at `b + 2`, the prefix sums put bucket `b`'s start at
        // `b + 1`; placing its nodes advances that to its end, which is
        // bucket `b + 1`'s start. The last entry is left over.
        let mut bounds = vec![0u32; cols * rows + 2];
        for &b in &bucket_of {
            bounds[b as usize + 2] += 1;
        }
        for b in 2..bounds.len() {
            bounds[b] += bounds[b - 1];
        }
        let mut order = vec![NodeId(0); positions.len()];
        for (i, &b) in bucket_of.iter().enumerate() {
            let slot = &mut bounds[b as usize + 1];
            order[*slot as usize] = NodeId(i as u16);
            *slot += 1;
        }
        Buckets {
            cols,
            rows,
            bucket_of,
            bounds,
            order,
        }
    }

    /// The nodes of every bucket next to or equal to `node`'s: each row of
    /// up to three buckets is one run of `order`.
    fn candidates(&self, node: usize) -> impl Iterator<Item = &[NodeId]> {
        let b = self.bucket_of[node] as usize;
        let (row, col) = (b / self.cols, b % self.cols);
        let (left, right) = (col.saturating_sub(1), (col + 1).min(self.cols - 1));
        (row.saturating_sub(1)..=(row + 1).min(self.rows - 1)).map(move |r| {
            let from = self.bounds[r * self.cols + left] as usize;
            let to = self.bounds[r * self.cols + right + 1] as usize;
            &self.order[from..to]
        })
    }
}

/// The paper's grid spacing, feet.
pub const GRID_SPACING_FT: f64 = 20.0;
/// The paper's radio transmission radius, feet.
pub const RADIO_RANGE_FT: f64 = 50.0;

impl Topology {
    /// The paper's uniform n×n grid: spacing 20 ft, radio range 50 ft, base
    /// station node 0 at the upper-left corner, row-major ids.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if `n == 0` or the grid exceeds the id space.
    pub fn grid(n: usize) -> Result<Self, TopologyError> {
        Self::grid_with(n, GRID_SPACING_FT, RADIO_RANGE_FT)
    }

    /// An n×n grid with custom spacing and radio range.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] on an empty grid, id-space overflow, invalid
    /// range, or a spacing so large the grid is disconnected.
    fn grid_with(n: usize, spacing: f64, range: f64) -> Result<Self, TopologyError> {
        let positions: Vec<Position> = (0..n * n)
            .map(|i| Position {
                x: (i % n) as f64 * spacing,
                y: (i / n) as f64 * spacing,
            })
            .collect();
        Self::from_positions(positions, range)
    }

    /// A random uniform deployment: `n` nodes dropped uniformly over an
    /// `extent × extent` square (the base station pinned at the origin
    /// corner), retrying deterministically until the deployment is connected
    /// under the given radio range.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if `n == 0`, the range is invalid, or no
    /// connected deployment is found within 64 deterministic retries
    /// (the density is too low for the range).
    pub fn random_uniform(
        n: usize,
        extent: f64,
        range: f64,
        seed: u64,
    ) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let mut last_err = TopologyError::Disconnected(0);
        for _ in 0..64 {
            let mut positions = vec![Position { x: 0.0, y: 0.0 }];
            positions.extend((1..n).map(|_| Position {
                x: next() * extent,
                y: next() * extent,
            }));
            match Self::from_positions(positions, range) {
                Ok(t) => return Ok(t),
                Err(e @ TopologyError::Disconnected(_)) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// Builds a topology from explicit positions.
    ///
    /// Node `i` gets id `NodeId(i)`; node 0 is the base station.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if the position list is empty or too large,
    /// the range invalid, a coordinate infinite or NaN, or some node is
    /// unreachable from the base station.
    pub fn from_positions(
        positions: Vec<Position>,
        radio_range: f64,
    ) -> Result<Self, TopologyError> {
        if positions.is_empty() {
            return Err(TopologyError::Empty);
        }
        if positions.len() > u16::MAX as usize + 1 {
            return Err(TopologyError::TooManyNodes(positions.len()));
        }
        if !(radio_range.is_finite() && radio_range > 0.0) {
            return Err(TopologyError::InvalidRange);
        }
        if let Some(i) = positions
            .iter()
            .position(|p| !(p.x.is_finite() && p.y.is_finite()))
        {
            return Err(TopologyError::NonFinitePosition(i as u16));
        }
        let n = positions.len();
        // A node's candidates are its 3×3 buckets, one run per bucket row;
        // sorting those in range gives an all-pairs scan's ascending list.
        // The candidates bound the lists' total, so the flat array is sized
        // once, unless a clump has more than 64 a node: it then grows.
        let buckets = Buckets::new(&positions, radio_range);
        let bound = (0..n).flat_map(|i| buckets.candidates(i)).flatten().count();
        let mut adjacency = Vec::with_capacity(bound.min(64 * n));
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for (i, &p) in positions.iter().enumerate() {
            let start = adjacency.len();
            for &j in buckets.candidates(i).flatten() {
                if j.index() != i && p.distance(positions[j.index()]) <= radio_range {
                    adjacency.push(j);
                }
            }
            adjacency[start..].sort_unstable();
            offsets.push(adjacency.len() as u32);
        }
        adjacency.shrink_to_fit();
        let neighbors = |u: usize| &adjacency[offsets[u] as usize..offsets[u + 1] as usize];
        // BFS hop levels from the base station.
        let mut levels = vec![u32::MAX; n];
        levels[0] = 0;
        let mut queue = VecDeque::with_capacity(n);
        queue.push_back(0);
        while let Some(u) = queue.pop_front() {
            for &v in neighbors(u) {
                if levels[v.index()] == u32::MAX {
                    levels[v.index()] = levels[u] + 1;
                    queue.push_back(v.index());
                }
            }
        }
        if let Some(idx) = levels.iter().position(|&l| l == u32::MAX) {
            return Err(TopologyError::Disconnected(idx as u16));
        }
        let max_level = levels.iter().copied().max().unwrap_or(0);
        Ok(Topology {
            positions,
            radio_range,
            adjacency,
            offsets,
            levels,
            max_level,
        })
    }

    /// Number of nodes, including the base station.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Iterates all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len()).map(|i| NodeId(i as u16))
    }

    /// The node's position.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// The configured radio transmission radius, feet.
    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    /// Nodes within radio range of `node` (excluding itself).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether two distinct nodes are within radio range of each other.
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.positions[a.index()].distance(self.positions[b.index()]) <= self.radio_range
    }

    /// BFS hop distance from the base station (level 0).
    pub fn level(&self, node: NodeId) -> u32 {
        self.levels[node.index()]
    }

    /// All node levels, indexed by node id.
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Maximum level over all nodes.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Link quality in `(0, 1]`, decaying with distance (1 at distance 0).
    ///
    /// TinyDB associates a parent with each node "based on the link quality";
    /// with a distance-decay model the best link is simply the closest
    /// upper-level neighbour, which matches mote radios to first order.
    pub fn link_quality(&self, a: NodeId, b: NodeId) -> f64 {
        let d = self.positions[a.index()].distance(self.positions[b.index()]);
        if d > self.radio_range {
            0.0
        } else {
            1.0 / (1.0 + (d / self.radio_range).powi(2))
        }
    }

    /// Neighbours of `node` one level closer to the base station.
    pub fn upper_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.upper_iter(node).collect()
    }

    fn upper_iter(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let my = self.level(node);
        self.neighbors(node)
            .iter()
            .copied()
            .filter(move |&n| self.level(n) + 1 == my)
    }

    /// The default TinyDB parent: the upper-level neighbour with the best
    /// link quality (`None` only for the base station).
    pub fn default_parent(&self, node: NodeId) -> Option<NodeId> {
        if node == NodeId::BASE_STATION {
            return None;
        }
        self.upper_iter(node).max_by(|&a, &b| {
            self.link_quality(node, a)
                .partial_cmp(&self.link_quality(node, b))
                .expect("link qualities are finite")
                // Deterministic tie-break on id.
                .then(b.0.cmp(&a.0).reverse())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_paper_parameters() {
        let t = Topology::grid(4).unwrap();
        assert_eq!(t.node_count(), 16);
        assert_eq!(t.radio_range(), 50.0);
        // Corner-adjacent node distance is 20ft.
        assert!((t.position(NodeId(1)).x - 20.0).abs() < 1e-9);
        // 50ft range covers straight-2 (40ft), diagonal (28.3ft) and
        // knight-move (44.7ft) but not straight-3 (60ft).
        let n0 = t.neighbors(NodeId(0));
        assert!(n0.contains(&NodeId(1)));
        assert!(n0.contains(&NodeId(2)));
        assert!(n0.contains(&NodeId(5)));
        assert!(n0.contains(&NodeId(6)));
        assert!(!n0.contains(&NodeId(3)));
    }

    #[test]
    fn levels_are_bfs_hops() {
        let t = Topology::grid(4).unwrap();
        assert_eq!(t.level(NodeId(0)), 0);
        assert_eq!(t.level(NodeId(1)), 1);
        assert_eq!(t.level(NodeId(5)), 1);
        // Opposite corner of a 4×4 grid: (60,60) away; reachable in 2 hops
        // via (40,40).
        assert_eq!(t.level(NodeId(15)), 2);
        assert!(t.max_level() >= 2);
    }

    #[test]
    fn max_level_is_the_largest_level() {
        let line = (0..5).map(|x| Position {
            x: f64::from(x),
            y: 0.0,
        });
        for t in [
            Topology::grid(8).unwrap(),
            Topology::from_positions(line.collect(), 1.0).unwrap(),
            Topology::from_positions(vec![Position::default()], 1.0).unwrap(),
        ] {
            assert_eq!(Some(t.max_level()), t.levels().iter().copied().max());
        }
    }

    #[test]
    fn eight_by_eight_grid_levels() {
        let t = Topology::grid(8).unwrap();
        assert_eq!(t.node_count(), 64);
        // Far corner at (140,140): each hop covers at most 50ft in a
        // straight line, ~4-5 hops expected.
        assert!(t.level(NodeId(63)) >= 4);
    }

    #[test]
    fn disconnected_grid_is_rejected() {
        let err = Topology::grid_with(2, 100.0, 50.0).unwrap_err();
        assert!(matches!(err, TopologyError::Disconnected(_)));
    }

    #[test]
    fn empty_and_invalid_inputs() {
        assert_eq!(
            Topology::from_positions(vec![], 50.0).unwrap_err(),
            TopologyError::Empty
        );
        assert_eq!(
            Topology::from_positions(vec![Position::default()], 0.0).unwrap_err(),
            TopologyError::InvalidRange
        );
        assert_eq!(
            Topology::from_positions(vec![Position::default()], f64::NAN).unwrap_err(),
            TopologyError::InvalidRange
        );
    }

    #[test]
    fn single_node_topology_is_fine() {
        let t = Topology::from_positions(vec![Position::default()], 50.0).unwrap();
        assert_eq!(t.node_count(), 1);
        assert!(t.neighbors(NodeId(0)).is_empty());
        assert_eq!(t.default_parent(NodeId(0)), None);
    }

    #[test]
    fn link_quality_decays_with_distance() {
        let t = Topology::grid(4).unwrap();
        let q_near = t.link_quality(NodeId(0), NodeId(1)); // 20ft
        let q_far = t.link_quality(NodeId(0), NodeId(2)); // 40ft
        assert!(q_near > q_far);
        assert_eq!(t.link_quality(NodeId(0), NodeId(3)), 0.0); // 60ft
    }

    #[test]
    fn default_parent_is_closest_upper_neighbor() {
        let t = Topology::grid(4).unwrap();
        // Node 1 (level 1): only upper neighbour is the base station.
        assert_eq!(t.default_parent(NodeId(1)), Some(NodeId(0)));
        // Node 15 (level 2) should parent on some level-1 node.
        let p = t.default_parent(NodeId(15)).unwrap();
        assert_eq!(t.level(p), 1);
    }

    #[test]
    fn upper_neighbors_are_one_level_closer() {
        let t = Topology::grid(8).unwrap();
        for node in t.nodes() {
            for up in t.upper_neighbors(node) {
                assert_eq!(t.level(up) + 1, t.level(node));
            }
        }
    }

    #[test]
    fn node_cap_boundary_is_exact() {
        // 65,536 nodes (the full u16 id space) is legal; 65,537 is not —
        // node 65,537 would have no id. The reject happens before any O(n)
        // connectivity work, so the oversized case is cheap.
        let cap = u16::MAX as usize + 1;
        let over: Vec<Position> = (0..cap + 1)
            .map(|i| Position {
                x: i as f64,
                y: 0.0,
            })
            .collect();
        assert_eq!(
            Topology::from_positions(over, 50.0).unwrap_err(),
            TopologyError::TooManyNodes(cap + 1)
        );
        // At exactly the cap: a 256×256 grid (the largest square deployment
        // the id space admits) builds and addresses its last node.
        let t = Topology::grid(256).unwrap();
        assert_eq!(t.node_count(), cap);
        assert_eq!(t.position(NodeId(u16::MAX)).x, 255.0 * GRID_SPACING_FT);
        assert!(t.level(NodeId(u16::MAX)) > 0);
    }

    /// Asserts that every neighbour list equals an all-pairs scan's: the
    /// same nodes in the same (ascending) order.
    fn assert_matches_all_pairs_scan(t: &Topology) {
        for a in t.nodes() {
            let brute: Vec<NodeId> = t
                .nodes()
                .filter(|&b| b != a && t.position(a).distance(t.position(b)) <= t.radio_range())
                .collect();
            assert_eq!(t.neighbors(a), &brute[..], "neighbour list of {a}");
        }
    }

    #[test]
    fn spatial_index_matches_all_pairs_scan() {
        let at = |x: f64, y: f64| Position { x, y };
        // An irregular deployment where nodes straddle bucket boundaries.
        assert_matches_all_pairs_scan(&Topology::random_uniform(200, 300.0, 60.0, 0xBEEF).unwrap());
        // Nodes exactly one range apart, on the edges of range-wide buckets,
        // at negative coordinates: a 3-4-5 lattice.
        let edges: Vec<Position> = (0..36)
            .map(|i| {
                at(
                    -150.0 + f64::from(i % 6) * 30.0,
                    -200.0 + f64::from(i / 6) * 40.0,
                )
            })
            .collect();
        let t = Topology::from_positions(edges, 50.0).unwrap();
        assert!(
            t.neighbors(NodeId(0)).contains(&NodeId(7)),
            "(0,0)–(30,40) is 50 ft"
        );
        assert_matches_all_pairs_scan(&t);
        let negative: Vec<Position> = (0..40)
            .map(|i| at(-f64::from(i) * 17.5, -f64::from(i * i % 7) * 9.0))
            .collect();
        assert_matches_all_pairs_scan(&Topology::from_positions(negative, 50.0).unwrap());
        // A one-row line, spaced exactly at the range.
        let line = (0..30).map(|i| at(f64::from(i) * 50.0, 0.0)).collect();
        let t = Topology::from_positions(line, 50.0).unwrap();
        assert_eq!(t.max_level(), 29);
        assert_matches_all_pairs_scan(&t);
        // Every node in one bucket: each hears all the others.
        let clump = (0..25)
            .map(|i| at(f64::from(i % 5), f64::from(i / 5)))
            .collect();
        let t = Topology::from_positions(clump, 50.0).unwrap();
        assert!(t.nodes().all(|a| t.neighbors(a).len() == 24));
        assert_matches_all_pairs_scan(&t);
    }

    #[test]
    fn unplaceable_or_unreachable_positions_are_errors() {
        let at = |x: f64, y: f64| Position { x, y };
        for (far, err) in [
            (at(f64::INFINITY, 0.0), TopologyError::NonFinitePosition(1)),
            (
                at(0.0, f64::NEG_INFINITY),
                TopologyError::NonFinitePosition(1),
            ),
            (at(f64::NAN, 0.0), TopologyError::NonFinitePosition(1)),
            (at(1e300, 0.0), TopologyError::Disconnected(1)),
            (at(-1e300, 1e300), TopologyError::Disconnected(1)),
            (at(f64::MAX, -f64::MAX), TopologyError::Disconnected(1)),
            (at(1e15, 0.0), TopologyError::Disconnected(1)),
        ] {
            let positions = vec![at(0.0, 0.0), far, at(20.0, 0.0)];
            assert_eq!(
                Topology::from_positions(positions, 50.0).unwrap_err(),
                err,
                "{far:?}"
            );
        }
        // Spread across the whole range of f64, or a few subnormal steps
        // under the smallest range there is, the nodes still fit a grid of
        // O(n) buckets.
        let spread = vec![at(-f64::MAX, -f64::MAX), at(f64::MAX, f64::MAX)];
        assert_eq!(
            Topology::from_positions(spread, f64::MAX).unwrap_err(),
            TopologyError::Disconnected(1)
        );
        let tiny = f64::from_bits(1);
        let mut specks = vec![at(0.0, 0.0); 299];
        specks.push(at(4.0 * tiny, 0.0));
        assert_matches_all_pairs_scan(&Topology::from_positions(specks, tiny).unwrap());
    }

    #[test]
    fn in_range_is_symmetric_and_irreflexive() {
        let t = Topology::grid(4).unwrap();
        for a in t.nodes() {
            assert!(!t.in_range(a, a));
            for b in t.nodes() {
                assert_eq!(t.in_range(a, b), t.in_range(b, a));
            }
        }
    }
}
