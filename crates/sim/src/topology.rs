//! Network topology: node placement, radio connectivity, levels.
//!
//! The paper deploys nodes "uniformly in an n×n two-dimensional grid, with the
//! base station node 0 at the upper left corner. The radio transmission radius
//! is set to be 50 feet, while the grid spacing is 20 feet." [`Topology::grid`]
//! reproduces exactly that; arbitrary placements are supported through
//! [`Topology::from_positions`].

use std::collections::HashMap;
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
    /// Some node cannot reach the base station over any number of hops.
    Disconnected(u16),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => f.write_str("topology has no nodes"),
            TopologyError::TooManyNodes(n) => write!(f, "too many nodes: {n}"),
            TopologyError::InvalidRange => f.write_str("radio range must be positive and finite"),
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
/// bounded-density deployments: a spatial grid-bucket index
/// (`SpatialIndex`, cells of side `radio_range`) replaces the all-pairs
/// O(n²) scan, so only the 9 buckets a node's radio disc can overlap are
/// examined per node. The index is retained for ad-hoc disc queries
/// ([`Topology::nodes_within`]).
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
    neighbors: Vec<Vec<NodeId>>,
    levels: Vec<u32>,
    /// The largest of `levels`, fixed at construction like the levels are.
    max_level: u32,
    index: SpatialIndex,
}

/// Spatial grid-bucket index over node positions: square cells of side
/// `cell_ft` (the radio range), so any disc of that radius is covered by the
/// centre's cell plus its 8 neighbours. Build is O(n); a disc query touches
/// only the buckets the disc can overlap. Bucket contents are in ascending
/// id order (nodes are inserted in id order), which is what lets
/// [`Topology::from_positions`] reproduce the all-pairs scan's neighbour
/// lists byte for byte.
#[derive(Debug, Clone, Default)]
struct SpatialIndex {
    cell_ft: f64,
    cells: HashMap<(i64, i64), Vec<NodeId>>,
}

impl SpatialIndex {
    fn build(positions: &[Position], cell_ft: f64) -> Self {
        let mut cells: HashMap<(i64, i64), Vec<NodeId>> = HashMap::new();
        for (i, p) in positions.iter().enumerate() {
            cells
                .entry(Self::cell_at(*p, cell_ft))
                .or_default()
                .push(NodeId(i as u16));
        }
        SpatialIndex { cell_ft, cells }
    }

    fn cell_at(p: Position, cell_ft: f64) -> (i64, i64) {
        (
            (p.x / cell_ft).floor() as i64,
            (p.y / cell_ft).floor() as i64,
        )
    }

    /// Calls `f` with every node in the buckets a disc of radius `radius`
    /// centred at `center` can overlap. Candidates only — callers filter by
    /// actual distance. Visit order is deterministic (row-major over the
    /// bucket window, ascending ids within a bucket) but not globally
    /// sorted.
    fn for_each_candidate(&self, center: Position, radius: f64, mut f: impl FnMut(NodeId)) {
        let (cx, cy) = Self::cell_at(center, self.cell_ft);
        // A disc of radius r reaches ceil(r / cell) cells in each direction.
        let reach = (radius / self.cell_ft).ceil().max(1.0) as i64;
        for dy in -reach..=reach {
            for dx in -reach..=reach {
                if let Some(bucket) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &id in bucket {
                        f(id);
                    }
                }
            }
        }
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
    /// the range invalid, or some node is unreachable from the base station.
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
        let n = positions.len();
        // Bucket the nodes once, then find each node's neighbours by scanning
        // only the buckets its radio disc can overlap — near-linear overall
        // for bounded-density deployments, versus the all-pairs O(n²) scan
        // this replaces. The old scan produced each neighbour list in
        // ascending id order (smaller ids were pushed during earlier outer
        // iterations, larger ids during the node's own), so sorting the
        // collected candidates ascending reproduces it byte for byte.
        let index = SpatialIndex::build(&positions, radio_range);
        let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for i in 0..n {
            let list = &mut neighbors[i];
            index.for_each_candidate(positions[i], radio_range, |j| {
                if j.index() != i && positions[i].distance(positions[j.index()]) <= radio_range {
                    list.push(j);
                }
            });
            list.sort_unstable();
        }
        // BFS hop levels from the base station.
        let mut levels = vec![u32::MAX; n];
        levels[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(u) = queue.pop_front() {
            for &v in &neighbors[u] {
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
            neighbors,
            levels,
            max_level,
            index,
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
        &self.neighbors[node.index()]
    }

    /// All nodes within `radius` feet of `center` (inclusive), ascending by
    /// id — a bucket query over the spatial index, touching only the cells
    /// the disc can overlap rather than every node.
    ///
    /// This is the general form of the precomputed [`Topology::neighbors`]
    /// lists (which fix the centre at a node and the radius at the radio
    /// range): audibility-style questions — "who can hear a transmitter
    /// standing here?", region-scoped CSMA or fault injection — ask it for
    /// arbitrary points and radii. A node at exactly `center` is included;
    /// a non-finite or negative radius returns no nodes.
    ///
    /// # Examples
    ///
    /// ```
    /// use ttmqo_sim::{NodeId, Topology};
    ///
    /// let topo = Topology::grid(4)?;
    /// // Standing on the base station, a 25 ft disc hears nodes 0, 1 and 4
    /// // (20 ft away) but not the diagonal node 5 (28.3 ft).
    /// let heard = topo.nodes_within(topo.position(NodeId(0)), 25.0);
    /// assert_eq!(heard, vec![NodeId(0), NodeId(1), NodeId(4)]);
    /// # Ok::<(), ttmqo_sim::TopologyError>(())
    /// ```
    pub fn nodes_within(&self, center: Position, radius: f64) -> Vec<NodeId> {
        if !(radius.is_finite() && radius >= 0.0) {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.index.for_each_candidate(center, radius, |id| {
            if self.positions[id.index()].distance(center) <= radius {
                out.push(id);
            }
        });
        out.sort_unstable();
        out
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

    #[test]
    fn spatial_index_matches_all_pairs_scan() {
        // The bucket-index build must reproduce the old O(n²) scan exactly:
        // same neighbour sets, same (ascending) order — on an irregular
        // deployment where nodes straddle bucket boundaries.
        let t = Topology::random_uniform(200, 300.0, 60.0, 0xBEEF).unwrap();
        for a in t.nodes() {
            let brute: Vec<NodeId> = t
                .nodes()
                .filter(|&b| b != a && t.position(a).distance(t.position(b)) <= t.radio_range())
                .collect();
            assert_eq!(t.neighbors(a), &brute[..], "neighbour list of {a}");
        }
    }

    #[test]
    fn nodes_within_matches_brute_force_disc() {
        let t = Topology::random_uniform(150, 250.0, 55.0, 0xF00D).unwrap();
        // Arbitrary centres (on and off nodes) and radii, including a radius
        // larger than a bucket cell (forces the multi-cell reach path).
        let centers = [
            t.position(NodeId(0)),
            t.position(NodeId(77)),
            Position { x: 123.4, y: 210.9 },
        ];
        for center in centers {
            for radius in [0.0, 10.0, 55.0, 140.0] {
                let brute: Vec<NodeId> = t
                    .nodes()
                    .filter(|&b| t.position(b).distance(center) <= radius)
                    .collect();
                assert_eq!(t.nodes_within(center, radius), brute);
            }
        }
        // A node standing at the centre is included (distance 0).
        assert!(t
            .nodes_within(t.position(NodeId(3)), 0.0)
            .contains(&NodeId(3)));
        // Degenerate radii find nothing rather than panicking.
        assert!(t.nodes_within(centers[2], f64::NAN).is_empty());
        assert!(t.nodes_within(centers[2], -1.0).is_empty());
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
