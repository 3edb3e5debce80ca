//! Reproduction of the paper's Figure 2 worked example.
//!
//! An 9-node topology (base station + A…H) where nodes D, E, F, G, H hold
//! data for query `q_i` and D, G, H for `q_j`. The paper counts, per epoch:
//!
//! * acquisition: TinyDB 20 messages / 8 nodes involved, versus the DAG's
//!   12 messages / 6 nodes (A and C sleep);
//! * aggregation: TinyDB 14 messages versus 7 with shared early aggregation
//!   (our shared frame packs both queries' partials into *one* message at
//!   node B, so we measure 6).

use ttmqo_core::{TtmqoApp, TtmqoConfig};
use ttmqo_query::{parse_query, Attribute, Query, QueryId};
use ttmqo_sim::json;
use ttmqo_sim::{
    Metrics, MsgKind, NodeApp, NodeId, Position, RadioParams, SensorField, SimConfig, SimTime,
    Simulator, Topology,
};
use ttmqo_tinydb::{Command, Output, TinyDbApp, TinyDbConfig};

/// Node indices of the figure (0 is the base station).
pub const NAMES: [&str; 9] = ["BS", "A", "B", "C", "D", "E", "F", "G", "H"];

/// The Figure 2 topology: levels BS / {A,B} / {C,D,E,F} / {G,H}, with
/// G in range of both C (its TinyDB parent) and D (its DAG alternative),
/// and H in range of both D and E.
pub fn fig2_topology() -> Topology {
    let positions = vec![
        Position { x: 0.0, y: 0.0 },    // 0 BS
        Position { x: -40.0, y: 30.0 }, // 1 A
        Position { x: 40.0, y: 30.0 },  // 2 B
        Position { x: -40.0, y: 80.0 }, // 3 C (parent A)
        Position { x: 40.0, y: 80.0 },  // 4 D (parent B)
        Position { x: 80.0, y: 60.0 },  // 5 E (parent B)
        Position { x: 2.0, y: 60.0 },   // 6 F (parent B)
        Position { x: -2.0, y: 106.0 }, // 7 G (parent C; D in range)
        Position { x: 78.0, y: 108.0 }, // 8 H (parent D; E in range)
    ];
    Topology::from_positions(positions, 50.0).expect("figure topology is connected")
}

/// Constant per-node field realizing the figure's data placement:
/// light = 500 at D, E, F, G, H (else 100); temp = 50 at D, G, H (else 10).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig2Field;

impl SensorField for Fig2Field {
    fn reading(&self, node: NodeId, attr: Attribute, _t: SimTime) -> f64 {
        let qi_nodes = [4u16, 5, 6, 7, 8]; // D E F G H
        let qj_nodes = [4u16, 7, 8]; // D G H
        match attr {
            Attribute::NodeId => node.0 as f64,
            Attribute::Light => {
                if qi_nodes.contains(&node.0) {
                    500.0
                } else {
                    100.0
                }
            }
            Attribute::Temp => {
                if qj_nodes.contains(&node.0) {
                    50.0
                } else {
                    10.0
                }
            }
            _ => 0.0,
        }
    }
}

/// The figure's two queries, acquisition or aggregation flavour.
pub fn fig2_queries(aggregation: bool) -> (Query, Query) {
    if aggregation {
        (
            parse_query(
                QueryId(1),
                "select max(light) where light >= 400 epoch duration 2048",
            )
            .unwrap(),
            parse_query(
                QueryId(2),
                "select max(temp) where temp >= 30 epoch duration 2048",
            )
            .unwrap(),
        )
    } else {
        (
            parse_query(
                QueryId(1),
                "select light where light >= 400 epoch duration 2048",
            )
            .unwrap(),
            parse_query(
                QueryId(2),
                "select temp where temp >= 30 epoch duration 2048",
            )
            .unwrap(),
        )
    }
}

/// Measured steady-state counts for one protocol variant.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Counts {
    /// Result messages per epoch (both queries together).
    pub messages_per_epoch: f64,
    /// Number of nodes that transmitted anything in the steady window.
    pub nodes_involved: usize,
}

fn measure<A>(mut sim: Simulator<A>, q1: Query, q2: Query) -> Fig2Counts
where
    A: NodeApp<Command = Command, Output = Output>,
{
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(q1));
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(q2));
    // Warm up 4 epochs, then measure 8 steady epochs.
    sim.run_until(SimTime::from_ms(4 * 2048));
    let before: Metrics = sim.metrics().clone();
    sim.run_until(SimTime::from_ms(12 * 2048));
    let after = sim.metrics();

    let messages = after.tx_count(MsgKind::Result) - before.tx_count(MsgKind::Result);
    let involved = (0..9usize)
        .filter(|&n| after.node_tx_busy_ms(n) - before.node_tx_busy_ms(n) > 1e-9)
        .count();
    Fig2Counts {
        messages_per_epoch: messages as f64 / 8.0,
        nodes_involved: involved,
    }
}

/// Runs the worked example and returns (TinyDB counts, TTMQO counts).
pub fn fig2_counts(aggregation: bool) -> (Fig2Counts, Fig2Counts) {
    let radio = RadioParams::lossless();
    let config = SimConfig {
        maintenance_interval_ms: None,
        ..SimConfig::default()
    };
    let (q1, q2) = fig2_queries(aggregation);

    let tinydb = measure(
        Simulator::new(
            fig2_topology(),
            radio.clone(),
            config.clone(),
            Box::new(Fig2Field),
            |_, _| TinyDbApp::new(TinyDbConfig::default()),
        ),
        q1.clone(),
        q2.clone(),
    );
    let ttmqo = measure(
        Simulator::new(
            fig2_topology(),
            radio,
            config,
            Box::new(Fig2Field),
            |_, _| TtmqoApp::new(TtmqoConfig::default()),
        ),
        q1,
        q2,
    );
    (tinydb, ttmqo)
}

/// One variant of the figure: TinyDB's counts and TTMQO's.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Pair {
    /// `"acquisition"` or `"aggregation"`.
    pub variant: &'static str,
    /// TinyDB on its fixed tree.
    pub tinydb: Fig2Counts,
    /// TTMQO on the DAG.
    pub ttmqo: Fig2Counts,
}

impl Fig2Pair {
    /// The pair as one JSON object:
    /// `{"variant":"acquisition","tinydb":{"messages_per_epoch":20,"nodes_involved":8},"ttmqo":{...}}`.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("variant", self.variant);
            for (key, counts) in [("tinydb", self.tinydb), ("ttmqo", self.ttmqo)] {
                o.obj(key, |o| {
                    o.f64("messages_per_epoch", counts.messages_per_epoch);
                    o.u64("nodes_involved", counts.nodes_involved as u64);
                });
            }
        })
    }
}

/// Both variants of the worked example, acquisition first.
pub fn fig2_pairs() -> [Fig2Pair; 2] {
    [("acquisition", false), ("aggregation", true)].map(|(variant, aggregation)| {
        let (tinydb, ttmqo) = fig2_counts(aggregation);
        Fig2Pair {
            variant,
            tinydb,
            ttmqo,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_matches_figure_levels_and_parents() {
        let t = fig2_topology();
        let level = |i: u16| t.level(NodeId(i));
        assert_eq!(level(0), 0);
        assert_eq!((level(1), level(2)), (1, 1)); // A B
        assert_eq!((level(3), level(4), level(5), level(6)), (2, 2, 2, 2)); // C D E F
        assert_eq!((level(7), level(8)), (3, 3)); // G H

        // TinyDB's fixed parents.
        assert_eq!(t.default_parent(NodeId(3)), Some(NodeId(1)), "C -> A");
        assert_eq!(t.default_parent(NodeId(4)), Some(NodeId(2)), "D -> B");
        assert_eq!(t.default_parent(NodeId(7)), Some(NodeId(3)), "G -> C");
        assert_eq!(t.default_parent(NodeId(8)), Some(NodeId(4)), "H -> D");
        // The DAG alternative edges the example depends on.
        assert!(t.in_range(NodeId(7), NodeId(4)), "G must reach D");
        assert!(t.in_range(NodeId(8), NodeId(4)), "H must reach D");
    }

    #[test]
    fn acquisition_counts_match_the_paper() {
        let (tinydb, ttmqo) = fig2_counts(false);
        // Paper: 20 vs 12 messages, 8 vs 6 nodes.
        assert_eq!(tinydb.messages_per_epoch.round() as u64, 20);
        assert_eq!(ttmqo.messages_per_epoch.round() as u64, 12);
        assert_eq!(tinydb.nodes_involved, 8);
        assert_eq!(ttmqo.nodes_involved, 6);
    }

    #[test]
    fn aggregation_counts_match_the_paper() {
        let (tinydb, ttmqo) = fig2_counts(true);
        // Paper: 14 vs 7. Our shared frame also packs B's two per-query
        // partials together, saving one more message (6).
        assert_eq!(tinydb.messages_per_epoch.round() as u64, 14);
        assert!(
            (6..=7).contains(&(ttmqo.messages_per_epoch.round() as u64)),
            "got {}",
            ttmqo.messages_per_epoch
        );
    }
}
