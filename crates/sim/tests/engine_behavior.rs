//! Behavioural tests of the simulation engine: delivery, timers, collisions,
//! retransmission, sleep and determinism.

use ttmqo_sim::{
    ConstantField, Ctx, Destination, EngineStats, FaultPlan, LinkDegradation, MetricsSnapshot,
    MsgKind, NodeApp, NodeId, OutputRecord, Position, RadioParams, RandomCrashes, SimConfig,
    SimTime, Simulator, Topology,
};

/// A scriptable test app: sends frames per a static script and records what
/// it receives and when timers fire.
#[derive(Debug, Default)]
struct Probe {
    received: Vec<(u64, NodeId, String)>,
    timers: Vec<(u64, u64)>,
}

#[derive(Debug, Clone)]
enum Cmd {
    Send {
        dest: Destination,
        kind: MsgKind,
        bytes: usize,
        tag: String,
    },
    Timer {
        delay_ms: u64,
        key: u64,
    },
    Sleep {
        ms: u64,
    },
}

impl NodeApp for Probe {
    type Payload = String;
    type Command = Cmd;
    type Output = String;

    fn on_start(&mut self, _ctx: &mut Ctx<'_, String, String>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, String, String>, key: u64) {
        self.timers.push((ctx.now().as_ms(), key));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, String, String>,
        from: NodeId,
        _kind: MsgKind,
        payload: &String,
    ) {
        self.received
            .push((ctx.now().as_ms(), from, payload.clone()));
        ctx.emit(payload.clone());
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, String, String>, cmd: Cmd) {
        match cmd {
            Cmd::Send {
                dest,
                kind,
                bytes,
                tag,
            } => ctx.send(dest, kind, bytes, tag),
            Cmd::Timer { delay_ms, key } => ctx.set_timer(delay_ms, key),
            Cmd::Sleep { ms } => ctx.sleep_for(ms),
        }
    }
}

fn line_topology(n: usize, spacing: f64) -> Topology {
    Topology::from_positions(
        (0..n)
            .map(|i| Position {
                x: i as f64 * spacing,
                y: 0.0,
            })
            .collect(),
        50.0,
    )
    .unwrap()
}

fn quiet_config() -> SimConfig {
    SimConfig {
        maintenance_interval_ms: None,
        ..SimConfig::default()
    }
}

fn new_sim(topo: Topology, radio: RadioParams) -> Simulator<Probe> {
    Simulator::new(
        topo,
        radio,
        quiet_config(),
        Box::new(ConstantField),
        |_, _| Probe::default(),
    )
}

#[test]
fn unicast_delivers_to_target_only() {
    let mut sim = new_sim(line_topology(3, 20.0), RadioParams::lossless());
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Unicast(NodeId(0)),
            kind: MsgKind::Result,
            bytes: 10,
            tag: "hello".into(),
        },
    );
    sim.run_until(SimTime::from_ms(1000));
    assert_eq!(sim.node(NodeId(0)).received.len(), 1);
    assert!(sim.node(NodeId(2)).received.is_empty());
    assert_eq!(sim.outputs().len(), 1);
}

#[test]
fn broadcast_reaches_all_neighbors() {
    // 3 nodes, 20ft apart in a line: node 1 reaches both 0 and 2.
    let mut sim = new_sim(line_topology(3, 20.0), RadioParams::lossless());
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Broadcast,
            kind: MsgKind::QueryPropagation,
            bytes: 10,
            tag: "flood".into(),
        },
    );
    sim.run_until(SimTime::from_ms(1000));
    assert_eq!(sim.node(NodeId(0)).received.len(), 1);
    assert_eq!(sim.node(NodeId(2)).received.len(), 1);
    // One transmission serves both receivers.
    assert_eq!(sim.metrics().tx_count(MsgKind::QueryPropagation), 1);
}

#[test]
fn out_of_range_nodes_receive_nothing() {
    // 60ft apart: out of the 50ft radius — topology would reject a
    // disconnected pair, so use 3 nodes with the far one connected via the
    // middle.
    let topo = line_topology(3, 40.0); // 0-1 and 1-2 connected, 0-2 not (80ft)
    let mut sim = new_sim(topo, RadioParams::lossless());
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(0),
        Cmd::Send {
            dest: Destination::Broadcast,
            kind: MsgKind::Result,
            bytes: 4,
            tag: "x".into(),
        },
    );
    sim.run_until(SimTime::from_ms(1000));
    assert_eq!(sim.node(NodeId(1)).received.len(), 1);
    assert!(sim.node(NodeId(2)).received.is_empty());
}

#[test]
fn multicast_hits_exactly_the_set() {
    let topo = Topology::grid(3).unwrap();
    let mut sim = new_sim(topo, RadioParams::lossless());
    // Node 4 (center) multicasts to 1 and 3.
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(4),
        Cmd::Send {
            dest: Destination::Multicast(vec![NodeId(1), NodeId(3)]),
            kind: MsgKind::Result,
            bytes: 8,
            tag: "m".into(),
        },
    );
    sim.run_until(SimTime::from_ms(1000));
    assert_eq!(sim.node(NodeId(1)).received.len(), 1);
    assert_eq!(sim.node(NodeId(3)).received.len(), 1);
    assert!(sim.node(NodeId(0)).received.is_empty());
    assert!(sim.node(NodeId(5)).received.is_empty());
    assert_eq!(
        sim.metrics().tx_count(MsgKind::Result),
        1,
        "one frame on air"
    );
}

#[test]
fn timers_fire_at_requested_times_in_order() {
    let mut sim = new_sim(line_topology(2, 20.0), RadioParams::lossless());
    for (delay, key) in [(500u64, 5u64), (100, 1), (300, 3)] {
        sim.schedule_command(
            SimTime::from_ms(0),
            NodeId(1),
            Cmd::Timer {
                delay_ms: delay,
                key,
            },
        );
    }
    sim.run_until(SimTime::from_ms(1000));
    assert_eq!(
        sim.node(NodeId(1)).timers,
        vec![(100, 1), (300, 3), (500, 5)]
    );
}

#[test]
fn transmission_time_is_charged_per_frame() {
    let radio = RadioParams::lossless();
    let expect_ms = radio.tx_time_ms(10);
    let mut sim = new_sim(line_topology(2, 20.0), radio);
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Unicast(NodeId(0)),
            kind: MsgKind::Result,
            bytes: 10,
            tag: "x".into(),
        },
    );
    sim.run_until(SimTime::from_ms(1000));
    assert!((sim.metrics().total_tx_busy_ms() - expect_ms).abs() < 0.01);
    assert!((sim.metrics().total_rx_busy_ms() - expect_ms).abs() < 0.01);
    assert!(sim.metrics().avg_transmission_time_pct() > 0.0);
}

/// Hidden-terminal line: receiver 0 in the middle, senders 1 and 2 at ±45 ft
/// (in range of 0, out of range of each other, so carrier sensing cannot
/// prevent their frames from colliding at 0).
fn hidden_terminal_topology() -> Topology {
    Topology::from_positions(
        vec![
            Position { x: 0.0, y: 0.0 },
            Position { x: -45.0, y: 0.0 },
            Position { x: 45.0, y: 0.0 },
        ],
        50.0,
    )
    .unwrap()
}

#[test]
fn csma_serializes_senders_that_hear_each_other() {
    // Nodes 0,1,2 in a line, 20ft apart: 1 and 2 hear each other, so carrier
    // sensing defers the second transmission — both frames arrive intact.
    let mut radio = RadioParams::lossless();
    radio.collisions = true;
    radio.max_retries = 0;
    let mut sim = new_sim(line_topology(3, 20.0), radio);
    for src in [1u16, 2u16] {
        sim.schedule_command(
            SimTime::from_ms(10),
            NodeId(src),
            Cmd::Send {
                dest: Destination::Unicast(NodeId(0)),
                kind: MsgKind::Result,
                bytes: 20,
                tag: format!("from{src}"),
            },
        );
    }
    sim.run_until(SimTime::from_ms(1000));
    assert_eq!(
        sim.node(NodeId(0)).received.len(),
        2,
        "CSMA avoids the collision"
    );
    assert_eq!(sim.metrics().collisions(), 0);
}

#[test]
fn overlapping_frames_collide_at_common_receiver() {
    // Hidden terminals: the senders cannot hear each other, so both transmit
    // simultaneously and corrupt each other at the common receiver.
    let mut radio = RadioParams::lossless();
    radio.collisions = true;
    radio.max_retries = 0;
    let mut sim = new_sim(hidden_terminal_topology(), radio);
    // Both transmit at the same instant → overlap at node 0.
    for src in [1u16, 2u16] {
        sim.schedule_command(
            SimTime::from_ms(10),
            NodeId(src),
            Cmd::Send {
                dest: Destination::Unicast(NodeId(0)),
                kind: MsgKind::Result,
                bytes: 20,
                tag: format!("from{src}"),
            },
        );
    }
    sim.run_until(SimTime::from_ms(1000));
    assert!(
        sim.node(NodeId(0)).received.is_empty(),
        "both frames corrupted"
    );
    assert!(sim.metrics().collisions() >= 2);
    assert_eq!(sim.metrics().gave_up(), 2);
}

#[test]
fn unicast_retransmits_after_collision_and_eventually_delivers() {
    let mut radio = RadioParams::lossless();
    radio.collisions = true;
    radio.max_retries = 3;
    let mut sim = new_sim(hidden_terminal_topology(), radio);
    for src in [1u16, 2u16] {
        sim.schedule_command(
            SimTime::from_ms(10),
            NodeId(src),
            Cmd::Send {
                dest: Destination::Unicast(NodeId(0)),
                kind: MsgKind::Result,
                bytes: 20,
                tag: format!("from{src}"),
            },
        );
    }
    sim.run_until(SimTime::from_ms(5000));
    // Random backoffs desynchronize the retries; both should get through.
    assert_eq!(sim.node(NodeId(0)).received.len(), 2);
    assert!(sim.metrics().retransmissions() >= 1);
}

#[test]
fn random_loss_drops_frames_and_retries() {
    let mut radio = RadioParams::lossless();
    radio.loss_rate = 1.0; // always lose
    radio.max_retries = 2;
    let mut sim = new_sim(line_topology(2, 20.0), radio);
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Unicast(NodeId(0)),
            kind: MsgKind::Result,
            bytes: 10,
            tag: "x".into(),
        },
    );
    sim.run_until(SimTime::from_ms(5000));
    assert!(sim.node(NodeId(0)).received.is_empty());
    assert_eq!(sim.metrics().retransmissions(), 2);
    assert_eq!(sim.metrics().gave_up(), 1);
    assert_eq!(sim.metrics().losses(), 3, "original + 2 retries all lost");
}

/// Sends `frames` unicast frames from node 1 to node 0 (one pair, `d` feet
/// apart) under the distance-loss model with retries disabled, and returns
/// how many got through.
fn distance_loss_deliveries(d: f64, frames: u64) -> u64 {
    let mut radio = RadioParams::lossless();
    radio.distance_loss = true;
    radio.max_retries = 0;
    let topo = Topology::from_positions(
        vec![Position { x: 0.0, y: 0.0 }, Position { x: d, y: 0.0 }],
        50.0,
    )
    .unwrap();
    let mut sim = new_sim(topo, radio);
    for i in 0..frames {
        sim.schedule_command(
            SimTime::from_ms(10 + i * 50),
            NodeId(1),
            Cmd::Send {
                dest: Destination::Unicast(NodeId(0)),
                kind: MsgKind::Result,
                bytes: 4,
                tag: format!("f{i}"),
            },
        );
    }
    sim.run_until(SimTime::from_ms(10 + frames * 50 + 1000));
    sim.node(NodeId(0)).received.len() as u64
}

#[test]
fn distance_loss_degrades_toward_the_range_edge() {
    // Per-receiver loss (d/range)⁴: ~0.16% at 10 ft, ~92% at 49 ft. Over
    // 100 frames the two regimes are far outside each other's noise.
    let near = distance_loss_deliveries(10.0, 100);
    let far = distance_loss_deliveries(49.0, 100);
    assert!(near >= 95, "10 ft link lost too much: {near}/100");
    assert!(far <= 30, "49 ft link delivered too much: {far}/100");
}

#[test]
fn distance_loss_exhausts_unicast_retries_at_the_range_limit() {
    // At exactly d = range the quartic model gives certain loss, so a
    // unicast burns its whole retry budget: max_retries retransmissions,
    // then one give-up, with every attempt counted as a loss.
    let mut radio = RadioParams::lossless();
    radio.distance_loss = true;
    radio.max_retries = 3;
    let topo = Topology::from_positions(
        vec![Position { x: 0.0, y: 0.0 }, Position { x: 50.0, y: 0.0 }],
        50.0,
    )
    .unwrap();
    let mut sim = new_sim(topo, radio);
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Unicast(NodeId(0)),
            kind: MsgKind::Result,
            bytes: 4,
            tag: "doomed".into(),
        },
    );
    sim.run_until(SimTime::from_ms(10_000));
    assert!(sim.node(NodeId(0)).received.is_empty());
    assert_eq!(sim.metrics().retransmissions(), 3);
    assert_eq!(sim.metrics().gave_up(), 1);
    assert_eq!(sim.metrics().losses(), 4, "original + 3 retries all lost");
    // Each retry is a fresh transmission in the per-kind counters.
    assert_eq!(sim.metrics().tx_count(MsgKind::Result), 4);
}

#[test]
fn sleeping_node_misses_frames_until_wake() {
    let mut radio = RadioParams::lossless();
    radio.max_retries = 0;
    let mut sim = new_sim(line_topology(2, 20.0), radio);
    sim.schedule_command(SimTime::from_ms(5), NodeId(0), Cmd::Sleep { ms: 100 });
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Unicast(NodeId(0)),
            kind: MsgKind::Result,
            bytes: 4,
            tag: "missed".into(),
        },
    );
    sim.schedule_command(
        SimTime::from_ms(200),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Unicast(NodeId(0)),
            kind: MsgKind::Result,
            bytes: 4,
            tag: "got".into(),
        },
    );
    sim.run_until(SimTime::from_ms(1000));
    let received = &sim.node(NodeId(0)).received;
    assert_eq!(received.len(), 1);
    assert_eq!(received[0].2, "got");
}

#[test]
fn maintenance_beacons_are_accounted_but_not_delivered() {
    let config = SimConfig {
        maintenance_interval_ms: Some(1000),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        line_topology(2, 20.0),
        RadioParams::lossless(),
        config,
        Box::new(ConstantField),
        |_, _| Probe::default(),
    );
    sim.run_until(SimTime::from_ms(10_000));
    let beacons = sim.metrics().tx_count(MsgKind::Maintenance);
    assert!((18..=22).contains(&beacons), "got {beacons} beacons");
    assert!(sim.node(NodeId(0)).received.is_empty());
    assert!(sim.node(NodeId(1)).received.is_empty());
}

#[test]
fn runs_are_deterministic_for_a_fixed_seed() {
    let run = |seed: u64| {
        let mut radio = RadioParams::lossless();
        radio.loss_rate = 0.3;
        radio.max_retries = 3;
        let config = SimConfig {
            seed,
            maintenance_interval_ms: Some(700),
        };
        let mut sim = Simulator::new(
            Topology::grid(4).unwrap(),
            radio,
            config,
            Box::new(ConstantField),
            |_, _| Probe::default(),
        );
        for i in 0..10u64 {
            sim.schedule_command(
                SimTime::from_ms(i * 97),
                NodeId((1 + i % 15) as u16),
                Cmd::Send {
                    dest: Destination::Unicast(NodeId(0)),
                    kind: MsgKind::Result,
                    bytes: 12,
                    tag: format!("m{i}"),
                },
            );
        }
        sim.run_until(SimTime::from_ms(20_000));
        (
            sim.metrics().tx_count_total(),
            sim.metrics().retransmissions(),
            sim.metrics().losses(),
            format!("{:?}", sim.node(NodeId(0)).received),
        )
    };
    assert_eq!(run(42), run(42), "same seed, same trace");
    // Different seed almost surely changes the loss pattern.
    assert_ne!(run(42).3, run(43).3);
}

#[test]
fn back_to_back_sends_serialize_on_the_channel() {
    let radio = RadioParams::lossless();
    let per_frame = radio.tx_time_ms(10);
    let mut sim = new_sim(line_topology(2, 20.0), radio);
    for i in 0..3 {
        sim.schedule_command(
            SimTime::from_ms(10),
            NodeId(1),
            Cmd::Send {
                dest: Destination::Unicast(NodeId(0)),
                kind: MsgKind::Result,
                bytes: 10,
                tag: format!("f{i}"),
            },
        );
    }
    sim.run_until(SimTime::from_ms(1000));
    let received = &sim.node(NodeId(0)).received;
    assert_eq!(received.len(), 3);
    // Arrival times should be spaced by one frame time, not simultaneous.
    let t: Vec<u64> = received.iter().map(|r| r.0).collect();
    assert!(t[1] >= t[0] + per_frame as u64 - 1);
    assert!(t[2] >= t[1] + per_frame as u64 - 1);
    // No self-collision between a node's own frames.
    assert_eq!(sim.metrics().collisions(), 0);
}

#[test]
fn emitted_outputs_carry_time_and_node() {
    let mut sim = new_sim(line_topology(2, 20.0), RadioParams::lossless());
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Unicast(NodeId(0)),
            kind: MsgKind::Result,
            bytes: 4,
            tag: "out".into(),
        },
    );
    sim.run_until(SimTime::from_ms(100));
    let outputs = sim.take_outputs();
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].node, NodeId(0));
    assert!(outputs[0].time.as_ms() >= 10);
    assert_eq!(outputs[0].output, "out");
    assert!(sim.outputs().is_empty(), "take_outputs drains");
}

#[test]
fn commands_to_failed_nodes_are_lost() {
    let mut sim = new_sim(line_topology(2, 20.0), RadioParams::lossless());
    sim.schedule_failure(SimTime::from_ms(5), NodeId(1));
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Unicast(NodeId(0)),
            kind: MsgKind::Result,
            bytes: 4,
            tag: "dead".into(),
        },
    );
    sim.run_until(SimTime::from_ms(1000));
    assert!(
        sim.node(NodeId(0)).received.is_empty(),
        "a dead node sends nothing"
    );
    assert!(sim.is_failed(NodeId(1)));
}

#[test]
fn a_crashed_senders_queued_frames_still_go_out() {
    // A pinned deviation, for the fix to flip: "a dead node transmits
    // nothing" holds only for frames sent after the crash. Node 1 queues
    // five unicast frames at 10 ms and crashes at 15 ms, while the first is
    // on the air; delivery never asks whether the sender is still alive,
    // so node 0 receives all five and all five are charged. Fixed, node 0
    // would receive at most the one in flight.
    let mut sim = new_sim(line_topology(2, 20.0), RadioParams::lossless());
    for i in 0..5 {
        sim.schedule_command(
            SimTime::from_ms(10),
            NodeId(1),
            Cmd::Send {
                dest: Destination::Unicast(NodeId(0)),
                kind: MsgKind::Result,
                bytes: 40,
                tag: format!("r{i}"),
            },
        );
    }
    sim.schedule_failure(SimTime::from_ms(15), NodeId(1));
    sim.run_until(SimTime::from_ms(1000));
    let arrivals: Vec<u64> = sim.node(NodeId(0)).received.iter().map(|r| r.0).collect();
    assert_eq!(arrivals, [23, 36, 50, 63, 77]);
    assert_eq!(sim.metrics().tx_count(MsgKind::Result), 5);
    assert!(sim.is_failed(NodeId(1)));
}

#[test]
fn recovery_resets_app_state() {
    let mut sim = new_sim(line_topology(2, 20.0), RadioParams::lossless());
    // Deliver one frame, then crash and recover the receiver: the fresh app
    // instance must have empty state.
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Unicast(NodeId(0)),
            kind: MsgKind::Result,
            bytes: 4,
            tag: "x".into(),
        },
    );
    sim.schedule_failure(SimTime::from_ms(100), NodeId(0));
    sim.schedule_recovery(SimTime::from_ms(200), NodeId(0));
    sim.run_until(SimTime::from_ms(300));
    assert!(
        sim.node(NodeId(0)).received.is_empty(),
        "volatile state must be lost on reboot"
    );
    assert!(!sim.is_failed(NodeId(0)));
}

#[test]
fn timers_of_failed_nodes_are_dropped() {
    let mut sim = new_sim(line_topology(2, 20.0), RadioParams::lossless());
    sim.schedule_command(
        SimTime::from_ms(0),
        NodeId(1),
        Cmd::Timer {
            delay_ms: 500,
            key: 1,
        },
    );
    sim.schedule_failure(SimTime::from_ms(100), NodeId(1));
    sim.run_until(SimTime::from_ms(1000));
    assert!(
        sim.node(NodeId(1)).timers.is_empty(),
        "timer fired on a dead node"
    );
}

#[test]
fn multicast_is_not_retransmitted_on_loss() {
    // Documented behaviour: only unicast frames are retried; multicast
    // receivers that lose a frame simply miss it.
    let mut radio = RadioParams::lossless();
    radio.loss_rate = 1.0;
    radio.max_retries = 3;
    let mut sim = new_sim(line_topology(3, 20.0), radio);
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        Cmd::Send {
            dest: Destination::Multicast(vec![NodeId(0), NodeId(2)]),
            kind: MsgKind::Result,
            bytes: 4,
            tag: "m".into(),
        },
    );
    sim.run_until(SimTime::from_ms(2000));
    assert_eq!(sim.metrics().retransmissions(), 0);
    assert!(sim.node(NodeId(0)).received.is_empty());
    assert!(sim.node(NodeId(2)).received.is_empty());
}

/// Topology for the CSMA cap tests: a sender S with two audible neighbours
/// A and B that are hidden from each other, plus a receiver R that hears
/// both S and B (but not A).
///
/// ```text
///   A(-40) --- S(0) -- R(20) -- B(40)      radio range 50
/// ```
fn csma_cap_topology() -> Topology {
    Topology::from_positions(
        [-40.0, 0.0, 20.0, 40.0]
            .iter()
            .map(|&x| Position { x, y: 0.0 })
            .collect(),
        50.0,
    )
    .unwrap()
}

const CSMA_CAP_A: NodeId = NodeId(0);
const CSMA_CAP_S: NodeId = NodeId(1);
const CSMA_CAP_R: NodeId = NodeId(2);
const CSMA_CAP_B: NodeId = NodeId(3);

/// Drives the cap topology: A and B (mutually hidden, so neither defers to
/// the other) each air a long frame, staggered so S hears two chained
/// windows; S then tries to transmit during the first.
fn run_csma_cap_scenario(csma_max_deferrals: u32) -> Simulator<Probe> {
    let mut radio = RadioParams::lossless();
    radio.collisions = true;
    radio.max_retries = 0;
    radio.csma_max_deferrals = csma_max_deferrals;
    let mut sim = new_sim(csma_cap_topology(), radio);
    // Two ~205 ms frames starting 2 ms apart: deferring past A's frame
    // lands the sender inside B's window.
    for (node, at_ms) in [(CSMA_CAP_A, 10), (CSMA_CAP_B, 12)] {
        sim.schedule_command(
            SimTime::from_ms(at_ms),
            node,
            Cmd::Send {
                dest: Destination::Broadcast,
                kind: MsgKind::Result,
                bytes: 1000,
                tag: "long".into(),
            },
        );
    }
    sim.schedule_command(
        SimTime::from_ms(50),
        CSMA_CAP_S,
        Cmd::Send {
            dest: Destination::Broadcast,
            kind: MsgKind::Result,
            bytes: 4,
            tag: "poke".into(),
        },
    );
    sim.run_until(SimTime::from_ms(2_000));
    sim
}

#[test]
fn csma_deferral_cap_falls_through_to_transmit_with_collision() {
    // With a budget of one deferral, the sender jumps past the first
    // audible frame, gives up sensing, and transmits inside the second
    // frame's window — colliding with it at the common receiver R instead
    // of deferring forever.
    let sim = run_csma_cap_scenario(1);
    let stats = sim.engine_stats();
    assert_eq!(
        stats.csma_capped_deferrals, 1,
        "the capped fall-through should have triggered exactly once"
    );
    assert!(
        sim.metrics().collisions() >= 1,
        "the capped transmission should collide rather than defer"
    );
    // All three frames were still put on the air, and the slab recycled.
    assert_eq!(sim.metrics().tx_count_total(), 3);
    assert_eq!(stats.frames_total, 3);
    assert!(sim
        .node(CSMA_CAP_R)
        .received
        .iter()
        .all(|(_, _, t)| t != "long"));
}

#[test]
fn fault_plan_crashes_and_recovers_on_schedule() {
    let mut sim = new_sim(line_topology(2, 20.0), RadioParams::lossless());
    sim.install_fault_plan(&FaultPlan::scripted(vec![(NodeId(1), 100, Some(500))]));
    sim.run_until(SimTime::from_ms(200));
    assert!(sim.is_failed(NodeId(1)));
    sim.run_until(SimTime::from_ms(600));
    assert!(!sim.is_failed(NodeId(1)));
}

#[test]
fn fault_plan_degradation_window_gates_delivery() {
    // A total-loss window from 1 s to 3 s: frames inside it vanish, frames
    // on either side get through.
    let mut radio = RadioParams::lossless();
    radio.max_retries = 0;
    let mut sim = new_sim(line_topology(2, 20.0), radio);
    sim.install_fault_plan(&FaultPlan {
        degradations: vec![LinkDegradation {
            from_ms: 1_000,
            until_ms: 3_000,
            added_loss: 1.0,
        }],
        ..FaultPlan::default()
    });
    for at_ms in [500u64, 2_000, 4_000] {
        sim.schedule_command(
            SimTime::from_ms(at_ms),
            NodeId(1),
            Cmd::Send {
                dest: Destination::Unicast(NodeId(0)),
                kind: MsgKind::Result,
                bytes: 4,
                tag: format!("t{at_ms}"),
            },
        );
    }
    sim.run_until(SimTime::from_ms(6_000));
    let tags: Vec<&str> = sim
        .node(NodeId(0))
        .received
        .iter()
        .map(|(_, _, t)| t.as_str())
        .collect();
    assert_eq!(tags, vec!["t500", "t4000"]);
    assert_eq!(sim.metrics().losses(), 1);
}

/// A busy 4×4 grid for the fault-plan tests: an RNG-drawing loss path,
/// retries, maintenance beacons, and unicasts toward the base station
/// spread over the first 17 s of a 20 s run.
fn lossy_grid_sim() -> Simulator<Probe> {
    let mut radio = RadioParams::lossless();
    radio.loss_rate = 0.3;
    radio.max_retries = 2;
    let config = SimConfig {
        seed: 99,
        maintenance_interval_ms: Some(700),
    };
    let mut sim = Simulator::new(
        Topology::grid(4).unwrap(),
        radio,
        config,
        Box::new(ConstantField),
        |_, _| Probe::default(),
    );
    for i in 0..40u64 {
        sim.schedule_command(
            SimTime::from_ms(i * 431),
            NodeId((1 + i % 15) as u16),
            Cmd::Send {
                dest: Destination::Unicast(NodeId(0)),
                kind: MsgKind::Result,
                bytes: 12,
                tag: format!("m{i}"),
            },
        );
    }
    sim
}

const LOSSY_GRID_END_MS: u64 = 20_000;

/// Everything observable about a finished run.
fn observables(
    sim: &Simulator<Probe>,
) -> (Vec<OutputRecord<String>>, MetricsSnapshot, EngineStats) {
    (
        sim.outputs().to_vec(),
        sim.metrics().snapshot(),
        sim.engine_stats(),
    )
}

fn sampled_crashes(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        random_crashes: Some(RandomCrashes {
            fraction: 0.2,
            from_ms: 6_000,
            until_ms: 12_000,
            outage_ms: Some(3_000),
        }),
        ..FaultPlan::default()
    }
}

#[test]
fn empty_fault_plan_leaves_runs_bit_identical() {
    // Installing an empty plan must not perturb the event queue or the RNG
    // stream: the run's full metrics snapshot stays equal to a run that
    // never heard of fault plans.
    let run = |install_empty_plan: bool| {
        let mut sim = lossy_grid_sim();
        if install_empty_plan {
            sim.install_fault_plan(&FaultPlan::default());
        }
        sim.run_until(SimTime::from_ms(LOSSY_GRID_END_MS));
        sim.metrics().snapshot()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn stopping_mid_run_is_unobservable_and_the_plan_decides_the_future() {
    // A plan installed at time zero decides the run: the same plan gives
    // the same future, different sampled plans diverge, and stopping
    // `run_until` at an instant and resuming is the straight run.
    let run = |plan: Option<FaultPlan>, stop_ms: Option<u64>| {
        let mut sim = lossy_grid_sim();
        if let Some(plan) = plan {
            sim.install_fault_plan(&plan);
        }
        if let Some(stop_ms) = stop_ms {
            sim.run_until(SimTime::from_ms(stop_ms));
        }
        sim.run_until(SimTime::from_ms(LOSSY_GRID_END_MS));
        observables(&sim)
    };
    let control = run(None, None);
    assert_eq!(
        run(None, Some(4_321)),
        control,
        "stopping mid-run must be unobservable"
    );

    let (a, b) = (
        run(Some(sampled_crashes(1)), None),
        run(Some(sampled_crashes(2)), None),
    );
    assert!(a.2.fault_events > 0, "plan A's crashes must fire");
    assert_ne!(a, control, "plan A's crashes must be observable");
    assert_ne!(b, control, "plan B's crashes must be observable");
    assert_ne!(a, b, "different plans must diverge");
    assert_eq!(
        run(Some(sampled_crashes(1)), None),
        a,
        "the same plan is the same future"
    );
    assert_eq!(
        run(Some(sampled_crashes(1)), Some(7_777)),
        a,
        "stopping mid-run under a plan must be unobservable"
    );
}

#[test]
fn csma_default_budget_defers_clear_of_the_same_backlog() {
    // The identical scenario under the default budget: the sender defers
    // past both windows, so its own frame collides with nothing. (A's and
    // B's long frames still corrupt each other at S — they are hidden
    // terminals — so exactly those two collisions remain.)
    let sim = run_csma_cap_scenario(RadioParams::default().csma_max_deferrals);
    assert_eq!(sim.engine_stats().csma_capped_deferrals, 0);
    assert_eq!(sim.metrics().collisions(), 2);
    assert_eq!(sim.metrics().tx_count_total(), 3);
    // R hears B's long frame and S's poke (A is out of R's range).
    assert_eq!(sim.node(CSMA_CAP_R).received.len(), 2);
}
