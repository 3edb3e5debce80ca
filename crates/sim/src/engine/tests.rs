//! The event queue's determinism contract: a `BinaryHeap<Event<_>>` pops in
//! exactly ascending `(time_us, seq)` order on engine-shaped streams. The
//! model is the pushed stream itself, sorted — not a second heap, which would
//! be the same code checking itself.
//!
//! And `Ctx::forward`'s: the forwarded frame is the received allocation, and
//! nothing else about the run can tell it from `send` of a clone.

use super::{Ctx, Event, EventKind, NodeApp, SimConfig, Simulator};
use crate::{
    ConstantField, Destination, MsgKind, NodeId, Observe, Position, RadioParams, RingSink, SimTime,
    Topology, TraceHandle,
};
use proptest::prelude::*;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

/// One scripted step. Times are relative to the last popped event, as in
/// the engine, which never schedules into the past.
#[derive(Debug, Clone)]
enum Op {
    /// A burst of events at one instant (a flood reaching a neighbourhood).
    Ties {
        delta_us: u64,
        count: usize,
    },
    /// A `Deliver` behind a CSMA backlog: within a few hundred ms.
    Near {
        delta_us: u64,
    },
    /// A maintenance beacon: about 30 s out.
    Sparse {
        jitter_us: u64,
    },
    Pop,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Near-future pushes and pops dominate, so the queue builds a dense
    // cluster and drains through it.
    let op =
        (0usize..7, 0u64..300_000, 1usize..3_000).prop_map(|(sel, delta_us, count)| match sel {
            0 => Op::Ties {
                delta_us: delta_us % 2_000,
                count,
            },
            1..=3 => Op::Near { delta_us },
            4 => Op::Sparse {
                jitter_us: delta_us * 3,
            },
            _ => Op::Pop,
        });
    prop::collection::vec(op, 0..120)
}

/// `(time_us, seq, frame)` of an event; `frame` shows the payload travelled
/// with its key.
fn key(e: &Event<()>) -> (u64, u64, usize) {
    let EventKind::Deliver { frame } = e.kind else {
        panic!("only Deliver events are pushed");
    };
    (e.time_us, e.seq, frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pops_are_the_stream_sorted_by_time_then_seq(ops in arb_ops()) {
        let mut queue: BinaryHeap<Event<()>> = BinaryHeap::new();
        // Everything pushed and not yet popped, in push order.
        let mut pending: Vec<(u64, u64, usize)> = Vec::new();
        let (mut now, mut seq) = (0u64, 0u64);
        let mut push = |queue: &mut BinaryHeap<_>, pending: &mut Vec<_>, time_us: u64| {
            seq += 1;
            let frame = (seq * 2) as usize;
            queue.push(Event { time_us, seq, kind: EventKind::Deliver { frame } });
            pending.push((time_us, seq, frame));
        };
        for op in ops {
            match op {
                Op::Ties { delta_us, count } => {
                    for _ in 0..count {
                        push(&mut queue, &mut pending, now + delta_us);
                    }
                }
                Op::Near { delta_us } => push(&mut queue, &mut pending, now + delta_us),
                Op::Sparse { jitter_us } => {
                    push(&mut queue, &mut pending, now + 30_000_000 + jitter_us)
                }
                Op::Pop => {
                    let expected = pending.iter().copied().min();
                    prop_assert_eq!(queue.pop().as_ref().map(key), expected);
                    if let Some(min) = expected {
                        pending.retain(|&e| e != min);
                        now = min.0;
                    }
                }
            }
        }
        pending.sort_unstable();
        let drained: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|e| key(&e)).collect();
        prop_assert_eq!(drained, pending);
    }
}

#[test]
fn a_fat_command_type_does_not_grow_the_event() {
    #[allow(dead_code)]
    struct Fat([u8; 256]);
    assert!(std::mem::size_of::<Event<Fat>>() <= 32);
}

/// What a [`Relay`] node does with every frame it is handed.
#[derive(Debug, Clone, Copy)]
enum Hop {
    Keep,
    /// Re-send to this node with `Ctx::forward`.
    Forward(NodeId),
    /// Re-send to this node the way relays did before `forward` existed.
    SendClone(NodeId),
}

#[derive(Debug)]
enum RelayCmd {
    Originate(Destination),
    Nap(u64),
    ForwardFromCommand,
    ForwardFromTimer,
}

/// Records where each payload it is handed lives, then relays per its `hop`.
#[derive(Debug)]
struct Relay {
    hop: Hop,
    /// Address of every payload handed to this node, in arrival order.
    heard: Vec<*const String>,
}

const FRAME_BYTES: usize = 12;

impl Relay {
    fn handle(&mut self, ctx: &mut Ctx<'_, String, ()>, payload: &String) {
        self.heard.push(payload);
        match self.hop {
            Hop::Keep => {}
            Hop::Forward(to) => ctx.forward(Destination::Unicast(to), MsgKind::Result, FRAME_BYTES),
            Hop::SendClone(to) => ctx.send(
                Destination::Unicast(to),
                MsgKind::Result,
                FRAME_BYTES,
                payload.clone(),
            ),
        }
    }
}

impl NodeApp for Relay {
    type Payload = String;
    type Command = RelayCmd;
    type Output = ();

    fn on_start(&mut self, _ctx: &mut Ctx<'_, String, ()>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, String, ()>, _key: u64) {
        ctx.forward(Destination::Broadcast, MsgKind::Result, FRAME_BYTES);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, String, ()>, _: NodeId, _: MsgKind, p: &String) {
        self.handle(ctx, p);
    }

    fn on_overhear(&mut self, ctx: &mut Ctx<'_, String, ()>, _: NodeId, _: MsgKind, p: &String) {
        self.handle(ctx, p);
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, String, ()>, cmd: RelayCmd) {
        match cmd {
            RelayCmd::Originate(dest) => {
                ctx.send(dest, MsgKind::Result, FRAME_BYTES, String::from("rows"))
            }
            RelayCmd::Nap(ms) => ctx.sleep_for(ms),
            RelayCmd::ForwardFromCommand => {
                ctx.forward(Destination::Broadcast, MsgKind::Result, FRAME_BYTES)
            }
            RelayCmd::ForwardFromTimer => ctx.set_timer(1, 0),
        }
    }
}

/// Nodes 0 — 1 — 2 in a line, each in range of its neighbours only; `hops`
/// says what each does with a frame. Traced into the returned ring.
fn relay_line(hops: [Hop; 3]) -> (Simulator<Relay>, Arc<Mutex<RingSink>>) {
    let line = (0..3)
        .map(|i| Position {
            x: f64::from(i) * 40.0,
            y: 0.0,
        })
        .collect();
    let mut sim = Simulator::new(
        Topology::from_positions(line, 50.0).unwrap(),
        RadioParams::default(),
        SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        Box::new(ConstantField),
        move |node, _| Relay {
            hop: hops[node.index()],
            heard: Vec::new(),
        },
    );
    let ring = Arc::new(Mutex::new(RingSink::new(0)));
    sim.attach(&Observe {
        trace: TraceHandle::shared(ring.clone()),
        ..Observe::default()
    });
    (sim, ring)
}

/// Node 2 originates a frame to node 1, which relays it (per `relay`) to a
/// base station that naps through the first attempt, so the relayed frame
/// is retransmitted at least once before it arrives.
fn relayed_through_a_nap(relay: Hop) -> (Simulator<Relay>, String) {
    let (mut sim, ring) = relay_line([Hop::Keep, relay, Hop::Keep]);
    sim.schedule_command(SimTime::from_ms(5), NodeId(0), RelayCmd::Nap(40));
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(2),
        RelayCmd::Originate(Destination::Unicast(NodeId(1))),
    );
    sim.run_until(SimTime::from_ms(2_000));
    assert!(sim.metrics().retransmissions() >= 1, "nothing was retried");
    assert_eq!(sim.metrics().gave_up(), 0);
    let trace = ring.lock().unwrap().to_jsonl();
    (sim, trace)
}

#[test]
fn a_forwarded_frame_and_its_retransmissions_share_the_received_payload() {
    let (sim, _) = relayed_through_a_nap(Hop::Forward(NodeId(0)));
    let at_relay = &sim.node(NodeId(1)).heard;
    assert_eq!(at_relay.len(), 1);
    // The base station was handed the very allocation the relay was.
    assert_eq!(&sim.node(NodeId(0)).heard, at_relay);
}

#[test]
fn forward_is_observably_send_of_a_clone() {
    let (shared, shared_trace) = relayed_through_a_nap(Hop::Forward(NodeId(0)));
    let (cloned, cloned_trace) = relayed_through_a_nap(Hop::SendClone(NodeId(0)));
    assert_eq!(shared.metrics().snapshot(), cloned.metrics().snapshot());
    assert_eq!(shared.engine_stats(), cloned.engine_stats());
    assert_eq!(shared_trace, cloned_trace);
    assert_eq!(cloned.node(NodeId(0)).heard.len(), 1);
}

#[test]
fn an_overhearer_may_forward_too() {
    // Node 1 sends to node 2; node 0 overhears it and hands it back.
    let (mut sim, _) = relay_line([Hop::Forward(NodeId(1)), Hop::Keep, Hop::Keep]);
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        RelayCmd::Originate(Destination::Unicast(NodeId(2))),
    );
    sim.run_until(SimTime::from_ms(1_000));
    assert_eq!(sim.node(NodeId(0)).heard.len(), 1);
    assert_eq!(sim.node(NodeId(1)).heard, sim.node(NodeId(0)).heard);
    assert_eq!(sim.node(NodeId(2)).heard, sim.node(NodeId(0)).heard);
}

#[test]
#[should_panic(expected = "no frame is being delivered")]
fn forward_from_a_timer_is_a_programming_error() {
    let (mut sim, _) = relay_line([Hop::Keep; 3]);
    sim.schedule_command(SimTime::from_ms(1), NodeId(1), RelayCmd::ForwardFromTimer);
    sim.run_until(SimTime::from_ms(100));
}

#[test]
#[should_panic(expected = "no frame is being delivered")]
fn forward_from_a_command_is_a_programming_error() {
    let (mut sim, _) = relay_line([Hop::Keep; 3]);
    sim.schedule_command(SimTime::from_ms(1), NodeId(1), RelayCmd::ForwardFromCommand);
    sim.run_until(SimTime::from_ms(100));
}
