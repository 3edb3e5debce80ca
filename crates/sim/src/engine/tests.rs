//! The event queue's determinism contract: a `BinaryHeap<Event<_>>` pops in
//! exactly ascending `(time_us, seq)` order on engine-shaped streams. The
//! model is the pushed stream itself, sorted — not a second heap, which would
//! be the same code checking itself.
//!
//! And a frame's payload's: the frame owns it, a retry clones it and no
//! receiver does; an `Arc` payload a relay clones is the received
//! allocation, and nothing else about the run can tell it from a copy.
//!
//! And the collision model's: the receivers a run reports each frame
//! corrupted at are those a plain `Vec` of audible frames per node and a
//! plain set of `(frame, receiver)` pairs give for the same transmissions —
//! on random floods, and on fan-outs past one 64-bit word. What the model's
//! per-touch purge cutoff misses behind a backlogged sender is pinned too.
//!
//! And the frame slab's: it recycles slots, so its high water is set by how
//! many frames are on the air at once, not by how long the run is.

use super::{Ctx, EngineStats, Event, EventKind, FrameState, NodeApp, SimConfig, Simulator};
use crate::incoming::IncomingFrame;
use crate::{
    ConstantField, Destination, MsgKind, NodeId, Position, Probe, RadioParams, RingSink, SimTime,
    Topology, TraceEvent, TraceHandle, TraceRecord,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, BinaryHeap};
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

#[test]
fn an_arc_payload_keeps_the_frame_slot_at_48_bytes() {
    // A slot owns its payload by value: an app whose frames are fat or
    // shared declares an `Arc` payload, and its slot holds the pointer.
    #[allow(dead_code)]
    struct Fat([u8; 256]);
    assert_eq!(std::mem::size_of::<FrameState<Arc<Fat>>>(), 48);
    // A pointer to an unsized payload is two words wide.
    assert_eq!(Simulator::<Relay>::FRAME_SLOT_BYTES, 56);
}

/// What a [`Relay`] node does with every frame it is handed.
#[derive(Debug, Clone, Copy)]
enum Hop {
    Keep,
    /// Re-send to this node a clone of the `Arc` it was handed.
    Share(NodeId),
    /// Re-send to this node a fresh copy of the text.
    Copy(NodeId),
}

#[derive(Debug)]
enum RelayCmd {
    Originate(Destination),
    Nap(u64),
}

/// Records where each payload it is handed lives, then relays per its `hop`.
#[derive(Debug)]
struct Relay {
    hop: Hop,
    /// Address of every payload handed to this node, in arrival order.
    heard: Vec<*const str>,
}

const FRAME_BYTES: usize = 12;

impl Relay {
    fn handle(&mut self, ctx: &mut Ctx<'_, Arc<str>, ()>, payload: &Arc<str>) {
        self.heard.push(Arc::as_ptr(payload));
        let (to, payload) = match self.hop {
            Hop::Keep => return,
            Hop::Share(to) => (to, Arc::clone(payload)),
            Hop::Copy(to) => (to, Arc::from(&**payload)),
        };
        ctx.send(
            Destination::Unicast(to),
            MsgKind::Result,
            FRAME_BYTES,
            payload,
        );
    }
}

impl NodeApp for Relay {
    type Payload = Arc<str>;
    type Command = RelayCmd;
    type Output = ();

    fn on_start(&mut self, _ctx: &mut Ctx<'_, Arc<str>, ()>) {}

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Arc<str>, ()>, _key: u64) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_, Arc<str>, ()>, _: NodeId, _: MsgKind, p: &Arc<str>) {
        self.handle(ctx, p);
    }

    fn on_overhear(
        &mut self,
        ctx: &mut Ctx<'_, Arc<str>, ()>,
        _: NodeId,
        _: MsgKind,
        p: &Arc<str>,
    ) {
        self.handle(ctx, p);
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, Arc<str>, ()>, cmd: RelayCmd) {
        match cmd {
            RelayCmd::Originate(dest) => {
                ctx.send(dest, MsgKind::Result, FRAME_BYTES, "rows".into())
            }
            RelayCmd::Nap(ms) => ctx.sleep_for(ms),
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
    let topology = Topology::from_positions(line, 50.0).unwrap();
    traced_sim(topology, move |node, _| Relay {
        hop: hops[node.index()],
        heard: Vec::new(),
    })
}

/// A traced simulator with the default (collision-modelling, lossless)
/// radio and no maintenance beacons, and the ring its trace goes to.
fn traced_sim<A: NodeApp>(
    topology: Topology,
    factory: impl FnMut(NodeId, &Topology) -> A + Send + 'static,
) -> (Simulator<A>, Arc<Mutex<RingSink>>) {
    let mut sim = Simulator::new(
        topology,
        RadioParams::default(),
        SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        Box::new(ConstantField),
        factory,
    );
    let ring = Arc::new(Mutex::new(RingSink::new()));
    sim.set_trace(TraceHandle::shared(ring.clone()));
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
fn a_relayed_arc_and_its_retransmissions_share_the_received_allocation() {
    let (sim, _) = relayed_through_a_nap(Hop::Share(NodeId(0)));
    let at_relay = &sim.node(NodeId(1)).heard;
    assert_eq!(at_relay.len(), 1);
    // The base station was handed the very allocation the relay was.
    assert_eq!(&sim.node(NodeId(0)).heard, at_relay);
}

#[test]
fn sharing_a_relayed_arc_is_observably_sending_a_copy() {
    let (shared, shared_trace) = relayed_through_a_nap(Hop::Share(NodeId(0)));
    let (copied, copied_trace) = relayed_through_a_nap(Hop::Copy(NodeId(0)));
    assert_eq!(shared.metrics().snapshot(), copied.metrics().snapshot());
    assert_eq!(shared.engine_stats(), copied.engine_stats());
    assert_eq!(shared_trace, copied_trace);
    assert_eq!(copied.node(NodeId(1)).heard.len(), 1);
    assert_ne!(copied.node(NodeId(0)).heard, copied.node(NodeId(1)).heard);
}

#[test]
fn an_overhearer_may_relay_too() {
    // Node 1 sends to node 2; node 0 overhears it and hands it back.
    let (mut sim, _) = relay_line([Hop::Share(NodeId(1)), Hop::Keep, Hop::Keep]);
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

thread_local! {
    /// Clones of a [`Counted`] payload made on this thread.
    static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A by-value payload that counts its clones.
#[derive(Debug)]
struct Counted;

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.with(|c| c.set(c.get() + 1));
        Counted
    }
}

/// Sends one unicast frame to node 0 when commanded; otherwise idle.
#[derive(Debug)]
struct Once;

impl NodeApp for Once {
    type Payload = Counted;
    type Command = Option<u64>;
    type Output = ();

    fn on_start(&mut self, _: &mut Ctx<'_, Counted, ()>) {}

    fn on_timer(&mut self, _: &mut Ctx<'_, Counted, ()>, _: u64) {}

    fn on_message(&mut self, _: &mut Ctx<'_, Counted, ()>, _: NodeId, _: MsgKind, _: &Counted) {}

    /// `Some(ms)` naps that long; `None` sends.
    fn on_command(&mut self, ctx: &mut Ctx<'_, Counted, ()>, nap: Option<u64>) {
        match nap {
            Some(ms) => ctx.sleep_for(ms),
            None => ctx.send(Destination::Unicast(NodeId(0)), MsgKind::Result, 4, Counted),
        }
    }
}

#[test]
fn a_by_value_payload_is_cloned_once_per_retry_and_never_per_receiver() {
    // Node 1 sends to node 0 in a triangle, so node 2 overhears every
    // attempt; node 0 naps through the first ones.
    let triangle = vec![
        Position { x: 0.0, y: 0.0 },
        Position { x: 10.0, y: 0.0 },
        Position { x: 5.0, y: 5.0 },
    ];
    let topology = Topology::from_positions(triangle, 50.0).unwrap();
    let (mut sim, _) = traced_sim(topology, |_, _| Once);
    sim.schedule_command(SimTime::from_ms(5), NodeId(0), Some(60));
    sim.schedule_command(SimTime::from_ms(10), NodeId(1), None);
    CLONES.with(|c| c.set(0));
    sim.run_until(SimTime::from_ms(2_000));
    let retries = sim.metrics().retransmissions();
    assert!(retries >= 2, "{retries} retries");
    assert_eq!(sim.metrics().gave_up(), 0);
    assert_eq!(CLONES.with(|c| c.get()), retries);
}

/// A frame corrupted at a receiver, named by what a trace shows of it:
/// `(sender, end of airtime µs, receiver)`. One sender's frames serialize,
/// so the first two name the frame.
type Corrupted = BTreeSet<(NodeId, u64, NodeId)>;

/// The collision records of a trace.
fn traced_collisions<'a>(records: impl Iterator<Item = &'a TraceRecord>) -> Corrupted {
    records
        .filter_map(|r| match r.event {
            TraceEvent::Engine(Probe::Collision(at)) => Some((at.src, r.time_us, at.node)),
            _ => None,
        })
        .collect()
}

/// The collision model, kept apart from the engine's code: the trace's
/// `Tx` records in emission order, each touching its sender's
/// neighbours' lists of audible frames — purge what ended by the new frame's
/// start, corrupt both sides of every overlap, push.
fn reference_collisions<'a>(
    topology: &Topology,
    records: impl Iterator<Item = &'a TraceRecord>,
) -> Corrupted {
    let mut audible: Vec<Vec<IncomingFrame>> = vec![Vec::new(); topology.node_count()];
    let mut frames = Vec::new();
    let mut corrupted = Corrupted::new();
    for record in records {
        let TraceEvent::Engine(Probe::Tx {
            node: src,
            airtime_us,
            ..
        }) = record.event
        else {
            continue;
        };
        let new = IncomingFrame {
            start_us: record.time_us,
            dur_us: airtime_us as u32,
            frame: frames.len() as u32,
        };
        frames.push((src, new.end_us()));
        for &r in topology.neighbors(src) {
            let here = &mut audible[r.index()];
            here.retain(|other| other.end_us() > new.start_us);
            for other in here.iter() {
                if other.start_us < new.end_us() {
                    let (their_src, their_end) = frames[other.frame as usize];
                    corrupted.insert((src, new.end_us(), r));
                    corrupted.insert((their_src, their_end, r));
                }
            }
            here.push(new);
        }
    }
    corrupted
}

/// Rebroadcasts the first copy it hears of each flood; a flood is named by
/// its payload.
#[derive(Debug)]
struct Flooder {
    seen: Vec<u16>,
    heard: usize,
}

impl NodeApp for Flooder {
    type Payload = u16;
    type Command = (Destination, u16);
    type Output = ();

    fn on_start(&mut self, _ctx: &mut Ctx<'_, u16, ()>) {}

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u16, ()>, _key: u64) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_, u16, ()>, _: NodeId, _: MsgKind, flood: &u16) {
        self.heard += 1;
        if !self.seen.contains(flood) {
            self.seen.push(*flood);
            ctx.send(Destination::Broadcast, MsgKind::Result, FRAME_BYTES, *flood);
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, u16, ()>, (dest, flood): (Destination, u16)) {
        self.seen.push(flood);
        ctx.send(dest, MsgKind::Result, FRAME_BYTES, flood);
    }
}

/// `Flooder`s that never sleep, traced; `quiet` ones hear but do not
/// rebroadcast (every flood of a quiet run is number 0).
fn flooders(topology: Topology, quiet: bool) -> (Simulator<Flooder>, Arc<Mutex<RingSink>>) {
    traced_sim(topology, move |_, _| Flooder {
        seen: if quiet { vec![0] } else { Vec::new() },
        heard: 0,
    })
}

/// A connected deployment: each node is placed within range of an earlier
/// one. `steps[i]` is node `i + 1`'s `(anchor, dx, dy)`.
fn chained_positions(steps: &[(usize, f64, f64)]) -> Vec<Position> {
    let mut positions = vec![Position { x: 0.0, y: 0.0 }];
    for &(anchor, dx, dy) in steps {
        let at = positions[anchor % positions.len()];
        positions.push(Position {
            x: at.x + dx,
            y: at.y + dy,
        });
    }
    positions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn traced_collisions_are_the_reference_models(
        // |(dx, dy)| ≤ 35·√2 < 50: every node is in range of its anchor.
        steps in prop::collection::vec((0usize..16, -35.0f64..35.0, -35.0f64..35.0), 2..14),
        floods in prop::collection::vec((0usize..16, 0u64..40, 0usize..16), 1..6),
    ) {
        let topology = Topology::from_positions(chained_positions(&steps), 50.0).unwrap();
        let n = topology.node_count();
        let (mut sim, ring) = flooders(topology, false);
        for (flood, &(origin, at_ms, to)) in floods.iter().enumerate() {
            let origin = NodeId((origin % n) as u16);
            // Every third flood starts as a unicast, so retransmissions and
            // their backoff are part of the schedule.
            let neighbors = sim.topology().neighbors(origin);
            let dest = match flood % 3 {
                0 => Destination::Unicast(neighbors[to % neighbors.len()]),
                _ => Destination::Broadcast,
            };
            sim.schedule_command(SimTime::from_ms(at_ms), origin, (dest, flood as u16));
        }
        sim.run_until(SimTime::from_ms(60_000));
        prop_assert_eq!(sim.engine_stats().frames_in_flight, 0);
        let ring = ring.lock().unwrap();
        let traced = traced_collisions(ring.records());
        prop_assert_eq!(traced.len() as u64, sim.metrics().snapshot().collisions);
        prop_assert_eq!(traced, reference_collisions(sim.topology(), ring.records()));
    }
}

/// Two senders out of each other's range, each in range of its own 65-node
/// cluster and of four shared receivers with the highest ids — positions
/// 65..=68 of either sender's neighbour slice — and a narrow node in range
/// of those four only.
fn two_wide_hidden_senders() -> Topology {
    let column = |x: f64, count: usize| {
        (0..count).map(move |k| Position {
            x,
            y: k as f64 * 0.5 - 16.0,
        })
    };
    let mut positions = vec![Position { x: 0.0, y: 0.0 }, Position { x: 80.0, y: 0.0 }];
    positions.extend(column(-20.0, 65));
    positions.extend(column(100.0, 65));
    positions.extend((0..4).map(|k| Position {
        x: 40.0,
        y: f64::from(k),
    }));
    positions.push(Position { x: 40.0, y: 45.0 });
    Topology::from_positions(positions, 50.0).unwrap()
}

#[test]
fn collisions_past_bit_64_and_recycled_slots_match_the_reference() {
    let (left, right, narrow) = (NodeId(0), NodeId(1), NodeId(136));
    let shared: Vec<NodeId> = (132..136).map(NodeId).collect();
    let (mut sim, ring) = flooders(two_wide_hidden_senders(), true);
    assert_eq!(sim.topology().neighbors(left).len(), 69);
    assert_eq!(sim.topology().neighbors(left)[65..], shared[..]);
    assert_eq!(sim.topology().neighbors(right)[65..], shared[..]);
    assert_eq!(sim.topology().neighbors(narrow), &shared[..]);

    // Each round's senders start at the same instant, hidden from each
    // other; a lone sender must be heard everywhere, whatever the slot it
    // recycles was last used for.
    let rounds: [&[NodeId]; 5] = [
        &[left, right],
        &[narrow],
        &[left, narrow],
        &[right],
        &[narrow, right],
    ];
    let mut heard_by_shared = 0;
    for (round, senders) in rounds.iter().enumerate() {
        let at = SimTime::from_ms(100 * (round as u64 + 1));
        for &sender in *senders {
            sim.schedule_command(at, sender, (Destination::Broadcast, 0));
        }
        let collisions_before = sim.metrics().snapshot().collisions;
        sim.run_until(at + 90);
        let collided = sim.metrics().snapshot().collisions - collisions_before;
        if senders.len() == 1 {
            heard_by_shared += 1;
            assert_eq!(collided, 0, "round {round}: a lone frame was corrupted");
        } else {
            assert_eq!(collided, 8, "round {round}: two frames at four receivers");
        }
        for &node in &shared {
            assert_eq!(sim.node(node).heard, heard_by_shared, "round {round}");
        }
    }
    // Two slots served all eight frames, wide and narrow alike.
    assert_eq!(sim.engine_stats().frame_slab_high_water, 2);
    assert_eq!(sim.engine_stats().frames_total, 8);

    let ring = ring.lock().unwrap();
    let traced = traced_collisions(ring.records());
    assert_eq!(traced, reference_collisions(sim.topology(), ring.records()));
    assert_eq!(traced.len(), 24);
    assert!(traced.iter().all(|(_, _, node)| shared.contains(node)));
}

/// Broadcasts one frame of the commanded payload length; counts the frames
/// it receives intact.
#[derive(Debug, Default)]
struct Talker {
    heard: usize,
}

impl NodeApp for Talker {
    type Payload = ();
    type Command = usize;
    type Output = ();

    fn on_start(&mut self, _ctx: &mut Ctx<'_, (), ()>) {}

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, (), ()>, _key: u64) {}

    fn on_message(&mut self, _: &mut Ctx<'_, (), ()>, _: NodeId, _: MsgKind, _: &()) {
        self.heard += 1;
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, (), ()>, bytes: usize) {
        ctx.send(Destination::Broadcast, MsgKind::Result, bytes, ());
    }
}

// A hidden-terminal line `A — R — B — D` with `C` off `R`: `R` hears `A`,
// `B` and `C`, `B` also hears `D`, and no other pair is in range.
const R: NodeId = NodeId(0);
const A: NodeId = NodeId(1);
const B: NodeId = NodeId(2);
const D: NodeId = NodeId(3);
const C: NodeId = NodeId(4);

/// At 10 ms `A` and `D` put 7.8 ms frames on the air. At 11 ms `B`, if
/// `backlogged`, sends one too: carrier sense at `B` hears `D`'s frame and
/// defers past 17.8 ms, so `B`'s frame touches `R` with a future start. At
/// 12 ms `third` sends a 5.4 ms frame, which ends before `B`'s can start.
fn behind_a_backlogged_neighbour(
    backlogged: bool,
    third: NodeId,
) -> (Simulator<Talker>, Arc<Mutex<RingSink>>) {
    let at = |x, y| Position { x, y };
    let line = vec![
        at(0.0, 0.0),
        at(-40.0, 0.0),
        at(40.0, 0.0),
        at(80.0, 0.0),
        at(0.0, 40.0),
    ];
    let topology = Topology::from_positions(line, 50.0).unwrap();
    assert_eq!(topology.neighbors(R), [A, B, C]);
    assert_eq!(topology.neighbors(B), [R, D]);
    let (mut sim, ring) = traced_sim(topology, |_, _| Talker::default());
    sim.schedule_command(SimTime::from_ms(10), A, FRAME_BYTES);
    sim.schedule_command(SimTime::from_ms(10), D, FRAME_BYTES);
    if backlogged {
        sim.schedule_command(SimTime::from_ms(11), B, FRAME_BYTES);
    }
    sim.schedule_command(SimTime::from_ms(12), third, 0);
    sim.run_until(SimTime::from_ms(11));
    // `A`'s frame is on the air at `R` until 17.8 ms. `B`'s touch, cut off
    // at its future start, has dropped it from `R`'s block.
    let a_frame_seen = sim.incoming.node(R.index()).contains(&IncomingFrame {
        start_us: 10_000,
        dur_us: 7_800,
        frame: 0,
    });
    assert_eq!(a_frame_seen, !backlogged);
    sim.run_until(SimTime::from_ms(100));
    (sim, ring)
}

/// `(start, end)` of `src`'s one transmission, µs.
fn airtime_of(ring: &Mutex<RingSink>, src: NodeId) -> (u64, u64) {
    let ring = ring.lock().unwrap();
    let mut sent = ring.records().filter_map(|r| match r.event {
        TraceEvent::Engine(Probe::Tx {
            node, airtime_us, ..
        }) if node == src => Some((r.time_us, r.time_us + airtime_us)),
        _ => None,
    });
    let airtime = sent.next().expect("one transmission");
    assert_eq!(sent.next(), None);
    airtime
}

/// The per-touch purge cutoff (DESIGN.md §9, "Incoming blocks") is
/// the model's, not physics': a frame still on the air at a receiver leaves
/// its block as soon as a backlogged neighbour's frame, starting later,
/// touches it. Pinned here as it behaves; fixing it moves the fingerprint.
#[test]
fn a_backlogged_neighbours_future_frame_hides_a_frame_still_on_the_air() {
    // `C`'s frame overlaps `A`'s at `R` either way; only without `B`'s
    // touch does the model corrupt them.
    for backlogged in [false, true] {
        let (sim, ring) = behind_a_backlogged_neighbour(backlogged, C);
        let (a, c) = (airtime_of(&ring, A), airtime_of(&ring, C));
        assert_eq!((a, c), ((10_000, 17_800), (12_000, 17_400)));
        let corrupted = traced_collisions(ring.lock().unwrap().records());
        if backlogged {
            assert!(airtime_of(&ring, B).0 >= a.1 + 200, "B deferred behind D");
            assert_eq!(corrupted, Corrupted::new(), "the overlap at R is missed");
            assert_eq!(sim.node(R).heard, 3);
        } else {
            assert_eq!(corrupted, Corrupted::from([(A, a.1, R), (C, c.1, R)]));
            assert_eq!(sim.node(R).heard, 0);
        }
    }
    // `R`'s own carrier sense misses `A`'s frame the same way.
    for backlogged in [false, true] {
        let (_, ring) = behind_a_backlogged_neighbour(backlogged, R);
        let r_start = airtime_of(&ring, R).0;
        if backlogged {
            assert_eq!(r_start, 12_000, "R transmits over A's frame");
        } else {
            assert!(r_start >= 17_800 + 200, "R defers behind A's frame");
        }
    }
}

/// Broadcast period of every [`Beacon`], ms.
const BEACON_INTERVAL_MS: u64 = 500;

/// Bytes of every [`Beacon`] frame.
const BEACON_BYTES: usize = 64;

/// Every [`BEACON_INTERVAL_MS`] broadcasts one frame and unicasts one to its
/// default parent, from a random phase; counts what it hears. All logic
/// beyond that is the engine's.
#[derive(Debug, Default)]
struct Beacon {
    parent: Option<NodeId>,
    heard: u64,
}

impl NodeApp for Beacon {
    type Payload = u16;
    type Command = ();
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u16, ()>) {
        self.parent = ctx.topology().default_parent(ctx.node());
        let phase = 1 + ctx.rand_u64() % BEACON_INTERVAL_MS;
        ctx.set_timer(phase, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u16, ()>, _key: u64) {
        ctx.send(
            Destination::Broadcast,
            MsgKind::Maintenance,
            BEACON_BYTES,
            0,
        );
        if let Some(parent) = self.parent {
            let to = Destination::Unicast(parent);
            ctx.send(to, MsgKind::Result, BEACON_BYTES, 0);
        }
        ctx.set_timer(BEACON_INTERVAL_MS, 0);
    }

    fn on_message(&mut self, _: &mut Ctx<'_, u16, ()>, _: NodeId, _: MsgKind, _: &u16) {
        self.heard += 1;
    }

    fn on_command(&mut self, _: &mut Ctx<'_, u16, ()>, _: ()) {}

    fn on_overhear(&mut self, _: &mut Ctx<'_, u16, ()>, _: NodeId, _: MsgKind, _: &u16) {
        self.heard += 1;
    }
}

/// A 3×3 grid of [`Beacon`]s under CSMA, run for `ms`: two 64-byte frames a
/// node per 500 ms is well under channel capacity, so the backlog stays
/// bounded. Returns the engine's counters and the frames the apps heard.
fn beacons(ms: u64) -> (EngineStats, u64) {
    let mut sim = Simulator::new(
        Topology::grid(3).unwrap(),
        RadioParams::default(),
        SimConfig {
            seed: 0xE161E,
            maintenance_interval_ms: None,
        },
        Box::new(ConstantField),
        |_, _| Beacon::default(),
    );
    sim.run_until(SimTime::from_ms(ms));
    let heard = (0..9).map(|i| sim.node(NodeId(i)).heard).sum();
    (sim.engine_stats(), heard)
}

#[test]
fn beacons_count_events_and_the_slab_stays_far_below_the_frames() {
    let (stats, heard) = beacons(20_000);
    assert!(stats.events_processed > 0 && stats.frames_total > 0 && heard > 0);
    // The slab recycles: its footprint is the frames on the air at once, an
    // order of magnitude below the frames sent.
    assert!((stats.frame_slab_high_water as u64) * 10 < stats.frames_total);
    // Only frames still on the air at the horizon hold slots.
    assert!(stats.frames_in_flight <= stats.frame_slab_high_water);
}

#[test]
fn slab_high_water_is_flat_in_simulated_time() {
    let (short, _) = beacons(20_000);
    let (long, _) = beacons(200_000);
    assert!(long.frames_total > 5 * short.frames_total);
    assert!(
        long.frame_slab_high_water <= short.frame_slab_high_water * 2,
        "slab high water must stay flat: {} (20 s) vs {} (200 s)",
        short.frame_slab_high_water,
        long.frame_slab_high_water,
    );
}
