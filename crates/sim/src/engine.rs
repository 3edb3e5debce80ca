//! The discrete-event simulation engine.
//!
//! A [`Simulator`] drives one [`NodeApp`] instance per node. Apps interact
//! with the world exclusively through the [`Ctx`] handed to their callbacks:
//! sending frames, setting timers, sampling sensors, sleeping and emitting
//! outputs. The engine models:
//!
//! * per-node channel occupancy — a node's transmissions serialize, and each
//!   costs `C_start + C_trans·len` of airtime (the paper's cost model);
//! * the broadcast nature of the radio — every frame physically reaches all
//!   in-range nodes; the [`Destination`] selects who processes it;
//! * packet-level collisions (optional) — two frames overlapping in time at a
//!   common receiver corrupt each other there, as in packet-level TOSSIM;
//! * random per-receiver loss (optional) and bounded unicast retransmission;
//! * sleep mode — a sleeping node receives nothing until it wakes.
//!
//! Everything is deterministic given the seed.
//!
//! # Hot-path memory design
//!
//! The transmit/deliver loop is what every campaign cell replays thousands
//! of epochs through, so its steady state is allocation-free and its memory
//! bounded by *in-flight* frames, not total transmissions:
//!
//! * payloads are stored once per transmission behind an [`Arc`]; a
//!   broadcast delivered to k neighbours takes one reference for the whole
//!   fan-out and lends `&Payload` to each receiver (retransmissions share
//!   the same allocation too, and so does a relay's [`Ctx::forward`]);
//! * frame state lives in a slab with a free list — a slot is recycled as
//!   soon as the last scheduled delivery of its frame has fired, so slab
//!   length equals the high-water mark of concurrently in-flight frames
//!   (see [`EngineStats::frame_slab_high_water`]);
//! * the per-callback action queue is one per-engine scratch buffer lent to
//!   the [`Ctx`] in place: a callback that queues nothing (an empty
//!   `on_overhear`) costs an emptiness test, and only one that did queue
//!   pays the take / drain / restore; delivery fan-out iterates the
//!   topology's neighbour slice in place rather than copying it;
//! * per-node `incoming` frame lists live in one flat arena and are
//!   unordered: the one pass that touches them (purge, mark overlaps,
//!   append — inlined into `transmit`'s neighbour loop, a fixed four-slot
//!   window for blocks of up to four entries) never shifts an entry, and the
//!   CSMA carrier-sense scan sorts the sender's own block of about two
//!   entries in place before it reads it;
//! * the event queue is a plain [`BinaryHeap`] of 32-byte events popping in
//!   `(time, seq)` order. Events must stay that small (a compile-time
//!   assertion pins it; the one fat payload, a command, is boxed): under a
//!   CSMA backlog thousands of `Deliver` events are pending at once, and
//!   what a push or pop costs is the bytes its sift moves;
//! * one `Deliver` event covers a frame's whole fan-out (receivers are
//!   walked in neighbour order when it fires — provably the order the
//!   per-receiver events popped in), dividing event-queue traffic by the
//!   fan-out factor;
//! * collision markers live in one slab-wide word array, `corrupted`: slot
//!   `s` owns `collision_words` words (the widest neighbourhood's bit
//!   count, rounded up to 64), one bit per position in its sender's
//!   neighbour slice, grown with the slab and cleared when the slot is
//!   released. Marking a new frame sets its bit by loop index; marking the
//!   frame it overlaps binary-searches that frame's sender's neighbour
//!   slice for the receiver's position. A delivery tests bit `i`, and no
//!   path hashes.

use crate::faults::{FaultOverlay, FaultPlan};
use crate::field::SensorField;
use crate::incoming::{IncomingArena, IncomingFrame};
use crate::metrics::Metrics;
use crate::probe::{Probe, Probes, Reception};
use crate::radio::{Destination, MsgKind, RadioParams};
use crate::time::SimTime;
use crate::topology::{NodeId, Topology};
use crate::trace::{TraceDest, TraceEvent, TraceHandle};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Debug;
use std::sync::Arc;
use ttmqo_query::Attribute;

/// Behaviour of one node (including the base station, which is node 0).
///
/// All interaction with the network happens through the [`Ctx`]: the engine
/// applies queued actions after each callback returns.
pub trait NodeApp: Sized {
    /// Application frame payload carried by radio messages.
    type Payload: Clone + Debug;
    /// External commands injected into nodes from outside the network
    /// (e.g. a user posing a query at the base station).
    type Command: Debug;
    /// Records emitted toward the outside world (e.g. query answers
    /// delivered by the base station).
    type Output: Debug;

    /// Called once for every node when the simulation starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Payload, Self::Output>);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Payload, Self::Output>, key: u64);

    /// Called when a frame addressed to this node is received intact.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Payload, Self::Output>,
        from: NodeId,
        kind: MsgKind,
        payload: &Self::Payload,
    );

    /// Called when an external command scheduled via
    /// [`Simulator::schedule_command`] arrives.
    fn on_command(&mut self, ctx: &mut Ctx<'_, Self::Payload, Self::Output>, cmd: Self::Command);

    /// Called when a frame *not* addressed to this node is overheard intact
    /// (the broadcast nature of the radio: every in-range, awake node
    /// physically receives every frame). Default: ignore.
    fn on_overhear(
        &mut self,
        ctx: &mut Ctx<'_, Self::Payload, Self::Output>,
        from: NodeId,
        kind: MsgKind,
        payload: &Self::Payload,
    ) {
        let _ = (ctx, from, kind, payload);
    }

    /// Called when a unicast frame to `dest` exhausted its retry budget
    /// without being received — the link-layer acknowledgement never came
    /// back, because the receiver is dead, asleep, or the channel dropped
    /// every attempt. This is the only delivery feedback the radio gives;
    /// broadcast and multicast frames are unacknowledged. Default: ignore.
    fn on_send_failed(
        &mut self,
        ctx: &mut Ctx<'_, Self::Payload, Self::Output>,
        dest: NodeId,
        kind: MsgKind,
    ) {
        let _ = (ctx, dest, kind);
    }
}

/// Handle through which a node interacts with the simulated world during a
/// callback.
#[derive(Debug)]
pub struct Ctx<'a, P, O> {
    node: NodeId,
    now_us: u64,
    topology: &'a Topology,
    field: &'a dyn SensorField,
    probes: &'a mut Probes,
    outputs: &'a mut Vec<OutputRecord<O>>,
    /// Engine-owned scratch, drained and reused across callbacks.
    actions: &'a mut Vec<Action<P>>,
    rng_state: &'a mut u64,
    /// The frame being delivered, in `on_message` / `on_overhear` only.
    delivering: Option<&'a Arc<P>>,
}

/// One record emitted by a node via [`Ctx::emit`].
#[derive(Debug, Clone, PartialEq)]
pub struct OutputRecord<O> {
    /// When the record was emitted.
    pub time: SimTime,
    /// The emitting node.
    pub node: NodeId,
    /// The record itself.
    pub output: O,
}

impl<'a, P, O> Ctx<'a, P, O> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        SimTime::from_ms(self.now_us / 1000)
    }

    /// The node this callback runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The network topology (positions, neighbours, levels).
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// This node's hop level (0 = base station).
    pub fn level(&self) -> u32 {
        self.topology.level(self.node)
    }

    /// Whether this node is the base station.
    pub fn is_base_station(&self) -> bool {
        self.node == NodeId::BASE_STATION
    }

    /// Transmits a frame. `payload_bytes` is the application payload length;
    /// the radio adds its header. The frame occupies this node's channel for
    /// `C_start + C_trans·len` and reaches in-range recipients when the
    /// transmission completes.
    ///
    /// The payload is stored once behind an [`Arc`] however many receivers
    /// the frame reaches; an app re-sending the same payload may pass an
    /// `Arc<P>` directly to share the allocation across transmissions, and
    /// a relay re-sending the frame it was handed uses [`Ctx::forward`].
    pub fn send(
        &mut self,
        dest: Destination,
        kind: MsgKind,
        payload_bytes: usize,
        payload: impl Into<Arc<P>>,
    ) {
        self.actions.push(Action::Send {
            dest,
            kind,
            payload_bytes,
            payload: payload.into(),
        });
    }

    /// Re-sends the frame this callback was handed, payload untouched — what
    /// a hop-by-hop relay does. Indistinguishable from [`Ctx::send`] of a
    /// clone of that payload, except that the new frame shares the received
    /// frame's allocation instead of copying it.
    ///
    /// # Panics
    ///
    /// Outside [`NodeApp::on_message`] and [`NodeApp::on_overhear`] no frame
    /// is being delivered, and calling this is a bug in the app: it panics
    /// with "`Ctx::forward`: no frame is being delivered".
    pub fn forward(&mut self, dest: Destination, kind: MsgKind, payload_bytes: usize) {
        let payload = self
            .delivering
            .expect("`Ctx::forward`: no frame is being delivered");
        self.send(dest, kind, payload_bytes, Arc::clone(payload));
    }

    /// Arms a one-shot timer `delay_ms` from now; `key` is returned to
    /// [`NodeApp::on_timer`].
    pub fn set_timer(&mut self, delay_ms: u64, key: u64) {
        self.actions.push(Action::SetTimer { delay_ms, key });
    }

    /// Samples one attribute from the sensor field (charged to the sampling
    /// energy budget).
    pub fn read_sensor(&mut self, attr: Attribute) -> f64 {
        self.probes.record(self.now_us, Probe::Sample);
        self.field.reading(self.node, attr, self.now())
    }

    /// Records that this node is holding results it has no live route for
    /// (orphaned by upstream failures). Feeds the completeness accounting's
    /// orphaned-node counters.
    pub fn record_orphaned(&mut self) {
        self.probes
            .record(self.now_us, Probe::Orphaned { node: self.node });
    }

    /// Records that the base station dropped one result for an epoch it is
    /// not collecting (closed already, or of an aborted query): a partials
    /// entry when `partials`, an acquisition row otherwise. Feeds
    /// [`Metrics::late_rows`] and [`Metrics::late_partials`].
    pub fn record_late(&mut self, partials: bool) {
        self.probes.record(self.now_us, Probe::Late { partials });
    }

    /// Puts the radio to sleep until `now + duration_ms`: no frames are
    /// received while asleep (timers still fire — the clock keeps running).
    pub fn sleep_for(&mut self, duration_ms: u64) {
        self.actions.push(Action::Sleep { duration_ms });
    }

    /// Wakes the radio immediately (cancels a pending sleep).
    pub fn wake(&mut self) {
        self.actions.push(Action::Wake);
    }

    /// Emits a record toward the outside world (visible via
    /// [`Simulator::outputs`]).
    pub fn emit(&mut self, output: O) {
        self.outputs.push(OutputRecord {
            time: self.now(),
            node: self.node,
            output,
        });
    }

    /// Records an application-level trace event at the current simulation
    /// time. The event is built only when a trace sink is attached: disabled
    /// tracing costs one branch and zero allocations without the app
    /// checking anything.
    #[inline]
    pub fn trace_with(&self, event: impl FnOnce() -> TraceEvent) {
        self.probes.trace_with(self.now_us, event);
    }

    /// A deterministic pseudo-random `u64` from the simulation's seed.
    pub fn rand_u64(&mut self) -> u64 {
        next_rand(self.rng_state)
    }
}

#[derive(Debug)]
enum Action<P> {
    Send {
        dest: Destination,
        kind: MsgKind,
        payload_bytes: usize,
        payload: Arc<P>,
    },
    SetTimer {
        delay_ms: u64,
        key: u64,
    },
    Sleep {
        duration_ms: u64,
    },
    Wake,
}

#[derive(Debug)]
enum EventKind<C> {
    Timer {
        node: NodeId,
        key: u64,
    },
    /// All deliveries of one frame. The per-receiver deliveries of a frame
    /// always popped back-to-back in neighbour order under the old
    /// one-event-per-receiver scheme (their seqs were contiguous at the same
    /// `end_us`, so nothing could interleave), so a single event iterating
    /// receivers in that order is observationally identical — and cuts heap
    /// traffic by the fan-out factor.
    Deliver {
        frame: usize,
    },
    /// Boxed: a command can be a whole query, and a handful per run must
    /// not set the size of the hundreds of thousands of other events.
    Command {
        node: NodeId,
        cmd: Box<C>,
    },
    Maintenance {
        node: NodeId,
    },
    Fail {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
}

/// One pending event. `seq` is unique, so `(time_us, seq)` is a total order
/// and any correct priority queue pops the same sequence; `Ord` is that key
/// reversed, which makes the max-heap [`BinaryHeap`] pop the earliest first.
#[derive(Debug)]
struct Event<C> {
    time_us: u64,
    seq: u64,
    kind: EventKind<C>,
}

// Events stay ≤ 32 bytes whatever the app's command type is.
const _: () = assert!(std::mem::size_of::<Event<[u64; 32]>>() <= 32);
// A frame slot stays ≤ 48 bytes whatever the app's payload type is.
const _: () = assert!(std::mem::size_of::<FrameState<[u64; 32]>>() <= 48);

impl<C> Ord for Event<C> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time_us, other.seq).cmp(&(self.time_us, self.seq))
    }
}

impl<C> PartialOrd for Event<C> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<C> PartialEq for Event<C> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<C> Eq for Event<C> {}

/// One in-flight transmission, stored in the frame slab. The slot is
/// recycled once the frame's `Deliver` event has fired (or immediately, if
/// nothing is in range). Its collision bits live beside the slab, in
/// [`Simulator`]'s `corrupted` words, so a slot is a flat value.
#[derive(Debug)]
struct FrameState<P> {
    src: NodeId,
    dest: Destination,
    kind: MsgKind,
    payload_bytes: u32,
    /// `None` for engine-generated maintenance beacons. Shared (not cloned)
    /// across the frame's receivers and retransmissions.
    payload: Option<Arc<P>>,
    /// Airtime, µs; the delivery fires when it ends.
    dur_us: u32,
    retries_left: u32,
}

/// Engine-level configuration beyond the radio itself.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for all randomness (loss, jitter).
    pub seed: u64,
    /// If set, every node broadcasts a maintenance beacon with this period
    /// (ms), phase-staggered per node — the paper's "periodical network
    /// maintenance messages".
    pub maintenance_interval_ms: Option<u64>,
}

impl SimConfig {
    /// Payload bytes of a maintenance beacon.
    pub const MAINTENANCE_BYTES: usize = 8;
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            maintenance_interval_ms: Some(30_000),
        }
    }
}

/// Counters describing the engine's own hot-path behaviour (as opposed to
/// the simulated network's [`Metrics`]). Exposed for benchmarks and
/// regression tracking via [`Simulator::engine_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events popped from the queue so far (timers, deliveries, commands,
    /// maintenance, failures).
    pub events_processed: u64,
    /// Frames ever put on the air: [`Metrics::tx_count_total`], since every
    /// slab slot the engine takes is booked as one transmission.
    pub frames_total: u64,
    /// High-water mark of the slab — the peak number of concurrently
    /// in-flight frames so far, since slots are recycled before the slab
    /// grows and the slab never shrinks.
    pub frame_slab_high_water: usize,
    /// Frames currently in flight (allocated slots minus free list).
    pub frames_in_flight: usize,
    /// Transmissions whose carrier-sense loop hit the deferral budget
    /// (`RadioParams::csma_max_deferrals`) and fell through to
    /// transmit-with-collision.
    pub csma_capped_deferrals: u64,
    /// Timer events processed (per-phase breakdown of `events_processed`).
    pub timer_events: u64,
    /// Frame-delivery events processed (one per frame fan-out).
    pub deliver_events: u64,
    /// External command events processed.
    pub command_events: u64,
    /// Maintenance-beacon events processed.
    pub maintenance_events: u64,
    /// Fault events processed (crashes + recoveries).
    pub fault_events: u64,
}

/// The engine's event-dispatch phases, in the order the engine stores their
/// counters. Every processed event belongs to exactly one of these; the
/// match in `Simulator::process_event` is exhaustive, so a new event kind
/// cannot ship without naming its phase.
#[derive(Debug, Clone, Copy)]
enum EnginePhase {
    /// Application timer callbacks (`on_timer`).
    Timer,
    /// Frame delivery fan-out to receivers (`on_message` and loss/collision
    /// resolution).
    Deliver,
    /// External commands injected into a node (`on_command`).
    Command,
    /// Periodic maintenance beacons.
    Maintenance,
    /// Fault-plan crash and recovery events.
    Fault,
}

impl EnginePhase {
    /// Number of engine phases (the length of the engine's per-phase
    /// counter array).
    const COUNT: usize = 5;

    /// Index into the engine's per-phase counter array. Exhaustive: a new
    /// phase must pick a slot.
    #[inline]
    const fn index(self) -> usize {
        match self {
            EnginePhase::Timer => 0,
            EnginePhase::Deliver => 1,
            EnginePhase::Command => 2,
            EnginePhase::Maintenance => 3,
            EnginePhase::Fault => 4,
        }
    }
}

/// Factory building a node's application, used at start and on reboot.
type AppFactory<A> = Box<dyn FnMut(NodeId, &Topology) -> A + Send>;

/// The discrete-event simulator: one [`NodeApp`] per node plus the radio,
/// field, metrics and event queue.
///
/// # Examples
///
/// See the crate-level documentation for a complete runnable example.
pub struct Simulator<A: NodeApp> {
    nodes: Vec<A>,
    factory: AppFactory<A>,
    /// Per-node crash flag: a failed node neither receives nor transmits and
    /// its timers are dropped; on recovery it reboots with fresh app state.
    failed: Vec<bool>,
    topology: Topology,
    radio: RadioParams,
    config: SimConfig,
    field: Box<dyn SensorField + Send + Sync>,
    /// The run's accounting and observers: every radio occurrence is
    /// reported here exactly once.
    probes: Probes,
    outputs: Vec<OutputRecord<A::Output>>,
    /// The event queue, popping in strict `(time_us, seq)` order.
    queue: BinaryHeap<Event<A::Command>>,
    /// Frame slab: slots are recycled through `free_frames` once all of a
    /// frame's deliveries have fired, so `frames.len()` tracks peak
    /// in-flight frames rather than total transmissions.
    frames: Vec<FrameState<A::Payload>>,
    /// Indices of free slots in `frames`.
    free_frames: Vec<usize>,
    /// Receivers at which each slot's frame was corrupted by a collision:
    /// slot `s` owns words `s * collision_words..`, and bit `i` of them
    /// stands for `neighbors(src)[i]`. Zeroed when the slot is released.
    corrupted: Vec<u64>,
    /// Words per slot in `corrupted`: the widest neighbourhood's
    /// `div_ceil(64)`.
    collision_words: usize,
    /// Reused by `dispatch_callback` for every [`Ctx`]'s action queue.
    action_scratch: Vec<Action<A::Payload>>,
    /// Per-node earliest time the transmitter is free, µs.
    tx_ready_at_us: Vec<u64>,
    /// Per-node sleep deadline, µs (0 = awake).
    sleep_until_us: Vec<u64>,
    /// Per-node in-flight incoming frames, unordered in a flat arena (see
    /// [`IncomingArena`]), so the interference-marking loop touches
    /// cache-resident contiguous blocks instead of 12 scattered heap buffers
    /// per transmit.
    incoming: IncomingArena,
    /// Loss-side fault elements, installed by [`Simulator::install_fault_plan`].
    /// `None` (the default) keeps the delivery path byte-identical to a
    /// fault-free engine: one branch, no extra RNG draws.
    faults: Option<FaultOverlay>,
    now_us: u64,
    seq: u64,
    rng_state: u64,
    started: bool,
    events_processed: u64,
    csma_capped: u64,
    /// Per-phase event counters indexed by [`EnginePhase::index`] — the
    /// breakdown behind `events_processed`.
    phase_events: [u64; EnginePhase::COUNT],
}

impl<A: NodeApp> Simulator<A> {
    /// Builds a simulator, constructing one app per node via `factory`.
    pub fn new<F>(
        topology: Topology,
        radio: RadioParams,
        config: SimConfig,
        field: Box<dyn SensorField + Send + Sync>,
        mut factory: F,
    ) -> Self
    where
        F: FnMut(NodeId, &Topology) -> A + Send + 'static,
    {
        let n = topology.node_count();
        let nodes: Vec<A> = topology.nodes().map(|id| factory(id, &topology)).collect();
        let rng_state = config.seed;
        let widest = topology.nodes().map(|id| topology.neighbors(id).len());
        let collision_words = widest.max().unwrap_or(0).div_ceil(64);
        Simulator {
            nodes,
            factory: Box::new(factory),
            failed: vec![false; n],
            probes: Probes::new(n),
            outputs: Vec::new(),
            queue: BinaryHeap::new(),
            frames: Vec::new(),
            free_frames: Vec::new(),
            corrupted: Vec::new(),
            collision_words,
            action_scratch: Vec::new(),
            tx_ready_at_us: vec![0; n],
            sleep_until_us: vec![0; n],
            incoming: IncomingArena::new(n),
            faults: None,
            now_us: 0,
            seq: 0,
            rng_state,
            started: false,
            events_processed: 0,
            csma_capped: 0,
            phase_events: [0; EnginePhase::COUNT],
            topology,
            radio,
            config,
            field,
        }
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        self.probes.metrics()
    }

    /// Engine hot-path counters: events processed, frame-slab occupancy and
    /// high-water mark, carrier-sense cap hits.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            events_processed: self.events_processed,
            frames_total: self.metrics().tx_count_total(),
            frame_slab_high_water: self.frames.len(),
            frames_in_flight: self.frames.len() - self.free_frames.len(),
            csma_capped_deferrals: self.csma_capped,
            timer_events: self.phase_events[EnginePhase::Timer.index()],
            deliver_events: self.phase_events[EnginePhase::Deliver.index()],
            command_events: self.phase_events[EnginePhase::Command.index()],
            maintenance_events: self.phase_events[EnginePhase::Maintenance.index()],
            fault_events: self.phase_events[EnginePhase::Fault.index()],
        }
    }

    /// Sends the engine's and the node apps' trace events to `trace`,
    /// replacing the sink set before. The engine reports every occurrence
    /// once and the sink only reads it: [`Observe`](crate::Observe) states
    /// what an observer may and may not do.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.probes.set_trace(trace);
    }

    /// Records emitted by nodes so far.
    pub fn outputs(&self) -> &[OutputRecord<A::Output>] {
        &self.outputs
    }

    /// Removes and returns all emitted records.
    pub fn take_outputs(&mut self) -> Vec<OutputRecord<A::Output>> {
        std::mem::take(&mut self.outputs)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        SimTime::from_ms(self.now_us / 1000)
    }

    /// Immutable access to a node's app (for assertions in tests).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &A {
        &self.nodes[node.index()]
    }

    /// Schedules an external command for `node` at absolute time `at`.
    pub fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: A::Command) {
        let time_us = (at.as_ms() * 1000).max(self.now_us);
        let cmd = Box::new(cmd);
        self.push_event(time_us, EventKind::Command { node, cmd });
    }

    /// Crashes `node` at time `at`: it stops transmitting, receiving and
    /// processing timers until recovered. Commands addressed to it are lost.
    pub fn schedule_failure(&mut self, at: SimTime, node: NodeId) {
        let time_us = (at.as_ms() * 1000).max(self.now_us);
        self.push_event(time_us, EventKind::Fail { node });
    }

    /// Reboots a failed node at time `at` with *fresh* application state
    /// (volatile state such as installed queries is lost, as on a real mote).
    pub fn schedule_recovery(&mut self, at: SimTime, node: NodeId) {
        let time_us = (at.as_ms() * 1000).max(self.now_us);
        self.push_event(time_us, EventKind::Recover { node });
    }

    /// Whether `node` is currently failed.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed[node.index()]
    }

    /// Applies a [`FaultPlan`]: schedules its crash/recovery timeline
    /// (materialized against this simulator's topology with the plan's own
    /// seed) and installs its loss overlay on the delivery path. An empty
    /// plan is a no-op — the event queue, RNG stream and delivery path stay
    /// exactly as they were, so fault-free runs are bit-for-bit unchanged.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        let schedule = plan.materialize(&self.topology);
        for c in schedule.crashes() {
            self.schedule_failure(SimTime::from_ms(c.at_ms), c.node);
            if let Some(r) = c.recover_at_ms {
                self.schedule_recovery(SimTime::from_ms(r), c.node);
            }
        }
        self.faults = plan.overlay(&self.topology);
    }

    /// Swaps the installed fault plan for `plan`: every pending `Fail` /
    /// `Recover` event of the previous plan is retracted (all other queue
    /// entries keep their exact `(time, seq)` keys) and the new plan's
    /// events and loss overlay are installed. This is how a run is *forked*
    /// by replay: build N simulators from the same inputs, run each to the
    /// same instant `t`, give each a different plan whose events lie after
    /// `t`, and the futures share everything up to `t` and diverge only
    /// where the plans do. Nodes already down stay down; an empty `plan`
    /// leaves a fault-free simulator exactly as it was.
    pub fn replace_fault_plan(&mut self, plan: &FaultPlan) {
        self.queue
            .retain(|e| !matches!(e.kind, EventKind::Fail { .. } | EventKind::Recover { .. }));
        self.faults = None;
        self.install_fault_plan(plan);
    }

    fn push_event(&mut self, time_us: u64, kind: EventKind<A::Command>) {
        self.seq += 1;
        let seq = self.seq;
        self.queue.push(Event { time_us, seq, kind });
    }

    /// Takes a slab slot for `frame`, recycling a free one if possible. Its
    /// collision words are all clear either way.
    fn alloc_frame(&mut self, frame: FrameState<A::Payload>) -> usize {
        if let Some(idx) = self.free_frames.pop() {
            self.frames[idx] = frame;
            return idx;
        }
        self.frames.push(frame);
        self.corrupted
            .resize(self.frames.len() * self.collision_words, 0);
        self.frames.len() - 1
    }

    /// Returns a slot whose deliveries have all fired to the free list. The
    /// payload `Arc` is dropped and the collision words cleared now.
    fn release_frame(&mut self, idx: usize) {
        self.frames[idx].payload = None;
        let words = idx * self.collision_words;
        self.corrupted[words..words + self.collision_words].fill(0);
        self.free_frames.push(idx);
    }

    /// Runs the simulation until `t_end` (inclusive of events at `t_end`).
    ///
    /// The first call invokes every node's [`NodeApp::on_start`] and arms the
    /// maintenance schedule. May be called repeatedly with increasing times.
    pub fn run_until(&mut self, t_end: SimTime) {
        let end_us = t_end.as_ms() * 1000;
        if !self.started {
            self.started = true;
            for id in 0..self.nodes.len() {
                self.dispatch_callback(NodeId(id as u16), None, |app, ctx| app.on_start(ctx));
            }
            if let Some(interval) = self.config.maintenance_interval_ms {
                for id in 0..self.nodes.len() {
                    // Stagger phases deterministically to avoid a thundering
                    // herd of synchronized beacons.
                    let phase = next_rand(&mut self.rng_state) % (interval * 1000);
                    self.push_event(
                        phase,
                        EventKind::Maintenance {
                            node: NodeId(id as u16),
                        },
                    );
                }
            }
        }
        while self.queue.peek().is_some_and(|next| next.time_us <= end_us) {
            let Event { time_us, kind, .. } = self.queue.pop().expect("peeked event exists");
            self.now_us = time_us;
            self.events_processed += 1;
            let phase = self.process_event(kind);
            self.phase_events[phase.index()] += 1;
        }
        self.now_us = end_us;
        self.probes.set_horizon(t_end);
    }

    /// Handles one popped event, returning the [`EnginePhase`] it belongs
    /// to. The match is exhaustive and every arm names its phase, so a new
    /// event kind cannot ship uncounted.
    fn process_event(&mut self, kind: EventKind<A::Command>) -> EnginePhase {
        match kind {
            EventKind::Timer { node, key } => {
                if !self.failed[node.index()] {
                    self.dispatch_callback(node, None, |app, ctx| app.on_timer(ctx, key));
                }
                EnginePhase::Timer
            }
            EventKind::Command { node, cmd } => {
                if !self.failed[node.index()] {
                    self.dispatch_callback(node, None, |app, ctx| app.on_command(ctx, *cmd));
                }
                EnginePhase::Command
            }
            EventKind::Deliver { frame } => {
                self.handle_delivery(frame);
                EnginePhase::Deliver
            }
            EventKind::Fail { node } => {
                self.failed[node.index()] = true;
                // A crash ends any ongoing nap, as `Action::Wake` does.
                let pending_us = self.pending_nap_us(node);
                self.probes
                    .record(self.now_us, Probe::Crash { node, pending_us });
                self.sleep_until_us[node.index()] = 0;
                EnginePhase::Fault
            }
            EventKind::Recover { node } => {
                if self.failed[node.index()] {
                    self.probes.record(self.now_us, Probe::Recover { node });
                    self.failed[node.index()] = false;
                    self.tx_ready_at_us[node.index()] = self.now_us;
                    self.nodes[node.index()] = (self.factory)(node, &self.topology);
                    self.dispatch_callback(node, None, |app, ctx| app.on_start(ctx));
                }
                EnginePhase::Fault
            }
            EventKind::Maintenance { node } => {
                if self.failed[node.index()] {
                    // A dead node beacons nothing; re-arm for later.
                    let interval = self
                        .config
                        .maintenance_interval_ms
                        .expect("maintenance enabled");
                    self.push_event(
                        self.now_us + interval * 1000,
                        EventKind::Maintenance { node },
                    );
                    return EnginePhase::Maintenance;
                }
                self.transmit(
                    node,
                    Destination::Broadcast,
                    MsgKind::Maintenance,
                    SimConfig::MAINTENANCE_BYTES,
                    None,
                    self.now_us,
                    0,
                );
                let interval = self
                    .config
                    .maintenance_interval_ms
                    .expect("maintenance enabled");
                self.push_event(
                    self.now_us + interval * 1000,
                    EventKind::Maintenance { node },
                );
                EnginePhase::Maintenance
            }
        }
    }

    /// Runs one app callback on `node` — `call` picks which — then applies
    /// the actions it queued. `delivering` is the frame the callback is
    /// about, if it is about one.
    fn dispatch_callback(
        &mut self,
        node: NodeId,
        delivering: Option<&Arc<A::Payload>>,
        call: impl FnOnce(&mut A, &mut Ctx<'_, A::Payload, A::Output>),
    ) {
        debug_assert!(self.action_scratch.is_empty());
        let mut ctx = Ctx {
            node,
            now_us: self.now_us,
            topology: &self.topology,
            field: self.field.as_ref(),
            probes: &mut self.probes,
            outputs: &mut self.outputs,
            actions: &mut self.action_scratch,
            rng_state: &mut self.rng_state,
            delivering,
        };
        call(&mut self.nodes[node.index()], &mut ctx);
        // The action queue is engine-owned scratch, lent in place: a callback
        // that queued nothing is done here. One that did pays for the queue
        // to be taken, drained and put back (applying a `Send` needs `self`)
        // — still one allocation for the whole run.
        if self.action_scratch.is_empty() {
            return;
        }
        let mut actions = std::mem::take(&mut self.action_scratch);
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    dest,
                    kind,
                    payload_bytes,
                    payload,
                } => {
                    self.transmit(
                        node,
                        dest,
                        kind,
                        payload_bytes,
                        Some(payload),
                        self.now_us,
                        self.radio.max_retries,
                    );
                }
                Action::SetTimer { delay_ms, key } => {
                    self.push_event(
                        self.now_us + delay_ms * 1000,
                        EventKind::Timer { node, key },
                    );
                }
                Action::Sleep { duration_ms } => {
                    let probe = Probe::Sleep {
                        node,
                        duration_ms,
                        pending_us: self.pending_nap_us(node),
                    };
                    self.probes.record(self.now_us, probe);
                    self.sleep_until_us[node.index()] = self.now_us + duration_ms * 1000;
                }
                Action::Wake => {
                    let pending_us = self.pending_nap_us(node);
                    self.probes
                        .record(self.now_us, Probe::Wake { node, pending_us });
                    self.sleep_until_us[node.index()] = 0;
                }
            }
        }
        self.action_scratch = actions;
    }

    fn is_asleep(&self, node: NodeId) -> bool {
        self.sleep_until_us[node.index()] > self.now_us
    }

    /// The part of `node`'s current nap not yet slept, µs. Naps are
    /// credited in full when planned, so whatever ends or re-plans one
    /// reports this for retraction.
    fn pending_nap_us(&self, node: NodeId) -> u64 {
        self.sleep_until_us[node.index()].saturating_sub(self.now_us)
    }

    /// Puts a frame on the air from `src` no earlier than `earliest_us`.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        src: NodeId,
        dest: Destination,
        kind: MsgKind,
        payload_bytes: usize,
        payload: Option<Arc<A::Payload>>,
        earliest_us: u64,
        retries_left: u32,
    ) {
        if self.failed[src.index()] {
            return; // a dead node transmits nothing (incl. pending retries)
        }
        let total_bytes = payload_bytes + RadioParams::HEADER_BYTES;
        let dur_us = (self.radio.tx_time_ms(payload_bytes) * 1000.0).round() as u64;
        let mut start_us = earliest_us.max(self.tx_ready_at_us[src.index()]);
        if self.radio.collisions {
            // CSMA: carrier-sense at the sender — defer past any frame
            // currently audible here, plus a short random inter-frame gap.
            // Hidden terminals (senders out of each other's range colliding
            // at a common receiver) remain possible, as on real motes. The
            // deferral budget (`RadioParams::csma_max_deferrals`) bounds the
            // loop under pathological backlogs.
            let cap = self.radio.csma_max_deferrals;
            // Each deferral moves `start_us`, so the order the scan visits
            // audible frames in decides the RNG draws: ascending
            // `(start, dur, frame)`. Blocks are unordered, so the sender's
            // own is sorted in place first.
            let audible_here = self.incoming.sorted(src.index());
            let mut deferrals = 0u32;
            let mut deferred = true;
            while deferred && deferrals < cap {
                deferred = false;
                for &audible in audible_here {
                    let (s, e) = (audible.start_us, audible.end_us());
                    if s < start_us + dur_us && start_us < e {
                        start_us = e + 200 + next_rand(&mut self.rng_state) % 800;
                        deferred = true;
                        deferrals += 1;
                        if deferrals >= cap {
                            break;
                        }
                    }
                }
            }
            if deferrals >= cap && deferrals > 0 {
                self.csma_capped += 1;
            }
            if deferrals > 0 {
                let probe = Probe::CsmaDeferred {
                    node: src,
                    deferrals,
                    capped: deferrals >= cap,
                };
                self.probes.record(self.now_us, probe);
            }
        }
        let end_us = start_us + dur_us;
        self.tx_ready_at_us[src.index()] = end_us;
        let probe = Probe::Tx {
            node: src,
            kind,
            dest: match &dest {
                Destination::Broadcast => TraceDest::Broadcast,
                Destination::Unicast(d) => TraceDest::Unicast(*d),
                Destination::Multicast(ds) => TraceDest::Multicast(ds.len() as u16),
            },
            bytes: total_bytes,
            airtime_us: dur_us,
        };
        // Stamped with the airtime start, not `now`.
        self.probes.record(start_us, probe);

        let airtime_us = u32::try_from(dur_us).expect("a frame's airtime fits in u32 µs");
        let frame_idx = self.alloc_frame(FrameState {
            src,
            dest,
            kind,
            payload_bytes: u32::try_from(payload_bytes).expect("a payload fits in u32 bytes"),
            payload,
            dur_us: airtime_us,
            retries_left,
        });

        // Mark interference at every in-range node. Only disjoint fields of
        // `self` are touched, so the topology's neighbour slice is iterated
        // in place (no copy) while the interference state mutates.
        let fanout = self.topology.neighbors(src).len();
        if self.radio.collisions {
            debug_assert!(frame_idx <= u32::MAX as usize, "slab index truncated");
            let (frames, topology) = (&self.frames, &self.topology);
            let (corrupted, words) = (&mut self.corrupted, self.collision_words);
            let entry = IncomingFrame {
                start_us,
                dur_us: airtime_us,
                frame: frame_idx as u32,
            };
            for (pos, &r) in topology.neighbors(src).iter().enumerate() {
                // Interference: any concurrent in-range frame corrupts both,
                // each at its own position for `r` — this frame's is the loop
                // index, the other's is found in its sender's ascending
                // neighbour slice. One arena pass drops expired entries,
                // reports the overlaps, and appends this frame.
                self.incoming.retain_mark_insert(r.index(), entry, |other| {
                    let other = other as usize;
                    let theirs = topology
                        .neighbors(frames[other].src)
                        .binary_search(&r)
                        .expect("a frame is audible only at its sender's neighbours");
                    corrupted[other * words + theirs / 64] |= 1 << (theirs % 64);
                    corrupted[frame_idx * words + pos / 64] |= 1 << (pos % 64);
                });
            }
        }
        if fanout == 0 {
            // Nothing in range: the frame is spent the moment it airs.
            self.release_frame(frame_idx);
        } else {
            // One event covers the frame's whole fan-out; receivers are
            // walked in neighbour order when it fires (see EventKind).
            self.push_event(end_us, EventKind::Deliver { frame: frame_idx });
        }
    }

    /// Fires all of a frame's deliveries, walking receivers in neighbour
    /// order (the order their one-event-per-receiver equivalents popped in),
    /// then recycles the frame's slab slot.
    fn handle_delivery(&mut self, frame_idx: usize) {
        let (src, kind, payload_bytes, dur_ms, retries_left) = {
            let f = &self.frames[frame_idx];
            (
                f.src,
                f.kind,
                f.payload_bytes as usize,
                f64::from(f.dur_us) / 1000.0,
                f.retries_left,
            )
        };
        // App callbacks below can transmit (growing or recycling the slab),
        // so the neighbour list is re-borrowed per receiver by index; this
        // frame's own slot cannot be recycled until the release at the end.
        // The frame's routing fields, by contrast, are frozen for the whole
        // fan-out — a frame that has left the air can no longer be corrupted
        // (every later transmission starts at or after `now`, past this
        // frame's end), and `dest`/`payload` are never written after
        // allocation — so they move out of the slab once instead of being
        // re-borrowed per receiver; the collision bits stay and are read by
        // index (the slab's word array may grow under a callback).
        let fanout = self.topology.neighbors(src).len();
        let bits = frame_idx * self.collision_words;
        let dest = std::mem::replace(&mut self.frames[frame_idx].dest, Destination::Broadcast);
        // One reference for the whole fan-out: receivers are lent
        // `&Payload` out of this local, which no callback can invalidate.
        let frame_payload = self.frames[frame_idx].payload.take();
        let is_unicast = matches!(dest, Destination::Unicast(_));
        // With every loss source off no receiver draws from the RNG, so the
        // per-receiver probability is skipped altogether.
        let lossless =
            !self.radio.distance_loss && self.faults.is_none() && self.radio.loss_rate <= 0.0;
        for i in 0..fanout {
            let receiver = self.topology.neighbors(src)[i];
            let intended = dest.includes(receiver);
            let corrupted = self.corrupted[bits + i / 64] >> (i % 64) & 1 != 0;
            let at = Reception {
                src,
                node: receiver,
                kind,
            };

            if self.is_asleep(receiver) || self.failed[receiver.index()] {
                // The radio is off (or the node is dead): the frame is missed.
                if intended {
                    let asleep = self.is_asleep(receiver);
                    self.probes
                        .record(self.now_us, Probe::Missed { at, asleep });
                }
                if intended && is_unicast {
                    self.retry_or_give_up(at, payload_bytes, frame_payload.clone(), retries_left);
                }
                continue;
            }
            let probe = Probe::Rx {
                node: receiver,
                busy_ms: dur_ms,
            };
            self.probes.record(self.now_us, probe);

            let lost = !lossless && !corrupted && {
                let loss_prob = self.loss_prob(src, receiver);
                loss_prob > 0.0 && next_rand_f64(&mut self.rng_state) < loss_prob
            };
            if corrupted {
                self.probes.record(self.now_us, Probe::Collision(at));
            }
            if lost {
                self.probes.record(self.now_us, Probe::Lost(at));
            }
            if corrupted || lost {
                if intended && is_unicast {
                    self.retry_or_give_up(at, payload_bytes, frame_payload.clone(), retries_left);
                }
                continue;
            }

            let Some(shared) = &frame_payload else {
                // Engine-generated beacon: accounted, not delivered to the app.
                continue;
            };
            let payload: &A::Payload = shared;
            self.probes
                .record(self.now_us, Probe::Delivered { at, intended });
            self.dispatch_callback(receiver, Some(shared), |app, ctx| {
                if intended {
                    app.on_message(ctx, src, kind, payload)
                } else {
                    app.on_overhear(ctx, src, kind, payload)
                }
            });
        }
        self.release_frame(frame_idx);
    }

    /// The probability that a frame from `src` is lost at `receiver` now,
    /// before any collision: the radio's own model, then the fault overlay.
    fn loss_prob(&self, src: NodeId, receiver: NodeId) -> f64 {
        let base = if self.radio.distance_loss {
            let d = self
                .topology
                .position(src)
                .distance(self.topology.position(receiver));
            self.radio.loss_at(d, self.topology.radio_range())
        } else {
            self.radio.loss_rate
        };
        match &self.faults {
            Some(overlay) => overlay.loss_prob(base, receiver.index(), self.now_us),
            None => base,
        }
    }

    /// Re-queues a unicast frame missed `at` its sole intended recipient, or
    /// gives up once its retry budget is spent. The payload `Arc` is shared
    /// with the original transmission, not copied.
    fn retry_or_give_up(
        &mut self,
        at: Reception,
        payload_bytes: usize,
        payload: Option<Arc<A::Payload>>,
        retries_left: u32,
    ) {
        let Reception { src, node, kind } = at;
        if retries_left == 0 {
            self.probes.record(self.now_us, Probe::GaveUp(at));
            if !self.failed[src.index()] {
                self.dispatch_callback(src, None, |app, ctx| app.on_send_failed(ctx, node, kind));
            }
            return;
        }
        // Random backoff with a window that doubles per attempt, so two
        // colliding senders eventually desynchronize by more than one frame
        // time (binary exponential backoff).
        let attempt = self.radio.max_retries.saturating_sub(retries_left) + 1;
        let retries_left = retries_left - 1;
        self.probes
            .record(self.now_us, Probe::Retry { at, retries_left });
        let window_us = 16_000u64 << attempt.min(6);
        let backoff_us = 1000 + next_rand(&mut self.rng_state) % window_us;
        self.transmit(
            src,
            Destination::Unicast(node),
            kind,
            payload_bytes,
            payload,
            self.now_us + backoff_us,
            retries_left,
        );
    }
}

impl<A: NodeApp> Debug for Simulator<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.nodes.len())
            .field("now", &self.now())
            .field("pending_events", &self.queue.len())
            .field("frame_slab_high_water", &self.frames.len())
            .finish_non_exhaustive()
    }
}

fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn next_rand_f64(state: &mut u64) -> f64 {
    (next_rand(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests;
