//! The TTMQO in-network node application — tier 2 (§3.2).
//!
//! Implements all three in-network mechanisms:
//!
//! * **Sharing over time** (§3.2.1): one node clock firing at the GCD of all
//!   running epoch durations, epoch starts aligned to duration multiples, so
//!   every query due at a firing shares a single sample acquisition.
//! * **Sharing over space** (§3.2.2): query floods piggyback has-data bits to
//!   build a DAG; each result message dynamically picks parents that carry
//!   data for the same queries (multicast with split responsibility when one
//!   parent cannot cover all); one shared frame answers every due query.
//! * **Sleep mode**: a node whose data satisfies no query and that relayed
//!   nothing in the current collection window sleeps until the next firing,
//!   announcing itself with a one-hop wake-up broadcast when its data
//!   qualifies again.

use crate::innetwork::dag::{DagState, Election};
use crate::innetwork::payload::{PartialEntry, RowEntry, TtmqoPayload};
use std::sync::Arc;
use ttmqo_query::{
    AttrSet, EpochDuration, PartialAgg, Query, QueryId, Readings, Row, Selection, BASE_EPOCH_MS,
};
use ttmqo_sim::{Ctx, Destination, MsgKind, NodeApp, NodeId, ProvenanceId, Topology, TraceEvent};
use ttmqo_tinydb::{
    timer_key, timer_key_parts, Command, EpochBuffers, Floods, Output, TagSlots, KIND_CLOSE,
    KIND_FLOOD_ABORT, KIND_FLOOD_QUERY, KIND_SLOT,
};

const K_CLOCK: u64 = 0;
const K_SLEEP_CHECK: u64 = 5;

/// A result frame's split-responsibility assignments: `(recipient, the
/// queries it must forward)` pairs, as `TtmqoPayload` carries them — empty
/// on a unicast frame.
type Assignments = Vec<(NodeId, Vec<QueryId>)>;

/// Configuration of the in-network tier.
#[derive(Debug, Clone)]
pub struct TtmqoConfig {
    /// Length of one aggregation transmission slot, ms.
    pub slot_ms: u64,
    /// Maximum random jitter on floods and slots, ms.
    pub jitter_ms: u64,
    /// Whether parents are chosen dynamically per message (§3.2.2). When
    /// false, every message follows the fixed link-quality tree (ablation:
    /// shared messages without query-aware routing).
    pub dynamic_parents: bool,
}

/// Self-healing: the number of consecutive *failed* unicast sends (whole
/// retry budget exhausted with no link-layer acknowledgement) after which a
/// parent is presumed dead and excluded from parent election. Hearing any
/// frame from it (including overheard ones) resets the count and revives
/// it. The runner arms the detector for faulty runs only
/// (`TtmqoApp::with_failure_detector`); off, routing is byte-identical to
/// the pre-fault-subsystem behaviour. Extension beyond the paper, which
/// leaves node failures to future work.
const DEAD_PARENT_AFTER: u32 = 3;

impl TtmqoConfig {
    /// How long after a firing the base station collects an epoch, and an
    /// idle node stays awake to relay: a slot per level, jitter and a margin.
    pub fn collection_window_ms(&self, topo: &Topology) -> u64 {
        self.tag_slots().close_after(topo) + self.jitter_ms
    }

    /// Its TAG slot timing.
    pub fn tag_slots(&self) -> TagSlots {
        TagSlots {
            slot_ms: self.slot_ms,
            jitter_ms: self.jitter_ms,
        }
    }
}

impl Default for TtmqoConfig {
    fn default() -> Self {
        TtmqoConfig {
            slot_ms: 64,
            jitter_ms: 24,
            dynamic_parents: true,
        }
    }
}

/// The TTMQO in-network node application.
///
/// Accepts the same [`Command`]s and emits the same [`Output`]s as the
/// baseline [`TinyDbApp`](ttmqo_tinydb::TinyDbApp), so runners can swap the
/// two; the queries it executes are whatever the first tier injects (raw user
/// queries for the in-network-only strategy, synthetic queries for the full
/// two-tier scheme).
#[derive(Debug)]
pub struct TtmqoApp {
    config: TtmqoConfig,
    /// What this node knows per query id: the floods it heard, the queries
    /// it runs, which of them its latest readings satisfy
    /// (has data for), and which unknown ids it already asked the
    /// neighbourhood about.
    floods: Floods,
    dag: DagState,
    /// Bumped on every query-set change to invalidate stale clock timers.
    clock_gen: u64,
    /// Whether any message was relayed since the last firing (sleep gate).
    relayed_recently: bool,
    /// Whether this node actually slept during the last inter-firing gap.
    slept: bool,
    /// Epoch start of the last no-route resignation broadcast, so an
    /// orphaned node announces at most once per epoch.
    last_no_route_ms: Option<u64>,
    /// Partials and (base station only) rows per (query, epoch-start ms).
    buffers: EpochBuffers,
    /// The fixed link-quality parent every frame follows when
    /// `dynamic_parents` is off, read once per boot in `on_start`.
    fixed_parent: Option<NodeId>,
    /// Whether the parent failure detector is armed (at
    /// [`DEAD_PARENT_AFTER`]).
    detects_dead_parents: bool,
}

impl TtmqoApp {
    /// Creates an in-network node with the given configuration.
    pub fn new(config: TtmqoConfig) -> Self {
        TtmqoApp {
            floods: Floods::new(config.jitter_ms),
            config,
            dag: DagState::default(),
            clock_gen: 0,
            relayed_recently: false,
            slept: false,
            last_no_route_ms: None,
            buffers: EpochBuffers::default(),
            fixed_parent: None,
            detects_dead_parents: false,
        }
    }

    /// The same node with the parent failure detector armed: the runner's
    /// choice for runs with a fault plan.
    pub(crate) fn with_failure_detector(self) -> Self {
        TtmqoApp {
            detects_dead_parents: true,
            ..self
        }
    }

    /// Currently installed queries (for tests and inspection).
    pub fn installed_queries(&self) -> impl Iterator<Item = &Query> {
        self.floods.installed().map(Arc::as_ref)
    }

    /// Read-only view of the result buffers (for tests and inspection).
    pub fn buffers(&self) -> &EpochBuffers {
        &self.buffers
    }

    /// Read-only view of the routing DAG state (for tests and diagnostics).
    pub fn dag(&self) -> &DagState {
        &self.dag
    }

    fn gcd_epoch(&self) -> Option<EpochDuration> {
        EpochDuration::gcd_all(self.floods.installed().map(|q| q.epoch()))
    }

    /// (Re)arms the shared clock after any query-set change (§3.2.1: "we
    /// (re)set the node's clock to fire at the GCD of the epoch durations of
    /// all the queries").
    fn rearm_clock(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>) {
        self.clock_gen += 1;
        let Some(gcd) = self.gcd_epoch() else { return };
        let now = ctx.now().as_ms();
        let next = gcd.next_fire_at(now + 1);
        ctx.set_timer(next - now, timer_key(K_CLOCK, QueryId(0), self.clock_gen));
        ctx.wake();
    }

    fn install(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>, query: &Arc<Query>) {
        if self.floods.install(query) {
            self.rearm_clock(ctx);
        }
    }

    fn hear_query(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>, query: &Arc<Query>) {
        if self.floods.on_query(ctx, query) {
            self.install(ctx, query);
        }
    }

    /// A copy of `qid`'s abort flood arrived: the first uninstalls it.
    fn hear_abort(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>, qid: QueryId) {
        if !self.floods.on_abort(ctx, qid) || !self.floods.uninstall(qid) {
            return;
        }
        self.dag.forget_query(qid);
        self.buffers.forget_query(qid);
        self.rearm_clock(ctx);
    }

    /// Handles one firing of the shared clock at (aligned) time `t_ms`.
    fn handle_clock(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>, t_ms: u64) {
        self.relayed_recently = false;
        // The due queries are walked in place, in ascending id order, once
        // per use: every node fires at every epoch, so copying them out is
        // not free.
        if due(&self.floods, t_ms).next().is_none() {
            self.maybe_sleep(ctx, t_ms);
            return;
        }
        ctx.trace_with(|| TraceEvent::EpochFire {
            node: ctx.node(),
            epoch_ms: t_ms,
            due: due(&self.floods, t_ms).map(|q| q.id()).collect(),
        });

        if ctx.is_base_station() {
            // The base station senses nothing; it collects each due query's
            // epoch for the collection window.
            let window = self.config.collection_window_ms(ctx.topology());
            for q in due(&self.floods, t_ms) {
                self.buffers.open(ctx, q, t_ms, window);
            }
            return;
        }

        // §3.2.1 — shared data acquisition: sample the union of the due
        // queries' attributes exactly once.
        let mut union_attrs = AttrSet::new();
        for q in due(&self.floods, t_ms) {
            union_attrs.extend(q.sampled_attributes());
        }
        let mut readings = Readings::new();
        for attr in union_attrs {
            let v = ctx.read_sensor(attr);
            readings.set(attr, v);
        }

        // Matched queries by kind, ascending. Matched aggregation queries
        // seed their own partials right away; matched acquisition queries
        // pool the attributes their shared frame must carry. Each due
        // query's has-data mark becomes whether it matched.
        let had_data = self.floods.has_any_data();
        let mut acq_matches: Vec<QueryId> = Vec::new();
        let mut acq_attrs = AttrSet::new();
        let mut agg_matched = false;
        let mut aggregation_due = false;
        let buffers = &mut self.buffers;
        self.floods.mark_installed(|q| {
            if !q.epoch().fires_at(t_ms) {
                return None;
            }
            aggregation_due |= q.is_aggregation();
            let matches = q
                .predicates()
                .matches_with(|attr| readings.get(attr).unwrap_or(f64::NAN));
            if !matches {
                return Some(false);
            }
            match q.selection() {
                Selection::Attributes(attrs) => {
                    acq_matches.push(q.id());
                    acq_attrs.extend(attrs);
                }
                Selection::Aggregates(aggs) => {
                    agg_matched = true;
                    let seeded: Vec<Option<PartialAgg>> = aggs
                        .iter()
                        .map(|&(op, attr)| readings.get(attr).map(|v| op.seed(v)))
                        .collect();
                    buffers.merge(ctx, q.id(), t_ms, &seeded);
                }
            }
            Some(true)
        });

        let transmits_now = !acq_matches.is_empty() || agg_matched;
        // Shared-acquisition hit: one sample batch served several queries.
        // (A due query is marked has-data exactly when it matched above.)
        if transmits_now {
            ctx.trace_with(|| TraceEvent::SharedAcquisition {
                node: ctx.node(),
                epoch_ms: t_ms,
                acq: acq_matches.clone(),
                agg: due(&self.floods, t_ms)
                    .filter(|q| q.is_aggregation() && self.floods.has_data_for(q.id()))
                    .map(|q| q.id())
                    .collect(),
            });
        }

        // Wake-up announcement (§3.2.2): only after an *actual* sleep, and
        // only when no result transmission at this firing will announce us
        // anyway — neighbours learn has-data sets by overhearing result
        // frames, so an explicit broadcast is needed only for data that
        // serves queries not due right now.
        if self.slept && !had_data && self.floods.has_any_data() && !transmits_now {
            let payload = TtmqoPayload::Wakeup {
                has_data: self.floods.has_data().collect(),
            };
            let bytes = payload.wire_size();
            ctx.send(Destination::Broadcast, MsgKind::Wakeup, bytes, payload);
        }
        self.slept = false;

        // Shared acquisition result: one frame answers every matched
        // acquisition query.
        if !acq_matches.is_empty() {
            let entry = RowEntry {
                node: ctx.node().0,
                qids: acq_matches,
                readings: readings.project(acq_attrs),
            };
            let qids = entry.qids.iter().copied();
            if let Some((dest, assignments)) = self.route(ctx, t_ms, qids, Some(entry.node)) {
                send_shared_rows(ctx, dest, t_ms, entry, assignments);
            }
        }

        // Shared aggregation: the partials seeded above are transmitted at
        // this node's TAG slot (deeper levels earlier).
        if aggregation_due {
            self.config.tag_slots().arm(ctx, QueryId(0), t_ms);
        }

        self.maybe_sleep(ctx, t_ms);
    }

    /// Schedules the post-window sleep check.
    fn maybe_sleep(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>, t_ms: u64) {
        if ctx.is_base_station() || self.floods.runs_none() {
            return;
        }
        let window = self.config.collection_window_ms(ctx.topology());
        let epoch_idx = t_ms / BASE_EPOCH_MS;
        ctx.set_timer(window, timer_key(K_SLEEP_CHECK, QueryId(0), epoch_idx));
    }

    fn handle_sleep_check(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>) {
        if self.floods.has_any_data() || self.relayed_recently || self.floods.runs_none() {
            return;
        }
        let Some(gcd) = self.gcd_epoch() else { return };
        let now = ctx.now().as_ms();
        let next = gcd.next_fire_at(now + 1);
        // Wake a little early so the radio is up when the epoch fires.
        let nap = next.saturating_sub(now).saturating_sub(8);
        if nap > 0 {
            self.slept = true;
            ctx.sleep_for(nap);
        }
    }

    /// Routes a result frame serving `qids` (ascending, no duplicates) to
    /// parents: dynamically via the DAG, or to the fixed link-quality parent
    /// when `dynamic_parents` is off. `source` is the node whose row the
    /// frame carries (`None` for partials, which TAG merges past any origin).
    /// Traces the hop and returns the frame's destination with the
    /// assignments it must carry — none to one parent, the split to several;
    /// `None` — after the orphan accounting — when there is data to send but
    /// no live route toward the base station.
    fn route(
        &mut self,
        ctx: &mut Ctx<'_, TtmqoPayload, Output>,
        epoch_ms: u64,
        qids: impl ExactSizeIterator<Item = QueryId> + Clone,
        source: Option<u16>,
    ) -> Option<(Destination, Assignments)> {
        let election = if self.config.dynamic_parents {
            self.dag.choose_parents(qids.clone())
        } else {
            self.fixed_parent.map_or(Election::NoRoute, Election::One)
        };
        let (dest, assignments) = match election {
            Election::NoRoute => {
                if self.dag.is_orphaned() {
                    ctx.record_orphaned();
                    self.announce_no_route(ctx, epoch_ms);
                }
                return None;
            }
            Election::One(parent) => (Destination::Unicast(parent), Vec::new()),
            Election::Split(split) => {
                let parents = split.iter().map(|(n, _)| *n).collect();
                (Destination::Multicast(parents), split)
            }
        };
        ctx.trace_with(|| TraceEvent::ResultHop {
            from: ctx.node(),
            to: match &dest {
                Destination::Unicast(parent) => vec![*parent],
                Destination::Multicast(parents) => parents.clone(),
                Destination::Broadcast => unreachable!("a result frame names its parents"),
            },
            epoch_ms,
            prov: source
                .map(|node| ProvenanceId::new(NodeId(node), epoch_ms))
                .into_iter()
                .collect(),
            qids: qids.collect(),
            origin: source == Some(ctx.node().0),
        });
        Some((dest, assignments))
    }

    /// Broadcasts (at most once per epoch) that this node is orphaned — no
    /// live route toward the base station — so lower neighbours re-elect
    /// around it instead of feeding a black hole that acknowledges their
    /// frames and then drops the data.
    fn announce_no_route(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>, epoch_ms: u64) {
        if self.last_no_route_ms == Some(epoch_ms) {
            return;
        }
        self.last_no_route_ms = Some(epoch_ms);
        ctx.trace_with(|| TraceEvent::NoRouteResignation {
            node: ctx.node(),
            epoch_ms,
        });
        let payload = TtmqoPayload::NoRoute;
        let bytes = payload.wire_size();
        ctx.send(Destination::Broadcast, MsgKind::Maintenance, bytes, payload);
    }

    /// Sends the shared aggregation frame for one epoch from the buffers.
    fn flush_partials(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>, epoch_ms: u64) {
        let mut entries = Vec::new();
        for (qid, partials) in self.buffers.take_epoch(epoch_ms) {
            if partials.iter().all(Option::is_none) {
                continue;
            }
            entries.push(PartialEntry { qid, partials });
        }
        if entries.is_empty() {
            return;
        }
        let qids = entries.iter().map(|e| e.qid);
        let Some((dest, assignments)) = self.route(ctx, epoch_ms, qids, None) else {
            return;
        };
        let payload = TtmqoPayload::SharedPartials {
            epoch_ms,
            entries,
            assignments,
        };
        let bytes = payload.wire_size();
        ctx.send(dest, MsgKind::Result, bytes, payload);
    }

    /// Failure recovery: ask the neighbourhood about query ids we hear
    /// traffic for but do not know (at most once per id per reboot); any
    /// neighbour that knows the query shares it. Extension beyond the paper,
    /// which leaves node failures to future work.
    fn request_unknown_queries<I: IntoIterator<Item = QueryId>>(
        &mut self,
        ctx: &mut Ctx<'_, TtmqoPayload, Output>,
        qids: I,
    ) {
        for qid in qids {
            // Never request a query we run or whose flood we already
            // heard: we installed it, or it was aborted.
            if !self.floods.request(qid) {
                continue;
            }
            let payload = TtmqoPayload::QueryRequest(qid);
            let bytes = payload.wire_size();
            ctx.send(Destination::Broadcast, MsgKind::Maintenance, bytes, payload);
        }
    }

    /// The queries of a received result frame this node is responsible for:
    /// `None` when the frame came by unicast and names nobody — all of them;
    /// otherwise my share of the split (a multicast frame names each
    /// recipient once), ascending.
    fn my_share(me: NodeId, assignments: &[(NodeId, Vec<QueryId>)]) -> Option<&[QueryId]> {
        if assignments.is_empty() {
            return None;
        }
        let mine = assignments.iter().find(|(n, _)| *n == me);
        Some(mine.map_or(&[], |(_, qs)| qs))
    }

    /// Handles `frame`, a shared acquisition frame addressed to this node,
    /// whose fields the other arguments are.
    fn handle_shared_rows(
        &mut self,
        ctx: &mut Ctx<'_, TtmqoPayload, Output>,
        frame: &TtmqoPayload,
        epoch_ms: u64,
        entry: &RowEntry,
        assignments: &[(NodeId, Vec<QueryId>)],
    ) {
        let share = Self::my_share(ctx.node(), assignments);
        // A share is a subset of the entry's queries, so it is the entry's
        // queries this node answers for.
        let mine = share.unwrap_or(&entry.qids);
        self.request_unknown_queries(ctx, mine.iter().copied());
        if mine.is_empty() {
            return;
        }
        if ctx.is_base_station() {
            // Journey's end: buffer the entry's row for each query it
            // answers on my behalf, straight from the frame. A query the
            // base station does not run has no open epoch: its row is late.
            ctx.trace_with(|| TraceEvent::ResultDelivered {
                prov: ProvenanceId::new(NodeId(entry.node), epoch_ms),
                qids: mine.to_vec(),
                epoch_ms,
            });
            for &qid in mine {
                let readings = match self.floods.running(qid).map(|q| q.selection()) {
                    Some(Selection::Attributes(attrs)) => entry.readings.project(attrs),
                    _ => entry.readings,
                };
                let row = Row {
                    node: entry.node,
                    time_ms: epoch_ms,
                    readings,
                };
                self.buffers.add_row(ctx, qid, row);
            }
            return;
        }
        self.relayed_recently = true;
        let qids = mine.iter().copied();
        let Some((dest, split)) = self.route(ctx, epoch_ms, qids, Some(entry.node)) else {
            return;
        };
        if share.is_none() && split.is_empty() {
            // Handed the whole frame, handing it all to one parent: the
            // frame to send is the frame received.
            ctx.forward(dest, MsgKind::Result, frame.wire_size());
        } else {
            let entry = RowEntry {
                qids: mine.to_vec(),
                ..*entry
            };
            send_shared_rows(ctx, dest, epoch_ms, entry, split);
        }
    }

    fn handle_shared_partials(
        &mut self,
        ctx: &mut Ctx<'_, TtmqoPayload, Output>,
        epoch_ms: u64,
        entries: &[PartialEntry],
        assignments: &[(NodeId, Vec<QueryId>)],
    ) {
        // Entries and shares are both ascending, so walking my entries
        // walks my share.
        let share = Self::my_share(ctx.node(), assignments);
        let mine = || {
            entries
                .iter()
                .filter(|e| share.is_none_or(|qids| qids.contains(&e.qid)))
        };
        self.request_unknown_queries(ctx, mine().map(|e| e.qid));
        let mut merged_any = false;
        for e in mine() {
            self.buffers.merge(ctx, e.qid, epoch_ms, &e.partials);
            merged_any = true;
        }
        if !merged_any || ctx.is_base_station() {
            return;
        }
        self.relayed_recently = true;
        // A late child's partials go on at once.
        if !self.config.tag_slots().wait(ctx, QueryId(0), epoch_ms) {
            self.flush_partials(ctx, epoch_ms);
        }
    }
}

/// The installed queries due at a firing at `t_ms`, ascending.
fn due(floods: &Floods, t_ms: u64) -> impl Iterator<Item = &Arc<Query>> {
    floods.installed().filter(move |q| q.epoch().fires_at(t_ms))
}

/// Puts a shared acquisition frame on the air.
fn send_shared_rows(
    ctx: &mut Ctx<'_, TtmqoPayload, Output>,
    dest: Destination,
    epoch_ms: u64,
    entry: RowEntry,
    assignments: Assignments,
) {
    let payload = TtmqoPayload::SharedRows {
        epoch_ms,
        entry,
        assignments,
    };
    let bytes = payload.wire_size();
    ctx.send(dest, MsgKind::Result, bytes, payload);
}

impl NodeApp for TtmqoApp {
    type Payload = TtmqoPayload;
    type Command = Command;
    type Output = Output;

    fn on_start(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>) {
        let node = ctx.node();
        let topo = ctx.topology();
        let upper = topo.upper_neighbors(node).into_iter();
        self.dag = DagState::new(upper.map(|n| (n, topo.link_quality(node, n))));
        if self.detects_dead_parents {
            self.dag.set_failure_detector(DEAD_PARENT_AFTER);
        }
        if !self.config.dynamic_parents {
            self.fixed_parent = topo.default_parent(node);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>, key: u64) {
        let (kind, qid, extra) = timer_key_parts(key);
        match kind {
            K_CLOCK => {
                if extra != self.clock_gen {
                    return; // stale clock from before a query-set change
                }
                let Some(gcd) = self.gcd_epoch() else { return };
                let now = ctx.now().as_ms();
                let t = now - now % gcd.as_ms();
                ctx.set_timer(gcd.as_ms(), timer_key(K_CLOCK, QueryId(0), self.clock_gen));
                self.handle_clock(ctx, t);
            }
            KIND_SLOT => self.flush_partials(ctx, extra * BASE_EPOCH_MS),
            KIND_CLOSE => {
                if let Some(query) = self.floods.running(qid) {
                    self.buffers.close(ctx, query, extra * BASE_EPOCH_MS);
                }
            }
            KIND_FLOOD_QUERY => {
                let Some(query) = self.floods.running(qid).cloned() else {
                    return;
                };
                // Evaluate whether we have data for the new query so the
                // flood piggybacks fresh information downstream.
                if !ctx.is_base_station() {
                    let mut readings = Readings::new();
                    for attr in query.sampled_attributes() {
                        let v = ctx.read_sensor(attr);
                        readings.set(attr, v);
                    }
                    let matches = query
                        .predicates()
                        .matches_with(|attr| readings.get(attr).expect("attributes sampled"));
                    self.floods.set_has_data(qid, matches);
                }
                let payload = TtmqoPayload::Query {
                    query,
                    has_data: self.floods.has_data().collect(),
                };
                let bytes = payload.wire_size();
                ctx.send(
                    Destination::Broadcast,
                    MsgKind::QueryPropagation,
                    bytes,
                    payload,
                );
            }
            KIND_FLOOD_ABORT => {
                let payload = TtmqoPayload::Abort(qid);
                let bytes = payload.wire_size();
                ctx.send(Destination::Broadcast, MsgKind::QueryAbort, bytes, payload);
            }
            K_SLEEP_CHECK => {
                self.handle_sleep_check(ctx);
            }
            _ => unreachable!("unknown timer kind {kind}"),
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, TtmqoPayload, Output>,
        from: NodeId,
        _kind: MsgKind,
        payload: &TtmqoPayload,
    ) {
        // Any frame from an upper neighbour is proof of life for the parent
        // failure detector.
        self.dag.record_heard(from);
        match payload {
            TtmqoPayload::Query { query, has_data } => {
                self.dag.record_has_data(from, has_data.iter().copied());
                self.hear_query(ctx, query);
            }
            TtmqoPayload::Abort(qid) => self.hear_abort(ctx, *qid),
            TtmqoPayload::Wakeup { has_data } => {
                self.dag.record_has_data(from, has_data.iter().copied());
            }
            TtmqoPayload::NoRoute => {
                self.dag.record_no_route(from);
            }
            TtmqoPayload::SharedRows {
                epoch_ms,
                entry,
                assignments,
            } => {
                self.handle_shared_rows(ctx, payload, *epoch_ms, entry, assignments);
            }
            TtmqoPayload::SharedPartials {
                epoch_ms,
                entries,
                assignments,
            } => {
                self.handle_shared_partials(ctx, *epoch_ms, entries, assignments);
            }
            TtmqoPayload::QueryRequest(qid) => {
                if let Some(query) = self.floods.running(*qid) {
                    let payload = TtmqoPayload::QueryShare(Arc::clone(query));
                    let bytes = payload.wire_size();
                    // The share goes out at once: this draw delays nothing.
                    // It stays because it is part of the node's RNG stream,
                    // which the fault goldens pin; jitter that desynchronizes
                    // several helpful neighbours needs a timer, and a PR
                    // that may move those goldens.
                    let _ = ctx.rand_u64();
                    ctx.send(Destination::Broadcast, MsgKind::Maintenance, bytes, payload);
                }
            }
            TtmqoPayload::QueryShare(query) => {
                if !self.floods.aborted(query.id()) {
                    // Install without re-flooding: this is local recovery.
                    self.install(ctx, query);
                }
            }
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, TtmqoPayload, Output>, cmd: Command) {
        debug_assert!(ctx.is_base_station(), "commands arrive at the base station");
        match cmd {
            // The one allocation every flood frame and installed copy shares.
            Command::Pose(query) => self.hear_query(ctx, &Arc::new(query)),
            Command::Terminate(qid) => self.hear_abort(ctx, qid),
        }
    }

    fn on_overhear(
        &mut self,
        ctx: &mut Ctx<'_, TtmqoPayload, Output>,
        from: NodeId,
        _kind: MsgKind,
        payload: &TtmqoPayload,
    ) {
        // Exploit the broadcast nature of the channel: a neighbour's result
        // frame reveals exactly which queries it has data for, keeping the
        // DAG's has-data knowledge fresh at zero radio cost. Overhearing is
        // also proof of life for the parent failure detector. This runs once
        // per receiver of every result frame, so the frame's query ids are
        // walked in place — nothing is collected — and the DAG is asked only
        // about a sender it has a slot for: `upper` is the neighbours one
        // level up (`on_start`), and the level array is shared by every
        // node, where each node's DAG vectors are its own cache lines.
        let from_upper = ctx.topology().level(from) + 1 == ctx.level();
        if from_upper {
            self.dag.record_heard(from);
        }
        match payload {
            TtmqoPayload::SharedRows { entry, .. } => {
                let qids = || entry.qids.iter().copied();
                if from_upper {
                    self.dag.record_has_data(from, qids());
                }
                self.request_unknown_queries(ctx, qids());
            }
            TtmqoPayload::SharedPartials { entries, .. } => {
                let qids = || entries.iter().map(|e| e.qid);
                if from_upper {
                    self.dag.record_has_data(from, qids());
                }
                self.request_unknown_queries(ctx, qids());
            }
            TtmqoPayload::NoRoute if from_upper => {
                self.dag.record_no_route(from);
            }
            _ => {}
        }
    }

    fn on_send_failed(
        &mut self,
        ctx: &mut Ctx<'_, TtmqoPayload, Output>,
        dest: NodeId,
        _kind: MsgKind,
    ) {
        // A whole unicast retry budget went unacknowledged: the strongest
        // dead-parent evidence the radio can give. Enough consecutive
        // failures (with nothing overheard in between) and the parent is
        // excluded from routing; the next epoch's rows re-elect among the
        // surviving upper neighbours.
        if self.dag.record_send_failure(dest) {
            ctx.trace_with(|| TraceEvent::ParentDead {
                node: ctx.node(),
                parent: dest,
            });
        }
    }
}
