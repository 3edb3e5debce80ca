//! The baseline node application: TinyDB-style acquisitional query
//! processing, one routing tree, every query handled independently.
//!
//! This is the comparison point of the paper's §4.1: "each query is optimized
//! by TinyDB, and multiple queries that have been sent to the base station are
//! all injected into the network to run concurrently without multi-query
//! optimization". Concretely:
//!
//! * one **fixed routing tree** built from link quality (each node parents on
//!   its best upper-level neighbour);
//! * queries are **flooded** through the network and installed everywhere;
//! * every query **samples separately** each epoch, even when another query
//!   samples the same attribute at the same instant;
//! * acquisition rows travel **per query** up the tree, forwarded hop by hop;
//! * aggregation uses TAG-style slotted in-network aggregation, **per query**:
//!   deeper levels transmit earlier so parents can merge partials.

use crate::buffers::{timer_key, timer_key_parts, EpochBuffers, TagSlots, KIND_CLOSE, KIND_SLOT};
use crate::flood::{Floods, KIND_FLOOD_ABORT, KIND_FLOOD_QUERY};
use crate::messages::{Command, Output, TinyDbPayload};
use std::sync::Arc;
use ttmqo_query::{PartialAgg, Query, QueryId, Readings, Row, Selection, BASE_EPOCH_MS};
use ttmqo_sim::{Ctx, Destination, MsgKind, NodeApp, NodeId, ProvenanceId, TraceEvent};

/// Timer-key kind of a query's sampling clock (low 4 bits of the key).
const KIND_SAMPLE: u64 = 0;

/// Per-node configuration of the baseline: nothing to set, as the paper's
/// flooding baseline has no options.
#[derive(Debug, Clone, Default)]
pub struct TinyDbConfig {}

/// The baseline TinyDB-style node application.
///
/// Use [`TinyDbApp::new`] in the factory passed to
/// [`Simulator::new`](ttmqo_sim::Simulator::new); node 0 automatically acts
/// as the base station.
#[derive(Debug)]
pub struct TinyDbApp {
    /// What this node knows per query id: the floods it heard and the
    /// queries it runs (samples for; the base station: closes epochs of).
    floods: Floods,
    /// Partials and (base station only) rows per (query, epoch start ms).
    buffers: EpochBuffers,
    /// This node's parent in the routing tree, read once per boot in
    /// `on_start` (`None` at the base station).
    parent: Option<NodeId>,
}

impl TinyDbApp {
    /// TAG slots of 64 ms; flood rebroadcasts and slot transmissions are
    /// jittered by up to 24 ms.
    pub const TAG: TagSlots = TagSlots {
        slot_ms: 64,
        jitter_ms: 24,
    };

    /// Creates a baseline node with the given configuration.
    pub fn new(_config: TinyDbConfig) -> Self {
        TinyDbApp {
            floods: Floods::new(Self::TAG.jitter_ms),
            buffers: EpochBuffers::default(),
            parent: None,
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

    /// A copy of `query`'s flood arrived: the first installs it.
    fn hear_query(&mut self, ctx: &mut Ctx<'_, TinyDbPayload, Output>, query: &Arc<Query>) {
        if !self.floods.on_query(ctx, query) {
            return;
        }
        let qid = query.id();
        self.floods.install(query);
        // First firing strictly in the future, aligned to the global epoch
        // grid (TinyDB synchronizes epochs via time sync).
        let now = ctx.now().as_ms();
        let t0 = query.epoch().next_fire_at(now + 1);
        ctx.set_timer(t0 - now, timer_key(KIND_SAMPLE, qid, 0));
    }

    fn hear_abort(&mut self, ctx: &mut Ctx<'_, TinyDbPayload, Output>, qid: QueryId) {
        if self.floods.on_abort(ctx, qid) {
            self.floods.uninstall(qid);
            self.buffers.forget_query(qid);
        }
    }

    /// The query's sampling clock fired at the start of one of its epochs.
    fn handle_sample(&mut self, ctx: &mut Ctx<'_, TinyDbPayload, Output>, qid: QueryId) {
        let Some(query) = self.floods.running(qid) else {
            return; // query terminated since the timer was set
        };
        let now = ctx.now().as_ms();
        let epoch_ms = now - now % query.epoch().as_ms();
        // Re-arm the periodic sample timer.
        ctx.set_timer(query.epoch().as_ms(), timer_key(KIND_SAMPLE, qid, 0));

        // One fire per query: the baseline shares nothing, so (unlike the
        // in-network tier's single fire listing every due query) each query's
        // epoch announces itself separately.
        ctx.trace_with(|| TraceEvent::EpochFire {
            node: ctx.node(),
            epoch_ms,
            due: vec![qid],
        });

        if ctx.is_base_station() {
            // The base station does not sense; it collects the epoch until
            // one slot after every level's has passed, plus a margin.
            let close_after = Self::TAG.close_after(ctx.topology());
            self.buffers.open(ctx, query, epoch_ms, close_after);
            return;
        }
        // Sample every attribute this query needs — independently of any
        // other query (the baseline shares nothing).
        let mut readings = Readings::new();
        for attr in query.sampled_attributes() {
            let v = ctx.read_sensor(attr);
            readings.set(attr, v);
        }
        let qualifies = query.predicates().matches_with(|attr| {
            readings
                .get(attr)
                .expect("all predicate attributes were sampled")
        });

        match query.selection() {
            Selection::Attributes(attrs) => {
                if qualifies {
                    let row = Row {
                        node: ctx.node().0,
                        time_ms: epoch_ms,
                        readings: readings.project(attrs),
                    };
                    let payload = TinyDbPayload::Row { qid, row };
                    if let Some(parent) = self.parent {
                        ctx.trace_with(|| TraceEvent::ResultHop {
                            from: ctx.node(),
                            to: vec![parent],
                            epoch_ms,
                            prov: vec![ProvenanceId::new(ctx.node(), epoch_ms)],
                            qids: vec![qid],
                            origin: true,
                        });
                        let bytes = payload.wire_size();
                        ctx.send(
                            Destination::Unicast(parent),
                            MsgKind::Result,
                            bytes,
                            payload,
                        );
                    }
                }
            }
            Selection::Aggregates(aggs) => {
                if qualifies {
                    let seeded: Vec<Option<PartialAgg>> = aggs
                        .iter()
                        .map(|&(op, attr)| readings.get(attr).map(|v| op.seed(v)))
                        .collect();
                    self.buffers.merge(ctx, qid, epoch_ms, seeded);
                }
                // Arm this node's TAG slot whether or not it qualified: it
                // may still need to forward children's partials.
                Self::TAG.arm(ctx, qid, epoch_ms);
            }
        }
    }

    fn handle_slot(
        &mut self,
        ctx: &mut Ctx<'_, TinyDbPayload, Output>,
        qid: QueryId,
        epoch_ms: u64,
    ) {
        let Some(partials) = self.buffers.take(qid, epoch_ms) else {
            return; // nothing to send this epoch
        };
        if partials.iter().all(Option::is_none) {
            return;
        }
        if let Some(parent) = self.parent {
            // TAG merges per-origin identity away: no provenance to carry.
            ctx.trace_with(|| TraceEvent::ResultHop {
                from: ctx.node(),
                to: vec![parent],
                epoch_ms,
                prov: Vec::new(),
                qids: vec![qid],
                origin: false,
            });
            let payload = TinyDbPayload::Partials {
                qid,
                epoch_ms,
                partials: partials.into(),
            };
            let bytes = payload.wire_size();
            ctx.send(
                Destination::Unicast(parent),
                MsgKind::Result,
                bytes,
                payload,
            );
        }
    }
}

impl NodeApp for TinyDbApp {
    type Payload = TinyDbPayload;
    type Command = Command;
    type Output = Output;

    fn on_start(&mut self, ctx: &mut Ctx<'_, TinyDbPayload, Output>) {
        self.parent = ctx.topology().default_parent(ctx.node());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TinyDbPayload, Output>, key: u64) {
        let (kind, qid, epoch_idx) = timer_key_parts(key);
        match kind {
            KIND_SAMPLE => self.handle_sample(ctx, qid),
            KIND_SLOT => self.handle_slot(ctx, qid, epoch_idx * BASE_EPOCH_MS),
            KIND_CLOSE => {
                if let Some(query) = self.floods.running(qid) {
                    self.buffers.close(ctx, query, epoch_idx * BASE_EPOCH_MS);
                }
            }
            KIND_FLOOD_QUERY => {
                if let Some(query) = self.floods.running(qid).cloned() {
                    let payload = TinyDbPayload::Query(query);
                    let bytes = payload.wire_size();
                    ctx.send(
                        Destination::Broadcast,
                        MsgKind::QueryPropagation,
                        bytes,
                        payload,
                    );
                }
            }
            KIND_FLOOD_ABORT => {
                let payload = TinyDbPayload::Abort(qid);
                let bytes = payload.wire_size();
                ctx.send(Destination::Broadcast, MsgKind::QueryAbort, bytes, payload);
            }
            _ => unreachable!("unknown timer kind {kind}"),
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, TinyDbPayload, Output>,
        _from: NodeId,
        _kind: MsgKind,
        payload: &TinyDbPayload,
    ) {
        match payload {
            TinyDbPayload::Query(q) => self.hear_query(ctx, q),
            TinyDbPayload::Abort(qid) => self.hear_abort(ctx, *qid),
            TinyDbPayload::Row { qid, row } => {
                let epoch_ms = row.time_ms;
                let prov = ProvenanceId::new(NodeId(row.node), epoch_ms);
                if ctx.is_base_station() {
                    ctx.trace_with(|| TraceEvent::ResultDelivered {
                        prov,
                        qids: vec![*qid],
                        epoch_ms,
                    });
                    self.buffers.add_row(ctx, *qid, *row);
                } else if let Some(parent) = self.parent {
                    ctx.trace_with(|| TraceEvent::ResultHop {
                        from: ctx.node(),
                        to: vec![parent],
                        epoch_ms,
                        prov: vec![prov],
                        qids: vec![*qid],
                        origin: false,
                    });
                    // Hop-by-hop forwarding, unchanged: the baseline never
                    // merges traffic of different (or even the same) queries.
                    ctx.send(
                        Destination::Unicast(parent),
                        MsgKind::Result,
                        payload.wire_size(),
                        payload.clone(),
                    );
                }
            }
            TinyDbPayload::Partials {
                qid,
                epoch_ms,
                partials,
            } => {
                self.buffers.merge(ctx, *qid, *epoch_ms, &partials[..]);
                // A late child's partials go on at once.
                if !ctx.is_base_station() && !Self::TAG.wait(ctx, *qid, *epoch_ms) {
                    self.handle_slot(ctx, *qid, *epoch_ms);
                }
            }
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, TinyDbPayload, Output>, cmd: Command) {
        debug_assert!(ctx.is_base_station(), "commands arrive at the base station");
        match cmd {
            // The one allocation every flood frame and installed copy shares.
            Command::Pose(query) => self.hear_query(ctx, &Arc::new(query)),
            Command::Terminate(qid) => self.hear_abort(ctx, qid),
        }
    }
}
