//! The probe seam: every radio occurrence is reported once, as one [`Probe`]
//! value, and the run's accounting and trace consume that one value.
//!
//! A site in the engine says *what happened* —
//! `probes.record(at_us, Probe::Tx { .. })` — and nothing about who is
//! listening. [`Probes`] feeds the value to [`Metrics`] (always) and, when a
//! trace sink is attached, to the trace. What a tx, an rx, a collision or a
//! retracted nap *means* to each consumer is one `match` per consumer
//! (`Metrics::apply`, [`Probe::trace_event`]) instead of a hand-written
//! fan-out per site.
//!
//! [`Observe`] states the observer contract; DESIGN.md §22 has the table of
//! sites.

use crate::metrics::Metrics;
use crate::radio::MsgKind;
use crate::time::SimTime;
use crate::topology::NodeId;
use crate::trace::{TraceDest, TraceEvent, TraceHandle};

/// What to observe about a run, beyond the [`Metrics`] every run keeps.
///
/// **The observer contract.** Nothing selected here draws from the
/// simulation RNG, branches on simulated state, or reorders events: a run is
/// bit-identical — metrics, answers, engine counters, and the trace
/// itself — whichever of these are on. With everything off (the
/// default) each engine site costs its metrics update plus one not-taken
/// branch. The golden-determinism tests pin both halves.
#[derive(Debug, Clone, Default)]
pub struct Observe {
    /// Sink for structured per-event [`TraceEvent`]s from the engine, the
    /// node apps, Tier 1 and the runner's answer mapping.
    pub trace: TraceHandle,
    /// Run the standing invariant auditor over the finished run — post-hoc
    /// arithmetic over artifacts the run already produced. The engine
    /// ignores this; the experiment runner acts on it.
    pub audit: bool,
}

/// One frame at one of its receivers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reception {
    pub(crate) src: NodeId,
    pub(crate) node: NodeId,
    pub(crate) kind: MsgKind,
}

/// One engine occurrence. `Copy`, allocation-free, and built whether or not
/// anyone observes the run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Probe {
    /// A frame went on the air (recorded at its airtime start).
    Tx {
        node: NodeId,
        kind: MsgKind,
        dest: TraceDest,
        /// Payload + header bytes.
        bytes: usize,
        airtime_us: u64,
    },
    /// An awake, live node's radio received a frame (intact or not).
    Rx { node: NodeId, busy_ms: f64 },
    /// A frame arrived intact and is about to be handed to the node's app.
    Delivered { at: Reception, intended: bool },
    /// A frame was corrupted by a collision at the receiver.
    Collision(Reception),
    /// The loss model dropped a frame at the receiver.
    Lost(Reception),
    /// An addressed frame found the receiver's radio off (asleep or failed).
    Missed { at: Reception, asleep: bool },
    /// A missed unicast frame was re-queued.
    Retry { at: Reception, retries_left: u32 },
    /// A unicast frame ran out of retries.
    GaveUp(Reception),
    /// A transmission's carrier sense deferred at least once.
    CsmaDeferred {
        node: NodeId,
        deferrals: u32,
        capped: bool,
    },
    /// A nap was planned. Naps are credited in full when planned, so the
    /// unspent part of the nap it replaces (`pending_us`) is retracted.
    Sleep {
        node: NodeId,
        duration_ms: u64,
        pending_us: u64,
    },
    /// The radio was woken early; the unspent nap is retracted.
    Wake { node: NodeId, pending_us: u64 },
    /// A fault crashed the node; the unspent nap is retracted (a failed
    /// node draws no power, so leaving it credited would overstate sleep).
    Crash { node: NodeId, pending_us: u64 },
    /// A crashed node rebooted.
    Recover { node: NodeId },
    /// A sensor attribute was sampled.
    Sample,
    /// A node dropped results it had no live route for.
    Orphaned { node: NodeId },
    /// The base station dropped a result for an epoch it is not collecting.
    Late { partials: bool },
}

impl Probe {
    /// The change this probe makes to `node`'s credited sleep time, ms.
    #[inline(always)]
    pub(crate) fn sleep_delta_ms(self) -> Option<(NodeId, f64)> {
        match self {
            Probe::Sleep {
                node,
                duration_ms,
                pending_us,
            } => Some((node, duration_ms as f64 - pending_us as f64 / 1000.0)),
            Probe::Wake { node, pending_us } | Probe::Crash { node, pending_us } => {
                Some((node, -(pending_us as f64) / 1000.0))
            }
            _ => None,
        }
    }

    /// The trace record of this occurrence, if it has one: the only place
    /// an engine [`TraceEvent`] is built.
    fn trace_event(self) -> Option<TraceEvent> {
        use TraceEvent as T;
        Some(match self {
            Probe::Tx {
                node: src,
                kind,
                dest,
                bytes,
                airtime_us,
            } => T::FrameTx {
                src,
                kind,
                dest,
                bytes,
                airtime_us,
            },
            Probe::Delivered {
                at: Reception { src, node, kind },
                intended,
            } => T::FrameDelivered {
                src,
                node,
                kind,
                intended,
            },
            Probe::Collision(Reception { src, node, kind }) => {
                T::FrameCollision { src, node, kind }
            }
            Probe::Lost(Reception { src, node, kind }) => T::FrameLost { src, node, kind },
            Probe::Missed {
                at: Reception { src, node, kind },
                asleep,
            } => T::FrameMissed {
                src,
                node,
                kind,
                asleep,
            },
            Probe::Retry {
                at: Reception { src, node, kind },
                retries_left,
            } => T::FrameRetry {
                src,
                node,
                kind,
                retries_left,
            },
            Probe::GaveUp(Reception { src, node, kind }) => T::FrameGaveUp { src, node, kind },
            Probe::CsmaDeferred {
                node,
                deferrals,
                capped,
            } => T::CsmaDeferred {
                node,
                deferrals,
                capped,
            },
            Probe::Sleep {
                node, duration_ms, ..
            } => T::SleepStart { node, duration_ms },
            Probe::Wake { node, .. } => T::Wake { node },
            Probe::Crash { node, .. } => T::FaultCrash { node },
            Probe::Recover { node } => T::FaultRecover { node },
            Probe::Rx { .. } | Probe::Sample | Probe::Orphaned { .. } | Probe::Late { .. } => {
                return None
            }
        })
    }
}

/// Owner of a simulator's [`Metrics`] and of the trace sink that observes
/// the run.
#[derive(Debug)]
pub(crate) struct Probes {
    metrics: Metrics,
    trace: TraceHandle,
}

impl Probes {
    /// Untraced accounting for `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Probes {
            metrics: Metrics::new(nodes),
            trace: TraceHandle::disabled(),
        }
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub(crate) fn set_horizon(&mut self, t: SimTime) {
        self.metrics.set_horizon(t);
    }

    /// Reports one occurrence at simulation time `at_us`. Always inlined:
    /// the probe's variant is a constant at every site, so the metrics
    /// `match` folds to its one arm and no `Probe` is ever materialized on
    /// the untraced path.
    #[inline(always)]
    pub(crate) fn record(&mut self, at_us: u64, probe: Probe) {
        self.metrics.apply(probe);
        if self.trace.is_enabled() {
            self.emit(at_us, probe);
        }
    }

    /// Out of line: every engine site inlines [`Probes::record`], and the
    /// untraced run should carry only the branch around this call.
    #[inline(never)]
    fn emit(&self, at_us: u64, probe: Probe) {
        if let Some(event) = probe.trace_event() {
            self.trace.emit(at_us, event);
        }
    }

    /// Emits an app-level trace event, built only if a sink is attached.
    #[inline]
    pub(crate) fn trace_with(&self, at_us: u64, event: impl FnOnce() -> TraceEvent) {
        self.trace.emit_with(at_us, event);
    }

    /// Replaces the trace sink.
    pub(crate) fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }
}

/// Shorthand constructors for the accounting's unit tests.
#[cfg(test)]
impl Probe {
    pub(crate) fn tx(node: u16, kind: MsgKind, bytes: usize, airtime_ms: u64) -> Probe {
        Probe::Tx {
            node: NodeId(node),
            kind,
            dest: TraceDest::Broadcast,
            bytes,
            airtime_us: airtime_ms * 1000,
        }
    }

    pub(crate) fn rx(node: u16, busy_ms: f64) -> Probe {
        Probe::Rx {
            node: NodeId(node),
            busy_ms,
        }
    }

    /// A fresh nap (nothing pending to retract).
    pub(crate) fn nap(node: u16, duration_ms: u64) -> Probe {
        Probe::Sleep {
            node: NodeId(node),
            duration_ms,
            pending_us: 0,
        }
    }

    pub(crate) fn wake(node: u16, pending_us: u64) -> Probe {
        Probe::Wake {
            node: NodeId(node),
            pending_us,
        }
    }
}

#[cfg(test)]
impl Reception {
    /// A result frame from node 0 at node 1.
    pub(crate) const ANY: Reception = Reception {
        src: NodeId(0),
        node: NodeId(1),
        kind: MsgKind::Result,
    };
}
