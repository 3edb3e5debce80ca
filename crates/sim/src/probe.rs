//! The probe seam: every radio occurrence is reported once, as one [`Probe`]
//! value, and the run's accounting and trace consume that one value.
//!
//! A site in the engine says *what happened* —
//! `probes.record(at_us, Probe::Tx { .. })` — and nothing about who is
//! listening. [`Probes`] feeds the value to [`Metrics`] (always) and, when a
//! trace sink is attached, to the trace as [`TraceEvent::Engine`]. What a
//! tx, an rx, a collision or a retracted nap *means* to each consumer is one
//! `match` per consumer (`Metrics::apply`, the trace writer) instead of a
//! hand-written fan-out per site.
//!
//! [`Observe`] states the observer contract; DESIGN.md §11 has the table of
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reception {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub node: NodeId,
    /// Message kind.
    pub kind: MsgKind,
}

/// One engine occurrence. `Copy`, allocation-free, and built whether or not
/// anyone observes the run. It is also the occurrence's trace record
/// ([`TraceEvent::Engine`]); `Rx`, `Sample`, `Orphaned` and `Late` are
/// booked but never traced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// A frame went on the air (recorded at its airtime start).
    Tx {
        /// Transmitting node.
        node: NodeId,
        /// Message kind.
        kind: MsgKind,
        /// Addressing.
        dest: TraceDest,
        /// Payload + header bytes.
        bytes: usize,
        /// Airtime of the transmission, µs.
        airtime_us: u64,
    },
    /// An awake, live node's radio received a frame (intact or not).
    Rx {
        /// Receiving node.
        node: NodeId,
        /// Radio time the reception cost, ms.
        busy_ms: f64,
    },
    /// A frame arrived intact and is about to be handed to the node's app.
    Delivered {
        /// The frame and its receiver.
        at: Reception,
        /// Whether the receiver was addressed (else an overhear).
        intended: bool,
    },
    /// A frame was corrupted by a collision at the receiver.
    Collision(Reception),
    /// The loss model dropped a frame at the receiver.
    Lost(Reception),
    /// An addressed frame found the receiver's radio off (asleep or failed).
    Missed {
        /// The frame and its addressed receiver.
        at: Reception,
        /// True if the receiver slept; false if it was failed.
        asleep: bool,
    },
    /// A missed unicast frame was re-queued.
    Retry {
        /// The frame and its addressed receiver.
        at: Reception,
        /// Retries remaining after this one.
        retries_left: u32,
    },
    /// A unicast frame ran out of retries.
    GaveUp(Reception),
    /// A transmission's carrier sense deferred at least once.
    CsmaDeferred {
        /// Deferring sender.
        node: NodeId,
        /// Number of deferrals taken.
        deferrals: u32,
        /// Whether the deferral budget was exhausted (transmit-with-collision
        /// fall-through).
        capped: bool,
    },
    /// A nap was planned. Naps are credited in full when planned, so the
    /// unspent part of the nap it replaces (`pending_us`) is retracted.
    Sleep {
        /// Sleeping node.
        node: NodeId,
        /// Planned nap length, ms.
        duration_ms: u64,
        /// Unspent part of the replaced nap, µs.
        pending_us: u64,
    },
    /// The radio was woken early; the unspent nap is retracted.
    Wake {
        /// Waking node.
        node: NodeId,
        /// Unspent part of the nap, µs.
        pending_us: u64,
    },
    /// A fault crashed the node; the unspent nap is retracted (a failed
    /// node draws no power, so leaving it credited would overstate sleep).
    Crash {
        /// Crashed node.
        node: NodeId,
        /// Unspent part of its nap, µs.
        pending_us: u64,
    },
    /// A crashed node rebooted.
    Recover {
        /// Recovered node.
        node: NodeId,
    },
    /// A sensor attribute was sampled.
    Sample,
    /// A node dropped results it had no live route for.
    Orphaned {
        /// The node that dropped them.
        node: NodeId,
    },
    /// The base station dropped a result for an epoch it is not collecting.
    Late {
        /// Whether the result was an aggregation partial (else a row).
        partials: bool,
    },
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
        if !matches!(
            probe,
            Probe::Rx { .. } | Probe::Sample | Probe::Orphaned { .. } | Probe::Late { .. }
        ) {
            self.trace.emit_with(at_us, || TraceEvent::Engine(probe));
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
