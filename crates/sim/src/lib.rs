//! Discrete-event wireless sensor network simulator for the TTMQO
//! reproduction.
//!
//! The paper evaluates on TinyOS motes under the packet-level TOSSIM
//! emulator; this crate is the substitute substrate: a deterministic
//! discrete-event simulator whose radio model charges exactly the cost the
//! paper's model is built on (`C_start + C_trans · len` per transmission),
//! models the broadcast nature of the channel, optional packet-level
//! collisions and loss with bounded unicast retransmission, sleep mode, and
//! per-kind message accounting — everything the paper's *average transmission
//! time* metric needs.
//!
//! Applications (the TinyDB baseline and the TTMQO in-network tier) implement
//! [`NodeApp`] and are driven by [`Simulator`].
//!
//! # Example: a two-node ping
//!
//! ```
//! use ttmqo_sim::{
//!     Ctx, Destination, MsgKind, NodeApp, NodeId, Position, RadioParams, SimConfig,
//!     SimTime, Simulator, Topology, ConstantField,
//! };
//!
//! #[derive(Debug, Default)]
//! struct Ping { got: bool }
//!
//! impl NodeApp for Ping {
//!     type Payload = &'static str;
//!     type Command = ();
//!     type Output = String;
//!
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Payload, Self::Output>) {
//!         if ctx.node() == NodeId(1) {
//!             ctx.send(Destination::Unicast(NodeId(0)), MsgKind::Result, 4, "ping");
//!         }
//!     }
//!     fn on_timer(&mut self, _: &mut Ctx<'_, Self::Payload, Self::Output>, _: u64) {}
//!     fn on_message(
//!         &mut self,
//!         ctx: &mut Ctx<'_, Self::Payload, Self::Output>,
//!         from: NodeId,
//!         _kind: MsgKind,
//!         payload: &Self::Payload,
//!     ) {
//!         self.got = true;
//!         ctx.emit(format!("{payload} from {from}"));
//!     }
//!     fn on_command(&mut self, _: &mut Ctx<'_, Self::Payload, Self::Output>, _: ()) {}
//! }
//!
//! let topo = Topology::from_positions(
//!     vec![Position { x: 0.0, y: 0.0 }, Position { x: 20.0, y: 0.0 }],
//!     50.0,
//! )?;
//! let mut sim = Simulator::new(
//!     topo,
//!     RadioParams::lossless(),
//!     SimConfig { maintenance_interval_ms: None, ..SimConfig::default() },
//!     Box::new(ConstantField),
//!     |_, _| Ping::default(),
//! );
//! sim.run_until(SimTime::from_ms(1000));
//! assert_eq!(sim.outputs().len(), 1);
//! assert!(sim.metrics().total_tx_busy_ms() > 0.0);
//! # Ok::<(), ttmqo_sim::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod energy;
mod engine;
mod faults;
mod field;
mod incoming;
pub mod json;
mod metrics;
mod probe;
mod radio;
mod time;
mod topology;
mod trace;

pub use audit::{AuditCheck, AuditReport, AuditViolation};
pub use energy::EnergyProfile;
pub use engine::{Ctx, EngineStats, NodeApp, OutputRecord, SimConfig, Simulator};
pub use faults::{CrashEvent, FaultPlan, FaultSchedule, LinkDegradation, RandomCrashes};
pub use field::{ConstantField, CorrelatedField, SensorField, UniformField};
pub use metrics::{
    gini, max_mean_ratio, CompletenessReport, Metrics, MetricsSnapshot, QueryCompleteness,
};
pub use probe::{Observe, Probe, Reception};
pub use radio::{Destination, MsgKind, RadioParams};
pub use time::SimTime;
pub use topology::{NodeId, Position, Topology, TopologyError, GRID_SPACING_FT, RADIO_RANGE_FT};
pub use trace::diff::{trace_diff, Divergence, DivergentRecord, KindDelta, TraceDiff};
pub use trace::{
    chrome_trace, summarize_trace, trace_header, EpochRollup, JsonLinesSink, ProvenanceId,
    QueryTally, RingSink, TraceDest, TraceEvent, TraceHandle, TraceRecord, TraceSchemaError,
    TraceSink, TraceSummary, SCHEMA_VERSION,
};
