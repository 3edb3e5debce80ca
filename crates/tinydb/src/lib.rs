//! TinyDB-style acquisitional query processing — the paper's baseline.
//!
//! This crate implements single-query-optimized query processing over the
//! simulated sensor network of [`ttmqo_sim`]: a fixed link-quality routing
//! tree, query flooding, per-query epoch sampling, per-query acquisition row
//! forwarding, and TAG-style slotted in-network aggregation. Running several
//! queries means running several completely independent instances of this
//! machinery — exactly the uncooperative baseline the TTMQO paper improves
//! upon.
//!
//! The node behaviour is [`TinyDbApp`]; drive it with
//! [`Simulator`](ttmqo_sim::Simulator) and inject queries via
//! [`Command::Pose`] / [`Command::Terminate`] commands addressed to the base
//! station (node 0). Answers appear as [`Output::Answer`] records.
//!
//! ```
//! use ttmqo_query::{parse_query, QueryId};
//! use ttmqo_sim::{ConstantField, NodeId, RadioParams, SimConfig, SimTime, Simulator, Topology};
//! use ttmqo_tinydb::{Command, Output, TinyDbApp, TinyDbConfig};
//!
//! let topo = Topology::grid(3)?;
//! let mut sim = Simulator::new(
//!     topo,
//!     RadioParams::lossless(),
//!     SimConfig::default(),
//!     Box::new(ConstantField),
//!     |_, _| TinyDbApp::new(TinyDbConfig::default()),
//! );
//! let q = parse_query(QueryId(1), "select light epoch duration 2048").unwrap();
//! sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(q));
//! sim.run_until(SimTime::from_ms(10 * 2048));
//! let answers = sim
//!     .outputs()
//!     .iter()
//!     .filter(|o| matches!(o.output, Output::Answer { .. }))
//!     .count();
//! assert!(answers >= 8, "one answer per completed epoch, got {answers}");
//! # Ok::<(), ttmqo_sim::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod answer_set;
mod app;
mod buffers;
mod flood;
mod messages;

pub use answer_set::Srt;
pub use app::{TinyDbApp, TinyDbConfig};
pub use buffers::{
    in_region, timer_key, timer_key_parts, EpochBuffers, TagSlots, KIND_CLOSE, KIND_SLOT,
};
pub use flood::{Floods, KIND_FLOOD_ABORT, KIND_FLOOD_QUERY};
pub use messages::{Command, Output, TinyDbPayload};
