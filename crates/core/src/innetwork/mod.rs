//! Tier 2 — in-network optimization (§3.2): sharing over time (GCD epoch
//! scheduling), sharing over space (query-aware DAG routing, shared result
//! messages, multicast) and sleep mode.

mod app;
mod dag;
mod payload;

pub use app::{TtmqoApp, TtmqoConfig};
pub use dag::{DagState, Election};
pub use payload::{PartialEntry, RowEntry, TtmqoPayload};
