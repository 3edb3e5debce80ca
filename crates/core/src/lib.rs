//! **TTMQO** — Two-Tier Multiple Query Optimization for sensor networks
//! (Xiang, Lim, Tan, Zhou; ICDCS 2007).
//!
//! The crate implements both tiers of the paper's scheme plus the experiment
//! runner that drives them over the simulated network:
//!
//! * [`basestation`] — tier 1: the cost model (Eqs. 1–3), synthetic queries,
//!   Algorithm 1 (greedy insertion with recursive re-insertion), Algorithm 2
//!   (α-gated adaptive termination), and result mapping back to user queries.
//! * [`innetwork`] — tier 2: GCD epoch scheduling (sharing over time),
//!   query-aware DAG routing with shared result messages and multicast
//!   (sharing over space), and sleep mode.
//! * [`run_experiment`] with [`Strategy`] — the four evaluation strategies
//!   (baseline / BS-only / in-network-only / two-tier) over identical
//!   workloads.
//! * [`campaign`] — declarative sweeps over strategies × grid sizes × field
//!   seeds × workloads, executed across a thread pool ([`run_campaign`])
//!   with one JSON-lines record per run.
//!
//! # Quick example
//!
//! ```
//! use ttmqo_core::{run_experiment, ExperimentConfig, Strategy, WorkloadEvent};
//! use ttmqo_query::{parse_query, QueryId};
//! use ttmqo_sim::SimTime;
//!
//! let workload = vec![
//!     WorkloadEvent::pose(0, parse_query(QueryId(1),
//!         "select light where 100<light<300 epoch duration 4096").unwrap()),
//!     WorkloadEvent::pose(0, parse_query(QueryId(2),
//!         "select light where 150<light<500 epoch duration 4096").unwrap()),
//! ];
//! let config = ExperimentConfig {
//!     strategy: Strategy::TwoTier,
//!     grid_n: 3,
//!     duration: SimTime::from_ms(20 * 2048),
//!     ..ExperimentConfig::default()
//! };
//! let report = run_experiment(&config, &workload);
//! assert!(report.avg_transmission_time_pct() > 0.0);
//! assert!(report.answers.contains_key(&QueryId(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod basestation;
pub mod campaign;
pub mod innetwork;
mod runner;

pub use basestation::{
    map_epoch_answer_at, map_epoch_answers_at, BaseStationOptimizer, CostModel, Demand,
    InsertError, NetworkOp, OptimizerOptions, OptimizerStats, SyntheticQuery, SYNTHETIC_ID_BASE,
};
pub use campaign::{
    run_campaign, run_campaign_sequential, run_campaign_with, CampaignReport, CampaignSpec,
    CampaignWorkload, CellRecord, CellSpec,
};
pub use innetwork::{
    DagState, Election, PartialEntry, RowEntry, TtmqoApp, TtmqoConfig, TtmqoPayload,
};
pub use runner::{
    run_experiment, ExperimentConfig, FieldKind, RunReport, RunSession, Strategy, WorkloadAction,
    WorkloadEvent,
};
