//! **ttmqo** — umbrella crate of the TTMQO reproduction
//! (*Two-Tier Multiple Query Optimization for Sensor Networks*,
//! Xiang, Lim, Tan & Zhou, ICDCS 2007).
//!
//! This crate re-exports the workspace's public surface so examples and
//! downstream users can depend on one crate:
//!
//! * [`query`] — TinyDB-style query model, parser and merge algebra;
//! * [`stats`] — selectivity estimation and routing-level statistics;
//! * [`sim`] — the discrete-event wireless sensor network simulator;
//! * [`tinydb`] — the single-query-optimized baseline;
//! * [`core`] — both TTMQO tiers and the experiment runner;
//! * [`workloads`] — the paper's experimental workload generators.
//!
//! # Quickstart
//!
//! ```
//! use ttmqo::core::{run_experiment, ExperimentConfig, Strategy, WorkloadEvent};
//! use ttmqo::query::{parse_query, QueryId};
//! use ttmqo::sim::SimTime;
//!
//! let workload = vec![
//!     WorkloadEvent::pose(0, parse_query(QueryId(1),
//!         "select light where 280 < light < 600 epoch duration 2048")?),
//!     WorkloadEvent::pose(0, parse_query(QueryId(2),
//!         "select light where 100 < light < 300 epoch duration 4096")?),
//! ];
//! let config = ExperimentConfig {
//!     strategy: Strategy::TwoTier,
//!     grid_n: 4,
//!     duration: SimTime::from_ms(20 * 2048),
//!     ..ExperimentConfig::default()
//! };
//! let report = run_experiment(&config, &workload);
//! println!("avg transmission time: {:.3}%", report.avg_transmission_time_pct());
//! # Ok::<(), ttmqo::query::ParseQueryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ttmqo_core as core;
pub use ttmqo_query as query;
pub use ttmqo_sim as sim;
pub use ttmqo_stats as stats;
pub use ttmqo_tinydb as tinydb;
pub use ttmqo_workloads as workloads;
