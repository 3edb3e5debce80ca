//! Tier 1 — base-station optimization (§3.1): cost model, synthetic queries,
//! the greedy insertion / adaptive termination optimizer, and result mapping.

mod cost;
mod mapper;
mod optimizer;
mod synthetic;

pub use cost::CostModel;
pub use mapper::{map_epoch_answer_at, map_epoch_answers_at};
pub use optimizer::{
    BaseStationOptimizer, InsertError, NetworkOp, OptimizerOptions, OptimizerStats,
    SYNTHETIC_ID_BASE,
};
pub use synthetic::{Demand, SyntheticQuery};
