//! Statistics substrate for the TTMQO reproduction: selectivity estimation
//! and routing-tree level populations.
//!
//! The base-station cost model (Eqs. 1–3 of the paper) needs two statistical
//! inputs: `sel(q, N_k)` — the fraction of nodes whose readings satisfy a
//! query's predicates — and the per-level node populations `N_k` of the data
//! routing tree. This crate provides both:
//!
//! * [`DataDistribution`] / [`SelectivityEstimator`] for selectivity, with
//!   the paper's uniform fallback and an equi-width histogram,
//!   [`EmpiricalDistribution`];
//! * [`LevelStats`] for the level populations and the maximum depth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod distribution;
mod levels;

pub use distribution::{
    DataDistribution, EmpiricalDistribution, SelectivityEstimator, UniformDistribution,
};
pub use levels::LevelStats;
