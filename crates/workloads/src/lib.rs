//! Workload generators reproducing the TTMQO paper's experimental workloads.
//!
//! * [`workload_a`] / [`workload_b`] / [`workload_c`] — the static workloads
//!   of Figure 3 (reconstructed per §4.2's stated properties);
//! * [`random_workload`] — the adaptive random workload of Figure 4
//!   (Poisson arrivals every ~40 s, 500 queries, concurrency controlled via
//!   Little's law);
//! * [`selectivity_workload`] — the predicate-selectivity sweep of Figure 5;
//! * [`churn_workload`] — a streaming arrival/departure process over a
//!   fixed menu of query templates, for the admission/departure paths.
//!
//! All generators are deterministic given their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod churn;
mod random;
mod selectivity;
mod static_abc;

pub use churn::{churn_workload, ChurnWorkloadParams};
pub use random::{
    random_workload, workload_end_ms, RandomWorkloadParams, ATTR_MENU, EPOCH_MENU_MS,
};
pub use selectivity::{selectivity_workload, SelectivityWorkloadParams};
pub use static_abc::{workload_a, workload_b, workload_c};
