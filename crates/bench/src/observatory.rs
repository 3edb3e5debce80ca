//! The observatory: a small audited, traced campaign whose traces are the
//! ones `inspect analyze` and `inspect diff` read.
//!
//! [`observatory_campaign`] is two workloads × {Baseline, TwoTier} × 3×3
//! and 4×4 over 12 base epochs, with every standing check armed
//! ([`CampaignSpec::audit`]) and one trace per cell under [`TRACES_DIR`].
//! Tracing lets the auditor reconcile each cell's trace against its answer
//! counts; a check it could not make (a trace missing or lossy) is counted
//! as skipped. The `figures` bench writes the cell records to
//! `observatory.jsonl` and the summary of [`ANALYZED_TRACE`] to
//! `analyze-trace-1.json`.

use ttmqo_core::{CampaignSpec, ExperimentConfig, Strategy, WorkloadEvent};
use ttmqo_query::{parse_query, QueryId, BASE_EPOCH_MS};
use ttmqo_sim::SimTime;

/// Where the observatory's traces go: `observatory/traces/` at the
/// workspace root, wherever the bench runs from.
pub const TRACES_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../observatory/traces");

/// The trace whose summary is checked in: the overlap workload under
/// TwoTier on the 3×3 grid.
pub const ANALYZED_TRACE: &str = "trace-1-overlap-two-tier-3-none.jsonl";

/// A workload posing every query text at t = 0, with ids 1, 2, ... in order.
fn workload(texts: &[&str]) -> Vec<WorkloadEvent> {
    let numbered = texts.iter().enumerate();
    numbered
        .map(|(i, text)| {
            let q = parse_query(QueryId(i as u64 + 1), text).expect("valid query");
            WorkloadEvent::pose(0, q)
        })
        .collect()
}

/// The observatory's audited, traced campaign (8 cells).
pub fn observatory_campaign() -> CampaignSpec {
    let overlap = workload(&[
        "select light where 280<light<600 epoch duration 2048",
        "select light where 100<light<300 epoch duration 4096",
        "select light where 150<light<500 epoch duration 4096",
    ]);
    let disjoint = workload(&[
        "select light where 100<light<200 epoch duration 2048",
        "select temp where 40<temp<60 epoch duration 2048",
    ]);
    let base = ExperimentConfig {
        duration: SimTime::from_ms(12 * BASE_EPOCH_MS),
        ..Default::default()
    };
    CampaignSpec::new(base)
        .strategies([Strategy::Baseline, Strategy::TwoTier])
        .grid_sizes([3, 4])
        .workload("overlap", overlap)
        .workload("disjoint", disjoint)
        .trace_output(TRACES_DIR)
        .audit()
}
