//! Figure-regeneration and benchmark harness for the TTMQO reproduction.
//!
//! One `harness = false` bench, `figures`, uses it: it runs every paper
//! figure ([`figures`], [`sweep`], [`fig2`]), the fault campaigns
//! ([`faults`]) and the engine's flood and end-to-end rows ([`engine`]),
//! prints their tables, and writes each as a file of records straight into
//! [`RESULTS_DIR`]. Keeping the specs in the library lets the test suite
//! assert the figures' *shapes* on small runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod faults;
pub mod fig2;
pub mod figures;
pub mod sweep;
pub mod table;

pub use engine::{engine_campaigns, engine_microbench, EngineBenchParams, EngineBenchResult};
pub use faults::fault_campaigns;
pub use fig2::{fig2_counts, fig2_pairs, Fig2Counts, Fig2Pair};
pub use figures::{
    ablation_campaigns, fig3_campaign, fig4_sweeps, fig5_campaign, fig5_cell_name, saving_pct,
    scale_campaigns, FIGURE_EPOCHS,
};
pub use sweep::{optimizer_sweep_with, OptimizerSweep};
pub use table::print_table;

/// The checked-in results directory, `bench/results/` at the workspace
/// root, wherever the bench runs from.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/results");

/// The files the `figures` bench writes into [`RESULTS_DIR`], in the order
/// it writes them: the six paper figures, then the fault campaigns' cell
/// records, the engine's end-to-end cell records and its flood rows.
pub const RESULT_FILES: [&str; 9] = [
    "fig2.jsonl",
    "fig3.jsonl",
    "fig4.jsonl",
    "fig5.jsonl",
    "ablations.jsonl",
    "scale.jsonl",
    "faults.jsonl",
    "engine.jsonl",
    "flood.jsonl",
];

/// Writes a bench's JSON-lines report to `file` under [`RESULTS_DIR`] and
/// says so on stderr. Returns `false` if it could not, so the bench fails
/// rather than leave an older file behind.
pub fn write_report(file: &str, jsonl: &str) -> bool {
    let path = std::path::Path::new(RESULTS_DIR).join(file);
    let written = std::fs::write(&path, jsonl);
    match &written {
        Ok(()) => eprintln!(
            "wrote {} records to bench/results/{file}",
            jsonl.lines().count()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    written.is_ok()
}
