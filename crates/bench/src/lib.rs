//! Figure-regeneration and benchmark harness for the TTMQO reproduction.
//!
//! One `harness = false` bench, `figures`, uses it: it runs every paper
//! figure ([`figures`], [`sweep`], [`fig2`]), the fault campaigns
//! ([`faults`]), the traced [`observatory`] and the [`hotspots()`] report,
//! audits every cell, prints their tables, and writes each as a file
//! straight into [`RESULTS_DIR`], the one place anything writes checked-in
//! results. Keeping the specs in the library lets the test suite assert the
//! figures' *shapes* on small runs. Engine speed is not measured here: the
//! repo benchmark (`benchmark/`) times it with per-layer attribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod faults;
pub mod fig2;
pub mod figures;
pub mod hotspots;
pub mod observatory;
pub mod sweep;
pub mod table;

pub use faults::fault_campaigns;
pub use fig2::{fig2_counts, fig2_pairs, Fig2Counts, Fig2Pair};
pub use figures::{
    ablation_campaigns, fig3_campaign, fig4_sweeps, fig5_campaign, fig5_cell_name, saving_pct,
    scale_campaigns, FIGURE_EPOCHS,
};
pub use hotspots::hotspots;
pub use observatory::{observatory_campaign, ANALYZED_TRACE, TRACES_DIR};
pub use sweep::{optimizer_sweep_with, OptimizerSweep};
pub use table::print_table;

/// The checked-in results directory, `bench/results/` at the workspace
/// root, wherever the bench runs from.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/results");

/// The files the `figures` bench writes into [`RESULTS_DIR`], in the order
/// it writes them: the six paper figures, then the fault campaigns' cell
/// records, the observatory's cell records, the summary of its
/// [`ANALYZED_TRACE`] and the hotspot tables.
pub const RESULT_FILES: [&str; 10] = [
    "fig2.jsonl",
    "fig3.jsonl",
    "fig4.jsonl",
    "fig5.jsonl",
    "ablations.jsonl",
    "scale.jsonl",
    "faults.jsonl",
    "observatory.jsonl",
    "analyze-trace-1.json",
    "hotspots.txt",
];

/// Writes one of the bench's [`RESULT_FILES`] under [`RESULTS_DIR`] and
/// says so on stderr. Returns `false` if it could not, so the bench fails
/// rather than leave an older file behind.
pub fn write_report(file: &str, contents: &str) -> bool {
    let path = std::path::Path::new(RESULTS_DIR).join(file);
    let written = std::fs::write(&path, contents);
    match &written {
        Ok(()) => eprintln!(
            "wrote {} lines to bench/results/{file}",
            contents.lines().count()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    written.is_ok()
}
