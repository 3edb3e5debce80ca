//! Figure-regeneration and benchmark harness for the TTMQO reproduction.
//!
//! Three `harness = false` benches use it: `figures` writes every paper
//! figure as a file of records ([`figures`], [`sweep`], [`fig2`]) and prints
//! its tables; `engine` and `faults` write the engine and fault reports.
//! Keeping the specs in the library lets the test suite assert the
//! figures' *shapes* on small runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod faults;
pub mod fig2;
pub mod figures;
pub mod sweep;
pub mod table;

pub use engine::{
    engine_campaigns, engine_microbench, EngineBenchParams, EngineBenchResult, ENGINE_CELLS_FILE,
    ENGINE_REPORT_FILE,
};
pub use faults::{fault_campaigns, FAULT_BENCH_EPOCH_MS, FAULT_CELLS_FILE};
pub use fig2::{fig2_counts, fig2_pairs, Fig2Counts, Fig2Pair};
pub use figures::{
    ablation_campaigns, fig3_campaign, fig4_sweeps, fig5_campaign, fig5_cell_name, saving_pct,
    scale_campaigns, FIGURE_EPOCHS, FIGURE_FILES,
};
pub use sweep::{optimizer_sweep_with, OptimizerSweep};
pub use table::print_table;

/// Writes a bench's JSON-lines report to `file` and says so on stderr.
/// Returns `false` if it could not, so the bench fails rather than leave an
/// older file behind for the CI gate.
pub fn write_report(file: &str, jsonl: &str) -> bool {
    let written = std::fs::write(file, jsonl);
    match &written {
        Ok(()) => eprintln!("wrote {} records to {file}", jsonl.lines().count()),
        Err(e) => eprintln!("could not write {file}: {e}"),
    }
    written.is_ok()
}
