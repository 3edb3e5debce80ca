//! Figure-regeneration harness for the TTMQO reproduction.
//!
//! Each function here computes the data behind one of the paper's figures;
//! the `benches/` binaries print them as tables (`cargo bench -p ttmqo-bench`
//! regenerates every figure). Keeping the logic in the library lets the test
//! suite assert the figures' *shapes* cheaply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod faults;
pub mod fig2;
pub mod fig34;
pub mod fig5;
pub mod table;

pub use engine::{
    engine_campaigns, engine_microbench, EngineBenchParams, EngineBenchResult, ENGINE_CELLS_FILE,
    ENGINE_REPORT_FILE,
};
pub use faults::{fault_campaigns, FAULT_BENCH_EPOCH_MS, FAULT_CELLS_FILE};
pub use fig2::{fig2_counts, Fig2Counts};
pub use fig34::{
    fig3_campaign, fig3_matrix, optimizer_sweep, optimizer_sweep_with, Fig3Cell, OptimizerSweep,
    FIG3_DURATION_EPOCHS,
};
pub use fig5::{fig5_campaign, fig5_cell_name, fig5_points, fig5_savings, Fig5Point};
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
