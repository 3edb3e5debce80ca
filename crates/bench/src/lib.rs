//! Figure-regeneration harness for the TTMQO reproduction.
//!
//! Each function here computes the data behind one of the paper's figures;
//! the `benches/` binaries print them as tables (`cargo bench -p ttmqo-bench`
//! regenerates every figure). Keeping the logic in the library lets the test
//! suite assert the figures' *shapes* cheaply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod engine;
pub mod faults;
pub mod fig2;
pub mod fig34;
pub mod fig5;
pub mod table;

pub use campaign::{paper_campaign, write_report, CAMPAIGN_REPORT_FILE};
pub use engine::{
    engine_microbench, twotier_bench, EngineBenchParams, EngineBenchResult, TwoTierBenchParams,
    ENGINE_REPORT_FILE,
};
pub use faults::{
    fault_bench, FaultBenchParams, FaultBenchResult, FAULTS_REPORT_FILE, FAULT_BENCH_EPOCH_MS,
};
pub use fig2::{fig2_counts, Fig2Counts};
pub use fig34::{
    fig3_campaign, fig3_matrix, optimizer_sweep, optimizer_sweep_with, Fig3Cell, OptimizerSweep,
    FIG3_DURATION_EPOCHS,
};
pub use fig5::{fig5_campaign, fig5_cell_name, fig5_points, fig5_savings, Fig5Point};
pub use table::print_table;
