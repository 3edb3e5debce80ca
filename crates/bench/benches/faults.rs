//! Fault-subsystem benchmark: end-to-end TTMQO runs under each fault-plan
//! element, with healing outcomes.
//!
//! Runs the two campaigns of `fault_campaigns` and writes their cell
//! records to `BENCH_faults.jsonl` (`CampaignReport::to_jsonl`, one record
//! per cell). The records hold only what the simulation decides, so two
//! runs write the same bytes and CI gates the smoke-scale file with `diff`
//! against `bench/baselines/`. The `none` cell runs the exact fault-free
//! configuration through the same campaign, so it is the baseline the
//! faulty cells are read against. Host time is printed in the table and
//! nowhere else. A report the bench cannot write fails it.
//!
//! `FAULT_BENCH_SCALE=smoke` shrinks the simulated duration for CI smoke
//! runs (the numbers still land in the report, labelled by the same fault
//! names).

use std::process::ExitCode;

use ttmqo_bench::{fault_campaigns, print_table, write_report, FAULT_CELLS_FILE};
use ttmqo_core::run_campaign;

fn main() -> ExitCode {
    let smoke = std::env::var("FAULT_BENCH_SCALE").as_deref() == Ok("smoke");
    // Full scale: 48 epochs covers crash (epoch 8), detection, re-election,
    // and a long recovered tail; smoke: enough epochs for the crashes and
    // the first repairs while staying trivial for CI.
    let duration_epochs = if smoke { 20 } else { 48 };

    let reports = fault_campaigns(duration_epochs).map(|spec| run_campaign(&spec));
    let rows: Vec<Vec<String>> = reports
        .iter()
        .flat_map(|report| &report.cells)
        .map(|c| {
            vec![
                c.fault.clone(),
                (c.grid_n * c.grid_n).to_string(),
                format!("{:.4}", c.wall_clock_ms / 1000.0),
                format!(
                    "{:.0}",
                    c.metrics.horizon_ms as f64 / c.wall_clock_ms.max(1e-6) * 1000.0
                ),
                format!("{:.3}", c.completeness.min_epoch_ratio()),
                format!("{:.3}", c.completeness.min_row_ratio()),
                c.completeness.repairs_triggered.to_string(),
                c.metrics.orphaned_nodes.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fault bench — healing throughput and answer completeness",
        &[
            "fault",
            "nodes",
            "wall s",
            "sim ms/s",
            "epoch ratio",
            "row ratio",
            "repairs",
            "orphans",
        ],
        &rows,
    );

    let jsonl: String = reports.iter().map(|r| r.to_jsonl()).collect();
    if write_report(FAULT_CELLS_FILE, &jsonl) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
