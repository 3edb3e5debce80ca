//! Fault-subsystem benchmark: end-to-end TTMQO runs under each fault-plan
//! element, with healing outcomes.
//!
//! Writes `BENCH_faults.json` (JSON lines, one record per scenario) holding
//! only what the simulation decides, so two runs write the same bytes and CI
//! gates the smoke-scale file with `diff` against `bench/baselines/`. The
//! `healthy-8x8` row runs the exact fault-free configuration through the
//! same harness, so it is the baseline the faulty rows are read against.
//! Host time is printed in the table and nowhere else. A report the bench
//! cannot write fails it rather than leaving an older file behind for the
//! gate.
//!
//! `FAULT_BENCH_SCALE=smoke` shrinks the simulated duration for CI smoke
//! runs (the numbers still land in the report, labelled by the same
//! scenario names).

use std::process::ExitCode;

use ttmqo_bench::{fault_bench, print_table, FaultBenchParams, FAULTS_REPORT_FILE};

fn main() -> ExitCode {
    let smoke = std::env::var("FAULT_BENCH_SCALE").as_deref() == Ok("smoke");
    // Full scale: 48 epochs covers crash (epoch 8), detection, re-election,
    // and a long recovered tail; smoke: enough epochs for the crashes and
    // the first repairs while staying trivial for CI.
    let duration_epochs = if smoke { 20 } else { 48 };

    let mut rows = Vec::new();
    let mut report = String::new();
    for params in FaultBenchParams::default_scenarios(duration_epochs) {
        let r = fault_bench(&params);
        rows.push(vec![
            r.name.clone(),
            (r.grid_n * r.grid_n).to_string(),
            format!("{:.4}", r.wall_s),
            format!("{:.0}", r.duration_ms as f64 / r.wall_s.max(1e-9)),
            format!("{:.3}", r.min_epoch_ratio),
            format!("{:.3}", r.min_row_ratio),
            r.repairs_triggered.to_string(),
            r.orphaned_nodes.to_string(),
        ]);
        report.push_str(&r.to_json());
        report.push('\n');
    }
    print_table(
        "Fault bench — healing throughput and answer completeness",
        &[
            "scenario",
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

    match std::fs::write(FAULTS_REPORT_FILE, report) {
        Ok(()) => {
            eprintln!("wrote {} records to {FAULTS_REPORT_FILE}", rows.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not write {FAULTS_REPORT_FILE}: {e}");
            ExitCode::FAILURE
        }
    }
}
