//! Engine hot-path microbenchmark: transmit/deliver work and frame-slab
//! footprint on synthetic floods, plus four end-to-end rows.
//!
//! Writes two JSON-lines reports holding only exact counters, so two runs
//! write the same bytes and CI gates the smoke-scale files with `diff`
//! against `bench/baselines/`: `BENCH_engine.json` (one record per flood
//! scenario) and `BENCH_engine_cells.jsonl` (the end-to-end rows'
//! `CampaignReport::to_jsonl` records). Host time (wall seconds, events/s)
//! is printed in the table and nowhere else; the perf trajectory is the
//! repo benchmark (`benchmark/`) and `bench/history/`.
//!
//! Every end-to-end row is an audited campaign cell, and the bench refuses
//! to write a report in which any cell counts a violation — so no violating
//! document can become a baseline. A report it cannot write fails the bench
//! rather than leaving an older file behind for the gate.
//!
//! `ENGINE_BENCH_SCALE=smoke` shrinks the simulated duration for CI smoke
//! runs (the numbers still land in the reports, labelled by the same
//! scenario names).

use std::process::ExitCode;

use ttmqo_bench::{
    engine_campaigns, engine_microbench, print_table, write_report, EngineBenchParams,
    ENGINE_CELLS_FILE, ENGINE_REPORT_FILE,
};
use ttmqo_core::run_campaign;

fn main() -> ExitCode {
    let smoke = std::env::var("ENGINE_BENCH_SCALE").as_deref() == Ok("smoke");
    // Full scale: 10 simulated minutes per paper-scale scenario (the
    // big-grid rows shrink the duration, see `default_scenarios`); smoke:
    // enough simulated time to exercise retries and collisions while
    // staying trivial for CI.
    let duration_ms = if smoke { 30_000 } else { 600_000 };
    // The end-to-end rows replay Workload A; durations are in epochs
    // (2048 ms) so every row sees complete result rounds.
    let e2e_duration_ms = if smoke { 16 * 2048 } else { 64 * 2048 };

    let floods: Vec<_> = EngineBenchParams::default_scenarios(duration_ms)
        .iter()
        .map(engine_microbench)
        .collect();
    let reports = engine_campaigns(e2e_duration_ms).map(|spec| run_campaign(&spec));
    let cells: Vec<_> = reports.iter().flat_map(|r| &r.cells).collect();

    let flood_rows = floods
        .iter()
        .map(|r| (r.name.clone(), r.grid_n, r.wall_s, &r.stats));
    let cell_rows = cells.iter().map(|c| {
        let name = format!("{}-{}x{}", c.strategy, c.grid_n, c.grid_n);
        (name, c.grid_n, c.wall_clock_ms / 1000.0, &c.engine)
    });
    let rows: Vec<Vec<String>> = flood_rows
        .chain(cell_rows)
        .map(|(name, grid_n, wall_s, s)| {
            vec![
                name,
                (grid_n * grid_n).to_string(),
                format!("{wall_s:.4}"),
                s.events_processed.to_string(),
                format!("{:.0}", s.events_processed as f64 / wall_s.max(1e-9)),
                s.frame_slab_high_water.to_string(),
                s.csma_capped_deferrals.to_string(),
            ]
        })
        .collect();
    print_table(
        "Engine microbench — transmit/deliver hot path",
        &[
            "scenario",
            "nodes",
            "wall s",
            "events",
            "events/s",
            "slab high-water",
            "csma caps",
        ],
        &rows,
    );

    // The auditor is end-of-run arithmetic over counters the run produces
    // anyway; a cell with violations is a correctness bug, never a baseline.
    let dirty: Vec<_> = cells
        .iter()
        .filter(|c| !c.audit.as_ref().is_some_and(|a| a.is_clean()))
        .collect();
    for c in &dirty {
        eprintln!("{}-{}: {:?}", c.strategy, c.grid_n, c.audit);
    }
    if !dirty.is_empty() {
        eprintln!("audit violations: wrote neither {ENGINE_REPORT_FILE} nor {ENGINE_CELLS_FILE}");
        return ExitCode::FAILURE;
    }

    let flood_jsonl: String = floods.iter().map(|r| r.to_json() + "\n").collect();
    let cells_jsonl: String = reports.iter().map(|r| r.to_jsonl()).collect();
    if write_report(ENGINE_REPORT_FILE, &flood_jsonl)
        && write_report(ENGINE_CELLS_FILE, &cells_jsonl)
    {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
