//! Engine hot-path microbenchmark: transmit/deliver work and frame-slab
//! footprint on synthetic floods, plus four end-to-end rows.
//!
//! Writes `BENCH_engine.json` (JSON lines, one record per scenario) holding
//! only exact counters, so two runs write the same bytes and CI gates the
//! smoke-scale file with `diff` against `bench/baselines/`. Host time (wall
//! seconds, topology build, events/s) is printed in the table and nowhere
//! else; the perf trajectory is the repo benchmark (`benchmark/`) and
//! `bench/history/`.
//!
//! Every end-to-end row runs under the standing invariant auditor, and the
//! bench refuses to write a report in which any row counts a violation — so
//! no violating document can become a baseline. A report it cannot write
//! fails the bench rather than leaving an older file behind for the gate.
//!
//! `ENGINE_BENCH_SCALE=smoke` shrinks the simulated duration for CI smoke
//! runs (the numbers still land in the report, labelled by the same scenario
//! names).

use std::process::ExitCode;

use ttmqo_bench::{
    engine_microbench, print_table, twotier_bench, EngineBenchParams, TwoTierBenchParams,
    ENGINE_REPORT_FILE,
};

fn main() -> ExitCode {
    let smoke = std::env::var("ENGINE_BENCH_SCALE").as_deref() == Ok("smoke");
    // Full scale: 10 simulated minutes per paper-scale scenario (the
    // big-grid rows shrink the duration, see `default_scenarios`); smoke:
    // enough simulated time to exercise retries and collisions while
    // staying trivial for CI.
    let duration_ms = if smoke { 30_000 } else { 600_000 };
    // Two-tier and baseline rows replay Workload A end to end; durations are
    // in epochs (2048 ms) so every row sees complete result rounds.
    let twotier_duration_ms = if smoke { 16 * 2048 } else { 64 * 2048 };

    let results: Vec<_> = EngineBenchParams::default_scenarios(duration_ms)
        .iter()
        .map(engine_microbench)
        .chain(
            TwoTierBenchParams::default_scenarios(twotier_duration_ms)
                .iter()
                .map(twotier_bench),
        )
        .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                (r.grid_n * r.grid_n).to_string(),
                format!("{:.4}", r.wall_s),
                format!("{:.4}", r.topo_build_s),
                r.events.to_string(),
                format!("{:.0}", r.events as f64 / r.wall_s.max(1e-9)),
                r.stats.frame_slab_high_water.to_string(),
                r.stats.csma_capped_deferrals.to_string(),
            ]
        })
        .collect();
    print_table(
        "Engine microbench — transmit/deliver hot path",
        &[
            "scenario",
            "nodes",
            "wall s",
            "topo s",
            "events",
            "events/s",
            "slab high-water",
            "csma caps",
        ],
        &rows,
    );

    // The auditor is end-of-run arithmetic over counters the run produces
    // anyway; a row with violations is a correctness bug, never a baseline.
    for r in &results {
        assert!(
            matches!(r.audit_violations, None | Some(0)),
            "audited {} run must be violation-free, got {:?}",
            r.name,
            r.audit_violations
        );
    }

    let report: String = results.iter().map(|r| r.to_json() + "\n").collect();
    match std::fs::write(ENGINE_REPORT_FILE, report) {
        Ok(()) => {
            eprintln!("wrote {} records to {ENGINE_REPORT_FILE}", results.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not write {ENGINE_REPORT_FILE}: {e}");
            ExitCode::FAILURE
        }
    }
}
