//! Engine hot-path microbenchmark: transmit/deliver throughput and frame-slab
//! footprint, with regression tracking against the previous run.
//!
//! Writes `BENCH_engine.json` (JSON lines, one record per scenario). If a
//! previous report exists it is read first and the events/sec delta per
//! scenario is printed, so perf regressions in the engine show up as a
//! negative column rather than a silent drift.
//!
//! No wall-clock figure is asserted on here: the regression gate is
//! `report_diff` over the written report. The one assertion is a
//! correctness check — an audited two-tier run must come back clean.
//!
//! `ENGINE_BENCH_SCALE=smoke` shrinks the simulated duration for CI smoke
//! runs (the numbers still land in the report, labelled by the same scenario
//! names).

use ttmqo_bench::{
    engine_microbench, parse_prior_report, print_table, twotier_bench, EngineBenchParams,
    EngineBenchResult, TwoTierBenchParams, ENGINE_REPORT_FILE,
};

fn main() {
    let smoke = std::env::var("ENGINE_BENCH_SCALE").as_deref() == Ok("smoke");
    // Full scale: 10 simulated minutes per paper-scale scenario (the
    // big-grid rows shrink the duration, see `default_scenarios`); smoke:
    // enough simulated time to exercise retries and collisions while
    // staying trivial for CI.
    let duration_ms = if smoke { 30_000 } else { 600_000 };
    // Two-tier and baseline rows replay Workload A end to end; durations are
    // in epochs (2048 ms) so every row sees complete result rounds.
    let twotier_duration_ms = if smoke { 16 * 2048 } else { 64 * 2048 };
    let prior = std::fs::read_to_string(ENGINE_REPORT_FILE)
        .map(|text| parse_prior_report(&text))
        .unwrap_or_default();

    let mut rows = Vec::new();
    let mut lines = Vec::new();
    let mut push_result = |r: EngineBenchResult| {
        let delta = prior
            .iter()
            .find(|(name, _)| *name == r.name)
            .map(|(_, prev_eps)| format!("{:+.1}%", 100.0 * (r.events_per_sec / prev_eps - 1.0)))
            .unwrap_or_else(|| "-".to_string());
        rows.push(vec![
            r.name.clone(),
            (r.grid_n * r.grid_n).to_string(),
            format!("{:.4}", r.wall_s),
            format!("{:.4}", r.topo_build_s),
            r.events.to_string(),
            format!("{:.0}", r.events_per_sec),
            delta,
            r.stats.frame_slab_high_water.to_string(),
            r.stats.csma_capped_deferrals.to_string(),
            r.stats.csma_sorts_saved.to_string(),
        ]);
        lines.push(r.to_json());
    };
    for params in EngineBenchParams::default_scenarios(duration_ms) {
        push_result(engine_microbench(&params));
    }
    for params in TwoTierBenchParams::default_scenarios(twotier_duration_ms) {
        push_result(twotier_bench(&params));
    }
    print_table(
        "Engine microbench — transmit/deliver hot path",
        &[
            "scenario",
            "nodes",
            "wall s",
            "topo s",
            "events",
            "events/s",
            "vs prior",
            "slab high-water",
            "csma caps",
            "sorts saved",
        ],
        &rows,
    );

    // The standing invariant auditor is end-of-run arithmetic over counters
    // the run produces anyway; a bench row with violations is a correctness
    // bug. The 16×16 two-tier row (the smallest end-to-end scenario) is the
    // probe.
    let audit_probe = TwoTierBenchParams {
        audited: true,
        ..TwoTierBenchParams::default_scenarios(twotier_duration_ms)
            .into_iter()
            .find(|p| p.name == "twotier-16x16")
            .expect("default scenario set has the 16x16 two-tier row")
    };
    assert_eq!(
        twotier_bench(&audit_probe).audit_violations,
        Some(0),
        "audited {} run must be violation-free",
        audit_probe.name
    );

    let report = lines.join("\n") + "\n";
    match std::fs::write(ENGINE_REPORT_FILE, report) {
        Ok(()) => eprintln!("wrote {} records to {ENGINE_REPORT_FILE}", lines.len()),
        Err(e) => eprintln!("could not write {ENGINE_REPORT_FILE}: {e}"),
    }
}
