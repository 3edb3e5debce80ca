//! Engine hot-path microbenchmark: transmit/deliver throughput and frame-slab
//! footprint, with regression tracking against the previous run.
//!
//! Writes `BENCH_engine.json` (JSON lines, one record per scenario). If a
//! previous report exists it is read first and the events/sec delta per
//! scenario is printed, so perf regressions in the engine show up as a
//! negative column rather than a silent drift.
//!
//! Every scenario runs with the per-phase profiler attached, so the report
//! rows carry `*_wall_us` attribution and the table shows where engine time
//! goes (deliver vs interference marking vs the rest). A separate
//! profiler-overhead check re-runs one scenario with profiling off and
//! asserts the profiled throughput is within 2% — the profiler's contract.
//!
//! `ENGINE_BENCH_SCALE=smoke` shrinks the simulated duration for CI smoke
//! runs (the numbers still land in the report, labelled by the same scenario
//! names).

use ttmqo_bench::{
    engine_microbench, parse_prior_report, print_table, twotier_bench, EngineBenchParams,
    EngineBenchResult, TwoTierBenchParams, ENGINE_REPORT_FILE,
};
use ttmqo_sim::ProfilePhase;

/// A phase's share of the row's measured wall time, as a table cell.
fn phase_pct(r: &EngineBenchResult, phase: ProfilePhase) -> String {
    match &r.profile {
        Some(profile) => {
            let pct = profile.get(phase).wall_ns as f64 / (r.wall_s * 1e9).max(1.0) * 100.0;
            format!("{pct:.1}%")
        }
        None => "-".to_string(),
    }
}

/// Best-of-N events/sec with profiling off vs on, interleaved so scheduler
/// and thermal drift hit both sides equally; returns the overhead percent.
fn measure_overhead(probe: &EngineBenchParams, reps: usize) -> f64 {
    let off_params = EngineBenchParams {
        profiled: false,
        ..probe.clone()
    };
    let mut off = 0f64;
    let mut on = 0f64;
    for _ in 0..reps {
        off = off.max(engine_microbench(&off_params).events_per_sec);
        on = on.max(engine_microbench(probe).events_per_sec);
    }
    100.0 * (1.0 - on / off)
}

/// Same interleaved best-of-N shape for the standing auditor: audit off vs
/// on over the end-to-end two-tier row. Also asserts the audited runs come
/// back clean — a bench row with violations is a correctness bug, not noise.
fn measure_audit_overhead(probe: &TwoTierBenchParams, reps: usize) -> f64 {
    let off_params = TwoTierBenchParams {
        audited: false,
        ..probe.clone()
    };
    let on_params = TwoTierBenchParams {
        audited: true,
        ..probe.clone()
    };
    let mut off = 0f64;
    let mut on = 0f64;
    for _ in 0..reps {
        off = off.max(twotier_bench(&off_params).events_per_sec);
        let audited = twotier_bench(&on_params);
        assert_eq!(
            audited.audit_violations,
            Some(0),
            "audited {} run must be violation-free",
            probe.name
        );
        on = on.max(audited.events_per_sec);
    }
    100.0 * (1.0 - on / off)
}

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
            phase_pct(&r, ProfilePhase::Deliver),
            phase_pct(&r, ProfilePhase::InterferenceMark),
            phase_pct(&r, ProfilePhase::Timer),
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
            "deliver%",
            "interf%",
            "timer%",
            "slab high-water",
            "csma caps",
            "sorts saved",
        ],
        &rows,
    );

    // Profiler-overhead gate: same scenario, interleaved best-of-3 with
    // profiling off vs on. The profiled hot path is a register increment
    // and a branch per event (one timestamp pair per SAMPLE_INTERVAL
    // events); if that ever costs ≥2% of throughput the contract is broken
    // and the smoke run should fail loudly. Wall-clock noise on a shared
    // box swings single measurements by a couple percent either way, so a
    // breach is re-measured up to twice before failing — a real regression
    // breaches every attempt.
    let probe = EngineBenchParams::default_scenarios(duration_ms)
        .into_iter()
        .find(|p| p.name == "flood-8x8-csma")
        .expect("default scenario set has the 8x8 CSMA row");
    let mut overhead_pct = f64::INFINITY;
    for attempt in 1..=3 {
        overhead_pct = overhead_pct.min(measure_overhead(&probe, 3));
        eprintln!(
            "profiler overhead on {} (attempt {attempt}): best so far {overhead_pct:+.2}%",
            probe.name
        );
        if overhead_pct < 2.0 {
            break;
        }
    }
    assert!(
        overhead_pct < 2.0,
        "profiler overhead {overhead_pct:.2}% breaches the <2% budget on every attempt",
    );

    // Auditor-overhead gate, same shape: the standing invariant auditor is
    // pure end-of-run arithmetic over counters the run produces anyway, so
    // arming it must not cost simulation throughput. The 16×16 two-tier row
    // (the smallest end-to-end scenario) is the probe; a shorter horizon
    // keeps the gate cheap while still running full protocol traffic.
    let audit_probe = TwoTierBenchParams {
        duration_ms: twotier_duration_ms / 2,
        ..TwoTierBenchParams::default_scenarios(twotier_duration_ms)
            .into_iter()
            .find(|p| p.name == "twotier-16x16")
            .expect("default scenario set has the 16x16 two-tier row")
    };
    let mut audit_overhead_pct = f64::INFINITY;
    for attempt in 1..=3 {
        audit_overhead_pct = audit_overhead_pct.min(measure_audit_overhead(&audit_probe, 3));
        eprintln!(
            "auditor overhead on {} (attempt {attempt}): best so far {audit_overhead_pct:+.2}%",
            audit_probe.name
        );
        if audit_overhead_pct < 2.0 {
            break;
        }
    }
    assert!(
        audit_overhead_pct < 2.0,
        "auditor overhead {audit_overhead_pct:.2}% breaches the <2% budget on every attempt",
    );

    let report = lines.join("\n") + "\n";
    match std::fs::write(ENGINE_REPORT_FILE, report) {
        Ok(()) => eprintln!("wrote {} records to {ENGINE_REPORT_FILE}", lines.len()),
        Err(e) => eprintln!("could not write {ENGINE_REPORT_FILE}: {e}"),
    }
}
