//! Run-comparison / regression gate: diff two report files field-by-field
//! and exit nonzero when the current run regressed against the baseline.
//!
//! Accepts the repo's two report shapes and auto-detects which one it got:
//!
//! * single JSON objects — the benches' `BENCH_engine.json` /
//!   `BENCH_faults.json`;
//! * JSON lines — campaign outputs (`BENCH_campaign.json`), records paired
//!   by `name` or by the campaign-cell coordinates.
//!
//! Timing fields (`wall_s`, `wall_clock_ms`, `events_per_sec`,
//! `sim_ms_per_wall_s`) are judged against a direction-aware relative
//! threshold; every other field must match exactly — the simulator is
//! deterministic, so a counter that moved is a behaviour change, not noise.
//! CI runs this against the checked-in baselines under `bench/baselines/`.
//!
//! When the gate fails on an exact field, the next diagnostic step is the
//! trace-divergence localizer (`examples/divergence.rs`): re-trace both
//! configurations through their common prefix and it names the first event
//! where behaviour departs instead of leaving you with two counters.
//!
//! ```text
//! cargo run --release --example report_diff -- \
//!     bench/baselines/BENCH_engine.json crates/bench/BENCH_engine.json \
//!     [--threshold 0.25] [--json]
//! ```
//!
//! With `--json` the comparison is emitted as one machine-readable JSON
//! object on stdout (`CompareReport::to_json`); the exit code is unchanged,
//! so scripted callers can both parse the verdicts and gate on the status.

use std::process::ExitCode;

use ttmqo::core::compare::{compare_json, compare_jsonl, CompareOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut opts = CompareOptions::default();
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--threshold" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(t) if t >= 0.0 => opts.timing_threshold = t,
                    _ => {
                        eprintln!("--threshold needs a non-negative number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other if !other.starts_with("--") => paths.push(other.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!("usage: report_diff <baseline.json> <current.json> [--threshold 0.25] [--json]");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(current)) = (read(baseline_path), read(current_path)) else {
        return ExitCode::FAILURE;
    };

    // A file with more than one non-empty line is a JSON-lines report.
    let is_jsonl = baseline.lines().filter(|l| !l.trim().is_empty()).count() > 1;
    let result = if is_jsonl {
        compare_jsonl(&baseline, &current, &opts)
    } else {
        compare_json(&baseline, &current, &opts)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("comparison failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        println!("{}", report.to_json());
        return if report.is_pass() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!(
        "{} vs {} (timing threshold {:.0}%)",
        baseline_path,
        current_path,
        opts.timing_threshold * 100.0
    );
    print!("{}", report.summary());
    if report.is_pass() {
        println!("PASS");
        ExitCode::SUCCESS
    } else {
        println!("FAIL");
        println!(
            "hint: for exact-field mismatches, localize where the runs \
             depart with the trace-divergence example \
             (cargo run --release --example divergence)"
        );
        ExitCode::FAILURE
    }
}
