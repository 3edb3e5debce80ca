//! Campaign observatory: run a sweep, audit it, and roll it up.
//!
//! A [`CampaignSpec`] names every axis of an experiment sweep declaratively;
//! `run_campaign` executes the cross product on a scoped thread pool, one
//! deterministic simulation per cell, and returns one `CellRecord` per run.
//! This example adds the two layers that sit on top of the records:
//!
//! * **standing invariant auditor** — `CampaignSpec::audit` promotes the
//!   test-suite's reconciliation checks (phase accounting, slab sanity,
//!   energy conservation, completeness, trace↔answer agreement) into every
//!   cell's record; any violation fails this example with a nonzero exit;
//! * **cross-cell rollup** — `CampaignReport::rollup` aggregates the cell
//!   records into per-axis marginals and hotspot cells, written as
//!   `campaign-report.json` (no host time in it, so CI gates it with `diff`
//!   against `bench/baselines/BENCH_observatory.json`) and
//!   `campaign-report.md` (for humans).
//!
//! Auditing is observational only: an audited campaign produces
//! bit-identical cell records to a bare run.
//!
//! Run with: `cargo run --release --example observatory`
//!
//! Outputs land under `observatory/`: `campaign-report.json`,
//! `campaign-report.md`, and per-cell traces.

use std::process::ExitCode;

use ttmqo::core::{run_campaign, CampaignSpec, Strategy, WorkloadEvent};
use ttmqo::query::{parse_query, QueryId};
use ttmqo::sim::SimTime;

fn main() -> ExitCode {
    let overlap: Vec<WorkloadEvent> = [
        "select light where 280<light<600 epoch duration 2048",
        "select light where 100<light<300 epoch duration 4096",
        "select light where 150<light<500 epoch duration 4096",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| {
        let q = parse_query(QueryId(i as u64 + 1), text).expect("valid query");
        WorkloadEvent::pose(0, q)
    })
    .collect();
    let disjoint: Vec<WorkloadEvent> = [
        "select light where 100<light<200 epoch duration 2048",
        "select temp where 40<temp<60 epoch duration 2048",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| {
        let q = parse_query(QueryId(i as u64 + 1), text).expect("valid query");
        WorkloadEvent::pose(0, q)
    })
    .collect();

    let out_dir = std::path::Path::new("observatory");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let base = ttmqo::core::ExperimentConfig {
        duration: SimTime::from_ms(12 * 2048),
        ..Default::default()
    };
    // Tracing is on so the auditor can reconcile each cell's trace against
    // its answer counts; audit() arms every other standing check.
    let spec = CampaignSpec::new(base)
        .strategies([Strategy::Baseline, Strategy::TwoTier])
        .grid_sizes([3, 4])
        .workload("overlap", overlap)
        .workload("disjoint", disjoint)
        .trace_output(out_dir.join("traces"))
        .audit();

    let report = run_campaign(&spec);
    println!(
        "observatory: {} cells in {:.0} ms on {} threads",
        report.cells.len(),
        report.wall_clock_ms,
        report.threads
    );
    // Each record renders as one JSON line for external tooling.
    println!("first record as JSON:\n{}", report.cells[0].to_json());

    let rollup = report.rollup();
    let json_path = out_dir.join("campaign-report.json");
    let md_path = out_dir.join("campaign-report.md");
    if let Err(e) = std::fs::write(&json_path, rollup.to_json() + "\n") {
        eprintln!("cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&md_path, rollup.to_markdown()) {
        eprintln!("cannot write {}: {e}", md_path.display());
        return ExitCode::FAILURE;
    }

    println!("\n{}", rollup.to_markdown());
    println!("wrote {} and {}", json_path.display(), md_path.display());

    if rollup.is_clean() {
        println!("audit: all {} cells clean", rollup.cells);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "audit: {} violations across {} cells — see {}",
            rollup.audit_violations,
            rollup.cells,
            json_path.display(),
        );
        ExitCode::FAILURE
    }
}
