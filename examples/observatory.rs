//! Campaign observatory: watch a sweep live, roll it up, and audit it.
//!
//! This example wires together the three observability layers added by the
//! observatory work:
//!
//! * **live progress** — a [`ProgressSink`] attached via
//!   `CampaignSpec::progress` receives one [`CampaignEvent`] per lifecycle
//!   transition (campaign/cell started/finished, heartbeats, ETA). Here the
//!   sink renders each event as a human-readable line *and* forwards it to a
//!   `progress.jsonl` machine-readable stream;
//! * **standing invariant auditor** — `CampaignSpec::audit` promotes the
//!   test-suite's reconciliation checks (phase accounting, slab sanity,
//!   energy conservation, completeness, trace↔answer agreement) into every
//!   cell's record; any violation fails this example with a nonzero exit;
//! * **cross-cell rollup** — `CampaignReport::rollup` aggregates the cell
//!   records into per-axis marginals and hotspot cells, written as
//!   `campaign-report.json` (for `report_diff`) and `campaign-report.md`
//!   (for humans).
//!
//! The telemetry channel is observational only: running with progress and
//! audit enabled produces bit-identical cell records to a bare run.
//!
//! Run with: `cargo run --release --example observatory`
//!
//! Outputs land under `observatory/`: `progress.jsonl`,
//! `campaign-report.json`, `campaign-report.md`, and per-cell traces.

use std::process::ExitCode;

use ttmqo::core::observe::{CampaignEvent, JsonLinesProgress, ProgressSink};
use ttmqo::core::{run_campaign, CampaignSpec, Strategy, WorkloadEvent};
use ttmqo::query::{parse_query, QueryId};
use ttmqo::sim::SimTime;

/// Human renderer that tees every event into the JSONL stream.
struct Observatory {
    jsonl: JsonLinesProgress,
}

fn eta(ms: Option<f64>) -> String {
    ms.map_or_else(|| "eta -".to_string(), |ms| format!("eta {ms:.0} ms"))
}

impl ProgressSink for Observatory {
    fn event(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::CampaignStarted { cells, threads } => {
                println!("observatory: {cells} cells on {threads} threads")
            }
            CampaignEvent::CellStarted {
                wall_ms,
                index,
                workload,
                strategy,
                grid_n,
                fault,
                ..
            } => println!(
                "[{wall_ms:>8.1} ms] -> #{index} {workload}/{strategy}/{grid_n}x{grid_n}/{fault}"
            ),
            CampaignEvent::CellFinished {
                wall_ms,
                index,
                workload,
                strategy,
                grid_n,
                cell_wall_ms,
                events_processed,
                events_per_sec,
                audit_violations,
                completed,
                total,
                eta_ms,
                ..
            } => {
                let audit = match audit_violations {
                    0 => "audit clean".to_string(),
                    n => format!("AUDIT: {n} violations"),
                };
                println!(
                    "[{wall_ms:>8.1} ms] ok #{index} {workload}/{strategy}/{grid_n}x{grid_n}: \
                     {events_processed} ev in {cell_wall_ms:.1} ms ({events_per_sec:.0} ev/s), \
                     {completed}/{total} done, {}, {audit}",
                    eta(*eta_ms),
                );
            }
            CampaignEvent::CellFailed {
                wall_ms,
                index,
                workload,
                strategy,
                grid_n,
                ..
            } => println!(
                "[{wall_ms:>8.1} ms] FAILED #{index} {workload}/{strategy}/{grid_n}x{grid_n}"
            ),
            CampaignEvent::Heartbeat {
                wall_ms,
                completed,
                running,
                total,
                eta_ms,
            } => println!(
                "[{wall_ms:>8.1} ms] .. {completed}/{total} done, {running} running, {}",
                eta(*eta_ms),
            ),
            CampaignEvent::CampaignFinished {
                wall_ms,
                cells,
                audit_violations,
            } => println!(
                "observatory: {cells} cells in {wall_ms:.0} ms \
                 ({audit_violations} audit violations)"
            ),
        }
        self.jsonl.event(event);
    }

    fn flush(&mut self) {
        self.jsonl.flush();
    }
}

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
    let progress = match JsonLinesProgress::create(out_dir.join("progress.jsonl")) {
        Ok(jsonl) => Observatory { jsonl },
        Err(e) => {
            eprintln!("cannot open progress stream: {e}");
            return ExitCode::FAILURE;
        }
    };

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
        .audit()
        .heartbeat_ms(200)
        .progress(progress);

    let report = run_campaign(&spec);

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
    println!(
        "wrote {}, {}, and {}",
        out_dir.join("progress.jsonl").display(),
        json_path.display(),
        md_path.display(),
    );

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
