//! Regenerates every checked-in bench result — the paper's figures, the
//! fault campaigns, the observatory and the hotspot tables — as files
//! written straight into `bench/results/`, and prints each file's records
//! as a table:
//!
//! * `fig2.jsonl` — Figure 2's worked routing example: its two count pairs;
//! * `fig3.jsonl` — Figure 3: campaign cell records;
//! * `fig4.jsonl` — Figure 4 and the Tier-1 ablation: `OptimizerSweep`
//!   records, one per sweep point;
//! * `fig5.jsonl` — Figure 5: cell records;
//! * `ablations.jsonl` — the network ablations: cell records;
//! * `scale.jsonl` — the supplementary experiments S1–S4: cell records;
//! * `faults.jsonl` — the fault campaigns over 48 epochs: cell records;
//! * `observatory.jsonl` — the traced observatory: cell records
//!   (its traces go to `observatory/traces/`, outside the results);
//! * `analyze-trace-1.json` — `summarize_trace` of one observatory trace;
//! * `hotspots.txt` — per-node tx-busy tables and imbalance, Markdown.
//!
//! A saving is read against the Baseline record with the same workload,
//! grid, field seed and fault. The files hold only what the simulation
//! decides, so two runs write the same bytes: running the bench is the
//! refresh, and CI fails if it leaves `git status` showing a change under
//! `bench/results/`. Host time (wall seconds, simulated ms/s) is printed in
//! the fault table and nowhere else.
//!
//! Every campaign runs with the auditor armed, so every cell record carries
//! an `audit`. If any cell counts a violation or a skipped check (a trace
//! the auditor could not reconcile proves nothing), the bench writes nothing
//! and exits nonzero, so no such record can become a result. A file the
//! bench cannot write or a trace it cannot summarize fails it too.

use std::path::Path;
use std::process::ExitCode;

use ttmqo_bench::{
    ablation_campaigns, fault_campaigns, fig2_pairs, fig3_campaign, fig4_sweeps, fig5_campaign,
    hotspots, observatory_campaign, print_table, saving_pct, scale_campaigns, write_report,
    OptimizerSweep, ANALYZED_TRACE, FIGURE_EPOCHS, RESULT_FILES, TRACES_DIR,
};
use ttmqo_core::{run_campaign, CampaignReport, CampaignSpec, CellRecord};
use ttmqo_sim::{summarize_trace, MsgKind};

/// Runs the campaigns with the auditor armed and returns their records and
/// their file. The auditor is end-of-run arithmetic over counters the run
/// produces anyway; a cell with violations is a correctness bug, never a
/// result, and a skipped check (a trace that was never reconciled) proves
/// nothing. Either is an error naming every such cell.
fn run(specs: impl IntoIterator<Item = CampaignSpec>) -> Result<(Vec<CellRecord>, String), String> {
    let reports: Vec<CampaignReport> = specs
        .into_iter()
        .map(|s| run_campaign(&s.audit()))
        .collect();
    let file = reports.iter().map(CampaignReport::to_jsonl).collect();
    let cells: Vec<CellRecord> = reports.into_iter().flat_map(|r| r.cells).collect();
    let dirty: Vec<String> = cells
        .iter()
        .filter(|c| {
            !c.audit
                .as_ref()
                .is_some_and(|a| a.is_clean() && a.checks_skipped == 0)
        })
        .map(|c| format!("{}/{}-{}: {:?}", c.workload, c.strategy, c.grid_n, c.audit))
        .collect();
    if dirty.is_empty() {
        Ok((cells, file))
    } else {
        Err(format!(
            "audit violations or skipped checks:\n{}",
            dirty.join("\n")
        ))
    }
}

fn cell_table(title: &str, records: &[CellRecord]) {
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|c| {
            let result_msgs = c.metrics.tx_count.get(&MsgKind::Result).copied();
            vec![
                c.workload.clone(),
                c.strategy.to_string(),
                c.grid_n.to_string(),
                format!("{:.4}", c.avg_transmission_time_pct()),
                saving_pct(records, c).map_or("-".into(), |s| format!("{s:+.1}%")),
                result_msgs.unwrap_or(0).to_string(),
                format!("{:.2}", c.avg_synthetic_count),
                format!("{:.1}%", 100.0 * c.avg_benefit_ratio),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "workload",
            "strategy",
            "grid n",
            "avg tx time %",
            "vs baseline",
            "result msgs",
            "avg synthetics",
            "benefit ratio",
        ],
        &rows,
    );
}

fn sweep_table(title: &str, sweeps: &[OptimizerSweep]) {
    let rows: Vec<Vec<String>> = sweeps
        .iter()
        .map(|s| {
            vec![
                format!("{:.0}", s.target_concurrency),
                s.options.alpha.to_string(),
                s.options.reinsert.to_string(),
                format!("{:.2}%", 100.0 * s.benefit_ratio),
                format!("{:.2}%", 100.0 * s.net_benefit_ratio()),
                format!("{:.2}", s.avg_user_count),
                format!("{:.2}", s.avg_synthetic_count),
                s.max_synthetic_count.to_string(),
                s.network_ops().to_string(),
                format!("{}/{}", s.absorbed_events(), 2 * s.n_queries),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "concurrency",
            "alpha",
            "reinsert",
            "benefit ratio",
            "net of reopt floods",
            "avg users",
            "avg synthetics",
            "peak",
            "network ops",
            "absorbed events",
        ],
        &rows,
    );
}

fn fault_table(records: &[CellRecord]) {
    let rows: Vec<Vec<String>> = records
        .iter()
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
}

fn observatory_table(records: &[CellRecord]) {
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|c| {
            let audit = c.audit.as_ref();
            vec![
                c.workload.clone(),
                c.strategy.to_string(),
                c.grid_n.to_string(),
                c.engine.events_processed.to_string(),
                c.answer_epochs.to_string(),
                format!("{:.3}", c.completeness.min_epoch_ratio()),
                format!("{:.1}", c.energy_mj),
                audit.map_or(0, |a| a.violations.len()).to_string(),
                audit.map_or(0, |a| a.checks_skipped).to_string(),
            ]
        })
        .collect();
    print_table(
        "Observatory — audited, traced cells",
        &[
            "workload",
            "strategy",
            "grid n",
            "events",
            "answers",
            "min epoch",
            "energy mJ",
            "violations",
            "skipped",
        ],
        &rows,
    );
}

/// The summary of the observatory trace the results hold, one JSON object.
fn analyzed_trace() -> Result<String, String> {
    let path = Path::new(TRACES_DIR).join(ANALYZED_TRACE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let summary =
        summarize_trace(&text).map_err(|e| format!("cannot analyze {}: {e}", path.display()))?;
    Ok(summary.to_json() + "\n")
}

fn main() -> ExitCode {
    let files = match results() {
        Ok(files) => files,
        Err(e) => {
            eprintln!("{e}\nwrote nothing to bench/results/");
            return ExitCode::FAILURE;
        }
    };
    let mut written = RESULT_FILES.iter().zip(&files);
    if written.all(|(file, contents)| write_report(file, contents)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every campaign, prints its table, and returns the contents of the
/// [`RESULT_FILES`] in order.
fn results() -> Result<[String; RESULT_FILES.len()], String> {
    let fig2 = fig2_pairs();
    let (fig3, fig3_file) = run([fig3_campaign(FIGURE_EPOCHS)])?;
    let fig4 = fig4_sweeps();
    let mixes = [0.0, 0.5, 1.0];
    let selectivities = [0.2, 0.4, 0.6, 0.8, 1.0];
    let (fig5, fig5_file) = run([fig5_campaign(&mixes, &selectivities, FIGURE_EPOCHS, 7)])?;
    let (ablations, ablations_file) = run(ablation_campaigns())?;
    let (scale, scale_file) = run(scale_campaigns())?;
    // 48 epochs cover the crashes (epoch 8), detection, re-election and a
    // long recovered tail.
    let (faults, faults_file) = run(fault_campaigns(48))?;
    let (observatory, observatory_file) = run([observatory_campaign()])?;
    let hotspots = hotspots();

    let counts = |c: &ttmqo_bench::Fig2Counts| {
        format!(
            "{:.1} msgs / {} nodes",
            c.messages_per_epoch, c.nodes_involved
        )
    };
    let fig2_rows: Vec<Vec<String>> = fig2
        .iter()
        .zip(["20/8n vs 12/6n", "14 vs 7"])
        .map(|(p, paper)| {
            vec![
                p.variant.into(),
                counts(&p.tinydb),
                counts(&p.ttmqo),
                paper.into(),
            ]
        })
        .collect();
    print_table(
        "Figure 2 — worked routing example (per epoch, both queries)",
        &["variant", "TinyDB (fixed tree)", "TTMQO (DAG)", "paper"],
        &fig2_rows,
    );
    cell_table(
        "Figure 3 — average transmission time (% of node time spent transmitting)",
        &fig3,
    );
    sweep_table(
        "Figure 4 and the Tier-1 ablation — 500-query random workload, 4x4 grid",
        &fig4,
    );
    cell_table(
        "Figure 5 — savings vs aggregation fraction (agg) and selectivity (sel), 8 queries",
        &fig5,
    );
    cell_table(
        "Ablations — tier-2 parents and selectivity statistics",
        &ablations,
    );
    cell_table("S1–S4 — query count, deployment, radio, big grids", &scale);
    fault_table(&faults);
    observatory_table(&observatory);
    println!("\n=== Hotspots — per-node tx busy and imbalance ===\n\n{hotspots}");

    Ok([
        fig2.iter().map(|p| p.to_json() + "\n").collect(),
        fig3_file,
        fig4.iter().map(|s| s.to_json() + "\n").collect(),
        fig5_file,
        ablations_file,
        scale_file,
        faults_file,
        observatory_file,
        analyzed_trace()?,
        hotspots,
    ])
}
