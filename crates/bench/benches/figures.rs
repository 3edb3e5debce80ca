//! Regenerates every figure of the paper's evaluation as a file of records
//! in the working directory (`crates/bench/` under `cargo bench`), and
//! prints each file's records as a table:
//!
//! * `fig2.jsonl` — Figure 2's worked routing example: its two count pairs;
//! * `fig3.jsonl` — Figure 3: campaign cell records;
//! * `fig4.jsonl` — Figure 4 and the Tier-1 ablation: `OptimizerSweep`
//!   records, one per sweep point;
//! * `fig5.jsonl` — Figure 5: cell records;
//! * `ablations.jsonl` — the network ablations: cell records;
//! * `scale.jsonl` — the supplementary experiments S1–S4: cell records.
//!
//! A saving is read against the Baseline record with the same workload,
//! grid, field seed and fault. The records hold only what the simulation
//! decides, so two runs write the same bytes and CI diffs each file against
//! its copy under `bench/results/`. A file the bench cannot write fails it.

use std::process::ExitCode;

use ttmqo_bench::{
    ablation_campaigns, fig2_pairs, fig3_campaign, fig4_sweeps, fig5_campaign, print_table,
    saving_pct, scale_campaigns, write_report, OptimizerSweep, FIGURE_EPOCHS, FIGURE_FILES,
};
use ttmqo_core::{run_campaign, CampaignReport, CampaignSpec, CellRecord};
use ttmqo_sim::MsgKind;

/// Runs the campaigns and returns their records and their file.
fn run(specs: impl IntoIterator<Item = CampaignSpec>) -> (Vec<CellRecord>, String) {
    let reports: Vec<CampaignReport> = specs.into_iter().map(|s| run_campaign(&s)).collect();
    let file = reports.iter().map(CampaignReport::to_jsonl).collect();
    (reports.into_iter().flat_map(|r| r.cells).collect(), file)
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

fn main() -> ExitCode {
    let fig2 = fig2_pairs();
    let (fig3, fig3_file) = run([fig3_campaign(FIGURE_EPOCHS)]);
    let fig4 = fig4_sweeps();
    let mixes = [0.0, 0.5, 1.0];
    let selectivities = [0.2, 0.4, 0.6, 0.8, 1.0];
    let (fig5, fig5_file) = run([fig5_campaign(&mixes, &selectivities, FIGURE_EPOCHS, 7)]);
    let (ablations, ablations_file) = run(ablation_campaigns());
    let (scale, scale_file) = run(scale_campaigns());

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

    let files = [
        fig2.iter().map(|p| p.to_json() + "\n").collect(),
        fig3_file,
        fig4.iter().map(|s| s.to_json() + "\n").collect(),
        fig5_file,
        ablations_file,
        scale_file,
    ];
    let mut written = FIGURE_FILES.iter().zip(&files);
    if written.all(|(file, jsonl)| write_report(file, jsonl)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
