//! Regenerates every checked-in bench result — the paper's figures, the
//! fault campaigns and the engine rows — as files of records written
//! straight into `bench/results/`, and prints each file's records as a
//! table:
//!
//! * `fig2.jsonl` — Figure 2's worked routing example: its two count pairs;
//! * `fig3.jsonl` — Figure 3: campaign cell records;
//! * `fig4.jsonl` — Figure 4 and the Tier-1 ablation: `OptimizerSweep`
//!   records, one per sweep point;
//! * `fig5.jsonl` — Figure 5: cell records;
//! * `ablations.jsonl` — the network ablations: cell records;
//! * `scale.jsonl` — the supplementary experiments S1–S4: cell records;
//! * `faults.jsonl` — the fault campaigns over 48 epochs: cell records;
//! * `engine.jsonl` — the engine's four end-to-end rows: cell records;
//! * `flood.jsonl` — the engine's six flood scenarios: one record each.
//!
//! A saving is read against the Baseline record with the same workload,
//! grid, field seed and fault. The records hold only what the simulation
//! decides, so two runs write the same bytes: running the bench is the
//! refresh, and CI fails if it leaves `git status` showing a change under
//! `bench/results/`. Host time (wall seconds, events/s) is printed in the
//! fault and engine tables and nowhere else.
//!
//! If any audited cell counts a violation, the bench writes nothing and
//! exits nonzero, so no violating record can become a result. A file the
//! bench cannot write fails it too.

use std::process::ExitCode;

use ttmqo_bench::{
    ablation_campaigns, engine_campaigns, engine_microbench, fault_campaigns, fig2_pairs,
    fig3_campaign, fig4_sweeps, fig5_campaign, print_table, saving_pct, scale_campaigns,
    write_report, EngineBenchParams, EngineBenchResult, OptimizerSweep, FIGURE_EPOCHS,
    RESULT_FILES,
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

fn engine_table(floods: &[EngineBenchResult], cells: &[CellRecord]) {
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
    // 48 epochs cover the crashes (epoch 8), detection, re-election and a
    // long recovered tail.
    let (faults, faults_file) = run(fault_campaigns(48));
    let (engine, engine_file) = run(engine_campaigns());
    let floods: Vec<EngineBenchResult> = EngineBenchParams::default_scenarios()
        .iter()
        .map(engine_microbench)
        .collect();

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
    engine_table(&floods, &engine);

    // The auditor is end-of-run arithmetic over counters the run produces
    // anyway; a cell with violations is a correctness bug, never a result.
    let audited = [&fig3, &fig5, &ablations, &scale, &faults, &engine];
    let dirty: Vec<&CellRecord> = audited
        .into_iter()
        .flatten()
        .filter(|c| c.audit.as_ref().is_some_and(|a| !a.is_clean()))
        .collect();
    for c in &dirty {
        eprintln!("{}/{}-{}: {:?}", c.workload, c.strategy, c.grid_n, c.audit);
    }
    if !dirty.is_empty() {
        eprintln!("audit violations: wrote nothing to bench/results/");
        return ExitCode::FAILURE;
    }

    let files = [
        fig2.iter().map(|p| p.to_json() + "\n").collect(),
        fig3_file,
        fig4.iter().map(|s| s.to_json() + "\n").collect(),
        fig5_file,
        ablations_file,
        scale_file,
        faults_file,
        engine_file,
        floods.iter().map(|r| r.to_json() + "\n").collect(),
    ];
    let mut written = RESULT_FILES.iter().zip(&files);
    if written.all(|(file, jsonl)| write_report(file, jsonl)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
