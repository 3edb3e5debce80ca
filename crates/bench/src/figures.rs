//! The paper's figures as data: the specs of every figure the `figures`
//! bench runs, and the one reader of their savings tables.
//!
//! Every network run is a [`CampaignSpec`] cell, so a figure's file is its
//! campaigns' [`CampaignReport::to_jsonl`](ttmqo_core::CampaignReport::to_jsonl)
//! records: Figure 3, Figure 5, the supplementary experiments S1–S4
//! ([`scale_campaigns`]) and the two network ablations
//! ([`ablation_campaigns`]). Each distinct base configuration (radio model,
//! deployment, duration, tier-2 parents, adaptive statistics) is its own
//! spec, and the variant's name is in the workload name. Figure 4 and the
//! Tier-1 ablation are [`OptimizerSweep`] records ([`fig4_sweeps`]).
//!
//! A run two tables of one figure show is run and stored once: S1's
//! 8-query cell is also S2's grid row and S3's default-radio row, and the
//! 16-concurrent α = 0.6 sweep is both a Figure 4(a) point and the
//! Tier-1 ablation's "paper" row.

use crate::sweep::{optimizer_sweep_with, OptimizerSweep};
use ttmqo_core::{
    CampaignSpec, CellRecord, ExperimentConfig, FieldKind, OptimizerOptions, Strategy, TtmqoConfig,
    WorkloadEvent,
};
use ttmqo_sim::{RadioParams, SimTime, Topology};
use ttmqo_workloads::{
    selectivity_workload, workload_a, workload_b, workload_c, RandomWorkloadParams,
    SelectivityWorkloadParams,
};

/// Simulated duration of each Figure 3 and Figure 5 cell, in base epochs.
pub const FIGURE_EPOCHS: u64 = 96;

/// The paper's default experiment over `epochs` base epochs (2048 ms).
fn base(epochs: u64) -> ExperimentConfig {
    ExperimentConfig {
        duration: SimTime::from_ms(epochs * 2048),
        ..ExperimentConfig::default()
    }
}

/// A Baseline-vs-TwoTier campaign over `base` on the one grid `grid_n`.
fn pair(base: ExperimentConfig, grid_n: usize) -> CampaignSpec {
    CampaignSpec::new(base)
        .strategies([Strategy::Baseline, Strategy::TwoTier])
        .grid_sizes([grid_n])
}

/// The transmission time `cell` saves against its Baseline twin in
/// `records`, percent. The twin is the Baseline record with the same
/// workload, grid, field seed and fault; a cell without one, or whose twin
/// transmitted nothing, has no saving. A Baseline record is its own twin.
pub fn saving_pct(records: &[CellRecord], cell: &CellRecord) -> Option<f64> {
    let twin = records.iter().find(|b| {
        b.strategy == Strategy::Baseline
            && b.workload == cell.workload
            && b.grid_n == cell.grid_n
            && b.field_seed == cell.field_seed
            && b.fault == cell.fault
    })?;
    let base = twin.avg_transmission_time_pct();
    (base > 0.0).then(|| 100.0 * (1.0 - cell.avg_transmission_time_pct() / base))
}

/// Figure 3: workloads A/B/C × {4×4, 8×8} grids × all four strategies.
pub fn fig3_campaign(duration_epochs: u64) -> CampaignSpec {
    CampaignSpec::new(base(duration_epochs))
        .strategies(Strategy::ALL)
        .grid_sizes([4, 8])
        .workload("A", workload_a())
        .workload("B", workload_b())
        .workload("C", workload_c())
}

/// Campaign-workload name of the Figure 5 cell at the given coordinates.
pub fn fig5_cell_name(aggregation_fraction: f64, selectivity: f64) -> String {
    format!("agg{aggregation_fraction:.2}-sel{selectivity:.2}")
}

/// Figure 5: the cross product of the given mixes and selectivities, each
/// pair's 8-query workload generated here and named by
/// [`fig5_cell_name`], × {Baseline, TwoTier} on the 4×4 grid.
pub fn fig5_campaign(
    mixes: &[f64],
    selectivities: &[f64],
    duration_epochs: u64,
    seed: u64,
) -> CampaignSpec {
    let mut spec = pair(base(duration_epochs), 4);
    for &aggregation_fraction in mixes {
        for &selectivity in selectivities {
            let events = selectivity_workload(&SelectivityWorkloadParams {
                aggregation_fraction,
                selectivity,
                seed,
                ..SelectivityWorkloadParams::default()
            });
            spec = spec.workload(fig5_cell_name(aggregation_fraction, selectivity), events);
        }
    }
    spec
}

/// The supplementary experiments' workload: `n_queries` queries of
/// selectivity 0.7, a quarter of them aggregations.
fn scale_workload(n_queries: usize) -> Vec<WorkloadEvent> {
    selectivity_workload(&SelectivityWorkloadParams {
        n_queries,
        selectivity: 0.7,
        aggregation_fraction: 0.25,
        seed: 99,
        ..SelectivityWorkloadParams::default()
    })
}

/// The supplementary experiments, Baseline vs TwoTier:
///
/// * S1 — 2 to 32 queries (`"8q"` …) on the 4×4 grid over 64 epochs;
/// * S2 — 8 queries on random uniform deployments of 16 and 64 nodes. The
///   deployment overrides the grid, so the cells run on grid axis `[0]`
///   and the workload names the deployment and its depth
///   (`"8q@random-64-depth5"`); the grid row is S1's `"8q"`;
/// * S3 — 8 queries under the lossless and the distance-loss radio
///   (`"8q@lossless"`, `"8q@distance-loss"`); the default radio is S1's
///   `"8q"`;
/// * S4 — 8 queries on 16×16, 32×32 and 64×64 grids, each over fewer
///   epochs as the grid grows (`"8q@16-epochs"` …).
pub fn scale_campaigns() -> Vec<CampaignSpec> {
    let s1 = [2, 4, 8, 16, 32]
        .into_iter()
        .fold(pair(base(64), 4), |spec, n| {
            spec.workload(format!("{n}q"), scale_workload(n))
        });
    let mut specs = vec![s1];
    for (nodes, side_ft, seed) in [(16, 70.0, 11), (64, 150.0, 12)] {
        let topo = Topology::random_uniform(nodes, side_ft, 50.0, seed).expect("random");
        let name = format!("8q@random-{nodes}-depth{}", topo.max_level());
        let config = ExperimentConfig {
            topology_override: Some(topo),
            ..base(64)
        };
        specs.push(pair(config, 0).workload(name, scale_workload(8)));
    }
    let distance_loss = RadioParams {
        distance_loss: true,
        ..RadioParams::default()
    };
    for (name, radio) in [
        ("lossless", RadioParams::lossless()),
        ("distance-loss", distance_loss),
    ] {
        let config = ExperimentConfig { radio, ..base(64) };
        specs.push(pair(config, 4).workload(format!("8q@{name}"), scale_workload(8)));
    }
    for (grid_n, epochs) in [(16, 16), (32, 8), (64, 4)] {
        let spec = pair(base(epochs), grid_n);
        specs.push(spec.workload(format!("8q@{epochs}-epochs"), scale_workload(8)));
    }
    specs
}

/// The network ablations:
///
/// * tier-2 parent selection — workload C, in-network tier only, 8×8 grid,
///   96 epochs, with dynamic DAG parents (`"C@dynamic-parents"`, the
///   paper's) and with the fixed link-quality tree (`"C@fixed-tree"`);
/// * selectivity statistics — workload C on a correlated field, its
///   arrivals staggered 8 epochs apart so the base station has seen rows
///   before the later queries are optimized, two-tier on the 4×4 grid over
///   160 epochs, under the uniform assumption (`"C-staggered@uniform-stats"`,
///   the paper's) and with adaptive statistics
///   (`"C-staggered@adaptive-stats"`).
pub fn ablation_campaigns() -> Vec<CampaignSpec> {
    let mut specs = Vec::new();
    for (name, dynamic_parents) in [("dynamic-parents", true), ("fixed-tree", false)] {
        let config = ExperimentConfig {
            innetwork: TtmqoConfig {
                dynamic_parents,
                ..TtmqoConfig::default()
            },
            ..base(96)
        };
        let spec = CampaignSpec::new(config)
            .strategies([Strategy::InNetOnly])
            .grid_sizes([8]);
        specs.push(spec.workload(format!("C@{name}"), workload_c()));
    }
    let staggered: Vec<WorkloadEvent> = workload_c()
        .into_iter()
        .enumerate()
        .map(|(i, mut e)| {
            e.at = SimTime::from_ms(i as u64 * 8 * 2048);
            e
        })
        .collect();
    for (name, adaptive_statistics) in [("uniform-stats", false), ("adaptive-stats", true)] {
        let config = ExperimentConfig {
            field: FieldKind::Correlated,
            adaptive_statistics,
            ..base(160)
        };
        let spec = CampaignSpec::new(config)
            .strategies([Strategy::TwoTier])
            .grid_sizes([4]);
        specs.push(spec.workload(format!("C-staggered@{name}"), staggered.clone()));
    }
    specs
}

/// Figure 4's sweep points and the Tier-1 ablation's variants, each once,
/// all over the §4.3 random workload (500 queries, seed 42) on the 4×4
/// grid:
///
/// * 4(a) and 4(c) — concurrency 8–48 × α ∈ {0.2, 0.6, 1.0};
/// * 4(b) — α from 0 to 8 at 8 concurrent queries;
/// * the Tier-1 ablation at 16 concurrent — no recursive re-insertion,
///   always rebuild (α = 0) and never rebuild (α = 10¹²). Its "paper" row
///   is the 4(a) point at α = 0.6.
pub fn fig4_sweeps() -> Vec<OptimizerSweep> {
    let at = |alpha| OptimizerOptions {
        alpha,
        ..OptimizerOptions::default()
    };
    let mut points: Vec<(f64, OptimizerOptions)> = Vec::new();
    for concurrency in [8.0, 16.0, 24.0, 32.0, 40.0, 48.0] {
        for alpha in [0.2, 0.6, 1.0] {
            points.push((concurrency, at(alpha)));
        }
    }
    for alpha in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.5, 4.0, 8.0] {
        if !points.contains(&(8.0, at(alpha))) {
            points.push((8.0, at(alpha)));
        }
    }
    let no_reinsert = OptimizerOptions {
        reinsert: false,
        ..OptimizerOptions::default()
    };
    points.extend([(16.0, no_reinsert), (16.0, at(0.0)), (16.0, at(1e12))]);
    points
        .into_iter()
        .map(|(target_concurrency, options)| {
            let workload = RandomWorkloadParams {
                n_queries: 500,
                target_concurrency,
                seed: 42,
                ..RandomWorkloadParams::default()
            };
            optimizer_sweep_with(&workload, options, 4)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_core::{run_campaign_with, CampaignReport};

    /// The TwoTier saving of every workload of a Figure 5 report, in order.
    fn two_tier_savings(report: &CampaignReport) -> Vec<(String, f64)> {
        let records = &report.cells;
        records
            .iter()
            .filter(|c| c.strategy == Strategy::TwoTier)
            .map(|c| (c.workload.clone(), saving_pct(records, c).expect("twin")))
            .collect()
    }

    #[test]
    fn fig3_shape_holds_on_small_runs() {
        // Short-duration sanity check of the Figure 3 orderings.
        let report = run_campaign_with(&fig3_campaign(24), 2);
        let saving = |w: &str, grid_n, s| {
            let at = |c: &&CellRecord| c.workload == w && c.grid_n == grid_n && c.strategy == s;
            let cell = report.cells.iter().find(at).expect("cell ran");
            saving_pct(&report.cells, cell).expect("every cell has a Baseline twin")
        };
        for w in ["A", "B", "C"] {
            for grid_n in [4, 8] {
                let two = saving(w, grid_n, Strategy::TwoTier);
                assert!(two > 0.0, "{w}/{grid_n}: two-tier saves {two:.1}%");
            }
        }
        // Workload B: the in-network tier is the one that helps.
        assert!(saving("B", 8, Strategy::InNetOnly) > saving("B", 8, Strategy::BsOnly));
    }

    #[test]
    fn savings_grow_with_selectivity_for_acquisition() {
        // The Figure 5 shape: higher selectivity ⇒ more similar queries ⇒
        // larger savings. At selectivity 1.0 with 8 identical acquisition
        // queries the paper reports ≈89.7% (theoretical 7/8 = 87.5%).
        let report = run_campaign_with(&fig5_campaign(&[0.0], &[0.3, 1.0], 48, 1), 2);
        let [(_, low), (_, high)] = two_tier_savings(&report)[..] else {
            panic!("two selectivities, two savings");
        };
        assert!(high > low, "savings must grow: {low:.1}% -> {high:.1}%");
        assert!(
            high > 75.0,
            "identical acquisition queries should save ≳ 7/8: {high:.1}%"
        );
    }

    #[test]
    fn full_aggregation_mix_saves_at_full_selectivity() {
        let report = run_campaign_with(&fig5_campaign(&[1.0], &[1.0], 48, 2), 2);
        let saving = two_tier_savings(&report)[0].1;
        assert!(
            saving > 50.0,
            "8 identical MAX queries must share heavily: {saving:.1}%"
        );
    }

    #[test]
    fn campaign_covers_the_sweep_and_records_read_back() {
        let spec = fig5_campaign(&[0.0, 1.0], &[0.5, 1.0], 16, 3);
        // 4 workloads × 1 grid × 1 seed × 2 strategies.
        assert_eq!(spec.cell_count(), 8);
        let report = run_campaign_with(&spec, 2);
        let names: Vec<String> = two_tier_savings(&report)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let expected = [(0.0, 0.5), (0.0, 1.0), (1.0, 0.5), (1.0, 1.0)];
        assert_eq!(names, expected.map(|(m, s)| fig5_cell_name(m, s)));
        assert!(report
            .cells
            .iter()
            .all(|c| c.avg_transmission_time_pct() > 0.0));
        assert_eq!(report.to_jsonl().lines().count(), 8);
    }

    #[test]
    fn a_saving_pairs_on_every_coordinate_and_never_borrows_a_twin() {
        let spec = pair(base(4), 3).workload("w", scale_workload(2));
        let report = run_campaign_with(&spec, 1);
        let [baseline, two_tier] = [0, 1].map(|i| report.cells[i].clone());
        let with = |cell: &CellRecord, tx: f64, edit: &dyn Fn(&mut CellRecord)| {
            let mut cell = cell.clone();
            cell.metrics.avg_transmission_time_pct = tx;
            edit(&mut cell);
            cell
        };
        let records = vec![
            with(&baseline, 2.0, &|_| {}),
            with(&two_tier, 1.0, &|_| {}),
            // A second fault plan: its Baseline is not the first match.
            with(&baseline, 4.0, &|c| c.fault = "crash".into()),
            with(&two_tier, 1.0, &|c| c.fault = "crash".into()),
            // No Baseline twin on any of these coordinates.
            with(&two_tier, 1.0, &|c| c.workload = "other".into()),
            with(&two_tier, 1.0, &|c| c.grid_n = 5),
            with(&two_tier, 1.0, &|c| c.field_seed += 1),
            with(&two_tier, 1.0, &|c| c.fault = "churn".into()),
        ];
        let savings: Vec<Option<f64>> = records.iter().map(|c| saving_pct(&records, c)).collect();
        let expected = [
            Some(0.0),
            Some(50.0),
            Some(0.0),
            Some(75.0),
            None,
            None,
            None,
            None,
        ];
        assert_eq!(savings, expected);
        // A twin that transmitted nothing gives no saving either.
        let silent = [with(&baseline, 0.0, &|_| {}), with(&two_tier, 1.0, &|_| {})];
        assert_eq!(saving_pct(&silent, &silent[1]), None);
    }
}
