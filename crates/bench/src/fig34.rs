//! Harnesses for Figure 3 (impact of the optimization tiers) and Figure 4
//! (adaptive workloads: benefit ratio, α, synthetic-query count).

use ttmqo_core::{
    run_campaign, BaseStationOptimizer, CampaignSpec, ExperimentConfig, OptimizerOptions, Strategy,
    WorkloadAction, WorkloadEvent,
};
use ttmqo_sim::{RadioParams, SimTime, Topology};

/// Simulated duration of each Figure 3 cell, in base epochs.
pub const FIG3_DURATION_EPOCHS: u64 = 96;

/// One cell of the Figure 3 matrix.
#[derive(Debug, Clone)]
pub struct Fig3Cell {
    /// Workload name ("A", "B" or "C").
    pub workload: &'static str,
    /// Number of nodes (16 or 64).
    pub nodes: usize,
    /// Strategy.
    pub strategy: Strategy,
    /// Average transmission time, percent.
    pub avg_tx_pct: f64,
    /// Savings vs. the baseline of the same (workload, nodes), percent.
    pub savings_pct: f64,
}

/// The Figure 3 sweep as a campaign: workloads A/B/C × {4×4, 8×8} grids ×
/// all four strategies over the default experiment configuration.
pub fn fig3_campaign(duration_epochs: u64) -> CampaignSpec {
    let base = ExperimentConfig {
        duration: SimTime::from_ms(duration_epochs * 2048),
        ..ExperimentConfig::default()
    };
    CampaignSpec::new(base)
        .strategies(Strategy::ALL)
        .grid_sizes([4, 8])
        .workload("A", ttmqo_workloads::workload_a())
        .workload("B", ttmqo_workloads::workload_b())
        .workload("C", ttmqo_workloads::workload_c())
}

/// Runs the full Figure 3 matrix: workloads A/B/C × {16, 64} nodes × all four
/// strategies, one campaign cell per thread-pool slot (the 24 cells are
/// independent simulations; results are identical to running them one by
/// one).
pub fn fig3_matrix(duration_epochs: u64) -> Vec<Fig3Cell> {
    let spec = fig3_campaign(duration_epochs);
    let report = run_campaign(&spec);
    let mut cells = Vec::with_capacity(report.cells.len());
    for name in ["A", "B", "C"] {
        for grid_n in [4usize, 8] {
            let base = report
                .cell(name, Strategy::Baseline, grid_n, spec.base.field_seed)
                .expect("baseline cell ran")
                .avg_transmission_time_pct();
            for strategy in Strategy::ALL {
                let tx = report
                    .cell(name, strategy, grid_n, spec.base.field_seed)
                    .expect("cell ran")
                    .avg_transmission_time_pct();
                cells.push(Fig3Cell {
                    workload: name,
                    nodes: grid_n * grid_n,
                    strategy,
                    avg_tx_pct: tx,
                    savings_pct: if base > 0.0 {
                        100.0 * (1.0 - tx / base)
                    } else {
                        0.0
                    },
                });
            }
        }
    }
    cells
}

/// Result of running a workload through the base-station optimizer alone
/// (the Figure 4 measurements are pure tier-1 metrics — no network needed).
#[derive(Debug, Clone, Copy)]
pub struct OptimizerSweep {
    /// Time-weighted mean benefit ratio
    /// (`(Σ user cost − Σ synthetic cost) / Σ user cost`).
    pub benefit_ratio: f64,
    /// Time-weighted mean number of running synthetic queries.
    pub avg_synthetic_count: f64,
    /// Time-weighted mean number of running user queries.
    pub avg_user_count: f64,
    /// Peak synthetic-query count.
    pub max_synthetic_count: usize,
    /// Total query injections sent to the network.
    pub injections: u64,
    /// Total query abortions sent to the network.
    pub abortions: u64,
    /// Insertions absorbed entirely at the base station.
    pub absorbed_insertions: u64,
    /// Terminations absorbed entirely at the base station.
    pub absorbed_terminations: u64,
    /// Time-integrated user-query cost (airtime ms over the whole run).
    pub user_cost_integral: f64,
    /// Time-integrated synthetic-query cost (airtime ms over the whole run).
    pub synthetic_cost_integral: f64,
}

impl OptimizerSweep {
    /// Benefit ratio *net of re-optimization cost*: every query injection or
    /// abortion floods the whole network once, and those floods are "also
    /// costly operations" (§3.1.4). `flood_airtime_ms` is the airtime of one
    /// flood (≈ nodes × per-message transmission time).
    pub fn net_benefit_ratio(&self, flood_airtime_ms: f64) -> f64 {
        if self.user_cost_integral <= 0.0 {
            return 0.0;
        }
        let saved = self.user_cost_integral - self.synthetic_cost_integral;
        let reopt = (self.injections + self.abortions) as f64 * flood_airtime_ms;
        (saved - reopt) / self.user_cost_integral
    }
}

/// Replays a workload through the optimizer, accumulating time-weighted
/// statistics (Figure 4's measurements).
pub fn optimizer_sweep(events: &[WorkloadEvent], alpha: f64, grid_n: usize) -> OptimizerSweep {
    optimizer_sweep_with(
        events,
        OptimizerOptions {
            alpha,
            ..OptimizerOptions::default()
        },
        grid_n,
    )
}

/// [`optimizer_sweep`] with full control over the optimizer knobs
/// (ablations).
pub fn optimizer_sweep_with(
    events: &[WorkloadEvent],
    options: OptimizerOptions,
    grid_n: usize,
) -> OptimizerSweep {
    let topo = Topology::grid(grid_n).expect("valid grid");
    let mut opt = BaseStationOptimizer::for_topology(&topo, &RadioParams::default(), options);

    let mut events: Vec<WorkloadEvent> = events.to_vec();
    events.sort_by_key(|e| e.at);

    let mut weighted_ratio = 0.0;
    let mut weighted_syn = 0.0;
    let mut weighted_users = 0.0;
    let mut user_cost_integral = 0.0;
    let mut synthetic_cost_integral = 0.0;
    let mut max_syn = 0usize;
    let mut last_t = 0u64;
    for event in &events {
        let t = event.at.as_ms();
        let dt = (t - last_t) as f64;
        weighted_ratio += opt.benefit_ratio() * dt;
        weighted_syn += opt.synthetic_count() as f64 * dt;
        weighted_users += opt.user_count() as f64 * dt;
        user_cost_integral += opt.total_user_cost() * dt;
        synthetic_cost_integral += opt.total_synthetic_cost() * dt;
        last_t = t;
        match &event.action {
            WorkloadAction::Pose(q) => {
                opt.insert(q.clone()).expect("workload ids are valid");
            }
            WorkloadAction::Terminate(qid) => {
                opt.terminate(*qid);
            }
        }
        max_syn = max_syn.max(opt.synthetic_count());
    }
    let total = last_t.max(1) as f64;
    let stats = opt.stats();
    OptimizerSweep {
        benefit_ratio: weighted_ratio / total,
        avg_synthetic_count: weighted_syn / total,
        avg_user_count: weighted_users / total,
        max_synthetic_count: max_syn,
        injections: stats.injections,
        abortions: stats.abortions,
        absorbed_insertions: stats.absorbed_insertions,
        absorbed_terminations: stats.absorbed_terminations,
        user_cost_integral,
        synthetic_cost_integral,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_workloads::{random_workload, RandomWorkloadParams};

    #[test]
    fn benefit_ratio_grows_with_concurrency() {
        // The Figure 4(a) shape: more concurrent queries ⇒ more sharing.
        let sweep = |concurrency: f64| {
            let events = random_workload(&RandomWorkloadParams {
                n_queries: 150,
                target_concurrency: concurrency,
                seed: 11,
                ..RandomWorkloadParams::default()
            });
            optimizer_sweep(&events, 0.6, 4).benefit_ratio
        };
        let low = sweep(8.0);
        let high = sweep(48.0);
        assert!(
            high > low + 0.1,
            "benefit ratio must grow with concurrency: {low:.3} -> {high:.3}"
        );
        assert!(
            low > 0.05,
            "even 8 concurrent queries share something: {low:.3}"
        );
    }

    #[test]
    fn synthetic_count_stays_small() {
        // The Figure 4(c) shape: < 4 synthetic queries even at 48 concurrent.
        let events = random_workload(&RandomWorkloadParams {
            n_queries: 200,
            target_concurrency: 48.0,
            seed: 3,
            ..RandomWorkloadParams::default()
        });
        let sweep = optimizer_sweep(&events, 0.6, 4);
        assert!(
            sweep.avg_synthetic_count < sweep.avg_user_count / 3.0,
            "synthetics {:.2} vs users {:.2}",
            sweep.avg_synthetic_count,
            sweep.avg_user_count
        );
    }

    #[test]
    fn fig3_shape_holds_on_small_runs() {
        // Short-duration sanity check of the Figure 3 orderings.
        let cells = fig3_matrix(24);
        let get = |w: &str, n: usize, s: Strategy| {
            cells
                .iter()
                .find(|c| c.workload == w && c.nodes == n && c.strategy == s)
                .map(|c| c.avg_tx_pct)
                .expect("cell exists")
        };
        for w in ["A", "B", "C"] {
            for n in [16, 64] {
                let base = get(w, n, Strategy::Baseline);
                let two = get(w, n, Strategy::TwoTier);
                assert!(two < base, "{w}/{n}: two-tier {two} !< baseline {base}");
            }
        }
        // Workload B: the in-network tier is the one that helps.
        assert!(get("B", 64, Strategy::InNetOnly) < get("B", 64, Strategy::BsOnly));
    }
}
