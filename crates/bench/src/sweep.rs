//! Tier-1 sweeps: a random workload replayed through the base-station
//! optimizer alone (Figure 4's measurements and the Tier-1 ablation are pure
//! tier-1 metrics — no network needed), one [`OptimizerSweep`] record per
//! sweep point.

use ttmqo_core::{BaseStationOptimizer, OptimizerOptions, WorkloadAction};
use ttmqo_sim::json;
use ttmqo_sim::{RadioParams, Topology};
use ttmqo_workloads::{random_workload, RandomWorkloadParams};

/// Airtime one node spends relaying one query flood, ms (≈ one query frame
/// at the paper's radio cost).
const FLOOD_MSG_AIRTIME_MS: f64 = 7.8;

/// One sweep point: its coordinates and options, and the time-weighted
/// statistics of replaying its workload through the optimizer.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerSweep {
    /// Queries in the random workload.
    pub n_queries: usize,
    /// The workload's target number of concurrent queries.
    pub target_concurrency: f64,
    /// The workload generator's seed.
    pub seed: u64,
    /// Grid side the cost model is built for.
    pub grid_n: usize,
    /// The optimizer's options (α, re-insertion).
    pub options: OptimizerOptions,
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
    /// costly operations" (§3.1.4). One flood costs every node one
    /// query-frame transmission.
    pub fn net_benefit_ratio(&self) -> f64 {
        if self.user_cost_integral <= 0.0 {
            return 0.0;
        }
        let flood_airtime_ms = (self.grid_n * self.grid_n) as f64 * FLOOD_MSG_AIRTIME_MS;
        let saved = self.user_cost_integral - self.synthetic_cost_integral;
        let reopt = self.network_ops() as f64 * flood_airtime_ms;
        (saved - reopt) / self.user_cost_integral
    }

    /// Injections plus abortions: the floods the optimizer sent.
    pub fn network_ops(&self) -> u64 {
        self.injections + self.abortions
    }

    /// Insert and terminate events absorbed at the base station.
    pub fn absorbed_events(&self) -> u64 {
        self.absorbed_insertions + self.absorbed_terminations
    }

    /// The sweep point as one JSON object: coordinates and options first,
    /// then every statistic, `net_benefit_ratio` included.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.u64("n_queries", self.n_queries as u64);
            o.f64("target_concurrency", self.target_concurrency);
            o.u64("seed", self.seed);
            o.u64("grid_n", self.grid_n as u64);
            o.f64("alpha", self.options.alpha);
            o.bool("reinsert", self.options.reinsert);
            o.f64("benefit_ratio", self.benefit_ratio);
            o.f64("net_benefit_ratio", self.net_benefit_ratio());
            o.f64("avg_synthetic_count", self.avg_synthetic_count);
            o.f64("avg_user_count", self.avg_user_count);
            o.u64("max_synthetic_count", self.max_synthetic_count as u64);
            o.u64("injections", self.injections);
            o.u64("abortions", self.abortions);
            o.u64("absorbed_insertions", self.absorbed_insertions);
            o.u64("absorbed_terminations", self.absorbed_terminations);
            o.f64("user_cost_integral", self.user_cost_integral);
            o.f64("synthetic_cost_integral", self.synthetic_cost_integral);
        })
    }
}

/// Replays the random workload `workload` describes through an optimizer
/// with `options`, built for the `grid_n`×`grid_n` grid, accumulating
/// time-weighted statistics.
pub fn optimizer_sweep_with(
    workload: &RandomWorkloadParams,
    options: OptimizerOptions,
    grid_n: usize,
) -> OptimizerSweep {
    let topo = Topology::grid(grid_n).expect("valid grid");
    let mut opt = BaseStationOptimizer::for_topology(&topo, &RadioParams::default(), options);

    let mut events = random_workload(workload);
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
        n_queries: workload.n_queries,
        target_concurrency: workload.target_concurrency,
        seed: workload.seed,
        grid_n,
        options,
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
    use ttmqo_sim::json::parse;

    fn sweep(n_queries: usize, target_concurrency: f64, seed: u64) -> OptimizerSweep {
        let workload = RandomWorkloadParams {
            n_queries,
            target_concurrency,
            seed,
            ..RandomWorkloadParams::default()
        };
        optimizer_sweep_with(&workload, OptimizerOptions::default(), 4)
    }

    #[test]
    fn benefit_ratio_grows_with_concurrency() {
        // The Figure 4(a) shape: more concurrent queries ⇒ more sharing.
        let low = sweep(150, 8.0, 11);
        let high = sweep(150, 48.0, 11);
        assert!(
            high.benefit_ratio > low.benefit_ratio + 0.1,
            "benefit ratio must grow with concurrency: {:.3} -> {:.3}",
            low.benefit_ratio,
            high.benefit_ratio
        );
        assert!(
            low.benefit_ratio > 0.05,
            "even 8 concurrent queries share something: {:.3}",
            low.benefit_ratio
        );
    }

    #[test]
    fn synthetic_count_stays_small() {
        // The Figure 4(c) shape: < 4 synthetic queries even at 48 concurrent.
        let record = sweep(200, 48.0, 3);
        assert!(
            record.avg_synthetic_count < record.avg_user_count / 3.0,
            "synthetics {:.2} vs users {:.2}",
            record.avg_synthetic_count,
            record.avg_user_count
        );
    }

    #[test]
    fn record_carries_its_coordinates_and_options() {
        let record = sweep(40, 8.0, 5);
        let json = record.to_json();
        let doc = parse(&json).expect("a sweep record is valid JSON");
        assert_eq!(doc.u64_at("n_queries"), Some(40));
        assert_eq!(doc.u64_at("seed"), Some(5));
        assert_eq!(doc.u64_at("grid_n"), Some(4));
        assert_eq!(doc.get("alpha").and_then(|v| v.as_f64()), Some(0.6));
        assert_eq!(doc.get("reinsert").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            doc.get("net_benefit_ratio").and_then(|v| v.as_f64()),
            Some(record.net_benefit_ratio())
        );
    }
}
