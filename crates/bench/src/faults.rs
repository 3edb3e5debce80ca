//! Fault-subsystem benchmark: end-to-end TTMQO runs under a [`FaultPlan`],
//! with an exact JSON report (`BENCH_faults.json`).
//!
//! Two questions gate the fault subsystem:
//!
//! 1. **Does the overlay cost anything when absent?** The `healthy-*`
//!    scenario runs the exact fault-free configuration (empty plan, failure
//!    detector off) through the same harness, so its row is the baseline
//!    every faulty row is read against.
//! 2. **What does healing cost and deliver?** The faulty scenarios exercise
//!    each plan element (scripted crashes, sampled churn with reboots, a
//!    link-degradation window) and record the healing outcomes: frames,
//!    retransmissions, answer completeness, repairs triggered, repair
//!    latency, and orphaned-node counts.
//!
//! The report holds only what the simulation decides, so two runs write the
//! same bytes; host time is printed by the bench, never written.

use std::time::Instant;
use ttmqo_core::{run_experiment, ExperimentConfig, RunReport, Strategy, WorkloadEvent};
use ttmqo_query::{parse_query, QueryId};
use ttmqo_sim::json;
use ttmqo_sim::{
    FaultPlan, LinkDegradation, NodeId, RadioParams, RandomCrashes, SimConfig, SimTime,
};

/// Epoch length of the bench workload, ms (the paper's default epoch).
pub const FAULT_BENCH_EPOCH_MS: u64 = 2048;

/// One fault-bench scenario: a TTMQO run over a grid with a fault plan.
#[derive(Debug, Clone)]
pub struct FaultBenchParams {
    /// Scenario name carried into the report.
    pub name: String,
    /// Grid side (nodes = `grid_n²`).
    pub grid_n: usize,
    /// Simulated duration in epochs of [`FAULT_BENCH_EPOCH_MS`].
    pub duration_epochs: u64,
    /// What goes wrong during the run (empty = the healthy baseline).
    pub plan: FaultPlan,
    /// An additional query posed at t=0 next to the standard full select
    /// (e.g. a single-source query whose source the plan kills, so the
    /// base station's missing-result repair shows up in the report).
    pub extra_query: Option<String>,
    /// Engine seed.
    pub seed: u64,
}

impl FaultBenchParams {
    /// The default scenario set: the healthy baseline plus one scenario per
    /// fault-plan element, all on the paper's 8×8 grid.
    ///
    /// The crash population of `crash-10pct-8x8` is the acceptance-test set
    /// (six scattered nodes ≈ 10% of the 63 sensing nodes, crashing at epoch
    /// 8 without recovery), so the bench's completeness column reproduces
    /// the criterion the test suite asserts.
    pub fn default_scenarios(duration_epochs: u64) -> Vec<FaultBenchParams> {
        let e = FAULT_BENCH_EPOCH_MS;
        let base = |name: &str, plan| FaultBenchParams {
            name: name.to_string(),
            grid_n: 8,
            duration_epochs,
            plan,
            extra_query: None,
            seed: 0xFA171,
        };
        vec![
            base("healthy-8x8", FaultPlan::default()),
            base(
                "crash-10pct-8x8",
                FaultPlan::scripted(
                    [10u16, 19, 28, 37, 46, 55]
                        .map(|n| (NodeId(n), 8 * e, None))
                        .to_vec(),
                ),
            ),
            base(
                "churn-25pct-8x8",
                FaultPlan {
                    seed: 0xC0FFEE,
                    random_crashes: Some(RandomCrashes {
                        fraction: 0.25,
                        from_ms: 4 * e,
                        until_ms: 12 * e,
                        outage_ms: Some(8 * e),
                    }),
                    ..FaultPlan::default()
                },
            ),
            FaultBenchParams {
                // The sole source of the extra query dies for good: the
                // base station's missing-result detector fires (the row
                // counts the repairs), but node 37 never reboots, so no
                // repair is followed by an answer and the latency column
                // stays null. The 4×4 unit test
                // `singleton_crash_triggers_a_repair_with_measured_latency`
                // is the one that reboots its node and measures a latency.
                extra_query: Some("select light where nodeid = 37 epoch duration 2048".to_string()),
                ..base(
                    "repair-singleton-8x8",
                    FaultPlan::scripted(vec![(NodeId(37), 8 * e, None)]),
                )
            },
            base(
                "degraded-8x8",
                FaultPlan {
                    degradations: vec![LinkDegradation {
                        from_ms: 8 * e,
                        until_ms: 16 * e,
                        added_loss: 0.3,
                    }],
                    ..FaultPlan::default()
                },
            ),
        ]
    }
}

/// Measured results of one fault-bench scenario.
#[derive(Debug, Clone)]
pub struct FaultBenchResult {
    /// Scenario name.
    pub name: String,
    /// Grid side.
    pub grid_n: usize,
    /// Simulated duration, ms.
    pub duration_ms: u64,
    /// Host wall-clock of the run, seconds. Printed by the bench, not
    /// written to the report.
    pub wall_s: f64,
    /// Frames put on the air.
    pub tx_frames: u64,
    /// Retransmissions caused by loss or collision.
    pub retransmissions: u64,
    /// Unicast frames abandoned after exhausting retries.
    pub gave_up: u64,
    /// Results dropped at nodes with data but no live route.
    pub orphaned_drops: u64,
    /// Distinct nodes that ever orphan-dropped a result.
    pub orphaned_nodes: u64,
    /// Worst per-query epoch completeness over the whole run.
    pub min_epoch_ratio: f64,
    /// Worst per-query row completeness over the whole run.
    pub min_row_ratio: f64,
    /// Tier-1 re-optimizations triggered by the missing-result detector.
    pub repairs_triggered: u64,
    /// Mean repair latency, ms (`None` when no repair was triggered).
    pub mean_repair_latency_ms: Option<f64>,
}

/// Runs one scenario — a full TwoTier experiment under the plan — and
/// measures it.
pub fn fault_bench(params: &FaultBenchParams) -> FaultBenchResult {
    let duration_ms = params.duration_epochs * FAULT_BENCH_EPOCH_MS;
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: params.grid_n,
        duration: SimTime::from_ms(duration_ms),
        // Lossless channel: every retransmission, give-up, and missing row
        // in the report is attributable to the fault plan, not ambient loss.
        radio: RadioParams::lossless(),
        sim: SimConfig {
            seed: params.seed,
            maintenance_interval_ms: None,
        },
        faults: params.plan.clone(),
        ..ExperimentConfig::default()
    };
    let mut workload = vec![WorkloadEvent::pose(
        0,
        parse_query(QueryId(1), "select light epoch duration 2048").expect("valid bench query"),
    )];
    if let Some(text) = &params.extra_query {
        workload.push(WorkloadEvent::pose(
            0,
            parse_query(QueryId(2), text).expect("valid extra bench query"),
        ));
    }
    let start = Instant::now();
    let report: RunReport = run_experiment(&config, &workload);
    let wall_s = start.elapsed().as_secs_f64();

    let m = report.metrics.snapshot();
    let c = &report.completeness;
    FaultBenchResult {
        name: params.name.clone(),
        grid_n: params.grid_n,
        duration_ms,
        wall_s,
        tx_frames: m.tx_count_total(),
        retransmissions: m.retransmissions,
        gave_up: m.gave_up,
        orphaned_drops: m.orphaned_drops,
        orphaned_nodes: m.orphaned_nodes,
        min_epoch_ratio: c.min_epoch_ratio(),
        min_row_ratio: c.min_row_ratio(),
        repairs_triggered: c.repairs_triggered,
        mean_repair_latency_ms: c.mean_repair_latency_ms(),
    }
}

impl FaultBenchResult {
    /// One JSON object (one line of `BENCH_faults.json`): exact outcomes
    /// only, so a deterministic run renders the same bytes.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.u64("schema_version", ttmqo_sim::SCHEMA_VERSION as u64);
            o.str("name", &self.name);
            o.u64("grid_n", self.grid_n as u64);
            o.u64("duration_ms", self.duration_ms);
            o.u64("tx_frames", self.tx_frames);
            o.u64("retransmissions", self.retransmissions);
            o.u64("gave_up", self.gave_up);
            o.u64("orphaned_drops", self.orphaned_drops);
            o.u64("orphaned_nodes", self.orphaned_nodes);
            o.fixed("min_epoch_ratio", self.min_epoch_ratio, 6);
            o.fixed("min_row_ratio", self.min_row_ratio, 6);
            o.u64("repairs_triggered", self.repairs_triggered);
            match self.mean_repair_latency_ms {
                Some(ms) => o.fixed("mean_repair_latency_ms", ms, 1),
                None => o.null("mean_repair_latency_ms"),
            }
        })
    }
}

/// Default file the fault bench writes its JSON-lines report to.
pub const FAULTS_REPORT_FILE: &str = "BENCH_faults.json";

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(plan: FaultPlan) -> FaultBenchParams {
        FaultBenchParams {
            name: "tiny".into(),
            grid_n: 4,
            duration_epochs: 12,
            plan,
            extra_query: None,
            seed: 7,
        }
    }

    fn one_crash() -> FaultPlan {
        // A relay (not a leaf) crashing mid-epoch: its children's rows are
        // lost until the failure detector re-elects around it, so the run's
        // completeness visibly dips below the healthy baseline. Node 6 is
        // the busiest relay of the 4×4 grid under this seed.
        FaultPlan::scripted(vec![(NodeId(6), 4 * FAULT_BENCH_EPOCH_MS + 1, None)])
    }

    #[test]
    fn healthy_scenario_reports_full_completeness_and_no_overlay_effects() {
        let r = fault_bench(&tiny(FaultPlan::default()));
        assert!(r.tx_frames > 0);
        assert_eq!(r.min_epoch_ratio, 1.0);
        assert_eq!(r.min_row_ratio, 1.0);
        assert_eq!(r.repairs_triggered, 0);
        assert_eq!(r.mean_repair_latency_ms, None);
        assert_eq!(r.orphaned_drops, 0);
        assert_eq!(r.orphaned_nodes, 0);
        // No repair ran, so the latency field is a JSON null, not a number.
        assert!(r.to_json().contains("\"mean_repair_latency_ms\":null"));
    }

    #[test]
    fn crashed_scenario_loses_rows_relative_to_healthy() {
        let healthy = fault_bench(&tiny(FaultPlan::default()));
        let faulty = fault_bench(&tiny(one_crash()));
        // The relay's children keep unicasting into the dead node until the
        // retry budget exhausts, and their rows are lost until re-election,
        // so the whole-run row completeness drops below the healthy 1.0.
        assert!(
            faulty.min_row_ratio < healthy.min_row_ratio,
            "faulty {faulty:?} vs healthy {healthy:?}"
        );
        assert!(faulty.min_row_ratio > 0.0);
        assert!(faulty.gave_up > 0, "{faulty:?}");
    }

    #[test]
    fn report_is_byte_identical_across_runs() {
        let json = fault_bench(&tiny(one_crash())).to_json();
        assert_eq!(json, fault_bench(&tiny(one_crash())).to_json());
        assert!(json::parse(&json).is_ok());
    }

    #[test]
    fn default_scenarios_cover_every_plan_element() {
        let scenarios = FaultBenchParams::default_scenarios(24);
        assert_eq!(scenarios.len(), 5);
        assert!(scenarios[0].plan.is_empty());
        assert!(!scenarios[1].plan.crashes.is_empty());
        assert!(scenarios[2].plan.random_crashes.is_some());
        assert!(scenarios[3].extra_query.is_some());
        assert!(scenarios[4].plan.has_loss_elements());
        for s in &scenarios {
            assert_eq!(s.duration_epochs, 24);
        }
    }

    #[test]
    fn singleton_crash_triggers_a_repair_with_measured_latency() {
        // Grid-4 version of the repair-singleton scenario, with a reboot:
        // the only node matching the extra query goes dark long enough for
        // the missing-result detector to fire, then comes back, so the
        // repair has a subsequent answer and its latency is measurable.
        let mut params = tiny(FaultPlan::scripted(vec![(
            NodeId(15),
            4 * FAULT_BENCH_EPOCH_MS,
            Some(9 * FAULT_BENCH_EPOCH_MS),
        )]));
        params.extra_query = Some("select light where nodeid = 15 epoch duration 2048".into());
        // Leave enough post-reboot epochs for the node to rejoin (re-learn
        // the query from neighbours, re-route) and answer the repair.
        params.duration_epochs = 20;
        let r = fault_bench(&params);
        assert!(r.repairs_triggered >= 1, "{r:?}");
        assert!(r.mean_repair_latency_ms.is_some(), "{r:?}");
        assert!(r.to_json().contains("\"repairs_triggered\":"));
    }
}
