//! Fault-subsystem benchmark: end-to-end TTMQO runs under each fault-plan
//! element, as two campaigns whose cell records are the report
//! (`faults.jsonl`).
//!
//! Two questions gate the fault subsystem:
//!
//! 1. **Does the overlay cost anything when absent?** The fault axis's
//!    `none` cell runs the exact fault-free configuration (empty plan,
//!    failure detector off) through the same campaign, so its record is the
//!    baseline every faulty record is read against.
//! 2. **What does healing cost and deliver?** The faulty cells exercise each
//!    plan element (scripted crashes, sampled churn with reboots, a
//!    link-degradation window, a singleton source that dies) and their
//!    records hold the healing outcomes: frames, retransmissions, give-ups,
//!    answer completeness, repairs triggered, repair latency and orphans.
//!
//! Every cell is TwoTier on the paper's 8×8 grid over a lossless channel
//! with no maintenance beacons, so every retransmission, give-up and missing
//! row is attributable to the fault plan, not ambient loss.

use ttmqo_core::campaign::CampaignFault;
use ttmqo_core::{CampaignSpec, ExperimentConfig, Strategy, WorkloadEvent};
use ttmqo_query::{parse_query, QueryId, BASE_EPOCH_MS};
use ttmqo_sim::{
    FaultPlan, LinkDegradation, NodeId, RadioParams, RandomCrashes, SimConfig, SimTime,
};

/// A TwoTier campaign on one 8×8 cell over `duration_epochs` epochs. Its
/// workload is the full select, plus `select light where nodeid = n` when
/// a `singleton` source `n` is given.
fn fault_spec(duration_epochs: u64, singleton: Option<u16>) -> CampaignSpec {
    let base = ExperimentConfig {
        duration: SimTime::from_ms(duration_epochs * BASE_EPOCH_MS),
        radio: RadioParams::lossless(),
        sim: SimConfig {
            seed: 0xFA171,
            maintenance_interval_ms: None,
        },
        ..ExperimentConfig::default()
    };
    let pose = |id, text: &str| {
        let query = parse_query(QueryId(id), text).expect("valid bench query");
        WorkloadEvent::pose(0, query)
    };
    let mut workload = vec![pose(1, "select light epoch duration 2048")];
    if let Some(n) = singleton {
        workload.push(pose(
            2,
            &format!("select light where nodeid = {n} epoch duration 2048"),
        ));
    }
    let name = singleton.map_or("full-select".into(), |n| format!("full-select+nodeid-{n}"));
    CampaignSpec::new(base)
        .strategies([Strategy::TwoTier])
        .grid_sizes([8])
        .workload(name, workload)
}

/// The fault bench's two campaigns.
///
/// The first runs the full select under the healthy `none` cell and one
/// cell per plan element. The crash population of `crash-10pct-8x8` is the
/// acceptance-test set (six scattered nodes ≈ 10% of the 63 sensing nodes,
/// crashing at epoch 8 without recovery), so its completeness reproduces
/// the criterion the test suite asserts.
///
/// The second is the one `repair-singleton-8x8` cell: node 37, the sole
/// source of the workload's `nodeid = 37` query, dies for good. The base
/// station's missing-result detector fires (the record counts the
/// repairs), but node 37 never reboots, so no repair is followed by an
/// answer and the latency stays null. The 4×4 unit test
/// `singleton_reboot_triggers_a_repair_with_measured_latency` reboots its
/// node and measures one.
pub fn fault_campaigns(duration_epochs: u64) -> [CampaignSpec; 2] {
    let e = BASE_EPOCH_MS;
    let healing = fault_spec(duration_epochs, None)
        .fault_plan(
            "crash-10pct-8x8",
            FaultPlan::scripted(
                [10u16, 19, 28, 37, 46, 55]
                    .map(|n| (NodeId(n), 8 * e, None))
                    .to_vec(),
            ),
        )
        .fault_plan(
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
        )
        .fault_plan(
            "degraded-8x8",
            FaultPlan {
                degradations: vec![LinkDegradation {
                    from_ms: 8 * e,
                    until_ms: 16 * e,
                    added_loss: 0.3,
                }],
                ..FaultPlan::default()
            },
        );
    let mut repair = fault_spec(duration_epochs, Some(37));
    repair.faults = vec![CampaignFault {
        name: "repair-singleton-8x8".to_string(),
        plan: FaultPlan::scripted(vec![(NodeId(37), 8 * e, None)]),
    }];
    [healing, repair]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_core::{run_campaign_sequential, CellRecord};
    use ttmqo_sim::json;

    /// `spec` shrunk to a 4×4 grid under engine seed 7.
    fn tiny(mut spec: CampaignSpec) -> CampaignSpec {
        spec.base.sim.seed = 7;
        spec.grid_sizes([4])
    }

    /// The healthy cell and a relay (not a leaf) crashing mid-epoch: its
    /// children's rows are lost until the failure detector re-elects around
    /// it, so the run's completeness visibly dips below the healthy
    /// baseline. Node 6 is the busiest relay of the 4×4 grid under this
    /// seed.
    fn healthy_and_one_crash() -> CampaignSpec {
        tiny(fault_spec(12, None)).fault_plan(
            "crash-relay-6",
            FaultPlan::scripted(vec![(NodeId(6), 4 * BASE_EPOCH_MS + 1, None)]),
        )
    }

    fn cells() -> Vec<CellRecord> {
        run_campaign_sequential(&healthy_and_one_crash()).cells
    }

    #[test]
    fn healthy_cell_reports_full_completeness_and_no_overlay_effects() {
        let cells = cells();
        let healthy = &cells[0];
        assert_eq!(healthy.fault, "none");
        assert!(healthy.metrics.tx_count_total() > 0);
        assert_eq!(healthy.completeness.min_epoch_ratio(), 1.0);
        assert_eq!(healthy.completeness.min_row_ratio(), 1.0);
        assert_eq!(healthy.completeness.repairs_triggered, 0);
        assert_eq!(healthy.completeness.mean_repair_latency_ms(), None);
        assert_eq!(healthy.metrics.orphaned_drops, 0);
        assert_eq!(healthy.metrics.orphaned_nodes, 0);
        // No repair ran, so the latency field is a JSON null, not a number.
        assert!(healthy
            .to_json()
            .contains("\"mean_repair_latency_ms\":null"));
    }

    #[test]
    fn a_crashed_relay_loses_rows_against_the_healthy_cell() {
        let cells = cells();
        let (healthy, faulty) = (&cells[0], &cells[1]);
        // The relay's children keep unicasting into the dead node until the
        // retry budget exhausts, and their rows are lost until re-election,
        // so the whole-run row completeness drops below the healthy 1.0.
        let (h, f) = (&healthy.completeness, &faulty.completeness);
        assert!(f.min_row_ratio() < h.min_row_ratio(), "{f:?} vs {h:?}");
        assert!(f.min_row_ratio() > 0.0);
        assert!(faulty.metrics.gave_up > 0, "{:?}", faulty.metrics);
    }

    #[test]
    fn records_are_byte_identical_across_runs() {
        let spec = healthy_and_one_crash();
        let jsonl = run_campaign_sequential(&spec).to_jsonl();
        assert_eq!(jsonl, run_campaign_sequential(&spec).to_jsonl());
        for line in jsonl.lines() {
            assert!(json::parse(line).is_ok(), "malformed record {line}");
        }
    }

    #[test]
    fn the_campaigns_cover_every_plan_element() {
        let [healing, repair] = fault_campaigns(24);
        let plans: Vec<&FaultPlan> = healing.faults.iter().map(|f| &f.plan).collect();
        assert_eq!(plans.len(), 4);
        assert!(plans[0].is_empty());
        assert!(!plans[1].crashes.is_empty());
        assert!(plans[2].random_crashes.is_some());
        assert!(plans[3].has_loss_elements());
        assert_eq!(repair.cell_count(), 1);
        assert_eq!(repair.workloads[0].events.len(), 2);
        for spec in [&healing, &repair] {
            assert_eq!(spec.base.duration, SimTime::from_ms(24 * BASE_EPOCH_MS));
        }
    }

    #[test]
    fn singleton_reboot_triggers_a_repair_with_measured_latency() {
        // Grid-4 version of the repair-singleton cell, with a reboot: the
        // only node matching the extra query goes dark long enough for the
        // missing-result detector to fire, then comes back, so the repair
        // has a subsequent answer and its latency is measurable. Twenty
        // epochs leave the node time to rejoin (re-learn the query from
        // neighbours, re-route) and answer the repair.
        let e = BASE_EPOCH_MS;
        let mut spec = tiny(fault_spec(20, Some(15)));
        spec.faults = vec![CampaignFault {
            name: "reboot-15".to_string(),
            plan: FaultPlan::scripted(vec![(NodeId(15), 4 * e, Some(9 * e))]),
        }];
        let cell = &run_campaign_sequential(&spec).cells[0];
        let c = &cell.completeness;
        assert!(c.repairs_triggered >= 1, "{c:?}");
        assert!(c.mean_repair_latency_ms().is_some(), "{c:?}");
        assert!(cell.to_json().contains("\"repairs_triggered\":"));
    }
}
