//! Campaign-runner integration tests: the parallel executor must be an
//! observational no-op relative to running each cell alone, and the report
//! must carry exactly one record per cell. The standing auditor gets the
//! same treatment: attaching it must not move a single bit of any cell
//! record.

use ttmqo_core::{
    run_campaign_sequential, run_campaign_with, CampaignSpec, ExperimentConfig, FieldKind,
    Strategy, WorkloadEvent,
};
use ttmqo_query::{parse_query, Query, QueryId};
use ttmqo_sim::{RadioParams, SimTime};

fn q(id: u64, text: &str) -> Query {
    parse_query(QueryId(id), text).unwrap()
}

/// A small dynamic workload: overlapping poses, one termination.
fn workload() -> Vec<WorkloadEvent> {
    vec![
        WorkloadEvent::pose(
            0,
            q(1, "select light where 100<light<600 epoch duration 2048"),
        ),
        WorkloadEvent::pose(
            0,
            q(
                2,
                "select light, temp where 200<light<500 epoch duration 4096",
            ),
        ),
        WorkloadEvent::pose(3 * 2048, q(3, "select max(light) epoch duration 4096")),
        WorkloadEvent::terminate(9 * 2048, QueryId(1)),
    ]
}

fn paper_spec() -> CampaignSpec {
    let base = ExperimentConfig {
        duration: SimTime::from_ms(16 * 2048),
        radio: RadioParams::lossless(),
        field: FieldKind::Uniform,
        field_seed: 987,
        ..ExperimentConfig::default()
    };
    // The acceptance sweep: all four strategies × the paper's two grids.
    CampaignSpec::new(base)
        .strategies(Strategy::ALL)
        .grid_sizes([4, 8])
        .workload("dynamic", workload())
}

#[test]
fn parallel_campaign_matches_sequential_cell_for_cell() {
    let spec = paper_spec();
    let sequential = run_campaign_sequential(&spec);
    let parallel = run_campaign_with(&spec, 4);
    assert_eq!(sequential.threads, 1);
    assert!(parallel.threads > 1, "multi-thread run requested");
    assert_eq!(sequential.cells.len(), spec.cell_count());
    assert_eq!(parallel.cells.len(), sequential.cells.len());
    for (seq, par) in sequential.cells.iter().zip(&parallel.cells) {
        // Identity: the parallel report preserves cell order.
        assert_eq!(seq.workload, par.workload);
        assert_eq!(seq.strategy, par.strategy);
        assert_eq!(seq.grid_n, par.grid_n);
        assert_eq!(seq.field_seed, par.field_seed);
        // Determinism: every measured field except wall clock is identical,
        // down to the floating-point bit pattern.
        let at = format!("{}/{}/{}", seq.workload, seq.strategy, seq.grid_n);
        assert_eq!(seq.metrics, par.metrics, "metrics differ at {at}");
        assert_eq!(seq.workload_events, par.workload_events, "{at}");
        assert_eq!(seq.queries_answered, par.queries_answered, "{at}");
        assert_eq!(seq.answer_epochs, par.answer_epochs, "{at}");
        assert_eq!(seq.optimizer, par.optimizer, "{at}");
        assert!(
            seq.avg_synthetic_count == par.avg_synthetic_count
                && seq.avg_benefit_ratio == par.avg_benefit_ratio,
            "tier-1 time-weighted stats differ at {at}"
        );
    }
    // The cells actually simulated something.
    for cell in &sequential.cells {
        assert!(
            cell.avg_transmission_time_pct() > 0.0,
            "{}/{} ran empty",
            cell.strategy,
            cell.grid_n
        );
    }
}

#[test]
fn campaign_rerun_is_bit_stable() {
    // Two parallel runs of the same spec agree with each other too (the
    // cursor hands cells to different threads; results must not care).
    let spec = paper_spec();
    let a = run_campaign_with(&spec, 3);
    let b = run_campaign_with(&spec, 2);
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.metrics, y.metrics);
        assert_eq!(x.answer_epochs, y.answer_epochs);
    }
}

#[test]
fn audited_campaign_is_bit_identical_to_a_bare_run() {
    // The standing auditor attached to the paper sweep must reproduce the
    // bare run's cell records bit for bit: auditing never draws from any
    // simulation RNG and never branches on simulated state.
    let bare = run_campaign_with(&paper_spec(), 3);
    let audited = run_campaign_with(&paper_spec().audit(), 3);

    assert_eq!(bare.cells.len(), audited.cells.len());
    for (b, a) in bare.cells.iter().zip(&audited.cells) {
        let at = format!("{}/{}/{}", b.workload, b.strategy, b.grid_n);
        assert_eq!(b.metrics, a.metrics, "metrics differ at {at}");
        assert_eq!(b.engine, a.engine, "engine stats differ at {at}");
        assert_eq!(b.answer_epochs, a.answer_epochs, "{at}");
        assert_eq!(b.optimizer, a.optimizer, "{at}");
        assert_eq!(b.energy_mj, a.energy_mj, "{at}");
        // The only permitted difference: the audited run carries a (clean)
        // audit report where the bare run carries none.
        assert!(b.audit.is_none(), "bare cell must not carry an audit");
        let audit = a.audit.as_ref().expect("audited cell carries a report");
        assert!(audit.is_clean(), "healthy sweep must audit clean at {at}");
    }
}

/// The sweep `inspect observatory` runs (minus its trace files): two
/// workloads × {baseline, two-tier} × 3×3 and 4×4, audited.
fn observatory_spec() -> CampaignSpec {
    let workload = |texts: &[&str]| -> Vec<WorkloadEvent> {
        let numbered = texts.iter().enumerate();
        numbered
            .map(|(i, text)| WorkloadEvent::pose(0, q(i as u64 + 1, text)))
            .collect()
    };
    let base = ExperimentConfig {
        duration: SimTime::from_ms(12 * 2048),
        ..ExperimentConfig::default()
    };
    CampaignSpec::new(base)
        .strategies([Strategy::Baseline, Strategy::TwoTier])
        .grid_sizes([3, 4])
        .workload(
            "overlap",
            workload(&[
                "select light where 280<light<600 epoch duration 2048",
                "select light where 100<light<300 epoch duration 4096",
                "select light where 150<light<500 epoch duration 4096",
            ]),
        )
        .workload(
            "disjoint",
            workload(&[
                "select light where 100<light<200 epoch duration 2048",
                "select temp where 40<temp<60 epoch duration 2048",
            ]),
        )
        .audit()
}

#[test]
fn campaign_records_are_byte_identical_across_thread_counts() {
    // CI gates the observatory's records with `diff`, so their rendering
    // must be a pure function of the simulated run: no host time may leak
    // in, whichever thread ran which cell.
    let spec = observatory_spec();
    let one = run_campaign_with(&spec, 1);
    let two = run_campaign_with(&spec, 2);
    assert_eq!(one.cells.len(), 8);
    assert!(one
        .cells
        .iter()
        .all(|c| c.audit.as_ref().is_some_and(|a| a.is_clean())));
    assert_eq!(one.to_jsonl(), two.to_jsonl());
}

#[test]
fn report_emits_one_jsonl_record_per_cell() {
    let spec = paper_spec();
    let report = run_campaign_with(&spec, 4);
    let jsonl = report.to_jsonl();
    assert_eq!(jsonl.lines().count(), spec.cell_count());
    // Every coordinate pair appears exactly once.
    for strategy in Strategy::ALL {
        for grid_n in [4usize, 8] {
            let needle = format!("\"strategy\":\"{strategy}\",\"grid_n\":{grid_n}");
            assert_eq!(
                jsonl.matches(&needle).count(),
                1,
                "missing or duplicated record for {strategy}/{grid_n}"
            );
        }
    }
}
