//! Timeseries reconciliation: the windowed per-node series must sum back to
//! the aggregate `Metrics` totals exactly — the recorder mirrors the same
//! deltas the metrics see, bucketed by event time, so nothing may be lost,
//! duplicated, or smeared across windows.

use std::collections::BTreeMap;
use ttmqo_core::{run_experiment, ExperimentConfig, RunReport, Strategy, WorkloadEvent};
use ttmqo_query::{parse_query, QueryId, BASE_EPOCH_MS};
use ttmqo_sim::{EnergyProfile, FaultPlan, MsgKind, NodeId, Observe, SimTime};
use ttmqo_workloads::workload_a;

/// Relative f64 comparison: window sums re-associate the same additions the
/// aggregate performed, so they agree to rounding, not bit-for-bit.
fn assert_close(what: &str, a: f64, b: f64) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= tol,
        "{what}: window sum {a} != aggregate {b}"
    );
}

fn timeseries_run(strategy: Strategy, faults: FaultPlan) -> RunReport {
    let config = ExperimentConfig {
        strategy,
        grid_n: 4,
        duration: SimTime::from_ms(24 * 2048),
        observe: Observe {
            timeseries: true,
            ..Observe::default()
        },
        faults,
        ..ExperimentConfig::default()
    };
    run_experiment(&config, &workload_a())
}

fn check_reconciliation(strategy: Strategy, report: &RunReport) {
    let series = report
        .timeseries
        .as_ref()
        .expect("timeseries was enabled for this run");
    let snap = report.metrics.snapshot();
    let nodes = series.nodes.nodes;
    let windows = &series.nodes.windows;
    assert!(!windows.is_empty(), "[{strategy}] windows recorded");
    assert_eq!(series.nodes.window_ms, BASE_EPOCH_MS, "[{strategy}]");
    assert_eq!(series.nodes.horizon_ms, snap.horizon_ms, "[{strategy}]");

    // Window grid: starts stride by window_ms from zero; in-horizon windows
    // have full (or final partial) length, past-horizon windows length 0.
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(
            w.start_ms,
            i as u64 * series.nodes.window_ms,
            "[{strategy}]"
        );
        assert!(w.len_ms <= series.nodes.window_ms, "[{strategy}]");
    }
    assert_eq!(
        windows.iter().map(|w| w.len_ms).sum::<u64>(),
        snap.horizon_ms,
        "[{strategy}] window lengths tile the horizon"
    );

    // Integer counters reconcile exactly.
    let mut tx_count: BTreeMap<MsgKind, u64> = BTreeMap::new();
    for w in windows {
        for (kind, n) in &w.tx_count {
            *tx_count.entry(*kind).or_default() += n;
        }
    }
    assert_eq!(tx_count, snap.tx_count, "[{strategy}] tx counts by kind");
    assert_eq!(
        windows.iter().map(|w| w.collisions).sum::<u64>(),
        snap.collisions,
        "[{strategy}] collisions"
    );
    assert_eq!(
        windows.iter().map(|w| w.retransmissions).sum::<u64>(),
        snap.retransmissions,
        "[{strategy}] retransmissions"
    );
    assert_eq!(
        windows.iter().map(|w| w.losses).sum::<u64>(),
        snap.losses,
        "[{strategy}] losses"
    );
    assert_eq!(
        windows.iter().map(|w| w.gave_up).sum::<u64>(),
        snap.gave_up,
        "[{strategy}] gave_up"
    );
    assert_eq!(
        windows
            .iter()
            .map(|w| w.samples.iter().sum::<u64>())
            .sum::<u64>(),
        snap.samples,
        "[{strategy}] samples"
    );

    // Float sums reconcile to rounding: the recorder mirrored the exact
    // deltas, only the association of the additions differs.
    let sum2 = |f: fn(&ttmqo_sim::WindowStats) -> f64| windows.iter().map(f).sum::<f64>();
    assert_close(
        &format!("[{strategy}] tx busy ms"),
        sum2(|w| w.tx_busy_ms.iter().sum()),
        snap.total_tx_busy_ms,
    );
    assert_close(
        &format!("[{strategy}] rx busy ms"),
        sum2(|w| w.rx_busy_ms.iter().sum()),
        snap.total_rx_busy_ms,
    );
    assert_close(
        &format!("[{strategy}] sleep ms"),
        sum2(|w| w.sleep_ms.iter().sum()),
        snap.total_sleep_ms,
    );

    // Energy: per-window energies use the unclamped idle remainder, so they
    // telescope to the aggregate energy whenever the aggregate itself does
    // not clamp (true for every node here: busy time is far below the
    // horizon).
    let profile = EnergyProfile::default();
    assert_close(
        &format!("[{strategy}] energy mJ"),
        sum2(|w| w.energy_mj.iter().sum()),
        report.metrics.total_energy_mj(&profile),
    );
    assert_close(
        &format!("[{strategy}] report energy mJ"),
        report.energy_mj,
        report.metrics.total_energy_mj(&profile),
    );
    assert!(
        report.max_node_energy_mj > 0.0 && report.max_node_energy_mj < report.energy_mj,
        "[{strategy}] per-node max is positive and below the total"
    );

    // Per-query answer series reconcile with the report's attributed
    // answers, and every latency observation is accounted for.
    assert_eq!(
        series.per_query.keys().collect::<Vec<_>>(),
        report.answers.keys().collect::<Vec<_>>(),
        "[{strategy}] same user-query set"
    );
    for (uid, q) in &series.per_query {
        let expected = report.answers[uid].len() as u64;
        assert_eq!(
            q.answers.iter().sum::<u64>(),
            expected,
            "[{strategy}] {uid:?} answers"
        );
        assert_eq!(
            q.latency.iter().map(|h| h.total()).sum::<u64>(),
            expected,
            "[{strategy}] {uid:?} latency observations"
        );
        assert!(
            q.nonempty.iter().sum::<u64>() <= expected,
            "[{strategy}] {uid:?} nonempty <= answers"
        );
        assert_eq!(
            q.answers.len(),
            windows.len(),
            "[{strategy}] {uid:?} padded to the window grid"
        );
    }
    for node in 0..nodes {
        assert_close(
            &format!("[{strategy}] node {node} tx busy"),
            series.nodes.node_total_tx_busy_ms(node),
            windows.iter().map(|w| w.tx_busy_ms[node]).sum(),
        );
    }
}

#[test]
fn window_sums_reconcile_with_aggregate_metrics_baseline() {
    let report = timeseries_run(Strategy::Baseline, FaultPlan::default());
    check_reconciliation(Strategy::Baseline, &report);
    assert!(report
        .timeseries
        .as_ref()
        .unwrap()
        .crash_times_ms
        .is_empty());
}

#[test]
fn window_sums_reconcile_with_aggregate_metrics_two_tier() {
    let report = timeseries_run(Strategy::TwoTier, FaultPlan::default());
    check_reconciliation(Strategy::TwoTier, &report);
}

#[test]
fn sleeping_cells_reconcile_their_sleep_windows() {
    // Workload A keeps every node busy each base epoch, so its sleep totals
    // are zero. A nodeid-restricted query lets the non-matching nodes sleep
    // between firings (§3.2.2), exercising the sleep credit/retraction
    // mirroring with non-trivial values.
    let workload = vec![WorkloadEvent::pose(
        0,
        parse_query(
            QueryId(1),
            "select light where 1 <= nodeid <= 3 epoch duration 2048",
        )
        .unwrap(),
    )];
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(24 * 2048),
        observe: Observe {
            timeseries: true,
            ..Observe::default()
        },
        ..ExperimentConfig::default()
    };
    let report = run_experiment(&config, &workload);
    check_reconciliation(Strategy::TwoTier, &report);
    assert!(
        report.metrics.snapshot().total_sleep_ms > 0.0,
        "the restricted cell actually slept"
    );
}

#[test]
fn faulted_run_reconciles_and_reports_convergence() {
    // A crash mid-run exercises the sleep-retraction path (pending sleep is
    // credited at plan time and retracted at the crash) — reconciliation
    // must still hold — and gives the convergence analysis a crash to work
    // on.
    let crash_ms = 8 * 2048;
    let report = timeseries_run(
        Strategy::TwoTier,
        FaultPlan::scripted(vec![(NodeId(8), crash_ms, None)]),
    );
    check_reconciliation(Strategy::TwoTier, &report);
    let series = report.timeseries.as_ref().unwrap();
    assert_eq!(series.crash_times_ms, vec![crash_ms]);

    // With the loosest tolerance every criterion holds, so the first
    // full window after the crash's window is the answer — the mechanics of
    // baseline-vs-after comparison, deterministically.
    let converged = series
        .convergence_after_ms(crash_ms, 1.0)
        .expect("tolerance 1.0 accepts the first post-crash window");
    assert!(converged > crash_ms);
    assert_eq!(
        series.convergence_ms(1.0),
        vec![(crash_ms, Some(converged))]
    );
    // An impossible tolerance never converges.
    assert_eq!(series.convergence_after_ms(crash_ms, -1.0), None);

    // A crash before any full baseline window yields no baseline.
    assert_eq!(series.convergence_after_ms(0, 0.5), None);
}

#[test]
fn timeseries_json_is_balanced_and_carries_every_section() {
    let report = timeseries_run(Strategy::TwoTier, FaultPlan::default());
    let json = report.timeseries.as_ref().unwrap().to_json();
    assert!(json.starts_with("{\"schema_version\":"));
    for key in [
        "\"crash_times_ms\":[",
        "\"nodes\":{",
        "\"windows\":[",
        "\"gini_tx_busy\":",
        "\"max_mean_tx_ratio\":",
        "\"energy_mj\":[",
        "\"queries\":{",
        "\"latency_buckets\":[",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert_eq!(json.matches('"').count() % 2, 0);
}
