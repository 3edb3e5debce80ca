//! Fault-injection acceptance tests: self-healing routing plus base-station
//! repair must bring answer completeness back after node crashes, the whole
//! faulty run must be deterministic under a fixed seed, and the completeness
//! accounting must read 1.0 on a healthy lossless run. Two pinned deviations
//! show what self-healing does when a plan arms it on a run with no fault.

use std::sync::{Arc, Mutex};
use ttmqo_core::{run_experiment, ExperimentConfig, RunReport, Strategy, WorkloadEvent};
use ttmqo_query::{parse_query, EpochAnswer, Query, QueryId};
use ttmqo_sim::{
    trace_diff, FaultPlan, NodeId, Observe, RadioParams, RingSink, SimConfig, SimTime, TraceHandle,
    TraceSink,
};
use ttmqo_workloads::{workload_a, workload_c};

const EPOCH: u64 = 2048;

fn q(id: u64, text: &str) -> Query {
    parse_query(QueryId(id), text).unwrap()
}

fn quiet_sim() -> SimConfig {
    SimConfig {
        maintenance_interval_ms: None,
        ..SimConfig::default()
    }
}

/// Six scattered sensing nodes of the 8×8 grid (≈10% of its 63 non-base
/// nodes), none of them the base station's whole neighbourhood.
fn ten_percent_dead() -> Vec<NodeId> {
    [10u16, 19, 28, 37, 46, 55].map(NodeId).to_vec()
}

fn faulty_8x8_config(duration_epochs: u64) -> ExperimentConfig {
    ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 8,
        duration: SimTime::from_ms(duration_epochs * EPOCH),
        radio: RadioParams::lossless(),
        sim: quiet_sim(),
        faults: FaultPlan::scripted(
            ten_percent_dead()
                .into_iter()
                .map(|n| (n, 8 * EPOCH, None))
                .collect(),
        ),
        ..ExperimentConfig::default()
    }
}

fn run_faulty_8x8(duration_epochs: u64) -> RunReport {
    let workload = vec![WorkloadEvent::pose(
        0,
        q(1, "select light epoch duration 2048"),
    )];
    run_experiment(&faulty_8x8_config(duration_epochs), &workload)
}

#[test]
fn ten_percent_crashes_recover_to_ninety_percent_survivor_completeness() {
    let report = run_faulty_8x8(40);
    let answers = &report.answers[&QueryId(1)];
    let survivors = 63 - ten_percent_dead().len(); // 57

    // Tail window: well after the crashes (epoch 8) and the self-healing
    // re-election that follows. Each tail epoch must carry at least 90% of
    // the surviving nodes' rows.
    let tail: Vec<(u64, usize)> = answers
        .iter()
        .filter(|(e, _)| *e >= 28 * EPOCH)
        .map(|(e, a)| {
            let EpochAnswer::Rows(rows) = a else {
                panic!("acquisition query answers in rows")
            };
            (*e, rows.len())
        })
        .collect();
    assert!(tail.len() >= 8, "tail window has epochs: {tail:?}");
    let floor = (0.9 * survivors as f64).ceil() as usize;
    for (e, rows) in &tail {
        assert!(
            *rows >= floor,
            "epoch {e}: {rows} rows < {floor} (90% of {survivors} survivors); tail = {tail:?}"
        );
    }
    // No dead node contributes after its crash.
    let dead = ten_percent_dead();
    for (e, a) in answers.iter().filter(|(e, _)| *e >= 10 * EPOCH) {
        let EpochAnswer::Rows(rows) = a else {
            panic!("acquisition query answers in rows")
        };
        for row in rows {
            assert!(
                !dead.contains(&NodeId(row.node)),
                "epoch {e}: row from dead node {}",
                row.node
            );
        }
    }

    // The dead-parent detector re-routes the dead nodes' children: frames
    // orphaned while they do are dropped.
    assert!(report.metrics.orphaned_drops() > 0);

    // Completeness accounting reflects the outage-and-recovery shape:
    // expectations track survivors only, and the whole-run row ratio stays
    // high because the outage is short relative to the run.
    let qc = report.completeness.per_query[&QueryId(1)];
    assert!(qc.expected_epochs > 0 && qc.expected_rows > 0);
    assert!(
        qc.row_ratio() > 0.9,
        "whole-run row completeness {} too low: {qc:?}",
        qc.row_ratio()
    );
}

#[test]
fn faulty_run_is_deterministic_under_a_fixed_seed() {
    let a = run_faulty_8x8(24);
    let b = run_faulty_8x8(24);
    assert_eq!(a.metrics.snapshot(), b.metrics.snapshot());
    assert_eq!(a.answers, b.answers);
    assert_eq!(a.completeness, b.completeness);
    assert_eq!(a.optimizer_stats, b.optimizer_stats);
}

#[test]
fn base_station_repairs_a_query_whose_only_source_died() {
    // The sole node satisfying `nodeid = 15` crashes without recovery: its
    // synthetic query goes silent, the missing-result detector's streak
    // crosses the threshold, and the base station re-optimizes (re-floods
    // the query under a fresh synthetic id). The data cannot come back — the
    // node is dead — so this pins the detector/repair path itself.
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(30 * EPOCH),
        radio: RadioParams::lossless(),
        sim: quiet_sim(),
        faults: FaultPlan::scripted(vec![(NodeId(15), 6 * EPOCH, None)]),
        ..ExperimentConfig::default()
    };
    let workload = vec![WorkloadEvent::pose(
        0,
        q(1, "select light where nodeid = 15 epoch duration 2048"),
    )];
    let report = run_experiment(&config, &workload);

    assert!(
        report.completeness.repairs_triggered >= 1,
        "persistently missing results must trigger a Tier-1 re-optimization: {:?}",
        report.completeness
    );
    let stats = report.optimizer_stats.expect("rewriting strategy");
    assert!(stats.reoptimizations >= 1);
    // Expected epochs stop accruing once no statically matching node is
    // alive, so the accounting does not blame the network for a dead source.
    let qc = report.completeness.per_query[&QueryId(1)];
    assert!(
        qc.expected_epochs < 20,
        "expectations must stop at the crash: {qc:?}"
    );
}

#[test]
fn healthy_lossless_run_reports_full_completeness() {
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(16 * EPOCH),
        radio: RadioParams::lossless(),
        sim: quiet_sim(),
        ..ExperimentConfig::default()
    };
    let workload = vec![WorkloadEvent::pose(
        0,
        q(1, "select light epoch duration 2048"),
    )];
    let report = run_experiment(&config, &workload);
    let qc = report.completeness.per_query[&QueryId(1)];
    assert_eq!(qc.epoch_ratio(), 1.0, "{qc:?}");
    assert_eq!(qc.row_ratio(), 1.0, "{qc:?}");
    assert_eq!(report.completeness.repairs_triggered, 0);
    assert_eq!(report.metrics.orphaned_drops(), 0);
}

/// A cold run of `config` under `plan`, traced: the finished report and
/// the JSONL trace.
fn traced_run(
    config: &ExperimentConfig,
    workload: &[WorkloadEvent],
    plan: &FaultPlan,
) -> (RunReport, String) {
    let ring = Arc::new(Mutex::new(RingSink::new()));
    let traced = ExperimentConfig {
        faults: plan.clone(),
        observe: Observe {
            trace: TraceHandle::shared(ring.clone() as Arc<Mutex<dyn TraceSink>>),
            ..Observe::default()
        },
        ..config.clone()
    };
    let report = run_experiment(&traced, workload);
    let trace = ring.lock().unwrap().to_jsonl();
    (report, trace)
}

#[test]
fn cold_runs_under_two_plans_share_the_past_and_diverge_at_the_first_fault() {
    // A what-if run is a cold run built under its own plan. Runs are
    // deterministic, so the same plan gives the same future, and two runs
    // are byte-equal up to the first fault their plans disagree on. Both
    // plans are non-empty, so both runs arm the repair monitor and the
    // dead-parent detector at time zero: the "calm" plan's one crash lies
    // past the end of the run. (Against an empty plan the traces would part
    // at the first base epoch, where the armed monitor's audit drains the
    // base station's outputs and moves `answer-mapped` records earlier.)
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(20 * EPOCH),
        ..ExperimentConfig::default()
    };
    let workload = vec![
        WorkloadEvent::pose(0, q(1, "select light epoch duration 2048")),
        WorkloadEvent::pose(
            0,
            q(2, "select light where 100<light<300 epoch duration 4096"),
        ),
        WorkloadEvent::pose(0, q(3, "select max(temp) epoch duration 2048")),
    ];
    let crash_ms = 9 * EPOCH;
    let dead = NodeId(3);
    let crash = FaultPlan::scripted(vec![(dead, crash_ms, None)]);
    let after_the_end = FaultPlan::scripted(vec![(dead, 21 * EPOCH, None)]);

    let (calm, calm_trace) = traced_run(&config, &workload, &after_the_end);
    let (crashed, crashed_trace) = traced_run(&config, &workload, &crash);
    let (twin, twin_trace) = traced_run(&config, &workload, &crash);
    assert_eq!(
        format!("{crashed:?}"),
        format!("{twin:?}"),
        "same plan, same future"
    );
    assert_eq!(crashed_trace, twin_trace);

    // The first record the two runs disagree on is the crash itself, at
    // its scripted instant: everything before it is one shared history.
    let diff = trace_diff(&calm_trace, &crashed_trace, 0);
    let div = diff.divergence.expect("a crash must diverge from calm");
    let first = div.b.expect("the crashed trace does not end at the crash");
    assert_eq!(first.kind.as_deref(), Some("fault-crash"));
    assert_eq!(first.time_us, Some(crash_ms * 1000));
    assert_eq!(first.node, Some(u64::from(dead.0)));
    assert!(div.a.and_then(|r| r.time_us) >= Some(crash_ms * 1000));

    // After it the outcomes differ: the dead node's rows keep arriving in
    // the calm run and stop in the crashed one, whose completeness
    // expectations follow its plan.
    let rows_from_dead_after_crash = |report: &RunReport| {
        report.answers[&QueryId(1)]
            .iter()
            .filter(|(e, _)| *e > crash_ms)
            .filter(|(_, a)| match a {
                EpochAnswer::Rows(rows) => rows.iter().any(|r| NodeId(r.node) == dead),
                EpochAnswer::Aggregates(_) => false,
            })
            .count()
    };
    assert!(rows_from_dead_after_crash(&calm) >= 8);
    assert_eq!(rows_from_dead_after_crash(&crashed), 0);
    let expected = |report: &RunReport| report.completeness.per_query[&QueryId(1)].expected_rows;
    assert!(expected(&crashed) < expected(&calm));
}

/// A calm run on the default radio and the same run under a plan whose one
/// crash lies past its end: the crash changes nothing the engine does, but
/// a non-empty plan arms the repair monitor and the dead-parent detector.
fn calm_and_armed(strategy: Strategy, grid_n: usize, epochs: u64) -> [ExperimentConfig; 2] {
    let calm = ExperimentConfig {
        strategy,
        grid_n,
        duration: SimTime::from_ms(epochs * EPOCH),
        ..ExperimentConfig::default()
    };
    let crash = vec![(NodeId(1), calm.duration.as_ms() + 1, None)];
    let faults = FaultPlan::scripted(crash);
    [calm.clone(), ExperimentConfig { faults, ..calm }]
}

#[test]
fn a_calm_run_armed_by_a_past_end_crash_repairs_queries_that_lost_nothing() {
    // A pinned deviation, for the miss rule to flip: the repair monitor
    // counts every epoch without a non-empty answer as a miss, so a
    // selective query's truly empty epochs read as silence. On the
    // observatory's `disjoint` cells (TwoTier, 12 base epochs) the armed
    // monitor re-floods queries no node lost, which costs radio time and
    // answers. A fixed rule repairs nothing here.
    let disjoint = [
        WorkloadEvent::pose(
            0,
            q(1, "select light where 100<light<200 epoch duration 2048"),
        ),
        WorkloadEvent::pose(0, q(2, "select temp where 40<temp<60 epoch duration 2048")),
    ];
    // Calm, then armed: repairs, tx time %, answers, delivered rows.
    for (grid_n, pinned) in [
        (3, [(0, "0.1055", 22, 4), (3, "0.2719", 19, 3)]),
        (4, [(0, "0.1185", 22, 10), (2, "0.2076", 20, 8)]),
    ] {
        for (config, want) in calm_and_armed(Strategy::TwoTier, grid_n, 12)
            .iter()
            .zip(pinned)
        {
            let r = run_experiment(config, &disjoint);
            let tx = format!("{:.4}", r.metrics.avg_transmission_time_pct());
            let answers = r.answers.values().map(Vec::len).sum::<usize>();
            let got = (r.completeness.repairs_triggered, tx.as_str(), answers);
            assert_eq!(got, (want.0, want.1, want.2), "{grid_n}×{grid_n}");
            assert_eq!(r.completeness.delivered_rows(), want.3, "{grid_n}×{grid_n}");
        }
    }
}

#[test]
fn a_calm_run_armed_by_a_past_end_crash_orphans_a_live_node() {
    // A pinned deviation, for the parent-liveness rule to flip: the
    // dead-parent detector reads a few failed unicasts to a congested live
    // parent as a dead parent. On Fig. 3's 8×8 cells (96 base epochs) it
    // orphans one node in three of them when armed on a run with no fault.
    // A fixed rule orphans none.
    for (name, workload, strategy, armed_orphans) in [
        ("A", workload_a(), Strategy::InNetOnly, 1),
        ("A", workload_a(), Strategy::TwoTier, 0),
        ("C", workload_c(), Strategy::InNetOnly, 1),
        ("C", workload_c(), Strategy::TwoTier, 1),
    ] {
        let orphans = calm_and_armed(strategy, 8, 96).map(|config| {
            run_experiment(&config, &workload)
                .metrics
                .orphaned_node_count()
        });
        assert_eq!(orphans, [0, armed_orphans], "{name}/{strategy}");
    }
}
