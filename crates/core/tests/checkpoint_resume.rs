//! Checkpoint/restore bit-identity: a run that stops mid-flight, serializes
//! itself and resumes must be indistinguishable — byte for byte — from a
//! run that never stopped.
//!
//! Pinned three ways:
//!
//! * against the checked-in **golden metric snapshots** (4×4 and 32×32
//!   Workload-A cells): a resumed run must render the exact golden bytes;
//! * against the **straight run's full `RunReport`** (every counter,
//!   answer, completeness and timeseries field, via the debug rendering
//!   whose float formatting is shortest-roundtrip: equal strings ⇔ equal
//!   bits);
//! * against the **straight run's JSONL trace**: the prefix session's trace
//!   plus the resumed session's trace must equal the uninterrupted trace
//!   line for line.

use std::fmt::Write as _;
use ttmqo_core::{
    run_campaign_sequential, run_experiment, CampaignSpec, ExperimentConfig, RunSession, Strategy,
    WorkloadEvent,
};
use ttmqo_query::{parse_query, QueryId};
use ttmqo_sim::{
    FaultPlan, JsonLinesSink, MetricsSnapshot, NodeId, Observe, SimTime, SnapshotBuilder,
    SnapshotDocument, SnapshotError, TraceHandle, SECTION_RUNNER, SECTION_SIMULATOR,
};
use ttmqo_workloads::{workload_a, workload_b};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/workload_a_metrics.golden"
);

const GOLDEN_32X32_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/workload_a_32x32_metrics.golden"
);

/// Same canonical rendering as `golden_determinism.rs`: one `key=value`
/// line per counter, shortest-roundtrip floats.
fn render(strategy: Strategy, snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "[{strategy}]").unwrap();
    writeln!(
        w,
        "avg_transmission_time_pct={}",
        snap.avg_transmission_time_pct
    )
    .unwrap();
    writeln!(w, "total_tx_busy_ms={}", snap.total_tx_busy_ms).unwrap();
    writeln!(w, "total_rx_busy_ms={}", snap.total_rx_busy_ms).unwrap();
    writeln!(w, "total_sleep_ms={}", snap.total_sleep_ms).unwrap();
    for (kind, n) in &snap.tx_count {
        writeln!(w, "tx_count.{kind}={n}").unwrap();
    }
    for (kind, n) in &snap.tx_bytes {
        writeln!(w, "tx_bytes.{kind}={n}").unwrap();
    }
    writeln!(w, "retransmissions={}", snap.retransmissions).unwrap();
    writeln!(w, "collisions={}", snap.collisions).unwrap();
    writeln!(w, "losses={}", snap.losses).unwrap();
    writeln!(w, "gave_up={}", snap.gave_up).unwrap();
    writeln!(w, "samples={}", snap.samples).unwrap();
    writeln!(w, "horizon_ms={}", snap.horizon_ms).unwrap();
    out
}

/// Runs the cell checkpointing at `cut_ms`, restoring, and finishing.
fn resumed_report(
    config: &ExperimentConfig,
    workload: &[WorkloadEvent],
    cut_ms: u64,
) -> ttmqo_core::RunReport {
    let mut session = RunSession::new(config, workload);
    session.run_to(SimTime::from_ms(cut_ms));
    let bytes = session.checkpoint();
    drop(session);
    RunSession::restore(&bytes, config, workload)
        .expect("own checkpoint restores")
        .finish()
}

#[test]
fn resumed_4x4_run_matches_golden_snapshot() {
    // The golden-determinism cell, interrupted mid-run at a non-aligned
    // instant: the resumed rendering must equal the checked-in goldens that
    // pin the uninterrupted engine's behaviour.
    let mut rendered = String::new();
    for strategy in [Strategy::Baseline, Strategy::TwoTier] {
        let config = ExperimentConfig {
            strategy,
            grid_n: 4,
            duration: SimTime::from_ms(24 * 2048),
            ..ExperimentConfig::default()
        };
        let report = resumed_report(&config, &workload_a(), 11 * 2048 + 317);
        rendered.push_str(&render(strategy, &report.metrics.snapshot()));
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden snapshot checked in");
    assert_eq!(
        rendered, golden,
        "a resumed 4×4 run diverged from the golden uninterrupted cell"
    );
}

#[test]
fn resumed_32x32_run_matches_golden_snapshot() {
    let mut rendered = String::new();
    for strategy in [Strategy::Baseline, Strategy::TwoTier] {
        let config = ExperimentConfig {
            strategy,
            grid_n: 32,
            duration: SimTime::from_ms(8 * 2048),
            ..ExperimentConfig::default()
        };
        let report = resumed_report(&config, &workload_a(), 3 * 2048 + 777);
        rendered.push_str(&render(strategy, &report.metrics.snapshot()));
    }
    let golden = std::fs::read_to_string(GOLDEN_32X32_PATH).expect("golden snapshot checked in");
    assert_eq!(
        rendered, golden,
        "a resumed 32×32 run diverged from the golden uninterrupted cell"
    );
}

#[test]
fn resume_reproduces_the_full_report_across_checkpoint_times() {
    // Beyond the metric goldens: the ENTIRE report — answers, completeness,
    // optimizer stats, engine counters, timeseries — must agree, for
    // checkpoint instants covering the interesting boundaries: time zero,
    // an audit-grid multiple, a misaligned mid-epoch cut, and the final
    // instant.
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(16 * 2048),
        observe: Observe {
            timeseries: true,
            ..Observe::default()
        },
        ..ExperimentConfig::default()
    };
    let straight = format!("{:?}", run_experiment(&config, &workload_a()));
    for cut_ms in [0, 6 * 2048, 9 * 2048 + 123, 16 * 2048] {
        let resumed = format!("{:?}", resumed_report(&config, &workload_a(), cut_ms));
        assert_eq!(
            resumed, straight,
            "resume from t={cut_ms}ms diverged from the uninterrupted run"
        );
    }
}

#[test]
fn faulty_run_resume_is_bit_identical() {
    // Faults exercise every stateful subsystem the snapshot carries: the
    // engine's fault overlay and pending Fail/Recover events, the repair
    // monitor's audit bookkeeping, and the in-network failure detector.
    // Cut at an exact audit boundary (the trickiest instant: the straight
    // run audits it while passing through, so the stopping run must audit
    // it too before serializing) and at a misaligned one.
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(20 * 2048),
        faults: FaultPlan::scripted(vec![
            (NodeId(5), 4 * 2048, Some(14 * 2048)),
            (NodeId(10), 7 * 2048, None),
        ]),
        ..ExperimentConfig::default()
    };
    let straight = format!("{:?}", run_experiment(&config, &workload_a()));
    for cut_ms in [8 * 2048, 9 * 2048 + 555] {
        let resumed = format!("{:?}", resumed_report(&config, &workload_a(), cut_ms));
        assert_eq!(
            resumed, straight,
            "faulty resume from t={cut_ms}ms diverged from the uninterrupted run"
        );
    }
}

#[test]
fn resumed_trace_continues_the_straight_trace_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("ttmqo-ckpt-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(12 * 2048),
        faults: FaultPlan::scripted(vec![(NodeId(6), 3 * 2048, None)]),
        ..ExperimentConfig::default()
    };
    // Timeseries rides along: the window recorder comes back inside the
    // snapshot, the sink is new, and attaching after the restore has to put
    // the restored windows and the new sink in one box — the report compared
    // below carries the series.
    let with_trace = |path: &std::path::Path| ExperimentConfig {
        observe: Observe {
            trace: TraceHandle::new(JsonLinesSink::create(path).unwrap()),
            timeseries: true,
            ..Observe::default()
        },
        ..base.clone()
    };

    // Uninterrupted traced run.
    let straight_path = dir.join("straight.jsonl");
    let config = with_trace(&straight_path);
    let straight = format!("{:?}", run_experiment(&config, &workload_a()));
    config.observe.trace.flush();

    // Prefix run to the cut, then a resumed run with a fresh sink.
    let prefix_path = dir.join("prefix.jsonl");
    let config = with_trace(&prefix_path);
    let mut session = RunSession::new(&config, &workload_a());
    session.run_to(SimTime::from_ms(5 * 2048 + 200));
    let bytes = session.checkpoint();
    drop(session);
    config.observe.trace.flush();

    let resumed_path = dir.join("resumed.jsonl");
    let config = with_trace(&resumed_path);
    let resumed = format!(
        "{:?}",
        RunSession::restore(&bytes, &config, &workload_a())
            .expect("own checkpoint restores")
            .finish()
    );
    config.observe.trace.flush();
    assert_eq!(resumed, straight, "resumed report diverged");

    let read = |p: &std::path::Path| std::fs::read_to_string(p).unwrap();
    let straight_trace = read(&straight_path);
    let prefix_trace = read(&prefix_path);
    let resumed_trace = read(&resumed_path);
    // Every sink writes one header line at creation; the resumed file's
    // header is dropped when splicing the two traces together.
    let resumed_events = resumed_trace
        .split_once('\n')
        .map(|(_, rest)| rest)
        .unwrap_or("");
    let spliced = format!("{prefix_trace}{resumed_events}");
    assert_eq!(
        spliced, straight_trace,
        "prefix + resumed trace is not the uninterrupted trace"
    );
    assert!(
        prefix_trace.lines().count() > 1 && resumed_trace.lines().count() > 1,
        "both trace halves recorded events"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fork_replays_divergent_fault_plans_from_one_checkpoint() {
    // The fork primitive: restore the same snapshot N times, hand each
    // session a different fault plan from the restore point on, and the
    // futures diverge while the shared past stays fixed. Forking with the
    // plan unchanged must stay on the original trajectory.
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(20 * 2048),
        ..ExperimentConfig::default()
    };
    let straight = format!("{:?}", run_experiment(&config, &workload_a()));
    let mut session = RunSession::new(&config, &workload_a());
    session.run_to(SimTime::from_ms(6 * 2048));
    let bytes = session.checkpoint();

    let unchanged = RunSession::restore(&bytes, &config, &workload_a())
        .unwrap()
        .finish();
    assert_eq!(format!("{unchanged:?}"), straight);

    let mut crashed = RunSession::restore(&bytes, &config, &workload_a()).unwrap();
    crashed.replace_fault_plan(&FaultPlan::scripted(vec![(NodeId(3), 9 * 2048, None)]));
    let crashed = crashed.finish();
    assert_ne!(
        format!("{crashed:?}"),
        straight,
        "a crash injected after the fork must change the outcome"
    );
    // The pre-fork past is shared: answers delivered before the fork point
    // are identical in both futures.
    let fork_ms = 6 * 2048;
    let unchanged_prefix: Vec<_> = unchanged
        .answers
        .iter()
        .flat_map(|(q, v)| v.iter().filter(|(e, _)| *e < fork_ms).map(move |a| (q, a)))
        .map(|(q, a)| format!("{q:?}:{a:?}"))
        .collect();
    let crashed_prefix: Vec<_> = crashed
        .answers
        .iter()
        .flat_map(|(q, v)| v.iter().filter(|(e, _)| *e < fork_ms).map(move |a| (q, a)))
        .map(|(q, a)| format!("{q:?}:{a:?}"))
        .collect();
    assert_eq!(unchanged_prefix, crashed_prefix);
}

#[test]
fn warm_started_campaign_is_bit_identical_to_cold() {
    // Cells sharing (strategy, grid, seed, fault) resume from one shared
    // prefix checkpoint; every record field except wall clock must match
    // the cold sweep exactly, across strategies WITH and WITHOUT each tier
    // and across a fault axis.
    let delay = |events: Vec<WorkloadEvent>, off: u64| -> Vec<WorkloadEvent> {
        events
            .into_iter()
            .map(|mut e| {
                e.at = SimTime::from_ms(e.at.as_ms() + off);
                e
            })
            .collect()
    };
    let base = ExperimentConfig {
        duration: SimTime::from_ms(12 * 2048),
        ..ExperimentConfig::default()
    };
    let spec = CampaignSpec::new(base)
        .strategies([Strategy::Baseline, Strategy::TwoTier])
        .grid_sizes([4])
        .fault_plan(
            "crash-one",
            FaultPlan::scripted(vec![(NodeId(8), 6 * 2048, None)]),
        )
        .workload("a", delay(workload_a(), 3 * 2048))
        .workload("b", delay(workload_b(), 4 * 2048));
    let cold = run_campaign_sequential(&spec);
    let warm = run_campaign_sequential(&spec.clone().warm_start());
    assert_eq!(cold.cells.len(), warm.cells.len());
    let strip = |line: &str| -> String {
        let start = line.find("\"wall_clock_ms\":").unwrap();
        let end = line[start..].find(',').unwrap() + start + 1;
        format!("{}{}", &line[..start], &line[end..])
    };
    for (c, w) in cold.to_jsonl().lines().zip(warm.to_jsonl().lines()) {
        assert_eq!(strip(c), strip(w), "warm cell diverged from cold cell");
    }

    // Workloads sharing a *live* common prefix: both run workload A from
    // t = 0, one poses an extra query later. The shared checkpoint now
    // contains real query traffic (poses, epoch firings, in-flight answers)
    // taken one millisecond before the diverging pose — still bit-identical.
    let mut extended = workload_a();
    extended.push(WorkloadEvent::pose(
        7 * 2048,
        ttmqo_query::parse_query(
            ttmqo_query::QueryId(90),
            "select temp where 0<=temp<=400 epoch duration 4096",
        )
        .unwrap(),
    ));
    let base = ExperimentConfig {
        duration: SimTime::from_ms(12 * 2048),
        ..ExperimentConfig::default()
    };
    let spec = CampaignSpec::new(base)
        .strategies([Strategy::Baseline, Strategy::TwoTier])
        .grid_sizes([4])
        .workload("base", workload_a())
        .workload("base+extra", extended);
    assert_eq!(
        spec.warm_prefix_time(),
        SimTime::from_ms(7 * 2048 - 1),
        "prefix must extend to just before the diverging pose"
    );
    let cold = run_campaign_sequential(&spec);
    let warm = run_campaign_sequential(&spec.clone().warm_start());
    assert_eq!(cold.cells.len(), warm.cells.len());
    for (c, w) in cold.to_jsonl().lines().zip(warm.to_jsonl().lines()) {
        assert_eq!(
            strip(c),
            strip(w),
            "live-prefix warm cell diverged from cold cell"
        );
    }
}

#[test]
fn checkpoint_strategy_mismatch_is_a_typed_error() {
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        duration: SimTime::from_ms(4 * 2048),
        ..ExperimentConfig::default()
    };
    let workload = vec![WorkloadEvent::pose(
        0,
        parse_query(QueryId(1), "select light epoch duration 2048").unwrap(),
    )];
    let mut session = RunSession::new(&config, &workload);
    session.run_to(SimTime::from_ms(2048));
    let bytes = session.checkpoint();
    let wrong = ExperimentConfig {
        strategy: Strategy::Baseline,
        ..config.clone()
    };
    let err =
        RunSession::restore(&bytes, &wrong, &workload).expect_err("strategy mismatch must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("two-tier") && msg.contains("baseline"),
        "error names both strategies: {msg}"
    );
    // And the error machinery never masks a valid restore.
    assert!(RunSession::restore(&bytes, &config, &workload).is_ok());

    // A document from before the query ledger kept its runner state under
    // tag 2, in a layout this reader must not guess at: it is refused as a
    // missing section, whatever the payload.
    let doc = SnapshotDocument::parse(&bytes).unwrap();
    let payload = |tag| {
        let mut section = doc.section(tag).unwrap();
        section.bytes(section.remaining()).unwrap()
    };
    let mut old = SnapshotBuilder::new();
    old.section(SECTION_SIMULATOR, payload(SECTION_SIMULATOR));
    old.section(2, payload(SECTION_RUNNER));
    let err = RunSession::restore(&old.finish(), &config, &workload)
        .expect_err("an old-layout document must fail");
    assert_eq!(
        err,
        SnapshotError::Corrupt(format!("missing section 0x{SECTION_RUNNER:02x}"))
    );
}
