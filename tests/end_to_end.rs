//! Workspace-level integration tests: the full pipeline from query text to
//! delivered answers, across every strategy, exercised through the umbrella
//! crate exactly as a downstream user would.

use ttmqo::core::{
    run_campaign_sequential, run_experiment, CampaignSpec, ExperimentConfig, FieldKind, Strategy,
    WorkloadEvent,
};
use ttmqo::query::{parse_query, AggOp, Attribute, EpochAnswer, QueryId};
use ttmqo::sim::json;
use ttmqo::sim::{Observe, RadioParams, SimConfig, SimTime};
use ttmqo::workloads::{
    random_workload, selectivity_workload, workload_a, workload_b, workload_c,
    RandomWorkloadParams, SelectivityWorkloadParams,
};

fn quiet_config(strategy: Strategy, grid_n: usize, epochs: u64) -> ExperimentConfig {
    ExperimentConfig {
        strategy,
        grid_n,
        duration: SimTime::from_ms(epochs * 2048),
        radio: RadioParams::lossless(),
        sim: SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        ..ExperimentConfig::default()
    }
}

/// Per user query of `events`: `(posed ms, terminated ms or `u64::MAX`,
/// epoch ms)`.
fn lifetimes(events: &[WorkloadEvent]) -> std::collections::BTreeMap<QueryId, (u64, u64, u64)> {
    let mut lives = std::collections::BTreeMap::new();
    for e in events {
        match &e.action {
            ttmqo::core::WorkloadAction::Pose(q) => {
                lives.insert(q.id(), (e.at.as_ms(), u64::MAX, q.epoch().as_ms()));
            }
            ttmqo::core::WorkloadAction::Terminate(qid) => {
                if let Some(life) = lives.get_mut(qid) {
                    life.1 = e.at.as_ms();
                }
            }
        }
    }
    lives
}

#[test]
fn paper_workloads_all_strategies_complete_and_answer() {
    for (name, workload) in [
        ("A", workload_a()),
        ("B", workload_b()),
        ("C", workload_c()),
    ] {
        for strategy in Strategy::ALL {
            let report = run_experiment(&quiet_config(strategy, 4, 30), &workload);
            // Every one of the 8 user queries must receive answers.
            for i in 0..8u64 {
                let answers = report
                    .answers
                    .get(&QueryId(i))
                    .unwrap_or_else(|| panic!("{name}/{strategy}: q{i} unanswered"));
                assert!(
                    answers.len() >= 3,
                    "{name}/{strategy}: q{i} got only {} epochs",
                    answers.len()
                );
            }
            assert!(report.avg_transmission_time_pct() > 0.0);
        }
    }
}

#[test]
fn two_tier_beats_baseline_on_every_paper_workload() {
    for (name, workload) in [
        ("A", workload_a()),
        ("B", workload_b()),
        ("C", workload_c()),
    ] {
        for grid_n in [4usize, 8] {
            let base = run_experiment(&quiet_config(Strategy::Baseline, grid_n, 48), &workload);
            let two = run_experiment(&quiet_config(Strategy::TwoTier, grid_n, 48), &workload);
            assert!(
                two.avg_transmission_time_pct() < base.avg_transmission_time_pct(),
                "{name}/{}-nodes: two-tier {:.4} !< baseline {:.4}",
                grid_n * grid_n,
                two.avg_transmission_time_pct(),
                base.avg_transmission_time_pct()
            );
        }
    }
}

#[test]
fn selectivity_one_acquisition_answers_are_identical_rows() {
    // 8 identical full-selectivity acquisition queries: every query's answer
    // at a shared epoch must be identical across queries and strategies.
    let workload = selectivity_workload(&SelectivityWorkloadParams {
        selectivity: 1.0,
        ..SelectivityWorkloadParams::default()
    });
    let report = run_experiment(&quiet_config(Strategy::TwoTier, 4, 16), &workload);
    let reference = &report.answers[&QueryId(0)];
    assert!(!reference.is_empty());
    for i in 1..8u64 {
        assert_eq!(
            &report.answers[&QueryId(i)],
            reference,
            "q{i} must see exactly the same rows"
        );
    }
    // Full selectivity: all 15 sensing nodes appear in steady-state epochs.
    let steady: Vec<_> = reference.iter().filter(|(e, _)| *e >= 3 * 2048).collect();
    for (epoch, answer) in steady {
        let EpochAnswer::Rows(rows) = answer else {
            panic!("expected rows")
        };
        assert_eq!(rows.len(), 15, "epoch {epoch}: all nodes qualify");
    }
}

#[test]
fn random_workload_runs_end_to_end_under_two_tier() {
    // A dynamic workload with arrivals and departures over ~25 simulated
    // minutes; checks the pipeline never wedges and queries that lived long
    // enough got answers.
    let events = random_workload(&RandomWorkloadParams {
        n_queries: 30,
        target_concurrency: 6.0,
        mean_arrival_ms: 30_000.0,
        nodeid_max: 15.0,
        seed: 77,
        ..RandomWorkloadParams::default()
    });
    let end_ms = ttmqo::workloads::workload_end_ms(&events);
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(end_ms + 8 * 2048),
        radio: RadioParams::lossless(),
        ..ExperimentConfig::default()
    };
    let report = run_experiment(&config, &events);

    // Queries alive for at least 3 of their epochs must have answers.
    let mut answered = 0;
    let mut expected = 0;
    for (qid, (start, end, epoch)) in &lifetimes(&events) {
        if end.saturating_sub(*start) > 4 * epoch {
            expected += 1;
            if report.answers.get(qid).is_some_and(|a| !a.is_empty()) {
                answered += 1;
            }
        }
    }
    assert!(expected > 5, "workload too short to be meaningful");
    assert_eq!(
        answered, expected,
        "all sufficiently-lived queries answered"
    );
}

#[test]
fn correlated_field_preserves_cross_strategy_equivalence() {
    let workload = vec![
        WorkloadEvent::pose(
            0,
            parse_query(
                QueryId(1),
                "select light, temp where 300<=light<=900 epoch duration 2048",
            )
            .unwrap(),
        ),
        WorkloadEvent::pose(
            0,
            parse_query(
                QueryId(2),
                "select max(temp) where 300<=light<=900 epoch duration 4096",
            )
            .unwrap(),
        ),
    ];
    let mut config = quiet_config(Strategy::Baseline, 4, 20);
    config.field = FieldKind::Correlated;
    let base = run_experiment(&config, &workload);
    config.strategy = Strategy::TwoTier;
    let two = run_experiment(&config, &workload);

    let window = |answers: &[(u64, EpochAnswer)]| {
        answers
            .iter()
            .filter(|(e, _)| (3 * 2048..16 * 2048).contains(e))
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(
        window(&base.answers[&QueryId(1)]),
        window(&two.answers[&QueryId(1)]),
        "acquisition answers must match under the correlated field"
    );
    assert_eq!(
        window(&base.answers[&QueryId(2)]),
        window(&two.answers[&QueryId(2)]),
        "aggregation answers must match under the correlated field"
    );
}

#[test]
fn aggregates_of_folded_queries_match_direct_computation() {
    // MAX over the acquisition stream must equal the max over the rows the
    // acquisition query itself reports.
    let workload = vec![
        WorkloadEvent::pose(
            0,
            parse_query(QueryId(1), "select light epoch duration 2048").unwrap(),
        ),
        WorkloadEvent::pose(
            0,
            parse_query(QueryId(2), "select max(light) epoch duration 2048").unwrap(),
        ),
    ];
    let report = run_experiment(&quiet_config(Strategy::TwoTier, 3, 16), &workload);
    let rows_by_epoch: std::collections::BTreeMap<u64, f64> = report.answers[&QueryId(1)]
        .iter()
        .filter_map(|(e, a)| match a {
            EpochAnswer::Rows(rows) if !rows.is_empty() => Some((
                *e,
                rows.iter()
                    .filter_map(|r| r.readings.get(Attribute::Light))
                    .fold(f64::NEG_INFINITY, f64::max),
            )),
            _ => None,
        })
        .collect();
    let mut checked = 0;
    for (e, a) in &report.answers[&QueryId(2)] {
        if let EpochAnswer::Aggregates(vals) = a {
            if let Some(v) = vals.iter().find(|v| v.op == AggOp::Max) {
                if let Some(direct) = rows_by_epoch.get(e) {
                    assert_eq!(v.value, *direct, "epoch {e}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 5, "only {checked} epochs verified");
}

#[test]
fn lossy_radio_still_converges_to_useful_answers() {
    // 10% random loss with retransmission: answers may occasionally miss a
    // row, but the pipeline must keep delivering epoch after epoch.
    let workload = vec![WorkloadEvent::pose(
        0,
        parse_query(QueryId(1), "select light epoch duration 2048").unwrap(),
    )];
    let mut config = quiet_config(Strategy::TwoTier, 4, 40);
    config.radio = RadioParams {
        loss_rate: 0.1,
        max_retries: 3,
        ..RadioParams::default()
    };
    let report = run_experiment(&config, &workload);
    let answers = &report.answers[&QueryId(1)];
    assert!(answers.len() >= 35, "got {} epochs", answers.len());
    assert!(
        report.metrics.retransmissions() > 0,
        "loss must trigger retries"
    );
    // Most epochs should still see most of the 15 nodes.
    let total_rows: usize = answers.iter().map(|(_, a)| a.len()).sum();
    assert!(
        total_rows as f64 / answers.len() as f64 > 12.0,
        "too many rows lost: {:.1}/epoch",
        total_rows as f64 / answers.len() as f64
    );
}

#[test]
fn innet_only_8x8_cell_is_pinned() {
    // The strategy with the most multi-parent split assignments, on the
    // default (lossy, colliding) radio: any drift in Tier-2 parent election,
    // tie-breaking or frame sizing moves these numbers. Constants recorded
    // at PR 11 (commit bee7ab9), before the dense DAG state replaced the
    // hash-map/`BTreeSet` one.
    let config = ExperimentConfig {
        strategy: Strategy::InNetOnly,
        grid_n: 8,
        duration: SimTime::from_ms(24 * 2048),
        ..ExperimentConfig::default()
    };
    let report = run_experiment(&config, &workload_a());
    let snap = report.metrics.snapshot();
    assert_eq!(report.engine.frames_total, 5965);
    assert_eq!(snap.total_tx_busy_ms.to_bits(), 0x40e6_e860_0000_0006);
    let answer_counts: Vec<(u64, usize)> =
        report.answers.iter().map(|(q, a)| (q.0, a.len())).collect();
    assert_eq!(
        answer_counts,
        [
            (0, 23),
            (1, 11),
            (2, 11),
            (3, 5),
            (4, 23),
            (5, 5),
            (6, 11),
            (7, 5)
        ]
    );
    let row_counts: Vec<(u64, usize)> = report
        .answers
        .iter()
        .map(|(q, a)| (q.0, a.iter().map(|(_, answer)| answer.len()).sum()))
        .collect();
    assert_eq!(
        row_counts,
        [
            (0, 802),
            (1, 285),
            (2, 284),
            (3, 147),
            (4, 327),
            (5, 85),
            (6, 11),
            (7, 5)
        ]
    );

    // The same cell through the JSON layer: a campaign renders it as a
    // `CellRecord`, the one reader parses it back, and the leaves are the
    // constants pinned above — so writer or reader drift fails here too.
    let spec = CampaignSpec::new(config)
        .strategies([Strategy::InNetOnly])
        .grid_sizes([8])
        .workload("A", workload_a());
    let json = run_campaign_sequential(&spec).cells[0].to_json();
    let cell = json::parse(&json).expect("a cell record is valid JSON");
    let leaf = |path: &[&str]| {
        let found = path.iter().try_fold(&cell, |value, key| value.get(key));
        found.unwrap_or_else(|| panic!("{path:?} missing from {json}"))
    };
    assert_eq!(
        leaf(&["metrics", "total_tx_busy_ms"])
            .as_f64()
            .map(f64::to_bits),
        Some(0x40e6_e860_0000_0006)
    );
    assert_eq!(leaf(&["engine", "frames_total"]).as_u64(), Some(5965));
    let answers: usize = answer_counts.iter().map(|(_, n)| n).sum();
    assert_eq!(leaf(&["answer_epochs"]).as_u64(), Some(answers as u64));
    assert_eq!(leaf(&["strategy"]).as_str(), Some("in-net-only"));
}

#[test]
fn audited_churn_cell_is_pinned_per_strategy() {
    // Forty queries arriving and leaving on a 4×4 grid: the traffic that
    // exercises the base station's answer attribution (re-mappings, absorbed
    // terminations, same-synthetic sharing) rather than the radio. The
    // constants were generated at commit 88a8754, before the per-event
    // mapping timeline became the query ledger.
    let events = random_workload(&RandomWorkloadParams {
        n_queries: 40,
        target_concurrency: 6.0,
        mean_arrival_ms: 20_000.0,
        nodeid_max: 15.0,
        seed: 4040,
        ..RandomWorkloadParams::default()
    });
    let end_ms = ttmqo::workloads::workload_end_ms(&events);
    let lives = lifetimes(&events);
    let mut measured = Vec::new();
    for strategy in Strategy::ALL {
        let config = ExperimentConfig {
            strategy,
            grid_n: 4,
            duration: SimTime::from_ms(end_ms + 4 * 2048),
            radio: RadioParams::lossless(),
            observe: Observe {
                audit: true,
                ..Observe::default()
            },
            ..ExperimentConfig::default()
        };
        let report = run_experiment(&config, &events);
        let audit = report.audit.as_ref().expect("audit was requested");
        assert!(audit.is_clean(), "{strategy}: {audit:?}");
        for (qid, answers) in &report.answers {
            let (pose, term, _) = lives[qid];
            for (epoch, _) in answers {
                assert!(
                    (pose..term).contains(epoch),
                    "{strategy}: {qid} answered for epoch {epoch} outside [{pose}, {term})"
                );
            }
        }
        let epochs: usize = report.answers.values().map(Vec::len).sum();
        let rows: usize = report
            .answers
            .values()
            .flatten()
            .map(|(_, answer)| answer.len())
            .sum();
        measured.push((strategy, report.answers.len(), epochs, rows));
    }
    // (strategy, user queries answered, answer epochs, result rows).
    assert_eq!(
        measured,
        [
            (Strategy::Baseline, 35, 354, 2222),
            (Strategy::BsOnly, 35, 354, 2660),
            (Strategy::InNetOnly, 35, 354, 2194),
            (Strategy::TwoTier, 35, 354, 2630),
        ]
    );
}
