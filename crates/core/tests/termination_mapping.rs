//! Answer-attribution tests around query termination.
//!
//! TinyDB labels an answer with its epoch's *start* time but only emits it at
//! the epoch's close (last level slot + 32 ms), so an epoch can straddle a
//! `Terminate`: the service in force at the epoch start still lists the user
//! query, yet the answer materializes after the user is gone. Those answers
//! must not be attributed — and on long workloads, where the query ledger
//! holds many short services, the lookup must stay exact.

use ttmqo_core::{run_experiment, ExperimentConfig, FieldKind, Strategy, WorkloadEvent};
use ttmqo_query::{parse_query, Query, QueryId};
use ttmqo_sim::{MsgKind, RadioParams, SimConfig, SimTime};

fn q(id: u64, text: &str) -> Query {
    parse_query(QueryId(id), text).unwrap()
}

fn config(strategy: Strategy, epochs: u64) -> ExperimentConfig {
    ExperimentConfig {
        strategy,
        grid_n: 3,
        duration: SimTime::from_ms(epochs * 2048),
        radio: RadioParams::lossless(),
        sim: SimConfig {
            maintenance_interval_ms: Some(30_000),
            ..SimConfig::default()
        },
        field: FieldKind::Uniform,
        field_seed: 99,
        ..ExperimentConfig::default()
    }
}

#[test]
fn terminating_mid_epoch_attributes_no_straddling_answer() {
    // Terminate 10 ms into the epoch that starts at 10·2048: the service at
    // the epoch start still covers the query, but its answer only closes
    // ~(levels+1)·64 + 32 ms after the start — after the termination — so it
    // must not be attributed. (Before arrival-time checking it was.)
    //
    // q2 is an *identical* query, so under the rewriting strategies q1's
    // termination is fully absorbed at the base station (Algorithm 2 frees
    // no demand): the shared synthetic query keeps running and its answer
    // for the straddled epoch really arrives — the misattribution is live,
    // not hypothetical. (A termination that aborts the in-network query
    // instead cancels the pending epoch close, so no straddling answer ever
    // materializes in the first place.)
    let straddled_epoch = 10 * 2048;
    let term = straddled_epoch + 10;
    for strategy in Strategy::ALL {
        let workload = vec![
            WorkloadEvent::pose(
                0,
                q(1, "select light where 150<light<550 epoch duration 2048"),
            ),
            WorkloadEvent::pose(
                0,
                q(2, "select light where 150<light<550 epoch duration 2048"),
            ),
            WorkloadEvent::terminate(term, QueryId(1)),
        ];
        let report = run_experiment(&config(strategy, 20), &workload);
        if strategy.uses_basestation_tier() {
            // The scenario exercises the straddle only if the termination
            // was really absorbed (shared query kept running).
            assert_eq!(
                report.optimizer_stats.unwrap().absorbed_terminations,
                1,
                "{strategy}: termination should be absorbed"
            );
        }
        let a1 = report.answers.get(&QueryId(1)).expect("q1 answered at all");
        assert!(!a1.is_empty(), "{strategy}: q1 has answers while alive");
        assert!(
            a1.iter().all(|(e, _)| *e < straddled_epoch),
            "{strategy}: q1 got an answer for an epoch whose result arrived \
             after its termination: epochs {:?}",
            a1.iter().map(|(e, _)| *e).collect::<Vec<_>>()
        );
        // The surviving query keeps receiving answers afterwards.
        let a2 = report.answers.get(&QueryId(2)).expect("q2 answered");
        assert!(
            a2.iter().any(|(e, _)| *e > straddled_epoch),
            "{strategy}: q2 must outlive q1"
        );
    }
}

#[test]
fn many_event_workload_maps_answers_only_inside_lifetimes() {
    // A workload with many pose/terminate events, some in same-millisecond
    // bursts, under every strategy (with and without Tier 1 re-mapping the
    // users): every attributed answer must land strictly inside its query's
    // [pose, terminate) window, and queries alive long enough must actually
    // be answered.
    let n = 24u64;
    let mut workload = Vec::new();
    let mut windows = Vec::new();
    for i in 0..n {
        // Staggered overlapping lifetimes; every third pose shares its
        // timestamp with the previous query's termination.
        let pose = i * 1024;
        let life = 8 * 2048 + (i % 5) * 2048;
        let term = pose + life;
        let (lo, hi) = (100 + (i % 7) * 50, 700 + (i % 4) * 50);
        workload.push(WorkloadEvent::pose(
            pose,
            q(
                i,
                &format!("select light where {lo}<light<{hi} epoch duration 2048"),
            ),
        ));
        workload.push(WorkloadEvent::terminate(term, QueryId(i)));
        windows.push((QueryId(i), pose, term));
    }
    let horizon = 40u64;
    for strategy in Strategy::ALL {
        let report = run_experiment(&config(strategy, horizon), &workload);
        let mut answered = 0usize;
        for (qid, pose, term) in &windows {
            let Some(answers) = report.answers.get(qid) else {
                continue;
            };
            answered += 1;
            for (epoch, _) in answers {
                assert!(
                    *epoch >= *pose && *epoch < *term,
                    "{strategy}: {qid} answered for epoch {epoch} outside \
                     its lifetime [{pose}, {term})"
                );
            }
        }
        assert!(
            answered >= 16,
            "{strategy}: only {answered}/{n} queries ever answered"
        );
    }
}

const LIGHT: &str = "select light epoch duration 2048";

/// 40 base epochs on an `n`×`n` grid under the default radio.
fn forty_epochs(strategy: Strategy, grid_n: usize) -> ExperimentConfig {
    ExperimentConfig {
        strategy,
        grid_n,
        duration: SimTime::from_ms(40 * 2048),
        ..ExperimentConfig::default()
    }
}

/// User 1 posed at 0 ms and terminated at 10 240 ms, then user `second`
/// posed at 20 480 ms, all three asking for `LIGHT`.
fn pose_terminate_pose(second: u64) -> Vec<WorkloadEvent> {
    vec![
        WorkloadEvent::pose(0, q(1, LIGHT)),
        WorkloadEvent::terminate(10_240, QueryId(1)),
        WorkloadEvent::pose(20_480, q(second, LIGHT)),
    ]
}

#[test]
fn a_workload_that_poses_an_id_twice_is_rejected_under_every_strategy() {
    // A user id names one life. Posed again after its termination, Baseline
    // answered the second life in 0 of 29 expected epochs (every node had
    // already seen the id's flood), and the rewriting strategies listed the
    // two lives' 4 + 29 answers under one id.
    let workload = pose_terminate_pose(1);
    for strategy in Strategy::ALL {
        let config = forty_epochs(strategy, 4);
        let refused = std::panic::catch_unwind(|| run_experiment(&config, &workload));
        let message = refused.expect_err("a re-posed id was accepted");
        let message = message.downcast_ref::<String>().map(String::as_str);
        let want = format!("the workload poses {} twice", QueryId(1));
        assert_eq!(message, Some(want.as_str()), "{strategy}");
    }
}

#[test]
fn a_pose_right_after_a_lost_abort_flood_goes_unanswered_in_network() {
    // A pinned deviation, for the flood fix (ROADMAP.md, the query that
    // never arrives) to flip. On the 4×4 grid under the in-network tier, the
    // abort flood for user 1 and the pose flood for user 3 each end at the
    // base station's own frame: 1 `QueryAbort` and 16 + 1 `QueryPropagation`
    // frames go out. User 1 keeps running in the network, so the base
    // station drops its rows as late, and user 3 is never answered.
    let workload = pose_terminate_pose(3);
    for strategy in [Strategy::InNetOnly, Strategy::TwoTier] {
        let report = run_experiment(&forty_epochs(strategy, 4), &workload);
        let third = &report.completeness.per_query[&QueryId(3)];
        assert_eq!(
            (third.answered_epochs, third.expected_epochs),
            (0, 29),
            "{strategy}"
        );
        if strategy == Strategy::InNetOnly {
            let metrics = &report.metrics;
            assert_eq!(metrics.tx_count(MsgKind::QueryAbort), 1);
            assert_eq!(metrics.tx_count(MsgKind::QueryPropagation), 17);
            assert_eq!(metrics.late_rows(), 524);
        }
    }
    // Posed alone, or on the 8×8 grid, user 3 is answered every epoch.
    let alone = [WorkloadEvent::pose(20_480, q(3, LIGHT))];
    for (grid_n, workload) in [(4, &alone[..]), (8, &workload[..])] {
        for strategy in [Strategy::InNetOnly, Strategy::TwoTier] {
            let report = run_experiment(&forty_epochs(strategy, grid_n), workload);
            let third = &report.completeness.per_query[&QueryId(3)];
            let got = (third.answered_epochs, third.expected_epochs);
            assert_eq!(got, (29, 29), "{strategy} on {grid_n}×{grid_n}");
        }
    }
}
