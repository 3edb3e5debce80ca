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
use ttmqo_sim::{RadioParams, SimConfig, SimTime};

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
