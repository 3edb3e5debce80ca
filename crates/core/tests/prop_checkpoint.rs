//! Property test for the one way to be at time `t`: replay. For *random*
//! workloads, strategies, fault plans and one to three arbitrary stop
//! instants (millisecond-granular, not epoch-aligned, possibly repeated),
//! `run_to(t₁); …; finish()` must reproduce the uninterrupted run's full
//! `RunReport` exactly (the debug rendering uses shortest-roundtrip float
//! formatting, so string equality is bit equality). This file used to hold
//! the same property for checkpoint/restore; slicing is what survives of it,
//! and what the repo benchmark relies on when it cuts each single run into
//! 32 `run_to` slices.
//!
//! Each case runs eight short 4×4 simulations; the case count is kept small
//! accordingly (override with `PROPTEST_CASES`).

use proptest::prelude::*;
// `ttmqo_core::Strategy` (the tier enum) shadows the glob-imported proptest
// `Strategy` trait, so re-import the trait anonymously for `.prop_map`.
use proptest::strategy::Strategy as _;
use std::sync::{Arc, Mutex};
use ttmqo_core::{run_experiment, ExperimentConfig, RunSession, Strategy, WorkloadEvent};
use ttmqo_sim::{FaultPlan, NodeId, Observe, RingSink, SimTime, TraceHandle};
use ttmqo_workloads::{churn_workload, workload_a, workload_b, ChurnWorkloadParams};

const DURATION_MS: u64 = 10 * 2048;

fn workload(ix: usize) -> Vec<WorkloadEvent> {
    match ix {
        0 => workload_a(),
        1 => workload_b(),
        _ => churn_workload(&ChurnWorkloadParams {
            n_queries: 12,
            n_templates: 6,
            target_concurrency: 4.0,
            seed: 0xBEEF,
            ..ChurnWorkloadParams::default()
        }),
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(12))]

    /// run_to(t₁) ∘ … ∘ run_to(tₖ) ∘ finish == finish, for arbitrary tᵢ,
    /// under every strategy.
    #[test]
    fn stopping_at_any_instants_reproduces_the_straight_run(
        cuts_ms in proptest::collection::vec(0u64..=DURATION_MS, 1..=3),
        workload_ix in 0usize..3,
        faulty in (0u8..2).prop_map(|b| b == 1),
    ) {
        let events = workload(workload_ix);
        let mut cuts_ms = cuts_ms;
        cuts_ms.sort_unstable();
        for strategy in Strategy::ALL {
            let config = ExperimentConfig {
                strategy,
                grid_n: 4,
                duration: SimTime::from_ms(DURATION_MS),
                faults: if faulty {
                    FaultPlan::scripted(vec![(NodeId(7), 3 * 2048, Some(7 * 2048))])
                } else {
                    FaultPlan::default()
                },
                ..ExperimentConfig::default()
            };
            let straight = format!("{:?}", run_experiment(&config, &events));
            let mut session = RunSession::new(&config, &events);
            for &t in &cuts_ms {
                session.run_to(SimTime::from_ms(t));
            }
            prop_assert_eq!(
                format!("{:?}", session.finish()),
                straight,
                "stopping at {:?} ms ({}, workload {}, faulty={}) diverged",
                cuts_ms,
                strategy,
                workload_ix,
                faulty
            );
        }
    }
}

/// The trace text with its `answer-mapped` lines split out and sorted: a
/// stop drains the base station's outputs early, so it may move those lines
/// (DESIGN.md §8) but nothing else.
fn split_answers(ring: &Mutex<RingSink>) -> (Vec<String>, Vec<String>) {
    let text = ring.lock().unwrap().to_jsonl();
    let (mut answers, rest): (Vec<String>, Vec<String>) = text
        .lines()
        .map(str::to_string)
        .partition(|line| line.contains("\"ev\":\"answer-mapped\""));
    answers.sort_unstable();
    (rest, answers)
}

/// The instants a random draw rarely hits: time zero, a base-epoch boundary
/// (where the straight run audits and the stopping run must audit too,
/// exactly once), a misaligned mid-epoch instant, the same instant twice,
/// and the run's end — calm and faulty, traced so that what happened on the
/// way is compared along with the whole report (answers, completeness,
/// optimizer stats, engine counters).
#[test]
fn stopping_at_boundary_instants_reproduces_the_straight_run() {
    const END_MS: u64 = 20 * 2048;
    let faulty = FaultPlan::scripted(vec![
        (NodeId(5), 4 * 2048, Some(14 * 2048)),
        (NodeId(10), 7 * 2048, None),
    ]);
    for faults in [FaultPlan::default(), faulty] {
        let traced = || {
            let ring = Arc::new(Mutex::new(RingSink::new()));
            let config = ExperimentConfig {
                strategy: Strategy::TwoTier,
                grid_n: 4,
                duration: SimTime::from_ms(END_MS),
                faults: faults.clone(),
                observe: Observe {
                    trace: TraceHandle::shared(ring.clone()),
                    ..Observe::default()
                },
                ..ExperimentConfig::default()
            };
            (config, ring)
        };
        let (config, ring) = traced();
        let straight = format!("{:?}", run_experiment(&config, &workload_a()));
        let straight_trace = split_answers(&ring);
        for cuts_ms in [
            &[0][..],
            &[8 * 2048],
            &[9 * 2048 + 555, 9 * 2048 + 555],
            &[END_MS],
            &[0, 6 * 2048, 9 * 2048 + 123, END_MS],
        ] {
            let (config, ring) = traced();
            let mut session = RunSession::new(&config, &workload_a());
            for &t in cuts_ms {
                session.run_to(SimTime::from_ms(t));
            }
            let faulty = !config.faults.is_empty();
            assert_eq!(
                format!("{:?}", session.finish()),
                straight,
                "stopping at {cuts_ms:?} ms (faulty={faulty}) diverged"
            );
            assert!(
                split_answers(&ring) == straight_trace,
                "stopping at {cuts_ms:?} ms (faulty={faulty}) changed the trace"
            );
        }
    }
}
