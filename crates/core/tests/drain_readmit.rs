//! End-to-end drain/re-admit cycle: after every query departs, the
//! optimizer holds zero synthetics, every node's in-network tier holds zero
//! installed queries (and its epoch clock — a GCD over the empty set —
//! stays disarmed without panicking), and a fresh admission afterwards
//! brings the whole stack back to life.

use ttmqo_core::{
    run_experiment, ExperimentConfig, FieldKind, Strategy, TtmqoApp, TtmqoConfig, WorkloadAction,
    WorkloadEvent,
};
use ttmqo_query::{parse_query, Query, QueryId};
use ttmqo_sim::{NodeId, RadioParams, SimConfig, SimTime, Simulator, Topology, UniformField};
use ttmqo_tinydb::{Command, Output};
use ttmqo_workloads::workload_a;

fn q(id: u64, text: &str) -> Query {
    parse_query(QueryId(id), text).unwrap()
}

fn new_sim() -> Simulator<TtmqoApp> {
    Simulator::new(
        Topology::grid(4).unwrap(),
        RadioParams::lossless(),
        SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        Box::new(UniformField::new(17)),
        |_, _| TtmqoApp::new(TtmqoConfig::default()),
    )
}

fn answer_epochs_in(sim: &Simulator<TtmqoApp>, from_ms: u64, to_ms: u64) -> Vec<u64> {
    sim.outputs()
        .iter()
        .filter_map(|o| match &o.output {
            Output::Answer { epoch_ms, .. } if (*epoch_ms >= from_ms) && (*epoch_ms < to_ms) => {
                Some(*epoch_ms)
            }
            _ => None,
        })
        .collect()
}

/// In-network drain: aborting every query leaves every node with zero
/// installed queries and a silent network; a later pose re-installs and
/// data flows again.
#[test]
fn aborting_every_query_empties_every_node_then_readmission_recovers() {
    let mut sim = new_sim();
    sim.schedule_command(
        SimTime::ZERO,
        NodeId::BASE_STATION,
        Command::Pose(q(1, "select light epoch duration 2048")),
    );
    sim.schedule_command(
        SimTime::ZERO,
        NodeId::BASE_STATION,
        Command::Pose(q(2, "select temp where 0<=temp<=900 epoch duration 4096")),
    );
    sim.schedule_command(
        SimTime::from_ms(8 * 2048),
        NodeId::BASE_STATION,
        Command::Terminate(QueryId(1)),
    );
    sim.schedule_command(
        SimTime::from_ms(8 * 2048),
        NodeId::BASE_STATION,
        Command::Terminate(QueryId(2)),
    );
    sim.run_until(SimTime::from_ms(16 * 2048));

    assert!(
        !answer_epochs_in(&sim, 2 * 2048, 8 * 2048).is_empty(),
        "both queries answered while alive"
    );
    for node in 1..16u16 {
        assert_eq!(
            sim.node(NodeId(node)).installed_queries().count(),
            0,
            "node {node} still holds queries after the drain"
        );
    }
    // The drained network is silent: no answers for post-drain epochs (one
    // epoch of slack for the abort flood and straddling closes).
    assert!(
        answer_epochs_in(&sim, 10 * 2048, 16 * 2048).is_empty(),
        "drained network must not produce answers"
    );

    // Re-admission: a brand-new query brings the stack back.
    sim.schedule_command(
        SimTime::from_ms(16 * 2048),
        NodeId::BASE_STATION,
        Command::Pose(q(3, "select light epoch duration 2048")),
    );
    sim.run_until(SimTime::from_ms(26 * 2048));
    for node in 1..16u16 {
        assert_eq!(
            sim.node(NodeId(node)).installed_queries().count(),
            1,
            "node {node} must re-learn the re-admitted query"
        );
    }
    assert!(
        !answer_epochs_in(&sim, 18 * 2048, 26 * 2048).is_empty(),
        "re-admitted query must produce answers"
    );
}

/// A flooded query is one value: the base station wraps each posed query
/// once, and every flood frame and every node's table share that allocation.
#[test]
fn every_node_installs_the_one_copy_its_flood_carried() {
    let mut sim = new_sim();
    let workload = workload_a();
    for event in &workload {
        let WorkloadAction::Pose(query) = &event.action else {
            unreachable!("Workload A only poses");
        };
        let pose = Command::Pose(query.clone());
        sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, pose);
    }
    sim.run_until(SimTime::from_ms(2048));

    let installed = |n: u16| -> Vec<&Query> { sim.node(NodeId(n)).installed_queries().collect() };
    let posed = installed(0);
    assert_eq!(posed.len(), workload.len());
    for node in 1..16u16 {
        let mine = installed(node);
        assert_eq!(mine.len(), posed.len(), "node {node} missed a flood");
        for (theirs, mine) in posed.iter().zip(mine) {
            assert!(
                std::ptr::eq(*theirs, mine),
                "node {node} holds its own copy of query {:?}",
                mine.id()
            );
        }
    }
}

/// The same cycle through the full two-tier runner: a workload whose every
/// query terminates mid-run, then a second wave arrives after an idle gap.
/// Both waves must be answered and the optimizer must end at the live set.
#[test]
fn two_tier_runner_survives_full_drain_and_second_wave() {
    let drain_ms = 10 * 2048;
    let second_wave_ms = 16 * 2048;
    let workload = vec![
        WorkloadEvent::pose(
            0,
            q(1, "select light where 150<light<550 epoch duration 2048"),
        ),
        WorkloadEvent::pose(
            0,
            q(2, "select light where 100<light<600 epoch duration 2048"),
        ),
        WorkloadEvent::pose(0, q(3, "select max(temp) epoch duration 4096")),
        WorkloadEvent::terminate(drain_ms, QueryId(1)),
        WorkloadEvent::terminate(drain_ms, QueryId(2)),
        WorkloadEvent::terminate(drain_ms, QueryId(3)),
        WorkloadEvent::pose(second_wave_ms, q(4, "select temp epoch duration 2048")),
        WorkloadEvent::pose(
            second_wave_ms,
            q(
                5,
                "select min(light) where 0<=light<=800 epoch duration 4096",
            ),
        ),
    ];
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 3,
        duration: SimTime::from_ms(30 * 2048),
        radio: RadioParams::lossless(),
        sim: SimConfig {
            maintenance_interval_ms: Some(30_000),
            ..SimConfig::default()
        },
        field: FieldKind::Uniform,
        field_seed: 5,
        ..ExperimentConfig::default()
    };
    let report = run_experiment(&config, &workload);

    let stats = report.optimizer_stats.expect("two-tier has an optimizer");
    assert_eq!(stats.inserted, 5);
    assert_eq!(stats.terminated, 3);
    for id in 1..=3u64 {
        let answers = report
            .answers
            .get(&QueryId(id))
            .unwrap_or_else(|| panic!("first-wave query {id} unanswered"));
        assert!(!answers.is_empty());
        assert!(
            answers.iter().all(|(e, _)| *e < drain_ms),
            "query {id} must not be answered past its termination"
        );
    }
    for id in 4..=5u64 {
        let answers = report
            .answers
            .get(&QueryId(id))
            .unwrap_or_else(|| panic!("second-wave query {id} unanswered"));
        assert!(
            answers.iter().any(|(e, _)| *e >= second_wave_ms),
            "second-wave query {id} must be answered after the drain"
        );
    }
}
