//! Node failure and recovery: the paper leaves "node failures … inherent
//! with wireless sensor networks" to future work; this reproduction models
//! them. A crashed node loses all volatile state; on reboot it rejoins as a
//! relay immediately and re-learns query definitions from its neighbours
//! (QueryRequest/QueryShare) after overhearing traffic for unknown queries.

use ttmqo_core::{TtmqoApp, TtmqoConfig};
use ttmqo_query::{parse_query, Query, QueryId};
use ttmqo_sim::{NodeId, RadioParams, SimConfig, SimTime, Simulator, Topology, UniformField};
use ttmqo_tinydb::{Command, Output};

fn new_sim() -> Simulator<TtmqoApp> {
    Simulator::new(
        Topology::grid(4).unwrap(),
        RadioParams::lossless(),
        SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        Box::new(UniformField::new(31)),
        |_, _| TtmqoApp::new(TtmqoConfig::default()),
    )
}

fn query() -> Query {
    parse_query(QueryId(1), "select light epoch duration 2048").unwrap()
}

fn answers_in(sim: &Simulator<TtmqoApp>, from_ms: u64, to_ms: u64) -> Vec<(u64, usize)> {
    sim.outputs()
        .iter()
        .filter_map(|o| match &o.output {
            Output::Answer {
                epoch_ms, answer, ..
            } if (*epoch_ms >= from_ms) && (*epoch_ms < to_ms) => Some((*epoch_ms, answer.len())),
            _ => None,
        })
        .collect()
}

#[test]
fn failed_node_vanishes_from_answers() {
    let mut sim = new_sim();
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(query()));
    // Node 15 (a corner leaf) crashes at epoch 5.
    sim.schedule_failure(SimTime::from_ms(5 * 2048), NodeId(15));
    sim.run_until(SimTime::from_ms(20 * 2048));

    assert!(sim.is_failed(NodeId(15)));
    let before = answers_in(&sim, 2 * 2048, 5 * 2048);
    let after = answers_in(&sim, 6 * 2048, 20 * 2048);
    assert!(!before.is_empty() && !after.is_empty());
    // Full-selectivity query: 15 rows while everyone is alive, 14 after.
    assert!(before.iter().all(|&(_, n)| n == 15), "{before:?}");
    assert!(after.iter().all(|&(_, n)| n == 14), "{after:?}");
}

#[test]
fn recovered_node_relearns_the_query_and_contributes_again() {
    let mut sim = new_sim();
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(query()));
    sim.schedule_failure(SimTime::from_ms(5 * 2048), NodeId(15));
    sim.schedule_recovery(SimTime::from_ms(10 * 2048), NodeId(15));
    sim.run_until(SimTime::from_ms(30 * 2048));

    assert!(!sim.is_failed(NodeId(15)));
    // The rebooted node lost the query; it must have re-learned it.
    assert_eq!(
        sim.node(NodeId(15)).installed_queries().count(),
        1,
        "query definition recovered from neighbours"
    );
    // And its data flows again: the tail of the run is back to 15 rows.
    let tail = answers_in(&sim, 25 * 2048, 30 * 2048);
    assert!(!tail.is_empty());
    assert!(tail.iter().all(|&(_, n)| n == 15), "{tail:?}");
}

#[test]
fn failed_relay_loses_descendants_until_recovery() {
    // Crash an interior level-1 node; its descendants' unicasts to it are
    // lost (retried, then dropped) until the DAG steers around it or the
    // node recovers. With dynamic parents, coverage returns quickly.
    let mut sim = new_sim();
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(query()));
    sim.schedule_failure(SimTime::from_ms(5 * 2048), NodeId(1));
    sim.schedule_recovery(SimTime::from_ms(12 * 2048), NodeId(1));
    sim.run_until(SimTime::from_ms(30 * 2048));

    // After recovery, answers must return to full coverage.
    let tail = answers_in(&sim, 24 * 2048, 30 * 2048);
    assert!(!tail.is_empty());
    assert!(
        tail.iter().all(|&(_, n)| n == 15),
        "full coverage must resume after the relay recovers: {tail:?}"
    );
    // During the outage some rows may be missing, but the epoch stream never
    // stops entirely.
    let outage = answers_in(&sim, 6 * 2048, 12 * 2048);
    assert_eq!(
        outage.len(),
        6,
        "one answer per epoch even during the outage"
    );
    assert!(outage.iter().all(|&(_, n)| n >= 12), "{outage:?}");
}

#[test]
fn base_station_failure_suppresses_answers_until_recovery() {
    let mut sim = new_sim();
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(query()));
    sim.schedule_failure(SimTime::from_ms(5 * 2048), NodeId::BASE_STATION);
    sim.run_until(SimTime::from_ms(12 * 2048));
    let during = answers_in(&sim, 6 * 2048, 12 * 2048);
    assert!(
        during.is_empty(),
        "a dead base station emits nothing: {during:?}"
    );
}
