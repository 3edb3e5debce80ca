//! SRT dissemination pruning: node-id based queries propagate only into
//! relevant subtrees, reduce propagation traffic, and still produce exactly
//! the answers that flooding produces.

use ttmqo_core::{TtmqoApp, TtmqoConfig};
use ttmqo_query::{parse_query, EpochAnswer, Query, QueryId};
use ttmqo_sim::{
    MsgKind, NodeId, RadioParams, SimConfig, SimTime, Simulator, Topology, UniformField,
};
use ttmqo_tinydb::{Command, Output, TinyDbApp, TinyDbConfig};

fn nodeid_query() -> Query {
    // Only nodes 1..=3 can ever answer.
    parse_query(
        QueryId(1),
        "select light where 1 <= nodeid <= 3 epoch duration 2048",
    )
    .unwrap()
}

fn sim_config() -> SimConfig {
    SimConfig {
        maintenance_interval_ms: None,
        ..SimConfig::default()
    }
}

fn tinydb_sim(srt: bool) -> Simulator<TinyDbApp> {
    Simulator::new(
        Topology::grid(4).unwrap(),
        RadioParams::lossless(),
        sim_config(),
        Box::new(UniformField::new(5)),
        move |_, _| {
            TinyDbApp::new(TinyDbConfig {
                srt,
                ..TinyDbConfig::default()
            })
        },
    )
}

fn ttmqo_sim(srt: bool) -> Simulator<TtmqoApp> {
    Simulator::new(
        Topology::grid(4).unwrap(),
        RadioParams::lossless(),
        sim_config(),
        Box::new(UniformField::new(5)),
        move |_, _| {
            TtmqoApp::new(TtmqoConfig {
                srt,
                ..TtmqoConfig::default()
            })
        },
    )
}

fn answers(outputs: &[ttmqo_sim::OutputRecord<Output>]) -> Vec<(u64, EpochAnswer)> {
    outputs
        .iter()
        .map(|o| match &o.output {
            Output::Answer {
                epoch_ms, answer, ..
            } => (*epoch_ms, answer.clone()),
        })
        .collect()
}

#[test]
fn srt_reduces_propagation_in_the_baseline() {
    let run = |srt: bool| {
        let mut sim = tinydb_sim(srt);
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::BASE_STATION,
            Command::Pose(nodeid_query()),
        );
        sim.run_until(SimTime::from_ms(10 * 2048));
        (
            sim.metrics().tx_count(MsgKind::QueryPropagation),
            answers(sim.outputs()),
            sim.metrics().samples(),
        )
    };
    let (flood_msgs, flood_answers, flood_samples) = run(false);
    let (srt_msgs, srt_answers, srt_samples) = run(true);

    assert!(
        srt_msgs < flood_msgs,
        "SRT must prune propagation: {srt_msgs} !< {flood_msgs}"
    );
    assert_eq!(
        flood_answers, srt_answers,
        "pruning must not change answers"
    );
    assert!(
        srt_samples < flood_samples,
        "pruned nodes must not sample: {srt_samples} !< {flood_samples}"
    );
}

#[test]
fn srt_reduces_propagation_in_ttmqo() {
    let run = |srt: bool| {
        let mut sim = ttmqo_sim(srt);
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::BASE_STATION,
            Command::Pose(nodeid_query()),
        );
        sim.run_until(SimTime::from_ms(10 * 2048));
        (
            sim.metrics().tx_count(MsgKind::QueryPropagation),
            answers(sim.outputs()),
            sim.metrics().total_sleep_ms(),
        )
    };
    let (flood_msgs, flood_answers, flood_sleep_ms) = run(false);
    let (srt_msgs, srt_answers, _) = run(true);
    assert!(srt_msgs < flood_msgs, "{srt_msgs} !< {flood_msgs}");
    // Flooded, every node holds the query, and the ones it never selects nap
    // between firings (§3.2.2).
    assert!(flood_sleep_ms > 0.0, "the nodeid-restricted run slept");
    assert_eq!(flood_answers, srt_answers);
}

#[test]
fn srt_does_not_affect_value_based_queries() {
    let value_query = parse_query(
        QueryId(2),
        "select light where 200<=light<=800 epoch duration 2048",
    )
    .unwrap();
    let run = |srt: bool| {
        let mut sim = tinydb_sim(srt);
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::BASE_STATION,
            Command::Pose(value_query.clone()),
        );
        sim.run_until(SimTime::from_ms(8 * 2048));
        (
            sim.metrics().tx_count(MsgKind::QueryPropagation),
            answers(sim.outputs()),
        )
    };
    let (flood_msgs, flood_answers) = run(false);
    let (srt_msgs, srt_answers) = run(true);
    assert_eq!(
        flood_msgs, srt_msgs,
        "value queries must still flood everywhere"
    );
    assert_eq!(flood_answers, srt_answers);
}

#[test]
fn srt_answers_include_every_matching_node() {
    let mut sim = ttmqo_sim(true);
    sim.schedule_command(
        SimTime::ZERO,
        NodeId::BASE_STATION,
        Command::Pose(nodeid_query()),
    );
    sim.run_until(SimTime::from_ms(10 * 2048));
    let all = answers(sim.outputs());
    let steady: Vec<_> = all.iter().filter(|(e, _)| *e >= 2 * 2048).collect();
    assert!(!steady.is_empty());
    for (epoch, answer) in steady {
        let EpochAnswer::Rows(rows) = answer else {
            panic!("expected rows")
        };
        let ids: Vec<u16> = rows.iter().map(|r| r.node).collect();
        assert_eq!(
            ids,
            vec![1, 2, 3],
            "epoch {epoch}: all three targets answer"
        );
    }
}
