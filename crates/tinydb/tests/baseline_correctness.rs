//! End-to-end correctness of the TinyDB baseline: answers delivered by the
//! base station must equal ground truth computed directly from the sensor
//! field.

mod field_truth;

use ttmqo_query::{parse_query, AggOp, Attribute, EpochAnswer, Query, QueryId};
use ttmqo_sim::{
    ConstantField, MsgKind, NodeId, RadioParams, SensorField, SimConfig, SimTime, Simulator,
    Topology, UniformField,
};
use ttmqo_tinydb::{Command, Output, TinyDbApp, TinyDbConfig};

fn new_sim(topo: Topology, field: Box<dyn SensorField + Send + Sync>) -> Simulator<TinyDbApp> {
    Simulator::new(
        topo,
        RadioParams::lossless(),
        SimConfig {
            maintenance_interval_ms: Some(30_000),
            ..SimConfig::default()
        },
        field,
        |_, _| TinyDbApp::new(TinyDbConfig::default()),
    )
}

fn answers_for(sim: &Simulator<TinyDbApp>, qid: QueryId) -> Vec<(u64, EpochAnswer)> {
    sim.outputs()
        .iter()
        .filter_map(|o| match &o.output {
            Output::Answer {
                qid: id,
                epoch_ms,
                answer,
            } if *id == qid => Some((*epoch_ms, answer.clone())),
            _ => None,
        })
        .collect()
}

#[test]
fn acquisition_collects_all_qualifying_rows() {
    let topo = Topology::grid(4).unwrap();
    let field = UniformField::new(77);
    let mut sim = new_sim(topo.clone(), Box::new(field));
    let q = parse_query(
        QueryId(1),
        "select nodeid, light where light >= 500 epoch duration 2048",
    )
    .unwrap();
    sim.schedule_command(
        SimTime::ZERO,
        NodeId::BASE_STATION,
        Command::Pose(q.clone()),
    );
    sim.run_until(SimTime::from_ms(8 * 2048));

    let answers = answers_for(&sim, QueryId(1));
    assert!(
        answers.len() >= 5,
        "expected several epochs, got {}",
        answers.len()
    );
    for (epoch_ms, answer) in &answers {
        let EpochAnswer::Rows(rows) = answer else {
            panic!("expected rows")
        };
        let t = SimTime::from_ms(*epoch_ms);
        let expected = field_truth::qualifying(&q, &field, &topo, t);
        let got: Vec<u16> = rows.iter().map(|r| r.node).collect();
        assert_eq!(got, expected, "epoch {epoch_ms}");
        for row in rows {
            let v = row.readings.get(Attribute::Light).unwrap();
            assert_eq!(
                v,
                field.reading(NodeId(row.node), Attribute::Light, t),
                "row value must be the sampled reading"
            );
            assert_eq!(row.readings.get(Attribute::NodeId), Some(row.node as f64));
        }
    }
}

#[test]
fn aggregation_computes_exact_max_and_min() {
    let topo = Topology::grid(4).unwrap();
    let field = UniformField::new(123);
    let mut sim = new_sim(topo, Box::new(field));
    let q = parse_query(
        QueryId(2),
        "select max(light), min(light) epoch duration 2048",
    )
    .unwrap();
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(q));
    sim.run_until(SimTime::from_ms(6 * 2048));

    let answers = answers_for(&sim, QueryId(2));
    assert!(answers.len() >= 4);
    for (epoch_ms, answer) in &answers {
        let EpochAnswer::Aggregates(vals) = answer else {
            panic!("expected aggregates")
        };
        let t = SimTime::from_ms(*epoch_ms);
        let readings: Vec<f64> = (1..16u16)
            .map(|n| field.reading(NodeId(n), Attribute::Light, t))
            .collect();
        let expected_max = readings.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let expected_min = readings.iter().cloned().fold(f64::INFINITY, f64::min);
        // Selection::aggregates sorts (Min < Max by enum order).
        let min = vals.iter().find(|v| v.op == AggOp::Min).unwrap();
        let max = vals.iter().find(|v| v.op == AggOp::Max).unwrap();
        assert_eq!(min.value, expected_min, "epoch {epoch_ms}");
        assert_eq!(max.value, expected_max, "epoch {epoch_ms}");
    }
}

#[test]
fn aggregation_with_predicate_filters_contributors() {
    let topo = Topology::grid(3).unwrap();
    let field = UniformField::new(9);
    let mut sim = new_sim(topo, Box::new(field));
    let q = parse_query(
        QueryId(3),
        "select count(light) where light >= 300 epoch duration 2048",
    )
    .unwrap();
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(q));
    sim.run_until(SimTime::from_ms(6 * 2048));

    for (epoch_ms, answer) in answers_for(&sim, QueryId(3)) {
        let EpochAnswer::Aggregates(vals) = answer else {
            panic!("expected aggregates")
        };
        let t = SimTime::from_ms(epoch_ms);
        let expected = (1..9u16)
            .filter(|&n| field.reading(NodeId(n), Attribute::Light, t) >= 300.0)
            .count() as f64;
        if expected == 0.0 {
            assert!(vals.is_empty(), "no contributors ⇒ no aggregate row");
        } else {
            assert_eq!(vals[0].value, expected, "epoch {epoch_ms}");
        }
    }
}

#[test]
fn epochs_are_aligned_to_the_global_grid() {
    let topo = Topology::grid(3).unwrap();
    let mut sim = new_sim(topo, Box::new(ConstantField));
    let q = parse_query(QueryId(4), "select light epoch duration 4096").unwrap();
    // Posed at an odd time: epochs must still land on multiples of 4096.
    sim.schedule_command(
        SimTime::from_ms(1000),
        NodeId::BASE_STATION,
        Command::Pose(q),
    );
    sim.run_until(SimTime::from_ms(8 * 4096));

    let answers = answers_for(&sim, QueryId(4));
    assert!(!answers.is_empty());
    for (epoch_ms, _) in &answers {
        assert_eq!(epoch_ms % 4096, 0, "unaligned epoch {epoch_ms}");
    }
    // Consecutive epochs are one duration apart.
    for w in answers.windows(2) {
        assert_eq!(w[1].0 - w[0].0, 4096);
    }
}

#[test]
fn termination_stops_answers_and_floods_abort() {
    let topo = Topology::grid(3).unwrap();
    let mut sim = new_sim(topo, Box::new(ConstantField));
    let q = parse_query(QueryId(5), "select light epoch duration 2048").unwrap();
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(q));
    sim.schedule_command(
        SimTime::from_ms(5 * 2048),
        NodeId::BASE_STATION,
        Command::Terminate(QueryId(5)),
    );
    sim.run_until(SimTime::from_ms(12 * 2048));

    let answers = answers_for(&sim, QueryId(5));
    let last_epoch = answers.iter().map(|(e, _)| *e).max().unwrap();
    assert!(
        last_epoch <= 6 * 2048,
        "answers kept arriving after termination (last at {last_epoch})"
    );
    assert!(sim.metrics().tx_count(MsgKind::QueryAbort) >= 1);
    // After the abort flood no node still has the query installed.
    for n in 0..9u16 {
        assert_eq!(
            sim.node(NodeId(n)).installed_queries().count(),
            0,
            "node {n}"
        );
    }
}

#[test]
fn two_identical_queries_cost_twice_as_much() {
    // The defining baseline property: no sharing whatsoever.
    let run = |n_queries: u64| {
        let topo = Topology::grid(4).unwrap();
        let mut sim = new_sim(topo, Box::new(ConstantField));
        for i in 0..n_queries {
            let q = parse_query(QueryId(i), "select light epoch duration 2048").unwrap();
            sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(q));
        }
        sim.run_until(SimTime::from_ms(10 * 2048));
        (
            sim.metrics().tx_count(MsgKind::Result),
            sim.metrics().samples(),
        )
    };
    let (msgs1, samples1) = run(1);
    let (msgs2, samples2) = run(2);
    assert!(
        msgs2 >= 2 * msgs1 * 9 / 10,
        "two queries should ≈double result traffic: {msgs1} -> {msgs2}"
    );
    assert_eq!(samples2, 2 * samples1, "duplicated sampling per query");
}

#[test]
fn query_flood_reaches_every_node_once() {
    let topo = Topology::grid(4).unwrap();
    let mut sim = new_sim(topo, Box::new(ConstantField));
    let q: Query = parse_query(QueryId(6), "select light epoch duration 8192").unwrap();
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(q));
    sim.run_until(SimTime::from_ms(2000));

    for n in 0..16u16 {
        assert_eq!(
            sim.node(NodeId(n)).installed_queries().count(),
            1,
            "node {n} missing the query"
        );
    }
    // Flooding relays once per node.
    assert_eq!(sim.metrics().tx_count(MsgKind::QueryPropagation), 16);
}

/// Workload A (`ttmqo_workloads::workload_a`, which depends on this crate),
/// by id.
const WORKLOAD_A: [&str; 8] = [
    "select light where 100<=light<=800 epoch duration 2048",
    "select light where 150<=light<=700 epoch duration 4096",
    "select light where 200<=light<=750 epoch duration 4096",
    "select light where 120<=light<=780 epoch duration 8192",
    "select light where 300<=light<=600 epoch duration 2048",
    "select light where 250<=light<=650 epoch duration 8192",
    "select max(light) epoch duration 4096",
    "select max(light) epoch duration 8192",
];

#[test]
fn every_node_installs_the_one_copy_its_flood_carried() {
    let topo = Topology::grid(4).unwrap();
    let mut sim = new_sim(topo, Box::new(UniformField::new(77)));
    for (id, text) in (0..).zip(WORKLOAD_A) {
        let q = parse_query(QueryId(id), text).unwrap();
        sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(q));
    }
    sim.run_until(SimTime::from_ms(2048));

    // The base station wraps each posed query once; every flood frame and
    // every node's table share that allocation.
    let installed = |n: u16| -> Vec<&Query> { sim.node(NodeId(n)).installed_queries().collect() };
    let posed = installed(0);
    assert_eq!(posed.len(), WORKLOAD_A.len());
    for n in 1..16u16 {
        let mine = installed(n);
        assert_eq!(mine.len(), posed.len(), "node {n} missed a flood");
        for (theirs, mine) in posed.iter().zip(mine) {
            assert!(
                std::ptr::eq(*theirs, mine),
                "node {n} holds its own copy of query {:?}",
                mine.id()
            );
        }
    }
}
