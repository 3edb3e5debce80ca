//! Every strategy's answers judged against the sensor field itself, and the
//! base station's epoch lifecycle: a result that arrives after its epoch
//! closed, or for a query that was aborted, is counted and dropped, not
//! held.

#[path = "../../tinydb/tests/field_truth/mod.rs"]
mod field_truth;

use ttmqo_core::{
    run_experiment, ExperimentConfig, Strategy, TtmqoApp, TtmqoConfig, WorkloadAction,
    WorkloadEvent,
};
use ttmqo_query::{parse_query, EpochAnswer, QueryId};
use ttmqo_sim::{
    ConstantField, NodeApp, NodeId, RadioParams, SensorField, SimConfig, SimTime, Simulator,
    Topology, UniformField,
};
use ttmqo_tinydb::{Command, Output, TinyDbApp, TinyDbConfig};
use ttmqo_workloads::workload_a;

/// Workload A's cell: 8×8, engine seed 1.
fn config_for(strategy: Strategy, radio: RadioParams) -> ExperimentConfig {
    ExperimentConfig {
        strategy,
        grid_n: 8,
        radio,
        sim: SimConfig {
            seed: 1,
            ..SimConfig::default()
        },
        ..ExperimentConfig::default()
    }
}

#[test]
fn delivered_rows_are_field_truth_and_what_arrived_late_is_counted() {
    let workload = workload_a();
    let topo = Topology::grid(8).unwrap();
    let mut totals = Vec::new();
    // Lossless and collision-free; then the default radio, which loses no
    // frame to noise but lets frames collide and retries them.
    let radios = [RadioParams::lossless(), RadioParams::default()];
    for (radio, strategy) in radios.iter().flat_map(|r| Strategy::ALL.map(|s| (r, s))) {
        let config = config_for(strategy, radio.clone());
        let field = UniformField::new(config.field_seed);
        let report = run_experiment(&config, &workload);
        // The epochs `RunSession::finish` expects an answer for: those whose
        // collection window closes inside the run.
        let window = config.innetwork.collection_window_ms(&topo);
        let end = config.duration.as_ms();
        let (mut delivered, mut qualifying) = (0, 0);
        for event in &workload {
            let WorkloadAction::Pose(q) = &event.action else {
                continue;
            };
            if q.is_aggregation() {
                continue;
            }
            let truth = |e: u64| field_truth::qualifying(q, &field, &topo, SimTime::from_ms(e));
            let answers = &report.answers[&q.id()];
            for (e, answer) in answers {
                let EpochAnswer::Rows(rows) = answer else {
                    panic!("{strategy}: query {:?} answered with aggregates", q.id());
                };
                let truth = truth(*e);
                for node in rows.iter().map(|r| r.node) {
                    assert!(
                        truth.binary_search(&node).is_ok(),
                        "{strategy}: query {:?} epoch {e} lists node {node}, which does not qualify",
                        q.id()
                    );
                }
            }
            let step = q.epoch().as_ms();
            let mut e = q.epoch().next_fire_at(event.at.as_ms() + 1);
            while e + window < end {
                qualifying += truth(e).len();
                if let Some((_, EpochAnswer::Rows(rows))) = answers.iter().find(|(a, _)| *a == e) {
                    delivered += rows.len();
                }
                e += step;
            }
        }
        let late = report.metrics.late_rows() as usize;
        if !strategy.uses_basestation_tier() {
            // Without Tier 1 every late row is one user's row: a qualifying
            // row that was not delivered.
            assert!(
                delivered + late <= qualifying,
                "{strategy}: {delivered} delivered + {late} late > {qualifying} qualifying"
            );
        }
        totals.push((strategy, delivered, qualifying, late));
    }
    // (strategy, rows delivered, rows qualifying, rows late at the base
    // station), lossless radio first. The loss is reported, not hidden:
    // Baseline, one frame per row, loses rows to its close on either radio,
    // and with collisions every strategy loses rows.
    assert_eq!(
        totals,
        [
            (Strategy::Baseline, 11_832, 13_463, 1_631),
            (Strategy::BsOnly, 13_463, 13_463, 0),
            (Strategy::InNetOnly, 13_463, 13_463, 0),
            (Strategy::TwoTier, 13_463, 13_463, 0),
            (Strategy::Baseline, 10_859, 13_463, 2_378),
            (Strategy::BsOnly, 12_779, 13_463, 3),
            (Strategy::InNetOnly, 10_607, 13_463, 8),
            (Strategy::TwoTier, 12_685, 13_463, 8),
        ]
    );
}

/// Runs `events` on an n×n lossless grid with engine seed 1 until `end_ms`.
fn run<A>(
    n: usize,
    field: impl SensorField + Send + Sync + 'static,
    events: &[WorkloadEvent],
    end_ms: u64,
    app: fn() -> A,
) -> Simulator<A>
where
    A: NodeApp<Command = Command, Output = Output> + 'static,
{
    let mut sim = Simulator::new(
        Topology::grid(n).unwrap(),
        RadioParams::lossless(),
        SimConfig {
            seed: 1,
            ..SimConfig::default()
        },
        Box::new(field),
        move |_, _| app(),
    );
    for event in events {
        let command = match &event.action {
            WorkloadAction::Pose(q) => Command::Pose(q.clone()),
            WorkloadAction::Terminate(qid) => Command::Terminate(*qid),
        };
        sim.schedule_command(event.at, NodeId::BASE_STATION, command);
    }
    sim.run_until(SimTime::from_ms(end_ms));
    sim
}

#[test]
fn the_base_station_holds_only_epochs_whose_close_is_pending() {
    let end = 120 * 2048;
    let seed = ExperimentConfig::default().field_seed;
    let field = || UniformField::new(seed);

    // Baseline closes an epoch one TAG slot per level, plus one and a
    // margin, after it fires: 416 ms on 8×8.
    let sim = run(8, field(), &workload_a(), end, || {
        TinyDbApp::new(TinyDbConfig::default())
    });
    let close_after = TinyDbApp::TAG.close_after(sim.topology());
    assert_eq!(close_after, 416);
    assert!(sim.metrics().late_rows() > 0, "nothing arrived late");
    let held: Vec<_> = sim.node(NodeId::BASE_STATION).buffers().epochs().collect();
    assert!(!held.is_empty());
    for (qid, e) in held {
        assert!(
            e + close_after > end,
            "query {qid:?} epoch {e} is held past its close"
        );
    }

    // The in-network tier closes after its collection window.
    let sim = run(8, field(), &workload_a(), end, || {
        TtmqoApp::new(TtmqoConfig::default())
    });
    let window = TtmqoConfig::default().collection_window_ms(sim.topology());
    let held: Vec<_> = sim.node(NodeId::BASE_STATION).buffers().epochs().collect();
    assert!(!held.is_empty());
    for (qid, e) in held {
        assert!(
            e + window > end,
            "query {qid:?} epoch {e} is held past its close"
        );
    }
}

#[test]
fn rows_in_flight_for_an_aborted_query_are_counted_not_buffered() {
    // On 4×4 every epoch's 15 rows reach the base station well inside its
    // close, so nothing is late until the query is aborted 20 ms into an
    // epoch, with that epoch's rows still on their way.
    let q = parse_query(QueryId(1), "select light epoch duration 8192").unwrap();
    let abort_ms = 4 * 8192 + 20;
    let events = [
        WorkloadEvent::pose(0, q),
        WorkloadEvent::terminate(abort_ms, QueryId(1)),
    ];
    let end = abort_ms + 8192;
    let check = |late: u64, held: usize, answers: Vec<u64>| {
        assert!((1..15).contains(&late), "{late} rows late");
        assert_eq!(held, 0, "the base station still buffers the aborted query");
        assert_eq!(answers, [8192, 2 * 8192, 3 * 8192], "answered epochs");
    };
    let answered = |outputs: &[ttmqo_sim::OutputRecord<Output>]| {
        outputs
            .iter()
            .map(|o| match o.output {
                Output::Answer { epoch_ms, .. } => epoch_ms,
            })
            .collect::<Vec<_>>()
    };

    let sim = run(4, ConstantField, &events, end, || {
        TinyDbApp::new(TinyDbConfig::default())
    });
    let base = sim.node(NodeId::BASE_STATION);
    check(
        sim.metrics().late_rows(),
        base.buffers().epochs().count(),
        answered(sim.outputs()),
    );

    let sim = run(4, ConstantField, &events, end, || {
        TtmqoApp::new(TtmqoConfig::default())
    });
    let base = sim.node(NodeId::BASE_STATION);
    check(
        sim.metrics().late_rows(),
        base.buffers().epochs().count(),
        answered(sim.outputs()),
    );
}
