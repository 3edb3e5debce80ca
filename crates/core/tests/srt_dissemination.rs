//! SRT dissemination pruning: node-id based queries propagate only into
//! relevant subtrees, reduce propagation traffic, and still produce exactly
//! the answers that flooding produces.

use ttmqo_core::{TtmqoApp, TtmqoConfig};
use ttmqo_query::{parse_query, EpochAnswer, Query, QueryId};
use ttmqo_sim::{
    MsgKind, NodeApp, NodeId, RadioParams, SimConfig, SimTime, Simulator, Topology, UniformField,
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
        move |_, _| TinyDbApp::new(TinyDbConfig { srt }),
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

/// Which nodes run a query and which only relay its flood: ids, ascending.
#[derive(Debug, PartialEq)]
struct Roles {
    running: Vec<u16>,
    relaying: Vec<u16>,
}

/// Poses `query` at t = 0, terminates it at `terminate_ms` when given, runs
/// ten epochs, and reads each node's roles through `holds`, which answers
/// "does this node run `query`, and does it only relay it?".
fn roles<A: NodeApp<Command = Command>>(
    mut sim: Simulator<A>,
    query: &Query,
    terminate_ms: Option<u64>,
    holds: impl Fn(&A, QueryId) -> (bool, bool),
) -> Roles {
    sim.schedule_command(
        SimTime::ZERO,
        NodeId::BASE_STATION,
        Command::Pose(query.clone()),
    );
    if let Some(ms) = terminate_ms {
        sim.schedule_command(
            SimTime::from_ms(ms),
            NodeId::BASE_STATION,
            Command::Terminate(query.id()),
        );
    }
    sim.run_until(SimTime::from_ms(10 * 2048));
    let mut roles = Roles {
        running: Vec::new(),
        relaying: Vec::new(),
    };
    for node in sim.topology().nodes() {
        let (runs, relays) = holds(sim.node(node), query.id());
        if runs {
            roles.running.push(node.0);
        }
        if relays {
            roles.relaying.push(node.0);
        }
    }
    roles
}

/// Both applications with SRT on, as `(name, run)` where `run` is [`roles`]
/// over that application's [`tinydb_sim`] / [`ttmqo_sim`].
type Run = fn(&Query, Option<u64>) -> Roles;
const APPS: [(&str, Run); 2] = [
    ("TinyDB", |query, terminate_ms| {
        roles(tinydb_sim(true), query, terminate_ms, |app, qid| {
            (
                app.installed_queries().any(|q| q.id() == qid),
                app.relay_only_queries().any(|q| q.id() == qid),
            )
        })
    }),
    ("TTMQO", |query, terminate_ms| {
        roles(ttmqo_sim(true), query, terminate_ms, |app, qid| {
            (
                app.installed_queries().any(|q| q.id() == qid),
                app.relay_only_queries().any(|q| q.id() == qid),
            )
        })
    }),
];

/// Only nodes 14 and 15 — the far corner of the 4×4 grid — can answer, so
/// the SRT prunes the flood across most of the tree.
fn corner_query() -> Query {
    parse_query(
        QueryId(1),
        "select light where 14 <= nodeid <= 15 epoch duration 2048",
    )
    .unwrap()
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

/// What an SRT-on cell is pinned by: the query and abort floods it sent,
/// the samples it took, and its answer list (how many, and the FNV-1a of
/// their `Debug` text). The pins were taken while each app still flooded on
/// its own, before both moved to `Floods`; no golden runs with SRT on.
#[derive(Debug, PartialEq)]
struct Pinned {
    propagations: u64,
    aborts: u64,
    samples: u64,
    answers: usize,
    fnv1a: u64,
}

fn pinned<A: NodeApp<Output = Output>>(sim: &Simulator<A>) -> Pinned {
    let answers = answers(sim.outputs());
    let fnv1a = format!("{answers:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    Pinned {
        propagations: sim.metrics().tx_count(MsgKind::QueryPropagation),
        aborts: sim.metrics().tx_count(MsgKind::QueryAbort),
        samples: sim.metrics().samples(),
        answers: answers.len(),
        fnv1a,
    }
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
            pinned(&sim),
        )
    };
    let (flood_msgs, flood_answers, flood_samples, _) = run(false);
    let (srt_msgs, srt_answers, srt_samples, srt_pinned) = run(true);
    let want = Pinned {
        propagations: 4,
        aborts: 0,
        samples: 54,
        answers: 9,
        fnv1a: 0x7501_5982_e1be_342c,
    };
    assert_eq!(srt_pinned, want, "the SRT-on cell moved");

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
            pinned(&sim),
        )
    };
    let (flood_msgs, flood_answers, flood_sleep_ms, _) = run(false);
    let (srt_msgs, srt_answers, _, srt_pinned) = run(true);
    let want = Pinned {
        propagations: 4,
        aborts: 0,
        samples: 62,
        answers: 9,
        fnv1a: 0x7501_5982_e1be_342c,
    };
    assert_eq!(srt_pinned, want, "the SRT-on cell moved");
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

#[test]
fn both_apps_run_a_pruned_query_where_it_matches_and_relay_it_at_the_same_nodes() {
    // Running means sampling for the query (the base station: closing its
    // epochs); a node the SRT prunes holds the query only to relay it.
    let got: Vec<Roles> = APPS
        .iter()
        .map(|(app, run)| {
            let roles = run(&corner_query(), None);
            assert_eq!(roles.running, [0, 14, 15], "{app}: who runs the query");
            roles
        })
        .collect();
    assert!(
        !got[0].relaying.is_empty(),
        "the flood reaches the corner through relays"
    );
    assert_eq!(
        got[0].relaying, got[1].relaying,
        "TinyDB and TTMQO relay at different nodes"
    );
}

#[test]
fn an_aborted_pruned_query_is_neither_run_nor_relayed() {
    // Regression: a TTMQO node that only relayed the flood used to keep the
    // query after its abort — the abort uninstalled only what a node ran.
    for (app, run) in APPS {
        let roles = run(&corner_query(), Some(3 * 2048));
        let gone = Roles {
            running: Vec::new(),
            relaying: Vec::new(),
        };
        assert_eq!(roles, gone, "{app}: the query outlived its abort");
    }
}
