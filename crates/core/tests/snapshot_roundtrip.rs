//! Per-type snapshot roundtrips for every *public* snapshotted type of the
//! core and tinydb crates (the sim crate's own types are covered by
//! `crates/sim/src/snapshot.rs` unit tests, and whole-run state by
//! `checkpoint_resume.rs` / `prop_checkpoint.rs`).
//!
//! Together with the exhaustive (no `..`) destructuring inside every
//! `Snapshot` impl — which turns a forgotten new field into a compile error —
//! these tests pin the *wire* behaviour: encode, decode, verify nothing was
//! lost and no trailing bytes remain.

use ttmqo_core::{
    Demand, IndexStats, OptimizerOptions, OptimizerStats, PartialEntry, RowEntry, SyntheticQuery,
    TtmqoConfig, TtmqoPayload,
};
use ttmqo_query::{parse_query, AggOp, PartialAgg, Query, QueryId, Readings, Row};
use ttmqo_sim::{NodeId, Restorable, SnapReader, SnapWriter, Snapshot, Topology};
use ttmqo_tinydb::{Command, Output, Srt, TinyDbConfig, TinyDbPayload};

/// Encode → decode → require the reader fully consumed, returning the copy.
fn recode<T: Snapshot + Restorable>(value: &T) -> T {
    let mut w = SnapWriter::new();
    value.write(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    let back = T::read(&mut r).expect("roundtrip decodes");
    r.finish().expect("no trailing bytes");
    back
}

fn roundtrip_eq<T: Snapshot + Restorable + PartialEq + std::fmt::Debug>(value: T) {
    assert_eq!(recode(&value), value);
}

/// For types without `PartialEq`: the debug rendering prints every field
/// with shortest-roundtrip float formatting, so string equality is bit
/// equality.
fn roundtrip_debug<T: Snapshot + Restorable + std::fmt::Debug>(value: T) {
    assert_eq!(format!("{:?}", recode(&value)), format!("{:?}", value));
}

fn q(id: u64, text: &str) -> Query {
    parse_query(QueryId(id), text).unwrap()
}

fn qids(ids: &[u64]) -> Vec<QueryId> {
    ids.iter().map(|&i| QueryId(i)).collect()
}

#[test]
fn optimizer_types_roundtrip() {
    roundtrip_eq(OptimizerOptions::default());
    roundtrip_eq(OptimizerOptions {
        alpha: 0.85,
        reinsert: false,
        rank_by_rate: false,
        exhaustive: true,
    });
    roundtrip_eq(OptimizerStats {
        inserted: 12,
        terminated: 7,
        injections: 5,
        abortions: 2,
        absorbed_insertions: 4,
        absorbed_terminations: 3,
        reoptimizations: 1,
    });
    roundtrip_eq(IndexStats {
        lookups: 100,
        scanned: 42,
        pruned: 58,
    });
}

#[test]
fn synthetic_query_roundtrip_keeps_membership_bookkeeping() {
    let mut syn = SyntheticQuery::new(q(
        1001,
        "select light, temp where 100<light<300 epoch duration 2048",
    ));
    let member_a = q(1, "select light where 100<light<300 epoch duration 2048");
    let member_b = q(2, "select temp epoch duration 4096");
    syn.add_member(QueryId(1), &Demand::of(&member_a));
    syn.add_member(QueryId(2), &Demand::of(&member_b));
    syn.set_benefit(3.25);
    roundtrip_debug(syn);
}

#[test]
fn ttmqo_config_roundtrip() {
    roundtrip_debug(TtmqoConfig::default());
    roundtrip_debug(TtmqoConfig {
        slot_ms: 96,
        jitter_ms: 8,
        sleep: false,
        dynamic_parents: false,
        query_recovery: false,
        srt: true,
        dead_parent_after: 3,
    });
}

#[test]
fn ttmqo_payload_every_variant_roundtrips() {
    let row_entry = RowEntry {
        node: 9,
        qids: qids(&[1, 4]),
        readings: {
            let mut r = Readings::new();
            r.set(ttmqo_query::Attribute::Light, 512.0);
            r.set(ttmqo_query::Attribute::Temp, 21.5);
            r
        },
    };
    roundtrip_eq(row_entry.clone());
    let partial_entry = PartialEntry {
        qid: QueryId(4),
        partials: vec![
            Some(PartialAgg::Avg {
                sum: 10.5,
                count: 3,
            }),
            None,
        ],
    };
    roundtrip_eq(partial_entry.clone());

    roundtrip_debug(TtmqoPayload::Query {
        query: q(
            3,
            "select max(temp) where region(0, 0, 40, 40) epoch duration 2048",
        ),
        has_data: qids(&[1, 2]),
    });
    roundtrip_debug(TtmqoPayload::Abort(QueryId(3)));
    roundtrip_debug(TtmqoPayload::Wakeup {
        has_data: qids(&[7]),
    });
    roundtrip_debug(TtmqoPayload::SharedRows {
        epoch_ms: 4096,
        entries: vec![row_entry],
        assignments: vec![(NodeId(1), qids(&[1])), (NodeId(2), qids(&[4]))],
    });
    roundtrip_debug(TtmqoPayload::SharedPartials {
        epoch_ms: 6144,
        entries: vec![partial_entry],
        assignments: vec![(NodeId(1), qids(&[4]))],
    });
    roundtrip_debug(TtmqoPayload::NoRoute);
    roundtrip_debug(TtmqoPayload::QueryRequest(QueryId(11)));
    roundtrip_debug(TtmqoPayload::QueryShare(q(
        11,
        "select light where 2 <= nodeid <= 9 epoch duration 2048",
    )));
}

#[test]
fn tinydb_types_every_variant_roundtrips() {
    roundtrip_debug(TinyDbConfig::default());
    roundtrip_debug(TinyDbConfig {
        slot_ms: 128,
        jitter_ms: 0,
        srt: true,
    });

    roundtrip_debug(TinyDbPayload::Query(q(
        5,
        "select light, temp where 100<light<300 epoch duration 2048",
    )));
    roundtrip_debug(TinyDbPayload::Abort(QueryId(5)));
    roundtrip_debug(TinyDbPayload::Rows {
        qid: QueryId(5),
        epoch_ms: 2048,
        rows: vec![Row {
            node: 3,
            time_ms: 2048,
            readings: {
                let mut r = Readings::new();
                r.set(ttmqo_query::Attribute::Light, 200.0);
                r
            },
        }],
    });
    roundtrip_debug(TinyDbPayload::Partials {
        qid: QueryId(6),
        epoch_ms: 4096,
        partials: vec![None, Some(AggOp::Max.seed(99.0))],
    });

    roundtrip_debug(Command::Pose(q(7, "select temp epoch duration 2048")));
    roundtrip_debug(Command::Terminate(QueryId(7)));

    roundtrip_eq(Output::Answer {
        qid: QueryId(7),
        epoch_ms: 8192,
        answer: ttmqo_query::EpochAnswer::Aggregates(vec![ttmqo_query::AggValue {
            op: AggOp::Max,
            attr: ttmqo_query::Attribute::Temp,
            value: 31.0,
        }]),
    });
}

#[test]
fn srt_roundtrip_preserves_routing_semantics() {
    let topo = Topology::grid(4).unwrap();
    let srt = Srt::build(&topo);
    let back = recode(&srt);
    assert_eq!(format!("{:?}", back), format!("{:?}", srt));
    // Semantic spot check on the copy, not just the rendering.
    for node in topo.nodes() {
        assert_eq!(back.subtree_range(node), srt.subtree_range(node));
    }
}
