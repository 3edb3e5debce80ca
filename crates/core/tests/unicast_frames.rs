//! What a result frame names: every recipient's share on a multicast, nobody
//! on a unicast — seen from outside the app, through a wrapper that records
//! the rows frames each node is handed.

use std::sync::{Arc, Mutex};
use ttmqo_core::{TtmqoApp, TtmqoConfig, TtmqoPayload};
use ttmqo_query::{parse_query, EpochAnswer, QueryId};
use ttmqo_sim::{
    Ctx, MsgKind, NodeApp, NodeId, RadioParams, SimConfig, SimTime, Simulator, Topology,
    UniformField,
};
use ttmqo_tinydb::{Command, Output};

/// A rows frame as its addressee saw it.
#[derive(Debug, Clone, PartialEq)]
struct Handed {
    to: NodeId,
    from: NodeId,
    source: u16,
    qids: Vec<QueryId>,
    assignments: Vec<(NodeId, Vec<QueryId>)>,
}

/// `TtmqoApp`, untouched, with a log of the rows frames addressed to it.
struct Spy {
    app: TtmqoApp,
    log: Arc<Mutex<Vec<Handed>>>,
}

type SpyCtx<'a> = Ctx<'a, Arc<TtmqoPayload>, Output>;

impl NodeApp for Spy {
    type Payload = Arc<TtmqoPayload>;
    type Command = Command;
    type Output = Output;

    fn on_start(&mut self, ctx: &mut SpyCtx<'_>) {
        self.app.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut SpyCtx<'_>, key: u64) {
        self.app.on_timer(ctx, key);
    }

    fn on_message(
        &mut self,
        ctx: &mut SpyCtx<'_>,
        from: NodeId,
        kind: MsgKind,
        payload: &Arc<TtmqoPayload>,
    ) {
        if let TtmqoPayload::SharedRows {
            entry, assignments, ..
        } = &**payload
        {
            self.log.lock().unwrap().push(Handed {
                to: ctx.node(),
                from,
                source: entry.node,
                qids: entry.qids.clone(),
                assignments: assignments.clone(),
            });
        }
        self.app.on_message(ctx, from, kind, payload);
    }

    fn on_command(&mut self, ctx: &mut SpyCtx<'_>, cmd: Command) {
        self.app.on_command(ctx, cmd);
    }

    fn on_overhear(
        &mut self,
        ctx: &mut SpyCtx<'_>,
        from: NodeId,
        kind: MsgKind,
        payload: &Arc<TtmqoPayload>,
    ) {
        self.app.on_overhear(ctx, from, kind, payload);
    }

    fn on_send_failed(&mut self, ctx: &mut SpyCtx<'_>, dest: NodeId, kind: MsgKind) {
        self.app.on_send_failed(ctx, dest, kind);
    }
}

#[test]
fn a_share_arrives_by_multicast_and_leaves_by_unicast_naming_nobody() {
    // 4×4, 20 ft spacing, in-network tier only, with ids 8 and 15 swapped:
    // corner node 8 at (60, 60) is two hops out with two equally good upper
    // neighbours, 6 at (40, 20) and 9 at (20, 40). Query 1's id range holds
    // 6 and 8 but not 9; query 2's holds 8 and 9 but not 6 — so node 8's one
    // frame serves both queries and no single parent has data for both.
    let (q1, q2) = (QueryId(1), QueryId(2));
    let grid = Topology::grid(4).unwrap();
    let mut positions: Vec<_> = grid.nodes().map(|n| grid.position(n)).collect();
    positions.swap(8, 15);
    let topology = Topology::from_positions(positions, grid.radio_range()).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let spy_log = Arc::clone(&log);
    let mut sim = Simulator::new(
        topology,
        RadioParams::lossless(),
        SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        Box::new(UniformField::new(31)),
        move |_, _| Spy {
            app: TtmqoApp::new(TtmqoConfig::default()),
            log: Arc::clone(&spy_log),
        },
    );
    for (qid, ids) in [(q1, "6 <= nodeid <= 8"), (q2, "8 <= nodeid <= 9")] {
        let text = format!("select nodeid, light where {ids} epoch duration 2048");
        let query = parse_query(qid, &text).unwrap();
        sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(query));
    }
    sim.run_until(SimTime::from_ms(12 * 2048));
    let log = log.lock().unwrap();

    // Node 8 splits: one multicast frame, each parent named with its share.
    let split = vec![(NodeId(6), vec![q1]), (NodeId(9), vec![q2])];
    for parent in [6, 9] {
        let handed = Handed {
            to: NodeId(parent),
            from: NodeId(8),
            source: 8,
            qids: vec![q1, q2],
            assignments: split.clone(),
        };
        assert!(log.contains(&handed), "{handed:?} never seen");
    }
    // Each parent passes on its share, to the base station alone: the frame
    // serves that share and names nobody.
    for (parent, share) in [(6, q1), (9, q2)] {
        let handed = Handed {
            to: NodeId::BASE_STATION,
            from: NodeId(parent),
            source: 8,
            qids: vec![share],
            assignments: Vec::new(),
        };
        assert!(log.contains(&handed), "{handed:?} never seen");
    }
    // A single assignment pair is never put on the air.
    assert!(log.iter().all(|h| h.assignments.len() != 1));

    // Whatever the frames named, every node of each range is in each
    // epoch's answer — node 8 in both.
    let mut answered = 0;
    for record in sim.outputs() {
        let Output::Answer {
            qid,
            epoch_ms,
            answer: EpochAnswer::Rows(rows),
        } = &record.output
        else {
            panic!("unexpected output {record:?}");
        };
        if *epoch_ms < 2 * 2048 {
            continue;
        }
        let nodes: Vec<u16> = rows.iter().map(|r| r.node).collect();
        let expected = if *qid == q1 {
            vec![6, 7, 8]
        } else {
            vec![8, 9]
        };
        assert_eq!(nodes, expected, "query {qid} epoch {epoch_ms}");
        answered += 1;
    }
    assert!(answered >= 16, "only {answered} answers checked");
}
