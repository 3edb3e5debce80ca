//! Integration tests of the trace subsystem: event capture through a
//! `RingSink` from a live simulation, byte-identical golden JSONL across
//! runs, the invariance guarantee that tracing — disabled or enabled —
//! never changes what the simulation computes, and the summary's per-query
//! tallies against a line-by-line recount.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use ttmqo_query::QueryId;
use ttmqo_sim::json::{self, JsonValue};
use ttmqo_sim::{
    summarize_trace, trace_header, ConstantField, Ctx, Destination, EngineStats, JsonLinesSink,
    MetricsSnapshot, MsgKind, NodeApp, NodeId, OutputRecord, Position, RadioParams, RingSink,
    SimConfig, SimTime, Simulator, Topology, TraceEvent, TraceHandle, TraceRecord, TraceSink,
    SCHEMA_VERSION,
};

/// A scriptable test app: sends frames per external commands and echoes
/// received payloads as outputs.
#[derive(Debug, Default)]
struct Probe;

#[derive(Debug, Clone)]
enum Cmd {
    Send {
        dest: Destination,
        kind: MsgKind,
        bytes: usize,
        tag: String,
    },
    Sleep {
        ms: u64,
    },
}

impl NodeApp for Probe {
    type Payload = String;
    type Command = Cmd;
    type Output = String;

    fn on_start(&mut self, _ctx: &mut Ctx<'_, String, String>) {}

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, String, String>, _key: u64) {}

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, String, String>,
        _from: NodeId,
        _kind: MsgKind,
        payload: &String,
    ) {
        ctx.emit(payload.clone());
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, String, String>, cmd: Cmd) {
        match cmd {
            Cmd::Send {
                dest,
                kind,
                bytes,
                tag,
            } => ctx.send(dest, kind, bytes, tag),
            Cmd::Sleep { ms } => ctx.sleep_for(ms),
        }
    }
}

fn line_topology(n: usize, spacing: f64) -> Topology {
    Topology::from_positions(
        (0..n)
            .map(|i| Position {
                x: i as f64 * spacing,
                y: 0.0,
            })
            .collect(),
        50.0,
    )
    .unwrap()
}

fn new_sim() -> Simulator<Probe> {
    Simulator::new(
        line_topology(4, 20.0),
        RadioParams::lossless(),
        SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        Box::new(ConstantField),
        |_, _| Probe,
    )
}

/// A busy little scenario: broadcasts, a unicast chain, a nap over a frame,
/// and two deliberately colliding senders.
fn script(sim: &mut Simulator<Probe>) {
    let send = |dest, kind, tag: &str| Cmd::Send {
        dest,
        kind,
        bytes: 24,
        tag: tag.to_string(),
    };
    sim.schedule_command(
        SimTime::from_ms(10),
        NodeId(1),
        send(Destination::Broadcast, MsgKind::QueryPropagation, "b1"),
    );
    sim.schedule_command(
        SimTime::from_ms(40),
        NodeId(2),
        send(Destination::Unicast(NodeId(1)), MsgKind::Result, "u21"),
    );
    // Node 3 naps over node 2's next unicast: a missed frame plus retries.
    sim.schedule_command(SimTime::from_ms(60), NodeId(3), Cmd::Sleep { ms: 40 });
    sim.schedule_command(
        SimTime::from_ms(70),
        NodeId(2),
        send(Destination::Unicast(NodeId(3)), MsgKind::Result, "u23"),
    );
    // Two same-instant broadcasts from nodes in range of each other collide
    // (or CSMA-defer, depending on sensing) at their shared neighbours.
    sim.schedule_command(
        SimTime::from_ms(200),
        NodeId(0),
        send(Destination::Broadcast, MsgKind::Result, "c0"),
    );
    sim.schedule_command(
        SimTime::from_ms(200),
        NodeId(1),
        send(Destination::Broadcast, MsgKind::Result, "c1"),
    );
}

fn run_scenario(
    trace: Option<TraceHandle>,
) -> (EngineStats, MetricsSnapshot, Vec<OutputRecord<String>>) {
    let mut sim = new_sim();
    if let Some(trace) = trace {
        sim.set_trace(trace);
    }
    script(&mut sim);
    sim.run_until(SimTime::from_ms(1000));
    let stats = sim.engine_stats();
    let snapshot = sim.metrics().snapshot();
    (stats, snapshot, sim.take_outputs())
}

#[test]
fn ring_sink_captures_the_scenarios_events() {
    let ring = Arc::new(Mutex::new(RingSink::new()));
    let handle = TraceHandle::shared(ring.clone() as Arc<Mutex<dyn TraceSink>>);
    let (stats, snapshot, _) = run_scenario(Some(handle));

    let ring = ring.lock().unwrap();
    let records: Vec<&TraceRecord> = ring.records().collect();
    assert!(!records.is_empty());

    use ttmqo_sim::Probe as P;
    let count = |f: &dyn Fn(&P) -> bool| {
        records
            .iter()
            .filter(|r| matches!(&r.event, TraceEvent::Engine(p) if f(p)))
            .count() as u64
    };
    let tx = count(&|p| matches!(p, P::Tx { .. }));
    let delivered = count(&|p| matches!(p, P::Delivered { .. }));
    let sleeps = count(&|p| matches!(p, P::Sleep { .. }));
    let missed = count(&|p| matches!(p, P::Missed { .. }));

    // Every transmission the metrics counted appears in the trace, and the
    // scripted nap produced its sleep and missed-frame records (the nap
    // expires on its own — explicit `Wake` actions are a different path).
    assert_eq!(tx, snapshot.tx_count.values().sum::<u64>());
    assert!(delivered > 0);
    assert_eq!(sleeps, 1);
    assert!(
        missed >= 1,
        "node 3 slept over a unicast addressed to it: {missed}"
    );
    // Timestamps are plausible: nothing after the horizon.
    assert!(records.iter().all(|r| r.time_us <= 1_000_000));
    // The per-phase breakdown sums back to the total event count.
    assert_eq!(
        stats.timer_events
            + stats.deliver_events
            + stats.command_events
            + stats.maintenance_events
            + stats.fault_events,
        stats.events_processed
    );
}

/// A `Write` implementor that appends into a shared buffer, so the test can
/// read back what a `JsonLinesSink` wrote without touching the filesystem.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn jsonl_of_run() -> String {
    let buf = SharedBuf::default();
    let sink = JsonLinesSink::new(buf.clone()).unwrap();
    let (_, _, _) = run_scenario(Some(TraceHandle::new(sink)));
    let bytes = buf.0.lock().unwrap().clone();
    String::from_utf8(bytes).unwrap()
}

#[test]
fn golden_trace_is_byte_identical_across_runs() {
    let first = jsonl_of_run();
    let second = jsonl_of_run();
    assert_eq!(first, second, "same seed, same script, same bytes");

    let mut lines = first.lines();
    assert_eq!(lines.next(), Some(trace_header().as_str()));
    assert!(first
        .lines()
        .next()
        .unwrap()
        .contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(
            line.contains("\"t\":") && line.contains("\"ev\":\""),
            "{line}"
        );
    }
    assert!(first.lines().count() > 10, "the scenario is not trivial");
}

#[test]
fn tracing_never_changes_what_the_simulation_computes() {
    let untraced = run_scenario(None);
    let disabled = run_scenario(Some(TraceHandle::disabled()));
    let ring = Arc::new(Mutex::new(RingSink::new()));
    let enabled = run_scenario(Some(TraceHandle::shared(
        ring.clone() as Arc<Mutex<dyn TraceSink>>
    )));

    assert_eq!(untraced.0, disabled.0, "engine stats, disabled handle");
    assert_eq!(untraced.0, enabled.0, "engine stats, live ring sink");
    assert_eq!(untraced.1, disabled.1, "metrics, disabled handle");
    assert_eq!(untraced.1, enabled.1, "metrics, live ring sink");
    assert_eq!(untraced.2, disabled.2, "outputs, disabled handle");
    assert_eq!(untraced.2, enabled.2, "outputs, live ring sink");
    assert!(
        !ring.lock().unwrap().is_empty(),
        "the enabled run actually traced"
    );
}

#[test]
fn one_tally_per_query_matches_the_maps_it_replaced() {
    // Random traces of mapped answers — a few users, some answers empty,
    // latencies small or within a few thousand of `u64::MAX`, other records
    // between them, now and then a record missing its user or latency —
    // summarized, and recounted line by line into the three maps the tally
    // replaced: answers, non-empty answers and every latency sample, per
    // user.
    let mut state = 0x7a11_1e55_0fba_5e00_u64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for case in 0..200 {
        let mut text = trace_header();
        for i in 0..rand() % 300 {
            let line = match rand() % 10 {
                0 => format!("{{\"t\":{i},\"ev\":\"wake\",\"node\":1}}"),
                1 => format!(
                    "{{\"t\":{i},\"ev\":\"answer-mapped\",\"user\":{}}}",
                    rand() % 6
                ),
                2 => format!(
                    "{{\"t\":{i},\"ev\":\"answer-mapped\",\"latency_ms\":{}}}",
                    rand()
                ),
                _ => TraceRecord {
                    time_us: i * 1000,
                    event: TraceEvent::AnswerMapped {
                        user: QueryId(rand() % 6),
                        synthetic: QueryId(1 << 20),
                        epoch_ms: 2048 * (i / 8),
                        rows: rand() % 4,
                        nonempty: rand() % 3 != 0,
                        latency_ms: match rand() % 3 {
                            0 => u64::MAX - rand() % 4096,
                            _ => rand() % 5000,
                        },
                    },
                }
                .to_json(),
            };
            text.push('\n');
            text.push_str(&line);
        }

        let mut answers: BTreeMap<u64, u64> = BTreeMap::new();
        let mut nonempty: BTreeMap<u64, u64> = BTreeMap::new();
        let mut latencies: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for line in text.lines().skip(1) {
            let rec = json::parse(line).expect("the test writes JSON");
            if rec.str_at("ev") == Some("answer-mapped") {
                let user = rec.u64_at("user").unwrap_or(0);
                *answers.entry(user).or_insert(0) += 1;
                if rec.get("nonempty").and_then(JsonValue::as_bool) == Some(true) {
                    *nonempty.entry(user).or_insert(0) += 1;
                }
                let latency = rec.u64_at("latency_ms").unwrap_or(0);
                latencies.entry(user).or_default().push(latency);
            }
        }
        // The mean the maps gave: a saturating sum over the samples.
        let mean = |samples: &mut dyn Iterator<Item = &u64>| {
            let (sum, n) = samples.fold((0u64, 0u64), |(s, n), l| (s.saturating_add(*l), n + 1));
            (n > 0).then(|| sum as f64 / n as f64)
        };

        let s = summarize_trace(&text).expect("own trace");
        assert!(s.queries.keys().eq(answers.keys()), "case {case}");
        for (user, tally) in &s.queries {
            assert_eq!(tally.answers, answers[user], "case {case}, user {user}");
            let want = nonempty.get(user).copied().unwrap_or(0);
            assert_eq!(tally.nonempty, want, "case {case}, user {user}");
            let want = mean(&mut latencies[user].iter());
            assert_eq!(tally.mean_latency_ms(), want, "case {case}, user {user}");
        }
        assert_eq!(s.total_answers(), answers.values().sum::<u64>());
        let all = mean(&mut latencies.values().flatten());
        assert_eq!(s.mean_latency_ms(), all, "case {case}");
    }
}
