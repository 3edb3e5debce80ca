//! Properties of the one JSON layer (`ttmqo::sim::json`) and everything
//! that writes or reads through it.
//!
//! * **Round trip, per report type**: render → `json::parse` succeeds →
//!   `flatten` yields exactly the expected leaf keys in writer order → every
//!   leaf equals the struct field it came from (integers exactly, floats by
//!   the bits of the rendered form). The expected leaves are spelled out
//!   here, independently of the writers, so a field dropped, reordered or
//!   re-typed on either side fails.
//! * **Never panic**: `json::parse`, `summarize_trace`, `trace_diff` and
//!   `chrome_trace` return a value or a typed error on arbitrary text and on
//!   our own documents with one byte deleted, flipped or duplicated.

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::TestRng;
use std::collections::BTreeMap;
use ttmqo::core::{CellRecord, OptimizerStats, Strategy as Tier};
use ttmqo::query::QueryId;
use ttmqo::sim::json::{self, JsonValue};
use ttmqo::sim::{
    chrome_trace, summarize_trace, trace_diff, trace_header, AuditCheck, AuditReport,
    AuditViolation, CompletenessReport, EngineStats, EpochRollup, MetricsSnapshot, MsgKind, NodeId,
    Probe, ProvenanceId, QueryCompleteness, Reception, TraceDest, TraceEvent, TraceRecord,
    TraceSummary, SCHEMA_VERSION,
};

// ---------------------------------------------------------------------------
// Value generators
// ---------------------------------------------------------------------------

/// Unsigned integers that stress exactness: small, around 2^53, near
/// `u64::MAX`.
fn uint(rng: &mut TestRng) -> u64 {
    match rng.sample(0..4u8) {
        0 => rng.sample(0..1000u64),
        1 => (1 << 53) + rng.sample(0..1000u64),
        2 => u64::MAX - rng.sample(0..1000u64),
        _ => rng.sample(0..=u64::MAX),
    }
}

/// Counts small enough to sum without overflow.
fn count(rng: &mut TestRng) -> u64 {
    rng.sample(0..1_000_000u64)
}

/// Floats that stress the shortest round-trip form: zeros, integral values,
/// long fractions, arbitrary bit patterns (non-finite ones included).
fn float(rng: &mut TestRng) -> f64 {
    match rng.sample(0..6u8) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.sample(0..100_000u64) as f64,
        3 => rng.sample(-1.0e6..1.0e6),
        4 => rng.sample(0.0..1.0) * 1e-9,
        _ => f64::from_bits(rng.sample(0..=u64::MAX)),
    }
}

/// Strings that stress escaping: quotes, backslashes, newlines, control
/// characters, non-ASCII.
fn text(rng: &mut TestRng) -> String {
    let len = rng.sample(0..12usize);
    (0..len)
        .map(|_| match rng.sample(0..8u8) {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => char::from(rng.sample(0..0x20u8)),
            _ => rng.sample_char(),
        })
        .collect()
}

fn flag(rng: &mut TestRng) -> bool {
    rng.sample(0..2u8) == 1
}

fn node(rng: &mut TestRng) -> NodeId {
    NodeId(rng.sample(0..=u16::MAX))
}

fn qids(rng: &mut TestRng) -> Vec<QueryId> {
    (0..rng.sample(0..4usize))
        .map(|_| QueryId(uint(rng)))
        .collect()
}

fn msg_kind(rng: &mut TestRng) -> MsgKind {
    MsgKind::ALL[rng.sample(0..MsgKind::ALL.len())]
}

fn tier(rng: &mut TestRng) -> Tier {
    Tier::ALL[rng.sample(0..Tier::ALL.len())]
}

fn vec_of<T>(rng: &mut TestRng, max: usize, mut item: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    (0..rng.sample(0..=max)).map(|_| item(rng)).collect()
}

fn arb<T>(build: impl Fn(&mut TestRng) -> T) -> impl Strategy<Value = T> {
    FnStrategy::new(build)
}

// ---------------------------------------------------------------------------
// Expected leaves
// ---------------------------------------------------------------------------

/// What one flattened leaf of a rendered report must be.
#[derive(Debug, Clone)]
enum Leaf {
    U(u64),
    /// Shortest round-trip float (`null` when non-finite).
    F(f64),
    S(String),
    B(bool),
    Null,
}

type Leaves = Vec<(String, Leaf)>;

fn u(key: &str, v: u64) -> (String, Leaf) {
    (key.to_string(), Leaf::U(v))
}
fn f(key: &str, v: f64) -> (String, Leaf) {
    (key.to_string(), Leaf::F(v))
}
fn s(key: &str, v: impl ToString) -> (String, Leaf) {
    (key.to_string(), Leaf::S(v.to_string()))
}
fn b(key: &str, v: bool) -> (String, Leaf) {
    (key.to_string(), Leaf::B(v))
}
fn null(key: &str) -> (String, Leaf) {
    (key.to_string(), Leaf::Null)
}
fn opt(key: &str, v: Option<Leaf>) -> (String, Leaf) {
    (key.to_string(), v.unwrap_or(Leaf::Null))
}
/// One leaf per array element: `key[0]`, `key[1]`, ...
fn each(key: &str, items: impl IntoIterator<Item = Leaf>) -> Leaves {
    let indexed = items.into_iter().enumerate();
    indexed
        .map(|(i, leaf)| (format!("{key}[{i}]"), leaf))
        .collect()
}
/// Prefixes every key with `prefix` (`"a."` for a nested object,
/// `"a[3]."` for an array element).
fn under(prefix: &str, leaves: Leaves) -> Leaves {
    let prefixed = leaves.into_iter();
    prefixed
        .map(|(k, leaf)| (format!("{prefix}{k}"), leaf))
        .collect()
}

/// Flattens a JSON value into `(dotted key, leaf)` pairs in document order:
/// object fields join with `.`, array elements get `[i]`; empty objects and
/// arrays produce no leaves.
fn flatten<'a>(value: &JsonValue<'a>) -> Vec<(String, JsonValue<'a>)> {
    fn walk<'a>(prefix: &str, value: &JsonValue<'a>, out: &mut Vec<(String, JsonValue<'a>)>) {
        match value {
            JsonValue::Obj(fields) => {
                for (k, v) in fields {
                    let dot = if prefix.is_empty() { "" } else { "." };
                    walk(&format!("{prefix}{dot}{k}"), v, out);
                }
            }
            JsonValue::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(&format!("{prefix}[{i}]"), v, out);
                }
            }
            leaf => out.push((prefix.to_string(), leaf.clone())),
        }
    }
    let mut out = Vec::new();
    walk("", value, &mut out);
    out
}

/// The round-trip property: `json` parses, and its flattened leaves are
/// exactly `expected`, in order.
fn check(json: &str, expected: &Leaves) -> Result<(), TestCaseError> {
    let doc = json::parse(json)
        .map_err(|e| TestCaseError::fail(format!("writer emitted malformed JSON: {e}\n{json}")))?;
    let got = flatten(&doc);
    let got_keys: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let want_keys: Vec<&str> = expected.iter().map(|(k, _)| k.as_str()).collect();
    prop_assert_eq!(got_keys, want_keys, "leaf keys of {}", json);
    for ((key, got), (_, want)) in got.iter().zip(expected) {
        let matches = match want {
            Leaf::U(n) => *got == JsonValue::Uint(*n),
            Leaf::F(x) if !x.is_finite() => *got == JsonValue::Null,
            Leaf::F(x) => got.as_f64().map(f64::to_bits) == Some(x.to_bits()),
            Leaf::S(text) => got.as_str() == Some(text),
            Leaf::B(flag) => got.as_bool() == Some(*flag),
            Leaf::Null => *got == JsonValue::Null,
        };
        prop_assert!(matches, "leaf {key}: got {got:?}, want {want:?}\n{json}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Report generators, each with the leaves its rendering must flatten to
// ---------------------------------------------------------------------------

fn trace_record(rng: &mut TestRng) -> (TraceRecord, Leaves) {
    let ids = |q: &[QueryId]| q.iter().map(|q| Leaf::U(q.0)).collect::<Vec<_>>();
    let (src, at, kind) = (node(rng), node(rng), msg_kind(rng));
    let (epoch_ms, a, c, d) = (uint(rng), uint(rng), uint(rng), uint(rng));
    let (flag_a, flag_b, latency_ms) = (flag(rng), flag(rng), count(rng));
    let (list, list2) = (qids(rng), qids(rng));
    let members = [vec![u("synthetic", a)], each("members", ids(&list))].concat();
    let reception = Reception {
        src,
        node: at,
        kind,
    };
    let frame = |extra: Leaves| {
        let mut leaves = vec![
            u("src", src.0 as u64),
            u("node", at.0 as u64),
            s("kind", kind),
        ];
        leaves.extend(extra);
        leaves
    };
    let at_node = |extra: Leaves| [vec![u("node", at.0 as u64)], extra].concat();
    let engine = TraceEvent::Engine;
    let (event, ev, fields): (TraceEvent, &str, Leaves) = match rng.sample(0..30u8) {
        0 => {
            let (dest, dest_leaves) = match rng.sample(0..3u8) {
                0 => (TraceDest::Broadcast, vec![s("dest", "broadcast")]),
                1 => (TraceDest::Unicast(at), vec![u("dest", at.0 as u64)]),
                _ => (
                    TraceDest::Multicast(at.0),
                    vec![s("dest", "multicast"), u("fanout", at.0 as u64)],
                ),
            };
            let bytes = rng.sample(0..4096usize);
            let mut leaves = vec![u("src", src.0 as u64), s("kind", kind)];
            leaves.extend(dest_leaves);
            leaves.extend([u("bytes", bytes as u64), u("airtime_us", a)]);
            let event = engine(Probe::Tx {
                node: src,
                kind,
                dest,
                bytes,
                airtime_us: a,
            });
            (event, "frame-tx", leaves)
        }
        1 => {
            let deferrals = rng.sample(0..=u32::MAX);
            (
                engine(Probe::CsmaDeferred {
                    node: at,
                    deferrals,
                    capped: flag_a,
                }),
                "csma-deferred",
                at_node(vec![u("deferrals", deferrals as u64), b("capped", flag_a)]),
            )
        }
        2 => (
            engine(Probe::Delivered {
                at: reception,
                intended: flag_a,
            }),
            "frame-delivered",
            frame(vec![b("intended", flag_a)]),
        ),
        3 => (
            engine(Probe::Collision(reception)),
            "frame-collision",
            frame(vec![]),
        ),
        4 => (engine(Probe::Lost(reception)), "frame-lost", frame(vec![])),
        5 => (
            engine(Probe::GaveUp(reception)),
            "frame-gave-up",
            frame(vec![]),
        ),
        6 => (
            engine(Probe::Missed {
                at: reception,
                asleep: flag_a,
            }),
            "frame-missed",
            frame(vec![b("asleep", flag_a)]),
        ),
        7 => {
            let retries_left = rng.sample(0..=u32::MAX);
            (
                engine(Probe::Retry {
                    at: reception,
                    retries_left,
                }),
                "frame-retry",
                frame(vec![u("retries_left", retries_left as u64)]),
            )
        }
        // A nap's, wake's or crash's retracted time is booked, not traced.
        8 => (
            engine(Probe::Sleep {
                node: at,
                duration_ms: a,
                pending_us: c,
            }),
            "sleep-start",
            at_node(vec![u("duration_ms", a)]),
        ),
        9 => (
            engine(Probe::Wake {
                node: at,
                pending_us: c,
            }),
            "wake",
            at_node(vec![]),
        ),
        10 => (
            engine(Probe::Crash {
                node: at,
                pending_us: c,
            }),
            "fault-crash",
            at_node(vec![]),
        ),
        11 => (
            engine(Probe::Recover { node: at }),
            "fault-recover",
            at_node(vec![]),
        ),
        // The four occurrences `Probes::emit` never traces, built by hand.
        12 => {
            let busy_ms = float(rng);
            (
                engine(Probe::Rx { node: at, busy_ms }),
                "rx",
                at_node(vec![f("busy_ms", busy_ms)]),
            )
        }
        13 => (engine(Probe::Sample), "sample", vec![]),
        14 => (
            engine(Probe::Orphaned { node: at }),
            "orphaned",
            at_node(vec![]),
        ),
        15 => (
            engine(Probe::Late { partials: flag_a }),
            "late",
            vec![b("partials", flag_a)],
        ),
        16 => {
            let mut leaves = vec![u("node", at.0 as u64), u("epoch_ms", epoch_ms)];
            leaves.extend(each("due", ids(&list)));
            let event = TraceEvent::EpochFire {
                node: at,
                epoch_ms,
                due: list,
            };
            (event, "epoch-fire", leaves)
        }
        17 => {
            let mut leaves = vec![u("node", at.0 as u64), u("epoch_ms", epoch_ms)];
            leaves.extend(each("acq", ids(&list)));
            leaves.extend(each("agg", ids(&list2)));
            let event = TraceEvent::SharedAcquisition {
                node: at,
                epoch_ms,
                acq: list,
                agg: list2,
            };
            (event, "shared-acquisition", leaves)
        }
        18 => {
            let to = vec_of(rng, 3, node);
            let prov = vec_of(rng, 3, |rng| ProvenanceId::new(node(rng), uint(rng) >> 16));
            let mut leaves = vec![u("from", src.0 as u64)];
            leaves.extend(each("to", to.iter().map(|n| Leaf::U(n.0 as u64))));
            leaves.push(u("epoch_ms", epoch_ms));
            leaves.extend(each("prov", prov.iter().map(|p| Leaf::U(p.0))));
            leaves.extend(each("qids", ids(&list)));
            leaves.push(b("origin", flag_a));
            let event = TraceEvent::ResultHop {
                from: src,
                to,
                epoch_ms,
                prov,
                qids: list,
                origin: flag_a,
            };
            (event, "result-hop", leaves)
        }
        19 => {
            let prov = ProvenanceId::new(at, a >> 16);
            let mut leaves = vec![u("prov", prov.0)];
            leaves.extend(each("qids", ids(&list)));
            leaves.push(u("epoch_ms", epoch_ms));
            let event = TraceEvent::ResultDelivered {
                prov,
                qids: list,
                epoch_ms,
            };
            (event, "result-delivered", leaves)
        }
        20 => (
            TraceEvent::NoRouteResignation { node: at, epoch_ms },
            "no-route",
            vec![u("node", at.0 as u64), u("epoch_ms", epoch_ms)],
        ),
        21 => (
            TraceEvent::ParentDead {
                node: at,
                parent: src,
            },
            "parent-dead",
            vec![u("node", at.0 as u64), u("parent", src.0 as u64)],
        ),
        22 => {
            let rate = float(rng);
            let rate_leaf = if rate.is_finite() {
                f("rate", rate)
            } else {
                s("rate", "inf")
            };
            (
                TraceEvent::Tier1Eval {
                    probe: QueryId(a),
                    candidate: QueryId(c),
                    rate,
                },
                "tier1-eval",
                vec![u("probe", a), u("candidate", c), rate_leaf],
            )
        }
        23 => (
            TraceEvent::Tier1Merge {
                probe: QueryId(a),
                candidate: QueryId(c),
                merged: QueryId(d),
            },
            "tier1-merge",
            vec![u("probe", a), u("candidate", c), u("merged", d)],
        ),
        24 => (
            TraceEvent::Tier1Covered {
                probe: QueryId(a),
                covered_by: QueryId(c),
            },
            "tier1-covered",
            vec![u("probe", a), u("covered_by", c)],
        ),
        25 => (
            TraceEvent::Tier1Install {
                synthetic: QueryId(a),
                members: list,
            },
            "tier1-install",
            members,
        ),
        26 => (
            TraceEvent::Tier1Reoptimize {
                synthetic: QueryId(a),
                members: list,
            },
            "tier1-reoptimize",
            members,
        ),
        27 => (
            TraceEvent::Tier1Reindex {
                synthetic: QueryId(a),
                members: list,
            },
            "tier1-reindex",
            members,
        ),
        28 => (
            TraceEvent::Tier1Remove {
                user: QueryId(a),
                synthetic: QueryId(c),
                emptied: flag_a,
                rebuilt: flag_b,
            },
            "tier1-remove",
            vec![
                u("user", a),
                u("synthetic", c),
                b("emptied", flag_a),
                b("rebuilt", flag_b),
            ],
        ),
        _ => (
            TraceEvent::AnswerMapped {
                user: QueryId(a),
                synthetic: QueryId(c),
                epoch_ms,
                rows: d,
                nonempty: flag_a,
                latency_ms,
            },
            "answer-mapped",
            vec![
                u("user", a),
                u("synthetic", c),
                u("epoch_ms", epoch_ms),
                u("rows", d),
                b("nonempty", flag_a),
                u("latency_ms", latency_ms),
            ],
        ),
    };
    let record = TraceRecord {
        time_us: uint(rng),
        event,
    };
    let mut leaves = vec![u("t", record.time_us), s("ev", ev)];
    leaves.extend(fields);
    (record, leaves)
}

fn trace_summary(rng: &mut TestRng) -> (TraceSummary, Leaves) {
    let queries: Vec<u64> = vec_of(rng, 3, uint);
    let mut summary = TraceSummary {
        schema_version: flag(rng).then_some(SCHEMA_VERSION),
        events: uint(rng),
        by_kind: vec_of(rng, 3, |rng| (text(rng), uint(rng)))
            .into_iter()
            .collect(),
        hop_distribution: vec_of(rng, 3, |rng| (uint(rng), uint(rng)))
            .into_iter()
            .collect(),
        rollups: vec_of(rng, 3, |rng| EpochRollup {
            epoch_ms: uint(rng),
            tx: uint(rng),
            collisions: uint(rng),
            losses: uint(rng),
            retries: uint(rng),
            sleeps: uint(rng),
            rows_delivered: uint(rng),
            answers: uint(rng),
            nonempty_answers: uint(rng),
        }),
        malformed_lines: rng.sample(0..2u64),
        truncated_tail: flag(rng),
        ..TraceSummary::default()
    };
    for q in &queries {
        summary.answers_per_query.insert(*q, uint(rng));
        if flag(rng) {
            summary.nonempty_per_query.insert(*q, uint(rng));
        }
        if flag(rng) {
            let samples = vec_of(rng, 4, count);
            summary.latency_ms_per_query.insert(*q, samples);
        }
    }
    let mut leaves = vec![
        u("schema_version", SCHEMA_VERSION as u64),
        opt(
            "trace_schema_version",
            summary.schema_version.map(|v| Leaf::U(v as u64)),
        ),
        u("events", summary.events),
        u("malformed_lines", summary.malformed_lines),
        b("truncated_tail", summary.truncated_tail),
        b("lossless", summary.is_lossless()),
    ];
    for (kind, n) in &summary.by_kind {
        leaves.push(u(&format!("by_kind.{kind}"), *n));
    }
    for (i, (query, answers)) in summary.answers_per_query.iter().enumerate() {
        let latencies = summary.latency_ms_per_query.get(query);
        let latencies = latencies.map_or(&[][..], Vec::as_slice);
        let mean = (!latencies.is_empty())
            .then(|| Leaf::F(latencies.iter().sum::<u64>() as f64 / latencies.len() as f64));
        leaves.extend(under(
            &format!("queries[{i}]."),
            vec![
                u("query", *query),
                u("answers", *answers),
                u(
                    "nonempty",
                    summary.nonempty_per_query.get(query).copied().unwrap_or(0),
                ),
                u("latency.count", latencies.len() as u64),
                opt("latency.mean_ms", mean),
            ],
        ));
    }
    for (hops, n) in &summary.hop_distribution {
        leaves.push(u(&format!("hop_distribution.{hops}"), *n));
    }
    for (i, r) in summary.rollups.iter().enumerate() {
        leaves.extend(under(
            &format!("rollups[{i}]."),
            vec![
                u("epoch_ms", r.epoch_ms),
                u("tx", r.tx),
                u("collisions", r.collisions),
                u("losses", r.losses),
                u("retries", r.retries),
                u("sleeps", r.sleeps),
                u("rows_delivered", r.rows_delivered),
                u("answers", r.answers),
                u("nonempty_answers", r.nonempty_answers),
            ],
        ));
    }
    (summary, leaves)
}

fn audit_report(rng: &mut TestRng) -> (AuditReport, Leaves) {
    let report = AuditReport {
        checks_run: rng.sample(0..=u32::MAX),
        checks_skipped: rng.sample(0..=u32::MAX),
        violations: vec_of(rng, 3, |rng| AuditViolation {
            check: AuditCheck::ALL[rng.sample(0..AuditCheck::ALL.len())],
            subject: text(rng),
            expected: text(rng),
            actual: text(rng),
        }),
    };
    let mut leaves = vec![
        u("schema_version", SCHEMA_VERSION as u64),
        u("checks_run", report.checks_run as u64),
        u("checks_skipped", report.checks_skipped as u64),
    ];
    for (i, v) in report.violations.iter().enumerate() {
        leaves.extend(under(
            &format!("violations[{i}]."),
            vec![
                s("check", v.check.name()),
                s("subject", &v.subject),
                s("expected", &v.expected),
                s("actual", &v.actual),
            ],
        ));
    }
    (report, leaves)
}

fn kind_counts(rng: &mut TestRng) -> BTreeMap<MsgKind, u64> {
    vec_of(rng, 3, |rng| (msg_kind(rng), uint(rng)))
        .into_iter()
        .collect()
}

fn cell_record(rng: &mut TestRng) -> (CellRecord, Leaves) {
    let per_query = vec_of(rng, 3, |rng| {
        let completeness = QueryCompleteness {
            expected_epochs: count(rng),
            answered_epochs: count(rng),
            expected_rows: count(rng),
            delivered_rows: count(rng),
        };
        (QueryId(uint(rng)), completeness)
    });
    let (audit, audit_leaves) = audit_report(rng);
    let record = CellRecord {
        workload: text(rng),
        strategy: tier(rng),
        grid_n: rng.sample(0..100usize),
        field_seed: uint(rng),
        fault: text(rng),
        wall_clock_ms: float(rng),
        workload_events: rng.sample(0..1000usize),
        queries_answered: rng.sample(0..1000usize),
        answer_epochs: rng.sample(0..1_000_000usize),
        avg_synthetic_count: float(rng),
        avg_benefit_ratio: float(rng),
        optimizer: flag(rng).then(|| OptimizerStats {
            inserted: uint(rng),
            terminated: uint(rng),
            injections: uint(rng),
            abortions: uint(rng),
            absorbed_insertions: uint(rng),
            absorbed_terminations: uint(rng),
            reoptimizations: uint(rng),
        }),
        completeness: CompletenessReport {
            per_query: per_query.into_iter().collect(),
            repairs_triggered: count(rng),
            repair_latency_ms: vec_of(rng, 3, count),
        },
        metrics: MetricsSnapshot {
            avg_transmission_time_pct: float(rng),
            total_tx_busy_ms: float(rng),
            total_rx_busy_ms: float(rng),
            total_sleep_ms: float(rng),
            tx_count: kind_counts(rng),
            tx_bytes: kind_counts(rng),
            retransmissions: uint(rng),
            collisions: uint(rng),
            losses: uint(rng),
            gave_up: uint(rng),
            orphaned_drops: uint(rng),
            orphaned_nodes: uint(rng),
            samples: uint(rng),
            horizon_ms: uint(rng),
        },
        engine: EngineStats {
            events_processed: count(rng),
            frames_total: uint(rng),
            frame_slab_high_water: rng.sample(0..10_000usize),
            frames_in_flight: rng.sample(0..10_000usize),
            csma_capped_deferrals: uint(rng),
            timer_events: count(rng),
            deliver_events: count(rng),
            command_events: count(rng),
            maintenance_events: count(rng),
            fault_events: count(rng),
        },
        trace_file: flag(rng).then(|| text(rng)),
        energy_mj: float(rng),
        max_node_energy_mj: float(rng),
        audit: flag(rng).then_some(audit),
    };
    let (c, m, e) = (&record.completeness, &record.metrics, &record.engine);
    let mut leaves = vec![
        u("schema_version", SCHEMA_VERSION as u64),
        s("workload", &record.workload),
        s("strategy", record.strategy),
        u("grid_n", record.grid_n as u64),
        u("field_seed", record.field_seed),
        s("fault", &record.fault),
        u("workload_events", record.workload_events as u64),
        u("queries_answered", record.queries_answered as u64),
        u("answer_epochs", record.answer_epochs as u64),
        f("avg_synthetic_count", record.avg_synthetic_count),
        f("avg_benefit_ratio", record.avg_benefit_ratio),
        f("energy_mj", record.energy_mj),
        f("max_node_energy_mj", record.max_node_energy_mj),
    ];
    match &record.optimizer {
        None => leaves.push(null("optimizer")),
        Some(o) => leaves.extend(under(
            "optimizer.",
            vec![
                u("inserted", o.inserted),
                u("terminated", o.terminated),
                u("injections", o.injections),
                u("abortions", o.abortions),
                u("absorbed_insertions", o.absorbed_insertions),
                u("absorbed_terminations", o.absorbed_terminations),
            ],
        )),
    }
    leaves.extend(under(
        "completeness.",
        vec![
            f("min_epoch_ratio", c.min_epoch_ratio()),
            f("min_row_ratio", c.min_row_ratio()),
            u("delivered_rows", c.delivered_rows()),
            u("repairs_triggered", c.repairs_triggered),
            opt(
                "mean_repair_latency_ms",
                c.mean_repair_latency_ms().map(Leaf::F),
            ),
        ],
    ));
    let mut metrics = vec![
        f("avg_transmission_time_pct", m.avg_transmission_time_pct),
        f("total_tx_busy_ms", m.total_tx_busy_ms),
        f("total_rx_busy_ms", m.total_rx_busy_ms),
        f("total_sleep_ms", m.total_sleep_ms),
    ];
    for (kind, n) in &m.tx_count {
        metrics.push(u(&format!("tx_count.{kind}"), *n));
    }
    for (kind, n) in &m.tx_bytes {
        metrics.push(u(&format!("tx_bytes.{kind}"), *n));
    }
    metrics.extend([
        u("retransmissions", m.retransmissions),
        u("collisions", m.collisions),
        u("losses", m.losses),
        u("gave_up", m.gave_up),
        u("orphaned_drops", m.orphaned_drops),
        u("orphaned_nodes", m.orphaned_nodes),
        u("samples", m.samples),
        u("horizon_ms", m.horizon_ms),
    ]);
    leaves.extend(under("metrics.", metrics));
    leaves.extend(under(
        "engine.",
        vec![
            u("events_processed", e.events_processed),
            u("frames_total", e.frames_total),
            u("frame_slab_high_water", e.frame_slab_high_water as u64),
            u("frames_in_flight", e.frames_in_flight as u64),
            u("csma_capped_deferrals", e.csma_capped_deferrals),
            u("timer_events", e.timer_events),
            u("deliver_events", e.deliver_events),
            u("command_events", e.command_events),
            u("maintenance_events", e.maintenance_events),
            u("fault_events", e.fault_events),
        ],
    ));
    leaves.extend(record.trace_file.as_ref().map(|name| s("trace_file", name)));
    if record.audit.is_some() {
        leaves.extend(under("audit.", audit_leaves));
    }
    (record, leaves)
}

proptest! {
    #[test]
    fn trace_record_round_trips(case in arb(trace_record)) {
        check(&case.0.to_json(), &case.1)?;
    }

    #[test]
    fn trace_summary_round_trips(case in arb(trace_summary)) {
        check(&case.0.to_json(), &case.1)?;
    }

    #[test]
    fn audit_report_round_trips(case in arb(audit_report)) {
        check(&case.0.to_json(), &case.1)?;
    }

    #[test]
    fn cell_record_round_trips(case in arb(cell_record)) {
        let rendered = case.0.to_json();
        check(&rendered, &case.1)?;
        // Host time is read in process, never written.
        let doc = json::parse(&rendered).expect("checked above");
        prop_assert!(doc.get("wall_clock_ms").is_none());
    }
}

// ---------------------------------------------------------------------------
// Never panic
// ---------------------------------------------------------------------------

/// Every reader, fed one text. Returning at all is the property.
fn feed_every_reader(text: &str, other: &str) {
    let _ = json::parse(text);
    if let Ok(summary) = summarize_trace(text) {
        let _ = summary.to_json();
        let _ = summary.mean_latency_ms();
    }
    let _ = trace_diff(text, other, 2);
    let _ = trace_diff(other, text, 0);
    let _ = chrome_trace(text);
}

/// One of our own documents, picked and filled at random.
fn own_document(rng: &mut TestRng) -> String {
    match rng.sample(0..4u8) {
        0 | 1 => {
            let mut text = trace_header();
            text.push('\n');
            for _ in 0..rng.sample(1..12usize) {
                text.push_str(&trace_record(rng).0.to_json());
                text.push('\n');
            }
            text
        }
        2 => cell_record(rng).0.to_json(),
        _ => trace_summary(rng).0.to_json(),
    }
}

/// `doc` with one byte deleted, flipped or duplicated (made valid UTF-8
/// again, since the readers take `&str`).
fn mutated(rng: &mut TestRng, doc: &str) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let at = rng.sample(0..bytes.len());
    match rng.sample(0..3u8) {
        0 => {
            bytes.remove(at);
        }
        1 => bytes[at] ^= 1 << rng.sample(0..8u8),
        _ => bytes.insert(at, bytes[at]),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Text drawn mostly from JSON's own alphabet, so the parser gets past the
/// first byte: structural characters, digits, keywords, escapes, the field
/// names the readers look for, and arbitrary characters.
fn json_soup(rng: &mut TestRng) -> String {
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "\\u",
        "\\ud800",
        "\n",
        " ",
        "-",
        "+",
        ".",
        "e",
        "E",
        "0",
        "1",
        "9",
        "18446744073709551615",
        "18446744073709551616",
        "1e999",
        "true",
        "false",
        "null",
        "\"ev\"",
        "\"t\"",
        "\"prov\"",
        "\"schema_version\"",
        "\"phases\"",
        "\"name\"",
        "\"wall_us\"",
        "\"events\"",
        "\"answer-mapped\"",
        "\"result-hop\"",
        "\"result-delivered\"",
        "\"frame-tx\"",
        "\"user\"",
        "\"latency_ms\"",
        "\"epoch_ms\"",
        "\"deliver\"",
    ];
    (0..rng.sample(0..40usize))
        .map(|_| match rng.sample(0..8u8) {
            0 => rng.sample_char().to_string(),
            _ => TOKENS[rng.sample(0..TOKENS.len())].to_string(),
        })
        .collect()
}

proptest! {
    #[test]
    fn readers_never_panic_on_arbitrary_text(text in ".{0,200}", soup in arb(json_soup), other in arb(json_soup)) {
        feed_every_reader(&text, &other);
        feed_every_reader(&soup, &other);
    }

    #[test]
    fn readers_never_panic_on_our_documents_with_one_byte_damaged(
        case in arb(|rng| {
            let doc = own_document(rng);
            (mutated(rng, &doc), doc)
        })
    ) {
        let (damaged, doc) = case;
        feed_every_reader(&doc, &damaged);
        feed_every_reader(&damaged, &doc);
    }
}

#[test]
fn deep_nesting_is_a_typed_error_in_every_reader() {
    for open in ["[", "{\"a\":", "{\"ev\":\"frame-tx\",\"t\":["] {
        let deep = open.repeat(2_000_000);
        assert!(json::parse(&deep).is_err());
        feed_every_reader(&deep, "[]");
        let summary = summarize_trace(&format!("{deep}\n")).expect("no schema error");
        assert_eq!((summary.events, summary.malformed_lines), (0, 1));
    }
}

#[test]
fn a_truncated_tail_is_dropped_not_misread() {
    let mut rng = TestRng::for_case(1);
    let mut text = trace_header();
    text.push('\n');
    let records: Vec<String> = (0..5).map(|_| trace_record(&mut rng).0.to_json()).collect();
    for r in &records {
        text.push_str(r);
        text.push('\n');
    }
    // Cut anywhere inside the last record: the four complete ones survive.
    let last_start = text.len() - records[4].len() - 1;
    for cut in last_start + 1..text.len() - 2 {
        if !text.is_char_boundary(cut) {
            continue;
        }
        let summary = summarize_trace(&text[..cut]).expect("same schema");
        assert!(summary.truncated_tail, "cut at {cut}");
        assert_eq!((summary.events, summary.malformed_lines), (4, 0));
        let diff = trace_diff(&text, &text[..cut], 1);
        assert!(diff.truncated_b && !diff.truncated_a);
        assert_eq!((diff.records_a, diff.records_b), (5, 4));
        feed_every_reader(&text[..cut], &text);
    }
}
