//! Structured event tracing: the observability layer under every experiment.
//!
//! A [`TraceSink`] receives one [`TraceRecord`] per significant simulation
//! event — frame transmit/deliver/collision/loss/retry, CSMA deferrals,
//! epoch firings and shared-acquisition hits, routing events (parent death,
//! no-route resignation), sleep transitions, fault injections, Tier-1
//! `Beneficial` evaluations and merge/reoptimize decisions, and base-station
//! answer mapping. The engine's events arrive through the probe seam, the
//! applications', Tier 1's and the runner's through
//! [`TraceHandle::emit_with`]; the default handle is disabled, and tracing
//! keeps the observer contract stated on [`Observe`](crate::Observe).
//!
//! # Provenance
//!
//! Result rows already carry their origin node and epoch on the wire
//! (`RowEntry.node` + the frame's `epoch_ms`), so a [`ProvenanceId`] —
//! origin node and epoch packed into one `u64` — identifies a sample without
//! any wire-format change. Every hop a row takes emits a
//! [`TraceEvent::ResultHop`] listing the provenance ids it carries; the base
//! station's ingestion emits [`TraceEvent::ResultDelivered`] and the
//! experiment runner's answer mapping emits [`TraceEvent::AnswerMapped`].
//! An analyzer can therefore reconstruct the full path of any sample —
//! acquisition → hops → base station → per-user-query answer — and derive
//! per-query answer latency and hop-count distributions
//! ([`summarize_trace`]).
//!
//! # Formats
//!
//! [`JsonLinesSink`] writes one JSON object per record after a header line
//! carrying [`SCHEMA_VERSION`]; [`RingSink`] keeps every record in memory
//! for tests. [`summarize_trace`], [`chrome_trace`] and
//! [`trace_diff`](diff::trace_diff) read the JSON-lines text through one
//! line decoder. Writer and reader are the workspace's one
//! [JSON layer](crate::json).

pub mod diff;

use crate::json::{self, JsonValue};
use crate::probe::{Probe, Reception};
use crate::topology::NodeId;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};
use ttmqo_query::{QueryId, BASE_EPOCH_MS};

/// Version of the workspace's machine-readable reports: the trace
/// JSON-lines header, trace summaries, cell records, audit reports and flood
/// rows carry it as `schema_version`. This constant is the single source of
/// truth — bump it here (and document the change in DESIGN.md §11) whenever
/// any report's field set changes shape.
pub const SCHEMA_VERSION: u32 = 4;

/// Identity of one sensed sample: origin node and epoch start packed into a
/// `u64` (`node << 48 | epoch_ms`). Rows already carry both on the wire, so
/// provenance needs no wire-format change; epochs fit 48 bits for any run
/// under ~8900 simulated years.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProvenanceId(pub u64);

impl ProvenanceId {
    /// Packs an origin node and epoch start (ms) into a provenance id.
    pub fn new(origin: NodeId, epoch_ms: u64) -> Self {
        debug_assert!(epoch_ms < (1u64 << 48), "epoch overflows provenance id");
        ProvenanceId(((origin.0 as u64) << 48) | (epoch_ms & ((1u64 << 48) - 1)))
    }

    /// The node that sensed the sample.
    pub fn origin(&self) -> NodeId {
        NodeId((self.0 >> 48) as u16)
    }

    /// Start of the epoch the sample belongs to, ms.
    pub fn epoch_ms(&self) -> u64 {
        self.0 & ((1u64 << 48) - 1)
    }
}

/// Where a transmission was addressed (a compact mirror of
/// [`Destination`](crate::Destination) for trace records: multicast member
/// lists are reduced to a count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDest {
    /// All in-range nodes process the frame.
    Broadcast,
    /// One addressed receiver (acknowledged, retried).
    Unicast(NodeId),
    /// A set of addressed receivers, reduced to its size.
    Multicast(u16),
}

/// One structured trace event. The taxonomy spans all three layers: the
/// engine (frames, sleep, faults), the in-network tier (epochs, acquisition,
/// routing) and the base-station tier (rewriting, answer mapping).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An engine occurrence — a frame on the air, at a receiver, retried or
    /// abandoned; a CSMA deferral; a nap or an early wake; a crash or a
    /// recovery — traced as the [`Probe`] the engine booked it with.
    Engine(Probe),
    /// The shared clock fired with at least one due query (§3.2.1).
    EpochFire {
        /// Firing node.
        node: NodeId,
        /// Epoch start, ms.
        epoch_ms: u64,
        /// Queries due at this firing.
        due: Vec<QueryId>,
    },
    /// Shared data acquisition: one sample batch served several queries.
    SharedAcquisition {
        /// Sampling node.
        node: NodeId,
        /// Epoch start, ms.
        epoch_ms: u64,
        /// Acquisition queries matched by the readings.
        acq: Vec<QueryId>,
        /// Aggregation queries matched by the readings.
        agg: Vec<QueryId>,
    },
    /// A result frame hop: origin transmission or relay toward the base
    /// station.
    ResultHop {
        /// Sending node (origin or relay).
        from: NodeId,
        /// Elected parents the frame is addressed to.
        to: Vec<NodeId>,
        /// Epoch the carried results belong to, ms.
        epoch_ms: u64,
        /// Provenance of every carried row (empty for aggregation partials,
        /// whose per-origin identity is merged away by TAG).
        prov: Vec<ProvenanceId>,
        /// Queries the frame serves.
        qids: Vec<QueryId>,
        /// Whether the sender sensed the data itself (origin hop).
        origin: bool,
    },
    /// A result row reached the base station's buffers.
    ResultDelivered {
        /// Provenance of the delivered row.
        prov: ProvenanceId,
        /// User-visible queries the row was accepted for.
        qids: Vec<QueryId>,
        /// Epoch the row belongs to, ms.
        epoch_ms: u64,
    },
    /// A node with data but no live route resigned for this epoch
    /// (broadcast `NoRoute`).
    NoRouteResignation {
        /// Orphaned node.
        node: NodeId,
        /// Epoch it could not serve, ms.
        epoch_ms: u64,
    },
    /// The parent failure detector crossed its threshold: `parent` is now
    /// excluded from routing and the next send re-elects around it.
    ParentDead {
        /// Detecting node.
        node: NodeId,
        /// Presumed-dead parent.
        parent: NodeId,
    },
    /// Tier 1 evaluated `Beneficial(probe, candidate)` while inserting.
    Tier1Eval {
        /// The query being inserted (user query or merged synthetic).
        probe: QueryId,
        /// The running synthetic query scored against.
        candidate: QueryId,
        /// The benefit rate (≥ 1.0 means covered).
        rate: f64,
    },
    /// Tier 1 merged the probe into a running synthetic query and re-inserts
    /// the merger (Algorithm 1's recursive step).
    Tier1Merge {
        /// The probe that merged.
        probe: QueryId,
        /// The synthetic query it merged with.
        candidate: QueryId,
        /// Fresh id of the merged synthetic query.
        merged: QueryId,
    },
    /// Tier 1 found the probe covered by a running synthetic query.
    Tier1Covered {
        /// The covered probe.
        probe: QueryId,
        /// The synthetic query that already provides its data.
        covered_by: QueryId,
    },
    /// Tier 1 installed a synthetic query (no beneficial rewrite found).
    Tier1Install {
        /// The installed synthetic query.
        synthetic: QueryId,
        /// Its member user queries.
        members: Vec<QueryId>,
    },
    /// Tier 1 rebuilt a synthetic query after persistent missing results.
    Tier1Reoptimize {
        /// The rebuilt synthetic query's (old) id.
        synthetic: QueryId,
        /// The member user queries re-inserted under fresh ids.
        members: Vec<QueryId>,
    },
    /// Tier 1 detached a departing user query from its synthetic query.
    Tier1Remove {
        /// The departing user query.
        user: QueryId,
        /// The synthetic query it was detached from.
        synthetic: QueryId,
        /// Whether the synthetic lost its last member (and is uninstalled).
        emptied: bool,
        /// Whether the shrunk synthetic stopped being beneficial and its
        /// surviving members are re-inserted (see `Tier1Reindex`).
        rebuilt: bool,
    },
    /// Survivors re-admitted after an α tear-down: a departure failed
    /// Algorithm 2's α-test, Tier 1 dissolved the synthetic query and ran
    /// each surviving member back through Algorithm 1. No index is involved;
    /// the wire name `tier1-reindex` is kept so the trace schema does not
    /// change.
    Tier1Reindex {
        /// The dissolved synthetic query's (old) id.
        synthetic: QueryId,
        /// The surviving member user queries re-inserted under fresh ids.
        members: Vec<QueryId>,
    },
    /// The base station mapped a synthetic answer back to a user query.
    AnswerMapped {
        /// The user query served.
        user: QueryId,
        /// The synthetic query that produced the answer (== `user` for
        /// strategies without tier 1).
        synthetic: QueryId,
        /// The answered epoch's start, ms.
        epoch_ms: u64,
        /// Result rows in the mapped answer (0 for aggregates).
        rows: u64,
        /// Whether the mapped answer carried any data.
        nonempty: bool,
        /// Emission delay past the epoch start, ms.
        latency_ms: u64,
    },
}

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulation time of the event, µs.
    pub time_us: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders the record as one JSON object (one line of the trace file).
    /// Field order is fixed, floats use shortest-roundtrip formatting, so a
    /// deterministic run renders a byte-identical trace.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.u64("t", self.time_us);
            self.event.write(o);
        })
    }
}

impl TraceEvent {
    /// Writes the `ev` kind tag and the event's fields.
    fn write(&self, o: &mut json::Obj<'_>) {
        match self {
            TraceEvent::Engine(probe) => write_probe(probe, o),
            TraceEvent::EpochFire {
                node,
                epoch_ms,
                due,
            } => {
                o.str("ev", "epoch-fire");
                o.u64("node", node.0 as u64);
                o.u64("epoch_ms", *epoch_ms);
                o.u64s("due", due.iter().map(|q| q.0));
            }
            TraceEvent::SharedAcquisition {
                node,
                epoch_ms,
                acq,
                agg,
            } => {
                o.str("ev", "shared-acquisition");
                o.u64("node", node.0 as u64);
                o.u64("epoch_ms", *epoch_ms);
                o.u64s("acq", acq.iter().map(|q| q.0));
                o.u64s("agg", agg.iter().map(|q| q.0));
            }
            TraceEvent::ResultHop {
                from,
                to,
                epoch_ms,
                prov,
                qids,
                origin,
            } => {
                o.str("ev", "result-hop");
                o.u64("from", from.0 as u64);
                o.u64s("to", to.iter().map(|n| n.0 as u64));
                o.u64("epoch_ms", *epoch_ms);
                o.u64s("prov", prov.iter().map(|p| p.0));
                o.u64s("qids", qids.iter().map(|q| q.0));
                o.bool("origin", *origin);
            }
            TraceEvent::ResultDelivered {
                prov,
                qids,
                epoch_ms,
            } => {
                o.str("ev", "result-delivered");
                o.u64("prov", prov.0);
                o.u64s("qids", qids.iter().map(|q| q.0));
                o.u64("epoch_ms", *epoch_ms);
            }
            TraceEvent::NoRouteResignation { node, epoch_ms } => {
                o.str("ev", "no-route");
                o.u64("node", node.0 as u64);
                o.u64("epoch_ms", *epoch_ms);
            }
            TraceEvent::ParentDead { node, parent } => {
                o.str("ev", "parent-dead");
                o.u64("node", node.0 as u64);
                o.u64("parent", parent.0 as u64);
            }
            TraceEvent::Tier1Eval {
                probe,
                candidate,
                rate,
            } => {
                o.str("ev", "tier1-eval");
                o.u64("probe", probe.0);
                o.u64("candidate", candidate.0);
                if rate.is_finite() {
                    o.f64("rate", *rate);
                } else {
                    // JSON has no infinity; a non-finite rate is a string.
                    o.str("rate", "inf");
                }
            }
            TraceEvent::Tier1Merge {
                probe,
                candidate,
                merged,
            } => {
                o.str("ev", "tier1-merge");
                o.u64("probe", probe.0);
                o.u64("candidate", candidate.0);
                o.u64("merged", merged.0);
            }
            TraceEvent::Tier1Covered { probe, covered_by } => {
                o.str("ev", "tier1-covered");
                o.u64("probe", probe.0);
                o.u64("covered_by", covered_by.0);
            }
            TraceEvent::Tier1Install { synthetic, members } => {
                write_members(o, "tier1-install", *synthetic, members)
            }
            TraceEvent::Tier1Reoptimize { synthetic, members } => {
                write_members(o, "tier1-reoptimize", *synthetic, members)
            }
            TraceEvent::Tier1Reindex { synthetic, members } => {
                write_members(o, "tier1-reindex", *synthetic, members)
            }
            TraceEvent::Tier1Remove {
                user,
                synthetic,
                emptied,
                rebuilt,
            } => {
                o.str("ev", "tier1-remove");
                o.u64("user", user.0);
                o.u64("synthetic", synthetic.0);
                o.bool("emptied", *emptied);
                o.bool("rebuilt", *rebuilt);
            }
            TraceEvent::AnswerMapped {
                user,
                synthetic,
                epoch_ms,
                rows,
                nonempty,
                latency_ms,
            } => {
                o.str("ev", "answer-mapped");
                o.u64("user", user.0);
                o.u64("synthetic", synthetic.0);
                o.u64("epoch_ms", *epoch_ms);
                o.u64("rows", *rows);
                o.bool("nonempty", *nonempty);
                o.u64("latency_ms", *latency_ms);
            }
        }
    }
}

/// A synthetic query and its members, under the kind tag `ev`.
fn write_members(o: &mut json::Obj<'_>, ev: &str, synthetic: QueryId, members: &[QueryId]) {
    o.str("ev", ev);
    o.u64("synthetic", synthetic.0);
    o.u64s("members", members.iter().map(|q| q.0));
}

/// Writes an engine occurrence's `ev` kind tag and fields: the one place a
/// [`Probe`] becomes a trace line. `Probes::emit` never hands over `Rx`,
/// `Sample`, `Orphaned` or `Late`; they are written only when built by hand.
fn write_probe(probe: &Probe, o: &mut json::Obj<'_>) {
    let at_node = |o: &mut json::Obj<'_>, ev: &str, node: NodeId| {
        o.str("ev", ev);
        o.u64("node", node.0 as u64);
    };
    let reception = |o: &mut json::Obj<'_>, ev: &str, at: &Reception| {
        o.str("ev", ev);
        o.u64("src", at.src.0 as u64);
        o.u64("node", at.node.0 as u64);
        o.str("kind", &at.kind.to_string());
    };
    match probe {
        Probe::Tx {
            node,
            kind,
            dest,
            bytes,
            airtime_us,
        } => {
            o.str("ev", "frame-tx");
            o.u64("src", node.0 as u64);
            o.str("kind", &kind.to_string());
            match dest {
                TraceDest::Broadcast => o.str("dest", "broadcast"),
                TraceDest::Unicast(n) => o.u64("dest", n.0 as u64),
                TraceDest::Multicast(k) => {
                    o.str("dest", "multicast");
                    o.u64("fanout", *k as u64);
                }
            }
            o.u64("bytes", *bytes as u64);
            o.u64("airtime_us", *airtime_us);
        }
        Probe::CsmaDeferred {
            node,
            deferrals,
            capped,
        } => {
            at_node(o, "csma-deferred", *node);
            o.u64("deferrals", *deferrals as u64);
            o.bool("capped", *capped);
        }
        Probe::Delivered { at, intended } => {
            reception(o, "frame-delivered", at);
            o.bool("intended", *intended);
        }
        Probe::Collision(at) => reception(o, "frame-collision", at),
        Probe::Lost(at) => reception(o, "frame-lost", at),
        Probe::Missed { at, asleep } => {
            reception(o, "frame-missed", at);
            o.bool("asleep", *asleep);
        }
        Probe::Retry { at, retries_left } => {
            reception(o, "frame-retry", at);
            o.u64("retries_left", *retries_left as u64);
        }
        Probe::GaveUp(at) => reception(o, "frame-gave-up", at),
        Probe::Sleep {
            node, duration_ms, ..
        } => {
            at_node(o, "sleep-start", *node);
            o.u64("duration_ms", *duration_ms);
        }
        Probe::Wake { node, .. } => at_node(o, "wake", *node),
        Probe::Crash { node, .. } => at_node(o, "fault-crash", *node),
        Probe::Recover { node } => at_node(o, "fault-recover", *node),
        Probe::Rx { node, busy_ms } => {
            at_node(o, "rx", *node);
            o.f64("busy_ms", *busy_ms);
        }
        Probe::Sample => o.str("ev", "sample"),
        Probe::Orphaned { node } => at_node(o, "orphaned", *node),
        Probe::Late { partials } => {
            o.str("ev", "late");
            o.bool("partials", *partials);
        }
    }
}

/// Receiver of trace records. Implementations must tolerate high event
/// rates; the engine calls [`TraceSink::record`] under the handle's lock.
pub trait TraceSink: Send {
    /// Receives one record.
    fn record(&mut self, rec: &TraceRecord);
    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Cloneable handle trace events are emitted through. The default handle is
/// disabled: every emission reduces to a single `Option::is_some` branch.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<Mutex<dyn TraceSink>>>);

impl TraceHandle {
    /// The no-op handle (same as `TraceHandle::default()`).
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A handle that records into `sink`.
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        TraceHandle(Some(Arc::new(Mutex::new(sink))))
    }

    /// A handle over an existing shared sink — lets a test keep a typed
    /// `Arc<Mutex<RingSink>>` clone to read the records back.
    pub fn shared(sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        TraceHandle(Some(sink))
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event `build` returns at simulation time `time_us`.
    /// `build` runs only when a sink is attached, so a site whose event
    /// carries a `Vec` needs no enabled-check of its own and the disabled
    /// path never allocates.
    #[inline]
    pub fn emit_with(&self, time_us: u64, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            let record = TraceRecord {
                time_us,
                event: build(),
            };
            sink.lock().expect("trace sink poisoned").record(&record);
        }
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.0 {
            sink.lock().expect("trace sink poisoned").flush();
        }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TraceHandle")
            .field(&if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

/// Header line every trace file starts with.
pub fn trace_header() -> String {
    json::object(|o| {
        o.u64("schema_version", SCHEMA_VERSION as u64);
        o.str("format", "ttmqo-trace");
    })
}

/// Sink writing the trace as JSON lines: the [`trace_header`] first, then
/// one [`TraceRecord::to_json`] object per line.
pub struct JsonLinesSink {
    out: Box<dyn Write + Send>,
}

impl JsonLinesSink {
    /// Wraps any writer (the header is written immediately).
    pub fn new(mut out: impl Write + Send + 'static) -> std::io::Result<Self> {
        writeln!(out, "{}", trace_header())?;
        Ok(JsonLinesSink { out: Box::new(out) })
    }

    /// Creates (truncating) a trace file at `path`, buffered.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Self::new(std::io::BufWriter::new(file))
    }
}

impl fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl TraceSink for JsonLinesSink {
    fn record(&mut self, rec: &TraceRecord) {
        // Ignore write errors at record granularity (a full disk mid-run
        // should not abort the simulation); flush reports them implicitly.
        let _ = writeln!(self.out, "{}", rec.to_json());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// In-memory sink for tests: keeps every record.
#[derive(Debug, Default)]
pub struct RingSink {
    records: Vec<TraceRecord>,
}

impl RingSink {
    /// An empty sink.
    pub fn new() -> Self {
        RingSink::default()
    }

    /// The records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the records as trace JSONL: the [`trace_header`], then one
    /// record per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = trace_header();
        out.push('\n');
        for rec in &self.records {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(rec.clone());
    }
}

/// Per-epoch time-series rollup: the run's activity bucketed by epoch
/// instead of collapsed into run totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochRollup {
    /// Start of the bucket, ms (a multiple of [`BASE_EPOCH_MS`]).
    pub epoch_ms: u64,
    /// Frames transmitted.
    pub tx: u64,
    /// Collision corruptions observed at receivers.
    pub collisions: u64,
    /// Loss-model drops observed at receivers.
    pub losses: u64,
    /// Unicast retransmissions queued.
    pub retries: u64,
    /// Naps started.
    pub sleeps: u64,
    /// Result rows delivered to the base station.
    pub rows_delivered: u64,
    /// Answers mapped to user queries.
    pub answers: u64,
    /// Mapped answers that carried data (the per-epoch completeness
    /// numerator; expected-epoch counts live in `CompletenessReport`).
    pub nonempty_answers: u64,
}

/// The `answer-mapped` records of one user query, added up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTally {
    /// Answers mapped (== `RunReport.answers[q].len()`).
    pub answers: u64,
    /// Mapped answers that carried data.
    pub nonempty: u64,
    /// Σ answer latency, ms (epoch start → emission), saturating rather
    /// than overflowing on a hostile trace.
    pub latency_sum_ms: u64,
}

impl QueryTally {
    /// Mean answer latency, ms (`None` with no answer).
    pub fn mean_latency_ms(&self) -> Option<f64> {
        (self.answers > 0).then(|| self.latency_sum_ms as f64 / self.answers as f64)
    }
}

/// Summary of a JSON-lines trace, computed from the text alone (no access
/// to the run that produced it) — the `trace-analyze` example's core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// `schema_version` from the header line, if present.
    pub schema_version: Option<u32>,
    /// Total records (header excluded).
    pub events: u64,
    /// Record count per event kind tag.
    pub by_kind: BTreeMap<String, u64>,
    /// Per user query: what its mapped answers add up to.
    pub queries: BTreeMap<u64, QueryTally>,
    /// Hop-count distribution over delivered provenances: hops → samples.
    /// Hops = result-hop events naming the provenance (origin send
    /// included), for provenances that reached the base station.
    pub hop_distribution: BTreeMap<u64, u64>,
    /// Per-epoch rollups, one per base epoch that saw activity, in time
    /// order. Rows and answers are bucketed by the epoch they carry,
    /// everything else by its timestamp.
    pub rollups: Vec<EpochRollup>,
    /// Non-empty lines that were neither a record (no `ev` field) nor a
    /// header (no `schema_version` field) and were skipped.
    pub malformed_lines: u64,
    /// Whether the file ended in a byte-truncated partial record (a
    /// crash-time or mid-write trace). The partial line is excluded from
    /// every count rather than treated as malformed.
    pub truncated_tail: bool,
}

impl TraceSummary {
    /// Total answers mapped across all user queries.
    pub fn total_answers(&self) -> u64 {
        self.queries.values().map(|q| q.answers).sum()
    }

    /// Mean answer latency over every mapped answer, ms.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        let answers = self.total_answers();
        let sums = self.queries.values().map(|q| q.latency_sum_ms);
        let sum_ms = sums.fold(0u64, u64::saturating_add);
        (answers > 0).then(|| sum_ms as f64 / answers as f64)
    }

    /// Whether the summarized text is a complete record of the run: no
    /// byte-truncated tail, no malformed lines.
    /// Reconciliation against a lossy trace proves nothing, so consumers
    /// (the invariant auditor among them) gate on this.
    pub fn is_lossless(&self) -> bool {
        !self.truncated_tail && self.malformed_lines == 0
    }

    /// One JSON object with every summary field — the `inspect analyze
    /// --json` payload. A query's latency renders as `{count, mean_ms}`,
    /// its count being its answers.
    pub fn to_json(&self) -> String {
        // Exhaustive destructuring: a field added to the summary without a
        // serialization decision here is a compile error.
        let TraceSummary {
            schema_version,
            events,
            by_kind,
            queries,
            hop_distribution,
            rollups,
            malformed_lines,
            truncated_tail,
        } = self;
        json::object(|o| {
            o.u64("schema_version", SCHEMA_VERSION as u64);
            match schema_version {
                Some(v) => o.u64("trace_schema_version", *v as u64),
                None => o.null("trace_schema_version"),
            }
            o.u64("events", *events);
            o.u64("malformed_lines", *malformed_lines);
            o.bool("truncated_tail", *truncated_tail);
            o.bool("lossless", self.is_lossless());
            o.obj("by_kind", |o| {
                for (kind, n) in by_kind {
                    o.u64(kind, *n);
                }
            });
            o.arr("queries", |a| {
                for (query, tally) in queries {
                    a.obj(|o| {
                        o.u64("query", *query);
                        o.u64("answers", tally.answers);
                        o.u64("nonempty", tally.nonempty);
                        o.obj("latency", |o| {
                            o.u64("count", tally.answers);
                            match tally.mean_latency_ms() {
                                Some(mean) => o.f64("mean_ms", mean),
                                None => o.null("mean_ms"),
                            }
                        });
                    });
                }
            });
            o.obj("hop_distribution", |o| {
                for (hops, n) in hop_distribution {
                    o.u64(&hops.to_string(), *n);
                }
            });
            o.arr("rollups", |a| {
                for r in rollups {
                    let EpochRollup {
                        epoch_ms,
                        tx,
                        collisions,
                        losses,
                        retries,
                        sleeps,
                        rows_delivered,
                        answers,
                        nonempty_answers,
                    } = r;
                    a.obj(|o| {
                        o.u64("epoch_ms", *epoch_ms);
                        o.u64("tx", *tx);
                        o.u64("collisions", *collisions);
                        o.u64("losses", *losses);
                        o.u64("retries", *retries);
                        o.u64("sleeps", *sleeps);
                        o.u64("rows_delivered", *rows_delivered);
                        o.u64("answers", *answers);
                        o.u64("nonempty_answers", *nonempty_answers);
                    });
                }
            });
        })
    }
}

/// A trace was written under an incompatible schema version: its field set
/// may have changed shape, so parsing it as the current schema would produce
/// silently wrong numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSchemaError {
    /// The `schema_version` found in the trace header.
    pub found: u32,
    /// The version this library writes and reads ([`SCHEMA_VERSION`]).
    pub expected: u32,
}

impl fmt::Display for TraceSchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace schema version {} does not match this library's version {}",
            self.found, self.expected
        )
    }
}

impl std::error::Error for TraceSchemaError {}

/// Summarizes a JSON-lines trace (header line + records). Rollups are
/// bucketed by the base epoch, [`BASE_EPOCH_MS`].
///
/// A trace with no header at all is tolerated (`schema_version` stays
/// `None`); lines that are neither records nor headers are skipped and
/// counted in [`TraceSummary::malformed_lines`].
///
/// # Errors
///
/// [`TraceSchemaError`] if the trace's header names a `schema_version`
/// different from [`SCHEMA_VERSION`] — the field set may have changed shape
/// between versions, so parsing on anyway would produce silently wrong
/// numbers.
///
/// A byte-truncated final line (the file stops mid-record, as a crash-time
/// trace does) is dropped and flagged in [`TraceSummary::truncated_tail`]
/// instead of being counted as malformed.
pub fn summarize_trace(text: &str) -> Result<TraceSummary, TraceSchemaError> {
    let (lines, truncated_tail) = trace_lines(text);
    let mut summary = TraceSummary {
        truncated_tail,
        ..TraceSummary::default()
    };
    // Hops per provenance id, and which provenances were delivered.
    let mut hops: BTreeMap<u64, u64> = BTreeMap::new();
    let mut delivered: Vec<u64> = Vec::new();
    let mut rollups: BTreeMap<u64, EpochRollup> = BTreeMap::new();
    for (_, rec) in lines {
        let Some(ev) = rec.str_at("ev") else {
            // The header (or an unknown line): pick up the schema version.
            if let Some(v) = rec.u64_at("schema_version") {
                let v = v as u32;
                if v != SCHEMA_VERSION {
                    return Err(TraceSchemaError {
                        found: v,
                        expected: SCHEMA_VERSION,
                    });
                }
                summary.schema_version = Some(v);
            } else {
                summary.malformed_lines += 1;
            }
            continue;
        };
        summary.events += 1;
        *summary.by_kind.entry(ev.to_string()).or_insert(0) += 1;
        let nonempty = rec
            .get("nonempty")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        let t_ms = rec.u64_at("t").unwrap_or(0) / 1000;
        let epoch_ms = rec.u64_at("epoch_ms").unwrap_or(0);
        match ev {
            "frame-tx" => bucket(&mut rollups, t_ms).tx += 1,
            "frame-collision" => bucket(&mut rollups, t_ms).collisions += 1,
            "frame-lost" => bucket(&mut rollups, t_ms).losses += 1,
            "frame-retry" => bucket(&mut rollups, t_ms).retries += 1,
            "sleep-start" => bucket(&mut rollups, t_ms).sleeps += 1,
            "answer-mapped" => {
                let rollup = bucket(&mut rollups, epoch_ms);
                rollup.answers += 1;
                rollup.nonempty_answers += u64::from(nonempty);
                let user = rec.u64_at("user").unwrap_or(0);
                let tally = summary.queries.entry(user).or_default();
                tally.answers += 1;
                tally.nonempty += u64::from(nonempty);
                let latency = rec.u64_at("latency_ms").unwrap_or(0);
                tally.latency_sum_ms = tally.latency_sum_ms.saturating_add(latency);
            }
            "result-hop" => {
                let prov = rec.get("prov").map_or(&[][..], JsonValue::items);
                for p in prov.iter().filter_map(JsonValue::as_u64) {
                    *hops.entry(p).or_insert(0) += 1;
                }
            }
            "result-delivered" => {
                bucket(&mut rollups, epoch_ms).rows_delivered += 1;
                delivered.push(rec.u64_at("prov").unwrap_or(0));
            }
            _ => {}
        }
    }
    delivered.sort_unstable();
    delivered.dedup();
    for p in delivered {
        let h = hops.get(&p).copied().unwrap_or(0);
        *summary.hop_distribution.entry(h).or_insert(0) += 1;
    }
    summary.rollups = rollups.into_values().collect();
    Ok(summary)
}

/// The rollup of the base epoch holding `at_ms`, opened on first use.
fn bucket(rollups: &mut BTreeMap<u64, EpochRollup>, at_ms: u64) -> &mut EpochRollup {
    let epoch_ms = at_ms / BASE_EPOCH_MS * BASE_EPOCH_MS;
    rollups.entry(epoch_ms).or_insert(EpochRollup {
        epoch_ms,
        ..EpochRollup::default()
    })
}

/// Converts a JSON-lines trace into Chrome trace-event JSON
/// (`chrome://tracing` / Perfetto's JSON importer): frame transmissions
/// become complete (`X`) slices on their source node's track, everything
/// else instant (`i`) events on the node the record names (`node`, else
/// `src`, else `from`).
pub fn chrome_trace(text: &str) -> String {
    json::object(|o| {
        o.arr("traceEvents", |a| {
            for (_, rec) in trace_lines(text).0 {
                let Some(ev) = rec.str_at("ev") else {
                    continue;
                };
                a.obj(|o| {
                    o.str("name", ev);
                    o.str("ph", if ev == "frame-tx" { "X" } else { "i" });
                    o.u64("ts", rec.u64_at("t").unwrap_or(0));
                    if ev == "frame-tx" {
                        o.u64("dur", rec.u64_at("airtime_us").unwrap_or(1));
                    } else {
                        o.str("s", "t");
                    }
                    o.u64("pid", 0);
                    o.u64("tid", record_node(&rec).unwrap_or(0));
                });
            }
        });
    })
}

/// The non-blank lines of a trace, each with its parse, and whether a
/// byte-truncated final line was dropped first ([`json::complete_lines`]):
/// the one line decoder [`summarize_trace`], [`chrome_trace`] and
/// [`trace_diff`](diff::trace_diff) share. A record is a line with an `ev`.
fn trace_lines(text: &str) -> (impl Iterator<Item = (&str, JsonValue<'_>)>, bool) {
    let (text, truncated) = json::complete_lines(text);
    let lines = text.lines().filter(|l| !l.is_empty());
    (lines.map(|line| (line, parse_line(line))), truncated)
}

/// One trace line's JSON; `Null` when it is not JSON.
fn parse_line(line: &str) -> JsonValue<'_> {
    json::parse(line).unwrap_or(JsonValue::Null)
}

/// The node a record names: its `node`, else `src`, else `from`. A record
/// naming none of them (Tier 1's, the answer mapping's) names no node.
fn record_node(rec: &JsonValue) -> Option<u64> {
    rec.u64_at("node")
        .or_else(|| rec.u64_at("src"))
        .or_else(|| rec.u64_at("from"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::MsgKind;

    /// Node 1 woke.
    fn wake() -> TraceEvent {
        TraceEvent::Engine(Probe::Wake {
            node: NodeId(1),
            pending_us: 0,
        })
    }

    /// Node 1 broadcast a 10-byte result frame, 100 µs on the air.
    fn tx() -> TraceEvent {
        TraceEvent::Engine(Probe::Tx {
            node: NodeId(1),
            kind: MsgKind::Result,
            dest: TraceDest::Broadcast,
            bytes: 10,
            airtime_us: 100,
        })
    }

    /// `recs` as a trace file: the header, then one record per line.
    fn jsonl(recs: &[TraceRecord]) -> String {
        let mut text = trace_header();
        text.push('\n');
        for r in recs {
            text.push_str(&r.to_json());
            text.push('\n');
        }
        text
    }

    #[test]
    fn provenance_round_trips() {
        let p = ProvenanceId::new(NodeId(513), 123 * 2048);
        assert_eq!(p.origin(), NodeId(513));
        assert_eq!(p.epoch_ms(), 123 * 2048);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::default();
        assert!(!h.is_enabled());
        h.emit_with(5, || unreachable!("a disabled handle builds no event"));
        h.flush(); // no sink: nothing to do, nothing to panic on
    }

    #[test]
    fn json_lines_sink_writes_header_and_records() {
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        let h = TraceHandle::new(JsonLinesSink::new(buf.clone()).unwrap());
        h.emit_with(1000, || {
            TraceEvent::Engine(Probe::Tx {
                node: NodeId(3),
                kind: MsgKind::Result,
                dest: TraceDest::Unicast(NodeId(1)),
                bytes: 32,
                airtime_us: 10400,
            })
        });
        h.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], trace_header());
        assert!(lines[0].contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
        assert_eq!(
            lines[1],
            "{\"t\":1000,\"ev\":\"frame-tx\",\"src\":3,\"kind\":\"result\",\
             \"dest\":1,\"bytes\":32,\"airtime_us\":10400}"
        );
    }

    #[test]
    fn record_json_is_deterministic_and_parsable() {
        // The largest provenance id there is: far above 2^53, so it only
        // survives a reader that keeps unsigned integers exact.
        let prov = ProvenanceId::new(NodeId(65535), (1 << 48) - 1);
        assert_eq!(prov.0, u64::MAX);
        let rec = TraceRecord {
            time_us: 2_048_000,
            event: TraceEvent::ResultHop {
                from: NodeId(9),
                to: vec![NodeId(5), NodeId(6)],
                epoch_ms: 2048,
                prov: vec![prov, ProvenanceId(prov.0 - 1)],
                qids: vec![QueryId(1), QueryId(2)],
                origin: true,
            },
        };
        let json = rec.to_json();
        assert_eq!(json, rec.to_json());
        let back = json::parse(&json).expect("own record parses");
        let u64s = |key| -> Vec<u64> {
            let items = back.get(key).expect("field present").items();
            items.iter().filter_map(JsonValue::as_u64).collect()
        };
        assert_eq!(back.str_at("ev"), Some("result-hop"));
        assert_eq!(back.u64_at("from"), Some(9));
        assert_eq!(u64s("to"), vec![5, 6]);
        assert_eq!(u64s("prov"), vec![prov.0, prov.0 - 1]);
        assert_eq!(back.get("origin").and_then(JsonValue::as_bool), Some(true));
    }

    #[test]
    fn rollups_bucket_by_epoch() {
        let recs = vec![
            TraceRecord {
                time_us: 100_000, // 100 ms → epoch 0
                event: tx(),
            },
            TraceRecord {
                time_us: 2_500_000, // 2500 ms → epoch 2048
                event: TraceEvent::Engine(Probe::Collision(Reception {
                    src: NodeId(1),
                    node: NodeId(2),
                    kind: MsgKind::Result,
                })),
            },
            TraceRecord {
                time_us: 4_500_000, // bucketed by its epoch field, not time
                event: TraceEvent::AnswerMapped {
                    user: QueryId(1),
                    synthetic: QueryId(1),
                    epoch_ms: 2048,
                    rows: 3,
                    nonempty: true,
                    latency_ms: 200,
                },
            },
        ];
        let rollups = summarize_trace(&jsonl(&recs)).unwrap().rollups;
        assert_eq!(rollups.len(), 2);
        assert_eq!(rollups[0].epoch_ms, 0);
        assert_eq!(rollups[0].tx, 1);
        assert_eq!(rollups[1].epoch_ms, 2048);
        assert_eq!(rollups[1].collisions, 1);
        assert_eq!(rollups[1].answers, 1);
        assert_eq!(rollups[1].nonempty_answers, 1);
    }

    #[test]
    fn summarize_reads_back_what_the_sink_wrote() {
        let p = ProvenanceId::new(NodeId(7), 2048);
        let recs = vec![
            TraceRecord {
                time_us: 2_100_000,
                event: TraceEvent::ResultHop {
                    from: NodeId(7),
                    to: vec![NodeId(3)],
                    epoch_ms: 2048,
                    prov: vec![p],
                    qids: vec![QueryId(1)],
                    origin: true,
                },
            },
            TraceRecord {
                time_us: 2_200_000,
                event: TraceEvent::ResultHop {
                    from: NodeId(3),
                    to: vec![NodeId(0)],
                    epoch_ms: 2048,
                    prov: vec![p],
                    qids: vec![QueryId(1)],
                    origin: false,
                },
            },
            TraceRecord {
                time_us: 2_300_000,
                event: TraceEvent::ResultDelivered {
                    prov: p,
                    qids: vec![QueryId(1)],
                    epoch_ms: 2048,
                },
            },
            TraceRecord {
                time_us: 2_400_000,
                event: TraceEvent::AnswerMapped {
                    user: QueryId(1),
                    synthetic: QueryId(1 << 20),
                    epoch_ms: 2048,
                    rows: 1,
                    nonempty: true,
                    latency_ms: 352,
                },
            },
        ];
        let text = jsonl(&recs);
        let s = summarize_trace(&text).expect("schema matches");
        assert_eq!(s.schema_version, Some(SCHEMA_VERSION));
        assert_eq!(s.malformed_lines, 0);
        assert_eq!(s.events, 4);
        assert_eq!(s.by_kind["result-hop"], 2);
        let one = QueryTally {
            answers: 1,
            nonempty: 1,
            latency_sum_ms: 352,
        };
        assert_eq!(s.queries[&1], one);
        // The sample took 2 hops (origin + one relay) and was delivered.
        assert_eq!(s.hop_distribution[&2], 1);
        assert_eq!(s.total_answers(), 1);
        assert_eq!(s.mean_latency_ms(), Some(352.0));
        assert_eq!(s.rollups.len(), 1);
        assert_eq!(s.rollups[0].rows_delivered, 1);

        let chrome = chrome_trace(&text);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.ends_with("]}"));
        assert!(chrome.contains("\"name\":\"result-hop\""));
        assert_eq!(chrome.matches("\"ph\":\"i\"").count(), 4);
    }

    #[test]
    fn summarize_rejects_a_mismatched_schema_version() {
        let text = format!(
            "{{\"schema_version\":{},\"format\":\"ttmqo-trace\"}}\n",
            SCHEMA_VERSION + 1
        );
        let err = summarize_trace(&text).expect_err("future schema must be rejected");
        assert_eq!(err.found, SCHEMA_VERSION + 1);
        assert_eq!(err.expected, SCHEMA_VERSION);
        assert!(err.to_string().contains("does not match"));
        // The rejection happens even when the header follows records.
        let mut late = TraceRecord {
            time_us: 0,
            event: wake(),
        }
        .to_json();
        late.push('\n');
        late.push_str(&text);
        assert!(summarize_trace(&late).is_err());
    }

    #[test]
    fn summarize_counts_malformed_lines_and_tolerates_a_missing_header() {
        let mut text = String::from("this is not json\n{\"unrelated\":1}\n");
        text.push_str(
            &TraceRecord {
                time_us: 1000,
                event: wake(),
            }
            .to_json(),
        );
        text.push('\n');
        let s = summarize_trace(&text).expect("no header: tolerated");
        assert_eq!(s.schema_version, None);
        assert_eq!(s.malformed_lines, 2);
        assert_eq!(s.events, 1);
        assert_eq!(s.by_kind["wake"], 1);
    }

    #[test]
    fn summarize_of_an_empty_trace_is_empty() {
        for text in ["", "\n\n"] {
            let s = summarize_trace(text).expect("empty trace is fine");
            assert_eq!(s, TraceSummary::default());
            assert_eq!(s.events, 0);
            assert!(s.rollups.is_empty());
            assert_eq!(s.total_answers(), 0);
            assert_eq!(s.mean_latency_ms(), None);
        }
        // A header-only trace parses to zero events but a known version.
        let mut header = trace_header();
        header.push('\n');
        let s = summarize_trace(&header).unwrap();
        assert_eq!(s.schema_version, Some(SCHEMA_VERSION));
        assert_eq!(s.events, 0);
    }

    #[test]
    fn summarize_tolerates_a_byte_truncated_final_record() {
        let mut text = trace_header();
        text.push('\n');
        for t in [1000, 2000, 3000] {
            text.push_str(
                &TraceRecord {
                    time_us: t,
                    event: wake(),
                }
                .to_json(),
            );
            text.push('\n');
        }
        // Chop the file mid-way through the last record, as a crash-time
        // trace would be.
        let cut = &text[..text.len() - 9];
        assert!(!cut.ends_with('\n') && !cut.ends_with('}'));
        let s = summarize_trace(cut).expect("truncated tail tolerated");
        assert!(s.truncated_tail);
        assert_eq!(s.events, 2, "partial record excluded");
        assert_eq!(s.malformed_lines, 0, "a truncated tail is not malformed");
        // A file that merely lacks the trailing newline is complete.
        let no_newline = text.trim_end_matches('\n');
        let s = summarize_trace(no_newline).unwrap();
        assert!(!s.truncated_tail);
        assert_eq!(s.events, 3);
    }

    #[test]
    fn rollups_handle_single_epoch_and_horizon_boundary_records() {
        // A run one epoch long: everything lands in bucket 0, including a
        // record timestamped exactly at the run horizon (2048 ms boundary
        // opens bucket 2048 — events *at* the horizon belong to the next
        // bucket, matching the window convention).
        let recs = vec![
            TraceRecord {
                time_us: 0,
                event: tx(),
            },
            TraceRecord {
                time_us: 2_047_999,
                event: tx(),
            },
            TraceRecord {
                time_us: 2_048_000, // exactly at the horizon of a 1-epoch run
                event: TraceEvent::Engine(Probe::Sleep {
                    node: NodeId(2),
                    duration_ms: 100,
                    pending_us: 0,
                }),
            },
        ];
        let text = jsonl(&recs);
        let rollups = summarize_trace(&text).unwrap().rollups;
        assert_eq!(rollups.len(), 2);
        assert_eq!(rollups[0].epoch_ms, 0);
        assert_eq!(rollups[0].tx, 2);
        assert_eq!(rollups[1].epoch_ms, 2048);
        assert_eq!(rollups[1].sleeps, 1);
    }

    #[test]
    fn summary_json_is_wellformed_and_flags_lossiness() {
        let mut text = trace_header();
        text.push('\n');
        text.push_str(
            &TraceRecord {
                time_us: 2_400_000,
                event: TraceEvent::AnswerMapped {
                    user: QueryId(1),
                    synthetic: QueryId(1 << 20),
                    epoch_ms: 2048,
                    rows: 1,
                    nonempty: true,
                    latency_ms: 352,
                },
            }
            .to_json(),
        );
        text.push('\n');
        let json = summarize_trace(&text).unwrap().to_json();
        assert!(json.contains("\"events\":1"));
        assert!(json.contains("\"lossless\":true"));
        assert!(json.contains("\"query\":1"));
        assert!(json.contains("\"mean_ms\":352"));
        assert!(json::parse(&json).is_ok());

        // A line shaped like the drop marker bounded sinks once wrote is
        // neither a record nor a header: malformed, so the trace is lossy.
        text.push_str("{\"dropped_records\":5,\"note\":\"ring-evicted\"}\n");
        let summary = summarize_trace(&text).unwrap();
        assert_eq!(summary.malformed_lines, 1);
        assert!(!summary.is_lossless());
        let json = summary.to_json();
        assert!(json.contains("\"malformed_lines\":1"));
        assert!(json.contains("\"lossless\":false"));
        assert!(!json.contains("dropped_records"));
    }
}
