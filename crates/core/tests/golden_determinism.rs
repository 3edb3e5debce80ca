//! Golden determinism test: a small Workload-A cell must produce a
//! `MetricsSnapshot` bit-identical to the checked-in snapshot, on both the
//! baseline and the two-tier strategy.
//!
//! The golden file was generated from the engine as of PR 1 (before the
//! hot-path rewrite that introduced payload `Arc`-sharing and the frame
//! slab), so a passing run proves engine-internal memory optimizations do
//! not change simulated behaviour — not statistically, but down to the last
//! bit of every f64 counter. Regenerate only for *intentional* behaviour
//! changes: `UPDATE_GOLDEN=1 cargo test -p ttmqo-core --test
//! golden_determinism`. The answers every user was told are pinned the same
//! way, as digests (`answers_match_their_pinned_digests`).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use ttmqo_core::{
    run_experiment, ExperimentConfig, RunReport, RunSession, Strategy, WorkloadEvent,
};
use ttmqo_query::EpochAnswer;
use ttmqo_sim::{
    FaultPlan, JsonLinesSink, MetricsSnapshot, NodeId, Observe, RadioParams, RingSink, SimTime,
    TraceHandle, TraceSink,
};
use ttmqo_workloads::{
    random_workload, workload_a, workload_b, workload_end_ms, RandomWorkloadParams,
};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/workload_a_metrics.golden"
);

const GOLDEN_32X32_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/workload_a_32x32_metrics.golden"
);

/// Renders a snapshot canonically, one `key=value` line per counter. Floats
/// use Rust's shortest-roundtrip formatting, so equal strings ⇔ equal bits.
fn render(strategy: Strategy, snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "[{strategy}]").unwrap();
    writeln!(
        w,
        "avg_transmission_time_pct={}",
        snap.avg_transmission_time_pct
    )
    .unwrap();
    writeln!(w, "total_tx_busy_ms={}", snap.total_tx_busy_ms).unwrap();
    writeln!(w, "total_rx_busy_ms={}", snap.total_rx_busy_ms).unwrap();
    writeln!(w, "total_sleep_ms={}", snap.total_sleep_ms).unwrap();
    for (kind, n) in &snap.tx_count {
        writeln!(w, "tx_count.{kind}={n}").unwrap();
    }
    for (kind, n) in &snap.tx_bytes {
        writeln!(w, "tx_bytes.{kind}={n}").unwrap();
    }
    writeln!(w, "retransmissions={}", snap.retransmissions).unwrap();
    writeln!(w, "collisions={}", snap.collisions).unwrap();
    writeln!(w, "losses={}", snap.losses).unwrap();
    writeln!(w, "gave_up={}", snap.gave_up).unwrap();
    writeln!(w, "samples={}", snap.samples).unwrap();
    writeln!(w, "horizon_ms={}", snap.horizon_ms).unwrap();
    out
}

fn golden_cell(strategy: Strategy) -> MetricsSnapshot {
    // Workload A on the paper's 4×4 grid with the default radio (collisions
    // and retries on), long enough for floods, epochs, retransmissions and
    // terminations to all occur.
    let config = ExperimentConfig {
        strategy,
        grid_n: 4,
        duration: SimTime::from_ms(24 * 2048),
        ..ExperimentConfig::default()
    };
    run_experiment(&config, &workload_a()).metrics.snapshot()
}

#[test]
fn workload_a_metrics_match_golden_snapshot() {
    let mut rendered = String::new();
    for strategy in [Strategy::Baseline, Strategy::TwoTier] {
        rendered.push_str(&render(strategy, &golden_cell(strategy)));
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &rendered).unwrap();
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot checked in at tests/golden/workload_a_metrics.golden");
    assert_eq!(
        rendered, golden,
        "MetricsSnapshot diverged from the golden Workload-A cell: the \
         engine's simulated behaviour changed (set UPDATE_GOLDEN=1 only if \
         the change is intentional)"
    );
}

fn golden_big_cell(strategy: Strategy) -> MetricsSnapshot {
    // The big-grid cell: Workload A on a 32×32 grid (1024 nodes), long
    // enough for query floods, several epoch rounds and retransmission
    // traffic. Generated from the engine as of PR 6 (all-pairs O(n²)
    // topology build, before the big-grid rework), so a passing run proves
    // the event queue — any queue popping in `(time, seq)` order — and the
    // spatial grid-bucket index reproduce that engine's behaviour bit for
    // bit at thousand-node scale.
    let config = ExperimentConfig {
        strategy,
        grid_n: 32,
        duration: SimTime::from_ms(8 * 2048),
        ..ExperimentConfig::default()
    };
    run_experiment(&config, &workload_a()).metrics.snapshot()
}

#[test]
fn workload_a_32x32_metrics_match_golden_snapshot() {
    let mut rendered = String::new();
    for strategy in [Strategy::Baseline, Strategy::TwoTier] {
        rendered.push_str(&render(strategy, &golden_big_cell(strategy)));
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_32X32_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_32X32_PATH, &rendered).unwrap();
        eprintln!("regenerated {GOLDEN_32X32_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_32X32_PATH)
        .expect("golden snapshot checked in at tests/golden/workload_a_32x32_metrics.golden");
    assert_eq!(
        rendered, golden,
        "MetricsSnapshot diverged from the golden 32×32 Workload-A cell: \
         the engine's simulated behaviour changed at big-grid scale (set \
         UPDATE_GOLDEN=1 only if the change is intentional)"
    );
}

#[test]
fn golden_cells_stopped_mid_run_still_render_the_golden_snapshots() {
    // Both golden cells, interrupted at a non-aligned instant and then
    // finished: stopping is not an event, so the rendering must equal the
    // checked-in goldens that pin the uninterrupted engine's behaviour.
    for (grid_n, epochs, cut_ms, path) in [
        (4, 24, CUT_MS, GOLDEN_PATH),
        (32, 8, 3 * 2048 + 777, GOLDEN_32X32_PATH),
    ] {
        let mut rendered = String::new();
        for strategy in [Strategy::Baseline, Strategy::TwoTier] {
            let config = ExperimentConfig {
                strategy,
                grid_n,
                duration: SimTime::from_ms(epochs * 2048),
                ..ExperimentConfig::default()
            };
            let mut session = RunSession::new(&config, &workload_a());
            session.run_to(SimTime::from_ms(cut_ms));
            rendered.push_str(&render(strategy, &session.finish().metrics.snapshot()));
        }
        let golden = std::fs::read_to_string(path).expect("golden snapshot checked in");
        assert_eq!(
            rendered, golden,
            "a {grid_n}×{grid_n} run stopped at {cut_ms} ms diverged from its golden cell"
        );
    }
}

#[test]
fn golden_cell_is_reproducible_within_a_process() {
    // The cheaper invariant behind the golden file: two in-process runs of
    // the same cell agree bit-for-bit.
    let a = golden_cell(Strategy::TwoTier);
    let b = golden_cell(Strategy::TwoTier);
    assert_eq!(a, b);
}

#[test]
fn tracing_leaves_the_golden_cell_untouched() {
    // Tracing is observability, not behaviour: the golden cell rendered with
    // an explicitly disabled handle AND with a live in-memory sink must both
    // match the untraced rendering byte for byte (tracing never draws from
    // the simulation RNG), and the run's engine stats must agree too.
    let run = |trace: TraceHandle| {
        let config = ExperimentConfig {
            strategy: Strategy::TwoTier,
            grid_n: 4,
            duration: SimTime::from_ms(24 * 2048),
            observe: Observe {
                trace,
                ..Observe::default()
            },
            ..ExperimentConfig::default()
        };
        let report = run_experiment(&config, &workload_a());
        (
            render(Strategy::TwoTier, &report.metrics.snapshot()),
            report.engine,
        )
    };

    let untraced = run(TraceHandle::disabled());
    let ring = Arc::new(Mutex::new(RingSink::new()));
    let traced = run(TraceHandle::shared(
        ring.clone() as Arc<Mutex<dyn TraceSink>>
    ));

    assert_eq!(untraced.0, traced.0, "metrics diverged under tracing");
    assert_eq!(untraced.1, traced.1, "engine stats diverged under tracing");
    assert!(
        !ring.lock().unwrap().is_empty(),
        "the traced run actually recorded events"
    );
}

/// Shared growable byte buffer usable as a `JsonLinesSink` writer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(b)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn auditing_leaves_the_golden_cell_untouched() {
    // The standing invariant auditor runs strictly after the simulation —
    // pure arithmetic over the finished run's counters. Arming it must not
    // perturb the golden cell in any way: the RunReport (audit field aside)
    // and the JSONL trace must be byte-identical to the unaudited run, and
    // the audit itself must come back clean on a healthy cell.
    let run = |audit: bool| {
        let buf = SharedBuf::default();
        let config = ExperimentConfig {
            strategy: Strategy::TwoTier,
            grid_n: 4,
            duration: SimTime::from_ms(24 * 2048),
            observe: Observe {
                trace: TraceHandle::new(JsonLinesSink::new(buf.clone()).unwrap()),
                audit,
            },
            ..ExperimentConfig::default()
        };
        let mut report = run_experiment(&config, &workload_a());
        config.observe.trace.flush();
        let audit_report = report.audit.take();
        let trace = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        (format!("{report:?}"), trace, audit_report)
    };

    let off = run(false);
    let on = run(true);

    assert_eq!(off.0, on.0, "RunReport diverged under auditing");
    assert_eq!(off.1, on.1, "JSONL trace diverged under auditing");
    assert!(off.2.is_none(), "unaudited run must not carry an audit");
    let audit = on.2.expect("audited run carries an audit report");
    assert!(
        audit.is_clean(),
        "healthy golden cell must audit clean, got: {audit}"
    );
    assert!(audit.checks_run > 0, "the auditor actually ran checks");
}

/// The two-tier golden cell's configuration (what `golden_cell` runs).
fn golden_config() -> ExperimentConfig {
    ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(24 * 2048),
        ..ExperimentConfig::default()
    }
}

/// What one observed run of a cell leaves behind.
struct Observed {
    /// The report's debug rendering with the observer-only `audit` field
    /// taken out (shortest-roundtrip floats: equal strings ⇔ equal bits).
    report: String,
    /// The JSONL trace; empty when the run was not traced.
    trace: String,
    audit: Option<ttmqo_sim::AuditReport>,
}

/// A mid-run instant that is not aligned to any epoch.
const CUT_MS: u64 = 11 * 2048 + 317;

/// `base` with exactly the named observers attached, tracing into `buf`.
fn observing(
    base: &ExperimentConfig,
    [trace, audit]: [bool; 2],
    buf: &SharedBuf,
) -> ExperimentConfig {
    ExperimentConfig {
        observe: Observe {
            trace: if trace {
                TraceHandle::new(JsonLinesSink::new(buf.clone()).unwrap())
            } else {
                TraceHandle::disabled()
            },
            audit,
        },
        ..base.clone()
    }
}

/// Runs the cell under `observers`, stopping at each of `stops_ms` on the
/// way (stopping drains the base station's outputs early, which moves
/// `answer-mapped` records within the trace, so the pinned trace digests
/// are of uninterrupted runs).
fn observe_sliced(
    base: &ExperimentConfig,
    workload: &[WorkloadEvent],
    observers: [bool; 2],
    stops_ms: &[u64],
) -> Observed {
    let buf = SharedBuf::default();
    let config = observing(base, observers, &buf);
    let mut session = RunSession::new(&config, workload);
    for &t in stops_ms {
        session.run_to(SimTime::from_ms(t));
    }
    let mut report = session.finish();
    config.observe.trace.flush();
    let audit = report.audit.take();
    let trace = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    Observed {
        report: format!("{report:?}"),
        trace,
        audit,
    }
}

/// Runs the cell under `observers`, uninterrupted.
fn observe(base: &ExperimentConfig, workload: &[WorkloadEvent], observers: [bool; 2]) -> Observed {
    observe_sliced(base, workload, observers, &[])
}

const OFF: [bool; 2] = [false; 2];

/// Line count, byte length and 64-bit FNV-1a digest of one artifact.
#[derive(Debug, PartialEq)]
struct Digest {
    lines: usize,
    bytes: usize,
    fnv1a: u64,
}

fn digest(text: &str) -> Digest {
    Digest {
        lines: text.lines().count(),
        bytes: text.len(),
        fnv1a: fnv1a(FNV_OFFSET, text.bytes()),
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a 64-bit FNV-1a state.
fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Answer count, row count and FNV-1a digest of every user answer a run
/// holds.
#[derive(Debug, PartialEq)]
struct AnswerDigest {
    answers: usize,
    rows: usize,
    fnv1a: u64,
}

/// Digests `report.answers`: per answer the user and the epoch, then per
/// row the node and each `(attribute, value bits)`, per aggregate `(op,
/// attribute, value bits)`. Asserts each user's epochs strictly ascend.
fn answer_digest(report: &RunReport) -> AnswerDigest {
    let mut d = AnswerDigest {
        answers: 0,
        rows: 0,
        fnv1a: FNV_OFFSET,
    };
    let mut feed = |bytes: &[u8]| d.fnv1a = fnv1a(d.fnv1a, bytes.iter().copied());
    for (user, per_epoch) in &report.answers {
        assert!(
            per_epoch.windows(2).all(|w| w[0].0 < w[1].0),
            "user {user:?}: epochs not strictly ascending"
        );
        for (epoch_ms, answer) in per_epoch {
            d.answers += 1;
            feed(&user.0.to_le_bytes());
            feed(&epoch_ms.to_le_bytes());
            match answer {
                EpochAnswer::Rows(rows) => {
                    feed(b"R");
                    d.rows += rows.len();
                    for row in rows.iter() {
                        feed(&row.node.to_le_bytes());
                        for (attr, value) in row.readings.iter() {
                            feed(&[attr as u8]);
                            feed(&value.to_bits().to_le_bytes());
                        }
                    }
                }
                EpochAnswer::Aggregates(values) => {
                    feed(b"A");
                    for v in values {
                        feed(&[v.op as u8, v.attr as u8]);
                        feed(&v.value.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    d
}

/// The 100-query churn cell `alloc_budget.rs` pins: queries arriving and
/// leaving under the full scheme on 4×4.
fn churn_cell() -> (ExperimentConfig, Vec<WorkloadEvent>) {
    let workload = random_workload(&RandomWorkloadParams {
        n_queries: 100,
        mean_arrival_ms: 10_000.0,
        nodeid_max: 15.0,
        ..RandomWorkloadParams::default()
    });
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(workload_end_ms(&workload)) + 4 * 2048,
        ..ExperimentConfig::default()
    };
    (config, workload)
}

#[test]
fn answers_match_their_pinned_digests() {
    // What every user was told, generated while acquisition answers were
    // still `Vec<Row>`: a change to how an answer is held must not change one
    // bit of what it holds. (Tier 1 alone and the full scheme tell Workload
    // A's users the same thing.)
    let pinned = [
        (Strategy::Baseline, (94, 599, 0xd917_aa2c_3eb4_32e4)),
        (Strategy::BsOnly, (94, 603, 0xa4bf_dc29_6a6b_5354)),
        (Strategy::InNetOnly, (94, 564, 0x9bfc_bafe_c304_28a2)),
        (Strategy::TwoTier, (94, 603, 0xa4bf_dc29_6a6b_5354)),
    ];
    for (strategy, (answers, rows, fnv1a)) in pinned {
        let config = ExperimentConfig {
            strategy,
            ..golden_config()
        };
        let got = answer_digest(&run_experiment(&config, &workload_a()));
        let want = AnswerDigest {
            answers,
            rows,
            fnv1a,
        };
        assert_eq!(got, want, "Workload-A 4×4 golden cell under {strategy}");
    }
    let (config, workload) = churn_cell();
    let got = answer_digest(&run_experiment(&config, &workload));
    let want = AnswerDigest {
        answers: 443,
        rows: 2059,
        fnv1a: 0xb972_845c_a0b4_29be,
    };
    assert_eq!(got, want, "100-query 4×4 churn cell");
}

// The traced bytes of three cells. The first two were generated at commit
// 755f41b — the last one whose engine wrote to `Metrics`, a window recorder
// and the trace sink by hand at every site — and never regenerated by the
// commit that re-routed those sites through the probe seam, nor by the one
// that deleted the recorder. Unlike the on-vs-off tests above, which compare one build with
// itself, these compare builds.
//
// The golden cell covers frame tx / delivery / collision / retry, CSMA
// deferrals and wakes; the stormy one (15% loss, a crash with recovery, a
// crash without, Workload B so that idle nodes nap) adds loss, missed and
// abandoned frames, sleep-start and the fault events — every engine trace
// kind appears in it, and the test asserts so.
//
// `STORMY_TRACE` moved once since: Tier 1 scores every running synthetic
// again, so Workload B's trace gained the ten `tier1-eval` lines the
// candidate index used to hide (11200 → 11210 lines). The new digest is
// what commit 091690d writes when its linear-scan reference mode is made
// the default and nothing else is touched; `GOLDEN_TRACE` never moved.
//
// `FAULTED_TRACE` (10% loss, one crash that recovers, Workload B) was taken
// at commit ad79f16, the last one whose trace mirrored each engine
// occurrence in a `TraceEvent` variant of its own, field by field. It too
// carries all twelve engine kinds, so their JSON bytes are pinned across the
// change that traces the probe itself.
//
// All three digests moved together once more when `SCHEMA_VERSION` went
// 3 → 4: the header's one digit is the only byte that changed, so the line
// and byte counts held.
const GOLDEN_TRACE: Digest = Digest {
    lines: 10807,
    bytes: 936846,
    fnv1a: 0x963f_8def_44bc_ab8b,
};
const STORMY_TRACE: Digest = Digest {
    lines: 11210,
    bytes: 959734,
    fnv1a: 0xfc47_c7ac_410e_82fd,
};
const FAULTED_TRACE: Digest = Digest {
    lines: 12045,
    bytes: 1041064,
    fnv1a: 0xc4b0_1b6d_8537_4dfa,
};

/// Every `ev` tag an engine occurrence is traced under.
const ENGINE_KINDS: [&str; 12] = [
    "frame-tx",
    "csma-deferred",
    "frame-delivered",
    "frame-collision",
    "frame-lost",
    "frame-missed",
    "frame-retry",
    "frame-gave-up",
    "sleep-start",
    "wake",
    "fault-crash",
    "fault-recover",
];

fn stormy_config() -> ExperimentConfig {
    ExperimentConfig {
        radio: RadioParams {
            loss_rate: 0.15,
            ..RadioParams::default()
        },
        faults: FaultPlan::scripted(vec![
            (NodeId(5), 4 * 2048, Some(14 * 2048)),
            (NodeId(10), 7 * 2048 + 100, None),
        ]),
        ..golden_config()
    }
}

fn faulted_config() -> ExperimentConfig {
    ExperimentConfig {
        radio: RadioParams {
            loss_rate: 0.1,
            ..RadioParams::default()
        },
        faults: FaultPlan::scripted(vec![(NodeId(5), 4 * 2048, Some(14 * 2048))]),
        ..golden_config()
    }
}

#[test]
fn trace_bytes_match_the_pinned_digests() {
    let golden_kinds = [
        "frame-tx",
        "frame-delivered",
        "frame-collision",
        "frame-retry",
        "csma-deferred",
        "wake",
    ];
    for (name, config, workload, trace, kinds) in [
        (
            "golden",
            golden_config(),
            workload_a(),
            GOLDEN_TRACE,
            &golden_kinds[..],
        ),
        (
            "stormy",
            stormy_config(),
            workload_b(),
            STORMY_TRACE,
            &ENGINE_KINDS,
        ),
        (
            "faulted",
            faulted_config(),
            workload_b(),
            FAULTED_TRACE,
            &ENGINE_KINDS,
        ),
    ] {
        let run = observe(&config, &workload, [true, false]);
        assert_eq!(digest(&run.trace), trace, "{name} cell: JSONL trace");
        for kind in kinds {
            let tag = format!("\"ev\":\"{kind}\"");
            assert!(run.trace.contains(&tag), "{name} cell never traced {kind}");
        }
    }
}

#[test]
fn every_observer_at_once_leaves_the_golden_cell_untouched() {
    // The pairwise tests above do not cover what the observers might do to
    // each other: both on at once must give the all-off report and the
    // pinned trace. A session exposes no mid-run state, so the witness that
    // no observer set perturbs it there is the sliced run itself: stopped at
    // a non-aligned instant and then finished, under each of the four sets,
    // it must render the uninterrupted report.
    let base = golden_config();
    let off = observe(&base, &workload_a(), OFF);
    let all = observe(&base, &workload_a(), [true; 2]);
    for set in 0..4u8 {
        let observers = [set & 1 != 0, set & 2 != 0];
        let sliced = observe_sliced(&base, &workload_a(), observers, &[CUT_MS]);
        assert_eq!(
            sliced.report, off.report,
            "stopping at {CUT_MS} ms under {observers:?} changed the report"
        );
    }

    assert_eq!(
        off.report, all.report,
        "RunReport diverged under observation"
    );
    assert_eq!(digest(&all.trace), GOLDEN_TRACE);
    assert!(all.audit.is_some_and(|a| a.is_clean()));
    assert!(off.trace.is_empty() && off.audit.is_none());
}
