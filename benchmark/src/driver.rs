//! The traced driver: the product runner's loop repeated with public calls
//! only, a span around each call into a layer and every node's app wrapped
//! in [`Timed`].
//!
//! It must stay observationally identical to `RunSession` for the fault-free
//! configurations the benchmark generates: the check pass compares its
//! fingerprint (and, for the campaign, its rendered report byte for byte)
//! with the product runner's and fails the run on any difference.

use crate::trace::{Recorder, Timed, ENGINE_SPAN, ROOT};
use crate::workloads::{generate, CellOutcome, Held, Inputs, Outcome, Workload};
use std::collections::BTreeMap;
use ttmqo_core::{
    map_epoch_answer_at, BaseStationOptimizer, CellRecord, CostModel, ExperimentConfig, FieldKind,
    NetworkOp, OptimizerOptions, OptimizerStats, TtmqoApp, WorkloadAction, WorkloadEvent,
};
use ttmqo_query::{Attribute, EpochAnswer, Query, QueryId, Selection};
use ttmqo_sim::{
    CompletenessReport, EnergyProfile, EngineStats, Metrics, MsgKind, NodeApp, NodeId,
    QueryCompleteness, Simulator, Topology, UniformField,
};
use ttmqo_stats::{EmpiricalDistribution, LevelStats, SelectivityEstimator};
use ttmqo_tinydb::{Command, Output, Srt, TinyDbApp, TinyDbConfig};

/// Exact per-layer counts of one traced rep, summed over its cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Cells run.
    pub cells: u64,
    /// Nodes in the topologies built.
    pub nodes: u64,
    /// Tier-1 counters, summed over the cells that run Tier 1.
    pub tier1: OptimizerStats,
    /// Σ time-weighted mean synthetic-query count over the cells.
    pub avg_synthetics_sum: f64,
    /// Σ time-weighted mean benefit ratio over the cells.
    pub benefit_ratio_sum: f64,
    /// Engine events processed.
    pub events: u64,
    /// Frames put on the air.
    pub frames: u64,
    /// Transmissions that ran out of carrier-sense deferrals.
    pub csma_capped: u64,
    /// Highest frame-slab high-water mark of any cell.
    pub slab_high_water: u64,
    /// Retransmissions after loss or collision.
    pub retransmissions: u64,
    /// Frames corrupted by collisions, per receiver.
    pub collisions: u64,
    /// Unicast frames abandoned after the last retry.
    pub gave_up: u64,
    /// Sensor samples taken.
    pub samples: u64,
    /// Result frames transmitted.
    pub result_frames: u64,
    /// Σ node sleep time, ms.
    pub sleep_ms: f64,
    /// Answers mapped to user queries.
    pub answers: u64,
    /// Rows in those answers.
    pub rows: u64,
    /// Bytes of the rendered report (campaign only).
    pub report_bytes: u64,
}

/// What one traced cell produced.
struct CellRun {
    outcome: CellOutcome,
    queries_answered: usize,
    avg_synthetic_count: f64,
    avg_benefit_ratio: f64,
    optimizer: Option<OptimizerStats>,
    completeness: CompletenessReport,
    metrics: Metrics,
    engine: EngineStats,
    energy_mj: f64,
    max_node_energy_mj: f64,
    mapped_answers: u64,
    mapped_rows: u64,
    /// The user queries' answers: what a `RunReport` holds.
    answers: BTreeMap<QueryId, Vec<(u64, EpochAnswer)>>,
}

impl Counts {
    fn add(&mut self, run: &CellRun, nodes: usize) {
        self.cells += 1;
        self.nodes += nodes as u64;
        if let Some(stats) = run.optimizer {
            self.tier1.inserted += stats.inserted;
            self.tier1.terminated += stats.terminated;
            self.tier1.injections += stats.injections;
            self.tier1.abortions += stats.abortions;
            self.tier1.absorbed_insertions += stats.absorbed_insertions;
            self.tier1.absorbed_terminations += stats.absorbed_terminations;
        }
        self.avg_synthetics_sum += run.avg_synthetic_count;
        self.benefit_ratio_sum += run.avg_benefit_ratio;
        self.events += run.engine.events_processed;
        self.frames += run.engine.frames_total;
        self.csma_capped += run.engine.csma_capped_deferrals;
        self.slab_high_water = self
            .slab_high_water
            .max(run.engine.frame_slab_high_water as u64);
        self.retransmissions += run.metrics.retransmissions();
        self.collisions += run.metrics.collisions();
        self.gave_up += run.metrics.gave_up();
        self.samples += run.metrics.samples();
        self.result_frames += run.metrics.tx_count(MsgKind::Result);
        self.sleep_ms += run.metrics.total_sleep_ms();
        self.answers += run.mapped_answers;
        self.rows += run.mapped_rows;
    }
}

/// The mapping in force after a workload event: user → (synthetic id,
/// synthetic query, user query).
type MappingSnapshot = BTreeMap<QueryId, (QueryId, Query, Query)>;

/// The optimizer the product runner builds for `config` on `topo`.
fn build_optimizer(config: &ExperimentConfig, topo: &Topology) -> BaseStationOptimizer {
    let levels = LevelStats::from_levels(topo.levels().iter().copied());
    let mut estimator = SelectivityEstimator::uniform();
    estimator.set_model(
        Attribute::NodeId,
        Box::new(EmpiricalDistribution::from_samples(
            Attribute::NodeId,
            topo.node_count(),
            (1..topo.node_count()).map(|i| i as f64),
        )),
    );
    let positions = topo
        .nodes()
        .filter(|n| *n != NodeId::BASE_STATION)
        .map(|n| {
            let p = topo.position(n);
            (p.x, p.y)
        })
        .collect();
    let model = CostModel::new(
        config.radio.startup_ms,
        config.radio.per_byte_ms,
        levels,
        estimator,
    )
    .with_positions(positions);
    BaseStationOptimizer::with_options(
        model,
        OptimizerOptions {
            alpha: config.alpha,
            ..config.optimizer
        },
    )
}

/// Runs one cell under the recorder.
fn drive_cell(
    config: &ExperimentConfig,
    workload: &[WorkloadEvent],
    rec: &mut Recorder,
) -> CellRun {
    assert!(
        matches!(config.field, FieldKind::Uniform),
        "the benchmark generates uniform fields only"
    );
    let topo = rec.span("topology.build", |_| {
        Topology::grid(config.grid_n).expect("valid benchmark grid")
    });
    if config.strategy.uses_innetwork_tier() {
        let innetwork = config.innetwork.clone();
        drive(config, workload, topo, rec, move |_, _| {
            Timed(TtmqoApp::new(innetwork.clone()))
        })
    } else {
        drive(config, workload, topo, rec, |_, _| {
            Timed(TinyDbApp::new(TinyDbConfig::default()))
        })
    }
}

fn drive<A, F>(
    config: &ExperimentConfig,
    workload: &[WorkloadEvent],
    topo: Topology,
    rec: &mut Recorder,
    factory: F,
) -> CellRun
where
    A: NodeApp<Command = Command, Output = Output>,
    F: FnMut(NodeId, &Topology) -> A + Send + 'static,
{
    let mut events = workload.to_vec();
    events.sort_by_key(|e| e.at);
    events.retain(|e| e.at < config.duration);

    let mut sim = rec.span("sim.new", |_| {
        Simulator::new(
            topo.clone(),
            config.radio.clone(),
            config.sim.clone(),
            Box::new(UniformField::new(config.field_seed)),
            factory,
        )
    });
    let mut optimizer = config
        .strategy
        .uses_basestation_tier()
        .then(|| rec.span("tier1.build", |_| build_optimizer(config, &topo)));
    let window_ms =
        (topo.max_level() as u64 + 1) * config.innetwork.slot_ms + config.innetwork.jitter_ms + 32;

    let mut live_users: BTreeMap<QueryId, Query> = BTreeMap::new();
    let mut terminated_at: BTreeMap<QueryId, u64> = BTreeMap::new();
    let mut posed_at: BTreeMap<QueryId, u64> = BTreeMap::new();
    let mut posed_query: BTreeMap<QueryId, Query> = BTreeMap::new();
    let mut snapshots: Vec<(u64, MappingSnapshot)> = Vec::new();
    let mut answers: BTreeMap<QueryId, Vec<(u64, EpochAnswer)>> = BTreeMap::new();
    let (mut weighted_syn, mut weighted_ratio, mut last_t) = (0.0f64, 0.0f64, 0u64);
    let (mut current_syn_count, mut current_ratio) = (0usize, 0.0f64);
    let (mut mapped_answers, mut mapped_rows) = (0u64, 0u64);

    // Drains the network's outputs and maps each answer back to the user
    // queries it serves, under the mapping in force at the epoch's start.
    let mut ingest = |sim: &mut Simulator<A>,
                      snapshots: &[(u64, MappingSnapshot)],
                      terminated_at: &BTreeMap<QueryId, u64>,
                      rec: &mut Recorder| {
        rec.span("mapper.ingest", |_| {
            for record in sim.take_outputs() {
                let Output::Answer {
                    qid,
                    epoch_ms,
                    answer,
                } = &record.output;
                let first_after = snapshots.partition_point(|(t, _)| *t <= *epoch_ms);
                let Some(snap) = first_after.checked_sub(1).map(|i| &snapshots[i].1) else {
                    continue;
                };
                for (uid, (syn_id, syn_q, user_q)) in snap {
                    if syn_id != qid {
                        continue;
                    }
                    if terminated_at
                        .get(uid)
                        .is_some_and(|&term_ms| record.time.as_ms() > term_ms)
                    {
                        continue;
                    }
                    let position_of = |node: u16| {
                        let id = NodeId(node);
                        (id.index() < topo.node_count()).then(|| {
                            let p = topo.position(id);
                            (p.x, p.y)
                        })
                    };
                    if let Some(mapped) =
                        map_epoch_answer_at(user_q, syn_q, *epoch_ms, answer, &position_of)
                    {
                        mapped_answers += 1;
                        if let EpochAnswer::Rows(rows) = &mapped {
                            mapped_rows += rows.len() as u64;
                        }
                        answers.entry(*uid).or_default().push((*epoch_ms, mapped));
                    }
                }
            }
        });
    };

    for event in events {
        let t = event.at;
        rec.span(ENGINE_SPAN, |_| sim.run_until(t));
        ingest(&mut sim, &snapshots, &terminated_at, rec);
        let dt = t.as_ms().saturating_sub(last_t) as f64;
        weighted_syn += current_syn_count as f64 * dt;
        weighted_ratio += current_ratio * dt;
        last_t = t.as_ms();

        let ops: Vec<NetworkOp> = match (&mut optimizer, event.action) {
            (Some(opt), WorkloadAction::Pose(q)) => {
                live_users.insert(q.id(), q.clone());
                posed_at.insert(q.id(), t.as_ms());
                posed_query.insert(q.id(), q.clone());
                rec.span("tier1.call", |_| opt.insert(q))
                    .expect("workload ids are unique and unreserved")
            }
            (Some(opt), WorkloadAction::Terminate(qid)) => {
                live_users.remove(&qid);
                terminated_at.insert(qid, t.as_ms());
                rec.span("tier1.call", |_| opt.terminate(qid))
            }
            (None, WorkloadAction::Pose(q)) => {
                live_users.insert(q.id(), q.clone());
                posed_at.insert(q.id(), t.as_ms());
                posed_query.insert(q.id(), q.clone());
                vec![NetworkOp::Inject(q)]
            }
            (None, WorkloadAction::Terminate(qid)) => {
                live_users.remove(&qid);
                terminated_at.insert(qid, t.as_ms());
                vec![NetworkOp::Abort(qid)]
            }
        };
        for op in ops {
            let cmd = match op {
                NetworkOp::Inject(q) => Command::Pose(q),
                NetworkOp::Abort(id) => Command::Terminate(id),
            };
            sim.schedule_command(t, NodeId::BASE_STATION, cmd);
        }
        current_syn_count = optimizer
            .as_ref()
            .map_or(live_users.len(), |o| o.synthetic_count());
        current_ratio = optimizer.as_ref().map_or(0.0, |o| o.benefit_ratio());
        rec.span("mapper.snapshot", |_| {
            let mut snap = MappingSnapshot::new();
            for (uid, uq) in &live_users {
                match &optimizer {
                    Some(opt) => {
                        if let Some(syn_id) = opt.mapping(*uid) {
                            if let Some(sq) = opt.synthetic(syn_id) {
                                snap.insert(*uid, (syn_id, sq.query().clone(), uq.clone()));
                            }
                        }
                    }
                    None => {
                        snap.insert(*uid, (*uid, uq.clone(), uq.clone()));
                    }
                }
            }
            snapshots.push((t.as_ms(), snap));
        });
    }
    let duration = config.duration;
    rec.span(ENGINE_SPAN, |_| sim.run_until(duration));
    ingest(&mut sim, &snapshots, &terminated_at, rec);
    let dt = duration.as_ms().saturating_sub(last_t) as f64;
    weighted_syn += current_syn_count as f64 * dt;
    weighted_ratio += current_ratio * dt;

    // Report assembly, as `RunSession::finish` does it — which also consumes
    // the session, so the run's state is moved in and torn down here, inside
    // the span, and the answers leave with the report.
    rec.span("report.render", move |_| {
        let _torn_down = (snapshots, live_users);
        for per_query in answers.values_mut() {
            per_query.sort_by_key(|(e, _)| *e);
        }
        let srt = Srt::build(&topo);
        let mut per_query: BTreeMap<QueryId, QueryCompleteness> = BTreeMap::new();
        for (uid, q) in &posed_query {
            let pose = posed_at[uid];
            let end = terminated_at
                .get(uid)
                .copied()
                .unwrap_or(u64::MAX)
                .min(duration.as_ms());
            let matching = topo
                .nodes()
                .filter(|&n| n != NodeId::BASE_STATION && srt.node_matches(n, q))
                .count() as u64;
            let by_epoch: BTreeMap<u64, (bool, u64)> = answers
                .get(uid)
                .map(|v| {
                    v.iter()
                        .map(|(e, a)| {
                            let info = match a {
                                EpochAnswer::Rows(rows) => (!rows.is_empty(), rows.len() as u64),
                                EpochAnswer::Aggregates(vals) => (!vals.is_empty(), 0),
                            };
                            (*e, info)
                        })
                        .collect()
                })
                .unwrap_or_default();
            let is_acquisition = matches!(q.selection(), Selection::Attributes(_));
            let mut qc = QueryCompleteness::default();
            let step = q.epoch().as_ms();
            let mut e = q.epoch().next_fire_at(pose + 1);
            while e + window_ms < end {
                if matching > 0 {
                    qc.expected_epochs += 1;
                    if is_acquisition {
                        qc.expected_rows += matching;
                    }
                    if let Some((nonempty, rows)) = by_epoch.get(&e) {
                        if *nonempty {
                            qc.answered_epochs += 1;
                        }
                        qc.delivered_rows += rows;
                    }
                }
                e += step;
            }
            per_query.insert(*uid, qc);
        }
        let completeness = CompletenessReport {
            per_query,
            ..CompletenessReport::default()
        };
        let total = duration.as_ms().max(1) as f64;
        let metrics = sim.metrics().clone();
        let energy_profile = EnergyProfile::default();
        let engine = sim.engine_stats();
        CellRun {
            outcome: CellOutcome::new(
                "",
                config.strategy,
                config.grid_n,
                &engine,
                metrics.total_tx_busy_ms(),
                metrics.avg_transmission_time_pct(),
                answers.values().map(|v| v.len() as u64).collect(),
                &completeness,
            ),
            queries_answered: answers.len(),
            avg_synthetic_count: weighted_syn / total,
            avg_benefit_ratio: weighted_ratio / total,
            optimizer: optimizer.as_ref().map(|o| o.stats()),
            completeness,
            energy_mj: metrics.total_energy_mj(&energy_profile),
            max_node_energy_mj: metrics.max_node_energy_mj(&energy_profile),
            metrics,
            engine,
            mapped_answers,
            mapped_rows,
            answers,
        }
    })
}

/// One rep through the traced driver.
#[derive(Debug)]
pub struct TracedRep {
    /// The simulated fingerprint, to compare with the product runner's.
    pub outcome: Outcome,
    /// Exact per-layer counts.
    pub counts: Counts,
    /// Workload events in the generated inputs.
    pub workload_events: u64,
    /// The rendered campaign report (`None` for a single run).
    pub report: Option<String>,
    /// A single run's answers, held as a `RunReport` holds them so that
    /// dropping them is no part of the rep.
    pub _answers: Option<BTreeMap<QueryId, Vec<(u64, EpochAnswer)>>>,
}

/// Runs one whole rep of `workload` under `rec`: generate, build, run to the
/// end, assemble the report. A campaign needs `template`, a product run of
/// the same inputs, for the coordinates and the wall-clock field of the
/// records it renders — so that the rendered report can be compared with the
/// product's byte for byte.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    smoke: bool,
    template: &Held,
    rec: &mut Recorder,
) -> TracedRep {
    rec.span(ROOT, |rec| {
        let inputs = rec.span("workloads.gen", |_| generate(workload, seed, smoke));
        let workload_events = inputs.event_count() as u64;
        let mut counts = Counts::default();
        match (&inputs, template) {
            (Inputs::Single { config, events }, _) => {
                let run = drive_cell(config, events, rec);
                counts.add(&run, config.grid_n * config.grid_n);
                TracedRep {
                    outcome: Outcome {
                        cells: vec![run.outcome],
                    },
                    counts,
                    workload_events,
                    report: None,
                    _answers: Some(run.answers),
                }
            }
            (Inputs::Campaign(spec), Held::Campaign(product, _)) => {
                let mut cells = Vec::new();
                let mut records = Vec::new();
                for (cell, template) in spec.cells().iter().zip(&product.cells) {
                    let events = &spec.workloads[cell.workload].events;
                    let mut run = drive_cell(&cell.config(&spec.base), events, rec);
                    counts.add(&run, cell.grid_n * cell.grid_n);
                    run.outcome.workload = spec.workloads[cell.workload].name.clone();
                    // A cell record keeps only the total.
                    run.outcome.answers_per_query = vec![run.outcome.answer_epochs()];
                    records.push(rec.span("report.render", move |_| {
                        let record = CellRecord {
                            workload_events: events.len(),
                            queries_answered: run.queries_answered,
                            answer_epochs: run.answers.values().map(Vec::len).sum(),
                            avg_synthetic_count: run.avg_synthetic_count,
                            avg_benefit_ratio: run.avg_benefit_ratio,
                            optimizer: run.optimizer,
                            completeness: run.completeness,
                            metrics: run.metrics.snapshot(),
                            engine: run.engine,
                            energy_mj: run.energy_mj,
                            max_node_energy_mj: run.max_node_energy_mj,
                            // Coordinates, wall clock and the fields of the
                            // observability toggles come from the product's
                            // record of the same cell.
                            ..template.clone()
                        };
                        // The product drops a cell's report, answers and
                        // all, once its record is made.
                        drop(run.answers);
                        record
                    }));
                    cells.push(run.outcome);
                }
                let report = rec.span("report.render", |_| {
                    let mut out = String::new();
                    for record in &records {
                        out.push_str(&record.to_json());
                        out.push('\n');
                    }
                    out
                });
                counts.report_bytes = report.len() as u64;
                TracedRep {
                    outcome: Outcome { cells },
                    counts,
                    workload_events,
                    report: Some(report),
                    _answers: None,
                }
            }
            (Inputs::Campaign(_), Held::Single(_)) => {
                unreachable!("a campaign's template is a campaign report")
            }
        }
    })
}
