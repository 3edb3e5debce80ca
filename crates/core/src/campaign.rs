//! Experiment campaigns: declarative sweeps over the paper's evaluation
//! space, executed across a thread pool, one record per run.
//!
//! The paper's figures are all grids of independent runs — Figure 3 is
//! workloads × network sizes × the four strategies, Figures 4–5 sweep the
//! adaptive workload's concurrency — and the seed repo ran them one cell at
//! a time in nested loops. A [`CampaignSpec`] names the sweep once
//! (strategies × grid sizes × field seeds × workloads over a shared base
//! [`ExperimentConfig`]), and [`run_campaign`] executes the cells N-way
//! parallel over scoped threads (`std::thread::scope`). Cells are completely
//! independent simulations, each bit-for-bit deterministic given its configuration, so
//! per-cell results are identical whatever the thread count — only the wall
//! clock changes. [`run_campaign_sequential`] is the single-thread oracle the
//! determinism tests compare against.
//!
//! Every cell yields a [`CellRecord`]: the cell's identity, its wall-clock
//! time, event and answer counts, a [`MetricsSnapshot`] of the simulator's
//! counters, and the tier-1 optimizer's statistics when that tier ran.
//! [`CampaignReport::to_jsonl`] serializes the records as JSON lines (one
//! object per cell): the campaign's one document. The record shape is
//! documented on [`CellRecord::to_json`].
//!
//! # Example
//!
//! ```
//! use ttmqo_core::{
//!     run_campaign_with, CampaignSpec, ExperimentConfig, Strategy, WorkloadEvent,
//! };
//! use ttmqo_query::{parse_query, QueryId};
//! use ttmqo_sim::SimTime;
//!
//! let workload = vec![
//!     WorkloadEvent::pose(0, parse_query(QueryId(1),
//!         "select light where 100<light<600 epoch duration 2048").unwrap()),
//!     WorkloadEvent::pose(0, parse_query(QueryId(2),
//!         "select light where 200<light<500 epoch duration 4096").unwrap()),
//! ];
//! let base = ExperimentConfig {
//!     duration: SimTime::from_ms(16 * 2048),
//!     ..ExperimentConfig::default()
//! };
//! let spec = CampaignSpec::new(base)
//!     .strategies([Strategy::Baseline, Strategy::TwoTier])
//!     .grid_sizes([3])
//!     .workload("pair", workload);
//! let report = run_campaign_with(&spec, 2);
//! assert_eq!(report.cells.len(), 2);
//! assert!(report.to_jsonl().lines().count() == 2);
//! ```

use crate::basestation::OptimizerStats;
use crate::runner::{run_experiment, ExperimentConfig, Strategy, WorkloadEvent};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use ttmqo_sim::json;
use ttmqo_sim::{
    summarize_trace, AuditReport, CompletenessReport, EngineStats, FaultPlan, JsonLinesSink,
    MetricsSnapshot, TraceHandle, SCHEMA_VERSION,
};

/// A named workload inside a campaign.
#[derive(Debug, Clone)]
pub struct CampaignWorkload {
    /// Name carried into every record of this workload's cells.
    pub name: String,
    /// The user-level events every cell of this workload replays.
    pub events: Vec<WorkloadEvent>,
}

/// A named fault plan inside a campaign.
#[derive(Debug, Clone)]
pub struct CampaignFault {
    /// Name carried into every record of this plan's cells (`"none"` for the
    /// default fault-free entry).
    pub name: String,
    /// The fault plan injected into every cell of this axis entry.
    pub plan: FaultPlan,
}

/// A declarative sweep: the cross product of strategies, grid sizes, field
/// seeds, fault plans and workloads, every cell sharing `base` for
/// everything else.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Configuration shared by every cell; each cell overrides `strategy`,
    /// `grid_n` and `field_seed` with its own coordinates.
    pub base: ExperimentConfig,
    /// Strategies axis (defaults to all four of §4).
    pub strategies: Vec<Strategy>,
    /// Grid-side axis (defaults to the paper's 4 and 8 ⇒ 16 and 64 nodes).
    pub grid_sizes: Vec<usize>,
    /// Sensor-field seed axis (defaults to the base config's single seed).
    pub field_seeds: Vec<u64>,
    /// Fault-plan axis (defaults to a single fault-free `"none"` entry, so
    /// existing sweeps keep their cell count until a plan is added).
    pub faults: Vec<CampaignFault>,
    /// Workload axis; at least one is required to have any cells.
    pub workloads: Vec<CampaignWorkload>,
    /// Opt-in per-cell trace directory. When set, every cell traces into a
    /// [`JsonLinesSink`] writing
    /// `<dir>/trace-<index>-<workload>-<strategy>-<grid_n>-<fault>.jsonl`,
    /// named in the record's `trace_file` (under the contract stated on
    /// [`ttmqo_sim::Observe`]: the cell's record is the same either way);
    /// `None` (the default) leaves the base config's sink untouched.
    pub trace_dir: Option<PathBuf>,
}

impl CampaignSpec {
    /// A spec over `base` with the paper's default axes (all four
    /// strategies, 4×4 and 8×8 grids, the base config's field seed) and no
    /// workloads yet.
    pub fn new(base: ExperimentConfig) -> Self {
        CampaignSpec {
            strategies: Strategy::ALL.to_vec(),
            grid_sizes: vec![4, 8],
            field_seeds: vec![base.field_seed],
            faults: vec![CampaignFault {
                name: "none".to_string(),
                plan: FaultPlan::default(),
            }],
            workloads: Vec::new(),
            trace_dir: None,
            base,
        }
    }

    /// Enables the standing invariant auditor for every cell
    /// (`observe.audit` on the shared base): each record carries an
    /// [`AuditReport`], and — when the campaign also traces — the written
    /// trace file is read back and reconciled against the cell's answer
    /// counts.
    pub fn audit(mut self) -> Self {
        self.base.observe.audit = true;
        self
    }

    /// Replaces the strategy axis.
    pub fn strategies(mut self, strategies: impl IntoIterator<Item = Strategy>) -> Self {
        self.strategies = strategies.into_iter().collect();
        self
    }

    /// Replaces the grid-size axis.
    pub fn grid_sizes(mut self, grid_sizes: impl IntoIterator<Item = usize>) -> Self {
        self.grid_sizes = grid_sizes.into_iter().collect();
        self
    }

    /// Replaces the field-seed axis.
    pub fn field_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.field_seeds = seeds.into_iter().collect();
        self
    }

    /// Appends a named fault plan to the axis, alongside the default
    /// fault-free `"none"` entry — a fault sweep usually wants the healthy
    /// cell as its baseline. Replace [`CampaignSpec::faults`] wholesale to
    /// drop it.
    pub fn fault_plan(mut self, name: impl Into<String>, plan: FaultPlan) -> Self {
        self.faults.push(CampaignFault {
            name: name.into(),
            plan,
        });
        self
    }

    /// Enables per-cell trace output under `dir` (created on demand). See
    /// [`CampaignSpec::trace_dir`] for the file naming scheme.
    pub fn trace_output(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Appends a named workload.
    pub fn workload(mut self, name: impl Into<String>, events: Vec<WorkloadEvent>) -> Self {
        self.workloads.push(CampaignWorkload {
            name: name.into(),
            events,
        });
        self
    }

    /// Number of cells the sweep expands to.
    pub fn cell_count(&self) -> usize {
        self.workloads.len()
            * self.grid_sizes.len()
            * self.field_seeds.len()
            * self.faults.len()
            * self.strategies.len()
    }

    /// Expands the sweep into per-cell coordinates, in the deterministic
    /// report order: workloads (outer) × grid sizes × field seeds × fault
    /// plans × strategies (inner) — the order the paper's figure tables
    /// read in.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for (workload, _) in self.workloads.iter().enumerate() {
            for &grid_n in &self.grid_sizes {
                for &field_seed in &self.field_seeds {
                    for (fault, _) in self.faults.iter().enumerate() {
                        for &strategy in &self.strategies {
                            cells.push(CellSpec {
                                index: cells.len(),
                                workload,
                                strategy,
                                grid_n,
                                field_seed,
                                fault,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

/// Coordinates of one cell in a campaign's sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Position in the campaign's deterministic cell order.
    pub index: usize,
    /// Index into [`CampaignSpec::workloads`].
    pub workload: usize,
    /// Strategy coordinate.
    pub strategy: Strategy,
    /// Grid-side coordinate.
    pub grid_n: usize,
    /// Field-seed coordinate.
    pub field_seed: u64,
    /// Index into [`CampaignSpec::faults`].
    pub fault: usize,
}

impl CellSpec {
    /// The full experiment configuration of this cell (without the fault
    /// plan, which [`run_campaign_with`] injects from the spec's fault axis).
    pub fn config(&self, base: &ExperimentConfig) -> ExperimentConfig {
        ExperimentConfig {
            strategy: self.strategy,
            grid_n: self.grid_n,
            field_seed: self.field_seed,
            ..base.clone()
        }
    }
}

/// Observability record of one executed cell.
///
/// Everything except `wall_clock_ms` is a pure function of the cell's
/// configuration: two runs of the same cell — sequential or parallel, on any
/// machine — produce records that agree on every other field.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Workload name.
    pub workload: String,
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Grid side (nodes = `grid_n²`).
    pub grid_n: usize,
    /// Sensor-field seed.
    pub field_seed: u64,
    /// Fault-plan name (`"none"` for the fault-free entry).
    pub fault: String,
    /// Host wall-clock time of this cell's simulation, ms. The only
    /// non-deterministic field, so [`CellRecord::to_json`] leaves it out.
    pub wall_clock_ms: f64,
    /// Number of workload events replayed.
    pub workload_events: usize,
    /// Distinct user queries that received at least one answer.
    pub queries_answered: usize,
    /// Total `(query, epoch)` answers attributed to user queries.
    pub answer_epochs: usize,
    /// Time-weighted mean running synthetic-query count.
    pub avg_synthetic_count: f64,
    /// Time-weighted mean tier-1 benefit ratio.
    pub avg_benefit_ratio: f64,
    /// Tier-1 optimizer counters; `None` for strategies without that tier.
    pub optimizer: Option<OptimizerStats>,
    /// Per-query answer completeness and repair accounting.
    pub completeness: CompletenessReport,
    /// Simulator counters at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Engine hot-path counters with the per-phase event breakdown.
    pub engine: EngineStats,
    /// File name (relative to [`CampaignSpec::trace_dir`]) of this cell's
    /// trace JSONL, when the campaign ran with tracing enabled.
    pub trace_file: Option<String>,
    /// Whole-run radio+sensing energy, mJ, under the default
    /// [`EnergyProfile`](ttmqo_sim::EnergyProfile).
    pub energy_mj: f64,
    /// The hottest single node's energy, mJ, under the same profile.
    pub max_node_energy_mj: f64,
    /// Standing invariant audit of the cell's run; `Some` iff the campaign
    /// ran with [`CampaignSpec::audit`] (or the base config set
    /// `observe.audit`). When the campaign also traced, the
    /// report includes the trace↔answer reconciliation over the written
    /// trace file. Deterministic: auditing is arithmetic over the run's
    /// own deterministic artifacts.
    pub audit: Option<AuditReport>,
}

impl CellRecord {
    /// The paper's headline metric for this cell.
    pub fn avg_transmission_time_pct(&self) -> f64 {
        self.metrics.avg_transmission_time_pct
    }

    /// Serializes the record as one JSON object (one line of the campaign's
    /// JSON-lines report):
    ///
    /// ```json
    /// {"schema_version":4,"workload":"A","strategy":"two-tier","grid_n":4,"field_seed":987,
    ///  "fault":"none","workload_events":8,"queries_answered":4,
    ///  "answer_epochs":160,"avg_synthetic_count":1.9,"avg_benefit_ratio":0.31,
    ///  "energy_mj":14000.2,"max_node_energy_mj":950.8,
    ///  "optimizer":{"inserted":4,"terminated":4,"injections":2,"abortions":1,
    ///               "absorbed_insertions":2,"absorbed_terminations":3},
    ///  "completeness":{"min_epoch_ratio":1,"min_row_ratio":0.95,"delivered_rows":1520,
    ///                  "repairs_triggered":0,"mean_repair_latency_ms":null},
    ///  "metrics":{"avg_transmission_time_pct":0.41,"total_tx_busy_ms":1031.2,
    ///             "total_rx_busy_ms":2222.1,"total_sleep_ms":0,
    ///             "tx_count":{"result":320},"tx_bytes":{"result":9600},
    ///             "retransmissions":0,"collisions":0,"losses":0,"gave_up":0,
    ///             "orphaned_drops":0,"orphaned_nodes":0,
    ///             "samples":512,"horizon_ms":196608},
    ///  "engine":{"events_processed":5000,"frames_total":320,
    ///            "frame_slab_high_water":4,"frames_in_flight":0,"csma_capped_deferrals":0,
    ///            "timer_events":4000,"deliver_events":900,"command_events":8,
    ///            "maintenance_events":92,"fault_events":0}}
    /// ```
    ///
    /// `schema_version` is [`ttmqo_sim::SCHEMA_VERSION`] (shared with the
    /// trace JSONL format and the flood rows of `bench/results/flood.jsonl`).
    /// Host time (`wall_clock_ms`) is left out, so the same cell renders the
    /// same bytes on any machine and a checked-in record file is its own
    /// regression gate. `optimizer` is
    /// `null` for strategies without the base-station tier. A trailing
    /// `"trace_file":"trace-0-....jsonl"` field is present only when the
    /// campaign ran with [`CampaignSpec::trace_output`], and a trailing
    /// `"audit":{...}` ([`AuditReport::to_json`]) only with
    /// [`CampaignSpec::audit`].
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.u64("schema_version", SCHEMA_VERSION as u64);
            o.str("workload", &self.workload);
            o.str("strategy", &self.strategy.to_string());
            o.u64("grid_n", self.grid_n as u64);
            o.u64("field_seed", self.field_seed);
            o.str("fault", &self.fault);
            o.u64("workload_events", self.workload_events as u64);
            o.u64("queries_answered", self.queries_answered as u64);
            o.u64("answer_epochs", self.answer_epochs as u64);
            o.f64("avg_synthetic_count", self.avg_synthetic_count);
            o.f64("avg_benefit_ratio", self.avg_benefit_ratio);
            o.f64("energy_mj", self.energy_mj);
            o.f64("max_node_energy_mj", self.max_node_energy_mj);
            match &self.optimizer {
                None => o.null("optimizer"),
                Some(s) => o.obj("optimizer", |o| {
                    o.u64("inserted", s.inserted);
                    o.u64("terminated", s.terminated);
                    o.u64("injections", s.injections);
                    o.u64("abortions", s.abortions);
                    o.u64("absorbed_insertions", s.absorbed_insertions);
                    o.u64("absorbed_terminations", s.absorbed_terminations);
                }),
            }
            let c = &self.completeness;
            o.obj("completeness", |o| {
                o.f64("min_epoch_ratio", c.min_epoch_ratio());
                o.f64("min_row_ratio", c.min_row_ratio());
                o.u64("delivered_rows", c.delivered_rows());
                o.u64("repairs_triggered", c.repairs_triggered);
                match c.mean_repair_latency_ms() {
                    Some(ms) => o.f64("mean_repair_latency_ms", ms),
                    None => o.null("mean_repair_latency_ms"),
                }
            });
            let m = &self.metrics;
            o.obj("metrics", |o| {
                o.f64("avg_transmission_time_pct", m.avg_transmission_time_pct);
                o.f64("total_tx_busy_ms", m.total_tx_busy_ms);
                o.f64("total_rx_busy_ms", m.total_rx_busy_ms);
                o.f64("total_sleep_ms", m.total_sleep_ms);
                o.obj("tx_count", |o| {
                    for (kind, n) in &m.tx_count {
                        o.u64(&kind.to_string(), *n);
                    }
                });
                o.obj("tx_bytes", |o| {
                    for (kind, n) in &m.tx_bytes {
                        o.u64(&kind.to_string(), *n);
                    }
                });
                o.u64("retransmissions", m.retransmissions);
                o.u64("collisions", m.collisions);
                o.u64("losses", m.losses);
                o.u64("gave_up", m.gave_up);
                o.u64("orphaned_drops", m.orphaned_drops);
                o.u64("orphaned_nodes", m.orphaned_nodes);
                o.u64("samples", m.samples);
                o.u64("horizon_ms", m.horizon_ms);
            });
            let e = &self.engine;
            o.obj("engine", |o| {
                o.u64("events_processed", e.events_processed);
                o.u64("frames_total", e.frames_total);
                o.u64("frame_slab_high_water", e.frame_slab_high_water as u64);
                o.u64("frames_in_flight", e.frames_in_flight as u64);
                o.u64("csma_capped_deferrals", e.csma_capped_deferrals);
                o.u64("timer_events", e.timer_events);
                o.u64("deliver_events", e.deliver_events);
                o.u64("command_events", e.command_events);
                o.u64("maintenance_events", e.maintenance_events);
                o.u64("fault_events", e.fault_events);
            });
            if let Some(name) = &self.trace_file {
                o.str("trace_file", name);
            }
            if let Some(audit) = &self.audit {
                o.raw("audit", &audit.to_json());
            }
        })
    }
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// One record per cell, in [`CampaignSpec::cells`] order regardless of
    /// which thread finished first.
    pub cells: Vec<CellRecord>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the whole campaign, ms.
    pub wall_clock_ms: f64,
}

impl CampaignReport {
    /// The whole report as JSON lines: one [`CellRecord::to_json`] object
    /// per line, in cell order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&cell.to_json());
            out.push('\n');
        }
        out
    }
}

/// Makes an axis name safe for a file name (slashes, spaces and other
/// non-alphanumerics become `_`).
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A cell's trace file: `trace-<index>-<workload>-<strategy>-<grid_n>-<fault>.jsonl`.
fn trace_file_name(spec: &CampaignSpec, cell: &CellSpec) -> String {
    format!(
        "trace-{}-{}-{}-{}-{}.jsonl",
        cell.index,
        slug(&spec.workloads[cell.workload].name),
        cell.strategy,
        cell.grid_n,
        slug(&spec.faults[cell.fault].name),
    )
}

/// The full configuration a cell runs under — coordinates applied over the
/// base, the fault axis's plan injected, and a trace sink attached when the
/// campaign writes traces — plus the name of the trace file the cell's sink
/// writes to, if any.
fn cell_config(spec: &CampaignSpec, cell: &CellSpec) -> (ExperimentConfig, Option<String>) {
    let mut config = cell.config(&spec.base);
    config.faults = spec.faults[cell.fault].plan.clone();
    let trace_file = spec.trace_dir.as_ref().and_then(|dir| {
        let name = trace_file_name(spec, cell);
        std::fs::create_dir_all(dir).ok()?;
        let sink = JsonLinesSink::create(dir.join(&name)).ok()?;
        config.observe.trace = TraceHandle::new(sink);
        Some(name)
    });
    (config, trace_file)
}

/// Runs one cell and wraps its results into a record.
fn run_cell(spec: &CampaignSpec, cell: &CellSpec) -> CellRecord {
    let workload = &spec.workloads[cell.workload];
    let fault = &spec.faults[cell.fault];
    let (config, trace_file) = cell_config(spec, cell);
    let start = Instant::now();
    let mut report = run_experiment(&config, &workload.events);
    let wall_clock_ms = start.elapsed().as_secs_f64() * 1000.0;
    config.observe.trace.flush();
    // Trace↔answer reconciliation: with both the auditor and tracing on,
    // read the written trace back and check that the answer counts it
    // reconstructs equal the run report's. Post-hoc by construction — the
    // run is already finished. A trace that could not be created, read or
    // parsed counts as a skipped check, not a violation (an absent artifact
    // proves nothing).
    if let (Some(audit), Some(dir)) = (report.audit.as_mut(), &spec.trace_dir) {
        let summarized = trace_file
            .as_ref()
            .and_then(|name| std::fs::read_to_string(dir.join(name)).ok())
            .and_then(|text| summarize_trace(&text).ok());
        match summarized {
            Some(summary) => {
                let answers: BTreeMap<u64, u64> = report
                    .answers
                    .iter()
                    .map(|(qid, v)| (qid.0, v.len() as u64))
                    .collect();
                audit.check_trace_answers(&summary, &answers);
            }
            None => audit.checks_skipped += 1,
        }
    }
    CellRecord {
        workload: workload.name.clone(),
        strategy: cell.strategy,
        grid_n: cell.grid_n,
        field_seed: cell.field_seed,
        fault: fault.name.clone(),
        wall_clock_ms,
        workload_events: workload.events.len(),
        queries_answered: report.answers.len(),
        answer_epochs: report.answers.values().map(Vec::len).sum(),
        avg_synthetic_count: report.avg_synthetic_count,
        avg_benefit_ratio: report.avg_benefit_ratio,
        optimizer: report.optimizer_stats,
        completeness: report.completeness,
        metrics: report.metrics.snapshot(),
        engine: report.engine,
        trace_file,
        energy_mj: report.energy_mj,
        max_node_energy_mj: report.max_node_energy_mj,
        audit: report.audit,
    }
}

/// Runs the campaign over one worker thread per available CPU.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_campaign_with(spec, threads)
}

/// Runs the campaign on exactly one thread, in cell order — the oracle the
/// parallel runner's determinism is tested against.
pub fn run_campaign_sequential(spec: &CampaignSpec) -> CampaignReport {
    run_campaign_with(spec, 1)
}

/// Runs the campaign over `threads` worker threads (clamped to `1..=cells`).
///
/// Workers pull cells from a shared atomic cursor, so scheduling is dynamic
/// — a thread that drew a cheap 4×4 baseline cell moves on while another is
/// still inside an 8×8 two-tier cell — but each record lands in its cell's
/// slot, so the report order is the deterministic [`CampaignSpec::cells`]
/// order no matter the interleaving.
pub fn run_campaign_with(spec: &CampaignSpec, threads: usize) -> CampaignReport {
    let cells = spec.cells();
    let started = Instant::now();
    let threads = threads.clamp(1, cells.len().max(1));
    let records: Vec<CellRecord> = if threads == 1 {
        cells.iter().map(|cell| run_cell(spec, cell)).collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<CellRecord>>> = Mutex::new(vec![None; cells.len()]);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let record = run_cell(spec, cell);
                    slots.lock().expect("no worker panicked holding the lock")[i] = Some(record);
                });
            }
        });
        slots
            .into_inner()
            .expect("workers have exited")
            .into_iter()
            .map(|r| r.expect("cursor visited every cell"))
            .collect()
    };
    CampaignReport {
        cells: records,
        threads,
        wall_clock_ms: started.elapsed().as_secs_f64() * 1000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::FieldKind;
    use ttmqo_query::{parse_query, QueryId};
    use ttmqo_sim::{RadioParams, SimTime};

    fn tiny_spec() -> CampaignSpec {
        let workload = vec![
            WorkloadEvent::pose(
                0,
                parse_query(
                    QueryId(1),
                    "select light where 100<light<600 epoch duration 2048",
                )
                .unwrap(),
            ),
            WorkloadEvent::pose(
                0,
                parse_query(
                    QueryId(2),
                    "select light where 200<light<500 epoch duration 4096",
                )
                .unwrap(),
            ),
        ];
        let base = ExperimentConfig {
            duration: SimTime::from_ms(10 * 2048),
            radio: RadioParams::lossless(),
            field: FieldKind::Uniform,
            ..ExperimentConfig::default()
        };
        CampaignSpec::new(base)
            .strategies([Strategy::Baseline, Strategy::TwoTier])
            .grid_sizes([3])
            .workload("tiny", workload)
    }

    #[test]
    fn cells_expand_in_documented_order() {
        let spec = tiny_spec()
            .grid_sizes([3, 4])
            .field_seeds([1, 2])
            .workload("tiny2", Vec::new());
        let cells = spec.cells();
        assert_eq!(cells.len(), spec.cell_count());
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        // Innermost axis is the strategy, outermost the workload.
        assert_eq!(
            (cells[0].workload, cells[0].grid_n, cells[0].field_seed),
            (0, 3, 1)
        );
        assert_eq!(cells[0].strategy, Strategy::Baseline);
        assert_eq!(cells[1].strategy, Strategy::TwoTier);
        assert_eq!(cells[2].field_seed, 2);
        assert_eq!(cells[4].grid_n, 4);
        assert_eq!(cells[8].workload, 1);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn report_preserves_cell_order_and_counts() {
        let spec = tiny_spec();
        let report = run_campaign_with(&spec, 2);
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].strategy, Strategy::Baseline);
        assert_eq!(report.cells[1].strategy, Strategy::TwoTier);
        for cell in &report.cells {
            assert_eq!(cell.workload, "tiny");
            assert_eq!(cell.workload_events, 2);
            assert_eq!(cell.queries_answered, 2);
            assert!(cell.answer_epochs > 0);
            assert!(cell.avg_transmission_time_pct() > 0.0);
            assert!(
                0.0 < cell.max_node_energy_mj && cell.max_node_energy_mj < cell.energy_mj,
                "the hottest node's energy is positive and below the total"
            );
            assert!(cell.wall_clock_ms >= 0.0);
        }
        // Only the two-tier cell carries optimizer stats.
        assert!(report.cells[0].optimizer.is_none());
        assert!(report.cells[1].optimizer.is_some());
        let at = |strategy, field_seed| {
            report.cells.iter().find(|c| {
                c.workload == "tiny"
                    && c.strategy == strategy
                    && c.grid_n == 3
                    && c.field_seed == field_seed
            })
        };
        let found = at(Strategy::TwoTier, spec.base.field_seed).expect("lookup by coordinates");
        assert_eq!(found.strategy, Strategy::TwoTier);
        assert!(at(Strategy::InNetOnly, 0).is_none());
    }

    #[test]
    fn jsonl_has_one_wellformed_record_per_cell() {
        let report = run_campaign_with(&tiny_spec(), 2);
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"workload\":\"tiny\""));
            assert!(line.contains("\"metrics\":{"));
            assert!(line.contains("\"avg_transmission_time_pct\":"));
            assert!(line.contains("\"energy_mj\":"));
            assert!(line.contains("\"max_node_energy_mj\":"));
            assert!(line.contains("\"tx_count\":{"));
            assert!(json::parse(line).is_ok(), "malformed record {line}");
            let sanitized = line
                .replace("\"optimizer\":null", "")
                .replace("\"mean_repair_latency_ms\":null", "");
            assert!(!sanitized.contains("null"), "unexpected null in {line}");
        }
        assert!(jsonl.contains("\"strategy\":\"baseline\""));
        assert!(jsonl.contains("\"strategy\":\"two-tier\""));
    }

    #[test]
    fn fault_axis_expands_cells_and_marks_records() {
        use ttmqo_sim::NodeId;
        let spec = tiny_spec().strategies([Strategy::TwoTier]).fault_plan(
            "crash-one",
            FaultPlan::scripted(vec![(NodeId(8), 3 * 2048, None)]),
        );
        assert_eq!(spec.cell_count(), 2, "none + crash-one");
        let report = run_campaign_with(&spec, 2);
        assert_eq!(report.cells[0].fault, "none");
        assert_eq!(report.cells[1].fault, "crash-one");
        // The healthy lossless cell answers every expected epoch (row
        // completeness is below 1 by design here: expected rows are a static
        // upper bound that ignores the workload's value predicates); the
        // faulty cell's accounting visibly diverges from it.
        assert_eq!(report.cells[0].completeness.min_epoch_ratio(), 1.0);
        assert_eq!(report.cells[0].completeness.repairs_triggered, 0);
        assert_ne!(report.cells[0].completeness, report.cells[1].completeness);
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains("\"fault\":\"none\""));
        assert!(jsonl.contains("\"fault\":\"crash-one\""));
        assert!(jsonl.contains("\"completeness\":{\"min_epoch_ratio\":"));
        assert!(jsonl.contains("\"orphaned_nodes\":"));
    }

    #[test]
    fn auditing_with_tracing_reconciles_the_trace() {
        let dir = std::env::temp_dir().join(format!("ttmqo-audit-campaign-{}", std::process::id()));
        let plain = run_campaign_sequential(&tiny_spec().audit());
        let traced = run_campaign_sequential(&tiny_spec().audit().trace_output(&dir));
        for (p, t) in plain.cells.iter().zip(&traced.cells) {
            let pa = p.audit.as_ref().expect("audited cell carries a report");
            let ta = t.audit.as_ref().expect("audited cell carries a report");
            assert!(pa.is_clean(), "untraced audit clean, got {pa}");
            assert!(ta.is_clean(), "traced audit clean, got {ta}");
            // The traced campaign reads each cell's trace back and runs the
            // trace↔answer reconciliation on top of the standing checks.
            assert_eq!(
                ta.checks_run,
                pa.checks_run + 1,
                "exactly one extra check (trace↔answers) on the traced run"
            );
            // Auditing plus tracing still moves no bits of behaviour.
            assert_eq!(p.metrics, t.metrics);
            assert_eq!(p.engine, t.engine);
        }
        let jsonl = traced.to_jsonl();
        assert!(jsonl.contains("\"audit\":{\"schema_version\":"));
        assert!(jsonl.contains("\"violations\":[]"));
        // Unaudited campaigns keep their records audit-free.
        let bare = run_campaign_sequential(&tiny_spec());
        assert!(bare.cells.iter().all(|c| c.audit.is_none()));
        assert!(!bare.to_jsonl().contains("\"audit\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_uncreatable_trace_is_a_skipped_check_not_a_silent_pass() {
        // A trace directory under a regular file can never be created.
        let file = std::env::temp_dir().join(format!("ttmqo-audit-nodir-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").expect("temp file writable");
        let report =
            run_campaign_sequential(&tiny_spec().audit().trace_output(file.join("traces")));
        for cell in &report.cells {
            assert_eq!(cell.trace_file, None);
            let audit = cell.audit.as_ref().expect("audited cell carries a report");
            assert_eq!(audit.checks_skipped, 1, "the trace↔answer check is counted");
            assert!(audit.is_clean(), "a skipped check is not a violation");
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn zero_workload_campaign_is_empty() {
        let base = ExperimentConfig::default();
        let spec = CampaignSpec::new(base);
        assert_eq!(spec.cell_count(), 0);
        let report = run_campaign_with(&spec, 4);
        assert!(report.cells.is_empty());
        assert_eq!(report.to_jsonl(), "");
    }
}
