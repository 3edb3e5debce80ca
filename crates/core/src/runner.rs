//! The experiment runner: executes one workload under one strategy and
//! reports the paper's metrics plus every user query's answers.
//!
//! The four strategies of the evaluation (§4):
//!
//! * [`Strategy::Baseline`] — every user query injected as-is, TinyDB
//!   processing (no multi-query optimization);
//! * [`Strategy::BsOnly`] — tier 1 only: user queries rewritten into
//!   synthetic queries at the base station, TinyDB processing in-network;
//! * [`Strategy::InNetOnly`] — tier 2 only: user queries injected as-is, but
//!   the network runs the TTMQO in-network protocol;
//! * [`Strategy::TwoTier`] — the full TTMQO scheme: rewrite first, then the
//!   in-network protocol executes the synthetic queries.

use crate::basestation::{
    map_epoch_answers_at, BaseStationOptimizer, NetworkOp, OptimizerOptions, OptimizerStats,
};
use crate::innetwork::{TtmqoApp, TtmqoConfig};
use std::collections::{BTreeMap, BTreeSet};
use ttmqo_query::{EpochAnswer, EpochDuration, Query, QueryId, Selection, BASE_EPOCH_MS};
use ttmqo_sim::{
    AuditReport, CompletenessReport, CorrelatedField, EnergyProfile, EngineStats, FaultPlan,
    FaultSchedule, Metrics, NodeId, Observe, QueryCompleteness, RadioParams, SensorField,
    SimConfig, SimTime, Simulator, Topology, TraceEvent, UniformField,
};
use ttmqo_tinydb::{Command, Output, Srt, TinyDbApp, TinyDbConfig};

/// Which optimization tiers run (§4's four configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// No multi-query optimization (the paper's baseline).
    Baseline,
    /// Base-station optimization only.
    BsOnly,
    /// In-network optimization only.
    InNetOnly,
    /// The full two-tier TTMQO scheme.
    TwoTier,
}

impl Strategy {
    /// All strategies, in the order the paper's figures list them.
    pub const ALL: [Strategy; 4] = [
        Strategy::Baseline,
        Strategy::BsOnly,
        Strategy::InNetOnly,
        Strategy::TwoTier,
    ];

    /// Whether the base-station rewriting tier is active.
    pub fn uses_basestation_tier(self) -> bool {
        matches!(self, Strategy::BsOnly | Strategy::TwoTier)
    }

    /// Whether the in-network tier is active.
    pub fn uses_innetwork_tier(self) -> bool {
        matches!(self, Strategy::InNetOnly | Strategy::TwoTier)
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::Baseline => "baseline",
            Strategy::BsOnly => "bs-only",
            Strategy::InNetOnly => "in-net-only",
            Strategy::TwoTier => "two-tier",
        };
        f.write_str(s)
    }
}

/// One user-level workload action.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadAction {
    /// A user poses a query.
    Pose(Query),
    /// A user terminates a query.
    Terminate(QueryId),
}

/// A timestamped workload action.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEvent {
    /// When the action happens.
    pub at: SimTime,
    /// The action.
    pub action: WorkloadAction,
}

impl WorkloadEvent {
    /// A query posed at `at_ms`.
    pub fn pose(at_ms: u64, query: Query) -> Self {
        WorkloadEvent {
            at: SimTime::from_ms(at_ms),
            action: WorkloadAction::Pose(query),
        }
    }

    /// A query terminated at `at_ms`.
    pub fn terminate(at_ms: u64, qid: QueryId) -> Self {
        WorkloadEvent {
            at: SimTime::from_ms(at_ms),
            action: WorkloadAction::Terminate(qid),
        }
    }
}

/// Sensor field used by an experiment.
#[derive(Debug, Clone, Copy)]
pub enum FieldKind {
    /// Deterministic hash-uniform readings (the estimator's assumption).
    Uniform,
    /// Spatially/temporally correlated readings.
    Correlated,
}

/// Full configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The strategy under test.
    pub strategy: Strategy,
    /// Grid side length (the paper uses 4 and 8 ⇒ 16 and 64 nodes).
    pub grid_n: usize,
    /// Simulated duration.
    pub duration: SimTime,
    /// Radio model.
    pub radio: RadioParams,
    /// Engine configuration (seed, maintenance traffic).
    pub sim: SimConfig,
    /// Termination parameter α of Algorithm 2. This field wins: the runner
    /// builds its optimizer with `OptimizerOptions { alpha, ..optimizer }`,
    /// so `optimizer.alpha` is ignored.
    pub alpha: f64,
    /// Sensor field kind.
    pub field: FieldKind,
    /// Seed for the sensor field.
    pub field_seed: u64,
    /// Explicit topology overriding `grid_n` (random deployments, custom
    /// layouts). `None` uses the paper's n×n grid.
    pub topology_override: Option<Topology>,
    /// Tier-1 algorithm knobs beyond α (ablations). Their `alpha` is
    /// ignored; [`ExperimentConfig::alpha`] wins.
    pub optimizer: OptimizerOptions,
    /// Tier-2 configuration (slotting, sleep, dynamic parents).
    pub innetwork: TtmqoConfig,
    /// Whether the base station feeds observed readings back into the cost
    /// model's selectivity estimator (§3.1.2's maintained statistics).
    pub adaptive_statistics: bool,
    /// Fault-injection plan (crashes, recoveries, loss windows). Empty by
    /// default: no fault events are scheduled and no extra randomness is
    /// drawn. A non-empty plan also arms the in-network parent failure
    /// detector and, for rewriting strategies, the base station's
    /// missing-result repair monitor.
    pub faults: FaultPlan,
    /// What to observe about the run: trace sink, invariant auditor. Both
    /// off by default; [`Observe`] states the one contract they share (on or
    /// off, the run is the same run). The auditor fills
    /// [`RunReport::audit`].
    pub observe: Observe,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            strategy: Strategy::TwoTier,
            grid_n: 4,
            duration: SimTime::from_ms(120 * 2048),
            radio: RadioParams::default(),
            sim: SimConfig::default(),
            alpha: 0.6,
            field: FieldKind::Uniform,
            field_seed: 0xF1E1D,
            topology_override: None,
            adaptive_statistics: false,
            optimizer: OptimizerOptions::default(),
            innetwork: TtmqoConfig::default(),
            faults: FaultPlan::default(),
            observe: Observe::default(),
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct RunReport {
    /// The strategy that ran.
    pub strategy: Strategy,
    /// Radio/sensing metrics of the whole run.
    pub metrics: Metrics,
    /// Per *user* query: `(epoch start ms, answer)` in epoch order.
    pub answers: BTreeMap<QueryId, Vec<(u64, EpochAnswer)>>,
    /// Time-weighted mean number of running synthetic queries
    /// (= user queries for strategies without the first tier).
    pub avg_synthetic_count: f64,
    /// Time-weighted mean of the optimizer's benefit ratio (0 for
    /// strategies without the first tier).
    pub avg_benefit_ratio: f64,
    /// Optimizer counters (None without the first tier).
    pub optimizer_stats: Option<OptimizerStats>,
    /// Answer-completeness and repair accounting (per user query).
    pub completeness: CompletenessReport,
    /// Engine hot-path counters, including the per-phase event breakdown
    /// (timer / deliver / command / maintenance / fault).
    pub engine: EngineStats,
    /// Whole-run radio+sensing energy (mJ) under the default
    /// [`EnergyProfile`].
    pub energy_mj: f64,
    /// The hottest single node's energy (mJ) under the same profile.
    pub max_node_energy_mj: f64,
    /// Standing invariant audit; `Some` iff `observe.audit` was set.
    /// Violations are *reported*, never panicked on: check the report's
    /// `is_clean()` — callers (campaigns, CI gates) decide how loudly to
    /// fail.
    pub audit: Option<AuditReport>,
}

impl RunReport {
    /// The paper's headline metric for this run.
    pub fn avg_transmission_time_pct(&self) -> f64 {
        self.metrics.avg_transmission_time_pct()
    }
}

fn build_field(config: &ExperimentConfig, topo: &Topology) -> Box<dyn SensorField + Send + Sync> {
    match config.field {
        FieldKind::Uniform => Box::new(UniformField::new(config.field_seed)),
        FieldKind::Correlated => Box::new(CorrelatedField::for_topology(config.field_seed, topo)),
    }
}

fn build_optimizer(config: &ExperimentConfig, topo: &Topology) -> BaseStationOptimizer {
    BaseStationOptimizer::for_topology(
        topo,
        &config.radio,
        OptimizerOptions {
            alpha: config.alpha,
            ..config.optimizer
        },
    )
}

/// Runs one experiment: the workload under the configured strategy.
///
/// Equivalent to `RunSession::new(config, workload).finish()`; the session
/// API additionally allows stopping mid-run.
///
/// # Panics
///
/// Panics if the grid cannot be constructed (e.g. `grid_n == 0`).
pub fn run_experiment(config: &ExperimentConfig, workload: &[WorkloadEvent]) -> RunReport {
    RunSession::new(config, workload).finish()
}

/// One user query's life at the base station.
#[derive(Debug)]
struct UserLife {
    query: Query,
    posed_ms: u64,
    /// `None` while the query runs. TinyDB labels an answer with its epoch's
    /// *start* but emits it at the epoch's close, so an epoch can straddle a
    /// Terminate; attribution checks the answer's arrival against this.
    terminated_ms: Option<u64>,
}

/// The one record of query lives (DESIGN.md §8): every user query ever
/// posed and every query ever injected into the network, each stored once,
/// joined by the services the injected queries gave the users. An injected
/// id's query never changes — Tier 1 rewrites under fresh ids — so "who was
/// served by which id from when to when" is all that answer attribution and
/// completeness accounting need. Strategies without
/// Tier 1 are the degenerate case: every user is its own injected query,
/// and its definition is the one in `users`.
#[derive(Debug, Default)]
struct Ledger {
    users: BTreeMap<QueryId, UserLife>,
    /// The running users, each with its open service: the injected query now
    /// serving it, and since when.
    open: BTreeMap<QueryId, Option<(QueryId, u64)>>,
    /// Definitions of the injected queries that are not a user's own (Tier
    /// 1's synthetics), taken from the [`NetworkOp::Inject`] that created
    /// them. Tier 1 never reuses a user id: its ids are at or above
    /// [`SYNTHETIC_ID_BASE`](crate::SYNTHETIC_ID_BASE), which users may not
    /// take.
    injected: BTreeMap<QueryId, Query>,
    /// `(injected, user, from_ms) → until_ms`: the half-open interval of
    /// epoch starts `injected` answered for `user`; `u64::MAX` while open.
    services: BTreeMap<(QueryId, QueryId, u64), u64>,
    /// `(terminated_ms, user)` for the users terminated at an instant the
    /// run has not yet passed: an answer arriving at that instant still
    /// counts, so their answers may still grow.
    closing: Vec<(u64, QueryId)>,
}

impl Ledger {
    fn pose(&mut self, query: Query, t_ms: u64) {
        let id = query.id();
        let life = UserLife {
            query,
            posed_ms: t_ms,
            terminated_ms: None,
        };
        self.users.insert(id, life);
        self.open.insert(id, None);
    }

    fn terminate(&mut self, user: QueryId, t_ms: u64) {
        if let Some(Some((syn, from_ms))) = self.open.remove(&user) {
            self.services.insert((syn, user, from_ms), t_ms);
        }
        if let Some(life) = self.users.get_mut(&user) {
            life.terminated_ms = Some(t_ms);
            self.closing.push((t_ms, user));
        }
    }

    /// The users whose answers are final at `now_ms`, the run being past
    /// their termination instant ([`served`](Self::served) drops every
    /// answer that arrives later); each is returned once.
    fn finalized(&mut self, now_ms: u64) -> impl Iterator<Item = QueryId> + '_ {
        let done = self
            .closing
            .iter()
            .take_while(|(t_ms, _)| *t_ms < now_ms)
            .count();
        self.closing.drain(..done).map(|(_, user)| user)
    }

    /// Enters an injected query's definition, unless it is a posed user's
    /// own.
    fn inject(&mut self, query: &Query) {
        if !self.users.contains_key(&query.id()) {
            self.injected.insert(query.id(), query.clone());
        }
    }

    /// Brings the open services in line with `mapping` as of `t_ms`, after
    /// the events at `t_ms` ran. A service opened and closed within one
    /// millisecond is empty: the mapping in force at an epoch is the state
    /// after *all* events at or before its start.
    fn remap(&mut self, t_ms: u64, mapping: impl Fn(QueryId) -> Option<QueryId>) {
        for (user, open) in &mut self.open {
            let now = mapping(*user);
            if now == open.map(|(syn, _)| syn) {
                continue;
            }
            if let Some((syn, from_ms)) = *open {
                self.services.insert((syn, *user, from_ms), t_ms);
            }
            *open = now.map(|syn| (syn, t_ms));
            if let Some(syn) = now {
                self.services.insert((syn, *user, t_ms), u64::MAX);
            }
        }
    }

    /// The users the injected query `syn` was serving at the epoch starting
    /// at `epoch_ms`, in ascending id order, as `(user, user query, injected
    /// query)` — minus those already gone when the answer arrived (an answer
    /// arriving at the termination instant itself still counts: the user was
    /// live when it materialized).
    fn served(
        &self,
        syn: QueryId,
        epoch_ms: u64,
        arrival_ms: u64,
    ) -> impl Iterator<Item = (QueryId, &Query, &Query)> {
        let syn_q = self.injected.get(&syn);
        let syn_q = syn_q.or_else(|| self.users.get(&syn).map(|life| &life.query));
        let by_syn = (syn, QueryId(0), 0)..=(syn, QueryId(u64::MAX), u64::MAX);
        self.services
            .range(by_syn)
            .filter(move |((_, _, from_ms), until_ms)| (*from_ms..**until_ms).contains(&epoch_ms))
            .filter_map(move |((_, user, _), _)| {
                let life = self.users.get(user)?;
                let gone = life.terminated_ms.is_some_and(|t| arrival_ms > t);
                (!gone).then_some((*user, &life.query, syn_q?))
            })
    }
}

/// How many consecutive missing expected epochs trigger a Tier-1 repair.
const REPAIR_AFTER_MISSING: u32 = 2;

/// A repair whose answers never come back (e.g. the replacement flood was
/// lost too) stops blocking further repair attempts after this long.
const REPAIR_GRACE_MS: u64 = 8 * BASE_EPOCH_MS;

/// The base station's missing-result detector: audits every user query's
/// expected epochs as their collection windows close, and asks for a Tier-1
/// re-optimization of the owning synthetic query when a query goes silent
/// for [`REPAIR_AFTER_MISSING`] consecutive epochs. Armed only for faulty
/// runs under a rewriting strategy.
#[derive(Debug, Default)]
struct RepairMonitor {
    /// The audit of each live user query.
    audits: BTreeMap<QueryId, Audit>,
    /// Repairs whose first post-repair answer has not arrived yet:
    /// `(trigger ms, member user queries)`.
    pending: Vec<(u64, Vec<QueryId>)>,
    repairs: u64,
    latencies_ms: Vec<u64>,
}

/// Where the repair monitor's audit of one live user query stands.
#[derive(Debug)]
struct Audit {
    /// The query's epoch, the audit's step.
    epoch: EpochDuration,
    /// Next epoch start (ms) to audit.
    next: u64,
    /// Consecutive missing expected epochs.
    streak: u32,
    /// Epochs answered with a non-empty result that the audit has yet to
    /// reach.
    answered: BTreeSet<u64>,
}

impl RepairMonitor {
    fn note_posed(&mut self, q: &Query, t_ms: u64) {
        let audit = Audit {
            epoch: q.epoch(),
            next: q.epoch().next_fire_at(t_ms + 1),
            streak: 0,
            answered: BTreeSet::new(),
        };
        self.audits.insert(q.id(), audit);
    }

    fn note_terminated(&mut self, qid: QueryId) {
        self.audits.remove(&qid);
        self.pending.retain_mut(|(_, members)| {
            members.retain(|m| *m != qid);
            !members.is_empty()
        });
    }

    fn note_answer(&mut self, a: &MappedAnswer) {
        if !a.nonempty {
            return;
        }
        // The audit only moves forward: an epoch it has passed, or one of a
        // user it no longer follows, is never looked up again.
        if let Some(audit) = self.audits.get_mut(&a.user) {
            if a.epoch_ms >= audit.next {
                audit.answered.insert(a.epoch_ms);
            }
        }
        if let Some(pos) = self.pending.iter().position(|(_, m)| m.contains(&a.user)) {
            let (t0, _) = self.pending.remove(pos);
            self.latencies_ms.push(a.arrival_ms.saturating_sub(t0));
        }
    }

    /// Audits every epoch whose collection window (`window_ms`) closed by
    /// time `b`; returns the users whose missing streak crossed the threshold.
    fn due_repairs(&mut self, b: u64, window_ms: u64) -> Vec<QueryId> {
        self.pending
            .retain(|(t0, _)| b.saturating_sub(*t0) <= REPAIR_GRACE_MS);
        let mut due = Vec::new();
        for (uid, audit) in &mut self.audits {
            while audit.next + window_ms <= b {
                if audit.answered.contains(&audit.next) {
                    audit.streak = 0;
                } else {
                    audit.streak += 1;
                }
                audit.next += audit.epoch.as_ms();
            }
            let next = audit.next;
            audit.answered.retain(|epoch_ms| *epoch_ms >= next);
            if audit.streak >= REPAIR_AFTER_MISSING
                && !self.pending.iter().any(|(_, m)| m.contains(uid))
            {
                due.push(*uid);
            }
        }
        due
    }

    fn note_repaired(&mut self, b: u64, members: &[QueryId]) {
        self.repairs += 1;
        self.pending.push((b, members.to_vec()));
        for m in members {
            if let Some(audit) = self.audits.get_mut(m) {
                audit.streak = 0;
                // Give the replacement flood until its next epoch before the
                // audit resumes counting.
                audit.next = audit.epoch.next_fire_at(b + 1);
            }
        }
    }
}

/// One synthetic answer mapped back to one user query: the runner-level
/// counterpart of the engine's probe values, built once per mapping and
/// handed to the repair monitor and the trace.
#[derive(Debug, Clone, Copy)]
struct MappedAnswer {
    user: QueryId,
    synthetic: QueryId,
    epoch_ms: u64,
    /// Result rows in the mapped answer (0 for aggregates).
    rows: u64,
    nonempty: bool,
    arrival_ms: u64,
}

impl MappedAnswer {
    /// Emission delay past the epoch start, ms.
    fn latency_ms(&self) -> u64 {
        self.arrival_ms.saturating_sub(self.epoch_ms)
    }

    fn trace_event(&self) -> TraceEvent {
        TraceEvent::AnswerMapped {
            user: self.user,
            synthetic: self.synthetic,
            epoch_ms: self.epoch_ms,
            rows: self.rows,
            nonempty: self.nonempty,
            latency_ms: self.latency_ms(),
        }
    }
}

/// The two concrete simulators a run can drive: the in-network tier runs the
/// TTMQO protocol, everything else the TinyDB baseline.
enum SimKind {
    /// In-network TTMQO protocol (`InNetOnly`, `TwoTier`).
    Ttmqo(Box<Simulator<TtmqoApp>>),
    /// TinyDB baseline processing (`Baseline`, `BsOnly`).
    TinyDb(Box<Simulator<TinyDbApp>>),
}

macro_rules! with_sim {
    ($kind:expr, $sim:ident => $body:expr) => {
        match $kind {
            SimKind::Ttmqo($sim) => $body,
            SimKind::TinyDb($sim) => $body,
        }
    };
}

impl SimKind {
    fn run_until(&mut self, t: SimTime) {
        with_sim!(self, s => s.run_until(t))
    }

    fn take_outputs(&mut self) -> Vec<ttmqo_sim::OutputRecord<Output>> {
        with_sim!(self, s => s.take_outputs())
    }

    fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: Command) {
        with_sim!(self, s => s.schedule_command(at, node, cmd))
    }

    fn metrics(&self) -> &Metrics {
        with_sim!(self, s => s.metrics())
    }

    fn engine_stats(&self) -> EngineStats {
        with_sim!(self, s => s.engine_stats())
    }

    fn now(&self) -> SimTime {
        with_sim!(self, s => s.now())
    }

    fn topology(&self) -> &Topology {
        with_sim!(self, s => s.topology())
    }
}

/// Builds the strategy's simulator, which keeps the run's one copy of the
/// topology, with the trace sink attached and the fault plan installed.
fn build_sim(config: &ExperimentConfig, topo: Topology) -> SimKind {
    let field = build_field(config, &topo);
    let (radio, sim_config) = (config.radio.clone(), config.sim.clone());
    let mut sim = if config.strategy.uses_innetwork_tier() {
        // Fault-free runs keep the parent failure detector off, so their
        // routing (and the golden snapshot) is untouched.
        let innetwork = config.innetwork.clone();
        let sim = if config.faults.is_empty() {
            let factory = move |_: NodeId, _: &Topology| TtmqoApp::new(innetwork.clone());
            Simulator::new(topo, radio, sim_config, field, factory)
        } else {
            let factory = move |_: NodeId, _: &Topology| {
                TtmqoApp::new(innetwork.clone()).with_failure_detector()
            };
            Simulator::new(topo, radio, sim_config, field, factory)
        };
        SimKind::Ttmqo(Box::new(sim))
    } else {
        let factory = |_: NodeId, _: &Topology| TinyDbApp::new(TinyDbConfig::default());
        SimKind::TinyDb(Box::new(Simulator::new(
            topo, radio, sim_config, field, factory,
        )))
    };
    with_sim!(&mut sim, s => {
        s.set_trace(config.observe.trace.clone());
        s.install_fault_plan(&config.faults);
    });
    sim
}

/// One experiment in progress: the simulator plus every piece of
/// base-station-side driver state (answer attribution, repair monitoring,
/// time-weighted statistics, completeness bookkeeping).
///
/// [`run_experiment`] is `RunSession::new(..).finish()`. The session API
/// adds mid-run control: [`run_to`](Self::run_to) advances to an arbitrary
/// time such that finishing is bit-identical — same [`RunReport`], same
/// trace records (a stop drains the base station's outputs, so
/// `answer-mapped` records may sit earlier in the file) — to a run that
/// never stopped. The configuration, fault plan included, is fixed in
/// [`new`](Self::new): a what-if run under another plan is another session
/// built under that plan. Runs are deterministic, so two runs under
/// non-empty plans agree up to the first fault their plans disagree on (a
/// non-empty plan also arms self-healing in `new`), and being at time `t`
/// again is a replay: a fresh session and `run_to(t)`.
pub struct RunSession {
    config: ExperimentConfig,
    /// The events still to apply, in the order the run applies them. Each
    /// is taken out once applied: a posed query moves into the ledger.
    events: std::vec::IntoIter<WorkloadEvent>,
    sim: SimKind,
    optimizer: Option<BaseStationOptimizer>,
    /// Materialized fault schedule (completeness expectations).
    schedule: Option<FaultSchedule>,
    state: RunnerState,
}

/// The driver state that changes as the run advances, next to the
/// simulator's and the optimizer's own. Everything else a session holds is
/// fixed when [`RunSession::new`] builds it.
#[derive(Debug, Default)]
struct RunnerState {
    /// Highest base-epoch boundary the repair monitor has audited (and the
    /// floor above which the next audit boundary is computed). Advanced to
    /// the event time at each workload event, matching the audit loop the
    /// monolithic driver ran per inter-event interval.
    audited_to: u64,
    monitor: Option<RepairMonitor>,
    ledger: Ledger,
    weighted_syn: f64,
    weighted_ratio: f64,
    last_t: u64,
    current_syn_count: usize,
    current_ratio: f64,
    answers: BTreeMap<QueryId, Vec<(u64, EpochAnswer)>>,
}

impl std::fmt::Debug for RunSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSession")
            .field("strategy", &self.config.strategy)
            .field("now_ms", &self.sim.now().as_ms())
            .field("events_left", &self.events.len())
            .field("running_users", &self.state.ledger.open.len())
            .finish_non_exhaustive()
    }
}

impl RunSession {
    /// Builds a session at time zero, ready to run the workload.
    ///
    /// # Panics
    ///
    /// Panics if the grid cannot be constructed (e.g. `grid_n == 0`).
    pub fn new(config: &ExperimentConfig, workload: &[WorkloadEvent]) -> RunSession {
        let events = Self::prepare_events(config, workload).into_iter();
        // The simulator keeps the run's one topology: an override moves out
        // of the session's copy of the config into it.
        let mut config = config.clone();
        let topo = config
            .topology_override
            .take()
            .unwrap_or_else(|| Topology::grid(config.grid_n).expect("valid experiment grid"));
        let sim = build_sim(&config, topo);
        let topo = sim.topology();

        let rewriting = config.strategy.uses_basestation_tier();
        let optimizer = rewriting.then(|| {
            let mut opt = build_optimizer(&config, topo);
            opt.set_trace(config.observe.trace.clone());
            opt
        });
        // Fault bookkeeping: the same deterministic schedule the engine
        // executes, used for completeness expectations, plus the repair
        // monitor (armed only for faulty runs with the rewriting tier —
        // fault-free runs take exactly the pre-fault code path).
        let schedule = (!config.faults.is_empty()).then(|| config.faults.materialize(topo));
        let state = RunnerState {
            monitor: (rewriting && schedule.is_some()).then(RepairMonitor::default),
            ..RunnerState::default()
        };

        RunSession {
            config,
            events,
            sim,
            optimizer,
            schedule,
            state,
        }
    }

    /// Sorts the workload and drops events the run can never observe. An
    /// event scheduled at or past `duration` would push the time-weighted
    /// accounting past the measured window (and underflow the
    /// `duration − last_event` interval).
    fn prepare_events(config: &ExperimentConfig, workload: &[WorkloadEvent]) -> Vec<WorkloadEvent> {
        let mut events: Vec<WorkloadEvent> = workload.to_vec();
        events.sort_by_key(|e| e.at);
        events.retain(|e| e.at < config.duration);
        events
    }

    /// Drains pending network outputs: feeds adaptive statistics, maps each
    /// answer back to the user queries it served, and reports each mapping
    /// to the repair monitor and the trace. An
    /// answer for epoch `e` is always emitted (and thus drained) after every
    /// workload event at or before `e` has executed, so the ledger already
    /// holds the services in force at `e`, and a termination that should
    /// drop the answer has always been recorded by drain time. Last, the
    /// answers of each user the run is now past the termination of are
    /// final, and shrunk to fit.
    fn ingest(&mut self) {
        let outputs = self.sim.take_outputs();
        let trace = &self.config.observe.trace;
        let topo = self.sim.topology();
        let position_of = |node: u16| {
            let id = NodeId(node);
            (id.index() < topo.node_count()).then(|| {
                let p = topo.position(id);
                (p.x, p.y)
            })
        };
        let RunnerState {
            ledger,
            monitor,
            answers,
            ..
        } = &mut self.state;
        let adaptive = self.config.adaptive_statistics;
        let mut learner = self.optimizer.as_mut().filter(|_| adaptive);
        for record in outputs {
            let Output::Answer {
                qid,
                epoch_ms,
                answer,
            } = &record.output;
            // §3.1.2 statistics maintenance: learn the data distribution
            // from the result rows the base station receives, so later
            // decisions use it.
            if let (Some(opt), EpochAnswer::Rows(rows)) = (learner.as_deref_mut(), answer) {
                for (attr, value) in rows.values() {
                    opt.observe_reading(attr, value);
                }
            }
            let arrival_ms = record.time.as_ms();
            let served = || {
                let served = ledger.served(*qid, *epoch_ms, arrival_ms);
                served.map(|(_, user_q, syn_q)| (user_q, syn_q))
            };
            map_epoch_answers_at(served, *epoch_ms, answer, &position_of, |user_q, mapped| {
                let user = user_q.id();
                let (rows, nonempty) = match &mapped {
                    EpochAnswer::Rows(rows) => (rows.len() as u64, !rows.is_empty()),
                    EpochAnswer::Aggregates(vals) => (0, !vals.is_empty()),
                };
                let a = MappedAnswer {
                    user,
                    synthetic: *qid,
                    epoch_ms: *epoch_ms,
                    rows,
                    nonempty,
                    arrival_ms,
                };
                if let Some(mon) = monitor.as_mut() {
                    mon.note_answer(&a);
                }
                trace.emit_with(arrival_ms * 1000, || a.trace_event());
                answers.entry(user).or_default().push((*epoch_ms, mapped));
            });
        }
        for user in ledger.finalized(self.sim.now().as_ms()) {
            if let Some(final_answers) = answers.get_mut(&user) {
                final_answers.shrink_to_fit();
            }
        }
    }

    /// Folds the time-weighted statistics over `[last_t, t_ms)`. Called only
    /// at workload events, repairs, and the end of the run — never where
    /// [`run_to`](Self::run_to) merely stops, so a sliced run folds the same
    /// intervals a straight run does.
    fn fold_dt(&mut self, t_ms: u64) {
        let state = &mut self.state;
        let dt = t_ms.saturating_sub(state.last_t) as f64;
        state.weighted_syn += state.current_syn_count as f64 * dt;
        state.weighted_ratio += state.current_ratio * dt;
        state.last_t = t_ms;
    }

    /// Carries out what Tier 1 (or, without it, the user) decided at `t_ms`:
    /// sends `ops` to the network, entering each injected query in the
    /// ledger, then re-reads who serves whom and the two time-weighted
    /// quantities.
    fn commit(&mut self, ops: Vec<NetworkOp>, t_ms: u64) {
        let state = &mut self.state;
        for op in ops {
            let cmd = match op {
                NetworkOp::Inject(q) => {
                    state.ledger.inject(&q);
                    Command::Pose(q)
                }
                NetworkOp::Abort(id) => Command::Terminate(id),
            };
            self.sim
                .schedule_command(SimTime::from_ms(t_ms), NodeId::BASE_STATION, cmd);
        }
        match &self.optimizer {
            Some(opt) => {
                state.ledger.remap(t_ms, |user| opt.mapping(user));
                state.current_syn_count = opt.synthetic_count();
                state.current_ratio = opt.benefit_ratio();
            }
            None => {
                state.ledger.remap(t_ms, Some);
                state.current_syn_count = state.ledger.open.len();
            }
        }
    }

    /// With the repair monitor armed, advances in base-epoch steps so the
    /// base station audits for missing answers while time passes; without
    /// it, this is a no-op (the pre-fault behaviour). Audits boundaries
    /// strictly below `t_ms`, plus `t_ms` itself when `inclusive` (a
    /// mid-interval stop at an audit boundary must run that audit, exactly
    /// as a straight run does when its clock passes the boundary).
    fn audit_to(&mut self, t_ms: u64, inclusive: bool) {
        if self.state.monitor.is_none() {
            return;
        }
        let window_ms = self
            .config
            .innetwork
            .collection_window_ms(self.sim.topology());
        let mut b = (self.state.audited_to / BASE_EPOCH_MS + 1) * BASE_EPOCH_MS;
        while b < t_ms || (inclusive && b == t_ms) {
            self.sim.run_until(SimTime::from_ms(b));
            self.ingest();
            let due = match self.state.monitor.as_mut() {
                Some(mon) => mon.due_repairs(b, window_ms),
                None => Vec::new(),
            };
            for uid in due {
                let Some(opt) = self.optimizer.as_mut() else {
                    break;
                };
                let Some(syn) = opt.mapping(uid) else {
                    continue;
                };
                let members: Vec<QueryId> = opt
                    .synthetic(syn)
                    .map(|sq| sq.members().collect())
                    .unwrap_or_default();
                opt.set_trace_time(b);
                let ops = opt.reoptimize(syn);
                // The interval up to the repair ran under the old set.
                self.fold_dt(b);
                self.commit(ops, b);
                if let Some(mon) = self.state.monitor.as_mut() {
                    mon.note_repaired(b, &members);
                }
            }
            self.state.audited_to = b;
            b += BASE_EPOCH_MS;
        }
    }

    /// Applies the next workload event (the simulator has already been
    /// advanced to its time and outputs drained).
    fn apply_event(&mut self) {
        let event = self.events.next().expect("a next event");
        let state = &mut self.state;
        let t_ms = event.at.as_ms();
        if let Some(opt) = self.optimizer.as_mut() {
            opt.set_trace_time(t_ms);
        }
        let ops = match event.action {
            WorkloadAction::Pose(q) => {
                if let Some(mon) = state.monitor.as_mut() {
                    mon.note_posed(&q, t_ms);
                }
                let ops = match self.optimizer.as_mut() {
                    Some(opt) => opt
                        .insert(q.clone())
                        .expect("workload ids are unique and unreserved"),
                    None => vec![NetworkOp::Inject(q.clone())],
                };
                state.ledger.pose(q, t_ms);
                ops
            }
            WorkloadAction::Terminate(qid) => {
                state.ledger.terminate(qid, t_ms);
                if let Some(mon) = state.monitor.as_mut() {
                    mon.note_terminated(qid);
                }
                match self.optimizer.as_mut() {
                    Some(opt) => opt.terminate(qid),
                    None => vec![NetworkOp::Abort(qid)],
                }
            }
        };
        self.commit(ops, t_ms);
        self.state.audited_to = self.state.audited_to.max(t_ms);
    }

    /// Advances the run to time `t` (clamped to the configured duration),
    /// applying every workload event at or before it, exactly as an
    /// uninterrupted run would pass through `t`: stopping here, at any
    /// instant and any number of times, then finishing is bit-identical to
    /// never stopping.
    pub fn run_to(&mut self, t: SimTime) {
        let target = t.min(self.config.duration);
        if target < self.sim.now() {
            return;
        }
        loop {
            match self.events.as_slice().first().map(|e| e.at) {
                Some(et) if et <= target => {
                    self.audit_to(et.as_ms(), false);
                    self.sim.run_until(et);
                    self.ingest();
                    self.fold_dt(et.as_ms());
                    self.apply_event();
                }
                _ => {
                    // A partial interval: audit boundaries up to and
                    // including `target` — except at the run's end, where
                    // the straight driver audits strictly below `duration`.
                    let inclusive = target < self.config.duration;
                    self.audit_to(target.as_ms(), inclusive);
                    self.sim.run_until(target);
                    self.ingest();
                    break;
                }
            }
        }
    }

    /// Runs to the end of the workload and assembles the report.
    pub fn finish(mut self) -> RunReport {
        let duration = self.config.duration;
        self.run_to(duration);
        self.fold_dt(duration.as_ms());

        for per_query in self.state.answers.values_mut() {
            per_query.sort_by_key(|(e, _)| *e);
        }

        // Whole-run answer-completeness accounting: for every expected epoch
        // (query live, collection window fits the run, at least one
        // statically matching node alive) check whether a non-empty answer
        // was delivered. "Statically matching" = id/position can satisfy the
        // query; value predicates depend on readings, so row expectations
        // are an upper bound and exact for predicate-free acquisition
        // queries.
        let topo = self.sim.topology();
        let srt = Srt::build(topo);
        let window_ms = self.config.innetwork.collection_window_ms(topo);
        let mut per_query: BTreeMap<QueryId, QueryCompleteness> = BTreeMap::new();
        for (uid, life) in &self.state.ledger.users {
            let q = &life.query;
            let end = life.terminated_ms.unwrap_or(u64::MAX).min(duration.as_ms());
            let static_matching: Vec<NodeId> = topo
                .nodes()
                .filter(|&n| n != NodeId::BASE_STATION && srt.node_matches(n, q))
                .collect();
            let by_epoch: BTreeMap<u64, (bool, u64)> = self
                .state
                .answers
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
            let mut e = q.epoch().next_fire_at(life.posed_ms + 1);
            while e + window_ms < end {
                let alive = static_matching
                    .iter()
                    .filter(|&&n| self.schedule.as_ref().is_none_or(|s| s.alive_at(n, e)))
                    .count() as u64;
                if alive > 0 {
                    qc.expected_epochs += 1;
                    if is_acquisition {
                        qc.expected_rows += alive;
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
        let completeness = match &self.state.monitor {
            Some(mon) => CompletenessReport {
                per_query,
                repairs_triggered: mon.repairs,
                repair_latency_ms: mon.latencies_ms.clone(),
            },
            None => CompletenessReport {
                per_query,
                ..CompletenessReport::default()
            },
        };

        let total = duration.as_ms().max(1) as f64;
        let metrics = self.sim.metrics().clone();
        let energy_profile = EnergyProfile::default();
        let energy_mj = metrics.total_energy_mj(&energy_profile);
        let max_node_energy_mj = metrics.max_node_energy_mj(&energy_profile);
        let engine = self.sim.engine_stats();
        // The standing invariant auditor: pure post-hoc arithmetic over the
        // artifacts assembled above, so enabling it cannot perturb the run
        // it is auditing. The trace↔answer reconciliation needs the trace
        // *text*, which the runner never holds — campaign cells append it
        // after reading the written file back.
        let audit = self.config.observe.audit.then(|| {
            let mut audit = AuditReport::new();
            audit.check_engine(&engine);
            audit.check_energy(&metrics, &energy_profile, energy_mj, max_node_energy_mj);
            audit.check_completeness(
                &completeness,
                metrics.orphaned_node_count(),
                engine.fault_events,
                !self.config.faults.is_empty(),
            );
            audit
        });
        RunReport {
            strategy: self.config.strategy,
            metrics,
            answers: self.state.answers,
            avg_synthetic_count: self.state.weighted_syn / total,
            avg_benefit_ratio: self.state.weighted_ratio / total,
            optimizer_stats: self.optimizer.map(|o| o.stats()),
            completeness,
            engine,
            energy_mj,
            max_node_energy_mj,
            audit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        build_sim, ExperimentConfig, Ledger, RunSession, Strategy, WorkloadAction, WorkloadEvent,
    };
    use std::collections::BTreeMap;
    use ttmqo_query::{parse_query, Query, QueryId};
    use ttmqo_sim::{FaultPlan, NodeId, SimTime, Topology};
    use ttmqo_tinydb::{Command, Output};

    // -- Reference implementation -----------------------------------------
    // The timeline the ledger replaced: after every workload event and every
    // repair, a clone of the whole user → (synthetic id, synthetic query,
    // user query) map, looked up by epoch start. Kept as the oracle the
    // ledger is compared against.

    type MappingSnapshot = BTreeMap<QueryId, (QueryId, Query, Query)>;

    /// The last entry of the time-sorted `timeline` whose timestamp is
    /// `<= at` — the snapshot in force at time `at`. Duplicate timestamps
    /// are allowed; the latest duplicate wins, matching "state after all
    /// events at that instant".
    fn snapshot_at<T>(timeline: &[(u64, T)], at: u64) -> Option<&T> {
        let first_after = timeline.partition_point(|(t, _)| *t <= at);
        first_after.checked_sub(1).map(|idx| &timeline[idx].1)
    }

    /// Appends the user → synthetic mapping in force after the events at
    /// `t`. `mapping` and `synthetics` stand in for the optimizer's
    /// `mapping()` and `synthetic()`.
    fn take_mapping_snapshot(
        t: u64,
        mapping: &BTreeMap<QueryId, QueryId>,
        synthetics: &BTreeMap<QueryId, Query>,
        live: &BTreeMap<QueryId, Query>,
        snapshots: &mut Vec<(u64, MappingSnapshot)>,
    ) {
        let mut snap = MappingSnapshot::new();
        for (uid, uq) in live {
            if let Some(syn_id) = mapping.get(uid) {
                if let Some(sq) = synthetics.get(syn_id) {
                    snap.insert(*uid, (*syn_id, sq.clone(), uq.clone()));
                }
            }
        }
        snapshots.push((t, snap));
    }

    /// The attribution loop that read the timeline: every user the snapshot
    /// in force at `epoch_ms` maps to `qid`, unless it terminated before the
    /// answer arrived.
    fn reference_served<'a>(
        snapshots: &'a [(u64, MappingSnapshot)],
        terminated_at: &BTreeMap<QueryId, u64>,
        qid: QueryId,
        epoch_ms: u64,
        arrival_ms: u64,
    ) -> Vec<(QueryId, &'a Query, &'a Query)> {
        let Some(snap) = snapshot_at(snapshots, epoch_ms) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (uid, (syn_id, syn_q, user_q)) in snap {
            if *syn_id != qid {
                continue;
            }
            if terminated_at
                .get(uid)
                .is_some_and(|&term_ms| arrival_ms > term_ms)
            {
                continue;
            }
            out.push((*uid, user_q, syn_q));
        }
        out
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// The ledger, and next to it everything the reference timeline is built
    /// from, driven by the same events.
    #[derive(Default)]
    struct Twin {
        ledger: Ledger,
        live: BTreeMap<QueryId, Query>,
        mapping: BTreeMap<QueryId, QueryId>,
        synthetics: BTreeMap<QueryId, Query>,
        terminated_at: BTreeMap<QueryId, u64>,
        snapshots: Vec<(u64, MappingSnapshot)>,
    }

    impl Twin {
        fn pose(&mut self, q: &Query, t: u64) {
            self.live.insert(q.id(), q.clone());
            self.ledger.pose(q.clone(), t);
        }

        fn terminate(&mut self, uid: QueryId, t: u64) {
            self.live.remove(&uid);
            self.mapping.remove(&uid);
            self.terminated_at.insert(uid, t);
            self.ledger.terminate(uid, t);
        }

        /// Maps `uid` to `syn`, injecting it on first use — Tier 1's
        /// `Inject` precedes any mapping to the id.
        fn serve(&mut self, uid: QueryId, syn: &Query) {
            if self.synthetics.insert(syn.id(), syn.clone()).is_none() {
                self.ledger.inject(syn);
            }
            self.mapping.insert(uid, syn.id());
        }

        /// What the runner does after the event (or repair) at `t`.
        fn settle(&mut self, t: u64) {
            let Twin {
                ledger,
                live,
                mapping,
                synthetics,
                snapshots,
                ..
            } = self;
            take_mapping_snapshot(t, mapping, synthetics, live, snapshots);
            ledger.remap(t, |uid| mapping.get(&uid).copied());
        }
    }

    #[test]
    fn ledger_attributes_exactly_what_the_mapping_timeline_did() {
        // Generated lives: bursts of events in one millisecond (a user posed
        // and gone, or moved away and back, within it), several users per
        // synthetic, moves among a pool of six ids small enough that A→B→A
        // happens, re-mappings with no pose or terminate (a repair), users
        // left unmapped, and — every fourth case — no Tier 1 at all, where
        // each user is its own synthetic.
        let light = |id: u64, lo: u64| {
            let text = format!("select light where {lo}<light<900 epoch duration 2048");
            parse_query(QueryId(id), &text).unwrap()
        };
        let pool: Vec<Query> = (0..6).map(|i| light((1 << 20) + i, 100 + 10 * i)).collect();
        for case in 0..40u64 {
            let mut next = xorshift(0x9E37_79B9_7F4A_7C15 ^ (case + 1));
            let tier1 = case % 4 != 3;
            let mut twin = Twin::default();
            let mut times = vec![0u64];
            let (mut t, mut users) = (0u64, 0u64);
            for _ in 0..250 {
                if next() % 2 == 1 {
                    t += next() % 3000;
                }
                times.push(t);
                let victim = twin.live.keys().nth((next() % 7) as usize).copied();
                match (next() % 4, victim) {
                    (0, Some(uid)) => twin.terminate(uid, t),
                    (1, Some(uid)) if tier1 => {
                        twin.serve(uid, &pool[(next() % 6) as usize]);
                        if let Some(other) = twin.live.keys().nth((next() % 7) as usize).copied() {
                            twin.serve(other, &pool[(next() % 6) as usize]);
                        }
                    }
                    _ => {
                        let q = light(users, 200 + users % 50);
                        users += 1;
                        twin.pose(&q, t);
                        if !tier1 {
                            twin.serve(q.id(), &q);
                        } else if next() % 8 < 7 {
                            twin.serve(q.id(), &pool[(next() % 6) as usize]);
                        }
                    }
                }
                twin.settle(t);
            }
            let answering: Vec<QueryId> = twin
                .synthetics
                .keys()
                .copied()
                .chain([QueryId(u64::MAX)])
                .collect();
            for probe in 0..2500 {
                let qid = answering[(next() % answering.len() as u64) as usize];
                // Half the probes sit exactly on an event's millisecond.
                let epoch_ms = match probe % 2 {
                    0 => times[(next() % times.len() as u64) as usize],
                    _ => next() % (t + 5000),
                };
                let arrival_ms = epoch_ms + next() % 700;
                let got: Vec<_> = twin.ledger.served(qid, epoch_ms, arrival_ms).collect();
                let want = reference_served(
                    &twin.snapshots,
                    &twin.terminated_at,
                    qid,
                    epoch_ms,
                    arrival_ms,
                );
                assert_eq!(
                    got, want,
                    "case {case}: {qid} at {epoch_ms}, arrived {arrival_ms}"
                );
            }
        }
    }

    #[test]
    fn an_answer_arriving_at_its_users_termination_instant_is_kept() {
        // Two users share one synthetic query, whose answer for the epoch at
        // 4 096 ms reaches the base station at 4 344 ms. A user terminated at
        // that instant keeps the answer; one terminated a millisecond sooner
        // does not. Either way its answers are final — and shrunk to fit —
        // once the run is past the instant, not at the Terminate itself.
        let q = |id: u64| parse_query(QueryId(id), "select light epoch duration 2048").unwrap();
        let config = ExperimentConfig {
            strategy: Strategy::TwoTier,
            grid_n: 4,
            duration: SimTime::from_ms(8 * 2048),
            ..ExperimentConfig::default()
        };
        for (t, epochs) in [(4343, vec![2048]), (4344, vec![2048, 4096])] {
            let workload = vec![
                WorkloadEvent::pose(0, q(0)),
                WorkloadEvent::pose(0, q(1)),
                WorkloadEvent::terminate(t, QueryId(0)),
            ];
            let mut session = RunSession::new(&config, &workload);
            session.run_to(SimTime::from_ms(t));
            assert_eq!(session.state.ledger.closing, [(t, QueryId(0))], "{t}");
            session.run_to(SimTime::from_ms(t + 1));
            assert!(session.state.ledger.closing.is_empty(), "{t}");
            let report = session.finish();
            let answers = &report.answers[&QueryId(0)];
            let got: Vec<u64> = answers.iter().map(|(e, _)| *e).collect();
            assert_eq!(got, epochs, "terminated at {t}");
            assert_eq!(answers.capacity(), answers.len(), "{t}");
            assert_eq!(report.answers[&QueryId(1)].len(), 7, "{t}");
        }
    }

    #[test]
    fn without_tier_1_the_ledger_copies_no_query_and_every_answer_reaches_its_user() {
        // Baseline: every injected query is a user's own, so the ledger
        // reads its definition from `users` and keeps nothing in `injected`.
        // The reference is the same network driven by hand, command for
        // command: every answer the base station emits belongs to the user
        // of its id, unless it arrived after that user was gone.
        let texts = [
            "select light epoch duration 2048",
            "select light where 200<light<700 epoch duration 4096",
            "select max(temp) epoch duration 2048",
            "select temp, light where 4<nodeid<12 epoch duration 6144",
        ];
        let mut workload = Vec::new();
        for id in 0..12u64 {
            let text = texts[id as usize % texts.len()];
            let posed_ms = id * 1_500;
            let query = parse_query(QueryId(id), text).unwrap();
            workload.push(WorkloadEvent::pose(posed_ms, query));
            if id % 3 != 2 {
                let end_ms = posed_ms + 9_000 + id * 977;
                workload.push(WorkloadEvent::terminate(end_ms, QueryId(id)));
            }
        }
        let config = ExperimentConfig {
            strategy: Strategy::Baseline,
            grid_n: 4,
            duration: SimTime::from_ms(24 * 2048),
            ..ExperimentConfig::default()
        };
        let mut session = RunSession::new(&config, &workload);
        for slice in 1..=8 {
            session.run_to(SimTime::from_ms(slice * 3 * 2048));
            assert!(session.state.ledger.injected.is_empty(), "slice {slice}");
        }
        assert_eq!(session.state.ledger.users.len(), 12);
        let report = session.finish();

        let mut sim = build_sim(&config, Topology::grid(4).unwrap());
        let mut outputs = Vec::new();
        let mut gone_ms = BTreeMap::new();
        for event in RunSession::prepare_events(&config, &workload) {
            sim.run_until(event.at);
            outputs.extend(sim.take_outputs());
            let command = match event.action {
                WorkloadAction::Pose(q) => Command::Pose(q),
                WorkloadAction::Terminate(id) => {
                    gone_ms.insert(id, event.at.as_ms());
                    Command::Terminate(id)
                }
            };
            sim.schedule_command(event.at, NodeId::BASE_STATION, command);
        }
        sim.run_until(config.duration);
        outputs.extend(sim.take_outputs());
        let mut want: BTreeMap<QueryId, Vec<u64>> = BTreeMap::new();
        for record in outputs {
            let Output::Answer { qid, epoch_ms, .. } = record.output;
            if gone_ms.get(&qid).is_none_or(|t| record.time.as_ms() <= *t) {
                want.entry(qid).or_default().push(epoch_ms);
            }
        }
        let got: BTreeMap<QueryId, Vec<u64>> = (report.answers.iter())
            .map(|(user, answers)| (*user, answers.iter().map(|(e, _)| *e).collect()))
            .collect();
        assert_eq!(got.len(), 12, "every user was answered");
        assert_eq!(got, want);
    }

    #[test]
    fn repair_monitor_forgets_what_the_audit_has_passed() {
        // Crashes next to the base station keep the monitor auditing (and
        // repairing) for the whole run. Per live user it may hold only the
        // answered epochs its audit has yet to reach — a collection window's
        // worth — however long the run; a terminated user holds none.
        let q = |id: u64, text: &str| parse_query(QueryId(id), text).unwrap();
        let workload = vec![
            WorkloadEvent::pose(0, q(0, "select light epoch duration 2048")),
            WorkloadEvent::pose(
                0,
                q(1, "select light where 200<light<700 epoch duration 2048"),
            ),
            WorkloadEvent::pose(0, q(2, "select temp epoch duration 4096")),
            WorkloadEvent::pose(0, q(3, "select light where 4<nodeid<6 epoch duration 2048")),
            WorkloadEvent::terminate(60 * 2048, QueryId(1)),
        ];
        let config = ExperimentConfig {
            strategy: Strategy::TwoTier,
            grid_n: 4,
            duration: SimTime::from_ms(200 * 2048),
            faults: FaultPlan::scripted(vec![
                (NodeId(1), 20 * 2048, Some(60 * 2048)),
                (NodeId(4), 30 * 2048, Some(90 * 2048)),
                (NodeId(5), 40 * 2048, None),
                (NodeId(6), 100 * 2048, Some(130 * 2048)),
            ]),
            ..ExperimentConfig::default()
        };
        let mut session = RunSession::new(&config, &workload);
        for epochs in [25, 50, 100, 150, 200] {
            session.run_to(SimTime::from_ms(epochs * 2048));
            let monitor = session
                .state
                .monitor
                .as_ref()
                .expect("faulty rewriting run");
            let held: usize = monitor.audits.values().map(|a| a.answered.len()).sum();
            assert!(
                held <= 2 * 4,
                "{held} answered epochs held after {epochs} epochs"
            );
            assert_eq!(
                monitor.audits.contains_key(&QueryId(1)),
                epochs < 60,
                "after {epochs} epochs"
            );
        }
        let monitor = session.state.monitor.as_ref().unwrap();
        assert!(monitor.repairs > 0, "the run never exercised a repair");
    }

    /// The reverse linear scan `snapshot_at` replaced; kept as the oracle.
    fn naive<T>(timeline: &[(u64, T)], at: u64) -> Option<&T> {
        timeline
            .iter()
            .rev()
            .find(|(t, _)| *t <= at)
            .map(|(_, v)| v)
    }

    #[test]
    fn snapshot_at_empty_and_before_first() {
        let timeline: Vec<(u64, char)> = vec![];
        assert_eq!(snapshot_at(&timeline, 0), None);
        let timeline = vec![(10, 'a')];
        assert_eq!(snapshot_at(&timeline, 9), None);
        assert_eq!(snapshot_at(&timeline, 10), Some(&'a'));
        assert_eq!(snapshot_at(&timeline, u64::MAX), Some(&'a'));
    }

    #[test]
    fn snapshot_at_duplicate_timestamps_take_the_latest() {
        // Several workload events at the same instant push several snapshots
        // with the same timestamp; the state after the last of them governs.
        let timeline = vec![(5, 'a'), (5, 'b'), (5, 'c'), (9, 'd')];
        assert_eq!(snapshot_at(&timeline, 5), Some(&'c'));
        assert_eq!(snapshot_at(&timeline, 8), Some(&'c'));
        assert_eq!(snapshot_at(&timeline, 9), Some(&'d'));
    }

    #[test]
    fn snapshot_at_matches_reverse_scan_on_dense_timelines() {
        // Regression for the O(outputs × snapshots) reverse scan: the binary
        // search must pick exactly the snapshot the old code picked for every
        // query time, on timelines shaped like real workloads — many events,
        // bursts of identical timestamps (a pose and a terminate in the same
        // ms), and gaps.
        let mut next = xorshift(0x0123_4567_89AB_CDEF);
        for _ in 0..50 {
            let mut t = 0u64;
            let mut timeline = Vec::new();
            for i in 0..500u64 {
                // ~1/4 of events share the previous timestamp.
                if i > 0 && !next().is_multiple_of(4) {
                    t += next() % 97;
                }
                timeline.push((t, i));
            }
            let horizon = t + 50;
            for _ in 0..2000 {
                let at = next() % horizon;
                assert_eq!(snapshot_at(&timeline, at), naive(&timeline, at));
            }
            assert_eq!(snapshot_at(&timeline, 0), naive(&timeline, 0));
            assert_eq!(snapshot_at(&timeline, u64::MAX), naive(&timeline, u64::MAX));
        }
    }
}
