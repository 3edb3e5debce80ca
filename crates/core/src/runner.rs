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
use ttmqo_query::{EpochAnswer, Query, QueryId, Selection, BASE_EPOCH_MS};
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

/// Runs one experiment: the workload under the configured strategy.
///
/// Equivalent to `RunSession::new(config, workload).finish()`; the session
/// API additionally allows stopping mid-run.
///
/// # Panics
///
/// Panics if the grid cannot be constructed (e.g. `grid_n == 0`), or if
/// the workload poses one id twice.
pub fn run_experiment(config: &ExperimentConfig, workload: &[WorkloadEvent]) -> RunReport {
    RunSession::new(config, workload).finish()
}

/// One user query's record at the base station, from its pose until the run
/// is past its termination and its answers are final (DESIGN.md §8); then
/// [`Report::file`] turns it into the user's two report rows.
#[derive(Debug)]
struct User {
    query: Query,
    posed_ms: u64,
    life: Life,
    /// `(epoch start ms, answer)` in arrival order.
    answers: Vec<(u64, EpochAnswer)>,
    /// The repair monitor's audit while the query runs, if the monitor is
    /// armed; boxed, so that runs arming none keep the record small.
    audit: Option<Box<Audit>>,
}

/// Where a user query's life stands.
#[derive(Debug)]
enum Life {
    /// Running, served by this injected query, if any: the open service is
    /// that query's latest in [`Ledger::services`] for the user.
    Running(Option<QueryId>),
    /// Terminated at this instant (ms). TinyDB labels an answer with its
    /// epoch's *start* but emits it at the epoch's close, so an epoch can
    /// straddle a Terminate: an answer arriving at this instant still counts,
    /// so the record stays until the run is past it.
    Terminated(u64),
}

/// The report rows of the users whose answers are final, and what their
/// completeness is measured against besides the topology.
#[derive(Debug, Default)]
struct Report {
    answers: BTreeMap<QueryId, Vec<(u64, EpochAnswer)>>,
    per_query: BTreeMap<QueryId, QueryCompleteness>,
    /// The materialized fault plan: a node crashed at an epoch's start is
    /// not expected to answer it.
    schedule: Option<FaultSchedule>,
    /// How long after its start an epoch's answer may take, ms.
    window_ms: u64,
    end_ms: u64,
}

impl Report {
    /// Files each of `users`, whose answers are final, as its two rows: its
    /// answers sorted by epoch and shrunk to fit (a user never answered has
    /// none), and its completeness.
    fn file(&mut self, users: impl Iterator<Item = (QueryId, User)>, topo: &Topology) {
        for (id, mut user) in users {
            user.answers.sort_by_key(|(epoch_ms, _)| *epoch_ms);
            user.answers.shrink_to_fit();
            self.per_query.insert(id, self.completeness(&user, topo));
            if !user.answers.is_empty() {
                self.answers.insert(id, user.answers);
            }
        }
    }

    /// A final user's whole-run answer completeness: for every expected epoch
    /// (query live, collection window fits the run, at least one statically
    /// matching node alive) whether a non-empty answer was delivered.
    /// "Statically matching" = its id can satisfy the query; value predicates
    /// depend on readings, so row expectations are an upper bound and exact
    /// for predicate-free acquisition queries.
    fn completeness(&self, user: &User, topo: &Topology) -> QueryCompleteness {
        let q = &user.query;
        let end = match user.life {
            Life::Terminated(t_ms) => t_ms.min(self.end_ms),
            Life::Running(_) => self.end_ms,
        };
        let srt = Srt::build(topo);
        let static_matching: Vec<NodeId> = (topo.nodes())
            .filter(|&n| n != NodeId::BASE_STATION && srt.node_matches(n, q))
            .collect();
        let is_acquisition = matches!(q.selection(), Selection::Attributes(_));
        let mut qc = QueryCompleteness::default();
        let mut e = q.epoch().next_fire_at(user.posed_ms + 1);
        while e + self.window_ms < end {
            // Of several answers for one epoch, the last to arrive counts.
            let after = user.answers.partition_point(|(epoch_ms, _)| *epoch_ms <= e);
            let answer = after.checked_sub(1).map(|i| &user.answers[i]);
            let alive = (static_matching.iter())
                .filter(|&&n| self.schedule.as_ref().is_none_or(|s| s.alive_at(n, e)))
                .count() as u64;
            if alive > 0 {
                qc.expected_epochs += 1;
                if is_acquisition {
                    qc.expected_rows += alive;
                }
                if let Some((_, answer)) = answer.filter(|(epoch_ms, _)| *epoch_ms == e) {
                    qc.answered_epochs += u64::from(!answer.is_empty());
                    if let EpochAnswer::Rows(rows) = answer {
                        qc.delivered_rows += rows.len() as u64;
                    }
                }
            }
            e += q.epoch().as_ms();
        }
        qc
    }
}

/// The base station's record of query lives (DESIGN.md §8): each live or
/// closing user's record, every injected query that is not a user's own
/// and can still be answered, and the services those queries gave those
/// users. An injected id's query never changes — Tier 1 rewrites under
/// fresh ids — so "who was served by which id from when to when" is all
/// that answer attribution needs. Without Tier 1 every user is its own
/// injected query.
#[derive(Debug, Default)]
struct Ledger {
    users: BTreeMap<QueryId, User>,
    /// Tier 1's synthetics, from the [`NetworkOp::Inject`] that created each.
    /// Their ids are at or above [`SYNTHETIC_ID_BASE`](crate::SYNTHETIC_ID_BASE),
    /// which users may not take.
    injected: BTreeMap<QueryId, Query>,
    /// `(injected, user, from_ms) → until_ms`: the half-open interval of
    /// epoch starts `injected` answered for `user`; `u64::MAX` while open.
    services: Services,
}

/// `(injected, user, from_ms) → until_ms`, as in [`Ledger::services`].
type Services = BTreeMap<(QueryId, QueryId, u64), u64>;

impl Ledger {
    /// Opens a record for a posed user query, with an audit if `audited`.
    fn pose(&mut self, query: Query, t_ms: u64, audited: bool) {
        let audit = audited.then(|| {
            Box::new(Audit {
                next: query.epoch().next_fire_at(t_ms + 1),
                streak: 0,
                answered: BTreeSet::new(),
            })
        });
        let user = User {
            query,
            posed_ms: t_ms,
            life: Life::Running(None),
            answers: Vec::new(),
            audit,
        };
        self.users.insert(user.query.id(), user);
    }

    /// Closes a running user's open service and audit; its record stays
    /// until [`finalized`](Self::finalized) returns it.
    fn terminate(&mut self, id: QueryId, t_ms: u64) {
        let Some(User { life, audit, .. }) = self.users.get_mut(&id) else {
            return;
        };
        let Life::Running(serving) = *life else {
            return;
        };
        if let Some(syn) = serving {
            Self::close(&mut self.services, syn, id, t_ms);
        }
        *life = Life::Terminated(t_ms);
        *audit = None;
    }

    fn running_count(&self) -> usize {
        let running = |user: &&User| matches!(user.life, Life::Running(_));
        self.users.values().filter(running).count()
    }

    /// Takes out the records whose answers are final at `now_ms`: the run is
    /// past their termination, and [`served`](Self::served) drops later ones.
    /// Their services go with them.
    fn finalized(&mut self, now_ms: u64) -> impl Iterator<Item = (QueryId, User)> + '_ {
        let services = &mut self.services;
        self.users.extract_if(.., move |id, user| {
            let done = matches!(user.life, Life::Terminated(t_ms) if t_ms < now_ms);
            if done {
                services.retain(|&(_, user, _), _| user != *id);
            }
            done
        })
    }

    /// Enters an injected query's definition, unless it is a user's own.
    fn inject(&mut self, query: &Query) {
        if !self.users.contains_key(&query.id()) {
            self.injected.insert(query.id(), query.clone());
        }
    }

    /// Drops an aborted synthetic's definition and services. The session
    /// aborts only once every output up to the abort's instant is read, and
    /// the base station answers nothing for a query after its abort, so no
    /// answer for it can still come.
    fn abort(&mut self, syn: QueryId) {
        if self.injected.remove(&syn).is_some() {
            let by_syn = (syn, QueryId(0), 0)..=(syn, QueryId(u64::MAX), u64::MAX);
            self.services.extract_if(by_syn, |_, _| true).for_each(drop);
        }
    }

    /// Brings the running users' open services in line with `mapping` as of
    /// `t_ms`, after the events at `t_ms` ran. A service opened and closed
    /// within one millisecond is empty: the mapping in force at an epoch is
    /// the state after *all* events at or before its start.
    fn remap(&mut self, t_ms: u64, mapping: impl Fn(QueryId) -> Option<QueryId>) {
        for (id, user) in &mut self.users {
            let Life::Running(serving) = &mut user.life else {
                continue;
            };
            let now = mapping(*id);
            if now == *serving {
                continue;
            }
            if let Some(syn) = *serving {
                Self::close(&mut self.services, syn, *id, t_ms);
            }
            *serving = now;
            if let Some(syn) = now {
                self.services.insert((syn, *id, t_ms), u64::MAX);
            }
        }
    }

    /// Ends the open service `syn` gives `user`, its latest, at `t_ms`.
    fn close(services: &mut Services, syn: QueryId, user: QueryId, t_ms: u64) {
        let given = (syn, user, 0)..=(syn, user, u64::MAX);
        if let Some((_, until_ms)) = services.range_mut(given).next_back() {
            *until_ms = t_ms;
        }
    }

    /// The users the injected query `syn` was serving at the epoch starting
    /// at `epoch_ms`, in ascending id order, as `(user query, injected
    /// query)` — minus those already gone when the answer arrived (an answer
    /// arriving at the termination instant itself still counts: the user was
    /// live when it materialized).
    fn served(
        &self,
        syn: QueryId,
        epoch_ms: u64,
        arrival_ms: u64,
    ) -> impl Iterator<Item = (&Query, &Query)> {
        let syn_q = self.injected.get(&syn);
        let syn_q = syn_q.or_else(|| self.users.get(&syn).map(|user| &user.query));
        let by_syn = (syn, QueryId(0), 0)..=(syn, QueryId(u64::MAX), u64::MAX);
        self.services
            .range(by_syn)
            .filter(move |((_, _, from_ms), until_ms)| (*from_ms..**until_ms).contains(&epoch_ms))
            .filter_map(move |((_, id, _), _)| {
                let user = self.users.get(id)?;
                let gone = matches!(user.life, Life::Terminated(t) if arrival_ms > t);
                (!gone).then_some((&user.query, syn_q?))
            })
    }
}

/// How many consecutive missing expected epochs trigger a Tier-1 repair.
const REPAIR_AFTER_MISSING: u32 = 2;

/// A repair whose answers never come back (e.g. the replacement flood was
/// lost too) stops blocking further repair attempts after this long.
const REPAIR_GRACE_MS: u64 = 8 * BASE_EPOCH_MS;

/// The base station's missing-result detector: audits every running user
/// query's expected epochs as their collection windows close (the audit
/// lives in the user's record), and asks for a Tier-1 re-optimization of
/// the owning synthetic query when a query goes silent for
/// [`REPAIR_AFTER_MISSING`] consecutive epochs. Armed only for faulty runs
/// under a rewriting strategy.
#[derive(Debug, Default)]
struct RepairMonitor {
    /// Repairs whose first post-repair answer has not arrived yet:
    /// `(trigger ms, member user queries)`.
    pending: Vec<(u64, Vec<QueryId>)>,
    repairs: u64,
    latencies_ms: Vec<u64>,
}

/// Where the repair monitor's audit of one running user query stands; its
/// step is the query's epoch.
#[derive(Debug)]
struct Audit {
    /// Next epoch start (ms) to audit.
    next: u64,
    /// Consecutive missing expected epochs.
    streak: u32,
    /// Epochs answered with a non-empty result that the audit has yet to
    /// reach.
    answered: BTreeSet<u64>,
}

impl RepairMonitor {
    fn note_terminated(&mut self, qid: QueryId) {
        self.pending.retain_mut(|(_, members)| {
            members.retain(|m| *m != qid);
            !members.is_empty()
        });
    }

    /// Notes user `id`'s non-empty answer for epoch `epoch_ms`, arrived at `at_ms`.
    fn note_answer(&mut self, id: QueryId, epoch_ms: u64, at_ms: u64, audit: Option<&mut Audit>) {
        // The audit only moves forward: an epoch it has passed is never
        // looked up again.
        if let Some(audit) = audit.filter(|audit| epoch_ms >= audit.next) {
            audit.answered.insert(epoch_ms);
        }
        if let Some(pos) = self.pending.iter().position(|(_, m)| m.contains(&id)) {
            let (t0, _) = self.pending.remove(pos);
            self.latencies_ms.push(at_ms.saturating_sub(t0));
        }
    }

    /// Audits every epoch whose collection window (`window_ms`) closed by
    /// time `b`; returns the users whose missing streak crossed the
    /// threshold, in ascending id order.
    fn due_repairs(&mut self, ledger: &mut Ledger, b: u64, window_ms: u64) -> Vec<QueryId> {
        self.pending
            .retain(|(t0, _)| b.saturating_sub(*t0) <= REPAIR_GRACE_MS);
        let mut due = Vec::new();
        for (id, user) in &mut ledger.users {
            let Some(audit) = user.audit.as_mut() else {
                continue;
            };
            while audit.next + window_ms <= b {
                if audit.answered.contains(&audit.next) {
                    audit.streak = 0;
                } else {
                    audit.streak += 1;
                }
                audit.next += user.query.epoch().as_ms();
            }
            let next = audit.next;
            audit.answered.retain(|epoch_ms| *epoch_ms >= next);
            if audit.streak >= REPAIR_AFTER_MISSING
                && !self.pending.iter().any(|(_, m)| m.contains(id))
            {
                due.push(*id);
            }
        }
        due
    }

    fn note_repaired(&mut self, ledger: &mut Ledger, b: u64, members: &[QueryId]) {
        self.repairs += 1;
        self.pending.push((b, members.to_vec()));
        for m in members {
            if let Some(User {
                query,
                audit: Some(audit),
                ..
            }) = ledger.users.get_mut(m)
            {
                audit.streak = 0;
                // Give the replacement flood until its next epoch before the
                // audit resumes counting.
                audit.next = query.epoch().next_fire_at(b + 1);
            }
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
    let field: Box<dyn SensorField + Send + Sync> = match config.field {
        FieldKind::Uniform => Box::new(UniformField::new(config.field_seed)),
        FieldKind::Correlated => Box::new(CorrelatedField::for_topology(config.field_seed, &topo)),
    };
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
    /// The events still to apply, last first: the run pops each as it
    /// applies it (a posed query moves into the ledger), and the buffer
    /// shrinks as it empties.
    events: Vec<WorkloadEvent>,
    sim: SimKind,
    optimizer: Option<BaseStationOptimizer>,
    state: RunnerState,
}

/// The driver state that changes as the run advances, next to the
/// simulator's and the optimizer's own. Everything else a session holds is
/// fixed when [`RunSession::new`] builds it.
#[derive(Debug, Default)]
struct RunnerState {
    /// Highest base-epoch boundary the repair monitor has audited, or the
    /// latest workload event's time if that is later.
    audited_to: u64,
    monitor: Option<RepairMonitor>,
    ledger: Ledger,
    weighted_syn: f64,
    weighted_ratio: f64,
    last_t: u64,
    current_syn_count: usize,
    current_ratio: f64,
    /// The answers one synthetic answer maps to, by user: gathered while the
    /// ledger is read, then written into the users' records.
    mapped: Vec<(QueryId, EpochAnswer)>,
    report: Report,
}

impl std::fmt::Debug for RunSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSession")
            .field("strategy", &self.config.strategy)
            .field("now_ms", &self.sim.now().as_ms())
            .field("events_left", &self.events.len())
            .field("running_users", &self.state.ledger.running_count())
            .finish_non_exhaustive()
    }
}

impl RunSession {
    /// Builds a session at time zero, ready to run the workload.
    ///
    /// # Panics
    ///
    /// Panics if the grid cannot be constructed (e.g. `grid_n == 0`), or if
    /// the workload poses one id twice: a user id names one life, under
    /// every strategy.
    pub fn new(config: &ExperimentConfig, workload: &[WorkloadEvent]) -> RunSession {
        let events = Self::prepare_events(config, workload);
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
            let alpha = config.alpha;
            let options = OptimizerOptions {
                alpha,
                ..config.optimizer
            };
            let mut opt = BaseStationOptimizer::for_topology(topo, &config.radio, options);
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
            report: Report {
                schedule,
                window_ms: config.innetwork.collection_window_ms(topo),
                end_ms: config.duration.as_ms(),
                ..Report::default()
            },
            ..RunnerState::default()
        };

        RunSession {
            config,
            events,
            sim,
            optimizer,
            state,
        }
    }

    /// Sorts the workload, last event first, and drops events the run can
    /// never observe. An event scheduled at or past `duration` would push
    /// the time-weighted accounting past the measured window (and underflow
    /// the `duration − last_event` interval).
    fn prepare_events(config: &ExperimentConfig, workload: &[WorkloadEvent]) -> Vec<WorkloadEvent> {
        Self::assert_each_id_posed_once(workload);
        let mut events: Vec<WorkloadEvent> = workload.to_vec();
        events.sort_by_key(|e| e.at);
        events.retain(|e| e.at < config.duration);
        events.reverse();
        events
    }

    /// Panics if `workload` poses one id twice.
    fn assert_each_id_posed_once(workload: &[WorkloadEvent]) {
        let mut posed = Vec::with_capacity(workload.len());
        for event in workload {
            if let WorkloadAction::Pose(q) = &event.action {
                posed.push(q.id());
            }
        }
        posed.sort_unstable();
        if let Some(pair) = posed.windows(2).find(|pair| pair[0] == pair[1]) {
            panic!("the workload poses {} twice", pair[0]);
        }
    }

    /// Drains pending network outputs: feeds adaptive statistics, and maps
    /// each answer into the records of the users it served, telling the
    /// repair monitor and the trace. An answer for epoch `e` is emitted after
    /// every workload event at or before `e` ran, so the ledger already holds
    /// the services in force at `e` and any termination that drops it. Last,
    /// it files the users the run is now past the termination of.
    fn ingest(&mut self) {
        let outputs = with_sim!(&mut self.sim, s => s.take_outputs());
        let trace = &self.config.observe.trace;
        let RunnerState {
            ledger,
            monitor,
            mapped,
            report,
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
            // The ledger drops an aborted synthetic at its abort because the
            // base station answers nothing for it afterwards; an answer for
            // an id it no longer holds would be lost without a trace.
            debug_assert!(
                ledger.injected.contains_key(qid) || ledger.users.contains_key(qid),
                "an answer for {qid} after the ledger dropped it"
            );
            let arrival_ms = record.time.as_ms();
            let served = || ledger.served(*qid, *epoch_ms, arrival_ms);
            map_epoch_answers_at(served, *epoch_ms, answer, |user_q, answer| {
                mapped.push((user_q.id(), answer));
            });
            for (id, answer) in mapped.drain(..) {
                let (rows, nonempty) = match &answer {
                    EpochAnswer::Rows(rows) => (rows.len() as u64, !rows.is_empty()),
                    EpochAnswer::Aggregates(vals) => (0, !vals.is_empty()),
                };
                let user = (ledger.users.get_mut(&id)).expect("a served user has a record");
                if let Some(mon) = monitor.as_mut().filter(|_| nonempty) {
                    mon.note_answer(id, *epoch_ms, arrival_ms, user.audit.as_deref_mut());
                }
                trace.emit_with(arrival_ms * 1000, || TraceEvent::AnswerMapped {
                    user: id,
                    synthetic: *qid,
                    epoch_ms: *epoch_ms,
                    rows,
                    nonempty,
                    latency_ms: arrival_ms.saturating_sub(*epoch_ms),
                });
                user.answers.push((*epoch_ms, answer));
            }
        }
        let finalized = ledger.finalized(self.sim.now().as_ms());
        report.file(finalized, self.sim.topology());
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
                NetworkOp::Abort(id) => {
                    state.ledger.abort(id);
                    Command::Terminate(id)
                }
            };
            let at = SimTime::from_ms(t_ms);
            with_sim!(&mut self.sim, s => s.schedule_command(at, NodeId::BASE_STATION, cmd));
        }
        match &self.optimizer {
            Some(opt) => {
                state.ledger.remap(t_ms, |user| opt.mapping(user));
                state.current_syn_count = opt.synthetic_count();
                state.current_ratio = opt.benefit_ratio();
            }
            None => {
                state.ledger.remap(t_ms, Some);
                state.current_syn_count = state.ledger.running_count();
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
        let mut b = (self.state.audited_to / BASE_EPOCH_MS + 1) * BASE_EPOCH_MS;
        while b < t_ms || (inclusive && b == t_ms) {
            self.sim.run_until(SimTime::from_ms(b));
            self.ingest();
            let state = &mut self.state;
            let due = match state.monitor.as_mut() {
                Some(mon) => mon.due_repairs(&mut state.ledger, b, state.report.window_ms),
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
                let state = &mut self.state;
                if let Some(mon) = state.monitor.as_mut() {
                    mon.note_repaired(&mut state.ledger, b, &members);
                }
            }
            self.state.audited_to = b;
            b += BASE_EPOCH_MS;
        }
    }

    /// Applies the next workload event (the simulator has already been
    /// advanced to its time and outputs drained).
    fn apply_event(&mut self) {
        let event = self.events.pop().expect("a next event");
        // Give back what applied events held: a buffer a quarter full
        // shrinks to fit, and an empty one is freed.
        if self.events.len() <= self.events.capacity() / 4 {
            self.events.shrink_to_fit();
        }
        let state = &mut self.state;
        let t_ms = event.at.as_ms();
        if let Some(opt) = self.optimizer.as_mut() {
            opt.set_trace_time(t_ms);
        }
        let ops = match event.action {
            WorkloadAction::Pose(q) => {
                let ops = match self.optimizer.as_mut() {
                    Some(opt) => opt
                        .insert(q.clone())
                        .expect("workload ids are unique and unreserved"),
                    None => vec![NetworkOp::Inject(q.clone())],
                };
                state.ledger.pose(q, t_ms, state.monitor.is_some());
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
            match self.events.last().map(|e| e.at) {
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

        // The users still running at the end are final too.
        let mut report = self.state.report;
        report.file(self.state.ledger.users.into_iter(), self.sim.topology());
        let (answers, per_query) = (report.answers, report.per_query);
        let (repairs_triggered, repair_latency_ms) = match self.state.monitor {
            Some(mon) => (mon.repairs, mon.latencies_ms),
            None => (0, Vec::new()),
        };
        let completeness = CompletenessReport {
            per_query,
            repairs_triggered,
            repair_latency_ms,
        };

        let total = duration.as_ms().max(1) as f64;
        let (metrics, engine) = with_sim!(&self.sim, s => (s.metrics().clone(), s.engine_stats()));
        let energy_profile = EnergyProfile::default();
        let energy_mj = metrics.total_energy_mj(&energy_profile);
        let max_node_energy_mj = metrics.max_node_energy_mj(&energy_profile);
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
            answers,
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
        build_sim, ExperimentConfig, Ledger, Life, RunSession, SimKind, Strategy, WorkloadAction,
        WorkloadEvent,
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
            self.ledger.pose(q.clone(), t, false);
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
                let served = twin.ledger.served(qid, epoch_ms, arrival_ms);
                let got: Vec<_> = served.map(|(u, s)| (u.id(), u, s)).collect();
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
            let life = &session.state.ledger.users[&QueryId(0)].life;
            assert!(matches!(life, Life::Terminated(at) if *at == t), "{t}");
            session.run_to(SimTime::from_ms(t + 1));
            assert!(!session.state.ledger.users.contains_key(&QueryId(0)), "{t}");
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
        // The eight terminated users are final and filed as report rows; the
        // four still running keep their records to the end.
        let running: Vec<u64> = session.state.ledger.users.keys().map(|id| id.0).collect();
        assert_eq!(running, [2, 5, 8, 11]);
        assert_eq!(session.state.report.per_query.len(), 8);
        let report = session.finish();

        let mut sim = build_sim(&config, Topology::grid(4).unwrap());
        let mut outputs = Vec::new();
        let mut gone_ms = BTreeMap::new();
        for event in RunSession::prepare_events(&config, &workload)
            .into_iter()
            .rev()
        {
            sim.run_until(event.at);
            outputs.extend(with_sim!(&mut sim, s => s.take_outputs()));
            let command = match event.action {
                WorkloadAction::Pose(q) => Command::Pose(q),
                WorkloadAction::Terminate(id) => {
                    gone_ms.insert(id, event.at.as_ms());
                    Command::Terminate(id)
                }
            };
            with_sim!(&mut sim, s => s.schedule_command(event.at, NodeId::BASE_STATION, command));
        }
        sim.run_until(config.duration);
        outputs.extend(with_sim!(&mut sim, s => s.take_outputs()));
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
    fn the_ledger_keeps_only_what_an_answer_can_still_need() {
        // Sixty users come and go under Tier 1, which folds them into
        // synthetics and aborts a synthetic whenever its members change. At
        // every stop the ledger holds services of users with a record and of
        // queries it can still read, and the definition of a synthetic only
        // while it runs; the run ends holding nothing.
        let mut workload = Vec::new();
        for id in 0..60u64 {
            let (lo, epoch_ms) = ((id * 37) % 500, 2048 << (id % 2));
            let text = format!(
                "select light where {lo}<light<{} epoch duration {epoch_ms}",
                lo + 300
            );
            let posed_ms = id * 1_000;
            workload.push(WorkloadEvent::pose(
                posed_ms,
                parse_query(QueryId(id), &text).unwrap(),
            ));
            let end_ms = posed_ms + 6_000 + (id * 7_919) % 20_000;
            workload.push(WorkloadEvent::terminate(end_ms, QueryId(id)));
        }
        let config = ExperimentConfig {
            strategy: Strategy::TwoTier,
            grid_n: 4,
            duration: SimTime::from_ms(48 * 2048),
            ..ExperimentConfig::default()
        };
        let mut session = RunSession::new(&config, &workload);
        for stop in 1..=96 {
            let now_ms = stop * 1024;
            session.run_to(SimTime::from_ms(now_ms));
            let ledger = &session.state.ledger;
            let opt = session.optimizer.as_ref().unwrap();
            for &(_, user, _) in ledger.services.keys() {
                assert!(ledger.users.contains_key(&user), "{user} at {now_ms}");
            }
            for &(syn, _, _) in ledger.services.keys() {
                let defined = ledger.injected.contains_key(&syn) || ledger.users.contains_key(&syn);
                assert!(defined, "{syn} at {now_ms}");
            }
            for syn in ledger.injected.keys() {
                assert!(opt.synthetic(*syn).is_some(), "{syn} at {now_ms}");
            }
        }
        let ledger = &session.state.ledger;
        assert!(ledger.users.is_empty(), "every user is final");
        assert!(ledger.services.is_empty(), "{:?}", ledger.services);
        assert!(ledger.injected.is_empty(), "{:?}", ledger.injected.keys());
        let abortions = session.optimizer.as_ref().unwrap().stats().abortions;
        assert!(abortions >= 10, "only {abortions} synthetics aborted");
    }

    #[test]
    fn repair_monitor_forgets_what_the_audit_has_passed() {
        // Crashes next to the base station keep the monitor auditing (and
        // repairing) for the whole run. Per live user it may hold only the
        // answered epochs its audit has yet to reach — a collection window's
        // worth — however long the run; a terminated user holds none, and
        // its record is gone once its answers are final.
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
            let users = &session.state.ledger.users;
            let audits = users.values().filter_map(|user| user.audit.as_ref());
            let held: usize = audits.map(|a| a.answered.len()).sum();
            assert!(
                held <= 2 * 4,
                "{held} answered epochs held after {epochs} epochs"
            );
            let audited = users.get(&QueryId(1)).map(|user| user.audit.is_some());
            let want = (epochs < 60).then_some(true);
            assert_eq!(audited, want, "after {epochs} epochs");
        }
        let monitor = session.state.monitor.as_ref().unwrap();
        assert!(monitor.repairs > 0, "the run never exercised a repair");
    }

    #[test]
    fn a_stop_on_an_audit_boundary_leaves_the_run_where_the_straight_run_passes_it() {
        // A faulty Tier-1 run, audited every base epoch, stopped on each
        // boundary in turn — two of them the instants of workload events.
        // At a boundary without an event the stop has run that boundary's
        // audit, as a run passing it has; at an event's instant the event
        // ran and the boundary's audit did not, as in a straight run. Either
        // way the session stands where one stopped a millisecond later
        // does, and finishing reproduces the straight run.
        const EPOCHS: u64 = 24;
        let q = |id: u64, text: &str| parse_query(QueryId(id), text).unwrap();
        let workload = vec![
            WorkloadEvent::pose(0, q(0, "select light epoch duration 2048")),
            WorkloadEvent::pose(
                0,
                q(1, "select light where 200<light<700 epoch duration 2048"),
            ),
            WorkloadEvent::pose(0, q(2, "select temp where 4<nodeid<6 epoch duration 2048")),
            WorkloadEvent::terminate(10 * 2048, QueryId(1)),
            WorkloadEvent::pose(14 * 2048, q(3, "select light epoch duration 2048")),
        ];
        let config = ExperimentConfig {
            strategy: Strategy::TwoTier,
            grid_n: 4,
            duration: SimTime::from_ms(EPOCHS * 2048),
            faults: FaultPlan::scripted(vec![
                (NodeId(5), 3 * 2048, Some(8 * 2048)),
                (NodeId(5), 17 * 2048, None),
            ]),
            ..ExperimentConfig::default()
        };
        let straight = format!("{:?}", RunSession::new(&config, &workload).finish());
        let stopped_at = |t_ms: u64| {
            let mut session = RunSession::new(&config, &workload);
            session.run_to(SimTime::from_ms(t_ms));
            session
        };
        let progress = |session: &RunSession| {
            let repairs = session.state.monitor.as_ref().map(|mon| mon.repairs);
            (session.state.audited_to, repairs)
        };
        let mut repaired = false;
        for b in 1..EPOCHS {
            let b_ms = b * 2048;
            let session = stopped_at(b_ms);
            let (audited_to, repairs) = progress(&session);
            assert_eq!(audited_to, b_ms, "stopped at {b_ms}");
            assert_eq!(
                progress(&stopped_at(b_ms + 1)),
                (audited_to, repairs),
                "at {b_ms}"
            );
            repaired |= repairs > progress(&stopped_at(b_ms - 1)).1;
            let report = format!("{:?}", session.finish());
            assert!(report == straight, "stopping at {b_ms} diverged");
        }
        assert!(repaired, "no stop fell on a boundary that repaired");
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
