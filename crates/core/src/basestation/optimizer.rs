//! The base-station optimizer: Algorithm 1 (greedy query insertion with
//! recursive re-insertion) and Algorithm 2 (adaptive, α-gated termination).
//!
//! The optimizer maintains the set of running synthetic queries. User queries
//! arrive via [`BaseStationOptimizer::insert`] and leave via
//! [`BaseStationOptimizer::terminate`]; both return the [`NetworkOp`]s (query
//! injections and abortions) the sensor network must execute to realize the
//! new synthetic set. When there is sufficient similarity between queries,
//! insertion and termination are frequently absorbed entirely at the base
//! station and return no operations at all — the "screen" role of §3.

use crate::basestation::cost::CostModel;
use crate::basestation::synthetic::{Demand, SyntheticQuery};
use std::collections::BTreeMap;
use std::fmt;
use ttmqo_query::{integrate, Attribute, Query, QueryId};
use ttmqo_sim::{NodeId, RadioParams, Topology, TraceEvent, TraceHandle};
use ttmqo_stats::{EmpiricalDistribution, LevelStats, SelectivityEstimator};

/// First id handed to synthetic queries; user query ids must stay below it.
pub const SYNTHETIC_ID_BASE: u64 = 1 << 20;

/// An operation the sensor network must execute after a rewrite.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkOp {
    /// Inject (flood) a new synthetic query.
    Inject(Query),
    /// Abort (flood removal of) a synthetic query.
    Abort(QueryId),
}

/// Error inserting an invalid user query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertError {
    /// The id is already in use by a live user query.
    DuplicateId(QueryId),
    /// The id falls in the synthetic id space (≥ [`SYNTHETIC_ID_BASE`]).
    ReservedId(QueryId),
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertError::DuplicateId(q) => write!(f, "query id {q} is already running"),
            InsertError::ReservedId(q) => {
                write!(f, "query id {q} collides with the synthetic id space")
            }
        }
    }
}

impl std::error::Error for InsertError {}

/// Cumulative optimizer statistics (for the Figure 4 experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptimizerStats {
    /// Queries inserted so far.
    pub inserted: u64,
    /// Queries terminated so far.
    pub terminated: u64,
    /// Synthetic queries injected into the network so far.
    pub injections: u64,
    /// Synthetic queries aborted so far.
    pub abortions: u64,
    /// Insertions fully absorbed at the base station (no network ops).
    pub absorbed_insertions: u64,
    /// Terminations fully absorbed at the base station.
    pub absorbed_terminations: u64,
    /// Repair-triggered re-optimizations (persistently missing results).
    pub reoptimizations: u64,
}

/// Tunable behaviour of the optimizer (the defaults are the paper's
/// algorithm; the other settings exist for the ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerOptions {
    /// Algorithm 2's termination parameter α. Inside an
    /// [`ExperimentConfig`](crate::ExperimentConfig) this value is ignored:
    /// the runner overwrites it with `ExperimentConfig::alpha`.
    pub alpha: f64,
    /// Whether a merged synthetic query is recursively re-inserted
    /// (Algorithm 1's `Insert(q_id, Q_syn)` tail call). Disabling stops after
    /// the first merge.
    pub reinsert: bool,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            alpha: 0.6,
            reinsert: true,
        }
    }
}

/// The first-tier optimizer (§3.1).
///
/// # Examples
///
/// ```
/// use ttmqo_core::{BaseStationOptimizer, CostModel, NetworkOp};
/// use ttmqo_stats::{LevelStats, SelectivityEstimator};
/// use ttmqo_query::{parse_query, QueryId};
///
/// let model = CostModel::new(4.0, 0.2, LevelStats::from_counts([7, 8]),
///                            SelectivityEstimator::uniform());
/// let mut opt = BaseStationOptimizer::new(model, 0.6);
///
/// let q1 = parse_query(QueryId(1), "select light where 100<light<300 epoch duration 4096")?;
/// let q2 = parse_query(QueryId(2), "select light where 150<light<500 epoch duration 4096")?;
/// let ops1 = opt.insert(q1).unwrap();
/// assert!(matches!(ops1[..], [NetworkOp::Inject(_)]));
/// // q2 overlaps heavily: it is rewritten together with q1 into one
/// // synthetic query (one abort + one inject).
/// let ops2 = opt.insert(q2).unwrap();
/// assert_eq!(opt.synthetic_count(), 1);
/// assert_eq!(ops2.len(), 2);
/// # Ok::<(), ttmqo_query::ParseQueryError>(())
/// ```
#[derive(Debug)]
pub struct BaseStationOptimizer {
    cost: CostModel,
    options: OptimizerOptions,
    synthetics: BTreeMap<QueryId, SyntheticQuery>,
    /// Every running user query with the synthetic query it is written
    /// into (`qid'`).
    users: BTreeMap<QueryId, User>,
    /// The next synthetic id to hand out. Ids are never reused, so the
    /// value at the start of a call separates the synthetics that ran
    /// before it from those it made.
    next_syn: u64,
    stats: OptimizerStats,
    /// Trace sink for Tier-1 decisions (disabled by default; zero cost).
    trace: TraceHandle,
    /// Simulation time stamped onto trace events, ms (the optimizer runs
    /// outside the simulator, so the runner feeds it the clock).
    trace_now_ms: u64,
}

/// A running user query and the synthetic query it is written into. While
/// Algorithm 1 places the user, `syn` may name a probe or a synthetic query
/// being rewritten; it is current again once `insert`, `terminate` or
/// `reoptimize` returns.
#[derive(Debug)]
struct User {
    query: Query,
    syn: QueryId,
}

impl BaseStationOptimizer {
    /// Creates an optimizer with the given cost model and termination
    /// parameter α (the paper finds α ≈ 0.6 best; see Figure 4(b)).
    pub fn new(cost: CostModel, alpha: f64) -> Self {
        Self::with_options(
            cost,
            OptimizerOptions {
                alpha,
                ..OptimizerOptions::default()
            },
        )
    }

    /// Creates an optimizer with full control over the algorithm knobs
    /// (used by the ablation benchmarks).
    pub fn with_options(cost: CostModel, options: OptimizerOptions) -> Self {
        BaseStationOptimizer {
            cost,
            options,
            synthetics: BTreeMap::new(),
            users: BTreeMap::new(),
            next_syn: SYNTHETIC_ID_BASE,
            stats: OptimizerStats::default(),
            trace: TraceHandle::disabled(),
            trace_now_ms: 0,
        }
    }

    /// The optimizer the experiment runner builds for a deployment: the
    /// radio's `C_start`/`C_trans`, the topology's level counts, uniform
    /// value statistics, an empirical `nodeid` model over the ids actually
    /// deployed (a uniform model over the whole id domain would wildly
    /// overestimate a `nodeid` predicate's selectivity on a small
    /// deployment), and the sensing nodes' positions for region clauses.
    pub fn for_topology(topo: &Topology, radio: &RadioParams, options: OptimizerOptions) -> Self {
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
        let model = CostModel::new(radio.startup_ms, radio.per_byte_ms, levels, estimator)
            .with_positions(positions);
        Self::with_options(model, options)
    }

    /// Attaches a trace sink: every `Beneficial` evaluation and every
    /// covered/merge/install/reoptimize decision emits a structured event.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Sets the simulation time stamped onto subsequent trace events, ms.
    /// The optimizer has no clock of its own; the experiment runner calls
    /// this before `insert`/`terminate`/`reoptimize`.
    pub fn set_trace_time(&mut self, now_ms: u64) {
        self.trace_now_ms = now_ms;
    }

    /// Emits a decision event at the time last set, built only if a sink
    /// is attached.
    fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        self.trace.emit_with(self.trace_now_ms * 1000, event);
    }

    /// The termination parameter α.
    pub fn alpha(&self) -> f64 {
        self.options.alpha
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Feeds an observed reading into the cost model's adaptive statistics.
    /// Future rewriting decisions use the learned distribution instead of
    /// the uniform assumption once enough observations accumulate.
    pub fn observe_reading(&mut self, attr: ttmqo_query::Attribute, value: f64) {
        self.cost.observe(attr, value);
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> OptimizerStats {
        self.stats
    }

    /// Algorithm 1: inserts a new user query, rewriting the synthetic set.
    ///
    /// Returns the network operations realizing the change (possibly none,
    /// when the query is covered by a running synthetic query).
    ///
    /// # Errors
    ///
    /// Returns [`InsertError`] on a duplicate or reserved query id.
    pub fn insert(&mut self, query: Query) -> Result<Vec<NetworkOp>, InsertError> {
        let qid = query.id();
        if qid.0 >= SYNTHETIC_ID_BASE {
            return Err(InsertError::ReservedId(qid));
        }
        if self.users.contains_key(&qid) {
            return Err(InsertError::DuplicateId(qid));
        }
        self.stats.inserted += 1;

        let (since, mut ops) = (self.next_syn, Vec::new());
        let mut probe = SyntheticQuery::new(query.with_id(self.fresh_syn_id()));
        probe.add_member(qid, &Demand::of(&query));
        let syn = probe.id();
        self.users.insert(qid, User { query, syn });
        self.insert_probe(probe, &mut ops);

        let ops = self.network_ops(since, ops);
        if ops.is_empty() {
            self.stats.absorbed_insertions += 1;
        }
        Ok(ops)
    }

    /// Algorithm 2: terminates a user query — detaches the member from its
    /// synthetic query, shrinks the synthetic's demand counts, and drops the
    /// synthetic when it empties.
    ///
    /// If the departed query was the only one demanding some piece of the
    /// synthetic query's data, the α-test decides between keeping the
    /// synthetic query unchanged (hiding the departure from the network) and
    /// incrementally re-inserting the surviving members — each survivor runs
    /// back through Algorithm 1 and lands wherever is now most beneficial.
    ///
    /// Returns no operations for an unknown id.
    pub fn terminate(&mut self, qid: QueryId) -> Vec<NetworkOp> {
        let Some(User { query, syn: syn_id }) = self.users.remove(&qid) else {
            return Vec::new();
        };
        self.stats.terminated += 1;

        let (since, mut ops) = (self.next_syn, Vec::new());
        let sq = self
            .synthetics
            .get_mut(&syn_id)
            .expect("mapped synthetic exists");
        let benefit_before = sq.benefit();
        let freed = sq.remove_member(qid, &Demand::of(&query));
        let emptied = sq.member_count() == 0;
        // Line 5 of Algorithm 2: keep the old synthetic query only when the
        // vanished demand is small relative to the accumulated benefit:
        // cost(q) ≤ benefit · α.
        let rebuilt =
            !emptied && freed && self.cost.cost(&query) > benefit_before * self.options.alpha;
        self.trace(|| TraceEvent::Tier1Remove {
            user: qid,
            synthetic: syn_id,
            emptied,
            rebuilt,
        });

        if emptied {
            self.retire(syn_id, &mut ops);
        } else if rebuilt {
            let sq = self
                .retire(syn_id, &mut ops)
                .expect("synthetic still present");
            let members: Vec<QueryId> = sq.members().collect();
            self.trace(|| TraceEvent::Tier1Reindex {
                synthetic: syn_id,
                members: members.clone(),
            });
            self.reinsert(members, &mut ops);
        } else {
            self.refresh_benefit(syn_id);
        }

        let ops = self.network_ops(since, ops);
        if ops.is_empty() {
            self.stats.absorbed_terminations += 1;
        }
        ops
    }

    /// Repair path: rebuilds the synthetic query `syn_id` from its members
    /// under *fresh* synthetic ids and returns the abort/inject operations.
    ///
    /// Triggered when the base station detects persistently missing results
    /// for a member of `syn_id`: the rebuilt queries carry new ids, so
    /// re-flooding them is not suppressed by the network's flood
    /// deduplication even where the old query is still nominally installed.
    /// The rewrite itself is Algorithm 1 over the same member set with the
    /// same α, so a healthy set converges back to an equivalent synthetic
    /// set (see the idempotence tests).
    ///
    /// Returns no operations when `syn_id` is not running.
    pub fn reoptimize(&mut self, syn_id: QueryId) -> Vec<NetworkOp> {
        let (since, mut ops) = (self.next_syn, Vec::new());
        let Some(sq) = self.retire(syn_id, &mut ops) else {
            return ops;
        };
        self.stats.reoptimizations += 1;
        let members: Vec<QueryId> = sq.members().collect();
        self.trace(|| TraceEvent::Tier1Reoptimize {
            synthetic: syn_id,
            members: members.clone(),
        });
        self.reinsert(members, &mut ops);
        self.network_ops(since, ops)
    }

    /// The currently running synthetic queries (as injected).
    pub fn synthetic_queries(&self) -> impl Iterator<Item = &Query> {
        self.synthetics.values().map(|s| s.query())
    }

    /// Detailed view of a synthetic query.
    pub fn synthetic(&self, id: QueryId) -> Option<&SyntheticQuery> {
        self.synthetics.get(&id)
    }

    /// Number of running synthetic queries (Figure 4(c)'s y-axis).
    pub fn synthetic_count(&self) -> usize {
        self.synthetics.len()
    }

    /// Number of running user queries.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The synthetic query a user query is currently written into (`qid'`).
    pub fn mapping(&self, user: QueryId) -> Option<QueryId> {
        self.users.get(&user).map(|u| u.syn)
    }

    /// Σ cost of all running user queries (the denominator of the paper's
    /// *benefit ratio*).
    pub fn total_user_cost(&self) -> f64 {
        self.users.values().map(|u| self.cost.cost(&u.query)).sum()
    }

    /// Σ cost of all running synthetic queries.
    pub fn total_synthetic_cost(&self) -> f64 {
        self.synthetics
            .values()
            .map(|s| self.cost.cost(s.query()))
            .sum()
    }

    /// The paper's benefit ratio at this instant:
    /// `(Σ user cost − Σ synthetic cost) / Σ user cost`.
    pub fn benefit_ratio(&self) -> f64 {
        let user = self.total_user_cost();
        if user <= 0.0 {
            return 0.0;
        }
        (user - self.total_synthetic_cost()) / user
    }

    fn fresh_syn_id(&mut self) -> QueryId {
        let id = QueryId(self.next_syn);
        self.next_syn += 1;
        id
    }

    /// Removes the running synthetic `id`, noting its abort in `ops`.
    fn retire(&mut self, id: QueryId, ops: &mut Vec<NetworkOp>) -> Option<SyntheticQuery> {
        let sq = self.synthetics.remove(&id)?;
        ops.push(NetworkOp::Abort(id));
        Some(sq)
    }

    /// Runs each of `members` back through Algorithm 1 on its own: detaches
    /// it from its synthetic query, gives it a fresh synthetic id and lets it
    /// land wherever is now most beneficial. Removals go to `ops`.
    fn reinsert(&mut self, members: Vec<QueryId>, ops: &mut Vec<NetworkOp>) {
        for m in members {
            let id = self.fresh_syn_id();
            let query = &self.users[&m].query;
            let mut probe = SyntheticQuery::new(query.with_id(id));
            probe.add_member(m, &Demand::of(query));
            self.insert_probe(probe, ops);
        }
    }

    /// The iterative core of Algorithm 1. `probe` is a detached synthetic
    /// query (a new user query, or a just-merged synthetic): find the most
    /// beneficial running synthetic to rewrite with; attach if covered; merge
    /// and retry if beneficial; otherwise install as a new synthetic query.
    /// Every synthetic a merge removes goes to `ops` as an abort.
    fn insert_probe(&mut self, probe: SyntheticQuery, ops: &mut Vec<NetworkOp>) {
        self.insert_probe_from(probe, 0, ops);
    }

    /// [`insert_probe`](Self::insert_probe) with an explicit starting merge
    /// count, so tests can enter the loop in the post-merge state.
    fn insert_probe_from(
        &mut self,
        mut probe: SyntheticQuery,
        mut merges: u32,
        ops: &mut Vec<NetworkOp>,
    ) {
        loop {
            let pq = probe.query().clone();
            // Algorithm 1's scan: every running synthetic, in ascending id
            // order (ties go to the first seen).
            let mut best: Option<(QueryId, f64)> = None;
            for (&id, sq) in &self.synthetics {
                let rate = self.cost.benefit_rate(&pq, sq.query());
                self.trace(|| TraceEvent::Tier1Eval {
                    probe: pq.id(),
                    candidate: id,
                    rate,
                });
                if best.is_none_or(|(_, b)| rate > b) {
                    best = Some((id, rate));
                }
                if rate >= 1.0 {
                    break; // Algorithm 1 line 9: cannot do better than covered
                }
            }
            match best {
                Some((id, rate)) if rate >= 1.0 => {
                    // Covered: the probe's members ride along for free.
                    self.trace(|| TraceEvent::Tier1Covered {
                        probe: pq.id(),
                        covered_by: id,
                    });
                    let members: Vec<QueryId> = probe.members().collect();
                    let sq = self.synthetics.get_mut(&id).expect("best exists");
                    for m in &members {
                        let user = self.users.get_mut(m).expect("a member is a running user");
                        sq.add_member(*m, &Demand::of(&user.query));
                        user.syn = id;
                    }
                    self.refresh_benefit(id);
                    return;
                }
                Some((id, rate)) if rate > 0.0 && (merges == 0 || self.options.reinsert) => {
                    // Integrate, then re-insert the merged synthetic
                    // (the paper's recursive `Insert(q_id, Q_syn)`). The
                    // no-reinsert ablation suppresses only this arm after the
                    // first merge: a covering synthetic (rate ≥ 1.0, above)
                    // still absorbs the merged probe rather than letting it
                    // install as a duplicate.
                    merges += 1;
                    let old = self.retire(id, ops).expect("best exists");
                    let merged_query = integrate(self.fresh_syn_id(), old.query(), &pq)
                        .expect("positive benefit rate implies integrable");
                    self.trace(|| TraceEvent::Tier1Merge {
                        probe: pq.id(),
                        candidate: id,
                        merged: merged_query.id(),
                    });
                    let mut merged = SyntheticQuery::new(merged_query);
                    for m in old.members().chain(probe.members()) {
                        merged.add_member(m, &Demand::of(&self.users[&m].query));
                    }
                    probe = merged;
                }
                _ => {
                    // No beneficial rewrite: run the probe as-is.
                    let id = probe.id();
                    let members: Vec<QueryId> = probe.members().collect();
                    self.trace(|| TraceEvent::Tier1Install {
                        synthetic: id,
                        members: members.clone(),
                    });
                    for m in &members {
                        self.users
                            .get_mut(m)
                            .expect("a member is a running user")
                            .syn = id;
                    }
                    self.synthetics.insert(id, probe);
                    self.refresh_benefit(id);
                    return;
                }
            }
        }
    }

    fn refresh_benefit(&mut self, id: QueryId) {
        let Some(sq) = self.synthetics.get(&id) else {
            // Every caller passes the id of a synthetic it just installed or
            // attached to, so a miss here is a bug in this file.
            debug_assert!(false, "refresh_benefit: synthetic {id} is not running");
            return;
        };
        let member_cost: f64 = sq
            .members()
            .map(|m| self.cost.cost(&self.users[&m].query))
            .sum();
        let own = self.cost.cost(sq.query());
        if let Some(sq) = self.synthetics.get_mut(&id) {
            sq.set_benefit(member_cost - own);
        }
    }

    /// The network operations of one `insert`, `terminate` or `reoptimize`
    /// call that began when the next synthetic id was `since` and noted
    /// each synthetic it removed as an abort in `removed`. Ids are never
    /// reused, so a removed id below `since` ran before the call and is
    /// aborted, one from `since` up was made and unmade within it and never
    /// reached the network, and every running id from `since` up is new and
    /// is injected. Aborts come first, then injections, each ascending.
    fn network_ops(&mut self, since: u64, mut removed: Vec<NetworkOp>) -> Vec<NetworkOp> {
        let ran_before = |op: &NetworkOp| matches!(op, NetworkOp::Abort(id) if id.0 < since);
        removed.retain(ran_before);
        removed.sort_unstable_by_key(|op| match op {
            NetworkOp::Abort(id) => *id,
            NetworkOp::Inject(query) => query.id(),
        });
        let mut ops = removed;
        self.stats.abortions += ops.len() as u64;
        for sq in self.synthetics.range(QueryId(since)..).map(|(_, sq)| sq) {
            ops.push(NetworkOp::Inject(sq.query().clone()));
            self.stats.injections += 1;
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};
    use ttmqo_query::{covers_query, parse_query};
    use ttmqo_sim::{RingSink, TraceSink};
    use ttmqo_stats::{LevelStats, SelectivityEstimator};

    fn opt(alpha: f64) -> BaseStationOptimizer {
        let model = CostModel::new(
            1.0,
            0.0,
            LevelStats::from_counts([4, 4, 4]),
            SelectivityEstimator::uniform(),
        );
        BaseStationOptimizer::new(model, alpha)
    }

    fn q(id: u64, text: &str) -> Query {
        parse_query(QueryId(id), text).unwrap()
    }

    /// Every live user query must be covered by its synthetic query.
    fn assert_invariants(o: &BaseStationOptimizer) {
        for (uid, User { query: uq, syn }) in &o.users {
            let sq = o
                .synthetic(*syn)
                .unwrap_or_else(|| panic!("user {uid} maps to missing synthetic {syn}"));
            assert!(sq.contains_member(*uid));
            assert!(
                covers_query(sq.query(), uq),
                "synthetic {} does not cover user {}",
                sq.query(),
                uq
            );
        }
        let member_total: usize = o.synthetics.values().map(|s| s.member_count()).sum();
        assert_eq!(member_total, o.user_count());
    }

    #[test]
    fn first_query_becomes_its_own_synthetic() {
        let mut o = opt(0.6);
        let ops = o.insert(q(1, "select light epoch duration 2048")).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], NetworkOp::Inject(_)));
        assert_eq!(o.synthetic_count(), 1);
        assert_invariants(&o);
    }

    #[test]
    fn covered_query_is_absorbed_silently() {
        let mut o = opt(0.6);
        o.insert(q(1, "select light, temp epoch duration 2048"))
            .unwrap();
        let ops = o.insert(q(2, "select light epoch duration 4096")).unwrap();
        assert!(
            ops.is_empty(),
            "covered insertion must not touch the network"
        );
        assert_eq!(o.synthetic_count(), 1);
        assert_eq!(o.stats().absorbed_insertions, 1);
        assert_invariants(&o);
    }

    #[test]
    fn paper_worked_example_rewrites_cascade() {
        // §3.1.3: q1 and q2 don't merge; q3 merges with q2; the merged q2''
        // then beneficially merges with q1'.
        let mut o = opt(0.6);
        o.insert(q(1, "select light where 280<light<600 epoch duration 2048"))
            .unwrap();
        o.insert(q(2, "select light where 100<light<300 epoch duration 4096"))
            .unwrap();
        assert_eq!(o.synthetic_count(), 2, "q1 and q2 must stay separate");

        o.insert(q(3, "select light where 150<light<500 epoch duration 4096"))
            .unwrap();
        // The recursive re-insertion merges everything into one synthetic.
        assert_eq!(o.synthetic_count(), 1, "cascade must fold all three");
        let syn = o.synthetic_queries().next().unwrap();
        assert_eq!(syn.epoch().as_ms(), 2048);
        let r = syn
            .predicates()
            .range(ttmqo_query::Attribute::Light)
            .unwrap();
        assert_eq!((r.min(), r.max()), (101.0, 599.0));
        assert_invariants(&o);
    }

    #[test]
    fn duplicate_and_reserved_ids_are_rejected() {
        let mut o = opt(0.6);
        o.insert(q(1, "select light epoch duration 2048")).unwrap();
        assert_eq!(
            o.insert(q(1, "select temp epoch duration 2048"))
                .unwrap_err(),
            InsertError::DuplicateId(QueryId(1))
        );
        assert_eq!(
            o.insert(q(SYNTHETIC_ID_BASE, "select temp epoch duration 2048"))
                .unwrap_err(),
            InsertError::ReservedId(QueryId(SYNTHETIC_ID_BASE))
        );
    }

    #[test]
    fn same_predicate_aggregations_merge() {
        let mut o = opt(0.6);
        o.insert(q(1, "select max(light) epoch duration 4096"))
            .unwrap();
        let ops = o
            .insert(q(2, "select min(light) epoch duration 4096"))
            .unwrap();
        assert_eq!(o.synthetic_count(), 1);
        // One abort (old synthetic) + one inject (merged).
        assert_eq!(ops.len(), 2);
        let syn = o.synthetic_queries().next().unwrap();
        assert!(syn.is_aggregation());
        assert_invariants(&o);
    }

    #[test]
    fn different_predicate_aggregations_stay_apart() {
        let mut o = opt(0.6);
        o.insert(q(
            1,
            "select max(light) where 0<=light<=300 epoch duration 2048",
        ))
        .unwrap();
        o.insert(q(
            2,
            "select max(light) where 0<=light<=600 epoch duration 2048",
        ))
        .unwrap();
        assert_eq!(o.synthetic_count(), 2);
        assert_invariants(&o);
    }

    #[test]
    fn aggregation_folds_into_covering_acquisition() {
        let mut o = opt(0.6);
        o.insert(q(1, "select light, temp epoch duration 2048"))
            .unwrap();
        let ops = o
            .insert(q(2, "select max(light) epoch duration 4096"))
            .unwrap();
        // The acquisition stream already carries everything MAX(light) needs.
        assert!(ops.is_empty());
        assert_eq!(o.synthetic_count(), 1);
        assert_invariants(&o);
    }

    #[test]
    fn termination_of_sole_query_aborts_synthetic() {
        let mut o = opt(0.6);
        o.insert(q(1, "select light epoch duration 2048")).unwrap();
        let ops = o.terminate(QueryId(1));
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], NetworkOp::Abort(_)));
        assert_eq!(o.synthetic_count(), 0);
        assert_eq!(o.user_count(), 0);
    }

    #[test]
    fn termination_of_redundant_member_is_silent() {
        let mut o = opt(0.6);
        o.insert(q(1, "select light epoch duration 2048")).unwrap();
        o.insert(q(2, "select light epoch duration 2048")).unwrap();
        assert_eq!(o.synthetic_count(), 1);
        let ops = o.terminate(QueryId(2));
        assert!(ops.is_empty(), "identical twin termination must be hidden");
        assert_eq!(o.stats().absorbed_terminations, 1);
        assert_invariants(&o);
    }

    #[test]
    fn alpha_gates_rebuild_on_termination() {
        // q_broad's demand dominates the synthetic; terminating it with a
        // small α forces a rebuild, while a huge α keeps the synthetic.
        let build = |alpha: f64| {
            let mut o = opt(alpha);
            o.insert(q(
                1,
                "select light where 0<=light<=1000 epoch duration 2048",
            ))
            .unwrap();
            o.insert(q(2, "select light where 0<=light<=200 epoch duration 4096"))
                .unwrap();
            assert_eq!(o.synthetic_count(), 1);
            let ops = o.terminate(QueryId(1));
            (o, ops)
        };
        let (o_small, ops_small) = build(0.1);
        assert!(!ops_small.is_empty(), "small α must rebuild");
        let syn = o_small.synthetic_queries().next().unwrap();
        let r = syn
            .predicates()
            .range(ttmqo_query::Attribute::Light)
            .unwrap();
        assert_eq!((r.min(), r.max()), (0.0, 200.0), "rebuilt tight query");
        assert_invariants(&o_small);

        let (o_big, ops_big) = build(1e6);
        assert!(ops_big.is_empty(), "huge α must keep the old synthetic");
        let syn = o_big.synthetic_queries().next().unwrap();
        assert!(
            syn.predicates()
                .range(ttmqo_query::Attribute::Light)
                .is_none()
                || syn
                    .predicates()
                    .range(ttmqo_query::Attribute::Light)
                    .unwrap()
                    .max()
                    >= 1000.0
        );
        assert_invariants(&o_big);
    }

    #[test]
    fn terminate_unknown_query_is_noop() {
        let mut o = opt(0.6);
        assert!(o.terminate(QueryId(99)).is_empty());
    }

    /// Id-independent canonical forms of the running synthetic set, for
    /// comparing sets across rewrites that renumber synthetic ids.
    fn synthetic_shapes(o: &BaseStationOptimizer) -> Vec<String> {
        let mut shapes: Vec<String> = o
            .synthetic_queries()
            .map(|s| format!("{:?}", s.with_id(QueryId(0))))
            .collect();
        shapes.sort();
        shapes
    }

    const REPAIR_SET: [&str; 5] = [
        "select light where 100<light<300 epoch duration 4096",
        "select light where 150<light<500 epoch duration 4096",
        "select light, temp epoch duration 2048",
        "select max(light) epoch duration 8192",
        "select min(temp) where 0<=temp<=500 epoch duration 4096",
    ];

    #[test]
    fn reoptimize_rebuilds_equivalent_synthetics_under_fresh_ids() {
        let mut o = opt(0.6);
        for (i, t) in REPAIR_SET.iter().enumerate() {
            o.insert(q(1 + i as u64, t)).unwrap();
        }
        let before = synthetic_shapes(&o);
        let ids_before: Vec<QueryId> = o.synthetic_queries().map(|s| s.id()).collect();

        // Repair every running synthetic, re-resolving ids as rewrites
        // rename them.
        let mut repaired = 0;
        while let Some(&id) = o
            .synthetic_queries()
            .map(|s| s.id())
            .collect::<Vec<_>>()
            .iter()
            .find(|id| ids_before.contains(id))
        {
            let ops = o.reoptimize(id);
            assert!(
                ops.iter()
                    .any(|op| matches!(op, NetworkOp::Abort(a) if *a == id)),
                "repair must abort the stale synthetic"
            );
            assert!(
                ops.iter().any(|op| matches!(op, NetworkOp::Inject(_))),
                "repair must re-flood something"
            );
            repaired += 1;
        }
        assert!(repaired > 0);
        // Same α, same member set: the synthetic set converges to the same
        // shapes — only the ids moved.
        assert_eq!(synthetic_shapes(&o), before);
        for id in o.synthetic_queries().map(|s| s.id()) {
            assert!(!ids_before.contains(&id), "repair must issue fresh ids");
        }
        assert_eq!(o.stats().reoptimizations, repaired);
        assert_invariants(&o);
    }

    #[test]
    fn terminate_and_reinsert_same_set_converges_to_same_shapes() {
        let mut o = opt(0.6);
        let queries: Vec<Query> = REPAIR_SET
            .iter()
            .enumerate()
            .map(|(i, t)| q(1 + i as u64, t))
            .collect();
        for query in &queries {
            o.insert(query.clone()).unwrap();
        }
        let before = synthetic_shapes(&o);

        for query in &queries {
            o.terminate(query.id());
        }
        assert_eq!(o.synthetic_count(), 0);
        assert_eq!(o.user_count(), 0);

        for query in &queries {
            o.insert(query.clone()).unwrap();
        }
        assert_eq!(synthetic_shapes(&o), before);
        assert_invariants(&o);
    }

    #[test]
    fn reoptimize_unknown_synthetic_is_noop() {
        let mut o = opt(0.6);
        o.insert(q(1, "select light epoch duration 2048")).unwrap();
        assert!(o.reoptimize(QueryId(999)).is_empty());
        assert_eq!(o.stats().reoptimizations, 0);
    }

    #[test]
    fn benefit_ratio_grows_with_similarity() {
        let mut o = opt(0.6);
        o.insert(q(1, "select light epoch duration 2048")).unwrap();
        assert!(o.benefit_ratio().abs() < 1e-9, "single query: no benefit");
        for i in 2..=8 {
            o.insert(q(i, "select light epoch duration 2048")).unwrap();
        }
        // 8 identical queries served by 1 synthetic: ratio = 7/8.
        assert!((o.benefit_ratio() - 7.0 / 8.0).abs() < 1e-9);
        assert_eq!(o.synthetic_count(), 1);
    }

    #[test]
    fn many_random_inserts_and_terminates_keep_invariants() {
        let mut o = opt(0.6);
        let texts = [
            "select light where 100<light<300 epoch duration 4096",
            "select light where 150<light<500 epoch duration 4096",
            "select light, temp epoch duration 2048",
            "select max(light) epoch duration 8192",
            "select min(temp) where 0<=temp<=500 epoch duration 4096",
            "select nodeid, light epoch duration 6144",
            "select max(light) epoch duration 4096",
            "select humidity where 20<=humidity<=80 epoch duration 2048",
        ];
        for (i, t) in texts.iter().enumerate() {
            o.insert(q(i as u64, t)).unwrap();
            assert_invariants(&o);
        }
        for i in [2u64, 0, 5, 7] {
            o.terminate(QueryId(i));
            assert_invariants(&o);
        }
        assert_eq!(o.user_count(), 4);
        // Everything still answered.
        for i in [1u64, 3, 4, 6] {
            assert!(o.mapping(QueryId(i)).is_some());
        }
    }

    /// The queries of `ttmqo_workloads::workload_b` (that crate depends on
    /// this one, so its types are not this test build's): acquisition pairs
    /// whose epochs do not divide and aggregations with pairwise different
    /// predicates — pairs that can never merge.
    const WORKLOAD_B: [&str; 8] = [
        "select light where 100<=light<=700 epoch duration 4096",
        "select light where 100<=light<=700 epoch duration 6144",
        "select temp where 0<=temp<=500 epoch duration 4096",
        "select temp where 0<=temp<=500 epoch duration 6144",
        "select max(humidity) where 10<=humidity<=60 epoch duration 4096",
        "select max(humidity) where 20<=humidity<=70 epoch duration 6144",
        "select min(voltage) where 2000<=voltage<=2800 epoch duration 4096",
        "select min(voltage) where 2200<=voltage<=3000 epoch duration 6144",
    ];

    /// The trace of a probe round is the whole of Algorithm 1's scan: its
    /// `tier1-eval` candidates are the running synthetics in ascending id
    /// order, up to and including the first that covers the probe. No
    /// running synthetic is skipped unscored, however hopeless the pair.
    #[test]
    fn every_probe_round_traces_every_running_synthetic() {
        let ring = Arc::new(Mutex::new(RingSink::new()));
        let mut o = opt(0.6);
        o.set_trace(TraceHandle::shared(
            ring.clone() as Arc<Mutex<dyn TraceSink>>
        ));
        let texts = WORKLOAD_B.iter().chain(&REPAIR_SET);
        for (i, t) in texts.enumerate() {
            o.insert(q(i as u64, t)).unwrap();
        }
        for i in [1u64, 9, 4, 10, 0] {
            o.terminate(QueryId(i));
        }

        // The running set as the trace tells it, and the round in progress.
        let mut running: BTreeSet<QueryId> = BTreeSet::new();
        let mut round: Vec<(QueryId, f64)> = Vec::new();
        let (mut rounds, mut covered, mut merged, mut torn_down) = (0, 0, 0, 0);
        for rec in ring.lock().unwrap().records() {
            // Evaluations and departures feed the state; a decision event
            // falls through and closes the round.
            match &rec.event {
                TraceEvent::Tier1Eval {
                    candidate, rate, ..
                } => {
                    round.push((*candidate, *rate));
                    continue;
                }
                TraceEvent::Tier1Remove {
                    synthetic,
                    emptied: true,
                    ..
                } => {
                    running.remove(synthetic);
                    continue;
                }
                TraceEvent::Tier1Reindex { synthetic, .. } => {
                    torn_down += 1;
                    running.remove(synthetic);
                    continue;
                }
                TraceEvent::Tier1Covered { .. } => covered += 1,
                TraceEvent::Tier1Merge { .. } => merged += 1,
                TraceEvent::Tier1Install { .. } => {}
                _ => continue,
            }
            let scan = round
                .iter()
                .position(|&(_, rate)| rate >= 1.0)
                .map_or(running.len(), |first_covering| first_covering + 1);
            let expected: Vec<QueryId> = running.iter().copied().take(scan).collect();
            let scored: Vec<QueryId> = round.iter().map(|&(id, _)| id).collect();
            assert_eq!(scored, expected, "round {rounds} of {:?}", rec.event);
            round.clear();
            rounds += 1;
            match &rec.event {
                TraceEvent::Tier1Merge { candidate, .. } => running.remove(candidate),
                TraceEvent::Tier1Install { synthetic, .. } => running.insert(*synthetic),
                _ => false,
            };
        }
        assert!(round.is_empty(), "every round ends in a decision");
        assert!(
            running.iter().eq(o.synthetics.keys()),
            "the trace accounts for every install and removal"
        );
        // The sequence exercises every way a round can end and the α
        // tear-down's re-admissions, not only fresh installs.
        assert!(covered > 0 && merged > 0 && torn_down > 0);
        assert!(rounds > WORKLOAD_B.len() + REPAIR_SET.len());
    }

    fn opt_with(options: OptimizerOptions) -> BaseStationOptimizer {
        let model = CostModel::new(
            1.0,
            0.0,
            LevelStats::from_counts([4, 4, 4]),
            SelectivityEstimator::uniform(),
        );
        BaseStationOptimizer::with_options(model, options)
    }

    /// Pins the no-reinsert ablation bug: after a merge, a synthetic query
    /// *covering* the merged probe must still absorb it — the ablation only
    /// suppresses further merges. The buggy version cleared `best` outright
    /// and installed a duplicate synthetic next to the covering one.
    ///
    /// Coverage after a merge is unreachable through the public `insert`
    /// (a synthetic covering the merged probe would have covered the
    /// original probe at the first iteration), so the test enters the loop
    /// in the post-merge state via `insert_probe_from`.
    #[test]
    fn no_reinsert_ablation_still_attaches_covered_probe() {
        let mut o = opt_with(OptimizerOptions {
            reinsert: false,
            ..OptimizerOptions::default()
        });
        o.insert(q(1, "select light, temp epoch duration 2048"))
            .unwrap();
        let covering = o.mapping(QueryId(1)).unwrap();

        let query = q(2, "select light epoch duration 4096");
        o.stats.inserted += 1;
        let mut probe = SyntheticQuery::new(query.with_id(o.fresh_syn_id()));
        probe.add_member(query.id(), &Demand::of(&query));
        let syn = probe.id();
        o.users.insert(query.id(), User { query, syn });
        o.insert_probe_from(probe, 1, &mut Vec::new()); // pretend one merge already happened

        assert_eq!(
            o.synthetic_count(),
            1,
            "covered probe must attach, not install a duplicate synthetic"
        );
        assert_eq!(o.mapping(QueryId(2)), Some(covering));
        assert_invariants(&o);
    }

    /// Full drain: every departure processed, the optimizer holds nothing —
    /// no synthetics, no user maps — and a fresh admission cycle starts
    /// clean.
    #[test]
    fn drain_to_empty_clears_all_state_and_readmits() {
        let mut o = opt(0.6);
        let queries: Vec<Query> = REPAIR_SET
            .iter()
            .enumerate()
            .map(|(i, t)| q(1 + i as u64, t))
            .collect();
        for query in &queries {
            o.insert(query.clone()).unwrap();
        }
        let shapes = synthetic_shapes(&o);

        let mut aborts = 0;
        for query in &queries {
            aborts += o
                .terminate(query.id())
                .iter()
                .filter(|op| matches!(op, NetworkOp::Abort(_)))
                .count();
        }
        assert_eq!(o.synthetic_count(), 0);
        assert_eq!(o.user_count(), 0);
        assert!(aborts > 0, "draining must abort the running synthetics");
        // Epoch-GCD over the drained (empty) set must be `None`, not panic.
        assert!(
            ttmqo_query::EpochDuration::gcd_all(o.synthetic_queries().map(|s| s.epoch())).is_none()
        );

        for query in queries {
            o.insert(query).unwrap();
        }
        assert_eq!(synthetic_shapes(&o), shapes, "re-admission must converge");
        assert_invariants(&o);
    }

    /// Optimizer memory must track the *live* query count, not total
    /// arrivals: churn far more queries than are ever concurrently live and
    /// check the maps never grow past the live set.
    #[test]
    fn churned_optimizer_memory_tracks_live_queries() {
        let mut o = opt(0.6);
        let texts = [
            "select light where 100<light<300 epoch duration 4096",
            "select light, temp epoch duration 2048",
            "select max(light) epoch duration 8192",
            "select temp epoch duration 12288",
        ];
        for round in 0u64..50 {
            let id = round;
            o.insert(q(id, texts[(round % 4) as usize])).unwrap();
            if round >= 4 {
                o.terminate(QueryId(id - 4));
            }
            assert!(o.user_count() <= 5);
            assert!(o.synthetic_count() <= o.user_count());
            assert_invariants(&o);
        }
        assert_eq!(o.stats().inserted, 50);
        assert_eq!(o.stats().terminated, 46);
        assert_eq!(o.user_count(), 4);
    }
}
