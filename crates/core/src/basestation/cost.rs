//! The cost model of §3.1.2 — Eqs. (1)–(3).
//!
//! Cost is the expected radio airtime a query induces per millisecond of
//! simulated time:
//!
//! * Eq. (1): `result(q, N_k) = sel(q, N_k) · |N_k| / epoch` — result messages
//!   generated per unit time by the nodes at level `k`;
//! * Eq. (2): `trans(q) = Σ_k result(q, N_k) · k` — message transmissions,
//!   weighing each source by its hop count. For aggregation queries the paper
//!   uses the conservative lower bound `result(q, N)` (perfect in-network
//!   aggregation), so an aggregation query is only ever integrated into an
//!   acquisition query when that is guaranteed beneficial;
//! * Eq. (3): `cost(q) = trans(q) · (C_start + C_trans · len(q))`.

use ttmqo_query::{covers_query, integrate, Query, QueryId};
use ttmqo_stats::{LevelStats, SelectivityEstimator};

/// Bytes of per-message framing included in `len(q)` on top of the result
/// tuple itself (query id + epoch counter).
const RESULT_FRAMING_BYTES: usize = 4;

/// The base-station cost model: radio constants plus network statistics.
///
/// # Examples
///
/// ```
/// use ttmqo_core::CostModel;
/// use ttmqo_stats::{LevelStats, SelectivityEstimator};
/// use ttmqo_query::{parse_query, QueryId};
///
/// let model = CostModel::new(
///     4.0,
///     0.2,
///     LevelStats::from_counts([7, 8]),
///     SelectivityEstimator::uniform(),
/// );
/// let q = parse_query(QueryId(1), "select light epoch duration 2048")?;
/// assert!(model.cost(&q) > 0.0);
/// # Ok::<(), ttmqo_query::ParseQueryError>(())
/// ```
#[derive(Debug)]
pub struct CostModel {
    /// Transmission startup cost, ms (`C_start`).
    c_start: f64,
    /// Per-byte transmission cost, ms (`C_trans`).
    c_trans: f64,
    /// Routing-tree level populations (`N_k`).
    levels: LevelStats,
    /// Selectivity estimator (`sel(q, ·)` — one distribution for all levels,
    /// as in the paper's experiments).
    estimator: SelectivityEstimator,
}

impl CostModel {
    /// Builds a cost model from radio constants and network statistics.
    pub fn new(
        c_start: f64,
        c_trans: f64,
        levels: LevelStats,
        estimator: SelectivityEstimator,
    ) -> Self {
        CostModel {
            c_start,
            c_trans,
            levels,
            estimator,
        }
    }

    /// Returns the model unchanged: no query restricts by position, so
    /// node positions weigh in no estimate. Kept because the repo benchmark
    /// calls it; it can go when the benchmark may be edited.
    pub fn with_positions(self, _positions: Vec<(f64, f64)>) -> Self {
        self
    }

    /// The level statistics in use.
    pub fn levels(&self) -> &LevelStats {
        &self.levels
    }

    /// Feeds one observed reading into the estimator's adaptive statistics
    /// (§3.1.2: the base station maintains data distributions from the
    /// result stream it already receives).
    pub fn observe(&mut self, attr: ttmqo_query::Attribute, value: f64) {
        self.estimator.observe(attr, value);
    }

    /// Estimated selectivity of the query's predicates.
    pub fn selectivity(&self, q: &Query) -> f64 {
        self.estimator.selectivity(q.predicates())
    }

    /// Eq. (1): result messages generated per ms by level `k`.
    pub fn result_rate_at_level(&self, q: &Query, k: u32) -> f64 {
        self.selectivity(q) * self.levels.nodes_at(k) as f64 / q.epoch().as_ms() as f64
    }

    /// Eq. (2): message transmissions per ms; the aggregation lower bound
    /// `result(q, N)` for aggregation queries.
    pub fn trans_rate(&self, q: &Query) -> f64 {
        if q.is_aggregation() {
            self.selectivity(q) * self.levels.sensor_count() as f64 / q.epoch().as_ms() as f64
        } else {
            (1..=self.levels.max_depth())
                .map(|k| self.result_rate_at_level(q, k) * k as f64)
                .sum()
        }
    }

    /// `len(q)`: the result-message length in bytes, framing included.
    pub fn result_len(&self, q: &Query) -> usize {
        RESULT_FRAMING_BYTES + q.result_len()
    }

    /// Eq. (3): expected airtime per ms of simulated time.
    pub fn cost(&self, q: &Query) -> f64 {
        self.trans_rate(q) * (self.c_start + self.c_trans * self.result_len(q) as f64)
    }

    /// Estimated benefit of integrating `a` and `b` into one synthetic query:
    /// `cost(a) + cost(b) − cost(a ⊕ b)`. `None` when no semantically correct
    /// integration exists.
    pub fn benefit(&self, a: &Query, b: &Query) -> Option<f64> {
        let merged = integrate(QueryId(u64::MAX), a, b)?;
        Some(self.cost(a) + self.cost(b) - self.cost(&merged))
    }

    /// The `Beneficial(q_i, q_j)` of Algorithm 1: the benefit *rate*
    /// `benefit(q_i, q_j) / cost(q_i)`, with exactly `1.0` when `q_j` already
    /// covers `q_i` (adding `q_i` costs the network nothing).
    ///
    /// Aggregation pairs with equivalent predicates are always reported
    /// beneficial (the paper's "guaranteed to be beneficial" rule), even if
    /// the raw estimate is marginal.
    pub fn benefit_rate(&self, qi: &Query, qj: &Query) -> f64 {
        if covers_query(qj, qi) {
            return 1.0;
        }
        let Some(benefit) = self.benefit(qi, qj) else {
            return 0.0;
        };
        let cost_qi = self.cost(qi);
        if cost_qi <= 0.0 {
            return 0.0;
        }
        let rate = (benefit / cost_qi).min(1.0 - 1e-9);
        if qi.is_aggregation() && qj.is_aggregation() && qi.predicates().equivalent(qj.predicates())
        {
            // §3.1.2: same-predicate aggregation pairs integrate by merging
            // aggregate lists; treat as beneficial even when the raw estimate
            // is not positive.
            return rate.max(1e-6);
        }
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_query::parse_query;

    fn model(levels: LevelStats) -> CostModel {
        CostModel::new(1.0, 0.0, levels, SelectivityEstimator::uniform())
    }

    fn q(id: u64, text: &str) -> Query {
        parse_query(QueryId(id), text).unwrap()
    }

    /// The worked example of §3.1.3:
    ///   q1: select light where 280<light<600 epoch 2048
    ///   q2: select light where 100<light<300 epoch 4096
    ///   q3: select light where 150<light<500 epoch 4096
    /// With uniform light and (C_start + C_trans·len) ≡ const, the paper
    /// derives benefit(q1,q2) = d/L·(320/2 + 200/4 − 500/2) < 0, and after
    /// q2'' = merge(q2,q3), benefit(q1',q2'') > 0.
    ///
    /// Note: the paper prints benefit(q1',q3) = d/L·(320/2 + 350/4 − 350/2)
    /// "< 0", but 160 + 87.5 − 175 = +72.5, and with the correct union width
    /// (150..600 ⇒ 450) the value is 160 + 87.5 − 225 = +22.5 — positive
    /// either way. The printed sign is an arithmetic slip. What actually
    /// matters for Algorithm 1 is the *ranking*: merging q3 with q2' has a
    /// higher benefit rate than merging with q1', so the greedy choice — and
    /// the final cascade result the paper reports — is unchanged. We assert
    /// the ranking.
    #[test]
    fn paper_worked_example_signs() {
        // Any level stats works — benefit signs don't depend on d.
        let m = model(LevelStats::from_counts([4, 4, 4]));
        let q1 = q(1, "select light where 280<light<600 epoch duration 2048");
        let q2 = q(2, "select light where 100<light<300 epoch duration 4096");
        let q3 = q(3, "select light where 150<light<500 epoch duration 4096");

        assert!(m.benefit(&q1, &q2).unwrap() < 0.0, "q1+q2 not beneficial");
        assert!(m.benefit(&q2, &q3).unwrap() > 0.0, "q2'+q3 beneficial");
        // Greedy ranking: q3 prefers q2' over q1'.
        assert!(
            m.benefit_rate(&q3, &q2) > m.benefit_rate(&q3, &q1),
            "q3 must prefer merging with q2'"
        );

        let q2pp = integrate(QueryId(100), &q2, &q3).unwrap();
        let r = q2pp
            .predicates()
            .range(ttmqo_query::Attribute::Light)
            .unwrap();
        assert_eq!((r.min(), r.max()), (101.0, 499.0));
        assert_eq!(q2pp.epoch().as_ms(), 4096);
        assert!(m.benefit(&q1, &q2pp).unwrap() > 0.0, "q1'+q2'' beneficial");
    }

    #[test]
    fn result_rate_matches_eq1() {
        let m = model(LevelStats::from_counts([3, 5]));
        // Full-domain predicates: selectivity 1.
        let qq = q(1, "select light epoch duration 2048");
        assert!((m.result_rate_at_level(&qq, 1) - 3.0 / 2048.0).abs() < 1e-12);
        assert!((m.result_rate_at_level(&qq, 2) - 5.0 / 2048.0).abs() < 1e-12);
        assert_eq!(m.result_rate_at_level(&qq, 3), 0.0);
    }

    #[test]
    fn trans_rate_weighs_by_depth_for_acquisition() {
        let m = model(LevelStats::from_counts([3, 5]));
        let qq = q(1, "select light epoch duration 2048");
        let expect = (3.0 * 1.0 + 5.0 * 2.0) / 2048.0;
        assert!((m.trans_rate(&qq) - expect).abs() < 1e-12);
    }

    #[test]
    fn aggregation_uses_lower_bound() {
        let m = model(LevelStats::from_counts([3, 5]));
        let agg = q(1, "select max(light) epoch duration 2048");
        let expect = 8.0 / 2048.0; // result(q, N): every node sends once
        assert!((m.trans_rate(&agg) - expect).abs() < 1e-12);
    }

    #[test]
    fn selectivity_scales_cost() {
        let m = model(LevelStats::from_counts([4, 4]));
        let full = q(1, "select light epoch duration 2048");
        let half = q(2, "select light where 0<=light<=500 epoch duration 2048");
        assert!((m.cost(&full) / m.cost(&half) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_yields_rate_exactly_one() {
        let m = model(LevelStats::from_counts([4, 4]));
        let broad = q(1, "select light where 100<=light<=600 epoch duration 2048");
        let narrow = q(2, "select light where 200<=light<=500 epoch duration 4096");
        assert_eq!(m.benefit_rate(&narrow, &broad), 1.0);
        assert!(m.benefit_rate(&broad, &narrow) < 1.0);
    }

    #[test]
    fn non_integrable_pair_rate_is_zero() {
        let m = model(LevelStats::from_counts([4]));
        let a = q(
            1,
            "select max(light) where 0<=light<=100 epoch duration 2048",
        );
        let b = q(
            2,
            "select max(light) where 0<=light<=200 epoch duration 2048",
        );
        assert_eq!(m.benefit_rate(&a, &b), 0.0);
    }

    #[test]
    fn same_predicate_aggregations_always_beneficial() {
        let m = model(LevelStats::from_counts([4]));
        let a = q(1, "select max(light) epoch duration 2048");
        let b = q(2, "select min(temp) epoch duration 6144");
        assert!(m.benefit_rate(&a, &b) > 0.0);
        assert!(m.benefit_rate(&b, &a) > 0.0);
    }

    #[test]
    fn rate_never_reaches_one_without_coverage() {
        let m = model(LevelStats::from_counts([4, 4]));
        let a = q(1, "select light epoch duration 2048");
        let b = q(2, "select light, temp epoch duration 2048");
        // b does not cover a? It does: attrs ⊇, preds equal, epoch divides.
        assert_eq!(m.benefit_rate(&a, &b), 1.0);
        // Reverse: a lacks temp → not covered, rate strictly below 1.
        let r = m.benefit_rate(&b, &a);
        assert!(r < 1.0);
    }

    #[test]
    fn cost_is_positive_and_monotone_in_len() {
        let m = CostModel::new(
            1.0,
            0.5,
            LevelStats::from_counts([4]),
            SelectivityEstimator::uniform(),
        );
        let small = q(1, "select light epoch duration 2048");
        let big = q(2, "select light, temp, humidity epoch duration 2048");
        assert!(m.cost(&small) > 0.0);
        assert!(m.cost(&big) > m.cost(&small));
    }
}
