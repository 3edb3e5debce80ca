//! Streaming churn workload: a Poisson arrival/departure process over a
//! fixed menu of query *templates*.
//!
//! Where [`random_workload`](crate::random_workload) draws every query
//! fresh, real sensor-network front-ends see the same dashboard and alert
//! queries posed over and over by different users. This generator first
//! draws `n_templates` queries from the §4.3 random model, then lets every
//! arrival instantiate one of the templates under its own query id — so the
//! optimizer sees heavy overlap (most arrivals are covered or merge
//! cheaply) while queries continuously arrive and depart. By Little's law
//! the steady-state live count is `target_concurrency`; the process runs
//! until `n_queries` have arrived, and every query departs.

use crate::random::{exponential, random_query, timeline, Life};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ttmqo_core::WorkloadEvent;
use ttmqo_query::{Query, QueryId};

/// Parameters of the churn workload generator.
#[derive(Debug, Clone)]
pub struct ChurnWorkloadParams {
    /// Total number of queries that arrive (each also departs).
    pub n_queries: usize,
    /// Number of distinct query templates the arrivals draw from.
    pub n_templates: usize,
    /// Mean inter-arrival time, ms.
    pub mean_arrival_ms: f64,
    /// Desired average number of concurrently live queries (Little's law:
    /// mean lifetime = `target_concurrency × mean_arrival_ms`).
    pub target_concurrency: f64,
    /// Fraction of aggregation templates (the rest are acquisitions).
    pub aggregation_fraction: f64,
    /// Largest deployed node id (see
    /// [`RandomWorkloadParams`](crate::RandomWorkloadParams)).
    pub nodeid_max: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnWorkloadParams {
    fn default() -> Self {
        ChurnWorkloadParams {
            n_queries: 500,
            n_templates: 24,
            mean_arrival_ms: 5_000.0,
            target_concurrency: 32.0,
            aggregation_fraction: 0.3,
            nodeid_max: 63.0,
            seed: 0xC0FFEE,
        }
    }
}

/// Generates the template-churn workload: pose and terminate events sorted
/// by time. Deterministic per seed.
///
/// # Examples
///
/// ```
/// use ttmqo_workloads::{churn_workload, ChurnWorkloadParams};
///
/// let events = churn_workload(&ChurnWorkloadParams {
///     n_queries: 40,
///     ..ChurnWorkloadParams::default()
/// });
/// assert_eq!(events.len(), 80); // 40 poses + 40 terminations
/// ```
pub fn churn_workload(params: &ChurnWorkloadParams) -> Vec<WorkloadEvent> {
    timeline(churn_lives(params))
}

/// The queries' lives in arrival order, before they become events.
pub(crate) fn churn_lives(params: &ChurnWorkloadParams) -> Vec<Life> {
    let queries = churn_queries(params);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5EED_CAFE);
    let mean_lifetime_ms = params.target_concurrency * params.mean_arrival_ms;
    let mut t = 0.0f64;
    queries
        .into_iter()
        .map(|query| {
            t += exponential(&mut rng, params.mean_arrival_ms);
            let lifetime = exponential(&mut rng, mean_lifetime_ms).max(1000.0);
            (t as u64, (t + lifetime) as u64, query)
        })
        .collect()
}

/// The arrival sequence alone (no timestamps, no departures): query `i`
/// instantiates a seeded template under id `i`.
fn churn_queries(params: &ChurnWorkloadParams) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n_templates = params.n_templates.max(1);
    let templates: Vec<Query> = (0..n_templates)
        .map(|i| {
            random_query(
                &mut rng,
                QueryId(i as u64),
                params.aggregation_fraction,
                params.nodeid_max,
            )
        })
        .collect();
    (0..params.n_queries)
        .map(|i| templates[rng.gen_range(0..n_templates)].with_id(QueryId(i as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_core::WorkloadAction;

    #[test]
    fn every_arrival_departs_and_events_are_sorted() {
        let events = churn_workload(&ChurnWorkloadParams {
            n_queries: 200,
            ..ChurnWorkloadParams::default()
        });
        let poses = events
            .iter()
            .filter(|e| matches!(e.action, WorkloadAction::Pose(_)))
            .count();
        let terms = events
            .iter()
            .filter(|e| matches!(e.action, WorkloadAction::Terminate(_)))
            .count();
        assert_eq!(poses, 200);
        assert_eq!(terms, 200);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn is_bit_identical_per_seed() {
        let p = ChurnWorkloadParams {
            n_queries: 64,
            ..ChurnWorkloadParams::default()
        };
        let a = format!("{:?}", churn_workload(&p));
        let b = format!("{:?}", churn_workload(&p));
        assert_eq!(a, b, "same seed must reproduce the workload exactly");
        let c = format!(
            "{:?}",
            churn_workload(&ChurnWorkloadParams { seed: 9, ..p })
        );
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn arrivals_reuse_the_template_menu() {
        let p = ChurnWorkloadParams {
            n_queries: 300,
            n_templates: 8,
            ..ChurnWorkloadParams::default()
        };
        let queries = churn_queries(&p);
        assert_eq!(queries.len(), 300);
        // Ids are the arrival sequence.
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(q.id(), QueryId(i as u64));
        }
        // Id-stripped shapes collapse to at most the template count.
        let mut shapes: Vec<String> = queries
            .iter()
            .map(|q| format!("{:?}", q.with_id(QueryId(0))))
            .collect();
        shapes.sort();
        shapes.dedup();
        assert!(
            shapes.len() <= 8,
            "300 arrivals over 8 templates collapsed to {} shapes",
            shapes.len()
        );
        assert!(shapes.len() > 1, "templates should be diverse");
    }

    #[test]
    fn concurrency_tracks_target() {
        let events = churn_workload(&ChurnWorkloadParams {
            n_queries: 500,
            target_concurrency: 32.0,
            seed: 3,
            ..ChurnWorkloadParams::default()
        });
        let last_pose = events
            .iter()
            .filter(|e| matches!(e.action, WorkloadAction::Pose(_)))
            .map(|e| e.at.as_ms())
            .max()
            .expect("workload has poses");
        let mut live = 0i64;
        let mut weighted = 0.0;
        let mut last = 0u64;
        for e in &events {
            let t = e.at.as_ms().min(last_pose);
            weighted += live as f64 * (t - last) as f64;
            last = t;
            match e.action {
                WorkloadAction::Pose(_) => live += 1,
                WorkloadAction::Terminate(_) => live -= 1,
            }
        }
        let mean = weighted / last_pose as f64;
        assert!(
            (mean - 32.0).abs() < 32.0 * 0.35,
            "target 32, measured {mean}"
        );
    }
}
