//! The adaptive random workload of §4.3 (Figure 4).
//!
//! "…a model of queries that randomly select attributes (nodeid, light,
//! temp), aggregations (MAX, MIN), predicates and epoch durations (from
//! shortest 8092ms to longest 24576ms, all divisible by 4096ms). We keep the
//! average arrival frequency at 40s per query, but we vary the average
//! duration so that the average number of concurrent queries is changing. A
//! set of workload is complete after the termination of 500 queries."
//!
//! Note: 8092 is not divisible by 4096 — an evident typo for 8192, which we
//! use. By Little's law the mean query duration is `target_concurrency ×
//! mean_arrival`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ttmqo_core::WorkloadEvent;
use ttmqo_query::{AggOp, Attribute, Query, QueryId, Selection};

/// Parameters of the random workload generator.
#[derive(Debug, Clone)]
pub struct RandomWorkloadParams {
    /// Number of queries in the workload (the paper uses 500).
    pub n_queries: usize,
    /// Mean inter-arrival time, ms (the paper uses 40 s).
    pub mean_arrival_ms: f64,
    /// Desired average number of concurrently running queries (8–48 in
    /// Figure 4).
    pub target_concurrency: f64,
    /// Fraction of aggregation queries (the rest are acquisitions).
    pub aggregation_fraction: f64,
    /// Largest deployed node id: `nodeid` predicates are placed inside
    /// `[0, nodeid_max]` so they filter deployed nodes, not the empty tail of
    /// the id domain.
    pub nodeid_max: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomWorkloadParams {
    fn default() -> Self {
        RandomWorkloadParams {
            n_queries: 500,
            mean_arrival_ms: 40_000.0,
            target_concurrency: 8.0,
            aggregation_fraction: 0.3,
            nodeid_max: 63.0,
            seed: 0xBADC0DE,
        }
    }
}

/// The paper's epoch menu: 8192…24576 ms, all divisible by 4096 ms.
pub const EPOCH_MENU_MS: [u64; 5] = [8192, 12288, 16384, 20480, 24576];

/// Attributes the random queries draw from (§4.3).
pub const ATTR_MENU: [Attribute; 3] = [Attribute::NodeId, Attribute::Light, Attribute::Temp];

/// Generates the Poisson-arrival, exponential-duration workload.
///
/// Returns pose and terminate events sorted by time; exactly
/// `params.n_queries` queries are posed and all of them terminate.
///
/// # Examples
///
/// ```
/// use ttmqo_workloads::{random_workload, RandomWorkloadParams};
///
/// let events = random_workload(&RandomWorkloadParams {
///     n_queries: 50,
///     ..RandomWorkloadParams::default()
/// });
/// assert_eq!(events.len(), 100); // 50 poses + 50 terminations
/// ```
pub fn random_workload(params: &RandomWorkloadParams) -> Vec<WorkloadEvent> {
    timeline(random_lives(params))
}

/// The queries' lives in arrival order, before they become events.
fn random_lives(params: &RandomWorkloadParams) -> Vec<Life> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mean_duration_ms = params.target_concurrency * params.mean_arrival_ms;
    let mut t = 0.0f64;
    (0..params.n_queries)
        .map(|i| {
            t += exponential(&mut rng, params.mean_arrival_ms);
            let duration = exponential(&mut rng, mean_duration_ms).max(1000.0);
            let query = random_query(
                &mut rng,
                QueryId(i as u64),
                params.aggregation_fraction,
                params.nodeid_max,
            );
            (t as u64, (t + duration) as u64, query)
        })
        .collect()
}

/// A query's life: when it is posed and when terminated, in ms, and the
/// query.
pub(crate) type Life = (u64, u64, Query);

/// The pose and terminate events of `lives`, sorted by time, ties in the
/// order they were generated (life `i`'s pose `2i`-th, its termination
/// `2i + 1`-th): what a stable sort of the events by time gives. It sorts
/// `(time, generation index)` keys and moves each query once, where sorting
/// the 184-byte events moved each several times.
///
/// # Panics
///
/// If `lives` are not in pose order.
pub(crate) fn timeline(lives: Vec<Life>) -> Vec<WorkloadEvent> {
    // In pose order, the sorted keys meet the poses in the order `lives`
    // holds their queries.
    assert!(
        lives.windows(2).all(|w| w[0].0 <= w[1].0),
        "lives are in pose order"
    );
    let mut keys: Vec<(u64, usize, QueryId)> = Vec::with_capacity(lives.len() * 2);
    for (i, (posed, ended, query)) in lives.iter().enumerate() {
        keys.push((*posed, 2 * i, query.id()));
        keys.push((*ended, 2 * i + 1, query.id()));
    }
    keys.sort_unstable_by_key(|&(at, generated, _)| (at, generated));
    let mut queries = lives.into_iter().map(|(_, _, query)| query);
    keys.into_iter()
        .map(|(at, generated, id)| match generated % 2 {
            0 => WorkloadEvent::pose(at, queries.next().expect("a query per pose")),
            _ => WorkloadEvent::terminate(at, id),
        })
        .collect()
}

/// End time of the last event, ms.
pub fn workload_end_ms(events: &[WorkloadEvent]) -> u64 {
    events.iter().map(|e| e.at.as_ms()).max().unwrap_or(0)
}

pub(crate) fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -mean * u.ln()
}

/// One random query per the §4.3 model.
pub(crate) fn random_query(
    rng: &mut StdRng,
    id: QueryId,
    agg_fraction: f64,
    nodeid_max: f64,
) -> Query {
    let epoch = EPOCH_MENU_MS[rng.gen_range(0..EPOCH_MENU_MS.len())];
    let selection = if rng.gen_bool(agg_fraction.clamp(0.0, 1.0)) {
        let op = if rng.gen_bool(0.5) {
            AggOp::Max
        } else {
            AggOp::Min
        };
        let attr = [Attribute::Light, Attribute::Temp][rng.gen_range(0..2)];
        Selection::aggregates([(op, attr)])
    } else {
        // Non-empty random subset of the attribute menu.
        let mut attrs: Vec<Attribute> = ATTR_MENU
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        if attrs.is_empty() {
            attrs.push(ATTR_MENU[rng.gen_range(0..ATTR_MENU.len())]);
        }
        Selection::attributes(attrs)
    };
    // Zero, one or two random range predicates on distinct attributes
    // (same-attribute ranges could intersect to an unsatisfiable conjunction).
    let mut predicates = ttmqo_query::PredicateSet::new();
    let n_preds = rng.gen_range(0..=2);
    let mut menu = ATTR_MENU.to_vec();
    for _ in 0..n_preds {
        let attr = menu.remove(rng.gen_range(0..menu.len()));
        let (lo, hi) = if attr == Attribute::NodeId {
            (0.0, nodeid_max)
        } else {
            attr.domain()
        };
        let width = hi - lo;
        let coverage = rng.gen_range(0.2..1.0);
        let start = rng.gen_range(0.0..=(1.0 - coverage));
        predicates.and(
            ttmqo_query::Predicate::new(attr, lo + start * width, lo + (start + coverage) * width)
                .expect("generated range is inside the domain"),
        );
    }
    Query::from_parts(
        id,
        selection,
        predicates,
        ttmqo_query::EpochDuration::from_ms(epoch).expect("menu epochs are valid"),
    )
    .expect("generated query is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_core::WorkloadAction;

    #[test]
    fn generates_paired_pose_and_terminate() {
        let events = random_workload(&RandomWorkloadParams {
            n_queries: 100,
            ..RandomWorkloadParams::default()
        });
        let poses = events
            .iter()
            .filter(|e| matches!(e.action, WorkloadAction::Pose(_)))
            .count();
        let terms = events
            .iter()
            .filter(|e| matches!(e.action, WorkloadAction::Terminate(_)))
            .count();
        assert_eq!(poses, 100);
        assert_eq!(terms, 100);
        // Sorted by time.
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    /// What the generators returned while they sorted the events
    /// themselves: the lives' events in generation order, stably sorted.
    fn sorted_events(lives: Vec<Life>) -> Vec<WorkloadEvent> {
        let mut events = Vec::new();
        for (posed, ended, query) in lives {
            let id = query.id();
            events.push(WorkloadEvent::pose(posed, query));
            events.push(WorkloadEvent::terminate(ended, id));
        }
        events.sort_by_key(|e| e.at);
        events
    }

    #[test]
    fn sorting_keys_orders_events_as_sorting_the_events_did() {
        // Sub-millisecond arrivals make many poses share a millisecond, and
        // terminations land on poses' milliseconds: ties of both kinds.
        let mut ties = 0;
        for seed in 0..8 {
            for n_queries in [0, 1, 2, 7, 64, 500] {
                for mean_arrival_ms in [0.4, 40.0, 8_000.0] {
                    let random = RandomWorkloadParams {
                        n_queries,
                        mean_arrival_ms,
                        target_concurrency: 4.0,
                        seed,
                        ..RandomWorkloadParams::default()
                    };
                    let churn = crate::ChurnWorkloadParams {
                        n_queries,
                        mean_arrival_ms,
                        target_concurrency: 4.0,
                        seed,
                        ..crate::ChurnWorkloadParams::default()
                    };
                    let cases = [
                        (random_workload(&random), random_lives(&random)),
                        (
                            crate::churn_workload(&churn),
                            crate::churn::churn_lives(&churn),
                        ),
                    ];
                    for (events, lives) in cases {
                        ties += events.windows(2).filter(|w| w[0].at == w[1].at).count();
                        assert_eq!(
                            events,
                            sorted_events(lives),
                            "seed {seed}, {n_queries} queries"
                        );
                    }
                }
            }
        }
        assert!(ties > 1_000, "only {ties} ties");
    }

    #[test]
    fn is_deterministic_per_seed() {
        let p = RandomWorkloadParams {
            n_queries: 30,
            ..RandomWorkloadParams::default()
        };
        let a = format!("{:?}", random_workload(&p));
        let b = format!("{:?}", random_workload(&p));
        assert_eq!(a, b);
        let c = format!(
            "{:?}",
            random_workload(&RandomWorkloadParams { seed: 1, ..p })
        );
        assert_ne!(a, c);
    }

    #[test]
    fn epochs_come_from_the_menu() {
        let events = random_workload(&RandomWorkloadParams {
            n_queries: 200,
            ..RandomWorkloadParams::default()
        });
        for e in &events {
            if let WorkloadAction::Pose(q) = &e.action {
                assert!(EPOCH_MENU_MS.contains(&q.epoch().as_ms()), "{}", q.epoch());
            }
        }
    }

    #[test]
    fn concurrency_tracks_target() {
        for target in [8.0, 24.0, 48.0] {
            let events = random_workload(&RandomWorkloadParams {
                n_queries: 500,
                target_concurrency: target,
                seed: 7,
                ..RandomWorkloadParams::default()
            });
            // Time-weighted mean concurrency over the arrival window only:
            // after the last pose the process drains to zero, and folding
            // that non-stationary tail into the mean biases it down by
            // roughly `mean_duration / pose_span` (≈ target/n_queries), which
            // for large targets swamps the tolerance. Little's law predicts
            // the target only while arrivals are active.
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
                (mean - target).abs() < target * 0.35,
                "target {target}, measured {mean}"
            );
        }
    }

    #[test]
    fn aggregation_fraction_respected() {
        let events = random_workload(&RandomWorkloadParams {
            n_queries: 400,
            aggregation_fraction: 0.5,
            ..RandomWorkloadParams::default()
        });
        let (mut agg, mut acq) = (0, 0);
        for e in &events {
            if let WorkloadAction::Pose(q) = &e.action {
                if q.is_aggregation() {
                    agg += 1;
                } else {
                    acq += 1;
                }
            }
        }
        let frac = agg as f64 / (agg + acq) as f64;
        assert!((frac - 0.5).abs() < 0.1, "fraction {frac}");
    }
}
