//! Micro-benchmarks of the hot paths: query parsing, the merge algebra,
//! optimizer insertion, and raw simulation throughput. Each runs a
//! calibrated ~300 ms loop and prints mean ns/iter.

use std::hint::black_box;
use std::time::{Duration, Instant};
use ttmqo_core::{run_experiment, BaseStationOptimizer, CostModel, ExperimentConfig, Strategy};
use ttmqo_query::{integrate, parse_query, QueryId};
use ttmqo_sim::SimTime;
use ttmqo_stats::{LevelStats, SelectivityEstimator};
use ttmqo_workloads::{random_workload, workload_a, RandomWorkloadParams};

/// Measurement budget per benchmark.
const TARGET: Duration = Duration::from_millis(300);

/// Times `routine` over fresh inputs from `setup` (setup time excluded)
/// until the budget is spent, and prints the mean. Iterations are timed in
/// batches that double until one takes a millisecond, so the two clock
/// reads around a batch vanish even for a sub-microsecond routine.
fn bench<I, O>(name: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) {
    let (mut total, mut iters, mut batch) = (Duration::ZERO, 0u64, 1u64);
    while total < TARGET {
        let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            black_box(routine(input));
        }
        let elapsed = start.elapsed();
        total += elapsed;
        iters += batch;
        if elapsed < Duration::from_millis(1) {
            batch *= 2;
        }
    }
    println!(
        "bench {name}: {:>12.1} ns/iter ({iters} iters)",
        total.as_nanos() as f64 / iters as f64
    );
}

fn bench_parser() {
    bench(
        "parse_query",
        || (),
        |()| {
            parse_query(
                QueryId(1),
                black_box(
                    "select nodeid, light, temp where 100 < light < 900 and temp >= 0 \
                     epoch duration 4096",
                ),
            )
            .unwrap()
        },
    );
}

fn bench_integrate() {
    let a = parse_query(
        QueryId(1),
        "select light where 280<light<600 epoch duration 2048",
    )
    .unwrap();
    let b2 = parse_query(
        QueryId(2),
        "select light, temp where 100<light<300 epoch duration 4096",
    )
    .unwrap();
    bench(
        "integrate_pair",
        || (),
        |()| integrate(QueryId(100), black_box(&a), black_box(&b2)),
    );
}

fn fresh_optimizer() -> BaseStationOptimizer {
    let model = CostModel::new(
        4.0,
        0.2,
        LevelStats::from_counts([7, 20, 36]),
        SelectivityEstimator::uniform(),
    );
    BaseStationOptimizer::new(model, 0.6)
}

fn bench_optimizer_insert() {
    let events = random_workload(&RandomWorkloadParams {
        n_queries: 100,
        target_concurrency: 24.0,
        seed: 5,
        ..RandomWorkloadParams::default()
    });
    let queries: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.action {
            ttmqo_core::WorkloadAction::Pose(q) => Some(q.clone()),
            _ => None,
        })
        .collect();
    bench("optimizer_insert_100_random", fresh_optimizer, |mut opt| {
        for q in &queries {
            let _ = opt.insert(q.clone());
        }
        opt.synthetic_count()
    });
}

fn bench_simulation() {
    bench(
        "simulate_workload_a_16_nodes_24_epochs",
        || (),
        |()| {
            let config = ExperimentConfig {
                strategy: Strategy::TwoTier,
                grid_n: 4,
                duration: SimTime::from_ms(24 * 2048),
                ..ExperimentConfig::default()
            };
            run_experiment(&config, &workload_a())
                .metrics
                .tx_count_total()
        },
    );
}

fn main() {
    bench_parser();
    bench_integrate();
    bench_optimizer_insert();
    bench_simulation();
}
