//! Churn bench: streaming admission/departure throughput of the Tier-1
//! optimizer, with a regression-tracking JSON report (`BENCH_churn.json`).
//!
//! The bench replays a seeded arrival/departure schedule (the
//! [`churn_workload`] template process) straight into a
//! [`BaseStationOptimizer`] — no simulator, no radio — so wall-clock time
//! is admission time. Every scenario runs twice, once with the candidate
//! index and once in `exhaustive` reference mode, and the report carries
//! both records plus the indexed record's `speedup_vs_exhaustive`. The
//! decision counters (`admitted`, `final_synthetics`, `scanned`, `pruned`)
//! are deterministic per seed and gate exactly in the report diff; only the
//! throughput/latency fields are timing.

use std::time::Instant;
use ttmqo_core::{BaseStationOptimizer, CostModel, OptimizerOptions, WorkloadAction};
use ttmqo_sim::json;
use ttmqo_stats::{Histogram, LevelStats, SelectivityEstimator};
use ttmqo_workloads::{churn_workload, ChurnWorkloadParams};

/// One churn-bench scenario.
#[derive(Debug, Clone)]
pub struct ChurnBenchParams {
    /// Scenario name carried into the report (without the `-indexed` /
    /// `-exhaustive` suffix).
    pub name: String,
    /// Total arrivals (each also departs).
    pub n_queries: usize,
    /// Template-menu size: small menus churn near-identical queries (most
    /// arrivals absorb), large menus keep the synthetic set big and make
    /// candidate scanning the bottleneck.
    pub n_templates: usize,
    /// Steady-state live query count (Little's law).
    pub target_concurrency: f64,
    /// Fraction of aggregation templates. Acquisitions merge aggressively
    /// (a broad acquisition covers almost anything epoch-compatible), so
    /// mixed workloads collapse to a handful of synthetics; aggregation
    /// templates with distinct predicate sets each keep their own synthetic
    /// and are what pushes the running set to ≥ 1k.
    pub aggregation_fraction: f64,
    /// Admit arrivals in batches of this size via `insert_batch` (≤ 1 =
    /// one `insert` per arrival). Departures flush a pending batch first,
    /// so the admission order stays faithful to the schedule.
    pub batch: usize,
    /// Score every synthetic on admission (the reference linear scan)
    /// instead of the candidate index.
    pub exhaustive: bool,
    /// Workload seed.
    pub seed: u64,
}

impl ChurnBenchParams {
    /// The default scenario set: a mid-size churn, a ≥ 1k-live churn where
    /// the linear scan hurts, and the 1k churn admitted in batches.
    pub fn default_scenarios(smoke: bool) -> Vec<ChurnBenchParams> {
        let base = |name: &str, n_queries, n_templates, target, agg, batch| ChurnBenchParams {
            name: name.to_string(),
            n_queries,
            n_templates,
            target_concurrency: target,
            aggregation_fraction: agg,
            batch,
            exhaustive: false,
            seed: 0xC0FFEE,
        };
        if smoke {
            vec![
                base("churn-64", 400, 128, 64.0, 0.3, 0),
                base("churn-64-agg", 400, 512, 64.0, 1.0, 0),
                base("churn-64-agg-batch16", 400, 512, 64.0, 1.0, 16),
            ]
        } else {
            vec![
                base("churn-256", 3_000, 1_024, 256.0, 0.3, 0),
                base("churn-1k-agg", 8_000, 8_192, 1_000.0, 1.0, 0),
                base("churn-1k-agg-batch64", 8_000, 8_192, 1_000.0, 1.0, 64),
            ]
        }
    }
}

/// Measured results of one churn run (one mode of one scenario).
#[derive(Debug, Clone)]
pub struct ChurnBenchResult {
    /// Scenario name with the `-indexed` / `-exhaustive` mode suffix.
    pub name: String,
    /// Total arrivals admitted.
    pub admitted: u64,
    /// Departures processed.
    pub departed: u64,
    /// Peak concurrently live user queries.
    pub peak_live: u64,
    /// Peak concurrently running synthetic queries.
    pub peak_synthetics: u64,
    /// Live user queries when the schedule ended.
    pub final_users: u64,
    /// Running synthetic queries when the schedule ended.
    pub final_synthetics: u64,
    /// Candidate evaluations performed (deterministic).
    pub scanned: u64,
    /// Candidates the index pruned (deterministic; 0 when exhaustive).
    pub pruned: u64,
    /// Wall-clock spent admitting (inserts only), seconds.
    pub admit_wall_s: f64,
    /// Wall-clock of the whole replay (inserts + departures), seconds.
    pub wall_s: f64,
    /// Arrivals admitted per second of admission wall-clock.
    pub admitted_per_sec: f64,
    /// Median per-arrival admission latency, µs.
    pub admit_p50_us: f64,
    /// 99th-percentile per-arrival admission latency, µs.
    pub admit_p99_us: f64,
    /// Worst per-arrival admission latency, µs.
    pub admit_max_us: f64,
    /// Indexed admission wall vs the exhaustive twin (filled by
    /// [`churn_pair`]; 0 on exhaustive records).
    pub speedup_vs_exhaustive: f64,
    /// Admission-latency histogram (µs), for display.
    pub latency_hist: Histogram,
}

/// Builds the bench's base-station cost model: the paper's radio constants
/// over a mid-size tree. No node positions — the churn templates carry no
/// regions, and pure admission throughput should not depend on a topology.
fn bench_optimizer(exhaustive: bool) -> BaseStationOptimizer {
    let model = CostModel::new(
        4.0,
        0.2,
        LevelStats::from_counts([8, 16, 24, 16]),
        SelectivityEstimator::uniform(),
    );
    BaseStationOptimizer::with_options(
        model,
        OptimizerOptions {
            exhaustive,
            ..OptimizerOptions::default()
        },
    )
}

/// Replays one churn schedule through the optimizer and measures it.
pub fn churn_bench(params: &ChurnBenchParams) -> ChurnBenchResult {
    let events = churn_workload(&ChurnWorkloadParams {
        n_queries: params.n_queries,
        n_templates: params.n_templates,
        target_concurrency: params.target_concurrency,
        aggregation_fraction: params.aggregation_fraction,
        seed: params.seed,
        ..ChurnWorkloadParams::default()
    });
    let mut opt = bench_optimizer(params.exhaustive);
    let batch_size = params.batch.max(1);
    let mut pending = Vec::with_capacity(batch_size);
    let mut latencies_us: Vec<f64> = Vec::with_capacity(params.n_queries);
    let mut admit_wall_s = 0.0f64;
    let mut departed = 0u64;
    let mut peak_live = 0u64;
    let mut peak_synthetics = 0u64;

    let flush = |opt: &mut BaseStationOptimizer, pending: &mut Vec<ttmqo_query::Query>| {
        if pending.is_empty() {
            return (0.0, 0usize);
        }
        let n = pending.len();
        let start = Instant::now();
        if n == 1 {
            opt.insert(pending.pop().expect("non-empty"))
                .expect("fresh id");
        } else {
            opt.insert_batch(std::mem::take(pending))
                .expect("fresh ids");
        }
        (start.elapsed().as_secs_f64(), n)
    };

    let whole = Instant::now();
    for event in events {
        match event.action {
            WorkloadAction::Pose(query) => {
                pending.push(query);
                if pending.len() >= batch_size {
                    let (wall, n) = flush(&mut opt, &mut pending);
                    admit_wall_s += wall;
                    latencies_us.extend(std::iter::repeat_n(wall * 1e6 / n as f64, n));
                }
            }
            WorkloadAction::Terminate(qid) => {
                let (wall, n) = flush(&mut opt, &mut pending);
                admit_wall_s += wall;
                latencies_us.extend(std::iter::repeat_n(wall * 1e6 / n as f64, n));
                opt.remove(qid);
                departed += 1;
            }
        }
        peak_live = peak_live.max(opt.user_count() as u64);
        peak_synthetics = peak_synthetics.max(opt.synthetic_count() as u64);
    }
    let (wall, n) = flush(&mut opt, &mut pending);
    admit_wall_s += wall;
    latencies_us.extend(std::iter::repeat_n(wall * 1e6 / n as f64, n));
    let wall_s = whole.elapsed().as_secs_f64();

    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let quantile = |q: f64| -> f64 {
        if latencies_us.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_us.len() - 1) as f64 * q).round() as usize;
        latencies_us[idx]
    };
    let admit_max_us = latencies_us.last().copied().unwrap_or(0.0);
    let mut latency_hist =
        Histogram::new(0.0, (admit_max_us * 1.001).max(1.0), 32).expect("valid bounds");
    for v in &latencies_us {
        latency_hist.add(*v);
    }

    let stats = opt.index_stats();
    let mode = if params.exhaustive {
        "exhaustive"
    } else {
        "indexed"
    };
    ChurnBenchResult {
        name: format!("{}-{}", params.name, mode),
        admitted: opt.stats().inserted,
        departed,
        peak_live,
        peak_synthetics,
        final_users: opt.user_count() as u64,
        final_synthetics: opt.synthetic_count() as u64,
        scanned: stats.scanned,
        pruned: stats.pruned,
        admit_wall_s,
        wall_s,
        admitted_per_sec: opt.stats().inserted as f64 / admit_wall_s.max(1e-9),
        admit_p50_us: quantile(0.5),
        admit_p99_us: quantile(0.99),
        admit_max_us,
        speedup_vs_exhaustive: 0.0,
        latency_hist,
    }
}

/// Runs a scenario in both modes and fills the indexed record's
/// `speedup_vs_exhaustive` (exhaustive admission wall / indexed admission
/// wall). Returns `(indexed, exhaustive)`.
pub fn churn_pair(params: &ChurnBenchParams) -> (ChurnBenchResult, ChurnBenchResult) {
    let mut indexed = churn_bench(&ChurnBenchParams {
        exhaustive: false,
        ..params.clone()
    });
    let exhaustive = churn_bench(&ChurnBenchParams {
        exhaustive: true,
        ..params.clone()
    });
    indexed.speedup_vs_exhaustive = exhaustive.admit_wall_s / indexed.admit_wall_s.max(1e-9);
    (indexed, exhaustive)
}

impl ChurnBenchResult {
    /// One JSON object (one line of `BENCH_churn.json`).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.u64("schema_version", ttmqo_sim::SCHEMA_VERSION as u64);
            o.str("name", &self.name);
            o.u64("admitted", self.admitted);
            o.u64("departed", self.departed);
            o.u64("peak_live", self.peak_live);
            o.u64("peak_synthetics", self.peak_synthetics);
            o.u64("final_users", self.final_users);
            o.u64("final_synthetics", self.final_synthetics);
            o.u64("scanned", self.scanned);
            o.u64("pruned", self.pruned);
            o.fixed("wall_s", self.wall_s, 6);
            o.fixed("admitted_per_sec", self.admitted_per_sec, 1);
            o.fixed("admit_p50_us", self.admit_p50_us, 2);
            o.fixed("admit_p99_us", self.admit_p99_us, 2);
            o.fixed("admit_max_us", self.admit_max_us, 2);
            o.fixed("speedup_vs_exhaustive", self.speedup_vs_exhaustive, 3);
        })
    }
}

/// Default file the churn bench writes its JSON-lines report to.
pub const CHURN_REPORT_FILE: &str = "BENCH_churn.json";

/// Extracts `(name, admitted_per_sec)` pairs from a previous report.
pub fn parse_prior_churn_report(text: &str) -> Vec<(String, f64)> {
    crate::engine::prior_column(text, "admitted_per_sec")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(batch: usize, exhaustive: bool) -> ChurnBenchParams {
        ChurnBenchParams {
            name: "tiny".into(),
            n_queries: 150,
            n_templates: 48,
            target_concurrency: 24.0,
            aggregation_fraction: 0.5,
            batch,
            exhaustive,
            seed: 11,
        }
    }

    #[test]
    fn churn_replay_drains_and_counts() {
        let r = churn_bench(&tiny(0, false));
        assert_eq!(r.admitted, 150);
        assert_eq!(r.departed, 150);
        assert_eq!(r.final_users, 0, "every arrival departs");
        assert_eq!(r.final_synthetics, 0, "drained optimizer holds nothing");
        assert!(r.peak_live > 0 && r.peak_synthetics > 0);
        assert!(r.peak_live < 150, "churn must not accumulate arrivals");
        assert!(r.admitted_per_sec > 0.0);
        assert!(r.admit_p50_us <= r.admit_p99_us && r.admit_p99_us <= r.admit_max_us);
        assert_eq!(r.latency_hist.total(), 150);
    }

    #[test]
    fn decision_counters_are_deterministic_and_mode_invariant() {
        let a = churn_bench(&tiny(0, false));
        let b = churn_bench(&tiny(0, false));
        assert_eq!(a.scanned, b.scanned);
        assert_eq!(a.pruned, b.pruned);
        assert_eq!(a.peak_synthetics, b.peak_synthetics);

        // The index changes what is *scanned*, never what is decided.
        let ex = churn_bench(&tiny(0, true));
        assert_eq!(a.admitted, ex.admitted);
        assert_eq!(a.peak_synthetics, ex.peak_synthetics);
        assert_eq!(a.final_synthetics, ex.final_synthetics);
        assert_eq!(ex.pruned, 0);
        assert!(a.scanned <= ex.scanned);
    }

    #[test]
    fn batched_replay_matches_per_query_decisions() {
        let single = churn_bench(&tiny(0, false));
        let batched = churn_bench(&tiny(16, false));
        assert_eq!(batched.admitted, single.admitted);
        assert_eq!(batched.departed, single.departed);
        assert_eq!(batched.final_users, 0);
        assert_eq!(batched.final_synthetics, 0);
    }

    #[test]
    fn pair_fills_speedup_on_the_indexed_record() {
        let (indexed, exhaustive) = churn_pair(&tiny(0, false));
        assert!(indexed.name.ends_with("-indexed"));
        assert!(exhaustive.name.ends_with("-exhaustive"));
        assert!(indexed.speedup_vs_exhaustive > 0.0);
        assert_eq!(exhaustive.speedup_vs_exhaustive, 0.0);
    }

    #[test]
    fn report_round_trips_through_parser() {
        let r = churn_bench(&tiny(0, false));
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        let parsed = parse_prior_churn_report(&json);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "tiny-indexed");
        assert!((parsed[0].1 - r.admitted_per_sec).abs() / r.admitted_per_sec.max(1e-9) < 1e-3);
    }
}
