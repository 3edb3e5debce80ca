//! Checkpoint bench: snapshot size, save/restore latency and warm-started
//! campaign speedup, with a regression-tracking JSON report
//! (`BENCH_checkpoint.json`).
//!
//! Each scenario runs one experiment to a mid-run instant, measures
//! [`RunSession::checkpoint`] and [`RunSession::restore`] over several
//! iterations, verifies the resumed run's report is bit-identical to the
//! uninterrupted run's (`resume_matches` — an exact gate field, not a
//! timing), then times the same sweep cold versus warm-started
//! ([`CampaignSpec::warm_start`]) and records the wall-clock ratio as
//! `warmstart_speedup`. `snapshot_bytes` is deterministic per scenario;
//! `save_s`/`restore_s`/`warmstart_speedup` are timing fields under the
//! report diff's direction-aware thresholds.
//!
//! `CHECKPOINT_BENCH_SCALE=smoke` shrinks the grids and durations for CI.

use std::time::Instant;
use ttmqo_core::{
    run_campaign_sequential, CampaignSpec, CellRecord, ExperimentConfig, RunSession, Strategy,
    WorkloadAction, WorkloadEvent,
};
use ttmqo_sim::json;
use ttmqo_sim::SimTime;
use ttmqo_workloads::{workload_a, workload_b};

/// One checkpoint-bench scenario.
#[derive(Debug, Clone)]
pub struct CheckpointBenchParams {
    /// Scenario name carried into the report.
    pub name: String,
    /// Grid side (nodes = `grid_n²`).
    pub grid_n: usize,
    /// Run length in 2048 ms base epochs.
    pub duration_epochs: u64,
    /// Mid-run instant the checkpoint is taken at, in base epochs.
    pub checkpoint_epoch: u64,
    /// Warm-start sweep: both workloads run the common base queries from
    /// t = 0 and diverge at this epoch (one adds extra queries there), so
    /// the shared prefix the campaign checkpoints covers the *live* base
    /// workload over `[0, offset)`.
    pub warm_offset_epochs: u64,
    /// Save/restore timing iterations (the mean is reported).
    pub iters: usize,
}

impl CheckpointBenchParams {
    /// The default scenario set: the paper's 4×4 grid plus a big-grid cell.
    pub fn default_scenarios(smoke: bool) -> Vec<CheckpointBenchParams> {
        let base = |name: &str, grid_n, duration_epochs, checkpoint_epoch, warm_offset_epochs| {
            CheckpointBenchParams {
                name: name.to_string(),
                grid_n,
                duration_epochs,
                checkpoint_epoch,
                warm_offset_epochs,
                iters: if smoke { 3 } else { 10 },
            }
        };
        if smoke {
            vec![
                base("checkpoint-4x4", 4, 12, 6, 4),
                base("checkpoint-8x8", 8, 8, 4, 3),
            ]
        } else {
            vec![
                base("checkpoint-4x4", 4, 24, 12, 8),
                base("checkpoint-16x16", 16, 12, 6, 4),
                base("checkpoint-32x32", 32, 8, 4, 3),
            ]
        }
    }
}

/// Measured results of one checkpoint scenario.
#[derive(Debug, Clone)]
pub struct CheckpointBenchResult {
    /// Scenario name.
    pub name: String,
    /// Size of the mid-run snapshot document, bytes (deterministic).
    pub snapshot_bytes: u64,
    /// Mean wall-clock of one `checkpoint()` call, seconds.
    pub save_s: f64,
    /// Mean wall-clock of one `restore()` call, seconds.
    pub restore_s: f64,
    /// Whether the resumed run's report matched the uninterrupted run's
    /// debug rendering byte for byte (must always be `true`).
    pub resume_matches: bool,
    /// Cold sweep wall-clock, seconds.
    pub cold_wall_s: f64,
    /// Warm-started sweep wall-clock, seconds.
    pub warm_wall_s: f64,
    /// `cold_wall_s / warm_wall_s` (higher is better).
    pub warmstart_speedup: f64,
    /// Whether the warm sweep's records matched the cold sweep's after
    /// stripping the wall-clock field (must always be `true`).
    pub warm_matches: bool,
    /// Whole-scenario wall-clock, seconds.
    pub wall_s: f64,
}

/// Delays every event by `offset_ms` and renumbers its query ids by
/// `id_offset` (so the delayed queries can ride on top of a base workload
/// whose ids they would otherwise collide with).
fn shifted(events: Vec<WorkloadEvent>, offset_ms: u64, id_offset: u64) -> Vec<WorkloadEvent> {
    events
        .into_iter()
        .map(|e| match e.action {
            WorkloadAction::Pose(q) => WorkloadEvent::pose(
                e.at.as_ms() + offset_ms,
                q.with_id(ttmqo_query::QueryId(q.id().0 + id_offset)),
            ),
            WorkloadAction::Terminate(qid) => WorkloadEvent::terminate(
                e.at.as_ms() + offset_ms,
                ttmqo_query::QueryId(qid.0 + id_offset),
            ),
        })
        .collect()
}

/// Runs one checkpoint scenario and measures it.
pub fn checkpoint_bench(params: &CheckpointBenchParams) -> CheckpointBenchResult {
    const EPOCH_MS: u64 = 2048;
    let whole = Instant::now();
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: params.grid_n,
        duration: SimTime::from_ms(params.duration_epochs * EPOCH_MS),
        ..ExperimentConfig::default()
    };
    let workload = workload_a();
    let cut = SimTime::from_ms(params.checkpoint_epoch * EPOCH_MS);

    // Straight run (the oracle) and the prefix the snapshot is taken from.
    let straight = format!("{:?}", RunSession::new(&config, &workload).finish());
    let mut session = RunSession::new(&config, &workload);
    session.run_to(cut);

    let iters = params.iters.max(1);
    let mut bytes = Vec::new();
    let save_start = Instant::now();
    for _ in 0..iters {
        bytes = session.checkpoint();
    }
    let save_s = save_start.elapsed().as_secs_f64() / iters as f64;
    let snapshot_bytes = bytes.len() as u64;

    let mut restored = None;
    let restore_start = Instant::now();
    for _ in 0..iters {
        restored = Some(
            RunSession::restore(&bytes, &config, &workload)
                .expect("the bench's own checkpoint restores"),
        );
    }
    let restore_s = restore_start.elapsed().as_secs_f64() / iters as f64;
    let resumed = format!(
        "{:?}",
        restored
            .expect("at least one restore iteration ran")
            .finish()
    );
    let resume_matches = resumed == straight;

    // Warm-start sweep: every workload runs workload A's queries from
    // t = 0 and diverges at the offset epoch, where two of them pose
    // (differently renumbered) workload B queries on top. The campaign's
    // shared prefix is therefore the live base workload over `[0, offset)`
    // — the work warm start simulates once per group instead of per cell.
    let offset_ms = params.warm_offset_epochs * EPOCH_MS;
    let base_events = workload_a();
    let mut with_b = base_events.clone();
    with_b.extend(shifted(workload_b(), offset_ms, 100));
    let mut with_late_b = base_events.clone();
    with_late_b.extend(shifted(workload_b(), 2 * offset_ms, 200));
    let spec = CampaignSpec::new(config)
        .strategies([Strategy::TwoTier])
        .grid_sizes([params.grid_n])
        .workload("base", base_events)
        .workload("base+b", with_b)
        .workload("base+late-b", with_late_b);
    let cold_start = Instant::now();
    let cold = run_campaign_sequential(&spec);
    let cold_wall_s = cold_start.elapsed().as_secs_f64();
    let warm_spec = spec.warm_start();
    let warm_start = Instant::now();
    let warm = run_campaign_sequential(&warm_spec);
    let warm_wall_s = warm_start.elapsed().as_secs_f64();
    // Records compared exactly, less the (non-deterministic) wall clock.
    let sans_wall_clock = |cell: &CellRecord| {
        CellRecord {
            wall_clock_ms: 0.0,
            ..cell.clone()
        }
        .to_json()
    };
    let warm_matches = cold.cells.len() == warm.cells.len()
        && cold
            .cells
            .iter()
            .zip(&warm.cells)
            .all(|(c, w)| sans_wall_clock(c) == sans_wall_clock(w));

    CheckpointBenchResult {
        name: params.name.clone(),
        snapshot_bytes,
        save_s,
        restore_s,
        resume_matches,
        cold_wall_s,
        warm_wall_s,
        warmstart_speedup: cold_wall_s / warm_wall_s.max(1e-9),
        warm_matches,
        wall_s: whole.elapsed().as_secs_f64(),
    }
}

impl CheckpointBenchResult {
    /// One JSON object (one line of `BENCH_checkpoint.json`).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.u64("schema_version", ttmqo_sim::SCHEMA_VERSION as u64);
            o.str("name", &self.name);
            o.u64("snapshot_bytes", self.snapshot_bytes);
            o.fixed("save_s", self.save_s, 6);
            o.fixed("restore_s", self.restore_s, 6);
            o.bool("resume_matches", self.resume_matches);
            o.fixed("cold_wall_s", self.cold_wall_s, 6);
            o.fixed("warm_wall_s", self.warm_wall_s, 6);
            o.fixed("warmstart_speedup", self.warmstart_speedup, 3);
            o.bool("warm_matches", self.warm_matches);
            o.fixed("wall_s", self.wall_s, 6);
        })
    }
}

/// Default file the checkpoint bench writes its JSON-lines report to.
pub const CHECKPOINT_REPORT_FILE: &str = "BENCH_checkpoint.json";

/// Extracts `(name, save_s)` pairs from a previous report.
pub fn parse_prior_checkpoint_report(text: &str) -> Vec<(String, f64)> {
    crate::engine::prior_column(text, "save_s")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CheckpointBenchParams {
        CheckpointBenchParams {
            name: "tiny".into(),
            grid_n: 3,
            duration_epochs: 8,
            checkpoint_epoch: 4,
            warm_offset_epochs: 2,
            iters: 1,
        }
    }

    #[test]
    fn bench_verifies_bit_identity_and_measures() {
        let r = checkpoint_bench(&tiny());
        assert!(r.resume_matches, "resume must be bit-identical");
        assert!(r.warm_matches, "warm-started sweep must be bit-identical");
        assert!(r.snapshot_bytes > 0);
        assert!(r.save_s >= 0.0 && r.restore_s >= 0.0);
        assert!(r.warmstart_speedup > 0.0);
    }

    #[test]
    fn report_round_trips_through_parser() {
        let r = checkpoint_bench(&tiny());
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"resume_matches\":true"));
        let parsed = parse_prior_checkpoint_report(&json);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "tiny");
    }
}
