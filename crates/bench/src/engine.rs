//! Engine microbenchmark: the transmit/deliver hot path, with an exact JSON
//! report (`BENCH_engine.json`).
//!
//! Every figure in the paper is replayed through `Simulator`'s
//! transmit/deliver loop thousands of epochs per campaign cell, so that loop
//! gates how many cells a campaign can sweep. This module isolates it: a
//! deliberately trivial [`NodeApp`] (periodic broadcast + unicast to an
//! upper neighbour, payloads with real heap content) drives the engine with
//! almost no application logic, so wall-clock time is engine time. The
//! report holds only what the simulation decides — events, frames,
//! deliveries and the engine's frame-slab counters (the high-water mark is
//! the peak number of in-flight frames and serves as the run's peak-memory
//! proxy; the slab recycles slots, so it must stay flat as simulated time
//! grows) — so two runs write the same bytes. Host time is measured and
//! printed by the bench, never written.

use std::time::Instant;
use ttmqo_core::{run_experiment, ExperimentConfig, Strategy};
use ttmqo_sim::json;
use ttmqo_sim::{
    ConstantField, Ctx, Destination, EngineStats, MsgKind, NodeApp, NodeId, Observe, RadioParams,
    SimConfig, SimTime, Simulator, Topology,
};
use ttmqo_workloads::workload_a;

/// One engine-bench scenario: a grid flooded with periodic traffic.
#[derive(Debug, Clone)]
pub struct EngineBenchParams {
    /// Scenario name carried into the report.
    pub name: String,
    /// Grid side (nodes = `grid_n²`).
    pub grid_n: usize,
    /// Simulated duration, ms.
    pub duration_ms: u64,
    /// Per-node broadcast period, ms.
    pub interval_ms: u64,
    /// Payload length in `u64` words — real heap content, so the cost of
    /// cloning payloads per receiver (what `Arc` sharing eliminates) shows.
    pub payload_words: usize,
    /// Whether the CSMA/collision model runs (the paper's default).
    pub collisions: bool,
    /// Engine seed.
    pub seed: u64,
}

impl EngineBenchParams {
    /// The default scenario set: both grids of the paper with collisions on,
    /// a collision-free variant isolating the delivery path, and the
    /// big-grid ladder (16×16 / 32×32 / 64×64) exercising the event queue
    /// and topology build at thousand-node scale.
    ///
    /// The offered load is kept below channel capacity (two 64-byte frames
    /// per 500 ms is ~7% airtime per node at the paper's radio speed, well
    /// under the medium's share even for an interior node hearing eight
    /// neighbours). A saturated scenario would grow the transmit backlog —
    /// and with it the in-flight frame population — linearly with simulated
    /// time, measuring queue growth rather than engine speed and defeating
    /// the slab's flat-footprint property.
    ///
    /// `duration_ms` is the simulated duration of the small (paper-scale)
    /// rows; the big-grid rows shrink it so every row processes a
    /// comparable event count (events scale linearly with nodes at fixed
    /// local density).
    pub fn default_scenarios(duration_ms: u64) -> Vec<EngineBenchParams> {
        let base = |name: &str, grid_n, collisions, duration_ms| EngineBenchParams {
            name: name.to_string(),
            grid_n,
            duration_ms,
            interval_ms: 500,
            payload_words: 8,
            collisions,
            seed: 0xE161E,
        };
        vec![
            base("flood-4x4-csma", 4, true, duration_ms),
            base("flood-8x8-csma", 8, true, duration_ms),
            base("flood-8x8-lossless", 8, false, duration_ms),
            base("flood-16x16-csma", 16, true, duration_ms / 5),
            base("flood-32x32-csma", 32, true, duration_ms / 10),
            base("flood-64x64-csma", 64, true, duration_ms / 20),
        ]
    }
}

/// One end-to-end row of the engine bench: the full stack (Tier-1
/// optimizer, in-network tier or TinyDB app, runner) on a big grid, so the
/// report tracks how the engine scales under real protocol traffic — SRT
/// floods, epoch-synchronized results, maintenance beacons — not just
/// synthetic flood load.
#[derive(Debug, Clone)]
pub struct TwoTierBenchParams {
    /// Scenario name carried into the report.
    pub name: String,
    /// What runs on the grid: the two-tier scheme for the ladder, the
    /// TinyDB baseline for the backlog row.
    pub strategy: Strategy,
    /// Grid side (nodes = `grid_n²`).
    pub grid_n: usize,
    /// Simulated duration, ms.
    pub duration_ms: u64,
}

impl TwoTierBenchParams {
    /// The big-grid two-tier ladder, then the one row with a deep CSMA
    /// backlog. `duration_ms` is the 16×16 row's simulated duration; larger
    /// grids shrink it like the flood rows do.
    ///
    /// The flood and two-tier rows keep the pending-event population near
    /// the node count. `baseline-32x32` — every user query of Workload A
    /// run unshared under TinyDB — offers more than the channel carries, so
    /// frames queue behind carrier sense and the backlog grows with the run
    /// (slab high water 16,398 after 16 base epochs, 72,158 after 64). That
    /// is the shape that tells an event queue that holds up under backlog
    /// from one that does not. It is not shrunk: the backlog needs the
    /// epochs.
    pub fn default_scenarios(duration_ms: u64) -> Vec<TwoTierBenchParams> {
        let base = |name: &str, strategy, grid_n, duration_ms| TwoTierBenchParams {
            name: name.to_string(),
            strategy,
            grid_n,
            duration_ms,
        };
        vec![
            base("twotier-16x16", Strategy::TwoTier, 16, duration_ms),
            base("twotier-32x32", Strategy::TwoTier, 32, duration_ms / 2),
            base("twotier-64x64", Strategy::TwoTier, 64, duration_ms / 4),
            base("baseline-32x32", Strategy::Baseline, 32, duration_ms),
        ]
    }
}

/// Measured results of one scenario.
#[derive(Debug, Clone)]
pub struct EngineBenchResult {
    /// Scenario name.
    pub name: String,
    /// Grid side.
    pub grid_n: usize,
    /// Simulated duration, ms.
    pub duration_ms: u64,
    /// Host wall-clock of the run, seconds (excludes the topology build).
    /// Printed by the bench, not written to the report.
    pub wall_s: f64,
    /// Host wall-clock of the topology build (neighbour lists + BFS levels)
    /// for this scenario's grid, seconds. Printed, not written.
    pub topo_build_s: f64,
    /// Engine events processed (transmit deliveries, timers, commands).
    pub events: u64,
    /// Frames put on the air.
    pub tx_frames: u64,
    /// Frames handed to apps (`on_message` + `on_overhear`).
    pub delivered: u64,
    /// Engine slab/event counters at the end of the run.
    pub stats: EngineStats,
    /// Standing-auditor violation count of an end-to-end row (the flood
    /// rows run no auditor).
    pub audit_violations: Option<u64>,
}

/// The trivial traffic generator: every `interval_ms` each node broadcasts
/// one frame and unicasts one to an upper neighbour (toward the base
/// station), with heap-backed payloads. All logic beyond counting is in the
/// engine.
#[derive(Debug)]
struct FloodApp {
    template: Vec<u64>,
    interval_ms: u64,
    parent: Option<NodeId>,
    delivered: u64,
}

impl NodeApp for FloodApp {
    type Payload = Vec<u64>;
    type Command = ();
    type Output = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Vec<u64>, ()>) {
        self.parent = ctx.topology().default_parent(ctx.node());
        // Deterministic phase stagger so the whole grid doesn't transmit in
        // the same microsecond.
        let phase = 1 + ctx.rand_u64() % self.interval_ms;
        ctx.set_timer(phase, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u64>, ()>, _key: u64) {
        let bytes = self.template.len() * 8;
        ctx.send(
            Destination::Broadcast,
            MsgKind::Maintenance,
            bytes,
            self.template.clone(),
        );
        if let Some(parent) = self.parent {
            ctx.send(
                Destination::Unicast(parent),
                MsgKind::Result,
                bytes,
                self.template.clone(),
            );
        }
        ctx.set_timer(self.interval_ms, 0);
    }

    fn on_message(&mut self, _: &mut Ctx<'_, Vec<u64>, ()>, _: NodeId, _: MsgKind, p: &Vec<u64>) {
        self.delivered += 1;
        std::hint::black_box(p.first().copied());
    }

    fn on_command(&mut self, _: &mut Ctx<'_, Vec<u64>, ()>, _cmd: ()) {}

    fn on_overhear(&mut self, _: &mut Ctx<'_, Vec<u64>, ()>, _: NodeId, _: MsgKind, p: &Vec<u64>) {
        self.delivered += 1;
        std::hint::black_box(p.first().copied());
    }
}

/// Runs one scenario and measures it.
pub fn engine_microbench(params: &EngineBenchParams) -> EngineBenchResult {
    let topo_start = Instant::now();
    let topo = Topology::grid(params.grid_n).expect("valid bench grid");
    let topo_build_s = topo_start.elapsed().as_secs_f64();
    let radio = RadioParams {
        collisions: params.collisions,
        ..RadioParams::default()
    };
    let config = SimConfig {
        seed: params.seed,
        // The flood app is the traffic source; no engine beacons on top.
        maintenance_interval_ms: None,
        ..SimConfig::default()
    };
    let template: Vec<u64> = (0..params.payload_words as u64).collect();
    let interval_ms = params.interval_ms;
    let mut sim: Simulator<FloodApp> =
        Simulator::new(topo, radio, config, Box::new(ConstantField), move |_, _| {
            FloodApp {
                template: template.clone(),
                interval_ms,
                parent: None,
                delivered: 0,
            }
        });
    let start = Instant::now();
    sim.run_until(SimTime::from_ms(params.duration_ms));
    let wall_s = start.elapsed().as_secs_f64();

    let delivered: u64 = (0..params.grid_n * params.grid_n)
        .map(|i| sim.node(NodeId(i as u16)).delivered)
        .sum();
    let stats = sim.engine_stats();
    let events = stats.events_processed;
    EngineBenchResult {
        name: params.name.clone(),
        grid_n: params.grid_n,
        duration_ms: params.duration_ms,
        wall_s,
        topo_build_s,
        events,
        tx_frames: sim.metrics().tx_count_total(),
        delivered,
        stats,
        audit_violations: None,
    }
}

/// Runs one end-to-end scenario (Workload A through the full stack under
/// `params.strategy`) and measures it with the same report shape as the
/// flood rows.
/// `delivered` counts result rows delivered at the base station. The
/// standing invariant auditor is always armed: it is end-of-run arithmetic
/// that moves no counter, and the row carries its violation count.
pub fn twotier_bench(params: &TwoTierBenchParams) -> EngineBenchResult {
    let topo_start = Instant::now();
    let topo = Topology::grid(params.grid_n).expect("valid bench grid");
    let topo_build_s = topo_start.elapsed().as_secs_f64();
    let config = ExperimentConfig {
        strategy: params.strategy,
        grid_n: params.grid_n,
        duration: SimTime::from_ms(params.duration_ms),
        topology_override: Some(topo),
        observe: Observe {
            audit: true,
            ..Observe::default()
        },
        ..ExperimentConfig::default()
    };
    let start = Instant::now();
    let report = run_experiment(&config, &workload_a());
    let wall_s = start.elapsed().as_secs_f64();

    let delivered: u64 = report
        .completeness
        .per_query
        .values()
        .map(|qc| qc.delivered_rows)
        .sum();
    let events = report.engine.events_processed;
    EngineBenchResult {
        name: params.name.clone(),
        grid_n: params.grid_n,
        duration_ms: params.duration_ms,
        wall_s,
        topo_build_s,
        events,
        tx_frames: report.metrics.tx_count_total(),
        delivered,
        stats: report.engine,
        audit_violations: report
            .audit
            .as_ref()
            .map(|audit| audit.violations.len() as u64),
    }
}

impl EngineBenchResult {
    /// One JSON object (one line of `BENCH_engine.json`): exact counters
    /// only, so a deterministic run renders the same bytes.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        json::object(|o| {
            o.u64("schema_version", ttmqo_sim::SCHEMA_VERSION as u64);
            o.str("name", &self.name);
            o.u64("grid_n", self.grid_n as u64);
            o.u64("duration_ms", self.duration_ms);
            o.u64("events", self.events);
            o.u64("tx_frames", self.tx_frames);
            o.u64("delivered", self.delivered);
            o.u64("frames_total", s.frames_total);
            o.u64("slab_len", s.frame_slab_len as u64);
            o.u64("slab_high_water", s.frame_slab_high_water as u64);
            o.u64("frames_in_flight", s.frames_in_flight as u64);
            o.u64("csma_capped_deferrals", s.csma_capped_deferrals);
            if let Some(violations) = self.audit_violations {
                o.u64("audit_violations", violations);
            }
        })
    }
}

/// Default file the engine bench writes its JSON-lines report to.
pub const ENGINE_REPORT_FILE: &str = "BENCH_engine.json";

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EngineBenchParams {
        // Sub-saturated like the default scenarios: ~9% airtime per node, so
        // the in-flight population is set by traffic density, not run length.
        EngineBenchParams {
            name: "tiny".into(),
            grid_n: 3,
            duration_ms: 20_000,
            interval_ms: 400,
            payload_words: 8,
            collisions: true,
            seed: 7,
        }
    }

    #[test]
    fn microbench_counts_events_and_bounds_slab() {
        let r = engine_microbench(&tiny());
        assert!(r.events > 0 && r.tx_frames > 0 && r.delivered > 0);
        assert!(r.stats.frames_total >= r.tx_frames);
        // The slab recycles: its footprint is in-flight frames, an order of
        // magnitude (and asymptotically unboundedly) below total
        // transmissions.
        assert!((r.stats.frame_slab_high_water as u64) * 10 < r.stats.frames_total);
        // Only frames still on the air at the horizon occupy slots.
        assert!(r.stats.frames_in_flight <= r.stats.frame_slab_high_water);
    }

    #[test]
    fn slab_high_water_is_flat_in_simulated_time() {
        // The acceptance criterion of the slab rewrite: 10× more simulated
        // time must not grow the peak in-flight footprint (it is set by
        // traffic density, not run length).
        let short = engine_microbench(&tiny());
        let long = engine_microbench(&EngineBenchParams {
            duration_ms: 200_000,
            ..tiny()
        });
        assert!(long.stats.frames_total > 5 * short.stats.frames_total);
        assert!(
            long.stats.frame_slab_high_water <= short.stats.frame_slab_high_water * 2,
            "slab high-water must stay flat: {} (short) vs {} (10× longer)",
            short.stats.frame_slab_high_water,
            long.stats.frame_slab_high_water,
        );
    }

    #[test]
    fn report_is_byte_identical_across_runs() {
        let json = engine_microbench(&tiny()).to_json();
        assert_eq!(json, engine_microbench(&tiny()).to_json());
        assert!(json::parse(&json).is_ok());
    }
}
