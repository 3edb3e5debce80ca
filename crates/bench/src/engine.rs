//! Engine microbenchmark: the transmit/deliver hot path on synthetic
//! floods (`flood.jsonl`), plus four end-to-end rows run as campaign cells
//! (`engine.jsonl`).
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
//!
//! The end-to-end rows ([`engine_campaigns`]) run the full stack instead, so
//! the engine is also tracked under real protocol traffic. They are
//! experiments, not engine drivers, so their report is their
//! [`CellRecord`](ttmqo_core::CellRecord)s.

use std::time::Instant;
use ttmqo_core::{CampaignSpec, ExperimentConfig, Strategy};
use ttmqo_query::BASE_EPOCH_MS;
use ttmqo_sim::json;
use ttmqo_sim::{
    ConstantField, Ctx, Destination, EngineStats, MsgKind, NodeApp, NodeId, RadioParams, SimConfig,
    SimTime, Simulator, Topology,
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
    /// Whether the CSMA/collision model runs (the paper's default).
    pub collisions: bool,
}

/// Per-node broadcast period of every flood scenario, ms.
const FLOOD_INTERVAL_MS: u64 = 500;

/// Flood payload length in `u64` words — real heap content, so the cost of
/// cloning payloads per receiver (what `Arc` sharing eliminates) shows.
const FLOOD_PAYLOAD_WORDS: usize = 8;

/// Engine seed of every flood scenario.
const FLOOD_SEED: u64 = 0xE161E;

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
    /// The small (paper-scale) rows run ten simulated minutes; the big-grid
    /// rows shrink that so every row processes a comparable event count
    /// (events scale linearly with nodes at fixed local density).
    pub fn default_scenarios() -> Vec<EngineBenchParams> {
        let duration_ms = 600_000;
        let base = |name: &str, grid_n, collisions, duration_ms| EngineBenchParams {
            name: name.to_string(),
            grid_n,
            duration_ms,
            collisions,
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

/// The engine bench's end-to-end rows: Workload A through the full stack
/// (Tier-1 optimizer, in-network tier or TinyDB app, runner), each an
/// audited one-cell campaign. The 16×16 row runs 64 base epochs, so every
/// row sees complete result rounds; larger grids shrink it like the flood
/// rows do.
///
/// The big-grid two-tier ladder comes first, then the one row with a deep
/// CSMA backlog. The flood and two-tier rows keep the pending-event
/// population near the node count. `baseline-32x32` — every user query of
/// Workload A run unshared under TinyDB — offers more than the channel
/// carries, so frames queue behind carrier sense and the backlog grows with
/// the run (slab high water 16,398 after 16 base epochs, 72,099 after 64).
/// That is the shape that tells an event queue that holds up under backlog
/// from one that does not. It is not shrunk: the backlog needs the epochs.
pub fn engine_campaigns() -> [CampaignSpec; 4] {
    let duration_ms = 64 * BASE_EPOCH_MS;
    let cell = |strategy, grid_n, duration_ms| {
        let base = ExperimentConfig {
            duration: SimTime::from_ms(duration_ms),
            ..ExperimentConfig::default()
        };
        CampaignSpec::new(base)
            .strategies([strategy])
            .grid_sizes([grid_n])
            .workload("A", workload_a())
            .audit()
    };
    [
        cell(Strategy::TwoTier, 16, duration_ms),
        cell(Strategy::TwoTier, 32, duration_ms / 2),
        cell(Strategy::TwoTier, 64, duration_ms / 4),
        cell(Strategy::Baseline, 32, duration_ms),
    ]
}

/// Measured results of one flood scenario.
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
    /// Frames handed to apps (`on_message` + `on_overhear`).
    pub delivered: u64,
    /// Engine counters at the end of the run: events, frames put on the
    /// air, slab occupancy.
    pub stats: EngineStats,
}

/// The trivial traffic generator: every [`FLOOD_INTERVAL_MS`] each node broadcasts
/// one frame and unicasts one to an upper neighbour (toward the base
/// station), with heap-backed payloads. All logic beyond counting is in the
/// engine.
#[derive(Debug)]
struct FloodApp {
    template: Vec<u64>,
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
        let phase = 1 + ctx.rand_u64() % FLOOD_INTERVAL_MS;
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
        ctx.set_timer(FLOOD_INTERVAL_MS, 0);
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
    let topo = Topology::grid(params.grid_n).expect("valid bench grid");
    let radio = RadioParams {
        collisions: params.collisions,
        ..RadioParams::default()
    };
    let config = SimConfig {
        seed: FLOOD_SEED,
        // The flood app is the traffic source; no engine beacons on top.
        maintenance_interval_ms: None,
    };
    let template: Vec<u64> = (0..FLOOD_PAYLOAD_WORDS as u64).collect();
    let mut sim: Simulator<FloodApp> =
        Simulator::new(topo, radio, config, Box::new(ConstantField), move |_, _| {
            FloodApp {
                template: template.clone(),
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
    EngineBenchResult {
        name: params.name.clone(),
        grid_n: params.grid_n,
        duration_ms: params.duration_ms,
        wall_s,
        delivered,
        stats: sim.engine_stats(),
    }
}

impl EngineBenchResult {
    /// One JSON object (one line of `flood.jsonl`): exact counters
    /// only, so a deterministic run renders the same bytes.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        json::object(|o| {
            o.u64("schema_version", ttmqo_sim::SCHEMA_VERSION as u64);
            o.str("name", &self.name);
            o.u64("grid_n", self.grid_n as u64);
            o.u64("duration_ms", self.duration_ms);
            o.u64("events", s.events_processed);
            o.u64("tx_frames", s.frames_total);
            o.u64("delivered", self.delivered);
            o.u64("slab_high_water", s.frame_slab_high_water as u64);
            o.u64("frames_in_flight", s.frames_in_flight as u64);
            o.u64("csma_capped_deferrals", s.csma_capped_deferrals);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EngineBenchParams {
        // Sub-saturated like the default scenarios, so the in-flight
        // population is set by traffic density, not run length.
        EngineBenchParams {
            name: "tiny".into(),
            grid_n: 3,
            duration_ms: 20_000,
            collisions: true,
        }
    }

    #[test]
    fn microbench_counts_events_and_bounds_slab() {
        let r = engine_microbench(&tiny());
        assert!(r.stats.events_processed > 0 && r.stats.frames_total > 0 && r.delivered > 0);
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
