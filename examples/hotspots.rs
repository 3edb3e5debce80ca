//! Hotspot & imbalance analysis: where does the transmission load actually
//! land on the grid, and does two-tier sharing flatten it?
//!
//! Runs Workload A on the paper's 8×8 grid under both strategies with a
//! trace sink that buckets each `frame-tx` record's airtime by source node
//! and base epoch, then prints a per-node tx-busy heat table laid out by
//! grid position (node `i` sits at row `i / n`, column `i % n`; the base
//! station is node 0 at the origin corner), followed by the run-level
//! imbalance statistics: Gini coefficient and max/mean ratio over per-node
//! tx-busy totals, the worst single-epoch Gini, and the energy totals. The
//! output is checked in as `bench/results/hotspots.txt`, which CI diffs
//! against a fresh run; EXPERIMENTS.md §"Hotspots & imbalance" quotes it.
//!
//! Run with: `cargo run --release --example hotspots`

use std::sync::{Arc, Mutex};
use ttmqo::core::{run_experiment, ExperimentConfig, RunReport, Strategy};
use ttmqo::query::BASE_EPOCH_MS;
use ttmqo::sim::{
    gini, max_mean_ratio, Observe, SimTime, TraceEvent, TraceHandle, TraceRecord, TraceSink,
};
use ttmqo::workloads::workload_a;

const GRID_N: usize = 8;
const EPOCHS: u64 = 24;

/// Per-node transmit airtime (ms) per base epoch, read off the trace's
/// `frame-tx` records in the order the engine emits them.
struct Airtime {
    epochs: Vec<Vec<f64>>,
}

impl TraceSink for Airtime {
    fn record(&mut self, rec: &TraceRecord) {
        if let TraceEvent::FrameTx {
            src, airtime_us, ..
        } = &rec.event
        {
            let epoch = (rec.time_us / (BASE_EPOCH_MS * 1000)) as usize;
            if self.epochs.len() <= epoch {
                self.epochs.resize(epoch + 1, vec![0.0; GRID_N * GRID_N]);
            }
            self.epochs[epoch][src.index()] += *airtime_us as f64 / 1000.0;
        }
    }
}

fn run(strategy: Strategy) -> (RunReport, Vec<Vec<f64>>) {
    let airtime = Arc::new(Mutex::new(Airtime { epochs: Vec::new() }));
    let config = ExperimentConfig {
        strategy,
        grid_n: GRID_N,
        duration: SimTime::from_ms(EPOCHS * BASE_EPOCH_MS),
        observe: Observe {
            trace: TraceHandle::shared(airtime.clone()),
            ..Observe::default()
        },
        ..ExperimentConfig::default()
    };
    let report = run_experiment(&config, &workload_a());
    let epochs = std::mem::take(&mut airtime.lock().expect("sink not poisoned").epochs);
    (report, epochs)
}

fn heat_table(strategy: Strategy, epochs: &[Vec<f64>]) -> Vec<f64> {
    let totals: Vec<f64> = (0..GRID_N * GRID_N)
        .map(|i| epochs.iter().map(|e| e[i]).sum())
        .collect();

    println!("### {strategy}: per-node tx busy (ms)\n");
    print!("| row\\col |");
    for col in 0..GRID_N {
        print!(" {col} |");
    }
    println!();
    print!("|---|");
    for _ in 0..GRID_N {
        print!("---|");
    }
    println!();
    for row in 0..GRID_N {
        print!("| **{row}** |");
        for col in 0..GRID_N {
            print!(" {:.1} |", totals[row * GRID_N + col]);
        }
        println!();
    }
    println!();
    totals
}

fn main() {
    println!("Workload A, {GRID_N}x{GRID_N} grid, {EPOCHS} base epochs, default radio.\n");
    let mut summary: Vec<(Strategy, Vec<f64>, f64, f64)> = Vec::new();
    for strategy in [Strategy::Baseline, Strategy::TwoTier] {
        let (report, epochs) = run(strategy);
        let totals = heat_table(strategy, &epochs);
        summary.push((
            strategy,
            totals,
            report.energy_mj,
            report.max_node_energy_mj,
        ));
        let peak = epochs.iter().map(|e| gini(e)).fold(0.0, f64::max);
        println!("peak single-window gini: {peak:.3}\n");
    }

    println!("### Imbalance summary\n");
    println!(
        "| strategy | total tx busy (ms) | gini(tx busy) | max/mean | energy (mJ) | max node energy (mJ) |"
    );
    println!("|---|---|---|---|---|---|");
    for (strategy, totals, energy, max_energy) in &summary {
        println!(
            "| {strategy} | {:.1} | {:.3} | {:.2} | {:.1} | {:.1} |",
            totals.iter().sum::<f64>(),
            gini(totals),
            max_mean_ratio(totals),
            energy,
            max_energy,
        );
    }
}
