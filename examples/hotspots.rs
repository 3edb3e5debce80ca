//! Hotspot & imbalance analysis: where does the transmission load actually
//! land on the grid, and does two-tier sharing flatten it?
//!
//! Runs Workload A on the paper's 8×8 grid under both strategies with
//! time-series collection enabled, then prints a per-node tx-busy heat
//! table laid out by grid position (node `i` sits at row `i / n`, column
//! `i % n`; the base station is node 0 at the origin corner), followed by
//! the run-level imbalance statistics: Gini coefficient and max/mean ratio
//! over per-node tx-busy totals, the worst single-window Gini, and the
//! energy totals. Each run also carries the per-phase profiler, so the
//! final section ranks where the *simulator's* wall time goes for each
//! strategy — the spatial heat tables say where the simulated radio load
//! lands, the phase ranking says what that load costs to simulate. The
//! markdown tables in EXPERIMENTS.md §"Hotspots & imbalance" are generated
//! by this example.
//!
//! Run with: `cargo run --release --example hotspots`

use ttmqo::core::{run_experiment, ExperimentConfig, RunReport, Strategy};
use ttmqo::sim::{gini, max_mean_ratio, Observe, ProfileHandle, SimTime};
use ttmqo::workloads::workload_a;

const GRID_N: usize = 8;
const EPOCHS: u64 = 24;

fn run(strategy: Strategy) -> RunReport {
    let config = ExperimentConfig {
        strategy,
        grid_n: GRID_N,
        duration: SimTime::from_ms(EPOCHS * 2048),
        observe: Observe {
            timeseries: true,
            profile: ProfileHandle::enabled(),
            ..Observe::default()
        },
        ..ExperimentConfig::default()
    };
    run_experiment(&config, &workload_a())
}

fn heat_table(strategy: Strategy, report: &RunReport) -> Vec<f64> {
    let series = report.timeseries.as_ref().expect("timeseries enabled");
    let totals: Vec<f64> = (0..series.nodes.nodes)
        .map(|i| series.nodes.node_total_tx_busy_ms(i))
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
    let mut profiles = Vec::new();
    for strategy in [Strategy::Baseline, Strategy::TwoTier] {
        let report = run(strategy);
        let totals = heat_table(strategy, &report);
        summary.push((
            strategy,
            totals,
            report.energy_mj,
            report.max_node_energy_mj,
        ));
        let series = report.timeseries.as_ref().unwrap();
        println!(
            "peak single-window gini: {:.3}\n",
            series.nodes.peak_gini_tx_busy()
        );
        profiles.push((strategy, report.profile.expect("profiling enabled")));
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

    // Where the simulator's own wall time goes, hottest phase first. The
    // engine-phase percentages are shares of the engine event loop;
    // runner phases (admission scoring, re-optimization, answer mapping)
    // are listed with absolute time only.
    println!("\n### Simulator phase ranking (per strategy)\n");
    for (strategy, profile) in &profiles {
        let engine_ns = profile.engine_event_wall_ns().max(1) as f64;
        let mut phases = profile.phases.clone();
        phases.sort_by_key(|p| std::cmp::Reverse(p.wall_ns));
        println!("**{strategy}**\n");
        println!("| phase | wall µs | events | ns/event | % of engine loop |");
        println!("|---|---|---|---|---|");
        for p in phases.iter().filter(|p| p.events > 0) {
            let share = if p.phase.is_engine_event_phase() {
                format!("{:.1}%", p.wall_ns as f64 / engine_ns * 100.0)
            } else {
                "-".to_string()
            };
            println!(
                "| {} | {} | {} | {:.0} | {share} |",
                p.phase.name(),
                p.wall_us(),
                p.events,
                p.ns_per_event(),
            );
        }
        println!();
    }
}
