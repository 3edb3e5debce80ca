//! Where the transmission load lands, and whether two-tier sharing
//! flattens it.
//!
//! [`hotspots`] runs Workload A on the paper's 8×8 grid under Baseline and
//! TwoTier, buckets each `frame-tx` record's airtime by source node and
//! base epoch, and renders a per-node tx-busy table by grid position (node
//! `i` at row `i / n`, column `i % n`; the base station is node 0 at the
//! origin corner), then Gini, max/mean, the worst single-epoch Gini and
//! energy. The `figures` bench writes the text to `hotspots.txt`.

use std::fmt::{self, Write};
use std::sync::{Arc, Mutex};

use ttmqo_core::{run_experiment, ExperimentConfig, RunReport, Strategy};
use ttmqo_query::BASE_EPOCH_MS;
use ttmqo_sim::{
    gini, max_mean_ratio, Observe, Probe, SimTime, TraceEvent, TraceHandle, TraceRecord, TraceSink,
};
use ttmqo_workloads::workload_a;

const HOTSPOT_GRID_N: usize = 8;
const HOTSPOT_EPOCHS: u64 = 24;

/// Per-node transmit airtime (ms) per base epoch, read off the trace's
/// `frame-tx` records in the order the engine emits them.
struct Airtime {
    epochs: Vec<Vec<f64>>,
}

impl TraceSink for Airtime {
    fn record(&mut self, rec: &TraceRecord) {
        if let TraceEvent::Engine(Probe::Tx {
            node, airtime_us, ..
        }) = rec.event
        {
            let epoch = (rec.time_us / (BASE_EPOCH_MS * 1000)) as usize;
            if self.epochs.len() <= epoch {
                self.epochs
                    .resize(epoch + 1, vec![0.0; HOTSPOT_GRID_N * HOTSPOT_GRID_N]);
            }
            self.epochs[epoch][node.index()] += airtime_us as f64 / 1000.0;
        }
    }
}

fn airtime_run(strategy: Strategy) -> (RunReport, Vec<Vec<f64>>) {
    let airtime = Arc::new(Mutex::new(Airtime { epochs: Vec::new() }));
    let config = ExperimentConfig {
        strategy,
        grid_n: HOTSPOT_GRID_N,
        duration: SimTime::from_ms(HOTSPOT_EPOCHS * BASE_EPOCH_MS),
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

fn heat_table(out: &mut String, strategy: Strategy, totals: &[f64]) -> fmt::Result {
    let n = HOTSPOT_GRID_N;
    writeln!(out, "### {strategy}: per-node tx busy (ms)\n")?;
    write!(out, "| row\\col |")?;
    for col in 0..n {
        write!(out, " {col} |")?;
    }
    writeln!(out)?;
    write!(out, "|---|")?;
    for _ in 0..n {
        write!(out, "---|")?;
    }
    writeln!(out)?;
    for row in 0..n {
        write!(out, "| **{row}** |")?;
        for col in 0..n {
            write!(out, " {:.1} |", totals[row * n + col])?;
        }
        writeln!(out)?;
    }
    writeln!(out)
}

fn render(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Workload A, {n}x{n} grid, {HOTSPOT_EPOCHS} base epochs, default radio.\n",
        n = HOTSPOT_GRID_N
    )?;
    let mut summary: Vec<(Strategy, Vec<f64>, f64, f64)> = Vec::new();
    for strategy in [Strategy::Baseline, Strategy::TwoTier] {
        let (report, epochs) = airtime_run(strategy);
        let totals: Vec<f64> = (0..HOTSPOT_GRID_N * HOTSPOT_GRID_N)
            .map(|i| epochs.iter().map(|e| e[i]).sum())
            .collect();
        heat_table(out, strategy, &totals)?;
        summary.push((
            strategy,
            totals,
            report.energy_mj,
            report.max_node_energy_mj,
        ));
        let peak = epochs.iter().map(|e| gini(e)).fold(0.0, f64::max);
        writeln!(out, "peak single-window gini: {peak:.3}\n")?;
    }

    writeln!(out, "### Imbalance summary\n")?;
    writeln!(
        out,
        "| strategy | total tx busy (ms) | gini(tx busy) | max/mean | energy (mJ) | max node energy (mJ) |"
    )?;
    writeln!(out, "|---|---|---|---|---|---|")?;
    for (strategy, totals, energy, max_energy) in &summary {
        writeln!(
            out,
            "| {strategy} | {:.1} | {:.3} | {:.2} | {:.1} | {:.1} |",
            totals.iter().sum::<f64>(),
            gini(totals),
            max_mean_ratio(totals),
            energy,
            max_energy,
        )?;
    }
    Ok(())
}

/// The hotspot report: a heat table and peak single-epoch Gini per
/// strategy, then the imbalance summary, as Markdown.
pub fn hotspots() -> String {
    let mut out = String::new();
    render(&mut out).expect("writing to a String cannot fail");
    out
}
