//! One way to ask a run what happened: four subcommands over the library's
//! campaign, audit and trace layers.
//!
//! * `observatory` — runs a small audited, traced campaign and prints one
//!   row per cell. `CampaignSpec::audit` arms the standing checks (phase
//!   accounting, slab sanity, energy conservation, completeness,
//!   trace↔answer agreement) on every cell; a violation, or a check skipped
//!   because a trace was missing or lossy, exits nonzero. Writes the cell
//!   records to `observatory/campaign.jsonl` (no host time in them, so CI
//!   `diff`s it against `bench/baselines/BENCH_observatory.jsonl`) and one
//!   trace per cell under `observatory/traces/`. Auditing is observational
//!   only: an audited campaign produces bit-identical cell records to a bare
//!   run.
//! * `analyze <trace.jsonl> [--chrome F] [--json]` — reconstructs what a run
//!   did from its trace alone (`summarize_trace`, the code path the auditor
//!   reconciles against the live answers): events by kind, per-query answers
//!   and latency, the hop distribution of delivered provenances, and radio
//!   activity per base epoch. `--json` prints the summary as one JSON object
//!   (`TraceSummary::to_json`) instead of tables; `--chrome F` also writes a
//!   Chrome trace-event file for `chrome://tracing` / Perfetto.
//! * `hotspots` — where the transmission load lands, and whether two-tier
//!   sharing flattens it. Runs Workload A on the paper's 8×8 grid under
//!   Baseline and TwoTier, buckets each `frame-tx` record's airtime by source
//!   node and base epoch, prints a per-node tx-busy table by grid position
//!   (node `i` at row `i / n`, column `i % n`; the base station is node 0 at
//!   the origin corner), then Gini, max/mean, the worst single-epoch Gini and
//!   energy. The output is checked in as `bench/results/hotspots.txt`, which
//!   CI diffs and EXPERIMENTS.md §"Hotspots & imbalance" quotes.
//! * `divergence` — forks one run under two fault plans and names the first
//!   event where the forks depart (kind, simulated time, node) with a context
//!   window per side (`trace_diff`). Runs are deterministic, so a fork is a
//!   replay: a fresh session run to the fork instant and handed its own plan
//!   there. Both traces, under `divergence/`, share a byte-identical prefix.
//!   When CI's baseline gate says two runs disagree, this is how to localize
//!   the first departure.
//!
//! Run with: `cargo run --release --example inspect -- <subcommand> [args]`

use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use ttmqo::core::{
    run_campaign, run_experiment, CampaignSpec, ExperimentConfig, RunReport, RunSession, Strategy,
    WorkloadEvent,
};
use ttmqo::query::{parse_query, QueryId, BASE_EPOCH_MS};
use ttmqo::sim::{
    chrome_trace, gini, max_mean_ratio, summarize_trace, trace_diff, FaultPlan, JsonLinesSink,
    NodeId, Observe, Probe, SimTime, TraceEvent, TraceHandle, TraceRecord, TraceSink,
};
use ttmqo::workloads::workload_a;

const USAGE: &str = "usage: inspect observatory | analyze <trace.jsonl> [--chrome out.json] \
                     [--json] | hotspots | divergence";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("observatory") => observatory(),
        Some("analyze") => analyze(&args[1..]),
        Some("hotspots") => hotspots(),
        Some("divergence") => divergence(),
        _ => {
            eprintln!("{USAGE}");
            Err(ExitCode::FAILURE)
        }
    };
    outcome.map_or_else(|code| code, |()| ExitCode::SUCCESS)
}

/// A workload posing every query text at t = 0, with ids 1, 2, ... in order.
fn workload(texts: &[&str]) -> Vec<WorkloadEvent> {
    texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let q = parse_query(QueryId(i as u64 + 1), text).expect("valid query");
            WorkloadEvent::pose(0, q)
        })
        .collect()
}

/// Writes `contents` to `path`, or says why not and fails.
fn write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), ExitCode> {
    let path = path.as_ref();
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

// ----------------------------------------------------------------------
// observatory
// ----------------------------------------------------------------------

fn observatory() -> Result<(), ExitCode> {
    let overlap = workload(&[
        "select light where 280<light<600 epoch duration 2048",
        "select light where 100<light<300 epoch duration 4096",
        "select light where 150<light<500 epoch duration 4096",
    ]);
    let disjoint = workload(&[
        "select light where 100<light<200 epoch duration 2048",
        "select temp where 40<temp<60 epoch duration 2048",
    ]);

    let out_dir = Path::new("observatory");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return Err(ExitCode::FAILURE);
    }

    let base = ExperimentConfig {
        duration: SimTime::from_ms(12 * BASE_EPOCH_MS),
        ..Default::default()
    };
    // Tracing is on so the auditor can reconcile each cell's trace against
    // its answer counts; audit() arms every other standing check.
    let spec = CampaignSpec::new(base)
        .strategies([Strategy::Baseline, Strategy::TwoTier])
        .grid_sizes([3, 4])
        .workload("overlap", overlap)
        .workload("disjoint", disjoint)
        .trace_output(out_dir.join("traces"))
        .audit();

    let report = run_campaign(&spec);
    println!(
        "observatory: {} cells in {:.0} ms on {} threads",
        report.cells.len(),
        report.wall_clock_ms,
        report.threads
    );
    let jsonl_path = out_dir.join("campaign.jsonl");
    write(&jsonl_path, report.to_jsonl())?;

    // One row per cell, and the exit code from the same pass: a violation
    // fails the run, and so does a skipped check (a trace that was never
    // reconciled proves nothing).
    println!("\nworkload  strategy  grid  events answers min epoch  energy mJ violations skipped");
    let (mut violations, mut skipped) = (0, 0);
    for cell in &report.cells {
        let (v, k) = cell
            .audit
            .as_ref()
            .map_or((0, 0), |a| (a.violations.len(), a.checks_skipped));
        violations += v;
        skipped += k;
        println!(
            "{:<9} {:<9} {:>4} {:>7} {:>7} {:>9.3} {:>10.1} {:>10} {:>7}",
            cell.workload,
            cell.strategy,
            cell.grid_n,
            cell.engine.events_processed,
            cell.answer_epochs,
            cell.completeness.min_epoch_ratio(),
            cell.energy_mj,
            v,
            k,
        );
    }
    println!("\nwrote {}", jsonl_path.display());

    let cells = report.cells.len();
    if violations > 0 {
        eprintln!(
            "audit: {violations} violations across {cells} cells — see {}",
            jsonl_path.display(),
        );
        Err(ExitCode::FAILURE)
    } else if skipped > 0 {
        eprintln!(
            "audit: {skipped} checks skipped across {cells} cells — a trace was missing or lossy"
        );
        Err(ExitCode::FAILURE)
    } else {
        println!("audit: all {cells} cells clean");
        Ok(())
    }
}

// ----------------------------------------------------------------------
// analyze
// ----------------------------------------------------------------------

fn analyze(args: &[String]) -> Result<(), ExitCode> {
    let mut path: Option<&str> = None;
    let mut chrome_out: Option<&str> = None;
    let mut json = false;
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--json" => json = true,
            "--chrome" => match args.next() {
                Some(out) => chrome_out = Some(out),
                None => {
                    eprintln!("--chrome needs an output path");
                    return Err(ExitCode::FAILURE);
                }
            },
            other if path.is_none() => path = Some(other),
            other => {
                eprintln!("unexpected argument: {other}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return Err(ExitCode::FAILURE);
    };
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::FAILURE
    })?;
    let summary = summarize_trace(&text).map_err(|e| {
        eprintln!("cannot analyze {path}: {e}");
        ExitCode::FAILURE
    })?;

    if json {
        println!("{}", summary.to_json());
    } else {
        match summary.schema_version {
            Some(v) => println!("trace {path} (schema v{v})"),
            None => println!("trace {path} (no schema header)"),
        }
        println!("{} events", summary.events);
        if summary.malformed_lines > 0 {
            println!("{} malformed lines skipped", summary.malformed_lines);
        }
        if summary.truncated_tail {
            println!("final line truncated (crash-time trace tail tolerated)");
        }

        println!("\nevents by kind:");
        for (kind, n) in &summary.by_kind {
            println!("  {kind:<20} {n:>8}");
        }
    }

    if !json && !summary.answers_per_query.is_empty() {
        println!("\nper-query answers:");
        println!(
            "  {:<8} {:>8} {:>9} {:>13}",
            "query", "answers", "nonempty", "mean lat ms"
        );
        for (qid, n) in &summary.answers_per_query {
            let nonempty = summary.nonempty_per_query.get(qid).copied().unwrap_or(0);
            let lat = summary
                .latency_ms_per_query
                .get(qid)
                .filter(|v| !v.is_empty())
                .map(|v| v.iter().sum::<u64>() as f64 / v.len() as f64);
            match lat {
                Some(ms) => println!("  {qid:<8} {n:>8} {nonempty:>9} {ms:>13.1}"),
                None => println!("  {qid:<8} {n:>8} {nonempty:>9} {:>13}", "-"),
            }
        }
        println!(
            "  total {} answers, mean latency {}",
            summary.total_answers(),
            summary
                .mean_latency_ms()
                .map_or_else(|| "-".to_string(), |ms| format!("{ms:.1} ms")),
        );
    }

    if !json && !summary.hop_distribution.is_empty() {
        println!("\nhop distribution (delivered provenances):");
        for (hops, n) in &summary.hop_distribution {
            println!("  {hops:>2} hops  {n:>8}");
        }
    }

    if !json && !summary.rollups.is_empty() {
        println!("\nper-epoch rollups ({BASE_EPOCH_MS} ms buckets):");
        println!(
            "  {:>9} {:>6} {:>5} {:>6} {:>7} {:>6} {:>5} {:>8} {:>8}",
            "epoch ms", "tx", "coll", "loss", "retry", "sleep", "rows", "answers", "nonempty"
        );
        for r in &summary.rollups {
            println!(
                "  {:>9} {:>6} {:>5} {:>6} {:>7} {:>6} {:>5} {:>8} {:>8}",
                r.epoch_ms,
                r.tx,
                r.collisions,
                r.losses,
                r.retries,
                r.sleeps,
                r.rows_delivered,
                r.answers,
                r.nonempty_answers,
            );
        }
    }

    if let Some(out) = chrome_out {
        write(out, chrome_trace(&text))?;
        let note = format!("wrote Chrome trace-event JSON to {out} (load in chrome://tracing)");
        // In --json mode stdout carries exactly one JSON document.
        match json {
            true => eprintln!("{note}"),
            false => println!("\n{note}"),
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// hotspots
// ----------------------------------------------------------------------

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

fn heat_table(strategy: Strategy, epochs: &[Vec<f64>]) -> Vec<f64> {
    let n = HOTSPOT_GRID_N;
    let totals: Vec<f64> = (0..n * n)
        .map(|i| epochs.iter().map(|e| e[i]).sum())
        .collect();

    println!("### {strategy}: per-node tx busy (ms)\n");
    print!("| row\\col |");
    for col in 0..n {
        print!(" {col} |");
    }
    println!();
    print!("|---|");
    for _ in 0..n {
        print!("---|");
    }
    println!();
    for row in 0..n {
        print!("| **{row}** |");
        for col in 0..n {
            print!(" {:.1} |", totals[row * n + col]);
        }
        println!();
    }
    println!();
    totals
}

fn hotspots() -> Result<(), ExitCode> {
    println!(
        "Workload A, {n}x{n} grid, {HOTSPOT_EPOCHS} base epochs, default radio.\n",
        n = HOTSPOT_GRID_N
    );
    let mut summary: Vec<(Strategy, Vec<f64>, f64, f64)> = Vec::new();
    for strategy in [Strategy::Baseline, Strategy::TwoTier] {
        let (report, epochs) = airtime_run(strategy);
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
    Ok(())
}

// ----------------------------------------------------------------------
// divergence
// ----------------------------------------------------------------------

fn divergence() -> Result<(), ExitCode> {
    const FORK_MS: u64 = 8 * BASE_EPOCH_MS;
    const OUT_DIR: &str = "divergence";

    let workload = workload(&[
        "select light where 280<light<600 epoch duration 2048",
        "select light where 100<light<300 epoch duration 4096",
        "select max(temp) where region(0, 0, 60, 60) epoch duration 2048",
    ]);
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(24 * BASE_EPOCH_MS),
        ..ExperimentConfig::default()
    };

    // 1. Fork at epoch 8 under two futures, tracing each fork: replay the
    //    common prefix, then swap the fault plan.
    println!("fork instant: t = {FORK_MS} ms (epoch 8)");
    std::fs::create_dir_all(OUT_DIR).expect("create output directory");
    let forks: &[(&str, FaultPlan)] = &[
        ("calm", FaultPlan::default()),
        (
            "crash",
            FaultPlan::scripted(vec![(NodeId(1), 10 * BASE_EPOCH_MS, None)]),
        ),
    ];
    let mut traces = Vec::new();
    for (label, plan) in forks {
        let path = format!("{OUT_DIR}/trace-{label}.jsonl");
        let traced = ExperimentConfig {
            observe: Observe {
                trace: TraceHandle::new(
                    JsonLinesSink::create(&path).expect("create fork trace file"),
                ),
                ..Observe::default()
            },
            ..config.clone()
        };
        let mut fork = RunSession::new(&traced, &workload);
        fork.run_to(SimTime::from_ms(FORK_MS));
        fork.replace_fault_plan(plan);
        let report = fork.finish();
        traced.observe.trace.flush();
        let answers: usize = report.answers.values().map(Vec::len).sum();
        println!("fork {label:>6}: {answers} answers, trace at {path}");
        traces.push(std::fs::read_to_string(&path).expect("read fork trace back"));
    }

    // 2. Localize: first diverging event plus per-kind count deltas.
    let diff = trace_diff(&traces[0], &traces[1], 5);
    println!("\ntraces: {} vs {} records", diff.records_a, diff.records_b);
    let div = diff
        .divergence
        .as_ref()
        .expect("a mid-run crash must diverge from a calm run");
    println!("first divergence at record #{}:", div.index);
    for (side, rec, context) in [
        ("calm", &div.a, &div.context_a),
        ("crash", &div.b, &div.context_b),
    ] {
        for line in context {
            println!("  {side:>6}  ...  {line}");
        }
        match rec {
            Some(r) => {
                println!(
                    "  {side:>6}  >>>  {} (t = {} us, node {})",
                    r.kind.as_deref().unwrap_or("?"),
                    r.time_us.map_or_else(|| "?".into(), |t| t.to_string()),
                    r.node.map_or_else(|| "?".into(), |n| n.to_string()),
                );
            }
            None => println!("  {side:>6}  >>>  (trace ends here)"),
        }
    }
    let first_at = div.a.as_ref().and_then(|r| r.time_us);
    if let Some(t) = first_at {
        assert!(
            t >= FORK_MS * 1000,
            "forks replay the same prefix, so divergence is after the fork instant"
        );
        println!(
            "\nbehaviour departs {:.1} epochs after the fork instant (crash at epoch 10)",
            (t as f64 / 1000.0 - FORK_MS as f64) / BASE_EPOCH_MS as f64
        );
    }

    println!("\nevent-kind count deltas (calm vs crash):");
    for d in &diff.kind_deltas {
        if d.count_a != d.count_b {
            println!(
                "  {:<20} {:>7} vs {:>7} ({:+})",
                d.kind,
                d.count_a,
                d.count_b,
                d.count_b as i64 - d.count_a as i64
            );
        }
    }
    Ok(())
}
