//! Trace-divergence localizer: fork one run under two fault plans, trace
//! both forks, and name the first event where their behaviour departs —
//! kind, simulated time, node — with a context window per side.
//!
//! Runs are deterministic, so a fork is a replay: each fork is a fresh
//! session run to the fork instant and handed its own fault plan there.
//! Both traces start at t = 0 and share a byte-identical prefix.
//!
//! This is the diagnostic step behind CI's baseline gate: when a `diff` of
//! a bench report against `bench/baselines/` says two runs disagree, you
//! don't eyeball two JSONL files — you re-trace both configurations and let
//! `trace_diff` localize the first departure and summarize what changed
//! after it.
//!
//! Run with: `cargo run --release --example divergence`

use ttmqo::core::{ExperimentConfig, RunSession, Strategy, WorkloadEvent};
use ttmqo::query::{parse_query, ParseQueryError, QueryId};
use ttmqo::sim::{trace_diff, FaultPlan, JsonLinesSink, NodeId, Observe, SimTime, TraceHandle};

const EPOCH_MS: u64 = 2048;
const FORK_MS: u64 = 8 * EPOCH_MS;
const OUT_DIR: &str = "divergence";

fn main() -> Result<(), ParseQueryError> {
    let workload: Vec<WorkloadEvent> = [
        "select light where 280<light<600 epoch duration 2048",
        "select light where 100<light<300 epoch duration 4096",
        "select max(temp) where region(0, 0, 60, 60) epoch duration 2048",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| {
        Ok(WorkloadEvent::pose(
            0,
            parse_query(QueryId(i as u64 + 1), text)?,
        ))
    })
    .collect::<Result<_, ParseQueryError>>()?;

    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(24 * EPOCH_MS),
        ..ExperimentConfig::default()
    };

    // ------------------------------------------------------------------
    // 1. Fork at epoch 8 under two futures, tracing each fork: replay the
    //    common prefix, then swap the fault plan.
    // ------------------------------------------------------------------
    println!("fork instant: t = {FORK_MS} ms (epoch 8)");
    std::fs::create_dir_all(OUT_DIR).expect("create output directory");
    let forks: &[(&str, FaultPlan)] = &[
        ("calm", FaultPlan::default()),
        (
            "crash",
            FaultPlan::scripted(vec![(NodeId(1), 10 * EPOCH_MS, None)]),
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

    // ------------------------------------------------------------------
    // 2. Localize: first diverging event plus per-kind count deltas.
    // ------------------------------------------------------------------
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
            (t as f64 / 1000.0 - FORK_MS as f64) / EPOCH_MS as f64
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
