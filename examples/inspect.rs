//! One way to ask a run what happened: two readers of the trace files a run
//! writes (`CampaignSpec::trace_output`, or a `JsonLinesSink` on
//! `Observe::trace`). The `figures` bench writes one trace per observatory
//! cell under `observatory/traces/`.
//!
//! * `analyze <trace.jsonl> [--chrome F] [--json]` — reconstructs what a run
//!   did from its trace alone (`summarize_trace`, the code path the auditor
//!   reconciles against the live answers): events by kind, per-query answers
//!   and latency, the hop distribution of delivered provenances, and radio
//!   activity per base epoch. `--json` prints the summary as one JSON object
//!   (`TraceSummary::to_json`) instead of tables; `--chrome F` also writes a
//!   Chrome trace-event file for `chrome://tracing` / Perfetto.
//! * `diff <a.jsonl> <b.jsonl>` — names the first record where two traces
//!   depart (kind, simulated time, node), with the 5 shared records before
//!   it and 5 records after it on each side, then the event kinds whose
//!   counts differ (`trace_diff`). Runs are
//!   deterministic, so the first differing record is the first behavioural
//!   departure: two runs under different fault plans, or yesterday's CI
//!   artifact against today's.
//!
//! Run with: `cargo run --release --example inspect -- <subcommand> [args]`

use std::process::ExitCode;

use ttmqo::query::BASE_EPOCH_MS;
use ttmqo::sim::{chrome_trace, summarize_trace, trace_diff};

const USAGE: &str = "usage: inspect analyze <trace.jsonl> [--chrome out.json] [--json] \
                     | diff <a.jsonl> <b.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("diff") => diff(&args[1..]),
        _ => Err(usage()),
    };
    outcome.map_or_else(|code| code, |()| ExitCode::SUCCESS)
}

/// Says how to call the example and fails.
fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// Reads a trace file, or says why not and fails.
fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::FAILURE
    })
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
        return Err(usage());
    };
    let text = read(path)?;
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

    if !json && !summary.queries.is_empty() {
        println!("\nper-query answers:");
        println!(
            "  {:<8} {:>8} {:>9} {:>13}",
            "query", "answers", "nonempty", "mean lat ms"
        );
        for (qid, tally) in &summary.queries {
            let (n, nonempty) = (tally.answers, tally.nonempty);
            match tally.mean_latency_ms() {
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
        std::fs::write(out, chrome_trace(&text)).map_err(|e| {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        })?;
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
// diff
// ----------------------------------------------------------------------

/// Shared records shown before the divergent record, and records shown
/// after it on each side.
const DIFF_CONTEXT: usize = 5;

fn diff(args: &[String]) -> Result<(), ExitCode> {
    let [a, b] = args else {
        return Err(usage());
    };
    println!("a = {a}\nb = {b}");
    print!("{}", trace_diff(&read(a)?, &read(b)?, DIFF_CONTEXT));
    Ok(())
}
