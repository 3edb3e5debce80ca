//! Trace analyzer: turn a trace JSONL file into a human-readable summary
//! and, optionally, a Chrome trace-event file for `chrome://tracing` /
//! Perfetto.
//!
//! The summary reconstructs what the run did from the trace alone: event
//! counts by kind, per-user-query answer counts and latency, the hop-count
//! distribution of delivered result provenances, and per-epoch rollups of
//! radio activity. `ttmqo::sim::summarize_trace` is the same code path the
//! provenance test uses to prove the trace is a faithful record of the run.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trace_analyze -- traces/trace-0-....jsonl \
//!     [--epoch-ms 2048] [--chrome chrome.json] [--json]
//! ```
//!
//! With `--json` the summary is emitted as one machine-readable JSON object
//! on stdout (`TraceSummary::to_json`) instead of the human tables; `--chrome`
//! still works, with its status line moved to stderr.

use std::process::ExitCode;

use ttmqo::sim::{chrome_trace, summarize_trace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut chrome_out: Option<String> = None;
    let mut epoch_ms: u64 = 2048;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--chrome" => {
                i += 1;
                chrome_out = args.get(i).cloned();
                if chrome_out.is_none() {
                    eprintln!("--chrome needs an output path");
                    return ExitCode::FAILURE;
                }
            }
            "--epoch-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(ms) => epoch_ms = ms,
                    None => {
                        eprintln!("--epoch-ms needs an integer argument");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!(
            "usage: trace_analyze <trace.jsonl> [--epoch-ms 2048] \
             [--chrome out.json] [--json]"
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let summary = match summarize_trace(&text, epoch_ms) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("cannot analyze {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
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
        if summary.dropped_records > 0 {
            println!(
                "{} records dropped at capture time (ring eviction)",
                summary.dropped_records
            );
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
        println!("\nper-epoch rollups ({epoch_ms} ms buckets):");
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
        if let Err(e) = std::fs::write(&out, chrome_trace(&text)) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        let note = format!("wrote Chrome trace-event JSON to {out} (load in chrome://tracing)");
        // In --json mode stdout carries exactly one JSON document.
        match json {
            true => eprintln!("{note}"),
            false => println!("\n{note}"),
        }
    }
    ExitCode::SUCCESS
}
