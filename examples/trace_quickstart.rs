//! End-to-end tracing quickstart: run one traced campaign cell and follow a
//! query's answers back through the trace.
//!
//! The campaign attaches a JSON-lines trace sink to every cell
//! (`CampaignSpec::trace_output`), so each run writes
//! `traces/trace-<index>-<workload>-<strategy>-<grid_n>-<fault>.jsonl`
//! alongside the usual cell records. This example runs a two-query
//! two-tier cell, then re-reads the trace from disk and shows that the
//! summary reconstructed from the trace alone agrees with the live
//! `CellRecord` — the property the `trace_provenance` integration test
//! asserts exactly. CI runs this before `trace_analyze` to produce the
//! trace-smoke artifacts.
//!
//! Run with: `cargo run --release --example trace_quickstart`

use ttmqo::core::{
    run_campaign_sequential, CampaignSpec, ExperimentConfig, Strategy, WorkloadEvent,
};
use ttmqo::query::{parse_query, QueryId};
use ttmqo::sim::{summarize_trace, SimTime};

fn main() {
    let workload: Vec<WorkloadEvent> = [
        "select light where 100<light<600 epoch duration 2048",
        "select light where 200<light<500 epoch duration 4096",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| {
        let q = parse_query(QueryId(i as u64 + 1), text).expect("valid query");
        WorkloadEvent::pose(0, q)
    })
    .collect();

    let base = ExperimentConfig {
        duration: SimTime::from_ms(12 * 2048),
        ..ExperimentConfig::default()
    };
    let spec = CampaignSpec::new(base)
        .strategies([Strategy::TwoTier])
        .grid_sizes([4])
        .workload("quickstart", workload)
        .trace_output("traces");

    println!("running {} traced cell(s)...", spec.cell_count());
    let report = run_campaign_sequential(&spec);
    let cell = &report.cells[0];
    let trace_file = cell.trace_file.as_ref().expect("tracing was enabled");
    let path = format!("traces/{trace_file}");
    println!(
        "cell: {} / {} / {}x{} -> {path}",
        cell.workload, cell.strategy, cell.grid_n, cell.grid_n
    );
    println!(
        "engine phases: {} timer, {} deliver, {} maintenance events",
        cell.engine.timer_events, cell.engine.deliver_events, cell.engine.maintenance_events
    );

    let text = std::fs::read_to_string(&path).expect("trace file written by the campaign");
    let summary = summarize_trace(&text, 2048).expect("trace schema matches the library");
    println!(
        "\ntrace: {} events, {} answers mapped to {} user queries",
        summary.events,
        summary.total_answers(),
        summary.answers_per_query.len(),
    );
    for (qid, n) in &summary.answers_per_query {
        println!(
            "  query {qid}: {n} answers, mean latency {}",
            summary
                .latency_ms_per_query
                .get(qid)
                .filter(|v| !v.is_empty())
                .map_or_else(
                    || "-".to_string(),
                    |v| format!("{:.1} ms", v.iter().sum::<u64>() as f64 / v.len() as f64)
                ),
        );
    }

    // The trace is a faithful record: its per-query answer count equals the
    // live report's answer_epochs.
    let from_trace = summary.total_answers() as usize;
    assert_eq!(
        from_trace, cell.answer_epochs,
        "trace-reconstructed answers must match the live record"
    );
    println!(
        "\ntrace answers ({from_trace}) == live record answer_epochs ({}) ✓",
        cell.answer_epochs
    );
    println!(
        "analyze further with: cargo run --release --example trace_analyze -- {path} \
         --chrome chrome.json"
    );
}
