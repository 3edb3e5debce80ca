//! Provenance acceptance test: the trace is a complete, faithful record of
//! the run. A summary reconstructed from the JSONL text alone — no access to
//! the simulator or the `RunReport` — must reproduce the report's per-query
//! answer counts exactly, carry a latency sample for every answer, and
//! account every delivered row's hop path.

use std::io::Write;
use std::sync::{Arc, Mutex};

use ttmqo_core::{run_experiment, ExperimentConfig, Strategy};
use ttmqo_sim::{summarize_trace, JsonLinesSink, Observe, SimTime, TraceHandle, SCHEMA_VERSION};
use ttmqo_workloads::workload_a;

/// A `Write` implementor appending into a shared buffer, so the test can
/// read the JSONL back without touching the filesystem.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_run(strategy: Strategy) -> (ttmqo_core::RunReport, String) {
    let buf = SharedBuf::default();
    let sink = JsonLinesSink::new(buf.clone()).unwrap();
    let config = ExperimentConfig {
        strategy,
        grid_n: 4,
        duration: SimTime::from_ms(24 * 2048),
        observe: Observe {
            trace: TraceHandle::new(sink),
            ..Observe::default()
        },
        ..ExperimentConfig::default()
    };
    let report = run_experiment(&config, &workload_a());
    config.observe.trace.flush();
    let bytes = buf.0.lock().unwrap().clone();
    (report, String::from_utf8(bytes).unwrap())
}

#[test]
fn trace_alone_reproduces_the_reports_answer_counts() {
    for strategy in [Strategy::Baseline, Strategy::TwoTier] {
        let (report, jsonl) = traced_run(strategy);
        let summary = summarize_trace(&jsonl).expect("trace schema matches the library");

        assert_eq!(summary.schema_version, Some(SCHEMA_VERSION));
        assert_eq!(summary.malformed_lines, 0, "[{strategy}] clean trace");
        assert!(!report.answers.is_empty(), "the cell answered queries");

        // The acceptance criterion: per-user-query answer counts match the
        // live report exactly, reconstructed from the trace text alone.
        assert_eq!(
            summary.queries.len(),
            report.answers.len(),
            "[{strategy}] user-query set"
        );
        for (qid, answers) in &report.answers {
            assert_eq!(
                summary.queries.get(&qid.0).map(|q| q.answers),
                Some(answers.len() as u64),
                "[{strategy}] answer count for query {qid:?}"
            );
        }

        // Hop accounting: every delivered provenance took at least one hop,
        // and the rollups agree with the by-kind totals.
        assert!(!summary.hop_distribution.is_empty(), "[{strategy}]");
        assert!(summary.hop_distribution.keys().all(|&h| h >= 1));
        let rollup_answers: u64 = summary.rollups.iter().map(|r| r.answers).sum();
        assert_eq!(rollup_answers, summary.total_answers(), "[{strategy}]");
        let rollup_tx: u64 = summary.rollups.iter().map(|r| r.tx).sum();
        assert_eq!(
            rollup_tx,
            summary.by_kind.get("frame-tx").copied().unwrap_or(0),
            "[{strategy}]"
        );
    }
}
