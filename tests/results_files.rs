//! `bench/results/` holds what its producers write and nothing else. CI runs
//! every producer and fails if `git status` then shows a change there, so a
//! file that no producer writes any more would sit in the directory
//! unchecked.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// What the `inspect` example writes there, or CI redirects its output to:
/// `observatory`'s cell records, `analyze --json` of one observatory trace
/// and the `hotspots` tables.
const INSPECT_FILES: [&str; 3] = ["observatory.jsonl", "analyze-trace-1.json", "hotspots.txt"];

#[test]
fn every_results_file_has_a_producer() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench/results");
    assert_eq!(
        fs::canonicalize(ttmqo_bench::RESULTS_DIR).unwrap(),
        fs::canonicalize(&dir).unwrap(),
        "the bench writes where the checked-in results are"
    );
    let present: BTreeSet<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    let produced: BTreeSet<String> = ttmqo_bench::RESULT_FILES
        .iter()
        .chain(&INSPECT_FILES)
        .map(|f| f.to_string())
        .collect();
    assert_eq!(present, produced);
}
