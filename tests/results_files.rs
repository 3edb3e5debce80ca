//! `bench/results/` holds what the `figures` bench writes and nothing else.
//! CI runs the bench and fails if `git status` then shows a change there,
//! so a file the bench no longer writes would sit in the directory
//! unchecked.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

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
        .map(|f| f.to_string())
        .collect();
    assert_eq!(present, produced);
}
