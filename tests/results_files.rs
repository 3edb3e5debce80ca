//! `bench/results/` holds what the `figures` bench writes and nothing else.
//! CI runs the bench and fails if `git status` then shows a change there,
//! so a file the bench no longer writes would sit in the directory
//! unchecked. And every cell record in it was audited clean: the bench runs
//! every campaign with the auditor armed and writes nothing otherwise.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use ttmqo::sim::json;

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

#[test]
fn every_cell_record_is_audited_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench/results");
    let mut cells = 0;
    let mut dirty = Vec::new();
    for file in ttmqo_bench::RESULT_FILES {
        if !file.ends_with(".jsonl") {
            continue;
        }
        let text = fs::read_to_string(dir.join(file)).unwrap();
        for (n, line) in text.lines().enumerate() {
            let doc = json::parse(line).unwrap_or_else(|e| panic!("{file}:{}: {e:?}", n + 1));
            // Cell records name their strategy; sweep points and the
            // routing example do not.
            if doc.get("strategy").is_none() {
                continue;
            }
            cells += 1;
            let clean = doc.get("audit").is_some_and(|audit| {
                audit.u64_at("checks_skipped") == Some(0)
                    && matches!(audit.get("violations"), Some(json::JsonValue::Arr(v)) if v.is_empty())
            });
            if !clean {
                dirty.push(format!("{file}:{}", n + 1));
            }
        }
    }
    // Figures 3 and 5 alone hold 54 cells; finding fewer means the scan broke.
    assert!(cells >= 54, "only {cells} cell records found");
    assert!(
        dirty.is_empty(),
        "cell records without a clean audit:\n{}",
        dirty.join("\n")
    );
}
