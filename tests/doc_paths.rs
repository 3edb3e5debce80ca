//! Every repository path the documents name in backticks exists, so a file
//! that moves or goes takes its mentions with it.

use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// What a backticked token must start with to count as a repository path.
const ROOTS: [&str; 7] = [
    "crates/",
    "examples/",
    "tests/",
    "src/",
    "bench/",
    "benchmark/",
    "vendor/",
];

/// The code spans of one line of Markdown, trimmed: the text between a run
/// of backticks and the next run of the same length.
fn code_spans(line: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let ticks = backtick_run(&rest[open..]);
        let body = &rest[open + ticks..];
        match find_run(body, ticks) {
            Some(close) => {
                spans.push(body[..close].trim());
                rest = &body[close + ticks..];
            }
            None => rest = body,
        }
    }
    spans
}

/// How many backticks `s` starts with.
fn backtick_run(s: &str) -> usize {
    s.len() - s.trim_start_matches('`').len()
}

/// Where in `s` the first run of exactly `ticks` backticks starts.
fn find_run(s: &str, ticks: usize) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = s[from..].find('`') {
        let start = from + i;
        let run = backtick_run(&s[start..]);
        if run == ticks {
            return Some(start);
        }
        from = start + run;
    }
    None
}

#[test]
fn code_spans_pair_backtick_runs_of_equal_length() {
    assert_eq!(code_spans("a `x` b ``y ` z`` c `open"), ["x", "y ` z"]);
}

#[test]
fn every_repo_path_the_documents_name_exists() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(repo.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            // Templates (`BENCH_{engine,faults}.json`), globs and
            // placeholders name families of paths, not one path.
            let paths = code_spans(line).into_iter().filter(|span| {
                ROOTS.iter().any(|root| span.starts_with(root)) && !span.contains(['{', '*', '<'])
            });
            for path in paths {
                checked += 1;
                if !repo.join(path).exists() {
                    missing.push(format!("{doc}:{}: `{path}`", n + 1));
                }
            }
        }
    }
    // The documents name dozens of paths; finding few means the scan broke.
    assert!(checked >= 50, "only {checked} backticked paths found");
    assert!(
        missing.is_empty(),
        "documents name paths that do not exist:\n{}",
        missing.join("\n")
    );
}
