//! The benchmark against its contract: `BENCHMARK.json` and the binary agree,
//! every declared metric is printed under a well-formed name, and the
//! benchmark's source stays off the parts of the product's interface that
//! are about to change.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ttmqo-benchmark");

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        // Where `cargo run` would point it: trace files go to `out/` here.
        .env("CARGO_MANIFEST_DIR", manifest_dir())
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("the benchmark prints UTF-8")
}

/// The `"name": "..."` values inside the array that follows `"<section>": [`.
fn names_in(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("the section's array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("the name closes")].to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_what_the_binary_renders() {
    let committed = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        stdout_of(&["manifest"]),
        "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
    );
    assert_eq!(names_in(&committed, "workloads").len(), 4);
    assert!(names_in(&committed, "end_to_end").len() <= 16);
    assert!(names_in(&committed, "per_layer").len() <= 128);
}

#[test]
fn smoke_runs_print_exactly_the_declared_metrics() {
    let manifest = stdout_of(&["manifest"]);
    for workload in names_in(&manifest, "workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = stdout_of(&["run", "--workload", &workload, "--smoke", "--trace", trace]);
            let result = out.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} --trace {trace}: {result}"
            );
            assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
            // `"<name>": {"value": <number>, "unit": "<unit>"}`
            let printed: Vec<String> = result
                .split("\": {\"value\": ")
                .filter_map(|before| before.rsplit('"').next())
                .map(str::to_string)
                .collect();
            let printed = &printed[..printed.len() - 1]; // the tail after the last value
            assert_eq!(
                printed,
                names_in(&manifest, section),
                "{workload} --trace {trace}"
            );
            assert!(printed.iter().all(|n| well_formed(n)));
            assert!(!result.contains("null"), "a metric is not finite: {result}");
            // The same metrics as `name value unit` lines for a reader.
            for name in printed {
                assert!(
                    out.lines().any(|l| l.starts_with(&format!("{name} "))),
                    "{name} has no line of its own"
                );
            }
        }
        let trace_file = manifest_dir().join(format!("out/trace-{workload}.json"));
        let trace = std::fs::read_to_string(&trace_file).expect("the traced pass wrote its spans");
        assert!(trace.contains("\"name\":\"engine.run_until\""));
    }
}

#[test]
fn expected_fingerprints_cover_every_workload() {
    let expected = std::fs::read_to_string(manifest_dir().join("expected/seed-1.json"))
        .expect("expected/seed-1.json");
    for workload in names_in(&stdout_of(&["manifest"]), "workloads") {
        assert!(
            expected.contains(&format!("\"{workload}\": {{\"cells\":[")),
            "no fingerprint for {workload}"
        );
    }
}

/// Whether `line` (comments stripped) touches a field called `field`: a
/// `.field` access or a `field:` initialiser, but not a `field::` path.
fn touches_field(line: &str, field: &str) -> bool {
    let code = line.split("//").next().unwrap_or("");
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    code.match_indices(field).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let mut after = code[at + field.len()..].chars();
        let (next, next2) = (after.next(), after.next());
        if before.is_some_and(ident) || next.is_some_and(ident) {
            return false; // part of a longer identifier
        }
        before == Some('.') || (next == Some(':') && next2 != Some(':'))
    })
}

/// ROADMAP items 2–3 will fold `ExperimentConfig`'s four observability
/// toggles into one field and reshape `ttmqo-bench`. The benchmark must not
/// need editing when they land, so its source may not name either: every
/// other configuration field comes from `..ExperimentConfig::default()`.
#[test]
fn source_stays_off_the_interface_that_is_about_to_change() {
    assert!(touches_field("config.audit = true;", "audit"));
    assert!(touches_field(
        "    trace: TraceHandle::disabled(),",
        "trace"
    ));
    assert!(!touches_field(
        "use crate::trace::Recorder; // opts.trace",
        "trace"
    ));
    assert!(!touches_field("let traced = per_layer_trace(x);", "trace"));

    let mut checked = 0;
    for entry in std::fs::read_dir(manifest_dir().join("src")).expect("benchmark/src") {
        let path = entry.expect("a directory entry").path();
        let source = std::fs::read_to_string(&path).expect("a source file");
        for (n, line) in source.lines().enumerate() {
            let at = format!("{}:{}", path.display(), n + 1);
            // `ttmqo_benchmark`, this package, is not `ttmqo_bench`.
            assert!(
                !line.replace("ttmqo_benchmark", "").contains("ttmqo_bench"),
                "{at} uses ttmqo-bench"
            );
            for field in ["trace", "timeseries", "profile", "audit"] {
                assert!(!touches_field(line, field), "{at} touches `{field}`");
            }
        }
        checked += 1;
    }
    assert!(checked >= 6, "benchmark/src was not found");
    let cargo = std::fs::read_to_string(manifest_dir().join("Cargo.toml")).expect("Cargo.toml");
    assert!(
        !cargo.contains("crates/bench"),
        "the package depends on ttmqo-bench"
    );
}
