//! Run comparison: field-by-field diffs of reports with threshold verdicts.
//!
//! Two inputs share one machinery: single JSON reports (the benches'
//! `BENCH_*.json`) and campaign JSON-lines files (one record per cell).
//! Every JSON document is flattened to dotted leaf keys
//! (`metrics.tx_count.result`, `windows[3].gini_tx_busy`) and the two sides
//! are joined key-by-key:
//!
//! * **timing fields** (`wall_s`, `wall_clock_ms`, `events_per_sec`,
//!   `sim_ms_per_wall_s`) get a direction-aware relative threshold — the
//!   simulator is deterministic but the wall clock is not;
//! * **everything else is exact** — counters, metrics, and schema fields of
//!   a deterministic simulation must not drift at all (unsigned integers
//!   compare as `u64`, never through `f64`);
//! * a field present in the baseline but absent in the current run is a
//!   failure (reports must not silently lose fields).
//!
//! The `report_diff` example wraps this module as the CI regression gate
//! against the checked-in baselines under `bench/baselines/`.

use std::collections::BTreeMap;
use std::fmt;
use ttmqo_sim::json::{self, JsonError, JsonValue};

/// Flattens a JSON value into `(dotted key, leaf)` pairs: object fields
/// join with `.`, array elements get `[i]`. Leaves are `Null` / `Bool` /
/// `Uint` / `Num` / `Str`; empty objects and arrays produce no leaves.
pub fn flatten<'a>(value: &JsonValue<'a>) -> Vec<(String, JsonValue<'a>)> {
    fn walk<'a>(prefix: &str, value: &JsonValue<'a>, out: &mut Vec<(String, JsonValue<'a>)>) {
        match value {
            JsonValue::Obj(fields) => {
                for (k, v) in fields {
                    let key = if prefix.is_empty() {
                        k.to_string()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(&key, v, out);
                }
            }
            JsonValue::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(&format!("{prefix}[{i}]"), v, out);
                }
            }
            leaf => out.push((prefix.to_string(), leaf.clone())),
        }
    }
    let mut out = Vec::new();
    walk("", value, &mut out);
    out
}

/// Knobs of a comparison.
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Relative threshold for timing fields (0.25 = 25% drift allowed in
    /// the bad direction). Non-timing fields are always exact.
    pub timing_threshold: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            timing_threshold: 0.25,
        }
    }
}

/// Whether a timing field is better when lower or when higher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    LowerBetter,
    HigherBetter,
}

/// Timing fields are the only fields allowed to drift: wall-clock
/// measurements of a deterministic simulation. Matched on the leaf name so
/// nesting and JSONL record prefixes don't matter.
fn timing_direction(key: &str) -> Option<Direction> {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    match leaf {
        "wall_s" | "topo_build_s" | "wall_clock_ms" => Some(Direction::LowerBetter),
        // Campaign rollup wall aggregates (total_wall_ms, mean_wall_ms,
        // max_wall_ms, cell_wall_ms, ...): wall clock, lower is better.
        _ if leaf.ends_with("_wall_ms") => Some(Direction::LowerBetter),
        "events_per_sec" | "sim_ms_per_wall_s" => Some(Direction::HigherBetter),
        _ => None,
    }
}

/// Verdict for one compared field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Equal (exact fields) or within the threshold (timing fields).
    Pass,
    /// A timing field moved beyond the threshold in the good direction.
    Improved,
    /// A timing field moved beyond the threshold in the bad direction.
    Regressed,
    /// An exact field differs.
    Changed,
    /// Present in the baseline, absent in the current run.
    Missing,
    /// Present only in the current run (informational, not a failure).
    Extra,
}

impl Verdict {
    /// Whether this verdict fails the gate.
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::Changed | Verdict::Missing
        )
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Pass => "pass",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Changed => "CHANGED",
            Verdict::Missing => "MISSING",
            Verdict::Extra => "extra",
        };
        f.write_str(s)
    }
}

/// One compared field.
#[derive(Debug, Clone)]
pub struct FieldDiff {
    /// Dotted leaf key (JSONL: prefixed with the record key).
    pub key: String,
    /// Baseline value, rendered (`None` for [`Verdict::Extra`]).
    pub baseline: Option<String>,
    /// Current value, rendered (`None` for [`Verdict::Missing`]).
    pub current: Option<String>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Result of a comparison: one entry per compared field.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// All field diffs, in baseline order then current-only extras.
    pub diffs: Vec<FieldDiff>,
}

impl CompareReport {
    /// Diffs that fail the gate (regressions, changes, missing fields).
    pub fn failures(&self) -> impl Iterator<Item = &FieldDiff> {
        self.diffs.iter().filter(|d| d.verdict.is_failure())
    }

    /// Whether the comparison passes (no failing diffs).
    pub fn is_pass(&self) -> bool {
        self.failures().next().is_none()
    }

    /// Machine-readable single-line JSON rendering of the whole comparison:
    /// overall pass/fail, the tallies, and one entry per non-`Pass` diff
    /// (`Pass` rows are elided — they carry no information and would bloat
    /// the document linearly in report size).
    pub fn to_json(&self) -> String {
        let CompareReport { diffs } = self;
        json::object(|o| {
            o.u64("schema_version", ttmqo_sim::SCHEMA_VERSION as u64);
            o.str("format", "ttmqo-compare");
            o.u64("fields_compared", diffs.len() as u64);
            o.u64("failures", self.failures().count() as u64);
            o.bool("pass", self.is_pass());
            o.arr("diffs", |a| {
                for d in diffs {
                    let FieldDiff {
                        key,
                        baseline,
                        current,
                        verdict,
                    } = d;
                    if *verdict == Verdict::Pass {
                        continue;
                    }
                    a.obj(|o| {
                        o.str("key", key);
                        for (name, side) in [("baseline", baseline), ("current", current)] {
                            match side {
                                Some(rendered) => o.str(name, rendered),
                                None => o.null(name),
                            }
                        }
                        o.str("verdict", &verdict.to_string());
                        o.bool("failure", verdict.is_failure());
                    });
                }
            });
        })
    }

    /// Human-readable multi-line summary: every non-`Pass` diff, then a
    /// one-line tally.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for d in &self.diffs {
            if d.verdict == Verdict::Pass {
                continue;
            }
            out.push_str(&format!(
                "{:>9}  {}  (baseline: {}, current: {})\n",
                d.verdict.to_string(),
                d.key,
                d.baseline.as_deref().unwrap_or("-"),
                d.current.as_deref().unwrap_or("-"),
            ));
        }
        let failures = self.failures().count();
        out.push_str(&format!(
            "{} fields compared, {} failures\n",
            self.diffs.len(),
            failures
        ));
        out
    }
}

fn leaf_verdict(key: &str, base: &JsonValue, cur: &JsonValue, opts: &CompareOptions) -> Verdict {
    // The standing invariant auditor must stay clean: any nonzero
    // `audit_violations` count in the current run fails the gate outright,
    // and a zero count passes no matter what the baseline recorded.
    if key.rsplit('.').next().unwrap_or(key) == "audit_violations" {
        if let Some(c) = cur.as_f64() {
            return if c == 0.0 {
                Verdict::Pass
            } else {
                Verdict::Regressed
            };
        }
    }
    if let (Some(dir), Some(b), Some(c)) = (timing_direction(key), base.as_f64(), cur.as_f64()) {
        if b == 0.0 {
            // No relative scale to judge against.
            return Verdict::Pass;
        }
        // Campaign rollup wall aggregates of sub-millisecond cells are
        // dominated by scheduler jitter.
        if key
            .rsplit('.')
            .next()
            .is_some_and(|k| k.ends_with("_wall_ms"))
            && b.max(c) <= 1.0
        {
            return Verdict::Pass;
        }
        let rel = (c - b) / b.abs();
        return match dir {
            Direction::LowerBetter if rel > opts.timing_threshold => Verdict::Regressed,
            Direction::LowerBetter if rel < -opts.timing_threshold => Verdict::Improved,
            Direction::HigherBetter if rel < -opts.timing_threshold => Verdict::Regressed,
            Direction::HigherBetter if rel > opts.timing_threshold => Verdict::Improved,
            _ => Verdict::Pass,
        };
    }
    if base == cur {
        Verdict::Pass
    } else {
        Verdict::Changed
    }
}

/// Compares two already-parsed JSON values leaf-by-leaf.
pub fn compare_values(
    baseline: &JsonValue,
    current: &JsonValue,
    opts: &CompareOptions,
) -> CompareReport {
    let base_leaves = flatten(baseline);
    let cur_map: BTreeMap<String, JsonValue> = flatten(current).into_iter().collect();
    let base_keys: BTreeMap<&str, ()> = base_leaves.iter().map(|(k, _)| (k.as_str(), ())).collect();
    let mut diffs = Vec::new();
    for (key, base) in &base_leaves {
        match cur_map.get(key) {
            Some(cur) => diffs.push(FieldDiff {
                key: key.clone(),
                baseline: Some(base.to_string()),
                current: Some(cur.to_string()),
                verdict: leaf_verdict(key, base, cur, opts),
            }),
            None => diffs.push(FieldDiff {
                key: key.clone(),
                baseline: Some(base.to_string()),
                current: None,
                verdict: Verdict::Missing,
            }),
        }
    }
    for (key, cur) in &cur_map {
        if !base_keys.contains_key(key.as_str()) {
            diffs.push(FieldDiff {
                key: key.clone(),
                baseline: None,
                current: Some(cur.to_string()),
                verdict: Verdict::Extra,
            });
        }
    }
    CompareReport { diffs }
}

/// Compares two single-document JSON reports (e.g. `BENCH_engine.json`).
///
/// # Errors
///
/// [`JsonError`] if either side fails to parse.
pub fn compare_json(
    baseline: &str,
    current: &str,
    opts: &CompareOptions,
) -> Result<CompareReport, JsonError> {
    let b = json::parse(baseline)?;
    let c = json::parse(current)?;
    Ok(compare_values(&b, &c, opts))
}

/// Identity of one JSONL record: its `name` field when present, otherwise
/// the composite campaign-cell key, otherwise its position in the file.
fn record_key(value: &JsonValue, index: usize) -> String {
    if let Some(name) = value.str_at("name") {
        return format!("name={name}");
    }
    let composite: Vec<String> = ["workload", "strategy", "grid_n", "field_seed", "fault"]
        .iter()
        .filter_map(|f| value.get(f).map(|v| format!("{f}={v}")))
        .collect();
    if composite.is_empty() {
        format!("record[{index}]")
    } else {
        composite.join(",")
    }
}

fn parse_records(text: &str) -> Result<Vec<(String, JsonValue<'_>)>, JsonError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| JsonError {
            offset: e.offset,
            message: format!("line {}: {}", i + 1, e.message),
        })?;
        out.push((record_key(&value, out.len()), value));
    }
    Ok(out)
}

/// Compares two JSON-lines files (e.g. campaign outputs) record-by-record.
/// Records pair up by their `name` field, or by the composite campaign-cell
/// key (`workload`, `strategy`, `grid_n`, `field_seed`, `fault`), or by
/// position. A baseline record with no partner is a failure.
///
/// # Errors
///
/// [`JsonError`] if any line on either side fails to parse.
pub fn compare_jsonl(
    baseline: &str,
    current: &str,
    opts: &CompareOptions,
) -> Result<CompareReport, JsonError> {
    let base_records = parse_records(baseline)?;
    let cur_records: BTreeMap<String, JsonValue> = parse_records(current)?.into_iter().collect();
    let base_keys: BTreeMap<&str, ()> =
        base_records.iter().map(|(k, _)| (k.as_str(), ())).collect();
    let mut diffs = Vec::new();
    for (key, base) in &base_records {
        match cur_records.get(key) {
            Some(cur) => {
                for mut d in compare_values(base, cur, opts).diffs {
                    d.key = format!("{key}.{}", d.key);
                    diffs.push(d);
                }
            }
            None => diffs.push(FieldDiff {
                key: key.clone(),
                baseline: Some("<record>".to_string()),
                current: None,
                verdict: Verdict::Missing,
            }),
        }
    }
    for key in cur_records.keys() {
        if !base_keys.contains_key(key.as_str()) {
            diffs.push(FieldDiff {
                key: key.clone(),
                baseline: None,
                current: Some("<record>".to_string()),
                verdict: Verdict::Extra,
            });
        }
    }
    Ok(CompareReport { diffs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_joins_fields_with_dots_and_indexes_arrays() {
        let v = json::parse(r#"{"n":2,"nested":{"a":[1,2.5,{"x":"y"}],"b":null,"e":{}},"l":[]}"#)
            .expect("valid JSON");
        let flat: Vec<(String, String)> = flatten(&v)
            .into_iter()
            .map(|(k, v)| (k, v.to_string()))
            .collect();
        let expect = [
            ("n", "2"),
            ("nested.a[0]", "1"),
            ("nested.a[1]", "2.5"),
            ("nested.a[2].x", "\"y\""),
            ("nested.b", "null"),
        ];
        assert_eq!(
            flat,
            expect.map(|(k, v)| (k.to_string(), v.to_string())).to_vec()
        );
    }

    #[test]
    fn malformed_documents_are_typed_errors_not_verdicts() {
        let opts = CompareOptions::default();
        assert!(compare_json("{", "{}", &opts).is_err());
        assert!(compare_json("{}", r#"{"a":1} trailing"#, &opts).is_err());
        let err = compare_jsonl("{\"a\":1}\n{\"a\":}\n", "", &opts).unwrap_err();
        assert!(err.message.starts_with("line 2:"), "{err}");
        assert!(compare_json(&"[".repeat(2_000_000), "[]", &opts).is_err());
    }

    #[test]
    fn integer_leaves_compare_exactly_above_2_pow_53() {
        let opts = CompareOptions::default();
        let r = compare_json(
            r#"{"field_seed":18446744073709551615}"#,
            r#"{"field_seed":18446744073709551614}"#,
            &opts,
        )
        .unwrap();
        assert_eq!(r.diffs[0].verdict, Verdict::Changed);
        assert_eq!(r.diffs[0].baseline.as_deref(), Some("18446744073709551615"));
        assert_eq!(r.diffs[0].current.as_deref(), Some("18446744073709551614"));
        let r = compare_json(
            r#"{"field_seed":9007199254740993}"#,
            r#"{"field_seed":9007199254740993}"#,
            &opts,
        )
        .unwrap();
        assert!(r.is_pass());
        // Timing fields still compare as f64 under the threshold.
        let r = compare_json(
            r#"{"wall_clock_ms":1000}"#,
            r#"{"wall_clock_ms":1100}"#,
            &opts,
        )
        .unwrap();
        assert!(r.is_pass());
    }

    #[test]
    fn exact_fields_must_match_exactly() {
        let opts = CompareOptions::default();
        let r = compare_json(r#"{"tx_frames":100}"#, r#"{"tx_frames":101}"#, &opts).unwrap();
        assert!(!r.is_pass());
        assert_eq!(r.diffs[0].verdict, Verdict::Changed);
        let r = compare_json(r#"{"tx_frames":100}"#, r#"{"tx_frames":100}"#, &opts).unwrap();
        assert!(r.is_pass());
    }

    #[test]
    fn timing_fields_use_a_direction_aware_threshold() {
        let opts = CompareOptions::default();
        // 20% slower wall time: within the 25% budget.
        let r = compare_json(r#"{"wall_s":1.0}"#, r#"{"wall_s":1.2}"#, &opts).unwrap();
        assert!(r.is_pass());
        // 50% slower: regression.
        let r = compare_json(r#"{"wall_s":1.0}"#, r#"{"wall_s":1.5}"#, &opts).unwrap();
        assert_eq!(r.diffs[0].verdict, Verdict::Regressed);
        // 50% faster: improvement, still a pass.
        let r = compare_json(r#"{"wall_s":1.0}"#, r#"{"wall_s":0.5}"#, &opts).unwrap();
        assert_eq!(r.diffs[0].verdict, Verdict::Improved);
        assert!(r.is_pass());
        // Throughput is higher-is-better: halving it is a regression.
        let r = compare_json(
            r#"{"events_per_sec":1000.0}"#,
            r#"{"events_per_sec":500.0}"#,
            &opts,
        )
        .unwrap();
        assert_eq!(r.diffs[0].verdict, Verdict::Regressed);
        let r = compare_json(
            r#"{"events_per_sec":1000.0}"#,
            r#"{"events_per_sec":2000.0}"#,
            &opts,
        )
        .unwrap();
        assert!(r.is_pass());
    }

    #[test]
    fn missing_baseline_fields_fail_and_extras_do_not() {
        let opts = CompareOptions::default();
        let r = compare_json(r#"{"a":1,"b":2}"#, r#"{"a":1}"#, &opts).unwrap();
        assert!(!r.is_pass());
        assert!(r
            .diffs
            .iter()
            .any(|d| d.key == "b" && d.verdict == Verdict::Missing));
        let r = compare_json(r#"{"a":1}"#, r#"{"a":1,"b":2}"#, &opts).unwrap();
        assert!(r.is_pass());
        assert!(r
            .diffs
            .iter()
            .any(|d| d.key == "b" && d.verdict == Verdict::Extra));
    }

    #[test]
    fn jsonl_records_pair_by_name_or_composite_key() {
        let opts = CompareOptions::default();
        // Named records pair regardless of order.
        let base = "{\"name\":\"a\",\"v\":1}\n{\"name\":\"b\",\"v\":2}\n";
        let cur = "{\"name\":\"b\",\"v\":2}\n{\"name\":\"a\",\"v\":1}\n";
        assert!(compare_jsonl(base, cur, &opts).unwrap().is_pass());
        // Campaign-style composite keys.
        let base = "{\"workload\":\"A\",\"strategy\":\"two-tier\",\"grid_n\":4,\"v\":7}\n";
        let cur = "{\"workload\":\"A\",\"strategy\":\"two-tier\",\"grid_n\":4,\"v\":8}\n";
        let r = compare_jsonl(base, cur, &opts).unwrap();
        assert!(!r.is_pass());
        assert!(r
            .diffs
            .iter()
            .any(|d| d.key.contains("strategy=") && d.key.ends_with(".v")));
        // A dropped record is a failure.
        let r = compare_jsonl(base, "", &opts).unwrap();
        assert!(!r.is_pass());
        assert!(r.diffs.iter().any(|d| d.verdict == Verdict::Missing));
    }

    #[test]
    fn rollup_wall_fields_drift_lower_better_with_a_millisecond_floor() {
        let opts = CompareOptions::default();
        // Sub-millisecond on both sides: scheduler jitter, not a signal.
        let r = compare_json(r#"{"mean_wall_ms":0.2}"#, r#"{"mean_wall_ms":0.9}"#, &opts).unwrap();
        assert!(r.is_pass());
        // Above the floor the relative threshold applies, lower-better.
        let r = compare_json(
            r#"{"total_wall_ms":100.0}"#,
            r#"{"total_wall_ms":200.0}"#,
            &opts,
        )
        .unwrap();
        assert_eq!(r.diffs[0].verdict, Verdict::Regressed);
        let r = compare_json(
            r#"{"total_wall_ms":200.0}"#,
            r#"{"total_wall_ms":100.0}"#,
            &opts,
        )
        .unwrap();
        assert_eq!(r.diffs[0].verdict, Verdict::Improved);
        assert!(r.is_pass());
    }

    #[test]
    fn audit_violations_must_be_zero_in_the_current_run() {
        let opts = CompareOptions::default();
        // Nonzero current fails even when the baseline "agrees".
        let r = compare_json(
            r#"{"audit_violations":3}"#,
            r#"{"audit_violations":3}"#,
            &opts,
        )
        .unwrap();
        assert_eq!(r.diffs[0].verdict, Verdict::Regressed);
        // Zero current passes even against a nonzero baseline.
        let r = compare_json(
            r#"{"audit_violations":3}"#,
            r#"{"audit_violations":0}"#,
            &opts,
        )
        .unwrap();
        assert!(r.is_pass());
        // Nested leaves get the same treatment.
        let r = compare_json(
            r#"{"rollup":{"audit_violations":0}}"#,
            r#"{"rollup":{"audit_violations":1}}"#,
            &opts,
        )
        .unwrap();
        assert!(!r.is_pass());
    }

    #[test]
    fn json_rendering_carries_the_verdicts_and_tallies() {
        let opts = CompareOptions::default();
        let r = compare_json(r#"{"a":1,"wall_s":1.0}"#, r#"{"a":2,"wall_s":1.0}"#, &opts).unwrap();
        let json = r.to_json();
        assert!(json::parse(&json).is_ok(), "to_json must emit valid JSON");
        assert!(json.contains("\"fields_compared\":2"));
        assert!(json.contains("\"failures\":1"));
        assert!(json.contains("\"pass\":false"));
        assert!(json.contains("\"verdict\":\"CHANGED\""));
        // Pass rows are elided: wall_s matched, so it must not appear.
        assert!(!json.contains("wall_s"));
    }

    #[test]
    fn threshold_is_configurable() {
        let tight = CompareOptions {
            timing_threshold: 0.05,
        };
        let r = compare_json(r#"{"wall_s":1.0}"#, r#"{"wall_s":1.2}"#, &tight).unwrap();
        assert_eq!(r.diffs[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn summary_lists_failures_and_tallies() {
        let opts = CompareOptions::default();
        let r = compare_json(r#"{"a":1,"wall_s":1.0}"#, r#"{"a":2,"wall_s":1.0}"#, &opts).unwrap();
        let s = r.summary();
        assert!(s.contains("CHANGED"));
        assert!(s.contains("2 fields compared, 1 failures"));
    }
}
