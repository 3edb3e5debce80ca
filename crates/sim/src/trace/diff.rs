//! Trace-divergence localizer: find the first place two runs' traces part
//! ways.
//!
//! Two runs of this simulator with identical configuration produce
//! byte-identical JSON-lines traces — that *is* the determinism contract.
//! So when two traces differ (a baseline vs a candidate binary, or two runs
//! of one config under two non-empty fault plans), the first differing
//! record is the first observable behavioural departure, and everything
//! before it is provably shared history. [`trace_diff`] compares two traces record by
//! record (headers skipped, byte-truncated tails tolerated) and reports:
//!
//! - the first diverging record index, with each side's record decoded into
//!   kind / time / node for display, up to N shared records before it and
//!   up to N records after it on each side;
//! - per-kind record-count deltas over the whole files, which characterize
//!   *how* the runs differ after the split (e.g. one side retries more);
//! - whether either file ended in a truncated partial record.
//!
//! The workflow this powers: when the results gate flags a changed record,
//! re-run both variants with tracing enabled and hand both traces to
//! [`trace_diff`]. `inspect diff <a> <b>` (`examples/inspect.rs`) prints
//! the [`TraceDiff`] of two trace files.

use std::collections::BTreeMap;
use std::fmt;

use super::{parse_line, record_node, trace_lines};

/// One side's record at the divergence point, decoded for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergentRecord {
    /// The raw JSON record line.
    pub line: String,
    /// The record's `ev` kind tag.
    pub kind: Option<String>,
    /// The record's simulation time (`t`), µs.
    pub time_us: Option<u64>,
    /// The node the record names (`node`, else `src`, else `from` — the
    /// precedence [`super::chrome_trace`] uses for its track id). A record
    /// naming none of them, such as `answer-mapped`, has none.
    pub node: Option<u64>,
}

impl DivergentRecord {
    fn decode(line: &str) -> Self {
        let rec = parse_line(line);
        DivergentRecord {
            line: line.to_string(),
            kind: rec.str_at("ev").map(str::to_string),
            time_us: rec.u64_at("t"),
            node: record_node(&rec),
        }
    }
}

impl fmt::Display for DivergentRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kind={} t={}µs node={}",
            self.kind.as_deref().unwrap_or("?"),
            self.time_us.map_or("?".into(), |t| t.to_string()),
            self.node.map_or("?".into(), |n| n.to_string()),
        )
    }
}

/// The first point two traces disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based record index (headers excluded) of the first difference.
    pub index: usize,
    /// Side A's record there (`None`: side A ended first).
    pub a: Option<DivergentRecord>,
    /// Side B's record there (`None`: side B ended first).
    pub b: Option<DivergentRecord>,
    /// The up to N records just before the divergence, which both sides
    /// share.
    pub shared: Vec<String>,
    /// Side A's up to N records after its divergent record.
    pub after_a: Vec<String>,
    /// Side B's up to N records after its divergent record.
    pub after_b: Vec<String>,
}

/// Record-count delta for one event kind between the two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindDelta {
    /// The event kind tag.
    pub kind: String,
    /// Records of this kind in trace A.
    pub count_a: u64,
    /// Records of this kind in trace B.
    pub count_b: u64,
}

/// Result of [`trace_diff`]: divergence point (if any) plus whole-file
/// per-kind statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// Record count in trace A (headers and truncated tail excluded).
    pub records_a: usize,
    /// Record count in trace B.
    pub records_b: usize,
    /// Whether trace A ended in a byte-truncated partial record.
    pub truncated_a: bool,
    /// Whether trace B ended in a byte-truncated partial record.
    pub truncated_b: bool,
    /// Kinds whose record counts differ between the traces, sorted by kind.
    pub kind_deltas: Vec<KindDelta>,
    /// The first differing record, or `None` if the traces agree
    /// byte-for-byte over their full (untruncated) length.
    pub divergence: Option<Divergence>,
}

impl TraceDiff {
    /// Whether the traces are byte-identical over their complete records.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }
}

impl fmt::Display for TraceDiff {
    /// A report for a terminal: the record counts; then, per side, the
    /// shared records before the divergence (`...`), the divergent record
    /// (`>>>`) and the records after it (`+`); then the kinds whose counts
    /// differ. Side A is `a`, side B is `b`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "traces: {} vs {} records",
            self.records_a, self.records_b
        )?;
        for (side, truncated) in [("a", self.truncated_a), ("b", self.truncated_b)] {
            if truncated {
                writeln!(f, "trace {side} ends in a truncated record (dropped)")?;
            }
        }
        let Some(div) = &self.divergence else {
            return writeln!(f, "identical over every complete record");
        };
        writeln!(f, "first divergence at record #{}:", div.index)?;
        for (side, rec, after) in [("a", &div.a, &div.after_a), ("b", &div.b, &div.after_b)] {
            for line in &div.shared {
                writeln!(f, "  {side}  ...  {line}")?;
            }
            match rec {
                Some(r) => writeln!(f, "  {side}  >>>  {r}  {}", r.line)?,
                None => writeln!(f, "  {side}  >>>  (trace ends here)")?,
            }
            for line in after {
                writeln!(f, "  {side}   +   {line}")?;
            }
        }
        writeln!(f, "event-kind count deltas (a vs b):")?;
        for d in &self.kind_deltas {
            writeln!(
                f,
                "  {:<20} {:>8} vs {:>8} ({:+})",
                d.kind,
                d.count_a,
                d.count_b,
                d.count_b as i64 - d.count_a as i64
            )?;
        }
        Ok(())
    }
}

/// Collects the record lines of one trace and counts them per kind: lines
/// without an `ev` field (headers, anything that is not a JSON object) are
/// skipped, and a byte-truncated final line is dropped and flagged.
fn record_lines(text: &str) -> (Vec<&str>, BTreeMap<String, u64>, bool) {
    let (lines, truncated) = trace_lines(text);
    let mut records = Vec::new();
    let mut counts = BTreeMap::new();
    for (line, rec) in lines {
        if let Some(kind) = rec.str_at("ev") {
            records.push(line);
            *counts.entry(kind.to_string()).or_insert(0) += 1;
        }
    }
    (records, counts, truncated)
}

/// Compares two JSON-lines traces and localizes their first divergence.
///
/// Records are compared byte-for-byte in order — byte equality is exactly
/// the engine's determinism contract, so the first differing record is the
/// first observable behavioural difference between the runs. `context` is
/// the number of records to include before and after the divergence point
/// in each side's context window.
pub fn trace_diff(a: &str, b: &str, context: usize) -> TraceDiff {
    let (recs_a, counts_a, truncated_a) = record_lines(a);
    let (recs_b, counts_b, truncated_b) = record_lines(b);
    let mut kinds: Vec<&String> = counts_a.keys().chain(counts_b.keys()).collect();
    kinds.sort();
    kinds.dedup();
    let kind_deltas: Vec<KindDelta> = kinds
        .into_iter()
        .filter_map(|k| {
            let ca = counts_a.get(k).copied().unwrap_or(0);
            let cb = counts_b.get(k).copied().unwrap_or(0);
            (ca != cb).then(|| KindDelta {
                kind: k.clone(),
                count_a: ca,
                count_b: cb,
            })
        })
        .collect();

    let shared = recs_a.len().min(recs_b.len());
    let split = (0..shared)
        .find(|&i| recs_a[i] != recs_b[i])
        .or((recs_a.len() != recs_b.len()).then_some(shared));

    let divergence = split.map(|index| {
        let owned = |recs: &[&str]| -> Vec<String> { recs.iter().map(|s| s.to_string()).collect() };
        let after = |recs: &[&str]| {
            let from = (index + 1).min(recs.len());
            owned(&recs[from..recs.len().min(from.saturating_add(context))])
        };
        Divergence {
            index,
            a: recs_a.get(index).map(|l| DivergentRecord::decode(l)),
            b: recs_b.get(index).map(|l| DivergentRecord::decode(l)),
            shared: owned(&recs_a[index.saturating_sub(context)..index]),
            after_a: after(&recs_a),
            after_b: after(&recs_b),
        }
    });

    TraceDiff {
        records_a: recs_a.len(),
        records_b: recs_b.len(),
        truncated_a,
        truncated_b,
        kind_deltas,
        divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::super::trace_header;
    use super::*;

    fn rec(t: u64, ev: &str, node: u64) -> String {
        format!("{{\"t\":{t},\"ev\":\"{ev}\",\"node\":{node}}}")
    }

    fn trace_of(recs: &[String]) -> String {
        let mut s = trace_header();
        s.push('\n');
        for r in recs {
            s.push_str(r);
            s.push('\n');
        }
        s
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let t = trace_of(&[rec(10, "frame-tx", 1), rec(20, "frame-rx", 2)]);
        let d = trace_diff(&t, &t, 3);
        assert!(d.identical());
        assert_eq!(d.records_a, 2);
        assert_eq!(d.records_b, 2);
        assert!(d.kind_deltas.is_empty());
    }

    #[test]
    fn first_differing_record_is_named_with_kind_time_node() {
        let base = vec![rec(10, "frame-tx", 1), rec(20, "frame-rx", 2)];
        let mut forked = base.clone();
        forked.push(rec(30, "fault-crash", 7));
        let mut diverged = base.clone();
        diverged.push(rec(31, "frame-tx", 4));
        let d = trace_diff(&trace_of(&forked), &trace_of(&diverged), 1);
        let div = d.divergence.expect("diverges at index 2");
        assert_eq!(div.index, 2);
        let a = div.a.expect("side A has a record");
        assert_eq!(a.kind.as_deref(), Some("fault-crash"));
        assert_eq!(a.time_us, Some(30));
        assert_eq!(a.node, Some(7));
        let b = div.b.expect("side B has a record");
        assert_eq!(b.kind.as_deref(), Some("frame-tx"));
        // Context: the 1 shared record before; nothing after on either side.
        assert_eq!(div.shared, vec![base[1].clone()]);
        assert!(div.after_a.is_empty() && div.after_b.is_empty());
        // Count deltas name both changed kinds.
        assert_eq!(d.kind_deltas.len(), 2);
        assert_eq!(d.kind_deltas[0].kind, "fault-crash");
        assert_eq!((d.kind_deltas[0].count_a, d.kind_deltas[0].count_b), (1, 0));
        assert_eq!(d.kind_deltas[1].kind, "frame-tx");
        assert_eq!((d.kind_deltas[1].count_a, d.kind_deltas[1].count_b), (1, 2));
    }

    #[test]
    fn a_record_naming_no_node_reports_none() {
        let answer = |user| {
            format!(
                "{{\"t\":5,\"ev\":\"answer-mapped\",\"user\":{user},\"synthetic\":9,\
                 \"epoch_ms\":0,\"rows\":1,\"nonempty\":true,\"latency_ms\":5}}"
            )
        };
        let d = trace_diff(&trace_of(&[answer(3)]), &trace_of(&[answer(4)]), 0);
        let div = d.divergence.expect("the user ids differ");
        let a = div.a.expect("side A has a record");
        assert_eq!(a.kind.as_deref(), Some("answer-mapped"));
        assert_eq!(a.node, None, "a user query id is not a node");
        assert!(a.to_string().ends_with("node=?"), "{a}");
    }

    #[test]
    fn prefix_trace_diverges_where_the_shorter_side_ends() {
        let long = vec![rec(10, "frame-tx", 1), rec(20, "frame-rx", 2)];
        let short = vec![rec(10, "frame-tx", 1)];
        let d = trace_diff(&trace_of(&long), &trace_of(&short), 2);
        let div = d.divergence.expect("length mismatch diverges");
        assert_eq!(div.index, 1);
        assert!(div.a.is_some());
        assert!(div.b.is_none(), "side B ended first");
        assert_eq!(div.shared, vec![short[0].clone()]); // the record before the end
        assert!(div.after_a.is_empty() && div.after_b.is_empty());
    }

    #[test]
    fn display_prints_each_divergent_record_once_after_the_shared_ones() {
        let shared: Vec<String> = (0..4).map(|i| rec(i, "frame-tx", i)).collect();
        let side = |ev: &str| {
            let mut recs = shared.clone();
            recs.extend((10..14).map(|t| rec(t, ev, t)));
            trace_of(&recs)
        };
        let (a, b) = (side("epoch-fire"), side("fault-crash"));
        for context in [0, 2, 4, 9, usize::MAX] {
            let text = trace_diff(&a, &b, context).to_string();
            for (label, ev) in [("a", "epoch-fire"), ("b", "fault-crash")] {
                let lines: Vec<&str> = text
                    .lines()
                    .filter(|l| l.starts_with(&format!("  {label}  ")))
                    .collect();
                let marked = |m: &str| lines.iter().filter(|l| l.contains(m)).count();
                assert_eq!(marked(">>>"), 1, "{text}");
                let at = lines.iter().position(|l| l.contains(">>>")).unwrap();
                assert_eq!(at, context.min(4), "{text}");
                assert!(lines[at].contains(&format!("kind={ev} t=10µs")), "{text}");
                // Records after the split follow it, never precede it.
                assert!(lines[..at].iter().all(|l| l.contains("frame-tx")));
                assert_eq!(lines.len() - at - 1, context.min(3), "{text}");
            }
        }
    }

    #[test]
    fn headers_and_blank_lines_are_not_records() {
        let a = trace_of(&[rec(10, "frame-tx", 1)]);
        let b = format!("\n{}\n", trace_of(&[rec(10, "frame-tx", 1)]));
        assert!(trace_diff(&a, &b, 2).identical());
    }

    #[test]
    fn byte_truncated_tail_is_tolerated_and_flagged() {
        let full = trace_of(&[rec(10, "frame-tx", 1), rec(20, "frame-rx", 2)]);
        // Chop the file mid-way through the final record.
        let cut = &full[..full.len() - 7];
        assert!(!cut.ends_with('\n'));
        let d = trace_diff(&full, cut, 2);
        assert!(d.truncated_b);
        assert!(!d.truncated_a);
        assert_eq!(d.records_b, 1, "partial record excluded");
        // The complete prefix matches; divergence is the missing record.
        let div = d.divergence.expect("shorter side diverges at its end");
        assert_eq!(div.index, 1);
        assert!(div.b.is_none());
    }
}
