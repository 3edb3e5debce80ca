//! Standing invariant auditor: the reconciliation checks that previously
//! lived only inside tests, promoted to a per-run runtime artifact.
//!
//! A deterministic simulator earns trust by being *checkable*: the trace is
//! a faithful record of the run (the provenance test), per-node energy sums
//! to the radio model's total (the metrics test). Those invariants used to
//! be verified once, in CI, on one cell — a week-long 64×64 soak campaign
//! ran on faith. An [`AuditReport`] re-runs
//! them against every audited run's own artifacts and records each breach
//! as a structured [`AuditViolation`], so a sweep that silently produced
//! wrong numbers becomes a sweep that fails loudly.
//!
//! The auditor is strictly *post-hoc*: every check is arithmetic over data
//! the run already produced (counters, reports, trace summaries), which is
//! how it keeps the observer contract stated on [`Observe`](crate::Observe).

use crate::energy::EnergyProfile;
use crate::engine::EngineStats;
use crate::json;
use crate::metrics::{CompletenessReport, Metrics};
use crate::trace::{TraceSummary, SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::fmt;

/// Which invariant a violation (or a skipped check) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditCheck {
    /// Trace-reconstructed per-query answer counts equal the run report's.
    TraceAnswers,
    /// Per-node energy plus sampling energy sums to the model's totals.
    EnergyConservation,
    /// Frame-slab and in-flight high-water marks are mutually consistent.
    SlabSanity,
    /// The per-phase event breakdown sums to `events_processed`.
    PhaseAccounting,
    /// Orphan, repair and completeness accounting agree with the fault plan.
    Completeness,
}

impl AuditCheck {
    /// Every check, in report order.
    pub const ALL: [AuditCheck; 5] = [
        AuditCheck::TraceAnswers,
        AuditCheck::EnergyConservation,
        AuditCheck::SlabSanity,
        AuditCheck::PhaseAccounting,
        AuditCheck::Completeness,
    ];

    /// Stable kebab-case name used in JSON and log lines.
    pub fn name(self) -> &'static str {
        match self {
            AuditCheck::TraceAnswers => "trace-answers",
            AuditCheck::EnergyConservation => "energy-conservation",
            AuditCheck::SlabSanity => "slab-sanity",
            AuditCheck::PhaseAccounting => "phase-accounting",
            AuditCheck::Completeness => "completeness",
        }
    }
}

impl fmt::Display for AuditCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant: which check, on what subject, what the invariant
/// required and what the run actually recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// The invariant that failed.
    pub check: AuditCheck,
    /// What was being reconciled (a counter name, a query id, a node).
    pub subject: String,
    /// The value the invariant requires, rendered.
    pub expected: String,
    /// The value the run recorded, rendered.
    pub actual: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: expected {}, got {}",
            self.check, self.subject, self.expected, self.actual
        )
    }
}

/// Outcome of auditing one run: how many checks ran, how many were skipped
/// for lack of an artifact (no readable trace), and every violation found. An empty `violations` list from a nonzero
/// `checks_run` is the auditor's actual claim; all-skipped means "nothing
/// was verified", not "nothing is wrong".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Checks that executed against a present artifact.
    pub checks_run: u32,
    /// Checks skipped because their artifact was absent or lossy.
    pub checks_skipped: u32,
    /// Every invariant breach found, in check order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// An empty report; feed it checks.
    pub fn new() -> Self {
        AuditReport::default()
    }

    /// Whether every executed check passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate(
        &mut self,
        check: AuditCheck,
        subject: &str,
        expected: impl fmt::Display,
        actual: impl fmt::Display,
    ) {
        self.violations.push(AuditViolation {
            check,
            subject: subject.to_string(),
            expected: expected.to_string(),
            actual: actual.to_string(),
        });
    }

    /// Engine-internal accounting: the per-phase event breakdown must sum
    /// to `events_processed`, and the frame slab's occupancy figures must
    /// be mutually consistent (in-flight ≤ high water ≤ frames ever put on
    /// the air).
    pub fn check_engine(&mut self, engine: &EngineStats) {
        self.checks_run += 1;
        let phase_sum = engine.timer_events
            + engine.deliver_events
            + engine.command_events
            + engine.maintenance_events
            + engine.fault_events;
        if phase_sum != engine.events_processed {
            self.violate(
                AuditCheck::PhaseAccounting,
                "timer+deliver+command+maintenance+fault",
                engine.events_processed,
                phase_sum,
            );
        }
        self.checks_run += 1;
        if engine.frames_in_flight > engine.frame_slab_high_water {
            self.violate(
                AuditCheck::SlabSanity,
                "frames_in_flight <= frame_slab_high_water",
                format!("<= {}", engine.frame_slab_high_water),
                engine.frames_in_flight,
            );
        }
        if (engine.frame_slab_high_water as u64) > engine.frames_total {
            self.violate(
                AuditCheck::SlabSanity,
                "frame_slab_high_water <= frames_total",
                format!("<= {}", engine.frames_total),
                engine.frame_slab_high_water,
            );
        }
    }

    /// Energy conservation: the sum of per-node spend under `profile`, plus
    /// the globally-accounted sampling energy, must equal the reported
    /// whole-run total bit-for-bit, and the reported hotspot must equal the
    /// actual per-node maximum. (The reference values are recomputed from
    /// the same per-node accumulators through the same fold, so a mismatch
    /// means a corrupted counter or a report assembled under the wrong
    /// profile — not float noise.)
    pub fn check_energy(
        &mut self,
        metrics: &Metrics,
        profile: &EnergyProfile,
        reported_total_mj: f64,
        reported_max_node_mj: f64,
    ) {
        self.checks_run += 1;
        let total = metrics.total_energy_mj(profile);
        if total.to_bits() != reported_total_mj.to_bits() {
            self.violate(
                AuditCheck::EnergyConservation,
                "energy_mj",
                total,
                reported_total_mj,
            );
        }
        let max_node = metrics.max_node_energy_mj(profile);
        if max_node.to_bits() != reported_max_node_mj.to_bits() {
            self.violate(
                AuditCheck::EnergyConservation,
                "max_node_energy_mj",
                max_node,
                reported_max_node_mj,
            );
        }
    }

    /// Orphan / repair / completeness consistency: no query answers more
    /// epochs than it expected, repair latencies never outnumber triggered
    /// repairs, and a fault-free run must show zero orphaned nodes and zero
    /// processed fault events.
    pub fn check_completeness(
        &mut self,
        completeness: &CompletenessReport,
        orphaned_nodes: u64,
        fault_events: u64,
        faults_active: bool,
    ) {
        self.checks_run += 1;
        for (qid, qc) in &completeness.per_query {
            if qc.answered_epochs > qc.expected_epochs {
                self.violate(
                    AuditCheck::Completeness,
                    &format!("query {qid} answered_epochs <= expected_epochs"),
                    format!("<= {}", qc.expected_epochs),
                    qc.answered_epochs,
                );
            }
        }
        if (completeness.repair_latency_ms.len() as u64) > completeness.repairs_triggered {
            self.violate(
                AuditCheck::Completeness,
                "repair latencies <= repairs_triggered",
                format!("<= {}", completeness.repairs_triggered),
                completeness.repair_latency_ms.len(),
            );
        }
        if !faults_active {
            if orphaned_nodes != 0 {
                self.violate(
                    AuditCheck::Completeness,
                    "orphaned_nodes under an empty fault plan",
                    0,
                    orphaned_nodes,
                );
            }
            if fault_events != 0 {
                self.violate(
                    AuditCheck::Completeness,
                    "fault_events under an empty fault plan",
                    0,
                    fault_events,
                );
            }
        }
    }

    /// Trace ↔ report reconciliation: per-user-query answer counts
    /// reconstructed from the trace alone must equal the run report's, in
    /// both directions (no phantom trace queries, no untraced answers).
    /// Skipped — not failed — when the trace is known lossy (a
    /// byte-truncated tail, malformed lines): an incomplete record cannot
    /// refute the run.
    pub fn check_trace_answers(
        &mut self,
        summary: &TraceSummary,
        report_answers: &BTreeMap<u64, u64>,
    ) {
        if !summary.is_lossless() {
            self.checks_skipped += 1;
            return;
        }
        self.checks_run += 1;
        for (qid, expected) in report_answers {
            let traced = summary.queries.get(qid).map_or(0, |q| q.answers);
            if traced != *expected {
                self.violate(
                    AuditCheck::TraceAnswers,
                    &format!("query {qid} answers"),
                    expected,
                    traced,
                );
            }
        }
        for (qid, traced) in &summary.queries {
            if !report_answers.contains_key(qid) {
                self.violate(
                    AuditCheck::TraceAnswers,
                    &format!("query {qid} in trace but not in report"),
                    "absent",
                    traced.answers,
                );
            }
        }
    }

    /// One JSON object:
    ///
    /// ```json
    /// {"schema_version":4,"checks_run":4,"checks_skipped":1,"violations":[
    ///   {"check":"phase-accounting","subject":"timer+deliver+command+maintenance+fault",
    ///    "expected":"4000","actual":"4001"}]}
    /// ```
    pub fn to_json(&self) -> String {
        // Exhaustive destructuring: a field added to the report without a
        // serialization decision here is a compile error.
        let AuditReport {
            checks_run,
            checks_skipped,
            violations,
        } = self;
        json::object(|o| {
            o.u64("schema_version", SCHEMA_VERSION as u64);
            o.u64("checks_run", *checks_run as u64);
            o.u64("checks_skipped", *checks_skipped as u64);
            o.arr("violations", |a| {
                for v in violations {
                    let AuditViolation {
                        check,
                        subject,
                        expected,
                        actual,
                    } = v;
                    a.obj(|o| {
                        o.str("check", &check.to_string());
                        o.str("subject", subject);
                        o.str("expected", expected);
                        o.str("actual", actual);
                    });
                }
            });
        })
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: {} checks run, {} skipped, {} violations",
            self.checks_run,
            self.checks_skipped,
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QueryCompleteness;
    use crate::probe::Probe;
    use crate::radio::MsgKind;
    use crate::time::SimTime;
    use crate::trace::QueryTally;

    fn healthy_engine() -> EngineStats {
        EngineStats {
            events_processed: 100,
            frames_total: 40,
            frame_slab_high_water: 4,
            frames_in_flight: 2,
            csma_capped_deferrals: 0,
            timer_events: 60,
            deliver_events: 30,
            command_events: 5,
            maintenance_events: 5,
            fault_events: 0,
        }
    }

    #[test]
    fn healthy_counters_pass_every_check() {
        let mut audit = AuditReport::new();
        audit.check_engine(&healthy_engine());
        assert!(audit.is_clean(), "{audit}");
        assert_eq!(audit.checks_run, 2);
        assert_eq!(audit.checks_skipped, 0);
    }

    #[test]
    fn a_seeded_phase_corruption_is_flagged() {
        // The audit-catches-a-corruption contract: bump one counter and the
        // phase-accounting invariant must name it.
        let mut engine = healthy_engine();
        engine.timer_events += 1;
        let mut audit = AuditReport::new();
        audit.check_engine(&engine);
        assert!(!audit.is_clean());
        assert_eq!(audit.violations.len(), 1);
        assert_eq!(audit.violations[0].check, AuditCheck::PhaseAccounting);
        assert_eq!(audit.violations[0].expected, "100");
        assert_eq!(audit.violations[0].actual, "101");
    }

    #[test]
    fn slab_inconsistencies_are_flagged_individually() {
        let mut engine = healthy_engine();
        engine.frames_in_flight = 9; // > high water
        engine.frames_total = 3; // < high water
        let mut audit = AuditReport::new();
        audit.check_engine(&engine);
        let slab: Vec<_> = audit
            .violations
            .iter()
            .filter(|v| v.check == AuditCheck::SlabSanity)
            .collect();
        assert_eq!(slab.len(), 2);
    }

    #[test]
    fn energy_recomputation_must_match_bit_for_bit() {
        let profile = EnergyProfile::default();
        let mut m = Metrics::new(3);
        m.apply(Probe::tx(0, MsgKind::Result, 30, 400));
        m.apply(Probe::rx(2, 50.0));
        m.apply(Probe::Sample);
        m.set_horizon(SimTime::from_ms(1000));
        let total = m.total_energy_mj(&profile);
        let max_node = m.max_node_energy_mj(&profile);

        let mut audit = AuditReport::new();
        audit.check_energy(&m, &profile, total, max_node);
        assert!(audit.is_clean(), "{audit}");

        // A corrupted report total is a conservation violation.
        let mut audit = AuditReport::new();
        audit.check_energy(&m, &profile, total + 1.0, max_node);
        assert_eq!(audit.violations.len(), 1);
        assert_eq!(audit.violations[0].check, AuditCheck::EnergyConservation);
        assert_eq!(audit.violations[0].subject, "energy_mj");
    }

    #[test]
    fn completeness_checks_cover_orphans_and_overcounts() {
        let mut completeness = CompletenessReport::default();
        completeness.per_query.insert(
            ttmqo_query::QueryId(7),
            QueryCompleteness {
                expected_epochs: 4,
                answered_epochs: 5, // impossible
                expected_rows: 0,
                delivered_rows: 0,
            },
        );
        let mut audit = AuditReport::new();
        audit.check_completeness(&completeness, 1, 2, false);
        // answered > expected, orphans without faults, fault events without
        // a plan: three distinct violations.
        assert_eq!(audit.violations.len(), 3);
        assert!(audit
            .violations
            .iter()
            .all(|v| v.check == AuditCheck::Completeness));
        // With a live fault plan, orphans and fault events are legitimate.
        let mut audit = AuditReport::new();
        audit.check_completeness(&CompletenessReport::default(), 1, 2, true);
        assert!(audit.is_clean());
    }

    #[test]
    fn trace_answer_counts_reconcile_in_both_directions() {
        let mut summary = TraceSummary::default();
        for (qid, answers) in [(1, 10), (2, 4)] {
            let tally = QueryTally {
                answers,
                ..QueryTally::default()
            };
            summary.queries.insert(qid, tally);
        }
        let mut report: BTreeMap<u64, u64> = BTreeMap::new();
        report.insert(1, 10);
        report.insert(2, 4);
        let mut audit = AuditReport::new();
        audit.check_trace_answers(&summary, &report);
        assert!(audit.is_clean());

        // A count drift and a phantom query are both named.
        report.insert(1, 11);
        report.remove(&2);
        let mut audit = AuditReport::new();
        audit.check_trace_answers(&summary, &report);
        assert_eq!(audit.violations.len(), 2);
        assert!(audit.violations.iter().any(|v| v.subject.contains("1")));
        assert!(audit
            .violations
            .iter()
            .any(|v| v.subject.contains("not in report")));
    }

    #[test]
    fn lossy_traces_are_skipped_not_compared() {
        let report: BTreeMap<u64, u64> = [(1, 10)].into_iter().collect();
        for lossy in [
            TraceSummary {
                truncated_tail: true,
                ..TraceSummary::default()
            },
            TraceSummary {
                malformed_lines: 1,
                ..TraceSummary::default()
            },
        ] {
            let mut audit = AuditReport::new();
            audit.check_trace_answers(&lossy, &report);
            assert!(audit.is_clean(), "lossy trace must not fail the audit");
            assert_eq!(audit.checks_run, 0);
            assert_eq!(audit.checks_skipped, 1);
        }
    }

    #[test]
    fn json_is_wellformed_and_carries_every_field() {
        let mut engine = healthy_engine();
        engine.deliver_events += 2;
        let mut audit = AuditReport::new();
        audit.check_engine(&engine);
        let lossy = TraceSummary {
            truncated_tail: true,
            ..TraceSummary::default()
        };
        audit.check_trace_answers(&lossy, &BTreeMap::new());
        let json = audit.to_json();
        assert!(json.starts_with("{\"schema_version\":"));
        assert!(json.contains("\"checks_run\":2"));
        assert!(json.contains("\"checks_skipped\":1"));
        assert!(json.contains("\"check\":\"phase-accounting\""));
        assert!(json::parse(&json).is_ok());
        // Display names every violation.
        assert!(audit.to_string().contains("phase-accounting"));
    }

    #[test]
    fn every_check_has_a_stable_name() {
        assert_eq!(AuditCheck::ALL.len(), 5);
        for check in AuditCheck::ALL {
            assert!(!check.name().is_empty());
            assert!(check.name().is_ascii());
        }
    }
}
