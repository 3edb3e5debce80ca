//! Cross-cell rollup of a campaign's records.
//!
//! [`CampaignRollup::from_records`] aggregates the per-cell records into
//! per-axis marginals (workload / strategy / grid / fault), top-N hotspot
//! cells, and campaign totals, serialized as the single
//! `campaign-report.json` object ([`CampaignRollup::to_json`]) plus a human
//! markdown summary ([`CampaignRollup::to_markdown`]). Every marginal is an
//! exact sum (or min/max) over the records it covers — integer counters
//! reconcile exactly, f64 sums fold in deterministic cell order. Host time
//! is left out — a rollup never reads `CellRecord::wall_clock_ms` — so both
//! renderings are a pure function of the simulated records, and CI gates
//! the observatory's `campaign-report.json` with `diff`.
//!
//! The standing invariant auditor lives in [`ttmqo_sim::AuditReport`] and is
//! wired through [`ExperimentConfig::observe`](crate::ExperimentConfig::observe);
//! the rollup carries its violation totals.

use crate::campaign::{CampaignReport, CellRecord};
use crate::runner::Strategy;
use ttmqo_sim::json::{self, Obj};
use ttmqo_sim::SCHEMA_VERSION;

/// How many hotspot cells a rollup keeps.
pub const HOTSPOT_TOP_N: usize = 5;

/// One axis value's aggregate over the cell records that carry it: exact
/// sums of the integer counters, deterministic-order sums of the f64
/// fields, min/max where a sum is meaningless.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisMarginal {
    /// The axis value (a workload name, a strategy name, a grid side
    /// rendered as text, a fault-plan name).
    pub key: String,
    /// Cells aggregated.
    pub cells: usize,
    /// Sum of engine events processed.
    pub events_processed: u64,
    /// Sum of timer-phase engine events.
    pub timer_events: u64,
    /// Sum of deliver-phase engine events.
    pub deliver_events: u64,
    /// Sum of command-phase engine events.
    pub command_events: u64,
    /// Sum of maintenance-phase engine events.
    pub maintenance_events: u64,
    /// Sum of fault-phase engine events.
    pub fault_events: u64,
    /// Sum of `(query, epoch)` answers attributed to user queries.
    pub answer_epochs: u64,
    /// Sum of whole-run energy, mJ.
    pub energy_mj: f64,
    /// Max over the cells' hottest-node energies, mJ.
    pub max_node_energy_mj: f64,
    /// Worst per-query epoch completeness across the cells.
    pub min_epoch_ratio: f64,
    /// Sum of repairs triggered.
    pub repairs_triggered: u64,
    /// Sum of audit violations (0 when the cells ran unaudited).
    pub audit_violations: u64,
}

impl AxisMarginal {
    fn new(key: String) -> Self {
        AxisMarginal {
            key,
            cells: 0,
            events_processed: 0,
            timer_events: 0,
            deliver_events: 0,
            command_events: 0,
            maintenance_events: 0,
            fault_events: 0,
            answer_epochs: 0,
            energy_mj: 0.0,
            max_node_energy_mj: 0.0,
            min_epoch_ratio: 1.0,
            repairs_triggered: 0,
            audit_violations: 0,
        }
    }

    fn add(&mut self, rec: &CellRecord) {
        self.cells += 1;
        self.events_processed += rec.engine.events_processed;
        self.timer_events += rec.engine.timer_events;
        self.deliver_events += rec.engine.deliver_events;
        self.command_events += rec.engine.command_events;
        self.maintenance_events += rec.engine.maintenance_events;
        self.fault_events += rec.engine.fault_events;
        self.answer_epochs += rec.answer_epochs as u64;
        self.energy_mj += rec.energy_mj;
        self.max_node_energy_mj = self.max_node_energy_mj.max(rec.max_node_energy_mj);
        self.min_epoch_ratio = self.min_epoch_ratio.min(rec.completeness.min_epoch_ratio());
        self.repairs_triggered += rec.completeness.repairs_triggered;
        self.audit_violations += cell_violations(rec);
    }

    fn write(&self, o: &mut Obj<'_>) {
        // Exhaustive destructuring: every marginal field gets a
        // serialization decision or the build breaks.
        let AxisMarginal {
            key,
            cells,
            events_processed,
            timer_events,
            deliver_events,
            command_events,
            maintenance_events,
            fault_events,
            answer_epochs,
            energy_mj,
            max_node_energy_mj,
            min_epoch_ratio,
            repairs_triggered,
            audit_violations,
        } = self;
        o.str("key", key);
        o.u64("cells", *cells as u64);
        o.u64("events_processed", *events_processed);
        o.u64("timer_events", *timer_events);
        o.u64("deliver_events", *deliver_events);
        o.u64("command_events", *command_events);
        o.u64("maintenance_events", *maintenance_events);
        o.u64("fault_events", *fault_events);
        o.u64("answer_epochs", *answer_epochs);
        o.f64("energy_mj", *energy_mj);
        o.f64("max_node_energy_mj", *max_node_energy_mj);
        o.f64("min_epoch_ratio", *min_epoch_ratio);
        o.u64("repairs_triggered", *repairs_triggered);
        o.u64("audit_violations", *audit_violations);
    }
}

/// One of the campaign's most expensive cells, by engine events processed
/// (a deterministic cost proxy — wall time would rank differently on every
/// machine).
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotCell {
    /// Position in the deterministic cell order.
    pub index: usize,
    /// Workload name.
    pub workload: String,
    /// Strategy coordinate.
    pub strategy: Strategy,
    /// Grid-side coordinate.
    pub grid_n: usize,
    /// Field-seed coordinate.
    pub field_seed: u64,
    /// Fault-plan name.
    pub fault: String,
    /// Engine events the cell processed (the ranking key).
    pub events_processed: u64,
}

impl HotspotCell {
    fn write(&self, o: &mut Obj<'_>) {
        let HotspotCell {
            index,
            workload,
            strategy,
            grid_n,
            field_seed,
            fault,
            events_processed,
        } = self;
        o.u64("index", *index as u64);
        o.str("workload", workload);
        o.str("strategy", &strategy.to_string());
        o.u64("grid_n", *grid_n as u64);
        o.u64("field_seed", *field_seed);
        o.str("fault", fault);
        o.u64("events_processed", *events_processed);
    }
}

/// Audit violations carried by one cell record (0 when unaudited).
fn cell_violations(rec: &CellRecord) -> u64 {
    rec.audit.as_ref().map_or(0, |a| a.violations.len() as u64)
}

/// Cross-cell aggregation of a campaign: totals, per-axis marginals, and
/// the top-[`HOTSPOT_TOP_N`] hotspot cells — the `campaign-report.json`
/// document.
///
/// Every integer field is an exact sum over the records; each axis's
/// marginals therefore partition the totals (the sum of any axis's
/// `events_processed` equals the campaign's `events_processed`, and so on
/// for every summed counter). The f64 sums fold in deterministic cell
/// order, so recomputing them from the same records is bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRollup {
    /// Cells aggregated.
    pub cells: usize,
    /// Cells that carried an [`ttmqo_sim::AuditReport`].
    pub audited_cells: usize,
    /// Total audit violations across every record.
    pub audit_violations: u64,
    /// Sum of engine events processed.
    pub events_processed: u64,
    /// Sum of `(query, epoch)` answers attributed to user queries.
    pub answer_epochs: u64,
    /// Sum of whole-run energy, mJ.
    pub energy_mj: f64,
    /// Max over the cells' hottest-node energies, mJ.
    pub max_node_energy_mj: f64,
    /// Marginals over the workload axis, first-seen order.
    pub by_workload: Vec<AxisMarginal>,
    /// Marginals over the strategy axis, first-seen order.
    pub by_strategy: Vec<AxisMarginal>,
    /// Marginals over the grid-size axis, first-seen order.
    pub by_grid: Vec<AxisMarginal>,
    /// Marginals over the fault-plan axis, first-seen order.
    pub by_fault: Vec<AxisMarginal>,
    /// The campaign's most expensive cells by `events_processed`
    /// (deterministic; ties break toward the earlier cell index).
    pub hotspots: Vec<HotspotCell>,
}

impl CampaignRollup {
    /// Aggregates `records` (in campaign cell order — index `i` of the
    /// slice is cell index `i`).
    pub fn from_records(records: &[CellRecord]) -> Self {
        let mut rollup = CampaignRollup {
            cells: records.len(),
            audited_cells: 0,
            audit_violations: 0,
            events_processed: 0,
            answer_epochs: 0,
            energy_mj: 0.0,
            max_node_energy_mj: 0.0,
            by_workload: Vec::new(),
            by_strategy: Vec::new(),
            by_grid: Vec::new(),
            by_fault: Vec::new(),
            hotspots: Vec::new(),
        };
        fn axis_add(axis: &mut Vec<AxisMarginal>, key: String, rec: &CellRecord) {
            match axis.iter_mut().find(|m| m.key == key) {
                Some(m) => m.add(rec),
                None => {
                    let mut m = AxisMarginal::new(key);
                    m.add(rec);
                    axis.push(m);
                }
            }
        }
        for rec in records {
            rollup.events_processed += rec.engine.events_processed;
            rollup.answer_epochs += rec.answer_epochs as u64;
            rollup.energy_mj += rec.energy_mj;
            rollup.max_node_energy_mj = rollup.max_node_energy_mj.max(rec.max_node_energy_mj);
            if rec.audit.is_some() {
                rollup.audited_cells += 1;
            }
            rollup.audit_violations += cell_violations(rec);
            axis_add(&mut rollup.by_workload, rec.workload.clone(), rec);
            axis_add(&mut rollup.by_strategy, rec.strategy.to_string(), rec);
            axis_add(&mut rollup.by_grid, rec.grid_n.to_string(), rec);
            axis_add(&mut rollup.by_fault, rec.fault.clone(), rec);
        }
        let mut ranked: Vec<usize> = (0..records.len()).collect();
        ranked.sort_by(|&a, &b| {
            records[b]
                .engine
                .events_processed
                .cmp(&records[a].engine.events_processed)
                .then(a.cmp(&b))
        });
        rollup.hotspots = ranked
            .into_iter()
            .take(HOTSPOT_TOP_N)
            .map(|i| {
                let rec = &records[i];
                HotspotCell {
                    index: i,
                    workload: rec.workload.clone(),
                    strategy: rec.strategy,
                    grid_n: rec.grid_n,
                    field_seed: rec.field_seed,
                    fault: rec.fault.clone(),
                    events_processed: rec.engine.events_processed,
                }
            })
            .collect();
        rollup
    }

    /// Whether no audited cell reported a violation. An unaudited campaign
    /// is vacuously clean — gate on `audited_cells` too if auditing was
    /// supposed to be on.
    pub fn is_clean(&self) -> bool {
        self.audit_violations == 0
    }

    /// The single `campaign-report.json` object. Every leaf is
    /// deterministic, so the same records render the same bytes.
    pub fn to_json(&self) -> String {
        // Exhaustive destructuring (the MetricsSnapshot idiom).
        let CampaignRollup {
            cells,
            audited_cells,
            audit_violations,
            events_processed,
            answer_epochs,
            energy_mj,
            max_node_energy_mj,
            by_workload,
            by_strategy,
            by_grid,
            by_fault,
            hotspots,
        } = self;
        json::object(|o| {
            o.u64("schema_version", SCHEMA_VERSION as u64);
            o.u64("cells", *cells as u64);
            o.u64("audited_cells", *audited_cells as u64);
            o.u64("audit_violations", *audit_violations);
            o.u64("events_processed", *events_processed);
            o.u64("answer_epochs", *answer_epochs);
            o.f64("energy_mj", *energy_mj);
            o.f64("max_node_energy_mj", *max_node_energy_mj);
            for (name, axis) in [
                ("by_workload", by_workload),
                ("by_strategy", by_strategy),
                ("by_grid", by_grid),
                ("by_fault", by_fault),
            ] {
                o.arr(name, |a| axis.iter().for_each(|m| a.obj(|o| m.write(o))));
            }
            o.arr("hotspots", |a| {
                hotspots.iter().for_each(|h| a.obj(|o| h.write(o)));
            });
        })
    }

    /// Human markdown summary: campaign totals, one table per axis, and
    /// the hotspot table. Deterministic like [`CampaignRollup::to_json`].
    pub fn to_markdown(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("# Campaign report\n\n");
        out.push_str(&format!(
            "- cells: {} ({} audited, {} audit violations)\n",
            self.cells, self.audited_cells, self.audit_violations
        ));
        out.push_str(&format!(
            "- engine events: {}, answer epochs: {}\n",
            self.events_processed, self.answer_epochs
        ));
        out.push_str(&format!(
            "- energy: {:.1} mJ total, {:.1} mJ hottest node\n",
            self.energy_mj, self.max_node_energy_mj
        ));
        for (title, axis) in [
            ("By workload", &self.by_workload),
            ("By strategy", &self.by_strategy),
            ("By grid", &self.by_grid),
            ("By fault", &self.by_fault),
        ] {
            out.push_str(&format!("\n## {title}\n\n"));
            out.push_str(
                "| key | cells | events | answers | energy mJ | min epoch ratio | repairs | violations |\n\
                 |---|---|---|---|---|---|---|---|\n",
            );
            for m in axis {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {:.1} | {:.3} | {} | {} |\n",
                    m.key,
                    m.cells,
                    m.events_processed,
                    m.answer_epochs,
                    m.energy_mj,
                    m.min_epoch_ratio,
                    m.repairs_triggered,
                    m.audit_violations,
                ));
            }
        }
        out.push_str("\n## Hotspots (by engine events)\n\n");
        out.push_str(
            "| cell | workload | strategy | grid | fault | events |\n\
             |---|---|---|---|---|---|\n",
        );
        for h in &self.hotspots {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                h.index, h.workload, h.strategy, h.grid_n, h.fault, h.events_processed,
            ));
        }
        out
    }
}

impl CampaignReport {
    /// The cross-cell rollup of this campaign's records (see
    /// [`CampaignRollup::from_records`]).
    pub fn rollup(&self) -> CampaignRollup {
        CampaignRollup::from_records(&self.cells)
    }

    /// Total audit violations across every cell record (0 when the
    /// campaign ran unaudited).
    pub fn audit_violations(&self) -> u64 {
        self.cells.iter().map(cell_violations).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_sim::{AuditCheck, AuditReport, AuditViolation, EngineStats};

    fn record(
        workload: &str,
        strategy: Strategy,
        grid_n: usize,
        fault: &str,
        events: u64,
        violations: usize,
    ) -> CellRecord {
        CellRecord {
            workload: workload.to_string(),
            strategy,
            grid_n,
            field_seed: 7,
            fault: fault.to_string(),
            wall_clock_ms: 10.0,
            workload_events: 2,
            queries_answered: 2,
            answer_epochs: 4,
            avg_synthetic_count: 1.0,
            avg_benefit_ratio: 0.0,
            optimizer: None,
            completeness: Default::default(),
            metrics: Default::default(),
            engine: EngineStats {
                events_processed: events,
                timer_events: events,
                ..EngineStats::default()
            },
            trace_file: None,
            energy_mj: 100.0,
            max_node_energy_mj: 10.0,
            audit: (violations > 0).then(|| AuditReport {
                checks_run: 5,
                checks_skipped: 0,
                violations: (0..violations)
                    .map(|i| AuditViolation {
                        check: AuditCheck::PhaseAccounting,
                        subject: format!("seeded {i}"),
                        expected: "0".to_string(),
                        actual: "1".to_string(),
                    })
                    .collect(),
            }),
        }
    }

    fn sample_records() -> Vec<CellRecord> {
        vec![
            record("A", Strategy::Baseline, 4, "none", 100, 0),
            record("A", Strategy::TwoTier, 4, "none", 80, 0),
            record("B", Strategy::Baseline, 8, "crash", 400, 2),
            record("B", Strategy::TwoTier, 8, "crash", 300, 0),
        ]
    }

    #[test]
    fn marginals_partition_the_totals_on_every_axis() {
        let records = sample_records();
        let rollup = CampaignRollup::from_records(&records);
        assert_eq!(rollup.cells, 4);
        assert_eq!(rollup.events_processed, 880);
        assert_eq!(rollup.answer_epochs, 16);
        assert_eq!(rollup.audited_cells, 1);
        assert_eq!(rollup.audit_violations, 2);
        assert!(!rollup.is_clean());
        for axis in [
            &rollup.by_workload,
            &rollup.by_strategy,
            &rollup.by_grid,
            &rollup.by_fault,
        ] {
            assert_eq!(
                axis.iter().map(|m| m.events_processed).sum::<u64>(),
                rollup.events_processed
            );
            assert_eq!(axis.iter().map(|m| m.cells).sum::<usize>(), rollup.cells);
            assert_eq!(
                axis.iter().map(|m| m.audit_violations).sum::<u64>(),
                rollup.audit_violations
            );
        }
        // First-seen axis order follows cell order.
        assert_eq!(rollup.by_workload[0].key, "A");
        assert_eq!(rollup.by_strategy[0].key, "baseline");
        assert_eq!(rollup.by_fault[1].key, "crash");
    }

    #[test]
    fn hotspots_rank_by_events_with_index_tiebreak() {
        let mut records = sample_records();
        records.push(record("C", Strategy::Baseline, 4, "none", 400, 0));
        let rollup = CampaignRollup::from_records(&records);
        assert_eq!(rollup.hotspots.len(), 5);
        // 400 (index 2) ties 400 (index 4): the earlier cell wins.
        assert_eq!(rollup.hotspots[0].index, 2);
        assert_eq!(rollup.hotspots[1].index, 4);
        assert_eq!(rollup.hotspots[2].events_processed, 300);
        // Top-N clamps to the record count.
        let small = CampaignRollup::from_records(&records[..2]);
        assert_eq!(small.hotspots.len(), 2);
    }

    #[test]
    fn rollup_json_is_wellformed_and_single_line() {
        let rollup = CampaignRollup::from_records(&sample_records());
        let json = rollup.to_json();
        assert!(json.starts_with("{\"schema_version\":"));
        assert!(!json.contains('\n'));
        assert!(json.contains("\"audit_violations\":2"));
        assert!(json.contains("\"by_strategy\":[{\"key\":\"baseline\""));
        assert!(json.contains("\"hotspots\":[{\"index\":2"));
        assert!(json::parse(&json).is_ok());

        let md = rollup.to_markdown();
        assert!(md.contains("# Campaign report"));
        assert!(md.contains("## By strategy"));
        assert!(md.contains("| two-tier |"));
        assert!(md.contains("## Hotspots"));
    }

    #[test]
    fn empty_campaign_rolls_up_to_zeroes() {
        let rollup = CampaignRollup::from_records(&[]);
        assert_eq!(rollup.cells, 0);
        assert!(rollup.hotspots.is_empty());
        assert!(rollup.is_clean());
        let json = rollup.to_json();
        assert!(json.contains("\"by_workload\":[]"));
        assert!(json.contains("\"hotspots\":[]"));
    }
}
