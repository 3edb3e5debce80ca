//! End-to-end region-based queries (§3.2.2's "region-based query" case):
//! spatial restriction, correct answers across strategies, and rewriting
//! with region-union carriers. Both tiers flood such queries, as they do
//! every query.

use ttmqo_core::{run_experiment, ExperimentConfig, Strategy, WorkloadEvent};
use ttmqo_query::{parse_query, EpochAnswer, Query, QueryId};
use ttmqo_sim::{RadioParams, SimConfig, SimTime};

fn q(id: u64, text: &str) -> Query {
    parse_query(QueryId(id), text).unwrap()
}

fn config(strategy: Strategy, epochs: u64) -> ExperimentConfig {
    ExperimentConfig {
        strategy,
        grid_n: 4,
        duration: SimTime::from_ms(epochs * 2048),
        radio: RadioParams::lossless(),
        sim: SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        ..ExperimentConfig::default()
    }
}

/// On the 4×4 grid (20 ft spacing), region(0,0,30,30) holds exactly nodes
/// 1, 4 and 5 (node 0 is the base station and never senses).
const NW_REGION: &str = "region(0, 0, 30, 30)";

#[test]
fn a_flooded_region_or_nodeid_query_answers_from_exactly_the_nodes_it_selects() {
    // Both apps flood the query to every node; every steady epoch holds a
    // row from each node it selects and from no other.
    let restrictions = [(NW_REGION, [1, 4, 5]), ("1 <= nodeid <= 3", [1, 2, 3])];
    for (restriction, selected) in restrictions {
        let text = format!("select nodeid, light where {restriction} epoch duration 2048");
        let workload = vec![WorkloadEvent::pose(0, q(1, &text))];
        for strategy in [Strategy::Baseline, Strategy::InNetOnly] {
            let config = ExperimentConfig {
                field_seed: 5,
                ..config(strategy, 12)
            };
            let report = run_experiment(&config, &workload);
            let answers = &report.answers[&QueryId(1)];
            assert!(answers.len() >= 8, "{strategy}, {restriction}");
            for (epoch, answer) in answers.iter().filter(|(e, _)| *e >= 2 * 2048) {
                let EpochAnswer::Rows(rows) = answer else {
                    panic!("expected rows")
                };
                let ids: Vec<u16> = rows.iter().map(|r| r.node).collect();
                assert_eq!(ids, selected, "{strategy}, {restriction}, epoch {epoch}");
            }
            // Tier 2's nodes that the query never selects nap between
            // firings (§3.2.2); TinyDB has no sleep mode.
            if strategy == Strategy::InNetOnly {
                let slept = report.metrics.total_sleep_ms();
                assert!(slept > 0.0, "{restriction}: no node slept");
            }
        }
    }
}

#[test]
fn region_answers_agree_across_all_strategies() {
    let workload = vec![
        WorkloadEvent::pose(
            0,
            q(
                1,
                &format!("select light where {NW_REGION} epoch duration 2048"),
            ),
        ),
        WorkloadEvent::pose(
            0,
            q(
                2,
                &format!("select max(light) where {NW_REGION} epoch duration 4096"),
            ),
        ),
    ];
    let window = |answers: &[(u64, EpochAnswer)]| {
        answers
            .iter()
            .filter(|(e, _)| (3 * 2048..14 * 2048).contains(e))
            .cloned()
            .collect::<Vec<_>>()
    };
    let mut reference: Option<(Vec<_>, Vec<_>)> = None;
    for strategy in Strategy::ALL {
        let report = run_experiment(&config(strategy, 16), &workload);
        let a1 = window(&report.answers[&QueryId(1)]);
        let a2 = window(&report.answers[&QueryId(2)]);
        assert!(!a1.is_empty(), "{strategy}");
        match &reference {
            None => reference = Some((a1, a2)),
            Some((r1, r2)) => {
                assert_eq!(&a1, r1, "{strategy}: acquisition answers differ");
                assert_eq!(&a2, r2, "{strategy}: aggregation answers differ");
            }
        }
    }
}

#[test]
fn nested_region_query_is_absorbed_and_refiltered() {
    // q2's region contains q1's and fires more often: q1 is covered and
    // absorbed; the base station re-filters q2's wider stream down to q1's
    // rectangle using the nodes' known positions.
    let workload = vec![
        WorkloadEvent::pose(
            0,
            q(
                1,
                "select light where region(0, 0, 30, 30) epoch duration 4096",
            ),
        ),
        WorkloadEvent::pose(
            0,
            q(
                2,
                "select light where region(0, 0, 50, 50) epoch duration 2048",
            ),
        ),
    ];
    let report = run_experiment(&config(Strategy::TwoTier, 16), &workload);
    assert!(
        (report.avg_synthetic_count - 1.0).abs() < 0.2,
        "expected the nested query to be absorbed, got {}",
        report.avg_synthetic_count
    );
    // q1 gets only the NW-corner nodes despite the wider carrier.
    for (epoch, answer) in report.answers[&QueryId(1)]
        .iter()
        .filter(|(e, _)| *e >= 3 * 2048)
    {
        let EpochAnswer::Rows(rows) = answer else {
            panic!()
        };
        let ids: Vec<u16> = rows.iter().map(|r| r.node).collect();
        assert_eq!(ids, vec![1, 4, 5], "epoch {epoch}");
    }
    // q2's region (0..50)² holds the eight nodes at 0/20/40 ft coordinates
    // other than the base station.
    for (epoch, answer) in report.answers[&QueryId(2)]
        .iter()
        .filter(|(e, _)| *e >= 3 * 2048)
    {
        let EpochAnswer::Rows(rows) = answer else {
            panic!()
        };
        let ids: Vec<u16> = rows.iter().map(|r| r.node).collect();
        assert_eq!(ids, vec![1, 2, 4, 5, 6, 8, 9, 10], "epoch {epoch}");
    }

    // The merge-averse case: overlapping but non-nested regions whose union
    // bbox would more than double the qualifying nodes stay separate — the
    // cost model at work.
    let workload2 = vec![
        WorkloadEvent::pose(
            0,
            q(
                1,
                "select light where region(0, 0, 30, 30) epoch duration 2048",
            ),
        ),
        WorkloadEvent::pose(
            0,
            q(
                2,
                "select light where region(10, 10, 50, 50) epoch duration 4096",
            ),
        ),
    ];
    let report2 = run_experiment(&config(Strategy::TwoTier, 12), &workload2);
    assert!(
        report2.avg_synthetic_count > 1.8,
        "bbox-inflating merge must be rejected: {}",
        report2.avg_synthetic_count
    );
}

#[test]
fn disjoint_region_aggregations_stay_separate() {
    // Aggregations over different regions must not merge (§3.1.2's identical
    // row-set requirement extends to the spatial clause).
    let workload = vec![
        WorkloadEvent::pose(
            0,
            q(
                1,
                "select max(light) where region(0, 0, 30, 30) epoch duration 2048",
            ),
        ),
        WorkloadEvent::pose(
            0,
            q(
                2,
                "select max(light) where region(40, 40, 70, 70) epoch duration 2048",
            ),
        ),
    ];
    let report = run_experiment(&config(Strategy::TwoTier, 12), &workload);
    assert!(
        report.avg_synthetic_count > 1.8,
        "different-region MAX queries must stay apart: {}",
        report.avg_synthetic_count
    );
}
