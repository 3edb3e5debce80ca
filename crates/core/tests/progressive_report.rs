//! Each user's two report rows are filed when the user's record leaves the
//! base station's ledger; they must equal what the end-of-run report they
//! replaced computed from the whole run: every user's answers sorted by
//! epoch once the run was over, and completeness counted from a `BTreeMap`
//! of each user's answers by epoch. The reference below is that report,
//! fed by the run's `answer-mapped` trace records in arrival order and by
//! the workload's lives.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use ttmqo_core::{
    ExperimentConfig, RunReport, RunSession, Strategy, WorkloadAction, WorkloadEvent,
};
use ttmqo_query::{parse_query, EpochAnswer, Query, QueryId, Selection};
use ttmqo_sim::{
    FaultPlan, NodeId, QueryCompleteness, SimTime, Topology, TraceEvent, TraceHandle, TraceRecord,
    TraceSink,
};
use ttmqo_tinydb::Srt;
use ttmqo_workloads::{random_workload, workload_end_ms, RandomWorkloadParams};

/// What an answer's trace record tells: `(epoch start ms, rows, non-empty)`.
type Seen = (u64, u64, bool);

/// Keeps the `answer-mapped` records, in arrival order, by user.
#[derive(Default)]
struct Arrivals(Vec<(QueryId, Seen)>);

impl TraceSink for Arrivals {
    fn record(&mut self, rec: &TraceRecord) {
        if let TraceEvent::AnswerMapped {
            user,
            epoch_ms,
            rows,
            nonempty,
            ..
        } = rec.event
        {
            self.0.push((user, (epoch_ms, rows, nonempty)));
        }
    }
}

/// The end-of-run report: answers sorted by epoch, and completeness.
fn reference(
    config: &ExperimentConfig,
    workload: &[WorkloadEvent],
    arrivals: &[(QueryId, Seen)],
) -> (
    BTreeMap<QueryId, Vec<Seen>>,
    BTreeMap<QueryId, QueryCompleteness>,
) {
    let mut answers: BTreeMap<QueryId, Vec<Seen>> = BTreeMap::new();
    for (user, seen) in arrivals {
        answers.entry(*user).or_default().push(*seen);
    }
    for per_query in answers.values_mut() {
        per_query.sort_by_key(|(e, _, _)| *e);
    }

    let duration = config.duration.as_ms();
    let mut events = workload.to_vec();
    events.sort_by_key(|e| e.at);
    events.retain(|e| e.at < config.duration);
    let mut lives: BTreeMap<QueryId, (Query, u64, Option<u64>)> = BTreeMap::new();
    for event in events {
        let t_ms = event.at.as_ms();
        match event.action {
            WorkloadAction::Pose(q) => {
                lives.insert(q.id(), (q, t_ms, None));
            }
            WorkloadAction::Terminate(id) => {
                if let Some(life) = lives.get_mut(&id) {
                    life.2 = Some(t_ms);
                }
            }
        }
    }

    let topo = Topology::grid(config.grid_n).unwrap();
    let schedule = (!config.faults.is_empty()).then(|| config.faults.materialize(&topo));
    let srt = Srt::build(&topo);
    let window_ms = config.innetwork.collection_window_ms(&topo);
    let mut per_query = BTreeMap::new();
    for (uid, (q, posed_ms, terminated_ms)) in &lives {
        let end = terminated_ms.unwrap_or(u64::MAX).min(duration);
        let static_matching: Vec<NodeId> = topo
            .nodes()
            .filter(|&n| n != NodeId::BASE_STATION && srt.node_matches(n, q))
            .collect();
        let by_epoch: BTreeMap<u64, (bool, u64)> = answers
            .get(uid)
            .map(|v| {
                v.iter()
                    .map(|&(e, rows, nonempty)| (e, (nonempty, rows)))
                    .collect()
            })
            .unwrap_or_default();
        let is_acquisition = matches!(q.selection(), Selection::Attributes(_));
        let mut qc = QueryCompleteness::default();
        let step = q.epoch().as_ms();
        let mut e = q.epoch().next_fire_at(posed_ms + 1);
        while e + window_ms < end {
            let alive = static_matching
                .iter()
                .filter(|&&n| schedule.as_ref().is_none_or(|s| s.alive_at(n, e)))
                .count() as u64;
            if alive > 0 {
                qc.expected_epochs += 1;
                if is_acquisition {
                    qc.expected_rows += alive;
                }
                if let Some((nonempty, rows)) = by_epoch.get(&e) {
                    if *nonempty {
                        qc.answered_epochs += 1;
                    }
                    qc.delivered_rows += rows;
                }
            }
            e += step;
        }
        per_query.insert(*uid, qc);
    }
    (answers, per_query)
}

/// Runs `workload` under `config`, stopping at each of `stops` first, and
/// checks its report against the reference.
fn assert_matches_reference(config: &ExperimentConfig, workload: &[WorkloadEvent], stops: &[u64]) {
    let sink = Arc::new(Mutex::new(Arrivals::default()));
    let config = ExperimentConfig {
        observe: ttmqo_sim::Observe {
            trace: TraceHandle::shared(sink.clone()),
            ..ttmqo_sim::Observe::default()
        },
        ..config.clone()
    };
    let mut session = RunSession::new(&config, workload);
    for &t_ms in stops {
        session.run_to(SimTime::from_ms(t_ms));
    }
    let report: RunReport = session.finish();
    let arrivals = std::mem::take(&mut sink.lock().unwrap().0);
    assert!(!arrivals.is_empty(), "nothing was answered");
    let (answers, per_query) = reference(&config, workload, &arrivals);

    let seen = |(e, answer): &(u64, EpochAnswer)| {
        let rows = match answer {
            EpochAnswer::Rows(rows) => rows.len() as u64,
            EpochAnswer::Aggregates(_) => 0,
        };
        (*e, rows, !answer.is_empty())
    };
    let got: BTreeMap<QueryId, Vec<Seen>> = (report.answers.iter())
        .map(|(id, answers)| (*id, answers.iter().map(seen).collect()))
        .collect();
    assert_eq!(got, answers);
    assert_eq!(report.completeness.per_query, per_query);
}

#[test]
fn the_benchmark_churn_stream_files_the_end_of_run_report() {
    // The repo benchmark's `adaptive-churn` inputs, as in `alloc_budget.rs`.
    let workload = random_workload(&RandomWorkloadParams {
        n_queries: 500,
        mean_arrival_ms: 8_000.0,
        target_concurrency: 48.0,
        nodeid_max: 63.0,
        ..RandomWorkloadParams::default()
    });
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 8,
        duration: SimTime::from_ms(workload_end_ms(&workload) + 4096),
        ..ExperimentConfig::default()
    };
    assert_matches_reference(&config, &workload, &[]);
}

fn q(id: u64, text: &str) -> Query {
    parse_query(QueryId(id), text).unwrap()
}

#[test]
fn a_faulty_repairing_run_files_the_end_of_run_report() {
    // The run of `repair_monitor_forgets_what_the_audit_has_passed`: crashes
    // next to the base station keep the repair monitor busy all run.
    let workload = vec![
        WorkloadEvent::pose(0, q(0, "select light epoch duration 2048")),
        WorkloadEvent::pose(
            0,
            q(1, "select light where 200<light<700 epoch duration 2048"),
        ),
        WorkloadEvent::pose(0, q(2, "select temp epoch duration 4096")),
        WorkloadEvent::pose(0, q(3, "select light where 4<nodeid<6 epoch duration 2048")),
        WorkloadEvent::terminate(60 * 2048, QueryId(1)),
    ];
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(200 * 2048),
        faults: FaultPlan::scripted(vec![
            (NodeId(1), 20 * 2048, Some(60 * 2048)),
            (NodeId(4), 30 * 2048, Some(90 * 2048)),
            (NodeId(5), 40 * 2048, None),
            (NodeId(6), 100 * 2048, Some(130 * 2048)),
        ]),
        ..ExperimentConfig::default()
    };
    assert_matches_reference(&config, &workload, &[]);
}

#[test]
fn a_run_stopped_at_odd_instants_files_the_end_of_run_report() {
    // Twelve users, eight of them terminated, some at an instant the run
    // stops on or a millisecond either side of one.
    let texts = [
        "select light epoch duration 2048",
        "select light where 200<light<700 epoch duration 4096",
        "select max(temp) epoch duration 2048",
        "select temp, light where 4<nodeid<12 epoch duration 6144",
    ];
    let mut workload = Vec::new();
    for id in 0..12u64 {
        let posed_ms = id * 1_500;
        workload.push(WorkloadEvent::pose(posed_ms, q(id, texts[id as usize % 4])));
        if id % 3 != 2 {
            workload.push(WorkloadEvent::terminate(
                posed_ms + 9_000 + id * 977,
                QueryId(id),
            ));
        }
    }
    let stops = [
        1, 2_047, 9_976, 9_977, 9_978, 13_453, 20_481, 31_337, 40_000,
    ];
    for strategy in Strategy::ALL {
        let config = ExperimentConfig {
            strategy,
            grid_n: 4,
            duration: SimTime::from_ms(24 * 2048),
            ..ExperimentConfig::default()
        };
        assert_matches_reference(&config, &workload, &stops);
    }
}
