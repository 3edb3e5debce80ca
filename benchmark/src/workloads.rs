//! The four benchmark workloads: their inputs, generated from `--seed`, and
//! one *rep* of each through the product's own runner.
//!
//! A rep is closed-loop batch work: generate the workload, build the session,
//! run to the end, hold the report. The program under test sees only the
//! generated inputs, never the seed's meaning.

use std::fmt::Write as _;
use ttmqo_core::{
    run_campaign_sequential, CampaignReport, CampaignSpec, ExperimentConfig, RunReport, RunSession,
    Strategy, WorkloadEvent,
};
use ttmqo_query::BASE_EPOCH_MS;
use ttmqo_sim::{CompletenessReport, EngineStats, SimTime};
use ttmqo_workloads::{
    random_workload, workload_a, workload_b, workload_c, workload_end_ms, RandomWorkloadParams,
};

/// One benchmark workload. The names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3 whole: A/B/C × {4×4, 8×8} × all four strategies.
    Fig3Campaign,
    /// `workload_a()` on 1 024 nodes under the full two-tier scheme.
    TwoTier32,
    /// The same grid, workload and duration under the TinyDB baseline.
    Baseline32,
    /// 500 random §4.3 queries arriving and leaving on an 8×8 grid.
    AdaptiveChurn,
}

impl Workload {
    /// Every workload, in the order they are listed everywhere.
    pub const ALL: [Workload; 4] = [
        Workload::Fig3Campaign,
        Workload::TwoTier32,
        Workload::Baseline32,
        Workload::AdaptiveChurn,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Campaign => "fig3-campaign",
            Workload::TwoTier32 => "twotier-32x32",
            Workload::Baseline32 => "baseline-32x32",
            Workload::AdaptiveChurn => "adaptive-churn",
        }
    }

    /// Why the workload is in the benchmark (one line, for `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig3Campaign => {
                "the paper's own unit: 24 set-ups, both apps, campaign and report layers; source of the savings numbers"
            }
            Workload::TwoTier32 => {
                "TtmqoApp callbacks do most of the work (about 14 receivers per frame on 1024 nodes)"
            }
            Workload::Baseline32 => {
                "same engine under TinyDbApp with an empty on_overhear: engine gains show, TtmqoApp-only changes must not"
            }
            Workload::AdaptiveChurn => {
                "the most the base-station layers ever get: 1000 Tier-1 calls, install/abort floods, a long sparse timeline"
            }
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64 finalizer: spreads consecutive `--seed` values over the whole
/// space of field seeds.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated inputs of one rep.
#[derive(Debug)]
pub enum Inputs {
    /// A campaign of independent cells.
    Campaign(CampaignSpec),
    /// One pose→answer run.
    Single {
        /// The run's configuration.
        config: ExperimentConfig,
        /// The user-level workload.
        events: Vec<WorkloadEvent>,
    },
}

impl Inputs {
    /// User-level workload events in the inputs.
    pub fn event_count(&self) -> usize {
        match self {
            Inputs::Campaign(spec) => spec.workloads.iter().map(|w| w.events.len()).sum(),
            Inputs::Single { events, .. } => events.len(),
        }
    }
}

/// Generates `workload`'s inputs from `seed`.
///
/// The seed picks the sensor field of the three workloads whose query set is
/// fixed, and so which nodes satisfy which predicate in which epoch. It does
/// not reach the engine's own randomness (`SimConfig::seed`, left at the
/// product's default) nor `adaptive-churn`, whose field and query stream are
/// the product's defaults whatever the seed: on some engine seeds, query
/// streams and fields the simulated network loses a query flood and with it
/// 5–50 % of a run's answers, and a benchmark workload must be one on which
/// no operation fails. `README.md` has the measurements.
///
/// `smoke` shrinks simulated time (4 base epochs, 50 queries) for tests.
pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Inputs {
    let base = |strategy, grid_n, duration_ms| ExperimentConfig {
        strategy,
        grid_n,
        duration: SimTime::from_ms(duration_ms),
        ..ExperimentConfig::default()
    };
    let big_grid = |strategy| Inputs::Single {
        config: ExperimentConfig {
            field_seed: mix(seed),
            ..base(strategy, 32, if smoke { 4 } else { 16 } * BASE_EPOCH_MS)
        },
        events: workload_a(),
    };
    match workload {
        Workload::Fig3Campaign => {
            let epochs = if smoke { 4 } else { 96 };
            Inputs::Campaign(
                CampaignSpec::new(ExperimentConfig {
                    field_seed: mix(seed),
                    ..base(Strategy::TwoTier, 4, epochs * BASE_EPOCH_MS)
                })
                .strategies(Strategy::ALL)
                .grid_sizes([4, 8])
                .workload("A", workload_a())
                .workload("B", workload_b())
                .workload("C", workload_c()),
            )
        }
        Workload::TwoTier32 => big_grid(Strategy::TwoTier),
        Workload::Baseline32 => big_grid(Strategy::Baseline),
        Workload::AdaptiveChurn => {
            let events = random_workload(&RandomWorkloadParams {
                n_queries: if smoke { 50 } else { 500 },
                mean_arrival_ms: 8_000.0,
                target_concurrency: 48.0,
                nodeid_max: 63.0,
                ..RandomWorkloadParams::default()
            });
            Inputs::Single {
                config: base(Strategy::TwoTier, 8, workload_end_ms(&events) + 4096),
                events,
            }
        }
    }
}

/// Set-up alone: builds every session the inputs need, without running any.
pub fn build_sessions(inputs: &Inputs) -> Vec<RunSession> {
    match inputs {
        Inputs::Campaign(spec) => spec
            .cells()
            .iter()
            .map(|cell| {
                RunSession::new(
                    &cell.config(&spec.base),
                    &spec.workloads[cell.workload].events,
                )
            })
            .collect(),
        Inputs::Single { config, events } => vec![RunSession::new(config, events)],
    }
}

/// The held result of one rep through the product's runner.
#[derive(Debug)]
pub enum Held {
    /// The campaign's records and its rendered JSON-lines report.
    Campaign(CampaignReport, String),
    /// One run's report.
    Single(Box<RunReport>),
}

/// Equal slices of simulated time a single run is advanced in, so that a rep
/// can be timed in segments (see `stats::undisturbed_sum`).
const SLICES: u64 = 32;

/// Runs the inputs to the end with the product's own runner, calling `lap`
/// at every segment boundary: once the session is built and after every
/// slice of a single run, after the run proper of a campaign. Stopping at a
/// slice boundary leaves the run bit-identical (`RunSession::run_to`).
pub fn run_product(inputs: &Inputs, lap: &mut dyn FnMut()) -> Held {
    match inputs {
        Inputs::Campaign(spec) => {
            let report = run_campaign_sequential(spec);
            lap();
            let jsonl = report.to_jsonl();
            Held::Campaign(report, jsonl)
        }
        Inputs::Single { config, events } => {
            let mut session = RunSession::new(config, events);
            lap();
            for slice in 1..SLICES {
                session.run_to(SimTime::from_ms(config.duration.as_ms() * slice / SLICES));
                lap();
            }
            Held::Single(Box::new(session.finish()))
        }
    }
}

/// The exact simulated statistics of one cell (one run).
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Workload name inside a campaign (`""` for a single run).
    pub workload: String,
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Grid side.
    pub grid_n: usize,
    /// Engine events processed.
    pub events: u64,
    /// Frames put on the air.
    pub frames: u64,
    /// Total transmit-busy time, ms (compared bit for bit).
    pub tx_busy_ms: f64,
    /// The paper's metric for this cell, percent.
    pub tx_time_pct: f64,
    /// Answers attributed to each user query, in query-id order.
    pub answers_per_query: Vec<u64>,
    /// Σ expected epochs over the user queries.
    pub expected_epochs: u64,
    /// Σ expected epochs that got a non-empty answer.
    pub answered_epochs: u64,
}

impl CellOutcome {
    /// The fingerprint of one run, read off what every runner ends with.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        workload: &str,
        strategy: Strategy,
        grid_n: usize,
        engine: &EngineStats,
        tx_busy_ms: f64,
        tx_time_pct: f64,
        answers_per_query: Vec<u64>,
        completeness: &CompletenessReport,
    ) -> CellOutcome {
        let (expected_epochs, answered_epochs) =
            completeness.per_query.values().fold((0, 0), |(e, a), q| {
                (e + q.expected_epochs, a + q.answered_epochs)
            });
        CellOutcome {
            workload: workload.to_string(),
            strategy,
            grid_n,
            events: engine.events_processed,
            frames: engine.frames_total,
            tx_busy_ms,
            tx_time_pct,
            answers_per_query,
            expected_epochs,
            answered_epochs,
        }
    }

    /// User-query answer epochs delivered.
    pub fn answer_epochs(&self) -> u64 {
        self.answers_per_query.iter().sum()
    }
}

/// Everything exact one rep produced: the simulated fingerprint that every
/// rep of a workload — and the traced driver — must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// One entry per cell, in campaign order (one entry for a single run).
    pub cells: Vec<CellOutcome>,
}

impl Outcome {
    /// Reads the fingerprint off the result `inputs` produced.
    pub fn of(held: &Held, inputs: &Inputs) -> Outcome {
        let cells = match (held, inputs) {
            (Held::Campaign(report, _), _) => report
                .cells
                .iter()
                .map(|c| {
                    CellOutcome::new(
                        &c.workload,
                        c.strategy,
                        c.grid_n,
                        &c.engine,
                        c.metrics.total_tx_busy_ms,
                        c.metrics.avg_transmission_time_pct,
                        // A cell record keeps only the total.
                        vec![c.answer_epochs as u64],
                        &c.completeness,
                    )
                })
                .collect(),
            (Held::Single(report), Inputs::Single { config, .. }) => vec![CellOutcome::new(
                "",
                report.strategy,
                config.grid_n,
                &report.engine,
                report.metrics.total_tx_busy_ms(),
                report.avg_transmission_time_pct(),
                report.answers.values().map(|v| v.len() as u64).collect(),
                &report.completeness,
            )],
            (Held::Single(_), Inputs::Campaign(_)) => {
                unreachable!("a campaign's inputs never yield a single report")
            }
        };
        Outcome { cells }
    }

    fn sum(&self, f: impl Fn(&CellOutcome) -> u64) -> u64 {
        self.cells.iter().map(f).sum()
    }

    /// User-query answer epochs over all cells.
    pub fn answer_epochs(&self) -> u64 {
        self.sum(CellOutcome::answer_epochs)
    }

    /// Expected user-query epochs over all cells: the operations attempted.
    pub fn expected_epochs(&self) -> u64 {
        self.sum(|c| c.expected_epochs)
    }

    /// Expected epochs that got a non-empty answer.
    pub fn answered_epochs(&self) -> u64 {
        self.sum(|c| c.answered_epochs)
    }

    /// Expected epochs for which the base station delivered no answer at all:
    /// per cell, the expected epochs beyond the answers delivered. An epoch
    /// answered with an empty result is delivered — on a 16-node grid a
    /// selective predicate matches no node in a few of a run's epochs — and
    /// counts against [`Outcome::completeness`] only.
    pub fn undelivered_epochs(&self) -> u64 {
        self.sum(|c| c.expected_epochs.saturating_sub(c.answer_epochs()))
    }

    /// Σ answered ÷ Σ expected epochs.
    pub fn completeness(&self) -> f64 {
        self.answered_epochs() as f64 / self.expected_epochs().max(1) as f64
    }

    /// The paper's metric for the workload's strategy: the run's own for a
    /// single run, the mean over the two-tier cells for a campaign.
    pub fn tx_time_pct(&self) -> f64 {
        if let [only] = &self.cells[..] {
            return only.tx_time_pct;
        }
        let two_tier: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.strategy == Strategy::TwoTier)
            .map(|c| c.tx_time_pct)
            .collect();
        two_tier.iter().sum::<f64>() / two_tier.len().max(1) as f64
    }

    /// Per (workload, grid) pair of a campaign: the baseline cell and the
    /// cell that ran `strategy`.
    fn pairs(&self, strategy: Strategy) -> Vec<(&CellOutcome, &CellOutcome)> {
        self.cells
            .iter()
            .filter(|c| c.strategy == Strategy::Baseline)
            .filter_map(|base| {
                self.cells
                    .iter()
                    .find(|c| {
                        c.strategy == strategy
                            && c.workload == base.workload
                            && c.grid_n == base.grid_n
                    })
                    .map(|c| (base, c))
            })
            .collect()
    }

    /// Mean saving of `strategy` against the baseline over a campaign's
    /// (workload, grid) pairs, percent of the baseline's transmission time.
    /// 0 for a single run.
    pub fn savings_pct(&self, strategy: Strategy) -> f64 {
        if self.cells.len() < 2 {
            return 0.0;
        }
        let pairs = self.pairs(strategy);
        pairs
            .iter()
            .map(|(base, c)| 100.0 * (1.0 - c.tx_time_pct / base.tx_time_pct))
            .sum::<f64>()
            / pairs.len().max(1) as f64
    }

    /// The Figure 3 shape: two-tier beats the baseline in every (workload,
    /// grid) pair, and on workload B — which Tier 1 cannot rewrite — bs-only
    /// transmits exactly as much as the baseline. Vacuously true for a
    /// single run.
    pub fn figure3_shape_holds(&self) -> Result<(), String> {
        for (base, c) in self.pairs(Strategy::TwoTier) {
            if c.tx_time_pct >= base.tx_time_pct {
                return Err(format!(
                    "two-tier {} >= baseline {} on workload {} {}x{}",
                    c.tx_time_pct, base.tx_time_pct, c.workload, c.grid_n, c.grid_n
                ));
            }
        }
        for (base, c) in self.pairs(Strategy::BsOnly) {
            if c.workload == "B" && c.tx_busy_ms != base.tx_busy_ms {
                return Err(format!(
                    "workload B {}x{}: bs-only {} ms != baseline {} ms",
                    c.grid_n, c.grid_n, c.tx_busy_ms, base.tx_busy_ms
                ));
            }
        }
        Ok(())
    }

    /// The fingerprint as one canonical JSON object on one line — the form
    /// `expected/seed-1.json` commits. Floats are written as their exact bit
    /// patterns beside a readable value.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"cells\":[");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"workload\":\"{}\",\"strategy\":\"{}\",\"grid_n\":{},\"events\":{},\"frames\":{},\
                 \"tx_busy_ms\":{:?},\"tx_busy_bits\":\"{:016x}\",\"tx_time_pct\":{:?},\
                 \"expected_epochs\":{},\"answered_epochs\":{},\"answers_per_query\":{:?}}}",
                c.workload,
                c.strategy,
                c.grid_n,
                c.events,
                c.frames,
                c.tx_busy_ms,
                c.tx_busy_ms.to_bits(),
                c.tx_time_pct,
                c.expected_epochs,
                c.answered_epochs,
                c.answers_per_query,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out.replace(", ", ",")
    }
}
