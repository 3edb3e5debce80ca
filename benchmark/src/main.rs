//! The repo benchmark: four pose→answer workloads timed from outside the
//! program. See `README.md` beside this package for the catalogue.
//!
//! ```text
//! ttmqo-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ttmqo-benchmark aa [--seed N] [--seconds S] [--smoke]
//! ttmqo-benchmark fingerprint [--seed N]
//! ttmqo-benchmark manifest
//! ```
//!
//! `run` makes the passes of one workload and prints every metric by name
//! with its unit, then one JSON object as the last line of stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero when a check fails.

mod alloc;
mod driver;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{MetricDef, Values, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Attribution, Callback, Recorder, SpanCost};
use ttmqo_core::Strategy;
use workloads::{build_sessions, generate, run_product, Held, Outcome, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The committed fingerprints of `--seed 1`, one workload per line.
const EXPECTED_SEED_1: &str = include_str!("../expected/seed-1.json");

/// Set-up repetitions made before each timed rep: `MIN_REPS` of these
/// batches give the 200 repetitions `setup_s` is taken over at the least.
const SETUPS_PER_REP: usize = 40;

/// Child processes the peak resident set is the median of.
const MEMORY_CHILDREN: usize = 3;

/// Fewest timed reps `wall_s` is taken over, however slow the machine.
const MIN_REPS: usize = 5;

/// Empty spans timed to calibrate the span cost.
const CALIBRATION_SPANS: u64 = 10_000_000;

/// Share of the traced wall that may stay unattributed before the run fails.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Least `answer_completeness` any workload may show.
const MIN_COMPLETENESS: f64 = 0.99;

#[derive(Debug, Clone, Copy)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    /// `--trace 1`: report the per-layer metrics of a traced rep.
    per_layer: bool,
    /// 3 reps of 4 epochs / 50 queries: for tests, never for numbers.
    smoke: bool,
}

/// What one `run` measured.
struct RunResult {
    values: Values,
    catalogue: &'static [MetricDef],
    attempted: u64,
    failed: u64,
    /// Failed checks; empty when the outputs are correct.
    problems: Vec<String>,
}

/// The untraced reps of one workload.
struct TimedPass {
    /// Per rep, the wall of each of its segments, seconds.
    reps: Vec<Vec<f64>>,
    /// Wall of each set-up repetition made between the reps, seconds.
    setups: Vec<f64>,
    outcome: Outcome,
    /// The last rep's held result.
    held: Held,
    /// Allocator calls and bytes of the last rep. They repeat to a few parts
    /// per million, not bit for bit: the apps' hash maps are seeded per
    /// instance, and how often one rehashes in place depends on the seed.
    allocs: (u64, u64),
}

impl TimedPass {
    /// Whole-rep walls, seconds.
    fn walls(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|segments| segments.iter().sum())
            .collect()
    }
}

/// One whole rep through the product's runner — generate the workload, build
/// the session, run to the end, hold the report — timed in segments.
fn timed_rep(opts: Options) -> (Vec<f64>, (u64, u64), Outcome, Held) {
    let (count, bytes) = (alloc::count(), alloc::bytes());
    let mut laps = vec![Instant::now()];
    let mut lap = || laps.push(Instant::now());
    let inputs = generate(opts.workload, opts.seed, opts.smoke);
    lap();
    let held = run_product(&inputs, &mut lap);
    lap();
    let allocs = (alloc::count() - count, alloc::bytes() - bytes);
    let mut segments: Vec<f64> = laps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    if let Held::Campaign(report, _) = &held {
        // [generate, run, render]: split the run into its cells by the wall
        // clock each record carries, the glue between them one more segment.
        let cells: Vec<f64> = report.cells.iter().map(|c| c.wall_clock_ms / 1e3).collect();
        let glue = (segments[1] - cells.iter().sum::<f64>()).max(0.0);
        segments.splice(1..2, cells.into_iter().chain([glue]));
    }
    (segments, allocs, Outcome::of(&held, &inputs), held)
}

/// Tracing off: whole reps until `seconds` have passed, with a batch of
/// set-up repetitions before each so that both sample the whole window. No
/// rep is set aside as a warm-up: the segments the first one runs cold are
/// each replaced by a later rep's (`stats::undisturbed_sum`). Every rep must
/// reproduce the first one's fingerprint.
fn timed_pass(opts: Options, seconds: f64, problems: &mut Vec<String>) -> TimedPass {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    let mut reference = None;
    loop {
        for _ in 0..SETUPS_PER_REP {
            let setup = Instant::now();
            let inputs = generate(opts.workload, opts.seed, opts.smoke);
            let sessions = build_sessions(&inputs);
            setups.push(setup.elapsed().as_secs_f64());
            drop(sessions);
        }
        let (segments, allocs, outcome, held) = timed_rep(opts);
        reps.push(segments);
        let reference = reference.get_or_insert_with(|| outcome.clone());
        if outcome != *reference && problems.is_empty() {
            problems.push(format!("rep {} differs from rep 1", reps.len()));
        }
        let enough = if opts.smoke {
            reps.len() >= 3
        } else {
            reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= seconds
        };
        if enough {
            return TimedPass {
                reps,
                setups,
                outcome,
                held,
                allocs,
            };
        }
    }
}

/// Peak resident set of one rep, MiB: the median over fresh child processes,
/// so that the peak is a rep's own and not the sum of what this process did
/// before.
fn memory_pass(opts: Options) -> Result<f64, String> {
    let peaks = (0..MEMORY_CHILDREN)
        .map(|_| memory_child(opts))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(stats::median(&peaks))
}

/// One rep in a fresh child process; its peak resident set, MiB.
fn memory_child(opts: Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["child-rep", "--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("memory-pass child: {e}"))?;
    if !out.status.success() {
        return Err(format!("memory-pass child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let kib: f64 = text
        .trim()
        .strip_prefix("VmHWM_kib ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("memory-pass child printed {text:?}"))?;
    Ok(kib / 1024.0)
}

/// The memory-pass child: one rep, then its own peak resident set.
fn child_rep(opts: Options) -> Result<(), String> {
    let inputs = generate(opts.workload, opts.seed, opts.smoke);
    let held = run_product(&inputs, &mut || ());
    std::hint::black_box(&held);
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    println!("VmHWM_kib {kib}");
    Ok(())
}

/// Checks on the simulated outputs that hold for every workload and seed.
fn check_outcome(opts: Options, outcome: &Outcome, problems: &mut Vec<String>) {
    // The smoke scale has too few epochs for the floor to mean anything.
    if !opts.smoke && outcome.completeness() < MIN_COMPLETENESS {
        problems.push(format!(
            "answer_completeness {} < {MIN_COMPLETENESS}",
            outcome.completeness()
        ));
    }
    if let Err(why) = outcome.figure3_shape_holds() {
        problems.push(format!("Figure 3 shape: {why}"));
    }
}

/// One line of `expected/seed-1.json`.
fn fingerprint_line(workload: Workload, outcome: &Outcome) -> String {
    format!("\"{}\": {}", workload.name(), outcome.to_json())
}

/// Whether `outcome` is the committed seed-1 fingerprint of `workload`.
fn matches_expected(workload: Workload, outcome: &Outcome) -> bool {
    let line = fingerprint_line(workload, outcome);
    EXPECTED_SEED_1
        .lines()
        .any(|l| l.trim_end_matches(',') == line)
}

/// Prints every workload's simulated fingerprint, one product rep each, as
/// the JSON object `expected/seed-1.json` commits: diff the two to see
/// exactly which simulated statistic a change moved.
fn fingerprint(opts: Options) {
    println!("{{");
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        let inputs = generate(workload, opts.seed, opts.smoke);
        let outcome = Outcome::of(&run_product(&inputs, &mut || ()), &inputs);
        let sep = if i + 1 < Workload::ALL.len() { "," } else { "" };
        println!("{}{sep}", fingerprint_line(workload, &outcome));
    }
    println!("}}");
}

fn run_end_to_end(opts: Options) -> Result<RunResult, String> {
    let mut problems = Vec::new();
    let timed = timed_pass(opts, opts.seconds, &mut problems);
    let peak_rss_mib = memory_pass(opts)?;
    check_outcome(opts, &timed.outcome, &mut problems);

    let wall_s = stats::undisturbed_sum(&timed.reps);
    let mut values = Values::default();
    values.set("setup_s", stats::floor_mean(&timed.setups));
    values.set("wall_s", wall_s);
    values.set(
        "answer_epochs_per_s",
        timed.outcome.answer_epochs() as f64 / wall_s,
    );
    values.set("peak_rss_mib", peak_rss_mib);
    values.set("tx_time_pct", timed.outcome.tx_time_pct());
    values.set("answer_completeness", timed.outcome.completeness());
    Ok(finish(&timed.outcome, values, &END_TO_END, problems))
}

/// Operations attempted are the expected user-query epochs of one rep; one
/// fails when the base station delivered no answer for it, and a run that
/// fails a check fails them all.
fn finish(
    outcome: &Outcome,
    values: Values,
    catalogue: &'static [MetricDef],
    problems: Vec<String>,
) -> RunResult {
    let attempted = outcome.expected_epochs().max(1);
    let failed = if problems.is_empty() {
        outcome.undelivered_epochs()
    } else {
        attempted
    };
    RunResult {
        values,
        catalogue,
        attempted,
        failed,
        problems,
    }
}

fn run_per_layer(opts: Options) -> Result<RunResult, String> {
    let mut problems = Vec::new();
    // Half the time for untraced reps (the wall the overhead is taken
    // against), half for traced ones.
    let timed = timed_pass(opts, opts.seconds / 2.0, &mut problems);
    check_outcome(opts, &timed.outcome, &mut problems);
    let wall_s = stats::undisturbed_sum(&timed.reps);
    let walls = timed.walls();

    let cost = SpanCost::calibrate(if opts.smoke {
        CALIBRATION_SPANS / 100
    } else {
        CALIBRATION_SPANS
    });
    let mut rec = Recorder::with_capacity(1 << 16);
    // The fastest traced rep is the one reported: all its spans come from
    // one rep, so the self times and the remainder sum to its wall exactly.
    let mut best: Option<(Attribution, Vec<trace::Span>, driver::TracedRep)> = None;
    let start = Instant::now();
    let mut reps = 0u32;
    loop {
        rec.start_rep(reps);
        let traced =
            driver::run_traced(opts.workload, opts.seed, opts.smoke, &timed.held, &mut rec);
        reps += 1;
        let attribution = Attribution::of(rec.spans(), cost);
        if best
            .as_ref()
            .is_none_or(|(b, _, _)| attribution.wall_ns < b.wall_ns)
        {
            best = Some((attribution, rec.spans().to_vec(), traced));
        }
        if opts.smoke || start.elapsed().as_secs_f64() >= opts.seconds / 2.0 {
            break;
        }
    }
    let (a, spans, traced) = best.expect("at least one traced rep ran");

    if traced.outcome != timed.outcome {
        problems.push("the traced driver's fingerprint differs from the product runner's".into());
    }
    if let (Some(traced_report), Held::Campaign(_, product_report)) = (&traced.report, &timed.held)
    {
        if traced_report != product_report {
            problems.push("the traced driver's campaign report differs from the product's".into());
        }
    }
    let unattributed_s = a.self_s("unattributed");
    let traced_wall_s = a.wall_ns as f64 / 1e9;
    if unattributed_s > MAX_UNATTRIBUTED * traced_wall_s {
        problems.push(format!(
            "unattributed {unattributed_s} s exceeds {MAX_UNATTRIBUTED} of the traced wall {traced_wall_s} s"
        ));
    }
    if a.self_ns.values().sum::<u64>() != a.wall_ns {
        problems.push("layer self times and the remainder do not sum to the traced wall".into());
    }

    let out_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| ".".into(), std::path::PathBuf::from)
        .join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}.json", opts.workload.name()));
    let json = trace::to_json(opts.workload.name(), opts.seed, &spans, cost, &a);
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());

    let c = &traced.counts;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let callbacks: u64 = a.callbacks.iter().map(|k| k.calls).sum();
    let calls = |kind: Callback| a.callbacks[kind as usize].calls as f64;
    let tier1_calls = a.calls("tier1.call");
    let mut v = Values::default();
    v.set("workloads.gen_s", a.busy_s("workloads.gen"));
    v.set("workloads.events", traced.workload_events as f64);
    v.set("topology.build_s", a.busy_s("topology.build"));
    v.set("topology.nodes", c.nodes as f64);
    v.set("sim.new_s", a.busy_s("sim.new"));
    v.set("tier1.build_s", a.busy_s("tier1.build"));
    v.set("tier1.calls", tier1_calls as f64);
    v.set("tier1.busy_s", a.busy_s("tier1.call"));
    v.set(
        "tier1.call_max_us",
        a.max_ns.get("tier1.call").copied().unwrap_or(0) as f64 / 1e3,
    );
    v.set("tier1.injections", c.tier1.injections as f64);
    v.set("tier1.abortions", c.tier1.abortions as f64);
    v.set(
        "tier1.absorbed_ratio",
        ratio(
            (c.tier1.absorbed_insertions + c.tier1.absorbed_terminations) as f64,
            tier1_calls as f64,
        ),
    );
    v.set(
        "tier1.avg_synthetics",
        ratio(c.avg_synthetics_sum, c.cells as f64),
    );
    v.set(
        "tier1.benefit_ratio",
        ratio(c.benefit_ratio_sum, c.cells as f64),
    );
    v.set("tier1.allocs", a.allocs("tier1") as f64);
    v.set("engine.busy_s", a.busy_s(trace::ENGINE_SPAN));
    v.set("engine.self_s", a.self_s("engine"));
    v.set("engine.events", c.events as f64);
    v.set("engine.frames", c.frames as f64);
    v.set(
        "engine.self_ns_per_event",
        ratio(a.self_s("engine") * 1e9, c.events as f64),
    );
    v.set("engine.callbacks", callbacks as f64);
    v.set("engine.fanout", ratio(callbacks as f64, c.frames as f64));
    v.set("engine.retransmissions", c.retransmissions as f64);
    v.set("engine.collisions", c.collisions as f64);
    v.set("engine.gave_up", c.gave_up as f64);
    v.set("engine.csma_capped", c.csma_capped as f64);
    v.set("engine.slab_high_water", c.slab_high_water as f64);
    v.set("engine.allocs", a.allocs("engine") as f64);
    v.set(
        "engine.allocs_per_event",
        ratio(a.allocs("engine") as f64, c.events as f64),
    );
    v.set("app.busy_s", a.self_s("app"));
    v.set("app.on_timer_s", a.callback_s(Callback::Timer, cost));
    v.set("app.on_message_s", a.callback_s(Callback::Message, cost));
    v.set("app.on_overhear_s", a.callback_s(Callback::Overhear, cost));
    v.set("app.on_command_s", a.callback_s(Callback::Command, cost));
    v.set("app.on_timer_calls", calls(Callback::Timer));
    v.set("app.on_message_calls", calls(Callback::Message));
    v.set("app.on_overhear_calls", calls(Callback::Overhear));
    v.set("app.on_command_calls", calls(Callback::Command));
    v.set("app.on_send_failed_calls", calls(Callback::SendFailed));
    v.set(
        "app.ns_per_callback",
        ratio(a.self_s("app") * 1e9, callbacks as f64),
    );
    v.set("app.allocs", a.allocs("app") as f64);
    v.set(
        "app.allocs_per_overhear",
        ratio(
            a.callbacks[Callback::Overhear as usize].allocs as f64,
            calls(Callback::Overhear),
        ),
    );
    v.set("app.samples", c.samples as f64);
    v.set("app.result_frames", c.result_frames as f64);
    v.set("app.sleep_ms", c.sleep_ms);
    v.set("mapper.busy_s", a.busy_s("mapper.ingest"));
    v.set("mapper.snapshot_s", a.busy_s("mapper.snapshot"));
    v.set("mapper.calls", a.calls("mapper.ingest") as f64);
    v.set("mapper.answers", c.answers as f64);
    v.set("mapper.rows", c.rows as f64);
    v.set("report.render_s", a.busy_s("report.render"));
    v.set("report.bytes", c.report_bytes as f64);
    v.set("campaign.cells", c.cells as f64);
    v.set(
        "paper.savings_bs_only_pct",
        timed.outcome.savings_pct(Strategy::BsOnly),
    );
    v.set(
        "paper.savings_innet_only_pct",
        timed.outcome.savings_pct(Strategy::InNetOnly),
    );
    v.set(
        "paper.savings_two_tier_pct",
        timed.outcome.savings_pct(Strategy::TwoTier),
    );
    v.set("alloc.count", timed.allocs.0 as f64);
    v.set("alloc.bytes", timed.allocs.1 as f64);
    v.set("host.wall_median_s", stats::median(&walls));
    v.set("host.wall_iqr_s", stats::iqr(&walls));
    v.set("host.reps", walls.len() as f64);
    v.set("trace.span_cost_ns", cost.outer_ns);
    v.set("trace.overhead_pct", 100.0 * (traced_wall_s / wall_s - 1.0));
    v.set("trace.wall_s", traced_wall_s);
    v.set("trace.spans_s", a.self_s("trace"));
    v.set("trace.unattributed_s", unattributed_s);
    v.set(
        "sim.fingerprint_match",
        f64::from(u8::from(
            opts.seed == 1 && !opts.smoke && matches_expected(opts.workload, &timed.outcome),
        )),
    );
    Ok(finish(&timed.outcome, v, &PER_LAYER, problems))
}

fn run(opts: Options) -> Result<RunResult, String> {
    if opts.per_layer {
        run_per_layer(opts)
    } else {
        run_end_to_end(opts)
    }
}

/// Prints every metric by name with its unit, the failed checks, and the
/// result line. Returns whether the outputs were correct.
fn report(opts: Options, result: &RunResult) -> bool {
    let metrics = result.values.in_order(result.catalogue);
    println!("workload {} seed {}", opts.workload.name(), opts.seed);
    for (def, value) in &metrics {
        println!("{} {} {}", def.name, metrics::json_number(*value), def.unit);
    }
    for problem in &result.problems {
        eprintln!("check failed: {problem}");
    }
    let correct = result.problems.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, result.attempted, result.failed, &metrics)
    );
    correct
}

/// Runs the end-to-end benchmark twice back to back and compares the sets.
/// Returns whether every pair agrees within its bound and every exact metric
/// bit for bit.
fn aa(base: Options) -> Result<bool, String> {
    let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
    for set in &mut sets {
        for workload in Workload::ALL {
            let result = run(Options { workload, ..base })?;
            for problem in &result.problems {
                eprintln!("check failed on {}: {problem}", workload.name());
            }
            set.push(result);
        }
    }
    let exact = ["tx_time_pct", "answer_completeness"];
    let mut agree = true;
    println!("| workload | metric | unit | first | second | worse by | bound |");
    println!("|---|---|---|---|---|---|---|");
    for (w, workload) in Workload::ALL.iter().enumerate() {
        let (first, second) = (&sets[0][w], &sets[1][w]);
        agree &= first.problems.is_empty() && second.problems.is_empty();
        agree &= (first.attempted, first.failed) == (second.attempted, second.failed);
        for def in &END_TO_END {
            let get = |r: &RunResult| r.values.get(def.name).expect("run set every metric");
            let (x, y) = (get(first), get(second));
            // How much worse the second set reads, as a share of the first.
            let worse = if def.lower_is_better {
                y / x - 1.0
            } else {
                1.0 - y / x
            };
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let ok = if exact.contains(&def.name) {
                x.to_bits() == y.to_bits()
            } else {
                worse.abs() <= bound
            };
            agree &= ok;
            println!(
                "| {} | {} | {} | {x:.6} | {y:.6} | {:+.2} % | {:.1} % |{}",
                workload.name(),
                def.name,
                def.unit,
                100.0 * worse,
                100.0 * bound,
                if ok { "" } else { " OUTSIDE" }
            );
        }
    }
    Ok(agree)
}

/// Reads the flags; `need_workload` makes `--workload` mandatory (the other
/// commands run every workload and ignore the field).
fn parse(args: &[String], need_workload: bool) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Fig3Campaign,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        per_layer: false,
        smoke: false,
    };
    let mut workload_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload =
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
                workload_given = true;
            }
            "--seed" => {
                // Any integer: a negative one is taken by its bit pattern.
                let seed = value()?;
                opts.seed = seed
                    .parse::<u64>()
                    .or_else(|_| seed.parse::<i64>().map(|s| s as u64))
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                opts.per_layer = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if need_workload && !workload_given {
        return Err("--workload <name> is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!(
            "usage: ttmqo-benchmark run|aa|fingerprint|manifest ... (see benchmark/README.md)"
        );
        return ExitCode::from(2);
    };
    let outcome = match command.as_str() {
        "manifest" => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        "run" => parse(rest, true).and_then(|opts| run(opts).map(|result| report(opts, &result))),
        "aa" => parse(rest, false).and_then(aa),
        "fingerprint" => parse(rest, false).map(|opts| {
            fingerprint(opts);
            true
        }),
        "child-rep" => parse(rest, true).and_then(child_rep).map(|()| true),
        other => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}
