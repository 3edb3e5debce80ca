//! Deterministic per-phase profiler.
//!
//! Attributes wall-clock time and event counts to named engine and runner
//! phases without perturbing the simulation: profiling code only reads the
//! monotonic clock and bumps counters, which is how it keeps the observer
//! contract stated on [`Observe`](crate::Observe).
//!
//! The moving parts:
//!
//! - [`EnginePhase`] — the five event-dispatch phases the engine has always
//!   counted (formerly a magic-index `[u64; 5]`). Adding a phase without
//!   accounting for it everywhere is now a compile error.
//! - [`ProfilePhase`] — the full attribution key: the engine phases plus the
//!   engine's CSMA-sense and interference-marking sub-spans and the
//!   runner-side phases (topology build, admission scoring,
//!   re-optimization, answer mapping).
//! - [`ProfileHandle`] — cloneable, off by default, shared between the
//!   runner and the engine the way [`crate::TraceHandle`] is.
//! - [`ProfileScratch`] — the engine's lock-free accumulator: an increment
//!   and a branch per event (plus a sampled timestamp pair, see below),
//!   flushed into the shared collector once per `run_until` call.
//! - [`ProfileReport`] — the per-phase wall µs / event count / ns-per-event
//!   summary, with JSON and Chrome trace-event exports.
//!
//! # Overhead budget
//!
//! The profiler's contract is <2% throughput cost at millions of events per
//! second, which leaves ~20 ns per event. `Instant::now` costs ~35 ns on a
//! typical Linux VM — even one read per event blows the budget — so the hot
//! path (a) reads raw timestamps instead (`stamp`: one `rdtsc` on x86-64,
//! an `Instant` delta elsewhere), converted to nanoseconds only once at
//! report time by calibrating against an `Instant` pair spanning the whole
//! profiled interval, and (b) *samples*: every event and sub-span occurrence
//! is counted (counts in a [`ProfileReport`] are exact), but only every
//! [`SAMPLE_INTERVAL`]-th occurrence of each is individually timed, and the
//! report extrapolates each phase's wall time from its measured fraction
//! (`wall = measured · events / sampled`). Sampling is counter-based and
//! deterministic; nothing the simulation observes depends on it, and the
//! unsampled path is an increment and a branch.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json;
use crate::trace::SCHEMA_VERSION;

/// One in how many occurrences of a phase (event dispatch or nested
/// sub-span) gets its wall time measured. Counts are always exact; wall
/// time is extrapolated from the measured sample.
pub const SAMPLE_INTERVAL: u64 = 32;

/// A raw monotonic timestamp in unspecified units ("ticks"): the TSC on
/// x86-64 (~5 ns per read vs ~35 ns for `Instant::now`), nanoseconds from a
/// process-global anchor elsewhere. Tick duration is recovered at report
/// time by calibration against an `Instant` pair, so callers never convert.
#[inline]
fn stamp() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no memory or register preconditions; it only
        // reads the time-stamp counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static ANCHOR: OnceLock<Instant> = OnceLock::new();
        ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// The engine's event-dispatch phases, in the order the engine has always
/// stored their counters. Every processed event belongs to
/// exactly one of these; the match in `Simulator::process_event` is
/// exhaustive, so a new event kind cannot ship without naming its phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePhase {
    /// Application timer callbacks (`on_timer`).
    Timer,
    /// Frame delivery fan-out to receivers (`on_message` and loss/collision
    /// resolution).
    Deliver,
    /// External commands injected into a node (`on_command`).
    Command,
    /// Periodic maintenance beacons.
    Maintenance,
    /// Fault-plan crash and recovery events.
    Fault,
}

impl EnginePhase {
    /// Number of engine phases (the length of the engine's per-phase
    /// counter array).
    pub const COUNT: usize = 5;

    /// All phases, in counter-array order.
    pub const ALL: [EnginePhase; EnginePhase::COUNT] = [
        EnginePhase::Timer,
        EnginePhase::Deliver,
        EnginePhase::Command,
        EnginePhase::Maintenance,
        EnginePhase::Fault,
    ];

    /// Index into the engine's per-phase counter array (== position in
    /// [`EnginePhase::ALL`]). Exhaustive: a new phase must pick a slot.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            EnginePhase::Timer => 0,
            EnginePhase::Deliver => 1,
            EnginePhase::Command => 2,
            EnginePhase::Maintenance => 3,
            EnginePhase::Fault => 4,
        }
    }

    /// Stable lowercase name (used in reports and JSON).
    pub const fn name(self) -> &'static str {
        match self {
            EnginePhase::Timer => "timer",
            EnginePhase::Deliver => "deliver",
            EnginePhase::Command => "command",
            EnginePhase::Maintenance => "maintenance",
            EnginePhase::Fault => "fault",
        }
    }
}

/// Every phase the profiler attributes time to: the five [`EnginePhase`]s
/// (top-level, non-overlapping — their wall times sum to at most the run's
/// total wall time), two engine sub-spans that *nest inside* event phases
/// (CSMA sensing and interference marking happen within a transmitting
/// event's slice, so they must not be added to the event-phase total), and
/// the runner-side phases outside the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfilePhase {
    /// [`EnginePhase::Timer`].
    Timer,
    /// [`EnginePhase::Deliver`].
    Deliver,
    /// [`EnginePhase::Command`].
    Command,
    /// [`EnginePhase::Maintenance`].
    Maintenance,
    /// [`EnginePhase::Fault`].
    Fault,
    /// CSMA carrier sensing inside `transmit` (nests in an event phase).
    CsmaSense,
    /// Interference marking across receivers inside `transmit` (nests in an
    /// event phase).
    InterferenceMark,
    /// Grid/topology construction before the run starts.
    TopologyBuild,
    /// Base-station optimizer admission scoring (`insert`).
    AdmissionScoring,
    /// Base-station optimizer re-optimization sweeps.
    Reoptimize,
    /// Mapping synthetic answers back onto user queries.
    AnswerMapping,
}

impl ProfilePhase {
    /// Number of profiled phases.
    pub const COUNT: usize = 11;

    /// All phases, in report order: engine event phases first (in
    /// counter-array order), then engine sub-spans, then runner phases.
    pub const ALL: [ProfilePhase; ProfilePhase::COUNT] = [
        ProfilePhase::Timer,
        ProfilePhase::Deliver,
        ProfilePhase::Command,
        ProfilePhase::Maintenance,
        ProfilePhase::Fault,
        ProfilePhase::CsmaSense,
        ProfilePhase::InterferenceMark,
        ProfilePhase::TopologyBuild,
        ProfilePhase::AdmissionScoring,
        ProfilePhase::Reoptimize,
        ProfilePhase::AnswerMapping,
    ];

    /// Index into per-phase collector arrays (== position in
    /// [`ProfilePhase::ALL`]).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ProfilePhase::Timer => 0,
            ProfilePhase::Deliver => 1,
            ProfilePhase::Command => 2,
            ProfilePhase::Maintenance => 3,
            ProfilePhase::Fault => 4,
            ProfilePhase::CsmaSense => 5,
            ProfilePhase::InterferenceMark => 6,
            ProfilePhase::TopologyBuild => 7,
            ProfilePhase::AdmissionScoring => 8,
            ProfilePhase::Reoptimize => 9,
            ProfilePhase::AnswerMapping => 10,
        }
    }

    /// Stable kebab-case name (used in reports, JSON, and Chrome spans).
    pub const fn name(self) -> &'static str {
        match self {
            ProfilePhase::Timer => "timer",
            ProfilePhase::Deliver => "deliver",
            ProfilePhase::Command => "command",
            ProfilePhase::Maintenance => "maintenance",
            ProfilePhase::Fault => "fault",
            ProfilePhase::CsmaSense => "csma-sense",
            ProfilePhase::InterferenceMark => "interference-mark",
            ProfilePhase::TopologyBuild => "topology-build",
            ProfilePhase::AdmissionScoring => "admission-scoring",
            ProfilePhase::Reoptimize => "reoptimize",
            ProfilePhase::AnswerMapping => "answer-mapping",
        }
    }

    /// Whether this phase is one of the five top-level engine event phases
    /// (the ones whose wall times are non-overlapping).
    pub const fn is_engine_event_phase(self) -> bool {
        matches!(
            self,
            ProfilePhase::Timer
                | ProfilePhase::Deliver
                | ProfilePhase::Command
                | ProfilePhase::Maintenance
                | ProfilePhase::Fault
        )
    }
}

impl From<EnginePhase> for ProfilePhase {
    fn from(p: EnginePhase) -> ProfilePhase {
        match p {
            EnginePhase::Timer => ProfilePhase::Timer,
            EnginePhase::Deliver => ProfilePhase::Deliver,
            EnginePhase::Command => ProfilePhase::Command,
            EnginePhase::Maintenance => ProfilePhase::Maintenance,
            EnginePhase::Fault => ProfilePhase::Fault,
        }
    }
}

/// Shared accumulator behind an enabled [`ProfileHandle`]: per-phase raw
/// tick totals, occurrence counts, and how many occurrences were timed,
/// plus the `Instant`/`stamp` pair taken at creation that report time
/// uses to calibrate ticks to nanoseconds.
#[derive(Debug, Clone)]
struct ProfileCollector {
    calib_instant: Instant,
    calib_stamp: u64,
    ticks: [u64; ProfilePhase::COUNT],
    events: [u64; ProfilePhase::COUNT],
    sampled: [u64; ProfilePhase::COUNT],
}

impl ProfileCollector {
    fn new() -> Self {
        ProfileCollector {
            calib_instant: Instant::now(),
            calib_stamp: stamp(),
            ticks: [0; ProfilePhase::COUNT],
            events: [0; ProfilePhase::COUNT],
            sampled: [0; ProfilePhase::COUNT],
        }
    }
}

/// Advances an event-sampling cursor and, for every [`SAMPLE_INTERVAL`]-th
/// event, returns a start stamp to pass to [`ProfileScratch::event_end`].
/// Taking the cursor by reference lets the engine keep it in a loop-local
/// (register-allocated) variable — see [`ProfileScratch::take_seen`].
#[inline]
pub fn sample_event(seen: &mut u64) -> Option<u64> {
    *seen = seen.wrapping_add(1);
    (*seen % SAMPLE_INTERVAL == 1).then(stamp)
}

/// The engine's lock-free per-run accumulator. The event loop brackets
/// every [`SAMPLE_INTERVAL`]-th event with a `stamp` pair
/// ([`ProfileScratch::event_begin`]/[`ProfileScratch::event_end`]); the
/// unsampled majority costs one counter increment and a branch, and their
/// exact per-phase counts are credited in bulk from the engine's own
/// counters via [`ProfileScratch::credit`]. The CSMA/interference
/// sub-spans are sampled the same way on their own per-phase counters.
/// The scratch is flushed into the shared collector once per `run_until`
/// call, so the hot loop never touches the handle's mutex.
#[derive(Debug)]
pub struct ProfileScratch {
    seen: u64,
    ticks: [u64; ProfilePhase::COUNT],
    events: [u64; ProfilePhase::COUNT],
    sampled: [u64; ProfilePhase::COUNT],
}

impl ProfileScratch {
    fn new() -> Self {
        ProfileScratch {
            seen: 0,
            ticks: [0; ProfilePhase::COUNT],
            events: [0; ProfilePhase::COUNT],
            sampled: [0; ProfilePhase::COUNT],
        }
    }

    /// Marks the start of one dispatched event; for every
    /// [`SAMPLE_INTERVAL`]-th event returns a start stamp to pass to
    /// [`ProfileScratch::event_end`]. The unsampled path is an increment
    /// and a branch — no timestamp read.
    #[inline]
    pub fn event_begin(&mut self) -> Option<u64> {
        sample_event(&mut self.seen)
    }

    /// Detaches the event-sampling cursor so a hot loop can advance it in a
    /// register with [`sample_event`] instead of a memory read-modify-write
    /// through the scratch box; pair with [`ProfileScratch::store_seen`]
    /// before the scratch is flushed.
    #[inline]
    pub fn take_seen(&self) -> u64 {
        self.seen
    }

    /// Writes back a cursor detached with [`ProfileScratch::take_seen`].
    #[inline]
    pub fn store_seen(&mut self, seen: u64) {
        self.seen = seen;
    }

    /// Closes a sampled event started by [`ProfileScratch::event_begin`],
    /// now that its phase is known. Only called for sampled events (when
    /// `event_begin` returned a stamp), so unsampled events cost the engine
    /// nothing here; their counts arrive in bulk via
    /// [`ProfileScratch::credit`] from the engine's always-on per-phase
    /// counters.
    #[inline]
    pub fn event_end(&mut self, phase: ProfilePhase, started: u64) {
        let i = phase.index();
        self.ticks[i] += stamp().saturating_sub(started);
        self.sampled[i] += 1;
    }

    /// Credits `count` occurrences to `phase` in one add. The engine calls
    /// this once per `run_until` with the delta of its own per-phase event
    /// counters, so event counts stay exact without any per-event profiler
    /// bookkeeping in the hot loop.
    #[inline]
    pub fn credit(&mut self, phase: ProfilePhase, count: u64) {
        self.events[phase.index()] += count;
    }

    /// Counts one occurrence of a nested sub-span (CSMA sensing,
    /// interference marking) and, for every [`SAMPLE_INTERVAL`]-th
    /// occurrence, returns a start stamp to pass to
    /// [`ProfileScratch::span_end`]. The unsampled path is an increment and
    /// a branch — no timestamp read.
    #[inline]
    pub fn span_begin(&mut self, phase: ProfilePhase) -> Option<u64> {
        let i = phase.index();
        self.events[i] += 1;
        (self.events[i] % SAMPLE_INTERVAL == 1).then(stamp)
    }

    /// Closes a sampled sub-span started by [`ProfileScratch::span_begin`].
    /// Sub-spans nest inside the enclosing event's slice: when that event is
    /// itself sampled, its measured duration still includes this span.
    #[inline]
    pub fn span_end(&mut self, phase: ProfilePhase, started: u64) {
        let i = phase.index();
        self.ticks[i] += stamp().saturating_sub(started);
        self.sampled[i] += 1;
    }
}

/// Cloneable handle the runner and engine record profiling data through.
///
/// The default handle is disabled: every instrumentation site reduces to an
/// `Option::is_some` branch.
#[derive(Clone, Default)]
pub struct ProfileHandle(Option<Arc<Mutex<ProfileCollector>>>);

impl ProfileHandle {
    /// The no-op handle (same as `ProfileHandle::default()`).
    pub fn disabled() -> Self {
        ProfileHandle(None)
    }

    /// A fresh enabled handle. Clone it into every component that should
    /// contribute (engine, runner); [`ProfileHandle::report`] reads the
    /// merged totals back.
    pub fn enabled() -> Self {
        ProfileHandle(Some(Arc::new(Mutex::new(ProfileCollector::new()))))
    }

    /// Whether a collector is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// A new scratch accumulator if enabled (the engine holds one and
    /// flushes it back with [`ProfileHandle::absorb`]).
    pub fn scratch(&self) -> Option<Box<ProfileScratch>> {
        self.0.as_ref().map(|_| Box::new(ProfileScratch::new()))
    }

    /// Merges a scratch accumulator's totals into the collector and zeroes
    /// the scratch. One lock per call — call once per `run_until`, not per
    /// event.
    pub fn absorb(&self, scratch: &mut ProfileScratch) {
        if let Some(shared) = &self.0 {
            let mut c = shared.lock().expect("profile collector poisoned");
            for i in 0..ProfilePhase::COUNT {
                c.ticks[i] += scratch.ticks[i];
                c.events[i] += scratch.events[i];
                c.sampled[i] += scratch.sampled[i];
                scratch.ticks[i] = 0;
                scratch.events[i] = 0;
                scratch.sampled[i] = 0;
            }
        }
    }

    /// Starts a coarse-grained span (runner phases: topology build,
    /// optimizer work). Returns `None` when disabled, so the disabled path
    /// never reads a timestamp.
    #[inline]
    pub fn start(&self) -> Option<u64> {
        self.0.as_ref().map(|_| stamp())
    }

    /// Ends a span started with [`ProfileHandle::start`], crediting `phase`
    /// directly in the shared collector (locks; fine for runner-frequency
    /// phases, wrong for the per-event hot path — that is what
    /// [`ProfileScratch`] is for).
    pub fn finish(&self, phase: ProfilePhase, started: Option<u64>) {
        if let (Some(shared), Some(t0)) = (&self.0, started) {
            let ticks = stamp().saturating_sub(t0);
            let mut c = shared.lock().expect("profile collector poisoned");
            let i = phase.index();
            c.ticks[i] += ticks;
            c.events[i] += 1;
            c.sampled[i] += 1;
        }
    }

    /// Snapshot of the totals so far, or `None` when disabled.
    ///
    /// Converts raw ticks to nanoseconds by calibrating against the
    /// `Instant` pair spanning the collector's lifetime, and extrapolates
    /// each sampled phase's wall time from its measured fraction
    /// (`wall = measured · events / sampled`); runner phases are fully
    /// timed (`events == sampled`), so they convert exactly.
    pub fn report(&self) -> Option<ProfileReport> {
        let shared = self.0.as_ref()?;
        let c = shared.lock().expect("profile collector poisoned");
        let elapsed_ns = c.calib_instant.elapsed().as_nanos() as f64;
        let elapsed_ticks = stamp().saturating_sub(c.calib_stamp).max(1) as f64;
        let ns_per_tick = elapsed_ns / elapsed_ticks;
        Some(ProfileReport {
            phases: ProfilePhase::ALL
                .iter()
                .map(|&p| {
                    let i = p.index();
                    let wall_ns = if c.sampled[i] == 0 {
                        0
                    } else {
                        let measured_ns = c.ticks[i] as f64 * ns_per_tick;
                        (measured_ns * c.events[i] as f64 / c.sampled[i] as f64).round() as u64
                    };
                    PhaseProfile {
                        phase: p,
                        wall_ns,
                        events: c.events[i],
                    }
                })
                .collect(),
        })
    }
}

impl fmt::Debug for ProfileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ProfileHandle")
            .field(&if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

/// One phase's totals in a [`ProfileReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Which phase.
    pub phase: ProfilePhase,
    /// Total wall time attributed, nanoseconds.
    pub wall_ns: u64,
    /// Number of spans/events attributed.
    pub events: u64,
}

impl PhaseProfile {
    /// Wall time in microseconds.
    pub fn wall_us(&self) -> u64 {
        self.wall_ns / 1_000
    }

    /// Mean nanoseconds per event (0 when no events).
    pub fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.events as f64
        }
    }
}

/// Per-phase profiling summary: wall µs, event counts, ns/event.
///
/// Every number here is *wall-clock derived and therefore machine- and
/// run-dependent* — reports are for attribution, never for the determinism
/// gate (which is why `RunReport`'s golden comparisons null the profile
/// out first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// One entry per [`ProfilePhase`], in [`ProfilePhase::ALL`] order.
    pub phases: Vec<PhaseProfile>,
}

impl ProfileReport {
    /// The entry for `phase` (reports built by [`ProfileHandle::report`]
    /// always carry every phase).
    pub fn get(&self, phase: ProfilePhase) -> PhaseProfile {
        self.phases
            .iter()
            .copied()
            .find(|p| p.phase == phase)
            .unwrap_or(PhaseProfile {
                phase,
                wall_ns: 0,
                events: 0,
            })
    }

    /// Sum of the five top-level engine event phases' wall ns (these do not
    /// overlap, so the sum is the event loop's attributed wall time; the
    /// CSMA/interference sub-spans nest inside it and are excluded).
    pub fn engine_event_wall_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.phase.is_engine_event_phase())
            .map(|p| p.wall_ns)
            .sum()
    }

    /// One JSON object: schema version, then per-phase
    /// `{name, wall_us, events, ns_per_event}` entries.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.u64("schema_version", SCHEMA_VERSION as u64);
            o.arr("phases", |a| {
                for p in &self.phases {
                    a.obj(|o| {
                        o.str("name", p.phase.name());
                        o.u64("wall_us", p.wall_us());
                        o.u64("events", p.events);
                        o.fixed("ns_per_event", p.ns_per_event(), 1);
                    });
                }
            });
        })
    }

    /// Parses a report back from its [`ProfileReport::to_json`] form (the
    /// shape campaign `profile-*.json` artifacts use), so offline tools
    /// can merge phase spans into a Chrome trace without re-running.
    /// Returns `None` when the text is not a profile report. Sub-µs wall
    /// times are quantized by the round-trip; counts are exact.
    pub fn from_json(text: &str) -> Option<ProfileReport> {
        let doc = json::parse(text).ok()?;
        let mut phases = Vec::new();
        for entry in doc.get("phases")?.items() {
            let name = entry.str_at("name")?;
            phases.push(PhaseProfile {
                phase: ProfilePhase::ALL.into_iter().find(|p| p.name() == name)?,
                wall_ns: entry.u64_at("wall_us")?.checked_mul(1_000)?,
                events: entry.u64_at("events")?,
            });
        }
        (!phases.is_empty()).then_some(ProfileReport { phases })
    }

    /// Chrome trace-event objects rendering the per-phase totals as a
    /// flamegraph-style row of back-to-back complete (`X`) slices on a
    /// dedicated `pid:1` "profiler" track. Timestamps are cumulative wall
    /// µs (a different timebase from the simulation-time events on
    /// `pid:0`); viewers show both tracks side by side.
    pub fn chrome_spans(&self) -> Vec<String> {
        let mut spans = Vec::new();
        let mut ts = 0u64;
        for p in &self.phases {
            if p.wall_ns == 0 && p.events == 0 {
                continue;
            }
            let dur = p.wall_us().max(1);
            let tid = if p.phase.is_engine_event_phase() {
                0
            } else {
                1
            };
            spans.push(json::object(|o| {
                o.str("name", p.phase.name());
                o.str("ph", "X");
                o.u64("ts", ts);
                o.u64("dur", dur);
                o.u64("pid", 1);
                o.u64("tid", tid);
                o.obj("args", |o| o.u64("events", p.events));
            }));
            ts += dur;
        }
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_match_all_order() {
        for (i, p) in EnginePhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        for (i, p) in ProfilePhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        // Engine phases occupy the same slots in both keys.
        for p in EnginePhase::ALL {
            assert_eq!(ProfilePhase::from(p).index(), p.index());
            assert_eq!(ProfilePhase::from(p).name(), p.name());
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = ProfileHandle::disabled();
        assert!(!h.is_enabled());
        assert!(h.scratch().is_none());
        assert!(h.start().is_none());
        h.finish(ProfilePhase::TopologyBuild, None);
        assert!(h.report().is_none());
    }

    #[test]
    fn scratch_absorb_accumulates_and_resets() {
        let h = ProfileHandle::enabled();
        let mut s = h.scratch().expect("enabled handle yields scratch");
        let t0 = s.event_begin();
        assert!(t0.is_some(), "first event is sampled");
        s.event_end(ProfilePhase::Deliver, t0.unwrap());
        let t1 = s.event_begin();
        assert!(t1.is_none(), "events 2..SAMPLE_INTERVAL skip the stamps");
        // Counts arrive in bulk from the engine's own phase counters.
        s.credit(ProfilePhase::Deliver, 2);
        s.credit(ProfilePhase::Timer, 1);
        let t0 = s
            .span_begin(ProfilePhase::CsmaSense)
            .expect("first sub-span occurrence is sampled");
        s.span_end(ProfilePhase::CsmaSense, t0);
        // Occurrences 2..SAMPLE_INTERVAL are counted but not timed.
        assert!(s.span_begin(ProfilePhase::CsmaSense).is_none());
        h.absorb(&mut s);
        // Scratch zeroed: absorbing again adds nothing.
        h.absorb(&mut s);
        let r = h.report().unwrap();
        assert_eq!(r.get(ProfilePhase::Deliver).events, 2);
        assert_eq!(r.get(ProfilePhase::Timer).events, 1);
        assert_eq!(r.get(ProfilePhase::CsmaSense).events, 2);
        assert_eq!(r.get(ProfilePhase::Command).events, 0);
    }

    #[test]
    fn finish_records_runner_spans() {
        let h = ProfileHandle::enabled();
        let t0 = h.start();
        assert!(t0.is_some());
        h.finish(ProfilePhase::Reoptimize, t0);
        let r = h.report().unwrap();
        assert_eq!(r.get(ProfilePhase::Reoptimize).events, 1);
    }

    #[test]
    fn report_json_round_trips() {
        let report = ProfileReport {
            phases: vec![
                PhaseProfile {
                    phase: ProfilePhase::Deliver,
                    wall_ns: 12_000,
                    events: 7,
                },
                PhaseProfile {
                    phase: ProfilePhase::AdmissionScoring,
                    wall_ns: 3_000,
                    events: 2,
                },
            ],
        };
        let json = report.to_json();
        let parsed = ProfileReport::from_json(&json).expect("own JSON parses");
        // Whole-µs wall times survive the round trip exactly.
        assert_eq!(parsed.to_json(), json);
        assert!(ProfileReport::from_json("{\"not\":\"a profile\"}").is_none());
    }

    #[test]
    fn report_json_names_every_phase() {
        let h = ProfileHandle::enabled();
        let json = h.report().unwrap().to_json();
        assert!(json.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION}")));
        for p in ProfilePhase::ALL {
            assert!(json.contains(p.name()), "missing {}", p.name());
        }
    }

    #[test]
    fn chrome_spans_skip_empty_phases_and_stack_timestamps() {
        let report = ProfileReport {
            phases: vec![
                PhaseProfile {
                    phase: ProfilePhase::Deliver,
                    wall_ns: 10_000,
                    events: 3,
                },
                PhaseProfile {
                    phase: ProfilePhase::Command,
                    wall_ns: 0,
                    events: 0,
                },
                PhaseProfile {
                    phase: ProfilePhase::InterferenceMark,
                    wall_ns: 4_000,
                    events: 1,
                },
            ],
        };
        let spans = report.chrome_spans();
        assert_eq!(spans.len(), 2, "empty command phase skipped");
        assert!(spans[0].contains("\"name\":\"deliver\""));
        assert!(spans[0].contains("\"ts\":0"));
        assert!(spans[1].contains("\"name\":\"interference-mark\""));
        assert!(spans[1].contains("\"ts\":10"));
        assert!(spans.iter().all(|s| s.contains("\"pid\":1")));
    }

    #[test]
    fn sampled_span_wall_time_is_extrapolated_by_count() {
        let h = ProfileHandle::enabled();
        let mut s = h.scratch().expect("enabled");
        // One timed occurrence with real elapsed time, then enough untimed
        // occurrences that extrapolation must scale the measurement up.
        let t0 = s
            .span_begin(ProfilePhase::InterferenceMark)
            .expect("sampled");
        let spin = Instant::now();
        while spin.elapsed().as_micros() < 200 {
            std::hint::black_box(0);
        }
        s.span_end(ProfilePhase::InterferenceMark, t0);
        for _ in 0..3 {
            assert!(s.span_begin(ProfilePhase::InterferenceMark).is_none());
        }
        h.absorb(&mut s);
        let r = h.report().unwrap();
        let p = r.get(ProfilePhase::InterferenceMark);
        assert_eq!(p.events, 4);
        // wall ≈ measured · 4/1: at least the measured ~200µs, and clearly
        // scaled beyond it.
        assert!(p.wall_ns > 400_000, "extrapolated wall {} ns", p.wall_ns);
    }

    #[test]
    fn ns_per_event_handles_zero() {
        let p = PhaseProfile {
            phase: ProfilePhase::Timer,
            wall_ns: 0,
            events: 0,
        };
        assert_eq!(p.ns_per_event(), 0.0);
    }
}
