//! Span recorder, the `Timed` app wrapper and self-time attribution — all on
//! the benchmark's side of the product's public interface.
//!
//! Coarse spans (one per call into a layer) are kept individually; the ~10⁷
//! app callbacks of a rep are aggregated as count + busy time + allocations
//! per callback kind under the `engine.run_until` span they ran in. A layer's
//! self time is its spans' duration minus what their child spans cover, and
//! the calibrated cost of the callback spans themselves is moved into a
//! layer of its own (`trace`), so that the layer self times and the
//! unattributed remainder sum to the traced wall exactly, in whole ns.

use crate::alloc;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use ttmqo_sim::{Ctx, MsgKind, NodeApp, NodeId};

/// The six `NodeApp` callbacks, in trait order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// `on_start`
    Start,
    /// `on_timer`
    Timer,
    /// `on_message`
    Message,
    /// `on_command`
    Command,
    /// `on_overhear`
    Overhear,
    /// `on_send_failed`
    SendFailed,
}

impl Callback {
    /// Every callback kind.
    pub const ALL: [Callback; 6] = [
        Callback::Start,
        Callback::Timer,
        Callback::Message,
        Callback::Command,
        Callback::Overhear,
        Callback::SendFailed,
    ];

    /// The trait method's name.
    pub fn name(self) -> &'static str {
        match self {
            Callback::Start => "on_start",
            Callback::Timer => "on_timer",
            Callback::Message => "on_message",
            Callback::Command => "on_command",
            Callback::Overhear => "on_overhear",
            Callback::SendFailed => "on_send_failed",
        }
    }
}

/// Count, busy time and allocations of one callback kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallbackAgg {
    /// Calls made.
    pub calls: u64,
    /// Σ measured duration, ns (span cost included until attribution).
    pub busy_ns: u64,
    /// Allocator calls made inside the callbacks.
    pub allocs: u64,
}

/// One aggregate per callback kind, indexed by `Callback as usize`.
pub type CallbackTable = [CallbackAgg; 6];

struct CallbackCells {
    calls: [Cell<u64>; 6],
    busy_ns: [Cell<u64>; 6],
    allocs: [Cell<u64>; 6],
}

thread_local! {
    // The benchmark is single-threaded: every callback of a rep runs on the
    // thread that reads the table back.
    static CALLBACKS: CallbackCells = const {
        CallbackCells {
            calls: [const { Cell::new(0) }; 6],
            busy_ns: [const { Cell::new(0) }; 6],
            allocs: [const { Cell::new(0) }; 6],
        }
    };
}

/// The running per-kind totals of this thread.
pub fn callback_totals() -> CallbackTable {
    CALLBACKS.with(|c| {
        std::array::from_fn(|k| CallbackAgg {
            calls: c.calls[k].get(),
            busy_ns: c.busy_ns[k].get(),
            allocs: c.allocs[k].get(),
        })
    })
}

fn table_diff(after: &CallbackTable, before: &CallbackTable) -> CallbackTable {
    std::array::from_fn(|k| CallbackAgg {
        calls: after[k].calls - before[k].calls,
        busy_ns: after[k].busy_ns - before[k].busy_ns,
        allocs: after[k].allocs - before[k].allocs,
    })
}

#[inline]
fn timed<T>(kind: Callback, f: impl FnOnce() -> T) -> T {
    let allocs = alloc::count();
    let start = Instant::now();
    let out = f();
    let busy_ns = start.elapsed().as_nanos() as u64;
    let allocs = alloc::count() - allocs;
    CALLBACKS.with(|c| {
        let k = kind as usize;
        c.calls[k].set(c.calls[k].get() + 1);
        c.busy_ns[k].set(c.busy_ns[k].get() + busy_ns);
        c.allocs[k].set(c.allocs[k].get() + allocs);
    });
    out
}

/// Forwards every `NodeApp` callback to the real app, timing and counting
/// each call. The engine sees an app with the same payload, command and
/// output types, so the simulated run is the one the product would make.
#[derive(Debug)]
pub struct Timed<A>(pub A);

impl<A: NodeApp> NodeApp for Timed<A> {
    type Payload = A::Payload;
    type Command = A::Command;
    type Output = A::Output;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Payload, Self::Output>) {
        timed(Callback::Start, || self.0.on_start(ctx));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Payload, Self::Output>, key: u64) {
        timed(Callback::Timer, || self.0.on_timer(ctx, key));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Payload, Self::Output>,
        from: NodeId,
        kind: MsgKind,
        payload: &Self::Payload,
    ) {
        timed(Callback::Message, || {
            self.0.on_message(ctx, from, kind, payload)
        });
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, Self::Payload, Self::Output>, cmd: Self::Command) {
        timed(Callback::Command, || self.0.on_command(ctx, cmd));
    }

    fn on_overhear(
        &mut self,
        ctx: &mut Ctx<'_, Self::Payload, Self::Output>,
        from: NodeId,
        kind: MsgKind,
        payload: &Self::Payload,
    ) {
        timed(Callback::Overhear, || {
            self.0.on_overhear(ctx, from, kind, payload)
        });
    }

    fn on_send_failed(
        &mut self,
        ctx: &mut Ctx<'_, Self::Payload, Self::Output>,
        dest: NodeId,
        kind: MsgKind,
    ) {
        timed(Callback::SendFailed, || {
            self.0.on_send_failed(ctx, dest, kind)
        });
    }
}

/// What one callback span costs, measured on empty spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// Wall time one span adds to its parent, ns.
    pub outer_ns: f64,
    /// The part of that an empty span reports as its own busy time, ns.
    pub inner_ns: f64,
}

impl SpanCost {
    /// Times `n` empty callback spans. Without this correction an empty
    /// method called 2·10⁷ times is charged most of a second.
    pub fn calibrate(n: u64) -> SpanCost {
        let before = callback_totals();
        let start = Instant::now();
        for _ in 0..n {
            timed(Callback::Start, || std::hint::black_box(()));
        }
        let outer = start.elapsed().as_nanos() as f64;
        let inner = table_diff(&callback_totals(), &before)[Callback::Start as usize].busy_ns;
        SpanCost {
            outer_ns: outer / n as f64,
            inner_ns: inner as f64 / n as f64,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`; the layer is the part before the dot.
    pub name: &'static str,
    /// Index of the span that caused this one (`None` for a rep's root).
    pub parent: Option<usize>,
    /// The rep the span belongs to.
    pub rep: u32,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
    /// Allocator calls between start and end.
    pub allocs: u64,
    /// App callbacks that ran inside (engine spans only).
    pub callbacks: Option<Box<CallbackTable>>,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of the root span of a rep; its self time is the unattributed
/// remainder.
pub const ROOT: &str = "rep";

/// Name of the spans around `Simulator::run_until`, the only ones app
/// callbacks run under.
pub const ENGINE_SPAN: &str = "engine.run_until";

/// In-memory span store; written out once, when the benchmark ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Recorder {
    /// An empty recorder with room for `capacity` spans, so recording does
    /// not allocate inside the spans it measures.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            rep: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Drops every span and sets the id the next rep's spans will share.
    pub fn start_rep(&mut self, rep: u32) {
        assert!(self.open.is_empty(), "a span is still open");
        self.spans.clear();
        self.rep = rep;
    }

    /// Runs `f` inside a new span called `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let callbacks_before = (name == ENGINE_SPAN).then(callback_totals);
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            callbacks: None,
        });
        self.open.push(id);
        let allocs = alloc::count();
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].allocs = alloc::count() - allocs;
        self.open.pop();
        if let Some(before) = callbacks_before {
            self.spans[id].callbacks = Some(Box::new(table_diff(&callback_totals(), &before)));
        }
        out
    }

    /// The spans recorded since the last [`Recorder::start_rep`].
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span, its own share of a quantity its children's shares are included
/// in: the span's value minus its direct children's.
fn own_share(spans: &[Span], value: impl Fn(&Span) -> u64) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(&value).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= value(span);
        }
    }
    own
}

/// Self time per span: its duration minus the part its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    own_share(spans, Span::duration_ns)
}

/// Where one traced rep's wall time and allocations went.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Duration of the root span, ns.
    pub wall_ns: u64,
    /// Self time by layer, ns. Holds the layers the span names give, `app`
    /// (callback busy time less the span cost), `trace` (the calibrated cost
    /// of the callback spans) and `unattributed` (the root's self time). The
    /// values sum to `wall_ns` exactly.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Duration by span name, ns (children included).
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Spans by span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Longest single span by span name, ns.
    pub max_ns: BTreeMap<&'static str, u64>,
    /// Self allocations by layer (`app` split from `engine` like the time).
    pub allocs: BTreeMap<&'static str, u64>,
    /// Callback aggregates over all engine spans, span cost still included.
    pub callbacks: CallbackTable,
}

/// The layer a span belongs to: the part of its name before the dot.
pub fn layer_of(name: &'static str) -> &'static str {
    if name == ROOT {
        return "unattributed";
    }
    name.split('.').next().unwrap_or(name)
}

impl Attribution {
    /// Attributes one rep's spans. `cost` is the calibrated span cost the
    /// callback aggregates still include.
    ///
    /// # Panics
    ///
    /// Panics if `spans` does not start with a closed root span.
    pub fn of(spans: &[Span], cost: SpanCost) -> Attribution {
        assert!(
            spans
                .first()
                .is_some_and(|s| s.name == ROOT && s.parent.is_none()),
            "the first span is the rep's root"
        );
        let own_ns = self_times_ns(spans);
        let own_allocs = own_share(spans, |s| s.allocs);
        let mut a = Attribution {
            wall_ns: spans[0].duration_ns(),
            self_ns: BTreeMap::new(),
            busy_ns: BTreeMap::new(),
            calls: BTreeMap::new(),
            max_ns: BTreeMap::new(),
            allocs: BTreeMap::new(),
            callbacks: CallbackTable::default(),
        };
        for (i, span) in spans.iter().enumerate() {
            *a.busy_ns.entry(span.name).or_default() += span.duration_ns();
            *a.calls.entry(span.name).or_default() += 1;
            let max = a.max_ns.entry(span.name).or_default();
            *max = (*max).max(span.duration_ns());
            let layer = layer_of(span.name);
            let mut layer_ns = own_ns[i];
            let mut layer_allocs = own_allocs[i];
            if let Some(table) = &span.callbacks {
                let calls: u64 = table.iter().map(|k| k.calls).sum();
                let measured: u64 = table.iter().map(|k| k.busy_ns).sum();
                // Each callback span reports `inner_ns` of its own cost as
                // busy time and adds the rest to the engine span around it.
                let inside = measured.min((cost.inner_ns * calls as f64).round() as u64);
                let outside = (layer_ns - measured)
                    .min(((cost.outer_ns - cost.inner_ns).max(0.0) * calls as f64).round() as u64);
                *a.self_ns.entry("app").or_default() += measured - inside;
                *a.self_ns.entry("trace").or_default() += inside + outside;
                layer_ns -= measured + outside;
                let app_allocs: u64 = table.iter().map(|k| k.allocs).sum();
                *a.allocs.entry("app").or_default() += app_allocs;
                layer_allocs -= app_allocs;
                for (total, k) in a.callbacks.iter_mut().zip(table.iter()) {
                    total.calls += k.calls;
                    total.busy_ns += k.busy_ns;
                    total.allocs += k.allocs;
                }
            }
            *a.self_ns.entry(layer).or_default() += layer_ns;
            *a.allocs.entry(layer).or_default() += layer_allocs;
        }
        a
    }

    /// Self time of `layer`, seconds.
    pub fn self_s(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Σ duration of the spans called `name`, seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.busy_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Self allocations of `layer`.
    pub fn allocs(&self, layer: &str) -> u64 {
        self.allocs.get(layer).copied().unwrap_or(0)
    }

    /// Busy time of one callback kind with the span cost taken out, seconds.
    pub fn callback_s(&self, kind: Callback, cost: SpanCost) -> f64 {
        let k = self.callbacks[kind as usize];
        (k.busy_ns as f64 - cost.inner_ns * k.calls as f64).max(0.0) / 1e9
    }
}

/// Renders one traced rep as a JSON document: every span with its parent,
/// the callback aggregates under their engine span, and the attribution.
pub fn to_json(
    workload: &str,
    seed: u64,
    spans: &[Span],
    cost: SpanCost,
    attribution: &Attribution,
) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 128);
    let w = &mut out;
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"span_cost_ns\":{{\"outer\":{:?},\"inner\":{:?}}},\"wall_ns\":{},\"layer_self_ns\":{{",
        cost.outer_ns, cost.inner_ns, attribution.wall_ns
    )
    .expect("writing to a String cannot fail");
    for (i, (layer, ns)) in attribution.self_ns.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(w, "{sep}\"{layer}\":{ns}").expect("writing to a String cannot fail");
    }
    w.push_str("},\"spans\":[\n");
    for (id, span) in spans.iter().enumerate() {
        let sep = if id > 0 { ",\n" } else { "" };
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            w,
            "{sep}{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"rep\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}",
            span.name, span.rep, span.start_ns, span.end_ns, span.allocs
        )
        .expect("writing to a String cannot fail");
        if let Some(table) = &span.callbacks {
            w.push_str(",\"callbacks\":{");
            let mut first = true;
            for kind in Callback::ALL {
                let k = table[kind as usize];
                if k.calls == 0 {
                    continue;
                }
                let sep = if first { "" } else { "," };
                first = false;
                write!(
                    w,
                    "{sep}\"{}\":{{\"calls\":{},\"busy_ns\":{},\"allocs\":{}}}",
                    kind.name(),
                    k.calls,
                    k.busy_ns,
                    k.allocs
                )
                .expect("writing to a String cannot fail");
            }
            w.push('}');
        }
        w.push('}');
    }
    w.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_sim::{
        ConstantField, Destination, RadioParams, SimConfig, SimTime, Simulator, Topology,
    };

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            rep: 0,
            start_ns,
            end_ns,
            allocs: 0,
            callbacks: None,
        }
    }

    const FREE: SpanCost = SpanCost {
        outer_ns: 0.0,
        inner_ns: 0.0,
    };

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(ROOT, None, 0, 100),
            span("engine.run_until", Some(0), 10, 60),
            span("mapper.ingest", Some(0), 60, 90),
            span("mapper.snapshot", Some(2), 70, 80),
        ];
        assert_eq!(self_times_ns(&spans), [20, 50, 20, 10]);
        let a = Attribution::of(&spans, FREE);
        assert_eq!(a.wall_ns, 100);
        assert_eq!(a.self_ns["unattributed"], 20);
        assert_eq!(a.self_ns["engine"], 50);
        assert_eq!(a.self_ns["mapper"], 30);
        assert_eq!(a.busy_ns["mapper.ingest"], 30);
        assert_eq!(a.self_ns.values().sum::<u64>(), a.wall_ns);
    }

    #[test]
    fn span_cost_moves_to_its_own_layer_and_the_sum_stays_exact() {
        let mut engine = span(ENGINE_SPAN, Some(0), 0, 10_000);
        let mut table = CallbackTable::default();
        table[Callback::Overhear as usize] = CallbackAgg {
            calls: 100,
            busy_ns: 2_000,
            allocs: 7,
        };
        table[Callback::Timer as usize] = CallbackAgg {
            calls: 10,
            busy_ns: 3_000,
            allocs: 1,
        };
        engine.callbacks = Some(Box::new(table));
        engine.allocs = 20;
        let mut root = span(ROOT, None, 0, 10_500);
        root.allocs = 25;
        let cost = SpanCost {
            outer_ns: 30.0,
            inner_ns: 10.0,
        };
        let a = Attribution::of(&[root, engine], cost);
        // 110 calls: 1 100 ns of cost inside the callbacks, 2 200 ns outside.
        assert_eq!(a.self_ns["app"], 5_000 - 1_100);
        assert_eq!(a.self_ns["trace"], 3_300);
        assert_eq!(a.self_ns["engine"], 10_000 - 5_000 - 2_200);
        assert_eq!(a.self_ns["unattributed"], 500);
        assert_eq!(a.self_ns.values().sum::<u64>(), a.wall_ns);
        assert_eq!(a.allocs["app"], 8);
        assert_eq!(a.allocs["engine"], 12);
        assert_eq!(a.allocs["unattributed"], 5);
        // An overestimated cost is clamped, never subtracted below zero.
        let huge = SpanCost {
            outer_ns: 1e6,
            inner_ns: 1e5,
        };
        let mut engine = span(ENGINE_SPAN, Some(0), 0, 10_000);
        engine.callbacks = Some(Box::new(table));
        engine.allocs = 20;
        let mut root = span(ROOT, None, 0, 10_500);
        root.allocs = 25;
        let a = Attribution::of(&[root, engine], huge);
        assert_eq!(a.self_ns["app"], 0);
        assert_eq!(a.self_ns["engine"], 0);
        assert_eq!(a.self_ns.values().sum::<u64>(), a.wall_ns);
    }

    /// Counts its own calls; sends so that every callback kind fires.
    #[derive(Debug, Default)]
    struct CountingApp {
        seen: [u64; 6],
    }

    impl NodeApp for CountingApp {
        type Payload = u8;
        type Command = ();
        type Output = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, u8, ()>) {
            self.seen[Callback::Start as usize] += 1;
            ctx.set_timer(10, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u8, ()>, _key: u64) {
            self.seen[Callback::Timer as usize] += 1;
            if ctx.node() == NodeId(1) {
                // Heard by node 0 (addressed) and node 2 (overheard).
                ctx.send(Destination::Unicast(NodeId(0)), MsgKind::Result, 4, 1u8);
            }
            if ctx.node() == NodeId(2) {
                // Node 3 is asleep for the whole run: every retry fails.
                ctx.send(Destination::Unicast(NodeId(3)), MsgKind::Result, 4, 2u8);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u8, ()>, _: NodeId, _: MsgKind, _: &u8) {
            self.seen[Callback::Message as usize] += 1;
        }
        fn on_command(&mut self, ctx: &mut Ctx<'_, u8, ()>, _cmd: ()) {
            self.seen[Callback::Command as usize] += 1;
            ctx.sleep_for(1_000_000);
        }
        fn on_overhear(&mut self, _: &mut Ctx<'_, u8, ()>, _: NodeId, _: MsgKind, _: &u8) {
            self.seen[Callback::Overhear as usize] += 1;
        }
        fn on_send_failed(&mut self, _: &mut Ctx<'_, u8, ()>, _: NodeId, _: MsgKind) {
            self.seen[Callback::SendFailed as usize] += 1;
        }
    }

    #[test]
    fn timed_forwards_all_six_callbacks() {
        let topo = Topology::grid(2).expect("a 2x2 grid is valid");
        let mut sim = Simulator::new(
            topo,
            RadioParams::lossless(),
            SimConfig {
                maintenance_interval_ms: None,
                ..SimConfig::default()
            },
            Box::new(ConstantField),
            |_, _| Timed(CountingApp::default()),
        );
        sim.schedule_command(SimTime::ZERO, NodeId(3), ());
        let before = callback_totals();
        sim.run_until(SimTime::from_ms(10_000));
        let counted = table_diff(&callback_totals(), &before);
        let mut seen = [0u64; 6];
        for node in 0..4 {
            for (total, n) in seen.iter_mut().zip(sim.node(NodeId(node)).0.seen) {
                *total += n;
            }
        }
        for kind in Callback::ALL {
            let k = kind as usize;
            assert!(seen[k] > 0, "{} never fired", kind.name());
            assert_eq!(counted[k].calls, seen[k], "{}", kind.name());
        }
    }

    #[test]
    fn calibration_measures_a_positive_cost() {
        let cost = SpanCost::calibrate(100_000);
        assert!(cost.outer_ns > 0.0);
        assert!(cost.inner_ns >= 0.0 && cost.inner_ns <= cost.outer_ns);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut rec = Recorder::with_capacity(8);
        rec.start_rep(3);
        rec.span(ROOT, |rec| {
            rec.span("tier1.call", |_| ());
            rec.span(ENGINE_SPAN, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 3));
        assert!(spans[2].callbacks.is_some() && spans[1].callbacks.is_none());
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let json = to_json("w", 1, spans, FREE, &Attribution::of(spans, FREE));
        assert!(json.contains("\"name\":\"tier1.call\",\"parent\":0,\"rep\":3"));
    }
}
