//! Allocation budgets of the in-network tier's receive path.
//!
//! A count of allocator calls is exact and machine-independent, so it can
//! gate what a wall clock cannot: every overheard result frame refreshes the
//! DAG's has-data knowledge (≈14 receivers per frame on a big grid), and that
//! path must stay free of allocations once its buffers are warm.
//!
//! The binary installs its own counting allocator. Counts are per thread —
//! the harness runs tests on parallel threads, and each test measures only
//! the calls and bytes its own thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ttmqo_core::{
    run_experiment, DagState, Election, ExperimentConfig, RowEntry, RunSession, Strategy, TtmqoApp,
    TtmqoConfig, TtmqoPayload, WorkloadEvent,
};
use ttmqo_query::{parse_query, Attribute, EpochAnswer, QueryId, Readings, Row};
use ttmqo_sim::{
    Ctx, Destination, MsgKind, NodeApp, NodeId, Observe, Position, Probe, RadioParams, SimConfig,
    SimTime, Simulator, Topology, TraceEvent, TraceHandle, TraceRecord, TraceSink, UniformField,
};
use ttmqo_tinydb::{Command, TinyDbApp, TinyDbConfig};
use ttmqo_workloads::{random_workload, workload_a, workload_end_ms, RandomWorkloadParams};

thread_local! {
    /// `alloc`, `alloc_zeroed` and `realloc` calls made by this thread.
    /// Const-initialised and without a destructor, so reading it inside the
    /// allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated minus the bytes it has freed
    /// (requested sizes, not the allocator's rounding).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has read since `peak_live_during` last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn note(grown: usize, shrunk: usize) {
    // Unavailable only while the thread is being torn down; nothing is
    // measured then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    live(grown, shrunk);
}

fn live(grown: usize, shrunk: usize) {
    let _ = LIVE.try_with(|n| {
        let now = n.get() + grown as i64 - shrunk as i64;
        n.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller guarantees `layout` is valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(0, layout.size());
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls this thread makes while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The most bytes this thread held at once while running `f`, above what it
/// held when `f` began: the heap's high-water mark, which is what a process's
/// peak resident set follows once the heap dominates it.
fn peak_live_during<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (PEAK.with(Cell::get) - before, out)
}

/// Bytes this thread frees, net of what it allocates, while running `f`.
fn bytes_freed_by(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    f();
    before - LIVE.with(Cell::get)
}

fn qs(ids: &[u64]) -> Vec<QueryId> {
    ids.iter().map(|&i| QueryId(i)).collect()
}

#[test]
fn warm_dag_updates_and_elections_allocate_only_what_they_return() {
    let mut dag = DagState::new(vec![(NodeId(1), 0.9), (NodeId(2), 0.5), (NodeId(3), 0.3)]);
    // Cold: the one vector every neighbour's list lives in grows to its
    // working size once (while each list was a vector of its own, each grew
    // on its own).
    dag.record_has_data(NodeId(2), qs(&[10, 11, 12, 13]));
    dag.record_has_data(NodeId(3), qs(&[14, 15, 16, 17]));

    // Warm: overwriting a list in place — in any order, with repeats, with
    // no more ids than the list it replaces — allocates nothing; neither
    // does hearing from a stranger.
    let fresh = [13, 10, 10, 12].map(QueryId);
    let (n, ()) = allocs_during(|| {
        dag.record_has_data(NodeId(2), fresh);
        dag.record_has_data(NodeId(3), [QueryId(14), QueryId(16)]);
        dag.record_has_data(NodeId(99), fresh);
    });
    assert_eq!(n, 0, "warm record_has_data allocated");
    assert_eq!(dag.known_data(NodeId(2)), Some(&qs(&[10, 12, 13])[..]));

    // An election that its first round settles on one parent — a neighbour
    // with data for every query, or nobody with data for any — allocates
    // nothing. A split allocates the vectors it returns — the outer list and
    // one share per parent — and no scratch: a two-way split, and a split
    // whose uncovered rest merges into an already-picked parent (node 2 has
    // the best live link once node 1 is presumed dead).
    dag.set_failure_detector(1);
    dag.record_no_route(NodeId(1));
    for (queries, parent) in [(qs(&[10, 12]), 2), (qs(&[14, 16]), 3), (qs(&[20, 21]), 2)] {
        let (n, chosen) = allocs_during(|| dag.choose_parents(queries.iter().copied()));
        assert_eq!(chosen, Election::One(NodeId(parent)), "{queries:?}");
        assert_eq!(n, 0, "electing one parent for {queries:?} allocated");
    }
    for queries in [qs(&[10, 12, 14]), qs(&[10, 14, 16, 20, 21])] {
        let (n, chosen) = allocs_during(|| dag.choose_parents(queries.iter().copied()));
        let Election::Split(shares) = &chosen else {
            panic!("{queries:?} → {chosen:?}");
        };
        assert_eq!(shares.len(), 2, "{queries:?} → {chosen:?}");
        assert!(
            n <= 1 + shares.len() as u64,
            "choose_parents({queries:?}) made {n} allocations for {} returned vectors",
            1 + shares.len()
        );
    }
}

/// Counts the frame copies handed to node apps inside a time window.
struct DeliveredInWindow {
    from_us: u64,
    to_us: u64,
    copies: Arc<AtomicU64>,
}

impl TraceSink for DeliveredInWindow {
    fn record(&mut self, rec: &TraceRecord) {
        if matches!(rec.event, TraceEvent::Engine(Probe::Delivered { .. }))
            && (self.from_us..self.to_us).contains(&rec.time_us)
        {
            self.copies.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn steady_state_two_tier_allocates_less_than_once_per_delivered_frame_copy() {
    // Workload A poses everything at time zero; eight base epochs in, the
    // floods are long over and every has-data list is warm. The window is
    // the sixteen base epochs after that.
    let from = SimTime::from_ms(8 * 2048);
    let to = SimTime::from_ms(24 * 2048);
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 8,
        duration: to,
        radio: RadioParams::lossless(),
        ..ExperimentConfig::default()
    };

    // Tracing never changes what the network does, so a traced twin run
    // tells how many frame copies the window delivers...
    let copies = Arc::new(AtomicU64::new(0));
    let traced = ExperimentConfig {
        observe: Observe {
            trace: TraceHandle::new(DeliveredInWindow {
                from_us: from.as_ms() * 1000,
                to_us: to.as_ms() * 1000,
                copies: Arc::clone(&copies),
            }),
            ..Observe::default()
        },
        ..config.clone()
    };
    let workload = workload_a();
    RunSession::new(&traced, &workload).run_to(to);
    let copies = copies.load(Ordering::Relaxed);
    assert!(copies > 10_000, "window too quiet: {copies} frame copies");

    // ...and the untraced run is the one whose allocator calls count:
    // engine, apps and the runner's own bookkeeping, everything.
    let mut session = RunSession::new(&config, &workload);
    session.run_to(from);
    let (allocs, ()) = allocs_during(|| session.run_to(to));

    // Measured: 4 297 allocations for 40 999 copies, 0.10 per copy — frames
    // built at their origin, and at a relay only when it merges partials or
    // splits its queries among several parents; none on an overhear, none on
    // a forwarded unicast hop. Rebuilding every relayed frame made 32 130
    // (0.78 per copy); the hash-map/`BTreeSet` receive path before that,
    // 160 615 (3.92 per copy).
    assert!(
        allocs < copies,
        "{allocs} allocations for {copies} delivered frame copies ({:.2} per copy)",
        allocs as f64 / copies as f64
    );
}

#[test]
fn an_unobserved_cell_makes_a_pinned_number_of_allocator_calls() {
    // The whole run, set-up included, of the cell the root suite pins
    // (`innet_only_8x8_cell_is_pinned`): Tier 2 only, Workload A, 8×8, every
    // observer off. The count was 61 232 from commit 755f41b (before the
    // engine's accounting moved behind the probe seam — an unobserved run
    // must not pay an allocation for observers it does not have) to 88a8754,
    // was 61 085 once the per-event mapping timeline became the query
    // ledger, and 58 553 once the engine's event queue became one binary
    // heap: the calendar queue's bucket `Vec`s and their regrowth were gone,
    // and one `Box` per scheduled command came in. It is 28 132 since
    // readings, predicate sets and attribute sets are inline values: no
    // B-tree node per row or per query copy, no attribute `Vec` per clock
    // firing. It is 27 903 since a frame's collision state is one bitset
    // over its receivers, allocated once per slab slot where the receiver
    // list re-grew 4 → 8 → 16, and the per-kind counters are two arrays. It
    // is 14 182 since a result frame to one parent names nobody: a relay
    // forwards the frame it was handed, electing one parent builds no
    // vector, and a rows frame holds its one entry inline. It is 14 042
    // since an acquisition answer is one exact-size allocation: the base
    // station spends one call on each answer it closes and one on each it
    // maps for a user, where the mapper's filtered `Vec<Row>` re-grew past 4,
    // 8 and 16 rows, and an aggregate computed from rows reads them in place
    // instead of from a filtered copy. It is 13 026 since a flooded query is
    // one shared allocation: no node copies the `Query` when it installs or
    // relays it, the flood frames carry the base station's one copy, and the
    // B-tree of each node's query table holds a pointer where it held the
    // whole query. It is 12 933 since a frame slot owns no allocation: its
    // collision bits are words of one slab-wide array, where each new slot
    // allocated its own bitset. It is 12 936 since a member's answer is a
    // view of its synthetic answer: each synthetic answer here serves one
    // member, so its one shared block is the one allocation the member's copy
    // was, and the three calls more are the selection scratch's three vectors,
    // allocated once per thread and kept. It is 12 925 since the base station
    // holds an epoch only from its open to its close: the 12 rows and 3
    // partials entries that arrive after their close are counted and
    // dropped, where each began a buffer of its own that nothing read. It is
    // 12 605 since the grid is bucketed without hashing into flat neighbour
    // lists and the session no longer clones it. It is 11 488 since a node's
    // state is a few flat vectors: one sorted table of query ids with their
    // flood, has-data and requested marks and the definitions held, where
    // the installed queries, the flood table and the has-data and requested
    // sets were four B-trees; one vector of DAG records with every
    // neighbour's has-data list back to back, where each list was a vector
    // of its own beside five parallel ones; and result buffers in sorted
    // vectors grown one entry at a time, where they were hash tables. It is
    // 11 480 since the session's ledger takes each posed query out of the
    // session's events, where it cloned it. It is 11 471 since the ledger
    // keeps no copy of an injected query that is a user's own: each of the
    // 8 poses cloned its query (one call for its selection) into a B-tree
    // leaf of its own map. It is 11 468 since `Srt::build` reads node
    // positions only: the subtree id ranges, subtree boxes and level order
    // the static answer-set check never read were three vectors, and stays so
    // as it reads no positions (−1) and the session's event buffer shrinks
    // (+1). It is 11 457 since each user is one record from pose to report
    // rows, where the session kept three maps by user and built a map of each
    // user's answers by epoch at the end, and the workload's ids are checked
    // to be posed once (+1). It is 10 449 since a node's own seeds become
    // its slot buffer instead of a copy (−1 008). The count is the same in
    // debug and release builds (CI runs both).
    let config = ExperimentConfig {
        strategy: Strategy::InNetOnly,
        grid_n: 8,
        duration: SimTime::from_ms(24 * 2048),
        ..ExperimentConfig::default()
    };
    let workload = workload_a();
    let (allocs, report) = allocs_during(|| run_experiment(&config, &workload));
    assert_eq!(report.engine.frames_total, 5965, "not the pinned cell");
    assert_eq!(allocs, 10_449);
}

#[test]
fn a_churn_cell_makes_a_pinned_number_of_allocator_calls() {
    // A hundred queries arriving and leaving under the full scheme on 4×4:
    // the base station's bookkeeping per workload event is what this run
    // spends its allocator calls on. At commit 88a8754, which cloned the
    // whole user → synthetic map after every event and kept every clone, the
    // run made 89 644 calls; the query ledger brought it to 85 121, and the
    // binary-heap event queue (no bucket `Vec`s; one `Box` per scheduled
    // command) to 78 836, and deleting Tier 1's candidate index back up to
    // 79 054 (scoring the pairs it pruned costs more calls than maintaining
    // it saved). Inline readings, predicate sets and attribute sets brought
    // it to 40 361: every query Tier 1 copies, floods or probes with no
    // longer carries a B-tree, and every answer row is one flat value; the
    // per-slot collision bitset and the per-kind counter arrays, to 40 290;
    // unicast result frames that name nobody and are forwarded, not rebuilt,
    // to 26 746; acquisition answers built at exact size in one allocation
    // each, with no filtered `Vec<Row>` re-growing on the way, and aggregates
    // read from the rows in place, to 26 442; floods that carry one shared
    // copy of each query, with no `Query` clone per install or relay, to
    // 22 513; each node's two seen-flood B-trees merged into one table of
    // both facts per query id, one leaf where there were two, to 22 229;
    // frame slots whose collision bits are words of one slab-wide array, with
    // no bitset allocated per new slot, to 22 200; member answers that are
    // views of one block per synthetic epoch answer, to 22 131: the 211
    // member answers with rows were 211 allocations and are 136 blocks (−75),
    // and the selection scratch's vectors cost 6 calls, once per thread; a
    // base station that counts and drops what arrives for an epoch it does
    // not hold open (45 rows and 3 partials entries) instead of buffering it,
    // to 22 125; a grid bucketed without hashing into flat neighbour lists,
    // held once by the simulator, to 22 051; each node's query ids, DAG
    // has-data lists and result buffers in a few flat vectors, where they
    // were B-trees, one vector per neighbour and hash tables, to 20 839; an
    // answer block that does not store a `nodeid` value equal to its row's
    // node id, to 20 838 (the staging buffer grows one step less); a ledger
    // that takes each posed query out of the session's events, where it
    // cloned it, to 20 739; and back up to 20 812 as each of the 73
    // terminated users' answer vectors with growth slack is shrunk to fit
    // once its answers are final, one reallocation each; then to 20 644 once
    // Tier 1 kept each user's query and synthetic id in one B-tree where it
    // kept two: no clone of each of the 100 inserted queries and of each of
    // the 55 members re-inserted under a fresh id, and 13 B-tree nodes fewer;
    // then to 20 243 once Tier 1 read its network operations off the call's
    // removals and the ids it handed out, where each of its 200 calls
    // collected the running synthetic ids into a fresh B-tree set (−398), and
    // `Srt::build` kept only positions (−3); then to 20 242 once no position
    // list was collected (−4) and the event buffer shrank as it emptied (+3);
    // then to 20 036 once each user was one record from pose to report rows
    // (−206); then to 19 996 once the ledger dropped a final user's services
    // and an aborted synthetic's definition and services, so its B-trees
    // stay small (−40); then to 18 868 once a node's own seeds became its
    // slot buffer instead of a copy (−1 128).
    let workload = random_workload(&RandomWorkloadParams {
        n_queries: 100,
        mean_arrival_ms: 10_000.0,
        nodeid_max: 15.0,
        ..RandomWorkloadParams::default()
    });
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        grid_n: 4,
        duration: SimTime::from_ms(workload_end_ms(&workload)) + 4 * 2048,
        ..ExperimentConfig::default()
    };
    let (allocs, report) = allocs_during(|| run_experiment(&config, &workload));
    assert_eq!(report.optimizer_stats.map(|s| s.terminated), Some(100));
    assert_eq!(allocs, 18_868);

    // What the users' answers hold once the run is over — 443 answers,
    // 2 059 rows, 3 503 values — pinned exactly: the bytes freed by dropping
    // them. As `Vec<Row>` (64 B a row, growth slack kept, a five-slot
    // readings map and a time per row) that was 208 016 B; as exact-size
    // node/value columns (4 B a row head, 8 B a value, the epoch once) it was
    // 79 640 B. As views of one shared block per synthetic epoch answer it is
    // 80 672 B, 1 032 B more: the row words fall 36 744 → 28 680 B (−8 064),
    // as only 211 member answers share 136 blocks here, while the blocks pay
    // 2 176 B of `Arc` headers, 1 088 B of row counts and 520 B for 65 row
    // masks, and the 664 slots of the users' answer vectors 8 B each for a
    // larger view (+5 312 B): the price of sharing, where so few members
    // share. The benchmark's own scale is where it pays:
    // `answers_of_the_benchmark_churn_stream_share_their_synthetic_rows`. It
    // is 74 656 B since a block stores no `nodeid` value equal, bit for bit,
    // to its row's node id (752 values, 6 016 B), and 64 048 B since a
    // terminated user's answer vector is shrunk to fit (221 unused 48-byte
    // slots). It is 63 680 B since the report's map of answers is filled as
    // users become final, in fewer B-tree nodes.
    let answers = report.answers;
    let mut held = (0, 0, 0);
    for (_, answer) in answers.values().flatten() {
        held.0 += 1;
        if let EpochAnswer::Rows(rows) = answer {
            held.1 += rows.len();
            held.2 += rows.iter().map(|r| r.readings.len()).sum::<usize>();
        }
    }
    assert_eq!(held, (443, 2059, 3503), "not the pinned cell");
    assert!(
        answers.values().all(|a| a.capacity() == a.len()),
        "a terminated user's answers kept growth slack"
    );
    assert_eq!(bytes_freed_by(|| drop(answers)), 63_680);
}

/// The repo benchmark's `adaptive-churn` inputs: 500 queries arriving and
/// leaving on 8×8 under the full scheme, where Tier 1 folds nearly every
/// user query into one of a few synthetic queries, so each synthetic epoch
/// answer serves several members.
fn benchmark_churn_stream() -> (ExperimentConfig, Vec<WorkloadEvent>) {
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
    (config, workload)
}

#[test]
fn the_benchmark_churn_stream_peaks_at_a_pinned_number_of_live_bytes() {
    // The heap's high-water mark over a whole `adaptive-churn` run, set-up
    // included, every observer off: the exact proxy for the peak resident
    // set the repo benchmark reports there, where the users' answers are
    // most of the heap. It was 3 505 289 B while every answer block stored
    // each row's `nodeid` value beside the node id its head already held,
    // each user's answer vector kept its growth slack after the user was
    // gone, and the session's ledger held a clone of every posed query.
    // Implied `nodeid` values took it to 3 057 841 B (−447 448), a ledger
    // that takes each posed query out of the session's events to 3 057 032 B
    // (−809), answer vectors shrunk to fit once final to 2 798 024 B
    // (−259 008), and Tier 1's users in one B-tree of one record to
    // 2 797 920 B (−104: the user → synthetic leaf's 192 B, less 8 B more
    // for each of the 11 slots of the users' leaf). It is 2 793 032 B
    // (−4 888) since queries flood with no pruning option: each of the 64
    // apps' query tables is 40 B smaller (2 560 B), the static answer-set
    // check builds no subtree ranges or boxes (2 304 B), and a fault plan
    // has no region list (24 B). It is 2 568 264 B since a query holds no
    // region and no position list is built (−80 768), and the session's
    // event buffer shrinks as it empties: the peak came before the last
    // event, with all 1 000 held (−144 000). It is 2 441 783 B since a
    // user's record leaves the ledger once its answers are final, where the
    // ledger held every user ever posed (−126 481). It is 2 404 868 B since
    // the ledger drops a final user's services and an aborted synthetic's
    // definition and services, where it kept every one ever made to the end
    // (−36 915). The same in debug and release.
    let (config, workload) = benchmark_churn_stream();
    let (peak, report) = peak_live_during(|| RunSession::new(&config, &workload).finish());
    assert_eq!(report.optimizer_stats.map(|s| s.terminated), Some(500));
    assert_eq!(peak, 2_404_868);
}

#[test]
fn answers_of_the_benchmark_churn_stream_share_their_synthetic_rows() {
    let (config, workload) = benchmark_churn_stream();
    let (allocs, report) = allocs_during(|| run_experiment(&config, &workload));
    assert_eq!(report.optimizer_stats.map(|s| s.terminated), Some(500));
    let answers = report.answers;
    let mut held = (0, 0, 0);
    for (_, answer) in answers.values().flatten() {
        held.0 += 1;
        if let EpochAnswer::Rows(rows) = answer {
            held.1 += rows.len();
            held.2 += rows.iter().map(|r| r.readings.len()).sum::<usize>();
        }
    }
    assert_eq!(held, (12_892, 300_182, 499_532), "not the pinned stream");

    // 8 998 of the 12 892 answers are rows answers, mapped from 1 299
    // synthetic epoch answers. Copied out one per member, their row words
    // came to 5 215 040 B, and the answers to 6 226 640 B. As views, the 8 915
    // that hold rows share 1 218 blocks, which store 1 682 584 B of row words
    // (only the rows and attributes some member keeps; the whole synthetic
    // answers were 1 846 128 B) plus their row counts and masks: 2 916 832 B
    // in all. Of the blocks' 177 668 value words, 55 803 were `nodeid` values
    // equal, bit for bit, to the node id their row head holds; a head marks
    // them implied instead (2 470 408 B). Every user here is terminated, and
    // its answers are final once the run is past that instant: shrunk to
    // fit, the vectors give back 5 396 unused 48-byte slots. 2 207 160 B
    // (−4 240) since the report's map of answers is filled as users become
    // final, in fewer B-tree nodes.
    assert!(
        answers.values().all(|a| a.capacity() == a.len()),
        "a terminated user's answers kept growth slack"
    );
    assert_eq!(bytes_freed_by(|| drop(answers)), 2_207_160);
    // 8 915 member allocations became 1 218 blocks: the run made 265 848
    // allocator calls before, and 258 179 until the base station dropped the
    // 73 rows and 42 partials entries that arrive after their epoch's close
    // instead of buffering them, and 258 081 until the grid was bucketed
    // without hashing into flat neighbour lists and held once, and 257 761
    // until each node's query ids, DAG has-data lists and result buffers
    // were a few flat vectors, and 247 782 until blocks implied equal
    // `nodeid` values (−1: the staging buffer grows one step less) and the
    // ledger took each posed query out of the session's events instead of
    // cloning it (−499); shrinking the 444 terminated users' answer vectors
    // with slack costs one reallocation each. 247 144 since Tier 1 keeps
    // each user's query and synthetic id in one B-tree where it kept two:
    // no clone of each of the 500 inserted queries and of each of the 17
    // members re-inserted under a fresh id, and 65 B-tree nodes fewer.
    // 245 143 since Tier 1 reads its network operations off each call's
    // removals and the ids it handed out, where each of its 1 000 calls
    // collected the running synthetic ids into a fresh B-tree set (−1 998),
    // and `Srt::build` keeps only positions (−3). 245 141 since no position
    // list is collected (−6) and the session's event buffer shrinks to fit
    // each time it is a quarter full (+4). 242 892 since each user is one
    // record from pose to report rows, where the session kept three maps by
    // user and built a map of each user's answers by epoch at the end.
    // 242 858 since the ledger drops a final user's services and an aborted
    // synthetic's definition and services (−34). 234 739 since a node's own
    // seeds become its slot buffer instead of a copy (−8 119). The same in
    // debug and release.
    assert_eq!(allocs, 234_739);
}

#[test]
fn workload_a_cells_peak_at_a_pinned_number_of_live_bytes() {
    // The heap's high-water mark over a whole 8×8 Workload-A run, set-up
    // included, every observer off: an exact proxy for the peak resident set
    // the repo benchmark's `baseline-32x32` and `twotier-32x32` report. It
    // was 390 458 B (Baseline) and 311 917 B (TwoTier) while every node held
    // its own 176-byte copy of each query in a B-tree leaf and each TinyDB
    // rows frame held a one-row `Vec<Row>` next to room for a whole query.
    // It was 250 420 B and 193 488 B once a flooded query was one shared
    // allocation and a rows frame carried its one row inline. It is 240 692 B
    // and 190 416 B since one flood table per node holds both seen facts per
    // query id (in a B-tree leaf where TinyDB had a hash set and the
    // in-network tier two B-trees) and boxes the semantic routing tree that
    // these runs never build. It is 225 684 B and 186 768 B since a frame slot
    // is a flat 48-byte value (88 B before) and its collision bits are words
    // of one slab-wide array, where each slot held a 32-byte bitset of its
    // own. It is 226 388 B and 169 632 B since a member's answer is a view of
    // its synthetic answer's one block, and the base station's result buffers
    // hash with fixed keys. With a per-process random seed, when a table with
    // deleted entries grew depended on where its keys hashed, so a run's peak
    // and allocator calls could differ from one process to the next; under
    // fixed keys the parent commit reads 223 636 B and 184 720 B. Under
    // TwoTier the 78 rows answers share 23 blocks, whose 11 040 B of row
    // words replace 28 352 B of copies (−15 088 B). Under Baseline each of
    // the 78 is its own synthetic's, so nothing is shared: each block pays a
    // 16-byte `Arc` header and a row-count word (1 872 B), and each of the 136
    // slots of the users' answer vectors 8 B for the larger view (1 088 B):
    // +2 752 B at the peak (+1.2 %), the price of sharing. It is 188 808 B and
    // 168 900 B since the base station holds an epoch only from its open to
    // its close: what arrived later (443 rows and 105 partials entries under
    // Baseline, 2 and 3 under TwoTier) was held in buffers no close read.
    // It is 188 792 B and 168 884 B since a frame's header size and a
    // beacon's payload size are constants, not fields: the boxed simulator
    // holds a `RadioParams` and a `SimConfig` 8 B smaller each. It is
    // 188 776 B and 168 868 B since the engine keeps each count once: the
    // boxed simulator drops its own frames-ever and slab-high-water fields
    // (16 B), read off the metrics' transmit count and the slab's length.
    // It is 180 484 B and 160 064 B since the session holds the topology
    // once, in the simulator, where it held a clone, and that one copy's
    // neighbour lists are one flat array. It is 166 812 B and 115 243 B since
    // a node's state is a few flat vectors (a sorted table of query ids, one
    // vector of DAG records, result buffers grown one entry at a time) where
    // it was B-trees, per-neighbour vectors and hash tables: a TtmqoApp is
    // 280 B inline (392 B before), and on `twotier-32x32` its heap is about a
    // third of what it was. It is 166 802 B and 115 233 B since the
    // session's ledger takes each posed query out of the session's events,
    // where it held a clone of it. It is 164 752 B and 115 129 B since the
    // ledger keeps no copy of an injected query that is a user's own (under
    // Baseline, the 8 users' copies: a 2 040-byte B-tree leaf and 10 B of
    // selections) and Tier 1 keeps each user's query and synthetic id in one
    // B-tree (under TwoTier, one 192-byte leaf fewer, 88 B more in the other).
    // It is 162 168 B and 112 209 B since queries flood with no pruning
    // option and a fault plan has no region list (each of the 64 apps' query
    // tables 40 B smaller, the plan 24 B: −2 584 B under Baseline, −2 816 B
    // under TwoTier) and Tier 1 keeps no set of injected ids (TwoTier: one
    // 104-byte B-tree leaf). It is 159 936 B and 107 873 B since a query
    // holds no region (40 B), no position list is built (1 024 B each) and
    // the session frees its event buffer once the eight poses are applied.
    // Baseline's is 159 920 B since each user is one record in one B-tree
    // (TwoTier's peak comes before any user is posed). It is 167 680 B since
    // a frame owns its payload in its slab slot (120 B under TinyDB, where a
    // 48-byte slot pointed at a 104-byte `Arc`): in a run this short the
    // larger slots leave more unused capacity in the slab than the frames'
    // own allocations saved. Both are the same in debug and release builds.
    let workload = workload_a();
    let cells = [
        (Strategy::Baseline, 11_763, 167_680),
        (Strategy::TwoTier, 5_981, 107_873),
    ];
    for (strategy, frames, pinned) in cells {
        let config = ExperimentConfig {
            strategy,
            grid_n: 8,
            duration: SimTime::from_ms(24 * 2048),
            ..ExperimentConfig::default()
        };
        let (peak, report) = peak_live_during(|| run_experiment(&config, &workload));
        assert_eq!(
            report.engine.frames_total, frames,
            "{strategy:?}: not the pinned cell"
        );
        assert_eq!(peak, pinned, "{strategy:?}");
    }
}

#[test]
fn the_papers_32x32_deployment_peaks_at_a_pinned_number_of_live_bytes() {
    // The heap's high-water mark over a 32×32 Workload-A run to two base
    // epochs, set-up included, every observer off: what the 1 024 nodes'
    // apps hold once every query is installed and every has-data list
    // recorded, before any backlog builds. While each node kept its query
    // ids in B-trees, its DAG has-data lists one vector per neighbour and its
    // result buffers in hash tables, the peaks were 1 988 228 B (TwoTier)
    // and 1 594 296 B (Baseline); as a few flat vectors per node they are
    // 557 B and 112 B per node less. They were 1 417 467 B and 1 479 284 B
    // until the session's ledger took each posed query out of the session's
    // events instead of cloning it, and 1 417 457 B and 1 479 274 B until the
    // ledger kept no copy of a user's own injected query (Baseline, −2 050 B)
    // and Tier 1 kept its users in one B-tree of one record (TwoTier,
    // −104 B). They were 1 417 353 B and 1 477 224 B until queries flooded
    // with no pruning option: a node's query table holds no pruning flag,
    // relay-only list or boxed routing tree, 40 B less in each of the 1 024
    // apps (40 960 B), and the peaks fell by 40 984 B and 46 040 B; TwoTier's
    // fell 104 B more as Tier 1 stopped keeping a set of injected ids. They
    // were 1 376 265 B and 1 431 184 B until a query held no region and the
    // cost model no list of 1 023 positions (16 384 B), and 1 356 569 B and
    // 1 428 952 B until each user was one record in one B-tree. Baseline's
    // was 1 428 936 B until a frame owned its payload in a 120-byte slot:
    // two epochs build no backlog, so the slab's unused capacity outweighs
    // the frames' saved allocations. The same in debug and release builds.
    let workload = workload_a();
    for (strategy, pinned) in [
        (Strategy::TwoTier, 1_356_553),
        (Strategy::Baseline, 1_453_448),
    ] {
        let config = ExperimentConfig {
            strategy,
            grid_n: 32,
            duration: SimTime::from_ms(2 * 2048),
            ..ExperimentConfig::default()
        };
        let (peak, _) = peak_live_during(|| run_experiment(&config, &workload));
        assert_eq!(peak, pinned, "{strategy:?}");
    }
}

#[test]
fn setting_up_the_papers_32x32_deployment_makes_a_pinned_number_of_allocator_calls() {
    // The grid is built once per run and bucketed without hashing: its
    // positions, each node's bucket, the buckets' bounds and their nodes in
    // order, the flat neighbour array (sized once from the candidates and
    // trimmed once), its offsets, the levels and the BFS queue. The SipHash
    // bucket map and one `Vec` per neighbour list made 4 306 calls.
    let (allocs, topo) = allocs_during(|| Topology::grid(32).unwrap());
    assert_eq!(topo.node_count(), 1024);
    assert_eq!(allocs, 9);
    // A session keeps that one copy: the simulator owns it, and the session
    // reads it through the simulator. Cloning it into the simulator made
    // 5 541 calls (TwoTier) and 5 524 (Baseline). TwoTier made 47 until its
    // cost model stopped collecting positions (nine growth steps), 38 and 30
    // until the workload's ids were checked to be posed once (one vector).
    let workload = workload_a();
    for (strategy, pinned) in [(Strategy::TwoTier, 39), (Strategy::Baseline, 31)] {
        let config = ExperimentConfig {
            strategy,
            grid_n: 32,
            ..ExperimentConfig::default()
        };
        let (allocs, session) = allocs_during(|| RunSession::new(&config, &workload));
        drop(session);
        assert_eq!(allocs, pinned, "{strategy:?}");
    }
}

#[test]
fn a_session_on_a_topology_override_holds_one_copy_of_it() {
    // The S2 random deployments set `topology_override`. The session moves
    // it out of its own copy of the config into the simulator, so it holds
    // one topology, as on the grid path. Cloning it once more for the
    // simulator made 40 calls and held 43 490 bytes. The session held
    // 39 946 bytes until its 64 apps were 112 B smaller each (7 168 B): a
    // node's query table, DAG state and result buffers are flat vectors,
    // where they were B-trees, per-neighbour vectors and hash tables. It held
    // 32 778 bytes until each app's query table was 40 B smaller again (no
    // pruning flag, relay-only list or boxed routing tree: 2 560 B) and the
    // fault plan it keeps lost its region list (24 B). It made 36 calls and
    // held 30 194 bytes until the cost model kept no positions (five growth
    // steps, 1 024 B) and the eight queries no region (320 B), and 31 calls
    // until the workload's ids were checked to be posed once.
    let topo = Topology::random_uniform(64, 150.0, 50.0, 12).unwrap();
    let workload = workload_a();
    let config = ExperimentConfig {
        strategy: Strategy::TwoTier,
        topology_override: Some(topo),
        ..ExperimentConfig::default()
    };
    let (allocs, session) = allocs_during(|| RunSession::new(&config, &workload));
    let held = bytes_freed_by(|| drop(session));
    assert_eq!((allocs, held), (32, 28_850));
}

#[test]
fn a_topology_spread_over_any_distance_allocates_for_its_nodes_only() {
    // However far apart the nodes are, the bucket grid has O(n) buckets:
    // these three nodes are disconnected at every spread, and the build's
    // heap high-water mark is the same whether the far node is 1 000 ft or
    // 1e300 ft away.
    let peak_at = |x: f64| {
        let positions = vec![
            Position { x: 0.0, y: 0.0 },
            Position { x, y: x },
            Position { x: 20.0, y: 0.0 },
        ];
        let (peak, built) = peak_live_during(|| Topology::from_positions(positions, 50.0));
        assert!(built.is_err(), "{x}");
        peak
    };
    let near = peak_at(1e3);
    for x in [1e15, 1e300, f64::MAX, -f64::MAX] {
        assert_eq!(peak_at(x), near, "{x}");
    }
}

/// The epoch of [`warm_line`] whose frames the tests below watch.
const LINE_EPOCH_MS: u64 = 4 * 2048;

/// A three-node line on which only node 2 qualifies for the one query, so
/// each epoch exactly one rows frame travels 2 → 1 → 0 and node 1 is a pure
/// hop-by-hop relay, run to just before [`LINE_EPOCH_MS`]: four epochs warm
/// the slab, the event queue, the interference lists and the app's own
/// state.
fn warm_line<A>(app: fn() -> A) -> Simulator<A>
where
    A: NodeApp<Command = Command> + 'static,
{
    let line = (0..3)
        .map(|x| Position {
            x: f64::from(x),
            y: 0.0,
        })
        .collect();
    let mut sim = Simulator::new(
        Topology::from_positions(line, 1.0).unwrap(),
        RadioParams::default(),
        SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        Box::new(UniformField::new(7)),
        move |_, _| app(),
    );
    let query = parse_query(
        QueryId(1),
        "select light where nodeid >= 2 epoch duration 2048",
    )
    .unwrap();
    sim.schedule_command(SimTime::ZERO, NodeId::BASE_STATION, Command::Pose(query));
    sim.run_until(SimTime::from_ms(LINE_EPOCH_MS - 1));
    sim
}

/// Allocator calls `sim` makes running on to `to_ms`, with the work the
/// window held: `(deliveries, frames put on the air, events)`.
fn allocs_until<A: NodeApp>(sim: &mut Simulator<A>, to_ms: u64) -> (u64, (u64, u64, u64)) {
    let before = sim.engine_stats();
    let (allocs, ()) = allocs_during(|| sim.run_until(SimTime::from_ms(to_ms)));
    let after = sim.engine_stats();
    let work = (
        after.deliver_events - before.deliver_events,
        after.frames_total - before.frames_total,
        after.events_processed - before.events_processed,
    );
    (allocs, work)
}

/// Allocator calls made while node 1 of [`warm_line`] relays node 2's rows
/// frame (`frame_bytes` of payload) to the base station.
fn allocs_of_a_warm_relay<A>(frame_bytes: usize, app: fn() -> A) -> u64
where
    A: NodeApp<Command = Command> + 'static,
{
    let hop_ms = RadioParams::default().tx_time_ms(frame_bytes) as u64;
    let mut sim = warm_line(app);
    // The window opens after node 2 has sampled and put its frame on the
    // air, and closes once node 1 has received and re-sent it — before the
    // base station hears the relayed copy.
    sim.run_until(SimTime::from_ms(LINE_EPOCH_MS + 1));
    let (allocs, work) = allocs_until(&mut sim, LINE_EPOCH_MS + hop_ms + 1);
    assert_eq!(work, (1, 1, 1), "the window is not exactly one relay");
    allocs
}

#[test]
fn a_warm_baseline_origin_spends_no_allocator_call_on_its_rows_frame() {
    // The window is the epoch's firing: every node's sample timer, and node
    // 2 sampling and putting its rows frame on the air.
    let mut sim = warm_line(|| TinyDbApp::new(TinyDbConfig::default()));
    let (allocs, work) = allocs_until(&mut sim, LINE_EPOCH_MS + 1);
    assert_eq!(
        work,
        (0, 1, 3),
        "the window is not exactly one origin frame"
    );
    // The frame's slab slot holds the row inline. A frame holding a one-row
    // `Vec<Row>` made two calls, and one behind an `Arc` one.
    assert_eq!(allocs, 0);
}

#[test]
fn a_warm_baseline_relay_of_a_rows_frame_allocates_nothing() {
    let allocs = allocs_of_a_warm_relay(4 + 2 + 2, || TinyDbApp::new(TinyDbConfig::default()));
    assert_eq!(allocs, 0, "relaying a frame allocated");
}

#[test]
fn a_warm_two_tier_relay_of_a_rows_frame_allocates_nothing() {
    // The frame node 2 sends: its one-attribute row for the one query,
    // unicast, so naming nobody. Node 1 is handed all of it and elects one
    // parent: no share, no entry, no frame is built — it forwards.
    let frame = TtmqoPayload::SharedRows {
        epoch_ms: 4 * 2048,
        entry: RowEntry {
            node: 2,
            qids: vec![QueryId(1)],
            readings: [(Attribute::Light, 0.0)].into_iter().collect(),
        },
        assignments: Vec::new(),
    };
    let allocs =
        allocs_of_a_warm_relay(frame.wire_size(), || TtmqoApp::new(TtmqoConfig::default()));
    assert_eq!(allocs, 0, "relaying a frame allocated");
}

/// A node that, told to, puts one payload on the air to node 1 as many
/// times as the command says, all at once; it ignores everything else.
struct Burst;

impl NodeApp for Burst {
    type Payload = u64;
    type Command = (usize, u64);
    type Output = ();

    fn on_start(&mut self, _: &mut Ctx<'_, u64, ()>) {}

    fn on_timer(&mut self, _: &mut Ctx<'_, u64, ()>, _: u64) {}

    fn on_message(&mut self, _: &mut Ctx<'_, u64, ()>, _: NodeId, _: MsgKind, _: &u64) {}

    fn on_command(&mut self, ctx: &mut Ctx<'_, u64, ()>, (frames, payload): (usize, u64)) {
        for _ in 0..frames {
            ctx.send(Destination::Unicast(NodeId(1)), MsgKind::Result, 8, payload);
        }
    }
}

#[test]
fn a_backlogged_senders_frames_cost_no_allocator_call_per_slot() {
    // A relay's backlog of results, in miniature: node 0 queues 1 000
    // unicast frames behind its own transmitter, so every one of them holds
    // a slab slot at once. A slot is a flat value and its collision bits are
    // words of one slab-wide array, so the calls are the doublings of the
    // slab, that array, the event queue, the action queue and the receiver's
    // interference list — where each new slot once allocated its own
    // collision-bit `Vec`, 1 000 calls more.
    let line = (0..2)
        .map(|x| Position {
            x: f64::from(x),
            y: 0.0,
        })
        .collect();
    let mut sim = Simulator::new(
        Topology::from_positions(line, 1.0).unwrap(),
        RadioParams::default(),
        SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        Box::new(UniformField::new(7)),
        |_, _| Burst,
    );
    sim.schedule_command(SimTime::ZERO, NodeId(0), (1_000, 7));
    let (allocs, ()) = allocs_during(|| sim.run_until(SimTime::ZERO));
    assert_eq!(sim.engine_stats().frames_in_flight, 1_000, "not a backlog");
    assert!(
        allocs < 64,
        "{allocs} allocator calls for 1 000 queued frames"
    );
}

#[test]
fn copying_a_row_allocates_nothing() {
    fn assert_copy<T: Copy>() {}
    assert_copy::<Readings>();
    assert_copy::<Row>();

    let row = Row {
        node: 7,
        time_ms: 2048,
        readings: Attribute::ALL.into_iter().map(|a| (a, 1.0)).collect(),
    };
    let (allocs, copy) = allocs_during(|| Clone::clone(std::hint::black_box(&row)));
    assert_eq!(allocs, 0, "cloning a row allocated");
    assert_eq!(copy, row);
}

#[test]
fn each_apps_frame_slot_is_a_pinned_size() {
    // A slot owns its frame's payload. TinyDB's is plain data: a row inline
    // (whose `time_ms` is the epoch, so the frame carries no second copy),
    // a query or partials list behind an `Arc`. The in-network tier's
    // frames are shared and varied, so its payload is an `Arc` itself.
    assert_eq!(Simulator::<TinyDbApp>::FRAME_SLOT_BYTES, 120);
    assert_eq!(Simulator::<TtmqoApp>::FRAME_SLOT_BYTES, 48);
}

/// The repo benchmark's `baseline-32x32` rep at `--seed 1`, the benchmark's
/// own steps: Workload A under Baseline on the paper's 32×32 deployment for
/// 16 base epochs, on the field seed 1 mixes to, run to the end in 32
/// slices.
fn run_benchmark_baseline_32x32() -> ttmqo_core::RunReport {
    // SplitMix64's finalizer, which spreads the benchmark's seeds.
    let mut field_seed = 1u64.wrapping_add(0x9E37_79B9_7F4A_7C15);
    field_seed = (field_seed ^ (field_seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    field_seed = (field_seed ^ (field_seed >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    field_seed ^= field_seed >> 31;
    let config = ExperimentConfig {
        strategy: Strategy::Baseline,
        grid_n: 32,
        duration: SimTime::from_ms(16 * 2048),
        field_seed,
        ..ExperimentConfig::default()
    };
    let mut session = RunSession::new(&config, &workload_a());
    for slice in 1..32 {
        session.run_to(SimTime::from_ms(config.duration.as_ms() * slice / 32));
    }
    session.finish()
}

#[test]
fn the_benchmark_baseline_32x32_rep_peaks_and_allocates_at_pinned_numbers() {
    // The exact proxies of the `peak_rss_mib` and `alloc.count` the repo
    // benchmark reports for this rep. While each frame pointed at its
    // payload in a 104-byte `Arc` beside a 48-byte slot, so that every
    // origin's rows frame, partials frame and flood frame allocated, the
    // rep peaked at 4 523 495 B and made 83 824 calls. It is 4 056 431 B and
    // 39 187 calls since a frame owns its payload in a 120-byte slot, a
    // partials frame's list is one `Arc<[…]>` (so a retry copies nothing)
    // and a node's own seeds become its slot buffer instead of a copy. The
    // same in debug and release.
    let (allocs, (peak, report)) = allocs_during(|| peak_live_during(run_benchmark_baseline_32x32));
    assert_eq!(report.engine.frames_total, 325_741, "not the pinned rep");
    assert_eq!((peak, allocs), (4_056_431, 39_187));
}
