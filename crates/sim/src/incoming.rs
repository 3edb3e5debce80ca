//! Arena-backed per-node in-flight frame lists for the collision model.
//!
//! The interference-marking loop in `transmit` touches the `incoming` list
//! of every neighbour of the transmitter — 12 lists per frame on the paper's
//! grid geometry. As `Vec<Vec<_>>`, each touch chased a Vec header and then
//! a heap buffer scattered by the allocator: at 64×64 scale (4096 nodes)
//! those ~24 dependent cache misses per transmit dominated the whole engine
//! (profiled at ~60% of flood-bench wall time). This arena stores every
//! node's list in one flat allocation — node `i`'s entries at
//! `data[i*cap .. i*cap+len[i]]` — with entries packed to 16 bytes, so a
//! marking pass touches one dense 16 KiB `len` array plus contiguous blocks,
//! and the whole structure stays cache-resident at big-grid scale.
//!
//! Blocks are fixed-capacity; when any node's list would overflow, the arena
//! rebuilds with doubled capacity (deterministic, amortized over the run —
//! flood workloads stay at the initial capacity, deep two-tier backlogs
//! double a handful of times).
//!
//! Blocks are unordered. A block holds about two entries, half of them
//! expired, when it is touched, so what a touch costs is its fixed overhead,
//! not its memory: [`IncomingArena::retain_mark_insert`] purges, reports
//! overlaps and appends, over a fixed four-slot window with no exit that
//! depends on the data for blocks of up to four entries (almost every
//! touch), and is inlined into its only caller. Overlap reporting only sets
//! bits, so the order it visits entries in is unobservable. The one reader
//! that needs an order is the CSMA carrier-sense scan at the sender: each
//! deferral moves the candidate start, so the scan must visit entries
//! ascending by `(start_us, dur_us, frame)` — the `(start, end, frame)` order
//! of the old per-transmit `sort_unstable` (equal starts order by equal ends
//! iff by equal durations) — and [`IncomingArena::sorted`] sorts the sender's
//! own block in place before it scans, drawing the identical RNG sequence.

/// One in-flight frame audible at a node, packed to 16 bytes.
///
/// The duration is `u32` (a frame's airtime is milliseconds; `u32` µs allows
/// ~71 minutes) and the slab index is `u32` (the slab tracks *concurrently*
/// in-flight frames, bounded far below 4 billion by the id space).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IncomingFrame {
    /// Airtime start, µs.
    pub start_us: u64,
    /// Airtime duration, µs.
    pub dur_us: u32,
    /// Frame slab index.
    pub frame: u32,
}

impl IncomingFrame {
    /// Airtime end, µs (exclusive).
    #[inline]
    pub fn end_us(self) -> u64 {
        self.start_us + self.dur_us as u64
    }

    /// The scan key: ascending `(start, dur, frame)`, which orders
    /// identically to the old `(start, end, frame)` tuples (same starts ⇒
    /// dur and end order agree).
    #[inline]
    fn key(self) -> (u64, u32, u32) {
        (self.start_us, self.dur_us, self.frame)
    }
}

/// Flat arena of per-node unordered in-flight frame lists. See the module
/// docs for the layout and why it exists.
#[derive(Debug, Clone)]
pub(crate) struct IncomingArena {
    /// `nodes * cap` entries; node `i` owns `data[i*cap .. (i+1)*cap]`.
    data: Vec<IncomingFrame>,
    /// Live entry count per node (`len[i] <= cap`).
    len: Vec<u32>,
    /// Current per-node block capacity (doubles on overflow).
    cap: usize,
}

/// Initial per-node block capacity: holds flood-style workloads (a handful
/// of concurrently audible frames) with at most one doubling, while keeping
/// the 64×64 arena at 256 KiB — cache-resident.
const INITIAL_CAP: usize = 4;

/// Slots a touch visits whatever the block holds, when it holds no more:
/// every block has at least this many, since capacity only doubles.
const WINDOW: usize = INITIAL_CAP;

impl IncomingArena {
    /// An arena for `nodes` nodes, all lists empty.
    pub fn new(nodes: usize) -> Self {
        IncomingArena {
            data: vec![IncomingFrame::default(); nodes * INITIAL_CAP],
            len: vec![0; nodes],
            cap: INITIAL_CAP,
        }
    }

    /// Node `i`'s live entries, in no particular order.
    #[cfg(test)]
    pub fn node(&self, i: usize) -> &[IncomingFrame] {
        &self.data[i * self.cap..i * self.cap + self.len[i] as usize]
    }

    /// Node `i`'s live entries, sorted in place ascending by
    /// `(start, dur, frame)` — the order the CSMA scan reads them in.
    #[inline]
    pub fn sorted(&mut self, i: usize) -> &[IncomingFrame] {
        let block = &mut self.data[i * self.cap..i * self.cap + self.len[i] as usize];
        block.sort_unstable_by_key(|e| e.key());
        block
    }

    /// Per-touch update for the interference-marking pass: drops node `i`'s
    /// entries whose airtime ended at or before `new` starts, calls
    /// `on_overlap` with the slab index of each survivor whose airtime
    /// overlaps `new`'s, and appends `new`, growing the arena if the block
    /// is full of survivors. A survivor ends after `new` starts, so it
    /// overlaps iff it starts before `new` ends.
    #[inline]
    pub fn retain_mark_insert(
        &mut self,
        i: usize,
        new: IncomingFrame,
        mut on_overlap: impl FnMut(u32),
    ) {
        let cap = self.cap;
        let n = (self.len[i] as usize).min(cap);
        let new_end = new.end_us();
        let block = &mut self.data[i * cap..(i + 1) * cap];
        let mut write = 0;
        if n <= WINDOW {
            // The first four slots, live or not: slots past `n` are masked,
            // every slot is copied down and the write index advances by the
            // survivor bit, so nothing in the pass branches on the data.
            // Overlaps are rare and collected as bits, then reported with
            // one test per touch.
            let window = &mut block[..WINDOW];
            let mut frames = [0u32; WINDOW];
            let mut overlaps = 0u32;
            for read in 0..WINDOW {
                let e = window[read];
                frames[read] = e.frame;
                let survives = (read < n) & (e.end_us() > new.start_us);
                overlaps |= u32::from(survives & (e.start_us < new_end)) << read;
                window[write] = e;
                write += survives as usize;
            }
            while overlaps != 0 {
                on_overlap(frames[overlaps.trailing_zeros() as usize]);
                overlaps &= overlaps - 1;
            }
        } else {
            for read in 0..n {
                let e = block[read];
                if e.end_us() <= new.start_us {
                    continue;
                }
                if e.start_us < new_end {
                    on_overlap(e.frame);
                }
                block[write] = e;
                write += 1;
            }
        }
        let block = if write == cap {
            self.grow();
            &mut self.data[i * self.cap..(i + 1) * self.cap]
        } else {
            block
        };
        block[write] = new;
        self.len[i] = (write + 1) as u32;
    }

    /// Rebuilds with doubled per-node capacity, preserving every block.
    #[cold]
    fn grow(&mut self) {
        let new_cap = self.cap * 2;
        let nodes = self.len.len();
        let mut data = vec![IncomingFrame::default(); nodes * new_cap];
        for i in 0..nodes {
            let n = self.len[i] as usize;
            data[i * new_cap..i * new_cap + n]
                .copy_from_slice(&self.data[i * self.cap..i * self.cap + n]);
        }
        self.data = data;
        self.cap = new_cap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(start_us: u64, dur_us: u32, frame: u32) -> IncomingFrame {
        IncomingFrame {
            start_us,
            dur_us,
            frame,
        }
    }

    /// Touches node `i` with `new` and returns the overlaps it reported.
    fn touch(a: &mut IncomingArena, i: usize, new: IncomingFrame) -> Vec<u32> {
        let mut overlaps = Vec::new();
        a.retain_mark_insert(i, new, |f| overlaps.push(f));
        overlaps
    }

    #[test]
    fn touches_keep_each_node_isolated_and_sorted_reads_ascending() {
        let mut a = IncomingArena::new(3);
        // Long frames from late to early: nothing expires, so each block
        // holds every frame it was touched with, in arrival order.
        touch(&mut a, 1, f(300, 1000, 7));
        touch(&mut a, 1, f(100, 1000, 3));
        touch(&mut a, 1, f(200, 1000, 5));
        touch(&mut a, 2, f(50, 10, 9));
        assert_eq!(a.node(0), &[]);
        assert_eq!(
            a.node(1),
            &[f(300, 1000, 7), f(100, 1000, 3), f(200, 1000, 5)]
        );
        assert_eq!(
            a.sorted(1),
            &[f(100, 1000, 3), f(200, 1000, 5), f(300, 1000, 7)]
        );
        assert_eq!(a.node(2), &[f(50, 10, 9)]);
    }

    #[test]
    fn sorted_ties_order_by_duration_then_frame() {
        let mut a = IncomingArena::new(1);
        touch(&mut a, 0, f(100, 20, 2));
        touch(&mut a, 0, f(100, 10, 9));
        touch(&mut a, 0, f(100, 10, 4));
        // Same start: shorter duration first (same relative order as sorting
        // by end); same duration: lower frame index first.
        assert_eq!(a.sorted(0), &[f(100, 10, 4), f(100, 10, 9), f(100, 20, 2)]);
    }

    #[test]
    fn a_touch_drops_what_ended_by_its_start_and_reports_the_rest() {
        let mut a = IncomingArena::new(2);
        touch(&mut a, 0, f(300, 100, 3)); // a backlogged sender's frame
        touch(&mut a, 0, f(0, 100, 1)); // ends at 100
        assert_eq!(touch(&mut a, 0, f(50, 100, 2)), [1]);
        // Starts at 100: frame 1 ended by then; 2 overlaps, 3 starts after.
        assert_eq!(touch(&mut a, 0, f(100, 30, 4)), [2]);
        assert_eq!(a.node(0), &[f(300, 100, 3), f(50, 100, 2), f(100, 30, 4)]);
        // Starts at 500: everything before it has ended.
        assert_eq!(touch(&mut a, 0, f(500, 10, 5)), []);
        assert_eq!(a.node(0), &[f(500, 10, 5)]);
    }

    #[test]
    fn overflow_grows_and_preserves_every_block() {
        let mut a = IncomingArena::new(4);
        // Fill node 2 past several doublings, with node 1 holding data that
        // must survive the rebuilds untouched.
        touch(&mut a, 1, f(5, 1, 0));
        for k in 0..100u32 {
            touch(&mut a, 2, f((100 - k as u64) * 10, 10_000, k));
        }
        assert_eq!(a.node(1), &[f(5, 1, 0)]);
        assert_eq!(a.node(2).len(), 100);
        assert!(a.node(2).iter().zip(0..).all(|(e, k)| e.frame == k));
        let sorted = a.sorted(2);
        assert!(sorted.windows(2).all(|w| w[0].key() < w[1].key()));
        assert_eq!(sorted[0], f(10, 10_000, 99));
    }

    #[test]
    fn fused_pass_matches_retain_then_scan_then_insert() {
        // Replay one deterministic pseudo-random touch stream through the
        // arena and through a plain `Vec` per node (retain, scan, push) and
        // demand, at every step, the same overlaps and the same blocks as
        // multisets, and the same sorted scan order. Starts run up to 300 µs
        // past the clock (a backlogged sender's frame) and airtimes up to
        // 400 µs against a clock step of at most 40, so blocks reach five
        // entries and more and the general loop runs.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nodes = 5;
        let mut arena = IncomingArena::new(nodes);
        let mut model: Vec<Vec<IncomingFrame>> = vec![Vec::new(); nodes];
        let sorted = |block: &[IncomingFrame]| {
            let mut block = block.to_vec();
            block.sort_unstable_by_key(|e| e.key());
            block
        };
        let (mut clock, mut future_starts, mut widest) = (0u64, 0, 0);
        for frame in 0..2_000u32 {
            clock += rand() % 40;
            let node = (rand() % nodes as u64) as usize;
            let ahead = if rand() % 4 == 0 { rand() % 300 } else { 0 };
            let new = f(clock + ahead, 1 + (rand() % 400) as u32, frame);
            future_starts += usize::from(ahead > 0);

            let block = &mut model[node];
            block.retain(|e| e.end_us() > new.start_us);
            let mut expected: Vec<u32> = block
                .iter()
                .filter(|e| e.start_us < new.end_us())
                .map(|e| e.frame)
                .collect();
            block.push(new);
            widest = widest.max(block.len());

            let mut reported = touch(&mut arena, node, new);
            reported.sort_unstable();
            expected.sort_unstable();
            assert_eq!(reported, expected, "overlaps at frame {frame}");
            for (i, block) in model.iter().enumerate() {
                assert_eq!(
                    sorted(arena.node(i)),
                    sorted(block),
                    "block {i} at frame {frame}"
                );
            }
            if frame % 7 == 0 {
                assert_eq!(arena.sorted(node), sorted(&model[node]));
            }
        }
        assert!(future_starts > 100, "{future_starts} future-start frames");
        assert!(widest >= 8, "widest block {widest}");
    }

    #[test]
    fn fused_pass_grows_when_compaction_cannot_free_a_slot() {
        let mut a = IncomingArena::new(2);
        // Fill node 0 with entries that never expire, then keep inserting.
        for k in 0..3 * INITIAL_CAP as u32 {
            let overlaps = touch(&mut a, 0, f(1000 + k as u64, 1_000_000, k));
            assert_eq!(overlaps, (0..k).collect::<Vec<_>>(), "all prior entries");
        }
        assert_eq!(a.node(0).len(), 3 * INITIAL_CAP);
        assert!(a.sorted(0).windows(2).all(|w| w[0].key() < w[1].key()));
    }

    #[test]
    fn end_us_is_start_plus_duration() {
        assert_eq!(f(1_000, 250, 0).end_us(), 1_250);
    }
}
