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
//! double a handful of times). Entries are kept sorted ascending by
//! `(start_us, dur_us, frame)` — exactly the `(start, end, frame)` order the
//! old per-transmit `sort_unstable` produced (equal starts order by equal
//! ends iff by equal durations) — so the CSMA carrier-sense scan reads a
//! block in place and draws the identical RNG sequence.
//!
//! A block holds about two entries, half of them expired, when it is
//! touched, so what a touch costs is its fixed overhead, not its memory:
//! [`IncomingArena::retain_mark_insert`] is one pass over one bounds-checked
//! slice, shifts the (usually empty) tail with a plain loop, and is inlined
//! into its only caller. It reports overlaps by slab index; which receiver
//! bit that is on the other frame is the engine's to look up.

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

    /// The sort key: ascending `(start, dur, frame)`, which orders identically
    /// to the old `(start, end, frame)` tuples (same starts ⇒ dur and end
    /// order agree).
    #[inline]
    fn key(self) -> (u64, u32, u32) {
        (self.start_us, self.dur_us, self.frame)
    }
}

/// Flat arena of per-node sorted in-flight frame lists. See the module docs
/// for the layout and why it exists.
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

impl IncomingArena {
    /// An arena for `nodes` nodes, all lists empty.
    pub fn new(nodes: usize) -> Self {
        IncomingArena {
            data: vec![IncomingFrame::default(); nodes * INITIAL_CAP],
            len: vec![0; nodes],
            cap: INITIAL_CAP,
        }
    }

    /// Node `i`'s live entries, ascending by `(start, dur, frame)`.
    #[inline]
    pub fn node(&self, i: usize) -> &[IncomingFrame] {
        &self.data[i * self.cap..i * self.cap + self.len[i] as usize]
    }

    /// Drops node `i`'s entries whose airtime ended at or before `cutoff_us`,
    /// preserving order (the compaction the old `Vec::retain` did).
    ///
    /// Test-only reference half of [`IncomingArena::retain_mark_insert`],
    /// which the engine's hot path uses instead.
    #[cfg(test)]
    pub fn retain_active(&mut self, i: usize, cutoff_us: u64) {
        let base = i * self.cap;
        let n = self.len[i] as usize;
        let block = &mut self.data[base..base + n];
        // The common case drops nothing: scan read-only (no dirtied cache
        // lines) and start compacting only from the first expired entry.
        let Some(first) = block.iter().position(|e| e.end_us() <= cutoff_us) else {
            return;
        };
        let mut write = first;
        for read in first + 1..n {
            let e = block[read];
            if e.end_us() > cutoff_us {
                block[write] = e;
                write += 1;
            }
        }
        self.len[i] = write as u32;
    }

    /// Inserts an entry into node `i`'s list at its sorted position, growing
    /// the arena (doubled capacity, full rebuild) if the block is full.
    ///
    /// Test-only reference half of [`IncomingArena::retain_mark_insert`],
    /// which the engine's hot path uses instead.
    #[cfg(test)]
    pub fn insert(&mut self, i: usize, entry: IncomingFrame) {
        if self.len[i] as usize == self.cap {
            self.grow();
        }
        let base = i * self.cap;
        let n = self.len[i] as usize;
        let block = &self.data[base..base + n];
        let pos = block.partition_point(|e| e.key() < entry.key());
        // Shift the tail right by one inside the block; bounded by the block
        // occupancy, and entirely within one contiguous run.
        self.data.copy_within(base + pos..base + n, base + pos + 1);
        self.data[base + pos] = entry;
        self.len[i] = (n + 1) as u32;
    }

    /// Fused per-touch update for the interference-marking pass: drops node
    /// `i`'s entries whose airtime ended at or before `new` starts, calls
    /// `on_overlap` with the slab index of each survivor whose airtime
    /// overlaps `new`'s, and inserts `new` at its sorted position — one
    /// left-to-right pass over one block slice, inlined into `transmit`'s
    /// neighbour loop.
    ///
    /// Equivalent to `retain_active(i, new.start_us)` + overlap scan +
    /// `insert(i, new)`, survivors visited in the same order. A survivor ends
    /// after `new` starts, so it overlaps iff it starts before `new` ends.
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
        // Insert position: survivors stay sorted, and every survivor with a
        // smaller key lands in the prefix, so the position is just a count.
        let mut pos = 0;
        for read in 0..n {
            let e = block[read];
            if e.end_us() <= new.start_us {
                continue;
            }
            if e.start_us < new_end {
                on_overlap(e.frame);
            }
            if e.key() < new.key() {
                pos = write + 1;
            }
            if write != read {
                block[write] = e;
            }
            write += 1;
        }
        let block = if write == cap {
            self.grow();
            &mut self.data[i * self.cap..(i + 1) * self.cap]
        } else {
            block
        };
        // The tail is usually empty and never longer than the block: a plain
        // loop, not a `memmove` call.
        for j in (pos..write).rev() {
            block[j + 1] = block[j];
        }
        block[pos] = new;
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

    #[test]
    fn inserts_keep_each_node_sorted_and_isolated() {
        let mut a = IncomingArena::new(3);
        a.insert(1, f(300, 10, 7));
        a.insert(1, f(100, 10, 3));
        a.insert(1, f(200, 10, 5));
        a.insert(2, f(50, 10, 9));
        assert_eq!(a.node(0), &[]);
        assert_eq!(a.node(1), &[f(100, 10, 3), f(200, 10, 5), f(300, 10, 7)]);
        assert_eq!(a.node(2), &[f(50, 10, 9)]);
    }

    #[test]
    fn ties_order_by_duration_then_frame() {
        let mut a = IncomingArena::new(1);
        a.insert(0, f(100, 20, 2));
        a.insert(0, f(100, 10, 9));
        a.insert(0, f(100, 10, 4));
        // Same start: shorter duration first (same relative order as sorting
        // by end); same duration: lower frame index first.
        assert_eq!(a.node(0), &[f(100, 10, 4), f(100, 10, 9), f(100, 20, 2)]);
    }

    #[test]
    fn retain_drops_expired_entries_in_place() {
        let mut a = IncomingArena::new(2);
        a.insert(0, f(0, 100, 1)); // ends at 100
        a.insert(0, f(50, 100, 2)); // ends at 150
        a.insert(0, f(120, 100, 3)); // ends at 220
        a.retain_active(0, 100); // cutoff: end must be > 100
        assert_eq!(a.node(0), &[f(50, 100, 2), f(120, 100, 3)]);
        a.retain_active(0, 500);
        assert_eq!(a.node(0), &[]);
    }

    #[test]
    fn overflow_grows_and_preserves_every_block() {
        let mut a = IncomingArena::new(4);
        // Fill node 2 past several doublings, with node 1 holding data that
        // must survive the rebuilds untouched.
        a.insert(1, f(5, 1, 0));
        for k in 0..100u32 {
            a.insert(2, f((100 - k as u64) * 10, 1, k));
        }
        assert_eq!(a.node(1), &[f(5, 1, 0)]);
        assert_eq!(a.node(2).len(), 100);
        assert!(a.node(2).windows(2).all(|w| w[0].key() < w[1].key()));
        assert_eq!(a.node(2)[0], f(10, 1, 99));
    }

    #[test]
    fn fused_pass_matches_retain_then_scan_then_insert() {
        // Deterministic pseudo-random workload: replay the same touch stream
        // through the fused pass and through the unfused reference
        // (retain_active + overlap scan + insert) and demand identical
        // blocks and identical overlap reports at every step.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nodes = 5;
        let mut fused = IncomingArena::new(nodes);
        let mut reference = IncomingArena::new(nodes);
        let mut clock = 0u64;
        for frame in 0..400u32 {
            clock += rand() % 40;
            let node = (rand() % nodes as u64) as usize;
            let start_us = clock + rand() % 60;
            let dur_us = 1 + (rand() % 80) as u32;
            let entry = IncomingFrame {
                start_us,
                dur_us,
                frame,
            };
            let mut ref_overlaps = Vec::new();
            reference.retain_active(node, start_us);
            for &other in reference.node(node) {
                if other.start_us < entry.end_us() && start_us < other.end_us() {
                    ref_overlaps.push(other.frame);
                }
            }
            reference.insert(node, entry);
            let mut fused_overlaps = Vec::new();
            fused.retain_mark_insert(node, entry, |f| fused_overlaps.push(f));
            assert_eq!(fused_overlaps, ref_overlaps, "overlaps at frame {frame}");
            for i in 0..nodes {
                assert_eq!(
                    fused.node(i),
                    reference.node(i),
                    "block {i} at frame {frame}"
                );
            }
        }
    }

    #[test]
    fn fused_pass_grows_when_compaction_cannot_free_a_slot() {
        let mut a = IncomingArena::new(2);
        // Fill node 0 with entries that never expire, then keep inserting.
        for k in 0..3 * INITIAL_CAP as u32 {
            let mut overlaps = 0;
            a.retain_mark_insert(
                0,
                IncomingFrame {
                    start_us: 1000 + k as u64,
                    dur_us: 1_000_000,
                    frame: k,
                },
                |_| overlaps += 1,
            );
            assert_eq!(overlaps as u32, k, "all prior entries overlap");
        }
        assert_eq!(a.node(0).len(), 3 * INITIAL_CAP);
        assert!(a.node(0).windows(2).all(|w| w[0].key() < w[1].key()));
    }

    #[test]
    fn end_us_is_start_plus_duration() {
        assert_eq!(f(1_000, 250, 0).end_us(), 1_250);
    }
}
