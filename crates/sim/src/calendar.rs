//! A calendar queue: the engine's event priority queue for big-grid runs.
//!
//! A discrete-event simulator at 64×64 scale keeps thousands of pending
//! events (one timer per node plus every in-flight frame's delivery). A
//! binary heap pays `O(log n)` pointer-chasing comparisons per operation
//! over an array too large for cache; a calendar queue ([Brown 1988],
//! "Calendar Queues: A Fast O(1) Priority Queue Implementation for the
//! Simulation Event Set Problem") buckets events by time slot — like a desk
//! calendar with one page per day — making push and pop amortized `O(1)`
//! with almost all touches landing in one small bucket.
//!
//! # Determinism contract
//!
//! [`CalendarQueue::pop`] returns entries in strictly increasing
//! `(time, seq)` order — **exactly** the order
//! `BinaryHeap<Reverse<(time, seq, ..)>>` pops them in, since `(time, seq)`
//! is a total order (`seq` is unique). The engine's golden determinism
//! snapshots and a property test against a live `BinaryHeap`
//! (`crates/sim/tests/calendar_order.rs`) pin this equivalence, including
//! same-time ties and pushes interleaved with pops. Bucket count and width
//! adapt to the queue's content, but only pop *cost* depends on the layout —
//! never pop *order* — and nothing here draws randomness.
//!
//! # Structure
//!
//! * Each bucket holds the events of time slots congruent modulo the bucket
//!   count (`bucket = (time / width) % n_buckets`), sorted descending so the
//!   bucket's earliest event is at the back (`Vec::pop` position).
//! * Pop scans slots from the *floor* (the last popped time, a lower bound
//!   on the minimum) forward; the first bucket whose back entry belongs to
//!   the slot under examination holds the global minimum. A full fruitless
//!   cycle (every pending event is more than one calendar year ahead) falls
//!   back to a direct min scan over bucket backs and jumps the floor there.
//! * The bucket array doubles when occupancy crowds buckets and halves when
//!   it thins, re-deriving the slot width from the live events' average
//!   spacing, so bucket scans stay `O(1)` across workload shifts.

use std::fmt;

/// One pending entry: a totally ordered `(time, seq)` key plus the payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// A monotone-ish priority queue over `(time, seq)` keys (see the module
/// docs for the structure and the determinism contract).
///
/// `seq` values must be unique (the engine's event sequence counter); equal
/// `(time, seq)` pairs would make pop order ill-defined.
///
/// # Examples
///
/// ```
/// use ttmqo_sim::CalendarQueue;
///
/// let mut q = CalendarQueue::new();
/// q.push(2000, 1, "late");
/// q.push(1000, 2, "early");
/// q.push(1000, 3, "early-tie");
/// assert_eq!(q.peek(), Some((1000, 2)));
/// assert_eq!(q.pop(), Some((1000, 2, "early")));
/// assert_eq!(q.pop(), Some((1000, 3, "early-tie")));
/// assert_eq!(q.pop(), Some((2000, 1, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone)]
pub struct CalendarQueue<T> {
    /// Buckets sorted descending by `(time, seq)`: the bucket minimum is at
    /// the back, one `Vec::pop` away.
    buckets: Vec<Vec<Entry<T>>>,
    /// Power-of-two bucket-count mask (`buckets.len() - 1`).
    mask: usize,
    /// log2 of the slot width in time units.
    width_shift: u32,
    /// Total entries across all buckets.
    len: usize,
    /// Lower bound on the minimum pending key's time: the last popped time,
    /// lowered if an earlier event is pushed (the engine never does, but
    /// correctness must not depend on that).
    floor: u64,
    /// Bucket index of the located minimum, valid until the next push/pop
    /// (lets `peek` + `pop` share one slot scan).
    cached_min: Option<usize>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for CalendarQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("buckets", &self.buckets.len())
            .field("width", &(1u64 << self.width_shift))
            .field("floor", &self.floor)
            .finish()
    }
}

/// Smallest bucket count kept through shrinks.
const MIN_BUCKETS: usize = 16;
/// Grow when average occupancy exceeds this many entries per bucket.
const GROW_AT: usize = 2;
/// Initial slot width: 2¹⁰ time units (≈1 ms at the engine's µs clock).
const INITIAL_WIDTH_SHIFT: u32 = 10;

impl<T> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: MIN_BUCKETS - 1,
            width_shift: INITIAL_WIDTH_SHIFT,
            len: 0,
            floor: 0,
            cached_min: None,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. `seq` must be unique across pending entries.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        if self.len >= self.buckets.len() * GROW_AT {
            self.resize(self.buckets.len() * 2);
        }
        // A push below the floor (never from the engine, whose pushes are at
        // or after the current event) must lower it, or the slot scan could
        // start past the new minimum and pop a later event first.
        if time < self.floor {
            self.floor = time;
        }
        if let Some(b) = self.cached_min {
            let back = self.buckets[b].last().expect("cached bucket non-empty");
            if (time, seq) < (back.time, back.seq) {
                self.cached_min = None;
            }
        }
        let idx = self.bucket_of(time);
        let bucket = &mut self.buckets[idx];
        // Descending order: find the position from the back (sorted-insert
        // cost is bounded by the bucket's occupancy, ~GROW_AT entries).
        let pos = bucket.partition_point(|e| (e.time, e.seq) > (time, seq));
        bucket.insert(pos, Entry { time, seq, item });
        self.len += 1;
    }

    /// The minimum pending `(time, seq)` key, without removing it.
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        let b = self.locate_min()?;
        let e = self.buckets[b].last().expect("located bucket non-empty");
        Some((e.time, e.seq))
    }

    /// Removes and returns the minimum entry as `(time, seq, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let b = self.locate_min()?;
        let e = self.buckets[b].pop().expect("located bucket non-empty");
        self.len -= 1;
        self.floor = e.time;
        self.cached_min = None;
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 2 {
            self.resize(self.buckets.len() / 2);
        }
        Some((e.time, e.seq, e.item))
    }

    fn bucket_of(&self, time: u64) -> usize {
        ((time >> self.width_shift) as usize) & self.mask
    }

    /// Finds the bucket holding the global minimum (see module docs for the
    /// one-bucket-per-slot argument) and caches it for the following `pop`.
    fn locate_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        if let Some(b) = self.cached_min {
            return Some(b);
        }
        let n = self.buckets.len();
        let first_slot = self.floor >> self.width_shift;
        for slot in first_slot..first_slot + n as u64 {
            let b = (slot as usize) & self.mask;
            if let Some(e) = self.buckets[b].last() {
                if e.time >> self.width_shift == slot {
                    self.cached_min = Some(b);
                    return Some(b);
                }
            }
        }
        // Every pending event is at least a full calendar year past the
        // floor: direct min scan over the bucket minima.
        let mut best: Option<(u64, u64, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if let Some(e) = bucket.last() {
                if best.is_none_or(|(t, s, _)| (e.time, e.seq) < (t, s)) {
                    best = Some((e.time, e.seq, b));
                }
            }
        }
        let (time, _, b) = best.expect("len > 0 means some bucket is non-empty");
        // Jump the floor so the next scan starts at the minimum's slot.
        self.floor = time;
        self.cached_min = Some(b);
        Some(b)
    }

    /// Rebuilds with `new_count` buckets, re-deriving the slot width from
    /// the live events' average spacing so a bucket keeps `O(1)` entries per
    /// slot whatever the event density. Layout only — pop order is
    /// unaffected (the determinism contract).
    fn resize(&mut self, new_count: usize) {
        let new_count = new_count.max(MIN_BUCKETS);
        let entries: Vec<Entry<T>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        // Width target: the average inter-event gap, so one slot holds ~1
        // event. Clamped to [2⁰, 2²⁰] (µs..seconds at the engine's clock) to
        // stay sane under degenerate spacings.
        if !entries.is_empty() {
            let lo = entries.iter().map(|e| e.time).min().expect("non-empty");
            let hi = entries.iter().map(|e| e.time).max().expect("non-empty");
            let gap = ((hi - lo) / entries.len() as u64).max(1);
            self.width_shift = (63 - gap.leading_zeros()).clamp(0, 20);
        }
        self.buckets = (0..new_count).map(|_| Vec::new()).collect();
        self.mask = new_count - 1;
        self.cached_min = None;
        self.len = 0;
        let floor = self.floor;
        for e in entries {
            self.push(e.time, e.seq, e.item);
        }
        self.floor = floor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(30, 1, 'a');
        q.push(10, 2, 'b');
        q.push(10, 3, 'c');
        q.push(20, 4, 'd');
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            vec![(10, 2, 'b'), (10, 3, 'c'), (20, 4, 'd'), (30, 1, 'a')]
        );
    }

    #[test]
    fn peek_matches_pop_and_survives_pushes() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek(), None);
        q.push(500, 1, ());
        assert_eq!(q.peek(), Some((500, 1)));
        q.push(100, 2, ());
        assert_eq!(q.peek(), Some((100, 2)), "smaller push invalidates cache");
        q.push(900, 3, ());
        assert_eq!(q.peek(), Some((100, 2)));
        assert_eq!(q.pop(), Some((100, 2, ())));
        assert_eq!(q.peek(), Some((500, 1)));
    }

    #[test]
    fn far_future_events_are_found_via_the_direct_scan() {
        let mut q = CalendarQueue::new();
        // Far beyond one calendar year of the initial 16×1024-unit cycle.
        q.push(30_000_000, 1, "maintenance");
        q.push(60_000_000, 2, "later");
        assert_eq!(q.pop(), Some((30_000_000, 1, "maintenance")));
        assert_eq!(q.pop(), Some((60_000_000, 2, "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn growth_and_shrink_keep_order() {
        let mut q = CalendarQueue::new();
        // Push enough to force several doublings (deterministic scatter).
        let mut expected = Vec::new();
        for seq in 0..1000u64 {
            let time = (seq * 7919) % 100_000;
            q.push(time, seq, seq);
            expected.push((time, seq));
        }
        expected.sort_unstable();
        // Drain fully (forcing shrinks on the way down).
        let drained: Vec<_> = std::iter::from_fn(|| q.pop().map(|(t, s, _)| (t, s))).collect();
        assert_eq!(drained, expected);
        assert!(q.is_empty());
    }

    #[test]
    fn push_below_floor_still_pops_first() {
        let mut q = CalendarQueue::new();
        q.push(10_000, 1, ());
        assert_eq!(q.pop(), Some((10_000, 1, ())));
        // The engine never pushes into the past; the queue must survive it
        // anyway rather than silently reorder.
        q.push(5_000, 2, ());
        q.push(20_000, 3, ());
        assert_eq!(q.pop(), Some((5_000, 2, ())));
        assert_eq!(q.pop(), Some((20_000, 3, ())));
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        for seq in 0..100 {
            q.push(seq * 10, seq, ());
        }
        assert_eq!(q.len(), 100);
        for _ in 0..40 {
            q.pop();
        }
        assert_eq!(q.len(), 60);
    }
}
