//! What the two node applications do identically: the timer-key codec, TAG
//! slot timing, and the per-`(query, epoch)` result buffers a node merges
//! into and the base station opens and closes into an answer.
//!
//! [`TinyDbApp`](crate::TinyDbApp) and the in-network tier's `TtmqoApp`
//! differ in how queries are installed, when nodes sample and how frames are
//! routed; they do not differ in any of this, so it exists once.

use crate::messages::Output;
use ttmqo_query::{
    AggValue, EpochAnswer, PartialAgg, Query, QueryId, Row, RowSet, Selection, BASE_EPOCH_MS,
};
use ttmqo_sim::{Ctx, Topology};

/// Timer kind of a node's TAG slot (low 4 bits of a [`timer_key`]).
pub const KIND_SLOT: u64 = 1;
/// Timer kind of the base station's close of one query's epoch.
pub const KIND_CLOSE: u64 = 2;

/// Packs a timer key: `kind` in the low 4 bits, the query id in the next 28,
/// `extra` (an epoch index or a generation counter) in the high 32.
#[inline]
pub fn timer_key(kind: u64, qid: QueryId, extra: u64) -> u64 {
    (extra << 32) | ((qid.0 & 0x0FFF_FFFF) << 4) | kind
}

/// Unpacks a [`timer_key`] into `(kind, query id, extra)`.
#[inline]
pub fn timer_key_parts(key: u64) -> (u64, QueryId, u64) {
    (key & 0xF, QueryId((key >> 4) & 0x0FFF_FFFF), key >> 32)
}

/// TAG (Tiny AGgregation) slot timing: a node sends its partials in its
/// slot of each epoch, and deeper tree levels send earlier.
#[derive(Debug, Clone, Copy)]
pub struct TagSlots {
    /// Length of one slot, ms.
    pub slot_ms: u64,
    /// Maximum random jitter into a slot, ms.
    pub jitter_ms: u64,
}

impl TagSlots {
    /// When the calling node's slot starts in the epoch from `epoch_ms`.
    fn start<P, O>(self, ctx: &Ctx<'_, P, O>, epoch_ms: u64) -> u64 {
        epoch_ms + u64::from(ctx.topology().max_level() - ctx.level()) * self.slot_ms
    }

    /// How long after a firing the base station closes the epoch: one slot
    /// per level, plus one, plus a 32 ms margin.
    pub fn close_after(self, topo: &Topology) -> u64 {
        (u64::from(topo.max_level()) + 1) * self.slot_ms + 32
    }

    /// Arms the calling node's slot timer for the query's epoch, a random
    /// jitter into the slot: the node sampled at the epoch's firing.
    pub fn arm<P, O>(self, ctx: &mut Ctx<'_, P, O>, qid: QueryId, epoch_ms: u64) {
        let at = self.start(ctx, epoch_ms) + ctx.rand_u64() % self.jitter_ms.max(1);
        set_slot_timer(ctx, qid, epoch_ms, at);
    }

    /// A child's partials for the query's epoch arrived: `false` when the
    /// calling node's slot has passed (a late child's partials go on at
    /// once), else `true`, with a slot timer armed at the slot's start.
    pub fn wait<P, O>(self, ctx: &mut Ctx<'_, P, O>, qid: QueryId, epoch_ms: u64) -> bool {
        let start = self.start(ctx, epoch_ms);
        let late = ctx.now().as_ms() > start + self.jitter_ms;
        if !late {
            set_slot_timer(ctx, qid, epoch_ms, start);
        }
        !late
    }
}

/// Values sorted by `(query, epoch-start ms)`: a node holds a handful at a
/// time, so a binary search over one flat vector finds them, and walks and
/// removals come in ascending query id. The vector grows one entry at a
/// time, so that it stays at its high-water mark (a node's is one or two
/// entries of 40 bytes, where doubling would hold room for four).
#[derive(Debug)]
struct ByEpoch<V>(Vec<((QueryId, u64), V)>);

impl<V> Default for ByEpoch<V> {
    fn default() -> Self {
        ByEpoch(Vec::new())
    }
}

impl<V> ByEpoch<V> {
    fn find(&self, key: (QueryId, u64)) -> Result<usize, usize> {
        self.0.binary_search_by_key(&key, |&(k, _)| k)
    }

    fn get_mut(&mut self, key: (QueryId, u64)) -> Option<&mut V> {
        let at = self.find(key).ok()?;
        Some(&mut self.0[at].1)
    }

    /// Inserts `value` under `key`, replacing what was there.
    fn insert(&mut self, key: (QueryId, u64), value: V) {
        match self.find(key) {
            Ok(at) => self.0[at].1 = value,
            Err(at) => self.insert_at(at, key, value),
        }
    }

    /// Inserts `value` under `key` at `at`, where [`find`](Self::find)
    /// said it belongs.
    fn insert_at(&mut self, at: usize, key: (QueryId, u64), value: V) {
        self.0.reserve_exact(1);
        self.0.insert(at, (key, value));
    }

    fn remove(&mut self, key: (QueryId, u64)) -> Option<V> {
        let at = self.find(key).ok()?;
        Some(self.0.remove(at).1)
    }

    fn keys(&self) -> impl Iterator<Item = (QueryId, u64)> + '_ {
        self.0.iter().map(|&(k, _)| k)
    }
}

/// Result state per `(query, epoch-start ms)`.
///
/// A node other than the base station buffers aggregation partials until
/// its TAG slot. The base station holds an epoch only from
/// [`open`](Self::open) to [`close`](Self::close): a row or partials entry
/// for an epoch that is not open (closed already, or of an aborted query)
/// is counted with [`Ctx::record_late`] and dropped.
#[derive(Debug, Default)]
pub struct EpochBuffers {
    /// Partials: a node's await its slot, the base station's are open epochs.
    partials: ByEpoch<Vec<Option<PartialAgg>>>,
    /// The base station's open acquisition epochs.
    rows: ByEpoch<Vec<Row>>,
}

impl EpochBuffers {
    /// Merges `incoming` element-wise into the query's partials for the
    /// epoch: the base station's open epoch, or a node's slot buffer.
    pub fn merge<P, O>(
        &mut self,
        ctx: &mut Ctx<'_, P, O>,
        qid: QueryId,
        epoch_ms: u64,
        incoming: &[Option<PartialAgg>],
    ) {
        if !self.merge_into(qid, epoch_ms, incoming, ctx.is_base_station()) {
            ctx.record_late(true);
        }
    }

    /// [`merge`](Self::merge) but for the late count: `false` when the
    /// epoch is not held and `open_only` (at the base station) forbids
    /// beginning it.
    fn merge_into(
        &mut self,
        qid: QueryId,
        epoch_ms: u64,
        incoming: &[Option<PartialAgg>],
        open_only: bool,
    ) -> bool {
        let key = (qid, epoch_ms);
        match self.partials.find(key) {
            Ok(at) => merge_partials(&mut self.partials.0[at].1, incoming),
            Err(_) if open_only => return false,
            Err(at) => self.partials.insert_at(at, key, incoming.to_vec()),
        }
        true
    }

    /// Removes and returns the query's partials for the epoch.
    pub fn take(&mut self, qid: QueryId, epoch_ms: u64) -> Option<Vec<Option<PartialAgg>>> {
        self.partials.remove((qid, epoch_ms))
    }

    /// Removes every query's partials for the epoch as the iterator is
    /// consumed, in ascending query id (the order a frame built from them
    /// carries them in).
    pub fn take_epoch(
        &mut self,
        epoch_ms: u64,
    ) -> impl Iterator<Item = (QueryId, Vec<Option<PartialAgg>>)> + '_ {
        self.partials
            .0
            .extract_if(.., move |((_, e), _)| *e == epoch_ms)
            .map(|((qid, _), partials)| (qid, partials))
    }

    /// Base station: opens the query's epoch that started at `epoch_ms` and
    /// arms its close `close_after_ms` from now.
    pub fn open<P>(
        &mut self,
        ctx: &mut Ctx<'_, P, Output>,
        query: &Query,
        epoch_ms: u64,
        close_after_ms: u64,
    ) {
        let key = (query.id(), epoch_ms);
        if query.is_aggregation() {
            self.partials.insert(key, Vec::new());
        } else {
            self.rows.insert(key, Vec::new());
        }
        let epoch_idx = epoch_ms / BASE_EPOCH_MS;
        ctx.set_timer(close_after_ms, timer_key(KIND_CLOSE, query.id(), epoch_idx));
    }

    /// Base station: adds an acquisition row to the query's open epoch.
    pub fn add_row<P>(&mut self, ctx: &mut Ctx<'_, P, Output>, qid: QueryId, row: Row) {
        match self.rows.get_mut((qid, row.time_ms)) {
            Some(rows) => rows.push(row),
            None => ctx.record_late(false),
        }
    }

    /// The `(query, epoch start)` pairs held: at the base station, its open epochs.
    pub fn epochs(&self) -> impl Iterator<Item = (QueryId, u64)> + '_ {
        self.rows.keys().chain(self.partials.keys())
    }

    /// Drops everything buffered for a query that is being uninstalled.
    pub fn forget_query(&mut self, qid: QueryId) {
        self.partials.0.retain(|((id, _), _)| *id != qid);
        self.rows.0.retain(|((id, _), _)| *id != qid);
    }

    /// Base station: closes the query's epoch, if it is still open, into its
    /// answer: rows sorted and unique by node, or finalized aggregates.
    pub fn close<P>(&mut self, ctx: &mut Ctx<'_, P, Output>, query: &Query, epoch_ms: u64) {
        let key = (query.id(), epoch_ms);
        let answer = if let Some(mut rows) = self.rows.remove(key) {
            rows.sort_by_key(|r| r.node);
            rows.dedup_by_key(|r| r.node);
            EpochAnswer::Rows(RowSet::new(epoch_ms, rows))
        } else if let (Some(partials), Selection::Aggregates(aggs)) =
            (self.partials.remove(key), query.selection())
        {
            let values = aggs.iter().zip(&partials).filter_map(|(&(op, attr), p)| {
                let value = p.as_ref()?.finalize();
                Some(AggValue { op, attr, value })
            });
            EpochAnswer::Aggregates(values.collect())
        } else {
            return; // not open: closed already, or its query was aborted
        };
        ctx.emit(Output::Answer {
            qid: query.id(),
            epoch_ms,
            answer,
        });
    }
}

/// Arms the node's slot timer for the query's epoch at `at` ms, or at once.
fn set_slot_timer<P, O>(ctx: &mut Ctx<'_, P, O>, qid: QueryId, epoch_ms: u64, at: u64) {
    let delay = at.saturating_sub(ctx.now().as_ms()).max(1);
    ctx.set_timer(delay, timer_key(KIND_SLOT, qid, epoch_ms / BASE_EPOCH_MS));
}

/// Merges `incoming` into `buffer` element-wise, growing the buffer; the
/// first merge into an empty buffer is an exact-size copy.
fn merge_partials(buffer: &mut Vec<Option<PartialAgg>>, incoming: &[Option<PartialAgg>]) {
    if buffer.is_empty() {
        *buffer = incoming.to_vec();
        return;
    }
    if buffer.len() < incoming.len() {
        buffer.resize(incoming.len(), None);
    }
    for (slot, inc) in buffer.iter_mut().zip(incoming) {
        match (slot.as_mut(), inc) {
            (Some(a), Some(b)) => a.merge(b).expect("aligned partials share operators"),
            (None, Some(b)) => *slot = Some(*b),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use ttmqo_query::{AggOp, Readings};

    #[test]
    fn timer_key_roundtrip() {
        let k = timer_key(5, QueryId(12345), 678);
        assert_eq!(timer_key_parts(k), (5, QueryId(12345), 678));
    }

    #[test]
    fn merge_partials_elementwise() {
        let mut buf = vec![Some(AggOp::Max.seed(1.0)), None];
        merge_partials(
            &mut buf,
            &[Some(AggOp::Max.seed(5.0)), Some(AggOp::Min.seed(2.0))],
        );
        assert_eq!(buf[0].unwrap().finalize(), 5.0);
        assert_eq!(buf[1].unwrap().finalize(), 2.0);
    }

    #[test]
    fn merge_partials_grows_buffer() {
        // The first merge into an empty buffer is an exact-size copy.
        let mut buf = Vec::new();
        merge_partials(&mut buf, &[Some(AggOp::Max.seed(1.0))]);
        assert_eq!((buf.len(), buf.capacity()), (1, 1));
        merge_partials(
            &mut buf,
            &[Some(AggOp::Max.seed(7.0)), Some(AggOp::Count.seed(0.0))],
        );
        assert_eq!(buf[0].unwrap().finalize(), 7.0);
        assert_eq!(buf[1].unwrap().finalize(), 1.0);

        let mut buffers = EpochBuffers::default();
        buffers.partials.insert((QueryId(1), 2048), buf);
        assert_eq!(buffers.take(QueryId(1), 2048).unwrap().len(), 2);
        assert!(buffers.take(QueryId(1), 2048).is_none());
    }

    #[test]
    fn sorted_buffers_match_the_hash_maps_they_replaced() {
        // Replay one deterministic pseudo-random stream of merges (at a node
        // and at the base station), opens, rows, takes, whole-epoch takes,
        // closes and forgotten queries through the buffers and through the
        // hash maps they replaced, and demand the same answer to every
        // lookup after each step, every whole-epoch take in ascending query
        // id, and the same held epochs.
        let mut state = 0xbeef_0b0e_5eed_0001u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut buffers = EpochBuffers::default();
        let mut partials: HashMap<(QueryId, u64), Vec<Option<PartialAgg>>> = HashMap::new();
        let mut rows: HashMap<(QueryId, u64), Vec<Row>> = HashMap::new();
        let (mut late, mut widest) = (0, 0);
        for step in 0..20_000 {
            let key = (QueryId(rand() % 6), 2048 * (rand() % 4));
            match rand() % 10 {
                0..=2 => {
                    let open_only = rand() % 3 == 0;
                    let incoming: Vec<Option<PartialAgg>> = (0..1 + rand() % 3)
                        .map(|_| (rand() % 4 > 0).then(|| AggOp::Max.seed((rand() % 100) as f64)))
                        .collect();
                    let merged = match partials.get_mut(&key) {
                        Some(buffer) => {
                            merge_partials(buffer, &incoming);
                            true
                        }
                        None if open_only => false,
                        None => {
                            partials.insert(key, incoming.clone());
                            true
                        }
                    };
                    late += usize::from(!merged);
                    let got = buffers.merge_into(key.0, key.1, &incoming, open_only);
                    assert_eq!(got, merged, "step {step}");
                }
                3 => {
                    partials.insert(key, Vec::new());
                    buffers.partials.insert(key, Vec::new());
                }
                4 => {
                    rows.insert(key, Vec::new());
                    buffers.rows.insert(key, Vec::new());
                }
                5 => {
                    let row = Row {
                        node: (rand() % 16) as u16,
                        time_ms: key.1,
                        readings: Readings::new(),
                    };
                    let held = rows.get_mut(&key).map(|r| r.push(row)).is_some();
                    let got = buffers.rows.get_mut(key).map(|r| r.push(row)).is_some();
                    assert_eq!(got, held, "step {step}");
                }
                6 => {
                    assert_eq!(
                        buffers.take(key.0, key.1),
                        partials.remove(&key),
                        "step {step}"
                    );
                    assert_eq!(buffers.rows.remove(key), rows.remove(&key), "step {step}");
                }
                7 => {
                    let mut keys: Vec<_> =
                        partials.keys().filter(|k| k.1 == key.1).copied().collect();
                    keys.sort_unstable();
                    let expected: Vec<_> = keys
                        .into_iter()
                        .map(|k| (k.0, partials.remove(&k).unwrap()))
                        .collect();
                    widest = widest.max(expected.len());
                    let taken: Vec<_> = buffers.take_epoch(key.1).collect();
                    assert_eq!(taken, expected, "step {step}");
                }
                8 => {
                    partials.retain(|k, _| k.0 != key.0);
                    rows.retain(|k, _| k.0 != key.0);
                    buffers.forget_query(key.0);
                }
                _ => {}
            }
            let mut held: Vec<_> = rows.keys().chain(partials.keys()).copied().collect();
            let mut got: Vec<_> = buffers.epochs().collect();
            held.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, held, "step {step}");
        }
        assert!(
            late > 100 && widest >= 4,
            "{late} late merges, widest take {widest}"
        );
    }
}
