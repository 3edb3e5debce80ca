//! What the two node applications do identically: the timer-key codec, the
//! region test, TAG slot timing, and the per-`(query, epoch)` result buffers
//! a node merges into and the base station opens and closes into an answer.
//!
//! [`TinyDbApp`](crate::TinyDbApp) and the in-network tier's `TtmqoApp`
//! differ in how queries are installed, when nodes sample and how frames are
//! routed; they do not differ in any of this, so it exists once.

use crate::messages::Output;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
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

/// Whether the calling node's physical position satisfies the query's region
/// clause (queries without a region cover the whole deployment).
pub fn in_region<P, O>(ctx: &Ctx<'_, P, O>, query: &Query) -> bool {
    query.region().is_none_or(|r| {
        let pos = ctx.topology().position(ctx.node());
        r.contains(pos.x, pos.y)
    })
}

/// A hash map keyed the same way in every process: when a table with
/// deleted entries grows depends on where its keys hash, so with a random
/// seed a run's allocator calls would vary from process to process.
type Table<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

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
    partials: Table<(QueryId, u64), Vec<Option<PartialAgg>>>,
    /// The base station's open acquisition epochs.
    rows: Table<(QueryId, u64), Vec<Row>>,
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
        match self.partials.get_mut(&(qid, epoch_ms)) {
            Some(buffer) => merge_partials(buffer, incoming),
            None if ctx.is_base_station() => ctx.record_late(true),
            None => {
                self.partials.insert((qid, epoch_ms), incoming.to_vec());
            }
        }
    }

    /// Removes and returns the query's partials for the epoch.
    pub fn take(&mut self, qid: QueryId, epoch_ms: u64) -> Option<Vec<Option<PartialAgg>>> {
        self.partials.remove(&(qid, epoch_ms))
    }

    /// Removes every query's partials for the epoch as the iterator is
    /// consumed, in ascending query id (so a frame built from them does not
    /// depend on hash order).
    pub fn take_epoch(
        &mut self,
        epoch_ms: u64,
    ) -> impl Iterator<Item = (QueryId, Vec<Option<PartialAgg>>)> + '_ {
        let mut keys: Vec<(QueryId, u64)> = self
            .partials
            .keys()
            .filter(|(_, e)| *e == epoch_ms)
            .copied()
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| (k.0, self.partials.remove(&k).expect("key just listed")))
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
        match self.rows.get_mut(&(qid, row.time_ms)) {
            Some(rows) => rows.push(row),
            None => ctx.record_late(false),
        }
    }

    /// The `(query, epoch start)` pairs held: at the base station, its open epochs.
    pub fn epochs(&self) -> impl Iterator<Item = (QueryId, u64)> + '_ {
        self.rows.keys().chain(self.partials.keys()).copied()
    }

    /// Drops everything buffered for a query that is being uninstalled.
    pub fn forget_query(&mut self, qid: QueryId) {
        self.partials.retain(|(id, _), _| *id != qid);
        self.rows.retain(|(id, _), _| *id != qid);
    }

    /// Base station: closes the query's epoch, if it is still open, into its
    /// answer: rows sorted and unique by node, or finalized aggregates.
    pub fn close<P>(&mut self, ctx: &mut Ctx<'_, P, Output>, query: &Query, epoch_ms: u64) {
        let key = (query.id(), epoch_ms);
        let answer = if let Some(mut rows) = self.rows.remove(&key) {
            rows.sort_by_key(|r| r.node);
            rows.dedup_by_key(|r| r.node);
            EpochAnswer::Rows(RowSet::new(epoch_ms, rows))
        } else if let (Some(partials), Selection::Aggregates(aggs)) =
            (self.partials.remove(&key), query.selection())
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
    use ttmqo_query::AggOp;

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
}
