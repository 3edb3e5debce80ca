//! What the two node applications do identically: the timer-key codec, the
//! region test, and the per-`(query, epoch)` result buffers a node merges
//! into and the base station closes into an answer.
//!
//! [`TinyDbApp`](crate::TinyDbApp) and the in-network tier's `TtmqoApp`
//! differ in how queries are installed, when nodes sample and how frames are
//! routed; they do not differ in any of this, so it exists once.

use crate::messages::Output;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use ttmqo_query::{AggValue, EpochAnswer, PartialAgg, Query, QueryId, Row, RowSet, Selection};
use ttmqo_sim::Ctx;

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

/// Result state per `(query, epoch-start ms)`: aggregation partials aligned
/// with the query's aggregate list (every node), and acquisition rows (base
/// station only).
#[derive(Debug, Default)]
pub struct EpochBuffers {
    partials: Table<(QueryId, u64), Vec<Option<PartialAgg>>>,
    rows: Table<(QueryId, u64), Vec<Row>>,
}

impl EpochBuffers {
    /// Merges `incoming` element-wise into the query's partials for the epoch.
    pub fn merge(&mut self, qid: QueryId, epoch_ms: u64, incoming: &[Option<PartialAgg>]) {
        let buffer = self
            .partials
            .entry((qid, epoch_ms))
            .or_insert_with(|| vec![None; incoming.len()]);
        merge_partials(buffer, incoming);
    }

    /// Removes and returns the query's partials for the epoch.
    pub fn take_partials(
        &mut self,
        qid: QueryId,
        epoch_ms: u64,
    ) -> Option<Vec<Option<PartialAgg>>> {
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

    /// Base station: buffers acquisition rows that arrived for the epoch.
    pub fn add_rows(&mut self, qid: QueryId, epoch_ms: u64, rows: impl IntoIterator<Item = Row>) {
        self.rows.entry((qid, epoch_ms)).or_default().extend(rows);
    }

    /// Drops everything buffered for a query that is being uninstalled.
    pub fn forget_query(&mut self, qid: QueryId) {
        self.partials.retain(|(id, _), _| *id != qid);
        self.rows.retain(|(id, _), _| *id != qid);
    }

    /// Base station: closes the query's epoch — emits its answer (rows sorted
    /// and unique by node, or finalized aggregates) and forgets the epoch.
    /// `query` is `None` when the query terminated since the close timer was
    /// set; nothing is emitted then.
    pub fn close<P>(
        &mut self,
        ctx: &mut Ctx<'_, P, Output>,
        query: Option<&Query>,
        qid: QueryId,
        epoch_ms: u64,
    ) {
        let Some(query) = query else {
            self.partials.remove(&(qid, epoch_ms));
            self.rows.remove(&(qid, epoch_ms));
            return;
        };
        let answer = match query.selection() {
            Selection::Attributes(_) => {
                let mut rows = self.rows.remove(&(qid, epoch_ms)).unwrap_or_default();
                rows.sort_by_key(|r| r.node);
                rows.dedup_by_key(|r| r.node);
                EpochAnswer::Rows(RowSet::new(epoch_ms, rows))
            }
            Selection::Aggregates(aggs) => {
                let partials = self.partials.remove(&(qid, epoch_ms)).unwrap_or_default();
                let values: Vec<AggValue> = aggs
                    .iter()
                    .zip(partials.iter().chain(std::iter::repeat(&None)))
                    .filter_map(|(&(op, attr), p)| {
                        p.as_ref().map(|p| AggValue {
                            op,
                            attr,
                            value: p.finalize(),
                        })
                    })
                    .collect();
                EpochAnswer::Aggregates(values)
            }
        };
        ctx.emit(Output::Answer {
            qid,
            epoch_ms,
            answer,
        });
    }
}

/// Merges `incoming` into `buffer` element-wise, growing the buffer.
fn merge_partials(buffer: &mut Vec<Option<PartialAgg>>, incoming: &[Option<PartialAgg>]) {
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
        let mut buffers = EpochBuffers::default();
        buffers.merge(QueryId(1), 2048, &[Some(AggOp::Max.seed(1.0))]);
        buffers.merge(
            QueryId(1),
            2048,
            &[Some(AggOp::Max.seed(7.0)), Some(AggOp::Count.seed(0.0))],
        );
        let merged = buffers.take_partials(QueryId(1), 2048).unwrap();
        assert_eq!(merged[0].unwrap().finalize(), 7.0);
        assert_eq!(merged[1].unwrap().finalize(), 1.0);
        assert!(buffers.take_partials(QueryId(1), 2048).is_none());
    }
}
