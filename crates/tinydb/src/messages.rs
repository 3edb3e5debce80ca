//! Wire messages, commands and outputs shared by the TinyDB-style baseline
//! (and reused by the TTMQO runner for its base-station tier).

use ttmqo_query::{EpochAnswer, PartialAgg, Query, QueryId, Row};

/// Radio payloads of the baseline protocol.
#[derive(Debug, Clone)]
pub enum TinyDbPayload {
    /// Query dissemination flood.
    Query(Query),
    /// Query abortion flood.
    Abort(QueryId),
    /// Acquisition result rows for one query flowing up the tree.
    Rows {
        /// The query the rows answer.
        qid: QueryId,
        /// Epoch start time the rows belong to, ms.
        epoch_ms: u64,
        /// The rows themselves.
        rows: Vec<Row>,
    },
    /// Partial aggregate state for one query flowing up the tree, aligned
    /// with the query's aggregate list.
    Partials {
        /// The query the partials answer.
        qid: QueryId,
        /// Epoch start time the partials belong to, ms.
        epoch_ms: u64,
        /// One partial per `(op, attr)` in the query's aggregate list;
        /// `None` where no qualifying reading contributed yet.
        partials: Vec<Option<PartialAgg>>,
    },
}

impl TinyDbPayload {
    /// Application payload length in bytes, mirroring TinyDB's packed
    /// representations: 2-byte values, 2-byte ids, 2-byte epoch counter.
    pub fn wire_size(&self) -> usize {
        match self {
            // qid + epoch + flags + attribute bitmap + per-predicate bounds
            // (+ four 2-byte coordinates for a region clause).
            TinyDbPayload::Query(q) => {
                8 + 4 * q.predicates().len() + if q.region().is_some() { 8 } else { 0 }
            }
            TinyDbPayload::Abort(_) => 2,
            TinyDbPayload::Rows { rows, .. } => {
                4 + rows.iter().map(|r| 2 + 2 * r.readings.len()).sum::<usize>()
            }
            TinyDbPayload::Partials { partials, .. } => {
                4 + partials
                    .iter()
                    .map(|p| p.as_ref().map_or(0, |p| p.op().wire_size()))
                    .sum::<usize>()
            }
        }
    }
}

/// External commands to the base station.
#[derive(Debug, Clone)]
pub enum Command {
    /// A user poses a new query.
    Pose(Query),
    /// A user terminates a running query.
    Terminate(QueryId),
}

/// Records the base station emits to the outside world.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// One query's complete answer for one epoch.
    Answer {
        /// The answered query.
        qid: QueryId,
        /// Start of the answered epoch, ms.
        epoch_ms: u64,
        /// The answer.
        answer: EpochAnswer,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_query::{AggOp, Attribute, QueryId, Readings};

    #[test]
    fn wire_sizes_scale_with_content() {
        let q = ttmqo_query::parse_query(
            QueryId(1),
            "select light where 100<light<300 epoch duration 2048",
        )
        .unwrap();
        let qmsg = TinyDbPayload::Query(q);
        assert_eq!(qmsg.wire_size(), 12);
        assert_eq!(TinyDbPayload::Abort(QueryId(1)).wire_size(), 2);

        let mut readings = Readings::new();
        readings.set(Attribute::Light, 1.0);
        readings.set(Attribute::Temp, 2.0);
        let row = Row {
            node: 1,
            time_ms: 0,
            readings,
        };
        let one = TinyDbPayload::Rows {
            qid: QueryId(1),
            epoch_ms: 0,
            rows: vec![row],
        };
        let two = TinyDbPayload::Rows {
            qid: QueryId(1),
            epoch_ms: 0,
            rows: vec![row, row],
        };
        assert_eq!(one.wire_size(), 4 + 6);
        assert_eq!(two.wire_size(), 4 + 12);

        let p = TinyDbPayload::Partials {
            qid: QueryId(1),
            epoch_ms: 0,
            partials: vec![Some(AggOp::Max.seed(5.0)), None, Some(AggOp::Avg.seed(2.0))],
        };
        assert_eq!(p.wire_size(), (4 + 2) + 4);
    }
}
