//! Wire messages, commands and outputs shared by the TinyDB-style baseline
//! (and reused by the TTMQO runner for its base-station tier).

use std::sync::Arc;
use ttmqo_query::{EpochAnswer, PartialAgg, Query, QueryId, Row};

/// Radio payloads of the baseline protocol.
#[derive(Debug, Clone)]
pub enum TinyDbPayload {
    /// Query dissemination flood. The query is shared, not copied: every
    /// frame of the flood and every node that installs it hold the one
    /// allocation the base station made when the query was posed.
    Query(Arc<Query>),
    /// Query abortion flood.
    Abort(QueryId),
    /// One acquisition result row for one query flowing up the tree. Rows
    /// of different origins are never merged into one frame — the origin
    /// sends its own row and every relay forwards the frame it was handed —
    /// so the frame holds the row itself, not a list of them.
    Row {
        /// The query the row answers.
        qid: QueryId,
        /// Epoch start time the row belongs to, ms.
        epoch_ms: u64,
        /// The row itself.
        row: Row,
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
            // qid + epoch + flags + attribute bitmap + per-predicate bounds.
            TinyDbPayload::Query(q) => 8 + 4 * q.predicates().len(),
            TinyDbPayload::Abort(_) => 2,
            TinyDbPayload::Row { row, .. } => 4 + 2 + 2 * row.readings.len(),
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
        let qmsg = TinyDbPayload::Query(q.into());
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
        let frame = TinyDbPayload::Row {
            qid: QueryId(1),
            epoch_ms: 0,
            row,
        };
        assert_eq!(frame.wire_size(), 4 + 6);

        let p = TinyDbPayload::Partials {
            qid: QueryId(1),
            epoch_ms: 0,
            partials: vec![Some(AggOp::Max.seed(5.0)), None, Some(AggOp::Avg.seed(2.0))],
        };
        assert_eq!(p.wire_size(), (4 + 2) + 4);
    }
}
