//! Ground truth from the sensor field: what an acquisition query should
//! answer at an epoch, read from the field itself instead of from any node.
//! Shared with the strategy-wide check in `ttmqo-core`'s `ground_truth`
//! test, which includes this file by path.

use ttmqo_query::Query;
use ttmqo_sim::{NodeId, SensorField, SimTime, Topology};

/// The nodes an acquisition query's answer for the epoch starting at `t`
/// lists: every node but the base station whose readings at `t` satisfy its
/// predicates, in ascending id.
pub fn qualifying(query: &Query, field: &dyn SensorField, topo: &Topology, t: SimTime) -> Vec<u16> {
    topo.nodes()
        .filter(|&n| n != NodeId::BASE_STATION)
        .filter(|&n| {
            query
                .predicates()
                .matches_with(|attr| field.reading(n, attr, t))
        })
        .map(|n| n.0)
        .collect()
}
