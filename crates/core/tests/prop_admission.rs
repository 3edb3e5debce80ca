//! Property tests for the streaming admission/departure paths: demand
//! shrink/grow exactness and churn-workload determinism.

use proptest::prelude::*;
use ttmqo_core::{Demand, SyntheticQuery};
use ttmqo_query::{
    AggOp, Attribute, EpochDuration, Predicate, PredicateSet, Query, QueryId, Region, Selection,
};
use ttmqo_workloads::{churn_workload, ChurnWorkloadParams};

const ATTRS: [Attribute; 4] = [
    Attribute::NodeId,
    Attribute::Light,
    Attribute::Temp,
    Attribute::Humidity,
];
const EPOCHS: [u64; 5] = [2048, 4096, 6144, 8192, 12288];

/// Drawn ingredients of one random query; realized by [`build_query`].
#[derive(Debug, Clone)]
struct QuerySpec {
    is_agg: bool,
    epoch_ix: usize,
    attr_mask: u8,
    agg_max: bool,
    agg_attr_ix: usize,
    preds: Vec<(usize, f64, f64)>,
    region: Option<(f64, f64, f64, f64)>,
}

prop_compose! {
    fn arb_query()(
        agg_roll in 0u8..10,
        epoch_ix in 0usize..EPOCHS.len(),
        attr_mask in 1u8..16,
        agg_max_roll in 0u8..2,
        agg_attr_ix in 0usize..ATTRS.len(),
        preds in prop::collection::vec(
            (0usize..ATTRS.len(), 0.0f64..0.8, 0.05f64..0.2), 0..3),
        region_roll in 0u8..2,
        region_box in (0.0f64..60.0, 0.0f64..60.0, 5.0f64..20.0, 5.0f64..20.0),
    ) -> QuerySpec {
        QuerySpec {
            is_agg: agg_roll < 3,
            epoch_ix,
            attr_mask,
            agg_max: agg_max_roll == 1,
            agg_attr_ix,
            preds,
            region: (region_roll == 1).then_some(region_box),
        }
    }
}

fn build_query(spec: &QuerySpec, id: u64) -> Query {
    let selection = if spec.is_agg {
        let op = if spec.agg_max { AggOp::Max } else { AggOp::Min };
        Selection::aggregates([(op, ATTRS[spec.agg_attr_ix])])
    } else {
        Selection::attributes(
            ATTRS
                .iter()
                .enumerate()
                .filter(|(i, _)| spec.attr_mask & (1 << i) != 0)
                .map(|(_, a)| *a),
        )
    };
    let mut predicates = PredicateSet::new();
    let mut used = [false; 4];
    for &(attr_ix, start, coverage) in &spec.preds {
        if std::mem::replace(&mut used[attr_ix], true) {
            continue; // same-attribute ranges could intersect to empty
        }
        let attr = ATTRS[attr_ix];
        let (lo, hi) = attr.domain();
        let width = hi - lo;
        predicates.and(
            Predicate::new(
                attr,
                lo + start * width,
                lo + (start + coverage).min(1.0) * width,
            )
            .expect("range inside the domain"),
        );
    }
    let q = Query::from_parts(
        QueryId(id),
        selection,
        predicates,
        EpochDuration::from_ms(EPOCHS[spec.epoch_ix]).expect("menu epoch is valid"),
    )
    .expect("generated query is valid");
    match spec.region {
        Some((x0, y0, w, h)) => {
            q.with_region(Region::new(x0, y0, x0 + w, y0 + h).expect("valid box"))
        }
        None => q,
    }
}

proptest! {
    /// `add_member` then `remove_member` restores the synthetic's demand
    /// bookkeeping exactly (Debug shows every count, so string equality is
    /// exact-state equality).
    #[test]
    fn add_then_remove_member_restores_demand(base in arb_query(), extra in arb_query()) {
        let q = build_query(&base, 1);
        let e = build_query(&extra, 2);
        let mut sq = SyntheticQuery::new(q.with_id(QueryId(9_000_000)));
        sq.add_member(QueryId(1), &Demand::of(&q));
        let before = format!("{sq:?}");
        sq.add_member(QueryId(2), &Demand::of(&e));
        sq.remove_member(QueryId(2), &Demand::of(&e));
        prop_assert_eq!(format!("{sq:?}"), before);
    }

    /// Churn workloads are bit-identical across repeats for a fixed seed.
    #[test]
    fn churn_workload_is_bit_identical_per_seed(seed in 0u64..=u64::MAX, n in 1usize..80) {
        let p = ChurnWorkloadParams {
            n_queries: n,
            seed,
            ..ChurnWorkloadParams::default()
        };
        let a = format!("{:?}", churn_workload(&p));
        let b = format!("{:?}", churn_workload(&p));
        prop_assert_eq!(a, b);
    }
}
