//! Property tests over the whole pipeline: random query workloads through
//! the optimizer must always preserve coverage invariants, and random small
//! simulations must be deterministic and answer-exact.

use proptest::prelude::*;
use ttmqo::core::{BaseStationOptimizer, CostModel, NetworkOp, OptimizerOptions};
use ttmqo::query::{
    covers_query, integrate, parse_query, AggOp, Attribute, EpochDuration, ParseQueryError,
    PredicateSet, Query, QueryId, Selection,
};
use ttmqo::sim::Topology;
use ttmqo::stats::{LevelStats, SelectivityEstimator};

fn arb_attr() -> impl Strategy<Value = Attribute> {
    prop_oneof![
        Just(Attribute::NodeId),
        Just(Attribute::Light),
        Just(Attribute::Temp),
        Just(Attribute::Humidity),
    ]
}

fn arb_selection() -> impl Strategy<Value = Selection> {
    prop_oneof![
        prop::collection::vec(arb_attr(), 1..3).prop_map(Selection::attributes),
        (
            prop_oneof![Just(AggOp::Min), Just(AggOp::Max), Just(AggOp::Avg)],
            arb_attr()
        )
            .prop_map(|(op, attr)| Selection::aggregates([(op, attr)])),
    ]
}

fn arb_predicates() -> impl Strategy<Value = PredicateSet> {
    prop::collection::vec((arb_attr(), 0.0f64..1.0, 0.1f64..1.0), 0..2).prop_map(|specs| {
        let mut ps = PredicateSet::new();
        let mut used = Vec::new();
        for (attr, start, cover) in specs {
            if used.contains(&attr) {
                continue;
            }
            used.push(attr);
            let (lo, hi) = attr.domain();
            let width = hi - lo;
            let s = start.min(1.0 - cover.min(1.0)).max(0.0);
            if let Ok(p) = ttmqo::query::Predicate::new(
                attr,
                lo + s * width,
                lo + (s + cover.min(1.0 - s)) * width,
            ) {
                ps.and(p);
            }
        }
        ps
    })
}

prop_compose! {
    fn arb_query(id: u64)(
        selection in arb_selection(),
        predicates in arb_predicates(),
        epoch_mult in 1u64..8,
    ) -> Query {
        Query::from_parts(
            QueryId(id),
            selection,
            predicates,
            EpochDuration::from_base_multiples(epoch_mult),
        ).expect("generated query valid")
    }
}

/// A number-shaped literal: ordinary ones, runs of `-`, `.` and digits, an
/// integer past `u64` (20 digits), 2⁶⁴, and 2⁶³ — the largest power of two
/// that is still a valid epoch.
fn arb_number_text() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![
            Just("2048"),
            Just("4096"),
            Just("100"),
            Just("-5"),
            Just("3.7"),
            Just("1.2.3"),
            Just("-."),
            Just("1e9"),
            Just("9223372036854775808"),
            Just("18446744073709551616"),
            Just("99999999999999999999"),
        ]
        .prop_map(str::to_string),
        "[-.0123456789]{1,12}",
    ]
}

/// What breaks tokenizers: NUL, multi-byte characters, stray operators and
/// a few arbitrary characters.
fn arb_junk() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![
            Just("\0"),
            Just("é"),
            Just("光"),
            Just("\u{1F4A1}"),
            Just("--"),
            Just(".-.-"),
            Just("("),
            Just(","),
            Just("<="),
            Just("select"),
            Just("epoch"),
        ]
        .prop_map(str::to_string),
        ".{0,6}",
    ]
}

/// Query text in the language's own shape — so a good share of it parses —
/// with number-shaped literals where the grammar wants numbers and, half the
/// time, a piece of junk spliced in between two words.
fn arb_query_text() -> impl Strategy<Value = String> {
    (
        prop_oneof![
            Just("light"),
            Just("nodeid, temp"),
            Just("max(light)"),
            Just("avg(temp), min(light)"),
        ],
        prop_oneof![
            Just("where"),
            Just("where 100 < light < 600 and"),
            Just("where temp between -5 and 3.7 and"),
            Just("from sensors where nodeid >= 2 and"),
        ],
        prop_oneof![
            Just("0".to_string()),
            Just("3.7".to_string()),
            Just("99".to_string()),
            arb_number_text(),
        ],
        prop_oneof![
            Just("2048".to_string()),
            Just("4096 ms".to_string()),
            Just("9223372036854775808".to_string()),
            arb_number_text(),
        ],
        prop::collection::vec((arb_junk(), 0usize..64), 0..2),
    )
        .prop_map(|(selection, conditions, bound, epoch, splices)| {
            let text = format!(
                "select {selection} {conditions} humidity >= {bound} epoch duration {epoch}"
            );
            let mut words: Vec<&str> = text.split(' ').collect();
            for (junk, at) in &splices {
                words.insert(at % (words.len() + 1), junk);
            }
            words.join(" ")
        })
}

fn optimizer() -> BaseStationOptimizer {
    let topo = Topology::grid(4).unwrap();
    let model = CostModel::new(
        4.0,
        0.2,
        LevelStats::from_levels(topo.levels().iter().copied()),
        SelectivityEstimator::uniform(),
    );
    BaseStationOptimizer::with_options(model, OptimizerOptions::default())
}

/// Every live user query must be covered by its synthetic query, and the
/// injected set must mirror the synthetic set.
fn assert_optimizer_invariants(opt: &BaseStationOptimizer, live: &[Query]) {
    for q in live {
        let syn_id = opt
            .mapping(q.id())
            .unwrap_or_else(|| panic!("live query {} unmapped", q.id()));
        let sq = opt.synthetic(syn_id).expect("mapped synthetic exists");
        assert!(
            covers_query(sq.query(), q),
            "synthetic {} does not cover {}",
            sq.query(),
            q
        );
    }
    assert_eq!(opt.user_count(), live.len());
    assert!(opt.synthetic_count() <= live.len().max(1));
    // Note: the benefit ratio may legitimately go *negative* — Algorithm 2
    // deliberately keeps stale synthetic queries after terminations (α), and
    // §3.1.2 forces same-predicate aggregation merges even when marginal.
    assert!(opt.benefit_ratio() <= 1.0 + 1e-9, "ratio cannot exceed 1");
}

/// Inserts query `i` built from `(selections[i], predicates[i], epochs[i])`
/// for every index all three lists have, then terminates by `kill_order`
/// (positions in the shrinking live list; an out-of-range one instead
/// re-optimizes the synthetic query serving live query `k % len`), checking
/// coverage after every step, that the network-op stream only ever aborts
/// what it injected, and that what it injected and did not abort is the
/// optimizer's synthetic set.
fn check_interleaving(
    selections: &[Selection],
    predicates: &[PredicateSet],
    epochs: &[u64],
    kill_order: &[usize],
) -> Result<(), TestCaseError> {
    let n = selections.len().min(predicates.len()).min(epochs.len());
    let mut opt = optimizer();
    let mut live: Vec<Query> = Vec::new();
    let mut injected: std::collections::BTreeSet<QueryId> = Default::default();

    let apply_ops = |ops: Vec<NetworkOp>,
                     opt: &BaseStationOptimizer,
                     injected: &mut std::collections::BTreeSet<QueryId>| {
        for op in ops {
            match op {
                NetworkOp::Inject(q) => {
                    prop_assert!(injected.insert(q.id()), "double inject of {}", q.id());
                }
                NetworkOp::Abort(id) => {
                    prop_assert!(injected.remove(&id), "abort of never-injected {id}");
                }
            }
        }
        // What the network was told to run is what the optimizer runs.
        let running = opt.synthetic_queries().map(|q| q.id());
        prop_assert!(injected.iter().copied().eq(running), "injected ≠ running");
        Ok(())
    };

    for i in 0..n {
        let q = Query::from_parts(
            QueryId(i as u64),
            selections[i].clone(),
            predicates[i].clone(),
            EpochDuration::from_base_multiples(epochs[i]),
        )
        .expect("valid");
        live.push(q.clone());
        let ops = opt.insert(q).expect("unique ids");
        apply_ops(ops, &opt, &mut injected)?;
        assert_optimizer_invariants(&opt, &live);
    }
    for &k in kill_order {
        let ops = if k < live.len() {
            opt.terminate(live.remove(k).id())
        } else if !live.is_empty() {
            let syn = opt
                .mapping(live[k % live.len()].id())
                .expect("a live query is served");
            opt.reoptimize(syn)
        } else {
            continue;
        };
        apply_ops(ops, &opt, &mut injected)?;
        assert_optimizer_invariants(&opt, &live);
    }
    Ok(())
}

/// A case upstream proptest once shrank a real failure to and recorded in
/// `prop_pipeline.proptest-regressions` — a file the vendored proptest never
/// reads, so the case was silently no longer re-run. It lives here instead:
/// `MIN(nodeid)` aggregations alternating with `nodeid` acquisitions, no
/// predicates, epochs 5/4/3/1, nothing terminated.
#[test]
fn min_nodeid_with_empty_predicates_regression() {
    let min_nodeid = Selection::aggregates([(AggOp::Min, Attribute::NodeId)]);
    let nodeid = Selection::attributes([Attribute::NodeId]);
    check_interleaving(
        &[min_nodeid.clone(), nodeid.clone(), min_nodeid, nodeid],
        &vec![PredicateSet::new(); 4],
        &[5, 4, 3, 1],
        &[],
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

/// The hostile literals of the generators above, each in an otherwise valid
/// query, with the outcome spelled out.
#[test]
fn hostile_query_text_is_a_typed_error_or_a_query_that_merges() {
    let syntax = |text: &str| match parse_query(QueryId(1), text) {
        Err(ParseQueryError::Syntax(msg)) => msg,
        other => panic!("{text:?} gave {other:?}"),
    };
    // The character is named whole, not as its lead byte read as Latin-1.
    assert_eq!(
        syntax("select light where é < 3 epoch duration 2048"),
        "unexpected character `é`"
    );
    assert_eq!(syntax("select light\0"), "unexpected character `\0`");
    assert_eq!(
        syntax("select light where light > --5 epoch duration 2048"),
        "bad number `-`"
    );
    assert_eq!(
        syntax("select light where light > .-. epoch duration 2048"),
        "bad number `.`"
    );
    assert_eq!(
        syntax("select light where light > 1.2.3 epoch duration 2048"),
        "bad number `1.2.3`"
    );
    // 20 digits and 2⁶⁴ saturate to `u64::MAX`, which is no multiple of the
    // base epoch: a build error, not a wrapped-around small epoch.
    for epoch in ["99999999999999999999", "18446744073709551616"] {
        let text = format!("select light epoch duration {epoch}");
        assert!(
            matches!(
                parse_query(QueryId(1), &text),
                Err(ParseQueryError::Build(_))
            ),
            "{text}"
        );
    }
    // 2⁶³ ms is a valid (absurd) epoch; it builds, renders, re-parses, and
    // merges with an ordinary query on the common divisor.
    let huge = parse_query(
        QueryId(1),
        "select light epoch duration 9223372036854775808",
    )
    .expect("2^63 is a multiple of the base epoch");
    assert_eq!(huge.epoch().as_ms(), 1 << 63);
    assert_eq!(
        parse_query(QueryId(1), &huge.to_string()).as_ref(),
        Ok(&huge)
    );
    let small = parse_query(QueryId(2), "select light epoch duration 4096").unwrap();
    let merged = integrate(QueryId(100), &huge, &small).expect("same selection, no predicates");
    assert_eq!(merged.epoch().as_ms(), 4096);
    assert!(covers_query(&merged, &huge) && covers_query(&merged, &small));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse_query` returns a value or a typed error on any text — it never
    /// panics — and whatever it accepts went through `build()`, renders,
    /// re-parses, and survives one merge.
    #[test]
    fn parse_query_never_panics_and_what_parses_merges(text in arb_query_text()) {
        if let Ok(q) = parse_query(QueryId(1), &text) {
            let again = parse_query(QueryId(1), &q.to_string());
            prop_assert!(again.is_ok(), "{} does not re-parse: {:?}", q, again);
            // A twin always integrates, whatever the selection kind.
            let twin = q.clone().with_id(QueryId(2));
            let merged = integrate(QueryId(100), &q, &twin);
            prop_assert!(
                merged.as_ref().is_some_and(|m| covers_query(m, &q) && covers_query(m, &twin)),
                "{} and its twin merged into {:?}", q, merged
            );
        }
    }

    /// Random insert/terminate interleavings never break coverage, and the
    /// network-op stream is consistent (abort only what was injected).
    #[test]
    fn optimizer_invariants_under_random_interleavings(
        queries in prop::collection::vec(arb_selection(), 4..12),
        predicates in prop::collection::vec(arb_predicates(), 4..12),
        epochs in prop::collection::vec(1u64..8, 4..12),
        kill_order in prop::collection::vec(0usize..12, 0..8),
    ) {
        check_interleaving(&queries, &predicates, &epochs, &kill_order)?;
    }

    /// Inserting then immediately terminating every query leaves nothing
    /// running and aborts everything injected.
    #[test]
    fn full_teardown_leaves_clean_state(ids in prop::collection::vec(0u64..32, 1..10)) {
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        let mut opt = optimizer();
        for &id in &unique {
            let q = Query::from_parts(
                QueryId(id),
                Selection::attributes([Attribute::Light]),
                PredicateSet::new(),
                EpochDuration::from_base_multiples(1 + id % 4),
            ).unwrap();
            opt.insert(q).unwrap();
        }
        for &id in &unique {
            opt.terminate(QueryId(id));
        }
        prop_assert_eq!(opt.user_count(), 0);
        prop_assert_eq!(opt.synthetic_count(), 0);
        let stats = opt.stats();
        prop_assert_eq!(stats.injections, stats.abortions);
    }
}
