//! Model test of the inline attribute maps: `Readings` and `PredicateSet`
//! driven by random operation sequences against the `BTreeMap` versions they
//! replaced, which live on here as the reference. Results, iteration order
//! and the `Debug` / `Display` strings must be equal — goldens and trace
//! digests are made of those strings. `RowSet`, the packed form an answer's
//! rows are held in, is checked the same way against the `Vec<Row>` it
//! replaced, and its `select` against filtering and projecting that vector;
//! `select_all`, which answers many selections with views of one shared
//! block, against one `select` per selection.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt;
use ttmqo_query::{Attribute, Predicate, PredicateSet, Readings, Row, RowRef, RowSet};

/// The reference implementations. The types carry the product's names so
/// the derived `Debug` prints what the product's must.
mod model {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct Readings {
        pub values: BTreeMap<Attribute, f64>,
    }

    impl Readings {
        pub fn project(&self, attrs: &[Attribute]) -> Readings {
            Readings {
                values: self
                    .values
                    .iter()
                    .filter(|(a, _)| attrs.contains(a))
                    .map(|(&a, &v)| (a, v))
                    .collect(),
            }
        }
    }

    impl fmt::Display for Readings {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let parts: Vec<String> = self
                .values
                .iter()
                .map(|(a, v)| format!("{a}={v}"))
                .collect();
            write!(f, "{{{}}}", parts.join(", "))
        }
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct PredicateSet {
        pub ranges: BTreeMap<Attribute, (f64, f64)>,
    }

    impl PredicateSet {
        pub fn and(&mut self, p: Predicate) {
            let entry = self
                .ranges
                .entry(p.attr())
                .or_insert_with(|| p.attr().domain());
            entry.0 = entry.0.max(p.min());
            entry.1 = entry.1.min(p.max());
        }

        pub fn range(&self, attr: Attribute) -> Option<Predicate> {
            self.ranges
                .get(&attr)
                .and_then(|&(min, max)| Predicate::new(attr, min, max).ok())
        }

        pub fn is_unsatisfiable(&self) -> bool {
            self.ranges.values().any(|&(min, max)| min > max)
        }

        pub fn matches_with(&self, lookup: impl Fn(Attribute) -> f64) -> bool {
            self.ranges.iter().all(|(&attr, &(min, max))| {
                let v = lookup(attr);
                v >= min && v <= max
            })
        }

        pub fn covers(&self, other: &PredicateSet) -> bool {
            self.ranges
                .iter()
                .all(|(&attr, &(min, max))| match other.ranges.get(&attr) {
                    Some(&(omin, omax)) => min <= omin && max >= omax,
                    None => {
                        let (lo, hi) = attr.domain();
                        min <= lo && max >= hi
                    }
                })
        }

        pub fn union_cover(&self, other: &PredicateSet) -> PredicateSet {
            let mut ranges = BTreeMap::new();
            for (&attr, &(min, max)) in &self.ranges {
                if let Some(&(omin, omax)) = other.ranges.get(&attr) {
                    ranges.insert(attr, (min.min(omin), max.max(omax)));
                }
            }
            PredicateSet { ranges }.normalize()
        }

        pub fn normalize(&self) -> PredicateSet {
            let mut set = self.clone();
            set.ranges.retain(|attr, &mut (min, max)| {
                let (lo, hi) = attr.domain();
                !(min <= lo && max >= hi)
            });
            set
        }

        pub fn uniform_selectivity(&self) -> f64 {
            self.ranges
                .iter()
                .map(|(&attr, &(min, max))| ((max - min) / attr.domain_width()).clamp(0.0, 1.0))
                .product()
        }
    }

    impl fmt::Display for PredicateSet {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.ranges.is_empty() {
                return f.write_str("true");
            }
            let parts: Vec<String> = self
                .ranges
                .iter()
                .map(|(a, (min, max))| format!("{min} <= {a} <= {max}"))
                .collect();
            f.write_str(&parts.join(" and "))
        }
    }
}

fn arb_attr() -> impl Strategy<Value = Attribute> {
    (0usize..Attribute::ALL.len()).prop_map(|i| Attribute::ALL[i])
}

/// Sampled values, the awkward ones included: both zeros, a NaN, values
/// whose shortest decimal form is long.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -500.0f64..3500.0,
        (-4000i32..4000).prop_map(|i| f64::from(i) / 8.0),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(0.1 + 0.2),
        Just(1e21),
    ]
}

/// A row's node id: few distinct ids, so duplicates are common, and the
/// extremes of the 16 bits a head packs.
fn arb_node() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..6, 0u16..6, Just(0), Just(u16::MAX), 0u16..=u16::MAX]
}

/// A row's readings: any subset of the attributes, the infinities included
/// among the values.
fn arb_row_readings() -> impl Strategy<Value = Readings> {
    let value = prop_oneof![arb_value(), Just(f64::INFINITY), Just(f64::NEG_INFINITY)];
    prop::collection::vec((arb_attr(), value), 0..8).prop_map(|pairs| pairs.into_iter().collect())
}

/// What a row is, bit for bit.
fn row_bits(r: &Row) -> (u16, u64, Vec<(Attribute, u64)>) {
    let readings = r.readings.iter().map(|(a, v)| (a, v.to_bits()));
    (r.node, r.time_ms, readings.collect())
}

/// A selection: the attributes it projects onto, and which rows it keeps —
/// those whose node id is `residue` modulo `modulus`, and, if `lit`, only
/// those that carry a light reading. A residue past the modulus keeps none.
#[derive(Debug, Clone)]
struct Sel {
    attrs: Vec<Attribute>,
    modulus: u16,
    residue: u16,
    lit: bool,
}

fn arb_sel() -> impl Strategy<Value = Sel> {
    let attrs = || prop::collection::vec(arb_attr(), 0..6);
    let sel = |(attrs, modulus, residue, lit)| Sel {
        attrs,
        modulus,
        residue,
        lit,
    };
    prop_oneof![
        (
            attrs(),
            1u16..4,
            0u16..4,
            prop_oneof![Just(false), Just(true)]
        )
            .prop_map(sel),
        // Keeps every row.
        (attrs(), Just(1), Just(0), Just(false)).prop_map(sel),
        // Keeps none.
        (
            attrs(),
            Just(1),
            Just(1),
            prop_oneof![Just(false), Just(true)]
        )
            .prop_map(sel),
    ]
}

/// `sel` as what `RowSet::select_all` takes.
fn selection(sel: &Sel) -> (ttmqo_query::AttrSet, impl Fn(RowRef<'_>) -> bool) {
    let (modulus, residue, lit) = (sel.modulus, sel.residue, sel.lit);
    let keep = move |r: RowRef<'_>| {
        r.node() % modulus == residue && (!lit || r.get(Attribute::Light).is_some())
    };
    (sel.attrs.iter().collect(), keep)
}

/// What a set is, bit for bit: its rows in order, its length, its values.
type SetBits = (
    Vec<(u16, u64, Vec<(Attribute, u64)>)>,
    usize,
    bool,
    Vec<(Attribute, u64)>,
);

fn set_bits(set: &RowSet) -> SetBits {
    let rows = set.iter().map(|r| row_bits(&r)).collect();
    let values = set.values().map(|(a, v)| (a, v.to_bits())).collect();
    (rows, set.len(), set.is_empty(), values)
}

#[derive(Debug, Clone)]
enum ReadingsOp {
    Set(Attribute, f64),
    Project(Vec<Attribute>),
    Extend(Vec<(Attribute, f64)>),
    FromIter(Vec<(Attribute, f64)>),
}

fn arb_readings_op() -> impl Strategy<Value = ReadingsOp> {
    let pairs = || prop::collection::vec((arb_attr(), arb_value()), 0..7);
    prop_oneof![
        (arb_attr(), arb_value()).prop_map(|(a, v)| ReadingsOp::Set(a, v)),
        (arb_attr(), arb_value()).prop_map(|(a, v)| ReadingsOp::Set(a, v)),
        prop::collection::vec(arb_attr(), 0..5).prop_map(ReadingsOp::Project),
        pairs().prop_map(ReadingsOp::Extend),
        pairs().prop_map(ReadingsOp::FromIter),
    ]
}

fn check_readings(got: &Readings, want: &model::Readings) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.iter()
            .map(|(a, v)| (a, v.to_bits()))
            .collect::<Vec<_>>(),
        want.values
            .iter()
            .map(|(&a, &v)| (a, v.to_bits()))
            .collect::<Vec<_>>()
    );
    for attr in Attribute::ALL {
        prop_assert_eq!(
            got.get(attr).map(f64::to_bits),
            want.values.get(&attr).copied().map(f64::to_bits)
        );
    }
    prop_assert_eq!(got.len(), want.values.len());
    prop_assert_eq!(got.is_empty(), want.values.is_empty());
    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    prop_assert_eq!(format!("{got:#?}"), format!("{want:#?}"));
    prop_assert_eq!(got.to_string(), want.to_string());
    // What an emptied slot last held must not show: a value rebuilt from the
    // visible entries alone is equal exactly when the reference says so
    // (never, if a NaN is present).
    let rebuilt: Readings = got.iter().collect();
    prop_assert_eq!(*got == rebuilt, want == &want.clone());
    Ok(())
}

/// A predicate as the generator sees it: domain fractions, or the explicit
/// full-domain range.
#[derive(Debug, Clone)]
enum Pred {
    Range(Attribute, f64, f64),
    Full(Attribute),
}

impl Pred {
    fn build(&self) -> Predicate {
        match *self {
            Pred::Range(attr, a, b) => {
                let (lo, hi) = attr.domain();
                let at = |f: f64| lo + f * (hi - lo);
                Predicate::new(attr, at(a.min(b)), at(a.max(b))).expect("inside the domain")
            }
            Pred::Full(attr) => Predicate::full(attr),
        }
    }
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    // Eighths of the domain, so that disjoint ranges (whose conjunction is
    // inverted), shared bounds and exact covers are all common.
    let eighth = || (0u32..=8).prop_map(|i| f64::from(i) / 8.0);
    prop_oneof![
        (arb_attr(), eighth(), eighth()).prop_map(|(a, x, y)| Pred::Range(a, x, y)),
        (arb_attr(), eighth(), eighth()).prop_map(|(a, x, y)| Pred::Range(a, x, y)),
        (arb_attr(), 0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, x, y)| Pred::Range(a, x, y)),
        arb_attr().prop_map(Pred::Full),
    ]
}

#[derive(Debug, Clone)]
enum SetOp {
    And(Pred),
    Extend(Vec<Pred>),
    FromPredicates(Vec<Pred>),
    Normalize,
    /// Replace the set by its covering union with the other one.
    UnionCover,
}

fn arb_set_op() -> impl Strategy<Value = SetOp> {
    let preds = || prop::collection::vec(arb_pred(), 0..5);
    prop_oneof![
        arb_pred().prop_map(SetOp::And),
        arb_pred().prop_map(SetOp::And),
        arb_pred().prop_map(SetOp::And),
        preds().prop_map(SetOp::Extend),
        preds().prop_map(SetOp::FromPredicates),
        Just(SetOp::Normalize),
        Just(SetOp::UnionCover),
    ]
}

type Pair = (PredicateSet, model::PredicateSet);

fn apply(op: &SetOp, (got, want): &mut Pair, other: &Pair) {
    match op {
        SetOp::And(p) => {
            got.and(p.build());
            want.and(p.build());
        }
        SetOp::Extend(ps) => {
            got.extend(ps.iter().map(Pred::build));
            ps.iter().for_each(|p| want.and(p.build()));
        }
        SetOp::FromPredicates(ps) => {
            *got = ps.iter().map(Pred::build).collect();
            *want = model::PredicateSet::default();
            ps.iter().for_each(|p| want.and(p.build()));
        }
        SetOp::Normalize => {
            *got = got.normalize();
            *want = want.normalize();
        }
        SetOp::UnionCover => {
            *got = got.union_cover(&other.0);
            *want = want.union_cover(&other.1);
        }
    }
}

fn check_set((got, want): &Pair, lookup: &[f64; 5]) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    prop_assert_eq!(format!("{got:#?}"), format!("{want:#?}"));
    prop_assert_eq!(got.to_string(), want.to_string());
    prop_assert_eq!(
        got.attrs().collect::<Vec<_>>(),
        want.ranges.keys().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        got.iter()
            .map(|p| (p.attr(), p.min().to_bits(), p.max().to_bits()))
            .collect::<Vec<_>>(),
        want.ranges
            .iter()
            .map(|(&attr, &(min, max))| (attr, min.to_bits(), max.to_bits()))
            .collect::<Vec<_>>()
    );
    for attr in Attribute::ALL {
        prop_assert_eq!(got.range(attr), want.range(attr));
        prop_assert_eq!(
            got.effective_range(attr),
            want.range(attr).unwrap_or_else(|| Predicate::full(attr))
        );
    }
    prop_assert_eq!(got.len(), want.ranges.len());
    prop_assert_eq!(got.is_empty(), want.ranges.is_empty());
    prop_assert_eq!(got.is_unsatisfiable(), want.is_unsatisfiable());
    prop_assert_eq!(
        got.uniform_selectivity().to_bits(),
        want.uniform_selectivity().to_bits()
    );
    let value_of = |attr: Attribute| {
        let (lo, hi) = attr.domain();
        lo + lookup[attr as usize] * (hi - lo)
    };
    prop_assert_eq!(got.matches_with(value_of), want.matches_with(value_of));
    Ok(())
}

fn check_sets(a: &Pair, b: &Pair) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.0.covers(&b.0), a.1.covers(&b.1));
    prop_assert_eq!(a.0.equivalent(&b.0), a.1.covers(&b.1) && b.1.covers(&a.1));
    prop_assert_eq!(a.0 == b.0, a.1 == b.1);
    let (got, want) = (a.0.union_cover(&b.0), a.1.union_cover(&b.1));
    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    // The product's own contract, whatever the representation.
    prop_assert!(got.covers(&a.0) && got.covers(&b.0));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn readings_behave_as_the_btreemap_they_replaced(
        ops in prop::collection::vec(arb_readings_op(), 0..24),
    ) {
        let mut got = Readings::new();
        let mut want = model::Readings::default();
        for op in ops {
            let (before_got, before_want) = (got, want.clone());
            match op {
                ReadingsOp::Set(attr, v) => {
                    prop_assert_eq!(
                        got.set(attr, v).map(f64::to_bits),
                        want.values.insert(attr, v).map(f64::to_bits)
                    );
                }
                ReadingsOp::Project(attrs) => {
                    got = got.project(&attrs);
                    want = want.project(&attrs);
                }
                ReadingsOp::Extend(pairs) => {
                    got.extend(pairs.iter().copied());
                    want.values.extend(pairs);
                }
                ReadingsOp::FromIter(pairs) => {
                    got = pairs.iter().copied().collect();
                    want.values = pairs.into_iter().collect();
                }
            }
            check_readings(&got, &want)?;
            prop_assert_eq!(got == before_got, want == before_want);
        }
    }

    #[test]
    fn a_row_set_iterates_back_the_rows_it_was_built_from(
        time_ms in 0u64..=u64::MAX,
        rows in prop::collection::vec((arb_node(), arb_row_readings()), 0..65),
    ) {
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(node, readings)| Row { node, time_ms, readings })
            .collect();
        let set = RowSet::new(time_ms, rows.iter().copied());
        prop_assert_eq!(
            set.iter().map(|r| row_bits(&r)).collect::<Vec<_>>(),
            rows.iter().map(row_bits).collect::<Vec<_>>()
        );
        prop_assert_eq!(set.len(), rows.len());
        prop_assert_eq!(set.is_empty(), rows.is_empty());
        prop_assert_eq!(
            set.values().map(|(a, v)| (a, v.to_bits())).collect::<Vec<_>>(),
            rows.iter()
                .flat_map(|r| r.readings.iter())
                .map(|(a, v)| (a, v.to_bits()))
                .collect::<Vec<_>>()
        );
        prop_assert_eq!(format!("{set:?}"), format!("{rows:?}"));
        // Equal exactly when the rows are (never, if a NaN is present).
        let twin = RowSet::new(time_ms, rows.iter().copied());
        prop_assert_eq!(set == twin, rows == rows.clone());
    }

    #[test]
    fn selecting_from_a_row_set_is_filtering_and_projecting_its_rows(
        rows in prop::collection::vec((arb_node(), arb_row_readings()), 0..65),
        attrs in prop::collection::vec(arb_attr(), 0..6),
        odd in 0u16..2,
        time_ms in 0u64..=u64::MAX,
    ) {
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(node, readings)| Row { node, time_ms: 0, readings })
            .collect();
        let set = RowSet::new(0, rows.iter().copied());
        // In place, a row reads as it does unpacked.
        for (r, row) in set.refs().zip(&rows) {
            prop_assert_eq!(r.node(), row.node);
            for attr in Attribute::ALL {
                prop_assert_eq!(
                    r.get(attr).map(f64::to_bits),
                    row.readings.get(attr).map(f64::to_bits)
                );
            }
        }
        let selected = set.select(time_ms, attrs.iter().collect(), |r| r.node() % 2 == odd);
        let want: Vec<Row> = rows
            .iter()
            .filter(|r| r.node % 2 == odd)
            .map(|r| Row { node: r.node, time_ms, readings: r.readings.project(&attrs) })
            .collect();
        prop_assert_eq!(
            selected.iter().map(|r| row_bits(&r)).collect::<Vec<_>>(),
            want.iter().map(row_bits).collect::<Vec<_>>()
        );
        prop_assert_eq!(selected.len(), want.len());
    }

    #[test]
    fn selecting_many_at_once_is_selecting_each_alone(
        rows in prop::collection::vec((arb_node(), arb_row_readings()), 0..200),
        sels in prop::collection::vec(arb_sel(), 0..6),
        again in prop::collection::vec(arb_sel(), 0..6),
        time_ms in 0u64..=u64::MAX,
    ) {
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(node, readings)| Row { node, time_ms: 0, readings })
            .collect();
        let set = RowSet::new(0, rows.iter().copied());
        let views: Vec<RowSet> = set.select_all(time_ms, sels.iter().map(selection)).collect();
        prop_assert_eq!(views.len(), sels.len());
        for (view, sel) in views.iter().zip(&sels) {
            let (attrs, keep) = selection(sel);
            prop_assert_eq!(set_bits(view), set_bits(&set.select(time_ms, attrs, keep)));
            // Selecting from a view, masked and projected, is selecting from
            // a set of the rows it shows.
            let copy = RowSet::new(time_ms, view.iter());
            let of_view: Vec<RowSet> = view.select_all(7, again.iter().map(selection)).collect();
            let of_copy: Vec<RowSet> = copy.select_all(7, again.iter().map(selection)).collect();
            prop_assert_eq!(
                of_view.iter().map(set_bits).collect::<Vec<_>>(),
                of_copy.iter().map(set_bits).collect::<Vec<_>>()
            );
            for (r, row) in view.refs().zip(copy.iter()) {
                for attr in Attribute::ALL {
                    prop_assert_eq!(
                        r.get(attr).map(f64::to_bits),
                        row.readings.get(attr).map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn predicate_sets_behave_as_the_btreemap_they_replaced(
        ops in prop::collection::vec((arb_set_op(), arb_set_op()), 0..16),
        lookup in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
    ) {
        let lookup = [lookup.0, lookup.1, lookup.2, lookup.3, lookup.4];
        let mut a = Pair::default();
        let mut b = Pair::default();
        for (op_a, op_b) in ops {
            apply(&op_a, &mut a, &b);
            apply(&op_b, &mut b, &a);
            check_set(&a, &lookup)?;
            check_set(&b, &lookup)?;
            check_sets(&a, &b)?;
            check_sets(&b, &a)?;
        }
    }
}
