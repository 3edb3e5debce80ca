//! Differential test of the answer block codec: a row's `nodeid` value is
//! stored only when its bits differ from `f64::from(node)`, and its row head
//! marks it implied otherwise. Whatever a row holds, `RowSet::new` and
//! `select_all` — masks and projections — must show exactly the rows a
//! `Vec<Row>` model holds, bit for bit: through `iter`, `refs`,
//! `RowRef::get`, `values`, `PartialEq` and `Debug`.

use proptest::prelude::*;
use ttmqo_query::{AttrSet, Attribute, Readings, Row, RowRef, RowSet};

/// Node ids: the extremes of the 16 bits a head packs, and a few small ones
/// so that many rows share an id.
fn arb_node() -> impl Strategy<Value = u16> {
    prop_oneof![Just(0), Just(u16::MAX), 0u16..8, 0u16..=u16::MAX]
}

/// A NaN whose payload is not the default one.
fn nan(payload: u64) -> f64 {
    f64::from_bits(0x7ff0_0000_0000_0000 | (payload & 0x000f_ffff_ffff_ffff).max(1))
}

/// A row's `nodeid` value, by `kind`, relative to its node: most often the
/// node itself (implied), else its negation (−0.0 for node 0), a value near
/// it, a NaN carrying `bits` as payload, or `bits` themselves.
fn nodeid(node: u16, kind: u8, bits: u64) -> f64 {
    let id = f64::from(node);
    match kind {
        0..=2 => id,
        3 => -id,
        4 => id + 1.0,
        5 => id - 0.5,
        6 => nan(bits),
        _ => f64::from_bits(bits),
    }
}

/// Any other attribute's value: NaN payloads and both zeros included.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -500.0f64..3500.0,
        Just(0.0),
        Just(-0.0),
        (0u64..=u64::MAX).prop_map(nan),
        (0u64..=u64::MAX).prop_map(f64::from_bits),
    ]
}

/// A row of any attribute subset (the five-bit mask), its values drawn per
/// attribute.
fn arb_row() -> impl Strategy<Value = Row> {
    let values = prop::collection::vec(arb_value(), Attribute::ALL.len());
    let id = (0u8..8, 0u64..=u64::MAX);
    (arb_node(), 0u8..32, id, values).prop_map(|(node, mask, (kind, bits), values)| {
        let mut readings = Readings::new();
        for (i, attr) in Attribute::ALL.into_iter().enumerate() {
            if mask >> i & 1 == 1 {
                let value = match attr {
                    Attribute::NodeId => nodeid(node, kind, bits),
                    _ => values[i],
                };
                readings.set(attr, value);
            }
        }
        Row {
            node,
            time_ms: 0,
            readings,
        }
    })
}

/// A selection: the attribute subset it projects onto, and which rows it
/// keeps — read through `RowRef::get`, implied `nodeid` values included.
#[derive(Debug, Clone, Copy)]
enum Keep {
    All,
    None,
    /// Node id modulo 3.
    Residue(u16),
    /// Rows that show a `nodeid` value equal, bit for bit, to their node.
    ImpliedId,
    /// Rows that show `attr`, whose value's lowest bit is `bit`.
    LowBit(usize, u64),
}

impl Keep {
    fn keeps(self, node: u16, get: impl Fn(Attribute) -> Option<f64>) -> bool {
        match self {
            Keep::All => true,
            Keep::None => false,
            Keep::Residue(r) => node % 3 == r,
            Keep::ImpliedId => {
                get(Attribute::NodeId).map(f64::to_bits) == Some(f64::from(node).to_bits())
            }
            Keep::LowBit(a, bit) => get(Attribute::ALL[a]).is_some_and(|v| v.to_bits() & 1 == bit),
        }
    }
}

fn arb_sel() -> impl Strategy<Value = (u8, Keep)> {
    let keep = prop_oneof![
        Just(Keep::All),
        Just(Keep::None),
        (0u16..3).prop_map(Keep::Residue),
        Just(Keep::ImpliedId),
        (0usize..5, 0u64..2).prop_map(|(a, b)| Keep::LowBit(a, b)),
    ];
    (0u8..32, keep)
}

fn attr_set(mask: u8) -> AttrSet {
    Attribute::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, a)| a)
        .collect()
}

/// A row, bit for bit.
fn row_bits(r: &Row) -> (u16, u64, Vec<(Attribute, u64)>) {
    let readings = r.readings.iter().map(|(a, v)| (a, v.to_bits()));
    (r.node, r.time_ms, readings.collect())
}

/// Checks `set` against the rows `model` holds, through every reader.
fn check(set: &RowSet, model: &[Row]) -> Result<(), TestCaseError> {
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.is_empty(), model.is_empty());
    prop_assert_eq!(
        set.iter().map(|r| row_bits(&r)).collect::<Vec<_>>(),
        model.iter().map(row_bits).collect::<Vec<_>>()
    );
    prop_assert_eq!(set.refs().count(), model.len());
    for (r, row) in set.refs().zip(model) {
        prop_assert_eq!(r.node(), row.node);
        for attr in Attribute::ALL {
            prop_assert_eq!(
                r.get(attr).map(f64::to_bits),
                row.readings.get(attr).map(f64::to_bits)
            );
        }
    }
    prop_assert_eq!(
        set.values()
            .map(|(a, v)| (a, v.to_bits()))
            .collect::<Vec<_>>(),
        model
            .iter()
            .flat_map(|r| r.readings.iter())
            .map(|(a, v)| (a, v.to_bits()))
            .collect::<Vec<_>>()
    );
    prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
    // Equal exactly when the rows are: never once a NaN is shown.
    let twin = RowSet::new(
        model.first().map_or(0, |r| r.time_ms),
        model.iter().copied(),
    );
    prop_assert_eq!(*set == twin, model == model.to_vec());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn blocks_show_the_rows_a_vector_holds_bit_for_bit(
        rows in prop::collection::vec(arb_row(), 0..140),
        sels in prop::collection::vec(arb_sel(), 0..6),
        time_ms in 0u64..=u64::MAX,
    ) {
        let set = RowSet::new(0, rows.iter().copied());
        check(&set, &rows)?;
        let keep = |k: Keep| move |r: RowRef<'_>| k.keeps(r.node(), |a| r.get(a));
        let views: Vec<RowSet> = set
            .select_all(time_ms, sels.iter().map(|&(mask, k)| (attr_set(mask), keep(k))))
            .collect();
        prop_assert_eq!(views.len(), sels.len());
        for (view, &(mask, k)) in views.iter().zip(&sels) {
            let attrs: Vec<Attribute> = attr_set(mask).iter().collect();
            let want: Vec<Row> = rows
                .iter()
                .filter(|r| k.keeps(r.node, |a| r.readings.get(a)))
                .map(|r| Row { node: r.node, time_ms, readings: r.readings.project(&attrs) })
                .collect();
            check(view, &want)?;
            // A view selected from again, through its mask and projection.
            let again: Vec<RowSet> = view
                .select_all(time_ms, sels.iter().map(|&(mask, k)| (attr_set(mask), keep(k))))
                .collect();
            for (inner, &(mask, k)) in again.iter().zip(&sels) {
                let attrs: Vec<Attribute> = attr_set(mask).iter().collect();
                let want: Vec<Row> = want
                    .iter()
                    .filter(|r| k.keeps(r.node, |a| r.readings.get(a)))
                    .map(|r| Row { readings: r.readings.project(&attrs), ..*r })
                    .collect();
                check(inner, &want)?;
            }
        }
    }
}

#[test]
fn nodeids_equal_to_the_node_or_not_read_back_bit_for_bit() {
    // Node 0 with +0.0 (implied) and −0.0 (stored); node 65 535 with its id
    // (implied), a NaN (stored), and nothing but light.
    let row = |node, pairs: &[(Attribute, f64)]| Row {
        node,
        time_ms: 4096,
        readings: pairs.iter().copied().collect(),
    };
    let rows = [
        row(0, &[(Attribute::NodeId, 0.0), (Attribute::Temp, 1.5)]),
        row(0, &[(Attribute::NodeId, -0.0)]),
        row(
            u16::MAX,
            &[(Attribute::NodeId, 65_535.0), (Attribute::Light, 2.0)],
        ),
        row(u16::MAX, &[(Attribute::NodeId, nan(7))]),
        row(u16::MAX, &[(Attribute::Light, 3.0)]),
    ];
    let set = RowSet::new(4096, rows);
    check(&set, &rows).unwrap();
    let ids: Vec<u64> = set
        .refs()
        .filter_map(|r| r.get(Attribute::NodeId))
        .map(f64::to_bits)
        .collect();
    let want = [0.0, -0.0, 65_535.0, nan(7)].map(f64::to_bits);
    assert_eq!(ids, want);
}
