//! Result-side data types: readings, rows and per-epoch answers.

use crate::agg::{AggOp, PartialAgg};
use crate::attr::{AttrMap, AttrSet, Attribute};
use std::borrow::Borrow;
use std::cell::Cell;
use std::fmt;

/// One node's sampled values for a set of attributes at one instant.
///
/// # Examples
///
/// ```
/// use ttmqo_query::{Attribute, Readings};
///
/// let mut r = Readings::new();
/// r.set(Attribute::Light, 512.0);
/// assert_eq!(r.get(Attribute::Light), Some(512.0));
/// assert_eq!(r.get(Attribute::Temp), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Readings {
    values: AttrMap<f64>,
}

impl Readings {
    /// An empty set of readings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sampled value, replacing any previous value and returning it.
    pub fn set(&mut self, attr: Attribute, value: f64) -> Option<f64> {
        self.values.insert(attr, value)
    }

    /// The sampled value for `attr`, if present.
    pub fn get(&self, attr: Attribute) -> Option<f64> {
        self.values.get(attr)
    }

    /// Iterates `(attribute, value)` pairs in canonical attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (Attribute, f64)> + '_ {
        self.values.iter()
    }

    /// Number of sampled attributes.
    pub fn len(&self) -> usize {
        self.values.keys().len()
    }

    /// Whether nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.values.keys().is_empty()
    }

    /// Keeps only the given attributes (a slice, or an [`AttrSet`]).
    ///
    /// [`AttrSet`]: crate::AttrSet
    pub fn project<I>(&self, attrs: I) -> Readings
    where
        I: IntoIterator,
        I::Item: Borrow<Attribute>,
    {
        let mut kept = *self;
        kept.values.restrict(attrs.into_iter().collect());
        kept
    }
}

impl FromIterator<(Attribute, f64)> for Readings {
    fn from_iter<I: IntoIterator<Item = (Attribute, f64)>>(iter: I) -> Self {
        let mut readings = Readings::new();
        readings.extend(iter);
        readings
    }
}

impl Extend<(Attribute, f64)> for Readings {
    fn extend<I: IntoIterator<Item = (Attribute, f64)>>(&mut self, iter: I) {
        for (attr, value) in iter {
            self.set(attr, value);
        }
    }
}

impl fmt::Display for Readings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (a, v)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}={v}")?;
        }
        f.write_str("}")
    }
}

/// A result row: one node's qualifying readings at one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Raw id of the producing node.
    pub node: u16,
    /// Simulation time of the epoch the row belongs to, in milliseconds.
    pub time_ms: u64,
    /// The projected readings.
    pub readings: Readings,
}

// A row is a flat value: relays and answer buffers hold it without a heap node.
const _: () = assert!(std::mem::size_of::<Row>() <= 64);

/// An acquisition answer: one epoch's rows in one exact-size allocation.
///
/// Per row the set keeps the node id and the row's attribute bitmap, and
/// one value per attribute present; the epoch's time is stated once. A set
/// is assembled in a per-thread buffer that is reused, then copied once into
/// an allocation of exactly its length, so an answer holds what it carries
/// and nothing for growth. [`iter`](Self::iter) yields the rows it was built
/// from, bit for bit, in the same order.
///
/// # Examples
///
/// ```
/// use ttmqo_query::{Attribute, Readings, Row, RowSet};
///
/// let light: Readings = [(Attribute::Light, 512.0)].into_iter().collect();
/// let rows = [
///     Row { node: 3, time_ms: 4096, readings: light },
///     Row { node: 5, time_ms: 4096, readings: Readings::new() },
/// ];
/// let set = RowSet::new(4096, rows);
/// assert_eq!(set.len(), 2);
/// assert!(set.iter().eq(rows));
/// ```
#[derive(Clone)]
pub struct RowSet {
    time_ms: u64,
    len: u32,
    /// The row heads two to a word (node id in bits 0–15, attribute bitmap
    /// in bits 16–23 of each half), then every value's bits, row by row.
    words: Box<[u64]>,
}

thread_local! {
    /// Where a [`RowSet`] is assembled — its head words and its value words —
    /// before one copy into an allocation of exactly the final length. Kept
    /// between builds, so that once warm, assembling allocates nothing.
    static STAGING: Cell<(Vec<u64>, Vec<u64>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

impl RowSet {
    /// The set of `rows`, all of the epoch at `time_ms`, in the order given.
    ///
    /// # Panics
    ///
    /// If a row's `time_ms` is not `time_ms`.
    pub fn new(time_ms: u64, rows: impl IntoIterator<Item = Row>) -> RowSet {
        RowSet::build(
            time_ms,
            rows.into_iter().map(|row| {
                assert_eq!(row.time_ms, time_ms, "a row set holds one epoch");
                let values = row.readings.values;
                let bits = values.into_values().map(f64::to_bits);
                (row.node, values.keys(), bits)
            }),
        )
    }

    /// The rows `keep` accepts, each projected onto `attrs`, as a set of the
    /// epoch at `time_ms`; `keep` reads each row in place, once.
    pub fn select(
        &self,
        time_ms: u64,
        attrs: AttrSet,
        keep: impl Fn(RowRef<'_>) -> bool,
    ) -> RowSet {
        RowSet::build(
            time_ms,
            self.rows().filter(|&r| keep(r)).map(|r| {
                let kept = r.attrs.intersection(attrs);
                (r.node, kept, r.bits_of(kept))
            }),
        )
    }

    /// Assembles one set from each row's node id, attribute bitmap and value
    /// bits (in the bitmap's order).
    fn build<V: Iterator<Item = u64>>(
        time_ms: u64,
        rows: impl Iterator<Item = (u16, AttrSet, V)>,
    ) -> RowSet {
        // Taken, not borrowed: a `rows` that builds a set of its own finds
        // the staging empty rather than in use.
        let (mut heads, mut values) = STAGING.take();
        heads.clear();
        values.clear();
        let mut len = 0;
        for (node, attrs, bits) in rows {
            let head = u64::from(node) | u64::from(attrs.bits()) << 16;
            match heads.last_mut() {
                Some(word) if len % 2 == 1 => *word |= head << 32,
                _ => heads.push(head),
            }
            values.extend(bits);
            len += 1;
        }
        let mut words = Vec::with_capacity(heads.len() + values.len());
        words.extend_from_slice(&heads);
        words.extend_from_slice(&values);
        STAGING.set((heads, values));
        RowSet {
            time_ms,
            len: u32::try_from(len).expect("a row set holds at most u32::MAX rows"),
            words: words.into_boxed_slice(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no row qualified.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows, in the order the set was built from.
    #[inline]
    pub fn iter(&self) -> RowSetIter<'_> {
        RowSetIter {
            time_ms: self.time_ms,
            rows: self.rows(),
        }
    }

    /// Every `(attribute, value)` the set holds: row by row, each row's in
    /// canonical attribute order.
    pub fn values(&self) -> impl Iterator<Item = (Attribute, f64)> + '_ {
        self.rows().flat_map(|r| {
            r.attrs
                .iter()
                .zip(r.values.iter().map(|&b| f64::from_bits(b)))
        })
    }

    /// The rows read in place, without unpacking their readings.
    #[inline]
    pub fn refs(&self) -> impl Iterator<Item = RowRef<'_>> + Clone {
        self.rows()
    }

    /// The rows as stored.
    #[inline]
    fn rows(&self) -> Packed<'_> {
        let (heads, values) = self.words.split_at(self.len().div_ceil(2));
        Packed {
            heads,
            values,
            next: 0,
            len: self.len(),
        }
    }
}

/// Equal when the rows are: what `Vec<Row>` equality was.
impl PartialEq for RowSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// Prints as the list of its rows.
impl fmt::Debug for RowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a RowSet {
    type Item = Row;
    type IntoIter = RowSetIter<'a>;

    fn into_iter(self) -> RowSetIter<'a> {
        self.iter()
    }
}

/// A row read in place from a [`RowSet`]: what [`RowSet::refs`] yields and
/// [`RowSet::select`]'s filter sees.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    node: u16,
    attrs: AttrSet,
    /// The row's values, in the order of `attrs`.
    values: &'a [u64],
}

impl<'a> RowRef<'a> {
    /// Raw id of the producing node.
    #[inline]
    pub fn node(&self) -> u16 {
        self.node
    }

    /// The row's value for `attr`, if it carries one.
    #[inline]
    pub fn get(&self, attr: Attribute) -> Option<f64> {
        let value = || f64::from_bits(self.values[self.attrs.rank(attr)]);
        self.attrs.contains(attr).then(value)
    }

    /// The bits of the row's values for the members of `kept`, in order.
    #[inline]
    fn bits_of(self, kept: AttrSet) -> impl Iterator<Item = u64> + 'a {
        // Walk the row's own bitmap lowest bit first, alongside its values.
        let mut carried = self.attrs.bits();
        self.values.iter().copied().filter(move |_| {
            let lowest = carried & carried.wrapping_neg();
            carried ^= lowest;
            kept.bits() & lowest != 0
        })
    }
}

/// The rows of a [`RowSet`] as stored.
#[derive(Debug, Clone)]
struct Packed<'a> {
    heads: &'a [u64],
    /// The values of the rows not yet yielded.
    values: &'a [u64],
    next: usize,
    len: usize,
}

impl<'a> Iterator for Packed<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        if self.next == self.len {
            return None;
        }
        let half = self.heads[self.next / 2] >> (self.next % 2 * 32);
        self.next += 1;
        let attrs = AttrSet::from_bits((half >> 16) as u8);
        let (values, rest) = self.values.split_at(attrs.len());
        self.values = rest;
        Some(RowRef {
            node: half as u16,
            attrs,
            values,
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.next;
        (left, Some(left))
    }
}

/// Iterator over the rows of a [`RowSet`].
#[derive(Debug, Clone)]
pub struct RowSetIter<'a> {
    time_ms: u64,
    rows: Packed<'a>,
}

impl Iterator for RowSetIter<'_> {
    type Item = Row;

    #[inline]
    fn next(&mut self) -> Option<Row> {
        let r = self.rows.next()?;
        let values = r.values.iter().map(|&bits| f64::from_bits(bits));
        Some(Row {
            node: r.node,
            time_ms: self.time_ms,
            readings: Readings {
                values: AttrMap::from_sorted(r.attrs, values),
            },
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

/// A finalized aggregate value for one `(op, attr)` pair at one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct AggValue {
    /// The aggregation operator.
    pub op: AggOp,
    /// The aggregated attribute.
    pub attr: Attribute,
    /// The finalized value.
    pub value: f64,
}

/// A query's answer for one epoch: rows for acquisition queries, aggregate
/// values for aggregation queries.
#[derive(Debug, Clone, PartialEq)]
pub enum EpochAnswer {
    /// Acquisition answer: the qualifying rows.
    Rows(RowSet),
    /// Aggregation answer: one value per requested aggregate.
    Aggregates(Vec<AggValue>),
}

impl EpochAnswer {
    /// Number of rows / aggregate values.
    pub fn len(&self) -> usize {
        match self {
            EpochAnswer::Rows(r) => r.len(),
            EpochAnswer::Aggregates(a) => a.len(),
        }
    }

    /// Whether the answer is empty (no node qualified this epoch).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Computes finalized aggregates over rows read in place
/// ([`RowSet::refs`], possibly filtered), walked once per aggregate.
///
/// Rows lacking the aggregated attribute are skipped; an empty input yields an
/// empty output (TinyDB emits no aggregate row for an empty epoch).
pub fn aggregate_rows<'a, I>(rows: I, aggs: &[(AggOp, Attribute)]) -> Vec<AggValue>
where
    I: IntoIterator<Item = RowRef<'a>>,
    I::IntoIter: Clone,
{
    let rows = rows.into_iter();
    aggs.iter()
        .filter_map(|&(op, attr)| {
            let mut acc: Option<PartialAgg> = None;
            for v in rows.clone().filter_map(|r| r.get(attr)) {
                match &mut acc {
                    Some(p) => p
                        .merge(&op.seed(v))
                        .expect("seeded partials share the operator"),
                    None => acc = Some(op.seed(v)),
                }
            }
            acc.map(|p| AggValue {
                op,
                attr,
                value: p.finalize(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(node: u16, light: f64, temp: f64) -> Row {
        Row {
            node,
            time_ms: 0,
            readings: [(Attribute::Light, light), (Attribute::Temp, temp)]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn readings_set_get_project() {
        let mut r = Readings::new();
        assert!(r.is_empty());
        assert_eq!(r.set(Attribute::Light, 1.0), None);
        assert_eq!(r.set(Attribute::Light, 2.0), Some(1.0));
        r.set(Attribute::Temp, 3.0);
        assert_eq!(r.len(), 2);
        let p = r.project([Attribute::Temp]);
        assert_eq!(p.get(Attribute::Temp), Some(3.0));
        assert_eq!(p.get(Attribute::Light), None);
    }

    #[test]
    fn readings_display() {
        let mut r = Readings::new();
        r.set(Attribute::Light, 5.0);
        assert_eq!(r.to_string(), "{light=5}");
    }

    #[test]
    fn aggregate_rows_computes_all_ops() {
        let rows = RowSet::new(0, [row(1, 10.0, 1.0), row(2, 30.0, 2.0), row(3, 20.0, 6.0)]);
        let aggs = [
            (AggOp::Min, Attribute::Light),
            (AggOp::Max, Attribute::Light),
            (AggOp::Sum, Attribute::Light),
            (AggOp::Count, Attribute::Light),
            (AggOp::Avg, Attribute::Temp),
        ];
        let vals = aggregate_rows(rows.refs(), &aggs);
        assert_eq!(vals.len(), 5);
        assert_eq!(vals[0].value, 10.0);
        assert_eq!(vals[1].value, 30.0);
        assert_eq!(vals[2].value, 60.0);
        assert_eq!(vals[3].value, 3.0);
        assert_eq!(vals[4].value, 3.0);
    }

    #[test]
    fn aggregate_rows_empty_input_is_empty_output() {
        let vals = aggregate_rows(RowSet::new(0, []).refs(), &[(AggOp::Max, Attribute::Light)]);
        assert!(vals.is_empty());
    }

    #[test]
    fn aggregate_rows_skips_missing_attribute() {
        let mut r = Readings::new();
        r.set(Attribute::Temp, 7.0);
        let rows = RowSet::new(
            0,
            [Row {
                node: 1,
                time_ms: 0,
                readings: r,
            }],
        );
        let vals = aggregate_rows(rows.refs(), &[(AggOp::Max, Attribute::Light)]);
        assert!(vals.is_empty());
    }

    #[test]
    fn epoch_answer_len() {
        let a = EpochAnswer::Rows(RowSet::new(0, [row(1, 1.0, 1.0)]));
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        let b = EpochAnswer::Aggregates(vec![]);
        assert!(b.is_empty());
    }

    #[test]
    fn row_set_values_walk_the_rows_in_order() {
        let set = RowSet::new(0, [row(1, 10.0, 1.0), row(2, 30.0, 2.0)]);
        let flat: Vec<_> = set
            .iter()
            .flat_map(|r| r.readings.iter().collect::<Vec<_>>())
            .collect();
        assert!(set.values().eq(flat));
        assert_eq!(
            format!("{set:?}"),
            format!("{:?}", set.iter().collect::<Vec<_>>())
        );
    }

    #[test]
    #[should_panic(expected = "a row set holds one epoch")]
    fn a_row_of_another_epoch_is_refused() {
        let mut late = row(2, 1.0, 1.0);
        late.time_ms = 2048;
        RowSet::new(0, [row(1, 1.0, 1.0), late]);
    }
}
