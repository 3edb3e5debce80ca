//! Result-side data types: readings, rows and per-epoch answers.

use crate::agg::{AggOp, PartialAgg};
use crate::attr::{AttrMap, AttrSet, Attribute};
use std::borrow::Borrow;
use std::cell::Cell;
use std::sync::Arc;
use std::{fmt, iter, mem};

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
// An answer is a view: its rows live in a block it shares.
const _: () = assert!(std::mem::size_of::<RowSet>() <= 40);
const _: () = assert!(std::mem::size_of::<EpochAnswer>() <= 40);
// Every posed query, workload event and flooded copy carries one.
const _: () = assert!(std::mem::size_of::<crate::Query>() == 136);

/// An acquisition answer: one epoch's rows, as a view of a shared block.
///
/// The block holds how many rows it stores; per row the node id and the
/// row's attribute bitmap, and one value per attribute present — except a
/// `nodeid` value whose bits are the node id's own, which the row head marks
/// as implied instead; then one row mask for each view that shows only some
/// of its rows. A view states the epoch's time once and shows the stored
/// rows its mask marks (all of them without one), each projected onto the
/// view's attributes. One
/// [`select_all`](Self::select_all) answers many selections from one block,
/// so the answers a synthetic query's epoch answer is mapped to share one
/// allocation; a set with no rows holds none. A block is assembled in a
/// per-thread buffer that is reused, then copied once into an allocation of
/// exactly its length. [`iter`](Self::iter) yields the rows a set was built
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
    /// How many rows the view shows.
    len: u32,
    /// Where the view's row mask starts in `words`, or [`ALL_ROWS`].
    mask: u32,
    /// The attributes the view shows of each row.
    shown: AttrSet,
    /// The block: the stored row count; the row heads two to a word (node
    /// id in bits 0–15, attribute bitmap in bits 16–23 and [`IMPLIED`] in
    /// bit 24 of each half); every stored value's bits, row by row; the row
    /// masks, one bit per stored row.
    /// Empty, which allocates nothing, when the view shows no row.
    words: Arc<[u64]>,
}

/// The mask offset of a view that shows every row its block stores.
const ALL_ROWS: u32 = u32::MAX;

/// The row-head bit that marks a row's `nodeid` value as implied: its bits
/// are `f64::from(node)`'s, and the block does not store them.
const IMPLIED: u32 = 1 << 24;

/// Every attribute but `NodeId`: what a row with an implied `nodeid` stores.
const NOT_NODE_ID: AttrSet = AttrSet::from_bits(!(1 << Attribute::NodeId as u8));

/// Every attribute: what a set built by [`RowSet::new`] shows.
const EVERY: AttrSet = AttrSet::from_bits((1 << Attribute::ALL.len()) - 1);

thread_local! {
    /// Where a block's head words and value words are assembled before one
    /// copy into an allocation of exactly the final length. Kept between
    /// builds, so that once warm, assembling allocates nothing.
    static STAGING: Cell<(Vec<u64>, Vec<u64>)> = const { Cell::new((Vec::new(), Vec::new())) };
    /// What [`RowSet::select_all`] works out before it builds, kept between
    /// calls like [`STAGING`].
    static MARKS: Cell<Marks> = const { Cell::new(Marks::new()) };
}

/// [`RowSet::select_all`]'s scratch.
#[derive(Default)]
struct Marks {
    /// One bit per source row: whether some selection keeps it; then, in as
    /// many words each, the rows each selection keeps.
    bits: Vec<u64>,
    /// Per source row, the attributes of it that its keepers want.
    wants: Vec<AttrSet>,
    /// The row masks of the views that show some stored rows but not all.
    masks: Vec<u64>,
    /// Per selection, its view: the attributes it shows, how many rows, and
    /// where its mask starts.
    views: Vec<(AttrSet, u32, u32)>,
}

impl Marks {
    const fn new() -> Marks {
        Marks {
            bits: Vec::new(),
            wants: Vec::new(),
            masks: Vec::new(),
            views: Vec::new(),
        }
    }
}

/// Whether bit `i` of the bit array `words` is set.
#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

impl RowSet {
    /// The set of `rows`, all of the epoch at `time_ms`, in the order given.
    ///
    /// # Panics
    ///
    /// If a row's `time_ms` is not `time_ms`.
    pub fn new(time_ms: u64, rows: impl IntoIterator<Item = Row>) -> RowSet {
        let rows = rows.into_iter().map(|row| {
            assert_eq!(row.time_ms, time_ms, "a row set holds one epoch");
            let values = row.readings.values;
            let bits = values.into_values().map(f64::to_bits);
            (row.node, values.keys(), bits)
        });
        let (len, words) = RowSet::build(rows, &[]);
        RowSet {
            time_ms,
            len,
            mask: ALL_ROWS,
            shown: EVERY,
            words,
        }
    }

    /// The rows `keep` accepts, each projected onto `attrs`, as a set of the
    /// epoch at `time_ms`; `keep` reads each row in place, once.
    pub fn select(
        &self,
        time_ms: u64,
        attrs: AttrSet,
        keep: impl Fn(RowRef<'_>) -> bool,
    ) -> RowSet {
        let mut views = self.select_all(time_ms, [(attrs, keep)]);
        views.next().expect("one set per selection")
    }

    /// One set per `(attrs, keep)` selection, in order: what
    /// [`select`](Self::select) would return for each. Each `keep` reads
    /// each row in place, once. The sets are views of one block, which
    /// stores only the rows some selection keeps, each projected onto the
    /// attributes its keepers want: it holds no more values than the
    /// selections' own copies would, and the whole call allocates at most
    /// once.
    pub fn select_all<K>(
        &self,
        time_ms: u64,
        selections: impl IntoIterator<Item = (AttrSet, K)>,
    ) -> impl Iterator<Item = RowSet>
    where
        K: Fn(RowRef<'_>) -> bool,
    {
        let rows = self.len();
        let width = rows.div_ceil(64);
        let mut marks = MARKS.take();
        let Marks {
            bits,
            wants,
            masks,
            views,
        } = &mut marks;
        bits.clear();
        bits.resize(width, 0);
        wants.clear();
        wants.resize(rows, AttrSet::new());
        views.clear();
        for (attrs, keep) in selections {
            let at = bits.len();
            bits.resize(at + width, 0);
            let mut kept = 0;
            for (i, r) in self.rows().enumerate().filter(|&(_, r)| keep(r)) {
                bits[i / 64] |= 1 << (i % 64);
                bits[at + i / 64] |= 1 << (i % 64);
                wants[i] = wants[i].union(r.attrs.intersection(attrs));
                kept += 1;
            }
            views.push((attrs, kept, ALL_ROWS));
        }
        let (any, each) = bits.split_at(width);
        let stored = any.iter().map(|w| w.count_ones()).sum::<u32>();
        // A view of some stored rows but not all gets a mask; its slot holds
        // the mask's index until the block is built.
        let mask_width = (stored as usize).div_ceil(64);
        let mut masked = 0;
        for (_, kept, mask) in views.iter_mut() {
            if *kept != 0 && *kept != stored {
                *mask = masked;
                masked += 1;
            }
        }
        masks.clear();
        masks.resize(masked as usize * mask_width, 0);
        // Stored row `j` is the `j`-th source row some selection keeps.
        for (j, i) in (0..rows).filter(|&i| bit(any, i)).enumerate() {
            for (&(_, _, mask), chosen) in views.iter().zip(each.chunks_exact(width)) {
                if mask != ALL_ROWS && bit(chosen, i) {
                    masks[mask as usize * mask_width + j / 64] |= 1 << (j % 64);
                }
            }
        }
        let source = self.rows().enumerate().filter(|&(i, _)| bit(any, i));
        let (_, words) = RowSet::build(
            source.map(|(i, r)| (r.node, wants[i], r.bits_of(wants[i]))),
            masks,
        );
        let base = words.len() - masks.len();
        for (_, _, mask) in views.iter_mut().filter(|v| v.2 != ALL_ROWS) {
            let at = base + *mask as usize * mask_width;
            *mask = u32::try_from(at).expect("a block holds at most u32::MAX words");
        }
        Views {
            time_ms,
            words,
            marks,
            next: 0,
        }
    }

    /// Stores `rows` — each a node id, an attribute bitmap and the value
    /// bits in the bitmap's order — followed by `masks`, as one block;
    /// returns how many rows it stores, and the block. A `nodeid` value
    /// equal, bit for bit, to the node id is marked implied, not stored.
    fn build<V: Iterator<Item = u64>>(
        rows: impl Iterator<Item = (u16, AttrSet, V)>,
        masks: &[u64],
    ) -> (u32, Arc<[u64]>) {
        // Taken, not borrowed: a `rows` that builds a set of its own finds
        // the staging empty rather than in use.
        let (mut heads, mut values) = STAGING.take();
        heads.clear();
        values.clear();
        let mut len = 0;
        for (node, attrs, mut bits) in rows {
            let mut head = u32::from(node) | u32::from(attrs.bits()) << 16;
            // `NodeId` sorts first, so its value leads the row's.
            if attrs.contains(Attribute::NodeId) {
                match bits.next().expect("a value per attribute") {
                    id if id == f64::from(node).to_bits() => head |= IMPLIED,
                    id => values.push(id),
                }
            }
            let head = u64::from(head);
            match heads.last_mut() {
                Some(word) if len % 2 == 1 => *word |= head << 32,
                _ => heads.push(head),
            }
            values.extend(bits);
            len += 1;
        }
        let len = u32::try_from(len).expect("a row set holds at most u32::MAX rows");
        let words = match len {
            0 => Arc::default(),
            // A chain of slices has an exact length: one allocation.
            _ => iter::once(u64::from(len))
                .chain(heads.iter().copied())
                .chain(values.iter().copied())
                .chain(masks.iter().copied())
                .collect(),
        };
        STAGING.set((heads, values));
        (len, words)
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
        self.rows()
            .flat_map(|r| r.attrs.iter().zip(r.bits_of(r.attrs).map(f64::from_bits)))
    }

    /// The rows read in place, without unpacking their readings.
    #[inline]
    pub fn refs(&self) -> impl Iterator<Item = RowRef<'_>> + Clone {
        self.rows()
    }

    /// The rows the view shows, read from the block.
    #[inline]
    fn rows(&self) -> Packed<'_> {
        let (stored, body) = match self.words.split_first() {
            Some((&n, body)) => (n as usize, body),
            None => (0, &[][..]),
        };
        let (heads, values) = body.split_at(stored.div_ceil(2));
        let mask = (self.mask != ALL_ROWS)
            .then(|| &self.words[self.mask as usize..][..stored.div_ceil(64)]);
        Packed {
            heads,
            values,
            mask,
            shown: self.shown,
            next: 0,
            left: self.len(),
        }
    }
}

/// The sets [`RowSet::select_all`] returns: views of one block.
struct Views {
    time_ms: u64,
    words: Arc<[u64]>,
    /// The scratch the views were worked out in, handed back when done.
    marks: Marks,
    next: usize,
}

impl Iterator for Views {
    type Item = RowSet;

    fn next(&mut self) -> Option<RowSet> {
        let &(shown, len, mask) = self.marks.views.get(self.next)?;
        self.next += 1;
        Some(RowSet {
            time_ms: self.time_ms,
            len,
            mask,
            shown,
            words: match len {
                0 => Arc::default(),
                _ => Arc::clone(&self.words),
            },
        })
    }
}

impl Drop for Views {
    fn drop(&mut self) {
        MARKS.set(mem::take(&mut self.marks));
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
    /// The attributes the row shows.
    attrs: AttrSet,
    /// The attributes whose values the block stores, in the order of
    /// `values`: the row's bitmap, less `NodeId` when its value is implied.
    stored: AttrSet,
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
        let value = || {
            if self.stored.contains(attr) {
                f64::from_bits(self.values[self.stored.rank(attr)])
            } else {
                // Only an implied `nodeid` is shown but not stored.
                f64::from(self.node)
            }
        };
        self.attrs.contains(attr).then(value)
    }

    /// The bits of the row's values for the members of `kept` it shows, in
    /// order.
    #[inline]
    fn bits_of(self, kept: AttrSet) -> impl Iterator<Item = u64> + 'a {
        let kept = kept.intersection(self.attrs);
        let implied = kept.contains(Attribute::NodeId) && !self.stored.contains(Attribute::NodeId);
        let implied = implied.then(|| f64::from(self.node).to_bits());
        // Walk the stored bitmap lowest bit first, alongside its values.
        let mut carried = self.stored.bits();
        implied
            .into_iter()
            .chain(self.values.iter().copied().filter(move |_| {
                let lowest = carried & carried.wrapping_neg();
                carried ^= lowest;
                kept.bits() & lowest != 0
            }))
    }
}

/// The rows a [`RowSet`] shows, read from its block.
#[derive(Debug, Clone)]
struct Packed<'a> {
    heads: &'a [u64],
    /// The values of the stored rows not yet read.
    values: &'a [u64],
    /// Which stored rows the view shows; all without a mask.
    mask: Option<&'a [u64]>,
    shown: AttrSet,
    /// The next stored row.
    next: usize,
    /// How many rows are still to be yielded.
    left: usize,
}

impl<'a> Iterator for Packed<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        while self.left > 0 {
            let i = self.next;
            self.next += 1;
            let half = (self.heads[i / 2] >> (i % 2 * 32)) as u32;
            let row = AttrSet::from_bits((half >> 16) as u8);
            let stored = match half & IMPLIED {
                0 => row,
                _ => row.intersection(NOT_NODE_ID),
            };
            let (values, rest) = self.values.split_at(stored.len());
            self.values = rest;
            if self.mask.is_none_or(|mask| bit(mask, i)) {
                self.left -= 1;
                return Some(RowRef {
                    node: half as u16,
                    attrs: row.intersection(self.shown),
                    stored,
                    values,
                });
            }
        }
        None
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
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
        let values = r.bits_of(r.attrs).map(f64::from_bits);
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
