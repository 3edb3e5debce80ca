//! Result-side data types: readings, rows and per-epoch answers.

use crate::agg::{AggOp, PartialAgg};
use crate::attr::{AttrMap, Attribute};
use std::borrow::Borrow;
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
    Rows(Vec<Row>),
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

/// Computes finalized aggregates over a set of rows.
///
/// Rows lacking the aggregated attribute are skipped; an empty input yields an
/// empty output (TinyDB emits no aggregate row for an empty epoch).
pub fn aggregate_rows(rows: &[Row], aggs: &[(AggOp, Attribute)]) -> Vec<AggValue> {
    aggs.iter()
        .filter_map(|&(op, attr)| {
            let mut acc: Option<PartialAgg> = None;
            for row in rows {
                if let Some(v) = row.readings.get(attr) {
                    match &mut acc {
                        Some(p) => p
                            .merge(&op.seed(v))
                            .expect("seeded partials share the operator"),
                        None => acc = Some(op.seed(v)),
                    }
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
        let rows = vec![row(1, 10.0, 1.0), row(2, 30.0, 2.0), row(3, 20.0, 6.0)];
        let aggs = [
            (AggOp::Min, Attribute::Light),
            (AggOp::Max, Attribute::Light),
            (AggOp::Sum, Attribute::Light),
            (AggOp::Count, Attribute::Light),
            (AggOp::Avg, Attribute::Temp),
        ];
        let vals = aggregate_rows(&rows, &aggs);
        assert_eq!(vals.len(), 5);
        assert_eq!(vals[0].value, 10.0);
        assert_eq!(vals[1].value, 30.0);
        assert_eq!(vals[2].value, 60.0);
        assert_eq!(vals[3].value, 3.0);
        assert_eq!(vals[4].value, 3.0);
    }

    #[test]
    fn aggregate_rows_empty_input_is_empty_output() {
        let vals = aggregate_rows(&[], &[(AggOp::Max, Attribute::Light)]);
        assert!(vals.is_empty());
    }

    #[test]
    fn aggregate_rows_skips_missing_attribute() {
        let mut r = Readings::new();
        r.set(Attribute::Temp, 7.0);
        let rows = vec![Row {
            node: 1,
            time_ms: 0,
            readings: r,
        }];
        let vals = aggregate_rows(&rows, &[(AggOp::Max, Attribute::Light)]);
        assert!(vals.is_empty());
    }

    #[test]
    fn epoch_answer_len() {
        let a = EpochAnswer::Rows(vec![row(1, 1.0, 1.0)]);
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        let b = EpochAnswer::Aggregates(vec![]);
        assert!(b.is_empty());
    }
}
