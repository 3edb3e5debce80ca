//! Aggregation operators and decomposable partial aggregates.
//!
//! TinyDB computes aggregates in-network by combining *partial state records*
//! as messages flow up the routing tree (the TAG scheme). Every operator here
//! is decomposable: `merge(partial(a), partial(b)) == partial(a ∪ b)`, which
//! is exactly the property both the baseline and the TTMQO in-network tier
//! rely on.

use std::fmt;
use std::str::FromStr;

/// An aggregation operator over a single attribute.
///
/// # Examples
///
/// ```
/// use ttmqo_query::AggOp;
///
/// let op: AggOp = "max".parse().unwrap();
/// assert_eq!(op, AggOp::Max);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AggOp {
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Sum of values.
    Sum,
    /// Number of qualifying readings.
    Count,
    /// Arithmetic mean (carried as sum + count partials).
    Avg,
}

impl AggOp {
    /// All operators, in canonical order.
    pub const ALL: [AggOp; 5] = [AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::Count, AggOp::Avg];

    /// The lowercase keyword used by the parser and `Display`.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Sum => "sum",
            AggOp::Count => "count",
            AggOp::Avg => "avg",
        }
    }

    /// Fresh partial state for this operator containing a single reading.
    pub fn seed(self, value: f64) -> PartialAgg {
        match self {
            AggOp::Min => PartialAgg::Min(value),
            AggOp::Max => PartialAgg::Max(value),
            AggOp::Sum => PartialAgg::Sum(value),
            AggOp::Count => PartialAgg::Count(1),
            AggOp::Avg => PartialAgg::Avg {
                sum: value,
                count: 1,
            },
        }
    }

    /// Size, in bytes, a partial state record of this operator occupies in a
    /// radio message (`Avg` carries sum and count).
    pub fn wire_size(self) -> usize {
        match self {
            AggOp::Avg => 4,
            _ => 2,
        }
    }
}

impl fmt::Display for AggOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown aggregation operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAggOpError {
    name: String,
}

impl ParseAggOpError {
    /// The offending operator name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for ParseAggOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown aggregation operator `{}`", self.name)
    }
}

impl std::error::Error for ParseAggOpError {}

impl FromStr for AggOp {
    type Err = ParseAggOpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        AggOp::ALL
            .iter()
            .copied()
            .find(|o| o.name() == lower)
            .ok_or(ParseAggOpError { name: lower })
    }
}

/// Decomposable partial aggregation state.
///
/// Two partials produced by the same [`AggOp`] can be [`merged`](PartialAgg::merge);
/// [`finalize`](PartialAgg::finalize) turns the state into the user-visible value.
///
/// # Examples
///
/// ```
/// use ttmqo_query::{AggOp, PartialAgg};
///
/// let mut p = AggOp::Avg.seed(10.0);
/// p.merge(&AggOp::Avg.seed(20.0)).unwrap();
/// assert_eq!(p.finalize(), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartialAgg {
    /// Running minimum.
    Min(f64),
    /// Running maximum.
    Max(f64),
    /// Running sum.
    Sum(f64),
    /// Running count.
    Count(u64),
    /// Running sum and count for the mean.
    Avg {
        /// Sum of all readings folded so far.
        sum: f64,
        /// Number of readings folded so far.
        count: u64,
    },
}

/// Error merging two partials produced by different operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePartialError;

impl fmt::Display for MergePartialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("cannot merge partial aggregates of different operators")
    }
}

impl std::error::Error for MergePartialError {}

impl PartialAgg {
    /// The operator that produced this partial.
    pub fn op(&self) -> AggOp {
        match self {
            PartialAgg::Min(_) => AggOp::Min,
            PartialAgg::Max(_) => AggOp::Max,
            PartialAgg::Sum(_) => AggOp::Sum,
            PartialAgg::Count(_) => AggOp::Count,
            PartialAgg::Avg { .. } => AggOp::Avg,
        }
    }

    /// Fold another partial of the same operator into this one.
    ///
    /// # Errors
    ///
    /// Returns [`MergePartialError`] if the operators differ.
    pub fn merge(&mut self, other: &PartialAgg) -> Result<(), MergePartialError> {
        match (self, other) {
            (PartialAgg::Min(a), PartialAgg::Min(b)) => *a = a.min(*b),
            (PartialAgg::Max(a), PartialAgg::Max(b)) => *a = a.max(*b),
            (PartialAgg::Sum(a), PartialAgg::Sum(b)) => *a += *b,
            (PartialAgg::Count(a), PartialAgg::Count(b)) => *a += *b,
            (PartialAgg::Avg { sum: s1, count: c1 }, PartialAgg::Avg { sum: s2, count: c2 }) => {
                *s1 += *s2;
                *c1 += *c2;
            }
            _ => return Err(MergePartialError),
        }
        Ok(())
    }

    /// The user-visible aggregate value.
    ///
    /// An `Avg` over zero readings finalizes to `NaN`; callers suppress empty
    /// aggregates before finalizing, matching TinyDB's behaviour of emitting
    /// no row for an epoch with no qualifying readings.
    pub fn finalize(&self) -> f64 {
        match self {
            PartialAgg::Min(v) | PartialAgg::Max(v) | PartialAgg::Sum(v) => *v,
            PartialAgg::Count(c) => *c as f64,
            PartialAgg::Avg { sum, count } => {
                if *count == 0 {
                    f64::NAN
                } else {
                    sum / *count as f64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_all_ops() {
        for op in AggOp::ALL {
            assert_eq!(op.name().parse::<AggOp>().unwrap(), op);
        }
        assert!("median".parse::<AggOp>().is_err());
    }

    #[test]
    fn seed_then_finalize_is_identity_for_value_ops() {
        for op in [AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::Avg] {
            assert_eq!(op.seed(42.0).finalize(), 42.0, "{op}");
        }
        assert_eq!(AggOp::Count.seed(42.0).finalize(), 1.0);
    }

    #[test]
    fn merge_semantics_per_operator() {
        let mut min = AggOp::Min.seed(5.0);
        min.merge(&AggOp::Min.seed(3.0)).unwrap();
        assert_eq!(min.finalize(), 3.0);

        let mut max = AggOp::Max.seed(5.0);
        max.merge(&AggOp::Max.seed(9.0)).unwrap();
        assert_eq!(max.finalize(), 9.0);

        let mut sum = AggOp::Sum.seed(5.0);
        sum.merge(&AggOp::Sum.seed(9.0)).unwrap();
        assert_eq!(sum.finalize(), 14.0);

        let mut count = AggOp::Count.seed(5.0);
        count.merge(&AggOp::Count.seed(9.0)).unwrap();
        assert_eq!(count.finalize(), 2.0);
    }

    #[test]
    fn merge_mismatched_ops_fails() {
        let mut min = AggOp::Min.seed(1.0);
        let err = min.merge(&AggOp::Max.seed(1.0)).unwrap_err();
        assert_eq!(err, MergePartialError);
    }

    #[test]
    fn merge_is_associative_and_commutative_for_avg() {
        let a = AggOp::Avg.seed(1.0);
        let b = AggOp::Avg.seed(2.0);
        let c = AggOp::Avg.seed(6.0);

        let mut ab_c = a;
        ab_c.merge(&b).unwrap();
        ab_c.merge(&c).unwrap();

        let mut a_bc = b;
        a_bc.merge(&c).unwrap();
        a_bc.merge(&a).unwrap();

        assert_eq!(ab_c.finalize(), 3.0);
        assert_eq!(a_bc.finalize(), 3.0);
    }

    #[test]
    fn op_accessor_matches_seed() {
        for op in AggOp::ALL {
            assert_eq!(op.seed(0.0).op(), op);
        }
    }

    #[test]
    fn empty_avg_is_nan() {
        let avg = PartialAgg::Avg { sum: 0.0, count: 0 };
        assert!(avg.finalize().is_nan());
    }
}
