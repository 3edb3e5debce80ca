//! Range predicates and conjunctive predicate sets.
//!
//! The paper stores predicates as `⟨attribute, min, max⟩` triples; a query's
//! `WHERE` clause is the conjunction of its triples. A [`PredicateSet`] is the
//! normalized form: at most one closed range per attribute, with unconstrained
//! attributes simply absent.
//!
//! The set algebra here is what the base-station rewriter builds on:
//! [`PredicateSet::covers`] decides whether one query's qualifying rows are a
//! superset of another's, and [`PredicateSet::union_cover`] computes the
//! tightest conjunctive box whose rows cover the union of two boxes (widening
//! shared ranges and *dropping* attributes constrained on only one side —
//! keeping such a constraint would wrongly exclude the other query's rows).

use crate::attr::{AttrMap, Attribute};
use std::fmt;

/// A closed range predicate `min <= attr <= max` on one attribute.
///
/// # Examples
///
/// ```
/// use ttmqo_query::{Attribute, Predicate};
///
/// let p = Predicate::new(Attribute::Light, 280.0, 600.0).unwrap();
/// assert!(p.matches(300.0));
/// assert!(!p.matches(601.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    attr: Attribute,
    min: f64,
    max: f64,
}

/// Error constructing a predicate whose bounds are invalid.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidPredicateError {
    attr: Attribute,
    min: f64,
    max: f64,
}

impl fmt::Display for InvalidPredicateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid predicate range [{}, {}] on `{}`",
            self.min, self.max, self.attr
        )
    }
}

impl std::error::Error for InvalidPredicateError {}

impl Predicate {
    /// Creates a predicate, clamping the range to the attribute's domain.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPredicateError`] if `min > max`, either bound is not
    /// finite, or the range does not intersect the attribute domain.
    pub fn new(attr: Attribute, min: f64, max: f64) -> Result<Self, InvalidPredicateError> {
        if !(min.is_finite() && max.is_finite()) || min > max {
            return Err(InvalidPredicateError { attr, min, max });
        }
        let (lo, hi) = attr.domain();
        let cmin = min.max(lo);
        let cmax = max.min(hi);
        if cmin > cmax {
            return Err(InvalidPredicateError { attr, min, max });
        }
        Ok(Predicate {
            attr,
            min: cmin,
            max: cmax,
        })
    }

    /// The full-domain (always-true) predicate for `attr`.
    pub fn full(attr: Attribute) -> Self {
        let (lo, hi) = attr.domain();
        Predicate {
            attr,
            min: lo,
            max: hi,
        }
    }

    /// The constrained attribute.
    pub fn attr(&self) -> Attribute {
        self.attr
    }

    /// Lower bound (inclusive).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound (inclusive).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Whether a reading satisfies this predicate.
    pub fn matches(&self, value: f64) -> bool {
        value >= self.min && value <= self.max
    }

    /// Whether this predicate's qualifying values are a superset of `other`'s.
    ///
    /// Only meaningful when both constrain the same attribute.
    pub fn contains(&self, other: &Predicate) -> bool {
        self.attr == other.attr && self.min <= other.min && self.max >= other.max
    }

    /// Fraction of the attribute domain this range covers, assuming a uniform
    /// distribution (the estimator the paper's experiments use).
    pub fn uniform_selectivity(&self) -> f64 {
        let width = self.attr.domain_width();
        if width == 0.0 {
            1.0
        } else {
            ((self.max - self.min) / width).clamp(0.0, 1.0)
        }
    }

    /// Whether this predicate spans the attribute's whole domain.
    pub fn is_full(&self) -> bool {
        let (lo, hi) = self.attr.domain();
        self.min <= lo && self.max >= hi
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <= {} <= {}", self.min, self.attr, self.max)
    }
}

/// A normalized conjunction of range predicates: at most one range per
/// attribute; absent attributes are unconstrained.
///
/// # Examples
///
/// ```
/// use ttmqo_query::{Attribute, Predicate, PredicateSet};
///
/// let mut ps = PredicateSet::new();
/// ps.and(Predicate::new(Attribute::Light, 100.0, 300.0).unwrap());
/// ps.and(Predicate::new(Attribute::Light, 200.0, 500.0).unwrap());
/// // Conjunction on the same attribute intersects the ranges.
/// let r = ps.range(Attribute::Light).unwrap();
/// assert_eq!((r.min(), r.max()), (200.0, 300.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PredicateSet {
    ranges: AttrMap<(f64, f64)>,
}

impl PredicateSet {
    /// The empty (always-true) predicate set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from a list of predicates, intersecting duplicates.
    pub fn from_predicates<I: IntoIterator<Item = Predicate>>(preds: I) -> Self {
        let mut set = Self::new();
        for p in preds {
            set.and(p);
        }
        set
    }

    /// Conjoins one more predicate (intersecting with any existing range on
    /// the same attribute). The resulting range may be empty, in which case
    /// the set is unsatisfiable ([`is_unsatisfiable`](Self::is_unsatisfiable)).
    pub fn and(&mut self, p: Predicate) {
        let (min, max) = self
            .ranges
            .get(p.attr())
            .unwrap_or_else(|| p.attr().domain());
        self.ranges
            .insert(p.attr(), (min.max(p.min()), max.min(p.max())));
    }

    /// The range constraining `attr`, if any. Full-domain ranges are reported
    /// too if they were explicitly added.
    pub fn range(&self, attr: Attribute) -> Option<Predicate> {
        self.ranges
            .get(attr)
            .and_then(|(min, max)| Predicate::new(attr, min, max).ok())
    }

    /// The effective range of `attr`: the stored range, or the full domain.
    pub fn effective_range(&self, attr: Attribute) -> Predicate {
        self.range(attr).unwrap_or_else(|| Predicate::full(attr))
    }

    /// Attributes explicitly constrained by this set.
    pub fn attrs(&self) -> impl Iterator<Item = Attribute> + '_ {
        self.ranges.keys().iter()
    }

    /// Iterates the normalized predicates.
    pub fn iter(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.ranges
            .iter()
            .map(|(attr, (min, max))| Predicate { attr, min, max })
    }

    /// Number of constrained attributes.
    pub fn len(&self) -> usize {
        self.ranges.keys().len()
    }

    /// Whether no attribute is constrained (the set accepts every row).
    pub fn is_empty(&self) -> bool {
        self.ranges.keys().is_empty()
    }

    /// Whether some range became empty (`min > max`) so no row can qualify.
    pub fn is_unsatisfiable(&self) -> bool {
        self.ranges.iter().any(|(_, (min, max))| min > max)
    }

    /// Whether a full row of readings satisfies every predicate.
    ///
    /// `lookup` maps an attribute to the reading's value for it.
    pub fn matches_with<F: Fn(Attribute) -> f64>(&self, lookup: F) -> bool {
        self.ranges.iter().all(|(attr, (min, max))| {
            let v = lookup(attr);
            v >= min && v <= max
        })
    }

    /// Whether the rows qualifying under `self` are a superset of those
    /// qualifying under `other`.
    ///
    /// For conjunctive boxes this holds iff every attribute `self` constrains
    /// is also constrained by `other` to a sub-range.
    pub fn covers(&self, other: &PredicateSet) -> bool {
        self.ranges.iter().all(|(attr, (min, max))| {
            match other.ranges.get(attr) {
                Some((omin, omax)) => min <= omin && max >= omax,
                // `other` leaves attr unconstrained; we only cover it if our
                // range is the whole domain.
                None => Predicate { attr, min, max }.is_full(),
            }
        })
    }

    /// Whether the two sets qualify exactly the same rows.
    pub fn equivalent(&self, other: &PredicateSet) -> bool {
        self.covers(other) && other.covers(self)
    }

    /// The tightest conjunctive box whose qualifying rows include every row
    /// qualifying under `self` *or* `other`.
    ///
    /// Attributes constrained by both sets get the widened range; attributes
    /// constrained by only one side must be dropped (otherwise rows from the
    /// unconstrained side would be excluded).
    pub fn union_cover(&self, other: &PredicateSet) -> PredicateSet {
        let mut ranges = AttrMap::default();
        for (attr, (min, max)) in self.ranges.iter() {
            if let Some((omin, omax)) = other.ranges.get(attr) {
                ranges.insert(attr, (min.min(omin), max.max(omax)));
            }
        }
        PredicateSet { ranges }.normalize()
    }

    /// Uniform-distribution selectivity: product of per-attribute range
    /// fractions (attribute independence, as the paper assumes).
    pub fn uniform_selectivity(&self) -> f64 {
        self.iter().map(|p| p.uniform_selectivity()).product()
    }

    /// Returns a copy with explicit full-domain ranges removed (they do not
    /// filter anything).
    pub fn normalize(&self) -> Self {
        let mut set = self.clone();
        set.ranges.restrict(
            self.iter()
                .filter(|p| !p.is_full())
                .map(|p| p.attr())
                .collect(),
        );
        set
    }
}

impl FromIterator<Predicate> for PredicateSet {
    fn from_iter<I: IntoIterator<Item = Predicate>>(iter: I) -> Self {
        Self::from_predicates(iter)
    }
}

impl Extend<Predicate> for PredicateSet {
    fn extend<I: IntoIterator<Item = Predicate>>(&mut self, iter: I) {
        for p in iter {
            self.and(p);
        }
    }
}

impl fmt::Display for PredicateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("true");
        }
        let mut first = true;
        for p in self.iter() {
            if !first {
                f.write_str(" and ")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light(min: f64, max: f64) -> Predicate {
        Predicate::new(Attribute::Light, min, max).unwrap()
    }

    #[test]
    fn new_clamps_to_domain() {
        let p = light(-50.0, 2000.0);
        assert_eq!((p.min(), p.max()), (0.0, 1000.0));
        assert!(p.is_full());
    }

    #[test]
    fn new_rejects_inverted_and_nonfinite() {
        assert!(Predicate::new(Attribute::Light, 5.0, 1.0).is_err());
        assert!(Predicate::new(Attribute::Light, f64::NAN, 1.0).is_err());
        assert!(Predicate::new(Attribute::Light, 0.0, f64::INFINITY).is_err());
        // Entirely outside the domain.
        assert!(Predicate::new(Attribute::Light, 2000.0, 3000.0).is_err());
    }

    #[test]
    fn matches_is_inclusive() {
        let p = light(100.0, 300.0);
        assert!(p.matches(100.0));
        assert!(p.matches(300.0));
        assert!(!p.matches(99.9));
        assert!(!p.matches(300.1));
    }

    #[test]
    fn contains_requires_same_attr() {
        let p = light(100.0, 300.0);
        let q = Predicate::new(Attribute::Temp, 150.0, 200.0).unwrap();
        assert!(!p.contains(&q));
        assert!(p.contains(&light(150.0, 200.0)));
        assert!(!p.contains(&light(50.0, 200.0)));
    }

    #[test]
    fn uniform_selectivity_is_range_fraction() {
        assert!((light(0.0, 500.0).uniform_selectivity() - 0.5).abs() < 1e-12);
        assert_eq!(Predicate::full(Attribute::Light).uniform_selectivity(), 1.0);
    }

    #[test]
    fn set_conjunction_intersects_same_attribute() {
        let mut ps = PredicateSet::new();
        ps.and(light(100.0, 300.0));
        ps.and(light(200.0, 500.0));
        let r = ps.range(Attribute::Light).unwrap();
        assert_eq!((r.min(), r.max()), (200.0, 300.0));
        assert!(!ps.is_unsatisfiable());
    }

    #[test]
    fn disjoint_conjunction_is_unsatisfiable() {
        let mut ps = PredicateSet::new();
        ps.and(light(100.0, 200.0));
        ps.and(light(300.0, 400.0));
        assert!(ps.is_unsatisfiable());
    }

    #[test]
    fn empty_set_matches_everything_and_covers_all() {
        let empty = PredicateSet::new();
        assert!(empty.matches_with(|_| 12345.0));
        let mut narrow = PredicateSet::new();
        narrow.and(light(1.0, 2.0));
        assert!(empty.covers(&narrow));
        assert!(!narrow.covers(&empty));
        assert_eq!(empty.uniform_selectivity(), 1.0);
    }

    #[test]
    fn covers_handles_unconstrained_attributes() {
        let mut a = PredicateSet::new();
        a.and(light(0.0, 1000.0)); // full domain, explicitly
        let b = PredicateSet::new();
        assert!(
            a.covers(&b),
            "full-domain explicit range covers unconstrained"
        );
    }

    #[test]
    fn union_cover_widens_shared_and_drops_one_sided() {
        let mut a = PredicateSet::new();
        a.and(light(280.0, 600.0));
        a.and(Predicate::new(Attribute::Temp, 0.0, 100.0).unwrap());
        let mut b = PredicateSet::new();
        b.and(light(100.0, 300.0));

        let u = a.union_cover(&b);
        let r = u.range(Attribute::Light).unwrap();
        assert_eq!((r.min(), r.max()), (100.0, 600.0));
        // Temp constrained only by `a`, so it must be dropped.
        assert!(u.range(Attribute::Temp).is_none());
        assert!(u.covers(&a));
        assert!(u.covers(&b));
    }

    #[test]
    fn union_cover_with_empty_is_empty() {
        let mut a = PredicateSet::new();
        a.and(light(280.0, 600.0));
        let u = a.union_cover(&PredicateSet::new());
        assert!(u.is_empty());
        assert!(u.covers(&a));
    }

    #[test]
    fn matches_with_checks_all_attrs() {
        let mut ps = PredicateSet::new();
        ps.and(light(100.0, 300.0));
        ps.and(Predicate::new(Attribute::Temp, 0.0, 50.0).unwrap());
        let vals = |attr: Attribute| match attr {
            Attribute::Light => 150.0,
            Attribute::Temp => 25.0,
            _ => 0.0,
        };
        assert!(ps.matches_with(vals));
        let bad = |attr: Attribute| match attr {
            Attribute::Light => 150.0,
            Attribute::Temp => 99.0,
            _ => 0.0,
        };
        assert!(!ps.matches_with(bad));
    }

    #[test]
    fn display_forms() {
        assert_eq!(PredicateSet::new().to_string(), "true");
        let mut ps = PredicateSet::new();
        ps.and(light(1.0, 2.0));
        assert_eq!(ps.to_string(), "1 <= light <= 2");
    }

    #[test]
    fn equivalent_ignores_explicit_full_ranges() {
        let mut a = PredicateSet::new();
        a.and(Predicate::full(Attribute::Light));
        let b = PredicateSet::new();
        assert!(a.equivalent(&b));
    }
}
