//! Region clauses — spatial restriction of a query to a rectangle of the
//! deployment (§3.2.2's "region-based queries").
//!
//! A region is evaluated against a node's *physical position* (known to the
//! base station and to the node itself), not against sampled data. Queries
//! without a region clause cover the whole deployment.

use std::fmt;

/// An axis-aligned rectangle of the deployment plane, in feet.
///
/// # Examples
///
/// ```
/// use ttmqo_query::Region;
///
/// let r = Region::new(0.0, 0.0, 60.0, 40.0)?;
/// assert!(r.contains(20.0, 40.0));
/// assert!(!r.contains(61.0, 0.0));
/// # Ok::<(), ttmqo_query::InvalidRegionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    x_min: f64,
    y_min: f64,
    x_max: f64,
    y_max: f64,
}

/// Error constructing a degenerate or non-finite region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidRegionError;

impl fmt::Display for InvalidRegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("region bounds must be finite with min <= max")
    }
}

impl std::error::Error for InvalidRegionError {}

impl Region {
    /// Creates a region from its corner coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRegionError`] if any bound is not finite or a min
    /// exceeds its max.
    pub fn new(x_min: f64, y_min: f64, x_max: f64, y_max: f64) -> Result<Self, InvalidRegionError> {
        if ![x_min, y_min, x_max, y_max].iter().all(|v| v.is_finite())
            || x_min > x_max
            || y_min > y_max
        {
            return Err(InvalidRegionError);
        }
        Ok(Region {
            x_min,
            y_min,
            x_max,
            y_max,
        })
    }

    /// West bound.
    pub fn x_min(&self) -> f64 {
        self.x_min
    }

    /// North bound (the deployment's y grows southward from the base station).
    pub fn y_min(&self) -> f64 {
        self.y_min
    }

    /// East bound.
    pub fn x_max(&self) -> f64 {
        self.x_max
    }

    /// South bound.
    pub fn y_max(&self) -> f64 {
        self.y_max
    }

    /// Whether a position lies inside (bounds inclusive).
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x_min && x <= self.x_max && y >= self.y_min && y <= self.y_max
    }

    /// Whether `self` contains `other` entirely.
    pub fn contains_region(&self, other: &Region) -> bool {
        self.x_min <= other.x_min
            && self.y_min <= other.y_min
            && self.x_max >= other.x_max
            && self.y_max >= other.y_max
    }

    /// The smallest rectangle containing both.
    pub fn union_cover(&self, other: &Region) -> Region {
        Region {
            x_min: self.x_min.min(other.x_min),
            y_min: self.y_min.min(other.y_min),
            x_max: self.x_max.max(other.x_max),
            y_max: self.y_max.max(other.y_max),
        }
    }

    /// Covering union of optional regions: `None` means "everywhere", which
    /// absorbs any rectangle.
    pub fn union_opt(a: Option<Region>, b: Option<Region>) -> Option<Region> {
        match (a, b) {
            (Some(ra), Some(rb)) => Some(ra.union_cover(&rb)),
            _ => None,
        }
    }

    /// Whether optional region `outer` covers optional region `inner`
    /// (`None` = everywhere).
    pub fn covers_opt(outer: Option<&Region>, inner: Option<&Region>) -> bool {
        match (outer, inner) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(o), Some(i)) => o.contains_region(i),
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region({}, {}, {}, {})",
            self.x_min, self.y_min, self.x_max, self.y_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Region {
        Region::new(a, b, c, d).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Region::new(0.0, 0.0, -1.0, 5.0).is_err());
        assert!(Region::new(0.0, 5.0, 1.0, 0.0).is_err());
        assert!(Region::new(f64::NAN, 0.0, 1.0, 1.0).is_err());
        assert!(
            Region::new(0.0, 0.0, 0.0, 0.0).is_ok(),
            "a point is a region"
        );
    }

    #[test]
    fn contains_is_inclusive() {
        let reg = r(0.0, 0.0, 10.0, 20.0);
        assert!(reg.contains(0.0, 0.0));
        assert!(reg.contains(10.0, 20.0));
        assert!(!reg.contains(10.1, 0.0));
        assert!(!reg.contains(0.0, -0.1));
    }

    #[test]
    fn containment() {
        let big = r(0.0, 0.0, 100.0, 100.0);
        let small = r(10.0, 10.0, 20.0, 20.0);
        assert!(big.contains_region(&small));
        assert!(!small.contains_region(&big));
    }

    #[test]
    fn union_cover_is_the_bounding_box() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let b = r(20.0, 5.0, 30.0, 40.0);
        let u = a.union_cover(&b);
        assert!(u.contains_region(&a) && u.contains_region(&b));
        assert_eq!(
            (u.x_min(), u.y_min(), u.x_max(), u.y_max()),
            (0.0, 0.0, 30.0, 40.0)
        );
    }

    #[test]
    fn optional_region_semantics() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        assert_eq!(Region::union_opt(Some(a), None), None, "everywhere absorbs");
        assert_eq!(Region::union_opt(None, None), None);
        assert!(Region::covers_opt(None, Some(&a)));
        assert!(!Region::covers_opt(Some(&a), None));
        assert!(Region::covers_opt(Some(&a), Some(&a)));
    }

    #[test]
    fn display_form() {
        assert_eq!(r(1.0, 2.0, 3.0, 4.0).to_string(), "region(1, 2, 3, 4)");
    }
}
