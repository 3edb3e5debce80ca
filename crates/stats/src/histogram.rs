//! Equi-width histograms for selectivity estimation.

/// An equi-width histogram over a closed value range.
///
/// Used to estimate `sel(q, N_k)` (Eq. 1) from observed sensor readings when
/// the uniform assumption is not wanted. Mass falling outside the configured
/// range is clamped into the boundary buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    total: u64,
}

/// Error constructing a histogram with an invalid configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramError {
    /// The range was empty or not finite.
    InvalidRange,
    /// Zero buckets were requested.
    NoBuckets,
}

impl Histogram {
    /// Creates an empty histogram over `[lo, hi]` with `buckets` equal-width
    /// buckets.
    ///
    /// # Errors
    ///
    /// [`HistogramError::InvalidRange`] if `lo >= hi` or either bound is not
    /// finite; [`HistogramError::NoBuckets`] if `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Result<Self, HistogramError> {
        if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
            return Err(HistogramError::InvalidRange);
        }
        if buckets == 0 {
            return Err(HistogramError::NoBuckets);
        }
        Ok(Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            total: 0,
        })
    }

    /// Total number of observations added.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records one observation; values outside the range land in the nearest
    /// boundary bucket.
    pub fn add(&mut self, value: f64) {
        let idx = self.bucket_of(value);
        self.buckets[idx] += 1;
        self.total += 1;
    }

    fn bucket_of(&self, value: f64) -> usize {
        let n = self.buckets.len();
        let frac = (value - self.lo) / (self.hi - self.lo);
        ((frac * n as f64).floor() as isize).clamp(0, n as isize - 1) as usize
    }

    fn bucket_bounds(&self, idx: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        (
            self.lo + idx as f64 * width,
            self.lo + (idx + 1) as f64 * width,
        )
    }

    /// Estimated fraction of observations in `[min, max]`, with linear
    /// interpolation inside partially covered buckets.
    ///
    /// Returns 0.0 on an empty histogram.
    pub fn fraction_in(&self, min: f64, max: f64) -> f64 {
        if self.total == 0 || min > max {
            return 0.0;
        }
        let mut mass = 0.0;
        for (idx, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (blo, bhi) = self.bucket_bounds(idx);
            let overlap = (max.min(bhi) - min.max(blo)).max(0.0);
            if overlap > 0.0 {
                mass += count as f64 * overlap / (bhi - blo);
            } else if min <= blo && max >= bhi {
                mass += count as f64;
            }
        }
        (mass / self.total as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert_eq!(
            Histogram::new(1.0, 1.0, 4).unwrap_err(),
            HistogramError::InvalidRange
        );
        assert_eq!(
            Histogram::new(2.0, 1.0, 4).unwrap_err(),
            HistogramError::InvalidRange
        );
        assert_eq!(
            Histogram::new(f64::NAN, 1.0, 4).unwrap_err(),
            HistogramError::InvalidRange
        );
        assert_eq!(
            Histogram::new(0.0, 1.0, 0).unwrap_err(),
            HistogramError::NoBuckets
        );
        assert!(Histogram::new(0.0, 1.0, 1).is_ok());
    }

    #[test]
    fn empty_histogram_estimates_zero() {
        let h = Histogram::new(0.0, 10.0, 5).unwrap();
        assert_eq!(h.fraction_in(0.0, 10.0), 0.0);
    }

    #[test]
    fn full_range_fraction_is_one() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        for i in 0..10 {
            h.add(i as f64);
        }
        assert!((h.fraction_in(0.0, 10.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_values_clamp_to_boundary_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.add(-5.0);
        h.add(50.0);
        assert_eq!(h.total(), 2);
        assert!(h.fraction_in(0.0, 2.0) > 0.0);
        assert!(h.fraction_in(8.0, 10.0) > 0.0);
    }

    #[test]
    fn partial_bucket_interpolates() {
        let mut h = Histogram::new(0.0, 10.0, 1).unwrap();
        for _ in 0..100 {
            h.add(5.0);
        }
        // Half of the single bucket's width ⇒ half the mass under the
        // within-bucket-uniform assumption.
        assert!((h.fraction_in(0.0, 5.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inverted_query_range_is_zero() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.add(5.0);
        assert_eq!(h.fraction_in(6.0, 4.0), 0.0);
    }

    #[test]
    fn whole_buckets_count_in_full() {
        let mut h = Histogram::new(0.0, 100.0, 10).unwrap();
        for v in [5.0, 15.0, 15.5, 95.0] {
            h.add(v);
        }
        assert_eq!(h.total(), 4);
        assert!((h.fraction_in(10.0, 20.0) - 0.5).abs() < 1e-9);
    }
}
