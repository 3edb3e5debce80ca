//! Data-distribution models behind `sel(q, N_k)` in Eq. (1).
//!
//! The paper maintains "the data distribution … at each level of the routing
//! tree", but its experiments deliberately use a *single* distribution for all
//! levels ("which actually biases against our techniques"). Both modes are
//! supported: a [`DataDistribution`] estimates one attribute's distribution,
//! and [`SelectivityEstimator`] combines per-attribute models into the
//! selectivity of a conjunctive predicate set under the usual independence
//! assumption.

use std::collections::BTreeMap;
use std::fmt::Debug;
use ttmqo_query::{Attribute, PredicateSet};

/// A model of one attribute's value distribution.
///
/// Implementors estimate the fraction of readings falling inside a closed
/// range. This trait is object-safe so estimators can mix model types per
/// attribute.
pub trait DataDistribution: Debug {
    /// Estimated fraction of readings in `[min, max]`, in `[0, 1]`.
    fn fraction_in(&self, min: f64, max: f64) -> f64;
}

/// Uniform distribution over an attribute's whole domain — the estimator the
/// paper's experiments use.
///
/// # Examples
///
/// ```
/// use ttmqo_stats::{DataDistribution, UniformDistribution};
/// use ttmqo_query::Attribute;
///
/// let u = UniformDistribution::new(Attribute::Light);
/// assert!((u.fraction_in(0.0, 500.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformDistribution {
    attr: Attribute,
}

impl UniformDistribution {
    /// Uniform model over `attr`'s domain.
    pub fn new(attr: Attribute) -> Self {
        UniformDistribution { attr }
    }
}

impl DataDistribution for UniformDistribution {
    fn fraction_in(&self, min: f64, max: f64) -> f64 {
        let (lo, hi) = self.attr.domain();
        let width = hi - lo;
        if width <= 0.0 || min > max {
            return 0.0;
        }
        ((max.min(hi) - min.max(lo)).max(0.0) / width).clamp(0.0, 1.0)
    }
}

/// Empirical distribution built from observed readings: an equi-width
/// histogram over the attribute's domain, used to estimate `sel(q, N_k)`
/// (Eq. 1) when the uniform assumption is not wanted. Readings outside the
/// domain are clamped into the boundary buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalDistribution {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    total: u64,
}

impl EmpiricalDistribution {
    /// Builds an empirical model for `attr` with `buckets` buckets (at least
    /// one) from the given samples. Falls back to zero mass (an empty
    /// histogram) when no samples are provided.
    pub fn from_samples<I: IntoIterator<Item = f64>>(
        attr: Attribute,
        buckets: usize,
        samples: I,
    ) -> Self {
        let (lo, hi) = attr.domain();
        let mut model = EmpiricalDistribution {
            lo,
            hi,
            buckets: vec![0; buckets.max(1)],
            total: 0,
        };
        for s in samples {
            model.observe(s);
        }
        model
    }

    /// Number of samples folded in.
    pub fn sample_count(&self) -> u64 {
        self.total
    }

    /// Records one more observation; values outside the domain land in the
    /// nearest boundary bucket.
    pub fn observe(&mut self, value: f64) {
        let n = self.buckets.len();
        let frac = (value - self.lo) / (self.hi - self.lo);
        let idx = ((frac * n as f64).floor() as isize).clamp(0, n as isize - 1) as usize;
        self.buckets[idx] += 1;
        self.total += 1;
    }
}

impl DataDistribution for EmpiricalDistribution {
    /// The fraction of observations in `[min, max]`, with linear
    /// interpolation inside partially covered buckets; 0 with none.
    fn fraction_in(&self, min: f64, max: f64) -> f64 {
        if self.total == 0 || min > max {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        let mut mass = 0.0;
        for (idx, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (blo, bhi) = (
                self.lo + idx as f64 * width,
                self.lo + (idx + 1) as f64 * width,
            );
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

/// Estimates the selectivity of conjunctive predicate sets by combining
/// per-attribute distributions under attribute independence.
///
/// Attributes with no registered model fall back to the uniform model, which
/// is exactly the configuration of the paper's experiments.
///
/// # Examples
///
/// ```
/// use ttmqo_stats::SelectivityEstimator;
/// use ttmqo_query::{Attribute, Predicate, PredicateSet};
///
/// let est = SelectivityEstimator::uniform();
/// let mut ps = PredicateSet::new();
/// ps.and(Predicate::new(Attribute::Light, 0.0, 250.0).unwrap());
/// assert!((est.selectivity(&ps) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Default)]
pub struct SelectivityEstimator {
    models: BTreeMap<Attribute, Box<dyn DataDistribution + Send + Sync>>,
    /// Online empirical models fed by [`observe`](Self::observe); once an
    /// attribute has enough observations they take precedence over the
    /// static model (§3.1.2's maintained data distributions).
    adaptive: BTreeMap<Attribute, EmpiricalDistribution>,
    /// Observations required before an adaptive model is trusted.
    warmup: u64,
}

impl SelectivityEstimator {
    /// An estimator with no per-attribute models: every attribute uses the
    /// uniform fallback.
    pub fn uniform() -> Self {
        SelectivityEstimator {
            warmup: 64,
            ..Self::default()
        }
    }

    /// Overrides how many observations an adaptive model needs before it is
    /// trusted over the static model.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Feeds one observed reading into the attribute's online empirical
    /// model — the paper's maintained statistics: the base station watches
    /// the result stream and keeps per-attribute data distributions current.
    pub fn observe(&mut self, attr: Attribute, value: f64) {
        self.adaptive
            .entry(attr)
            .or_insert_with(|| EmpiricalDistribution::from_samples(attr, 32, []))
            .observe(value);
    }

    /// Registers a distribution model for one attribute, replacing any
    /// previous model.
    pub fn set_model(
        &mut self,
        attr: Attribute,
        model: Box<dyn DataDistribution + Send + Sync>,
    ) -> &mut Self {
        self.models.insert(attr, model);
        self
    }

    /// Estimated selectivity of the conjunction: the product of per-attribute
    /// range fractions. Warmed-up adaptive models win over static models,
    /// which win over the uniform fallback.
    pub fn selectivity(&self, predicates: &PredicateSet) -> f64 {
        predicates
            .iter()
            .map(|p| {
                if let Some(m) = self.adaptive.get(&p.attr()) {
                    if m.sample_count() >= self.warmup {
                        return m.fraction_in(p.min(), p.max());
                    }
                }
                match self.models.get(&p.attr()) {
                    Some(m) => m.fraction_in(p.min(), p.max()),
                    None => UniformDistribution::new(p.attr()).fraction_in(p.min(), p.max()),
                }
            })
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttmqo_query::Predicate;

    #[test]
    fn uniform_matches_domain_fraction() {
        let u = UniformDistribution::new(Attribute::Humidity); // domain [0, 100]
        assert!((u.fraction_in(25.0, 75.0) - 0.5).abs() < 1e-12);
        assert_eq!(u.fraction_in(200.0, 300.0), 0.0);
        assert_eq!(u.fraction_in(75.0, 25.0), 0.0);
        assert!((u.fraction_in(-100.0, 1000.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_reflects_samples() {
        let e = EmpiricalDistribution::from_samples(
            Attribute::Humidity,
            10,
            (0..100).map(|i| if i < 80 { 5.0 } else { 95.0 }),
        );
        assert_eq!(e.sample_count(), 100);
        assert!((e.fraction_in(0.0, 10.0) - 0.8).abs() < 1e-9);
        assert!((e.fraction_in(90.0, 100.0) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empirical_observe_updates() {
        let mut e = EmpiricalDistribution::from_samples(Attribute::Humidity, 10, []);
        assert_eq!(e.sample_count(), 0);
        e.observe(50.0);
        assert_eq!(e.sample_count(), 1);
        assert!(e.fraction_in(40.0, 60.0) > 0.9);
    }

    /// A humidity model (domain `[0, 100]`) with `buckets` buckets.
    fn humidity(buckets: usize, samples: &[f64]) -> EmpiricalDistribution {
        EmpiricalDistribution::from_samples(Attribute::Humidity, buckets, samples.iter().copied())
    }

    #[test]
    fn empty_model_estimates_zero() {
        assert_eq!(humidity(5, &[]).fraction_in(0.0, 100.0), 0.0);
    }

    #[test]
    fn zero_buckets_mean_one() {
        let e = humidity(0, &[10.0, 90.0]);
        assert_eq!(e.sample_count(), 2);
        // One bucket over the whole domain: mass spreads evenly across it.
        assert!((e.fraction_in(0.0, 25.0) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn full_range_fraction_is_one() {
        let samples: Vec<f64> = (0..10).map(|i| 10.0 * i as f64).collect();
        assert!((humidity(5, &samples).fraction_in(0.0, 100.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_values_clamp_to_boundary_buckets() {
        let e = humidity(5, &[-50.0, 500.0]);
        assert_eq!(e.sample_count(), 2);
        assert!(e.fraction_in(0.0, 20.0) > 0.0);
        assert!(e.fraction_in(80.0, 100.0) > 0.0);
    }

    #[test]
    fn partial_bucket_interpolates() {
        let e = humidity(1, &[50.0; 100]);
        // Half of the single bucket's width ⇒ half the mass under the
        // within-bucket-uniform assumption.
        assert!((e.fraction_in(0.0, 50.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inverted_query_range_is_zero() {
        assert_eq!(humidity(5, &[50.0]).fraction_in(60.0, 40.0), 0.0);
    }

    #[test]
    fn whole_buckets_count_in_full() {
        let e = humidity(10, &[5.0, 15.0, 15.5, 95.0]);
        assert_eq!(e.sample_count(), 4);
        assert!((e.fraction_in(10.0, 20.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn estimator_defaults_to_uniform() {
        let est = SelectivityEstimator::uniform();
        let mut ps = PredicateSet::new();
        ps.and(Predicate::new(Attribute::Light, 0.0, 100.0).unwrap());
        ps.and(Predicate::new(Attribute::Humidity, 0.0, 50.0).unwrap());
        // 0.1 * 0.5 under independence.
        assert!((est.selectivity(&ps) - 0.05).abs() < 1e-12);
        assert_eq!(est.selectivity(&PredicateSet::new()), 1.0);
    }

    #[test]
    fn adaptive_model_takes_over_after_warmup() {
        let mut est = SelectivityEstimator::uniform().with_warmup(10);
        let mut ps = PredicateSet::new();
        ps.and(Predicate::new(Attribute::Light, 900.0, 1000.0).unwrap());
        // Before warmup: uniform says 10%.
        assert!((est.selectivity(&ps) - 0.1).abs() < 1e-12);
        for _ in 0..5 {
            est.observe(Attribute::Light, 950.0);
        }
        assert!(
            (est.selectivity(&ps) - 0.1).abs() < 1e-12,
            "not warmed up yet"
        );
        for _ in 0..5 {
            est.observe(Attribute::Light, 950.0);
        }
        // All observed mass sits in [900, 1000]: adaptive estimate ≈ 1.
        assert!(est.selectivity(&ps) > 0.9, "got {}", est.selectivity(&ps));
    }

    #[test]
    fn adaptive_beats_static_model_once_warm() {
        let mut est = SelectivityEstimator::uniform().with_warmup(4);
        est.set_model(
            Attribute::Light,
            Box::new(EmpiricalDistribution::from_samples(
                Attribute::Light,
                10,
                std::iter::repeat_n(50.0, 100),
            )),
        );
        let mut ps = PredicateSet::new();
        ps.and(Predicate::new(Attribute::Light, 0.0, 100.0).unwrap());
        assert!(est.selectivity(&ps) > 0.9, "static model says low values");
        for _ in 0..4 {
            est.observe(Attribute::Light, 800.0);
        }
        assert!(est.selectivity(&ps) < 0.1, "adaptive sees only high values");
    }

    #[test]
    fn estimator_uses_registered_model() {
        let mut est = SelectivityEstimator::uniform();
        let skewed = EmpiricalDistribution::from_samples(
            Attribute::Light,
            10,
            std::iter::repeat_n(950.0, 100),
        );
        est.set_model(Attribute::Light, Box::new(skewed));
        let mut ps = PredicateSet::new();
        ps.and(Predicate::new(Attribute::Light, 900.0, 1000.0).unwrap());
        assert!(est.selectivity(&ps) > 0.9, "skewed model should dominate");
    }
}
