//! Epoch durations — the sampling-period dimension of sensor queries.
//!
//! TinyDB queries carry an `EPOCH DURATION` clause giving the period, in
//! milliseconds, at which the network must produce a result. The paper fixes
//! the smallest allowed epoch at 2048 ms and assumes every epoch duration is a
//! multiple of it (§3.2.1); the in-network tier fires node clocks at the GCD
//! of all running epochs.

use std::fmt;

/// The smallest allowed epoch duration, in milliseconds (§3.2.1).
pub const BASE_EPOCH_MS: u64 = 2048;

/// A validated epoch duration: a positive multiple of [`BASE_EPOCH_MS`].
///
/// # Examples
///
/// ```
/// use ttmqo_query::EpochDuration;
///
/// let e = EpochDuration::from_ms(4096)?;
/// assert_eq!(e.as_ms(), 4096);
/// assert!(EpochDuration::from_ms(3000).is_err());
/// # Ok::<(), ttmqo_query::InvalidEpochError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpochDuration(u64);

/// Error constructing an epoch duration that is zero or not a multiple of
/// [`BASE_EPOCH_MS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidEpochError {
    ms: u64,
}

impl InvalidEpochError {
    /// The rejected duration in milliseconds.
    pub fn ms(&self) -> u64 {
        self.ms
    }
}

impl fmt::Display for InvalidEpochError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid epoch duration {} ms (must be a positive multiple of {} ms)",
            self.ms, BASE_EPOCH_MS
        )
    }
}

impl std::error::Error for InvalidEpochError {}

impl EpochDuration {
    /// The smallest allowed epoch.
    pub const BASE: EpochDuration = EpochDuration(BASE_EPOCH_MS);

    /// Creates an epoch duration from milliseconds.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidEpochError`] if `ms` is zero or not a multiple of
    /// [`BASE_EPOCH_MS`].
    pub fn from_ms(ms: u64) -> Result<Self, InvalidEpochError> {
        if ms == 0 || !ms.is_multiple_of(BASE_EPOCH_MS) {
            Err(InvalidEpochError { ms })
        } else {
            Ok(EpochDuration(ms))
        }
    }

    /// Creates an epoch lasting `n` base epochs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn from_base_multiples(n: u64) -> Self {
        assert!(n > 0, "epoch must span at least one base epoch");
        EpochDuration(n * BASE_EPOCH_MS)
    }

    /// Duration in milliseconds.
    pub fn as_ms(self) -> u64 {
        self.0
    }

    /// Whether `self` divides `other` exactly — i.e. every firing of `other`
    /// coincides with a firing of `self` on the aligned schedule.
    pub fn divides(self, other: EpochDuration) -> bool {
        other.0.is_multiple_of(self.0)
    }

    /// Greatest common divisor of two epochs. Because both are multiples of
    /// the base epoch, the result is too.
    pub fn gcd(self, other: EpochDuration) -> EpochDuration {
        EpochDuration(gcd_u64(self.0, other.0))
    }

    /// GCD over any non-empty collection of epochs.
    ///
    /// Returns `None` for an empty iterator.
    pub fn gcd_all<I: IntoIterator<Item = EpochDuration>>(epochs: I) -> Option<EpochDuration> {
        epochs.into_iter().reduce(|a, b| a.gcd(b))
    }

    /// Whether a clock aligned at multiples of this epoch fires at time `t_ms`.
    ///
    /// The in-network tier aligns every query's epoch start so that firing
    /// times are exactly the multiples of its duration (§3.2.1).
    pub fn fires_at(self, t_ms: u64) -> bool {
        t_ms.is_multiple_of(self.0)
    }

    /// The first aligned firing time at or after `t_ms`.
    pub fn next_fire_at(self, t_ms: u64) -> u64 {
        t_ms.div_ceil(self.0) * self.0
    }
}

impl fmt::Display for EpochDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ms", self.0)
    }
}

/// Binary GCD on raw u64 values.
pub fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ms_validates() {
        assert!(EpochDuration::from_ms(0).is_err());
        assert!(EpochDuration::from_ms(1000).is_err());
        assert_eq!(EpochDuration::from_ms(2048).unwrap(), EpochDuration::BASE);
        assert_eq!(EpochDuration::from_ms(6144).unwrap().as_ms(), 6144);
        let err = EpochDuration::from_ms(3000).unwrap_err();
        assert_eq!(err.ms(), 3000);
    }

    #[test]
    fn from_base_multiples_scales() {
        assert_eq!(EpochDuration::from_base_multiples(3).as_ms(), 3 * 2048);
    }

    #[test]
    #[should_panic(expected = "at least one base epoch")]
    fn zero_multiples_panics() {
        let _ = EpochDuration::from_base_multiples(0);
    }

    #[test]
    fn divides_matches_paper_examples() {
        let e2048 = EpochDuration::from_ms(2048).unwrap();
        let e4096 = EpochDuration::from_ms(4096).unwrap();
        let e6144 = EpochDuration::from_ms(6144).unwrap();
        // 2048 divides 4096 (mergeable case from §3.2.1)...
        assert!(e2048.divides(e4096));
        // ...but 4096 does not divide 6144 (the sharing-over-time case).
        assert!(!e4096.divides(e6144));
        assert!(e2048.divides(e6144));
    }

    #[test]
    fn gcd_of_4096_and_6144_is_2048() {
        let a = EpochDuration::from_ms(4096).unwrap();
        let b = EpochDuration::from_ms(6144).unwrap();
        assert_eq!(a.gcd(b).as_ms(), 2048);
    }

    #[test]
    fn gcd_all_over_menu() {
        let epochs = [8192u64, 12288, 24576]
            .into_iter()
            .map(|ms| EpochDuration::from_ms(ms).unwrap());
        assert_eq!(EpochDuration::gcd_all(epochs).unwrap().as_ms(), 4096);
        assert!(EpochDuration::gcd_all(std::iter::empty()).is_none());
    }

    #[test]
    fn fires_at_aligned_times_only() {
        let e = EpochDuration::from_ms(4096).unwrap();
        assert!(e.fires_at(0));
        assert!(e.fires_at(8192));
        assert!(!e.fires_at(2048));
        assert_eq!(e.next_fire_at(1), 4096);
        assert_eq!(e.next_fire_at(4096), 4096);
        assert_eq!(e.next_fire_at(4097), 8192);
    }

    #[test]
    fn gcd_u64_basics() {
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(gcd_u64(0, 5), 5);
        assert_eq!(gcd_u64(5, 0), 5);
        assert_eq!(gcd_u64(7, 13), 1);
    }
}
