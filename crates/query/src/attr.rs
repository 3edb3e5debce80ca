//! Sensor attributes known to the (simulated) network.
//!
//! TinyDB exposes a virtual table `sensors` whose columns are the attributes
//! every mote can sample. The TTMQO paper's experiments use `nodeid`, `light`
//! and `temp`; we additionally model `humidity` and `voltage` so workloads can
//! exercise wider schemas.

use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;

/// A sensor attribute (a column of the virtual `sensors` table).
///
/// Each attribute has a fixed value domain, mirroring the calibrated ranges of
/// TinyDB-era motes. The domain is used for predicate normalization and for
/// uniform selectivity estimation.
///
/// # Examples
///
/// ```
/// use ttmqo_query::Attribute;
///
/// let a: Attribute = "light".parse().unwrap();
/// assert_eq!(a, Attribute::Light);
/// assert_eq!(a.domain(), (0.0, 1000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Attribute {
    /// The unique node identifier (integer-valued).
    NodeId,
    /// Photosynthetically active light, raw ADC-style units in `[0, 1000]`.
    Light,
    /// Temperature in tenths of degrees Celsius, `[-400, 1000]`.
    Temp,
    /// Relative humidity in percent, `[0, 100]`.
    Humidity,
    /// Battery voltage in millivolts, `[1800, 3300]`.
    Voltage,
}

impl Attribute {
    /// All attributes, in canonical order.
    pub const ALL: [Attribute; 5] = [
        Attribute::NodeId,
        Attribute::Light,
        Attribute::Temp,
        Attribute::Humidity,
        Attribute::Voltage,
    ];

    /// The closed value domain `(min, max)` of this attribute.
    ///
    /// `NodeId`'s domain is `[0, 1023]`, large enough for every topology used
    /// in the experiments.
    pub fn domain(self) -> (f64, f64) {
        match self {
            Attribute::NodeId => (0.0, 1023.0),
            Attribute::Light => (0.0, 1000.0),
            Attribute::Temp => (-400.0, 1000.0),
            Attribute::Humidity => (0.0, 100.0),
            Attribute::Voltage => (1800.0, 3300.0),
        }
    }

    /// Width of the value domain (`max - min`).
    pub fn domain_width(self) -> f64 {
        let (lo, hi) = self.domain();
        hi - lo
    }

    /// Size, in bytes, a reading of this attribute occupies in a radio
    /// message (TinyDB packs 16-bit samples).
    pub fn wire_size(self) -> usize {
        2
    }

    /// The lowercase column name used by the parser and `Display`.
    pub fn name(self) -> &'static str {
        match self {
            Attribute::NodeId => "nodeid",
            Attribute::Light => "light",
            Attribute::Temp => "temp",
            Attribute::Humidity => "humidity",
            Attribute::Voltage => "voltage",
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of attributes: the tuple's attribute bitmap, one bit per attribute
/// in canonical order. `Copy`, no heap, iterates ascending.
///
/// # Examples
///
/// ```
/// use ttmqo_query::{AttrSet, Attribute};
///
/// let set: AttrSet = [Attribute::Temp, Attribute::NodeId, Attribute::Temp].into_iter().collect();
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.iter().collect::<Vec<_>>(), [Attribute::NodeId, Attribute::Temp]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AttrSet(u8);

impl AttrSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `attr`.
    pub fn insert(&mut self, attr: Attribute) {
        self.0 |= 1 << attr as u8;
    }

    /// Whether `attr` is in the set.
    pub fn contains(self, attr: Attribute) -> bool {
        self.0 & (1 << attr as u8) != 0
    }

    /// Number of attributes in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set holds nothing.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The attributes in both sets.
    pub fn intersection(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 & other.0)
    }

    /// The attributes in either set.
    pub(crate) fn union(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 | other.0)
    }

    /// Iterates the members in canonical attribute order.
    pub fn iter(self) -> AttrSetIter {
        AttrSetIter(self.0)
    }

    /// The bitmap, for packing into a wider word.
    pub(crate) fn bits(self) -> u8 {
        self.0
    }

    /// The set whose bitmap [`bits`](Self::bits) returned.
    pub(crate) const fn from_bits(bits: u8) -> AttrSet {
        AttrSet(bits)
    }

    /// How many members sort before `attr`: its index among a row's values.
    pub(crate) fn rank(self, attr: Attribute) -> usize {
        (self.0 & ((1 << attr as u8) - 1)).count_ones() as usize
    }
}

/// Iterator over an [`AttrSet`], ascending.
#[derive(Debug, Clone)]
pub struct AttrSetIter(u8);

impl Iterator for AttrSetIter {
    type Item = Attribute;

    fn next(&mut self) -> Option<Attribute> {
        // Only `insert` sets bits, so every set bit indexes `ALL`.
        let attr = *Attribute::ALL.get(self.0.trailing_zeros() as usize)?;
        self.0 &= self.0 - 1;
        Some(attr)
    }
}

impl IntoIterator for AttrSet {
    type Item = Attribute;
    type IntoIter = AttrSetIter;

    fn into_iter(self) -> AttrSetIter {
        self.iter()
    }
}

impl<A: Borrow<Attribute>> Extend<A> for AttrSet {
    fn extend<I: IntoIterator<Item = A>>(&mut self, iter: I) {
        for attr in iter {
            self.insert(*attr.borrow());
        }
    }
}

impl<A: Borrow<Attribute>> FromIterator<A> for AttrSet {
    fn from_iter<I: IntoIterator<Item = A>>(iter: I) -> Self {
        let mut set = AttrSet::new();
        set.extend(iter);
        set
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A map from attribute to `V` held inline: the presence bitmap plus one slot
/// per attribute, indexed by `attr as usize`. What [`Readings`] and
/// [`PredicateSet`] are made of; it iterates, compares and prints as an
/// ordered map keyed by attribute (`{Light: 5.0, Temp: 21.5}`).
///
/// [`Readings`]: crate::Readings
/// [`PredicateSet`]: crate::PredicateSet
#[derive(Clone, Copy, Default)]
pub(crate) struct AttrMap<V> {
    present: AttrSet,
    slots: [V; Attribute::ALL.len()],
}

impl<V: Copy + Default> AttrMap<V> {
    /// The map from the members of `keys` to `values`, both in canonical
    /// order.
    pub(crate) fn from_sorted(keys: AttrSet, values: impl IntoIterator<Item = V>) -> Self {
        let mut map = AttrMap {
            present: keys,
            slots: Default::default(),
        };
        for (attr, value) in keys.iter().zip(values) {
            map.slots[attr as usize] = value;
        }
        map
    }
}

impl<V: Copy> AttrMap<V> {
    pub(crate) fn insert(&mut self, attr: Attribute, value: V) -> Option<V> {
        let old = self.get(attr);
        self.present.insert(attr);
        self.slots[attr as usize] = value;
        old
    }

    pub(crate) fn get(&self, attr: Attribute) -> Option<V> {
        self.present
            .contains(attr)
            .then(|| self.slots[attr as usize])
    }

    pub(crate) fn keys(&self) -> AttrSet {
        self.present
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (Attribute, V)> + '_ {
        self.present.iter().map(|a| (a, self.slots[a as usize]))
    }

    /// The values alone, in canonical attribute order.
    pub(crate) fn into_values(self) -> impl Iterator<Item = V> {
        (0..Attribute::ALL.len())
            .filter(move |&i| self.present.0 & 1 << i != 0)
            .map(move |i| self.slots[i])
    }

    /// Drops every entry whose key is not in `keep`.
    pub(crate) fn restrict(&mut self, keep: AttrSet) {
        self.present = self.present.intersection(keep);
    }
}

/// Equal when the same keys map to equal values; what an absent slot last
/// held does not count.
impl<V: Copy + PartialEq> PartialEq for AttrMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.present == other.present && self.iter().eq(other.iter())
    }
}

impl<V: Copy + fmt::Debug> fmt::Debug for AttrMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Error returned when parsing an unknown attribute name.
///
/// ```
/// use ttmqo_query::Attribute;
/// assert!("pressure".parse::<Attribute>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAttributeError {
    name: String,
}

impl ParseAttributeError {
    /// The offending attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for ParseAttributeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown sensor attribute `{}`", self.name)
    }
}

impl std::error::Error for ParseAttributeError {}

impl FromStr for Attribute {
    type Err = ParseAttributeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        Attribute::ALL
            .iter()
            .copied()
            .find(|a| a.name() == lower)
            .ok_or(ParseAttributeError { name: lower })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_all_attributes() {
        for a in Attribute::ALL {
            let parsed: Attribute = a.name().parse().unwrap();
            assert_eq!(parsed, a);
            assert_eq!(format!("{a}"), a.name());
        }
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        assert_eq!(" LIGHT ".parse::<Attribute>().unwrap(), Attribute::Light);
        assert_eq!("Temp".parse::<Attribute>().unwrap(), Attribute::Temp);
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let err = "sound".parse::<Attribute>().unwrap_err();
        assert_eq!(err.name(), "sound");
        assert!(err.to_string().contains("sound"));
    }

    #[test]
    fn domains_are_nonempty() {
        for a in Attribute::ALL {
            let (lo, hi) = a.domain();
            assert!(lo < hi, "{a} has empty domain");
            assert!(a.domain_width() > 0.0);
        }
    }

    #[test]
    fn wire_size_is_two_bytes() {
        for a in Attribute::ALL {
            assert_eq!(a.wire_size(), 2);
        }
    }
}
