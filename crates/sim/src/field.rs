//! Synthetic sensor fields: what the motes measure.
//!
//! The paper runs on real TinyDB attributes; we substitute deterministic
//! synthetic fields. [`CorrelatedField`] mimics the spatial/temporal
//! correlation the paper's §3.2.2 discussion relies on ("sensor readings are
//! often spatially and temporally correlated"); [`UniformField`] matches the
//! uniform-distribution assumption of the base-station estimator; and
//! [`ConstantField`] makes tests deterministic.

use crate::time::SimTime;
use crate::topology::{NodeId, Position, Topology};
use std::fmt::Debug;
use ttmqo_query::Attribute;

/// A source of sensor readings, queried by the simulator whenever a node
/// samples an attribute.
///
/// Implementations must be deterministic in `(node, attr, time)` so that
/// simulation runs are reproducible and so that two queries sampling the same
/// attribute in the same epoch observe the same value.
pub trait SensorField: Debug {
    /// The reading node `node` observes for `attr` at time `t`.
    fn reading(&self, node: NodeId, attr: Attribute, t: SimTime) -> f64;
}

/// Every node always reads the midpoint of each attribute's domain, plus its
/// node id for [`Attribute::NodeId`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantField;

impl SensorField for ConstantField {
    fn reading(&self, node: NodeId, attr: Attribute, _t: SimTime) -> f64 {
        if attr == Attribute::NodeId {
            return node.0 as f64;
        }
        let (lo, hi) = attr.domain();
        (lo + hi) / 2.0
    }
}

/// Deterministic hash-based "uniform iid" field: every `(node, attr, epoch)`
/// triple gets an independent-looking value uniform over the attribute
/// domain. Values are constant within a base epoch (2048 ms) so queries
/// sharing an acquisition observe identical readings.
#[derive(Debug, Clone, Copy)]
pub struct UniformField {
    seed: u64,
}

impl UniformField {
    /// A uniform field with the given seed, holding values for one base epoch.
    pub fn new(seed: u64) -> Self {
        UniformField { seed }
    }

    fn unit(&self, node: NodeId, attr: Attribute, t: SimTime) -> f64 {
        let bucket = t.as_ms() / ttmqo_query::BASE_EPOCH_MS;
        let h = splitmix(
            self.seed ^ (node.0 as u64) << 32 ^ (attr as u64) << 16 ^ bucket.wrapping_mul(0x9E37),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl SensorField for UniformField {
    fn reading(&self, node: NodeId, attr: Attribute, t: SimTime) -> f64 {
        if attr == Attribute::NodeId {
            return node.0 as f64;
        }
        let (lo, hi) = attr.domain();
        lo + self.unit(node, attr, t) * (hi - lo)
    }
}

/// Fraction of the domain covered by the correlated field's spatial
/// gradient.
const GRADIENT_STRENGTH: f64 = 0.5;
/// Fraction of the domain covered by its temporal drift.
const DRIFT_STRENGTH: f64 = 0.2;
/// Fraction of the domain used for its per-node noise.
const NOISE_STRENGTH: f64 = 0.05;
/// Period of its temporal drift, ms.
const DRIFT_PERIOD_MS: u64 = 600_000;

/// A spatially and temporally correlated field: a smooth spatial gradient
/// plus a slow global sinusoidal drift plus small deterministic noise.
///
/// Neighbouring nodes observe similar values and values change slowly over
/// time — the regime where the in-network tier's shared partial aggregation
/// is most effective.
#[derive(Debug, Clone)]
pub struct CorrelatedField {
    seed: u64,
    /// Spatial extent used to normalize the gradient, feet.
    extent_ft: f64,
    /// Each node's position, by node index.
    positions: Vec<Position>,
}

impl CorrelatedField {
    /// A correlated field over a topology's nodes, sized to its bounding
    /// box.
    pub fn for_topology(seed: u64, topo: &Topology) -> Self {
        let positions: Vec<Position> = topo.nodes().map(|n| topo.position(n)).collect();
        let extent_ft = positions
            .iter()
            .map(|p| p.x.max(p.y))
            .fold(1.0_f64, f64::max);
        CorrelatedField {
            seed,
            extent_ft,
            positions,
        }
    }
}

impl SensorField for CorrelatedField {
    fn reading(&self, node: NodeId, attr: Attribute, t: SimTime) -> f64 {
        if attr == Attribute::NodeId {
            return node.0 as f64;
        }
        let (lo, hi) = attr.domain();
        let width = hi - lo;
        let pos = self
            .positions
            .get(node.index())
            .copied()
            .unwrap_or_default();

        // Smooth diagonal gradient across the deployment.
        let gradient = (pos.x + pos.y) / (2.0 * self.extent_ft);
        // Slow sinusoidal drift shared by all nodes.
        let phase = t.as_ms() as f64 / DRIFT_PERIOD_MS as f64 * std::f64::consts::TAU;
        let drift = 0.5 + 0.5 * phase.sin();
        // Small per-(node, attr, epoch-bucket) deterministic noise.
        let bucket = t.as_ms() / ttmqo_query::BASE_EPOCH_MS;
        let h = splitmix(self.seed ^ (node.0 as u64) << 24 ^ (attr as u64) << 8 ^ bucket);
        let noise = (h >> 11) as f64 / (1u64 << 53) as f64;

        let base = 0.5 * (1.0 - GRADIENT_STRENGTH - DRIFT_STRENGTH - NOISE_STRENGTH);
        let unit =
            base + GRADIENT_STRENGTH * gradient + DRIFT_STRENGTH * drift + NOISE_STRENGTH * noise;
        lo + unit.clamp(0.0, 1.0) * width
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn constant_field_is_constant_and_exposes_nodeid() {
        let f = ConstantField;
        let a = f.reading(NodeId(3), Attribute::Light, SimTime::ZERO);
        let b = f.reading(NodeId(3), Attribute::Light, SimTime::from_ms(99999));
        assert_eq!(a, b);
        assert_eq!(f.reading(NodeId(7), Attribute::NodeId, SimTime::ZERO), 7.0);
    }

    #[test]
    fn uniform_field_is_deterministic_and_in_domain() {
        let f = UniformField::new(42);
        for node in 0..20u16 {
            for t in [0u64, 2048, 4096, 100_000] {
                let v = f.reading(NodeId(node), Attribute::Light, SimTime::from_ms(t));
                assert!((0.0..=1000.0).contains(&v));
                let v2 = f.reading(NodeId(node), Attribute::Light, SimTime::from_ms(t));
                assert_eq!(v, v2, "deterministic");
            }
        }
    }

    #[test]
    fn uniform_field_holds_within_base_epoch() {
        let f = UniformField::new(7);
        let a = f.reading(NodeId(1), Attribute::Light, SimTime::from_ms(0));
        let b = f.reading(NodeId(1), Attribute::Light, SimTime::from_ms(2047));
        assert_eq!(a, b);
        let c = f.reading(NodeId(1), Attribute::Light, SimTime::from_ms(2048));
        // Overwhelmingly likely to differ; equal would indicate the bucket is
        // ignored.
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_field_covers_the_domain() {
        let f = UniformField::new(123);
        let vals: Vec<f64> = (0..200u16)
            .map(|n| f.reading(NodeId(n), Attribute::Light, SimTime::ZERO))
            .collect();
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo < 200.0, "min {lo} too high for uniform");
        assert!(hi > 800.0, "max {hi} too low for uniform");
    }

    #[test]
    fn correlated_field_neighbors_are_similar() {
        let topo = Topology::grid(8).unwrap();
        let f = CorrelatedField::for_topology(5, &topo);
        let t = SimTime::from_ms(2048);
        // Adjacent nodes differ far less than opposite corners.
        let v_a = f.reading(NodeId(9), Attribute::Light, t);
        let v_b = f.reading(NodeId(10), Attribute::Light, t);
        let v_far = f.reading(NodeId(63), Attribute::Light, t);
        assert!((v_a - v_b).abs() < (v_a - v_far).abs());
    }

    #[test]
    fn correlated_field_changes_slowly_in_time() {
        let topo = Topology::grid(4).unwrap();
        let f = CorrelatedField::for_topology(5, &topo);
        let v0 = f.reading(NodeId(5), Attribute::Temp, SimTime::from_ms(0));
        let v1 = f.reading(NodeId(5), Attribute::Temp, SimTime::from_ms(2048));
        let (lo, hi) = Attribute::Temp.domain();
        assert!((v1 - v0).abs() < 0.2 * (hi - lo), "drift too fast");
    }

    #[test]
    fn correlated_values_stay_in_domain() {
        let topo = Topology::grid(8).unwrap();
        let f = CorrelatedField::for_topology(99, &topo);
        for n in topo.nodes() {
            for t in [0u64, 2048, 300_000, 599_000] {
                let v = f.reading(n, Attribute::Humidity, SimTime::from_ms(t));
                assert!((0.0..=100.0).contains(&v), "{v} out of humidity domain");
            }
        }
    }
}
