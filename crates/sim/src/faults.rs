//! Deterministic fault injection: scripted and randomly sampled node
//! crashes/recoveries and link-quality degradation windows.
//!
//! The paper's evaluation assumes a lossless channel and immortal nodes
//! (§4); a [`FaultPlan`] is how a run departs from that assumption in a
//! reproducible way. A plan is pure data: [`FaultPlan::materialize`] expands
//! it against a concrete [`Topology`] into a [`FaultSchedule`] (the exact
//! crash/recovery timeline, sampled with the plan's own seed — never the
//! simulation RNG) and [`Simulator::install_fault_plan`] applies it. The
//! degradation windows become an engine overlay consulted on the delivery
//! path; crashes become [`Simulator::schedule_failure`] /
//! [`Simulator::schedule_recovery`] events.
//!
//! An empty plan installs nothing — the engine keeps its exact no-fault
//! event and RNG stream, so fault-free runs stay bit-for-bit identical to
//! runs built before this module existed.
//!
//! [`Simulator::install_fault_plan`]: crate::Simulator::install_fault_plan
//! [`Simulator::schedule_failure`]: crate::Simulator::schedule_failure
//! [`Simulator::schedule_recovery`]: crate::Simulator::schedule_recovery

use crate::topology::{NodeId, Topology};

/// One scripted crash of a node, with an optional scripted reboot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// The node to crash.
    pub node: NodeId,
    /// Crash time, ms.
    pub at_ms: u64,
    /// Reboot time, ms (`None` = the node stays dead).
    pub recover_at_ms: Option<u64>,
}

/// A randomly sampled crash population: a fraction of the non-base-station
/// nodes crash at times drawn uniformly from a window. Sampling uses the
/// plan's seed, so the same plan over the same topology always picks the
/// same victims at the same times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomCrashes {
    /// Fraction of non-base-station nodes to crash, in `[0, 1]`.
    pub fraction: f64,
    /// Earliest crash time, ms.
    pub from_ms: u64,
    /// Latest crash time, ms (must be ≥ `from_ms`).
    pub until_ms: u64,
    /// If set, each victim reboots this long after crashing; `None` =
    /// victims stay dead.
    pub outage_ms: Option<u64>,
}

/// A time window during which every link loses an extra independent
/// fraction of frames (on top of the radio's own loss model) — fading,
/// weather, interference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// Window start, ms (inclusive).
    pub from_ms: u64,
    /// Window end, ms (exclusive; `u64::MAX` = open-ended).
    pub until_ms: u64,
    /// Extra per-receiver loss probability, combined independently with the
    /// base loss: `p = 1 − (1−p_base)·(1−added_loss)`.
    pub added_loss: f64,
}

impl LinkDegradation {
    fn contains(&self, t_us: u64) -> bool {
        self.from_ms.saturating_mul(1000) <= t_us
            && (self.until_ms == u64::MAX || t_us < self.until_ms.saturating_mul(1000))
    }
}

/// A deterministic, seedable description of everything that goes wrong
/// during a run.
///
/// # Examples
///
/// ```
/// use ttmqo_sim::{FaultPlan, NodeId, Topology};
///
/// let topo = Topology::grid(4)?;
/// let plan = FaultPlan::scripted(vec![(NodeId(5), 10_000, None)]);
/// let schedule = plan.materialize(&topo);
/// assert!(schedule.alive_at(NodeId(5), 5_000));
/// assert!(!schedule.alive_at(NodeId(5), 20_000));
/// assert!(FaultPlan::default().is_empty());
/// # Ok::<(), ttmqo_sim::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the plan's own sampling (victim choice, crash times).
    /// Independent of the simulation seed: the same plan yields the same
    /// schedule whatever the engine is seeded with.
    pub seed: u64,
    /// Scripted crashes.
    pub crashes: Vec<CrashEvent>,
    /// Randomly sampled crash population.
    pub random_crashes: Option<RandomCrashes>,
    /// Global link-quality degradation windows.
    pub degradations: Vec<LinkDegradation>,
}

impl FaultPlan {
    /// A plan of scripted crashes only: `(node, at_ms, recover_at_ms)`.
    pub fn scripted(crashes: Vec<(NodeId, u64, Option<u64>)>) -> Self {
        FaultPlan {
            crashes: crashes
                .into_iter()
                .map(|(node, at_ms, recover_at_ms)| CrashEvent {
                    node,
                    at_ms,
                    recover_at_ms,
                })
                .collect(),
            ..Self::default()
        }
    }

    /// A plan crashing a sampled fraction of non-base-station nodes within
    /// `[from_ms, until_ms]`, permanently.
    pub fn sampled(seed: u64, fraction: f64, from_ms: u64, until_ms: u64) -> Self {
        FaultPlan {
            seed,
            random_crashes: Some(RandomCrashes {
                fraction,
                from_ms,
                until_ms,
                outage_ms: None,
            }),
            ..Self::default()
        }
    }

    /// Whether the plan injects nothing (the engine stays untouched).
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.random_crashes.is_none() && self.degradations.is_empty()
    }

    /// Whether the plan carries any loss-side element (a degradation
    /// window) that needs the engine's delivery-path overlay.
    pub fn has_loss_elements(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// Expands the plan against a topology into the concrete crash/recovery
    /// timeline. Deterministic: sampling uses only `self.seed`.
    pub fn materialize(&self, topology: &Topology) -> FaultSchedule {
        let mut crashes = self.crashes.clone();
        if let Some(rc) = self.random_crashes {
            let n = topology.node_count();
            let eligible = n.saturating_sub(1); // never sample the base station
            let count =
                ((rc.fraction.clamp(0.0, 1.0) * eligible as f64).round() as usize).min(eligible);
            let mut state = self.seed;
            // Partial Fisher–Yates over node ids 1..n.
            let mut ids: Vec<u16> = (1..n as u16).collect();
            let span = rc.until_ms.saturating_sub(rc.from_ms).max(1);
            for k in 0..count {
                let j = k + (splitmix(&mut state) as usize) % (eligible - k);
                ids.swap(k, j);
                let at_ms = rc.from_ms + splitmix(&mut state) % span;
                crashes.push(CrashEvent {
                    node: NodeId(ids[k]),
                    at_ms,
                    recover_at_ms: rc.outage_ms.map(|o| at_ms + o),
                });
            }
        }
        crashes.sort_by_key(|c| (c.at_ms, c.node));
        FaultSchedule { crashes }
    }

    pub(crate) fn overlay(&self) -> Option<FaultOverlay> {
        if !self.has_loss_elements() {
            return None;
        }
        Some(FaultOverlay {
            degradations: self.degradations.clone(),
        })
    }
}

/// The concrete crash/recovery timeline a [`FaultPlan`] expands to over a
/// topology: scripted crashes verbatim plus the sampled population, sorted
/// by time. This is also the ground truth for completeness accounting —
/// [`FaultSchedule::alive_at`] says which nodes a given epoch could ever
/// have heard from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    crashes: Vec<CrashEvent>,
}

impl FaultSchedule {
    /// The crash timeline, sorted by `(at_ms, node)`.
    pub fn crashes(&self) -> &[CrashEvent] {
        &self.crashes
    }

    /// Whether `node` is up at time `t_ms` under this schedule (ignoring
    /// lost state after a reboot — "up" means powered, not caught up).
    pub fn alive_at(&self, node: NodeId, t_ms: u64) -> bool {
        // Later entries win, so overlapping scripts resolve by timeline order.
        let mut alive = true;
        for c in &self.crashes {
            if c.node != node || c.at_ms > t_ms {
                continue;
            }
            alive = match c.recover_at_ms {
                Some(r) => r <= t_ms,
                None => false,
            };
        }
        alive
    }
}

/// The engine-side view of a plan's loss elements, so the delivery hot
/// path does arithmetic only: window checks are integer compares.
#[derive(Debug)]
pub(crate) struct FaultOverlay {
    degradations: Vec<LinkDegradation>,
}

impl FaultOverlay {
    /// Combines the radio's own loss probability with every degradation
    /// window active at `now_us`.
    pub(crate) fn loss_prob(&self, base: f64, now_us: u64) -> f64 {
        let mut p = base;
        for d in &self.degradations {
            if d.contains(now_us) {
                p = 1.0 - (1.0 - p) * (1.0 - d.added_loss);
            }
        }
        p.clamp(0.0, 1.0)
    }
}

/// The same splitmix64 step the engine uses, duplicated so plan sampling
/// never touches (or depends on) the simulation RNG stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.has_loss_elements());
        let topo = Topology::grid(4).unwrap();
        assert!(plan.materialize(&topo).crashes().is_empty());
        assert!(plan.overlay().is_none());
    }

    #[test]
    fn scripted_crashes_materialize_verbatim_and_sorted() {
        let topo = Topology::grid(4).unwrap();
        let plan = FaultPlan::scripted(vec![
            (NodeId(7), 20_000, None),
            (NodeId(3), 10_000, Some(30_000)),
        ]);
        let s = plan.materialize(&topo);
        assert_eq!(s.crashes().len(), 2);
        assert_eq!(s.crashes()[0].node, NodeId(3)); // sorted by time
        assert!(s.alive_at(NodeId(3), 9_999));
        assert!(!s.alive_at(NodeId(3), 10_000));
        assert!(s.alive_at(NodeId(3), 30_000)); // rebooted
        assert!(!s.alive_at(NodeId(7), 25_000)); // stays dead
    }

    #[test]
    fn sampling_is_deterministic_and_never_kills_the_base_station() {
        let topo = Topology::grid(8).unwrap();
        let plan = FaultPlan::sampled(42, 0.25, 5_000, 50_000);
        let a = plan.materialize(&topo);
        let b = plan.materialize(&topo);
        assert_eq!(a, b);
        // 25% of 63 eligible nodes ≈ 16 victims.
        assert_eq!(a.crashes().len(), 16);
        for c in a.crashes() {
            assert_ne!(c.node, NodeId::BASE_STATION);
            assert!((5_000..55_000).contains(&c.at_ms));
            assert_eq!(c.recover_at_ms, None);
        }
        // Victims are distinct (sampling without replacement).
        let mut victims: Vec<NodeId> = a.crashes().iter().map(|c| c.node).collect();
        victims.sort();
        victims.dedup();
        assert_eq!(victims.len(), 16);
        // A different seed picks a different timeline.
        let other = FaultPlan::sampled(43, 0.25, 5_000, 50_000).materialize(&topo);
        assert_ne!(a, other);
    }

    #[test]
    fn sampled_outage_schedules_recovery() {
        let topo = Topology::grid(4).unwrap();
        let plan = FaultPlan {
            seed: 7,
            random_crashes: Some(RandomCrashes {
                fraction: 0.5,
                from_ms: 1_000,
                until_ms: 2_000,
                outage_ms: Some(10_000),
            }),
            ..FaultPlan::default()
        };
        let s = plan.materialize(&topo);
        assert!(!s.crashes().is_empty());
        for c in s.crashes() {
            assert_eq!(c.recover_at_ms, Some(c.at_ms + 10_000));
            assert!(s.alive_at(c.node, c.at_ms + 10_000));
        }
    }

    #[test]
    fn degradation_window_compounds_loss_independently() {
        let plan = FaultPlan {
            degradations: vec![LinkDegradation {
                from_ms: 10,
                until_ms: 20,
                added_loss: 0.5,
            }],
            ..FaultPlan::default()
        };
        let o = plan.overlay().unwrap();
        // Outside the window: base untouched.
        assert_eq!(o.loss_prob(0.2, 9_999), 0.2);
        assert_eq!(o.loss_prob(0.2, 20_000), 0.2);
        // Inside: 1 − (1−0.2)(1−0.5) = 0.6.
        assert!((o.loss_prob(0.2, 15_000) - 0.6).abs() < 1e-12);
        // Open-ended windows stay active.
        let open = FaultPlan {
            degradations: vec![LinkDegradation {
                from_ms: 0,
                until_ms: u64::MAX,
                added_loss: 1.0,
            }],
            ..FaultPlan::default()
        };
        let o = open.overlay().unwrap();
        assert_eq!(o.loss_prob(0.0, u64::MAX - 1), 1.0);
    }
}
