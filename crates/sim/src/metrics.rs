//! Simulation metrics: the measurements the paper's figures are built from.
//!
//! The headline metric is *average transmission time* — "the average
//! percentage of transmission time spent on each node for all running queries
//! over the simulation time" (§4.1). All radio message kinds count toward it:
//! results, query propagation/abortion, maintenance and retransmissions.
//! The mean hides where that time lands; [`gini`] and [`max_mean_ratio`]
//! measure the imbalance of a per-node load vector.

use crate::energy::EnergyProfile;
use crate::probe::Probe;
use crate::radio::MsgKind;
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use ttmqo_query::QueryId;

/// Largest sleep-accounting error attributable to f64 rounding of µs→ms
/// conversions; anything more negative than this is a logic bug.
const SLEEP_EPSILON_MS: f64 = 1e-6;

/// Per-run accounting of radio and sensing activity.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Per-node time spent transmitting, ms (indexed by node id).
    tx_busy_ms: Vec<f64>,
    /// Per-node time spent receiving, ms.
    rx_busy_ms: Vec<f64>,
    /// Per-node time spent with the radio off, ms.
    sleep_ms: Vec<f64>,
    /// Number of transmissions by kind (retransmissions re-count their
    /// kind), indexed by `kind as usize`.
    tx_count: [u64; MsgKind::ALL.len()],
    /// Payload+header bytes transmitted by kind, indexed the same way.
    tx_bytes: [u64; MsgKind::ALL.len()],
    /// Retransmissions caused by loss or collision.
    retransmissions: u64,
    /// Frames corrupted by collisions (counted per receiver).
    collisions: u64,
    /// Frames dropped by the random loss model (counted per receiver).
    losses: u64,
    /// Unicast frames abandoned after exhausting retries.
    gave_up: u64,
    /// Results dropped at nodes that had data but no live route toward the
    /// base station (orphaned by upstream failures).
    orphaned_drops: u64,
    /// Which nodes ever orphan-dropped (indexed by node id).
    orphaned: Vec<bool>,
    /// Acquisition rows, one per query, the base station dropped because
    /// their epoch was not open.
    late_rows: u64,
    /// Partials entries, one per query, dropped the same way.
    late_partials: u64,
    /// Number of sensor samples taken.
    samples: u64,
    /// End of the measured window.
    horizon: SimTime,
}

impl Metrics {
    /// Fresh metrics for a network of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Metrics {
            tx_busy_ms: vec![0.0; nodes],
            rx_busy_ms: vec![0.0; nodes],
            sleep_ms: vec![0.0; nodes],
            orphaned: vec![false; nodes],
            ..Default::default()
        }
    }

    /// Folds one engine occurrence into the run totals.
    ///
    /// Sleep is the subtle one. Every negative correction retracts part of
    /// a nap that was credited in full when it was planned, so the running
    /// total can only dip below zero through f64 rounding in the µs→ms
    /// conversions — never by a material amount. A large negative
    /// correction would silently discard sleep time and skew
    /// `avg_transmission_time_pct`'s energy companion metrics, so it is
    /// asserted against instead of clamped away.
    #[inline(always)]
    pub(crate) fn apply(&mut self, probe: Probe) {
        match probe {
            Probe::Tx {
                node,
                kind,
                bytes,
                airtime_us,
                ..
            } => {
                self.tx_busy_ms[node.index()] += airtime_us as f64 / 1000.0;
                self.tx_count[kind as usize] += 1;
                self.tx_bytes[kind as usize] += bytes as u64;
            }
            Probe::Rx { node, busy_ms } => self.rx_busy_ms[node.index()] += busy_ms,
            Probe::Sleep { .. } | Probe::Wake { .. } | Probe::Crash { .. } => {
                let (node, ms) = probe.sleep_delta_ms().expect("a sleep probe");
                let slept = &mut self.sleep_ms[node.index()];
                let updated = *slept + ms;
                debug_assert!(
                    updated >= -SLEEP_EPSILON_MS,
                    "sleep accounting underflow on node {node}: {slept} ms adjusted by {ms} ms",
                );
                *slept = updated.max(0.0);
            }
            Probe::Retry { .. } => self.retransmissions += 1,
            Probe::Collision(_) => self.collisions += 1,
            Probe::Lost(_) => self.losses += 1,
            Probe::GaveUp(_) => self.gave_up += 1,
            Probe::Orphaned { node } => {
                self.orphaned_drops += 1;
                if let Some(slot) = self.orphaned.get_mut(node.index()) {
                    *slot = true;
                }
            }
            Probe::Late { partials: false } => self.late_rows += 1,
            Probe::Late { partials: true } => self.late_partials += 1,
            Probe::Sample => self.samples += 1,
            Probe::Delivered { .. }
            | Probe::Missed { .. }
            | Probe::CsmaDeferred { .. }
            | Probe::Recover { .. } => {}
        }
    }

    pub(crate) fn set_horizon(&mut self, t: SimTime) {
        self.horizon = self.horizon.max(t);
    }

    /// The paper's headline metric: mean over nodes of (time spent
    /// transmitting ÷ simulated time), as a percentage.
    ///
    /// Returns 0.0 before any time has elapsed.
    pub fn avg_transmission_time_pct(&self) -> f64 {
        let duration = self.horizon.as_ms() as f64;
        if duration <= 0.0 || self.tx_busy_ms.is_empty() {
            return 0.0;
        }
        let mean_busy: f64 = self.tx_busy_ms.iter().sum::<f64>() / self.tx_busy_ms.len() as f64;
        100.0 * mean_busy / duration
    }

    /// Total transmitting time across all nodes, ms.
    pub fn total_tx_busy_ms(&self) -> f64 {
        self.tx_busy_ms.iter().sum()
    }

    /// A node's transmitting time, ms.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_tx_busy_ms(&self, node: usize) -> f64 {
        self.tx_busy_ms[node]
    }

    /// Total receiving time across all nodes, ms.
    pub fn total_rx_busy_ms(&self) -> f64 {
        self.rx_busy_ms.iter().sum()
    }

    /// Number of transmissions of the given kind.
    pub fn tx_count(&self, kind: MsgKind) -> u64 {
        self.tx_count[kind as usize]
    }

    /// Total number of transmissions of all kinds.
    pub fn tx_count_total(&self) -> u64 {
        self.tx_count.iter().sum()
    }

    /// Bytes transmitted of the given kind (headers included).
    pub fn tx_bytes(&self, kind: MsgKind) -> u64 {
        self.tx_bytes[kind as usize]
    }

    /// Retransmissions caused by loss or collision.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Frames corrupted by collisions, per receiver.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Frames dropped by the random loss model, per receiver.
    pub fn losses(&self) -> u64 {
        self.losses
    }

    /// Unicast frames abandoned after exhausting retries.
    pub fn gave_up(&self) -> u64 {
        self.gave_up
    }

    /// Results dropped at nodes with data but no live route toward the base
    /// station.
    pub fn orphaned_drops(&self) -> u64 {
        self.orphaned_drops
    }

    /// Number of distinct nodes that ever orphan-dropped a result.
    pub fn orphaned_node_count(&self) -> u64 {
        self.orphaned.iter().filter(|&&o| o).count() as u64
    }

    /// Acquisition rows the base station dropped, one per query, because
    /// they arrived for an epoch it had closed or of a query it had aborted.
    pub fn late_rows(&self) -> u64 {
        self.late_rows
    }

    /// Partials entries the base station dropped the same way.
    pub fn late_partials(&self) -> u64 {
        self.late_partials
    }

    /// Sensor samples taken.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Total time spent asleep across all nodes, ms.
    pub fn total_sleep_ms(&self) -> f64 {
        self.sleep_ms.iter().sum()
    }

    /// A node's accumulated sleep time, ms.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_sleep_ms(&self, node: usize) -> f64 {
        self.sleep_ms[node]
    }

    /// Whole-network energy over the measured window, millijoules, under the
    /// given power profile. Sensing nodes' idle-listening time is whatever is
    /// left of the horizon after transmit, receive and sleep.
    pub fn total_energy_mj(&self, profile: &EnergyProfile) -> f64 {
        let horizon = self.horizon.as_ms() as f64;
        let per_node: f64 = (0..self.tx_busy_ms.len())
            .map(|n| {
                profile.node_energy_mj(
                    horizon,
                    self.tx_busy_ms[n],
                    self.rx_busy_ms[n],
                    self.sleep_ms[n],
                    0.0,
                )
            })
            .sum();
        per_node + profile.sample_uj * self.samples as f64 / 1000.0
    }

    /// One node's energy over the measured window, millijoules, under the
    /// given power profile (sampling energy excluded — it is accounted
    /// globally, see [`Metrics::total_energy_mj`]).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_energy_mj(&self, profile: &EnergyProfile, node: usize) -> f64 {
        profile.node_energy_mj(
            self.horizon.as_ms() as f64,
            self.tx_busy_ms[node],
            self.rx_busy_ms[node],
            self.sleep_ms[node],
            0.0,
        )
    }

    /// The hottest node's energy over the measured window, millijoules — the
    /// hotspot metric the network-wide mean hides. 0.0 for an empty network.
    pub fn max_node_energy_mj(&self, profile: &EnergyProfile) -> f64 {
        (0..self.tx_busy_ms.len())
            .map(|n| self.node_energy_mj(profile, n))
            .fold(0.0, f64::max)
    }

    /// End of the measured window.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// A cheap, plain-data summary of the current counters, suitable for
    /// cross-thread collection and serialization. Per-node vectors are
    /// reduced to totals; everything else is copied verbatim, so two
    /// bit-identical runs yield `==` snapshots.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // A kind is a key of both maps iff a frame of it was ever sent.
        let sent = |slots: &[u64; MsgKind::ALL.len()]| {
            let kinds = MsgKind::ALL.into_iter().filter(|&k| self.tx_count(k) != 0);
            kinds.map(|k| (k, slots[k as usize])).collect()
        };
        MetricsSnapshot {
            avg_transmission_time_pct: self.avg_transmission_time_pct(),
            total_tx_busy_ms: self.total_tx_busy_ms(),
            total_rx_busy_ms: self.total_rx_busy_ms(),
            total_sleep_ms: self.total_sleep_ms(),
            tx_count: sent(&self.tx_count),
            tx_bytes: sent(&self.tx_bytes),
            retransmissions: self.retransmissions,
            collisions: self.collisions,
            losses: self.losses,
            gave_up: self.gave_up,
            orphaned_drops: self.orphaned_drops,
            orphaned_nodes: self.orphaned_node_count(),
            samples: self.samples,
            horizon_ms: self.horizon.as_ms(),
        }
    }
}

/// Plain-data summary of a run's [`Metrics`], cheap to clone across threads
/// and to serialize into campaign reports.
///
/// Produced by [`Metrics::snapshot`]. Two runs with identical event streams
/// produce `==` snapshots (f64 fields included: the simulation is
/// deterministic down to the arithmetic, not just statistically).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The paper's headline metric (§4.1), percent.
    pub avg_transmission_time_pct: f64,
    /// Total transmitting time across all nodes, ms.
    pub total_tx_busy_ms: f64,
    /// Total receiving time across all nodes, ms.
    pub total_rx_busy_ms: f64,
    /// Total sleep time across all nodes, ms.
    pub total_sleep_ms: f64,
    /// Transmissions by message kind.
    pub tx_count: BTreeMap<MsgKind, u64>,
    /// Bytes transmitted by message kind (headers included).
    pub tx_bytes: BTreeMap<MsgKind, u64>,
    /// Retransmissions caused by loss or collision.
    pub retransmissions: u64,
    /// Frames corrupted by collisions, per receiver.
    pub collisions: u64,
    /// Frames dropped by the random loss model, per receiver.
    pub losses: u64,
    /// Unicast frames abandoned after exhausting retries.
    pub gave_up: u64,
    /// Results dropped at nodes with data but no live route to the base
    /// station.
    pub orphaned_drops: u64,
    /// Distinct nodes that ever orphan-dropped a result.
    pub orphaned_nodes: u64,
    /// Sensor samples taken.
    pub samples: u64,
    /// End of the measured window, ms.
    pub horizon_ms: u64,
}

impl MetricsSnapshot {
    /// Total number of transmissions of all kinds.
    pub fn tx_count_total(&self) -> u64 {
        self.tx_count.values().sum()
    }
}

/// Answer-completeness accounting for one user query: how much of what the
/// network *should* have delivered actually reached the outside world.
///
/// Two levels of strictness:
///
/// * **epoch completeness** — the fraction of expected result epochs for
///   which a *non-empty* answer was delivered (the base station closes every
///   epoch and emits an answer even when nothing arrived, so an empty answer
///   is indistinguishable from total upstream loss). Expected epochs only
///   count epochs where at least one statically matching node was alive.
/// * **row completeness** — delivered result rows over the rows the
///   statically matching, *surviving* nodes would have produced. This is
///   the metric that degrades when subtrees are orphaned and recovers when
///   routes heal.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryCompleteness {
    /// Result epochs the query should have produced over its live window.
    pub expected_epochs: u64,
    /// Epochs for which a non-empty answer was delivered.
    pub answered_epochs: u64,
    /// Rows expected from statically matching nodes alive at each epoch.
    pub expected_rows: u64,
    /// Rows actually delivered in the query's answers.
    pub delivered_rows: u64,
}

impl QueryCompleteness {
    /// `answered_epochs / expected_epochs` (1.0 when nothing was expected).
    pub fn epoch_ratio(&self) -> f64 {
        if self.expected_epochs == 0 {
            1.0
        } else {
            self.answered_epochs as f64 / self.expected_epochs as f64
        }
    }

    /// `delivered_rows / expected_rows` (1.0 when nothing was expected).
    /// Can exceed 1.0 when a query's predicate admits rows the static
    /// expectation did not count; callers typically clamp for display.
    pub fn row_ratio(&self) -> f64 {
        if self.expected_rows == 0 {
            1.0
        } else {
            self.delivered_rows as f64 / self.expected_rows as f64
        }
    }
}

/// Run-level completeness and repair accounting, produced by the experiment
/// runner and carried in its `RunReport`. Plain data with `PartialEq`:
/// two bit-identical runs yield `==` reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompletenessReport {
    /// Per user query accounting.
    pub per_query: BTreeMap<QueryId, QueryCompleteness>,
    /// Tier-1 re-optimizations triggered by the base station's missing-result
    /// detector.
    pub repairs_triggered: u64,
    /// For each triggered repair, the delay until the first subsequent
    /// answer of the repaired query, ms (repair latency).
    pub repair_latency_ms: Vec<u64>,
}

impl CompletenessReport {
    /// The worst per-query epoch completeness (1.0 for an empty report).
    pub fn min_epoch_ratio(&self) -> f64 {
        self.per_query
            .values()
            .map(QueryCompleteness::epoch_ratio)
            .fold(1.0, f64::min)
    }

    /// The worst per-query row completeness (1.0 for an empty report).
    pub fn min_row_ratio(&self) -> f64 {
        self.per_query
            .values()
            .map(QueryCompleteness::row_ratio)
            .fold(1.0, f64::min)
    }

    /// Mean repair latency over triggered repairs, ms (`None` if none
    /// completed).
    pub fn mean_repair_latency_ms(&self) -> Option<f64> {
        if self.repair_latency_ms.is_empty() {
            return None;
        }
        Some(
            self.repair_latency_ms.iter().sum::<u64>() as f64 / self.repair_latency_ms.len() as f64,
        )
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "avg transmission time: {:.4}% over {}",
            self.avg_transmission_time_pct(),
            self.horizon
        )?;
        for kind in MsgKind::ALL {
            let c = self.tx_count(kind);
            if c > 0 {
                writeln!(f, "  {kind}: {c} msgs, {} bytes", self.tx_bytes(kind))?;
            }
        }
        writeln!(
            f,
            "  retransmissions: {}, collisions: {}, losses: {}, samples: {}",
            self.retransmissions, self.collisions, self.losses, self.samples
        )?;
        write!(
            f,
            "  late at the base station: {} rows, {} partials",
            self.late_rows, self.late_partials
        )
    }
}

/// Max-over-mean ratio of a load vector: 1.0 for perfectly balanced (or
/// empty/all-zero) load, up to `n` when one element carries everything.
pub fn max_mean_ratio(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    if values.is_empty() || sum <= 0.0 {
        return 1.0;
    }
    let mean = sum / values.len() as f64;
    values.iter().fold(0.0_f64, |m, &v| m.max(v)) / mean
}

/// Gini coefficient of a non-negative load vector: 0.0 for perfectly equal
/// load (including all-zero and empty vectors), approaching 1.0 as the load
/// concentrates on a single element.
pub fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    let sum: f64 = values.iter().sum();
    if n == 0 || sum <= 0.0 {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("load values are comparable"));
    // G = (2·Σᵢ i·xᵢ)/(n·Σx) − (n+1)/n with 1-based ranks over the sorted
    // values — the standard mean-absolute-difference form.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f64 + 1.0) * v)
        .sum();
    (2.0 * weighted) / (n as f64 * sum) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Reception;
    use crate::topology::NodeId;

    const RETRY: Probe = Probe::Retry {
        at: Reception::ANY,
        retries_left: 0,
    };
    const COLLISION: Probe = Probe::Collision(Reception::ANY);
    const LOST: Probe = Probe::Lost(Reception::ANY);
    const GAVE_UP: Probe = Probe::GaveUp(Reception::ANY);

    #[test]
    fn avg_transmission_time_is_mean_node_duty_cycle() {
        let mut m = Metrics::new(2);
        m.apply(Probe::tx(0, MsgKind::Result, 30, 100));
        m.apply(Probe::tx(1, MsgKind::Result, 30, 300));
        m.set_horizon(SimTime::from_ms(1000));
        // node duty cycles 10% and 30% → mean 20%.
        assert!((m.avg_transmission_time_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_yields_zero() {
        let m = Metrics::new(4);
        assert_eq!(m.avg_transmission_time_pct(), 0.0);
    }

    #[test]
    fn counters_accumulate_by_kind() {
        let mut m = Metrics::new(1);
        m.apply(Probe::tx(0, MsgKind::Result, 10, 1));
        m.apply(Probe::tx(0, MsgKind::Result, 20, 1));
        m.apply(Probe::tx(0, MsgKind::Maintenance, 5, 1));
        assert_eq!(m.tx_count(MsgKind::Result), 2);
        assert_eq!(m.tx_bytes(MsgKind::Result), 30);
        assert_eq!(m.tx_count(MsgKind::Maintenance), 1);
        assert_eq!(m.tx_count(MsgKind::QueryAbort), 0);
        assert_eq!(m.tx_count_total(), 3);
        // The slot of a kind is its place in `MsgKind::ALL`.
        assert_eq!(MsgKind::ALL.map(|k| k as usize), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn event_counters() {
        let mut m = Metrics::new(1);
        m.apply(RETRY);
        m.apply(COLLISION);
        m.apply(COLLISION);
        m.apply(LOST);
        m.apply(GAVE_UP);
        m.apply(Probe::Sample);
        m.apply(Probe::Late { partials: false });
        m.apply(Probe::Late { partials: true });
        m.apply(Probe::Late { partials: true });
        assert_eq!(m.retransmissions(), 1);
        assert_eq!(m.collisions(), 2);
        assert_eq!(m.losses(), 1);
        assert_eq!(m.gave_up(), 1);
        assert_eq!(m.samples(), 1);
        assert_eq!((m.late_rows(), m.late_partials()), (1, 2));
    }

    #[test]
    fn sleep_accumulates_and_retracts() {
        let mut m = Metrics::new(2);
        m.apply(Probe::nap(0, 500)); // plan a 500 ms nap
        m.apply(Probe::wake(0, 200_000)); // early wake retracts the unspent 200 ms
        m.apply(Probe::nap(1, 100));
        assert!((m.node_sleep_ms(0) - 300.0).abs() < 1e-9);
        assert!((m.total_sleep_ms() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn sleep_tolerates_rounding_epsilon() {
        let mut m = Metrics::new(1);
        // µs→ms double rounding can retract a hair more than was credited:
        // 1 − 0.9 − 0.1 is −2.8e-17 in f64.
        m.apply(Probe::nap(0, 1));
        m.apply(Probe::Sleep {
            node: NodeId(0),
            duration_ms: 0,
            pending_us: 900,
        });
        assert!(m.node_sleep_ms(0) < 0.1);
        m.apply(Probe::wake(0, 100));
        assert_eq!(m.node_sleep_ms(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "sleep accounting underflow")]
    #[cfg(debug_assertions)]
    fn sleep_underflow_is_a_bug() {
        let mut m = Metrics::new(1);
        m.apply(Probe::nap(0, 100));
        // Retracting more than was ever credited is a logic error, not
        // rounding; it must not be silently clamped away.
        m.apply(Probe::wake(0, 500_000));
    }

    #[test]
    fn snapshot_mirrors_counters() {
        let mut m = Metrics::new(2);
        m.apply(Probe::tx(0, MsgKind::Result, 30, 100));
        m.apply(Probe::tx(1, MsgKind::Maintenance, 8, 50));
        m.apply(Probe::rx(0, 40.0));
        m.apply(Probe::nap(1, 700));
        m.apply(RETRY);
        m.apply(LOST);
        m.apply(Probe::Sample);
        m.set_horizon(SimTime::from_ms(1000));
        let s = m.snapshot();
        assert_eq!(s.avg_transmission_time_pct, m.avg_transmission_time_pct());
        assert_eq!(s.total_tx_busy_ms, 150.0);
        assert_eq!(s.total_rx_busy_ms, 40.0);
        assert_eq!(s.total_sleep_ms, 700.0);
        assert_eq!(s.tx_count[&MsgKind::Result], 1);
        assert_eq!(s.tx_bytes[&MsgKind::Maintenance], 8);
        assert_eq!(s.tx_count_total(), 2);
        assert_eq!(s.retransmissions, 1);
        assert_eq!(s.losses, 1);
        assert_eq!(s.samples, 1);
        assert_eq!(s.horizon_ms, 1000);
        // Snapshots of identical metric states compare equal.
        assert_eq!(s, m.snapshot());
        assert_ne!(s, Metrics::new(2).snapshot());
    }

    /// Compile-enforced completeness: every counter `Metrics` holds must
    /// surface in `MetricsSnapshot`, except the two late-result counters,
    /// which stay out of the snapshot (and of the campaign JSON it feeds)
    /// until a schema change carries them. Both structs are destructured
    /// without `..`, so adding a field to either one without teaching
    /// `snapshot()` (and this test) about it fails to compile — the orphan
    /// counters were once added to `Metrics` ahead of the snapshot struct,
    /// and this is the guard against that recurring.
    #[test]
    fn snapshot_carries_every_metrics_field() {
        let mut m = Metrics::new(3);
        m.apply(Probe::tx(0, MsgKind::Result, 30, 100));
        m.apply(Probe::rx(1, 40.0));
        m.apply(Probe::nap(2, 700));
        m.apply(RETRY);
        m.apply(COLLISION);
        m.apply(LOST);
        m.apply(GAVE_UP);
        m.apply(Probe::Orphaned { node: NodeId(1) });
        m.apply(Probe::Sample);
        m.set_horizon(SimTime::from_ms(1000));

        // Exhaustive: a new private field in Metrics breaks this pattern.
        let Metrics {
            tx_busy_ms,
            rx_busy_ms,
            sleep_ms,
            tx_count,
            tx_bytes,
            retransmissions,
            collisions,
            losses,
            gave_up,
            orphaned_drops,
            orphaned,
            late_rows,
            late_partials,
            samples,
            horizon,
        } = m.clone();

        // Exhaustive: a new public field in MetricsSnapshot breaks this one.
        let MetricsSnapshot {
            avg_transmission_time_pct,
            total_tx_busy_ms,
            total_rx_busy_ms,
            total_sleep_ms,
            tx_count: snap_tx_count,
            tx_bytes: snap_tx_bytes,
            retransmissions: snap_retransmissions,
            collisions: snap_collisions,
            losses: snap_losses,
            gave_up: snap_gave_up,
            orphaned_drops: snap_orphaned_drops,
            orphaned_nodes,
            samples: snap_samples,
            horizon_ms,
        } = m.snapshot();

        assert_eq!(avg_transmission_time_pct, m.avg_transmission_time_pct());
        assert_eq!(total_tx_busy_ms, tx_busy_ms.iter().sum::<f64>());
        assert_eq!(total_rx_busy_ms, rx_busy_ms.iter().sum::<f64>());
        assert_eq!(total_sleep_ms, sleep_ms.iter().sum::<f64>());
        let result_only = |slots: [u64; 5]| BTreeMap::from([(MsgKind::Result, slots[0])]);
        assert_eq!(snap_tx_count, result_only(tx_count));
        assert_eq!(snap_tx_bytes, result_only(tx_bytes));
        assert_eq!((&tx_count[1..], &tx_bytes[1..]), (&[0; 4][..], &[0; 4][..]));
        assert_eq!(snap_retransmissions, retransmissions);
        assert_eq!(snap_collisions, collisions);
        assert_eq!(snap_losses, losses);
        assert_eq!(snap_gave_up, gave_up);
        assert_eq!(snap_orphaned_drops, orphaned_drops);
        assert_eq!(
            orphaned_nodes,
            orphaned.iter().filter(|&&o| o).count() as u64
        );
        assert_eq!(snap_samples, samples);
        assert_eq!(horizon_ms, horizon.as_ms());
        assert_eq!(
            (late_rows, late_partials),
            (m.late_rows(), m.late_partials())
        );
    }

    #[test]
    fn orphan_counters_track_drops_and_distinct_nodes() {
        let mut m = Metrics::new(4);
        m.apply(Probe::Orphaned { node: NodeId(2) });
        m.apply(Probe::Orphaned { node: NodeId(2) });
        m.apply(Probe::Orphaned { node: NodeId(3) });
        assert_eq!(m.orphaned_drops(), 3);
        assert_eq!(m.orphaned_node_count(), 2);
        let s = m.snapshot();
        assert_eq!(s.orphaned_drops, 3);
        assert_eq!(s.orphaned_nodes, 2);
    }

    #[test]
    fn completeness_ratios() {
        let q = QueryCompleteness {
            expected_epochs: 10,
            answered_epochs: 9,
            expected_rows: 40,
            delivered_rows: 30,
        };
        assert!((q.epoch_ratio() - 0.9).abs() < 1e-12);
        assert!((q.row_ratio() - 0.75).abs() < 1e-12);
        // Nothing expected => complete by definition.
        let empty = QueryCompleteness::default();
        assert_eq!(empty.epoch_ratio(), 1.0);
        assert_eq!(empty.row_ratio(), 1.0);

        let mut report = CompletenessReport::default();
        assert_eq!(report.min_epoch_ratio(), 1.0);
        assert_eq!(report.mean_repair_latency_ms(), None);
        report.per_query.insert(QueryId(1), q);
        report
            .per_query
            .insert(QueryId(2), QueryCompleteness::default());
        assert!((report.min_epoch_ratio() - 0.9).abs() < 1e-12);
        assert!((report.min_row_ratio() - 0.75).abs() < 1e-12);
        report.repairs_triggered = 2;
        report.repair_latency_ms = vec![1000, 3000];
        assert_eq!(report.mean_repair_latency_ms(), Some(2000.0));
    }

    #[test]
    fn per_node_energy_sums_to_the_total_and_finds_the_hotspot() {
        let p = EnergyProfile::default();
        let mut m = Metrics::new(3);
        m.apply(Probe::tx(0, MsgKind::Result, 30, 400)); // the hotspot
        m.apply(Probe::tx(1, MsgKind::Result, 30, 10));
        m.apply(Probe::rx(2, 50.0));
        m.apply(Probe::nap(1, 500));
        m.apply(Probe::Sample);
        m.set_horizon(SimTime::from_ms(1000));
        let per_node: f64 = (0..3).map(|n| m.node_energy_mj(&p, n)).sum();
        let sample_mj = p.sample_uj / 1000.0;
        assert!((per_node + sample_mj - m.total_energy_mj(&p)).abs() < 1e-9);
        assert_eq!(m.max_node_energy_mj(&p), m.node_energy_mj(&p, 0));
        assert!(m.max_node_energy_mj(&p) > m.node_energy_mj(&p, 1));
        assert_eq!(Metrics::new(0).max_node_energy_mj(&p), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let mut m = Metrics::new(1);
        m.apply(Probe::tx(0, MsgKind::Result, 10, 1));
        m.set_horizon(SimTime::from_ms(10));
        let s = m.to_string();
        assert!(s.contains("avg transmission time"));
        assert!(s.contains("result"));
    }

    #[test]
    fn gini_known_values() {
        // Perfect equality.
        assert_eq!(gini(&[1.0, 1.0, 1.0, 1.0]), 0.0);
        // All load on one of n elements → (n−1)/n.
        assert!((gini(&[0.0, 0.0, 0.0, 4.0]) - 0.75).abs() < 1e-12);
        // Order must not matter.
        assert!((gini(&[4.0, 0.0, 0.0, 0.0]) - 0.75).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        // A known intermediate case: [1,2,3,4] → G = 0.25.
        assert!((gini(&[1.0, 2.0, 3.0, 4.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_mean_ratio_known_values() {
        assert_eq!(max_mean_ratio(&[2.0, 2.0]), 1.0);
        assert_eq!(max_mean_ratio(&[0.0, 4.0]), 2.0);
        assert_eq!(max_mean_ratio(&[]), 1.0);
        assert_eq!(max_mean_ratio(&[0.0, 0.0]), 1.0);
    }
}
