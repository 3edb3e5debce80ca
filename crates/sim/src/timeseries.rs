//! Windowed per-node time-series metrics.
//!
//! The paper's headline metric — *average* transmission time over nodes
//! (§4.1) — is a network-wide mean over the whole run. It hides exactly what
//! TTMQO's DAG routing and sleep modes are supposed to fix: the energy
//! hotspot around the base station and load imbalance across branches. This
//! module resolves the aggregate [`Metrics`](crate::Metrics) in two extra
//! dimensions:
//!
//! * **time** — counters are bucketed into fixed windows (one base epoch,
//!   2048 ms), so convergence after a fault and epoch-phase structure become
//!   visible;
//! * **space** — every window carries per-node vectors (tx/rx busy, sleep,
//!   samples, energy), plus derived imbalance statistics (max/mean ratio and
//!   the [`gini`] coefficient over per-node transmit time).
//!
//! # Reconciliation invariant
//!
//! The window recorder consumes *the same probe values* the aggregate
//! `Metrics` does, bucketed by event time. Summing any counter
//! over all windows therefore reproduces the aggregate total exactly
//! (integer counters) or up to f64 re-association (time sums). Two
//! consequences are deliberate:
//!
//! * a nap is credited in full to the window in which it was *planned* and
//!   retracted (negative delta) in the window of an early wake, re-plan or
//!   crash — so one window's sleep can exceed the window length or dip
//!   negative while the series total stays exact;
//! * per-window energy uses the *unclamped* idle time
//!   `len − (tx + rx + sleep)`, so window energies telescope to
//!   [`Metrics::total_energy_mj`](crate::Metrics::total_energy_mj) whenever
//!   the aggregate accounting itself does not clamp.
//!
//! Recording never allocates on a per-event basis beyond amortized window
//! growth, and keeps the observer contract stated on
//! [`Observe`](crate::Observe).

use crate::energy::EnergyProfile;
use crate::json;
use crate::probe::Probe;
use crate::radio::MsgKind;
use crate::time::SimTime;
use crate::trace::SCHEMA_VERSION;
use std::collections::BTreeMap;
use ttmqo_query::BASE_EPOCH_MS;

/// Per-window accumulator, one slot per elapsed window.
#[derive(Debug, Clone)]
struct WindowAccum {
    tx_busy_ms: Vec<f64>,
    rx_busy_ms: Vec<f64>,
    sleep_ms: Vec<f64>,
    samples: Vec<u64>,
    tx_frames: Vec<u64>,
    tx_count: BTreeMap<MsgKind, u64>,
    collisions: u64,
    retransmissions: u64,
    losses: u64,
    gave_up: u64,
}

impl WindowAccum {
    fn new(nodes: usize) -> Self {
        WindowAccum {
            tx_busy_ms: vec![0.0; nodes],
            rx_busy_ms: vec![0.0; nodes],
            sleep_ms: vec![0.0; nodes],
            samples: vec![0; nodes],
            tx_frames: vec![0; nodes],
            tx_count: BTreeMap::new(),
            collisions: 0,
            retransmissions: 0,
            losses: 0,
            gave_up: 0,
        }
    }
}

/// Live collector of the probe stream, bucketed by event time. Attached
/// with `Simulator::attach`; `Simulator::detach` finalizes it.
#[derive(Debug, Clone)]
pub(crate) struct WindowRecorder {
    window_us: u64,
    nodes: usize,
    energy: EnergyProfile,
    windows: Vec<WindowAccum>,
}

impl WindowRecorder {
    /// A recorder for `nodes` nodes: one base epoch per window, the default
    /// power profile.
    pub(crate) fn new(nodes: usize) -> Self {
        WindowRecorder {
            window_us: BASE_EPOCH_MS * 1000,
            nodes,
            energy: EnergyProfile::default(),
            windows: Vec::new(),
        }
    }

    fn slot(&mut self, time_us: u64) -> &mut WindowAccum {
        let idx = (time_us / self.window_us) as usize;
        while self.windows.len() <= idx {
            self.windows.push(WindowAccum::new(self.nodes));
        }
        &mut self.windows[idx]
    }

    /// Folds one engine occurrence into the window holding `time_us`. A
    /// nap is credited in full to the window it was planned in; retractions
    /// land, negative, in the window of the wake or crash. Bytes and orphan
    /// drops are not windowed.
    pub(crate) fn apply(&mut self, time_us: u64, probe: Probe) {
        match probe {
            Probe::Tx {
                node,
                kind,
                airtime_us,
                ..
            } => {
                let w = self.slot(time_us);
                w.tx_busy_ms[node.index()] += airtime_us as f64 / 1000.0;
                w.tx_frames[node.index()] += 1;
                *w.tx_count.entry(kind).or_insert(0) += 1;
            }
            Probe::Rx { node, busy_ms } => self.slot(time_us).rx_busy_ms[node.index()] += busy_ms,
            Probe::Sleep { .. } | Probe::Wake { .. } | Probe::Crash { .. } => {
                let (node, ms) = probe.sleep_delta_ms().expect("a sleep probe");
                self.slot(time_us).sleep_ms[node.index()] += ms;
            }
            Probe::Sample { node } => self.slot(time_us).samples[node.index()] += 1,
            Probe::Collision(_) => self.slot(time_us).collisions += 1,
            Probe::Retry { .. } => self.slot(time_us).retransmissions += 1,
            Probe::Lost(_) => self.slot(time_us).losses += 1,
            Probe::GaveUp(_) => self.slot(time_us).gave_up += 1,
            Probe::Delivered { .. }
            | Probe::Missed { .. }
            | Probe::CsmaDeferred { .. }
            | Probe::Recover { .. }
            | Probe::Orphaned { .. } => {}
        }
    }

    /// Closes the series at `horizon` and derives per-window energy and
    /// imbalance statistics. Windows are padded out to the horizon so a
    /// quiet tail still appears (with idle-only energy); the last window is
    /// truncated at the horizon.
    pub(crate) fn finalize(mut self, horizon: SimTime) -> NodeTimeseries {
        let horizon_ms = horizon.as_ms();
        let window_ms = self.window_us / 1000;
        // Pad so that every ms up to the horizon is covered by a window.
        let covering = (horizon_ms.div_ceil(window_ms)).max(1) as usize;
        while self.windows.len() < covering {
            self.windows.push(WindowAccum::new(self.nodes));
        }
        let windows = self
            .windows
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let start_ms = i as u64 * window_ms;
                // Truncate at the horizon; windows past it have length 0 but
                // still carry their counters, so totals stay exact.
                let len_ms = (start_ms + window_ms).min(horizon_ms) - start_ms.min(horizon_ms);
                let energy_mj = (0..self.nodes)
                    .map(|n| {
                        // Unclamped idle keeps window energies telescoping to
                        // the aggregate total (see module docs).
                        let idle_ms =
                            len_ms as f64 - (w.tx_busy_ms[n] + w.rx_busy_ms[n] + w.sleep_ms[n]);
                        (self.energy.tx_mw * w.tx_busy_ms[n]
                            + self.energy.rx_mw * w.rx_busy_ms[n]
                            + self.energy.idle_mw * idle_ms
                            + self.energy.sleep_mw * w.sleep_ms[n])
                            / 1000.0
                            + self.energy.sample_uj * w.samples[n] as f64 / 1000.0
                    })
                    .collect();
                WindowStats {
                    start_ms,
                    len_ms,
                    tx_busy_ms: w.tx_busy_ms,
                    rx_busy_ms: w.rx_busy_ms,
                    sleep_ms: w.sleep_ms,
                    samples: w.samples,
                    tx_frames: w.tx_frames,
                    energy_mj,
                    tx_count: w.tx_count,
                    collisions: w.collisions,
                    retransmissions: w.retransmissions,
                    losses: w.losses,
                    gave_up: w.gave_up,
                }
            })
            .collect();
        NodeTimeseries {
            window_ms,
            nodes: self.nodes,
            horizon_ms,
            windows,
        }
    }
}

/// One finished window of the series: per-node vectors plus window-level
/// event counters, with derived imbalance accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window start, ms.
    pub start_ms: u64,
    /// Window length, ms — shorter than the configured window when truncated
    /// at the horizon, zero for windows entirely past it.
    pub len_ms: u64,
    /// Per-node transmit airtime in this window, ms.
    pub tx_busy_ms: Vec<f64>,
    /// Per-node receive airtime in this window, ms.
    pub rx_busy_ms: Vec<f64>,
    /// Per-node sleep time credited in this window, ms. Naps are credited in
    /// full at plan time and retracted on early wake/crash, so a single
    /// window may exceed its length or dip negative (the series total is
    /// exact).
    pub sleep_ms: Vec<f64>,
    /// Per-node sensor samples taken in this window.
    pub samples: Vec<u64>,
    /// Per-node frames transmitted in this window (all kinds).
    pub tx_frames: Vec<u64>,
    /// Per-node energy over this window, mJ (idle = remainder of the window,
    /// unclamped — see module docs).
    pub energy_mj: Vec<f64>,
    /// Transmissions by message kind in this window (network-wide).
    pub tx_count: BTreeMap<MsgKind, u64>,
    /// Frames corrupted by collisions in this window (per receiver).
    pub collisions: u64,
    /// Retransmissions triggered in this window.
    pub retransmissions: u64,
    /// Frames dropped by the loss model in this window (per receiver).
    pub losses: u64,
    /// Unicast frames abandoned in this window after exhausting retries.
    pub gave_up: u64,
}

impl WindowStats {
    /// Total transmit airtime across all nodes in this window, ms.
    pub fn total_tx_busy_ms(&self) -> f64 {
        self.tx_busy_ms.iter().sum()
    }

    /// Total energy across all nodes in this window, mJ.
    pub fn total_energy_mj(&self) -> f64 {
        self.energy_mj.iter().sum()
    }

    /// Load imbalance as max-over-mean of per-node transmit time: 1.0 means
    /// perfectly balanced, n means one node carries everything. Defined as
    /// 1.0 for a silent window (nothing transmitted is trivially balanced).
    pub fn max_mean_tx_ratio(&self) -> f64 {
        max_mean_ratio(&self.tx_busy_ms)
    }

    /// [`gini`] coefficient over per-node transmit time in this window.
    pub fn gini_tx_busy(&self) -> f64 {
        gini(&self.tx_busy_ms)
    }
}

/// The finished time series: one [`WindowStats`] per window from time zero
/// to the run horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTimeseries {
    /// Window length, ms.
    pub window_ms: u64,
    /// Number of nodes (length of every per-node vector).
    pub nodes: usize,
    /// Run horizon the series was finalized at, ms.
    pub horizon_ms: u64,
    /// The windows, in time order, covering `[0, horizon_ms]`.
    pub windows: Vec<WindowStats>,
}

impl NodeTimeseries {
    /// A node's transmit airtime summed over all windows, ms.
    pub fn node_total_tx_busy_ms(&self, node: usize) -> f64 {
        self.windows.iter().map(|w| w.tx_busy_ms[node]).sum()
    }

    /// Worst (maximum) per-window Gini coefficient over transmit time.
    pub fn peak_gini_tx_busy(&self) -> f64 {
        self.windows
            .iter()
            .map(WindowStats::gini_tx_busy)
            .fold(0.0, f64::max)
    }

    /// Deterministic JSON rendering of the whole series (single object, one
    /// `windows` array), used for the campaign's per-cell timeseries files.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.u64("schema_version", SCHEMA_VERSION as u64);
            o.u64("window_ms", self.window_ms);
            o.u64("nodes", self.nodes as u64);
            o.u64("horizon_ms", self.horizon_ms);
            o.arr("windows", |a| {
                for w in &self.windows {
                    a.obj(|o| {
                        o.u64("start_ms", w.start_ms);
                        o.u64("len_ms", w.len_ms);
                        o.f64s("tx_busy_ms", &w.tx_busy_ms);
                        o.f64s("rx_busy_ms", &w.rx_busy_ms);
                        o.f64s("sleep_ms", &w.sleep_ms);
                        o.f64s("energy_mj", &w.energy_mj);
                        o.u64s("samples", w.samples.iter().copied());
                        o.u64s("tx_frames", w.tx_frames.iter().copied());
                        o.obj("tx_count", |o| {
                            for (kind, n) in &w.tx_count {
                                o.u64(&kind.to_string(), *n);
                            }
                        });
                        o.u64("collisions", w.collisions);
                        o.u64("retransmissions", w.retransmissions);
                        o.u64("losses", w.losses);
                        o.u64("gave_up", w.gave_up);
                        o.f64("max_mean_tx_ratio", w.max_mean_tx_ratio());
                        o.f64("gini_tx_busy", w.gini_tx_busy());
                    });
                }
            });
        })
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

    /// A recorder with a test-sized window.
    fn recorder(nodes: usize, window_ms: u64) -> WindowRecorder {
        WindowRecorder {
            window_us: window_ms * 1000,
            ..WindowRecorder::new(nodes)
        }
    }

    #[test]
    fn run_level_window_is_one_base_epoch() {
        let ts = WindowRecorder::new(1).finalize(SimTime::from_ms(1));
        assert_eq!(ts.window_ms, 2048);
    }

    #[test]
    fn events_bucket_by_time() {
        let mut r = recorder(2, 1000);
        r.apply(0, Probe::tx(0, MsgKind::Result, 0, 5));
        r.apply(999_999, Probe::tx(1, MsgKind::Result, 0, 7));
        r.apply(1_000_000, Probe::tx(0, MsgKind::Maintenance, 0, 11));
        r.apply(2_500_000, Probe::Collision(Reception::ANY));
        let ts = r.finalize(SimTime::from_ms(3000));
        assert_eq!(ts.windows.len(), 3);
        assert_eq!(ts.windows[0].tx_busy_ms, vec![5.0, 7.0]);
        assert_eq!(ts.windows[0].tx_frames, vec![1, 1]);
        assert_eq!(ts.windows[1].tx_busy_ms, vec![11.0, 0.0]);
        assert_eq!(ts.windows[1].tx_count[&MsgKind::Maintenance], 1);
        assert_eq!(ts.windows[2].collisions, 1);
        assert_eq!(ts.windows[2].tx_frames, vec![0, 0]);
    }

    #[test]
    fn finalize_pads_quiet_tail_and_truncates_last_window() {
        let r = recorder(1, 1000);
        let ts = r.finalize(SimTime::from_ms(2500));
        assert_eq!(ts.windows.len(), 3);
        assert_eq!(ts.windows[2].start_ms, 2000);
        assert_eq!(ts.windows[2].len_ms, 500);
        // An idle node burns idle power for exactly the window length.
        let p = EnergyProfile::default();
        assert!((ts.windows[2].energy_mj[0] - p.idle_mw * 500.0 / 1000.0).abs() < 1e-9);
        let total: f64 = (0..3).map(|w| ts.windows[w].energy_mj[0]).sum();
        assert!((total - p.idle_mw * 2500.0 / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn sleep_retraction_can_leave_a_window_negative_but_totals_exact() {
        let mut r = recorder(1, 1000);
        // A 3 s nap planned in window 0; crash in window 2 retracts 1.5 s.
        r.apply(100_000, Probe::nap(0, 3000));
        r.apply(2_500_000, Probe::wake(0, 1_500_000));
        let ts = r.finalize(SimTime::from_ms(3000));
        assert_eq!(ts.windows[0].sleep_ms[0], 3000.0);
        assert_eq!(ts.windows[2].sleep_ms[0], -1500.0);
        let total: f64 = ts.windows.iter().map(|w| w.sleep_ms[0]).sum();
        assert_eq!(total, 1500.0);
        // Energy still telescopes: total = idle(3000−1500) + sleep(1500).
        let p = EnergyProfile::default();
        let energy: f64 = ts.windows.iter().map(|w| w.energy_mj[0]).sum();
        let expect = (p.idle_mw * 1500.0 + p.sleep_mw * 1500.0) / 1000.0;
        assert!((energy - expect).abs() < 1e-9, "{energy} vs {expect}");
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

    #[test]
    fn window_imbalance_accessors() {
        let mut r = recorder(4, 1000);
        r.apply(0, Probe::tx(3, MsgKind::Result, 0, 4));
        let ts = r.finalize(SimTime::from_ms(1000));
        let w = &ts.windows[0];
        assert_eq!(w.max_mean_tx_ratio(), 4.0);
        assert!((w.gini_tx_busy() - 0.75).abs() < 1e-12);
        assert_eq!(ts.peak_gini_tx_busy(), w.gini_tx_busy());
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let mut r = recorder(2, 1000);
        r.apply(0, Probe::tx(0, MsgKind::Result, 0, 5));
        r.apply(500_000, Probe::rx(1, 2.5));
        r.apply(600_000, Probe::Sample { node: NodeId(1) });
        let ts = r.finalize(SimTime::from_ms(1000));
        let a = ts.to_json();
        let b = ts.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION}")));
        assert!(a.contains("\"tx_busy_ms\":[5,0]"));
        assert!(a.contains("\"samples\":[0,1]"));
        assert!(json::parse(&a).is_ok(), "well-formed: {a}");
    }
}
