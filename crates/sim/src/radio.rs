//! Radio model: message kinds, destinations and transmission cost parameters.

use crate::topology::NodeId;
use std::fmt;

/// Categories of radio traffic, matching the paper's accounting: "radio
/// messages consist of query result transmission messages, query propagation
/// and abortion messages, and periodical network maintenance messages".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKind {
    /// Query result (rows or partial aggregates) flowing toward the base
    /// station.
    Result,
    /// Query dissemination flooding away from the base station.
    QueryPropagation,
    /// Query abortion notice flooding away from the base station.
    QueryAbort,
    /// Periodic network maintenance beacon.
    Maintenance,
    /// A sleeping node's wake-up announcement (§3.2.2).
    Wakeup,
}

impl MsgKind {
    /// All kinds, in canonical order.
    pub const ALL: [MsgKind; 5] = [
        MsgKind::Result,
        MsgKind::QueryPropagation,
        MsgKind::QueryAbort,
        MsgKind::Maintenance,
        MsgKind::Wakeup,
    ];
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgKind::Result => "result",
            MsgKind::QueryPropagation => "query-propagation",
            MsgKind::QueryAbort => "query-abort",
            MsgKind::Maintenance => "maintenance",
            MsgKind::Wakeup => "wakeup",
        };
        f.write_str(s)
    }
}

/// Intended recipients of a transmission.
///
/// Every transmission is physically a broadcast; the destination selects who
/// *processes* the frame. The TTMQO in-network tier exploits this by
/// multicasting one result frame to several chosen parents (§3.2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Destination {
    /// All in-range neighbours process the frame.
    Broadcast,
    /// Exactly one neighbour processes the frame (retransmitted on loss).
    Unicast(NodeId),
    /// A chosen set of neighbours process the frame.
    Multicast(Vec<NodeId>),
}

impl Destination {
    /// Whether `node` is an intended recipient (given it is in radio range).
    pub fn includes(&self, node: NodeId) -> bool {
        match self {
            Destination::Broadcast => true,
            Destination::Unicast(d) => *d == node,
            Destination::Multicast(ds) => ds.contains(&node),
        }
    }
}

/// Radio cost and reliability parameters.
///
/// The transmission cost of a frame is `startup_ms + per_byte_ms · bytes`
/// (the paper's `C_start + C_trans · len`). Defaults model a CC1000-class
/// 38.4 kbps mote radio: ~0.2 ms/byte and a 4 ms startup (preamble + MAC).
///
/// # Examples
///
/// ```
/// use ttmqo_sim::RadioParams;
///
/// let r = RadioParams::default();
/// assert!(r.tx_time_ms(36) > r.startup_ms);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RadioParams {
    /// Fixed per-transmission startup cost, ms (`C_start`).
    pub startup_ms: f64,
    /// Per-byte transmission cost, ms (`C_trans`).
    pub per_byte_ms: f64,
    /// Independent per-receiver probability of losing a frame, in `[0, 1]`.
    /// The paper's experiments assume a lossless environment (0.0).
    pub loss_rate: f64,
    /// Whether reception degrades with distance: the per-receiver loss
    /// probability becomes `loss_rate + (1 - loss_rate) · (d / range)⁴`,
    /// approximating the sharp packet-reception falloff of real motes near
    /// the edge of their range.
    pub distance_loss: bool,
    /// Whether two frames overlapping in time at a common receiver corrupt
    /// each other there (packet-level collision model).
    pub collisions: bool,
    /// Maximum retransmissions of a unicast frame after loss or collision.
    pub max_retries: u32,
    /// Carrier-sense deferral budget per transmission attempt. Each deferral
    /// jumps the sender's start time past one audible frame; past the budget
    /// the sender gives up sensing and transmits anyway, accepting a
    /// possible collision — the give-up real CSMA backoff performs. Bounds
    /// the sensing loop under pathological backlogs of queued future frames.
    pub csma_max_deferrals: u32,
}

impl Default for RadioParams {
    fn default() -> Self {
        RadioParams {
            startup_ms: 4.0,
            per_byte_ms: 0.2,
            loss_rate: 0.0,
            distance_loss: false,
            collisions: true,
            max_retries: 3,
            csma_max_deferrals: 32,
        }
    }
}

impl RadioParams {
    /// Frame header bytes charged on every transmission (source, destination
    /// bitmap, kind, CRC).
    pub const HEADER_BYTES: usize = 7;

    /// Lossless, collision-free radio — the paper's stated assumption for the
    /// cost model itself.
    pub fn lossless() -> Self {
        RadioParams {
            loss_rate: 0.0,
            distance_loss: false,
            collisions: false,
            ..Self::default()
        }
    }

    /// Effective per-receiver loss probability at distance `d` for a radio
    /// with range `range`.
    pub fn loss_at(&self, d: f64, range: f64) -> f64 {
        if !self.distance_loss {
            return self.loss_rate;
        }
        let frac = (d / range).clamp(0.0, 1.0).powi(4);
        (self.loss_rate + (1.0 - self.loss_rate) * frac).min(1.0)
    }

    /// Time to push a frame with `payload_bytes` of payload onto the air, ms.
    pub fn tx_time_ms(&self, payload_bytes: usize) -> f64 {
        self.startup_ms + self.per_byte_ms * (Self::HEADER_BYTES + payload_bytes) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn destination_includes() {
        let n1 = NodeId(1);
        let n2 = NodeId(2);
        assert!(Destination::Broadcast.includes(n1));
        assert!(Destination::Unicast(n1).includes(n1));
        assert!(!Destination::Unicast(n1).includes(n2));
        let m = Destination::Multicast(vec![n1, n2]);
        assert!(m.includes(n1) && m.includes(n2));
        assert!(!m.includes(NodeId(3)));
    }

    #[test]
    fn tx_time_is_affine_in_length() {
        let r = RadioParams::default();
        let t0 = r.tx_time_ms(0);
        let t10 = r.tx_time_ms(10);
        let t20 = r.tx_time_ms(20);
        assert!((t20 - t10 - (t10 - t0)).abs() < 1e-12);
        assert_eq!(t0, 4.0 + 0.2 * 7.0);
    }

    #[test]
    fn lossless_disables_failures() {
        let r = RadioParams::lossless();
        assert_eq!(r.loss_rate, 0.0);
        assert!(!r.collisions);
    }

    #[test]
    fn loss_at_matches_quartic_falloff_formula() {
        let r = RadioParams {
            loss_rate: 0.2,
            distance_loss: true,
            ..RadioParams::default()
        };
        // loss_rate + (1 − loss_rate)·(d/range)⁴ at a few exact points.
        assert_eq!(r.loss_at(0.0, 50.0), 0.2);
        assert!((r.loss_at(25.0, 50.0) - (0.2 + 0.8 * 0.0625)).abs() < 1e-12);
        assert!((r.loss_at(50.0, 50.0) - 1.0).abs() < 1e-12);
        // Beyond range the ratio clamps to 1 → certain loss, never > 1.
        assert_eq!(r.loss_at(80.0, 50.0), 1.0);
        // A pure distance model (no base loss) keeps the quartic shape.
        let pure = RadioParams {
            loss_rate: 0.0,
            distance_loss: true,
            ..RadioParams::default()
        };
        assert_eq!(pure.loss_at(0.0, 50.0), 0.0);
        assert!((pure.loss_at(40.0, 50.0) - 0.8f64.powi(4)).abs() < 1e-12);
    }

    #[test]
    fn loss_at_without_distance_model_is_flat() {
        let r = RadioParams {
            loss_rate: 0.3,
            distance_loss: false,
            ..RadioParams::default()
        };
        assert_eq!(r.loss_at(0.0, 50.0), 0.3);
        assert_eq!(r.loss_at(49.0, 50.0), 0.3);
    }

    #[test]
    fn msg_kind_display_is_distinct() {
        let names: Vec<String> = MsgKind::ALL.iter().map(|k| k.to_string()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
