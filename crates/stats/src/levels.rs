//! Routing-tree level statistics — the `N_k` populations of Eq. (2).
//!
//! The cost model weighs each result message by the depth of its source node
//! in the data routing tree. [`LevelStats`] captures how many sensor nodes sit
//! at each level (level 0 is the base station and is excluded from the
//! message-producing population).

use std::fmt;

/// Per-level node populations of a routing tree rooted at the base station.
///
/// # Examples
///
/// ```
/// use ttmqo_stats::LevelStats;
///
/// // Base station (level 0) plus 3 nodes at level 1 and 2 at level 2.
/// let stats = LevelStats::from_levels([0u32, 1, 1, 1, 2, 2]);
/// assert_eq!(stats.sensor_count(), 5);
/// assert_eq!(stats.max_depth(), 2);
/// assert_eq!(stats.nodes_at(1), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelStats {
    /// `counts[k]` is the number of nodes at level `k+1` (level 0 excluded).
    counts: Vec<u64>,
}

impl LevelStats {
    /// Builds statistics from every node's level (the base station's level-0
    /// entries are ignored).
    pub fn from_levels<I: IntoIterator<Item = u32>>(levels: I) -> Self {
        let mut counts: Vec<u64> = Vec::new();
        for level in levels {
            if level == 0 {
                continue;
            }
            let idx = (level - 1) as usize;
            if counts.len() <= idx {
                counts.resize(idx + 1, 0);
            }
            counts[idx] += 1;
        }
        LevelStats { counts }
    }

    /// Builds statistics directly from per-level counts, `counts[0]` being
    /// level 1.
    pub fn from_counts<I: IntoIterator<Item = u64>>(counts: I) -> Self {
        let mut counts: Vec<u64> = counts.into_iter().collect();
        while counts.last() == Some(&0) {
            counts.pop();
        }
        LevelStats { counts }
    }

    /// Number of message-producing sensor nodes (levels ≥ 1).
    pub fn sensor_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Deepest level with any node (`max_depth` in Eq. 2); 0 when empty.
    pub fn max_depth(&self) -> u32 {
        self.counts.len() as u32
    }

    /// Number of nodes at level `k` (1-based); 0 for out-of-range levels.
    pub fn nodes_at(&self, k: u32) -> u64 {
        if k == 0 {
            return 0;
        }
        self.counts.get((k - 1) as usize).copied().unwrap_or(0)
    }

    /// Iterates `(level, count)` pairs for levels 1..=max_depth.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u32 + 1, c))
    }
}

impl fmt::Display for LevelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "levels[")?;
        for (i, (k, c)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "L{k}={c}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_levels_skips_base_station() {
        let s = LevelStats::from_levels([0, 1, 2, 2, 3]);
        assert_eq!(s.sensor_count(), 4);
        assert_eq!(s.nodes_at(0), 0);
        assert_eq!(s.nodes_at(1), 1);
        assert_eq!(s.nodes_at(2), 2);
        assert_eq!(s.nodes_at(3), 1);
        assert_eq!(s.nodes_at(4), 0);
        assert_eq!(s.max_depth(), 3);
    }

    #[test]
    fn from_counts_trims_trailing_zeros() {
        let s = LevelStats::from_counts([3, 2, 0, 0]);
        assert_eq!(s.max_depth(), 2);
        assert_eq!(s.sensor_count(), 5);
    }

    #[test]
    fn empty_stats() {
        let s = LevelStats::from_levels(std::iter::empty());
        assert_eq!(s.sensor_count(), 0);
        assert_eq!(s.max_depth(), 0);
    }

    #[test]
    fn display_lists_levels() {
        let s = LevelStats::from_counts([3, 2]);
        assert_eq!(s.to_string(), "levels[L1=3, L2=2]");
    }
}
