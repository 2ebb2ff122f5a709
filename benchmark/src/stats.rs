//! Summary statistics over measured samples.
//!
//! Percentiles use the nearest-rank definition and refuse a tail the
//! sample cannot support: a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie above its rank, so a p90 needs 100 samples
//! and a p99 needs 1000.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
///
/// # Panics
/// Panics if `p` is outside `(0, 100)` or a sample is NaN.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = samples.len();
    // Nearest rank: the smallest rank whose cumulative share reaches p.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    Some(sorted[rank - 1])
}

/// The median of `samples` (mean of the middle pair for an even count),
/// or `None` for an empty slice. For small repeat counts such as the
/// set-up repetitions, where no tail is reported.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The arithmetic mean, or `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The median of `stat` over `windows` consecutive, equally sized slices
/// of `samples`, or `None` when `stat` refuses any slice. A burst of
/// outside load that slows one window moves this less than it moves one
/// statistic taken over the whole run.
pub fn windowed(
    samples: &[f64],
    windows: usize,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let n = samples.len();
    let per_window: Option<Vec<f64>> = (0..windows)
        .map(|w| stat(&samples[w * n / windows..(w + 1) * n / windows]))
        .collect();
    median(&per_window?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Shuffled order: the helper must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 12.5), Some(13.0));
        let v = one_to(1000);
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 95.0), Some(950.0));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_their_rank() {
        assert_eq!(percentile(&one_to(99), 90.0), None);
        assert!(percentile(&one_to(100), 90.0).is_some());
        assert_eq!(percentile(&one_to(999), 99.0), None);
        assert!(percentile(&one_to(1000), 99.0).is_some());
        assert_eq!(percentile(&one_to(199), 95.0), None);
        assert!(percentile(&one_to(200), 95.0).is_some());
        assert_eq!(percentile(&one_to(19), 50.0), None);
        assert!(percentile(&one_to(20), 50.0).is_some());
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_degenerate_percentiles() {
        let _ = percentile(&one_to(100), 100.0);
    }

    #[test]
    fn median_and_mean_handle_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn windowed_takes_the_median_window() {
        // Three windows of 20; the middle one is slowed by a burst.
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v.extend((1..=20).map(|i| f64::from(i) * 100.0));
        v.extend((1..=20).map(|i| f64::from(i) * 2.0));
        assert_eq!(windowed(&v, 3, |w| percentile(w, 50.0)), Some(20.0));
        // A window too short for its percentile refuses the whole.
        assert_eq!(windowed(&v, 4, |w| percentile(w, 50.0)), None);
        assert_eq!(windowed(&v, 3, mean), Some(21.0));
    }
}
