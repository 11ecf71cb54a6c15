//! Order statistics for host timings.

/// The percentiles a tail timing may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Index of the nearest-rank `p`-th percentile in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - 1 - rank(p, n) >= MIN_BEYOND)
}

/// Nearest-rank `p`-th percentile.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "a percentile needs samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    sorted[rank(p, sorted.len())]
}

/// The median of an odd count, the mean of the middle two of an even one.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "a median needs samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(120), Some(90.0));
        assert_eq!(tail_percentile(140), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(20_000), Some(99.9));
        for n in 1..30_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - 1 - rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=120).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), 108.0);
        assert_eq!(percentile(&samples, 50.0), 60.0);
        assert_eq!(percentile(&samples, 100.0), 120.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
