//! Percentiles under the benchmark's reporting rule, and medians.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the sample cannot support it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of ascending `sorted`
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
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
    fn percentile_refuses_fewer_than_ten_beyond() {
        let samples: Vec<u64> = (1..=999).collect();
        // p99 of 999 samples is rank 990: only 9 samples lie beyond it.
        assert_eq!(percentile(&samples, 0.99), None);
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990));
        assert_eq!(percentile(&samples, 0.5), Some(500));
        assert_eq!(percentile(&(1..=19).collect::<Vec<u64>>(), 0.5), None);
        assert_eq!(percentile(&(1..=20).collect::<Vec<u64>>(), 0.5), Some(10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
