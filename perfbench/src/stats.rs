//! Order statistics over the benchmark's samples.
//!
//! Two kinds of summary with different rules:
//!
//! - [`percentile`] summarises a latency distribution. It reports a
//!   percentile only when at least [`MIN_BEYOND`] samples lie beyond it,
//!   so a tail figure is never read off a handful of points.
//! - [`median`] and [`geomean`] aggregate a few repeated measurements of
//!   the same thing (passes of one run), where no tail is claimed.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (0 < p < 100) of `samples`, or an
/// error when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = samples.len();
    // 1-based nearest rank; every sample ranked after it lies beyond.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median (mean of the middle pair for an even count); `None` when empty.
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

/// Geometric mean of positive samples; `None` when empty or any sample is
/// not positive.
pub fn geomean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || !samples.iter().all(|x| *x > 0.0) {
        return None;
    }
    let log_sum: f64 = samples.iter().map(|x| x.ln()).sum();
    Some((log_sum / samples.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helper must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 20 samples: the median (rank 10) has exactly 10 beyond it.
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
        // 19 samples: rank 10 leaves 9 beyond.
        assert!(percentile(&ramp(19), 50.0).is_err());
        // p99 needs 1000 samples; p90 needs 100.
        assert_eq!(percentile(&ramp(1000), 99.0), Ok(990.0));
        assert!(percentile(&ramp(999), 99.0).is_err());
        assert_eq!(percentile(&ramp(100), 90.0), Ok(90.0));
        assert!(percentile(&ramp(99), 90.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
