//! Order statistics with an honest tail: a percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly after the nearest-rank position of `q`.
#[must_use]
pub fn beyond(q: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(q, n)
}

/// Whether `n` samples support quantile `q`: the median needs one
/// sample, a tail needs [`MIN_BEYOND`] samples beyond it.
#[must_use]
pub fn supports(q: f64, n: usize) -> bool {
    if q <= 0.5 {
        n > 0
    } else {
        beyond(q, n) >= MIN_BEYOND
    }
}

/// The highest of `candidates` that `n` samples support.
#[must_use]
pub fn highest_supported(candidates: &[f64], n: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&q| supports(q, n))
        .fold(None, |best: Option<f64>, q| {
            Some(best.map_or(q, |b| b.max(q)))
        })
}

/// Quantile `q` of `samples` by nearest rank, or `None` when the sample
/// does not support it.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if !supports(q, samples.len()) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(q, sorted.len())])
}

/// The median, or `None` for an empty sample.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(0.99, 1_000), 10);
        assert!(supports(0.99, 1_000));
        assert!(!supports(0.99, 999));
        assert_eq!(beyond(0.9, 100), 10);
        assert!(supports(0.9, 100));
        assert!(!supports(0.9, 99));
        assert!(supports(0.5, 1));
        assert!(!supports(0.5, 0));
    }

    #[test]
    fn highest_supported_picks_the_top_candidate_the_sample_allows() {
        let c = [0.5, 0.9, 0.99];
        assert_eq!(highest_supported(&c, 5_000), Some(0.99));
        assert_eq!(highest_supported(&c, 999), Some(0.9));
        assert_eq!(highest_supported(&c, 100), Some(0.9));
        assert_eq!(highest_supported(&c, 99), Some(0.5));
        assert_eq!(highest_supported(&c, 0), None);
    }

    #[test]
    fn quantile_is_nearest_rank_and_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&xs), Some(100.0));
        assert_eq!(quantile(&xs, 0.9), Some(180.0));
        assert_eq!(quantile(&xs, 0.99), None);
        assert_eq!(median(&[]), None);
    }
}
