//! Sample statistics: medians, nearest-rank quantiles, and the rule
//! that decides which tail percentile a sample supports.

/// Tail percentiles the benchmark may report, in parts per ten
/// thousand (integers, so the sample-count rule has no rounding).
pub const TAIL_LADDER: [u32; 4] = [9_000, 9_900, 9_990, 9_999];

/// A tail percentile is supported only with at least this many samples
/// strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending sample (`q` in `[0, 1]`);
/// `NaN` when empty.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample (nearest rank); `NaN` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Samples strictly beyond the nearest-rank position of percentile
/// `per_10k` (parts per ten thousand) in a sample of `n`.
#[must_use]
pub fn beyond(n: usize, per_10k: u32) -> usize {
    let rank = (n * per_10k as usize).div_ceil(10_000);
    n - rank
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, in parts per ten thousand; `None`
/// when even p90 is unsupported.
#[must_use]
pub fn supported_tail(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&q| beyond(n, q) >= MIN_BEYOND)
        .max()
}

/// Latency summary of one phase: sample count, median, p90, and the
/// highest supported tail percentile with its value.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The highest supported percentile (parts per ten thousand) and
    /// its value.
    pub tail: Option<(u32, f64)>,
}

impl LatencySummary {
    /// Summarize `samples`.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            p50: quantile_sorted(&v, 0.5),
            p90: quantile_sorted(&v, 0.9),
            tail: supported_tail(v.len())
                .map(|q| (q, quantile_sorted(&v, f64::from(q) / 10_000.0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 9_900), 10);
        assert_eq!(beyond(999, 9_900), 9);
        assert_eq!(supported_tail(1000), Some(9_900));
        assert_eq!(supported_tail(999), Some(9_000));
    }

    #[test]
    fn the_highest_supported_percentile_is_reported() {
        assert_eq!(supported_tail(9), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(9_000));
        assert_eq!(supported_tail(10_000), Some(9_990));
        assert_eq!(supported_tail(100_000), Some(9_999));
        let v: Vec<f64> = (1..=1500).map(f64::from).collect();
        let s = LatencySummary::of(&v);
        assert_eq!(s.tail, Some((9_900, 1485.0)));
        assert_eq!((s.p50, s.p90), (750.0, 1350.0));
    }
}
