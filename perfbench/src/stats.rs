//! Summary statistics: percentiles with the tail rule, medians, and the
//! growing-backlog detector.

/// Nearest-rank `q`-quantile of an ascending slice (`0.0` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Mean of values (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Tail percentiles the benchmark may report, highest first.
const TAIL_CANDIDATES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest tail percentile that has at least ten of `n` samples
/// strictly beyond its nearest rank, or `None` when even the median
/// has fewer than ten samples above it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// Whether an open-loop generator fell behind for good: the median
/// send lateness of the last quarter of the schedule exceeds that of
/// the first quarter by more than a millisecond and by more than
/// half again. Lateness is in schedule order, seconds. A queue that
/// drains again between the quarters is not a growing backlog.
pub fn backlog_growing(lateness: &[f64]) -> bool {
    let quarter = lateness.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = median(&lateness[..quarter]);
    let last = median(&lateness[lateness.len() - quarter..]);
    last - first > 1e-3 && last > 1.5 * first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1000 samples: the p99 rank is 990, leaving exactly 10 above.
        assert_eq!(supported_tail(1000), Some(0.99));
        // 999 samples: p99 leaves 9, so fall back to p90.
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn backlog_detector_flags_only_growing_lateness() {
        // Steady jitter around 0.1ms: no backlog.
        let steady: Vec<f64> = (0..400)
            .map(|i| 1e-4 * (1.0 + (i % 7) as f64 / 7.0))
            .collect();
        assert!(!backlog_growing(&steady));
        // Lateness climbing linearly to 50ms: backlog.
        let growing: Vec<f64> = (0..400).map(|i| f64::from(i) * 1.25e-4).collect();
        assert!(backlog_growing(&growing));
        // One stall in the middle that drains again: no backlog.
        let mut stall = steady.clone();
        for (i, late) in stall.iter_mut().enumerate().take(220).skip(180) {
            *late = 0.02 - (i - 180) as f64 * 5e-4;
        }
        assert!(!backlog_growing(&stall));
        // Doubling from 0.1ms to 0.2ms is under the 1ms floor.
        let small: Vec<f64> = (0..400).map(|i| 1e-4 + f64::from(i) * 2.5e-7).collect();
        assert!(!backlog_growing(&small));
        assert!(!backlog_growing(&[1.0, 2.0, 3.0]));
    }
}
