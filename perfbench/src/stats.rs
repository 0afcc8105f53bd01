//! Order statistics shared by every workload: median, nearest-rank
//! percentiles and the tail rule.

/// Percentiles the tail rule may pick, lowest first, with their labels.
const TAIL_LADDER: [(f64, &str); 4] =
    [(0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p99.9")];

/// Samples that must lie strictly beyond a percentile for it to count as
/// the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The tail of a latency sample: the highest percentile on the ladder
/// p50/p90/p99/p99.9 with at least [`TAIL_MIN_BEYOND`] samples strictly
/// above it. Returns `(value, label)`; with fewer than ten samples above
/// even the median, the maximum is the only honest tail and is labelled
/// `max`.
pub fn tail(samples: &[f64]) -> Option<(f64, &'static str)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mut best = None;
    for (q, label) in TAIL_LADDER {
        let v = percentile(&s, q)?;
        let beyond = s.iter().filter(|&&x| x > v).count();
        if beyond >= TAIL_MIN_BEYOND {
            best = Some((v, label));
        }
    }
    best.or_else(|| s.last().map(|&m| (m, "max")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 = 90 has 10 above it, p99 = 99 has only 1.
        assert_eq!(tail(&ramp(100)), Some((90.0, "p90")));
        // 99 samples: p90 = 90 has 9 above it, so the rule falls to p50.
        assert_eq!(tail(&ramp(99)), Some((50.0, "p50")));
        // 1000 samples: p99 = 990 has exactly 10 above it.
        assert_eq!(tail(&ramp(1000)), Some((990.0, "p99")));
        // 10000 samples: p99.9 = 9990 has 10 above it.
        assert_eq!(tail(&ramp(10_000)), Some((9990.0, "p99.9")));
        // Too few samples for any percentile: the maximum.
        assert_eq!(tail(&ramp(12)), Some((12.0, "max")));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_counts_ties_as_not_beyond() {
        // Samples equal to the percentile are not beyond it.
        let mut s = vec![1.0; 185];
        s.extend(vec![5.0; 15]);
        // p90 = 1.0 with 15 samples above; p99 = 5.0 with none above.
        assert_eq!(tail(&s), Some((1.0, "p90")));
    }
}
