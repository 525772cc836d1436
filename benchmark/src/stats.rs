//! Order statistics and ladder arithmetic — the pure logic behind every
//! reported number.

/// Percentiles the tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; `0.0` for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps products like `99.9 / 100 × 10000` from rounding up past
/// an exact rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The percentile to report as the tail of `n` samples: the highest of
/// [`TAIL_LADDER`] with at least [`TAIL_MIN_BEYOND`] samples beyond it.
/// Below 20 samples no percentile qualifies and the median is returned
/// — the stamped sample count then shows that it is not a tail.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// Self time of each rung of a cumulative ladder: the first rung's own
/// time, then each rung minus the one below it. Noise can make a
/// difference negative; it is reported as measured.
pub fn ladder_self(rungs: &[f64]) -> Vec<f64> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, &t)| if i == 0 { t } else { t - rungs[i - 1] })
        .collect()
}

/// `part / whole` as a percentage; `0.0` when `whole` is zero.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Relative change of `treated` over `base`, in percent.
pub fn overhead_pct(base: f64, treated: f64) -> f64 {
    pct(treated - base, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; p99.9 leaves 1.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(beyond(1000, 99.0), 10);
        // 999 samples: p99 leaves 9, so the tail drops to p95.
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(12), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn ladder_self_subtracts_the_rung_below() {
        let rungs = [0.5, 1.5, 2.25, 8.0];
        assert_eq!(ladder_self(&rungs), vec![0.5, 1.0, 0.75, 5.75]);
        // Noise may invert two rungs; the negative self time stays.
        assert_eq!(ladder_self(&[2.0, 1.5]), vec![2.0, -0.5]);
        assert!(ladder_self(&[]).is_empty());
    }

    #[test]
    fn overhead_is_relative_to_the_base() {
        assert_eq!(overhead_pct(2.0, 2.5), 25.0);
        assert_eq!(overhead_pct(0.0, 1.0), 0.0);
    }
}
