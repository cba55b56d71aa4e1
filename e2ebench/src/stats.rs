//! Latency summaries: medians, fixed percentiles, and the reporting rule
//! "the highest percentile that has at least ten samples beyond it".

use std::time::Duration;

/// Percentiles the tail rule chooses from, highest first.
pub const TAIL_LADDER: [f64; 4] = [0.9999, 0.999, 0.99, 0.9];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`): the
/// smallest value with at least `ceil(q * n)` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even p90 has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Operations per window of the quiet-window statistics.
///
/// On a shared host, other guests slow the CPU for stretches of a run,
/// by up to 2x and for a different share of each run. Short windows let
/// the statistics pick out the stretches they left alone. A change to
/// the measured code moves every window, the quietest ones too.
pub const QUIET_WINDOW: usize = 16;

/// One window in this many is kept as quiet.
pub const QUIET_ONE_IN: usize = 8;

/// The values of the quietest [`QUIET_ONE_IN`]th of the windows of
/// [`QUIET_WINDOW`] consecutive values, ranked by window median, pooled
/// in their original order. A trailing partial window is dropped unless
/// it is the only one.
pub fn quiet_windows(values: &[f64]) -> Vec<f64> {
    let windows: Vec<&[f64]> = values
        .chunks(QUIET_WINDOW)
        .filter(|c| c.len() == QUIET_WINDOW || values.len() < QUIET_WINDOW)
        .collect();
    let mut ranked: Vec<(f64, usize)> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| (median(w), i))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut quiet: Vec<usize> = ranked
        .iter()
        .take(windows.len().div_ceil(QUIET_ONE_IN))
        .map(|&(_, i)| i)
        .collect();
    quiet.sort_unstable();
    quiet
        .into_iter()
        .flat_map(|i| {
            let w: &[f64] = windows[i];
            w.iter().copied()
        })
        .collect()
}

/// The rate a run sustains in its quiet windows: the median of the
/// fastest [`QUIET_ONE_IN`]th of its window rates.
pub fn quiet_rate(window_rates: &[f64]) -> f64 {
    let mut v = window_rates.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 1.0 - 0.5 / QUIET_ONE_IN as f64)
}

/// A latency distribution in microseconds.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The tail the reporting rule allows, as (quantile, value).
    pub tail: Option<(f64, f64)>,
}

impl LatencySummary {
    /// Summarizes latencies given in microseconds.
    pub fn from_us(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        let n = values.len();
        LatencySummary {
            n,
            p50: quantile(&values, 0.5),
            p99: quantile(&values, 0.99),
            tail: tail_quantile(n).map(|q| (q, quantile(&values, q))),
        }
    }

    /// Summarizes durations.
    pub fn from_durations(values: &[Duration]) -> Self {
        Self::from_us(values.iter().map(|d| d.as_secs_f64() * 1e6).collect())
    }

    /// Whether the p99 has at least [`MIN_BEYOND`] samples beyond it.
    pub fn p99_reportable(&self) -> bool {
        beyond(self.n, 0.99) >= MIN_BEYOND
    }

    /// One human-readable line: median, p99 and the rule's tail.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!(", p{} {v:.1} us", q * 100.0),
            None => String::from(", no tail with 10 beyond"),
        };
        format!(
            "n={} p50 {:.1} us, p99 {:.1} us{tail}",
            self.n, self.p50, self.p99
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(tail_quantile(100), Some(0.9));
        // 99 samples: p90 has rank 90, leaving 9 — nothing qualifies.
        assert_eq!(tail_quantile(99), None);
        // 1000: p99 leaves 10; p99.9 leaves 1.
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn summary_reports_the_rule_tail() {
        let s = LatencySummary::from_us((1..=1000).map(f64::from).collect());
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert!(s.p99_reportable());
        assert!(!LatencySummary::from_us(vec![1.0; 999]).p99_reportable());
    }

    #[test]
    fn quiet_windows_keep_the_stretches_outside_load_left_alone() {
        // Sixteen windows; all but windows 2 and 5 ran slowed 2x.
        let w = QUIET_WINDOW;
        assert_eq!(QUIET_ONE_IN, 8);
        let v: Vec<f64> = (0..16 * w)
            .map(|i| {
                let base = 100.0 + (i % w) as f64;
                if [2, 5].contains(&(i / w)) {
                    base
                } else {
                    2.0 * base
                }
            })
            .collect();
        let quiet = quiet_windows(&v);
        assert_eq!(quiet.len(), 2 * w);
        assert_eq!(&quiet[..w], &v[2 * w..3 * w]);
        assert_eq!(&quiet[w..], &v[5 * w..6 * w]);
        // A slower program moves every window, so the statistic follows.
        let slower: Vec<f64> = v.iter().map(|x| x * 1.5).collect();
        let q = quiet_windows(&slower);
        assert_eq!(median(&q), 1.5 * median(&quiet));
        // A trailing partial window is dropped; a lone one is kept.
        assert_eq!(quiet_windows(&v[..w + 3]).len(), w);
        assert_eq!(quiet_windows(&v[..3]), v[..3].to_vec());
        assert!(quiet_windows(&[]).is_empty());
    }

    #[test]
    fn quiet_rate_is_the_median_of_the_fastest_eighth() {
        let rates: Vec<f64> = (1..=160).map(f64::from).collect();
        assert_eq!(quiet_rate(&rates), 150.0);
        assert_eq!(quiet_rate(&[5.0]), 5.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
