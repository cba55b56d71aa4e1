//! The open-loop load shape: a seed-derived arrival schedule, how late
//! the generator ran against it, and the SLO ladder verdict.

use std::time::Duration;

use ctgauss_prng::{RandomSource, SplitMix64};

use crate::stats::quantile;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, ns after the phase start.
    pub due_ns: u64,
    /// Wire profile index.
    pub profile: u32,
    /// Samples asked for.
    pub count: u32,
}

/// Poisson arrivals at `rate` per second over `span`, each asking for
/// `1..=max_count` samples from one of `profiles` profiles. A pure
/// function of its arguments.
///
/// # Panics
///
/// Panics on a non-positive rate or zero `profiles` / `max_count`.
pub fn poisson(
    seed: u64,
    rate: f64,
    span: Duration,
    profiles: u32,
    max_count: u32,
) -> Vec<Arrival> {
    assert!(rate > 0.0, "rate must be positive");
    assert!(profiles > 0 && max_count > 0, "need profiles and counts");
    let mut rng = SplitMix64::new(seed);
    let end = span.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        // 53 random bits -> u in [0, 1); 1 - u is in (0, 1].
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            profile: (rng.next_u64() % u64::from(profiles)) as u32,
            count: 1 + (rng.next_u64() % u64::from(max_count)) as u32,
        });
    }
}

/// How late each send ran against its due time, in microseconds. A send
/// before its due time counts as on time.
pub fn lateness_us(due_ns: &[u64], sent_ns: &[u64]) -> Vec<f64> {
    due_ns
        .iter()
        .zip(sent_ns)
        .map(|(&due, &sent)| sent.saturating_sub(due) as f64 / 1e3)
        .collect()
}

/// What one rung of the ladder produced.
#[derive(Debug, Clone, Default)]
pub struct RungResult {
    /// Offered rate, requests per second.
    pub rate: u32,
    /// Per request in due order: latency from due time to response in
    /// microseconds, or `None` when it was refused or failed.
    pub latencies_us: Vec<Option<f64>>,
}

impl RungResult {
    /// Requests offered.
    pub fn attempted(&self) -> usize {
        self.latencies_us.len()
    }

    /// Requests refused or failed.
    pub fn failed(&self) -> usize {
        self.latencies_us.iter().filter(|l| l.is_none()).count()
    }

    /// The p99 with every refusal counted as a miss (infinite latency).
    pub fn p99_with_misses_us(&self) -> f64 {
        let mut v: Vec<f64> = self
            .latencies_us
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect();
        v.sort_by(f64::total_cmp);
        quantile(&v, 0.99)
    }

    /// Whether the backlog grew over the rung: the median latency of the
    /// last third of requests (in due order) exceeds the first third's by
    /// more than half and by more than [`BACKLOG_SLACK_US`]. Refusals
    /// count as infinite latency.
    pub fn backlog_growing(&self) -> bool {
        let n = self.latencies_us.len();
        if n < 3 {
            return false;
        }
        let third = n / 3;
        let med = |part: &[Option<f64>]| {
            let mut v: Vec<f64> = part.iter().map(|l| l.unwrap_or(f64::INFINITY)).collect();
            v.sort_by(f64::total_cmp);
            quantile(&v, 0.5)
        };
        let early = med(&self.latencies_us[..third]);
        let late = med(&self.latencies_us[n - third..]);
        late > early * 1.5 && late > early + BACKLOG_SLACK_US
    }

    /// Whether this rung meets the SLO.
    pub fn meets(&self, p99_limit_us: f64) -> bool {
        self.attempted() > 0 && self.p99_with_misses_us() <= p99_limit_us && !self.backlog_growing()
    }
}

/// Latency growth below this many microseconds never counts as a
/// growing backlog.
pub const BACKLOG_SLACK_US: f64 = 200.0;

/// The highest offered rate whose rung meets the SLO, or 0 if none does.
pub fn slo_rate(rungs: &[RungResult], p99_limit_us: f64) -> u32 {
    rungs
        .iter()
        .filter(|r| r.meets(p99_limit_us))
        .map(|r| r.rate)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson(9, 4000.0, Duration::from_millis(500), 3, 8);
        let b = poisson(9, 4000.0, Duration::from_millis(500), 3, 8);
        assert_eq!(a, b);
        assert_ne!(a, poisson(10, 4000.0, Duration::from_millis(500), 3, 8));
        // Mean rate within 10% of the target over 2000 expected arrivals.
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a
            .iter()
            .all(|x| x.profile < 3 && (1..=8).contains(&x.count)));
        assert!(a.last().unwrap().due_ns < 500_000_000);
    }

    #[test]
    fn lateness_is_send_minus_due_floored_at_zero() {
        let due = [1_000, 2_000, 3_000];
        let sent = [1_500, 1_900, 13_000];
        assert_eq!(lateness_us(&due, &sent), vec![0.5, 0.0, 10.0]);
    }

    fn rung(rate: u32, latencies: Vec<Option<f64>>) -> RungResult {
        RungResult {
            rate,
            latencies_us: latencies,
        }
    }

    #[test]
    fn a_refusal_counts_as_a_miss() {
        // 200 requests at 100 us: two refusals (1%) still leave the p99
        // at 100 us, a third pushes it to infinity.
        let mut l = vec![Some(100.0); 200];
        assert!(rung(1000, l.clone()).meets(2000.0));
        l[5] = None;
        l[150] = None;
        assert!(rung(1000, l.clone()).meets(2000.0));
        l[199] = None;
        let r = rung(1000, l);
        assert_eq!(r.failed(), 3);
        assert!(r.p99_with_misses_us().is_infinite());
        assert!(!r.meets(2000.0));
    }

    #[test]
    fn a_growing_backlog_fails_the_rung_even_under_the_limit() {
        // Latency ramps 100 -> 1900 us: p99 is under 2 ms but the queue
        // is growing.
        let ramp: Vec<Option<f64>> = (0..300).map(|i| Some(100.0 + 6.0 * i as f64)).collect();
        let r = rung(4000, ramp);
        assert!(r.p99_with_misses_us() <= 2000.0);
        assert!(r.backlog_growing());
        assert!(!r.meets(2000.0));
        // Noise around a flat level is not growth.
        let flat: Vec<Option<f64>> = (0..300)
            .map(|i| Some(300.0 + if i % 2 == 0 { 50.0 } else { -50.0 }))
            .collect();
        assert!(!rung(4000, flat).backlog_growing());
    }

    #[test]
    fn slo_rate_is_the_highest_passing_rung() {
        let ok = vec![Some(150.0); 100];
        let slow = vec![Some(5000.0); 100];
        let rungs = [
            rung(1000, ok.clone()),
            rung(4000, ok.clone()),
            rung(16000, slow),
        ];
        assert_eq!(slo_rate(&rungs, 2000.0), 4000);
        assert_eq!(slo_rate(&rungs[2..], 2000.0), 0);
        assert_eq!(slo_rate(&[rung(1000, Vec::new())], 2000.0), 0);
    }
}
