//! Client-side retry with seeded, decorrelated backoff over the timed
//! submission path.
//!
//! [`Pool::submit_timeout`](crate::Pool::submit_timeout) guarantees that
//! a refused submission consumed nothing — no ring slot, no sequence
//! number — so retrying it is always sound. This module is the loop a
//! bounded-latency client wants around it: retry the *transient*
//! refusals ([`PoolError::TimedOut`], [`PoolError::Backpressure`]) with
//! backoff, pass the final ones (`WorkerGone`, `ShuttingDown`,
//! `UnknownProfile`) straight through. In-process callers use it
//! directly (the pool's long-tail and chaos tests submit every request
//! through it). The RPC server calls `submit_timeout` once per request
//! and answers a refusal with a retryable wire error; the RPC client
//! retries those with this module's [`Backoff`].
//!
//! # Why jitter, and why seeded
//!
//! Pure exponential backoff synchronizes competitors: two clients
//! refused at the same instant sleep the same schedule and collide again
//! on every retry. The fix is *decorrelated jitter* — each delay is
//! drawn uniformly from `[base, 3 × previous]` (capped), so colliding
//! clients desynchronize after the first round. But ambient entropy
//! would break this workspace's replay discipline (every run must be a
//! pure function of its seeds), so the jitter stream is generated by a
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) sequence keyed by
//! [`RetryPolicy::jitter_seed`] mixed with the request being submitted:
//! deterministic per (seed, request), different across clients that
//! chose different seeds. Replays of a trace are bit-exact, timing
//! included, while contention between distinct clients still spreads
//! out.

use std::time::Duration;

use crate::pool::{Pool, PoolError, SampleRequest, Ticket};

/// Attempt budget and backoff schedule for [`submit_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total submission attempts (including the first); must be ≥ 1.
    pub attempts: u32,
    /// Deadline handed to each `submit_timeout` attempt.
    pub submit_timeout: Duration,
    /// Smallest pause between attempts (the jitter floor).
    pub backoff_base: Duration,
    /// Upper bound on the pause (the jitter cap).
    pub backoff_max: Duration,
    /// Key for the deterministic jitter stream. Derive it from the
    /// client's own seed material (e.g. its request seed) — never from
    /// ambient entropy — so replays reproduce the exact delay sequence
    /// while distinct clients decorrelate.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            submit_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
            jitter_seed: 0,
        }
    }
}

/// SplitMix64 step: the standard 64-bit mixer, good enough to
/// decorrelate backoff schedules and fully deterministic.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic decorrelated-jitter delay sequence.
///
/// Each [`next_delay`](Backoff::next_delay) draws uniformly from
/// `[base, 3 × previous]`, clamped to `[base, cap]` — the classic
/// decorrelated-jitter schedule, except the randomness comes from a
/// SplitMix64 stream keyed by the caller's seed instead of a global
/// RNG. The same seed always yields the same delays; different seeds
/// diverge immediately.
///
/// Reused by the RPC client for connection retry so network-level and
/// submission-level backoff share one (replayable) policy.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: u64,
}

impl Backoff {
    /// A schedule over `[base, cap]` keyed by `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        let cap = cap.max(base);
        Backoff {
            base,
            cap,
            prev: base,
            rng: seed,
        }
    }

    /// The schedule a policy describes, keyed by the policy's own
    /// jitter seed mixed with `salt` (callers pass per-request salt so
    /// concurrent requests under one policy also decorrelate).
    pub fn from_policy(policy: &RetryPolicy, salt: u64) -> Self {
        let mut key = policy.jitter_seed ^ salt.rotate_left(32);
        // One mixing round so (seed, salt) pairs with equal XOR still
        // diverge after the first draw.
        let key = splitmix64(&mut key);
        Backoff::new(policy.backoff_base, policy.backoff_max, key)
    }

    /// The next pause. Always within `[base, cap]`.
    pub fn next_delay(&mut self) -> Duration {
        let base_ns = self.base.as_nanos() as u64;
        let cap_ns = self.cap.as_nanos() as u64;
        let upper = (self.prev.as_nanos() as u64)
            .saturating_mul(3)
            .clamp(base_ns, cap_ns);
        let span = upper - base_ns;
        let draw = if span == 0 {
            0
        } else {
            // Uniform-enough for backoff purposes: a 64-bit draw modulo
            // the (sub-second) span has negligible bias.
            splitmix64(&mut self.rng) % (span + 1)
        };
        let delay = Duration::from_nanos(base_ns + draw);
        self.prev = delay;
        delay
    }
}

/// Submits `request`, retrying transient refusals (deadline elapsed,
/// backpressure) under `policy` with seeded decorrelated jitter between
/// attempts. A retry reuses the same would-be sequence number —
/// `submit_timeout` consumes nothing on refusal — so the request→shard
/// map, and with it replayability, is unaffected by how many attempts
/// it took.
///
/// The jitter schedule is keyed by `policy.jitter_seed` mixed with the
/// request's fields, so two clients hammering the same pool with
/// different seeds desynchronize instead of colliding on every retry,
/// while a replay of the same (seed, request) reproduces the exact
/// delays.
///
/// # Errors
///
/// The last transient error once the attempt budget is spent, or the
/// first final error ([`PoolError::WorkerGone`],
/// [`PoolError::ShuttingDown`], [`PoolError::UnknownProfile`])
/// immediately — those will not get better by waiting.
///
/// # Panics
///
/// Panics if `policy.attempts` is zero.
pub fn submit_with_retry(
    pool: &Pool,
    request: SampleRequest,
    policy: &RetryPolicy,
) -> Result<Ticket, PoolError> {
    assert!(
        policy.attempts > 0,
        "retry policy needs at least one attempt"
    );
    let salt = ((request.profile.index() as u64) << 32) ^ request.count as u64;
    let mut backoff = Backoff::from_policy(policy, salt);
    let mut attempt = 0;
    loop {
        match pool.submit_timeout(request, policy.submit_timeout) {
            Ok(ticket) => return Ok(ticket),
            Err(error @ (PoolError::TimedOut | PoolError::Backpressure)) => {
                attempt += 1;
                if attempt >= policy.attempts {
                    return Err(error);
                }
                std::thread::sleep(backoff.next_delay());
            }
            Err(error) => return Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, steps: usize) -> Vec<Duration> {
        let mut backoff = Backoff::new(Duration::from_micros(100), Duration::from_millis(50), seed);
        (0..steps).map(|_| backoff.next_delay()).collect()
    }

    /// Replays must reproduce delays bit-exactly: the schedule is a pure
    /// function of the seed.
    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(schedule(0xDEAD_BEEF, 32), schedule(0xDEAD_BEEF, 32));
    }

    /// Two clients that collide on attempt 1 must not collide forever:
    /// different seeds diverge from the very first jittered delay.
    #[test]
    fn colliding_clients_desynchronize() {
        let a = schedule(1, 16);
        let b = schedule(2, 16);
        assert_ne!(a, b, "distinct seeds must yield distinct schedules");
        // Stronger: they diverge early (the first draw already differs),
        // not only in the tail.
        assert_ne!(a[0], b[0], "first jittered delay should already differ");
    }

    /// Every delay respects the policy bounds regardless of seed.
    #[test]
    fn delays_stay_within_bounds() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_millis(50);
        for seed in 0..64u64 {
            let mut backoff = Backoff::new(base, cap, seed);
            for step in 0..64 {
                let d = backoff.next_delay();
                assert!(d >= base && d <= cap, "seed {seed} step {step}: {d:?}");
            }
        }
    }

    /// The decorrelated schedule actually grows from the base instead of
    /// jumping straight to the cap: early delays are drawn from the
    /// narrow `[base, 3·base]` window.
    #[test]
    fn first_delay_is_near_the_base() {
        for seed in 0..64u64 {
            let mut backoff =
                Backoff::new(Duration::from_micros(100), Duration::from_millis(50), seed);
            let first = backoff.next_delay();
            assert!(
                first <= Duration::from_micros(300),
                "seed {seed}: first delay {first:?} outside [base, 3·base]"
            );
        }
    }

    /// Policy-derived schedules decorrelate across salts too (two
    /// different requests under one policy).
    #[test]
    fn different_salts_desynchronize() {
        let policy = RetryPolicy {
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        let mut a = Backoff::from_policy(&policy, 1);
        let mut b = Backoff::from_policy(&policy, 2);
        let sa: Vec<_> = (0..8).map(|_| a.next_delay()).collect();
        let sb: Vec<_> = (0..8).map(|_| b.next_delay()).collect();
        assert_ne!(sa, sb);
    }
}
