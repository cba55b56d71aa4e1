//! The long-tail workload the telemetry-off and chaos tests replay: the
//! service-shaped trace of mixed small and bulk requests over two
//! Figure 5 profiles, and one bounded run of it on a W4 pool.

use std::sync::Arc;
use std::time::Duration;

use ctgauss_core::{CtSampler, SamplerSpec};
use ctgauss_pool::{
    submit_with_retry, FailureEvent, FaultPlan, LaneWidth, Pool, PoolError, RetryPolicy,
    SampleRequest, TraceEntry, WaitError,
};
use ctgauss_prng::{RandomSource, SplitMix64};

/// The two n = 24 profiles the trace indexes: 0 = sigma 2,
/// 1 = sigma 6.15543.
pub(crate) fn long_tail_profiles() -> Vec<Arc<CtSampler>> {
    ["2", "6.15543"]
        .iter()
        .map(|&sigma| {
            SamplerSpec::new(sigma, 24)
                .build_shared()
                .expect("profile builds")
        })
        .collect()
}

/// A reproducible `len`-request trace with a long-tail size mix — 60 %
/// of requests draw 1..=64 samples, 30 % 64..=575 and 10 % 512..=4095 —
/// and profiles chosen uniformly from [`long_tail_profiles`].
pub(crate) fn long_tail_trace(seed: u64, len: usize) -> Vec<TraceEntry> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let profile_index = (rng.next_u64() % 2) as usize;
            let count = match rng.next_u64() % 10 {
                0..=5 => 1 + rng.next_u64() % 64,
                6..=8 => 64 + rng.next_u64() % 512,
                _ => 512 + rng.next_u64() % 3584,
            } as usize;
            TraceEntry {
                profile_index,
                count,
            }
        })
        .collect()
}

/// Runs `trace` under `plan` on `threads` W4 shards. Every request goes
/// through the bounded retry path before any ticket is waited, and every
/// wait is bounded. Returns the responses in trace order (`None` where
/// the pool answered `WorkerGone`) and the complete failure log, after
/// asserting that no ticket hung and that every response carries its
/// trace position as seq — so no seq is answered twice — and its
/// requested length.
pub(crate) fn run_long_tail(
    profiles: &[Arc<CtSampler>],
    threads: usize,
    seed: u64,
    plan: FaultPlan,
    trace: &[TraceEntry],
) -> (Vec<Option<Vec<i32>>>, Vec<FailureEvent>) {
    let mut builder = Pool::builder()
        .threads(threads)
        .width(LaneWidth::W4)
        .queue_capacity(1024)
        .seed_u64(seed)
        .faults(plan);
    let ids: Vec<_> = profiles
        .iter()
        .map(|sampler| builder.shared_profile(Arc::clone(sampler)))
        .collect();
    let pool = builder.spawn();
    let retry = RetryPolicy {
        attempts: 200,
        submit_timeout: Duration::from_millis(250),
        ..RetryPolicy::default()
    };
    // A retryable refusal consumes no seq, so trace index == seq however
    // many attempts a request needs; `WorkerGone` consumes one.
    let tickets: Vec<_> = trace
        .iter()
        .map(|entry| {
            let profile = ids[entry.profile_index];
            submit_with_retry(
                &pool,
                SampleRequest {
                    profile,
                    count: entry.count,
                },
                &retry,
            )
        })
        .collect();
    let live = tickets
        .into_iter()
        .zip(trace)
        .enumerate()
        .map(|(seq, (ticket, entry))| {
            let response = match ticket {
                Ok(ticket) => ticket.wait_timeout(Duration::from_secs(60)),
                Err(error) => Err(WaitError::Pool(error)),
            };
            match response {
                Ok(response) => {
                    assert_eq!(response.seq, seq as u64, "threads {threads}: seq echo");
                    assert_eq!(response.samples.len(), entry.count, "seq {seq} mis-sized");
                    Some(response.samples)
                }
                Err(WaitError::Pool(PoolError::WorkerGone)) => None,
                Err(WaitError::TimedOut(_)) => panic!("threads {threads}: seq {seq} hung"),
                Err(WaitError::Pool(error)) => panic!("seq {seq}: unexpected {error}"),
            }
        })
        .collect();
    pool.shutdown(); // the failure log is complete only after shutdown
    (live, pool.failure_log())
}
