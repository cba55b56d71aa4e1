//! The load-test and verification toolkit shared by the networked
//! `rpc_server` example, the wire tests and the end-to-end benchmark.
//!
//! Everything here is deterministic by construction — traces are
//! generated from a seed, retry jitter is seeded, and verification is
//! the pool's replay contract applied over the wire: every `Samples`
//! response carries its pool sequence number, the server's replay-audit
//! endpoint publishes the authoritative (trace, failure log) pair, and
//! [`verify_replay_coalesced`] recomputes what seq must contain from the seed the
//! verifier holds out of band. Retries, reordering, shed requests —
//! none of it matters to the check, because the comparison is keyed by
//! sequence number, not by who asked when.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctgauss_core::{CtSampler, SamplerSpec};
use ctgauss_pool::{replay, Backoff};
use ctgauss_prng::{RandomSource, SeedTree, SplitMix64};
use ctgauss_rpc_core::{ReplayAudit, RequestBody, ResponseBody, WireError};

use crate::{Client, ClientError};

/// The registered sigma profiles, indexed by the trace's profile field:
/// 0 = sigma 2, 1 = sigma 6.15543, 2 = sigma 1.5 (all n = 24, the
/// Figure 5 configurations). Every front end serves this table so traces
/// are portable between them.
pub const STANDARD_PROFILES: [(&str, u32); 3] = [("2", 24), ("6.15543", 24), ("1.5", 24)];

/// Builds the first `k` standard profiles as shared samplers (the form
/// both a pool builder and [`verify_replay_coalesced`] take).
///
/// # Panics
///
/// Panics if `k` exceeds the table or a profile fails to build — both
/// harness-configuration bugs, not runtime conditions.
pub fn build_standard_profiles(k: usize) -> Vec<Arc<CtSampler>> {
    STANDARD_PROFILES[..k]
        .iter()
        .map(|&(sigma, n)| {
            SamplerSpec::new(sigma, n)
                .build_shared()
                .expect("standard profile builds")
        })
        .collect()
}

/// One trace line: draw `count` samples from profile `profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceLine {
    /// Index into the profile table.
    pub profile: usize,
    /// Requested sample count.
    pub count: usize,
}

/// Generates the reproducible synthetic trace the front ends load-test
/// with: mixed small/bulk requests with a long-tail size distribution,
/// like an LWE-ish workload would issue. Pure function of the arguments.
///
/// # Panics
///
/// Panics on a zero `max_count` or an empty/oversized profile range.
pub fn gen_trace(seed: u64, n: usize, profiles: usize, max_count: usize) -> Vec<TraceLine> {
    assert!(max_count >= 1, "max_count must be at least 1");
    assert!(
        (1..=STANDARD_PROFILES.len()).contains(&profiles),
        "profiles must be 1..={}",
        STANDARD_PROFILES.len()
    );
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let profile = rng.next_u64() as usize % profiles;
            // Long-tail sizes: mostly small draws, occasional bulk
            // buffers. `max_count` hard-caps every arm.
            let count = match rng.next_u64() % 10 {
                0..=5 => 1 + rng.next_u64() as usize % 64,
                6..=8 => 64 + rng.next_u64() as usize % 512,
                _ => 512 + rng.next_u64() as usize % max_count.saturating_sub(512).max(1),
            }
            .min(max_count);
            TraceLine { profile, count }
        })
        .collect()
}

/// Policy for [`run_load`].
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Max requests in flight on the connection (stay at or under the
    /// server's per-connection quota to avoid self-inflicted
    /// `QuotaExceeded` churn — or go over it deliberately to test it).
    pub window: usize,
    /// `deadline_ms` propagated on every sample request.
    pub deadline_ms: u32,
    /// Total attempts per request (including the first) when the server
    /// answers a retryable error.
    pub retry_attempts: u32,
    /// Retry jitter floor.
    pub backoff_base: Duration,
    /// Retry jitter cap.
    pub backoff_max: Duration,
    /// Key for the deterministic retry jitter (mixed per request index).
    pub jitter_seed: u64,
    /// How long one receive poll waits before re-checking for due
    /// retries.
    pub recv_timeout: Duration,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            window: 16,
            deadline_ms: 10_000,
            retry_attempts: 8,
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(20),
            jitter_seed: 0,
            recv_timeout: Duration::from_millis(100),
        }
    }
}

/// The terminal outcome of one trace line under [`run_load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Samples arrived; `seq` is the pool sequence number that keys the
    /// replay check.
    Samples {
        /// Pool sequence number from the response.
        seq: u64,
        /// The payload.
        samples: Vec<i32>,
        /// Attempts spent (1 = first try).
        attempts: u32,
    },
    /// The server refused with a structured error and either the error
    /// was final or the attempt budget ran out.
    Failed {
        /// The last error.
        error: WireError,
        /// Attempts spent.
        attempts: u32,
    },
}

/// What a load run produced.
#[derive(Debug)]
pub struct LoadReport {
    /// Per trace line, in trace order.
    pub outcomes: Vec<RequestOutcome>,
    /// Total retry re-sends across all requests.
    pub retries: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Count of outcomes that delivered samples.
    pub fn fulfilled(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RequestOutcome::Samples { .. }))
            .count()
    }

    /// The failed outcomes with their trace positions.
    pub fn failures(&self) -> Vec<(usize, &WireError)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                RequestOutcome::Failed { error, .. } => Some((i, error)),
                RequestOutcome::Samples { .. } => None,
            })
            .collect()
    }
}

/// Drives `trace` through one connection, pipelined up to
/// `opts.window` in flight, honoring the server's `retryable` bit with
/// seeded decorrelated backoff. Returns when every trace line has a
/// terminal outcome.
///
/// # Errors
///
/// Only transport-level failures (broken connection, protocol
/// violation, a connection-level error from the server). Structured
/// per-request errors are outcomes, not `Err`s.
///
/// # Panics
///
/// Panics if `opts.window` or `opts.retry_attempts` is zero.
pub fn run_load(
    client: &mut Client,
    trace: &[TraceLine],
    opts: &LoadOptions,
) -> Result<LoadReport, ClientError> {
    assert!(opts.window > 0, "window must be at least 1");
    assert!(opts.retry_attempts > 0, "need at least one attempt");
    let started = Instant::now();
    let n = trace.len();
    let mut outcomes: Vec<Option<RequestOutcome>> = (0..n).map(|_| None).collect();
    let mut attempts = vec![0u32; n];
    // One lazily-created jitter stream per trace line, keyed by
    // (jitter_seed, index): retries of different lines decorrelate, and
    // the whole delay pattern replays exactly.
    let mut backoffs: Vec<Option<Backoff>> = (0..n).map(|_| None).collect();
    let mut ready: VecDeque<usize> = (0..n).collect();
    let mut deferred: Vec<(Instant, usize)> = Vec::new();
    let mut pending: HashMap<u64, usize> = HashMap::new();
    let mut retries = 0u64;
    let mut done = 0usize;

    while done < n {
        // Promote due retries.
        let now = Instant::now();
        deferred.retain(|&(at, index)| {
            if at <= now {
                ready.push_back(index);
                false
            } else {
                true
            }
        });
        // Keep the window full.
        while pending.len() < opts.window {
            let Some(index) = ready.pop_front() else {
                break;
            };
            attempts[index] += 1;
            let id = client.send(RequestBody::Sample {
                profile: trace[index].profile as u32,
                count: trace[index].count as u32,
                deadline_ms: opts.deadline_ms,
            })?;
            pending.insert(id, index);
        }
        if pending.is_empty() {
            // Nothing in flight: we are strictly between retry waves.
            if let Some(earliest) = deferred.iter().map(|&(at, _)| at).min() {
                std::thread::sleep(earliest.saturating_duration_since(Instant::now()));
            }
            continue;
        }
        // Drain one response (or poll tick).
        let Some(response) = client.recv_timeout(opts.recv_timeout)? else {
            continue;
        };
        let Some(index) = pending.remove(&response.id) else {
            // id 0 = connection-level error: the server is closing us.
            if let ResponseBody::Error(error) = response.body {
                return Err(ClientError::Server(error));
            }
            return Err(ClientError::UnexpectedId {
                want: 0,
                got: response.id,
            });
        };
        match response.body {
            ResponseBody::Samples { seq, samples, .. } => {
                outcomes[index] = Some(RequestOutcome::Samples {
                    seq,
                    samples,
                    attempts: attempts[index],
                });
                done += 1;
            }
            ResponseBody::Error(error)
                if error.retryable && attempts[index] < opts.retry_attempts =>
            {
                retries += 1;
                let backoff = backoffs[index].get_or_insert_with(|| {
                    Backoff::new(
                        opts.backoff_base,
                        opts.backoff_max,
                        opts.jitter_seed ^ (index as u64).rotate_left(17),
                    )
                });
                deferred.push((Instant::now() + backoff.next_delay(), index));
            }
            ResponseBody::Error(error) => {
                outcomes[index] = Some(RequestOutcome::Failed {
                    error,
                    attempts: attempts[index],
                });
                done += 1;
            }
            _ => return Err(ClientError::WrongBody),
        }
    }
    Ok(LoadReport {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("all resolved"))
            .collect(),
        retries,
        elapsed: started.elapsed(),
    })
}

/// What [`verify_replay_coalesced`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// `Samples` outcomes compared against the offline replay.
    pub compared: usize,
    /// Responses that did not match the replay bit-for-bit (or whose
    /// seq the audit says was never fulfilled). Zero or the run failed.
    pub mismatches: usize,
}

impl VerifyReport {
    /// Whether every delivered response replayed bit-exactly.
    pub fn ok(&self) -> bool {
        self.mismatches == 0
    }
}

/// The end-to-end bit-exactness check: replays the server's audited
/// (trace, failure log) under `seed` — which never crossed the wire;
/// the verifier holds it because it started the server — on the
/// passthrough schedule (an empty dispatch log, see
/// [`ctgauss_pool::replay`]) and demands that every `Samples` outcome
/// matches `offline[seq]` exactly. Retries, shedding, and reordering
/// cannot perturb this: the comparison is keyed by the pool sequence
/// number the response itself carries.
///
/// Valid for a passthrough pool, with or without worker failures, and
/// for a steal-free staging pool whose audit has no failures: staging
/// keeps each (shard, profile) in seq order, so gang packing is
/// invisible to the values.
///
/// # Panics
///
/// Panics if the audit's lane width is invalid (impossible for a
/// decoded audit — the codec validates it).
pub fn verify_replay_coalesced(
    seed: u64,
    audit: &ReplayAudit,
    outcomes: &[RequestOutcome],
    profiles: &[Arc<CtSampler>],
) -> VerifyReport {
    let width = audit.width().expect("codec-validated lane width");
    let offline = replay(
        &SeedTree::from_u64_seed(seed),
        profiles,
        audit.threads as usize,
        width,
        &audit.trace_entries(),
        &audit.failure_events(),
        &[],
    );
    let mut compared = 0;
    let mut mismatches = 0;
    for outcome in outcomes {
        if let RequestOutcome::Samples { seq, samples, .. } = outcome {
            compared += 1;
            match offline.get(*seq as usize) {
                Some(Some(expected)) if expected == samples => {}
                _ => mismatches += 1,
            }
        }
    }
    VerifyReport {
        compared,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_trace_is_deterministic_and_bounded() {
        let a = gen_trace(11, 200, 3, 4096);
        let b = gen_trace(11, 200, 3, 4096);
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|l| l.profile < 3 && (1..=4096).contains(&l.count)));
        assert_ne!(a, gen_trace(12, 200, 3, 4096));
    }
}
