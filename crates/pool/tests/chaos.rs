//! Fault-injection tests: the failure paths of the supervised pool,
//! exercised end to end.
//!
//! Each test arms a [`FaultPlan`], drives real traffic, and asserts the
//! three robustness guarantees: no ticket ever hangs (every wait here is
//! a bounded `wait_timeout`), the supervisor resurrects dead workers
//! onto fresh epoch streams (or degrades to `WorkerGone` once the budget
//! is spent), and the (seed, trace, failure-log) triple replays the live
//! run bit for bit.

mod common;

use std::time::{Duration, Instant};

use ctgauss_core::SamplerSpec;
use ctgauss_pool::{
    replay, submit_with_retry, CoalesceConfig, FailureOutcome, FaultPlan, LaneWidth, Pool,
    PoolError, ProfileId, RestartPolicy, RetryPolicy, SampleRequest, ShardState, TraceEntry,
    WaitError, DEFAULT_CHAOS_SPEC,
};
use ctgauss_prng::SeedTree;

fn test_spec() -> SamplerSpec {
    SamplerSpec::new("2", 16)
}

fn chaos_pool(
    threads: usize,
    seed: u64,
    faults: FaultPlan,
    policy: RestartPolicy,
) -> (Pool, ProfileId) {
    let mut builder = Pool::builder()
        .threads(threads)
        .width(LaneWidth::W1)
        .seed_u64(seed)
        .faults(faults)
        .restart_policy(policy);
    let profile = builder.profile(&test_spec()).expect("profile builds");
    (builder.spawn(), profile)
}

/// Generous per-ticket deadline: anything that trips it is a hang, which
/// is exactly what these tests exist to rule out.
const HANG: Duration = Duration::from_secs(30);

/// Submits the trace in chunks of `chunk` requests (submit the chunk,
/// wait it out, next chunk — so traffic keeps flowing *after* deaths,
/// not just before), every wait bounded by a deadline. Returns
/// `Some(samples)` per fulfilled request, `None` where the pool answered
/// `WorkerGone` (at submission or through the ticket). Every other
/// outcome — including a deadline hit — is a test failure.
fn run_chaos_trace(
    pool: &Pool,
    profile: ProfileId,
    counts: &[usize],
    chunk: usize,
) -> Vec<Option<Vec<i32>>> {
    let mut live = Vec::with_capacity(counts.len());
    for chunk_counts in counts.chunks(chunk) {
        let tickets: Vec<Result<_, PoolError>> = chunk_counts
            .iter()
            .map(|&count| pool.submit(SampleRequest { profile, count }))
            .collect();
        let base = live.len();
        live.extend(tickets.into_iter().enumerate().map(|(i, ticket)| {
            let seq = base + i;
            match ticket {
                Ok(ticket) => match ticket.wait_timeout(HANG) {
                    Ok(response) => {
                        assert_eq!(response.seq, seq as u64, "seq echo audit");
                        Some(response.samples)
                    }
                    Err(WaitError::Pool(PoolError::WorkerGone)) => None,
                    Err(WaitError::Pool(error)) => panic!("request {seq}: unexpected {error}"),
                    Err(WaitError::TimedOut(_)) => panic!("request {seq}: ticket hung"),
                },
                Err(PoolError::WorkerGone) => None,
                Err(error) => panic!("request {seq}: unexpected submit error {error}"),
            }
        }));
    }
    live
}

/// Polls until shard `worker` reaches `state` (the supervisor works
/// asynchronously) — failing the test if it never does.
fn await_shard_state(pool: &Pool, worker: usize, state: ShardState) {
    let deadline = Instant::now() + HANG;
    while pool.health().shards[worker].state != state {
        assert!(
            Instant::now() < deadline,
            "shard {worker} never reached {state:?} (now {:?})",
            pool.health().shards[worker].state
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Replays (seed, trace, failure-log) and asserts the live run matches
/// bit for bit — fulfilled sample vectors and abandonment pattern alike.
fn assert_replay_matches(
    seed: u64,
    threads: usize,
    counts: &[usize],
    live: &[Option<Vec<i32>>],
    pool: &Pool,
) {
    pool.shutdown(); // the failure log is complete only after shutdown
    let failures = pool.failure_log();
    let trace: Vec<TraceEntry> = counts
        .iter()
        .map(|&count| TraceEntry {
            profile_index: 0,
            count,
        })
        .collect();
    let profiles = [test_spec().build_shared().expect("profile builds")];
    let replayed = replay(
        &SeedTree::from_u64_seed(seed),
        &profiles,
        threads,
        LaneWidth::W1,
        &trace,
        &failures,
        &[],
    );
    assert_eq!(replayed.len(), live.len());
    for (seq, (got, want)) in live.iter().zip(&replayed).enumerate() {
        assert_eq!(
            got, want,
            "request seq {seq} diverged between live run and replay"
        );
    }
}

#[test]
fn injected_panic_resolves_every_ticket_and_resurrects_the_shard() {
    let seed = 4242;
    let threads = 2;
    let faults = FaultPlan::new().panic_at_request(0, 5);
    let (pool, profile) = chaos_pool(threads, seed, faults, RestartPolicy::default());
    let counts: Vec<usize> = (0..60).map(|i| 10 + (i % 7) * 33).collect();

    let live = run_chaos_trace(&pool, profile, &counts, counts.len());

    // The injected panic abandoned at least the request it fired on.
    let abandoned = live.iter().filter(|r| r.is_none()).count();
    assert!(abandoned >= 1, "the fault's own request must be abandoned");
    // Only worker 0 (even seqs) was faulted; every odd seq is served.
    for (seq, response) in live.iter().enumerate() {
        if seq % threads == 1 {
            assert!(response.is_some(), "shard 1 request seq {seq} was lost");
        }
    }

    // Exactly one death, resurrected into epoch 1. (The tickets can all
    // resolve while the supervisor is still in its backoff window, so
    // wait for the resurrection to land.)
    await_shard_state(&pool, 0, ShardState::Alive { epoch: 1 });
    let health = pool.health();
    assert_eq!(health.restarts(), 1);
    assert_eq!(health.abandoned(), abandoned as u64);
    assert_eq!(health.shards[0].state, ShardState::Alive { epoch: 1 });
    assert_eq!(health.shards[1].state, ShardState::Alive { epoch: 0 });
    pool.shutdown(); // the failure log is complete only after shutdown
    let failures = pool.failure_log();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].worker, 0);
    assert_eq!(failures[0].epoch, 0);
    assert_eq!(
        failures[0].outcome,
        FailureOutcome::Restarted { new_epoch: 1 }
    );
    assert!(
        failures[0].cause.contains("injected fault"),
        "cause records the panic payload: {:?}",
        failures[0].cause
    );
    assert!(failures[0].abandoned.windows(2).all(|w| w[0] < w[1]));
    assert!(failures[0]
        .abandoned
        .iter()
        .all(|seq| seq % threads as u64 == 0));

    assert_replay_matches(seed, threads, &counts, &live, &pool);
}

#[test]
fn restart_budget_exhaustion_degrades_to_worker_gone() {
    let seed = 77;
    let threads = 2;
    // One allowed restart, but the worker dies again in its second epoch:
    // lifetime request counts keep counting across epochs, so two faults.
    let faults = FaultPlan::new()
        .panic_at_request(0, 3)
        .panic_at_request(0, 6);
    let policy = RestartPolicy {
        max_restarts: 1,
        ..RestartPolicy::default()
    };
    let (pool, profile) = chaos_pool(threads, seed, faults, policy);
    let counts: Vec<usize> = vec![50; 80];

    // Small chunks so traffic keeps flowing between the two deaths — the
    // second fault only fires once the resurrected worker has served
    // enough *new* requests to reach lifetime request 6.
    let live = run_chaos_trace(&pool, profile, &counts, 8);

    // Shard 1 untouched; shard 0 dead for good after the second death.
    for (seq, response) in live.iter().enumerate() {
        if seq % threads == 1 {
            assert!(response.is_some(), "shard 1 request seq {seq} was lost");
        }
    }
    let shard0: Vec<&Option<Vec<i32>>> = live.iter().step_by(threads).collect();
    let served_on_0 = shard0.iter().filter(|r| r.is_some()).count();
    assert!(served_on_0 >= 3, "epochs 0 and 1 each served some requests");
    assert!(
        shard0.iter().rev().take(3).all(|r| r.is_none()),
        "after exhaustion every shard-0 request fails"
    );

    await_shard_state(&pool, 0, ShardState::Dead);
    let health = pool.health();
    assert_eq!(health.shards[0].state, ShardState::Dead);
    assert_eq!(health.shards[0].restarts, 1);
    assert_eq!(health.shards[1].state, ShardState::Alive { epoch: 0 });
    pool.shutdown(); // the failure log is complete only after shutdown
    let failures = pool.failure_log();
    assert_eq!(failures.len(), 2);
    assert_eq!(
        failures[0].outcome,
        FailureOutcome::Restarted { new_epoch: 1 }
    );
    assert_eq!(failures[1].outcome, FailureOutcome::Exhausted);
    assert_eq!(failures[1].epoch, 1);

    assert_replay_matches(seed, threads, &counts, &live, &pool);
}

/// The deadline contract on the one submission lane, with and without
/// staging: a stalled worker backs its ring up, `submit_timeout` refuses
/// with `TimedOut` and `try_submit` with `Backpressure`, both *without
/// consuming a seq* (the retried request lands
/// under the very next one), and the retry helper outlasts the stall.
/// Requests are one full W1 batch, so every submission dispatches
/// inline in both modes and meets the full ring.
#[test]
fn stalled_worker_trips_deadlines_and_retry_recovers() {
    let staging = CoalesceConfig {
        steal: false,
        ..CoalesceConfig::default()
    };
    for coalesce in [CoalesceConfig::passthrough(), staging] {
        let seed = 9;
        let stall = Duration::from_millis(400);
        let faults = FaultPlan::new().stall_at_request(0, 1, stall);
        let mut builder = Pool::builder()
            .threads(1)
            .width(LaneWidth::W1)
            .seed_u64(seed)
            .queue_capacity(1)
            .coalesce(coalesce)
            .faults(faults);
        let profile = builder.profile(&test_spec()).expect("profile builds");
        let pool = builder.spawn();
        let request = SampleRequest { profile, count: 64 };

        // A is claimed, then the worker stalls before serving it.
        let ticket_a = pool.submit(request).expect("submit A");
        while pool
            .metrics()
            .gauge("pool_shards", "shard0_queue_depth")
            .unwrap()
            > 0.0
        {
            std::thread::yield_now();
        }
        // B fills the only ring slot while the worker sleeps...
        let _ticket_b = pool.submit(request).expect("submit B");
        // ...so C cannot be placed before its deadline.
        match pool.submit_timeout(request, Duration::from_millis(30)) {
            Err(PoolError::TimedOut) => {}
            other => panic!("{coalesce:?}: expected TimedOut, got {other:?}"),
        }
        // The non-blocking variant refuses the full ring the same way.
        assert_eq!(
            pool.try_submit(request).err(),
            Some(PoolError::Backpressure)
        );
        assert_eq!(
            pool.submitted(),
            2,
            "{coalesce:?}: a refusal consumes no seq"
        );
        // A bounded ticket wait trips too — and hands the ticket back.
        let ticket_a = match ticket_a.wait_timeout(Duration::from_millis(30)) {
            Err(WaitError::TimedOut(ticket)) => ticket,
            other => panic!("{coalesce:?}: expected ticket timeout, got {other:?}"),
        };
        // The retry helper outlasts the stall and lands C after all.
        let policy = RetryPolicy {
            attempts: 40,
            submit_timeout: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let ticket_c = submit_with_retry(&pool, request, &policy).expect("retry lands C");
        // The stall was a delay, not a death: everything is eventually
        // served and the pool is unblemished.
        assert_eq!(ticket_a.wait_timeout(HANG).expect("A served").seq, 0);
        assert_eq!(ticket_c.wait_timeout(HANG).expect("C served").seq, 2);
        assert!(pool.health().all_alive());
        assert_eq!(pool.health().restarts(), 0);
        assert!(pool.failure_log().is_empty());
    }
}

#[test]
fn fault_spec_string_drives_the_same_plan_as_the_builder() {
    let parsed =
        FaultPlan::parse("panic@w0.req5; stall@w1.batch2:40ms; cacheload:3").expect("parses");
    let built = FaultPlan::new()
        .panic_at_request(0, 5)
        .stall_at_batch(1, 2, Duration::from_millis(40))
        .fail_cache_loads(3);
    assert_eq!(parsed, built);
}

/// The chaos gate on a service-shaped workload: the built-in plan at
/// four shards and the CI env-spec plan (parsed, not read from the
/// environment) at two, each over a 2,000-request two-profile long-tail
/// trace — ~500 requests per shard at four, so every worker clause fires,
/// including worker 1's 260th request. Each live run must replay bit
/// for bit from its own failure log; the replay derives every `None`
/// from that log, so equality also proves each lost request accounted.
#[test]
fn long_tail_chaos_runs_replay_from_their_failure_logs() {
    let seed = 7;
    let trace = common::long_tail_trace(1, 2000);
    let builtin = FaultPlan::parse(DEFAULT_CHAOS_SPEC).expect("built-in spec parses");
    // The cache-load clause arms on this thread before the kernels are
    // built, so with the kernel cache enabled the first load fails and
    // the build falls back to synthesis.
    builtin.arm_cache_load_failures();
    let profiles = common::long_tail_profiles();
    let env_spec = FaultPlan::parse("panic@w1.req25;panic@w1.req90;stall@w0.req50:15ms")
        .expect("env spec parses");
    for (plan, threads) in [(builtin, 4), (env_spec, 2)] {
        let (live, failures) = common::run_long_tail(&profiles, threads, seed, plan, &trace);
        // Both plans panic a worker below their thread count.
        assert!(!failures.is_empty(), "threads {threads}: no worker died");
        let offline = replay(
            &SeedTree::from_u64_seed(seed),
            &profiles,
            threads,
            LaneWidth::W4,
            &trace,
            &failures,
            &[],
        );
        for (seq, (got, want)) in live.iter().zip(&offline).enumerate() {
            assert_eq!(
                got, want,
                "threads {threads}: seq {seq} diverged from replay"
            );
        }
    }
}
