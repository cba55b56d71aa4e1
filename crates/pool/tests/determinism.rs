//! The pool's determinism contract, tested end to end.
//!
//! 1. `threads = 1, W = 1` reproduces, per profile `p`, the scalar
//!    `CtSampler::sample_into` stream bit for bit over
//!    `seeds.fork_subtree(0).fork_chacha(p)`.
//! 2. Every `LaneWidth` produces the identical stream (the draw-order
//!    contract lifted to the service).
//! 3. Any `(threads, width)` is replayable: the full response set is a
//!    pure function of (seed, request trace), equal to a per-shard
//!    scalar simulation, and `replay` reconstructs it — from the
//!    passthrough schedule, or from the dispatch log once stealing or a
//!    death under staging moved work.

use std::sync::Arc;

use ctgauss_core::{CtSampler, SamplerSpec};
use ctgauss_pool::{
    replay, CoalesceConfig, FaultPlan, LaneWidth, Pool, PoolError, ProfileId, SampleRequest,
    TraceEntry, WaitError,
};
use ctgauss_prng::SeedTree;

/// A cheap-to-build profile for service-level tests.
fn test_spec() -> SamplerSpec {
    SamplerSpec::new("2", 16)
}

/// Request sizes exercising sub-batch, exact-batch, multi-batch and
/// carry-straddling counts (batch units are 64..512 depending on width).
const TRACE: [usize; 12] = [10, 0, 54, 64, 100, 1, 513, 63, 256, 7, 300, 128];

fn pool_with(threads: usize, width: LaneWidth, seed: u64) -> (Pool, ProfileId) {
    let mut builder = Pool::builder().threads(threads).width(width).seed_u64(seed);
    let profile = builder.profile(&test_spec()).expect("profile builds");
    (builder.spawn(), profile)
}

/// Runs the trace through a pool and returns each response's samples, in
/// submission order.
fn run_trace(pool: &Pool, profile: ProfileId, trace: &[usize]) -> Vec<Vec<i32>> {
    let tickets: Vec<_> = trace
        .iter()
        .map(|&count| {
            pool.submit(SampleRequest { profile, count })
                .expect("submit")
        })
        .collect();
    tickets
        .into_iter()
        .map(|t| t.wait().expect("response").samples)
        .collect()
}

/// Per-profile streams: at one thread, each profile's concatenated
/// responses — over a trace that interleaves two profiles — equal one
/// scalar `sample_into` call over that profile's forked stream.
#[test]
fn single_thread_pool_reproduces_scalar_sample_into() {
    let seed = 2024;
    let specs = v2_specs();
    let mut builder = Pool::builder()
        .threads(1)
        .width(LaneWidth::W1)
        .seed_u64(seed);
    let ids: Vec<ProfileId> = specs
        .iter()
        .map(|spec| builder.profile(spec).expect("profile builds"))
        .collect();
    let pool = builder.spawn();
    // TRACE's counts, profiles interleaved: 0, 1, 1, 0, 1, 1, ...
    let trace: Vec<TraceEntry> = TRACE
        .iter()
        .enumerate()
        .map(|(i, &count)| TraceEntry {
            profile_index: usize::from(i % 3 != 0),
            count,
        })
        .collect();
    let responses = run_v2_trace(&pool, &ids, &trace);

    let seeds = SeedTree::from_u64_seed(seed);
    for (p, spec) in specs.iter().enumerate() {
        let pooled: Vec<i32> = trace
            .iter()
            .zip(&responses)
            .filter(|(entry, _)| entry.profile_index == p)
            .flat_map(|(entry, response)| {
                let samples = response.as_ref().expect("clean run serves all");
                assert_eq!(samples.len(), entry.count, "response length");
                samples.iter().copied()
            })
            .collect();
        // The scalar reference: one sample_into call of the profile's
        // total length over the stream the single worker owns for it.
        let sampler = spec.build().expect("builds");
        let mut rng = seeds.fork_subtree(0).fork_chacha(p as u64);
        let mut reference = vec![0i32; pooled.len()];
        sampler.sample_into(&mut reference, &mut rng);
        assert_eq!(
            pooled, reference,
            "profile {p}: pool(threads=1, W=1) != scalar sample_into"
        );
    }
}

#[test]
fn every_lane_width_produces_the_same_stream() {
    let reference = {
        let (pool, profile) = pool_with(1, LaneWidth::W1, 7);
        run_trace(&pool, profile, &TRACE)
    };
    for width in [LaneWidth::W2, LaneWidth::W4, LaneWidth::W8] {
        let (pool, profile) = pool_with(1, width, 7);
        assert_eq!(
            run_trace(&pool, profile, &TRACE),
            reference,
            "width {width:?} diverged from W1"
        );
    }
}

/// Deterministically expands a seed into a 1000-request trace. Sizes mix
/// zero-length, sub-batch, exact-batch and multi-batch counts so every
/// width's carry coalescer is straddled many times.
fn thousand_request_trace(seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..1000)
        .map(|_| match next() % 8 {
            0 => 0,
            1 => (next() % 64) as usize,         // sub-batch
            2 => 64 * (1 + next() % 8) as usize, // whole batches
            3 => 513,                            // straddles every width
            _ => (next() % 200) as usize,
        })
        .collect()
}

/// The recorded 1k-request regression trace: replayed with the worker
/// backend forced (via `LaneWidth`, which the worker maps onto the widest
/// available backend of that exact width) to every lane width, every
/// response must be bit-identical to the scalar `W1` recording — and a
/// second pool at the same width must reproduce it exactly (replay).
#[test]
fn thousand_request_trace_replays_bit_exactly_at_every_lane_width() {
    let seed = 31337;
    let trace = thousand_request_trace(0xD1FF_5EED);
    let reference = {
        let (pool, profile) = pool_with(1, LaneWidth::W1, seed);
        run_trace(&pool, profile, &trace)
    };
    for width in [LaneWidth::W1, LaneWidth::W2, LaneWidth::W4, LaneWidth::W8] {
        let (pool, profile) = pool_with(1, width, seed);
        let replay = run_trace(&pool, profile, &trace);
        assert_eq!(
            replay.len(),
            reference.len(),
            "width {width:?} response count"
        );
        for (seq, (got, want)) in replay.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "width {width:?} diverged at request seq {seq}");
        }
    }
}

#[test]
fn multi_thread_pool_is_replayable() {
    for threads in [2usize, 3, 4] {
        let (pool_a, profile_a) = pool_with(threads, LaneWidth::W4, 99);
        let (pool_b, profile_b) = pool_with(threads, LaneWidth::W4, 99);
        let a = run_trace(&pool_a, profile_a, &TRACE);
        let b = run_trace(&pool_b, profile_b, &TRACE);
        assert_eq!(a, b, "replay diverged at {threads} threads");
    }
}

#[test]
fn sharded_responses_match_per_shard_scalar_simulation() {
    let threads = 3;
    let seed = 555;
    let (pool, profile) = pool_with(threads, LaneWidth::W2, seed);
    let responses = run_trace(&pool, profile, &TRACE);

    // Simulate each shard: requests are assigned round-robin by sequence
    // number, and a shard's concatenated output is one scalar
    // sample_into over its (shard, profile 0) stream.
    let sampler = test_spec().build().expect("builds");
    let seeds = SeedTree::from_u64_seed(seed);
    for w in 0..threads {
        let shard_requests: Vec<(usize, usize)> = TRACE
            .iter()
            .enumerate()
            .filter(|(seq, _)| seq % threads == w)
            .map(|(seq, &count)| (seq, count))
            .collect();
        let total: usize = shard_requests.iter().map(|&(_, c)| c).sum();
        let mut rng = seeds.fork_subtree(w as u64).fork_chacha(0);
        let mut stream = vec![0i32; total];
        sampler.sample_into(&mut stream, &mut rng);
        let mut offset = 0;
        for (seq, count) in shard_requests {
            assert_eq!(
                responses[seq],
                stream[offset..offset + count],
                "shard {w}, request seq {seq}"
            );
            offset += count;
        }
    }
}

/// The determinism contract under failure: a worker panic mid-trace must
/// not cost the run its replayability. The pool records the death in its
/// failure log; `replay(seed, trace, failure_log)` — single-threaded, no
/// pool — must then reproduce every fulfilled response bit for bit and
/// predict exactly which requests were abandoned, and must agree whether
/// it follows the passthrough schedule (empty dispatch log) or the
/// pool's own dispatch log. Checked at two lane widths: each width's
/// live run matches *its own* replay (the abandonment pattern is allowed
/// to differ between runs; the failure log pins it).
#[test]
fn crashed_run_replays_bit_exactly_from_its_failure_log() {
    let seed = 606;
    let threads = 3;
    let trace: Vec<usize> = thousand_request_trace(0xBADC_0FFE)
        .into_iter()
        .take(300)
        .collect();
    for width in [LaneWidth::W1, LaneWidth::W4] {
        let mut builder = Pool::builder()
            .threads(threads)
            .width(width)
            .seed_u64(seed)
            .faults(FaultPlan::new().panic_at_batch(1, 6));
        let profile = builder.profile(&test_spec()).expect("profile builds");
        let pool = builder.spawn();

        let tickets: Vec<_> = trace
            .iter()
            .map(|&count| pool.submit(SampleRequest { profile, count }))
            .collect();
        let live: Vec<Option<Vec<i32>>> = tickets
            .into_iter()
            .map(|ticket| {
                let ticket = ticket.expect("no shard is ever retired here");
                match ticket.wait_timeout(std::time::Duration::from_secs(30)) {
                    Ok(response) => Some(response.samples),
                    Err(WaitError::Pool(PoolError::WorkerGone)) => None,
                    Err(other) => panic!("ticket must resolve, got {other:?}"),
                }
            })
            .collect();
        pool.shutdown();

        let failures = pool.failure_log();
        assert_eq!(failures.len(), 1, "exactly one injected death ({width:?})");
        assert_eq!(failures[0].worker, 1);
        let entries: Vec<TraceEntry> = trace
            .iter()
            .map(|&count| TraceEntry {
                profile_index: 0,
                count,
            })
            .collect();
        let profiles = [test_spec().build_shared().expect("profile builds")];
        let seeds = SeedTree::from_u64_seed(seed);
        let schedule = replay(&seeds, &profiles, threads, width, &entries, &failures, &[]);
        let logged = replay(
            &seeds,
            &profiles,
            threads,
            width,
            &entries,
            &failures,
            &pool.dispatch_log(),
        );
        assert_eq!(
            schedule, logged,
            "width {width:?}: schedule vs dispatch log"
        );
        for (seq, (got, want)) in live.iter().zip(&schedule).enumerate() {
            assert_eq!(got, want, "width {width:?} diverged at request seq {seq}");
        }
    }
}

// ---------------------------------------------------------------------
// Staging determinism: dispatch-log and passthrough-schedule replay,
// passthrough equivalence, stealing, and chaos.
// ---------------------------------------------------------------------

/// The specs the multi-profile tests register, in index order.
fn v2_specs() -> [SamplerSpec; 3] {
    [
        SamplerSpec::new("2", 16),
        SamplerSpec::new("1.5", 16),
        SamplerSpec::new("6.15543", 16),
    ]
}

fn v2_profiles() -> Vec<Arc<CtSampler>> {
    v2_specs()
        .iter()
        .map(|spec| spec.build_shared().expect("profile builds"))
        .collect()
}

/// A deterministic tiny-request mixed-profile trace: counts 1..=16,
/// `profiles` interleaved pseudo-randomly — the workload coalescing
/// exists for.
fn tiny_mixed_trace(seed: u64, len: usize, profiles: u64) -> Vec<TraceEntry> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| TraceEntry {
            profile_index: (next() % profiles) as usize,
            count: 1 + (next() % 16) as usize,
        })
        .collect()
}

fn v2_pool(
    threads: usize,
    width: LaneWidth,
    seed: u64,
    cfg: CoalesceConfig,
) -> (Pool, Vec<ProfileId>) {
    let mut builder = Pool::builder()
        .threads(threads)
        .width(width)
        .seed_u64(seed)
        .coalesce(cfg);
    let ids = v2_specs()
        .iter()
        .map(|spec| builder.profile(spec).expect("profile builds"))
        .collect();
    (builder.spawn(), ids)
}

/// Submits the trace and waits every ticket out, `None` where the pool
/// answered `WorkerGone`.
fn run_v2_trace(pool: &Pool, ids: &[ProfileId], trace: &[TraceEntry]) -> Vec<Option<Vec<i32>>> {
    let tickets: Vec<_> = trace
        .iter()
        .map(|entry| {
            pool.submit(SampleRequest {
                profile: ids[entry.profile_index],
                count: entry.count,
            })
            .expect("submission accepted")
        })
        .collect();
    tickets
        .into_iter()
        .map(
            |ticket| match ticket.wait_timeout(std::time::Duration::from_secs(30)) {
                Ok(response) => Some(response.samples),
                Err(WaitError::Pool(PoolError::WorkerGone)) => None,
                Err(other) => panic!("ticket must resolve, got {other:?}"),
            },
        )
        .collect()
}

/// A coalesced run — requests ganged across submissions, served
/// batch-at-a-time — replays bit-exactly from (seed, trace, width,
/// dispatch log), at more than one width, and the trace-only passthrough
/// schedule agrees too.
#[test]
fn coalesced_tiny_requests_replay_bit_exactly_from_dispatch_log() {
    let seed = 7171;
    let threads = 2;
    let trace = tiny_mixed_trace(0xC0A1_E5CE, 400, 2);
    for width in [LaneWidth::W1, LaneWidth::W4] {
        let (pool, ids) = v2_pool(
            threads,
            width,
            seed,
            CoalesceConfig {
                steal: false,
                ..CoalesceConfig::default()
            },
        );
        let live = run_v2_trace(&pool, &ids, &trace);
        pool.shutdown();
        assert!(pool.failure_log().is_empty(), "clean run");

        // Coalescing actually happened: fewer gangs than members.
        let metrics = pool.metrics();
        let gangs = metrics.counter("pool", "gangs_flushed").unwrap();
        let members = metrics.counter("pool", "gang_members_flushed").unwrap();
        assert_eq!(members, trace.len() as u64);
        assert!(
            gangs < members,
            "width {width:?}: {gangs} gangs for {members} members — nothing coalesced"
        );

        let seeds = SeedTree::from_u64_seed(seed);
        let profiles = v2_profiles();
        let replayed = replay(
            &seeds,
            &profiles,
            threads,
            width,
            &trace,
            &[],
            &pool.dispatch_log(),
        );
        for (seq, (got, want)) in live.iter().zip(&replayed).enumerate() {
            assert_eq!(got, want, "width {width:?} diverged at seq {seq}");
        }

        // Clean run, stealing off: the trace-only passthrough schedule
        // (what an offline verifier without server logs uses) agrees too.
        let schedule = replay(&seeds, &profiles, threads, width, &trace, &[], &[]);
        assert_eq!(live, schedule, "width {width:?}: passthrough schedule");
    }
}

/// Coalescing must change latency, not values: at one thread, a
/// passthrough run (staging disabled, same stream layout) delivers
/// bit-identical per-request samples to a coalesced run of the same
/// three-profile trace. The coalesced run must actually gang requests,
/// and it replays bit-exactly both from its dispatch log and from the
/// passthrough schedule.
#[test]
fn passthrough_matches_coalesced_at_one_thread() {
    let seed = 909;
    let trace = tiny_mixed_trace(0xFADE, 300, 3);
    let run = |cfg| {
        let (pool, ids) = v2_pool(1, LaneWidth::W4, seed, cfg);
        let live = run_v2_trace(&pool, &ids, &trace);
        pool.shutdown();
        let gangs = pool.metrics().counter("pool", "gangs_flushed").unwrap();
        (live, gangs, pool.dispatch_log())
    };
    let (coalesced, coalesced_gangs, dispatch) = run(CoalesceConfig::default());
    let (passthrough, passthrough_gangs, _) = run(CoalesceConfig::passthrough());
    for (seq, (a, b)) in coalesced.iter().zip(&passthrough).enumerate() {
        assert_eq!(a, b, "coalesced vs passthrough diverged at seq {seq}");
    }
    assert!(
        coalesced_gangs < passthrough_gangs,
        "nothing coalesced: {coalesced_gangs} gangs staged vs {passthrough_gangs} passthrough"
    );
    let seeds = SeedTree::from_u64_seed(seed);
    for (schedule, name) in [
        (&dispatch[..], "dispatch log"),
        (&[], "passthrough schedule"),
    ] {
        let replayed = replay(
            &seeds,
            &v2_profiles(),
            1,
            LaneWidth::W4,
            &trace,
            &[],
            schedule,
        );
        for (seq, (got, want)) in coalesced.iter().zip(&replayed).enumerate() {
            assert_eq!(got, want, "{name} replay diverged at seq {seq}");
        }
    }
}

/// Work stealing: a hot profile backs up its home shard, the idle
/// sibling steals — and because the dispatch log records who served
/// what, the run still replays bit-exactly. A stall fault pins worker 0
/// mid-serve so the steal is guaranteed, not scheduling luck.
#[test]
fn stolen_gangs_are_recorded_and_replay_bit_exactly() {
    let seed = 5150;
    let threads = 2;
    // Full-batch requests alternate between the shards (home = seq mod
    // threads); worker 0 stalls on its first member while its half of
    // the trace queues behind it.
    let trace: Vec<TraceEntry> = (0..40)
        .map(|_| TraceEntry {
            profile_index: 0,
            count: 64,
        })
        .collect();
    let mut builder = Pool::builder()
        .threads(threads)
        .width(LaneWidth::W1)
        .seed_u64(seed)
        .coalesce(CoalesceConfig::default())
        .faults(FaultPlan::new().stall_at_request(0, 1, std::time::Duration::from_millis(300)));
    let ids: Vec<ProfileId> = v2_specs()
        .iter()
        .map(|spec| builder.profile(spec).expect("profile builds"))
        .collect();
    let pool = builder.spawn();

    // Submit the first request alone and wait for worker 0 to claim it
    // (queue drained): the stall then pins worker 0 *mid-serve* with an
    // empty claim buffer, so its later requests queue on ring 0 where
    // worker 1 finds them once its own half is served.
    let first = pool
        .submit(SampleRequest {
            profile: ids[0],
            count: trace[0].count,
        })
        .expect("submit");
    while pool
        .metrics()
        .gauge("pool_shards", "shard0_queue_depth")
        .unwrap()
        > 0.0
    {
        std::thread::yield_now();
    }
    let rest: Vec<_> = trace[1..]
        .iter()
        .map(|entry| {
            pool.submit(SampleRequest {
                profile: ids[entry.profile_index],
                count: entry.count,
            })
            .expect("submit")
        })
        .collect();
    let mut live = vec![Some(
        first
            .wait_timeout(std::time::Duration::from_secs(30))
            .expect("served")
            .samples,
    )];
    live.extend(rest.into_iter().map(|ticket| {
        Some(
            ticket
                .wait_timeout(std::time::Duration::from_secs(30))
                .expect("served")
                .samples,
        )
    }));
    pool.shutdown();
    assert!(pool.failure_log().is_empty(), "a stall is not a death");
    assert!(
        pool.steals() > 0,
        "worker 1 must have stolen from the stalled shard 0"
    );
    let dispatch = pool.dispatch_log();
    assert!(
        dispatch[1].iter().any(|record| record.home == 0),
        "the dispatch log attributes stolen gangs to the thief"
    );

    let replayed = replay(
        &SeedTree::from_u64_seed(seed),
        &v2_profiles(),
        threads,
        LaneWidth::W1,
        &trace,
        &pool.failure_log(),
        &dispatch,
    );
    for (seq, (got, want)) in live.iter().zip(&replayed).enumerate() {
        assert_eq!(got, want, "stolen run diverged at seq {seq}");
    }
}

/// Chaos: a worker panic mid-run (restart epoch) must leave the
/// coalesced run reconstructible from (seed, trace, width, failure log,
/// dispatch log) — abandoned gang members land on `None` exactly as the
/// live tickets resolved.
#[test]
fn coalesced_chaos_run_replays_from_failure_and_dispatch_logs() {
    let seed = 6007;
    let threads = 2;
    let trace = tiny_mixed_trace(0xDEAD_BEEF, 300, 2);
    let mut builder = Pool::builder()
        .threads(threads)
        .width(LaneWidth::W1)
        .seed_u64(seed)
        .coalesce(CoalesceConfig {
            steal: false,
            ..CoalesceConfig::default()
        })
        .faults(FaultPlan::new().panic_at_batch(0, 4));
    let ids: Vec<ProfileId> = v2_specs()
        .iter()
        .map(|spec| builder.profile(spec).expect("profile builds"))
        .collect();
    let pool = builder.spawn();

    let live = run_v2_trace(&pool, &ids, &trace);
    pool.shutdown();
    let failures = pool.failure_log();
    assert_eq!(failures.len(), 1, "exactly one injected death");
    assert_eq!(failures[0].worker, 0);
    let abandoned = live.iter().filter(|r| r.is_none()).count();
    assert!(abandoned >= 1, "the panicking gang was abandoned");

    let replayed = replay(
        &SeedTree::from_u64_seed(seed),
        &v2_profiles(),
        threads,
        LaneWidth::W1,
        &trace,
        &failures,
        &pool.dispatch_log(),
    );
    for (seq, (got, want)) in live.iter().zip(&replayed).enumerate() {
        assert_eq!(got, want, "chaos coalesced run diverged at seq {seq}");
    }
}

#[test]
fn distinct_workers_draw_distinct_streams() {
    // Two equal-size requests of a default (passthrough) single-profile
    // pool land on workers 0 and 1 by seq; their samples must come from
    // different forked streams (overwhelmingly: 256 samples), and both
    // shards must have served.
    let (pool, profile) = pool_with(2, LaneWidth::W1, 1);
    let a = pool.sample_vec(profile, 256).expect("worker 0");
    let b = pool.sample_vec(profile, 256).expect("worker 1");
    assert_ne!(a, b, "worker streams must be independent");
    let metrics = pool.metrics();
    for shard in 0..2 {
        let served = metrics
            .counter("pool_shards", &format!("shard{shard}_requests"))
            .expect("per-shard counter");
        assert!(served > 0, "shard {shard} served nothing");
    }
}

#[test]
fn seed_changes_the_streams() {
    let (pool_a, profile_a) = pool_with(1, LaneWidth::W4, 1);
    let (pool_b, profile_b) = pool_with(1, LaneWidth::W4, 2);
    assert_ne!(
        pool_a.sample_vec(profile_a, 256).expect("a"),
        pool_b.sample_vec(profile_b, 256).expect("b"),
    );
}
