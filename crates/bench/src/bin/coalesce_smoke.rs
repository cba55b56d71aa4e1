//! `coalesce_smoke` — the CI gate for cross-request staging.
//!
//! Two phases, both against in-process pools (no sockets — the wire is
//! `rpc_smoke`'s job):
//!
//! 1. **Equivalence**: a 10k tiny-request mixed-profile trace runs
//!    twice at one thread — once through the staging coalescer, once
//!    through [`CoalesceConfig::passthrough`] (every request its own
//!    gang). The per-request samples must be bit-identical and the FNV
//!    digests equal: gang packing is a scheduling decision, never a
//!    value decision. The coalesced run must then replay bit-exactly
//!    offline from `(seed, trace, width, dispatch log)` and from the
//!    passthrough schedule (an empty dispatch log).
//! 2. **Stealing**: a stalled shard at two threads with stealing on
//!    leaves its queue to the idle sibling; the run must record actual
//!    steals and still replay bit-exactly from the dispatch log, which
//!    attributes every stolen gang to the thief.
//!
//! Any violation exits non-zero; a watchdog kills a wedged run (exit
//! 3). `--requests N` and `--seed S` are accepted for local runs.

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ctgauss_core::{CtSampler, SamplerSpec};
use ctgauss_pool::{
    replay, CoalesceConfig, DispatchRecord, FaultPlan, LaneWidth, Pool, ProfileId, SampleRequest,
    TraceEntry,
};
use ctgauss_prng::{RandomSource, SeedTree, SplitMix64};
use ctgauss_rpc_client::harness::{arm_watchdog, FnvChecksum};

/// Tiny mixed-profile trace: counts 1..=8, all profiles interleaved —
/// the workload the coalescer exists for.
fn tiny_trace(seed: u64, len: usize, profiles: usize) -> Vec<TraceEntry> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| TraceEntry {
            profile_index: (rng.next_u64() % profiles as u64) as usize,
            count: 1 + (rng.next_u64() % 8) as usize,
        })
        .collect()
}

fn build_profiles() -> Vec<Arc<CtSampler>> {
    [("2", 16u32), ("6.15543", 16), ("1.5", 16)]
        .iter()
        .map(|&(sigma, n)| {
            SamplerSpec::new(sigma, n)
                .build_shared()
                .expect("profile builds")
        })
        .collect()
}

struct Run {
    live: Vec<Vec<i32>>,
    dispatch: Vec<Vec<DispatchRecord>>,
    steals: u64,
    gangs: u64,
}

/// Runs `trace` through a fresh pool and waits every ticket out. The
/// run must be clean — worker faults are `rpc_smoke`'s chaos leg, not
/// this gate.
fn run_trace(
    shared: &[Arc<CtSampler>],
    threads: usize,
    width: LaneWidth,
    seed: u64,
    coalesce: CoalesceConfig,
    trace: &[TraceEntry],
) -> Result<Run, String> {
    let mut builder = Pool::builder()
        .threads(threads)
        .width(width)
        .queue_capacity(1024)
        .seed_u64(seed)
        .coalesce(coalesce);
    let ids: Vec<ProfileId> = shared
        .iter()
        .map(|s| builder.shared_profile(Arc::clone(s)))
        .collect();
    let pool = builder.spawn();
    let tickets: Vec<_> = trace
        .iter()
        .map(|entry| {
            pool.submit(SampleRequest {
                profile: ids[entry.profile_index],
                count: entry.count,
            })
            .expect("clean pool accepts")
        })
        .collect();
    let mut live = Vec::with_capacity(tickets.len());
    for (seq, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait_timeout(Duration::from_secs(30)) {
            Ok(response) => live.push(response.samples),
            Err(error) => return Err(format!("seq {seq} failed on a fault-free pool: {error}")),
        }
    }
    pool.shutdown();
    if !pool.failure_log().is_empty() {
        return Err(format!(
            "{} failure events on a fault-free pool",
            pool.failure_log().len()
        ));
    }
    let gangs = pool.metrics().counter("pool", "gangs_flushed").unwrap_or(0);
    Ok(Run {
        live,
        dispatch: pool.dispatch_log(),
        steals: pool.steals(),
        gangs,
    })
}

fn checksum(runs: &[Vec<i32>]) -> u64 {
    let mut digest = FnvChecksum::new();
    for samples in runs {
        digest.update(samples);
    }
    digest.value()
}

/// Offline replay of a recorded run from `dispatch` (the run's own log,
/// or empty for the passthrough schedule); errs on the first diverging
/// seq.
fn assert_replays(
    phase: &str,
    seed: u64,
    shared: &[Arc<CtSampler>],
    width: LaneWidth,
    trace: &[TraceEntry],
    run: &Run,
    dispatch: &[Vec<DispatchRecord>],
) -> Result<(), String> {
    let replayed = replay(
        &SeedTree::from_u64_seed(seed),
        shared,
        run.dispatch.len(),
        width,
        trace,
        &[],
        dispatch,
    );
    for (seq, (got, want)) in run.live.iter().zip(&replayed).enumerate() {
        if Some(got) != want.as_ref() {
            return Err(format!("{phase}: replay diverged at seq {seq}"));
        }
    }
    Ok(())
}

/// Phase 1: coalesced == passthrough, bit for bit, and the coalesced
/// run replays from its dispatch log.
fn equivalence_phase(shared: &[Arc<CtSampler>], requests: usize, seed: u64) -> Result<(), String> {
    let width = LaneWidth::W4;
    let trace = tiny_trace(seed ^ 0xE0_0E, requests, shared.len());
    let coalesced = run_trace(
        shared,
        1,
        width,
        seed,
        CoalesceConfig {
            steal: false,
            ..CoalesceConfig::default()
        },
        &trace,
    )?;
    let passthrough = run_trace(
        shared,
        1,
        width,
        seed,
        CoalesceConfig::passthrough(),
        &trace,
    )?;
    for (seq, (on, off)) in coalesced.live.iter().zip(&passthrough.live).enumerate() {
        if on != off {
            return Err(format!(
                "coalescing changed sample values at seq {seq}: {} vs {} samples",
                on.len(),
                off.len()
            ));
        }
    }
    let (on, off) = (checksum(&coalesced.live), checksum(&passthrough.live));
    if on != off {
        return Err(format!("checksum diff: on {on:016x} vs off {off:016x}"));
    }
    if coalesced.gangs >= passthrough.gangs {
        return Err(format!(
            "nothing coalesced: {} gangs with staging vs {} without",
            coalesced.gangs, passthrough.gangs
        ));
    }
    assert_replays(
        "equivalence",
        seed,
        shared,
        width,
        &trace,
        &coalesced,
        &coalesced.dispatch,
    )?;
    assert_replays(
        "equivalence (passthrough schedule)",
        seed,
        shared,
        width,
        &trace,
        &coalesced,
        &[],
    )?;
    println!(
        "coalesce_smoke: equivalence ok ({requests} tiny requests, checksum {on:016x}, \
         {} gangs coalesced vs {} passthrough, replay exact)",
        coalesced.gangs, passthrough.gangs
    );
    Ok(())
}

/// Phase 2: a stalled shard's queue must be drained by the sibling —
/// actual steals, attributed to the thief in the dispatch log, and the
/// stolen run must still replay bit-exactly. A stall is not a death:
/// the failure log stays empty, so the steal path alone carries the
/// replay burden.
fn steal_phase(shared: &[Arc<CtSampler>], _requests: usize, seed: u64) -> Result<(), String> {
    let width = LaneWidth::W1;
    // Full-gang requests: every one dispatches at once, alternating
    // between the shards (home = seq mod threads). Worker 1 drains its
    // own half quickly and then finds only stalled shard 0's queue.
    let trace: Vec<TraceEntry> = (0..40)
        .map(|_| TraceEntry {
            profile_index: 0,
            count: 64,
        })
        .collect();
    let mut builder = Pool::builder()
        .threads(2)
        .width(width)
        .queue_capacity(1024)
        .seed_u64(seed)
        .coalesce(CoalesceConfig::default())
        .faults(FaultPlan::new().stall_at_request(0, 1, Duration::from_millis(300)));
    let ids: Vec<ProfileId> = shared
        .iter()
        .map(|s| builder.shared_profile(Arc::clone(s)))
        .collect();
    let pool = builder.spawn();

    // Submit the first request alone and wait for worker 0 to claim it:
    // the stall then pins worker 0 mid-serve with an empty claim
    // buffer, so everything submitted next queues on ring 0 where the
    // idle worker 1 finds it.
    let first = pool
        .submit(SampleRequest {
            profile: ids[0],
            count: trace[0].count,
        })
        .expect("submit");
    while pool
        .metrics()
        .gauge("pool_shards", "shard0_queue_depth")
        .unwrap_or(0.0)
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
    let mut live = Vec::with_capacity(trace.len());
    for (seq, ticket) in std::iter::once(first).chain(rest).enumerate() {
        match ticket.wait_timeout(Duration::from_secs(30)) {
            Ok(response) => live.push(response.samples),
            Err(error) => return Err(format!("seq {seq} failed under a stall: {error}")),
        }
    }
    pool.shutdown();
    if !pool.failure_log().is_empty() {
        return Err("a stall must not register as a failure event".into());
    }
    let run = Run {
        live,
        dispatch: pool.dispatch_log(),
        steals: pool.steals(),
        gangs: 0,
    };
    if run.steals == 0 {
        return Err("stalled-shard run recorded zero steals".into());
    }
    let thieved = run.dispatch[1]
        .iter()
        .filter(|record| record.home == 0)
        .count();
    if thieved == 0 {
        return Err("steals counted but the dispatch log attributes none to the thief".into());
    }
    assert_replays("steal", seed, shared, width, &trace, &run, &run.dispatch)?;
    println!(
        "coalesce_smoke: steal ok ({} requests, {} steals, {} gangs served by the thief, \
         replay exact)",
        trace.len(),
        run.steals,
        thieved
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut requests = 10_000usize;
    let mut seed = 11u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--requests" => requests = it.next().and_then(|v| v.parse().ok()).expect("--requests"),
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).expect("--seed"),
            other => {
                eprintln!("usage: coalesce_smoke [--requests N] [--seed S]   (got {other:?})");
                return ExitCode::from(2);
            }
        }
    }
    let watchdog = arm_watchdog("coalesce_smoke", Duration::from_secs(600));
    let shared = build_profiles();
    let mut failed = false;
    for (name, phase) in [
        ("equivalence", equivalence_phase as fn(_, _, _) -> _),
        ("steal", steal_phase),
    ] {
        if let Err(message) = phase(&shared, requests, seed) {
            failed = true;
            eprintln!("coalesce_smoke: {name} phase FAILED: {message}");
        }
    }
    watchdog.store(true, Ordering::Relaxed);
    if failed {
        ExitCode::FAILURE
    } else {
        println!("coalesce_smoke: all phases ok");
        ExitCode::SUCCESS
    }
}
