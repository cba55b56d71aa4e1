//! `pool_server` — a stdin/stdout load generator for `ctgauss-pool`.
//!
//! Line protocol: one request per line, `<profile> <count>` (or just
//! `<count>` for profile 0); blank lines and `#` comments are skipped.
//! A line reading `stats` emits the live [`MetricsSnapshot`] (pool
//! telemetry plus the process-global kernel-cache and synthesis
//! sections) as one compact JSON line on stdout at that point of the
//! submission stream. Profiles index a fixed table: 0 = sigma 2,
//! 1 = sigma 6.15543, 2 = sigma 1.5 (all n = 24, the Figure 5
//! configurations).
//!
//! ```text
//! # Generate a 10k-request trace, then replay it on 4 workers:
//! pool_server gen 10000 --seed 1 > trace.txt
//! pool_server run --threads 4 --verify < trace.txt
//! # Thread-scaling sweep over the same trace:
//! pool_server run --sweep 1,2,4,8 < trace.txt
//! # Chaos mode: inject worker deaths and stalls, verify the run
//! # against the offline (seed, trace, failure-log) replay:
//! pool_server run --threads 4 --chaos --verify < trace.txt
//! pool_server run --chaos 'panic@w0.req40;stall@w1.req120:25ms' --verify < trace.txt
//! ```
//!
//! `run` reports p50/p99 request latency and samples/sec per thread
//! count; `--metrics-out FILE` additionally writes the final run's full
//! metrics snapshot as pretty JSON. `--verify` replays the trace twice
//! — the second time with telemetry globally disabled, so the checksum
//! match also proves recording never perturbs the draw-order contract —
//! and exits non-zero if any response is dropped, duplicated,
//! mis-sized, or fails to replay bit-identically; it also arms a
//! watchdog (`--deadline SECS`, default 300) that kills the process
//! with a non-zero exit if verification wedges instead of finishing — a
//! verifier that hangs is a failed verification, not a pending one.
//!
//! `--chaos` arms a fault plan (inline spec, else `CTGAUSS_FAULTS`,
//! else a built-in default) and switches submission to the bounded
//! retry path. Under chaos, two live runs legitimately differ (which
//! requests die with a worker is timing-dependent), so `--verify`
//! instead checks each live run against `replay` over its own failure
//! log: every fulfilled response must match bit for bit, every missing
//! response must be one the log accounts for.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctgauss_core::CtSampler;
use ctgauss_pool::{
    submit_with_retry, FaultKind, FaultPlan, LaneWidth, MetricsSnapshot, Pool, PoolError,
    RetryPolicy, SampleRequest, TraceEntry, WaitError, FAULTS_ENV,
};
use ctgauss_prng::SeedTree;
// Trace generation/parsing, percentiles, the response checksum, and the
// watchdog are the shared harness in `ctgauss-rpc-client`: the same code
// drives this in-process front end, the TCP `rpc_server` example, and
// the `rpc_smoke` CI gate.
use ctgauss_rpc_client::harness::{
    arm_watchdog, build_standard_profiles, gen_trace, parse_trace, percentile, FnvChecksum,
    TraceLine, STANDARD_PROFILES,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pool_server gen <n> [--seed S] [--profiles K] [--max-count C]\n\
                pool_server run [--threads T] [--width 1|2|4|8] [--seed S]\n\
                             [--sweep T1,T2,..] [--verify] [--deadline SECS]\n\
                             [--chaos [SPEC]] [--metrics-out FILE] < trace\n\
       chaos SPEC: `panic@w<W>.{{batch|req}}<N>`, `stall@w<W>.{{batch|req}}<N>:<D>ms`,\n\
                   `cacheload[:N]`, `;`-separated; defaults to ${FAULTS_ENV} or a built-in plan"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => generate(&args[1..]),
        Some("run") => run(&args[1..]),
        // Bare flags mean `run` (so `pool_server --threads 4 < trace` works).
        Some(flag) if flag.starts_with("--") => run(&args),
        None => run(&args),
        Some(_) => usage(),
    }
}

/// Emits a reproducible synthetic trace: mixed small/bulk requests with
/// a long-tail size distribution, like an LWE-ish workload would issue.
fn generate(args: &[String]) -> ExitCode {
    let mut n: Option<usize> = None;
    let mut seed = 1u64;
    let mut profiles = 1usize;
    let mut max_count = 4096usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).expect("--seed"),
            "--profiles" => {
                profiles = it.next().and_then(|v| v.parse().ok()).expect("--profiles");
                assert!(
                    (1..=STANDARD_PROFILES.len()).contains(&profiles),
                    "--profiles must be 1..={}",
                    STANDARD_PROFILES.len()
                );
            }
            "--max-count" => {
                max_count = it.next().and_then(|v| v.parse().ok()).expect("--max-count");
            }
            v if n.is_none() && !v.starts_with("--") => n = v.parse().ok(),
            _ => return usage(),
        }
    }
    let Some(n) = n else { return usage() };
    assert!(max_count >= 1, "--max-count must be at least 1");
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    writeln!(out, "# pool_server trace: {n} requests, seed {seed}").expect("stdout");
    for line in gen_trace(seed, n, profiles, max_count) {
        writeln!(out, "{} {}", line.profile, line.count).expect("stdout");
    }
    ExitCode::SUCCESS
}

/// The `stats` line command (and `--metrics-out` body): the pool's live
/// telemetry plus the process-global kernel-cache and synthesis
/// sections, as one snapshot.
fn full_snapshot(pool: &Pool) -> MetricsSnapshot {
    let mut snapshot = pool.metrics();
    ctgauss_core::attach_metrics(&mut snapshot);
    snapshot
}

struct RunReport {
    elapsed: Duration,
    latencies: Vec<Duration>,
    checksum: u64,
    samples: u64,
    per_worker: Vec<u64>,
    /// (dropped-or-missized, duplicated) counts from the response audit.
    dropped: usize,
    duplicated: usize,
    /// Tickets that outlived the per-ticket deadline — hangs; always a
    /// verification failure.
    hung: usize,
    /// Requests the pool answered `WorkerGone` (chaos mode): abandoned
    /// by a death or routed to a retired shard. Accounted, not dropped.
    gone: usize,
    /// Chaos mode only: worker deaths, restarts, and whether the live
    /// run matched the offline (seed, trace, failure-log) replay.
    chaos: Option<ChaosReport>,
    /// The run's final metrics snapshot (pool + core sections), for
    /// `--metrics-out`.
    metrics: MetricsSnapshot,
}

struct ChaosReport {
    deaths: usize,
    restarts: u64,
    replay_mismatches: usize,
}

/// Replays `trace` on a fresh pool and audits every response. With a
/// fault plan armed, submission goes through the bounded retry path,
/// every ticket wait is deadlined, and the live responses are checked
/// bit for bit against the offline (seed, trace, failure-log) replay.
fn replay(
    trace: &[TraceLine],
    stats_at: &[usize],
    shared: &[Arc<CtSampler>],
    threads: usize,
    width: LaneWidth,
    seed: u64,
    faults: Option<&FaultPlan>,
) -> RunReport {
    let mut builder = Pool::builder()
        .threads(threads)
        .width(width)
        .queue_capacity(1024)
        .seed_u64(seed);
    if let Some(plan) = faults {
        builder = builder.faults(plan.clone());
    }
    let profiles: Vec<_> = shared
        .iter()
        .map(|s| builder.shared_profile(Arc::clone(s)))
        .collect();
    let pool = builder.spawn();
    let retry = RetryPolicy {
        attempts: 200,
        submit_timeout: Duration::from_millis(250),
        ..RetryPolicy::default()
    };

    let start = Instant::now();
    let mut stats_points = stats_at.iter().peekable();
    let mut tickets = Vec::with_capacity(trace.len());
    for (i, line) in trace.iter().enumerate() {
        // `stats` line commands fire at their position in the submission
        // stream, so queue depth and in-flight latency are live values.
        while stats_points.next_if(|&&at| at <= i).is_some() {
            println!("{}", full_snapshot(&pool).to_json_line());
        }
        let request = SampleRequest {
            profile: profiles[line.profile],
            count: line.count,
        };
        tickets.push(if faults.is_some() {
            // Bounded-latency path: a retryable refusal consumes no
            // sequence number, so the trace→seq alignment survives
            // however many attempts a request needs. WorkerGone *does*
            // consume one (the retired shard still owns that slot of
            // the sequence space) — record it and move on.
            submit_with_retry(&pool, request, &retry)
        } else {
            pool.submit(request)
        });
    }
    // `stats` lines after the last request snapshot post-submission.
    while stats_points.next().is_some() {
        println!("{}", full_snapshot(&pool).to_json_line());
    }
    let mut latencies = Vec::with_capacity(trace.len());
    let mut live: Vec<Option<Vec<i32>>> = Vec::with_capacity(trace.len());
    let mut seen = vec![false; trace.len()];
    let mut checksum = FnvChecksum::new();
    let mut dropped = 0;
    let mut duplicated = 0;
    let mut hung = 0;
    let mut gone = 0;
    for (i, ticket) in tickets.into_iter().enumerate() {
        // An erroring or hung ticket never marks its seq in `seen`; the
        // unseen-seq sweep below counts it once as dropped unless it is
        // `WorkerGone`, which the failure log accounts for.
        let outcome = match ticket {
            Ok(ticket) => match ticket.wait_timeout(TICKET_DEADLINE) {
                Ok(response) => Some(response),
                Err(WaitError::TimedOut(_)) => {
                    hung += 1;
                    None
                }
                Err(WaitError::Pool(PoolError::WorkerGone)) => {
                    gone += 1;
                    None
                }
                Err(WaitError::Pool(error)) => panic!("request {i}: unexpected {error}"),
            },
            Err(PoolError::WorkerGone) => {
                gone += 1;
                None
            }
            Err(error) => panic!("request {i}: submission failed: {error}"),
        };
        match outcome {
            Some(response) => {
                let seq = response.seq as usize;
                if seq >= seen.len() || seen[seq] {
                    duplicated += 1;
                } else {
                    seen[seq] = true;
                }
                if response.samples.len() != trace[i].count {
                    dropped += 1;
                }
                checksum.update(&response.samples);
                latencies.push(response.latency);
                live.push(Some(response.samples));
            }
            None => live.push(None),
        }
    }
    let elapsed = start.elapsed();
    // `WorkerGone` responses are accounted by the failure log, not lost:
    // only unseen seqs beyond those count as dropped.
    dropped += seen
        .iter()
        .filter(|&&s| !s)
        .count()
        .saturating_sub(gone + hung);
    let metrics = full_snapshot(&pool);
    let chaos = faults.map(|_| {
        pool.shutdown(); // the failure log is complete only after shutdown
        let failures = pool.failure_log();
        let entries: Vec<TraceEntry> = trace
            .iter()
            .map(|line| TraceEntry {
                profile_index: line.profile,
                count: line.count,
            })
            .collect();
        let offline = ctgauss_pool::replay(
            &SeedTree::from_u64_seed(seed),
            shared,
            threads,
            width,
            &entries,
            &failures,
            &[],
        );
        let replay_mismatches = live
            .iter()
            .zip(&offline)
            .filter(|(got, want)| got != want)
            .count();
        ChaosReport {
            deaths: failures.len(),
            restarts: pool.health().restarts(),
            replay_mismatches,
        }
    });
    let samples = metrics.counter("pool", "samples_total").unwrap_or(0);
    let per_worker = (0..threads)
        .map(|w| {
            metrics
                .counter("pool_shards", &format!("shard{w}_samples"))
                .unwrap_or(0)
        })
        .collect();
    RunReport {
        elapsed,
        latencies,
        checksum: checksum.value(),
        samples,
        per_worker,
        dropped,
        duplicated,
        hung,
        gone,
        chaos,
        metrics,
    }
}

/// Per-ticket wait deadline: far beyond any honest service time, so a
/// trip is a hang, not load.
const TICKET_DEADLINE: Duration = Duration::from_secs(60);

/// The fault plan `--chaos` falls back to when neither an inline spec
/// nor `CTGAUSS_FAULTS` provides one: two worker deaths (one early, one
/// deep enough to land in a resurrected epoch on busy traces), a stall
/// long enough to trip deadlines, and one cache-load failure.
/// Out-of-range workers are dropped on arming, so this is safe at any
/// `--threads`.
const DEFAULT_CHAOS_SPEC: &str = "panic@w0.req40;stall@w1.req120:25ms;panic@w1.req260;cacheload:1";

fn run(args: &[String]) -> ExitCode {
    let mut threads = 4usize;
    let mut width = LaneWidth::W4;
    let mut seed = 7u64;
    let mut sweep: Option<Vec<usize>> = None;
    let mut verify = false;
    let mut chaos = false;
    let mut chaos_spec: Option<String> = None;
    let mut deadline = Duration::from_secs(300);
    let mut metrics_out: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()).expect("--threads"),
            "--width" => {
                width = match it.next().map(String::as_str) {
                    Some("1") => LaneWidth::W1,
                    Some("2") => LaneWidth::W2,
                    Some("4") => LaneWidth::W4,
                    Some("8") => LaneWidth::W8,
                    _ => return usage(),
                }
            }
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).expect("--seed"),
            "--sweep" => {
                sweep = Some(
                    it.next()
                        .expect("--sweep")
                        .split(',')
                        .map(|t| t.parse().expect("--sweep"))
                        .collect(),
                );
            }
            "--verify" => verify = true,
            "--chaos" => {
                chaos = true;
                // Optional inline spec: the next arg unless it is a flag.
                if let Some(next) = it.peek() {
                    if !next.starts_with("--") {
                        chaos_spec = it.next().cloned();
                    }
                }
            }
            "--deadline" => {
                deadline = Duration::from_secs(
                    it.next().and_then(|v| v.parse().ok()).expect("--deadline"),
                );
            }
            "--metrics-out" => metrics_out = Some(it.next().expect("--metrics-out").clone()),
            _ => return usage(),
        }
    }

    // Resolve the fault plan: inline spec, else `CTGAUSS_FAULTS`, else the
    // built-in default.
    let faults: Option<FaultPlan> = if chaos {
        let plan = match &chaos_spec {
            Some(spec) => match FaultPlan::parse(spec) {
                Ok(plan) => plan,
                Err(error) => {
                    eprintln!("pool_server: --chaos spec: {error}");
                    return ExitCode::from(2);
                }
            },
            None => match FaultPlan::from_env() {
                Ok(Some(plan)) => plan,
                Ok(None) => {
                    FaultPlan::parse(DEFAULT_CHAOS_SPEC).expect("built-in chaos spec parses")
                }
                Err(error) => {
                    eprintln!("pool_server: {FAULTS_ENV}: {error}");
                    return ExitCode::from(2);
                }
            },
        };
        Some(plan)
    } else {
        None
    };

    let stdin = std::io::stdin();
    let parsed = parse_trace(stdin.lock(), STANDARD_PROFILES.len());
    let trace = parsed.requests;
    if trace.is_empty() {
        eprintln!("pool_server: empty trace on stdin");
        return ExitCode::from(2);
    }
    let total_requested: u64 = trace.iter().map(|l| l.count as u64).sum();
    let needed_profiles = trace.iter().map(|l| l.profile).max().expect("non-empty") + 1;
    eprintln!(
        "pool_server: {} requests, {} samples, {} profile(s); building shared kernels...",
        trace.len(),
        total_requested,
        needed_profiles
    );
    // Cache-load faults must be armed on this thread *before* the kernels
    // are built: a tripped load falls back to direct synthesis, which is
    // exactly the recovery path chaos mode exists to exercise.
    if let Some(plan) = &faults {
        plan.arm_cache_load_failures();
        eprintln!(
            "pool_server: chaos armed ({} worker fault(s), {} cache-load failure(s))",
            plan.worker_faults().len(),
            plan.cache_load_failures()
        );
    }
    let shared: Vec<Arc<CtSampler>> = build_standard_profiles(needed_profiles);

    let watchdog = verify.then(|| arm_watchdog("pool_server", deadline));
    let thread_counts = sweep.unwrap_or_else(|| vec![threads]);
    let mut failed = false;
    let mut last_metrics: Option<MetricsSnapshot> = None;
    for &t in &thread_counts {
        let report = replay(
            &trace,
            &parsed.stats_at,
            &shared,
            t,
            width,
            seed,
            faults.as_ref(),
        );
        let mut sorted = report.latencies.clone();
        sorted.sort();
        println!(
            "threads={t} width={width:?} requests={} samples={} elapsed={:.3}s \
             throughput={:.3e} samples/s p50={:?} p99={:?}",
            trace.len(),
            report.samples,
            report.elapsed.as_secs_f64(),
            report.samples as f64 / report.elapsed.as_secs_f64(),
            percentile(&sorted, 0.50),
            percentile(&sorted, 0.99),
        );
        println!("  per-worker samples: {:?}", report.per_worker);
        if let Some(chaos) = &report.chaos {
            println!(
                "  chaos: deaths={} restarts={} gone={} hung={}",
                chaos.deaths, chaos.restarts, report.gone, report.hung
            );
            if verify {
                // Under chaos two live runs legitimately differ, so the
                // check is live-vs-own-replay, never cross-run checksums.
                // A plan whose panics all target out-of-range workers
                // cannot kill anyone, so only demand a death when one is
                // actually reachable.
                let expect_death = faults.as_ref().is_some_and(|plan| {
                    plan.worker_faults()
                        .iter()
                        .any(|f| f.worker < t && matches!(f.kind, FaultKind::Panic))
                });
                let ok = report.hung == 0
                    && report.duplicated == 0
                    && report.dropped == 0
                    && chaos.replay_mismatches == 0
                    && (!expect_death || chaos.deaths >= 1);
                if ok {
                    println!(
                        "  verify: ok ({} responses, {} gone — all accounted by the \
                         failure log; live run replays bit-exactly)",
                        trace.len(),
                        report.gone
                    );
                } else {
                    failed = true;
                    eprintln!(
                        "  verify: FAILED (hung={} dropped={} duplicated={} \
                         replay_mismatches={} deaths={} expect_death={})",
                        report.hung,
                        report.dropped,
                        report.duplicated,
                        chaos.replay_mismatches,
                        chaos.deaths,
                        expect_death,
                    );
                }
            }
        } else if verify {
            // The replay leg runs with telemetry globally disabled: a
            // matching checksum therefore also proves the record path
            // never perturbs the draw-order contract.
            ctgauss_telemetry::set_enabled(false);
            let replayed = replay(&trace, &[], &shared, t, width, seed, None);
            ctgauss_telemetry::set_enabled(true);
            let audit_ok = report.dropped == 0
                && report.duplicated == 0
                && replayed.dropped == 0
                && replayed.duplicated == 0;
            let deterministic = report.checksum == replayed.checksum
                && report.samples == total_requested
                && replayed.samples == total_requested;
            if audit_ok && deterministic {
                println!(
                    "  verify: ok ({} responses, none dropped/duplicated; \
                     metrics-disabled replay checksum {:016x} matches)",
                    trace.len(),
                    report.checksum
                );
            } else {
                failed = true;
                eprintln!(
                    "  verify: FAILED (dropped={} duplicated={} samples={}/{} \
                     checksum {:016x} vs replay {:016x})",
                    report.dropped + replayed.dropped,
                    report.duplicated + replayed.duplicated,
                    report.samples,
                    total_requested,
                    report.checksum,
                    replayed.checksum,
                );
            }
        }
        last_metrics = Some(report.metrics);
    }
    if let Some(path) = &metrics_out {
        let snapshot = last_metrics.expect("at least one run");
        std::fs::write(path, snapshot.to_json().to_string_pretty()).expect("--metrics-out write");
        eprintln!("pool_server: metrics written to {path}");
    }
    if let Some(done) = watchdog {
        done.store(true, Ordering::Relaxed);
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
