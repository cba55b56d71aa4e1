//! `rpc_smoke` — the CI gate for the networked front end.
//!
//! Four legs, each against a live in-process [`ctgauss_rpc_server`]
//! on a loopback ephemeral port:
//!
//! 1. **Plain**: replay a generated 10k-request trace through one
//!    pipelined connection and demand bit-exact verification — every
//!    response must match the offline `(seed, audit)` replay, the FNV
//!    checksum must match the one computed purely offline, and the
//!    `health`/`stats`/`ping` endpoints must report a sane, fully-alive
//!    pool.
//! 2. **Chaos**: rerun the trace with the pool's built-in fault plan
//!    armed (worker deaths, a stall, a cache-load failure) and retries
//!    honoring the server's `retryable` bit. Shed or abandoned requests
//!    are fine; a response that fails to replay bit-exactly is not. The
//!    failure log trails worker deaths slightly, so the audit fetch
//!    retries until the replay closes or attempts run out.
//! 3. **Coalesce**: a windowed pipelined stream of tiny mixed-profile
//!    requests against a coalescing pool, with a profile hot-loaded
//!    over the wire before the load and retired after it; every
//!    response verifies bit-exactly against the passthrough-schedule
//!    replay, and fewer gangs than requests must prove staging actually
//!    happened.
//! 4. **Drain**: hammer the server from several connections, shut it
//!    down mid-load, and demand [`DrainReport::lossless`] — every
//!    accepted request resolved to exactly one outcome.
//!
//! Any violation exits non-zero; a watchdog kills a wedged run (exit 3).
//! `--requests N`, `--seed S`, `--threads T`, `--deadline SECS`, and
//! `--json` (codec selection) are accepted for local experimentation.

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ctgauss_core::{CtSampler, SamplerSpec};
use ctgauss_pool::{CoalesceConfig, FaultPlan, LaneWidth, Pool, ProfileId, FAULTS_ENV};
use ctgauss_prng::{RandomSource, SplitMix64};
use ctgauss_rpc_client::harness::{
    arm_watchdog, build_standard_profiles, gen_trace, run_load, verify_replay_coalesced,
    FnvChecksum, LoadOptions, RequestOutcome, TraceLine,
};
use ctgauss_rpc_client::{Client, ConnectOptions};
use ctgauss_rpc_core::{CodecKind, ErrorKind};
use ctgauss_rpc_server::{DrainReport, Server, ServerConfig};

/// Same built-in plan as the `pool_server`/`rpc_server` examples.
const DEFAULT_CHAOS_SPEC: &str = "panic@w0.req40;stall@w1.req120:25ms;panic@w1.req260;cacheload:1";

const RPC_TIMEOUT: Duration = Duration::from_secs(30);

struct Config {
    requests: usize,
    seed: u64,
    threads: usize,
    width: LaneWidth,
    codec: CodecKind,
    deadline: Duration,
}

/// Builds a pool + server pair on an ephemeral loopback port.
fn start_server(
    cfg: &Config,
    shared: &[Arc<CtSampler>],
    faults: Option<&FaultPlan>,
    coalesce: Option<CoalesceConfig>,
    server_cfg: ServerConfig,
) -> Server {
    let mut builder = Pool::builder()
        .threads(cfg.threads)
        .width(cfg.width)
        .queue_capacity(1024)
        .seed_u64(cfg.seed);
    if let Some(plan) = faults {
        builder = builder.faults(plan.clone());
    }
    if let Some(coalesce) = coalesce {
        builder = builder.coalesce(coalesce);
    }
    let profile_ids: Vec<ProfileId> = shared
        .iter()
        .map(|s| builder.shared_profile(Arc::clone(s)))
        .collect();
    let pool = Arc::new(builder.spawn());
    Server::bind("127.0.0.1:0", pool, profile_ids, server_cfg).expect("bind loopback")
}

fn connect(server: &Server, codec: CodecKind) -> Client {
    Client::connect(server.local_addr(), codec, &ConnectOptions::default()).expect("connect")
}

/// Leg 1: plain replay, bit-exact end to end, endpoints sane.
fn plain_leg(cfg: &Config, shared: &[Arc<CtSampler>], trace: &[TraceLine]) -> Result<(), String> {
    let server = start_server(cfg, shared, None, None, ServerConfig::default());
    let mut client = connect(&server, cfg.codec);

    // Endpoint sanity before load: alive, not draining.
    let health = client.health(RPC_TIMEOUT).map_err(|e| e.to_string())?;
    if !health.all_alive() {
        return Err(format!("pre-load health not all-alive: {health:?}"));
    }
    if client.ping(RPC_TIMEOUT).map_err(|e| e.to_string())? {
        return Err("server claims to be draining at startup".into());
    }

    let report = run_load(
        &mut client,
        trace,
        &LoadOptions {
            deadline_ms: 30_000,
            jitter_seed: cfg.seed,
            ..LoadOptions::default()
        },
    )
    .map_err(|e| format!("plain load failed: {e}"))?;
    if report.fulfilled() != trace.len() {
        return Err(format!(
            "plain leg shed requests: {}/{} fulfilled, failures {:?}",
            report.fulfilled(),
            trace.len(),
            report.failures()
        ));
    }

    // The audit must describe exactly this trace (no retries happened),
    // and every response must replay bit-exactly from the seed the
    // server never saw on the wire.
    let audit = client
        .replay_audit(RPC_TIMEOUT)
        .map_err(|e| e.to_string())?;
    if audit.submitted != trace.len() as u64 {
        return Err(format!(
            "audit says {} submissions for a {}-request trace",
            audit.submitted,
            trace.len()
        ));
    }
    let verify = verify_replay_coalesced(cfg.seed, &audit, &report.outcomes, shared);
    if !verify.ok() {
        return Err(format!(
            "plain leg replay mismatch: {}/{} responses diverged",
            verify.mismatches, verify.compared
        ));
    }

    // Checksum cross-check: fold the offline replay in trace order and
    // demand the wire run produced the identical digest.
    let offline_checksum = {
        let offline = ctgauss_pool::replay(
            &ctgauss_prng::SeedTree::from_u64_seed(cfg.seed),
            shared,
            audit.threads as usize,
            audit.width().expect("valid width"),
            &audit.trace_entries(),
            &audit.failure_events(),
            &[],
        );
        let mut checksum = FnvChecksum::new();
        for samples in offline.iter().flatten() {
            checksum.update(samples);
        }
        checksum.value()
    };
    // Wire order == trace order here: no retries, one connection, and
    // the responder answers in submission order.
    if report.checksum() != offline_checksum {
        return Err(format!(
            "checksum mismatch: wire {:016x} vs offline {:016x}",
            report.checksum(),
            offline_checksum
        ));
    }

    // Stats endpoint: parses, and the rpc section accounts the load.
    let stats = client.stats(RPC_TIMEOUT).map_err(|e| e.to_string())?;
    let json = ctgauss_telemetry::json::Json::parse(&stats)
        .map_err(|e| format!("stats endpoint returned unparseable JSON: {e:?}"))?;
    let accepted = json
        .get("rpc")
        .and_then(|rpc| rpc.get("accepted"))
        .and_then(|v| v.as_f64())
        .ok_or("stats JSON missing rpc.accepted")?;
    if (accepted as u64) < trace.len() as u64 {
        return Err(format!(
            "stats accepted {} < {} requests served",
            accepted,
            trace.len()
        ));
    }
    if json.get("pool").and_then(|p| p.get("health")).is_none() {
        return Err("stats JSON missing pool.health verdict".into());
    }

    drop(client);
    let report = server.shutdown();
    expect_lossless("plain", &report)?;
    println!(
        "rpc_smoke: plain ok ({} requests, checksum {:016x}, {} compared)",
        trace.len(),
        offline_checksum,
        verify.compared
    );
    Ok(())
}

/// Leg 2: same trace under the fault plan; every delivered byte must
/// still replay bit-exactly, with the audit fetched over the wire.
fn chaos_leg(cfg: &Config, shared: &[Arc<CtSampler>], trace: &[TraceLine]) -> Result<(), String> {
    let plan = match FaultPlan::from_env() {
        Ok(Some(plan)) => plan,
        Ok(None) => FaultPlan::parse(DEFAULT_CHAOS_SPEC).expect("built-in chaos spec parses"),
        Err(error) => return Err(format!("{FAULTS_ENV}: {error}")),
    };
    // Note: no `arm_cache_load_failures` here — the kernels were built
    // by the caller, shared across legs; worker faults are the point.
    let server = start_server(cfg, shared, Some(&plan), None, ServerConfig::default());
    let mut client = connect(&server, cfg.codec);

    let report = run_load(
        &mut client,
        trace,
        &LoadOptions {
            deadline_ms: 30_000,
            retry_attempts: 16,
            jitter_seed: cfg.seed ^ 0xC4A0,
            ..LoadOptions::default()
        },
    )
    .map_err(|e| format!("chaos load failed: {e}"))?;

    // Failures are legitimate under chaos, but only the accounted kinds.
    for (index, error) in report.failures() {
        match error.kind {
            ErrorKind::WorkerGone | ErrorKind::DeadlineExceeded | ErrorKind::Backpressure => {}
            other => {
                return Err(format!(
                    "chaos request {index} failed with unaccounted kind {other:?}: {}",
                    error.message
                ))
            }
        }
    }

    // The failure log trails worker deaths slightly; refetch the audit
    // until the replay closes or the budget runs out.
    let mut last = (0usize, 0usize);
    for attempt in 0..20 {
        let audit = client
            .replay_audit(RPC_TIMEOUT)
            .map_err(|e| e.to_string())?;
        let verify = verify_replay_coalesced(cfg.seed, &audit, &report.outcomes, shared);
        if verify.ok() {
            drop(client);
            let drain = server.shutdown();
            expect_lossless("chaos", &drain)?;
            println!(
                "rpc_smoke: chaos ok ({} fulfilled / {} trace, {} retries, \
                 {} failure events, audit attempt {})",
                report.fulfilled(),
                trace.len(),
                report.retries,
                audit.failures.len(),
                attempt + 1
            );
            return Ok(());
        }
        last = (verify.mismatches, verify.compared);
        std::thread::sleep(Duration::from_millis(100));
    }
    Err(format!(
        "chaos leg never replayed clean: {}/{} responses diverged after 20 audit fetches",
        last.0, last.1
    ))
}

/// Leg 3: cross-request coalescing over the wire. A windowed pipelined
/// stream of tiny mixed-profile requests — the shape staging exists
/// for — runs against a server whose pool stages submissions into gangs
/// (stealing off), with a fourth profile hot-loaded over the wire before
/// the load and retired after it. Every response must verify
/// bit-exactly against the passthrough-schedule replay, which
/// re-derives each request purely from its position in the per-(shard,
/// profile) draw stream: proof that gang packing never leaks into
/// sample values end to end.
fn coalesce_leg(cfg: &Config, shared: &[Arc<CtSampler>]) -> Result<(), String> {
    let leg_cfg = Config {
        requests: cfg.requests,
        seed: cfg.seed,
        // Two shards at W1: full gangs are 64 samples, so tiny requests
        // actually coalesce instead of rattling around a W4 batch.
        threads: 2,
        width: LaneWidth::W1,
        codec: cfg.codec,
        deadline: cfg.deadline,
    };
    let coalesce = CoalesceConfig {
        steal: false,
        ..CoalesceConfig::default()
    };
    let server = start_server(
        &leg_cfg,
        shared,
        None,
        Some(coalesce),
        ServerConfig::default(),
    );
    let mut client = connect(&server, cfg.codec);

    // Hot-load a fourth profile over the wire; the verifier builds the
    // same spec independently — the registry contract says the server's
    // hot-built sampler is bit-identical to an offline build.
    let hot = client
        .add_profile("3.2", 16, RPC_TIMEOUT)
        .map_err(|e| format!("add_profile failed: {e}"))?;
    if hot as usize != shared.len() {
        return Err(format!(
            "hot-loaded profile landed at index {hot}, expected {}",
            shared.len()
        ));
    }
    let mut registered: Vec<Arc<CtSampler>> = shared.to_vec();
    registered.push(
        SamplerSpec::new("3.2", 16)
            .build_shared()
            .map_err(|e| format!("offline twin of hot profile failed to build: {e}"))?,
    );

    // Tiny requests only (1..=8 samples), all four profiles interleaved:
    // without coalescing this workload runs one near-empty kernel batch
    // per request.
    let n = (cfg.requests / 4).max(500);
    let mut rng = SplitMix64::new(cfg.seed ^ 0xC0A1);
    let trace: Vec<TraceLine> = (0..n)
        .map(|_| TraceLine {
            profile: (rng.next_u64() % registered.len() as u64) as usize,
            count: 1 + (rng.next_u64() % 8) as usize,
        })
        .collect();
    let report = run_load(
        &mut client,
        &trace,
        &LoadOptions {
            window: 32,
            deadline_ms: 30_000,
            jitter_seed: cfg.seed ^ 0x0C0A,
            ..LoadOptions::default()
        },
    )
    .map_err(|e| format!("coalesced load failed: {e}"))?;
    if report.fulfilled() != trace.len() {
        return Err(format!(
            "coalesce leg shed requests: {}/{} fulfilled, failures {:?}",
            report.fulfilled(),
            trace.len(),
            report.failures()
        ));
    }

    let audit = client
        .replay_audit(RPC_TIMEOUT)
        .map_err(|e| e.to_string())?;
    if !audit.failures.is_empty() {
        return Err(format!(
            "coalesce leg saw {} failure events on a fault-free run",
            audit.failures.len()
        ));
    }
    if audit.submitted != trace.len() as u64 {
        return Err(format!(
            "audit says {} submissions for a {}-request trace",
            audit.submitted,
            trace.len()
        ));
    }
    let verify = verify_replay_coalesced(cfg.seed, &audit, &report.outcomes, &registered);
    if !verify.ok() {
        return Err(format!(
            "coalesce leg replay mismatch: {}/{} responses diverged",
            verify.mismatches, verify.compared
        ));
    }

    // Staging must actually have ganged requests: without it every
    // request is its own gang (one engine pass each).
    let stats = client.stats(RPC_TIMEOUT).map_err(|e| e.to_string())?;
    let json = ctgauss_telemetry::json::Json::parse(&stats)
        .map_err(|e| format!("stats endpoint returned unparseable JSON: {e:?}"))?;
    let pool_counter = |name: &str| {
        json.get("pool")
            .and_then(|p| p.get(name))
            .and_then(|v| v.as_f64())
            .ok_or(format!("stats JSON missing pool.{name}"))
    };
    let gangs = pool_counter("gangs_flushed")?;
    let requests = pool_counter("requests_total")?;
    let gangs_per_request = gangs / requests.max(1.0);
    if gangs_per_request >= 1.0 {
        return Err(format!(
            "{gangs} gangs for {requests} requests: staging ganged nothing"
        ));
    }

    // Registry teardown over the wire: retired means refused, politely.
    client
        .retire_profile(hot, RPC_TIMEOUT)
        .map_err(|e| format!("retire_profile failed: {e}"))?;
    match client.sample(hot, 4, 0) {
        Err(ctgauss_rpc_client::ClientError::Server(error))
            if error.kind == ErrorKind::UnknownProfile => {}
        other => {
            return Err(format!(
                "sampling a retired profile must refuse with unknown_profile, got {other:?}"
            ))
        }
    }

    drop(client);
    let drain = server.shutdown();
    expect_lossless("coalesce", &drain)?;
    println!(
        "rpc_smoke: coalesce ok ({} tiny requests, {} gangs, {:.3} gangs/request, \
         {} compared)",
        trace.len(),
        gangs,
        gangs_per_request,
        verify.compared
    );
    Ok(())
}

/// Leg 4: shutdown mid-load must lose nothing that was accepted.
fn drain_leg(cfg: &Config, shared: &[Arc<CtSampler>]) -> Result<(), String> {
    let server = start_server(cfg, shared, None, None, ServerConfig::default());
    let addr = server.local_addr();
    let codec = cfg.codec;
    let seed = cfg.seed;

    // Several connections hammer until the server turns them away.
    let hammers: Vec<_> = (0..4)
        .map(|lane| {
            std::thread::spawn(move || {
                let Ok(mut client) = Client::connect(addr, codec, &ConnectOptions::default())
                else {
                    return 0u64;
                };
                let trace = gen_trace(seed ^ lane, 4_000, 3, 512);
                let mut delivered = 0u64;
                // Droppable load: send with short attempts, stop on any
                // transport error (the drain closes us — that's the
                // test, not a failure).
                let result = run_load(
                    &mut client,
                    &trace,
                    &LoadOptions {
                        window: 8,
                        deadline_ms: 10_000,
                        retry_attempts: 2,
                        jitter_seed: seed ^ lane,
                        ..LoadOptions::default()
                    },
                );
                if let Ok(report) = result {
                    for outcome in &report.outcomes {
                        if matches!(outcome, RequestOutcome::Samples { .. }) {
                            delivered += 1;
                        }
                    }
                }
                delivered
            })
        })
        .collect();

    // Let the hammers get airborne, then pull the plug mid-load.
    std::thread::sleep(Duration::from_millis(150));
    let report = server.shutdown();
    let delivered: u64 = hammers.into_iter().map(|h| h.join().unwrap_or(0)).sum();
    expect_lossless("drain", &report)?;
    if report.accepted == 0 {
        return Err("drain leg accepted nothing — shutdown raced ahead of the load".into());
    }
    println!(
        "rpc_smoke: drain ok (accepted={} resolved={} responses={} clients_saw={})",
        report.accepted, report.resolved, report.responses, delivered
    );
    Ok(())
}

fn expect_lossless(leg: &str, report: &DrainReport) -> Result<(), String> {
    if report.lossless() {
        Ok(())
    } else {
        Err(format!(
            "{leg} leg drain LOST requests: accepted={} resolved={} \
             (responses={} pool_errors={} deadline_expired={})",
            report.accepted,
            report.resolved,
            report.responses,
            report.pool_errors,
            report.deadline_expired
        ))
    }
}

fn main() -> ExitCode {
    let mut cfg = Config {
        requests: 10_000,
        seed: 7,
        threads: 4,
        width: LaneWidth::W4,
        codec: CodecKind::Binary,
        deadline: Duration::from_secs(600),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--requests" => {
                cfg.requests = it.next().and_then(|v| v.parse().ok()).expect("--requests");
            }
            "--seed" => cfg.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed"),
            "--threads" => {
                cfg.threads = it.next().and_then(|v| v.parse().ok()).expect("--threads");
            }
            "--deadline" => {
                cfg.deadline = Duration::from_secs(
                    it.next().and_then(|v| v.parse().ok()).expect("--deadline"),
                );
            }
            "--json" => cfg.codec = CodecKind::Json,
            other => {
                eprintln!(
                    "usage: rpc_smoke [--requests N] [--seed S] [--threads T] \
                     [--deadline SECS] [--json]   (got {other:?})"
                );
                return ExitCode::from(2);
            }
        }
    }

    let watchdog = arm_watchdog("rpc_smoke", cfg.deadline);
    let shared = build_standard_profiles(3);
    let trace = gen_trace(cfg.seed, cfg.requests, 3, 4096);

    type Leg<'a> = Box<dyn Fn() -> Result<(), String> + 'a>;
    let legs: [(&str, Leg<'_>); 4] = [
        ("plain", Box::new(|| plain_leg(&cfg, &shared, &trace))),
        ("chaos", Box::new(|| chaos_leg(&cfg, &shared, &trace))),
        ("coalesce", Box::new(|| coalesce_leg(&cfg, &shared))),
        ("drain", Box::new(|| drain_leg(&cfg, &shared))),
    ];
    let mut failed = false;
    for (name, leg) in &legs {
        if let Err(message) = leg() {
            failed = true;
            eprintln!("rpc_smoke: {name} leg FAILED: {message}");
        }
    }
    watchdog.store(true, Ordering::Relaxed);
    if failed {
        ExitCode::FAILURE
    } else {
        println!("rpc_smoke: all legs ok");
        ExitCode::SUCCESS
    }
}
