//! The two RPC workloads, both against an in-process `Server::bind` on
//! loopback with `ServerConfig::default()` over a 2-shard `LaneWidth::W4`
//! pool with `CoalesceConfig { steal: false, ..default }`:
//!
//! * `rpc_bulk` — one binary-codec connection in a closed loop at a fixed
//!   window, every request 4096 samples of the Falcon base profile;
//! * `rpc_tiny_open` — one connection driven open loop (a sender and a
//!   receiver thread) on a seed-derived Poisson schedule, at each rate of
//!   a fixed ladder; each request asks for 1–8 samples of one of three
//!   n = 16 profiles.
//!
//! Every delivered response is bit-verified against
//! `verify_replay_coalesced` on the server's own replay audit.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ctgauss_core::{CtSampler, SamplerSpec};
use ctgauss_pool::{falcon_profile_spec, CoalesceConfig, HistogramSnapshot, LaneWidth, Pool};
use ctgauss_prng::ChaChaRng;
use ctgauss_rpc_client::harness::{verify_replay_coalesced, RequestOutcome};
use ctgauss_rpc_client::{Client, ConnectOptions};
use ctgauss_rpc_core::{
    codec, frame, CodecKind, ErrorKind, FrameOutcome, Request, RequestBody, Response, ResponseBody,
    WireError,
};
use ctgauss_rpc_server::{Server, ServerConfig};

use crate::report::Report;
use crate::schedule::{self, Arrival, RungResult};
use crate::spans::{self, Recorder, Span, TracedRng};
use crate::stats::{self, LatencySummary};
use crate::{cpu_util, repeat_setup, sub_seed, sys, zero_unreached, Args, RunDir, SetupTimes};

/// Pool shards.
pub const THREADS: usize = 2;
/// Pool lane width.
pub const WIDTH: LaneWidth = LaneWidth::W4;
/// Requests in flight on the `rpc_bulk` connection (the server's
/// per-connection quota is 32).
pub const BULK_WINDOW: usize = 8;
/// Samples per `rpc_bulk` request.
pub const BULK_COUNT: u32 = 4096;
/// Requests per `rpc_bulk` segment: each segment runs against a fresh
/// server and is verified, then dropped, which bounds memory.
pub const BULK_SEGMENT: usize = BULK_WARMUP + BULK_TIMED;
/// Leading requests of each segment that warm the fresh server up: they
/// are verified but neither timed nor counted in the latencies.
pub const BULK_WARMUP: usize = 32;
/// Timed requests of each segment.
pub const BULK_TIMED: usize = 1024;
/// The `rpc_tiny_open` profiles: (sigma, precision).
pub const TINY_PROFILES: [(&str, u32); 3] = [("2", 16), ("3.2", 16), ("6.15543", 16)];
/// Largest `rpc_tiny_open` request.
pub const TINY_MAX_COUNT: u32 = 8;
/// The `rpc_tiny_open` rate ladder, requests per second, with each
/// rung's share of the measured time.
pub const LADDER: [(u32, f64); 3] = [(1000, 0.25), (4000, 0.5), (16000, 0.25)];
/// The rung whose latencies are the end-to-end metrics.
pub const REFERENCE_RATE: u32 = 4000;
/// The latency limit the SLO ladder applies to each rung's p99.
pub const SLO_P99_US: f64 = 2000.0;
/// Samples each profile runs through the traced kernel probe, in
/// `sample_into` calls of `PROBE_CHUNK`.
const PROBE_SAMPLES: usize = 1 << 20;
const PROBE_CHUNK: usize = 4096;
/// Longest wait for any single response.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// A pool plus the server in front of it.
struct Rig {
    pool: Arc<Pool>,
    server: Server,
}

impl Rig {
    fn start(profiles: &[Arc<CtSampler>], seed: u64) -> Result<Rig, String> {
        let mut builder = Pool::builder()
            .threads(THREADS)
            .width(WIDTH)
            .seed_u64(seed)
            .coalesce(CoalesceConfig {
                steal: false,
                ..CoalesceConfig::default()
            });
        let ids = profiles
            .iter()
            .map(|p| builder.shared_profile(Arc::clone(p)))
            .collect();
        let pool = Arc::new(builder.spawn());
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&pool),
            ids,
            ServerConfig::default(),
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        Ok(Rig { pool, server })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr(), CodecKind::Binary, &ConnectOptions::default())
            .map_err(|e| format!("connect: {e}"))
    }
}

/// Pool-side figures of one server lifetime, read from `Pool::metrics()`.
#[derive(Debug, Default, Clone)]
struct PoolFigures {
    latency: Option<HistogramSnapshot>,
    staging: Option<HistogramSnapshot>,
    requests: u64,
    fresh: u64,
    capacity: u64,
    gangs: u64,
}

impl PoolFigures {
    fn read(pool: &Pool) -> Self {
        let m = pool.metrics();
        let c = |name: &str| m.counter("pool", name).unwrap_or(0);
        PoolFigures {
            latency: m.histogram("pool", "latency_ns").cloned(),
            staging: m.histogram("pool", "staging_wait_ns").cloned(),
            requests: c("requests_total"),
            fresh: c("fresh_total"),
            capacity: c("batches_total") * 64 * WIDTH.lanes() as u64,
            gangs: c("gangs_flushed"),
        }
    }

    fn merge(&mut self, other: &PoolFigures) {
        let merge_hist = |a: &mut Option<HistogramSnapshot>, b: &Option<HistogramSnapshot>| {
            if let Some(b) = b {
                a.get_or_insert_with(HistogramSnapshot::empty).merge(b);
            }
        };
        merge_hist(&mut self.latency, &other.latency);
        merge_hist(&mut self.staging, &other.staging);
        self.requests += other.requests;
        self.fresh += other.fresh;
        self.capacity += other.capacity;
        self.gangs += other.gangs;
    }

    fn report(&self, report: &mut Report) {
        let pct = |h: &Option<HistogramSnapshot>, q: f64| {
            h.as_ref().map_or(0.0, |h| h.percentile(q) as f64 / 1e3)
        };
        let count = |h: &Option<HistogramSnapshot>| h.as_ref().map_or(0, |h| h.count);
        report.set(
            "pool.latency_p50_us",
            pct(&self.latency, 0.5),
            count(&self.latency),
        );
        report.set(
            "pool.latency_p99_us",
            pct(&self.latency, 0.99),
            count(&self.latency),
        );
        report.set(
            "pool.staging_wait_p50_us",
            pct(&self.staging, 0.5),
            count(&self.staging),
        );
        report.set(
            "pool.staging_wait_p99_us",
            pct(&self.staging, 0.99),
            count(&self.staging),
        );
        report.set(
            "pool.dispatch_fill_ratio",
            self.fresh as f64 / self.capacity.max(1) as f64,
            self.capacity / (64 * WIDTH.lanes() as u64),
        );
        report.set(
            "pool.gangs_per_request",
            self.gangs as f64 / self.requests.max(1) as f64,
            self.requests,
        );
    }
}

/// Structured refusals and failures, by kind.
#[derive(Debug, Default, Clone, Copy)]
struct Refusals {
    overloaded: u64,
    quota: u64,
    deadline: u64,
    retries: u64,
}

impl Refusals {
    fn count(&mut self, error: &WireError) {
        match error.kind {
            ErrorKind::Overloaded => self.overloaded += 1,
            ErrorKind::QuotaExceeded => self.quota += 1,
            ErrorKind::DeadlineExceeded => self.deadline += 1,
            _ => {}
        }
    }

    fn add(&mut self, o: &Refusals) {
        self.overloaded += o.overloaded;
        self.quota += o.quota;
        self.deadline += o.deadline;
        self.retries += o.retries;
    }

    fn report(&self, report: &mut Report) {
        report.set(
            "rpc.refused_overloaded",
            self.overloaded as f64,
            self.overloaded,
        );
        report.set("rpc.refused_quota", self.quota as f64, self.quota);
        report.set("rpc.deadline_expired", self.deadline as f64, self.deadline);
        report.set("client.retries", self.retries as f64, self.retries);
    }
}

/// FNV-1a over one response's samples.
fn samples_digest(samples: &[i32]) -> u64 {
    samples.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &s| {
        (h ^ u64::from(s as u32)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Encode and decode time of the public binary codec over delivered
/// responses, and whether every round trip reproduced the response.
#[derive(Debug, Default, Clone, Copy)]
struct CodecTimes {
    encode_ns: u64,
    decode_ns: u64,
    responses: u64,
    mismatches: u64,
}

impl CodecTimes {
    fn time(&mut self, outcomes: &[RequestOutcome], latency_ns: &[u64]) {
        for (outcome, &latency_ns) in outcomes.iter().zip(latency_ns) {
            let RequestOutcome::Samples { seq, samples, .. } = outcome else {
                continue;
            };
            let response = Response {
                id: *seq + 1,
                body: ResponseBody::Samples {
                    seq: *seq,
                    latency_ns,
                    samples: samples.clone(),
                },
            };
            let t0 = Instant::now();
            let bytes = std::hint::black_box(codec::encode_response(CodecKind::Binary, &response));
            let t1 = Instant::now();
            let decoded = codec::decode_response(CodecKind::Binary, &bytes);
            let t2 = Instant::now();
            self.encode_ns += t1.duration_since(t0).as_nanos() as u64;
            self.decode_ns += t2.duration_since(t1).as_nanos() as u64;
            self.responses += 1;
            if decoded.ok().as_ref() != Some(&response) {
                self.mismatches += 1;
            }
        }
    }

    fn per_response_us(&self) -> f64 {
        (self.encode_ns + self.decode_ns) as f64 / self.responses.max(1) as f64 / 1e3
    }

    fn report(&self, report: &mut Report) {
        let n = self.responses.max(1) as f64;
        report.set(
            "rpc.encode_ns_per_response",
            self.encode_ns as f64 / n,
            self.responses,
        );
        report.set(
            "rpc.decode_ns_per_response",
            self.decode_ns as f64 / n,
            self.responses,
        );
        report.gate(
            self.mismatches == 0,
            format!(
                "{} responses round-trip through the binary codec unchanged",
                self.responses
            ),
        );
    }
}

/// Fetches the replay audit over its own connection and bit-verifies
/// every delivered response against it.
fn verify(
    rig: &Rig,
    seed: u64,
    outcomes: &[RequestOutcome],
    profiles: &[Arc<CtSampler>],
) -> Result<(usize, usize), String> {
    let mut client = rig.client()?;
    let audit = client
        .replay_audit(RESPONSE_TIMEOUT)
        .map_err(|e| format!("replay audit: {e}"))?;
    if !audit.failures.is_empty() {
        return Err(format!(
            "{} worker failures on a fault-free run",
            audit.failures.len()
        ));
    }
    let v = verify_replay_coalesced(seed, &audit, outcomes, profiles);
    Ok((v.compared, v.mismatches))
}

/// Drains the server and checks the drain lost nothing.
fn shut_down(rig: Rig) -> Result<(), String> {
    let drain = rig.server.shutdown();
    if drain.lossless() {
        Ok(())
    } else {
        Err(format!("drain lost requests: {drain:?}"))
    }
}

/// Runs `sample_into` over every profile with a span around each call
/// and a traced PRNG underneath: the kernel + decode and PRNG cost per
/// 64 samples on the workload's own profiles.
fn kernel_probe(profiles: &[Arc<CtSampler>], report: &mut Report) -> Vec<Span> {
    let rec = Rc::new(RefCell::new(Recorder::new(Instant::now())));
    let mut out = vec![0i32; PROBE_CHUNK];
    for (i, profile) in profiles.iter().enumerate() {
        let mut rng = TracedRng::new(ChaChaRng::from_u64_seed(i as u64), Rc::clone(&rec));
        for _ in 0..PROBE_SAMPLES / PROBE_CHUNK {
            rec.borrow_mut().enter("core.sample_into");
            profile.sample_into(&mut out, &mut rng);
            rec.borrow_mut().exit();
        }
        std::hint::black_box(&out);
    }
    let spans = rec.borrow().spans().to_vec();
    let totals = spans::totals(&spans);
    let blocks = (profiles.len() * PROBE_SAMPLES / 64) as f64;
    let core = totals.get("core.sample_into").copied().unwrap_or_default();
    let fill = totals.get("prng.fill").copied().unwrap_or_default();
    report.set(
        "core.refill_ns_per_64",
        core.self_ns as f64 / blocks,
        core.count,
    );
    report.set(
        "prng.fill_ns_per_64",
        fill.total_ns as f64 / blocks,
        fill.count,
    );
    spans
}

/// Set-up from an empty kernel cache: synthesize every profile, rebuild
/// each warm, start pool and server, and connect.
fn measure_setup(
    dir: &RunDir,
    specs: &[SamplerSpec],
    seed: u64,
) -> Result<(SetupTimes, Vec<Arc<CtSampler>>), String> {
    let mut built = Vec::new();
    let times = repeat_setup(5, 50, Duration::from_secs(2), |rep, times| {
        dir.fresh_cache();
        let started = Instant::now();
        let mut profiles = Vec::new();
        for spec in specs {
            let (sampler, trace) = spec
                .build_shared_traced()
                .map_err(|e| format!("profile synthesis failed: {e}"))?;
            times.add_trace(&trace, rep);
            profiles.push(sampler);
        }
        let t = Instant::now();
        for spec in specs {
            spec.build_shared_traced()
                .map_err(|e| format!("warm rebuild failed: {e}"))?;
        }
        times.warm_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let rig = Rig::start(&profiles, seed)?;
        let client = rig.client()?;
        let took = started.elapsed();
        drop(client);
        rig.server.shutdown();
        built = profiles;
        Ok(took)
    })?;
    Ok((times, built))
}

/// What one closed-loop bulk pass produced.
#[derive(Debug, Default)]
struct BulkPass {
    rtt: Vec<Duration>,
    late: Vec<Duration>,
    digests: Vec<u64>,
    samples: u64,
    attempted: u64,
    failed: u64,
    timed: Duration,
    /// Samples per second of each window of `QUIET_WINDOW` responses.
    window_rates: Vec<f64>,
    refusals: Refusals,
    pool: PoolFigures,
    codec: CodecTimes,
    compared: usize,
    mismatches: usize,
    send_ns: u64,
    cpu_util: f64,
    spans: Vec<Span>,
}

/// One bulk segment against a fresh server: `BULK_SEGMENT` requests in a
/// closed loop at `BULK_WINDOW`, then verification.
fn bulk_segment(
    profiles: &[Arc<CtSampler>],
    seed: u64,
    rec: Option<&mut Recorder>,
    pass: &mut BulkPass,
) -> Result<(), String> {
    let rig = Rig::start(profiles, seed)?;
    let mut client = rig.client()?;
    let n = BULK_SEGMENT;
    // id -> (request index, send time, attempts)
    let mut pending: HashMap<u64, (usize, Instant, u32)> = HashMap::new();
    let mut slots_free_at: Vec<Instant> = Vec::new();
    let mut retry: Vec<(usize, u32)> = Vec::new();
    let mut rec = rec;
    let mut window_start: Option<Instant> = None;
    let mut window_samples = 0u64;
    let mut next = 0usize;
    let mut done = 0usize;
    let mut started = Instant::now();
    slots_free_at.resize(BULK_WINDOW, started);
    let mut results: Vec<Option<RequestOutcome>> = (0..n).map(|_| None).collect();
    let mut latency_ns: Vec<u64> = vec![0; n];
    while done < n {
        while pending.len() < BULK_WINDOW && (next < n || !retry.is_empty()) {
            let (index, attempts) = retry.pop().unwrap_or_else(|| {
                next += 1;
                (next - 1, 0)
            });
            let free_at = slots_free_at.pop().unwrap_or(started);
            let t = Instant::now();
            if index >= BULK_WARMUP {
                pass.late.push(t.duration_since(free_at));
            }
            if let Some(r) = rec.as_deref_mut() {
                r.set_op(index as u64);
                r.enter("client.send");
            }
            let id = client
                .send(RequestBody::Sample {
                    profile: 0,
                    count: BULK_COUNT,
                    deadline_ms: 0,
                })
                .map_err(|e| format!("send: {e}"))?;
            if let Some(r) = rec.as_deref_mut() {
                r.exit();
            }
            pending.insert(id, (index, t, attempts + 1));
        }
        if let Some(r) = rec.as_deref_mut() {
            r.enter("client.recv");
        }
        let response = client
            .recv_timeout(RESPONSE_TIMEOUT)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("no response within the timeout")?;
        let now = Instant::now();
        if let Some(r) = rec.as_deref_mut() {
            r.exit();
        }
        slots_free_at.push(now);
        let (index, sent, attempts) = pending
            .remove(&response.id)
            .ok_or(format!("response for unknown id {}", response.id))?;
        match response.body {
            ResponseBody::Samples {
                seq,
                latency_ns: l,
                samples,
            } => {
                if samples.len() != BULK_COUNT as usize {
                    return Err(format!(
                        "response {index} carried {} samples",
                        samples.len()
                    ));
                }
                if index >= BULK_WARMUP {
                    pass.rtt.push(now.duration_since(sent));
                    pass.samples += samples.len() as u64;
                    window_samples += samples.len() as u64;
                    if done % stats::QUIET_WINDOW == stats::QUIET_WINDOW - 1 {
                        if let Some(t) = window_start {
                            let took = now.duration_since(t).as_secs_f64();
                            pass.window_rates.push(window_samples as f64 / took);
                        }
                        window_start = Some(now);
                        window_samples = 0;
                    }
                }
                latency_ns[index] = l;
                results[index] = Some(RequestOutcome::Samples {
                    seq,
                    samples,
                    attempts,
                });
                done += 1;
                if done == BULK_WARMUP {
                    started = now;
                }
            }
            ResponseBody::Error(error) => {
                pass.refusals.count(&error);
                if error.retryable && attempts < 3 {
                    pass.refusals.retries += 1;
                    retry.push((index, attempts));
                } else {
                    results[index] = Some(RequestOutcome::Failed { error, attempts });
                    pass.failed += 1;
                    done += 1;
                }
            }
            other => return Err(format!("unexpected response body {other:?}")),
        }
    }
    pass.timed += started.elapsed();
    pass.attempted += n as u64;
    let outcomes: Vec<RequestOutcome> = results
        .into_iter()
        .map(|o| o.expect("every request resolved"))
        .collect();
    pass.digests.extend(outcomes.iter().map(|o| match o {
        RequestOutcome::Samples { samples, .. } => samples_digest(samples),
        RequestOutcome::Failed { .. } => 0,
    }));
    drop(client);
    let (compared, mismatches) = verify(&rig, seed, &outcomes, profiles)?;
    pass.compared += compared;
    pass.mismatches += mismatches;
    if rec.is_some() {
        pass.codec.time(&outcomes, &latency_ns);
    }
    pass.pool.merge(&PoolFigures::read(&rig.pool));
    shut_down(rig)?;
    Ok(())
}

fn bulk_pass(
    profiles: &[Arc<CtSampler>],
    seed: u64,
    budget: Duration,
    traced: bool,
) -> Result<BulkPass, String> {
    let mut pass = BulkPass::default();
    let mut rec = traced.then(|| Recorder::new(Instant::now()));
    let before = (sys::cpu_time(), Instant::now());
    let mut segment = 0u64;
    while pass.timed < budget {
        bulk_segment(
            profiles,
            sub_seed(seed, 100 + segment),
            rec.as_mut(),
            &mut pass,
        )?;
        segment += 1;
    }
    pass.cpu_util = cpu_util(before, (sys::cpu_time(), Instant::now()));
    if let Some(rec) = rec {
        pass.spans = rec.into_spans();
        pass.send_ns = spans::totals(&pass.spans)
            .get("client.send")
            .map_or(0, |t| t.total_ns);
    }
    Ok(pass)
}

/// Runs `rpc_bulk`.
pub fn bulk(args: &Args, dir: &RunDir) -> Result<Report, String> {
    let mut report = Report::new();
    report.note(format!(
        "rpc_bulk: closed loop, 1 load thread, 1 binary connection, window {BULK_WINDOW}, \
         {BULK_COUNT} samples/request, fresh server per {BULK_SEGMENT}-request segment; seed {}",
        args.seed
    ));
    let (setup, profiles) = measure_setup(dir, &[falcon_profile_spec()], sub_seed(args.seed, 7))?;
    setup.report(&mut report);

    let plain = bulk_pass(&profiles, args.seed, args.budget(), false)?;
    bulk_end_to_end(&plain, &mut report);
    if args.trace {
        let traced = bulk_pass(&profiles, args.seed, args.budget(), true)?;
        let common = plain.digests.len().min(traced.digests.len());
        report.gate(
            plain.digests[..common] == traced.digests[..common] && traced.mismatches == 0,
            format!("traced responses bit-identical to untraced over the first {common}"),
        );
        let per_sec = |p: &BulkPass| stats::quiet_rate(&p.window_rates);
        report.set(
            "trace.overhead_pct",
            (per_sec(&plain) - per_sec(&traced)) / per_sec(&plain) * 100.0,
            1,
        );
        traced.pool.report(&mut report);
        traced.codec.report(&mut report);
        traced.refusals.report(&mut report);
        let rtt = LatencySummary::from_durations(&traced.rtt);
        let pool_p50 = report.value("pool.latency_p50_us").map_or(0.0, |m| m.value);
        report.set(
            "rpc.wire_us_p50",
            rtt.p50 - pool_p50 - traced.codec.per_response_us(),
            rtt.n as u64,
        );
        report.set(
            "client.send_us_per_request",
            traced.send_ns as f64 / traced.attempted.max(1) as f64 / 1e3,
            traced.attempted,
        );
        let late = LatencySummary::from_durations(&traced.late);
        report.set("loadgen.late_p99_us", late.p99, late.n as u64);
        report.set("proc.cpu_util", traced.cpu_util, 1);
        report.set(
            "trace.spans",
            traced.spans.len() as f64,
            traced.spans.len() as u64,
        );
        let probe = kernel_probe(&profiles, &mut report);
        dir.write_spans(&[("client", &traced.spans), ("probe", &probe)])?;
        zero_unreached(&mut report);
    }
    Ok(report)
}

fn bulk_end_to_end(pass: &BulkPass, report: &mut Report) {
    report.attempted = pass.attempted;
    report.failed = pass.failed;
    report.gate(
        pass.mismatches == 0 && pass.compared as u64 == pass.attempted - pass.failed,
        format!(
            "{} of {} responses bit-verified against verify_replay_coalesced",
            pass.compared - pass.mismatches,
            pass.attempted
        ),
    );
    report.gate(pass.failed == 0, format!("{} requests failed", pass.failed));
    let rtt_us: Vec<f64> = pass.rtt.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    let rtt = LatencySummary::from_us(stats::quiet_windows(&rtt_us));
    report.gate(rtt.p99_reportable(), "at least 10 requests beyond the p99");
    report.note(format!(
        "request RTT, whole run: {}",
        LatencySummary::from_us(rtt_us).describe()
    ));
    report.note(format!(
        "request RTT, quiet {}-response windows: {}",
        stats::QUIET_WINDOW,
        rtt.describe()
    ));
    report.set(
        "ops_per_sec",
        stats::quiet_rate(&pass.window_rates),
        pass.samples,
    );
    report.set("lat_p50_us", rtt.p50, rtt.n as u64);
    report.set("lat_p99_us", rtt.p99, rtt.n as u64);
    report.set(
        "ok_ratio",
        (pass.attempted - pass.failed) as f64 / pass.attempted.max(1) as f64,
        pass.attempted,
    );
    report.set("peak_rss_mb", sys::peak_rss_mb(), 1);
}

/// What one open-loop rung produced.
#[derive(Debug, Default)]
struct Rung {
    result: RungResult,
    /// Send-to-response times of delivered requests.
    rtt: Vec<Duration>,
    late_us: Vec<f64>,
    digests: Vec<u64>,
    first_failure: Option<usize>,
    refusals: Refusals,
    pool: PoolFigures,
    codec: CodecTimes,
    compared: usize,
    mismatches: usize,
    delivered: usize,
    /// (due time ns, latency from due in us) of every delivered request.
    delivered_us: Vec<(u64, f64)>,
    /// When the last response arrived, ns after the rung's start.
    last_ns: u64,
    cpu_util: f64,
    send_spans: Vec<Span>,
    recv_spans: Vec<Span>,
}

/// Opens a raw binary-codec connection: the open loop needs its send and
/// receive halves on two threads, which `Client` (one `&mut self` for
/// both) cannot give.
fn raw_connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    frame::write_hello(&mut &stream, CodecKind::Binary).map_err(|e| e.to_string())?;
    match frame::read_hello(&mut &stream) {
        Ok(CodecKind::Binary) => Ok(stream),
        Ok(other) => Err(format!("server answered the hello with {other:?}")),
        Err(e) => Err(format!("hello: {e}")),
    }
}

/// Attempts per open-loop request before a retryable refusal is final.
const TINY_ATTEMPTS: u32 = 8;

/// The wire id of `attempt` (1-based) of request `index`.
fn attempt_id(index: usize, attempt: u32) -> u64 {
    (u64::from(attempt) << 32) | (index as u64 + 1)
}

/// The request index and attempt a wire id names.
fn split_id(id: u64) -> Option<(usize, u32)> {
    let index = usize::try_from(id & 0xFFFF_FFFF).ok()?.checked_sub(1)?;
    Some((index, (id >> 32) as u32))
}

/// A response the receiver resolved a request with.
struct Final {
    at_ns: u64,
    index: usize,
    attempts: u32,
    body: ResponseBody,
}

/// What the receiver thread hands back.
#[derive(Default)]
struct Received {
    finals: Vec<Final>,
    refusals: Refusals,
    refused: Vec<usize>,
    spans: Vec<Span>,
}

/// The receiver half of the open loop: resolves every request, and sends
/// each retryable refusal back to the sender with the time to retry at.
fn receive(
    reader: &TcpStream,
    n: usize,
    start: Instant,
    retry_tx: &mpsc::Sender<(Instant, usize, u32)>,
    traced: bool,
) -> Result<Received, String> {
    let mut rec = traced.then(|| Recorder::new(start));
    let mut got = Received::default();
    let mut last_progress = Instant::now();
    while got.finals.len() < n {
        if let Some(r) = rec.as_mut() {
            r.enter("client.recv");
        }
        let outcome = frame::read_frame(&mut &*reader).map_err(|e| format!("read: {e}"))?;
        let at = Instant::now();
        if let Some(r) = rec.as_mut() {
            r.exit();
        }
        let payload = match outcome {
            FrameOutcome::Frame(payload) => payload,
            FrameOutcome::Idle if at.duration_since(last_progress) > RESPONSE_TIMEOUT => {
                return Err(format!("{} of {n} requests resolved", got.finals.len()));
            }
            FrameOutcome::Idle => continue,
            FrameOutcome::Eof => return Err("server closed the connection".into()),
        };
        last_progress = at;
        let response = codec::decode_response(CodecKind::Binary, &payload)
            .map_err(|e| format!("decode: {e}"))?;
        let (index, attempts) = split_id(response.id)
            .filter(|&(i, _)| i < n)
            .ok_or(format!("response for unknown id {}", response.id))?;
        if let ResponseBody::Error(error) = &response.body {
            got.refusals.count(error);
            got.refused.push(index);
            if error.retryable && attempts < TINY_ATTEMPTS {
                got.refusals.retries += 1;
                let backoff = Duration::from_millis(u64::from(attempts));
                retry_tx
                    .send((at + backoff, index, attempts + 1))
                    .map_err(|_| "sender gone")?;
                continue;
            }
        }
        got.finals.push(Final {
            at_ns: at.saturating_duration_since(start).as_nanos() as u64,
            index,
            attempts,
            body: response.body,
        });
    }
    got.spans = rec.map(Recorder::into_spans).unwrap_or_default();
    Ok(got)
}

/// What the sender thread hands back: per request, when its first and
/// its last attempt went out (ns after the rung's start).
struct Sent {
    first_ns: Vec<u64>,
    last_ns: Vec<u64>,
    spans: Vec<Span>,
}

/// The sender half of the open loop: every arrival at its due time, and
/// every retry the receiver asks for at its retry time, whichever is
/// earlier, until the receiver has resolved everything.
fn send(
    stream: &TcpStream,
    arrivals: &[Arrival],
    start: Instant,
    retry_rx: &mpsc::Receiver<(Instant, usize, u32)>,
    traced: bool,
) -> Result<Sent, String> {
    let n = arrivals.len();
    let mut rec = traced.then(|| Recorder::new(start));
    let mut sent = Sent {
        first_ns: vec![0; n],
        last_ns: vec![0; n],
        spans: Vec::new(),
    };
    let mut retries: Vec<(Instant, usize, u32)> = Vec::new();
    let mut next = 0usize;
    loop {
        retries.extend(retry_rx.try_iter());
        let scheduled = arrivals
            .get(next)
            .map(|a| (start + Duration::from_nanos(a.due_ns), next, 1));
        let retry = retries.iter().copied().min_by_key(|r| r.0);
        let Some((due, index, attempt)) =
            [scheduled, retry].into_iter().flatten().min_by_key(|r| r.0)
        else {
            // Everything sent; wait for a retry request or the receiver
            // hanging up (the channel closes when it is done).
            match retry_rx.recv() {
                Ok(r) => {
                    retries.push(r);
                    continue;
                }
                Err(_) => break,
            }
        };
        let now = Instant::now();
        if due > now {
            if let Ok(r) = retry_rx.recv_timeout(due - now) {
                retries.push(r);
                continue;
            }
        }
        if attempt == 1 {
            next += 1;
        } else {
            retries.retain(|r| (r.1, r.2) != (index, attempt));
        }
        let t = Instant::now().saturating_duration_since(start).as_nanos() as u64;
        if attempt == 1 {
            sent.first_ns[index] = t;
        }
        sent.last_ns[index] = t;
        if let Some(r) = rec.as_mut() {
            r.set_op(index as u64);
            r.enter("client.send");
        }
        let request = Request {
            id: attempt_id(index, attempt),
            body: RequestBody::Sample {
                profile: arrivals[index].profile,
                count: arrivals[index].count,
                deadline_ms: 0,
            },
        };
        let payload = codec::encode_request(CodecKind::Binary, &request);
        let written = frame::write_frame(&mut &*stream, &payload);
        if let Some(r) = rec.as_mut() {
            r.exit();
        }
        written.map_err(|e| format!("send: {e}"))?;
    }
    sent.spans = rec.map(Recorder::into_spans).unwrap_or_default();
    Ok(sent)
}

/// Drives one rung: a sender thread issues `arrivals` on schedule, a
/// receiver thread collects responses; both share one connection. A
/// retryable refusal is retried (up to `TINY_ATTEMPTS` attempts) and
/// still counts as an SLO miss.
fn run_rung(
    profiles: &[Arc<CtSampler>],
    rate: u32,
    arrivals: &[Arrival],
    seed: u64,
    traced: bool,
) -> Result<Rung, String> {
    let rig = Rig::start(profiles, seed)?;
    let stream = raw_connect(rig.addr())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let n = arrivals.len();
    let before = (sys::cpu_time(), Instant::now());
    // Leave the receiver a moment to start before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let (retry_tx, retry_rx) = mpsc::channel();
    let (sent, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let got = receive(&reader, n, start, &retry_tx, traced);
            drop(retry_tx);
            got
        });
        let sent = send(&stream, arrivals, start, &retry_rx, traced);
        // A failed sender leaves the receiver to time out on its own.
        let received = receiver.join().map_err(|_| "receiver panicked".to_owned());
        (sent, received)
    });
    let sent = sent?;
    let received = received??;
    drop(stream);

    let mut rung = Rung {
        result: RungResult {
            rate,
            latencies_us: vec![None; n],
        },
        rtt: Vec::with_capacity(n),
        late_us: schedule::lateness_us(
            &arrivals.iter().map(|a| a.due_ns).collect::<Vec<_>>(),
            &sent.first_ns,
        ),
        digests: vec![0; n],
        first_failure: received.refused.iter().copied().min(),
        refusals: received.refusals,
        send_spans: sent.spans,
        recv_spans: received.spans,
        ..Rung::default()
    };
    let mut outcomes: Vec<Option<RequestOutcome>> = (0..n).map(|_| None).collect();
    let mut latency_ns = vec![0u64; n];
    let mut ever_refused = vec![false; n];
    for &index in &received.refused {
        ever_refused[index] = true;
    }
    rung.last_ns = received.finals.iter().map(|f| f.at_ns).max().unwrap_or(0);
    for Final {
        at_ns,
        index,
        attempts,
        body,
    } in received.finals
    {
        match body {
            ResponseBody::Samples {
                seq,
                latency_ns: l,
                samples,
            } => {
                if samples.len() != arrivals[index].count as usize {
                    return Err(format!(
                        "response {index} carried {} samples",
                        samples.len()
                    ));
                }
                let from_due = at_ns.saturating_sub(arrivals[index].due_ns) as f64 / 1e3;
                rung.delivered_us.push((arrivals[index].due_ns, from_due));
                // A refusal counts as a miss even when a retry succeeded.
                if !ever_refused[index] {
                    rung.result.latencies_us[index] = Some(from_due);
                }
                rung.rtt.push(Duration::from_nanos(
                    at_ns.saturating_sub(sent.last_ns[index]),
                ));
                rung.digests[index] = samples_digest(&samples);
                latency_ns[index] = l;
                rung.delivered += 1;
                outcomes[index] = Some(RequestOutcome::Samples {
                    seq,
                    samples,
                    attempts,
                });
            }
            ResponseBody::Error(error) => {
                outcomes[index] = Some(RequestOutcome::Failed { error, attempts });
            }
            other => return Err(format!("unexpected response body {other:?}")),
        }
    }
    rung.cpu_util = cpu_util(before, (sys::cpu_time(), Instant::now()));
    let outcomes: Vec<RequestOutcome> = outcomes
        .into_iter()
        .map(|o| o.ok_or("a request got no response"))
        .collect::<Result<_, _>>()?;
    let (compared, mismatches) = verify(&rig, seed, &outcomes, profiles)?;
    rung.compared = compared;
    rung.mismatches = mismatches;
    if traced {
        rung.codec.time(&outcomes, &latency_ns);
    }
    rung.pool = PoolFigures::read(&rig.pool);
    shut_down(rig)?;
    Ok(rung)
}

/// One pass over the whole ladder.
fn ladder_pass(
    profiles: &[Arc<CtSampler>],
    seed: u64,
    budget: Duration,
    traced: bool,
) -> Result<Vec<Rung>, String> {
    LADDER
        .iter()
        .enumerate()
        .map(|(k, &(rate, share))| {
            let arrivals = schedule::poisson(
                sub_seed(seed, 200 + k as u64),
                f64::from(rate),
                budget.mul_f64(share),
                TINY_PROFILES.len() as u32,
                TINY_MAX_COUNT,
            );
            run_rung(
                profiles,
                rate,
                &arrivals,
                sub_seed(seed, 300 + k as u64),
                traced,
            )
        })
        .collect()
}

fn reference(rungs: &[Rung]) -> &Rung {
    rungs
        .iter()
        .find(|r| r.result.rate == REFERENCE_RATE)
        .expect("the ladder holds the reference rate")
}

/// Runs `rpc_tiny_open`.
pub fn tiny_open(args: &Args, dir: &RunDir) -> Result<Report, String> {
    let mut report = Report::new();
    report.note(format!(
        "rpc_tiny_open: open loop (Poisson), 2 load threads (send + receive), 1 binary \
         connection, ladder {:?} req/s, reference {REFERENCE_RATE}, p99 limit {SLO_P99_US} us; seed {}",
        LADDER.map(|(r, _)| r),
        args.seed
    ));
    let specs: Vec<SamplerSpec> = TINY_PROFILES
        .iter()
        .map(|&(sigma, n)| SamplerSpec::new(sigma, n))
        .collect();
    let (setup, profiles) = measure_setup(dir, &specs, sub_seed(args.seed, 7))?;
    setup.report(&mut report);

    let plain = ladder_pass(&profiles, args.seed, args.budget(), false)?;
    tiny_end_to_end(&plain, &mut report);
    if args.trace {
        let traced = ladder_pass(&profiles, args.seed, args.budget(), true)?;
        for (p, t) in plain.iter().zip(&traced) {
            let common = p
                .digests
                .len()
                .min(p.first_failure.unwrap_or(usize::MAX))
                .min(t.first_failure.unwrap_or(usize::MAX));
            report.gate(
                p.digests[..common] == t.digests[..common] && t.mismatches == 0,
                format!(
                    "{} req/s: traced responses bit-identical to untraced over the first {common}",
                    p.result.rate
                ),
            );
        }
        // Open loop: the offered rate is fixed, so tracing shows up as
        // added latency at the reference rate.
        let (p, t) = (reference(&plain), reference(&traced));
        let (p50_plain, p50_traced) = (stats::median(&rtts_us(p)), stats::median(&rtts_us(t)));
        report.set(
            "trace.overhead_pct",
            (p50_traced - p50_plain) / p50_plain * 100.0,
            t.rtt.len() as u64,
        );
        t.pool.report(&mut report);
        t.codec.report(&mut report);
        let mut refusals = Refusals::default();
        traced.iter().for_each(|r| refusals.add(&r.refusals));
        refusals.report(&mut report);
        let rtt = LatencySummary::from_durations(&t.rtt);
        let pool_p50 = report.value("pool.latency_p50_us").map_or(0.0, |m| m.value);
        report.set(
            "rpc.wire_us_p50",
            rtt.p50 - pool_p50 - t.codec.per_response_us(),
            rtt.n as u64,
        );
        let send_ns = spans::totals(&t.send_spans)
            .get("client.send")
            .map_or(0, |x| x.total_ns);
        report.set(
            "client.send_us_per_request",
            send_ns as f64 / t.result.attempted().max(1) as f64 / 1e3,
            t.result.attempted() as u64,
        );
        let late = LatencySummary::from_us(t.late_us.clone());
        report.set("loadgen.late_p99_us", late.p99, late.n as u64);
        let rungs: Vec<RungResult> = traced.iter().map(|r| r.result.clone()).collect();
        report.set(
            "loadgen.slo_rate_rps",
            f64::from(schedule::slo_rate(&rungs, SLO_P99_US)),
            rungs.len() as u64,
        );
        report.set("proc.cpu_util", t.cpu_util, 1);
        let spans_total: usize = traced
            .iter()
            .map(|r| r.send_spans.len() + r.recv_spans.len())
            .sum();
        report.set("trace.spans", spans_total as f64, spans_total as u64);
        let probe = kernel_probe(&profiles, &mut report);
        dir.write_spans(&[
            ("sender", &t.send_spans),
            ("receiver", &t.recv_spans),
            ("probe", &probe),
        ])?;
        zero_unreached(&mut report);
    }
    Ok(report)
}

fn rtts_us(rung: &Rung) -> Vec<f64> {
    rung.rtt.iter().map(|d| d.as_secs_f64() * 1e6).collect()
}

/// Latencies from due time of a rung's delivered requests, in due order.
fn delivered_in_due_order(rung: &Rung) -> Vec<f64> {
    let mut v = rung.delivered_us.clone();
    v.sort_by_key(|&(due, _)| due);
    v.into_iter().map(|(_, l)| l).collect()
}

fn tiny_end_to_end(rungs: &[Rung], report: &mut Report) {
    let attempted: usize = rungs.iter().map(|r| r.result.attempted()).sum();
    let delivered: usize = rungs.iter().map(|r| r.delivered).sum();
    report.attempted = attempted as u64;
    report.failed = (attempted - delivered) as u64;
    let compared: usize = rungs.iter().map(|r| r.compared).sum();
    let mismatches: usize = rungs.iter().map(|r| r.mismatches).sum();
    report.gate(
        mismatches == 0 && compared == delivered,
        format!(
            "{} of {attempted} responses bit-verified against verify_replay_coalesced",
            compared - mismatches
        ),
    );
    for r in rungs {
        let lat = LatencySummary::from_us(delivered_in_due_order(r));
        let late = LatencySummary::from_us(r.late_us.clone());
        report.note(format!(
            "{:>6} req/s: {} sent, {} refused at least once, {} failed; latency from due {}; \
             p99 with refusals as misses {:.1} us; backlog growing: {}; meets SLO: {}; \
             sender late p99 {:.1} us",
            r.result.rate,
            r.result.attempted(),
            r.result.failed() - (r.result.attempted() - r.delivered),
            r.result.attempted() - r.delivered,
            lat.describe(),
            r.result.p99_with_misses_us(),
            r.result.backlog_growing(),
            r.result.meets(SLO_P99_US),
            late.p99,
        ));
    }
    let results: Vec<RungResult> = rungs.iter().map(|r| r.result.clone()).collect();
    report.note(format!(
        "slo_rate_rps = {} (highest rate with p99 <= {SLO_P99_US} us, refusals as misses, \
         no growing backlog)",
        schedule::slo_rate(&results, SLO_P99_US)
    ));
    let r = reference(rungs);
    let lat = LatencySummary::from_us(stats::quiet_windows(&delivered_in_due_order(r)));
    report.gate(lat.p99_reportable(), "at least 10 requests beyond the p99");
    report.note(format!(
        "reference rate, quiet {}-request windows: {}",
        stats::QUIET_WINDOW,
        lat.describe()
    ));
    report.set(
        "ops_per_sec",
        r.delivered as f64 / (r.last_ns.max(1) as f64 / 1e9),
        r.delivered as u64,
    );
    report.set("lat_p50_us", lat.p50, lat.n as u64);
    report.set("lat_p99_us", lat.p99, lat.n as u64);
    report.set(
        "ok_ratio",
        r.delivered as f64 / r.result.attempted().max(1) as f64,
        r.result.attempted() as u64,
    );
    report.set("peak_rss_mb", sys::peak_rss_mb(), 1);
}
