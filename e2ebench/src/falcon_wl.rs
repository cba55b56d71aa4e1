//! `falcon512_sign`: one in-process signer in a closed loop, Falcon-512
//! with the paper's constant-time Knuth-Yao base sampler (sigma = 2,
//! n = 128, tau = 13, ChaCha). Every signature is verified outside the
//! timed region.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctgauss_core::{BatchScratch, CtSampler, SamplerSpec, Strategy};
use ctgauss_falcon::base::KnuthYaoCtBase;
use ctgauss_falcon::sign::BaseSampler;
use ctgauss_falcon::{FalconParams, SecretKey, Signature};
use ctgauss_prng::{ChaChaRng, RandomSource, SplitMix64};

use crate::report::Report;
use crate::spans::{self, Recorder, TracedRng};
use crate::stats::{self, LatencySummary};
use crate::{repeat_setup, sub_seed, sys, zero_unreached, Args, RunDir};

/// Falcon-512.
const LOGN: u32 = 9;
/// Signatures per timed chunk; each chunk is verified after its clock
/// stops, which bounds the memory held for verification.
const CHUNK: usize = 1024;
/// Set-up repetitions, each generating one of the keys signed with in
/// turn. Key generation time varies from key to key, so the median
/// set-up time needs this many to settle.
const KEYS: usize = 15;
/// Untimed signatures before the first chunk.
const WARMUP: usize = 16;
/// Lane blocks per refill, as in `KnuthYaoCtBase`.
const WIDE: usize = 8;

/// The base-sampler spec `KnuthYaoCtBase` builds.
fn base_spec() -> SamplerSpec {
    SamplerSpec::new("2", 128)
        .tail_cut(13)
        .strategy(Strategy::SplitExact)
}

/// The seeds one run derives from `--seed`.
#[derive(Debug, Clone, Copy)]
struct Seeds {
    key: u64,
    base: u64,
    aux: u64,
    messages: u64,
}

impl Seeds {
    fn new(seed: u64) -> Self {
        Seeds {
            key: sub_seed(seed, 1),
            base: sub_seed(seed, 2),
            aux: sub_seed(seed, 3),
            messages: sub_seed(seed, 4),
        }
    }
}

/// FNV-1a over a signature's nonce and coefficients.
fn signature_digest(sig: &Signature) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    sig.nonce.iter().copied().for_each(&mut mix);
    for c in &sig.s1 {
        c.to_le_bytes().into_iter().for_each(&mut mix);
    }
    h
}

/// `KnuthYaoCtBase` with a `core.refill` span around each
/// `sample_batch_with::<8>` call: same spec, same seed, same refill
/// granularity, hence byte-identical signatures.
struct TracedBase {
    sampler: Arc<CtSampler>,
    rng: TracedRng,
    scratch: BatchScratch<WIDE>,
    buf: [i32; 64 * WIDE],
    pos: usize,
    drawn: u64,
    rec: Rc<RefCell<Recorder>>,
}

impl TracedBase {
    fn new(seed: u64, rec: Rc<RefCell<Recorder>>) -> Result<Self, String> {
        let sampler = base_spec().build_shared().map_err(|e| e.to_string())?;
        let scratch = sampler.scratch::<WIDE>();
        Ok(TracedBase {
            sampler,
            rng: TracedRng::new(ChaChaRng::from_u64_seed(seed), Rc::clone(&rec)),
            scratch,
            buf: [0; 64 * WIDE],
            pos: 64 * WIDE,
            drawn: 0,
            rec,
        })
    }
}

impl BaseSampler for TracedBase {
    fn next(&mut self) -> i32 {
        if self.pos == self.buf.len() {
            self.rec.borrow_mut().enter("core.refill");
            self.sampler
                .sample_batch_with(&mut self.rng, &mut self.scratch, &mut self.buf);
            self.rec.borrow_mut().exit();
            self.pos = 0;
        }
        self.drawn += 1;
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    fn name(&self) -> &'static str {
        "bitsliced Knuth-Yao (traced)"
    }
}

/// What one signing pass produced.
#[derive(Debug, Default)]
struct Pass {
    digests: Vec<u64>,
    /// Wall time of each signature.
    latencies: Vec<Duration>,
    /// Signer-thread CPU time of each signature.
    cpu: Vec<Duration>,
    gaps: Vec<Duration>,
    timed: Duration,
    /// Signatures per second of signer CPU time, of each window of
    /// `QUIET_WINDOW` signatures.
    window_rates: Vec<f64>,
    verify_failures: usize,
    sign_failures: usize,
    cpu_util: f64,
    /// Peak RSS after the warm-up, before the per-signature records of
    /// the timed loop (whose size follows the signing rate) grow.
    rss_mb: f64,
}

impl Pass {
    /// Signatures per second of signer CPU time in the quiet windows.
    /// Time the host takes the CPU away does not count.
    fn per_sec(&self) -> f64 {
        stats::quiet_rate(&self.window_rates)
    }
}

/// Signs seed-derived messages in a closed loop, message `i` with key
/// `i % keys.len()`, until `budget` of timed signing has accumulated.
/// `rec`, when given, gets a `falcon.sign` span around every signature.
fn sign_pass<B: BaseSampler>(
    keys: &[SecretKey],
    base: &mut B,
    seeds: Seeds,
    budget: Duration,
    rec: Option<&Rc<RefCell<Recorder>>>,
) -> Pass {
    let key = |i: usize| &keys[i % keys.len()];
    let mut aux = ChaChaRng::from_u64_seed(seeds.aux);
    let mut messages = SplitMix64::new(seeds.messages);
    let mut next_message = || {
        let mut m = [0u8; 32];
        for w in m.chunks_exact_mut(8) {
            w.copy_from_slice(&messages.next_u64().to_le_bytes());
        }
        m
    };
    let mut pass = Pass::default();
    for i in 0..WARMUP {
        let m = next_message();
        match key(i).sign(&m, base, &mut aux) {
            Ok(sig) if key(i).public_key().verify(&m, &sig) => {}
            Ok(_) => pass.verify_failures += 1,
            Err(_) => pass.sign_failures += 1,
        }
    }
    if let Some(rec) = rec {
        rec.borrow_mut().clear();
    }
    pass.rss_mb = sys::peak_rss_mb();
    let before = (sys::cpu_time(), Instant::now());
    let mut chunk_sigs: Vec<Option<Signature>> = Vec::with_capacity(CHUNK);
    let mut chunk_msgs = Vec::with_capacity(CHUNK);
    while pass.timed < budget {
        chunk_msgs.clear();
        chunk_msgs.extend((0..CHUNK).map(|_| next_message()));
        chunk_sigs.clear();
        let chunk_start = Instant::now();
        let mut last_end = chunk_start;
        let mut window_cpu = Duration::ZERO;
        for (i, m) in chunk_msgs.iter().enumerate() {
            if let Some(rec) = rec {
                let mut r = rec.borrow_mut();
                r.set_op(pass.digests.len() as u64 + i as u64);
                r.enter("falcon.sign");
            }
            let start = Instant::now();
            let cpu_start = sys::thread_cpu_time();
            let sig = key(pass.digests.len() + i).sign(m, base, &mut aux);
            let cpu = sys::thread_cpu_time().saturating_sub(cpu_start);
            let end = Instant::now();
            if let Some(rec) = rec {
                rec.borrow_mut().exit();
            }
            if i > 0 {
                pass.gaps.push(start.duration_since(last_end));
            }
            last_end = end;
            pass.latencies.push(end.duration_since(start));
            pass.cpu.push(cpu);
            chunk_sigs.push(sig.ok());
            window_cpu += cpu;
            if (i + 1) % stats::QUIET_WINDOW == 0 {
                pass.window_rates
                    .push(stats::QUIET_WINDOW as f64 / window_cpu.as_secs_f64());
                window_cpu = Duration::ZERO;
            }
        }
        pass.timed += last_end.duration_since(chunk_start);
        // Verification and digests happen with the clock stopped.
        for (m, sig) in chunk_msgs.iter().zip(&chunk_sigs) {
            match sig {
                Some(sig) => {
                    if !key(pass.digests.len()).public_key().verify(m, sig) {
                        pass.verify_failures += 1;
                    }
                    pass.digests.push(signature_digest(sig));
                }
                None => {
                    pass.sign_failures += 1;
                    pass.digests.push(0);
                }
            }
        }
    }
    pass.cpu_util = crate::cpu_util(before, (sys::cpu_time(), Instant::now()));
    pass
}

/// Runs the workload.
pub fn run(args: &Args, dir: &RunDir) -> Result<Report, String> {
    let seeds = Seeds::new(args.seed);
    let mut report = Report::new();
    report.note(format!(
        "falcon512_sign: closed loop, 1 signer thread, in-process, {KEYS} seed-derived keys in turn; seed {}",
        args.seed
    ));

    // Set-up from an empty kernel cache: synthesis, the warm rebuild
    // KnuthYaoCtBase does, and key generation.
    // Each repetition generates a different seed-derived key, so the
    // median set-up time does not hang on one key's generation time.
    // The signer then uses all of them in turn, which keeps the latency
    // tail from hanging on one key either.
    let mut keys = Vec::new();
    let setup = repeat_setup(KEYS, KEYS, Duration::ZERO, |rep, times| {
        dir.fresh_cache();
        let key_seed = sub_seed(seeds.key, rep as u64);
        let started = Instant::now();
        let (_, trace) = base_spec()
            .build_shared_traced()
            .map_err(|e| format!("base sampler synthesis failed: {e}"))?;
        times.add_trace(&trace, rep);
        let t = Instant::now();
        drop(KnuthYaoCtBase::new(seeds.base));
        times.warm_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let sk = SecretKey::generate(
            FalconParams::new(LOGN),
            &mut ChaChaRng::from_u64_seed(key_seed),
        )
        .map_err(|e| format!("key generation failed: {e}"))?;
        times.keygen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let took = started.elapsed();
        keys.push(sk);
        Ok(took)
    })?;
    setup.report(&mut report);

    let mut base = KnuthYaoCtBase::new(seeds.base);
    let plain = sign_pass(&keys, &mut base, seeds, args.budget(), None);
    let attempted = (WARMUP + plain.digests.len()) as u64;
    let failed = (plain.sign_failures + plain.verify_failures) as u64;
    report.attempted = attempted;
    report.failed = failed;
    report.gate(
        plain.sign_failures == 0 && plain.verify_failures == 0,
        format!(
            "{} signatures, every one verified by PublicKey::verify ({} sign failures, {} rejected)",
            attempted, plain.sign_failures, plain.verify_failures
        ),
    );
    // The gated figures are signer CPU time, so time the host gives other
    // guests does not count, over the quiet windows of the run.
    let cpu_us: Vec<f64> = plain.cpu.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    let lat = LatencySummary::from_us(stats::quiet_windows(&cpu_us));
    report.gate(
        lat.p99_reportable(),
        "at least 10 signatures beyond the p99",
    );
    report.note(format!(
        "sign wall time, whole run: {}",
        LatencySummary::from_durations(&plain.latencies).describe()
    ));
    report.note(format!(
        "sign CPU time, whole run: {}",
        LatencySummary::from_us(cpu_us).describe()
    ));
    report.note(format!(
        "sign CPU time, quiet {}-signature windows: {}",
        stats::QUIET_WINDOW,
        lat.describe()
    ));
    report.set("ops_per_sec", plain.per_sec(), plain.digests.len() as u64);
    report.set("lat_p50_us", lat.p50, lat.n as u64);
    report.set("lat_p99_us", lat.p99, lat.n as u64);
    report.set(
        "ok_ratio",
        (attempted - failed) as f64 / attempted as f64,
        attempted,
    );
    report.set("peak_rss_mb", plain.rss_mb, 1);
    let gaps = LatencySummary::from_durations(&plain.gaps);
    report.set("loadgen.late_p99_us", gaps.p99, gaps.n as u64);

    if args.trace {
        traced(args, dir, &keys, seeds, &plain, &mut report)?;
        zero_unreached(&mut report);
    }
    Ok(report)
}

/// The traced pass: the same signatures through `TracedBase`, spans
/// around sign, refill and PRNG fill.
fn traced(
    args: &Args,
    dir: &RunDir,
    keys: &[SecretKey],
    seeds: Seeds,
    plain: &Pass,
    report: &mut Report,
) -> Result<(), String> {
    let rec = Rc::new(RefCell::new(Recorder::new(Instant::now())));
    let mut base = TracedBase::new(seeds.base, Rc::clone(&rec))?;
    let pass = sign_pass(keys, &mut base, seeds, args.budget(), Some(&rec));
    let common = pass.digests.len().min(plain.digests.len());
    report.gate(
        pass.digests[..common] == plain.digests[..common]
            && pass.sign_failures == 0
            && pass.verify_failures == 0,
        format!("traced signatures byte-identical to untraced over the first {common}"),
    );

    let drawn = base.drawn;
    drop(base);
    let spans = Rc::try_unwrap(rec)
        .map_err(|_| "span recorder still shared".to_owned())?
        .into_inner()
        .into_spans();
    let totals = spans::totals(&spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (sign, refill, fill) = (get("falcon.sign"), get("core.refill"), get("prng.fill"));
    // Timed signatures only: the warm-up ran outside any span.
    let signs = sign.count.max(1) as f64;
    let blocks = (refill.count * WIDE as u64).max(1) as f64;
    report.set(
        "falcon.self_us_per_sign",
        sign.self_ns as f64 / signs / 1e3,
        sign.count,
    );
    report.set(
        "falcon.refill_us_per_sign",
        refill.total_ns as f64 / signs / 1e3,
        refill.count,
    );
    report.set(
        "falcon.sign_span_us",
        sign.total_ns as f64 / signs / 1e3,
        sign.count,
    );
    report.set(
        "falcon.base_samples_per_sign",
        drawn as f64 / (WARMUP as f64 + signs),
        drawn,
    );
    report.set(
        "core.refill_ns_per_64",
        refill.self_ns as f64 / blocks,
        refill.count,
    );
    report.set(
        "prng.fill_ns_per_64",
        fill.total_ns as f64 / blocks,
        fill.count,
    );
    report.set(
        "trace.overhead_pct",
        (plain.per_sec() - pass.per_sec()) / plain.per_sec() * 100.0,
        1,
    );
    report.set("trace.spans", spans.len() as f64, spans.len() as u64);
    report.set("proc.cpu_util", pass.cpu_util, 1);
    let identity = (sign.self_ns + refill.total_ns) as f64 / sign.total_ns.max(1) as f64;
    report.note(format!(
        "span identity: (sign self + refill) / sign span = {identity:.6}; \
         refill self {:.1} ns/64 + PRNG {:.1} ns/64",
        refill.self_ns as f64 / blocks,
        fill.total_ns as f64 / blocks
    ));
    report.gate(
        (identity - 1.0).abs() < 1e-3,
        "falcon.self_us_per_sign plus refill time equals the sign span",
    );
    dir.write_spans(&[("main", &spans)])
}
