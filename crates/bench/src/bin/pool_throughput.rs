//! Service-layer scaling: samples/sec through `ctgauss-pool` as the
//! worker count grows (the acceptance experiment for the pool subsystem;
//! measured rows go to EXPERIMENTS.md).
//!
//! One shared compiled kernel (built once, `Arc`-cloned into every pool)
//! serves a fixed stream of requests at each thread count; the reported
//! speedup is wall-clock samples/sec relative to one thread. Usage:
//!
//! ```text
//! pool_throughput [--total SAMPLES] [--request SAMPLES] [--threads 1,2,4,8]
//!                 [--precision N] [--width 1|2|4|8] [--smoke]
//! ```
//!
//! Besides the table, the run writes `BENCH_pool_throughput.json` (per
//! thread count: `t{N}_samples_per_sec` and speedup; plus the pool's own
//! latency/fill telemetry from the widest run) into `$CTGAUSS_BENCH_DIR`.
//! Each thread count reports its best of 3 repetitions (interference
//! only slows a run, and the rate is regression-gated in CI).
//! `--smoke` is the abbreviated CI configuration.

use std::sync::Arc;
use std::time::Instant;

use ctgauss_bench::print_table;
use ctgauss_bench::report::{smoke_requested, BenchReport};
use ctgauss_core::SamplerSpec;
use ctgauss_pool::{CoalesceConfig, LaneWidth, Pool, SampleRequest};

struct Args {
    total: usize,
    request: usize,
    threads: Vec<usize>,
    precision: u32,
    width: LaneWidth,
    smoke: bool,
}

fn parse_args() -> Args {
    let smoke = smoke_requested();
    let mut args = Args {
        // The smoke run is still regression-gated, so its per-repetition
        // window must be long enough (~100 ms) to average over scheduler
        // churn — 2^19 samples (~13 ms) swung tens of percent run to run
        // on a single-CPU container.
        total: if smoke { 1 << 22 } else { 16 << 20 },
        request: 4096,
        threads: if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] },
        precision: 64,
        width: LaneWidth::W4,
        smoke,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--smoke" => {} // consumed by smoke_requested
            "--total" => args.total = value().parse().expect("--total"),
            "--request" => args.request = value().parse().expect("--request"),
            "--threads" => {
                args.threads = value()
                    .split(',')
                    .map(|t| t.parse().expect("--threads"))
                    .collect();
            }
            "--precision" => args.precision = value().parse().expect("--precision"),
            "--width" => {
                args.width = match value().as_str() {
                    "1" => LaneWidth::W1,
                    "2" => LaneWidth::W2,
                    "4" => LaneWidth::W4,
                    "8" => LaneWidth::W8,
                    w => panic!("unsupported width {w}"),
                }
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let spec = SamplerSpec::new("2", args.precision);
    println!(
        "pool_throughput: sigma = 2, n = {}, width = {:?}, {} samples per run, {}-sample requests",
        args.precision, args.width, args.total, args.request
    );
    let build_start = Instant::now();
    let shared = spec.build_shared().expect("paper parameters build");
    println!(
        "shared kernel built once in {:.2?} ({} slots), Arc-cloned into every pool\n",
        build_start.elapsed(),
        shared.tiled_kernel().num_slots()
    );

    let requests = args.total.div_ceil(args.request);
    let mut rows = Vec::new();
    let mut measured: Vec<(usize, f64, u64, f64)> = Vec::new();
    let mut report = BenchReport::new("pool_throughput", args.smoke);
    // Best-of-3 per thread count: the samples/sec metric is hard-gated
    // by the CI regression comparator, and on a shared machine a single
    // run can lose tens of percent to a competing thread. Interference
    // only ever slows a run, so the fastest repetition is the closest
    // to the true rate (same reasoning as `measure_ns_floor`). Seeds are
    // fixed, so every repetition produces the identical sample stream.
    const REPS: usize = 3;
    for &threads in &args.threads {
        let mut best: Option<(f64, u64, f64, _)> = None;
        for _ in 0..REPS {
            let mut builder = Pool::builder()
                .threads(threads)
                .width(args.width)
                .queue_capacity(1024)
                .seed_u64(7);
            let profile = builder.shared_profile(Arc::clone(&shared));
            let pool = builder.spawn();

            let start = Instant::now();
            let tickets: Vec<_> = (0..requests)
                .map(|_| {
                    pool.submit(SampleRequest {
                        profile,
                        count: args.request,
                    })
                    .expect("submit")
                })
                .collect();
            let mut checksum = 0u64;
            for t in tickets {
                let response = t.wait().expect("response");
                // Touch every sample so the compiler cannot elide the work.
                for &s in &response.samples {
                    checksum = checksum.wrapping_mul(0x100000001b3).wrapping_add(s as u64);
                }
            }
            let elapsed = start.elapsed();
            let samples = (requests * args.request) as f64;
            let rate = samples / elapsed.as_secs_f64();
            if best.as_ref().is_none_or(|&(r, ..)| rate > r) {
                best = Some((rate, checksum, elapsed.as_secs_f64(), pool.metrics()));
            }
        }
        let (rate, checksum, secs, metrics) = best.expect("REPS > 0");
        measured.push((threads, rate, checksum, secs));

        // Fold the pool's own telemetry into the artifact: fill ratio
        // always; submit-to-completion latency when the record path is
        // compiled in (absent under --no-default-features, whose whole
        // point is measuring the samples/sec delta of that path).
        if let Some(fill) = metrics.gauge("pool", "batch_fill_ratio") {
            report.metric(format!("t{threads}_batch_fill_ratio"), fill);
        }
        if let Some(latency) = metrics.histogram("pool", "latency_ns") {
            for (tag, p) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                report.metric(
                    format!("t{threads}_latency_{tag}_ms"),
                    latency.percentile(p) as f64 / 1e6,
                );
            }
        }
    }
    // Speedup is relative to the threads == 1 run regardless of the
    // order --threads listed it; without a 1-thread run, fall back to
    // the first measurement.
    let baseline = measured
        .iter()
        .find(|&&(threads, ..)| threads == 1)
        .unwrap_or(&measured[0])
        .1;
    for &(threads, rate, checksum, secs) in &measured {
        report.metric(format!("t{threads}_samples_per_sec"), rate);
        report.metric(format!("t{threads}_speedup"), rate / baseline);
        report.metric(format!("t{threads}_wall_seconds"), secs);
        rows.push(vec![
            threads.to_string(),
            format!("{secs:.3}"),
            format!("{:.3e}", rate),
            format!("{:.2}x", rate / baseline),
            format!("{checksum:016x}"),
        ]);
    }
    print_table(
        &["threads", "seconds", "samples/sec", "speedup", "checksum"],
        &rows,
    );
    println!("\n(checksums differ across thread counts: shards draw disjoint SeedTree streams)");

    tiny_request_sweep(&mut report, args.smoke);
    report.write().expect("write BENCH_pool_throughput.json");
}

/// The staging experiment: a mixed-profile stream of tiny requests (the
/// LWE-encryption shape — a handful of noise samples per call) measured
/// twice, against [`CoalesceConfig::passthrough`] (every request its own
/// gang) and against the staging coalescer. Kernel batches are the same
/// in both modes — the per-(shard, profile) carry already runs only
/// full `64·W`-sample batches — so what staging moves is gangs per
/// request: engine passes, ring pushes, and worker wakeups. Gangs per
/// request and staging-wait percentiles go into the artifact; the ratio
/// is informational to the regression gate, `_ms` keys warn-only.
fn tiny_request_sweep(report: &mut BenchReport, smoke: bool) {
    println!("\ntiny-request coalescing (3 profiles, n = 16, W1, 1 thread):");
    let profiles_shared: Vec<_> = [("2", 16u32), ("6.15543", 16), ("1.5", 16)]
        .iter()
        .map(|&(sigma, n)| {
            SamplerSpec::new(sigma, n)
                .build_shared()
                .expect("tiny profile builds")
        })
        .collect();
    let requests = if smoke { 1536 } else { 6144 };
    let mut rows = Vec::new();
    for count in [1usize, 8, 64] {
        for (mode, coalesce) in [
            ("baseline", CoalesceConfig::passthrough()),
            (
                "coalesced",
                CoalesceConfig {
                    steal: false,
                    ..CoalesceConfig::default()
                },
            ),
        ] {
            let mut builder = Pool::builder()
                .threads(1)
                .width(LaneWidth::W1)
                .queue_capacity(1024)
                .seed_u64(11)
                .coalesce(coalesce);
            let ids: Vec<_> = profiles_shared
                .iter()
                .map(|s| builder.shared_profile(Arc::clone(s)))
                .collect();
            let pool = builder.spawn();
            let start = Instant::now();
            let tickets: Vec<_> = (0..requests)
                .map(|i| {
                    pool.submit(SampleRequest {
                        profile: ids[i % ids.len()],
                        count,
                    })
                    .expect("submit")
                })
                .collect();
            let mut checksum = 0u64;
            for t in tickets {
                let response = t.wait().expect("response");
                for &s in &response.samples {
                    checksum = checksum.wrapping_mul(0x100000001b3).wrapping_add(s as u64);
                }
            }
            let secs = start.elapsed().as_secs_f64();
            let metrics = pool.metrics();
            let counter = |name| metrics.counter("pool", name).unwrap_or(0);
            let gangs_per_request = counter("gangs_flushed") as f64 / requests as f64;
            report.metric(
                format!("tiny_c{count}_{mode}_gangs_per_request"),
                gangs_per_request,
            );
            let staging = metrics.histogram("pool", "staging_wait_ns").map(|h| {
                let (p50, p99) = (
                    h.percentile(0.5) as f64 / 1e6,
                    h.percentile(0.99) as f64 / 1e6,
                );
                report.metric(format!("tiny_c{count}_{mode}_staging_p50_ms"), p50);
                report.metric(format!("tiny_c{count}_{mode}_staging_p99_ms"), p99);
                (p50, p99)
            });
            rows.push(vec![
                count.to_string(),
                mode.to_string(),
                format!("{gangs_per_request:.4}"),
                counter("batches_total").to_string(),
                staging.map_or("-".into(), |(p50, _)| format!("{p50:.3}")),
                staging.map_or("-".into(), |(_, p99)| format!("{p99:.3}")),
                format!("{secs:.3}"),
                format!("{checksum:016x}"),
            ]);
        }
    }
    print_table(
        &[
            "count",
            "mode",
            "gangs/req",
            "batches",
            "stage p50 ms",
            "stage p99 ms",
            "seconds",
            "checksum",
        ],
        &rows,
    );
    println!(
        "(per-request samples are bit-identical across modes at 1 thread: same stream layout)"
    );
}
