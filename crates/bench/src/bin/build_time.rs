//! Per-stage synthesis timing and cold-vs-warm cache startup — the
//! numbers behind the "precompiled kernels" section of EXPERIMENTS.md.
//!
//! For each standard profile this binary:
//!
//! 1. runs the staged pipeline directly (no cache) and prints the
//!    per-stage wall-time table (tables / minimization / compilation /
//!    kernel lowering / tiling) with each stage's content fingerprint;
//! 2. measures a cold start (empty cache directory: full synthesis +
//!    artifact write-back) against a warm start (same directory: load,
//!    validate, rebuild only the probability tables), asserting that the
//!    warm path's stage counters show minimization, compilation and both
//!    lowerings as *skipped* — the acceptance gate for the cache.
//!
//! `--quick` (alias `--smoke`, the CI configuration) restricts to the
//! sigma = 2, n = 24 profile.
//!
//! The run also writes `BENCH_build_time.json` (per-stage and
//! cold/warm-start wall milliseconds — `_ms` metrics, so the regression
//! gate warns rather than hard-fails on them) into `$CTGAUSS_BENCH_DIR`.

use std::time::Instant;

use ctgauss_bench::report::{smoke_requested, BenchReport};
use ctgauss_core::{CacheDisposition, KernelCache, SamplerSpec, SynthStage};

/// The three standard profiles of the kernel benches: the paper's small
/// config and the two full-precision Table 2 configs.
const PROFILES: &[(&str, u32)] = &[("2", 24), ("2", 128), ("6.15543", 128)];

/// Stages a warm start must *not* run.
const SYNTH_STAGES: [SynthStage; 4] = [
    SynthStage::MinimizedSop,
    SynthStage::Program,
    SynthStage::CompiledKernel,
    SynthStage::TiledKernel,
];

/// Metric-name tag of a profile: `sigma2_n24`, `sigma6_15543_n128`.
fn tag(sigma: &str, n: u32) -> String {
    format!("sigma{}_n{n}", sigma.replace('.', "_"))
}

fn main() {
    let quick = smoke_requested() || std::env::args().any(|a| a == "--quick");
    let profiles = if quick { &PROFILES[..1] } else { PROFILES };
    let mut report = BenchReport::new("build_time", quick);

    let cache_dir = std::env::temp_dir().join(format!("ctgauss-build-time-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = KernelCache::at(&cache_dir);
    let mut failures = 0usize;

    println!("# Staged synthesis: per-stage wall time");
    println!();
    println!("| profile | stage | time (ms) | fingerprint |");
    println!("|---|---|---:|---|");
    for &(sigma, n) in profiles {
        let spec = SamplerSpec::new(sigma, n);
        let (_, trace) = spec
            .build_shared_with(&KernelCache::disabled())
            .expect("paper parameters build");
        for r in &trace.stages {
            println!(
                "| sigma={sigma} n={n} | {} | {:.3} | `{:016x}` |",
                r.stage.name(),
                r.duration.as_secs_f64() * 1e3,
                r.fingerprint
            );
            report.metric(
                format!("{}_{}_ms", tag(sigma, n), r.stage.name().replace('-', "_")),
                r.duration.as_secs_f64() * 1e3,
            );
        }
    }

    println!();
    println!("# Cold vs. warm cache startup (build_shared wall time)");
    println!();
    println!("| profile | cold (ms) | warm (ms) | speedup | warm skips |");
    println!("|---|---:|---:|---:|---|");
    for &(sigma, n) in profiles {
        let spec = SamplerSpec::new(sigma, n);

        let t = Instant::now();
        let (cold_sampler, cold_trace) = spec
            .build_shared_with(&cache)
            .expect("paper parameters build");
        let cold = t.elapsed();
        if cold_trace.cache != (CacheDisposition::Miss { stored: true }) {
            eprintln!(
                "FAIL: sigma={sigma} n={n}: cold start was {:?}",
                cold_trace.cache
            );
            failures += 1;
        }

        let t = Instant::now();
        let (warm_sampler, warm_trace) = spec
            .build_shared_with(&cache)
            .expect("paper parameters build");
        let warm = t.elapsed();
        if warm_trace.cache != CacheDisposition::Hit {
            eprintln!(
                "FAIL: sigma={sigma} n={n}: warm start was {:?}",
                warm_trace.cache
            );
            failures += 1;
        }
        // The acceptance gate: a warm start must skip minimization and
        // every lowering stage (stage counters say so), and must hand
        // back the identical kernels.
        let skipped: Vec<&str> = SYNTH_STAGES
            .iter()
            .filter(|&&s| !warm_trace.ran(s))
            .map(|s| s.name())
            .collect();
        if skipped.len() != SYNTH_STAGES.len() {
            eprintln!("FAIL: sigma={sigma} n={n}: warm start ran a synthesis stage");
            failures += 1;
        }
        if warm_sampler.tiled_kernel() != cold_sampler.tiled_kernel() {
            eprintln!("FAIL: sigma={sigma} n={n}: warm kernel differs from cold kernel");
            failures += 1;
        }

        println!(
            "| sigma={sigma} n={n} | {:.1} | {:.1} | {:.0}x | {} |",
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
            skipped.join(", "),
        );
        report.metric(
            format!("{}_cold_ms", tag(sigma, n)),
            cold.as_secs_f64() * 1e3,
        );
        report.metric(
            format!("{}_warm_ms", tag(sigma, n)),
            warm.as_secs_f64() * 1e3,
        );
        report.metric(
            format!("{}_warm_speedup", tag(sigma, n)),
            cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
        );
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
    report.write().expect("write BENCH_build_time.json");
    if failures > 0 {
        eprintln!("[build_time] {failures} failure(s)");
        std::process::exit(1);
    }
    eprintln!("[build_time] OK");
}
