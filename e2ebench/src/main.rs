//! `e2ebench` — the end-to-end benchmark of the ctgauss stack.
//!
//! ```text
//! e2ebench --workload <falcon512_sign|rpc_bulk|rpc_tiny_open|all>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload per process. `--workload all` re-runs this binary once
//! per workload, each in a fresh process, and fails if any of them does.
//! `--trace 0` (the default) measures the end-to-end metrics with tracing
//! off; `--trace 1` runs the workload untraced and then traced, checks
//! that both produced the same outputs, and reports the per-layer
//! metrics and the tracing overhead. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Any failed correctness gate exits with status 1.

mod falcon_wl;
mod report;
mod rpc_wl;
mod schedule;
mod spans;
mod stats;
mod sys;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::{Report, END_TO_END, PER_LAYER};

/// The workloads, in `--workload all` order.
const WORKLOADS: [&str; 3] = ["falcon512_sign", "rpc_bulk", "rpc_tiny_open"];

/// A run that has not finished by then is killed (exit 3) so the
/// process always ends within the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measured time of one pass.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// The measured duration of one pass.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// This run's scratch directory inside the benchmark's own directory,
/// holding its kernel cache. Removed on drop; the span dump is written
/// beside it and kept.
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    fn create(args: &Args) -> std::io::Result<RunDir> {
        let root = out_dir().join(format!(
            "run-{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&root)?;
        // Every kernel build of this process goes through this cache.
        // Set once, before the process starts any other thread.
        std::env::set_var("CTGAUSS_CACHE_DIR", root.join("kernel-cache"));
        Ok(RunDir { root })
    }

    /// Empties the kernel cache, so the next build synthesizes.
    pub fn fresh_cache(&self) {
        let cache = self.root.join("kernel-cache");
        let _ = std::fs::remove_dir_all(&cache);
        std::fs::create_dir_all(&cache).expect("create the kernel cache directory");
    }

    /// Writes the span dump beside the run directory (which goes when
    /// the run ends): one `(thread name, spans)` pair per recorder.
    pub fn write_spans(&self, threads: &[(&str, &[spans::Span])]) -> Result<(), String> {
        let file = std::fs::File::create(self.root.with_extension("spans.tsv"))
            .map_err(|e| e.to_string())?;
        let mut out = std::io::BufWriter::new(file);
        for (thread, spans) in threads {
            spans::write_tsv(&mut out, thread, spans).map_err(|e| e.to_string())?;
        }
        std::io::Write::flush(&mut out).map_err(|e| e.to_string())
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Where runs leave their span dumps: `out/` in the benchmark directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result of timing set-up several times.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Every repetition, seconds.
    pub total_s: Vec<f64>,
    /// Cold synthesis per repetition, ms.
    pub synthesis_ms: Vec<f64>,
    /// Per stage group per repetition, ms: probability tables,
    /// minimization, lowering (program + compiled + tiled).
    pub prob_tables_ms: Vec<f64>,
    /// See `prob_tables_ms`.
    pub minimized_sop_ms: Vec<f64>,
    /// See `prob_tables_ms`.
    pub lowering_ms: Vec<f64>,
    /// Warm (cache-hit) rebuild per repetition, ms.
    pub warm_build_ms: Vec<f64>,
    /// Falcon key generation per repetition, ms (empty when none).
    pub keygen_ms: Vec<f64>,
}

impl SetupTimes {
    /// Adds one build trace's stage timings to the current repetition.
    pub fn add_trace(&mut self, trace: &ctgauss_core::BuildTrace, rep: usize) {
        use ctgauss_core::SynthStage as S;
        let ms = |stage: S| {
            trace
                .stage(stage)
                .map_or(0.0, |r| r.duration.as_secs_f64() * 1e3)
        };
        let bump = |v: &mut Vec<f64>, x: f64| {
            if v.len() <= rep {
                v.resize(rep + 1, 0.0);
            }
            v[rep] += x;
        };
        bump(
            &mut self.synthesis_ms,
            trace.total_duration().as_secs_f64() * 1e3,
        );
        bump(&mut self.prob_tables_ms, ms(S::ProbTables));
        bump(&mut self.minimized_sop_ms, ms(S::MinimizedSop));
        bump(
            &mut self.lowering_ms,
            ms(S::Program) + ms(S::CompiledKernel) + ms(S::TiledKernel),
        );
    }

    /// Writes the set-up metrics: `setup_s` always, the `setup.*` layer
    /// metrics for the traced run.
    pub fn report(&self, report: &mut Report) {
        let n = self.total_s.len() as u64;
        report.set("setup_s", stats::median(&self.total_s), n);
        let med = |v: &Vec<f64>| stats::median(v);
        report.set("setup.synthesis_ms", med(&self.synthesis_ms), n);
        report.set("setup.synth_prob_tables_ms", med(&self.prob_tables_ms), n);
        report.set(
            "setup.synth_minimized_sop_ms",
            med(&self.minimized_sop_ms),
            n,
        );
        report.set("setup.synth_lowering_ms", med(&self.lowering_ms), n);
        report.set("setup.warm_build_ms", med(&self.warm_build_ms), n);
        report.set(
            "setup.keygen_ms",
            med(&self.keygen_ms),
            self.keygen_ms.len() as u64,
        );
        report.note(format!(
            "setup: {n} cold starts, median {:.4} s (each from an empty kernel cache)",
            stats::median(&self.total_s)
        ));
    }
}

/// Repeats a cold set-up at least `min_reps` times and until `min_total`
/// has passed (at most `max_reps`). `rep` gets the repetition index and
/// returns how long that set-up took to reach ready, excluding any
/// teardown it does afterwards.
pub fn repeat_setup(
    min_reps: usize,
    max_reps: usize,
    min_total: Duration,
    mut rep: impl FnMut(usize, &mut SetupTimes) -> Result<Duration, String>,
) -> Result<SetupTimes, String> {
    let mut times = SetupTimes::default();
    let started = Instant::now();
    let mut i = 0;
    while i < min_reps || (i < max_reps && started.elapsed() < min_total) {
        let took = rep(i, &mut times)?;
        times.total_s.push(took.as_secs_f64());
        i += 1;
    }
    Ok(times)
}

/// CPU time over wall time over the CPU count, between two
/// `(sys::cpu_time(), Instant::now())` samples.
pub fn cpu_util(before: (Duration, Instant), after: (Duration, Instant)) -> f64 {
    let wall = after.1.duration_since(before.1).as_secs_f64();
    let cpu = after.0.saturating_sub(before.0).as_secs_f64();
    if wall > 0.0 {
        cpu / wall / sys::nproc() as f64
    } else {
        0.0
    }
}

/// Fills every per-layer metric the workload did not reach with 0.
pub fn zero_unreached(report: &mut Report) {
    for (name, _) in PER_LAYER {
        if !report.metrics.iter().any(|m| m.name == name) {
            report.set(name, 0.0, 0);
        }
    }
}

/// Derives independent sub-seeds from the run seed.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run_one(args: &Args) -> ExitCode {
    let dir = match RunDir::create(args) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("e2ebench: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("e2ebench: watchdog: run exceeded {} s", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    let result = match args.workload.as_str() {
        "falcon512_sign" => falcon_wl::run(args, &dir),
        "rpc_bulk" => rpc_wl::bulk(args, &dir),
        "rpc_tiny_open" => rpc_wl::tiny_open(args, &dir),
        _ => unreachable!("validated by parse_args"),
    };
    drop(dir);
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = report.json(catalogue);
    print!("{}", report.table(&args.workload, catalogue));
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "e2ebench: {} failed its correctness gates: {:?}",
            args.workload, report.gate_failures
        );
        ExitCode::FAILURE
    }
}

/// `--workload all`: one fresh child process per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2ebench: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => failed.push(format!("{workload} ({s})")),
            Err(e) => failed.push(format!("{workload} (spawn: {e})")),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2ebench: failed workloads: {failed:?}");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    run_one(&args)
}
