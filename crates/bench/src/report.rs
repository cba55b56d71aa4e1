//! Machine-readable bench artifacts: every report binary funnels its
//! measurements through [`BenchReport`], which writes a schema-stable
//! `BENCH_<name>.json` next to the human-readable table output.
//!
//! The artifact is the canonical record of a measurement (EXPERIMENTS.md
//! points at it); the CI `bench-regression` job diffs fresh smoke-mode
//! artifacts against the committed baselines in `benchmarks/` with the
//! tolerance rules of [`gate_for`].
//!
//! Schema (version [`SCHEMA_VERSION`]):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "pool_throughput",
//!   "mode": "smoke",
//!   "commit": "<git rev-parse HEAD>",
//!   "date_utc": "2026-08-08T12:34:56Z",
//!   "machine": { "os", "arch", "cpus", "cpu_features", "backend",
//!                "backends", "rustc", "commit" },
//!   "metrics": { "<metric name>": <number>, ... }
//! }
//! ```
//!
//! Metric names carry their own comparison semantics in the suffix:
//! `_per_sec` (higher is better), `_ns` / `_cycles` (lower is better)
//! are the per-sample metrics the regression gate hard-fails on; `_ms`
//! (lower is better, but machine-variable wall time) only warns; any
//! other suffix is informational.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ctgauss_bitslice::Backend;
use ctgauss_telemetry::json::Json;
use ctgauss_telemetry::{utc_now_iso8601, MachineFingerprint};

/// Version stamped into every artifact; bump on any schema change so the
/// comparator refuses to diff across incompatible layouts.
pub const SCHEMA_VERSION: u64 = 1;

/// Environment variable naming the directory artifacts are written to
/// (default: the current directory).
pub const BENCH_DIR_ENV: &str = "CTGAUSS_BENCH_DIR";

/// Detects the machine fingerprint with the SIMD backend tags filled in
/// from the runtime dispatcher — the one helper every report binary
/// shares, replacing the ad-hoc header prints.
pub fn fingerprint() -> MachineFingerprint {
    MachineFingerprint::detect(
        Backend::detect_widest().name(),
        Backend::available_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
    )
}

/// Whether `--smoke` was passed: the abbreviated configuration CI runs
/// (fewer profiles, shorter measurement budgets). Recorded in the
/// artifact so the comparator can flag cross-mode diffs.
pub fn smoke_requested() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Best-of-runs (minimum) wall-time measurement of `f`, in nanoseconds
/// per run.
///
/// The minimum — not the median — is what the regression gate consumes:
/// interference on a busy machine only ever *adds* time, and a competing
/// thread stealing timeslices for a few milliseconds slows the majority
/// of a short measurement window's iterations, shifting the median by
/// tens of percent (observed on a single-CPU container). Any one clean
/// iteration recovers the true cost. Unlike
/// [`measure_cycles`](crate::measure_cycles) this never reads the TSC,
/// so artifact metric names keep a stable `_ns` unit across
/// architectures.
pub fn measure_ns_floor<F: FnMut()>(runs: usize, mut f: F) -> u64 {
    assert!(runs > 0, "need at least one run");
    let mut best = u64::MAX;
    for _ in 0..runs {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// One bench artifact under construction: a named, mode-tagged metric
/// map plus the machine fingerprint detected at write time.
#[derive(Debug)]
pub struct BenchReport {
    name: String,
    smoke: bool,
    metrics: BTreeMap<String, f64>,
}

impl BenchReport {
    /// Starts a report for the binary `name` (the artifact file is
    /// `BENCH_<name>.json`). `smoke` tags the abbreviated CI mode.
    pub fn new(name: impl Into<String>, smoke: bool) -> Self {
        BenchReport {
            name: name.into(),
            smoke,
            metrics: BTreeMap::new(),
        }
    }

    /// Records one metric. Non-finite values are stored as 0 (JSON has
    /// no NaN/Inf and a broken artifact would mask the real failure).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.into(), value);
        self
    }

    /// The artifact document (fingerprint and timestamps detected now).
    pub fn to_json(&self) -> Json {
        let machine = fingerprint();
        Json::obj(vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("name", Json::str(&self.name)),
            ("mode", Json::str(if self.smoke { "smoke" } else { "full" })),
            ("commit", Json::str(&machine.commit)),
            ("date_utc", Json::str(utc_now_iso8601())),
            ("machine", machine.to_json()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes `BENCH_<name>.json` into `$CTGAUSS_BENCH_DIR` (or the
    /// current directory) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = std::env::var_os(BENCH_DIR_ENV).map_or_else(|| PathBuf::from("."), PathBuf::from);
        self.write_to(&dir)
    }

    /// Writes `BENCH_<name>.json` into `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json().to_string_pretty())?;
        eprintln!("[{}] wrote {}", self.name, path.display());
        Ok(path)
    }
}

/// A parsed and schema-checked `BENCH_<name>.json`, as the regression
/// comparator consumes it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedReport {
    /// The `name` field (must match the filename).
    pub name: String,
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// The recording commit.
    pub commit: String,
    /// The SIMD backend the artifact was measured on.
    pub backend: String,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Loads and validates one artifact file.
///
/// # Errors
///
/// A human-readable description of the first I/O, syntax, or schema
/// violation — the comparator treats any of them as a hard failure.
pub fn load_report(path: &Path) -> Result<LoadedReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let fail = |what: &str| format!("{}: {what}", path.display());
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or_else(|| fail("missing schema_version"))?;
    if version != SCHEMA_VERSION as f64 {
        return Err(fail(&format!(
            "schema_version {version} (this tool reads {SCHEMA_VERSION})"
        )));
    }
    let field = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| fail(&format!("missing string field {key:?}")))
    };
    let name = field("name")?;
    let mode = field("mode")?;
    let commit = field("commit")?;
    field("date_utc")?;
    let backend = doc
        .get("machine")
        .and_then(|m| m.get("backend"))
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| fail("missing machine.backend"))?;
    let mut metrics = BTreeMap::new();
    for (key, value) in doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| fail("missing metrics object"))?
    {
        let value = value
            .as_f64()
            .ok_or_else(|| fail(&format!("metric {key:?} is not a number")))?;
        metrics.insert(key.clone(), value);
    }
    if metrics.is_empty() {
        return Err(fail("empty metrics object"));
    }
    Ok(LoadedReport {
        name,
        mode,
        commit,
        backend,
        metrics,
    })
}

/// How the regression comparator treats a metric, derived from its name
/// suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Per-sample rate (`_per_sec`): higher is better; a drop beyond
    /// threshold hard-fails.
    HardHigherBetter,
    /// Per-sample cost (`_ns`, `_cycles`): lower is better; a rise
    /// beyond threshold hard-fails.
    HardLowerBetter,
    /// Wall time (`_ms`): lower is better, but machine-variable — a rise
    /// beyond threshold warns.
    WarnLowerBetter,
    /// No comparison semantics (ratios, counts): change is reported only.
    Informational,
}

/// The gate class of a metric name. The suffix is the contract: report
/// binaries choose what the gate guards by how they name a metric.
pub fn gate_for(name: &str) -> Gate {
    if name.ends_with("_per_sec") {
        Gate::HardHigherBetter
    } else if name.ends_with("_ns") || name.ends_with("_cycles") {
        Gate::HardLowerBetter
    } else if name.ends_with("_ms") {
        Gate::WarnLowerBetter
    } else {
        Gate::Informational
    }
}

/// Regression of `current` against `baseline` in percent: positive means
/// *worse* under the metric's gate direction, 0 for informational
/// metrics or a zero baseline.
pub fn regression_pct(name: &str, baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    match gate_for(name) {
        Gate::HardHigherBetter => (baseline - current) / baseline * 100.0,
        Gate::HardLowerBetter | Gate::WarnLowerBetter => (current - baseline) / baseline * 100.0,
        Gate::Informational => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips_through_the_loader() {
        let mut report = BenchReport::new("unit_test", true);
        report
            .metric("rate_per_sec", 1.5e8)
            .metric("kernel_ns", 420.0)
            .metric("nan_guard", f64::NAN);
        let dir = std::env::temp_dir().join(format!("ctgauss-report-{}", std::process::id()));
        let path = report.write_to(&dir).expect("writes");
        let loaded = load_report(&path).expect("valid schema");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(loaded.name, "unit_test");
        assert_eq!(loaded.mode, "smoke");
        assert_eq!(loaded.metrics["rate_per_sec"], 1.5e8);
        assert_eq!(loaded.metrics["nan_guard"], 0.0, "NaN clamps to 0");
        assert!(!loaded.backend.is_empty());
        assert!(!loaded.commit.is_empty());
    }

    #[test]
    fn loader_rejects_schema_violations() {
        let dir = std::env::temp_dir().join(format!("ctgauss-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (tag, text) in [
            ("syntax", "{"),
            ("version", r#"{"schema_version": 2}"#),
            (
                "metrics",
                r#"{"schema_version": 1, "name": "x", "mode": "smoke",
                    "commit": "c", "date_utc": "d",
                    "machine": {"backend": "scalar"}, "metrics": {}}"#,
            ),
        ] {
            let path = dir.join(format!("BENCH_{tag}.json"));
            std::fs::write(&path, text).unwrap();
            assert!(load_report(&path).is_err(), "{tag} must be rejected");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gates_follow_the_suffix_contract() {
        assert_eq!(gate_for("samples_per_sec_t4"), Gate::Informational);
        assert_eq!(gate_for("t4_samples_per_sec"), Gate::HardHigherBetter);
        assert_eq!(gate_for("tiled_sigma2_n24_ns"), Gate::HardLowerBetter);
        assert_eq!(gate_for("simple_sigma2_cycles"), Gate::HardLowerBetter);
        assert_eq!(gate_for("cold_build_ms"), Gate::WarnLowerBetter);
        assert_eq!(gate_for("batch_fill_ratio"), Gate::Informational);
        // kernel_compare's static counts are reported, never gated.
        assert_eq!(gate_for("sigma2_n24_interpreter_ops"), Gate::Informational);
        assert_eq!(gate_for("sigma2_n24_micro_ops"), Gate::Informational);
        assert_eq!(gate_for("sigma2_n24_tiled_dispatches"), Gate::Informational);
    }

    #[test]
    fn regression_sign_tracks_worseness() {
        // Throughput dropping 20% is a +20% regression...
        assert!((regression_pct("x_per_sec", 100.0, 80.0) - 20.0).abs() < 1e-9);
        // ...and cost rising 20% likewise.
        assert!((regression_pct("x_ns", 100.0, 120.0) - 20.0).abs() < 1e-9);
        // Improvements are negative.
        assert!(regression_pct("x_per_sec", 100.0, 130.0) < 0.0);
        assert_eq!(regression_pct("some_ratio", 1.0, 9.0), 0.0);
        assert_eq!(regression_pct("x_ns", 0.0, 9.0), 0.0);
    }
}
