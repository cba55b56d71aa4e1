//! The metric catalogue, the human-readable table, and the one-line JSON
//! result.

use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each of them, measured
/// with tracing off. `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("ops_per_sec", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
];

/// Per-layer metrics: every workload reports each of them from the
/// traced run; a layer a workload never reaches reads 0. `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("prng.fill_ns_per_64", "ns"),
    ("core.refill_ns_per_64", "ns"),
    ("falcon.self_us_per_sign", "us"),
    ("falcon.refill_us_per_sign", "us"),
    ("falcon.sign_span_us", "us"),
    ("falcon.base_samples_per_sign", "count"),
    ("pool.latency_p50_us", "us"),
    ("pool.latency_p99_us", "us"),
    ("pool.staging_wait_p50_us", "us"),
    ("pool.staging_wait_p99_us", "us"),
    ("pool.dispatch_fill_ratio", "ratio"),
    ("pool.gangs_per_request", "count"),
    ("rpc.encode_ns_per_response", "ns"),
    ("rpc.decode_ns_per_response", "ns"),
    ("rpc.wire_us_p50", "us"),
    ("rpc.refused_overloaded", "count"),
    ("rpc.refused_quota", "count"),
    ("rpc.deadline_expired", "count"),
    ("client.retries", "count"),
    ("client.send_us_per_request", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.slo_rate_rps", "1/s"),
    ("proc.cpu_util", "ratio"),
    ("setup.synthesis_ms", "ms"),
    ("setup.synth_prob_tables_ms", "ms"),
    ("setup.synth_minimized_sop_ms", "ms"),
    ("setup.synth_lowering_ms", "ms"),
    ("setup.keygen_ms", "ms"),
    ("setup.warm_build_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Value in the catalogue unit.
    pub value: f64,
    /// How many samples stand behind the value.
    pub samples: u64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
    /// Correctness gates that failed.
    pub gate_failures: Vec<String>,
}

impl Report {
    /// A report for a run that has passed no gate yet.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records a correctness gate.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.notes.push(format!("gate ok: {what}"));
        } else {
            self.correct = false;
            self.gate_failures.push(what);
        }
    }

    /// Adds a note to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The recorded metric called `name`.
    pub fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable block: notes, failed gates, then every metric
    /// of `catalogue` by name, value, unit and sample count.
    pub fn table(&self, workload: &str, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {workload} ==");
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for failure in &self.gate_failures {
            let _ = writeln!(out, "  GATE FAILED: {failure}");
        }
        for (name, unit) in catalogue {
            match self.value(name) {
                Some(m) => {
                    let _ = writeln!(
                        out,
                        "  {name:<32} {:>16.4} {unit:<6} (n={})",
                        m.value, m.samples
                    );
                }
                None => {
                    let _ = writeln!(out, "  {name:<32} {:>16} {unit:<6}", "missing");
                }
            }
        }
        out
    }

    /// The final JSON line over `catalogue`. A metric missing from the
    /// report, or not finite, marks the run incorrect and reads 0.
    pub fn json(&mut self, catalogue: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.value(name) {
                Some(m) if m.value.is_finite() => m.value,
                _ => {
                    self.correct = false;
                    self.gate_failures.push(format!("metric {name} missing"));
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Formats a finite float as a JSON number with every digit Rust's
/// shortest round-trip representation carries.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_catalogue_metric() {
        let mut r = Report::new();
        r.attempted = 10;
        r.set("a", 1.25, 3);
        r.set("b", 2.0, 1);
        let line = r.json(&[("a", "ms"), ("b", "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
        let parsed = ctgauss_telemetry::json::Json::parse(&line).expect("valid JSON");
        assert!(parsed.get("metrics").and_then(|m| m.get("b")).is_some());
    }

    #[test]
    fn a_missing_or_non_finite_metric_fails_the_run() {
        let mut r = Report::new();
        r.attempted = 1;
        r.set("a", f64::NAN, 1);
        let line = r.json(&[("a", "ms"), ("b", "ms")]);
        assert!(!r.correct);
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(r.gate_failures.len(), 2);
    }

    /// BENCHMARK.json at the repository root lists exactly these metrics.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        use ctgauss_telemetry::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| match m.get(k) {
                            Some(Json::Str(s)) => s.clone(),
                            other => panic!("{key}: {k} is {other:?}"),
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                other => panic!("{key} is {other:?}"),
            }
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
