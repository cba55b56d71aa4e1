//! The aggregated, serializable view: named sections of labels,
//! counters, gauges and histograms.
//!
//! Producers (the pool, the kernel cache, the synthesis pipeline) each
//! fill a [`Section`]; consumers (the RPC `stats` endpoint, the bench
//! artifacts) serialize the whole [`MetricsSnapshot`] to JSON.
//! `BTreeMap` keys keep the serialization stable — two snapshots of the
//! same state are byte-identical, which the artifact diffing relies on.

use std::collections::BTreeMap;

use crate::hist::HistogramSnapshot;
use crate::json::Json;

/// One named group of related metrics (e.g. `"pool"`, `"kernel_cache"`,
/// `"synthesis"`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// Free-form identity tags (backend name, shard states, …).
    pub labels: BTreeMap<String, String>,
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time measurements (rates, ratios, depths).
    pub gauges: BTreeMap<String, f64>,
    /// Distribution summaries, serialized as count/mean/max + quantiles.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Section {
    /// Sets a label.
    pub fn label(&mut self, name: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.labels.insert(name.into(), value.into());
        self
    }

    /// Sets a counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        self.counters.insert(name.into(), value);
        self
    }

    /// Sets a gauge (non-finite values are stored as 0 so the JSON stays
    /// valid).
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.gauges
            .insert(name.into(), if value.is_finite() { value } else { 0.0 });
        self
    }

    /// Sets a histogram.
    pub fn histogram(&mut self, name: impl Into<String>, value: HistogramSnapshot) -> &mut Self {
        self.histograms.insert(name.into(), value);
        self
    }

    fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        for (k, v) in &self.labels {
            pairs.push((k.clone(), Json::str(v)));
        }
        for (k, v) in &self.counters {
            pairs.push((k.clone(), Json::Num(*v as f64)));
        }
        for (k, v) in &self.gauges {
            pairs.push((k.clone(), Json::Num(*v)));
        }
        for (k, h) in &self.histograms {
            pairs.push((
                k.clone(),
                Json::obj(vec![
                    ("count", Json::Num(h.count as f64)),
                    ("mean", Json::Num(h.mean())),
                    ("p50", Json::Num(h.percentile(0.50) as f64)),
                    ("p90", Json::Num(h.percentile(0.90) as f64)),
                    ("p99", Json::Num(h.percentile(0.99) as f64)),
                    ("max", Json::Num(h.max as f64)),
                ]),
            ));
        }
        Json::Obj(pairs)
    }
}

/// The whole observable state of a process at one instant, as named
/// [`Section`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Sections by name.
    pub sections: BTreeMap<String, Section>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// The section named `name`, created empty on first use.
    pub fn section(&mut self, name: impl Into<String>) -> &mut Section {
        self.sections.entry(name.into()).or_default()
    }

    /// Reads a counter, if present.
    pub fn counter(&self, section: &str, name: &str) -> Option<u64> {
        self.sections.get(section)?.counters.get(name).copied()
    }

    /// Reads a gauge, if present.
    pub fn gauge(&self, section: &str, name: &str) -> Option<f64> {
        self.sections.get(section)?.gauges.get(name).copied()
    }

    /// Reads a histogram, if present.
    pub fn histogram(&self, section: &str, name: &str) -> Option<&HistogramSnapshot> {
        self.sections.get(section)?.histograms.get(name)
    }

    /// Reads a label, if present.
    pub fn label(&self, section: &str, name: &str) -> Option<&str> {
        self.sections
            .get(section)?
            .labels
            .get(name)
            .map(String::as_str)
    }

    /// The JSON document: one object per section (histograms as
    /// count/mean/p50/p90/p99/max sub-objects).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.sections
                .iter()
                .map(|(name, section)| (name.clone(), section.to_json()))
                .collect(),
        )
    }

    /// Compact single-line JSON — the RPC `stats` payload format.
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn sections_serialize_stably() {
        let mut snap = MetricsSnapshot::new();
        let h = Histogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        snap.section("pool")
            .label("backend", "avx2")
            .counter("samples_total", 42)
            .gauge("fill_ratio", 0.75)
            .histogram("latency_ns", h.snapshot());
        snap.section("kernel_cache").counter("hits", 3);

        assert_eq!(snap.counter("pool", "samples_total"), Some(42));
        assert_eq!(snap.gauge("pool", "fill_ratio"), Some(0.75));
        assert_eq!(snap.label("pool", "backend"), Some("avx2"));
        assert_eq!(snap.histogram("pool", "latency_ns").unwrap().count, 3);
        assert_eq!(snap.counter("pool", "missing"), None);
        assert_eq!(snap.counter("nope", "samples_total"), None);

        let line = snap.to_json_line();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            parsed
                .get("pool")
                .and_then(|p| p.get("samples_total"))
                .and_then(Json::as_f64),
            Some(42.0)
        );
        assert_eq!(
            parsed
                .get("pool")
                .and_then(|p| p.get("latency_ns"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        // Serialization is deterministic: same state, same bytes.
        assert_eq!(line, snap.clone().to_json_line());

        // Non-finite gauges degrade to 0 instead of breaking the JSON.
        snap.section("pool").gauge("rate", f64::INFINITY);
        assert_eq!(snap.gauge("pool", "rate"), Some(0.0));
    }
}
