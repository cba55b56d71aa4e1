//! Lock-free runtime metrics for the ctgauss stack.
//!
//! The paper's headline claim is raw speed, so the one thing this crate
//! must never do is slow down — or perturb — the measured path. Three
//! design rules follow:
//!
//! * **Lock-free, allocation-free recording.** [`Counter`] is one relaxed
//!   `fetch_add`; [`Histogram::record`] is two (bucket + sum) plus a
//!   `fetch_max`. No mutex, no heap, no syscall on the record path —
//!   asserted by the counting-allocator test in `tests/no_alloc.rs`.
//! * **A global off switch.** [`set_enabled`]`(false)` turns every record
//!   call into a single relaxed load and a predicted branch, so runs that
//!   need the draw-order/replay contract provably undisturbed can switch
//!   telemetry off at runtime (recording never touches the PRNG streams
//!   either way — it only observes).
//! * **Mergeable snapshots.** Shards record into their own histograms;
//!   [`HistogramSnapshot::merge`] folds them without loss (bucket-wise
//!   addition, associative and commutative — proptest-pinned in
//!   `tests/hist_props.rs`), so pool-wide percentiles are exact over the
//!   union of the shard streams.
//!
//! Aggregation happens in [`MetricsSnapshot`]: a named tree of sections,
//! each holding labels, counters, gauges and histograms, serializable to
//! JSON ([`MetricsSnapshot::to_json`]) for the RPC `stats` endpoint
//! and the `BENCH_*.json` artifacts. The
//! [`MachineFingerprint`] identifies *where* a number was measured
//! (commit, rustc, CPU features, detected SIMD backend) — every
//! machine-readable artifact embeds one so trend lines never silently
//! mix hosts.
//!
//! This crate is deliberately dependency-free: it sits below every other
//! workspace crate so that core, pool and the bench harness can all
//! record through one implementation.
//!
//! # Examples
//!
//! ```
//! use ctgauss_telemetry::{Counter, Histogram};
//!
//! let served = Counter::new();
//! let latency = Histogram::new();
//! served.inc();
//! latency.record(1280);
//! let snap = latency.snapshot();
//! assert_eq!(snap.count, 1);
//! assert!(snap.percentile(0.50) <= 1280);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fingerprint;
mod hist;
pub mod json;
mod snapshot;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub use clock::utc_now_iso8601;
pub use fingerprint::MachineFingerprint;
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use snapshot::{MetricsSnapshot, Section};

/// Process-wide recording switch (default: on). Checked by every record
/// path with one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns metric recording on or off process-wide.
///
/// Off is the fast path: every [`Counter::add`] / [`Histogram::record`]
/// reduces to one relaxed load and a branch. Snapshots still work (they
/// read whatever was recorded while enabled). The pool's
/// `telemetry_off` test uses it to prove a metrics-enabled run replays
/// bit-exactly against a metrics-disabled one.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A lock-free monotonic event counter.
///
/// Recording is a single relaxed `fetch_add`; reading is a relaxed load
/// (a racy-but-monotonic snapshot, which is all observability needs).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` events. No-op while telemetry is [disabled](set_enabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Cumulative duration counter: nanoseconds recorded as a plain
/// [`Counter`], read back as seconds for gauges.
#[derive(Debug, Default)]
pub struct NanosCounter(Counter);

impl NanosCounter {
    /// A zeroed duration counter.
    pub const fn new() -> Self {
        NanosCounter(Counter::new())
    }

    /// Adds a duration.
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.0.add(duration_to_nanos(d));
    }

    /// Total recorded nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.0.get()
    }

    /// Total recorded time in (fractional) milliseconds.
    pub fn millis(&self) -> f64 {
        self.nanos() as f64 / 1e6
    }
}

/// Saturating `Duration` → whole nanoseconds (u64 holds ~584 years).
pub fn duration_to_nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global-switch behavior is tested in `tests/switch.rs` (its own
    // process): unit tests here share one process and must not flip the
    // switch under each other.
    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn nanos_counter_accumulates() {
        let t = NanosCounter::new();
        t.record(std::time::Duration::from_micros(1500));
        t.record(std::time::Duration::from_micros(500));
        assert_eq!(t.nanos(), 2_000_000);
        assert!((t.millis() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn duration_conversion_saturates() {
        assert_eq!(
            duration_to_nanos(std::time::Duration::from_secs(u64::MAX)),
            u64::MAX
        );
        assert_eq!(duration_to_nanos(std::time::Duration::from_nanos(7)), 7);
    }
}
