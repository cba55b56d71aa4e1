//! The staged synthesis pipeline's bookkeeping: stage names, stable
//! content fingerprints, and per-build traces.
//!
//! [`SamplerSpec::build`](crate::SamplerSpec::build) and the shared
//! builds run the Figure-4 chain as six named passes:
//!
//! ```text
//! Spec → ProbTables → MinimizedSop → Program → CompiledKernel → TiledKernel
//! ```
//!
//! Each pass appends a [`StageRecord`] to the [`BuildTrace`]: how long it
//! ran, whether it ran at all (a warm [`KernelCache`](crate::KernelCache)
//! hit skips everything after `ProbTables`), and a **content
//! fingerprint** — a chained FNV-1a hash of the stage's output seeded
//! from the previous stage's fingerprint, which itself bottoms out in the
//! [`SamplerSpec`](crate::SamplerSpec)'s value identity plus
//! [`SYNTH_FORMAT_VERSION`]. Fingerprints are deterministic across runs,
//! threads and platforms (the minimizers emit canonically sorted covers;
//! hashing never goes through `RandomState`), which is what lets the
//! kernel cache address artifacts by the `Spec` fingerprint alone.
//!
//! Every pass after `ProbTables` also re-checks itself against an oracle
//! on a fixed probe batch before the pipeline continues (bit-equivalence;
//! see [`BuildError::StageInvariant`](crate::BuildError)). The one
//! exception is `CompiledKernel`, a lowering IR that never executes and
//! is dropped once tiled: the `TiledKernel` stage covers it by checking
//! that the tiles re-encode its exact instruction list and run bit-equal
//! to the `Program` interpreter.

use core::fmt;
use std::time::Duration;

/// Version of the synthesis pipeline's *output semantics*, mixed into
/// every fingerprint.
///
/// Bump this (together with the serialization-level
/// [`ARTIFACT_VERSION`](ctgauss_bitslice::artifact::ARTIFACT_VERSION) if
/// the wire layout changed) whenever any stage starts producing different
/// output for the same spec — a changed minimizer tie-break, a new fusion
/// rule, a different tile inventory. Old cache entries then stop matching
/// and are re-synthesized instead of silently serving a stale kernel.
pub const SYNTH_FORMAT_VERSION: u32 = 1;

/// One named pass of the synthesis pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthStage {
    /// Parameter validation: the spec's value identity is the seed of
    /// every later fingerprint.
    Spec,
    /// Probability matrix + DDG leaf enumeration (`L`).
    ProbTables,
    /// Sublist split and Boolean minimization — the expensive offline
    /// pass the cache exists to skip.
    MinimizedSop,
    /// Equation-2 recombination and hash-consed compilation into the
    /// straight-line SSA program.
    Program,
    /// Optimizing lowering to the compiled kernel IR (DCE, fusion, GVN,
    /// scheduling, slot allocation).
    CompiledKernel,
    /// Superinstruction tiling of the compiled stream.
    TiledKernel,
}

impl SynthStage {
    /// Every stage, in execution order.
    pub const ALL: [SynthStage; 6] = [
        SynthStage::Spec,
        SynthStage::ProbTables,
        SynthStage::MinimizedSop,
        SynthStage::Program,
        SynthStage::CompiledKernel,
        SynthStage::TiledKernel,
    ];

    /// The stage's stable name (used in traces, logs and reports).
    pub fn name(self) -> &'static str {
        match self {
            SynthStage::Spec => "spec",
            SynthStage::ProbTables => "prob-tables",
            SynthStage::MinimizedSop => "minimized-sop",
            SynthStage::Program => "program",
            SynthStage::CompiledKernel => "compiled-kernel",
            SynthStage::TiledKernel => "tiled-kernel",
        }
    }
}

impl fmt::Display for SynthStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A chained FNV-1a 64-bit content hash.
///
/// Deliberately *not* `std::hash`: `DefaultHasher` is seeded per process,
/// while these fingerprints must be stable across runs, platforms and
/// compiler versions — they name cache files on disk. All multi-byte
/// values are mixed little-endian; strings are length-prefixed so
/// adjacent fields cannot alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        for &b in v {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }

    /// Mixes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes a `usize` as a `u64` (stable across word sizes).
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Mixes a bool as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Mixes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.usize(v.len());
        self.bytes(v.as_bytes())
    }

    /// The accumulated hash.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// What happened at the cache layer for one build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// The cache was not consulted: an owned
    /// [`SamplerSpec::build`](crate::SamplerSpec::build), or a shared
    /// build against [`KernelCache::disabled`](crate::KernelCache::disabled).
    Bypassed,
    /// No usable artifact was found; the full pipeline ran.
    Miss {
        /// Whether the freshly built artifact was written back.
        stored: bool,
    },
    /// A validated artifact was loaded; minimization, compilation and
    /// both lowerings were skipped.
    Hit,
}

/// One stage's entry in a [`BuildTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRecord {
    /// Which pass this records.
    pub stage: SynthStage,
    /// The stage's chained content fingerprint.
    pub fingerprint: u64,
    /// Wall-clock time spent in the pass (zero when it was skipped).
    pub duration: Duration,
    /// Whether the pass actually executed (`false` = served from cache).
    pub ran: bool,
}

/// The per-build record the staged pipeline produces alongside the
/// sampler: stage timings, fingerprints, skip flags, and the cache
/// disposition. This is what `build_time` prints and what the cache
/// tests assert on.
#[derive(Debug, Clone)]
pub struct BuildTrace {
    /// Stage records in execution order (always all six stages).
    pub stages: Vec<StageRecord>,
    /// What the cache layer did.
    pub cache: CacheDisposition,
}

impl BuildTrace {
    pub(crate) fn new(cache: CacheDisposition) -> Self {
        BuildTrace {
            stages: Vec::with_capacity(SynthStage::ALL.len()),
            cache,
        }
    }

    pub(crate) fn push(
        &mut self,
        stage: SynthStage,
        fingerprint: u64,
        duration: Duration,
        ran: bool,
    ) {
        self.stages.push(StageRecord {
            stage,
            fingerprint,
            duration,
            ran,
        });
    }

    /// The record for one stage, if present.
    pub fn stage(&self, stage: SynthStage) -> Option<&StageRecord> {
        self.stages.iter().find(|r| r.stage == stage)
    }

    /// Whether a stage actually executed in this build.
    pub fn ran(&self, stage: SynthStage) -> bool {
        self.stage(stage).is_some_and(|r| r.ran)
    }

    /// The final (`TiledKernel`) stage fingerprint — the identity of the
    /// complete artifact.
    pub fn fingerprint(&self) -> u64 {
        self.stages
            .last()
            .map(|r| r.fingerprint)
            .unwrap_or_default()
    }

    /// Total wall-clock time across all executed stages.
    pub fn total_duration(&self) -> Duration {
        self.stages.iter().map(|r| r.duration).sum()
    }
}

impl fmt::Display for BuildTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "build trace ({:?}):", self.cache)?;
        for r in &self.stages {
            writeln!(
                f,
                "  {:<16} {:>9.3} ms  {:016x}  {}",
                r.stage.name(),
                r.duration.as_secs_f64() * 1e3,
                r.fingerprint,
                if r.ran { "ran" } else { "cached" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SamplerSpec, Strategy};

    #[test]
    fn stage_names_are_distinct_and_ordered() {
        let names: Vec<&str> = SynthStage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), SynthStage::ALL.len());
        assert_eq!(SynthStage::ALL[0], SynthStage::Spec);
        assert_eq!(SynthStage::ALL[5], SynthStage::TiledKernel);
    }

    #[test]
    fn fingerprint_is_order_and_length_sensitive() {
        let mut a = Fingerprint::new();
        a.str("ab").str("c");
        let mut b = Fingerprint::new();
        b.str("a").str("bc");
        assert_ne!(
            a.value(),
            b.value(),
            "length prefixes must prevent aliasing"
        );
        let mut c = Fingerprint::new();
        c.u32(1).u32(2);
        let mut d = Fingerprint::new();
        d.u32(2).u32(1);
        assert_ne!(c.value(), d.value());
    }

    #[test]
    fn spec_fingerprint_tracks_every_field() {
        let spec = |sigma: &str, n: u32, tau: u32, strategy: Strategy| {
            SamplerSpec::new(sigma, n)
                .tail_cut(tau)
                .strategy(strategy)
                .fingerprint()
        };
        let base = spec("2", 24, 13, Strategy::SplitExact);
        assert_eq!(base, SamplerSpec::new("2", 24).fingerprint(), "defaults");
        assert_ne!(base, spec("2.0", 24, 13, Strategy::SplitExact));
        assert_ne!(base, spec("2", 25, 13, Strategy::SplitExact));
        assert_ne!(base, spec("2", 24, 12, Strategy::SplitExact));
        assert_ne!(base, spec("2", 24, 13, Strategy::Simple));
    }

    #[test]
    fn trace_accessors() {
        let mut t = BuildTrace::new(CacheDisposition::Bypassed);
        t.push(SynthStage::Spec, 1, Duration::from_millis(1), true);
        t.push(SynthStage::ProbTables, 2, Duration::from_millis(2), true);
        t.push(SynthStage::MinimizedSop, 3, Duration::ZERO, false);
        assert!(t.ran(SynthStage::Spec));
        assert!(!t.ran(SynthStage::MinimizedSop));
        assert!(!t.ran(SynthStage::TiledKernel));
        assert_eq!(t.fingerprint(), 3);
        assert_eq!(t.total_duration(), Duration::from_millis(3));
        assert!(t.to_string().contains("minimized-sop"));
    }
}
