//! The content-addressed kernel cache: cold-starting from precompiled
//! artifacts instead of re-running Boolean minimization.
//!
//! Synthesis runs once, offline; execution is the hot path. This module
//! closes the gap for *process* lifetimes: the first
//! [`SamplerSpec::build_shared`](crate::SamplerSpec::build_shared) for a
//! profile runs the full staged pipeline and serializes its products (a
//! [`KernelArtifact`]) into a cache directory; every later process with
//! the same spec loads the artifact, rebuilds only the cheap probability
//! tables, and skips minimization, compilation and both kernel lowerings
//! entirely — the [`BuildTrace`] records exactly which stages were
//! skipped.
//!
//! # Addressing and trust
//!
//! Files are named by the spec's content fingerprint (the `Spec` stage
//! fingerprint: sigma, precision, tail cut, strategy, chained onto
//! [`SYNTH_FORMAT_VERSION`](crate::SYNTH_FORMAT_VERSION)), so distinct
//! profiles never collide and any synthesis-semantics version bump
//! orphans old entries instead of serving them. A loaded artifact must
//! additionally survive the full structural validation of
//! [`KernelArtifact::from_bytes`] (checksum, SSA well-formedness, operand
//! bounds, tile-decode faithfulness) *and* the same probe-batch
//! bit-equivalence checks the fresh pipeline applies — against the
//! Algorithm-1 oracle of the probability tables this process just
//! rebuilt. A corrupted, truncated, stale or foreign file therefore
//! degrades to a cache miss and an in-process synthesis, never to wrong
//! samples.
//!
//! # Location
//!
//! `$CTGAUSS_CACHE_DIR` when set (the empty string, `0` or `off`
//! disables caching); otherwise a `ctgauss-cache/` directory inside the
//! running binary's `target` directory when one is found on its path
//! (the workspace-local default). With neither, caching is disabled:
//! there is no shared fallback such as the system temp directory, where
//! every process on the machine would read and write one world-writable
//! kernel store. Writes go through a unique temp file plus an atomic
//! rename, so concurrent processes race benignly.

use std::env;
use std::ffi::OsStr;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ctgauss_bitslice::artifact::{self, ByteReader, ByteWriter, KernelArtifact};
use ctgauss_knuthyao::ProbabilityMatrix;

use crate::builder::{probe_program, probe_tiled, BuildReport, Strategy, SublistInfo};
use crate::sampler::CtSampler;
use crate::spec::SamplerSpec;
use crate::stages::{BuildTrace, CacheDisposition, SynthStage};

/// File extension of cache entries.
const ENTRY_EXT: &str = "ctk";

thread_local! {
    /// Armed cache-load failures still pending on this thread (see
    /// [`inject_load_failures`]).
    static LOAD_FAULTS_ARMED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// How many injected cache-load failures have fired on this thread.
    static LOAD_FAULTS_HIT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Arms `n` injected cache-load failures: the next `n` calls to
/// [`KernelCache::load_bytes`] **on the calling thread** that would
/// otherwise read an entry return `None` instead, exactly as a
/// disk-level read failure would. Callers fall back to in-process
/// synthesis — the degradation path this hook exists to make reachable
/// in tests and chaos runs (the pool's `FaultPlan` arms it via its
/// `cacheload:<n>` clause).
///
/// Thread-local and additive — arm on the thread that will build the
/// profiles (kernel builds run on the calling thread). Fired failures
/// are counted by [`injected_load_failure_hits`].
pub fn inject_load_failures(n: u64) {
    LOAD_FAULTS_ARMED.with(|c| c.set(c.get().saturating_add(n)));
}

/// How many injected cache-load failures (armed via
/// [`inject_load_failures`]) have fired so far on the calling thread.
pub fn injected_load_failure_hits() -> u64 {
    LOAD_FAULTS_HIT.with(std::cell::Cell::get)
}

/// Consumes one armed load failure on this thread, if any is pending.
fn take_injected_load_failure() -> bool {
    LOAD_FAULTS_ARMED.with(|c| {
        if let Some(rest) = c.get().checked_sub(1) {
            c.set(rest);
            LOAD_FAULTS_HIT.with(|h| h.set(h.get() + 1));
            true
        } else {
            false
        }
    })
}

/// A content-addressed, filesystem-backed store of serialized kernels.
///
/// Cheap to construct (no I/O until a load or store) and safe to share:
/// all methods take `&self`.
///
/// # Examples
///
/// ```no_run
/// use ctgauss_core::{KernelCache, SamplerSpec};
///
/// let cache = KernelCache::at("/var/cache/ctgauss");
/// let spec = SamplerSpec::new("2", 24);
/// // Cold: synthesizes and stores. Warm (any later process): loads.
/// let (sampler, trace) = spec.build_shared_with(&cache).unwrap();
/// assert!(trace.ran(ctgauss_core::SynthStage::ProbTables));
/// # let _ = sampler;
/// ```
#[derive(Debug, Clone)]
pub struct KernelCache {
    /// `None` = caching disabled; every load misses, every store no-ops.
    dir: Option<PathBuf>,
}

impl KernelCache {
    /// The cache at an explicit directory (created lazily on first
    /// store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        KernelCache {
            dir: Some(dir.into()),
        }
    }

    /// A disabled cache: loads always miss, stores are dropped.
    pub fn disabled() -> Self {
        KernelCache { dir: None }
    }

    /// The cache configured by the environment: `$CTGAUSS_CACHE_DIR`
    /// (empty / `0` / `off` disables), else the target-local default,
    /// else disabled (see the module docs).
    pub fn from_env() -> Self {
        match env::var_os("CTGAUSS_CACHE_DIR") {
            Some(v) if v.is_empty() || v == OsStr::new("0") || v == OsStr::new("off") => {
                KernelCache::disabled()
            }
            Some(v) => KernelCache::at(PathBuf::from(v)),
            None => KernelCache {
                dir: env::current_exe()
                    .ok()
                    .and_then(|exe| target_cache_dir(&exe)),
            },
        }
    }

    /// Whether stores and loads can do anything at all.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The backing directory, if enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The file a fingerprint maps to, if the cache is enabled.
    pub fn entry_path(&self, fingerprint: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{fingerprint:016x}.{ENTRY_EXT}")))
    }

    /// Reads the raw bytes stored under a fingerprint. `None` on a
    /// disabled cache, a missing entry, any I/O error, or an injected
    /// load failure ([`inject_load_failures`]) — the caller falls back to
    /// synthesis either way.
    pub fn load_bytes(&self, fingerprint: u64) -> Option<Vec<u8>> {
        let path = self.entry_path(fingerprint)?;
        if take_injected_load_failure() {
            return None;
        }
        fs::read(path).ok()
    }

    /// Stores bytes under a fingerprint: unique temp file in the cache
    /// directory, then an atomic rename onto the final name, so readers
    /// never observe a half-written entry and concurrent writers last-one
    /// -wins with identical content.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (callers treat a failed store as
    /// "cache stayed cold", not as a build failure).
    pub fn store_bytes(&self, fingerprint: u64, bytes: &[u8]) -> io::Result<()> {
        let Some(path) = self.entry_path(fingerprint) else {
            return Ok(());
        };
        let dir = path.parent().expect("entry path has a parent");
        fs::create_dir_all(dir)?;
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            ".{fingerprint:016x}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp, bytes)?;
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// The workspace-local default for a binary at `exe`: a
/// `ctgauss-cache/` inside the nearest `target` ancestor, or `None` when
/// the binary is not in a cargo target tree.
fn target_cache_dir(exe: &Path) -> Option<PathBuf> {
    exe.ancestors()
        .find(|ancestor| ancestor.file_name() == Some(OsStr::new("target")))
        .map(|target| target.join("ctgauss-cache"))
}

/// Serializes the core-owned artifact meta section: the six stage
/// fingerprints plus the build report, so a warm start reproduces the
/// fresh build's trace and `CtSampler::report` exactly.
pub(crate) fn encode_meta(trace: &BuildTrace, report: &BuildReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for stage in SynthStage::ALL {
        let fp = trace.stage(stage).map_or(0, |r| r.fingerprint);
        w.u64(fp);
    }
    w.u8(report.strategy.code());
    w.u64(report.leaves as u64);
    w.u32(report.delta);
    w.u32(report.max_run);
    w.u32(report.sublists.len() as u32);
    for s in &report.sublists {
        w.u32(s.kappa);
        w.u64(s.leaves as u64);
        w.u32(s.window);
        w.u32(s.literals);
        w.u8(u8::from(s.exact));
    }
    w.u64(report.gates as u64);
    w.u64(report.ops as u64);
    w.into_bytes()
}

/// Inverse of [`encode_meta`]. `None` on any malformation.
pub(crate) fn decode_meta(meta: &[u8]) -> Option<([u64; 6], BuildReport)> {
    let mut r = ByteReader::new(meta);
    let mut fps = [0u64; 6];
    for fp in &mut fps {
        *fp = r.u64().ok()?;
    }
    let strategy = Strategy::from_code(r.u8().ok()?)?;
    let leaves = usize::try_from(r.u64().ok()?).ok()?;
    let delta = r.u32().ok()?;
    let max_run = r.u32().ok()?;
    let n_sublists = r.u32().ok()? as usize;
    let mut sublists = Vec::with_capacity(n_sublists.min(meta.len()));
    for _ in 0..n_sublists {
        sublists.push(SublistInfo {
            kappa: r.u32().ok()?,
            leaves: usize::try_from(r.u64().ok()?).ok()?,
            window: r.u32().ok()?,
            literals: r.u32().ok()?,
            exact: r.u8().ok()? == 1,
        });
    }
    let gates = usize::try_from(r.u64().ok()?).ok()?;
    let ops = usize::try_from(r.u64().ok()?).ok()?;
    r.finish().ok()?;
    Some((
        fps,
        BuildReport {
            strategy,
            leaves,
            delta,
            max_run,
            sublists,
            gates,
            ops,
        },
    ))
}

/// Attempts a warm start: load, validate and re-probe the artifact stored
/// under `spec`'s fingerprint, rebuilding only the probability tables
/// in-process. `None` on any miss or doubt — the caller falls back to
/// full synthesis.
pub(crate) fn load_sampler(
    cache: &KernelCache,
    spec: &SamplerSpec,
) -> Option<(CtSampler, BuildTrace)> {
    let bytes = cache.load_bytes(spec.fingerprint())?;
    // Bytes came off disk: from here on, any rejection is a
    // *revalidation* failure (corruption, staleness, a foreign entry) —
    // counted separately from plain misses.
    let loaded = validate_and_probe(&bytes, spec);
    if loaded.is_none() {
        crate::metrics::CACHE_REVALIDATION_FAILURES.inc();
    }
    loaded
}

/// The trusting-nothing half of [`load_sampler`]: structural validation,
/// probe-batch re-checks, and trace reconstruction.
fn validate_and_probe(bytes: &[u8], spec: &SamplerSpec) -> Option<(CtSampler, BuildTrace)> {
    let spec_fp = spec.fingerprint();
    let artifact = KernelArtifact::from_bytes(bytes).ok()?;
    if artifact.fingerprint() != spec_fp {
        return None;
    }
    let (stage_fps, report) = decode_meta(artifact.meta())?;
    if stage_fps[0] != spec_fp || report.strategy != spec.strategy {
        return None;
    }

    // Re-run the cheap ProbTables stage: the artifact replaces the
    // synthesis stages, not the distribution tables the sampler carries.
    let tables_start = Instant::now();
    let matrix = ProbabilityMatrix::build(&spec.params().ok()?).ok()?;
    let tables_time = tables_start.elapsed();
    crate::metrics::record_stage(SynthStage::ProbTables, tables_time);

    let (_, program, tiled, _) = artifact.into_parts();

    // Shape gates against *this* spec's tables, then the same probe-batch
    // equivalence checks the fresh pipeline runs — anchored at the
    // Algorithm-1 oracle, so a stale artifact that no longer matches the
    // distribution cannot execute.
    if program.num_inputs() != matrix.precision()
        || program.outputs().len() != matrix.sample_bits() as usize
        || tiled.num_outputs() > crate::sampler::MAX_SAMPLE_BITS
    {
        return None;
    }
    probe_program(&program, &matrix).ok()?;
    probe_tiled(&tiled, &program).ok()?;

    // Spec and ProbTables ran here; every later stage came off disk.
    let mut trace = BuildTrace::new(CacheDisposition::Hit);
    for (stage, fp) in SynthStage::ALL.into_iter().zip(stage_fps) {
        let ran = matches!(stage, SynthStage::Spec | SynthStage::ProbTables);
        let duration = if stage == SynthStage::ProbTables {
            tables_time
        } else {
            Default::default()
        };
        trace.push(stage, fp, duration, ran);
    }

    let sampler = CtSampler::from_parts(program, tiled, matrix, report);
    Some((sampler, trace))
}

/// Serializes a freshly built sampler and writes it under `spec`'s
/// fingerprint. Returns whether the entry landed on disk.
pub(crate) fn store_sampler(
    cache: &KernelCache,
    spec: &SamplerSpec,
    sampler: &CtSampler,
    trace: &BuildTrace,
) -> bool {
    if !cache.is_enabled() {
        return false;
    }
    let spec_fp = spec.fingerprint();
    let meta = encode_meta(trace, sampler.report());
    // The borrowing encoder: the sampler keeps its kernel, nothing is
    // cloned for the write-back.
    let bytes = artifact::encode(spec_fp, sampler.program(), sampler.tiled_kernel(), &meta);
    cache.store_bytes(spec_fp, &bytes).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplerSpec;
    use ctgauss_bitslice::artifact::ArtifactError;
    use ctgauss_prng::ChaChaRng;

    /// A fresh, unique cache directory for one test.
    fn scratch_cache(tag: &str) -> KernelCache {
        let dir = env::temp_dir().join(format!("ctgauss-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        KernelCache::at(dir)
    }

    /// 64·15 + 37 samples: `sample_into` runs its 8-, 4-, 2- and 1-word
    /// phases and a truncated tail.
    fn stream(sampler: &CtSampler, seed: u64) -> Vec<i32> {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let mut out = vec![0i32; 64 * 15 + 37];
        sampler.sample_into(&mut out, &mut rng);
        out
    }

    /// Both tile encodings round-trip: sigma = 2 packs the dense `u32`
    /// stream, sigma = 6.15543 at n = 128 the wide `u16x4` one.
    #[test]
    fn cold_miss_stores_then_warm_hit_skips_synthesis() {
        let cache = scratch_cache("cold-warm");
        for (sigma, n) in [("2", 14), ("6.15543", 128)] {
            let spec = SamplerSpec::new(sigma, n);

            let (cold, cold_trace) = spec.build_shared_with(&cache).unwrap();
            assert_eq!(cold_trace.cache, CacheDisposition::Miss { stored: true });
            assert!(cold_trace.ran(SynthStage::MinimizedSop));

            let (warm, warm_trace) = spec.build_shared_with(&cache).unwrap();
            assert_eq!(warm_trace.cache, CacheDisposition::Hit);
            assert!(warm_trace.ran(SynthStage::ProbTables));
            for stage in [
                SynthStage::MinimizedSop,
                SynthStage::Program,
                SynthStage::CompiledKernel,
                SynthStage::TiledKernel,
            ] {
                assert!(!warm_trace.ran(stage), "{stage} must be served from cache");
            }
            // Same fingerprints, same kernel, bit-identical streams.
            assert_eq!(
                cold_trace
                    .stages
                    .iter()
                    .map(|r| r.fingerprint)
                    .collect::<Vec<_>>(),
                warm_trace
                    .stages
                    .iter()
                    .map(|r| r.fingerprint)
                    .collect::<Vec<_>>(),
            );
            assert_eq!(warm.program(), cold.program());
            assert_eq!(warm.tiled_kernel(), cold.tiled_kernel());
            assert_eq!(stream(&warm, 7), stream(&cold, 7), "sigma = {sigma}");
            // The warm report survives serialization intact.
            assert_eq!(warm.report().sublists, cold.report().sublists);
            assert_eq!(warm.report().gates, cold.report().gates);
        }

        let _ = fs::remove_dir_all(cache.dir().unwrap());
    }

    #[test]
    fn warm_equals_direct_build() {
        let cache = scratch_cache("warm-vs-fresh");
        let spec = SamplerSpec::new("2", 16).tail_cut(10);
        let _ = spec.build_shared_with(&cache).unwrap();
        let (warm, trace) = spec.build_shared_with(&cache).unwrap();
        assert_eq!(trace.cache, CacheDisposition::Hit);
        let fresh = spec.build().unwrap();
        assert_eq!(stream(&warm, 99), stream(&fresh, 99));
        let _ = fs::remove_dir_all(cache.dir().unwrap());
    }

    #[test]
    fn corrupted_entry_falls_back_to_synthesis_and_heals() {
        let cache = scratch_cache("corrupt");
        let spec = SamplerSpec::new("2", 12);
        let (cold, _) = spec.build_shared_with(&cache).unwrap();

        // Flip one payload byte on disk: the load must reject it.
        let path = cache.entry_path(spec.fingerprint()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        fs::write(&path, &bytes).unwrap();

        let (rebuilt, trace) = spec.build_shared_with(&cache).unwrap();
        assert_eq!(trace.cache, CacheDisposition::Miss { stored: true });
        assert_eq!(stream(&rebuilt, 3), stream(&cold, 3));
        // The rebuild healed the entry: next start is warm again.
        let (_, trace) = spec.build_shared_with(&cache).unwrap();
        assert_eq!(trace.cache, CacheDisposition::Hit);
        let _ = fs::remove_dir_all(cache.dir().unwrap());
    }

    /// An entry of an older artifact format never executes: relabelled
    /// as version 1 and re-sealed so only the version gate can reject
    /// it, it misses, the rebuild is bit-identical, and the rewritten
    /// entry is version 2 and loads warm.
    #[test]
    fn stale_version_entry_falls_back_to_synthesis_and_heals() {
        let cache = scratch_cache("stale-version");
        let spec = SamplerSpec::new("2", 12);
        let (cold, _) = spec.build_shared_with(&cache).unwrap();

        let path = cache.entry_path(spec.fingerprint()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        // Re-seal: FNV-1a over the header before the checksum field and
        // the payload.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes[..28].iter().chain(&bytes[36..]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        bytes[28..36].copy_from_slice(&h.to_le_bytes());
        assert_eq!(
            KernelArtifact::from_bytes(&bytes),
            Err(ArtifactError::BadVersion(1))
        );
        fs::write(&path, &bytes).unwrap();

        let (rebuilt, trace) = spec.build_shared_with(&cache).unwrap();
        assert_eq!(trace.cache, CacheDisposition::Miss { stored: true });
        assert!(trace.ran(SynthStage::MinimizedSop));
        assert_eq!(rebuilt.tiled_kernel(), cold.tiled_kernel());
        assert_eq!(stream(&rebuilt, 11), stream(&cold, 11));

        let healed = fs::read(&path).unwrap();
        assert_eq!(healed[8..12], 2u32.to_le_bytes());
        let (_, trace) = spec.build_shared_with(&cache).unwrap();
        assert_eq!(trace.cache, CacheDisposition::Hit);
        let _ = fs::remove_dir_all(cache.dir().unwrap());
    }

    #[test]
    fn foreign_entry_under_wrong_name_is_rejected() {
        let cache = scratch_cache("foreign");
        let spec_a = SamplerSpec::new("2", 12);
        let spec_b = SamplerSpec::new("2", 13);
        let _ = spec_a.build_shared_with(&cache).unwrap();
        // Masquerade A's artifact as B's.
        fs::copy(
            cache.entry_path(spec_a.fingerprint()).unwrap(),
            cache.entry_path(spec_b.fingerprint()).unwrap(),
        )
        .unwrap();
        let (_, trace) = spec_b.build_shared_with(&cache).unwrap();
        assert_eq!(
            trace.cache,
            CacheDisposition::Miss { stored: true },
            "embedded fingerprint must gate foreign entries"
        );
        let _ = fs::remove_dir_all(cache.dir().unwrap());
    }

    #[test]
    fn injected_load_failure_degrades_to_synthesis_without_unarming_disabled_loads() {
        let cache = scratch_cache("fault-injected");
        let spec = SamplerSpec::new("2", 12);
        let (cold, _) = spec.build_shared_with(&cache).unwrap();

        // Armed failure: the warm load must miss (as a disk fault would),
        // fire the hit counter, and fall back to a full — bit-identical —
        // synthesis that re-stores the entry.
        let hits_before = injected_load_failure_hits();
        inject_load_failures(1);
        let (rebuilt, trace) = spec.build_shared_with(&cache).unwrap();
        assert_eq!(trace.cache, CacheDisposition::Miss { stored: true });
        assert_eq!(injected_load_failure_hits(), hits_before + 1);
        assert_eq!(stream(&rebuilt, 5), stream(&cold, 5));

        // The fault is consumed: the next load is warm again.
        let (_, trace) = spec.build_shared_with(&cache).unwrap();
        assert_eq!(trace.cache, CacheDisposition::Hit);
        assert_eq!(injected_load_failure_hits(), hits_before + 1);
        let _ = fs::remove_dir_all(cache.dir().unwrap());
    }

    #[test]
    fn disabled_cache_bypasses() {
        let cache = KernelCache::disabled();
        assert!(!cache.is_enabled());
        assert_eq!(cache.entry_path(1), None);
        let (sampler, trace) = SamplerSpec::new("2", 12).build_shared_with(&cache).unwrap();
        assert_eq!(trace.cache, CacheDisposition::Bypassed);
        assert!(trace.ran(SynthStage::TiledKernel));
        assert_eq!(
            sampler.sample_batch(&mut ChaChaRng::from_u64_seed(1)).len(),
            64
        );
    }

    #[test]
    fn default_dir_needs_a_target_ancestor() {
        assert_eq!(
            target_cache_dir(Path::new("/work/ws/target/release/x")),
            Some(PathBuf::from("/work/ws/target/ctgauss-cache"))
        );
        assert_eq!(target_cache_dir(Path::new("/usr/local/bin/x")), None);
    }

    #[test]
    fn meta_round_trips() {
        let spec = SamplerSpec::new("2", 12);
        let (sampler, trace) = spec.build_shared_with(&KernelCache::disabled()).unwrap();
        let meta = encode_meta(&trace, sampler.report());
        let (fps, report) = decode_meta(&meta).unwrap();
        for (i, stage) in SynthStage::ALL.into_iter().enumerate() {
            assert_eq!(fps[i], trace.stage(stage).unwrap().fingerprint);
        }
        assert_eq!(report.sublists, sampler.report().sublists);
        assert_eq!(report.gates, sampler.report().gates);
        assert_eq!(report.ops, sampler.report().ops);
        // Truncated meta is rejected.
        assert!(decode_meta(&meta[..meta.len() - 1]).is_none());
        assert!(decode_meta(&[]).is_none());
    }
}
