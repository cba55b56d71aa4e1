//! `KernelCache::from_env` end to end: a cold build through
//! `CTGAUSS_CACHE_DIR` synthesizes and stores, a warm build loads and
//! skips synthesis, and a build after the directory is deleted falls
//! back to synthesis — all three bit-identical to a cache-free build.
//!
//! The one test lives in its own test binary because it sets
//! `CTGAUSS_CACHE_DIR`, which every cache-enabled build in the process
//! reads.

use std::{env, fs};

use ctgauss_core::{CacheDisposition, CtSampler, SamplerSpec, SynthStage};
use ctgauss_prng::ChaChaRng;

const SYNTHESIS: [SynthStage; 4] = [
    SynthStage::MinimizedSop,
    SynthStage::Program,
    SynthStage::CompiledKernel,
    SynthStage::TiledKernel,
];

/// 64·15 + 37 samples, so `sample_into` runs its 8-, 4-, 2- and 1-word
/// phases and a truncated tail.
fn stream(sampler: &CtSampler) -> Vec<i32> {
    let mut rng = ChaChaRng::from_u64_seed(0xCA5E);
    let mut out = vec![0i32; 64 * 15 + 37];
    sampler.sample_into(&mut out, &mut rng);
    out
}

#[test]
fn cache_dir_env_serves_cold_warm_and_fallback_builds() {
    let dir = env::temp_dir().join(format!("ctgauss-cache-env-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    env::set_var("CTGAUSS_CACHE_DIR", &dir);
    let spec = SamplerSpec::new("2", 16);
    let fresh = stream(&spec.build().unwrap());

    let (cold, trace) = spec.build_shared_traced().unwrap();
    assert_eq!(trace.cache, CacheDisposition::Miss { stored: true });
    assert!(SYNTHESIS.iter().all(|&stage| trace.ran(stage)));
    let entry = dir.join(format!("{:016x}.ctk", spec.fingerprint()));
    assert!(entry.is_file(), "cold build must store {}", entry.display());
    assert_eq!(stream(&cold), fresh, "cold stream");

    let (warm, trace) = spec.build_shared_traced().unwrap();
    assert_eq!(trace.cache, CacheDisposition::Hit);
    for stage in SYNTHESIS {
        assert!(!trace.ran(stage), "{stage} must be served from cache");
    }
    assert_eq!(stream(&warm), fresh, "warm stream");

    fs::remove_dir_all(&dir).unwrap();
    let (fallback, trace) = spec.build_shared_traced().unwrap();
    assert_eq!(trace.cache, CacheDisposition::Miss { stored: true });
    assert_eq!(stream(&fallback), fresh, "fallback stream");

    env::remove_var("CTGAUSS_CACHE_DIR");
    let _ = fs::remove_dir_all(&dir);
}
