//! Workspace smoke test: the canonical spec build compiles, links, and
//! produces plausible samples. Exists to catch manifest/wiring regressions
//! (a crate dropping out of the workspace, a renamed dependency) with a
//! fast, dependency-light `cargo test -q` failure.

use ctgauss_core::SamplerSpec;
use ctgauss_prng::ChaChaRng;

#[test]
fn builder_smoke_sigma2_n24() {
    let sampler = SamplerSpec::new("2", 24)
        .build()
        .expect("sigma=2, n=24 must build");

    // tau * sigma = 13 * 2 = 26 bounds the magnitude (tail cut).
    let bound = 26;
    let mut rng = ChaChaRng::from_u64_seed(0xC0FFEE);
    let batch = sampler.sample_batch(&mut rng);
    assert_eq!(batch.len(), 64, "one batch is 64 lanes");
    assert!(
        batch.iter().all(|&s| s.unsigned_abs() <= bound),
        "samples within the tail cut: {batch:?}"
    );

    // Signs and magnitudes must both vary across a batch of 64 draws from
    // D_{Z, 2}: P[all 64 share a sign] and P[all 64 equal] are ~2^-60.
    assert!(batch.iter().any(|&s| s < 0), "negative samples appear");
    assert!(batch.iter().any(|&s| s > 0), "positive samples appear");
    let first = batch[0];
    assert!(
        batch.iter().any(|&s| s != first),
        "magnitudes vary within a batch"
    );

    // Small magnitudes dominate for sigma = 2: |s| <= 2 has probability
    // ~0.79 per draw, so fewer than 16 of 64 would be a ~1-in-10^12 event.
    let small = batch.iter().filter(|s| s.unsigned_abs() <= 2).count();
    assert!(
        small >= 16,
        "expected mostly small magnitudes for sigma=2, got {small}/64 <= 2"
    );
}
