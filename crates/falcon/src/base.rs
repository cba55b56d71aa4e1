//! The four base-sampler configurations of Table 1, each owning a ChaCha
//! PRNG (the paper keeps the PRNG fixed across samplers).

use std::sync::Arc;

use ctgauss_cdt::{BinarySearchCdt, ByteScanCdt, CdtTable, LinearSearchCdt};
use ctgauss_core::{BatchScratch, CtSampler, SamplerSpec, Strategy};
use ctgauss_knuthyao::GaussianParams;
use ctgauss_prng::ChaChaRng;

use crate::sign::BaseSampler;

/// The Falcon base-distribution profile of the paper's Table 1:
/// `D_{Z, 2, 0}` with 128-bit probabilities, tail cut 13 and split-exact
/// minimization. Every base sampler here (and the pool's
/// `falcon_profile_spec`) is built from it.
pub fn base_spec() -> SamplerSpec {
    SamplerSpec::new("2", 128)
        .tail_cut(13)
        .strategy(Strategy::SplitExact)
}

/// [`base_spec`]'s `(sigma, n, tau)`, for the CDT tables.
fn base_params() -> GaussianParams {
    base_spec().params().expect("paper parameters are valid")
}

/// Lane-block width of the signing path's batches: 8 × 64 samples per
/// tiled-kernel pass, run on the widest available 8-word backend.
const WIDE: usize = 8;

/// "This work": the constant-time bitsliced Knuth-Yao sampler, consumed
/// through its wide (8 x 64 lanes) batch interface. The lane scratch and
/// the sample buffer are allocated once at construction and reused for
/// every refill, so steady-state signing performs no heap allocation in
/// the sampling path.
pub struct KnuthYaoCtBase {
    sampler: Arc<CtSampler>,
    rng: ChaChaRng,
    scratch: BatchScratch<WIDE>,
    buf: [i32; 64 * WIDE],
    pos: usize,
}

impl KnuthYaoCtBase {
    /// Builds the [`base_spec`] sampler and seeds its PRNG.
    ///
    /// Goes through [`SamplerSpec::build_shared`], so signing cold-starts
    /// from a warm [`KernelCache`](ctgauss_core::KernelCache) — the n =
    /// 128 minimization (the dominant startup cost) is skipped whenever a
    /// precompiled artifact is available.
    pub fn new(seed: u64) -> Self {
        let sampler = base_spec().build_shared().expect("paper parameters build");
        let scratch = sampler.scratch::<WIDE>();
        KnuthYaoCtBase {
            sampler,
            rng: ChaChaRng::from_u64_seed(seed),
            scratch,
            buf: [0; 64 * WIDE],
            pos: 64 * WIDE,
        }
    }

    /// Access to the inner sampler (for reports).
    pub fn sampler(&self) -> &CtSampler {
        &self.sampler
    }
}

impl BaseSampler for KnuthYaoCtBase {
    fn next(&mut self) -> i32 {
        if self.pos == self.buf.len() {
            self.sampler
                .sample_batch_with(&mut self.rng, &mut self.scratch, &mut self.buf);
            self.pos = 0;
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    fn name(&self) -> &'static str {
        "bitsliced Knuth-Yao (this work)"
    }
}

/// "CDT": the classical binary-search CDT sampler (non-constant-time).
pub struct BinaryCdtBase {
    table: CdtTable,
    rng: ChaChaRng,
}

impl BinaryCdtBase {
    /// Builds the table and seeds the PRNG.
    pub fn new(seed: u64) -> Self {
        BinaryCdtBase {
            table: CdtTable::build(&base_params()).expect("paper parameters build"),
            rng: ChaChaRng::from_u64_seed(seed),
        }
    }
}

impl BaseSampler for BinaryCdtBase {
    fn next(&mut self) -> i32 {
        BinarySearchCdt::new(&self.table).sample_signed(&mut self.rng)
    }

    fn name(&self) -> &'static str {
        "binary-search CDT"
    }
}

/// "Byte-scanning CDT": the lazy byte-wise scanner (fastest
/// non-constant-time baseline).
pub struct ByteScanCdtBase {
    table: CdtTable,
    rng: ChaChaRng,
}

impl ByteScanCdtBase {
    /// Builds the table and seeds the PRNG.
    pub fn new(seed: u64) -> Self {
        ByteScanCdtBase {
            table: CdtTable::build(&base_params()).expect("paper parameters build"),
            rng: ChaChaRng::from_u64_seed(seed),
        }
    }
}

impl BaseSampler for ByteScanCdtBase {
    fn next(&mut self) -> i32 {
        ByteScanCdt::new(&self.table).sample_signed(&mut self.rng)
    }

    fn name(&self) -> &'static str {
        "byte-scanning CDT"
    }
}

/// "Linear search CDT": the constant-time exhaustive-comparison sampler.
pub struct LinearCdtBase {
    table: CdtTable,
    rng: ChaChaRng,
}

impl LinearCdtBase {
    /// Builds the table and seeds the PRNG.
    pub fn new(seed: u64) -> Self {
        LinearCdtBase {
            table: CdtTable::build(&base_params()).expect("paper parameters build"),
            rng: ChaChaRng::from_u64_seed(seed),
        }
    }
}

impl BaseSampler for LinearCdtBase {
    fn next(&mut self) -> i32 {
        LinearSearchCdt::new(&self.table).sample_signed(&mut self.rng)
    }

    fn name(&self) -> &'static str {
        "linear-search CDT (constant-time)"
    }
}

/// Builds all four Table 1 base samplers with distinct seeds.
pub fn all_base_samplers(seed: u64) -> Vec<Box<dyn BaseSampler>> {
    vec![
        Box::new(ByteScanCdtBase::new(seed)),
        Box::new(BinaryCdtBase::new(seed + 1)),
        Box::new(LinearCdtBase::new(seed + 2)),
        Box::new(KnuthYaoCtBase::new(seed + 3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four base samplers target the identical distribution; check
    /// mean/variance of each.
    #[test]
    fn all_bases_share_moments() {
        for mut base in all_base_samplers(42) {
            let n = 40_000;
            let mut sum = 0f64;
            let mut sq = 0f64;
            for _ in 0..n {
                let v = f64::from(base.next());
                sum += v;
                sq += v * v;
            }
            let mean = sum / f64::from(n);
            let var = sq / f64::from(n) - mean * mean;
            assert!(mean.abs() < 0.05, "{}: mean {mean}", base.name());
            assert!((var - 4.0).abs() < 0.2, "{}: var {var}", base.name());
        }
    }

    /// The kernel cache names entries by the spec fingerprint, so this
    /// value must not move: a different one would orphan every cached
    /// Falcon base kernel and force a cold n = 128 synthesis.
    #[test]
    fn base_spec_fingerprint_is_pinned() {
        assert_eq!(base_spec().fingerprint(), 0x93a0_c72e_f067_4c58);
        assert_eq!(base_spec(), SamplerSpec::new("2", 128));
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_base_samplers(1).iter().map(|b| b.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), 4);
        assert_eq!(dedup.len(), 4);
    }
}
