//! Sampler profiles: hashable specs that build shared, immutable samplers.

use std::sync::Arc;

use ctgauss_knuthyao::{GaussianParams, ParamError};

use crate::builder::{self, BuildError, Strategy};
use crate::cache::{self, KernelCache};
use crate::metrics;
use crate::sampler::CtSampler;
use crate::stages::{BuildTrace, CacheDisposition, Fingerprint, SYNTH_FORMAT_VERSION};

/// The one parameter set of the Figure-4 pipeline — `(sigma, n, tau)`
/// plus the minimization strategy — and the value-comparable identity of
/// the sampler it builds: the "sigma profile" multi-threaded services key
/// requests on. [`build`](Self::build) runs the pipeline and returns an
/// owned sampler, never touching the cache.
///
/// Building a [`CtSampler`] runs the whole Figure-4 pipeline (matrix
/// enumeration, exact Boolean minimization, kernel lowering, then the
/// superinstruction tile re-lowering), which takes seconds at paper
/// parameters — far too much to repeat per worker thread. A
/// `SamplerSpec` is the cheap, `Eq + Hash` identity of that work:
/// [`build_shared`](Self::build_shared) runs the pipeline once and hands
/// back an `Arc<CtSampler>` every worker can clone — one immutable tiled
/// artifact (instruction stream, tile stream, slot plan) shared by the
/// whole pool. It first consults the content-addressed
/// [`KernelCache`] (keyed on [`fingerprint`](Self::fingerprint)), so a
/// process whose cache is warm skips minimization and lowering entirely
/// and cold-starts from the serialized artifact. `CtSampler` has no interior mutability (workers pass
/// their own scratch into the `_with` APIs), so sharing the lowered
/// kernels across threads is safe by construction — asserted at compile
/// time below.
///
/// # Examples
///
/// ```
/// use ctgauss_core::SamplerSpec;
///
/// let spec = SamplerSpec::new("2", 24);
/// let a = spec.build_shared().unwrap();
/// let b = a.clone(); // workers clone the Arc, not the kernel
/// assert_eq!(a.words_per_batch(), b.words_per_batch());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SamplerSpec {
    sigma: String,
    precision: u32,
    tail_cut: u32,
    /// Read by the pipeline to pick its minimizer.
    pub(crate) strategy: Strategy,
}

// The pool hands one `Arc<CtSampler>` to N worker threads; that is sound
// only while `CtSampler` stays `Send + Sync` (no interior mutability).
// Keep the assertion next to the type that relies on it.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<CtSampler>();
    assert_shareable::<SamplerSpec>();
};

impl SamplerSpec {
    /// A spec for standard deviation `sigma` (exact decimal literal) and
    /// probability precision `n` bits, with the paper's defaults for the
    /// rest (tail cut 13, split-exact minimization).
    pub fn new(sigma: &str, precision: u32) -> Self {
        SamplerSpec {
            sigma: sigma.to_owned(),
            precision,
            tail_cut: GaussianParams::DEFAULT_TAIL_CUT,
            strategy: Strategy::SplitExact,
        }
    }

    /// Sets the tail-cut factor `tau` (default 13, as in the paper).
    #[must_use]
    pub fn tail_cut(mut self, tau: u32) -> Self {
        self.tail_cut = tau;
        self
    }

    /// Sets the minimization strategy (default [`Strategy::SplitExact`]).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The sigma literal.
    pub fn sigma(&self) -> &str {
        &self.sigma
    }

    /// The probability precision in bits.
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// The validated Knuth-Yao parameters `(sigma, n, tau)` of this spec.
    ///
    /// # Errors
    ///
    /// [`ParamError`] for an invalid sigma literal, precision or tail cut.
    pub fn params(&self) -> Result<GaussianParams, ParamError> {
        GaussianParams::new(&self.sigma, self.precision, self.tail_cut)
    }

    /// The spec's stable content fingerprint — the `Spec` stage
    /// fingerprint and the [`KernelCache`] key: sigma literal, precision,
    /// tail cut and strategy chained onto
    /// [`SYNTH_FORMAT_VERSION`](crate::SYNTH_FORMAT_VERSION). Equal specs
    /// always fingerprint equally, across runs and platforms.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.u32(SYNTH_FORMAT_VERSION)
            .str(&self.sigma)
            .u32(self.precision)
            .u32(self.tail_cut)
            .u8(self.strategy.code());
        fp.value()
    }

    /// Runs the full pipeline — matrix, list `L`, sublist split, Boolean
    /// minimization, Equation 2 recombination, bitslice compilation and
    /// both kernel lowerings — and returns an owned sampler. Never reads
    /// or writes the [`KernelCache`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Params`] for invalid `(sigma, n, tau)` and
    /// [`BuildError::StageInvariant`] if any stage fails its probe check.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctgauss_core::{SamplerSpec, Strategy};
    ///
    /// let sampler = SamplerSpec::new("1.5", 24)
    ///     .tail_cut(10)
    ///     .strategy(Strategy::SplitExact)
    ///     .build()
    ///     .unwrap();
    /// assert!(sampler.report().gates > 0);
    /// ```
    pub fn build(&self) -> Result<CtSampler, BuildError> {
        Ok(builder::build_traced(self)?.0)
    }

    /// Builds the sampler once and wraps it for sharing across threads,
    /// cold-starting from the environment-configured [`KernelCache`]
    /// when a valid precompiled artifact exists (see
    /// [`KernelCache::from_env`]); on a miss the freshly synthesized
    /// kernel is written back, so the *next* process starts warm.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from the pipeline. Cache problems are
    /// never errors: a missing, corrupted or stale artifact falls back to
    /// in-process synthesis, and a failed write-back is dropped.
    pub fn build_shared(&self) -> Result<Arc<CtSampler>, BuildError> {
        Ok(self.build_shared_traced()?.0)
    }

    /// [`build_shared`](Self::build_shared), additionally returning the
    /// [`BuildTrace`] (which stages ran vs. were served from cache, with
    /// timings and fingerprints).
    ///
    /// # Errors
    ///
    /// Same as [`build_shared`](Self::build_shared).
    pub fn build_shared_traced(&self) -> Result<(Arc<CtSampler>, BuildTrace), BuildError> {
        self.build_shared_with(&KernelCache::from_env())
    }

    /// [`build_shared_traced`](Self::build_shared_traced) against an
    /// explicit cache (tests, services with their own cache layout, or
    /// [`KernelCache::disabled`] to force synthesis and get the
    /// [`CacheDisposition::Bypassed`] trace of the bare pipeline).
    ///
    /// # Errors
    ///
    /// Same as [`build_shared`](Self::build_shared).
    pub fn build_shared_with(
        &self,
        cache: &KernelCache,
    ) -> Result<(Arc<CtSampler>, BuildTrace), BuildError> {
        if let Some((sampler, trace)) = cache::load_sampler(cache, self) {
            metrics::CACHE_HITS.inc();
            return Ok((Arc::new(sampler), trace));
        }
        let (sampler, mut trace) = builder::build_traced(self)?;
        if cache.is_enabled() {
            metrics::CACHE_MISSES.inc();
            let stored = cache::store_sampler(cache, self, &sampler, &trace);
            if stored {
                metrics::CACHE_STORES.inc();
            } else {
                metrics::CACHE_STORE_FAILURES.inc();
            }
            trace.cache = CacheDisposition::Miss { stored };
        } else {
            metrics::CACHE_BYPASSES.inc();
        }
        Ok((Arc::new(sampler), trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctgauss_prng::ChaChaRng;

    #[test]
    fn shared_build_equals_build() {
        let spec = SamplerSpec::new("2", 16).tail_cut(10);
        let shared = spec.build_shared().unwrap();
        let owned = spec.build().unwrap();
        let mut a = ChaChaRng::from_u64_seed(1);
        let mut b = ChaChaRng::from_u64_seed(1);
        assert_eq!(shared.sample_batch(&mut a), owned.sample_batch(&mut b));
        assert_eq!(shared.words_per_batch(), owned.words_per_batch());
    }

    #[test]
    fn spec_identity_is_value_based() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        assert!(set.insert(SamplerSpec::new("2", 16)));
        assert!(!set.insert(SamplerSpec::new("2", 16)));
        assert!(set.insert(SamplerSpec::new("2", 16).tail_cut(9)));
        assert!(set.insert(SamplerSpec::new("1.5", 16)));
        assert!(set.insert(SamplerSpec::new("2", 16).strategy(Strategy::Simple)));
    }

    #[test]
    fn arc_is_shared_not_cloned() {
        let handle = SamplerSpec::new("2", 12).build_shared().unwrap();
        let other = Arc::clone(&handle);
        assert_eq!(Arc::strong_count(&handle), 2);
        assert!(std::ptr::eq(Arc::as_ptr(&handle), Arc::as_ptr(&other)));
    }
}
