//! Constant-time bitsliced Knuth-Yao discrete Gaussian sampling — the core
//! contribution of the DAC 2019 paper, as a library.
//!
//! # What this implements
//!
//! A [`SamplerSpec`] holds the one parameter set — standard deviation
//! `sigma`, precision `n`, tail cut `tau` and the minimization
//! [`Strategy`] — and [`SamplerSpec::build`] runs the full pipeline of
//! Figure 4:
//!
//! 1. build the Knuth-Yao probability matrix and enumerate the list `L` of
//!    sample-generating random bit strings ([`ctgauss_knuthyao`]);
//! 2. sort `L` by the initial ones-run length `k` and split it into
//!    sublists `l_0 .. l_{n'}` (Theorem 1 guarantees the normal form
//!    `x^i (0/1)^j 0 1^k` with `j <= Delta`);
//! 3. minimize each sublist's `Delta`-variable Boolean functions exactly
//!    ([`ctgauss_boolmin::minimize_exact`], the open equivalent of
//!    `espresso -Dso -S1`);
//! 4. recombine with the constant-time selector chain of Equation 2 and
//!    compile to a straight-line bitsliced program
//!    ([`ctgauss_bitslice`]).
//!
//! The resulting [`CtSampler`] produces 64 samples per batch from `n + 1`
//! random words (`n` bit positions plus the sign), in constant time by
//! construction. At build time the straight-line program is additionally
//! lowered through the fused, register-allocated
//! [`CompiledKernel`](ctgauss_bitslice::CompiledKernel) IR into a
//! [`TiledKernel`](ctgauss_bitslice::TiledKernel), the only lowered form
//! the sampler keeps — the execution engine behind every sampling API,
//! with the interpreter retained as the reference oracle
//! ([`CtSampler::run_batch_reference`]).
//!
//! The prior work's "simple minimization" (\[21\], the Table 2 baseline) is
//! available as [`Strategy::Simple`]: one heuristic minimization of the
//! full `n`-variable functions with no sublist split.
//!
//! The chain runs as an explicit staged pipeline ([`SynthStage`]:
//! `Spec → ProbTables → MinimizedSop → Program → CompiledKernel →
//! TiledKernel`) — each pass timed, content-fingerprinted and re-checked
//! against an oracle on a fixed probe batch (the shared builds return the
//! [`BuildTrace`]). Because synthesis is deterministic and fingerprints
//! are stable across processes, [`SamplerSpec::build_shared`] can
//! cold-start from a content-addressed [`KernelCache`] of serialized
//! artifacts ([`ctgauss_bitslice::artifact`]), skipping minimization and
//! lowering entirely when a valid precompiled kernel exists on disk.
//!
//! # Examples
//!
//! ```
//! use ctgauss_core::{SamplerSpec, Strategy};
//! use ctgauss_prng::ChaChaRng;
//!
//! let sampler = SamplerSpec::new("2", 32)
//!     .tail_cut(13)
//!     .strategy(Strategy::SplitExact)
//!     .build()
//!     .unwrap();
//! let mut rng = ChaChaRng::from_u64_seed(1);
//! let batch = sampler.sample_batch(&mut rng);
//! assert_eq!(batch.len(), 64);
//! assert!(batch.iter().all(|&s| s.unsigned_abs() <= 26));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cache;
mod metrics;
mod sampler;
mod spec;
mod stages;
mod sublists;

pub use builder::{BuildError, BuildReport, Strategy, SublistInfo};
pub use cache::{inject_load_failures, injected_load_failure_hits, KernelCache};
// Re-exported so service layers can pick lane backends without a direct
// bitslice dependency.
pub use ctgauss_bitslice::Backend;
pub use metrics::attach_metrics;
pub use sampler::{BatchScratch, CtSampler, LaneScratch, SampleStream};
pub use spec::SamplerSpec;
pub use stages::{
    BuildTrace, CacheDisposition, Fingerprint, StageRecord, SynthStage, SYNTH_FORMAT_VERSION,
};
pub use sublists::{
    combine_sublists, simple_expressions, split_by_run, synthesize_sublist, SublistFunctions,
};
