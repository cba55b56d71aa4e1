//! Falcon integration: a pool-backed base Gaussian for the signing path.

use ctgauss_falcon::sign::BaseSampler;

use crate::pool::{Pool, PoolError, ProfileId};

/// The Falcon base-distribution profile (`D_{Z, 2, 0}`, n = 128, tau =
/// 13 — the paper's Table 1 configuration), the same spec the owned
/// `KnuthYaoCtBase` builds. Register this with the pool that will back
/// [`PooledBase`].
pub use ctgauss_falcon::base::base_spec as falcon_profile_spec;

/// A [`BaseSampler`] that refills its buffer from a shared [`Pool`]
/// instead of owning a sampler and PRNG — the signing path's handle into
/// the service layer. Many signers can share one pool; each `PooledBase`
/// is its own request stream, so per-signer draw order stays the pool's
/// deterministic (seed, trace) function.
#[derive(Debug)]
pub struct PooledBase<'p> {
    pool: &'p Pool,
    profile: ProfileId,
    buf: Vec<i32>,
    pos: usize,
    refill: usize,
}

impl<'p> PooledBase<'p> {
    /// Default samples fetched per pool round trip: one 8-wide batch,
    /// matching the owned `KnuthYaoCtBase`'s refill granularity.
    pub const DEFAULT_REFILL: usize = 64 * 8;

    /// Creates a handle drawing from `profile` on `pool`.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownProfile`] if `profile` is not registered on
    /// `pool`.
    pub fn new(pool: &'p Pool, profile: ProfileId) -> Result<Self, PoolError> {
        Self::with_refill(pool, profile, Self::DEFAULT_REFILL)
    }

    /// Creates a handle with an explicit refill granularity (samples per
    /// pool request; latency/throughput knob).
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownProfile`] if `profile` is not registered on
    /// `pool`.
    pub fn with_refill(
        pool: &'p Pool,
        profile: ProfileId,
        refill: usize,
    ) -> Result<Self, PoolError> {
        assert!(refill > 0, "refill must be positive");
        pool.profile_sampler(profile)?;
        Ok(PooledBase {
            pool,
            profile,
            buf: Vec::new(),
            pos: 0,
            refill,
        })
    }
}

impl BaseSampler for PooledBase<'_> {
    fn next(&mut self) -> i32 {
        if self.pos == self.buf.len() {
            self.buf = self
                .pool
                .sample_vec(self.profile, self.refill)
                .expect("pool serves base-sampler refills");
            self.pos = 0;
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    fn name(&self) -> &'static str {
        "bitsliced Knuth-Yao (pooled)"
    }
}
