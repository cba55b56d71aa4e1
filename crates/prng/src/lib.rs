//! From-scratch pseudorandom generators and randomness-source traits.
//!
//! The DAC 2019 paper keeps the pseudorandom generator fixed across all
//! compared samplers (ChaCha, as in the Falcon reference implementation) and
//! observes in its conclusion that 60–85% of total sampling time is spent
//! producing randomness. To reproduce those measurements this crate
//! implements, without external dependencies:
//!
//! * [`ChaCha20`] / [`ChaChaRng`] — the RFC 8439 stream cipher, the PRNG used
//!   by Falcon's reference implementation and by Table 1 of the paper.
//! * [`KeccakF1600`] / [`Shake`] / [`KeccakRng`] — the Keccak permutation and
//!   SHAKE XOFs; the PRNG used by the prior work (IEEE TC 2018) and by the
//!   paper's conclusion for the 80–85% overhead figure. SHAKE-256 also backs
//!   Falcon's hash-to-point.
//! * [`SplitMix64`] / [`Xoshiro256pp`] — fast non-cryptographic generators
//!   for tests and workload generation.
//! * [`SeedTree`] — domain-separated SHAKE-256 seed expansion, deriving
//!   independent, individually replayable worker streams from one root
//!   seed (the randomness backbone of the `ctgauss-pool` service).
//! * [`RandomSource`] / [`BitSource`] — the traits samplers consume, plus
//!   [`CountingSource`] for measuring exactly how much randomness a sampler
//!   draws (byte-scanning CDT draws lazily; this is how we verify it).
//!
//! The block generators override [`RandomSource::fill_u64s`] with a
//! block-filled fast path (whole 16-block ChaCha batches / Keccak lanes
//! straight into the destination, no byte staging) that is exactly
//! stream-equivalent to the default byte-wise implementation — the
//! samplers draw their per-batch randomness through it.
//!
//! # Examples
//!
//! ```
//! use ctgauss_prng::{BitBuffer, BitSource, ChaChaRng, RandomSource};
//!
//! let mut rng = ChaChaRng::from_seed([7u8; 32]);
//! let word = rng.next_u64();
//! let mut bits = BitBuffer::new(rng);
//! let bit = bits.next_bit();
//! let _ = (word, bit);
//! ```
// `deny`, not `forbid`: the ChaCha batch carries two scoped `unsafe`
// calls — its `#[target_feature(enable = "avx512f")]` and
// `#[target_feature(enable = "avx2")]` shims, each behind runtime CPU
// detection. Everything else stays unsafe-free, enforced crate-wide.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chacha;
mod counting;
mod keccak;
mod seedtree;
mod traits;
mod xoshiro;

pub use chacha::{ChaCha20, ChaChaRng};
pub use counting::CountingSource;
pub use keccak::{KeccakF1600, KeccakRng, Shake, ShakeVariant};
pub use seedtree::SeedTree;
pub use traits::{BitBuffer, BitSource, RandomSource};
pub use xoshiro::{SplitMix64, Xoshiro256pp};

// Every generator in this crate is consumed from worker threads by the
// `ctgauss-pool` service, so `Send` (and, for the shared-nothing types,
// `Sync`) is part of the public contract: losing it through an interior
// `Rc`/raw-pointer refactor must fail compilation, not a downstream build.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ChaChaRng>();
    assert_send_sync::<KeccakRng>();
    assert_send_sync::<Shake>();
    assert_send_sync::<KeccakF1600>();
    assert_send_sync::<SplitMix64>();
    assert_send_sync::<Xoshiro256pp>();
    assert_send_sync::<SeedTree>();
    assert_send_sync::<CountingSource<ChaChaRng>>();
    assert_send_sync::<BitBuffer<KeccakRng>>();
};
