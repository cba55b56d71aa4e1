//! Property tests for the stream-equivalence contract of the overridden
//! `next_u64` / `fill_u64s` draws.
//!
//! The samplers draw every batch record through one `fill_u64s` call, and
//! the draw-order determinism contract (wide == W scalar batches, pool ==
//! scalar `sample_into`) holds only if the block-filled overrides are
//! exactly stream-equivalent to repeated `next_u64` — including across
//! block/rate refill boundaries and from unaligned starting positions.

use ctgauss_prng::{ChaChaRng, KeccakRng, RandomSource};
use proptest::prelude::*;

/// Request lengths that straddle every interesting refill boundary: the
/// ChaCha block is 8 words, the SHAKE-256 rate is 17 words, and batch
/// records are `n + 1` words for n up to 128.
const AWKWARD_LENS: [usize; 5] = [1, 63, 64, 65, 1000];

/// Drives `fill_u64s` through a schedule of awkward lengths on one
/// generator and repeated `next_u64` on an identically seeded twin; the
/// two must produce the same words and end at the same stream position.
fn check_block_fill_matches_word_loop<R, F>(make: F, seed: u64, prefix_bytes: usize, order: usize)
where
    R: RandomSource,
    F: Fn(u64) -> R,
{
    let mut fast = make(seed);
    let mut slow = make(seed);
    // Start mid-block: drain an arbitrary byte prefix through both.
    let mut skip = vec![0u8; prefix_bytes];
    fast.fill_bytes(&mut skip);
    slow.fill_bytes(&mut skip);
    // Rotate the schedule so every length gets to sit on every boundary
    // the earlier requests leave behind.
    for k in 0..AWKWARD_LENS.len() {
        let len = AWKWARD_LENS[(k + order) % AWKWARD_LENS.len()];
        let mut via_fill = vec![0u64; len];
        fast.fill_u64s(&mut via_fill);
        for (i, &w) in via_fill.iter().enumerate() {
            assert_eq!(
                w,
                slow.next_u64(),
                "len {len}, word {i}, prefix {prefix_bytes}"
            );
        }
    }
    // Both generators must resume the identical stream afterwards.
    assert_eq!(fast.next_u64(), slow.next_u64());
}

/// A generator seen only through its `fill_bytes`: every other method is
/// the trait's byte-stream default, the reference the overrides must match.
struct ByteStream<R>(R);

impl<R: RandomSource> RandomSource for ByteStream<R> {
    fn fill_bytes(&mut self, dst: &mut [u8]) {
        self.0.fill_bytes(dst);
    }
}

/// Runs one mixed schedule of draws on a generator and on its byte-stream
/// twin: op 0 is `next_u64`, 1 `next_u32`, 2 `fill_bytes` of `len` bytes,
/// 3 `fill_u64s` of `len` words. Every draw must agree.
fn check_mixed_draws_match_byte_stream<R: RandomSource>(
    mut fast: R,
    mut slow: ByteStream<R>,
    ops: &[(u8, usize)],
) {
    for (step, &(op, len)) in ops.iter().enumerate() {
        match op {
            0 => assert_eq!(fast.next_u64(), slow.next_u64(), "step {step}: next_u64"),
            1 => assert_eq!(fast.next_u32(), slow.next_u32(), "step {step}: next_u32"),
            2 => {
                let (mut a, mut b) = (vec![0u8; len], vec![0u8; len]);
                fast.fill_bytes(&mut a);
                slow.fill_bytes(&mut b);
                assert_eq!(a, b, "step {step}: fill_bytes({len})");
            }
            _ => {
                let (mut a, mut b) = (vec![0u64; len], vec![0u64; len]);
                fast.fill_u64s(&mut a);
                slow.fill_u64s(&mut b);
                assert_eq!(a, b, "step {step}: fill_u64s({len})");
            }
        }
    }
    assert_eq!(
        fast.next_u64(),
        slow.next_u64(),
        "stream position after the schedule"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ChaCha's overridden `next_u64` and `fill_u64s`, interleaved with
    /// `next_u32` and `fill_bytes` at lengths that cross the 1,024-byte
    /// (16-block) refill batch at varying offsets, read the same byte
    /// stream as the trait defaults.
    #[test]
    fn prop_chacha_mixed_draws_match_byte_stream(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..4, 0usize..80), 1..120),
    ) {
        check_mixed_draws_match_byte_stream(
            ChaChaRng::from_u64_seed(seed),
            ByteStream(ChaChaRng::from_u64_seed(seed)),
            &ops,
        );
    }

    /// The same mixed schedules on Keccak, across its rate boundaries.
    #[test]
    fn prop_keccak_mixed_draws_match_byte_stream(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..4, 0usize..80), 1..120),
    ) {
        check_mixed_draws_match_byte_stream(
            KeccakRng::from_u64_seed(seed),
            ByteStream(KeccakRng::from_u64_seed(seed)),
            &ops,
        );
    }

    /// ChaCha's whole-block `fill_u64s` equals repeated `next_u64` at
    /// awkward lengths, across block boundaries and unaligned starts.
    #[test]
    fn prop_chacha_fill_u64s_is_stream_equivalent(
        seed in any::<u64>(),
        prefix in 0usize..130,
        order in 0usize..5,
    ) {
        check_block_fill_matches_word_loop(ChaChaRng::from_u64_seed, seed, prefix, order);
    }

    /// Keccak's lane-filled `fill_u64s` equals repeated `next_u64` at
    /// awkward lengths, across rate boundaries and unaligned starts.
    #[test]
    fn prop_keccak_fill_u64s_is_stream_equivalent(
        seed in any::<u64>(),
        prefix in 0usize..280,
        order in 0usize..5,
    ) {
        check_block_fill_matches_word_loop(KeccakRng::from_u64_seed, seed, prefix, order);
    }
}
