//! The ChaCha20 stream cipher (RFC 8439), used as a PRNG.

use crate::RandomSource;

/// The ChaCha20 block function.
///
/// State layout per RFC 8439: four constant words, eight key words, one
/// block counter and three nonce words. [`block`](ChaCha20::block) produces
/// one 64-byte keystream block.
///
/// # Examples
///
/// ```
/// use ctgauss_prng::ChaCha20;
///
/// let cipher = ChaCha20::new(&[0u8; 32], &[0u8; 12]);
/// let block = cipher.block(0);
/// assert_eq!(block.len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

const CHACHA_CONSTANTS: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One ChaCha quarter-round over `N` independent blocks at once: `v[i]`
/// holds state word `i` of all `N` blocks, so every step is an `N`-lane
/// elementwise op (add / xor / rotate) that auto-vectorizes — to 128-bit
/// registers at `N = 4` on the x86_64 baseline, and to 256-bit registers
/// at `N = 8` when compiled under the AVX2 shim of
/// [`ChaCha20::eight_blocks_u64s`].
#[inline(always)]
fn quarter_round_xn<const N: usize>(
    v: &mut [[u32; N]; 16],
    a: usize,
    b: usize,
    c: usize,
    d: usize,
) {
    #[inline(always)]
    fn add<const N: usize>(x: [u32; N], y: [u32; N]) -> [u32; N] {
        let mut o = [0; N];
        for l in 0..N {
            o[l] = x[l].wrapping_add(y[l]);
        }
        o
    }
    #[inline(always)]
    fn xor_rot<const N: usize, const R: u32>(x: [u32; N], y: [u32; N]) -> [u32; N] {
        let mut o = [0; N];
        for l in 0..N {
            o[l] = (x[l] ^ y[l]).rotate_left(R);
        }
        o
    }
    v[a] = add(v[a], v[b]);
    v[d] = xor_rot::<N, 16>(v[d], v[a]);
    v[c] = add(v[c], v[d]);
    v[b] = xor_rot::<N, 12>(v[b], v[c]);
    v[a] = add(v[a], v[b]);
    v[d] = xor_rot::<N, 8>(v[d], v[a]);
    v[c] = add(v[c], v[d]);
    v[b] = xor_rot::<N, 7>(v[b], v[c]);
}

impl ChaCha20 {
    /// Creates a cipher instance from a 256-bit key and 96-bit nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let mut k = [0u32; 8];
        for (i, w) in k.iter_mut().enumerate() {
            *w = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
        }
        let mut n = [0u32; 3];
        for (i, w) in n.iter_mut().enumerate() {
            *w = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
        }
        ChaCha20 { key: k, nonce: n }
    }

    /// Produces the keystream block for the given counter value as eight
    /// little-endian `u64` words — the allocation-free fast path behind
    /// [`RandomSource::fill_u64s`], byte-identical to [`block`](Self::block).
    pub fn block_u64s(&self, counter: u32) -> [u64; 8] {
        let bytes = self.block(counter);
        let mut out = [0u64; 8];
        for (i, w) in out.iter_mut().enumerate() {
            *w = u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8-byte chunk"));
        }
        out
    }

    /// The initial (pre-rounds) state for a given counter.
    fn initial_state(&self, counter: u32) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[0..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);
        state
    }

    /// Runs the four consecutive blocks `counter .. counter + 4` together:
    /// the state is assembled once and kept in structure-of-arrays form —
    /// state word `i` of all four (independent) blocks lives in one
    /// `[u32; 4]` lane vector, so each quarter-round step is four lanes
    /// of the same elementwise op and the compiler lowers it to vector
    /// instructions. Byte-identical to four [`block`](Self::block) calls
    /// with wrapping counter increments.
    fn four_states(&self, counter: u32) -> [[u32; 16]; 4] {
        self.wide_states::<4>(counter)
    }

    /// Runs the `N` consecutive blocks `counter .. counter + N` together
    /// in structure-of-arrays form — the width-generic engine behind
    /// [`four_blocks`](Self::four_blocks) (`N = 4`) and
    /// [`eight_blocks_u64s`](Self::eight_blocks_u64s) (`N = 8`).
    /// Byte-identical to `N` single [`block`](Self::block) calls with
    /// wrapping counter increments.
    #[inline(always)]
    fn wide_states<const N: usize>(&self, counter: u32) -> [[u32; 16]; N] {
        let base = self.initial_state(counter);
        let mut v: [[u32; N]; 16] = [[0; N]; 16];
        for (i, lane) in v.iter_mut().enumerate() {
            *lane = [base[i]; N];
        }
        for (k, w) in v[12].iter_mut().enumerate() {
            *w = counter.wrapping_add(k as u32);
        }
        let initial = v;
        for _ in 0..10 {
            // Column rounds, each quarter-round across all N blocks.
            quarter_round_xn(&mut v, 0, 4, 8, 12);
            quarter_round_xn(&mut v, 1, 5, 9, 13);
            quarter_round_xn(&mut v, 2, 6, 10, 14);
            quarter_round_xn(&mut v, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round_xn(&mut v, 0, 5, 10, 15);
            quarter_round_xn(&mut v, 1, 6, 11, 12);
            quarter_round_xn(&mut v, 2, 7, 8, 13);
            quarter_round_xn(&mut v, 3, 4, 9, 14);
        }
        let mut states = [[0u32; 16]; N];
        for i in 0..16 {
            for (k, state) in states.iter_mut().enumerate() {
                state[i] = v[i][k].wrapping_add(initial[i][k]);
            }
        }
        states
    }

    /// Collapses `N` post-rounds states into little-endian `u64` words,
    /// eight per block.
    #[inline(always)]
    fn states_to_u64s<const N: usize>(states: &[[u32; 16]; N], out: &mut [u64]) {
        for (k, state) in states.iter().enumerate() {
            for j in 0..8 {
                out[8 * k + j] = u64::from(state[2 * j]) | (u64::from(state[2 * j + 1]) << 32);
            }
        }
    }

    /// Four consecutive keystream blocks (`counter .. counter + 4`) as 256
    /// bytes — the batched refill path of [`ChaChaRng`].
    pub fn four_blocks(&self, counter: u32) -> [u8; 256] {
        let states = self.four_states(counter);
        let mut out = [0u8; 256];
        for (k, state) in states.iter().enumerate() {
            for (i, w) in state.iter().enumerate() {
                out[64 * k + 4 * i..64 * k + 4 * i + 4].copy_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Four consecutive keystream blocks as 32 little-endian `u64` words —
    /// a bulk path of [`RandomSource::fill_u64s`], byte-identical to
    /// four [`block_u64s`](Self::block_u64s) calls.
    pub fn four_blocks_u64s(&self, counter: u32) -> [u64; 32] {
        let states = self.four_states(counter);
        let mut out = [0u64; 32];
        Self::states_to_u64s(&states, &mut out);
        out
    }

    /// Eight consecutive keystream blocks as 64 little-endian `u64`
    /// words — the widest bulk path of [`RandomSource::fill_u64s`],
    /// byte-identical to eight [`block_u64s`](Self::block_u64s) calls.
    ///
    /// On x86_64 machines with AVX2 the eight-lane round loop is compiled
    /// under a `#[target_feature(enable = "avx2")]` shim (selected once
    /// per call by cached runtime detection), so the structure-of-arrays
    /// quarter-rounds lower to 256-bit register ops; everywhere else the
    /// same portable code runs under the baseline instruction set. Both
    /// paths produce the identical byte stream — vectorization changes
    /// how blocks are computed, never what they contain.
    pub fn eight_blocks_u64s(&self, counter: u32) -> [u64; 64] {
        #[cfg(target_arch = "x86_64")]
        if let Some(out) = vectored::eight_blocks_u64s(self, counter) {
            return out;
        }
        self.eight_blocks_u64s_portable(counter)
    }

    /// The portable eight-block body; also the code the AVX2 shim
    /// compiles under its wider instruction set.
    #[inline(always)]
    fn eight_blocks_u64s_portable(&self, counter: u32) -> [u64; 64] {
        let states = self.wide_states::<8>(counter);
        let mut out = [0u64; 64];
        Self::states_to_u64s(&states, &mut out);
        out
    }

    /// Produces the 64-byte keystream block for the given counter value.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let mut state = self.initial_state(counter);
        let initial = state;

        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// The AVX2 execution shim for the eight-block refill. Isolated in its
/// own module so the `unsafe` surface of this crate stays at exactly one
/// function: the `#[target_feature]` wrapper whose body is the portable
/// code, recompiled with 256-bit registers enabled.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod vectored {
    use super::ChaCha20;

    /// The runtime-dispatched entry: `Some` with the eight blocks when
    /// the CPU has AVX2 (computed under the shim), `None` otherwise.
    #[inline]
    pub(super) fn eight_blocks_u64s(cipher: &ChaCha20, counter: u32) -> Option<[u64; 64]> {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability was just verified at runtime
            // (the detection result is cached by std after first use).
            Some(unsafe { eight_blocks_u64s_avx2(cipher, counter) })
        } else {
            None
        }
    }

    /// # Safety
    ///
    /// The caller must verify AVX2 availability at runtime
    /// (`is_x86_feature_detected!("avx2")`) before calling.
    #[target_feature(enable = "avx2")]
    fn eight_blocks_u64s_avx2(cipher: &ChaCha20, counter: u32) -> [u64; 64] {
        cipher.eight_blocks_u64s_portable(counter)
    }
}

/// Bytes buffered per [`ChaChaRng`] refill: four 64-byte keystream blocks
/// generated together (one state load, four counter increments).
const REFILL_BYTES: usize = 256;

/// A PRNG backed by the ChaCha20 keystream, as in the Falcon reference
/// implementation and the paper's Table 1 measurements.
///
/// Refills generate four consecutive blocks per call
/// ([`ChaCha20::four_blocks`]), which interleaves the four independent
/// block computations; the byte stream is exactly the single-block
/// stream, just produced in larger strides.
///
/// # Examples
///
/// ```
/// use ctgauss_prng::{ChaChaRng, RandomSource};
///
/// let mut a = ChaChaRng::from_seed([1u8; 32]);
/// let mut b = ChaChaRng::from_seed([1u8; 32]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct ChaChaRng {
    cipher: ChaCha20,
    counter: u32,
    buf: [u8; REFILL_BYTES],
    pos: usize,
}

impl ChaChaRng {
    /// Creates a generator from a 256-bit seed (zero nonce, counter 0).
    pub fn from_seed(seed: [u8; 32]) -> Self {
        ChaChaRng {
            cipher: ChaCha20::new(&seed, &[0u8; 12]),
            counter: 0,
            buf: [0u8; REFILL_BYTES],
            pos: REFILL_BYTES,
        }
    }

    /// Creates a generator from a 64-bit convenience seed (expanded into the
    /// key by repetition with a counter mixed in).
    pub fn from_u64_seed(seed: u64) -> Self {
        let mut key = [0u8; 32];
        for (i, chunk) in key.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&(seed.wrapping_add(i as u64)).to_le_bytes());
        }
        Self::from_seed(key)
    }

    fn refill(&mut self) {
        self.buf = self.cipher.four_blocks(self.counter);
        self.counter = self.counter.wrapping_add(4);
        self.pos = 0;
    }
}

impl RandomSource for ChaChaRng {
    fn fill_bytes(&mut self, dst: &mut [u8]) {
        let mut written = 0;
        while written < dst.len() {
            if self.pos == REFILL_BYTES {
                self.refill();
            }
            let n = (dst.len() - written).min(REFILL_BYTES - self.pos);
            dst[written..written + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            written += n;
        }
    }

    /// Fast path: the next 8 buffered bytes are read as one word; only a
    /// word that straddles the end of the buffer takes the byte path.
    /// Stream-equivalent to the default implementation.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == REFILL_BYTES {
            self.refill();
        }
        if self.pos + 8 <= REFILL_BYTES {
            let word = u64::from_le_bytes(
                self.buf[self.pos..self.pos + 8]
                    .try_into()
                    .expect("8-byte chunk"),
            );
            self.pos += 8;
            word
        } else {
            let mut b = [0u8; 8];
            self.fill_bytes(&mut b);
            u64::from_le_bytes(b)
        }
    }

    /// Block-filled override: whole keystream blocks are converted to
    /// `u64` words straight into the destination — 32 words per
    /// four-block batch while the request is long, 8 per single block for
    /// the tail — bypassing the byte staging buffer for the bulk of the
    /// request. Stream-equivalent to the default byte-at-a-time
    /// implementation (see the trait contract).
    fn fill_u64s(&mut self, dst: &mut [u64]) {
        let mut i = 0;
        // Drain whatever is left of the buffered blocks first so the byte
        // stream stays continuous.
        while i < dst.len() && self.pos < REFILL_BYTES {
            if self.pos + 8 <= REFILL_BYTES {
                dst[i] = u64::from_le_bytes(
                    self.buf[self.pos..self.pos + 8]
                        .try_into()
                        .expect("8-byte chunk"),
                );
                self.pos += 8;
            } else {
                // A word straddling the buffer boundary: take the byte path.
                dst[i] = self.next_u64();
            }
            i += 1;
        }
        // Eight whole blocks at a time straight into the destination —
        // the vectorized refill (AVX2 where the CPU has it, portable
        // structure-of-arrays otherwise; identical bytes either way).
        while dst.len() - i >= 64 {
            dst[i..i + 64].copy_from_slice(&self.cipher.eight_blocks_u64s(self.counter));
            self.counter = self.counter.wrapping_add(8);
            i += 64;
        }
        // Four whole blocks at a time: one state load and four
        // interleaved block computations per call.
        while dst.len() - i >= 32 {
            dst[i..i + 32].copy_from_slice(&self.cipher.four_blocks_u64s(self.counter));
            self.counter = self.counter.wrapping_add(4);
            i += 32;
        }
        // Whole single blocks: 8 words per block function call.
        while dst.len() - i >= 8 {
            dst[i..i + 8].copy_from_slice(&self.cipher.block_u64s(self.counter));
            self.counter = self.counter.wrapping_add(1);
            i += 8;
        }
        // Tail shorter than a block: refill the buffer as usual.
        for w in &mut dst[i..] {
            *w = self.next_u64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 section 2.3.2: key = 00..1f, nonce = 00 00 00 09 00 00 00 4a
    /// 00 00 00 00, counter = 1.
    #[test]
    fn rfc8439_block_test_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0u8, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let cipher = ChaCha20::new(&key, &nonce);
        let block = cipher.block(1);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(block, expected);
    }

    /// RFC 8439 section 2.4.2 keystream (encrypting the known plaintext and
    /// comparing to the ciphertext of the RFC exercises blocks 1 and 2).
    #[test]
    fn rfc8439_encryption_test_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0u8, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let cipher = ChaCha20::new(&key, &nonce);
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut keystream = Vec::new();
        let mut counter = 1;
        while keystream.len() < plaintext.len() {
            keystream.extend_from_slice(&cipher.block(counter));
            counter += 1;
        }
        let ciphertext: Vec<u8> = plaintext
            .iter()
            .zip(&keystream)
            .map(|(p, k)| p ^ k)
            .collect();
        let expected_prefix: [u8; 16] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81,
        ];
        assert_eq!(&ciphertext[..16], &expected_prefix);
        let expected_suffix: [u8; 8] = [0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d];
        assert_eq!(&ciphertext[ciphertext.len() - 8..], &expected_suffix);
    }

    #[test]
    fn rng_streams_across_block_boundaries() {
        let mut rng = ChaChaRng::from_seed([3u8; 32]);
        let mut all = vec![0u8; 200];
        rng.fill_bytes(&mut all);
        // Same bytes drawn one at a time.
        let mut rng2 = ChaChaRng::from_seed([3u8; 32]);
        for (i, &expected) in all.iter().enumerate() {
            assert_eq!(rng2.next_u8(), expected, "byte {i}");
        }
    }

    /// The block-filled `fill_u64s` must be stream-equivalent to the
    /// default byte-wise implementation, including when the request starts
    /// mid-block, crosses single-block and four-block boundaries, or
    /// starts at an unaligned byte position. Word counts around 32 and
    /// byte offsets around 256 exercise the four-block batch path's edges.
    #[test]
    fn fill_u64s_matches_byte_stream() {
        for (pre_bytes, words) in [
            (0usize, 40usize),
            (8, 17),
            (3, 20),
            (61, 9),
            (64, 8),
            (5, 1),
            (0, 31),
            (0, 32),
            (0, 33),
            (0, 64),
            (0, 100),
            (16, 32),
            (250, 10),
            (255, 40),
            (256, 32),
            (259, 36),
            (511, 5),
            (512, 64),
        ] {
            let mut fast = ChaChaRng::from_seed([9u8; 32]);
            let mut slow = ChaChaRng::from_seed([9u8; 32]);
            let mut skip = vec![0u8; pre_bytes];
            fast.fill_bytes(&mut skip);
            slow.fill_bytes(&mut skip);
            let mut via_fill = vec![0u64; words];
            fast.fill_u64s(&mut via_fill);
            let via_next: Vec<u64> = (0..words).map(|_| slow.next_u64()).collect();
            assert_eq!(via_fill, via_next, "pre_bytes={pre_bytes}, words={words}");
            // Both generators must resume the same stream afterwards.
            assert_eq!(fast.next_u64(), slow.next_u64(), "pre_bytes={pre_bytes}");
        }
    }

    #[test]
    fn block_u64s_matches_block_bytes() {
        let cipher = ChaCha20::new(&[0x42u8; 32], &[7u8; 12]);
        let words = cipher.block_u64s(3);
        let bytes = cipher.block(3);
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(
                w,
                u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap())
            );
        }
    }

    /// The interleaved four-block batch is byte-identical to four
    /// independent block calls with wrapping counter increments.
    #[test]
    fn four_blocks_match_single_blocks() {
        let cipher = ChaCha20::new(&[0x5au8; 32], &[3u8; 12]);
        for counter in [0u32, 1, 1000, u32::MAX - 1] {
            let batch = cipher.four_blocks(counter);
            let words = cipher.four_blocks_u64s(counter);
            for k in 0..4u32 {
                let single = cipher.block(counter.wrapping_add(k));
                let base = 64 * k as usize;
                assert_eq!(
                    &batch[base..base + 64],
                    &single[..],
                    "counter {counter}+{k}"
                );
                let single_words = cipher.block_u64s(counter.wrapping_add(k));
                assert_eq!(
                    &words[8 * k as usize..8 * k as usize + 8],
                    &single_words[..],
                    "counter {counter}+{k}"
                );
            }
        }
    }

    /// The vectorized eight-block batch is byte-identical to eight
    /// independent block calls with wrapping counter increments —
    /// whichever engine (AVX2 shim or portable) the host dispatches to.
    #[test]
    fn eight_blocks_match_single_blocks() {
        let cipher = ChaCha20::new(&[0xa7u8; 32], &[11u8; 12]);
        for counter in [0u32, 1, 77, u32::MAX - 3] {
            let words = cipher.eight_blocks_u64s(counter);
            let portable = cipher.eight_blocks_u64s_portable(counter);
            assert_eq!(words, portable, "dispatched vs portable, counter {counter}");
            for k in 0..8u32 {
                let single = cipher.block_u64s(counter.wrapping_add(k));
                assert_eq!(
                    &words[8 * k as usize..8 * k as usize + 8],
                    &single[..],
                    "counter {counter}+{k}"
                );
            }
        }
    }

    /// The vectorized-refill generator must be byte-stream-identical to
    /// the scalar (one `next_u8` at a time) generator at request lengths
    /// bracketing every block, four-block and eight-block boundary.
    #[test]
    fn vectorized_byte_stream_matches_scalar_at_boundary_lengths() {
        for len in [1usize, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1000] {
            let mut fast = ChaChaRng::from_seed([0x2cu8; 32]);
            let mut buf = vec![0u8; len];
            fast.fill_bytes(&mut buf);
            let mut slow = ChaChaRng::from_seed([0x2cu8; 32]);
            for (i, &expected) in buf.iter().enumerate() {
                assert_eq!(slow.next_u8(), expected, "len {len}, byte {i}");
            }
            // Both generators must resume the same stream afterwards.
            assert_eq!(fast.next_u64(), slow.next_u64(), "len {len}, resume");
        }
    }

    /// `fill_u64s` boundary matrix around the eight-block (64-word) bulk
    /// path: word counts bracketing 64 and 128, from byte offsets
    /// bracketing the 256-byte buffered refill — every edge where the
    /// vectorized path hands over to the narrower loops.
    #[test]
    fn fill_u64s_eight_block_refill_edges_match_byte_stream() {
        for (pre_bytes, words) in [
            (0usize, 63usize),
            (0, 64),
            (0, 65),
            (0, 96),
            (0, 127),
            (0, 128),
            (0, 129),
            (0, 1000),
            (8, 64),
            (61, 65),
            (255, 64),
            (256, 128),
            (257, 65),
            (511, 129),
        ] {
            let mut fast = ChaChaRng::from_seed([0x71u8; 32]);
            let mut slow = ChaChaRng::from_seed([0x71u8; 32]);
            let mut skip = vec![0u8; pre_bytes];
            fast.fill_bytes(&mut skip);
            slow.fill_bytes(&mut skip);
            let mut via_fill = vec![0u64; words];
            fast.fill_u64s(&mut via_fill);
            let via_next: Vec<u64> = (0..words).map(|_| slow.next_u64()).collect();
            assert_eq!(via_fill, via_next, "pre_bytes={pre_bytes}, words={words}");
            assert_eq!(fast.next_u64(), slow.next_u64(), "pre_bytes={pre_bytes}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaChaRng::from_u64_seed(1);
        let mut b = ChaChaRng::from_u64_seed(2);
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }
}
