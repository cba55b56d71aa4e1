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

/// Keystream blocks per batch: the one refill unit of [`ChaChaRng`].
const BATCH_BLOCKS: usize = 16;

/// A batch as little-endian `u64` words, eight per 64-byte block.
const BATCH_WORDS: usize = 8 * BATCH_BLOCKS;

/// A batch in bytes (1,024).
const BATCH_BYTES: usize = 64 * BATCH_BLOCKS;

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

/// Packs one 16-word state into eight little-endian `u64` words.
#[inline(always)]
fn state_to_u64s(state: &[u32; 16], out: &mut [u64]) {
    for (j, w) in out[..8].iter_mut().enumerate() {
        *w = u64::from(state[2 * j]) | (u64::from(state[2 * j + 1]) << 32);
    }
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
    /// little-endian `u64` words, byte-identical to [`block`](Self::block).
    pub fn block_u64s(&self, counter: u32) -> [u64; 8] {
        let mut out = [0u64; 8];
        state_to_u64s(&self.block_state(u64::from(counter)), &mut out);
        out
    }

    /// Produces the 64-byte keystream block for the given counter value.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let state = self.block_state(u64::from(counter));
        let mut out = [0u8; 64];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// State words 12 and 13 for a 64-bit block index: the index is added
    /// to the 64-bit number whose high half is the first nonce word. Below
    /// 2^32 that is the RFC 8439 layout (word 12 the counter, word 13 the
    /// nonce word); with a zero nonce, as in [`ChaChaRng`], it is the
    /// original ChaCha layout with a 64-bit block counter.
    #[inline(always)]
    fn counter_words(&self, block: u64) -> [u32; 2] {
        let wide = (u64::from(self.nonce[0]) << 32).wrapping_add(block);
        [wide as u32, (wide >> 32) as u32]
    }

    /// The initial (pre-rounds) state for a 64-bit block index.
    #[inline(always)]
    fn initial_state(&self, block: u64) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[0..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12..14].copy_from_slice(&self.counter_words(block));
        state[14..16].copy_from_slice(&self.nonce[1..]);
        state
    }

    /// The scalar block function: twenty rounds plus the feed-forward of
    /// the initial state. The RFC 8439 oracle every batch path must match.
    fn block_state(&self, block: u64) -> [u32; 16] {
        let mut state = self.initial_state(block);
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
        for (word, init) in state.iter_mut().zip(initial) {
            *word = word.wrapping_add(init);
        }
        state
    }

    /// Writes the [`BATCH_BLOCKS`] consecutive blocks starting at `block`
    /// into `out`, eight words per block. On x86_64 CPUs with AVX-512F or
    /// AVX2 the blocks are computed together by the vector body of
    /// [`vectored`]; elsewhere they are [`BATCH_BLOCKS`] scalar blocks.
    /// Every path writes the same words.
    #[inline]
    fn batch(&self, block: u64, out: &mut [u64; BATCH_WORDS]) {
        #[cfg(target_arch = "x86_64")]
        if vectored::avx512f(self, block, out) || vectored::avx2(self, block, out) {
            return;
        }
        self.batch_scalar(block, out);
    }

    /// The fallback batch: one scalar block function call per block.
    /// Without vector rotates the structure-of-arrays body is slower than
    /// this.
    fn batch_scalar(&self, block: u64, out: &mut [u64; BATCH_WORDS]) {
        for (k, words) in out.chunks_exact_mut(8).enumerate() {
            state_to_u64s(&self.block_state(block.wrapping_add(k as u64)), words);
        }
    }
}

/// The x86_64 batch path: all [`BATCH_BLOCKS`] blocks of a batch in
/// structure-of-arrays form, compiled under an AVX-512F or an AVX2 shim.
/// Isolated in its own module so the `unsafe` surface of this crate stays
/// at the two shim calls, each behind runtime CPU detection.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod vectored {
    use super::{state_to_u64s, ChaCha20, BATCH_BLOCKS, BATCH_WORDS};

    /// Computes the batch under AVX-512F and returns `true`, or returns
    /// `false` with `out` untouched when the CPU lacks AVX-512F.
    pub(super) fn avx512f(cipher: &ChaCha20, block: u64, out: &mut [u64; BATCH_WORDS]) -> bool {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return false;
        }
        // SAFETY: AVX-512F availability was just verified at runtime (std
        // caches the detection result after the first query).
        unsafe { batch_avx512f(cipher, block, out) };
        true
    }

    /// Computes the batch under AVX2 and returns `true`, or returns
    /// `false` with `out` untouched when the CPU lacks AVX2.
    pub(super) fn avx2(cipher: &ChaCha20, block: u64, out: &mut [u64; BATCH_WORDS]) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: AVX2 availability was just verified at runtime (std
        // caches the detection result after the first query).
        unsafe { batch_avx2(cipher, block, out) };
        true
    }

    /// The batch body with 512-bit registers: each `[u32; 16]` lane vector
    /// is one register and the rotates lower to `vprold`.
    ///
    /// # Safety
    ///
    /// The caller must verify AVX-512F availability at runtime
    /// (`is_x86_feature_detected!("avx512f")`) before calling.
    #[target_feature(enable = "avx512f")]
    fn batch_avx512f(cipher: &ChaCha20, block: u64, out: &mut [u64; BATCH_WORDS]) {
        wide_batch(cipher, block, out);
    }

    /// The batch body with 256-bit registers.
    ///
    /// # Safety
    ///
    /// The caller must verify AVX2 availability at runtime
    /// (`is_x86_feature_detected!("avx2")`) before calling.
    #[target_feature(enable = "avx2")]
    fn batch_avx2(cipher: &ChaCha20, block: u64, out: &mut [u64; BATCH_WORDS]) {
        wide_batch(cipher, block, out);
    }

    /// Runs the blocks `block .. block + BATCH_BLOCKS` together: `v[i]`
    /// holds state word `i` of every block, so each quarter-round step is
    /// one elementwise op over [`BATCH_BLOCKS`] lanes, which the shims
    /// compile to vector instructions.
    #[inline(always)]
    fn wide_batch(cipher: &ChaCha20, block: u64, out: &mut [u64; BATCH_WORDS]) {
        let base = cipher.initial_state(block);
        let mut v = [[0u32; BATCH_BLOCKS]; 16];
        for (lane, &word) in v.iter_mut().zip(&base) {
            *lane = [word; BATCH_BLOCKS];
        }
        let counters: [[u32; 2]; BATCH_BLOCKS] =
            std::array::from_fn(|k| cipher.counter_words(block.wrapping_add(k as u64)));
        v[12] = counters.map(|[low, _]| low);
        v[13] = counters.map(|[_, high]| high);
        let initial = v;
        for _ in 0..10 {
            // Column rounds, each quarter-round across every block.
            quarter_round_x(&mut v, 0, 4, 8, 12);
            quarter_round_x(&mut v, 1, 5, 9, 13);
            quarter_round_x(&mut v, 2, 6, 10, 14);
            quarter_round_x(&mut v, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round_x(&mut v, 0, 5, 10, 15);
            quarter_round_x(&mut v, 1, 6, 11, 12);
            quarter_round_x(&mut v, 2, 7, 8, 13);
            quarter_round_x(&mut v, 3, 4, 9, 14);
        }
        for (k, words) in out.chunks_exact_mut(8).enumerate() {
            let mut state = [0u32; 16];
            for (i, word) in state.iter_mut().enumerate() {
                *word = v[i][k].wrapping_add(initial[i][k]);
            }
            state_to_u64s(&state, words);
        }
    }

    /// One quarter-round over every block of the batch at once.
    #[inline(always)]
    fn quarter_round_x(v: &mut [[u32; BATCH_BLOCKS]; 16], a: usize, b: usize, c: usize, d: usize) {
        #[inline(always)]
        fn add(x: [u32; BATCH_BLOCKS], y: [u32; BATCH_BLOCKS]) -> [u32; BATCH_BLOCKS] {
            let mut o = [0; BATCH_BLOCKS];
            for l in 0..BATCH_BLOCKS {
                o[l] = x[l].wrapping_add(y[l]);
            }
            o
        }
        #[inline(always)]
        fn xor_rot<const R: u32>(
            x: [u32; BATCH_BLOCKS],
            y: [u32; BATCH_BLOCKS],
        ) -> [u32; BATCH_BLOCKS] {
            let mut o = [0; BATCH_BLOCKS];
            for l in 0..BATCH_BLOCKS {
                o[l] = (x[l] ^ y[l]).rotate_left(R);
            }
            o
        }
        v[a] = add(v[a], v[b]);
        v[d] = xor_rot::<16>(v[d], v[a]);
        v[c] = add(v[c], v[d]);
        v[b] = xor_rot::<12>(v[b], v[c]);
        v[a] = add(v[a], v[b]);
        v[d] = xor_rot::<8>(v[d], v[a]);
        v[c] = add(v[c], v[d]);
        v[b] = xor_rot::<7>(v[b], v[c]);
    }
}

/// A PRNG backed by the ChaCha20 keystream, as in the Falcon reference
/// implementation and the paper's Table 1 measurements.
///
/// The generator computes its keystream in batches of sixteen blocks
/// (1,024 bytes): [`next_u64`](RandomSource::next_u64),
/// [`next_u32`](RandomSource::next_u32) and
/// [`fill_bytes`](RandomSource::fill_bytes) draw from one buffered batch,
/// and [`fill_u64s`](RandomSource::fill_u64s) writes whole batches
/// straight into the caller's slice. The block counter is 64 bits wide, so
/// the stream does not repeat after 2^32 blocks; below that it is exactly
/// the RFC 8439 stream of [`ChaCha20::block`] with a zero nonce.
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
    /// The first block of the next batch; always a multiple of
    /// [`BATCH_BLOCKS`], so no batch straddles the carry into word 13.
    block: u64,
    /// The buffered batch.
    buf: [u64; BATCH_WORDS],
    /// The next unread byte of `buf`.
    pos: usize,
}

impl ChaChaRng {
    /// Creates a generator from a 256-bit seed (zero nonce, counter 0).
    pub fn from_seed(seed: [u8; 32]) -> Self {
        ChaChaRng {
            cipher: ChaCha20::new(&seed, &[0u8; 12]),
            block: 0,
            buf: [0u64; BATCH_WORDS],
            pos: BATCH_BYTES,
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
        self.cipher.batch(self.block, &mut self.buf);
        self.block = self.block.wrapping_add(BATCH_BLOCKS as u64);
        self.pos = 0;
    }
}

impl RandomSource for ChaChaRng {
    fn fill_bytes(&mut self, dst: &mut [u8]) {
        let mut written = 0;
        while written < dst.len() {
            if self.pos == BATCH_BYTES {
                self.refill();
            }
            let word = self.buf[self.pos / 8].to_le_bytes();
            let offset = self.pos % 8;
            let n = (dst.len() - written).min(8 - offset);
            dst[written..written + n].copy_from_slice(&word[offset..offset + n]);
            self.pos += n;
            written += n;
        }
    }

    /// Fast path: at a word-aligned position the next buffered word is
    /// returned as is; otherwise (after `next_u32` or byte draws) the word
    /// takes the byte path. Stream-equivalent to the default
    /// implementation.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == BATCH_BYTES {
            self.refill();
        }
        if self.pos.is_multiple_of(8) {
            let word = self.buf[self.pos / 8];
            self.pos += 8;
            word
        } else {
            let mut b = [0u8; 8];
            self.fill_bytes(&mut b);
            u64::from_le_bytes(b)
        }
    }

    /// Batch-filled override: the rest of the buffered batch first, then
    /// whole batches computed straight into `dst`, then a sub-batch tail
    /// from a fresh buffered batch. Stream-equivalent to the default
    /// implementation (see the trait contract).
    fn fill_u64s(&mut self, dst: &mut [u64]) {
        if !self.pos.is_multiple_of(8) {
            // Every word straddles two buffered words: take the byte path.
            for w in dst {
                *w = self.next_u64();
            }
            return;
        }
        let rest = &self.buf[self.pos / 8..];
        let head = rest.len().min(dst.len());
        dst[..head].copy_from_slice(&rest[..head]);
        self.pos += 8 * head;
        let mut batches = dst[head..].chunks_exact_mut(BATCH_WORDS);
        for batch in &mut batches {
            let batch = batch.try_into().expect("a whole batch");
            self.cipher.batch(self.block, batch);
            self.block = self.block.wrapping_add(BATCH_BLOCKS as u64);
        }
        let tail = batches.into_remainder();
        if !tail.is_empty() {
            self.refill();
            tail.copy_from_slice(&self.buf[..tail.len()]);
            self.pos = 8 * tail.len();
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

    /// Skips `pre_bytes` on two identically seeded generators, then draws
    /// `words` through `fill_u64s` on one and `next_u64` on the other;
    /// the words and the following stream position must agree.
    fn check_fill_u64s_against_next_u64(seed: u8, pre_bytes: usize, words: usize) {
        let mut fast = ChaChaRng::from_seed([seed; 32]);
        let mut slow = ChaChaRng::from_seed([seed; 32]);
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

    /// The batch-filled `fill_u64s` must be stream-equivalent to the
    /// default byte-wise implementation, including when the request starts
    /// mid-block, crosses block boundaries, or starts at an unaligned byte
    /// position.
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
            check_fill_u64s_against_next_u64(9, pre_bytes, words);
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

    /// Block `block` of the 64-bit-counter stream through the RFC 8439
    /// oracle: the counter's high half is carried into the first nonce
    /// word.
    fn oracle_block(key: &[u8; 32], nonce: &[u8; 12], block: u64) -> [u8; 64] {
        let mut carried = *nonce;
        let first = u32::from_le_bytes(nonce[..4].try_into().unwrap());
        carried[..4].copy_from_slice(&first.wrapping_add((block >> 32) as u32).to_le_bytes());
        ChaCha20::new(key, &carried).block(block as u32)
    }

    /// Batches starting at each of `counters` are byte-identical to
    /// sixteen single `block` calls on every path the host has: the
    /// AVX-512F shim, the AVX2 shim and the scalar fallback, each called
    /// directly. Batches that cross 2^32 carry into the first nonce word.
    fn check_batch_on_every_path(key: &[u8; 32], nonce: &[u8; 12], counters: &[u64]) {
        type BatchPath = fn(&ChaCha20, u64, &mut [u64; BATCH_WORDS]) -> bool;
        let paths: Vec<(&str, BatchPath)> = vec![
            ("scalar", |cipher, block, out| {
                cipher.batch_scalar(block, out);
                true
            }),
            #[cfg(target_arch = "x86_64")]
            ("avx512f", vectored::avx512f),
            #[cfg(target_arch = "x86_64")]
            ("avx2", vectored::avx2),
        ];
        let cipher = ChaCha20::new(key, nonce);
        'paths: for (name, path) in paths {
            for &counter in counters {
                let mut words = [0u64; BATCH_WORDS];
                if !path(&cipher, counter, &mut words) {
                    println!("skipping the {name} batch path: this CPU lacks it");
                    continue 'paths;
                }
                for k in 0..BATCH_BLOCKS {
                    let single = oracle_block(key, nonce, counter + k as u64);
                    for (j, word) in words[8 * k..8 * k + 8].iter().enumerate() {
                        assert_eq!(
                            word.to_le_bytes(),
                            single[8 * j..8 * j + 8],
                            "{name}: counter {counter}+{k}, word {j}"
                        );
                    }
                }
            }
        }
    }

    /// Batches at the first blocks, an interior block and the blocks
    /// just below 2^32 match single blocks on every path.
    #[test]
    fn four_blocks_match_single_blocks() {
        check_batch_on_every_path(
            &[0x5au8; 32],
            &[3u8; 12],
            &[0, 1, 1000, u64::from(u32::MAX - 1)],
        );
    }

    /// A second key and nonce: every path matches single blocks, and the
    /// dispatched batch matches the scalar fallback.
    #[test]
    fn eight_blocks_match_single_blocks() {
        let (key, nonce) = ([0xa7u8; 32], [11u8; 12]);
        let counters = [0u64, 1, 77, u64::from(u32::MAX - 3)];
        check_batch_on_every_path(&key, &nonce, &counters);
        let cipher = ChaCha20::new(&key, &nonce);
        for counter in counters {
            let mut dispatched = [0u64; BATCH_WORDS];
            let mut scalar = [0u64; BATCH_WORDS];
            cipher.batch(counter, &mut dispatched);
            cipher.batch_scalar(counter, &mut scalar);
            assert_eq!(
                dispatched, scalar,
                "dispatched vs scalar, counter {counter}"
            );
        }
    }

    /// The buffered generator must be byte-stream-identical to the
    /// one-byte-at-a-time generator at request lengths bracketing every
    /// block boundary and the 1,024-byte batch.
    #[test]
    fn vectorized_byte_stream_matches_scalar_at_boundary_lengths() {
        for len in [
            1usize, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1000, 1020, 1021, 1022, 1023, 1024,
            1025, 1026, 1027, 1028, 2047, 2048, 2049,
        ] {
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

    /// `fill_u64s` boundary matrix around the 1,024-byte (128-word)
    /// batch: word counts bracketing one and eight batches, from byte
    /// offsets bracketing a block, a quarter batch and the end of the
    /// buffered batch — every edge where the buffered head, the direct
    /// batches and the tail hand over.
    #[test]
    fn fill_u64s_batch_edges_match_byte_stream() {
        let mut cases = vec![
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
            (0, 1031),
            (0, 1032),
            (0, 1033),
        ];
        for pre_bytes in 1020..=1028 {
            for words in [1, 127, 128, 129, 1031, 1032, 1033] {
                cases.push((pre_bytes, words));
            }
        }
        for (pre_bytes, words) in cases {
            check_fill_u64s_against_next_u64(0x71, pre_bytes, words);
        }
    }

    /// The block counter is 64 bits wide: started two batches before
    /// 2^32, the generator's second batch is block 0..16 under nonce word
    /// 1, not a repeat of the stream's start — through both the buffered
    /// and the direct path.
    #[test]
    fn stream_does_not_repeat_after_two_pow_32_blocks() {
        let key = [0x3cu8; 32];
        let start = (1u64 << 32) - BATCH_BLOCKS as u64;
        let words_of = |nonce: [u8; 12], counters: std::ops::RangeInclusive<u32>| -> Vec<u64> {
            let cipher = ChaCha20::new(&key, &nonce);
            counters
                .flat_map(|c| cipher.block(c))
                .collect::<Vec<u8>>()
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .collect()
        };
        let last = words_of([0; 12], u32::MAX - 15..=u32::MAX);
        let carried = words_of([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0..=15);
        let first = words_of([0; 12], 0..=15);
        assert_ne!(carried, first);

        let at_start = || ChaChaRng {
            block: start,
            ..ChaChaRng::from_seed(key)
        };
        let mut buffered = at_start();
        let via_next: Vec<u64> = (0..2 * BATCH_WORDS).map(|_| buffered.next_u64()).collect();
        let mut direct = at_start();
        let mut via_fill = vec![0u64; 2 * BATCH_WORDS];
        direct.fill_u64s(&mut via_fill);
        for words in [via_next, via_fill] {
            assert_eq!(words[..BATCH_WORDS], last[..]);
            assert_eq!(words[BATCH_WORDS..], carried[..]);
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
