//! The Keccak-f\[1600\] permutation, SHAKE XOFs and a Keccak-based PRNG.

use crate::RandomSource;

/// Round constants for Keccak-f\[1600\] (computed from the LFSR definition in
/// FIPS 202 at first use; cached thereafter).
fn round_constants() -> [u64; 24] {
    // rc(t) LFSR over GF(2): x^8 + x^6 + x^5 + x^4 + 1.
    let mut lfsr = 1u8;
    let mut rc_bit = |_t: usize| -> bool {
        let bit = lfsr & 1 == 1;
        let msb = lfsr & 0x80 != 0;
        lfsr <<= 1;
        if msb {
            lfsr ^= 0x71; // x^8 reduced: x^6 + x^5 + x^4 + 1
        }
        bit
    };
    let mut out = [0u64; 24];
    for (ir, rc) in out.iter_mut().enumerate() {
        let _ = ir;
        let mut word = 0u64;
        for j in 0..7 {
            if rc_bit(j) {
                word |= 1u64 << ((1usize << j) - 1);
            }
        }
        *rc = word;
    }
    out
}

/// Rotation offsets (rho step), indexed `[x][y]`.
const RHO: [[u32; 5]; 5] = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
];

/// The Keccak-f\[1600\] permutation state: 25 lanes of 64 bits, indexed
/// `lane[x + 5*y]`.
///
/// # Examples
///
/// ```
/// use ctgauss_prng::KeccakF1600;
///
/// let mut st = KeccakF1600::new();
/// st.permute();
/// assert_ne!(st.lanes()[0], 0); // permutation of all-zero state is non-zero
/// ```
#[derive(Debug, Clone)]
pub struct KeccakF1600 {
    lanes: [u64; 25],
    constants: [u64; 24],
}

impl Default for KeccakF1600 {
    fn default() -> Self {
        Self::new()
    }
}

impl KeccakF1600 {
    /// Creates an all-zero state.
    pub fn new() -> Self {
        KeccakF1600 {
            lanes: [0; 25],
            constants: round_constants(),
        }
    }

    /// Read-only view of the 25 lanes.
    pub fn lanes(&self) -> &[u64; 25] {
        &self.lanes
    }

    /// XORs a byte slice into the state starting at lane byte offset 0.
    pub fn absorb_bytes(&mut self, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.lanes[i / 8] ^= u64::from(b) << (8 * (i % 8));
        }
    }

    /// Extracts `n` bytes starting at byte `offset` of the state.
    pub fn extract_bytes(&self, offset: usize, n: usize, out: &mut Vec<u8>) {
        for i in offset..offset + n {
            out.push((self.lanes[i / 8] >> (8 * (i % 8))) as u8);
        }
    }

    /// Extracts `out.len()` bytes starting at byte `offset` of the state
    /// into a caller-provided buffer (the allocation-free counterpart of
    /// [`extract_bytes`](Self::extract_bytes)).
    pub fn extract_into(&self, offset: usize, out: &mut [u8]) {
        for (k, b) in out.iter_mut().enumerate() {
            let i = offset + k;
            *b = (self.lanes[i / 8] >> (8 * (i % 8))) as u8;
        }
    }

    /// Applies the 24-round Keccak-f\[1600\] permutation.
    pub fn permute(&mut self) {
        let a = &mut self.lanes;
        for round in 0..24 {
            // Theta.
            let mut c = [0u64; 5];
            for x in 0..5 {
                c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
            }
            let mut d = [0u64; 5];
            for x in 0..5 {
                d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            }
            for x in 0..5 {
                for y in 0..5 {
                    a[x + 5 * y] ^= d[x];
                }
            }
            // Rho and pi.
            let mut b = [0u64; 25];
            for x in 0..5 {
                for y in 0..5 {
                    let nx = y;
                    let ny = (2 * x + 3 * y) % 5;
                    b[nx + 5 * ny] = a[x + 5 * y].rotate_left(RHO[x][y]);
                }
            }
            // Chi.
            for x in 0..5 {
                for y in 0..5 {
                    a[x + 5 * y] =
                        b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
                }
            }
            // Iota.
            a[0] ^= self.constants[round];
        }
    }
}

/// Which SHAKE extendable-output function to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShakeVariant {
    /// SHAKE-128 (rate 168 bytes).
    Shake128,
    /// SHAKE-256 (rate 136 bytes).
    Shake256,
}

impl ShakeVariant {
    fn rate(self) -> usize {
        match self {
            ShakeVariant::Shake128 => 168,
            ShakeVariant::Shake256 => 136,
        }
    }
}

/// An incremental SHAKE XOF (FIPS 202).
///
/// # Examples
///
/// ```
/// use ctgauss_prng::{Shake, ShakeVariant};
///
/// let mut xof = Shake::new(ShakeVariant::Shake128);
/// xof.absorb(b"");
/// let out = xof.finalize_squeeze(4);
/// assert_eq!(out, vec![0x7f, 0x9c, 0x2b, 0xa4]);
/// ```
#[derive(Debug, Clone)]
pub struct Shake {
    state: KeccakF1600,
    variant: ShakeVariant,
    buffer: Vec<u8>,
    squeezing: bool,
    squeeze_pos: usize,
}

impl Shake {
    /// Creates an empty XOF of the given variant.
    pub fn new(variant: ShakeVariant) -> Self {
        Shake {
            state: KeccakF1600::new(),
            variant,
            buffer: Vec::new(),
            squeezing: false,
            squeeze_pos: 0,
        }
    }

    /// Absorbs message bytes.
    ///
    /// # Panics
    ///
    /// Panics if called after squeezing has started.
    pub fn absorb(&mut self, data: &[u8]) {
        assert!(!self.squeezing, "cannot absorb after squeezing started");
        self.buffer.extend_from_slice(data);
        let rate = self.variant.rate();
        while self.buffer.len() >= rate {
            let block: Vec<u8> = self.buffer.drain(..rate).collect();
            self.state.absorb_bytes(&block);
            self.state.permute();
        }
    }

    fn pad_and_switch(&mut self) {
        let rate = self.variant.rate();
        // SHAKE domain separation + pad10*1: append 0x1F, pad zeros, set top
        // bit of the final rate byte.
        let mut block = core::mem::take(&mut self.buffer);
        block.push(0x1f);
        block.resize(rate, 0);
        block[rate - 1] |= 0x80;
        self.state.absorb_bytes(&block);
        self.state.permute();
        self.squeezing = true;
        self.squeeze_pos = 0;
    }

    /// Squeezes `n` more output bytes (finalizing on first call).
    pub fn squeeze(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.squeeze_into(&mut out);
        out
    }

    /// Squeezes `dst.len()` more output bytes into a caller-provided
    /// buffer, finalizing on first call — the allocation-free counterpart
    /// of [`squeeze`](Self::squeeze).
    pub fn squeeze_into(&mut self, dst: &mut [u8]) {
        if !self.squeezing {
            self.pad_and_switch();
        }
        let rate = self.variant.rate();
        let mut filled = 0;
        while filled < dst.len() {
            if self.squeeze_pos == rate {
                self.state.permute();
                self.squeeze_pos = 0;
            }
            let take = (dst.len() - filled).min(rate - self.squeeze_pos);
            self.state
                .extract_into(self.squeeze_pos, &mut dst[filled..filled + take]);
            self.squeeze_pos += take;
            filled += take;
        }
    }

    /// Squeezes `dst.len()` more little-endian `u64` words, reading whole
    /// state lanes when the squeeze position is 8-byte aligned (it always
    /// is unless a caller previously drew a non-multiple-of-8 byte count:
    /// both SHAKE rates are lane-aligned). Stream-equivalent to squeezing
    /// `8 * dst.len()` bytes.
    pub fn squeeze_u64s_into(&mut self, dst: &mut [u64]) {
        if !self.squeezing {
            self.pad_and_switch();
        }
        let rate = self.variant.rate();
        for w in dst.iter_mut() {
            if self.squeeze_pos == rate {
                self.state.permute();
                self.squeeze_pos = 0;
            }
            if self.squeeze_pos.is_multiple_of(8) && rate - self.squeeze_pos >= 8 {
                // Lane-aligned: the next 8 stream bytes are exactly one
                // little-endian state lane.
                *w = self.state.lanes[self.squeeze_pos / 8];
                self.squeeze_pos += 8;
            } else {
                let mut b = [0u8; 8];
                self.squeeze_into(&mut b);
                *w = u64::from_le_bytes(b);
            }
        }
    }

    /// One-shot convenience: finalizes and squeezes `n` bytes.
    pub fn finalize_squeeze(mut self, n: usize) -> Vec<u8> {
        self.squeeze(n)
    }
}

/// A PRNG that squeezes an endless SHAKE-256 stream from a seed, standing in
/// for the Keccak-based generator of the prior work (IEEE TC 2018).
///
/// # Examples
///
/// ```
/// use ctgauss_prng::{KeccakRng, RandomSource};
///
/// let mut rng = KeccakRng::from_seed(b"seed material");
/// let _ = rng.next_u64();
/// ```
#[derive(Debug, Clone)]
pub struct KeccakRng {
    xof: Shake,
}

impl KeccakRng {
    /// Creates a generator from arbitrary seed bytes.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut xof = Shake::new(ShakeVariant::Shake256);
        xof.absorb(seed);
        KeccakRng { xof }
    }

    /// Creates a generator from a 64-bit convenience seed.
    pub fn from_u64_seed(seed: u64) -> Self {
        Self::from_seed(&seed.to_le_bytes())
    }
}

impl RandomSource for KeccakRng {
    fn fill_bytes(&mut self, dst: &mut [u8]) {
        self.xof.squeeze_into(dst);
    }

    /// Block-filled override: words come straight from the Keccak state
    /// lanes (17 per SHAKE-256 block), with no byte staging. Stream-
    /// equivalent to the default implementation (see the trait contract).
    fn fill_u64s(&mut self, dst: &mut [u64]) {
        self.xof.squeeze_u64s_into(dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn round_constants_match_fips202() {
        let rc = round_constants();
        assert_eq!(rc[0], 0x0000000000000001);
        assert_eq!(rc[1], 0x0000000000008082);
        assert_eq!(rc[2], 0x800000000000808a);
        assert_eq!(rc[3], 0x8000000080008000);
        assert_eq!(rc[21], 0x8000000000008080);
        assert_eq!(rc[22], 0x0000000080000001);
        assert_eq!(rc[23], 0x8000000080008008);
    }

    #[test]
    fn shake128_empty_message() {
        let mut xof = Shake::new(ShakeVariant::Shake128);
        xof.absorb(b"");
        let out = xof.finalize_squeeze(32);
        assert_eq!(
            hex(&out),
            "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26"
        );
    }

    #[test]
    fn shake256_empty_message() {
        let mut xof = Shake::new(ShakeVariant::Shake256);
        xof.absorb(b"");
        let out = xof.finalize_squeeze(32);
        assert_eq!(
            hex(&out),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
        );
    }

    #[test]
    fn shake128_abc() {
        let mut xof = Shake::new(ShakeVariant::Shake128);
        xof.absorb(b"abc");
        let out = xof.finalize_squeeze(16);
        assert_eq!(hex(&out), "5881092dd818bf5cf8a3ddb793fbcba7");
    }

    #[test]
    fn incremental_absorb_matches_oneshot() {
        let mut a = Shake::new(ShakeVariant::Shake256);
        a.absorb(b"hello ");
        a.absorb(b"world");
        let mut b = Shake::new(ShakeVariant::Shake256);
        b.absorb(b"hello world");
        assert_eq!(a.finalize_squeeze(64), b.finalize_squeeze(64));
    }

    #[test]
    fn incremental_squeeze_matches_oneshot() {
        let mut a = Shake::new(ShakeVariant::Shake128);
        a.absorb(b"stream me");
        let mut out = a.squeeze(10);
        out.extend(a.squeeze(300)); // crosses a rate boundary
        let mut b = Shake::new(ShakeVariant::Shake128);
        b.absorb(b"stream me");
        assert_eq!(out, b.finalize_squeeze(310));
    }

    #[test]
    fn long_message_crosses_rate_boundary() {
        let msg = vec![0xa5u8; 500];
        let mut a = Shake::new(ShakeVariant::Shake256);
        a.absorb(&msg);
        let one = a.finalize_squeeze(32);
        let mut b = Shake::new(ShakeVariant::Shake256);
        for chunk in msg.chunks(7) {
            b.absorb(chunk);
        }
        assert_eq!(one, b.finalize_squeeze(32));
    }

    /// The lane-filled `fill_u64s` must be stream-equivalent to the
    /// default byte-wise implementation, across rate boundaries and from
    /// unaligned squeeze positions.
    #[test]
    fn fill_u64s_matches_byte_stream() {
        for (pre_bytes, words) in [(0usize, 40usize), (8, 17), (3, 20), (133, 9), (136, 17)] {
            let mut fast = KeccakRng::from_u64_seed(77);
            let mut slow = KeccakRng::from_u64_seed(77);
            let mut skip = vec![0u8; pre_bytes];
            fast.fill_bytes(&mut skip);
            slow.fill_bytes(&mut skip);
            let mut via_fill = vec![0u64; words];
            fast.fill_u64s(&mut via_fill);
            let via_next: Vec<u64> = (0..words)
                .map(|_| {
                    let mut b = [0u8; 8];
                    slow.fill_bytes(&mut b);
                    u64::from_le_bytes(b)
                })
                .collect();
            assert_eq!(via_fill, via_next, "pre_bytes={pre_bytes}, words={words}");
            assert_eq!(fast.next_u64(), slow.next_u64(), "pre_bytes={pre_bytes}");
        }
    }

    #[test]
    fn squeeze_into_matches_squeeze() {
        let mut a = Shake::new(ShakeVariant::Shake256);
        a.absorb(b"squeeze me");
        let mut b = a.clone();
        let one = a.squeeze(300);
        let mut buf = vec![0u8; 300];
        b.squeeze_into(&mut buf);
        assert_eq!(one, buf);
    }

    #[test]
    fn keccak_rng_deterministic() {
        let mut a = KeccakRng::from_u64_seed(99);
        let mut b = KeccakRng::from_u64_seed(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "cannot absorb")]
    fn absorb_after_squeeze_panics() {
        let mut x = Shake::new(ShakeVariant::Shake128);
        x.absorb(b"a");
        let _ = x.squeeze(1);
        x.absorb(b"b");
    }
}
