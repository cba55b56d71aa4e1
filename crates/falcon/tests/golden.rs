//! Golden signatures: the exact signature bytes for fixed seeds.
//!
//! Signing is deterministic given the key, the base sampler's seed and the
//! auxiliary randomness, so any change to the FFT, the ffSampling tree walk
//! or the order in which randomness is drawn shows up as a different
//! digest. Optimisations of the signing path must keep these digests.
//! The FFT roots come from a precomputed table; it must hold exactly the
//! bits of the `cos`/`sin` formula.

use ctgauss_falcon::base::KnuthYaoCtBase;
use ctgauss_falcon::fft::roots;
use ctgauss_falcon::{FalconParams, SecretKey};
use ctgauss_prng::ChaChaRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `nonce || s1` (little-endian) of `count` signatures of
/// `"msg {i}"` under the key from seed 42, every one verified.
fn signature_digest(logn: u32, count: usize) -> u64 {
    let mut key_rng = ChaChaRng::from_u64_seed(42);
    let sk = SecretKey::generate(FalconParams::new(logn), &mut key_rng).expect("keygen");
    let mut base = KnuthYaoCtBase::new(7);
    let mut aux = ChaChaRng::from_u64_seed(9);
    let mut h = FNV_OFFSET;
    for i in 0..count {
        let msg = format!("msg {i}");
        let sig = sk.sign(msg.as_bytes(), &mut base, &mut aux).expect("signs");
        assert!(
            sk.public_key().verify(msg.as_bytes(), &sig),
            "signature {i}"
        );
        h = fnv1a(h, &sig.nonce);
        for v in &sig.s1 {
            h = fnv1a(h, &v.to_le_bytes());
        }
    }
    h
}

/// The digests depend on libm's `cos`/`sin` (the FFT roots), so they are
/// pinned on the platform they were recorded on; elsewhere the signatures
/// are still produced and verified.
fn check_digest(logn: u32, count: usize, expected: u64) {
    let got = signature_digest(logn, count);
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_eq!(got, expected, "logn {logn}: digest {got:#018x}");
    }
}

#[test]
fn golden_signatures_logn6() {
    check_digest(6, 64, 0x5017_2adb_42f0_1980);
}

#[test]
fn golden_signatures_logn9() {
    check_digest(9, 8, 0x9329_0f80_1737_31b8);
}

#[test]
fn roots_table_is_the_cos_sin_formula_bit_for_bit() {
    for logn in 1..=10 {
        let n = 1usize << logn;
        let table = roots(n);
        assert_eq!(table.len(), n / 4, "n = {n}");
        for (k, z) in table.iter().enumerate() {
            let angle = std::f64::consts::PI * (2 * k + 1) as f64 / n as f64;
            assert_eq!(z.re.to_bits(), angle.cos().to_bits(), "n = {n}, k = {k}");
            assert_eq!(z.im.to_bits(), angle.sin().to_bits(), "n = {n}, k = {k}");
        }
    }
}
