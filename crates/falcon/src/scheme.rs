//! Key generation, signing and verification — the assembled scheme.

use core::fmt;

use ctgauss_prng::RandomSource;

use crate::fft::{fft, fft_into, ifft_into, C64};
use crate::ntru::{generate_basis, NtruBasis, NtruError};
use crate::ntt::{center, to_mod_q, Ntt, Q};
use crate::sign::{ff_sampling, hash_to_point, BaseSampler, MAX_LEAF_SIGMA};
use crate::tree::{basis_gram, LdlTree};

/// Scheme parameters.
///
/// The paper's security levels: Level 1 = `N = 256`, Level 2 = `N = 512`,
/// Level 3 = `N = 1024` (round-1 Falcon parametrization). Smaller test
/// sizes are allowed for unit tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FalconParams {
    n: usize,
    sigma_sig: f64,
    beta_sq: f64,
}

impl FalconParams {
    /// Creates parameters for ring size `n = 2^logn`, `logn` in `[4, 10]`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range `logn`.
    pub fn new(logn: u32) -> Self {
        assert!((4..=10).contains(&logn), "logn must be in [4, 10]");
        let n = 1usize << logn;
        // Signing Gaussian width: a smoothing-parameter multiple of the
        // Gram-Schmidt bound. 1.55 sqrt(q) keeps every ffLDL leaf sigma
        // within the base sampler's sigma = 2 (Table 1 configuration).
        let sigma_sig = 1.55 * f64::from(Q).sqrt();
        // Acceptance bound on ||(s0, s1)||^2.
        let beta = 1.1 * sigma_sig * (2.0 * n as f64).sqrt();
        FalconParams {
            n,
            sigma_sig,
            beta_sq: beta * beta,
        }
    }

    /// The paper's Level 1 (N = 256).
    pub fn level1() -> Self {
        Self::new(8)
    }

    /// The paper's Level 2 (N = 512).
    pub fn level2() -> Self {
        Self::new(9)
    }

    /// The paper's Level 3 (N = 1024).
    pub fn level3() -> Self {
        Self::new(10)
    }

    /// Ring size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The signing Gaussian width.
    pub fn sigma_sig(&self) -> f64 {
        self.sigma_sig
    }

    /// Squared signature norm bound.
    pub fn beta_sq(&self) -> f64 {
        self.beta_sq
    }
}

/// Key-generation / signing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FalconError {
    /// Key generation kept failing (see inner reason of the last attempt).
    KeyGen(NtruError),
    /// The ffLDL leaf sigmas fell outside the base sampler's range.
    LeafSigmaOutOfRange,
    /// Signing could not find a short enough vector (astronomically rare).
    SigningFailed,
    /// A signature failed structural decoding.
    MalformedSignature,
}

impl fmt::Display for FalconError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FalconError::KeyGen(e) => write!(f, "key generation failed: {e}"),
            FalconError::LeafSigmaOutOfRange => write!(f, "ffLDL leaf sigma out of range"),
            FalconError::SigningFailed => write!(f, "signing failed to find a short vector"),
            FalconError::MalformedSignature => write!(f, "malformed signature encoding"),
        }
    }
}

impl std::error::Error for FalconError {}

/// A Falcon signature: the nonce and the second half `s1` of the short
/// vector (the first half is recomputed by the verifier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// 40-byte salt, as in Falcon.
    pub nonce: [u8; 40],
    /// The transmitted polynomial.
    pub s1: Vec<i16>,
}

/// The public key: `h = g f^-1 mod q`.
#[derive(Debug, Clone, PartialEq)]
pub struct PublicKey {
    n: usize,
    beta_sq: f64,
    h: Vec<u32>,
}

impl PublicKey {
    /// Ring size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The public polynomial `h`.
    pub fn h(&self) -> &[u32] {
        &self.h
    }

    /// Verifies a signature: recompute `c`, derive
    /// `s0 = c - s1 h mod q` (centred), and check
    /// `||s0||^2 + ||s1||^2 <= beta^2`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        if sig.s1.len() != self.n {
            return false;
        }
        let ntt = Ntt::new(self.n);
        let c = hash_to_point(&sig.nonce, message, self.n);
        let s1_mod: Vec<u32> = sig.s1.iter().map(|&v| to_mod_q(i64::from(v))).collect();
        let s1h = ntt.mul(&s1_mod, &self.h);
        let mut norm_sq = 0f64;
        for i in 0..self.n {
            let s0 = center((u64::from(c[i]) + u64::from(Q) - u64::from(s1h[i])) as u32 % Q);
            let s1 = i32::from(sig.s1[i]);
            norm_sq += f64::from(s0) * f64::from(s0) + f64::from(s1) * f64::from(s1);
        }
        norm_sq <= self.beta_sq
    }
}

/// The secret key: basis, FFT images, ffLDL tree and public data.
pub struct SecretKey {
    params: FalconParams,
    basis: NtruBasis,
    f_fft: Vec<C64>,
    g_fft: Vec<C64>,
    cap_f_fft: Vec<C64>,
    cap_g_fft: Vec<C64>,
    tree: LdlTree,
    public: PublicKey,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey(n = {})", self.params.n)
    }
}

fn fft_of_i64(p: &[i64]) -> Vec<C64> {
    let reals: Vec<f64> = p.iter().map(|&c| c as f64).collect();
    fft(&reals)
}

impl SecretKey {
    /// Generates a key pair. A round of 100 rejected `(f, g)` samples,
    /// or a basis whose leaf sigmas the base sampler cannot serve, is
    /// resampled from the continuing `rng` stream, up to 20 rounds.
    ///
    /// # Errors
    ///
    /// Returns the last round's error when all 20 rounds fail
    /// (pathological randomness).
    pub fn generate<R: RandomSource>(
        params: FalconParams,
        rng: &mut R,
    ) -> Result<SecretKey, FalconError> {
        let mut last_err = FalconError::LeafSigmaOutOfRange;
        for _ in 0..20 {
            match generate_basis(params.n, rng, 100)
                .map_err(FalconError::KeyGen)
                .and_then(|basis| Self::from_basis(params, basis))
            {
                Ok(sk) => return Ok(sk),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Builds a key from an existing basis (validates leaf sigmas).
    ///
    /// # Errors
    ///
    /// [`FalconError::LeafSigmaOutOfRange`] when some ffLDL leaf sigma is
    /// outside `(1, MAX_LEAF_SIGMA]`, meaning the fixed base sampler cannot
    /// serve it.
    pub fn from_basis(params: FalconParams, basis: NtruBasis) -> Result<SecretKey, FalconError> {
        let f_fft = fft_of_i64(&basis.f);
        let g_fft = fft_of_i64(&basis.g);
        let cap_f_fft = fft_of_i64(&basis.cap_f);
        let cap_g_fft = fft_of_i64(&basis.cap_g);
        let (g00, g01, g11) = basis_gram(&f_fft, &g_fft, &cap_f_fft, &cap_g_fft);
        let tree = LdlTree::build(&g00, &g01, &g11, params.sigma_sig);
        let sigmas = tree.leaf_sigmas();
        if sigmas.iter().any(|&s| s <= 1.0 || s > MAX_LEAF_SIGMA) {
            return Err(FalconError::LeafSigmaOutOfRange);
        }
        // h = g f^-1 mod q (f invertibility was checked during basis
        // generation).
        let ntt = Ntt::new(params.n);
        let f_mod: Vec<u32> = basis.f.iter().map(|&c| to_mod_q(c)).collect();
        let g_mod: Vec<u32> = basis.g.iter().map(|&c| to_mod_q(c)).collect();
        let f_inv = ntt.invert(&f_mod).expect("checked during basis generation");
        let h = ntt.mul(&g_mod, &f_inv);
        let public = PublicKey {
            n: params.n,
            beta_sq: params.beta_sq,
            h,
        };
        Ok(SecretKey {
            params,
            basis,
            f_fft,
            g_fft,
            cap_f_fft,
            cap_g_fft,
            tree,
            public,
        })
    }

    /// The matching public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// The scheme parameters.
    pub fn params(&self) -> &FalconParams {
        &self.params
    }

    /// The underlying NTRU basis (exposed for tests and inspection).
    pub fn basis(&self) -> &NtruBasis {
        &self.basis
    }

    /// The ffLDL tree (exposed for leaf-sigma inspection).
    pub fn tree(&self) -> &LdlTree {
        &self.tree
    }

    /// Signs a message with the supplied base Gaussian sampler (this is
    /// the knob Table 1 turns) and auxiliary randomness source.
    ///
    /// # Errors
    ///
    /// [`FalconError::SigningFailed`] if no short-enough vector is found
    /// in 64 attempts (probability negligible for valid keys).
    pub fn sign<B: BaseSampler + ?Sized, R: RandomSource>(
        &self,
        message: &[u8],
        base: &mut B,
        rng: &mut R,
    ) -> Result<Signature, FalconError> {
        let n = self.params.n;
        let hn = n / 2;
        let q = f64::from(Q);
        // One arena per call for every FFT-domain buffer of an attempt:
        // c, the target t = [t0 | t1], the sample z = [z0 | z1], the
        // ffSampling scratch and the images of s0 / s1; plus the real
        // coefficients of s0 and s1 (s0's slice first holds c's).
        let mut points = vec![C64::default(); hn + 4 * n];
        let (c_fft, rest) = points.split_at_mut(hn);
        let (t, rest) = rest.split_at_mut(n);
        let (z, rest) = rest.split_at_mut(n);
        let (tmp, s_fft) = rest.split_at_mut(n);
        let mut reals = vec![0.0; 2 * n];
        let (s0, s1) = reals.split_at_mut(n);
        for _attempt in 0..64 {
            let mut nonce = [0u8; 40];
            rng.fill_bytes(&mut nonce);
            let c = hash_to_point(&nonce, message, n);
            for (r, &x) in s0.iter_mut().zip(&c) {
                *r = f64::from(x);
            }
            fft_into(s0, c_fft);
            // t = (c, 0) B^-1 = (-c F / q, c f / q).
            let (t0, t1) = t.split_at_mut(hn);
            for k in 0..hn {
                t0[k] = (c_fft[k] * self.cap_f_fft[k]).scale(-1.0 / q);
                t1[k] = (c_fft[k] * self.f_fft[k]).scale(1.0 / q);
            }
            ff_sampling(t, &self.tree, z, tmp, base, rng);
            // s = (t - z) B.
            let (s0_fft, s1_fft) = s_fft.split_at_mut(hn);
            for k in 0..hn {
                let d0 = t[k] - z[k];
                let d1 = t[hn + k] - z[hn + k];
                s0_fft[k] = d0 * self.g_fft[k] + d1 * self.cap_g_fft[k];
                s1_fft[k] = -(d0 * self.f_fft[k] + d1 * self.cap_f_fft[k]);
            }
            ifft_into(s0_fft, s0);
            ifft_into(s1_fft, s1);
            let mut norm_sq = 0.0;
            let mut s1_int = Vec::with_capacity(n);
            let mut well_formed = true;
            for i in 0..n {
                let r0 = s0[i].round();
                let r1 = s1[i].round();
                if (s0[i] - r0).abs() > 0.01 || (s1[i] - r1).abs() > 0.01 {
                    // FFT error too large to trust the rounding (should not
                    // happen); resample.
                    well_formed = false;
                    break;
                }
                if r1.abs() > f64::from(i16::MAX) {
                    well_formed = false;
                    break;
                }
                norm_sq += r0 * r0 + r1 * r1;
                s1_int.push(r1 as i16);
            }
            if well_formed && norm_sq <= self.params.beta_sq {
                return Ok(Signature { nonce, s1: s1_int });
            }
        }
        Err(FalconError::SigningFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::KnuthYaoCtBase;
    use ctgauss_prng::ChaChaRng;

    fn test_key(logn: u32, seed: u64) -> SecretKey {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        SecretKey::generate(FalconParams::new(logn), &mut rng).unwrap()
    }

    #[test]
    fn sign_verify_roundtrip_n16() {
        let sk = test_key(4, 100);
        let mut base = KnuthYaoCtBase::new(1);
        let mut rng = ChaChaRng::from_u64_seed(2);
        let sig = sk.sign(b"hello falcon", &mut base, &mut rng).unwrap();
        assert!(sk.public_key().verify(b"hello falcon", &sig));
        assert!(!sk.public_key().verify(b"hello falcom", &sig));
    }

    #[test]
    fn sign_verify_roundtrip_n64() {
        let sk = test_key(6, 101);
        let mut base = KnuthYaoCtBase::new(3);
        let mut rng = ChaChaRng::from_u64_seed(4);
        for msg in [b"a".as_slice(), b"longer message with content", &[0u8; 100]] {
            let sig = sk.sign(msg, &mut base, &mut rng).unwrap();
            assert!(sk.public_key().verify(msg, &sig), "message {msg:?}");
        }
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = test_key(4, 102);
        let mut base = KnuthYaoCtBase::new(5);
        let mut rng = ChaChaRng::from_u64_seed(6);
        let mut sig = sk.sign(b"msg", &mut base, &mut rng).unwrap();
        sig.s1[0] = sig.s1[0].wrapping_add(1);
        assert!(!sk.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn signature_under_wrong_key_rejected() {
        let sk1 = test_key(4, 103);
        let sk2 = test_key(4, 104);
        let mut base = KnuthYaoCtBase::new(7);
        let mut rng = ChaChaRng::from_u64_seed(8);
        let sig = sk1.sign(b"msg", &mut base, &mut rng).unwrap();
        assert!(!sk2.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn wrong_length_signature_rejected() {
        let sk = test_key(4, 105);
        let sig = Signature {
            nonce: [0; 40],
            s1: vec![0i16; 8],
        };
        assert!(!sk.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn signature_norm_well_below_q() {
        let sk = test_key(6, 106);
        let mut base = KnuthYaoCtBase::new(9);
        let mut rng = ChaChaRng::from_u64_seed(10);
        let sig = sk.sign(b"norm", &mut base, &mut rng).unwrap();
        let max = sig
            .s1
            .iter()
            .map(|&v| i32::from(v).unsigned_abs())
            .max()
            .unwrap();
        assert!(max < Q / 2, "|s1| max {max}");
    }

    #[test]
    fn params_levels() {
        assert_eq!(FalconParams::level1().n(), 256);
        assert_eq!(FalconParams::level2().n(), 512);
        assert_eq!(FalconParams::level3().n(), 1024);
        assert!(FalconParams::level1().beta_sq() > 0.0);
    }
}
