//! Signing: hash-to-point, SamplerZ with pluggable base samplers, and the
//! ffSampling fast Fourier nearest-plane sampler.

use ctgauss_prng::{RandomSource, Shake, ShakeVariant};

use crate::fft::{merge_in_place, split_in_place, C64};
use crate::ntt::Q;
use crate::tree::LdlTree;

/// The fixed base distribution all Table 1 samplers implement:
/// `D_{Z, 2, 0}` at 128-bit precision with tail cut 13 — the paper's
/// Falcon configuration ("this sigma can be either 2 or sqrt 5; we used
/// the instance with sigma = 2").
pub const BASE_SIGMA: f64 = 2.0;

/// A pluggable sampler for the fixed base Gaussian `D_{Z, 2, 0}`.
///
/// Implementations own their PRNG (ChaCha in all Table 1 configurations)
/// so the comparison varies *only* the sampling algorithm.
pub trait BaseSampler {
    /// Returns the next base sample.
    fn next(&mut self) -> i32;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Largest leaf sigma SamplerZ accepts; must stay strictly below
/// [`BASE_SIGMA`] so the rejection bound below is finite. Key generation
/// rejects bases whose ffLDL leaves exceed this.
pub const MAX_LEAF_SIGMA: f64 = 1.95;

/// Samples `z ~ D_{Z, sigma_prime, center}` by rejection from the base
/// sampler (the role SamplerZ plays in Falcon, here built on whatever
/// fixed-sigma base sampler is plugged in).
///
/// The proposal is `z = round(c) + x` with `x` a signed base sample, i.e.
/// the base Gaussian re-centred on the nearest integer. With
/// `delta = c - round(c)` in `[-1/2, 1/2]` and
/// `a = 1/(2 sigma_base^2) < b = 1/(2 sigma_prime^2)`, the log acceptance
/// ratio `g(x) = a x^2 - b (x - delta)^2` is a downward parabola with
/// maximum `g_max = a b delta^2 / (b - a)`; accepting with probability
/// `exp(g(x) - g_max)` yields the exact target. The expected number of
/// base draws per output is `(sigma_base / sigma_prime) e^{g_max} ~ 1.3`,
/// identical machinery for every Table 1 base sampler.
///
/// # Panics
///
/// Panics if `sigma_prime` is outside `(0, MAX_LEAF_SIGMA]`; key
/// generation guarantees leaf sigmas in range.
pub fn sampler_z<B: BaseSampler + ?Sized, R: RandomSource>(
    center: f64,
    sigma_prime: f64,
    base: &mut B,
    aux: &mut R,
) -> i64 {
    assert!(
        sigma_prime > 0.0 && sigma_prime <= MAX_LEAF_SIGMA,
        "leaf sigma {sigma_prime} outside (0, {MAX_LEAF_SIGMA}]"
    );
    let zc = center.round();
    let delta = center - zc; // in [-1/2, 1/2]
    let a = 1.0 / (2.0 * BASE_SIGMA * BASE_SIGMA);
    let b = 1.0 / (2.0 * sigma_prime * sigma_prime);
    let g_max = a * b * delta * delta / (b - a);
    loop {
        let x = f64::from(base.next());
        let g = a * x * x - b * (x - delta) * (x - delta);
        debug_assert!(g <= g_max + 1e-12, "acceptance ratio above its bound");
        let u = (aux.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < (g - g_max).exp() {
            return zc as i64 + x as i64;
        }
    }
}

/// ffSampling (Falcon Algorithm 11): samples an integer lattice point
/// `z = (z0, z1)` close to the target `t = (t0, t1)` along the LDL tree.
///
/// The target is `t = [t0 | t1]` and the output `z = [z0 | z1]`, each half
/// the FFT image (length `n/2`) of a ring-size-`n` polynomial; the output
/// is the image of integer polynomials. `tmp` is working space of at least
/// `n` points. Nothing is allocated: each level splits its target into the
/// front of `tmp` and hands the rest down to its children.
///
/// Base samples are drawn through [`BaseSampler::next`] and acceptance
/// words through [`RandomSource::next_u64`], one at a time, in tree order
/// (`z1` before `z0`, real part before imaginary part at each leaf).
///
/// # Panics
///
/// Panics if `t` and `z` differ in length, `tmp` is shorter than `t`, or
/// the tree does not match the ring size.
pub fn ff_sampling<B: BaseSampler + ?Sized, R: RandomSource>(
    t: &[C64],
    tree: &LdlTree,
    z: &mut [C64],
    tmp: &mut [C64],
    base: &mut B,
    aux: &mut R,
) {
    assert_eq!(t.len(), z.len(), "target and output must match");
    assert!(tmp.len() >= t.len(), "ffSampling scratch too short");
    match tree {
        LdlTree::Leaf {
            l10,
            sigma0,
            sigma1,
        } => {
            // Ring size 2: re/im are the two real coefficients.
            let z1 = C64::new(
                sampler_z(t[1].re, *sigma1, base, aux) as f64,
                sampler_z(t[1].im, *sigma1, base, aux) as f64,
            );
            let t0_adj = t[0] + (t[1] - z1) * *l10;
            let z0 = C64::new(
                sampler_z(t0_adj.re, *sigma0, base, aux) as f64,
                sampler_z(t0_adj.im, *sigma0, base, aux) as f64,
            );
            z[0] = z0;
            z[1] = z1;
        }
        LdlTree::Node {
            l10,
            child0,
            child1,
        } => {
            let hn = t.len() / 2;
            let (t0, t1) = t.split_at(hn);
            let (z0, z1) = z.split_at_mut(hn);
            let (target, rest) = tmp.split_at_mut(hn);
            target.copy_from_slice(t1);
            split_in_place(target);
            ff_sampling(target, child1, z1, rest, base, aux);
            merge_in_place(z1);
            // Back-substitution: t0' = t0 + (t1 - z1) l10.
            for k in 0..hn {
                target[k] = t0[k] + (t1[k] - z1[k]) * l10[k];
            }
            split_in_place(target);
            ff_sampling(target, child0, z0, rest, base, aux);
            merge_in_place(z0);
        }
    }
}

/// Hashes `nonce || message` to a point of `Z_q^n` with SHAKE-256 and
/// 16-bit rejection sampling (accept values below `5 q = 61445`), as in
/// Falcon's HashToPoint.
pub fn hash_to_point(nonce: &[u8], message: &[u8], n: usize) -> Vec<u32> {
    const LIMIT: u16 = 61445; // 5 * 12289
    let mut xof = Shake::new(ShakeVariant::Shake256);
    xof.absorb(nonce);
    xof.absorb(message);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Squeeze in bulk: the acceptance rate is 61445/65536, so one
        // slightly padded request nearly always suffices.
        let need = (n - out.len()) * 2 + 16;
        let bytes = xof.squeeze(need);
        for pair in bytes.chunks_exact(2) {
            if out.len() == n {
                break;
            }
            let v = u16::from_be_bytes([pair[0], pair[1]]);
            if v < LIMIT {
                out.push(u32::from(v) % Q);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctgauss_prng::ChaChaRng;

    /// A direct (non-constant-time, table-free) base sampler for tests:
    /// inverse-CDF over f64 probabilities of D_{Z,2}.
    struct F64Base {
        rng: ChaChaRng,
        cdf: Vec<f64>,
    }

    impl F64Base {
        fn new(seed: u64) -> Self {
            let norm = 1.0 / (2.0 * (2.0 * std::f64::consts::PI).sqrt());
            let mut cdf = Vec::new();
            let mut acc = 0.0;
            for v in 0..=26 {
                let p = if v == 0 {
                    norm
                } else {
                    2.0 * norm * (-(f64::from(v * v)) / 8.0).exp()
                };
                acc += p;
                cdf.push(acc);
            }
            F64Base {
                rng: ChaChaRng::from_u64_seed(seed),
                cdf,
            }
        }
    }

    impl BaseSampler for F64Base {
        fn next(&mut self) -> i32 {
            let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let mag = self.cdf.iter().position(|&c| u < c).unwrap_or(26) as i32;
            if self.rng.next_u8() & 1 == 1 {
                -mag
            } else {
                mag
            }
        }

        fn name(&self) -> &'static str {
            "f64-test-base"
        }
    }

    #[test]
    fn sampler_z_mean_tracks_center() {
        let mut base = F64Base::new(1);
        let mut aux = ChaChaRng::from_u64_seed(2);
        for &(c, s) in &[(0.0f64, 1.5f64), (0.37, 1.8), (-2.6, 1.3), (10.25, 1.9)] {
            let n = 20_000;
            let mut sum = 0.0;
            let mut sq = 0.0;
            for _ in 0..n {
                let z = sampler_z(c, s, &mut base, &mut aux) as f64;
                sum += z;
                sq += z * z;
            }
            let mean = sum / f64::from(n);
            let var = sq / f64::from(n) - mean * mean;
            assert!((mean - c).abs() < 0.06, "center {c}: mean {mean}");
            assert!(
                (var - s * s).abs() < 0.25 * s * s,
                "center {c} sigma {s}: var {var}"
            );
        }
    }

    #[test]
    fn sampler_z_distribution_chi_square_like() {
        // Compare empirical frequencies against the exact target for a
        // fractional center.
        let (c, s) = (0.4f64, 1.7f64);
        let mut base = F64Base::new(3);
        let mut aux = ChaChaRng::from_u64_seed(4);
        let n = 200_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts
                .entry(sampler_z(c, s, &mut base, &mut aux))
                .or_insert(0u64) += 1;
        }
        // Exact (normalized over a wide window).
        let lo = -12i64;
        let hi = 13i64;
        let probs: Vec<f64> = (lo..=hi)
            .map(|z| (-((z as f64 - c).powi(2)) / (2.0 * s * s)).exp())
            .collect();
        let total: f64 = probs.iter().sum();
        for (i, z) in (lo..=hi).enumerate() {
            let expected = probs[i] / total;
            let got = *counts.get(&z).unwrap_or(&0) as f64 / f64::from(n);
            let tol = 4.0 * (expected / f64::from(n)).sqrt() + 5e-4;
            assert!(
                (got - expected).abs() < tol,
                "z = {z}: got {got:.5}, expected {expected:.5}"
            );
        }
    }

    #[test]
    fn hash_to_point_in_range_and_deterministic() {
        let a = hash_to_point(b"nonce", b"message", 256);
        let b = hash_to_point(b"nonce", b"message", 256);
        assert_eq!(a, b);
        assert_eq!(a.len(), 256);
        assert!(a.iter().all(|&c| c < Q));
        let c = hash_to_point(b"nonce2", b"message", 256);
        assert_ne!(a, c);
    }

    #[test]
    fn hash_to_point_roughly_uniform() {
        let pts = hash_to_point(b"n", b"uniformity", 4096);
        let mean: f64 = pts.iter().map(|&x| f64::from(x)).sum::<f64>() / 4096.0;
        let expected = f64::from(Q - 1) / 2.0;
        assert!((mean - expected).abs() < expected * 0.05, "mean {mean}");
    }
}
