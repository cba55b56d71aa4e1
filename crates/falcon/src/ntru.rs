//! NTRU key generation: solving the NTRU equation `f G - g F = q` via the
//! field-norm tower (Pornin-Prest), with Babai reduction between levels.

use ctgauss_fixedpoint::BigInt;
use ctgauss_knuthyao::{ColumnScanSampler, GaussianParams, ProbabilityMatrix};
use ctgauss_prng::{BitBuffer, RandomSource};

use crate::fft::{add_fft, fft, ifft, mul_adj_fft, C64};
use crate::ntt::{to_mod_q, Ntt, Q};
use crate::poly::{
    expand_even, field_norm, galois_conjugate, max_bit_len, negacyclic_mul, sub_mul_assign,
    to_f64_scaled,
};

/// Why a key-generation attempt failed (the caller resamples `f, g`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NtruError {
    /// `f` has a zero NTT coefficient (not invertible mod q).
    NotInvertible,
    /// `gcd(N(f), N(g))` at the bottom of the tower does not divide q.
    GcdFailure,
    /// The Gram-Schmidt norm exceeded the Falcon bound `1.17 sqrt(q)`.
    GsNormTooLarge,
    /// Babai reduction failed to shrink F, G into a usable range.
    ReductionDiverged,
}

impl core::fmt::Display for NtruError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NtruError::NotInvertible => write!(f, "f is not invertible modulo q"),
            NtruError::GcdFailure => write!(f, "resultant gcd does not divide q"),
            NtruError::GsNormTooLarge => write!(f, "Gram-Schmidt norm exceeds 1.17 sqrt(q)"),
            NtruError::ReductionDiverged => write!(f, "Babai reduction diverged"),
        }
    }
}

impl std::error::Error for NtruError {}

/// Solves `f G - g F = q` over `Z[x]/(x^n + 1)`.
///
/// # Errors
///
/// [`NtruError::GcdFailure`] when the tower bottoms out on integers whose
/// gcd does not divide q (the caller should resample `f, g`), or
/// [`NtruError::ReductionDiverged`] if the Babai size reduction stalls.
pub fn solve_ntru(f: &[BigInt], g: &[BigInt]) -> Result<(Vec<BigInt>, Vec<BigInt>), NtruError> {
    let n = f.len();
    if n == 1 {
        let (d, u, v) = f[0].xgcd(&g[0]);
        if d.is_zero() {
            return Err(NtruError::GcdFailure);
        }
        let (scale, rem) = BigInt::from_i64(i64::from(Q)).divmod_euclid(&d);
        if !rem.is_zero() {
            return Err(NtruError::GcdFailure);
        }
        // u f + v g = d  =>  f (u q/d) - g (-v q/d) = q.
        let g_out = vec![u.mul(&scale)];
        let f_out = vec![v.mul(&scale).neg()];
        return Ok((f_out, g_out));
    }
    let fp = field_norm(f);
    let gp = field_norm(g);
    let (fp_big, gp_big) = (fp, gp);
    let (cap_f_half, cap_g_half) = solve_ntru(&fp_big, &gp_big)?;
    // Lift: F = F'(x^2) g(-x), G = G'(x^2) f(-x).
    let mut cap_f = negacyclic_mul(&expand_even(&cap_f_half), &galois_conjugate(g));
    let mut cap_g = negacyclic_mul(&expand_even(&cap_g_half), &galois_conjugate(f));
    reduce(f, g, &mut cap_f, &mut cap_g)?;
    Ok((cap_f, cap_g))
}

/// Babai-style size reduction: repeatedly subtract `k * (f, g)` from
/// `(F, G)` where `k = round((F f* + G g*) / (f f* + g g*))`, computed with
/// scaled `f64` FFTs (each iteration strips roughly 25 bits).
fn reduce(
    f: &[BigInt],
    g: &[BigInt],
    cap_f: &mut [BigInt],
    cap_g: &mut [BigInt],
) -> Result<(), NtruError> {
    let n = f.len();
    let size_fg = max_bit_len(f).max(max_bit_len(g)).max(1);
    let scale_fg = size_fg.saturating_sub(26);
    let to_fft = |p: &[BigInt], shift: u32| -> Vec<C64> {
        let reals: Vec<f64> = p.iter().map(|c| to_f64_scaled(c, shift)).collect();
        fft(&reals)
    };
    let f_hat = to_fft(f, scale_fg);
    let g_hat = to_fft(g, scale_fg);
    // Denominator f f* + g g* (real and positive at every point).
    let den = add_fft(&mul_adj_fft(&f_hat, &f_hat), &mul_adj_fft(&g_hat, &g_hat));
    if den.iter().any(|d| d.re <= 0.0 || !d.re.is_finite()) {
        return Err(NtruError::ReductionDiverged);
    }

    let mut last_size = u32::MAX;
    let mut stalls = 0u32;
    for _ in 0..10_000 {
        let size_cap = max_bit_len(cap_f).max(max_bit_len(cap_g));
        if size_cap < size_fg.saturating_add(10) {
            // Already as small as the lattice geometry allows.
            return Ok(());
        }
        if size_cap >= last_size {
            // Tolerate a few non-improving iterations (the max bit length
            // can plateau while lower coefficients still shrink).
            stalls += 1;
            if stalls > 4 {
                return if size_cap < size_fg.saturating_add(40 + n.ilog2() * 4) {
                    Ok(())
                } else {
                    Err(NtruError::ReductionDiverged)
                };
            }
        } else {
            stalls = 0;
        }
        last_size = last_size.min(size_cap);

        let scale_cap = size_cap.saturating_sub(26);
        let cap_f_hat = to_fft(cap_f, scale_cap);
        let cap_g_hat = to_fft(cap_g, scale_cap);
        let num = add_fft(
            &mul_adj_fft(&cap_f_hat, &f_hat),
            &mul_adj_fft(&cap_g_hat, &g_hat),
        );
        let ratio: Vec<C64> = num.iter().zip(&den).map(|(&a, &b)| a.div(b)).collect();
        let k_real = ifft(&ratio);
        // True k ~= ratio * 2^shift with shift = scale_cap - scale_fg; the
        // f64 mantissa is good for ~45 bits after the FFT, so extract up to
        // 30 bits of k per iteration instead of rounding the O(1) ratio.
        let shift = scale_cap.saturating_sub(scale_fg);
        let take = shift.min(30);
        let rest = shift - take;
        let factor = 2f64.powi(take as i32);
        let mut all_zero = true;
        let k_big: Vec<BigInt> = k_real
            .iter()
            .map(|&x| {
                let r = (x * factor).round();
                if r == 0.0 || !r.is_finite() {
                    BigInt::zero()
                } else {
                    all_zero = false;
                    BigInt::from_i64(r as i64).shl(rest)
                }
            })
            .collect();
        if all_zero {
            return Ok(());
        }
        sub_mul_assign(cap_f, &k_big, f);
        sub_mul_assign(cap_g, &k_big, g);
        debug_assert_eq!(cap_f.len(), n);
    }
    Err(NtruError::ReductionDiverged)
}

/// An NTRU secret basis `[[g, -f], [G, -F]]` with `f G - g F = q`.
#[derive(Debug, Clone)]
pub struct NtruBasis {
    /// `f` (small).
    pub f: Vec<i64>,
    /// `g` (small).
    pub g: Vec<i64>,
    /// Completed `F`.
    pub cap_f: Vec<i64>,
    /// Completed `G`.
    pub cap_g: Vec<i64>,
}

impl NtruBasis {
    /// Verifies `f G - g F = q` exactly in big-integer arithmetic.
    pub fn verify_ntru_equation(&self) -> bool {
        let to_big =
            |p: &[i64]| -> Vec<BigInt> { p.iter().map(|&c| BigInt::from_i64(c)).collect() };
        let lhs1 = negacyclic_mul(&to_big(&self.f), &to_big(&self.cap_g));
        let lhs2 = negacyclic_mul(&to_big(&self.g), &to_big(&self.cap_f));
        let n = self.f.len();
        for i in 0..n {
            let v = lhs1[i].sub(&lhs2[i]);
            let expected = if i == 0 {
                BigInt::from_i64(i64::from(Q))
            } else {
                BigInt::zero()
            };
            if v != expected {
                return false;
            }
        }
        true
    }
}

/// The Falcon Gram-Schmidt quality bound `1.17 sqrt(q)`.
pub fn gs_norm_bound() -> f64 {
    1.17 * f64::from(Q).sqrt()
}

/// The Gram-Schmidt norm of the (to-be-completed) basis: the larger of
/// `||(g, -f)||` and `||(q f~ / (f f~ + g g~), q g~ / (f f~ + g g~))||`.
pub fn gs_norm(f: &[i64], g: &[i64]) -> f64 {
    let fr: Vec<f64> = f.iter().map(|&x| x as f64).collect();
    let gr: Vec<f64> = g.iter().map(|&x| x as f64).collect();
    let first: f64 = fr.iter().chain(&gr).map(|x| x * x).sum::<f64>();

    let f_hat = fft(&fr);
    let g_hat = fft(&gr);
    let den = add_fft(&mul_adj_fft(&f_hat, &f_hat), &mul_adj_fft(&g_hat, &g_hat));
    // ||(q f* / den, q g* / den)||^2 = sum over points of
    // q^2 (|f|^2 + |g|^2) / den^2 = q^2 / den, via Parseval.
    let qf = f64::from(Q);
    let second: f64 =
        den.iter().map(|d| qf * qf / d.re).sum::<f64>() * 2.0 / (2.0 * f_hat.len() as f64);
    first.max(second).sqrt()
}

/// The key-generation coefficient distribution `D_{Z, 1.17 sqrt(q / 2n)}`
/// at 64-bit precision.
fn fg_matrix(n: usize) -> ProbabilityMatrix {
    let sigma = 1.17 * (f64::from(Q) / (2.0 * n as f64)).sqrt();
    let params =
        GaussianParams::new(&format!("{sigma:.6}"), 64, 13).expect("keygen sigma is valid");
    ProbabilityMatrix::build(&params).expect("keygen matrix builds")
}

/// Samples one key-generation polynomial of `n` coefficients with the
/// (non-secret-dependent) Knuth-Yao column scanner over [`fg_matrix`].
/// Each polynomial reads through its own bit buffer: bits left over in
/// one never feed the next.
fn sample_fg<R: RandomSource>(sampler: &ColumnScanSampler<'_>, n: usize, rng: &mut R) -> Vec<i64> {
    let mut bits = BitBuffer::new(rng);
    (0..n)
        .map(|_| i64::from(sampler.sample_signed(&mut bits)))
        .collect()
}

/// Generates an NTRU basis, resampling `f, g` until all checks pass.
///
/// Most pairs fail the Gram-Schmidt bound: at n = 512 a key takes about
/// 15 attempts on average.
///
/// # Errors
///
/// Returns the last failure after `max_attempts` tries.
pub fn generate_basis<R: RandomSource>(
    n: usize,
    rng: &mut R,
    max_attempts: u32,
) -> Result<NtruBasis, NtruError> {
    let ntt = Ntt::new(n);
    let matrix = fg_matrix(n);
    let sampler = ColumnScanSampler::new(&matrix);
    let mut last_err = NtruError::NotInvertible;
    for _ in 0..max_attempts {
        let f = sample_fg(&sampler, n, rng);
        let g = sample_fg(&sampler, n, rng);
        // f must be invertible mod q for the public key h = g / f.
        let f_mod: Vec<u32> = f.iter().map(|&c| to_mod_q(c)).collect();
        if ntt.invert(&f_mod).is_none() {
            last_err = NtruError::NotInvertible;
            continue;
        }
        if gs_norm(&f, &g) > gs_norm_bound() {
            last_err = NtruError::GsNormTooLarge;
            continue;
        }
        let f_big: Vec<BigInt> = f.iter().map(|&c| BigInt::from_i64(c)).collect();
        let g_big: Vec<BigInt> = g.iter().map(|&c| BigInt::from_i64(c)).collect();
        match solve_ntru(&f_big, &g_big) {
            Ok((cap_f, cap_g)) => {
                let to_i64 =
                    |p: &[BigInt]| -> Option<Vec<i64>> { p.iter().map(BigInt::to_i64).collect() };
                match (to_i64(&cap_f), to_i64(&cap_g)) {
                    (Some(cap_f), Some(cap_g)) => {
                        let basis = NtruBasis { f, g, cap_f, cap_g };
                        debug_assert!(basis.verify_ntru_equation());
                        return Ok(basis);
                    }
                    _ => {
                        last_err = NtruError::ReductionDiverged;
                        continue;
                    }
                }
            }
            Err(e) => {
                last_err = e;
                continue;
            }
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctgauss_prng::ChaChaRng;

    fn big_poly(vals: &[i64]) -> Vec<BigInt> {
        vals.iter().map(|&v| BigInt::from_i64(v)).collect()
    }

    #[test]
    fn solve_base_case() {
        // f = 3, g = 5: gcd 1, so F, G with 3G - 5F = q.
        let (cap_f, cap_g) = solve_ntru(&big_poly(&[3]), &big_poly(&[5])).unwrap();
        let lhs = BigInt::from_i64(3)
            .mul(&cap_g[0])
            .sub(&BigInt::from_i64(5).mul(&cap_f[0]));
        assert_eq!(lhs, BigInt::from_i64(i64::from(Q)));
    }

    #[test]
    fn solve_base_case_gcd_failure() {
        // gcd(2, 4) = 2, which does not divide 12289.
        assert_eq!(
            solve_ntru(&big_poly(&[2]), &big_poly(&[4])).unwrap_err(),
            NtruError::GcdFailure
        );
    }

    #[test]
    fn solve_small_ring() {
        let f = big_poly(&[3, 1, -2, 1]);
        let g = big_poly(&[1, -1, 2, 2]);
        let (cap_f, cap_g) = solve_ntru(&f, &g).unwrap();
        let lhs1 = negacyclic_mul(&f, &cap_g);
        let lhs2 = negacyclic_mul(&g, &cap_f);
        assert_eq!(lhs1[0].sub(&lhs2[0]), BigInt::from_i64(i64::from(Q)));
        for i in 1..4 {
            assert_eq!(lhs1[i].sub(&lhs2[i]), BigInt::zero(), "coeff {i}");
        }
    }

    #[test]
    fn generate_basis_n16() {
        let mut rng = ChaChaRng::from_u64_seed(2024);
        let basis = generate_basis(16, &mut rng, 50).unwrap();
        assert!(basis.verify_ntru_equation());
        // Reduced F, G stay comfortably small.
        let max_cap = basis
            .cap_f
            .iter()
            .chain(&basis.cap_g)
            .map(|c| c.unsigned_abs())
            .max()
            .unwrap();
        assert!(max_cap < 100_000, "F/G too large: {max_cap}");
    }

    #[test]
    fn generate_basis_n64() {
        let mut rng = ChaChaRng::from_u64_seed(7);
        let basis = generate_basis(64, &mut rng, 50).unwrap();
        assert!(basis.verify_ntru_equation());
        assert!(gs_norm(&basis.f, &basis.g) <= gs_norm_bound());
    }

    #[test]
    fn gs_norm_against_direct_computation() {
        // For the first vector the norm is just the Euclidean norm.
        let f = vec![1i64, 2, 3, 4];
        let g = vec![0i64, -1, 1, 0];
        let norm = gs_norm(&f, &g);
        let first = (f.iter().chain(&g).map(|&x| (x * x) as f64).sum::<f64>()).sqrt();
        assert!(norm >= first - 1e-9);
    }

    #[test]
    fn sample_fg_statistics() {
        let mut rng = ChaChaRng::from_u64_seed(5);
        let n = 512;
        let f = sample_fg(&ColumnScanSampler::new(&fg_matrix(n)), n, &mut rng);
        assert_eq!(f.len(), n);
        let sigma = 1.17 * (f64::from(Q) / (2.0 * n as f64)).sqrt();
        let mean: f64 = f.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = f.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 1.0, "mean {mean}");
        assert!(
            (var - sigma * sigma).abs() < sigma * sigma,
            "var {var} vs {}",
            sigma * sigma
        );
    }
}
