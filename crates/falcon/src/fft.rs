//! Complex FFT over the negacyclic ring `R[x]/(x^n + 1)`, in Falcon's
//! half-size representation.
//!
//! A real polynomial of degree `< n` is determined by its evaluations at
//! the `n` primitive `2n`-th roots of unity; conjugate symmetry lets us
//! store only the `n/2` roots with positive imaginary part,
//! `zeta_k = exp(i pi (2k+1) / n)` for `k = 0 .. n/2 - 1`. For `n = 2` the
//! single stored value is `a_0 + i a_1` — the two coefficients appear as
//! real and imaginary part, which is what makes the ffSampling base case
//! sample plain reals.
//!
//! [`split`] and [`merge`] are Falcon's `splitfft`/`mergefft`: the FFT
//! images of the even/odd coefficient split `a(x) = a_0(x^2) + x a_1(x^2)`,
//! used by ffLDL and ffSampling to walk the tower of rings.
//!
//! The roots come from a table filled once per process ([`roots`]), and
//! every transform has one body that works on caller buffers:
//! [`split_in_place`], [`merge_in_place`], [`fft_into`] and [`ifft_into`]
//! allocate nothing. The `Vec`-returning [`split`], [`merge`], [`fft`] and
//! [`ifft`] are thin wrappers over them. Each butterfly keeps the operands
//! and the order of its floating-point operations, so results are
//! bit-identical to evaluating the textbook recursion with on-the-fly
//! `cos`/`sin` roots.

use core::ops::{Add, Mul, Neg, Sub};
use std::sync::OnceLock;

/// A complex number over `f64` (no external dependencies).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Builds a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// The real number `re`.
    pub fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex division.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: C64) -> C64 {
        let d = other.norm_sq();
        let num = self * other.conj();
        C64 {
            re: num.re / d,
            im: num.im / d,
        }
    }

    /// Scalar multiplication.
    pub fn scale(self, s: f64) -> C64 {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for C64 {
    type Output = C64;
    fn add(self, o: C64) -> C64 {
        C64 {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl Sub for C64 {
    type Output = C64;
    fn sub(self, o: C64) -> C64 {
        C64 {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl Mul for C64 {
    type Output = C64;
    fn mul(self, o: C64) -> C64 {
        C64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

/// Largest supported ring size, as `log2 n` (the range `FalconParams`
/// accepts ends at N = 1024).
const MAX_LOGN: usize = 10;

/// The stored roots of every ring size `2^logn`, `logn = 0 ..= MAX_LOGN`,
/// computed once on first use (about 8 KB in total).
static ROOTS: OnceLock<Vec<Box<[C64]>>> = OnceLock::new();

/// The roots `zeta_k = exp(i pi (2k+1) / n)`, `k = 0 .. n/4`, that the
/// butterflies of ring size `n` use (empty for `n = 2`).
///
/// Every entry is `(cos a, sin a)` of `a = pi (2k+1) / n`, evaluated with
/// exactly that expression, so the table-driven transforms produce the
/// same bits as evaluating the roots on the fly.
///
/// # Panics
///
/// Panics if `n` is not a power of two in `2 ..= 1024`.
pub fn roots(n: usize) -> &'static [C64] {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "ring size must be a power of two >= 2"
    );
    let logn = n.trailing_zeros() as usize;
    assert!(
        logn <= MAX_LOGN,
        "ring size {n} exceeds the largest supported ring size {}",
        1usize << MAX_LOGN
    );
    &ROOTS.get_or_init(|| {
        (0..=MAX_LOGN)
            .map(|logn| {
                let n = 1usize << logn;
                (0..n / 4)
                    .map(|k| {
                        let angle = std::f64::consts::PI * (2 * k + 1) as f64 / n as f64;
                        C64::new(angle.cos(), angle.sin())
                    })
                    .collect()
            })
            .collect()
    })[logn]
}

/// One `mergefft` butterfly: the stored points `k` and `n/2 - 1 - k` of
/// the merged image from point `k` of the two halves (for `k < n/4` the
/// square of root `k` is the half ring's stored point `k`, and the mirror
/// point `n/2 - 1 - k` squares to its conjugate).
#[inline(always)]
fn merge_pair(f0: C64, f1: C64, z: C64) -> (C64, C64) {
    let t = z * f1;
    (f0 + t, (f0 - t).conj())
}

/// One `splitfft` butterfly: point `k` of the two halves from the stored
/// points `k` and `n/2 - 1 - k` of the full image.
#[inline(always)]
fn split_pair(a: C64, b: C64, z: C64) -> (C64, C64) {
    let b_conj = b.conj();
    ((a + b_conj).scale(0.5), ((a - b_conj).scale(0.5)).div(z))
}

/// Forward FFT of a real polynomial (length `n >= 2`, power of two) into
/// `n/2` stored evaluations.
///
/// # Panics
///
/// Panics if `n` is not a power of two `>= 2`.
///
/// # Examples
///
/// ```
/// use ctgauss_falcon::fft::{fft, ifft};
///
/// let a = vec![1.0, 2.0, 3.0, 4.0];
/// let back = ifft(&fft(&a));
/// for (x, y) in a.iter().zip(&back) {
///     assert!((x - y).abs() < 1e-12);
/// }
/// ```
pub fn fft(coeffs: &[f64]) -> Vec<C64> {
    let mut out = vec![C64::default(); coeffs.len() / 2];
    fft_into(coeffs, &mut out);
    out
}

/// [`fft`] into a caller buffer of length `n/2`; allocates nothing.
///
/// # Panics
///
/// Panics if `n` is not a power of two `>= 2` or `out` is not `n/2` long.
pub fn fft_into(coeffs: &[f64], out: &mut [C64]) {
    let n = coeffs.len();
    assert!(
        n >= 2 && n.is_power_of_two(),
        "ring size must be a power of two >= 2"
    );
    assert_eq!(out.len(), n / 2, "output must hold n/2 points");
    fft_strided(coeffs, 1, out);
}

/// FFT of the polynomial whose coefficient `i` is `coeffs[i * stride]`:
/// the even and odd halves are transformed into the two halves of `out`,
/// which [`merge_in_place`] then combines.
fn fft_strided(coeffs: &[f64], stride: usize, out: &mut [C64]) {
    if out.len() == 1 {
        out[0] = C64::new(coeffs[0], coeffs[stride]);
        return;
    }
    let (fe, fo) = out.split_at_mut(out.len() / 2);
    fft_strided(coeffs, 2 * stride, fe);
    fft_strided(&coeffs[stride..], 2 * stride, fo);
    merge_in_place(out);
}

/// Inverse FFT back to real coefficients (length `2 * values.len()`).
///
/// # Panics
///
/// Panics if the input is empty or not a power of two in length.
pub fn ifft(values: &[C64]) -> Vec<f64> {
    let mut work = values.to_vec();
    let mut out = vec![0.0; 2 * values.len()];
    ifft_into(&mut work, &mut out);
    out
}

/// [`ifft`] into a caller buffer of length `2 * values.len()`; allocates
/// nothing. `values` is the working space of the transform and holds
/// unspecified data afterwards.
///
/// # Panics
///
/// Panics if `values` is empty or not a power of two in length, or `out`
/// is not twice as long.
pub fn ifft_into(values: &mut [C64], out: &mut [f64]) {
    let half = values.len();
    assert!(
        half >= 1 && half.is_power_of_two(),
        "invalid FFT vector length"
    );
    assert_eq!(out.len(), 2 * half, "output must hold n coefficients");
    ifft_strided(values, out, 1);
}

/// Inverse FFT writing coefficient `i` to `out[i * stride]`: `values` is
/// split in place and each half is inverted onto the even or odd
/// coefficients.
fn ifft_strided(values: &mut [C64], out: &mut [f64], stride: usize) {
    if values.len() == 1 {
        out[0] = values[0].re;
        out[stride] = values[0].im;
        return;
    }
    split_in_place(values);
    let (fe, fo) = values.split_at_mut(values.len() / 2);
    ifft_strided(fe, out, 2 * stride);
    ifft_strided(fo, &mut out[stride..], 2 * stride);
}

/// Falcon's `splitfft`: the FFT images of the even/odd coefficient halves.
///
/// Input length `n/2 >= 2` (ring size `n >= 4`); outputs have length `n/4`.
///
/// # Panics
///
/// Panics on rings smaller than 4 (at ring size 2 the split is just
/// re/im, handled inline by the callers).
pub fn split(values: &[C64]) -> (Vec<C64>, Vec<C64>) {
    let mut f0 = values.to_vec();
    split_in_place(&mut f0);
    let f1 = f0.split_off(values.len() / 2);
    (f0, f1)
}

/// [`split`] in place: the image of ring size `n` (length `n/2`) becomes
/// `[f0 | f1]`, each half of length `n/4`.
///
/// Point `k` of the halves reads stored points `k` and `n/2 - 1 - k`, so
/// the points are processed in pairs `k`, `n/4 - 1 - k` whose four reads
/// are exactly the slots they write.
///
/// # Panics
///
/// Panics unless `buf.len()` is a power of two `>= 2`.
pub fn split_in_place(buf: &mut [C64]) {
    let half = buf.len();
    assert!(
        half >= 2 && half.is_power_of_two(),
        "split needs ring size >= 4"
    );
    let quarter = half / 2;
    let z = roots(2 * half);
    for k in 0..quarter.div_ceil(2) {
        let j = quarter - 1 - k;
        let (f0_k, f1_k) = split_pair(buf[k], buf[half - 1 - k], z[k]);
        let (f0_j, f1_j) = split_pair(buf[j], buf[half - 1 - j], z[j]);
        buf[k] = f0_k;
        buf[quarter + k] = f1_k;
        buf[j] = f0_j;
        buf[quarter + j] = f1_j;
    }
}

/// Falcon's `mergefft`: inverse of [`split`].
///
/// # Panics
///
/// Panics if the halves have different lengths or are empty.
pub fn merge(f0: &[C64], f1: &[C64]) -> Vec<C64> {
    assert_eq!(f0.len(), f1.len(), "halves must match");
    let mut out = [f0, f1].concat();
    merge_in_place(&mut out);
    out
}

/// [`merge`] in place: `[f0 | f1]` (each of length `n/4`) becomes the
/// image of ring size `n`, paired like [`split_in_place`].
///
/// # Panics
///
/// Panics unless `buf.len()` is a power of two `>= 2`.
pub fn merge_in_place(buf: &mut [C64]) {
    let half = buf.len();
    assert!(
        half >= 2 && half.is_power_of_two(),
        "merge needs at least ring size 4"
    );
    let quarter = half / 2;
    let z = roots(2 * half);
    for k in 0..quarter.div_ceil(2) {
        let j = quarter - 1 - k;
        let (lo_k, hi_k) = merge_pair(buf[k], buf[quarter + k], z[k]);
        let (lo_j, hi_j) = merge_pair(buf[j], buf[quarter + j], z[j]);
        buf[k] = lo_k;
        buf[half - 1 - k] = hi_k;
        buf[j] = lo_j;
        buf[half - 1 - j] = hi_j;
    }
}

/// Pointwise product of two FFT vectors.
pub fn mul_fft(a: &[C64], b: &[C64]) -> Vec<C64> {
    a.iter().zip(b).map(|(&x, &y)| x * y).collect()
}

/// Pointwise `a * conj(b)` (multiplication by the adjoint).
pub fn mul_adj_fft(a: &[C64], b: &[C64]) -> Vec<C64> {
    a.iter().zip(b).map(|(&x, &y)| x * y.conj()).collect()
}

/// Pointwise sum.
pub fn add_fft(a: &[C64], b: &[C64]) -> Vec<C64> {
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// Pointwise difference.
pub fn sub_fft(a: &[C64], b: &[C64]) -> Vec<C64> {
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Squared L2 norm of the underlying real polynomial from its FFT image
/// (Parseval: `sum a_i^2 = (2/n) * sum |a_hat_k|^2` over stored points).
pub fn norm_sq_fft(a: &[C64]) -> f64 {
    let n = 2 * a.len();
    a.iter().map(|v| v.norm_sq()).sum::<f64>() * 2.0 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_negacyclic_mul(a: &[f64], b: &[f64]) -> Vec<f64> {
        let n = a.len();
        let mut out = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                let p = a[i] * b[j];
                if i + j < n {
                    out[i + j] += p;
                } else {
                    out[i + j - n] -= p;
                }
            }
        }
        out
    }

    #[test]
    fn fft_roundtrip_various_sizes() {
        for n in [2usize, 4, 8, 64, 512] {
            let coeffs: Vec<f64> = (0..n)
                .map(|i| ((i * 37 + 11) % 101) as f64 - 50.0)
                .collect();
            let back = ifft(&fft(&coeffs));
            for (i, (x, y)) in coeffs.iter().zip(&back).enumerate() {
                assert!((x - y).abs() < 1e-9, "n={n}, coeff {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn fft_n2_is_re_im() {
        let v = fft(&[3.0, -5.0]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0], C64::new(3.0, -5.0));
    }

    #[test]
    fn fft_multiplication_is_negacyclic() {
        for n in [4usize, 8, 32] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let b: Vec<f64> = (0..n).map(|i| ((i * i) % 7) as f64).collect();
            let via_fft = ifft(&mul_fft(&fft(&a), &fft(&b)));
            let naive = naive_negacyclic_mul(&a, &b);
            for i in 0..n {
                assert!(
                    (via_fft[i] - naive[i]).abs() < 1e-8,
                    "n={n} coeff {i}: {} vs {}",
                    via_fft[i],
                    naive[i]
                );
            }
        }
    }

    #[test]
    fn split_merge_roundtrip() {
        for n in [4usize, 8, 64] {
            let coeffs: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 10.0).collect();
            let v = fft(&coeffs);
            let (f0, f1) = split(&v);
            let back = merge(&f0, &f1);
            for k in 0..v.len() {
                assert!((v[k].re - back[k].re).abs() < 1e-10, "n={n} k={k}");
                assert!((v[k].im - back[k].im).abs() < 1e-10, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn split_matches_even_odd_coefficients() {
        // split(FFT(a)) must equal (FFT(even coeffs), FFT(odd coeffs)).
        let a = [1.0, -2.0, 3.0, 0.5, -1.25, 4.0, 0.0, 2.0];
        let (f0, f1) = split(&fft(&a));
        let even = fft(&[1.0, 3.0, -1.25, 0.0]);
        let odd = fft(&[-2.0, 0.5, 4.0, 2.0]);
        for k in 0..2 {
            assert!((f0[k].re - even[k].re).abs() < 1e-10);
            assert!((f0[k].im - even[k].im).abs() < 1e-10);
            assert!((f1[k].re - odd[k].re).abs() < 1e-10);
            assert!((f1[k].im - odd[k].im).abs() < 1e-10);
        }
    }

    #[test]
    fn adjoint_is_conjugate() {
        // adj(a)(x) = a0 - a_{n-1} x - ... - a_1 x^{n-1}; FFT(adj a) =
        // conj(FFT(a)).
        let a = [2.0, -1.0, 4.0, 3.0];
        let mut adj = vec![0.0; 4];
        adj[0] = a[0];
        for i in 1..4 {
            adj[i] = -a[4 - i];
        }
        let fa = fft(&a);
        let fadj = fft(&adj);
        for k in 0..2 {
            assert!((fa[k].conj().re - fadj[k].re).abs() < 1e-10);
            assert!((fa[k].conj().im - fadj[k].im).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_norm() {
        let a = [1.0, 2.0, -3.0, 0.5, 1.5, -2.5, 0.0, 4.0];
        let direct: f64 = a.iter().map(|x| x * x).sum();
        let via_fft = norm_sq_fft(&fft(&a));
        assert!((direct - via_fft).abs() < 1e-9, "{direct} vs {via_fft}");
    }

    #[test]
    #[should_panic(expected = "exceeds the largest supported ring size 1024")]
    fn roots_beyond_1024_panic() {
        roots(2048);
    }

    #[test]
    fn complex_division() {
        let a = C64::new(3.0, 4.0);
        let b = C64::new(1.0, -2.0);
        let q = a.div(b);
        let back = q * b;
        assert!((back.re - a.re).abs() < 1e-12);
        assert!((back.im - a.im).abs() < 1e-12);
    }
}
