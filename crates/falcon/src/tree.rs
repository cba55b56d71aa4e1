//! The Falcon tree: ffLDL* decomposition of the basis Gram matrix.

use crate::fft::{add_fft, mul_adj_fft, split, sub_fft, C64};

/// A node of the ffLDL tree for ring size `n >= 2`.
///
/// Interior nodes carry the `l10` vector of the LDL* decomposition and two
/// children for the half-size rings; ring size 2 is the base, carrying the
/// (real) standard deviations used by the ffSampling base case.
#[derive(Debug, Clone)]
pub enum LdlTree {
    /// Ring size >= 4.
    Node {
        /// `l10 = g10 / g00` in FFT form (length = ring size / 2).
        l10: Vec<C64>,
        /// Tree for the `d00` sub-Gram.
        child0: Box<LdlTree>,
        /// Tree for the `d11` sub-Gram.
        child1: Box<LdlTree>,
    },
    /// Ring size 2: one complex `l10` plus the two leaf sigmas.
    Leaf {
        /// `l10` (single complex value).
        l10: C64,
        /// `sigma / sqrt(d00)` — used for the `z0` coordinates.
        sigma0: f64,
        /// `sigma / sqrt(d11)` — used for the `z1` coordinates.
        sigma1: f64,
    },
}

impl LdlTree {
    /// Builds the tree from a 2x2 self-adjoint Gram matrix in FFT form
    /// (`g10` is implicitly `adj(g01)`), normalizing leaves to
    /// `sigma_sig / sqrt(d_ii)`.
    ///
    /// # Panics
    ///
    /// Panics if the Gram is not positive definite at some point (the
    /// key-generation checks prevent this for valid bases).
    pub fn build(g00: &[C64], g01: &[C64], g11: &[C64], sigma_sig: f64) -> LdlTree {
        let hn = g00.len();
        // l10 = g10 / g00 = adj(g01) / g00 (g00 is real positive).
        let l10: Vec<C64> = g01
            .iter()
            .zip(g00)
            .map(|(&a, &d)| {
                assert!(d.re > 0.0, "Gram diagonal must be positive");
                a.conj().scale(1.0 / d.re)
            })
            .collect();
        // d11 = g11 - |l10|^2 g00 (real at every point).
        let d11: Vec<C64> = (0..hn)
            .map(|k| C64::real(g11[k].re - l10[k].norm_sq() * g00[k].re))
            .collect();
        if hn == 1 {
            let d00 = g00[0].re;
            let d11v = d11[0].re;
            assert!(d11v > 0.0, "Gram must stay positive definite");
            return LdlTree::Leaf {
                l10: l10[0],
                sigma0: sigma_sig / d00.sqrt(),
                sigma1: sigma_sig / d11v.sqrt(),
            };
        }
        // Recurse on the split diagonals: child Gram of a self-adjoint d is
        // [[d_even, d_odd], [adj(d_odd), d_even]].
        let (d00_e, d00_o) = split(g00);
        let (d11_e, d11_o) = split(&d11);
        let child0 = LdlTree::build(&d00_e, &d00_o, &d00_e, sigma_sig);
        let child1 = LdlTree::build(&d11_e, &d11_o, &d11_e, sigma_sig);
        LdlTree::Node {
            l10,
            child0: Box::new(child0),
            child1: Box::new(child1),
        }
    }

    /// All leaf sigmas, in tree order (2 per base ring; `2n` total for ring
    /// size `n` at the root... one per sampled coordinate).
    pub fn leaf_sigmas(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.collect_sigmas(&mut out);
        out
    }

    fn collect_sigmas(&self, out: &mut Vec<f64>) {
        match self {
            LdlTree::Leaf { sigma0, sigma1, .. } => {
                out.push(*sigma0);
                out.push(*sigma1);
            }
            LdlTree::Node { child0, child1, .. } => {
                child1.collect_sigmas(out);
                child0.collect_sigmas(out);
            }
        }
    }
}

/// Builds the Gram matrix of the basis `B = [[g, -f], [G, -F]]` in FFT
/// form: `g00 = g g* + f f*`, `g01 = g G* + f F*`, `g11 = G G* + F F*`.
pub fn basis_gram(
    f: &[C64],
    g: &[C64],
    cap_f: &[C64],
    cap_g: &[C64],
) -> (Vec<C64>, Vec<C64>, Vec<C64>) {
    let g00 = add_fft(&mul_adj_fft(g, g), &mul_adj_fft(f, f));
    let g01 = add_fft(&mul_adj_fft(g, cap_g), &mul_adj_fft(f, cap_f));
    let g11 = add_fft(&mul_adj_fft(cap_g, cap_g), &mul_adj_fft(cap_f, cap_f));
    (g00, g01, g11)
}

/// Verifies the LDL identity `G = L D L*` holds pointwise at the root
/// (testing hook).
pub fn ldl_residual(g00: &[C64], g01: &[C64], g11: &[C64]) -> f64 {
    let hn = g00.len();
    let l10: Vec<C64> = g01
        .iter()
        .zip(g00)
        .map(|(&a, &d)| a.conj().scale(1.0 / d.re))
        .collect();
    // Reconstruct g01 = adj(l10) * g00 and g11 = d11 + |l10|^2 g00.
    let rec_g01: Vec<C64> = (0..hn).map(|k| l10[k].conj() * g00[k]).collect();
    let d11: Vec<C64> = (0..hn)
        .map(|k| C64::real(g11[k].re - l10[k].norm_sq() * g00[k].re))
        .collect();
    let rec_g11: Vec<C64> = (0..hn)
        .map(|k| d11[k] + C64::real(l10[k].norm_sq() * g00[k].re))
        .collect();
    let e1 = sub_fft(&rec_g01, g01);
    let e2 = sub_fft(&rec_g11, g11);
    e1.iter()
        .chain(&e2)
        .map(|c| c.norm_sq())
        .sum::<f64>()
        .sqrt()
}

/// Pointwise check hook used by signing tests: recompose `z B` and verify
/// the determinant identity `g00 g11 - |g01|^2 = q^2` at every point.
pub fn gram_determinant_error(g00: &[C64], g01: &[C64], g11: &[C64], q: f64) -> f64 {
    let mut worst: f64 = 0.0;
    for k in 0..g00.len() {
        let det = g00[k].re * g11[k].re - g01[k].norm_sq();
        worst = worst.max((det - q * q).abs() / (q * q));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft;
    use crate::ntru::generate_basis;
    use crate::ntt::Q;
    use ctgauss_prng::ChaChaRng;

    fn basis_ffts(n: usize, seed: u64) -> (Vec<C64>, Vec<C64>, Vec<C64>, Vec<C64>) {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let b = generate_basis(n, &mut rng, 50).unwrap();
        let to_f = |p: &[i64]| -> Vec<C64> {
            let reals: Vec<f64> = p.iter().map(|&c| c as f64).collect();
            fft(&reals)
        };
        (to_f(&b.f), to_f(&b.g), to_f(&b.cap_f), to_f(&b.cap_g))
    }

    #[test]
    fn gram_determinant_is_q_squared() {
        // det(B B*) = det(B)^2 = q^2 at every FFT point.
        let (f, g, cap_f, cap_g) = basis_ffts(16, 11);
        let (g00, g01, g11) = basis_gram(&f, &g, &cap_f, &cap_g);
        let err = gram_determinant_error(&g00, &g01, &g11, f64::from(Q));
        assert!(err < 1e-6, "determinant error {err}");
    }

    #[test]
    fn ldl_reconstructs_gram() {
        let (f, g, cap_f, cap_g) = basis_ffts(16, 12);
        let (g00, g01, g11) = basis_gram(&f, &g, &cap_f, &cap_g);
        assert!(ldl_residual(&g00, &g01, &g11) < 1e-6);
    }

    #[test]
    fn tree_has_n_leaf_pairs_and_sane_sigmas() {
        let n = 16;
        let (f, g, cap_f, cap_g) = basis_ffts(n, 13);
        let (g00, g01, g11) = basis_gram(&f, &g, &cap_f, &cap_g);
        let sigma_sig = 1.55 * f64::from(Q).sqrt();
        let tree = LdlTree::build(&g00, &g01, &g11, sigma_sig);
        let sigmas = tree.leaf_sigmas();
        assert_eq!(sigmas.len(), n); // n/2 base rings x 2 sigmas
        for (i, s) in sigmas.iter().enumerate() {
            assert!(
                (1.0..=2.0).contains(s),
                "leaf sigma {i} out of base-sampler range: {s}"
            );
        }
    }

    #[test]
    fn product_of_leaf_variances_matches_determinant() {
        // prod over leaves of d_ii = prod over points of det Gram = q^(2n)
        // ... equivalently sum of 2 ln(sigma_sig/sigma_leaf) = n ln(q).
        let n = 16;
        let (f, g, cap_f, cap_g) = basis_ffts(n, 14);
        let (g00, g01, g11) = basis_gram(&f, &g, &cap_f, &cap_g);
        let sigma_sig = 1.55 * f64::from(Q).sqrt();
        let tree = LdlTree::build(&g00, &g01, &g11, sigma_sig);
        let log_det: f64 = tree
            .leaf_sigmas()
            .iter()
            .map(|s| 2.0 * (sigma_sig / s).ln())
            .sum();
        let expected = n as f64 * f64::from(Q).ln();
        assert!(
            (log_det - expected).abs() < 1e-6 * expected,
            "{log_det} vs {expected}"
        );
    }
}
