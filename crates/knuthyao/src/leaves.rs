//! Closed-form enumeration of the DDG-tree leaves — the list `L` of
//! Section 5.1 of the paper.
//!
//! In column-scanning Knuth-Yao (Algorithm 1), write `V_i` for the integer
//! `b_0 2^i + b_1 2^{i-1} + ... + b_i` formed by the first `i + 1` random
//! bits and `H_i = h_0 2^i + ... + h_i` for the scaled cumulative column
//! weights. The walk value entering the column scan at level `i` is
//! `d_i = V_i - 2 H_{i-1}`, and a leaf is hit exactly when `0 <= d_i < h_i`;
//! the sample is then the row of the `(d_i + 1)`-th set bit of column `i`
//! counted from the bottom. Therefore the leaves at level `i` are precisely
//! the bit strings encoding `V_i = 2 H_{i-1} + t` for `t = 0 .. h_i - 1` —
//! no tree construction or walking is needed.

use ctgauss_fixedpoint::BigUint;

use crate::{BitString, ProbabilityMatrix};

/// One DDG-tree leaf: a sample-generating random bit string and its sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leaf {
    /// Tree level `i` (the leaf is reached after `i + 1` random bits).
    pub level: u32,
    /// Rank of the leaf within its level, `0 <= rank < h_level`.
    pub rank: u32,
    /// The sample value in `[0, tau * sigma]`.
    pub value: u32,
    /// The `level + 1` random bits that reach this leaf (consumption order).
    pub bits: BitString,
}

impl Leaf {
    /// `k` of Theorem 1: the length of the initial all-ones run of the
    /// consumed bits.
    pub fn run_length(&self) -> u32 {
        self.bits.leading_ones()
    }

    /// `j` of Theorem 1: the number of free bits between the `1^k 0` prefix
    /// and the end of the significant bits (`len = k + 1 + j`).
    ///
    /// # Panics
    ///
    /// Panics if the leaf violates Theorem 1 (an all-ones string), which
    /// [`enumerate_leaves`] guarantees cannot happen for a Gaussian matrix.
    pub fn free_bits(&self) -> u32 {
        let k = self.run_length();
        assert!(
            k < self.bits.len(),
            "Theorem 1 violation: all-ones string {} generated a sample",
            self.bits
        );
        self.bits.len() - k - 1
    }
}

/// Enumerates every leaf of the DDG tree of `matrix`, level by level.
///
/// The result is the list `L` of the paper (before sorting): one entry per
/// set bit of the probability matrix, so its length is
/// `sum_j h_j <= rows * n`.
///
/// # Examples
///
/// ```
/// use ctgauss_knuthyao::{enumerate_leaves, GaussianParams, ProbabilityMatrix};
///
/// let m = ProbabilityMatrix::build(&GaussianParams::from_sigma_str("2", 6).unwrap()).unwrap();
/// let leaves = enumerate_leaves(&m);
/// let total: u32 = (0..6).map(|j| m.column_weight(j)).sum();
/// assert_eq!(leaves.len() as u32, total);
/// ```
pub fn enumerate_leaves(matrix: &ProbabilityMatrix) -> Vec<Leaf> {
    let n = matrix.precision();
    let mut leaves = Vec::new();
    // H_{i-1}, starting at H_{-1} = 0.
    let mut h_prev = BigUint::zero();
    for i in 0..n {
        let h_i = matrix.column_weight(i);
        let v_base = h_prev.shl(1); // 2 * H_{i-1}
        if h_i > 0 {
            let samples = matrix.column_samples_bottom_up(i);
            for t in 0..h_i {
                let mut v = v_base.clone();
                v.add_assign_u64(u64::from(t));
                // Encode V as i+1 bits, b_0 = most significant.
                let mut bits = BitString::new();
                for pos in (0..=i).rev() {
                    bits.push(v.bit(pos));
                }
                leaves.push(Leaf {
                    level: i,
                    rank: t,
                    value: samples[t as usize],
                    bits,
                });
            }
        }
        // H_i = 2 H_{i-1} + h_i.
        h_prev = v_base;
        h_prev.add_assign_u64(u64::from(h_i));
    }
    leaves
}

/// The paper's `Delta`: the maximum `j` over all leaves of the normal form
/// `x^i (0/1)^j 0 1^k` (Section 5, "experimentally j is bounded by a small
/// Delta").
///
/// # Panics
///
/// Panics if any leaf violates Theorem 1.
pub fn delta(leaves: &[Leaf]) -> u32 {
    leaves.iter().map(Leaf::free_bits).max().unwrap_or(0)
}

/// The maximum initial-ones run length `k` over all leaves — the `n'` of
/// Equation 2 (number of sublists minus one).
pub fn max_run_length(leaves: &[Leaf]) -> u32 {
    leaves.iter().map(Leaf::run_length).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnScanSampler, GaussianParams};

    fn matrix(sigma: &str, n: u32) -> ProbabilityMatrix {
        ProbabilityMatrix::build(&GaussianParams::from_sigma_str(sigma, n).unwrap()).unwrap()
    }

    #[test]
    fn leaf_count_equals_total_column_weight() {
        for (sigma, n) in [("2", 6), ("2", 16), ("1", 20), ("3.2", 24)] {
            let m = matrix(sigma, n);
            let total: u32 = m.column_weights().iter().sum();
            assert_eq!(
                enumerate_leaves(&m).len() as u32,
                total,
                "sigma={sigma} n={n}"
            );
        }
    }

    #[test]
    fn theorem1_no_all_ones_string() {
        for (sigma, n) in [("1", 32), ("2", 32), ("2", 64), ("6.15543", 32)] {
            let m = matrix(sigma, n);
            for leaf in enumerate_leaves(&m) {
                assert!(
                    leaf.run_length() < leaf.bits.len(),
                    "sigma={sigma}: all-ones leaf {:?}",
                    leaf.bits
                );
            }
        }
    }

    #[test]
    fn leaves_replay_to_same_sample_through_algorithm1() {
        // Feeding a leaf's bit string into the column-scanning walk must
        // yield exactly that leaf's sample, consuming exactly its bits.
        let m = matrix("2", 16);
        let sampler = ColumnScanSampler::new(&m);
        for leaf in enumerate_leaves(&m) {
            let mut bits = leaf.bits.to_bits().into_iter();
            let mut src = || bits.next().expect("walk must not consume extra bits");
            let got = sampler
                .walk_with(&mut src)
                .expect("leaf string must terminate the walk");
            assert_eq!(got, leaf.value, "leaf {:?}", leaf.bits);
            assert_eq!(
                bits.next(),
                None,
                "walk must consume all bits of {:?}",
                leaf.bits
            );
        }
    }

    #[test]
    fn probabilities_from_leaves_match_matrix_rows() {
        // Sum of 2^-(level+1) over leaves with a given value equals the
        // row probability (as a dyadic rational).
        let m = matrix("2", 16);
        let n = m.precision();
        let mut mass = vec![0u64; m.rows() as usize];
        for leaf in enumerate_leaves(&m) {
            mass[leaf.value as usize] += 1u64 << (n - leaf.level - 1);
        }
        for v in 0..m.rows() {
            let mut expected = 0u64;
            for j in 0..n {
                if m.bit(v, j) {
                    expected += 1u64 << (n - 1 - j);
                }
            }
            assert_eq!(mass[v as usize], expected, "row {v}");
        }
    }

    #[test]
    fn delta_small_for_paper_sigmas() {
        // The paper reports Delta = 4, 4, 6 for sigma = 1, 2, 6.15543.
        // (At reduced precision Delta can only be smaller or equal; use 32
        // bits here for test speed — the full 128-bit values are checked in
        // the integration suite / delta_table binary.)
        let d1 = delta(&enumerate_leaves(&matrix("1", 32)));
        let d2 = delta(&enumerate_leaves(&matrix("2", 32)));
        assert!(d1 <= 4, "delta(sigma=1) = {d1}");
        assert!(d2 <= 4, "delta(sigma=2) = {d2}");
    }

    #[test]
    fn max_run_length_bounded_by_depth() {
        let m = matrix("2", 24);
        let leaves = enumerate_leaves(&m);
        let np = max_run_length(&leaves);
        assert!(np < 24);
        // There are leaves at many run lengths (deep levels need long runs).
        let deep = leaves.iter().map(|l| l.level).max().unwrap();
        assert!(deep >= 20, "expected deep leaves, got max level {deep}");
    }

    #[test]
    fn empty_delta_is_zero() {
        assert_eq!(delta(&[]), 0);
        assert_eq!(max_run_length(&[]), 0);
    }

    /// The paper's Delta table at full precision (Section 5): sigma = 1, 2,
    /// 6.15543, 215 give Delta = 4, 4, 6, 15 there. Delta depends on the
    /// low-order bits of the probabilities, which differ between the
    /// paper's continuous normalizer and our exact discrete normalization
    /// (see `ProbabilityMatrix::build`); we measure 3, 5, 6 — same
    /// `log2(tau * sigma) + O(1)` shape, exact match for sigma = 6.15543.
    /// Slow-ish, so run explicitly (`cargo test -- --ignored`).
    #[test]
    #[ignore = "full 128-bit enumeration; run explicitly or via the delta_table binary"]
    fn delta_matches_paper_shape_at_full_precision() {
        assert_eq!(delta(&enumerate_leaves(&matrix("1", 128))), 3);
        assert_eq!(delta(&enumerate_leaves(&matrix("2", 128))), 5);
        assert_eq!(delta(&enumerate_leaves(&matrix("6.15543", 128))), 6);
    }
}
