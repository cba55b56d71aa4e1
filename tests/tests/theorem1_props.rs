//! Property-based integration tests of the paper's structural claims
//! (Theorem 1 and the pipeline invariants) across random parameters.

use ctgauss_core::SamplerSpec;
use ctgauss_knuthyao::{
    delta, enumerate_leaves, max_run_length, ColumnScanSampler, GaussianParams, ProbabilityMatrix,
};
use proptest::prelude::*;

fn arb_sigma() -> impl Strategy<Value = String> {
    // sigma in [1.0, 8.0] with two decimals.
    (100u32..800).prop_map(|v| format!("{}.{:02}", v / 100, v % 100))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1: every sample-generating string has the x^i (0/1)^j 0 1^k
    /// shape — equivalently, no all-ones string generates a sample — for
    /// random sigma and precision.
    #[test]
    fn theorem1_holds_for_random_parameters(sigma in arb_sigma(), n in 8u32..40) {
        let params = GaussianParams::from_sigma_str(&sigma, n).unwrap();
        let matrix = ProbabilityMatrix::build(&params).unwrap();
        for leaf in enumerate_leaves(&matrix) {
            prop_assert!(leaf.run_length() < leaf.bits.len(),
                "sigma={sigma} n={n}: all-ones leaf {:?}", leaf.bits);
        }
    }

    /// Delta stays within a constant of log2(tau * sigma) (the shape the
    /// paper's Delta table demonstrates).
    #[test]
    fn delta_tracks_log_tail(sigma in arb_sigma(), n in 16u32..48) {
        let params = GaussianParams::from_sigma_str(&sigma, n).unwrap();
        let matrix = ProbabilityMatrix::build(&params).unwrap();
        let leaves = enumerate_leaves(&matrix);
        let d = delta(&leaves);
        let sigma_f: f64 = sigma.parse().unwrap();
        let log_tail = (13.0 * sigma_f).log2();
        prop_assert!((f64::from(d) - log_tail).abs() < 5.0,
            "sigma={sigma} n={n}: Delta={d}, log2(tau sigma)={log_tail:.1}");
        prop_assert!(max_run_length(&leaves) < n);
    }

    /// The compiled constant-time sampler equals Algorithm 1 on every leaf
    /// for random parameters (the core correctness claim).
    #[test]
    fn ct_program_equals_walk(sigma in arb_sigma(), n in 8u32..16) {
        let sampler = SamplerSpec::new(&sigma, n).build().unwrap();
        let leaves = enumerate_leaves(sampler.matrix());
        for chunk in leaves.chunks(64) {
            let mut inputs = vec![0u64; n as usize];
            for (lane, leaf) in chunk.iter().enumerate() {
                for (pos, bit) in leaf.bits.iter().enumerate() {
                    if bit {
                        inputs[pos] |= 1 << lane;
                    }
                }
            }
            let out = sampler.run_batch(&inputs, 0);
            for (lane, leaf) in chunk.iter().enumerate() {
                prop_assert_eq!(out[lane] as u32, leaf.value,
                    "sigma={} n={}: leaf {:?}", &sigma, n, &leaf.bits);
            }
        }
    }

    /// Leaf probabilities reconstruct the matrix rows exactly (mass
    /// conservation between the tree view and the matrix view).
    #[test]
    fn leaf_mass_equals_row_mass(sigma in arb_sigma(), n in 8u32..24) {
        let params = GaussianParams::from_sigma_str(&sigma, n).unwrap();
        let matrix = ProbabilityMatrix::build(&params).unwrap();
        let mut mass = vec![0u64; matrix.rows() as usize];
        for leaf in enumerate_leaves(&matrix) {
            mass[leaf.value as usize] += 1u64 << (n - leaf.level - 1);
        }
        for v in 0..matrix.rows() {
            let mut expected = 0u64;
            for j in 0..n {
                if matrix.bit(v, j) {
                    expected += 1u64 << (n - 1 - j);
                }
            }
            prop_assert_eq!(mass[v as usize], expected, "row {}", v);
        }
    }

    /// Replaying any leaf string through Algorithm 1 terminates with that
    /// leaf's value and consumes exactly its bits.
    #[test]
    fn walk_replay_is_exact(sigma in arb_sigma(), n in 8u32..20) {
        let params = GaussianParams::from_sigma_str(&sigma, n).unwrap();
        let matrix = ProbabilityMatrix::build(&params).unwrap();
        let sampler = ColumnScanSampler::new(&matrix);
        for leaf in enumerate_leaves(&matrix).into_iter().take(200) {
            let mut iter = leaf.bits.to_bits().into_iter();
            let got = sampler.walk_with(&mut || iter.next().expect("no extra bits"));
            prop_assert_eq!(got, Some(leaf.value));
            prop_assert_eq!(iter.next(), None);
        }
    }
}
