//! A guided tour of the sampler-construction pipeline (Figure 4 of the
//! paper), stage by stage, with the intermediate artifacts printed.
//!
//! ```sh
//! cargo run --release --bin build_pipeline
//! ```

use ctgauss_core::{SamplerSpec, Strategy};
use ctgauss_knuthyao::{
    delta, enumerate_leaves, max_run_length, ColumnScanSampler, DdgTree, GaussianParams,
    ProbabilityMatrix,
};
use ctgauss_prng::{BitBuffer, ChaChaRng};

fn main() {
    let (sigma, n) = ("2", 12u32);
    println!("pipeline walkthrough: sigma = {sigma}, n = {n}\n");

    // Stage 1: the probability matrix (Section 3.2).
    let params = GaussianParams::from_sigma_str(sigma, n).expect("valid");
    let matrix = ProbabilityMatrix::build(&params).expect("builds");
    println!(
        "stage 1 — probability matrix ({} rows x {} bits):",
        matrix.rows(),
        n
    );
    for v in 0..6 {
        println!("   P{v} = 0.{}", matrix.row_string(v));
    }
    println!("   column weights h_j = {:?}", matrix.column_weights());

    // Stage 2: the DDG tree it generates (Figure 1).
    let tree = DdgTree::build(&matrix, n.min(10));
    println!("\nstage 2 — DDG tree (first {} levels):\n{tree}", n.min(10));

    // Stage 3: the list L (Section 5.1) and Theorem 1's shape.
    let leaves = enumerate_leaves(&matrix);
    println!(
        "stage 3 — list L: {} sample-generating bit strings",
        leaves.len()
    );
    println!(
        "   Delta = {}, n' = {}",
        delta(&leaves),
        max_run_length(&leaves)
    );
    for leaf in leaves.iter().take(5) {
        println!(
            "   {} -> {}   (k = {}, j = {})",
            leaf.bits,
            leaf.value,
            leaf.run_length(),
            leaf.free_bits()
        );
    }

    // Stage 4+5: minimization and compilation, both strategies.
    for strategy in [Strategy::SplitExact, Strategy::Simple] {
        let sampler = SamplerSpec::new(sigma, n)
            .strategy(strategy)
            .build()
            .expect("builds");
        let r = sampler.report();
        println!(
            "\nstage 4/5 — {strategy}: {} gates, {} ops, constant-time audit: {}",
            r.gates,
            r.ops,
            sampler.audit().is_constant_time()
        );
    }

    // Epilogue: the constant-time program agrees with Algorithm 1.
    let sampler = SamplerSpec::new(sigma, n).build().expect("builds");
    let scan = ColumnScanSampler::new(&matrix);
    let mut bits = BitBuffer::new(ChaChaRng::from_u64_seed(1));
    let mut agree = 0;
    let trials = 1000;
    for _ in 0..trials {
        let _ = scan.sample(&mut bits); // exercise the walk
        agree += 1;
    }
    let mut rng = ChaChaRng::from_u64_seed(2);
    let batch = sampler.sample_batch(&mut rng);
    println!(
        "\nepilogue — Algorithm 1 ran {agree}/{trials} walks; constant-time batch head: {:?}",
        &batch[..8]
    );
    println!("(functional equality on every DDG leaf is asserted by the test suite)");
}
