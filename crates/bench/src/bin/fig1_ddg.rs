//! Figure 1 reproduction: the probability matrix and DDG tree for
//! sigma = 2, n = 6, plus (with `--boolean`) the Figure 2 artifact — the
//! random-bits-to-sample-bits Boolean functions for a small instance.

use ctgauss_core::{SamplerSpec, Strategy};
use ctgauss_knuthyao::{enumerate_leaves, DdgTree, GaussianParams, ProbabilityMatrix};

fn main() {
    let show_boolean = std::env::args().any(|a| a == "--boolean");

    let params = GaussianParams::from_sigma_str("2", 6).expect("valid parameters");
    let matrix = ProbabilityMatrix::build(&params).expect("matrix builds");

    println!("Figure 1: probability matrix for sigma = 2, n = 6");
    println!("(the paper prints rows P0..P5; rows below 2^-6 are all-zero)\n");
    for v in 0..6 {
        println!(
            "  P{v}  {}",
            matrix
                .row_string(v)
                .chars()
                .map(|c| format!("{c}   "))
                .collect::<String>()
        );
    }
    let expected = ["001100", "010110", "001111", "001000", "000011", "000001"];
    for (v, want) in expected.iter().enumerate() {
        assert_eq!(
            matrix.row_string(v as u32),
            *want,
            "row {v} departs from the paper"
        );
    }
    println!("\n  [check] all six rows match the paper's Figure 1 exactly");

    println!("\nDDG tree (level by level; numbers are leaf sample values):\n");
    let tree = DdgTree::build(&matrix, 6);
    println!("{tree}");

    let leaves = enumerate_leaves(&matrix);
    println!(
        "leaves per level (column Hamming weights): {:?}",
        matrix.column_weights()
    );
    println!("total leaves: {}", leaves.len());

    if show_boolean {
        println!("\nFigure 2: Boolean functions mapping random bits to sample bits");
        println!("(sigma = 2, n = 8 for readability)\n");
        let sampler = SamplerSpec::new("2", 8)
            .strategy(Strategy::SplitExact)
            .build()
            .expect("builds");
        let report = sampler.report();
        println!(
            "inputs: b0..b7 (random bits); outputs: s0..s{} (sample bits)",
            sampler.program().outputs().len() - 1
        );
        println!(
            "compiled program: {} ops, {} gates",
            report.ops, report.gates
        );
        println!("\n{}", sampler.program());
        println!("\nmapping check (each DDG leaf string evaluated through the program):");
        let leaves8 = enumerate_leaves(sampler.matrix());
        for leaf in leaves8.iter().take(10) {
            println!("  {} -> {}", leaf.bits, leaf.value);
        }
        println!("  ... ({} strings total)", leaves8.len());
    }
}
