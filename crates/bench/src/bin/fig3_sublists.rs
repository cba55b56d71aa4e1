//! Figure 3 reproduction: the list L sorted by trailing-ones count and
//! split into sublists l_kappa (sigma = 2, n = 16), plus (with
//! `--explain`) the Figure 4 pipeline walkthrough with stage sizes.

use ctgauss_core::{SamplerSpec, Strategy};
use ctgauss_knuthyao::{
    delta, enumerate_leaves, max_run_length, GaussianParams, ProbabilityMatrix,
};

fn main() {
    let explain = std::env::args().any(|a| a == "--explain");

    let params = GaussianParams::from_sigma_str("2", 16).expect("valid parameters");
    let matrix = ProbabilityMatrix::build(&params).expect("matrix builds");
    let mut leaves = enumerate_leaves(&matrix);

    println!("Figure 3: list L for sigma = 2, n = 16, sorted by the length k of");
    println!("the ones-run at the LSB end (paper convention: b0 is right-most).\n");
    println!(
        "{:>6}  {:>18}  {:>6}  sublist",
        "k", "random bit string", "sample"
    );

    leaves.sort_by_key(|l| (l.run_length(), l.level, l.rank));
    let mut current_k = u32::MAX;
    for leaf in &leaves {
        let k = leaf.run_length();
        if k != current_k {
            println!("  ---- sublist l_{k} ----");
            current_k = k;
        }
        println!(
            "{k:>6}  {:>18}  {:>6}  l_{k}",
            leaf.bits.to_string(),
            leaf.value
        );
        if k > 6 && leaf.rank == 0 {
            // Keep the print manageable: show only the first leaf of deep
            // sublists.
            println!("          ... (deeper sublists elided; see --explain totals)");
            break;
        }
    }

    let d = delta(&leaves);
    let np = max_run_length(&leaves);
    println!("\nDelta (max free bits j) = {d}; n' (max run length) = {np}");
    println!("total leaves |L| = {}", leaves.len());

    if explain {
        println!("\nFigure 4: pipeline walkthrough (sigma = 2, n = 16)\n");
        println!(
            "  stage 1: probability matrix     {} rows x {} bits",
            matrix.rows(),
            matrix.precision()
        );
        println!("  stage 2: enumerate list L       {} strings", leaves.len());
        println!(
            "  stage 3: sort + split by k      {} sublists (Delta = {d})",
            np + 1
        );
        let sampler = SamplerSpec::new("2", 16)
            .strategy(Strategy::SplitExact)
            .build()
            .expect("builds");
        let report = sampler.report();
        println!("  stage 4: exact minimization     per-sublist literal counts:");
        for info in &report.sublists {
            if info.leaves > 0 {
                println!(
                    "           l_{:<3} {:>4} leaves, window {} bits, {:>3} literals, {}",
                    info.kappa,
                    info.leaves,
                    info.window,
                    info.literals,
                    if info.exact {
                        "exact (QM+Petrick)"
                    } else {
                        "heuristic"
                    }
                );
            }
        }
        println!(
            "  stage 5: Eqn 2 mux chain + bitslice compile: {} gates, {} ops",
            report.gates, report.ops
        );
    }
}
