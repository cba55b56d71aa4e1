//! Figure 5 reproduction: histograms of the constant-time sampler's output
//! for sigma = 2 and sigma = 6.15543.
//!
//! The paper plots 64 x 10^7 samples; the default here is 64 x 10^5 for a
//! quick run — pass `--paper-scale` for the full count (minutes) or
//! `--samples <N>` for a custom batch count. Emits the chi-square
//! goodness of fit, statistical distance and CSV data alongside the ASCII
//! plot.

use ctgauss_core::SamplerSpec;
use ctgauss_prng::ChaChaRng;
use ctgauss_stats::{chi_square_test, discrete_gaussian_pmf, statistical_distance, Histogram};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let batches: u64 = if paper_scale {
        10_000_000
    } else if let Some(i) = args.iter().position(|a| a == "--samples") {
        args.get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--samples needs a batch count")
    } else {
        100_000
    };
    let write_csv = args.iter().any(|a| a == "--csv");

    for sigma in ["2", "6.15543"] {
        let sigma_f: f64 = sigma.parse().expect("numeric sigma");
        println!(
            "\nFigure 5: sigma = {sigma}, {} samples (paper: 64 x 10^7)",
            batches * 64
        );
        let sampler = SamplerSpec::new(sigma, 64).build().expect("builds");
        let bound = sampler.matrix().rows() - 1;
        let mut rng = ChaChaRng::from_u64_seed(0xF165);
        let mut hist = Histogram::new(-(bound as i32), bound as i32);
        for _ in 0..batches {
            for s in sampler.sample_batch(&mut rng) {
                hist.add(s);
            }
        }
        println!("{}", hist.render_ascii(60));
        println!("mean = {:+.5} (expect 0)", hist.mean());
        println!(
            "variance = {:.5} (expect ~{:.5})",
            hist.variance(),
            sigma_f * sigma_f
        );

        let pmf = discrete_gaussian_pmf(sigma_f, bound);
        let gof = chi_square_test(&hist, &pmf);
        println!(
            "chi-square: statistic = {:.2}, dof = {}, p = {:.4} ({})",
            gof.statistic,
            gof.dof,
            gof.p_value,
            if gof.rejects_at(0.001) {
                "REJECTED"
            } else {
                "consistent"
            }
        );
        let sd = statistical_distance(&hist.frequencies(), &pmf);
        println!("statistical distance (empirical vs exact): {sd:.2e}");

        if write_csv {
            let path = format!("fig5_sigma_{}.csv", sigma.replace('.', "_"));
            std::fs::write(&path, hist.to_csv()).expect("CSV write");
            println!("wrote {path}");
        }
    }
}
