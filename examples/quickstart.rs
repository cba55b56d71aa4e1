//! Quickstart: build a constant-time discrete Gaussian sampler and draw
//! samples.
//!
//! ```sh
//! cargo run --release --bin quickstart
//! ```

use ctgauss_core::{SamplerSpec, Strategy};
use ctgauss_prng::ChaChaRng;

fn main() {
    // The paper's Falcon configuration: sigma = 2, 128-bit probabilities,
    // tail cut 13. `build` runs the whole Figure 4 pipeline: Knuth-Yao
    // matrix -> list L -> sublist split -> exact Boolean minimization ->
    // constant-time recombination -> bitsliced program.
    let sampler = SamplerSpec::new("2", 128)
        .tail_cut(13)
        .strategy(Strategy::SplitExact)
        .build()
        .expect("parameters are valid");

    let report = sampler.report();
    println!("built sampler: sigma = 2, n = 128");
    println!("  DDG leaves        : {}", report.leaves);
    println!("  Delta (free bits) : {}", report.delta);
    println!("  sublists          : {}", report.sublists.len());
    println!("  compiled gates    : {}", report.gates);
    println!("  bits per sample   : {}", sampler.bits_per_sample());

    // The static constant-time audit: straight-line, input-taint only.
    let audit = sampler.audit();
    println!("  constant-time     : {}", audit.is_constant_time());

    // Draw one 64-sample batch (constant time, 129 random words).
    let mut rng = ChaChaRng::from_u64_seed(42);
    let batch = sampler.sample_batch(&mut rng);
    println!("\nfirst batch: {:?}", &batch[..16]);

    // Or stream single samples.
    let mut stream = sampler.stream();
    let singles: Vec<i32> = (0..8).map(|_| stream.next(&mut rng)).collect();
    println!("streamed   : {singles:?}");

    // Empirical moments over a million samples.
    let mut sum = 0f64;
    let mut sq = 0f64;
    let batches = 16_000;
    for _ in 0..batches {
        for s in sampler.sample_batch(&mut rng) {
            sum += f64::from(s);
            sq += f64::from(s) * f64::from(s);
        }
    }
    let n = f64::from(batches) * 64.0;
    let mean = sum / n;
    println!(
        "\nover {} samples: mean = {mean:+.4}, variance = {:.4} (sigma^2 = 4)",
        batches * 64,
        sq / n - mean * mean
    );
}
