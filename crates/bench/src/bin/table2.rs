//! Table 2 reproduction: sampler-kernel cost (per 64-sample batch,
//! pseudorandomness excluded) — simple minimization (\[21\]) vs this work's
//! split-exact minimization.
//!
//! Paper values (clock cycles per 64 samples, PRNG excluded):
//!
//! | sigma    | \[21\] simple | This work | Improvement |
//! |----------|-------------|-----------|-------------|
//! | 2        | 3787        | 2293      | 37%         |
//! | 6.15543  | 11136       | 9880      | 11% (*)     |
//!
//! (*) the paper's sigma = 6.15543 baseline had been hand-optimized.
//!
//! We report measured cycles of the compiled execution engine (the
//! straight-line program lowered once to a fused, register-allocated
//! kernel — the software analogue of the paper's compiled C) and the gate
//! counts of both programs, whose ratio is the architecture-independent
//! reproduction of the improvement. The `kernel_compare` bin measures
//! how much the lowering buys over the old per-op interpreter.
//!
//! Also reproduces the Section 4 claim that the bitsliced sampler beats
//! linear-search CDT per sample (X4).

use ctgauss_bench::report::{smoke_requested, BenchReport};
use ctgauss_bench::{cycle_unit, measure_cycles_floor, print_table};
use ctgauss_cdt::{CdtTable, LinearSearchCdt};
use ctgauss_core::{SamplerSpec, Strategy};
use ctgauss_knuthyao::GaussianParams;
use ctgauss_prng::{ChaChaRng, RandomSource};

fn main() {
    // `--smoke` (CI): sigma = 2 only (the sigma = 6.15543 simple-strategy
    // build dominates the runtime), fewer measurement runs, no X4 sweep.
    let smoke = smoke_requested();
    // Smoke runs MORE iterations than full, not fewer: its cycle counts
    // are regression-gated in CI, and the best-of-runs estimator only
    // beats scheduler interference if the measurement window spans
    // several scheduling quanta (~10 ms+) so some iterations land clean.
    // At ~1-11 us per batch that takes thousands of iterations; full
    // mode's larger kernels get there with fewer.
    let runs = if smoke { 10_001 } else { 2001 };
    let mut report = BenchReport::new("table2", smoke);
    let configs: &[(&str, u64, u64)] = if smoke {
        &[("2", 3787, 2293)]
    } else {
        &[("2", 3787, 2293), ("6.15543", 11136, 9880)]
    };
    println!("Table 2: sampler kernel, 64 samples/batch, PRNG excluded\n");
    let mut rows = Vec::new();
    for &(sigma, paper_simple, paper_split) in configs {
        eprintln!("[table2] building samplers for sigma = {sigma} (simple takes a while) ...");
        let split = SamplerSpec::new(sigma, 128)
            .strategy(Strategy::SplitExact)
            .build()
            .expect("valid parameters");
        let simple = SamplerSpec::new(sigma, 128)
            .strategy(Strategy::Simple)
            .build()
            .expect("valid parameters");

        // Pre-generate randomness: Table 2 excludes PRNG cost.
        let mut rng = ChaChaRng::from_u64_seed(7);
        let mut inputs = vec![0u64; 128];
        rng.fill_u64s(&mut inputs);
        let signs = rng.next_u64();

        let cycles_split = measure_cycles_floor(runs, || {
            std::hint::black_box(split.run_batch(&inputs, signs));
        });
        let cycles_simple = measure_cycles_floor(runs, || {
            std::hint::black_box(simple.run_batch(&inputs, signs));
        });
        let improvement = (1.0 - cycles_split as f64 / cycles_simple as f64) * 100.0;
        let gate_improvement =
            (1.0 - split.report().gates as f64 / simple.report().gates as f64) * 100.0;
        let tag = format!("sigma{}", sigma.replace('.', "_"));
        report.metric(
            format!("{tag}_simple_{}", cycle_unit()),
            cycles_simple as f64,
        );
        report.metric(format!("{tag}_split_{}", cycle_unit()), cycles_split as f64);
        report.metric(format!("{tag}_improvement_pct"), improvement);
        report.metric(format!("{tag}_gate_improvement_pct"), gate_improvement);
        rows.push(vec![
            format!("sigma = {sigma}"),
            format!("{cycles_simple} ({paper_simple})"),
            format!("{cycles_split} ({paper_split})"),
            format!(
                "{improvement:.0}% (paper {}%)",
                if sigma == "2" { 37 } else { 11 }
            ),
            format!("{} vs {}", simple.report().gates, split.report().gates),
            format!("{gate_improvement:.0}%"),
        ]);
    }
    print_table(
        &[
            "Distribution",
            &format!("[21] simple ({})", cycle_unit()),
            &format!("this work ({})", cycle_unit()),
            "improvement",
            "gates simple vs split",
            "gate improvement",
        ],
        &rows,
    );

    // X4: per-sample comparison against the constant-time linear CDT
    // (full mode only — it needs the sigma = 6.15543 split build).
    if !smoke {
        println!("\nX4 (Section 4): bitsliced vs linear-search CDT per sample, sigma = 6.15543");
        let split = SamplerSpec::new("6.15543", 128)
            .strategy(Strategy::SplitExact)
            .build()
            .expect("valid parameters");
        let table = CdtTable::build(&GaussianParams::new("6.15543", 128, 13).unwrap()).unwrap();
        let lin = LinearSearchCdt::new(&table);
        let mut rng = ChaChaRng::from_u64_seed(11);
        let cycles_batch = measure_cycles_floor(runs, || {
            std::hint::black_box(split.sample_batch(&mut rng));
        });
        let mut rng_w = ChaChaRng::from_u64_seed(13);
        let cycles_wide = measure_cycles_floor(runs / 4 + 1, || {
            std::hint::black_box(split.sample_batch_wide::<8, _>(&mut rng_w));
        }) / 8;
        let mut rng2 = ChaChaRng::from_u64_seed(12);
        let cycles_lin64 = measure_cycles_floor(runs, || {
            for _ in 0..64 {
                std::hint::black_box(lin.sample_signed(&mut rng2));
            }
        });
        println!(
            "  per 64 samples (PRNG included, {}): bitsliced W=1: {}, W=8: {}, linear CDT: {}",
            cycle_unit(),
            cycles_batch,
            cycles_wide,
            cycles_lin64,
        );
        println!(
            "  speedup vs linear CDT: {:.2}x (W=1) / {:.2}x (W=8); prior work [21] reported ~2x\n  (both sides compiled straight-line code; see EXPERIMENTS.md)",
            cycles_lin64 as f64 / cycles_batch as f64,
            cycles_lin64 as f64 / cycles_wide as f64
        );
        report.metric(
            format!("x4_bitsliced_w1_{}", cycle_unit()),
            cycles_batch as f64,
        );
        report.metric(
            format!("x4_bitsliced_w8_{}", cycle_unit()),
            cycles_wide as f64,
        );
        report.metric(
            format!("x4_linear_cdt_{}", cycle_unit()),
            cycles_lin64 as f64,
        );
        report.metric("x4_speedup_w8", cycles_lin64 as f64 / cycles_wide as f64);
    }
    report.write().expect("write BENCH_table2.json");
}
