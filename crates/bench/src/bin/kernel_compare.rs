//! The two execution engines (reference interpreter, tiled
//! superinstruction engine) raced per 64-sample batch with PRNG excluded,
//! plus every available lane backend through the dispatched tiled
//! executor: best-of-runs wall nanoseconds (the noise-robust estimator;
//! see `report::measure_ns_floor`), written to `BENCH_kernel_compare.json`
//! for the CI regression gate.
//!
//! Each profile also records its static dispatch counts, the mechanism
//! behind the tiled engine's speedup: `{id}_interpreter_ops` (one
//! dispatch per source op), `{id}_micro_ops` (the lowered instructions)
//! and `{id}_tiled_dispatches` (one per superinstruction tile). Counts
//! carry no gated suffix, so the regression gate reports them only.
//!
//! ```text
//! kernel_compare [--smoke]
//! ```
//!
//! `--smoke` restricts to the sigma = 2, n = 24 acceptance profile with
//! a shorter measurement budget.

use ctgauss_bench::print_table;
use ctgauss_bench::report::{measure_ns_floor, smoke_requested, BenchReport};
use ctgauss_core::{Backend, SamplerBuilder, Strategy};
use ctgauss_prng::{ChaChaRng, RandomSource};

fn main() {
    let smoke = smoke_requested();
    // Smoke measures only the small n = 24 kernel (~0.3-0.9 us per
    // batch), whose regression-gated numbers need a measurement window
    // spanning several scheduling quanta (~10 ms+) for the best-of-runs
    // estimator to find a clean iteration — hence more runs than full
    // mode, whose n = 128 kernels run 4-30 us each.
    let runs = if smoke { 20_001 } else { 2001 };
    let configs: &[(&str, u32)] = if smoke {
        &[("2", 24)]
    } else {
        &[("2", 24), ("2", 128), ("6.15543", 128)]
    };
    let mut report = BenchReport::new("kernel_compare", smoke);
    let mut rows = Vec::new();
    for &(sigma, n) in configs {
        let id = format!("sigma{}_n{n}", sigma.replace('.', "_"));
        let sampler = SamplerBuilder::new(sigma, n)
            .strategy(Strategy::SplitExact)
            .build()
            .expect("valid parameters");
        // Pre-generated randomness: the engines race on identical words.
        let mut rng = ChaChaRng::from_u64_seed(5);
        let mut inputs = vec![0u64; n as usize];
        rng.fill_u64s(&mut inputs);
        let signs = rng.next_u64();

        let interpreter_ops = sampler.program().ops().len();
        let micro_ops = sampler.tiled_kernel().stats().micro_ops;
        let tiled_dispatches = sampler.tiled_kernel().dispatch_count();
        report.metric(format!("{id}_interpreter_ops"), interpreter_ops as f64);
        report.metric(format!("{id}_micro_ops"), micro_ops as f64);
        report.metric(format!("{id}_tiled_dispatches"), tiled_dispatches as f64);

        let interp = measure_ns_floor(runs, || {
            std::hint::black_box(sampler.run_batch_reference(&inputs, signs));
        });
        let tiled = measure_ns_floor(runs, || {
            std::hint::black_box(sampler.run_batch(&inputs, signs));
        });
        report.metric(format!("{id}_interpreter_ns"), interp as f64);
        report.metric(format!("{id}_tiled_ns"), tiled as f64);
        report.metric(
            format!("{id}_tiled_speedup_vs_interpreter"),
            interp as f64 / tiled as f64,
        );
        rows.push(vec![
            id.clone(),
            "64".to_owned(),
            interp.to_string(),
            tiled.to_string(),
            format!("{:.2}x", interp as f64 / tiled as f64),
            format!("{interpreter_ops}/{micro_ops}/{tiled_dispatches}"),
        ]);

        // The runtime-dispatched lane backends on pre-generated planar
        // randomness: one tiled pass + per-lane decode, 64 * W samples
        // per iteration, normalized per sample so widths are comparable.
        let nw = sampler.tiled_kernel().num_outputs();
        for backend in Backend::available() {
            let w = backend.width();
            let mut planar = vec![0u64; n as usize * w];
            rng.fill_u64s(&mut planar);
            let mut lane_signs = vec![0u64; w];
            rng.fill_u64s(&mut lane_signs);
            let mut words = vec![0u64; nw * w];
            let mut lanes_out = vec![0i32; 64 * w];
            let per_pass = measure_ns_floor(runs, || {
                sampler.run_batch_lanes(backend, &planar, &mut words, &lane_signs, &mut lanes_out);
                std::hint::black_box(lanes_out[0]);
            });
            let per_sample = per_pass as f64 / (64.0 * w as f64);
            report.metric(
                format!("{id}_backend_{}_per_sample_ns", backend.name()),
                per_sample,
            );
            rows.push(vec![
                format!("{id} [{}]", backend.name()),
                format!("{}", 64 * w),
                String::new(),
                format!("{per_pass} ({per_sample:.1}/sample)"),
                String::new(),
                String::new(),
            ]);
        }
    }
    println!("kernel_compare: best-of-runs wall ns per batch, PRNG excluded\n");
    print_table(
        &[
            "profile",
            "samples/iter",
            "interpreter",
            "tiled",
            "speedup",
            "ops/micro/dispatches",
        ],
        &rows,
    );
    report.write().expect("write BENCH_kernel_compare.json");
}
