//! The two execution engines raced per 64-sample batch (PRNG excluded —
//! both sides consume the same pre-generated words):
//!
//! * `interpreter` — `CtSampler::run_batch_reference`: per-op `match` over
//!   the full SSA register file (the reference oracle).
//! * `tiled` — `CtSampler::run_batch`: the production superinstruction
//!   engine — the optimizing lowering (DCE, fusion, GVN, list scheduling,
//!   slot allocation) re-encoded as one dispatch per 2–4-op tile over a
//!   dense-packed stream.
//!
//! Divide the reported per-batch time by 64 for per-sample ns. The wide
//! rows execute 4 batch records per kernel pass through reusable scratch
//! (256 samples per iteration). Static dispatch counts are printed at
//! setup: the tiled engine's ~3–4× reduction versus one dispatch per
//! lowered instruction is the mechanism behind its scalar speedup.
//!
//! Configurations: sigma = 2 at n = 24 (the acceptance configuration),
//! the paper's Falcon base distribution sigma = 2 at n = 128, and the
//! large-sigma Table 2 case sigma = 6.15543 at n = 128.
//!
//! The `backend_*` rows sweep every lane backend available on the host
//! (scalar u64, portable `[u64; N]`, and the native vector ISAs) through
//! the dispatched tiled executor on pre-generated planar randomness.
//! Element throughput is reported (64 × width samples per iteration), so
//! the rows are directly comparable per sample across widths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctgauss_core::{Backend, SamplerBuilder, Strategy};
use ctgauss_prng::{ChaChaRng, RandomSource, SplitMix64};

fn bench_kernel_compare(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_compare_64samples");
    for (sigma, n) in [("2", 24u32), ("2", 128), ("6.15543", 128)] {
        let id = format!("sigma{sigma}_n{n}");
        let sampler = SamplerBuilder::new(sigma, n)
            .strategy(Strategy::SplitExact)
            .build()
            .expect("valid parameters");
        let interp_dispatch = sampler.program().ops().len();
        let tiled = sampler.tiled_kernel();
        let micro_ops = tiled.stats().micro_ops;
        eprintln!(
            "[kernel_compare] {id}: static dispatches interpreter={interp_dispatch} \
             tiled={} ({:.2}x fewer than its {micro_ops} micro-ops, {})",
            tiled.dispatch_count(),
            micro_ops as f64 / tiled.dispatch_count() as f64,
            if tiled.stats().dense {
                "dense u32"
            } else {
                "u16x4"
            },
        );
        let mut rng = ChaChaRng::from_u64_seed(5);
        let mut inputs = vec![0u64; n as usize];
        rng.fill_u64s(&mut inputs);
        let signs = rng.next_u64();
        group.throughput(Throughput::Elements(64));
        group.bench_with_input(BenchmarkId::new("interpreter", &id), &id, |b, _| {
            b.iter(|| std::hint::black_box(sampler.run_batch_reference(&inputs, signs)))
        });
        group.bench_with_input(BenchmarkId::new("tiled", &id), &id, |b, _| {
            b.iter(|| std::hint::black_box(sampler.run_batch(&inputs, signs)))
        });
        // Wide tiled path, PRNG included but cheap (SplitMix64):
        // 256 samples per iteration through reused scratch, on the
        // backend the sampler picks for 4-word batches.
        let mut fast_rng = SplitMix64::new(17);
        let mut scratch = sampler.scratch::<4>();
        let mut out = [0i32; 256];
        group.throughput(Throughput::Elements(256));
        group.bench_with_input(BenchmarkId::new("tiled_wide4", &id), &id, |b, _| {
            b.iter(|| {
                sampler.sample_batch_with(&mut fast_rng, &mut scratch, &mut out);
                std::hint::black_box(out[0])
            })
        });
        // The runtime-dispatched lane backends, PRNG excluded: one tiled
        // kernel pass over pre-generated planar randomness plus the
        // per-lane sample decode. 64 * width samples per iteration.
        let nw = sampler.tiled_kernel().num_outputs();
        for backend in Backend::available() {
            let w = backend.width();
            let mut planar = vec![0u64; n as usize * w];
            rng.fill_u64s(&mut planar);
            let mut lane_signs = vec![0u64; w];
            rng.fill_u64s(&mut lane_signs);
            let mut words = vec![0u64; nw * w];
            let mut lanes_out = vec![0i32; 64 * w];
            group.throughput(Throughput::Elements(64 * w as u64));
            let row = format!("backend_{}", backend.name());
            group.bench_with_input(BenchmarkId::new(row, &id), &id, |b, _| {
                b.iter(|| {
                    sampler.run_batch_lanes(
                        backend,
                        &planar,
                        &mut words,
                        &lane_signs,
                        &mut lanes_out,
                    );
                    std::hint::black_box(lanes_out[0])
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(60).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_kernel_compare
}
criterion_main!(benches);
