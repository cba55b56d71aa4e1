//! CI smoke check for the two execution engines: the interpreter
//! (reference oracle) and the tiled superinstruction kernel (production).
//!
//! Builds the sigma = 2 (n = 24) and sigma = 6.15543 (n = 128)
//! split-exact profiles and asserts, over random batches, that the tiled
//! kernel agrees with the interpreter bit for bit at W = 1; that every
//! backend in [`Backend::available`] agrees with the scalar reference
//! batch lane for lane; that the tiled kernel's constant-time audit
//! holds; and that its static dispatch count is at least 3× below its
//! micro-op count. Exits non-zero on any violation.
//!
//! The binary also prints a digest of a `sample_into` stream through the
//! *selected* backend to stdout. Because the draw-order contract makes
//! the stream backend-independent, CI runs the binary twice — once
//! native, once with `CTGAUSS_FORCE_BACKEND=portable` — and diffs the
//! stdout transcripts for bit-exactness (backend names go to stderr so
//! the transcripts stay comparable).
//!
//! `--quick` shrinks the round count for CI; the profile builds dominate
//! the runtime either way.

use ctgauss_core::{Backend, CtSampler, SamplerBuilder, Strategy};
use ctgauss_prng::{RandomSource, SplitMix64};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds = if quick { 8 } else { 64 };
    let mut failures = 0usize;
    for (sigma, n) in [("2", 24u32), ("6.15543", 128)] {
        eprintln!("[kernel_smoke] building sigma = {sigma}, n = {n} (split-exact) ...");
        let sampler = SamplerBuilder::new(sigma, n)
            .strategy(Strategy::SplitExact)
            .build()
            .expect("valid parameters");
        let tiled = sampler.tiled_kernel();
        let stats = tiled.stats();
        let reduction = stats.micro_ops as f64 / stats.dispatches as f64;
        println!(
            "sigma = {sigma}, n = {n}: {} micro-ops, {} tiles ({reduction:.2}x fewer dispatches, \
             {} quads / {} triples / {} pairs / {} singles, {})",
            stats.micro_ops,
            stats.dispatches,
            stats.quads,
            stats.triples,
            stats.pairs,
            stats.singles,
            if stats.dense { "dense u32" } else { "u16x4" },
        );
        if reduction < 3.0 {
            println!("FAIL: dispatch reduction {reduction:.2}x below the 3x floor");
            failures += 1;
        }
        if !sampler.audit_tiled().is_constant_time() {
            println!("FAIL: tiled kernel audit is not constant-time");
            failures += 1;
        }

        // W = 1 through the sampler APIs: both engines on the same
        // randomness, compared lane for lane.
        let mut rng = SplitMix64::new(0x5eed ^ u64::from(n));
        for round in 0..rounds {
            let mut inputs = vec![0u64; n as usize];
            rng.fill_u64s(&mut inputs);
            let signs = rng.next_u64();
            if sampler.run_batch(&inputs, signs) != sampler.run_batch_reference(&inputs, signs) {
                println!("FAIL: engine mismatch, sigma = {sigma}, round {round}");
                failures += 1;
                break;
            }
        }

        // Every available lane backend against the scalar reference batch,
        // plus the backend-independent stream digest for cross-process
        // diffing (see the module docs).
        failures += check_backends(&sampler, rounds);
        let digest = stream_digest(&sampler, 4096 + 37);
        println!("sigma = {sigma}, n = {n}: dispatched stream digest = {digest:016x}");
    }
    let selected = Backend::select();
    eprintln!(
        "[kernel_smoke] selected lane backend: {selected} (width {})",
        selected.width()
    );
    if failures > 0 {
        println!("kernel_smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("kernel_smoke: both engines and all lane backends agree, dispatch floor met");
}

/// Differences every available backend's dispatched batch executor against
/// the per-lane scalar reference on shared planar randomness.
fn check_backends(sampler: &CtSampler, rounds: usize) -> usize {
    let ni = sampler.program().num_inputs() as usize;
    let nw = sampler.tiled_kernel().num_outputs();
    let mut failures = 0usize;
    for backend in Backend::available() {
        let w = backend.width();
        let mut rng = SplitMix64::new(0xbac0_5eed ^ w as u64);
        let mut words = vec![0u64; nw * w];
        let mut out = vec![0i32; 64 * w];
        for round in 0..rounds {
            let mut inputs = vec![0u64; ni * w];
            rng.fill_u64s(&mut inputs);
            let mut signs = vec![0u64; w];
            rng.fill_u64s(&mut signs);
            sampler.run_batch_lanes(backend, &inputs, &mut words, &signs, &mut out);
            for lane in 0..w {
                let lane_inputs: Vec<u64> = (0..ni).map(|i| inputs[i * w + lane]).collect();
                let expected = sampler.run_batch_reference(&lane_inputs, signs[lane]);
                if out[64 * lane..64 * (lane + 1)] != expected {
                    println!(
                        "FAIL: backend {backend} lane {lane} diverged from the \
                         scalar reference, round {round}"
                    );
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// FNV-1a digest of a `sample_into` stream drawn through the sampler's
/// *selected* backend schedule — identical across backends by the
/// draw-order contract, so two processes with different
/// `CTGAUSS_FORCE_BACKEND` settings must print the same value.
fn stream_digest(sampler: &CtSampler, len: usize) -> u64 {
    let mut rng = SplitMix64::new(0xd15e_57a7);
    let mut samples = vec![0i32; len];
    sampler.sample_into(&mut samples, &mut rng);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in samples {
        for b in s.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
