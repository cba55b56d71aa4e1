//! Property tests for the two engines: on random well-formed programs and
//! random inputs, the tiled kernel ([`TiledKernel`]) on every lane backend
//! compiled for this host is bit-identical to the scalar `u64` interpreter
//! oracle; tiling is a pure re-encoding of the lowered
//! ([`CompiledKernel`]) instruction stream; lowering is deterministic; and
//! the tiled kernel's constant-time audit never gains an input dependence
//! over the source program's.
//!
//! The matrix is backend-major: each proptest case iterates the full
//! [`Backend::available()`] list, so the portable lane words (W = 1, 2, 4,
//! 8) are always pinned against the oracle even on hosts where detection
//! would pick an AVX shim, and the AVX cells are exercised exactly where
//! the CPU supports them. Backends run on the caller's planar buffers in
//! place, so each case also slices those buffers out of a larger
//! allocation at a word offset. The sampler tests in `ctgauss-core` hold
//! every available backend's batches and `sample_into` streams equal to
//! the scalar reference on real sampler kernels.

mod common;

use common::build_program;
use ctgauss_bitslice::{
    audit, audit_tiled, interpret, Backend, CompiledKernel, Program, TiledKernel,
};
use proptest::prelude::*;

/// Planar random inputs for a `width`-lane run: `num_inputs * width` words,
/// input-major (`inputs[i * width + lane]`).
fn planar_inputs(num_inputs: usize, width: usize, input_seed: u64) -> Vec<u64> {
    let mut s = input_seed;
    (0..num_inputs * width)
        .map(|i| {
            s = s
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(i as u64 | 1);
            s
        })
        .collect()
}

/// The scalar oracle, broadcast over lanes: output plane `o`, lane `w` of a
/// planar run must equal `interpret` on the single-lane slice of the inputs.
fn oracle(program: &Program, inputs: &[u64], width: usize) -> Vec<u64> {
    let num_inputs = inputs.len() / width;
    let num_outputs = program.outputs().len();
    let mut expected = vec![0u64; num_outputs * width];
    for lane in 0..width {
        let lane_inputs: Vec<u64> = (0..num_inputs).map(|i| inputs[i * width + lane]).collect();
        for (o, word) in interpret(program, &lane_inputs).into_iter().enumerate() {
            expected[o * width + lane] = word;
        }
    }
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The full backend matrix on one random (program, inputs) cell: for
    /// every available backend the tiled kernel reproduces the per-lane
    /// scalar oracle bit for bit, and the tile stream decodes back to
    /// exactly the lowered instruction list. The planar buffers start
    /// `offset` words into larger allocations (for `offset` in 1..=W), so
    /// no backend may rely on a lane word's natural alignment.
    #[test]
    fn prop_every_backend_and_engine_matches_scalar_oracle(
        seed in any::<u64>(),
        num_inputs in 1u32..6,
        len in 1usize..60,
        input_seed in any::<u64>(),
        offset_seed in any::<usize>(),
    ) {
        let program = build_program(seed, num_inputs, len);
        let kernel = CompiledKernel::lower(&program);
        let tiled = TiledKernel::lower(&kernel);
        prop_assert_eq!(tiled.micro_instrs(), kernel.instrs().to_vec());
        prop_assert_eq!(
            tiled.tiles().iter().map(|t| t.width()).sum::<usize>(),
            kernel.instrs().len()
        );
        for backend in Backend::available() {
            let width = backend.width();
            let offset = 1 + offset_seed % width;
            let inputs = planar_inputs(num_inputs as usize, width, input_seed);
            let expected = oracle(&program, &inputs, width);
            let mut input_buf = vec![u64::MAX; offset + inputs.len() + width];
            input_buf[offset..offset + inputs.len()].copy_from_slice(&inputs);
            let mut output_buf = vec![u64::MAX; offset + expected.len() + width];
            backend.run_tiled(
                &tiled,
                &input_buf[offset..offset + inputs.len()],
                &mut output_buf[offset..offset + expected.len()],
            );
            prop_assert_eq!(
                &output_buf[offset..offset + expected.len()],
                &expected[..],
                "tiled kernel diverged on {} at word offset {}\n{}",
                backend,
                offset,
                tiled
            );
            let (before, rest) = output_buf.split_at(offset);
            prop_assert!(
                before.iter().chain(&rest[expected.len()..]).all(|&w| w == u64::MAX),
                "{} wrote outside its output slice",
                backend
            );
        }
    }

    /// Same-width backends are interchangeable: a lane word compiled for
    /// the baseline ISA and the same word compiled under an AVX shim
    /// produce identical planar output buffers (this is what lets the pool
    /// map `LaneWidth` onto whatever ISA the host offers without
    /// perturbing replay).
    #[test]
    fn prop_same_width_backends_are_bit_identical(
        seed in any::<u64>(),
        num_inputs in 1u32..6,
        len in 1usize..60,
        input_seed in any::<u64>(),
    ) {
        let program = build_program(seed, num_inputs, len);
        let tiled = TiledKernel::lower(&CompiledKernel::lower(&program));
        let num_outputs = program.outputs().len();
        let available = Backend::available();
        for width in [2usize, 4, 8] {
            let peers: Vec<Backend> =
                available.iter().copied().filter(|b| b.width() == width).collect();
            if peers.len() < 2 {
                continue;
            }
            let inputs = planar_inputs(num_inputs as usize, width, input_seed);
            let mut reference = vec![0u64; num_outputs * width];
            peers[0].run_tiled(&tiled, &inputs, &mut reference);
            for &peer in &peers[1..] {
                let mut got = vec![0u64; num_outputs * width];
                peer.run_tiled(&tiled, &inputs, &mut got);
                prop_assert_eq!(&got, &reference, "{} != {}", peer, peers[0]);
            }
        }
    }

    /// The tiled kernel's audit stays constant-time and never *gains* an
    /// input dependence: each output support is a subset of the source
    /// program's (folding may shrink it).
    #[test]
    fn prop_kernel_audit_supports_shrink(
        seed in any::<u64>(),
        num_inputs in 1u32..6,
        len in 1usize..60,
    ) {
        let program = build_program(seed, num_inputs, len);
        let rp = audit(&program);
        let rt = audit_tiled(&TiledKernel::lower(&CompiledKernel::lower(&program)));
        prop_assert!(rt.is_constant_time());
        prop_assert_eq!(rt.output_supports.len(), rp.output_supports.len());
        for (t_sup, p_sup) in rt.output_supports.iter().zip(&rp.output_supports) {
            for input in t_sup {
                prop_assert!(
                    p_sup.contains(input),
                    "kernel support {t_sup:?} not within program support {p_sup:?}"
                );
            }
        }
    }

    /// Lowering is deterministic: re-running on the same program yields
    /// an identical kernel, and the tile re-lowering inherits that
    /// determinism.
    #[test]
    fn prop_lowering_is_deterministic(
        seed in any::<u64>(),
        num_inputs in 1u32..6,
        len in 1usize..60,
    ) {
        let program = build_program(seed, num_inputs, len);
        let (a, b) = (CompiledKernel::lower(&program), CompiledKernel::lower(&program));
        prop_assert_eq!(TiledKernel::lower(&a), TiledKernel::lower(&b));
        prop_assert_eq!(a, b);
    }
}
