//! Property tests for the kernel artifact wire format: serialization is
//! a lossless identity on arbitrary valid kernels, and no corrupted or
//! truncated byte stream is ever accepted at load — a cached artifact
//! either reproduces the exact kernel that was stored or refuses to
//! execute at all.

mod common;

use common::build_program;
use ctgauss_bitslice::artifact::{ArtifactError, KernelArtifact};
use ctgauss_bitslice::{interpret, CompiledKernel, TiledKernel};
use proptest::prelude::*;

fn build_artifact(seed: u64, num_inputs: u32, len: usize, meta: Vec<u8>) -> KernelArtifact {
    let program = build_program(seed, num_inputs, len);
    let tiled = TiledKernel::lower(&CompiledKernel::lower(&program));
    KernelArtifact::new(seed ^ 0xa5a5, program, tiled, meta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// serialize → deserialize is the identity: every part compares
    /// equal, re-serialization is byte-identical, and the deserialized
    /// tiled kernel executes bit-identically to the interpreter.
    #[test]
    fn prop_round_trip_is_identity(
        seed in any::<u64>(),
        num_inputs in 1u32..6,
        len in 1usize..80,
        meta in proptest::collection::vec(any::<u8>(), 0..32),
        input_seed in any::<u64>(),
    ) {
        let artifact = build_artifact(seed, num_inputs, len, meta);
        let bytes = artifact.to_bytes();
        let back = KernelArtifact::from_bytes(&bytes).expect("own bytes load");
        prop_assert_eq!(&back, &artifact);
        prop_assert_eq!(back.to_bytes(), bytes);

        let mut s = input_seed;
        let inputs: Vec<u64> = (0..num_inputs)
            .map(|i| {
                s = s.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(u64::from(i) | 1);
                s
            })
            .collect();
        let expected = interpret(artifact.program(), &inputs);
        prop_assert_eq!(back.tiled().run(&inputs), expected);
    }

    /// Every single-byte corruption of the serialized form — header,
    /// payload, or meta — is rejected at load. (Exhaustive over byte
    /// positions; the corruption value is drawn per case.)
    #[test]
    fn prop_single_byte_corruption_is_rejected(
        seed in any::<u64>(),
        num_inputs in 1u32..5,
        len in 1usize..40,
        flip in 1u8..255,
    ) {
        let artifact = build_artifact(seed, num_inputs, len, b"meta".to_vec());
        let bytes = artifact.to_bytes();
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= flip;
            prop_assert!(
                KernelArtifact::from_bytes(&corrupt).is_err(),
                "corruption at byte {} (xor {:#04x}) was accepted",
                pos,
                flip
            );
        }
    }

    /// No truncation of the stream is accepted, and appended garbage is
    /// rejected as trailing bytes.
    #[test]
    fn prop_truncations_and_extensions_are_rejected(
        seed in any::<u64>(),
        num_inputs in 1u32..5,
        len in 1usize..40,
        cut in any::<u64>(),
        tail in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let bytes = build_artifact(seed, num_inputs, len, Vec::new()).to_bytes();
        let keep = (cut % bytes.len() as u64) as usize;
        prop_assert!(KernelArtifact::from_bytes(&bytes[..keep]).is_err());
        let mut extended = bytes.clone();
        extended.extend_from_slice(&tail);
        prop_assert_eq!(
            KernelArtifact::from_bytes(&extended),
            Err(ArtifactError::TrailingBytes)
        );
    }
}
