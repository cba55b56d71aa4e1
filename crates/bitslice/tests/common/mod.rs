//! The random-program generator the bitslice property suites share, so
//! every suite draws the same program for the same seed.

use ctgauss_bitslice::{Op, Program};

/// Deterministically expands a seed into a random well-formed program:
/// `num_inputs` declared inputs, `len` ops whose operands are drawn from
/// the already-defined registers, and 1..=4 random outputs. Gate/load kinds
/// are weighted toward `Not` so the fusion rules (`AndNot`, `Xnor`,
/// double-negation) are exercised often.
pub(crate) fn build_program(seed: u64, num_inputs: u32, len: usize) -> Program {
    let mut state = seed | 1;
    let mut next = move || {
        // SplitMix64 step — self-contained so the generator is stable.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut ops = Vec::with_capacity(len);
    for r in 0..len {
        let pick = |next: &mut dyn FnMut() -> u64| (next() % r.max(1) as u64) as u32;
        let op = if r == 0 {
            Op::Input(next() as u32 % num_inputs)
        } else {
            match next() % 10 {
                0 => Op::Input(next() as u32 % num_inputs),
                1 => Op::Const(next() & 1 == 1),
                2..=4 => Op::Not(pick(&mut next)),
                5 | 6 => Op::And(pick(&mut next), pick(&mut next)),
                7 => Op::Or(pick(&mut next), pick(&mut next)),
                _ => Op::Xor(pick(&mut next), pick(&mut next)),
            }
        };
        ops.push(op);
    }
    let n_outputs = 1 + (next() % 4) as usize;
    let outputs = (0..n_outputs)
        .map(|_| (next() % len as u64) as u32)
        .collect();
    Program::new(num_inputs, ops, outputs)
}
