//! The straight-line bitsliced program representation and its interpreter.

use core::fmt;

/// One SSA operation; the destination register is the operation's index in
/// the program.
///
/// Operand values are register indices, which the [`Program`] constructor
/// verifies are strictly smaller than the destination (well-formed SSA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Loads input word `i` (64 lanes of random bit `b_i`).
    Input(u32),
    /// An all-zeros (`false`) or all-ones (`true`) word.
    Const(bool),
    /// Bitwise complement of a register.
    Not(u32),
    /// Bitwise AND of two registers.
    And(u32, u32),
    /// Bitwise OR of two registers.
    Or(u32, u32),
    /// Bitwise XOR of two registers.
    Xor(u32, u32),
}

impl Op {
    /// Register operands of the op.
    pub fn operands(self) -> [Option<u32>; 2] {
        match self {
            Op::Input(_) | Op::Const(_) => [None, None],
            Op::Not(a) => [Some(a), None],
            Op::And(a, b) | Op::Or(a, b) | Op::Xor(a, b) => [Some(a), Some(b)],
        }
    }

    /// Whether this op performs a logic gate (vs. loading a value).
    pub fn is_gate(self) -> bool {
        !matches!(self, Op::Input(_) | Op::Const(_))
    }
}

/// A straight-line bitsliced program: `ops[r]` writes register `r`; the
/// declared `outputs` name the result registers.
///
/// # Examples
///
/// ```
/// use ctgauss_bitslice::{interpret, Op, Program};
///
/// // out = in0 AND NOT in1
/// let p = Program::new(
///     2,
///     vec![Op::Input(0), Op::Input(1), Op::Not(1), Op::And(0, 2)],
///     vec![3],
/// );
/// assert_eq!(interpret(&p, &[0b11, 0b01]), vec![0b10]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    num_inputs: u32,
    ops: Vec<Op>,
    outputs: Vec<u32>,
}

impl Program {
    /// Builds a program, validating SSA well-formedness.
    ///
    /// # Panics
    ///
    /// Panics if an operand register is not strictly smaller than its
    /// destination, an input index is out of range, or an output names a
    /// non-existent register.
    pub fn new(num_inputs: u32, ops: Vec<Op>, outputs: Vec<u32>) -> Self {
        for (r, op) in ops.iter().enumerate() {
            for operand in op.operands().into_iter().flatten() {
                assert!(
                    (operand as usize) < r,
                    "op {r} reads register {operand} which is not yet defined"
                );
            }
            if let Op::Input(i) = op {
                assert!(
                    *i < num_inputs,
                    "input index {i} out of range ({num_inputs} inputs)"
                );
            }
        }
        for &o in &outputs {
            assert!(
                (o as usize) < ops.len(),
                "output register {o} does not exist"
            );
        }
        Program {
            num_inputs,
            ops,
            outputs,
        }
    }

    /// Number of declared input words.
    pub fn num_inputs(&self) -> u32 {
        self.num_inputs
    }

    /// Number of operations in the program.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no operations. An empty program (no ops,
    /// no outputs) is valid and executes to an empty output list — the
    /// degenerate case the kernel lowerings and the tiler must accept.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctgauss_bitslice::{interpret, Program};
    ///
    /// let p = Program::new(0, vec![], vec![]);
    /// assert!(p.is_empty());
    /// assert_eq!(interpret(&p, &[]), Vec::<u64>::new());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The output registers.
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// Number of logic gates (excludes input loads and constants) — the
    /// cost model for Table 2's cycle comparison.
    pub fn gate_count(&self) -> usize {
        self.ops.iter().filter(|op| op.is_gate()).count()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program: {} inputs, {} ops, {} outputs",
            self.num_inputs,
            self.ops.len(),
            self.outputs.len()
        )?;
        for (r, op) in self.ops.iter().enumerate() {
            writeln!(f, "  r{r} = {op:?}")?;
        }
        write!(f, "  outputs: {:?}", self.outputs)
    }
}

/// Executes a program on 64 parallel lanes.
///
/// `inputs[i]` packs lane `l`'s bit `b_i` at bit position `l`. Returns one
/// word per program output in declaration order.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the program's declared input count.
pub fn interpret(program: &Program, inputs: &[u64]) -> Vec<u64> {
    assert_eq!(
        inputs.len() as u32,
        program.num_inputs(),
        "input word count mismatch"
    );
    let mut regs = vec![0u64; program.ops().len()];
    for (r, op) in program.ops().iter().enumerate() {
        regs[r] = match *op {
            Op::Input(i) => inputs[i as usize],
            Op::Const(false) => 0,
            Op::Const(true) => u64::MAX,
            Op::Not(a) => !regs[a as usize],
            Op::And(a, b) => regs[a as usize] & regs[b as usize],
            Op::Or(a, b) => regs[a as usize] | regs[b as usize],
            Op::Xor(a, b) => regs[a as usize] ^ regs[b as usize],
        };
    }
    program
        .outputs()
        .iter()
        .map(|&o| regs[o as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpret_basic_gates() {
        let p = Program::new(
            2,
            vec![
                Op::Input(0),
                Op::Input(1),
                Op::And(0, 1),
                Op::Or(0, 1),
                Op::Xor(0, 1),
                Op::Not(0),
                Op::Const(true),
                Op::Const(false),
            ],
            vec![2, 3, 4, 5, 6, 7],
        );
        let out = interpret(&p, &[0b1100, 0b1010]);
        assert_eq!(out[0], 0b1000);
        assert_eq!(out[1], 0b1110);
        assert_eq!(out[2], 0b0110);
        assert_eq!(out[3], !0b1100u64);
        assert_eq!(out[4], u64::MAX);
        assert_eq!(out[5], 0);
    }

    #[test]
    fn gate_count_excludes_loads() {
        let p = Program::new(
            1,
            vec![Op::Input(0), Op::Const(true), Op::Not(0), Op::And(1, 2)],
            vec![3],
        );
        assert_eq!(p.gate_count(), 2);
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn rejects_forward_reference() {
        let _ = Program::new(1, vec![Op::Not(1), Op::Input(0)], vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_input_index() {
        let _ = Program::new(1, vec![Op::Input(3)], vec![0]);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn rejects_bad_output() {
        let _ = Program::new(1, vec![Op::Input(0)], vec![5]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn interpret_rejects_wrong_input_count() {
        let p = Program::new(2, vec![Op::Input(0), Op::Input(1)], vec![0]);
        let _ = interpret(&p, &[1]);
    }

    #[test]
    fn display_renders_ops() {
        let p = Program::new(1, vec![Op::Input(0), Op::Not(0)], vec![1]);
        let s = p.to_string();
        assert!(s.contains("r1 = Not(0)"));
    }
}
