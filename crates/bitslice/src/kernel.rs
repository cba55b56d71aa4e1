//! Lowering of straight-line [`Program`]s into compiled, register-allocated
//! kernels.
//!
//! The per-op [`interpret`](crate::interpret) loop is the reference oracle:
//! simple, obviously correct, and slow — it dispatches a `match` per SSA op
//! and keeps a register file as large as the whole program. This module
//! closes that gap with a one-time lowering pass:
//!
//! 1. **Dead-code elimination** from the declared outputs, so gates whose
//!    result never reaches an output are not executed at all.
//! 2. **Op fusion and constant folding** into an extended internal opcode
//!    set: `And(a, Not(b))` becomes [`Opcode::AndNot`], `Not(Xor(a, b))`
//!    becomes [`Opcode::Xnor`] (and symmetrically `Nand`/`Nor`/`OrNot`),
//!    double negations cancel, and gates with constant or repeated operands
//!    fold away. Fusion is profitability-gated: a node is absorbed only
//!    when the consumer is its sole use, so fused kernels never duplicate
//!    the work of a shared (hash-consed) subterm.
//! 3. **Liveness analysis + linear-scan slot allocation**: the unbounded
//!    SSA register file is mapped onto a small reusable slot array whose
//!    size is the program's live width, not its length — it stays resident
//!    in L1 while a batch executes.
//!
//! The result is an intermediate representation, not an engine: the
//! [`TiledKernel`](crate::TiledKernel) re-encodes its instruction stream
//! into superinstruction tiles and executes it over any [`LaneWord`].
//! Every transformation is semantics-preserving on the declared outputs;
//! [`crate::audit_tiled`] re-derives the constant-time audit over the
//! fused opcodes, and the property tests in `tests/backend_matrix.rs`
//! check the tiled execution of every lowering against the interpreter on
//! random programs.
//!
//! # Examples
//!
//! ```
//! use ctgauss_bitslice::{interpret, CompiledKernel, Op, Program, TiledKernel};
//!
//! // out = in0 AND NOT in1 — the Not fuses into a single AndNot.
//! let p = Program::new(
//!     2,
//!     vec![Op::Input(0), Op::Input(1), Op::Not(1), Op::And(0, 2)],
//!     vec![3],
//! );
//! let kernel = CompiledKernel::lower(&p);
//! assert_eq!(kernel.stats().fused, 1);
//! let tiled = TiledKernel::lower(&kernel);
//! assert_eq!(tiled.run(&[0b11u64, 0b01]), vec![0b10]);
//! assert_eq!(tiled.run(&[0b11u64, 0b01]), interpret(&p, &[0b11, 0b01]));
//! ```

use core::fmt;

use crate::{Op, Program};

/// One SIMD lane word of the tiled kernel: a single `u64` for the
/// paper's 64-lane batches, or a `[u64; W]` block for `64 * W` lanes. The
/// fixed-size array ops auto-vectorize to the register width of the
/// instruction set they are compiled for, which is how the
/// [`Backend`](crate::Backend) AVX shims run them on ymm and zmm registers.
///
/// Every implementation views the word as [`WIDTH`](Self::WIDTH) plain
/// `u64`s: [`load`](Self::load)/[`store`](Self::store) round-trip exactly,
/// and each bitwise op acts elementwise on those `u64`s. That invariant is
/// what lets the runtime [`crate::Backend`] dispatch swap lane types under
/// an unchanged planar `&[u64]` buffer layout — and what the cross-width
/// differential tests pin against the scalar `u64` oracle.
pub trait LaneWord: Copy {
    /// Number of `u64` machine words packed in one lane word.
    const WIDTH: usize;
    /// The all-zeros word.
    const ZERO: Self;
    /// The all-ones word.
    const ONES: Self;
    /// Bitwise complement.
    fn not(self) -> Self;
    /// Bitwise AND.
    fn and(self, other: Self) -> Self;
    /// Bitwise OR.
    fn or(self, other: Self) -> Self;
    /// Bitwise XOR.
    fn xor(self, other: Self) -> Self;
    /// Reads one lane word from the first [`WIDTH`](Self::WIDTH) words of
    /// `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `WIDTH` words.
    fn load(words: &[u64]) -> Self;
    /// Writes this lane word into the first [`WIDTH`](Self::WIDTH) words of
    /// `out`, inverse of [`load`](Self::load).
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer than `WIDTH` words.
    fn store(self, out: &mut [u64]);
}

impl LaneWord for u64 {
    const WIDTH: usize = 1;
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;

    #[inline(always)]
    fn not(self) -> Self {
        !self
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline(always)]
    fn or(self, other: Self) -> Self {
        self | other
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }

    #[inline(always)]
    fn load(words: &[u64]) -> Self {
        words[0]
    }

    #[inline(always)]
    fn store(self, out: &mut [u64]) {
        out[0] = self;
    }
}

impl<const W: usize> LaneWord for [u64; W] {
    const WIDTH: usize = W;
    const ZERO: Self = [0; W];
    const ONES: Self = [u64::MAX; W];

    #[inline(always)]
    fn not(self) -> Self {
        let mut o = [0; W];
        for w in 0..W {
            o[w] = !self[w];
        }
        o
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        let mut o = [0; W];
        for w in 0..W {
            o[w] = self[w] & other[w];
        }
        o
    }

    #[inline(always)]
    fn or(self, other: Self) -> Self {
        let mut o = [0; W];
        for w in 0..W {
            o[w] = self[w] | other[w];
        }
        o
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        let mut o = [0; W];
        for w in 0..W {
            o[w] = self[w] ^ other[w];
        }
        o
    }

    #[inline(always)]
    fn load(words: &[u64]) -> Self {
        words[..W].try_into().expect("W words")
    }

    #[inline(always)]
    fn store(self, out: &mut [u64]) {
        out[..W].copy_from_slice(&self);
    }
}

/// The extended internal opcode set of a [`CompiledKernel`].
///
/// Beyond the four source gates, the fusion pass emits the negated-operand
/// forms so a `Not` feeding a binary gate costs nothing extra: each fused
/// opcode is still one constant-time word expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// `dst = inputs[a]`.
    Input,
    /// `dst = 0`.
    Zero,
    /// `dst = !0`.
    One,
    /// `dst = !a`.
    Not,
    /// `dst = a & b`.
    And,
    /// `dst = a | b`.
    Or,
    /// `dst = a ^ b`.
    Xor,
    /// `dst = a & !b` (fused `And` + `Not`).
    AndNot,
    /// `dst = a | !b` (fused `Or` + `Not`).
    OrNot,
    /// `dst = !(a & b)` (fused `Not` + `And`).
    Nand,
    /// `dst = !(a | b)` (fused `Not` + `Or`).
    Nor,
    /// `dst = !(a ^ b)` (fused `Not` + `Xor`).
    Xnor,
}

impl Opcode {
    /// Whether the opcode is a logic gate (vs. a load of an input or
    /// constant).
    pub fn is_gate(self) -> bool {
        !matches!(self, Opcode::Input | Opcode::Zero | Opcode::One)
    }

    /// Whether `op(a, b) == op(b, a)` — used by the GVN pass to
    /// canonicalize operand order before hashing, and by the tiler's dense
    /// encoding.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            Opcode::And | Opcode::Or | Opcode::Xor | Opcode::Nand | Opcode::Nor | Opcode::Xnor
        )
    }

    /// The opcode's stable numeric encoding, as stored in the tiled
    /// kernel's packed instruction words.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<Opcode> {
        Some(match code {
            0 => Opcode::Input,
            1 => Opcode::Zero,
            2 => Opcode::One,
            3 => Opcode::Not,
            4 => Opcode::And,
            5 => Opcode::Or,
            6 => Opcode::Xor,
            7 => Opcode::AndNot,
            8 => Opcode::OrNot,
            9 => Opcode::Nand,
            10 => Opcode::Nor,
            11 => Opcode::Xnor,
            _ => return None,
        })
    }
}

/// One compiled instruction: `slots[dst] = op(slots[a], slots[b])`.
///
/// For [`Opcode::Input`], `a` is the input-word index instead of a slot;
/// unused operand fields are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// The operation.
    pub op: Opcode,
    /// Destination slot.
    pub dst: u16,
    /// First operand slot (or input index for [`Opcode::Input`]).
    pub a: u16,
    /// Second operand slot.
    pub b: u16,
}

/// Counters describing what the lowering pipeline did, for reports and
/// benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoweringStats {
    /// Ops in the source SSA program (including loads).
    pub source_ops: usize,
    /// Ops removed as dead code (unreachable from the outputs).
    pub dead_removed: usize,
    /// Gate pairs merged into a fused opcode (`AndNot`, `Xnor`, …).
    pub fused: usize,
    /// Ops removed by constant folding / algebraic identities.
    pub folded: usize,
    /// Ops removed by the post-fusion GVN/CSE pass (fusion and folding can
    /// re-materialize values that pre-fusion hash-consing had caught).
    pub gvn: usize,
    /// Ops the list scheduler moved off their original position to expose
    /// instruction-level parallelism inside tile windows.
    pub scheduled: usize,
    /// Instructions in the compiled kernel (including loads).
    pub instrs: usize,
    /// Slots in the reusable register file (the kernel's working-set size
    /// in words, per lane word).
    pub slots: usize,
}

/// A [`Program`] lowered to a compact, fused, register-allocated kernel.
///
/// Lowering happens once ([`CompiledKernel::lower`]);
/// [`TiledKernel::lower`](crate::TiledKernel::lower) then re-encodes the
/// instruction list for execution over a slot array of
/// [`num_slots`](Self::num_slots) lane words with zero heap allocation.
/// The instructions compute exactly the same outputs as
/// [`interpret`](crate::interpret) on the source program — the interpreter
/// remains the reference oracle for equivalence tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledKernel {
    num_inputs: u32,
    num_slots: u16,
    instrs: Vec<Instr>,
    output_slots: Vec<u16>,
    stats: LoweringStats,
}

/// The fused SSA node set built between DCE and register allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Input(u32),
    Const(bool),
    Unary(Opcode, u32),
    Binary(Opcode, u32, u32),
}

impl Node {
    fn operands(self) -> [Option<u32>; 2] {
        match self {
            Node::Input(_) | Node::Const(_) => [None, None],
            Node::Unary(_, a) => [Some(a), None],
            Node::Binary(_, a, b) => [Some(a), Some(b)],
        }
    }
}

impl CompiledKernel {
    /// Lowers a program: dead-code elimination, op fusion, constant
    /// folding, liveness analysis and linear-scan slot allocation.
    ///
    /// # Panics
    ///
    /// Panics if the program needs more than `u16::MAX` slots or inputs
    /// (far beyond any sampler this workspace builds).
    pub fn lower(program: &Program) -> Self {
        assert!(
            program.num_inputs() <= u16::MAX as u32,
            "kernel supports at most 65535 input words"
        );
        let mut stats = LoweringStats {
            source_ops: program.ops().len(),
            ..LoweringStats::default()
        };

        // Pass 1: liveness from the outputs over the source SSA.
        let live = reachable(program.ops(), program.outputs());
        stats.dead_removed = live.iter().filter(|&&l| !l).count();

        // A source register is *fusable* into its consumer only when that
        // consumer is its sole use and it is not an output: only then does
        // the fused opcode actually replace the instruction. (Fusing a
        // shared node would duplicate its work at every consumer while
        // the original keeps executing — a measured slowdown on the
        // widely-shared hash-consed `Not`s of the selector chains.)
        let mut use_count = vec![0u32; program.ops().len()];
        for (r, &op) in program.ops().iter().enumerate() {
            if live[r] {
                for p in op.operands().into_iter().flatten() {
                    use_count[p as usize] += 1;
                }
            }
        }
        let mut fusable: Vec<bool> = use_count.iter().map(|&c| c == 1).collect();
        for &o in program.outputs() {
            fusable[o as usize] = false;
        }

        // Pass 2: forward rewrite of live ops into fused nodes, with a
        // GVN/CSE table over the *fused* node set. The source program is
        // already hash-consed, but fusion and folding re-materialize
        // values in the extended opcode space (two independent `Not`+`And`
        // pairs both become `AndNot(x, y)`; folding aliases operands until
        // two formerly-distinct gates coincide), so numbering the rewritten
        // nodes catches duplicates the pre-fusion pass could not see.
        // Commutative gates hash with sorted operands.
        // `remap[r]` is the fused node computing source register `r`.
        let mut nodes: Vec<Node> = Vec::with_capacity(program.ops().len());
        let mut remap: Vec<u32> = vec![u32::MAX; program.ops().len()];
        let mut gvn: std::collections::HashMap<Node, u32> =
            std::collections::HashMap::with_capacity(program.ops().len());
        for (r, &op) in program.ops().iter().enumerate() {
            if !live[r] {
                continue;
            }
            let node = rewrite(op, &remap, &nodes, &fusable, &mut stats);
            remap[r] = match node {
                Rewritten::Alias(n) => n,
                Rewritten::New(node) => {
                    let canon = canonicalize(node);
                    if let Some(&prev) = gvn.get(&canon) {
                        stats.gvn += 1;
                        prev
                    } else {
                        nodes.push(canon);
                        let id = (nodes.len() - 1) as u32;
                        gvn.insert(canon, id);
                        id
                    }
                }
            };
        }
        let fused_outputs: Vec<u32> = program
            .outputs()
            .iter()
            .map(|&o| remap[o as usize])
            .collect();

        // Pass 3: second DCE over the fused nodes (fusion orphans the
        // `Not` feeding an `AndNot`, folding orphans constant operands),
        // with compaction.
        let node_ops: Vec<[Option<u32>; 2]> = nodes.iter().map(|n| n.operands()).collect();
        let live2 = reachable_nodes(&node_ops, &fused_outputs);
        let mut compact: Vec<u32> = vec![u32::MAX; nodes.len()];
        let mut kept: Vec<Node> = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            if !live2[i] {
                continue;
            }
            let renumber = |x: u32| compact[x as usize];
            let node = match node {
                Node::Input(_) | Node::Const(_) => node,
                Node::Unary(op, a) => Node::Unary(op, renumber(a)),
                Node::Binary(op, a, b) => Node::Binary(op, renumber(a), renumber(b)),
            };
            compact[i] = kept.len() as u32;
            kept.push(node);
        }
        let outputs: Vec<u32> = fused_outputs.iter().map(|&o| compact[o as usize]).collect();

        // Pass 3.5: windowed list scheduling. Selector-chain kernels are
        // long runs of dependent gates; executed back to back they
        // serialize on the previous result. Reordering independent ops
        // within a small sliding window spaces each gate away from its
        // producers, so the CPU (and the tiled superinstruction handlers,
        // which freeze 2–4 consecutive ops into one dispatch) can overlap
        // them. The window bound also caps the live-range growth the
        // reorder can cause, keeping the slot file inside the stack fast
        // path.
        let (kept, outputs) = schedule(&kept, &outputs, &mut stats);

        // Pass 4: last-use liveness + linear-scan slot allocation. Output
        // nodes stay live to the end of the kernel so their slots are
        // never recycled and can be read after the last instruction.
        let mut last_use: Vec<usize> = vec![0; kept.len()];
        for (i, node) in kept.iter().enumerate() {
            for p in node.operands().into_iter().flatten() {
                last_use[p as usize] = i;
            }
        }
        for &o in &outputs {
            last_use[o as usize] = usize::MAX;
        }

        // Freed slots go to the back of a FIFO and are only reissued once
        // the queue is deeper than REUSE_DISTANCE. Aggressive (LIFO,
        // immediate) reuse minimizes slot count but makes consecutive
        // instructions alias the same addresses, and the CPU's memory-
        // disambiguation speculation then stalls on store-to-load
        // forwarding; spacing reuse out costs a few extra slots and buys
        // back the instruction-level parallelism of the SSA layout.
        const REUSE_DISTANCE: usize = 32;
        let mut slot_of: Vec<u16> = vec![0; kept.len()];
        let mut free: std::collections::VecDeque<u16> = std::collections::VecDeque::new();
        let mut high_water: u32 = 0;
        let mut instrs: Vec<Instr> = Vec::with_capacity(kept.len());
        for (i, &node) in kept.iter().enumerate() {
            // Release operand slots whose value dies here; the executor
            // reads both operands before writing `dst`, so `dst` may
            // safely reuse one of them in place.
            let [a, b] = node.operands();
            for p in [a, b].into_iter().flatten() {
                if last_use[p as usize] == i {
                    // A repeated operand (p == a == b) frees once.
                    last_use[p as usize] = usize::MAX - 1;
                    free.push_back(slot_of[p as usize]);
                }
            }
            let recycled = if free.len() > REUSE_DISTANCE {
                free.pop_front()
            } else {
                None
            };
            let dst = recycled.unwrap_or_else(|| {
                let s = high_water;
                high_water += 1;
                assert!(s < u16::MAX as u32, "kernel exceeds 65534 slots");
                s as u16
            });
            slot_of[i] = dst;
            let slot = |x: Option<u32>| x.map_or(0, |x| slot_of[x as usize]);
            instrs.push(match node {
                Node::Input(idx) => Instr {
                    op: Opcode::Input,
                    dst,
                    a: idx as u16,
                    b: 0,
                },
                Node::Const(false) => Instr {
                    op: Opcode::Zero,
                    dst,
                    a: 0,
                    b: 0,
                },
                Node::Const(true) => Instr {
                    op: Opcode::One,
                    dst,
                    a: 0,
                    b: 0,
                },
                Node::Unary(op, _) => Instr {
                    op,
                    dst,
                    a: slot(a),
                    b: 0,
                },
                Node::Binary(op, _, _) => Instr {
                    op,
                    dst,
                    a: slot(a),
                    b: slot(b),
                },
            });
        }

        stats.instrs = instrs.len();
        stats.slots = high_water as usize;
        CompiledKernel {
            num_inputs: program.num_inputs(),
            num_slots: high_water as u16,
            instrs,
            output_slots: outputs.iter().map(|&o| slot_of[o as usize]).collect(),
            stats,
        }
    }

    /// Number of input words the kernel consumes.
    pub fn num_inputs(&self) -> u32 {
        self.num_inputs
    }

    /// Size of the reusable slot array (lane words of scratch the
    /// instruction list needs).
    pub fn num_slots(&self) -> usize {
        self.num_slots as usize
    }

    /// The compiled instruction list, in execution order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The slot each declared output is read from after the last
    /// instruction.
    pub fn output_slots(&self) -> &[u16] {
        &self.output_slots
    }

    /// What the lowering pipeline did (DCE / fusion / folding counters,
    /// instruction and slot counts).
    pub fn stats(&self) -> &LoweringStats {
        &self.stats
    }
}

impl fmt::Display for CompiledKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel: {} inputs, {} instrs, {} slots, {} outputs",
            self.num_inputs,
            self.instrs.len(),
            self.num_slots,
            self.output_slots.len()
        )?;
        for instr in &self.instrs {
            match instr.op {
                Opcode::Input => writeln!(f, "  s{} = input[{}]", instr.dst, instr.a)?,
                Opcode::Zero | Opcode::One => writeln!(f, "  s{} = {:?}", instr.dst, instr.op)?,
                Opcode::Not => writeln!(f, "  s{} = Not(s{})", instr.dst, instr.a)?,
                _ => writeln!(
                    f,
                    "  s{} = {:?}(s{}, s{})",
                    instr.dst, instr.op, instr.a, instr.b
                )?,
            }
        }
        write!(f, "  outputs: {:?}", self.output_slots)
    }
}

/// What [`rewrite`] produced for one source op.
enum Rewritten {
    /// The op folded onto an existing node.
    Alias(u32),
    /// A new node must be appended.
    New(Node),
}

/// Rewrites one live source op over already-rewritten operands, applying
/// constant folding, algebraic identities and `Not` fusion.
///
/// Fusion is gated on *profitability*: a gate absorbs a neighbouring
/// `Not`/`And`/`Or`/`Xor` only when `fusable` marks that operand — i.e.
/// this gate is its sole consumer and it is not an output — so the fused
/// opcode replaces the pair outright. Fusing a *shared* node would leave
/// the original instruction alive for its other consumers and re-compute
/// its work inside every fused arm, which measurably slows large kernels
/// (the sublist selector chains share hash-consed `Not`s widely).
fn rewrite(
    op: Op,
    remap: &[u32],
    nodes: &[Node],
    fusable: &[bool],
    stats: &mut LoweringStats,
) -> Rewritten {
    use Rewritten::{Alias, New};
    let node_of = |r: u32| nodes[remap[r as usize] as usize];
    let id_of = |r: u32| remap[r as usize];
    match op {
        Op::Input(i) => New(Node::Input(i)),
        Op::Const(c) => New(Node::Const(c)),
        Op::Not(a) => match node_of(a) {
            // !const folds.
            Node::Const(c) => {
                stats.folded += 1;
                New(Node::Const(!c))
            }
            // !!x cancels (aliasing adds no work even when shared).
            Node::Unary(Opcode::Not, x) => {
                stats.folded += 1;
                Alias(x)
            }
            // !(a op b) fuses into the negated-output opcode when this
            // Not is the op's only consumer.
            Node::Binary(Opcode::And, x, y) if fusable[a as usize] => {
                stats.fused += 1;
                New(Node::Binary(Opcode::Nand, x, y))
            }
            Node::Binary(Opcode::Or, x, y) if fusable[a as usize] => {
                stats.fused += 1;
                New(Node::Binary(Opcode::Nor, x, y))
            }
            Node::Binary(Opcode::Xor, x, y) if fusable[a as usize] => {
                stats.fused += 1;
                New(Node::Binary(Opcode::Xnor, x, y))
            }
            _ => New(Node::Unary(Opcode::Not, id_of(a))),
        },
        Op::And(a, b) => binary_gate(Opcode::And, a, b, remap, nodes, fusable, stats),
        Op::Or(a, b) => binary_gate(Opcode::Or, a, b, remap, nodes, fusable, stats),
        Op::Xor(a, b) => binary_gate(Opcode::Xor, a, b, remap, nodes, fusable, stats),
    }
}

/// Rewrites a binary gate: constant/identical-operand folding first, then
/// negated-operand fusion (gated on the `Not` being single-use, see
/// [`rewrite`]).
fn binary_gate(
    op: Opcode,
    a: u32,
    b: u32,
    remap: &[u32],
    nodes: &[Node],
    fusable: &[bool],
    stats: &mut LoweringStats,
) -> Rewritten {
    use Rewritten::{Alias, New};
    let (ia, ib) = (remap[a as usize], remap[b as usize]);
    let (na, nb) = (nodes[ia as usize], nodes[ib as usize]);

    // Constant-operand folding. `fold_const(c, other)` resolves `c op other`.
    let fold_const = |c: bool, other: u32, stats: &mut LoweringStats| -> Option<Rewritten> {
        let r = match (op, c) {
            (Opcode::And, false) => New(Node::Const(false)),
            (Opcode::And, true) | (Opcode::Or, false) | (Opcode::Xor, false) => Alias(other),
            (Opcode::Or, true) => New(Node::Const(true)),
            (Opcode::Xor, true) => match nodes[other as usize] {
                // x ^ 1 = !x, and !!y = y.
                Node::Unary(Opcode::Not, y) => Alias(y),
                _ => New(Node::Unary(Opcode::Not, other)),
            },
            _ => return None,
        };
        stats.folded += 1;
        Some(r)
    };
    if let Node::Const(c) = na {
        if let Some(r) = fold_const(c, ib, stats) {
            return r;
        }
    }
    if let Node::Const(c) = nb {
        if let Some(r) = fold_const(c, ia, stats) {
            return r;
        }
    }
    // Identical operands: x & x = x | x = x, x ^ x = 0.
    if ia == ib {
        stats.folded += 1;
        return match op {
            Opcode::Xor => New(Node::Const(false)),
            _ => Alias(ia),
        };
    }
    // Negated-operand fusion: And/Or absorb a single-use `Not` on either
    // side (commutative, so normalize the negated operand to the right).
    if matches!(op, Opcode::And | Opcode::Or) {
        let fused = match op {
            Opcode::And => Opcode::AndNot,
            _ => Opcode::OrNot,
        };
        if let Node::Unary(Opcode::Not, x) = nb {
            if fusable[b as usize] {
                stats.fused += 1;
                return New(Node::Binary(fused, ia, x));
            }
        }
        if let Node::Unary(Opcode::Not, x) = na {
            if fusable[a as usize] {
                stats.fused += 1;
                return New(Node::Binary(fused, ib, x));
            }
        }
    }
    // Xor with one single-use negated operand is Xnor.
    if op == Opcode::Xor {
        if let Node::Unary(Opcode::Not, x) = nb {
            if fusable[b as usize] {
                stats.fused += 1;
                return New(Node::Binary(Opcode::Xnor, ia, x));
            }
        }
        if let Node::Unary(Opcode::Not, x) = na {
            if fusable[a as usize] {
                stats.fused += 1;
                return New(Node::Binary(Opcode::Xnor, ib, x));
            }
        }
    }
    New(Node::Binary(op, ia, ib))
}

/// Canonical form of a fused node for the GVN table: commutative gates
/// order their operands ascending, so `And(a, b)` and `And(b, a)` number
/// identically. Semantics are unchanged (the reordered node is also the
/// one stored and executed).
fn canonicalize(node: Node) -> Node {
    match node {
        Node::Binary(op, a, b) if op.is_commutative() && a > b => Node::Binary(op, b, a),
        _ => node,
    }
}

/// How many upcoming nodes the list scheduler may choose between. Bounds
/// both the reorder distance and the extra live width scheduling can
/// create (each deferred node stays pending, so at most `SCHED_WINDOW`
/// additional values are ever live versus the unscheduled order).
const SCHED_WINDOW: usize = 16;

/// Producer-distance at which an operand counts as "mature": once a value
/// was computed this many instructions ago, scheduling its consumer no
/// longer stalls on it, so ties are broken by original program order
/// (preserving locality) rather than by chasing even older operands.
const SCHED_MATURITY: usize = 2;

/// The opcode class the scheduler clusters by: tiles are fixed opcode
/// patterns, so among equally mature candidates, continuing the current
/// run keeps the stream tileable at width 4.
fn sched_class(node: Node) -> u8 {
    match node {
        Node::Input(_) => 0,
        Node::Const(_) => 1,
        Node::Unary(op, _) | Node::Binary(op, _, _) => 2 + op.code(),
    }
}

/// Windowed list scheduling over the fused, compacted nodes.
///
/// Classic list scheduling restricted to a sliding window of
/// [`SCHED_WINDOW`] candidates: at each step the scheduler picks, among
/// the window's ready nodes (all operands already scheduled), the one
/// whose most recently scheduled operand is furthest in the past — i.e.
/// the node *least likely to stall* — preferring, at equal (capped)
/// maturity, the candidate that continues the current opcode run (so the
/// tiler downstream sees long homogeneous `And`/`Or`/load runs), and
/// breaking remaining ties by original order. The window always contains
/// at least one ready node (the lowest unscheduled index: SSA order means
/// all its operands precede it), so the pass always terminates with a
/// complete permutation. Returns the reordered nodes (operand indices
/// renumbered) and the remapped outputs.
fn schedule(kept: &[Node], outputs: &[u32], stats: &mut LoweringStats) -> (Vec<Node>, Vec<u32>) {
    let n = kept.len();
    // `sched_pos[old] = new position`, u32::MAX while unscheduled.
    let mut sched_pos: Vec<u32> = vec![u32::MAX; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    // Lowest old index not yet scheduled — the window base.
    let mut base = 0usize;
    let mut last_class = u8::MAX;
    for t in 0..n {
        while base < n && sched_pos[base] != u32::MAX {
            base += 1;
        }
        let window_end = (base + SCHED_WINDOW).min(n);
        // Pick the best ready candidate; maturity is capped so "old
        // enough" candidates tie and the run/order preferences decide.
        let mut best: Option<((usize, bool), usize)> = None; // (score, old index)
        for old in base..window_end {
            if sched_pos[old] != u32::MAX {
                continue;
            }
            let mut maturity = usize::MAX;
            let mut ready = true;
            for p in kept[old].operands().into_iter().flatten() {
                let pos = sched_pos[p as usize];
                if pos == u32::MAX {
                    ready = false;
                    break;
                }
                maturity = maturity.min(t - pos as usize);
            }
            if !ready {
                continue;
            }
            let score = (
                maturity.min(SCHED_MATURITY),
                sched_class(kept[old]) == last_class,
            );
            // Strictly-greater keeps the earliest index on ties.
            // (`map_or`, not `is_none_or`: the latter postdates the MSRV.)
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, old));
            }
        }
        let (_, pick) = best.expect("window base is always ready in SSA order");
        sched_pos[pick] = t as u32;
        order.push(pick as u32);
        last_class = sched_class(kept[pick]);
        if pick != t {
            stats.scheduled += 1;
        }
    }
    let scheduled: Vec<Node> = order
        .iter()
        .map(|&old| {
            let renumber = |x: u32| sched_pos[x as usize];
            match kept[old as usize] {
                n @ (Node::Input(_) | Node::Const(_)) => n,
                Node::Unary(op, a) => Node::Unary(op, renumber(a)),
                Node::Binary(op, a, b) => Node::Binary(op, renumber(a), renumber(b)),
            }
        })
        .collect();
    let outputs = outputs.iter().map(|&o| sched_pos[o as usize]).collect();
    (scheduled, outputs)
}

/// Marks ops reachable from `roots` through operand edges (source SSA).
fn reachable(ops: &[Op], roots: &[u32]) -> Vec<bool> {
    let mut live = vec![false; ops.len()];
    let mut stack: Vec<u32> = roots.to_vec();
    while let Some(r) = stack.pop() {
        if live[r as usize] {
            continue;
        }
        live[r as usize] = true;
        for p in ops[r as usize].operands().into_iter().flatten() {
            stack.push(p);
        }
    }
    live
}

/// Marks nodes reachable from `roots` through operand edges (fused nodes).
fn reachable_nodes(operands: &[[Option<u32>; 2]], roots: &[u32]) -> Vec<bool> {
    let mut live = vec![false; operands.len()];
    let mut stack: Vec<u32> = roots.to_vec();
    while let Some(r) = stack.pop() {
        if live[r as usize] {
            continue;
        }
        live[r as usize] = true;
        for p in operands[r as usize].into_iter().flatten() {
            stack.push(p);
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret;

    /// Executes the lowering through the tiled engine (a pure re-encoding
    /// of the instruction list) against the interpreter.
    fn check_equiv(p: &Program, inputs: &[u64]) {
        let kernel = CompiledKernel::lower(p);
        let tiled = crate::TiledKernel::lower(&kernel);
        assert_eq!(tiled.run(inputs), interpret(p, inputs), "{kernel}");
    }

    #[test]
    fn lowers_basic_gates() {
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
        check_equiv(&p, &[0b1100, 0b1010]);
    }

    #[test]
    fn fuses_and_not() {
        let p = Program::new(
            2,
            vec![Op::Input(0), Op::Input(1), Op::Not(1), Op::And(0, 2)],
            vec![3],
        );
        let k = CompiledKernel::lower(&p);
        assert_eq!(k.stats().fused, 1);
        assert!(k.instrs().iter().any(|i| i.op == Opcode::AndNot));
        // The orphaned Not is gone: 2 loads + 1 fused gate.
        assert_eq!(k.instrs().len(), 3);
        check_equiv(&p, &[0b1100, 0b1010]);
    }

    #[test]
    fn fuses_not_of_xor_to_xnor() {
        let p = Program::new(
            2,
            vec![Op::Input(0), Op::Input(1), Op::Xor(0, 1), Op::Not(2)],
            vec![3],
        );
        let k = CompiledKernel::lower(&p);
        assert!(k.instrs().iter().any(|i| i.op == Opcode::Xnor));
        check_equiv(&p, &[0b0110, 0b1010]);
    }

    #[test]
    fn keeps_shared_not_and_xor_result_when_still_used() {
        // The Not result feeds an And (fusable) AND is an output itself;
        // the Xor result likewise. Both must survive.
        let p = Program::new(
            2,
            vec![
                Op::Input(0),
                Op::Input(1),
                Op::Not(1),
                Op::And(0, 2),
                Op::Xor(0, 1),
                Op::Not(4),
            ],
            vec![2, 3, 4, 5],
        );
        check_equiv(&p, &[0x0f0f_3333_aaaa_00ff, 0x5555_0f0f_00ff_cccc]);
    }

    #[test]
    fn folds_constants_and_identities() {
        let p = Program::new(
            1,
            vec![
                Op::Input(0),
                Op::Const(false),
                Op::Const(true),
                Op::And(0, 1), // = 0
                Op::Or(0, 1),  // = x
                Op::Xor(0, 2), // = !x
                Op::Xor(5, 2), // = !!x = x
                Op::And(0, 0), // = x
                Op::Xor(0, 0), // = 0
                Op::Not(1),    // = 1
                Op::Or(3, 8),  // 0 | 0 = 0
            ],
            vec![3, 4, 5, 6, 7, 8, 9, 10],
        );
        let k = CompiledKernel::lower(&p);
        assert!(k.stats().folded >= 6);
        check_equiv(&p, &[0b1010_0110]);
    }

    #[test]
    fn double_negation_cancels() {
        let p = Program::new(1, vec![Op::Input(0), Op::Not(0), Op::Not(1)], vec![2]);
        let k = CompiledKernel::lower(&p);
        // One load aliases both Nots away.
        assert_eq!(k.instrs().len(), 1);
        check_equiv(&p, &[0xdead_beef]);
    }

    #[test]
    fn dead_code_is_eliminated() {
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
        let k = CompiledKernel::lower(&p);
        assert_eq!(k.stats().dead_removed, 2); // the And and Input(1)
        assert_eq!(k.instrs().len(), 2);
        check_equiv(&p, &[7, 9]);
    }

    #[test]
    fn slots_are_reused() {
        // A long chain of 2-operand gates needs O(reuse distance) slots,
        // not one per op: the register file must stop growing once the
        // recycling FIFO is primed.
        let mut ops = vec![Op::Input(0), Op::Input(1)];
        for i in 0..500u32 {
            let prev = (ops.len() - 1) as u32;
            ops.push(if i % 2 == 0 {
                Op::Xor(prev, 0)
            } else {
                Op::And(prev, 1)
            });
        }
        let out = (ops.len() - 1) as u32;
        let p = Program::new(2, ops, vec![out]);
        let k = CompiledKernel::lower(&p);
        assert!(
            k.num_slots() <= 48,
            "chain slots must be bounded by the reuse distance, got {}",
            k.num_slots()
        );
        check_equiv(&p, &[0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321]);
    }

    #[test]
    fn output_slots_survive_to_the_end() {
        // Early outputs must not have their slots recycled by later gates.
        let mut ops = vec![Op::Input(0), Op::Input(1), Op::Xor(0, 1)];
        for _ in 0..20 {
            let prev = (ops.len() - 1) as u32;
            ops.push(Op::Xor(prev, 0));
        }
        let last = (ops.len() - 1) as u32;
        let p = Program::new(2, ops, vec![2, last]);
        check_equiv(&p, &[0xaaaa_aaaa_5555_5555, 0x00ff_00ff_00ff_00ff]);
    }

    #[test]
    fn repeated_output_registers_work() {
        let p = Program::new(1, vec![Op::Input(0), Op::Not(0)], vec![1, 1, 0]);
        check_equiv(&p, &[42]);
    }

    #[test]
    fn display_renders_instrs() {
        let p = Program::new(1, vec![Op::Input(0), Op::Not(0), Op::And(0, 1)], vec![2]);
        let k = CompiledKernel::lower(&p);
        let s = k.to_string();
        assert!(s.contains("input[0]"), "{s}");
        assert!(s.contains("AndNot"), "{s}");
    }
}
