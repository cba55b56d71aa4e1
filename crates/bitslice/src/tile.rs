//! Superinstruction (tile) lowering: the production execution engine.
//!
//! A per-op loop — the [`interpret`](crate::interpret) oracle — pays one
//! `match` dispatch per instruction. On the sampler's selector-chain
//! kernels — thousands of `And`/`Or` gates — such a loop is
//! *dispatch-bound*: the branch-and-decode overhead per op rivals the
//! one-cycle gate it guards, which is exactly the remaining distance to
//! the paper's hand-compiled C. This module tiles the compiled kernel's
//! linear instruction stream into **superinstructions**: fixed
//! 2–4-op patterns (chosen from the statistically dominant n-grams of the
//! sampler workloads, which are overwhelmingly `And`/`Or` combinations)
//! whose handlers are straight-line unrolled code with the opcodes baked
//! in at compile time. The dispatch loop then fires once per *tile*
//! instead of once per op — a 3–4× reduction in dispatches on real
//! kernels — and the list-scheduling pass upstream
//! ([`CompiledKernel::lower`](crate::CompiledKernel::lower)) has already
//! spaced dependent ops apart, so the ops inside one handler can actually
//! overlap in the pipeline.
//!
//! Operands live in a dense instruction stream separate from the tile
//! stream: one packed `[op|dst|a|b]` `u32` per micro-op when every slot
//! and input id in the stream fits 9 bits (below 512 — halving
//! instruction-stream traffic versus the 8-byte [`Instr`]), with a
//! `[u16; 4]` fallback for larger kernels. Tiling never reorders or rewrites ops:
//! [`TiledKernel::micro_instrs`] decodes back to exactly the compiled
//! kernel's instruction list, which is why the constant-time audit
//! transfers (a tile's support is the union of its ops' supports — see
//! [`audit_tiled`](crate::audit_tiled)) and why the interpreter on the
//! source program stays the one bit-exact oracle.
//!
//! # Examples
//!
//! ```
//! use ctgauss_bitslice::{interpret, CompiledKernel, Op, Program, TiledKernel};
//!
//! // A 4-gate And/Or chain tiles into a single superinstruction.
//! let p = Program::new(
//!     2,
//!     vec![
//!         Op::Input(0),
//!         Op::Input(1),
//!         Op::And(0, 1),
//!         Op::Or(2, 0),
//!         Op::And(3, 1),
//!         Op::Or(4, 2),
//!     ],
//!     vec![5],
//! );
//! let kernel = CompiledKernel::lower(&p);
//! let tiled = TiledKernel::lower(&kernel);
//! assert_eq!(tiled.run(&[0b1100u64, 0b1010]), interpret(&p, &[0b1100, 0b1010]));
//! assert!(tiled.dispatch_count() < kernel.instrs().len());
//! ```

use core::fmt;

use crate::kernel::{CompiledKernel, Instr, LaneWord, Opcode};

/// Field width of the packed-`u32` encoding: 9-bit slot/input ids, so a
/// kernel qualifies when every id appearing in its instruction stream
/// (destination and operand slots, input indices) is below this bound.
const DENSE_LIMIT: usize = 512;

/// The dense micro-op stream: one entry per kernel instruction, in the
/// exact order of the source [`CompiledKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Code {
    /// `[op:5 | dst:9 | a:9 | b:9]` packed into one `u32` per micro-op —
    /// kernels whose slot and input ids fit 9 bits.
    Dense(Vec<u32>),
    /// `[op, dst, a, b]` as four `u16`s per micro-op — any kernel the
    /// lowering produces.
    Wide(Vec<[u16; 4]>),
}

/// Sequential micro-op fetch, monomorphized per encoding so the executor
/// reads operands with a fixed, branch-free decode.
trait OpStream {
    /// Decodes micro-op `i` into `(dst, a, b)` slot/input indices.
    fn fetch(&self, i: usize) -> (usize, usize, usize);
}

struct DenseStream<'c>(&'c [u32]);

impl OpStream for DenseStream<'_> {
    #[inline(always)]
    fn fetch(&self, i: usize) -> (usize, usize, usize) {
        let w = self.0[i] as usize;
        ((w >> 18) & 0x1ff, (w >> 9) & 0x1ff, w & 0x1ff)
    }
}

struct WideStream<'c>(&'c [[u16; 4]]);

impl OpStream for WideStream<'_> {
    #[inline(always)]
    fn fetch(&self, i: usize) -> (usize, usize, usize) {
        let [_, dst, a, b] = self.0[i];
        (dst as usize, a as usize, b as usize)
    }
}

/// Counters describing what tiling did, for reports and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileStats {
    /// Micro-ops in the stream (equals the instruction count of the
    /// lowering it was tiled from — tiling neither adds nor removes work).
    pub micro_ops: usize,
    /// Tiles, i.e. dispatches per execution — the number the
    /// superinstruction pass exists to shrink.
    pub dispatches: usize,
    /// Tiles covering four micro-ops.
    pub quads: usize,
    /// Tiles covering three micro-ops.
    pub triples: usize,
    /// Tiles covering two micro-ops.
    pub pairs: usize,
    /// Tiles covering a single micro-op (the residue the inventory did
    /// not match).
    pub singles: usize,
    /// Whether the packed one-`u32` encoding applies (9-bit ids).
    pub dense: bool,
}

/// Type-directed constants so the `micro_op!` expansions need not name
/// the lane-word type parameter.
#[inline(always)]
fn zero_like<L: LaneWord>(_: &[L]) -> L {
    L::ZERO
}

#[inline(always)]
fn ones_like<L: LaneWord>(_: &[L]) -> L {
    L::ONES
}

/// Stack slot storage aligned to a cache line, so no `[u64; 8]` slot
/// (one zmm register) straddles two lines.
#[repr(align(64))]
struct CacheAligned<T>(T);

/// Runs `$masked` with `$slots` bound to a zeroed, 64-byte-aligned
/// `&mut [$lane; N]` stack array of the smallest power-of-two tier
/// (128 / 512 / 1024 / 2048) holding `$num_slots` lane words, or `$heap`
/// with `$slots` bound to a zeroed `&mut [$lane]` heap buffer when even
/// the largest tier is too small.
///
/// The masked body is monomorphized once per tier, so the executor's
/// `N - 1` index masking stays a compile-time constant in every arm. Each
/// call zeroes its whole tier; the 1024 tier spares the ~690-slot n = 128
/// kernels (Falcon's base) a 2048-slot array, 128 KiB at AVX-512 width.
macro_rules! with_stack_slots {
    ($num_slots:expr, $lane:ty, |$slots:ident| $masked:expr, |$heap_slots:ident| $heap:expr $(,)?) => {{
        match $num_slots {
            0..=128 => {
                let mut arr = CacheAligned([<$lane as LaneWord>::ZERO; 128]);
                let $slots = &mut arr.0;
                $masked
            }
            129..=512 => {
                let mut arr = CacheAligned([<$lane as LaneWord>::ZERO; 512]);
                let $slots = &mut arr.0;
                $masked
            }
            513..=1024 => {
                let mut arr = CacheAligned([<$lane as LaneWord>::ZERO; 1024]);
                let $slots = &mut arr.0;
                $masked
            }
            1025..=2048 => {
                let mut arr = CacheAligned([<$lane as LaneWord>::ZERO; 2048]);
                let $slots = &mut arr.0;
                $masked
            }
            n => {
                let mut buf = vec![<$lane as LaneWord>::ZERO; n];
                let $heap_slots = &mut buf[..];
                $heap
            }
        }
    }};
}

/// One micro-op's execution, with the opcode a compile-time token: this is
/// what makes a tile handler straight-line code instead of a dispatch.
/// `$mask` is `N - 1` on the fixed-size-array fast path (provably in
/// range, so no bounds checks survive) and `usize::MAX` (the identity) on
/// the heap fallback.
macro_rules! micro_op {
    (Input, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = $inputs[$a]
    };
    (Zero, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = zero_like(&$slots[..])
    };
    (One, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = ones_like(&$slots[..])
    };
    (Not, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = $slots[$a & $mask].not()
    };
    (And, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = $slots[$a & $mask].and($slots[$b & $mask])
    };
    (Or, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = $slots[$a & $mask].or($slots[$b & $mask])
    };
    (Xor, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = $slots[$a & $mask].xor($slots[$b & $mask])
    };
    (AndNot, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = $slots[$a & $mask].and($slots[$b & $mask].not())
    };
    (OrNot, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = $slots[$a & $mask].or($slots[$b & $mask].not())
    };
    (Nand, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = $slots[$a & $mask].and($slots[$b & $mask]).not()
    };
    (Nor, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = $slots[$a & $mask].or($slots[$b & $mask]).not()
    };
    (Xnor, $inputs:ident, $slots:ident, $d:expr, $a:expr, $b:expr, $mask:expr) => {
        $slots[$d & $mask] = $slots[$a & $mask].xor($slots[$b & $mask]).not()
    };
}

/// Counts the idents in a space-separated list, at macro-expansion time.
macro_rules! count_ops {
    () => (0usize);
    ($head:ident $($tail:ident)*) => (1 + count_ops!($($tail)*));
}

/// Defines the whole tile machinery from one pattern inventory:
/// the [`Tile`] enum, its width/opcode tables, the greedy matcher
/// (declaration order = match priority, so longest patterns come first
/// and the 12 single-op tiles at the end make the matcher total), and the
/// two executor loops (masked fast path, plain heap fallback) whose match
/// arms unroll each pattern with compile-time opcodes.
macro_rules! tiles {
    ( $( $(#[$meta:meta])* $name:ident = [$($op:ident),+] );+ $(;)? ) => {
        /// One superinstruction: a fixed opcode pattern executed by a
        /// single dispatch of straight-line, unrolled code.
        ///
        /// The inventory is chosen from the dominant instruction n-grams
        /// of the sampler kernels (selector chains compile to long
        /// `And`/`Or` runs: every 2–4-op pattern over those two opcodes
        /// has a tile) plus the load preludes (`Input`/`Not` pairs) and a
        /// single-op tile per opcode so the greedy matcher is total.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Tile {
            $(
                $(#[$meta])*
                #[doc = concat!("`[", stringify!($($op),+), "]` in one dispatch.")]
                $name,
            )+
        }

        impl Tile {
            /// Every tile, in declaration (= matcher-priority and numeric
            /// code) order.
            pub const ALL: &'static [Tile] = &[$(Tile::$name),+];

            /// Number of micro-ops one dispatch of this tile executes.
            pub fn width(self) -> usize {
                match self {
                    $( Tile::$name => count_ops!($($op)+), )+
                }
            }

            /// The opcode sequence the tile's handler has baked in.
            pub fn ops(self) -> &'static [Opcode] {
                match self {
                    $( Tile::$name => &[$(Opcode::$op),+], )+
                }
            }

            /// The tile's stable numeric encoding (its position in
            /// [`ALL`](Self::ALL)), as stored in serialized artifacts.
            pub fn code(self) -> u8 {
                self as u8
            }

            /// Inverse of [`code`](Self::code).
            pub fn from_code(code: u8) -> Option<Tile> {
                Tile::ALL.get(code as usize).copied()
            }
        }

        /// Greedy longest-match tile selection at the head of `ops`.
        /// Patterns are tried in declaration order; the single-op tiles at
        /// the end guarantee a match for every opcode.
        fn find_tile(ops: &[Opcode]) -> Tile {
            $(
                {
                    const PAT: &[Opcode] = &[$(Opcode::$op),+];
                    if ops.len() >= PAT.len() && &ops[..PAT.len()] == PAT {
                        return Tile::$name;
                    }
                }
            )+
            unreachable!("single-op tiles cover every opcode")
        }

        impl TiledKernel {
            /// The masked executor: slots live in a fixed power-of-two
            /// stack array and every slot index is masked with `N - 1`,
            /// so the compiler drops all slice bounds checks from the
            /// tile handlers (lowering guarantees every id is below
            /// `num_slots <= N`, so masking never changes an index).
            #[inline(always)]
            fn run_masked<L: LaneWord, S: OpStream, const N: usize>(
                &self,
                code: S,
                inputs: &[L],
                slots: &mut [L; N],
                outputs: &mut [L],
            ) {
                debug_assert!(N.is_power_of_two() && self.num_slots as usize <= N);
                let mut pc = 0usize;
                for &tile in &self.tiles {
                    match tile {
                        $( Tile::$name => { $(
                            let (d, a, b) = code.fetch(pc);
                            pc += 1;
                            let _ = (a, b);
                            micro_op!($op, inputs, slots, d, a, b, N - 1);
                        )+ } )+
                    }
                }
                for (out, &s) in outputs.iter_mut().zip(&self.output_slots) {
                    *out = slots[s as usize & (N - 1)];
                }
            }

            /// The plain executor behind `execute`: slice scratch,
            /// ordinary bounds checks — the path large (> 2048-slot)
            /// kernels take.
            #[inline(always)]
            fn run_plain<L: LaneWord, S: OpStream>(
                &self,
                code: S,
                inputs: &[L],
                slots: &mut [L],
                outputs: &mut [L],
            ) {
                let mut pc = 0usize;
                for &tile in &self.tiles {
                    match tile {
                        $( Tile::$name => { $(
                            let (d, a, b) = code.fetch(pc);
                            pc += 1;
                            let _ = (a, b);
                            micro_op!($op, inputs, slots, d, a, b, usize::MAX);
                        )+ } )+
                    }
                }
                for (out, &s) in outputs.iter_mut().zip(&self.output_slots) {
                    *out = slots[s as usize];
                }
            }
        }
    };
}

tiles! {
    // Quads: every {And, Or} 4-gram — ~90% of the gate stream of real
    // sampler kernels tiles at width 4.
    AndAndAndAnd = [And, And, And, And];
    AndAndAndOr = [And, And, And, Or];
    AndAndOrAnd = [And, And, Or, And];
    AndAndOrOr = [And, And, Or, Or];
    AndOrAndAnd = [And, Or, And, And];
    AndOrAndOr = [And, Or, And, Or];
    AndOrOrAnd = [And, Or, Or, And];
    AndOrOrOr = [And, Or, Or, Or];
    OrAndAndAnd = [Or, And, And, And];
    OrAndAndOr = [Or, And, And, Or];
    OrAndOrAnd = [Or, And, Or, And];
    OrAndOrOr = [Or, And, Or, Or];
    OrOrAndAnd = [Or, Or, And, And];
    OrOrAndOr = [Or, Or, And, Or];
    OrOrOrAnd = [Or, Or, Or, And];
    OrOrOrOr = [Or, Or, Or, Or];
    // Load-prelude quads: the scheduler clusters input loads and their
    // complements into homogeneous runs, so whole prelude stretches tile
    // at width 4 too.
    InputX4 = [Input, Input, Input, Input];
    NotX4 = [Not, Not, Not, Not];
    // Triples: {And, Or} 3-grams for the runs a quad no longer fits, plus
    // the fused-opcode chain the mux trees of narrower samplers emit.
    AndAndAnd = [And, And, And];
    AndAndOr = [And, And, Or];
    AndOrAnd = [And, Or, And];
    AndOrOr = [And, Or, Or];
    OrAndAnd = [Or, And, And];
    OrAndOr = [Or, And, Or];
    OrOrAnd = [Or, Or, And];
    OrOrOr = [Or, Or, Or];
    AndNotXorAnd = [AndNot, Xor, And];
    InputX3 = [Input, Input, Input];
    NotX3 = [Not, Not, Not];
    // Pairs: gate-run tails and the load prelude (input words are loaded
    // and complemented back to back in the lowered stream).
    AndAnd = [And, And];
    AndOr = [And, Or];
    OrAnd = [Or, And];
    OrOr = [Or, Or];
    InputInput = [Input, Input];
    InputNot = [Input, Not];
    NotNot = [Not, Not];
    NotAnd = [Not, And];
    AndInput = [And, Input];
    InputXor = [Input, Xor];
    XorXor = [Xor, Xor];
    // Singles: one per opcode, so every instruction stream tiles.
    Input1 = [Input];
    Zero1 = [Zero];
    One1 = [One];
    Not1 = [Not];
    And1 = [And];
    Or1 = [Or];
    Xor1 = [Xor];
    AndNot1 = [AndNot];
    OrNot1 = [OrNot];
    Nand1 = [Nand];
    Nor1 = [Nor];
    Xnor1 = [Xnor];
}

/// A [`CompiledKernel`] re-lowered to superinstruction-threaded form: the
/// same micro-ops in the same order, grouped into [`Tile`]s dispatched
/// once each, with operands in a dense packed stream.
///
/// Lowering ([`TiledKernel::lower`]) is pure re-encoding — no op is
/// added, removed or reordered, so the tiled engine computes exactly what
/// the source interpreter computes, and the
/// constant-time argument carries over unchanged: the instruction
/// sequence and memory-access pattern are still fixed at lowering time,
/// and [`audit_tiled`](crate::audit_tiled) re-derives per-output input
/// supports from the decoded stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TiledKernel {
    num_inputs: u32,
    num_slots: u16,
    tiles: Vec<Tile>,
    code: Code,
    output_slots: Vec<u16>,
    stats: TileStats,
}

impl TiledKernel {
    /// Tiles a compiled kernel's instruction stream.
    ///
    /// Greedy longest-match over the superinstruction inventory; the
    /// packed one-`u32` encoding is chosen automatically when every slot
    /// and input id fits 9 bits.
    pub fn lower(kernel: &CompiledKernel) -> Self {
        let instrs = kernel.instrs();
        let ops: Vec<Opcode> = instrs.iter().map(|i| i.op).collect();
        let mut tiles = Vec::new();
        let mut i = 0;
        while i < ops.len() {
            let tile = find_tile(&ops[i..]);
            tiles.push(tile);
            i += tile.width();
        }
        Self::from_parts(
            kernel.num_inputs(),
            kernel.num_slots() as u16,
            tiles,
            instrs,
            kernel.output_slots().to_vec(),
        )
    }

    /// Assembles a tiled kernel from its parts — the tail of
    /// [`lower`](Self::lower), and how [`crate::artifact`] rebuilds a
    /// deserialized kernel after validating the parts (ids in range, the
    /// tile stream decoding to exactly `instrs`). Packs the operand
    /// stream (dense one-`u32` encoding when every id fits 9 bits) and
    /// derives the tile-size histogram, so a deserialized kernel is
    /// structurally identical to the one that was serialized.
    pub(crate) fn from_parts(
        num_inputs: u32,
        num_slots: u16,
        tiles: Vec<Tile>,
        instrs: &[Instr],
        output_slots: Vec<u16>,
    ) -> Self {
        let mut stats = TileStats {
            micro_ops: instrs.len(),
            dispatches: tiles.len(),
            ..TileStats::default()
        };
        for tile in &tiles {
            match tile.width() {
                4 => stats.quads += 1,
                3 => stats.triples += 1,
                2 => stats.pairs += 1,
                _ => stats.singles += 1,
            }
        }

        // Every id the executor ever reads appears in some instruction
        // field (each allocated slot is some dst; input indices are `a`
        // fields), so scanning the stream alone decides encodability.
        let dense = instrs.iter().all(|i| {
            (i.dst as usize) < DENSE_LIMIT
                && (i.a as usize) < DENSE_LIMIT
                && (i.b as usize) < DENSE_LIMIT
        });
        stats.dense = dense;
        let code = if dense {
            Code::Dense(
                instrs
                    .iter()
                    .map(|i| {
                        (u32::from(i.op.code()) << 27)
                            | (u32::from(i.dst) << 18)
                            | (u32::from(i.a) << 9)
                            | u32::from(i.b)
                    })
                    .collect(),
            )
        } else {
            Code::Wide(
                instrs
                    .iter()
                    .map(|i| [u16::from(i.op.code()), i.dst, i.a, i.b])
                    .collect(),
            )
        };

        TiledKernel {
            num_inputs,
            num_slots,
            tiles,
            code,
            output_slots,
            stats,
        }
    }

    /// Number of input words the kernel consumes.
    pub fn num_inputs(&self) -> u32 {
        self.num_inputs
    }

    /// Number of output words the kernel produces.
    pub fn num_outputs(&self) -> usize {
        self.output_slots.len()
    }

    /// Size of the slot array (lane words of scratch one execution
    /// needs) — identical to the source kernel's.
    pub fn num_slots(&self) -> usize {
        self.num_slots as usize
    }

    /// The slot each declared output is read from after the last tile.
    pub fn output_slots(&self) -> &[u16] {
        &self.output_slots
    }

    /// The tile stream, in dispatch order.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Static dispatches per execution: one per tile. A per-op loop
    /// dispatches once per instruction; this is the number the
    /// superinstruction lowering shrinks ~3–4× on sampler kernels.
    pub fn dispatch_count(&self) -> usize {
        self.tiles.len()
    }

    /// What tiling did (tile-size histogram, dispatch count, encoding).
    pub fn stats(&self) -> &TileStats {
        &self.stats
    }

    /// Decodes the dense micro-op stream back to plain instructions —
    /// exactly the source kernel's instruction list. Audits and tests key
    /// on this faithfulness; execution never goes through this path.
    pub fn micro_instrs(&self) -> Vec<Instr> {
        let decode = |op: u8, dst: u16, a: u16, b: u16| Instr {
            op: Opcode::from_code(op).expect("stored opcode is valid"),
            dst,
            a,
            b,
        };
        match &self.code {
            Code::Dense(words) => words
                .iter()
                .map(|&w| {
                    decode(
                        (w >> 27) as u8,
                        ((w >> 18) & 0x1ff) as u16,
                        ((w >> 9) & 0x1ff) as u16,
                        (w & 0x1ff) as u16,
                    )
                })
                .collect(),
            Code::Wide(quads) => quads
                .iter()
                .map(|&[op, dst, a, b]| decode(op as u8, dst, a, b))
                .collect(),
        }
    }

    /// Logic-gate micro-ops in the kernel (fused opcodes count once — the
    /// cost model mirroring [`Program::gate_count`](crate::Program::gate_count)).
    pub fn gate_count(&self) -> usize {
        self.micro_instrs()
            .iter()
            .filter(|i| i.op.is_gate())
            .count()
    }

    /// Executes the tiled kernel over slice scratch, writing one lane
    /// word per declared output into `outputs` — the fallback of
    /// [`execute_fast`](Self::execute_fast) for kernels of more than 2048
    /// slots. `slots` holds at least [`num_slots`](Self::num_slots)
    /// words; its prior contents are ignored and overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the declared input count,
    /// `slots` is shorter than [`num_slots`](Self::num_slots), or
    /// `outputs.len()` differs from the declared output count.
    #[inline]
    fn execute<L: LaneWord>(&self, inputs: &[L], slots: &mut [L], outputs: &mut [L]) {
        self.check_shapes(inputs.len(), outputs.len());
        assert!(
            slots.len() >= self.num_slots as usize,
            "scratch has {} slots, kernel needs {}",
            slots.len(),
            self.num_slots
        );
        match &self.code {
            Code::Dense(c) => self.run_plain(DenseStream(c), inputs, slots, outputs),
            Code::Wide(c) => self.run_plain(WideStream(c), inputs, slots, outputs),
        }
    }

    /// Executes the tiled kernel with internally managed scratch, writing
    /// one lane word per declared output into `outputs` — the entry point
    /// every sampling API reaches, directly for scalar batches and through
    /// [`Backend::run_tiled`](crate::Backend::run_tiled) for lane batches.
    /// Kernels up to 2048 slots run over a fixed-size stack array through
    /// the masked, bounds-check-free tile handlers; larger kernels fall
    /// back to a heap-allocated slot buffer and the plain handlers. The
    /// instruction sequence and memory-access pattern are fixed at
    /// lowering time — independent of the input values — so the
    /// constant-time contract of the source program carries over.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` or `outputs.len()` mismatch the kernel's
    /// declared counts.
    #[inline(always)]
    pub fn execute_fast<L: LaneWord>(&self, inputs: &[L], outputs: &mut [L]) {
        self.check_shapes(inputs.len(), outputs.len());
        match &self.code {
            Code::Dense(c) => with_stack_slots!(
                self.num_slots as usize,
                L,
                |slots| self.run_masked(DenseStream(c), inputs, slots, outputs),
                |slots| self.execute(inputs, slots, outputs),
            ),
            Code::Wide(c) => with_stack_slots!(
                self.num_slots as usize,
                L,
                |slots| self.run_masked(WideStream(c), inputs, slots, outputs),
                |slots| self.execute(inputs, slots, outputs),
            ),
        }
    }

    /// Convenience wrapper over [`execute_fast`](Self::execute_fast) that
    /// returns the outputs in a fresh `Vec` — for tests and one-off runs,
    /// not the hot path.
    pub fn run<L: LaneWord>(&self, inputs: &[L]) -> Vec<L> {
        let mut outputs = vec![L::ZERO; self.output_slots.len()];
        self.execute_fast(inputs, &mut outputs);
        outputs
    }

    fn check_shapes(&self, inputs: usize, outputs: usize) {
        assert_eq!(inputs as u32, self.num_inputs, "input word count mismatch");
        assert_eq!(
            outputs,
            self.output_slots.len(),
            "output word count mismatch"
        );
    }
}

impl fmt::Display for TiledKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tiled kernel: {} inputs, {} micro-ops in {} tiles ({} encoding), {} slots, {} outputs",
            self.num_inputs,
            self.stats.micro_ops,
            self.tiles.len(),
            if self.stats.dense {
                "dense u32"
            } else {
                "u16x4"
            },
            self.num_slots,
            self.output_slots.len()
        )?;
        let instrs = self.micro_instrs();
        let mut pc = 0usize;
        for tile in &self.tiles {
            let w = tile.width();
            let ops: Vec<String> = instrs[pc..pc + w]
                .iter()
                .map(|i| match i.op {
                    Opcode::Input => format!("s{} = input[{}]", i.dst, i.a),
                    Opcode::Zero | Opcode::One => format!("s{} = {:?}", i.dst, i.op),
                    Opcode::Not => format!("s{} = Not(s{})", i.dst, i.a),
                    _ => format!("s{} = {:?}(s{}, s{})", i.dst, i.op, i.a, i.b),
                })
                .collect();
            writeln!(f, "  {tile:?}: {}", ops.join("; "))?;
            pc += w;
        }
        write!(f, "  outputs: {:?}", self.output_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interpret, Op, Program};

    /// Lowers and tiles `p`, checking the tiled engine against the
    /// interpreter oracle on the given inputs.
    fn check_tiled(p: &Program, inputs: &[u64]) -> TiledKernel {
        let kernel = CompiledKernel::lower(p);
        let tiled = TiledKernel::lower(&kernel);
        assert_eq!(
            tiled.run(inputs),
            interpret(p, inputs),
            "tiled kernel vs interpreter"
        );
        assert_eq!(
            tiled.micro_instrs(),
            kernel.instrs(),
            "tiling must be a pure re-encoding"
        );
        assert_eq!(
            tiled.stats().micro_ops,
            kernel.instrs().len(),
            "micro-op accounting"
        );
        tiled
    }

    #[test]
    fn and_or_chain_tiles_into_quads() {
        // 8 And/Or gates after 2 loads: the gate run must tile at width 4.
        let mut ops = vec![Op::Input(0), Op::Input(1)];
        for i in 0..8u32 {
            let prev = (ops.len() - 1) as u32;
            ops.push(if i % 2 == 0 {
                Op::And(prev, 0)
            } else {
                Op::Or(prev, 1)
            });
        }
        let out = (ops.len() - 1) as u32;
        let p = Program::new(2, ops, vec![out]);
        let tiled = check_tiled(&p, &[0xf0f0_3c3c_aaaa_5555, 0x0ff0_c3c3_9999_6666]);
        assert!(tiled.stats().quads >= 2, "{:?}", tiled.stats());
        assert!(
            tiled.dispatch_count() * 3 <= tiled.stats().micro_ops,
            "expected >= 3x dispatch reduction on a pure gate chain: {:?}",
            tiled.stats()
        );
    }

    #[test]
    fn empty_program_tiles_and_executes() {
        let p = Program::new(0, vec![], vec![]);
        let tiled = check_tiled(&p, &[]);
        assert_eq!(tiled.dispatch_count(), 0);
        assert_eq!(tiled.run::<u64>(&[]), Vec::<u64>::new());
    }

    #[test]
    fn single_instruction_program() {
        let p = Program::new(1, vec![Op::Input(0)], vec![0]);
        let tiled = check_tiled(&p, &[0xdead_beef]);
        assert_eq!(tiled.dispatch_count(), 1);
        assert_eq!(tiled.stats().singles, 1);
    }

    #[test]
    fn all_constant_outputs() {
        let p = Program::new(
            1,
            vec![Op::Input(0), Op::Const(true), Op::Const(false)],
            vec![1, 2, 1],
        );
        let tiled = check_tiled(&p, &[42]);
        assert_eq!(tiled.run(&[42u64]), vec![u64::MAX, 0, u64::MAX]);
    }

    #[test]
    fn non_multiple_of_tile_width_streams() {
        // Gate-run lengths 1..=9 exercise every tail shape the greedy
        // tiler can leave (quads plus a 1/2/3-op residue).
        for gates in 1..=9u32 {
            let mut ops = vec![Op::Input(0), Op::Input(1)];
            for i in 0..gates {
                let prev = (ops.len() - 1) as u32;
                ops.push(if i % 3 == 0 {
                    Op::Or(prev, 0)
                } else {
                    Op::And(prev, 1)
                });
            }
            let out = (ops.len() - 1) as u32;
            let p = Program::new(2, ops, vec![out]);
            let tiled = check_tiled(&p, &[0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321]);
            let widths: usize = tiled.tiles().iter().map(|t| t.width()).sum();
            assert_eq!(widths, tiled.stats().micro_ops, "gates = {gates}");
        }
    }

    /// Builds a program whose values are all live until the end, forcing
    /// `width` slots with no recycling.
    fn wide_live_program(width: usize) -> Program {
        let mut ops = vec![Op::Input(0), Op::Input(1)];
        let mut outputs = Vec::with_capacity(width);
        for i in 0..width as u32 {
            let prev = (ops.len() - 1) as u32;
            ops.push(if i % 2 == 0 {
                Op::Xor(prev, 0)
            } else {
                Op::And(prev, 1)
            });
            outputs.push((ops.len() - 1) as u32);
        }
        Program::new(2, ops, outputs)
    }

    #[test]
    fn wide_encoding_kicks_in_above_dense_limit() {
        // ~600 and ~1500 live slots: the 1024 and 2048 stack tiers.
        for (width, tier) in [(600, 1024), (1500, 2048)] {
            let p = wide_live_program(width);
            let tiled = check_tiled(&p, &[0xaaaa_5555_0f0f_f0f0, 0x1111_2222_3333_4444]);
            assert!(!tiled.stats().dense, "{width} live slots exceed 9-bit ids");
            assert!(tiled.num_slots() > DENSE_LIMIT);
            assert!((tier / 2 + 1..=tier).contains(&tiled.num_slots()));
        }

        let small = Program::new(1, vec![Op::Input(0), Op::Not(0)], vec![1]);
        let tiled_small = TiledKernel::lower(&CompiledKernel::lower(&small));
        assert!(tiled_small.stats().dense, "tiny kernels pack one u32/op");
    }

    #[test]
    fn heap_fallback_above_2048_slots() {
        // > 2048 simultaneously-live values: the engine must leave the
        // masked stack fast path and still match the interpreter.
        let p = wide_live_program(2100);
        let kernel = CompiledKernel::lower(&p);
        assert!(kernel.num_slots() > 2048);
        let tiled = check_tiled(&p, &[0x1357_9bdf_0246_8ace, 0xfedc_ba98_7654_3210]);
        assert!(tiled.num_slots() > 2048);
    }

    #[test]
    fn wide_lane_execution_matches_scalar_lanes() {
        let p = Program::new(
            3,
            vec![
                Op::Input(0),
                Op::Input(1),
                Op::Input(2),
                Op::Not(2),
                Op::And(0, 3),
                Op::Or(4, 1),
                Op::Xor(5, 2),
            ],
            vec![6, 4],
        );
        let tiled = TiledKernel::lower(&CompiledKernel::lower(&p));
        let inputs_wide: Vec<[u64; 4]> = vec![[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]];
        let wide = tiled.run(&inputs_wide);
        for w in 0..4 {
            let scalar_inputs: Vec<u64> = inputs_wide.iter().map(|v| v[w]).collect();
            let scalar = tiled.run(&scalar_inputs);
            for (o, out) in scalar.iter().enumerate() {
                assert_eq!(wide[o][w], *out, "output {o}, word {w}");
            }
        }
    }

    #[test]
    fn execute_with_caller_scratch_matches_fast_path() {
        let p = wide_live_program(9);
        let kernel = CompiledKernel::lower(&p);
        let tiled = TiledKernel::lower(&kernel);
        let inputs = [0x1122_3344_5566_7788u64, 0x99aa_bbcc_ddee_ff00];
        let mut slots = vec![0u64; tiled.num_slots()];
        let mut outputs = vec![0u64; tiled.num_outputs()];
        tiled.execute(&inputs, &mut slots, &mut outputs);
        assert_eq!(outputs, tiled.run(&inputs));
    }

    #[test]
    fn tile_codes_round_trip() {
        for (i, &tile) in Tile::ALL.iter().enumerate() {
            assert_eq!(tile.code() as usize, i);
            assert_eq!(Tile::from_code(tile.code()), Some(tile));
        }
        assert_eq!(Tile::from_code(Tile::ALL.len() as u8), None);
        assert_eq!(Tile::from_code(u8::MAX), None);
    }

    #[test]
    fn find_tile_is_total_over_all_opcodes() {
        for code in 0..12u8 {
            let op = Opcode::from_code(code).expect("0..12 are valid opcodes");
            assert_eq!(op.code(), code);
            let tile = find_tile(&[op]);
            assert_eq!(tile.ops(), &[op], "single-op tile for {op:?}");
            assert_eq!(tile.width(), 1);
        }
        assert!(Opcode::from_code(12).is_none());
    }

    #[test]
    fn greedy_matcher_prefers_longest_pattern() {
        use Opcode::{And, Input, Not, Or};
        assert_eq!(find_tile(&[And, And, And, And, And]).width(), 4);
        assert_eq!(find_tile(&[And, Or, And]).width(), 3);
        assert_eq!(find_tile(&[Input, Not, And]).width(), 2);
        assert_eq!(find_tile(&[Not, And, And]).width(), 2);
        assert_eq!(find_tile(&[Input, And, And]).width(), 1);
    }

    #[test]
    #[should_panic(expected = "input word count mismatch")]
    fn execute_rejects_wrong_input_count() {
        let p = Program::new(2, vec![Op::Input(0), Op::Input(1)], vec![0]);
        let tiled = TiledKernel::lower(&CompiledKernel::lower(&p));
        let _ = tiled.run(&[1u64]);
    }

    #[test]
    #[should_panic(expected = "scratch has")]
    fn execute_rejects_short_scratch() {
        let p = Program::new(1, vec![Op::Input(0), Op::Not(0)], vec![1]);
        let tiled = TiledKernel::lower(&CompiledKernel::lower(&p));
        let mut outputs = [0u64];
        tiled.execute(&[1u64], &mut [], &mut outputs);
    }

    #[test]
    fn display_renders_tiles() {
        let p = Program::new(1, vec![Op::Input(0), Op::Not(0), Op::And(0, 1)], vec![2]);
        let tiled = TiledKernel::lower(&CompiledKernel::lower(&p));
        let s = tiled.to_string();
        assert!(s.contains("tiled kernel"), "{s}");
        assert!(s.contains("input[0]"), "{s}");
        assert!(s.contains("outputs"), "{s}");
    }
}
