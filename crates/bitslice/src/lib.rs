//! Bitsliced execution of Boolean expressions — the SIMD engine of the
//! constant-time sampler.
//!
//! The paper evaluates each sampler Boolean function on 64 independent
//! inputs at once by packing one bit position of all 64 lanes into a `u64`
//! word and replacing single-bit operators with bitwise ones (Section 3.2
//! of the prior work, Section 5.2 here). This crate provides:
//!
//! * [`Program`] — a straight-line SSA program of `AND`/`OR`/`XOR`/`NOT`
//!   word operations. Straight-line means constant-time by construction: no
//!   branches, no data-dependent memory addressing.
//! * [`compile`] — lowers [`ctgauss_boolmin::Expr`] trees to a [`Program`]
//!   with structural hash-consing, so the shared selector chains
//!   `b_0 & b_1 & ... & b_k` of Equation 2 are computed once.
//! * [`interpret`] — executes a program over `u64` lanes (the reference
//!   oracle: simple and obviously correct).
//! * [`CompiledKernel`] — the optimizing lowering pipeline (a build-time
//!   IR, not an engine; only the tiled kernel is kept or serialized):
//!   dead-code elimination, `AndNot`/`Xnor` op fusion, constant folding,
//!   post-fusion GVN/CSE, windowed list scheduling, and liveness +
//!   linear-scan slot allocation.
//! * [`TiledKernel`] — the production execution engine, and the only one
//!   besides the interpreter: the compiled kernel's instruction stream
//!   re-lowered into superinstruction tiles (straight-line unrolled
//!   handlers for the dominant 2–4-op patterns, dense-packed operand
//!   stream), so the dispatch loop fires once per tile instead of once per
//!   op. Execution is allocation-free and generic over the lane width
//!   ([`LaneWord`]: `u64`, `[u64; 2]`, `[u64; 4]`, …).
//! * [`Backend`] — runtime-dispatched SIMD lane backends (SSE2 / AVX2 /
//!   AVX-512 / NEON intrinsics plus the always-available portable words),
//!   selected by CPU feature detection and overridable through the
//!   `CTGAUSS_FORCE_BACKEND` environment variable.
//! * [`audit`] / [`audit_tiled`] — static checkers that verify SSA
//!   well-formedness and that every output is influenced only by declared
//!   random inputs, for source programs and tiled kernels respectively.
//!
//! # Examples
//!
//! ```
//! use ctgauss_bitslice::{compile, interpret};
//! use ctgauss_boolmin::Expr;
//!
//! // out = x0 & !x1, evaluated on 64 lanes at once.
//! let e = Expr::and(Expr::var(0), Expr::not(Expr::var(1)));
//! let program = compile(&[e], 2);
//! let out = interpret(&program, &[0b1100, 0b1010]);
//! assert_eq!(out[0], 0b0100);
//! ```
// `deny`, not `forbid`: the `simd` module needs scoped `unsafe` for the
// `core::arch` intrinsics behind runtime feature detection. Everything
// else in the crate stays unsafe-free, enforced at the crate level.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod audit;
mod compile;
mod kernel;
mod program;
#[allow(unsafe_code)]
mod simd;
mod tile;

pub use audit::{audit, audit_tiled, AuditReport};
pub use compile::compile;
pub use kernel::{CompiledKernel, Instr, LaneWord, LoweringStats, Opcode};
pub use program::{interpret, Op, Program};
pub use simd::{Backend, FORCE_BACKEND_ENV};
pub use tile::{Tile, TileStats, TiledKernel};
