//! The staged pipeline: a [`SamplerSpec`] in, compiled constant-time
//! sampler out.
//!
//! [`build_traced`] runs the Figure-4 chain as six named passes (see
//! [`SynthStage`]), each timed, content-fingerprinted, and re-checked
//! against an oracle on a fixed probe batch before the next pass may run
//! (the `CompiledKernel` IR through the `TiledKernel` probe that executes
//! it), and returns the resulting [`BuildTrace`] alongside the sampler.
//! [`SamplerSpec::build`] and the shared builds call it; the
//! [`KernelCache`](crate::KernelCache) uses the same trace machinery to
//! record which stages a warm start skipped.

use core::fmt;
use std::rc::Rc;
use std::time::Instant;

use ctgauss_bitslice::{compile, interpret, CompiledKernel, Program, TiledKernel};
use ctgauss_boolmin::{Cover, Expr, VarState};
use ctgauss_knuthyao::{
    delta, enumerate_leaves, max_run_length, ColumnScanSampler, Leaf, ParamError, ProbabilityMatrix,
};
use ctgauss_prng::{RandomSource, SplitMix64};

use crate::sampler::CtSampler;
use crate::spec::SamplerSpec;
use crate::stages::{BuildTrace, CacheDisposition, Fingerprint, SynthStage};
use crate::sublists::{
    combine_sublists, simple_expressions, split_by_run, synthesize_sublist, SublistFunctions,
};

/// Which Boolean minimization pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// This paper: split by ones-run into sublists, exact minimization of
    /// each small function, constant-time mux recombination (Equation 2).
    #[default]
    SplitExact,
    /// Prior work \[21\]: one heuristic minimization of the full
    /// `n`-variable functions ("simple minimization", the Table 2
    /// baseline).
    Simple,
}

impl Strategy {
    /// The strategy's stable byte, as hashed into the spec fingerprint
    /// and stored in cache artifact metadata.
    pub(crate) fn code(self) -> u8 {
        match self {
            Strategy::SplitExact => 0,
            Strategy::Simple => 1,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for an unknown byte.
    pub(crate) fn from_code(code: u8) -> Option<Strategy> {
        [Strategy::SplitExact, Strategy::Simple]
            .into_iter()
            .find(|s| s.code() == code)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::SplitExact => write!(f, "split-exact (this work)"),
            Strategy::Simple => write!(f, "simple ([21] baseline)"),
        }
    }
}

/// Errors from [`SamplerSpec::build`] and the shared builds
/// ([`SamplerSpec::build_shared`] and its variants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Parameter validation failed.
    Params(ParamError),
    /// The distribution produced no leaves (cannot happen for valid
    /// Gaussian parameters; guarded for defence in depth).
    EmptyDistribution,
    /// A pipeline stage failed its post-pass invariant: its output was
    /// not bit-equivalent to the previous stage's oracle on the fixed
    /// probe batch. Indicates a synthesis bug (or memory corruption) —
    /// the pipeline refuses to hand out a sampler that could mis-sample.
    StageInvariant(SynthStage),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Params(e) => write!(f, "invalid parameters: {e}"),
            BuildError::EmptyDistribution => write!(f, "distribution has no DDG leaves"),
            BuildError::StageInvariant(stage) => write!(
                f,
                "synthesis stage '{stage}' failed its probe-batch equivalence check"
            ),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Params(e) => Some(e),
            BuildError::EmptyDistribution | BuildError::StageInvariant(_) => None,
        }
    }
}

impl From<ParamError> for BuildError {
    fn from(e: ParamError) -> Self {
        BuildError::Params(e)
    }
}

/// Synthesis metadata for one sublist, surfaced for the Figure 3/4
/// reproductions and ablation benches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SublistInfo {
    /// Run length `kappa`.
    pub kappa: u32,
    /// Leaves in the sublist.
    pub leaves: usize,
    /// Free-bit window width.
    pub window: u32,
    /// Literals across the minimized output covers.
    pub literals: u32,
    /// Whether exact minimization was used.
    pub exact: bool,
}

/// A record of everything the pipeline produced, attached to the sampler.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// The strategy that was run.
    pub strategy: Strategy,
    /// Number of DDG leaves (`|L|`).
    pub leaves: usize,
    /// The paper's `Delta` (maximum free-bit count).
    pub delta: u32,
    /// The paper's `n'` (maximum ones-run length).
    pub max_run: u32,
    /// Per-sublist details (empty for [`Strategy::Simple`]).
    pub sublists: Vec<SublistInfo>,
    /// Gates in the compiled program (cost model for Table 2).
    pub gates: usize,
    /// Program length including loads.
    pub ops: usize,
}

/// The `MinimizedSop` stage's output: per-sublist minimized covers for
/// the paper's split, or the already-recombined expressions for the
/// simple baseline (whose minimizer works directly on full-width covers).
enum Sop {
    Split(Vec<SublistFunctions>),
    Simple(Vec<Rc<Expr>>),
}

/// Seed of the fixed probe batch every post-pass invariant check runs on.
/// Fixed so probe results (and thus build success) are deterministic.
const PROBE_SEED: u64 = 0x1735_0c7b_a11e_5eed;

/// How many DDG leaves the `MinimizedSop` probe replays (spread evenly
/// across the list). Bounded so probing stays a rounding error next to
/// minimization itself.
const PROBE_LEAVES: usize = 48;

/// Runs the full pipeline for `spec`: matrix, list `L`, sublist split,
/// Boolean minimization, Equation 2 recombination, bitslice compilation
/// and both kernel lowerings, returning the sampler with the pipeline's
/// [`BuildTrace`] (per-stage wall time, content fingerprints, skip flags;
/// [`CacheDisposition::Bypassed`]).
///
/// # Errors
///
/// Returns [`BuildError::Params`] for invalid `(sigma, n, tau)` and
/// [`BuildError::StageInvariant`] if any stage fails its probe check.
pub(crate) fn build_traced(spec: &SamplerSpec) -> Result<(CtSampler, BuildTrace), BuildError> {
    let mut trace = BuildTrace::new(CacheDisposition::Bypassed);

    // Stage 1: Spec — the value identity seeding every fingerprint.
    let t = Instant::now();
    let spec_fp = spec.fingerprint();
    trace.push(SynthStage::Spec, spec_fp, t.elapsed(), true);

    // Stage 2: ProbTables — probability matrix and the leaf list L.
    let t = Instant::now();
    let params = spec.params()?;
    let matrix = ProbabilityMatrix::build(&params)?;
    let leaves = enumerate_leaves(&matrix);
    if leaves.is_empty() {
        return Err(BuildError::EmptyDistribution);
    }
    let n = matrix.precision();
    let sample_bits = matrix.sample_bits();
    let d = delta(&leaves);
    let max_run = max_run_length(&leaves);
    let tables_fp = tables_fingerprint(spec_fp, &matrix, &leaves);
    trace.push(SynthStage::ProbTables, tables_fp, t.elapsed(), true);

    // Stage 3: MinimizedSop — the expensive offline minimization.
    let t = Instant::now();
    let (sop, sublist_infos) = match spec.strategy {
        Strategy::SplitExact => {
            let split = split_by_run(&leaves, max_run);
            let sublists: Vec<SublistFunctions> = split
                .iter()
                .enumerate()
                .map(|(kappa, sl)| {
                    let kappa = kappa as u32;
                    let window = d.min(n - kappa - 1);
                    synthesize_sublist(kappa, sl, window, sample_bits)
                })
                .collect();
            let infos = sublists
                .iter()
                .map(|s| SublistInfo {
                    kappa: s.kappa,
                    leaves: s.leaves,
                    window: s.window,
                    literals: s.literal_count(),
                    exact: s.exact,
                })
                .collect();
            (Sop::Split(sublists), infos)
        }
        Strategy::Simple => (
            Sop::Simple(simple_expressions(&leaves, n, sample_bits)),
            Vec::new(),
        ),
    };
    probe_sop(&sop, &leaves, n)?;
    let sop_fp = sop_fingerprint(tables_fp, &sop);
    trace.push(SynthStage::MinimizedSop, sop_fp, t.elapsed(), true);

    // Stage 4: Program — Equation-2 recombination + hash-consed
    // compilation to straight-line SSA.
    let t = Instant::now();
    let exprs = match &sop {
        Sop::Split(sublists) => combine_sublists(sublists, sample_bits),
        Sop::Simple(exprs) => exprs.clone(),
    };
    let program = compile(&exprs, n);
    probe_program(&program, &matrix)?;
    let program_fp = program_fingerprint(sop_fp, &program);
    trace.push(SynthStage::Program, program_fp, t.elapsed(), true);

    // Stage 5: CompiledKernel — the optimizing lowering. It is an IR,
    // not an engine: its probe is the tiled stage's, which executes
    // exactly this instruction list, and it is dropped once tiled.
    let t = Instant::now();
    let kernel = CompiledKernel::lower(&program);
    let kernel_fp = kernel_fingerprint(program_fp, &kernel);
    trace.push(SynthStage::CompiledKernel, kernel_fp, t.elapsed(), true);

    // Stage 6: TiledKernel — superinstruction re-lowering. The tile
    // stream must decode back to exactly the compiled instruction
    // list, which gates the `CompiledKernel` stage too.
    let t = Instant::now();
    let tiled = TiledKernel::lower(&kernel);
    if tiled.micro_instrs() != kernel.instrs() {
        return Err(BuildError::StageInvariant(SynthStage::TiledKernel));
    }
    drop(kernel);
    probe_tiled(&tiled, &program)?;
    let tiled_fp = tiled_fingerprint(kernel_fp, &tiled);
    trace.push(SynthStage::TiledKernel, tiled_fp, t.elapsed(), true);

    let report = BuildReport {
        strategy: spec.strategy,
        leaves: leaves.len(),
        delta: d,
        max_run,
        sublists: sublist_infos,
        gates: program.gate_count(),
        ops: program.ops().len(),
    };
    let sampler = CtSampler::from_parts(program, tiled, matrix, report);
    for rec in &trace.stages {
        crate::metrics::record_stage(rec.stage, rec.duration);
    }
    Ok((sampler, trace))
}

/// The fixed probe batch: `n` bit-plane words, 64 lanes of pseudorandom
/// bit streams, identical on every build.
pub(crate) fn probe_inputs(n: u32) -> Vec<u64> {
    let mut rng = SplitMix64::new(PROBE_SEED);
    let mut inputs = vec![0u64; n as usize];
    rng.fill_u64s(&mut inputs);
    inputs
}

/// `MinimizedSop` invariant: the minimized functions reproduce the sample
/// value of probe leaves from the previous stage's list `L` (evenly
/// spread; every leaf's free-bit assignment must evaluate to its value).
fn probe_sop(sop: &Sop, leaves: &[Leaf], n: u32) -> Result<(), BuildError> {
    let stride = (leaves.len() / PROBE_LEAVES).max(1);
    for leaf in leaves.iter().step_by(stride) {
        let value = match sop {
            Sop::Split(sublists) => {
                let sl = &sublists[leaf.run_length() as usize];
                let kappa = sl.kappa;
                let bits: Vec<bool> = (0..sl.window)
                    .map(|p| p < leaf.free_bits() && leaf.bits.get(kappa + 1 + p))
                    .collect();
                sl.covers.iter().enumerate().fold(0u32, |v, (iota, cover)| {
                    v | (u32::from(cover.evaluate(&bits)) << iota)
                })
            }
            Sop::Simple(exprs) => {
                let mut bits = vec![false; n as usize];
                for (pos, b) in leaf.bits.iter().enumerate() {
                    bits[pos] = b;
                }
                exprs.iter().enumerate().fold(0u32, |v, (iota, e)| {
                    v | (u32::from(e.evaluate(&bits)) << iota)
                })
            }
        };
        if value != leaf.value {
            return Err(BuildError::StageInvariant(SynthStage::MinimizedSop));
        }
    }
    Ok(())
}

/// `Program` invariant: on the fixed probe batch, every lane whose
/// Knuth-Yao walk (Algorithm 1, the `ProbTables` oracle) terminates
/// within `n` bits must decode to exactly the walked sample value.
pub(crate) fn probe_program(
    program: &Program,
    matrix: &ProbabilityMatrix,
) -> Result<(), BuildError> {
    let inputs = probe_inputs(program.num_inputs());
    let words = interpret(program, &inputs);
    let oracle = ColumnScanSampler::new(matrix);
    for lane in 0..64u32 {
        let mut pos = 0usize;
        let mut next_bit = || {
            let b = (inputs[pos] >> lane) & 1 == 1;
            pos += 1;
            b
        };
        if let Some(expected) = oracle.walk_with(&mut next_bit) {
            let got = words.iter().enumerate().fold(0u32, |v, (iota, w)| {
                v | ((((w >> lane) & 1) as u32) << iota)
            });
            if got != expected {
                return Err(BuildError::StageInvariant(SynthStage::Program));
            }
        }
    }
    Ok(())
}

/// `TiledKernel` invariant: execution is bit-equivalent to the source
/// program's interpreter on the fixed probe batch. Run on every fresh
/// build and on every cache load.
pub(crate) fn probe_tiled(tiled: &TiledKernel, program: &Program) -> Result<(), BuildError> {
    let inputs = probe_inputs(program.num_inputs());
    if tiled.run(&inputs) != interpret(program, &inputs) {
        return Err(BuildError::StageInvariant(SynthStage::TiledKernel));
    }
    Ok(())
}

/// Chains a new fingerprint off the previous stage's value.
fn chain(prev: u64) -> Fingerprint {
    let mut fp = Fingerprint::new();
    fp.u64(prev);
    fp
}

/// `ProbTables` content: matrix dimensions and bits, then the leaf list.
fn tables_fingerprint(prev: u64, matrix: &ProbabilityMatrix, leaves: &[Leaf]) -> u64 {
    let mut fp = chain(prev);
    fp.u32(matrix.rows())
        .u32(matrix.precision())
        .u32(matrix.sample_bits());
    for v in 0..matrix.rows() {
        for j in 0..matrix.precision() {
            fp.bool(matrix.bit(v, j));
        }
    }
    fp.usize(leaves.len());
    for leaf in leaves {
        fp.u32(leaf.value).u32(leaf.bits.len());
        for b in leaf.bits.iter() {
            fp.bool(b);
        }
    }
    fp.value()
}

/// Mixes one minimized cover: variable count, then each cube's per-variable
/// state. Covers are canonically sorted by the minimizers, so this is
/// run-independent.
fn cover_fingerprint(fp: &mut Fingerprint, cover: &Cover) {
    fp.u32(cover.nvars()).usize(cover.cube_count());
    for cube in cover.cubes() {
        for v in 0..cover.nvars() {
            fp.u8(match cube.var(v) {
                VarState::Zero => 0,
                VarState::One => 1,
                VarState::DontCare => 2,
            });
        }
    }
}

/// Structural, sharing-aware expression hash (used for the simple
/// baseline, whose minimizer emits expressions directly).
fn expr_fingerprint(e: &Rc<Expr>, memo: &mut std::collections::HashMap<*const Expr, u64>) -> u64 {
    if let Some(&h) = memo.get(&Rc::as_ptr(e)) {
        return h;
    }
    let mut fp = Fingerprint::new();
    match &**e {
        Expr::Const(v) => fp.u8(0).bool(*v),
        Expr::Var(i) => fp.u8(1).u32(*i),
        Expr::Not(a) => fp.u8(2).u64(expr_fingerprint(a, memo)),
        Expr::And(a, b) => fp
            .u8(3)
            .u64(expr_fingerprint(a, memo))
            .u64(expr_fingerprint(b, memo)),
        Expr::Or(a, b) => fp
            .u8(4)
            .u64(expr_fingerprint(a, memo))
            .u64(expr_fingerprint(b, memo)),
        Expr::Xor(a, b) => fp
            .u8(5)
            .u64(expr_fingerprint(a, memo))
            .u64(expr_fingerprint(b, memo)),
    };
    let h = fp.value();
    memo.insert(Rc::as_ptr(e), h);
    h
}

/// `MinimizedSop` content: per-sublist covers (split) or the minimized
/// expression forest (simple).
fn sop_fingerprint(prev: u64, sop: &Sop) -> u64 {
    let mut fp = chain(prev);
    match sop {
        Sop::Split(sublists) => {
            fp.u8(0).usize(sublists.len());
            for sl in sublists {
                fp.u32(sl.kappa)
                    .usize(sl.leaves)
                    .u32(sl.window)
                    .bool(sl.exact)
                    .usize(sl.covers.len());
                for cover in &sl.covers {
                    cover_fingerprint(&mut fp, cover);
                }
            }
        }
        Sop::Simple(exprs) => {
            fp.u8(1).usize(exprs.len());
            let mut memo = std::collections::HashMap::new();
            for e in exprs {
                fp.u64(expr_fingerprint(e, &mut memo));
            }
        }
    }
    fp.value()
}

/// `Program` content: the SSA op stream and the declared outputs.
fn program_fingerprint(prev: u64, program: &Program) -> u64 {
    use ctgauss_bitslice::Op;
    let mut fp = chain(prev);
    fp.u32(program.num_inputs()).usize(program.ops().len());
    for &op in program.ops() {
        let (tag, a, b) = match op {
            Op::Input(i) => (0u8, i, 0),
            Op::Const(false) => (1, 0, 0),
            Op::Const(true) => (2, 0, 0),
            Op::Not(a) => (3, a, 0),
            Op::And(a, b) => (4, a, b),
            Op::Or(a, b) => (5, a, b),
            Op::Xor(a, b) => (6, a, b),
        };
        fp.u8(tag).u32(a).u32(b);
    }
    fp.usize(program.outputs().len());
    for &o in program.outputs() {
        fp.u32(o);
    }
    fp.value()
}

/// `CompiledKernel` content: the fused instruction stream, slot count and
/// output slots.
fn kernel_fingerprint(prev: u64, kernel: &CompiledKernel) -> u64 {
    let mut fp = chain(prev);
    fp.u32(kernel.num_inputs())
        .usize(kernel.num_slots())
        .usize(kernel.instrs().len());
    for i in kernel.instrs() {
        fp.u8(i.op.code())
            .u32(u32::from(i.dst))
            .u32(u32::from(i.a))
            .u32(u32::from(i.b));
    }
    fp.usize(kernel.output_slots().len());
    for &o in kernel.output_slots() {
        fp.u32(u32::from(o));
    }
    fp.value()
}

/// `TiledKernel` content: the tile stream on top of the kernel stream it
/// re-encodes.
fn tiled_fingerprint(prev: u64, tiled: &TiledKernel) -> u64 {
    let mut fp = chain(prev);
    fp.usize(tiled.tiles().len());
    for t in tiled.tiles() {
        fp.u8(t.code());
    }
    fp.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_codes_round_trip() {
        for strategy in [Strategy::SplitExact, Strategy::Simple] {
            assert_eq!(Strategy::from_code(strategy.code()), Some(strategy));
        }
        assert_eq!(Strategy::SplitExact.code(), 0);
        assert_eq!(Strategy::Simple.code(), 1);
        assert_eq!(Strategy::from_code(2), None);
        assert_eq!(Strategy::from_code(u8::MAX), None);
    }

    #[test]
    fn build_both_strategies() {
        for strategy in [Strategy::SplitExact, Strategy::Simple] {
            let s = SamplerSpec::new("2", 12)
                .strategy(strategy)
                .build()
                .unwrap();
            assert!(s.report().gates > 0, "{strategy}");
            assert_eq!(s.report().strategy, strategy);
        }
    }

    #[test]
    fn split_reports_sublists() {
        let s = SamplerSpec::new("2", 16).build().unwrap();
        let r = s.report();
        assert_eq!(r.sublists.len() as u32, r.max_run + 1);
        let total: usize = r.sublists.iter().map(|s| s.leaves).sum();
        assert_eq!(total, r.leaves);
        assert!(r.sublists.iter().all(|s| s.exact));
    }

    #[test]
    fn simple_reports_no_sublists() {
        let s = SamplerSpec::new("2", 10)
            .strategy(Strategy::Simple)
            .build()
            .unwrap();
        assert!(s.report().sublists.is_empty());
    }

    #[test]
    fn invalid_params_propagate() {
        assert!(matches!(
            SamplerSpec::new("0.1", 16).build(),
            Err(BuildError::Params(ParamError::SigmaTooSmall))
        ));
        assert!(matches!(
            SamplerSpec::new("x", 16).build(),
            Err(BuildError::Params(ParamError::InvalidSigma(_)))
        ));
        assert!(matches!(
            SamplerSpec::new("2", 1).build(),
            Err(BuildError::Params(ParamError::InvalidPrecision(1)))
        ));
    }

    #[test]
    fn split_has_fewer_gates_than_tree_size() {
        // The shared prefix chains must keep the program compact: gates
        // should be well below (sublists x outputs x window cubes) blowup.
        let s = SamplerSpec::new("2", 24).build().unwrap();
        let r = s.report();
        assert!(
            r.gates < 20_000,
            "unexpectedly large program: {} gates",
            r.gates
        );
        assert!(r.ops as u32 >= 24, "program must at least load the inputs");
    }

    #[test]
    fn trace_records_every_stage_in_order() {
        let (_, trace) = build_traced(&SamplerSpec::new("2", 14)).unwrap();
        let stages: Vec<SynthStage> = trace.stages.iter().map(|r| r.stage).collect();
        assert_eq!(stages, SynthStage::ALL.to_vec());
        assert!(trace.stages.iter().all(|r| r.ran));
        assert_eq!(trace.cache, CacheDisposition::Bypassed);
    }

    #[test]
    fn stage_fingerprints_chain_and_differ() {
        let (_, trace) = build_traced(&SamplerSpec::new("2", 14)).unwrap();
        let fps: Vec<u64> = trace.stages.iter().map(|r| r.fingerprint).collect();
        let mut dedup = fps.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), fps.len(), "stage fingerprints must differ");
    }

    #[test]
    fn traces_are_reproducible_across_builds_and_threads() {
        // HashMap/HashSet iteration order differs per thread; the boolmin
        // determinism fix plus the RandomState-free fingerprints must
        // make traces identical anyway — the cache key depends on it.
        let fps = |spec: &SamplerSpec| -> Vec<u64> {
            build_traced(spec)
                .unwrap()
                .1
                .stages
                .iter()
                .map(|r| r.fingerprint)
                .collect()
        };
        for strategy in [Strategy::SplitExact, Strategy::Simple] {
            let spec = SamplerSpec::new("2", 14).strategy(strategy);
            let here = fps(&spec);
            let spec2 = spec.clone();
            let there = std::thread::spawn(move || fps(&spec2)).join().unwrap();
            assert_eq!(
                here, there,
                "{strategy}: fingerprints diverged across threads"
            );
        }
    }

    #[test]
    fn different_specs_have_different_final_fingerprints() {
        let fp = |sigma: &str, n: u32| {
            build_traced(&SamplerSpec::new(sigma, n))
                .unwrap()
                .1
                .fingerprint()
        };
        let base = fp("2", 12);
        assert_eq!(base, fp("2", 12));
        assert_ne!(base, fp("2", 13));
        assert_ne!(base, fp("1.5", 12));
    }
}
