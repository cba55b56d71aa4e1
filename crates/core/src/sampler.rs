//! The compiled constant-time sampler.

use ctgauss_bitslice::{audit, audit_tiled, interpret, AuditReport, Backend, Program, TiledKernel};
use ctgauss_knuthyao::ProbabilityMatrix;
use ctgauss_prng::RandomSource;

use crate::builder::BuildReport;

/// Inputs-plus-sign words that fit the stack fast path of
/// [`CtSampler::sample_batch`] (covers every paper configuration: the
/// largest is `n = 128`, i.e. 129 words). Larger programs fall back to a
/// per-call heap buffer.
const MAX_STACK_DRAW: usize = 160;

/// Upper bound on sample magnitude bits, enforced at construction so
/// output buffers can live on the stack and the magnitude always fits the
/// positive range of the `i32` sample type (31 bits, not 32: a magnitude
/// with bit 31 set would overflow the constant-time sign application).
/// Crate-visible so the kernel cache can pre-screen artifacts against the
/// same bound instead of tripping the construction assert.
pub(crate) const MAX_SAMPLE_BITS: usize = 31;

/// A constant-time, bitsliced discrete Gaussian sampler.
///
/// Produces 64 signed samples per batch. Each batch consumes exactly
/// `n + 1` random words — `n` words carrying bit position `b_i` of all 64
/// lanes plus one sign word — and executes one straight-line bitwise
/// program, so the time and memory-access pattern are independent of the
/// sampled values.
///
/// At build time the straight-line SSA program is lowered once through
/// the [`CompiledKernel`](ctgauss_bitslice::CompiledKernel) IR (dead-code
/// elimination, op fusion, GVN/CSE, list scheduling, register allocation)
/// into a [`TiledKernel`] (superinstruction tiles: one dispatch per
/// 2–4-op pattern instead of one per op), and only the tiled kernel is
/// kept. Every sampling API executes it — the scalar batch APIs over
/// `u64`, the wide and bulk APIs through one backend-dispatched lane path
/// ([`Backend::run_tiled`]). The interpreter behind
/// [`run_batch_reference`](Self::run_batch_reference) is its bit-exact
/// oracle.
///
/// # Randomness draw order
///
/// Every API consumes the generator as a sequence of **batch records** of
/// [`words_per_batch`](Self::words_per_batch)` = n + 1` words, drawn with a
/// single [`RandomSource::fill_u64s`] call per record: words `0..n` are the
/// bit-plane words (word `i` packs bit `b_i` of all 64 lanes), word `n` is
/// the sign word. Wide and bulk APIs draw `W` consecutive records and
/// de-interleave, so for the same generator stream:
///
/// * [`sample_batch_wide::<W>`](Self::sample_batch_wide) equals `W`
///   consecutive [`sample_batch`](Self::sample_batch) calls, concatenated;
/// * [`sample_into`](Self::sample_into) equals the prefix of repeated
///   [`sample_batch`](Self::sample_batch) calls.
///
/// Construct through [`SamplerSpec::build`](crate::SamplerSpec::build) or
/// the shared builds.
///
/// # Examples
///
/// ```
/// use ctgauss_core::SamplerSpec;
/// use ctgauss_prng::ChaChaRng;
///
/// let sampler = SamplerSpec::new("2", 24).build().unwrap();
/// let mut rng = ChaChaRng::from_u64_seed(42);
/// // Batch API:
/// let batch = sampler.sample_batch(&mut rng);
/// // Bulk API (any length, batches amortized internally):
/// let mut noise = [0i32; 1000];
/// sampler.sample_into(&mut noise, &mut rng);
/// // Streaming API (buffers a batch internally):
/// let mut stream = sampler.stream();
/// let one = stream.next(&mut rng);
/// assert!(batch.contains(&batch[0]) && one.unsigned_abs() <= 26);
/// ```
#[derive(Debug, Clone)]
pub struct CtSampler {
    program: Program,
    tiled: TiledKernel,
    matrix: ProbabilityMatrix,
    report: BuildReport,
    /// The SIMD lane backend the bulk APIs execute on, selected at
    /// construction time ([`Backend::detect_widest`]: the widest available
    /// on the running CPU). The randomness draw-order contract makes the
    /// sample stream identical across backends, so this only affects
    /// speed — never values.
    backend: Backend,
}

/// Caller-reusable scratch for [`CtSampler::sample_batch_with`] at the
/// compile-time lane width `W` (64 × `W` samples per batch): a
/// [`LaneScratch`] on the backend the sampler runs width `W` on.
///
/// Create with [`CtSampler::scratch`]; reuse across batches — buffers are
/// sized at creation and never reallocate for the same sampler.
#[derive(Debug, Clone)]
pub struct BatchScratch<const W: usize>(LaneScratch);

/// Caller-reusable scratch for the backend-dispatched batch API
/// ([`CtSampler::sample_batch_lanes`]), the engine behind every wide and
/// bulk API: the lane width is a runtime property of the chosen
/// [`Backend`], so one call site serves every backend.
///
/// Buffers are planar and input-major (`buf[i * width + w]` is machine
/// word `w` of plane `i`) — byte-identical to a `[[u64; W]]` layout.
/// Create with [`CtSampler::lane_scratch_for`]; reuse across batches.
#[derive(Debug, Clone)]
pub struct LaneScratch {
    backend: Backend,
    /// Flat randomness buffer: `width` consecutive `(n + 1)`-word records.
    draw: Vec<u64>,
    /// De-interleaved planar kernel inputs.
    inputs: Vec<u64>,
    /// Planar kernel outputs (sample bit planes).
    words: Vec<u64>,
}

impl LaneScratch {
    /// Lane width in `u64` words (`64 * width()` samples per batch).
    pub fn width(&self) -> usize {
        self.backend.width()
    }

    /// Sizes every buffer for `sampler` (no-op when already sized).
    fn fit(&mut self, sampler: &CtSampler) {
        let n = sampler.program.num_inputs() as usize;
        let w = self.backend.width();
        self.draw.resize((n + 1) * w, 0);
        self.inputs.resize(n * w, 0);
        self.words.resize(sampler.tiled.num_outputs() * w, 0);
    }
}

impl CtSampler {
    /// Assembles a sampler from the staged pipeline's products — freshly
    /// synthesized by [`SamplerSpec::build`](crate::SamplerSpec::build) or
    /// deserialized from a validated cache artifact. Both paths hand in
    /// the same (program, tiled) pair, which the pipeline's probe checks /
    /// the artifact loader have already proven coherent.
    pub(crate) fn from_parts(
        program: Program,
        tiled: TiledKernel,
        matrix: ProbabilityMatrix,
        report: BuildReport,
    ) -> Self {
        assert!(
            tiled.num_outputs() <= MAX_SAMPLE_BITS,
            "sample magnitude exceeds {MAX_SAMPLE_BITS} bits"
        );
        CtSampler {
            program,
            tiled,
            matrix,
            report,
            backend: Backend::detect_widest(),
        }
    }

    /// The SIMD lane backend the bulk sampling APIs execute on — the
    /// widest available on the running CPU at construction time, unless
    /// replaced through [`set_backend`](Self::set_backend).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Overrides the execution backend — the differential tests' hook for
    /// pinning every backend to the same stream. Samples are bit-identical
    /// across backends by the draw-order contract; only speed changes.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on the running machine.
    pub fn set_backend(&mut self, backend: Backend) {
        assert!(
            backend.is_available(),
            "backend {backend} is not available on this machine"
        );
        self.backend = backend;
    }

    /// The compiled straight-line program (the SSA source of the kernel
    /// and the reference oracle's input).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The superinstruction-threaded production engine: the lowered
    /// instruction stream (fused opcodes, register-allocated slots)
    /// grouped into tiles dispatched once each ([`TiledKernel::stats`]
    /// reports the dispatch reduction).
    pub fn tiled_kernel(&self) -> &TiledKernel {
        &self.tiled
    }

    /// The probability matrix the sampler was synthesized from.
    pub fn matrix(&self) -> &ProbabilityMatrix {
        &self.matrix
    }

    /// The synthesis report (delta, sublists, gate counts).
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// Number of random words drawn per 64-sample batch (`n` bit words plus
    /// the sign word) — the size of one batch record in the randomness
    /// draw-order contract (see the type docs).
    pub fn words_per_batch(&self) -> u32 {
        self.program.num_inputs() + 1
    }

    /// Random bits consumed per sample (`n + 1`): each of the 64 lanes of
    /// a batch record owns one bit of each of the `n + 1` drawn words.
    pub fn bits_per_sample(&self) -> u32 {
        self.program.num_inputs() + 1
    }

    /// Statically audits the source program's constant-time structure.
    pub fn audit(&self) -> AuditReport {
        audit(&self.program)
    }

    /// Statically audits the *tiled kernel* — the code that actually
    /// executes — covering the fused opcodes, so the constant-time
    /// argument survives the lowering and tiling optimizations. Supports
    /// are never larger than [`audit`](Self::audit)'s.
    pub fn audit_tiled(&self) -> AuditReport {
        audit_tiled(&self.tiled)
    }

    /// Creates reusable scratch for
    /// [`sample_batch_with`](Self::sample_batch_with) at lane width `W`,
    /// on the backend this sampler runs `W`-word batches on.
    ///
    /// # Panics
    ///
    /// Panics unless `W` is 1, 2, 4 or 8.
    pub fn scratch<const W: usize>(&self) -> BatchScratch<W> {
        BatchScratch(self.lane_scratch_for(self.backend_for_width(W)))
    }

    /// The backend a `width`-word batch runs on: this sampler's own
    /// [`backend`](Self::backend) when its width is `width`, else
    /// [`Backend::select_for_width`] (which panics unless `width` is 1,
    /// 2, 4 or 8).
    fn backend_for_width(&self, width: usize) -> Backend {
        if width == self.backend.width() {
            self.backend
        } else {
            Backend::select_for_width(width)
        }
    }

    /// Creates reusable scratch for
    /// [`sample_batch_lanes`](Self::sample_batch_lanes) on an explicit
    /// backend — the pool's workers and the cross-width differential
    /// tests pin their backend this way.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on the running machine.
    pub fn lane_scratch_for(&self, backend: Backend) -> LaneScratch {
        assert!(
            backend.is_available(),
            "backend {backend} is not available on this machine"
        );
        let mut s = LaneScratch {
            backend,
            draw: Vec::new(),
            inputs: Vec::new(),
            words: Vec::new(),
        };
        s.fit(self);
        s
    }

    /// Generates one batch of 64 signed samples (one batch record drawn).
    ///
    /// Allocation-free for every realistic configuration (stack fast path
    /// up to `n + 1 = 160` drawn words and 2048 kernel slots; larger
    /// programs fall back to per-call heap buffers).
    pub fn sample_batch<R: RandomSource>(&self, rng: &mut R) -> [i32; 64] {
        let n = self.program.num_inputs() as usize;
        if n < MAX_STACK_DRAW {
            let mut draw = [0u64; MAX_STACK_DRAW];
            rng.fill_u64s(&mut draw[..n + 1]);
            self.run_batch(&draw[..n], draw[n])
        } else {
            let mut draw = vec![0u64; n + 1];
            rng.fill_u64s(&mut draw);
            self.run_batch(&draw[..n], draw[n])
        }
    }

    /// Runs a batch on caller-provided randomness: `inputs[i]` packs bit
    /// `b_i` of every lane, `signs` packs the sign bits. Used by the
    /// Table 2 kernel benchmarks (PRNG cost excluded) and by tests.
    /// Executes the tiled superinstruction kernel through its masked
    /// stack fast path (allocation-free for kernels up to 2048 slots).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the program's input count.
    pub fn run_batch(&self, inputs: &[u64], signs: u64) -> [i32; 64] {
        let nw = self.tiled.num_outputs();
        let mut words = [0u64; MAX_SAMPLE_BITS];
        self.tiled.execute_fast(inputs, &mut words[..nw]);
        let mut out = [0i32; 64];
        decode_lanes(&words[..nw], signs, &mut out);
        out
    }

    /// The interpreter-executed reference oracle for
    /// [`run_batch`](Self::run_batch): same inputs, same outputs, no
    /// lowering — kept for equivalence tests of the tiled engine.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the program's input count.
    pub fn run_batch_reference(&self, inputs: &[u64], signs: u64) -> [i32; 64] {
        let words = interpret(&self.program, inputs);
        let mut out = [0i32; 64];
        decode_lanes(&words, signs, &mut out);
        out
    }

    /// Generates `64 * W` signed samples into `out` through caller-owned
    /// scratch — [`sample_batch_lanes`](Self::sample_batch_lanes) at the
    /// compile-time width `W`, on the backend [`scratch`](Self::scratch)
    /// picked. The result equals `W` consecutive
    /// [`sample_batch`](Self::sample_batch) calls on the same generator.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != 64 * W`. `W` is 1, 2, 4 or 8: a
    /// [`BatchScratch`] of any other width cannot be created.
    pub fn sample_batch_with<const W: usize, R: RandomSource>(
        &self,
        rng: &mut R,
        scratch: &mut BatchScratch<W>,
        out: &mut [i32],
    ) {
        assert_eq!(out.len(), 64 * W, "output slice must hold 64 * W samples");
        self.sample_batch_lanes(rng, &mut scratch.0, out);
    }

    /// Generates `64 * width` signed samples through the scratch's SIMD
    /// backend — the one engine behind
    /// [`sample_batch_with`](Self::sample_batch_with),
    /// [`sample_batch_wide`](Self::sample_batch_wide) and
    /// [`sample_into`](Self::sample_into).
    ///
    /// Draws `width` consecutive batch records in one
    /// [`RandomSource::fill_u64s`] call and executes the tiled kernel once
    /// over the backend's lane word, so the result equals `width`
    /// consecutive [`sample_batch`](Self::sample_batch) calls on the same
    /// generator — for *every* backend (the draw-order contract).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != 64 * scratch.width()`.
    pub fn sample_batch_lanes<R: RandomSource>(
        &self,
        rng: &mut R,
        scratch: &mut LaneScratch,
        out: &mut [i32],
    ) {
        let w = scratch.backend.width();
        assert_eq!(
            out.len(),
            64 * w,
            "output slice must hold 64 * width samples"
        );
        let n = self.program.num_inputs() as usize;
        scratch.fit(self);
        rng.fill_u64s(&mut scratch.draw);
        // De-interleave the records into planar input-major lane words.
        let mut signs = [0u64; 8];
        for (lane, sign) in signs.iter_mut().enumerate().take(w) {
            let record = &scratch.draw[lane * (n + 1)..(lane + 1) * (n + 1)];
            for (i, &word) in record[..n].iter().enumerate() {
                scratch.inputs[i * w + lane] = word;
            }
            *sign = record[n];
        }
        self.run_batch_lanes(
            scratch.backend,
            &scratch.inputs,
            &mut scratch.words,
            &signs[..w],
            out,
        );
    }

    /// Runs one `64 * width`-sample batch on caller-provided planar
    /// randomness through an explicit backend — the backend-generic
    /// sibling of [`run_batch`](Self::run_batch) (PRNG cost excluded),
    /// used by the kernel benchmarks and the timing-leak harness.
    ///
    /// `inputs[i * width + lane]` is machine word `lane` of bit plane `i`;
    /// `words` is planar kernel-output scratch of `num_outputs * width`
    /// words; `signs` holds one sign word per lane word.
    ///
    /// # Panics
    ///
    /// Panics if the backend is unavailable or any buffer length
    /// mismatches the sampler's shape at the backend's width.
    pub fn run_batch_lanes(
        &self,
        backend: Backend,
        inputs: &[u64],
        words: &mut [u64],
        signs: &[u64],
        out: &mut [i32],
    ) {
        let w = backend.width();
        let nw = self.tiled.num_outputs();
        assert_eq!(signs.len(), w, "one sign word per lane word");
        assert_eq!(words.len(), nw * w, "output scratch length mismatch");
        assert_eq!(out.len(), 64 * w, "output slice length mismatch");
        backend.run_tiled(&self.tiled, inputs, words);
        for lane in 0..w {
            let mut plane = [0u64; MAX_SAMPLE_BITS];
            for (iota, p) in plane[..nw].iter_mut().enumerate() {
                *p = words[iota * w + lane];
            }
            let mut lanes = [0i32; 64];
            decode_lanes(&plane[..nw], signs[lane], &mut lanes);
            out[64 * lane..64 * (lane + 1)].copy_from_slice(&lanes);
        }
    }

    /// Generates `64 * W` signed samples in one kernel pass.
    ///
    /// One instruction dispatch performs `W` word operations, so wider
    /// batches amortize dispatch overhead. Equals `W` consecutive
    /// [`sample_batch`](Self::sample_batch) calls on the same generator
    /// (see the draw-order contract in the type docs).
    ///
    /// Convenience wrapper that allocates its scratch and output; steady-
    /// state consumers should hold a [`BatchScratch`] and call
    /// [`sample_batch_with`](Self::sample_batch_with).
    ///
    /// # Panics
    ///
    /// Panics unless `W` is 1, 2, 4 or 8.
    pub fn sample_batch_wide<const W: usize, R: RandomSource>(&self, rng: &mut R) -> Vec<i32> {
        let mut out = vec![0i32; 64 * W];
        self.sample_batch_with(rng, &mut self.scratch::<W>(), &mut out);
        out
    }

    /// Fills `out` with signed samples — the bulk API.
    ///
    /// Runs batches at the selected [`backend`](Self::backend)'s full
    /// width while they fit, steps down through the narrower available
    /// backends for the remainder, then scalar batches, drawing
    /// `ceil(out.len() / 64)` batch records in total; a final partial
    /// batch is truncated. Scratch for the wide phases is allocated once
    /// per phase and amortized across its batches; the scalar phase is
    /// allocation-free. The output equals the prefix of repeated
    /// [`sample_batch`](Self::sample_batch) calls on the same generator —
    /// the batching schedule (and therefore the backend) never changes
    /// the stream, only the speed.
    pub fn sample_into<R: RandomSource>(&self, out: &mut [i32], rng: &mut R) {
        let mut filled = 0;
        let mut width = self.backend.width();
        while width > 1 {
            let span = 64 * width;
            if out.len() - filled >= span {
                let mut scratch = self.lane_scratch_for(self.backend_for_width(width));
                while out.len() - filled >= span {
                    self.sample_batch_lanes(rng, &mut scratch, &mut out[filled..filled + span]);
                    filled += span;
                }
            }
            width /= 2;
        }
        while out.len() - filled >= 64 {
            out[filled..filled + 64].copy_from_slice(&self.sample_batch(rng));
            filled += 64;
        }
        let rest = out.len() - filled;
        if rest > 0 {
            let batch = self.sample_batch(rng);
            out[filled..].copy_from_slice(&batch[..rest]);
        }
    }

    /// Creates a buffered single-sample stream over this sampler.
    pub fn stream(&self) -> SampleStream<'_> {
        SampleStream {
            sampler: self,
            buf: [0; 64],
            pos: 64,
        }
    }
}

/// Decodes bit-plane words into 64 signed lane samples: lane `l`'s
/// magnitude collects bit `l` of each plane, then the sign bit is applied
/// branch-free as `(m ^ -s) + s`.
fn decode_lanes(words: &[u64], signs: u64, out: &mut [i32; 64]) {
    for (lane, slot) in out.iter_mut().enumerate() {
        let mut magnitude = 0u32;
        for (iota, w) in words.iter().enumerate() {
            magnitude |= (((w >> lane) & 1) as u32) << iota;
        }
        let s = ((signs >> lane) & 1) as i32;
        *slot = (magnitude as i32 ^ s.wrapping_neg()) + s;
    }
}

/// A buffered stream of single samples drawn batch-by-batch from a
/// [`CtSampler`].
#[derive(Debug)]
pub struct SampleStream<'s> {
    sampler: &'s CtSampler,
    buf: [i32; 64],
    pos: usize,
}

impl SampleStream<'_> {
    /// Returns the next sample, refilling the 64-sample buffer when needed.
    pub fn next<R: RandomSource>(&mut self, rng: &mut R) -> i32 {
        if self.pos == 64 {
            self.buf = self.sampler.sample_batch(rng);
            self.pos = 0;
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SamplerSpec, Strategy};
    use ctgauss_bitslice::CompiledKernel;
    use ctgauss_knuthyao::{enumerate_leaves, ColumnScanSampler};
    use ctgauss_prng::{ChaChaRng, SplitMix64};

    /// Feed every leaf's exact bit string through a batch lane and verify
    /// the program outputs the leaf's sample value — functional equivalence
    /// between the constant-time program and Algorithm 1. Checks both the
    /// tiled kernel and the interpreter oracle.
    fn check_program_matches_leaves(strategy: Strategy, sigma: &str, n: u32) {
        let sampler = SamplerSpec::new(sigma, n)
            .strategy(strategy)
            .build()
            .unwrap();
        let leaves = enumerate_leaves(sampler.matrix());
        for chunk in leaves.chunks(64) {
            let mut inputs = vec![0u64; n as usize];
            for (lane, leaf) in chunk.iter().enumerate() {
                for (pos, bit) in leaf.bits.iter().enumerate() {
                    if bit {
                        inputs[pos] |= 1 << lane;
                    }
                }
            }
            let out = sampler.run_batch(&inputs, 0);
            assert_eq!(
                out,
                sampler.run_batch_reference(&inputs, 0),
                "{strategy}: tiled kernel vs interpreter"
            );
            for (lane, leaf) in chunk.iter().enumerate() {
                assert_eq!(
                    out[lane] as u32, leaf.value,
                    "{strategy}: leaf {:?} (lane {lane})",
                    leaf.bits
                );
            }
        }
    }

    #[test]
    fn split_program_equals_algorithm1_on_all_leaves() {
        check_program_matches_leaves(Strategy::SplitExact, "2", 16);
        check_program_matches_leaves(Strategy::SplitExact, "1.5", 14);
        check_program_matches_leaves(Strategy::SplitExact, "3", 12);
    }

    #[test]
    fn simple_program_equals_algorithm1_on_all_leaves() {
        check_program_matches_leaves(Strategy::Simple, "2", 12);
        check_program_matches_leaves(Strategy::Simple, "1.5", 12);
    }

    /// The tiled engine agrees with the interpreter oracle at W = 1 and,
    /// through `run_batch_lanes`, on every available backend lane for
    /// lane, and its constant-time audit holds. The sigma = 6.15543,
    /// n = 128 kernel runs the wide (`u16x4`) micro-op stream.
    #[test]
    fn engines_agree_on_random_batches() {
        for (sigma, n, strategy) in [
            ("2", 14usize, Strategy::SplitExact),
            ("2", 14, Strategy::Simple),
            ("6.15543", 128, Strategy::SplitExact),
        ] {
            let sampler = SamplerSpec::new(sigma, n as u32)
                .strategy(strategy)
                .build()
                .unwrap();
            assert!(
                sampler.audit_tiled().is_constant_time(),
                "sigma = {sigma}, {strategy}: tiled audit"
            );
            let mut rng = SplitMix64::new(2024);
            for round in 0..100 {
                let mut inputs = vec![0u64; n];
                rng.fill_u64s(&mut inputs);
                let signs = rng.next_u64();
                assert_eq!(
                    sampler.run_batch(&inputs, signs),
                    sampler.run_batch_reference(&inputs, signs),
                    "sigma = {sigma}, {strategy}, round {round}: tiled vs interpreter"
                );
            }
            let nw = sampler.tiled_kernel().num_outputs();
            for backend in Backend::available() {
                let w = backend.width();
                let mut words = vec![0u64; nw * w];
                let mut out = vec![0i32; 64 * w];
                for round in 0..8 {
                    let mut inputs = vec![0u64; n * w];
                    rng.fill_u64s(&mut inputs);
                    let mut signs = vec![0u64; w];
                    rng.fill_u64s(&mut signs);
                    sampler.run_batch_lanes(backend, &inputs, &mut words, &signs, &mut out);
                    for lane in 0..w {
                        let lane_inputs: Vec<u64> = (0..n).map(|i| inputs[i * w + lane]).collect();
                        assert_eq!(
                            out[64 * lane..64 * (lane + 1)],
                            sampler.run_batch_reference(&lane_inputs, signs[lane]),
                            "sigma = {sigma}, {strategy}, {backend}, round {round}, lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_kernel_cuts_dispatches_and_preserves_the_stream() {
        // The dense (one `u32` per micro-op) and the wide (`u16x4`)
        // encodings, each on a real sampler kernel.
        for (sigma, n, dense) in [("2", 24, true), ("6.15543", 128, false)] {
            let sampler = SamplerSpec::new(sigma, n).build().unwrap();
            let tiled = sampler.tiled_kernel();
            let stats = tiled.stats();
            assert_eq!(stats.dense, dense, "sigma = {sigma}: encoding");
            // Tiling is a pure re-encoding of the (deterministic) lowering...
            let kernel = CompiledKernel::lower(sampler.program());
            assert_eq!(tiled.micro_instrs(), kernel.instrs());
            assert_eq!(stats.micro_ops, kernel.instrs().len());
            // ...that fires the dispatch loop >= 3x less often on the
            // And/Or-dominated selector-chain kernels.
            assert!(
                stats.dispatches * 3 <= stats.micro_ops,
                "sigma = {sigma}: expected >= 3x static dispatch reduction, \
                 got {} tiles for {} micro-ops",
                stats.dispatches,
                stats.micro_ops
            );
        }
    }

    #[test]
    fn both_strategies_agree_on_random_batches() {
        let split = SamplerSpec::new("2", 14).build().unwrap();
        let simple = SamplerSpec::new("2", 14)
            .strategy(Strategy::Simple)
            .build()
            .unwrap();
        let mut rng = SplitMix64::new(99);
        for _ in 0..50 {
            let mut inputs = vec![0u64; 14];
            rng.fill_u64s(&mut inputs);
            let signs = rng.next_u64();
            // Both programs compute the same function wherever the walk
            // terminates within n bits. Non-terminating lanes are
            // don't-cares and may differ; identify them via Algorithm 1.
            let matrix = split.matrix();
            let alg1 = ColumnScanSampler::new(matrix);
            let a = split.run_batch(&inputs, signs);
            let b = simple.run_batch(&inputs, signs);
            for lane in 0..64 {
                let mut pos = 0u32;
                let mut bit = || {
                    let v = (inputs[pos as usize] >> lane) & 1 == 1;
                    pos += 1;
                    v
                };
                if alg1.walk_with(&mut bit).is_some() {
                    assert_eq!(a[lane], b[lane], "lane {lane}");
                }
            }
        }
    }

    #[test]
    fn sign_application_is_symmetric() {
        let sampler = SamplerSpec::new("2", 16).build().unwrap();
        let mut inputs = vec![0u64; 16];
        SplitMix64::new(5).fill_u64s(&mut inputs);
        let pos = sampler.run_batch(&inputs, 0);
        let neg = sampler.run_batch(&inputs, u64::MAX);
        for lane in 0..64 {
            assert_eq!(pos[lane], -neg[lane], "lane {lane}");
            assert!(pos[lane] >= 0);
        }
    }

    #[test]
    fn stream_matches_batches() {
        let sampler = SamplerSpec::new("2", 16).build().unwrap();
        let mut rng1 = ChaChaRng::from_u64_seed(7);
        let mut rng2 = ChaChaRng::from_u64_seed(7);
        let batch = sampler.sample_batch(&mut rng1);
        let mut stream = sampler.stream();
        for (i, &expected) in batch.iter().enumerate() {
            assert_eq!(stream.next(&mut rng2), expected, "sample {i}");
        }
    }

    #[test]
    fn audit_reports_constant_time() {
        let sampler = SamplerSpec::new("2", 16).build().unwrap();
        let report = sampler.audit();
        assert!(report.is_constant_time());
        // Low sample bits must depend on the random input; high bits may be
        // constant false when their values have probability < 2^-n.
        assert!(!report.output_supports[0].is_empty());
        assert!(!report.output_supports[1].is_empty());
    }

    /// The audit of the compiled code that executes — the tiled kernel —
    /// covers its fused opcodes without widening any support.
    #[test]
    fn compiled_audit_covers_fused_kernel() {
        let sampler = SamplerSpec::new("2", 16).build().unwrap();
        let program_audit = sampler.audit();
        let kernel_audit = sampler.audit_tiled();
        assert!(kernel_audit.is_constant_time());
        assert_eq!(kernel_audit.dead_ops, 0);
        assert!(!kernel_audit.output_supports[0].is_empty());
        // Lowering must never *add* an input dependence.
        for (k_sup, p_sup) in kernel_audit
            .output_supports
            .iter()
            .zip(&program_audit.output_supports)
        {
            assert!(k_sup.iter().all(|i| p_sup.contains(i)));
        }
        // And the fused kernel must not execute more gates than the source.
        assert!(kernel_audit.gates <= program_audit.gates);
    }

    #[test]
    fn empirical_distribution_matches_exact() {
        // Chi-square-style sanity: 64k samples at sigma = 2.
        let sampler = SamplerSpec::new("2", 24).build().unwrap();
        let mut rng = ChaChaRng::from_u64_seed(13);
        let mut counts = std::collections::HashMap::new();
        let batches = 1000;
        for _ in 0..batches {
            for s in sampler.sample_batch(&mut rng) {
                *counts.entry(s).or_insert(0u64) += 1;
            }
        }
        let total = (batches * 64) as f64;
        let norm = 1.0 / (2.0 * (2.0 * std::f64::consts::PI).sqrt());
        for v in -6i32..=6 {
            let expected = norm * (-(f64::from(v * v)) / 8.0).exp();
            let got = *counts.get(&v).unwrap_or(&0) as f64 / total;
            let tol = 4.0 * (expected / total).sqrt() + 0.002;
            assert!(
                (got - expected).abs() < tol,
                "value {v}: got {got:.5}, expected {expected:.5}"
            );
        }
    }

    /// The documented draw-order contract makes wide execution
    /// deterministic relative to scalar batches: at every lane width,
    /// `sample_batch_with::<W>` over reused scratch equals `W` consecutive
    /// `sample_batch` calls on an identically seeded generator, and both
    /// generators end at the same stream position.
    #[test]
    fn wide_batch_equals_scalar_batches_lane_for_lane() {
        fn check<const W: usize>(sampler: &CtSampler) {
            let mut scratch = sampler.scratch::<W>();
            let mut out = vec![0i32; 64 * W];
            for seed in [31, 1234, 999] {
                let mut rng_wide = ChaChaRng::from_u64_seed(seed);
                let mut rng_scalar = ChaChaRng::from_u64_seed(seed);
                for round in 0..3 {
                    sampler.sample_batch_with(&mut rng_wide, &mut scratch, &mut out);
                    for w in 0..W {
                        let scalar = sampler.sample_batch(&mut rng_scalar);
                        assert_eq!(
                            &out[64 * w..64 * (w + 1)],
                            &scalar[..],
                            "W {W}, seed {seed}, round {round}, record {w}"
                        );
                    }
                }
                assert_eq!(
                    rng_wide.next_u64(),
                    rng_scalar.next_u64(),
                    "W {W}, seed {seed}"
                );
            }
        }
        let sampler = SamplerSpec::new("2", 24).build().unwrap();
        check::<1>(&sampler);
        check::<2>(&sampler);
        check::<4>(&sampler);
        check::<8>(&sampler);
    }

    #[test]
    fn wide_batch_matches_distribution_and_determinism() {
        let sampler = SamplerSpec::new("2", 24).build().unwrap();
        // Lane equivalence against run_batch on the same per-position
        // words: record w of the draw is a scalar batch record.
        let mut rng = ChaChaRng::from_u64_seed(31);
        let wide = sampler.sample_batch_wide::<4, _>(&mut rng);
        let mut replay = ChaChaRng::from_u64_seed(31);
        let n = sampler.program().num_inputs() as usize;
        for w in 0..4 {
            let mut record = vec![0u64; n + 1];
            replay.fill_u64s(&mut record);
            let scalar = sampler.run_batch(&record[..n], record[n]);
            assert_eq!(&wide[64 * w..64 * (w + 1)], &scalar[..], "record {w}");
        }
        // Statistical sanity across the whole wide batch.
        let mut rng2 = ChaChaRng::from_u64_seed(32);
        let mut sum = 0f64;
        let mut sq = 0f64;
        let n_batches = 500;
        for _ in 0..n_batches {
            for s in sampler.sample_batch_wide::<4, _>(&mut rng2) {
                sum += f64::from(s);
                sq += f64::from(s) * f64::from(s);
            }
        }
        let count = f64::from(n_batches) * 256.0;
        let mean = sum / count;
        let var = sq / count - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "variance {var}");
    }

    /// `sample_into` equals the prefix of repeated `sample_batch` calls on
    /// every available backend, for lengths exercising the wide phases,
    /// the scalar phase and the truncated tail.
    #[test]
    fn sample_into_matches_repeated_batches() {
        let mut sampler = SamplerSpec::new("2", 24).build().unwrap();
        for backend in Backend::available() {
            sampler.set_backend(backend);
            for len in [
                0usize, 1, 63, 64, 65, 127, 128, 129, 191, 192, 256, 300, 448, 1000,
            ] {
                let mut rng_bulk = ChaChaRng::from_u64_seed(555);
                let mut bulk = vec![0i32; len];
                sampler.sample_into(&mut bulk, &mut rng_bulk);
                let mut rng_ref = ChaChaRng::from_u64_seed(555);
                let mut reference = Vec::with_capacity(len.div_ceil(64) * 64);
                while reference.len() < len {
                    reference.extend_from_slice(&sampler.sample_batch(&mut rng_ref));
                }
                assert_eq!(bulk, &reference[..len], "{backend}, len {len}");
            }
        }
    }

    /// A scratch reused across calls leaves no state behind: each batch
    /// equals one drawn through a freshly allocated scratch.
    #[test]
    fn scratch_reuse_is_equivalent() {
        let sampler = SamplerSpec::new("2", 24).build().unwrap();
        let mut rng_a = ChaChaRng::from_u64_seed(77);
        let mut rng_b = ChaChaRng::from_u64_seed(77);
        let mut scratch = sampler.scratch::<2>();
        let mut out = [0i32; 128];
        for round in 0..5 {
            sampler.sample_batch_with(&mut rng_a, &mut scratch, &mut out);
            let fresh = sampler.sample_batch_wide::<2, _>(&mut rng_b);
            assert_eq!(&out[..], &fresh[..], "round {round}");
        }
    }

    #[test]
    fn kernel_is_smaller_than_program() {
        // The lowering must actually compact the hot loop: fewer (or equal)
        // executed instructions than source ops, and a slot file much
        // smaller than the SSA register file.
        let sampler = SamplerSpec::new("2", 24).build().unwrap();
        let kernel = CompiledKernel::lower(sampler.program());
        let stats = kernel.stats();
        assert!(stats.instrs <= stats.source_ops);
        assert!(
            kernel.num_slots() < sampler.program().ops().len() / 2,
            "slots {} vs ops {}",
            kernel.num_slots(),
            sampler.program().ops().len()
        );
    }

    #[test]
    fn words_and_bits_accounting() {
        let sampler = SamplerSpec::new("2", 32).build().unwrap();
        assert_eq!(sampler.words_per_batch(), 33);
        assert_eq!(sampler.bits_per_sample(), 33);
    }
}
