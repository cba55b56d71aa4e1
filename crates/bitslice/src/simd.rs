//! Lane backends and the runtime backend dispatch.
//!
//! The paper's sampler is bitsliced: every gate is one AND, OR or XOR on
//! a machine word, so a wider lane word only repeats that word operation,
//! and the instruction set matters only through the register width the
//! compiler targets. Every lane word here is therefore a portable `u64`
//! or `[u64; W]` ([`LaneWord`](crate::LaneWord)); the ISA is chosen only
//! by which `#[target_feature]` shim the word is compiled under. The
//! [`Backend`] selector picks the widest unit the running CPU has, with
//! the portable words always compiled, always tested, and always
//! available as the W = 2/4/8 path on CPUs without AVX2 or AVX-512.
//!
//! # Dispatch rules
//!
//! * Detection ([`Backend::detect_widest`]) prefers wider over narrower
//!   and, at equal width, the AVX shims over the baseline-ISA portable
//!   words: AVX-512 > AVX2 > portable 512 > portable 256 > portable 128 >
//!   scalar.
//! * The AVX shims re-check CPU support before executing, so a
//!   hand-constructed [`Backend`] value can never run code compiled for an
//!   instruction set the CPU lacks (it panics instead — soundness does not
//!   rest on the constructor).
//!
//! # Oracle pinning
//!
//! Each lane word is [`LaneWord::WIDTH`](crate::LaneWord::WIDTH) plain
//! `u64`s operated on elementwise, so for every backend the planar tiled
//! run is bit-identical to `WIDTH` scalar `u64` runs. The `backend_matrix`
//! differential tests enforce exactly that, cell by cell, against the
//! scalar interpreter oracle.

use crate::TiledKernel;

/// A lane-word execution backend: how many `u64` bit planes ride in one
/// lane word, and which instruction set that word is compiled for.
///
/// `Scalar` and the three `Portable*` widths are always available on every
/// architecture; the AVX variants are available only on x86-64 CPUs that
/// report the feature. Use [`Backend::detect_widest`] for the production
/// choice and [`Backend::available`] to enumerate what a test host can
/// cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Backend {
    /// One `u64` per lane word — the paper's base configuration and the
    /// differential oracle everything else is pinned to.
    Scalar,
    /// Portable `[u64; 2]`, compiled for the baseline ISA.
    Portable128,
    /// Portable `[u64; 4]`, compiled for the baseline ISA.
    Portable256,
    /// Portable `[u64; 8]`, compiled for the baseline ISA.
    Portable512,
    /// Portable `[u64; 4]` compiled under AVX2 (runtime-detected).
    Avx2,
    /// Portable `[u64; 8]` compiled under AVX-512F (runtime-detected).
    Avx512,
}

impl Backend {
    /// Every backend this build knows about, in detection-preference order:
    /// wider before narrower, AVX shims before the portable words of their
    /// width, scalar last.
    pub const ALL: [Backend; 6] = [
        Backend::Avx512,
        Backend::Avx2,
        Backend::Portable512,
        Backend::Portable256,
        Backend::Portable128,
        Backend::Scalar,
    ];

    /// Number of `u64` words per lane word (`64 * width()` lanes per run).
    pub fn width(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Portable128 => 2,
            Backend::Portable256 | Backend::Avx2 => 4,
            Backend::Portable512 | Backend::Avx512 => 8,
        }
    }

    /// The canonical lower-case name, as reported in benchmark metric
    /// names and telemetry fingerprints.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Portable128 => "portable128",
            Backend::Portable256 => "portable256",
            Backend::Portable512 => "portable512",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Whether this backend can execute on the running machine. The
    /// scalar and portable words always can; the AVX shims require an
    /// x86-64 target and the CPU feature at runtime.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar
            | Backend::Portable128
            | Backend::Portable256
            | Backend::Portable512 => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// All backends available on the running machine, in
    /// detection-preference order (the scalar oracle is always last).
    pub fn available() -> Vec<Backend> {
        Self::ALL
            .iter()
            .copied()
            .filter(|b| b.is_available())
            .collect()
    }

    /// The names of every backend available on the running machine, in
    /// detection-preference order — the `backends` field of a telemetry
    /// machine fingerprint.
    pub fn available_names() -> Vec<&'static str> {
        Self::available().into_iter().map(Backend::name).collect()
    }

    /// The production selection rule: the widest available backend on the
    /// running machine, AVX shims preferred over portable words.
    pub fn detect_widest() -> Backend {
        *Self::ALL
            .iter()
            .find(|b| b.is_available())
            .expect("scalar backend is always available")
    }

    /// Selects a backend of exactly `width` `u64` words per lane word —
    /// the pool's `LaneWidth` mapped onto lane backends: the preferred
    /// available backend of that width, which is at worst the portable
    /// word of that width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn select_for_width(width: usize) -> Backend {
        assert!(
            matches!(width, 1 | 2 | 4 | 8),
            "unsupported lane width {width}"
        );
        Self::ALL
            .iter()
            .copied()
            .find(|b| b.width() == width && b.is_available())
            .expect("a portable backend exists at every supported width")
    }

    /// Runs the production [`TiledKernel`] over this backend's lane word.
    ///
    /// Buffers are planar and input-major: `inputs[i * width() + w]` is
    /// machine word `w` of bit plane `i` (so lanes `64 * w .. 64 * w + 63`),
    /// which is byte-identical to the `[[u64; W]]` layout the kernel runs
    /// on, so the buffers are handed to it in place. `inputs.len()` must be
    /// `num_inputs * width()` and `outputs.len()` must be
    /// `num_outputs * width()`.
    ///
    /// # Panics
    ///
    /// Panics if the backend is unavailable on this machine or the buffer
    /// lengths mismatch.
    pub fn run_tiled(self, kernel: &TiledKernel, inputs: &[u64], outputs: &mut [u64]) {
        match self {
            Backend::Scalar => kernel.execute_fast(inputs, outputs),
            Backend::Portable128 => {
                run_lanes::<2>(inputs, outputs, |i, o| kernel.execute_fast(i, o))
            }
            Backend::Portable256 => {
                run_lanes::<4>(inputs, outputs, |i, o| kernel.execute_fast(i, o))
            }
            Backend::Portable512 => {
                run_lanes::<8>(inputs, outputs, |i, o| kernel.execute_fast(i, o))
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx::run_avx2(kernel, inputs, outputs),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => avx::run_avx512(kernel, inputs, outputs),
            #[allow(unreachable_patterns)]
            _ => {
                self.check_available();
                unreachable!("foreign-ISA backends are never available")
            }
        }
    }

    fn check_available(self) {
        assert!(
            self.is_available(),
            "backend {} is not available on this machine",
            self.name()
        );
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Views planar `u64` buffers as `[u64; W]` lane words in place and runs
/// `exec` on them — the one conversion point every wide dispatch arm
/// shares.
///
/// Plane counts are derived from the buffer lengths, and the kernel
/// asserts them against its declared shapes. `exec` stays a closure
/// rather than a direct kernel call: in unoptimized builds the closure
/// keeps each width's slot scratch in its own frame, where inlining every
/// arm into one dispatch frame overflows a test thread's stack.
#[inline(always)]
fn run_lanes<const W: usize>(
    inputs: &[u64],
    outputs: &mut [u64],
    exec: impl FnOnce(&[[u64; W]], &mut [[u64; W]]),
) {
    let (inputs, []) = inputs.as_chunks::<W>() else {
        panic!("input length not a multiple of width")
    };
    let (outputs, []) = outputs.as_chunks_mut::<W>() else {
        panic!("output length not a multiple of width")
    };
    exec(inputs, outputs);
}

/// The AVX execution shims: `#[target_feature]` makes the whole inlined
/// executor chain (lane view → masked tile loop) compile with the wide
/// instruction set enabled, so the portable `[u64; 4]` and `[u64; 8]`
/// gate ops lower to ymm and zmm instructions. Calling a shim is unsafe
/// exactly because of that codegen contract; isolated in its own module
/// so the `unsafe` surface of this crate stays at the two shim calls,
/// each behind a runtime CPU check.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx {
    use super::{run_lanes, Backend};
    use crate::TiledKernel;

    /// Runs `kernel` over `[u64; 4]` words compiled for AVX2.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX2.
    pub(super) fn run_avx2(kernel: &TiledKernel, inputs: &[u64], outputs: &mut [u64]) {
        Backend::Avx2.check_available();
        // SAFETY: AVX2 availability was just verified at runtime (std
        // caches the detection result after the first query).
        unsafe { tiled_avx2(kernel, inputs, outputs) }
    }

    /// Runs `kernel` over `[u64; 8]` words compiled for AVX-512F.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX-512F.
    pub(super) fn run_avx512(kernel: &TiledKernel, inputs: &[u64], outputs: &mut [u64]) {
        Backend::Avx512.check_available();
        // SAFETY: AVX-512F availability was just verified at runtime (std
        // caches the detection result after the first query).
        unsafe { tiled_avx512(kernel, inputs, outputs) }
    }

    /// The AVX2 shim.
    ///
    /// # Safety
    ///
    /// The caller must verify AVX2 availability at runtime.
    #[target_feature(enable = "avx2")]
    fn tiled_avx2(kernel: &TiledKernel, inputs: &[u64], outputs: &mut [u64]) {
        run_lanes::<4>(inputs, outputs, |i, o| kernel.execute_fast(i, o));
    }

    /// The AVX-512F shim.
    ///
    /// # Safety
    ///
    /// The caller must verify AVX-512F availability at runtime.
    #[target_feature(enable = "avx512f")]
    fn tiled_avx512(kernel: &TiledKernel, inputs: &[u64], outputs: &mut [u64]) {
        run_lanes::<8>(inputs, outputs, |i, o| kernel.execute_fast(i, o));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, interpret, CompiledKernel, LaneWord, Program};
    use ctgauss_boolmin::Expr;

    fn test_program() -> Program {
        // A mix of every gate over 5 inputs, 3 outputs.
        let x = Expr::var;
        let e0 = Expr::and(x(0), Expr::or(x(1), Expr::not(x(2))));
        let e1 = Expr::xor(Expr::and(x(3), x(4)), Expr::or(x(0), x(2)));
        let e2 = Expr::not(Expr::xor(x(1), Expr::and(x(3), Expr::not(x(0)))));
        compile(&[e0, e1, e2], 5)
    }

    fn planar_inputs(ni: usize, width: usize) -> Vec<u64> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..ni * width).map(|_| next()).collect()
    }

    #[test]
    fn every_available_backend_matches_the_scalar_oracle() {
        let program = test_program();
        let tiled = TiledKernel::lower(&CompiledKernel::lower(&program));
        let ni = program.num_inputs() as usize;
        let no = program.outputs().len();
        for backend in Backend::available() {
            let w = backend.width();
            let inputs = planar_inputs(ni, w);
            // Scalar oracle, plane by plane and word by word.
            let mut expected = vec![0u64; no * w];
            for lane in 0..w {
                let scalar: Vec<u64> = (0..ni).map(|i| inputs[i * w + lane]).collect();
                let out = interpret(&program, &scalar);
                for (o, &word) in out.iter().enumerate() {
                    expected[o * w + lane] = word;
                }
            }
            let mut got = vec![0u64; no * w];
            backend.run_tiled(&tiled, &inputs, &mut got);
            assert_eq!(got, expected, "{backend} tiled");
        }
    }

    #[test]
    fn lane_word_load_store_round_trips() {
        fn check<L: LaneWord>(name: &str) {
            let words: Vec<u64> = (0..L::WIDTH as u64)
                .map(|i| i.wrapping_mul(0xdead_beef))
                .collect();
            let mut out = vec![0u64; L::WIDTH];
            L::load(&words).store(&mut out);
            assert_eq!(out, words, "{name}");
        }
        check::<u64>("u64");
        check::<[u64; 2]>("[u64;2]");
        check::<[u64; 4]>("[u64;4]");
        check::<[u64; 8]>("[u64;8]");
    }

    #[test]
    fn detection_always_returns_an_available_backend() {
        let widest = Backend::detect_widest();
        assert!(widest.is_available());
        assert!(Backend::available().contains(&Backend::Scalar));
        for b in Backend::available() {
            assert!(b.is_available());
        }
    }

    #[test]
    fn select_for_width_returns_matching_width() {
        for width in [1usize, 2, 4, 8] {
            let b = Backend::select_for_width(width);
            assert_eq!(b.width(), width);
            assert!(b.is_available());
        }
    }
}
