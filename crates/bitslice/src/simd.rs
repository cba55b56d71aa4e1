//! Hardware SIMD lane words and the runtime backend dispatch.
//!
//! The paper's throughput claim rides on wide vector registers: one
//! bitsliced gate op over a 256-bit register evaluates 256 lanes at once.
//! The portable `[u64; W]` lane words already auto-vectorize well, but
//! leave instruction selection to the compiler's whims; this module adds
//! explicit `core::arch` wrappers (SSE2 / AVX2 / AVX-512 on x86_64, NEON
//! on aarch64) plus a [`Backend`] selector that picks the widest unit the
//! running CPU actually has — with the portable path always compiled,
//! always tested, and always available as a fallback.
//!
//! # Dispatch rules
//!
//! * [`Backend::select`] = the `CTGAUSS_FORCE_BACKEND` environment
//!   variable if set (a forced backend that is not available on the
//!   running CPU panics — forcing means forcing), else
//!   [`Backend::detect_widest`].
//! * Detection prefers intrinsic-backed words over portable ones at equal
//!   width, and wider over narrower: AVX-512 > AVX2 > NEON > portable
//!   512 > portable 256 > SSE2 > portable 128 > scalar.
//! * Every dispatch entry point re-checks availability before executing,
//!   so a hand-constructed [`Backend`] value can never reach an intrinsic
//!   the CPU lacks (it panics instead — soundness does not rest on the
//!   constructor).
//!
//! # Oracle pinning
//!
//! Each lane word views its register as [`LaneWord::WIDTH`] plain `u64`s
//! operated on elementwise, so for every backend the planar tiled run is
//! bit-identical to `WIDTH` scalar `u64` runs. The `backend_matrix`
//! differential tests enforce exactly that, cell by cell, against the
//! scalar interpreter oracle.

use crate::kernel::LaneWord;
use crate::TiledKernel;

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2 / AVX2 / AVX-512 lane words.
    //!
    //! All three wrappers hold the raw register type and implement the
    //! bitwise ops with one intrinsic each. The intrinsic calls are
    //! `unsafe` because the compiler cannot see the runtime CPU check;
    //! the dispatch layer in the parent module performs that check on
    //! every entry, and the `#[target_feature]` execution shims are the
    //! only places the AVX types are instantiated.

    use core::arch::x86_64::{
        __m128i, __m256i, __m512i, _mm256_and_si256, _mm256_or_si256, _mm256_xor_si256,
        _mm512_and_si512, _mm512_or_si512, _mm512_xor_si512, _mm_and_si128, _mm_or_si128,
        _mm_xor_si128,
    };
    use core::mem::transmute;

    use crate::kernel::LaneWord;

    /// A 128-bit SSE2 lane word (2 × 64 lanes).
    ///
    /// SSE2 is part of the x86_64 baseline, so this word is always
    /// available on this architecture.
    #[derive(Clone, Copy)]
    #[repr(transparent)]
    pub(super) struct X128(__m128i);

    /// A 256-bit AVX2 lane word (4 × 64 lanes).
    #[derive(Clone, Copy)]
    #[repr(transparent)]
    pub(super) struct X256(__m256i);

    /// A 512-bit AVX-512F lane word (8 × 64 lanes).
    #[derive(Clone, Copy)]
    #[repr(transparent)]
    pub(super) struct X512(__m512i);

    // SAFETY comments below lean on two facts: (1) any bit pattern is a
    // valid integer vector, so the const/load/store transmutes are plain
    // byte moves; (2) the arithmetic intrinsics are reached only under
    // the dispatch layer's runtime feature check (SSE2 needs no check:
    // it is statically guaranteed by the x86_64 target baseline).

    impl LaneWord for X128 {
        const WIDTH: usize = 2;
        // SAFETY: any 16 bytes are a valid __m128i.
        const ZERO: Self = X128(unsafe { transmute::<[u64; 2], __m128i>([0; 2]) });
        // SAFETY: any 16 bytes are a valid __m128i.
        const ONES: Self = X128(unsafe { transmute::<[u64; 2], __m128i>([u64::MAX; 2]) });

        #[inline(always)]
        fn not(self) -> Self {
            self.xor(Self::ONES)
        }

        #[inline(always)]
        fn and(self, other: Self) -> Self {
            // SAFETY: SSE2 is statically enabled on every x86_64 target.
            unsafe { X128(_mm_and_si128(self.0, other.0)) }
        }

        #[inline(always)]
        fn or(self, other: Self) -> Self {
            // SAFETY: SSE2 is statically enabled on every x86_64 target.
            unsafe { X128(_mm_or_si128(self.0, other.0)) }
        }

        #[inline(always)]
        fn xor(self, other: Self) -> Self {
            // SAFETY: SSE2 is statically enabled on every x86_64 target.
            unsafe { X128(_mm_xor_si128(self.0, other.0)) }
        }

        #[inline(always)]
        fn load(words: &[u64]) -> Self {
            let arr: [u64; 2] = words[..2].try_into().expect("2 words");
            // SAFETY: any 16 bytes are a valid __m128i.
            unsafe { X128(transmute::<[u64; 2], __m128i>(arr)) }
        }

        #[inline(always)]
        fn store(self, out: &mut [u64]) {
            // SAFETY: __m128i is 16 plain bytes.
            let arr = unsafe { transmute::<__m128i, [u64; 2]>(self.0) };
            out[..2].copy_from_slice(&arr);
        }
    }

    impl LaneWord for X256 {
        const WIDTH: usize = 4;
        // SAFETY: any 32 bytes are a valid __m256i.
        const ZERO: Self = X256(unsafe { transmute::<[u64; 4], __m256i>([0; 4]) });
        // SAFETY: any 32 bytes are a valid __m256i.
        const ONES: Self = X256(unsafe { transmute::<[u64; 4], __m256i>([u64::MAX; 4]) });

        #[inline(always)]
        fn not(self) -> Self {
            self.xor(Self::ONES)
        }

        #[inline(always)]
        fn and(self, other: Self) -> Self {
            // SAFETY: reached only under the dispatch layer's AVX2 check.
            unsafe { X256(_mm256_and_si256(self.0, other.0)) }
        }

        #[inline(always)]
        fn or(self, other: Self) -> Self {
            // SAFETY: reached only under the dispatch layer's AVX2 check.
            unsafe { X256(_mm256_or_si256(self.0, other.0)) }
        }

        #[inline(always)]
        fn xor(self, other: Self) -> Self {
            // SAFETY: reached only under the dispatch layer's AVX2 check.
            unsafe { X256(_mm256_xor_si256(self.0, other.0)) }
        }

        #[inline(always)]
        fn load(words: &[u64]) -> Self {
            let arr: [u64; 4] = words[..4].try_into().expect("4 words");
            // SAFETY: any 32 bytes are a valid __m256i.
            unsafe { X256(transmute::<[u64; 4], __m256i>(arr)) }
        }

        #[inline(always)]
        fn store(self, out: &mut [u64]) {
            // SAFETY: __m256i is 32 plain bytes.
            let arr = unsafe { transmute::<__m256i, [u64; 4]>(self.0) };
            out[..4].copy_from_slice(&arr);
        }
    }

    impl LaneWord for X512 {
        const WIDTH: usize = 8;
        // SAFETY: any 64 bytes are a valid __m512i.
        const ZERO: Self = X512(unsafe { transmute::<[u64; 8], __m512i>([0; 8]) });
        // SAFETY: any 64 bytes are a valid __m512i.
        const ONES: Self = X512(unsafe { transmute::<[u64; 8], __m512i>([u64::MAX; 8]) });

        #[inline(always)]
        fn not(self) -> Self {
            self.xor(Self::ONES)
        }

        #[inline(always)]
        fn and(self, other: Self) -> Self {
            // SAFETY: reached only under the dispatch layer's AVX-512F check.
            unsafe { X512(_mm512_and_si512(self.0, other.0)) }
        }

        #[inline(always)]
        fn or(self, other: Self) -> Self {
            // SAFETY: reached only under the dispatch layer's AVX-512F check.
            unsafe { X512(_mm512_or_si512(self.0, other.0)) }
        }

        #[inline(always)]
        fn xor(self, other: Self) -> Self {
            // SAFETY: reached only under the dispatch layer's AVX-512F check.
            unsafe { X512(_mm512_xor_si512(self.0, other.0)) }
        }

        #[inline(always)]
        fn load(words: &[u64]) -> Self {
            let arr: [u64; 8] = words[..8].try_into().expect("8 words");
            // SAFETY: any 64 bytes are a valid __m512i.
            unsafe { X512(transmute::<[u64; 8], __m512i>(arr)) }
        }

        #[inline(always)]
        fn store(self, out: &mut [u64]) {
            // SAFETY: __m512i is 64 plain bytes.
            let arr = unsafe { transmute::<__m512i, [u64; 8]>(self.0) };
            out[..8].copy_from_slice(&arr);
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    //! NEON lane word. NEON is part of the aarch64 baseline, so the
    //! intrinsics are statically available on this architecture.

    use core::arch::aarch64::{uint64x2_t, vandq_u64, veorq_u64, vorrq_u64};
    use core::mem::transmute;

    use crate::kernel::LaneWord;

    /// A 128-bit NEON lane word (2 × 64 lanes).
    #[derive(Clone, Copy)]
    #[repr(transparent)]
    pub(super) struct N128(uint64x2_t);

    impl LaneWord for N128 {
        const WIDTH: usize = 2;
        // SAFETY: any 16 bytes are a valid uint64x2_t.
        const ZERO: Self = N128(unsafe { transmute::<[u64; 2], uint64x2_t>([0; 2]) });
        // SAFETY: any 16 bytes are a valid uint64x2_t.
        const ONES: Self = N128(unsafe { transmute::<[u64; 2], uint64x2_t>([u64::MAX; 2]) });

        #[inline(always)]
        fn not(self) -> Self {
            self.xor(Self::ONES)
        }

        #[inline(always)]
        fn and(self, other: Self) -> Self {
            // SAFETY: NEON is statically enabled on every aarch64 target.
            unsafe { N128(vandq_u64(self.0, other.0)) }
        }

        #[inline(always)]
        fn or(self, other: Self) -> Self {
            // SAFETY: NEON is statically enabled on every aarch64 target.
            unsafe { N128(vorrq_u64(self.0, other.0)) }
        }

        #[inline(always)]
        fn xor(self, other: Self) -> Self {
            // SAFETY: NEON is statically enabled on every aarch64 target.
            unsafe { N128(veorq_u64(self.0, other.0)) }
        }

        #[inline(always)]
        fn load(words: &[u64]) -> Self {
            let arr: [u64; 2] = words[..2].try_into().expect("2 words");
            // SAFETY: any 16 bytes are a valid uint64x2_t.
            unsafe { N128(transmute::<[u64; 2], uint64x2_t>(arr)) }
        }

        #[inline(always)]
        fn store(self, out: &mut [u64]) {
            // SAFETY: uint64x2_t is 16 plain bytes.
            let arr = unsafe { transmute::<uint64x2_t, [u64; 2]>(self.0) };
            out[..2].copy_from_slice(&arr);
        }
    }
}

/// Environment variable that overrides backend auto-detection; accepts the
/// [`Backend::name`] strings plus the alias `portable` (= `portable256`).
pub const FORCE_BACKEND_ENV: &str = "CTGAUSS_FORCE_BACKEND";

/// A lane-word execution backend: which register type carries the 64-lane
/// bit planes, and how many planes ride in one register.
///
/// `Scalar` and the three `Portable*` widths are always available on every
/// architecture; the intrinsic variants are available only when the target
/// architecture compiles them in *and* the running CPU reports the
/// feature. Use [`Backend::select`] for the production choice and
/// [`Backend::available`] to enumerate what a test host can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Backend {
    /// One `u64` per lane word — the paper's base configuration and the
    /// differential oracle everything else is pinned to.
    Scalar,
    /// Portable `[u64; 2]`, compiler-auto-vectorized.
    Portable128,
    /// Portable `[u64; 4]`, compiler-auto-vectorized.
    Portable256,
    /// Portable `[u64; 8]`, compiler-auto-vectorized.
    Portable512,
    /// SSE2 `__m128i` (x86_64 baseline).
    Sse2,
    /// AVX2 `__m256i` (runtime-detected).
    Avx2,
    /// AVX-512F `__m512i` (runtime-detected).
    Avx512,
    /// NEON `uint64x2_t` (aarch64 baseline).
    Neon,
}

/// Detection preference: intrinsic-backed words first, wider before
/// narrower, portable fallbacks after, scalar last.
const PREFERENCE: [Backend; 8] = [
    Backend::Avx512,
    Backend::Avx2,
    Backend::Neon,
    Backend::Portable512,
    Backend::Portable256,
    Backend::Sse2,
    Backend::Portable128,
    Backend::Scalar,
];

impl Backend {
    /// Every backend this build knows about, in detection-preference order.
    pub const ALL: [Backend; 8] = PREFERENCE;

    /// Number of `u64` words per lane word (`64 * width()` lanes per run).
    pub fn width(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Portable128 | Backend::Sse2 | Backend::Neon => 2,
            Backend::Portable256 | Backend::Avx2 => 4,
            Backend::Portable512 | Backend::Avx512 => 8,
        }
    }

    /// The canonical lower-case name, accepted by [`from_name`](Self::from_name)
    /// and the `CTGAUSS_FORCE_BACKEND` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Portable128 => "portable128",
            Backend::Portable256 => "portable256",
            Backend::Portable512 => "portable512",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }

    /// Parses a backend name (case-insensitive). `portable` is an alias
    /// for `portable256`, the widest portable word the auto-vectorizer
    /// handles well everywhere.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "portable128" => Some(Backend::Portable128),
            "portable" | "portable256" => Some(Backend::Portable256),
            "portable512" => Some(Backend::Portable512),
            "sse2" => Some(Backend::Sse2),
            "avx2" => Some(Backend::Avx2),
            "avx512" => Some(Backend::Avx512),
            "neon" => Some(Backend::Neon),
            _ => None,
        }
    }

    /// Whether this backend can execute on the running machine. The
    /// scalar and portable words always can; intrinsic words require both
    /// the right target architecture and the CPU feature at runtime.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar
            | Backend::Portable128
            | Backend::Portable256
            | Backend::Portable512 => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// All backends available on the running machine, in
    /// detection-preference order (the scalar oracle is always last).
    pub fn available() -> Vec<Backend> {
        PREFERENCE
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

    /// The widest available backend on the running machine, intrinsic
    /// words preferred over portable ones.
    pub fn detect_widest() -> Backend {
        *PREFERENCE
            .iter()
            .find(|b| b.is_available())
            .expect("scalar backend is always available")
    }

    /// The backend forced by `CTGAUSS_FORCE_BACKEND`, if the variable is
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if the variable names an unknown backend or one the running
    /// machine cannot execute — a forced backend silently degrading to a
    /// different one would defeat the tests that rely on forcing.
    pub fn from_env() -> Option<Backend> {
        let value = std::env::var(FORCE_BACKEND_ENV).ok()?;
        let backend = Backend::from_name(&value).unwrap_or_else(|| {
            panic!(
                "{FORCE_BACKEND_ENV}={value}: unknown backend (expected one of \
                 scalar, portable128, portable/portable256, portable512, sse2, avx2, \
                 avx512, neon)"
            )
        });
        assert!(
            backend.is_available(),
            "{FORCE_BACKEND_ENV}={value}: backend {} is not available on this machine",
            backend.name()
        );
        Some(backend)
    }

    /// The production selection rule: the forced backend if
    /// `CTGAUSS_FORCE_BACKEND` is set, else the widest available.
    pub fn select() -> Backend {
        Backend::from_env().unwrap_or_else(Backend::detect_widest)
    }

    /// Selects a backend of exactly `width` `u64` words per lane word —
    /// the pool's `LaneWidth` mapped onto lane backends. A forced backend
    /// of the same width wins; otherwise the preferred available backend
    /// of that width; otherwise the portable word of that width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn select_for_width(width: usize) -> Backend {
        assert!(
            matches!(width, 1 | 2 | 4 | 8),
            "unsupported lane width {width}"
        );
        if let Some(forced) = Backend::from_env() {
            if forced.width() == width {
                return forced;
            }
        }
        PREFERENCE
            .iter()
            .copied()
            .find(|b| b.width() == width && b.is_available())
            .expect("a portable backend exists at every supported width")
    }

    /// Runs the production [`TiledKernel`] over this backend's lane word.
    ///
    /// Buffers are planar and input-major: `inputs[i * width() + w]` is
    /// machine word `w` of bit plane `i` (so lanes `64 * w .. 64 * w + 63`),
    /// which is byte-identical to the `[[u64; W]]` layout of the portable
    /// wide paths. `inputs.len()` must be `num_inputs * width()` and
    /// `outputs.len()` must be `num_outputs * width()`.
    ///
    /// # Panics
    ///
    /// Panics if the backend is unavailable on this machine or the buffer
    /// lengths mismatch.
    pub fn run_tiled(self, kernel: &TiledKernel, inputs: &[u64], outputs: &mut [u64]) {
        self.check_available();
        match self {
            Backend::Scalar => run_lanes::<u64>(inputs, outputs, |i, o| kernel.execute_fast(i, o)),
            Backend::Portable128 => {
                run_lanes::<[u64; 2]>(inputs, outputs, |i, o| kernel.execute_fast(i, o))
            }
            Backend::Portable256 => {
                run_lanes::<[u64; 4]>(inputs, outputs, |i, o| kernel.execute_fast(i, o))
            }
            Backend::Portable512 => {
                run_lanes::<[u64; 8]>(inputs, outputs, |i, o| kernel.execute_fast(i, o))
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => {
                run_lanes::<x86::X128>(inputs, outputs, |i, o| kernel.execute_fast(i, o))
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: check_available verified AVX2 above.
            Backend::Avx2 => unsafe { tiled_avx2(kernel, inputs, outputs) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: check_available verified AVX-512F above.
            Backend::Avx512 => unsafe { tiled_avx512(kernel, inputs, outputs) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => {
                run_lanes::<arm::N128>(inputs, outputs, |i, o| kernel.execute_fast(i, o))
            }
            #[allow(unreachable_patterns)]
            _ => unreachable!("check_available rejects foreign-ISA backends"),
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

/// Largest input plane count served from stack scratch (the widest sampler
/// this workspace builds has `n + 1 = 129` input planes).
const MAX_STACK_INPUTS: usize = 192;
/// Largest output plane count served from stack scratch (sample bits are
/// capped at 31, plus the sign plane).
const MAX_STACK_OUTPUTS: usize = 64;

/// Gathers planar `u64` buffers into lane words, runs `exec`, and scatters
/// the result back — the one conversion point every dispatch arm shares.
///
/// `inputs` is input-major planar (`L::WIDTH` consecutive words per bit
/// plane); `outputs` likewise. Plane counts are derived from the buffer
/// lengths, and the kernel asserts them against its declared shapes.
/// `exec` stays a closure rather than a direct kernel call: in unoptimized
/// builds the closure keeps each lane type's slot scratch in its own
/// frame, where inlining every arm into one dispatch frame overflows a
/// test thread's stack.
#[inline(always)]
fn run_lanes<L: LaneWord>(inputs: &[u64], outputs: &mut [u64], exec: impl FnOnce(&[L], &mut [L])) {
    let w = L::WIDTH;
    assert_eq!(inputs.len() % w, 0, "input length not a multiple of width");
    assert_eq!(
        outputs.len() % w,
        0,
        "output length not a multiple of width"
    );
    let ni = inputs.len() / w;
    let no = outputs.len() / w;

    #[inline(always)]
    fn gather<L: LaneWord>(planar: &[u64], lanes: &mut [L]) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = L::load(&planar[i * L::WIDTH..]);
        }
    }
    #[inline(always)]
    fn scatter<L: LaneWord>(lanes: &[L], planar: &mut [u64]) {
        for (o, lane) in lanes.iter().enumerate() {
            lane.store(&mut planar[o * L::WIDTH..]);
        }
    }

    if ni <= MAX_STACK_INPUTS && no <= MAX_STACK_OUTPUTS {
        let mut in_buf = [L::ZERO; MAX_STACK_INPUTS];
        let mut out_buf = [L::ZERO; MAX_STACK_OUTPUTS];
        gather(inputs, &mut in_buf[..ni]);
        exec(&in_buf[..ni], &mut out_buf[..no]);
        scatter(&out_buf[..no], outputs);
    } else {
        let mut in_buf = vec![L::ZERO; ni];
        let mut out_buf = vec![L::ZERO; no];
        gather(inputs, &mut in_buf);
        exec(&in_buf, &mut out_buf);
        scatter(&out_buf, outputs);
    }
}

// The AVX execution shims: `#[target_feature]` makes the whole inlined
// executor chain (gather → masked tile loop → scatter) compile with the
// wide instruction set enabled, so the per-gate intrinsics fold into
// straight vector code instead of function calls. Calling a shim is unsafe
// exactly because of that codegen contract; every call site sits behind
// `Backend::check_available`.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tiled_avx2(kernel: &TiledKernel, inputs: &[u64], outputs: &mut [u64]) {
    run_lanes::<x86::X256>(inputs, outputs, |i, o| kernel.execute_fast(i, o));
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tiled_avx512(kernel: &TiledKernel, inputs: &[u64], outputs: &mut [u64]) {
    run_lanes::<x86::X512>(inputs, outputs, |i, o| kernel.execute_fast(i, o));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, interpret, CompiledKernel, Program};
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
        #[cfg(target_arch = "x86_64")]
        check::<x86::X128>("sse2");
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
    fn names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("portable"), Some(Backend::Portable256));
        assert_eq!(
            Backend::from_name("PORTABLE256"),
            Some(Backend::Portable256)
        );
        assert_eq!(Backend::from_name("mmx"), None);
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
