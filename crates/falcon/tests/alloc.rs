//! Heap-allocation budget of signing, counted by a global allocator.
//!
//! Signing draws its FFT and ffSampling buffers from one arena per call;
//! the remaining allocations are the hash-to-point output, the signature
//! itself and a few fixed-size buffers. ffSampling on a caller-supplied
//! arena allocates nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ctgauss_falcon::base::KnuthYaoCtBase;
use ctgauss_falcon::fft::C64;
use ctgauss_falcon::sign::ff_sampling;
use ctgauss_falcon::{FalconParams, SecretKey};
use ctgauss_prng::ChaChaRng;

/// Counts allocations made on the current thread, so the test harness's
/// other threads do not leak into the figure.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn falcon512_key() -> SecretKey {
    let mut key_rng = ChaChaRng::from_u64_seed(42);
    SecretKey::generate(FalconParams::level2(), &mut key_rng).expect("keygen")
}

#[test]
fn falcon512_sign_allocation_budget() {
    let sk = falcon512_key();
    let mut base = KnuthYaoCtBase::new(7);
    let mut aux = ChaChaRng::from_u64_seed(9);
    // Warm-up: fills the lazily built tables.
    sk.sign(b"warm-up", &mut base, &mut aux).expect("signs");
    const SIGS: u64 = 16;
    let count = allocations(|| {
        for i in 0..SIGS {
            let sig = sk
                .sign(&i.to_le_bytes(), &mut base, &mut aux)
                .expect("signs");
            std::hint::black_box(sig);
        }
    });
    let per_sig = count as f64 / SIGS as f64;
    eprintln!("falcon512 sign: {per_sig} allocations per signature");
    assert!(per_sig <= 32.0, "{per_sig} allocations per signature");
}

#[test]
fn ff_sampling_on_a_caller_arena_allocates_nothing() {
    let sk = falcon512_key();
    let n = sk.params().n();
    let t: Vec<C64> = (0..n)
        .map(|k| C64::new(k as f64 * 0.37 - 40.0, 25.0 - k as f64 * 0.11))
        .collect();
    let mut z = vec![C64::default(); n];
    let mut tmp = vec![C64::default(); n];
    let mut base = KnuthYaoCtBase::new(3);
    let mut aux = ChaChaRng::from_u64_seed(4);
    ff_sampling(&t, sk.tree(), &mut z, &mut tmp, &mut base, &mut aux);
    let count = allocations(|| {
        for _ in 0..4 {
            ff_sampling(&t, sk.tree(), &mut z, &mut tmp, &mut base, &mut aux);
        }
    });
    assert_eq!(count, 0, "ffSampling allocated {count} times");
}
