//! Process resource usage: CPU time via `getrusage(2)`, peak RSS from
//! the kernel's `VmHWM` for this process image.

use std::time::Duration;

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen
/// `long`s, every field 64 bits wide.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process image in MiB.
///
/// `ru_maxrss` would not do: it survives `execve`, so under `cargo run`
/// it reports cargo's own peak whenever that is the larger. `VmHWM`
/// starts afresh with the new image.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of this process so far.
///
/// # Panics
///
/// Panics if the call fails, which it cannot for `RUSAGE_SELF` and a
/// valid buffer.
pub fn cpu_time() -> Duration {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a writable, properly aligned buffer with the
    // layout of `struct rusage` on 64-bit Linux (checked at compile time
    // below), and RUSAGE_SELF needs no other argument.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: [i64; 2]| Duration::new(t[0] as u64, (t[1] as u32).saturating_mul(1000));
    tv(ru.utime) + tv(ru.stime)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has run so far. With a hypervisor that
/// reports steal time and a kernel built with
/// `CONFIG_PARAVIRT_TIME_ACCOUNTING`, time the virtual CPU was taken
/// away is not in it, nor is time the thread waited to be scheduled.
///
/// # Panics
///
/// Panics if the call fails, which it cannot for this clock and a valid
/// buffer.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a writable, properly aligned buffer with the layout
    // of `struct timespec` on 64-bit Linux, and the clock id is valid.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout above is that of 64-bit Linux");

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work() {
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_time() >= before);
        let t0 = thread_cpu_time();
        let mut y = 0u64;
        for i in 0..20_000_000u64 {
            y = std::hint::black_box(y.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_time() > t0);
        let big = vec![1u8; 64 << 20];
        assert!(
            peak_rss_mb() >= 64.0,
            "{}",
            std::hint::black_box(&big).len()
        );
    }
}
