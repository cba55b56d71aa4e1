//! Shared harness utilities for the paper-reproduction binaries; the
//! timing ones write the `BENCH_*.json` artifacts that `bench_regression`
//! gates.
//!
//! Every table and figure of the DAC 2019 paper has a binary in
//! `src/bin/` that regenerates it; see `DESIGN.md` (experiment index) and
//! `EXPERIMENTS.md` (paper-vs-measured record) at the workspace root.

#![warn(missing_docs)]

pub mod report;

use std::time::Instant;

/// Reads the time-stamp counter (x86-64), for Table 2's cycle counts.
/// Returns `None` on other architectures.
pub fn read_tsc() -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: _rdtsc has no memory or validity preconditions; it only
        // reads the processor time-stamp counter.
        Some(unsafe { core::arch::x86_64::_rdtsc() })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Median-of-runs cycle measurement of `f` (falls back to nanoseconds
/// when no TSC is available; the unit is reported by [`cycle_unit`]).
pub fn measure_cycles<F: FnMut()>(runs: usize, mut f: F) -> u64 {
    assert!(runs > 0, "need at least one run");
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        if read_tsc().is_some() {
            let start = read_tsc().expect("checked");
            f();
            let end = read_tsc().expect("checked");
            samples.push(end.saturating_sub(start));
        } else {
            let start = Instant::now();
            f();
            samples.push(start.elapsed().as_nanos() as u64);
        }
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Best-of-runs (minimum) cycle measurement of `f` — the noise-robust
/// estimator the regression-gate artifacts use (see
/// `report::measure_ns_floor` for why the median shifts under sustained
/// interference while the minimum does not). Falls back to nanoseconds
/// when no TSC is available; the unit is reported by [`cycle_unit`].
pub fn measure_cycles_floor<F: FnMut()>(runs: usize, mut f: F) -> u64 {
    assert!(runs > 0, "need at least one run");
    let mut best = u64::MAX;
    for _ in 0..runs {
        let sample = if read_tsc().is_some() {
            let start = read_tsc().expect("checked");
            f();
            let end = read_tsc().expect("checked");
            end.saturating_sub(start)
        } else {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        };
        best = best.min(sample);
    }
    best
}

/// The unit reported by [`measure_cycles`] on this build.
pub fn cycle_unit() -> &'static str {
    if cfg!(target_arch = "x86_64") {
        "cycles"
    } else {
        "ns"
    }
}

/// Runs `f` repeatedly for at least `budget_ms` wall milliseconds and
/// returns the achieved operations per second.
pub fn ops_per_second<F: FnMut()>(budget_ms: u64, mut f: F) -> f64 {
    // Warm up.
    f();
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < budget {
        f();
        ops += 1;
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Formats a ratio as the paper does ("x% slower/faster").
pub fn percent_diff(reference: f64, value: f64) -> String {
    let pct = (value - reference) / reference * 100.0;
    format!("{pct:+.1}%")
}

/// Simple fixed-width table printer for the report binaries.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_cycles_returns_positive() {
        let c = measure_cycles(5, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert!(c > 0);
    }

    #[test]
    fn ops_per_second_counts() {
        let rate = ops_per_second(20, || {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        assert!(rate > 100.0);
    }

    #[test]
    fn percent_diff_formats() {
        assert_eq!(percent_diff(100.0, 150.0), "+50.0%");
        assert_eq!(percent_diff(100.0, 50.0), "-50.0%");
    }
}
