//! Telemetry never touches the streams: a run with recording globally
//! switched off returns the same samples, request for request, as a run
//! with it on, and both equal the offline replay. One test in its own
//! binary, because [`ctgauss_telemetry::set_enabled`] is process-global.

mod common;

use ctgauss_pool::{replay, LaneWidth, Pool};
use ctgauss_prng::SeedTree;

#[test]
fn telemetry_off_runs_are_bit_identical_to_telemetry_on_runs() {
    let seed = 7;
    let profiles = common::long_tail_profiles();
    let trace = common::long_tail_trace(1, 2000);
    for threads in [1, 4] {
        let (on, _) = common::run_long_tail(&profiles, threads, seed, Pool::builder(), &trace);
        ctgauss_telemetry::set_enabled(false);
        let (off, _) = common::run_long_tail(&profiles, threads, seed, Pool::builder(), &trace);
        ctgauss_telemetry::set_enabled(true);
        assert!(
            on.iter().all(Option::is_some),
            "a fault-free run lost a seq"
        );
        for (seq, (a, b)) in on.iter().zip(&off).enumerate() {
            assert_eq!(a, b, "threads {threads}: telemetry changed seq {seq}");
        }
        let offline = replay(
            &SeedTree::from_u64_seed(seed),
            &profiles,
            threads,
            LaneWidth::W4,
            &trace,
            &[],
            &[],
        );
        for (seq, (got, want)) in on.iter().zip(&offline).enumerate() {
            assert_eq!(got, want, "threads {threads}: seq {seq} does not replay");
        }
    }
}
