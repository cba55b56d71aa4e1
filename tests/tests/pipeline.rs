//! Cross-crate integration: every sampler in the workspace (column-scan
//! Knuth-Yao, binary/byte-scan/linear CDT, and the constant-time bitsliced
//! program) must realize the *same* distribution, validated with the stats
//! crate.

use ctgauss_cdt::{BinarySearchCdt, ByteScanCdt, CdtTable, LinearSearchCdt};
use ctgauss_core::{SamplerSpec, Strategy};
use ctgauss_knuthyao::{ColumnScanSampler, GaussianParams, ProbabilityMatrix};
use ctgauss_prng::{BitBuffer, ChaChaRng};
use ctgauss_stats::{chi_square_test, discrete_gaussian_pmf, statistical_distance, Histogram};

const SIGMA: &str = "2";
const SIGMA_F: f64 = 2.0;
const N: u32 = 64;
const BOUND: u32 = 26;
const SAMPLES: u64 = 120_000;

fn collect<F: FnMut() -> i32>(mut f: F) -> Histogram {
    let mut h = Histogram::new(-(BOUND as i32), BOUND as i32);
    for _ in 0..SAMPLES {
        h.add(f());
    }
    h
}

fn assert_gaussian(h: &Histogram, label: &str) {
    assert_eq!(h.outliers(), 0, "{label}: samples escaped the tail cut");
    let pmf = discrete_gaussian_pmf(SIGMA_F, BOUND);
    let gof = chi_square_test(h, &pmf);
    assert!(
        !gof.rejects_at(0.001),
        "{label}: chi-square rejected (stat {:.2}, dof {}, p {:.5})",
        gof.statistic,
        gof.dof,
        gof.p_value
    );
    let sd = statistical_distance(&h.frequencies(), &pmf);
    assert!(sd < 0.02, "{label}: statistical distance {sd}");
}

#[test]
fn column_scan_matches_exact_distribution() {
    let m = ProbabilityMatrix::build(&GaussianParams::from_sigma_str(SIGMA, N).unwrap()).unwrap();
    let s = ColumnScanSampler::new(&m);
    let mut bits = BitBuffer::new(ChaChaRng::from_u64_seed(1));
    assert_gaussian(&collect(|| s.sample_signed(&mut bits)), "column-scan");
}

#[test]
fn bitsliced_ct_sampler_matches_exact_distribution() {
    let s = SamplerSpec::new(SIGMA, N).build().unwrap();
    let mut rng = ChaChaRng::from_u64_seed(2);
    let mut stream = s.stream();
    assert_gaussian(&collect(|| stream.next(&mut rng)), "bitsliced split-exact");
}

#[test]
fn bitsliced_simple_strategy_matches_exact_distribution() {
    let s = SamplerSpec::new(SIGMA, 32)
        .strategy(Strategy::Simple)
        .build()
        .unwrap();
    let mut rng = ChaChaRng::from_u64_seed(3);
    let mut stream = s.stream();
    assert_gaussian(&collect(|| stream.next(&mut rng)), "bitsliced simple [21]");
}

#[test]
fn cdt_samplers_match_exact_distribution() {
    let table = CdtTable::build(&GaussianParams::from_sigma_str(SIGMA, 128).unwrap()).unwrap();
    let mut rng = ChaChaRng::from_u64_seed(4);
    let bin = BinarySearchCdt::new(&table);
    assert_gaussian(&collect(|| bin.sample_signed(&mut rng)), "binary CDT");
    let byte = ByteScanCdt::new(&table);
    assert_gaussian(&collect(|| byte.sample_signed(&mut rng)), "byte-scan CDT");
    let lin = LinearSearchCdt::new(&table);
    assert_gaussian(&collect(|| lin.sample_signed(&mut rng)), "linear CDT");
}

#[test]
fn wide_batches_match_narrow_distribution() {
    let s = SamplerSpec::new(SIGMA, N).build().unwrap();
    let mut rng = ChaChaRng::from_u64_seed(5);
    let mut h = Histogram::new(-(BOUND as i32), BOUND as i32);
    for _ in 0..(SAMPLES / 256) {
        for v in s.sample_batch_wide::<4, _>(&mut rng) {
            h.add(v);
        }
    }
    assert_gaussian(&h, "wide batch W=4");
}

#[test]
fn sampler_works_for_sqrt5_sigma() {
    // The paper's "other instance" (sigma = sqrt 5 ~ 2.2360679...): smoke
    // test that a non-trivial decimal expansion flows through the whole
    // pipeline.
    let s = SamplerSpec::new("2.2360679774997896", 48).build().unwrap();
    let mut rng = ChaChaRng::from_u64_seed(6);
    let mut stream = s.stream();
    let bound = s.matrix().rows() - 1;
    let mut h = Histogram::new(-(bound as i32), bound as i32);
    for _ in 0..SAMPLES {
        h.add(stream.next(&mut rng));
    }
    let pmf = discrete_gaussian_pmf(5f64.sqrt(), bound);
    let gof = chi_square_test(&h, &pmf);
    assert!(!gof.rejects_at(0.001), "sqrt5: p = {:.5}", gof.p_value);
}

#[test]
fn strategies_produce_identical_functions() {
    // Both minimization strategies must compute the same sampler function
    // wherever the Knuth-Yao walk terminates (checked through Algorithm 1
    // replay at moderate precision).
    let split = SamplerSpec::new("1.5", 16).build().unwrap();
    let simple = SamplerSpec::new("1.5", 16)
        .strategy(Strategy::Simple)
        .build()
        .unwrap();
    let matrix = split.matrix();
    let alg1 = ColumnScanSampler::new(matrix);
    let mut rng = ChaChaRng::from_u64_seed(7);
    use ctgauss_prng::RandomSource;
    for _ in 0..200 {
        let mut inputs = vec![0u64; 16];
        rng.fill_u64s(&mut inputs);
        let a = split.run_batch(&inputs, 0);
        let b = simple.run_batch(&inputs, 0);
        for lane in 0..64 {
            let mut pos = 0;
            let mut bit = || {
                let v = (inputs[pos] >> lane) & 1 == 1;
                pos += 1;
                v
            };
            if alg1.walk_with(&mut bit).is_some() {
                assert_eq!(a[lane], b[lane], "lane {lane}");
            }
        }
    }
}
