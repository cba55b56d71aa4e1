//! Using the constant-time sampler as an LWE noise source — the original
//! motivation for discrete Gaussian sampling in lattice cryptography
//! (Section 1 of the paper) — driven the way a real encryption service
//! would drive it: many independent callers each asking the shared
//! pool for a *handful* of noise samples at a time.
//!
//! Each of 256 toy encryptions submits its own tiny request (one error
//! term per LWE row). The per-(shard, profile) carry already runs only
//! full kernel batches; the pool's staging coalescer additionally gangs
//! the tiny requests, so one engine pass serves many of them, and the
//! example prints gangs per request to show it. The noise
//! profile is hot-loaded into the running pool through the profile
//! registry — with `CTGAUSS_CACHE_DIR` pointing at a warmed kernel
//! cache, that load skips synthesis entirely. The error distribution is
//! then validated with a chi-square test, and the profile is retired to
//! show the registry's end-of-life path.
//!
//! ```sh
//! cargo run --release --bin lwe_noise
//! # with a warm kernel cache (second run hot-loads the prebuilt kernel):
//! CTGAUSS_CACHE_DIR=/tmp/ctgauss-cache cargo run --release --bin lwe_noise
//! ```

use ctgauss_core::SamplerSpec;
use ctgauss_pool::{CoalesceConfig, LaneWidth, Pool, PoolError, SampleRequest};
use ctgauss_prng::{ChaChaRng, RandomSource};
use ctgauss_stats::{chi_square_test, discrete_gaussian_pmf, Histogram};

const Q: i64 = 12289;
const DIM: usize = 64;

fn main() {
    // A staging pool booted with one stock profile: the service
    // starts first, workload-specific noise profiles arrive at runtime
    // through the registry.
    let mut builder = Pool::builder()
        .threads(2)
        .width(LaneWidth::W1)
        .queue_capacity(1024)
        .seed_u64(0x13E)
        .coalesce(CoalesceConfig {
            steal: false,
            ..CoalesceConfig::default()
        });
    let _boot = builder
        .profile(&SamplerSpec::new("2", 16))
        .expect("boot profile builds");
    let pool = builder.spawn();

    // sigma = 3.2 is a common LWE noise width (e.g. in FHE parameter
    // sets). Hot-loaded through the process-default kernel cache: with
    // CTGAUSS_CACHE_DIR set and warm, this is a file load, not a
    // synthesis run.
    let start = std::time::Instant::now();
    let profile = pool
        .add_profile(&SamplerSpec::new("3.2", 64))
        .expect("noise profile builds");
    println!(
        "hot-loaded sigma = 3.2 profile into the running pool in {:.2?}",
        start.elapsed()
    );

    let mut rng = ChaChaRng::from_u64_seed(0x1_3E);
    let secret: Vec<i64> = (0..DIM)
        .map(|_| i64::from(rng.next_u32() % 3) - 1)
        .collect();

    // 256 independent "encryptions", each submitting its own one-sample
    // noise request — the tiny-request shape that, uncoalesced, would
    // run one 64-slot kernel batch per single sample. Submissions are
    // pipelined (all tickets in flight at once) so the coalescer has
    // cross-request material to gang up.
    let rows = 256;
    let tickets: Vec<_> = (0..rows)
        .map(|_| {
            pool.submit(SampleRequest { profile, count: 1 })
                .expect("pool accepts")
        })
        .collect();
    let errors: Vec<i64> = tickets
        .into_iter()
        .map(|t| i64::from(t.wait().expect("noise served").samples[0]))
        .collect();

    // Build b = A s + e mod q from the pooled noise.
    let mut a_rows = Vec::with_capacity(rows);
    let mut b_vals = Vec::with_capacity(rows);
    for &e in &errors {
        let a: Vec<i64> = (0..DIM).map(|_| i64::from(rng.next_u32()) % Q).collect();
        let dot: i64 = a.iter().zip(&secret).map(|(x, s)| x * s % Q).sum::<i64>() % Q;
        b_vals.push((dot + e).rem_euclid(Q));
        a_rows.push(a);
    }
    println!("built {rows} LWE samples over Z_{Q}^{DIM} with sigma = 3.2 noise");

    // A holder of the secret recovers each error term exactly.
    let recovered: Vec<i64> = (0..rows)
        .map(|i| {
            let dot: i64 = a_rows[i]
                .iter()
                .zip(&secret)
                .map(|(x, s)| x * s % Q)
                .sum::<i64>()
                % Q;
            let mut e = (b_vals[i] - dot).rem_euclid(Q);
            if e > Q / 2 {
                e -= Q;
            }
            e
        })
        .collect();
    assert_eq!(recovered, errors);
    println!("secret holder recovers all error terms exactly");
    let max_err = errors.iter().map(|e| e.abs()).max().unwrap();
    println!("max |error| = {max_err} (tail cut at 13 * 3.2 = 41)");

    // The coalescer's receipt: 256 one-sample requests, far fewer
    // gangs (engine passes). Kernel batches are the same either way —
    // the carry hands each batch's unused samples to the next request —
    // so batch_fill_ratio (delivered / generated) stays near 1 even
    // without staging; what staging saves is the per-request pass.
    let metrics = pool.metrics();
    let gangs = metrics.counter("pool", "gangs_flushed").unwrap_or(0);
    let fill = metrics
        .gauge("pool", "batch_fill_ratio")
        .unwrap_or_default();
    println!(
        "coalescer packed {rows} tiny requests into {gangs} gangs ({:.3} gangs/request), \
         batch fill ratio {fill:.3}",
        gangs as f64 / rows as f64
    );

    // Validate the noise distribution at scale (bulk requests this
    // time — the pool serves both shapes from the same draw streams).
    let mut hist = Histogram::new(-41, 41);
    let big = 200_000;
    let bulk: Vec<_> = (0..big / 512)
        .map(|_| {
            pool.submit(SampleRequest {
                profile,
                count: 512,
            })
            .expect("pool accepts")
        })
        .collect();
    for ticket in bulk {
        for &s in &ticket.wait().expect("bulk served").samples {
            hist.add(s);
        }
    }
    let pmf = discrete_gaussian_pmf(3.2, 41);
    let gof = chi_square_test(&hist, &pmf);
    println!(
        "\nnoise distribution over {} draws: chi2 = {:.1}, dof = {}, p = {:.3} ({})",
        (big / 512) * 512,
        gof.statistic,
        gof.dof,
        gof.p_value,
        if gof.rejects_at(0.001) {
            "REJECTED"
        } else {
            "consistent with D_sigma"
        }
    );
    assert!(!gof.rejects_at(0.001));

    // End of life: retire the profile. In-flight work is done; new
    // submissions are refused while the pool keeps serving any other
    // registered profile.
    pool.retire_profile(profile).expect("profile was live");
    assert!(matches!(
        pool.submit(SampleRequest { profile, count: 1 }),
        Err(PoolError::UnknownProfile)
    ));
    println!("profile retired: new submissions refused, slot index stays reserved");
}
