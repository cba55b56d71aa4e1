//! Key generation resamples instead of giving up on a rejected round.

use ctgauss_falcon::{FalconParams, SecretKey};
use ctgauss_prng::ChaChaRng;

/// The key seed `e2ebench --workload falcon512_sign --seed 2904` derives
/// for its fifth key (`sub_seed(sub_seed(2904, 1), 4)`). Its first round
/// of 100 `(f, g)` pairs all fail the Gram-Schmidt bound, so the key only
/// exists if `SecretKey::generate` draws another round.
const REJECTED_ROUND_SEED: u64 = 0x6ff6_ac8d_5292_a986;

#[test]
fn keygen_resamples_after_a_rejected_round() {
    let sk = SecretKey::generate(
        FalconParams::new(9),
        &mut ChaChaRng::from_u64_seed(REJECTED_ROUND_SEED),
    )
    .expect("key generation resamples");
    assert!(sk.basis().verify_ntru_equation());
}
