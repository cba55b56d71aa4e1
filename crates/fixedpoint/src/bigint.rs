//! Signed big integers (sign-magnitude over [`BigUint`]).

use core::cmp::Ordering;
use core::fmt;

use crate::BigUint;

/// An arbitrary-precision signed integer in sign-magnitude form.
///
/// Zero is always stored with a positive sign so that equality is structural.
///
/// # Examples
///
/// ```
/// use ctgauss_fixedpoint::BigInt;
///
/// let a = BigInt::from_i64(-7);
/// let b = BigInt::from_i64(3);
/// assert_eq!(a.mul(&b), BigInt::from_i64(-21));
/// let (g, u, v) = BigInt::from_i64(240).xgcd(&BigInt::from_i64(46));
/// assert_eq!(g, BigInt::from_i64(2));
/// assert_eq!(
///     BigInt::from_i64(240).mul(&u).add(&BigInt::from_i64(46).mul(&v)),
///     g
/// );
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    negative: bool,
    magnitude: BigUint,
}

impl BigInt {
    /// The value zero.
    pub fn zero() -> Self {
        BigInt {
            negative: false,
            magnitude: BigUint::zero(),
        }
    }

    /// The value one.
    pub fn one() -> Self {
        BigInt {
            negative: false,
            magnitude: BigUint::one(),
        }
    }

    /// Creates a value from an `i64`.
    pub fn from_i64(v: i64) -> Self {
        BigInt {
            negative: v < 0,
            magnitude: BigUint::from_u64(v.unsigned_abs()),
        }
    }

    /// Creates a non-negative value from a magnitude.
    pub fn from_biguint(magnitude: BigUint) -> Self {
        BigInt {
            negative: false,
            magnitude,
        }
    }

    /// Creates a value from an explicit sign and magnitude.
    pub fn from_sign_magnitude(negative: bool, magnitude: BigUint) -> Self {
        let negative = negative && !magnitude.is_zero();
        BigInt {
            negative,
            magnitude,
        }
    }

    /// The absolute value as a [`BigUint`].
    pub fn magnitude(&self) -> &BigUint {
        &self.magnitude
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.magnitude.is_zero()
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// Number of significant bits of the magnitude.
    pub fn bit_len(&self) -> u32 {
        self.magnitude.bit_len()
    }

    /// Negation.
    pub fn neg(&self) -> BigInt {
        BigInt::from_sign_magnitude(!self.negative, self.magnitude.clone())
    }

    /// `self + other`.
    pub fn add(&self, other: &BigInt) -> BigInt {
        if self.negative == other.negative {
            return BigInt::from_sign_magnitude(
                self.negative,
                self.magnitude.add(&other.magnitude),
            );
        }
        match self.magnitude.cmp(&other.magnitude) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => {
                BigInt::from_sign_magnitude(self.negative, self.magnitude.sub(&other.magnitude))
            }
            Ordering::Less => {
                BigInt::from_sign_magnitude(other.negative, other.magnitude.sub(&self.magnitude))
            }
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &BigInt) -> BigInt {
        self.add(&other.neg())
    }

    /// `self * other`.
    pub fn mul(&self, other: &BigInt) -> BigInt {
        BigInt::from_sign_magnitude(
            self.negative != other.negative,
            self.magnitude.mul(&other.magnitude),
        )
    }

    /// `self << bits`.
    pub fn shl(&self, bits: u32) -> BigInt {
        BigInt::from_sign_magnitude(self.negative, self.magnitude.shl(bits))
    }

    /// Arithmetic shift right: floor division by `2^bits`.
    pub fn shr_floor(&self, bits: u32) -> BigInt {
        if !self.negative {
            return BigInt::from_biguint(self.magnitude.shr(bits));
        }
        // floor(-m / 2^k) = -ceil(m / 2^k)
        let q = self.magnitude.shr(bits);
        let exact = self.magnitude == q.shl(bits);
        let mag = if exact { q } else { q.add(&BigUint::one()) };
        BigInt::from_sign_magnitude(true, mag)
    }

    /// Truncated division: returns `(quotient, remainder)` with
    /// `self = q * other + r`, `|r| < |other|`, and `r` carrying the sign of
    /// `self` (like Rust's `/` and `%` on primitives).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn divmod_trunc(&self, other: &BigInt) -> (BigInt, BigInt) {
        let (q, r) = self.magnitude.divmod(&other.magnitude);
        (
            BigInt::from_sign_magnitude(self.negative != other.negative, q),
            BigInt::from_sign_magnitude(self.negative, r),
        )
    }

    /// Euclidean division: remainder is always in `[0, |other|)`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn divmod_euclid(&self, other: &BigInt) -> (BigInt, BigInt) {
        let (q, r) = self.divmod_trunc(other);
        if r.is_zero() || !r.negative {
            return (q, r);
        }
        // r < 0: shift toward the Euclidean representative.
        if other.negative {
            (q.add(&BigInt::one()), r.sub(other))
        } else {
            (q.sub(&BigInt::one()), r.add(other))
        }
    }

    /// Rounds `self / other` to the nearest integer (ties away from zero).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_round_nearest(&self, other: &BigInt) -> BigInt {
        let (q, r) = self.magnitude.divmod(&other.magnitude);
        let twice_r = r.shl(1);
        let q = if twice_r >= other.magnitude {
            q.add(&BigUint::one())
        } else {
            q
        };
        BigInt::from_sign_magnitude(self.negative != other.negative, q)
    }

    /// Extended GCD: returns `(g, u, v)` with `g = gcd(|self|, |other|) >= 0`
    /// and `u * self + v * other = g`.
    pub fn xgcd(&self, other: &BigInt) -> (BigInt, BigInt, BigInt) {
        // Classic iterative extended Euclid on (r0, r1).
        let mut r0 = BigInt::from_biguint(self.magnitude.clone());
        let mut r1 = BigInt::from_biguint(other.magnitude.clone());
        let (mut s0, mut s1) = (BigInt::one(), BigInt::zero());
        let (mut t0, mut t1) = (BigInt::zero(), BigInt::one());
        while !r1.is_zero() {
            let (q, r) = r0.divmod_euclid(&r1);
            r0 = r1;
            r1 = r;
            let s = s0.sub(&q.mul(&s1));
            s0 = s1;
            s1 = s;
            let t = t0.sub(&q.mul(&t1));
            t0 = t1;
            t1 = t;
        }
        // Fix up signs for the original (possibly negative) inputs.
        let u = if self.negative { s0.neg() } else { s0 };
        let v = if other.negative { t0.neg() } else { t0 };
        (r0, u, v)
    }

    /// Converts to `i64`, returning `None` on overflow.
    pub fn to_i64(&self) -> Option<i64> {
        let m = self.magnitude.to_u64()?;
        if self.negative {
            if m <= 1u64 << 63 {
                Some((m as i64).wrapping_neg())
            } else {
                None
            }
        } else {
            i64::try_from(m).ok()
        }
    }

    /// Nearest `f64`.
    pub fn to_f64(&self) -> f64 {
        let m = self.magnitude.to_f64();
        if self.negative {
            -m
        } else {
            m
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        Self::zero()
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        Self::from_i64(v)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.negative, other.negative) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => self.magnitude.cmp(&other.magnitude),
            (true, true) => other.magnitude.cmp(&self.magnitude),
        }
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negative {
            write!(f, "-")?;
        }
        write!(f, "{}", self.magnitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bi(v: i64) -> BigInt {
        BigInt::from_i64(v)
    }

    #[test]
    fn sign_normalization() {
        assert_eq!(
            BigInt::from_sign_magnitude(true, BigUint::zero()),
            BigInt::zero()
        );
        assert!(!bi(0).is_negative());
        assert!(bi(-1).is_negative());
        assert_eq!(bi(-5).neg(), bi(5));
        assert_eq!(bi(0).neg(), bi(0));
    }

    #[test]
    fn add_sub_all_sign_combinations() {
        for a in [-7i64, -3, 0, 3, 7] {
            for b in [-5i64, -2, 0, 2, 5] {
                assert_eq!(bi(a).add(&bi(b)).to_i64().unwrap(), a + b, "{a} + {b}");
                assert_eq!(bi(a).sub(&bi(b)).to_i64().unwrap(), a - b, "{a} - {b}");
                assert_eq!(bi(a).mul(&bi(b)).to_i64().unwrap(), a * b, "{a} * {b}");
            }
        }
    }

    #[test]
    fn divmod_trunc_matches_rust() {
        for a in [-100i64, -17, -1, 0, 1, 17, 100] {
            for b in [-7i64, -3, 3, 7] {
                let (q, r) = bi(a).divmod_trunc(&bi(b));
                assert_eq!(q.to_i64().unwrap(), a / b, "{a} / {b}");
                assert_eq!(r.to_i64().unwrap(), a % b, "{a} % {b}");
            }
        }
    }

    #[test]
    fn divmod_euclid_nonnegative_remainder() {
        for a in [-100i64, -17, -1, 0, 1, 17, 100] {
            for b in [-7i64, -3, 3, 7] {
                let (q, r) = bi(a).divmod_euclid(&bi(b));
                assert_eq!(q.to_i64().unwrap(), a.div_euclid(b), "{a} div_euclid {b}");
                assert_eq!(r.to_i64().unwrap(), a.rem_euclid(b), "{a} rem_euclid {b}");
            }
        }
    }

    #[test]
    fn div_round_nearest_ties_away() {
        assert_eq!(bi(7).div_round_nearest(&bi(2)).to_i64().unwrap(), 4);
        assert_eq!(bi(-7).div_round_nearest(&bi(2)).to_i64().unwrap(), -4);
        assert_eq!(bi(6).div_round_nearest(&bi(4)).to_i64().unwrap(), 2);
        assert_eq!(bi(5).div_round_nearest(&bi(4)).to_i64().unwrap(), 1);
        assert_eq!(bi(100).div_round_nearest(&bi(3)).to_i64().unwrap(), 33);
    }

    #[test]
    fn shr_floor_matches_floor_semantics() {
        assert_eq!(bi(9).shr_floor(1), bi(4));
        assert_eq!(bi(-9).shr_floor(1), bi(-5));
        assert_eq!(bi(-8).shr_floor(2), bi(-2));
        assert_eq!(bi(8).shr_floor(2), bi(2));
    }

    #[test]
    fn xgcd_bezout_identity() {
        let cases = [
            (240i64, 46i64),
            (-240, 46),
            (240, -46),
            (-240, -46),
            (17, 0),
            (0, 9),
        ];
        for (a, b) in cases {
            let (g, u, v) = bi(a).xgcd(&bi(b));
            assert!(!g.is_negative());
            assert_eq!(g.to_i64().unwrap(), gcd_i64(a, b), "gcd({a},{b})");
            assert_eq!(bi(a).mul(&u).add(&bi(b).mul(&v)), g, "bezout({a},{b})");
        }
    }

    fn gcd_i64(a: i64, b: i64) -> i64 {
        let (mut a, mut b) = (a.abs(), b.abs());
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    #[test]
    fn ordering() {
        assert!(bi(-5) < bi(-3));
        assert!(bi(-3) < bi(0));
        assert!(bi(0) < bi(2));
        assert!(bi(2) < bi(10));
    }

    #[test]
    fn display_forms() {
        assert_eq!(bi(-42).to_string(), "-42");
        assert_eq!(bi(0).to_string(), "0");
        assert_eq!(format!("{:?}", bi(7)), "BigInt(7)");
    }

    proptest! {
        #[test]
        fn prop_add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
            let sum = bi(a).add(&bi(b));
            prop_assert_eq!(sum.to_string(), (i128::from(a) + i128::from(b)).to_string());
        }

        #[test]
        fn prop_xgcd(a in any::<i32>(), b in any::<i32>()) {
            let (a, b) = (i64::from(a), i64::from(b));
            let (g, u, v) = bi(a).xgcd(&bi(b));
            prop_assert_eq!(bi(a).mul(&u).add(&bi(b).mul(&v)), g.clone());
            if a != 0 || b != 0 {
                prop_assert!(!g.is_zero());
            }
        }

        #[test]
        fn prop_divmod_roundtrip(a in any::<i64>(), b in any::<i64>()) {
            prop_assume!(b != 0);
            let (q, r) = bi(a).divmod_euclid(&bi(b));
            prop_assert_eq!(q.mul(&bi(b)).add(&r), bi(a));
            prop_assert!(!r.is_negative());
        }
    }
}
