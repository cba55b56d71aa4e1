//! Unsigned big integers on little-endian `u64` limbs.

use core::cmp::Ordering;
use core::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with the invariant that the most
/// significant limb is non-zero (zero is the empty limb vector). All
/// operations preserve this normal form.
///
/// # Examples
///
/// ```
/// use ctgauss_fixedpoint::BigUint;
///
/// let a = BigUint::from_decimal_str("340282366920938463463374607431768211456").unwrap();
/// assert_eq!(a, BigUint::one().shl(128));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Creates a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Creates a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = BigUint {
            limbs: vec![lo, hi],
        };
        out.normalize();
        out
    }

    /// Builds a value from little-endian limbs (trailing zeros allowed).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Parses a base-10 string of ASCII digits.
    ///
    /// Returns `None` when the string is empty or contains a non-digit.
    pub fn from_decimal_str(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut acc = Self::zero();
        for b in s.bytes() {
            if !b.is_ascii_digit() {
                return None;
            }
            acc = acc.mul_u64(10);
            acc.add_assign_u64(u64::from(b - b'0'));
        }
        Some(acc)
    }

    /// Read-only view of the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for the value zero).
    pub fn bit_len(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    /// Returns bit `i` (bit 0 is the least significant).
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to one.
    pub fn set_bit(&mut self, i: u32) {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
    }

    /// Converts to `u64`, returning `None` on overflow.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Nearest `f64` (with the usual 53-bit rounding); `inf` on overflow.
    pub fn to_f64(&self) -> f64 {
        let bits = self.bit_len();
        if bits == 0 {
            return 0.0;
        }
        if bits <= 64 {
            return self.limbs[0] as f64;
        }
        // Take the top 64 bits and scale.
        let shift = bits - 64;
        let top = self.clone().shr(shift);
        let mantissa = top.limbs[0] as f64;
        mantissa * (shift as f64).exp2()
    }

    fn normalize(&mut self) {
        while let Some(&0) = self.limbs.last() {
            self.limbs.pop();
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &BigUint) {
        let n = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(n, 0);
        let mut carry = 0u64;
        for i in 0..n {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// `self += v` for a single limb.
    pub fn add_assign_u64(&mut self, v: u64) {
        let mut carry = v;
        for limb in &mut self.limbs {
            let (s, c) = limb.overflowing_add(carry);
            *limb = s;
            if !c {
                return;
            }
            carry = 1;
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// `self - other`, or `None` when the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if *self < *other {
            return None;
        }
        let mut out = self.clone();
        let mut borrow = 0u64;
        for i in 0..out.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, o1) = out.limbs[i].overflowing_sub(b);
            let (d2, o2) = d1.overflowing_sub(borrow);
            out.limbs[i] = d2;
            borrow = u64::from(o1) + u64::from(o2);
        }
        debug_assert_eq!(borrow, 0);
        out.normalize();
        Some(out)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint::sub underflow: subtrahend larger than minuend")
    }

    /// `self * v` for a single limb.
    pub fn mul_u64(&self, v: u64) -> BigUint {
        if v == 0 || self.is_zero() {
            return Self::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let p = u128::from(l) * u128::from(v) + carry;
            out.push(p as u64);
            carry = p >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// `self * other`.
    ///
    /// Uses Karatsuba above a fixed limb threshold and schoolbook below it.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        const KARATSUBA_THRESHOLD: usize = 32;
        if self.limbs.len().min(other.limbs.len()) >= KARATSUBA_THRESHOLD {
            return self.mul_karatsuba(other);
        }
        self.mul_schoolbook(other)
    }

    fn mul_schoolbook(&self, other: &BigUint) -> BigUint {
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let p = u128::from(a) * u128::from(b) + u128::from(out[i + j]) + carry;
                out[i + j] = p as u64;
                carry = p >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let p = u128::from(out[k]) + carry;
                out[k] = p as u64;
                carry = p >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    fn mul_karatsuba(&self, other: &BigUint) -> BigUint {
        let half = self.limbs.len().max(other.limbs.len()).div_ceil(2);
        let (a0, a1) = self.split_at_limb(half);
        let (b0, b1) = other.split_at_limb(half);
        let z0 = a0.mul(&b0);
        let z2 = a1.mul(&b1);
        let z1 = a0.add(&a1).mul(&b0.add(&b1)).sub(&z0).sub(&z2);
        z2.shl((2 * half * 64) as u32)
            .add(&z1.shl((half * 64) as u32))
            .add(&z0)
    }

    fn split_at_limb(&self, k: usize) -> (BigUint, BigUint) {
        if k >= self.limbs.len() {
            return (self.clone(), Self::zero());
        }
        (
            BigUint::from_limbs(self.limbs[..k].to_vec()),
            BigUint::from_limbs(self.limbs[k..].to_vec()),
        )
    }

    /// `self << bits`.
    pub fn shl(&self, bits: u32) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self >> bits` (bits shifted out are discarded, i.e. floor division
    /// by `2^bits`).
    pub fn shr(&self, bits: u32) -> BigUint {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Euclidean division: returns `(quotient, remainder)`.
    ///
    /// Implements Knuth's Algorithm D on 64-bit limbs.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn divmod(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint::divmod by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.divmod_u64(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros();
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // extra scratch limb for the top
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        let mut q_limbs = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate q_hat from the top two limbs of the current remainder
            // divided by the top limb of the divisor.
            let num = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
            let mut q_hat = num / u128::from(v_top);
            let mut r_hat = num % u128::from(v_top);
            // Correct q_hat: at most two decrements (Knuth 4.3.1 Theorem B).
            while q_hat >> 64 != 0
                || q_hat * u128::from(v_next) > ((r_hat << 64) | u128::from(un[j + n - 2]))
            {
                q_hat -= 1;
                r_hat += u128::from(v_top);
                if r_hat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract q_hat * v from the window un[j .. j+n].
            let q64 = q_hat as u64;
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = u128::from(q64) * u128::from(vn[i]) + carry;
                carry = p >> 64;
                let sub = i128::from(un[j + i]) - i128::from(p as u64) + borrow;
                un[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = i128::from(un[j + n]) - i128::from(carry as u64) + borrow;
            un[j + n] = sub as u64;
            borrow = sub >> 64;

            let mut q_final = q64;
            if borrow != 0 {
                // q_hat was one too large: add the divisor back.
                q_final -= 1;
                let mut carry2 = 0u128;
                for i in 0..n {
                    let s = u128::from(un[j + i]) + u128::from(vn[i]) + carry2;
                    un[j + i] = s as u64;
                    carry2 = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry2 as u64);
            }
            q_limbs[j] = q_final;
        }

        let q = BigUint::from_limbs(q_limbs);
        let r = BigUint::from_limbs(un[..n].to_vec()).shr(shift);
        (q, r)
    }

    /// Division by a single limb: returns `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn divmod_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "BigUint::divmod_u64 by zero");
        let mut rem = 0u128;
        let mut q = vec![0u64; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | u128::from(self.limbs[i]);
            q[i] = (cur / u128::from(d)) as u64;
            rem = cur % u128::from(d);
        }
        (BigUint::from_limbs(q), rem as u64)
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let az = a.trailing_zeros();
        let bz = b.trailing_zeros();
        let common = az.min(bz);
        a = a.shr(az);
        b = b.shr(bz);
        loop {
            if a < b {
                core::mem::swap(&mut a, &mut b);
            }
            a = a.sub(&b);
            if a.is_zero() {
                return b.shl(common);
            }
            a = a.shr(a.trailing_zeros());
        }
    }

    /// Number of trailing zero bits (0 for the value zero).
    pub fn trailing_zeros(&self) -> u32 {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i as u32 * 64 + l.trailing_zeros();
            }
        }
        0
    }

    /// Renders as a base-10 string.
    pub fn to_decimal_string(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divmod_u64(10);
            digits.push(b'0' + r as u8);
            cur = q;
        }
        digits.reverse();
        String::from_utf8(digits).expect("digits are ASCII")
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self.to_decimal_string())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal_string())
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        for (i, &l) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{l:x}")?;
            } else {
                write!(f, "{l:016x}")?;
            }
        }
        Ok(())
    }
}

impl fmt::UpperHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        for (i, &l) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{l:X}")?;
            } else {
                write!(f, "{l:016X}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn big(s: &str) -> BigUint {
        BigUint::from_decimal_str(s).unwrap()
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "10",
            "18446744073709551616",
            "123456789012345678901234567890",
        ] {
            assert_eq!(big(s).to_decimal_string(), s);
        }
        assert!(BigUint::from_decimal_str("").is_none());
        assert!(BigUint::from_decimal_str("12a").is_none());
    }

    #[test]
    fn add_sub_inverse() {
        let a = big("987654321098765432109876543210");
        let b = big("123456789012345678901234567890");
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a), BigUint::zero());
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let b = a.add(&BigUint::one());
        assert_eq!(b, BigUint::one().shl(64));
        assert_eq!(b.bit_len(), 65);
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(
            big("1000000007").mul(&big("998244353")),
            big("998244359987710471")
        );
        let big_pow = BigUint::one().shl(100);
        assert_eq!(big_pow.mul(&big_pow), BigUint::one().shl(200));
        assert_eq!(big("5").mul(&BigUint::zero()), BigUint::zero());
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Construct operands large enough to take the Karatsuba path.
        let mut a = BigUint::zero();
        let mut b = BigUint::zero();
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut limbs_a = Vec::new();
        let mut limbs_b = Vec::new();
        for _ in 0..40 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            limbs_a.push(seed);
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            limbs_b.push(seed);
        }
        a.limbs = limbs_a;
        b.limbs = limbs_b;
        a.normalize();
        b.normalize();
        assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
    }

    #[test]
    fn shifts() {
        let a = big("12345678901234567890");
        assert_eq!(a.shl(0), a);
        assert_eq!(a.shl(64).shr(64), a);
        assert_eq!(a.shl(3), a.mul_u64(8));
        assert_eq!(a.shr(200), BigUint::zero());
        assert_eq!(big("7").shr(1), big("3"));
    }

    #[test]
    fn divmod_small_and_large() {
        let (q, r) = big("100").divmod(&big("7"));
        assert_eq!((q, r), (big("14"), big("2")));

        let n = big("123456789012345678901234567890123456789");
        let d = big("987654321098765432109");
        let (q, r) = n.divmod(&d);
        assert_eq!(q.mul(&d).add(&r), n);
        assert!(r < d);
    }

    #[test]
    fn divmod_exercises_addback_region() {
        // Operands chosen so q_hat over-estimates: divisor top limb barely
        // above 2^63 after normalization, dividend with all-ones limbs.
        let n = BigUint::from_limbs(vec![u64::MAX; 5]);
        let d = BigUint::from_limbs(vec![0, 1, u64::MAX >> 1]);
        let (q, r) = n.divmod(&d);
        assert_eq!(q.mul(&d).add(&r), n);
        assert!(r < d);
    }

    #[test]
    fn divmod_u64_matches_divmod() {
        let n = big("98765432109876543210987654321");
        let (q1, r1) = n.divmod(&big("97"));
        let (q2, r2) = n.divmod_u64(97);
        assert_eq!(q1, q2);
        assert_eq!(r1.to_u64().unwrap(), r2);
    }

    #[test]
    fn gcd_known() {
        assert_eq!(big("48").gcd(&big("36")), big("12"));
        assert_eq!(big("17").gcd(&big("13")), big("1"));
        assert_eq!(big("0").gcd(&big("5")), big("5"));
        assert_eq!(big("40902").gcd(&big("24140")), big("34"));
    }

    #[test]
    fn bit_access() {
        let mut a = BigUint::zero();
        a.set_bit(130);
        assert!(a.bit(130));
        assert!(!a.bit(129));
        assert_eq!(a, BigUint::one().shl(130));
        assert_eq!(a.trailing_zeros(), 130);
    }

    #[test]
    fn to_f64_reasonable() {
        assert_eq!(BigUint::zero().to_f64(), 0.0);
        assert_eq!(big("12345").to_f64(), 12345.0);
        let x = BigUint::one().shl(100).to_f64();
        assert!((x - 2f64.powi(100)).abs() / 2f64.powi(100) < 1e-15);
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(format!("{:x}", big("255")), "ff");
        assert_eq!(format!("{:X}", big("255")), "FF");
        assert_eq!(format!("{:x}", BigUint::zero()), "0");
        assert_eq!(format!("{:x}", BigUint::one().shl(64)), "10000000000000000");
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in any::<u128>(), b in any::<u128>()) {
            let x = BigUint::from_u128(a);
            let y = BigUint::from_u128(b);
            prop_assert_eq!(x.add(&y), y.add(&x));
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let p = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
            prop_assert_eq!(p, BigUint::from_u128(u128::from(a) * u128::from(b)));
        }

        #[test]
        fn prop_divmod_roundtrip(n_limbs in proptest::collection::vec(any::<u64>(), 0..8),
                                 d_limbs in proptest::collection::vec(any::<u64>(), 1..5)) {
            let n = BigUint::from_limbs(n_limbs);
            let d = BigUint::from_limbs(d_limbs);
            prop_assume!(!d.is_zero());
            let (q, r) = n.divmod(&d);
            prop_assert_eq!(q.mul(&d).add(&r), n);
            prop_assert!(r < d);
        }

        #[test]
        fn prop_shift_roundtrip(limbs in proptest::collection::vec(any::<u64>(), 0..6), s in 0u32..200) {
            let a = BigUint::from_limbs(limbs);
            prop_assert_eq!(a.shl(s).shr(s), a);
        }

        #[test]
        fn prop_decimal_roundtrip(limbs in proptest::collection::vec(any::<u64>(), 0..5)) {
            let a = BigUint::from_limbs(limbs);
            prop_assert_eq!(BigUint::from_decimal_str(&a.to_decimal_string()).unwrap(), a);
        }

        #[test]
        fn prop_gcd_divides(a in any::<u64>(), b in any::<u64>()) {
            let g = BigUint::from_u64(a).gcd(&BigUint::from_u64(b));
            if a != 0 || b != 0 {
                prop_assert!(!g.is_zero());
                if a != 0 {
                    prop_assert_eq!(BigUint::from_u64(a).divmod(&g).1, BigUint::zero());
                }
                if b != 0 {
                    prop_assert_eq!(BigUint::from_u64(b).divmod(&g).1, BigUint::zero());
                }
            }
        }
    }
}
