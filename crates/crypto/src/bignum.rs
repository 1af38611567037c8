//! Arbitrary-precision unsigned integers.
//!
//! The finite-field Diffie-Hellman handshake of Section 4.1 and the Schnorr
//! endorsement signatures need 1024/2048-bit modular arithmetic. This module
//! provides a small, dependency-free big-integer type with schoolbook
//! multiplication and limb-wise (Knuth D) long division. The exponentiation
//! hot path lives in [`crate::montgomery`]; [`BigUint::mod_exp`] here is the
//! plain square-and-multiply reference the fast ladders are tested against.
//!
//! Limbs are `u64`, stored little-endian (least-significant limb first), and
//! values are kept normalized (no trailing zero limbs).

use crate::drbg::Drbg;
use crate::CryptoError;

/// An arbitrary-precision unsigned integer.
///
/// # Examples
///
/// ```
/// use glimmer_crypto::bignum::BigUint;
/// let a = BigUint::from_u64(1u64 << 40);
/// let b = BigUint::from_u64(1u64 << 30);
/// let product = a.mul(&b);
/// assert_eq!(product.bit_len(), 71);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zeros (the value 0 has no limbs).
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    #[must_use]
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    #[must_use]
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs a value from a `u64`.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs a value from big-endian bytes.
    #[must_use]
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut current: u64 = 0;
        let mut shift = 0u32;
        for &byte in bytes.iter().rev() {
            current |= (byte as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(current);
                current = 0;
                shift = 0;
            }
        }
        if current != 0 {
            limbs.push(current);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Constructs a value from a big-endian hex string (whitespace ignored).
    ///
    /// Returns `None` if the string contains non-hex characters.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        let cleaned: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        if cleaned.is_empty() {
            return Some(Self::zero());
        }
        let mut bytes = Vec::with_capacity(cleaned.len() / 2 + 1);
        let padded = if cleaned.len() % 2 == 1 {
            format!("0{cleaned}")
        } else {
            cleaned
        };
        for i in (0..padded.len()).step_by(2) {
            bytes.push(u8::from_str_radix(&padded[i..i + 2], 16).ok()?);
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    #[must_use]
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Strip leading zero bytes.
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first_nonzero);
        out
    }

    /// Serializes to big-endian bytes left-padded to `len` (truncating from the
    /// left if the value does not fit).
    #[must_use]
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        if raw.len() >= len {
            raw[raw.len() - len..].to_vec()
        } else {
            let mut out = vec![0u8; len - raw.len()];
            out.extend_from_slice(&raw);
            out
        }
    }

    /// Returns a lowercase hex representation ("0" for zero).
    #[must_use]
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        self.to_bytes_be()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<String>()
            .trim_start_matches('0')
            .to_string()
    }

    /// True if the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is odd.
    #[must_use]
    pub fn is_odd(&self) -> bool {
        self.limbs.first().map(|l| l & 1 == 1).unwrap_or(false)
    }

    /// Number of significant bits (0 for zero).
    #[must_use]
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let offset = i % 64;
        self.limbs
            .get(limb)
            .map(|l| (l >> offset) & 1 == 1)
            .unwrap_or(false)
    }

    /// Returns the low 64 bits of the value.
    #[must_use]
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// The little-endian limbs (no trailing zeros).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Builds a value from little-endian limbs, trimming trailing zeros.
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Addition.
    #[must_use]
    pub fn add(&self, other: &BigUint) -> BigUint {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u64;
        for i in 0..n {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let sum = a as u128 + b as u128 + carry as u128;
            out.push(sum as u64);
            carry = (sum >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Subtraction; returns `None` if `other > self`.
    #[must_use]
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = BigUint { limbs: out };
        r.normalize();
        Some(r)
    }

    /// Subtraction that panics on underflow (for internal use where the caller
    /// has already established ordering).
    #[must_use]
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint::sub underflow; use checked_sub")
    }

    /// Schoolbook multiplication.
    #[must_use]
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry as u128;
                out[i + j] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            out[i + other.limbs.len()] = out[i + other.limbs.len()].wrapping_add(carry);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Multiplication by a `u64`.
    #[must_use]
    pub fn mul_u64(&self, other: u64) -> BigUint {
        self.mul(&BigUint::from_u64(other))
    }

    /// Left shift by `bits`.
    #[must_use]
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            let mut c = self.clone();
            c.normalize();
            return c;
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `bits`.
    #[must_use]
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            for i in limb_shift..self.limbs.len() {
                let mut limb = self.limbs[i] >> bit_shift;
                if i + 1 < self.limbs.len() {
                    limb |= self.limbs[i + 1] << (64 - bit_shift);
                }
                out.push(limb);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Division with remainder: returns `(quotient, remainder)`.
    ///
    /// Limb-wise long division (Knuth, TAOCP vol. 2, Algorithm D): one
    /// quotient limb per step, estimated from the top two limbs of the
    /// running remainder and corrected at most twice.
    pub fn div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint), CryptoError> {
        if divisor.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if self < divisor {
            return Ok((BigUint::zero(), self.clone()));
        }
        let n = divisor.limbs.len();
        if n == 1 {
            let d = divisor.limbs[0] as u128;
            let mut quotient = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for (q, &limb) in quotient.iter_mut().zip(&self.limbs).rev() {
                let cur = (rem << 64) | limb as u128;
                *q = (cur / d) as u64;
                rem = cur % d;
            }
            return Ok((Self::from_limbs(quotient), BigUint::from_u64(rem as u64)));
        }

        // D1: normalize so the divisor's top bit is set; the quotient is
        // unchanged and the remainder is shifted back at the end.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0);
        let m = u.len() - n - 1;
        let mut quotient = vec![0u64; m + 1];
        let (v_top, v_next) = (v[n - 1] as u128, v[n - 2] as u128);
        for j in (0..=m).rev() {
            // D3: estimate the quotient limb from the top two limbs.
            let numerator = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = numerator / v_top;
            let mut rhat = numerator % v_top;
            while qhat >> 64 != 0 || qhat * v_next > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_top;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // D4: u[j..=j+n] -= qhat * v.
            let mut carry = 0u128;
            let mut borrow = 0u64;
            for (ui, &vi) in u[j..j + n].iter_mut().zip(&v) {
                let product = qhat * vi as u128 + carry;
                carry = product >> 64;
                let (d1, b1) = ui.overflowing_sub(product as u64);
                let (d2, b2) = d1.overflowing_sub(borrow);
                *ui = d2;
                borrow = (b1 | b2) as u64;
            }
            let (d1, b1) = u[j + n].overflowing_sub(carry as u64);
            let (d2, b2) = d1.overflowing_sub(borrow);
            u[j + n] = d2;
            // D6: the estimate was one too large (probability ~2/2^64):
            // add the divisor back.
            if b1 | b2 {
                qhat -= 1;
                let mut carry = 0u64;
                for (ui, &vi) in u[j..j + n].iter_mut().zip(&v) {
                    let sum = *ui as u128 + vi as u128 + carry as u128;
                    *ui = sum as u64;
                    carry = (sum >> 64) as u64;
                }
                u[j + n] = u[j + n].wrapping_add(carry);
            }
            quotient[j] = qhat as u64;
        }
        u.truncate(n);
        Ok((Self::from_limbs(quotient), Self::from_limbs(u).shr(shift)))
    }

    /// Remainder.
    pub fn rem(&self, modulus: &BigUint) -> Result<BigUint, CryptoError> {
        Ok(self.div_rem(modulus)?.1)
    }

    /// Modular addition: `(self + other) mod modulus`.
    ///
    /// Both operands must already be reduced modulo `modulus`.
    pub fn mod_add(&self, other: &BigUint, modulus: &BigUint) -> Result<BigUint, CryptoError> {
        if modulus.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        let sum = self.add(other);
        if &sum >= modulus {
            Ok(sum.sub(modulus))
        } else {
            Ok(sum)
        }
    }

    /// Modular subtraction: `(self - other) mod modulus`.
    ///
    /// Both operands must already be reduced modulo `modulus`.
    pub fn mod_sub(&self, other: &BigUint, modulus: &BigUint) -> Result<BigUint, CryptoError> {
        if modulus.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if self >= other {
            Ok(self.sub(other))
        } else {
            Ok(self.add(modulus).sub(other))
        }
    }

    /// Modular multiplication via full product and reduction.
    pub fn mod_mul(&self, other: &BigUint, modulus: &BigUint) -> Result<BigUint, CryptoError> {
        self.mul(other).rem(modulus)
    }

    /// Modular exponentiation: `self^exponent mod modulus`.
    ///
    /// Plain right-to-left square-and-multiply over [`BigUint::mod_mul`],
    /// for any modulus. It is variable-time in the exponent and is **not**
    /// what the protocols run: group exponentiations go through the cached
    /// Montgomery ladders of [`crate::montgomery`], and this is the
    /// independent reference they are checked against.
    pub fn mod_exp(&self, exponent: &BigUint, modulus: &BigUint) -> Result<BigUint, CryptoError> {
        if modulus.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if modulus == &BigUint::one() {
            return Ok(BigUint::zero());
        }
        let mut base = self.rem(modulus)?;
        let mut result = BigUint::one();
        for i in 0..exponent.bit_len() {
            if exponent.bit(i) {
                result = result.mod_mul(&base, modulus)?;
            }
            base = base.mod_mul(&base, modulus)?;
        }
        Ok(result)
    }

    /// Modular inverse via the extended Euclidean algorithm.
    ///
    /// Returns [`CryptoError::OutOfRange`] if the inverse does not exist.
    pub fn mod_inverse(&self, modulus: &BigUint) -> Result<BigUint, CryptoError> {
        if modulus.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        // Extended Euclid on (a, m) tracking coefficients as (sign, magnitude).
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus)?;
        // Coefficients of `self` in the Bezout identity, with explicit signs.
        let mut t0 = (false, BigUint::zero()); // 0
        let mut t1 = (false, BigUint::one()); // 1
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1)?;
            // t2 = t0 - q * t1 with sign tracking.
            let q_t1 = (t1.0, q.mul(&t1.1));
            let t2 = signed_sub(&t0, &q_t1);
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0 != BigUint::one() {
            return Err(CryptoError::OutOfRange("no modular inverse"));
        }
        // Normalize t0 into [0, modulus).
        let mag = t0.1.rem(modulus)?;
        if t0.0 && !mag.is_zero() {
            Ok(modulus.sub(&mag))
        } else {
            Ok(mag)
        }
    }

    /// Samples a uniform value in `[0, bound)` using rejection sampling.
    ///
    /// Returns zero for a zero bound.
    #[must_use]
    pub fn random_below(rng: &mut Drbg, bound: &BigUint) -> BigUint {
        if bound.is_zero() {
            return BigUint::zero();
        }
        let byte_len = bound.bit_len().div_ceil(8);
        let top_bits = bound.bit_len() % 8;
        loop {
            let mut bytes = rng.bytes(byte_len);
            // Mask the top byte so the candidate has at most bit_len bits,
            // which makes rejection cheap (acceptance probability > 1/2).
            if top_bits != 0 {
                bytes[0] &= (1u8 << top_bits) - 1;
            }
            let candidate = BigUint::from_bytes_be(&bytes);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Samples a uniform value in `[1, bound)`.
    #[must_use]
    pub fn random_nonzero_below(rng: &mut Drbg, bound: &BigUint) -> BigUint {
        loop {
            let candidate = Self::random_below(rng, bound);
            if !candidate.is_zero() {
                return candidate;
            }
        }
    }
}

/// Signed subtraction helper for the extended Euclidean algorithm:
/// computes `a - b` where each operand is a `(negative, magnitude)` pair.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both non-negative.
        (false, false) => {
            if a.1 >= b.1 {
                (false, a.1.sub(&b.1))
            } else {
                (true, b.1.sub(&a.1))
            }
        }
        // (-a) - (-b) = b - a.
        (true, true) => {
            if b.1 >= a.1 {
                (false, b.1.sub(&a.1))
            } else {
                (true, a.1.sub(&b.1))
            }
        }
        // a - (-b) = a + b.
        (false, true) => (false, a.1.add(&b.1)),
        // (-a) - b = -(a + b).
        (true, false) => (true, a.1.add(&b.1)),
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            core::cmp::Ordering::Equal => {}
            ord => return ord,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn construction_and_round_trip() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::from_u64(0), BigUint::zero());
        assert_eq!(BigUint::from_u64(42).low_u64(), 42);
        let v = BigUint::from_bytes_be(&[0, 0, 1, 2, 3]);
        assert_eq!(v.to_bytes_be(), vec![1, 2, 3]);
        assert_eq!(v.to_bytes_be_padded(5), vec![0, 0, 1, 2, 3]);
        assert_eq!(BigUint::from_hex("01fF").unwrap(), BigUint::from_u64(511));
        assert_eq!(BigUint::from_hex("zz"), None);
        assert_eq!(BigUint::from_u64(511).to_hex(), "1ff");
    }

    #[test]
    fn bit_operations() {
        let v = BigUint::from_u64(0b1011);
        assert_eq!(v.bit_len(), 4);
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3) && !v.bit(100));
        assert!(v.is_odd());
        assert!(!BigUint::from_u64(4).is_odd());
        assert_eq!(BigUint::zero().bit_len(), 0);
        let big_val = BigUint::one().shl(130);
        assert_eq!(big_val.bit_len(), 131);
        assert!(big_val.bit(130));
    }

    #[test]
    fn add_sub_mul_match_u128() {
        let pairs: [(u128, u128); 6] = [
            (0, 0),
            (1, u64::MAX as u128),
            (u64::MAX as u128, u64::MAX as u128),
            (1 << 100, (1 << 90) + 12345),
            (987654321987654321, 123456789123456789),
            ((1 << 126) - 1, 3),
        ];
        for (a, b) in pairs {
            let ba = big(a);
            let bb = big(b);
            assert_eq!(ba.add(&bb), big(a + b), "add {a} {b}");
            if a >= b {
                assert_eq!(ba.checked_sub(&bb), Some(big(a - b)), "sub {a} {b}");
            } else {
                assert_eq!(ba.checked_sub(&bb), None);
            }
            if let Some(prod) = a.checked_mul(b) {
                assert_eq!(ba.mul(&bb), big(prod), "mul {a} {b}");
            }
        }
    }

    #[test]
    fn shifts() {
        let v = big(0x1234_5678_9abc_def0_1122_3344_5566_7788);
        assert_eq!(v.shl(0), v);
        assert_eq!(v.shr(0), v);
        assert_eq!(v.shl(64).shr(64), v);
        assert_eq!(v.shl(3).shr(3), v);
        assert_eq!(v.shr(200), BigUint::zero());
        assert_eq!(BigUint::one().shl(127), big(1 << 127));
    }

    #[test]
    fn div_rem_matches_u128() {
        let cases: [(u128, u128); 7] = [
            (0, 7),
            (13, 7),
            (7, 13),
            (u128::MAX, 3),
            (u128::MAX, u64::MAX as u128),
            (1 << 100, 1000003),
            (999999999999999999999999, 123456789),
        ];
        for (a, b) in cases {
            let (q, r) = big(a).div_rem(&big(b)).unwrap();
            assert_eq!(q, big(a / b), "quot {a}/{b}");
            assert_eq!(r, big(a % b), "rem {a}%{b}");
        }
        assert!(big(5).div_rem(&BigUint::zero()).is_err());
    }

    #[test]
    fn division_identity_large() {
        let mut rng = Drbg::from_seed([21u8; 32]);
        for _ in 0..20 {
            let a = BigUint::from_bytes_be(&rng.bytes(48));
            let b = BigUint::from_bytes_be(&rng.bytes(20));
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(&b).unwrap();
            assert!(r < b);
            assert_eq!(q.mul(&b).add(&r), a);
        }
    }

    #[test]
    fn mod_arithmetic() {
        let m = big(1000003);
        let a = big(999999);
        let b = big(777777);
        assert_eq!(a.mod_add(&b, &m).unwrap(), big((999999 + 777777) % 1000003));
        assert_eq!(a.mod_sub(&b, &m).unwrap(), big(999999 - 777777));
        assert_eq!(b.mod_sub(&a, &m).unwrap(), big(777777 + 1000003 - 999999));
        assert_eq!(a.mod_mul(&b, &m).unwrap(), big((999999 * 777777) % 1000003));
    }

    #[test]
    fn mod_exp_small_values() {
        // 3^20 mod 1000003, cross-checked with u128 arithmetic.
        let mut expected: u128 = 1;
        for _ in 0..20 {
            expected = expected * 3 % 1000003;
        }
        assert_eq!(
            big(3).mod_exp(&big(20), &big(1000003)).unwrap(),
            big(expected)
        );
        // Fermat's little theorem: a^(p-1) = 1 mod p for prime p.
        let p = big(1000003);
        for a in [2u128, 5, 123456] {
            assert_eq!(
                big(a).mod_exp(&big(1000002), &p).unwrap(),
                BigUint::one(),
                "fermat for {a}"
            );
        }
        // Edge cases.
        assert_eq!(
            big(5).mod_exp(&BigUint::zero(), &p).unwrap(),
            BigUint::one()
        );
        assert_eq!(
            big(5).mod_exp(&big(3), &BigUint::one()).unwrap(),
            BigUint::zero()
        );
        assert!(big(5).mod_exp(&big(3), &BigUint::zero()).is_err());
    }

    #[test]
    fn mod_exp_even_modulus() {
        assert_eq!(
            big(7).mod_exp(&big(13), &big(1000)).unwrap(),
            big(7u128.pow(13) % 1000)
        );
    }

    /// The bit-serial long division `div_rem` used before it went
    /// limb-wise; kept as the independent reference.
    fn div_rem_bit_serial(a: &BigUint, b: &BigUint) -> (BigUint, BigUint) {
        let mut quotient = BigUint::zero();
        let mut remainder = BigUint::zero();
        for i in (0..a.bit_len()).rev() {
            remainder = remainder.shl(1);
            if a.bit(i) {
                remainder = remainder.add(&BigUint::one());
            }
            quotient = quotient.shl(1);
            if &remainder >= b {
                remainder = remainder.sub(b);
                quotient = quotient.add(&BigUint::one());
            }
        }
        (quotient, remainder)
    }

    #[test]
    fn limb_wise_division_matches_the_bit_serial_reference() {
        let mut rng = Drbg::from_seed([23u8; 32]);
        let mut cases = Vec::new();
        for (a_len, b_len) in [(8, 8), (16, 8), (48, 20), (129, 128), (256, 128), (40, 9)] {
            for _ in 0..8 {
                cases.push((
                    BigUint::from_bytes_be(&rng.bytes(a_len)),
                    BigUint::from_bytes_be(&rng.bytes(b_len)),
                ));
            }
        }
        // Operands that force the quotient-estimate corrections and the
        // add-back step (Knuth's D6): top limbs all ones over a divisor
        // whose second limb is tiny or huge.
        let max = u64::MAX;
        for (a, b) in [
            (vec![0, 0, 1 << 63, max >> 1], vec![1, 0, 1 << 63]),
            (vec![max, max, max, max - 1], vec![max, max, max >> 1]),
            (vec![0, max - 1, max, 1 << 62], vec![max, max, 1 << 62]),
            (vec![3, 0, 0, 1 << 63], vec![1, max, 1 << 63]),
            (vec![0, 0, 0, 1], vec![max, 1]),
            (vec![max, max, max, max], vec![1, 1]),
        ] {
            cases.push((BigUint::from_limbs(a), BigUint::from_limbs(b)));
        }
        for (a, b) in cases {
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(&b).unwrap();
            assert_eq!(
                (q.clone(), r.clone()),
                div_rem_bit_serial(&a, &b),
                "{a:?} / {b:?}"
            );
            assert!(r < b);
            assert_eq!(q.mul(&b).add(&r), a);
        }
    }

    #[test]
    fn mod_inverse_basic() {
        let p = big(1000003);
        for a in [2u128, 3, 999999, 500000] {
            let inv = big(a).mod_inverse(&p).unwrap();
            assert_eq!(
                big(a).mod_mul(&inv, &p).unwrap(),
                BigUint::one(),
                "inverse of {a}"
            );
        }
        // Non-invertible: gcd(6, 9) != 1.
        assert!(big(6).mod_inverse(&big(9)).is_err());
        // Invertible in a composite modulus.
        let inv = big(7).mod_inverse(&big(9)).unwrap();
        assert_eq!(big(7).mod_mul(&inv, &big(9)).unwrap(), BigUint::one());
    }

    #[test]
    fn random_below_is_in_range() {
        let mut rng = Drbg::from_seed([29u8; 32]);
        let bound = big(1_000_000_007);
        for _ in 0..100 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
        let nz = BigUint::random_nonzero_below(&mut rng, &big(2));
        assert_eq!(nz, BigUint::one());
        assert_eq!(
            BigUint::random_below(&mut rng, &BigUint::zero()),
            BigUint::zero()
        );
    }

    #[test]
    fn ordering() {
        assert!(big(5) > big(3));
        assert!(big(3) < big(5));
        assert!(big(1 << 100) > big(u64::MAX as u128));
        assert_eq!(big(7).cmp(&big(7)), core::cmp::Ordering::Equal);
    }
}
