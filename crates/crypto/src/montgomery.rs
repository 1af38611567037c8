//! Montgomery arithmetic over a fixed odd modulus, and the two
//! exponentiation ladders the protocols run on it.
//!
//! One modular exponentiation is the cost of one endorsement (Schnorr
//! signing, Section 3) and of one attested handshake (Diffie-Hellman,
//! Section 4.1), so this module is the crypto floor of the whole serving
//! stack. It is built once per group (see [`crate::dh::DhGroup`]) and then
//! only read:
//!
//! * [`MontgomeryCtx`] holds the modulus, `-n^{-1} mod 2^64`, `R mod n` and
//!   `R^2 mod n`. Multiplication and squaring work on caller-provided limbs
//!   with stack scratch, subtract the modulus by mask rather than by branch,
//!   and never touch the heap.
//! * [`MontgomeryCtx::pow`] is the variable-base ladder: a fixed 4-bit
//!   window over a 16-entry table of powers of the base.
//! * [`FixedBaseComb`] is the fixed-base ladder for the group generator: a
//!   Lim–Lee comb with 4 rows and 16 column blocks.
//!
//! # What is constant-time
//!
//! Both ladders perform a sequence of squarings, multiplications and table
//! reads that depends only on *public lengths* (the modulus width and the
//! caller's bound on the exponent width), never on exponent bits: every
//! table read scans the whole 16-entry sub-table and keeps one entry by
//! mask, and a zero digit multiplies by the Montgomery form of one. The
//! unit tests count the operations to pin that down. The limb arithmetic
//! itself is branch-free, but it is ordinary Rust compiled by an optimizing
//! compiler: this is a research reproduction, not a hardened library.

use crate::bignum::BigUint;
use crate::ct::ct_eq_mask;
use crate::CryptoError;

/// Widest supported modulus in 64-bit limbs (2048 bits). Every buffer an
/// exponentiation needs is a stack array of this bound.
pub const MAX_LIMBS: usize = 32;

/// Bits per window of the variable-base ladder.
const WINDOW_BITS: usize = 4;
/// Entries per scanned sub-table, in both ladders.
const TABLE_ENTRIES: usize = 1 << WINDOW_BITS;

/// Comb rows: one table digit gathers this many exponent bits.
const COMB_ROWS: usize = 4;
/// Comb column blocks: a full-width exponent costs this many
/// multiplications per squaring.
const COMB_BLOCKS: usize = 16;

const _: () = assert!(1 << COMB_ROWS == TABLE_ENTRIES && 64 % WINDOW_BITS == 0);

/// `t + a * b + carry` as `(low, high)` limbs; cannot overflow.
#[inline(always)]
fn mac(t: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let wide = t as u128 + (a as u128) * (b as u128) + carry as u128;
    (wide as u64, (wide >> 64) as u64)
}

/// Schoolbook product `t = a * b`; `t` must arrive zeroed.
#[inline(always)]
fn mul_wide(t: &mut [u64], a: &[u64], b: &[u64]) {
    let s = a.len();
    let (t, b) = (&mut t[..2 * s], &b[..s]);
    for i in 0..s {
        let mut carry = 0u64;
        for j in 0..s {
            (t[i + j], carry) = mac(t[i + j], a[j], b[i], carry);
        }
        t[i + s] = carry;
    }
}

/// Square `t = a * a` with each cross product computed once; `t` must
/// arrive zeroed.
#[inline(always)]
fn sqr_wide(t: &mut [u64], a: &[u64]) {
    let s = a.len();
    let t = &mut t[..2 * s];
    for i in 0..s {
        let mut carry = 0u64;
        for j in i + 1..s {
            (t[i + j], carry) = mac(t[i + j], a[j], a[i], carry);
        }
        t[i + s] = carry;
    }
    // t = 2 * t + sum of a[i]^2 * 2^(128 i), one limb pair at a time.
    let mut shifted_out = 0u64;
    let mut carry = 0u64;
    for i in 0..s {
        let (lo, hi) = (t[2 * i], t[2 * i + 1]);
        let doubled_lo = (lo << 1) | shifted_out;
        let doubled_hi = (hi << 1) | (lo >> 63);
        shifted_out = hi >> 63;
        let square = (a[i] as u128) * (a[i] as u128);
        let low = doubled_lo as u128 + (square as u64) as u128 + carry as u128;
        let high = doubled_hi as u128 + (square >> 64) + (low >> 64);
        t[2 * i] = low as u64;
        t[2 * i + 1] = high as u64;
        carry = (high >> 64) as u64;
    }
}

/// Montgomery reduction: `out = t * R^{-1} mod n` for `t < n * R`, with the
/// final subtraction applied by mask.
#[inline(always)]
fn reduce(out: &mut [u64], t: &mut [u64], n: &[u64], n0_inv: u64) {
    let s = n.len();
    let (out, t) = (&mut out[..s], &mut t[..2 * s]);
    // `top` carries the overflow of limb `i + s` into the next round.
    let mut top = 0u64;
    for i in 0..s {
        let m = t[i].wrapping_mul(n0_inv);
        let mut carry = 0u64;
        for j in 0..s {
            (t[i + j], carry) = mac(t[i + j], m, n[j], carry);
        }
        let sum = t[i + s] as u128 + carry as u128 + top as u128;
        t[i + s] = sum as u64;
        top = (sum >> 64) as u64;
    }
    // The value is top * R + t[s..] < 2n: subtract n unless it is already
    // below n, i.e. unless top == 0 and the subtraction borrows.
    let high = &t[s..];
    let mut borrow = 0u64;
    for j in 0..s {
        let (d1, b1) = high[j].overflowing_sub(n[j]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[j] = d2;
        borrow = (b1 | b2) as u64;
    }
    let keep = (borrow & (top ^ 1)).wrapping_neg();
    for j in 0..s {
        out[j] = (high[j] & keep) | (out[j] & !keep);
    }
}

#[inline(always)]
fn mul_kernel(acc: &mut [u64], b: &[u64], n: &[u64], n0_inv: u64, t: &mut [u64]) {
    mul_wide(t, acc, b);
    reduce(acc, t, n, n0_inv);
}

#[inline(always)]
fn sqr_kernel(acc: &mut [u64], n: &[u64], n0_inv: u64, t: &mut [u64]) {
    sqr_wide(t, acc);
    reduce(acc, t, n, n0_inv);
}

/// Copies entry `index` of `table` (entries of `out.len()` limbs) into `out`
/// by scanning every entry and keeping one by mask, so the memory access
/// pattern does not depend on `index`.
fn select(out: &mut [u64], table: &[u64], index: u64) {
    out.fill(0);
    for (k, entry) in table.chunks_exact(out.len()).enumerate() {
        ops::count_table_read();
        let mask = ct_eq_mask(k as u64, index);
        for (o, &e) in out.iter_mut().zip(entry) {
            *o |= e & mask;
        }
    }
}

/// Montgomery context for a fixed odd modulus of at most [`MAX_LIMBS`]
/// limbs. Immutable once built.
pub struct MontgomeryCtx {
    modulus: BigUint,
    /// `-modulus^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R mod n`: the Montgomery form of one.
    one: Vec<u64>,
    /// `R^2 mod n`: multiplying by it converts into Montgomery form.
    r2: Vec<u64>,
}

impl MontgomeryCtx {
    /// Creates a context; the modulus must be odd, greater than one and at
    /// most [`MAX_LIMBS`] limbs wide.
    pub fn new(modulus: &BigUint) -> Result<Self, CryptoError> {
        if !modulus.is_odd() || modulus == &BigUint::one() {
            return Err(CryptoError::OutOfRange(
                "Montgomery modulus must be odd and > 1",
            ));
        }
        let n = modulus.limbs();
        let s = n.len();
        if s > MAX_LIMBS {
            return Err(CryptoError::OutOfRange(
                "Montgomery modulus wider than 2048 bits",
            ));
        }
        // -n[0]^{-1} mod 2^64 via Newton iteration (doubles the correct
        // low bits each round, starting from one).
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let padded = |value: BigUint| {
            let mut limbs = value.limbs().to_vec();
            limbs.resize(s, 0);
            limbs
        };
        Ok(MontgomeryCtx {
            n0_inv: inv.wrapping_neg(),
            one: padded(BigUint::one().shl(64 * s).rem(modulus)?),
            r2: padded(BigUint::one().shl(128 * s).rem(modulus)?),
            modulus: modulus.clone(),
        })
    }

    /// Width of the modulus in limbs.
    #[must_use]
    pub fn limbs(&self) -> usize {
        self.modulus.limbs().len()
    }

    /// `acc = acc * b * R^{-1} mod n` on `limbs()`-wide operands below `n`.
    ///
    /// For the 1024-bit group — the one every protocol path uses — the
    /// width is a literal at the call, so the inlined kernel compiles to
    /// fixed-trip loops; the length-generic copy serves any other width.
    /// End to end the literal width is worth ~10 % of `steady_small`
    /// `endorse_per_s` (CHANGES.md, PR 13).
    fn mul_assign(&self, acc: &mut [u64], b: &[u64]) {
        ops::count_mul();
        let (n, n0_inv) = (self.modulus.limbs(), self.n0_inv);
        match n.len() {
            16 => mul_kernel(&mut acc[..16], &b[..16], &n[..16], n0_inv, &mut [0; 32]),
            s => mul_kernel(&mut acc[..s], &b[..s], n, n0_inv, &mut [0; 2 * MAX_LIMBS]),
        }
    }

    /// `acc = acc^2 * R^{-1} mod n`; see [`Self::mul_assign`].
    fn sqr_assign(&self, acc: &mut [u64]) {
        ops::count_sqr();
        let (n, n0_inv) = (self.modulus.limbs(), self.n0_inv);
        match n.len() {
            16 => sqr_kernel(&mut acc[..16], &n[..16], n0_inv, &mut [0; 32]),
            s => sqr_kernel(&mut acc[..s], n, n0_inv, &mut [0; 2 * MAX_LIMBS]),
        }
    }

    /// Writes the Montgomery form of `value mod n` into `out`.
    fn enter_mont(&self, value: &BigUint, out: &mut [u64]) -> Result<(), CryptoError> {
        let reduced;
        let value = if value >= &self.modulus {
            reduced = value.rem(&self.modulus)?;
            &reduced
        } else {
            value
        };
        out.fill(0);
        out[..value.limbs().len()].copy_from_slice(value.limbs());
        self.mul_assign(out, &self.r2);
        Ok(())
    }

    /// Converts out of Montgomery form (one reduction of the bare value).
    fn leave_mont(&self, value: &[u64]) -> BigUint {
        let s = self.limbs();
        let mut t = [0u64; 2 * MAX_LIMBS];
        t[..s].copy_from_slice(value);
        let mut out = vec![0u64; s];
        reduce(&mut out, &mut t[..2 * s], self.modulus.limbs(), self.n0_inv);
        BigUint::from_limbs(out)
    }

    /// `a * b mod n` for arbitrary `a`, `b`.
    pub fn mod_mul(&self, a: &BigUint, b: &BigUint) -> Result<BigUint, CryptoError> {
        let s = self.limbs();
        let (mut a_m, mut b_m) = ([0u64; MAX_LIMBS], [0u64; MAX_LIMBS]);
        self.enter_mont(a, &mut a_m[..s])?;
        self.enter_mont(b, &mut b_m[..s])?;
        self.mul_assign(&mut a_m[..s], &b_m[..s]);
        Ok(self.leave_mont(&a_m[..s]))
    }

    /// `base^exp mod n` for a variable base: a fixed 4-bit window, four
    /// squarings and one masked-select multiplication per window, over an
    /// exponent width of `max(limbs(), exp limbs)` limbs whatever the
    /// exponent's value. The only heap allocation is the returned value.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> Result<BigUint, CryptoError> {
        let s = self.limbs();
        // table[k] = base^k in Montgomery form.
        let mut table = [0u64; TABLE_ENTRIES * MAX_LIMBS];
        let table = &mut table[..TABLE_ENTRIES * s];
        table[..s].copy_from_slice(&self.one);
        self.enter_mont(base, &mut table[s..2 * s])?;
        for k in 2..TABLE_ENTRIES {
            let (lower, upper) = table.split_at_mut(k * s);
            upper[..s].copy_from_slice(&lower[(k - 1) * s..]);
            self.mul_assign(&mut upper[..s], &lower[s..2 * s]);
        }

        let (mut acc, mut picked) = ([0u64; MAX_LIMBS], [0u64; MAX_LIMBS]);
        let (acc, picked) = (&mut acc[..s], &mut picked[..s]);
        acc.copy_from_slice(&self.one);
        let exp = exp.limbs();
        for limb_index in (0..s.max(exp.len())).rev() {
            let limb = exp.get(limb_index).copied().unwrap_or(0);
            for shift in (0..64).step_by(WINDOW_BITS).rev() {
                for _ in 0..WINDOW_BITS {
                    self.sqr_assign(acc);
                }
                select(picked, table, (limb >> shift) & (TABLE_ENTRIES as u64 - 1));
                self.mul_assign(acc, picked);
            }
        }
        Ok(self.leave_mont(acc))
    }
}

/// A fixed-base Lim–Lee comb for one base under one [`MontgomeryCtx`].
///
/// With `s = ctx.limbs()`, an exponent of up to `64 s` bits is cut into
/// 16 blocks of `4 s` bits and each block into 4
/// rows of `s` bits; exponent bit `4 s j + s r + i` is row `r`, column `i`
/// of block `j`. Sub-table `j` holds, for each of the 16 row subsets `u`,
/// the product of `base^(2^(4 s j + s r))` over the rows `r` in `u`. Then
/// `base^e = prod_i (prod_j table[j][column i of block j])^(2^i)`: `s`
/// squarings, and one multiplication per block per squaring.
///
/// Blocks are *contiguous* exponent ranges, so an exponent known to be
/// short — the 512-bit signing nonce — skips its all-zero high blocks: the
/// cost is `s` squarings plus `s * ceil(bits / 4s)` multiplications, and it
/// depends on the public bound `bits` only.
///
/// The table is `16 * 16 * s` limbs: 32 KiB for the 1024-bit group, 64 KiB
/// for the 2048-bit one. (A plain per-window table at the same window width
/// would be 512 KiB for 1024 bits.)
pub struct FixedBaseComb {
    table: Vec<u64>,
}

impl FixedBaseComb {
    /// Precomputes the comb of `base`: `64 s` squarings and 176
    /// multiplications.
    pub fn new(ctx: &MontgomeryCtx, base: &BigUint) -> Result<Self, CryptoError> {
        let s = ctx.limbs();
        let mut table = vec![0u64; COMB_BLOCKS * TABLE_ENTRIES * s];
        // base^(2^(4 s j + s r)) for the (block, row) being filled.
        let mut power = vec![0u64; s];
        ctx.enter_mont(base, &mut power)?;
        for sub in table.chunks_exact_mut(TABLE_ENTRIES * s) {
            sub[..s].copy_from_slice(&ctx.one);
            for row in 0..COMB_ROWS {
                // Entries below `1 << row` are complete; entry `bit | u` is
                // entry `u` times this row's power.
                let (lower, upper) = sub.split_at_mut((1 << row) * s);
                upper[..s].copy_from_slice(&power);
                for u in 1..1 << row {
                    let entry = &mut upper[u * s..(u + 1) * s];
                    entry.copy_from_slice(&lower[u * s..(u + 1) * s]);
                    ctx.mul_assign(entry, &power);
                }
                for _ in 0..s {
                    ctx.sqr_assign(&mut power);
                }
            }
        }
        Ok(FixedBaseComb { table })
    }

    /// Size of the precomputed table in bytes.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        self.table.len() * 8
    }

    /// `base^exp mod n` for an exponent of at most `ctx.limbs()` limbs.
    /// `exp_bits` is the caller's *public* bound on the exponent's width;
    /// blocks above it are skipped (the exponent's own limb count widens the
    /// bound if it is larger, so a wrong bound costs time, not correctness).
    /// The only heap allocation is the returned value.
    ///
    /// # Panics
    ///
    /// If `exp` is wider than the modulus: the caller reduces it first.
    #[must_use]
    pub fn pow(&self, ctx: &MontgomeryCtx, exp: &BigUint, exp_bits: usize) -> BigUint {
        let s = ctx.limbs();
        let exp = exp.limbs();
        assert!(exp.len() <= s, "comb exponent wider than the modulus");
        let block_bits = COMB_ROWS * s;
        let blocks = exp_bits
            .max(64 * exp.len())
            .div_ceil(block_bits)
            .min(COMB_BLOCKS);
        let bit = |position: usize| -> u64 {
            (exp.get(position / 64).copied().unwrap_or(0) >> (position % 64)) & 1
        };

        let (mut acc, mut picked) = ([0u64; MAX_LIMBS], [0u64; MAX_LIMBS]);
        let (acc, picked) = (&mut acc[..s], &mut picked[..s]);
        acc.copy_from_slice(&ctx.one);
        for column in (0..s).rev() {
            ctx.sqr_assign(acc);
            for (block, sub) in self
                .table
                .chunks_exact(TABLE_ENTRIES * s)
                .take(blocks)
                .enumerate()
            {
                let digit = (0..COMB_ROWS).fold(0u64, |digit, row| {
                    digit | bit(block * block_bits + row * s + column) << row
                });
                select(picked, sub, digit);
                ctx.mul_assign(acc, picked);
            }
        }
        ctx.leave_mont(acc)
    }
}

/// Test-only operation counters: how many Montgomery multiplications,
/// squarings and table-entry reads this thread has performed. Compiled out
/// of non-test builds.
#[cfg(test)]
pub(crate) mod ops {
    use std::cell::Cell;

    /// Operation counts of the current thread.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub(crate) struct OpCounts {
        pub mul: u64,
        pub sqr: u64,
        pub table_reads: u64,
    }

    thread_local! {
        static COUNTS: Cell<OpCounts> = const { Cell::new(OpCounts { mul: 0, sqr: 0, table_reads: 0 }) };
    }

    fn bump(f: impl FnOnce(&mut OpCounts)) {
        COUNTS.with(|counts| {
            let mut now = counts.get();
            f(&mut now);
            counts.set(now);
        });
    }

    pub(super) fn count_mul() {
        bump(|c| c.mul += 1);
    }

    pub(super) fn count_sqr() {
        bump(|c| c.sqr += 1);
    }

    pub(super) fn count_table_read() {
        bump(|c| c.table_reads += 1);
    }

    /// The operations `f` performed on this thread.
    pub(crate) fn counted<T>(f: impl FnOnce() -> T) -> (T, OpCounts) {
        let before = COUNTS.with(Cell::get);
        let out = f();
        let after = COUNTS.with(Cell::get);
        (
            out,
            OpCounts {
                mul: after.mul - before.mul,
                sqr: after.sqr - before.sqr,
                table_reads: after.table_reads - before.table_reads,
            },
        )
    }
}

#[cfg(not(test))]
mod ops {
    #[inline(always)]
    pub(super) fn count_mul() {}
    #[inline(always)]
    pub(super) fn count_sqr() {}
    #[inline(always)]
    pub(super) fn count_table_read() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;

    fn random_odd_modulus(rng: &mut Drbg, bytes: usize) -> BigUint {
        let mut raw = rng.bytes(bytes);
        raw[0] |= 0x80;
        raw[bytes - 1] |= 1;
        BigUint::from_bytes_be(&raw)
    }

    #[test]
    fn rejects_unusable_moduli() {
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_err());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_err());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(10)).is_err());
        let too_wide = BigUint::one().shl(64 * MAX_LIMBS).add(&BigUint::one());
        assert!(MontgomeryCtx::new(&too_wide).is_err());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(3)).is_ok());
    }

    #[test]
    fn multiplication_matches_mod_mul_at_every_width() {
        let mut rng = Drbg::from_seed([23u8; 32]);
        // 1 limb, an odd width, both dispatched widths, and one between.
        for bytes in [8usize, 40, 128, 200, 256] {
            let m = random_odd_modulus(&mut rng, bytes);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let m_minus_1 = m.sub(&BigUint::one());
            let mut operands = vec![
                BigUint::zero(),
                BigUint::one(),
                m_minus_1.clone(),
                m.clone(),
                m.add(&BigUint::from_u64(7)),
            ];
            for _ in 0..6 {
                operands.push(BigUint::from_bytes_be(&rng.bytes(bytes)));
            }
            for a in &operands {
                for b in &operands {
                    assert_eq!(
                        ctx.mod_mul(a, b).unwrap(),
                        a.mod_mul(b, &m).unwrap(),
                        "{bytes}-byte modulus"
                    );
                }
            }
        }
    }

    #[test]
    fn squaring_kernel_matches_multiplication_kernel() {
        let mut rng = Drbg::from_seed([24u8; 32]);
        for bytes in [8usize, 72, 128, 256] {
            let m = random_odd_modulus(&mut rng, bytes);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let s = ctx.limbs();
            let mut values = vec![m.sub(&BigUint::one()), BigUint::zero(), BigUint::one()];
            for _ in 0..20 {
                values.push(BigUint::from_bytes_be(&rng.bytes(bytes)));
            }
            for value in values {
                let mut squared = vec![0u64; s];
                ctx.enter_mont(&value, &mut squared).unwrap();
                let mut multiplied = squared.clone();
                let copy = squared.clone();
                ctx.sqr_assign(&mut squared);
                ctx.mul_assign(&mut multiplied, &copy);
                assert_eq!(squared, multiplied);
            }
        }
    }

    #[test]
    fn windowed_pow_matches_the_reference_ladder() {
        let mut rng = Drbg::from_seed([25u8; 32]);
        for bytes in [8usize, 32, 128] {
            let m = random_odd_modulus(&mut rng, bytes);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let m_minus_1 = m.sub(&BigUint::one());
            for exp in [
                BigUint::zero(),
                BigUint::one(),
                m_minus_1.clone(),
                BigUint::from_bytes_be(&rng.bytes(bytes)),
                // Wider than the modulus: the ladder widens with it.
                BigUint::from_bytes_be(&rng.bytes(bytes + 9)),
            ] {
                for base in [
                    BigUint::zero(),
                    BigUint::one(),
                    m_minus_1.clone(),
                    m.add(&BigUint::from_u64(2)),
                    BigUint::from_bytes_be(&rng.bytes(bytes)),
                ] {
                    assert_eq!(
                        ctx.pow(&base, &exp).unwrap(),
                        base.mod_exp(&exp, &m).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn comb_matches_the_reference_ladder_at_every_bound() {
        let mut rng = Drbg::from_seed([26u8; 32]);
        for bytes in [8usize, 40, 128] {
            let m = random_odd_modulus(&mut rng, bytes);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let base = BigUint::from_bytes_be(&rng.bytes(bytes));
            let comb = FixedBaseComb::new(&ctx, &base).unwrap();
            assert_eq!(comb.table_bytes(), 16 * 16 * ctx.limbs() * 8);
            let all_ones = BigUint::one().shl(8 * bytes).sub(&BigUint::one());
            for exp in [
                BigUint::zero(),
                BigUint::one(),
                all_ones,
                BigUint::from_bytes_be(&rng.bytes(bytes)),
                BigUint::from_bytes_be(&rng.bytes(bytes / 2)),
            ] {
                let expected = base.mod_exp(&exp, &m).unwrap();
                // Any bound gives the same value: one below the exponent's
                // own width is widened to it.
                for bound in [0, 1, 4 * bytes, 8 * bytes, 64 * bytes] {
                    assert_eq!(comb.pow(&ctx, &exp, bound), expected, "bound {bound}");
                }
            }
        }
    }

    #[test]
    fn ladders_cost_depends_on_widths_only() {
        let mut rng = Drbg::from_seed([27u8; 32]);
        let m = random_odd_modulus(&mut rng, 128);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = BigUint::from_bytes_be(&rng.bytes(128));
        let comb = FixedBaseComb::new(&ctx, &base).unwrap();
        let sparse = BigUint::one().shl(700);
        let dense = BigUint::one().shl(1023).sub(&BigUint::one());
        let random = BigUint::from_bytes_be(&rng.bytes(127));

        let (_, full) = ops::counted(|| comb.pow(&ctx, &sparse, 1024));
        assert_eq!((full.sqr, full.mul, full.table_reads), (16, 256, 256 * 16));
        for exp in [&dense, &random, &BigUint::zero()] {
            assert_eq!(ops::counted(|| comb.pow(&ctx, exp, 1024)).1, full);
        }
        // A 512-bit bound halves the multiplications, not the squarings.
        let short = BigUint::from_bytes_be(&rng.bytes(64));
        let (_, half) = ops::counted(|| comb.pow(&ctx, &short, 512));
        assert_eq!((half.sqr, half.mul, half.table_reads), (16, 128, 128 * 16));
        assert_eq!(
            ops::counted(|| comb.pow(&ctx, &BigUint::one(), 512)).1,
            half
        );

        let (_, windowed) = ops::counted(|| ctx.pow(&base, &sparse).unwrap());
        // 15 conversions/table entries, then 256 windows of 4 + 1.
        assert_eq!(
            (windowed.sqr, windowed.mul, windowed.table_reads),
            (1024, 15 + 256, 256 * 16)
        );
        for exp in [&dense, &random, &BigUint::zero()] {
            assert_eq!(ops::counted(|| ctx.pow(&base, exp).unwrap()).1, windowed);
        }
    }
}
