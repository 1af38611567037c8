//! Constant-time helpers, and the check that the secret-exponent paths
//! built on them run an exponent-independent operation sequence.
//!
//! The Glimmer signing and sealing paths compare MACs and signatures produced
//! over attacker-influenced data; a naive early-exit comparison would leak the
//! position of the first mismatching byte through timing. [`ct_eq`] compares
//! two byte slices in time that depends only on their length.

/// Compares two byte slices in constant time (for equal-length inputs).
///
/// Returns `false` immediately if the lengths differ; the length of a MAC or
/// signature is public, so this early exit does not leak secret data.
///
/// # Examples
///
/// ```
/// use glimmer_crypto::ct::ct_eq;
/// assert!(ct_eq(b"abc", b"abc"));
/// assert!(!ct_eq(b"abc", b"abd"));
/// assert!(!ct_eq(b"abc", b"abcd"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// Selects `a` if `choice` is 1 and `b` if `choice` is 0, without branching.
///
/// `choice` must be 0 or 1; any other value produces an unspecified mix of the
/// two inputs (but never panics).
#[must_use]
pub fn ct_select_u64(choice: u8, a: u64, b: u64) -> u64 {
    let mask = (choice as u64).wrapping_neg();
    (a & mask) | (b & !mask)
}

/// All-ones if `a == b`, zero otherwise, without branching.
///
/// The exponentiation ladders use this to keep one entry of a scanned table.
#[must_use]
pub fn ct_eq_mask(a: u64, b: u64) -> u64 {
    let diff = a ^ b;
    // The top bit of `diff | -diff` is set exactly when `diff != 0`.
    ((diff | diff.wrapping_neg()) >> 63).wrapping_sub(1)
}

/// Zeroes a buffer.
///
/// Rust has no portable guarantee that the compiler will not elide the writes,
/// but using a volatile-style loop through `core::hint::black_box` makes
/// elision unlikely. Sealing keys and blinding values are wiped with this
/// after use.
pub fn wipe(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        *b = 0;
    }
    core::hint::black_box(&buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_basic() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2]));
    }

    #[test]
    fn select_picks_correct_value() {
        assert_eq!(ct_select_u64(1, 7, 9), 7);
        assert_eq!(ct_select_u64(0, 7, 9), 9);
    }

    #[test]
    fn eq_mask_is_all_or_nothing() {
        assert_eq!(ct_eq_mask(0, 0), u64::MAX);
        assert_eq!(ct_eq_mask(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(ct_eq_mask(5, 4), 0);
        assert_eq!(ct_eq_mask(0, 1 << 63), 0);
    }

    /// Every path that raises to a *secret* exponent — `pow_g` (key
    /// generation, signing), `shared_element` (key agreement), `sign` —
    /// must perform the same multiplications, squarings and table-entry
    /// reads whatever the exponent's bits. A ladder that skipped work on a
    /// zero bit or a zero digit would count fewer operations for the
    /// weight-1 exponent than for the all-ones one.
    #[test]
    fn secret_exponent_paths_cost_the_same_at_every_hamming_weight() {
        use crate::bignum::BigUint;
        use crate::dh::{DhGroup, DhKeyPair, GroupId};
        use crate::drbg::Drbg;
        use crate::montgomery::ops::counted;
        use crate::schnorr::SigningKey;

        let mut rng = Drbg::from_seed([77u8; 32]);
        for id in [GroupId::Modp1024, GroupId::Modp2048] {
            let group = DhGroup::new(id);
            let n = group.order().bit_len();
            // Hamming weight 1 (twice), about n/2, and n - 1; all below q.
            let scalars = [
                BigUint::one(),
                BigUint::one().shl(n - 1),
                group.random_scalar(&mut rng),
                BigUint::one().shl(n - 1).sub(&BigUint::one()),
            ];

            let costs: Vec<_> = scalars
                .iter()
                .map(|x| counted(|| group.pow_g(x).unwrap()).1)
                .collect();
            assert!(costs.iter().all(|c| *c == costs[0]), "pow_g: {costs:?}");
            assert!(costs[0].mul > 0 && costs[0].sqr > 0 && costs[0].table_reads > 0);

            let peer = DhKeyPair::generate(group.clone(), &mut rng).unwrap();
            let costs: Vec<_> = scalars
                .iter()
                .map(|x| {
                    let pair = DhKeyPair::from_scalar(group.clone(), x.clone()).unwrap();
                    counted(|| pair.shared_element(peer.public()).unwrap()).1
                })
                .collect();
            assert!(
                costs.iter().all(|c| *c == costs[0]),
                "shared_element: {costs:?}"
            );

            // Signing: every weight of nonce under every weight of key.
            let nonces = [
                BigUint::one(),
                BigUint::one().shl(511),
                BigUint::from_bytes_be(&rng.bytes(64)),
                BigUint::one().shl(512).sub(&BigUint::one()),
            ];
            let mut costs = Vec::new();
            for x in &scalars {
                let key = SigningKey::from_scalar(group.clone(), x.clone()).unwrap();
                for k in &nonces {
                    costs.push(counted(|| key.sign_with_nonce(k, b"message").unwrap()).1);
                }
                costs.push(counted(|| key.sign(b"another message").unwrap()).1);
            }
            assert!(costs.iter().all(|c| *c == costs[0]), "sign: {costs:?}");
        }
    }

    #[test]
    fn wipe_zeroes() {
        let mut buf = [0xAAu8; 16];
        wipe(&mut buf);
        assert_eq!(buf, [0u8; 16]);
    }
}
