//! Property-based tests for the cryptographic substrate.

use glimmer_crypto::aead::AeadKey;
use glimmer_crypto::bignum::BigUint;
use glimmer_crypto::chacha20::ChaCha20;
use glimmer_crypto::ct::ct_eq;
use glimmer_crypto::dh::{DhGroup, GroupId};
use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::hkdf::hkdf_expand;
use glimmer_crypto::hmac::hmac_sha256;
use glimmer_crypto::montgomery::MontgomeryCtx;
use glimmer_crypto::poly1305::{poly1305, Poly1305};
use glimmer_crypto::sha256::{sha256, Sha256};
use proptest::prelude::*;

fn big_from(v: u128) -> BigUint {
    BigUint::from_bytes_be(&v.to_be_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_incremental_equals_one_shot(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_is_deterministic_and_key_sensitive(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let a = hmac_sha256(&key, &msg);
        let b = hmac_sha256(&key, &msg);
        prop_assert_eq!(a, b);
        let mut key2 = key.clone();
        key2.push(0x55);
        prop_assert_ne!(hmac_sha256(&key2, &msg), a);
    }

    #[test]
    fn hkdf_prefix_consistency(prk in proptest::collection::vec(any::<u8>(), 32..33), info in proptest::collection::vec(any::<u8>(), 0..32), short in 1usize..64, extra in 0usize..64) {
        let long = hkdf_expand(&prk, &info, short + extra);
        let shorter = hkdf_expand(&prk, &info, short);
        prop_assert_eq!(&long[..short], &shorter[..]);
    }

    #[test]
    fn chacha20_round_trip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(), data in proptest::collection::vec(any::<u8>(), 0..512), counter in any::<u32>()) {
        let mut buf = data.clone();
        ChaCha20::new(&key, &nonce).apply(&mut buf, counter);
        ChaCha20::new(&key, &nonce).apply(&mut buf, counter);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn aead_round_trip_and_tamper(master in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(), aad in proptest::collection::vec(any::<u8>(), 0..64), pt in proptest::collection::vec(any::<u8>(), 0..256), flip in any::<usize>()) {
        let key = AeadKey::from_master(&master);
        let ct = key.seal(&nonce, &aad, &pt);
        prop_assert_eq!(key.open(&nonce, &aad, &ct).unwrap(), pt);
        let mut bad = ct.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 1;
        prop_assert!(key.open(&nonce, &aad, &bad).is_err());
    }

    #[test]
    fn ct_eq_matches_eq(a in proptest::collection::vec(any::<u8>(), 0..64), b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }

    #[test]
    fn bignum_add_sub_inverse(a in any::<u128>(), b in any::<u128>()) {
        let ba = big_from(a);
        let bb = big_from(b);
        let sum = ba.add(&bb);
        prop_assert_eq!(sum.checked_sub(&bb).unwrap(), ba.clone());
        prop_assert_eq!(sum.checked_sub(&ba).unwrap(), bb);
    }

    #[test]
    fn bignum_mul_div_identity(a in any::<u128>(), b in 1u128..) {
        let ba = big_from(a);
        let bb = big_from(b);
        let (q, r) = ba.div_rem(&bb).unwrap();
        prop_assert!(r < bb);
        prop_assert_eq!(q.mul(&bb).add(&r), ba);
    }

    #[test]
    fn bignum_mul_commutes_and_distributes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let ba = BigUint::from_u64(a);
        let bb = BigUint::from_u64(b);
        let bc = BigUint::from_u64(c);
        prop_assert_eq!(ba.mul(&bb), bb.mul(&ba));
        prop_assert_eq!(ba.mul(&bb.add(&bc)), ba.mul(&bb).add(&ba.mul(&bc)));
    }

    #[test]
    fn bignum_bytes_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let v = BigUint::from_bytes_be(&bytes);
        let round = BigUint::from_bytes_be(&v.to_bytes_be());
        prop_assert_eq!(round, v);
    }

    #[test]
    fn bignum_shift_round_trip(a in any::<u128>(), shift in 0usize..200) {
        let ba = big_from(a);
        prop_assert_eq!(ba.shl(shift).shr(shift), ba);
    }

    #[test]
    fn mod_exp_homomorphism(a in 2u64..1_000_000, e1 in 0u64..64, e2 in 0u64..64) {
        // a^(e1+e2) == a^e1 * a^e2 (mod m) for an odd modulus.
        let m = BigUint::from_u64(0xFFFF_FFFF_FFFF_FFC5); // odd 64-bit value
        let base = BigUint::from_u64(a);
        let lhs = base.mod_exp(&BigUint::from_u64(e1 + e2), &m).unwrap();
        let rhs = base
            .mod_exp(&BigUint::from_u64(e1), &m)
            .unwrap()
            .mod_mul(&base.mod_exp(&BigUint::from_u64(e2), &m).unwrap(), &m)
            .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn drbg_streams_deterministic(seed in any::<[u8; 32]>(), len in 0usize..256) {
        let mut a = Drbg::from_seed(seed);
        let mut b = Drbg::from_seed(seed);
        prop_assert_eq!(a.bytes(len), b.bytes(len));
    }
}

// The group ladders against the plain square-and-multiply reference
// (`BigUint::mod_exp`). A case costs tens of milliseconds unoptimized (the
// reference is slow on purpose), so these run fewer cases, and the 2048-bit
// group one case in four.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn comb_windowed_and_reference_ladders_agree(seed in any::<[u8; 32]>(), shape in 0usize..6, wide in 0usize..4) {
        let group = DhGroup::new(if wide == 0 { GroupId::Modp2048 } else { GroupId::Modp1024 });
        let (p, q, g) = (group.prime(), group.order(), group.generator());
        let mut rng = Drbg::from_seed(seed);
        let k = match shape {
            0 => BigUint::zero(),
            1 => BigUint::one(),
            2 => q.sub(&BigUint::one()),
            // Wider than the comb covers: reduced mod q on the way in.
            3 => BigUint::from_bytes_be(&rng.bytes(group.element_len() + 8)),
            _ => BigUint::random_below(&mut rng, q),
        };
        let reference = g.mod_exp(&k, p).unwrap();
        prop_assert_eq!(group.pow_g(&k).unwrap(), reference.clone());
        prop_assert_eq!(group.pow(g, &k).unwrap(), reference);
        // A random base, possibly above p.
        let base = BigUint::from_bytes_be(&rng.bytes(group.element_len()));
        prop_assert_eq!(group.pow(&base, &k).unwrap(), base.mod_exp(&k, p).unwrap());
    }

    #[test]
    fn montgomery_products_match_mod_mul(seed in any::<[u8; 32]>(), shape_a in 0usize..5, shape_b in 0usize..5, wide in any::<bool>()) {
        let group = DhGroup::new(if wide { GroupId::Modp2048 } else { GroupId::Modp1024 });
        let p = group.prime();
        let ctx = MontgomeryCtx::new(p).unwrap();
        let mut rng = Drbg::from_seed(seed);
        let mut operand = |shape: usize| match shape {
            0 => p.sub(&BigUint::one()),
            1 => p.clone(),
            2 => p.add(&BigUint::from_bytes_be(&rng.bytes(8))),
            3 => BigUint::from_bytes_be(&rng.bytes(group.element_len() + 16)),
            _ => BigUint::random_below(&mut rng, p),
        };
        let (a, b) = (operand(shape_a), operand(shape_b));
        let expected = a.mod_mul(&b, p).unwrap();
        prop_assert_eq!(ctx.mod_mul(&a, &b).unwrap(), expected.clone());
        prop_assert_eq!(group.mul(&a, &b).unwrap(), expected);
    }
}

/// Poly1305 straight from RFC 8439 §2.5's definition, on `BigUint`: clamp
/// `r`, accumulate `(acc + block ‖ 0x01) * r mod 2^130 - 5`, add `s`, keep
/// the low 128 bits.
fn poly1305_reference(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
    let le = |bytes: &[u8]| {
        let be: Vec<u8> = bytes.iter().rev().copied().collect();
        BigUint::from_bytes_be(&be)
    };
    let mut r = [0u8; 16];
    r.copy_from_slice(&key[..16]);
    for i in [3, 7, 11, 15] {
        r[i] &= 0x0f;
    }
    for i in [4, 8, 12] {
        r[i] &= 0xfc;
    }
    let (r, s) = (le(&r), le(&key[16..]));
    let p = BigUint::one().shl(130).sub(&BigUint::from_u64(5));
    let mut acc = BigUint::zero();
    for chunk in message.chunks(16) {
        let mut block = chunk.to_vec();
        block.push(1);
        acc = acc.add(&le(&block)).mod_mul(&r, &p).unwrap();
    }
    let tag = acc.add(&s).rem(&BigUint::one().shl(128)).unwrap();
    let mut out = [0u8; 16];
    for (o, b) in out.iter_mut().zip(tag.to_bytes_be_padded(16).iter().rev()) {
        *o = *b;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn poly1305_matches_a_bignum_reference_and_splits_freely(
        // Random, all-ones, and r = 1 (under which two all-ones blocks sum
        // to p + 3, so the final subtraction fires).
        key in (0u8..3, any::<[u8; 32]>()).prop_map(|(shape, mut key)| match shape {
            0 => key,
            1 => [0xff; 32],
            _ => {
                key[..16].copy_from_slice(&1u128.to_le_bytes());
                key
            }
        }),
        message in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..=80),
            proptest::collection::vec(any::<u8>(), 4097),
            (0usize..=80).prop_map(|len| vec![0xff; len]),
            (1usize..=3).prop_map(|blocks| vec![0xff; 16 * blocks]),
        ],
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
    ) {
        let tag = poly1305(&key, &message);
        prop_assert_eq!(tag, poly1305_reference(&key, &message));
        let (lo, hi) = {
            let (a, b) = (cut_a % (message.len() + 1), cut_b % (message.len() + 1));
            (a.min(b), a.max(b))
        };
        let mut mac = Poly1305::new(&key);
        mac.update(&message[..lo]);
        mac.update(&message[lo..hi]);
        mac.update(&message[hi..]);
        prop_assert_eq!(mac.finalize(), tag);
    }
}
