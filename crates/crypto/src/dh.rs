//! Finite-field Diffie-Hellman key agreement.
//!
//! Section 4.1 of the paper establishes a secure channel between the service
//! and the Glimmer by binding Diffie-Hellman handshake values to an SGX
//! attestation. This module provides the group arithmetic and key agreement;
//! the attestation binding lives in `glimmer-core::channel`.
//!
//! Groups are the well-known MODP groups (RFC 2409 group 2 and RFC 3526
//! group 14). Both primes are safe primes `p = 2q + 1`; the generator used
//! here is `4 = 2^2`, a quadratic residue, so it generates the prime-order-`q`
//! subgroup, which is what the Schnorr signatures in [`crate::schnorr`]
//! require.

use crate::bignum::BigUint;
use crate::drbg::Drbg;
use crate::hkdf::hkdf;
use crate::montgomery::{FixedBaseComb, MontgomeryCtx};
use crate::CryptoError;
use std::sync::OnceLock;

/// RFC 2409 (Oakley group 2) 1024-bit prime, in hex.
const MODP_1024_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
     020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
     4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
     EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF";

/// RFC 3526 (group 14) 2048-bit prime, in hex.
const MODP_2048_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
     020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
     4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
     EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
     98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
     9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
     E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
     3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

/// A named Diffie-Hellman group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupId {
    /// 1024-bit MODP group (RFC 2409 group 2). Fast; used by default in
    /// tests and simulations.
    Modp1024,
    /// 2048-bit MODP group (RFC 3526 group 14).
    Modp2048,
}

impl GroupId {
    /// Stable one-byte tag used in hashes and wire messages.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            GroupId::Modp1024 => 1,
            GroupId::Modp2048 => 2,
        }
    }

    /// Parses a tag back into a group id.
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(GroupId::Modp1024),
            2 => Some(GroupId::Modp2048),
            _ => None,
        }
    }
}

/// Everything a group's arithmetic needs, built once per process and then
/// only read: the safe prime `p`, the subgroup order `q = (p-1)/2`, the
/// generator `g = 4`, the Montgomery context for `p`, and the fixed-base
/// comb table for `g` (32 KiB for the 1024-bit group, 64 KiB for the
/// 2048-bit one; about 0.4 ms and 3 ms to build).
struct GroupParams {
    id: GroupId,
    p: BigUint,
    q: BigUint,
    g: BigUint,
    p_minus_1: BigUint,
    mont: MontgomeryCtx,
    comb: FixedBaseComb,
}

impl GroupParams {
    fn build(id: GroupId) -> Self {
        let p = BigUint::from_hex(match id {
            GroupId::Modp1024 => MODP_1024_HEX,
            GroupId::Modp2048 => MODP_2048_HEX,
        })
        .expect("built-in group constants are valid hex");
        let p_minus_1 = p.sub(&BigUint::one());
        let g = BigUint::from_u64(4);
        let mont = MontgomeryCtx::new(&p).expect("built-in primes are odd and at most 2048 bits");
        let comb = FixedBaseComb::new(&mont, &g).expect("the generator is below the prime");
        GroupParams {
            id,
            q: p_minus_1.shr(1),
            p,
            g,
            p_minus_1,
            mont,
            comb,
        }
    }

    /// The process-wide parameters of `id`, built on first use.
    fn get(id: GroupId) -> &'static GroupParams {
        static MODP_1024: OnceLock<GroupParams> = OnceLock::new();
        static MODP_2048: OnceLock<GroupParams> = OnceLock::new();
        match id {
            GroupId::Modp1024 => &MODP_1024,
            GroupId::Modp2048 => &MODP_2048,
        }
        .get_or_init(|| GroupParams::build(id))
    }
}

/// A handle on a group's process-wide parameters: a safe prime `p`, the
/// subgroup order `q = (p-1)/2`, and the generator `g = 4` of the order-`q`
/// subgroup. Cheap to create and to clone.
#[derive(Clone)]
pub struct DhGroup {
    params: &'static GroupParams,
}

impl DhGroup {
    /// Returns the group with the given id.
    #[must_use]
    pub fn new(id: GroupId) -> Self {
        DhGroup {
            params: GroupParams::get(id),
        }
    }

    /// The default group used across the reproduction (1024-bit; fast enough
    /// for simulation while exercising the full code path).
    #[must_use]
    pub fn default_group() -> Self {
        Self::new(GroupId::Modp1024)
    }

    /// Group identifier.
    #[must_use]
    pub fn id(&self) -> GroupId {
        self.params.id
    }

    /// The prime modulus `p`.
    #[must_use]
    pub fn prime(&self) -> &BigUint {
        &self.params.p
    }

    /// The subgroup order `q`.
    #[must_use]
    pub fn order(&self) -> &BigUint {
        &self.params.q
    }

    /// The generator `g`.
    #[must_use]
    pub fn generator(&self) -> &BigUint {
        &self.params.g
    }

    /// Size of a serialized group element in bytes.
    #[must_use]
    pub fn element_len(&self) -> usize {
        self.params.p.bit_len().div_ceil(8)
    }

    /// Computes `g^exponent mod p` on the fixed-base comb, at a cost that
    /// is the same for every exponent below `p`.
    pub fn pow_g(&self, exponent: &BigUint) -> Result<BigUint, CryptoError> {
        self.pow_g_bounded(exponent, 64 * self.params.mont.limbs())
    }

    /// [`Self::pow_g`] for an exponent the caller knows — from public
    /// facts, not from its value — to be at most `exponent_bits` wide, which
    /// skips the comb's all-zero high blocks.
    pub(crate) fn pow_g_bounded(
        &self,
        exponent: &BigUint,
        exponent_bits: usize,
    ) -> Result<BigUint, CryptoError> {
        let params = self.params;
        // Wider than the comb covers (never a valid scalar): g has order q.
        let reduced;
        let exponent = if exponent.limbs().len() > params.mont.limbs() {
            reduced = exponent.rem(&params.q)?;
            &reduced
        } else {
            exponent
        };
        Ok(params.comb.pow(&params.mont, exponent, exponent_bits))
    }

    /// Computes `base^exponent mod p` on the windowed ladder, at a cost
    /// that is the same for every exponent below `p`.
    pub fn pow(&self, base: &BigUint, exponent: &BigUint) -> Result<BigUint, CryptoError> {
        self.params.mont.pow(base, exponent)
    }

    /// Computes `a * b mod p`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> Result<BigUint, CryptoError> {
        self.params.mont.mod_mul(a, b)
    }

    /// Checks that an element is in the valid range `(1, p-1)`.
    ///
    /// With `strict` set, additionally verifies membership in the order-`q`
    /// subgroup (one extra exponentiation).
    pub fn check_element(&self, element: &BigUint, strict: bool) -> Result<(), CryptoError> {
        if element <= &BigUint::one() || element >= &self.params.p_minus_1 {
            return Err(CryptoError::OutOfRange("DH element outside (1, p-1)"));
        }
        if strict && self.pow(element, &self.params.q)? != BigUint::one() {
            return Err(CryptoError::OutOfRange(
                "DH element not in prime-order subgroup",
            ));
        }
        Ok(())
    }

    /// Samples a uniform scalar in `[1, q)`.
    #[must_use]
    pub fn random_scalar(&self, rng: &mut Drbg) -> BigUint {
        BigUint::random_nonzero_below(rng, &self.params.q)
    }

    /// Reduces arbitrary bytes into a scalar modulo `q`.
    pub fn scalar_from_bytes(&self, bytes: &[u8]) -> Result<BigUint, CryptoError> {
        BigUint::from_bytes_be(bytes).rem(&self.params.q)
    }
}

impl core::fmt::Debug for DhGroup {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DhGroup")
            .field("id", &self.params.id)
            .field("bits", &self.params.p.bit_len())
            .finish()
    }
}

/// A Diffie-Hellman secret exponent.
#[derive(Clone)]
pub struct DhSecret {
    scalar: BigUint,
}

impl DhSecret {
    /// Access the raw scalar (used by the Schnorr module and tests).
    #[must_use]
    pub fn scalar(&self) -> &BigUint {
        &self.scalar
    }
}

/// A Diffie-Hellman public value `g^x mod p`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DhPublic {
    element: BigUint,
}

impl DhPublic {
    /// Serializes the public value as fixed-width big-endian bytes.
    #[must_use]
    pub fn to_bytes(&self, group: &DhGroup) -> Vec<u8> {
        self.element.to_bytes_be_padded(group.element_len())
    }

    /// Parses a public value, checking it is in range for the group.
    pub fn from_bytes(group: &DhGroup, bytes: &[u8]) -> Result<Self, CryptoError> {
        let element = BigUint::from_bytes_be(bytes);
        group.check_element(&element, false)?;
        Ok(DhPublic { element })
    }

    /// Access the raw group element.
    #[must_use]
    pub fn element(&self) -> &BigUint {
        &self.element
    }
}

/// An ephemeral or static Diffie-Hellman key pair.
pub struct DhKeyPair {
    group: DhGroup,
    secret: DhSecret,
    public: DhPublic,
}

impl DhKeyPair {
    /// Generates a key pair in `group` using `rng`.
    pub fn generate(group: DhGroup, rng: &mut Drbg) -> Result<Self, CryptoError> {
        let scalar = group.random_scalar(rng);
        Self::from_scalar(group, scalar)
    }

    /// The key pair of secret `scalar`, which must be in `[1, q)`.
    pub(crate) fn from_scalar(group: DhGroup, scalar: BigUint) -> Result<Self, CryptoError> {
        let element = group.pow_g(&scalar)?;
        Ok(DhKeyPair {
            group,
            secret: DhSecret { scalar },
            public: DhPublic { element },
        })
    }

    /// The group this key pair belongs to.
    #[must_use]
    pub fn group(&self) -> &DhGroup {
        &self.group
    }

    /// The public half.
    #[must_use]
    pub fn public(&self) -> &DhPublic {
        &self.public
    }

    /// The secret half.
    #[must_use]
    pub fn secret(&self) -> &DhSecret {
        &self.secret
    }

    /// Computes the raw shared group element with a peer public value.
    pub fn shared_element(&self, peer: &DhPublic) -> Result<BigUint, CryptoError> {
        self.group.check_element(&peer.element, false)?;
        self.group.pow(&peer.element, &self.secret.scalar)
    }

    /// Derives `len` bytes of shared key material bound to `context`.
    ///
    /// Both sides of the handshake derive identical output when they use the
    /// same context string.
    pub fn derive_shared_key(
        &self,
        peer: &DhPublic,
        context: &[u8],
        len: usize,
    ) -> Result<Vec<u8>, CryptoError> {
        let shared = self.shared_element(peer)?;
        let ikm = shared.to_bytes_be_padded(self.group.element_len());
        Ok(hkdf(b"glimmers-dh-v1", &ikm, context, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Drbg {
        Drbg::from_seed([33u8; 32])
    }

    #[test]
    fn the_precomputed_tables_stay_within_64_kib() {
        let table_bytes = |id| DhGroup::new(id).params.comb.table_bytes();
        assert_eq!(table_bytes(GroupId::Modp1024), 32 * 1024);
        assert_eq!(table_bytes(GroupId::Modp2048), 64 * 1024);
    }

    #[test]
    fn group_parameters_are_consistent() {
        for id in [GroupId::Modp1024, GroupId::Modp2048] {
            let group = DhGroup::new(id);
            assert_eq!(group.id(), id);
            // p = 2q + 1.
            assert_eq!(
                group.order().shl(1).add(&BigUint::one()),
                group.prime().clone()
            );
            // The generator is in the prime-order subgroup.
            assert!(group.check_element(group.generator(), true).is_ok());
            assert_eq!(GroupId::from_tag(id.tag()), Some(id));
        }
        assert_eq!(DhGroup::new(GroupId::Modp1024).prime().bit_len(), 1024);
        assert_eq!(DhGroup::new(GroupId::Modp2048).prime().bit_len(), 2048);
        assert_eq!(GroupId::from_tag(99), None);
    }

    #[test]
    fn key_agreement_matches() {
        let group = DhGroup::default_group();
        let mut r = rng();
        let alice = DhKeyPair::generate(group.clone(), &mut r).unwrap();
        let bob = DhKeyPair::generate(group.clone(), &mut r).unwrap();

        let k_ab = alice.derive_shared_key(bob.public(), b"ctx", 32).unwrap();
        let k_ba = bob.derive_shared_key(alice.public(), b"ctx", 32).unwrap();
        assert_eq!(k_ab, k_ba);
        assert_eq!(k_ab.len(), 32);

        // Different context gives a different key.
        let k_other = alice.derive_shared_key(bob.public(), b"other", 32).unwrap();
        assert_ne!(k_ab, k_other);

        // A third party derives a different key.
        let eve = DhKeyPair::generate(group, &mut r).unwrap();
        let k_eve = eve.derive_shared_key(alice.public(), b"ctx", 32).unwrap();
        assert_ne!(k_ab, k_eve);
    }

    #[test]
    fn public_value_round_trip() {
        let group = DhGroup::default_group();
        let mut r = rng();
        let kp = DhKeyPair::generate(group.clone(), &mut r).unwrap();
        let bytes = kp.public().to_bytes(&group);
        assert_eq!(bytes.len(), group.element_len());
        let parsed = DhPublic::from_bytes(&group, &bytes).unwrap();
        assert_eq!(&parsed, kp.public());
    }

    #[test]
    fn invalid_elements_rejected() {
        let group = DhGroup::default_group();
        // 0, 1, p-1, and p are all invalid.
        assert!(group.check_element(&BigUint::zero(), false).is_err());
        assert!(group.check_element(&BigUint::one(), false).is_err());
        let p_minus_1 = group.prime().sub(&BigUint::one());
        assert!(group.check_element(&p_minus_1, false).is_err());
        assert!(group.check_element(group.prime(), false).is_err());
        // 2 generates the full group (order 2q), not the prime-order subgroup,
        // when 2 is a non-residue; strict check still accepts it if it happens
        // to be a residue, so instead check a known non-member: g * (p-1)
        // which equals -g and has order 2q.
        let minus_g = group
            .prime()
            .sub(&BigUint::one())
            .mod_mul(group.generator(), group.prime())
            .unwrap();
        assert!(group.check_element(&minus_g, true).is_err());
        assert!(group.check_element(&minus_g, false).is_ok());
        // Parsing rejects out-of-range bytes.
        assert!(DhPublic::from_bytes(&group, &[0u8]).is_err());
    }

    #[test]
    fn scalars_are_in_range() {
        let group = DhGroup::default_group();
        let mut r = rng();
        for _ in 0..10 {
            let s = group.random_scalar(&mut r);
            assert!(!s.is_zero());
            assert!(&s < group.order());
        }
        let reduced = group.scalar_from_bytes(&[0xFFu8; 200]).unwrap();
        assert!(&reduced < group.order());
    }

    #[test]
    fn deterministic_generation() {
        let group = DhGroup::default_group();
        let a = DhKeyPair::generate(group.clone(), &mut Drbg::from_seed([1u8; 32])).unwrap();
        let b = DhKeyPair::generate(group, &mut Drbg::from_seed([1u8; 32])).unwrap();
        assert_eq!(a.public(), b.public());
    }
}
