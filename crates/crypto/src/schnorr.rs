//! Schnorr signatures over the MODP prime-order subgroups of [`crate::dh`].
//!
//! The Glimmer's Signing component endorses validated contributions with a
//! key provided by the service and sealed to the Glimmer's measurement
//! (Section 3). The service then verifies the endorsement before accepting a
//! contribution into the aggregate. Signatures are also used by the service
//! to authenticate its Diffie-Hellman handshake values in Section 4.1.
//!
//! The scheme is classic Schnorr over a subgroup of prime order `q`:
//!
//! * keygen: secret `x` uniform in `[1, q)`, public `y = g^x mod p`
//! * sign: nonce `k`, commitment `r = g^k`, challenge `e = H(id || r || m) mod q`,
//!   response `s = k + x·e mod q`; the signature is `(e, s)`
//! * verify: recompute `r' = g^s · y^{-e}` and accept iff `H(id || r' || m) ≡ e`
//!
//! The nonce is derived deterministically from the secret key and message
//! (RFC 6979 style) so that enclave code does not need an entropy source at
//! signing time and can never reuse a nonce across different messages.

use crate::bignum::BigUint;
use crate::dh::{DhGroup, GroupId};
use crate::drbg::Drbg;
use crate::hmac::{hmac_sha256, HmacSha256};
use crate::sha256::Sha256;
use crate::CryptoError;

/// Width of the deterministic signing nonce before reduction mod `q`: two
/// HMAC-SHA-256 outputs. Both groups' orders are wider, so it is also the
/// width of the nonce itself.
const NONCE_BITS: usize = 512;

/// A Schnorr signature: the challenge `e` and response `s`, both scalars
/// modulo the group order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    e: BigUint,
    s: BigUint,
}

impl Signature {
    /// Serializes as `group_tag || e || s` with fixed-width scalars.
    #[must_use]
    pub fn to_bytes(&self, group: &DhGroup) -> Vec<u8> {
        let scalar_len = group.element_len();
        let mut out = Vec::with_capacity(1 + 2 * scalar_len);
        out.push(group.id().tag());
        out.extend_from_slice(&self.e.to_bytes_be_padded(scalar_len));
        out.extend_from_slice(&self.s.to_bytes_be_padded(scalar_len));
        out
    }

    /// Parses a signature serialized by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<(GroupId, Self), CryptoError> {
        if bytes.is_empty() {
            return Err(CryptoError::InvalidLength {
                got: 0,
                expected: 1,
            });
        }
        let id = GroupId::from_tag(bytes[0])
            .ok_or(CryptoError::OutOfRange("unknown signature group tag"))?;
        let group = DhGroup::new(id);
        let scalar_len = group.element_len();
        let expected = 1 + 2 * scalar_len;
        if bytes.len() != expected {
            return Err(CryptoError::InvalidLength {
                got: bytes.len(),
                expected,
            });
        }
        let e = BigUint::from_bytes_be(&bytes[1..1 + scalar_len]);
        let s = BigUint::from_bytes_be(&bytes[1 + scalar_len..]);
        Ok((id, Signature { e, s }))
    }
}

/// A Schnorr signing key.
pub struct SigningKey {
    group: DhGroup,
    x: BigUint,
    public: VerifyingKey,
}

/// A Schnorr verification (public) key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyingKey {
    group_id: GroupId,
    y: BigUint,
}

impl SigningKey {
    /// Generates a fresh signing key in `group`.
    pub fn generate(group: DhGroup, rng: &mut Drbg) -> Result<Self, CryptoError> {
        let x = group.random_scalar(rng);
        Self::from_scalar(group, x)
    }

    /// Reconstructs a signing key from its secret scalar bytes (big-endian).
    ///
    /// This is how a Glimmer enclave restores the service-provided signing key
    /// after unsealing it from sealed storage.
    pub fn from_secret_bytes(group: DhGroup, bytes: &[u8]) -> Result<Self, CryptoError> {
        let x = BigUint::from_bytes_be(bytes).rem(group.order())?;
        if x.is_zero() {
            return Err(CryptoError::OutOfRange("signing key scalar is zero"));
        }
        Self::from_scalar(group, x)
    }

    pub(crate) fn from_scalar(group: DhGroup, x: BigUint) -> Result<Self, CryptoError> {
        let y = group.pow_g(&x)?;
        let public = VerifyingKey {
            group_id: group.id(),
            y,
        };
        Ok(SigningKey { group, x, public })
    }

    /// The secret scalar as fixed-width bytes (for sealing).
    #[must_use]
    pub fn secret_bytes(&self) -> Vec<u8> {
        self.x.to_bytes_be_padded(self.group.element_len())
    }

    /// The corresponding verification key.
    #[must_use]
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.public
    }

    /// The group of this key.
    #[must_use]
    pub fn group(&self) -> &DhGroup {
        &self.group
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Result<Signature, CryptoError> {
        // Deterministic nonce: k = HMAC(x, message || counter) reduced mod q,
        // retried if zero. The counter only advances on the (astronomically
        // unlikely) zero case.
        let key_bytes = self.secret_bytes();
        let mut counter = 0u8;
        let k = loop {
            let mut mac = HmacSha256::new(&key_bytes);
            mac.update(message);
            mac.update(&[counter]);
            let digest = mac.finalize();
            // Widen the nonce beyond 256 bits by expanding twice, so the
            // reduction mod q is statistically close to uniform.
            let digest2 = hmac_sha256(&key_bytes, &digest);
            let mut wide = [0u8; NONCE_BITS / 8];
            wide[..32].copy_from_slice(&digest);
            wide[32..].copy_from_slice(&digest2);
            let candidate = BigUint::from_bytes_be(&wide).rem(self.group.order())?;
            if !candidate.is_zero() {
                break candidate;
            }
            counter = counter.wrapping_add(1);
        };
        self.sign_with_nonce(&k, message)
    }

    /// The signature over `message` under nonce `k`, which must be below
    /// `2^NONCE_BITS` and below `q`.
    pub(crate) fn sign_with_nonce(
        &self,
        k: &BigUint,
        message: &[u8],
    ) -> Result<Signature, CryptoError> {
        // The nonce is a 512-bit string whatever its value, so the comb
        // only walks the blocks 512 bits can reach.
        let r = self.group.pow_g_bounded(k, NONCE_BITS)?;
        let e = challenge(&self.group, &r, message)?;
        // s = k + x * e mod q.
        let xe = self.x.mod_mul(&e, self.group.order())?;
        let s = k.mod_add(&xe, self.group.order())?;
        Ok(Signature { e, s })
    }
}

impl VerifyingKey {
    /// The group this key belongs to.
    #[must_use]
    pub fn group(&self) -> DhGroup {
        DhGroup::new(self.group_id)
    }

    /// Serializes as `group_tag || y` with a fixed-width element.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let group = self.group();
        let mut out = Vec::with_capacity(1 + group.element_len());
        out.push(self.group_id.tag());
        out.extend_from_slice(&self.y.to_bytes_be_padded(group.element_len()));
        out
    }

    /// Parses a verification key serialized by [`VerifyingKey::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.is_empty() {
            return Err(CryptoError::InvalidLength {
                got: 0,
                expected: 1,
            });
        }
        let group_id = GroupId::from_tag(bytes[0])
            .ok_or(CryptoError::OutOfRange("unknown verifying key group tag"))?;
        let group = DhGroup::new(group_id);
        if bytes.len() != 1 + group.element_len() {
            return Err(CryptoError::InvalidLength {
                got: bytes.len(),
                expected: 1 + group.element_len(),
            });
        }
        let y = BigUint::from_bytes_be(&bytes[1..]);
        group.check_element(&y, false)?;
        Ok(VerifyingKey { group_id, y })
    }

    /// Verifies `signature` over `message`.
    ///
    /// Returns `Ok(())` on success and [`CryptoError::VerificationFailed`]
    /// otherwise.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let group = self.group();
        let q = group.order();
        if &signature.e >= q || &signature.s >= q {
            return Err(CryptoError::VerificationFailed);
        }
        // r' = g^s * y^(q - e) mod p  (y has order q, so y^(q-e) = y^{-e}).
        let neg_e = q.sub(&signature.e);
        let gs = group.pow_g(&signature.s)?;
        let y_neg_e = group.pow(&self.y, &neg_e)?;
        let r_prime = group.mul(&gs, &y_neg_e)?;
        let e_prime = challenge(&group, &r_prime, message)?;
        if e_prime == signature.e {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }

    /// Parses a signature serialized by [`Signature::to_bytes`] and
    /// verifies it over `message`.
    ///
    /// A signature whose group tag is not this key's group fails, even
    /// when its scalars would verify: otherwise a signature re-tagged for
    /// a wider group, with both scalars zero-padded, would be a second
    /// valid encoding of the same signature.
    pub fn verify_bytes(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        let (group_id, signature) = Signature::from_bytes(signature)?;
        if group_id != self.group_id {
            return Err(CryptoError::VerificationFailed);
        }
        self.verify(message, &signature)
    }
}

/// Fiat-Shamir challenge: `H(group_tag || r || message) mod q`.
fn challenge(group: &DhGroup, r: &BigUint, message: &[u8]) -> Result<BigUint, CryptoError> {
    let mut h = Sha256::new();
    h.update(&[group.id().tag()]);
    h.update(&r.to_bytes_be_padded(group.element_len()));
    h.update(message);
    let digest = h.finalize();
    BigUint::from_bytes_be(&digest).rem(group.order())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Drbg {
        Drbg::from_seed([41u8; 32])
    }

    fn test_key() -> SigningKey {
        SigningKey::generate(DhGroup::default_group(), &mut rng()).unwrap()
    }

    #[test]
    fn sign_verify_round_trip() {
        let key = test_key();
        let msg = b"validated contribution bytes";
        let sig = key.sign(msg).unwrap();
        assert!(key.verifying_key().verify(msg, &sig).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = test_key();
        let sig = key.sign(b"message A").unwrap();
        assert_eq!(
            key.verifying_key().verify(b"message B", &sig),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let key = test_key();
        let other =
            SigningKey::generate(DhGroup::default_group(), &mut Drbg::from_seed([99u8; 32]))
                .unwrap();
        let sig = key.sign(b"msg").unwrap();
        assert!(other.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = test_key();
        let sig = key.sign(b"msg").unwrap();
        let tampered = Signature {
            e: sig.e.clone(),
            s: sig.s.add(&BigUint::one()).rem(key.group().order()).unwrap(),
        };
        assert!(key.verifying_key().verify(b"msg", &tampered).is_err());
        // Out-of-range scalars are rejected outright.
        let oversized = Signature {
            e: key.group().order().clone(),
            s: sig.s,
        };
        assert!(key.verifying_key().verify(b"msg", &oversized).is_err());
    }

    #[test]
    fn signature_serialization_round_trip() {
        let key = test_key();
        let sig = key.sign(b"serialize me").unwrap();
        let bytes = sig.to_bytes(key.group());
        let (id, parsed) = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(id, GroupId::Modp1024);
        assert_eq!(parsed, sig);
        assert!(Signature::from_bytes(&[]).is_err());
        assert!(Signature::from_bytes(&[9u8; 10]).is_err());
        assert!(Signature::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn verifying_key_serialization_round_trip() {
        let key = test_key();
        let bytes = key.verifying_key().to_bytes();
        let parsed = VerifyingKey::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, key.verifying_key());
        let sig = key.sign(b"endorse").unwrap();
        assert!(parsed.verify(b"endorse", &sig).is_ok());
        assert!(VerifyingKey::from_bytes(&[]).is_err());
        assert!(VerifyingKey::from_bytes(&[7u8; 3]).is_err());
    }

    #[test]
    fn key_restore_from_sealed_bytes() {
        let key = test_key();
        let secret = key.secret_bytes();
        let restored = SigningKey::from_secret_bytes(DhGroup::default_group(), &secret).unwrap();
        assert_eq!(restored.verifying_key(), key.verifying_key());
        let sig = restored.sign(b"resealed").unwrap();
        assert!(key.verifying_key().verify(b"resealed", &sig).is_ok());
        // A zero scalar is rejected.
        assert!(SigningKey::from_secret_bytes(DhGroup::default_group(), &[0u8; 16]).is_err());
    }

    #[test]
    fn deterministic_signatures() {
        let key = test_key();
        let s1 = key.sign(b"same message").unwrap();
        let s2 = key.sign(b"same message").unwrap();
        assert_eq!(s1, s2);
        let s3 = key.sign(b"different message").unwrap();
        assert_ne!(s1, s3);
    }

    #[test]
    fn cross_group_signatures() {
        // Signing in the 2048-bit group also works (slower; single case).
        let group = DhGroup::new(GroupId::Modp2048);
        let key = SigningKey::generate(group, &mut rng()).unwrap();
        let sig = key.sign(b"big group").unwrap();
        assert!(key.verifying_key().verify(b"big group", &sig).is_ok());
        let bytes = sig.to_bytes(key.group());
        let (id, parsed) = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(id, GroupId::Modp2048);
        assert_eq!(parsed, sig);
    }
}
