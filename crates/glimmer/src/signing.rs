//! The Signing component: service key provisioning and endorsement
//! verification.
//!
//! Section 3: "If validation passed, the Signing component signs the
//! user-contributed input and returns it to the client for transmission to
//! the service. The signing key used can be provided by the service, and
//! sealed (using the SGX sealing facility) to the Glimmer code, so that it is
//! only available to instances of Glimmer enclaves."
//!
//! The service generates a Schnorr key pair, hands the secret half to the
//! Glimmer over the attested channel (or out of band at enrollment), and
//! keeps the public half to verify endorsements. Inside the enclave, the
//! secret is sealed under the `MrEnclave` policy, so only the approved
//! Glimmer measurement on that platform can ever use it again.
//!
//! What is signed is [`EndorsedContribution::digest`]: SHA-256 over
//! [`EndorsedContribution::signed_bytes`], the versioned encoding of the app,
//! client, round, blinding flag and released payload. `SigningKey::sign`
//! reads its message twice, once for the deterministic nonce and once for
//! the challenge, so handing it the 32-byte digest means the enclave hashes
//! a 32 KiB payload once per endorsement rather than twice. The prehash is
//! sound as long as SHA-256 is collision resistant, the assumption
//! Ed25519ph makes (RFC 8032 §5.1): a signature on the digest transfers
//! only to another encoding with the same digest. At 128 bits that is not
//! the weakest link beside the 1024-bit group. Verification parses the
//! signature with [`VerifyingKey::verify_bytes`], so a signature re-encoded
//! under another group's tag is refused rather than accepted twice.

use crate::protocol::EndorsedContribution;
use crate::{GlimmerError, Result};
use glimmer_crypto::dh::DhGroup;
use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::schnorr::{SigningKey, VerifyingKey};

/// The key material a service provisions into Glimmers for one application.
pub struct ServiceKeyMaterial {
    signing_key: SigningKey,
}

impl ServiceKeyMaterial {
    /// Generates fresh key material for an application.
    pub fn generate(rng: &mut Drbg) -> Result<Self> {
        let signing_key = SigningKey::generate(DhGroup::default_group(), rng)?;
        Ok(ServiceKeyMaterial { signing_key })
    }

    /// The secret bytes to deliver to (and seal inside) the Glimmer.
    #[must_use]
    pub fn secret_bytes(&self) -> Vec<u8> {
        self.signing_key.secret_bytes()
    }

    /// The verifier the service keeps for itself.
    #[must_use]
    pub fn verifier(&self) -> EndorsementVerifier {
        EndorsementVerifier {
            key: self.signing_key.verifying_key().clone(),
        }
    }
}

/// Signs an endorsement's [`EndorsedContribution::digest`], which binds the
/// released payload, app, client, round, and blinding flag. Used inside the
/// enclave.
pub fn sign_endorsement(
    signing_key: &SigningKey,
    endorsement: &EndorsedContribution,
) -> Result<Vec<u8>> {
    let signature = signing_key.sign(&endorsement.digest())?;
    Ok(signature.to_bytes(signing_key.group()))
}

/// Restores a signing key from the secret bytes the service provisioned (and
/// the Glimmer unsealed).
pub fn signing_key_from_secret(secret: &[u8]) -> Result<SigningKey> {
    SigningKey::from_secret_bytes(DhGroup::default_group(), secret).map_err(GlimmerError::from)
}

/// The service-side verifier for Glimmer endorsements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EndorsementVerifier {
    key: VerifyingKey,
}

impl EndorsementVerifier {
    /// Constructs a verifier from serialized verifying-key bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(EndorsementVerifier {
            key: VerifyingKey::from_bytes(bytes)?,
        })
    }

    /// Serializes the verifying key.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.key.to_bytes()
    }

    /// Verifies an endorsed contribution's signature.
    ///
    /// Returns `Ok(())` when the endorsement is genuine; any tampering with
    /// the payload, metadata, or signature fails.
    pub fn verify(&self, endorsement: &EndorsedContribution) -> Result<()> {
        self.key
            .verify_bytes(&endorsement.digest(), &endorsement.signature)
            .map_err(GlimmerError::from)
    }
}

/// Re-encodes a `Modp1024` signature under the `Modp2048` tag with both
/// scalars zero-padded to the wider group: the same `(e, s)`, a second
/// encoding.
#[cfg(test)]
pub(crate) fn retagged_as_modp2048(signature: &[u8]) -> Vec<u8> {
    use glimmer_crypto::dh::GroupId;
    let scalar_len = (signature.len() - 1) / 2;
    let wide_len = DhGroup::new(GroupId::Modp2048).element_len();
    let mut out = vec![GroupId::Modp2048.tag()];
    for scalar in signature[1..].chunks(scalar_len) {
        out.resize(out.len() + wide_len - scalar_len, 0);
        out.extend_from_slice(scalar);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimmer_crypto::schnorr::Signature;
    use glimmer_wire::Encoder;

    fn endorsement(payload: Vec<u8>) -> EndorsedContribution {
        EndorsedContribution {
            app_id: "keyboard".to_string(),
            client_id: 11,
            round: 4,
            released_payload: payload,
            blinded: true,
            signature: Vec::new(),
        }
    }

    #[test]
    fn provision_sign_verify_round_trip() {
        let mut rng = Drbg::from_seed([3u8; 32]);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let verifier = material.verifier();

        // The Glimmer receives the secret bytes and restores the key.
        let key = signing_key_from_secret(&material.secret_bytes()).unwrap();
        let mut endorsed = endorsement(vec![1, 2, 3, 4]);
        endorsed.signature = sign_endorsement(&key, &endorsed).unwrap();

        assert!(verifier.verify(&endorsed).is_ok());

        // Verifier round-trips through serialization.
        let restored = EndorsementVerifier::from_bytes(&verifier.to_bytes()).unwrap();
        assert_eq!(restored, verifier);
        assert!(restored.verify(&endorsed).is_ok());
    }

    #[test]
    fn tampering_is_detected() {
        let mut rng = Drbg::from_seed([3u8; 32]);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let key = signing_key_from_secret(&material.secret_bytes()).unwrap();
        let verifier = material.verifier();

        let mut endorsed = endorsement(vec![9, 9, 9]);
        endorsed.signature = sign_endorsement(&key, &endorsed).unwrap();

        // Payload tampering (e.g., the service or a network attacker changes
        // the blinded vector) invalidates the endorsement.
        let mut payload_tampered = endorsed.clone();
        payload_tampered.released_payload[0] ^= 1;
        assert!(verifier.verify(&payload_tampered).is_err());

        // Replaying under a different round fails.
        let mut round_tampered = endorsed.clone();
        round_tampered.round += 1;
        assert!(verifier.verify(&round_tampered).is_err());

        // Claiming it was blinded when it was not fails.
        let mut flag_tampered = endorsed.clone();
        flag_tampered.blinded = false;
        assert!(verifier.verify(&flag_tampered).is_err());

        // Garbage signature bytes fail cleanly.
        let mut garbage = endorsed.clone();
        garbage.signature = vec![0u8; 7];
        assert!(verifier.verify(&garbage).is_err());

        // The digest covers a bulk payload to its last byte.
        let mut bulk = endorsement(vec![7u8; 32 * 1024]);
        bulk.signature = sign_endorsement(&key, &bulk).unwrap();
        assert!(verifier.verify(&bulk).is_ok());
        let mut last_byte_tampered = bulk.clone();
        *last_byte_tampered.released_payload.last_mut().unwrap() ^= 1;
        assert!(verifier.verify(&last_byte_tampered).is_err());
    }

    #[test]
    fn a_signature_retagged_for_another_group_is_refused() {
        let mut rng = Drbg::from_seed([3u8; 32]);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let key = signing_key_from_secret(&material.secret_bytes()).unwrap();
        let mut endorsed = endorsement(vec![4, 2]);
        endorsed.signature = sign_endorsement(&key, &endorsed).unwrap();

        // Same (e, s), second encoding: it must not verify a second time.
        let retagged = retagged_as_modp2048(&endorsed.signature);
        assert_eq!(retagged.len(), 513);
        assert_eq!(
            Signature::from_bytes(&retagged).unwrap().1,
            Signature::from_bytes(&endorsed.signature).unwrap().1
        );
        endorsed.signature = retagged;
        assert!(material.verifier().verify(&endorsed).is_err());
    }

    #[test]
    fn a_signature_made_the_v1_way_no_longer_verifies() {
        let mut rng = Drbg::from_seed([3u8; 32]);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let key = signing_key_from_secret(&material.secret_bytes()).unwrap();
        let mut endorsed = endorsement(vec![1, 2, 3, 4]);

        // v1 signed the whole encoding, under the v1 domain tag.
        let mut v1 = Encoder::new();
        v1.put_str("glimmer-endorsement-v1");
        v1.put_str(&endorsed.app_id);
        v1.put_u64(endorsed.client_id);
        v1.put_u64(endorsed.round);
        v1.put_bool(endorsed.blinded);
        v1.put_bytes(&endorsed.released_payload);
        endorsed.signature = key.sign(&v1.into_bytes()).unwrap().to_bytes(key.group());
        assert!(material.verifier().verify(&endorsed).is_err());

        // Nor does one over the v2 encoding itself rather than its digest.
        endorsed.signature = key
            .sign(&endorsed.signed_bytes())
            .unwrap()
            .to_bytes(key.group());
        assert!(material.verifier().verify(&endorsed).is_err());
    }

    #[test]
    fn endorsements_from_an_unapproved_key_fail() {
        let mut rng = Drbg::from_seed([3u8; 32]);
        let service_material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let verifier = service_material.verifier();

        // A malicious client signs with its own key instead of the sealed
        // service key (it never had the real one).
        let rogue_material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let rogue_key = signing_key_from_secret(&rogue_material.secret_bytes()).unwrap();
        let mut endorsed = endorsement(vec![5, 5, 5]);
        endorsed.signature = sign_endorsement(&rogue_key, &endorsed).unwrap();
        assert!(verifier.verify(&endorsed).is_err());
    }

    #[test]
    fn invalid_verifier_bytes_are_rejected() {
        assert!(EndorsementVerifier::from_bytes(&[]).is_err());
        assert!(EndorsementVerifier::from_bytes(&[1, 2, 3]).is_err());
        assert!(signing_key_from_secret(&[0u8; 8]).is_err());
    }
}
