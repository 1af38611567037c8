//! The attested secure channel between the service and the Glimmer.
//!
//! Section 4.1: "This can be accomplished using remote attestation, which
//! enables data, such as Diffie-Hellman (DH) handshake values, to be bound to
//! code running in an enclave. This would assert to the service that the DH
//! handshake is occurring with a legitimate Glimmer. Similarly, the Glimmer
//! would need to ensure that the DH handshake is occurring with a legitimate
//! service, which can be accomplished by the service signing its DH handshake
//! values and embedding the signature verification key in the Glimmer code."
//!
//! The channel is established in two messages:
//!
//! 1. [`ChannelOffer`] (Glimmer → service): the Glimmer's ephemeral DH public
//!    value plus an SGX quote whose report data binds a hash of that value
//!    and the application id.
//! 2. [`ChannelAccept`] (service → Glimmer): the service's ephemeral DH public
//!    value, signed (together with the Glimmer's value) by the service
//!    identity key that is embedded in the Glimmer descriptor.
//!
//! Both sides then derive directional AEAD keys and a shared MAC key.

use crate::{GlimmerError, Result};
use glimmer_crypto::aead::AeadKey;
use glimmer_crypto::dh::{DhGroup, DhKeyPair, DhPublic};
use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::schnorr::{SigningKey, VerifyingKey};
use glimmer_crypto::sha256::sha256_concat;
use glimmer_wire::{Decoder, Encoder, WireCodec, WireError};
use sgx_sim::{AttestationService, Measurement, Quote};

/// Error alias used by channel operations.
pub type ChannelError = GlimmerError;

/// The Glimmer's opening handshake message.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelOffer {
    /// Application id the channel is for.
    pub app_id: String,
    /// The Glimmer's ephemeral DH public value.
    pub glimmer_dh_public: Vec<u8>,
    /// Serialized SGX quote binding `sha256(glimmer_dh_public || app_id)` in
    /// its report data.
    pub quote: Vec<u8>,
}

impl WireCodec for ChannelOffer {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.app_id);
        enc.put_bytes(&self.glimmer_dh_public);
        enc.put_bytes(&self.quote);
    }

    fn decode(dec: &mut Decoder<'_>) -> core::result::Result<Self, WireError> {
        Ok(ChannelOffer {
            app_id: dec.get_str()?,
            glimmer_dh_public: dec.get_bytes()?,
            quote: dec.get_bytes()?,
        })
    }
}

/// The service's handshake response.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelAccept {
    /// The service's ephemeral DH public value.
    pub service_dh_public: Vec<u8>,
    /// Service signature over the handshake transcript.
    pub signature: Vec<u8>,
}

impl WireCodec for ChannelAccept {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(&self.service_dh_public);
        enc.put_bytes(&self.signature);
    }

    fn decode(dec: &mut Decoder<'_>) -> core::result::Result<Self, WireError> {
        Ok(ChannelAccept {
            service_dh_public: dec.get_bytes()?,
            signature: dec.get_bytes()?,
        })
    }
}

/// The symmetric keys both ends hold once the channel is up.
#[derive(Clone)]
pub struct ChannelKeys {
    /// AEAD key for service → Glimmer messages (encrypted predicates).
    pub service_to_glimmer: AeadKey,
    /// AEAD key for Glimmer → service messages.
    pub glimmer_to_service: AeadKey,
    /// MAC key for verdict authentication.
    pub mac_key: [u8; 32],
}

/// Byte length of a [`ChannelKeys::export_bytes`] encoding.
pub const CHANNEL_KEYS_EXPORT_LEN: usize = 64 + 64 + 32;

impl ChannelKeys {
    /// Exports the working key material (160 bytes) for sealed persistence.
    ///
    /// The DH secrets the keys were derived from are ephemeral and erased
    /// after the handshake, so a checkpointed enclave can only persist the
    /// *derived* keys. The export must go straight into a sealed blob — it
    /// is exactly the session's channel security.
    #[must_use]
    pub fn export_bytes(&self) -> [u8; CHANNEL_KEYS_EXPORT_LEN] {
        let mut out = [0u8; CHANNEL_KEYS_EXPORT_LEN];
        out[..64].copy_from_slice(&self.service_to_glimmer.export_bytes());
        out[64..128].copy_from_slice(&self.glimmer_to_service.export_bytes());
        out[128..].copy_from_slice(&self.mac_key);
        out
    }

    /// Rebuilds channel keys from [`ChannelKeys::export_bytes`] output
    /// (the unseal side of a checkpoint restore).
    pub fn from_export(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != CHANNEL_KEYS_EXPORT_LEN {
            return Err(GlimmerError::Protocol("channel key export length"));
        }
        let mut s2g = [0u8; 64];
        let mut g2s = [0u8; 64];
        let mut mac_key = [0u8; 32];
        s2g.copy_from_slice(&bytes[..64]);
        g2s.copy_from_slice(&bytes[64..128]);
        mac_key.copy_from_slice(&bytes[128..]);
        Ok(ChannelKeys {
            service_to_glimmer: AeadKey::from_export(&s2g),
            glimmer_to_service: AeadKey::from_export(&g2s),
            mac_key,
        })
    }
}

/// Binds the Glimmer DH public value and app id into 64 bytes of report data.
#[must_use]
pub fn report_data_for(glimmer_dh_public: &[u8], app_id: &str) -> [u8; 64] {
    let digest = sha256_concat(&[b"glimmer-channel-v1", glimmer_dh_public, app_id.as_bytes()]);
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(&digest);
    out
}

fn transcript(app_id: &str, glimmer_pub: &[u8], service_pub: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_str("glimmer-channel-transcript-v1");
    enc.put_str(app_id);
    enc.put_bytes(glimmer_pub);
    enc.put_bytes(service_pub);
    enc.into_bytes()
}

fn derive_channel_keys(keypair: &DhKeyPair, peer: &DhPublic, app_id: &str) -> Result<ChannelKeys> {
    let material =
        keypair.derive_shared_key(peer, format!("glimmer-channel:{app_id}").as_bytes(), 96)?;
    let mut s2g = [0u8; 32];
    let mut g2s = [0u8; 32];
    let mut mac = [0u8; 32];
    s2g.copy_from_slice(&material[..32]);
    g2s.copy_from_slice(&material[32..64]);
    mac.copy_from_slice(&material[64..]);
    Ok(ChannelKeys {
        service_to_glimmer: AeadKey::from_master(&s2g),
        glimmer_to_service: AeadKey::from_master(&g2s),
        mac_key: mac,
    })
}

/// The Glimmer-side handshake state (lives inside the enclave).
pub struct GlimmerChannel {
    app_id: String,
    keypair: DhKeyPair,
}

impl GlimmerChannel {
    /// Starts a handshake: generates the ephemeral key pair.
    pub fn start(app_id: &str, rng: &mut Drbg) -> Result<Self> {
        let keypair = DhKeyPair::generate(DhGroup::default_group(), rng)?;
        Ok(GlimmerChannel {
            app_id: app_id.to_string(),
            keypair,
        })
    }

    /// The DH public value to place in the offer.
    #[must_use]
    pub fn public_bytes(&self) -> Vec<u8> {
        self.keypair.public().to_bytes(self.keypair.group())
    }

    /// The report data to bind into the attestation report.
    #[must_use]
    pub fn report_data(&self) -> [u8; 64] {
        report_data_for(&self.public_bytes(), &self.app_id)
    }

    /// Completes the handshake *without* authenticating the peer.
    ///
    /// Used by glimmer-as-a-service (Section 4.2), where the IoT device
    /// authenticates the Glimmer through attestation but the Glimmer does not
    /// need to know who the device is: "the client device needs to establish
    /// that it is sending its private data to a genuine Glimmer". The
    /// resulting channel still provides confidentiality and integrity against
    /// the untrusted remote host.
    pub fn complete_unauthenticated(self, accept: &ChannelAccept) -> Result<ChannelKeys> {
        let peer = DhPublic::from_bytes(self.keypair.group(), &accept.service_dh_public)?;
        derive_channel_keys(&self.keypair, &peer, &self.app_id)
    }

    /// Completes the handshake with the service's response, verifying the
    /// service signature against the key embedded in the Glimmer descriptor.
    pub fn complete(
        self,
        accept: &ChannelAccept,
        service_verifying_key: &VerifyingKey,
    ) -> Result<ChannelKeys> {
        let transcript = transcript(
            &self.app_id,
            &self.public_bytes(),
            &accept.service_dh_public,
        );
        service_verifying_key
            .verify_bytes(&transcript, &accept.signature)
            .map_err(|_| {
                GlimmerError::Channel("service handshake signature invalid".to_string())
            })?;
        let peer = DhPublic::from_bytes(self.keypair.group(), &accept.service_dh_public)?;
        derive_channel_keys(&self.keypair, &peer, &self.app_id)
    }
}

/// The service-side view of an established attested channel.
pub struct AttestedChannel {
    /// The keys shared with the attested Glimmer.
    pub keys: ChannelKeys,
    /// The attested Glimmer measurement (as vouched for by the AVS).
    pub glimmer_measurement: Measurement,
    /// The platform the Glimmer runs on.
    pub platform_id: sgx_sim::PlatformId,
}

impl AttestedChannel {
    /// Service-side handshake: verifies the offer's quote against the
    /// attestation service and the approved Glimmer measurement, checks the
    /// binding between the quote and the DH value, and produces the signed
    /// response plus the shared keys.
    pub fn respond(
        offer: &ChannelOffer,
        avs: &AttestationService,
        approved_measurement: &Measurement,
        service_signing_key: &SigningKey,
        rng: &mut Drbg,
    ) -> Result<(ChannelAccept, AttestedChannel)> {
        let quote = Quote::from_bytes(&offer.quote).map_err(GlimmerError::from)?;
        let report = avs
            .verify_expecting(&quote, approved_measurement)
            .map_err(GlimmerError::from)?;
        let expected = report_data_for(&offer.glimmer_dh_public, &offer.app_id);
        if report.report_data != expected {
            return Err(GlimmerError::Channel(
                "quote does not bind the offered DH value".to_string(),
            ));
        }

        let keypair = DhKeyPair::generate(DhGroup::default_group(), rng)?;
        let service_pub = keypair.public().to_bytes(keypair.group());
        let transcript = transcript(&offer.app_id, &offer.glimmer_dh_public, &service_pub);
        let signature = service_signing_key
            .sign(&transcript)?
            .to_bytes(service_signing_key.group());

        let glimmer_pub = DhPublic::from_bytes(keypair.group(), &offer.glimmer_dh_public)?;
        let keys = derive_channel_keys(&keypair, &glimmer_pub, &offer.app_id)?;
        Ok((
            ChannelAccept {
                service_dh_public: service_pub,
                signature,
            },
            AttestedChannel {
                keys,
                glimmer_measurement: report.measurement,
                platform_id: report.platform_id,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::attestation::{QuoteBody, ReportBody};
    use sgx_sim::{EnclaveAttributes, PlatformId};

    struct Setup {
        avs: AttestationService,
        platform_key: [u8; 32],
        platform_id: PlatformId,
        glimmer_measurement: Measurement,
        service_key: SigningKey,
        rng: Drbg,
    }

    fn setup() -> Setup {
        let mut avs = AttestationService::new([9u8; 32]);
        let platform_id = PlatformId([4u8; 16]);
        let platform_key = avs.provision(platform_id, 2);
        let mut rng = Drbg::from_seed([8u8; 32]);
        let service_key = SigningKey::generate(DhGroup::default_group(), &mut rng).unwrap();
        Setup {
            avs,
            platform_key,
            platform_id,
            glimmer_measurement: Measurement::of_bytes(b"approved glimmer"),
            service_key,
            rng,
        }
    }

    /// Builds a quote the way the platform's quoting enclave would, for a
    /// Glimmer that bound `report_data`.
    fn make_quote(s: &Setup, report_data: [u8; 64]) -> Vec<u8> {
        let body = QuoteBody {
            report: ReportBody {
                platform_id: s.platform_id,
                measurement: s.glimmer_measurement,
                signer: Measurement::of_bytes(b"eff"),
                attributes: EnclaveAttributes::default(),
                report_data,
            },
            platform_tcb_svn: 2,
        };
        Quote::create(&s.platform_key, body).to_bytes()
    }

    #[test]
    fn full_handshake_derives_matching_keys() {
        let mut s = setup();
        let mut glimmer_rng = Drbg::from_seed([77u8; 32]);
        let glimmer = GlimmerChannel::start("botcheck", &mut glimmer_rng).unwrap();
        let offer = ChannelOffer {
            app_id: "botcheck".to_string(),
            glimmer_dh_public: glimmer.public_bytes(),
            quote: make_quote(&s, glimmer.report_data()),
        };
        // Offer survives the wire.
        let offer = ChannelOffer::from_wire(&offer.to_wire()).unwrap();

        let (accept, service_channel) = AttestedChannel::respond(
            &offer,
            &s.avs,
            &s.glimmer_measurement,
            &s.service_key,
            &mut s.rng,
        )
        .unwrap();
        let accept = ChannelAccept::from_wire(&accept.to_wire()).unwrap();

        let glimmer_keys = glimmer
            .complete(&accept, s.service_key.verifying_key())
            .unwrap();

        // Both directions agree: what the service encrypts, the glimmer opens.
        let nonce = [1u8; 12];
        let ct =
            service_channel
                .keys
                .service_to_glimmer
                .seal(&nonce, b"predicate", b"secret detector");
        assert_eq!(
            glimmer_keys
                .service_to_glimmer
                .open(&nonce, b"predicate", &ct)
                .unwrap(),
            b"secret detector"
        );
        let ct = glimmer_keys
            .glimmer_to_service
            .seal(&nonce, b"verdict", b"\x01");
        assert_eq!(
            service_channel
                .keys
                .glimmer_to_service
                .open(&nonce, b"verdict", &ct)
                .unwrap(),
            b"\x01"
        );
        assert_eq!(glimmer_keys.mac_key, service_channel.keys.mac_key);
        assert_eq!(service_channel.glimmer_measurement, s.glimmer_measurement);
        assert_eq!(service_channel.platform_id, s.platform_id);
    }

    #[test]
    fn service_rejects_wrong_measurement_and_unbound_quotes() {
        let mut s = setup();
        let mut glimmer_rng = Drbg::from_seed([78u8; 32]);
        let glimmer = GlimmerChannel::start("botcheck", &mut glimmer_rng).unwrap();
        let offer = ChannelOffer {
            app_id: "botcheck".to_string(),
            glimmer_dh_public: glimmer.public_bytes(),
            quote: make_quote(&s, glimmer.report_data()),
        };

        // Wrong approved measurement.
        assert!(AttestedChannel::respond(
            &offer,
            &s.avs,
            &Measurement::of_bytes(b"some other enclave"),
            &s.service_key,
            &mut s.rng,
        )
        .is_err());

        // Quote that does not bind the DH value (malicious host swapped keys).
        let mut other_rng = Drbg::from_seed([79u8; 32]);
        let mitm = GlimmerChannel::start("botcheck", &mut other_rng).unwrap();
        let swapped = ChannelOffer {
            app_id: "botcheck".to_string(),
            glimmer_dh_public: mitm.public_bytes(),
            quote: make_quote(&s, glimmer.report_data()),
        };
        let err = AttestedChannel::respond(
            &swapped,
            &s.avs,
            &s.glimmer_measurement,
            &s.service_key,
            &mut s.rng,
        );
        assert!(matches!(err, Err(GlimmerError::Channel(_))));

        // Garbage quote bytes.
        let garbage = ChannelOffer {
            quote: vec![1, 2, 3],
            ..offer
        };
        assert!(AttestedChannel::respond(
            &garbage,
            &s.avs,
            &s.glimmer_measurement,
            &s.service_key,
            &mut s.rng,
        )
        .is_err());
    }

    #[test]
    fn glimmer_rejects_forged_service_response() {
        let mut s = setup();
        let mut glimmer_rng = Drbg::from_seed([80u8; 32]);
        let glimmer = GlimmerChannel::start("botcheck", &mut glimmer_rng).unwrap();
        let offer = ChannelOffer {
            app_id: "botcheck".to_string(),
            glimmer_dh_public: glimmer.public_bytes(),
            quote: make_quote(&s, glimmer.report_data()),
        };
        // A man-in-the-middle "service" with its own key responds.
        let rogue_key = SigningKey::generate(DhGroup::default_group(), &mut s.rng).unwrap();
        let (rogue_accept, _) = AttestedChannel::respond(
            &offer,
            &s.avs,
            &s.glimmer_measurement,
            &rogue_key,
            &mut s.rng,
        )
        .unwrap();
        // The Glimmer checks against the embedded legitimate service key.
        assert!(glimmer
            .complete(&rogue_accept, s.service_key.verifying_key())
            .is_err());
    }

    #[test]
    fn glimmer_rejects_a_service_signature_retagged_for_another_group() {
        let mut s = setup();
        let mut glimmer_rng = Drbg::from_seed([81u8; 32]);
        let glimmer = GlimmerChannel::start("botcheck", &mut glimmer_rng).unwrap();
        let offer = ChannelOffer {
            app_id: "botcheck".to_string(),
            glimmer_dh_public: glimmer.public_bytes(),
            quote: make_quote(&s, glimmer.report_data()),
        };
        let (mut accept, _) = AttestedChannel::respond(
            &offer,
            &s.avs,
            &s.glimmer_measurement,
            &s.service_key,
            &mut s.rng,
        )
        .unwrap();
        // The genuine signature, re-encoded: same scalars, another tag.
        accept.signature = crate::signing::retagged_as_modp2048(&accept.signature);
        assert!(matches!(
            glimmer.complete(&accept, s.service_key.verifying_key()),
            Err(GlimmerError::Channel(_))
        ));
    }

    #[test]
    fn report_data_binding_is_input_sensitive() {
        let a = report_data_for(b"dh-public-A", "app");
        let b = report_data_for(b"dh-public-B", "app");
        let c = report_data_for(b"dh-public-A", "other-app");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(&a[32..], &[0u8; 32]);
    }
}
