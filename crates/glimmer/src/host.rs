//! The untrusted client-side host runtime.
//!
//! The host owns the simulated SGX platform, builds the Glimmer enclave from
//! its published descriptor, and shuttles wire-encoded requests in and out of
//! the enclave. It is *untrusted* in the paper's threat model: nothing in
//! this module can read enclave state, forge endorsements, or unseal the
//! service key — those guarantees come from `sgx-sim` and are exercised by
//! the integration tests.

use crate::blinding::MaskShare;
use crate::channel::{ChannelAccept, ChannelOffer};
use crate::confidential::EncryptedPredicate;
use crate::enclave_app::{
    ChannelReportReply, ConfidentialCheckRequest, GlimmerEnclaveProgram, GlimmerStatus,
    MaskDelivery, ProvisionRequest, GLIMMER_ISV_PROD_ID,
};
use crate::protocol::{
    ecall, BatchReply, BatchRequest, Contribution, PrivateData, ProcessRequest, ProcessResponse,
    SessionAcceptRequest, SessionMaskRequest, SessionOpenRequest,
};
use crate::validation::{BotDetectorSpec, PredicateKind, PredicateSpec};
use crate::{GlimmerError, Result};
use glimmer_crypto::drbg::Drbg;
use glimmer_wire::{Decoder, Encoder, Frame, WireCodec};
use sgx_sim::enclave::NoOcalls;
use sgx_sim::{
    AttestationService, CostReport, EnclaveAttributes, EnclaveId, EnclaveImage, Measurement,
    Platform, PlatformConfig, Report,
};

/// The published, vetted description of a Glimmer build.
///
/// The descriptor plays the role of the enclave binary on real hardware: it
/// is what gets measured into MRENCLAVE, published by the vetting
/// organization ("the hash of the Glimmer is published", Section 3), and
/// checked by the verifiability policy.
#[derive(Debug, Clone, PartialEq)]
pub struct GlimmerDescriptor {
    /// Human-readable name.
    pub name: String,
    /// Version number (bumping it changes the measurement).
    pub version: u32,
    /// The application/service this Glimmer serves.
    pub app_id: String,
    /// The validation predicates, in evaluation order.
    pub predicate_specs: Vec<PredicateSpec>,
    /// Predicate kinds (derived from the specs; listed separately for policy
    /// checks and TCB accounting).
    pub predicates: Vec<PredicateKind>,
    /// Secret inputs the Glimmer is allowed to consume.
    pub secret_inputs: Vec<String>,
    /// Declared declassification points (the only ways data may leave).
    pub declassifiers: Vec<String>,
    /// Whether all loops in the (conceptual) enclave code are bounded.
    pub bounded_loops: bool,
    /// Whether the enclave code uses function pointers / dynamic dispatch.
    pub uses_function_pointers: bool,
    /// Heap pages to reserve in the EPC.
    pub heap_pages: usize,
    /// Number of TCS threads.
    pub threads: usize,
    /// The service's identity verifying key, embedded so the Glimmer can
    /// authenticate channel handshakes (empty when the channel is unused).
    pub service_verifying_key: Vec<u8>,
    /// Verdict-bit budget enforced by the output auditor per session.
    pub verdict_bit_budget: u64,
    /// Name of the vetting organization that signs this Glimmer.
    pub vetting_org: String,
}

impl GlimmerDescriptor {
    /// The default Glimmer for the predictive-keyboard service (Figures 1–3):
    /// range check plus keyboard corroboration, blinding, signing.
    #[must_use]
    pub fn keyboard_default() -> Self {
        GlimmerDescriptor {
            name: "glimmer-keyboard".to_string(),
            version: 1,
            app_id: "nextwordpredictive.com".to_string(),
            predicate_specs: vec![
                PredicateSpec::RangeCheck { min: 0.0, max: 1.0 },
                PredicateSpec::Plausibility,
                PredicateSpec::KeyboardCorroboration {
                    tolerance: 0.05,
                    min_support: 0.8,
                },
            ],
            predicates: vec![
                PredicateKind::RangeCheck,
                PredicateKind::Plausibility,
                PredicateKind::KeyboardCorroboration,
            ],
            secret_inputs: vec!["keyboard-log".to_string(), "local-model".to_string()],
            declassifiers: vec!["blinding".to_string(), "endorsement-signature".to_string()],
            bounded_loops: true,
            uses_function_pointers: false,
            heap_pages: 16,
            threads: 1,
            service_verifying_key: Vec::new(),
            verdict_bit_budget: 64,
            vetting_org: "eff".to_string(),
        }
    }

    /// A keyboard Glimmer with only the range check (the weakest predicate in
    /// the spectrum; used by the E6 ablation).
    #[must_use]
    pub fn keyboard_range_only() -> Self {
        let mut d = Self::keyboard_default();
        d.name = "glimmer-keyboard-range-only".to_string();
        d.predicate_specs = vec![PredicateSpec::RangeCheck { min: 0.0, max: 1.0 }];
        d.predicates = vec![PredicateKind::RangeCheck];
        d
    }

    /// A keyboard Glimmer with the full retraining check (the strongest,
    /// costliest predicate).
    #[must_use]
    pub fn keyboard_retrain() -> Self {
        let mut d = Self::keyboard_default();
        d.name = "glimmer-keyboard-retrain".to_string();
        d.predicate_specs = vec![
            PredicateSpec::RangeCheck { min: 0.0, max: 1.0 },
            PredicateSpec::RetrainCheck { tolerance: 1e-9 },
        ];
        d.predicates = vec![PredicateKind::RangeCheck, PredicateKind::RetrainCheck];
        d
    }

    /// The Glimmer for the photos-for-maps service.
    #[must_use]
    pub fn maps_default(expected_camera: [u8; 32]) -> Self {
        GlimmerDescriptor {
            name: "glimmer-maps".to_string(),
            version: 1,
            app_id: "crowdmaps.example".to_string(),
            predicate_specs: vec![
                PredicateSpec::RangeCheck { min: 0.0, max: 1.0 },
                PredicateSpec::PhotoLocation {
                    max_distance_km: 0.5,
                    expected_camera,
                },
            ],
            predicates: vec![PredicateKind::RangeCheck, PredicateKind::PhotoLocation],
            secret_inputs: vec!["gps-track".to_string(), "camera-fingerprint".to_string()],
            declassifiers: vec!["endorsement-signature".to_string()],
            bounded_loops: true,
            uses_function_pointers: false,
            heap_pages: 16,
            threads: 1,
            service_verifying_key: Vec::new(),
            verdict_bit_budget: 64,
            vetting_org: "eff".to_string(),
        }
    }

    /// The bot-detection Glimmer of Section 4.1: the detector arrives
    /// encrypted at runtime, so the descriptor only embeds the service key and
    /// the auditor budget.
    #[must_use]
    pub fn bot_detection_default(service_verifying_key: Vec<u8>, verdict_bit_budget: u64) -> Self {
        GlimmerDescriptor {
            name: "glimmer-botcheck".to_string(),
            version: 1,
            app_id: "webservice.example".to_string(),
            predicate_specs: vec![PredicateSpec::BotDetector(BotDetectorSpec::example())],
            predicates: vec![PredicateKind::BotDetector],
            secret_inputs: vec!["bot-signals".to_string()],
            declassifiers: vec!["bot-verdict-bit".to_string()],
            bounded_loops: true,
            uses_function_pointers: false,
            heap_pages: 8,
            threads: 1,
            service_verifying_key,
            verdict_bit_budget,
            vetting_org: "eff".to_string(),
        }
    }

    /// The Glimmer hosted remotely for IoT devices (Section 4.2).
    #[must_use]
    pub fn iot_default(service_verifying_key: Vec<u8>) -> Self {
        GlimmerDescriptor {
            name: "glimmer-iot".to_string(),
            version: 1,
            app_id: "iot-telemetry.example".to_string(),
            predicate_specs: vec![
                PredicateSpec::RangeCheck { min: 0.0, max: 1.0 },
                PredicateSpec::Plausibility,
            ],
            predicates: vec![PredicateKind::RangeCheck, PredicateKind::Plausibility],
            secret_inputs: vec!["sensor-stream".to_string()],
            declassifiers: vec!["blinding".to_string(), "endorsement-signature".to_string()],
            bounded_loops: true,
            uses_function_pointers: false,
            heap_pages: 8,
            threads: 2,
            service_verifying_key,
            verdict_bit_budget: 64,
            vetting_org: "eff".to_string(),
        }
    }

    /// The canonical measured byte encoding of the descriptor (the stand-in
    /// for the enclave binary).
    #[must_use]
    pub fn to_measured_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_str("glimmer-descriptor-v1");
        enc.put_str(&self.name);
        enc.put_u32(self.version);
        enc.put_str(&self.app_id);
        enc.put_varint(self.predicate_specs.len() as u64);
        for spec in &self.predicate_specs {
            spec.encode(&mut enc);
        }
        enc.put_varint(self.secret_inputs.len() as u64);
        for s in &self.secret_inputs {
            enc.put_str(s);
        }
        enc.put_varint(self.declassifiers.len() as u64);
        for d in &self.declassifiers {
            enc.put_str(d);
        }
        enc.put_bool(self.bounded_loops);
        enc.put_bool(self.uses_function_pointers);
        enc.put_u64(self.heap_pages as u64);
        enc.put_u64(self.threads as u64);
        enc.put_bytes(&self.service_verifying_key);
        enc.put_u64(self.verdict_bit_budget);
        enc.put_str(&self.vetting_org);
        enc.into_bytes()
    }

    /// The vetting organization's signer identity.
    #[must_use]
    pub fn signer_measurement(&self) -> Measurement {
        Measurement::of_bytes(format!("vetting-org:{}", self.vetting_org).as_bytes())
    }

    /// Builds the enclave image for this descriptor.
    #[must_use]
    pub fn build_image(&self) -> EnclaveImage {
        EnclaveImage::from_code(
            &self.to_measured_bytes(),
            self.signer_measurement(),
            EnclaveAttributes {
                debug: false,
                isv_prod_id: GLIMMER_ISV_PROD_ID,
                isv_svn: self.version as u16,
            },
            self.heap_pages,
            self.threads,
        )
    }

    /// The published measurement users and services compare attestations
    /// against.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.build_image().measurement()
    }
}

/// The client-device runtime driving a Glimmer enclave.
pub struct GlimmerClient {
    platform: Platform,
    enclave: EnclaveId,
    descriptor: GlimmerDescriptor,
}

// A client owns its platform outright, so it can move to whichever thread
// serves it — the gateway runtime relies on this to hand pool slots to
// shard workers. Not `Sync`: ECALLs take `&mut self`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<GlimmerClient>();
};

impl GlimmerClient {
    /// Creates a fresh platform and instantiates the Glimmer on it.
    pub fn new(
        descriptor: GlimmerDescriptor,
        platform_config: PlatformConfig,
        rng: &mut Drbg,
    ) -> Result<Self> {
        let platform = Platform::new(platform_config, rng);
        Self::on_platform(descriptor, platform)
    }

    /// Instantiates the Glimmer on an existing platform.
    pub fn on_platform(descriptor: GlimmerDescriptor, mut platform: Platform) -> Result<Self> {
        let image = descriptor.build_image();
        let program = Box::new(GlimmerEnclaveProgram::new(&descriptor));
        let enclave = platform.create_enclave(&image, program)?;
        Ok(GlimmerClient {
            platform,
            enclave,
            descriptor,
        })
    }

    /// The Glimmer's published measurement.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.descriptor.measurement()
    }

    /// The descriptor this client was built from.
    #[must_use]
    pub fn descriptor(&self) -> &GlimmerDescriptor {
        &self.descriptor
    }

    /// The underlying platform (for inspection).
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Accumulated simulated cost of all enclave operations so far.
    #[must_use]
    pub fn cost_report(&self) -> CostReport {
        self.platform.cost_report()
    }

    /// Provisions the platform with the attestation service so quotes can be
    /// produced.
    pub fn provision_platform(&mut self, avs: &mut AttestationService) {
        self.platform.provision(avs);
    }

    fn ecall(&mut self, selector: u16, data: &[u8]) -> Result<Vec<u8>> {
        self.platform
            .ecall(self.enclave, selector, data, &mut NoOcalls)
            .map_err(|e| match e {
                // The enclave marks aborts caused by rejected sealed or
                // AEAD-protected input (real SGX reports these as a status
                // code, not free text); surface them as the typed unseal
                // rejection so callers — the gateway's restore and encrypted
                // mask paths — can fail closed without string matching.
                sgx_sim::SgxError::EnclaveAbort(msg)
                    if msg.contains(crate::enclave_app::SEALED_REJECTED_MARKER) =>
                {
                    GlimmerError::Sgx(sgx_sim::SgxError::UnsealDenied(
                        "enclave rejected sealed or encrypted input",
                    ))
                }
                other => GlimmerError::from(other),
            })
    }

    /// Installs fresh service signing-key material; returns the sealed blob
    /// the host should persist for restarts.
    pub fn install_service_key(&mut self, secret: &[u8]) -> Result<Vec<u8>> {
        self.ecall(
            ecall::PROVISION,
            &ProvisionRequest::FreshKey(secret.to_vec()).to_wire(),
        )
    }

    /// Restores the service signing key from a previously exported sealed
    /// blob.
    pub fn restore_service_key(&mut self, sealed: &[u8]) -> Result<()> {
        self.ecall(
            ecall::PROVISION,
            &ProvisionRequest::Sealed(sealed.to_vec()).to_wire(),
        )?;
        Ok(())
    }

    /// Exports the sealed service-key blob for persistence.
    pub fn export_sealed_key(&mut self) -> Result<Vec<u8>> {
        self.ecall(ecall::EXPORT_SEALED_KEY, &[])
    }

    /// Exports the enclave's full serving state (signing key, session
    /// channel keys, masks, replay windows, auditor counters) as a sealed
    /// blob bound to `header` — the gateway's checkpoint path. Only
    /// byte-identical Glimmer code on this platform, presenting the same
    /// header, can import the result. The enclave reports its current state
    /// epoch and seals a fresh export only when the state mutated since
    /// `known_epoch` (pass `None` to force an export regardless). Returns
    /// `(state_epoch, sealed_blob)`; the blob is `None` exactly when the
    /// enclave skipped the seal — the caller's existing export for
    /// `known_epoch` is still current.
    pub fn export_state_if_newer(
        &mut self,
        header: &[u8],
        known_epoch: Option<u64>,
    ) -> Result<(u64, Option<Vec<u8>>)> {
        let mut enc = Encoder::new();
        enc.put_bytes(header);
        enc.put_bool(known_epoch.is_none());
        enc.put_u64(known_epoch.unwrap_or(0));
        let reply = self.ecall(ecall::EXPORT_STATE_IF_NEWER, enc.as_slice())?;
        let mut dec = Decoder::new(&reply);
        let state_epoch = dec.get_u64()?;
        let sealed = if dec.get_bool()? {
            Some(dec.get_bytes()?)
        } else {
            None
        };
        dec.finish()?;
        Ok((state_epoch, sealed))
    }

    /// Imports a sealed serving-state blob into this (freshly built)
    /// enclave — the gateway's restore path. A blob bound to a different
    /// snapshot header, sealed by a different measurement, or sealed on a
    /// different platform fails closed with
    /// [`sgx_sim::SgxError::UnsealDenied`].
    ///
    /// `live_sessions` is the authoritative set of session ids the caller
    /// still routes: the enclave keeps exactly those and erases any other
    /// session state the export carried (sessions closed concurrently with
    /// the checkpoint barrier are in the sealed state but not the captured
    /// table — without pruning their keys would persist forever).
    pub fn import_state(
        &mut self,
        header: &[u8],
        sealed_state: &[u8],
        live_sessions: &[u64],
    ) -> Result<()> {
        let mut enc = Encoder::new();
        enc.put_bytes(header);
        enc.put_bytes(sealed_state);
        enc.put_u64_vec(live_sessions);
        self.ecall(ecall::IMPORT_STATE, enc.as_slice())?;
        Ok(())
    }

    /// Installs a blinding mask share (plaintext delivery).
    pub fn install_mask(&mut self, mask: &MaskShare) -> Result<()> {
        self.install_mask_delivery(&MaskDelivery::plain(mask))
    }

    /// Installs a blinding mask share delivered encrypted under the attested
    /// channel.
    pub fn install_mask_delivery(&mut self, delivery: &MaskDelivery) -> Result<()> {
        self.ecall(ecall::INSTALL_MASK, &delivery.to_wire())?;
        Ok(())
    }

    /// Runs the full Glimmer pipeline over one contribution.
    pub fn process(
        &mut self,
        contribution: Contribution,
        private_data: PrivateData,
    ) -> Result<ProcessResponse> {
        let request = ProcessRequest {
            contribution,
            private_data,
        };
        let reply = self.ecall(ecall::PROCESS_CONTRIBUTION, &request.to_wire())?;
        ProcessResponse::from_wire(&reply).map_err(GlimmerError::from)
    }

    /// Starts the attested channel handshake: returns the offer to send to
    /// the service. The platform must already be provisioned for attestation.
    pub fn start_channel(&mut self) -> Result<ChannelOffer> {
        let target = self.platform.quoting_enclave_target();
        let reply = self.ecall(ecall::CHANNEL_REPORT, target.measurement.as_bytes())?;
        self.quote_offer(&reply)
    }

    /// Turns the enclave's handshake reply (DH value + report) into the
    /// offer a peer verifies: the host has the report quoted.
    fn quote_offer(&mut self, reply_bytes: &[u8]) -> Result<ChannelOffer> {
        let reply = ChannelReportReply::from_wire(reply_bytes)?;
        let report = Report::from_bytes(&reply.report)?;
        let quote = self.platform.quote_report(&report)?;
        Ok(ChannelOffer {
            app_id: self.descriptor.app_id.clone(),
            glimmer_dh_public: reply.dh_public,
            quote: quote.to_bytes(),
        })
    }

    /// Completes the attested channel with the service's response.
    pub fn complete_channel(&mut self, accept: &ChannelAccept) -> Result<()> {
        self.ecall(ecall::CHANNEL_COMPLETE, &accept.to_wire())?;
        Ok(())
    }

    /// Installs an encrypted validation predicate received from the service.
    pub fn install_encrypted_predicate(&mut self, predicate: &EncryptedPredicate) -> Result<()> {
        self.ecall(ecall::INSTALL_PREDICATE, &predicate.to_wire())?;
        Ok(())
    }

    /// Opens a session-scoped attested channel (glimmer-as-a-service, one
    /// device or many): the enclave starts a handshake bound to
    /// `session_id` and the host quotes the resulting report into an offer
    /// for the connecting device.
    pub fn open_session(&mut self, session_id: u64) -> Result<ChannelOffer> {
        let target = self.platform.quoting_enclave_target();
        let request = SessionOpenRequest {
            session_id,
            qe_measurement: target.measurement.0,
        };
        let reply = self.ecall(ecall::SESSION_OPEN, &request.to_wire())?;
        self.quote_offer(&reply)
    }

    /// Completes a session-scoped handshake with the device's response.
    pub fn accept_session(&mut self, session_id: u64, accept: &ChannelAccept) -> Result<()> {
        let request = SessionAcceptRequest {
            session_id,
            accept: accept.to_wire(),
        };
        self.ecall(ecall::SESSION_ACCEPT, &request.to_wire())?;
        Ok(())
    }

    /// Installs a blinding mask bound to `session_id`, authorizing that
    /// session to contribute as the mask's client id (pooled serving path).
    pub fn install_session_mask(&mut self, session_id: u64, mask: &MaskShare) -> Result<()> {
        self.install_session_mask_delivery(session_id, &MaskDelivery::plain(mask))
    }

    /// Installs a session-bound mask from an arbitrary delivery — in
    /// particular [`MaskDelivery::Encrypted`], sealed under the tenant's
    /// attested channel so an untrusted pool host never sees mask values.
    pub fn install_session_mask_delivery(
        &mut self,
        session_id: u64,
        delivery: &MaskDelivery,
    ) -> Result<()> {
        let request = SessionMaskRequest {
            session_id,
            delivery: delivery.to_wire(),
        };
        self.ecall(ecall::SESSION_INSTALL_MASK, &request.to_wire())?;
        Ok(())
    }

    /// Tears down a session, erasing its channel keys inside the enclave.
    pub fn close_session(&mut self, session_id: u64) -> Result<()> {
        self.ecall(ecall::SESSION_CLOSE, &session_id.to_le_bytes())?;
        Ok(())
    }

    /// Drains a whole batch of encrypted requests through the enclave in a
    /// single ECALL transition, returning one outcome per item (in order).
    /// This is the gateway's amortized serving path: the per-transition cost
    /// is paid once per batch instead of once per contribution.
    pub fn process_batch(&mut self, batch: &BatchRequest) -> Result<BatchReply> {
        let mut items = Vec::new();
        self.process_batch_into(&batch.to_wire(), &mut items)?;
        Ok(BatchReply { items })
    }

    /// The scratch-reuse variant of [`GlimmerClient::process_batch`]: takes a
    /// request already encoded in the `BatchRequest` wire format (see
    /// [`BatchRequest::encode_items_into`]) and decodes the outcomes into a
    /// caller-owned vector that is cleared, not reallocated, between drains.
    /// The gateway's shard workers own both buffers and reuse them across
    /// sweeps, so the steady-state host side of a drain allocates nothing
    /// per request.
    pub fn process_batch_into(
        &mut self,
        request_wire: &[u8],
        replies: &mut Vec<crate::protocol::BatchReplyItem>,
    ) -> Result<()> {
        let reply_bytes = self.ecall(ecall::PROCESS_BATCH, request_wire)?;
        BatchReply::decode_items_into(&reply_bytes, replies).map_err(GlimmerError::from)
    }

    /// Runs the confidential bot check and returns the audited verdict frame
    /// ready to forward to the service.
    pub fn confidential_check(
        &mut self,
        challenge: [u8; 32],
        private: PrivateData,
    ) -> Result<Frame> {
        let request = ConfidentialCheckRequest { challenge, private };
        let reply = self.ecall(ecall::CONFIDENTIAL_CHECK, &request.to_wire())?;
        Frame::from_bytes(&reply).map_err(GlimmerError::from)
    }

    /// Reads the Glimmer's provisioning status.
    pub fn status(&mut self) -> Result<GlimmerStatus> {
        let reply = self.ecall(ecall::STATUS, &[])?;
        GlimmerStatus::from_wire(&reply).map_err(GlimmerError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ContributionPayload;
    use crate::signing::ServiceKeyMaterial;

    fn rng() -> Drbg {
        Drbg::from_seed([50u8; 32])
    }

    fn keyboard_client() -> GlimmerClient {
        GlimmerClient::new(
            GlimmerDescriptor::keyboard_default(),
            PlatformConfig::default(),
            &mut rng(),
        )
        .unwrap()
    }

    #[test]
    fn descriptor_measurement_is_stable_and_version_sensitive() {
        let a = GlimmerDescriptor::keyboard_default();
        let b = GlimmerDescriptor::keyboard_default();
        assert_eq!(a.measurement(), b.measurement());
        let mut c = GlimmerDescriptor::keyboard_default();
        c.version = 2;
        assert_ne!(a.measurement(), c.measurement());
        let mut d = GlimmerDescriptor::keyboard_default();
        d.predicate_specs.pop();
        assert_ne!(a.measurement(), d.measurement());
        // Different flavours have different measurements.
        assert_ne!(
            GlimmerDescriptor::keyboard_range_only().measurement(),
            GlimmerDescriptor::keyboard_retrain().measurement()
        );
        assert_ne!(
            GlimmerDescriptor::maps_default([0u8; 32]).measurement(),
            GlimmerDescriptor::iot_default(vec![]).measurement()
        );
    }

    #[test]
    fn status_reflects_provisioning_steps() {
        let mut client = keyboard_client();
        let status = client.status().unwrap();
        assert!(!status.signing_key);
        assert!(!status.channel);
        assert_eq!(status.masks, 0);

        let material = ServiceKeyMaterial::generate(&mut rng()).unwrap();
        let sealed = client
            .install_service_key(&material.secret_bytes())
            .unwrap();
        assert!(!sealed.is_empty());
        let status = client.status().unwrap();
        assert!(status.signing_key);

        client
            .install_mask(&MaskShare {
                round: 0,
                client_id: 1,
                mask: vec![0u64; 4],
            })
            .unwrap();
        assert_eq!(client.status().unwrap().masks, 1);
        assert!(client.cost_report().ecalls >= 4);
    }

    #[test]
    fn sealed_key_export_and_restore_on_same_platform() {
        let mut client = keyboard_client();
        let material = ServiceKeyMaterial::generate(&mut rng()).unwrap();
        client
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let sealed = client.export_sealed_key().unwrap();

        // Simulate a restart: rebuild the enclave on the same platform... the
        // simplest faithful way is to restore into the same client (the blob
        // is bound to platform + measurement, both unchanged).
        client.restore_service_key(&sealed).unwrap();
        assert!(client.status().unwrap().signing_key);

        // A different platform (different fuse secrets) cannot restore the blob.
        let mut other = GlimmerClient::new(
            GlimmerDescriptor::keyboard_default(),
            PlatformConfig::default(),
            &mut Drbg::from_seed([51u8; 32]),
        )
        .unwrap();
        assert!(other.restore_service_key(&sealed).is_err());
    }

    #[test]
    fn state_export_imports_only_on_the_same_platform_with_the_same_header() {
        use sgx_sim::SgxError;
        let seed = [52u8; 32];
        let mut client = GlimmerClient::new(
            GlimmerDescriptor::keyboard_default(),
            PlatformConfig::default(),
            &mut Drbg::from_seed(seed),
        )
        .unwrap();
        let material = ServiceKeyMaterial::generate(&mut rng()).unwrap();
        client
            .install_service_key(&material.secret_bytes())
            .unwrap();
        client
            .install_mask(&MaskShare {
                round: 2,
                client_id: 9,
                mask: vec![1, 2, 3, 4],
            })
            .unwrap();
        let header = b"snapshot-header-epoch-1";
        let (_, sealed) = client.export_state_if_newer(header, None).unwrap();
        let sealed = sealed.unwrap();

        // "Reboot the machine": the identical host rng stream reproduces the
        // platform (same simulated fuse secrets), and the enclave is rebuilt
        // empty — then refilled from the sealed export in one ECALL.
        let mut restored = GlimmerClient::new(
            GlimmerDescriptor::keyboard_default(),
            PlatformConfig::default(),
            &mut Drbg::from_seed(seed),
        )
        .unwrap();
        restored.import_state(header, &sealed, &[]).unwrap();
        let status = restored.status().unwrap();
        assert!(status.signing_key);
        assert_eq!(status.masks, 1);
        // The restored signing key still works end to end.
        assert!(restored.export_sealed_key().is_ok());

        // A different snapshot header fails closed, typed.
        let mut wrong_header = GlimmerClient::new(
            GlimmerDescriptor::keyboard_default(),
            PlatformConfig::default(),
            &mut Drbg::from_seed(seed),
        )
        .unwrap();
        assert!(matches!(
            wrong_header.import_state(b"snapshot-header-epoch-2", &sealed, &[]),
            Err(GlimmerError::Sgx(SgxError::UnsealDenied(_)))
        ));

        // A different platform (different fuse secrets) fails closed, typed.
        let mut other_platform = GlimmerClient::new(
            GlimmerDescriptor::keyboard_default(),
            PlatformConfig::default(),
            &mut Drbg::from_seed([53u8; 32]),
        )
        .unwrap();
        assert!(matches!(
            other_platform.import_state(header, &sealed, &[]),
            Err(GlimmerError::Sgx(SgxError::UnsealDenied(_)))
        ));

        // A different measurement (v2 of the Glimmer) fails closed, typed.
        let mut v2_descriptor = GlimmerDescriptor::keyboard_default();
        v2_descriptor.version = 2;
        let mut other_code = GlimmerClient::new(
            v2_descriptor,
            PlatformConfig::default(),
            &mut Drbg::from_seed(seed),
        )
        .unwrap();
        assert!(matches!(
            other_code.import_state(header, &sealed, &[]),
            Err(GlimmerError::Sgx(SgxError::UnsealDenied(_)))
        ));

        // Import into an already-provisioned enclave is refused (it could
        // roll replay windows backwards).
        assert!(restored.import_state(header, &sealed, &[]).is_err());
    }

    #[test]
    fn an_export_in_a_retired_format_is_refused_typed() {
        use sgx_sim::{EnclaveEnv, EnclaveProgram, Platform, SealPolicy, SgxError};

        /// Stands in for a previous release: same measured image, same
        /// platform, but its `EXPORT_STATE` writes a retired layout (an
        /// empty enclave's, which is all the layout test needs; v2 and v3
        /// are both five tables and four counters when empty).
        struct PreviousRelease(&'static str);
        const RETIRED_EXPORT_STATE: u16 = 16; // see `protocol::ecall`
        impl EnclaveProgram for PreviousRelease {
            fn handle_ecall(
                &mut self,
                env: &mut dyn EnclaveEnv,
                _selector: u16,
                header: &[u8],
            ) -> std::result::Result<Vec<u8>, String> {
                let mut enc = Encoder::new();
                enc.put_str(self.0);
                enc.put_bool(false); // no service key
                enc.put_bool(false); // no channel
                for _empty_table in 0..5 {
                    enc.put_varint(0);
                }
                for _counter in 0..4 {
                    enc.put_u64(0);
                }
                env.seal(SealPolicy::MrEnclave, header, enc.as_slice())
                    .map(|blob| blob.to_bytes())
                    .map_err(|e| e.to_string())
            }
        }

        let seed = [58u8; 32];
        let descriptor = GlimmerDescriptor::keyboard_default();
        let header = b"snapshot-header-epoch-1";
        for retired_tag in ["glimmer-enclave-state-v2", "glimmer-enclave-state-v3"] {
            let mut old_platform =
                Platform::new(PlatformConfig::default(), &mut Drbg::from_seed(seed));
            let old_enclave = old_platform
                .create_enclave(
                    &descriptor.build_image(),
                    Box::new(PreviousRelease(retired_tag)),
                )
                .unwrap();
            let sealed = old_platform
                .ecall(old_enclave, RETIRED_EXPORT_STATE, header, &mut NoOcalls)
                .unwrap();

            // Same machine, same measurement, same header: the blob unseals —
            // and is then refused for its format, as a typed denial rather than
            // a misparse or a string to match on.
            let mut client = GlimmerClient::new(
                descriptor.clone(),
                PlatformConfig::default(),
                &mut Drbg::from_seed(seed),
            )
            .unwrap();
            assert!(
                matches!(
                    client.import_state(header, &sealed, &[]),
                    Err(GlimmerError::Sgx(SgxError::UnsealDenied(_)))
                ),
                "{retired_tag}"
            );
            // Nothing was installed by the refused import.
            assert!(!client.status().unwrap().signing_key);
        }
    }

    #[test]
    fn a_retired_selector_is_unknown_to_a_live_enclave() {
        const RETIRED_PROCESS_ENCRYPTED: u16 = 10; // see `protocol::ecall`
        let mut client = keyboard_client();
        let refusal = client.ecall(RETIRED_PROCESS_ENCRYPTED, &[0u8; 64]);
        assert!(
            matches!(
                &refusal,
                Err(GlimmerError::Sgx(sgx_sim::SgxError::EnclaveAbort(msg)))
                    if msg.contains("unknown ECALL selector 10")
            ),
            "{refusal:?}"
        );
    }

    #[test]
    fn export_if_newer_skips_idle_state_and_resumes_across_restores() {
        let seed = [57u8; 32];
        let mut client = GlimmerClient::new(
            GlimmerDescriptor::keyboard_default(),
            PlatformConfig::default(),
            &mut Drbg::from_seed(seed),
        )
        .unwrap();
        let material = ServiceKeyMaterial::generate(&mut rng()).unwrap();
        client
            .install_service_key(&material.secret_bytes())
            .unwrap();

        // A forced export always seals, and reports the current epoch.
        let header = b"base-header";
        let (epoch, sealed) = client.export_state_if_newer(header, None).unwrap();
        let sealed = sealed.expect("forced export must seal");
        assert!(epoch > 0, "provisioning must have bumped the state epoch");

        // Nothing mutated since: the enclave skips the seal entirely.
        let (epoch2, skipped) = client.export_state_if_newer(header, Some(epoch)).unwrap();
        assert_eq!(epoch2, epoch);
        assert!(skipped.is_none());

        // A mutation (even this mask install) advances the epoch, so the
        // same handshake now produces a fresh sealed export.
        client
            .install_mask(&MaskShare {
                round: 1,
                client_id: 4,
                mask: vec![9, 9],
            })
            .unwrap();
        let (epoch3, resealed) = client.export_state_if_newer(header, Some(epoch)).unwrap();
        assert!(epoch3 > epoch);
        assert!(resealed.is_some());

        // A restored enclave continues the exporting incarnation's epoch:
        // the first post-restore delta can still skip idle state.
        let mut restored = GlimmerClient::new(
            GlimmerDescriptor::keyboard_default(),
            PlatformConfig::default(),
            &mut Drbg::from_seed(seed),
        )
        .unwrap();
        restored.import_state(header, &sealed, &[]).unwrap();
        let (epoch4, skipped) = restored.export_state_if_newer(header, Some(epoch)).unwrap();
        assert_eq!(epoch4, epoch);
        assert!(skipped.is_none());
    }

    #[test]
    fn import_keeps_exactly_the_live_session_set() {
        use crate::remote::IotDeviceSession;
        let seed = [54u8; 32];
        let mut avs = AttestationService::new([55u8; 32]);
        let mut client = GlimmerClient::new(
            GlimmerDescriptor::iot_default(Vec::new()),
            PlatformConfig::default(),
            &mut Drbg::from_seed(seed),
        )
        .unwrap();
        client.provision_platform(&mut avs);
        let material = ServiceKeyMaterial::generate(&mut rng()).unwrap();
        client
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let approved = client.measurement();
        let mut dev_rng = Drbg::from_seed([56u8; 32]);
        for sid in [1u64, 2] {
            let offer = client.open_session(sid).unwrap();
            let (accept, _session) =
                IotDeviceSession::connect(&offer, &avs, &approved, &mut dev_rng).unwrap();
            client.accept_session(sid, &accept).unwrap();
        }
        assert_eq!(client.status().unwrap().sessions, 2);
        let header = b"snapshot-header";
        let (_, sealed) = client.export_state_if_newer(header, None).unwrap();
        let sealed = sealed.unwrap();

        // A session can be closed concurrently with a gateway checkpoint
        // barrier: present in the sealed export, absent from the captured
        // table. Import keeps exactly the caller's live set and erases the
        // orphan's keys instead of carrying them across restarts forever.
        let mut restored = GlimmerClient::new(
            GlimmerDescriptor::iot_default(Vec::new()),
            PlatformConfig::default(),
            &mut Drbg::from_seed(seed),
        )
        .unwrap();
        restored.import_state(header, &sealed, &[2]).unwrap();
        assert_eq!(restored.status().unwrap().sessions, 1);
        assert!(restored.status().unwrap().signing_key);
    }

    #[test]
    fn processing_without_key_or_mask_is_refused() {
        let mut client = keyboard_client();
        let contribution = Contribution {
            app_id: "nextwordpredictive.com".to_string(),
            client_id: 3,
            round: 0,
            payload: ContributionPayload::ModelUpdate {
                weights: vec![0.0; 4],
            },
        };
        // Without a blinding mask the Glimmer refuses to release private data.
        let material = ServiceKeyMaterial::generate(&mut rng()).unwrap();
        client
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let response = client
            .process(
                contribution.clone(),
                PrivateData::KeyboardLog { sentences: vec![] },
            )
            .unwrap();
        assert!(
            matches!(response, ProcessResponse::Rejected { ref reason } if reason.contains("mask"))
        );

        // Without a signing key processing aborts.
        let mut unprovisioned = keyboard_client();
        unprovisioned
            .install_mask(&MaskShare {
                round: 0,
                client_id: 3,
                mask: vec![0u64; 4],
            })
            .unwrap();
        let err =
            unprovisioned.process(contribution, PrivateData::KeyboardLog { sentences: vec![] });
        assert!(err.is_err());
    }
}
