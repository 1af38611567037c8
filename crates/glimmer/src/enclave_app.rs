//! The Glimmer enclave program (Figure 3).
//!
//! This is the code that runs *inside* the (simulated) SGX enclave on the
//! client device. It wires the three components of the paper's design —
//! Validation, Blinding, Signing — behind a handful of ECALLs, plus the
//! Section 4.1 extensions (attested service channel, encrypted predicate,
//! audited 1-bit verdicts) and the Section 4.2 device sessions (one record
//! per session; the only encrypted request path, whether the host serves
//! one device or a pool's worth). Everything in this file is part of the
//! trusted computing base accounted for in Experiment E10; it deliberately
//! avoids OCALLs so the Glimmer "runs mostly in isolation" as Section 3
//! requires. ARCHITECTURE.md, "The enclave program", groups the selectors
//! by principal and lays out the state export.

use crate::auditor::OutputAuditor;
use crate::blinding::MaskShare;
use crate::channel::{ChannelAccept, ChannelKeys, GlimmerChannel};
use crate::confidential::{open_predicate, BotVerdict, EncryptedPredicate};
use crate::host::GlimmerDescriptor;
use crate::protocol::{
    ecall, BatchOutcome, BatchReplyItem, BatchRequestView, EndorsedContribution, PrivateData,
    ProcessRequest, ProcessResponse, SessionAcceptRequest, SessionMaskRequest, SessionOpenRequest,
};
use crate::replay::{request_counter, ReplayWindow};
use crate::signing::{sign_endorsement, signing_key_from_secret};
use crate::validation::{AllOf, BotDetector, ValidationPredicate};
use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::schnorr::{SigningKey, VerifyingKey};
use glimmer_federated::fixed::encode_weights;
use glimmer_wire::{Decoder, Encoder, WireCodec, WireError};
use sgx_sim::{EnclaveEnv, EnclaveProgram, SealPolicy, SealedBlob, TargetInfo};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Product id carried in the Glimmer enclave's attributes.
pub const GLIMMER_ISV_PROD_ID: u16 = 0x6C17;

/// Most sessions a single Glimmer enclave will hold channels for at once
/// (bounds enclave memory; the gateway shards across pool slots well before
/// this).
pub const MAX_SESSIONS_PER_ENCLAVE: usize = 4096;

/// Most items accepted in one `PROCESS_BATCH` ECALL.
pub const MAX_BATCH_ITEMS: usize = 4096;

/// Most requests one session may have accepted. A session that submits
/// more than this must be reopened (fresh keys). Replay state is a
/// fixed-size [`ReplayWindow`] per session whatever this is set to; the cap
/// bounds how much one key encrypts, not memory.
pub const MAX_NONCES_PER_SESSION: usize = 16_384;

/// Associated data under which the service signing key is sealed.
const SERVICE_KEY_AAD: &[u8] = b"glimmer-service-signing-key-v1";

/// Marker prefix the enclave puts on abort messages caused by rejected
/// sealed/encrypted input (AEAD authentication failures, AAD mismatches,
/// cross-identity unseals). Real SGX surfaces these as a distinct status
/// code; the simulator's ecall error channel is a string, so the host
/// runtime ([`crate::host::GlimmerClient`]) recognizes this marker and maps
/// the abort back to the typed [`sgx_sim::SgxError::UnsealDenied`].
pub const SEALED_REJECTED_MARKER: &str = "[sealed-rejected]";

/// Version tag leading every serialized enclave-state export; bumping it
/// makes older sealed exports fail import (closed) instead of misparsing.
/// (v3 replaced v2's per-session list of every request nonce by the
/// fixed-size replay window; v4 writes one section per session instead of
/// four tables keyed by session id.)
const STATE_EXPORT_TAG: &str = "glimmer-enclave-state-v4";

/// Provisioning request: either fresh secret key bytes from the service, or a
/// previously exported sealed blob to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvisionRequest {
    /// Fresh secret signing-key bytes (delivered at enrollment or over the
    /// attested channel).
    FreshKey(Vec<u8>),
    /// A sealed blob previously exported by this Glimmer on this platform.
    Sealed(Vec<u8>),
}

impl WireCodec for ProvisionRequest {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ProvisionRequest::FreshKey(bytes) => {
                enc.put_u8(0);
                enc.put_bytes(bytes);
            }
            ProvisionRequest::Sealed(bytes) => {
                enc.put_u8(1);
                enc.put_bytes(bytes);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(ProvisionRequest::FreshKey(dec.get_bytes()?)),
            1 => Ok(ProvisionRequest::Sealed(dec.get_bytes()?)),
            other => Err(WireError::UnknownTag(other.into())),
        }
    }
}

/// Mask installation request: plaintext (trusted delivery in simulations) or
/// encrypted under the attested channel's service→Glimmer key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaskDelivery {
    /// Plaintext mask share.
    Plain(MaskShare),
    /// AEAD-encrypted mask share (nonce plus ciphertext of the plain encoding).
    Encrypted {
        /// AEAD nonce.
        nonce: [u8; 12],
        /// Ciphertext+tag of a `Plain` encoding.
        ciphertext: Vec<u8>,
    },
}

impl MaskDelivery {
    /// Builds a plaintext delivery from a mask share.
    #[must_use]
    pub fn plain(share: &MaskShare) -> Self {
        MaskDelivery::Plain(share.clone())
    }

    /// Encrypts a mask share under a channel key (what the blinding service
    /// does after the attested handshake).
    #[must_use]
    pub fn encrypted(
        share: &MaskShare,
        key: &glimmer_crypto::aead::AeadKey,
        nonce: [u8; 12],
    ) -> Self {
        let plain = MaskDelivery::plain(share).to_wire();
        MaskDelivery::Encrypted {
            nonce,
            ciphertext: key.seal(&nonce, b"glimmer-mask-v1", &plain),
        }
    }

    /// The delivered share; an encrypted delivery is opened under the
    /// service channel's keys.
    fn open(self, channel: Option<&ChannelKeys>) -> Result<MaskShare, String> {
        match self {
            MaskDelivery::Plain(share) => Ok(share),
            MaskDelivery::Encrypted { nonce, ciphertext } => {
                let channel = channel.ok_or("encrypted mask requires an established channel")?;
                let plain = channel
                    .service_to_glimmer
                    .open(&nonce, b"glimmer-mask-v1", &ciphertext)
                    .map_err(|e| format!("{SEALED_REJECTED_MARKER} mask delivery rejected: {e}"))?;
                match MaskDelivery::from_wire(&plain).map_err(|e| e.to_string())? {
                    MaskDelivery::Plain(share) => Ok(share),
                    MaskDelivery::Encrypted { .. } => Err("nested encrypted mask".to_string()),
                }
            }
        }
    }
}

impl WireCodec for MaskDelivery {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            MaskDelivery::Plain(share) => {
                enc.put_u8(0);
                share.encode(enc);
            }
            MaskDelivery::Encrypted { nonce, ciphertext } => {
                enc.put_u8(1);
                enc.put_raw(nonce);
                enc.put_bytes(ciphertext);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(MaskDelivery::Plain(MaskShare::decode(dec)?)),
            1 => {
                let raw = dec.get_raw(12)?;
                let mut nonce = [0u8; 12];
                nonce.copy_from_slice(&raw);
                Ok(MaskDelivery::Encrypted {
                    nonce,
                    ciphertext: dec.get_bytes()?,
                })
            }
            other => Err(WireError::UnknownTag(other.into())),
        }
    }
}

/// Request for a confidential bot check: the service challenge plus the
/// private signals collected on the client.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidentialCheckRequest {
    /// Challenge nonce from the service (replay protection).
    pub challenge: [u8; 32],
    /// Private interaction signals.
    pub private: PrivateData,
}

impl WireCodec for ConfidentialCheckRequest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_array32(&self.challenge);
        self.private.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ConfidentialCheckRequest {
            challenge: dec.get_array32()?,
            private: PrivateData::decode(dec)?,
        })
    }
}

/// Status flags reported by the `STATUS` ECALL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlimmerStatus {
    /// A service signing key is installed.
    pub signing_key: bool,
    /// The attested channel is established.
    pub channel: bool,
    /// A confidential predicate is installed.
    pub confidential_predicate: bool,
    /// Number of blinding masks currently installed.
    pub masks: u32,
    /// Verdict bits released by the auditor so far.
    pub verdict_bits_released: u64,
    /// Number of established device sessions (gateway serving path).
    pub sessions: u32,
}

impl WireCodec for GlimmerStatus {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(self.signing_key);
        enc.put_bool(self.channel);
        enc.put_bool(self.confidential_predicate);
        enc.put_u32(self.masks);
        enc.put_u64(self.verdict_bits_released);
        enc.put_u32(self.sessions);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(GlimmerStatus {
            signing_key: dec.get_bool()?,
            channel: dec.get_bool()?,
            confidential_predicate: dec.get_bool()?,
            masks: dec.get_u32()?,
            verdict_bits_released: dec.get_u64()?,
            sessions: dec.get_u32()?,
        })
    }
}

/// Reply to the `CHANNEL_REPORT` ECALL: the Glimmer's DH public value and the
/// local-attestation report binding it (to be quoted by the host).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelReportReply {
    /// The Glimmer's ephemeral DH public value.
    pub dh_public: Vec<u8>,
    /// Serialized report targeted at the quoting enclave.
    pub report: Vec<u8>,
}

impl WireCodec for ChannelReportReply {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(&self.dh_public);
        enc.put_bytes(&self.report);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ChannelReportReply {
            dh_public: dec.get_bytes()?,
            report: dec.get_bytes()?,
        })
    }
}

/// Everything the enclave holds for one device session. The session table
/// is the only structure keyed by session id, so closing a session is one
/// `remove` and nothing of it can stay behind.
#[derive(Default)]
struct Session {
    /// The handshake `SESSION_OPEN` started, until `SESSION_ACCEPT` consumes
    /// it.
    handshake: Option<GlimmerChannel>,
    /// The keys `SESSION_ACCEPT` derived; the session is established once
    /// they are there.
    keys: Option<ChannelKeys>,
    /// `(client, round)` of every share installed through this session.
    /// The session may contribute as those clients — without the binding,
    /// sessions sharing an enclave could claim each other's client ids and
    /// consume each other's shares — and the shares are evicted with it:
    /// an enclave serves an open-ended stream of sessions, so the mask
    /// table would otherwise grow without bound, and a later session bound
    /// to the same key must install a fresh share, not inherit a stale one.
    masks: BTreeSet<(u64, u64)>,
    replay: ReplayWindow,
}

/// The Glimmer enclave program.
pub struct GlimmerEnclaveProgram {
    app_id: String,
    predicate: AllOf,
    service_verifying_key: Option<VerifyingKey>,
    signing_key: Option<SigningKey>,
    /// The raw service-key secret, kept (inside the enclave only) so the
    /// serving state can be checkpointed: the sealed state export embeds it,
    /// and a restored enclave re-derives the signing key from it.
    service_key_secret: Option<Vec<u8>>,
    sealed_key: Option<SealedBlob>,
    masks: BTreeMap<(u64, u64), MaskShare>,
    /// The service channel (Section 4.1's attested channel; the gateway's
    /// tenant channel): a different principal from the device sessions.
    pending_channel: Option<GlimmerChannel>,
    channel: Option<ChannelKeys>,
    sessions: BTreeMap<u64, Session>,
    confidential_detector: Option<BotDetector>,
    auditor: OutputAuditor,
    /// Reusable wire buffer for `PROCESS_BATCH` replies: reset (capacity
    /// kept) at the start of every batch, so steady-state batches encode
    /// their reply without growing this buffer (the copy-out the ecall
    /// interface requires still allocates once per batch).
    reply_scratch: Encoder,
    /// Monotonic serving-state epoch: bumped on every state-mutating ecall
    /// (whether or not it succeeds — an over-approximation is the safe
    /// direction), exported inside the sealed state, and compared by
    /// `EXPORT_STATE_IF_NEWER` so idle enclaves can skip re-sealing.
    state_epoch: u64,
}

impl GlimmerEnclaveProgram {
    /// Builds the enclave program from its (measured) descriptor.
    #[must_use]
    pub fn new(descriptor: &GlimmerDescriptor) -> Self {
        let predicate = AllOf {
            inner: descriptor
                .predicate_specs
                .iter()
                .map(|s| s.instantiate())
                .collect(),
        };
        let service_verifying_key = if descriptor.service_verifying_key.is_empty() {
            None
        } else {
            VerifyingKey::from_bytes(&descriptor.service_verifying_key).ok()
        };
        GlimmerEnclaveProgram {
            app_id: descriptor.app_id.clone(),
            predicate,
            service_verifying_key,
            signing_key: None,
            service_key_secret: None,
            sealed_key: None,
            masks: BTreeMap::new(),
            pending_channel: None,
            channel: None,
            sessions: BTreeMap::new(),
            confidential_detector: None,
            auditor: OutputAuditor::new(descriptor.verdict_bit_budget),
            reply_scratch: Encoder::new(),
            state_epoch: 0,
        }
    }

    fn provision(
        &mut self,
        env: &mut dyn EnclaveEnv,
        request: ProvisionRequest,
    ) -> Result<Vec<u8>, String> {
        match request {
            ProvisionRequest::FreshKey(secret) => {
                let key = signing_key_from_secret(&secret).map_err(|e| e.to_string())?;
                let sealed = env
                    .seal(SealPolicy::MrEnclave, SERVICE_KEY_AAD, &secret)
                    .map_err(|e| e.to_string())?;
                let sealed_bytes = sealed.to_bytes();
                self.signing_key = Some(key);
                self.service_key_secret = Some(secret);
                self.sealed_key = Some(sealed);
                Ok(sealed_bytes)
            }
            ProvisionRequest::Sealed(blob_bytes) => {
                let blob = SealedBlob::from_bytes(&blob_bytes).map_err(|e| e.to_string())?;
                if blob.aad() != SERVICE_KEY_AAD {
                    return Err(format!(
                        "{SEALED_REJECTED_MARKER} sealed blob is not a glimmer service key"
                    ));
                }
                let secret = env
                    .unseal(&blob)
                    .map_err(|e| format!("{SEALED_REJECTED_MARKER} {e}"))?;
                let key = signing_key_from_secret(&secret).map_err(|e| e.to_string())?;
                self.signing_key = Some(key);
                self.service_key_secret = Some(secret);
                self.sealed_key = Some(blob);
                Ok(Vec::new())
            }
        }
    }

    fn install_mask(&mut self, delivery: MaskDelivery) -> Result<Vec<u8>, String> {
        let share = delivery.open(self.channel.as_ref())?;
        self.masks.insert((share.round, share.client_id), share);
        Ok(Vec::new())
    }

    /// Installs a mask scoped to one session and records the binding: the
    /// session becomes authorized to contribute as the mask's client id.
    fn session_install_mask(&mut self, data: &[u8]) -> Result<Vec<u8>, String> {
        let request = SessionMaskRequest::from_wire(data).map_err(|e| e.to_string())?;
        let session = self
            .sessions
            .get_mut(&request.session_id)
            .ok_or_else(|| format!("no such session {}", request.session_id))?;
        let delivery = MaskDelivery::from_wire(&request.delivery).map_err(|e| e.to_string())?;
        let share = delivery.open(self.channel.as_ref())?;
        session.masks.insert((share.client_id, share.round));
        self.masks.insert((share.round, share.client_id), share);
        Ok(Vec::new())
    }

    fn process_contribution(&mut self, request: ProcessRequest) -> Result<ProcessResponse, String> {
        let contribution = request.contribution;
        let private = request.private_data;

        // 1. Validation.
        let verdict = self.predicate.validate(&contribution, &private);
        if !verdict.passed {
            return Ok(ProcessResponse::Rejected {
                reason: verdict.reason,
            });
        }

        // 2. Blinding (only for private payloads).
        let is_private = contribution.payload.requires_blinding();
        let (released_payload, blinded) = if is_private {
            let values: &[f64] = match &contribution.payload {
                crate::protocol::ContributionPayload::ModelUpdate { weights } => weights,
                crate::protocol::ContributionPayload::IotReadings { samples } => samples,
                crate::protocol::ContributionPayload::Photo { .. } => unreachable!(),
            };
            let Some(mask) = self
                .masks
                .get(&(contribution.round, contribution.client_id))
            else {
                return Ok(ProcessResponse::Rejected {
                    reason: format!(
                        "no blinding mask installed for round {} client {}; refusing to release private data",
                        contribution.round, contribution.client_id
                    ),
                });
            };
            if mask.mask.len() != values.len() {
                return Ok(ProcessResponse::Rejected {
                    reason: "blinding mask dimension mismatch".to_string(),
                });
            }
            let blinded_vec = mask.blind(&encode_weights(values));
            let mut enc = Encoder::new();
            enc.put_u64_vec(&blinded_vec);
            (enc.into_bytes(), true)
        } else {
            (contribution.payload.to_wire(), false)
        };

        // 3. Signing.
        let signing_key = self
            .signing_key
            .as_ref()
            .ok_or("no service signing key provisioned")?;
        let mut endorsed = EndorsedContribution {
            app_id: contribution.app_id.clone(),
            client_id: contribution.client_id,
            round: contribution.round,
            released_payload,
            blinded,
            signature: Vec::new(),
        };
        endorsed.signature = sign_endorsement(signing_key, &endorsed).map_err(|e| e.to_string())?;

        // 4. Output audit: private payloads must never leave unblinded.
        self.auditor
            .audit_endorsement(&endorsed, is_private)
            .map_err(|e| e.to_string())?;

        Ok(ProcessResponse::Endorsed(endorsed))
    }

    /// Starts a handshake and binds its DH value into a report targeted at
    /// the quoting enclave. Shared by the service channel and the sessions.
    fn make_channel_report(
        &self,
        env: &mut dyn EnclaveEnv,
        target: [u8; 32],
    ) -> Result<(GlimmerChannel, ChannelReportReply), String> {
        let mut rng_seed = [0u8; 32];
        rng_seed.copy_from_slice(&env.random_bytes(32));
        let mut rng = Drbg::from_seed(rng_seed);
        let channel = GlimmerChannel::start(&self.app_id, &mut rng).map_err(|e| e.to_string())?;
        let report = env.create_report(
            &TargetInfo {
                measurement: sgx_sim::Measurement(target),
            },
            channel.report_data(),
        );
        let reply = ChannelReportReply {
            dh_public: channel.public_bytes(),
            report: report.to_bytes(),
        };
        Ok((channel, reply))
    }

    fn channel_report(&mut self, env: &mut dyn EnclaveEnv, data: &[u8]) -> Result<Vec<u8>, String> {
        if data.len() != 32 {
            return Err("CHANNEL_REPORT expects the 32-byte quoting-enclave measurement".into());
        }
        let mut target = [0u8; 32];
        target.copy_from_slice(data);
        let (channel, reply) = self.make_channel_report(env, target)?;
        self.pending_channel = Some(channel);
        Ok(reply.to_wire())
    }

    /// Finishes a handshake. With an embedded service key the peer must
    /// prove it is the service; without one (glimmer-as-a-service, Section
    /// 4.2) the channel is one-way authenticated: the peer verified *us*
    /// through attestation.
    fn complete_handshake(
        service_key: Option<&VerifyingKey>,
        channel: GlimmerChannel,
        accept: &ChannelAccept,
    ) -> Result<ChannelKeys, String> {
        match service_key {
            Some(service_key) => channel.complete(accept, service_key),
            None => channel.complete_unauthenticated(accept),
        }
        .map_err(|e| e.to_string())
    }

    fn session_open(&mut self, env: &mut dyn EnclaveEnv, data: &[u8]) -> Result<Vec<u8>, String> {
        let request = SessionOpenRequest::from_wire(data).map_err(|e| e.to_string())?;
        match self.sessions.get(&request.session_id) {
            Some(session) if session.keys.is_some() => {
                return Err(format!(
                    "session {} already established",
                    request.session_id
                ))
            }
            None if self.sessions.len() >= MAX_SESSIONS_PER_ENCLAVE => {
                return Err(format!(
                    "session table full ({MAX_SESSIONS_PER_ENCLAVE} sessions)"
                ))
            }
            // Restarting an already-pending handshake replaces its state and
            // does not grow the table, so it is exempt from the capacity guard.
            _ => {}
        }
        let (channel, reply) = self.make_channel_report(env, request.qe_measurement)?;
        // A re-opened session keeps what was bound to it while pending.
        let session = self.sessions.entry(request.session_id).or_default();
        session.handshake = Some(channel);
        Ok(reply.to_wire())
    }

    fn session_accept(&mut self, data: &[u8]) -> Result<Vec<u8>, String> {
        let request = SessionAcceptRequest::from_wire(data).map_err(|e| e.to_string())?;
        let accept = ChannelAccept::from_wire(&request.accept).map_err(|e| e.to_string())?;
        let no_pending = || format!("no pending handshake for session {}", request.session_id);
        let session = self
            .sessions
            .get_mut(&request.session_id)
            .ok_or_else(no_pending)?;
        let channel = session.handshake.take().ok_or_else(no_pending)?;
        match Self::complete_handshake(self.service_verifying_key.as_ref(), channel, &accept) {
            Ok(keys) => {
                session.keys = Some(keys);
                Ok(Vec::new())
            }
            // The handshake is consumed, so this session can never be
            // established: it is closed, and the device opens a new one.
            Err(e) => {
                self.close_session(request.session_id);
                Err(e)
            }
        }
    }

    fn session_close(&mut self, data: &[u8]) -> Result<Vec<u8>, String> {
        if data.len() != 8 {
            return Err("SESSION_CLOSE expects an 8-byte session id".into());
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(data);
        self.close_session(u64::from_le_bytes(id));
        Ok(Vec::new())
    }

    /// Erases a session: its record, and the shares bound to it.
    fn close_session(&mut self, session_id: u64) {
        if let Some(session) = self.sessions.remove(&session_id) {
            self.evict_unbound(session.masks);
        }
    }

    /// Evicts the shares of sessions that are gone. A reconnected device may
    /// have the same mask bound to its replacement session; only shares no
    /// remaining session claims are evicted.
    fn evict_unbound(&mut self, bindings: impl IntoIterator<Item = (u64, u64)>) {
        for binding in bindings {
            if !self.sessions.values().any(|s| s.masks.contains(&binding)) {
                let (client_id, round) = binding;
                self.masks.remove(&(round, client_id));
            }
        }
    }

    /// Decrypts one session's request, runs the pipeline, and re-encrypts the
    /// response under the same session's keys. Returns the ciphertext plus
    /// the public one-bit endorsement outcome (see
    /// [`BatchOutcome`](crate::protocol::BatchOutcome)).
    fn process_for_session(
        &mut self,
        env: &mut dyn EnclaveEnv,
        session: &mut Session,
        session_id: u64,
        data: &[u8],
    ) -> Result<(Vec<u8>, bool), String> {
        let keys = session
            .keys
            .as_ref()
            .ok_or_else(|| format!("no such session {session_id}"))?;
        if data.len() < 12 {
            return Err("encrypted request too short".to_string());
        }
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&data[..12]);
        // Replay protection: AEAD opening is stateless, so a replayed
        // ciphertext would re-endorse the same contribution and burn the
        // tenant's endorsement budget twice. The nonce is the device's
        // request counter; refuse one the session's window has seen or has
        // slid past (see `crate::replay`).
        let counter = request_counter(&nonce).ok_or("request nonce is not a session counter")?;
        session.replay.check(counter).map_err(|e| e.to_string())?;
        if session.replay.accepted() >= MAX_NONCES_PER_SESSION as u64 {
            return Err(format!(
                "session exceeded {MAX_NONCES_PER_SESSION} requests; reopen it"
            ));
        }
        let plain = keys
            .service_to_glimmer
            .open(&nonce, b"glimmer-remote-request-v1", &data[12..])
            .map_err(|e| e.to_string())?;
        let request = ProcessRequest::from_wire(&plain).map_err(|e| e.to_string())?;
        // Many devices' masks coexist in one enclave, so a session may only
        // contribute as client ids that were bound to it via
        // SESSION_INSTALL_MASK — otherwise one device could impersonate
        // another and consume its mask share.
        let client_id = request.contribution.client_id;
        let bound = (client_id, u64::MIN)..=(client_id, u64::MAX);
        let response = if session.masks.range(bound).next().is_some() {
            self.process_contribution(request)?
        } else {
            ProcessResponse::Rejected {
                reason: format!("session not authorized to contribute as client {client_id}"),
            }
        };
        let endorsed = matches!(response, ProcessResponse::Endorsed(_));
        // Record the counter only now that the request was actually
        // processed: a corrupted ciphertext must not burn the counter of the
        // legitimate request the device will retransmit.
        session.replay.record(counter);
        let mut reply_nonce = [0u8; 12];
        reply_nonce.copy_from_slice(&env.random_bytes(12));
        let ciphertext = keys.glimmer_to_service.seal(
            &reply_nonce,
            b"glimmer-remote-response-v1",
            &response.to_wire(),
        );
        let mut out = reply_nonce.to_vec();
        out.extend_from_slice(&ciphertext);
        Ok((out, endorsed))
    }

    fn process_batch(&mut self, env: &mut dyn EnclaveEnv, data: &[u8]) -> Result<Vec<u8>, String> {
        // Zero-copy parse: each item's ciphertext borrows `data` instead of
        // being copied into a fresh Vec. The batch limit is enforced from the
        // declared count, before any payload is touched.
        let view = BatchRequestView::new(data).map_err(|e| e.to_string())?;
        if view.len() > MAX_BATCH_ITEMS {
            return Err(format!(
                "batch of {} items exceeds the {MAX_BATCH_ITEMS}-item limit",
                view.len()
            ));
        }
        // Parse the WHOLE batch before processing any of it (the collected
        // refs are (id, &[u8]) pairs — still no ciphertext copies). Batch
        // processing must stay all-or-nothing on malformed encodings: if a
        // decode error surfaced mid-loop, the already-processed items would
        // have consumed request counters inside an ECALL that then failed, and
        // the host's retry of those items would be rejected as replays.
        let mut view = view;
        let mut items = Vec::with_capacity(view.len());
        for item in view.by_ref() {
            items.push(item.map_err(|e| e.to_string())?);
        }
        // Reject trailing garbage after the declared items, exactly like the
        // owned `BatchRequest::from_wire` path did.
        view.finish().map_err(|e| e.to_string())?;
        // Encode each outcome straight into the enclave's reusable reply
        // encoder as it is produced — no intermediate `BatchReply` vector,
        // and the wire buffer itself stops growing once it has seen the
        // largest batch. (The final `to_vec` copy-out below still allocates
        // once per batch: the ecall interface returns an owned `Vec<u8>`.)
        // The scratch and the session table are moved out for the loop
        // because processing needs `&mut self` beside them; there are no
        // early returns between the takes and the put-backs.
        let mut scratch = std::mem::take(&mut self.reply_scratch);
        let mut sessions = std::mem::take(&mut self.sessions);
        scratch.reset();
        scratch.put_varint(items.len() as u64);
        for item in items {
            let result = match sessions.get_mut(&item.session_id) {
                Some(session) => {
                    self.process_for_session(env, session, item.session_id, item.ciphertext)
                }
                None => Err(format!("no such session {}", item.session_id)),
            };
            let outcome = match result {
                Ok((ciphertext, endorsed)) => BatchOutcome::Reply {
                    ciphertext,
                    endorsed,
                },
                Err(reason) => BatchOutcome::Failed(reason),
            };
            BatchReplyItem {
                session_id: item.session_id,
                outcome,
            }
            .encode(&mut scratch);
        }
        let out = scratch.as_slice().to_vec();
        self.reply_scratch = scratch;
        self.sessions = sessions;
        Ok(out)
    }

    /// Serializes the enclave's full serving state. The sessions and the
    /// mask table are ordered maps and a session's bindings an ordered set,
    /// so identical state always produces identical bytes — the gateway's
    /// snapshot-determinism canary depends on this.
    ///
    /// Deliberately *not* exported: pending handshakes (their ephemeral DH
    /// secrets must die with the process; a pending session is written
    /// without a channel and comes back closed — the device simply
    /// reopens), the confidential predicate (the tenant re-installs it over
    /// its channel), and the reply scratch buffer.
    fn encode_state(&self) -> Vec<u8> {
        let put_keys = |enc: &mut Encoder, keys: Option<&ChannelKeys>| match keys {
            Some(keys) => {
                enc.put_bool(true);
                enc.put_raw(&keys.export_bytes());
            }
            None => enc.put_bool(false),
        };
        let mut enc = Encoder::new();
        enc.put_str(STATE_EXPORT_TAG);
        match &self.service_key_secret {
            Some(secret) => {
                enc.put_bool(true);
                enc.put_bytes(secret);
            }
            None => enc.put_bool(false),
        }
        put_keys(&mut enc, self.channel.as_ref());
        enc.put_varint(self.sessions.len() as u64);
        for (sid, session) in &self.sessions {
            enc.put_u64(*sid);
            put_keys(&mut enc, session.keys.as_ref());
            enc.put_varint(session.masks.len() as u64);
            for (client_id, round) in &session.masks {
                enc.put_u64(*client_id);
                enc.put_u64(*round);
            }
            session.replay.encode(&mut enc);
        }
        enc.put_varint(self.masks.len() as u64);
        for mask in self.masks.values() {
            mask.encode(&mut enc);
        }
        enc.put_u64(self.auditor.verdict_bits_released());
        enc.put_u64(self.auditor.frames_released());
        enc.put_u64(self.auditor.frames_rejected());
        enc.put_u64(self.state_epoch);
        enc.into_bytes()
    }

    /// Seals the serving state under [`SealPolicy::MrEnclave`] with the
    /// caller's snapshot header as AAD and returns the blob bytes.
    /// Only byte-identical Glimmer code on this platform can ever open the
    /// result, and only when presenting the same header — which binds the
    /// blob to exactly one snapshot.
    fn export_state(&mut self, env: &mut dyn EnclaveEnv, header: &[u8]) -> Result<Vec<u8>, String> {
        let state = self.encode_state();
        let blob = env
            .seal(SealPolicy::MrEnclave, header, &state)
            .map_err(|e| e.to_string())?;
        Ok(blob.to_bytes())
    }

    /// `EXPORT_STATE_IF_NEWER`: the incremental-checkpoint handshake.
    /// Request: `header bytes | force bool | known_epoch u64`. Reply:
    /// `state_epoch u64 | present bool | [sealed blob bytes]`. When the
    /// caller already holds a sealed export taken at `known_epoch` and the
    /// state has not mutated since (and `force` is clear), the enclave
    /// answers with just its epoch — skipping the encode + seal entirely,
    /// which is the whole ecall-budget win for idle slots.
    fn export_state_if_newer(
        &mut self,
        env: &mut dyn EnclaveEnv,
        data: &[u8],
    ) -> Result<Vec<u8>, String> {
        let mut dec = Decoder::new(data);
        let header = dec.get_bytes().map_err(|e| e.to_string())?;
        let force = dec.get_bool().map_err(|e| e.to_string())?;
        let known_epoch = dec.get_u64().map_err(|e| e.to_string())?;
        dec.finish().map_err(|e| e.to_string())?;
        let mut enc = Encoder::new();
        enc.put_u64(self.state_epoch);
        if force || self.state_epoch != known_epoch {
            let blob = self.export_state(env, &header)?;
            enc.put_bool(true);
            enc.put_bytes(&blob);
        } else {
            enc.put_bool(false);
        }
        Ok(enc.into_bytes())
    }

    /// `IMPORT_STATE`: the restore half of [`Self::export_state`]. The
    /// request carries the snapshot header and the sealed blob; a blob bound
    /// to a different snapshot, sealed by different code, or sealed on a
    /// different platform fails closed with a [`SEALED_REJECTED_MARKER`]
    /// abort (mapped to a typed error by the host).
    fn import_state(&mut self, env: &mut dyn EnclaveEnv, data: &[u8]) -> Result<Vec<u8>, String> {
        let mut dec = Decoder::new(data);
        let header = dec.get_bytes().map_err(|e| e.to_string())?;
        let blob_bytes = dec.get_bytes().map_err(|e| e.to_string())?;
        let live_sessions = dec.get_u64_vec().map_err(|e| e.to_string())?;
        dec.finish().map_err(|e| e.to_string())?;
        // Import only into a freshly built enclave: merging a checkpoint
        // into live serving state could resurrect closed sessions, roll
        // replay windows backwards, or clobber a live tenant channel.
        if self.signing_key.is_some()
            || self.channel.is_some()
            || self.pending_channel.is_some()
            || !self.sessions.is_empty()
            || !self.masks.is_empty()
        {
            return Err("state import requires a freshly built enclave".to_string());
        }
        let blob = SealedBlob::from_bytes(&blob_bytes).map_err(|e| e.to_string())?;
        let plain = env
            .unseal_expecting(&blob, &header)
            .map_err(|e| format!("{SEALED_REJECTED_MARKER} {e}"))?;
        self.install_state(env, &plain, &live_sessions.into_iter().collect())?;
        Ok(Vec::new())
    }

    /// Decodes and installs an unsealed state export, keeping of its
    /// sessions exactly those in `live`.
    fn install_state(
        &mut self,
        env: &mut dyn EnclaveEnv,
        bytes: &[u8],
        live: &HashSet<u64>,
    ) -> Result<(), String> {
        let w = |e: WireError| e.to_string();
        let get_keys = |dec: &mut Decoder<'_>| -> Result<Option<ChannelKeys>, String> {
            if !dec.get_bool().map_err(w)? {
                return Ok(None);
            }
            let raw = dec
                .get_raw(crate::channel::CHANNEL_KEYS_EXPORT_LEN)
                .map_err(w)?;
            ChannelKeys::from_export(&raw)
                .map(Some)
                .map_err(|e| e.to_string())
        };
        let mut dec = Decoder::new(bytes);
        let tag = dec.get_str().map_err(w)?;
        if tag != STATE_EXPORT_TAG {
            // An export in another format version is sealed input this code
            // must not guess at: refuse it the way a tampered blob is.
            return Err(format!(
                "{SEALED_REJECTED_MARKER} unsupported state export tag {tag:?}"
            ));
        }
        if dec.get_bool().map_err(w)? {
            let secret = dec.get_bytes().map_err(w)?;
            let key = signing_key_from_secret(&secret).map_err(|e| e.to_string())?;
            // Re-seal the service key fresh so EXPORT_SEALED_KEY keeps
            // working after a restore.
            let sealed = env
                .seal(SealPolicy::MrEnclave, SERVICE_KEY_AAD, &secret)
                .map_err(|e| e.to_string())?;
            self.signing_key = Some(key);
            self.service_key_secret = Some(secret);
            self.sealed_key = Some(sealed);
        }
        self.channel = get_keys(&mut dec)?;
        // Prune session state the routing layer no longer routes: a session
        // closed concurrently with the checkpoint barrier can be present in
        // the sealed export but absent from the captured table, and one
        // that was pending lost its handshake with the exporting process.
        // Keeping exactly the caller's live set erases those orphans' keys,
        // replay windows, and masks instead of carrying them forever across
        // restarts.
        let mut orphaned = Vec::new();
        let n = dec.get_varint().map_err(w)? as usize;
        for _ in 0..n {
            let sid = dec.get_u64().map_err(w)?;
            let keys = get_keys(&mut dec)?;
            let mut masks = BTreeSet::new();
            for _ in 0..dec.get_varint().map_err(w)? {
                masks.insert((dec.get_u64().map_err(w)?, dec.get_u64().map_err(w)?));
            }
            let replay = ReplayWindow::decode(&mut dec).map_err(w)?;
            if keys.is_some() && live.contains(&sid) {
                let session = Session {
                    handshake: None,
                    keys,
                    masks,
                    replay,
                };
                self.sessions.insert(sid, session);
            } else {
                orphaned.extend(masks);
            }
        }
        let n = dec.get_varint().map_err(w)? as usize;
        for _ in 0..n {
            let share = MaskShare::decode(&mut dec).map_err(w)?;
            self.masks.insert((share.round, share.client_id), share);
        }
        let bits = dec.get_u64().map_err(w)?;
        let released = dec.get_u64().map_err(w)?;
        let rejected = dec.get_u64().map_err(w)?;
        let state_epoch = dec.get_u64().map_err(w)?;
        dec.finish().map_err(w)?;
        self.evict_unbound(orphaned);
        self.auditor.restore_counts(bits, released, rejected);
        // The imported epoch replaces ours wholesale: a restored enclave
        // continues the exporting incarnation's dirtiness clock, so a
        // checkpoint chain can keep skipping slots that stayed idle across
        // the restart.
        self.state_epoch = state_epoch;
        Ok(())
    }

    fn channel_complete(&mut self, data: &[u8]) -> Result<Vec<u8>, String> {
        let accept = ChannelAccept::from_wire(data).map_err(|e| e.to_string())?;
        let channel = self
            .pending_channel
            .take()
            .ok_or("no pending channel handshake")?;
        let service_key = self.service_verifying_key.as_ref();
        self.channel = Some(Self::complete_handshake(service_key, channel, &accept)?);
        Ok(Vec::new())
    }

    fn install_predicate(&mut self, data: &[u8]) -> Result<Vec<u8>, String> {
        let encrypted = EncryptedPredicate::from_wire(data).map_err(|e| e.to_string())?;
        let channel = self
            .channel
            .as_ref()
            .ok_or("encrypted predicates require an established channel")?;
        let spec =
            open_predicate(&encrypted, &channel.service_to_glimmer).map_err(|e| e.to_string())?;
        self.confidential_detector = Some(BotDetector::new(spec));
        Ok(Vec::new())
    }

    fn confidential_check(&mut self, data: &[u8]) -> Result<Vec<u8>, String> {
        let request = ConfidentialCheckRequest::from_wire(data).map_err(|e| e.to_string())?;
        let detector = self
            .confidential_detector
            .as_ref()
            .ok_or("no confidential predicate installed")?;
        let channel = self
            .channel
            .as_ref()
            .ok_or("confidential check requires an established channel")?;
        let PrivateData::BotSignals { signals } = &request.private else {
            return Err("confidential check requires bot signals".to_string());
        };
        let human = detector.is_human(signals);
        let verdict = BotVerdict::new(request.challenge, human, &channel.mac_key);
        let frame = verdict.to_frame();
        // The auditor is the last gate before anything leaves the enclave.
        self.auditor.audit(&frame).map_err(|e| e.to_string())?;
        Ok(frame.to_bytes())
    }

    fn status(&self) -> Vec<u8> {
        GlimmerStatus {
            signing_key: self.signing_key.is_some(),
            channel: self.channel.is_some(),
            confidential_predicate: self.confidential_detector.is_some(),
            masks: self.masks.len() as u32,
            verdict_bits_released: self.auditor.verdict_bits_released(),
            sessions: self.sessions.values().filter(|s| s.keys.is_some()).count() as u32,
        }
        .to_wire()
    }
}

impl EnclaveProgram for GlimmerEnclaveProgram {
    fn name(&self) -> &str {
        "glimmer"
    }

    fn handle_ecall(
        &mut self,
        env: &mut dyn EnclaveEnv,
        selector: u16,
        data: &[u8],
    ) -> Result<Vec<u8>, String> {
        // Every selector that can mutate serving state bumps the state
        // epoch, whether or not the call ultimately succeeds: over-counting
        // dirtiness costs at most one redundant export, while under-counting
        // would let an incremental checkpoint silently skip changed state.
        // Read-only selectors and IMPORT_STATE (which installs the imported
        // epoch) are exempt.
        match selector {
            ecall::STATUS
            | ecall::EXPORT_SEALED_KEY
            | ecall::EXPORT_STATE_IF_NEWER
            | ecall::IMPORT_STATE => {}
            _ => self.state_epoch += 1,
        }
        match selector {
            ecall::PROVISION => {
                let request = ProvisionRequest::from_wire(data).map_err(|e| e.to_string())?;
                self.provision(env, request)
            }
            ecall::PROCESS_CONTRIBUTION => {
                let request = ProcessRequest::from_wire(data).map_err(|e| e.to_string())?;
                self.process_contribution(request).map(|r| r.to_wire())
            }
            ecall::PROCESS_BATCH => self.process_batch(env, data),
            ecall::SESSION_INSTALL_MASK => self.session_install_mask(data),
            ecall::SESSION_OPEN => self.session_open(env, data),
            ecall::SESSION_ACCEPT => self.session_accept(data),
            ecall::SESSION_CLOSE => self.session_close(data),
            ecall::CHANNEL_REPORT => self.channel_report(env, data),
            ecall::CHANNEL_COMPLETE => self.channel_complete(data),
            ecall::INSTALL_PREDICATE => self.install_predicate(data),
            ecall::CONFIDENTIAL_CHECK => self.confidential_check(data),
            ecall::EXPORT_SEALED_KEY => self
                .sealed_key
                .as_ref()
                .map(SealedBlob::to_bytes)
                .ok_or_else(|| "no sealed service key to export".to_string()),
            ecall::INSTALL_MASK => {
                let delivery = MaskDelivery::from_wire(data).map_err(|e| e.to_string())?;
                self.install_mask(delivery)
            }
            ecall::EXPORT_STATE_IF_NEWER => self.export_state_if_newer(env, data),
            ecall::IMPORT_STATE => self.import_state(env, data),
            ecall::STATUS => Ok(self.status()),
            other => Err(format!("unknown ECALL selector {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provision_request_round_trip() {
        for r in [
            ProvisionRequest::FreshKey(vec![1, 2, 3]),
            ProvisionRequest::Sealed(vec![4, 5]),
        ] {
            assert_eq!(ProvisionRequest::from_wire(&r.to_wire()).unwrap(), r);
        }
        assert!(ProvisionRequest::from_wire(&[9]).is_err());
    }

    #[test]
    fn mask_delivery_round_trip_and_encryption() {
        let share = MaskShare {
            round: 3,
            client_id: 7,
            mask: vec![1, 2, 3],
        };
        let plain = MaskDelivery::plain(&share);
        assert_eq!(MaskDelivery::from_wire(&plain.to_wire()).unwrap(), plain);

        let key = glimmer_crypto::aead::AeadKey::from_master(&[1u8; 32]);
        let encrypted = MaskDelivery::encrypted(&share, &key, [2u8; 12]);
        let encoded = encrypted.to_wire();
        let decoded = MaskDelivery::from_wire(&encoded).unwrap();
        assert_eq!(decoded, encrypted);
        // The ciphertext does not reveal the mask values.
        match decoded {
            MaskDelivery::Encrypted { ciphertext, .. } => {
                assert!(!ciphertext.windows(8).any(|w| w == 1u64.to_le_bytes()));
            }
            MaskDelivery::Plain(_) => panic!("expected encrypted"),
        }
        assert!(MaskDelivery::from_wire(&[7]).is_err());
    }

    #[test]
    fn status_and_channel_reply_round_trip() {
        let status = GlimmerStatus {
            signing_key: true,
            channel: false,
            confidential_predicate: true,
            masks: 4,
            verdict_bits_released: 9,
            sessions: 3,
        };
        assert_eq!(GlimmerStatus::from_wire(&status.to_wire()).unwrap(), status);

        let reply = ChannelReportReply {
            dh_public: vec![1, 2],
            report: vec![3, 4, 5],
        };
        assert_eq!(
            ChannelReportReply::from_wire(&reply.to_wire()).unwrap(),
            reply
        );

        let check = ConfidentialCheckRequest {
            challenge: [8u8; 32],
            private: PrivateData::BotSignals {
                signals: vec![("x".to_string(), 1.0)],
            },
        };
        assert_eq!(
            ConfidentialCheckRequest::from_wire(&check.to_wire()).unwrap(),
            check
        );
    }
}
