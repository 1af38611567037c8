//! Protocol messages exchanged between the client app, the Glimmer enclave,
//! and the service.
//!
//! Everything that crosses the enclave boundary or the client/service trust
//! boundary is one of the types defined here, encoded with `glimmer-wire` so
//! that the runtime auditor and the service can parse it unambiguously.

use glimmer_crypto::sha256::sha256;
use glimmer_wire::{Decoder, Encoder, WireCodec, WireError};

/// ECALL selectors understood by the Glimmer enclave program.
pub mod ecall {
    /// Install service key material (sealed blob produced earlier, or fresh
    /// material delivered over the attested channel).
    pub const PROVISION: u16 = 1;
    /// Validate, blind, and sign one contribution.
    pub const PROCESS_CONTRIBUTION: u16 = 2;
    /// Produce an attestation report binding the Glimmer's channel public key.
    pub const CHANNEL_REPORT: u16 = 3;
    /// Complete the attested channel with the service's handshake message.
    pub const CHANNEL_COMPLETE: u16 = 4;
    /// Install an encrypted validation predicate (Section 4.1).
    pub const INSTALL_PREDICATE: u16 = 5;
    /// Run the confidential predicate over private signals and emit a 1-bit
    /// verdict frame (Section 4.1).
    pub const CONFIDENTIAL_CHECK: u16 = 6;
    /// Export the sealed service-key blob for persistence by the host.
    pub const EXPORT_SEALED_KEY: u16 = 7;
    /// Install a blinding mask share for an upcoming round.
    pub const INSTALL_MASK: u16 = 8;
    /// Return the Glimmer's status (provisioned flags) for diagnostics.
    pub const STATUS: u16 = 9;
    // 10 was `PROCESS_ENCRYPTED`, Section 4.2's single implicit device
    // channel: retired, not reused — a per-device host is one session and a
    // `PROCESS_BATCH` of one.
    /// Open a session-scoped attested channel handshake (glimmer-as-a-service,
    /// Section 4.2: one enclave, one or many concurrent device sessions).
    pub const SESSION_OPEN: u16 = 11;
    /// Complete a session-scoped handshake with the device's response.
    pub const SESSION_ACCEPT: u16 = 12;
    /// Tear down a session and erase its channel keys.
    pub const SESSION_CLOSE: u16 = 13;
    /// Validate, blind, and sign a whole batch of encrypted contributions
    /// from many sessions in a single enclave transition (the gateway's
    /// amortized serving path).
    pub const PROCESS_BATCH: u16 = 14;
    /// Install a blinding mask bound to one session: the mask's client id
    /// becomes a client the session is authorized to contribute as.
    pub const SESSION_INSTALL_MASK: u16 = 15;
    // 16 was `EXPORT_STATE`, the unconditional export: retired, not reused —
    // a forced `EXPORT_STATE_IF_NEWER` is the same export.
    /// Import a sealed serving-state blob into a freshly built enclave on
    /// the same platform with the same measurement (restore after restart).
    pub const IMPORT_STATE: u16 = 17;
    /// Export the enclave's full serving state (signing key, session channel
    /// keys, masks, replay windows, auditor counters) as a sealed blob bound
    /// to a caller-supplied snapshot header — if it changed: the caller
    /// supplies the state epoch it already holds (plus a force flag) and the
    /// enclave replies with its current epoch and, only when newer or forced,
    /// a fresh sealed export. Lets incremental checkpoints skip the sealing
    /// work for idle slots entirely.
    pub const EXPORT_STATE_IF_NEWER: u16 = 18;
}

/// Frame message types used on the client/service wire.
pub mod frame_type {
    /// An endorsed contribution travelling to the service.
    pub const ENDORSED_CONTRIBUTION: u16 = 1;
    /// A bot-detection verdict (Section 4.1): exactly one bit of payload.
    pub const BOT_VERDICT: u16 = 2;
    /// A channel handshake message.
    pub const CHANNEL_HANDSHAKE: u16 = 3;
    /// An encrypted predicate delivery.
    pub const ENCRYPTED_PREDICATE: u16 = 4;
    /// A validation rejection notice (sent back to the local app only).
    pub const REJECTION: u16 = 5;
}

/// What the user is contributing to the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ContributionPayload {
    /// A federated-learning model update: one weight per schema slot.
    /// Private — must be blinded before leaving the Glimmer.
    ModelUpdate {
        /// The local model parameter vector.
        weights: Vec<f64>,
    },
    /// A crowd-sourced photo for a map location. The photo itself is meant to
    /// be shared, so it is not blinded; only its validation needs private data.
    Photo {
        /// Hash of the photo contents.
        photo_hash: [u8; 32],
        /// Latitude the user claims the photo was taken at.
        claimed_lat: f64,
        /// Longitude the user claims the photo was taken at.
        claimed_lon: f64,
    },
    /// A batch of IoT sensor readings.
    IotReadings {
        /// The reported samples.
        samples: Vec<f64>,
    },
}

impl ContributionPayload {
    /// Whether this payload is private and must be blinded before release.
    #[must_use]
    pub fn requires_blinding(&self) -> bool {
        match self {
            ContributionPayload::ModelUpdate { .. } => true,
            ContributionPayload::Photo { .. } => false,
            ContributionPayload::IotReadings { .. } => true,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            ContributionPayload::ModelUpdate { .. } => 1,
            ContributionPayload::Photo { .. } => 2,
            ContributionPayload::IotReadings { .. } => 3,
        }
    }
}

impl WireCodec for ContributionPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.tag());
        match self {
            ContributionPayload::ModelUpdate { weights } => enc.put_f64_vec(weights),
            ContributionPayload::Photo {
                photo_hash,
                claimed_lat,
                claimed_lon,
            } => {
                enc.put_array32(photo_hash);
                enc.put_f64(*claimed_lat);
                enc.put_f64(*claimed_lon);
            }
            ContributionPayload::IotReadings { samples } => enc.put_f64_vec(samples),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            1 => Ok(ContributionPayload::ModelUpdate {
                weights: dec.get_f64_vec()?,
            }),
            2 => Ok(ContributionPayload::Photo {
                photo_hash: dec.get_array32()?,
                claimed_lat: dec.get_f64()?,
                claimed_lon: dec.get_f64()?,
            }),
            3 => Ok(ContributionPayload::IotReadings {
                samples: dec.get_f64_vec()?,
            }),
            other => Err(WireError::UnknownTag(other.into())),
        }
    }
}

/// Private validation data: information the Glimmer may inspect but that must
/// never reach the service (Section 2: "they can only verify the legitimacy
/// of user contributions through direct access to sensitive user data").
#[derive(Debug, Clone, PartialEq)]
pub enum PrivateData {
    /// No private data supplied (only context-free predicates can run).
    None,
    /// The user's recent keyboard activity, as tokenized sentences.
    KeyboardLog {
        /// Tokenized sentences (word ids in the service vocabulary).
        sentences: Vec<Vec<u32>>,
    },
    /// Location history and device fingerprint for photo corroboration.
    GpsTrack {
        /// `(lat, lon, unix_seconds)` samples.
        points: Vec<(f64, f64, u64)>,
        /// Fingerprint of the camera hardware that captured the photo.
        camera_fingerprint: [u8; 32],
    },
    /// Behavioural signals collected by the in-page bot detector.
    BotSignals {
        /// Named signal values (timings, JS fidelity, focus changes, ...).
        signals: Vec<(String, f64)>,
    },
}

impl PrivateData {
    fn tag(&self) -> u8 {
        match self {
            PrivateData::None => 0,
            PrivateData::KeyboardLog { .. } => 1,
            PrivateData::GpsTrack { .. } => 2,
            PrivateData::BotSignals { .. } => 3,
        }
    }
}

impl WireCodec for PrivateData {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.tag());
        match self {
            PrivateData::None => {}
            PrivateData::KeyboardLog { sentences } => {
                enc.put_varint(sentences.len() as u64);
                for s in sentences {
                    enc.put_varint(s.len() as u64);
                    for w in s {
                        enc.put_u32(*w);
                    }
                }
            }
            PrivateData::GpsTrack {
                points,
                camera_fingerprint,
            } => {
                enc.put_varint(points.len() as u64);
                for (lat, lon, ts) in points {
                    enc.put_f64(*lat);
                    enc.put_f64(*lon);
                    enc.put_u64(*ts);
                }
                enc.put_array32(camera_fingerprint);
            }
            PrivateData::BotSignals { signals } => {
                enc.put_varint(signals.len() as u64);
                for (name, value) in signals {
                    enc.put_str(name);
                    enc.put_f64(*value);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(PrivateData::None),
            1 => {
                let n = dec.get_varint()? as usize;
                let mut sentences = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let len = dec.get_varint()? as usize;
                    let mut sentence = Vec::with_capacity(len.min(1 << 16));
                    for _ in 0..len {
                        sentence.push(dec.get_u32()?);
                    }
                    sentences.push(sentence);
                }
                Ok(PrivateData::KeyboardLog { sentences })
            }
            2 => {
                let n = dec.get_varint()? as usize;
                let mut points = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    points.push((dec.get_f64()?, dec.get_f64()?, dec.get_u64()?));
                }
                let camera_fingerprint = dec.get_array32()?;
                Ok(PrivateData::GpsTrack {
                    points,
                    camera_fingerprint,
                })
            }
            3 => {
                let n = dec.get_varint()? as usize;
                let mut signals = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    signals.push((dec.get_str()?, dec.get_f64()?));
                }
                Ok(PrivateData::BotSignals { signals })
            }
            other => Err(WireError::UnknownTag(other.into())),
        }
    }
}

/// A user contribution as handed to the Glimmer by the client application.
#[derive(Debug, Clone, PartialEq)]
pub struct Contribution {
    /// Application identifier (which service/schema this belongs to).
    pub app_id: String,
    /// Opaque client identifier assigned by the service (not a user identity).
    pub client_id: u64,
    /// Aggregation round this contribution targets.
    pub round: u64,
    /// The contributed data.
    pub payload: ContributionPayload,
}

impl WireCodec for Contribution {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.app_id);
        enc.put_u64(self.client_id);
        enc.put_u64(self.round);
        self.payload.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Contribution {
            app_id: dec.get_str()?,
            client_id: dec.get_u64()?,
            round: dec.get_u64()?,
            payload: ContributionPayload::decode(dec)?,
        })
    }
}

/// The result of running the validation predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationVerdict {
    /// Whether the contribution passed.
    pub passed: bool,
    /// Confidence in the verdict, in `[0, 1]`.
    pub confidence: f64,
    /// Human-readable reason (kept inside the client; never sent to the
    /// service beyond the pass/fail outcome).
    pub reason: String,
}

impl ValidationVerdict {
    /// A passing verdict with full confidence.
    #[must_use]
    pub fn pass() -> Self {
        ValidationVerdict {
            passed: true,
            confidence: 1.0,
            reason: String::new(),
        }
    }

    /// A failing verdict with a reason.
    #[must_use]
    pub fn fail(reason: impl Into<String>) -> Self {
        ValidationVerdict {
            passed: false,
            confidence: 1.0,
            reason: reason.into(),
        }
    }

    /// A verdict with an explicit confidence value.
    #[must_use]
    pub fn with_confidence(passed: bool, confidence: f64, reason: impl Into<String>) -> Self {
        ValidationVerdict {
            passed,
            confidence: confidence.clamp(0.0, 1.0),
            reason: reason.into(),
        }
    }
}

impl WireCodec for ValidationVerdict {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(self.passed);
        enc.put_f64(self.confidence);
        enc.put_str(&self.reason);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ValidationVerdict {
            passed: dec.get_bool()?,
            confidence: dec.get_f64()?,
            reason: dec.get_str()?,
        })
    }
}

/// What actually leaves the Glimmer for the service: the (blinded, if
/// private) contribution bytes, bound to the app/round/client, under the
/// endorsement signature.
#[derive(Debug, Clone, PartialEq)]
pub struct EndorsedContribution {
    /// Application identifier.
    pub app_id: String,
    /// Client identifier.
    pub client_id: u64,
    /// Aggregation round.
    pub round: u64,
    /// Blinded fixed-point vector for private payloads, or the raw payload
    /// encoding for public ones (photos).
    pub released_payload: Vec<u8>,
    /// True when `released_payload` is a blinded fixed-point vector.
    pub blinded: bool,
    /// Endorsement signature by the Glimmer's service-provided key.
    pub signature: Vec<u8>,
}

impl EndorsedContribution {
    /// The one encoding of what an endorsement binds, and the input to
    /// [`EndorsedContribution::digest`]: each of the domain tag
    /// `"glimmer-endorsement-v2"`, `app_id` and `released_payload` as an
    /// LEB128 length then its bytes, `client_id` and `round` as
    /// little-endian `u64`s, and `blinded` as one byte (0 or 1), in the
    /// order tag, app, client, round, blinded, payload. The signature is
    /// not part of it. Bump the tag's version with any change here.
    #[must_use]
    pub fn signed_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_str("glimmer-endorsement-v2");
        enc.put_str(&self.app_id);
        enc.put_u64(self.client_id);
        enc.put_u64(self.round);
        enc.put_bool(self.blinded);
        enc.put_bytes(&self.released_payload);
        enc.into_bytes()
    }

    /// What the endorsement signature covers: SHA-256 over
    /// [`EndorsedContribution::signed_bytes`]. Signing this 32-byte
    /// prehash rather than the encoding itself means a payload of any size
    /// is hashed once per signature and once per verification.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        sha256(&self.signed_bytes())
    }

    /// Decodes the released payload as a blinded fixed-point vector.
    pub fn blinded_vector(&self) -> Result<Vec<u64>, WireError> {
        let mut dec = Decoder::new(&self.released_payload);
        let v = dec.get_u64_vec()?;
        dec.finish()?;
        Ok(v)
    }
}

impl WireCodec for EndorsedContribution {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.app_id);
        enc.put_u64(self.client_id);
        enc.put_u64(self.round);
        enc.put_bytes(&self.released_payload);
        enc.put_bool(self.blinded);
        enc.put_bytes(&self.signature);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(EndorsedContribution {
            app_id: dec.get_str()?,
            client_id: dec.get_u64()?,
            round: dec.get_u64()?,
            released_payload: dec.get_bytes()?,
            blinded: dec.get_bool()?,
            signature: dec.get_bytes()?,
        })
    }
}

/// Request marshalled into the `PROCESS_CONTRIBUTION` ECALL.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessRequest {
    /// The contribution to validate and endorse.
    pub contribution: Contribution,
    /// Private validation data the predicate may inspect.
    pub private_data: PrivateData,
}

impl WireCodec for ProcessRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.contribution.encode(enc);
        self.private_data.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ProcessRequest {
            contribution: Contribution::decode(dec)?,
            private_data: PrivateData::decode(dec)?,
        })
    }
}

/// Response marshalled out of the `PROCESS_CONTRIBUTION` ECALL.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcessResponse {
    /// The contribution was validated and endorsed.
    Endorsed(EndorsedContribution),
    /// The contribution was rejected; the reason stays on the client.
    Rejected {
        /// Why validation failed.
        reason: String,
    },
}

impl WireCodec for ProcessResponse {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ProcessResponse::Endorsed(e) => {
                enc.put_u8(1);
                e.encode(enc);
            }
            ProcessResponse::Rejected { reason } => {
                enc.put_u8(0);
                enc.put_str(reason);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            1 => Ok(ProcessResponse::Endorsed(EndorsedContribution::decode(
                dec,
            )?)),
            0 => Ok(ProcessResponse::Rejected {
                reason: dec.get_str()?,
            }),
            other => Err(WireError::UnknownTag(other.into())),
        }
    }
}

/// Request marshalled into the `SESSION_OPEN` ECALL: which session to open
/// and the quoting enclave's measurement (so the enclave can target its
/// report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOpenRequest {
    /// Gateway-assigned session identifier (unique per enclave).
    pub session_id: u64,
    /// Measurement of the platform's quoting enclave.
    pub qe_measurement: [u8; 32],
}

impl WireCodec for SessionOpenRequest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.session_id);
        enc.put_array32(&self.qe_measurement);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SessionOpenRequest {
            session_id: dec.get_u64()?,
            qe_measurement: dec.get_array32()?,
        })
    }
}

/// Request marshalled into the `SESSION_ACCEPT` ECALL: the device's handshake
/// response for one pending session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionAcceptRequest {
    /// The session the response belongs to.
    pub session_id: u64,
    /// The device's raw `ChannelAccept` encoding.
    pub accept: Vec<u8>,
}

impl WireCodec for SessionAcceptRequest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.session_id);
        enc.put_bytes(&self.accept);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SessionAcceptRequest {
            session_id: dec.get_u64()?,
            accept: dec.get_bytes()?,
        })
    }
}

/// Request marshalled into the `SESSION_INSTALL_MASK` ECALL: a mask delivery
/// scoped to one session. Installing it authorizes the session to contribute
/// as the mask's client id — the binding that keeps co-located sessions on a
/// pooled enclave from impersonating each other.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMaskRequest {
    /// The session the mask belongs to.
    pub session_id: u64,
    /// The raw `MaskDelivery` encoding.
    pub delivery: Vec<u8>,
}

impl WireCodec for SessionMaskRequest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.session_id);
        enc.put_bytes(&self.delivery);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SessionMaskRequest {
            session_id: dec.get_u64()?,
            delivery: dec.get_bytes()?,
        })
    }
}

/// One encrypted request travelling into the `PROCESS_BATCH` ECALL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// The session whose channel keys protect `ciphertext`.
    pub session_id: u64,
    /// Nonce-prefixed AEAD ciphertext of a [`ProcessRequest`].
    pub ciphertext: Vec<u8>,
}

impl WireCodec for BatchItem {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.session_id);
        enc.put_bytes(&self.ciphertext);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(BatchItem {
            session_id: dec.get_u64()?,
            ciphertext: dec.get_bytes()?,
        })
    }
}

/// A [`BatchItem`] decoded without copying: the ciphertext borrows the wire
/// buffer it arrived in.
///
/// This is the enclave's zero-copy fast path for `PROCESS_BATCH`: a batch of
/// N contributions used to cost N ciphertext allocations just to *parse* the
/// request, before any of them was processed. Borrowing instead makes the
/// parse allocation-free, which matters once shard workers drain batches in
/// parallel and the allocator becomes a shared bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchItemRef<'a> {
    /// The session whose channel keys protect `ciphertext`.
    pub session_id: u64,
    /// Nonce-prefixed AEAD ciphertext of a [`ProcessRequest`], borrowed from
    /// the batch's wire encoding.
    pub ciphertext: &'a [u8],
}

impl<'a> BatchItemRef<'a> {
    /// Decodes one item, borrowing the ciphertext from the decoder's buffer.
    pub fn decode(dec: &mut Decoder<'a>) -> Result<Self, WireError> {
        Ok(BatchItemRef {
            session_id: dec.get_u64()?,
            ciphertext: dec.get_bytes_ref()?,
        })
    }

    /// An owning copy of this item.
    #[must_use]
    pub fn to_owned(&self) -> BatchItem {
        BatchItem {
            session_id: self.session_id,
            ciphertext: self.ciphertext.to_vec(),
        }
    }
}

/// A lazily-decoded view over a `BatchRequest` wire encoding: yields
/// [`BatchItemRef`]s that borrow their ciphertexts from the input buffer.
///
/// The item count is read eagerly (so callers can enforce batch limits
/// before touching any payload); the items themselves decode as the view is
/// iterated. Wire-format errors surface as `Err` items, after which the
/// iterator fuses.
#[derive(Debug)]
pub struct BatchRequestView<'a> {
    dec: Decoder<'a>,
    remaining: usize,
    poisoned: bool,
}

impl<'a> BatchRequestView<'a> {
    /// Opens a view over `data`, reading only the item count.
    pub fn new(data: &'a [u8]) -> Result<Self, WireError> {
        let mut dec = Decoder::new(data);
        let remaining = dec.get_varint()? as usize;
        Ok(BatchRequestView {
            dec,
            remaining,
            poisoned: false,
        })
    }

    /// Declared number of items not yet yielded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// True when no items remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// Fails with [`WireError::TrailingBytes`] unless every declared item
    /// has been yielded and the underlying buffer is exhausted — the same
    /// strictness `BatchRequest::from_wire` enforces via `Decoder::finish`.
    /// Call after iteration when the encoding comes from an untrusted peer.
    pub fn finish(&self) -> Result<(), WireError> {
        self.dec.finish()
    }
}

impl<'a> Iterator for BatchRequestView<'a> {
    type Item = Result<BatchItemRef<'a>, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match BatchItemRef::decode(&mut self.dec) {
            Ok(item) => Some(Ok(item)),
            Err(e) => {
                self.poisoned = true;
                Some(Err(e))
            }
        }
    }
}

/// Request marshalled into the `PROCESS_BATCH` ECALL: every queued encrypted
/// contribution for this enclave, crossing the boundary in one transition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchRequest {
    /// The queued items, in arrival order.
    pub items: Vec<BatchItem>,
}

impl BatchRequest {
    /// Streams `items` into `enc` in the exact `BatchRequest` wire format
    /// without materializing an owned `BatchRequest` first. The encoder is
    /// reset, so afterwards it holds a complete encoding that
    /// [`BatchRequest::from_wire`] and [`BatchRequestView`] both accept.
    ///
    /// This is the gateway's allocation-free drain path: the shard worker
    /// encodes its queue directly from the `VecDeque` into a long-lived
    /// per-worker encoder, so steady-state sweeps reuse one buffer instead
    /// of collecting a fresh item vector plus a fresh wire vector per batch.
    pub fn encode_items_into<'a, I>(enc: &mut Encoder, items: I)
    where
        I: ExactSizeIterator<Item = &'a BatchItem>,
    {
        enc.reset();
        enc.put_varint(items.len() as u64);
        for item in items {
            item.encode(enc);
        }
    }
}

impl WireCodec for BatchRequest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.items.len() as u64);
        for item in &self.items {
            item.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = dec.get_varint()? as usize;
        let mut items = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            items.push(BatchItem::decode(dec)?);
        }
        Ok(BatchRequest { items })
    }
}

/// Per-item outcome of a `PROCESS_BATCH` ECALL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The item was processed; the payload is the nonce-prefixed encrypted
    /// [`ProcessResponse`] (which may itself be a rejection).
    ///
    /// `endorsed` publicly releases exactly one bit — whether the pipeline
    /// produced an endorsement — so the untrusted gateway can do admission
    /// control and billing without opening the response. The device forwards
    /// any endorsement to the service anyway, so this bit becomes public the
    /// moment the contribution is used; releasing it here (and nothing else)
    /// mirrors the paper's one-bit-verdict auditor discipline.
    Reply {
        /// Nonce-prefixed encrypted [`ProcessResponse`].
        ciphertext: Vec<u8>,
        /// Whether an endorsement was produced (validation passed).
        endorsed: bool,
    },
    /// The item could not be processed at all (unknown session, undecryptable
    /// ciphertext); nothing was released for it.
    Failed(String),
}

/// One reply slot of a batch, paired with the session it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReplyItem {
    /// The session the reply belongs to.
    pub session_id: u64,
    /// What happened to the item.
    pub outcome: BatchOutcome,
}

impl WireCodec for BatchReplyItem {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.session_id);
        match &self.outcome {
            BatchOutcome::Reply {
                ciphertext,
                endorsed,
            } => {
                enc.put_u8(1);
                enc.put_bytes(ciphertext);
                enc.put_bool(*endorsed);
            }
            BatchOutcome::Failed(reason) => {
                enc.put_u8(0);
                enc.put_str(reason);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let session_id = dec.get_u64()?;
        let outcome = match dec.get_u8()? {
            1 => BatchOutcome::Reply {
                ciphertext: dec.get_bytes()?,
                endorsed: dec.get_bool()?,
            },
            0 => BatchOutcome::Failed(dec.get_str()?),
            other => return Err(WireError::UnknownTag(other.into())),
        };
        Ok(BatchReplyItem {
            session_id,
            outcome,
        })
    }
}

/// Reply marshalled out of the `PROCESS_BATCH` ECALL: one outcome per input
/// item, in the same order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchReply {
    /// Per-item outcomes.
    pub items: Vec<BatchReplyItem>,
}

impl BatchReply {
    /// Decodes a reply's items into a reusable vector — cleared first, with
    /// its capacity kept — instead of allocating a fresh `BatchReply` per
    /// drain sweep. On error the vector's contents are unspecified (the next
    /// call clears it again); full-consumption strictness matches
    /// [`BatchReply::from_wire`].
    pub fn decode_items_into(
        bytes: &[u8],
        items: &mut Vec<BatchReplyItem>,
    ) -> Result<(), WireError> {
        items.clear();
        let mut dec = Decoder::new(bytes);
        let n = dec.get_varint()? as usize;
        items.reserve(n.min(1 << 16));
        for _ in 0..n {
            items.push(BatchReplyItem::decode(&mut dec)?);
        }
        dec.finish()
    }
}

impl WireCodec for BatchReply {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.items.len() as u64);
        for item in &self.items {
            item.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = dec.get_varint()? as usize;
        let mut items = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            items.push(BatchReplyItem::decode(dec)?);
        }
        Ok(BatchReply { items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_contribution() -> Contribution {
        Contribution {
            app_id: "nextwordpredictive.com".to_string(),
            client_id: 42,
            round: 7,
            payload: ContributionPayload::ModelUpdate {
                weights: vec![0.1, 0.9, 0.5],
            },
        }
    }

    #[test]
    fn payload_round_trips() {
        let payloads = vec![
            ContributionPayload::ModelUpdate {
                weights: vec![0.0, 0.5, 538.0],
            },
            ContributionPayload::Photo {
                photo_hash: [9u8; 32],
                claimed_lat: 43.66,
                claimed_lon: -79.39,
            },
            ContributionPayload::IotReadings {
                samples: vec![20.5, 21.0],
            },
        ];
        for p in payloads {
            let bytes = p.to_wire();
            assert_eq!(ContributionPayload::from_wire(&bytes).unwrap(), p);
        }
        assert!(ContributionPayload::from_wire(&[99]).is_err());
    }

    #[test]
    fn blinding_requirements() {
        assert!(ContributionPayload::ModelUpdate { weights: vec![] }.requires_blinding());
        assert!(ContributionPayload::IotReadings { samples: vec![] }.requires_blinding());
        assert!(!ContributionPayload::Photo {
            photo_hash: [0u8; 32],
            claimed_lat: 0.0,
            claimed_lon: 0.0
        }
        .requires_blinding());
    }

    #[test]
    fn private_data_round_trips() {
        let cases = vec![
            PrivateData::None,
            PrivateData::KeyboardLog {
                sentences: vec![vec![1, 2, 3], vec![], vec![7]],
            },
            PrivateData::GpsTrack {
                points: vec![
                    (43.66, -79.39, 1_700_000_000),
                    (43.67, -79.38, 1_700_000_060),
                ],
                camera_fingerprint: [3u8; 32],
            },
            PrivateData::BotSignals {
                signals: vec![
                    ("mouse_entropy".to_string(), 0.8),
                    ("js_fidelity".to_string(), 1.0),
                ],
            },
        ];
        for c in cases {
            assert_eq!(PrivateData::from_wire(&c.to_wire()).unwrap(), c);
        }
        assert!(PrivateData::from_wire(&[77]).is_err());
    }

    #[test]
    fn contribution_and_request_round_trip() {
        let contribution = sample_contribution();
        assert_eq!(
            Contribution::from_wire(&contribution.to_wire()).unwrap(),
            contribution
        );
        let request = ProcessRequest {
            contribution,
            private_data: PrivateData::KeyboardLog {
                sentences: vec![vec![1, 2]],
            },
        };
        assert_eq!(
            ProcessRequest::from_wire(&request.to_wire()).unwrap(),
            request
        );
    }

    #[test]
    fn verdict_constructors_and_round_trip() {
        let pass = ValidationVerdict::pass();
        assert!(pass.passed);
        let fail = ValidationVerdict::fail("weight 538 outside [0,1]");
        assert!(!fail.passed);
        assert!(fail.reason.contains("538"));
        let partial = ValidationVerdict::with_confidence(true, 7.0, "clamped");
        assert_eq!(partial.confidence, 1.0);
        for v in [pass, fail, partial] {
            assert_eq!(ValidationVerdict::from_wire(&v.to_wire()).unwrap(), v);
        }
    }

    /// The digest of one fixed endorsement, computed apart from this crate
    /// over the documented v2 encoding (the 200-byte payload takes a
    /// two-byte LEB128 length):
    ///
    /// ```text
    /// python3 -c 'import hashlib, struct
    /// lp = lambda b: (bytes([len(b)]) if len(b) < 128 else bytes([len(b) & 0x7f | 0x80, len(b) >> 7])) + b
    /// m = (lp(b"glimmer-endorsement-v2") + lp(b"keyboard") + struct.pack("<QQ", 11, 4)
    ///      + b"\x01" + lp(bytes(range(200))))
    /// print(hashlib.sha256(m).hexdigest())'
    /// ```
    ///
    /// A failure here means the signed encoding changed: bump its tag.
    #[test]
    fn endorsement_digest_known_answer() {
        let endorsed = EndorsedContribution {
            app_id: "keyboard".to_string(),
            client_id: 11,
            round: 4,
            released_payload: (0..200u8).collect(),
            blinded: true,
            signature: vec![0xAA; 257],
        };
        let hex: String = endorsed
            .digest()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "dd3e89cd6a2349a26e5dda6d96a5b3c36d4565144c746af1627d674e26a494fd"
        );
    }

    #[test]
    fn endorsement_and_response_round_trip() {
        let endorsed = EndorsedContribution {
            app_id: "app".to_string(),
            client_id: 1,
            round: 2,
            released_payload: vec![1, 2, 3],
            blinded: true,
            signature: vec![9u8; 64],
        };
        assert_eq!(
            EndorsedContribution::from_wire(&endorsed.to_wire()).unwrap(),
            endorsed
        );
        // The signed bytes bind the app, client, round, and payload.
        let mut other = endorsed.clone();
        other.round = 3;
        assert_ne!(endorsed.signed_bytes(), other.signed_bytes());

        let responses = vec![
            ProcessResponse::Endorsed(endorsed),
            ProcessResponse::Rejected {
                reason: "range".to_string(),
            },
        ];
        for r in responses {
            assert_eq!(ProcessResponse::from_wire(&r.to_wire()).unwrap(), r);
        }
    }

    #[test]
    fn session_and_batch_messages_round_trip() {
        let open = SessionOpenRequest {
            session_id: 9,
            qe_measurement: [4u8; 32],
        };
        assert_eq!(
            SessionOpenRequest::from_wire(&open.to_wire()).unwrap(),
            open
        );

        let accept = SessionAcceptRequest {
            session_id: 9,
            accept: vec![1, 2, 3],
        };
        assert_eq!(
            SessionAcceptRequest::from_wire(&accept.to_wire()).unwrap(),
            accept
        );

        let batch = BatchRequest {
            items: vec![
                BatchItem {
                    session_id: 1,
                    ciphertext: vec![5; 20],
                },
                BatchItem {
                    session_id: 2,
                    ciphertext: vec![],
                },
            ],
        };
        assert_eq!(BatchRequest::from_wire(&batch.to_wire()).unwrap(), batch);
        assert_eq!(
            BatchRequest::from_wire(&BatchRequest::default().to_wire()).unwrap(),
            BatchRequest::default()
        );

        let reply = BatchReply {
            items: vec![
                BatchReplyItem {
                    session_id: 1,
                    outcome: BatchOutcome::Reply {
                        ciphertext: vec![9; 16],
                        endorsed: true,
                    },
                },
                BatchReplyItem {
                    session_id: 2,
                    outcome: BatchOutcome::Failed("no such session".to_string()),
                },
            ],
        };
        assert_eq!(BatchReply::from_wire(&reply.to_wire()).unwrap(), reply);
        assert!(BatchReplyItem::from_wire(&[0u8; 9]).is_err());
    }

    #[test]
    fn streamed_batch_encode_and_reusable_reply_decode_match_owned_paths() {
        let batch = BatchRequest {
            items: vec![
                BatchItem {
                    session_id: 3,
                    ciphertext: vec![0xCD; 40],
                },
                BatchItem {
                    session_id: 5,
                    ciphertext: vec![1, 2],
                },
            ],
        };
        // Streaming from an iterator produces byte-identical wire encoding,
        // and resetting means a dirty encoder can be reused directly.
        let mut enc = Encoder::new();
        enc.put_str("stale bytes from the previous sweep");
        BatchRequest::encode_items_into(&mut enc, batch.items.iter());
        assert_eq!(enc.as_slice(), batch.to_wire().as_slice());
        // Empty sweeps encode an empty batch.
        BatchRequest::encode_items_into(&mut enc, std::iter::empty());
        assert_eq!(enc.as_slice(), BatchRequest::default().to_wire().as_slice());

        let reply = BatchReply {
            items: vec![
                BatchReplyItem {
                    session_id: 3,
                    outcome: BatchOutcome::Reply {
                        ciphertext: vec![9; 16],
                        endorsed: true,
                    },
                },
                BatchReplyItem {
                    session_id: 5,
                    outcome: BatchOutcome::Failed("nope".to_string()),
                },
            ],
        };
        let wire = reply.to_wire();
        let mut items = vec![BatchReplyItem {
            session_id: 999,
            outcome: BatchOutcome::Failed("stale".to_string()),
        }];
        BatchReply::decode_items_into(&wire, &mut items).unwrap();
        assert_eq!(items, reply.items);
        // Trailing garbage is rejected with the same strictness as from_wire.
        let mut trailing = wire.clone();
        trailing.push(0xAA);
        assert_eq!(
            BatchReply::decode_items_into(&trailing, &mut items),
            Err(WireError::TrailingBytes(1))
        );
        // Truncation errors out rather than yielding a partial success.
        assert!(BatchReply::decode_items_into(&wire[..wire.len() - 3], &mut items).is_err());
    }

    #[test]
    fn batch_view_borrows_without_copying_and_agrees_with_owned_decode() {
        let batch = BatchRequest {
            items: vec![
                BatchItem {
                    session_id: 7,
                    ciphertext: vec![0xAB; 24],
                },
                BatchItem {
                    session_id: 9,
                    ciphertext: vec![],
                },
                BatchItem {
                    session_id: 7,
                    ciphertext: vec![1, 2, 3],
                },
            ],
        };
        let wire = batch.to_wire();
        let view = BatchRequestView::new(&wire).unwrap();
        assert_eq!(view.len(), 3);
        let items: Vec<BatchItemRef<'_>> = view.map(Result::unwrap).collect();
        // Same contents as the owned decode...
        assert_eq!(
            items.iter().map(BatchItemRef::to_owned).collect::<Vec<_>>(),
            BatchRequest::from_wire(&wire).unwrap().items
        );
        // ...and the ciphertexts alias the wire buffer (true zero-copy).
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        for item in &items {
            if !item.ciphertext.is_empty() {
                assert!(wire_range.contains(&(item.ciphertext.as_ptr() as usize)));
            }
        }

        // A fully-consumed well-formed view passes the finish check.
        let mut view = BatchRequestView::new(&wire).unwrap();
        assert!(view.by_ref().all(|item| item.is_ok()));
        view.finish().unwrap();

        // Trailing garbage after the declared items is rejected, exactly as
        // the owned decode path rejects it.
        let mut trailing = wire.clone();
        trailing.push(0xEE);
        let mut view = BatchRequestView::new(&trailing).unwrap();
        assert!(view.by_ref().all(|item| item.is_ok()));
        assert_eq!(view.finish(), Err(WireError::TrailingBytes(1)));
        assert!(BatchRequest::from_wire(&trailing).is_err());

        // A truncated encoding yields an error item, then fuses.
        let mut view = BatchRequestView::new(&wire[..wire.len() - 2]).unwrap();
        assert!(view.next().unwrap().is_ok());
        assert!(view.next().unwrap().is_ok());
        assert!(view.next().unwrap().is_err());
        assert!(view.next().is_none());

        // Empty batches are empty views.
        assert!(BatchRequestView::new(&BatchRequest::default().to_wire())
            .unwrap()
            .is_empty());
        // Garbage input errors at open (count varint) rather than panicking.
        assert!(BatchRequestView::new(&[0x80u8; 11]).is_err());
    }

    #[test]
    fn blinded_vector_decoding() {
        let mut enc = Encoder::new();
        enc.put_u64_vec(&[5, 6, 7]);
        let endorsed = EndorsedContribution {
            app_id: "app".to_string(),
            client_id: 1,
            round: 2,
            released_payload: enc.into_bytes(),
            blinded: true,
            signature: vec![],
        };
        assert_eq!(endorsed.blinded_vector().unwrap(), vec![5, 6, 7]);
        let bad = EndorsedContribution {
            released_payload: vec![0xFF],
            ..endorsed
        };
        assert!(bad.blinded_vector().is_err());
    }
}
