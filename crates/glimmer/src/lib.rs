//! The Glimmer of Trust: the paper's primary contribution.
//!
//! A Glimmer (Lie & Maniatis, HotOS 2017) is a small trusted third party that
//! sits on the client side of the trust boundary and does exactly three
//! things to a user contribution before it is sent to a cloud service:
//!
//! 1. **Validation** — runs a service-specified validity predicate over the
//!    contribution and over private validation data the service must never
//!    see ([`validation`]).
//! 2. **Blinding** — hides the (private) contribution so the service can only
//!    learn aggregates ([`blinding`]).
//! 3. **Signing** — endorses the validated, blinded contribution with a
//!    service-provided key sealed to the Glimmer, so the service can verify
//!    that what it aggregates passed validation ([`signing`]).
//!
//! The Glimmer runs inside a (simulated) SGX enclave on the client device:
//! [`enclave_app`] is the enclave program, [`host`] is the untrusted client
//! runtime that drives it, and [`channel`] establishes the attested secure
//! channel between the service and the enclave. Section 4 extensions are
//! covered by [`confidential`] (validation confidentiality via encrypted
//! predicates), [`auditor`] (the runtime output auditor that bounds leakage
//! to one bit), [`remote`] (Glimmer-as-a-service for TEE-less IoT
//! devices: the device's side, and the smallest host) and [`replay`] (its
//! constant-size replay protection). [`policy`] implements the
//! verifiability/TCB accounting the paper argues makes Glimmers amenable to
//! formal verification.
//!
//! The enclave program keeps three kinds of state apart, one per principal:
//! the local path of Figure 3 (plaintext contributions, shares bound to no
//! one), the *service* channel of Section 4.1 (encrypted predicate, one-bit
//! verdicts, encrypted mask deliveries — also the gateway's tenant
//! channel), and the *device* sessions of Section 4.2, one record each,
//! which are the only encrypted request path: a per-device host and a
//! pooled gateway differ in how many sessions they hold, not in which code
//! serves them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auditor;
pub mod blinding;
pub mod channel;
pub mod confidential;
pub mod enclave_app;
pub mod host;
pub mod policy;
pub mod protocol;
pub mod remote;
pub mod replay;
pub mod signing;
pub mod validation;

pub use auditor::{AuditError, OutputAuditor};
pub use blinding::{BlindingService, MaskShare};
pub use channel::{AttestedChannel, ChannelAccept, ChannelError, ChannelOffer, GlimmerChannel};
pub use confidential::{open_predicate, seal_predicate, BotVerdict, EncryptedPredicate};
pub use enclave_app::{GlimmerEnclaveProgram, GlimmerStatus, MaskDelivery, GLIMMER_ISV_PROD_ID};
pub use host::{GlimmerClient, GlimmerDescriptor};
pub use policy::{check_verifiability, PolicyLimits, PolicyViolation, TcbReport};
pub use protocol::{
    BatchItem, BatchOutcome, BatchReply, BatchReplyItem, BatchRequest, Contribution,
    ContributionPayload, EndorsedContribution, PrivateData, ProcessRequest, ProcessResponse,
    SessionAcceptRequest, SessionMaskRequest, SessionOpenRequest, ValidationVerdict,
};
pub use remote::{IotDeviceSession, RemoteGlimmerHost};
pub use signing::{EndorsementVerifier, ServiceKeyMaterial};
pub use validation::{BotDetectorSpec, PredicateKind, PredicateSpec, ValidationPredicate};

/// Errors produced by the Glimmer runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum GlimmerError {
    /// The contribution failed validation; no endorsement was produced.
    ValidationRejected(String),
    /// A cryptographic operation failed.
    Crypto(glimmer_crypto::CryptoError),
    /// A simulated SGX operation failed.
    Sgx(sgx_sim::SgxError),
    /// A wire message could not be decoded.
    Wire(glimmer_wire::WireError),
    /// The Glimmer is missing state it needs (e.g., no signing key installed).
    NotProvisioned(&'static str),
    /// The attested channel could not be established or was misused.
    Channel(String),
    /// The runtime auditor refused to release a message.
    AuditRejected(String),
    /// A protocol message arrived with inconsistent or out-of-range fields.
    Protocol(&'static str),
}

impl core::fmt::Display for GlimmerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GlimmerError::ValidationRejected(reason) => {
                write!(f, "contribution rejected by validation: {reason}")
            }
            GlimmerError::Crypto(e) => write!(f, "crypto error: {e}"),
            GlimmerError::Sgx(e) => write!(f, "sgx error: {e}"),
            GlimmerError::Wire(e) => write!(f, "wire error: {e}"),
            GlimmerError::NotProvisioned(what) => write!(f, "glimmer not provisioned: {what}"),
            GlimmerError::Channel(msg) => write!(f, "attested channel error: {msg}"),
            GlimmerError::AuditRejected(msg) => write!(f, "auditor rejected output: {msg}"),
            GlimmerError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for GlimmerError {}

impl From<glimmer_crypto::CryptoError> for GlimmerError {
    fn from(e: glimmer_crypto::CryptoError) -> Self {
        GlimmerError::Crypto(e)
    }
}

impl From<sgx_sim::SgxError> for GlimmerError {
    fn from(e: sgx_sim::SgxError) -> Self {
        GlimmerError::Sgx(e)
    }
}

impl From<glimmer_wire::WireError> for GlimmerError {
    fn from(e: glimmer_wire::WireError) -> Self {
        GlimmerError::Wire(e)
    }
}

/// Result alias for the Glimmer runtime.
pub type Result<T> = core::result::Result<T, GlimmerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        assert!(GlimmerError::ValidationRejected("out of range".into())
            .to_string()
            .contains("out of range"));
        assert!(GlimmerError::NotProvisioned("signing key")
            .to_string()
            .contains("signing key"));
        assert!(GlimmerError::AuditRejected("too many bits".into())
            .to_string()
            .contains("too many bits"));
        assert!(GlimmerError::Channel("no quote".into())
            .to_string()
            .contains("no quote"));
        assert!(GlimmerError::Protocol("bad round")
            .to_string()
            .contains("bad round"));

        let crypto: GlimmerError = glimmer_crypto::CryptoError::VerificationFailed.into();
        assert!(matches!(crypto, GlimmerError::Crypto(_)));
        let sgx: GlimmerError = sgx_sim::SgxError::NotProvisioned.into();
        assert!(matches!(sgx, GlimmerError::Sgx(_)));
        let wire: GlimmerError = glimmer_wire::WireError::BadMagic.into();
        assert!(matches!(wire, GlimmerError::Wire(_)));
        assert!(wire.to_string().contains("wire"));
    }
}
