//! Cryptographic substrate for the Glimmers reproduction.
//!
//! The Glimmer architecture (Lie & Maniatis, HotOS 2017) relies on a small set
//! of cryptographic building blocks: hashing for enclave measurement, MACs and
//! key derivation for sealed storage, a stream cipher for confidential
//! predicate delivery, additive blinding for secure aggregation,
//! Diffie-Hellman for the attested channel of Section 4.1, and digital
//! signatures for contribution endorsement. All of those primitives are
//! implemented from scratch in this crate so that the reproduction has no
//! external cryptographic dependencies.
//!
//! # Security disclaimer
//!
//! This code is written for a research reproduction. It favours clarity and
//! portability over side-channel hardening: [`ct::ct_eq`] compares in
//! constant time, and the secret-exponent ladders of [`montgomery`] run an
//! operation sequence that depends on public lengths only, but nothing here
//! has been audited against a compiler or a microarchitecture. Do not use
//! it to protect real data.
//!
//! # Module map
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104).
//! * [`mod@hkdf`] — HKDF extract/expand (RFC 5869).
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439 §2.3–2.4).
//! * [`mod@poly1305`] — the Poly1305 one-time authenticator (RFC 8439 §2.5).
//! * [`aead`] — nonce-misuse-resistant authenticated encryption: ChaCha20
//!   and Poly1305 in the SIV mode (not RFC 8439's AEAD; see the module).
//! * [`drbg`] — a deterministic random bit generator built on ChaCha20.
//! * [`bignum`] — arbitrary-precision unsigned integers.
//! * [`montgomery`] — cached Montgomery arithmetic, the windowed
//!   variable-base ladder and the fixed-base comb.
//! * [`dh`] — finite-field Diffie-Hellman over RFC 3526 / RFC 2409 groups.
//! * [`schnorr`] — Schnorr signatures over the same prime-order subgroups.
//! * [`ct`] — constant-time helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod bignum;
pub mod chacha20;
pub mod ct;
pub mod dh;
pub mod drbg;
pub mod hkdf;
pub mod hmac;
pub mod montgomery;
pub mod poly1305;
pub mod schnorr;
pub mod sha256;

pub use aead::{open, seal, AeadError, AeadKey};
pub use bignum::BigUint;
pub use chacha20::ChaCha20;
pub use dh::{DhGroup, DhKeyPair, DhPublic, DhSecret};
pub use drbg::Drbg;
pub use hkdf::{hkdf, hkdf_expand, hkdf_extract};
pub use hmac::{hmac_sha256, HmacSha256};
pub use poly1305::{poly1305, Poly1305};
pub use schnorr::{Signature, SigningKey, VerifyingKey};
pub use sha256::{sha256, Sha256};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A MAC or signature failed to verify.
    VerificationFailed,
    /// An input had an invalid length for the requested operation.
    InvalidLength {
        /// What the caller supplied.
        got: usize,
        /// What the primitive expected.
        expected: usize,
    },
    /// A scalar or group element was outside its valid range.
    OutOfRange(&'static str),
    /// Division by zero or modulus of zero in bignum arithmetic.
    DivisionByZero,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::InvalidLength { got, expected } => {
                write!(f, "invalid length: got {got}, expected {expected}")
            }
            CryptoError::OutOfRange(what) => write!(f, "value out of range: {what}"),
            CryptoError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = core::result::Result<T, CryptoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = CryptoError::InvalidLength {
            got: 3,
            expected: 32,
        };
        assert!(e.to_string().contains("32"));
        assert!(CryptoError::VerificationFailed
            .to_string()
            .contains("verification"));
        assert!(CryptoError::OutOfRange("scalar")
            .to_string()
            .contains("scalar"));
        assert!(CryptoError::DivisionByZero.to_string().contains("zero"));
    }
}
