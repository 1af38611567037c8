//! Nonce-misuse-resistant authenticated encryption: ChaCha20/Poly1305 in
//! the SIV mode.
//!
//! Sealed blobs, attested-channel messages, and encrypted validation
//! predicates all need confidentiality *and* integrity. This module builds
//! both from ChaCha20 and Poly1305 the way AES-GCM-SIV builds them from AES
//! and POLYVAL (RFC 8452 §4), after the SIV construction of Rogaway and
//! Shrimpton (EUROCRYPT 2006). To seal `plaintext` under `nonce`:
//!
//! 1. `otk = ChaCha20(mac_key, nonce).block(0)[..32]`, a per-nonce
//!    Poly1305 key;
//! 2. `h = Poly1305(otk, aad ‖ pad16 ‖ plaintext ‖ pad16 ‖ le64|aad| ‖
//!    le64|plaintext|)` — the RFC 8439 §2.8 layout, over the *plaintext*;
//! 3. `tag = ChaCha20(mac_key, h[4..16]).block(le32(h[0..4]) | 2^31)[..16]`
//!    (the top counter bit keeps this block out of step 1's block-0 domain);
//! 4. output `plaintext ⊕ ChaCha20(enc_key, tag[..12])` from counter 0,
//!    then `tag`.
//!
//! Security argument, as for RFC 8452: step 2 is an almost-universal hash
//! under a key drawn per nonce and step 3 a PRF of its output, so the tag is
//! a PRF of the whole `(nonce, aad, plaintext)`: both the MAC and the
//! synthetic IV of step 4. A repeated nonce over different inputs therefore
//! gives unrelated tags and unrelated keystreams, and reveals only whether an
//! `(aad, plaintext)` pair repeated. The one-time key feeds nothing but the
//! PRF, so reuse does not disclose it either.
//!
//! This is deliberately **not** RFC 8439 ChaCha20-Poly1305 on the wire. Under
//! RFC 8439 a repeated nonce reuses keystream *and* discloses the Poly1305
//! key, which turns into forgeries. The simulator repeats nonces by design:
//! a restored pool slot replays its enclave's random stream, so its reply
//! nonces and sealing nonces recur under keys that outlive the crash.

use crate::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use crate::ct::ct_eq;
use crate::hkdf::hkdf;
use crate::poly1305::Poly1305;
use crate::CryptoError;

/// Length of the authentication tag appended to ciphertexts.
pub const TAG_LEN: usize = 16;

/// Errors from AEAD operations (re-exported alias of [`CryptoError`]).
pub type AeadError = CryptoError;

/// An AEAD key: independent sub-keys for encryption and authentication derived
/// from one 32-byte master key.
///
/// # Examples
///
/// ```
/// use glimmer_crypto::aead::AeadKey;
/// let key = AeadKey::from_master(&[42u8; 32]);
/// let nonce = [1u8; 12];
/// let ct = key.seal(&nonce, b"context", b"private contribution");
/// let pt = key.open(&nonce, b"context", &ct).unwrap();
/// assert_eq!(pt, b"private contribution");
/// assert!(key.open(&nonce, b"wrong context", &ct).is_err());
/// ```
#[derive(Clone)]
pub struct AeadKey {
    enc_key: [u8; KEY_LEN],
    mac_key: [u8; KEY_LEN],
}

impl AeadKey {
    /// Derives an AEAD key from a 32-byte master secret.
    #[must_use]
    pub fn from_master(master: &[u8; 32]) -> Self {
        let okm = hkdf(b"glimmers-aead-v1", master, b"enc|mac", 64);
        let mut enc_key = [0u8; KEY_LEN];
        let mut mac_key = [0u8; KEY_LEN];
        enc_key.copy_from_slice(&okm[..32]);
        mac_key.copy_from_slice(&okm[32..]);
        AeadKey { enc_key, mac_key }
    }

    /// Derives an AEAD key from arbitrary-length keying material.
    #[must_use]
    pub fn from_material(material: &[u8]) -> Self {
        let master = crate::hkdf::derive_key_32(material, "aead-master");
        Self::from_master(&master)
    }

    /// Exports the derived sub-keys (`enc || mac`, 64 bytes) for sealed
    /// persistence.
    ///
    /// This deliberately reveals the working key material, so it must only
    /// ever be called on data that goes straight into a sealed blob (the
    /// enclave checkpoint/restore path). It exists because channel keys are
    /// derived from ephemeral DH exchanges whose secrets are long gone by
    /// checkpoint time — the derived keys are the only form that can be
    /// persisted.
    #[must_use]
    pub fn export_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.enc_key);
        out[32..].copy_from_slice(&self.mac_key);
        out
    }

    /// Rebuilds a key from [`AeadKey::export_bytes`] output (the inverse used
    /// when unsealing a checkpoint).
    #[must_use]
    pub fn from_export(bytes: &[u8; 64]) -> Self {
        let mut enc_key = [0u8; KEY_LEN];
        let mut mac_key = [0u8; KEY_LEN];
        enc_key.copy_from_slice(&bytes[..32]);
        mac_key.copy_from_slice(&bytes[32..]);
        AeadKey { enc_key, mac_key }
    }

    /// Encrypts `plaintext`, binding it to `aad`, and returns
    /// `ciphertext || tag`.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let tag = self.tag(nonce, aad, plaintext);
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.keystream(&tag).apply(&mut out, 0);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts `ciphertext || tag`, verifying the tag and the binding to
    /// `aad`.
    ///
    /// Returns [`CryptoError::VerificationFailed`] if the tag does not match
    /// and [`CryptoError::InvalidLength`] if the input is shorter than a tag.
    /// A failed open zeroes the plaintext it decrypted before returning.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
    ) -> Result<Vec<u8>, AeadError> {
        if ciphertext_and_tag.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength {
                got: ciphertext_and_tag.len(),
                expected: TAG_LEN,
            });
        }
        let split = ciphertext_and_tag.len() - TAG_LEN;
        let (ciphertext, tag) = ciphertext_and_tag.split_at(split);
        let tag: &[u8; TAG_LEN] = tag.try_into().expect("the split leaves exactly a tag");
        let mut out = ciphertext.to_vec();
        self.keystream(tag).apply(&mut out, 0);
        if !ct_eq(&self.tag(nonce, aad, &out), tag) {
            out.fill(0);
            std::hint::black_box(&out);
            return Err(CryptoError::VerificationFailed);
        }
        Ok(out)
    }

    /// The SIV tag of `(nonce, aad, plaintext)`: steps 1–3 of the module
    /// doc.
    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> [u8; TAG_LEN] {
        const ZEROS: [u8; 16] = [0; 16];
        let pad = |len: usize| &ZEROS[..(16 - len % 16) % 16];
        let block0 = ChaCha20::new(&self.mac_key, nonce).block(0);
        let mut otk = [0u8; 32];
        otk.copy_from_slice(&block0[..32]);
        let mut mac = Poly1305::new(&otk);
        mac.update(aad);
        mac.update(pad(aad.len()));
        mac.update(plaintext);
        mac.update(pad(plaintext.len()));
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(plaintext.len() as u64).to_le_bytes());
        let h = mac.finalize();

        let mut prf_nonce = [0u8; NONCE_LEN];
        prf_nonce.copy_from_slice(&h[4..]);
        let counter = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) | 0x8000_0000;
        let block = ChaCha20::new(&self.mac_key, &prf_nonce).block(counter);
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&block[..TAG_LEN]);
        tag
    }

    /// The encryption keystream under the synthetic IV `tag[..12]`.
    fn keystream(&self, tag: &[u8; TAG_LEN]) -> ChaCha20 {
        let mut iv = [0u8; NONCE_LEN];
        iv.copy_from_slice(&tag[..NONCE_LEN]);
        ChaCha20::new(&self.enc_key, &iv)
    }
}

/// One-shot seal with a key derived from `material`.
#[must_use]
pub fn seal(material: &[u8], nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    AeadKey::from_material(material).seal(nonce, aad, plaintext)
}

/// One-shot open with a key derived from `material`.
pub fn open(
    material: &[u8],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext_and_tag: &[u8],
) -> Result<Vec<u8>, AeadError> {
    AeadKey::from_material(material).open(nonce, aad, ciphertext_and_tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let key = AeadKey::from_master(&[1u8; 32]);
        let nonce = [2u8; 12];
        let ct = key.seal(&nonce, b"aad", b"hello glimmer");
        assert_eq!(key.open(&nonce, b"aad", &ct).unwrap(), b"hello glimmer");
    }

    #[test]
    fn export_round_trips_to_an_equivalent_key() {
        let key = AeadKey::from_master(&[5u8; 32]);
        let restored = AeadKey::from_export(&key.export_bytes());
        let nonce = [9u8; 12];
        // The restored key opens what the original sealed, and vice versa.
        let ct = key.seal(&nonce, b"checkpoint", b"state");
        assert_eq!(restored.open(&nonce, b"checkpoint", &ct).unwrap(), b"state");
        let ct2 = restored.seal(&nonce, b"checkpoint", b"state2");
        assert_eq!(key.open(&nonce, b"checkpoint", &ct2).unwrap(), b"state2");
        assert_eq!(key.export_bytes(), restored.export_bytes());
    }

    #[test]
    fn tamper_detection() {
        let key = AeadKey::from_master(&[1u8; 32]);
        let nonce = [2u8; 12];
        let mut ct = key.seal(&nonce, b"aad", b"hello glimmer");
        // Flip a ciphertext bit.
        ct[0] ^= 1;
        assert_eq!(
            key.open(&nonce, b"aad", &ct),
            Err(CryptoError::VerificationFailed)
        );
        // Flip a tag bit.
        let mut ct2 = key.seal(&nonce, b"aad", b"hello glimmer");
        let last = ct2.len() - 1;
        ct2[last] ^= 1;
        assert_eq!(
            key.open(&nonce, b"aad", &ct2),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn wrong_aad_or_nonce_fails() {
        let key = AeadKey::from_master(&[1u8; 32]);
        let nonce = [2u8; 12];
        let ct = key.seal(&nonce, b"aad", b"data");
        assert!(key.open(&nonce, b"other", &ct).is_err());
        assert!(key.open(&[3u8; 12], b"aad", &ct).is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let key = AeadKey::from_master(&[1u8; 32]);
        let other = AeadKey::from_master(&[9u8; 32]);
        let nonce = [2u8; 12];
        let ct = key.seal(&nonce, b"", b"data");
        assert!(other.open(&nonce, b"", &ct).is_err());
    }

    #[test]
    fn short_input_rejected() {
        let key = AeadKey::from_master(&[1u8; 32]);
        assert!(matches!(
            key.open(&[0u8; 12], b"", &[0u8; 5]),
            Err(CryptoError::InvalidLength { .. })
        ));
    }

    #[test]
    fn empty_plaintext_round_trip() {
        let key = AeadKey::from_material(b"some shared secret");
        let nonce = [7u8; 12];
        let ct = key.seal(&nonce, b"context", b"");
        assert_eq!(ct.len(), TAG_LEN);
        assert_eq!(key.open(&nonce, b"context", &ct).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn one_shot_helpers() {
        let nonce = [4u8; 12];
        let ct = seal(b"material", &nonce, b"aad", b"payload");
        assert_eq!(open(b"material", &nonce, b"aad", &ct).unwrap(), b"payload");
        assert!(open(b"other material", &nonce, b"aad", &ct).is_err());
    }

    fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
        a.iter().zip(b).map(|(x, y)| x ^ y).collect()
    }

    #[test]
    fn seal_follows_the_documented_construction() {
        use crate::poly1305::poly1305;
        let key = AeadKey::from_master(&[3u8; 32]);
        let exported = key.export_bytes();
        let (enc_key, mac_key): (&[u8; 32], &[u8; 32]) = (
            exported[..32].try_into().unwrap(),
            exported[32..].try_into().unwrap(),
        );
        let nonce = [6u8; 12];
        let (aad, pt) = (b"seventeen bytes!!".as_slice(), [0x5au8; 70]);

        let otk: [u8; 32] = ChaCha20::new(mac_key, &nonce).block(0)[..32]
            .try_into()
            .unwrap();
        let mut input = aad.to_vec();
        input.resize(32, 0);
        input.extend_from_slice(&pt);
        input.resize(32 + 80, 0);
        input.extend_from_slice(&17u64.to_le_bytes());
        input.extend_from_slice(&70u64.to_le_bytes());
        let h = poly1305(&otk, &input);
        let counter = u32::from_le_bytes(h[..4].try_into().unwrap()) | 0x8000_0000;
        let block = ChaCha20::new(mac_key, h[4..].try_into().unwrap()).block(counter);
        let mut expected = pt.to_vec();
        ChaCha20::new(enc_key, block[..12].try_into().unwrap()).apply(&mut expected, 0);
        expected.extend_from_slice(&block[..TAG_LEN]);

        assert_eq!(key.seal(&nonce, aad, &pt), expected);
    }

    #[test]
    fn a_repeated_nonce_over_different_plaintexts_shares_no_keystream() {
        let key = AeadKey::from_master(&[8u8; 32]);
        let nonce = [0u8; 12];
        let pt1 = b"endorsement for round 4, client 7".to_vec();
        let mut pt2 = pt1.clone();
        pt2[22] ^= 0x01;
        let ct1 = key.seal(&nonce, b"aad", &pt1);
        let ct2 = key.seal(&nonce, b"aad", &pt2);
        let body = pt1.len();
        assert_ne!(ct1[body..], ct2[body..], "tags differ");
        assert_ne!(
            xor(&ct1[..body], &ct2[..body]),
            xor(&pt1, &pt2),
            "no keystream in common"
        );
        // Different associated data under the same nonce: the same holds.
        let ct3 = key.seal(&nonce, b"aae", &pt1);
        assert_ne!(ct1[body..], ct3[body..]);
        assert_ne!(xor(&ct1[..body], &ct3[..body]), vec![0u8; body]);
    }

    #[test]
    fn identical_inputs_seal_identically() {
        let key = AeadKey::from_master(&[8u8; 32]);
        let nonce = [4u8; 12];
        let pt = vec![0xa5u8; 1000];
        assert_eq!(key.seal(&nonce, b"ctx", &pt), key.seal(&nonce, b"ctx", &pt));
        assert_eq!(
            key.seal(&nonce, b"ctx", &pt),
            key.clone().seal(&nonce, b"ctx", &pt)
        );
    }

    #[test]
    fn every_bit_flip_and_a_swapped_tag_fail_without_plaintext() {
        let key = AeadKey::from_master(&[2u8; 32]);
        let nonce = [5u8; 12];
        let aad = b"glimmer-remote-response-v1";
        let ct = key.seal(&nonce, aad, b"a 23-byte reply payload");
        let refused = |nonce: &[u8; 12], aad: &[u8], ct: &[u8]| {
            assert_eq!(
                key.open(nonce, aad, ct),
                Err(CryptoError::VerificationFailed)
            );
        };
        // Ciphertext and tag, every bit.
        for bit in 0..ct.len() * 8 {
            let mut bad = ct.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            refused(&nonce, aad, &bad);
        }
        for bit in 0..aad.len() * 8 {
            let mut bad = aad.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            refused(&nonce, &bad, &ct);
        }
        for bit in 0..NONCE_LEN * 8 {
            let mut bad = nonce;
            bad[bit / 8] ^= 1 << (bit % 8);
            refused(&bad, aad, &ct);
        }
        // Another message's tag under the same key, nonce and length.
        let other = key.seal(&nonce, aad, b"another reply, 23 bytes");
        let mut swapped = ct.clone();
        let body = swapped.len() - TAG_LEN;
        swapped[body..].copy_from_slice(&other[body..]);
        refused(&nonce, aad, &swapped);
    }
}
