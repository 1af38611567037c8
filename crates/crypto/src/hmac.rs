//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! HMAC is the PRF under HKDF (and so under every sealing and channel key),
//! the simulated platform attestation signatures (standing in for EPID, see
//! `sgx-sim`), the bot detector's verdict MAC, and Schnorr's deterministic
//! nonce. The AEAD's MAC is Poly1305 (see [`crate::aead`]).

use crate::ct::ct_eq;
use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA-256.
///
/// # Examples
///
/// ```
/// use glimmer_crypto::hmac::{hmac_sha256, HmacSha256};
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"message");
/// assert_eq!(mac.finalize(), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates a MAC instance keyed with `key` (any length).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256::sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            outer_key: opad,
        }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.outer_key);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Verifies a tag in constant time.
    #[must_use]
    pub fn verify(self, expected: &[u8]) -> bool {
        ct_eq(&self.finalize(), expected)
    }
}

/// One-shot HMAC-SHA-256.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Verifies an HMAC-SHA-256 tag in constant time.
#[must_use]
pub fn hmac_sha256_verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
    ct_eq(&hmac_sha256(key, message), tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(hmac_sha256_verify(b"k", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!hmac_sha256_verify(b"k", b"m", &bad));
        assert!(!hmac_sha256_verify(b"k2", b"m", &tag));
        assert!(!hmac_sha256_verify(b"k", b"m2", &tag));
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut mac = HmacSha256::new(b"key material");
        mac.update(b"part one ");
        mac.update(b"part two");
        assert_eq!(
            mac.finalize(),
            hmac_sha256(b"key material", b"part one part two")
        );
    }
}
