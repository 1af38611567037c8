//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Poly1305 evaluates the message, split into 16-byte blocks, as a polynomial
//! in the secret point `r` modulo the prime `2^130 - 5`, then adds the secret
//! pad `s` modulo `2^128`. A key must authenticate only one message; the AEAD
//! in [`crate::aead`] derives a fresh one per nonce and never lets the result
//! leave without passing it through a PRF first.
//!
//! The accumulator is three limbs of 44, 44 and 42 bits, so each block costs
//! nine `u64 × u64 → u128` products. The final reduction below `p` selects
//! with masks, not branches.

/// Key size in bytes (`r || s`).
pub const KEY_LEN: usize = 32;

/// Tag size in bytes.
pub const TAG_LEN: usize = 16;

const BLOCK_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Incremental Poly1305.
///
/// # Examples
///
/// ```
/// use glimmer_crypto::poly1305::{poly1305, Poly1305};
/// let key = [7u8; 32];
/// let mut mac = Poly1305::new(&key);
/// mac.update(b"endorsed ");
/// mac.update(b"contribution");
/// assert_eq!(mac.finalize(), poly1305(&key, b"endorsed contribution"));
/// ```
#[derive(Clone)]
pub struct Poly1305 {
    /// The clamped point `r`, in limbs.
    r: [u64; 3],
    /// `20 * r1` and `20 * r2`: the wrap-around factors of the limb product
    /// (`2^132 ≡ 4 * 5 (mod p)`).
    wrap: [u64; 2],
    /// The pad `s` of the key, as two little-endian words.
    pad: [u64; 2],
    /// The accumulator.
    h: [u64; 3],
    /// A partial block not yet absorbed.
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
}

impl Poly1305 {
    /// Creates an authenticator for a 32-byte one-time key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let t0 = le64(&key[0..8]);
        let t1 = le64(&key[8..16]);
        // The clamp of RFC 8439 §2.5, applied limb by limb.
        let r0 = t0 & 0xffc_0fff_ffff;
        let r1 = ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff;
        let r2 = (t1 >> 24) & 0x00f_ffff_fc0f;
        Poly1305 {
            r: [r0, r1, r2],
            wrap: [r1 * 20, r2 * 20],
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            h: [0; 3],
            buffer: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            let block = self.buffer;
            self.block(&block, 1 << 40);
            self.buffered = 0;
        }
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            self.block(block, 1 << 40);
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Returns the tag.
    #[must_use]
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            // A short final block carries its 1 bit inside the block.
            let mut block = [0u8; BLOCK_LEN];
            block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
            block[self.buffered] = 1;
            self.block(&block, 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;

        // Carry the accumulator through fully.
        let mut c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;

        // g = h + 5 - 2^130; keep g exactly when it did not borrow (h >= p).
        let mut g0 = h0 + 5;
        c = g0 >> 44;
        g0 &= MASK44;
        let mut g1 = h1 + c;
        c = g1 >> 44;
        g1 &= MASK44;
        let g2 = (h2 + c).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // h + s mod 2^128.
        let [p0, p1] = self.pad;
        h0 += p0 & MASK44;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += (((p0 >> 44) | (p1 << 20)) & MASK44) + c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += ((p1 >> 24) & MASK42) + c;

        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&(h0 | (h1 << 44)).to_le_bytes());
        tag[8..].copy_from_slice(&((h1 >> 20) | (h2 << 24)).to_le_bytes());
        tag
    }

    /// `h = (h + block + hibit * 2^128) * r mod p`, partially reduced.
    fn block(&mut self, block: &[u8], hibit: u64) {
        let t0 = le64(&block[0..8]);
        let t1 = le64(&block[8..16]);
        let [r0, r1, r2] = self.r;
        let [s1, s2] = self.wrap;
        let h0 = u128::from(self.h[0] + (t0 & MASK44));
        let h1 = u128::from(self.h[1] + (((t0 >> 44) | (t1 << 20)) & MASK44));
        let h2 = u128::from(self.h[2] + (((t1 >> 24) & MASK42) | hibit));

        let d0 = h0 * u128::from(r0) + h1 * u128::from(s2) + h2 * u128::from(s1);
        let mut d1 = h0 * u128::from(r1) + h1 * u128::from(r0) + h2 * u128::from(s2);
        let mut d2 = h0 * u128::from(r2) + h1 * u128::from(r1) + h2 * u128::from(r0);

        let mut c = d0 >> 44;
        let mut n0 = (d0 as u64) & MASK44;
        d1 += c;
        c = d1 >> 44;
        let n1 = (d1 as u64) & MASK44;
        d2 += c;
        c = d2 >> 42;
        let n2 = (d2 as u64) & MASK42;
        n0 += (c as u64) * 5;
        let carry = n0 >> 44;
        n0 &= MASK44;
        self.h = [n0, n1 + carry, n2];
    }
}

/// One-shot Poly1305 of `message` under a one-time `key`.
#[must_use]
pub fn poly1305(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(key);
    mac.update(message);
    mac.finalize()
}

fn le64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.5.2.
    #[test]
    fn rfc8439_tag_vector() {
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let tag = poly1305(&key, b"Cryptographic Forum Research Group");
        assert_eq!(tag.to_vec(), unhex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    // r = 1 and two all-ones blocks sum to 2^130 - 2 = p + 3, so the masked
    // final subtraction must fire.
    #[test]
    fn an_accumulator_in_p_to_2_130_is_reduced() {
        let mut key = [0u8; 32];
        key[0] = 1;
        let mut expected = [0u8; 16];
        expected[0] = 3;
        assert_eq!(poly1305(&key, &[0xff; 32]), expected);
    }

    // The same with a second block of 2^128 - 4: the sum is exactly p.
    #[test]
    fn an_accumulator_of_exactly_p_is_reduced_to_zero() {
        let mut key = [0u8; 32];
        key[0] = 1;
        key[16..].copy_from_slice(&[0x77; 16]);
        let mut message = [0xff; 32];
        message[16] = 0xfc;
        assert_eq!(poly1305(&key, &message), [0x77; 16]);
    }

    #[test]
    fn all_ones_key_and_message() {
        assert_eq!(
            poly1305(&[0xff; 32], &[0xff; 80]).to_vec(),
            unhex("b7dab159c89efa2ff98061493f57fa40")
        );
    }

    #[test]
    fn empty_message_tags_to_the_pad() {
        let mut key = [0xffu8; 32];
        key[16..].copy_from_slice(&[0x5a; 16]);
        assert_eq!(poly1305(&key, b""), [0x5a; 16]);
    }
}
