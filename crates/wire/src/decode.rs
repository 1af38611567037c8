//! The wire decoder.

use crate::{Result, WireError};

/// Maximum length accepted for a single length-prefixed field (16 MiB).
///
/// The bound exists so that a malicious peer cannot make the decoder attempt
/// an enormous allocation; the Glimmer's runtime auditor relies on this when
/// parsing untrusted frames.
pub const MAX_FIELD_LEN: u64 = 16 * 1024 * 1024;

/// Reads primitive values from a byte slice in the wire format.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    offset: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, offset: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.offset
    }

    /// True when every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails with [`WireError::TrailingBytes`] unless the input is exhausted.
    pub fn finish(&self) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.data[self.offset..self.offset + n];
        self.offset += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a 0/1 boolean byte, rejecting other values.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidBool(other)),
        }
    }

    /// Reads an LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        for i in 0..10 {
            let byte = self.get_u8()?;
            let part = (byte & 0x7F) as u64;
            // The 10th byte may only contribute one bit.
            if i == 9 && byte > 1 {
                return Err(WireError::VarintTooLong);
            }
            result |= part << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
        Err(WireError::VarintTooLong)
    }

    /// Reads `n` raw bytes (no length prefix).
    pub fn get_raw(&mut self, n: usize) -> Result<Vec<u8>> {
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a fixed 32-byte array.
    pub fn get_array32(&mut self) -> Result<[u8; 32]> {
        let b = self.take(32)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(b);
        Ok(out)
    }

    /// Reads a varint-length-prefixed byte string as a borrow of the input.
    ///
    /// This is the zero-copy fast path: the returned slice aliases the
    /// decoder's underlying buffer, so hot paths (the gateway's
    /// `PROCESS_BATCH` decoding) can hand ciphertexts onward without an
    /// allocation per field. Use [`Decoder::get_bytes`] when an owned copy
    /// is actually needed.
    pub fn get_bytes_ref(&mut self) -> Result<&'a [u8]> {
        let len = self.get_varint()?;
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow(len));
        }
        self.take(len as usize)
    }

    /// Reads a varint-length-prefixed UTF-8 string as a borrow of the input
    /// (zero-copy counterpart of [`Decoder::get_str`]).
    pub fn get_str_ref(&mut self) -> Result<&'a str> {
        let bytes = self.get_bytes_ref()?;
        core::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a varint-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        Ok(self.get_bytes_ref()?.to_vec())
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        Ok(self.get_str_ref()?.to_string())
    }

    /// Reads a varint element count that the remaining input can hold.
    /// Each element encodes to at least `min_elem_len` bytes, so a count
    /// whose elements could not fit is refused before the caller reserves
    /// room for them: a hostile count reserves nothing. A `min_elem_len`
    /// of 0 bounds nothing.
    ///
    /// # Errors
    /// [`WireError::UnexpectedEnd`] when `count × min_elem_len` exceeds
    /// [`Decoder::remaining`]; the varint errors of [`Decoder::get_varint`].
    pub fn get_count(&mut self, min_elem_len: usize) -> Result<usize> {
        let count = self.get_varint()?;
        let needed = count.saturating_mul(min_elem_len as u64);
        if needed > self.remaining() as u64 {
            return Err(WireError::UnexpectedEnd {
                needed: usize::try_from(needed).unwrap_or(usize::MAX),
                remaining: self.remaining(),
            });
        }
        usize::try_from(count).map_err(|_| WireError::LengthOverflow(count))
    }

    /// Reads a length-prefixed vector of `u64` values.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>> {
        let len = self.get_count(8)?;
        if len as u64 > MAX_FIELD_LEN / 8 {
            return Err(WireError::LengthOverflow(len as u64));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed vector of `f64` values.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>> {
        Ok(self
            .get_u64_vec()?
            .into_iter()
            .map(f64::from_bits)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;

    #[test]
    fn primitive_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xAB);
        enc.put_u16(0x1234);
        enc.put_u32(0xDEADBEEF);
        enc.put_u64(u64::MAX - 1);
        enc.put_i64(-42);
        enc.put_f64(3.5);
        enc.put_bool(false);
        enc.put_varint(300);
        enc.put_bytes(b"payload");
        enc.put_str("naïve");
        enc.put_u64_vec(&[9, 8]);
        enc.put_f64_vec(&[0.25, 0.75]);
        enc.put_array32(&[3u8; 32]);

        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 0xAB);
        assert_eq!(dec.get_u16().unwrap(), 0x1234);
        assert_eq!(dec.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.get_i64().unwrap(), -42);
        assert_eq!(dec.get_f64().unwrap(), 3.5);
        assert!(!dec.get_bool().unwrap());
        assert_eq!(dec.get_varint().unwrap(), 300);
        assert_eq!(dec.get_bytes().unwrap(), b"payload");
        assert_eq!(dec.get_str().unwrap(), "naïve");
        assert_eq!(dec.get_u64_vec().unwrap(), vec![9, 8]);
        assert_eq!(dec.get_f64_vec().unwrap(), vec![0.25, 0.75]);
        assert_eq!(dec.get_array32().unwrap(), [3u8; 32]);
        assert!(dec.is_exhausted());
        dec.finish().unwrap();
    }

    #[test]
    fn truncation_and_invalid_data() {
        let mut dec = Decoder::new(&[0x01]);
        assert!(dec.get_u32().is_err());

        // Invalid boolean byte.
        let mut dec = Decoder::new(&[5]);
        assert_eq!(dec.get_bool(), Err(WireError::InvalidBool(5)));

        // Invalid UTF-8.
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xFF, 0xFE]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_str(), Err(WireError::InvalidUtf8));

        // Length prefix larger than the remaining data.
        let mut enc = Encoder::new();
        enc.put_varint(100);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_bytes().is_err());

        // Oversized length prefix is rejected before allocation.
        let mut enc = Encoder::new();
        enc.put_varint(MAX_FIELD_LEN + 1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.get_bytes(), Err(WireError::LengthOverflow(_))));

        // Trailing bytes are reported by finish().
        let dec = Decoder::new(&[1, 2, 3]);
        assert_eq!(dec.finish(), Err(WireError::TrailingBytes(3)));
    }

    #[test]
    fn borrowed_variants_agree_with_owned_and_outlive_the_decoder() {
        let mut enc = Encoder::new();
        enc.put_bytes(b"ciphertext-bytes");
        enc.put_str("naïve");
        enc.put_bytes(b"");
        let bytes = enc.into_bytes();

        // The borrows tie to the input buffer, not the decoder value: they
        // remain usable after the decoder itself is dropped.
        let (raw, s, empty) = {
            let mut dec = Decoder::new(&bytes);
            let raw = dec.get_bytes_ref().unwrap();
            let s = dec.get_str_ref().unwrap();
            let empty = dec.get_bytes_ref().unwrap();
            dec.finish().unwrap();
            (raw, s, empty)
        };
        assert_eq!(raw, b"ciphertext-bytes");
        assert_eq!(s, "naïve");
        assert!(empty.is_empty());

        // And the owned variants decode identically.
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_bytes().unwrap(), raw);
        assert_eq!(dec.get_str().unwrap(), s);

        // Error behaviour matches the owned paths.
        let mut truncated = Encoder::new();
        truncated.put_varint(100);
        let truncated = truncated.into_bytes();
        assert!(Decoder::new(&truncated).get_bytes_ref().is_err());

        let mut oversized = Encoder::new();
        oversized.put_varint(MAX_FIELD_LEN + 1);
        let oversized = oversized.into_bytes();
        assert!(matches!(
            Decoder::new(&oversized).get_bytes_ref(),
            Err(WireError::LengthOverflow(_))
        ));

        let mut invalid = Encoder::new();
        invalid.put_bytes(&[0xFF, 0xFE]);
        let invalid = invalid.into_bytes();
        assert_eq!(
            Decoder::new(&invalid).get_str_ref(),
            Err(WireError::InvalidUtf8)
        );
    }

    #[test]
    fn a_hostile_vector_count_reserves_nothing() {
        // Four bytes announce 2 Mi u64s (16 MiB): refused typed before any
        // reservation, for either element type.
        let mut enc = Encoder::new();
        enc.put_varint(2 << 20);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 4);
        assert!(matches!(
            Decoder::new(&bytes).get_u64_vec(),
            Err(WireError::UnexpectedEnd { remaining: 0, .. })
        ));
        assert!(matches!(
            Decoder::new(&bytes).get_f64_vec(),
            Err(WireError::UnexpectedEnd { remaining: 0, .. })
        ));
    }

    #[test]
    fn get_count_refuses_one_element_past_what_remains() {
        // A count followed by 43 bytes: five 8-byte elements fit, six do not.
        for (count, fits) in [(5u64, true), (6, false)] {
            let mut enc = Encoder::new();
            enc.put_varint(count);
            enc.put_raw(&[0u8; 43]);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let got = dec.get_count(8);
            if fits {
                assert_eq!(got, Ok(5));
            } else {
                assert_eq!(
                    got,
                    Err(WireError::UnexpectedEnd {
                        needed: 48,
                        remaining: 43
                    })
                );
            }
        }
        // A zero minimum bounds nothing.
        let mut enc = Encoder::new();
        enc.put_varint(1 << 30);
        assert_eq!(
            Decoder::new(&enc.into_bytes()).get_count(0),
            Ok(1usize << 30)
        );
    }

    #[test]
    fn varint_edge_cases() {
        for value in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut enc = Encoder::new();
            enc.put_varint(value);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.get_varint().unwrap(), value);
            assert!(dec.is_exhausted());
        }
        // An over-long varint (11 continuation bytes) is rejected.
        let mut dec = Decoder::new(&[0x80u8; 11]);
        assert_eq!(dec.get_varint(), Err(WireError::VarintTooLong));
        // A 10-byte varint whose final byte exceeds one bit is rejected.
        let mut bytes = vec![0x80u8; 9];
        bytes.push(0x02);
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_varint(), Err(WireError::VarintTooLong));
    }
}
