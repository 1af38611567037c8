//! Self-describing binary wire format.
//!
//! Section 4.1 of the paper argues that input confidentiality can be audited
//! at runtime "by making the message format between the Glimmer and the
//! service public, and having a runtime auditor check that each message is
//! well formed". That argument only works if every byte that crosses the
//! trust boundary is encoded in a format the auditor can parse without
//! ambiguity. This crate is that format: a small, versioned, length-prefixed
//! binary encoding used by every protocol message in the reproduction
//! (contributions, endorsements, quotes, encrypted predicates, bot verdicts).
//!
//! The format is deliberately simple — no schema evolution magic, no
//! reflection — because the auditor and the formal-verification story of the
//! paper both benefit from a format that can be checked by a screenful of
//! code.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod decode;
pub mod encode;
pub mod frame;
pub mod snapshot;

pub use decode::Decoder;
pub use encode::Encoder;
pub use frame::{Frame, FRAME_MAGIC, FRAME_VERSION};
pub use snapshot::{SnapshotFrame, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the expected data.
    UnexpectedEnd {
        /// Bytes needed to continue decoding.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A length prefix exceeded the configured or sane maximum.
    LengthOverflow(u64),
    /// A varint used more than ten bytes.
    VarintTooLong,
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// An enum discriminant or message type no variant answers to.
    UnknownTag(u16),
    /// The frame magic did not match.
    BadMagic,
    /// The frame version is not supported.
    UnsupportedVersion(u8),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
    /// A CRC-guarded frame failed its integrity check (snapshot corruption).
    ChecksumMismatch {
        /// The checksum stored in the frame.
        stored: u32,
        /// The checksum computed over the received bytes.
        computed: u32,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::UnexpectedEnd { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed}, have {remaining}"
                )
            }
            WireError::LengthOverflow(len) => write!(f, "length prefix too large: {len}"),
            WireError::VarintTooLong => write!(f, "varint longer than 10 bytes"),
            WireError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::InvalidBool(b) => write!(f, "invalid boolean byte: {b}"),
            WireError::UnknownTag(tag) => write!(f, "unknown tag: {tag}"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported frame version: {v}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire operations.
pub type Result<T> = core::result::Result<T, WireError>;

/// Types that can be encoded to and decoded from the wire format.
///
/// # Examples
///
/// A protocol message implements the two mirror-image methods and inherits
/// the byte-level conveniences:
///
/// ```
/// use glimmer_wire::{Decoder, Encoder, WireCodec, WireError};
///
/// #[derive(Debug, PartialEq)]
/// struct Ping {
///     sequence: u64,
///     note: String,
/// }
///
/// impl WireCodec for Ping {
///     fn encode(&self, enc: &mut Encoder) {
///         enc.put_varint(self.sequence);
///         enc.put_str(&self.note);
///     }
///
///     fn decode(dec: &mut Decoder<'_>) -> glimmer_wire::Result<Self> {
///         Ok(Ping {
///             sequence: dec.get_varint()?,
///             note: dec.get_str()?,
///         })
///     }
/// }
///
/// let ping = Ping { sequence: 42, note: "hello".into() };
/// let bytes = ping.to_wire();
/// assert_eq!(Ping::from_wire(&bytes).unwrap(), ping);
/// // Truncation surfaces as a typed error, never a panic.
/// assert!(matches!(
///     Ping::from_wire(&bytes[..bytes.len() - 1]),
///     Err(WireError::UnexpectedEnd { .. })
/// ));
/// ```
pub trait WireCodec: Sized {
    /// Appends this value to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Reads a value of this type from `dec`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] the underlying field reads produce — truncation
    /// ([`WireError::UnexpectedEnd`]), malformed varints, invalid UTF-8 or
    /// boolean bytes. Implementations must never panic on malformed input.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;

    /// Convenience: encodes into a fresh byte vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Encodes into a reusable encoder: the encoder is [`Encoder::reset`]
    /// first, so afterwards it holds exactly this value's wire bytes
    /// ([`Encoder::as_slice`]) while keeping whatever capacity it had.
    ///
    /// Hot paths that encode the same message shape over and over (the
    /// gateway's batched drain loop) call this with a long-lived encoder and
    /// stop paying a heap allocation per message once the buffer has grown
    /// to the steady-state size.
    fn encode_into(&self, enc: &mut Encoder) {
        enc.reset();
        self.encode(enc);
    }

    /// Convenience: decodes from a byte slice, requiring full consumption.
    fn from_wire(bytes: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let value = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let cases: Vec<(WireError, &str)> = vec![
            (
                WireError::UnexpectedEnd {
                    needed: 4,
                    remaining: 1,
                },
                "needed 4",
            ),
            (WireError::LengthOverflow(1 << 40), "too large"),
            (WireError::VarintTooLong, "varint"),
            (WireError::InvalidUtf8, "UTF-8"),
            (WireError::InvalidBool(7), "7"),
            (WireError::UnknownTag(0x7777), "unknown tag: 30583"),
            (WireError::BadMagic, "magic"),
            (WireError::UnsupportedVersion(9), "9"),
            (WireError::TrailingBytes(3), "3"),
            (
                WireError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        id: u64,
        name: String,
        payload: Vec<u8>,
        flag: bool,
        score: f64,
    }

    impl WireCodec for Sample {
        fn encode(&self, enc: &mut Encoder) {
            enc.put_varint(self.id);
            enc.put_str(&self.name);
            enc.put_bytes(&self.payload);
            enc.put_bool(self.flag);
            enc.put_f64(self.score);
        }

        fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
            Ok(Sample {
                id: dec.get_varint()?,
                name: dec.get_str()?,
                payload: dec.get_bytes()?,
                flag: dec.get_bool()?,
                score: dec.get_f64()?,
            })
        }
    }

    #[test]
    fn encode_into_replaces_contents_and_matches_to_wire() {
        let a = Sample {
            id: 1,
            name: "first".to_string(),
            payload: vec![9; 64],
            flag: false,
            score: 1.25,
        };
        let b = Sample {
            id: 2,
            name: "second".to_string(),
            payload: vec![7; 8],
            flag: true,
            score: -0.5,
        };
        let mut enc = Encoder::new();
        a.encode_into(&mut enc);
        assert_eq!(enc.as_slice(), a.to_wire().as_slice());
        let grown = enc.capacity();
        // Reusing the encoder for a smaller message keeps the capacity and
        // yields exactly the new message's bytes — no stale prefix.
        b.encode_into(&mut enc);
        assert_eq!(enc.as_slice(), b.to_wire().as_slice());
        assert_eq!(enc.capacity(), grown);
        assert_eq!(Sample::from_wire(enc.as_slice()).unwrap(), b);
    }

    #[test]
    fn codec_round_trip() {
        let sample = Sample {
            id: 123456789,
            name: "glimmer".to_string(),
            payload: vec![1, 2, 3, 255],
            flag: true,
            score: 0.75,
        };
        let bytes = sample.to_wire();
        assert_eq!(Sample::from_wire(&bytes).unwrap(), sample);
        // Trailing bytes are rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(Sample::from_wire(&long), Err(WireError::TrailingBytes(1)));
        // Truncation is rejected.
        assert!(Sample::from_wire(&bytes[..bytes.len() - 1]).is_err());
    }
}
