//! Replay protection for session requests in constant space.
//!
//! AEAD opening is stateless, so a replayed request ciphertext would be
//! endorsed again and burn the tenant's endorsement budget twice. The
//! enclave therefore has to remember which requests of a session it has
//! already served — without remembering every one of them, because that
//! state is exported into every checkpoint, delta and migration and would
//! grow with the requests served.
//!
//! The device numbers its requests: the 12-byte AEAD nonce of request `n`
//! of a session is four zero bytes followed by `n` as a big-endian `u64`
//! ([`request_nonce`]). A counter is a safe nonce because the channel keys
//! are fresh per session (ephemeral DH on both sides) and only the device
//! seals under the request key, so no `(key, nonce)` pair ever repeats.
//!
//! The enclave keeps, per session, a [`ReplayWindow`]: the highest counter
//! accepted, a bitmap of which of the [`REPLAY_WINDOW`] counters at and
//! below it were accepted, and how many were accepted in total — 32 bytes,
//! however long the session lives. This is the anti-replay construction of
//! IPsec (RFC 4303 §3.4.3) and DTLS: requests may overtake each other by up
//! to the window width, and anything older than the window is refused
//! unseen, as if replayed.

use glimmer_wire::{Decoder, Encoder, WireError};

/// Width of the anti-replay window: a request may arrive up to this many
/// counters behind the newest accepted one.
pub const REPLAY_WINDOW: u64 = 128;

/// Length of the zero prefix of a request nonce.
const NONCE_PREFIX_LEN: usize = 4;

/// The AEAD nonce of a session's request number `counter`.
#[must_use]
pub fn request_nonce(counter: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[NONCE_PREFIX_LEN..].copy_from_slice(&counter.to_be_bytes());
    nonce
}

/// The request number a nonce encodes, or `None` if it is not a counter
/// nonce (no honest device produces one; the ciphertext could not
/// authenticate anyway).
#[must_use]
pub fn request_counter(nonce: &[u8; 12]) -> Option<u64> {
    let (prefix, counter) = nonce.split_at(NONCE_PREFIX_LEN);
    if prefix != [0u8; NONCE_PREFIX_LEN] {
        return None;
    }
    Some(u64::from_be_bytes(
        counter.try_into().expect("12 - 4 bytes is a u64"),
    ))
}

/// Why a request counter was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayRefusal {
    /// The counter is inside the window and was already accepted.
    Replayed,
    /// The counter is [`REPLAY_WINDOW`] or more behind the newest accepted
    /// one: whether it was seen is no longer known, so it is refused.
    BelowWindow,
}

impl core::fmt::Display for ReplayRefusal {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReplayRefusal::Replayed => write!(f, "replayed request nonce"),
            ReplayRefusal::BelowWindow => write!(
                f,
                "request nonce is {REPLAY_WINDOW} or more behind the newest accepted; \
                 refused as a possible replay"
            ),
        }
    }
}

/// One session's anti-replay state. Constant size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayWindow {
    /// Highest counter accepted so far (meaningless while `seen == 0`).
    highest: u64,
    /// Bit `i` is set iff counter `highest - i` was accepted.
    seen: u128,
    /// Counters accepted over the session's life.
    accepted: u64,
}

impl ReplayWindow {
    /// Whether `counter` may still be accepted. Does not change the window:
    /// a request is recorded only once it was actually processed, so a
    /// corrupted ciphertext cannot burn the counter of the legitimate
    /// request the device will retransmit.
    pub fn check(&self, counter: u64) -> Result<(), ReplayRefusal> {
        if counter > self.highest {
            return Ok(());
        }
        let behind = self.highest - counter;
        if behind >= REPLAY_WINDOW {
            Err(ReplayRefusal::BelowWindow)
        } else if (self.seen >> behind) & 1 == 1 {
            Err(ReplayRefusal::Replayed)
        } else {
            Ok(())
        }
    }

    /// Records `counter` as accepted; the caller has [`Self::check`]ed it.
    pub fn record(&mut self, counter: u64) {
        if counter > self.highest {
            let ahead = counter - self.highest;
            self.seen = if ahead >= REPLAY_WINDOW {
                0
            } else {
                self.seen << ahead
            };
            self.highest = counter;
            self.seen |= 1;
        } else {
            self.seen |= 1 << (self.highest - counter);
        }
        self.accepted += 1;
    }

    /// Requests accepted over the session's life.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Appends the window's fixed 32-byte encoding.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.highest);
        enc.put_u64(self.seen as u64);
        enc.put_u64((self.seen >> 64) as u64);
        enc.put_u64(self.accepted);
    }

    /// Reads back [`Self::encode`].
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let highest = dec.get_u64()?;
        let (seen_low, seen_high) = (dec.get_u64()?, dec.get_u64()?);
        Ok(ReplayWindow {
            highest,
            seen: seen_low as u128 | (seen_high as u128) << 64,
            accepted: dec.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonce_layout_round_trips_and_rejects_non_counters() {
        for counter in [0, 1, 0xDEAD_BEEF, u64::MAX] {
            let nonce = request_nonce(counter);
            assert_eq!(&nonce[..4], &[0; 4]);
            assert_eq!(request_counter(&nonce), Some(counter));
        }
        assert_eq!(request_nonce(1)[11], 1);
        let mut random = request_nonce(7);
        random[0] = 1;
        assert_eq!(request_counter(&random), None);
    }

    #[test]
    fn window_edges() {
        let mut window = ReplayWindow::default();
        // Counter 0 is an ordinary first request.
        assert_eq!(window.check(0), Ok(()));
        window.record(0);
        assert_eq!(window.check(0), Err(ReplayRefusal::Replayed));

        window.record(200);
        // 0 fell out of the window; 73..=199 are inside it and unseen.
        assert_eq!(window.check(0), Err(ReplayRefusal::BelowWindow));
        assert_eq!(window.check(72), Err(ReplayRefusal::BelowWindow));
        assert_eq!(window.check(73), Ok(()));
        assert_eq!(window.check(199), Ok(()));
        assert_eq!(window.check(200), Err(ReplayRefusal::Replayed));
        window.record(73);
        assert_eq!(window.check(73), Err(ReplayRefusal::Replayed));
        // Sliding by less than the width keeps what was seen.
        window.record(201);
        assert_eq!(window.check(200), Err(ReplayRefusal::Replayed));
        assert_eq!(window.check(73), Err(ReplayRefusal::BelowWindow));
        assert_eq!(window.check(74), Ok(()));
        assert_eq!(window.accepted(), 4);

        // The far end of the counter space does not overflow.
        window.record(u64::MAX);
        assert_eq!(window.check(u64::MAX), Err(ReplayRefusal::Replayed));
        assert_eq!(window.check(u64::MAX - 1), Ok(()));
        assert_eq!(window.check(201), Err(ReplayRefusal::BelowWindow));
        assert!(ReplayRefusal::BelowWindow.to_string().contains("replay"));
    }

    #[test]
    fn encoding_is_32_bytes_and_round_trips() {
        let mut window = ReplayWindow::default();
        for counter in [5, 3, 130, 129, 64] {
            window.record(counter);
        }
        let mut enc = Encoder::new();
        window.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 32);
        let mut dec = Decoder::new(&bytes);
        assert_eq!(ReplayWindow::decode(&mut dec).unwrap(), window);
        dec.finish().unwrap();
    }
}
