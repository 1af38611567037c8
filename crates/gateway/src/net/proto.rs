//! The front door's request/reply protocol.
//!
//! One request message per [`AsyncGateway`](crate::frontend::AsyncGateway)
//! operation, each answered in order on the same connection, plus two
//! things only a real network edge needs:
//!
//! * An explicit [`Request::Drain`]: when the server's periodic drain is
//!   disabled ([`NetConfig::drain_interval`](crate::NetConfig) = `None`),
//!   clients control exactly when replies are swept out of the enclaves —
//!   which makes the global drain order, and therefore every
//!   [`ReplyEnvelope::drain_seq`], reproducible against an in-process
//!   driver issuing the same operations in the same order.
//! * Server-pushed [`Response::Reply`] frames: endorsement outcomes do not
//!   answer any particular request (draining is batched), so they arrive
//!   tagged with the session id and the global drain sequence instead.
//!
//! Payloads reuse the enclave protocol's own [`WireCodec`] encodings
//! (`ChannelOffer`, `ChannelAccept`, `BatchReplyItem`) — the front door
//! adds framing around sealed bytes, never a second encoding of them.

use glimmer_core::blinding::MaskShare;
use glimmer_core::channel::{ChannelAccept, ChannelOffer};
use glimmer_core::protocol::BatchReplyItem;
use glimmer_wire::{Decoder, Encoder, Frame, WireCodec, WireError};

/// `OpenSession { tenant }` → [`MSG_SESSION_OPENED`].
pub const MSG_OPEN_SESSION: u16 = 0x0001;
/// `CompleteSession { session_id, accept }` → [`MSG_OK`].
pub const MSG_COMPLETE_SESSION: u16 = 0x0002;
/// `InstallMask { session_id, mask }` → [`MSG_OK`].
pub const MSG_INSTALL_MASK: u16 = 0x0003;
/// `InstallMaskSealed { session_id, nonce, ciphertext }` → [`MSG_OK`].
pub const MSG_INSTALL_MASK_SEALED: u16 = 0x0004;
/// `Submit { session_id, ciphertext }` → [`MSG_OK`]. No client sends it:
/// [`GatewayClient::submit`](crate::GatewayClient::submit) is a
/// `SubmitMany` of one. It stays decodable only because
/// `benchmark/src/probes.rs` times the frame codec on a `Submit`.
pub const MSG_SUBMIT: u16 = 0x0005;
/// `SubmitMany { session_id, ciphertexts }` → [`MSG_OK`].
pub const MSG_SUBMIT_MANY: u16 = 0x0006;
/// `CloseSession { session_id }` → [`MSG_OK`].
pub const MSG_CLOSE_SESSION: u16 = 0x0007;
/// `Drain` → [`MSG_DRAINED`].
pub const MSG_DRAIN: u16 = 0x0008;

/// Successful `OpenSession` answer: session id + attestation offer.
pub const MSG_SESSION_OPENED: u16 = 0x0081;
/// Generic success answer; payload echoes the acknowledged request type.
pub const MSG_OK: u16 = 0x0082;
/// `Drain` answer: how many replies were routed this sweep (to *all*
/// connections — the count is global, like the drain itself).
pub const MSG_DRAINED: u16 = 0x0088;
/// Server-pushed endorsement outcome (see [`ReplyEnvelope`]).
pub const MSG_REPLY: u16 = 0x0090;
/// Failed request: numeric code + human-readable message.
pub const MSG_ERROR: u16 = 0x00FF;

/// Error code: the gateway rejected the operation (tenant/session/quota/
/// backpressure/enclave failure); the message carries the typed
/// [`GatewayError`](crate::GatewayError) rendering.
pub const CODE_GATEWAY: u16 = 1;
/// Error code: the session id exists but belongs to a different
/// connection — the front door's tenant-isolation guard.
pub const CODE_NOT_OWNER: u16 = 2;
/// Error code: the request frame itself was undecodable or of unknown
/// type; the server drops the connection after sending this.
pub const CODE_PROTOCOL: u16 = 3;

/// A client → server operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a device session under `tenant`; answered with the pool
    /// slot's attestation offer.
    OpenSession {
        /// Tenant name (the service's application id).
        tenant: String,
    },
    /// Finish the attested handshake for a pending session.
    CompleteSession {
        /// The pending session.
        session_id: u64,
        /// The device's handshake acceptance.
        accept: ChannelAccept,
    },
    /// Install a plaintext blinding mask (tenant-operated gateways only).
    InstallMask {
        /// The established session.
        session_id: u64,
        /// The additive mask share.
        mask: MaskShare,
    },
    /// Install a mask sealed under the tenant's own attested channel —
    /// the front door relays bytes it cannot open.
    InstallMaskSealed {
        /// The established session.
        session_id: u64,
        /// AEAD nonce.
        nonce: [u8; 12],
        /// Sealed mask bytes.
        ciphertext: Vec<u8>,
    },
    /// Queue one encrypted contribution (see [`MSG_SUBMIT`]: clients send
    /// a [`Request::SubmitMany`] of one instead).
    Submit {
        /// The established session.
        session_id: u64,
        /// Nonce-prefixed encrypted `ProcessRequest`.
        ciphertext: Vec<u8>,
    },
    /// Queue a session's contribution stream as one atomic group.
    SubmitMany {
        /// The established session.
        session_id: u64,
        /// Nonce-prefixed encrypted `ProcessRequest`s, in order.
        ciphertexts: Vec<Vec<u8>>,
    },
    /// Close a session (enclave-side key erase included).
    CloseSession {
        /// The session to close.
        session_id: u64,
    },
    /// Sweep every enclave's reply queue now; replies fan out to their
    /// owning connections as [`Response::Reply`] pushes.
    Drain,
}

/// A server-pushed endorsement outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyEnvelope {
    /// Position in the *global* drain order (one counter across all
    /// connections, incremented per drained reply). Sorting any client
    /// population's envelopes by this reconstructs the exact order an
    /// in-process driver's `drain_replies` would have returned.
    pub drain_seq: u64,
    /// The owning session.
    pub session_id: u64,
    /// The enclave's outcome (sealed reply ciphertext + public endorsed
    /// bit, or a typed failure string).
    pub outcome: glimmer_core::protocol::BatchOutcome,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `OpenSession` succeeded.
    SessionOpened {
        /// The new session id (also the reply-routing key).
        session_id: u64,
        /// The pool slot's attestation offer for the device handshake.
        offer: ChannelOffer,
    },
    /// The request of the echoed type succeeded.
    Ok {
        /// `msg_type` of the acknowledged request.
        acked: u16,
    },
    /// `Drain` finished.
    Drained {
        /// Replies routed by this sweep, across all connections.
        routed: u64,
    },
    /// A pushed endorsement outcome.
    Reply(ReplyEnvelope),
    /// The request failed; the connection survives unless the code is
    /// [`CODE_PROTOCOL`].
    Error {
        /// One of the `CODE_*` constants.
        code: u16,
        /// Human-readable cause.
        message: String,
    },
}

impl Request {
    /// Encodes into a wire frame.
    #[must_use]
    pub fn to_frame(&self) -> Frame {
        let mut enc = Encoder::new();
        let msg_type = match self {
            Request::OpenSession { tenant } => {
                enc.put_str(tenant);
                MSG_OPEN_SESSION
            }
            Request::CompleteSession { session_id, accept } => {
                enc.put_u64(*session_id);
                accept.encode(&mut enc);
                MSG_COMPLETE_SESSION
            }
            Request::InstallMask { session_id, mask } => {
                enc.put_u64(*session_id);
                mask.encode(&mut enc);
                MSG_INSTALL_MASK
            }
            Request::InstallMaskSealed {
                session_id,
                nonce,
                ciphertext,
            } => {
                enc.put_u64(*session_id);
                enc.put_raw(nonce);
                enc.put_bytes(ciphertext);
                MSG_INSTALL_MASK_SEALED
            }
            Request::Submit {
                session_id,
                ciphertext,
            } => {
                enc.put_u64(*session_id);
                enc.put_bytes(ciphertext);
                MSG_SUBMIT
            }
            Request::SubmitMany {
                session_id,
                ciphertexts,
            } => {
                enc.put_u64(*session_id);
                enc.put_varint(ciphertexts.len() as u64);
                for ciphertext in ciphertexts {
                    enc.put_bytes(ciphertext);
                }
                MSG_SUBMIT_MANY
            }
            Request::CloseSession { session_id } => {
                enc.put_u64(*session_id);
                MSG_CLOSE_SESSION
            }
            Request::Drain => MSG_DRAIN,
        };
        Frame::new(msg_type, enc.into_bytes())
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unknown message type, truncation, or trailing
    /// bytes — all fatal protocol violations for the connection.
    pub fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        let mut dec = Decoder::new(&frame.payload);
        let request = match frame.msg_type {
            MSG_OPEN_SESSION => Request::OpenSession {
                tenant: dec.get_str()?,
            },
            MSG_COMPLETE_SESSION => Request::CompleteSession {
                session_id: dec.get_u64()?,
                accept: ChannelAccept::decode(&mut dec)?,
            },
            MSG_INSTALL_MASK => Request::InstallMask {
                session_id: dec.get_u64()?,
                mask: MaskShare::decode(&mut dec)?,
            },
            MSG_INSTALL_MASK_SEALED => Request::InstallMaskSealed {
                session_id: dec.get_u64()?,
                nonce: dec
                    .get_raw(12)?
                    .try_into()
                    .expect("get_raw(12) yields 12 bytes"),
                ciphertext: dec.get_bytes()?,
            },
            MSG_SUBMIT => Request::Submit {
                session_id: dec.get_u64()?,
                ciphertext: dec.get_bytes()?,
            },
            MSG_SUBMIT_MANY => {
                let session_id = dec.get_u64()?;
                let raw_count = dec.get_varint()?;
                // Each entry costs at least one payload byte (its length
                // varint), so anything beyond that is a hostile count.
                if raw_count > frame.payload.len() as u64 {
                    return Err(WireError::LengthOverflow(raw_count));
                }
                let count = raw_count as usize;
                let mut ciphertexts = Vec::with_capacity(count);
                for _ in 0..count {
                    ciphertexts.push(dec.get_bytes()?);
                }
                Request::SubmitMany {
                    session_id,
                    ciphertexts,
                }
            }
            MSG_CLOSE_SESSION => Request::CloseSession {
                session_id: dec.get_u64()?,
            },
            MSG_DRAIN => Request::Drain,
            other => return Err(WireError::UnknownTag(other)),
        };
        dec.finish()?;
        Ok(request)
    }

    /// The request's frame type tag (what [`Response::Ok`] echoes).
    #[must_use]
    pub fn msg_type(&self) -> u16 {
        match self {
            Request::OpenSession { .. } => MSG_OPEN_SESSION,
            Request::CompleteSession { .. } => MSG_COMPLETE_SESSION,
            Request::InstallMask { .. } => MSG_INSTALL_MASK,
            Request::InstallMaskSealed { .. } => MSG_INSTALL_MASK_SEALED,
            Request::Submit { .. } => MSG_SUBMIT,
            Request::SubmitMany { .. } => MSG_SUBMIT_MANY,
            Request::CloseSession { .. } => MSG_CLOSE_SESSION,
            Request::Drain => MSG_DRAIN,
        }
    }
}

impl Response {
    /// Encodes into a wire frame.
    #[must_use]
    pub fn to_frame(&self) -> Frame {
        let mut enc = Encoder::new();
        let msg_type = match self {
            Response::SessionOpened { session_id, offer } => {
                enc.put_u64(*session_id);
                offer.encode(&mut enc);
                MSG_SESSION_OPENED
            }
            Response::Ok { acked } => {
                enc.put_u16(*acked);
                MSG_OK
            }
            Response::Drained { routed } => {
                enc.put_varint(*routed);
                MSG_DRAINED
            }
            Response::Reply(envelope) => {
                enc.put_varint(envelope.drain_seq);
                BatchReplyItem {
                    session_id: envelope.session_id,
                    outcome: envelope.outcome.clone(),
                }
                .encode(&mut enc);
                MSG_REPLY
            }
            Response::Error { code, message } => {
                enc.put_u16(*code);
                enc.put_str(message);
                MSG_ERROR
            }
        };
        Frame::new(msg_type, enc.into_bytes())
    }

    /// Decodes a response frame.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unknown message type, truncation, or trailing
    /// bytes.
    pub fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        let mut dec = Decoder::new(&frame.payload);
        let response = match frame.msg_type {
            MSG_SESSION_OPENED => Response::SessionOpened {
                session_id: dec.get_u64()?,
                offer: ChannelOffer::decode(&mut dec)?,
            },
            MSG_OK => Response::Ok {
                acked: dec.get_u16()?,
            },
            MSG_DRAINED => Response::Drained {
                routed: dec.get_varint()?,
            },
            MSG_REPLY => {
                let drain_seq = dec.get_varint()?;
                let item = BatchReplyItem::decode(&mut dec)?;
                Response::Reply(ReplyEnvelope {
                    drain_seq,
                    session_id: item.session_id,
                    outcome: item.outcome,
                })
            }
            MSG_ERROR => Response::Error {
                code: dec.get_u16()?,
                message: dec.get_str()?,
            },
            other => return Err(WireError::UnknownTag(other)),
        };
        dec.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::OpenSession {
                tenant: "iot-telemetry.example".into(),
            },
            Request::InstallMask {
                session_id: 7,
                mask: MaskShare {
                    round: 3,
                    client_id: 9,
                    mask: vec![1, u64::MAX, 0],
                },
            },
            Request::InstallMaskSealed {
                session_id: 8,
                nonce: [9; 12],
                ciphertext: vec![1, 2, 3],
            },
            Request::Submit {
                session_id: 1,
                ciphertext: vec![0xAB; 40],
            },
            Request::SubmitMany {
                session_id: 2,
                ciphertexts: vec![vec![1], vec![], vec![2, 3]],
            },
            Request::CloseSession { session_id: 5 },
            Request::Drain,
        ];
        for request in requests {
            let frame = request.to_frame();
            assert_eq!(frame.msg_type, request.msg_type());
            let back = Request::from_frame(&frame).expect("round-trip");
            assert_eq!(back, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        use glimmer_core::protocol::BatchOutcome;
        let responses = vec![
            Response::Ok { acked: MSG_SUBMIT },
            Response::Drained { routed: 4242 },
            Response::Reply(ReplyEnvelope {
                drain_seq: 17,
                session_id: 3,
                outcome: BatchOutcome::Reply {
                    ciphertext: vec![5; 24],
                    endorsed: true,
                },
            }),
            Response::Error {
                code: CODE_NOT_OWNER,
                message: "session 3 belongs to another connection".into(),
            },
        ];
        for response in responses {
            let back = Response::from_frame(&response.to_frame()).expect("round-trip");
            assert_eq!(back, response);
        }
    }

    #[test]
    fn unknown_message_types_are_rejected() {
        let frame = Frame::new(0x7777, Vec::new());
        assert_eq!(
            Request::from_frame(&frame),
            Err(WireError::UnknownTag(0x7777))
        );
        assert_eq!(
            Response::from_frame(&frame),
            Err(WireError::UnknownTag(0x7777))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = Request::CloseSession { session_id: 1 }.to_frame();
        frame.payload.push(0);
        assert!(Request::from_frame(&frame).is_err());
    }
}
