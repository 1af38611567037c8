//! A blocking socket client for the front door.
//!
//! One [`GatewayClient`] drives one connection with the request/ack
//! protocol of [`super::proto`]. Server-pushed [`Response::Reply`] frames
//! can arrive interleaved with acks (the periodic drainer does not wait
//! for anyone); the client buffers them internally, so lockstep request
//! code stays simple and replies are read with
//! [`GatewayClient::next_reply`] / [`GatewayClient::take_buffered_reply`]
//! whenever convenient.
//!
//! This is a *driver* (tests, experiments, example services), not an SDK:
//! it is deliberately synchronous, one-request-in-flight, std-only.

use super::frame::{encode_frame, FrameDecoder, FrameError};
use super::proto::{ReplyEnvelope, Request, Response, MSG_DRAINED, MSG_OK, MSG_SESSION_OPENED};
use glimmer_core::blinding::MaskShare;
use glimmer_core::channel::{ChannelAccept, ChannelOffer};
use glimmer_wire::{Frame, WireError};
use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes read timeouts, if configured).
    Io(std::io::Error),
    /// The server's byte stream violated framing.
    Frame(FrameError),
    /// A server frame failed to decode.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server {
        /// One of the [`super::proto`] `CODE_*` constants.
        code: u16,
        /// Human-readable cause from the server.
        message: String,
    },
    /// The server answered with a frame the protocol does not allow here.
    Protocol(&'static str),
    /// The server closed the connection.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket failure: {e}"),
            ClientError::Frame(e) => write!(f, "server stream corrupt: {e}"),
            ClientError::Wire(e) => write!(f, "server frame undecodable: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server rejected the request (code {code}): {message}")
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A blocking connection to a [`serve`](super::serve)d gateway.
pub struct GatewayClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    parsed: VecDeque<Frame>,
    replies: VecDeque<ReplyEnvelope>,
    read_buf: Vec<u8>,
}

impl GatewayClient {
    /// Connects (blocking) with the default 1 MiB frame bound.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(GatewayClient {
            stream,
            decoder: FrameDecoder::new(1 << 20),
            parsed: VecDeque::new(),
            replies: VecDeque::new(),
            read_buf: vec![0u8; 16 * 1024],
        })
    }

    /// Bounds every blocking read (`None` waits forever). A lapsed
    /// timeout surfaces as [`ClientError::Io`].
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Opens a session: returns the id and the pool slot's attestation
    /// offer for the device handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries the gateway's typed rejection.
    pub fn open_session(&mut self, tenant: &str) -> Result<(u64, ChannelOffer), ClientError> {
        self.send(&Request::OpenSession {
            tenant: tenant.to_string(),
        })?;
        match self.expect(MSG_SESSION_OPENED)? {
            Response::SessionOpened { session_id, offer } => Ok((session_id, offer)),
            _ => Err(ClientError::Protocol("expected SessionOpened")),
        }
    }

    /// Completes the attested handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on gateway rejection.
    pub fn complete_session(
        &mut self,
        session_id: u64,
        accept: &ChannelAccept,
    ) -> Result<(), ClientError> {
        self.send(&Request::CompleteSession {
            session_id,
            accept: accept.clone(),
        })?;
        self.expect_ok()
    }

    /// Installs a plaintext blinding mask.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on gateway rejection.
    pub fn install_mask(&mut self, session_id: u64, mask: &MaskShare) -> Result<(), ClientError> {
        self.send(&Request::InstallMask {
            session_id,
            mask: mask.clone(),
        })?;
        self.expect_ok()
    }

    /// Installs a mask sealed under the tenant's attested channel.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on gateway rejection.
    pub fn install_mask_encrypted(
        &mut self,
        session_id: u64,
        nonce: [u8; 12],
        ciphertext: Vec<u8>,
    ) -> Result<(), ClientError> {
        self.send(&Request::InstallMaskSealed {
            session_id,
            nonce,
            ciphertext,
        })?;
        self.expect_ok()
    }

    /// Queues one encrypted contribution: a [`GatewayClient::submit_many`]
    /// of one.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on gateway rejection (quota, backpressure).
    pub fn submit(&mut self, session_id: u64, ciphertext: Vec<u8>) -> Result<(), ClientError> {
        self.submit_many(session_id, vec![ciphertext])
    }

    /// Queues a contribution stream as one atomic group.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on gateway rejection (quota, backpressure).
    pub fn submit_many(
        &mut self,
        session_id: u64,
        ciphertexts: Vec<Vec<u8>>,
    ) -> Result<(), ClientError> {
        self.send(&Request::SubmitMany {
            session_id,
            ciphertexts,
        })?;
        self.expect_ok()
    }

    /// Closes a session.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on gateway rejection.
    pub fn close_session(&mut self, session_id: u64) -> Result<(), ClientError> {
        self.send(&Request::CloseSession { session_id })?;
        self.expect_ok()
    }

    /// Triggers a server-side drain sweep; returns how many replies the
    /// sweep routed (to all connections). The replies owed to *this*
    /// connection arrive as pushes — read them with
    /// [`GatewayClient::next_reply`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on gateway rejection.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        self.send(&Request::Drain)?;
        match self.expect(MSG_DRAINED)? {
            Response::Drained { routed } => Ok(routed),
            _ => Err(ClientError::Protocol("expected Drained")),
        }
    }

    /// The next pushed reply, blocking until one arrives (already
    /// buffered ones are returned first, in arrival order).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on timeout (if one is set) or disconnect.
    pub fn next_reply(&mut self) -> Result<ReplyEnvelope, ClientError> {
        loop {
            if let Some(envelope) = self.replies.pop_front() {
                return Ok(envelope);
            }
            match self.recv_response()? {
                Response::Reply(envelope) => self.replies.push_back(envelope),
                _ => return Err(ClientError::Protocol("expected a pushed Reply")),
            }
        }
    }

    /// A buffered pushed reply, if any arrived while waiting for acks —
    /// never blocks.
    pub fn take_buffered_reply(&mut self) -> Option<ReplyEnvelope> {
        self.replies.pop_front()
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let mut bytes = Vec::new();
        encode_frame(&request.to_frame(), &mut bytes);
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// Reads until a non-push response arrives of the expected type,
    /// buffering pushed replies and surfacing error frames.
    fn expect(&mut self, want: u16) -> Result<Response, ClientError> {
        loop {
            let response = self.recv_response()?;
            match response {
                Response::Reply(envelope) => self.replies.push_back(envelope),
                Response::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                other => {
                    let got = match &other {
                        Response::SessionOpened { .. } => MSG_SESSION_OPENED,
                        Response::Ok { .. } => MSG_OK,
                        Response::Drained { .. } => MSG_DRAINED,
                        Response::Reply(_) | Response::Error { .. } => unreachable!(),
                    };
                    if got == want {
                        return Ok(other);
                    }
                    return Err(ClientError::Protocol("unexpected response type"));
                }
            }
        }
    }

    fn expect_ok(&mut self) -> Result<(), ClientError> {
        match self.expect(MSG_OK)? {
            Response::Ok { .. } => Ok(()),
            _ => Err(ClientError::Protocol("expected Ok")),
        }
    }

    /// Blocking read of the next server frame (any kind).
    fn recv_response(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some(frame) = self.parsed.pop_front() {
                return Ok(Response::from_frame(&frame)?);
            }
            let n = match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            };
            let mut frames = Vec::new();
            self.decoder.feed(&self.read_buf[..n], &mut frames)?;
            self.parsed.extend(frames);
        }
    }
}
