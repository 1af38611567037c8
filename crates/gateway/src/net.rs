//! The socket front door: a real TCP edge for the gateway.
//!
//! Everything below this module serves requests that already live in
//! process memory. This module is the missing first hop — the thing a
//! TEE-less device on the wrong side of a network actually talks to:
//!
//! * **Framing** ([`frame`]) — length-prefixed [`glimmer_wire`] frames over
//!   a byte stream, parsed incrementally (partial reads and writes are the
//!   normal case, not an error path) with typed failures and a hard
//!   pre-allocation size bound.
//! * **Protocol** ([`proto`]) — one request frame per [`AsyncGateway`]
//!   operation plus an explicit `Drain`, and server-pushed reply frames
//!   carrying the global drain sequence so a socket client can reconstruct
//!   the exact drain order an in-process driver would have seen.
//! * **Reactor** ([`serve`]) — a raw-syscall `epoll` readiness loop (no
//!   libc: the workspace takes no external dependencies) that doubles as the [`SessionExecutor`]'s parker: when no task is
//!   runnable the executor parks *in* `epoll_wait`, and cross-thread wakes
//!   from shard workers ring an `eventfd` doorbell registered in the same
//!   epoll set. One thread, all connections, no polling loops.
//! * **Client** ([`GatewayClient`]) — a blocking driver for tests,
//!   experiments, and example services.
//!
//! # Trust boundary
//!
//! The front door changes nothing about the paper's threat model: it
//! relays sealed bytes it cannot open. Handshakes are attested end-to-end
//! (the `ChannelOffer`/`ChannelAccept` frames are the enclave's own),
//! contributions arrive as ciphertext and leave as ciphertext, and the one
//! plaintext bit per reply is the public endorsed/failed verdict the
//! gateway already learns for quota accounting. What the front door *does*
//! enforce is connection-level ownership: a session id opened on one
//! connection is dead weight on every other — operations on it are
//! rejected and its replies are never routed elsewhere.
//!
//! # Platform support
//!
//! Real sockets need a real readiness syscall. On Linux (x86_64/aarch64)
//! everything here works; elsewhere [`supported`] returns `false` and
//! [`serve`] fails honestly with [`NetError::Unsupported`] instead of
//! shipping a pretend reactor. The in-process [`AsyncGateway`] front-end
//! is unaffected either way.
//!
//! [`AsyncGateway`]: crate::frontend::AsyncGateway
//! [`SessionExecutor`]: crate::frontend::SessionExecutor

use std::fmt;
use std::io;

pub mod client;
pub mod frame;
pub mod proto;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod reactor;
mod server;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys;

pub use client::{ClientError, GatewayClient};
pub use frame::{FrameDecoder, FrameError};
pub use proto::{ReplyEnvelope, Request, Response};
pub use server::{serve, serve_on, ServerHandle, ShutdownSignal};

/// Whether this build can run the socket front door (Linux epoll on
/// x86_64/aarch64). When `false`, [`serve`] returns
/// [`NetError::Unsupported`]; gate socket tests and examples on this.
#[must_use]
pub fn supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

/// Failure to bring up or run the socket front door.
#[derive(Debug)]
pub enum NetError {
    /// This target has no epoll reactor (non-Linux, or an architecture the
    /// raw syscall shim does not cover). The in-process front-end still
    /// works; only real sockets are unavailable.
    Unsupported,
    /// An OS-level failure: binding the listener, creating the epoll set
    /// or eventfd, or spawning the front-door thread.
    Io(io::Error),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unsupported => write!(
                f,
                "socket front door unsupported on this target (needs Linux epoll on x86_64/aarch64)"
            ),
            NetError::Io(e) => write!(f, "socket front door I/O failure: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Unsupported => None,
            NetError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}
