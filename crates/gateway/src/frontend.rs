//! The async session front-end: thousands of device sessions multiplexed
//! onto one connection-handling thread.
//!
//! The shard-per-core runtime (the crate's `runtime` module) made the *backend*
//! concurrent, but every front-door caller still parked an OS thread in a
//! per-command `recv`: serving a million device sessions the blocking way
//! would need a million threads doing nothing but waiting for enclave
//! replies. This module is the paper's "gateway of enclaves" front door at
//! scale, with no external dependencies:
//!
//! * `completion` (crate-internal) — the waker-notified completion cells
//!   every command type answers through (the shard worker calls one
//!   `Completer::complete`; this front-end awaits the cell), and the one
//!   thread-parking `block_on` the blocking API runs its verbs under.
//! * [`executor`] — a hand-rolled single-threaded future executor: slab of
//!   session tasks, [`std::task::Wake`] wakers, an ordered deadline map, and
//!   a parking readiness queue wired to shard reply delivery.
//! * [`AsyncGateway`] — the `async fn` surface over [`Gateway`]:
//!   `open_session`, `complete_session`, `install_mask`, `submit`,
//!   `submit_many`, `drain_replies`, `close_session`. Every gateway verb is
//!   written once, as a crate-private `async` body: `AsyncGateway` awaits
//!   it and the blocking `Gateway` method `block_on`s it. Awaiting parks
//!   the task, not the thread, so one [`SessionExecutor`] thread keeps
//!   thousands of handshakes and drains in flight at once.
//!
//! # Task lifecycle
//!
//! A device session is one spawned task: it awaits `open_session` (the
//! enclave's attestation offer arrives as a wakeup from the shard worker),
//! completes the handshake, installs its masks, then submits its encrypted
//! requests — admission control is synchronous, so `submit`/`submit_many`
//! never park. A driver task periodically awaits
//! [`AsyncGateway::drain_replies`] and routes outcomes back to sessions;
//! [`WaitGroup`] coordinates the phase changes. When the task
//! returns, its executor slot is recycled (see [`executor`] for the
//! generation discipline that keeps stale wakeups harmless).
//!
//! # Cancellation
//!
//! These futures are **not cancel-safe**: dropping one mid-await abandons
//! its protocol step rather than rolling it back. Concretely, an
//! [`AsyncGateway::open_session`] future dropped after admission leaves
//! the session `Pending` — holding its quota unit and slot gauge, with its
//! enclave-side handshake possibly already open — until
//! [`Gateway::evict_stale_pending`] reclaims all of it (table entry,
//! gauges, enclave keys). That is deliberate: a device that stalls mid-
//! handshake produces the *same* abandoned-`Pending` state, so production
//! gateways already run eviction on a timer, and rolling back the table
//! entry eagerly at drop time would orphan the enclave-side session with
//! no reclaim path at all. The [`SessionExecutor`] never cancels tasks, so
//! none of this arises under the shipped driver; callers embedding these
//! futures in a `select!`/timeout on an external executor must pair them
//! with periodic eviction (or drive them to completion).
//!
//! # Determinism
//!
//! With `shards: 1` the async front-end reproduces the blocking path's
//! endorsement outputs bit-for-bit (experiment E15 asserts it, ciphertext
//! bytes included). The guarantee is about *outputs*, not micro-timing:
//! executor scheduling can race benignly (a reply delivered before its
//! first poll resolves inline), but per-session command order and the
//! per-slot order of randomness-consuming enclave operations — session
//! opens, batch processing — are invariant under those races, and those
//! are the only orders the enclaves' DRBG streams observe.
//!
//! # Examples
//!
//! ```
//! use glimmer_core::host::GlimmerDescriptor;
//! use glimmer_core::signing::ServiceKeyMaterial;
//! use glimmer_crypto::drbg::Drbg;
//! use glimmer_gateway::frontend::{AsyncGateway, SessionExecutor};
//! use glimmer_gateway::{Gateway, GatewayConfig, TenantConfig};
//! use sgx_sim::AttestationService;
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut rng = Drbg::from_seed([7u8; 32]);
//! let mut avs = AttestationService::new([8u8; 32]);
//! let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
//! let gateway = Gateway::new(
//!     GatewayConfig::default(),
//!     vec![TenantConfig::new(
//!         "iot-telemetry.example",
//!         GlimmerDescriptor::iot_default(Vec::new()),
//!         material.secret_bytes(),
//!     )],
//!     &mut avs,
//!     &mut rng,
//! )
//! .unwrap();
//!
//! // One front-end thread, many session tasks: each `await` parks the
//! // task (not the thread) until the shard worker delivers the reply.
//! let frontend = AsyncGateway::new(gateway);
//! let mut executor = SessionExecutor::new();
//! let opened = Rc::new(Cell::new(0));
//! for _ in 0..8 {
//!     let frontend = frontend.clone();
//!     let opened = Rc::clone(&opened);
//!     executor.spawn(async move {
//!         let (_session, _offer) = frontend
//!             .open_session("iot-telemetry.example")
//!             .await
//!             .expect("quota admits 8 sessions");
//!         opened.set(opened.get() + 1);
//!     });
//! }
//! executor.run();
//! assert_eq!(opened.get(), 8);
//! assert_eq!(frontend.gateway().live_sessions(), 8);
//! ```

pub(crate) mod completion;
pub mod executor;

pub use executor::{
    SessionExecutor, Sleep, Spawner, TaskId, TimerHandle, WaitGroup, WaitGroupFuture,
};

use crate::error::Result;
use crate::gateway::{Gateway, GatewayResponse};
use glimmer_core::blinding::MaskShare;
use glimmer_core::channel::{ChannelAccept, ChannelOffer};
use glimmer_core::enclave_app::MaskDelivery;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning by taking the inner guard.
///
/// Front-end mutexes (ready queue, completion cells) guard plain
/// queue/cell state that is valid at every point a panic can unwind
/// through, so the poison flag carries no information here — and honoring
/// it would let one panicking session task spread its failure into every
/// other session sharing the executor (the exact outage the panic
/// containment in [`executor`] exists to prevent).
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The non-blocking `async fn` surface over a [`Gateway`].
///
/// Cheap to clone (an `Arc` around the gateway): spawn one clone into every
/// session task. Each reply-bearing method awaits the very `async` body the
/// blocking [`Gateway`] verb of the same name runs under a thread-parking
/// `block_on`, so admission control, quota accounting, rollback and typed
/// errors (the `# Errors` of each `Gateway` verb) are the blocking API's by
/// construction. The only difference is that replies arrive as
/// waker-notified completions instead of parking the calling thread, so the
/// futures are driven by a [`SessionExecutor`] (or any other executor; they
/// are ordinary `std` futures — but read the module's
/// [Cancellation](self#cancellation) notes before embedding them in a
/// `select!` or timeout).
///
/// Blocking and async callers may share one gateway: the shard workers see
/// the same commands either way, and the mixed-front-end stress test
/// (`crates/gateway/tests/frontend.rs`) holds the no-loss/no-duplication
/// guarantees across both at once.
#[derive(Clone)]
pub struct AsyncGateway {
    inner: Arc<Gateway>,
}

impl core::fmt::Debug for AsyncGateway {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AsyncGateway")
            .field("gateway", &*self.inner)
            .finish()
    }
}

impl AsyncGateway {
    /// Wraps a gateway for async serving, taking (shared) ownership.
    #[must_use]
    pub fn new(gateway: Gateway) -> Self {
        Self::from_arc(Arc::new(gateway))
    }

    /// Wraps an already-shared gateway (e.g. one some blocking submitter
    /// threads also hold).
    #[must_use]
    pub fn from_arc(inner: Arc<Gateway>) -> Self {
        AsyncGateway { inner }
    }

    /// The underlying gateway, for the blocking API (stats, checkpoint,
    /// tenant channels) and for mixing blocking callers onto the same pool.
    #[must_use]
    pub fn gateway(&self) -> &Gateway {
        &self.inner
    }

    /// Recovers the owned [`Gateway`] (e.g. to call
    /// [`Gateway::shutdown`], which needs ownership) once this is the last
    /// front-end handle.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` unchanged while other clones (or
    /// [`AsyncGateway::from_arc`] co-owners) are still alive.
    pub fn try_into_gateway(self) -> core::result::Result<Gateway, Self> {
        Arc::try_unwrap(self.inner).map_err(|inner| AsyncGateway { inner })
    }

    /// [`Gateway::open_session`], awaiting the attestation offer instead of
    /// parking the thread. Dropping the future mid-await does not roll the
    /// admission back — see the module's [Cancellation](self#cancellation)
    /// section.
    pub async fn open_session(&self, tenant: &str) -> Result<(u64, ChannelOffer)> {
        self.inner.open_session_async(tenant).await
    }

    /// [`Gateway::complete_session`], awaiting the enclave's handshake
    /// acceptance.
    pub async fn complete_session(&self, session_id: u64, accept: &ChannelAccept) -> Result<()> {
        self.inner.complete_session_async(session_id, accept).await
    }

    /// [`Gateway::install_mask`], awaiting the enclave's confirmation.
    pub async fn install_mask(&self, session_id: u64, mask: &MaskShare) -> Result<()> {
        self.inner
            .install_mask_async(session_id, MaskDelivery::plain(mask))
            .await
    }

    /// [`Gateway::install_mask_encrypted`], awaiting the enclave's
    /// confirmation.
    pub async fn install_mask_encrypted(
        &self,
        session_id: u64,
        nonce: [u8; 12],
        ciphertext: Vec<u8>,
    ) -> Result<()> {
        self.inner
            .install_mask_async(session_id, MaskDelivery::Encrypted { nonce, ciphertext })
            .await
    }

    /// [`Gateway::submit`]. Admission control is synchronous (atomic gauges,
    /// typed rejections) and enqueueing is fire-and-forget, so this never
    /// parks — it is `async` only so session tasks compose it with the
    /// awaiting calls.
    pub async fn submit(&self, session_id: u64, ciphertext: Vec<u8>) -> Result<()> {
        self.inner.submit(session_id, ciphertext)
    }

    /// [`Gateway::submit_many`]: one session's request stream admitted as
    /// one atomic group. Never parks, like [`AsyncGateway::submit`].
    pub async fn submit_many(&self, session_id: u64, ciphertexts: Vec<Vec<u8>>) -> Result<()> {
        self.inner.submit_many(session_id, ciphertexts)
    }

    /// [`Gateway::drain`], awaiting every shard's sweep instead of parking:
    /// the drain command fans out to all shards at once and the reports are
    /// awaited and folded in shard order, so at `shards: 1` the reply
    /// sequence is bit-identical to the blocking path's.
    pub async fn drain_replies(&self) -> Result<Vec<GatewayResponse>> {
        self.inner.drain_async().await
    }

    /// [`Gateway::close_session`], awaiting the enclave-side key erase.
    pub async fn close_session(&self, session_id: u64) -> Result<()> {
        self.inner.close_session_async(session_id).await
    }
}
