//! The serving side of the front door: accept loop, per-connection tasks,
//! the global reply drainer, and the stale-handshake sweeper — all spawned
//! onto **one** [`SessionExecutor`] parked in the epoll reactor.
//!
//! # Task layout
//!
//! * **accept** — non-blocking `accept()` until `WouldBlock`, then parks
//!   on listener readability. Each accepted socket becomes one connection
//!   task, spawned through the executor's [`Spawner`].
//! * **connection** (one per socket) — flush pending writes, read and
//!   decode frames, handle each request *in arrival order* (awaiting the
//!   gateway mid-stream pauses that connection only), then suspend on
//!   readability / writability / idle deadline / shutdown, whichever
//!   fires first.
//! * **drainer** (optional) — sweeps [`AsyncGateway::drain_replies`] every
//!   [`NetConfig::drain_interval`](crate::NetConfig) and routes each reply
//!   to the connection *owning* its session. The interval runs start to
//!   start: a sweep that overran it is followed at once, by exactly one
//!   sweep (missed ticks are skipped, not replayed), so under load the
//!   shard worker is never left idle behind a sweep that already took
//!   longer than the interval. Clients can also trigger the same sweep
//!   with an explicit `Drain` request — with the periodic drainer
//!   disabled that makes the global drain order client-controlled and
//!   reproducible.
//! * **sweeper** (optional) — awaits the body of
//!   [`Gateway::evict_stale_pending`](crate::Gateway::evict_stale_pending)
//!   every [`GatewayConfig::evict_stale_period`](crate::GatewayConfig) on
//!   the executor's timers (same start-to-start schedule as the drainer),
//!   so abandoned handshakes stop pinning session quota without any
//!   operator cron job. An eviction's enclave close queued behind a busy
//!   shard parks the sweeper task only; every other connection keeps
//!   being served.
//!
//! # Ownership and isolation
//!
//! A session id is bound to the connection that opened it. Requests
//! naming someone else's session are answered with
//! [`CODE_NOT_OWNER`](super::proto::CODE_NOT_OWNER) and never reach the
//! gateway; replies are routed only to the owning connection. When a
//! connection dies — cleanly, by idle timeout, or by protocol violation —
//! its sessions are closed behind it (enclave-side key erase included),
//! and anything that slips through falls to the sweeper.
//!
//! [`AsyncGateway::drain_replies`]: crate::frontend::AsyncGateway::drain_replies
//! [`SessionExecutor`]: crate::frontend::SessionExecutor
//! [`Spawner`]: crate::frontend::Spawner

use super::NetError;
use crate::frontend::lock_unpoisoned;
use crate::frontend::{AsyncGateway, SessionExecutor};
use crate::gateway::GatewayResponse;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::task::Waker;
use std::thread::JoinHandle;

/// Cooperative stop flag shared by every front-door task.
///
/// Long-lived tasks re-register their waker here each time they suspend;
/// [`ShutdownSignal::stop`] flips the flag and wakes them all, and each
/// task observes the flag at its next poll and exits. Waking goes through
/// the executor's ready queue, whose doorbell interrupts a reactor parked
/// in `epoll_wait` — so `stop()` works from any thread.
pub struct ShutdownSignal {
    stopped: AtomicBool,
    wakers: Mutex<HashMap<usize, Waker>>,
    next_slot: AtomicUsize,
}

impl ShutdownSignal {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ShutdownSignal {
            stopped: AtomicBool::new(false),
            wakers: Mutex::new(HashMap::new()),
            next_slot: AtomicUsize::new(0),
        })
    }

    /// Requests shutdown: every front-door task exits at its next poll,
    /// the accept loop stops taking connections, and the server's
    /// executor returns once in-flight gateway operations settle.
    pub fn stop(&self) {
        let pending: Vec<Waker> = {
            let mut wakers = lock_unpoisoned(&self.wakers);
            self.stopped.store(true, Ordering::Release);
            wakers.drain().map(|(_, waker)| waker).collect()
        };
        for waker in pending {
            waker.wake();
        }
    }

    /// Whether [`ShutdownSignal::stop`] has been called.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// A waker slot for one long-lived task (stable across re-arms).
    pub(crate) fn alloc_slot(&self) -> usize {
        self.next_slot.fetch_add(1, Ordering::Relaxed)
    }

    /// (Re-)registers `waker` to fire on stop. If stop already happened,
    /// wakes immediately — registration cannot race into a missed wake
    /// because both sides hold the waker-map lock around the flag.
    pub(crate) fn set_waker(&self, slot: usize, waker: &Waker) {
        let mut wakers = lock_unpoisoned(&self.wakers);
        if self.stopped.load(Ordering::Acquire) {
            drop(wakers);
            waker.wake_by_ref();
            return;
        }
        wakers.insert(slot, waker.clone());
    }

    /// Drops a task's slot on exit.
    pub(crate) fn free_slot(&self, slot: usize) {
        lock_unpoisoned(&self.wakers).remove(&slot);
    }
}

/// A running front door ([`serve`]): the bound address, a stop handle,
/// and the serving thread's join handle. Dropping it stops the server.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<ShutdownSignal>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` bindings).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared stop flag, for wiring shutdown into external signals.
    #[must_use]
    pub fn shutdown_signal(&self) -> Arc<ShutdownSignal> {
        Arc::clone(&self.shutdown)
    }

    /// Stops the server and joins its thread. In-flight gateway
    /// operations settle first; unread client bytes are dropped.
    pub fn stop(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shutdown.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds [`NetConfig::bind_addr`](crate::NetConfig) and serves the
/// gateway behind it on one dedicated front-door thread.
///
/// Replies whose session was *not* opened over a socket (in-process
/// drivers sharing the pool) are delivered to `unrouted`, or dropped if
/// `None`.
///
/// # Errors
///
/// [`NetError::Unsupported`] on targets without the epoll reactor;
/// [`NetError::Io`] if binding, reactor setup, or thread spawn fails.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub fn serve(
    frontend: AsyncGateway,
    unrouted: Option<mpsc::Sender<GatewayResponse>>,
) -> Result<ServerHandle, NetError> {
    let listener = TcpListener::bind(&frontend.gateway().config().net.bind_addr)?;
    let addr = listener.local_addr()?;
    let (startup_tx, startup_rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name("glimmer-frontdoor".to_string())
        .spawn(move || {
            let clock = Arc::clone(&frontend.gateway().config().clock);
            let mut executor = SessionExecutor::with_clock(clock);
            executor.attach_telemetry(frontend.gateway().telemetry_handle());
            match serve_on(&mut executor, frontend, listener, unrouted) {
                Ok(shutdown) => {
                    let _ = startup_tx.send(Ok(shutdown));
                    executor.run();
                }
                Err(e) => {
                    let _ = startup_tx.send(Err(e));
                }
            }
        })
        .map_err(NetError::Io)?;
    let shutdown = startup_rx
        .recv()
        .map_err(|_| NetError::Io(std::io::Error::other("front-door thread died at startup")))??;
    Ok(ServerHandle {
        addr,
        shutdown,
        thread: Some(thread),
    })
}

/// [`serve`] on a target without the epoll reactor: always
/// [`NetError::Unsupported`], before any socket is touched.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn serve(
    frontend: AsyncGateway,
    unrouted: Option<mpsc::Sender<GatewayResponse>>,
) -> Result<ServerHandle, NetError> {
    let _ = (frontend, unrouted);
    Err(NetError::Unsupported)
}

/// Spawns the front-door tasks onto a caller-owned executor serving
/// `listener` — the composable core of [`serve`], for callers that want
/// the serving thread to be *this* thread (tests driving a
/// [`ManualClock`](crate::ManualClock), experiments counting threads).
/// Call [`SessionExecutor::run`] afterwards; it returns once
/// [`ShutdownSignal::stop`] is called and in-flight operations settle.
///
/// # Errors
///
/// [`NetError::Unsupported`] without the epoll reactor; [`NetError::Io`]
/// if reactor setup or listener configuration fails.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub fn serve_on(
    executor: &mut SessionExecutor,
    frontend: AsyncGateway,
    listener: TcpListener,
    unrouted: Option<mpsc::Sender<GatewayResponse>>,
) -> Result<Arc<ShutdownSignal>, NetError> {
    imp::serve_on(executor, frontend, listener, unrouted)
}

/// [`serve_on`] on a target without the epoll reactor: always
/// [`NetError::Unsupported`].
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn serve_on(
    executor: &mut SessionExecutor,
    frontend: AsyncGateway,
    listener: TcpListener,
    unrouted: Option<mpsc::Sender<GatewayResponse>>,
) -> Result<Arc<ShutdownSignal>, NetError> {
    let _ = (executor, frontend, listener, unrouted);
    Err(NetError::Unsupported)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::super::frame::{encode_frame, FrameDecoder};
    use super::super::proto::{
        ReplyEnvelope, Request, Response, CODE_GATEWAY, CODE_NOT_OWNER, CODE_PROTOCOL,
    };
    use super::super::reactor::{Interest, Reactor};
    use super::super::sys;
    use super::{NetError, ShutdownSignal};
    use crate::config::NetConfig;
    use crate::frontend::{AsyncGateway, SessionExecutor, Sleep, Spawner, TimerHandle};
    use crate::gateway::GatewayResponse;
    use crate::telemetry::Telemetry;
    use std::cell::{Cell, RefCell};
    use std::collections::{HashMap, HashSet};
    use std::future::Future;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::sync::{mpsc, Arc};
    use std::task::{Context, Poll, Waker};
    use std::time::Duration;

    /// Per-connection state the drainer can reach: the pending write
    /// buffer and the connection task's waker.
    struct ConnShared {
        outbox: RefCell<OutBuf>,
        waker: RefCell<Option<Waker>>,
    }

    struct OutBuf {
        buf: Vec<u8>,
        cursor: usize,
    }

    impl ConnShared {
        fn new() -> Rc<Self> {
            Rc::new(ConnShared {
                outbox: RefCell::new(OutBuf {
                    buf: Vec::new(),
                    cursor: 0,
                }),
                waker: RefCell::new(None),
            })
        }

        fn outbox_pending(&self) -> bool {
            let outbox = self.outbox.borrow();
            outbox.cursor < outbox.buf.len()
        }
    }

    /// Everything the front-door tasks share.
    struct ServerCtx {
        frontend: AsyncGateway,
        reactor: Rc<Reactor>,
        spawner: Spawner,
        timer: TimerHandle,
        registry: RefCell<HashMap<u64, Rc<ConnShared>>>,
        drain_seq: Cell<u64>,
        shutdown: Arc<ShutdownSignal>,
        net: NetConfig,
        stale: Option<(Duration, Duration)>,
        unrouted: Option<mpsc::Sender<GatewayResponse>>,
        telemetry: Arc<Telemetry>,
    }

    /// The listener's accept backlog. `TcpListener::bind` listens with 128,
    /// and one front-door thread facing a connection storm fills that, so
    /// the kernel drops SYNs that each wait out a 1 s retransmit. The
    /// kernel clamps this to `net.core.somaxconn`.
    pub(super) const ACCEPT_BACKLOG: i32 = 4096;

    pub(super) fn serve_on(
        executor: &mut SessionExecutor,
        frontend: AsyncGateway,
        listener: TcpListener,
        unrouted: Option<mpsc::Sender<GatewayResponse>>,
    ) -> Result<Arc<ShutdownSignal>, NetError> {
        listener.set_nonblocking(true)?;
        sys::listen(listener.as_raw_fd(), ACCEPT_BACKLOG)?;
        let reactor = Rc::new(Reactor::new()?);
        executor.attach_parker(
            Rc::clone(&reactor) as Rc<dyn crate::frontend::executor::Parker>,
            {
                let notifier = reactor.notifier();
                notifier as Arc<dyn crate::frontend::executor::Doorbell>
            },
        );
        let config = frontend.gateway().config().clone();
        let shutdown = ShutdownSignal::new();
        let ctx = Rc::new(ServerCtx {
            telemetry: frontend.gateway().telemetry_handle(),
            timer: executor.timer(),
            spawner: executor.spawner(),
            frontend,
            reactor,
            registry: RefCell::new(HashMap::new()),
            drain_seq: Cell::new(0),
            shutdown: Arc::clone(&shutdown),
            net: config.net.clone(),
            stale: config
                .evict_stale_period
                .map(|period| (period, config.stale_pending_after)),
            unrouted,
        });
        executor.spawn(accept_loop(Rc::clone(&ctx), listener));
        if let Some(interval) = ctx.net.drain_interval {
            let ctx = Rc::clone(&ctx);
            executor.spawn(async move {
                periodic(&ctx.timer, &ctx.shutdown, interval, || route_drain(&ctx)).await;
            });
        }
        if let Some((period, age)) = ctx.stale {
            let ctx = Rc::clone(&ctx);
            executor.spawn(async move {
                let ctx: &ServerCtx = &ctx;
                periodic(&ctx.timer, &ctx.shutdown, period, move || async move {
                    ctx.frontend.gateway().evict_stale_pending_async(age).await;
                })
                .await;
            });
        }
        Ok(shutdown)
    }

    /// Suspends a task until its fd is ready, its outbox gains bytes, its
    /// idle deadline passes, or shutdown fires — whichever happens first.
    /// One-shot: any wake resolves it, and the resumed loop re-derives
    /// what actually happened (spurious wakes are absorbed by the next
    /// `WouldBlock`).
    struct Suspend<'a> {
        ctx: &'a ServerCtx,
        fd: i32,
        want_read: bool,
        want_write: bool,
        outbox_of: Option<&'a ConnShared>,
        shutdown_slot: usize,
        /// The idle deadline. It almost never wins the race, and it need
        /// not be cleaned up by hand: dropping the `Suspend` drops the
        /// `Sleep`, which cancels its timer.
        sleep: Option<Sleep>,
        armed: bool,
    }

    impl Future for Suspend<'_> {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let this = self.get_mut();
            if this.armed || this.ctx.shutdown.is_stopped() {
                return Poll::Ready(());
            }
            if let Some(sleep) = &mut this.sleep {
                if Pin::new(sleep).poll(cx).is_ready() {
                    return Poll::Ready(());
                }
            }
            this.ctx.reactor.arm(
                this.fd,
                Interest {
                    read: this.want_read,
                    write: this.want_write,
                },
                cx.waker(),
            );
            if let Some(shared) = this.outbox_of {
                *shared.waker.borrow_mut() = Some(cx.waker().clone());
            }
            this.ctx.shutdown.set_waker(this.shutdown_slot, cx.waker());
            this.armed = true;
            Poll::Pending
        }
    }

    /// `sleep`, interruptible by shutdown.
    struct SleepOrStop<'a> {
        shutdown: &'a ShutdownSignal,
        shutdown_slot: usize,
        sleep: Sleep,
    }

    impl Future for SleepOrStop<'_> {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let this = self.get_mut();
            if this.shutdown.is_stopped() {
                return Poll::Ready(());
            }
            if Pin::new(&mut this.sleep).poll(cx).is_ready() {
                return Poll::Ready(());
            }
            this.shutdown.set_waker(this.shutdown_slot, cx.waker());
            Poll::Pending
        }
    }

    fn send_response(ctx: &ServerCtx, shared: &ConnShared, response: &Response) {
        {
            let mut outbox = shared.outbox.borrow_mut();
            encode_frame(&response.to_frame(), &mut outbox.buf);
        }
        ctx.telemetry.record_net_frames_out(1);
        let waker = shared.waker.borrow_mut().take();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    async fn accept_loop(ctx: Rc<ServerCtx>, listener: TcpListener) {
        let fd = listener.as_raw_fd();
        if ctx.reactor.register(fd).is_err() {
            return;
        }
        let shutdown_slot = ctx.shutdown.alloc_slot();
        while !ctx.shutdown.is_stopped() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let conn_ctx = Rc::clone(&ctx);
                    ctx.spawner.spawn(connection(conn_ctx, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    Suspend {
                        ctx: &ctx,
                        fd,
                        want_read: true,
                        want_write: false,
                        outbox_of: None,
                        shutdown_slot,
                        sleep: None,
                        armed: false,
                    }
                    .await;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (EMFILE under fd pressure):
                    // back off briefly instead of spinning the reactor.
                    ctx.timer.sleep(Duration::from_millis(10)).await;
                }
            }
        }
        ctx.reactor.deregister(fd);
        ctx.shutdown.free_slot(shutdown_slot);
    }

    async fn connection(ctx: Rc<ServerCtx>, stream: TcpStream) {
        let fd = stream.as_raw_fd();
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() || ctx.reactor.register(fd).is_err() {
            return;
        }
        ctx.telemetry.record_net_accepted(1);
        let shared = ConnShared::new();
        let shutdown_slot = ctx.shutdown.alloc_slot();
        let mut decoder = FrameDecoder::new(ctx.net.max_frame_len);
        let mut owned: HashSet<u64> = HashSet::new();
        let mut frames = Vec::new();
        let mut read_buf = vec![0u8; 16 * 1024];
        let mut last_activity = ctx.timer.now_nanos();
        let mut idle_closed = false;
        // After a protocol violation the connection is mute: no more
        // reads, just a best-effort flush of the error frame, then close.
        let mut farewell = false;

        'conn: loop {
            let mut progress = false;
            // 1. Flush whatever the drainer or last round queued.
            loop {
                let (chunk_start, chunk_end) = {
                    let outbox = shared.outbox.borrow();
                    (outbox.cursor, outbox.buf.len())
                };
                if chunk_start >= chunk_end {
                    let mut outbox = shared.outbox.borrow_mut();
                    if outbox.cursor >= outbox.buf.len() {
                        outbox.buf.clear();
                        outbox.cursor = 0;
                    }
                    break;
                }
                let written = {
                    let outbox = shared.outbox.borrow();
                    (&stream).write(&outbox.buf[chunk_start..chunk_end])
                };
                match written {
                    Ok(0) => break 'conn,
                    Ok(n) => {
                        shared.outbox.borrow_mut().cursor += n;
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break 'conn,
                }
            }
            if farewell && !shared.outbox_pending() {
                break 'conn;
            }
            // 2. Read and decode.
            if !farewell {
                loop {
                    match (&stream).read(&mut read_buf) {
                        Ok(0) => break 'conn,
                        Ok(n) => {
                            progress = true;
                            last_activity = ctx.timer.now_nanos();
                            if decoder.feed(&read_buf[..n], &mut frames).is_err() {
                                ctx.telemetry.record_net_frame_errors(1);
                                send_response(
                                    &ctx,
                                    &shared,
                                    &Response::Error {
                                        code: CODE_PROTOCOL,
                                        message: "malformed frame stream".to_string(),
                                    },
                                );
                                frames.clear();
                                farewell = true;
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => break 'conn,
                    }
                }
            }
            // 3. Handle decoded requests in arrival order. Awaiting the
            // gateway here pauses only this connection; everyone else
            // keeps being served by the same executor.
            if !frames.is_empty() {
                ctx.telemetry.record_net_frames_in(frames.len() as u64);
                for frame in frames.drain(..) {
                    progress = true;
                    if !handle_request(&ctx, &shared, &mut owned, &frame).await {
                        farewell = true;
                        break;
                    }
                }
            }
            if ctx.shutdown.is_stopped() {
                break 'conn;
            }
            // 4. Idle deadline (on the executor clock, so a ManualClock
            // drives it deterministically in tests).
            let idle_deadline = ctx.net.idle_timeout.map(|timeout| {
                last_activity.saturating_add(u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX))
            });
            if let Some(deadline) = idle_deadline {
                if ctx.timer.now_nanos() >= deadline {
                    idle_closed = true;
                    break 'conn;
                }
            }
            if progress {
                continue;
            }
            // 5. Nothing to do: suspend until something changes.
            Suspend {
                ctx: &ctx,
                fd,
                want_read: !farewell,
                want_write: shared.outbox_pending(),
                outbox_of: Some(&shared),
                shutdown_slot,
                sleep: idle_deadline.map(|deadline| ctx.timer.sleep_until(deadline)),
                armed: false,
            }
            .await;
        }

        // Teardown: stop routing replies here, close every session this
        // connection owned (enclave key erase included — an abandoned
        // device must not leave key material live), and count the close.
        ctx.reactor.deregister(fd);
        ctx.shutdown.free_slot(shutdown_slot);
        *shared.waker.borrow_mut() = None;
        for session_id in owned {
            ctx.registry.borrow_mut().remove(&session_id);
            let _ = ctx.frontend.close_session(session_id).await;
        }
        if idle_closed {
            ctx.telemetry.record_net_idle_timeouts(1);
        }
        ctx.telemetry.record_net_closed(1);
    }

    /// Handles one request; returns `false` if the connection must die
    /// (undecodable request — framing may be fine but trust is gone).
    async fn handle_request(
        ctx: &ServerCtx,
        shared: &Rc<ConnShared>,
        owned: &mut HashSet<u64>,
        frame: &glimmer_wire::Frame,
    ) -> bool {
        let request = match Request::from_frame(frame) {
            Ok(request) => request,
            Err(e) => {
                ctx.telemetry.record_net_frame_errors(1);
                send_response(
                    ctx,
                    shared,
                    &Response::Error {
                        code: CODE_PROTOCOL,
                        message: format!("undecodable request: {e}"),
                    },
                );
                return false;
            }
        };
        let acked = request.msg_type();
        // The ownership guard: a session opened on another connection is
        // invisible here, whatever tenant it belongs to.
        let guard_session = match &request {
            Request::CompleteSession { session_id, .. }
            | Request::InstallMask { session_id, .. }
            | Request::InstallMaskSealed { session_id, .. }
            | Request::Submit { session_id, .. }
            | Request::SubmitMany { session_id, .. }
            | Request::CloseSession { session_id } => Some(*session_id),
            Request::OpenSession { .. } | Request::Drain => None,
        };
        if let Some(session_id) = guard_session {
            if !owned.contains(&session_id) {
                send_response(
                    ctx,
                    shared,
                    &Response::Error {
                        code: CODE_NOT_OWNER,
                        message: format!("session {session_id} is not owned by this connection"),
                    },
                );
                return true;
            }
        }
        let outcome = match request {
            Request::OpenSession { tenant } => match ctx.frontend.open_session(&tenant).await {
                Ok((session_id, offer)) => {
                    owned.insert(session_id);
                    ctx.registry
                        .borrow_mut()
                        .insert(session_id, Rc::clone(shared));
                    send_response(ctx, shared, &Response::SessionOpened { session_id, offer });
                    return true;
                }
                Err(e) => Err(e),
            },
            Request::CompleteSession { session_id, accept } => {
                ctx.frontend.complete_session(session_id, &accept).await
            }
            Request::InstallMask { session_id, mask } => {
                ctx.frontend.install_mask(session_id, &mask).await
            }
            Request::InstallMaskSealed {
                session_id,
                nonce,
                ciphertext,
            } => {
                ctx.frontend
                    .install_mask_encrypted(session_id, nonce, ciphertext)
                    .await
            }
            Request::Submit {
                session_id,
                ciphertext,
            } => ctx.frontend.submit(session_id, ciphertext).await,
            Request::SubmitMany {
                session_id,
                ciphertexts,
            } => ctx.frontend.submit_many(session_id, ciphertexts).await,
            Request::CloseSession { session_id } => {
                let result = ctx.frontend.close_session(session_id).await;
                owned.remove(&session_id);
                ctx.registry.borrow_mut().remove(&session_id);
                result
            }
            Request::Drain => {
                let routed = route_drain(ctx).await;
                send_response(ctx, shared, &Response::Drained { routed });
                return true;
            }
        };
        match outcome {
            Ok(()) => send_response(ctx, shared, &Response::Ok { acked }),
            Err(e) => send_response(
                ctx,
                shared,
                &Response::Error {
                    code: CODE_GATEWAY,
                    message: e.to_string(),
                },
            ),
        }
        true
    }

    /// Sweeps the gateway's reply queues once and routes each reply to
    /// its owning connection, stamping the global drain sequence. Replies
    /// for sessions no connection owns (in-process drivers sharing the
    /// pool, or a connection that died mid-flight) go to the `unrouted`
    /// sink or are dropped — they still consume a sequence number, so
    /// socket-observed order stays a faithful subsequence of the global
    /// drain order.
    async fn route_drain(ctx: &ServerCtx) -> u64 {
        let replies = ctx.frontend.drain_replies().await.unwrap_or_default();
        let mut routed = 0u64;
        for reply in replies {
            let drain_seq = ctx.drain_seq.get();
            ctx.drain_seq.set(drain_seq + 1);
            let target = ctx.registry.borrow().get(&reply.session_id).cloned();
            match target {
                Some(conn) => {
                    send_response(
                        ctx,
                        &conn,
                        &Response::Reply(ReplyEnvelope {
                            drain_seq,
                            session_id: reply.session_id,
                            outcome: reply.outcome,
                        }),
                    );
                    routed += 1;
                }
                None => {
                    if let Some(sink) = &ctx.unrouted {
                        let _ = sink.send(reply);
                    }
                }
            }
        }
        routed
    }

    /// Awaits `tick()` every `interval` on the executor clock until
    /// shutdown, **start to start**: the first tick is due one interval
    /// after the call, and each next one `interval` after the previous tick
    /// *started* (`next = started + interval`, never `next += interval`).
    /// A tick that overran its interval is therefore followed at once by
    /// exactly one tick, and the ticks it overran are skipped, not
    /// replayed. On a [`ManualClock`](crate::ManualClock) a tick that does
    /// not move the clock is scheduled exactly as end-to-start would be.
    pub(super) async fn periodic<F, Fut>(
        timer: &TimerHandle,
        shutdown: &ShutdownSignal,
        interval: Duration,
        mut tick: F,
    ) where
        F: FnMut() -> Fut,
        Fut: Future,
    {
        let interval = u64::try_from(interval.as_nanos()).unwrap_or(u64::MAX);
        let shutdown_slot = shutdown.alloc_slot();
        let mut due = timer.now_nanos().saturating_add(interval);
        while !shutdown.is_stopped() {
            SleepOrStop {
                shutdown,
                shutdown_slot,
                sleep: timer.sleep_until(due),
            }
            .await;
            if shutdown.is_stopped() {
                break;
            }
            let started = timer.now_nanos();
            tick().await;
            due = started.saturating_add(interval);
        }
        shutdown.free_slot(shutdown_slot);
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::super::sys;
    use super::imp::{periodic, ACCEPT_BACKLOG};
    use super::{serve_on, ShutdownSignal};
    use crate::frontend::completion::completion_pair;
    use crate::frontend::{AsyncGateway, SessionExecutor};
    use crate::net::{ClientError, GatewayClient};
    use crate::{Clock, Gateway, GatewayConfig, ManualClock, NetConfig, TenantConfig};
    use glimmer_core::host::GlimmerDescriptor;
    use glimmer_core::protocol::{Contribution, ContributionPayload, PrivateData};
    use glimmer_core::remote::IotDeviceSession;
    use glimmer_core::signing::ServiceKeyMaterial;
    use glimmer_crypto::drbg::Drbg;
    use sgx_sim::AttestationService;
    use std::cell::{Cell, RefCell};
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;
    use std::rc::Rc;
    use std::sync::{mpsc, Arc};
    use std::task::Poll;
    use std::time::Duration;

    const IOT: &str = "iot-telemetry.example";

    /// Suspends the calling task once, queued behind whatever is runnable.
    async fn yield_now() {
        let mut yielded = false;
        std::future::poll_fn(|cx| {
            if yielded {
                return Poll::Ready(());
            }
            yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        })
        .await;
    }

    /// The drainer's and sweeper's schedule, on a `ManualClock`. A driver
    /// task steps the clock 1 ms at a time and yields twice per step, so a
    /// tick that falls due runs before the next step and reads exactly the
    /// clock value that made it due. The second tick stands in for a long
    /// sweep by moving the clock three intervals; the fourth stops the loop.
    #[test]
    fn periodic_ticks_run_start_to_start_and_skip_what_an_overrun_missed() {
        let interval = Duration::from_millis(10);
        let i = interval.as_nanos() as u64;
        let clock = Arc::new(ManualClock::new());
        let mut executor = SessionExecutor::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let timer = executor.timer();
        let shutdown = ShutdownSignal::new();
        let starts = Rc::new(RefCell::new(Vec::new()));
        let returned = Rc::new(Cell::new(false));
        let t0 = clock.now_nanos();
        {
            let (timer, shutdown, clock) =
                (timer.clone(), Arc::clone(&shutdown), Arc::clone(&clock));
            let (starts, returned) = (Rc::clone(&starts), Rc::clone(&returned));
            executor.spawn(async move {
                periodic(&timer, &shutdown, interval, || {
                    let mut starts = starts.borrow_mut();
                    starts.push(clock.now_nanos());
                    match starts.len() {
                        2 => clock.advance(3 * interval),
                        4 => shutdown.stop(),
                        _ => {}
                    }
                    std::future::ready(())
                })
                .await;
                returned.set(true);
            });
        }
        {
            let (shutdown, clock) = (Arc::clone(&shutdown), Arc::clone(&clock));
            executor.spawn(async move {
                for _ in 0..1_000 {
                    if shutdown.is_stopped() {
                        return;
                    }
                    clock.advance(Duration::from_millis(1));
                    yield_now().await;
                    yield_now().await;
                }
                // Never reached when the loop stops itself; a broken loop
                // fails the assertions below instead of hanging the run.
                shutdown.stop();
            });
        }
        executor.run();

        // First tick one interval in, not before; the overrunning second
        // tick is followed by one tick at once (no clock movement between
        // them), and the ticks due at t0 + 3I and t0 + 4I are skipped: the
        // fourth is due one interval after the third *started*.
        assert_eq!(
            *starts.borrow(),
            [t0 + i, t0 + 2 * i, t0 + 5 * i, t0 + 6 * i]
        );
        // Stopping during a tick ends the loop, leaving no timer armed.
        assert!(returned.get());
        assert_eq!(timer.armed(), 0);
    }

    /// The default drainer over a real socket, on a `ManualClock` with a
    /// 10 ms interval: a submitted request is answered by the first
    /// periodic sweep, at `start + 10 ms` and not a nanosecond before, and
    /// by that sweep alone.
    #[test]
    fn the_periodic_drainer_replies_at_its_first_tick_and_not_before() {
        let interval = Duration::from_millis(10);
        let mut rng = Drbg::from_seed([93u8; 32]);
        let mut avs = AttestationService::new([94u8; 32]);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let clock = Arc::new(ManualClock::new());
        let gateway = Gateway::new(
            GatewayConfig {
                slots_per_tenant: 1,
                evict_stale_period: None,
                net: NetConfig {
                    idle_timeout: None,
                    drain_interval: Some(interval),
                    ..NetConfig::default()
                },
                clock: clock.clone(),
                ..GatewayConfig::default()
            },
            vec![TenantConfig::new(
                IOT,
                GlimmerDescriptor::iot_default(Vec::new()),
                material.secret_bytes(),
            )],
            &mut avs,
            &mut rng,
        )
        .unwrap();
        let approved = gateway.measurement(IOT).unwrap();
        let telemetry = gateway.telemetry_handle();
        let sweeps = || telemetry.snapshot().shard_drain_sweeps;

        let start = clock.now_nanos();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let server = {
            let clock = Arc::clone(&clock) as Arc<dyn Clock>;
            std::thread::spawn(move || {
                let mut executor = SessionExecutor::with_clock(clock);
                let frontend = AsyncGateway::new(gateway);
                let shutdown = serve_on(&mut executor, frontend, listener, None).unwrap();
                shutdown_tx.send(shutdown).unwrap();
                executor.run();
            })
        };
        let shutdown = shutdown_rx.recv().unwrap();

        let mut client = GatewayClient::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let (session_id, offer) = client.open_session(IOT).unwrap();
        let (accept, mut device) =
            IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
        client.complete_session(session_id, &accept).unwrap();
        let contribution = Contribution {
            app_id: IOT.to_string(),
            client_id: 0,
            round: 0,
            payload: ContributionPayload::IotReadings {
                samples: vec![0.25; 4],
            },
        };
        client
            .submit(
                session_id,
                device.encrypt_request(contribution, PrivateData::None),
            )
            .unwrap();
        // Every exchange so far was a request and its ack: no sweep yet.
        assert_eq!(sweeps(), [0]);

        // One nanosecond short of the first tick. The 100 ms read spans
        // several of the executor's bounded parks, each of which re-reads
        // the clock.
        let silent = |client: &mut GatewayClient| {
            client
                .set_read_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            let outcome = client.next_reply();
            assert!(
                matches!(outcome, Err(ClientError::Io(_))),
                "expected no reply, got {outcome:?}"
            );
        };
        clock.advance(interval - Duration::from_nanos(1));
        silent(&mut client);
        assert_eq!(sweeps(), [0]);

        // At the tick: one sweep, and the reply it routed.
        clock.advance(Duration::from_nanos(1));
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let envelope = client.next_reply().unwrap();
        assert_eq!((envelope.session_id, envelope.drain_seq), (session_id, 0));
        assert_eq!(sweeps(), [1]);
        // And nothing after it while the clock stands at start + interval.
        silent(&mut client);
        assert_eq!(sweeps(), [1]);
        assert_eq!(clock.now_nanos(), start + interval.as_nanos() as u64);

        shutdown.stop();
        server.join().unwrap();
    }

    /// One real connection suspends and resumes ten thousand times under an
    /// idle deadline that never comes (the benchmark's shape: run length
    /// plus two minutes). Each suspend arms a fresh idle timer; each resume
    /// must cancel it again, or the executor's timers grow by an entry per
    /// request for as long as the connection lives.
    #[test]
    fn a_busy_connection_holds_one_idle_timer() {
        let mut rng = Drbg::from_seed([91u8; 32]);
        let mut avs = AttestationService::new([92u8; 32]);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let clock = Arc::new(ManualClock::new());
        let gateway = Gateway::new(
            GatewayConfig {
                slots_per_tenant: 1,
                evict_stale_period: None,
                net: NetConfig {
                    idle_timeout: Some(Duration::from_secs(130)),
                    drain_interval: None,
                    ..NetConfig::default()
                },
                clock: clock.clone(),
                ..GatewayConfig::default()
            },
            vec![TenantConfig::new(
                "iot-telemetry.example",
                GlimmerDescriptor::iot_default(Vec::new()),
                material.secret_bytes(),
            )],
            &mut avs,
            &mut rng,
        )
        .unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut executor = SessionExecutor::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let shutdown = serve_on(&mut executor, AsyncGateway::new(gateway), listener, None).unwrap();

        // The client reports after a warm-up and after the full count, and
        // holds the connection open until the probe has looked.
        let (warm_tx, warm) = completion_pair::<()>();
        let (done_tx, done) = completion_pair::<()>();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).unwrap();
            for _ in 0..100 {
                client.drain().unwrap();
            }
            warm_tx.complete(());
            resume_rx.recv().unwrap();
            for _ in 0..9_900 {
                client.drain().unwrap();
            }
            done_tx.complete(());
            resume_rx.recv().unwrap();
        });

        let timer = executor.timer();
        let observed = Rc::new(RefCell::new(Vec::new()));
        {
            let observed = Rc::clone(&observed);
            executor.spawn(async move {
                for report in [warm, done] {
                    report.await.unwrap();
                    observed.borrow_mut().push(timer.armed());
                    resume_tx.send(()).unwrap();
                }
                shutdown.stop();
            });
        }
        executor.run();
        client.join().unwrap();

        // The suspended connection's idle timer, and nothing else (no
        // drainer, no sweeper configured).
        assert_eq!(*observed.borrow(), [1, 1]);
    }

    /// `serve_on` widens the backlog of the listener it is handed: a
    /// connection storm past std's 128 queues instead of losing SYNs. The
    /// clone shares the listener's socket, so it reads the served backlog.
    #[test]
    fn serve_on_listens_with_the_full_accept_backlog() {
        let mut rng = Drbg::from_seed([95u8; 32]);
        let mut avs = AttestationService::new([96u8; 32]);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let gateway = Gateway::new(
            GatewayConfig {
                slots_per_tenant: 1,
                ..GatewayConfig::default()
            },
            vec![TenantConfig::new(
                IOT,
                GlimmerDescriptor::iot_default(Vec::new()),
                material.secret_bytes(),
            )],
            &mut avs,
            &mut rng,
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let probe = listener.try_clone().unwrap();
        let mut executor = SessionExecutor::new();
        let _shutdown =
            serve_on(&mut executor, AsyncGateway::new(gateway), listener, None).unwrap();

        let somaxconn: u32 = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let expected = somaxconn.min(ACCEPT_BACKLOG as u32);
        let backlog = sys::listen_backlog(probe.as_raw_fd()).unwrap();
        assert!(backlog >= expected, "backlog {backlog} < {expected}");
    }
}
