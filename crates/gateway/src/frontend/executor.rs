//! A dependency-free, single-threaded future executor for session tasks.
//!
//! The front-end's whole job is to multiplex thousands of device sessions
//! onto one connection-handling thread, so the executor is built for exactly
//! that shape and nothing more:
//!
//! * **Slab of tasks** — spawned futures live in a slot vector with a free
//!   list; a [`TaskId`] is `(slot, generation)`, and the generation guards
//!   against a stale waker reviving whatever task reused the slot.
//! * **Plain wakers** — a task's waker is an `Arc`'d wake handle behind
//!   [`std::task::Wake`]: no `async` runtime crates, no hand-written
//!   vtable, and the whole wake path is a screenful of code.
//! * **Readiness queue with parking** — wakes (typically delivered by shard
//!   worker threads completing a command through the crate-internal
//!   completion cells) push the task id onto a
//!   mutex+condvar queue; [`SessionExecutor::run`] pops and polls in wake
//!   order and parks the thread when nothing is runnable. No spinning.
//! * **Ordered deadline map** — [`SessionExecutor::sleep_until`] (and
//!   [`TimerHandle`]) registers deadlines against the executor's injected
//!   [`Clock`]; the run loop fires due timers before each poll and bounds
//!   its park by the nearest deadline. Idle-connection timeouts, periodic
//!   stale-session eviction, and drain ticks all ride this map instead of
//!   spawning helper threads. A timer belongs to its [`Sleep`]: dropping
//!   the `Sleep` cancels it, so the map holds exactly the live sleepers —
//!   one per suspended connection plus the drainer and the sweeper, which
//!   is why a `BTreeMap` is all the structure timers need.
//! * **Pluggable park** — the `net` module's epoll reactor can replace the
//!   condvar park (the crate-internal `SessionExecutor::attach_parker`,
//!   used by `net::serve_on`): the executor then
//!   parks in `epoll_wait`, and cross-thread wakes ring an eventfd doorbell
//!   so shard-worker completions and socket readiness share one wait.
//!
//! # Panic containment
//!
//! A panicking task must not take its neighbours down. Two layers enforce
//! that: every internal mutex acquisition recovers from poisoning (the
//! protected state is a plain queue/cell with no invariants a mid-panic
//! unwind can break), and each poll runs under
//! [`std::panic::catch_unwind`] — a panic retires *that* task only (its
//! dropped completers resolve to
//! [`RuntimeUnavailable`](crate::GatewayError::RuntimeUnavailable) for
//! anyone awaiting it) and is counted in
//! [`SessionExecutor::panicked_tasks`]. Healthy sessions sharing the
//! executor keep running.
//!
//! Determinism: tasks are first polled in spawn order, wakes are queued in
//! delivery order, and the executor never reorders the queue. Micro-timing
//! still races benignly — a completion delivered *before* its first poll
//! resolves inline and consumes no wake, so poll/wakeup *counts* vary
//! run-to-run — but such a race only ever lets a task run *earlier*, never
//! reorders one task's own commands, and the gateway operations that
//! consume enclave randomness (session opens, batch processing) keep their
//! per-slot order under it. That is the property experiment E15 pins: at
//! [`GatewayConfig::shards`](crate::GatewayConfig) `= 1`, async serving
//! outputs are bit-identical to the blocking driver's, run after run.
//!
//! The executor spawns no threads: every poll runs on the thread that calls
//! [`SessionExecutor::run`]. That is the load-bearing claim of the async
//! front-end (E15 asserts the process thread count to pin it down).

use crate::clock::{Clock, SystemClock};
use crate::frontend::lock_unpoisoned;
use crate::telemetry::Telemetry;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

/// Identifier of a spawned task: its slab slot plus the generation that was
/// live when it was spawned (slot reuse bumps the generation, so ids never
/// alias across task lifetimes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskId {
    slot: usize,
    generation: u64,
}

/// A cross-thread doorbell rung on every ready-queue push once attached.
///
/// The `net` reactor implements this over an eventfd: when the executor is
/// parked in `epoll_wait` rather than on the queue condvar, a shard worker
/// delivering a completion must kick the epoll set, not just the condvar.
pub(crate) trait Doorbell: Send + Sync {
    /// Wakes the parked reactor; must be cheap and callable from any thread.
    fn ring(&self);
}

/// How the executor parks when nothing is runnable. The default is the
/// ready queue's condvar; the `net` reactor substitutes `epoll_wait` so
/// socket readiness wakes the same loop.
pub(crate) trait Parker {
    /// Parks until a wake arrives or `timeout` elapses (`None` = no bound),
    /// waking any tasks whose I/O became ready. Spurious returns are fine:
    /// the run loop re-checks the ready queue and the timers every pass.
    fn park(&self, timeout: Option<Duration>);
}

/// The cross-thread readiness queue: wakers push `(slot, generation,
/// wake-time)` triples, the executor pops them in order and parks when the
/// queue is empty. With a telemetry hub attached, each entry carries the
/// hub clock's reading at enqueue time so the executor can histogram the
/// wake-to-poll scheduling delay.
///
/// Every lock acquisition recovers from poisoning: the protected state is a
/// plain `VecDeque` that is valid at every point a panic could unwind
/// through, so taking the inner guard is sound — and it keeps one panicking
/// session task from cascading a poison panic into every other session
/// sharing the executor.
struct ReadyQueue {
    queue: Mutex<VecDeque<(usize, u64, u64)>>,
    available: Condvar,
    /// Wakes delivered (scheduling events), for the E15 metrics.
    wakeups: AtomicU64,
    /// Telemetry hub stamped onto wake entries once attached
    /// ([`SessionExecutor::attach_telemetry`]); absent, entries carry 0 and
    /// nothing is recorded.
    telemetry: OnceLock<Arc<Telemetry>>,
    /// Reactor doorbell ([`SessionExecutor::attach_parker`]); absent, the
    /// condvar notify alone delivers the wake.
    doorbell: OnceLock<Arc<dyn Doorbell>>,
}

impl ReadyQueue {
    fn push(&self, slot: usize, generation: u64) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        let wake_nanos = self.telemetry.get().map_or(0, |hub| hub.now_nanos());
        let mut queue = lock_unpoisoned(&self.queue);
        queue.push_back((slot, generation, wake_nanos));
        drop(queue);
        // One waiter at most: the executor is single-threaded by design.
        self.available.notify_one();
        if let Some(bell) = self.doorbell.get() {
            bell.ring();
        }
    }

    /// Pops the next ready task if one is queued.
    fn try_pop(&self) -> Option<(usize, u64, u64)> {
        lock_unpoisoned(&self.queue).pop_front()
    }

    /// Pops the next ready task, parking the thread until one arrives.
    /// The run loop itself uses the timeout-bounded [`ReadyQueue::wait_ready`]
    /// (timers must keep firing); this unbounded variant serves tests that
    /// need to observe a wake with no timer armed.
    #[cfg(test)]
    fn pop_wait(&self) -> (usize, u64, u64) {
        let mut queue = lock_unpoisoned(&self.queue);
        loop {
            if let Some(entry) = queue.pop_front() {
                return entry;
            }
            queue = self
                .available
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Parks until the queue is (or becomes) non-empty or `timeout` elapses.
    /// The emptiness re-check happens under the queue mutex — the same mutex
    /// `push` notifies under — so a wake between the check and the wait
    /// cannot be lost.
    fn wait_ready(&self, timeout: Option<Duration>) {
        let queue = lock_unpoisoned(&self.queue);
        if !queue.is_empty() {
            return;
        }
        match timeout {
            None => {
                let _unused = self
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            Some(timeout) => {
                let _unused = self
                    .available
                    .wait_timeout(queue, timeout)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// What one waker wakes: a task slot in a specific generation, plus the
/// queue to schedule it on. Shard worker threads hold clones of this (inside
/// [`Waker`]s registered by pending completions), so it must be `Send +
/// Sync` even though the executor itself never leaves its thread.
struct WakeHandle {
    slot: usize,
    generation: u64,
    ready: Arc<ReadyQueue>,
}

impl Wake for WakeHandle {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.slot, self.generation);
    }
}

/// Names one armed timer: its deadline and the sequence number it was
/// armed under. Sequence numbers are never reused, so a key held past its
/// timer's fire or cancel names nothing — it can never touch a later timer.
type TimerKey = (u64, u64);

/// The executor's armed timers, ordered by deadline with ties in arming
/// order. Single-threaded (owned by the executor behind an
/// `Rc<RefCell<..>>`); deadlines are readings of the executor's injected
/// [`Clock`], so a [`ManualClock`](crate::ManualClock) drives them
/// deterministically in tests.
///
/// A timer leaves the map when it fires **or when its [`Sleep`] is dropped
/// or resolves** ([`Timers::cancel`]), so the population is exactly the
/// live sleepers: a connection that suspends ten thousand times under a
/// far-future idle deadline holds one entry, not ten thousand.
#[derive(Default)]
struct Timers {
    armed: BTreeMap<TimerKey, Waker>,
    next_seq: u64,
}

impl Timers {
    /// Arms a timer; the returned key cancels or re-wakers it.
    fn insert(&mut self, deadline_nanos: u64, waker: Waker) -> TimerKey {
        let key = (deadline_nanos, self.next_seq);
        self.next_seq += 1;
        self.armed.insert(key, waker);
        key
    }

    /// Disarms `key`'s timer; a key whose timer already fired (or was
    /// already cancelled) is a no-op.
    fn cancel(&mut self, key: TimerKey) {
        self.armed.remove(&key);
    }

    /// Earliest armed deadline, if any.
    fn next_deadline(&self) -> Option<u64> {
        self.armed
            .first_key_value()
            .map(|(&(deadline, _), _)| deadline)
    }

    /// Wakes every timer whose deadline `now_nanos` has reached, in deadline
    /// order with ties in arming order. Returns the number of timers fired.
    fn advance(&mut self, now_nanos: u64) -> u64 {
        let mut fired = 0;
        while let Some(entry) = self.armed.first_entry() {
            if entry.key().0 > now_nanos {
                break;
            }
            entry.remove().wake();
            fired += 1;
        }
        fired
    }
}

/// A clone-able handle for registering deadlines on the executor's timers
/// from inside tasks (not `Send`: it stays on the executor thread,
/// like the tasks themselves).
///
/// Obtained from [`SessionExecutor::timer`]. Deadlines are absolute
/// nanosecond readings of the executor's injected [`Clock`], so the same
/// code is driven by wall time in production and by a
/// [`ManualClock`](crate::ManualClock) in tests.
#[derive(Clone)]
pub struct TimerHandle {
    timers: Rc<RefCell<Timers>>,
    clock: Arc<dyn Clock>,
}

impl TimerHandle {
    /// The executor clock's current reading.
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Timers currently armed: one per pending [`Sleep`].
    #[must_use]
    pub fn armed(&self) -> usize {
        self.timers.borrow().armed.len()
    }

    /// Resolves once the executor clock reaches `deadline_nanos` (an
    /// already-elapsed deadline resolves on first poll).
    #[must_use]
    pub fn sleep_until(&self, deadline_nanos: u64) -> Sleep {
        Sleep {
            timers: Rc::clone(&self.timers),
            clock: Arc::clone(&self.clock),
            deadline_nanos,
            key: None,
        }
    }

    /// Resolves once `duration` has elapsed on the executor clock.
    #[must_use]
    pub fn sleep(&self, duration: Duration) -> Sleep {
        self.sleep_until(
            self.clock
                .now_nanos()
                .saturating_add(duration.as_nanos() as u64),
        )
    }
}

impl core::fmt::Debug for TimerHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TimerHandle")
            .field("armed", &self.armed())
            .finish_non_exhaustive()
    }
}

/// Future returned by [`TimerHandle::sleep_until`] /
/// [`SessionExecutor::sleep_until`]: pending until the executor clock
/// reaches the deadline.
///
/// A pending `Sleep` owns at most one armed timer. Polling it again keeps
/// that timer (swapping in the new waker only if it would wake a different
/// task), and **dropping it — resolved or not — cancels it**: a `Sleep`
/// that lost a race against socket readiness leaves nothing behind.
pub struct Sleep {
    timers: Rc<RefCell<Timers>>,
    clock: Arc<dyn Clock>,
    deadline_nanos: u64,
    key: Option<TimerKey>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut timers = this.timers.borrow_mut();
        if this.clock.now_nanos() >= this.deadline_nanos {
            if let Some(key) = this.key.take() {
                timers.cancel(key);
            }
            return Poll::Ready(());
        }
        match this.key.and_then(|key| timers.armed.get_mut(&key)) {
            Some(waker) => waker.clone_from(cx.waker()),
            None => this.key = Some(timers.insert(this.deadline_nanos, cx.waker().clone())),
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.timers.borrow_mut().cancel(key);
        }
    }
}

impl core::fmt::Debug for Sleep {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sleep")
            .field("deadline_nanos", &self.deadline_nanos)
            .field("armed", &self.key.is_some())
            .finish_non_exhaustive()
    }
}

/// A spawned task's future, boxed and pinned for the slab.
type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

/// One slab slot: the live task (its future and the waker created for it at
/// spawn; taken out for the duration of a poll) and the slot's current
/// generation.
struct Slot {
    task: Option<(TaskFuture, Waker)>,
    generation: u64,
}

/// Upper bound on a timer-driven park. Timer deadlines are readings
/// of an *injected* clock that real time may not track (a `ManualClock`
/// advanced by a test thread, a lagging replay clock), so the executor
/// never trusts a deadline to convert into a wall-clock wait: it parks at
/// most this long and re-reads the clock. An idle executor with armed
/// timers therefore wakes at most ~100 times a second — measured noise
/// against a single epoll_wait syscall — and a manual clock advance is
/// observed within one bound regardless of who advances it.
const MAX_TIMER_PARK: Duration = Duration::from_millis(10);

/// The single-threaded session executor.
///
/// Spawn one future per device session (plus driver tasks — submitters,
/// drainers), then call [`SessionExecutor::run`] to drive everything to
/// completion on the calling thread. Futures need not be `Send`: they never
/// leave this thread. Wakes may arrive from any thread (the shard workers
/// deliver them), which is what lets one front-end thread park instead of
/// spin while enclaves work.
///
/// # Examples
///
/// ```
/// use glimmer_gateway::frontend::SessionExecutor;
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut executor = SessionExecutor::new();
/// let counter = Rc::new(Cell::new(0));
/// for _ in 0..3 {
///     let counter = Rc::clone(&counter);
///     executor.spawn(async move { counter.set(counter.get() + 1) });
/// }
/// executor.run();
/// assert_eq!(counter.get(), 3);
/// assert_eq!(executor.live_tasks(), 0);
/// ```
pub struct SessionExecutor {
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
    ready: Arc<ReadyQueue>,
    polls: u64,
    clock: Arc<dyn Clock>,
    timers: Rc<RefCell<Timers>>,
    parker: Option<Rc<dyn Parker>>,
    panicked: u64,
    injected: InjectedTasks,
}

/// Futures handed to the executor by a [`Spawner`], adopted before the
/// next poll.
type InjectedTasks = Rc<RefCell<Vec<TaskFuture>>>;

/// A task-side spawn handle: lets a running task (the front door's accept
/// loop) hand new tasks to its own executor.
///
/// [`SessionExecutor::spawn`] needs `&mut self`, which a task polled *by*
/// the executor can never hold; a `Spawner` instead queues the future and
/// the run loop adopts it before its next poll. Not `Send` — it only works
/// from tasks on the owning executor's thread, which is the only place a
/// task can be running anyway.
#[derive(Clone)]
pub struct Spawner {
    injected: InjectedTasks,
}

impl Spawner {
    /// Queues `future` for adoption; it is spawned (and first polled)
    /// before the executor's next poll of any task.
    pub fn spawn(&self, future: impl Future<Output = ()> + 'static) {
        self.injected.borrow_mut().push(Box::pin(future));
    }
}

impl Default for SessionExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionExecutor {
    /// Creates an executor with no tasks, timing against a fresh
    /// [`SystemClock`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_clock(Arc::new(SystemClock::new()))
    }

    /// Creates an executor whose timers read `clock` — inject the
    /// gateway's [`ManualClock`](crate::ManualClock) to drive timeouts and
    /// eviction deterministically in tests.
    #[must_use]
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        SessionExecutor {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            ready: Arc::new(ReadyQueue {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                wakeups: AtomicU64::new(0),
                telemetry: OnceLock::new(),
                doorbell: OnceLock::new(),
            }),
            polls: 0,
            clock,
            timers: Rc::default(),
            parker: None,
            panicked: 0,
            injected: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Spawns a task. It is scheduled immediately (first polls happen in
    /// spawn order) and runs to completion under [`SessionExecutor::run`].
    pub fn spawn(&mut self, future: impl Future<Output = ()> + 'static) -> TaskId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    task: None,
                    generation: 0,
                });
                self.slots.len() - 1
            }
        };
        let generation = self.slots[slot].generation;
        let id = TaskId { slot, generation };
        let waker = Waker::from(Arc::new(WakeHandle {
            slot,
            generation,
            ready: Arc::clone(&self.ready),
        }));
        self.slots[slot].task = Some((Box::pin(future), waker));
        self.live += 1;
        self.ready.push(slot, generation);
        id
    }

    /// Tasks spawned and not yet run to completion.
    #[must_use]
    pub fn live_tasks(&self) -> usize {
        self.live
    }

    /// Total polls performed (each is one resumption of one task).
    #[must_use]
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Total scheduling events (spawns + wakes) delivered to the ready
    /// queue, including those from shard worker threads.
    #[must_use]
    pub fn wakeups(&self) -> u64 {
        self.ready.wakeups.load(Ordering::Relaxed)
    }

    /// Tasks retired because they panicked mid-poll (each was contained:
    /// the panic unwound only that task's future; see the module docs).
    #[must_use]
    pub fn panicked_tasks(&self) -> u64 {
        self.panicked
    }

    /// A handle for registering timer deadlines from inside tasks.
    #[must_use]
    pub fn timer(&self) -> TimerHandle {
        TimerHandle {
            timers: Rc::clone(&self.timers),
            clock: Arc::clone(&self.clock),
        }
    }

    /// Resolves once the executor clock reaches `deadline_nanos` —
    /// shorthand for [`TimerHandle::sleep_until`] when spawning.
    #[must_use]
    pub fn sleep_until(&self, deadline_nanos: u64) -> Sleep {
        self.timer().sleep_until(deadline_nanos)
    }

    /// The executor's injected clock (shared with its timers).
    #[must_use]
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// A handle tasks can use to spawn sibling tasks onto this executor
    /// (see [`Spawner`]).
    #[must_use]
    pub fn spawner(&self) -> Spawner {
        Spawner {
            injected: Rc::clone(&self.injected),
        }
    }

    /// Attaches a telemetry hub (normally
    /// [`crate::Gateway::telemetry_handle`]): every subsequent wake carries
    /// an enqueue timestamp, and [`SessionExecutor::run`] histograms the
    /// wake-to-poll scheduling delay (`executor_wake`) and each poll's
    /// duration (`executor_poll`) into the hub. One-shot: calls after the
    /// first are ignored. Attach *before* [`SessionExecutor::run`] so no
    /// in-flight wake predates the hub.
    pub fn attach_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.ready.telemetry.set(telemetry);
    }

    /// Replaces the condvar park with a reactor park (the `net` epoll
    /// reactor): [`SessionExecutor::run`] then parks in the reactor, and
    /// every ready-queue push also rings `doorbell` so cross-thread wakes
    /// interrupt it. One-shot, attach before `run`.
    pub(crate) fn attach_parker(&mut self, parker: Rc<dyn Parker>, doorbell: Arc<dyn Doorbell>) {
        let _ = self.ready.doorbell.set(doorbell);
        self.parker = Some(parker);
    }

    /// Drives every spawned task to completion, parking the calling thread
    /// whenever no task is runnable and no timer is due. Returns when no
    /// live tasks remain.
    ///
    /// All polling happens on the calling thread; the executor never spawns
    /// one. A task that parks forever (awaits a completion nothing will
    /// deliver) blocks `run` forever too — the gateway side prevents this by
    /// closing abandoned completions (a dropped, undelivered completion
    /// resolves to a typed error and wakes its task).
    pub fn run(&mut self) {
        let hub = self
            .ready
            .telemetry
            .get()
            .filter(|hub| hub.enabled())
            .map(Arc::clone);
        while self.live > 0 || !self.injected.borrow().is_empty() {
            self.adopt_injected();
            self.fire_due_timers(hub.as_deref());
            let Some((slot, generation, wake_nanos)) = self.ready.try_pop() else {
                self.park();
                continue;
            };
            match &hub {
                Some(hub) => {
                    let poll_start = hub.now_nanos();
                    hub.record_executor_wake(poll_start.saturating_sub(wake_nanos));
                    self.poll_task(slot, generation);
                    hub.record_executor_poll(hub.now_nanos().saturating_sub(poll_start));
                }
                None => self.poll_task(slot, generation),
            }
        }
    }

    /// Adopts tasks queued through a [`Spawner`] since the last poll.
    fn adopt_injected(&mut self) {
        if self.injected.borrow().is_empty() {
            return;
        }
        let pending: Vec<_> = self.injected.borrow_mut().drain(..).collect();
        for future in pending {
            self.spawn(future);
        }
    }

    /// Wakes every timer whose deadline the clock has passed.
    fn fire_due_timers(&mut self, hub: Option<&Telemetry>) {
        if self.timers.borrow().armed.is_empty() {
            return;
        }
        let fired = self.timers.borrow_mut().advance(self.clock.now_nanos());
        if fired > 0 {
            if let Some(hub) = hub {
                hub.record_timer_fires(fired);
            }
        }
    }

    /// Parks until a wake arrives, bounding the wait by the nearest timer
    /// deadline (and by [`MAX_TIMER_PARK`], since timer deadlines are in
    /// injected-clock time that real time need not track).
    fn park(&self) {
        let timeout = self.timers.borrow().next_deadline().map(|deadline| {
            let remaining = deadline.saturating_sub(self.clock.now_nanos()).max(1);
            Duration::from_nanos(remaining).min(MAX_TIMER_PARK)
        });
        match &self.parker {
            Some(parker) => parker.park(timeout),
            None => self.ready.wait_ready(timeout),
        }
    }

    /// Polls one task if the `(slot, generation)` pair still names a live
    /// task; stale or duplicate wakes are ignored.
    ///
    /// The poll runs under [`std::panic::catch_unwind`]: a panicking future
    /// is retired exactly like a completed one (generation bumped, slot
    /// recycled), so its dropped completers surface
    /// [`RuntimeUnavailable`](crate::GatewayError::RuntimeUnavailable) to
    /// whoever awaited it while every other task keeps running.
    fn poll_task(&mut self, slot: usize, generation: u64) {
        let Some(entry) = self.slots.get_mut(slot) else {
            return;
        };
        if entry.generation != generation {
            return;
        }
        let Some((mut future, waker)) = entry.task.take() else {
            // Duplicate wake for a task that completed this generation.
            return;
        };
        self.polls += 1;
        let poll = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            future.as_mut().poll(&mut Context::from_waker(&waker))
        }));
        match poll {
            Ok(Poll::Ready(())) => self.retire(slot),
            Ok(Poll::Pending) => self.slots[slot].task = Some((future, waker)),
            Err(_panic) => {
                // Contain the panic to this task: drop its future (closing
                // any completers it held — each resolves its awaiter to
                // RuntimeUnavailable), guard against a panicking Drop, and
                // retire the slot like a normal completion.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    drop(future);
                }));
                self.panicked += 1;
                self.retire(slot);
            }
        }
    }

    /// Releases a finished slot: bump the generation so any waker still
    /// held by a shard worker goes stale, then recycle.
    fn retire(&mut self, slot: usize) {
        let entry = &mut self.slots[slot];
        entry.generation += 1;
        self.free.push(slot);
        self.live -= 1;
    }
}

impl core::fmt::Debug for SessionExecutor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SessionExecutor")
            .field("live_tasks", &self.live)
            .field("polls", &self.polls)
            .field("panicked", &self.panicked)
            .finish_non_exhaustive()
    }
}

/// A single-threaded completion latch for coordinating executor tasks: `n`
/// parties each call [`WaitGroup::done`] once, and any number of tasks can
/// `await` [`WaitGroup::wait`] to resume after the `n`-th.
///
/// The E15 driver uses one to hold the submitter task back until every
/// session task has finished its handshake, so the submission schedule is
/// identical to the blocking baseline's.
///
/// Not `Send` (it is `Rc`-based, like the tasks themselves): clones are
/// handles to the same latch and must stay on the executor thread.
#[derive(Clone)]
pub struct WaitGroup {
    inner: std::rc::Rc<std::cell::RefCell<WaitGroupState>>,
}

struct WaitGroupState {
    remaining: usize,
    waiters: Vec<Waker>,
}

impl WaitGroup {
    /// Creates a latch that opens after `parties` calls to
    /// [`WaitGroup::done`] (`0` is already open).
    #[must_use]
    pub fn new(parties: usize) -> Self {
        WaitGroup {
            inner: std::rc::Rc::new(std::cell::RefCell::new(WaitGroupState {
                remaining: parties,
                waiters: Vec::new(),
            })),
        }
    }

    /// Records one party's completion; the call that reaches zero wakes
    /// every waiter. Calls beyond `parties` are ignored.
    pub fn done(&self) {
        let waiters = {
            let mut state = self.inner.borrow_mut();
            state.remaining = state.remaining.saturating_sub(1);
            if state.remaining > 0 {
                return;
            }
            std::mem::take(&mut state.waiters)
        };
        for waker in waiters {
            waker.wake();
        }
    }

    /// Parties still outstanding.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.inner.borrow().remaining
    }

    /// Resolves once every party has called [`WaitGroup::done`].
    pub fn wait(&self) -> WaitGroupFuture {
        WaitGroupFuture {
            inner: self.clone(),
        }
    }
}

impl core::fmt::Debug for WaitGroup {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WaitGroup")
            .field("remaining", &self.remaining())
            .finish()
    }
}

/// Future returned by [`WaitGroup::wait`].
pub struct WaitGroupFuture {
    inner: WaitGroup,
}

impl Future for WaitGroupFuture {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.inner.inner.borrow_mut();
        if state.remaining == 0 {
            return Poll::Ready(());
        }
        state.waiters.push(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn runs_tasks_in_spawn_order_and_reuses_slots() {
        let mut executor = SessionExecutor::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let order = Rc::clone(&order);
            executor.spawn(async move { order.borrow_mut().push(i) });
        }
        assert_eq!(executor.live_tasks(), 4);
        executor.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(executor.live_tasks(), 0);
        assert_eq!(executor.polls(), 4);

        // Slots are recycled under a fresh generation.
        let hit = Rc::new(Cell::new(false));
        let hit2 = Rc::clone(&hit);
        let id = executor.spawn(async move { hit2.set(true) });
        assert!(id.slot < 4, "slot should be recycled, not grown");
        executor.run();
        assert!(hit.get());
    }

    #[test]
    fn cross_thread_wake_resumes_a_parked_executor() {
        // A future that parks until another OS thread delivers its value —
        // the exact shape of a shard worker completing a command.
        let (completer, completion) = crate::frontend::completion::completion_pair::<u32>();
        let seen = Rc::new(Cell::new(0));
        let seen2 = Rc::clone(&seen);
        let mut executor = SessionExecutor::new();
        executor.spawn(async move {
            seen2.set(completion.await.expect("delivered"));
        });
        let deliverer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            completer.complete(42);
        });
        executor.run();
        deliverer.join().unwrap();
        assert_eq!(seen.get(), 42);
        // At least the spawn scheduling event; the post-delivery wake only
        // counts when the future had already registered (the usual case,
        // but a slow first poll can lose that race benignly).
        assert!(executor.wakeups() >= 1);
    }

    #[test]
    fn stale_wakes_from_a_finished_generation_are_ignored() {
        let mut executor = SessionExecutor::new();
        let id = executor.spawn(async {});
        executor.run();
        // Re-deliver the finished task's id by hand: must be a no-op even
        // though the slot is back on the free list.
        executor.ready.push(id.slot, id.generation);
        let polls = executor.polls();
        let entry = executor.ready.pop_wait();
        executor.poll_task(entry.0, entry.1);
        assert_eq!(executor.polls(), polls);
    }

    #[test]
    fn a_panicking_task_is_contained_and_neighbours_complete() {
        let mut executor = SessionExecutor::new();
        let done = Rc::new(Cell::new(0));
        for _ in 0..4 {
            let done = Rc::clone(&done);
            executor.spawn(async move { done.set(done.get() + 1) });
        }
        executor.spawn(async move { panic!("deliberate task panic (test)") });
        for _ in 0..4 {
            let done = Rc::clone(&done);
            executor.spawn(async move { done.set(done.get() + 1) });
        }
        executor.run();
        assert_eq!(done.get(), 8, "healthy tasks must all complete");
        assert_eq!(executor.panicked_tasks(), 1);
        assert_eq!(executor.live_tasks(), 0);

        // The executor stays usable: the panicked slot is recycled.
        let hit = Rc::new(Cell::new(false));
        let hit2 = Rc::clone(&hit);
        executor.spawn(async move { hit2.set(true) });
        executor.run();
        assert!(hit.get());
    }

    #[test]
    fn sleep_fires_under_a_manual_clock_only_when_advanced() {
        let clock = Arc::new(ManualClock::new());
        let mut executor = SessionExecutor::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let timer = executor.timer();
        let woke = Rc::new(Cell::new(false));
        let woke2 = Rc::clone(&woke);
        let deadline = Duration::from_millis(50).as_nanos() as u64;
        executor.spawn(async move {
            timer.sleep_until(deadline).await;
            woke2.set(true);
        });
        // Drive the clock from a helper thread: the executor's bounded
        // timer park re-reads it within MAX_TIMER_PARK.
        let driver = std::thread::spawn(move || {
            for _ in 0..200 {
                std::thread::sleep(Duration::from_millis(1));
                clock.advance(Duration::from_millis(2));
            }
        });
        executor.run();
        driver.join().unwrap();
        assert!(woke.get());
    }

    #[test]
    fn sleep_orders_by_deadline_not_spawn_order() {
        let clock = Arc::new(ManualClock::new());
        let mut executor = SessionExecutor::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let order = Rc::new(RefCell::new(Vec::new()));
        let ms = |n: u64| Duration::from_millis(n).as_nanos() as u64;
        for (label, deadline) in [("late", ms(40)), ("early", ms(10)), ("mid", ms(20))] {
            let order = Rc::clone(&order);
            let timer = executor.timer();
            executor.spawn(async move {
                timer.sleep_until(deadline).await;
                order.borrow_mut().push(label);
            });
        }
        let driver = std::thread::spawn(move || {
            for _ in 0..300 {
                std::thread::sleep(Duration::from_millis(1));
                clock.advance(Duration::from_millis(1));
            }
        });
        executor.run();
        driver.join().unwrap();
        assert_eq!(*order.borrow(), vec!["early", "mid", "late"]);
    }

    /// A waker that counts its wakes.
    fn counting_waker() -> (Waker, Arc<std::sync::atomic::AtomicUsize>) {
        struct Count(Arc<std::sync::atomic::AtomicUsize>);
        impl std::task::Wake for Count {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let count = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        (Waker::from(Arc::new(Count(Arc::clone(&count)))), count)
    }

    #[test]
    fn a_timer_fires_at_its_deadline_and_not_a_nanosecond_before() {
        let mut timers = Timers::default();
        let (waker, wakes) = counting_waker();
        let deadline = Duration::from_millis(7).as_nanos() as u64 + 123;
        timers.insert(deadline, waker);
        assert_eq!(timers.next_deadline(), Some(deadline));
        assert_eq!(timers.advance(deadline - 1), 0);
        assert_eq!(wakes.load(Ordering::SeqCst), 0);
        assert_eq!(timers.advance(deadline), 1);
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        assert_eq!(timers.advance(deadline + 1), 0);
        assert_eq!(timers.next_deadline(), None);
    }

    #[test]
    fn timers_fire_in_deadline_order_with_ties_in_arming_order() {
        struct Label(&'static str, Arc<Mutex<Vec<&'static str>>>);
        impl std::task::Wake for Label {
            fn wake(self: Arc<Self>) {
                self.1.lock().unwrap().push(self.0);
            }
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let label = |name| Waker::from(Arc::new(Label(name, Arc::clone(&order))));
        let mut timers = Timers::default();
        let six_hours = Duration::from_secs(6 * 3600).as_nanos() as u64;
        // Armed out of deadline order; three share the nearest deadline.
        timers.insert(2 * six_hours, label("twelve hours"));
        timers.insert(1_000, label("first"));
        timers.insert(six_hours, label("six hours"));
        timers.insert(1_000, label("second"));
        timers.insert(1_000, label("third"));
        assert_eq!(timers.next_deadline(), Some(1_000));

        assert_eq!(timers.advance(1_000), 3);
        assert_eq!(*order.lock().unwrap(), ["first", "second", "third"]);
        // One clock jump past both far deadlines.
        assert_eq!(timers.advance(3 * six_hours), 2);
        assert_eq!(order.lock().unwrap()[3..], ["six hours", "twelve hours"]);
        assert!(timers.armed.is_empty());
    }

    #[test]
    fn a_cancelled_timer_never_wakes_and_leaves_nothing_behind() {
        let clock = Arc::new(ManualClock::new());
        let executor = SessionExecutor::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let timer = executor.timer();
        let (waker, wakes) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        let ms = |n: u64| Duration::from_millis(n).as_nanos() as u64;

        // From milliseconds to most of a day out.
        let deadlines = [5, 100, 5_000, 300_000, 80_000_000].map(ms);
        let mut sleeps: Vec<Sleep> = deadlines.iter().map(|&d| timer.sleep_until(d)).collect();
        for sleep in &mut sleeps {
            assert!(Pin::new(sleep).poll(&mut cx).is_pending());
        }
        assert_eq!(timer.armed(), 5);
        // Polling again through the same waker arms nothing new.
        for sleep in &mut sleeps {
            assert!(Pin::new(sleep).poll(&mut cx).is_pending());
        }
        assert_eq!(timer.armed(), 5);

        // Dropping cancels.
        let keep = sleeps.remove(1);
        drop(sleeps);
        assert_eq!(timer.armed(), 1);
        assert_eq!(timer.timers.borrow().next_deadline(), Some(ms(100)));

        // Run the clock past every deadline: only the survivor fires.
        clock.advance(Duration::from_millis(80_000_020));
        assert_eq!(timer.timers.borrow_mut().advance(clock.now_nanos()), 1);
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        assert_eq!(timer.armed(), 0);
        // The fired timer's key is stale: dropping its Sleep must not
        // cancel a timer armed since.
        let mut later = timer.sleep_until(clock.now_nanos() + ms(50));
        assert!(Pin::new(&mut later).poll(&mut cx).is_pending());
        drop(keep);
        assert_eq!(timer.armed(), 1);
    }

    #[test]
    fn cancelling_keeps_bucket_neighbours_reachable() {
        // Many timers at one deadline, cancelled in an arbitrary order:
        // every survivor must still be cancellable and must still fire.
        let mut timers = Timers::default();
        let (waker, wakes) = counting_waker();
        let deadline = Duration::from_millis(7).as_nanos() as u64;
        let keys: Vec<TimerKey> = (0..32)
            .map(|_| timers.insert(deadline, waker.clone()))
            .collect();
        for &i in &[0usize, 31, 5, 17, 16, 1, 30, 9] {
            timers.cancel(keys[i]);
            timers.cancel(keys[i]); // twice is a no-op
        }
        assert_eq!(timers.armed.len(), 24);
        assert_eq!(timers.advance(deadline), 24);
        assert_eq!(wakes.load(Ordering::SeqCst), 24);
        assert!(timers.armed.is_empty());
        assert_eq!(timers.next_deadline(), None);
    }

    #[test]
    fn a_waker_outlives_its_task_and_its_executor() {
        // The task's waker is handed to another thread — what a pending
        // completion does with it — and used only after the task has
        // finished and the executor is gone.
        let (send, recv) = std::sync::mpsc::channel::<Waker>();
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let waker = recv.recv().expect("the task sends its waker");
            wait.recv().expect("the executor is dropped first");
            waker.wake_by_ref();
            let clone = waker.clone();
            waker.wake();
            drop(clone);
        });
        let mut executor = SessionExecutor::new();
        executor.spawn(std::future::poll_fn(move |cx| {
            send.send(cx.waker().clone()).expect("holder is listening");
            Poll::Ready(())
        }));
        executor.run();
        assert_eq!(executor.live_tasks(), 0);
        drop(executor);
        go.send(()).expect("holder is waiting");
        holder.join().expect("late wakes must not panic");

        // The late wakes went to the dropped executor's queue: a fresh one
        // polls exactly what is spawned on it.
        let mut fresh = SessionExecutor::new();
        fresh.spawn(async {});
        fresh.run();
        assert_eq!((fresh.polls(), fresh.wakeups()), (1, 1));
    }

    /// Resolves on its second poll, waking itself in between: one
    /// suspend/resume of the task that awaits it.
    struct YieldOnce(bool);

    impl Future for YieldOnce {
        type Output = ();

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.0 {
                return Poll::Ready(());
            }
            self.0 = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }

    /// What a connection's suspend is: an idle-deadline sleep raced against
    /// another wake source, which wins.
    struct SleepOrYield {
        sleep: Sleep,
        other: YieldOnce,
    }

    impl Future for SleepOrYield {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let this = self.get_mut();
            if Pin::new(&mut this.sleep).poll(cx).is_ready() {
                return Poll::Ready(());
            }
            Pin::new(&mut this.other).poll(cx)
        }
    }

    #[test]
    fn ten_thousand_suspends_under_a_far_deadline_hold_one_timer() {
        let clock = Arc::new(ManualClock::new());
        let mut executor = SessionExecutor::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let timer = executor.timer();
        let observed = Rc::new(RefCell::new(Vec::new()));
        let far = Duration::from_secs(130).as_nanos() as u64;
        {
            let (timer, observed) = (timer.clone(), Rc::clone(&observed));
            executor.spawn(async move {
                for cycle in 0..10_000 {
                    let mut suspend = SleepOrYield {
                        sleep: timer.sleep_until(far),
                        other: YieldOnce(false),
                    };
                    std::future::poll_fn(|cx| Pin::new(&mut suspend).poll(cx)).await;
                    // The sleep is still armed here.
                    if cycle == 1 || cycle == 9_999 {
                        observed.borrow_mut().push(timer.armed());
                    }
                }
            });
        }
        executor.run();
        assert_eq!(*observed.borrow(), [1, 1], "one live sleeper, one timer");
        assert_eq!(timer.armed(), 0);
        // Nothing ever fired: the clock never moved.
        assert_eq!(clock.now_nanos(), 0);
    }

    #[test]
    fn wait_group_holds_tasks_until_all_parties_report() {
        let mut executor = SessionExecutor::new();
        let group = WaitGroup::new(3);
        let order = Rc::new(RefCell::new(Vec::new()));
        {
            let group = group.clone();
            let order = Rc::clone(&order);
            executor.spawn(async move {
                group.wait().await;
                order.borrow_mut().push("late");
            });
        }
        for _ in 0..3 {
            let group = group.clone();
            let order = Rc::clone(&order);
            executor.spawn(async move {
                order.borrow_mut().push("party");
                group.done();
            });
        }
        executor.run();
        assert_eq!(*order.borrow(), vec!["party", "party", "party", "late"]);
        assert_eq!(group.remaining(), 0);
        // An already-open group resolves immediately.
        let open = WaitGroup::new(0);
        let hit = Rc::new(Cell::new(false));
        let hit2 = Rc::clone(&hit);
        executor.spawn(async move {
            open.wait().await;
            hit2.set(true);
        });
        executor.run();
        assert!(hit.get());
    }
}
