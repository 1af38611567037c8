//! The epoll readiness reactor, and its integration with the executor.
//!
//! One [`Reactor`] owns one epoll set plus one eventfd "doorbell". Every
//! connection (and the listener) registers its fd once, then *arms* an
//! interest (`EPOLLONESHOT`) each time its task is about to suspend on I/O.
//! One-shot arming is load-bearing: while a connection task awaits a
//! gateway completion with unread bytes still queued on its socket, a
//! level-triggered registration would make every park return immediately.
//!
//! The executor integration is two trait objects:
//!
//! * [`Notifier`] (the doorbell) is `Send + Sync` and hangs off the ready
//!   queue: every wake pushed from a shard worker thread writes the
//!   eventfd, which is readable state — a ring *before* the reactor parks
//!   is still observed, so no wake can be lost between `try_pop` and
//!   `epoll_wait`.
//! * [`Reactor`] itself is the [`Parker`]: when the executor has nothing
//!   runnable it parks in `epoll_wait`, bounded by the nearest timer
//!   deadline, and readiness events wake the owning tasks directly.

use super::sys;
use crate::frontend::executor::{Doorbell, Parker};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;

/// Interests a task can arm for its fd.
#[derive(Clone, Copy)]
pub(crate) struct Interest {
    /// Wake when readable (or peer hung up).
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

/// The `Send + Sync` half of the reactor: rings the eventfd doorbell.
///
/// Held by the executor's ready queue (so shard-worker wakes interrupt an
/// `epoll_wait` park) and by [`ShutdownSignal`](super::ShutdownSignal)
/// (so `stop()` does too). `active` is cleared before the reactor closes
/// its fds, so a straggling ring after shutdown cannot write into a
/// recycled descriptor.
pub(crate) struct Notifier {
    wakefd: i32,
    active: AtomicBool,
}

impl Doorbell for Notifier {
    fn ring(&self) {
        if self.active.load(Ordering::Acquire) {
            sys::eventfd_ring(self.wakefd);
        }
    }
}

/// One registered fd: the waker of the task that last armed it.
struct Source {
    waker: Option<Waker>,
}

/// The epoll readiness reactor. Not `Send`: it lives and dies on the
/// front-door thread, like the executor it parks.
pub(crate) struct Reactor {
    epfd: i32,
    notifier: Arc<Notifier>,
    sources: RefCell<HashMap<u64, Source>>,
}

impl Reactor {
    /// Creates the epoll set and doorbell eventfd, registering the
    /// doorbell level-triggered (it is drained on every wake, so it only
    /// stays readable while rings are pending).
    pub(crate) fn new() -> io::Result<Reactor> {
        let epfd = sys::epoll_create1()?;
        let wakefd = match sys::eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                sys::close(epfd);
                return Err(e);
            }
        };
        if let Err(e) = sys::epoll_ctl(
            epfd,
            sys::EPOLL_CTL_ADD,
            wakefd,
            sys::EPOLLIN,
            wakefd as u64,
        ) {
            sys::close(wakefd);
            sys::close(epfd);
            return Err(e);
        }
        Ok(Reactor {
            epfd,
            notifier: Arc::new(Notifier {
                wakefd,
                active: AtomicBool::new(true),
            }),
            sources: RefCell::new(HashMap::new()),
        })
    }

    /// The doorbell half, for [`SessionExecutor::attach_parker`] and the
    /// shutdown signal.
    ///
    /// [`SessionExecutor::attach_parker`]: crate::frontend::SessionExecutor
    pub(crate) fn notifier(&self) -> Arc<Notifier> {
        Arc::clone(&self.notifier)
    }

    /// Registers `fd` disarmed (no interests). Arm before each suspend.
    pub(crate) fn register(&self, fd: i32) -> io::Result<()> {
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            sys::EPOLLONESHOT,
            fd as u64,
        )?;
        self.sources
            .borrow_mut()
            .insert(fd as u64, Source { waker: None });
        Ok(())
    }

    /// Arms `fd` one-shot for `interest`, storing `waker` to deliver the
    /// event. Replaces any previous arming (same task re-arming with a
    /// fresh waker is the steady state).
    pub(crate) fn arm(&self, fd: i32, interest: Interest, waker: &Waker) {
        let mut events = sys::EPOLLONESHOT | sys::EPOLLERR | sys::EPOLLHUP;
        if interest.read {
            events |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.write {
            events |= sys::EPOLLOUT;
        }
        // MOD on a registered fd cannot fail for reasons the task can fix;
        // if it somehow does, wake immediately so the task retries its I/O
        // (worst case it re-arms, never hangs).
        if sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, events, fd as u64).is_err() {
            waker.wake_by_ref();
            return;
        }
        if let Some(source) = self.sources.borrow_mut().get_mut(&(fd as u64)) {
            source.waker = Some(waker.clone());
        }
    }

    /// Removes `fd` from the epoll set (the caller still owns and closes
    /// the socket itself).
    pub(crate) fn deregister(&self, fd: i32) {
        let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
        self.sources.borrow_mut().remove(&(fd as u64));
    }

    /// Waits for readiness up to `timeout`, draining the doorbell and
    /// waking every task whose armed fd fired.
    pub(crate) fn poll_io(&self, timeout: Option<Duration>) {
        let mut events = [sys::EpollEvent::zeroed(); 64];
        let n = match sys::epoll_wait(self.epfd, &mut events, epoll_timeout_ms(timeout)) {
            Ok(n) => n,
            Err(_) => return,
        };
        let mut pending = Vec::new();
        {
            let mut sources = self.sources.borrow_mut();
            for event in &events[..n] {
                let cookie = event.data;
                if cookie == self.notifier.wakefd as u64 {
                    sys::eventfd_drain(self.notifier.wakefd);
                    continue;
                }
                if let Some(source) = sources.get_mut(&cookie) {
                    if let Some(waker) = source.waker.take() {
                        pending.push(waker);
                    }
                }
            }
        }
        for waker in pending {
            waker.wake();
        }
    }
}

/// `epoll_wait`'s millisecond timeout for a park bounded by `timeout`
/// (`-1`, wait for an event, when unbounded). Rounded **up**, so a
/// deadline 1.9 ms away parks once for 2 ms rather than waking at 1 ms
/// with nothing due and parking again, and so a sub-millisecond bound is
/// never a zero-timeout busy loop; clamped to `[1 ms, 60 s]`.
fn epoll_timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        Some(t) => t.as_nanos().div_ceil(1_000_000).clamp(1, 60_000) as i32,
        None => -1,
    }
}

impl Parker for Reactor {
    fn park(&self, timeout: Option<Duration>) {
        self.poll_io(timeout);
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // Quiesce the doorbell before closing its fd: a shard worker
        // holding a stale waker must never write into a descriptor number
        // the OS has recycled.
        self.notifier.active.store(false, Ordering::Release);
        sys::close(self.notifier.wakefd);
        sys::close(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::epoll_timeout_ms;
    use std::time::Duration;

    #[test]
    fn park_timeouts_round_up_to_whole_milliseconds_within_the_clamp() {
        let ms = |t: Duration| epoll_timeout_ms(Some(t));
        assert_eq!(ms(Duration::from_nanos(1)), 1);
        assert_eq!(ms(Duration::from_micros(999)), 1);
        assert_eq!(ms(Duration::from_millis(1)), 1);
        assert_eq!(ms(Duration::from_micros(1_900)), 2);
        assert_eq!(ms(Duration::from_secs(61)), 60_000);
        assert_eq!(ms(Duration::ZERO), 1);
        assert_eq!(epoll_timeout_ms(None), -1);
    }
}
