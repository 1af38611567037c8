//! Raw `epoll(7)`/`eventfd(2)`/`listen(2)` syscall shim for the front door.
//!
//! The workspace takes no external dependencies, so on Linux the reactor
//! issues raw syscalls (no libc).
//! This module only exists on Linux x86_64/aarch64 — [`super::supported`]
//! reports `false` everywhere else and the reactor refuses to construct,
//! so nothing here gates compilation on other targets.
//!
//! Every wrapper translates the kernel's `-errno` convention into
//! [`std::io::Error`], and every file descriptor minted here is owned by
//! exactly one reactor which closes it on drop.

#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use std::io;

/// `EPOLL_CTL_ADD`: register a new fd with the epoll set.
pub(crate) const EPOLL_CTL_ADD: i32 = 1;
/// `EPOLL_CTL_DEL`: remove an fd from the epoll set.
pub(crate) const EPOLL_CTL_DEL: i32 = 2;
/// `EPOLL_CTL_MOD`: change a registered fd's interest mask.
pub(crate) const EPOLL_CTL_MOD: i32 = 3;

/// Readable (`EPOLLIN`).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`; always reported, listed for arming clarity).
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`; always reported).
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// One-shot arming (`EPOLLONESHOT`): the fd is disarmed after one event,
/// and the owning task re-arms explicitly — this is what prevents a
/// level-triggered busy spin while a connection task awaits the gateway
/// with readable bytes still queued on its socket.
pub(crate) const EPOLLONESHOT: u32 = 1 << 30;

/// `EPOLL_CLOEXEC` / `EFD_CLOEXEC` (== `O_CLOEXEC`).
const CLOEXEC: i64 = 0x80000;
/// `EFD_NONBLOCK` (== `O_NONBLOCK`).
const EFD_NONBLOCK: i64 = 0x800;

/// One `epoll_wait` readiness record. x86_64 is the one Linux ABI where
/// this struct is packed; aarch64 uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    /// Readiness bits (`EPOLLIN` etc.).
    pub events: u32,
    /// Caller cookie; the reactor stores the fd here.
    pub data: u64,
}

impl EpollEvent {
    pub(crate) const fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }
}

/// Converts a raw syscall return into `Ok(value)` or the `-errno` it holds.
fn check(ret: i64) -> io::Result<i64> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret)
    }
}

/// Creates an epoll instance (`epoll_create1(EPOLL_CLOEXEC)`).
pub(crate) fn epoll_create1() -> io::Result<i32> {
    check(imp::syscall(
        imp::SYS_EPOLL_CREATE1,
        [CLOEXEC, 0, 0, 0, 0, 0],
    ))
    .map(|fd| fd as i32)
}

/// Adds/modifies/removes `fd` in the epoll set. `events`/`data` are ignored
/// by the kernel for `EPOLL_CTL_DEL`.
pub(crate) fn epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
    let mut event = EpollEvent { events, data };
    let event_ptr = if op == EPOLL_CTL_DEL {
        core::ptr::null_mut()
    } else {
        &mut event as *mut EpollEvent
    };
    check(imp::syscall(
        imp::SYS_EPOLL_CTL,
        [
            i64::from(epfd),
            i64::from(op),
            i64::from(fd),
            event_ptr as i64,
            0,
            0,
        ],
    ))
    .map(|_| ())
}

/// Waits for readiness events, at most `timeout_ms` (`-1` = no bound).
/// Returns the number of records written into `events`. `EINTR` is
/// reported as zero events — the run loop re-parks anyway.
pub(crate) fn epoll_wait(
    epfd: i32,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    let ret = imp::epoll_wait_raw(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms);
    match check(ret) {
        Ok(n) => Ok(n as usize),
        Err(e) if e.raw_os_error() == Some(4 /* EINTR */) => Ok(0),
        Err(e) => Err(e),
    }
}

/// Creates the reactor's doorbell eventfd
/// (`eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`).
pub(crate) fn eventfd() -> io::Result<i32> {
    check(imp::syscall(
        imp::SYS_EVENTFD2,
        [0, CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0],
    ))
    .map(|fd| fd as i32)
}

/// Rings an eventfd: adds 1 to its counter. A full counter (`EAGAIN`,
/// effectively impossible at u64 range) and a racing close (`EBADF` after
/// the reactor shut down) are both ignored — the ring is best-effort by
/// contract.
pub(crate) fn eventfd_ring(fd: i32) {
    let one: u64 = 1;
    let _ = imp::syscall(
        imp::SYS_WRITE,
        [
            i64::from(fd),
            core::ptr::addr_of!(one) as i64,
            core::mem::size_of::<u64>() as i64,
            0,
            0,
            0,
        ],
    );
}

/// Drains an eventfd's counter so the level-triggered registration goes
/// quiet until the next ring.
pub(crate) fn eventfd_drain(fd: i32) {
    let mut buf: u64 = 0;
    let _ = imp::syscall(
        imp::SYS_READ,
        [
            i64::from(fd),
            core::ptr::addr_of_mut!(buf) as i64,
            core::mem::size_of::<u64>() as i64,
            0,
            0,
            0,
        ],
    );
}

/// Sets a socket's accept backlog (`listen(2)`). On a socket that already
/// listens, Linux only replaces the backlog, clamped to
/// `net.core.somaxconn`.
pub(crate) fn listen(fd: i32, backlog: i32) -> io::Result<()> {
    check(imp::syscall(
        imp::SYS_LISTEN,
        [i64::from(fd), i64::from(backlog), 0, 0, 0, 0],
    ))
    .map(|_| ())
}

/// A listening socket's accept backlog, as `getsockopt(SOL_TCP, TCP_INFO)`
/// reports it: `tcpi_sacked`, the sixth `u32` after the eight single-byte
/// fields that open `struct tcp_info`.
#[cfg(test)]
pub(crate) fn listen_backlog(fd: i32) -> io::Result<u32> {
    const SOL_TCP: i64 = 6;
    const TCP_INFO: i64 = 11;
    let mut info = [0u32; 8];
    let mut len = core::mem::size_of_val(&info) as u32;
    check(imp::syscall(
        imp::SYS_GETSOCKOPT,
        [
            i64::from(fd),
            SOL_TCP,
            TCP_INFO,
            info.as_mut_ptr() as i64,
            core::ptr::addr_of_mut!(len) as i64,
            0,
        ],
    ))?;
    Ok(info[7])
}

/// Closes a reactor-owned fd.
pub(crate) fn close(fd: i32) {
    let _ = imp::syscall(imp::SYS_CLOSE, [i64::from(fd), 0, 0, 0, 0, 0]);
}

/// The one `unsafe` corner of the reactor: the raw syscall instruction.
///
/// Invariants keeping this sound:
/// * Every pointer argument passed by the wrappers above points to a live
///   local or caller-owned buffer whose length is passed alongside it, per
///   each syscall's documented contract; the kernel writes only within
///   those bounds (`epoll_wait` event arrays, the eventfd read buffer,
///   the `getsockopt` value and its length).
/// * The inline asm clobbers are exactly the Linux syscall ABI's
///   (`rcx`/`r11` on x86_64; `x8` plus argument registers on aarch64), and
///   no Rust state is live across the instruction beyond the declared
///   operands.
/// * No syscall here touches foreign processes or threads; all operate on
///   fds this process owns.
#[allow(unsafe_code)]
mod imp {
    use super::EpollEvent;

    #[cfg(target_arch = "x86_64")]
    pub(super) const SYS_READ: i64 = 0;
    #[cfg(target_arch = "x86_64")]
    pub(super) const SYS_WRITE: i64 = 1;
    #[cfg(target_arch = "x86_64")]
    pub(super) const SYS_CLOSE: i64 = 3;
    #[cfg(target_arch = "x86_64")]
    pub(super) const SYS_LISTEN: i64 = 50;
    #[cfg(all(test, target_arch = "x86_64"))]
    pub(super) const SYS_GETSOCKOPT: i64 = 55;
    #[cfg(target_arch = "x86_64")]
    const SYS_EPOLL_WAIT: i64 = 232;
    #[cfg(target_arch = "x86_64")]
    pub(super) const SYS_EPOLL_CTL: i64 = 233;
    #[cfg(target_arch = "x86_64")]
    pub(super) const SYS_EVENTFD2: i64 = 290;
    #[cfg(target_arch = "x86_64")]
    pub(super) const SYS_EPOLL_CREATE1: i64 = 291;

    #[cfg(target_arch = "aarch64")]
    pub(super) const SYS_EVENTFD2: i64 = 19;
    #[cfg(target_arch = "aarch64")]
    pub(super) const SYS_EPOLL_CREATE1: i64 = 20;
    #[cfg(target_arch = "aarch64")]
    pub(super) const SYS_EPOLL_CTL: i64 = 21;
    #[cfg(target_arch = "aarch64")]
    const SYS_EPOLL_PWAIT: i64 = 22;
    #[cfg(target_arch = "aarch64")]
    pub(super) const SYS_CLOSE: i64 = 57;
    #[cfg(target_arch = "aarch64")]
    pub(super) const SYS_READ: i64 = 63;
    #[cfg(target_arch = "aarch64")]
    pub(super) const SYS_WRITE: i64 = 64;
    #[cfg(target_arch = "aarch64")]
    pub(super) const SYS_LISTEN: i64 = 201;
    #[cfg(all(test, target_arch = "aarch64"))]
    pub(super) const SYS_GETSOCKOPT: i64 = 209;

    #[cfg(target_arch = "x86_64")]
    pub(super) fn syscall(nr: i64, args: [i64; 6]) -> i64 {
        let ret: i64;
        // SAFETY: see module docs — pointer arguments are live caller
        // buffers with their lengths passed alongside; standard x86_64
        // syscall clobbers.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") args[0],
                in("rsi") args[1],
                in("rdx") args[2],
                in("r10") args[3],
                in("r8") args[4],
                in("r9") args[5],
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    pub(super) fn syscall(nr: i64, args: [i64; 6]) -> i64 {
        let ret: i64;
        // SAFETY: see module docs — pointer arguments are live caller
        // buffers with their lengths passed alongside; standard aarch64
        // syscall convention (number in x8, `svc 0`).
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") args[0] => ret,
                in("x1") args[1],
                in("x2") args[2],
                in("x3") args[3],
                in("x4") args[4],
                in("x5") args[5],
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "x86_64")]
    pub(super) fn epoll_wait_raw(
        epfd: i32,
        events: *mut EpollEvent,
        max: i32,
        timeout_ms: i32,
    ) -> i64 {
        syscall(
            SYS_EPOLL_WAIT,
            [
                i64::from(epfd),
                events as i64,
                i64::from(max),
                i64::from(timeout_ms),
                0,
                0,
            ],
        )
    }

    #[cfg(target_arch = "aarch64")]
    pub(super) fn epoll_wait_raw(
        epfd: i32,
        events: *mut EpollEvent,
        max: i32,
        timeout_ms: i32,
    ) -> i64 {
        // aarch64 has no epoll_wait; epoll_pwait with a NULL sigmask (and
        // sigsetsize 0) is the kernel's own compatibility spelling.
        syscall(
            SYS_EPOLL_PWAIT,
            [
                i64::from(epfd),
                events as i64,
                i64::from(max),
                i64::from(timeout_ms),
                0,
                0,
            ],
        )
    }
}
