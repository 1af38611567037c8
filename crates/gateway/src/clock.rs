//! Injected time source for lifecycle decisions.
//!
//! The gateway's only time-dependent policy is stale-pending eviction
//! ([`crate::Gateway::evict_stale_pending`]). Reading wall time directly made
//! that policy untestable without sleeping; instead the gateway reads the
//! [`Clock`] in [`GatewayConfig::clock`](crate::GatewayConfig::clock), so
//! production uses the monotonic [`SystemClock`] and tests use a
//! [`ManualClock`] they can advance deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic time source, in nanoseconds since an arbitrary origin.
///
/// Implementations must be monotonic (never decrease) and cheap to read; the
/// gateway samples the clock on every session open.
pub trait Clock: Send + Sync + core::fmt::Debug {
    /// Nanoseconds elapsed since the clock's origin.
    fn now_nanos(&self) -> u64;
}

/// The production clock: monotonic wall time from [`Instant`].
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    #[must_use]
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A manually-advanced clock for deterministic tests: time only moves when
/// the test says so.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock starting at zero.
    #[must_use]
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `nanos`.
    pub fn advance_nanos(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Advances the clock by a [`std::time::Duration`].
    pub fn advance(&self, by: std::time::Duration) {
        self.advance_nanos(by.as_nanos() as u64);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::default();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_when_advanced() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_nanos(), 0);
        assert_eq!(clock.now_nanos(), 0);
        clock.advance_nanos(5);
        assert_eq!(clock.now_nanos(), 5);
        clock.advance(std::time::Duration::from_secs(1));
        assert_eq!(clock.now_nanos(), 1_000_000_005);
    }
}
