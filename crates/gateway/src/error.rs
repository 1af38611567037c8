//! Typed gateway rejections.

use crate::checkpoint::CrashPoint;
use crate::runtime::BarrierOp;
use glimmer_core::GlimmerError;
use std::sync::Arc;

/// Which per-tenant limit an admission decision tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaResource {
    /// `TenantQuota::max_sessions`.
    Sessions,
    /// `TenantQuota::max_queued`.
    QueuedRequests,
    /// `TenantQuota::endorsement_budget`.
    Endorsements,
}

impl core::fmt::Display for QuotaResource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QuotaResource::Sessions => write!(f, "sessions"),
            QuotaResource::QueuedRequests => write!(f, "queued requests"),
            QuotaResource::Endorsements => write!(f, "endorsements"),
        }
    }
}

/// Errors returned by the gateway's admission and serving paths.
#[derive(Debug, Clone, PartialEq)]
pub enum GatewayError {
    /// The named tenant is not enrolled.
    UnknownTenant(String),
    /// Two tenants were enrolled under the same name.
    DuplicateTenant(String),
    /// No session with this id exists.
    UnknownSession(u64),
    /// The tenant has no pool slot with this index.
    UnknownSlot {
        /// The tenant whose pool was addressed.
        tenant: String,
        /// The out-of-range slot index.
        slot: usize,
    },
    /// The session exists but its handshake has not completed.
    SessionNotEstablished(u64),
    /// The session's handshake already completed.
    SessionAlreadyEstablished(u64),
    /// The slot's queue is full; the caller should back off and retry.
    Backpressure {
        /// Owning tenant — the gateway's interned label (an `Arc<str>`
        /// clone), so the throttle/backpressure rejection path never
        /// allocates a fresh `String` per rejected request.
        tenant: Arc<str>,
        /// The overloaded slot.
        slot: usize,
        /// Its queue depth at rejection time.
        depth: usize,
    },
    /// A per-tenant quota is exhausted.
    QuotaExceeded {
        /// The tenant whose quota tripped (interned label; see
        /// [`GatewayError::Backpressure`]).
        tenant: Arc<str>,
        /// Which limit.
        resource: QuotaResource,
    },
    /// A migration named a target shard outside the configured fleet.
    UnknownShard {
        /// The requested shard index.
        shard: usize,
        /// How many shards the gateway runs.
        shards: usize,
    },
    /// A shard worker thread is gone (the runtime is shutting down or a
    /// worker panicked), so the command could not be served.
    RuntimeUnavailable,
    /// An enclave refused a sealed or AEAD-protected input for this tenant:
    /// a tampered/spliced sealed state blob on the restore path, or an
    /// encrypted mask delivery that failed channel authentication. The
    /// tenant label is the gateway's interned `Arc<str>` (no allocation per
    /// rejection, matching the quota/backpressure errors).
    SealedBlobRejected {
        /// The tenant whose sealed input was rejected.
        tenant: Arc<str>,
    },
    /// A snapshot and the restore-time configuration disagree (different
    /// tenant set, measurement, or pool shape) — restore fails closed before
    /// touching any enclave.
    SnapshotMismatch {
        /// What disagreed.
        reason: &'static str,
    },
    /// Snapshot bytes failed envelope validation (truncation, bit rot,
    /// version skew, malformed payload).
    SnapshotCorrupt(glimmer_wire::WireError),
    /// A delta snapshot chain failed validation: a delta claims a base
    /// epoch/header that does not match the frame it was applied to (splice
    /// or reorder), or the chain has a gap. Restore fails closed before
    /// touching any enclave.
    SnapshotChainBroken {
        /// What broke.
        reason: &'static str,
    },
    /// A quiesce claim was refused because another operation already holds
    /// it. Covers both scopes: the whole-gateway barrier (checkpoint or
    /// shutdown) refused while another holder had it, and a *slot-level*
    /// claim — a capture and a live migration contending for the same
    /// slot, in either order. Interleaving the underlying worker pauses
    /// would deadlock the shard workers (each paused waiting for the other
    /// operation's release), so the loser fails typed and the caller
    /// retries after the winner finishes — except after shutdown, whose
    /// claim is terminal.
    BarrierConflict {
        /// The operation currently holding the barrier.
        in_progress: BarrierOp,
        /// The operation that was refused.
        requested: BarrierOp,
    },
    /// An injected crash fault fired at the given point (test harness only;
    /// the deterministic stand-in for the process dying there).
    CrashInjected(CrashPoint),
    /// An underlying Glimmer/enclave operation failed.
    Glimmer(GlimmerError),
}

impl core::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GatewayError::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            GatewayError::DuplicateTenant(name) => {
                write!(f, "tenant {name:?} enrolled more than once")
            }
            GatewayError::UnknownSession(id) => write!(f, "unknown session {id}"),
            GatewayError::UnknownSlot { tenant, slot } => {
                write!(f, "tenant {tenant:?} has no pool slot {slot}")
            }
            GatewayError::SessionNotEstablished(id) => {
                write!(f, "session {id} has not completed its handshake")
            }
            GatewayError::SessionAlreadyEstablished(id) => {
                write!(f, "session {id} already completed its handshake")
            }
            GatewayError::Backpressure {
                tenant,
                slot,
                depth,
            } => write!(
                f,
                "backpressure: tenant {tenant:?} slot {slot} queue depth {depth}"
            ),
            GatewayError::QuotaExceeded { tenant, resource } => {
                write!(f, "tenant {tenant:?} exceeded its {resource} quota")
            }
            GatewayError::UnknownShard { shard, shards } => {
                write!(f, "no shard {shard} (the fleet runs {shards})")
            }
            GatewayError::RuntimeUnavailable => {
                write!(f, "gateway runtime unavailable (shard worker stopped)")
            }
            GatewayError::SealedBlobRejected { tenant } => {
                write!(f, "enclave rejected sealed input for tenant {tenant:?}")
            }
            GatewayError::SnapshotMismatch { reason } => {
                write!(
                    f,
                    "snapshot does not match the restore configuration: {reason}"
                )
            }
            GatewayError::SnapshotCorrupt(e) => write!(f, "snapshot corrupt: {e}"),
            GatewayError::SnapshotChainBroken { reason } => {
                write!(f, "snapshot delta chain broken: {reason}")
            }
            GatewayError::BarrierConflict {
                in_progress,
                requested,
            } => write!(
                f,
                "cannot {requested}: a {in_progress} already holds the quiesce barrier"
            ),
            GatewayError::CrashInjected(point) => {
                write!(f, "injected crash fault at {point}")
            }
            GatewayError::Glimmer(e) => write!(f, "glimmer error: {e}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<GlimmerError> for GatewayError {
    fn from(e: GlimmerError) -> Self {
        GatewayError::Glimmer(e)
    }
}

/// Result alias for gateway operations.
pub type Result<T> = core::result::Result<T, GatewayError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        for (err, needle) in [
            (
                GatewayError::UnknownTenant("maps".to_string()),
                "unknown tenant",
            ),
            (
                GatewayError::DuplicateTenant("maps".to_string()),
                "more than once",
            ),
            (GatewayError::UnknownSession(7), "unknown session 7"),
            (
                GatewayError::UnknownSlot {
                    tenant: "iot".to_string(),
                    slot: 9,
                },
                "no pool slot 9",
            ),
            (GatewayError::SessionNotEstablished(8), "handshake"),
            (GatewayError::SessionAlreadyEstablished(9), "already"),
            (
                GatewayError::Backpressure {
                    tenant: Arc::from("iot"),
                    slot: 2,
                    depth: 64,
                },
                "backpressure",
            ),
            (
                GatewayError::QuotaExceeded {
                    tenant: Arc::from("iot"),
                    resource: QuotaResource::Endorsements,
                },
                "endorsements",
            ),
            (
                GatewayError::UnknownShard {
                    shard: 4,
                    shards: 2,
                },
                "no shard 4",
            ),
            (GatewayError::RuntimeUnavailable, "runtime unavailable"),
            (
                GatewayError::SealedBlobRejected {
                    tenant: Arc::from("iot"),
                },
                "sealed input",
            ),
            (
                GatewayError::SnapshotMismatch {
                    reason: "tenant set",
                },
                "tenant set",
            ),
            (
                GatewayError::SnapshotCorrupt(glimmer_wire::WireError::BadMagic),
                "snapshot corrupt",
            ),
            (
                GatewayError::SnapshotChainBroken {
                    reason: "gap in delta chain",
                },
                "chain broken",
            ),
            (
                GatewayError::BarrierConflict {
                    in_progress: BarrierOp::Checkpoint,
                    requested: BarrierOp::Shutdown,
                },
                "quiesce barrier",
            ),
            (
                GatewayError::BarrierConflict {
                    in_progress: BarrierOp::Rebalance,
                    requested: BarrierOp::Checkpoint,
                },
                "a rebalance already holds",
            ),
            (
                GatewayError::CrashInjected(CrashPoint::BeforeRestore),
                "injected crash",
            ),
            (
                GatewayError::Glimmer(GlimmerError::NotProvisioned("key")),
                "glimmer error",
            ),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
        for resource in [
            QuotaResource::Sessions,
            QuotaResource::QueuedRequests,
            QuotaResource::Endorsements,
        ] {
            assert!(!resource.to_string().is_empty());
        }
        let from: GatewayError = GlimmerError::Protocol("x").into();
        assert!(matches!(from, GatewayError::Glimmer(_)));
    }
}
