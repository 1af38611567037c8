//! Glimmer Gateway: a sharded, multi-tenant enclave-pool server for
//! glimmer-as-a-service traffic.
//!
//! Section 4.2 of the paper envisions neutral third parties running Glimmers
//! on behalf of TEE-less IoT devices. The single-device
//! [`RemoteGlimmerHost`](glimmer_core::remote::RemoteGlimmerHost) pays the
//! full enclave cost — image build and measurement, attestation
//! provisioning, key installation — for every device it serves, which cannot
//! scale to "glimmer-as-a-service" traffic. This crate is the serving
//! architecture for that traffic:
//!
//! * **Enclave pool** ([`pool`]) — per tenant, a fixed set of
//!   pre-provisioned Glimmer enclaves on independent simulated platforms.
//!   Build + attestation + key provisioning are paid once per slot at
//!   start-up and amortized over every request the slot ever serves.
//! * **Shard-per-core runtime** ([`runtime`](crate::gateway::Gateway)) —
//!   pool slots are distributed round-robin over `GatewayConfig::shards`
//!   worker threads that share no mutable state; the [`Gateway`] handle is
//!   `Send + Sync` with a concurrent `&self` API, and `shards: 1` is a
//!   deterministic mode that reproduces the serial drain order exactly.
//! * **Session table** ([`session`]) — device sessions are pinned to pool
//!   slots with least-loaded sharding; session ids are the routing key and a
//!   tenant-isolation boundary.
//! * **Request batching** ([`gateway`]) — each slot queues encrypted
//!   `ProcessRequest`s and drains them through a single `PROCESS_BATCH`
//!   ECALL per round, so the enclave-transition cost is paid per batch, not
//!   per contribution.
//! * **Admission control** ([`config`], [`error`]) — per-tenant session
//!   quotas, queued-request quotas, endorsement budgets (only successful
//!   endorsements consume them), and per-slot queue-depth backpressure, all
//!   rejected with typed [`GatewayError`]s.
//! * **Stats** ([`stats`]) — per-tenant endorsement/rejection/throttle
//!   counters and per-slot batch sizes, enclave cycles, and wall-clock drain
//!   latency.
//! * **Telemetry** ([`telemetry`]) — a dependency-free observability layer
//!   over the host-side pipeline: lock-free log2 latency histograms
//!   (queue wait, per-ECALL, checkpoint/restore, executor poll/wake),
//!   typed admission accept/reject counters, live per-shard queue-depth
//!   gauges, sampled per-request traces driven by the injected [`Clock`]
//!   (deterministic under [`ManualClock`]), and a bounded rejection
//!   journal — exported as a [`TelemetrySnapshot`] with a Prometheus-style
//!   text rendering. No payload data ever enters telemetry.
//! * **Live rebalancing** ([`rebalance`]) — online slot migration between
//!   shards: a per-slot quiesce (one slot pauses, the fleet keeps serving),
//!   a sealed export at the handoff point, transfer of the live slot —
//!   enclave handle, queued work, gauges — to the least-loaded shard, and
//!   an atomic routing retarget with no lost window. A deterministic
//!   planner plus [`Rebalancer`] watch per-shard queue depths and migrate
//!   when imbalance crosses [`RebalanceConfig`]'s hysteresis band, so a
//!   hot shard is a transient condition, not a permanent one.
//! * **Checkpoint/restore** ([`checkpoint`]) — a crash-safe snapshot of the
//!   whole serving state: per-slot enclave state sealed *by the enclaves*
//!   (MrEnclave policy, snapshot header as AAD), the established-session
//!   table, and quota counters, in a CRC-guarded versioned envelope.
//!   [`Gateway::restore_chain`] resumes serving after a crash with one
//!   `IMPORT_STATE` ECALL per slot — no re-provisioning, no device
//!   re-handshakes — and every tampered, spliced, or mismatched snapshot
//!   fails closed with a typed error, proven by a deterministic
//!   crash-fault-injection matrix over every [`CrashPoint`].
//!
//! The gateway is untrusted, exactly like the paper's remote host: devices
//! authenticate the pooled Glimmers through remote attestation, traffic is
//! end-to-end encrypted between device and enclave, blinding masks can be
//! delivered sealed under the tenant's own attested channel to each slot
//! ([`Gateway::tenant_channel_offer`] + [`Gateway::install_mask_encrypted`];
//! the plaintext [`Gateway::install_mask`] is for tenants operating their
//! own gateway), and the only per-request fact the gateway learns is the
//! public one-bit endorsed/failed outcome it needs for quota accounting.

// `deny`, not `forbid`: the raw `epoll`/`eventfd` syscalls behind the
// socket front door's reactor ([`net`]) are necessarily `unsafe` and carry
// scoped `allow`s with their invariants documented; everything else stays
// safe.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod clock;
pub mod config;
pub mod error;
pub mod frontend;
pub mod gateway;
pub mod net;
pub mod pool;
pub mod rebalance;
pub(crate) mod runtime;
pub mod session;
pub mod stats;
pub mod telemetry;

pub use checkpoint::{
    ChainBase, CrashAt, CrashHooks, CrashPoint, GatewayDelta, GatewaySnapshot, NoCrash,
    SessionRecord, SlotSnapshot, SnapshotChain, TenantSnapshot, GATEWAY_DELTA_KIND,
};
pub use clock::{Clock, ManualClock, SystemClock};
pub use config::{GatewayConfig, NetConfig, RebalanceConfig, TenantConfig, TenantQuota};
pub use error::{GatewayError, QuotaResource, Result};
pub use frontend::{AsyncGateway, SessionExecutor, WaitGroup};
pub use gateway::{Gateway, GatewayResponse};
pub use net::{GatewayClient, NetError, ServerHandle};
pub use pool::{PoolSlot, TenantPool};
pub use rebalance::{plan_rebalance, MigrationPlan, MigrationReport, Rebalancer, SlotLoad};
pub use runtime::BarrierOp;
pub use session::{SessionEntry, SessionState, SessionTable};
pub use stats::{GatewayStats, SlotStats, SlotStatsRow, TenantStats};
pub use telemetry::{
    AdmitReason, Histogram, HistogramSnapshot, Telemetry, TelemetryConfig, TelemetryEvent,
    TelemetrySnapshot, TraceSpan, TraceStage,
};
