//! Gateway and tenant configuration.

use crate::checkpoint::{CrashHooks, NoCrash};
use crate::clock::{Clock, SystemClock};
use crate::telemetry::TelemetryConfig;
use glimmer_core::host::GlimmerDescriptor;
use sgx_sim::PlatformConfig;
use std::sync::Arc;
use std::time::Duration;

/// Limits a tenant buys when it enrolls with the gateway.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Most concurrent device sessions (pending + established).
    pub max_sessions: usize,
    /// Most requests queued across the tenant's pool slots at once.
    pub max_queued: usize,
    /// Endorsement budget: total endorsements the tenant will accept from
    /// this gateway, or `None` for unlimited. Only *successful* endorsements
    /// consume it — a rejected (poisoned, out-of-range, maskless)
    /// contribution never does.
    pub endorsement_budget: Option<u64>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_sessions: 1024,
            max_queued: 4096,
            endorsement_budget: None,
        }
    }
}

/// One tenant of the gateway: a service whose vetted Glimmer the pool runs on
/// behalf of TEE-less devices.
#[derive(Clone)]
pub struct TenantConfig {
    /// Tenant key; by convention the service's application id.
    pub name: String,
    /// The tenant's published, vetted Glimmer build. Its measurement is what
    /// connecting devices verify through attestation, so two tenants can
    /// never share an enclave unless their descriptors are identical.
    pub descriptor: GlimmerDescriptor,
    /// Secret endorsement-signing key material, installed into every pool
    /// slot at provisioning time.
    pub service_key_secret: Vec<u8>,
    /// Admission-control limits for this tenant.
    pub quota: TenantQuota,
}

impl TenantConfig {
    /// Convenience constructor with default quotas.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        descriptor: GlimmerDescriptor,
        service_key_secret: Vec<u8>,
    ) -> Self {
        TenantConfig {
            name: name.into(),
            descriptor,
            service_key_secret,
            quota: TenantQuota::default(),
        }
    }
}

/// Gateway-wide construction parameters.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Pre-provisioned enclave slots per tenant (the pool width).
    pub slots_per_tenant: usize,
    /// Shard-per-core worker threads. Every pool slot is owned by exactly
    /// one shard (round-robin across tenants' slots), each shard drains its
    /// slots on its own thread, and shards share no mutable state.
    ///
    /// `1` (the default) is the deterministic single-shard mode: one worker
    /// drains every slot in tenant-name/slot order, exactly like the
    /// pre-runtime gateway, so experiment cycle counts stay reproducible.
    /// Values above the slot total waste nothing — surplus shards just own
    /// zero slots. `0` is treated as 1.
    pub shards: usize,
    /// Most items drained through one enclave in a single `PROCESS_BATCH`
    /// transition.
    pub max_batch: usize,
    /// Most requests queued on one slot before submits are rejected with
    /// backpressure.
    pub max_queue_depth: usize,
    /// Platform parameters for every pool slot.
    pub platform_config: PlatformConfig,
    /// Observability knobs: metrics, trace sampling, and the rejection
    /// journal (see [`crate::telemetry`]). Enabled by default — the
    /// recording paths are allocation-free and add only relaxed atomics to
    /// the hot path (the E16 experiment holds the bar at under 5%
    /// overhead).
    pub telemetry: TelemetryConfig,
    /// Age at which a still-pending handshake counts as abandoned for
    /// [`Gateway::evict_stale_pending`](crate::Gateway::evict_stale_pending)
    /// and for the front door's periodic eviction sweep.
    pub stale_pending_after: Duration,
    /// How often the socket front door sweeps
    /// [`Gateway::evict_stale_pending`](crate::Gateway::evict_stale_pending)
    /// on an executor timer. `None` disables the sweep (an operator then owns
    /// eviction); defaults on, because an unswept network gateway leaks a
    /// session-quota unit for every handshake a device abandons. Drivers
    /// without the front door (in-process experiments, tests) are
    /// unaffected — the sweeper task only exists inside `net::serve`.
    pub evict_stale_period: Option<Duration>,
    /// Socket front-door parameters (framing limits, idle deadline, drain
    /// cadence). Only read by [`net::serve`](crate::net::serve); a gateway
    /// driven purely in-process never touches them.
    pub net: NetConfig,
    /// Live-rebalancing knobs for the [`crate::rebalance::Rebalancer`].
    /// Only read by an operator-driven `Rebalancer` loop; the gateway
    /// itself never migrates a slot unprompted.
    pub rebalance: RebalanceConfig,
    /// The time source behind every time-dependent decision: stale-pending
    /// eviction, session, trace and checkpoint stamps, and the front door's
    /// executor timers. Defaults to a [`SystemClock`]; deterministic tests
    /// install a [`ManualClock`](crate::ManualClock) and keep an `Arc` of it
    /// to advance. A restore handed this config reads the same clock.
    pub clock: Arc<dyn Clock>,
    /// The crash-fault plan, asked at every labelled
    /// [`CrashPoint`](crate::CrashPoint) on the checkpoint, restore and
    /// migration paths (never on the serving path). Defaults to the no-op
    /// [`NoCrash`]; the fault matrices install a
    /// [`CrashAt`](crate::CrashAt), keep an `Arc` of it, and arm it between
    /// steps. The shard workers reach it through the gateway's shared state.
    pub crash_hooks: Arc<dyn CrashHooks>,
}

/// Knobs for the [`crate::rebalance::Rebalancer`]'s migration planner.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Smallest queued-work gap between the most- and least-loaded shards
    /// that justifies moving a slot. Below this the fleet counts as
    /// balanced and [`crate::rebalance::plan_rebalance`] returns no plan —
    /// this is the hysteresis band that keeps a near-balanced fleet from
    /// oscillating slots back and forth.
    pub min_imbalance: u64,
    /// Planner ticks a [`crate::rebalance::Rebalancer`] sits out after
    /// executing a migration, letting the moved queue drain before the
    /// next imbalance reading is trusted. `0` re-plans every tick.
    pub cooldown_ticks: u32,
    /// Most migrations one [`crate::rebalance::Rebalancer::tick`] will
    /// execute. One (the default) is the conservative choice: each
    /// migration changes the load picture the next plan should see.
    pub max_moves_per_tick: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            min_imbalance: 64,
            cooldown_ticks: 2,
            max_moves_per_tick: 1,
        }
    }
}

/// Socket front-door parameters (see [`crate::net`]).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address [`net::serve`](crate::net::serve) binds its listener to.
    /// Defaults to an ephemeral loopback port (`127.0.0.1:0`); read the
    /// bound address back from
    /// [`ServerHandle::addr`](crate::net::ServerHandle::addr).
    pub bind_addr: String,
    /// Largest accepted frame (length-prefix bound) in bytes. A peer
    /// announcing more is cut off with a typed error before any allocation
    /// of that size happens.
    pub max_frame_len: usize,
    /// Close a connection that has been silent (no complete frame in either
    /// direction) this long, measured on the executor clock. `None` trusts
    /// clients to hang up; the default does not.
    pub idle_timeout: Option<Duration>,
    /// Cadence of the server's periodic reply drain, measured on the
    /// executor clock from the start of one sweep to the start of the
    /// next. A sweep that takes longer than the interval is followed at
    /// once by exactly one sweep: the ticks it overran are skipped, not
    /// replayed. `None` drains only on explicit client `Drain` requests —
    /// the deterministic mode E19's bit-identical comparison uses.
    pub drain_interval: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            max_frame_len: 1 << 20,
            idle_timeout: Some(Duration::from_secs(60)),
            drain_interval: Some(Duration::from_millis(1)),
        }
    }
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            slots_per_tenant: 4,
            shards: 1,
            max_batch: 256,
            max_queue_depth: 1024,
            platform_config: PlatformConfig::default(),
            telemetry: TelemetryConfig::default(),
            stale_pending_after: Duration::from_secs(30),
            evict_stale_period: Some(Duration::from_secs(5)),
            net: NetConfig::default(),
            rebalance: RebalanceConfig::default(),
            clock: Arc::new(SystemClock::new()),
            crash_hooks: Arc::new(NoCrash),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_serving_friendly() {
        let config = GatewayConfig::default();
        assert!(config.slots_per_tenant >= 1);
        // The default shard count is the deterministic single-shard mode.
        assert_eq!(config.shards, 1);
        assert!(config.max_batch >= 1);
        assert!(config.max_queue_depth >= config.max_batch);
        // Production never crashes on purpose.
        assert!(crate::CrashPoint::ALL
            .into_iter()
            .all(|point| !config.crash_hooks.reached(point)));
        // Telemetry ships on, with sampled (not exhaustive) tracing.
        assert!(config.telemetry.enabled);
        assert!(config.telemetry.trace_sample_interval > 1);
        // The front door evicts abandoned handshakes by default — a
        // network gateway that never sweeps leaks quota forever — and the
        // sweep period must lap the staleness age, or every sweep would be
        // a no-op.
        let period = config.evict_stale_period.expect("eviction defaults on");
        assert!(period < config.stale_pending_after);
        // Idle connections are dropped by default, and the frame bound
        // comfortably fits a max_batch submit group.
        assert!(config.net.idle_timeout.is_some());
        assert!(config.net.max_frame_len >= 64 * 1024);
        assert!(config.net.drain_interval.is_some());
        // Rebalancing needs a real hysteresis band (a zero threshold would
        // migrate on every one-request ripple) and moves conservatively.
        assert!(config.rebalance.min_imbalance > 0);
        assert!(config.rebalance.cooldown_ticks >= 1);
        assert_eq!(config.rebalance.max_moves_per_tick, 1);

        let quota = TenantQuota::default();
        assert!(quota.endorsement_budget.is_none());
        assert!(quota.max_sessions > 0);

        let tenant = TenantConfig::new(
            "iot-telemetry.example",
            GlimmerDescriptor::iot_default(Vec::new()),
            vec![1, 2, 3],
        );
        assert_eq!(tenant.name, "iot-telemetry.example");
        assert_eq!(tenant.quota.max_queued, 4096);
    }
}
