//! The pre-provisioned enclave pool.
//!
//! Building a Glimmer enclave for one request is what makes the naive
//! glimmer-as-a-service path slow: every device pays image build and
//! measurement (EADD/EEXTEND cycles per page), attestation provisioning, and
//! key installation before its first contribution. A pool slot pays those
//! costs once, at gateway start-up, and then serves an open-ended stream of
//! sessions; the only per-request work left is one share of a batched ECALL.
//!
//! Pools are *construction-time* objects: `TenantPool::new` provisions a
//! tenant's slots on the start-up thread, and the gateway then moves each
//! [`PoolSlot`] into the shard worker that will own it exclusively for the
//! rest of its life (see the crate's `runtime` module). Session-count and queue-depth
//! gauges live in the shared routing layer, not here — a slot only knows its
//! enclave, its queue, and its drain counters.

use crate::config::TenantConfig;
use crate::error::{GatewayError, Result};
use crate::stats::SlotStats;
use crate::telemetry::{Telemetry, TraceStage};
use glimmer_core::host::GlimmerClient;
#[cfg(test)]
use glimmer_core::protocol::BatchReply;
use glimmer_core::protocol::{BatchItem, BatchReplyItem, BatchRequest};
use glimmer_crypto::drbg::Drbg;
use glimmer_wire::Encoder;
use sgx_sim::{AttestationService, Measurement, PlatformConfig};
use std::collections::VecDeque;
use std::time::Instant;

/// Reusable drain buffers, owned by one shard worker and shared across every
/// slot that worker drains. Both buffers are cleared — never reallocated —
/// between sweeps, so the host side of a steady-state drain performs no heap
/// allocation per request: the request encoder stops growing once it has
/// seen the largest batch, and the reply vector keeps its capacity while the
/// decoded outcomes are moved out to the caller.
///
/// Ownership rule: the scratch belongs to the *worker*, not the slot. A slot
/// only borrows it for the duration of one [`PoolSlot::drain_into`] call and
/// leaves its replies inside for the worker to consume (`drain(..)`) before
/// the next slot is drained.
#[derive(Default)]
pub(crate) struct DrainScratch {
    /// Wire encoding of the outgoing `BatchRequest` (reset per sweep).
    request: Encoder,
    /// Decoded reply items (cleared per sweep; capacity kept).
    pub(crate) replies: Vec<BatchReplyItem>,
    /// Trace tags of the drained items, index-aligned with `replies` (0 =
    /// untraced). The worker consumes them alongside the replies to stamp
    /// the `ReplyDelivered` trace stage. Cleared per sweep; capacity kept,
    /// so tracing adds no per-request allocation.
    pub(crate) traces: Vec<u64>,
}

/// A queued request plus the telemetry the gateway attached at admission:
/// the enqueue timestamp (for the queue-wait histogram) and the sampled
/// trace tag (0 for the untraced majority). Worker-internal — the wire
/// [`BatchItem`] is unchanged.
struct Queued {
    item: BatchItem,
    enqueued_at_nanos: u64,
    trace: u64,
}

/// One pre-provisioned enclave and its request queue.
pub struct PoolSlot {
    /// Index within the tenant's pool.
    pub slot_id: usize,
    client: GlimmerClient,
    queue: VecDeque<Queued>,
    stats: SlotStats,
    /// Monotonic host-side dirty-epoch: bumped by the owning shard worker
    /// on every state-mutating command (session open/accept/close, mask
    /// install, channel step, non-empty drain). A delta checkpoint skips
    /// slots whose epoch has not advanced past the base snapshot's. The
    /// worker mirrors the value into the routing layer's
    /// [`crate::runtime::SlotGauges::dirty_epoch`] atomic, which is what
    /// the checkpoint thread actually reads.
    pub(crate) dirty_epoch: u64,
}

/// What one slot restores from — the winning frame of a snapshot chain,
/// borrowed from it (see [`crate::Gateway::restore_chain`]).
pub(crate) struct SlotRestore<'a> {
    pub(crate) slot_id: usize,
    /// The sealing AAD of the frame `sealed_state` came from.
    pub(crate) aad: &'a [u8],
    pub(crate) sealed_state: &'a [u8],
    /// The chain tip's host-side dirty-epoch for the slot.
    pub(crate) dirty_epoch: u64,
    /// The previous incarnation's drain counters, so serving metrics stay
    /// cumulative across the restart.
    pub(crate) stats: &'a SlotStats,
    /// The authoritative live set: the enclave prunes every other session
    /// its sealed export carried.
    pub(crate) live_sessions: &'a [u64],
}

impl PoolSlot {
    fn new(
        slot_id: usize,
        tenant: &TenantConfig,
        platform_config: PlatformConfig,
        rng: &mut Drbg,
        avs: &mut AttestationService,
    ) -> Result<Self> {
        let mut client = GlimmerClient::new(
            tenant.descriptor.clone(),
            platform_config,
            &mut rng.fork(&format!("gateway-slot-{}-{}", tenant.name, slot_id)),
        )
        .map_err(GatewayError::Glimmer)?;
        client.provision_platform(avs);
        client
            .install_service_key(&tenant.service_key_secret)
            .map_err(GatewayError::Glimmer)?;
        Ok(PoolSlot {
            slot_id,
            client,
            queue: VecDeque::new(),
            stats: SlotStats::default(),
            dirty_epoch: 0,
        })
    }

    /// Rebuilds a slot from a checkpoint: the enclave is created exactly as
    /// in [`PoolSlot::new`] — same rng fork label, so the platform's
    /// simulated fuse secrets are those of the original machine — but
    /// instead of the provisioning ECALL sequence (service key install, and
    /// later a handshake pair plus mask installs per session) the serving
    /// state arrives in **one** `IMPORT_STATE` ECALL, unsealed inside the
    /// enclave.
    ///
    /// Fails closed with the glimmer-level unseal rejection (mapped to
    /// [`GatewayError::SealedBlobRejected`] by the caller) when the blob was
    /// tampered with, sealed under a different snapshot header, a different
    /// measurement, or a different platform.
    pub(crate) fn restore(
        tenant: &TenantConfig,
        platform_config: PlatformConfig,
        rng: &mut Drbg,
        avs: &mut AttestationService,
        source: SlotRestore<'_>,
    ) -> Result<Self> {
        let mut client = GlimmerClient::new(
            tenant.descriptor.clone(),
            platform_config,
            &mut rng.fork(&format!("gateway-slot-{}-{}", tenant.name, source.slot_id)),
        )
        .map_err(GatewayError::Glimmer)?;
        client.provision_platform(avs);
        client
            .import_state(source.aad, source.sealed_state, source.live_sessions)
            .map_err(GatewayError::Glimmer)?;
        Ok(PoolSlot {
            slot_id: source.slot_id,
            client,
            queue: VecDeque::new(),
            // Resume the exporting incarnation's dirtiness clock, so the
            // first post-restore delta can still skip slots that stayed
            // idle across the restart.
            dirty_epoch: source.dirty_epoch,
            stats: SlotStats {
                // Transient gauges restart at zero; the queue is empty by
                // construction (in-flight entries are deliberately not
                // persisted) and sessions re-pin via the restored table.
                active_sessions: 0,
                queue_depth: 0,
                ecalls: 0,
                last_drain_queue_depth: 0,
                ..source.stats.clone()
            },
        })
    }

    /// Seals this slot's enclave serving state under `header` (the snapshot
    /// AAD) and returns `(state_epoch, sealed, stats)`. With
    /// `known_state_epoch: None` the export is forced (full checkpoints);
    /// with `Some(epoch)` the enclave skips the seal — returning `None`
    /// for the blob — when its state has not mutated since that epoch
    /// (delta checkpoints racing a concurrent dirty bump).
    pub(crate) fn export_checkpoint(
        &mut self,
        header: &[u8],
        known_state_epoch: Option<u64>,
    ) -> Result<(u64, Option<Vec<u8>>, SlotStats)> {
        let (state_epoch, sealed) = self
            .client
            .export_state_if_newer(header, known_state_epoch)
            .map_err(GatewayError::Glimmer)?;
        Ok((state_epoch, sealed, self.stats()))
    }

    /// The slot's enclave runtime.
    pub fn client_mut(&mut self) -> &mut GlimmerClient {
        &mut self.client
    }

    /// Requests currently queued here.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Appends one admitted item, stamped with the worker's enqueue time
    /// (for the queue-wait histogram) and its trace tag (0 = untraced).
    pub(crate) fn enqueue(&mut self, item: BatchItem, now_nanos: u64, trace: u64) {
        self.queue.push_back(Queued {
            item,
            enqueued_at_nanos: now_nanos,
            trace,
        });
    }

    /// Appends a whole group of admitted items in order (test convenience;
    /// the runtime enqueues `SubmitMany` items one by one as it fans them
    /// out to their slots).
    #[cfg(test)]
    pub(crate) fn enqueue_many(&mut self, items: impl IntoIterator<Item = BatchItem>) {
        self.queue.extend(items.into_iter().map(|item| Queued {
            item,
            enqueued_at_nanos: 0,
            trace: 0,
        }));
    }

    /// Discards queued items belonging to `session_id`; returns how many.
    pub(crate) fn discard_session_items(&mut self, session_id: u64) -> usize {
        let before = self.queue.len();
        self.queue
            .retain(|queued| queued.item.session_id != session_id);
        before - self.queue.len()
    }

    /// Drains up to `max_batch` queued items through the enclave in one
    /// ECALL, leaving the decoded outcomes in `scratch.replies` (cleared
    /// first). Returns the number of items drained, or `None` when the queue
    /// is empty.
    ///
    /// The batch is encoded straight from the queue into the scratch
    /// encoder *without popping*: a whole-batch ECALL failure leaves the
    /// queue untouched (no put-back loop, nothing silently lost), and a
    /// success drops the drained prefix in one `drain` call. Together with
    /// the reusable buffers this makes the steady-state host side of a
    /// sweep allocation-free per request.
    ///
    /// With `telemetry` attached (the hub plus the owning shard's index),
    /// the sweep also records each drained item's queue-wait, the batch
    /// size, and the full encode→enclave→decode latency into that shard's
    /// registries, stamps `DrainStart`/`EcallDone` on traced items, and
    /// leaves the per-item trace tags in `scratch.traces` for the worker's
    /// reply-delivery stamp — all from preallocated structures.
    pub(crate) fn drain_into(
        &mut self,
        max_batch: usize,
        scratch: &mut DrainScratch,
        telemetry: Option<(&Telemetry, usize)>,
    ) -> Result<Option<usize>> {
        if self.queue.is_empty() {
            return Ok(None);
        }
        self.stats.last_drain_queue_depth = self.queue.len();
        // Never exceed the enclave's own batch limit, whatever the config
        // says — an oversized batch would be rejected wholesale.
        let take = self
            .queue
            .len()
            .min(max_batch.clamp(1, glimmer_core::enclave_app::MAX_BATCH_ITEMS));
        let telemetry = telemetry.filter(|(hub, _)| hub.enabled());
        let drain_start = telemetry.map_or(0, |(hub, _)| hub.now_nanos());
        scratch.traces.clear();
        for queued in self.queue.iter().take(take) {
            scratch.traces.push(queued.trace);
            if let Some((hub, shard)) = telemetry {
                hub.record_queue_wait(shard, drain_start.saturating_sub(queued.enqueued_at_nanos));
                hub.trace_stage(queued.trace, TraceStage::DrainStart, drain_start);
            }
        }
        BatchRequest::encode_items_into(
            &mut scratch.request,
            self.queue.iter().take(take).map(|queued| &queued.item),
        );
        let cycles_before = self.client.cost_report().total_cycles;
        let start = Instant::now();
        self.client
            .process_batch_into(scratch.request.as_slice(), &mut scratch.replies)
            .map_err(GatewayError::Glimmer)?;
        let elapsed = start.elapsed();
        let cycles_after = self.client.cost_report().total_cycles;
        if let Some((hub, shard)) = telemetry {
            let ecall_done = hub.now_nanos();
            hub.record_ecall(shard, ecall_done.saturating_sub(drain_start));
            hub.record_batch_size(shard, take as u64);
            for &trace in &scratch.traces {
                hub.trace_stage(trace, TraceStage::EcallDone, ecall_done);
            }
        }
        self.queue.drain(..take);
        let n = take as u64;
        self.stats.batches += 1;
        self.stats.items += n;
        self.stats.max_batch = self.stats.max_batch.max(n);
        self.stats.drain_cycles += cycles_after - cycles_before;
        self.stats.drain_nanos += elapsed.as_nanos() as u64;
        Ok(Some(take))
    }

    /// [`PoolSlot::drain_into`] with one-shot buffers: allocates a fresh
    /// scratch per call, so it is test-only — the shard workers always use
    /// the reusable-scratch path.
    #[cfg(test)]
    pub(crate) fn drain(&mut self, max_batch: usize) -> Result<Option<BatchReply>> {
        let mut scratch = DrainScratch::default();
        Ok(self
            .drain_into(max_batch, &mut scratch, None)?
            .map(|_| BatchReply {
                items: std::mem::take(&mut scratch.replies),
            }))
    }

    /// Snapshot of this slot's drain counters. The routing-layer gauges
    /// (active sessions) are filled in by the shard worker that owns the
    /// slot; `queue_depth` reflects the worker-local queue.
    #[must_use]
    pub fn stats(&self) -> SlotStats {
        let mut stats = self.stats.clone();
        stats.queue_depth = self.queue.len();
        stats.ecalls = self.client.cost_report().ecalls;
        stats
    }
}

/// A tenant's freshly provisioned pool: its published measurement plus the
/// slots the runtime will distribute across shard workers.
pub struct TenantPool {
    pub(crate) measurement: Measurement,
    pub(crate) slots: Vec<PoolSlot>,
}

impl TenantPool {
    pub(crate) fn new(
        config: &TenantConfig,
        slots_per_tenant: usize,
        platform_config: &PlatformConfig,
        rng: &mut Drbg,
        avs: &mut AttestationService,
    ) -> Result<Self> {
        let measurement = config.descriptor.measurement();
        let mut slots = Vec::with_capacity(slots_per_tenant);
        for slot_id in 0..slots_per_tenant.max(1) {
            slots.push(PoolSlot::new(
                slot_id,
                config,
                platform_config.clone(),
                rng,
                avs,
            )?);
        }
        Ok(TenantPool { measurement, slots })
    }

    /// The measurement devices must verify through attestation.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Number of provisioned slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always false: a pool provisions at least one slot.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimmer_core::host::GlimmerDescriptor;
    use glimmer_core::signing::ServiceKeyMaterial;

    fn pool(slots: usize) -> TenantPool {
        let mut rng = Drbg::from_seed([41u8; 32]);
        let mut avs = AttestationService::new([42u8; 32]);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let config = TenantConfig::new(
            "iot-telemetry.example",
            GlimmerDescriptor::iot_default(Vec::new()),
            material.secret_bytes(),
        );
        TenantPool::new(
            &config,
            slots,
            &PlatformConfig::default(),
            &mut rng,
            &mut avs,
        )
        .unwrap()
    }

    #[test]
    fn slots_are_preprovisioned_and_isolated_platforms() {
        let mut p = pool(3);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        let ids: Vec<_> = p.slots.iter().map(|s| s.client.platform().id()).collect();
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[2]);
        for slot in &mut p.slots {
            // Key already installed, platform provisioned for attestation.
            assert!(slot.client_mut().status().unwrap().signing_key);
            assert!(slot.client_mut().platform().is_provisioned());
        }
        // All slots share the tenant measurement.
        assert_eq!(
            p.measurement(),
            GlimmerDescriptor::iot_default(Vec::new()).measurement()
        );
    }

    #[test]
    fn queueing_and_discard() {
        let mut p = pool(1);
        let slot = &mut p.slots[0];
        slot.enqueue(
            BatchItem {
                session_id: 1,
                ciphertext: vec![],
            },
            0,
            0,
        );
        slot.enqueue(
            BatchItem {
                session_id: 2,
                ciphertext: vec![],
            },
            0,
            0,
        );
        assert_eq!(slot.queue_depth(), 2);
        assert_eq!(slot.discard_session_items(1), 1);
        assert_eq!(slot.queue_depth(), 1);
        assert_eq!(slot.stats().queue_depth, 1);
    }

    #[test]
    fn drain_on_empty_queue_is_none() {
        let mut p = pool(1);
        assert!(p.slots[0].drain(16).unwrap().is_none());
        let stats = p.slots[0].stats();
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn enqueue_many_preserves_order_and_drain_into_reuses_the_scratch() {
        let mut p = pool(1);
        let slot = &mut p.slots[0];
        slot.enqueue_many((0..5u64).map(|session_id| BatchItem {
            session_id,
            ciphertext: vec![0u8; 16],
        }));
        assert_eq!(slot.queue_depth(), 5);

        let mut scratch = DrainScratch::default();
        // First sweep: three of five items, outcomes in arrival order.
        assert_eq!(slot.drain_into(3, &mut scratch, None).unwrap(), Some(3));
        let first: Vec<u64> = scratch.replies.iter().map(|r| r.session_id).collect();
        assert_eq!(first, vec![0, 1, 2]);
        assert_eq!(slot.queue_depth(), 2);
        let request_capacity = scratch.request.capacity();
        assert!(request_capacity > 0);

        // Second sweep reuses both buffers: the smaller batch replaces the
        // replies (no stale items) and fits the grown request buffer.
        assert_eq!(slot.drain_into(3, &mut scratch, None).unwrap(), Some(2));
        let second: Vec<u64> = scratch.replies.iter().map(|r| r.session_id).collect();
        assert_eq!(second, vec![3, 4]);
        assert_eq!(scratch.request.capacity(), request_capacity);
        assert_eq!(slot.queue_depth(), 0);
        assert_eq!(slot.drain_into(3, &mut scratch, None).unwrap(), None);
        assert_eq!(slot.stats().batches, 2);
        assert_eq!(slot.stats().items, 5);
    }
}
