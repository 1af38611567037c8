//! The shard-per-core runtime: shared-nothing worker threads that own the
//! enclave slots.
//!
//! # Ownership model
//!
//! The gateway's construction thread provisions every tenant's pool slots,
//! then distributes them **round-robin** over `GatewayConfig::shards` worker
//! threads. From that moment on, each slot — its enclave, its request
//! queue, its drain counters — is touched by exactly one thread, ever.
//! There are no locks on the serving path; the only cross-thread state is:
//!
//! * per-shard mpsc **command queues** (the only way work reaches a shard),
//! * **atomic gauges** (per-slot session/queue depth) and **atomic tenant
//!   counters**, which admission control reads and both sides update, and
//! * the session table (a mutex the routing layer holds for microseconds;
//!   workers never take it).
//!
//! # Commands
//!
//! The worker loop knows six [`ShardCommand`]s. Control work arrives as a
//! closure: [`ShardCommand::OnSlot`] for one slot (forwarded by a
//! tombstone when the slot has migrated away) and [`ShardCommand::OnShard`]
//! for the whole shard. What each closure does — an enclave call, an export
//! barrier, a migration handoff, a stats read — is written in `gateway.rs`
//! beside the verb that sends it. The data plane (`SubmitMany`, `Drain`),
//! the slot import (`MigrateIn`) and `Shutdown` stay typed; the enum's doc
//! says why.
//!
//! # Ordering guarantees
//!
//! A shard's command queue is FIFO, so everything the routing layer sent
//! before a `Drain` command is in the slot queues by the time the drain
//! runs: a single-threaded caller that submits then drains always gets its
//! items back, shard count notwithstanding. Replies to a gateway-wide drain
//! are aggregated in shard order, and each shard walks its slots in global
//! (tenant-name, slot-id) order — with `shards: 1` this reproduces the
//! pre-runtime gateway's serial drain order exactly, which is what keeps
//! E11's deterministic cycle metric stable.

use crate::config::{GatewayConfig, TenantQuota};
use crate::error::{GatewayError, Result};
use crate::frontend::completion::Completer;
use crate::gateway::GatewayResponse;
use crate::pool::{DrainScratch, PoolSlot};
use crate::session::SessionTable;
use crate::stats::TenantStats;
use crate::telemetry::{Telemetry, TraceStage};
use glimmer_core::protocol::{BatchItem, BatchOutcome};
use sgx_sim::Measurement;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

/// Routing-layer gauges for one slot. The routing side increments them as it
/// admits work; the owning worker decrements them as work leaves its queue.
#[derive(Default)]
pub(crate) struct SlotGauges {
    pub(crate) active_sessions: AtomicUsize,
    pub(crate) queue_depth: AtomicUsize,
    /// Mirror of the slot's host-side dirty-epoch
    /// ([`PoolSlot::dirty_epoch`]), written only by the owning worker.
    /// The delta-checkpoint path reads it to decide — without pausing the
    /// worker — whether a slot mutated since the base snapshot.
    pub(crate) dirty_epoch: AtomicU64,
    /// Who currently holds this *slot's* quiesce claim (encoded
    /// [`BarrierOp`], or [`BARRIER_IDLE`]). Slot-scoped operations — a
    /// capture's per-slot export barrier, a live migration — claim the
    /// slot instead of the whole fleet, so they can overlap on different
    /// slots; two of them contending on one slot would interleave per-slot
    /// barriers on the same worker (or move the slot out from under an
    /// in-flight export), so the loser of the CAS gets a typed
    /// [`GatewayError::BarrierConflict`].
    pub(crate) claim: AtomicU8,
}

/// Atomic per-tenant counters; snapshotted into [`TenantStats`] on read.
#[derive(Default)]
pub(crate) struct TenantCounters {
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) sessions_closed: AtomicU64,
    pub(crate) submitted: AtomicU64,
    pub(crate) endorsed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) throttled: AtomicU64,
    pub(crate) dropped: AtomicU64,
}

impl TenantCounters {
    /// Rebuilds counters from a checkpointed snapshot (the restore path);
    /// in particular `endorsed` must survive restarts or endorsement
    /// budgets would reset on every crash.
    pub(crate) fn from_stats(stats: &TenantStats) -> Self {
        TenantCounters {
            sessions_opened: AtomicU64::new(stats.sessions_opened),
            sessions_closed: AtomicU64::new(stats.sessions_closed),
            submitted: AtomicU64::new(stats.submitted),
            endorsed: AtomicU64::new(stats.endorsed),
            rejected: AtomicU64::new(stats.rejected),
            failed: AtomicU64::new(stats.failed),
            throttled: AtomicU64::new(stats.throttled),
            dropped: AtomicU64::new(stats.dropped),
        }
    }

    pub(crate) fn snapshot(&self) -> TenantStats {
        TenantStats {
            sessions_opened: self.sessions_opened.load(Ordering::SeqCst),
            sessions_closed: self.sessions_closed.load(Ordering::SeqCst),
            submitted: self.submitted.load(Ordering::SeqCst),
            endorsed: self.endorsed.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            failed: self.failed.load(Ordering::SeqCst),
            throttled: self.throttled.load(Ordering::SeqCst),
            dropped: self.dropped.load(Ordering::SeqCst),
        }
    }
}

/// Where one slot lives — which shard owns it and at which worker-local
/// index — plus the shared gauges. The location is **dynamic**: migration
/// retargets it with one atomic store, and every routing site reads the
/// `(shard, worker_idx)` pair in one load, so a router can never observe a
/// torn half-updated pair. A *stale* (but consistent) pair is still safe:
/// worker-local indices are never reused, so the pair addresses either the
/// live slot or its tombstone, and tombstoned commands are forwarded to the
/// location current at serve time.
pub(crate) struct SlotInfo {
    /// Packed `(shard << 32) | worker_idx`.
    location: AtomicU64,
    pub(crate) gauges: Arc<SlotGauges>,
}

impl SlotInfo {
    pub(crate) fn new(shard: usize, worker_idx: usize, gauges: Arc<SlotGauges>) -> Self {
        SlotInfo {
            location: AtomicU64::new(Self::pack(shard, worker_idx)),
            gauges,
        }
    }

    fn pack(shard: usize, worker_idx: usize) -> u64 {
        debug_assert!(shard <= u32::MAX as usize && worker_idx <= u32::MAX as usize);
        ((shard as u64) << 32) | worker_idx as u64
    }

    /// The slot's current `(shard, worker-local index)`, as one consistent
    /// pair.
    pub(crate) fn location(&self) -> (usize, usize) {
        let packed = self.location.load(Ordering::SeqCst);
        ((packed >> 32) as usize, (packed & 0xFFFF_FFFF) as usize)
    }

    /// Commits a migration's new home. The coordinator stores this while the
    /// source worker is still paused at its handoff barrier, so by the time
    /// any stray command reaches the tombstone, the forward target is
    /// already the new owner.
    pub(crate) fn set_location(&self, shard: usize, worker_idx: usize) {
        self.location
            .store(Self::pack(shard, worker_idx), Ordering::SeqCst);
    }

    /// Convenience for read paths that only need the owning shard.
    pub(crate) fn shard(&self) -> usize {
        self.location().0
    }
}

/// Immutable tenant metadata plus its shared counters.
pub(crate) struct TenantMeta {
    pub(crate) name: Arc<str>,
    pub(crate) quota: TenantQuota,
    pub(crate) measurement: Measurement,
    pub(crate) counters: TenantCounters,
    /// Live sessions (pending + established) — the session-quota gauge.
    pub(crate) live_sessions: AtomicUsize,
    /// Requests queued across the tenant's slots — the queued-quota gauge.
    pub(crate) queued: AtomicUsize,
    pub(crate) slots: Vec<SlotInfo>,
}

/// State shared between the routing layer and every shard worker.
pub(crate) struct Shared {
    pub(crate) config: GatewayConfig,
    /// Tenants in deterministic (name) order; `tenant_idx` indexes here.
    pub(crate) tenants: Vec<TenantMeta>,
    pub(crate) table: Mutex<SessionTable>,
    /// `SubmitMany` commands pushed onto shard queues by the admission
    /// path (one per call per shard) — the E13 batching metric.
    pub(crate) submit_commands: AtomicU64,
    /// Checkpoint sequence counter: each checkpoint takes the next epoch,
    /// which is folded into the snapshot header every sealed slot export is
    /// AAD-bound to. Restored gateways resume from the snapshot's epoch.
    pub(crate) checkpoint_epoch: AtomicU64,
    /// Who currently holds the whole-gateway barrier (encoded
    /// [`BarrierOp`], or [`BARRIER_IDLE`]). It is mutual exclusion, not a
    /// pause: one capture at a time (two would race for the same epoch
    /// sequence and slot claims), and no capture or migration once a
    /// shutdown has begun stopping the workers. The loser of this CAS gets
    /// a typed [`GatewayError::BarrierConflict`].
    pub(crate) barrier: AtomicU8,
    /// The observability hub ([`crate::telemetry`]): admission counters on
    /// the routing side, per-shard histogram registries written only by the
    /// owning worker, the sampled trace ring, and the rejection journal.
    pub(crate) telemetry: Arc<Telemetry>,
    /// Serializes migration coordinators. Two concurrent migrations in
    /// opposite directions would deadlock (each source worker pauses at its
    /// handoff barrier while the other migration's import waits on it), so
    /// the second coordinator queues here instead. Held only for the
    /// microseconds one slot handoff takes; never taken by workers.
    pub(crate) migration: Mutex<()>,
}

/// [`Shared::barrier`] (and [`SlotGauges::claim`]) value when no quiescing
/// operation holds the claim.
pub(crate) const BARRIER_IDLE: u8 = 0;

/// An operation that claims the gateway-wide barrier word (checkpoint,
/// shutdown) or one slot's claim byte (a capture's per-slot export,
/// rebalancing). Two claims can never overlap on the same scope; see
/// [`GatewayError::BarrierConflict`](crate::GatewayError::BarrierConflict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierOp {
    /// [`Gateway::checkpoint`](crate::Gateway::checkpoint) or
    /// [`Gateway::checkpoint_delta`](crate::Gateway::checkpoint_delta) is
    /// capturing: it holds the fleet claim for the whole capture, plus a
    /// per-slot claim around each slot's export barrier.
    Checkpoint,
    /// [`Gateway::shutdown`](crate::Gateway::shutdown) is draining in-flight
    /// work before stopping the workers. Terminal: once entered, the barrier
    /// is never released.
    Shutdown,
    /// [`Gateway::migrate_slot`](crate::Gateway::migrate_slot) is moving one
    /// slot to another shard; the claim is slot-scoped, so serving and
    /// migrations of other slots continue.
    Rebalance,
}

impl BarrierOp {
    fn encode(self) -> u8 {
        match self {
            BarrierOp::Checkpoint => 1,
            BarrierOp::Shutdown => 2,
            BarrierOp::Rebalance => 3,
        }
    }

    pub(crate) fn decode(value: u8) -> Option<Self> {
        match value {
            1 => Some(BarrierOp::Checkpoint),
            2 => Some(BarrierOp::Shutdown),
            3 => Some(BarrierOp::Rebalance),
            _ => None,
        }
    }
}

impl core::fmt::Display for BarrierOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BarrierOp::Checkpoint => write!(f, "checkpoint"),
            BarrierOp::Shutdown => write!(f, "shutdown"),
            BarrierOp::Rebalance => write!(f, "rebalance"),
        }
    }
}

/// Holds the gateway-wide barrier for one capture; releasing is automatic
/// (including on error paths), which is what guarantees a failed checkpoint
/// never wedges later checkpoints or shutdown. Shutdown
/// [`persist`](BarrierGuard::persist)s its guard: its claim is terminal by
/// design.
pub(crate) struct BarrierGuard<'a> {
    shared: &'a Shared,
}

impl<'a> BarrierGuard<'a> {
    /// Claims the barrier for `requested`, failing typed when another
    /// whole-gateway operation already holds it.
    pub(crate) fn acquire(shared: &'a Shared, requested: BarrierOp) -> Result<Self> {
        match shared.barrier.compare_exchange(
            BARRIER_IDLE,
            requested.encode(),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => Ok(BarrierGuard { shared }),
            Err(current) => Err(GatewayError::BarrierConflict {
                in_progress: BarrierOp::decode(current)
                    .expect("non-idle barrier always holds an encoded op"),
                requested,
            }),
        }
    }

    /// Makes the claim permanent (the shutdown path): the barrier is never
    /// released, so any later checkpoint attempt fails typed instead of
    /// trying to pause workers that are on their way down.
    pub(crate) fn persist(self) {
        std::mem::forget(self);
    }
}

impl Drop for BarrierGuard<'_> {
    fn drop(&mut self) {
        self.shared.barrier.store(BARRIER_IDLE, Ordering::SeqCst);
    }
}

/// Holds one slot's claim byte ([`SlotGauges::claim`]) for a slot-scoped
/// quiesce: a capture's per-slot export or a live migration. Release is
/// automatic (including on every error path), mirroring [`BarrierGuard`].
/// Claims compose with the fleet barrier in one direction each way: a
/// capture takes the fleet barrier first and then claims each slot it
/// exports, and a migration claims its slot first and then verifies the
/// fleet barrier is idle — with seqcst ordering on both sides, at least one
/// of two racing claimants observes the other.
pub(crate) struct SlotClaim<'a> {
    gauges: &'a SlotGauges,
}

impl<'a> SlotClaim<'a> {
    /// Claims `gauges.claim` for `requested`, failing typed when another
    /// slot-scoped operation already holds this slot.
    pub(crate) fn acquire(gauges: &'a SlotGauges, requested: BarrierOp) -> Result<Self> {
        match gauges.claim.compare_exchange(
            BARRIER_IDLE,
            requested.encode(),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => Ok(SlotClaim { gauges }),
            Err(current) => Err(GatewayError::BarrierConflict {
                in_progress: BarrierOp::decode(current)
                    .expect("non-idle slot claim always holds an encoded op"),
                requested,
            }),
        }
    }
}

impl Drop for SlotClaim<'_> {
    fn drop(&mut self) {
        self.gauges.claim.store(BARRIER_IDLE, Ordering::SeqCst);
    }
}

impl Shared {
    pub(crate) fn tenant_idx(&self, name: &str) -> Result<usize> {
        // `tenants` is sorted by name at construction; use it.
        self.tenants
            .binary_search_by(|t| (*t.name).cmp(name))
            .map_err(|_| GatewayError::UnknownTenant(name.to_string()))
    }
}

/// What a shard reports back from one drain sweep over its slots.
pub(crate) struct ShardDrainReport {
    pub(crate) responses: Vec<GatewayResponse>,
    pub(crate) first_error: Option<GatewayError>,
}

/// A control operation on one slot: the slot's owning worker runs it with
/// the slot's worker-local index. Its body, reply included, is written
/// beside the `Gateway` verb that sends it.
pub(crate) type SlotOp = Box<dyn FnOnce(&mut ShardWorker, usize) + Send>;

/// A control operation on a whole shard, run by its worker.
pub(crate) type ShardOp = Box<dyn FnOnce(&mut ShardWorker) + Send>;

/// Commands a shard worker serves, in FIFO order. The control plane is two
/// closure commands, [`OnSlot`](ShardCommand::OnSlot) and
/// [`OnShard`](ShardCommand::OnShard); four stay typed, each for a reason:
///
/// * [`SubmitMany`](ShardCommand::SubmitMany) and
///   [`Drain`](ShardCommand::Drain) are the data plane. Typed, they cost no
///   boxed closure per admission or per sweep.
/// * [`MigrateIn`](ShardCommand::MigrateIn) carries a live slot. When its
///   send fails, the channel hands the command back, and with it the slot,
///   which the migration then returns to its source shard. A closure that
///   captured the slot could not be opened to give it back.
/// * [`Shutdown`](ShardCommand::Shutdown) ends the loop.
pub(crate) enum ShardCommand {
    /// Runs `op` on the worker that owns the slot at worker-local index
    /// `slot`. When the slot has migrated away, the worker forwards the
    /// command to the slot's current home with `slot` rewritten, and the
    /// op's completer travels with it.
    OnSlot {
        slot: usize,
        op: SlotOp,
    },
    /// Runs `op` on this worker: stats collection, and the fence a
    /// migration sends its source shard. The queue is FIFO, so a fence's
    /// reply proves every command sent before it has been served.
    OnShard {
        op: ShardOp,
    },
    /// Fire-and-forget admission (gauges were already bumped by the routing
    /// layer): one command carries every already-reserved item this shard
    /// receives from one `submit` / `submit_many` / `submit_batch` call —
    /// channel and atomic traffic are paid per call, not per request. Items
    /// are `(worker-local slot, item, trace-tag)` triples in arrival order
    /// (one flat vector, so the whole command costs one allocation however
    /// many requests it carries; the tag is 0 for the untraced majority,
    /// see [`crate::telemetry`]); the worker fans them out to their slot
    /// queues, which preserves per-slot arrival order.
    SubmitMany {
        items: Vec<(usize, BatchItem, u64)>,
    },
    Drain {
        reply: Completer<ShardDrainReport>,
    },
    /// Installs a migrated slot at the end of this worker's slot vector and
    /// replies with its new worker-local index. In-flight queue entries
    /// travel inside the slot and replay on this worker's next drain sweep.
    MigrateIn {
        worker: Box<WorkerSlot>,
        reply: Completer<usize>,
    },
    Shutdown,
}

/// One slot as owned by its shard worker.
pub(crate) struct WorkerSlot {
    pub(crate) tenant_idx: usize,
    pub(crate) slot: PoolSlot,
    pub(crate) gauges: Arc<SlotGauges>,
}

impl WorkerSlot {
    /// Advances the slot's dirty-epoch and mirrors it into the shared gauge
    /// the delta-checkpoint path reads. Called by the owning worker on
    /// every state-mutating command, *before* the command runs — bumping
    /// on failures too over-approximates dirtiness, which at worst costs
    /// one redundant export (never a silently skipped one).
    pub(crate) fn mark_dirty(&mut self) {
        self.slot.dirty_epoch += 1;
        self.gauges
            .dirty_epoch
            .store(self.slot.dirty_epoch, Ordering::SeqCst);
    }
}

/// One position in a worker's slot vector. Indices are append-only and
/// never reused: a slot that migrates away leaves a permanent tombstone, so
/// any routing pair captured before the move still addresses *something*
/// meaningful — either the live slot or a forwarder to its current home.
pub(crate) enum SlotEntry {
    /// The worker owns this slot. Boxed so a tombstone costs two words,
    /// not a whole [`WorkerSlot`] footprint — and so the slot moves
    /// between shards as a pointer, never a memcpy of queue + scratch.
    Occupied(Box<WorkerSlot>),
    /// The slot migrated away; commands landing here are re-sent to the
    /// location current at serve time ([`SlotInfo::location`]).
    Moved { tenant_idx: usize, slot_id: usize },
}

impl SlotEntry {
    fn occupied_mut(&mut self) -> Option<&mut WorkerSlot> {
        match self {
            SlotEntry::Occupied(ws) => Some(ws.as_mut()),
            SlotEntry::Moved { .. } => None,
        }
    }

    pub(crate) fn occupied(&self) -> Option<&WorkerSlot> {
        match self {
            SlotEntry::Occupied(ws) => Some(ws.as_ref()),
            SlotEntry::Moved { .. } => None,
        }
    }
}

/// A shard worker: exclusively owns its slots and serves its command queue
/// until shutdown.
pub(crate) struct ShardWorker {
    pub(crate) shard_id: usize,
    pub(crate) shared: Arc<Shared>,
    /// Worker-local slots, initially in global (tenant, slot) order;
    /// migrated-in slots append at the end, migrated-away slots tombstone
    /// in place.
    pub(crate) slots: Vec<SlotEntry>,
    pub(crate) rx: Receiver<ShardCommand>,
    /// Senders to every shard (including this one), used to forward
    /// commands that land on a tombstone after their slot migrated away.
    pub(crate) senders: Vec<Sender<ShardCommand>>,
    /// Worker-owned drain buffers, reused across every slot and sweep (see
    /// [`DrainScratch`] for the ownership rules).
    pub(crate) scratch: DrainScratch,
}

impl ShardWorker {
    /// Resolves a worker-local index that is guaranteed occupied (the run
    /// loop forwards commands for tombstoned slots before running them).
    pub(crate) fn occupied_at(entry: &mut SlotEntry) -> &mut WorkerSlot {
        match entry {
            SlotEntry::Occupied(ws) => ws,
            SlotEntry::Moved { .. } => {
                unreachable!("commands for tombstoned slots are forwarded before dispatch")
            }
        }
    }

    /// The worker loop. Exits on `Shutdown` or when every sender is gone.
    /// Replies are best-effort: a caller that gave up (dropped its
    /// completion) doesn't stop the worker.
    pub(crate) fn run(mut self) {
        while let Ok(command) = self.rx.recv() {
            match command {
                ShardCommand::OnSlot { slot, op } => match self.slots[slot] {
                    SlotEntry::Occupied(_) => op(&mut self, slot),
                    SlotEntry::Moved {
                        tenant_idx,
                        slot_id,
                    } => {
                        let (shard, slot) =
                            self.shared.tenants[tenant_idx].slots[slot_id].location();
                        let _ = self.senders[shard].send(ShardCommand::OnSlot { slot, op });
                    }
                },
                ShardCommand::OnShard { op } => op(&mut self),
                ShardCommand::SubmitMany { items } => {
                    // One clock read for the whole group: the items were
                    // admitted together, so they share an enqueue stamp.
                    // Items whose slot migrated away since the batch was
                    // routed are forwarded individually — the rewrite is
                    // per item because one batch can straddle a migration.
                    let now = self.shared.telemetry.now_nanos();
                    for (slot, item, trace) in items {
                        match &mut self.slots[slot] {
                            SlotEntry::Occupied(ws) => {
                                self.shared
                                    .telemetry
                                    .trace_stage(trace, TraceStage::Enqueued, now);
                                ws.slot.enqueue(item, now, trace);
                            }
                            SlotEntry::Moved {
                                tenant_idx,
                                slot_id,
                            } => {
                                let (shard, idx) =
                                    self.shared.tenants[*tenant_idx].slots[*slot_id].location();
                                let _ = self.senders[shard].send(ShardCommand::SubmitMany {
                                    items: vec![(idx, item, trace)],
                                });
                            }
                        }
                    }
                }
                ShardCommand::Drain { reply } => {
                    let report = self.drain();
                    reply.complete(report);
                }
                ShardCommand::MigrateIn { worker, reply } => {
                    self.slots.push(SlotEntry::Occupied(worker));
                    reply.complete(self.slots.len() - 1);
                }
                ShardCommand::Shutdown => break,
            }
        }
    }

    /// One sweep over this shard's slots — at most one `PROCESS_BATCH` ECALL
    /// per non-empty slot. Mirrors the pre-runtime drain semantics: a slot
    /// whose whole-batch ECALL fails keeps its items queued and does not
    /// abort the sweep; the first error is reported alongside whatever
    /// responses the other slots produced.
    fn drain(&mut self) -> ShardDrainReport {
        let max_batch = self.shared.config.max_batch;
        let mut responses = Vec::new();
        let mut first_error = None;
        let telemetry = &self.shared.telemetry;
        if telemetry.enabled() {
            // The live queue-depth gauge: what this shard has pending as
            // the sweep starts.
            let depth: usize = self
                .slots
                .iter()
                .filter_map(SlotEntry::occupied)
                .map(|ws| ws.slot.queue_depth())
                .sum();
            telemetry.record_drain_depth(self.shard_id, depth as u64);
        }
        // One scratch for the whole sweep: each slot encodes its request and
        // leaves its replies in the worker's reusable buffers, which are
        // consumed (drained, capacity kept) before the next slot runs.
        let scratch = &mut self.scratch;
        for ws in self.slots.iter_mut().filter_map(SlotEntry::occupied_mut) {
            let tenant = &self.shared.tenants[ws.tenant_idx];
            let drained =
                match ws
                    .slot
                    .drain_into(max_batch, scratch, Some((telemetry, self.shard_id)))
                {
                    // A drain that reached the enclave mutated checkpointed
                    // state (replay windows, auditor counters, drain stats)
                    // even when the batch failed wholesale, so the slot is
                    // dirty either way. Empty sweeps are not.
                    Ok(Some(drained)) => {
                        ws.mark_dirty();
                        drained
                    }
                    Ok(None) => continue,
                    Err(e) => {
                        ws.mark_dirty();
                        first_error.get_or_insert(e);
                        continue;
                    }
                };
            let reply_now = telemetry.now_nanos();
            // Outcome counters FIRST, reservation release LAST. The
            // endorsement-budget check reads `endorsed + queued`, so an item
            // must never be simultaneously absent from both (that window
            // would let a racing submit overshoot the budget). The reverse
            // overlap — counted in `endorsed` while still counted in
            // `queued` — only over-rejects transiently, which is safe.
            for (item, trace) in scratch.replies.drain(..).zip(scratch.traces.drain(..)) {
                match &item.outcome {
                    BatchOutcome::Reply { endorsed: true, .. } => {
                        tenant.counters.endorsed.fetch_add(1, Ordering::SeqCst);
                    }
                    BatchOutcome::Reply {
                        endorsed: false, ..
                    } => {
                        tenant.counters.rejected.fetch_add(1, Ordering::SeqCst);
                    }
                    BatchOutcome::Failed(_) => {
                        tenant.counters.failed.fetch_add(1, Ordering::SeqCst);
                    }
                }
                telemetry.trace_stage(trace, TraceStage::ReplyDelivered, reply_now);
                responses.push(GatewayResponse {
                    session_id: item.session_id,
                    tenant: tenant.name.clone(),
                    outcome: item.outcome,
                });
            }
            ws.gauges.queue_depth.fetch_sub(drained, Ordering::SeqCst);
            tenant.queued.fetch_sub(drained, Ordering::SeqCst);
        }
        ShardDrainReport {
            responses,
            first_error,
        }
    }
}
