//! The gateway facade: admission, routing, and batched serving.

use crate::checkpoint::{
    ChainBase, CrashPoint, GatewaySnapshot, SessionRecord, SlotSnapshot, SnapshotChain,
    TenantSnapshot, GATEWAY_DELTA_KIND,
};
use crate::config::{GatewayConfig, TenantConfig, TenantQuota};
use crate::error::{GatewayError, QuotaResource, Result};
use crate::frontend::completion::{block_on, completion_pair, Completer, Completion};
use crate::pool::{PoolSlot, SlotRestore, TenantPool};
use crate::rebalance::{MigrationReport, SlotLoad};
use crate::runtime::{
    BarrierGuard, BarrierOp, ShardCommand, ShardWorker, Shared, SlotClaim, SlotEntry, SlotGauges,
    SlotInfo, TenantCounters, TenantMeta, WorkerSlot, BARRIER_IDLE,
};
use crate::session::{SessionEntry, SessionState, SessionTable};
use crate::stats::{GatewayStats, SlotStats, SlotStatsRow};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use glimmer_core::blinding::MaskShare;
use glimmer_core::channel::{ChannelAccept, ChannelOffer};
use glimmer_core::enclave_app::MaskDelivery;
use glimmer_core::protocol::{BatchItem, BatchOutcome};
use glimmer_core::GlimmerError;
use glimmer_crypto::drbg::Drbg;
use sgx_sim::{AttestationService, Measurement, SgxError};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One drained reply, routed back to the device that owns the session.
#[derive(Debug, Clone)]
pub struct GatewayResponse {
    /// The session the reply belongs to.
    pub session_id: u64,
    /// The owning tenant's interned name — an `Arc<str>` clone, not a string
    /// allocation, so the drain path stays allocation-free per endorsement.
    pub tenant: Arc<str>,
    /// The enclave's outcome for the item.
    pub outcome: BatchOutcome,
}

/// A sharded, multi-tenant enclave-pool server for glimmer-as-a-service
/// traffic.
///
/// The gateway owns, per tenant, a pool of pre-provisioned Glimmer enclaves
/// (image built, platform attested, endorsement key installed — all paid once
/// at start-up), a session table mapping device sessions onto pool slots with
/// least-loaded sharding, per-slot request queues drained through one
/// `PROCESS_BATCH` ECALL per round, and admission control (session quotas,
/// queue-depth backpressure, endorsement budgets).
///
/// # Runtime
///
/// Serving runs on a shard-per-core runtime (the crate-internal `runtime`
/// module): pool slots
/// are distributed round-robin over [`GatewayConfig::shards`] worker
/// threads, each of which exclusively owns its slots (enclaves, queues,
/// drain counters — shared-nothing). The `Gateway` value itself is a thin
/// routing handle: every method takes `&self`, the type is `Send + Sync`,
/// and callers on any number of threads may submit and drain concurrently.
/// Dropping the gateway shuts the workers down; [`Gateway::shutdown`] does
/// the same after draining in-flight work first.
///
/// The gateway itself is *untrusted*, exactly like the remote host of
/// Section 4.2: it only ever sees ciphertext, attestation transcripts, and
/// the public one-bit endorsed/failed outcome per request.
pub struct Gateway {
    shared: Arc<Shared>,
    senders: Vec<Sender<ShardCommand>>,
    workers: Vec<JoinHandle<()>>,
}

// The whole point of the `&self` API: one gateway handle may be shared
// across threads. The compiler proves it, these assertions document it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Gateway>();
};

impl core::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Gateway")
            .field("shards", &self.senders.len())
            .field("tenants", &self.shared.tenants.len())
            .finish_non_exhaustive()
    }
}

/// One tenant's pool, ready for the runtime — either freshly provisioned
/// ([`Gateway::new`]) or rebuilt from sealed checkpoint state
/// ([`Gateway::restore_chain`]).
struct TenantBuild {
    name: Arc<str>,
    quota: TenantQuota,
    measurement: Measurement,
    counters: TenantCounters,
    slots: Vec<PoolSlot>,
}

/// One slot's reply to its export barrier ([`Gateway::export_slot_barrier`]).
struct SlotExport {
    dirty_epoch: u64,
    state_epoch: u64,
    /// `None` when the enclave skipped the seal (state unchanged since the
    /// caller's `known_state_epoch`).
    sealed_state: Option<Vec<u8>>,
    stats: SlotStats,
}

/// What a source worker hands the migration coordinator at its handoff
/// barrier ([`Gateway::migrate_slot`]).
struct MigrationPackage {
    /// The live slot itself: enclave handle, queued items, stats, gauges.
    worker: Box<WorkerSlot>,
    /// Crash-recovery artifact: the slot's enclave state sealed at the
    /// handoff point (AAD-bound to the migration header).
    sealed_state: Vec<u8>,
    /// The enclave's state epoch inside `sealed_state`.
    state_epoch: u64,
}

/// Reports `point` to the config's crash plan; a plan that fires aborts the
/// surrounding operation with [`GatewayError::CrashInjected`].
fn crash_at(config: &GatewayConfig, point: CrashPoint) -> Result<()> {
    if config.crash_hooks.reached(point) {
        Err(GatewayError::CrashInjected(point))
    } else {
        Ok(())
    }
}

/// Tenants in deterministic (name) order, refusing duplicate enrollments
/// before any enclave is built for the duplicate.
fn sorted_unique(mut tenants: Vec<TenantConfig>) -> Result<Vec<TenantConfig>> {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for tenant in &tenants {
        if !seen.insert(tenant.name.as_str()) {
            return Err(GatewayError::DuplicateTenant(tenant.name.clone()));
        }
    }
    tenants.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(tenants)
}

impl Gateway {
    /// Builds the gateway: creates and provisions `slots_per_tenant` enclaves
    /// for every tenant up front, then spawns the shard workers and hands
    /// each its share of the slots. Time and injected faults come from the
    /// config's [`clock`](GatewayConfig::clock) and
    /// [`crash_hooks`](GatewayConfig::crash_hooks).
    pub fn new(
        config: GatewayConfig,
        tenants: Vec<TenantConfig>,
        avs: &mut AttestationService,
        rng: &mut Drbg,
    ) -> Result<Self> {
        let tenants = sorted_unique(tenants)?;
        let mut builds = Vec::with_capacity(tenants.len());
        for tenant in tenants {
            let pool = TenantPool::new(
                &tenant,
                config.slots_per_tenant,
                &config.platform_config,
                rng,
                avs,
            )?;
            let measurement = pool.measurement();
            builds.push(TenantBuild {
                name: Arc::from(tenant.name.as_str()),
                quota: tenant.quota,
                measurement,
                counters: TenantCounters::default(),
                slots: pool.slots,
            });
        }
        Self::assemble(config, builds, SessionTable::new(), 0, 0)
    }

    /// Final construction step shared by [`Gateway::new`] and
    /// [`Gateway::restore_chain`]: distributes the (provisioned or
    /// restored) pool slots round-robin over the shard workers, recomputes
    /// the session gauges from the table, and spawns the runtime.
    fn assemble(
        config: GatewayConfig,
        builds: Vec<TenantBuild>,
        table: SessionTable,
        checkpoint_epoch: u64,
        submit_commands: u64,
    ) -> Result<Self> {
        let shards = config.shards.max(1);
        let mut metas = Vec::with_capacity(builds.len());
        let mut worker_slots: Vec<Vec<WorkerSlot>> = (0..shards).map(|_| Vec::new()).collect();
        let mut next_shard = 0usize;
        for (tenant_idx, build) in builds.into_iter().enumerate() {
            let mut slot_infos = Vec::with_capacity(build.slots.len());
            for slot in build.slots {
                let gauges = Arc::new(SlotGauges::default());
                // Seed the shared dirty-epoch gauge from the slot's (fresh
                // or restored) epoch, so a delta checkpoint taken before the
                // slot's next mutation sees the resumed clock, not zero.
                gauges.dirty_epoch.store(slot.dirty_epoch, Ordering::SeqCst);
                let shard = next_shard;
                next_shard = (next_shard + 1) % shards;
                slot_infos.push(SlotInfo::new(
                    shard,
                    worker_slots[shard].len(),
                    Arc::clone(&gauges),
                ));
                worker_slots[shard].push(WorkerSlot {
                    tenant_idx,
                    slot,
                    gauges,
                });
            }
            metas.push(TenantMeta {
                name: build.name,
                quota: build.quota,
                measurement: build.measurement,
                counters: build.counters,
                live_sessions: AtomicUsize::new(0),
                queued: AtomicUsize::new(0),
                slots: slot_infos,
            });
        }

        // Recompute the session gauges from the (possibly restored) table:
        // every live entry holds one unit of its tenant's session quota and
        // pins one slot. For a fresh gateway the table is empty and this is
        // a no-op.
        for (_, entry) in table.iter() {
            let meta = &metas[entry.tenant_idx];
            meta.live_sessions.fetch_add(1, Ordering::SeqCst);
            meta.slots[entry.slot]
                .gauges
                .active_sessions
                .fetch_add(1, Ordering::SeqCst);
        }

        let shared = Arc::new(Shared {
            telemetry: Arc::new(Telemetry::new(
                &config.telemetry,
                Arc::clone(&config.clock),
                shards,
            )),
            config,
            tenants: metas,
            table: Mutex::new(table),
            submit_commands: AtomicU64::new(submit_commands),
            checkpoint_epoch: AtomicU64::new(checkpoint_epoch),
            barrier: AtomicU8::new(crate::runtime::BARRIER_IDLE),
            migration: Mutex::new(()),
        });

        // All shard channels exist before any worker spawns: every worker
        // holds senders to every shard, which is what lets a tombstoned
        // (migrated-away) slot forward stray commands to its new owner.
        let mut senders = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let mut workers = Vec::with_capacity(shards);
        for (shard_id, (slots, rx)) in worker_slots.into_iter().zip(receivers).enumerate() {
            let worker = ShardWorker {
                shard_id,
                shared: Arc::clone(&shared),
                slots: slots
                    .into_iter()
                    .map(|ws| SlotEntry::Occupied(Box::new(ws)))
                    .collect(),
                rx,
                senders: senders.clone(),
                scratch: Default::default(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("gateway-shard-{shard_id}"))
                .spawn(move || worker.run())
                .map_err(|_| GatewayError::RuntimeUnavailable)?;
            workers.push(handle);
        }

        Ok(Gateway {
            shared,
            senders,
            workers,
        })
    }

    /// Number of shard worker threads serving this gateway.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.senders.len()
    }

    /// Every pool slot's live load — current owning shard and queued
    /// requests, read from the same gauges the placement policy maintains
    /// at admission time — in deterministic (tenant name, slot id) order.
    /// This is [`crate::rebalance::plan_rebalance`]'s input.
    #[must_use]
    pub fn slot_loads(&self) -> Vec<SlotLoad> {
        let mut loads = Vec::new();
        for tenant in &self.shared.tenants {
            for (slot_id, info) in tenant.slots.iter().enumerate() {
                loads.push(SlotLoad {
                    tenant: Arc::clone(&tenant.name),
                    slot_id,
                    shard: info.shard(),
                    queued: info.gauges.queue_depth.load(Ordering::SeqCst) as u64,
                });
            }
        }
        loads
    }

    /// The enrolled tenant names, in deterministic order.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        self.shared
            .tenants
            .iter()
            .map(|t| t.name.to_string())
            .collect()
    }

    /// The measurement a device connecting to `tenant` must verify.
    pub fn measurement(&self, tenant: &str) -> Result<Measurement> {
        let idx = self.shared.tenant_idx(tenant)?;
        Ok(self.shared.tenants[idx].measurement)
    }

    fn tenant(&self, name: &str) -> Result<&TenantMeta> {
        Ok(&self.shared.tenants[self.shared.tenant_idx(name)?])
    }

    fn send(&self, shard: usize, command: ShardCommand) -> Result<()> {
        self.senders[shard]
            .send(command)
            .map_err(|_| GatewayError::RuntimeUnavailable)
    }

    /// Sends `op` to the worker that owns `info`'s slot right now, and
    /// returns the completion its reply arrives in. The worker runs `op`
    /// with the slot's worker-local index and the reply's completer.
    fn on_slot<T: Send + 'static>(
        &self,
        info: &SlotInfo,
        op: impl FnOnce(&mut ShardWorker, usize, Completer<T>) + Send + 'static,
    ) -> Result<Completion<T>> {
        let (shard, slot) = info.location();
        let (reply, completion) = completion_pair();
        let op = Box::new(move |worker: &mut ShardWorker, slot| op(worker, slot, reply));
        self.send(shard, ShardCommand::OnSlot { slot, op })?;
        Ok(completion)
    }

    /// The worker side of every enclave verb, written once: mark the slot
    /// dirty (before the call, so a failing call dirties it too), run
    /// `call` against the slot and its tenant, and answer with the result.
    /// A failed send and a failed enclave call come back alike, as the
    /// verb's error.
    async fn enclave<T: Send + 'static>(
        &self,
        info: &SlotInfo,
        call: impl FnOnce(&mut WorkerSlot, &TenantMeta) -> glimmer_core::Result<T> + Send + 'static,
    ) -> Result<T> {
        self.on_slot(info, move |worker, slot, reply| {
            let ws = ShardWorker::occupied_at(&mut worker.slots[slot]);
            ws.mark_dirty();
            let tenant = &worker.shared.tenants[ws.tenant_idx];
            reply.complete(call(ws, tenant).map_err(GatewayError::Glimmer));
        })?
        .await?
    }

    fn session_entry(&self, session_id: u64) -> Result<SessionEntry> {
        Ok(self
            .shared
            .table
            .lock()
            .expect("session table poisoned")
            .get(session_id)?
            .clone())
    }

    /// Weight of one live session, in queued-request units, in the score
    /// [`Gateway::least_loaded_slot`] minimizes. With idle queues any weight
    /// `>= 1` reproduces round-robin-by-session placement, which is what
    /// keeps the E11/E12 cycle metrics stable.
    const PLACEMENT_SESSION_WEIGHT: usize = 4;

    /// Queue-depth-aware placement: scores every slot of the tenant as
    /// `queue_depth + PLACEMENT_SESSION_WEIGHT * active_sessions` and picks
    /// the minimum (ties: fewest sessions, then lowest slot id).
    ///
    /// Counting live queue depth — not just session count — is what keeps a
    /// hot tenant from skewing one shard: slots map statically to shards, so
    /// steering new sessions away from deep queues flattens the E12
    /// critical-path metric. Sessions still weigh in because a
    /// bound-but-idle session predicts future load.
    fn least_loaded_slot(meta: &TenantMeta) -> usize {
        meta.slots
            .iter()
            .enumerate()
            .min_by_key(|(id, info)| {
                let sessions = info.gauges.active_sessions.load(Ordering::SeqCst);
                let depth = info.gauges.queue_depth.load(Ordering::SeqCst);
                (
                    depth.saturating_add(Self::PLACEMENT_SESSION_WEIGHT.saturating_mul(sessions)),
                    sessions,
                    *id,
                )
            })
            .map(|(id, _)| id)
            .expect("tenant pool always has at least one slot")
    }

    /// Opens a device session for `tenant`: admits it against the session
    /// quota, pins it to the least-loaded pool slot, and returns the
    /// attestation offer the device verifies.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownTenant`] for an unenrolled tenant,
    /// [`GatewayError::QuotaExceeded`] when the tenant's session quota is
    /// full, [`GatewayError::RuntimeUnavailable`] when the owning shard
    /// worker is gone, and any enclave-side failure as
    /// [`GatewayError::Glimmer`]. On every error the admission reservation
    /// is rolled back.
    pub fn open_session(&self, tenant: &str) -> Result<(u64, ChannelOffer)> {
        block_on(self.open_session_async(tenant))
    }

    /// The one body of [`Gateway::open_session`] and its async twin:
    /// admission, placement and table insert, the enclave offer, then the
    /// commit or the rollback.
    pub(crate) async fn open_session_async(&self, tenant: &str) -> Result<(u64, ChannelOffer)> {
        let tenant_idx = self.shared.tenant_idx(tenant)?;
        let meta = &self.shared.tenants[tenant_idx];
        // Reserve a session-quota slot first; roll back on any failure so a
        // racing open can never overshoot the quota.
        let prev = meta.live_sessions.fetch_add(1, Ordering::SeqCst);
        if prev >= meta.quota.max_sessions {
            meta.live_sessions.fetch_sub(1, Ordering::SeqCst);
            meta.counters.throttled.fetch_add(1, Ordering::SeqCst);
            let err = GatewayError::QuotaExceeded {
                tenant: meta.name.clone(),
                resource: QuotaResource::Sessions,
            };
            self.shared.telemetry.admit_reject(&err, 1, None);
            return Err(err);
        }
        let slot_id = Self::least_loaded_slot(meta);
        let info = &meta.slots[slot_id];
        info.gauges.active_sessions.fetch_add(1, Ordering::SeqCst);
        let session_id = self
            .shared
            .table
            .lock()
            .expect("session table poisoned")
            .open(
                meta.name.clone(),
                tenant_idx,
                slot_id,
                self.shared.config.clock.now_nanos(),
            );
        let offer = self
            .enclave(info, move |ws, _| {
                ws.slot.client_mut().open_session(session_id)
            })
            .await;
        match offer {
            Ok(offer) => {
                meta.counters.sessions_opened.fetch_add(1, Ordering::SeqCst);
                Ok((session_id, offer))
            }
            Err(e) => {
                // Roll the reservation back only if this call actually
                // removed the entry: a concurrent close/eviction that beat
                // us here already ran the gauge rollback, and decrementing
                // twice would wrap the unsigned gauges.
                let removed = self
                    .shared
                    .table
                    .lock()
                    .expect("session table poisoned")
                    .close(session_id)
                    .is_ok();
                if removed {
                    info.gauges.active_sessions.fetch_sub(1, Ordering::SeqCst);
                    meta.live_sessions.fetch_sub(1, Ordering::SeqCst);
                }
                Err(e)
            }
        }
    }

    /// Completes a session's attested handshake with the device's response.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownSession`] for a dead id,
    /// [`GatewayError::SessionAlreadyEstablished`] for a duplicate
    /// completion, [`GatewayError::RuntimeUnavailable`] when the shard
    /// worker is gone, and enclave rejections as [`GatewayError::Glimmer`].
    /// A failed completion tears the pending session down (the enclave
    /// consumed the handshake), so the device retries with a fresh
    /// [`Gateway::open_session`].
    pub fn complete_session(&self, session_id: u64, accept: &ChannelAccept) -> Result<()> {
        block_on(self.complete_session_async(session_id, accept))
    }

    /// The one body of [`Gateway::complete_session`] and its async twin:
    /// the route and state check, the enclave accept, then the establish —
    /// or, on any failure, the pending session's teardown.
    pub(crate) async fn complete_session_async(
        &self,
        session_id: u64,
        accept: &ChannelAccept,
    ) -> Result<()> {
        let entry = self.session_entry(session_id)?;
        if entry.state == SessionState::Established {
            return Err(GatewayError::SessionAlreadyEstablished(session_id));
        }
        let info = &self.shared.tenants[entry.tenant_idx].slots[entry.slot];
        let accept = accept.clone();
        let accepted = self
            .enclave(info, move |ws, _| {
                ws.slot.client_mut().accept_session(session_id, &accept)
            })
            .await;
        if let Err(e) = accepted {
            // The enclave consumed the pending handshake (or never got it),
            // so this session id can never complete; tear it down instead of
            // leaving a wedged Pending entry pinning the slot and the
            // tenant's session quota. The device retries by opening a fresh
            // session. Only a session that is STILL pending is torn down: if
            // a concurrent duplicate completion won the race and established
            // it, this loser's error must not destroy the now-valid session.
            self.close_session_if_pending(session_id).await;
            return Err(e);
        }
        let established = self
            .shared
            .table
            .lock()
            .expect("session table poisoned")
            .establish(session_id)
            .map(|_| ());
        if let Err(GatewayError::UnknownSession(_)) = established {
            // A concurrent eviction removed the entry between the enclave
            // accept succeeding and this establish (the evictor's enclave
            // close raced the in-flight handshake). The gateway will never
            // route this id again, so erase the keys the enclave just
            // installed rather than leaking the session in the slot forever.
            // Gauges were already rolled back by whoever removed the entry.
            let _ = self.enclave_close(info, session_id).await;
        }
        established
    }

    /// Closes a session: erases its channel keys inside the enclave and
    /// discards any requests it still had queued.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownSession`] when the id is not live,
    /// [`GatewayError::RuntimeUnavailable`] when the owning shard worker is
    /// gone, and enclave-side failures as [`GatewayError::Glimmer`]. The
    /// table entry and its quota reservation are released even when the
    /// enclave-side erase fails.
    pub fn close_session(&self, session_id: u64) -> Result<()> {
        block_on(self.close_session_async(session_id))
    }

    /// The one body of [`Gateway::close_session`] and its async twin.
    pub(crate) async fn close_session_async(&self, session_id: u64) -> Result<()> {
        let entry = self
            .shared
            .table
            .lock()
            .expect("session table poisoned")
            .close(session_id)?;
        self.close_removed(session_id, &entry).await
    }

    /// Releases an entry already removed from the session table: rolls its
    /// gauges back, erases the session inside the enclave, and counts the
    /// close once the enclave confirms it.
    async fn close_removed(&self, session_id: u64, entry: &SessionEntry) -> Result<()> {
        let meta = &self.shared.tenants[entry.tenant_idx];
        let info = &meta.slots[entry.slot];
        info.gauges.active_sessions.fetch_sub(1, Ordering::SeqCst);
        meta.live_sessions.fetch_sub(1, Ordering::SeqCst);
        self.enclave_close(info, session_id).await?;
        meta.counters.sessions_closed.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// The enclave-side close (key erase, queued-item discard) of a session
    /// the routing layer no longer routes.
    async fn enclave_close(&self, info: &SlotInfo, session_id: u64) -> Result<()> {
        self.enclave(info, move |ws, tenant| {
            let dropped = ws.slot.discard_session_items(session_id);
            ws.gauges.queue_depth.fetch_sub(dropped, Ordering::SeqCst);
            tenant.queued.fetch_sub(dropped, Ordering::SeqCst);
            ws.slot.client_mut().close_session(session_id)?;
            tenant
                .counters
                .dropped
                .fetch_add(dropped as u64, Ordering::SeqCst);
            Ok(())
        })
        .await
    }

    /// Tears the session down only if it is still pending — the
    /// check-and-remove happens under one table lock, so it can never race a
    /// concurrent establishment into closing an established session. Returns
    /// whether the session was actually removed.
    async fn close_session_if_pending(&self, session_id: u64) -> bool {
        let entry = {
            let mut table = self.shared.table.lock().expect("session table poisoned");
            match table.get(session_id) {
                Ok(e) if e.state == SessionState::Pending => table.close(session_id).ok(),
                _ => None,
            }
        };
        let Some(entry) = entry else {
            return false;
        };
        let _ = self.close_removed(session_id, &entry).await;
        true
    }

    /// Installs a blinding mask share into the enclave serving `session_id`
    /// (the tenant's blinding service issues one per client and round).
    ///
    /// The mask is bound to the session inside the enclave: the session
    /// becomes authorized to contribute as the mask's client id, and only as
    /// client ids bound this way. That binding is what stops co-located
    /// sessions on a pooled slot from impersonating each other's devices.
    ///
    /// This plaintext variant hands the mask values to the gateway process,
    /// so it is only appropriate when the tenant operates the gateway
    /// itself. Against an untrusted gateway, use the attested tenant
    /// channel ([`Gateway::tenant_channel_offer`]) and
    /// [`Gateway::install_mask_encrypted`], which keep mask values sealed
    /// end-to-end between the tenant and the enclave.
    pub fn install_mask(&self, session_id: u64, mask: &MaskShare) -> Result<()> {
        block_on(self.install_mask_async(session_id, MaskDelivery::plain(mask)))
    }

    /// Installs a session-bound mask from an AEAD-encrypted delivery sealed
    /// under the tenant's attested channel to the session's slot. The
    /// gateway relays the ciphertext; only the enclave can open it.
    pub fn install_mask_encrypted(
        &self,
        session_id: u64,
        nonce: [u8; 12],
        ciphertext: Vec<u8>,
    ) -> Result<()> {
        block_on(self.install_mask_async(session_id, MaskDelivery::Encrypted { nonce, ciphertext }))
    }

    /// The one body of both mask verbs and their async twins. An enclave
    /// AEAD refusal of a sealed delivery (tampered ciphertext, wrong slot's
    /// channel key, replayed nonce) maps to the typed, tenant-labelled
    /// rejection instead of a stringly enclave abort.
    pub(crate) async fn install_mask_async(
        &self,
        session_id: u64,
        delivery: MaskDelivery,
    ) -> Result<()> {
        let entry = self.session_entry(session_id)?;
        let info = &self.shared.tenants[entry.tenant_idx].slots[entry.slot];
        self.enclave(info, move |ws, _| {
            ws.slot
                .client_mut()
                .install_session_mask_delivery(session_id, &delivery)
        })
        .await
        .map_err(|e| match e {
            GatewayError::Glimmer(GlimmerError::Sgx(SgxError::UnsealDenied(_))) => {
                GatewayError::SealedBlobRejected {
                    tenant: entry.tenant,
                }
            }
            other => other,
        })
    }

    /// The pool slot a session is pinned to — the tenant needs it to seal
    /// mask deliveries under the right slot's channel key.
    pub fn session_slot(&self, session_id: u64) -> Result<usize> {
        Ok(self.session_entry(session_id)?.slot)
    }

    /// The shard worker that owns a session's slot. A batch producer can
    /// group a submission window by this key so each
    /// [`Gateway::submit_batch`] call lands on one shard — one
    /// `SubmitMany` command instead of a cross-shard scatter.
    pub fn session_shard(&self, session_id: u64) -> Result<usize> {
        let entry = self.session_entry(session_id)?;
        Ok(self.shared.tenants[entry.tenant_idx].slots[entry.slot].shard())
    }

    /// Number of pool slots serving `tenant`.
    pub fn slot_count(&self, tenant: &str) -> Result<usize> {
        Ok(self.tenant(tenant)?.slots.len())
    }

    fn tenant_slot(&self, tenant: &str, slot: usize) -> Result<&SlotInfo> {
        let meta = self.tenant(tenant)?;
        meta.slots
            .get(slot)
            .ok_or_else(|| GatewayError::UnknownSlot {
                tenant: tenant.to_string(),
                slot,
            })
    }

    /// Starts the attested tenant channel on one pool slot: returns the
    /// enclave's offer for the *tenant* (not a device) to verify and answer.
    /// Once completed, the tenant can seal mask deliveries to that slot.
    pub fn tenant_channel_offer(&self, tenant: &str, slot: usize) -> Result<ChannelOffer> {
        let info = self.tenant_slot(tenant, slot)?;
        block_on(self.enclave(info, |ws, _| ws.slot.client_mut().start_channel()))
    }

    /// Completes the attested tenant channel on one pool slot.
    pub fn complete_tenant_channel(
        &self,
        tenant: &str,
        slot: usize,
        accept: &ChannelAccept,
    ) -> Result<()> {
        let info = self.tenant_slot(tenant, slot)?;
        let accept = accept.clone();
        block_on(self.enclave(info, move |ws, _| {
            ws.slot.client_mut().complete_channel(&accept)
        }))
    }

    /// Reserve-then-check admission for a group of `n` requests bound for
    /// one slot, paid as **one** atomic sequence regardless of group size:
    /// one `fetch_add(n)` per gauge, rolled back in full on any failure so
    /// rejection is atomic — either the whole group is admitted or none of
    /// it is.
    ///
    /// The failing request's tenant label is the interned `Arc<str>`, so a
    /// throttle/backpressure storm does not allocate a `String` per
    /// rejection.
    fn reserve_admission(&self, meta: &TenantMeta, slot_id: usize, n: usize) -> Result<()> {
        // Tenant-wide queued-request quota.
        let prev_queued = meta.queued.fetch_add(n, Ordering::SeqCst);
        if prev_queued + n > meta.quota.max_queued {
            meta.queued.fetch_sub(n, Ordering::SeqCst);
            meta.counters
                .throttled
                .fetch_add(n as u64, Ordering::SeqCst);
            return Err(GatewayError::QuotaExceeded {
                tenant: meta.name.clone(),
                resource: QuotaResource::QueuedRequests,
            });
        }
        // Endorsement budget: only endorsements consume it, but queued
        // requests reserve against it so the budget can never overshoot
        // mid-batch — a group that would cross the line mid-batch rejects
        // here, atomically, before anything is enqueued. A rejected
        // contribution releases its reservation at drain time (queue
        // shrinks, `endorsed` does not grow).
        if let Some(budget) = meta.quota.endorsement_budget {
            let reserved = meta.counters.endorsed.load(Ordering::SeqCst) + (prev_queued + n) as u64;
            if reserved > budget {
                meta.queued.fetch_sub(n, Ordering::SeqCst);
                meta.counters
                    .throttled
                    .fetch_add(n as u64, Ordering::SeqCst);
                return Err(GatewayError::QuotaExceeded {
                    tenant: meta.name.clone(),
                    resource: QuotaResource::Endorsements,
                });
            }
        }
        // Per-slot queue-depth backpressure.
        let info = &meta.slots[slot_id];
        let prev_depth = info.gauges.queue_depth.fetch_add(n, Ordering::SeqCst);
        if prev_depth + n > self.shared.config.max_queue_depth {
            info.gauges.queue_depth.fetch_sub(n, Ordering::SeqCst);
            meta.queued.fetch_sub(n, Ordering::SeqCst);
            meta.counters
                .throttled
                .fetch_add(n as u64, Ordering::SeqCst);
            return Err(GatewayError::Backpressure {
                tenant: meta.name.clone(),
                slot: slot_id,
                depth: prev_depth,
            });
        }
        Ok(())
    }

    /// Undoes a successful [`Gateway::reserve_admission`] (used when the
    /// runtime refuses the command after the gauges were already bumped).
    fn release_admission(meta: &TenantMeta, slot_id: usize, n: usize) {
        meta.slots[slot_id]
            .gauges
            .queue_depth
            .fetch_sub(n, Ordering::SeqCst);
        meta.queued.fetch_sub(n, Ordering::SeqCst);
    }

    /// Sends a `SubmitMany` command and counts it (the E13 command metric).
    fn send_submit(&self, shard: usize, items: Vec<(usize, BatchItem, u64)>) -> Result<()> {
        self.send(shard, ShardCommand::SubmitMany { items })?;
        self.shared.submit_commands.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Admits one encrypted request into its session's slot queue.
    ///
    /// # Errors
    ///
    /// Rejections are typed: quota exhaustion ([`GatewayError::QuotaExceeded`])
    /// and queue-depth backpressure ([`GatewayError::Backpressure`]) both leave
    /// the request unqueued so the device can retry elsewhere or later.
    ///
    /// Admission is reserve-then-check over atomic gauges, so concurrent
    /// submitters can never overshoot a quota: the loser of a race has its
    /// reservation rolled back and sees the same typed rejection a
    /// sequential caller would. This is [`Gateway::submit_batch`] with a
    /// batch of one; bulk producers should call [`Gateway::submit_many`] /
    /// [`Gateway::submit_batch`] with the whole group, which pay the
    /// admission sequence and the shard-queue command once per group instead
    /// of once per request.
    pub fn submit(&self, session_id: u64, ciphertext: Vec<u8>) -> Result<()> {
        self.submit_batch(vec![(session_id, ciphertext)])
    }

    /// Admits a whole group of encrypted requests from **one session** with
    /// a single admission sequence and a single shard-queue command.
    ///
    /// Compared to calling [`Gateway::submit`] in a loop, a group of `n`
    /// requests pays one `fetch_add(n)` reservation per gauge instead of
    /// `n` CAS sequences, and pushes one `SubmitMany` command instead of
    /// `n` — cutting channel and atomic traffic by the batch factor on the
    /// hot path. This is [`Gateway::submit_batch`] with every request
    /// naming the same session.
    ///
    /// Admission is **atomic across the group**: a group that would exceed
    /// the queued quota, the endorsement budget, or the slot's queue depth
    /// mid-batch is rejected whole — no items are enqueued and every
    /// reservation is rolled back — so a retrying producer never has to
    /// guess which suffix was admitted. Items are enqueued in vector order.
    /// An empty group is a no-op.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownSession`] / [`GatewayError::SessionNotEstablished`]
    /// for a bad route, [`GatewayError::QuotaExceeded`] and
    /// [`GatewayError::Backpressure`] when the whole group does not fit, and
    /// [`GatewayError::RuntimeUnavailable`] when the shard worker is gone —
    /// in every case nothing was enqueued.
    ///
    /// # Examples
    ///
    /// ```
    /// use glimmer_core::blinding::BlindingService;
    /// use glimmer_core::host::GlimmerDescriptor;
    /// use glimmer_core::protocol::{Contribution, ContributionPayload, PrivateData};
    /// use glimmer_core::remote::IotDeviceSession;
    /// use glimmer_core::signing::ServiceKeyMaterial;
    /// use glimmer_crypto::drbg::Drbg;
    /// use glimmer_gateway::{Gateway, GatewayConfig, TenantConfig};
    /// use sgx_sim::AttestationService;
    ///
    /// const APP: &str = "iot-telemetry.example";
    /// let mut rng = Drbg::from_seed([1u8; 32]);
    /// let mut avs = AttestationService::new([2u8; 32]);
    /// let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    /// let gateway = Gateway::new(
    ///     GatewayConfig { slots_per_tenant: 1, ..GatewayConfig::default() },
    ///     vec![TenantConfig::new(
    ///         APP,
    ///         GlimmerDescriptor::iot_default(Vec::new()),
    ///         material.secret_bytes(),
    ///     )],
    ///     &mut avs,
    ///     &mut rng,
    /// )
    /// .unwrap();
    ///
    /// // Establish one device session and authorize it for client id 0.
    /// let approved = gateway.measurement(APP).unwrap();
    /// let (sid, offer) = gateway.open_session(APP).unwrap();
    /// let (accept, mut device) =
    ///     IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
    /// gateway.complete_session(sid, &accept).unwrap();
    /// let masks = BlindingService::new([3u8; 32]).zero_sum_masks(0, &[0], 4);
    /// gateway.install_mask(sid, &masks[0]).unwrap();
    ///
    /// // The session's stream rides in as ONE admission sequence and ONE
    /// // shard-queue command, instead of one of each per request.
    /// let stream: Vec<Vec<u8>> = (0..3)
    ///     .map(|_| {
    ///         device.encrypt_request(
    ///             Contribution {
    ///                 app_id: APP.to_string(),
    ///                 client_id: 0,
    ///                 round: 0,
    ///                 payload: ContributionPayload::IotReadings { samples: vec![0.5; 4] },
    ///             },
    ///             PrivateData::None,
    ///         )
    ///     })
    ///     .collect();
    /// gateway.submit_many(sid, stream).unwrap();
    /// assert_eq!(gateway.drain_all().unwrap().len(), 3);
    /// ```
    pub fn submit_many(&self, session_id: u64, ciphertexts: Vec<Vec<u8>>) -> Result<()> {
        self.submit_batch(
            ciphertexts
                .into_iter()
                .map(|ciphertext| (session_id, ciphertext))
                .collect(),
        )
    }

    /// Bulk admission across **many sessions** (the workload-generator /
    /// connection-multiplexer path) — and the one admission path
    /// [`Gateway::submit`] and [`Gateway::submit_many`] wrap: requests are
    /// grouped per slot, every group is reserved with one atomic sequence,
    /// and each shard receives at most one `SubmitMany` command for the
    /// whole call. A refusal is journalled once, under the session of the
    /// first request it refused.
    ///
    /// Admission control is atomic across the call: if any session is
    /// unknown or unestablished, or any group trips a quota or
    /// backpressure, **nothing** is enqueued and every reservation already
    /// taken is rolled back before the error returns. The only partial
    /// outcome is a dying runtime ([`GatewayError::RuntimeUnavailable`]):
    /// shards are independent, so groups already handed to healthy shards
    /// stay queued while the dead shard's reservations are released.
    ///
    /// Within each slot, items keep the order they have in `requests`, so a
    /// single-threaded producer that replaces per-request `submit` calls
    /// with `submit_batch` chunks observes bit-identical drain results.
    pub fn submit_batch(&self, requests: Vec<(u64, Vec<u8>)>) -> Result<()> {
        if requests.is_empty() {
            return Ok(());
        }
        let total = requests.len() as u64;
        // Resolve every request's route once, under one table lock, into a
        // compact per-request vector. The bulk path deliberately avoids
        // maps: a chunk touches few distinct slots and shards, so
        // linear-probe count vectors keep the whole call at a handful of
        // allocations however many requests it carries.
        let mut routes: Vec<(usize, usize)> = Vec::with_capacity(requests.len());
        {
            let table = self.shared.table.lock().expect("session table poisoned");
            for (session_id, _) in &requests {
                let entry = match table.get(*session_id) {
                    Ok(entry) => entry,
                    Err(e) => {
                        // Routing failures refuse the whole batch.
                        self.shared
                            .telemetry
                            .admit_reject(&e, total, Some(*session_id));
                        return Err(e);
                    }
                };
                if entry.state != SessionState::Established {
                    let e = GatewayError::SessionNotEstablished(*session_id);
                    self.shared
                        .telemetry
                        .admit_reject(&e, total, Some(*session_id));
                    return Err(e);
                }
                routes.push((entry.tenant_idx, entry.slot));
            }
        }
        // Per-(tenant, slot) group sizes.
        let mut group_counts: Vec<(usize, usize, usize)> = Vec::new();
        for &(tenant_idx, slot_id) in &routes {
            match group_counts
                .iter_mut()
                .find(|(t, s, _)| *t == tenant_idx && *s == slot_id)
            {
                Some((_, _, n)) => *n += 1,
                None => group_counts.push((tenant_idx, slot_id, 1)),
            }
        }
        // Reserve group by group; the first failure rolls back every group
        // already reserved, so the whole batch rejects atomically.
        for (i, &(tenant_idx, slot_id, n)) in group_counts.iter().enumerate() {
            if let Err(e) = self.reserve_admission(&self.shared.tenants[tenant_idx], slot_id, n) {
                for &(t, s, m) in &group_counts[..i] {
                    Self::release_admission(&self.shared.tenants[t], s, m);
                }
                // Every request in the batch is refused, not just the group
                // that tripped the limit: count the rolled-back and
                // never-attempted groups as throttled too (the failing
                // group's `n` was already counted by reserve_admission), so
                // the per-tenant stat matches what the same rejection would
                // record arriving one request at a time.
                for (j, &(t, _, m)) in group_counts.iter().enumerate() {
                    if j != i {
                        self.shared.tenants[t]
                            .counters
                            .throttled
                            .fetch_add(m as u64, Ordering::SeqCst);
                    }
                }
                let first_refused = routes
                    .iter()
                    .position(|&route| route == (tenant_idx, slot_id))
                    .map(|at| requests[at].0);
                self.shared.telemetry.admit_reject(&e, total, first_refused);
                return Err(e);
            }
        }
        // One location read per (tenant, slot) group: every decision below
        // — shard bucket sizes, per-item worker indices, per-shard
        // accounting — derives from this single consistent snapshot. A
        // migration committed after the read at worst routes the whole
        // group through its old shard's forwarding tombstone; it can never
        // split a group across disagreeing reads.
        let group_locs: Vec<(usize, usize)> = group_counts
            .iter()
            .map(|&(t, s, _)| self.shared.tenants[t].slots[s].location())
            .collect();
        let loc_of = |tenant_idx: usize, slot_id: usize| {
            group_counts
                .iter()
                .position(|&(t, s, _)| t == tenant_idx && s == slot_id)
                .map(|i| group_locs[i])
                .expect("every route was counted into a group above")
        };
        // One flat, exact-capacity item vector per shard, filled in arrival
        // order (per-slot order is therefore the caller's order).
        let mut shard_counts: Vec<(usize, usize)> = Vec::new();
        for &(tenant_idx, slot_id) in &routes {
            let (shard, _) = loc_of(tenant_idx, slot_id);
            match shard_counts.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, n)) => *n += 1,
                None => shard_counts.push((shard, 1)),
            }
        }
        // (worker slot index, item, trace tag) triples grouped by shard.
        type TaggedItems = Vec<(usize, BatchItem, u64)>;
        let mut per_shard: Vec<(usize, TaggedItems)> = shard_counts
            .iter()
            .map(|&(shard, n)| (shard, Vec::with_capacity(n)))
            .collect();
        let telemetry = &self.shared.telemetry;
        let sampler = telemetry.submit_sampler(routes.len());
        for (offset, ((session_id, ciphertext), &(tenant_idx, slot_id))) in
            requests.into_iter().zip(&routes).enumerate()
        {
            let (shard, worker_idx) = loc_of(tenant_idx, slot_id);
            let bucket = per_shard
                .iter_mut()
                .find(|(s, _)| *s == shard)
                .expect("every shard was counted above");
            bucket.1.push((
                worker_idx,
                BatchItem {
                    session_id,
                    ciphertext,
                },
                sampler.tag(telemetry, offset, session_id),
            ));
        }
        let mut first_error: Option<GatewayError> = None;
        for (shard, items) in per_shard {
            let count = items.len() as u64;
            let first_refused = items.first().map(|(_, item, _)| item.session_id);
            match self.send_submit(shard, items) {
                Ok(()) => {
                    telemetry.admit_accept(count);
                    for &(t, s, n) in &group_counts {
                        if loc_of(t, s).0 == shard {
                            self.shared.tenants[t]
                                .counters
                                .submitted
                                .fetch_add(n as u64, Ordering::SeqCst);
                        }
                    }
                }
                Err(e) => {
                    // This shard's worker is gone; its items were never
                    // enqueued, so release exactly its groups' reservations.
                    for &(t, s, n) in &group_counts {
                        if loc_of(t, s).0 == shard {
                            Self::release_admission(&self.shared.tenants[t], s, n);
                        }
                    }
                    telemetry.admit_reject(&e, count, first_refused);
                    first_error.get_or_insert(e);
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Drains every slot's queue through its enclave — one `PROCESS_BATCH`
    /// ECALL per non-empty slot, up to `max_batch` items each — and returns
    /// the replies for the caller to route back to devices. All shards drain
    /// their slots concurrently; replies are aggregated in shard order, so
    /// the result is deterministic for a deterministic workload.
    ///
    /// A slot whose whole-batch ECALL fails keeps its items queued — and a
    /// shard whose worker is gone is skipped — without aborting the sweep:
    /// replies already produced by other slots carry endorsements that
    /// consumed budget and replay windows, so they must reach their devices.
    /// The first error is reported only after the sweep, and only if no
    /// responses were produced at all.
    pub fn drain(&self) -> Result<Vec<GatewayResponse>> {
        block_on(self.drain_async())
    }

    /// The one body of [`Gateway::drain`] and
    /// [`AsyncGateway::drain_replies`](crate::frontend::AsyncGateway::drain_replies).
    pub(crate) async fn drain_async(&self) -> Result<Vec<GatewayResponse>> {
        // A dead shard contributes an error, never an abort: the healthy
        // shards' replies must still be gathered and returned.
        let mut responses = Vec::new();
        let mut first_error = None;
        for report in self.fan_out(|reply| ShardCommand::Drain { reply }).await {
            match report {
                Ok(report) => {
                    responses.extend(report.responses);
                    first_error = first_error.or(report.first_error);
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        match first_error {
            Some(e) if responses.is_empty() => Err(e),
            _ => Ok(responses),
        }
    }

    /// Sends one command to every shard at once, so they all work in
    /// parallel, then awaits the replies in shard order — the order every
    /// aggregation over them keeps. A shard whose worker is gone answers
    /// with the error in its place.
    async fn fan_out<T>(&self, command: impl Fn(Completer<T>) -> ShardCommand) -> Vec<Result<T>> {
        let pending: Vec<Result<Completion<T>>> = (0..self.senders.len())
            .map(|shard| {
                let (completer, completion) = completion_pair();
                self.send(shard, command(completer)).map(|()| completion)
            })
            .collect();
        let mut replies = Vec::with_capacity(pending.len());
        for completion in pending {
            replies.push(match completion {
                Ok(completion) => completion.await,
                Err(e) => Err(e),
            });
        }
        replies
    }

    /// Drains repeatedly until every queue is empty (bounded by queue sizes
    /// when no new work arrives concurrently).
    ///
    /// Like [`Gateway::drain`], replies already produced are never dropped:
    /// if a sweep fails after earlier sweeps yielded replies, the replies
    /// collected so far are returned and the error resurfaces on the next
    /// call (the failing slot keeps its items queued).
    pub fn drain_all(&self) -> Result<Vec<GatewayResponse>> {
        let mut all = Vec::new();
        loop {
            match self.drain() {
                Ok(batch) if batch.is_empty() => break,
                Ok(batch) => all.extend(batch),
                Err(e) if all.is_empty() => return Err(e),
                Err(_) => break,
            }
        }
        Ok(all)
    }

    /// Requests currently queued for `tenant` across its slots.
    pub fn queued(&self, tenant: &str) -> Result<usize> {
        Ok(self.tenant(tenant)?.queued.load(Ordering::SeqCst))
    }

    /// Live sessions (pending + established) across all tenants.
    #[must_use]
    pub fn live_sessions(&self) -> usize {
        self.shared
            .table
            .lock()
            .expect("session table poisoned")
            .len()
    }

    /// Closes every session still pending after `older_than` (per the
    /// config's [`clock`](GatewayConfig::clock)) and returns the evicted
    /// ids. Without this, a client that requests handshake offers and never
    /// completes them would pin its tenant's session quota forever;
    /// operators call this on a timer.
    pub fn evict_stale_pending(&self, older_than: std::time::Duration) -> Vec<u64> {
        block_on(self.evict_stale_pending_async(older_than))
    }

    /// The one body of [`Gateway::evict_stale_pending`]. The socket
    /// server's sweeper awaits it, so a close queued behind a busy shard
    /// parks the sweeper task, never the executor thread.
    pub(crate) async fn evict_stale_pending_async(
        &self,
        older_than: std::time::Duration,
    ) -> Vec<u64> {
        let now = self.shared.config.clock.now_nanos();
        let stale = self
            .shared
            .table
            .lock()
            .expect("session table poisoned")
            .stale_pending(older_than, now);
        // The stale list is a snapshot; a device may complete its handshake
        // between the snapshot and this loop. Each teardown therefore
        // re-checks pending-ness under the table lock, so a session that
        // just established is spared (and not reported as evicted).
        let mut evicted = Vec::new();
        for session_id in stale {
            if self.close_session_if_pending(session_id).await {
                evicted.push(session_id);
            }
        }
        self.shared
            .telemetry
            .record_sessions_evicted(evicted.len() as u64);
        evicted
    }

    /// The configuration this gateway was built with: eviction periods,
    /// shard/batch limits, the front door's [`NetConfig`](crate::NetConfig),
    /// and the [`clock`](GatewayConfig::clock) that a
    /// [`SessionExecutor`](crate::frontend::SessionExecutor) shares so
    /// front-end timers and the gateway's staleness decisions read one time
    /// source.
    #[must_use]
    pub fn config(&self) -> &GatewayConfig {
        &self.shared.config
    }

    /// Captures a crash-consistent checkpoint of the serving gateway:
    /// sealed per-slot enclave state (service keys, session channel keys,
    /// masks, replay windows, auditor counters — sealed *by the enclaves*,
    /// opaque to the gateway), the established-session table, per-tenant
    /// quota counters, and per-slot stats. The frame is the *root* of a
    /// chain: the delta against the empty base, with every slot sealed.
    ///
    /// The capture walks the pool **slot at a time**: each slot is exported
    /// behind a two-phase barrier that pauses only its owning shard worker
    /// (pause, capture the slot's Established rows, export, resume), while
    /// every other shard keeps admitting and draining traffic — capture
    /// latency overlaps serving instead of adding to it. Traffic submitted
    /// concurrently is simply ordered after the slot's export (FIFO shard
    /// queues), so the snapshot is a consistent cut, per slot, in the
    /// direction that matters: every session in the captured table has its
    /// keys in its slot's captured enclave state (the enclave accept always
    /// precedes the table establish). The reverse can transiently fail — a
    /// `close_session` racing the barrier removes the table entry first,
    /// leaving the session's keys in the sealed export — which is why
    /// restore hands each enclave the authoritative live set and prunes
    /// everything else at import. Sessions established on an
    /// already-captured slot after its barrier are simply ordered after
    /// this checkpoint. The id/quota counters are captured last, which can
    /// only over-count — ids never reissue below the counter and the quota
    /// counters are cumulative.
    ///
    /// Deliberately **not** captured: in-flight queue entries (unacked —
    /// devices retransmit after a restart, and their request counters are only
    /// recorded at processing time, so the retransmission is accepted
    /// exactly once) and pending handshakes (ephemeral DH secrets must die
    /// with the process).
    ///
    /// # Errors
    ///
    /// [`GatewayError::BarrierConflict`] when another checkpoint (or a
    /// shutdown) already holds the capture claim, or a live migration holds
    /// one of the slots; [`GatewayError::RuntimeUnavailable`] when a shard
    /// worker is gone; and enclave export failures as
    /// [`GatewayError::Glimmer`]. A failed checkpoint releases its paused
    /// worker untouched. The config's
    /// [`crash_hooks`](GatewayConfig::crash_hooks) see every capture-side
    /// [`CrashPoint`]; a crash injected there fails the same way, with
    /// [`GatewayError::CrashInjected`].
    ///
    /// # Examples
    ///
    /// A checkpoint survives the process: rebuild the gateway from its
    /// serialized snapshot with [`Gateway::restore_chain`] instead of
    /// re-provisioning every enclave. The rng stands in for the machine's
    /// hardware identity, so restore must receive a generator in the same
    /// state `Gateway::new` did:
    ///
    /// ```
    /// use glimmer_core::host::GlimmerDescriptor;
    /// use glimmer_core::signing::ServiceKeyMaterial;
    /// use glimmer_crypto::drbg::Drbg;
    /// use glimmer_gateway::{
    ///     Gateway, GatewayConfig, GatewaySnapshot, SnapshotChain, TenantConfig,
    /// };
    /// use sgx_sim::AttestationService;
    ///
    /// let mut rng = Drbg::from_seed([4u8; 32]);
    /// let mut avs = AttestationService::new([5u8; 32]);
    /// let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    /// let config = || GatewayConfig { slots_per_tenant: 1, ..GatewayConfig::default() };
    /// let tenants = || {
    ///     vec![TenantConfig::new(
    ///         "maps.example",
    ///         GlimmerDescriptor::iot_default(Vec::new()),
    ///         material.secret_bytes(),
    ///     )]
    /// };
    ///
    /// let machine_seed = [6u8; 32];
    /// let gateway = Gateway::new(
    ///     config(),
    ///     tenants(),
    ///     &mut avs,
    ///     &mut Drbg::from_seed(machine_seed),
    /// )
    /// .unwrap();
    /// let bytes = gateway.checkpoint().unwrap().to_bytes();
    /// drop(gateway); // the crash: every enclave dies with the process
    ///
    /// let snapshot = GatewaySnapshot::from_bytes(&bytes).unwrap();
    /// let restored = Gateway::restore_chain(
    ///     config(),
    ///     tenants(),
    ///     SnapshotChain { base: &snapshot, deltas: &[] },
    ///     &mut avs,
    ///     &mut Drbg::from_seed(machine_seed), // same machine identity
    /// )
    /// .unwrap();
    /// assert_eq!(restored.tenant_names(), vec!["maps.example".to_string()]);
    /// ```
    pub fn checkpoint(&self) -> Result<GatewaySnapshot> {
        self.capture(None)
    }

    /// An alias of [`Gateway::checkpoint`], which already captures slot at
    /// a time. It exists only because `benchmark/src/probes.rs:531` calls
    /// it and the frozen benchmark may not be edited; call
    /// [`Gateway::checkpoint`].
    #[doc(hidden)]
    pub fn checkpoint_streamed(&self) -> Result<GatewaySnapshot> {
        self.checkpoint()
    }

    /// Captures an **incremental** checkpoint against `base`: only slots
    /// whose dirty-epoch advanced past the base frame re-run their
    /// state-export ECALL; clean slots are skipped entirely — no barrier,
    /// no seal, no ECALL — which is what lets housekeeping on a mostly-idle
    /// gateway run at hardware speed (the E18 claim: ECALL count and wall
    /// time scale with the *dirty* slot count, not the pool size).
    ///
    /// The capture is [`Gateway::checkpoint`]'s, with one variation. A clean
    /// slot's rows are captured bracketed by two dirty-epoch reads; if the
    /// epoch moved between them the fast path is abandoned and the slot
    /// takes the export barrier like a dirty one (the worker bumps the
    /// epoch *before* mutating, so an unchanged epoch proves the captured
    /// rows match the base's sealed state).
    ///
    /// The delta is the same [`GatewaySnapshot`] frame a full checkpoint is
    /// (that one extends the empty base). Fresh sealed exports are
    /// AAD-bound to the **chained** header (`delta header ‖ base header`),
    /// so a delta's blobs cannot be spliced onto any other base even if
    /// chain metadata is forged. Restore with [`Gateway::restore_chain`];
    /// chain the next delta from [`GatewaySnapshot::chain_base`].
    ///
    /// # Errors
    ///
    /// Same surface as [`Gateway::checkpoint`], crash points included
    /// ([`CrashPoint::MidStreamExport`] fires only after a barriered export,
    /// never for a slot skipped on the clean fast path).
    ///
    /// # Examples
    ///
    /// The base + delta loop at one slot: persist a full checkpoint, then
    /// one delta per housekeeping round; after a crash, decode the chain
    /// and restore it oldest first. As in [`Gateway::checkpoint`]'s
    /// example, the rng stands in for the machine's hardware identity.
    ///
    /// ```
    /// use glimmer_core::host::GlimmerDescriptor;
    /// use glimmer_core::signing::ServiceKeyMaterial;
    /// use glimmer_crypto::drbg::Drbg;
    /// use glimmer_gateway::{
    ///     Gateway, GatewayConfig, GatewaySnapshot, SnapshotChain, TenantConfig,
    /// };
    /// use sgx_sim::AttestationService;
    ///
    /// let mut rng = Drbg::from_seed([4u8; 32]);
    /// let mut avs = AttestationService::new([5u8; 32]);
    /// let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    /// let config = || GatewayConfig { slots_per_tenant: 1, ..GatewayConfig::default() };
    /// let tenants = || {
    ///     vec![TenantConfig::new(
    ///         "maps.example",
    ///         GlimmerDescriptor::iot_default(Vec::new()),
    ///         material.secret_bytes(),
    ///     )]
    /// };
    /// let machine_seed = [6u8; 32];
    /// let gateway = Gateway::new(
    ///     config(),
    ///     tenants(),
    ///     &mut avs,
    ///     &mut Drbg::from_seed(machine_seed),
    /// )
    /// .unwrap();
    ///
    /// let base = gateway.checkpoint().unwrap();
    /// let mut persisted = vec![base.to_bytes()];
    /// let mut tip = base.chain_base();
    /// for round in 0..2 {
    ///     if round == 0 {
    ///         gateway.open_session("maps.example").unwrap(); // dirties the slot
    ///     }
    ///     let delta = gateway.checkpoint_delta(&tip).unwrap(); // cost ~ dirty slots
    ///     // The first delta re-seals the dirtied slot; the second skips it.
    ///     assert_eq!(delta.tenants[0].slots[0].sealed_state.is_some(), round == 0);
    ///     tip = delta.chain_base();
    ///     persisted.push(delta.to_bytes());
    /// }
    /// drop(gateway); // the crash: every enclave dies with the process
    ///
    /// let frames: Vec<GatewaySnapshot> = persisted
    ///     .iter()
    ///     .map(|bytes| GatewaySnapshot::from_bytes(bytes).unwrap())
    ///     .collect();
    /// let restored = Gateway::restore_chain(
    ///     config(),
    ///     tenants(),
    ///     SnapshotChain { base: &frames[0], deltas: &frames[1..] },
    ///     &mut avs,
    ///     &mut Drbg::from_seed(machine_seed), // same machine identity
    /// )
    /// .unwrap();
    /// assert_eq!(restored.tenant_names(), vec!["maps.example".to_string()]);
    /// ```
    pub fn checkpoint_delta(&self, base: &ChainBase) -> Result<GatewaySnapshot> {
        self.capture(Some(base))
    }

    /// The one capture engine behind every checkpoint verb: claim, walk the
    /// pool slot at a time (clean fast path or per-slot export barrier),
    /// read the shared tail, assemble one frame whose seals bind to
    /// `header ‖ base header`. `base: None` is a full capture against the
    /// empty base — no slot has a base epoch to match, so every slot takes
    /// the barrier and is force-sealed under the plain header; `Some(base)`
    /// is a delta — slots still at the base's dirty-epoch are skipped.
    fn capture(&self, base: Option<&ChainBase>) -> Result<GatewaySnapshot> {
        let crash = |point| crash_at(&self.shared.config, point);
        crash(CrashPoint::BeforeCheckpoint)?;
        let checkpoint_start_nanos = self.shared.config.clock.now_nanos();
        // One capture at a time, and none once a shutdown has begun. The
        // claim is mutual exclusion only — no worker pauses under it for
        // longer than its own slot's export — and the guard releases on
        // every exit path, including injected crashes and export failures.
        let _barrier = BarrierGuard::acquire(&self.shared, BarrierOp::Checkpoint)?;
        let epoch = self.shared.checkpoint_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let created_at_nanos = self.shared.config.clock.now_nanos();
        let (base_epoch, base_header) =
            base.map_or((0, Vec::new()), |base| (base.epoch, base.header.clone()));
        let sealing_header = Arc::new(glimmer_wire::snapshot::chained_header_bytes(
            GATEWAY_DELTA_KIND,
            epoch,
            created_at_nanos,
            &base_header,
        ));

        let mut sessions: Vec<SessionRecord> = Vec::new();
        let mut exported_slots = 0u64;
        let mut skipped_slots = 0u64;
        let mut tenants = Vec::with_capacity(self.shared.tenants.len());
        for (tenant_idx, meta) in self.shared.tenants.iter().enumerate() {
            let mut slots = Vec::with_capacity(meta.slots.len());
            for (slot_id, info) in meta.slots.iter().enumerate() {
                let base_slot = base.and_then(|base| base.slot(tenant_idx, slot_id));
                if let Some((base_dirty, base_state)) = base_slot {
                    let first_read = info.gauges.dirty_epoch.load(Ordering::SeqCst);
                    if first_read == base_dirty {
                        // Clean fast path: no barrier, no ECALL. Capture the
                        // rows, then re-read the epoch — a concurrent
                        // mutation between the reads falls back to the
                        // barriered export below (the worker bumps the
                        // epoch before touching the enclave, so an
                        // unchanged epoch proves the rows match the base's
                        // sealed state).
                        let mark = sessions.len();
                        self.capture_slot_sessions(tenant_idx, slot_id, &mut sessions);
                        if info.gauges.dirty_epoch.load(Ordering::SeqCst) == first_read {
                            slots.push(SlotSnapshot {
                                slot_id,
                                dirty_epoch: first_read,
                                // The base's export stays authoritative for
                                // this slot; carry its enclave epoch so the
                                // next delta in the chain keeps skipping it.
                                state_epoch: base_state,
                                sealed_state: None,
                                stats: crate::stats::SlotStats::default(),
                            });
                            skipped_slots += 1;
                            continue;
                        }
                        sessions.truncate(mark);
                    }
                }
                // Slot-level claim: a migration racing this capture loses on
                // exactly the contended slot (typed `BarrierConflict`), and
                // a capture reaching a slot that is mid-migration backs off
                // the same way instead of waiting on its parked worker.
                // Held across the crash hook below so the hook observes the
                // mid-slot state, which is what the rebalance regression
                // test races against.
                let claim = SlotClaim::acquire(&info.gauges, BarrierOp::Checkpoint)?;
                let export = self.export_slot_barrier(
                    tenant_idx,
                    slot_id,
                    &sealing_header,
                    base_slot.map(|(_, state)| state),
                    &mut sessions,
                )?;
                if export.sealed_state.is_some() {
                    exported_slots += 1;
                } else {
                    skipped_slots += 1;
                }
                slots.push(SlotSnapshot {
                    slot_id,
                    dirty_epoch: export.dirty_epoch,
                    state_epoch: export.state_epoch,
                    sealed_state: export.sealed_state,
                    stats: Self::persisted_stats(&export.stats),
                });
                crash(CrashPoint::MidStreamExport)?;
                drop(claim);
            }
            tenants.push((meta, slots));
        }
        sessions.sort_unstable_by_key(|record| record.session_id);
        // The cheap shared state closes out the capture: read *after* the
        // per-slot exports, so each value is a superset of what the
        // exported slots saw — safe over-counts (ids never reissue below
        // the counter; quota counters are cumulative).
        let next_session_id = self
            .shared
            .table
            .lock()
            .expect("session table poisoned")
            .next_id();
        let tenants = tenants
            .into_iter()
            .map(|(meta, slots)| TenantSnapshot {
                name: meta.name.to_string(),
                measurement: meta.measurement,
                counters: meta.counters.snapshot(),
                slots,
            })
            .collect();
        let frame = GatewaySnapshot {
            epoch,
            created_at_nanos,
            base_epoch,
            base_header,
            slots_per_tenant: self.shared.config.slots_per_tenant,
            next_session_id,
            submit_commands: self.shared.submit_commands.load(Ordering::SeqCst),
            tenants,
            sessions,
        };
        crash(CrashPoint::SnapshotAssembled)?;
        let telemetry = &self.shared.telemetry;
        telemetry.count_checkpoint_slots(exported_slots, skipped_slots);
        let elapsed = self
            .shared
            .config
            .clock
            .now_nanos()
            .saturating_sub(checkpoint_start_nanos);
        match base {
            None => telemetry.record_checkpoint(elapsed),
            Some(_) => telemetry.record_delta_checkpoint(elapsed),
        }
        Ok(frame)
    }

    /// Zeroes the per-incarnation fields of a slot's captured stats so the
    /// snapshot value round-trips exactly through its serialization (the
    /// codec does not persist them): wall-clock latency and ECALL counts
    /// restart with the process, queues are not persisted, and sessions
    /// re-pin via the restored table.
    fn persisted_stats(stats: &crate::stats::SlotStats) -> crate::stats::SlotStats {
        crate::stats::SlotStats {
            drain_nanos: 0,
            ecalls: 0,
            active_sessions: 0,
            queue_depth: 0,
            last_drain_queue_depth: 0,
            ..stats.clone()
        }
    }

    /// Appends one slot's Established session rows to `sessions`. Called
    /// while the slot's owning worker is paused at an export barrier (or,
    /// on the delta fast path, bracketed by dirty-epoch re-reads), so every
    /// row captured here has its channel keys in the slot's captured state.
    fn capture_slot_sessions(
        &self,
        tenant_idx: usize,
        slot_id: usize,
        sessions: &mut Vec<SessionRecord>,
    ) {
        let table = self.shared.table.lock().expect("session table poisoned");
        sessions.extend(
            table
                .iter()
                .filter(|(_, entry)| {
                    entry.tenant_idx == tenant_idx
                        && entry.slot == slot_id
                        && entry.state == SessionState::Established
                })
                .map(|(id, entry)| SessionRecord {
                    session_id: *id,
                    tenant_idx: entry.tenant_idx,
                    slot: entry.slot,
                    opened_at_nanos: entry.opened_at_nanos,
                }),
        );
    }

    /// Runs one slot's two-phase export barrier: pauses the owning worker,
    /// captures the slot's Established rows while it is paused, then
    /// releases the worker to export the slot (skipping the seal when the
    /// enclave's state epoch still equals `known_state_epoch`) and returns
    /// its reply. Only this slot's shard pauses; every other shard keeps
    /// serving.
    /// Callers hold the slot's [`SlotClaim`] around this call: the claim is
    /// what keeps a concurrent migration from moving the slot between the
    /// location read below and the barrier command landing on its worker.
    fn export_slot_barrier(
        &self,
        tenant_idx: usize,
        slot_id: usize,
        header: &Arc<Vec<u8>>,
        known_state_epoch: Option<u64>,
        sessions: &mut Vec<SessionRecord>,
    ) -> Result<SlotExport> {
        let (ready_tx, ready_rx) = channel();
        let (go_tx, go_rx) = channel();
        let info = &self.shared.tenants[tenant_idx].slots[slot_id];
        let header = Arc::clone(header);
        let reply = self.on_slot(info, move |worker, slot, reply| {
            // Paused for exactly one slot's export: nothing on this shard
            // mutates enclave or stats state until the capture releases it.
            // An abandoned export (false, or the caller died) resumes
            // serving with nothing sealed.
            let _ = ready_tx.send(());
            if !matches!(go_rx.recv(), Ok(true)) {
                return;
            }
            let ws = ShardWorker::occupied_at(&mut worker.slots[slot]);
            reply.complete(ws.slot.export_checkpoint(&header, known_state_epoch).map(
                |(state_epoch, sealed_state, stats)| SlotExport {
                    dirty_epoch: ws.slot.dirty_epoch,
                    state_epoch,
                    sealed_state,
                    stats,
                },
            ));
        })?;
        ready_rx
            .recv()
            .map_err(|_| GatewayError::RuntimeUnavailable)?;
        // The worker is paused: nothing mutates this slot's enclave between
        // this row capture and the export below, so the per-slot cut is
        // consistent in the direction that matters (every captured row has
        // its keys in the export; orphaned keys are pruned at restore).
        self.capture_slot_sessions(tenant_idx, slot_id, sessions);
        let _ = go_tx.send(true);
        block_on(reply)?
    }

    /// Live-migrates one tenant pool slot to `target_shard` while the rest
    /// of the fleet keeps serving. The protocol: claim the slot (typed
    /// [`GatewayError::BarrierConflict`] if a capture holds it), pause its
    /// source worker, seal the enclave state at the handoff point (a
    /// crash-recovery artifact, AAD-bound to the migration header), move
    /// the whole live slot — enclave handle, queued work, gauges — to the
    /// target worker, and retarget the routing table in one atomic store.
    /// The source worker stays paused until the commit, so no command can
    /// reach the slot's tombstone before the routing table points at the
    /// new owner; strays that raced the in-flight window forward through
    /// the tombstone (their completers travel with them), and a trailing
    /// FIFO fence on the source shard flushes them before this returns.
    ///
    /// Naming the shard the slot already lives on is a no-op that still
    /// reports success (`from_shard == to_shard`, nothing sealed or moved).
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownTenant`] / [`GatewayError::UnknownSlot`] /
    /// [`GatewayError::UnknownShard`] for a bad address;
    /// [`GatewayError::BarrierConflict`] when a checkpoint or a shutdown
    /// holds the gateway-wide barrier (a capture claims it for its whole
    /// walk, not just while it is on this slot);
    /// [`GatewayError::Glimmer`] when the
    /// handoff seal fails; [`GatewayError::CrashInjected`] when the config's
    /// [`crash_hooks`](GatewayConfig::crash_hooks) fire at one of
    /// [`CrashPoint::MIGRATION`]. In every error case the slot is still (or
    /// again) owned by its source shard, with its queue intact, and keeps
    /// serving: no endorsement is lost or duplicated.
    pub fn migrate_slot(
        &self,
        tenant: &str,
        slot_id: usize,
        target_shard: usize,
    ) -> Result<MigrationReport> {
        let crash = |point| crash_at(&self.shared.config, point);
        if target_shard >= self.senders.len() {
            return Err(GatewayError::UnknownShard {
                shard: target_shard,
                shards: self.senders.len(),
            });
        }
        let tenant_idx = self.shared.tenant_idx(tenant)?;
        let info = self.shared.tenants[tenant_idx]
            .slots
            .get(slot_id)
            .ok_or_else(|| GatewayError::UnknownSlot {
                tenant: tenant.to_string(),
                slot: slot_id,
            })?;
        let start_nanos = self.shared.config.clock.now_nanos();
        // Slot first, fleet second: a capture does the mirror image (fleet
        // barrier first, then each slot's claim as it reaches it), so with
        // SeqCst on both sides at least one of two racing coordinators
        // observes the other and fails typed — never a capture's export
        // barrier landing on a slot that is being moved.
        let _claim = SlotClaim::acquire(&info.gauges, BarrierOp::Rebalance)?;
        let fleet = self.shared.barrier.load(Ordering::SeqCst);
        if fleet != BARRIER_IDLE {
            return Err(GatewayError::BarrierConflict {
                in_progress: BarrierOp::decode(fleet)
                    .expect("a non-idle barrier always holds an encoded op"),
                requested: BarrierOp::Rebalance,
            });
        }
        // One migration at a time: two in opposite directions would each
        // pause the worker the other's import needs.
        let _coordinator = self
            .shared
            .migration
            .lock()
            .expect("migration coordinators never panic under this lock");
        let from_shard = info.shard();
        if from_shard == target_shard {
            return Ok(MigrationReport {
                tenant: tenant.to_string(),
                slot_id,
                from_shard,
                to_shard: target_shard,
                queued_moved: 0,
                sealed_bytes: 0,
                state_epoch: 0,
                duration_nanos: 0,
            });
        }
        // The handoff seal binds to the *current* checkpoint epoch — a
        // migration is not a checkpoint and consumes no epoch.
        let header = Arc::new(glimmer_wire::snapshot::header_bytes(
            GATEWAY_DELTA_KIND,
            self.shared.checkpoint_epoch.load(Ordering::SeqCst),
            self.shared.config.clock.now_nanos(),
        ));
        let (ready_tx, ready_rx) = channel();
        let (go_tx, go_rx) = channel();
        let (done_tx, done_rx) = channel();
        let reply = self.on_slot(info, move |worker, slot, reply| {
            // Paused: the coordinator captures nothing here (the session
            // table needs no change — entries key on (tenant, slot), not
            // shard), but the two-phase shape lets it abort cleanly before
            // anything is touched.
            let _ = ready_tx.send(());
            if !matches!(go_rx.recv(), Ok(true)) {
                return;
            }
            match Self::hand_off(worker, slot, &header) {
                Ok(package) => {
                    reply.complete(Ok(package));
                    // Stay paused until the coordinator commits (`None`:
                    // the tombstone stays forever) or aborts (`Some`:
                    // reinstall at the old index and resume as if nothing
                    // happened). While the slot is in flight nothing drains
                    // this queue, so no stray command can reach the
                    // tombstone before the routing table points at the new
                    // owner. A coordinator that died mid-handoff took the
                    // slot with it; there is nothing to reinstall.
                    if let Ok(Some(ws)) = done_rx.recv() {
                        worker.slots[slot] = SlotEntry::Occupied(ws);
                    }
                }
                // The seal failed: the slot never left this worker.
                Err(e) => reply.complete(Err(e)),
            }
        })?;
        ready_rx
            .recv()
            .map_err(|_| GatewayError::RuntimeUnavailable)?;
        // The source worker is paused. `MidMigrationExport` models the
        // process dying before the slot was touched: release the worker
        // untouched and fail.
        if let Err(e) = crash(CrashPoint::MidMigrationExport) {
            let _ = go_tx.send(false);
            self.shared.telemetry.record_migration_aborted();
            return Err(e);
        }
        if go_tx.send(true).is_err() {
            return Err(GatewayError::RuntimeUnavailable);
        }
        let package = match block_on(reply)? {
            Ok(package) => package,
            Err(e) => {
                // The export failed inside the worker; the slot never left.
                self.shared.telemetry.record_migration_aborted();
                return Err(e);
            }
        };
        let queued_moved = info.gauges.queue_depth.load(Ordering::SeqCst);
        let sealed_bytes = package.sealed_state.len();
        let state_epoch = package.state_epoch;
        // The slot is in flight and its source worker is parked on `done`.
        // Both remaining crash points unwind identically — hand the slot
        // straight back to the worker that still logically owns it.
        // `SlotHandedOff` models dying with the slot in transit;
        // `MidMigrationImport` models dying at the import boundary (the
        // commit below is one atomic store, so no partially-imported state
        // exists to distinguish the two on recovery).
        if let Err(e) =
            crash(CrashPoint::SlotHandedOff).and_then(|()| crash(CrashPoint::MidMigrationImport))
        {
            let _ = done_tx.send(Some(package.worker));
            self.shared.telemetry.record_migration_aborted();
            return Err(e);
        }
        let (import_tx, imported) = completion_pair();
        if let Err(send_err) = self.senders[target_shard].send(ShardCommand::MigrateIn {
            worker: package.worker,
            reply: import_tx,
        }) {
            // Target worker gone (runtime tearing down): fail closed by
            // reinstalling the slot on its source shard.
            if let ShardCommand::MigrateIn { worker, .. } = send_err.0 {
                let _ = done_tx.send(Some(worker));
            }
            self.shared.telemetry.record_migration_aborted();
            return Err(GatewayError::RuntimeUnavailable);
        }
        let new_idx = block_on(imported)?;
        // Commit: one SeqCst store retargets every future routing read.
        // From here the migration is irrevocable.
        info.set_location(target_shard, new_idx);
        if done_tx.send(None).is_err() {
            return Err(GatewayError::RuntimeUnavailable);
        }
        // Flush strays: the queue is FIFO, so this fence's reply proves
        // every command the routing layer sent to the source shard before
        // the commit has been served — forwarded through the tombstone or
        // answered — before the migration call returns.
        let (fence_tx, fenced) = completion_pair();
        let op = Box::new(move |_: &mut ShardWorker| fence_tx.complete(()));
        self.send(from_shard, ShardCommand::OnShard { op })?;
        block_on(fenced)?;
        let duration_nanos = self
            .shared
            .config
            .clock
            .now_nanos()
            .saturating_sub(start_nanos);
        self.shared.telemetry.record_migration(duration_nanos);
        Ok(MigrationReport {
            tenant: tenant.to_string(),
            slot_id,
            from_shard,
            to_shard: target_shard,
            queued_moved,
            sealed_bytes,
            state_epoch,
            duration_nanos,
        })
    }

    /// The source worker's side of a migration handoff: seals the slot's
    /// state (the crash-recovery artifact), extracts the live
    /// [`WorkerSlot`] and leaves a forwarding tombstone in its place. On a
    /// sealing error the slot is left untouched.
    fn hand_off(worker: &mut ShardWorker, slot: usize, header: &[u8]) -> Result<MigrationPackage> {
        let ws = ShardWorker::occupied_at(&mut worker.slots[slot]);
        let (state_epoch, sealed_state, _stats) = ws.slot.export_checkpoint(header, None)?;
        let sealed_state = sealed_state.expect("a forced export always seals");
        let tombstone = SlotEntry::Moved {
            tenant_idx: ws.tenant_idx,
            slot_id: ws.slot.slot_id,
        };
        let SlotEntry::Occupied(worker) = std::mem::replace(&mut worker.slots[slot], tombstone)
        else {
            unreachable!("the entry was occupied two statements ago")
        };
        Ok(MigrationPackage {
            worker,
            sealed_state,
            state_epoch,
        })
    }

    /// Rebuilds a serving gateway from a root frame (a full
    /// [`Gateway::checkpoint`]) plus its ordered deltas, on the same
    /// (simulated) machine, without re-running tenant provisioning — the
    /// restore counterpart of [`Gateway::checkpoint`] and
    /// [`Gateway::checkpoint_delta`]. Each pool slot's enclave is recreated
    /// from the descriptor and refilled from its sealed state export in a
    /// single `IMPORT_STATE` ECALL — no service-key provisioning, no session
    /// re-handshakes, no mask re-installs. Devices that held established
    /// sessions keep serving with the channel keys they already have.
    ///
    /// The chain is validated fail-closed *before* any enclave is touched
    /// (the base must be a root frame — empty base header, every slot
    /// sealed — and every delta must name its predecessor's exact epoch and
    /// header bytes; a delta as the base, a root as a delta, gaps, reorders,
    /// and cross-chain splices reject typed as
    /// [`GatewayError::SnapshotChainBroken`]), then folded with one rule:
    /// each slot restores from the **latest** frame that sealed it, under
    /// that frame's [`GatewaySnapshot::sealing_header_bytes`], while the
    /// session table, counters, and id counters come wholesale from the
    /// chain's last frame. A full-checkpoint restore is the empty chain,
    /// `SnapshotChain { base: &snapshot, deltas: &[] }`.
    ///
    /// `rng` stands in for the machine's hardware identity: the platform
    /// fuse secrets are drawn from it with the same fork labels as the
    /// original construction, so it must be a generator in the same state
    /// the original `Gateway::new` received (same seed, same position).
    /// Sealed blobs from any other machine fail closed with
    /// [`GatewayError::SealedBlobRejected`].
    ///
    /// # Errors
    ///
    /// Restore fails closed, with typed errors, on every mismatch:
    /// [`GatewayError::SnapshotChainBroken`] for any chain-link mismatch; a
    /// snapshot taken under a different pool shape or tenant set
    /// ([`GatewayError::SnapshotMismatch`]); corrupted snapshot bytes
    /// ([`GatewayError::SnapshotCorrupt`] from
    /// [`GatewaySnapshot::from_bytes`]); and tampered, spliced, or
    /// cross-measurement sealed state ([`GatewayError::SealedBlobRejected`]).
    /// Even a delta whose chain metadata was forged consistently fails
    /// closed: its sealed blobs are AAD-bound to the true base header inside
    /// the enclave, so the unseal itself refuses. A crash the config's
    /// [`crash_hooks`](GatewayConfig::crash_hooks) inject at
    /// [`CrashPoint::BeforeRestore`] or [`CrashPoint::MidRestore`] fails
    /// with [`GatewayError::CrashInjected`] and leaves the chain untouched
    /// for a retry.
    ///
    /// The restored gateway reads the config's
    /// [`clock`](GatewayConfig::clock), so handing it the config the
    /// crashed incarnation was built with keeps one time source across the
    /// restart.
    ///
    /// # Examples
    ///
    /// See [`Gateway::checkpoint`] for the full checkpoint → crash →
    /// restore round trip, and [`Gateway::checkpoint_delta`] for a chain.
    pub fn restore_chain(
        config: GatewayConfig,
        tenants: Vec<TenantConfig>,
        chain: SnapshotChain<'_>,
        avs: &mut AttestationService,
        rng: &mut Drbg,
    ) -> Result<Self> {
        let clock = Arc::clone(&config.clock);
        let restore_start_nanos = clock.now_nanos();
        let SnapshotChain { base, deltas } = chain;
        // Validate every chain link fail-closed before touching anything.
        // The walk ends on the chain's last frame, whose cheap mutable
        // state the restored gateway takes wholesale.
        Self::check_root(base)?;
        let mut last = base;
        for delta in deltas {
            delta.check_extends(last.epoch, &last.header_bytes())?;
            Self::check_delta_shape(base, delta)?;
            last = delta;
        }
        crash_at(&config, CrashPoint::BeforeRestore)?;
        // Fail closed on any config/snapshot disagreement BEFORE touching an
        // enclave: a wrong restore must never half-build a gateway.
        if config.slots_per_tenant != base.slots_per_tenant {
            return Err(GatewayError::SnapshotMismatch {
                reason: "pool width (slots_per_tenant) differs",
            });
        }
        let tenants = sorted_unique(tenants)?;
        if tenants.len() != base.tenants.len() {
            return Err(GatewayError::SnapshotMismatch {
                reason: "tenant set differs",
            });
        }
        let expected_slots = config.slots_per_tenant.max(1);
        for (tenant, snap) in tenants.iter().zip(&base.tenants) {
            if tenant.name != snap.name {
                return Err(GatewayError::SnapshotMismatch {
                    reason: "tenant names differ",
                });
            }
            if tenant.descriptor.measurement() != snap.measurement {
                return Err(GatewayError::SnapshotMismatch {
                    reason: "tenant measurement differs",
                });
            }
            if snap.slots.len() != expected_slots {
                return Err(GatewayError::SnapshotMismatch {
                    reason: "slot count differs",
                });
            }
            for (i, slot) in snap.slots.iter().enumerate() {
                if slot.slot_id != i {
                    return Err(GatewayError::SnapshotMismatch {
                        reason: "slot ids not contiguous",
                    });
                }
            }
        }
        // One pass over the session rows validates them and buckets each
        // slot's authoritative live set: the enclave keeps exactly these
        // sessions and erases any orphans its sealed export carried
        // (sessions closed concurrently with the slot's export barrier).
        let mut live_sessions: Vec<Vec<Vec<u64>>> = base
            .tenants
            .iter()
            .map(|tenant| vec![Vec::new(); tenant.slots.len()])
            .collect();
        let mut seen_ids: BTreeSet<u64> = BTreeSet::new();
        for record in &last.sessions {
            let valid =
                record.session_id < last.next_session_id && seen_ids.insert(record.session_id);
            let bucket = live_sessions
                .get_mut(record.tenant_idx)
                .and_then(|slots| slots.get_mut(record.slot));
            match bucket {
                Some(bucket) if valid => bucket.push(record.session_id),
                _ => {
                    return Err(GatewayError::SnapshotMismatch {
                        reason: "invalid session record",
                    })
                }
            }
        }

        // Every frame seals the slots it exported under its own chained
        // header (a root's is its plain header).
        let frames: Vec<(&GatewaySnapshot, Vec<u8>)> = std::iter::once(base)
            .chain(deltas)
            .map(|frame| (frame, frame.sealing_header_bytes()))
            .collect();
        let mut builds = Vec::with_capacity(tenants.len());
        for (tenant_idx, (tenant, snap)) in tenants.iter().zip(&base.tenants).enumerate() {
            let name: Arc<str> = Arc::from(tenant.name.as_str());
            let mut slots = Vec::with_capacity(snap.slots.len());
            for (slot_id, live) in live_sessions[tenant_idx].iter().enumerate() {
                // The fold, per slot and by reference: the latest frame
                // that sealed the slot wins, with that frame's AAD; a clean
                // fast-path entry (`sealed_state: None`, default stats)
                // never does.
                let (sealed_state, aad, stats) = frames
                    .iter()
                    .rev()
                    .find_map(|(frame, aad)| {
                        let slot = &frame.tenants[tenant_idx].slots[slot_id];
                        Some((slot.sealed_state.as_ref()?, aad, &slot.stats))
                    })
                    .expect("the root frame seals every slot");
                let dirty_epoch = last.tenants[tenant_idx].slots[slot_id].dirty_epoch;
                let slot = PoolSlot::restore(
                    tenant,
                    config.platform_config.clone(),
                    rng,
                    avs,
                    SlotRestore {
                        slot_id,
                        aad,
                        sealed_state,
                        dirty_epoch,
                        stats,
                        live_sessions: live,
                    },
                )
                .map_err(|e| match e {
                    // The enclave refused the sealed state: tampered,
                    // spliced from another snapshot, wrong measurement, or
                    // wrong machine. Typed, tenant-labelled, fail-closed.
                    GatewayError::Glimmer(GlimmerError::Sgx(SgxError::UnsealDenied(_))) => {
                        GatewayError::SealedBlobRejected {
                            tenant: name.clone(),
                        }
                    }
                    other => other,
                })?;
                slots.push(slot);
            }
            builds.push(TenantBuild {
                name,
                quota: tenant.quota.clone(),
                measurement: snap.measurement,
                counters: TenantCounters::from_stats(&last.tenants[tenant_idx].counters),
                slots,
            });
            if tenant_idx == 0 {
                crash_at(&config, CrashPoint::MidRestore)?;
            }
        }

        // Re-seat the established sessions: the enclaves hold their channel
        // keys again (restored from sealed state), the devices never lost
        // theirs, so the table entry is all the routing layer needs.
        let entries = last.sessions.iter().map(|record| {
            (
                record.session_id,
                SessionEntry {
                    tenant: builds[record.tenant_idx].name.clone(),
                    tenant_idx: record.tenant_idx,
                    slot: record.slot,
                    state: SessionState::Established,
                    opened_at_nanos: record.opened_at_nanos,
                },
            )
        });
        let table = SessionTable::restore(entries, last.next_session_id);
        let gateway = Self::assemble(config, builds, table, last.epoch, last.submit_commands)?;
        // The restore-duration histogram lives in the *new* incarnation's
        // hub: the whole rebuild (validation, per-slot IMPORT_STATE ECALLs,
        // table re-seat, worker spawn) is one observation.
        gateway
            .shared
            .telemetry
            .record_restore(clock.now_nanos().saturating_sub(restore_start_nanos));
        Ok(gateway)
    }

    /// Rejects a chain base that is not a root frame: one that extends
    /// another frame, or leaves a slot unsealed and so gives the restore
    /// fold a slot with no frame to restore from.
    fn check_root(base: &GatewaySnapshot) -> Result<()> {
        let sealed = base
            .tenants
            .iter()
            .flat_map(|tenant| &tenant.slots)
            .all(|slot| slot.sealed_state.is_some());
        if base.base_epoch == 0 && base.base_header.is_empty() && sealed {
            Ok(())
        } else {
            Err(GatewayError::SnapshotChainBroken {
                reason: "chain base is not a full checkpoint",
            })
        }
    }

    /// Rejects a delta whose tenant/slot shape differs from the chain's
    /// base — the restore fold indexes them positionally, so shape
    /// agreement must be proven first.
    fn check_delta_shape(base: &GatewaySnapshot, delta: &GatewaySnapshot) -> Result<()> {
        let shape_ok = delta.slots_per_tenant == base.slots_per_tenant
            && delta.tenants.len() == base.tenants.len()
            && delta.tenants.iter().zip(&base.tenants).all(|(dt, bt)| {
                dt.name == bt.name
                    && dt.measurement == bt.measurement
                    && dt.slots.len() == bt.slots.len()
                    && dt
                        .slots
                        .iter()
                        .zip(&bt.slots)
                        .all(|(ds, bs)| ds.slot_id == bs.slot_id)
            });
        if shape_ok {
            Ok(())
        } else {
            Err(GatewayError::SnapshotChainBroken {
                reason: "delta pool shape does not match the chain's base",
            })
        }
    }

    /// A labelled snapshot of every counter the gateway keeps: tenant
    /// counters read from the shared atomics, per-slot drain counters
    /// collected from each shard worker and merged (rows come back in
    /// deterministic tenant/slot order).
    #[must_use]
    pub fn stats(&self) -> GatewayStats {
        let mut stats = GatewayStats {
            submit_commands: self.shared.submit_commands.load(Ordering::SeqCst),
            ..GatewayStats::default()
        };
        for meta in &self.shared.tenants {
            stats
                .tenants
                .push((meta.name.to_string(), meta.counters.snapshot()));
        }
        let rows = block_on(self.fan_out(|reply| ShardCommand::OnShard {
            op: Box::new(move |worker| reply.complete(Self::slot_stats(worker))),
        }));
        stats.slots.extend(rows.into_iter().flatten().flatten());
        stats
            .slots
            .sort_by(|a, b| (&a.tenant, a.slot).cmp(&(&b.tenant, b.slot)));
        stats
    }

    /// One shard worker's per-slot stats rows, live gauges folded in.
    fn slot_stats(worker: &ShardWorker) -> Vec<SlotStatsRow> {
        worker
            .slots
            .iter()
            .filter_map(SlotEntry::occupied)
            .map(|ws| {
                let mut stats = ws.slot.stats();
                stats.active_sessions = ws.gauges.active_sessions.load(Ordering::SeqCst);
                SlotStatsRow {
                    tenant: worker.shared.tenants[ws.tenant_idx].name.to_string(),
                    slot: ws.slot.slot_id,
                    shard: worker.shard_id,
                    stats,
                }
            })
            .collect()
    }

    /// A lock-free, point-in-time [`TelemetrySnapshot`] of every telemetry
    /// series: admission counters, per-shard gauges, latency histograms,
    /// sampled traces, and the rejection journal. Reads the per-shard
    /// registries without any worker round-trip, so it is safe to call from
    /// a scrape loop at any frequency; render it with
    /// [`TelemetrySnapshot::render_prometheus`].
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.shared.telemetry.snapshot()
    }

    /// The shared [`Telemetry`] hub itself, for components that record into
    /// the same registries as the serving path (the async front-end's
    /// executor attaches itself through this).
    #[must_use]
    pub fn telemetry_handle(&self) -> Arc<Telemetry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// Graceful shutdown: drains in-flight work to completion, stops every
    /// shard worker, and returns the final responses. (Plain `drop` also
    /// stops the workers, but abandons whatever was still queued.)
    ///
    /// Requests stuck behind a *persistently failing* enclave cannot ever
    /// produce replies — keeping the gateway alive would not deliver them
    /// either — so they are abandoned, counted into their tenant's `dropped`
    /// counter, and the drain error is returned only when nothing at all was
    /// drained. Everything drainable is drained and returned.
    ///
    /// # Errors
    ///
    /// [`GatewayError::BarrierConflict`] when a [`Gateway::checkpoint`]
    /// still holds the gateway-wide barrier — stopping the workers under a
    /// capture that is mid-export would fail it half-way, so shutdown
    /// refuses typed instead. A refused shutdown degrades to exactly
    /// the plain-`drop` behaviour: `self` is consumed, the workers stop
    /// once the in-flight checkpoint releases them, and queued work is
    /// abandoned (there is no gateway left to retry on — callers that need
    /// the drained replies must sequence shutdown *after* checkpoints).
    /// Safe single-owner code cannot actually reach this arm — a
    /// checkpoint borrows `&self` while `shutdown` needs ownership — it is
    /// the fail-typed backstop that keeps any future by-ref shutdown or
    /// exotic sharing from turning the race into a worker deadlock.
    /// Otherwise, a drain error surfaces only when nothing at all could be
    /// drained.
    pub fn shutdown(mut self) -> Result<Vec<GatewayResponse>> {
        // Claim the barrier permanently: no capture or migration may pause
        // workers that are about to stop, and a checkpoint already under
        // way must finish before the shutdown drain begins.
        match BarrierGuard::acquire(&self.shared, BarrierOp::Shutdown) {
            Ok(guard) => guard.persist(),
            // Dropping `self` still stops the workers (Drop), so a refused
            // shutdown degrades to the plain-drop behaviour: workers exit,
            // queued work is abandoned, nothing hangs or panics.
            Err(e) => return Err(e),
        }
        let drained = self.drain_all();
        // Account (visibly, not silently) for anything a failing slot left
        // behind: `drain_all` only leaves a queue non-empty when its enclave
        // kept erroring.
        for meta in &self.shared.tenants {
            let abandoned = meta.queued.load(Ordering::SeqCst) as u64;
            if abandoned > 0 {
                meta.counters.dropped.fetch_add(abandoned, Ordering::SeqCst);
            }
        }
        self.stop_workers();
        drained
    }

    fn stop_workers(&mut self) {
        for sender in &self.senders {
            // Workers that already exited have dropped their receiver; that
            // is fine.
            let _ = sender.send(ShardCommand::Shutdown);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimmer_core::host::GlimmerDescriptor;
    use glimmer_core::signing::ServiceKeyMaterial;

    #[test]
    fn a_slot_op_sent_to_a_stale_address_is_answered_by_the_new_owner() {
        let mut rng = Drbg::from_seed([90; 32]);
        let mut avs = AttestationService::new([91; 32]);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        let gateway = Gateway::new(
            GatewayConfig {
                slots_per_tenant: 1,
                shards: 2,
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
        let info = &gateway.shared.tenants[0].slots[0];
        let stale = info.location();
        assert_eq!(stale.0, 0);
        gateway.migrate_slot("iot-telemetry.example", 0, 1).unwrap();
        assert_eq!(info.shard(), 1);

        // The op lands on the old owner's tombstone, which forwards it.
        let (reply, answered) = completion_pair();
        let op = Box::new(move |worker: &mut ShardWorker, slot| {
            reply.complete((worker.shard_id, slot));
        });
        gateway
            .send(stale.0, ShardCommand::OnSlot { slot: stale.1, op })
            .unwrap();
        assert_eq!(block_on(answered).unwrap(), info.location());
    }
}
