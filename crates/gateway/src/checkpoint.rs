//! Crash-safe checkpoint/restore: the gateway's snapshot format and the
//! crash-fault-injection hooks that prove it correct.
//!
//! A gateway restart used to throw away every provisioned enclave, sealed
//! service key, and session table — millions of devices re-handshaking at
//! once. A [`GatewaySnapshot`] captures everything needed to resume serving
//! instead: per-slot enclave state **sealed by the enclaves themselves**
//! (under `SealPolicy::MrEnclave`, with the snapshot header as AAD), the
//! established-session table, per-tenant quota counters, and serving stats.
//! [`crate::Gateway::checkpoint`] produces one;
//! [`crate::Gateway::restore_chain`] rebuilds a serving gateway from one
//! without re-running a single tenant provisioning or session-handshake
//! ECALL.
//!
//! # What is deliberately *not* persisted
//!
//! * **In-flight queue entries** — a queued request is not yet acknowledged
//!   to its device, so the device retransmits it after a restart (its replay
//!   nonce was only recorded at processing time, so the retransmission is
//!   accepted exactly once).
//! * **Pending handshakes** — their ephemeral DH secrets must die with the
//!   process; devices reopen their sessions.
//! * **Tenant confidential predicates** — re-installed by the tenant over
//!   its attested channel.
//!
//! # Integrity and binding
//!
//! The snapshot envelope is the CRC-guarded, versioned
//! [`glimmer_wire::snapshot`] frame: truncation, bit rot, and version skew
//! all surface as typed [`crate::GatewayError::SnapshotCorrupt`] errors.
//! Each slot's sealed state uses the frame's header bytes as sealing AAD, so
//! a blob spliced in from a different snapshot (or tampered, or sealed by a
//! different enclave build, or on a different machine) fails closed as
//! [`crate::GatewayError::SealedBlobRejected`].
//!
//! # Delta snapshots and chains
//!
//! A full snapshot re-exports every slot even when most of a huge pool sat
//! idle. A [`GatewayDelta`] instead re-runs the (sealing) state export only
//! for slots whose dirty-epoch advanced since a *base* frame — the previous
//! full snapshot or the previous delta — and records just those blobs plus
//! the (cheap) session table and quota counters. Each delta names its base
//! by epoch **and** canonical header bytes, and its sealed blobs use the
//! chained AAD `delta header ‖ base header`
//! ([`glimmer_wire::snapshot::chained_header_bytes`]), so a delta spliced
//! onto the wrong base fails twice over: the chain check rejects it typed
//! ([`crate::GatewayError::SnapshotChainBroken`]) before any enclave is
//! touched, and even a forged link fails AEAD authentication inside the
//! enclave. Restore replays base + ordered deltas fail-closed: a gap,
//! reorder, or mismatched base is a typed error, never a partial restore.
//!
//! # Security notes and limitations
//!
//! * **No rollback protection.** A snapshot is a point-in-time capture with
//!   nothing binding it to "latest": whoever holds the machine can restore
//!   an *older* snapshot, resetting replay windows, endorsement
//!   counters, and auditor budgets to their values *as of that capture* —
//!   traffic processed after the capture becomes replayable and budget
//!   consumed after it is forgotten. Real SGX pairs sealed state with
//!   hardware monotonic counters to close exactly this; the simulator does
//!   not model them. What restore *does* guarantee is that counters never
//!   regress past the restored snapshot's own capture point, and that a
//!   snapshot cannot be altered, spliced, or moved between machines.
//!   **Delta chains inherit this wholesale**: chain validation proves a
//!   delta extends *its* base, not that the chain is the *latest* one —
//!   whoever holds the machine can still restore base + a truncated prefix
//!   of deltas and resume from that older point. Truncating a chain is
//!   exactly as powerful as restoring an older full snapshot, no more.
//! * **Point-in-time restore forks history.** A restored gateway resumes
//!   epoch numbering at the restored frame's epoch (the last delta's, for a
//!   chain), so restoring a non-latest snapshot can mint a second snapshot
//!   with an epoch an abandoned one already used. Operators must discard
//!   snapshots and deltas with epochs above the restored one (the same
//!   log-truncation rule as any point-in-time recovery); the clock reading
//!   in the header separates such twins only when the clock actually
//!   advanced.
//! * **Tenant counters are captured last.** The slot-at-a-time capture
//!   keeps shards serving while earlier slots export, so quota counters
//!   read at the end can include work a just-exported slot performed after
//!   its export. Over-counting is the
//!   safe direction for endorsement budgets (a restored gateway can only
//!   under-spend, never over-spend, relative to true history).
//!
//! # Crash-fault injection
//!
//! The checkpoint, restore and migration paths are threaded with labelled
//! [`CrashPoint`]s, reported to the [`CrashHooks`] installed once in
//! [`GatewayConfig::crash_hooks`](crate::GatewayConfig::crash_hooks) — the
//! field beside [`GatewayConfig::clock`](crate::GatewayConfig::clock), and
//! the same injection pattern. Production uses the no-op [`NoCrash`]; the
//! crash matrices install one [`CrashAt`], arm it before the verb they want
//! to kill, and assert each snapshot either restores bit-identically or is
//! rejected with a typed error. No verb takes an injection argument.

use crate::error::{GatewayError, Result};
use crate::stats::{SlotStats, TenantStats};
use glimmer_wire::snapshot::{self, SnapshotFrame};
use glimmer_wire::{Decoder, Encoder};
use sgx_sim::Measurement;
use std::sync::Mutex;

/// Snapshot-frame kind tag for a full gateway snapshot.
pub const GATEWAY_SNAPSHOT_KIND: u16 = 1;

/// Snapshot-frame kind tag for a gateway *delta* snapshot (see
/// [`GatewayDelta`]).
pub const GATEWAY_DELTA_KIND: u16 = 2;

/// The labelled points at which an injected fault can kill the gateway
/// between checkpoint and restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before any checkpoint work has started.
    BeforeCheckpoint,
    /// Fired after each slot's barriered export completes and its worker
    /// has resumed serving — the gateway dies with some slots exported and
    /// the rest not. The capture still holds the slot's quiesce claim at
    /// this point, so a migration racing the hook loses with a typed
    /// [`crate::GatewayError::BarrierConflict`]. A delta capture does not
    /// fire it for slots it skips on the clean fast path.
    MidStreamExport,
    /// The captured frame (full snapshot or delta) is fully assembled but
    /// not yet returned/persisted.
    SnapshotAssembled,
    /// Before any restore work has started.
    BeforeRestore,
    /// Mid-restore: the first tenant's slots have imported their sealed
    /// state; the rest have not.
    MidRestore,
    /// Migration only: the source worker is paused at its handoff barrier
    /// but the slot has not been touched — the coordinator dies before the
    /// export, and the worker resumes serving the slot as if nothing
    /// happened.
    MidMigrationExport,
    /// Migration only: the slot has been sealed, exported, and handed to
    /// the coordinator; the routing table still points at the source
    /// shard. The coordinator dies in the in-flight window and the slot is
    /// reinstalled on its source worker (fail-closed).
    SlotHandedOff,
    /// Migration only: the coordinator dies at the import boundary, before
    /// the target worker takes ownership. Recovery is identical to
    /// [`CrashPoint::SlotHandedOff`] — the routing commit is one atomic
    /// store, so no partially-imported state exists between the two.
    MidMigrationImport,
}

impl CrashPoint {
    /// Every labelled crash point, in checkpoint-then-restore-then-migrate
    /// order (the crash-matrix tests iterate this; the checkpoint matrix
    /// filters out the migration-only points, which never fire there).
    pub const ALL: [CrashPoint; 8] = [
        CrashPoint::BeforeCheckpoint,
        CrashPoint::MidStreamExport,
        CrashPoint::SnapshotAssembled,
        CrashPoint::BeforeRestore,
        CrashPoint::MidRestore,
        CrashPoint::MidMigrationExport,
        CrashPoint::SlotHandedOff,
        CrashPoint::MidMigrationImport,
    ];

    /// The migration-only crash points ([`Gateway::migrate_slot`] is the
    /// only code that reaches them).
    ///
    /// [`Gateway::migrate_slot`]: crate::Gateway::migrate_slot
    pub const MIGRATION: [CrashPoint; 3] = [
        CrashPoint::MidMigrationExport,
        CrashPoint::SlotHandedOff,
        CrashPoint::MidMigrationImport,
    ];
}

impl core::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            CrashPoint::BeforeCheckpoint => "before-checkpoint",
            CrashPoint::MidStreamExport => "mid-stream-export",
            CrashPoint::SnapshotAssembled => "snapshot-assembled",
            CrashPoint::BeforeRestore => "before-restore",
            CrashPoint::MidRestore => "mid-restore",
            CrashPoint::MidMigrationExport => "mid-migration-export",
            CrashPoint::SlotHandedOff => "slot-handed-off",
            CrashPoint::MidMigrationImport => "mid-migration-import",
        };
        write!(f, "{name}")
    }
}

/// Injected crash decisions, mirroring the [`crate::Clock`] pattern: the
/// gateway asks the plan in its config. Production keeps the no-op
/// [`NoCrash`]; deterministic tests install [`CrashAt`] (or their own
/// implementation) to kill the gateway at an exact labelled point.
pub trait CrashHooks: Send + Sync + core::fmt::Debug {
    /// Called when execution reaches `point`; returning `true` makes the
    /// surrounding operation abort with
    /// [`crate::GatewayError::CrashInjected`] — the deterministic stand-in
    /// for the process dying right there.
    fn reached(&self, point: CrashPoint) -> bool;
}

/// The production hooks: never crash.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCrash;

impl CrashHooks for NoCrash {
    fn reached(&self, _point: CrashPoint) -> bool {
        false
    }
}

/// Test hooks that crash at one labelled point while armed, and never
/// while disarmed (the default). Arming goes through `&self`, so a test
/// keeps an `Arc` of the plan its gateway holds and re-aims it between
/// steps.
///
/// # Examples
///
/// ```
/// use glimmer_core::host::GlimmerDescriptor;
/// use glimmer_core::signing::ServiceKeyMaterial;
/// use glimmer_crypto::drbg::Drbg;
/// use glimmer_gateway::{CrashAt, CrashPoint, Gateway, GatewayConfig, GatewayError, TenantConfig};
/// use sgx_sim::AttestationService;
/// use std::sync::Arc;
///
/// let mut rng = Drbg::from_seed([4u8; 32]);
/// let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
/// let plan = Arc::new(CrashAt::default());
/// let config = GatewayConfig {
///     slots_per_tenant: 1,
///     crash_hooks: plan.clone(),
///     ..GatewayConfig::default()
/// };
/// let tenant = TenantConfig::new(
///     "maps.example",
///     GlimmerDescriptor::iot_default(Vec::new()),
///     material.secret_bytes(),
/// );
/// let mut avs = AttestationService::new([5u8; 32]);
/// let gateway = Gateway::new(config, vec![tenant], &mut avs, &mut rng).unwrap();
///
/// plan.arm(CrashPoint::SnapshotAssembled);
/// assert_eq!(
///     gateway.checkpoint().unwrap_err(),
///     GatewayError::CrashInjected(CrashPoint::SnapshotAssembled)
/// );
/// plan.disarm();
/// assert!(gateway.checkpoint().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct CrashAt {
    armed: Mutex<Option<CrashPoint>>,
}

impl CrashAt {
    /// Crash at `point` from now on, replacing any earlier target.
    pub fn arm(&self, point: CrashPoint) {
        *self.armed.lock().expect("crash plan poisoned") = Some(point);
    }

    /// Stop crashing.
    pub fn disarm(&self) {
        *self.armed.lock().expect("crash plan poisoned") = None;
    }
}

impl CrashHooks for CrashAt {
    fn reached(&self, point: CrashPoint) -> bool {
        *self.armed.lock().expect("crash plan poisoned") == Some(point)
    }
}

/// Maps a wire decode failure to the typed snapshot-corruption error.
fn parse<T>(result: core::result::Result<T, glimmer_wire::WireError>) -> Result<T> {
    result.map_err(GatewayError::SnapshotCorrupt)
}

// The field groups both frame kinds persist. Wire order is part of the
// format: the round-trip tests pin the bytes.

fn put_tenant_stats(enc: &mut Encoder, c: &TenantStats) {
    for v in [
        c.sessions_opened,
        c.sessions_closed,
        c.submitted,
        c.endorsed,
        c.rejected,
        c.failed,
        c.throttled,
        c.dropped,
    ] {
        enc.put_u64(v);
    }
}

fn get_tenant_stats(dec: &mut Decoder<'_>) -> Result<TenantStats> {
    Ok(TenantStats {
        sessions_opened: parse(dec.get_u64())?,
        sessions_closed: parse(dec.get_u64())?,
        submitted: parse(dec.get_u64())?,
        endorsed: parse(dec.get_u64())?,
        rejected: parse(dec.get_u64())?,
        failed: parse(dec.get_u64())?,
        throttled: parse(dec.get_u64())?,
        dropped: parse(dec.get_u64())?,
    })
}

/// The persisted subset of a slot's stats. `drain_nanos` is deliberately
/// not persisted: wall-clock latency totals are per-incarnation (and would
/// make snapshot bytes non-deterministic — the canary's contract).
fn put_slot_stats(enc: &mut Encoder, s: &SlotStats) {
    for v in [s.batches, s.items, s.max_batch, s.drain_cycles] {
        enc.put_u64(v);
    }
}

fn get_slot_stats(dec: &mut Decoder<'_>) -> Result<SlotStats> {
    Ok(SlotStats {
        batches: parse(dec.get_u64())?,
        items: parse(dec.get_u64())?,
        max_batch: parse(dec.get_u64())?,
        drain_cycles: parse(dec.get_u64())?,
        ..SlotStats::default()
    })
}

fn put_sessions(enc: &mut Encoder, sessions: &[SessionRecord]) {
    enc.put_varint(sessions.len() as u64);
    for record in sessions {
        enc.put_u64(record.session_id);
        enc.put_varint(record.tenant_idx as u64);
        enc.put_varint(record.slot as u64);
        enc.put_u64(record.opened_at_nanos);
    }
}

fn get_sessions(dec: &mut Decoder<'_>) -> Result<Vec<SessionRecord>> {
    let session_count = parse(dec.get_varint())? as usize;
    let mut sessions = Vec::with_capacity(session_count.min(65_536));
    for _ in 0..session_count {
        sessions.push(SessionRecord {
            session_id: parse(dec.get_u64())?,
            tenant_idx: parse(dec.get_varint())? as usize,
            slot: parse(dec.get_varint())? as usize,
            opened_at_nanos: parse(dec.get_u64())?,
        });
    }
    Ok(sessions)
}

/// One pool slot's checkpointed state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Slot index within the tenant's pool.
    pub slot_id: usize,
    /// The enclave's serving state, sealed by the enclave itself under
    /// `MrEnclave` with the snapshot header as AAD. Opaque to the gateway.
    pub sealed_state: Vec<u8>,
    /// The host-side dirty-epoch the owning shard worker had bumped the
    /// slot to when this export was captured. A later delta checkpoint
    /// re-exports the slot only if the live epoch has advanced past this.
    pub dirty_epoch: u64,
    /// The enclave's own state epoch inside the sealed export — the
    /// `known_epoch` a delta checkpoint presents so an idle enclave can
    /// skip re-sealing entirely.
    pub state_epoch: u64,
    /// The slot's drain counters at capture time. Per-incarnation fields
    /// (`active_sessions`, `queue_depth`, `last_drain_queue_depth`,
    /// `ecalls`, `drain_nanos`) are zeroed at capture — they are not
    /// persisted by the codec, restart with the process, and zeroing them
    /// keeps the value equal across a serialization round trip.
    pub stats: SlotStats,
}

/// One tenant's checkpointed state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant name (application id).
    pub name: String,
    /// The measurement devices verify — restore refuses a config whose
    /// descriptor measures differently before any unseal is attempted.
    pub measurement: Measurement,
    /// Per-tenant quota/serving counters at capture time (restoring
    /// `endorsed` is what keeps endorsement budgets enforced across
    /// restarts).
    pub counters: TenantStats,
    /// Per-slot sealed state, in slot-id order.
    pub slots: Vec<SlotSnapshot>,
}

/// One established session row, as persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRecord {
    /// The gateway-issued session id.
    pub session_id: u64,
    /// Index of the owning tenant in the snapshot's tenant list.
    pub tenant_idx: usize,
    /// The pool slot the session is pinned to.
    pub slot: usize,
    /// Clock reading when the session was opened.
    pub opened_at_nanos: u64,
}

/// A full gateway checkpoint: everything needed to rebuild a serving
/// gateway on the same machine without re-running tenant provisioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewaySnapshot {
    /// Checkpoint sequence number. Unique within one gateway incarnation
    /// and resumed from the snapshot on restore; sealed slot state is
    /// AAD-bound to it, so blobs cannot migrate between snapshots. After
    /// restoring a non-latest snapshot, discard the abandoned
    /// higher-epoch snapshots (see the module's security notes).
    pub epoch: u64,
    /// The gateway clock's reading when the snapshot was captured.
    pub created_at_nanos: u64,
    /// Pool width the snapshot was taken under; restore requires the same.
    pub slots_per_tenant: usize,
    /// The session-id counter, so a restored gateway never reissues an id
    /// that a live device still holds.
    pub next_session_id: u64,
    /// Gateway-wide submit-command counter (the E13 metric), preserved so
    /// stats stay cumulative across restarts.
    pub submit_commands: u64,
    /// Tenants in deterministic (name) order.
    pub tenants: Vec<TenantSnapshot>,
    /// Established sessions, in session-id order. Pending sessions are
    /// deliberately dropped (devices reopen them).
    pub sessions: Vec<SessionRecord>,
}

impl GatewaySnapshot {
    /// The canonical header bytes of this snapshot — the sealing AAD every
    /// slot's state export is bound to.
    #[must_use]
    pub fn header_bytes(&self) -> Vec<u8> {
        snapshot::header_bytes(GATEWAY_SNAPSHOT_KIND, self.epoch, self.created_at_nanos)
    }

    /// This snapshot's identity and per-slot epoch map, as the base a
    /// subsequent [`crate::Gateway::checkpoint_delta`] extends.
    #[must_use]
    pub fn chain_base(&self) -> ChainBase {
        ChainBase {
            epoch: self.epoch,
            header: self.header_bytes(),
            slot_epochs: self
                .tenants
                .iter()
                .map(|t| slot_epochs(&t.slots, |s| (s.slot_id, s.dirty_epoch, s.state_epoch)))
                .collect(),
        }
    }

    /// Serializes the snapshot into the CRC-guarded persistence format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_varint(self.slots_per_tenant as u64);
        enc.put_u64(self.next_session_id);
        enc.put_u64(self.submit_commands);
        enc.put_varint(self.tenants.len() as u64);
        for tenant in &self.tenants {
            enc.put_str(&tenant.name);
            enc.put_array32(tenant.measurement.as_bytes());
            put_tenant_stats(&mut enc, &tenant.counters);
            enc.put_varint(tenant.slots.len() as u64);
            for slot in &tenant.slots {
                enc.put_varint(slot.slot_id as u64);
                enc.put_bytes(&slot.sealed_state);
                put_slot_stats(&mut enc, &slot.stats);
                enc.put_u64(slot.dirty_epoch);
                enc.put_u64(slot.state_epoch);
            }
        }
        put_sessions(&mut enc, &self.sessions);
        SnapshotFrame {
            kind: GATEWAY_SNAPSHOT_KIND,
            epoch: self.epoch,
            created_at_nanos: self.created_at_nanos,
            payload: enc.into_bytes(),
        }
        .to_bytes()
    }

    /// Parses a serialized snapshot, failing closed with typed errors:
    /// [`GatewayError::SnapshotCorrupt`] for truncation, corruption, version
    /// skew, or malformed payloads — never a panic, never a partial value.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let frame = SnapshotFrame::from_bytes(bytes).map_err(GatewayError::SnapshotCorrupt)?;
        if frame.kind != GATEWAY_SNAPSHOT_KIND {
            return Err(GatewayError::SnapshotMismatch {
                reason: "not a gateway snapshot",
            });
        }
        let mut dec = Decoder::new(&frame.payload);
        let slots_per_tenant = parse(dec.get_varint())? as usize;
        let next_session_id = parse(dec.get_u64())?;
        let submit_commands = parse(dec.get_u64())?;
        let tenant_count = parse(dec.get_varint())? as usize;
        let mut tenants = Vec::with_capacity(tenant_count.min(1024));
        for _ in 0..tenant_count {
            let name = parse(dec.get_str())?;
            let measurement = Measurement(parse(dec.get_array32())?);
            let counters = get_tenant_stats(&mut dec)?;
            let slot_count = parse(dec.get_varint())? as usize;
            let mut slots = Vec::with_capacity(slot_count.min(1024));
            for _ in 0..slot_count {
                let slot_id = parse(dec.get_varint())? as usize;
                let sealed_state = parse(dec.get_bytes())?;
                let stats = get_slot_stats(&mut dec)?;
                let dirty_epoch = parse(dec.get_u64())?;
                let state_epoch = parse(dec.get_u64())?;
                slots.push(SlotSnapshot {
                    slot_id,
                    sealed_state,
                    dirty_epoch,
                    state_epoch,
                    stats,
                });
            }
            tenants.push(TenantSnapshot {
                name,
                measurement,
                counters,
                slots,
            });
        }
        let sessions = get_sessions(&mut dec)?;
        parse(dec.finish())?;
        Ok(GatewaySnapshot {
            epoch: frame.epoch,
            created_at_nanos: frame.created_at_nanos,
            slots_per_tenant,
            next_session_id,
            submit_commands,
            tenants,
            sessions,
        })
    }
}

/// The identity of the frame a delta checkpoint extends: its epoch, its
/// canonical header bytes, and the per-slot (dirty, state) epochs it
/// captured. Produced by [`GatewaySnapshot::chain_base`] /
/// [`GatewayDelta::chain_base`]; consumed by
/// [`crate::Gateway::checkpoint_delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainBase {
    /// The base frame's checkpoint epoch.
    pub epoch: u64,
    /// The base frame's canonical header bytes (plain, un-chained).
    pub header: Vec<u8>,
    /// Per tenant (snapshot order), per slot (slot-id order): the
    /// `(slot_id, dirty_epoch, state_epoch)` the base captured.
    pub slot_epochs: Vec<Vec<(usize, u64, u64)>>,
}

/// One tenant's row of a [`ChainBase`] epoch map: each slot's
/// `(slot_id, dirty_epoch, state_epoch)`, in slot order.
fn slot_epochs<S>(slots: &[S], epochs: impl Fn(&S) -> (usize, u64, u64)) -> Vec<(usize, u64, u64)> {
    slots.iter().map(epochs).collect()
}

impl ChainBase {
    /// The `(dirty_epoch, state_epoch)` the base captured for one slot, if
    /// the base covered it.
    #[must_use]
    pub fn slot(&self, tenant_idx: usize, slot_id: usize) -> Option<(u64, u64)> {
        self.slot_epochs
            .get(tenant_idx)?
            .iter()
            .find_map(|&(id, dirty, state)| {
                if id == slot_id {
                    Some((dirty, state))
                } else {
                    None
                }
            })
    }
}

/// One pool slot's entry in a delta snapshot. Every slot appears (the
/// epoch map and stats must stay current), but only slots that mutated
/// since the base carry a fresh sealed export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaSlot {
    /// Slot index within the tenant's pool.
    pub slot_id: usize,
    /// The host-side dirty-epoch at capture time.
    pub dirty_epoch: u64,
    /// The enclave's state epoch at capture time.
    pub state_epoch: u64,
    /// A fresh sealed export, present exactly when the slot mutated since
    /// the base. Sealed under the *chained* AAD
    /// (`delta header ‖ base header`), unlike a full snapshot's blobs.
    pub sealed_state: Option<Vec<u8>>,
    /// The slot's drain counters at capture time (per-incarnation fields
    /// zeroed, as in [`SlotSnapshot::stats`]) when the slot went through
    /// its export barrier. A slot skipped on the clean fast path carries
    /// default (all-zero) stats: nothing read them from its worker, and the
    /// restore fold ignores the stats of any entry without a sealed export.
    pub stats: SlotStats,
}

/// One tenant's entry in a delta snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaTenant {
    /// Tenant name (application id).
    pub name: String,
    /// The tenant's enclave measurement (restore re-checks it).
    pub measurement: Measurement,
    /// Per-tenant quota/serving counters at capture time — re-emitted
    /// wholesale (they are a few u64s; only sealed exports are worth
    /// skipping).
    pub counters: TenantStats,
    /// Per-slot entries, in slot-id order.
    pub slots: Vec<DeltaSlot>,
}

/// An incremental gateway checkpoint: sealed state only for slots whose
/// dirty-epoch advanced past a named *base* frame, plus a full copy of the
/// cheap mutable state (session table, quota counters, id counters).
/// Restored by [`crate::Gateway::restore_chain`] as base + ordered deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayDelta {
    /// Checkpoint sequence number (shares the gateway's epoch counter with
    /// full snapshots, so chains and full snapshots order together).
    pub epoch: u64,
    /// The gateway clock's reading when the delta was captured.
    pub created_at_nanos: u64,
    /// The epoch of the frame this delta extends.
    pub base_epoch: u64,
    /// The canonical header bytes of the frame this delta extends. Chain
    /// validation compares these byte-for-byte, and every sealed blob in
    /// this delta is AAD-bound to `header ‖ base_header` — so even a
    /// forged base link fails inside the enclave.
    pub base_header: Vec<u8>,
    /// Pool width the delta was taken under.
    pub slots_per_tenant: usize,
    /// The session-id counter at capture time.
    pub next_session_id: u64,
    /// Gateway-wide submit-command counter at capture time.
    pub submit_commands: u64,
    /// Tenants in deterministic (name) order.
    pub tenants: Vec<DeltaTenant>,
    /// Established sessions at capture time, in session-id order — the
    /// full table, not a diff (rows are cheap; seals are not).
    pub sessions: Vec<SessionRecord>,
}

impl GatewayDelta {
    /// The canonical (plain) header bytes of this delta — what the *next*
    /// delta in a chain records as its `base_header`.
    #[must_use]
    pub fn header_bytes(&self) -> Vec<u8> {
        snapshot::header_bytes(GATEWAY_DELTA_KIND, self.epoch, self.created_at_nanos)
    }

    /// The chained sealing AAD (`header ‖ base_header`) this delta's fresh
    /// sealed exports are bound to.
    #[must_use]
    pub fn sealing_header_bytes(&self) -> Vec<u8> {
        snapshot::chained_header_bytes(
            GATEWAY_DELTA_KIND,
            self.epoch,
            self.created_at_nanos,
            &self.base_header,
        )
    }

    /// This delta's identity and per-slot epoch map, as the base the next
    /// delta in the chain extends.
    #[must_use]
    pub fn chain_base(&self) -> ChainBase {
        ChainBase {
            epoch: self.epoch,
            header: self.header_bytes(),
            slot_epochs: self
                .tenants
                .iter()
                .map(|t| slot_epochs(&t.slots, |s| (s.slot_id, s.dirty_epoch, s.state_epoch)))
                .collect(),
        }
    }

    /// Checks that this delta directly extends the frame identified by
    /// `(prev_epoch, prev_header)`.
    ///
    /// # Errors
    /// [`GatewayError::SnapshotChainBroken`] when the delta names a
    /// different base epoch (gap, reorder, or wrong base) or different
    /// base header bytes (forged or cross-chain splice).
    pub fn check_extends(&self, prev_epoch: u64, prev_header: &[u8]) -> Result<()> {
        if self.base_epoch != prev_epoch {
            return Err(GatewayError::SnapshotChainBroken {
                reason: "delta does not extend the preceding frame's epoch",
            });
        }
        if self.base_header != prev_header {
            return Err(GatewayError::SnapshotChainBroken {
                reason: "delta base header does not match the preceding frame",
            });
        }
        Ok(())
    }

    /// Serializes the delta into the CRC-guarded persistence format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(self.base_epoch);
        enc.put_bytes(&self.base_header);
        enc.put_varint(self.slots_per_tenant as u64);
        enc.put_u64(self.next_session_id);
        enc.put_u64(self.submit_commands);
        enc.put_varint(self.tenants.len() as u64);
        for tenant in &self.tenants {
            enc.put_str(&tenant.name);
            enc.put_array32(tenant.measurement.as_bytes());
            put_tenant_stats(&mut enc, &tenant.counters);
            enc.put_varint(tenant.slots.len() as u64);
            for slot in &tenant.slots {
                enc.put_varint(slot.slot_id as u64);
                enc.put_u64(slot.dirty_epoch);
                enc.put_u64(slot.state_epoch);
                match &slot.sealed_state {
                    Some(blob) => {
                        enc.put_bool(true);
                        enc.put_bytes(blob);
                    }
                    None => enc.put_bool(false),
                }
                put_slot_stats(&mut enc, &slot.stats);
            }
        }
        put_sessions(&mut enc, &self.sessions);
        SnapshotFrame {
            kind: GATEWAY_DELTA_KIND,
            epoch: self.epoch,
            created_at_nanos: self.created_at_nanos,
            payload: enc.into_bytes(),
        }
        .to_bytes()
    }

    /// Parses a serialized delta, failing closed with typed errors — the
    /// delta counterpart of [`GatewaySnapshot::from_bytes`].
    ///
    /// # Errors
    /// [`GatewayError::SnapshotCorrupt`] for truncation, corruption,
    /// version skew, or malformed payloads;
    /// [`GatewayError::SnapshotMismatch`] for a frame of a different kind.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let frame = SnapshotFrame::from_bytes(bytes).map_err(GatewayError::SnapshotCorrupt)?;
        if frame.kind != GATEWAY_DELTA_KIND {
            return Err(GatewayError::SnapshotMismatch {
                reason: "not a gateway delta snapshot",
            });
        }
        let mut dec = Decoder::new(&frame.payload);
        let base_epoch = parse(dec.get_u64())?;
        let base_header = parse(dec.get_bytes())?;
        let slots_per_tenant = parse(dec.get_varint())? as usize;
        let next_session_id = parse(dec.get_u64())?;
        let submit_commands = parse(dec.get_u64())?;
        let tenant_count = parse(dec.get_varint())? as usize;
        let mut tenants = Vec::with_capacity(tenant_count.min(1024));
        for _ in 0..tenant_count {
            let name = parse(dec.get_str())?;
            let measurement = Measurement(parse(dec.get_array32())?);
            let counters = get_tenant_stats(&mut dec)?;
            let slot_count = parse(dec.get_varint())? as usize;
            let mut slots = Vec::with_capacity(slot_count.min(1024));
            for _ in 0..slot_count {
                let slot_id = parse(dec.get_varint())? as usize;
                let dirty_epoch = parse(dec.get_u64())?;
                let state_epoch = parse(dec.get_u64())?;
                let sealed_state = if parse(dec.get_bool())? {
                    Some(parse(dec.get_bytes())?)
                } else {
                    None
                };
                let stats = get_slot_stats(&mut dec)?;
                slots.push(DeltaSlot {
                    slot_id,
                    dirty_epoch,
                    state_epoch,
                    sealed_state,
                    stats,
                });
            }
            tenants.push(DeltaTenant {
                name,
                measurement,
                counters,
                slots,
            });
        }
        let sessions = get_sessions(&mut dec)?;
        parse(dec.finish())?;
        Ok(GatewayDelta {
            epoch: frame.epoch,
            created_at_nanos: frame.created_at_nanos,
            base_epoch,
            base_header,
            slots_per_tenant,
            next_session_id,
            submit_commands,
            tenants,
            sessions,
        })
    }
}

/// A base snapshot plus its ordered delta chain — what
/// [`crate::Gateway::restore_chain`] rebuilds from. `deltas` must be in
/// capture order (each extending the previous frame); restore validates
/// every link fail-closed before touching any enclave. An empty `deltas`
/// (`SnapshotChain { base: &snapshot, deltas: &[] }`) is how a full
/// snapshot is restored.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotChain<'a> {
    /// The full snapshot the chain starts from.
    pub base: &'a GatewaySnapshot,
    /// The deltas applied on top, oldest first.
    pub deltas: &'a [GatewayDelta],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GatewaySnapshot {
        GatewaySnapshot {
            epoch: 3,
            created_at_nanos: 42,
            slots_per_tenant: 2,
            next_session_id: 17,
            submit_commands: 9,
            tenants: vec![TenantSnapshot {
                name: "iot-telemetry.example".to_string(),
                measurement: Measurement::of_bytes(b"glimmer"),
                counters: TenantStats {
                    sessions_opened: 4,
                    endorsed: 11,
                    ..TenantStats::default()
                },
                slots: vec![
                    SlotSnapshot {
                        slot_id: 0,
                        sealed_state: vec![1, 2, 3],
                        dirty_epoch: 5,
                        state_epoch: 12,
                        stats: SlotStats {
                            batches: 2,
                            items: 8,
                            ..SlotStats::default()
                        },
                    },
                    SlotSnapshot {
                        slot_id: 1,
                        sealed_state: vec![4, 5],
                        dirty_epoch: 0,
                        state_epoch: 3,
                        stats: SlotStats::default(),
                    },
                ],
            }],
            sessions: vec![
                SessionRecord {
                    session_id: 1,
                    tenant_idx: 0,
                    slot: 0,
                    opened_at_nanos: 7,
                },
                SessionRecord {
                    session_id: 2,
                    tenant_idx: 0,
                    slot: 1,
                    opened_at_nanos: 8,
                },
            ],
        }
    }

    /// A frame's length and the CRC-32 of everything before its trailing
    /// CRC field — a fingerprint of every byte the codec emitted.
    fn frame_len_and_crc(bytes: &[u8]) -> (usize, u32) {
        (bytes.len(), snapshot::crc32(&bytes[..bytes.len() - 4]))
    }

    #[test]
    fn snapshot_round_trip() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(GatewaySnapshot::from_bytes(&bytes).unwrap(), snap);
        // Serialization is deterministic.
        assert_eq!(bytes, sample().to_bytes());
        // The wire bytes are the ones PR 13 produced for this value.
        assert_eq!(frame_len_and_crc(&bytes), (308, 0xD2CD_916D));
    }

    #[test]
    fn corruption_and_truncation_are_typed() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                GatewaySnapshot::from_bytes(&bytes[..cut]),
                Err(GatewayError::SnapshotCorrupt(_))
            ));
        }
        for pos in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                matches!(
                    GatewaySnapshot::from_bytes(&corrupt),
                    Err(GatewayError::SnapshotCorrupt(_))
                ),
                "flip at {pos} must be typed corruption"
            );
        }
    }

    #[test]
    fn foreign_kind_is_rejected() {
        let mut frame = SnapshotFrame::from_bytes(&sample().to_bytes()).expect("valid frame");
        frame.kind = 99;
        assert!(matches!(
            GatewaySnapshot::from_bytes(&frame.to_bytes()),
            Err(GatewayError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn header_bytes_bind_kind_epoch_and_time() {
        let snap = sample();
        assert_eq!(
            snap.header_bytes(),
            snapshot::header_bytes(GATEWAY_SNAPSHOT_KIND, 3, 42)
        );
        let mut other = sample();
        other.epoch = 4;
        assert_ne!(snap.header_bytes(), other.header_bytes());
    }

    fn sample_delta() -> GatewayDelta {
        let base = sample();
        GatewayDelta {
            epoch: 4,
            created_at_nanos: 99,
            base_epoch: base.epoch,
            base_header: base.header_bytes(),
            slots_per_tenant: 2,
            next_session_id: 19,
            submit_commands: 12,
            tenants: vec![DeltaTenant {
                name: "iot-telemetry.example".to_string(),
                measurement: Measurement::of_bytes(b"glimmer"),
                counters: TenantStats {
                    sessions_opened: 5,
                    endorsed: 13,
                    ..TenantStats::default()
                },
                slots: vec![
                    DeltaSlot {
                        slot_id: 0,
                        dirty_epoch: 7,
                        state_epoch: 15,
                        sealed_state: Some(vec![6, 7, 8]),
                        stats: SlotStats {
                            batches: 3,
                            items: 10,
                            ..SlotStats::default()
                        },
                    },
                    DeltaSlot {
                        slot_id: 1,
                        dirty_epoch: 0,
                        state_epoch: 3,
                        sealed_state: None,
                        stats: SlotStats::default(),
                    },
                ],
            }],
            sessions: vec![SessionRecord {
                session_id: 2,
                tenant_idx: 0,
                slot: 1,
                opened_at_nanos: 8,
            }],
        }
    }

    #[test]
    fn delta_round_trip_and_chain_base() {
        let delta = sample_delta();
        let bytes = delta.to_bytes();
        assert_eq!(GatewayDelta::from_bytes(&bytes).unwrap(), delta);
        assert_eq!(bytes, sample_delta().to_bytes());
        // The wire bytes are the ones PR 13 produced for this value.
        assert_eq!(frame_len_and_crc(&bytes), (321, 0x3E43_A5FC));

        // chain_base views expose the per-slot epoch maps.
        let base = sample().chain_base();
        assert_eq!(base.epoch, 3);
        assert_eq!(base.slot(0, 0), Some((5, 12)));
        assert_eq!(base.slot(0, 1), Some((0, 3)));
        assert_eq!(base.slot(0, 9), None);
        assert_eq!(base.slot(3, 0), None);
        let next = delta.chain_base();
        assert_eq!(next.epoch, 4);
        assert_eq!(next.header, delta.header_bytes());
        assert_eq!(next.slot(0, 0), Some((7, 15)));
    }

    #[test]
    fn delta_chain_validation_fails_closed() {
        let delta = sample_delta();
        let base = sample();
        delta
            .check_extends(base.epoch, &base.header_bytes())
            .unwrap();
        // Wrong epoch (gap / reorder).
        assert!(matches!(
            delta.check_extends(base.epoch + 1, &base.header_bytes()),
            Err(GatewayError::SnapshotChainBroken { .. })
        ));
        // Right epoch, wrong header bytes (cross-chain splice).
        let mut twin = base.clone();
        twin.created_at_nanos += 1;
        assert!(matches!(
            delta.check_extends(twin.epoch, &twin.header_bytes()),
            Err(GatewayError::SnapshotChainBroken { .. })
        ));
    }

    #[test]
    fn delta_sealing_header_chains_base_identity() {
        let delta = sample_delta();
        let plain = delta.header_bytes();
        let chained = delta.sealing_header_bytes();
        assert_eq!(&chained[..plain.len()], plain.as_slice());
        assert_eq!(&chained[plain.len()..], delta.base_header.as_slice());
        // A delta on a different base seals under a different AAD.
        let mut other = sample_delta();
        other.base_header = sample_delta().header_bytes();
        assert_ne!(chained, other.sealing_header_bytes());
    }

    #[test]
    fn delta_corruption_and_foreign_kinds_are_typed() {
        let bytes = sample_delta().to_bytes();
        for cut in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                GatewayDelta::from_bytes(&bytes[..cut]),
                Err(GatewayError::SnapshotCorrupt(_))
            ));
        }
        for pos in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                matches!(
                    GatewayDelta::from_bytes(&corrupt),
                    Err(GatewayError::SnapshotCorrupt(_))
                ),
                "flip at {pos} must be typed corruption"
            );
        }
        // A full snapshot is not a delta, and vice versa.
        assert!(matches!(
            GatewayDelta::from_bytes(&sample().to_bytes()),
            Err(GatewayError::SnapshotMismatch { .. })
        ));
        assert!(matches!(
            GatewaySnapshot::from_bytes(&sample_delta().to_bytes()),
            Err(GatewayError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn crash_points_display_and_hooks() {
        let plan = CrashAt::default();
        for point in CrashPoint::ALL {
            assert!(!point.to_string().is_empty());
            assert!(!NoCrash.reached(point));
            assert!(!plan.reached(point));
            plan.arm(point);
            assert!(plan.reached(point));
            plan.disarm();
        }
        plan.arm(CrashPoint::MidRestore);
        assert!(!plan.reached(CrashPoint::BeforeRestore));
        // The migration-only points are a subset of ALL (the restore
        // matrix filters them out; the rebalance matrix iterates them).
        for point in CrashPoint::MIGRATION {
            assert!(CrashPoint::ALL.contains(&point));
        }
    }
}
