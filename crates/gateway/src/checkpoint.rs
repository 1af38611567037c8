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
//! Each slot's sealed state uses the frame's sealing header as AAD, so a
//! blob spliced in from a different snapshot (or tampered, or sealed by a
//! different enclave build, or on a different machine) fails closed as
//! [`crate::GatewayError::SealedBlobRejected`].
//!
//! # One frame: full checkpoints, deltas and chains
//!
//! There is one frame type, [`GatewaySnapshot`], and every frame is a delta:
//! it names the frame it extends by epoch **and** canonical header bytes,
//! carries a fresh sealed export only for the slots its capture exported,
//! and re-emits the (cheap) session table and quota counters whole. Its
//! sealed blobs use the chained AAD `header ‖ base header`
//! ([`glimmer_wire::snapshot::chained_header_bytes`]).
//!
//! * A **full checkpoint** ([`crate::Gateway::checkpoint`]) is the delta
//!   against the empty base: base epoch 0, an empty base header — so its
//!   AAD is its plain header — and a sealed export in every slot. It is the
//!   *root* of a chain.
//! * A **delta** ([`crate::Gateway::checkpoint_delta`]) extends the previous
//!   frame and re-runs the (sealing) state export only for slots whose
//!   dirty-epoch advanced since, so housekeeping on a huge, mostly idle pool
//!   costs what its dirty slots cost.
//!
//! A delta spliced onto the wrong base fails twice over: the chain check
//! rejects it typed ([`crate::GatewayError::SnapshotChainBroken`]) before
//! any enclave is touched, and even a forged link fails AEAD
//! authentication inside the enclave. Restore folds the root and its
//! ordered deltas fail-closed — each slot from the latest frame that sealed
//! it. A base that is not a root, a gap, a reorder, or a mismatched base is
//! a typed error, never a partial restore.
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

/// Snapshot-frame kind tag of every gateway checkpoint frame
/// ([`GatewaySnapshot`]). Every frame is a delta; a full checkpoint is the
/// delta against the empty base. Kind 1, the retired full-snapshot layout,
/// is a foreign kind.
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

// The fixed-width field groups of a frame. Wire order is part of the
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

/// One pool slot's entry in a checkpoint frame. Every slot appears (the
/// epoch map and stats must stay current), but only slots the capture
/// exported carry a sealed blob: every slot of a full checkpoint, and the
/// slots of a delta that mutated since its base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Slot index within the tenant's pool.
    pub slot_id: usize,
    /// The host-side dirty-epoch the owning shard worker had bumped the
    /// slot to at capture time. A later delta checkpoint re-exports the
    /// slot only if the live epoch has advanced past this.
    pub dirty_epoch: u64,
    /// The enclave's own state epoch at capture time — the `known_epoch`
    /// a delta checkpoint presents so an idle enclave can skip re-sealing
    /// entirely.
    pub state_epoch: u64,
    /// The enclave's serving state when this capture exported the slot,
    /// sealed by the enclave itself under `MrEnclave` with the frame's
    /// [`GatewaySnapshot::sealing_header_bytes`] as AAD. Opaque to the
    /// gateway.
    pub sealed_state: Option<Vec<u8>>,
    /// The slot's drain counters at capture time, when the slot went
    /// through its export barrier. Per-incarnation fields
    /// (`active_sessions`, `queue_depth`, `last_drain_queue_depth`,
    /// `ecalls`, `drain_nanos`) are zeroed at capture — they are not
    /// persisted by the codec, restart with the process, and zeroing them
    /// keeps the value equal across a serialization round trip. A slot
    /// skipped on the clean fast path carries default (all-zero) stats:
    /// nothing read them from its worker, and the restore fold ignores the
    /// stats of any entry without a sealed export.
    pub stats: SlotStats,
}

/// One tenant's entry in a checkpoint frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant name (application id).
    pub name: String,
    /// The measurement devices verify — restore refuses a config whose
    /// descriptor measures differently before any unseal is attempted.
    pub measurement: Measurement,
    /// Per-tenant quota/serving counters at capture time (restoring
    /// `endorsed` is what keeps endorsement budgets enforced across
    /// restarts). Re-emitted wholesale in every frame: they are a few
    /// u64s, and only sealed exports are worth skipping.
    pub counters: TenantStats,
    /// Per-slot entries, in slot-id order.
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

/// A gateway checkpoint frame: sealed state for the slots its capture
/// exported, plus a full copy of the cheap mutable state (session table,
/// quota counters, id counters). Every frame extends the frame named by
/// `base_epoch` and `base_header`. A full checkpoint
/// ([`crate::Gateway::checkpoint`]) is a *root* frame: it extends the empty
/// base (epoch 0, empty header) and seals every slot. A delta
/// ([`crate::Gateway::checkpoint_delta`]) extends the previous frame and
/// seals only the slots that mutated since. Restored by
/// [`crate::Gateway::restore_chain`] as a root plus ordered deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewaySnapshot {
    /// Checkpoint sequence number. Unique within one gateway incarnation
    /// and resumed from the chain's last frame on restore; sealed slot
    /// state is AAD-bound to it, so blobs cannot migrate between frames.
    /// After restoring a non-latest chain, discard the abandoned
    /// higher-epoch frames (see the module's security notes).
    pub epoch: u64,
    /// The gateway clock's reading when the frame was captured.
    pub created_at_nanos: u64,
    /// The epoch of the frame this one extends; 0 for a root frame.
    pub base_epoch: u64,
    /// The canonical header bytes of the frame this one extends; empty for
    /// a root frame. Chain validation compares these byte-for-byte, and
    /// every sealed blob in this frame is AAD-bound to
    /// `header ‖ base_header` — so even a forged base link fails inside the
    /// enclave.
    pub base_header: Vec<u8>,
    /// Pool width the frame was taken under; restore requires the same.
    pub slots_per_tenant: usize,
    /// The session-id counter, so a restored gateway never reissues an id
    /// that a live device still holds.
    pub next_session_id: u64,
    /// Gateway-wide submit-command counter (the E13 metric), preserved so
    /// stats stay cumulative across restarts.
    pub submit_commands: u64,
    /// Tenants in deterministic (name) order.
    pub tenants: Vec<TenantSnapshot>,
    /// Established sessions at capture time, in session-id order — the
    /// full table, not a diff (rows are cheap; seals are not). Pending
    /// sessions are deliberately dropped (devices reopen them).
    pub sessions: Vec<SessionRecord>,
}

/// An alias of [`GatewaySnapshot`], the one checkpoint frame type. It
/// exists only because `benchmark/src/socket.rs` and
/// `benchmark/src/inproc.rs` name it and the frozen benchmark may not be
/// edited (the reason `Gateway::checkpoint_streamed` is kept); write
/// [`GatewaySnapshot`].
#[doc(hidden)]
pub type GatewayDelta = GatewaySnapshot;

// The fewest bytes each repeated record of the payload encodes to, so a
// hostile count reserves no more than the frame could hold.
const TENANT_MIN_LEN: usize = 1 + 32 + 8 * 8 + 1; // name, measurement, counters, slot count
const SLOT_MIN_LEN: usize = 1 + 8 + 8 + 1 + 4 * 8; // id, epochs, presence, stats
const SESSION_MIN_LEN: usize = 8 + 1 + 1 + 8; // id, tenant, slot, opened-at

impl GatewaySnapshot {
    /// The canonical (plain) header bytes of this frame — what the next
    /// delta in a chain records as its `base_header`.
    #[must_use]
    pub fn header_bytes(&self) -> Vec<u8> {
        snapshot::header_bytes(GATEWAY_DELTA_KIND, self.epoch, self.created_at_nanos)
    }

    /// The chained sealing AAD (`header ‖ base_header`) this frame's sealed
    /// exports are bound to. A root frame's base header is empty, so its
    /// sealing AAD is its plain header.
    #[must_use]
    pub fn sealing_header_bytes(&self) -> Vec<u8> {
        snapshot::chained_header_bytes(
            GATEWAY_DELTA_KIND,
            self.epoch,
            self.created_at_nanos,
            &self.base_header,
        )
    }

    /// This frame's identity and per-slot epoch map, as the base a
    /// subsequent [`crate::Gateway::checkpoint_delta`] extends.
    #[must_use]
    pub fn chain_base(&self) -> ChainBase {
        ChainBase {
            epoch: self.epoch,
            header: self.header_bytes(),
            slot_epochs: self
                .tenants
                .iter()
                .map(|t| {
                    t.slots
                        .iter()
                        .map(|s| (s.slot_id, s.dirty_epoch, s.state_epoch))
                        .collect()
                })
                .collect(),
        }
    }

    /// Checks that this frame directly extends the frame identified by
    /// `(prev_epoch, prev_header)`.
    ///
    /// # Errors
    /// [`GatewayError::SnapshotChainBroken`] when the frame names a
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

    /// Serializes the frame into the CRC-guarded persistence format.
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
        enc.put_varint(self.sessions.len() as u64);
        for record in &self.sessions {
            enc.put_u64(record.session_id);
            enc.put_varint(record.tenant_idx as u64);
            enc.put_varint(record.slot as u64);
            enc.put_u64(record.opened_at_nanos);
        }
        SnapshotFrame {
            kind: GATEWAY_DELTA_KIND,
            epoch: self.epoch,
            created_at_nanos: self.created_at_nanos,
            payload: enc.into_bytes(),
        }
        .to_bytes()
    }

    /// Parses a serialized frame, failing closed with typed errors — never
    /// a panic, never a partial value.
    ///
    /// # Errors
    /// [`GatewayError::SnapshotCorrupt`] for truncation, corruption,
    /// version skew, or malformed payloads (a count the payload cannot
    /// hold included); [`GatewayError::SnapshotMismatch`] for a frame of
    /// another kind, the retired kind-1 full-snapshot layout among them.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let frame = SnapshotFrame::from_bytes(bytes).map_err(GatewayError::SnapshotCorrupt)?;
        if frame.kind != GATEWAY_DELTA_KIND {
            return Err(GatewayError::SnapshotMismatch {
                reason: "not a gateway checkpoint frame",
            });
        }
        let mut dec = Decoder::new(&frame.payload);
        let base_epoch = parse(dec.get_u64())?;
        let base_header = parse(dec.get_bytes())?;
        let slots_per_tenant = parse(dec.get_varint())? as usize;
        let next_session_id = parse(dec.get_u64())?;
        let submit_commands = parse(dec.get_u64())?;
        let tenant_count = parse(dec.get_count(TENANT_MIN_LEN))?;
        let mut tenants = Vec::with_capacity(tenant_count);
        for _ in 0..tenant_count {
            let name = parse(dec.get_str())?;
            let measurement = Measurement(parse(dec.get_array32())?);
            let counters = get_tenant_stats(&mut dec)?;
            let slot_count = parse(dec.get_count(SLOT_MIN_LEN))?;
            let mut slots = Vec::with_capacity(slot_count);
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
                slots.push(SlotSnapshot {
                    slot_id,
                    dirty_epoch,
                    state_epoch,
                    sealed_state,
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
        let session_count = parse(dec.get_count(SESSION_MIN_LEN))?;
        let mut sessions = Vec::with_capacity(session_count);
        for _ in 0..session_count {
            sessions.push(SessionRecord {
                session_id: parse(dec.get_u64())?,
                tenant_idx: parse(dec.get_varint())? as usize,
                slot: parse(dec.get_varint())? as usize,
                opened_at_nanos: parse(dec.get_u64())?,
            });
        }
        parse(dec.finish())?;
        Ok(GatewaySnapshot {
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

/// The identity of the frame a delta checkpoint extends: its epoch, its
/// canonical header bytes, and the per-slot (dirty, state) epochs it
/// captured. Produced by [`GatewaySnapshot::chain_base`]; consumed by
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

impl ChainBase {
    /// The `(dirty_epoch, state_epoch)` the base captured for one slot, if
    /// the base covered it.
    #[must_use]
    pub fn slot(&self, tenant_idx: usize, slot_id: usize) -> Option<(u64, u64)> {
        let row = self.slot_epochs.get(tenant_idx)?;
        let &(_, dirty, state) = row.iter().find(|&&(id, _, _)| id == slot_id)?;
        Some((dirty, state))
    }
}

/// A root frame plus its ordered deltas — what
/// [`crate::Gateway::restore_chain`] rebuilds from. `base` must be a root
/// frame (a full [`crate::Gateway::checkpoint`]: empty base header, every
/// slot sealed) and `deltas` in capture order, each extending the frame
/// before it; restore validates both fail-closed before touching any
/// enclave. An empty `deltas` (`SnapshotChain { base: &snapshot, deltas:
/// &[] }`) is how a full checkpoint is restored.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotChain<'a> {
    /// The root frame the chain starts from.
    pub base: &'a GatewaySnapshot,
    /// The deltas applied on top, oldest first.
    pub deltas: &'a [GatewaySnapshot],
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A root frame: a full checkpoint, extending the empty base.
    fn sample() -> GatewaySnapshot {
        GatewaySnapshot {
            epoch: 3,
            created_at_nanos: 42,
            base_epoch: 0,
            base_header: Vec::new(),
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
                        dirty_epoch: 5,
                        state_epoch: 12,
                        sealed_state: Some(vec![1, 2, 3]),
                        stats: SlotStats {
                            batches: 2,
                            items: 8,
                            ..SlotStats::default()
                        },
                    },
                    SlotSnapshot {
                        slot_id: 1,
                        dirty_epoch: 0,
                        state_epoch: 3,
                        sealed_state: Some(vec![4, 5]),
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

    /// A delta: one slot re-sealed, one skipped on the clean fast path.
    fn sample_delta() -> GatewaySnapshot {
        GatewaySnapshot {
            epoch: 4,
            created_at_nanos: 99,
            base_epoch: 3,
            // The codec treats the base header as opaque bytes. These are
            // the ones the pin below was taken with: the header of a kind-1
            // frame, the retired full-snapshot layout.
            base_header: snapshot::header_bytes(1, 3, 42),
            slots_per_tenant: 2,
            next_session_id: 19,
            submit_commands: 12,
            tenants: vec![TenantSnapshot {
                name: "iot-telemetry.example".to_string(),
                measurement: Measurement::of_bytes(b"glimmer"),
                counters: TenantStats {
                    sessions_opened: 5,
                    endorsed: 13,
                    ..TenantStats::default()
                },
                slots: vec![
                    SlotSnapshot {
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
                    SlotSnapshot {
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

    /// A frame's length and the CRC-32 of everything before its trailing
    /// CRC field — a fingerprint of every byte the codec emitted.
    fn frame_len_and_crc(bytes: &[u8]) -> (usize, u32) {
        (bytes.len(), snapshot::crc32(&bytes[..bytes.len() - 4]))
    }

    /// Decodes `frame`'s bytes back to `frame`, checks that encoding is
    /// deterministic and that the bytes match the pinned fingerprint.
    fn assert_round_trip(frame: &GatewaySnapshot, pin: (usize, u32)) {
        let bytes = frame.to_bytes();
        assert_eq!(&GatewaySnapshot::from_bytes(&bytes).unwrap(), frame);
        assert_eq!(bytes, frame.clone().to_bytes());
        assert_eq!(frame_len_and_crc(&bytes), pin);
    }

    /// Every truncation and every sampled bit flip of `bytes` decodes to a
    /// typed `SnapshotCorrupt`.
    fn assert_corruption_typed(bytes: &[u8]) {
        for cut in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                GatewaySnapshot::from_bytes(&bytes[..cut]),
                Err(GatewayError::SnapshotCorrupt(_))
            ));
        }
        for pos in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.to_vec();
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
    fn snapshot_round_trip() {
        // The root's 319 B are the retired full-snapshot layout's 308 B plus
        // the base epoch (8 B), the empty base header's length (1 B) and one
        // presence byte per slot.
        assert_round_trip(&sample(), (319, 0x8C8F_2B18));
    }

    #[test]
    fn delta_round_trip_and_chain_base() {
        // The delta's bytes predate the one frame type.
        let delta = sample_delta();
        assert_round_trip(&delta, (321, 0x3E43_A5FC));

        // chain_base views expose the per-slot epoch maps.
        let base = sample().chain_base();
        assert_eq!((base.epoch, &base.header), (3, &sample().header_bytes()));
        assert_eq!(base.slot(0, 0), Some((5, 12)));
        assert_eq!(base.slot(0, 1), Some((0, 3)));
        assert_eq!(base.slot(0, 9), None);
        assert_eq!(base.slot(3, 0), None);
        let next = delta.chain_base();
        assert_eq!((next.epoch, &next.header), (4, &delta.header_bytes()));
        assert_eq!(next.slot(0, 0), Some((7, 15)));
        // A slot the delta skipped keeps the epochs it was captured at.
        assert_eq!(next.slot(0, 1), Some((0, 3)));
    }

    #[test]
    fn corruption_and_truncation_are_typed() {
        assert_corruption_typed(&sample().to_bytes());
    }

    #[test]
    fn delta_corruption_and_foreign_kinds_are_typed() {
        assert_corruption_typed(&sample_delta().to_bytes());
        // A delta relabelled as the retired kind-1 full snapshot is refused
        // as a foreign kind, not decoded or migrated.
        let mut frame = SnapshotFrame::from_bytes(&sample_delta().to_bytes()).expect("valid frame");
        frame.kind = 1;
        assert!(matches!(
            GatewaySnapshot::from_bytes(&frame.to_bytes()),
            Err(GatewayError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn foreign_kind_is_rejected() {
        // Kind 1 is the retired full-snapshot layout: refused, not migrated.
        for kind in [1, 99] {
            let mut frame = SnapshotFrame::from_bytes(&sample().to_bytes()).expect("valid frame");
            frame.kind = kind;
            assert!(matches!(
                GatewaySnapshot::from_bytes(&frame.to_bytes()),
                Err(GatewayError::SnapshotMismatch { .. })
            ));
        }
    }

    #[test]
    fn header_bytes_bind_kind_epoch_and_time() {
        let snap = sample();
        assert_eq!(
            snap.header_bytes(),
            snapshot::header_bytes(GATEWAY_DELTA_KIND, 3, 42)
        );
        let mut other = sample();
        other.epoch = 4;
        assert_ne!(snap.header_bytes(), other.header_bytes());
    }

    #[test]
    fn delta_chain_validation_fails_closed() {
        let base = sample();
        let delta = GatewaySnapshot {
            base_header: base.header_bytes(),
            ..sample_delta()
        };
        // A root extends the empty base; a delta extends its base's
        // chain_base view.
        base.check_extends(0, &[]).unwrap();
        let link = base.chain_base();
        delta.check_extends(link.epoch, &link.header).unwrap();
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
        // A root is no delta of anything, and a delta extends no empty base.
        assert!(base.check_extends(link.epoch, &link.header).is_err());
        assert!(delta.check_extends(0, &[]).is_err());
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
        // A root's base is empty: it seals under its plain header.
        assert_eq!(sample().sealing_header_bytes(), sample().header_bytes());
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
