//! Crash-safe checkpoint/restore invariants, proven by deterministic
//! crash-fault injection.
//!
//! The matrix kills the gateway at every labelled [`CrashPoint`] between
//! checkpoint and restore and replays the E11 mixed-tenant workload. For
//! every point it asserts: no lost or duplicated endorsements, no
//! cross-tenant leakage, and — at `shards: 1` — a drain order bit-identical
//! to an uninterrupted run. Corrupted, truncated, spliced, cross-machine,
//! and cross-measurement snapshots must all fail closed with typed errors.
//! A determinism canary runs the checkpoint scenario twice and diffs the
//! snapshot bytes.

mod common;

use common::*;
use glimmer_core::blinding::BlindingService;
use glimmer_core::host::GlimmerDescriptor;
use glimmer_core::protocol::{BatchOutcome, Contribution, ContributionPayload, PrivateData};
use glimmer_core::remote::IotDeviceSession;
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_crypto::drbg::Drbg;
use glimmer_gateway::{
    CrashAt, CrashPoint, Gateway, GatewayConfig, GatewayDelta, GatewayError, GatewaySnapshot,
    ManualClock, QuotaResource, SnapshotChain, TelemetryConfig, TenantConfig, TenantQuota,
    TraceStage,
};
use glimmer_wire::WireCodec;
use glimmer_workloads::gateway::GatewayTrafficWorkload;
use proptest::prelude::*;
use sgx_sim::AttestationService;
use std::sync::{Arc, OnceLock};

/// The seed byte this matrix runs on.
const SEED: u8 = 90;
const GW_SEED: [u8; 32] = common::seed(SEED, common::GATEWAY);
const DEV_SEED: [u8; 32] = common::seed(SEED, common::DEVICE);
const AVS_SEED: [u8; 32] = common::seed(SEED, common::AVS);

/// Deterministic single-shard mode: the matrix compares drain order
/// bit-for-bit against an uninterrupted run.
fn config() -> GatewayConfig {
    common::config(1)
}

fn tenant_configs() -> Vec<TenantConfig> {
    common::tenant_configs(SEED)
}

fn workload() -> GatewayTrafficWorkload {
    common::workload(SEED)
}

fn build_fixture() -> Fixture {
    common::build_fixture(config(), SEED)
}

/// A full-snapshot restore through the one restore entry: the empty chain.
fn restore_full(
    config: GatewayConfig,
    tenants: Vec<TenantConfig>,
    snapshot: &GatewaySnapshot,
    avs: &mut AttestationService,
    rng: &mut Drbg,
) -> Result<Gateway, GatewayError> {
    Gateway::restore_chain(
        config,
        tenants,
        SnapshotChain {
            base: snapshot,
            deltas: &[],
        },
        avs,
        rng,
    )
}

fn run_uninterrupted() -> Vec<RespRec> {
    let fixture = build_fixture();
    let gateway = fixture.gateway;
    let mut records = submit_rounds(&fixture.devices, &fixture.events, &gateway, 0..PRE_ROUNDS);
    records.extend(submit_rounds(
        &fixture.devices,
        &fixture.events,
        &gateway,
        PRE_ROUNDS..ROUNDS,
    ));
    records
}

/// Serves the first half of the workload, checkpoints, kills the gateway at
/// `point`, restores from the surviving snapshot bytes, and serves the rest.
/// Returns the full decrypted reply sequence and the snapshot bytes.
fn run_with_crash_at(point: CrashPoint) -> (Vec<RespRec>, Vec<u8>) {
    let crash = Arc::new(CrashAt::default());
    let config = GatewayConfig {
        crash_hooks: crash.clone(),
        ..config()
    };
    let mut fixture = common::build_fixture(config, SEED);
    let gateway = fixture.gateway;
    let mut records = submit_rounds(&fixture.devices, &fixture.events, &gateway, 0..PRE_ROUNDS);

    // The last good checkpoint — what the operator has persisted.
    let persisted = gateway.checkpoint().unwrap();
    let snapshot_bytes = persisted.to_bytes();

    let restore_side = matches!(point, CrashPoint::BeforeRestore | CrashPoint::MidRestore);
    if !restore_side {
        // A later capture attempt of either frame kind dies at the labelled
        // point: it must fail atomically (typed error, claims and paused
        // worker released, nothing emitted). A handshake left pending
        // dirties one slot first, so the delta has a slot to take through
        // its export barrier — a delta over a clean pool skips every slot
        // and never reaches `MidStreamExport`.
        gateway.open_session(IOT).unwrap();
        crash.arm(point);
        let full = gateway.checkpoint().unwrap_err();
        let delta = gateway
            .checkpoint_delta(&persisted.chain_base())
            .unwrap_err();
        crash.disarm();
        for err in [full, delta] {
            assert_eq!(err, GatewayError::CrashInjected(point));
        }
        // The gateway is still fully serviceable after the aborted attempts.
        assert!(gateway.drain().unwrap().is_empty());
    }

    // The crash: the serving process dies, taking every enclave with it.
    drop(gateway);

    // Restore from the persisted bytes (full envelope validation en route).
    let snapshot = GatewaySnapshot::from_bytes(&snapshot_bytes).unwrap();
    if restore_side {
        // The first restore attempt dies at the labelled point; the snapshot
        // is untouched, so a clean retry (fresh machine-identity rng in its
        // original state) must succeed.
        crash.arm(point);
        let err = restore_full(
            fixture.config.clone(),
            tenant_configs(),
            &snapshot,
            &mut fixture.avs,
            &mut Drbg::from_seed(GW_SEED),
        )
        .unwrap_err();
        assert_eq!(err, GatewayError::CrashInjected(point));
        crash.disarm();
    }
    let restored = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &snapshot,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap();

    // Zero re-provisioning: each slot paid exactly one IMPORT_STATE ECALL —
    // no service-key install, no session re-handshakes, no mask re-installs.
    let stats = restored.stats();
    assert_eq!(stats.slots.len(), 4);
    for row in &stats.slots {
        assert_eq!(
            row.stats.ecalls, 1,
            "slot {}/{} paid provisioning ecalls on restore",
            row.tenant, row.slot
        );
    }
    // Restored counters are cumulative: the pre-crash endorsements are
    // still accounted.
    let pre_endorsed: usize = records
        .iter()
        .filter(|(_, _, d)| d.contains("Endorsed"))
        .count();
    assert_eq!(stats.total_endorsed(), pre_endorsed as u64);

    // Devices retransmit everything unacknowledged and keep serving.
    records.extend(submit_rounds(
        &fixture.devices,
        &fixture.events,
        &restored,
        PRE_ROUNDS..ROUNDS,
    ));

    // A restored gateway never reissues a session id a device still holds.
    let (fresh_id, _offer) = restored.open_session(IOT).unwrap();
    assert!(fresh_id >= snapshot.next_session_id);
    assert!(fixture.devices.iter().all(|d| d.session_id != fresh_id));

    (records, snapshot_bytes)
}

#[test]
fn crash_matrix_restores_bit_identically_at_every_point() {
    let baseline = run_uninterrupted();
    assert!(
        baseline.iter().any(|(_, _, d)| d.contains("Endorsed")),
        "workload must produce endorsements"
    );
    assert!(
        baseline.iter().any(|(_, t, _)| t == IOT) && baseline.iter().any(|(_, t, _)| t == KEYBOARD),
        "workload must span both tenants"
    );
    // The migration-only points never fire on the checkpoint/restore
    // paths; their matrix lives in tests/rebalance.rs.
    for point in CrashPoint::ALL
        .into_iter()
        .filter(|p| !CrashPoint::MIGRATION.contains(p))
    {
        let (records, _) = run_with_crash_at(point);
        assert_eq!(
            records, baseline,
            "crash at {point}: restored serving diverged from the uninterrupted run"
        );
    }
}

/// One crash plan, installed once in the config, reaches every verb of two
/// incarnations: the capture verbs and `migrate_slot` of the first, and the
/// restore that builds the second from the same config. Each armed point
/// fails typed, and disarming the same `Arc` lets the next call through.
#[test]
fn one_crash_plan_reaches_every_verb_across_two_incarnations() {
    const CAPTURE: [CrashPoint; 3] = [
        CrashPoint::BeforeCheckpoint,
        CrashPoint::MidStreamExport,
        CrashPoint::SnapshotAssembled,
    ];
    let crash = Arc::new(CrashAt::default());
    let clock = Arc::new(ManualClock::new());
    let config = GatewayConfig {
        crash_hooks: crash.clone(),
        clock: clock.clone(),
        telemetry: TelemetryConfig {
            trace_sample_interval: 1,
            ..TelemetryConfig::default()
        },
        ..common::config(2)
    };
    let mut fixture = common::build_fixture(config, SEED);
    let gateway = fixture.gateway;
    submit_rounds(&fixture.devices, &fixture.events, &gateway, 0..PRE_ROUNDS);
    let base = gateway.checkpoint().unwrap().chain_base();
    // A pending handshake dirties a slot, so the delta reaches
    // `MidStreamExport` through that slot's export barrier.
    gateway.open_session(IOT).unwrap();

    for point in CAPTURE {
        crash.arm(point);
        assert_eq!(
            gateway.checkpoint().unwrap_err(),
            GatewayError::CrashInjected(point)
        );
        assert_eq!(
            gateway.checkpoint_delta(&base).unwrap_err(),
            GatewayError::CrashInjected(point)
        );
        crash.disarm();
        gateway.checkpoint().unwrap();
        gateway.checkpoint_delta(&base).unwrap();
    }
    for point in CrashPoint::MIGRATION {
        let from = shard_of(&gateway, IOT, 0);
        crash.arm(point);
        assert_eq!(
            gateway.migrate_slot(IOT, 0, 1 - from).unwrap_err(),
            GatewayError::CrashInjected(point)
        );
        assert_eq!(shard_of(&gateway, IOT, 0), from);
        crash.disarm();
        assert_eq!(
            gateway.migrate_slot(IOT, 0, 1 - from).unwrap().to_shard,
            1 - from
        );
    }
    let snapshot = gateway.checkpoint().unwrap();
    drop(gateway);

    // The second incarnation is built from the same config, plan included.
    crash.arm(CrashPoint::BeforeRestore);
    let err = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &snapshot,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap_err();
    assert_eq!(err, GatewayError::CrashInjected(CrashPoint::BeforeRestore));
    crash.disarm();
    let restored = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &snapshot,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap();

    // The retry serves, on the config's clock: every stage of every trace
    // is stamped with the manual time.
    clock.advance_nanos(7_000);
    let tail = submit_rounds(
        &fixture.devices,
        &fixture.events,
        &restored,
        PRE_ROUNDS..ROUNDS,
    );
    assert!(tail.iter().any(|(_, _, d)| d.contains("Endorsed")));
    let telemetry = restored.telemetry();
    let traces: Vec<_> = telemetry
        .traces
        .iter()
        .filter(|t| t.trace_id != 0)
        .collect();
    assert!(!traces.is_empty());
    for trace in traces {
        for stage in TraceStage::ALL {
            assert_eq!(trace.stage(stage), Some(7_000), "{stage:?}");
        }
    }
}

#[test]
fn snapshot_determinism_canary() {
    // The non-determinism canary: the same scenario, run twice from
    // scratch, must produce byte-identical snapshots (sorted map encodings,
    // injected clock, seeded DRBGs). A diff here means restore correctness
    // can no longer be argued from determinism.
    let (records_a, bytes_a) = run_with_crash_at(CrashPoint::SnapshotAssembled);
    let (records_b, bytes_b) = run_with_crash_at(CrashPoint::SnapshotAssembled);
    assert_eq!(records_a, records_b, "reply sequences diverged across runs");
    assert_eq!(bytes_a, bytes_b, "snapshot bytes diverged across runs");
}

#[test]
fn corrupted_snapshots_fail_closed_with_typed_errors() {
    let mut fixture = build_fixture();
    let gateway = fixture.gateway;
    submit_rounds(&fixture.devices, &fixture.events, &gateway, 0..PRE_ROUNDS);
    let snapshot = gateway.checkpoint().unwrap();
    let bytes = snapshot.to_bytes();
    drop(gateway);

    // Truncation at every prefix length: typed corruption, never a panic.
    for cut in [0, 4, 12, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
        assert!(matches!(
            GatewaySnapshot::from_bytes(&bytes[..cut]),
            Err(GatewayError::SnapshotCorrupt(_))
        ));
    }
    // Bit flips across the whole frame: the CRC (or magic/version check)
    // catches every one.
    for pos in (0..bytes.len()).step_by(13) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        assert!(
            matches!(
                GatewaySnapshot::from_bytes(&corrupt),
                Err(GatewayError::SnapshotCorrupt(_) | GatewayError::SnapshotMismatch { .. })
            ),
            "flip at byte {pos} must be rejected"
        );
    }

    // A tampered sealed blob passes the envelope (the attacker can re-CRC)
    // but the enclave refuses it: typed, tenant-labelled.
    let mut tampered = snapshot.clone();
    let mid = tampered.tenants[0].slots[0].sealed_state.len() / 2;
    tampered.tenants[0].slots[0].sealed_state[mid] ^= 0x01;
    let err = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &tampered,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap_err();
    assert_eq!(
        err,
        GatewayError::SealedBlobRejected {
            tenant: Arc::from(IOT),
        }
    );

    // Restoring on a different machine (different fuse secrets): rejected.
    let err = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &snapshot,
        &mut fixture.avs,
        &mut Drbg::from_seed([7u8; 32]),
    )
    .unwrap_err();
    assert!(matches!(err, GatewayError::SealedBlobRejected { .. }));

    // Cross-measurement: a v2 descriptor (even with the snapshot's
    // measurement field forged to match) cannot unseal v1 state.
    let mut v2_tenants = tenant_configs();
    for tenant in &mut v2_tenants {
        tenant.descriptor.version += 1;
    }
    let mut forged = snapshot.clone();
    for (snap, tenant) in forged.tenants.iter_mut().zip(&v2_tenants) {
        snap.measurement = tenant.descriptor.measurement();
    }
    let err = restore_full(
        fixture.config.clone(),
        v2_tenants,
        &forged,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap_err();
    assert!(matches!(err, GatewayError::SealedBlobRejected { .. }));

    // Honest version skew (unforged snapshot, v2 config) fails even earlier,
    // at the measurement check.
    let mut v2_only = tenant_configs();
    for tenant in &mut v2_only {
        tenant.descriptor.version += 1;
    }
    let err = restore_full(
        fixture.config.clone(),
        v2_only,
        &snapshot,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap_err();
    assert!(matches!(err, GatewayError::SnapshotMismatch { .. }));

    // Config drift: a different pool width is refused before any enclave
    // work.
    let mut wide = fixture.config.clone();
    wide.slots_per_tenant = 3;
    let err = restore_full(
        wide,
        tenant_configs(),
        &snapshot,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap_err();
    assert!(matches!(err, GatewayError::SnapshotMismatch { .. }));

    // A forged session record (id at/after the issuance counter) is refused.
    let mut bogus = snapshot.clone();
    if let Some(record) = bogus.sessions.first().copied() {
        let mut forged_record = record;
        forged_record.session_id = bogus.next_session_id + 5;
        bogus.sessions.push(forged_record);
    }
    let err = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &bogus,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap_err();
    assert!(matches!(err, GatewayError::SnapshotMismatch { .. }));
}

#[test]
fn sealed_state_cannot_be_spliced_across_snapshots() {
    let mut fixture = build_fixture();
    let gateway = fixture.gateway;
    submit_rounds(&fixture.devices, &fixture.events, &gateway, 0..1);
    let epoch1 = gateway.checkpoint().unwrap();
    submit_rounds(&fixture.devices, &fixture.events, &gateway, 1..PRE_ROUNDS);
    let epoch2 = gateway.checkpoint().unwrap();
    assert_eq!(epoch1.epoch, 1);
    assert_eq!(epoch2.epoch, 2);
    drop(gateway);

    // Both snapshots restore cleanly on their own; a blob moved from epoch 1
    // into the epoch-2 snapshot is sealed under the wrong header (AAD) and
    // the enclave refuses it — even though the same enclave code on the
    // same machine sealed both.
    let mut spliced = epoch2.clone();
    spliced.tenants[0].slots[0].sealed_state = epoch1.tenants[0].slots[0].sealed_state.clone();
    let err = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &spliced,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap_err();
    assert_eq!(
        err,
        GatewayError::SealedBlobRejected {
            tenant: Arc::from(IOT),
        }
    );

    // The unspliced epoch-2 snapshot still restores.
    let restored = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &epoch2,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap();
    assert_eq!(restored.live_sessions(), fixture.devices.len());
}

#[test]
fn restore_prunes_sessions_missing_from_the_captured_table() {
    let mut fixture = build_fixture();
    let gateway = fixture.gateway;
    submit_rounds(&fixture.devices, &fixture.events, &gateway, 0..PRE_ROUNDS);
    let mut snapshot = gateway.checkpoint().unwrap();
    drop(gateway);

    // Simulate the close-racing-the-barrier window: a session that closed
    // concurrently with the checkpoint is in the sealed enclave exports but
    // not in the captured table.
    let dropped = snapshot.sessions.remove(0);
    let restored = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &snapshot,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap();

    // The routing layer never routes the dropped id again...
    assert_eq!(restored.live_sessions(), fixture.devices.len() - 1);
    let orphan_event = fixture
        .events
        .iter()
        .find(|e| {
            fixture.devices[e.device].session_id == dropped.session_id && e.round >= PRE_ROUNDS
        })
        .unwrap();
    assert!(matches!(
        restored.submit(dropped.session_id, orphan_event.ciphertext.clone()),
        Err(GatewayError::UnknownSession(_))
    ));
    // ...and the surviving sessions keep serving normally (their enclave
    // state was kept through the prune).
    let survivor = fixture
        .events
        .iter()
        .find(|e| {
            fixture.devices[e.device].session_id != dropped.session_id && e.round >= PRE_ROUNDS
        })
        .unwrap();
    restored
        .submit(
            fixture.devices[survivor.device].session_id,
            survivor.ciphertext.clone(),
        )
        .unwrap();
    let responses = restored.drain_all().unwrap();
    assert_eq!(responses.len(), 1);
    assert!(matches!(responses[0].outcome, BatchOutcome::Reply { .. }));
}

#[test]
fn replayed_requests_stay_rejected_across_restarts() {
    let mut fixture = build_fixture();
    let gateway = fixture.gateway;
    let records = submit_rounds(&fixture.devices, &fixture.events, &gateway, 0..PRE_ROUNDS);
    assert!(!records.is_empty());
    let snapshot = gateway.checkpoint().unwrap();
    drop(gateway);

    let restored = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &snapshot,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap();

    // An attacker replaying an already-processed pre-crash request against
    // the restored gateway gains nothing: the per-session replay nonces
    // were part of the sealed state, so the enclave refuses the duplicate
    // instead of re-endorsing it (which would double-bill the tenant's
    // endorsement budget).
    let replayed = fixture
        .events
        .iter()
        .find(|e| e.round < PRE_ROUNDS)
        .unwrap();
    restored
        .submit(
            fixture.devices[replayed.device].session_id,
            replayed.ciphertext.clone(),
        )
        .unwrap();
    let responses = restored.drain_all().unwrap();
    assert_eq!(responses.len(), 1);
    match &responses[0].outcome {
        BatchOutcome::Failed(reason) => assert!(
            reason.contains("replay"),
            "expected replay rejection, got {reason:?}"
        ),
        other => panic!("replay must not produce a reply: {other:?}"),
    }
}

/// One reply as the host sees it plus what it decrypts to: (session id,
/// reply nonce, ciphertext without its tag, plaintext).
type RawReply = (u64, Vec<u8>, Vec<u8>, Vec<u8>);

/// `per_device` requests from every device, encrypted now under the
/// device's next request counters, for rounds `first_round..` — so every
/// reply's plaintext differs from every other's.
fn fresh_requests(devices: &mut [Device], first_round: u64, per_device: u64) -> Vec<Event> {
    let workload = workload();
    let mut events = Vec::new();
    for round in first_round..first_round + per_device {
        for (idx, device) in devices.iter_mut().enumerate() {
            let tenant = &workload.tenants[idx / DEVICES_PER_TENANT];
            let traffic = &tenant.devices[idx % DEVICES_PER_TENANT];
            let samples = traffic.requests[0].clone();
            let payload = if tenant.name == IOT {
                ContributionPayload::IotReadings { samples }
            } else {
                ContributionPayload::ModelUpdate { weights: samples }
            };
            let contribution = Contribution {
                app_id: tenant.name.clone(),
                client_id: traffic.device_id,
                round,
                payload,
            };
            events.push(Event {
                device: idx,
                round: round as usize,
                ciphertext: device
                    .session
                    .encrypt_request(contribution, PrivateData::None),
            });
        }
    }
    events
}

/// Submits `events`, drains, and returns every reply raw.
fn serve_raw<'a>(
    devices: &[Device],
    events: impl IntoIterator<Item = &'a Event>,
    gateway: &Gateway,
) -> Vec<RawReply> {
    for event in events {
        gateway
            .submit(devices[event.device].session_id, event.ciphertext.clone())
            .unwrap();
    }
    let responses = gateway.drain_all().unwrap();
    responses
        .iter()
        .map(|response| {
            let device = devices
                .iter()
                .find(|d| d.session_id == response.session_id)
                .unwrap();
            let BatchOutcome::Reply { ciphertext, .. } = &response.outcome else {
                panic!("unexpected outcome {:?}", response.outcome);
            };
            let plaintext = device
                .session
                .decrypt_response(ciphertext)
                .unwrap()
                .to_wire();
            let body = ciphertext[12..12 + plaintext.len()].to_vec();
            (
                response.session_id,
                ciphertext[..12].to_vec(),
                body,
                plaintext,
            )
        })
        .collect()
}

/// A restored slot replays its enclave's simulated random stream, so the
/// reply nonces it draws recur under session keys that outlived the crash.
/// The channel AEAD must tolerate that: a repeated `(session, nonce)` over
/// different replies may reveal nothing, in particular no shared keystream
/// (`ct1 ^ ct2 == pt1 ^ pt2`).
#[test]
fn replayed_reply_nonces_across_a_restore_share_no_keystream() {
    let mut fixture = build_fixture();
    let gateway = fixture.gateway;
    let mut replies = serve_raw(
        &fixture.devices,
        fixture.events.iter().filter(|e| e.round < PRE_ROUNDS),
        &gateway,
    );
    let snapshot = gateway.checkpoint().unwrap();
    // Served after the checkpoint, so lost with the crash — the enclave
    // that replaces this one draws the same nonces again.
    let lost = fresh_requests(&mut fixture.devices, ROUNDS as u64, 5);
    replies.extend(serve_raw(&fixture.devices, &lost, &gateway));
    drop(gateway);

    let restored = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &snapshot,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap();
    let after = fresh_requests(&mut fixture.devices, ROUNDS as u64 + 5, 10);
    replies.extend(serve_raw(&fixture.devices, &after, &restored));
    assert_eq!(
        replies.len(),
        DEVICES_PER_TENANT * 2 * (PRE_ROUNDS + 5 + 10)
    );

    let mut repeated = 0;
    for (i, a) in replies.iter().enumerate() {
        for b in &replies[i + 1..] {
            if (a.0, &a.1) != (b.0, &b.1) || a.3 == b.3 {
                continue;
            }
            repeated += 1;
            let n = a.3.len().min(b.3.len());
            let xor = |x: &[u8], y: &[u8]| -> Vec<u8> {
                x[..n].iter().zip(&y[..n]).map(|(p, q)| p ^ q).collect()
            };
            assert_ne!(
                xor(&a.2, &b.2),
                xor(&a.3, &b.3),
                "session {} reused reply nonce {:02x?} with shared keystream",
                a.0,
                a.1
            );
        }
    }
    // The replay itself is the simulator's determinism model: pin that it
    // still happens, so this test keeps exercising the AEAD under it.
    assert!(
        repeated > 0,
        "no (session, reply nonce) repeated across the restore"
    );
}

#[test]
fn endorsement_budget_survives_restarts() {
    // One tenant, one device, a budget of exactly one endorsement. The
    // budget is consumed before the crash; after restore the counter must
    // still be there, or a crash loop would mint unlimited endorsements.
    let mut rng = Drbg::from_seed([60u8; 32]);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let tenants = || {
        let mut tenant = TenantConfig::new(
            IOT,
            GlimmerDescriptor::iot_default(Vec::new()),
            material.secret_bytes(),
        );
        tenant.quota = TenantQuota {
            endorsement_budget: Some(1),
            ..TenantQuota::default()
        };
        vec![tenant]
    };
    let small_config = GatewayConfig {
        slots_per_tenant: 1,
        ..config()
    };
    let mut avs = AttestationService::new([61u8; 32]);
    let gateway = Gateway::new(
        small_config.clone(),
        tenants(),
        &mut avs,
        &mut Drbg::from_seed([62u8; 32]),
    )
    .unwrap();

    let approved = gateway.measurement(IOT).unwrap();
    let (sid, offer) = gateway.open_session(IOT).unwrap();
    let (accept, mut session) =
        IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
    gateway.complete_session(sid, &accept).unwrap();
    let blinding = BlindingService::new([63u8; 32]);
    for round in 0..2u64 {
        let masks = blinding.zero_sum_masks(round, &[1], DIM);
        gateway.install_mask(sid, &masks[0]).unwrap();
    }
    let contribution = |round: u64| Contribution {
        app_id: IOT.to_string(),
        client_id: 1,
        round,
        payload: ContributionPayload::IotReadings {
            samples: vec![0.5; DIM],
        },
    };
    let first = session.encrypt_request(contribution(0), PrivateData::None);
    gateway.submit(sid, first).unwrap();
    let responses = gateway.drain_all().unwrap();
    assert!(
        matches!(
            &responses[0].outcome,
            BatchOutcome::Reply { endorsed: true, .. }
        ),
        "first contribution must consume the budget"
    );

    let snapshot = gateway.checkpoint().unwrap();
    drop(gateway);
    let restored = restore_full(
        small_config,
        tenants(),
        &snapshot,
        &mut avs,
        &mut Drbg::from_seed([62u8; 32]),
    )
    .unwrap();

    // The budget is spent; a post-restart submission is throttled at
    // admission, with the typed quota error.
    let second = session.encrypt_request(contribution(1), PrivateData::None);
    let err = restored.submit(sid, second).unwrap_err();
    assert_eq!(
        err,
        GatewayError::QuotaExceeded {
            tenant: Arc::from(IOT),
            resource: QuotaResource::Endorsements,
        }
    );
}

#[test]
fn streamed_checkpoint_matches_quiesced_capture_and_restores() {
    // Every full checkpoint is captured slot-at-a-time now (the fleet-wide
    // quiesce this test used to compare against is gone, and with it the
    // byte comparison of the two frames). What stays: a restore from the
    // slot-at-a-time frame serves exactly like an uninterrupted run.
    let mut fixture = build_fixture();
    let gateway = fixture.gateway;
    let mut records = submit_rounds(&fixture.devices, &fixture.events, &gateway, 0..PRE_ROUNDS);
    let streamed = gateway.checkpoint().unwrap();
    drop(gateway);

    let restored = restore_full(
        fixture.config.clone(),
        tenant_configs(),
        &streamed,
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap();
    records.extend(submit_rounds(
        &fixture.devices,
        &fixture.events,
        &restored,
        PRE_ROUNDS..ROUNDS,
    ));
    assert_eq!(records, run_uninterrupted());
}

#[test]
fn delta_chain_restore_is_bit_identical_to_full_snapshot_restore() {
    // Run A: base snapshot, then dirty ONLY the IoT tenant, then a delta.
    let mut fa = build_fixture();
    let ga = fa.gateway;
    let mut records_a = submit_rounds(&fa.devices, &fa.events, &ga, 0..PRE_ROUNDS);
    let base = ga.checkpoint().unwrap();
    let devices_a = &fa.devices;
    records_a.extend(submit_filtered(devices_a, &fa.events, &ga, |e| {
        e.round == PRE_ROUNDS && devices_a[e.device].tenant == IOT
    }));
    let delta = ga.checkpoint_delta(&base.chain_base()).unwrap();
    drop(ga);

    // The incremental capture only re-exported the dirty tenant's slots;
    // the untouched tenant was skipped wholesale (no seal, no ECALL).
    let iot = delta.tenants.iter().find(|t| t.name == IOT).unwrap();
    let kb = delta.tenants.iter().find(|t| t.name == KEYBOARD).unwrap();
    assert!(
        iot.slots.iter().all(|s| s.sealed_state.is_some()),
        "dirty slots must carry fresh sealed exports"
    );
    assert!(
        kb.slots.iter().all(|s| s.sealed_state.is_none()),
        "clean slots must be skipped"
    );

    // Run B: the identical scenario with FULL snapshots at the same two
    // points (same checkpoint-op count, so the epoch sequence matches).
    let mut fb = build_fixture();
    let gb = fb.gateway;
    let mut records_b = submit_rounds(&fb.devices, &fb.events, &gb, 0..PRE_ROUNDS);
    let _base_b = gb.checkpoint().unwrap();
    let devices_b = &fb.devices;
    records_b.extend(submit_filtered(devices_b, &fb.events, &gb, |e| {
        e.round == PRE_ROUNDS && devices_b[e.device].tenant == IOT
    }));
    assert_eq!(records_b, records_a);
    let full = gb.checkpoint().unwrap();
    drop(gb);

    // Restore run A from base + delta, run B from the equivalent full
    // snapshot.
    let restored_a = Gateway::restore_chain(
        fa.config.clone(),
        tenant_configs(),
        SnapshotChain {
            base: &base,
            deltas: std::slice::from_ref(&delta),
        },
        &mut fa.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap();
    let restored_b = restore_full(
        fb.config.clone(),
        tenant_configs(),
        &full,
        &mut fb.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap();

    // Bit-identity at the ciphertext level: a fresh full checkpoint taken
    // from either restored gateway — sealed blobs, session table, counters,
    // epoch maps — is byte-for-byte identical.
    assert_eq!(
        restored_a.checkpoint().unwrap().to_bytes(),
        restored_b.checkpoint().unwrap().to_bytes(),
        "chain restore diverged from full-snapshot restore"
    );

    // And both serve the rest of the workload identically.
    let da = &fa.devices;
    let tail_a = submit_filtered(da, &fa.events, &restored_a, |e| {
        (e.round == PRE_ROUNDS && da[e.device].tenant != IOT) || e.round > PRE_ROUNDS
    });
    let db = &fb.devices;
    let tail_b = submit_filtered(db, &fb.events, &restored_b, |e| {
        (e.round == PRE_ROUNDS && db[e.device].tenant != IOT) || e.round > PRE_ROUNDS
    });
    assert_eq!(tail_a, tail_b, "post-restore serving diverged");
    assert!(
        tail_a.iter().any(|(_, _, d)| d.contains("Endorsed")),
        "post-restore tail must produce endorsements"
    );
}

/// A base snapshot plus three deltas (one per remaining workload round),
/// captured once and shared by the fail-closed and property tests below.
fn chain_fixture() -> &'static (GatewaySnapshot, Vec<GatewayDelta>) {
    static CELL: OnceLock<(GatewaySnapshot, Vec<GatewayDelta>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let fixture = build_fixture();
        let gateway = fixture.gateway;
        submit_rounds(&fixture.devices, &fixture.events, &gateway, 0..1);
        let base = gateway.checkpoint().unwrap();
        let mut deltas = Vec::new();
        let mut chain_tip = base.chain_base();
        for round in 1..ROUNDS {
            submit_rounds(
                &fixture.devices,
                &fixture.events,
                &gateway,
                round..round + 1,
            );
            let delta = gateway.checkpoint_delta(&chain_tip).unwrap();
            chain_tip = delta.chain_base();
            deltas.push(delta);
        }
        (base, deltas)
    })
}

/// Submits one ciphertext and returns the reason it was refused.
fn refusal(gateway: &Gateway, session_id: u64, ciphertext: &[u8]) -> String {
    gateway.submit(session_id, ciphertext.to_vec()).unwrap();
    let responses = gateway.drain_all().unwrap();
    assert_eq!(responses.len(), 1);
    match &responses[0].outcome {
        BatchOutcome::Failed(reason) => reason.clone(),
        other => panic!("a replay must not produce a reply: {other:?}"),
    }
}

#[test]
fn replay_windows_ride_the_delta_chain_and_stay_constant_size() {
    // Served before the base, between base and delta, and after the
    // restore: each era's requests must be refused when replayed against
    // the gateway restored from base + delta, and the sealed state a
    // session adds to a slot must not grow with the requests it served.
    let (base, deltas) = chain_fixture();
    let mut fixture = build_fixture();
    drop(fixture.gateway);
    let restored = Gateway::restore_chain(
        fixture.config.clone(),
        tenant_configs(),
        SnapshotChain {
            base,
            deltas: &deltas[..],
        },
        &mut fixture.avs,
        &mut Drbg::from_seed(GW_SEED),
    )
    .unwrap();
    // The fixture's devices hold the same keys as the ones that built the
    // chain (same seeds), so their pre-encrypted events are the chain's.
    for round in [0, 1, ROUNDS - 1] {
        let event = fixture.events.iter().find(|e| e.round == round).unwrap();
        let reason = refusal(
            &restored,
            fixture.devices[event.device].session_id,
            &event.ciphertext,
        );
        assert!(reason.contains("replay"), "round {round}: {reason:?}");
    }

    // Constant size: a base taken after one round and a full checkpoint
    // taken after all of them seal the same number of bytes per slot.
    let sealed_len = |snapshot: &GatewaySnapshot| -> Vec<usize> {
        snapshot
            .tenants
            .iter()
            .flat_map(|t| t.slots.iter().map(|s| s.sealed_state.len()))
            .collect()
    };
    assert_eq!(
        sealed_len(base),
        sealed_len(&restored.checkpoint().unwrap()),
        "sealed slot state grew with the requests served"
    );
}

#[test]
fn delta_chains_fail_closed_with_typed_errors() {
    let (base, deltas) = chain_fixture();
    let [d1, d2, d3] = &deltas[..] else {
        panic!("chain fixture must hold three deltas");
    };
    let mut avs = AttestationService::new(AVS_SEED);
    let mut restore = |chain: Vec<GatewayDelta>| {
        Gateway::restore_chain(
            config(),
            tenant_configs(),
            SnapshotChain {
                base,
                deltas: &chain,
            },
            &mut avs,
            &mut Drbg::from_seed(GW_SEED),
        )
    };

    // A gapped chain (base, d2): d2 names d1's epoch, not the base's.
    assert!(matches!(
        restore(vec![d2.clone()]).unwrap_err(),
        GatewayError::SnapshotChainBroken { .. }
    ));
    // A reordered chain (base, d2, d1): rejected at the first bad link.
    assert!(matches!(
        restore(vec![d2.clone(), d1.clone()]).unwrap_err(),
        GatewayError::SnapshotChainBroken { .. }
    ));
    // A replayed link (base, d1, d1): a delta cannot extend itself.
    assert!(matches!(
        restore(vec![d1.clone(), d1.clone()]).unwrap_err(),
        GatewayError::SnapshotChainBroken { .. }
    ));
    // A forged base link: same epoch, tampered header bytes.
    let mut forged = d1.clone();
    forged.base_header[0] ^= 0x01;
    assert!(matches!(
        restore(vec![forged]).unwrap_err(),
        GatewayError::SnapshotChainBroken { .. }
    ));
    // A shape mismatch: a delta that dropped a tenant cannot extend the
    // base even with pristine chain metadata.
    let mut narrow = d1.clone();
    narrow.tenants.pop();
    assert!(matches!(
        restore(vec![narrow]).unwrap_err(),
        GatewayError::SnapshotChainBroken { .. }
    ));
    // A sealed blob moved from the base into a delta slot passes chain
    // validation (the envelope is intact) but is AAD-bound to the base
    // header, not the delta's chained header: the enclave refuses it.
    let mut spliced = d1.clone();
    spliced.tenants[0].slots[0].sealed_state = Some(base.tenants[0].slots[0].sealed_state.clone());
    assert_eq!(
        restore(vec![spliced]).unwrap_err(),
        GatewayError::SealedBlobRejected {
            tenant: Arc::from(IOT),
        }
    );
    // A delta captured by a DIFFERENT gateway lineage with identical chain
    // metadata (same epochs, same injected clock — so identical header
    // bytes) passes link validation, but its blobs were sealed on other
    // platforms: fail-closed inside the enclave, never silently imported.
    let foreign = {
        let workload = workload();
        let mut f_avs = AttestationService::new(AVS_SEED);
        let f_gateway = Gateway::new(
            config(),
            tenant_configs(),
            &mut f_avs,
            &mut Drbg::from_seed([73u8; 32]),
        )
        .unwrap();
        let mut dev_rng = Drbg::from_seed(DEV_SEED);
        for tenant in &workload.tenants {
            let approved = f_gateway.measurement(&tenant.name).unwrap();
            for _ in &tenant.devices {
                let (session_id, offer) = f_gateway.open_session(&tenant.name).unwrap();
                let (accept, _session) =
                    IotDeviceSession::connect(&offer, &f_avs, &approved, &mut dev_rng).unwrap();
                f_gateway.complete_session(session_id, &accept).unwrap();
            }
        }
        let f_base = f_gateway.checkpoint().unwrap();
        f_gateway.close_session(1).unwrap();
        f_gateway.checkpoint_delta(&f_base.chain_base()).unwrap()
    };
    assert_eq!(foreign.base_epoch, d1.base_epoch);
    assert_eq!(foreign.base_header, d1.base_header);
    assert!(matches!(
        restore(vec![foreign]).unwrap_err(),
        GatewayError::SealedBlobRejected { .. }
    ));

    // The empty chain is the full-snapshot restore: the base alone, every
    // slot unsealed under the base's own header. (Its fail-closed table is
    // `corrupted_snapshots_fail_closed_with_typed_errors`, which restores
    // through this same entry.)
    assert_eq!(
        restore(Vec::new()).unwrap().live_sessions(),
        2 * DEVICES_PER_TENANT,
        "the empty chain must restore the base alone"
    );

    // The untampered chain still restores, full length.
    let restored = restore(vec![d1.clone(), d2.clone(), d3.clone()]).unwrap();
    assert_eq!(
        restored.live_sessions(),
        2 * DEVICES_PER_TENANT,
        "valid chain must restore every session"
    );
}

#[test]
fn delta_frames_reject_kind_confusion() {
    let (base, deltas) = chain_fixture();
    // A full snapshot's bytes fed to the delta decoder (and vice versa)
    // fail typed at the frame kind, long before any field decodes.
    assert!(GatewayDelta::from_bytes(&base.to_bytes()).is_err());
    assert!(GatewaySnapshot::from_bytes(&deltas[0].to_bytes()).is_err());
    // And the delta codec round-trips losslessly.
    let bytes = deltas[0].to_bytes();
    assert_eq!(&GatewayDelta::from_bytes(&bytes).unwrap(), &deltas[0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any truncation or bit flip of a persisted delta frame fails closed
    /// with a typed error — never a panic, never a silent partial decode.
    #[test]
    fn mutated_delta_frames_fail_closed(
        cut in any::<usize>(),
        pos in any::<usize>(),
        bit in 0u32..8,
    ) {
        let (_, deltas) = chain_fixture();
        let bytes = deltas[0].to_bytes();
        let err = GatewayDelta::from_bytes(&bytes[..cut % bytes.len()]).unwrap_err();
        prop_assert!(matches!(err, GatewayError::SnapshotCorrupt(_)));
        let mut corrupt = bytes.clone();
        let pos = pos % corrupt.len();
        corrupt[pos] ^= 1u8 << bit;
        let err = GatewayDelta::from_bytes(&corrupt).unwrap_err();
        prop_assert!(matches!(
            err,
            GatewayError::SnapshotCorrupt(_) | GatewayError::SnapshotMismatch { .. }
        ));
    }

    /// Any delta sequence that is not an exact prefix of the true chain —
    /// gaps, reorders, repeats, arbitrary shuffles — is rejected fail-closed
    /// before a single enclave is built.
    #[test]
    fn non_prefix_delta_sequences_are_rejected(
        picks in proptest::collection::vec(0usize..3, 1..6),
    ) {
        prop_assume!(picks.iter().enumerate().any(|(i, &p)| i != p));
        let (base, deltas) = chain_fixture();
        let chain: Vec<GatewayDelta> =
            picks.iter().map(|&i| deltas[i].clone()).collect();
        let mut avs = AttestationService::new(AVS_SEED);
        let err = Gateway::restore_chain(
            config(),
            tenant_configs(),
            SnapshotChain { base, deltas: &chain },
            &mut avs,
            &mut Drbg::from_seed(GW_SEED),
        )
        .unwrap_err();
        prop_assert!(matches!(err, GatewayError::SnapshotChainBroken { .. }));
    }
}
