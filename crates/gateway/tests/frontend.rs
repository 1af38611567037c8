//! Async front-end invariants: one executor thread multiplexes many device
//! sessions through their full lifecycle while blocking submitter threads
//! share the same gateway — no reply is lost, none is duplicated, none
//! crosses a tenant boundary — and the whole-gateway quiesce operations
//! (checkpoint, shutdown) conflict with a typed error instead of
//! deadlocking the shard workers.

mod common;

use common::Hold;
use glimmer_core::blinding::BlindingService;
use glimmer_core::host::GlimmerDescriptor;
use glimmer_core::protocol::{BatchOutcome, Contribution, ContributionPayload, PrivateData};
use glimmer_core::remote::IotDeviceSession;
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_crypto::drbg::Drbg;
use glimmer_gateway::frontend::{AsyncGateway, SessionExecutor};
use glimmer_gateway::{
    BarrierOp, CrashAt, CrashPoint, Gateway, GatewayConfig, GatewayError, TenantConfig,
};
use sgx_sim::AttestationService;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

const IOT: &str = "iot-telemetry.example";
const KEYBOARD: &str = "nextwordpredictive.com";
const IOT_DIM: usize = 4;
const KB_DIM: usize = 8;

fn config(shards: usize, slots_per_tenant: usize) -> GatewayConfig {
    GatewayConfig {
        slots_per_tenant,
        shards,
        ..GatewayConfig::default()
    }
}

fn build_gateway(config: GatewayConfig, avs: &mut AttestationService, rng: &mut Drbg) -> Gateway {
    let iot_material = ServiceKeyMaterial::generate(rng).unwrap();
    let kb_material = ServiceKeyMaterial::generate(rng).unwrap();
    Gateway::new(
        config,
        vec![
            TenantConfig::new(
                IOT,
                GlimmerDescriptor::iot_default(Vec::new()),
                iot_material.secret_bytes(),
            ),
            TenantConfig::new(
                KEYBOARD,
                GlimmerDescriptor::keyboard_range_only(),
                kb_material.secret_bytes(),
            ),
        ],
        avs,
        rng,
    )
    .unwrap()
}

fn contribution(tenant: &str, client_id: u64, round: u64) -> Contribution {
    Contribution {
        app_id: tenant.to_string(),
        client_id,
        round,
        payload: if tenant == IOT {
            ContributionPayload::IotReadings {
                samples: vec![0.25; IOT_DIM],
            }
        } else {
            ContributionPayload::ModelUpdate {
                weights: vec![0.5; KB_DIM],
            }
        },
    }
}

/// The headline stress test: `ASYNC_SESSIONS` IoT device sessions run their
/// whole lifecycle (open, attested handshake, per-round mask installs,
/// `submit_many` of their request stream) as tasks on ONE executor thread,
/// while blocking submitter threads push keyboard-tenant traffic through
/// the same gateway. A single async drainer task collects every reply.
///
/// Invariants checked: every admitted request produces exactly one reply
/// (no loss, no duplication), every reply's tenant label matches the
/// session that submitted it (no cross-tenant leak), and all honest
/// traffic is endorsed.
#[test]
fn async_sessions_mixed_with_blocking_submitters_lose_and_leak_nothing() {
    const ASYNC_SESSIONS: usize = 48;
    const ASYNC_ROUNDS: usize = 3;
    const BLOCKING_SESSIONS: usize = 8;
    const BLOCKING_ROUNDS: usize = 4;

    let mut rng = Drbg::from_seed([90u8; 32]);
    let mut avs = AttestationService::new([91u8; 32]);
    let gateway = Arc::new(build_gateway(config(2, 2), &mut avs, &mut rng));

    // --- Blocking side: establish keyboard sessions up front. ---
    let kb_clients: Vec<u64> = (0..BLOCKING_SESSIONS as u64).collect();
    let kb_blinding = BlindingService::new([92u8; 32]);
    let kb_approved = gateway.measurement(KEYBOARD).unwrap();
    let mut kb_devices = Vec::new();
    for (i, client_id) in kb_clients.iter().enumerate() {
        let (session_id, offer) = gateway.open_session(KEYBOARD).unwrap();
        let (accept, session) =
            IotDeviceSession::connect(&offer, &avs, &kb_approved, &mut rng).unwrap();
        gateway.complete_session(session_id, &accept).unwrap();
        for round in 0..BLOCKING_ROUNDS as u64 {
            let masks = kb_blinding.zero_sum_masks(round, &kb_clients, KB_DIM);
            gateway.install_mask(session_id, &masks[i]).unwrap();
        }
        kb_devices.push((session_id, *client_id, session));
    }
    let kb_session_ids: Vec<u64> = kb_devices.iter().map(|(sid, _, _)| *sid).collect();

    // --- Async side inputs, shared across session tasks via Rc. ---
    let iot_clients: Vec<u64> = (0..ASYNC_SESSIONS as u64).collect();
    let iot_blinding = BlindingService::new([93u8; 32]);
    let iot_masks: Vec<Vec<_>> = (0..ASYNC_ROUNDS as u64)
        .map(|round| iot_blinding.zero_sum_masks(round, &iot_clients, IOT_DIM))
        .collect();
    let expected_total = ASYNC_SESSIONS * ASYNC_ROUNDS + BLOCKING_SESSIONS * BLOCKING_ROUNDS;

    let responses = Rc::new(RefCell::new(Vec::new()));
    // session_id -> tenant expected for every reply, filled as sessions
    // open (async entries are added by their tasks before any submit).
    let expected_tenant = Rc::new(RefCell::new(
        kb_session_ids
            .iter()
            .map(|sid| (*sid, KEYBOARD))
            .collect::<HashMap<u64, &'static str>>(),
    ));

    std::thread::scope(|scope| {
        // Blocking submitters: two OS threads pushing keyboard traffic
        // concurrently with the executor's session tasks.
        for chunk in kb_devices.chunks_mut(BLOCKING_SESSIONS / 2) {
            let gateway = Arc::clone(&gateway);
            scope.spawn(move || {
                for round in 0..BLOCKING_ROUNDS as u64 {
                    for (session_id, client_id, session) in chunk.iter_mut() {
                        let request = session.encrypt_request(
                            contribution(KEYBOARD, *client_id, round),
                            PrivateData::None,
                        );
                        gateway.submit(*session_id, request).unwrap();
                    }
                }
            });
        }

        // Async front-end: everything below runs on THIS thread.
        let frontend = AsyncGateway::from_arc(Arc::clone(&gateway));
        let mut executor = SessionExecutor::new();
        let device_rng = Rc::new(RefCell::new(Drbg::from_seed([94u8; 32])));
        let avs = Rc::new(avs);
        let approved = gateway.measurement(IOT).unwrap();
        let iot_masks = Rc::new(iot_masks);

        for (i, client_id) in iot_clients.iter().copied().enumerate() {
            let frontend = frontend.clone();
            let device_rng = Rc::clone(&device_rng);
            let avs = Rc::clone(&avs);
            let iot_masks = Rc::clone(&iot_masks);
            let expected_tenant = Rc::clone(&expected_tenant);
            executor.spawn(async move {
                let (session_id, offer) = frontend.open_session(IOT).await.unwrap();
                expected_tenant.borrow_mut().insert(session_id, IOT);
                let (accept, mut session) = {
                    let mut rng = device_rng.borrow_mut();
                    IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap()
                };
                frontend
                    .complete_session(session_id, &accept)
                    .await
                    .unwrap();
                for round in iot_masks.iter() {
                    frontend.install_mask(session_id, &round[i]).await.unwrap();
                }
                // The whole stream as one atomic batched admission.
                let stream: Vec<Vec<u8>> = (0..ASYNC_ROUNDS as u64)
                    .map(|round| {
                        session
                            .encrypt_request(contribution(IOT, client_id, round), PrivateData::None)
                    })
                    .collect();
                frontend.submit_many(session_id, stream).await.unwrap();
            });
        }

        // One drainer task gathers every reply — from async and blocking
        // submitters alike — until nothing can still be in flight.
        {
            let frontend = frontend.clone();
            let responses = Rc::clone(&responses);
            executor.spawn(async move {
                loop {
                    let batch = frontend.drain_replies().await.unwrap();
                    let swept_nothing = batch.is_empty();
                    let have_all = {
                        let mut collected = responses.borrow_mut();
                        collected.extend(batch);
                        collected.len() >= expected_total
                    };
                    if have_all {
                        break;
                    }
                    if swept_nothing {
                        // Give submitter threads a moment to enqueue more:
                        // a test-only pacing sleep, not part of the design.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            });
        }
        executor.run();
    });

    // No loss, no duplication: exactly one reply per admitted request,
    // exactly the per-session counts each submitter produced.
    let responses = responses.borrow();
    assert_eq!(responses.len(), expected_total);
    let mut per_session: HashMap<u64, usize> = HashMap::new();
    let expected_tenant = expected_tenant.borrow();
    for response in responses.iter() {
        *per_session.entry(response.session_id).or_default() += 1;
        // No cross-tenant leak: the reply carries the tenant that owns the
        // session it is routed back to.
        assert_eq!(
            expected_tenant[&response.session_id], &*response.tenant,
            "reply for session {} routed under the wrong tenant",
            response.session_id
        );
        // Honest traffic: every reply is an endorsement.
        let BatchOutcome::Reply { endorsed, .. } = &response.outcome else {
            panic!("honest request failed: {:?}", response.outcome);
        };
        assert!(endorsed, "honest request rejected");
    }
    assert_eq!(
        per_session.len(),
        ASYNC_SESSIONS + BLOCKING_SESSIONS,
        "every session must have produced replies"
    );
    for (session_id, count) in &per_session {
        let expected = if expected_tenant[session_id] == IOT {
            ASYNC_ROUNDS
        } else {
            BLOCKING_ROUNDS
        };
        assert_eq!(
            *count, expected,
            "session {session_id} reply count off (loss or duplication)"
        );
    }
}

/// Regression test for the executor poison cascade: a panicking session
/// task used to poison the ready-queue and completion-cell mutexes, and the
/// next `.expect("... poisoned")` then re-panicked inside every *healthy*
/// session sharing the executor. Now the panic is contained at the poll
/// boundary and every lock recovers from poisoning, so one deliberately
/// panicking task among 8 full-lifecycle device sessions changes nothing
/// for its neighbours — and the gateway stays fully usable afterwards.
#[test]
fn panicking_task_among_healthy_sessions_poisons_nothing() {
    const SESSIONS: usize = 8;
    const ROUNDS: usize = 2;

    let mut rng = Drbg::from_seed([101u8; 32]);
    let mut avs = AttestationService::new([102u8; 32]);
    let gateway = Arc::new(build_gateway(config(2, 2), &mut avs, &mut rng));
    let frontend = AsyncGateway::from_arc(Arc::clone(&gateway));
    let clients: Vec<u64> = (0..SESSIONS as u64).collect();
    let blinding = BlindingService::new([103u8; 32]);
    let masks: Rc<Vec<Vec<_>>> = Rc::new(
        (0..ROUNDS as u64)
            .map(|round| blinding.zero_sum_masks(round, &clients, IOT_DIM))
            .collect(),
    );
    let approved = gateway.measurement(IOT).unwrap();
    let avs = Rc::new(avs);
    let device_rng = Rc::new(RefCell::new(Drbg::from_seed([104u8; 32])));

    let mut executor = SessionExecutor::new();
    let completed = Rc::new(Cell::new(0usize));
    // The saboteur: a task that panics mid-poll, scheduled FIRST so its
    // unwind happens while every healthy session still has work pending.
    executor.spawn(async move {
        panic!("deliberate task panic: must stay contained to this task");
    });
    for (i, client_id) in clients.iter().copied().enumerate() {
        let frontend = frontend.clone();
        let device_rng = Rc::clone(&device_rng);
        let avs = Rc::clone(&avs);
        let masks = Rc::clone(&masks);
        let completed = Rc::clone(&completed);
        executor.spawn(async move {
            let (session_id, offer) = frontend.open_session(IOT).await.unwrap();
            let (accept, mut session) = {
                let mut rng = device_rng.borrow_mut();
                IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap()
            };
            frontend
                .complete_session(session_id, &accept)
                .await
                .unwrap();
            for round in masks.iter() {
                frontend.install_mask(session_id, &round[i]).await.unwrap();
            }
            let stream: Vec<Vec<u8>> = (0..ROUNDS as u64)
                .map(|round| {
                    session.encrypt_request(contribution(IOT, client_id, round), PrivateData::None)
                })
                .collect();
            frontend.submit_many(session_id, stream).await.unwrap();
            completed.set(completed.get() + 1);
        });
    }
    executor.run();
    drop(frontend);

    // The panic retired exactly one task; every healthy session finished.
    assert_eq!(executor.panicked_tasks(), 1);
    assert_eq!(completed.get(), SESSIONS);
    assert_eq!(executor.live_tasks(), 0);

    // Nothing downstream was poisoned: the blocking API still drains every
    // admitted request and the gateway still quiesces cleanly.
    let mut replies = Vec::new();
    while replies.len() < SESSIONS * ROUNDS {
        let batch = gateway.drain().unwrap();
        if batch.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        replies.extend(batch);
    }
    assert_eq!(replies.len(), SESSIONS * ROUNDS);
    for reply in &replies {
        let BatchOutcome::Reply { endorsed, .. } = &reply.outcome else {
            panic!("honest request failed: {:?}", reply.outcome);
        };
        assert!(endorsed);
    }
    Arc::try_unwrap(gateway)
        .unwrap_or_else(|_| panic!("sole owner"))
        .shutdown()
        .unwrap();
}

/// Regression test for the capture-overlap race: two concurrent checkpoints
/// used to interleave their two-phase worker barriers and deadlock (each
/// worker paused for a different checkpoint, each checkpoint waiting for
/// the other's workers). Now the loser gets a typed
/// [`GatewayError::BarrierConflict`], the winner completes untouched, and a
/// subsequent shutdown drains normally.
#[test]
fn overlapping_checkpoints_fail_typed_instead_of_deadlocking() {
    let mut rng = Drbg::from_seed([95u8; 32]);
    let mut avs = AttestationService::new([96u8; 32]);
    // Two shards: the shape where interleaved barriers actually deadlocked.
    // The first checkpoint parks mid-capture (its first slot exported, the
    // gateway-wide claim and that slot's claim still held).
    let hold = Hold::at(CrashPoint::MidStreamExport);
    let config = GatewayConfig {
        crash_hooks: hold.clone(),
        ..config(2, 2)
    };
    let gateway = build_gateway(config, &mut avs, &mut rng);

    std::thread::scope(|scope| {
        let first = scope.spawn(|| gateway.checkpoint());
        // Wait until the first checkpoint provably holds the barrier (it is
        // between two slots' exports), then race a second one against it.
        hold.wait_parked();
        let conflict = gateway.checkpoint().expect_err("overlap must be refused");
        assert_eq!(
            conflict,
            GatewayError::BarrierConflict {
                in_progress: BarrierOp::Checkpoint,
                requested: BarrierOp::Checkpoint,
            }
        );
        hold.release();
        let snapshot = first.join().unwrap().expect("winner completes normally");
        assert_eq!(snapshot.tenants.len(), 2);
    });

    // The refused attempt must not have wedged the barrier: another
    // checkpoint and the final shutdown both proceed.
    gateway
        .checkpoint()
        .expect("barrier released after overlap");
    gateway.shutdown().expect("shutdown after checkpoints");
}

/// A checkpoint abandoned mid-flight (injected crash) releases the barrier,
/// so later checkpoints and shutdown never see a stale conflict.
#[test]
fn crashed_checkpoint_releases_the_barrier() {
    let mut rng = Drbg::from_seed([97u8; 32]);
    let mut avs = AttestationService::new([98u8; 32]);
    let crash = Arc::new(CrashAt::default());
    let config = GatewayConfig {
        crash_hooks: crash.clone(),
        ..config(2, 1)
    };
    let gateway = build_gateway(config, &mut avs, &mut rng);
    for point in [
        CrashPoint::BeforeCheckpoint,
        CrashPoint::MidStreamExport,
        CrashPoint::SnapshotAssembled,
    ] {
        crash.arm(point);
        let err = gateway.checkpoint().expect_err("injected crash");
        crash.disarm();
        assert_eq!(err, GatewayError::CrashInjected(point));
        gateway
            .checkpoint()
            .expect("barrier must be released after an aborted checkpoint");
    }
    gateway.shutdown().unwrap();
}

/// An idle async drain on a healthy runtime resolves (empty) rather than
/// parking its task, and `try_into_gateway` recovers ownership once the
/// last front-end clone is gone so the blocking `shutdown` still composes.
#[test]
fn async_drain_on_idle_gateway_resolves_and_ownership_round_trips() {
    let mut rng = Drbg::from_seed([99u8; 32]);
    let mut avs = AttestationService::new([100u8; 32]);
    let frontend = AsyncGateway::new(build_gateway(config(1, 1), &mut avs, &mut rng));

    let outcome = Rc::new(RefCell::new(None));
    let mut executor = SessionExecutor::new();
    {
        let outcome = Rc::clone(&outcome);
        let frontend = frontend.clone();
        executor.spawn(async move {
            *outcome.borrow_mut() = Some(frontend.drain_replies().await);
        });
    }
    executor.run();
    assert_eq!(
        outcome.borrow().as_ref().unwrap().as_ref().unwrap().len(),
        0
    );

    // A clone keeps the gateway shared...
    let clone = frontend.clone();
    let frontend = frontend.try_into_gateway().expect_err("still shared");
    drop(clone);
    // ...and the last handle recovers ownership for the blocking shutdown.
    let gateway = match frontend.try_into_gateway() {
        Ok(gateway) => gateway,
        Err(_) => panic!("sole owner now"),
    };
    gateway.shutdown().unwrap();
}
