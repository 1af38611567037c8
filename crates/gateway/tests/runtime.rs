//! Shard-per-core runtime invariants: the `&self` gateway handle really is
//! safe to share across threads, concurrent serving neither loses nor
//! duplicates nor cross-routes endorsements, shutdown drains in-flight work,
//! sharding does not change what is computed (only who computes it), and
//! stale-pending eviction follows the injected clock rather than wall time.

use glimmer_core::blinding::BlindingService;
use glimmer_core::channel::{AttestedChannel, ChannelOffer};
use glimmer_core::host::GlimmerDescriptor;
use glimmer_core::protocol::{
    BatchOutcome, Contribution, ContributionPayload, PrivateData, ProcessResponse,
};
use glimmer_core::remote::IotDeviceSession;
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_crypto::dh::DhGroup;
use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::schnorr::SigningKey;
use glimmer_gateway::{
    ChainBase, Gateway, GatewayConfig, GatewayError, ManualClock, QuotaResource, TenantConfig,
    TenantQuota,
};
use sgx_sim::AttestationService;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const IOT: &str = "iot-telemetry.example";
const KEYBOARD: &str = "nextwordpredictive.com";
const DIM: usize = 4;

// The tentpole claim, stated to the compiler: the gateway handle is a
// shared-reference API safe to hand to any number of threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Gateway>();
    assert_send_sync::<glimmer_gateway::GatewayResponse>();
};

struct Setup {
    gateway: Gateway,
    avs: AttestationService,
    rng: Drbg,
}

fn setup(shards: usize, slots_per_tenant: usize) -> Setup {
    setup_with(GatewayConfig {
        slots_per_tenant,
        shards,
        ..GatewayConfig::default()
    })
}

fn setup_with(config: GatewayConfig) -> Setup {
    let mut rng = Drbg::from_seed([80u8; 32]);
    let mut avs = AttestationService::new([81u8; 32]);
    let iot_material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let kb_material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let gateway = Gateway::new(
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
        &mut avs,
        &mut rng,
    )
    .unwrap();
    Setup { gateway, avs, rng }
}

/// One established device session plus everything needed to submit honest
/// contributions and recognize its replies.
struct Device {
    tenant: &'static str,
    session_id: u64,
    client_id: u64,
    session: IotDeviceSession,
}

/// Opens `per_tenant` sessions for both tenants, binds per-round masks, and
/// returns the devices. `rounds` masks are installed per device.
fn connect_devices(s: &mut Setup, per_tenant: usize, rounds: usize) -> Vec<Device> {
    let mut devices = Vec::new();
    for tenant in [IOT, KEYBOARD] {
        let dim = if tenant == IOT { DIM } else { 8 };
        let approved = s.gateway.measurement(tenant).unwrap();
        let client_ids: Vec<u64> = (0..per_tenant as u64).collect();
        let blinding = BlindingService::new([82u8; 32]);
        let mask_rounds: Vec<_> = (0..rounds as u64)
            .map(|round| blinding.zero_sum_masks(round, &client_ids, dim))
            .collect();
        for (i, client_id) in client_ids.iter().enumerate() {
            let (session_id, offer) = s.gateway.open_session(tenant).unwrap();
            let (accept, session) =
                IotDeviceSession::connect(&offer, &s.avs, &approved, &mut s.rng).unwrap();
            s.gateway.complete_session(session_id, &accept).unwrap();
            for round in &mask_rounds {
                s.gateway.install_mask(session_id, &round[i]).unwrap();
            }
            devices.push(Device {
                tenant,
                session_id,
                client_id: *client_id,
                session,
            });
        }
    }
    devices
}

fn contribution(tenant: &str, client_id: u64, round: u64) -> Contribution {
    let dim = if tenant == IOT { DIM } else { 8 };
    Contribution {
        app_id: tenant.to_string(),
        client_id,
        round,
        payload: if tenant == IOT {
            ContributionPayload::IotReadings {
                samples: vec![0.25; dim],
            }
        } else {
            ContributionPayload::ModelUpdate {
                weights: vec![0.5; dim],
            }
        },
    }
}

#[test]
fn concurrent_submit_and_drain_neither_loses_nor_duplicates_nor_cross_routes() {
    const ROUNDS: usize = 3;
    const PER_TENANT: usize = 4;
    let mut s = setup(4, 2);
    assert_eq!(s.gateway.shard_count(), 4);
    let devices = connect_devices(&mut s, PER_TENANT, ROUNDS);
    let expected_total = devices.len() * ROUNDS;
    let expected_tenant: HashMap<u64, &'static str> =
        devices.iter().map(|d| (d.session_id, d.tenant)).collect();

    // Partition the devices into owned per-thread chunks: each submitter
    // thread exclusively owns its devices (encryption needs `&mut`), while
    // all threads share the one `&Gateway` handle.
    let mut chunks: Vec<Vec<Device>> = Vec::new();
    let mut iter = devices.into_iter();
    loop {
        let chunk: Vec<Device> = iter.by_ref().take(2).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }

    let gateway = &s.gateway;
    let submitted = AtomicUsize::new(0);
    let responses = Mutex::new(Vec::new());
    let devices_back: Mutex<Vec<Device>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // Four submitter threads, submitting concurrently with each other
        // and with the drainer.
        for mut chunk in chunks {
            let submitted = &submitted;
            let devices_back = &devices_back;
            scope.spawn(move || {
                // Interleave rounds across this thread's devices.
                for round in 0..ROUNDS {
                    for device in chunk.iter_mut() {
                        let request = device.session.encrypt_request(
                            contribution(device.tenant, device.client_id, round as u64),
                            PrivateData::None,
                        );
                        gateway.submit(device.session_id, request).unwrap();
                        submitted.fetch_add(1, Ordering::SeqCst);
                    }
                }
                devices_back.lock().unwrap().extend(chunk);
            });
        }
        // One drainer thread racing the submitters: keeps sweeping until
        // every submitted request has come back.
        let responses = &responses;
        scope.spawn(move || {
            let mut collected = 0usize;
            let mut sweeps = 0usize;
            while collected < expected_total {
                sweeps += 1;
                assert!(sweeps < 100_000, "drain loop did not converge");
                let batch = gateway.drain().unwrap();
                collected += batch.len();
                responses.lock().unwrap().extend(batch);
                // Let submitters make progress between empty sweeps.
                if collected < expected_total {
                    std::thread::yield_now();
                }
            }
        });
    });

    let devices = devices_back.into_inner().unwrap();
    assert_eq!(submitted.load(Ordering::SeqCst), expected_total);
    let responses = responses.into_inner().unwrap();
    // Nothing lost, nothing duplicated: exactly `ROUNDS` replies per session.
    assert_eq!(responses.len(), expected_total);
    let mut per_session: HashMap<u64, usize> = HashMap::new();
    for response in &responses {
        *per_session.entry(response.session_id).or_default() += 1;
        // No cross-tenant leak: the reply is labelled with the tenant the
        // session belongs to.
        assert_eq!(
            &*response.tenant, expected_tenant[&response.session_id],
            "response for session {} routed under the wrong tenant",
            response.session_id
        );
    }
    assert_eq!(per_session.len(), devices.len());
    assert!(per_session.values().all(|n| *n == ROUNDS));

    // Every reply decrypts under its own device's channel keys (a reply
    // produced by another tenant's enclave, or another session's keys, would
    // fail AEAD opening) and every honest contribution was endorsed.
    let mut devices: HashMap<u64, Device> =
        devices.into_iter().map(|d| (d.session_id, d)).collect();
    for response in &responses {
        let BatchOutcome::Reply {
            ciphertext,
            endorsed,
        } = &response.outcome
        else {
            panic!("unexpected outcome {:?}", response.outcome);
        };
        assert!(endorsed);
        let device = devices.get_mut(&response.session_id).unwrap();
        let ProcessResponse::Endorsed(endorsement) =
            device.session.decrypt_response(ciphertext).unwrap()
        else {
            panic!("honest contribution was not endorsed");
        };
        assert_eq!(endorsement.client_id, device.client_id);
        assert_eq!(endorsement.app_id, device.tenant);
    }

    // The merged stats agree with what the threads observed.
    let stats = s.gateway.stats();
    assert_eq!(stats.total_endorsed(), expected_total as u64);
    assert_eq!(stats.total_items(), expected_total as u64);
    for (name, tenant) in &stats.tenants {
        assert_eq!(tenant.submitted, (PER_TENANT * ROUNDS) as u64, "{name}");
        assert_eq!(tenant.endorsed, (PER_TENANT * ROUNDS) as u64, "{name}");
        assert_eq!(tenant.failed, 0, "{name}");
        assert_eq!(tenant.rejected, 0, "{name}");
    }
    // Every shard owns at least one slot at this shape (4 slots, 4 shards).
    let shards: std::collections::BTreeSet<usize> =
        stats.slots.iter().map(|row| row.shard).collect();
    assert_eq!(shards.len(), 4);
}

#[test]
fn submit_many_rejects_atomically_and_reservations_roll_back() {
    // One slot, shallow queue, tight endorsement budget: every admission
    // limit is reachable with small groups.
    let mut rng = Drbg::from_seed([85u8; 32]);
    let mut avs = AttestationService::new([86u8; 32]);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let mut tenant = TenantConfig::new(
        IOT,
        GlimmerDescriptor::iot_default(Vec::new()),
        material.secret_bytes(),
    );
    tenant.quota = TenantQuota {
        max_sessions: 4,
        max_queued: 16,
        endorsement_budget: Some(5),
    };
    let gateway = Gateway::new(
        GatewayConfig {
            slots_per_tenant: 1,
            max_queue_depth: 4,
            ..GatewayConfig::default()
        },
        vec![tenant],
        &mut avs,
        &mut rng,
    )
    .unwrap();
    let approved = gateway.measurement(IOT).unwrap();
    let (sid, offer) = gateway.open_session(IOT).unwrap();
    let (accept, mut session) =
        IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
    gateway.complete_session(sid, &accept).unwrap();
    let blinding = BlindingService::new([87u8; 32]);
    for round in 0..6u64 {
        gateway
            .install_mask(sid, &blinding.zero_sum_masks(round, &[0], DIM)[0])
            .unwrap();
    }
    let mut encrypt = |round: u64| {
        session.encrypt_request(
            Contribution {
                app_id: IOT.to_string(),
                client_id: 0,
                round,
                payload: ContributionPayload::IotReadings {
                    samples: vec![0.25; DIM],
                },
            },
            PrivateData::None,
        )
    };

    // A group deeper than the slot queue rejects whole: nothing enqueued,
    // the queued-quota and budget reservations rolled back.
    let too_deep: Vec<Vec<u8>> = (0..5).map(&mut encrypt).collect();
    assert!(matches!(
        gateway.submit_many(sid, too_deep),
        Err(GatewayError::Backpressure { depth: 0, .. })
    ));
    assert_eq!(gateway.queued(IOT).unwrap(), 0);

    // A group that would cross the endorsement budget mid-batch rejects
    // whole, before anything is enqueued.
    let over_budget: Vec<Vec<u8>> = (0..6).map(&mut encrypt).collect();
    assert!(matches!(
        gateway.submit_many(sid, over_budget),
        Err(GatewayError::QuotaExceeded {
            resource: QuotaResource::Endorsements,
            ..
        })
    ));
    assert_eq!(gateway.queued(IOT).unwrap(), 0);

    // A fitting group admits whole; the released reservations above left no
    // residue, so exactly the budget remains.
    let fitting: Vec<Vec<u8>> = (0..4).map(&mut encrypt).collect();
    gateway.submit_many(sid, fitting).unwrap();
    assert_eq!(gateway.queued(IOT).unwrap(), 4);
    // One more single request would exceed the queue depth.
    assert!(matches!(
        gateway.submit(sid, encrypt(4)),
        Err(GatewayError::Backpressure { .. })
    ));
    let responses = gateway.drain_all().unwrap();
    assert_eq!(responses.len(), 4);
    assert!(responses
        .iter()
        .all(|r| matches!(r.outcome, BatchOutcome::Reply { endorsed: true, .. })));

    // Four endorsements are spent; a final group of one still fits ...
    gateway.submit_many(sid, vec![encrypt(4)]).unwrap();
    assert_eq!(gateway.drain_all().unwrap().len(), 1);
    // ... and the budget is now exhausted for groups and singles alike.
    assert!(matches!(
        gateway.submit_many(sid, vec![encrypt(5)]),
        Err(GatewayError::QuotaExceeded {
            resource: QuotaResource::Endorsements,
            ..
        })
    ));
    let stats = gateway.stats();
    let (_, iot) = &stats.tenants[0];
    assert_eq!(iot.endorsed, 5);
    assert_eq!(iot.submitted, 5);
    // Throttles counted one per rejected request: 5 + 6 + 1 + 1.
    assert_eq!(iot.throttled, 13);
    // Two SubmitMany commands and one (rejected-before-send) submit: the
    // admitted five requests cost two shard-queue commands.
    assert_eq!(stats.submit_commands, 2);
}

#[test]
fn submit_batch_atomic_rejection_counts_every_request_throttled() {
    // Two slots, shallow queues. A batch whose second slot-group trips
    // backpressure must reject whole — and the throttled stat must count
    // every request in the batch, exactly as the same rejection would
    // record arriving per-request.
    let mut rng = Drbg::from_seed([88u8; 32]);
    let mut avs = AttestationService::new([89u8; 32]);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let gateway = Gateway::new(
        GatewayConfig {
            slots_per_tenant: 2,
            max_queue_depth: 4,
            ..GatewayConfig::default()
        },
        vec![TenantConfig::new(
            IOT,
            GlimmerDescriptor::iot_default(Vec::new()),
            material.secret_bytes(),
        )],
        &mut avs,
        &mut rng,
    )
    .unwrap();
    let approved = gateway.measurement(IOT).unwrap();
    let mut establish = || {
        let (sid, offer) = gateway.open_session(IOT).unwrap();
        let (accept, _device) =
            IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
        gateway.complete_session(sid, &accept).unwrap();
        sid
    };
    let on_slot0 = establish();
    let on_slot1 = establish();
    assert_ne!(
        gateway.session_slot(on_slot0).unwrap(),
        gateway.session_slot(on_slot1).unwrap()
    );

    // 3 requests fit slot 0; 5 overflow slot 1's depth of 4.
    let mut batch: Vec<(u64, Vec<u8>)> = Vec::new();
    for _ in 0..3 {
        batch.push((on_slot0, vec![0u8; 16]));
    }
    for _ in 0..5 {
        batch.push((on_slot1, vec![0u8; 16]));
    }
    assert!(matches!(
        gateway.submit_batch(batch),
        Err(GatewayError::Backpressure { .. })
    ));
    // Nothing enqueued, no shard command issued, and all 8 requests of the
    // rejected batch are visible as throttled.
    assert_eq!(gateway.queued(IOT).unwrap(), 0);
    let stats = gateway.stats();
    assert_eq!(stats.submit_commands, 0);
    let (_, iot) = &stats.tenants[0];
    assert_eq!(iot.throttled, 8);
    assert_eq!(iot.submitted, 0);
}

#[test]
fn mixed_submit_and_submit_many_stress_neither_loses_nor_duplicates() {
    const ROUNDS: usize = 4;
    const PER_TENANT: usize = 4;
    let mut s = setup(4, 2);
    let devices = connect_devices(&mut s, PER_TENANT, ROUNDS);
    let expected_total = devices.len() * ROUNDS;

    let mut chunks: Vec<Vec<Device>> = Vec::new();
    let mut iter = devices.into_iter();
    loop {
        let chunk: Vec<Device> = iter.by_ref().take(2).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }

    let gateway = &s.gateway;
    let responses = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        // Submitter threads alternate admission paths: even threads stream
        // each device's rounds through one submit_many group, odd threads
        // submit per-request — racing each other and the drainer.
        for (i, mut chunk) in chunks.into_iter().enumerate() {
            scope.spawn(move || {
                for device in chunk.iter_mut() {
                    if i % 2 == 0 {
                        let group: Vec<Vec<u8>> = (0..ROUNDS)
                            .map(|round| {
                                device.session.encrypt_request(
                                    contribution(device.tenant, device.client_id, round as u64),
                                    PrivateData::None,
                                )
                            })
                            .collect();
                        gateway.submit_many(device.session_id, group).unwrap();
                    } else {
                        for round in 0..ROUNDS {
                            let request = device.session.encrypt_request(
                                contribution(device.tenant, device.client_id, round as u64),
                                PrivateData::None,
                            );
                            gateway.submit(device.session_id, request).unwrap();
                        }
                    }
                }
            });
        }
        let responses = &responses;
        scope.spawn(move || {
            let mut collected = 0usize;
            let mut sweeps = 0usize;
            while collected < expected_total {
                sweeps += 1;
                assert!(sweeps < 100_000, "drain loop did not converge");
                let batch = gateway.drain().unwrap();
                collected += batch.len();
                responses.lock().unwrap().extend(batch);
                if collected < expected_total {
                    std::thread::yield_now();
                }
            }
        });
    });

    // Nothing lost, nothing duplicated, everything endorsed, regardless of
    // which admission path carried the request.
    let responses = responses.into_inner().unwrap();
    assert_eq!(responses.len(), expected_total);
    let mut per_session: HashMap<u64, usize> = HashMap::new();
    for response in &responses {
        assert!(matches!(
            response.outcome,
            BatchOutcome::Reply { endorsed: true, .. }
        ));
        *per_session.entry(response.session_id).or_default() += 1;
    }
    assert_eq!(per_session.len(), 2 * PER_TENANT);
    assert!(per_session.values().all(|n| *n == ROUNDS));
    let stats = s.gateway.stats();
    assert_eq!(stats.total_endorsed(), expected_total as u64);
    // The submit_many threads moved whole device streams per command, so
    // the command count sits well below one per request.
    assert!(stats.submit_commands < expected_total as u64);
}

#[test]
fn batched_and_per_request_admission_agree_bit_for_bit() {
    // The same deterministic workload admitted per-request and in
    // submit_batch chunks must produce identical per-session outcomes and
    // identical total enclave cycles at `shards: 1` — batching moves
    // requests in bigger groups, it never changes what is computed.
    const ROUNDS: usize = 2;
    let run = |chunk_size: Option<usize>| {
        let mut s = setup(1, 4);
        let mut devices = connect_devices(&mut s, 4, ROUNDS);
        let mut requests: Vec<(u64, Vec<u8>)> = Vec::new();
        for round in 0..ROUNDS {
            for device in &mut devices {
                let request = device.session.encrypt_request(
                    contribution(device.tenant, device.client_id, round as u64),
                    PrivateData::None,
                );
                requests.push((device.session_id, request));
            }
        }
        match chunk_size {
            None => {
                for (sid, request) in requests {
                    s.gateway.submit(sid, request).unwrap();
                }
            }
            Some(chunk_size) => {
                let mut iter = requests.into_iter().peekable();
                while iter.peek().is_some() {
                    let chunk: Vec<(u64, Vec<u8>)> = iter.by_ref().take(chunk_size).collect();
                    s.gateway.submit_batch(chunk).unwrap();
                }
            }
        }
        let mut outcomes: Vec<(u64, bool)> = s
            .gateway
            .drain_all()
            .unwrap()
            .into_iter()
            .map(|r| {
                (
                    r.session_id,
                    matches!(r.outcome, BatchOutcome::Reply { endorsed: true, .. }),
                )
            })
            .collect();
        outcomes.sort_unstable();
        let stats = s.gateway.stats();
        (outcomes, stats.total_drain_cycles(), stats.submit_commands)
    };
    let (per_request, per_request_cycles, per_request_commands) = run(None);
    let (batched, batched_cycles, batched_commands) = run(Some(4));
    assert_eq!(per_request, batched);
    assert_eq!(per_request_cycles, batched_cycles);
    assert!(per_request_cycles > 0);
    // 16 requests: 16 per-request commands vs 4 chunks (each chunk spans
    // both tenants but lands on one shard) — at least 2x fewer, the E13 bar.
    assert_eq!(per_request_commands, 16);
    assert!(batched_commands * 2 <= per_request_commands);
}

#[test]
fn one_request_is_admitted_identically_by_every_submit_verb() {
    // `submit` and `submit_many` are wrappers over `submit_batch`'s one
    // admission path, so the same request — admitted, refused by the
    // queued-request quota, refused by slot backpressure — must be
    // indistinguishable whichever verb carried it: same reply bytes, same
    // stats (one `SubmitMany` command), same typed refusal, same
    // `throttled` count, same journal entry (clock included).
    type Verb = fn(&Gateway, u64, Vec<u8>) -> Result<(), GatewayError>;
    let verbs: [Verb; 3] = [
        |gateway, sid, request| gateway.submit(sid, request),
        |gateway, sid, request| gateway.submit_many(sid, vec![request]),
        |gateway, sid, request| gateway.submit_batch(vec![(sid, request)]),
    ];
    // (tenant max_queued, slot max_queue_depth): which limit refuses the
    // second request while the first is still queued.
    for (max_queued, max_queue_depth) in [(1usize, 64usize), (64, 1)] {
        let observe = |verb: Verb| {
            let mut rng = Drbg::from_seed([83u8; 32]);
            let mut avs = AttestationService::new([84u8; 32]);
            let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
            let mut tenant = TenantConfig::new(
                IOT,
                GlimmerDescriptor::iot_default(Vec::new()),
                material.secret_bytes(),
            );
            tenant.quota.max_queued = max_queued;
            let gateway = Gateway::new(
                GatewayConfig {
                    slots_per_tenant: 1,
                    shards: 1,
                    max_queue_depth,
                    clock: Arc::new(ManualClock::new()),
                    ..GatewayConfig::default()
                },
                vec![tenant],
                &mut avs,
                &mut rng,
            )
            .unwrap();
            let approved = gateway.measurement(IOT).unwrap();
            let (sid, offer) = gateway.open_session(IOT).unwrap();
            let (accept, mut session) =
                IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
            gateway.complete_session(sid, &accept).unwrap();
            let blinding = BlindingService::new([82u8; 32]);
            let mut requests = (0..2u64).map(|round| {
                let mask = &blinding.zero_sum_masks(round, &[0], DIM)[0];
                gateway.install_mask(sid, mask).unwrap();
                session.encrypt_request(contribution(IOT, 0, round), PrivateData::None)
            });
            let (first, second) = (requests.next().unwrap(), requests.next().unwrap());

            verb(&gateway, sid, first).unwrap();
            let refusal = verb(&gateway, sid, second).unwrap_err();
            let replies: Vec<String> = gateway
                .drain_all()
                .unwrap()
                .iter()
                .map(|reply| format!("{reply:?}"))
                .collect();
            let stats = gateway.stats();
            let slots: Vec<String> = stats
                .slots
                .iter()
                .map(|row| {
                    // Wall-clock drain time is the one per-run field.
                    let mut row = row.clone();
                    row.stats.drain_nanos = 0;
                    format!("{row:?}")
                })
                .collect();
            let telemetry = gateway.telemetry();
            (
                (sid, refusal, replies),
                (stats.tenants, slots, stats.submit_commands),
                (telemetry.admission, telemetry.events),
            )
        };
        let [by_submit, by_submit_many, by_submit_batch] = verbs.map(observe);
        assert_eq!(by_submit, by_submit_many);
        assert_eq!(by_submit, by_submit_batch);

        // And the shared observation is the right one.
        let ((sid, refusal, replies), (tenants, _, submit_commands), (_, events)) = by_submit;
        match (max_queue_depth, &refusal) {
            (
                1,
                GatewayError::Backpressure {
                    slot: 0, depth: 1, ..
                },
            )
            | (64, GatewayError::QuotaExceeded { .. }) => {}
            other => panic!("wrong refusal for the limit: {other:?}"),
        }
        assert_eq!(replies.len(), 1);
        assert_eq!((tenants[0].1.submitted, tenants[0].1.throttled), (1, 1));
        assert_eq!(submit_commands, 1);
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].session_id, events[0].count), (Some(sid), 1));
    }
}

#[test]
fn placement_steers_new_sessions_away_from_deep_queues() {
    // Two slots, one shard. Old placement ordered by (sessions, depth) and
    // would pin the next session to whichever slot has fewest sessions, no
    // matter how deep its queue; the weighted score must instead send it to
    // the busier-by-sessions but idle slot.
    let mut s = setup(1, 2);
    let approved = s.gateway.measurement(IOT).unwrap();
    let (s1, _) = s.gateway.open_session(IOT).unwrap();
    let (s2, _) = s.gateway.open_session(IOT).unwrap();
    let (s3, offer) = s.gateway.open_session(IOT).unwrap();
    let slot_of = |gateway: &Gateway, sid: u64| gateway.session_slot(sid).unwrap();
    // Ties resolve by id: s1 -> slot 0, s2 -> slot 1, s3 -> slot 0.
    assert_eq!(slot_of(&s.gateway, s1), 0);
    assert_eq!(slot_of(&s.gateway, s2), 1);
    assert_eq!(slot_of(&s.gateway, s3), 0);
    // Keep only s3 on slot 0, established, with a deep queue of (garbage)
    // requests — undecryptable ciphertexts still occupy queue depth.
    let (accept, _device) =
        IotDeviceSession::connect(&offer, &s.avs, &approved, &mut s.rng).unwrap();
    s.gateway.complete_session(s3, &accept).unwrap();
    s.gateway.close_session(s1).unwrap();
    for _ in 0..12 {
        s.gateway.submit(s3, vec![0u8; 24]).unwrap();
    }

    // slot 0: 1 session + 12 queued (score 16); slot 1: 1 session, idle
    // (score 4) -> slot 1, growing it to two sessions.
    let (s5, _) = s.gateway.open_session(IOT).unwrap();
    assert_eq!(slot_of(&s.gateway, s5), 1);
    // slot 1 now has MORE sessions (2 vs 1) but scores 8 against slot 0's
    // 16: the depth-aware policy keeps steering around the hot slot where
    // the session-count policy would have flipped back to slot 0.
    let (s6, _) = s.gateway.open_session(IOT).unwrap();
    assert_eq!(slot_of(&s.gateway, s6), 1);

    // Draining the backlog rebalances: slot 0 (1 session, empty queue,
    // score 4) beats slot 1 (3 sessions, score 12) for the next open.
    let drained = s.gateway.drain_all().unwrap();
    assert_eq!(drained.len(), 12);
    assert!(drained
        .iter()
        .all(|r| matches!(r.outcome, BatchOutcome::Failed(_))));
    let (s7, _) = s.gateway.open_session(IOT).unwrap();
    assert_eq!(slot_of(&s.gateway, s7), 0);
}

#[test]
fn shutdown_drains_in_flight_work() {
    const ROUNDS: usize = 2;
    let mut s = setup(2, 2);
    let mut devices = connect_devices(&mut s, 3, ROUNDS);
    for round in 0..ROUNDS {
        for device in &mut devices {
            let request = device.session.encrypt_request(
                contribution(device.tenant, device.client_id, round as u64),
                PrivateData::None,
            );
            s.gateway.submit(device.session_id, request).unwrap();
        }
    }
    // Nothing drained yet: every request is still in-flight inside the
    // runtime when shutdown begins.
    assert_eq!(s.gateway.queued(IOT).unwrap(), 3 * ROUNDS);
    let responses = s.gateway.shutdown().unwrap();
    assert_eq!(responses.len(), devices.len() * ROUNDS);
    assert!(responses
        .iter()
        .all(|r| matches!(r.outcome, BatchOutcome::Reply { endorsed: true, .. })));
}

#[test]
fn sharding_changes_who_computes_not_what() {
    // The same deterministic workload served at 1 and 4 shards must produce
    // identical outcomes per session and identical total enclave cycles —
    // sharding only redistributes the work. (This is the property that lets
    // `shards: 1` stand in as the reproducible mode for E11.)
    const ROUNDS: usize = 2;
    let run = |shards: usize| {
        let mut s = setup(shards, 4);
        let mut devices = connect_devices(&mut s, 4, ROUNDS);
        for round in 0..ROUNDS {
            for device in &mut devices {
                let request = device.session.encrypt_request(
                    contribution(device.tenant, device.client_id, round as u64),
                    PrivateData::None,
                );
                s.gateway.submit(device.session_id, request).unwrap();
            }
        }
        let mut outcomes: Vec<(u64, String, bool)> = s
            .gateway
            .drain_all()
            .unwrap()
            .into_iter()
            .map(|r| {
                let endorsed = matches!(r.outcome, BatchOutcome::Reply { endorsed: true, .. });
                (r.session_id, r.tenant.to_string(), endorsed)
            })
            .collect();
        outcomes.sort();
        (outcomes, s.gateway.stats().total_drain_cycles())
    };
    let (serial_outcomes, serial_cycles) = run(1);
    let (sharded_outcomes, sharded_cycles) = run(4);
    assert_eq!(serial_outcomes, sharded_outcomes);
    assert_eq!(serial_cycles, sharded_cycles);
    assert!(serial_cycles > 0);
}

#[test]
fn eviction_follows_the_injected_clock() {
    let clock = Arc::new(ManualClock::new());
    let mut rng = Drbg::from_seed([83u8; 32]);
    let mut avs = AttestationService::new([84u8; 32]);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let gateway = Gateway::new(
        GatewayConfig {
            clock: clock.clone(),
            ..GatewayConfig::default()
        },
        vec![TenantConfig::new(
            IOT,
            GlimmerDescriptor::iot_default(Vec::new()),
            material.secret_bytes(),
        )],
        &mut avs,
        &mut rng,
    )
    .unwrap();

    // Two abandoned handshakes, opened thirty (manual) seconds apart.
    let (early, _) = gateway.open_session(IOT).unwrap();
    clock.advance(Duration::from_secs(30));
    let (late, _) = gateway.open_session(IOT).unwrap();
    // An established session never becomes stale, however old.
    let approved = gateway.measurement(IOT).unwrap();
    let (established, offer) = gateway.open_session(IOT).unwrap();
    let (accept, _device) = IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
    gateway.complete_session(established, &accept).unwrap();

    // Time has not advanced past the cutoff for anyone: nothing to evict.
    assert!(gateway
        .evict_stale_pending(Duration::from_secs(45))
        .is_empty());
    // Fifteen more seconds: only the early session has aged 45s.
    clock.advance(Duration::from_secs(15));
    assert_eq!(
        gateway.evict_stale_pending(Duration::from_secs(45)),
        vec![early]
    );
    // Another thirty: now the late one has aged past the cutoff too.
    clock.advance(Duration::from_secs(30));
    assert_eq!(
        gateway.evict_stale_pending(Duration::from_secs(45)),
        vec![late]
    );
    // The established session survived every sweep; the evicted ids are gone.
    assert_eq!(gateway.live_sessions(), 1);
    assert!(matches!(
        gateway.submit(early, vec![0u8; 16]),
        Err(GatewayError::UnknownSession(_))
    ));
}

/// The gateway the dirty-epoch table runs its verbs against, and what one
/// row leaves for the next: a pending handshake, an established session, a
/// tenant-channel offer.
struct Dirtying {
    s: Setup,
    pending: Option<(u64, ChannelOffer)>,
    established: Option<u64>,
    tenant_offer: Option<ChannelOffer>,
}

/// One verb, run between a base `checkpoint()` and a `checkpoint_delta`
/// against it; returns the slot it must leave dirty, if any.
type DirtyingVerb = fn(&mut Dirtying, &ChainBase) -> Option<(&'static str, usize)>;

fn slot_of(w: &Dirtying, tenant: &'static str, session_id: u64) -> Option<(&'static str, usize)> {
    Some((tenant, w.s.gateway.session_slot(session_id).unwrap()))
}

#[test]
fn every_enclave_verb_dirties_exactly_its_slot_and_no_other_verb_dirties_any() {
    let mut w = Dirtying {
        s: setup(2, 2),
        pending: None,
        established: None,
        tenant_offer: None,
    };
    let rows: [(&str, DirtyingVerb); 11] = [
        ("open_session", |w, _| {
            let (sid, offer) = w.s.gateway.open_session(IOT).unwrap();
            w.pending = Some((sid, offer));
            slot_of(w, IOT, sid)
        }),
        ("complete_session", |w, _| {
            let (sid, offer) = w.pending.take().unwrap();
            let approved = w.s.gateway.measurement(IOT).unwrap();
            let (accept, _device) =
                IotDeviceSession::connect(&offer, &w.s.avs, &approved, &mut w.s.rng).unwrap();
            let slot = slot_of(w, IOT, sid);
            w.s.gateway.complete_session(sid, &accept).unwrap();
            w.established = Some(sid);
            slot
        }),
        ("install_mask", |w, _| {
            let sid = w.established.unwrap();
            let mask = &BlindingService::new([82u8; 32]).zero_sum_masks(0, &[0], DIM)[0];
            w.s.gateway.install_mask(sid, mask).unwrap();
            slot_of(w, IOT, sid)
        }),
        ("install_mask_encrypted (refused by the enclave)", |w, _| {
            // No tenant channel reaches this slot, so the enclave cannot
            // open the delivery.
            let sid = w.established.unwrap();
            let refused =
                w.s.gateway
                    .install_mask_encrypted(sid, [7; 12], vec![0; 48]);
            assert!(refused.is_err());
            slot_of(w, IOT, sid)
        }),
        ("tenant_channel_offer", |w, _| {
            w.tenant_offer = Some(w.s.gateway.tenant_channel_offer(KEYBOARD, 1).unwrap());
            Some((KEYBOARD, 1))
        }),
        ("complete_tenant_channel", |w, _| {
            let offer = w.tenant_offer.take().unwrap();
            let measurement = w.s.gateway.measurement(KEYBOARD).unwrap();
            let tenant_key = SigningKey::generate(DhGroup::default_group(), &mut w.s.rng).unwrap();
            let (accept, _channel) =
                AttestedChannel::respond(&offer, &w.s.avs, &measurement, &tenant_key, &mut w.s.rng)
                    .unwrap();
            w.s.gateway
                .complete_tenant_channel(KEYBOARD, 1, &accept)
                .unwrap();
            Some((KEYBOARD, 1))
        }),
        ("close_session", |w, _| {
            let sid = w.established.take().unwrap();
            let slot = slot_of(w, IOT, sid);
            w.s.gateway.close_session(sid).unwrap();
            slot
        }),
        ("checkpoint", |w, _| {
            w.s.gateway.checkpoint().unwrap();
            None
        }),
        ("checkpoint_delta", |w, base| {
            w.s.gateway.checkpoint_delta(base).unwrap();
            None
        }),
        ("migrate_slot", |w, _| {
            let report = w.s.gateway.migrate_slot(IOT, 0, 1).unwrap();
            assert_eq!((report.from_shard, report.to_shard), (0, 1));
            None
        }),
        ("stats", |w, _| {
            assert_eq!(w.s.gateway.stats().slots.len(), 4);
            None
        }),
    ];

    let slots = 2 * w.s.gateway.slot_count(IOT).unwrap() as u64;
    for (verb, run) in rows {
        let base = w.s.gateway.checkpoint().unwrap();
        let expected = run(&mut w, &base.chain_base());
        let before = w.s.gateway.telemetry();
        let delta = w.s.gateway.checkpoint_delta(&base.chain_base()).unwrap();
        let after = w.s.gateway.telemetry();
        let dirtied: Vec<(String, usize)> = delta
            .tenants
            .iter()
            .zip(&base.tenants)
            .flat_map(|(dt, bt)| {
                dt.slots
                    .iter()
                    .zip(&bt.slots)
                    .filter(|(d, b)| d.dirty_epoch != b.dirty_epoch)
                    .map(|(d, _)| (dt.name.clone(), d.slot_id))
            })
            .collect();
        let expected: Vec<(String, usize)> = expected
            .into_iter()
            .map(|(tenant, slot)| (tenant.to_string(), slot))
            .collect();
        assert_eq!(dirtied, expected, "{verb}: dirtied slots");
        let exported = after.checkpoint_slots_exported - before.checkpoint_slots_exported;
        let skipped = after.checkpoint_slots_skipped - before.checkpoint_slots_skipped;
        let want = expected.len() as u64;
        assert_eq!(
            (exported, skipped),
            (want, slots - want),
            "{verb}: delta re-exports"
        );
    }
}
