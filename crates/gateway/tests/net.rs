//! Socket front-door invariants: ≥64 real loopback connections drive the
//! full device lifecycle (open → attested handshake → mask install →
//! submit → drain → close) concurrently with in-process blocking drivers
//! sharing the same pool — no reply is lost, duplicated, or routed across
//! a connection/tenant boundary — plus connection-level session ownership,
//! `ManualClock`-driven idle timeouts and stale-handshake eviction (one
//! sweep stuck behind a frozen shard included), and proptests over the
//! length-prefixed frame codec.

mod common;

use common::{shard_of, Hold};
use glimmer_core::blinding::BlindingService;
use glimmer_core::host::GlimmerDescriptor;
use glimmer_core::protocol::{
    BatchOutcome, Contribution, ContributionPayload, PrivateData, ProcessResponse,
};
use glimmer_core::remote::IotDeviceSession;
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_crypto::drbg::Drbg;
use glimmer_gateway::frontend::{AsyncGateway, SessionExecutor};
use glimmer_gateway::net::proto::{CODE_GATEWAY, CODE_NOT_OWNER};
use glimmer_gateway::net::{self, ClientError, GatewayClient};
use glimmer_gateway::{CrashPoint, Gateway, GatewayConfig, ManualClock, NetConfig, TenantConfig};
use sgx_sim::AttestationService;
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const IOT: &str = "iot-telemetry.example";
const KEYBOARD: &str = "nextwordpredictive.com";
const IOT_DIM: usize = 4;
const KB_DIM: usize = 8;

fn build_gateway(config: GatewayConfig, avs: &mut AttestationService, rng: &mut Drbg) -> Gateway {
    let iot_material = ServiceKeyMaterial::generate(rng).unwrap();
    let kb_material = ServiceKeyMaterial::generate(rng).unwrap();
    let tenants = vec![
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
    ];
    Gateway::new(config, tenants, avs, rng).unwrap()
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

fn seed(tag: u8, index: usize) -> [u8; 32] {
    let mut bytes = [0u8; 32];
    bytes[0] = tag;
    bytes[1] = index as u8;
    bytes[2] = (index >> 8) as u8;
    bytes
}

/// The headline socket test: `SOCKET_CONNS` real loopback TCP connections
/// (half per tenant, one OS client thread each) run the whole device
/// lifecycle against ONE front-door thread, while blocking in-process
/// driver threads push keyboard traffic through the same gateway, their
/// replies surfacing on the `unrouted` sink.
///
/// Invariants: every socket client gets exactly one reply per submitted
/// request, each reply names the client's own session and decrypts under
/// that session's channel key (routing across connections or tenants would
/// fail both checks), and the blocking drivers lose nothing to the socket
/// path.
#[test]
fn sixty_four_socket_connections_mixed_with_blocking_drivers() {
    if !net::supported() {
        return;
    }
    const SOCKET_CONNS: usize = 64;
    const ROUNDS: usize = 2;
    const BLOCKING_SESSIONS: usize = 4;
    const BLOCKING_ROUNDS: usize = 3;

    let mut rng = Drbg::from_seed([61u8; 32]);
    let mut avs = AttestationService::new([62u8; 32]);
    let gateway = Arc::new(build_gateway(
        GatewayConfig {
            slots_per_tenant: 4,
            shards: 2,
            ..GatewayConfig::default()
        },
        &mut avs,
        &mut rng,
    ));
    let avs = Arc::new(avs);
    let approved_iot = Arc::new(gateway.measurement(IOT).unwrap());
    let approved_kb = Arc::new(gateway.measurement(KEYBOARD).unwrap());

    // Per-tenant zero-sum mask groups: socket clients 0..N/2 per tenant,
    // blocking drivers use their own keyboard group with distinct ids.
    let iot_clients: Vec<u64> = (0..(SOCKET_CONNS / 2) as u64).collect();
    let kb_clients: Vec<u64> = (0..(SOCKET_CONNS / 2) as u64).collect();
    let blocking_clients: Vec<u64> = (1000..1000 + BLOCKING_SESSIONS as u64).collect();
    let iot_masks: Arc<Vec<Vec<_>>> = Arc::new(
        (0..ROUNDS as u64)
            .map(|round| {
                BlindingService::new([63u8; 32]).zero_sum_masks(round, &iot_clients, IOT_DIM)
            })
            .collect(),
    );
    let kb_masks: Arc<Vec<Vec<_>>> = Arc::new(
        (0..ROUNDS as u64)
            .map(|round| {
                BlindingService::new([64u8; 32]).zero_sum_masks(round, &kb_clients, KB_DIM)
            })
            .collect(),
    );
    let blocking_masks: Vec<Vec<_>> = (0..BLOCKING_ROUNDS as u64)
        .map(|round| {
            BlindingService::new([65u8; 32]).zero_sum_masks(round, &blocking_clients, KB_DIM)
        })
        .collect();

    let (unrouted_tx, unrouted_rx) = mpsc::channel();
    let server = net::serve(
        AsyncGateway::from_arc(Arc::clone(&gateway)),
        Some(unrouted_tx),
    )
    .expect("front door must come up");
    let addr = server.addr();

    let mut socket_session_ids = Vec::new();
    let mut blocking_session_ids = Vec::new();
    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for conn in 0..SOCKET_CONNS {
            let (tenant, approved, masks, idx) = if conn % 2 == 0 {
                (
                    IOT,
                    Arc::clone(&approved_iot),
                    Arc::clone(&iot_masks),
                    conn / 2,
                )
            } else {
                (
                    KEYBOARD,
                    Arc::clone(&approved_kb),
                    Arc::clone(&kb_masks),
                    conn / 2,
                )
            };
            let avs = Arc::clone(&avs);
            clients.push(scope.spawn(move || -> Result<u64, ClientError> {
                let mut rng = Drbg::from_seed(seed(1, conn));
                let mut client = GatewayClient::connect(addr)?;
                client.set_read_timeout(Some(Duration::from_secs(60)))?;
                let (session_id, offer) = client.open_session(tenant)?;
                let (accept, mut session) =
                    IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
                client.complete_session(session_id, &accept)?;
                for round in masks.iter() {
                    client.install_mask(session_id, &round[idx])?;
                }
                let stream: Vec<Vec<u8>> = (0..ROUNDS as u64)
                    .map(|round| {
                        session.encrypt_request(
                            contribution(tenant, idx as u64, round),
                            PrivateData::None,
                        )
                    })
                    .collect();
                client.submit_many(session_id, stream)?;
                // The server's periodic drainer pushes replies; collect ours.
                for _ in 0..ROUNDS {
                    let envelope = client.next_reply()?;
                    // No cross-connection leak: only this session's replies
                    // may arrive here...
                    assert_eq!(envelope.session_id, session_id);
                    let BatchOutcome::Reply {
                        ciphertext,
                        endorsed,
                    } = envelope.outcome
                    else {
                        panic!("honest request failed: {:?}", envelope.outcome);
                    };
                    assert!(endorsed, "honest request rejected");
                    // ...and no cross-tenant/session substitution: the reply
                    // must decrypt under THIS session's channel key.
                    let response = session.decrypt_response(&ciphertext).unwrap();
                    assert!(
                        matches!(response, ProcessResponse::Endorsed(_)),
                        "reply body must be an endorsement"
                    );
                }
                client.close_session(session_id)?;
                Ok(session_id)
            }));
        }

        // Blocking in-process drivers on the same pool, same tenant space.
        let blocking = {
            let gateway = Arc::clone(&gateway);
            let avs = Arc::clone(&avs);
            let approved = Arc::clone(&approved_kb);
            let blocking_clients = blocking_clients.clone();
            let blocking_masks = blocking_masks.clone();
            scope.spawn(move || -> Vec<u64> {
                let mut rng = Drbg::from_seed(seed(2, 0));
                let mut session_ids = Vec::new();
                for (i, client_id) in blocking_clients.iter().enumerate() {
                    let (session_id, offer) = gateway.open_session(KEYBOARD).unwrap();
                    let (accept, mut session) =
                        IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
                    gateway.complete_session(session_id, &accept).unwrap();
                    for round in &blocking_masks {
                        gateway.install_mask(session_id, &round[i]).unwrap();
                    }
                    for round in 0..BLOCKING_ROUNDS as u64 {
                        let request = session.encrypt_request(
                            contribution(KEYBOARD, *client_id, round),
                            PrivateData::None,
                        );
                        gateway.submit(session_id, request).unwrap();
                    }
                    session_ids.push(session_id);
                }
                session_ids
            })
        };

        for client in clients {
            socket_session_ids.push(client.join().unwrap().expect("socket client lifecycle"));
        }
        blocking_session_ids = blocking.join().unwrap();
    });

    // Every socket connection got its own session — no id was shared.
    let mut unique = socket_session_ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), SOCKET_CONNS);

    // The blocking drivers' replies all surface on the unrouted sink (their
    // sessions were never socket-owned), exactly once each, on the right
    // tenant.
    let mut per_session: HashMap<u64, usize> = HashMap::new();
    for _ in 0..BLOCKING_SESSIONS * BLOCKING_ROUNDS {
        let response = unrouted_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("blocking drivers' replies must reach the unrouted sink");
        assert_eq!(&*response.tenant, KEYBOARD);
        assert!(blocking_session_ids.contains(&response.session_id));
        let BatchOutcome::Reply { endorsed, .. } = &response.outcome else {
            panic!("honest blocking request failed: {:?}", response.outcome);
        };
        assert!(endorsed);
        *per_session.entry(response.session_id).or_default() += 1;
    }
    for session_id in &blocking_session_ids {
        assert_eq!(
            per_session[session_id], BLOCKING_ROUNDS,
            "loss or duplication"
        );
    }

    server.stop();
    // No socket reply leaked into the unrouted sink.
    assert!(unrouted_rx.try_recv().is_err());
    Arc::try_unwrap(gateway)
        .unwrap_or_else(|_| panic!("server released its gateway handle"))
        .shutdown()
        .unwrap();
}

/// A session id is bound to the connection that opened it: another
/// connection naming it gets [`CODE_NOT_OWNER`] — whatever the tenant —
/// and the rejected connection itself stays healthy.
#[test]
fn sessions_are_invisible_to_other_connections() {
    if !net::supported() {
        return;
    }
    let mut rng = Drbg::from_seed([66u8; 32]);
    let mut avs = AttestationService::new([67u8; 32]);
    let gateway = build_gateway(GatewayConfig::default(), &mut avs, &mut rng);
    let server = net::serve(AsyncGateway::new(gateway), None).unwrap();

    let mut owner = GatewayClient::connect(server.addr()).unwrap();
    owner
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (session_id, _offer) = owner.open_session(IOT).unwrap();

    let mut intruder = GatewayClient::connect(server.addr()).unwrap();
    intruder
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let rejection = intruder
        .submit(session_id, vec![0u8; 64])
        .expect_err("foreign session must be invisible");
    let ClientError::Server { code, .. } = rejection else {
        panic!("expected a typed server rejection, got {rejection}");
    };
    assert_eq!(code, CODE_NOT_OWNER);
    // Same for a close attempt — and the probe connection is still served.
    let rejection = intruder
        .close_session(session_id)
        .expect_err("foreign close must be refused");
    assert!(matches!(
        rejection,
        ClientError::Server {
            code: CODE_NOT_OWNER,
            ..
        }
    ));
    let (own_session, _offer) = intruder.open_session(KEYBOARD).unwrap();
    assert_ne!(own_session, session_id);
    server.stop();
}

/// Spawns a front door on its own thread over `serve_on`, with the executor
/// and gateway sharing one [`ManualClock`] — the deterministic-time shape
/// the timer-wheel tests need. Returns `(addr, stop-closure)`.
fn manual_clock_server(
    config: GatewayConfig,
    clock: Arc<ManualClock>,
) -> (
    Arc<Gateway>,
    AttestationService,
    std::net::SocketAddr,
    impl FnOnce(),
) {
    let mut rng = Drbg::from_seed([68u8; 32]);
    let mut avs = AttestationService::new([69u8; 32]);
    let config = GatewayConfig {
        clock: clock.clone(),
        ..config
    };
    let gateway = Arc::new(build_gateway(config, &mut avs, &mut rng));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let frontend = AsyncGateway::from_arc(Arc::clone(&gateway));
    let (startup_tx, startup_rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        let mut executor = SessionExecutor::with_clock(clock);
        executor.attach_telemetry(frontend.gateway().telemetry_handle());
        let shutdown = net::serve_on(&mut executor, frontend, listener, None).unwrap();
        startup_tx.send(shutdown).unwrap();
        executor.run();
    });
    let shutdown = startup_rx.recv().unwrap();
    let stop = move || {
        shutdown.stop();
        thread.join().unwrap();
    };
    (gateway, avs, addr, stop)
}

/// An idle connection is closed when the *executor clock* passes its idle
/// deadline — advancing a [`ManualClock`] is enough; no wall time needs to
/// elapse beyond the executor's bounded park.
#[test]
fn idle_connections_are_closed_on_the_manual_clock() {
    if !net::supported() {
        return;
    }
    let clock = Arc::new(ManualClock::new());
    let (gateway, _avs, addr, stop) = manual_clock_server(
        GatewayConfig {
            evict_stale_period: None,
            net: NetConfig {
                idle_timeout: Some(Duration::from_secs(5)),
                drain_interval: None,
                ..NetConfig::default()
            },
            ..GatewayConfig::default()
        },
        Arc::clone(&clock),
    );

    let mut client = GatewayClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (_session_id, _offer) = client.open_session(IOT).unwrap();

    // Nothing moves while the clock stands still; one advance past the
    // deadline and the server hangs up on us.
    clock.advance(Duration::from_secs(6));
    let outcome = client.next_reply();
    assert!(
        matches!(outcome, Err(ClientError::Disconnected)),
        "expected the idle server to hang up, got {outcome:?}"
    );
    // The close is attributed to the idle policy, and the orphaned session
    // was reclaimed behind the connection (its quota slot freed).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = gateway.telemetry_handle().snapshot();
        if snapshot.net_idle_timeouts >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle timeout never recorded"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    stop();
}

/// The bug this PR fixes: `evict_stale_pending` existed but nothing in
/// production ever called it. With the front door up, the timer-wheel
/// sweeper reclaims an abandoned half-open handshake without any operator
/// polling — shown end-to-end on a [`ManualClock`].
#[test]
fn abandoned_handshakes_are_reclaimed_without_operator_polling() {
    if !net::supported() {
        return;
    }
    let clock = Arc::new(ManualClock::new());
    let (gateway, avs, addr, stop) = manual_clock_server(
        GatewayConfig {
            stale_pending_after: Duration::from_secs(30),
            evict_stale_period: Some(Duration::from_secs(1)),
            net: NetConfig {
                idle_timeout: None,
                drain_interval: None,
                ..NetConfig::default()
            },
            ..GatewayConfig::default()
        },
        Arc::clone(&clock),
    );

    let mut client = GatewayClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Open, then abandon: never complete the handshake.
    let (session_id, offer) = client.open_session(IOT).unwrap();

    clock.advance(Duration::from_secs(31));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if gateway.telemetry_handle().snapshot().sessions_evicted >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stale-handshake sweep never fired"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The evicted session is truly gone: completing the abandoned
    // handshake now fails with a typed gateway error, not a hang.
    let mut rng = Drbg::from_seed([70u8; 32]);
    let approved = gateway.measurement(IOT).unwrap();
    let (accept, _session) = IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
    let outcome = client
        .complete_session(session_id, &accept)
        .expect_err("evicted session must reject completion");
    assert!(matches!(
        outcome,
        ClientError::Server {
            code: CODE_GATEWAY,
            ..
        }
    ));
    stop();
}

/// A stale-handshake sweep whose enclave close is queued behind a frozen
/// shard parks the sweeper task, not the front door: a request that needs
/// only the other shard still gets its reply over the socket. The freeze
/// is a slot migration held at [`CrashPoint::MidMigrationExport`], whose
/// source worker waits at the handoff barrier until the hold lets go.
#[test]
fn a_sweep_stuck_behind_a_frozen_shard_leaves_the_front_door_serving() {
    if !net::supported() {
        return;
    }
    let clock = Arc::new(ManualClock::new());
    let hold = Hold::at(CrashPoint::MidMigrationExport);
    let (gateway, _avs, addr, stop) = manual_clock_server(
        GatewayConfig {
            shards: 2,
            slots_per_tenant: 1,
            stale_pending_after: Duration::from_secs(30),
            evict_stale_period: Some(Duration::from_secs(1)),
            crash_hooks: Arc::clone(&hold) as _,
            net: NetConfig {
                idle_timeout: None,
                drain_interval: None,
                ..NetConfig::default()
            },
            ..GatewayConfig::default()
        },
        Arc::clone(&clock),
    );
    let frozen = shard_of(&gateway, IOT, 0);
    assert_ne!(frozen, shard_of(&gateway, KEYBOARD, 0));

    let mut client = GatewayClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A handshake left pending on the slot whose shard is about to freeze.
    let (_abandoned, _offer) = client.open_session(IOT).unwrap();
    let migration = std::thread::spawn({
        let gateway = Arc::clone(&gateway);
        move || gateway.migrate_slot(IOT, 0, 1 - frozen)
    });
    hold.wait_parked();

    // The sweep removes the pending row, then queues its enclave close
    // behind the paused source worker.
    clock.advance(Duration::from_secs(31));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while gateway.live_sessions() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "stale-handshake sweep never fired"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Bounded, so a front door parked behind the frozen shard fails the
    // test rather than hanging it: the hold is released either way.
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let served = client.open_session(KEYBOARD);
    hold.release();
    migration.join().unwrap().unwrap();
    assert!(
        served.is_ok(),
        "no reply while the sweep waited on a frozen shard: {served:?}"
    );
    stop();
}

mod frame_codec {
    use glimmer_gateway::net::frame::{encode_frame, LENGTH_PREFIX};
    use glimmer_gateway::net::{FrameDecoder, FrameError};
    use glimmer_wire::Frame;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the socket's read sizes, a frame sequence decodes to
        /// exactly the frames that were encoded, once each, in order.
        #[test]
        fn round_trip_survives_arbitrary_chunking(
            frames in proptest::collection::vec(
                (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..512)),
                1..8,
            ),
            chunk in 1usize..64,
        ) {
            let originals: Vec<Frame> = frames
                .iter()
                .map(|(msg_type, payload)| Frame::new(*msg_type, payload.clone()))
                .collect();
            let mut bytes = Vec::new();
            for frame in &originals {
                encode_frame(frame, &mut bytes);
            }
            let mut decoder = FrameDecoder::new(1 << 20);
            let mut out = Vec::new();
            for piece in bytes.chunks(chunk) {
                decoder.feed(piece, &mut out).unwrap();
            }
            prop_assert_eq!(out.len(), originals.len());
            for (got, want) in out.iter().zip(&originals) {
                prop_assert_eq!(got.msg_type, want.msg_type);
                prop_assert_eq!(&got.payload, &want.payload);
            }
            prop_assert_eq!(decoder.buffered(), 0);
        }

        /// A truncated stream produces no frame and no error — the decoder
        /// just waits for the rest.
        #[test]
        fn truncation_yields_no_frame_and_no_panic(
            msg_type in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            keep_permille in 0usize..1000,
        ) {
            let mut bytes = Vec::new();
            encode_frame(&Frame::new(msg_type, payload), &mut bytes);
            let keep = (bytes.len() * keep_permille / 1000).min(bytes.len() - 1);
            let mut decoder = FrameDecoder::new(1 << 20);
            let mut out = Vec::new();
            decoder.feed(&bytes[..keep], &mut out).unwrap();
            prop_assert!(out.is_empty());
            prop_assert_eq!(decoder.buffered(), keep);
        }

        /// Any single bit flip yields either a clean decode or a typed
        /// error — never a panic. (A flip inside the payload bytes is
        /// legitimately invisible to framing.)
        #[test]
        fn bit_flips_never_panic(
            msg_type in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            flip_byte in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            let mut bytes = Vec::new();
            encode_frame(&Frame::new(msg_type, payload), &mut bytes);
            let index = flip_byte % bytes.len();
            bytes[index] ^= 1 << flip_bit;
            let mut decoder = FrameDecoder::new(1 << 20);
            let mut out = Vec::new();
            let _ = decoder.feed(&bytes, &mut out);
        }

        /// A hostile length announcement is refused from the prefix alone,
        /// before any body byte arrives or any buffer grows to match.
        #[test]
        fn oversize_length_is_rejected_before_allocation(
            announced in 65u32..,
        ) {
            const MAX: usize = 64;
            let mut decoder = FrameDecoder::new(MAX);
            let mut out = Vec::new();
            let outcome = decoder.feed(&announced.to_be_bytes(), &mut out);
            prop_assert_eq!(
                outcome,
                Err(FrameError::Oversize { announced: announced as usize, max: MAX })
            );
            prop_assert!(out.is_empty());
        }
    }

    /// The length prefix is exactly four big-endian bytes — a wire-format
    /// constant clients in other languages depend on.
    #[test]
    fn wire_format_is_four_byte_be_length_plus_body() {
        let frame = Frame::new(0x0102, vec![0xAA; 5]);
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);
        let body = frame.to_bytes();
        assert_eq!(LENGTH_PREFIX, 4);
        assert_eq!(&bytes[..4], &(body.len() as u32).to_be_bytes());
        assert_eq!(&bytes[4..], &body[..]);
    }
}
