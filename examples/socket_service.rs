//! The real front door: the multi-tenant gateway served over loopback TCP,
//! with devices running the full attested lifecycle as network clients.
//!
//! `gateway_service` drives the pool in-process; this example puts the
//! socket layer in between. `net::serve` binds a listener and runs the
//! whole edge — epoll reactor, frame codec, timers — on ONE
//! front-door thread, while each device talks framed `glimmer_wire`
//! messages over its own `TcpStream` via `GatewayClient`. The trust
//! boundary is unchanged: the front door relays sealed bytes it cannot
//! open, and a connection may only operate on sessions it opened itself.
//!
//! Run with `cargo run --example socket_service`.

use glimmers::core::blinding::BlindingService;
use glimmers::core::host::GlimmerDescriptor;
use glimmers::core::protocol::{
    BatchOutcome, Contribution, ContributionPayload, PrivateData, ProcessResponse,
};
use glimmers::core::remote::IotDeviceSession;
use glimmers::core::signing::ServiceKeyMaterial;
use glimmers::crypto::drbg::Drbg;
use glimmers::gateway::frontend::AsyncGateway;
use glimmers::gateway::net::{self, GatewayClient};
use glimmers::gateway::{Gateway, GatewayConfig, TenantConfig};
use glimmers::sgx_sim::AttestationService;
use std::sync::Arc;
use std::time::Duration;

const APP: &str = "iot-telemetry.example";
const DIM: usize = 8;
const DEVICES: usize = 4;
const ROUNDS: u64 = 2;

fn main() {
    if !net::supported() {
        println!("socket front door unsupported on this target; nothing to demo");
        return;
    }

    let mut rng = Drbg::from_seed([71u8; 32]);
    let mut avs = AttestationService::new([72u8; 32]);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();

    // Operator side: provision the pool, then hand the gateway to the
    // front door. `serve` binds the configured address (port 0 → ephemeral)
    // and spawns the single serving thread.
    let gateway = Arc::new(
        Gateway::new(
            GatewayConfig {
                slots_per_tenant: 2,
                max_batch: 32,
                ..GatewayConfig::default()
            },
            vec![TenantConfig::new(
                APP,
                GlimmerDescriptor::iot_default(Vec::new()),
                material.secret_bytes(),
            )],
            &mut avs,
            &mut rng,
        )
        .expect("gateway start-up"),
    );
    let approved = gateway.measurement(APP).unwrap();
    let server = net::serve(AsyncGateway::from_arc(Arc::clone(&gateway)), None)
        .expect("front door start-up");
    println!("front door listening on {}", server.addr());

    // Device side: every device is a real TCP client. The attestation
    // handshake rides the socket — the offer and accept are opaque to the
    // front door, which never sees a channel key.
    let device_ids: Vec<u64> = (0..DEVICES as u64).map(|d| 100 + d).collect();
    let blinding = BlindingService::new([73u8; 32]);
    let mut devices: Vec<(GatewayClient, u64, IotDeviceSession)> = Vec::new();
    for i in 0..DEVICES {
        let mut client = GatewayClient::connect(server.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let (sid, offer) = client.open_session(APP).unwrap();
        let (accept, session) = IotDeviceSession::connect(&offer, &avs, &approved, &mut rng)
            .expect("attested handshake over the socket");
        client.complete_session(sid, &accept).unwrap();
        for round in 0..ROUNDS {
            let masks = blinding.zero_sum_masks(round, &device_ids, DIM);
            client.install_mask(sid, &masks[i]).unwrap();
        }
        devices.push((client, sid, session));
    }
    println!(
        "{} devices connected, {} sessions live behind one front-door thread",
        DEVICES,
        gateway.live_sessions()
    );

    // Contributions: each device seals its readings to its own session key
    // and submits both rounds over its connection in one framed batch.
    for (i, (client, sid, session)) in devices.iter_mut().enumerate() {
        let requests: Vec<Vec<u8>> = (0..ROUNDS)
            .map(|round| {
                let contribution = Contribution {
                    app_id: APP.to_string(),
                    client_id: device_ids[i],
                    round,
                    payload: ContributionPayload::IotReadings {
                        samples: vec![0.1 + 0.2 * i as f64; DIM],
                    },
                };
                session.encrypt_request(contribution, PrivateData::None)
            })
            .collect();
        client.submit_many(*sid, requests).unwrap();
    }

    // One drain call batches every pending request into the enclaves and
    // pushes each reply back down the connection that owns its session.
    let routed = devices[0].0.drain().unwrap();
    println!("drain routed {routed} replies to their connections");

    // Each device reads its replies off its own socket and decrypts them
    // with its session key — proof the reply crossed no session boundary.
    let mut endorsed = 0usize;
    for (client, sid, session) in &mut devices {
        for _ in 0..ROUNDS {
            let envelope = client.next_reply().unwrap();
            assert_eq!(envelope.session_id, *sid);
            let BatchOutcome::Reply { ciphertext, .. } = &envelope.outcome else {
                panic!("expected a sealed reply");
            };
            match session.decrypt_response(ciphertext).unwrap() {
                ProcessResponse::Endorsed(e) => {
                    endorsed += 1;
                    println!(
                        "device {} round {}: endorsed (drain_seq {})",
                        e.client_id, e.round, envelope.drain_seq
                    );
                }
                ProcessResponse::Rejected { reason } => {
                    println!("device reply rejected: {reason}");
                }
            }
        }
    }
    println!("{endorsed} endorsements delivered over TCP");

    // Orderly teardown: close the device sessions, stop the front door
    // (the reactor thread parks in epoll until the doorbell rings), then
    // shut the pool down.
    for (client, sid, _) in &mut devices {
        client.close_session(*sid).unwrap();
    }
    drop(devices);
    server.stop();
    Arc::try_unwrap(gateway)
        .expect("front door released its handle")
        .shutdown()
        .expect("orderly pool shutdown");
    println!("front door stopped, pool shut down");
}
