//! E19: the socket front door vs the in-process blocking driver.

use super::os_threads;
use crate::rig::{self, Rig};
use glimmer_core::remote::IotDeviceSession;
use glimmer_crypto::drbg::Drbg;
use std::time::Instant;

/// One row of the E19 socket front-door experiment.
#[derive(Debug, Clone)]
pub struct E19Row {
    /// Concurrent device sessions, each on its own real TCP connection.
    pub sessions: usize,
    /// Requests each session submits.
    pub requests_per_session: usize,
    /// Pool slots (one tenant, `shards: 1` for determinism).
    pub slots: usize,
    /// Requests that produced endorsements (identical on both paths).
    pub endorsed: usize,
    /// Requests rejected by validation (identical on both paths).
    pub rejected: usize,
    /// Wall-clock ms for the in-process blocking driver.
    pub blocking_ms: f64,
    /// Wall-clock ms for the socket path: the same traffic over real
    /// loopback TCP, every connection served by ONE front-door thread.
    pub socket_ms: f64,
    /// OS threads serving the sockets added beyond the in-process baseline
    /// (shard workers included in the baseline) — measured from
    /// `/proc/self/status` mid-serving where available, `None` elsewhere.
    /// The front door spawns exactly one thread (executor + epoll reactor),
    /// so this must be `Some(1)` on Linux.
    pub extra_frontend_threads: Option<usize>,
    /// Sessions simultaneously live once every handshake completed (the
    /// concurrency actually achieved over real sockets).
    pub peak_live_sessions: usize,
    /// Client-issued `Drain` requests needed to collect every reply (the
    /// periodic drainer is off, so the drain order is client-controlled).
    pub drain_calls: u64,
    /// Whether the socket path's drain-sequence-ordered replies
    /// `(session_id, outcome)` were bit-identical — ciphertext bytes
    /// included — to the in-process blocking driver's drain order.
    pub identical_outputs: bool,
}

/// Runs E19: the real socket front door versus the in-process blocking
/// driver, same traffic, same seeds. Phase A is E15's blocking lifecycle
/// (open all → handshake all in device order → masks round-major → each
/// session's stream via `submit_many` → drain-to-empty). Phase B serves an
/// identically-seeded gateway behind [`glimmer_gateway::net::serve`] and
/// drives one `GatewayClient` per session over loopback TCP in lockstep —
/// at most one request outstanding globally, in the exact order Phase A
/// issued its calls — with the server's periodic drainer disabled so reply
/// draining happens only on explicit client `Drain` requests. At
/// `shards: 1` both paths then present each enclave the same sequence of
/// randomness-consuming operations, so sorting the socket replies by the
/// server's global drain sequence must reproduce Phase A's reply stream
/// byte-for-byte.
///
/// One extra connection opens and then goes silent for the whole run: a
/// hung client must cost the front door nothing but its fd.
///
/// # Panics
///
/// Panics if the front door cannot come up (unsupported target) or any
/// lifecycle step fails — E19 is only meaningful on Linux.
#[must_use]
pub fn e19_socket_frontdoor(
    sessions: usize,
    requests_per_session: usize,
    slots: usize,
    seed: [u8; 32],
) -> E19Row {
    use glimmer_core::protocol::BatchOutcome;
    use glimmer_gateway::frontend::AsyncGateway;
    use glimmer_gateway::net::{GatewayClient, ReplyEnvelope};
    use glimmer_gateway::Gateway;
    use std::net::TcpStream;

    let rig = Rig::generate(
        sessions,
        requests_per_session,
        8,
        0.2,
        seed,
        [31u8; 32],
        &mut Drbg::from_seed(seed),
    );
    let config = || {
        // Deterministic single-shard mode, like E15: the bit-identical
        // claim needs one FIFO command stream per enclave.
        let mut config = rig.config(slots, 1);
        // Timer policies off for the comparison run: an idle timeout or a
        // stale sweep firing mid-experiment on a slow host would perturb
        // the op order whose determinism is under test (both have their
        // own ManualClock-driven tests).
        config.evict_stale_period = None;
        config.net.idle_timeout = None;
        config.net.drain_interval = None;
        config
    };
    let tenants = || rig.tenants(rig.all_live_quota());
    let machine_seed = [101u8; 32];
    let device_seed = [102u8; 32];
    let expected_replies = rig.workload.total_requests();
    let streams = rig.workload.session_streams();

    // --- Phase A: the in-process blocking driver (E15's phase structure,
    // bit-for-bit). ---
    let mut avs = rig::attestation([17u8; 32]);
    let gateway = Gateway::new(
        config(),
        tenants(),
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
    )
    .unwrap();
    let blocking_start = Instant::now();
    let mut device_sessions = rig.connect_phased(&gateway, &avs, &mut Drbg::from_seed(device_seed));
    rig.submit_streams(&gateway, &mut device_sessions, &streams);
    let blocking_responses = gateway.drain_all().unwrap();
    let blocking_ms = blocking_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(blocking_responses.len(), expected_replies);
    drop(gateway);

    // --- Phase B: the same traffic over real loopback TCP. ---
    let mut avs = rig::attestation([17u8; 32]);
    let gateway = Gateway::new(
        config(),
        tenants(),
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
    )
    .unwrap();
    let approved = gateway.measurement(rig::APP).unwrap();
    // Baseline AFTER the shard workers exist: growth from here on is what
    // serving sockets costs in threads (exactly the front-door thread).
    let baseline_threads = os_threads();
    let gateway = std::sync::Arc::new(gateway);
    let server = glimmer_gateway::net::serve(
        AsyncGateway::from_arc(std::sync::Arc::clone(&gateway)),
        None,
    )
    .expect("E19 needs the socket front door (Linux)");
    let addr = server.addr();

    let socket_start = Instant::now();
    // A hung connection: accepted, registered, then silent forever. The
    // reactor must carry it for free while 1000 live neighbours are served.
    let hung = TcpStream::connect(addr).unwrap();

    let mut clients: Vec<GatewayClient> = (0..sessions)
        .map(|_| {
            let mut client = GatewayClient::connect(addr).unwrap();
            client
                .set_read_timeout(Some(std::time::Duration::from_secs(120)))
                .unwrap();
            client
        })
        .collect();
    // Lockstep lifecycle in device order — each call is one round trip, so
    // the server observes exactly the op order Phase A issued.
    let mut opened = Vec::with_capacity(sessions);
    for client in &mut clients {
        opened.push(client.open_session(rig::APP).unwrap());
    }
    let mut device_rng = Drbg::from_seed(device_seed);
    let mut socket_sessions = Vec::with_capacity(sessions);
    for (client, (sid, offer)) in clients.iter_mut().zip(&opened) {
        let (accept, session) =
            IotDeviceSession::connect(offer, &avs, &approved, &mut device_rng).unwrap();
        client.complete_session(*sid, &accept).unwrap();
        socket_sessions.push((*sid, session));
    }
    let threads_mid_serving = os_threads();
    // Every session's handshake completed and nothing has drained: this is
    // the moment all N TCP-backed sessions are provably live at once.
    let peak_live_sessions = gateway.live_sessions();
    for round in &rig.masks {
        for (i, client) in clients.iter_mut().enumerate() {
            client
                .install_mask(socket_sessions[i].0, &round[i])
                .unwrap();
        }
    }
    for stream in &streams {
        let (sid, session) = &mut socket_sessions[stream.device];
        let requests: Vec<Vec<u8>> = stream
            .requests
            .iter()
            .map(|&round| rig.request(session, stream.device, round))
            .collect();
        clients[stream.device].submit_many(*sid, requests).unwrap();
    }
    // Client-controlled draining: ask until every reply has been routed.
    let mut drain_calls = 0u64;
    let mut routed_total = 0u64;
    while routed_total < expected_replies as u64 {
        routed_total += clients[0].drain().unwrap();
        drain_calls += 1;
        if routed_total < expected_replies as u64 {
            // The shard worker is still processing; yield rather than spin.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    // Collect each connection's pushed replies and reassemble the global
    // drain order from the server-stamped sequence numbers.
    let mut envelopes: Vec<ReplyEnvelope> = Vec::with_capacity(expected_replies);
    for (i, client) in clients.iter_mut().enumerate() {
        let expected = streams
            .iter()
            .filter(|s| s.device == i)
            .map(|s| s.requests.len())
            .sum::<usize>();
        for _ in 0..expected {
            let envelope = client.next_reply().unwrap();
            assert_eq!(
                envelope.session_id, socket_sessions[i].0,
                "reply routed to the wrong connection"
            );
            envelopes.push(envelope);
        }
    }
    let socket_ms = socket_start.elapsed().as_secs_f64() * 1e3;
    envelopes.sort_by_key(|e| e.drain_seq);
    assert_eq!(envelopes.len(), expected_replies);
    // Every sequence number is accounted for: nothing was dropped or
    // double-routed on the way to the sockets.
    assert!(envelopes
        .iter()
        .enumerate()
        .all(|(i, e)| e.drain_seq == i as u64));

    let identical_outputs = blocking_responses.len() == envelopes.len()
        && blocking_responses
            .iter()
            .zip(envelopes.iter())
            .all(|(b, s)| b.session_id == s.session_id && b.outcome == s.outcome);
    let endorsed = envelopes
        .iter()
        .filter(|e| matches!(e.outcome, BatchOutcome::Reply { endorsed: true, .. }))
        .count();
    let rejected = expected_replies - endorsed;
    let extra_frontend_threads = match (baseline_threads, threads_mid_serving) {
        (Some(before), Some(during)) => Some(during.saturating_sub(before)),
        _ => None,
    };

    drop(hung);
    drop(clients);
    server.stop();

    E19Row {
        sessions,
        requests_per_session,
        slots,
        endorsed,
        rejected,
        blocking_ms,
        socket_ms,
        extra_frontend_threads,
        peak_live_sessions,
        drain_calls,
        identical_outputs,
    }
}
