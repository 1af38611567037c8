//! E15: the async session front-end vs the blocking driver.

use super::os_threads;
use crate::rig::{self, Rig};
use glimmer_core::remote::IotDeviceSession;
use glimmer_crypto::drbg::Drbg;
use std::time::Instant;

/// One row of the E15 async-front-end experiment.
#[derive(Debug, Clone)]
pub struct E15Row {
    /// Concurrent device sessions multiplexed on one front-end thread.
    pub sessions: usize,
    /// Requests each session submits.
    pub requests_per_session: usize,
    /// Pool slots (one tenant, `shards: 1` for determinism).
    pub slots: usize,
    /// Requests that produced endorsements (identical on both paths).
    pub endorsed: usize,
    /// Requests rejected by validation (identical on both paths).
    pub rejected: usize,
    /// Wall-clock ms for the blocking driver (same phase structure).
    pub blocking_ms: f64,
    /// Wall-clock ms for the async driver: every session task plus the
    /// submitter/drainer runs on ONE executor thread.
    pub async_ms: f64,
    /// OS threads the async front-end added beyond the baseline process
    /// (gateway shard workers included in the baseline) — measured from
    /// `/proc/self/status` mid-serving where available, `None` elsewhere.
    /// The executor spawns none, so this must be `Some(0)` on Linux.
    pub extra_frontend_threads: Option<usize>,
    /// Sessions simultaneously live when submission began (the concurrency
    /// actually achieved, asserted `== sessions`).
    pub peak_live_sessions: usize,
    /// Task polls the executor performed.
    pub executor_polls: u64,
    /// Scheduling events (spawns + wakes, including cross-thread wakes from
    /// the shard worker) the executor's ready queue saw.
    pub executor_wakeups: u64,
    /// Whether the async path's reply sequence `(session_id, outcome)` was
    /// bit-identical to the blocking path's.
    pub identical_outputs: bool,
}

/// Runs E15: the hand-rolled async front-end serving N concurrent device
/// sessions on one executor thread, compared against a blocking driver with
/// the identical phase structure (open all → handshake all → masks
/// round-major → each session's arrival-ordered stream via `submit_many` →
/// drain). At `shards: 1` both
/// paths present each enclave the same sequence of randomness-consuming
/// operations (session opens, batch processing — executor micro-timing
/// races never reorder those), so their endorsement outputs — down to the
/// reply ciphertext bytes — must be identical; the
/// async path's win is architectural: thousands of in-flight sessions with
/// zero extra front-end threads, instead of a parked OS thread per
/// outstanding reply.
#[must_use]
pub fn e15_async_frontend(
    sessions: usize,
    requests_per_session: usize,
    slots: usize,
    seed: [u8; 32],
) -> E15Row {
    use glimmer_gateway::frontend::{AsyncGateway, SessionExecutor, WaitGroup};
    use glimmer_gateway::{Gateway, GatewayResponse};
    use std::cell::RefCell;
    use std::rc::Rc;

    let rig = Rc::new(Rig::generate(
        sessions,
        requests_per_session,
        8,
        0.2,
        seed,
        [31u8; 32],
        &mut Drbg::from_seed(seed),
    ));
    // Deterministic single-shard mode: the bit-identical-outputs claim
    // depends on a single FIFO command stream per the frontend docs.
    let config = || rig.config(slots, 1);
    // The whole point is concurrency scale: all sessions are live at once
    // and the entire schedule is queued before the first drain.
    let tenants = || rig.tenants(rig.all_live_quota());
    // Both paths must consume identical randomness streams: the machine rng
    // rebuilds identical platforms, the device rng identical handshakes.
    let machine_seed = [101u8; 32];
    let device_seed = [102u8; 32];
    let expected_replies = rig.workload.total_requests();

    // Per-session request streams, extracted once from the interleaved
    // schedule: each driver submits them through `submit_many` — one
    // atomic admission + one shard command per session — in device order.
    // (Single tenant, so streams[i].device == i.)
    let streams = Rc::new(rig.workload.session_streams());

    // --- Blocking driver, phased exactly like the async task lifecycle:
    // all opens, then all handshakes (device order), then masks
    // round-major, then each session's stream via submit_many, then
    // drain-to-empty. ---
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

    // --- Async driver: one self-contained task per session (lifecycle
    // through submitting its own stream), one drainer task, every poll on
    // this thread. ---
    let mut avs = rig::attestation([17u8; 32]);
    let gateway = Gateway::new(
        config(),
        tenants(),
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
    )
    .unwrap();
    // Baseline AFTER the shard workers exist: any growth from here on would
    // be threads the front-end itself added (it must add none).
    let baseline_threads = os_threads();
    let frontend = AsyncGateway::new(gateway);
    let mut executor = SessionExecutor::new();
    let async_start = Instant::now();
    let approved = frontend.gateway().measurement(rig::APP).unwrap();
    let device_rng = Rc::new(RefCell::new(Drbg::from_seed(device_seed)));
    let avs = Rc::new(avs);
    let ready = WaitGroup::new(sessions);
    // Session tasks park their established device sessions here for the
    // submitter task (slot i = device i, so ids line up with the streams).
    type Established = Vec<Option<(u64, IotDeviceSession)>>;
    let established: Rc<RefCell<Established>> =
        Rc::new(RefCell::new((0..sessions).map(|_| None).collect()));
    let async_responses: Rc<RefCell<Vec<GatewayResponse>>> = Rc::new(RefCell::new(Vec::new()));
    let peak_live = Rc::new(std::cell::Cell::new(0usize));
    let threads_mid_serving = Rc::new(std::cell::Cell::new(None::<usize>));

    for i in 0..sessions {
        let frontend = frontend.clone();
        let device_rng = Rc::clone(&device_rng);
        let avs = Rc::clone(&avs);
        let rig = Rc::clone(&rig);
        let established = Rc::clone(&established);
        let ready = ready.clone();
        executor.spawn(async move {
            let (sid, offer) = frontend.open_session(rig::APP).await.unwrap();
            let (accept, session) = {
                let mut rng = device_rng.borrow_mut();
                IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap()
            };
            frontend.complete_session(sid, &accept).await.unwrap();
            for round in &rig.masks {
                frontend.install_mask(sid, &round[i]).await.unwrap();
            }
            established.borrow_mut()[i] = Some((sid, session));
            ready.done();
        });
    }
    {
        let frontend = frontend.clone();
        let rig = Rc::clone(&rig);
        let streams = Rc::clone(&streams);
        let established = Rc::clone(&established);
        let async_responses = Rc::clone(&async_responses);
        let peak_live = Rc::clone(&peak_live);
        let threads_mid_serving = Rc::clone(&threads_mid_serving);
        executor.spawn(async move {
            // Hold submission back until every session finished its
            // handshake — the same phase boundary the blocking driver has,
            // and the moment all N sessions are provably live at once.
            //
            // Submission runs in ONE task, walking the per-session streams
            // in device order, because a completion delivered before its
            // first poll resolves inline: session tasks that submit from
            // inside their own lifecycle would race each other's
            // submission order (harmless for correctness, fatal for the
            // bit-identical comparison — the per-slot queue order feeds
            // the enclave's reply-nonce stream at drain time).
            ready.wait().await;
            peak_live.set(frontend.gateway().live_sessions());
            threads_mid_serving.set(os_threads());
            // Take ownership of the established sessions (every session
            // task has finished, so the cell is fully populated): holding
            // a RefCell borrow across the awaits below would be fragile.
            let mut established: Established = std::mem::take(&mut established.borrow_mut());
            for stream in streams.iter() {
                let (sid, session) = established[stream.device]
                    .as_mut()
                    .expect("all sessions established");
                let requests: Vec<Vec<u8>> = stream
                    .requests
                    .iter()
                    .map(|&round| rig.request(session, stream.device, round))
                    .collect();
                frontend.submit_many(*sid, requests).await.unwrap();
            }
            loop {
                let batch = frontend.drain_replies().await.unwrap();
                let mut collected = async_responses.borrow_mut();
                collected.extend(batch);
                if collected.len() >= expected_replies {
                    break;
                }
            }
        });
    }
    executor.run();
    let async_ms = async_start.elapsed().as_secs_f64() * 1e3;
    let executor_polls = executor.polls();
    let executor_wakeups = executor.wakeups();

    // The acceptance bar: bit-identical reply sequences, byte-for-byte
    // (every reply ciphertext depends on the per-slot enclave rng stream,
    // so this holds only because both drivers present each enclave the
    // same order of randomness-consuming operations).
    let async_responses = async_responses.borrow();
    let identical_outputs = blocking_responses.len() == async_responses.len()
        && blocking_responses
            .iter()
            .zip(async_responses.iter())
            .all(|(b, a)| b.session_id == a.session_id && b.outcome == a.outcome);
    let endorsed = rig::endorsed(&async_responses);
    let rejected = expected_replies - endorsed;
    let extra_frontend_threads = match (baseline_threads, threads_mid_serving.get()) {
        (Some(before), Some(during)) => Some(during.saturating_sub(before)),
        _ => None,
    };

    E15Row {
        sessions,
        requests_per_session,
        slots,
        endorsed,
        rejected,
        blocking_ms,
        async_ms,
        extra_frontend_threads,
        peak_live_sessions: peak_live.get(),
        executor_polls,
        executor_wakeups,
        identical_outputs,
    }
}
