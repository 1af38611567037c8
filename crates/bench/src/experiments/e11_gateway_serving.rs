//! E11: pooled-batched gateway serving vs per-device hosts.

use crate::rig::{self, Rig};
use glimmer_core::protocol::ProcessResponse;
use glimmer_crypto::drbg::Drbg;
use std::time::Instant;

/// One row of the E11 gateway-serving comparison.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Concurrent device sessions served.
    pub sessions: usize,
    /// Requests each session submits.
    pub requests_per_session: usize,
    /// Pool slots (shards) the gateway ran with.
    pub slots: usize,
    /// Requests that produced endorsements (identical on both paths).
    pub endorsed: usize,
    /// Requests rejected by validation (identical on both paths).
    pub rejected: usize,
    /// Wall-clock ms for the per-device baseline (one fresh
    /// `RemoteGlimmerHost` per device, sequential encrypted round trips).
    pub per_device_ms: f64,
    /// Wall-clock ms for the pooled gateway to serve the same traffic
    /// (handshakes + submits + batched drains; pool build excluded as a
    /// one-time amortized cost).
    pub pooled_ms: f64,
    /// Wall-clock ms the gateway spent building + provisioning the pool
    /// (paid once, independent of traffic volume).
    pub pool_build_ms: f64,
    /// Endorsements per second on the per-device path.
    pub per_device_endorse_per_s: f64,
    /// Endorsements per second on the pooled path.
    pub pooled_endorse_per_s: f64,
    /// `per_device_ms / pooled_ms`.
    pub speedup: f64,
    /// Simulated enclave cycles per request, per-device path (includes the
    /// per-device enclave build).
    pub per_device_cycles_per_req: f64,
    /// Simulated enclave cycles per request spent in the gateway's batched
    /// drains.
    pub pooled_drain_cycles_per_req: f64,
}

/// Runs E11: pooled-batched gateway serving vs. the per-device
/// `RemoteGlimmerHost` baseline over identical traffic.
#[must_use]
pub fn e11_gateway_serving(
    sessions: usize,
    requests_per_session: usize,
    slots: usize,
    seed: [u8; 32],
) -> E11Row {
    let dimension = 8usize;
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::generate(
        sessions,
        requests_per_session,
        dimension,
        0.2,
        seed,
        [31u8; 32],
        &mut rng,
    );

    // --- Per-device baseline: a fresh enclave host per device. ---
    let mut avs = rig::attestation([17u8; 32]);
    let mut endorsed = 0usize;
    let mut rejected = 0usize;
    let mut per_device_cycles = 0u64;
    let mut endorsements = Vec::new();
    let per_device_start = Instant::now();
    for device in 0..sessions {
        let (mut host, mut session) = rig.host_device(device, &mut avs, &mut rng);
        for round in 0..requests_per_session {
            let request = rig.request(&mut session, device, round);
            let response = session
                .decrypt_response(&host.relay(&request).unwrap())
                .unwrap();
            match response {
                ProcessResponse::Endorsed(e) => {
                    endorsements.push(e);
                    endorsed += 1;
                }
                ProcessResponse::Rejected { .. } => rejected += 1,
            }
        }
        per_device_cycles += host.cost_report().total_cycles;
    }
    let per_device_elapsed = per_device_start.elapsed().as_secs_f64();
    // Endorsement signatures are verified by the tenant service, identically
    // on either architecture, so verification sits outside both timed
    // regions; it still runs, to prove the produced endorsements are valid.
    for e in endorsements.drain(..) {
        rig.material.verifier().verify(&e).unwrap();
    }

    // --- Pooled gateway: pre-provisioned slots, batched drains. ---
    let mut avs = rig::attestation([17u8; 32]);
    let pool_build_start = Instant::now();
    // Deterministic single-shard mode: E11's cycle metric must stay
    // reproducible run-to-run (E12 is the shard-scaling experiment).
    let gateway = rig.gateway(rig.config(slots, 1), &mut avs, &mut rng);
    let pool_build_elapsed = pool_build_start.elapsed().as_secs_f64();

    let pooled_start = Instant::now();
    let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);
    // Replay the interleaved arrival schedule, then drain in batches.
    let responses = rig.serve(
        &gateway,
        &mut device_sessions,
        rig.schedule(0..requests_per_session),
    );
    // Devices decrypt their replies inside the timed region, mirroring the
    // per-device baseline's client-side work; signature verification happens
    // after timing on both paths (see above).
    let mut pooled_endorsed = 0usize;
    for response in &responses {
        if let ProcessResponse::Endorsed(e) = rig::decrypt(&device_sessions, response) {
            endorsements.push(e);
            pooled_endorsed += 1;
        }
    }
    let pooled_elapsed = pooled_start.elapsed().as_secs_f64();
    for e in endorsements.drain(..) {
        rig.material.verifier().verify(&e).unwrap();
    }
    assert_eq!(
        pooled_endorsed, endorsed,
        "pooled and per-device paths must agree on endorsements"
    );

    let stats = gateway.stats();
    let drain_cycles: u64 = stats.slots.iter().map(|s| s.stats.drain_cycles).sum();
    let total_requests = (sessions * requests_per_session).max(1) as f64;
    E11Row {
        sessions,
        requests_per_session,
        slots,
        endorsed,
        rejected,
        per_device_ms: per_device_elapsed * 1e3,
        pooled_ms: pooled_elapsed * 1e3,
        pool_build_ms: pool_build_elapsed * 1e3,
        per_device_endorse_per_s: endorsed as f64 / per_device_elapsed.max(1e-9),
        pooled_endorse_per_s: endorsed as f64 / pooled_elapsed.max(1e-9),
        speedup: per_device_elapsed / pooled_elapsed.max(1e-9),
        per_device_cycles_per_req: per_device_cycles as f64 / total_requests,
        pooled_drain_cycles_per_req: drain_cycles as f64 / total_requests,
    }
}
