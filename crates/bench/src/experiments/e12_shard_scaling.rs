//! E12: shard-per-core scaling.

use crate::rig::{self, Rig};
use glimmer_crypto::drbg::Drbg;
use std::time::Instant;

/// One row of the E12 shard-scaling experiment.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// Shard worker threads the gateway ran with.
    pub shards: usize,
    /// Pool slots (all one tenant).
    pub slots: usize,
    /// Concurrent established sessions.
    pub sessions: usize,
    /// Total requests served.
    pub requests: usize,
    /// Requests that produced endorsements (must be identical across rows).
    pub endorsed: usize,
    /// Wall-clock ms spent in submit + drain (device-side encryption is
    /// pre-paid outside the timed region, so this isolates gateway serving).
    pub serve_ms: f64,
    /// Requests per wall-clock second.
    pub wall_requests_per_s: f64,
    /// Simulated enclave cycles across all drains (identical across rows:
    /// sharding moves work, it does not add or remove any).
    pub total_drain_cycles: u64,
    /// The serving makespan in simulated cycles: the busiest shard's total.
    /// Shards run concurrently, so this — not the total — is the
    /// architectural serving time.
    pub critical_path_cycles: u64,
    /// `total_drain_cycles / critical_path_cycles`: how much parallelism the
    /// partition actually achieved (ideal = `shards` when slots balance).
    pub cycle_parallelism: f64,
    /// Critical-path speedup versus the sweep's first (serial baseline) row.
    pub cycle_speedup_vs_serial: f64,
}

/// Runs E12: the same single-tenant workload served at several shard counts.
///
/// Wall-clock columns show real parallel speedup on multicore hosts; the
/// simulated-cycle columns are the deterministic architectural metric (the
/// same convention as E11): shards drain concurrently, so the workload's
/// serving time is the *critical path* — the busiest shard's cycle total —
/// and shard-per-core scaling shows up as critical path shrinking while
/// total cycles stay bit-identical.
#[must_use]
pub fn e12_shard_scaling(
    shard_counts: &[usize],
    slots: usize,
    sessions_per_slot: usize,
    requests_per_session: usize,
    seed: [u8; 32],
) -> Vec<E12Row> {
    let sessions = slots * sessions_per_slot;
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::uniform(sessions, requests_per_session, 0.3, [32u8; 32], &mut rng);
    let mut rows: Vec<E12Row> = Vec::with_capacity(shard_counts.len());

    for &shards in shard_counts {
        // Identical seeds per configuration: the enclaves, handshakes, and
        // ciphertexts are bit-identical across shard counts, so any
        // difference between rows is the runtime's doing.
        let mut rng = rng.clone();
        let mut avs = rig::attestation([18u8; 32]);
        let gateway = rig.gateway(rig.config(slots, shards), &mut avs, &mut rng);
        let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);

        // Pre-encrypt every request so the timed region measures gateway
        // serving (queueing + batched enclave drains), not device-side
        // encryption.
        let encrypted = rig.encrypt(&mut device_sessions, rig.schedule(0..requests_per_session));

        let serve_start = Instant::now();
        for (sid, ciphertext) in encrypted {
            gateway.submit(sid, ciphertext).unwrap();
        }
        let responses = gateway.drain_all().unwrap();
        let serve_elapsed = serve_start.elapsed().as_secs_f64();

        let endorsed = rig::endorsed(&responses);
        let stats = gateway.stats();
        let total_drain_cycles = stats.total_drain_cycles();
        let critical_path_cycles = stats.critical_path_drain_cycles();
        let requests = sessions * requests_per_session;
        let baseline_critical = rows
            .first()
            .map_or(critical_path_cycles, |row| row.critical_path_cycles);
        rows.push(E12Row {
            shards,
            slots,
            sessions,
            requests,
            endorsed,
            serve_ms: serve_elapsed * 1e3,
            wall_requests_per_s: requests as f64 / serve_elapsed.max(1e-9),
            total_drain_cycles,
            critical_path_cycles,
            cycle_parallelism: total_drain_cycles as f64 / critical_path_cycles.max(1) as f64,
            cycle_speedup_vs_serial: baseline_critical as f64 / critical_path_cycles.max(1) as f64,
        });
    }
    rows
}
