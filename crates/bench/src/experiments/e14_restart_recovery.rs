//! E14: restart recovery, cold rebuild vs sealed checkpoint restore.

use crate::rig::{self, Rig};
use glimmer_crypto::drbg::Drbg;
use std::time::Instant;

/// One row of the E14 restart-recovery experiment.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Concurrent established device sessions at crash time.
    pub sessions: usize,
    /// Requests each session submits over the whole workload.
    pub requests_per_session: usize,
    /// Pool slots serving the tenant.
    pub slots: usize,
    /// Endorsements produced before the simulated crash.
    pub pre_endorsed: usize,
    /// Endorsements for the remaining workload after a cold rebuild.
    pub post_endorsed_cold: usize,
    /// Endorsements for the remaining workload after a checkpoint restore
    /// (must equal the cold count — recovery changes cost, not outcomes).
    pub post_endorsed_restore: usize,
    /// ECALLs to make the cold-rebuilt gateway serve-ready again: one
    /// provisioning ECALL per slot, a handshake pair per session, and a mask
    /// install per (session, round).
    pub cold_ready_ecalls: u64,
    /// ECALLs to make the restored gateway serve-ready: exactly one
    /// `IMPORT_STATE` per slot — zero re-provisioning for already
    /// provisioned tenants, zero per-session work.
    pub restore_ready_ecalls: u64,
    /// `cold_ready_ecalls / restore_ready_ecalls`.
    pub ecall_reduction: f64,
    /// Wall-clock ms to cold-rebuild to serve-ready (enclave builds,
    /// provisioning, re-handshakes, mask re-installs).
    pub cold_rebuild_ms: f64,
    /// Wall-clock ms to restore to serve-ready from the snapshot.
    pub restore_ms: f64,
    /// Serialized snapshot size in bytes.
    pub snapshot_bytes: usize,
}

/// Runs E14: recovery after a gateway crash, cold rebuild versus sealed
/// checkpoint restore, over the E11 traffic generator.
///
/// The scenario: a serving gateway (established sessions, installed masks,
/// half the workload already endorsed) checkpoints and then dies. Recovery
/// path A rebuilds from scratch — every slot re-provisioned, every device
/// re-handshaking, every mask re-delivered. Recovery path B calls
/// [`glimmer_gateway::Gateway::restore_chain`] on the snapshot (an empty
/// delta chain): each slot pays one
/// `IMPORT_STATE` ECALL and the original devices keep serving on their
/// existing sessions. Both paths then serve the remaining workload; they
/// must produce the same endorsements.
#[must_use]
pub fn e14_restart_recovery(
    sessions: usize,
    requests_per_session: usize,
    slots: usize,
    seed: [u8; 32],
) -> E14Row {
    use glimmer_gateway::{Gateway, GatewaySnapshot, SnapshotChain, TenantQuota};

    let pre_rounds = requests_per_session / 2;
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::generate(
        sessions,
        requests_per_session,
        8,
        0.2,
        seed,
        [71u8; 32],
        &mut rng,
    );

    // --- Serve, checkpoint, crash. ---
    // The dedicated gateway rng stands in for the machine identity: restore
    // reproduces the platforms from the same seed.
    let machine_seed = [73u8; 32];
    let mut avs = rig::attestation([72u8; 32]);
    let gateway = rig.gateway(
        rig.config(slots, 1),
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
    );
    let mut original_sessions = rig.connect(&gateway, &avs, &mut rng);
    let pre_endorsed = rig::endorsed(&rig.serve(
        &gateway,
        &mut original_sessions,
        rig.schedule(0..pre_rounds),
    ));
    let snapshot_bytes_vec = gateway.checkpoint().unwrap().to_bytes();
    drop(gateway); // the crash: every enclave dies with the process

    // --- Recovery path A: cold rebuild (what PR 3 and earlier had). ---
    let cold_start = Instant::now();
    let cold = rig.gateway(
        rig.config(slots, 1),
        &mut avs,
        &mut Drbg::from_seed([74u8; 32]),
    );
    let mut cold_sessions = rig.connect(&cold, &avs, &mut rng);
    let cold_rebuild_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    let cold_ready_ecalls = rig::ecalls(&cold);
    let post_endorsed_cold = rig::endorsed(&rig.serve(
        &cold,
        &mut cold_sessions,
        rig.schedule(pre_rounds..requests_per_session),
    ));
    drop(cold);

    // --- Recovery path B: restore from the sealed checkpoint. ---
    let restore_start = Instant::now();
    let snapshot = GatewaySnapshot::from_bytes(&snapshot_bytes_vec).unwrap();
    let restored = Gateway::restore_chain(
        rig.config(slots, 1),
        rig.tenants(TenantQuota::default()),
        SnapshotChain {
            base: &snapshot,
            deltas: &[],
        },
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
    )
    .unwrap();
    let restore_ms = restore_start.elapsed().as_secs_f64() * 1e3;
    let restore_ready_ecalls = rig::ecalls(&restored);
    // The original devices keep their sessions: no re-handshake, no mask
    // re-delivery, straight back to serving.
    let post_endorsed_restore = rig::endorsed(&rig.serve(
        &restored,
        &mut original_sessions,
        rig.schedule(pre_rounds..requests_per_session),
    ));

    E14Row {
        sessions,
        requests_per_session,
        slots,
        pre_endorsed,
        post_endorsed_cold,
        post_endorsed_restore,
        cold_ready_ecalls,
        restore_ready_ecalls,
        ecall_reduction: cold_ready_ecalls as f64 / (restore_ready_ecalls as f64).max(1.0),
        cold_rebuild_ms,
        restore_ms,
        snapshot_bytes: snapshot_bytes_vec.len(),
    }
}
