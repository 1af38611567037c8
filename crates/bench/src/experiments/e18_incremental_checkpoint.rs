//! E18: incremental and streamed checkpoints.

use crate::rig::{self, Rig};
use glimmer_core::remote::IotDeviceSession;
use glimmer_crypto::drbg::Drbg;
use glimmer_gateway::{
    CrashHooks, CrashPoint, Gateway, GatewayConfig, ManualClock, SnapshotChain, TenantQuota,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// The E18 result: incremental + streamed checkpoints.
#[derive(Debug, Clone)]
pub struct E18Result {
    /// Pool slots in the ratio gateway (one tenant, one session per slot).
    pub slots: usize,
    /// Slots the delta actually re-exported (the dirty set).
    pub dirty_slots: usize,
    /// Slots the delta skipped wholesale — no barrier, no seal, no ECALL.
    pub skipped_slots: usize,
    /// ECALLs one full checkpoint consumed (one `EXPORT_STATE` per slot).
    pub full_ecalls: u64,
    /// ECALLs one delta checkpoint consumed (dirty slots only).
    pub delta_ecalls: u64,
    /// `full_ecalls / delta_ecalls` — the E18 bar is ≥ 10x at 5% dirty.
    pub ecall_reduction: f64,
    /// Best-of-repeats wall-clock ms for a full checkpoint.
    pub full_ms: f64,
    /// Best-of-repeats wall-clock ms for a delta against the same base.
    pub delta_ms: f64,
    /// `full_ms / delta_ms` — the E18 bar is ≥ 5x at 5% dirty.
    pub wall_speedup: f64,
    /// Serialized full-snapshot size.
    pub full_bytes: usize,
    /// Serialized delta size (scales with the dirty set, not the pool).
    pub delta_bytes: usize,
    /// Wall-clock ms for the slot-at-a-time streamed full capture.
    pub streamed_ms: f64,
    /// Requests endorsed by drains issued *while* the streamed capture was
    /// in flight — proof that serving continued during housekeeping.
    pub served_during_capture: u64,
    /// The telemetry hub's `checkpoint_slots_total{outcome=exported}`
    /// counter after all checkpoint activity.
    pub telemetry_slots_exported: u64,
    /// The hub's `checkpoint_slots_total{outcome=skipped}` counter.
    pub telemetry_slots_skipped: u64,
    /// A fresh checkpoint of the chain-restored gateway was byte-identical
    /// to one from the equivalently full-snapshot-restored gateway.
    pub chain_restore_identical: bool,
    /// Post-restore serving produced identical responses on both paths.
    pub chain_tail_identical: bool,
}

/// Runs E18: incremental, streamed checkpoints.
///
/// Phase 1 (the ratio gateway) serves one round across `slots` single-slot
/// sessions so every slot holds state, takes a full checkpoint as the chain
/// base, then re-serves only `dirty` devices and captures a
/// [`glimmer_gateway::Gateway::checkpoint_delta`] against the base. ECALLs
/// and best-of-`repeats` wall clock are measured for both paths: the delta
/// must touch only the dirty slots, so both scale with the dirty count,
/// not the pool size.
///
/// Phase 2 re-captures the same gateway with a full
/// [`glimmer_gateway::Gateway::checkpoint`], parking it at
/// [`CrashPoint::MidStreamExport`] for `overlap_requests` laps (at most
/// one per slot) — in each lap one live request is submitted and drained
/// while the capture is mid-flight, proving housekeeping no longer stops
/// the world.
///
/// Phase 3 (bit-identity) runs two identically-seeded fixtures on a
/// [`ManualClock`]: run A checkpoints base + delta, run B takes full
/// snapshots at the same two points, both crash, and run A restores
/// through [`Gateway::restore_chain`] while run B restores from the full
/// snapshot (the empty chain), each handed its run's config and clock. A
/// fresh checkpoint from either restored gateway must be byte-for-byte
/// identical, and both must serve the remaining workload identically.
#[must_use]
pub fn e18_incremental_checkpoint(
    slots: usize,
    dirty: usize,
    dimension: usize,
    repeats: usize,
    overlap_requests: usize,
    seed: [u8; 32],
) -> E18Result {
    assert!(dirty >= 1 && dirty <= slots, "dirty must be in 1..=slots");
    assert!(
        overlap_requests <= slots,
        "a capture parks at most once per slot"
    );
    let total_rounds = 2 + overlap_requests;
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::generate(
        slots,
        total_rounds,
        dimension,
        0.0,
        seed,
        [81u8; 32],
        &mut rng,
    );
    let mut avs = rig::attestation([82u8; 32]);
    let overlap = Arc::new(ServeDuringCapture::default());
    let gateway = rig.gateway(
        GatewayConfig {
            crash_hooks: overlap.clone(),
            ..rig.config(slots, 4)
        },
        &mut avs,
        &mut Drbg::from_seed([83u8; 32]),
    );
    let mut sessions = rig.connect(&gateway, &avs, &mut rng);
    // Round 0 for every device: every slot ends up dirty and stateful.
    let served = rig::endorsed(&rig.serve(&gateway, &mut sessions, (0..slots).map(|i| (i, 0))));
    assert_eq!(served, slots, "honest round 0 must fully endorse");

    // --- Full-checkpoint cost: every slot pays its EXPORT_STATE. ---
    let mut full_ms = f64::INFINITY;
    let mut full_ecalls = 0u64;
    let mut base = None;
    for _ in 0..repeats.max(1) {
        let before = rig::ecalls(&gateway);
        let start = Instant::now();
        let snapshot = gateway.checkpoint().unwrap();
        full_ms = full_ms.min(start.elapsed().as_secs_f64() * 1e3);
        full_ecalls = rig::ecalls(&gateway) - before;
        base = Some(snapshot);
    }
    let base = base.unwrap();
    let full_bytes = base.to_bytes().len();

    // --- Dirty a 5%-ish subset, then measure the delta. ---
    let served = rig::endorsed(&rig.serve(&gateway, &mut sessions, (0..dirty).map(|i| (i, 1))));
    assert_eq!(served, dirty);
    let mut delta_ms = f64::INFINITY;
    let mut delta_ecalls = 0u64;
    let mut delta = None;
    for _ in 0..repeats.max(1) {
        let before = rig::ecalls(&gateway);
        let start = Instant::now();
        let captured = gateway.checkpoint_delta(&base.chain_base()).unwrap();
        delta_ms = delta_ms.min(start.elapsed().as_secs_f64() * 1e3);
        delta_ecalls = rig::ecalls(&gateway) - before;
        delta = Some(captured);
    }
    let delta = delta.unwrap();
    let delta_bytes = delta.to_bytes().len();
    let dirty_slots = delta.tenants[0]
        .slots
        .iter()
        .filter(|s| s.sealed_state.is_some())
        .count();
    let skipped_slots = slots - dirty_slots;

    // --- Streamed capture with live traffic while it is parked. ---
    // Device 0 already served rounds 0 and 1; its masks run to
    // `total_rounds`, leaving exactly `overlap_requests` rounds to serve
    // mid-capture.
    let (sid0, mut session0) = sessions.swap_remove(0);
    overlap.state.lock().unwrap().0 = overlap_requests;
    let start = Instant::now();
    let (streamed, served_during_capture) = std::thread::scope(|scope| {
        let capture = scope.spawn(|| gateway.checkpoint());
        let mut served = 0u64;
        for round in 2..total_rounds {
            overlap.lap(|| {
                gateway
                    .submit(sid0, rig.request(&mut session0, 0, round))
                    .unwrap();
                served += rig::endorsed(&gateway.drain_all().unwrap()) as u64;
            });
        }
        (capture.join().unwrap().unwrap(), served)
    });
    let streamed_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        streamed.tenants[0].slots.len(),
        slots,
        "streamed capture must cover the whole pool"
    );
    let telemetry = gateway.telemetry();
    drop(gateway);

    // --- Bit-identity: chain restore vs full-snapshot restore. ---
    let (chain_restore_identical, chain_tail_identical) = {
        // Deterministic serial drain order at `shards: 1`: the identity bar.
        let fixture = Rig::synthetic(
            rig::APP,
            &[0, 1, 2, 3],
            2,
            8,
            |device, round| vec![0.1 + 0.08 * device as f64 + 0.04 * round as f64; 8],
            [85u8; 32],
            &mut Drbg::from_seed([84u8; 32]),
        );
        // One deterministic pre-crash run: serve round 0 everywhere, hand
        // the gateway to `ops` for its two checkpoint calls (serving the
        // dirtying round between them), and return everything the restore
        // needs, its config (and so its clock) included. Identical seeds
        // make run A and run B the same machine.
        type CheckpointOps<'o> = dyn FnMut(&Gateway, &mut dyn FnMut(&Gateway)) + 'o;
        let run = |ops: &mut CheckpointOps<'_>| {
            let config = GatewayConfig {
                clock: Arc::new(ManualClock::new()),
                ..fixture.config(4, 1)
            };
            let mut avs = rig::attestation([86u8; 32]);
            let gateway =
                fixture.gateway(config.clone(), &mut avs, &mut Drbg::from_seed([88u8; 32]));
            let mut device_sessions =
                fixture.connect(&gateway, &avs, &mut Drbg::from_seed([87u8; 32]));
            fixture.serve(&gateway, &mut device_sessions, (0..4).map(|i| (i, 0)));
            // `ops` checkpoints, then asks us to serve the dirtying round
            // (devices 0..2 at round 1), then checkpoints again.
            ops(&gateway, &mut |gateway| {
                fixture.serve(gateway, &mut device_sessions, (0..2).map(|i| (i, 1)));
            });
            drop(gateway);
            (avs, config, device_sessions)
        };
        // Post-restore tail: devices 2.. still owe round 1.
        let tail = |gateway: &Gateway,
                    device_sessions: &mut [(u64, IotDeviceSession)]|
         -> Vec<(u64, String)> {
            fixture
                .serve(gateway, device_sessions, (2..4).map(|i| (i, 1)))
                .iter()
                .map(|r| (r.session_id, format!("{:?}", r.outcome)))
                .collect()
        };

        // Run A: base + delta.
        let mut base_a = None;
        let mut delta_a = None;
        let (mut avs_a, config_a, mut sessions_a) = run(&mut |gateway, dirty_round| {
            let base = gateway.checkpoint().unwrap();
            dirty_round(gateway);
            delta_a = Some(gateway.checkpoint_delta(&base.chain_base()).unwrap());
            base_a = Some(base);
        });
        // Run B: full snapshots at the same two points (same epoch
        // sequence).
        let mut full_b = None;
        let (mut avs_b, config_b, mut sessions_b) = run(&mut |gateway, dirty_round| {
            let _ = gateway.checkpoint().unwrap();
            dirty_round(gateway);
            full_b = Some(gateway.checkpoint().unwrap());
        });

        let base_a = base_a.unwrap();
        let delta_a = delta_a.unwrap();
        let restored_a = Gateway::restore_chain(
            config_a,
            fixture.tenants(TenantQuota::default()),
            SnapshotChain {
                base: &base_a,
                deltas: std::slice::from_ref(&delta_a),
            },
            &mut avs_a,
            &mut Drbg::from_seed([88u8; 32]),
        )
        .unwrap();
        let restored_b = Gateway::restore_chain(
            config_b,
            fixture.tenants(TenantQuota::default()),
            SnapshotChain {
                base: &full_b.unwrap(),
                deltas: &[],
            },
            &mut avs_b,
            &mut Drbg::from_seed([88u8; 32]),
        )
        .unwrap();
        let identical = restored_a.checkpoint().unwrap().to_bytes()
            == restored_b.checkpoint().unwrap().to_bytes();
        let tail_a = tail(&restored_a, &mut sessions_a);
        let tail_b = tail(&restored_b, &mut sessions_b);
        let tail_identical = tail_a == tail_b
            && !tail_a.is_empty()
            && tail_a
                .iter()
                .any(|(_, outcome)| outcome.contains("endorsed: true"));
        (identical, tail_identical)
    };

    E18Result {
        slots,
        dirty_slots,
        skipped_slots,
        full_ecalls,
        delta_ecalls,
        ecall_reduction: full_ecalls as f64 / (delta_ecalls as f64).max(1.0),
        full_ms,
        delta_ms,
        wall_speedup: full_ms / delta_ms.max(1e-9),
        full_bytes,
        delta_bytes,
        streamed_ms,
        served_during_capture,
        telemetry_slots_exported: telemetry.checkpoint_slots_exported,
        telemetry_slots_skipped: telemetry.checkpoint_slots_skipped,
        chain_restore_identical,
        chain_tail_identical,
    }
}

/// The ratio gateway's crash plan: it parks a full capture at
/// [`CrashPoint::MidStreamExport`] once per lap the driver has asked for,
/// and never crashes. No worker is paused at that point, so the driver
/// serves live traffic while the capture is parked.
#[derive(Debug, Default)]
struct ServeDuringCapture {
    /// `(laps left, parked)`.
    state: Mutex<(usize, bool)>,
    turn: Condvar,
}

impl ServeDuringCapture {
    /// Waits for the capture to park, runs `serve`, and lets the capture
    /// go on to its next slot.
    fn lap(&self, serve: impl FnOnce()) {
        let state = self.state.lock().unwrap();
        drop(self.turn.wait_while(state, |(_, parked)| !*parked).unwrap());
        serve();
        let mut state = self.state.lock().unwrap();
        *state = (state.0 - 1, false);
        self.turn.notify_all();
    }
}

impl CrashHooks for ServeDuringCapture {
    fn reached(&self, point: CrashPoint) -> bool {
        if point == CrashPoint::MidStreamExport {
            let mut state = self.state.lock().unwrap();
            if state.0 > 0 {
                state.1 = true;
                self.turn.notify_all();
                drop(self.turn.wait_while(state, |(_, parked)| *parked).unwrap());
            }
        }
        false
    }
}
