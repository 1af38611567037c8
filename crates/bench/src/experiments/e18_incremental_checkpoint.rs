//! E18: incremental and streamed checkpoints.

use crate::rig::{self, Rig};
use glimmer_core::remote::IotDeviceSession;
use glimmer_crypto::drbg::Drbg;
use glimmer_gateway::SystemClock;
use std::sync::Arc;
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
/// [`glimmer_gateway::Gateway::checkpoint`], driving
/// `overlap_requests` live requests through the gateway from inside the
/// [`glimmer_gateway::CrashPoint::MidStreamExport`] hook — each one
/// submitted and drained while the capture is mid-flight, proving
/// housekeeping no longer stops the world.
///
/// Phase 3 (bit-identity) runs two identically-seeded fixtures on a
/// [`glimmer_gateway::ManualClock`]: run A checkpoints base + delta, run B
/// takes full snapshots at the same two points, both crash, and run A
/// restores through [`glimmer_gateway::Gateway::restore_chain_with_hooks`]
/// while run B restores from the full snapshot (the empty chain). A fresh checkpoint from
/// either restored gateway must be byte-for-byte identical, and both must
/// serve the remaining workload identically.
#[must_use]
pub fn e18_incremental_checkpoint(
    slots: usize,
    dirty: usize,
    dimension: usize,
    repeats: usize,
    overlap_requests: usize,
    seed: [u8; 32],
) -> E18Result {
    use glimmer_gateway::{
        CrashHooks, CrashPoint, Gateway, ManualClock, NoCrash, SnapshotChain, TenantQuota,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    assert!(dirty >= 1 && dirty <= slots, "dirty must be in 1..=slots");
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
    let gateway = rig.gateway(
        rig.config(slots, 4),
        &mut avs,
        &mut Drbg::from_seed([83u8; 32]),
        Arc::new(SystemClock::new()),
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

    // --- Streamed capture with live traffic from inside the hook. ---
    struct ServeDuringCapture<'a> {
        rig: &'a Rig,
        gateway: &'a Gateway,
        // (dense device index, sid, device session, next round) for the
        // device the hook keeps serving; rounds_left bounds the traffic.
        lane: Mutex<(usize, u64, IotDeviceSession, usize, usize)>,
        served: AtomicU64,
    }
    impl CrashHooks for ServeDuringCapture<'_> {
        fn reached(&self, point: CrashPoint) -> bool {
            if point == CrashPoint::MidStreamExport {
                let mut lane = self.lane.lock().unwrap();
                let (device, sid, ref mut session, ref mut round, ref mut left) = *lane;
                if *left > 0 {
                    *left -= 1;
                    let request = self.rig.request(session, device, *round);
                    *round += 1;
                    self.gateway.submit(sid, request).unwrap();
                    let endorsed = rig::endorsed(&self.gateway.drain_all().unwrap());
                    self.served.fetch_add(endorsed as u64, Ordering::Relaxed);
                }
            }
            false // observe, never crash
        }
    }
    // Device 0 already served rounds 0 and 1; its masks run to
    // `total_rounds`, leaving exactly `overlap_requests` rounds for the
    // hook to burn mid-capture.
    let (sid0, session0) = sessions.swap_remove(0);
    let hooks = ServeDuringCapture {
        rig: &rig,
        gateway: &gateway,
        lane: Mutex::new((0, sid0, session0, 2, overlap_requests)),
        served: AtomicU64::new(0),
    };
    let start = Instant::now();
    let streamed = gateway.checkpoint_with_hooks(&hooks).unwrap();
    let streamed_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        streamed.tenants[0].slots.len(),
        slots,
        "streamed capture must cover the whole pool"
    );
    let served_during_capture = hooks.served.load(Ordering::Relaxed);
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
        // needs. Identical seeds make run A and run B the same machine.
        type CheckpointOps<'o> = dyn FnMut(&Gateway, &mut dyn FnMut(&Gateway)) + 'o;
        let run = |ops: &mut CheckpointOps<'_>| {
            let clock = Arc::new(ManualClock::new());
            let mut avs = rig::attestation([86u8; 32]);
            let gateway = fixture.gateway(
                fixture.config(4, 1),
                &mut avs,
                &mut Drbg::from_seed([88u8; 32]),
                clock.clone(),
            );
            let mut device_sessions =
                fixture.connect(&gateway, &avs, &mut Drbg::from_seed([87u8; 32]));
            fixture.serve(&gateway, &mut device_sessions, (0..4).map(|i| (i, 0)));
            // `ops` checkpoints, then asks us to serve the dirtying round
            // (devices 0..2 at round 1), then checkpoints again.
            ops(&gateway, &mut |gateway| {
                fixture.serve(gateway, &mut device_sessions, (0..2).map(|i| (i, 1)));
            });
            drop(gateway);
            (avs, clock, device_sessions)
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
        let (mut avs_a, clock_a, mut sessions_a) = run(&mut |gateway, dirty_round| {
            let base = gateway.checkpoint().unwrap();
            dirty_round(gateway);
            delta_a = Some(gateway.checkpoint_delta(&base.chain_base()).unwrap());
            base_a = Some(base);
        });
        // Run B: full snapshots at the same two points (same epoch
        // sequence).
        let mut full_b = None;
        let (mut avs_b, clock_b, mut sessions_b) = run(&mut |gateway, dirty_round| {
            let _ = gateway.checkpoint().unwrap();
            dirty_round(gateway);
            full_b = Some(gateway.checkpoint().unwrap());
        });

        let base_a = base_a.unwrap();
        let delta_a = delta_a.unwrap();
        let restored_a = Gateway::restore_chain_with_hooks(
            fixture.config(4, 1),
            fixture.tenants(TenantQuota::default()),
            SnapshotChain {
                base: &base_a,
                deltas: std::slice::from_ref(&delta_a),
            },
            &mut avs_a,
            &mut Drbg::from_seed([88u8; 32]),
            clock_a,
            &NoCrash,
        )
        .unwrap();
        let restored_b = Gateway::restore_chain_with_hooks(
            fixture.config(4, 1),
            fixture.tenants(TenantQuota::default()),
            SnapshotChain {
                base: &full_b.unwrap(),
                deltas: &[],
            },
            &mut avs_b,
            &mut Drbg::from_seed([88u8; 32]),
            clock_b,
            &NoCrash,
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
