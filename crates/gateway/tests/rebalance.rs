//! Live slot migration invariants, proven by a migration fault matrix.
//!
//! The matrix kills the migration coordinator at every migration-only
//! [`CrashPoint`] under the E11-style two-tenant workload and asserts
//! fail-closed recovery back to the source shard with no lost or
//! duplicated endorsements. A determinism regression pins the migrated
//! multi-shard run to the single-shard baseline (bit-identical drain
//! cycles and endorsement sets). Planner properties (never move toward a
//! deeper shard, never oscillate, balanced fleet plans nothing) are
//! property-tested, and the `BarrierConflict` regression holds a streamed
//! capture mid-slot while racing a migration — in both directions.

mod common;

use common::*;
use glimmer_core::protocol::BatchOutcome;
use glimmer_gateway::{
    plan_rebalance, BarrierOp, CrashAt, CrashHooks, CrashPoint, GatewayConfig, GatewayError,
    RebalanceConfig, Rebalancer, SlotLoad,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The seed byte this matrix runs on.
const SEED: u8 = 70;

fn config(shards: usize) -> GatewayConfig {
    common::config(shards)
}

fn build_fixture(shards: usize) -> Fixture {
    common::build_fixture(config(shards), SEED)
}

/// A two-shard fixture whose gateway reports its crash points to
/// `crash_hooks`.
fn planned_fixture(crash_hooks: Arc<dyn CrashHooks>) -> Fixture {
    common::build_fixture(
        GatewayConfig {
            crash_hooks,
            ..config(2)
        },
        SEED,
    )
}

fn submit_rounds(fixture: &Fixture, rounds: std::ops::Range<usize>) -> Vec<RespRec> {
    common::submit_rounds(&fixture.devices, &fixture.events, &fixture.gateway, rounds)
}

// ---------------------------------------------------------------------------
// Live migration: basic serving invariants
// ---------------------------------------------------------------------------

#[test]
fn migration_moves_queued_work_and_keeps_serving() {
    let fixture = build_fixture(2);
    let gateway = &fixture.gateway;

    // Baseline: the same fixture, same submissions, no migration.
    let baseline_fixture = build_fixture(2);
    let mut baseline = submit_rounds(&baseline_fixture, 0..PRE_ROUNDS);
    baseline.extend(submit_rounds(&baseline_fixture, PRE_ROUNDS..ROUNDS));
    assert!(
        baseline.iter().any(|(_, _, d)| d.contains("Endorsed")),
        "workload must produce endorsements"
    );

    // Queue the first half *without* draining, so the migration carries
    // live in-flight work with it.
    for event in fixture.events.iter().filter(|e| e.round < PRE_ROUNDS) {
        gateway
            .submit(
                fixture.devices[event.device].session_id,
                event.ciphertext.clone(),
            )
            .unwrap();
    }
    let from = shard_of(gateway, IOT, 0);
    let to = 1 - from;
    let report = gateway.migrate_slot(IOT, 0, to).unwrap();
    assert_eq!(report.tenant, IOT);
    assert_eq!(report.slot_id, 0);
    assert_eq!(report.from_shard, from);
    assert_eq!(report.to_shard, to);
    assert!(report.queued_moved > 0, "in-flight work must travel");
    assert!(
        report.sealed_bytes > 0,
        "handoff must seal a recovery artifact"
    );
    assert_eq!(shard_of(gateway, IOT, 0), to, "routing table must retarget");

    // The queued work replays on the new owner; the second half keeps
    // serving through the migrated slot. Order shifts (the migrated slot
    // drains last on its new shard), so compare the multiset.
    let mut records = fixture.gateway.drain_all().unwrap().len();
    // Re-drive through the fixture helper for decryption: drain_all above
    // already consumed the first half, so replay it for the count and then
    // serve the rest normally.
    assert!(records > 0, "migrated queue must drain");
    let second = submit_rounds(&fixture, PRE_ROUNDS..ROUNDS);
    records += second.len();
    assert_eq!(records, baseline.len(), "no reply lost or duplicated");

    let telemetry = gateway.telemetry();
    assert_eq!(telemetry.migrations_completed, 1);
    assert_eq!(telemetry.migrations_aborted, 0);
    assert_eq!(telemetry.migration_nanos.count, 1);
}

#[test]
fn replay_windows_travel_with_a_migrated_slot() {
    let fixture = build_fixture(2);
    let gateway = &fixture.gateway;
    let served = submit_rounds(&fixture, 0..PRE_ROUNDS);
    assert!(!served.is_empty());
    for tenant in [IOT, KEYBOARD] {
        for slot_id in 0..config(2).slots_per_tenant {
            let to = 1 - shard_of(gateway, tenant, slot_id);
            gateway.migrate_slot(tenant, slot_id, to).unwrap();
        }
    }
    // Every request served before the move is refused after it...
    for event in fixture.events.iter().filter(|e| e.round < PRE_ROUNDS) {
        gateway
            .submit(
                fixture.devices[event.device].session_id,
                event.ciphertext.clone(),
            )
            .unwrap();
    }
    for response in gateway.drain_all().unwrap() {
        match &response.outcome {
            BatchOutcome::Failed(reason) => assert!(reason.contains("replay"), "{reason:?}"),
            other => panic!("a replay must not produce a reply: {other:?}"),
        }
    }
    // ...and the sessions keep serving fresh requests on their new shards.
    let rest = submit_rounds(&fixture, PRE_ROUNDS..ROUNDS);
    assert!(rest.iter().any(|(_, _, d)| d.contains("Endorsed")));
}

#[test]
fn migration_to_same_shard_is_a_noop() {
    let fixture = build_fixture(2);
    let here = shard_of(&fixture.gateway, IOT, 0);
    let report = fixture.gateway.migrate_slot(IOT, 0, here).unwrap();
    assert_eq!(report.from_shard, report.to_shard);
    assert_eq!(report.queued_moved, 0);
    assert_eq!(report.sealed_bytes, 0);
    assert_eq!(shard_of(&fixture.gateway, IOT, 0), here);
    // A no-op is not a migration: nothing recorded.
    assert_eq!(fixture.gateway.telemetry().migrations_completed, 0);
}

#[test]
fn migration_rejects_bad_addresses_typed() {
    let fixture = build_fixture(2);
    assert_eq!(
        fixture.gateway.migrate_slot(IOT, 0, 9).unwrap_err(),
        GatewayError::UnknownShard {
            shard: 9,
            shards: 2
        }
    );
    assert_eq!(
        fixture.gateway.migrate_slot(IOT, 7, 1).unwrap_err(),
        GatewayError::UnknownSlot {
            tenant: IOT.to_string(),
            slot: 7
        }
    );
    assert!(matches!(
        fixture
            .gateway
            .migrate_slot("nobody.example", 0, 1)
            .unwrap_err(),
        GatewayError::UnknownTenant(_)
    ));
}

#[test]
fn sessions_follow_their_migrated_slot() {
    let fixture = build_fixture(2);
    let gateway = &fixture.gateway;
    // Devices 0 and 1 belong to IOT; find one bound to slot 0.
    let bound = fixture
        .devices
        .iter()
        .find(|d| d.tenant == IOT && gateway.session_slot(d.session_id).unwrap() == 0)
        .expect("a session is bound to IOT slot 0");
    let from = gateway.session_shard(bound.session_id).unwrap();
    let to = 1 - from;
    gateway.migrate_slot(IOT, 0, to).unwrap();
    assert_eq!(
        gateway.session_shard(bound.session_id).unwrap(),
        to,
        "session routing must follow the slot"
    );
}

// ---------------------------------------------------------------------------
// The migration crash-fault matrix
// ---------------------------------------------------------------------------

#[test]
fn migration_crash_matrix_fails_closed_to_the_source_shard() {
    // Baseline: full two-tenant workload, no migration attempted.
    let baseline_fixture = build_fixture(2);
    let mut baseline = submit_rounds(&baseline_fixture, 0..PRE_ROUNDS);
    baseline.extend(submit_rounds(&baseline_fixture, PRE_ROUNDS..ROUNDS));
    assert!(
        baseline.iter().any(|(_, _, d)| d.contains("Endorsed")),
        "workload must produce endorsements"
    );
    assert!(
        baseline.iter().any(|(_, t, _)| t == IOT) && baseline.iter().any(|(_, t, _)| t == KEYBOARD),
        "workload must span both tenants"
    );

    for point in CrashPoint::MIGRATION {
        let crash = Arc::new(CrashAt::default());
        let fixture = planned_fixture(crash.clone());
        let gateway = &fixture.gateway;
        let mut records = submit_rounds(&fixture, 0..PRE_ROUNDS);

        let from = shard_of(gateway, IOT, 0);
        let queued_before = gateway.queued(IOT).unwrap();
        crash.arm(point);
        let err = gateway.migrate_slot(IOT, 0, 1 - from).unwrap_err();
        crash.disarm();
        assert_eq!(err, GatewayError::CrashInjected(point));

        // Fail-closed: the slot is still (or again) owned by its source
        // shard, with its queue intact.
        assert_eq!(
            shard_of(gateway, IOT, 0),
            from,
            "crash at {point}: slot must recover to its source shard"
        );
        assert_eq!(gateway.queued(IOT).unwrap(), queued_before);
        let telemetry = gateway.telemetry();
        assert_eq!(telemetry.migrations_aborted, 1, "crash at {point}");
        assert_eq!(telemetry.migrations_completed, 0, "crash at {point}");

        // Serving resumes bit-identically: same placement, same drain
        // order, same endorsements — nothing lost, nothing duplicated.
        records.extend(submit_rounds(&fixture, PRE_ROUNDS..ROUNDS));
        assert_eq!(
            records, baseline,
            "crash at {point}: serving diverged after the aborted migration"
        );

        // And a retried migration succeeds outright.
        let report = gateway.migrate_slot(IOT, 0, 1 - from).unwrap();
        assert_eq!(report.to_shard, 1 - from);
        assert_eq!(shard_of(gateway, IOT, 0), 1 - from);
    }
}

// ---------------------------------------------------------------------------
// Determinism regression: the E12 invariant survives migration
// ---------------------------------------------------------------------------

#[test]
fn migrated_run_is_bit_identical_to_the_single_shard_baseline() {
    // Single-shard deterministic baseline.
    let single = build_fixture(1);
    let mut baseline = submit_rounds(&single, 0..PRE_ROUNDS);
    baseline.extend(submit_rounds(&single, PRE_ROUNDS..ROUNDS));
    let baseline_cycles = single.gateway.stats().total_drain_cycles();

    // Sharded run with a live migration between the two halves.
    let sharded = build_fixture(2);
    let mut migrated = submit_rounds(&sharded, 0..PRE_ROUNDS);
    let from = shard_of(&sharded.gateway, IOT, 0);
    sharded.gateway.migrate_slot(IOT, 0, 1 - from).unwrap();
    migrated.extend(submit_rounds(&sharded, PRE_ROUNDS..ROUNDS));
    let migrated_cycles = sharded.gateway.stats().total_drain_cycles();

    // Drain *order* legitimately differs across shard layouts (and the
    // migrated slot drains last on its new shard), but the endorsement
    // set — every reply, bit for bit — and the total enclave work must
    // not.
    assert_eq!(baseline_cycles, migrated_cycles, "drain cycles diverged");
    let mut baseline_sorted = baseline;
    let mut migrated_sorted = migrated;
    baseline_sorted.sort();
    migrated_sorted.sort();
    assert_eq!(
        baseline_sorted, migrated_sorted,
        "endorsement set diverged across migration"
    );
}

// ---------------------------------------------------------------------------
// BarrierConflict: slot-level claims, both directions
// ---------------------------------------------------------------------------

#[test]
fn streamed_capture_mid_slot_refuses_a_racing_migration() {
    // The capture parks the first time it holds a slot's claim
    // (`MidStreamExport` fires with the claim still live) while migrations
    // race it.
    let hold = Hold::at(CrashPoint::MidStreamExport);
    let fixture = planned_fixture(hold.clone());
    submit_rounds(&fixture, 0..PRE_ROUNDS);
    let gateway = &fixture.gateway;
    let seen = std::thread::scope(|scope| {
        let capture = scope.spawn(|| gateway.checkpoint());
        hold.wait_parked();
        // The capture walks (tenant, slot) in order, so the first firing
        // holds (IOT, 0)'s claim: a migration of that exact slot loses on
        // the slot-level claim...
        let same_slot = gateway.migrate_slot(IOT, 0, 1).unwrap_err();
        // ...and a migration of any *other* slot loses on the fleet-wide
        // barrier the capture holds for mutual exclusion.
        let other_slot = gateway.migrate_slot(KEYBOARD, 1, 0).unwrap_err();
        hold.release();
        // The capture itself must succeed — the losing migration backed
        // off without disturbing it.
        capture.join().unwrap().unwrap();
        vec![same_slot, other_slot]
    });
    assert_eq!(seen.len(), 2, "both racing migrations must have run");
    for err in &seen {
        assert_eq!(
            *err,
            GatewayError::BarrierConflict {
                in_progress: BarrierOp::Checkpoint,
                requested: BarrierOp::Rebalance,
            }
        );
    }
    // Nothing leaked a claim: a migration afterwards sails through.
    let from = shard_of(&fixture.gateway, IOT, 0);
    fixture.gateway.migrate_slot(IOT, 0, 1 - from).unwrap();
}

#[test]
fn mid_flight_migration_refuses_captures_and_fails_closed() {
    // The migration parks mid-flight (`SlotHandedOff`: the slot is in
    // transit, its source worker paused) while captures and a second
    // migration race the held slot claim, then crashes there to exercise
    // the fail-closed unwind.
    let hold = Hold::crash_at(CrashPoint::SlotHandedOff);
    let fixture = planned_fixture(hold.clone());
    // A chain base older than the fixture's traffic.
    let base = fixture.gateway.checkpoint().unwrap().chain_base();
    submit_rounds(&fixture, 0..PRE_ROUNDS);
    let from = shard_of(&fixture.gateway, IOT, 0);
    let gateway = &fixture.gateway;
    let seen = std::thread::scope(|scope| {
        let migration = scope.spawn(|| gateway.migrate_slot(IOT, 0, 1 - from));
        hold.wait_parked();
        // Delta capture: (IOT, 0) served traffic since the base, so it
        // needs the export barrier, and loses on the slot's claim.
        let delta = gateway.checkpoint_delta(&base).unwrap_err();
        // Full checkpoint: reaches (IOT, 0) first and loses on its claim,
        // before any command is sent to the slot's parked source worker.
        let full = gateway.checkpoint().unwrap_err();
        // A second migration of the same slot loses on the claim too.
        let remigrate = gateway.migrate_slot(IOT, 0, 1).unwrap_err();
        hold.release();
        let err = migration.join().unwrap().unwrap_err();
        assert_eq!(err, GatewayError::CrashInjected(CrashPoint::SlotHandedOff));
        vec![delta, full, remigrate]
    });
    assert_eq!(seen.len(), 3);
    for (err, requested) in seen.iter().zip([
        BarrierOp::Checkpoint,
        BarrierOp::Checkpoint,
        BarrierOp::Rebalance,
    ]) {
        assert_eq!(
            *err,
            GatewayError::BarrierConflict {
                in_progress: BarrierOp::Rebalance,
                requested,
            }
        );
    }

    // Fail-closed: source shard still owns the slot, serving and a full
    // checkpoint both work again.
    assert_eq!(shard_of(&fixture.gateway, IOT, 0), from);
    submit_rounds(&fixture, PRE_ROUNDS..ROUNDS);
    fixture.gateway.checkpoint().unwrap();
}

// ---------------------------------------------------------------------------
// Concurrent serving across live migrations (the lost-window test)
// ---------------------------------------------------------------------------

#[test]
fn concurrent_submits_across_migrations_lose_nothing() {
    let fixture = build_fixture(2);
    let gateway = &fixture.gateway;
    let expected: usize = fixture.events.len();

    // One submitting thread per device (per-session order preserved), all
    // racing a coordinator that bounces IOT slot 0 between the shards.
    std::thread::scope(|scope| {
        for (d_idx, device) in fixture.devices.iter().enumerate() {
            let events: Vec<&Event> = fixture
                .events
                .iter()
                .filter(|e| e.device == d_idx)
                .collect();
            let session_id = device.session_id;
            scope.spawn(move || {
                for event in events {
                    loop {
                        match gateway.submit(session_id, event.ciphertext.clone()) {
                            Ok(()) => break,
                            Err(GatewayError::Backpressure { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    }
                }
            });
        }
        scope.spawn(move || {
            for target in [1usize, 0, 1, 0, 1, 0] {
                gateway.migrate_slot(IOT, 0, target).unwrap();
            }
        });
    });

    let responses = gateway.drain_all().unwrap();
    assert_eq!(
        responses.len(),
        expected,
        "a submit raced the handoff window and was lost or duplicated"
    );
    assert_eq!(gateway.telemetry().migrations_aborted, 0);
}

// ---------------------------------------------------------------------------
// The Rebalancer driver
// ---------------------------------------------------------------------------

#[test]
fn rebalancer_drains_a_hot_shard_then_cools_down() {
    let fixture = build_fixture(2);
    let gateway = &fixture.gateway;

    // Pin all traffic to each tenant's device 0 — their sessions share the
    // slot-0s, which both live on one shard: a deliberately skewed fleet.
    for event in fixture
        .events
        .iter()
        .filter(|e| e.device % DEVICES_PER_TENANT == 0)
    {
        gateway
            .submit(
                fixture.devices[event.device].session_id,
                event.ciphertext.clone(),
            )
            .unwrap();
    }
    let loads = gateway.slot_loads();
    let hot = shard_of(gateway, IOT, 0);
    assert_eq!(shard_of(gateway, KEYBOARD, 0), hot, "slot 0s share a shard");
    let hot_depth: u64 = loads
        .iter()
        .filter(|l| l.shard == hot)
        .map(|l| l.queued)
        .sum();
    let cold_depth: u64 = loads
        .iter()
        .filter(|l| l.shard != hot)
        .map(|l| l.queued)
        .sum();
    assert!(hot_depth > 0 && cold_depth == 0, "fleet must start skewed");

    let mut rebalancer = Rebalancer::new(RebalanceConfig {
        min_imbalance: 2,
        cooldown_ticks: 2,
        max_moves_per_tick: 1,
    });
    let reports = rebalancer.tick(gateway).unwrap();
    assert_eq!(reports.len(), 1, "the skew must trigger exactly one move");
    assert_ne!(reports[0].to_shard, hot);
    assert!(reports[0].queued_moved > 0);

    // The fleet is now balanced (each tenant's pinned queue on its own
    // shard) and the rebalancer is cooling down: no further moves.
    assert_eq!(rebalancer.cooldown_remaining(), 2);
    assert!(
        rebalancer.tick(gateway).unwrap().is_empty(),
        "cooldown tick"
    );
    assert!(
        rebalancer.tick(gateway).unwrap().is_empty(),
        "cooldown tick"
    );
    assert_eq!(rebalancer.cooldown_remaining(), 0);
    assert!(
        rebalancer.tick(gateway).unwrap().is_empty(),
        "armed again, but the fleet is balanced"
    );

    // Everything still serves: every queued request drains to a reply.
    let responses = gateway.drain_all().unwrap();
    assert_eq!(
        responses.len(),
        fixture
            .events
            .iter()
            .filter(|e| e.device % DEVICES_PER_TENANT == 0)
            .count()
    );
}

#[test]
fn rebalancer_holds_still_inside_the_hysteresis_band() {
    let fixture = build_fixture(2);
    let gateway = &fixture.gateway;
    for event in fixture.events.iter().filter(|e| e.round < 1) {
        gateway
            .submit(
                fixture.devices[event.device].session_id,
                event.ciphertext.clone(),
            )
            .unwrap();
    }
    let mut rebalancer = Rebalancer::new(RebalanceConfig {
        min_imbalance: 1_000_000,
        cooldown_ticks: 0,
        max_moves_per_tick: 1,
    });
    assert!(rebalancer.tick(gateway).unwrap().is_empty());
    assert_eq!(gateway.telemetry().migrations_completed, 0);
}

// ---------------------------------------------------------------------------
// Planner properties
// ---------------------------------------------------------------------------

fn synthetic_loads(loads: &[(usize, u64)], shards: usize) -> Vec<SlotLoad> {
    loads
        .iter()
        .enumerate()
        .map(|(slot_id, &(shard, queued))| SlotLoad {
            tenant: Arc::from("tenant"),
            slot_id,
            shard: shard % shards,
            queued,
        })
        .collect()
}

fn depths_of(slots: &[SlotLoad], shards: usize) -> Vec<u64> {
    let mut depths = vec![0u64; shards];
    for load in slots {
        depths[load.shard] += load.queued;
    }
    depths
}

fn potential(depths: &[u64]) -> u128 {
    depths.iter().map(|&d| u128::from(d) * u128::from(d)).sum()
}

fn planner_config(min_imbalance: u64) -> RebalanceConfig {
    RebalanceConfig {
        min_imbalance,
        ..RebalanceConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The plan never moves a slot to a more-loaded shard — and the target
    /// stays no deeper than the source even after receiving the slot.
    #[test]
    fn planner_never_moves_toward_a_deeper_shard(
        raw in proptest::collection::vec((0usize..6, 0u64..200), 0..24),
        shards in 1usize..6,
        min_imbalance in 0u64..128,
    ) {
        let slots = synthetic_loads(&raw, shards);
        if let Some(plan) = plan_rebalance(&slots, shards, &planner_config(min_imbalance)) {
            let depths = depths_of(&slots, shards);
            prop_assert!(plan.from_shard < shards && plan.to_shard < shards);
            prop_assert!(depths[plan.to_shard] < depths[plan.from_shard]);
            prop_assert!(plan.gap > min_imbalance);
            let moved = &slots[plan.slot_id];
            prop_assert_eq!(moved.shard, plan.from_shard);
            prop_assert!(moved.queued >= 1);
            prop_assert!(
                depths[plan.to_shard] + moved.queued
                    <= depths[plan.from_shard] - moved.queued,
                "the move may not leave the target deeper than the source"
            );
        }
    }

    /// Applying the plan repeatedly always converges, strictly decreasing
    /// the fleet's load imbalance each step and never bouncing a slot
    /// straight back — hysteresis holds under iteration.
    #[test]
    fn planner_converges_without_oscillating(
        raw in proptest::collection::vec((0usize..6, 0u64..40), 0..12),
        shards in 2usize..6,
        min_imbalance in 0u64..32,
    ) {
        let mut slots = synthetic_loads(&raw, shards);
        let config = planner_config(min_imbalance);
        let mut last_move: Option<(usize, usize, usize)> = None;
        let mut converged = false;
        // Each move strictly decreases the sum of squared depths (by at
        // least 2), so this bound can never be hit by a correct planner.
        for _ in 0..=potential(&depths_of(&slots, shards)) / 2 + 1 {
            let Some(plan) = plan_rebalance(&slots, shards, &config) else {
                converged = true;
                break;
            };
            if let Some((slot_id, from, to)) = last_move {
                prop_assert!(
                    !(plan.slot_id == slot_id
                        && plan.from_shard == to
                        && plan.to_shard == from),
                    "planner bounced a slot straight back"
                );
            }
            let before = potential(&depths_of(&slots, shards));
            slots[plan.slot_id].shard = plan.to_shard;
            let after = potential(&depths_of(&slots, shards));
            prop_assert!(after < before, "a move must strictly improve balance");
            last_move = Some((plan.slot_id, plan.from_shard, plan.to_shard));
        }
        prop_assert!(converged, "planner failed to converge");
    }

    /// A balanced fleet — gap within the hysteresis band — yields no plan.
    #[test]
    fn balanced_fleet_yields_an_empty_plan(
        raw in proptest::collection::vec((0usize..6, 0u64..200), 0..24),
        shards in 1usize..6,
    ) {
        let slots = synthetic_loads(&raw, shards);
        let depths = depths_of(&slots, shards);
        let gap = depths.iter().max().unwrap_or(&0) - depths.iter().min().unwrap_or(&0);
        // min_imbalance == gap: the whole observed skew sits inside the
        // band, so the planner must hold still.
        prop_assert!(plan_rebalance(&slots, shards, &planner_config(gap)).is_none());
    }

    /// Identical inputs always yield identical plans.
    #[test]
    fn planner_is_deterministic(
        raw in proptest::collection::vec((0usize..6, 0u64..200), 0..24),
        shards in 2usize..6,
        min_imbalance in 0u64..64,
    ) {
        let slots = synthetic_loads(&raw, shards);
        let config = planner_config(min_imbalance);
        prop_assert_eq!(
            plan_rebalance(&slots, shards, &config),
            plan_rebalance(&slots, shards, &config)
        );
    }
}
