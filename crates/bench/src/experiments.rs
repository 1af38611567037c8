//! The E1–E16 and E18–E20 experiment implementations.
//!
//! Every experiment is a pure function of its configuration and seed, so the
//! binaries, the Criterion benches, and the integration tests can all run the
//! same code at different scales.

mod e11_gateway_serving;
mod e12_shard_scaling;
mod e13_batched_hot_path;
mod e14_restart_recovery;
mod e15_async_frontend;
mod e16_telemetry;
mod e18_incremental_checkpoint;
mod e19_socket_frontdoor;
mod e20_live_rebalance;
mod paper;

pub use e11_gateway_serving::*;
pub use e12_shard_scaling::*;
pub use e13_batched_hot_path::*;
pub use e14_restart_recovery::*;
pub use e15_async_frontend::*;
pub use e16_telemetry::*;
pub use e18_incremental_checkpoint::*;
pub use e19_socket_frontdoor::*;
pub use e20_live_rebalance::*;
pub use paper::*;

/// OS thread count of this process, where the platform exposes it.
fn os_threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: [u8; 32] = [99u8; 32];

    #[test]
    fn e1_federated_beats_single_user() {
        let rows = e1_federated_prediction(&[16], SEED);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].federated_trending);
        assert!(!rows[0].single_user_trending);
        assert!(rows[0].federated_top1 >= rows[0].single_user_top1);
    }

    #[test]
    fn e2_blinded_sums_are_exact_and_masked() {
        let rows = e2_secure_aggregation(&[4, 8], &[16], SEED);
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(row.max_abs_error < 1e-5, "{}", row.max_abs_error);
            assert!(row.masked_fraction > 0.95);
        }
    }

    #[test]
    fn e3_unprotected_round_is_poisoned_and_e4_protected_recovers() {
        let users = 12;
        let unprotected =
            e3_e4_poisoning_sweep(users, &[0.1], &[AttackKind::OutOfRange538], false, SEED);
        let protected =
            e3_e4_poisoning_sweep(users, &[0.1], &[AttackKind::OutOfRange538], true, SEED);
        assert_eq!(unprotected.len(), 1);
        assert_eq!(protected.len(), 1);
        // Unprotected: the 538 contribution skews the model heavily.
        assert!(unprotected[0].l2_from_honest > 1.0);
        assert!(unprotected[0].out_of_range_fraction > 0.0);
        assert_eq!(unprotected[0].rejected, 0);
        // Protected: the poisoned contribution is rejected and quality recovers.
        assert!(protected[0].rejected >= 1);
        assert!(protected[0].l2_from_honest < unprotected[0].l2_from_honest);
        assert_eq!(protected[0].out_of_range_fraction, 0.0);
        assert!(protected[0].trending_top1);
    }

    #[test]
    fn e5_overhead_scales_with_dimension() {
        let rows = e5_overhead(&[16, 256], 2, SEED);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].enclave_cycles_per_contribution > 0);
        assert!(rows[1].enclave_cycles_per_contribution >= rows[0].enclave_cycles_per_contribution);
        assert!(rows[0].ecalls_single >= 1);
        assert!(rows[0].estimated_cycles_split > rows[0].enclave_cycles_per_contribution);
    }

    #[test]
    fn e6_stronger_predicates_catch_more_attacks() {
        let rows = e6_validation_spectrum(16, SEED);
        assert_eq!(rows.len(), 12);
        let find = |level: &str, attack: &str| {
            rows.iter()
                .find(|r| r.level == level && r.attack == attack)
                .unwrap()
        };
        // The 538 attack is caught by every level.
        assert_eq!(
            find("range-only", "out-of-range-538").attack_success_rate,
            0.0
        );
        // The in-range bias slips past the range check but not retraining.
        assert_eq!(find("range-only", "in-range-bias").attack_success_rate, 1.0);
        assert!(find("retrain", "in-range-bias").attack_success_rate < 0.5);
        // Honest contributions pass everywhere.
        for r in &rows {
            assert!(r.honest_acceptance_rate > 0.9, "{} {}", r.level, r.attack);
        }
        // Cost increases with invasiveness.
        assert!(
            find("retrain", "fabricated").mean_predicate_cost
                > find("range-only", "fabricated").mean_predicate_cost
        );
    }

    #[test]
    fn e7_bot_detection_matches_raw_upload_with_one_bit() {
        let result = e7_bot_detection(30, 0.4, SEED);
        assert_eq!(result.sessions, 30);
        assert!(result.bots > 0);
        assert!(result.glimmer_accuracy > 0.8);
        // Same detector, same accuracy as uploading everything.
        assert!((result.glimmer_accuracy - result.raw_upload_accuracy).abs() < 1e-9);
        // But orders of magnitude less data leaves the client.
        assert!(result.glimmer_bytes_per_session < 120);
        assert!(result.raw_bytes_per_session > 200);
        // The auditor's budget bound is enforced.
        assert!(result.auditor_rejections > 0);
        assert_eq!(result.capacity_bound_bits, 32);
    }

    #[test]
    fn e8_remote_glimmer_filters_bad_devices() {
        let result = e8_glimmer_as_a_service(6, 5, SEED);
        assert_eq!(result.devices, 6);
        assert_eq!(result.endorsed + result.rejected, 6);
        assert!(result.endorsed > 0);
        assert!(result.host_enclave_cycles > 0);
        assert!(result.remote_ms_per_device > 0.0);
        assert!(result.local_ms_per_contribution > 0.0);
    }

    #[test]
    fn e11_pooled_gateway_beats_per_device_hosting() {
        let row = e11_gateway_serving(8, 4, 2, SEED);
        assert_eq!(row.sessions, 8);
        assert_eq!(row.endorsed + row.rejected, 8 * 4);
        assert!(row.endorsed > 0);
        // The pool amortizes enclave build + attestation. The simulated
        // enclave-cycle metric is deterministic, so it is asserted always:
        // batching must cut per-request enclave cost by at least an order of
        // magnitude.
        assert!(
            row.pooled_drain_cycles_per_req * 10.0 < row.per_device_cycles_per_req,
            "batched drains did not amortize: {} vs {}",
            row.pooled_drain_cycles_per_req,
            row.per_device_cycles_per_req
        );
        // Wall-clock speedup is reported but not asserted: both timed
        // regions are dominated by identical device-side handshake crypto,
        // and the enclave costs pooling amortizes are *simulated* cycles
        // that consume no wall-clock in this simulator. The steady-state
        // Criterion bench (benches/gateway.rs) is the wall-clock
        // demonstration; this experiment's deterministic cycle metric is
        // the architectural one.
        assert!(row.per_device_ms > 0.0 && row.pooled_ms > 0.0);
    }

    #[test]
    fn e12_sharding_scales_the_cycle_critical_path() {
        let rows = e12_shard_scaling(&[1, 4], 4, 1, 2, SEED);
        assert_eq!(rows.len(), 2);
        // Sharding must not change what is computed: identical endorsement
        // counts and bit-identical total enclave cycles.
        assert_eq!(rows[0].endorsed, rows[1].endorsed);
        assert_eq!(rows[0].endorsed, rows[0].requests, "honest traffic");
        assert_eq!(rows[0].total_drain_cycles, rows[1].total_drain_cycles);
        assert!(rows[0].total_drain_cycles > 0);
        // With one shard the critical path IS the total.
        assert_eq!(rows[0].critical_path_cycles, rows[0].total_drain_cycles);
        assert!((rows[0].cycle_speedup_vs_serial - 1.0).abs() < 1e-12);
        // The acceptance bar: at 4 shards the (deterministic) serving
        // critical path is at least halved — in practice ~quartered, since
        // the 4 slots balance across the 4 shards.
        assert!(
            rows[1].cycle_speedup_vs_serial >= 2.0,
            "4-shard critical path did not reach 2x: {:.2}x (total {} critical {})",
            rows[1].cycle_speedup_vs_serial,
            rows[1].total_drain_cycles,
            rows[1].critical_path_cycles
        );
        assert!(rows[1].cycle_parallelism >= 2.0);
    }

    #[test]
    fn e13_batched_admission_cuts_commands_without_changing_results() {
        let rows = e13_batched_hot_path(8, 4, &[4, 16], 2, SEED);
        assert_eq!(rows.len(), 4);
        let base = &rows[0];
        assert_eq!(base.mode, "submit");
        // The per-request baseline pays exactly one shard-queue command per
        // request.
        assert_eq!(base.submit_commands, base.requests as u64);
        assert!(base.endorsed > 0);
        assert!(base.total_drain_cycles > 0);
        for row in &rows {
            // Batching admission must not change what is computed: identical
            // endorsement counts and — the determinism bar — bit-identical
            // total enclave cycles at `shards: 1`.
            assert_eq!(row.endorsed, base.endorsed, "{}", row.mode);
            assert_eq!(
                row.total_drain_cycles, base.total_drain_cycles,
                "{} drain cycles diverged",
                row.mode
            );
            assert_eq!(row.requests, base.requests);
        }
        // The acceptance bar: every batched path with batch >= 4 issues at
        // least 2x fewer shard-queue commands than per-request submission
        // (at one shard it is ~batch-x: one SubmitMany per call).
        for row in &rows[1..] {
            assert!(row.batch >= 4);
            assert!(
                row.submit_commands * 2 <= base.submit_commands,
                "{}: {} commands vs baseline {}",
                row.mode,
                row.submit_commands,
                base.submit_commands
            );
            assert!(row.command_reduction >= 2.0);
        }
        // The allocation bar is asserted by the dedicated E13 binary (a
        // single-purpose process), not here: under `count-allocs` the
        // global counters would also see every *other* test running in
        // this process, so the per-region deltas are only trustworthy in
        // the binary. Without the feature the column must read zero.
        if !crate::alloc_track::counting_enabled() {
            assert!(rows.iter().all(|r| r.allocs_per_req == 0.0));
        }
    }

    #[test]
    fn e14_restore_cuts_provisioning_ecalls_without_changing_outcomes() {
        let row = e14_restart_recovery(8, 4, 4, SEED);
        assert!(row.pre_endorsed > 0, "pre-crash traffic must endorse");
        // Recovery changes cost, never outcomes.
        assert_eq!(row.post_endorsed_cold, row.post_endorsed_restore);
        // Zero re-provisioning on restore: one IMPORT_STATE ECALL per slot.
        assert_eq!(row.restore_ready_ecalls, row.slots as u64);
        // The acceptance bar: >=10x fewer provisioning ECALLs than a cold
        // rebuild (which pays per-slot provisioning plus per-session
        // handshakes and mask installs).
        assert!(
            row.ecall_reduction >= 10.0,
            "got only {:.1}x",
            row.ecall_reduction
        );
        assert!(row.snapshot_bytes > 0);
    }

    #[test]
    fn e15_async_frontend_reproduces_blocking_outputs_bit_for_bit() {
        // The thread count E15 reads is the whole process's, and sibling
        // tests in this binary start and stop shard workers at any moment.
        // So the test body runs alone in a child process (this same test
        // binary, filtered to this one test), where any thread that appears
        // between the two readings is the front-end's own.
        const ISOLATED: &str = "GLIMMER_E15_ISOLATED";
        if std::env::var_os(ISOLATED).is_none() {
            let child = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    "--exact",
                    "experiments::tests::e15_async_frontend_reproduces_blocking_outputs_bit_for_bit",
                    "--test-threads=1",
                ])
                .env(ISOLATED, "1")
                .output()
                .unwrap();
            assert!(
                child.status.success(),
                "isolated run failed:\n{}{}",
                String::from_utf8_lossy(&child.stdout),
                String::from_utf8_lossy(&child.stderr)
            );
            // The filter matched and the body ran (not "0 passed").
            assert!(String::from_utf8_lossy(&child.stdout).contains("1 passed"));
            return;
        }
        let row = e15_async_frontend(16, 3, 2, SEED);
        assert_eq!(row.sessions, 16);
        assert_eq!(row.endorsed + row.rejected, 16 * 3);
        assert!(row.endorsed > 0, "honest majority must endorse");
        assert!(row.rejected > 0, "misbehaving fraction must reject");
        // The determinism bar: the async front-end changes costs, never
        // outcomes — reply sequences identical down to the ciphertexts.
        assert!(row.identical_outputs);
        // All sessions were live at once on one executor...
        assert_eq!(row.peak_live_sessions, 16);
        // ...which spawned no threads of its own (measurable on Linux).
        if let Some(extra) = row.extra_frontend_threads {
            assert_eq!(extra, 0, "executor must not spawn threads");
        }
        // Scheduling-event counts are timing-dependent — a completion the
        // worker delivers before the task's first poll resolves inline and
        // consumes no wake — so only the guaranteed floor is asserted:
        // every task (16 sessions plus the submitter/drainer) is scheduled
        // once at spawn and polled at least once.
        const TASKS: usize = 16 + 1;
        assert!(row.executor_wakeups as usize >= TASKS);
        assert!(row.executor_polls as usize >= TASKS);
        // A pop never polls without a push: polls cannot exceed wakeups.
        assert!(row.executor_polls <= row.executor_wakeups);
    }

    #[test]
    fn e16_telemetry_observes_without_steering() {
        let report = e16_telemetry(8, 4, 2, 1, SEED);
        assert_eq!(report.requests, 32);
        assert!(report.endorsed > 0, "honest majority must endorse");
        // Every submit in this workload is well-formed, so admission
        // accepted exactly the request count — and the typed counter made
        // it into the exposition snapshot.
        assert_eq!(report.accepted, 32);
        assert!(report.sample_count > 0);
        // The ManualClock sub-check: a sampled trace carried all five
        // stages with the exact injected timestamps, monotonically.
        assert!(report.trace_complete, "trace missing stages or timestamps");
        assert!(report.trace_monotonic);
        // The text rendering parses back to the snapshot's samples,
        // with the p50/p99 series present for ECALL and queue-wait.
        assert!(report.round_trip_ok);
        assert!(report.ecall_p99_nanos >= report.ecall_p50_nanos);
        assert!(report.queue_wait_p99_nanos >= report.queue_wait_p50_nanos);
        // The timing and allocation bars (overhead within 5%, recording
        // allocation-free) are asserted by the dedicated E16 binary: wall
        // clock is too noisy for a unit test, and under `count-allocs` the
        // global counters would also see every other test in this process.
        // Without the feature the allocation columns must read zero.
        assert!(report.serve_ms_on > 0.0 && report.serve_ms_off > 0.0);
        if !crate::alloc_track::counting_enabled() {
            assert_eq!(report.record_allocs, 0);
            assert_eq!(report.telemetry_allocs_total, 0);
            assert_eq!(report.allocs_per_req_on, 0.0);
            assert_eq!(report.allocs_per_req_off, 0.0);
        }
    }

    #[test]
    fn e18_delta_checkpoints_scale_with_dirty_slots() {
        // 16 slots, 1 dirty: the ECALL ratio is exact and deterministic
        // (16 EXPORT_STATEs vs 1), the wall-clock ratio is reported but
        // only loosely gated here (the bin asserts the full 5x bar at the
        // 40-slot scale).
        let r = e18_incremental_checkpoint(16, 1, 16, 2, 4, SEED);
        assert_eq!(r.slots, 16);
        assert_eq!(r.dirty_slots, 1, "exactly the re-served slot is dirty");
        assert_eq!(r.skipped_slots, 15);
        assert_eq!(r.full_ecalls, 16);
        assert_eq!(r.delta_ecalls, 1);
        assert!(r.ecall_reduction >= 10.0);
        assert!(r.full_ms > 0.0 && r.delta_ms > 0.0);
        assert!(r.delta_bytes < r.full_bytes, "deltas must be smaller");
        assert!(
            r.served_during_capture > 0,
            "no request was served during the streamed capture"
        );
        assert!(r.chain_restore_identical, "chain restore diverged");
        assert!(r.chain_tail_identical, "post-restore serving diverged");
        // Telemetry saw both the forced exports and the delta skips.
        assert!(r.telemetry_slots_exported > 0);
        assert_eq!(r.telemetry_slots_skipped, 15 * 2, "15 skips x 2 repeats");
    }

    #[test]
    fn e20_rebalancing_recovers_a_skewed_fleet() {
        // 2 shards, 4 slots, all piled on shard 0: the skewed critical path
        // is the whole workload, the rebalanced one must come back to the
        // even baseline (the planner's end state here is exactly even, so
        // the 1.5x bin bar is met with margin).
        let r = e20_live_rebalance(2, 2, 2, SEED);
        assert_eq!(r.slots, 4);
        assert!(r.skew_ratio > 1.5, "skew too mild: {:.2}", r.skew_ratio);
        assert!(
            r.recovery_ratio <= 1.5,
            "recovery bar missed: {:.2}",
            r.recovery_ratio
        );
        assert!(r.migrations > 0);
        assert!(r.queued_moved > 0, "no queued work travelled");
        assert!(r.replies_identical, "replies diverged across migration");
        assert_eq!(r.endorsed_even, r.endorsed_rebalanced);
    }

    #[test]
    fn e9_blinding_defeats_inversion() {
        let result = e9_model_inversion(10, SEED);
        assert!(result.raw_precision > 0.9);
        assert!(result.raw_recall > 0.9);
        assert!(result.blinded_precision < 0.5);
    }

    #[test]
    fn e10_all_shipped_glimmers_are_verifiable_and_small() {
        let rows = e10_tcb_accounting();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.verifiable, "{}", row.name);
            assert_eq!(row.violations, 0);
            assert!(row.descriptor_bytes < 4096, "{}", row.descriptor_bytes);
            assert!(row.epc_kib < 1024);
        }
        // The retrain Glimmer has a larger TCB than the range-only one.
        let range = rows.iter().find(|r| r.name.contains("range-only")).unwrap();
        let retrain = rows.iter().find(|r| r.name.contains("retrain")).unwrap();
        assert!(retrain.descriptor_bytes > range.descriptor_bytes);
    }
}
