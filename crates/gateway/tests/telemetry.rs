//! Telemetry-layer integration contract: sampled traces are deterministic
//! under the injected [`ManualClock`] (every pipeline stage stamped with an
//! exact, monotonic timestamp), snapshots taken under concurrent load never
//! regress and never tear, and the Prometheus-style text rendering
//! round-trips to the snapshot's sample map.

use glimmer_core::blinding::BlindingService;
use glimmer_core::host::GlimmerDescriptor;
use glimmer_core::protocol::{Contribution, ContributionPayload, PrivateData};
use glimmer_core::remote::IotDeviceSession;
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_crypto::drbg::Drbg;
use glimmer_gateway::telemetry::parse_exposition;
use glimmer_gateway::{
    AdmitReason, AsyncGateway, Gateway, GatewayConfig, ManualClock, SessionExecutor,
    TelemetryConfig, TenantConfig, TraceStage,
};
use sgx_sim::AttestationService;
use std::sync::Arc;

const APP: &str = "iot-telemetry.example";
const DIM: usize = 4;

struct Setup {
    gateway: Gateway,
    clock: Arc<ManualClock>,
    avs: AttestationService,
    rng: Drbg,
}

fn setup(telemetry: TelemetryConfig) -> Setup {
    let mut rng = Drbg::from_seed([90u8; 32]);
    let mut avs = AttestationService::new([91u8; 32]);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let clock = Arc::new(ManualClock::new());
    let gateway = Gateway::new(
        GatewayConfig {
            slots_per_tenant: 1,
            shards: 1,
            telemetry,
            clock: clock.clone(),
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
    .unwrap();
    Setup {
        gateway,
        clock,
        avs,
        rng,
    }
}

/// Opens `n` established sessions with a round-0 mask installed on each.
fn connect(s: &mut Setup, n: usize) -> Vec<(u64, IotDeviceSession, u64)> {
    let approved = s.gateway.measurement(APP).unwrap();
    let client_ids: Vec<u64> = (0..n as u64).collect();
    let masks = BlindingService::new([92u8; 32]).zero_sum_masks(0, &client_ids, DIM);
    let mut devices = Vec::new();
    for (i, client_id) in client_ids.iter().enumerate() {
        let (session_id, offer) = s.gateway.open_session(APP).unwrap();
        let (accept, session) =
            IotDeviceSession::connect(&offer, &s.avs, &approved, &mut s.rng).unwrap();
        s.gateway.complete_session(session_id, &accept).unwrap();
        s.gateway.install_mask(session_id, &masks[i]).unwrap();
        devices.push((session_id, session, *client_id));
    }
    devices
}

fn ciphertext(session: &mut IotDeviceSession, client_id: u64, round: u64) -> Vec<u8> {
    session.encrypt_request(
        Contribution {
            app_id: APP.to_string(),
            client_id,
            round,
            payload: ContributionPayload::IotReadings {
                samples: vec![0.25; DIM],
            },
        },
        PrivateData::None,
    )
}

#[test]
fn manual_clock_trace_stamps_all_five_stages_deterministically() {
    let mut s = setup(TelemetryConfig {
        // Sample every submit: the test needs *this* request traced.
        trace_sample_interval: 1,
        ..TelemetryConfig::default()
    });
    let mut devices = connect(&mut s, 1);
    let (session_id, ref mut session, client_id) = devices[0];
    let request = ciphertext(session, client_id, 0);

    // Admission happens on the caller thread at exactly t=1_000...
    s.clock.advance_nanos(1_000);
    s.gateway.submit(session_id, request).unwrap();
    // ...and the FIFO stats round-trip guarantees the worker processed the
    // enqueue (stamping `Enqueued`) before the clock moves again.
    let stats = s.gateway.stats();
    assert_eq!(stats.tenants[0].1.submitted, 1);
    s.clock.advance_nanos(1_500);
    let replies = s.gateway.drain().unwrap();
    assert_eq!(replies.len(), 1);

    let snapshot = s.gateway.telemetry();
    let trace = snapshot
        .traces
        .iter()
        .find(|t| t.trace_id != 0)
        .expect("interval 1 must have traced the submit");
    assert_eq!(trace.session_id, session_id);
    assert!(trace.is_complete());
    assert!(trace.is_monotonic());
    // Exact stage timings, not just ordering: admission and enqueue at
    // t=1000, the whole drain (start, ECALL, reply delivery) at t=2500.
    assert_eq!(trace.stage(TraceStage::Admitted), Some(1_000));
    assert_eq!(trace.stage(TraceStage::Enqueued), Some(1_000));
    assert_eq!(trace.stage(TraceStage::DrainStart), Some(2_500));
    assert_eq!(trace.stage(TraceStage::EcallDone), Some(2_500));
    assert_eq!(trace.stage(TraceStage::ReplyDelivered), Some(2_500));

    // The derived histograms see the same deterministic durations.
    assert_eq!(snapshot.queue_wait_nanos.count, 1);
    assert_eq!(snapshot.queue_wait_nanos.sum, 1_500);
    assert_eq!(snapshot.queue_wait_nanos.max, 1_500);
    assert_eq!(snapshot.ecall_nanos.count, 1);
    assert_eq!(snapshot.ecall_nanos.sum, 0);
    assert_eq!(snapshot.batch_size.count, 1);
    assert_eq!(snapshot.batch_size.sum, 1);
    // The live gauge sampled at drain time saw the one queued request, both
    // in the snapshot and in the merged-on-read stats row.
    assert_eq!(snapshot.shard_queue_depth, vec![1]);
    assert_eq!(snapshot.shard_drain_sweeps, vec![1]);
    let stats = s.gateway.stats();
    assert_eq!(stats.slots[0].stats.last_drain_queue_depth, 1);
    assert_eq!(stats.last_drain_queue_depth_by_shard()[&0], 1);
}

#[test]
fn snapshots_under_concurrent_load_never_regress_or_tear() {
    const PER_DEVICE: usize = 200;
    let mut s = setup(TelemetryConfig::default());
    let mut devices = connect(&mut s, 2);

    // Pre-encrypt each device's schedule so the writer threads only submit.
    let mut schedules = Vec::new();
    for (session_id, session, client_id) in &mut devices {
        let requests: Vec<Vec<u8>> = (0..PER_DEVICE)
            .map(|round| ciphertext(session, *client_id, round as u64))
            .collect();
        schedules.push((*session_id, requests));
    }

    std::thread::scope(|scope| {
        for (session_id, requests) in schedules {
            let gateway = &s.gateway;
            scope.spawn(move || {
                for request in requests {
                    gateway.submit(session_id, request).unwrap();
                }
            });
        }

        // Race the scrape loop against the writers: every counter must be
        // monotone across snapshots, and every histogram must be internally
        // consistent (the buckets never lag the count — the no-torn-reads
        // ordering contract).
        let mut last_accepted = 0u64;
        let mut last_queue_wait = 0u64;
        loop {
            let _ = s.gateway.drain().unwrap();
            let snapshot = s.gateway.telemetry();
            let accepted = snapshot
                .admission
                .iter()
                .find(|(reason, _)| *reason == AdmitReason::Accepted)
                .map(|(_, n)| *n)
                .unwrap();
            assert!(accepted >= last_accepted, "accepted counter regressed");
            last_accepted = accepted;
            for (name, hist) in snapshot.histograms() {
                let bucket_total: u64 = hist.buckets.iter().sum();
                assert!(
                    bucket_total >= hist.count,
                    "{name}: buckets lag count (torn read)"
                );
                assert!(hist.count == 0 || hist.max > 0 || hist.sum == 0);
            }
            assert!(
                snapshot.queue_wait_nanos.count >= last_queue_wait,
                "queue-wait histogram regressed"
            );
            last_queue_wait = snapshot.queue_wait_nanos.count;
            if accepted == (2 * PER_DEVICE) as u64 {
                break;
            }
        }
    });

    // Everything submitted was eventually drained and counted exactly once
    // (sweeps are capped at `max_batch`, so drain until the queues are dry).
    while !s.gateway.drain().unwrap().is_empty() {}
    let snapshot = s.gateway.telemetry();
    assert_eq!(snapshot.batch_size.sum, (2 * PER_DEVICE) as u64);
}

#[test]
fn exposition_and_json_render_the_same_samples() {
    let mut s = setup(TelemetryConfig {
        trace_sample_interval: 4,
        ..TelemetryConfig::default()
    });
    let mut devices = connect(&mut s, 2);
    for round in 0..8u64 {
        for (session_id, session, client_id) in &mut devices {
            let request = ciphertext(session, *client_id, round);
            s.clock.advance_nanos(250);
            s.gateway.submit(*session_id, request).unwrap();
        }
        s.clock.advance_nanos(1_000);
        let _ = s.gateway.drain().unwrap();
    }
    // One typed rejection so the admission families and the journal render.
    let err = s.gateway.submit(999_999, vec![0u8; 8]).unwrap_err();
    let _ = err;
    let _ = s.gateway.checkpoint().unwrap();

    let snapshot = s.gateway.telemetry();
    assert_eq!(snapshot.checkpoint_nanos.count, 1);
    assert!(!snapshot.events.is_empty());

    let from_text = parse_exposition(&snapshot.render_prometheus()).unwrap();
    assert_eq!(from_text, snapshot.samples());

    // The quantile series the dashboards key on are present for both the
    // ECALL and queue-wait histograms.
    for key in [
        "glimmer_ecall_nanos_p50",
        "glimmer_ecall_nanos_p99",
        "glimmer_queue_wait_nanos_p50",
        "glimmer_queue_wait_nanos_p99",
    ] {
        assert!(from_text.contains_key(key), "missing sample {key}");
    }
    assert_eq!(from_text["glimmer_admission_total{reason=accepted}"], 16);
    assert_eq!(
        from_text["glimmer_admission_total{reason=unknown_session}"],
        1
    );
}

#[test]
fn async_front_end_serves_telemetry_and_feeds_executor_histograms() {
    let mut s = setup(TelemetryConfig::default());
    let mut devices = connect(&mut s, 1);
    let (session_id, ref mut session, client_id) = devices[0];
    let request = ciphertext(session, client_id, 0);

    let hub = s.gateway.telemetry_handle();
    let front = AsyncGateway::new(s.gateway);
    let mut executor = SessionExecutor::new();
    executor.attach_telemetry(Arc::clone(&hub));
    let seen = std::rc::Rc::new(std::cell::RefCell::new(None));
    {
        let front = front.clone();
        let seen = std::rc::Rc::clone(&seen);
        executor.spawn(async move {
            front.submit(session_id, request).await.unwrap();
            let replies = front.drain_replies().await.unwrap();
            assert_eq!(replies.len(), 1);
            *seen.borrow_mut() = Some(front.gateway().telemetry());
        });
    }
    executor.run();
    let snapshot = seen.borrow_mut().take().expect("task ran to completion");
    let accepted = snapshot
        .admission
        .iter()
        .find(|(reason, _)| *reason == AdmitReason::Accepted)
        .map(|(_, n)| *n)
        .unwrap();
    assert_eq!(accepted, 1);
    // The executor recorded its scheduling histograms into the same hub the
    // snapshot was drawn from... but that snapshot was taken *inside* a
    // poll; a fresh one observes the completed polls.
    let after = hub.snapshot();
    assert!(after.executor_poll_nanos.count >= 1);
    assert!(after.executor_wake_nanos.count >= 1);
}
