//! E16: telemetry overhead and fidelity.

use crate::rig::{self, Rig};
use glimmer_crypto::drbg::Drbg;
use std::sync::Arc;
use std::time::Instant;

/// The E16 telemetry-overhead report: one full-pipeline serving comparison
/// (telemetry on vs telemetry off over bit-identical traffic) plus the
/// layer-by-layer observability bars — allocation-free recording, a
/// deterministic sampled trace, and a round-tripping text exposition.
#[derive(Debug, Clone)]
pub struct E16Report {
    /// Concurrent established sessions.
    pub sessions: usize,
    /// Requests per session.
    pub requests_per_session: usize,
    /// Enclave slots backing the tenant pool.
    pub slots: usize,
    /// Total requests served per mode (`sessions * requests_per_session`).
    pub requests: usize,
    /// Timed repeats per mode; the serve columns report the best repeat.
    pub repeats: usize,
    /// Requests that produced endorsements — asserted identical across
    /// modes inside the experiment: telemetry changes costs, never
    /// outcomes.
    pub endorsed: usize,
    /// Best-of-`repeats` wall-clock ms for submit + drain, telemetry on
    /// (the default [`glimmer_gateway::TelemetryConfig`]).
    pub serve_ms_on: f64,
    /// Best-of-`repeats` wall-clock ms for submit + drain, telemetry off.
    pub serve_ms_off: f64,
    /// Endorsements per wall-clock second with telemetry on.
    pub endorse_per_s_on: f64,
    /// Endorsements per wall-clock second with telemetry off.
    pub endorse_per_s_off: f64,
    /// The telemetry overhead bar: the median over repeats of the
    /// back-to-back per-pair `on / off` serve-time ratio, minus one.
    /// Pairing cancels CPU-frequency drift out of each ratio and the
    /// median discards outlier pairs, so this is the noise-robust
    /// estimate the E16 binary asserts stays within 5%.
    pub overhead_fraction: f64,
    /// Heap allocations per request in the serve region with telemetry on
    /// (best repeat). Zero unless built with `count-allocs`.
    pub allocs_per_req_on: f64,
    /// Heap allocations per request in the serve region with telemetry off
    /// (best repeat). Zero unless built with `count-allocs`.
    pub allocs_per_req_off: f64,
    /// Total extra allocations attributable to telemetry across the whole
    /// serve region (on minus off, best repeats). The steady-state
    /// recording paths are allocation-free, so this is bounded by the
    /// one-time per-gateway trace-scratch growth — the E16 binary asserts
    /// a small absolute cap, not a per-request one. Zero unless
    /// `count-allocs`.
    pub telemetry_allocs_total: u64,
    /// Allocations made by an isolated 100k-iteration
    /// [`glimmer_gateway::Histogram::record`] loop: the lock-free
    /// histogram hot path must allocate exactly zero. Zero (vacuously)
    /// unless `count-allocs`.
    pub record_allocs: u64,
    /// Median queue-wait (admission to drain start) from the telemetry-on
    /// run, nanoseconds.
    pub queue_wait_p50_nanos: u64,
    /// 99th-percentile queue-wait from the telemetry-on run, nanoseconds.
    pub queue_wait_p99_nanos: u64,
    /// Median per-sweep ECALL latency from the telemetry-on run,
    /// nanoseconds.
    pub ecall_p50_nanos: u64,
    /// 99th-percentile per-sweep ECALL latency from the telemetry-on run,
    /// nanoseconds.
    pub ecall_p99_nanos: u64,
    /// Admission-accepted counter from the telemetry-on snapshot (must
    /// equal `requests`: this workload is all well-formed submits).
    pub accepted: u64,
    /// Number of exposition samples the telemetry-on snapshot renders.
    pub sample_count: usize,
    /// The [`ManualClock`](glimmer_gateway::ManualClock) sub-check: a
    /// sampled trace carried all five pipeline stages with the exact
    /// injected timestamps.
    pub trace_complete: bool,
    /// The same trace's stage timestamps were monotonically non-decreasing.
    pub trace_monotonic: bool,
    /// The Prometheus-style text exposition parsed back to the snapshot's
    /// `samples()`, with the p50/p99 series present for both the ECALL and
    /// queue-wait histograms.
    pub round_trip_ok: bool,
}

/// Runs E16: the telemetry overhead and fidelity experiment.
///
/// Serves the identical single-tenant workload twice — once with the
/// default-on telemetry layer, once with telemetry disabled — through the
/// per-request `submit` path (the admission path that pays telemetry on
/// every call), timing `repeats` same-seed rebuilds of each mode and
/// keeping the best. Endorsement counts must match across modes (asserted
/// here; telemetry observes the pipeline, it never steers it). On top of
/// the comparison it runs three fidelity sub-checks: an isolated
/// [`glimmer_gateway::Histogram::record`] loop (the allocation-free bar),
/// a [`ManualClock`](glimmer_gateway::ManualClock)-driven gateway whose
/// sampled trace must carry exact deterministic stage timestamps, and the
/// exposition round-trip (the text rendering parses back to the snapshot's
/// samples). Allocation columns need `count-allocs`; without it they read
/// zero and only the timing and fidelity fields are meaningful.
#[must_use]
pub fn e16_telemetry(
    sessions: usize,
    requests_per_session: usize,
    slots: usize,
    repeats: usize,
    seed: [u8; 32],
) -> E16Report {
    use crate::alloc_track::AllocSnapshot;
    use glimmer_gateway::telemetry::parse_exposition;
    use glimmer_gateway::{
        AdmitReason, Histogram, ManualClock, TelemetryConfig, TelemetrySnapshot, TraceStage,
    };

    let repeats = repeats.max(1);
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::generate(
        sessions,
        requests_per_session,
        8,
        0.2,
        seed,
        [33u8; 32],
        &mut rng,
    );
    let requests = rig.workload.total_requests();

    struct Once {
        endorsed: usize,
        elapsed_s: f64,
        allocs: u64,
        snapshot: TelemetrySnapshot,
    }
    let run_once = |telemetry: TelemetryConfig| -> Once {
        {
            // Same-seed rebuild per run (and per mode): enclaves,
            // handshakes, placement, and ciphertexts are bit-identical, so
            // the two modes can only differ in the telemetry layer itself.
            let mut rng = rng.clone();
            let mut avs = rig::attestation([19u8; 32]);
            let mut config = rig.config(slots, 1);
            config.telemetry = telemetry;
            let gateway = rig.gateway(config, &mut avs, &mut rng);
            let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);
            let encrypted =
                rig.encrypt(&mut device_sessions, rig.schedule(0..requests_per_session));

            // The measured region: per-request admission plus drain — the
            // paths the telemetry layer instruments.
            let allocs_before = AllocSnapshot::now();
            let serve_start = Instant::now();
            for (sid, ciphertext) in encrypted {
                gateway.submit(sid, ciphertext).unwrap();
            }
            let responses = gateway.drain_all().unwrap();
            let elapsed = serve_start.elapsed().as_secs_f64();
            let allocs = AllocSnapshot::now().allocations_since(&allocs_before);

            Once {
                endorsed: rig::endorsed(&responses),
                elapsed_s: elapsed,
                allocs,
                snapshot: gateway.telemetry(),
            }
        }
    };

    struct Mode {
        endorsed: usize,
        serve_s: f64,
        serve_allocs: u64,
        snapshot: Option<TelemetrySnapshot>,
    }
    impl Mode {
        fn fold(&mut self, run: Once) {
            self.endorsed = run.endorsed;
            self.serve_s = self.serve_s.min(run.elapsed_s);
            // Best (minimum) across repeats: any process-global lazy init
            // the first repeat pays is excluded from the comparison.
            self.serve_allocs = self.serve_allocs.min(run.allocs);
            self.snapshot = Some(run.snapshot);
        }
    }
    let empty = || Mode {
        endorsed: 0,
        serve_s: f64::INFINITY,
        serve_allocs: u64::MAX,
        snapshot: None,
    };
    let off_config = TelemetryConfig {
        enabled: false,
        ..TelemetryConfig::default()
    };
    // One discarded warm-up run absorbs cold caches and lazy process-global
    // init; the timed repeats then interleave off/on so frequency drift and
    // scheduling noise hit both modes symmetrically. The overhead estimate
    // is the MEDIAN of the per-pair on/off ratios: within a pair the two
    // serves run back-to-back, so slow-CPU periods cancel out of the ratio,
    // and the median discards outlier pairs that straddle a frequency
    // transition.
    let _ = run_once(off_config.clone());
    let (mut off, mut on) = (empty(), empty());
    let mut pair_ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let off_run = run_once(off_config.clone());
        let on_run = run_once(TelemetryConfig::default());
        pair_ratios.push(on_run.elapsed_s / off_run.elapsed_s.max(1e-12));
        off.fold(off_run);
        on.fold(on_run);
    }
    pair_ratios.sort_by(f64::total_cmp);
    let overhead_fraction = pair_ratios[pair_ratios.len() / 2] - 1.0;
    assert_eq!(
        on.endorsed, off.endorsed,
        "telemetry must never change endorsement outcomes"
    );

    // The allocation-free recording bar, in isolation: the lock-free
    // histogram hot path (bucket index + relaxed atomics) must not touch
    // the allocator at all.
    let hist = Histogram::new();
    let record_before = AllocSnapshot::now();
    for i in 0..100_000u64 {
        hist.record(std::hint::black_box(
            i.wrapping_mul(2_654_435_761) & 0xF_FFFF,
        ));
    }
    let record_allocs = AllocSnapshot::now().allocations_since(&record_before);
    std::hint::black_box(hist.snapshot().count);

    // The deterministic-trace bar: under the injected ManualClock a sampled
    // trace must stamp all five stages with the exact injected times —
    // admission and enqueue at t=1000, the drain stages at t=2500.
    let (trace_complete, trace_monotonic) = {
        let mut rng = Drbg::from_seed(seed);
        let rig = Rig::uniform(1, 1, 0.25, [33u8; 32], &mut rng);
        let mut avs = rig::attestation([19u8; 32]);
        let clock = Arc::new(ManualClock::new());
        let mut config = rig.config(1, 1);
        config.telemetry.trace_sample_interval = 1;
        config.clock = clock.clone();
        let gateway = rig.gateway(config, &mut avs, &mut rng);
        let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);
        let (sid, ciphertext) = rig.encrypt(&mut device_sessions, [(0, 0)]).remove(0);
        clock.advance_nanos(1_000);
        gateway.submit(sid, ciphertext).unwrap();
        // FIFO barrier: the stats round-trip proves the worker stamped
        // `Enqueued` before the clock moves again.
        let _ = gateway.stats();
        clock.advance_nanos(1_500);
        let drained = gateway.drain().unwrap();
        assert_eq!(drained.len(), 1);
        let snap = gateway.telemetry();
        match snap.traces.iter().find(|t| t.trace_id != 0) {
            Some(trace) => (
                trace.is_complete()
                    && trace.stage(TraceStage::Admitted) == Some(1_000)
                    && trace.stage(TraceStage::Enqueued) == Some(1_000)
                    && trace.stage(TraceStage::DrainStart) == Some(2_500)
                    && trace.stage(TraceStage::EcallDone) == Some(2_500)
                    && trace.stage(TraceStage::ReplyDelivered) == Some(2_500),
                trace.is_monotonic(),
            ),
            None => (false, false),
        }
    };

    // The exposition round-trip bar, on the real serving snapshot: the text
    // rendering must parse back to the snapshot's sample map, and the
    // quantile series dashboards key on must be present.
    let snapshot = on.snapshot.as_ref().expect("repeats >= 1");
    let round_trip_ok = parse_exposition(&snapshot.render_prometheus()).is_ok_and(|from_text| {
        from_text == snapshot.samples()
            && [
                "glimmer_ecall_nanos_p50",
                "glimmer_ecall_nanos_p99",
                "glimmer_queue_wait_nanos_p50",
                "glimmer_queue_wait_nanos_p99",
            ]
            .iter()
            .all(|key| from_text.contains_key(*key))
    });
    let accepted = snapshot
        .admission
        .iter()
        .find(|(reason, _)| *reason == AdmitReason::Accepted)
        .map_or(0, |(_, n)| *n);

    E16Report {
        sessions,
        requests_per_session,
        slots,
        requests,
        repeats,
        endorsed: on.endorsed,
        serve_ms_on: on.serve_s * 1e3,
        serve_ms_off: off.serve_s * 1e3,
        endorse_per_s_on: on.endorsed as f64 / on.serve_s.max(1e-9),
        endorse_per_s_off: off.endorsed as f64 / off.serve_s.max(1e-9),
        overhead_fraction,
        allocs_per_req_on: on.serve_allocs as f64 / requests.max(1) as f64,
        allocs_per_req_off: off.serve_allocs as f64 / requests.max(1) as f64,
        telemetry_allocs_total: on.serve_allocs.saturating_sub(off.serve_allocs),
        record_allocs,
        queue_wait_p50_nanos: snapshot.queue_wait_nanos.p50(),
        queue_wait_p99_nanos: snapshot.queue_wait_nanos.p99(),
        ecall_p50_nanos: snapshot.ecall_nanos.p50(),
        ecall_p99_nanos: snapshot.ecall_nanos.p99(),
        accepted,
        sample_count: snapshot.sample_lines().len(),
        trace_complete,
        trace_monotonic,
        round_trip_ok,
    }
}
