//! The replay ingest driver: feeds loaded scenario records into the
//! gateway's batched hot path with bounded in-flight admission.
//!
//! This is the third stage of the replay pipeline (generate → load →
//! ingest). A [`ReplayHarness`] provisions the gateway exactly like the
//! in-process [`glimmer_workloads::gateway::GatewayTrafficWorkload`]
//! experiments do — per-tenant enclave pools, attested device sessions,
//! per-round zero-sum masks — and [`ingest`] drives the records through it:
//!
//! * **Bounded in-flight admission**: at most `max_in_flight` requests are
//!   queued before the driver drains, so replay applies backpressure
//!   instead of queueing a multi-hundred-MB scenario into memory.
//! * **Batched per shard**: in [`IngestMode::BatchedPerShard`] each
//!   submission window is grouped by [`Gateway::session_shard`] and lands
//!   as one `submit_batch` call per shard — the PR 3 bulk-producer path.
//! * **Nothing dropped silently**: backpressure is retried after a drain;
//!   terminal quota rejections are counted (and mirrored into the
//!   telemetry hub's ingest counters), never ignored.
//! * **Open-loop tick pacing**: with [`Pacing::TickPaced`] the driver
//!   honors the records' arrival ticks against the harness's injected
//!   [`Clock`] — a window is not submitted before its last record's tick
//!   deadline, and the wait time is spent draining already-queued work
//!   instead of spinning. [`Pacing::Unpaced`] is the closed-loop
//!   full-speed replay the load benchmarks use.
//!
//! At `shards: 1` with the same window/in-flight cadence, the per-record
//! and batched modes produce **bit-identical responses** — the E17
//! integration bar.

use crate::rig::{self, Rig, Sessions};
use glimmer_core::protocol::{BatchOutcome, Contribution, ContributionPayload, PrivateData};
use glimmer_crypto::drbg::Drbg;
use glimmer_gateway::{Clock, Gateway, GatewayError, GatewayResponse, TenantQuota};
use glimmer_workloads::replay::{payload_samples, replay_tenant_name, ReplayRecord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A gateway provisioned for a replay scenario: one tenant per scenario
/// tenant index, one established session per (tenant, device) that appears
/// in the records, and zero-sum masks installed for every round a device
/// will reach.
pub struct ReplayHarness {
    /// The gateway under test.
    pub gateway: Gateway,
    /// `sessions[tenant][device]` → (session id, device-side channel).
    sessions: Vec<Sessions>,
    /// Per-device round counter: a device's n-th replayed record is its
    /// round `n` contribution, mirroring how the in-process workloads
    /// number requests.
    next_round: Vec<Vec<u64>>,
    /// Contribution dimension.
    dimension: usize,
    /// Scratch for payload expansion — reused so steady-state encryption
    /// setup does not allocate for samples.
    samples: Vec<f64>,
    /// `device_index[tenant][device_id]` → dense session index (records
    /// may mention sparse device ids; sessions are stored densely).
    device_index: Vec<std::collections::BTreeMap<u64, usize>>,
    /// The time source [`ingest`] paces against — the same clock injected
    /// into the gateway, so paced replay and telemetry timestamps agree.
    clock: Arc<dyn Clock>,
    /// Wait iterations of every tick-paced [`ingest`] on this harness so
    /// far, published as they happen: whoever drives an injected clock from
    /// another thread reads it to learn the replay is parked on a deadline.
    paced_waits: Arc<AtomicU64>,
}

/// How [`ingest`] admits each submission window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// One `submit` call per record — the baseline the in-process drivers
    /// use.
    PerRecord,
    /// One `submit_batch` call per (window, shard) group — the replay hot
    /// path.
    BatchedPerShard,
}

/// Whether [`ingest`] replays closed-loop at full speed or open-loop on
/// the records' arrival ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Closed loop: submit as fast as admission allows, ignoring ticks.
    Unpaced,
    /// Open loop: a window is held until its last record's arrival tick
    /// deadline (`start + tick * nanos_per_tick` on the harness clock) has
    /// passed. While waiting, the driver drains in-flight work — the wait
    /// is productive, not a spin.
    TickPaced {
        /// Wall-nanoseconds each scenario tick represents.
        nanos_per_tick: u64,
    },
}

/// Ingest pacing knobs.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Admission path.
    pub mode: IngestMode,
    /// Records submitted per window (a window is the unit grouped by shard
    /// in batched mode).
    pub window: usize,
    /// Most records in flight (submitted, not yet drained) before the
    /// driver drains the gateway. Keep below the gateway's
    /// `max_queue_depth` to make backpressure the exception, not the
    /// steady state.
    pub max_in_flight: usize,
    /// Closed-loop full speed, or open-loop on record arrival ticks.
    pub pacing: Pacing,
}

/// What an ingest run did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Records submitted (accepted by admission).
    pub submitted: u64,
    /// Records terminally rejected by quota/admission (after the one
    /// backpressure retry). Counted, never silently dropped.
    pub quota_rejected: u64,
    /// Drain sweeps the pacing performed.
    pub drains: u64,
    /// Wait iterations spent honoring tick deadlines (always 0 under
    /// [`Pacing::Unpaced`]). Each iteration either drained in-flight work
    /// or yielded the CPU.
    pub paced_waits: u64,
    /// Every response the gateway produced, in drain order.
    pub responses: Vec<GatewayResponse>,
}

impl IngestReport {
    /// Responses that carry an endorsement.
    #[must_use]
    pub fn endorsed(&self) -> usize {
        rig::endorsed(&self.responses)
    }

    /// The responses as comparable values: `(session_id, tenant, outcome)`
    /// in drain order. Two runs are **bit-identical** iff these are equal —
    /// the outcome includes the full encrypted response ciphertext.
    #[must_use]
    pub fn response_keys(&self) -> Vec<(u64, String, BatchOutcome)> {
        self.responses
            .iter()
            .map(|r| (r.session_id, r.tenant.to_string(), r.outcome.clone()))
            .collect()
    }
}

impl ReplayHarness {
    /// Provisions a gateway for `records`: tenants `0..tenants`, a session
    /// for every (tenant, device) the records mention, and masks for
    /// rounds `0..per-device record count`. Deterministic from `seed` —
    /// two harnesses built from the same arguments serve identical
    /// ciphertexts to identical enclaves. The gateway and the tick-paced
    /// ingest loop both read time from `clock`, so a
    /// [`glimmer_gateway::ManualClock`] makes open-loop replay fully
    /// deterministic under test.
    ///
    /// # Panics
    /// Panics if provisioning fails (these are experiment harnesses: a
    /// provisioning failure is a bug, not an operational condition).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        records: &[ReplayRecord],
        tenants: u32,
        shards: usize,
        slots_per_tenant: usize,
        dimension: usize,
        max_queue_depth: usize,
        seed: [u8; 32],
        clock: Arc<dyn Clock>,
    ) -> ReplayHarness {
        // Per-(tenant, device) record counts decide which sessions exist
        // and how many mask rounds each tenant needs.
        let tenants = tenants.max(1) as usize;
        let mut device_counts: Vec<std::collections::BTreeMap<u64, u64>> =
            vec![std::collections::BTreeMap::new(); tenants];
        for record in records {
            assert!(
                (record.tenant as usize) < tenants,
                "record tenant {} out of range (harness built for {tenants})",
                record.tenant
            );
            *device_counts[record.tenant as usize]
                .entry(record.device)
                .or_insert(0) += 1;
        }

        // One rig per tenant. Device ids are sparse in the records but
        // sessions are dense: the sorted key order is the device order. The
        // payloads come from the records, so the rigs plan no samples.
        let mut rng = Drbg::from_material(&[&seed[..], b"replay-harness"].concat());
        let rigs: Vec<Rig> = device_counts
            .iter()
            .enumerate()
            .map(|(t, counts)| {
                let client_ids: Vec<u64> = counts.keys().copied().collect();
                let rounds = counts.values().copied().max().unwrap_or(0);
                Rig::synthetic(
                    &replay_tenant_name(t as u32),
                    &client_ids,
                    rounds as usize,
                    dimension,
                    |_, _| Vec::new(),
                    [92u8; 32],
                    &mut rng,
                )
            })
            .collect();
        let mut avs = rig::attestation([91u8; 32]);
        let mut config = rigs[0].config(slots_per_tenant, shards);
        config.max_queue_depth = max_queue_depth;
        config.clock = Arc::clone(&clock);
        let gateway = Gateway::new(
            config,
            rigs.iter()
                .flat_map(|rig| rig.tenants(TenantQuota::default()))
                .collect(),
            &mut avs,
            &mut rng,
        )
        .unwrap();
        let sessions: Vec<Sessions> = rigs
            .iter()
            .map(|rig| rig.connect(&gateway, &avs, &mut rng))
            .collect();

        ReplayHarness {
            gateway,
            next_round: sessions.iter().map(|s| vec![0u64; s.len()]).collect(),
            sessions,
            dimension,
            samples: Vec::new(),
            device_index: device_counts
                .iter()
                .map(|counts| counts.keys().enumerate().map(|(i, &id)| (id, i)).collect())
                .collect(),
            clock,
            paced_waits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Encrypts `record` as its device's next-round contribution, returning
    /// the `(session_id, ciphertext)` pair the submit paths take.
    pub fn encrypt_record(&mut self, record: &ReplayRecord) -> (u64, Vec<u8>) {
        let t = record.tenant as usize;
        let d = self.device_index[t][&record.device];
        let round = self.next_round[t][d];
        self.next_round[t][d] += 1;
        payload_samples(record.seed, self.dimension, &mut self.samples);
        let (sid, session) = &mut self.sessions[t][d];
        let contribution = Contribution {
            app_id: replay_tenant_name(record.tenant),
            client_id: record.device,
            round,
            payload: ContributionPayload::IotReadings {
                samples: self.samples.clone(),
            },
        };
        (
            *sid,
            session.encrypt_request(contribution, PrivateData::None),
        )
    }

    /// Total sessions the harness established.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum()
    }

    /// The live paced-wait counter (see [`IngestReport::paced_waits`] for
    /// one run's final figure): it moves while [`ingest`] is still running,
    /// so a clock driver can advance time only in answer to a wait.
    #[must_use]
    pub fn paced_wait_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.paced_waits)
    }
}

/// Replays `records` through the harness's gateway under `config`'s pacing,
/// draining whenever the next window would exceed `max_in_flight` and once
/// more at the end so every response is collected.
///
/// Under [`Pacing::TickPaced`] each window additionally waits for its last
/// record's arrival-tick deadline on the harness clock before submitting
/// (ticks are non-decreasing within a scenario, so the window's last record
/// is its latest arrival). The wait drains in-flight work when there is
/// any, and yields the CPU otherwise; every iteration is counted in
/// [`IngestReport::paced_waits`] and published, as it happens, on
/// [`ReplayHarness::paced_wait_counter`] — which is how whoever drives an
/// injected clock knows the replay is parked on a deadline.
///
/// Backpressure is handled by draining and retrying the rejected
/// submission once; a second rejection, or any quota error, is terminal for
/// those records — counted in the report and in the telemetry hub's
/// `glimmer_ingest_records_total{outcome=quota_rejected}` counter. Other
/// gateway errors abort the replay.
pub fn ingest(
    harness: &mut ReplayHarness,
    records: &[ReplayRecord],
    config: &IngestConfig,
) -> Result<IngestReport, GatewayError> {
    let telemetry = harness.gateway.telemetry_handle();
    let clock = Arc::clone(&harness.clock);
    let start_nanos = clock.now_nanos();
    let window = config.window.max(1);
    let mut report = IngestReport {
        submitted: 0,
        quota_rejected: 0,
        drains: 0,
        paced_waits: 0,
        responses: Vec::new(),
    };
    let mut in_flight = 0usize;
    // Reused per window; grouping buffers live across windows too so
    // steady-state ingest reuses their capacity.
    let mut encrypted: Vec<(u64, Vec<u8>)> = Vec::with_capacity(window);
    let mut shard_groups: Vec<Vec<(u64, Vec<u8>)>> = (0..harness.gateway.shard_count())
        .map(|_| Vec::new())
        .collect();

    for chunk in records.chunks(window) {
        if let Pacing::TickPaced { nanos_per_tick } = config.pacing {
            // Ticks are non-decreasing, so the chunk's last record carries
            // its latest arrival deadline.
            let last_tick = chunk.last().map_or(0, |r| r.tick);
            let due = start_nanos.saturating_add(last_tick.saturating_mul(nanos_per_tick));
            while clock.now_nanos() < due {
                report.paced_waits += 1;
                harness.paced_waits.fetch_add(1, Ordering::Relaxed);
                if in_flight > 0 {
                    report.responses.extend(harness.gateway.drain_all()?);
                    report.drains += 1;
                    in_flight = 0;
                } else {
                    std::thread::yield_now();
                }
            }
        }
        if in_flight + chunk.len() > config.max_in_flight {
            report.responses.extend(harness.gateway.drain_all()?);
            report.drains += 1;
            in_flight = 0;
        }
        encrypted.clear();
        for record in chunk {
            encrypted.push(harness.encrypt_record(record));
        }
        match config.mode {
            IngestMode::PerRecord => {
                for (sid, ciphertext) in encrypted.drain(..) {
                    // `submit` consumes its ciphertext even on rejection,
                    // so the retry needs a pre-paid clone.
                    let retry = ciphertext.clone();
                    match harness.gateway.submit(sid, ciphertext) {
                        Ok(()) => in_flight += 1,
                        Err(GatewayError::Backpressure { .. }) => {
                            report.responses.extend(harness.gateway.drain_all()?);
                            report.drains += 1;
                            in_flight = 0;
                            match harness.gateway.submit(sid, retry) {
                                Ok(()) => in_flight += 1,
                                Err(err) => reject(&mut report, &telemetry, 1, err)?,
                            }
                        }
                        Err(err) => reject(&mut report, &telemetry, 1, err)?,
                    }
                }
            }
            IngestMode::BatchedPerShard => {
                for group in &mut shard_groups {
                    group.clear();
                }
                for (sid, ciphertext) in encrypted.drain(..) {
                    let shard = harness.gateway.session_shard(sid)?;
                    shard_groups[shard].push((sid, ciphertext));
                }
                for group in &mut shard_groups {
                    if group.is_empty() {
                        continue;
                    }
                    let n = group.len();
                    let retry = group.clone();
                    match harness.gateway.submit_batch(std::mem::take(group)) {
                        Ok(()) => in_flight += n,
                        Err(GatewayError::Backpressure { .. }) => {
                            report.responses.extend(harness.gateway.drain_all()?);
                            report.drains += 1;
                            in_flight = 0;
                            match harness.gateway.submit_batch(retry) {
                                Ok(()) => in_flight += n,
                                Err(err) => reject(&mut report, &telemetry, n as u64, err)?,
                            }
                        }
                        Err(err) => reject(&mut report, &telemetry, n as u64, err)?,
                    }
                }
            }
        }
    }
    report.responses.extend(harness.gateway.drain_all()?);
    report.drains += 1;
    report.submitted = records.len() as u64 - report.quota_rejected;
    Ok(report)
}

/// Terminal-rejection bookkeeping: quota/admission errors are counted (in
/// the report and the telemetry ingest counters); anything else aborts the
/// replay.
fn reject(
    report: &mut IngestReport,
    telemetry: &std::sync::Arc<glimmer_gateway::Telemetry>,
    n: u64,
    err: GatewayError,
) -> Result<(), GatewayError> {
    match err {
        GatewayError::QuotaExceeded { .. } | GatewayError::Backpressure { .. } => {
            report.quota_rejected += n;
            telemetry.record_ingest_quota_rejected(n);
            Ok(())
        }
        other => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimmer_gateway::{ManualClock, SystemClock};
    use glimmer_workloads::replay::{ScenarioMix, ScenarioSpec};
    use std::sync::atomic::AtomicBool;

    const NANOS_PER_TICK: u64 = 1_000;

    fn scenario_records() -> Vec<ReplayRecord> {
        ScenarioSpec {
            tenants: 2,
            devices_per_tenant: 3,
            records: 48,
            mix: ScenarioMix::Steady,
            seed: 7,
        }
        .records_vec()
    }

    fn config(pacing: Pacing) -> IngestConfig {
        IngestConfig {
            mode: IngestMode::BatchedPerShard,
            window: 8,
            max_in_flight: 64,
            pacing,
        }
    }

    #[test]
    fn unpaced_ingest_never_waits() {
        let records = scenario_records();
        let mut harness = ReplayHarness::build(
            &records,
            2,
            1,
            2,
            4,
            512,
            [7u8; 32],
            Arc::new(SystemClock::new()),
        );
        let report = ingest(&mut harness, &records, &config(Pacing::Unpaced)).unwrap();
        assert_eq!(report.paced_waits, 0);
        assert_eq!(report.quota_rejected, 0);
        assert_eq!(report.endorsed(), records.len());
    }

    #[test]
    fn tick_paced_ingest_honors_deadlines_on_a_manual_clock() {
        let records = scenario_records();
        let last_tick = records.last().unwrap().tick;
        assert!(
            last_tick > 0,
            "Steady mix should spread arrivals over ticks"
        );

        // Closed-loop baseline for the serving results.
        let mut unpaced = ReplayHarness::build(
            &records,
            2,
            1,
            2,
            4,
            512,
            [7u8; 32],
            Arc::new(SystemClock::new()),
        );
        let baseline = ingest(&mut unpaced, &records, &config(Pacing::Unpaced)).unwrap();

        // Open loop against a manual clock: ingest runs on a scoped thread
        // while this thread plays time in sub-tick steps — but only ever
        // in answer to ingest reporting (on the harness's paced-wait
        // counter) that it is parked on a deadline. Time cannot outrun the
        // replay, however the two threads are scheduled, so the first
        // window with a later tick *must* wait; and the replay cannot
        // finish before the clock has crossed the last record's deadline,
        // so a completed run proves every deadline was honored.
        let clock = Arc::new(ManualClock::new());
        let mut paced = ReplayHarness::build(
            &records,
            2,
            1,
            2,
            4,
            512,
            [7u8; 32],
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let cfg = config(Pacing::TickPaced {
            nanos_per_tick: NANOS_PER_TICK,
        });
        let paced_waits = paced.paced_wait_counter();
        let done = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let report = ingest(&mut paced, &records, &cfg);
                done.store(true, Ordering::SeqCst);
                report.unwrap()
            });
            let mut answered = 0;
            while !done.load(Ordering::SeqCst) {
                let waits = paced_waits.load(Ordering::Relaxed);
                if waits > answered {
                    answered = waits;
                    clock.advance_nanos(NANOS_PER_TICK / 4);
                } else {
                    std::thread::yield_now();
                }
            }
            worker.join().unwrap()
        });

        assert!(report.paced_waits > 0, "open-loop replay never waited");
        assert!(
            clock.now_nanos() >= last_tick * NANOS_PER_TICK,
            "replay finished at {} ns, before the last deadline {} ns",
            clock.now_nanos(),
            last_tick * NANOS_PER_TICK
        );
        // Pacing changes *when* work is submitted, never what it computes.
        assert_eq!(report.endorsed(), baseline.endorsed());
        assert_eq!(report.quota_rejected, baseline.quota_rejected);
        assert_eq!(report.submitted, baseline.submitted);
    }
}
