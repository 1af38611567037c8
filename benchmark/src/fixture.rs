//! What every workload shares: the gateway under test in its fixed
//! configuration, the device side of a session, and the checks each reply
//! must pass.

use crate::gen::{DeviceStream, Planned, APP, ROUND};
use crate::spec::SPAN_NAMES;
use crate::stats::{percentile, QUIET_TIME};
use crate::trace::{SpanName, Tracer};
use glimmer_core::blinding::MaskShare;
use glimmer_core::host::GlimmerDescriptor;
use glimmer_core::protocol::{
    BatchOutcome, Contribution, ContributionPayload, EndorsedContribution, PrivateData,
    ProcessResponse,
};
use glimmer_core::remote::IotDeviceSession;
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_crypto::drbg::Drbg;
use glimmer_federated::fixed::{add_vectors, encode_weights};
use glimmer_gateway::telemetry::AdmitReason;
use glimmer_gateway::{
    Gateway, GatewayConfig, NetConfig, SnapshotChain, TenantConfig, TenantQuota,
};
use sgx_sim::AttestationService;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

// The enclave refuses a session's request past this many (it remembers
// every nonce for replay protection); a run that reached it would turn
// into "reopen it" failures instead of measurements.
use glimmer_core::enclave_app::MAX_NONCES_PER_SESSION;

/// One endorsement in this many is signature-verified after the run.
const VERIFY_ONE_IN: u64 = 64;

/// The program under test is built from these fixed seeds, never from
/// `--seed`: restore needs the same machine identity (`GATEWAY_SEED`) and
/// comparisons need the same gateway on both sides.
const MATERIAL_SEED: [u8; 32] = [71; 32];
const AVS_SEED: [u8; 32] = [72; 32];
const GATEWAY_SEED: [u8; 32] = [83; 32];

/// The fixed configuration of every workload: one shard, batches of 256,
/// default `NetConfig` cadence, telemetry on. `idle_timeout` sits above
/// the longest phase so the front door never hangs up on a waiting client.
pub fn gateway_config(slots: usize, seconds: f64) -> GatewayConfig {
    GatewayConfig {
        slots_per_tenant: slots,
        shards: 1,
        max_batch: 256,
        net: NetConfig {
            idle_timeout: Some(Duration::from_secs_f64(seconds + 120.0)),
            ..NetConfig::default()
        },
        ..GatewayConfig::default()
    }
}

/// The gateway under test plus what its operator and devices hold.
pub struct Deployment {
    pub config: GatewayConfig,
    pub avs: AttestationService,
    pub material: ServiceKeyMaterial,
    pub gateway: Gateway,
}

impl Deployment {
    pub fn build(config: GatewayConfig) -> Result<Self, String> {
        let material = ServiceKeyMaterial::generate(&mut Drbg::from_seed(MATERIAL_SEED))
            .map_err(|e| format!("service key: {e}"))?;
        let mut avs = AttestationService::new(AVS_SEED);
        let gateway = Gateway::new(
            config.clone(),
            tenants(&material),
            &mut avs,
            &mut Drbg::from_seed(GATEWAY_SEED),
        )
        .map_err(|e| format!("gateway start-up: {e}"))?;
        Ok(Deployment {
            config,
            avs,
            material,
            gateway,
        })
    }
}

/// One tenant, quotas sized so admission never refuses: a refusal is a
/// failure of the run, not a thing the workloads probe.
fn tenants(material: &ServiceKeyMaterial) -> Vec<TenantConfig> {
    vec![TenantConfig {
        quota: TenantQuota {
            max_sessions: 4096,
            max_queued: 16384,
            endorsement_budget: None,
        },
        ..TenantConfig::new(
            APP,
            GlimmerDescriptor::iot_default(Vec::new()),
            material.secret_bytes(),
        )
    }]
}

/// `Gateway::restore_chain` of `chain` on the machine the deployment was
/// built on: the serve-ready gateway and the call's wall time in
/// milliseconds, the arguments built outside the timed call.
pub fn timed_restore(
    config: &GatewayConfig,
    material: &ServiceKeyMaterial,
    avs: &mut AttestationService,
    chain: SnapshotChain<'_>,
) -> Result<(Gateway, f64), String> {
    let (config, tenants) = (config.clone(), tenants(material));
    // The machine identity restore must be given again.
    let mut rng = Drbg::from_seed(GATEWAY_SEED);
    let start = Instant::now();
    let restored = Gateway::restore_chain(config, tenants, chain, avs, &mut rng);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    restored
        .map(|gateway| (gateway, elapsed_ms))
        .map_err(|e| format!("restore_chain: {e}"))
}

/// Runs `set_up` `SETUP_REPEATS` times, tearing all but the last down
/// again, and returns the last stage with `setup_s`: the quiet quartile of
/// the set-up times, so one disturbed start does not decide it. The first
/// is timed from `process_start`.
pub fn set_up_repeated<S>(
    process_start: Instant,
    mut set_up: impl FnMut() -> Result<S, String>,
    mut tear_down: impl FnMut(S) -> Result<(), String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::new();
    let mut started = process_start;
    loop {
        let stage = set_up()?;
        times.push(started.elapsed().as_secs_f64());
        if times.len() == crate::SETUP_REPEATS {
            return Ok((stage, percentile(&mut times, QUIET_TIME)));
        }
        tear_down(stage)?;
        started = Instant::now();
    }
}

/// A contribution in flight and what the generator expects back.
pub struct Pending {
    /// Fixed-point encoding of the plaintext samples, `None` when the
    /// contribution is deliberately out of range and must be rejected.
    pub expect: Option<Vec<u64>>,
}

/// The device side of one established session.
pub struct Device {
    pub sid: u64,
    pub stream: DeviceStream,
    pub session: IotDeviceSession,
    pub mask: MaskShare,
    pub pending: VecDeque<Pending>,
}

impl Device {
    pub fn new(sid: u64, stream: DeviceStream, session: IotDeviceSession, mask: MaskShare) -> Self {
        Device {
            sid,
            stream,
            session,
            mask,
            pending: VecDeque::new(),
        }
    }

    /// Generates and seals the next contribution (span `device.encrypt`)
    /// and remembers what reply it should earn.
    pub fn next_request(&mut self, tracer: &mut Tracer, parent: u32, request: u64) -> Vec<u8> {
        let planned = self.stream.next();
        self.seal(planned, tracer, parent, request)
    }

    /// [`Device::next_request`] for a contribution the caller drew itself.
    pub fn seal(
        &mut self,
        planned: Planned,
        tracer: &mut Tracer,
        parent: u32,
        request: u64,
    ) -> Vec<u8> {
        // A mis-sized run, not a gateway failure: stop with the reason
        // rather than measure a stream of "reopen it" refusals.
        assert!(
            self.stream.sent as usize <= MAX_NONCES_PER_SESSION,
            "session {} passed the enclave's {MAX_NONCES_PER_SESSION}-request cap: \
             use more sessions or a shorter run",
            self.sid
        );
        let Planned { samples, honest } = planned;
        self.pending.push_back(Pending {
            expect: honest.then(|| encode_weights(&samples)),
        });
        let contribution = Contribution {
            app_id: APP.to_string(),
            client_id: self.stream.client_id,
            round: ROUND,
            payload: ContributionPayload::IotReadings { samples },
        };
        tracer.time(SpanName::DeviceEncrypt, parent, request, || {
            self.session
                .encrypt_request(contribution, PrivateData::None)
        })
    }
}

/// Counts of what a thread attempted and what went wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub endorsed: u64,
    pub rejected: u64,
    /// Endorsements kept aside for signature verification after the run
    /// (a verify costs as much as four requests, so not on the timed path).
    pub sampled: Vec<EndorsedContribution>,
    /// The first few failures, worded, so a broken run explains itself.
    pub problems: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why.into());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.endorsed += other.endorsed;
        self.rejected += other.rejected;
        self.sampled.extend(other.sampled);
        for problem in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(problem);
            }
        }
    }

    /// Verifies the sampled endorsements under the tenant's key.
    pub fn verify_sampled(&mut self, material: &ServiceKeyMaterial) {
        let verifier = material.verifier();
        for endorsement in std::mem::take(&mut self.sampled) {
            if let Err(e) = verifier.verify(&endorsement) {
                self.fail(format!("endorsement signature: {e}"));
            }
        }
    }
}

/// Opens one reply (span `device.decrypt`) and checks it against the
/// oldest pending contribution of `device`: it must decrypt under the
/// session key and be exactly the outcome the generator planned —
/// `Endorsed` for this client and round whose blinded vector unblinds to
/// the plaintext, or `Rejected` for an out-of-range contribution — with
/// the public endorsed bit agreeing. Returns the released blinded vector
/// of a correct endorsement.
pub fn check_reply(
    device: &mut Device,
    outcome: &BatchOutcome,
    tally: &mut Tally,
    tracer: &mut Tracer,
    parent: u32,
    request: u64,
) -> Option<Vec<u64>> {
    tally.attempted += 1;
    let Some(pending) = device.pending.pop_front() else {
        tally.fail(format!(
            "session {} got a reply it was not owed",
            device.sid
        ));
        return None;
    };
    let BatchOutcome::Reply {
        ciphertext,
        endorsed: public_bit,
    } = outcome
    else {
        tally.fail(format!("session {}: {outcome:?}", device.sid));
        return None;
    };
    let response = tracer.time(SpanName::DeviceDecrypt, parent, request, || {
        device.session.decrypt_response(ciphertext)
    });
    match (response, pending.expect) {
        (Ok(ProcessResponse::Endorsed(endorsement)), Some(plain)) => {
            let blinded = endorsement.blinded_vector().unwrap_or_default();
            if !*public_bit
                || !endorsement.blinded
                || endorsement.app_id != APP
                || endorsement.client_id != device.stream.client_id
                || endorsement.round != ROUND
                || device.mask.unblind(&blinded) != plain
            {
                tally.fail(format!(
                    "session {}: endorsement does not match",
                    device.sid
                ));
                return None;
            }
            tally.endorsed += 1;
            if tally.endorsed % VERIFY_ONE_IN == 1 {
                tally.sampled.push(endorsement);
            }
            return Some(blinded);
        }
        (Ok(ProcessResponse::Rejected { .. }), None) if !*public_bit => tally.rejected += 1,
        (Ok(other), expect) => tally.fail(format!(
            "session {}: expected {}, got {}",
            device.sid,
            if expect.is_some() {
                "Endorsed"
            } else {
                "Rejected"
            },
            match other {
                ProcessResponse::Endorsed(_) => "Endorsed".to_string(),
                ProcessResponse::Rejected { reason } => format!("Rejected ({reason})"),
            }
        )),
        (Err(e), _) => tally.fail(format!(
            "session {}: reply did not decrypt: {e}",
            device.sid
        )),
    }
    None
}

/// The zero-sum property of one mask group, checked on real replies: the
/// released blinded vectors of every member must sum (mod 2^64) to the sum
/// of the members' plaintexts, because the group's masks cancel.
pub struct ZeroSum {
    blinded: Vec<u64>,
    plain: Vec<u64>,
    members: usize,
}

impl ZeroSum {
    pub fn new(dim: usize) -> Self {
        ZeroSum {
            blinded: vec![0; dim],
            plain: vec![0; dim],
            members: 0,
        }
    }

    pub fn add(&mut self, blinded: &[u64], plain: &[u64]) {
        self.blinded = add_vectors(&self.blinded, blinded);
        self.plain = add_vectors(&self.plain, plain);
        self.members += 1;
    }

    /// True when all `group_size` members were added and the sums agree.
    pub fn holds(&self, group_size: usize) -> bool {
        self.members == group_size && self.blinded == self.plain
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    /// Every metric the run computed, end-to-end and per-layer alike; the
    /// caller prints the ones the mode asks for.
    pub metrics: Vec<(&'static str, f64)>,
    pub tracers: Vec<Tracer>,
}

/// The gateway's public counters at one instant; two of them subtract to
/// what a timed region cost. Everything comes from `Gateway::stats()` and
/// `Gateway::telemetry()`, the same accessors an operator has.
#[derive(Clone, Default)]
pub struct Counters {
    pub endorsed: u64,
    pub rejected: u64,
    pub items: u64,
    pub batches: u64,
    pub drain_nanos: u64,
    pub drain_cycles: u64,
    pub ecalls: u64,
    pub admission_rejected: u64,
    pub queue_wait: (u64, u64),
    pub ecall: (u64, u64),
    pub poll: (u64, u64),
    pub wake: (u64, u64),
    pub timer_fires: u64,
    pub frames_in: u64,
    pub frames_out: u64,
    pub connections_accepted: u64,
    pub connections_closed: u64,
    pub slots_exported: u64,
    pub slots_skipped: u64,
}

impl Counters {
    pub fn read(gateway: &Gateway) -> Self {
        let stats = gateway.stats();
        let telemetry = gateway.telemetry();
        let slot_sum = |f: fn(&glimmer_gateway::SlotStats) -> u64| -> u64 {
            stats.slots.iter().map(|row| f(&row.stats)).sum()
        };
        let histogram = |h: &glimmer_gateway::HistogramSnapshot| (h.count, h.sum);
        Counters {
            endorsed: stats.tenants.iter().map(|(_, t)| t.endorsed).sum(),
            rejected: stats.tenants.iter().map(|(_, t)| t.rejected).sum(),
            items: slot_sum(|s| s.items),
            batches: slot_sum(|s| s.batches),
            drain_nanos: slot_sum(|s| s.drain_nanos),
            drain_cycles: slot_sum(|s| s.drain_cycles),
            ecalls: slot_sum(|s| s.ecalls),
            admission_rejected: telemetry
                .admission
                .iter()
                .filter(|(reason, _)| *reason != AdmitReason::Accepted)
                .map(|(_, n)| n)
                .sum(),
            queue_wait: histogram(&telemetry.queue_wait_nanos),
            ecall: histogram(&telemetry.ecall_nanos),
            poll: histogram(&telemetry.executor_poll_nanos),
            wake: histogram(&telemetry.executor_wake_nanos),
            timer_fires: telemetry.executor_timer_fires,
            frames_in: telemetry.net_frames_in,
            frames_out: telemetry.net_frames_out,
            connections_accepted: telemetry.net_connections_accepted,
            connections_closed: telemetry.net_connections_closed,
            slots_exported: telemetry.checkpoint_slots_exported,
            slots_skipped: telemetry.checkpoint_slots_skipped,
        }
    }
}

/// Mean of a histogram's observations between two reads, in microseconds.
fn mean_us(before: (u64, u64), after: (u64, u64)) -> f64 {
    let count = after.0.saturating_sub(before.0);
    let sum = after.1.wrapping_sub(before.1);
    crate::stats::ratio(sum as f64 / 1e3, count as f64)
}

/// Everything a workload run measured, in one place: the only code that
/// binds a measured value to a metric name of `spec.rs`.
pub struct Summary {
    pub setup_s: f64,
    pub endorse_per_s: f64,
    pub wait_p50_ms: f64,
    pub wait_p90_ms: f64,
    /// Every wait of the run in milliseconds, for the ungated p99.
    pub waits: Vec<f64>,
    pub checkpoint_p50_ms: f64,
    pub restore_ms: f64,
    pub delta_bytes: Vec<f64>,
    /// The gateway's counters around the checkpointing region…
    pub housekeeping: (Counters, Counters),
    /// …and around the serving region, `serving_s` seconds of wall apart.
    pub serving: (Counters, Counters),
    pub serving_s: f64,
    /// Admission refusals over the gateway's whole life; must be 0.
    pub admission_rejected: u64,
    /// Σ self time per span name, and the requests it is spread over.
    pub span_self_ns: [u64; SPAN_NAMES.len()],
    pub span_requests: f64,
    pub device_busy_fraction: f64,
    /// `None` where the path is not serial and spans need not add up.
    pub unaccounted_fraction: Option<f64>,
}

impl Summary {
    /// Every metric by name, end-to-end and per-layer alike; the caller
    /// prints the ones its mode asks for. `traced` says whether spans were
    /// on, i.e. whether the throughput is the traced run's.
    pub fn metrics(mut self, traced: bool) -> Vec<(&'static str, f64)> {
        use crate::stats::{mean, percentile, ratio};
        let (before, after) = &self.housekeeping;
        let mut metrics = vec![
            ("setup_s", self.setup_s),
            ("endorse_per_s", self.endorse_per_s),
            ("wait_p50_ms", self.wait_p50_ms),
            ("wait_p90_ms", self.wait_p90_ms),
            ("checkpoint_p50_ms", self.checkpoint_p50_ms),
            ("restore_ms", self.restore_ms),
            ("wait_p99_ms", percentile(&mut self.waits, 0.99)),
            ("wait_samples", self.waits.len() as f64),
            (
                "traced_endorse_per_s",
                if traced { self.endorse_per_s } else { 0.0 },
            ),
            ("gateway.admission_rejected", self.admission_rejected as f64),
            (
                "checkpoint.slots_exported",
                (after.slots_exported - before.slots_exported) as f64,
            ),
            (
                "checkpoint.slots_skipped",
                (after.slots_skipped - before.slots_skipped) as f64,
            ),
            ("checkpoint.delta_bytes_mean", mean(&self.delta_bytes)),
            ("device.busy_fraction", self.device_busy_fraction),
            (
                "ledger.unaccounted_fraction",
                self.unaccounted_fraction.unwrap_or(0.0),
            ),
        ];
        metrics.extend(layer_metrics(
            &self.serving.0,
            &self.serving.1,
            self.serving_s,
        ));
        for (span, self_ns) in crate::spec::TRACED.iter().zip(self.span_self_ns) {
            metrics.push((span.name, ratio(self_ns as f64 / 1e3, self.span_requests)));
        }
        metrics
    }
}

/// The counter-derived per-layer metrics of a timed region `wall_s` long.
fn layer_metrics(before: &Counters, after: &Counters, wall_s: f64) -> Vec<(&'static str, f64)> {
    use crate::stats::ratio;
    let items = (after.items - before.items) as f64;
    vec![
        (
            "gateway.queue_wait_mean_us",
            mean_us(before.queue_wait, after.queue_wait),
        ),
        (
            "gateway.batch_size_mean",
            ratio(items, (after.batches - before.batches) as f64),
        ),
        (
            "gateway.drain_busy_fraction",
            ratio(
                (after.drain_nanos - before.drain_nanos) as f64 / 1e9,
                wall_s,
            ),
        ),
        ("pool.ecall_mean_us", mean_us(before.ecall, after.ecall)),
        (
            "sgx.ecalls_per_request",
            ratio((after.ecalls - before.ecalls) as f64, items),
        ),
        (
            "sgx.cycles_per_request",
            ratio((after.drain_cycles - before.drain_cycles) as f64, items),
        ),
        (
            "net.frames_in_per_request",
            ratio((after.frames_in - before.frames_in) as f64, items),
        ),
        (
            "net.frames_out_per_request",
            ratio((after.frames_out - before.frames_out) as f64, items),
        ),
        ("frontend.poll_mean_us", mean_us(before.poll, after.poll)),
        (
            "frontend.wake_to_poll_mean_us",
            mean_us(before.wake, after.wake),
        ),
        (
            "frontend.timer_fires_per_s",
            ratio((after.timer_fires - before.timer_fires) as f64, wall_s),
        ),
    ]
}
