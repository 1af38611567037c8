//! `checkpoint_serve`: the gateway driven in-process, no socket and no
//! executor, with writes beside reads — batched serving interleaved with
//! delta checkpoints, then whole-chain restores and a post-restore serve.
//!
//! The run is a sequence of identical cycles, as many as fit in
//! `--seconds`. A cycle is one full `checkpoint()`, then four epochs of
//! two iterations each — an iteration is `submit_batch(256)`, `drain_all`
//! and a chained `checkpoint_delta`, with traffic confined to two of the
//! eight slots, rotating per epoch — then three `restore_chain` calls over
//! the cycle's chain of eight deltas. Every cycle has the same
//! shape, so a faster gateway runs more cycles, not different ones.

use crate::fixture::{
    check_reply, gateway_config, set_up_repeated, timed_restore, Counters, Deployment, Device,
    Outcome, Summary, Tally, ZeroSum,
};
use crate::gen::{self, DeviceStream, APP, BAD_PER_MILLE, ROUND, SMALL_DIM};
use crate::stats::{percentile, ratio, windowed_percentile, QUIET_RATE};
use crate::trace::{summarize, SpanName, Tracer, NO_PARENT};
use crate::Opts;
use glimmer_core::blinding::BlindingService;
use glimmer_core::protocol::BatchOutcome;
use glimmer_core::remote::IotDeviceSession;
use glimmer_federated::fixed::encode_weights;
use glimmer_gateway::{Gateway, GatewayDelta, GatewayResponse, SnapshotChain};
use std::collections::HashMap;
use std::time::Instant;

const SLOTS: usize = 8;
const SESSIONS: usize = 128;
const BATCH: usize = 256;
/// Slots that take traffic in one epoch; the rest stay clean, which is
/// what lets `checkpoint_delta` skip them.
const ACTIVE_SLOTS: usize = 2;
const ITERATIONS_PER_EPOCH: usize = 2;
/// One cycle rotates the active pair once around the pool.
const EPOCHS_PER_CYCLE: usize = SLOTS / ACTIVE_SLOTS;
const RESTORES_PER_CYCLE: usize = 3;
/// The waits are summarised per window of one cycle's iterations.
const WAITS_PER_WINDOW: usize = EPOCHS_PER_CYCLE * ITERATIONS_PER_EPOCH;

struct Stage {
    deployment: Deployment,
    devices: Vec<Device>,
    by_sid: HashMap<u64, usize>,
    /// Device indices per pool slot.
    by_slot: Vec<Vec<usize>>,
}

impl Stage {
    fn set_up(opts: &Opts) -> Result<Self, String> {
        let deployment = Deployment::build(gateway_config(SLOTS, opts.seconds))?;
        let gateway = &deployment.gateway;
        let approved = gateway.measurement(APP).map_err(|e| e.to_string())?;
        let client_ids: Vec<u64> = (0..SESSIONS as u64).collect();
        let masks = BlindingService::new(gen::mask_seed(opts.seed, opts.workload)).zero_sum_masks(
            ROUND,
            &client_ids,
            SMALL_DIM,
        );
        let mut rng = gen::drbg(opts.seed, opts.workload, 0);
        let mut stage = Stage {
            devices: Vec::new(),
            by_sid: HashMap::new(),
            by_slot: vec![Vec::new(); SLOTS],
            deployment,
        };
        for mask in masks {
            let gateway = &stage.deployment.gateway;
            let (sid, offer) = gateway
                .open_session(APP)
                .map_err(|e| format!("open_session: {e}"))?;
            let (accept, session) =
                IotDeviceSession::connect(&offer, &stage.deployment.avs, &approved, &mut rng)
                    .map_err(|e| format!("device handshake: {e}"))?;
            gateway
                .complete_session(sid, &accept)
                .map_err(|e| format!("complete_session: {e}"))?;
            gateway
                .install_mask(sid, &mask)
                .map_err(|e| format!("install_mask: {e}"))?;
            let slot = gateway.session_slot(sid).map_err(|e| e.to_string())?;
            stage.by_slot[slot].push(stage.devices.len());
            stage.by_sid.insert(sid, stage.devices.len());
            let stream = DeviceStream::new(
                opts.seed,
                opts.workload,
                mask.client_id,
                SMALL_DIM,
                BAD_PER_MILLE,
            );
            stage.devices.push(Device::new(sid, stream, session, mask));
        }
        if stage.by_slot.iter().any(Vec::is_empty) {
            return Err("placement left a pool slot without sessions".to_string());
        }
        Ok(stage)
    }

    /// Seals one contribution from each of `count` picks, cycling through
    /// `from` (device indices).
    fn requests(
        &mut self,
        from: &[usize],
        count: usize,
        tracer: &mut Tracer,
        root: u32,
        request: u64,
    ) -> Vec<(u64, Vec<u8>)> {
        (0..count)
            .map(|k| {
                let device = &mut self.devices[from[k % from.len()]];
                (device.sid, device.next_request(tracer, root, request))
            })
            .collect()
    }

    /// Checks drained replies against what their devices expect; returns
    /// how many were correct.
    fn check(
        &mut self,
        replies: &[GatewayResponse],
        tally: &mut Tally,
        tracer: &mut Tracer,
        root: u32,
        request: u64,
    ) -> u64 {
        let failed = tally.failed;
        for reply in replies {
            match self.by_sid.get(&reply.session_id) {
                Some(&at) => {
                    check_reply(
                        &mut self.devices[at],
                        &reply.outcome,
                        tally,
                        tracer,
                        root,
                        request,
                    );
                }
                None => tally.fail(format!("reply for unknown session {}", reply.session_id)),
            }
        }
        replies.len() as u64 - (tally.failed - failed)
    }
}

/// `submit_batch` + `drain_all` on `gateway`, each under its span; returns
/// the replies and the wall time of the pair in milliseconds.
fn serve(
    gateway: &Gateway,
    requests: Vec<(u64, Vec<u8>)>,
    tracer: &mut Tracer,
    root: u32,
    request: u64,
) -> Result<(Vec<GatewayResponse>, f64), String> {
    let start = Instant::now();
    tracer
        .time(SpanName::GatewaySubmitBatch, root, request, || {
            gateway.submit_batch(requests)
        })
        .map_err(|e| format!("submit_batch: {e}"))?;
    let replies = tracer
        .time(SpanName::GatewayDrain, root, request, || {
            gateway.drain_all()
        })
        .map_err(|e| format!("drain_all: {e}"))?;
    Ok((replies, start.elapsed().as_secs_f64() * 1e3))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (mut stage, setup_s) = set_up_repeated(
        opts.process_start,
        || Stage::set_up(opts),
        |stage| {
            let shut = stage.deployment.gateway.shutdown();
            shut.map(|_| ()).map_err(|e| format!("pool shutdown: {e}"))
        },
    )?;

    let epoch = Instant::now();
    let mut tracer = Tracer::new(opts.trace, epoch);
    let mut off = Tracer::new(false, epoch);
    let mut tally = Tally::default();
    let everyone: Vec<usize> = (0..SESSIONS).collect();

    // Warm-up, untimed: one request per session fills every slot's state,
    // gives the zero-sum group its one contribution per member, and leaves
    // a ciphertext that predates every checkpoint for the replay check.
    let mut group = ZeroSum::new(SMALL_DIM);
    let mut warm = Vec::new();
    let mut plains = HashMap::new();
    for device in &mut stage.devices {
        let planned = device.stream.next_honest();
        plains.insert(device.sid, encode_weights(&planned.samples));
        warm.push((device.sid, device.seal(planned, &mut off, NO_PARENT, 0)));
    }
    let replayed = warm[0].clone();
    let (replies, _) = serve(&stage.deployment.gateway, warm, &mut off, NO_PARENT, 0)?;
    for reply in &replies {
        let at = stage.by_sid[&reply.session_id];
        if let Some(blinded) = check_reply(
            &mut stage.devices[at],
            &reply.outcome,
            &mut tally,
            &mut off,
            NO_PARENT,
            0,
        ) {
            group.add(&blinded, &plains[&reply.session_id]);
        }
    }
    if !group.holds(SESSIONS) {
        tally.fail("the zero-sum mask group's released vectors do not sum to the plaintexts");
    }

    let before = Counters::read(&stage.deployment.gateway);
    let mut loop_s = 0.0;
    let mut served = 0u64;
    let mut epoch_rates = Vec::new();
    let mut waits = Vec::new();
    let mut delta_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut delta_bytes = Vec::new();
    let mut iteration = 0u64;
    while epoch.elapsed().as_secs_f64() < opts.seconds {
        // --- Serving beside checkpoints: the timed loop. ---
        let cycle_start = Instant::now();
        let gateway = &stage.deployment.gateway;
        let full = gateway
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        let mut base = full.chain_base();
        let mut deltas: Vec<GatewayDelta> = Vec::new();
        for turn in 0..EPOCHS_PER_CYCLE {
            // The cycle's full checkpoint falls into its first epoch.
            let (epoch_start, served_before) = (
                if turn == 0 {
                    cycle_start
                } else {
                    Instant::now()
                },
                served,
            );
            let active: Vec<usize> = (0..ACTIVE_SLOTS)
                .flat_map(|k| stage.by_slot[(turn * ACTIVE_SLOTS + k) % SLOTS].clone())
                .collect();
            for _ in 0..ITERATIONS_PER_EPOCH {
                iteration += 1;
                let root = tracer.open(SpanName::Request, NO_PARENT, iteration);
                let requests = stage.requests(&active, BATCH, &mut tracer, root, iteration);
                let (replies, wait) = serve(
                    &stage.deployment.gateway,
                    requests,
                    &mut tracer,
                    root,
                    iteration,
                )?;
                waits.push(wait);
                served += stage.check(&replies, &mut tally, &mut tracer, root, iteration);
                let start = Instant::now();
                let delta = tracer
                    .time(SpanName::GatewayCheckpointDelta, root, iteration, || {
                        stage.deployment.gateway.checkpoint_delta(&base)
                    })
                    .map_err(|e| format!("checkpoint_delta: {e}"))?;
                delta_ms.push(start.elapsed().as_secs_f64() * 1e3);
                tracer.close(root);
                base = delta.chain_base();
                deltas.push(delta);
            }
            epoch_rates.push((served - served_before) as f64 / epoch_start.elapsed().as_secs_f64());
        }
        loop_s += cycle_start.elapsed().as_secs_f64();

        // --- Restore the whole chain to serve-ready, outside the loop. ---
        delta_bytes.extend(deltas.iter().map(|d| d.to_bytes().len() as f64));
        for nth in 0..RESTORES_PER_CYCLE {
            let chain = SnapshotChain {
                base: &full,
                deltas: &deltas,
            };
            let deployment = &mut stage.deployment;
            let span = tracer.open(SpanName::GatewayRestoreChain, NO_PARENT, iteration);
            let (restored, elapsed_ms) = timed_restore(
                &deployment.config,
                &deployment.material,
                &mut deployment.avs,
                chain,
            )?;
            tracer.close(span);
            restore_ms.push(elapsed_ms);
            if nth == 0 {
                // The restored gateway must serve every session with the
                // keys the devices already hold, and must still remember
                // the nonces it saw before the checkpoint.
                let requests = stage.requests(&everyone, SESSIONS, &mut off, NO_PARENT, 0);
                let (replies, _) = serve(&restored, requests, &mut off, NO_PARENT, 0)?;
                if replies.len() != SESSIONS {
                    tally.fail(format!(
                        "restored gateway answered {} of {SESSIONS}",
                        replies.len()
                    ));
                }
                stage.check(&replies, &mut tally, &mut off, NO_PARENT, 0);
                let (replies, _) =
                    serve(&restored, vec![replayed.clone()], &mut off, NO_PARENT, 0)?;
                tally.attempted += 1;
                let refused = matches!(
                    replies.first().map(|r| &r.outcome),
                    Some(BatchOutcome::Failed(reason)) if reason.contains("replay")
                );
                if !refused {
                    tally.fail("restored gateway accepted a replayed pre-checkpoint ciphertext");
                }
            }
            restored
                .shutdown()
                .map_err(|e| format!("restored pool shutdown: {e}"))?;
        }
    }
    let after = Counters::read(&stage.deployment.gateway);

    tally.verify_sampled(&stage.deployment.material);
    if after.admission_rejected > 0 {
        tally.fail(format!(
            "admission refused {} operations",
            after.admission_rejected
        ));
    }
    // The original gateway served the warm-up and the loop; the restored
    // ones kept their own counts.
    let expected = SESSIONS as u64 + iteration * BATCH as u64;
    if after.items != expected {
        tally.fail(format!(
            "gateway drained {} items, the generator sent {expected}",
            after.items
        ));
    }

    let tracers = vec![tracer];
    let spans = summarize(&tracers);
    // On this serial path the spans must add up: what the loop's wall time
    // holds beyond the layer spans (restores run outside the loop) is the
    // benchmark's own bookkeeping plus the cycle's one full checkpoint.
    let in_loop: u64 = spans.self_ns[..SpanName::GatewayRestoreChain as usize]
        .iter()
        .sum();
    // Quiet quartiles over epochs and over windows of iterations (see
    // `stats::QUIET_TIME`): a disturbed stretch does not set the figure.
    let summary = Summary {
        setup_s,
        endorse_per_s: percentile(&mut epoch_rates, QUIET_RATE),
        wait_p50_ms: windowed_percentile(&waits, 0.5, WAITS_PER_WINDOW, usize::MAX),
        wait_p90_ms: windowed_percentile(&waits, 0.9, WAITS_PER_WINDOW, usize::MAX),
        waits,
        checkpoint_p50_ms: windowed_percentile(&delta_ms, 0.5, WAITS_PER_WINDOW, usize::MAX),
        restore_ms: windowed_percentile(&restore_ms, 0.5, RESTORES_PER_CYCLE, usize::MAX),
        delta_bytes,
        housekeeping: (before.clone(), after.clone()),
        serving: (before, after.clone()),
        serving_s: loop_s,
        admission_rejected: after.admission_rejected,
        span_self_ns: spans.self_ns,
        span_requests: served as f64,
        device_busy_fraction: ratio(spans.device_ns as f64 / 1e9, loop_s),
        unaccounted_fraction: opts
            .trace
            .then(|| 1.0 - ratio(in_loop as f64 / 1e9, loop_s)),
    };
    let metrics = summary.metrics(opts.trace);
    stage
        .deployment
        .gateway
        .shutdown()
        .map_err(|e| format!("pool shutdown: {e}"))?;
    Ok(Outcome {
        tally,
        metrics,
        tracers,
    })
}
