//! E13: the batched, allocation-lean hot path.

use crate::rig::{self, Rig};
use glimmer_crypto::drbg::Drbg;
use glimmer_wire::Encoder;
use std::time::Instant;

/// One row of the E13 batched-hot-path experiment: identical traffic served
/// through a different admission path.
#[derive(Debug, Clone)]
pub struct E13Row {
    /// Which admission path produced the row: `"submit"` (per-request
    /// baseline), `"submit_many"` (one call per session), or
    /// `"submit_batch"` (bulk-producer chunks of `batch`).
    pub mode: &'static str,
    /// Requests admitted per call (1 for the baseline; `requests_per_session`
    /// for `submit_many`; the chunk size for `submit_batch`).
    pub batch: usize,
    /// Concurrent established sessions.
    pub sessions: usize,
    /// Total requests served.
    pub requests: usize,
    /// Requests that produced endorsements (identical across rows).
    pub endorsed: usize,
    /// Shard-queue submit commands the path issued (`GatewayStats::submit_commands`).
    pub submit_commands: u64,
    /// Baseline commands divided by this row's commands (1.0 for the baseline).
    pub command_reduction: f64,
    /// Simulated enclave cycles across all drains — bit-identical across
    /// rows at `shards: 1`: batching admission moves requests in bigger
    /// groups, it never changes what the enclaves compute.
    pub total_drain_cycles: u64,
    /// Wall-clock ms spent in submit + drain.
    pub serve_ms: f64,
    /// Endorsements per wall-clock second.
    pub endorse_per_s: f64,
    /// Heap allocations per request inside the whole submit+drain region.
    /// Zero unless the harness was built with `count-allocs` (see
    /// [`crate::alloc_track`]).
    pub allocs_per_req: f64,
    /// Heap allocations per request attributable to admission alone (the
    /// submit region): this is where batching shows up directly — the
    /// per-request path pays at least one channel-node allocation per
    /// request, the batched paths a handful per call. Zero unless
    /// `count-allocs`.
    pub submit_allocs_per_req: f64,
    /// Heap allocations per request in the drain region (identical across
    /// rows: the drain path does not depend on how admission was grouped).
    /// Zero unless `count-allocs`.
    pub drain_allocs_per_req: f64,
}

/// Runs E13: the same single-tenant workload admitted per-request
/// (`submit`), per-session (`submit_many`), and in bulk-producer chunks
/// (`submit_batch` over [`glimmer_workloads::gateway::GatewayTrafficWorkload::schedule_chunks`]-style
/// windows), always at `shards: 1` so the drain-cycle determinism bar is
/// checkable bit-for-bit.
///
/// Every row rebuilds the gateway from identical seeds, so enclaves,
/// handshakes, placement, and ciphertexts are bit-identical; the rows can
/// only differ in how admission is grouped. The allocation column needs the
/// `count-allocs` feature; without it the column reads zero and only the
/// command/cycle metrics are meaningful.
#[must_use]
pub fn e13_batched_hot_path(
    sessions: usize,
    requests_per_session: usize,
    chunk_sizes: &[usize],
    slots: usize,
    seed: [u8; 32],
) -> Vec<E13Row> {
    use crate::alloc_track::AllocSnapshot;

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
    let workload = &rig.workload;

    let run = |mode: &'static str, batch: usize, baseline_commands: Option<u64>| -> E13Row {
        let mut rng = rng.clone();
        let mut avs = rig::attestation([19u8; 32]);
        // The determinism bar: cycles must be bit-identical, so E13 always
        // runs the single-shard deterministic mode.
        let gateway = rig.gateway(rig.config(slots, 1), &mut avs, &mut rng);
        let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);

        // Pre-encrypt the whole schedule, in schedule order for every row
        // (identical device rng consumption, hence identical ciphertexts),
        // so the measured region isolates the gateway's hot path.
        let encrypted = rig.encrypt(&mut device_sessions, rig.schedule(0..requests_per_session));

        let allocs_before = AllocSnapshot::now();
        let serve_start = Instant::now();
        match mode {
            "submit" => {
                for (sid, ciphertext) in encrypted {
                    gateway.submit(sid, ciphertext).unwrap();
                }
            }
            "submit_many" => {
                // One call per session: group each device's stream. The
                // per-slot request multiset is unchanged, so drain cycles
                // stay bit-identical even though arrival interleaving is
                // session-major here.
                let mut per_session: Vec<(u64, Vec<Vec<u8>>)> = device_sessions
                    .iter()
                    .map(|(sid, _)| (*sid, Vec::with_capacity(requests_per_session)))
                    .collect();
                for (sid, ciphertext) in encrypted {
                    let group = per_session
                        .iter_mut()
                        .find(|(candidate, _)| *candidate == sid)
                        .expect("every ciphertext belongs to an opened session");
                    group.1.push(ciphertext);
                }
                for (sid, group) in per_session {
                    gateway.submit_many(sid, group).unwrap();
                }
            }
            "submit_batch" => {
                // The bulk-producer path: the workload's arrival schedule is
                // chopped into submission windows and each window becomes
                // one submit_batch call. `encrypted` is in schedule order,
                // so zipping the two streams pairs every window with its
                // ciphertexts.
                let mut iter = encrypted.into_iter();
                for window in workload.schedule_chunks(batch) {
                    let mut chunk: Vec<(u64, Vec<u8>)> = Vec::with_capacity(window.len());
                    chunk.extend(iter.by_ref().take(window.len()));
                    gateway.submit_batch(chunk).unwrap();
                }
            }
            other => panic!("unknown E13 mode {other}"),
        }
        let allocs_submitted = AllocSnapshot::now();
        let responses = gateway.drain_all().unwrap();
        let serve_elapsed = serve_start.elapsed().as_secs_f64();
        let allocs_after = AllocSnapshot::now();

        let endorsed = rig::endorsed(&responses);
        let stats = gateway.stats();
        let requests = workload.total_requests();
        E13Row {
            mode,
            batch,
            sessions,
            requests,
            endorsed,
            submit_commands: stats.submit_commands,
            command_reduction: baseline_commands.map_or(1.0, |base| {
                base as f64 / stats.submit_commands.max(1) as f64
            }),
            total_drain_cycles: stats.total_drain_cycles(),
            serve_ms: serve_elapsed * 1e3,
            endorse_per_s: endorsed as f64 / serve_elapsed.max(1e-9),
            allocs_per_req: allocs_after.allocations_since(&allocs_before) as f64
                / requests.max(1) as f64,
            submit_allocs_per_req: allocs_submitted.allocations_since(&allocs_before) as f64
                / requests.max(1) as f64,
            drain_allocs_per_req: allocs_after.allocations_since(&allocs_submitted) as f64
                / requests.max(1) as f64,
        }
    };

    let baseline = run("submit", 1, None);
    let baseline_commands = baseline.submit_commands;
    let mut rows = vec![baseline];
    rows.push(run(
        "submit_many",
        requests_per_session,
        Some(baseline_commands),
    ));
    for &batch in chunk_sizes {
        rows.push(run("submit_batch", batch, Some(baseline_commands)));
    }
    rows
}

/// Measures the drain-path *buffer discipline* in isolation: the allocator
/// calls made by `sweeps` encode+decode rounds of a `batch`-item drain, with
/// the PR 2 one-shot buffers (a fresh held-items container, a fresh wire
/// encoder, and a fresh `BatchReply` per sweep) versus the current reusable
/// scratch (`Encoder::reset` via
/// [`glimmer_core::protocol::BatchRequest::encode_items_into`] plus
/// [`glimmer_core::protocol::BatchReply::decode_items_into`]).
///
/// Both disciplines pay the per-item reply-ciphertext allocations (replies
/// are owned by the caller either way), so the difference is exactly the
/// per-sweep container churn the scratch eliminates. Returns `(one_shot,
/// scratch)` allocation counts — both zero unless the harness was built
/// with `count-allocs`. The full-pipeline allocation columns of
/// [`e13_batched_hot_path`] are dominated by enclave crypto; this is the
/// isolated measurement that makes the scratch-reuse drop visible.
#[must_use]
pub fn e13_drain_buffer_churn(batch: usize, sweeps: usize) -> (u64, u64) {
    use crate::alloc_track::AllocSnapshot;
    use glimmer_core::protocol::{
        BatchItem, BatchOutcome, BatchReply, BatchReplyItem, BatchRequest,
    };
    use glimmer_wire::WireCodec;
    use std::hint::black_box;

    let items: Vec<BatchItem> = (0..batch as u64)
        .map(|i| BatchItem {
            session_id: i,
            ciphertext: vec![0xA5; 96],
        })
        .collect();
    let reply_wire = BatchReply {
        items: (0..batch as u64)
            .map(|i| BatchReplyItem {
                session_id: i,
                outcome: BatchOutcome::Reply {
                    ciphertext: vec![0x5A; 112],
                    endorsed: true,
                },
            })
            .collect(),
    }
    .to_wire();

    // PR 2 discipline: every sweep collects the drained items into a fresh
    // container, encodes a fresh wire buffer, and decodes a fresh reply.
    let before = AllocSnapshot::now();
    for _ in 0..sweeps {
        let held: Vec<&BatchItem> = items.iter().collect();
        let mut enc = Encoder::new();
        BatchRequest::encode_items_into(&mut enc, held.iter().copied());
        black_box(enc.as_slice());
        let decoded = BatchReply::from_wire(&reply_wire).unwrap();
        black_box(&decoded);
    }
    let one_shot = AllocSnapshot::now().allocations_since(&before);

    // Scratch discipline: one encoder and one reply vector for every sweep.
    let mut enc = Encoder::new();
    let mut replies: Vec<BatchReplyItem> = Vec::new();
    let before = AllocSnapshot::now();
    for _ in 0..sweeps {
        BatchRequest::encode_items_into(&mut enc, items.iter());
        black_box(enc.as_slice());
        BatchReply::decode_items_into(&reply_wire, &mut replies).unwrap();
        black_box(&replies);
        replies.clear();
    }
    let scratch = AllocSnapshot::now().allocations_since(&before);
    (one_shot, scratch)
}
