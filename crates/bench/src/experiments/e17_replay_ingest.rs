//! E17: million-device replay ingest.

use glimmer_gateway::SystemClock;
use std::sync::Arc;
use std::time::Instant;

/// One loader-scaling row of E17: the same scenario file loaded with a
/// different reader count.
#[derive(Debug, Clone)]
pub struct E17LoaderRow {
    /// Parallel chunk readers.
    pub readers: usize,
    /// Records loaded (identical across rows).
    pub records: u64,
    /// Best-of-repeats wall-clock load+parse time.
    pub load_ms: f64,
    /// Records parsed per wall-clock second (best repeat).
    pub records_per_s: f64,
    /// Records owned by the busiest chunk — the loader's critical path.
    pub max_chunk_records: u64,
    /// `records / max_chunk_records`: the deterministic parallel speedup
    /// the chunk partition admits (readers run concurrently, so the
    /// busiest chunk bounds the makespan). Unlike wall clock, this holds
    /// on any host, including single-core CI.
    pub det_speedup: f64,
    /// Wall-clock speedup versus the single-reader row (best-of-repeats).
    /// Only meaningful with as many idle cores as readers.
    pub wall_speedup: f64,
    /// Concatenated chunk records were bit-identical to the generator's
    /// ground truth: nothing lost, duplicated, or split.
    pub exactly_once: bool,
    /// Heap allocations per record across the whole `load_chunks` call
    /// (windows, output reservations, thread spawns — the per-record parse
    /// itself is allocation-free). Zero unless built with `count-allocs`.
    pub load_allocs_per_record: f64,
}

/// The E17 result: loader scaling plus the end-to-end replay-vs-in-process
/// serve comparison.
#[derive(Debug, Clone)]
pub struct E17Result {
    /// Records in the loader-scaling scenario file.
    pub parse_records: u64,
    /// Bytes in the loader-scaling scenario file.
    pub parse_bytes: u64,
    /// One row per reader count.
    pub loader_rows: Vec<E17LoaderRow>,
    /// Records in the (smaller) serve scenario.
    pub serve_records: u64,
    /// Sessions the serve harness established.
    pub serve_sessions: usize,
    /// Endorsements the replayed run produced.
    pub replay_endorsed: usize,
    /// Endorsements the in-process baseline produced (must equal).
    pub baseline_endorsed: usize,
    /// Replay wall-clock submit+drain ms (batched-per-shard ingest).
    pub replay_serve_ms: f64,
    /// Replayed records per wall-clock second through the gateway.
    pub ingest_records_per_s: f64,
    /// Endorsements per wall-clock second during replay.
    pub endorse_per_s: f64,
    /// Requests terminally rejected by quota during replay (counted, not
    /// dropped).
    pub quota_rejected: u64,
    /// Drain sweeps the replay pacing performed.
    pub drains: u64,
    /// Replay responses were bit-identical (session, tenant, and full
    /// outcome ciphertext) to the in-process per-record baseline.
    pub bit_identical: bool,
    /// Malformed lines the loader saw in the serve file (0 for a generated
    /// file).
    pub parse_errors: u64,
    /// The telemetry hub's `ingest parsed` counter after the replay —
    /// wired from the loader summaries, so it must equal `serve_records`.
    pub telemetry_ingest_parsed: u64,
    /// The hub's `ingest parse_error` counter after the replay.
    pub telemetry_ingest_parse_errors: u64,
    /// The hub's `ingest quota_rejected` counter after the replay.
    pub telemetry_ingest_quota_rejected: u64,
}

/// Runs E17: million-device replay ingest.
///
/// Phase 1 (loader scaling) generates a `parse_records`-record scenario
/// file and loads it with each reader count in `reader_counts`
/// (best-of-`repeats` wall clock), verifying the chunked readers
/// reproduce the generator's records exactly once. Phase 2 (end-to-end)
/// generates a smaller serve scenario (`serve_sessions` devices per
/// tenant × 2 tenants, abuse-burst mix), replays it through a
/// [`crate::ingest::ReplayHarness`] on the batched-per-shard path with
/// bounded in-flight admission, and replays the *same records* through a
/// fresh same-seed harness on the per-record baseline path with the same
/// drain cadence — at `shards: 1` the two must produce bit-identical
/// responses. Loader accounting is mirrored into the gateway's telemetry
/// ingest counters, observable like live traffic.
///
/// Scenario files live in the OS temp directory and are removed before
/// returning.
#[must_use]
pub fn e17_replay_ingest(
    parse_records: u64,
    reader_counts: &[usize],
    repeats: usize,
    serve_sessions: usize,
    serve_rounds: usize,
    seed: [u8; 32],
) -> E17Result {
    use crate::alloc_track::AllocSnapshot;
    use crate::ingest::{ingest, IngestConfig, IngestMode, Pacing, ReplayHarness};
    use glimmer_workloads::replay::{
        generate_scenario_file, load_chunks, FileSource, ParseSummary, ReplayRecord, ScenarioMix,
        ScenarioSpec, CHUNK_EXCESS,
    };

    let dir = std::env::temp_dir();
    let pid = std::process::id();

    // ---- Phase 1: loader scaling over a large diurnal scenario. ----
    let parse_spec = ScenarioSpec {
        tenants: 4,
        devices_per_tenant: 250_000,
        records: parse_records,
        mix: ScenarioMix::Diurnal {
            period: (parse_records / 8).max(2),
        },
        seed: u64::from_le_bytes(seed[..8].try_into().unwrap()),
    };
    let parse_path = dir.join(format!("glimmer-e17-{pid}-parse.scenario"));
    let parse_info = generate_scenario_file(&parse_path, &parse_spec).expect("generate scenario");
    let truth = parse_spec.records_vec();

    let mut loader_rows: Vec<E17LoaderRow> = Vec::with_capacity(reader_counts.len());
    for &readers in reader_counts {
        let source = FileSource::open(&parse_path).expect("open scenario");
        let mut best_s = f64::INFINITY;
        let mut exactly_once = true;
        let mut max_chunk_records = 0u64;
        let mut load_allocs = 0u64;
        for repeat in 0..repeats.max(1) {
            let allocs_before = AllocSnapshot::now();
            let start = Instant::now();
            let loads = load_chunks(&source, readers, CHUNK_EXCESS).expect("load scenario");
            let elapsed = start.elapsed().as_secs_f64();
            load_allocs = AllocSnapshot::now().allocations_since(&allocs_before);
            best_s = best_s.min(elapsed);
            if repeat == 0 {
                max_chunk_records = loads.iter().map(|l| l.summary.records).max().unwrap_or(0);
                let flat: Vec<ReplayRecord> = loads
                    .iter()
                    .flat_map(|l| l.records.iter().copied())
                    .collect();
                exactly_once = flat == truth && loads.iter().all(|l| l.summary.parse_errors == 0);
            }
        }
        let single_ms = loader_rows.first().map_or(best_s * 1e3, |row| row.load_ms);
        loader_rows.push(E17LoaderRow {
            readers,
            records: parse_info.records,
            load_ms: best_s * 1e3,
            records_per_s: parse_info.records as f64 / best_s.max(1e-9),
            max_chunk_records,
            det_speedup: parse_info.records as f64 / max_chunk_records.max(1) as f64,
            wall_speedup: single_ms / (best_s * 1e3).max(1e-9),
            exactly_once,
            load_allocs_per_record: load_allocs as f64 / parse_info.records.max(1) as f64,
        });
    }
    let _ = std::fs::remove_file(&parse_path);

    // ---- Phase 2: end-to-end replay vs in-process baseline. ----
    let serve_spec = ScenarioSpec {
        tenants: 2,
        devices_per_tenant: serve_sessions as u64,
        records: (serve_sessions * serve_rounds * 2) as u64,
        mix: ScenarioMix::AbuseBurst {
            abusive_fraction: 0.5,
            period: 16,
            burst_len: 4,
        },
        seed: u64::from_le_bytes(seed[8..16].try_into().unwrap()),
    };
    let serve_path = dir.join(format!("glimmer-e17-{pid}-serve.scenario"));
    let serve_info = generate_scenario_file(&serve_path, &serve_spec).expect("generate serve");
    let source = FileSource::open(&serve_path).expect("open serve");
    let loads = load_chunks(&source, 4, CHUNK_EXCESS).expect("load serve");
    let _ = std::fs::remove_file(&serve_path);
    let summary = loads.iter().fold(ParseSummary::default(), |mut a, l| {
        a.merge(&l.summary);
        a
    });
    let replayed: Vec<ReplayRecord> = loads
        .into_iter()
        .flat_map(|l| l.records.into_iter())
        .collect();

    // Both drivers share one pacing so their drain cadence — and therefore
    // their response stream — is comparable bit-for-bit at `shards: 1`.
    let pacing = |mode| IngestConfig {
        mode,
        window: 64,
        max_in_flight: 256,
        pacing: Pacing::Unpaced,
    };
    let build = |records: &[ReplayRecord]| {
        ReplayHarness::build(
            records,
            serve_spec.tenants,
            1, // deterministic single-shard mode: the bit-identity bar
            2,
            8,
            1024,
            seed,
            Arc::new(SystemClock::new()),
        )
    };

    // Replay side: records from the *file*, batched-per-shard admission,
    // loader accounting mirrored into the telemetry ingest counters.
    let mut replay_harness = build(&replayed);
    let telemetry = replay_harness.gateway.telemetry_handle();
    telemetry.record_ingest_parsed(summary.records);
    telemetry.record_ingest_parse_errors(summary.parse_errors);
    let serve_start = Instant::now();
    let replay_report = ingest(
        &mut replay_harness,
        &replayed,
        &pacing(IngestMode::BatchedPerShard),
    )
    .expect("replay ingest");
    let replay_elapsed = serve_start.elapsed().as_secs_f64();
    let snapshot = replay_harness.gateway.telemetry();

    // Baseline side: the *same* records regenerated in process (the
    // exactly-once check above proved file and generator agree), per-record
    // admission, same cadence, fresh same-seed harness.
    let baseline_records = serve_spec.records_vec();
    let mut baseline_harness = build(&baseline_records);
    let baseline_report = ingest(
        &mut baseline_harness,
        &baseline_records,
        &pacing(IngestMode::PerRecord),
    )
    .expect("baseline ingest");

    let bit_identical = replay_report.response_keys() == baseline_report.response_keys();

    E17Result {
        parse_records: parse_info.records,
        parse_bytes: parse_info.bytes,
        loader_rows,
        serve_records: serve_info.records,
        serve_sessions: replay_harness.session_count(),
        replay_endorsed: replay_report.endorsed(),
        baseline_endorsed: baseline_report.endorsed(),
        replay_serve_ms: replay_elapsed * 1e3,
        ingest_records_per_s: serve_info.records as f64 / replay_elapsed.max(1e-9),
        endorse_per_s: replay_report.endorsed() as f64 / replay_elapsed.max(1e-9),
        quota_rejected: replay_report.quota_rejected,
        drains: replay_report.drains,
        bit_identical,
        parse_errors: summary.parse_errors,
        telemetry_ingest_parsed: snapshot.ingest_parsed,
        telemetry_ingest_parse_errors: snapshot.ingest_parse_errors,
        telemetry_ingest_quota_rejected: snapshot.ingest_quota_rejected,
    }
}
