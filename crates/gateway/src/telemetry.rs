//! Host-side observability for the serving pipeline: lock-free metrics,
//! sampled request traces, and a text-exposition snapshot.
//!
//! The paper's trust split means the gateway operator never sees payloads —
//! telemetry is their *only* window into the service. Everything in this
//! module therefore measures the **host-side pipeline around** the sealed
//! enclave work and records labels, counts, and timestamps exclusively:
//! no plaintext, ciphertext, mask material, or payload-derived value ever
//! enters a counter, histogram bucket, trace span, or event record.
//!
//! The design mirrors the shared-nothing stats discipline of
//! [`crate::stats`]:
//!
//! * **Counters and gauges** are plain atomics updated with relaxed
//!   ordering by whichever thread observes the event (admission totals on
//!   the routing threads, queue-depth gauges on the shard workers).
//! * **Histograms** ([`Histogram`]) are fixed arrays of 64 atomic log2
//!   buckets — recording is wait-free and allocation-free, reading merges
//!   per-shard registries into one [`HistogramSnapshot`] exactly like
//!   [`crate::SlotStatsRow`] rows are stitched on read.
//! * **Traces** live in a preallocated ring ([`TraceSpan`] is the read-side
//!   view): a sampled submit draws a trace id and each pipeline stage
//!   stamps its timestamp from the injected [`Clock`], so traces are
//!   deterministic under [`crate::ManualClock`].
//! * **Events** are a bounded journal of the most recent admission
//!   rejections, for postmortems; only the (cold) rejection path touches
//!   its lock.
//!
//! A [`TelemetrySnapshot`] renders as Prometheus-style text exposition
//! ([`TelemetrySnapshot::render_prometheus`]); [`parse_exposition`] reads
//! it back into the snapshot's canonical sample map, which is how the
//! round-trip is tested end to end. Traces and events are public fields of
//! the snapshot.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Clock;
use crate::error::{GatewayError, QuotaResource};

/// Number of log2 buckets in every [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Returns the bucket index for a recorded value: bucket 0 holds exact
/// zeros, bucket `i` (for `1 <= i < 63`) holds `[2^(i-1), 2^i)`, and the
/// last bucket holds everything from `2^62` up.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket, used as the `le` label and as the
/// quantile estimate for values landing in the bucket. The last bucket is
/// unbounded (`u64::MAX`, rendered as `+Inf`).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// Inclusive lower bound of a bucket (0 for bucket 0, `2^(i-1)` otherwise).
#[must_use]
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// A lock-free fixed-bucket log2 histogram.
///
/// Recording is a handful of relaxed atomic adds — wait-free and
/// allocation-free, safe to call from the drain hot path. The only ordering
/// constraint is that [`Histogram::record`] bumps `count` *last* (release)
/// and [`Histogram::snapshot`] reads it *first* (acquire): a concurrent
/// snapshot can therefore under-count in-flight records but every counter
/// it reports is a value that was truly reached, bucket totals never lag
/// behind `count`, and successive snapshots never regress.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation. Wait-free, allocation-free.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        // `count` goes last with release ordering; see the type-level doc.
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Takes a consistent read-side copy (see the type-level doc for the
    /// exact consistency contract under concurrent recording).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        // `count` first (acquire): everything a completed `record` wrote
        // before its count bump is then visible below.
        let count = self.count.load(Ordering::Acquire);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A plain-value copy of a [`Histogram`], mergeable across shards and
/// queryable for quantile estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`] for the layout).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wraps on overflow; callers record
    /// nanoseconds and counts, which stay far from the edge in practice).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds another snapshot into this one (bucket-wise addition); the
    /// result is exactly what one histogram fed both record streams would
    /// have reported.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observed value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the rank-`ceil(q * count)` observation, capped at the
    /// true observed maximum. The estimate is exact for bucket-0 values and
    /// otherwise overshoots by less than 2x (one log2 bucket).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Why admission accepted or refused work, as a dense counter index.
///
/// `Accepted` counts admitted submit requests; the rejection reasons cover
/// both submit rejections and session-open rejections (quota class
/// included), mapped from [`GatewayError`] by [`AdmitReason::from_error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum AdmitReason {
    /// Request admitted onto a shard queue.
    Accepted = 0,
    /// The session id was unknown (expired, closed, or never opened).
    UnknownSession,
    /// The session existed but its handshake had not completed.
    SessionNotEstablished,
    /// The tenant's live-session quota was exhausted (session open refused).
    SessionQuota,
    /// The tenant's queued-request quota was exhausted.
    QueueQuota,
    /// The tenant's endorsement budget was exhausted.
    EndorsementBudget,
    /// The target slot's queue hit the configured backpressure depth.
    Backpressure,
    /// A shard worker was unavailable (shutdown or crashed).
    RuntimeUnavailable,
    /// Any other error (wire, snapshot, crash-injection, ...).
    Other,
}

impl AdmitReason {
    /// Number of distinct reasons (the admission counter array length).
    pub const COUNT: usize = 9;

    /// Every reason, in counter order.
    pub const ALL: [AdmitReason; AdmitReason::COUNT] = [
        AdmitReason::Accepted,
        AdmitReason::UnknownSession,
        AdmitReason::SessionNotEstablished,
        AdmitReason::SessionQuota,
        AdmitReason::QueueQuota,
        AdmitReason::EndorsementBudget,
        AdmitReason::Backpressure,
        AdmitReason::RuntimeUnavailable,
        AdmitReason::Other,
    ];

    /// Stable label used in exposition output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AdmitReason::Accepted => "accepted",
            AdmitReason::UnknownSession => "unknown_session",
            AdmitReason::SessionNotEstablished => "session_not_established",
            AdmitReason::SessionQuota => "session_quota",
            AdmitReason::QueueQuota => "queue_quota",
            AdmitReason::EndorsementBudget => "endorsement_budget",
            AdmitReason::Backpressure => "backpressure",
            AdmitReason::RuntimeUnavailable => "runtime_unavailable",
            AdmitReason::Other => "other",
        }
    }

    /// Maps a gateway error to its rejection reason.
    #[must_use]
    pub fn from_error(err: &GatewayError) -> AdmitReason {
        match err {
            GatewayError::UnknownSession(_) => AdmitReason::UnknownSession,
            GatewayError::SessionNotEstablished(_) => AdmitReason::SessionNotEstablished,
            GatewayError::QuotaExceeded { resource, .. } => match resource {
                QuotaResource::Sessions => AdmitReason::SessionQuota,
                QuotaResource::QueuedRequests => AdmitReason::QueueQuota,
                QuotaResource::Endorsements => AdmitReason::EndorsementBudget,
            },
            GatewayError::Backpressure { .. } => AdmitReason::Backpressure,
            GatewayError::RuntimeUnavailable => AdmitReason::RuntimeUnavailable,
            _ => AdmitReason::Other,
        }
    }
}

/// The five pipeline stages a sampled request is stamped at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum TraceStage {
    /// Admission control accepted the request (routing thread).
    Admitted = 0,
    /// The shard worker appended it to its slot queue.
    Enqueued,
    /// A drain sweep picked it out of the queue.
    DrainStart,
    /// The batch ECALL containing it returned.
    EcallDone,
    /// Its reply was handed to the response channel.
    ReplyDelivered,
}

/// Number of trace stages.
pub const TRACE_STAGES: usize = 5;

impl TraceStage {
    /// Every stage, in pipeline order.
    pub const ALL: [TraceStage; TRACE_STAGES] = [
        TraceStage::Admitted,
        TraceStage::Enqueued,
        TraceStage::DrainStart,
        TraceStage::EcallDone,
        TraceStage::ReplyDelivered,
    ];

    /// Stable label used in exposition output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceStage::Admitted => "admitted",
            TraceStage::Enqueued => "enqueued",
            TraceStage::DrainStart => "drain_start",
            TraceStage::EcallDone => "ecall_done",
            TraceStage::ReplyDelivered => "reply_delivered",
        }
    }
}

/// Read-side view of one sampled request's journey through the pipeline.
///
/// Stage timestamps come from the gateway's injected [`Clock`]
/// (`now_nanos`), so under [`crate::ManualClock`] they are exact,
/// reproducible values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// The sampled request's trace id (monotonically assigned, never 0).
    pub trace_id: u64,
    /// The session the request belonged to.
    pub session_id: u64,
    /// Clock nanos at each [`TraceStage`], `None` while unreached.
    pub stages: [Option<u64>; TRACE_STAGES],
}

impl TraceSpan {
    /// Timestamp recorded for one stage.
    #[must_use]
    pub fn stage(&self, stage: TraceStage) -> Option<u64> {
        self.stages[stage as usize]
    }

    /// True once all five stages carry a timestamp.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.stages.iter().all(Option::is_some)
    }

    /// True if the recorded stage timestamps never decrease in pipeline
    /// order (unrecorded stages are skipped).
    #[must_use]
    pub fn is_monotonic(&self) -> bool {
        let mut last = 0u64;
        for stamp in self.stages.iter().flatten() {
            if *stamp < last {
                return false;
            }
            last = *stamp;
        }
        true
    }
}

/// One journaled admission rejection, for postmortems. Carries labels and
/// counts only — never request contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Clock nanos when the rejection was recorded.
    pub at_nanos: u64,
    /// Why admission refused the work.
    pub reason: AdmitReason,
    /// Owning tenant, when the error identified one.
    pub tenant: Option<Arc<str>>,
    /// Session id, when the rejection targeted a known session.
    pub session_id: Option<u64>,
    /// How many requests the rejection covered (batched admission rejects
    /// whole groups atomically).
    pub count: u64,
}

/// Tuning knobs for the telemetry subsystem, embedded in
/// [`crate::GatewayConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. When false every record call returns immediately and
    /// snapshots come back empty — the E16 overhead-comparison baseline.
    pub enabled: bool,
    /// Sample every Nth admitted submit for tracing (1 traces everything,
    /// 0 disables tracing while keeping metrics).
    pub trace_sample_interval: u64,
    /// Trace ring capacity: how many recent sampled requests are retained.
    pub trace_capacity: usize,
    /// Event journal capacity: how many recent rejections are retained.
    pub event_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            trace_sample_interval: 64,
            trace_capacity: 64,
            event_capacity: 64,
        }
    }
}

/// One sampled request's ring slot. Stage cells store `nanos + 1` so 0 can
/// mean "unrecorded"; the id cell is 0 while the slot is being recycled,
/// which makes stale stage writes from an overwritten trace harmless.
#[derive(Debug)]
struct TraceCell {
    id: AtomicU64,
    session: AtomicU64,
    stages: [AtomicU64; TRACE_STAGES],
}

#[derive(Debug)]
struct TraceRing {
    next: AtomicU64,
    cells: Vec<TraceCell>,
}

impl TraceRing {
    fn new(capacity: usize) -> TraceRing {
        TraceRing {
            next: AtomicU64::new(0),
            cells: (0..capacity)
                .map(|_| TraceCell {
                    id: AtomicU64::new(0),
                    session: AtomicU64::new(0),
                    stages: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    fn cell(&self, id: u64) -> &TraceCell {
        &self.cells[((id - 1) % self.cells.len() as u64) as usize]
    }

    /// Claims the next trace id, recycles its ring slot, and stamps the
    /// `Admitted` stage. Returns 0 (no trace) when the ring has no capacity.
    fn begin(&self, session_id: u64, now_nanos: u64) -> u64 {
        if self.cells.is_empty() {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let cell = self.cell(id);
        // Invalidate first so concurrent stage writers for the overwritten
        // trace id see a mismatch and drop their stamp.
        cell.id.store(0, Ordering::Release);
        cell.session.store(session_id, Ordering::Relaxed);
        for stage in &cell.stages[1..] {
            stage.store(0, Ordering::Relaxed);
        }
        cell.stages[TraceStage::Admitted as usize].store(now_nanos + 1, Ordering::Relaxed);
        cell.id.store(id, Ordering::Release);
        id
    }

    /// Stamps one stage of a live trace; silently drops the write if the
    /// ring slot has been recycled for a newer trace.
    fn stage(&self, trace_id: u64, stage: TraceStage, now_nanos: u64) {
        if trace_id == 0 || self.cells.is_empty() {
            return;
        }
        let cell = self.cell(trace_id);
        if cell.id.load(Ordering::Acquire) == trace_id {
            cell.stages[stage as usize].store(now_nanos + 1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Vec<TraceSpan> {
        let mut spans: Vec<TraceSpan> = self
            .cells
            .iter()
            .filter_map(|cell| {
                let id = cell.id.load(Ordering::Acquire);
                if id == 0 {
                    return None;
                }
                Some(TraceSpan {
                    trace_id: id,
                    session_id: cell.session.load(Ordering::Relaxed),
                    stages: std::array::from_fn(|i| match cell.stages[i].load(Ordering::Relaxed) {
                        0 => None,
                        stamp => Some(stamp - 1),
                    }),
                })
            })
            .collect();
        spans.sort_by_key(|span| span.trace_id);
        spans
    }
}

/// Per-shard metric registry, written only by the owning shard worker
/// (uncontended relaxed atomics) and merged on read — the histogram
/// equivalent of stitching [`crate::SlotStatsRow`] rows.
#[derive(Debug, Default)]
pub(crate) struct ShardTelemetry {
    /// Nanos a request waited in its slot queue before a drain picked it up.
    queue_wait_nanos: Histogram,
    /// Nanos one batch ECALL took (encode → enclave → decode).
    ecall_nanos: Histogram,
    /// Items per drained batch.
    batch_size: Histogram,
    /// Live gauge: total queued requests across the shard's slots, sampled
    /// at the start of each drain sweep.
    queue_depth: AtomicU64,
    /// Drain sweeps performed (so the gauge's freshness is legible).
    drain_sweeps: AtomicU64,
}

/// The telemetry hub: one per gateway, shared by routing threads, shard
/// workers, the checkpoint path, and the session executor.
///
/// All record methods are allocation-free; all except the (cold) rejection
/// journal are lock-free. When built disabled, every record call is a
/// single branch.
pub struct Telemetry {
    enabled: bool,
    clock: Arc<dyn Clock>,
    admission: [AtomicU64; AdmitReason::COUNT],
    shards: Vec<ShardTelemetry>,
    checkpoint_nanos: Histogram,
    delta_checkpoint_nanos: Histogram,
    restore_nanos: Histogram,
    executor_poll_nanos: Histogram,
    executor_wake_nanos: Histogram,
    checkpoint_slots_exported: AtomicU64,
    checkpoint_slots_skipped: AtomicU64,
    submit_seq: AtomicU64,
    trace_interval: u64,
    traces: TraceRing,
    events: Mutex<std::collections::VecDeque<TelemetryEvent>>,
    event_capacity: usize,
    net_connections_accepted: AtomicU64,
    net_connections_closed: AtomicU64,
    net_frames_in: AtomicU64,
    net_frames_out: AtomicU64,
    net_frame_errors: AtomicU64,
    net_idle_timeouts: AtomicU64,
    executor_timer_fires: AtomicU64,
    sessions_evicted: AtomicU64,
    migration_nanos: Histogram,
    migrations_completed: AtomicU64,
    migrations_aborted: AtomicU64,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("shards", &self.shards.len())
            .field("trace_interval", &self.trace_interval)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Builds a hub for `shards` shard workers, reading timestamps from the
    /// gateway's injected clock.
    #[must_use]
    pub(crate) fn new(config: &TelemetryConfig, clock: Arc<dyn Clock>, shards: usize) -> Telemetry {
        let enabled = config.enabled;
        Telemetry {
            enabled,
            clock,
            admission: std::array::from_fn(|_| AtomicU64::new(0)),
            shards: (0..shards).map(|_| ShardTelemetry::default()).collect(),
            checkpoint_nanos: Histogram::new(),
            delta_checkpoint_nanos: Histogram::new(),
            restore_nanos: Histogram::new(),
            executor_poll_nanos: Histogram::new(),
            executor_wake_nanos: Histogram::new(),
            checkpoint_slots_exported: AtomicU64::new(0),
            checkpoint_slots_skipped: AtomicU64::new(0),
            submit_seq: AtomicU64::new(0),
            trace_interval: if enabled {
                config.trace_sample_interval
            } else {
                0
            },
            traces: TraceRing::new(if enabled { config.trace_capacity } else { 0 }),
            events: Mutex::new(std::collections::VecDeque::with_capacity(if enabled {
                config.event_capacity
            } else {
                0
            })),
            event_capacity: if enabled { config.event_capacity } else { 0 },
            net_connections_accepted: AtomicU64::new(0),
            net_connections_closed: AtomicU64::new(0),
            net_frames_in: AtomicU64::new(0),
            net_frames_out: AtomicU64::new(0),
            net_frame_errors: AtomicU64::new(0),
            net_idle_timeouts: AtomicU64::new(0),
            executor_timer_fires: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            migration_nanos: Histogram::new(),
            migrations_completed: AtomicU64::new(0),
            migrations_aborted: AtomicU64::new(0),
        }
    }

    /// Counts `n` TCP connections accepted by the socket front door.
    pub(crate) fn record_net_accepted(&self, n: u64) {
        if self.enabled {
            self.net_connections_accepted
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts `n` front-door connections closed (any cause: clean EOF,
    /// protocol error, idle timeout, server shutdown).
    pub(crate) fn record_net_closed(&self, n: u64) {
        if self.enabled {
            self.net_connections_closed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts `n` request frames decoded off front-door sockets.
    pub(crate) fn record_net_frames_in(&self, n: u64) {
        if self.enabled {
            self.net_frames_in.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts `n` reply/ack frames written to front-door sockets.
    pub(crate) fn record_net_frames_out(&self, n: u64) {
        if self.enabled {
            self.net_frames_out.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts `n` malformed/oversized frames that terminated a connection.
    pub(crate) fn record_net_frame_errors(&self, n: u64) {
        if self.enabled {
            self.net_frame_errors.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts `n` connections closed by the idle-deadline timer.
    pub(crate) fn record_net_idle_timeouts(&self, n: u64) {
        if self.enabled {
            self.net_idle_timeouts.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts `n` timers fired by the session executor.
    pub(crate) fn record_timer_fires(&self, n: u64) {
        if self.enabled {
            self.executor_timer_fires.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts `n` stale pending sessions reclaimed by eviction.
    pub(crate) fn record_sessions_evicted(&self, n: u64) {
        if self.enabled {
            self.sessions_evicted.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Whether recording is on (false for the zero-overhead baseline mode).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current nanos from the gateway's injected clock (0 when disabled, so
    /// disabled hot paths skip the clock read entirely).
    pub(crate) fn now_nanos(&self) -> u64 {
        if self.enabled {
            self.clock.now_nanos()
        } else {
            0
        }
    }

    /// Counts `n` admitted submit requests.
    pub(crate) fn admit_accept(&self, n: u64) {
        if self.enabled {
            self.admission[AdmitReason::Accepted as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts `n` rejected requests under the error's reason and journals
    /// the rejection. Cold path: may take the (short) journal lock.
    pub(crate) fn admit_reject(&self, err: &GatewayError, n: u64, session_id: Option<u64>) {
        if !self.enabled {
            return;
        }
        let reason = AdmitReason::from_error(err);
        self.admission[reason as usize].fetch_add(n, Ordering::Relaxed);
        if self.event_capacity == 0 {
            return;
        }
        let tenant = match err {
            GatewayError::QuotaExceeded { tenant, .. }
            | GatewayError::Backpressure { tenant, .. }
            | GatewayError::SealedBlobRejected { tenant } => Some(Arc::clone(tenant)),
            _ => None,
        };
        let event = TelemetryEvent {
            at_nanos: self.clock.now_nanos(),
            reason,
            tenant,
            session_id,
            count: n,
        };
        let mut events = self
            .events
            .lock()
            .expect("telemetry event journal poisoned");
        if events.len() == self.event_capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// Reserves `n` submit sequence numbers for trace sampling — one atomic
    /// add per admitted *group*, not per request.
    pub(crate) fn submit_sampler(&self, n: usize) -> SubmitSampler {
        if self.trace_interval == 0 || self.traces.cells.is_empty() {
            return SubmitSampler {
                first: 0,
                interval: 0,
            };
        }
        SubmitSampler {
            first: self.submit_seq.fetch_add(n as u64, Ordering::Relaxed),
            interval: self.trace_interval,
        }
    }

    /// Starts a trace for one sampled request (stamps `Admitted` now).
    fn trace_begin(&self, session_id: u64) -> u64 {
        self.traces.begin(session_id, self.clock.now_nanos())
    }

    /// Stamps one stage of a sampled request's trace. `trace_id` 0 is the
    /// "not sampled" tag and returns immediately.
    pub(crate) fn trace_stage(&self, trace_id: u64, stage: TraceStage, now_nanos: u64) {
        if trace_id != 0 {
            self.traces.stage(trace_id, stage, now_nanos);
        }
    }

    /// Records how long a request sat queued before its drain (shard worker).
    pub(crate) fn record_queue_wait(&self, shard: usize, nanos: u64) {
        if self.enabled {
            self.shards[shard].queue_wait_nanos.record(nanos);
        }
    }

    /// Records one batch ECALL's latency (shard worker).
    pub(crate) fn record_ecall(&self, shard: usize, nanos: u64) {
        if self.enabled {
            self.shards[shard].ecall_nanos.record(nanos);
        }
    }

    /// Records one drained batch's item count (shard worker).
    pub(crate) fn record_batch_size(&self, shard: usize, items: u64) {
        if self.enabled {
            self.shards[shard].batch_size.record(items);
        }
    }

    /// Updates the shard's live queue-depth gauge at the start of a drain
    /// sweep (shard worker).
    pub(crate) fn record_drain_depth(&self, shard: usize, depth: u64) {
        if self.enabled {
            let shard = &self.shards[shard];
            shard.queue_depth.store(depth, Ordering::Relaxed);
            shard.drain_sweeps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a completed checkpoint's wall duration.
    pub(crate) fn record_checkpoint(&self, nanos: u64) {
        if self.enabled {
            self.checkpoint_nanos.record(nanos);
        }
    }

    /// Records a completed **delta** checkpoint's wall duration — kept as
    /// its own series (not folded into `checkpoint_nanos`) because the
    /// whole point of the incremental path is that its distribution sits
    /// far below the full-capture one; merging them would bury the claim.
    pub(crate) fn record_delta_checkpoint(&self, nanos: u64) {
        if self.enabled {
            self.delta_checkpoint_nanos.record(nanos);
        }
    }

    /// Counts a checkpoint's per-slot export decisions: `exported` slots
    /// paid an state-export ECALL, `skipped` slots were proven clean and
    /// paid nothing. The skip ratio is the E18 housekeeping claim made
    /// observable in production.
    pub(crate) fn count_checkpoint_slots(&self, exported: u64, skipped: u64) {
        if self.enabled {
            self.checkpoint_slots_exported
                .fetch_add(exported, Ordering::Relaxed);
            self.checkpoint_slots_skipped
                .fetch_add(skipped, Ordering::Relaxed);
        }
    }

    /// Records a committed live migration's wall duration (slot claim to
    /// post-commit fence).
    pub(crate) fn record_migration(&self, nanos: u64) {
        if self.enabled {
            self.migration_nanos.record(nanos);
            self.migrations_completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a migration that failed closed back to its source shard
    /// (injected crash, export failure, or runtime teardown mid-protocol).
    pub(crate) fn record_migration_aborted(&self) {
        if self.enabled {
            self.migrations_aborted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a completed restore's wall duration.
    pub(crate) fn record_restore(&self, nanos: u64) {
        if self.enabled {
            self.restore_nanos.record(nanos);
        }
    }

    /// Records one executor task poll's duration.
    pub(crate) fn record_executor_poll(&self, nanos: u64) {
        if self.enabled {
            self.executor_poll_nanos.record(nanos);
        }
    }

    /// Records the delay between a task wake and the poll that served it.
    pub(crate) fn record_executor_wake(&self, nanos: u64) {
        if self.enabled {
            self.executor_wake_nanos.record(nanos);
        }
    }

    /// Merges every registry into a plain-value snapshot: per-shard
    /// histograms are folded together (and the per-shard gauges kept
    /// per-shard), traces and events are copied out.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut queue_wait_nanos = HistogramSnapshot::default();
        let mut ecall_nanos = HistogramSnapshot::default();
        let mut batch_size = HistogramSnapshot::default();
        let mut shard_queue_depth = Vec::with_capacity(self.shards.len());
        let mut shard_drain_sweeps = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            queue_wait_nanos.merge(&shard.queue_wait_nanos.snapshot());
            ecall_nanos.merge(&shard.ecall_nanos.snapshot());
            batch_size.merge(&shard.batch_size.snapshot());
            shard_queue_depth.push(shard.queue_depth.load(Ordering::Relaxed));
            shard_drain_sweeps.push(shard.drain_sweeps.load(Ordering::Relaxed));
        }
        TelemetrySnapshot {
            admission: AdmitReason::ALL
                .iter()
                .map(|&reason| {
                    (
                        reason,
                        self.admission[reason as usize].load(Ordering::Relaxed),
                    )
                })
                .collect(),
            shard_queue_depth,
            shard_drain_sweeps,
            queue_wait_nanos,
            ecall_nanos,
            batch_size,
            checkpoint_nanos: self.checkpoint_nanos.snapshot(),
            delta_checkpoint_nanos: self.delta_checkpoint_nanos.snapshot(),
            restore_nanos: self.restore_nanos.snapshot(),
            executor_poll_nanos: self.executor_poll_nanos.snapshot(),
            executor_wake_nanos: self.executor_wake_nanos.snapshot(),
            traces: self.traces.snapshot(),
            events: self
                .events
                .lock()
                .expect("telemetry event journal poisoned")
                .iter()
                .cloned()
                .collect(),
            checkpoint_slots_exported: self.checkpoint_slots_exported.load(Ordering::Relaxed),
            checkpoint_slots_skipped: self.checkpoint_slots_skipped.load(Ordering::Relaxed),
            net_connections_accepted: self.net_connections_accepted.load(Ordering::Relaxed),
            net_connections_closed: self.net_connections_closed.load(Ordering::Relaxed),
            net_frames_in: self.net_frames_in.load(Ordering::Relaxed),
            net_frames_out: self.net_frames_out.load(Ordering::Relaxed),
            net_frame_errors: self.net_frame_errors.load(Ordering::Relaxed),
            net_idle_timeouts: self.net_idle_timeouts.load(Ordering::Relaxed),
            executor_timer_fires: self.executor_timer_fires.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            migration_nanos: self.migration_nanos.snapshot(),
            migrations_completed: self.migrations_completed.load(Ordering::Relaxed),
            migrations_aborted: self.migrations_aborted.load(Ordering::Relaxed),
        }
    }
}

/// A reserved block of submit sequence numbers; decides which requests in
/// an admitted group get trace ids (see [`Telemetry::submit_sampler`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubmitSampler {
    first: u64,
    interval: u64,
}

impl SubmitSampler {
    /// Returns the trace tag for the group's `offset`-th request: a fresh
    /// trace id if that sequence number is sampled, 0 otherwise.
    pub(crate) fn tag(&self, telemetry: &Telemetry, offset: usize, session_id: u64) -> u64 {
        if self.interval == 0 || !(self.first + offset as u64).is_multiple_of(self.interval) {
            0
        } else {
            telemetry.trace_begin(session_id)
        }
    }
}

/// Plain-value snapshot of the whole telemetry hub, renderable as
/// Prometheus-style text exposition and as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Admission decisions per [`AdmitReason`], in counter order.
    pub admission: Vec<(AdmitReason, u64)>,
    /// Live queued-request gauge per shard, sampled at drain time.
    pub shard_queue_depth: Vec<u64>,
    /// Drain sweeps performed per shard.
    pub shard_drain_sweeps: Vec<u64>,
    /// Queue-wait latency, merged across shards (nanos).
    pub queue_wait_nanos: HistogramSnapshot,
    /// Batch-ECALL latency, merged across shards (nanos).
    pub ecall_nanos: HistogramSnapshot,
    /// Drained batch sizes, merged across shards (items).
    pub batch_size: HistogramSnapshot,
    /// Full-checkpoint durations (nanos).
    pub checkpoint_nanos: HistogramSnapshot,
    /// Delta-checkpoint durations (nanos) — separate from
    /// `checkpoint_nanos` so the incremental path's speedup is visible in
    /// the exposition, not averaged away.
    pub delta_checkpoint_nanos: HistogramSnapshot,
    /// Restore durations (nanos).
    pub restore_nanos: HistogramSnapshot,
    /// Executor poll durations (nanos).
    pub executor_poll_nanos: HistogramSnapshot,
    /// Executor wake-to-poll delays (nanos).
    pub executor_wake_nanos: HistogramSnapshot,
    /// Recent sampled request traces, oldest trace id first.
    pub traces: Vec<TraceSpan>,
    /// Recent admission rejections, oldest first.
    pub events: Vec<TelemetryEvent>,
    /// Pool slots whose checkpoint capture paid an state-export ECALL.
    pub checkpoint_slots_exported: u64,
    /// Pool slots a delta checkpoint proved clean and skipped (no barrier,
    /// no seal, no ECALL).
    pub checkpoint_slots_skipped: u64,
    /// TCP connections accepted by the socket front door.
    pub net_connections_accepted: u64,
    /// Front-door connections closed (any cause).
    pub net_connections_closed: u64,
    /// Request frames decoded off front-door sockets.
    pub net_frames_in: u64,
    /// Reply/ack frames written to front-door sockets.
    pub net_frames_out: u64,
    /// Malformed/oversized frames that terminated a connection.
    pub net_frame_errors: u64,
    /// Connections closed by the idle-deadline timer.
    pub net_idle_timeouts: u64,
    /// Timers fired by the session executor.
    pub executor_timer_fires: u64,
    /// Stale pending sessions reclaimed by eviction.
    pub sessions_evicted: u64,
    /// Committed live-migration durations (nanos), slot claim to
    /// post-commit fence.
    pub migration_nanos: HistogramSnapshot,
    /// Live migrations committed (the slot now serves from its new shard).
    pub migrations_completed: u64,
    /// Live migrations that failed closed back to their source shard.
    pub migrations_aborted: u64,
}

/// Exposition names for the snapshot's histograms, paired with accessors —
/// single source of truth for rendering and tests.
const HISTOGRAM_NAMES: [&str; 9] = [
    "glimmer_queue_wait_nanos",
    "glimmer_ecall_nanos",
    "glimmer_batch_size",
    "glimmer_checkpoint_nanos",
    "glimmer_delta_checkpoint_nanos",
    "glimmer_restore_nanos",
    "glimmer_executor_poll_nanos",
    "glimmer_executor_wake_nanos",
    "glimmer_migration_nanos",
];

impl TelemetrySnapshot {
    /// The snapshot's histograms with their exposition names, in render
    /// order.
    #[must_use]
    pub fn histograms(&self) -> [(&'static str, &HistogramSnapshot); 9] {
        [
            (HISTOGRAM_NAMES[0], &self.queue_wait_nanos),
            (HISTOGRAM_NAMES[1], &self.ecall_nanos),
            (HISTOGRAM_NAMES[2], &self.batch_size),
            (HISTOGRAM_NAMES[3], &self.checkpoint_nanos),
            (HISTOGRAM_NAMES[4], &self.delta_checkpoint_nanos),
            (HISTOGRAM_NAMES[5], &self.restore_nanos),
            (HISTOGRAM_NAMES[6], &self.executor_poll_nanos),
            (HISTOGRAM_NAMES[7], &self.executor_wake_nanos),
            (HISTOGRAM_NAMES[8], &self.migration_nanos),
        ]
    }

    /// Every numeric sample in render order, keyed by canonical
    /// (quote-free) name: `glimmer_admission_total{reason=accepted}`. The
    /// Prometheus renderer derives from this list, which is what makes
    /// [`parse_exposition`] round-trip to [`TelemetrySnapshot::samples`].
    #[must_use]
    pub fn sample_lines(&self) -> Vec<(String, u64)> {
        let mut lines = Vec::new();
        for &(reason, count) in &self.admission {
            lines.push((
                format!("glimmer_admission_total{{reason={}}}", reason.label()),
                count,
            ));
        }
        for (shard, &depth) in self.shard_queue_depth.iter().enumerate() {
            lines.push((format!("glimmer_shard_queue_depth{{shard={shard}}}"), depth));
        }
        for (shard, &sweeps) in self.shard_drain_sweeps.iter().enumerate() {
            lines.push((
                format!("glimmer_shard_drain_sweeps_total{{shard={shard}}}"),
                sweeps,
            ));
        }
        for (outcome, count) in [
            ("exported", self.checkpoint_slots_exported),
            ("skipped", self.checkpoint_slots_skipped),
        ] {
            lines.push((
                format!("glimmer_checkpoint_slots_total{{outcome={outcome}}}"),
                count,
            ));
        }
        for (outcome, count) in [
            ("completed", self.migrations_completed),
            ("aborted", self.migrations_aborted),
        ] {
            lines.push((
                format!("glimmer_migrations_total{{outcome={outcome}}}"),
                count,
            ));
        }
        for (event, count) in [
            ("accepted", self.net_connections_accepted),
            ("closed", self.net_connections_closed),
        ] {
            lines.push((
                format!("glimmer_net_connections_total{{event={event}}}"),
                count,
            ));
        }
        for (direction, count) in [("in", self.net_frames_in), ("out", self.net_frames_out)] {
            lines.push((
                format!("glimmer_net_frames_total{{direction={direction}}}"),
                count,
            ));
        }
        lines.push((
            "glimmer_net_frame_errors_total".to_string(),
            self.net_frame_errors,
        ));
        lines.push((
            "glimmer_net_idle_timeouts_total".to_string(),
            self.net_idle_timeouts,
        ));
        lines.push((
            "glimmer_executor_timer_fires_total".to_string(),
            self.executor_timer_fires,
        ));
        lines.push((
            "glimmer_sessions_evicted_total".to_string(),
            self.sessions_evicted,
        ));
        for (name, hist) in self.histograms() {
            let mut cumulative = 0u64;
            let top = hist
                .buckets
                .iter()
                .rposition(|&c| c != 0)
                .unwrap_or(0)
                .min(HISTOGRAM_BUCKETS - 2);
            for (i, &bucket) in hist.buckets.iter().enumerate().take(top + 1) {
                cumulative += bucket;
                lines.push((
                    format!("{name}_bucket{{le={}}}", bucket_upper_bound(i)),
                    cumulative,
                ));
            }
            lines.push((format!("{name}_bucket{{le=+Inf}}"), hist.count));
            lines.push((format!("{name}_sum"), hist.sum));
            lines.push((format!("{name}_count"), hist.count));
            lines.push((format!("{name}_max"), hist.max));
            lines.push((format!("{name}_p50"), hist.p50()));
            lines.push((format!("{name}_p90"), hist.p90()));
            lines.push((format!("{name}_p99"), hist.p99()));
        }
        lines
    }

    /// [`TelemetrySnapshot::sample_lines`] as a map, for order-insensitive
    /// comparison against parsed exposition output.
    #[must_use]
    pub fn samples(&self) -> BTreeMap<String, u64> {
        self.sample_lines().into_iter().collect()
    }

    /// Renders Prometheus-style text exposition: `# `-prefixed comment
    /// lines, then one `name{label="value"} count` sample per line.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# Glimmer gateway telemetry (host-side pipeline only;\n");
        out.push_str("# no payload data — see ARCHITECTURE.md \"Telemetry\").\n");
        out.push_str("# Histogram `le` bounds are inclusive log2 upper bounds.\n");
        for (key, value) in self.sample_lines() {
            out.push_str(&quote_labels(&key));
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }
}

/// Re-quotes a canonical sample key for Prometheus output:
/// `name{reason=accepted}` becomes `name{reason="accepted"}`.
fn quote_labels(key: &str) -> String {
    let Some(open) = key.find('{') else {
        return key.to_string();
    };
    let (name, rest) = key.split_at(open);
    let labels = rest
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => format!("{k}=\"{v}\""),
            None => pair.to_string(),
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{name}{{{labels}}}")
}

/// Parses Prometheus-style text exposition back into the canonical sample
/// map: comment and blank lines are skipped, label quotes are stripped, and
/// each remaining line must be `key value` with an unsigned integer value.
///
/// # Errors
/// Returns a description of the first malformed line.
pub fn parse_exposition(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("exposition line without a value: {line:?}"))?;
        let value: u64 = value
            .parse()
            .map_err(|_| format!("non-integer sample value in line: {line:?}"))?;
        samples.insert(key.replace('"', ""), value);
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use proptest::prelude::*;

    fn test_hub(shards: usize, interval: u64) -> (Arc<ManualClock>, Telemetry) {
        let clock = Arc::new(ManualClock::new());
        let hub = Telemetry::new(
            &TelemetryConfig {
                trace_sample_interval: interval,
                ..TelemetryConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
            shards,
        );
        (clock, hub)
    }

    #[test]
    fn bucket_layout_is_exhaustive_and_ordered() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let hist = Histogram::new();
        for v in [0u64, 10, 20, 100, 1000, 1000, 1000, 5000, 100_000, 100_000] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.max, 100_000);
        // p50 lands in 1000's bucket [512, 1024); estimate is its upper bound.
        assert_eq!(snap.p50(), 1023);
        // p99 / p100-ish land in the max's bucket, capped at the true max.
        assert_eq!(snap.p99(), 100_000);
        assert_eq!(snap.quantile(1.0), 100_000);
        assert_eq!(snap.quantile(0.0), 0);
        assert!((snap.mean() - 20_813.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let snap = Histogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_value_lands_inside_its_bucket(value in any::<u64>()) {
            let i = bucket_index(value);
            prop_assert!(i < HISTOGRAM_BUCKETS);
            prop_assert!(bucket_lower_bound(i) <= value);
            prop_assert!(value <= bucket_upper_bound(i));
        }

        #[test]
        fn bucket_index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bucket_index(lo) <= bucket_index(hi));
        }

        #[test]
        fn merge_equals_combined_recording(
            left in proptest::collection::vec(any::<u64>(), 0..64),
            right in proptest::collection::vec(any::<u64>(), 0..64),
        ) {
            let a = Histogram::new();
            let b = Histogram::new();
            let combined = Histogram::new();
            for &v in &left {
                a.record(v);
                combined.record(v);
            }
            for &v in &right {
                b.record(v);
                combined.record(v);
            }
            let mut merged = a.snapshot();
            merged.merge(&b.snapshot());
            prop_assert_eq!(merged, combined.snapshot());
        }

        #[test]
        fn quantile_estimates_bound_the_true_rank_value(
            mut values in proptest::collection::vec(any::<u64>(), 1..64),
            q_millis in 0u64..=1000,
        ) {
            let hist = Histogram::new();
            for &v in &values {
                hist.record(v);
            }
            let snap = hist.snapshot();
            let q = q_millis as f64 / 1000.0;
            let estimate = snap.quantile(q);
            values.sort_unstable();
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            // The estimate sits in the true value's bucket (capped at max):
            // never below the true value's bucket lower bound, never above
            // the observed maximum.
            prop_assert!(estimate >= bucket_lower_bound(bucket_index(truth)));
            prop_assert!(estimate <= snap.max);
        }
    }

    #[test]
    fn sampler_draws_every_interval_th_submit() {
        let (_clock, hub) = test_hub(1, 4);
        // Reserve 8 sequence numbers: offsets 0 and 4 are multiples of 4.
        let sampler = hub.submit_sampler(8);
        let tags: Vec<u64> = (0..8).map(|off| sampler.tag(&hub, off, 7)).collect();
        assert!(tags[0] != 0 && tags[4] != 0);
        assert_eq!(tags.iter().filter(|&&t| t != 0).count(), 2);
        // The next reservation continues the sequence: offsets 0..4 cover
        // seq 8..12, so only seq 8 (offset 0) samples.
        let sampler = hub.submit_sampler(4);
        let tags: Vec<u64> = (0..4).map(|off| sampler.tag(&hub, off, 7)).collect();
        assert_eq!(tags.iter().filter(|&&t| t != 0).count(), 1);
    }

    #[test]
    fn trace_ring_recycles_and_guards_stale_writes() {
        let clock = Arc::new(ManualClock::new());
        let hub = Telemetry::new(
            &TelemetryConfig {
                trace_sample_interval: 1,
                trace_capacity: 2,
                ..TelemetryConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
            1,
        );
        let sampler = hub.submit_sampler(3);
        let t1 = sampler.tag(&hub, 0, 101);
        let t2 = sampler.tag(&hub, 1, 102);
        let t3 = sampler.tag(&hub, 2, 103); // recycles t1's ring slot
        clock.advance_nanos(10);
        hub.trace_stage(t1, TraceStage::Enqueued, 10); // stale: must be dropped
        hub.trace_stage(t3, TraceStage::Enqueued, 10);
        let spans = hub.snapshot().traces;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].trace_id, t2);
        assert_eq!(spans[1].trace_id, t3);
        assert_eq!(spans[1].session_id, 103);
        assert_eq!(spans[1].stage(TraceStage::Enqueued), Some(10));
        assert!(spans.iter().all(TraceSpan::is_monotonic));
        let _ = t1;
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let clock = Arc::new(ManualClock::new());
        let hub = Telemetry::new(
            &TelemetryConfig {
                enabled: false,
                ..TelemetryConfig::default()
            },
            clock as Arc<dyn Clock>,
            2,
        );
        assert!(!hub.enabled());
        hub.admit_accept(5);
        hub.admit_reject(&GatewayError::RuntimeUnavailable, 2, None);
        hub.record_ecall(0, 100);
        hub.record_queue_wait(1, 100);
        assert_eq!(hub.submit_sampler(10).tag(&hub, 0, 1), 0);
        let snap = hub.snapshot();
        assert!(snap.admission.iter().all(|&(_, n)| n == 0));
        assert!(snap.ecall_nanos.is_empty());
        assert!(snap.traces.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn event_journal_is_bounded_and_fifo() {
        let clock = Arc::new(ManualClock::new());
        let hub = Telemetry::new(
            &TelemetryConfig {
                event_capacity: 2,
                ..TelemetryConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
            1,
        );
        for session in 1..=3u64 {
            clock.advance_nanos(1);
            hub.admit_reject(&GatewayError::UnknownSession(session), 1, Some(session));
        }
        let events = hub.snapshot().events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].session_id, Some(2));
        assert_eq!(events[1].session_id, Some(3));
        assert_eq!(events[1].at_nanos, 3);
        assert_eq!(events[1].reason, AdmitReason::UnknownSession);
    }

    #[test]
    fn exposition_round_trips_to_the_snapshots_samples() {
        let (clock, hub) = test_hub(2, 1);
        hub.admit_accept(41);
        hub.admit_reject(
            &GatewayError::Backpressure {
                tenant: Arc::from("iot-telemetry.example"),
                slot: 1,
                depth: 9,
            },
            1,
            Some(12),
        );
        hub.record_queue_wait(0, 500);
        hub.record_queue_wait(1, 9_000);
        hub.record_ecall(0, 123_456);
        hub.record_batch_size(0, 32);
        hub.record_drain_depth(0, 7);
        hub.record_checkpoint(1_000_000);
        hub.record_delta_checkpoint(50_000);
        hub.count_checkpoint_slots(2, 38);
        clock.advance_nanos(77);
        let tag = hub.submit_sampler(1).tag(&hub, 0, 12);
        hub.trace_stage(tag, TraceStage::ReplyDelivered, 99);
        let snap = hub.snapshot();

        let prom = snap.render_prometheus();
        let from_prom = parse_exposition(&prom).expect("exposition parses");
        assert_eq!(from_prom, snap.samples());
        assert_eq!(
            from_prom["glimmer_admission_total{reason=accepted}"], 41,
            "canonical keys are quote-free"
        );
        assert_eq!(from_prom["glimmer_admission_total{reason=backpressure}"], 1);
        assert_eq!(from_prom["glimmer_shard_queue_depth{shard=0}"], 7);
        assert_eq!(from_prom["glimmer_ecall_nanos_count"], 1);
        assert!(from_prom.contains_key("glimmer_ecall_nanos_p50"));
        assert!(from_prom.contains_key("glimmer_ecall_nanos_p99"));
        assert!(from_prom.contains_key("glimmer_queue_wait_nanos_p50"));
        assert!(from_prom.contains_key("glimmer_queue_wait_nanos_p99"));
        assert_eq!(
            from_prom["glimmer_checkpoint_slots_total{outcome=exported}"],
            2
        );
        assert_eq!(
            from_prom["glimmer_checkpoint_slots_total{outcome=skipped}"],
            38
        );
        assert_eq!(from_prom["glimmer_delta_checkpoint_nanos_count"], 1);
        assert_eq!(from_prom["glimmer_delta_checkpoint_nanos_sum"], 50_000);
        assert_eq!(from_prom["glimmer_checkpoint_nanos_count"], 1);
        // The rendered form carries the quoted variants.
        assert!(prom.contains("glimmer_admission_total{reason=\"accepted\"} 41"));
        assert!(prom.contains("glimmer_queue_wait_nanos_bucket{le=\"+Inf\"} 2"));
        // Events and traces are read off the snapshot itself.
        assert_eq!(
            snap.events[0].tenant.as_deref(),
            Some("iot-telemetry.example")
        );
        assert_eq!(snap.traces[0].stage(TraceStage::ReplyDelivered), Some(99));
    }

    #[test]
    fn malformed_inputs_are_rejected_with_context() {
        assert!(parse_exposition("metric_without_value").is_err());
        assert!(parse_exposition("metric abc").is_err());
        // Comments, blanks and trailing sections are fine.
        let ok = parse_exposition("# c\n\nm 3\n").unwrap();
        assert_eq!(ok["m"], 3);
    }
}
