//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are recorded
//! by the benchmark's own threads into per-thread vectors (no locks on the
//! measured path), merged after the run and written to
//! `out/trace_<workload>.json`. With tracing off every call is a branch
//! and nothing else, which is how the end-to-end runs are measured.

use crate::json::Json;
use crate::spec::SPAN_NAMES;
use std::time::Instant;

/// Index into [`SPAN_NAMES`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum SpanName {
    DeviceEncrypt,
    NetSubmitAck,
    NetReplyWait,
    DeviceDecrypt,
    NetConnect,
    NetOpenSession,
    DeviceHandshake,
    NetCompleteSession,
    NetInstallMask,
    NetCloseSession,
    GatewaySubmitBatch,
    GatewayDrain,
    GatewayCheckpointDelta,
    GatewayRestoreChain,
    /// The whole operation a request's other spans hang under; not a
    /// layer, so it has no `span.*` metric.
    Request,
}

impl SpanName {
    pub fn label(self) -> &'static str {
        SPAN_NAMES.get(self as usize).copied().unwrap_or("request")
    }

    fn is_device(self) -> bool {
        self.label().starts_with("device.")
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    pub request: u64,
}

/// One thread's span log.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of a run share `epoch` so their spans line up.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: SpanName, parent: u32, request: u64) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        if let Some(span) = self.spans.get_mut(span as usize) {
            span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Records a span whose ends were timed by the caller — the shape a
    /// pipelined request needs, where `net.reply_wait` of one request
    /// overlaps the submits of the next on the same thread.
    pub fn record(
        &mut self,
        name: SpanName,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                parent,
                request,
            });
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: SpanName,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's duration minus the part of it its child spans cover
/// (children clipped to the parent, overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = spans.get(span.parent as usize) {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[span.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, covered)| {
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for &(start, end) in covered.iter() {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(union)
        })
        .collect()
}

/// What a traced run reports from its spans.
pub struct SpanSummary {
    /// Σ self time per layer span name, nanoseconds.
    pub self_ns: [u64; SPAN_NAMES.len()],
    /// Σ duration of `device.*` spans: the load generator's own work.
    pub device_ns: u64,
    pub span_count: usize,
}

pub fn summarize(tracers: &[Tracer]) -> SpanSummary {
    let mut summary = SpanSummary {
        self_ns: [0; SPAN_NAMES.len()],
        device_ns: 0,
        span_count: 0,
    };
    for tracer in tracers {
        let own = self_times(tracer.spans());
        for (span, self_ns) in tracer.spans().iter().zip(own) {
            if let Some(slot) = summary.self_ns.get_mut(span.name as usize) {
                *slot += self_ns;
            }
            if span.name.is_device() {
                summary.device_ns += span.end_ns - span.start_ns;
            }
        }
        summary.span_count += tracer.spans().len();
    }
    summary
}

/// The trace file: one array per thread, spans in record order, capped so
/// a long run does not write hundreds of megabytes.
pub fn to_json(tracers: &[Tracer], cap_per_thread: usize) -> Json {
    let threads = tracers
        .iter()
        .map(|tracer| {
            let spans = tracer
                .spans()
                .iter()
                .take(cap_per_thread)
                .map(|s| {
                    Json::Arr(vec![
                        Json::str(s.name.label()),
                        Json::Num(s.start_ns as f64),
                        Json::Num(s.end_ns as f64),
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                        Json::Num(s.request as f64),
                    ])
                })
                .collect();
            Json::object([
                ("recorded", Json::Num(tracer.spans().len() as f64)),
                ("spans", Json::Arr(spans)),
            ])
        })
        .collect();
    Json::object([
        (
            "columns",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "request"]
                    .iter()
                    .map(|c| Json::str(c))
                    .collect(),
            ),
        ),
        ("threads", Json::Arr(threads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = [
            span(SpanName::Request, 0, 100, NO_PARENT),
            span(SpanName::DeviceEncrypt, 10, 30, 0),
            // Overlaps the first child: only 30..40 is new cover.
            span(SpanName::NetSubmitAck, 20, 40, 0),
            // Sticks out past the parent: clipped to 90..100.
            span(SpanName::NetReplyWait, 90, 130, 0),
            // A grandchild takes from its own parent only.
            span(SpanName::DeviceDecrypt, 95, 120, 3),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 15, 25]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        let root = off.open(SpanName::Request, NO_PARENT, 1);
        assert_eq!(off.time(SpanName::GatewayDrain, root, 1, || 5), 5);
        off.close(root);
        off.record(SpanName::NetReplyWait, epoch, Instant::now(), root, 1);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true, epoch);
        let root = on.open(SpanName::Request, NO_PARENT, 1);
        on.time(SpanName::DeviceEncrypt, root, 1, || ());
        on.close(root);
        let summary = summarize(&[on]);
        assert_eq!(summary.span_count, 2);
    }

    #[test]
    fn span_names_line_up_with_the_spec_table() {
        assert_eq!(SpanName::DeviceEncrypt.label(), "device.encrypt");
        assert_eq!(
            SpanName::GatewayRestoreChain.label(),
            "gateway.restore_chain"
        );
        assert_eq!(SpanName::GatewayRestoreChain as usize, SPAN_NAMES.len() - 1);
        assert_eq!(SpanName::Request.label(), "request");
    }
}
