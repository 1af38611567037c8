//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is rendered from these tables (`print-spec`) and a unit test keeps
//! the two in step, so a metric is defined in exactly one place.

use crate::json::Json;

/// Seconds one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// One workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady_small",
        why: "socket, 100 B contributions: per-request fixed cost (one Schnorr sign, frames, acks, wakes) dominates",
    },
    Workload {
        name: "steady_bulk",
        why: "socket, 32 KiB contributions: per-byte cost (AEAD, SHA-256, codecs, copies) dominates, sign is a minor share",
    },
    Workload {
        name: "session_churn",
        why: "socket, whole device lifecycles: attestation, variable-base DH and session-table churn, sign is under a tenth",
    },
    Workload {
        name: "checkpoint_serve",
        why: "in-process, no socket: batched serving beside delta checkpoints and chain restores; a front-door change predicts no move",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a device or operator sees, with the share of the parent's
/// median by which it may worsen before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's rule), so each
/// is defined on all four; `README.md` gives the per-workload definition.
/// The bounds come from measured run-to-run spread on the shared 2-core
/// reference host (at least three times the quartile spread of ten runs in
/// a quiet period), not from what a change ought to be held to.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "endorse_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "wait_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "wait_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "checkpoint_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "restore_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A single layer's number. No bound: these explain, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Probe metrics (`--layers`, and the tail of every traced run): one public
/// function called in isolation with fixed seeded inputs. Prefix = crate or
/// module. Small = 8 samples (about 100 B on the wire), bulk = 4096 samples
/// (32 KiB).
pub const PROBES: [PerLayer; 37] = [
    lower("crypto.schnorr_sign_us", "us"),
    lower("crypto.schnorr_verify_us", "us"),
    lower("crypto.dh_keygen_us", "us"),
    lower("crypto.dh_derive_us", "us"),
    lower("crypto.aead_seal_small_us", "us"),
    higher("crypto.aead_seal_bulk_mib_s", "MiB/s"),
    higher("crypto.aead_open_bulk_mib_s", "MiB/s"),
    higher("crypto.sha256_bulk_mib_s", "MiB/s"),
    lower("wire.request_codec_small_us", "us"),
    lower("wire.request_codec_bulk_us", "us"),
    lower("sgx.ecall_roundtrip_us", "us"),
    lower("glimmer.process_batch_small_us_per_item", "us"),
    lower("glimmer.process_batch_bulk_us_per_item", "us"),
    lower("glimmer.session_open_us", "us"),
    lower("glimmer.session_accept_us", "us"),
    lower("device.handshake_us", "us"),
    lower("device.encrypt_small_us", "us"),
    lower("device.encrypt_bulk_us", "us"),
    lower("device.decrypt_small_us", "us"),
    lower("device.decrypt_bulk_us", "us"),
    lower("services.verify_endorsement_us", "us"),
    lower("gateway.pool_build_ms_per_slot", "ms"),
    lower("gateway.open_session_us", "us"),
    lower("gateway.complete_session_us", "us"),
    lower("gateway.install_mask_us", "us"),
    lower("gateway.close_session_us", "us"),
    lower("gateway.submit_us", "us"),
    lower("gateway.submit_batch_us_per_item", "us"),
    lower("gateway.drain_small_us_per_item", "us"),
    lower("gateway.drain_bulk_us_per_item", "us"),
    lower("gateway.checkpoint_full_ms", "ms"),
    lower("gateway.checkpoint_delta_ms", "ms"),
    lower("gateway.checkpoint_streamed_ms", "ms"),
    lower("gateway.restore_chain_ms", "ms"),
    lower("gateway.snapshot_codec_ms", "ms"),
    lower("net.frame_codec_small_us", "us"),
    lower("net.frame_codec_bulk_us", "us"),
];

/// Names of the spans the benchmark records around its own calls into the
/// gateway, in the order `trace::SpanName` numbers them. Each is reported
/// as `span.<name>_us`: mean self time per request.
pub const SPAN_NAMES: [&str; 14] = [
    "device.encrypt",
    "net.submit_ack",
    "net.reply_wait",
    "device.decrypt",
    "net.connect",
    "net.open_session",
    "device.handshake",
    "net.complete_session",
    "net.install_mask",
    "net.close_session",
    "gateway.submit_batch",
    "gateway.drain",
    "gateway.checkpoint_delta",
    "gateway.restore_chain",
];

/// Traced-run metrics: span self times, then the gateway's own public
/// counters read after the run (`Gateway::stats()` / `telemetry()`).
pub const TRACED: [PerLayer; 34] = [
    lower("span.device.encrypt_us", "us"),
    lower("span.net.submit_ack_us", "us"),
    lower("span.net.reply_wait_us", "us"),
    lower("span.device.decrypt_us", "us"),
    lower("span.net.connect_us", "us"),
    lower("span.net.open_session_us", "us"),
    lower("span.device.handshake_us", "us"),
    lower("span.net.complete_session_us", "us"),
    lower("span.net.install_mask_us", "us"),
    lower("span.net.close_session_us", "us"),
    lower("span.gateway.submit_batch_us", "us"),
    lower("span.gateway.drain_us", "us"),
    lower("span.gateway.checkpoint_delta_us", "us"),
    lower("span.gateway.restore_chain_us", "us"),
    lower("gateway.queue_wait_mean_us", "us"),
    higher("gateway.batch_size_mean", "count"),
    lower("gateway.drain_busy_fraction", "ratio"),
    lower("gateway.admission_rejected", "count"),
    lower("pool.ecall_mean_us", "us"),
    lower("sgx.ecalls_per_request", "count"),
    lower("sgx.cycles_per_request", "count"),
    lower("net.frames_in_per_request", "count"),
    lower("net.frames_out_per_request", "count"),
    lower("frontend.poll_mean_us", "us"),
    lower("frontend.wake_to_poll_mean_us", "us"),
    lower("frontend.timer_fires_per_s", "1/s"),
    lower("checkpoint.slots_exported", "count"),
    higher("checkpoint.slots_skipped", "count"),
    lower("checkpoint.delta_bytes_mean", "B"),
    lower("device.busy_fraction", "ratio"),
    lower("ledger.unaccounted_fraction", "ratio"),
    lower("wait_p99_ms", "ms"),
    higher("wait_samples", "count"),
    higher("traced_endorse_per_s", "1/s"),
];

/// Every per-layer metric a `--trace 1` run prints, in print order.
pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    TRACED.iter().chain(PROBES.iter())
}

/// The `BENCHMARK.json` document, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::object([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::object([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .map(|m| {
            Json::object([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::object([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(layers)),
    ])
}

/// The driver's rule for a workload or metric name.
pub fn valid_name(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(per_layer().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(per_layer().count() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_span_has_its_metric() {
        for (i, span) in SPAN_NAMES.iter().enumerate() {
            assert_eq!(TRACED[i].name, format!("span.{span}_us"));
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json());
    }
}
