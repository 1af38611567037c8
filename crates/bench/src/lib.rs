//! Experiment harness for the Glimmers reproduction.
//!
//! The paper (HotOS 2017) has no measurement tables; its figures are
//! architecture and scenario illustrations. This crate therefore defines
//! the experiments derived from the figures, worked examples, and
//! quantitative claims — E1–E10 from the paper, plus the serving
//! experiments built on the gateway: E11 (pooled serving vs per-device
//! hosts), E12 (shard-per-core scaling), E13 (the batched,
//! allocation-lean hot path), E14 (restart recovery: cold rebuild vs
//! sealed checkpoint restore), E15 (the async session front-end), E16
//! (telemetry overhead and fidelity), E18 (incremental + streamed
//! checkpoints), E19 (the socket front door) and E20 (live slot
//! rebalancing) — and implements each one as a reusable function plus a
//! binary that prints the corresponding table. The serving experiments and
//! the gateway benches share one fixture, [`rig`]. The Criterion benches
//! under `benches/` cover the micro-benchmarks (crypto, enclave
//! transitions, blinding, validation, end-to-end pipeline).

// `deny`, not `forbid`: the opt-in `count-allocs` feature installs a
// counting global allocator, whose `GlobalAlloc` impl is necessarily
// `unsafe` and carries a scoped `allow` (see `alloc_track`).
#![deny(unsafe_code)]

pub mod alloc_track;
pub mod experiments;
pub mod report;
pub mod rig;

pub use experiments::*;
pub use report::BenchReport;
