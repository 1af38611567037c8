//! Deterministic synthetic workload generators.
//!
//! The paper has no datasets: its scenarios are a predictive keyboard with
//! trending topics (Figure 1), crowd-sourced photos for maps, bot detection
//! over interaction signals (Section 4.1), and IoT telemetry (Section 4.2).
//! This crate generates the statistical structure those experiments need —
//! reproducibly, from a single seed — so every number in EXPERIMENTS.md can
//! be regenerated.
//!
//! * [`keyboard`] — per-user keyboard traces over a Zipf-distributed
//!   vocabulary with an injected trending phrase, plus the shared model
//!   schema.
//! * [`adversary`] — adversary mixes: which clients are malicious and which
//!   poisoning strategy they use.
//! * [`botsignals`] — human and bot interaction-signal sessions.
//! * [`photos`] — geotagged photo contributions with honest and spoofed GPS
//!   tracks.
//! * [`iot`] — sensor streams from well-behaved and faulty/malicious devices.
//! * [`gateway`] — interleaved multi-tenant traffic for the gateway serving
//!   experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod botsignals;
pub mod gateway;
pub mod iot;
pub mod keyboard;
pub mod photos;

pub use adversary::{AdversaryMix, ClientRole};
pub use botsignals::{BotSignalWorkload, Session, SessionKind};
pub use gateway::{
    DeviceTraffic, GatewayTrafficWorkload, TenantTraffic, TenantTrafficSpec, TrafficEvent,
};
pub use iot::{IotWorkload, SensorTrace};
pub use keyboard::{KeyboardWorkload, KeyboardWorkloadConfig, UserTrace};
pub use photos::{PhotoContribution, PhotoWorkload};
