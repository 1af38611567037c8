//! Per-tenant and per-slot serving statistics.
//!
//! Counters live in two places to keep the runtime shared-nothing:
//! admission-side tenant counters are atomics updated by whichever thread
//! observes the event, while per-slot drain counters are owned exclusively
//! by the shard worker that owns the slot and are *merged on read* — a
//! [`crate::Gateway::stats`] call asks every shard for its rows and stitches
//! the snapshot together.

/// Counters the gateway keeps for one tenant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Sessions opened (handshake started).
    pub sessions_opened: u64,
    /// Sessions closed (by the device or the gateway).
    pub sessions_closed: u64,
    /// Requests accepted into a slot queue.
    pub submitted: u64,
    /// Requests that produced an endorsement.
    pub endorsed: u64,
    /// Requests the enclave processed but rejected (failed validation or
    /// missing mask); the reason stays encrypted end-to-end.
    pub rejected: u64,
    /// Requests that failed before the pipeline ran (unknown session,
    /// undecryptable ciphertext).
    pub failed: u64,
    /// Submissions and session opens refused by admission control.
    pub throttled: u64,
    /// Queued requests discarded because their session closed first.
    pub dropped: u64,
}

impl TenantStats {
    /// Requests drained through an enclave so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.endorsed + self.rejected + self.failed
    }
}

/// Counters the gateway keeps for one pool slot (one enclave).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Batch drains performed.
    pub batches: u64,
    /// Items drained across all batches.
    pub items: u64,
    /// Largest single batch drained.
    pub max_batch: u64,
    /// Simulated enclave cycles consumed by this slot's drains.
    pub drain_cycles: u64,
    /// Wall-clock nanoseconds spent inside drains.
    pub drain_nanos: u64,
    /// Sessions currently routed to this slot.
    pub active_sessions: usize,
    /// Requests currently queued on this slot.
    pub queue_depth: usize,
    /// ECALLs made by this slot's platform since the slot was (re)built —
    /// the E14 restart-recovery metric: a freshly provisioned slot pays a
    /// provisioning ECALL plus a handshake pair and a mask install per
    /// session, while a checkpoint-restored slot pays exactly one
    /// `IMPORT_STATE` ECALL regardless of session count.
    pub ecalls: u64,
    /// Queue depth observed at the *start* of this slot's most recent
    /// drain — the live backlog gauge telemetry samples. Unlike
    /// [`SlotStats::queue_depth`] (the residue left *after* draining, which
    /// is zero whenever `max_batch` covers the queue), this captures how
    /// much work each sweep actually found waiting. Per-incarnation: zeroed
    /// on checkpoint capture and restore.
    pub last_drain_queue_depth: usize,
}

impl SlotStats {
    /// Mean simulated cycles per drained item (the batching amortization
    /// shows up directly here).
    #[must_use]
    pub fn cycles_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.drain_cycles as f64 / self.items as f64
        }
    }

    /// Mean wall-clock latency per drained item, in microseconds.
    #[must_use]
    pub fn micros_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.drain_nanos as f64 / 1e3 / self.items as f64
        }
    }

    /// Mean items per batch.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.items as f64 / self.batches as f64
        }
    }
}

/// A labelled snapshot row for one slot.
#[derive(Debug, Clone)]
pub struct SlotStatsRow {
    /// Owning tenant.
    pub tenant: String,
    /// Slot index within the tenant's pool.
    pub slot: usize,
    /// The shard (worker thread) that owns the slot.
    pub shard: usize,
    /// The counters.
    pub stats: SlotStats,
}

/// A labelled snapshot of the whole gateway.
#[derive(Debug, Clone, Default)]
pub struct GatewayStats {
    /// Per-tenant counters, keyed by tenant name.
    pub tenants: Vec<(String, TenantStats)>,
    /// Per-slot counters.
    pub slots: Vec<SlotStatsRow>,
    /// Commands pushed onto shard queues by the submit paths: `submit` costs
    /// one command per request, `submit_many`/`submit_batch` one per shard
    /// per call. The gap between this and `submitted` is the channel and
    /// atomic traffic batched admission saved (experiment E13's metric).
    pub submit_commands: u64,
}

impl GatewayStats {
    /// Total endorsements across tenants.
    #[must_use]
    pub fn total_endorsed(&self) -> u64 {
        self.tenants.iter().map(|(_, t)| t.endorsed).sum()
    }

    /// Total items drained across slots.
    #[must_use]
    pub fn total_items(&self) -> u64 {
        self.slots.iter().map(|s| s.stats.items).sum()
    }

    /// Total simulated enclave cycles spent in drains, across all slots.
    #[must_use]
    pub fn total_drain_cycles(&self) -> u64 {
        self.slots.iter().map(|s| s.stats.drain_cycles).sum()
    }

    /// Simulated drain cycles grouped by owning shard, keyed by shard index.
    #[must_use]
    pub fn drain_cycles_by_shard(&self) -> std::collections::BTreeMap<usize, u64> {
        let mut by_shard = std::collections::BTreeMap::new();
        for row in &self.slots {
            *by_shard.entry(row.shard).or_insert(0) += row.stats.drain_cycles;
        }
        by_shard
    }

    /// Queue depth found waiting at each shard's most recent drain sweep
    /// ([`SlotStats::last_drain_queue_depth`] summed per shard) — the
    /// merged-on-read view of the live backlog gauge the telemetry
    /// snapshot also exports.
    #[must_use]
    pub fn last_drain_queue_depth_by_shard(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut by_shard = std::collections::BTreeMap::new();
        for row in &self.slots {
            *by_shard.entry(row.shard).or_insert(0) += row.stats.last_drain_queue_depth;
        }
        by_shard
    }

    /// The serving makespan in simulated cycles: shards drain their slots
    /// sequentially but run concurrently with each other, so the workload's
    /// critical path is the *busiest* shard's cycle total. With one shard
    /// this equals [`GatewayStats::total_drain_cycles`]; the gap between the
    /// two is exactly what shard-per-core parallelism buys (experiment E12).
    #[must_use]
    pub fn critical_path_drain_cycles(&self) -> u64 {
        self.drain_cycles_by_shard()
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let mut slot = SlotStats::default();
        assert_eq!(slot.cycles_per_item(), 0.0);
        assert_eq!(slot.micros_per_item(), 0.0);
        assert_eq!(slot.mean_batch(), 0.0);
        slot.batches = 2;
        slot.items = 8;
        slot.drain_cycles = 80;
        slot.drain_nanos = 8_000;
        assert!((slot.cycles_per_item() - 10.0).abs() < 1e-12);
        assert!((slot.micros_per_item() - 1.0).abs() < 1e-12);
        assert!((slot.mean_batch() - 4.0).abs() < 1e-12);

        let tenant = TenantStats {
            endorsed: 3,
            rejected: 2,
            failed: 1,
            ..TenantStats::default()
        };
        assert_eq!(tenant.completed(), 6);

        let stats = GatewayStats {
            tenants: vec![("a".into(), tenant)],
            slots: vec![SlotStatsRow {
                tenant: "a".into(),
                slot: 0,
                shard: 0,
                stats: slot,
            }],
            submit_commands: 0,
        };
        assert_eq!(stats.total_endorsed(), 3);
        assert_eq!(stats.total_items(), 8);
    }

    #[test]
    fn shard_cycle_aggregation() {
        let row = |shard: usize, cycles: u64| SlotStatsRow {
            tenant: "a".into(),
            slot: 0,
            shard,
            stats: SlotStats {
                drain_cycles: cycles,
                ..SlotStats::default()
            },
        };
        let empty = GatewayStats::default();
        assert_eq!(empty.critical_path_drain_cycles(), 0);

        let stats = GatewayStats {
            tenants: Vec::new(),
            slots: vec![row(0, 10), row(1, 25), row(0, 5), row(1, 1)],
            submit_commands: 0,
        };
        assert_eq!(stats.total_drain_cycles(), 41);
        let by_shard = stats.drain_cycles_by_shard();
        assert_eq!(by_shard[&0], 15);
        assert_eq!(by_shard[&1], 26);
        // The busiest shard is the critical path.
        assert_eq!(stats.critical_path_drain_cycles(), 26);
    }

    #[test]
    fn queue_depth_gauge_aggregates_by_shard() {
        let row = |shard: usize, depth: usize| SlotStatsRow {
            tenant: "a".into(),
            slot: 0,
            shard,
            stats: SlotStats {
                last_drain_queue_depth: depth,
                ..SlotStats::default()
            },
        };
        let stats = GatewayStats {
            tenants: Vec::new(),
            slots: vec![row(0, 3), row(1, 7), row(0, 2)],
            submit_commands: 0,
        };
        let by_shard = stats.last_drain_queue_depth_by_shard();
        assert_eq!(by_shard[&0], 5);
        assert_eq!(by_shard[&1], 7);
    }
}
