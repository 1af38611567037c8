//! E20: live rebalancing recovers a skewed fleet.

use crate::rig::{self, Rig};
use glimmer_core::protocol::ProcessResponse;
use glimmer_core::remote::IotDeviceSession;
use glimmer_crypto::drbg::Drbg;
use std::time::Instant;

/// E20 result: live rebalancing recovers a deliberately skewed fleet.
#[derive(Debug, Clone)]
pub struct E20Report {
    /// Worker shards in the fleet.
    pub shards: usize,
    /// Pool slots (and sessions — one device per slot).
    pub slots: usize,
    /// Requests submitted per session.
    pub requests_per_session: usize,
    /// Total requests served in each run.
    pub requests: usize,
    /// Endorsements in the even-placement baseline run.
    pub endorsed_even: usize,
    /// Endorsements in the skewed-then-rebalanced run.
    pub endorsed_rebalanced: usize,
    /// Critical-path drain cycles (busiest shard) with even placement.
    pub even_critical_cycles: u64,
    /// Critical-path drain cycles with every slot piled on one shard and
    /// no rebalancing — the congestion the rebalancer must undo.
    pub skewed_critical_cycles: u64,
    /// Critical-path drain cycles after the rebalancer spread the skewed
    /// fleet back out, queued work migrating live with each slot.
    pub rebalanced_critical_cycles: u64,
    /// `skewed_critical_cycles / even_critical_cycles` — how bad the pile-up
    /// was (≈ `shards` when the even placement is balanced).
    pub skew_ratio: f64,
    /// `rebalanced_critical_cycles / even_critical_cycles` — the recovery
    /// bar (the bin asserts ≤ 1.5).
    pub recovery_ratio: f64,
    /// Migrations the rebalancer executed to drain the hot shard.
    pub migrations: usize,
    /// Queued requests that travelled live with the migrated slots.
    pub queued_moved: usize,
    /// Wall time of the skewed run's rebalance loop (migrations only, no
    /// drains).
    pub rebalance_ms: f64,
    /// Whether the rebalanced run's replies are bit-identical (as a set;
    /// drain order legitimately shifts with placement) to the unmigrated
    /// even run's.
    pub replies_identical: bool,
}

/// Runs E20: three identically-seeded single-tenant fleets.
///
/// 1. **Even** — slots in their natural round-robin placement, every
///    session submits, drain. This is the balanced baseline.
/// 2. **Skewed** — every slot is first migrated onto shard 0, so the whole
///    workload queues on one worker; drained without rebalancing, its
///    critical path is the sum the baseline had spread `shards` wide.
/// 3. **Rebalanced** — same skewed start, but after the (identical)
///    submissions a [`Rebalancer`](glimmer_gateway::Rebalancer) ticks until
///    its plan is empty, migrating hot slots — queued work and all — onto
///    idle shards before anything drains.
///
/// Identical seeds make the three fleets' enclaves, sessions, and
/// ciphertexts bit-identical, so the runs differ only in slot placement:
/// replies must match the even run bit for bit (no lost or duplicated
/// endorsements across live migration), and the rebalanced critical path
/// must land back near the even baseline.
#[must_use]
pub fn e20_live_rebalance(
    shards: usize,
    slots_per_shard: usize,
    requests_per_session: usize,
    seed: [u8; 32],
) -> E20Report {
    use glimmer_gateway::{Gateway, RebalanceConfig, Rebalancer};

    let slots = shards * slots_per_shard;
    let sessions = slots;
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::uniform(sessions, requests_per_session, 0.3, [21u8; 32], &mut rng);

    // One fixture per run, identically seeded: returns the gateway and
    // every request pre-encrypted in submission order.
    let build = || {
        let mut rng = rng.clone();
        let mut avs = rig::attestation([20u8; 32]);
        let gateway = rig.gateway(rig.config(slots, shards), &mut avs, &mut rng);
        let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);
        let encrypted = rig.encrypt(&mut device_sessions, rig.schedule(0..requests_per_session));
        (gateway, device_sessions, encrypted)
    };

    // Piles every slot onto shard 0 before any traffic arrives — the
    // deliberate skew. (Dogfoods the same migration path the rebalancer
    // uses, just without queued work yet.)
    let consolidate = |gateway: &Gateway| {
        for load in gateway.slot_loads() {
            if load.shard != 0 {
                gateway.migrate_slot(rig::APP, load.slot_id, 0).unwrap();
            }
        }
    };

    let serve = |gateway: &Gateway, encrypted: Vec<(u64, Vec<u8>)>| {
        for (sid, ciphertext) in encrypted {
            gateway.submit(sid, ciphertext).unwrap();
        }
        gateway.drain_all().unwrap()
    };

    // Replies as a comparable set: (session id, endorsed, decrypted reply).
    // Sorted because drain order legitimately depends on slot placement; the
    // *set* may not. Compared after decryption because transport nonces are
    // drawn from the platform RNG, which the migration's sealed export also
    // advances — the reply *contents* (endorsements included) must still be
    // bit-identical.
    let reply_set = |responses: &[glimmer_gateway::GatewayResponse],
                     devices: &[(u64, IotDeviceSession)]| {
        let mut set: Vec<(u64, bool, String)> = responses
            .iter()
            .map(|r| {
                let decrypted = rig::decrypt(devices, r);
                let endorsed = matches!(decrypted, ProcessResponse::Endorsed(_));
                (r.session_id, endorsed, format!("{decrypted:?}"))
            })
            .collect();
        set.sort();
        set
    };

    // Run 1: even placement.
    let (even_gateway, even_devices, encrypted) = build();
    let even_responses = serve(&even_gateway, encrypted);
    let even_set = reply_set(&even_responses, &even_devices);
    let even_critical_cycles = even_gateway.stats().critical_path_drain_cycles();

    // Run 2: skewed, never rebalanced — the congestion baseline.
    let (skewed_gateway, _skewed_devices, encrypted) = build();
    consolidate(&skewed_gateway);
    let skewed_responses = serve(&skewed_gateway, encrypted);
    let skewed_critical_cycles = skewed_gateway.stats().critical_path_drain_cycles();
    assert_eq!(
        even_responses.len(),
        skewed_responses.len(),
        "skew must not change how many replies are served"
    );

    // Run 3: skewed, then rebalanced with the work still queued.
    let (rebalanced_gateway, rebalanced_devices, encrypted) = build();
    consolidate(&rebalanced_gateway);
    for (sid, ciphertext) in encrypted {
        rebalanced_gateway.submit(sid, ciphertext).unwrap();
    }
    let mut rebalancer = Rebalancer::new(RebalanceConfig {
        min_imbalance: 1,
        cooldown_ticks: 0,
        max_moves_per_tick: 1,
    });
    let mut migrations = 0usize;
    let mut queued_moved = 0usize;
    let rebalance_start = Instant::now();
    loop {
        let reports = rebalancer.tick(&rebalanced_gateway).unwrap();
        if reports.is_empty() {
            break;
        }
        migrations += reports.len();
        queued_moved += reports.iter().map(|r| r.queued_moved).sum::<usize>();
    }
    let rebalance_ms = rebalance_start.elapsed().as_secs_f64() * 1e3;
    let rebalanced_responses = rebalanced_gateway.drain_all().unwrap();
    let rebalanced_set = reply_set(&rebalanced_responses, &rebalanced_devices);
    let rebalanced_critical_cycles = rebalanced_gateway.stats().critical_path_drain_cycles();

    let endorsed = |set: &[(u64, bool, String)]| set.iter().filter(|(_, e, _)| *e).count();

    E20Report {
        shards,
        slots,
        requests_per_session,
        requests: sessions * requests_per_session,
        endorsed_even: endorsed(&even_set),
        endorsed_rebalanced: endorsed(&rebalanced_set),
        even_critical_cycles,
        skewed_critical_cycles,
        rebalanced_critical_cycles,
        skew_ratio: skewed_critical_cycles as f64 / even_critical_cycles.max(1) as f64,
        recovery_ratio: rebalanced_critical_cycles as f64 / even_critical_cycles.max(1) as f64,
        migrations,
        queued_moved,
        rebalance_ms,
        replies_identical: even_set == rebalanced_set,
    }
}
