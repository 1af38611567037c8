//! Gateway serving benches: batched-pool vs. per-device endorsement
//! throughput at 1/8/64 concurrent sessions, plus drain throughput vs.
//! shard count.
//!
//! `pooled_batched/N` measures steady-state serving: N established sessions
//! each submit one encrypted contribution and the gateway drains them in
//! batched ECALLs. `per_device/N` measures the Section 4.2 baseline where
//! every device gets a freshly built, provisioned enclave host for its
//! single contribution — the cost the pool amortizes away.
//! `shard_scaling/S` serves an identical 8-slot workload with S worker
//! shards; on a multicore host the drain wall-clock drops as S grows (the
//! deterministic counterpart is E12's critical-path cycle metric).
//! `gateway_batched/*` compares admission paths over identical steady-state
//! traffic: per-request `submit`, bulk `submit_batch` in chunks, and
//! per-session `submit_many` — the batched paths pay the admission atomics
//! and the shard-queue command once per group (E13 is the deterministic
//! counterpart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use glimmer_bench::rig::{self, Rig, Sessions};
use glimmer_core::protocol::BatchOutcome;
use glimmer_core::remote::IotDeviceSession;
use glimmer_crypto::drbg::Drbg;
use glimmer_gateway::frontend::{AsyncGateway, SessionExecutor};
use glimmer_gateway::net::GatewayClient;
use glimmer_gateway::{Gateway, GatewayConfig};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200))
}

/// The steady-state fixture every group shares: `sessions` honest devices
/// that re-send the same one-round contribution each iteration. Returns
/// the rig and the rng its key material left behind.
fn steady_rig(sessions: usize, blinding_seed: u8, rng_seed: u8) -> (Rig, Drbg) {
    let mut rng = Drbg::from_seed([rng_seed; 32]);
    let rig = Rig::uniform(sessions, 1, 0.4, [blinding_seed; 32], &mut rng);
    (rig, rng)
}

/// The gateway configuration of a steady-state bench: iterations queue
/// more than the rig's one planned round, so the depth is fixed.
fn steady_config(rig: &Rig, slots: usize, shards: usize) -> GatewayConfig {
    let mut config = rig.config(slots, shards);
    config.max_queue_depth = 4096;
    config
}

/// A gateway plus established device sessions, ready for steady-state
/// submission benches.
struct Setup {
    rig: Rig,
    gateway: Gateway,
    established: Sessions,
}

fn setup(sessions: usize, slots: usize, shards: usize, seeds: (u8, u8, u8)) -> Setup {
    let (rig, mut rng) = steady_rig(sessions, seeds.0, seeds.1);
    let mut avs = rig::attestation([seeds.2; 32]);
    let gateway = rig.gateway(steady_config(&rig, slots, shards), &mut avs, &mut rng);
    let established = rig.connect(&gateway, &avs, &mut rng);
    Setup {
        rig,
        gateway,
        established,
    }
}

/// Submits every session's contribution one request at a time.
fn submit_each(setup: &mut Setup) {
    for (device, (sid, session)) in setup.established.iter_mut().enumerate() {
        let request = setup.rig.request(session, device, 0);
        setup.gateway.submit(*sid, request).unwrap();
    }
}

/// Drains everything queued and asserts every reply is an endorsement.
fn drain_all_endorsed(gateway: &Gateway) -> usize {
    let responses = gateway.drain_all().unwrap();
    // Fail loudly rather than silently timing an error path (e.g. an
    // exhausted nonce window).
    assert_eq!(
        rig::endorsed(&responses),
        responses.len(),
        "bench traffic is honest"
    );
    responses.len()
}

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("gateway");
    for &sessions in &[1usize, 8, 64] {
        group.throughput(Throughput::Elements(sessions as u64));

        // Steady state: pool built and sessions established outside the loop.
        {
            let mut setup = setup(sessions, (sessions / 16).max(1), 1, (13, 21, 22));
            group.bench_with_input(
                BenchmarkId::new("pooled_batched", sessions),
                &sessions,
                |b, _| {
                    b.iter(|| {
                        submit_each(&mut setup);
                        // Decrypt every reply at the device, matching the
                        // per-device baseline's client-side work.
                        let responses = setup.gateway.drain_all().unwrap();
                        for response in &responses {
                            let _ = rig::decrypt(&setup.established, response);
                        }
                        responses.len()
                    })
                },
            );
        }

        // Baseline: every contribution pays a fresh enclave host.
        {
            let (rig, mut rng) = steady_rig(sessions, 13, 23);
            let mut avs = rig::attestation([22u8; 32]);
            group.bench_with_input(
                BenchmarkId::new("per_device", sessions),
                &sessions,
                |b, _| {
                    b.iter(|| {
                        let mut endorsed = 0usize;
                        for device in 0..sessions {
                            let (mut host, mut session) =
                                rig.host_device(device, &mut avs, &mut rng);
                            let request = rig.request(&mut session, device, 0);
                            let reply = host.relay(&request).unwrap();
                            if session.decrypt_response(&reply).is_ok() {
                                endorsed += 1;
                            }
                        }
                        endorsed
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("gateway_shards");
    const SLOTS: usize = 8;
    const SESSIONS: usize = 16;
    for &shards in &[1usize, 2, 4] {
        group.throughput(Throughput::Elements(SESSIONS as u64));
        let mut setup = setup(SESSIONS, SLOTS, shards, (14, 24, 25));
        group.bench_with_input(
            BenchmarkId::new("shard_scaling", shards),
            &shards,
            |b, _| {
                b.iter(|| {
                    submit_each(&mut setup);
                    drain_all_endorsed(&setup.gateway)
                })
            },
        );
    }
    group.finish();
}

fn bench_batched_submission(c: &mut Criterion) {
    let mut group = c.benchmark_group("gateway_batched");
    const SESSIONS: usize = 64;
    const SLOTS: usize = 2;
    const CHUNK: usize = 16;

    // Per-request baseline: one `submit` call (one admission sequence, one
    // shard-queue command) per request.
    {
        let mut setup = setup(SESSIONS, SLOTS, 1, (15, 26, 27));
        group.throughput(Throughput::Elements(SESSIONS as u64));
        group.bench_function(BenchmarkId::new("per_request", SESSIONS), |b| {
            b.iter(|| {
                submit_each(&mut setup);
                drain_all_endorsed(&setup.gateway)
            })
        });
    }

    // Bulk producer: the same traffic admitted in `submit_batch` chunks —
    // admission reservation and the shard command are paid per chunk.
    {
        let Setup {
            rig,
            gateway,
            mut established,
        } = setup(SESSIONS, SLOTS, 1, (15, 28, 29));
        let devices: Vec<usize> = (0..SESSIONS).collect();
        group.throughput(Throughput::Elements(SESSIONS as u64));
        group.bench_function(BenchmarkId::new("submit_batch", CHUNK), |b| {
            b.iter(|| {
                for window in devices.chunks(CHUNK) {
                    let chunk = rig.encrypt(&mut established, window.iter().map(|&d| (d, 0)));
                    gateway.submit_batch(chunk).unwrap();
                }
                drain_all_endorsed(&gateway)
            })
        });
    }

    // Per-session streams: each session submits CHUNK requests as one
    // `submit_many` group.
    {
        const STREAM_SESSIONS: usize = 16;
        let Setup {
            rig,
            gateway,
            mut established,
        } = setup(STREAM_SESSIONS, SLOTS, 1, (15, 30, 31));
        group.throughput(Throughput::Elements((STREAM_SESSIONS * CHUNK) as u64));
        group.bench_function(BenchmarkId::new("submit_many", CHUNK), |b| {
            b.iter(|| {
                for (device, (sid, session)) in established.iter_mut().enumerate() {
                    let stream = (0..CHUNK)
                        .map(|_| rig.request(session, device, 0))
                        .collect();
                    gateway.submit_many(*sid, stream).unwrap();
                }
                drain_all_endorsed(&gateway)
            })
        });
    }
    group.finish();
}

/// `gateway_async/*`: identical steady-state traffic (64 established
/// sessions, one request each, drain to completion) through the blocking
/// driver and through the async front-end — one executor task per session
/// plus a drainer, every poll on the bench thread. The delta is the cost of
/// the async machinery itself (executor scheduling, waker round trips,
/// completion cells) since the enclave work is identical; the async path's
/// *architectural* win — no thread per parked reply — is E15's metric, not
/// a wall-clock one.
fn bench_async_frontend(c: &mut Criterion) {
    let mut group = c.benchmark_group("gateway_async");
    const SESSIONS: usize = 64;
    const SLOTS: usize = 2;

    // Blocking driver at equal traffic (same shape as pooled_batched, here
    // as the in-group baseline).
    {
        let mut setup = setup(SESSIONS, SLOTS, 1, (15, 32, 33));
        group.throughput(Throughput::Elements(SESSIONS as u64));
        group.bench_function(BenchmarkId::new("blocking_driver", SESSIONS), |b| {
            b.iter(|| {
                submit_each(&mut setup);
                drain_all_endorsed(&setup.gateway)
            })
        });
    }

    // Async front-end: the same traffic as session tasks on one executor.
    {
        let Setup {
            rig,
            gateway,
            established,
        } = setup(SESSIONS, SLOTS, 1, (15, 34, 35));
        let frontend = AsyncGateway::new(gateway);
        let rig = Rc::new(rig);
        let established = Rc::new(RefCell::new(established));
        group.throughput(Throughput::Elements(SESSIONS as u64));
        group.bench_function(BenchmarkId::new("async_session_tasks", SESSIONS), |b| {
            b.iter(|| {
                let mut executor = SessionExecutor::new();
                let endorsed = Rc::new(Cell::new(0usize));
                for i in 0..SESSIONS {
                    let frontend = frontend.clone();
                    let rig = Rc::clone(&rig);
                    let established = Rc::clone(&established);
                    executor.spawn(async move {
                        let (sid, request) = {
                            let (sid, session) = &mut established.borrow_mut()[i];
                            (*sid, rig.request(session, i, 0))
                        };
                        frontend.submit(sid, request).await.unwrap();
                    });
                }
                {
                    let frontend = frontend.clone();
                    let endorsed = Rc::clone(&endorsed);
                    executor.spawn(async move {
                        let mut collected = 0usize;
                        while collected < SESSIONS {
                            let responses = frontend.drain_replies().await.unwrap();
                            assert_eq!(
                                rig::endorsed(&responses),
                                responses.len(),
                                "bench traffic is honest"
                            );
                            collected += responses.len();
                        }
                        endorsed.set(collected);
                    });
                }
                executor.run();
                endorsed.get()
            })
        });
    }
    group.finish();
}

/// The socket front door against the in-process blocking driver at equal
/// traffic: what one submit+drain round costs once a real loopback TCP hop
/// (framing, epoll wakeups, one front-door thread) sits between the
/// devices and the pool.
fn bench_gateway_net(c: &mut Criterion) {
    if !glimmer_gateway::net::supported() {
        return;
    }
    let mut group = c.benchmark_group("gateway_net");
    const SESSIONS: usize = 64;
    const SLOTS: usize = 2;

    // In-process baseline: blocking submits straight into the gateway.
    {
        let mut setup = setup(SESSIONS, SLOTS, 1, (15, 36, 37));
        group.throughput(Throughput::Elements(SESSIONS as u64));
        group.bench_function(BenchmarkId::new("in_process_driver", SESSIONS), |b| {
            b.iter(|| {
                submit_each(&mut setup);
                drain_all_endorsed(&setup.gateway)
            })
        });
    }

    // Socket path: one TCP connection per session, lifecycle established
    // over the wire (the driver is the thing measured, so — like E19 — it
    // takes only data from the rig), then steady-state submit +
    // client-driven drain.
    {
        let (rig, mut rng) = steady_rig(SESSIONS, 15, 38);
        let mut avs = rig::attestation([39u8; 32]);
        let mut config = steady_config(&rig, SLOTS, 1);
        config.evict_stale_period = None;
        config.net.idle_timeout = None;
        config.net.drain_interval = None;
        let gateway = rig.gateway(config, &mut avs, &mut rng);
        let approved = gateway.measurement(rig::APP).unwrap();
        let server = glimmer_gateway::net::serve(AsyncGateway::new(gateway), None).unwrap();
        let mut conns = Vec::with_capacity(SESSIONS);
        for mask in &rig.masks[0] {
            let mut conn = GatewayClient::connect(server.addr()).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let (sid, offer) = conn.open_session(rig::APP).unwrap();
            let (accept, session) =
                IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
            conn.complete_session(sid, &accept).unwrap();
            conn.install_mask(sid, mask).unwrap();
            conns.push((conn, sid, session));
        }
        group.throughput(Throughput::Elements(SESSIONS as u64));
        group.bench_function(BenchmarkId::new("socket_driver", SESSIONS), |b| {
            b.iter(|| {
                for (device, (conn, sid, session)) in conns.iter_mut().enumerate() {
                    let request = rig.request(session, device, 0);
                    conn.submit(*sid, request).unwrap();
                }
                let mut routed = 0u64;
                while routed < SESSIONS as u64 {
                    routed += conns[0].0.drain().unwrap();
                }
                let mut endorsed = 0usize;
                for (conn, sid, _) in conns.iter_mut() {
                    let envelope = conn.next_reply().unwrap();
                    assert_eq!(envelope.session_id, *sid);
                    let BatchOutcome::Reply { endorsed: e, .. } = &envelope.outcome else {
                        panic!("bench item failed: {:?}", envelope.outcome);
                    };
                    assert!(e, "bench traffic is honest");
                    endorsed += 1;
                }
                endorsed
            })
        });
        drop(conns);
        server.stop();
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_serving, bench_shard_scaling, bench_batched_submission, bench_async_frontend,
        bench_gateway_net
}
criterion_main!(benches);
