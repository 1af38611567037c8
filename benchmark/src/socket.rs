//! The three socket workloads. The gateway is served by `net::serve` on its
//! own front-door thread; the load generator is this process's two client
//! threads, one blocking `GatewayClient` connection each, every connection
//! multiplexing many device sessions. All loops are closed: a device waits
//! for its endorsement before it contributes again.

use crate::fixture::{
    check_reply, gateway_config, set_up_repeated, timed_restore, Counters, Deployment, Device,
    Outcome, Summary, Tally, ZeroSum,
};
use crate::gen::{self, DeviceStream, Planned, Rng, APP, BAD_PER_MILLE, ROUND};
use crate::stats::{ratio, windowed_percentile, windowed_rate};
use crate::trace::{summarize, SpanName, Tracer, NO_PARENT};
use crate::Opts;
use glimmer_core::blinding::{BlindingService, MaskShare};
use glimmer_core::remote::IotDeviceSession;
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_crypto::drbg::Drbg;
use glimmer_federated::fixed::encode_weights;
use glimmer_gateway::frontend::AsyncGateway;
use glimmer_gateway::net::{self, ClientError, GatewayClient, ServerHandle};
use glimmer_gateway::{Gateway, GatewayConfig, GatewayDelta, SnapshotChain};
use sgx_sim::{AttestationService, Measurement};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads = TCP connections = cores of the reference host.
const CONNS: usize = 2;
/// Pool slots behind the one tenant.
const SLOTS: usize = 4;
/// A hung server must count failures, not hang the run.
const READ_TIMEOUT: Duration = Duration::from_secs(20);
/// One round of housekeeping: this many delta checkpoints, each after one
/// operation dirtied one slot, then this many restores of the round's
/// chain. The timings are summarised per round.
const ROUND_DELTAS: usize = 5;
const ROUND_RESTORES: usize = 3;
/// Lifecycles each connection runs during `session_churn`'s set-up.
const WARM_LIFECYCLES: usize = 8;
/// `wait_p50_ms`/`wait_p90_ms` are taken over up to this many windows of
/// at least this many waits each (see `stats::windowed_percentile`).
const WAIT_WINDOWS: usize = 10;
const WAITS_PER_WINDOW: usize = 100;
/// `endorse_per_s` is taken over windows this long (`stats::windowed_rate`).
const RATE_WINDOW_S: f64 = 0.5;
/// How the measured seconds are split between a socket workload's stages.
const LIGHT_SHARE: f64 = 0.35;
const SATURATED_SHARE: f64 = 0.45;
const HOUSEKEEPING_SHARE: f64 = 0.2;

/// What one client thread brings back from the steady phases: the light
/// phase's waits, when each counted saturated reply arrived, and the two
/// phases' tracers.
type SteadyLane = (Vec<Timed>, Vec<Instant>, [Tracer; 2]);

/// What distinguishes `steady_small` from `steady_bulk`.
pub struct Steady {
    pub dim: usize,
    pub sessions_per_conn: usize,
    /// Sessions in flight per connection in the saturated phase.
    pub outstanding: usize,
}

/// When an operation completed and how long its caller waited, in ms.
type Timed = (Instant, f64);

/// The two end-to-end waits from per-thread samples: merged into time
/// order, then the quiet quartile over windows of each window's percentile.
fn wait_percentiles(mut waits: Vec<Timed>) -> (Vec<f64>, f64, f64) {
    waits.sort_by_key(|(at, _)| *at);
    let waits: Vec<f64> = waits.into_iter().map(|(_, wait)| wait).collect();
    let p50 = windowed_percentile(&waits, 0.5, WAITS_PER_WINDOW, WAIT_WINDOWS);
    let p90 = windowed_percentile(&waits, 0.9, WAITS_PER_WINDOW, WAIT_WINDOWS);
    (waits, p50, p90)
}

/// Completions per second over `[from, from + span_s)`, by
/// `RATE_WINDOW_S`-second windows.
fn rate(completed: &[Instant], from: Instant, span_s: f64) -> f64 {
    let offsets: Vec<f64> = completed
        .iter()
        .filter_map(|at| at.checked_duration_since(from))
        .map(|offset| offset.as_secs_f64())
        .collect();
    windowed_rate(&offsets, span_s, RATE_WINDOW_S)
}

/// A request on the wire: when it was written, when its ack arrived, and
/// the span it hangs under.
struct Flight {
    written: Instant,
    acked: Instant,
    root: u32,
    request: u64,
}

/// One client thread's connection and the devices multiplexed on it.
struct Conn {
    lane: u64,
    client: GatewayClient,
    devices: Vec<Device>,
    flights: Vec<Option<Flight>>,
    by_sid: HashMap<u64, usize>,
    rng: Drbg,
    tally: Tally,
    next_request: u64,
}

impl Conn {
    fn connect(addr: SocketAddr, lane: u64, rng: Drbg) -> Result<Self, String> {
        let mut client = GatewayClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        Ok(Conn {
            lane,
            client,
            devices: Vec::new(),
            flights: Vec::new(),
            by_sid: HashMap::new(),
            rng,
            tally: Tally::default(),
            next_request: 0,
        })
    }

    /// Request ids are unique across threads: the lane is the high part.
    fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        (self.lane << 48) | self.next_request
    }

    fn adopt(&mut self, device: Device) {
        self.by_sid.insert(device.sid, self.devices.len());
        self.devices.push(device);
        self.flights.push(None);
    }

    /// Seals and submits device `at`'s next contribution; the reply is
    /// collected later by [`Conn::collect`].
    fn send(&mut self, at: usize, tracer: &mut Tracer) -> Result<(), String> {
        let planned = self.devices[at].stream.next();
        self.send_planned(at, planned, tracer)
    }

    /// [`Conn::send`] for a contribution the caller drew itself.
    fn send_planned(
        &mut self,
        at: usize,
        planned: Planned,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let request = self.request_id();
        let device = &mut self.devices[at];
        let root = tracer.open(SpanName::Request, NO_PARENT, request);
        let ciphertext = device.seal(planned, tracer, root, request);
        let written = Instant::now();
        let sent = self.client.submit(device.sid, ciphertext);
        let acked = Instant::now();
        tracer.record(SpanName::NetSubmitAck, written, acked, root, request);
        match sent {
            Ok(()) => {
                self.flights[at] = Some(Flight {
                    written,
                    acked,
                    root,
                    request,
                });
                Ok(())
            }
            // A typed refusal is an operation that failed; the run goes on.
            Err(ClientError::Server { code, message }) => {
                device.pending.pop_back();
                self.tally.attempted += 1;
                self.tally
                    .fail(format!("submit refused (code {code}): {message}"));
                tracer.close(root);
                Ok(())
            }
            Err(e) => Err(format!("submit: {e}")),
        }
    }

    /// Blocks for the next pushed reply, checks it, and returns the device
    /// it belonged to, the released blinded vector of a correct
    /// endorsement, and when the request had been written to the socket.
    fn collect(
        &mut self,
        tracer: &mut Tracer,
    ) -> Result<(usize, Option<Vec<u64>>, Instant), String> {
        let envelope = self
            .client
            .next_reply()
            .map_err(|e| format!("waiting for a reply: {e}"))?;
        let arrived = Instant::now();
        let at = *self
            .by_sid
            .get(&envelope.session_id)
            .ok_or_else(|| format!("reply for foreign session {}", envelope.session_id))?;
        let flight = self.flights[at]
            .take()
            .ok_or_else(|| format!("session {} replied twice", envelope.session_id))?;
        tracer.record(
            SpanName::NetReplyWait,
            flight.acked,
            arrived,
            flight.root,
            flight.request,
        );
        let blinded = check_reply(
            &mut self.devices[at],
            &envelope.outcome,
            &mut self.tally,
            tracer,
            flight.root,
            flight.request,
        );
        tracer.close(flight.root);
        Ok((at, blinded, flight.written))
    }

    /// Light phase: one request outstanding, round-robin over the
    /// connection's devices. Returns, per request, when it completed and
    /// its submit-write → reply-checked time in milliseconds.
    fn light(&mut self, tracer: &mut Tracer, deadline: Instant) -> Result<Vec<Timed>, String> {
        let mut waits = Vec::new();
        let mut at = 0;
        while Instant::now() < deadline {
            let failed = self.tally.failed;
            self.send(at, tracer)?;
            if self.flights[at].is_some() {
                let (_, _, written) = self.collect(tracer)?;
                if self.tally.failed == failed {
                    waits.push((Instant::now(), written.elapsed().as_secs_f64() * 1e3));
                }
            }
            at = (at + 1) % self.devices.len();
        }
        Ok(waits)
    }

    /// Saturated phase: `window` devices in flight; a device contributes
    /// again the moment its endorsement is checked. Returns when each
    /// correct reply that beat `deadline` had been checked.
    fn saturated(
        &mut self,
        tracer: &mut Tracer,
        window: usize,
        deadline: Instant,
    ) -> Result<Vec<Instant>, String> {
        let mut counted = Vec::new();
        let mut in_flight = 0;
        for at in 0..window.min(self.devices.len()) {
            self.send(at, tracer)?;
            in_flight += usize::from(self.flights[at].is_some());
        }
        while in_flight > 0 {
            let failed = self.tally.failed;
            let (at, _, _) = self.collect(tracer)?;
            in_flight -= 1;
            let now = Instant::now();
            if now < deadline {
                if self.tally.failed == failed {
                    counted.push(now);
                }
                self.send(at, tracer)?;
                in_flight += usize::from(self.flights[at].is_some());
            }
        }
        Ok(counted)
    }
}

/// A served gateway and the client side connected to it.
struct Stage {
    config: GatewayConfig,
    avs: AttestationService,
    material: ServiceKeyMaterial,
    approved: Measurement,
    gateway: Arc<Gateway>,
    server: ServerHandle,
    conns: Vec<Conn>,
}

impl Stage {
    /// Builds the pool, starts the front door and opens the connections,
    /// then on each connection's thread establishes `sessions_per_conn`
    /// sessions (handshake and mask) and runs `warm_lifecycles` whole
    /// lifecycles, so the churn loop starts on a warm gateway.
    fn set_up(
        opts: &Opts,
        dim: usize,
        sessions_per_conn: usize,
        warm_lifecycles: usize,
    ) -> Result<Self, String> {
        if !net::supported() {
            return Err("the socket front door needs Linux epoll on x86_64/aarch64".to_string());
        }
        let Deployment {
            config,
            avs,
            material,
            gateway,
        } = Deployment::build(gateway_config(SLOTS, opts.seconds))?;
        let approved = gateway.measurement(APP).map_err(|e| e.to_string())?;
        let gateway = Arc::new(gateway);
        let server = net::serve(AsyncGateway::from_arc(Arc::clone(&gateway)), None)
            .map_err(|e| format!("front door: {e}"))?;
        let client_ids: Vec<u64> = (0..(CONNS * sessions_per_conn) as u64).collect();
        let mut masks: VecDeque<MaskShare> =
            BlindingService::new(gen::mask_seed(opts.seed, opts.workload))
                .zero_sum_masks(ROUND, &client_ids, dim)
                .into();
        let mut conns = Vec::new();
        for lane in 0..CONNS as u64 {
            let conn = Conn::connect(
                server.addr(),
                lane,
                gen::drbg(opts.seed, opts.workload, lane),
            )?;
            conns.push((conn, masks.drain(..sessions_per_conn).collect::<Vec<_>>()));
        }
        let (avs_ref, approved_ref, addr) = (&avs, &approved, server.addr());
        let conns = std::thread::scope(|scope| {
            let workers: Vec<_> = conns
                .into_iter()
                .map(|(mut conn, masks)| {
                    scope.spawn(move || -> Result<Conn, String> {
                        let mut tracer = Tracer::new(false, Instant::now());
                        for mask in masks {
                            let stream = DeviceStream::new(
                                opts.seed,
                                opts.workload,
                                mask.client_id,
                                dim,
                                BAD_PER_MILLE,
                            );
                            let device = establish(
                                &mut conn.client,
                                avs_ref,
                                approved_ref,
                                &mut conn.rng,
                                stream,
                                mask,
                                &mut tracer,
                                NO_PARENT,
                                0,
                            )?;
                            conn.adopt(device);
                        }
                        let mut masks = Rng::new(opts.seed ^ conn.lane ^ 0x3A93);
                        for _ in 0..warm_lifecycles {
                            let client_id = conn.request_id();
                            lifecycle(
                                addr,
                                avs_ref,
                                approved_ref,
                                opts,
                                client_id,
                                &mut masks,
                                &mut conn.rng,
                                &mut conn.tally,
                                &mut tracer,
                            )?;
                        }
                        Ok(conn)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().map_err(|_| "set-up thread panicked".to_string())?)
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(Stage {
            config,
            avs,
            material,
            approved,
            gateway,
            server,
            conns,
        })
    }

    /// Hangs up, stops the front door and shuts the pool down.
    fn tear_down(self) -> Result<(), String> {
        drop(self.conns);
        self.server.stop();
        Arc::try_unwrap(self.gateway)
            .map_err(|_| "the front door kept its gateway handle".to_string())?
            .shutdown()
            .map(|_| ())
            .map_err(|e| format!("pool shutdown: {e}"))
    }
}

/// Brings one device from nothing to an established, masked session over
/// an open connection: `open_session`, the device's attested handshake
/// (quote verification and DH), `complete_session`, `install_mask`.
#[allow(clippy::too_many_arguments)]
fn establish(
    client: &mut GatewayClient,
    avs: &AttestationService,
    approved: &Measurement,
    rng: &mut Drbg,
    stream: DeviceStream,
    mask: MaskShare,
    tracer: &mut Tracer,
    parent: u32,
    request: u64,
) -> Result<Device, String> {
    let (sid, offer) = tracer
        .time(SpanName::NetOpenSession, parent, request, || {
            client.open_session(APP)
        })
        .map_err(|e| format!("open_session: {e}"))?;
    let (accept, session) = tracer
        .time(SpanName::DeviceHandshake, parent, request, || {
            IotDeviceSession::connect(&offer, avs, approved, rng)
        })
        .map_err(|e| format!("device handshake: {e}"))?;
    tracer
        .time(SpanName::NetCompleteSession, parent, request, || {
            client.complete_session(sid, &accept)
        })
        .map_err(|e| format!("complete_session: {e}"))?;
    tracer
        .time(SpanName::NetInstallMask, parent, request, || {
            client.install_mask(sid, &mask)
        })
        .map_err(|e| format!("install_mask: {e}"))?;
    Ok(Device::new(sid, stream, session, mask))
}

/// What the housekeeping stage measured.
struct Housekeeping {
    delta_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    delta_bytes: Vec<f64>,
    before: Counters,
    after: Counters,
}

/// The housekeeping stage every socket workload runs between set-up and
/// its serving phases, front door up. Rounds of one shape for `seconds`:
/// a full checkpoint, `ROUND_DELTAS` × (`dirty` one slot →
/// `checkpoint_delta` chained from the last frame), then
/// `ROUND_RESTORES` × `restore_chain` of the round's chain to a serve-ready
/// gateway. Many short rounds rather than one long one, so that the
/// timings sample the whole stage and a disturbed stretch stays a minority.
fn housekeeping(
    stage: &mut Stage,
    seconds: f64,
    mut dirty: impl FnMut(&mut Stage, usize) -> Result<(), String>,
) -> Result<Housekeeping, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let before = Counters::read(&stage.gateway);
    let mut housekeeping = Housekeeping {
        delta_ms: Vec::new(),
        restore_ms: Vec::new(),
        delta_bytes: Vec::new(),
        after: before.clone(),
        before,
    };
    let mut turn = 0;
    loop {
        let full = stage
            .gateway
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        let mut base = full.chain_base();
        let mut deltas: Vec<GatewayDelta> = Vec::new();
        for _ in 0..ROUND_DELTAS {
            dirty(stage, turn)?;
            turn += 1;
            let start = Instant::now();
            let delta = stage
                .gateway
                .checkpoint_delta(&base)
                .map_err(|e| format!("checkpoint_delta: {e}"))?;
            housekeeping
                .delta_ms
                .push(start.elapsed().as_secs_f64() * 1e3);
            base = delta.chain_base();
            deltas.push(delta);
        }
        let live = stage.gateway.live_sessions();
        for _ in 0..ROUND_RESTORES {
            let chain = SnapshotChain {
                base: &full,
                deltas: &deltas,
            };
            let (restored, elapsed_ms) =
                timed_restore(&stage.config, &stage.material, &mut stage.avs, chain)?;
            housekeeping.restore_ms.push(elapsed_ms);
            if restored.live_sessions() != live {
                stage.conns[0]
                    .tally
                    .fail("restored gateway lost or invented sessions");
            }
        }
        housekeeping
            .delta_bytes
            .extend(deltas.iter().map(|d| d.to_bytes().len() as f64));
        if Instant::now() >= deadline {
            break;
        }
    }
    housekeeping.after = Counters::read(&stage.gateway);
    Ok(housekeeping)
}

/// What the serving phases of a socket workload measured.
struct Served {
    waits: Vec<Timed>,
    endorse_per_s: f64,
    /// The gateway's counters around the phases, `wall_s` seconds apart.
    before: Counters,
    after: Counters,
    wall_s: f64,
    tracers: Vec<Tracer>,
    /// Which tracers explain the waits (`span.*`)…
    span_from: Range<usize>,
    /// …and which cover the `busy_s` seconds over which the generator's
    /// own load is judged.
    busy_from: Range<usize>,
    busy_s: f64,
}

/// Folds the threads' tallies, runs the end-of-run checks shared by the
/// socket workloads, and assembles the metrics.
fn finish(
    mut stage: Stage,
    opts: &Opts,
    setup_s: f64,
    housekeeping: Housekeeping,
    served: Served,
) -> Result<Outcome, String> {
    let Served {
        waits,
        endorse_per_s,
        before,
        after,
        wall_s,
        tracers,
        span_from,
        busy_from,
        busy_s,
    } = served;
    let mut tally = Tally::default();
    for conn in &mut stage.conns {
        tally.absorb(std::mem::take(&mut conn.tally));
    }
    tally.verify_sampled(&stage.material);
    let totals = Counters::read(&stage.gateway);
    if (totals.endorsed, totals.rejected) != (tally.endorsed, tally.rejected) {
        tally.fail(format!(
            "gateway counted {} endorsed / {} rejected, the generator expected {} / {}",
            totals.endorsed, totals.rejected, tally.endorsed, tally.rejected
        ));
    }
    if totals.admission_rejected > 0 {
        tally.fail(format!(
            "admission refused {} operations",
            totals.admission_rejected
        ));
    }
    let (waits, wait_p50_ms, wait_p90_ms) = wait_percentiles(waits);
    let spans = summarize(&tracers[span_from.clone()]);
    let summary = Summary {
        setup_s,
        endorse_per_s,
        wait_p50_ms,
        wait_p90_ms,
        waits,
        checkpoint_p50_ms: windowed_percentile(
            &housekeeping.delta_ms,
            0.5,
            ROUND_DELTAS,
            usize::MAX,
        ),
        restore_ms: windowed_percentile(&housekeeping.restore_ms, 0.5, ROUND_RESTORES, usize::MAX),
        delta_bytes: housekeeping.delta_bytes,
        housekeeping: (housekeeping.before, housekeeping.after),
        serving: (before, after),
        serving_s: wall_s,
        admission_rejected: totals.admission_rejected,
        span_self_ns: spans.self_ns,
        span_requests: tracers[span_from]
            .iter()
            .flat_map(|t| t.spans())
            .filter(|s| s.name == SpanName::Request)
            .count() as f64,
        device_busy_fraction: ratio(
            summarize(&tracers[busy_from]).device_ns as f64 / 1e9,
            busy_s * CONNS as f64,
        ),
        unaccounted_fraction: None,
    };
    let metrics = summary.metrics(opts.trace);
    stage.tear_down()?;
    Ok(Outcome {
        tally,
        metrics,
        tracers,
    })
}

/// `steady_small` / `steady_bulk`: established sessions; housekeeping on
/// the fresh pool, then a light phase (one request outstanding per
/// connection) for the waits and a saturated phase (`outstanding` per
/// connection) for the throughput.
pub fn steady(opts: &Opts, shape: &Steady) -> Result<Outcome, String> {
    let (mut stage, setup_s) = set_up_repeated(
        opts.process_start,
        || Stage::set_up(opts, shape.dim, shape.sessions_per_conn, 0),
        Stage::tear_down,
    )?;
    let mut off = Tracer::new(false, Instant::now());

    // One zero-sum mask group spans every session of the run: one honest
    // contribution from each, and the released vectors must sum to the
    // plaintexts' sum.
    let mut group = ZeroSum::new(shape.dim);
    for conn in &mut stage.conns {
        for at in 0..conn.devices.len() {
            let planned = conn.devices[at].stream.next_honest();
            let plain = encode_weights(&planned.samples);
            conn.send_planned(at, planned, &mut off)?;
            if let (_, Some(blinded), _) = conn.collect(&mut off)? {
                group.add(&blinded, &plain);
            }
        }
    }
    if !group.holds(CONNS * shape.sessions_per_conn) {
        stage.conns[0]
            .tally
            .fail("the zero-sum mask group's released vectors do not sum to the plaintexts");
    }

    // Housekeeping comes before the serving phases, on a pool whose every
    // session has served exactly one request, so the state a checkpoint
    // seals does not depend on how fast the phases after it run.
    let housekeeping = housekeeping(
        &mut stage,
        opts.seconds * HOUSEKEEPING_SHARE,
        |stage, turn| {
            let conn = &mut stage.conns[0];
            let at = turn % conn.devices.len();
            conn.send(at, &mut off)?;
            conn.collect(&mut off).map(|_| ())
        },
    )?;

    let epoch = Instant::now();
    let light_s = opts.seconds * LIGHT_SHARE;
    let saturated_s = opts.seconds * SATURATED_SHARE;
    let before = Counters::read(&stage.gateway);
    let phases = std::thread::scope(|scope| {
        let workers: Vec<_> = stage
            .conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || -> Result<SteadyLane, String> {
                    let mut light = Tracer::new(opts.trace, epoch);
                    let light_end = epoch + Duration::from_secs_f64(light_s);
                    let waits = conn.light(&mut light, light_end)?;
                    // Both threads enter the saturated window together.
                    std::thread::sleep(light_end.saturating_duration_since(Instant::now()));
                    let mut saturated = Tracer::new(opts.trace, epoch);
                    let saturated_end = light_end + Duration::from_secs_f64(saturated_s);
                    let counted =
                        conn.saturated(&mut saturated, shape.outstanding, saturated_end)?;
                    Ok((waits, counted, [light, saturated]))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall_s = epoch.elapsed().as_secs_f64();
    let after = Counters::read(&stage.gateway);
    let mut waits = Vec::new();
    let mut counted = Vec::new();
    // Light-phase tracers first, saturated ones after: the light phase is
    // serial per connection, so its spans add up to the wait; the
    // saturated phase is where the generator could be the bottleneck.
    let (mut tracers, mut saturated) = (Vec::new(), Vec::new());
    for (lane_waits, lane_counted, [light, sat]) in phases {
        waits.extend(lane_waits);
        counted.extend(lane_counted);
        tracers.push(light);
        saturated.push(sat);
    }
    tracers.extend(saturated);
    let served = Served {
        waits,
        endorse_per_s: rate(
            &counted,
            epoch + Duration::from_secs_f64(light_s),
            saturated_s,
        ),
        before,
        after,
        wall_s,
        tracers,
        span_from: 0..CONNS,
        busy_from: CONNS..2 * CONNS,
        busy_s: saturated_s,
    };
    finish(stage, opts, setup_s, housekeeping, served)
}

/// One whole device lifecycle on a fresh connection; returns its wall
/// time in milliseconds.
#[allow(clippy::too_many_arguments)]
fn lifecycle(
    addr: SocketAddr,
    avs: &AttestationService,
    approved: &Measurement,
    opts: &Opts,
    client_id: u64,
    masks: &mut Rng,
    rng: &mut Drbg,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let start = Instant::now();
    let root = tracer.open(SpanName::Request, NO_PARENT, client_id);
    let mut client = tracer
        .time(SpanName::NetConnect, root, client_id, || {
            GatewayClient::connect(addr)
        })
        .map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mask = MaskShare {
        round: ROUND,
        client_id,
        mask: (0..gen::SMALL_DIM).map(|_| masks.next_u64()).collect(),
    };
    // Every lifecycle is honest: the workload is about sessions, and the
    // steady workloads already cover rejections.
    let stream = DeviceStream::new(opts.seed, opts.workload, client_id, gen::SMALL_DIM, 0);
    let mut device = establish(
        &mut client,
        avs,
        approved,
        rng,
        stream,
        mask,
        tracer,
        root,
        client_id,
    )?;
    let ciphertext = device.next_request(tracer, root, client_id);
    tracer
        .time(SpanName::NetSubmitAck, root, client_id, || {
            client.submit(device.sid, ciphertext)
        })
        .map_err(|e| format!("submit: {e}"))?;
    let envelope = tracer
        .time(SpanName::NetReplyWait, root, client_id, || {
            client.next_reply()
        })
        .map_err(|e| format!("waiting for a reply: {e}"))?;
    if envelope.session_id != device.sid {
        tally.fail("a reply crossed connections");
    }
    check_reply(
        &mut device,
        &envelope.outcome,
        tally,
        tracer,
        root,
        client_id,
    );
    tracer
        .time(SpanName::NetCloseSession, root, client_id, || {
            client.close_session(device.sid)
        })
        .map_err(|e| format!("close_session: {e}"))?;
    drop(client);
    tracer.close(root);
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

/// `session_churn`: housekeeping on the empty pool, then each client
/// thread runs whole lifecycles back to back.
pub fn churn(opts: &Opts) -> Result<Outcome, String> {
    let (mut stage, setup_s) = set_up_repeated(
        opts.process_start,
        || Stage::set_up(opts, gen::SMALL_DIM, 0, WARM_LIFECYCLES),
        Stage::tear_down,
    )?;
    let addr = stage.server.addr();
    let mut off = Tracer::new(false, Instant::now());
    let mut masks = Rng::new(opts.seed ^ 0xC0DA);
    let housekeeping = housekeeping(&mut stage, opts.seconds * HOUSEKEEPING_SHARE, |stage, _| {
        let conn = &mut stage.conns[0];
        let client_id = conn.request_id();
        lifecycle(
            addr,
            &stage.avs,
            &stage.approved,
            opts,
            client_id,
            &mut masks,
            &mut conn.rng,
            &mut conn.tally,
            &mut off,
        )
        .map(|_| ())
    })?;

    let epoch = Instant::now();
    let churn_s = opts.seconds * (LIGHT_SHARE + SATURATED_SHARE);
    let deadline = epoch + Duration::from_secs_f64(churn_s);
    let before = Counters::read(&stage.gateway);
    let (avs, approved) = (&stage.avs, &stage.approved);
    let lanes = std::thread::scope(|scope| {
        let workers: Vec<_> = stage
            .conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || -> Result<(Vec<Timed>, Tracer), String> {
                    let mut tracer = Tracer::new(opts.trace, epoch);
                    let mut masks = Rng::new(opts.seed ^ conn.lane);
                    let mut waits = Vec::new();
                    while Instant::now() < deadline {
                        let failed = conn.tally.failed;
                        let client_id = conn.request_id();
                        let wait = lifecycle(
                            addr,
                            avs,
                            approved,
                            opts,
                            client_id,
                            &mut masks,
                            &mut conn.rng,
                            &mut conn.tally,
                            &mut tracer,
                        )?;
                        if conn.tally.failed == failed {
                            waits.push((Instant::now(), wait));
                        }
                    }
                    Ok((waits, tracer))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut waits = Vec::new();
    let mut tracers = Vec::new();
    for (lane_waits, tracer) in lanes {
        waits.extend(lane_waits);
        tracers.push(tracer);
    }
    let completed: Vec<Instant> = waits.iter().map(|(at, _)| *at).collect();

    // Every session was closed and every connection hung up: the table
    // must be empty, and the front door must have seen as many closes as
    // accepts once it has processed the last hang-up (the two idle set-up
    // connections stay open until tear-down).
    let settle = Instant::now() + Duration::from_secs(5);
    let mut after = Counters::read(&stage.gateway);
    while after.connections_accepted != after.connections_closed + CONNS as u64
        && Instant::now() < settle
    {
        std::thread::sleep(Duration::from_millis(2));
        after = Counters::read(&stage.gateway);
    }
    if after.connections_accepted != after.connections_closed + CONNS as u64 {
        stage.conns[0].tally.fail(format!(
            "front door accepted {} connections but closed {}",
            after.connections_accepted, after.connections_closed
        ));
    }
    if stage.gateway.live_sessions() != 0 {
        stage.conns[0].tally.fail(format!(
            "{} sessions outlived their lifecycle",
            stage.gateway.live_sessions()
        ));
    }
    let served = Served {
        waits,
        endorse_per_s: rate(&completed, epoch, churn_s),
        before,
        after,
        wall_s,
        tracers,
        span_from: 0..CONNS,
        busy_from: 0..CONNS,
        busy_s: wall_s,
    };
    finish(stage, opts, setup_s, housekeeping, served)
}
