//! Layer probes: each public function a request passes through, called in
//! isolation with fixed seeded inputs, from outside the program. A probe
//! reports the quiet quartile of its timed calls; `black_box` wraps the
//! whole call so the compiler can neither precompute nor delete it.
//!
//! Small = 8 samples (≈100 B sealed), bulk = 4096 samples (32 KiB).

use crate::fixture::{gateway_config, timed_restore, Deployment, Device};
use crate::gen::{DeviceStream, Rng, APP, BULK_DIM, ROUND, SMALL_DIM};
use crate::stats::{percentile, QUIET_TIME};
use crate::trace::{Tracer, NO_PARENT};
use glimmer_core::blinding::MaskShare;
use glimmer_core::host::{GlimmerClient, GlimmerDescriptor};
use glimmer_core::protocol::{
    BatchItem, BatchOutcome, BatchRequest, Contribution, ContributionPayload, PrivateData,
    ProcessRequest, ProcessResponse,
};
use glimmer_core::remote::IotDeviceSession;
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_crypto::aead::AeadKey;
use glimmer_crypto::dh::{DhGroup, DhKeyPair};
use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::schnorr::SigningKey;
use glimmer_crypto::sha256::sha256;
use glimmer_gateway::net::frame::encode_frame;
use glimmer_gateway::net::{FrameDecoder, Request};
use glimmer_gateway::{GatewaySnapshot, SnapshotChain};
use glimmer_wire::WireCodec;
use sgx_sim::{AttestationService, PlatformConfig};
use std::hint::black_box;
use std::time::Instant;

/// How long a probe keeps sampling.
#[derive(Clone, Copy)]
pub struct Budget {
    /// At least this many timed calls (a call over `n` items counts `n`)…
    pub min_calls: usize,
    /// …and at least this much wall, whichever takes longer. Wall, not
    /// timed time: a probe whose untimed preparation dwarfs the timed call
    /// (a 0.2 µs `submit` beside the 0.5 ms drain that empties the queue)
    /// would otherwise run for minutes and past the enclave's per-session
    /// request cap.
    pub min_seconds: f64,
}

impl Budget {
    /// The stand-alone `--layers` budget.
    pub const FULL: Budget = Budget {
        min_calls: 200,
        min_seconds: 0.5,
    };
    /// The tail of a traced run, which must fit beside the workload.
    pub const BRIEF: Budget = Budget {
        min_calls: 20,
        min_seconds: 0.08,
    };
}

/// Timed samples of one or more things measured in the same loop.
struct Samples<const N: usize> {
    nanos: [Vec<f64>; N],
    started: Instant,
    calls: usize,
}

impl<const N: usize> Samples<N> {
    fn new() -> Self {
        Samples {
            nanos: std::array::from_fn(|_| Vec::new()),
            started: Instant::now(),
            calls: 0,
        }
    }

    /// True while the budget wants more; at least three samples always.
    fn wants_more(&self, budget: Budget) -> bool {
        self.nanos[0].len() < 3
            || self.calls < budget.min_calls
            || self.started.elapsed().as_secs_f64() < budget.min_seconds
    }

    /// Times `f` into lane `lane`; `weight` is the calls it stands for.
    fn time<T>(&mut self, lane: usize, weight: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let elapsed = start.elapsed();
        self.nanos[lane].push(elapsed.as_nanos() as f64 / weight as f64);
        if lane == 0 {
            self.calls += weight;
        }
        out
    }

    /// Nanoseconds per call of lane `lane`: the quiet quartile of the
    /// samples, the same estimator the workloads use (`stats::QUIET_TIME`),
    /// so a probe and the run it explains read the host the same way.
    fn quiet_ns(&mut self, lane: usize) -> f64 {
        percentile(&mut self.nanos[lane], QUIET_TIME)
    }
}

/// Nanoseconds per `call`, which is invoked `inner` times per sample so
/// that calls of a microsecond or less are not timing the clock.
fn probe<T>(budget: Budget, inner: usize, mut call: impl FnMut() -> T) -> f64 {
    let mut samples = Samples::<1>::new();
    while samples.wants_more(budget) {
        samples.time(0, inner, || {
            for _ in 1..inner {
                black_box(call());
            }
            call()
        });
    }
    samples.quiet_ns(0)
}

fn mib_per_s(bytes: usize, nanos: f64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / (nanos / 1e9)
}

fn contribution(client_id: u64, rng: &mut Rng, dim: usize) -> Contribution {
    Contribution {
        app_id: APP.to_string(),
        client_id,
        round: ROUND,
        payload: ContributionPayload::IotReadings {
            samples: (0..dim).map(|_| rng.next_f64()).collect(),
        },
    }
}

type Results = Vec<(&'static str, f64)>;

fn crypto(budget: Budget, out: &mut Results) {
    let mut rng = Drbg::from_seed([3; 32]);
    let group = DhGroup::default_group;
    let key = SigningKey::generate(group(), &mut rng).expect("signing key");
    let message = vec![0x5Au8; 160];
    let signature = key.sign(&message).expect("sign");
    out.push((
        "crypto.schnorr_sign_us",
        probe(budget, 1, || key.sign(black_box(&message)).unwrap()) / 1e3,
    ));
    out.push((
        "crypto.schnorr_verify_us",
        probe(budget, 1, || {
            key.verifying_key()
                .verify(black_box(&message), &signature)
                .unwrap()
        }) / 1e3,
    ));
    out.push((
        "crypto.dh_keygen_us",
        probe(budget, 1, || {
            DhKeyPair::generate(group(), &mut rng).unwrap()
        }) / 1e3,
    ));
    let alice = DhKeyPair::generate(group(), &mut rng).expect("dh key");
    let bob = DhKeyPair::generate(group(), &mut rng).expect("dh key");
    out.push((
        "crypto.dh_derive_us",
        probe(budget, 1, || {
            alice
                .derive_shared_key(black_box(bob.public()), b"ctx", 32)
                .unwrap()
        }) / 1e3,
    ));
    let aead = AeadKey::from_master(&[1; 32]);
    let nonce = [9u8; 12];
    let small = vec![0xA5u8; 128];
    let bulk = vec![0xA5u8; 32 * 1024];
    out.push((
        "crypto.aead_seal_small_us",
        probe(budget, 16, || aead.seal(&nonce, b"aad", black_box(&small))) / 1e3,
    ));
    out.push((
        "crypto.aead_seal_bulk_mib_s",
        mib_per_s(
            bulk.len(),
            probe(budget, 1, || aead.seal(&nonce, b"aad", black_box(&bulk))),
        ),
    ));
    let sealed = aead.seal(&nonce, b"aad", &bulk);
    out.push((
        "crypto.aead_open_bulk_mib_s",
        mib_per_s(
            bulk.len(),
            probe(budget, 1, || {
                aead.open(&nonce, b"aad", black_box(&sealed)).unwrap()
            }),
        ),
    ));
    out.push((
        "crypto.sha256_bulk_mib_s",
        mib_per_s(bulk.len(), probe(budget, 1, || sha256(black_box(&bulk)))),
    ));
}

fn codecs(budget: Budget, out: &mut Results) {
    let mut rng = Rng::new(5);
    for (dim, inner, wire_name, frame_name) in [
        (
            SMALL_DIM,
            32,
            "wire.request_codec_small_us",
            "net.frame_codec_small_us",
        ),
        (
            BULK_DIM,
            1,
            "wire.request_codec_bulk_us",
            "net.frame_codec_bulk_us",
        ),
    ] {
        let request = ProcessRequest {
            contribution: contribution(7, &mut rng, dim),
            private_data: PrivateData::None,
        };
        out.push((
            wire_name,
            probe(budget, inner, || {
                ProcessRequest::from_wire(&black_box(&request).to_wire()).unwrap()
            }) / 1e3,
        ));
        // What one `Submit` costs in framing alone, both directions: the
        // client's encode and the front door's incremental decode.
        let submit = Request::Submit {
            session_id: 7,
            ciphertext: vec![0xC3; request.to_wire().len() + 28],
        };
        out.push((
            frame_name,
            probe(budget, inner, || {
                let mut bytes = Vec::new();
                encode_frame(&black_box(&submit).to_frame(), &mut bytes);
                let mut frames = Vec::new();
                FrameDecoder::new(1 << 20)
                    .feed(&bytes, &mut frames)
                    .unwrap();
                Request::from_frame(&frames[0]).unwrap()
            }) / 1e3,
        ));
    }
}

/// A provisioned Glimmer enclave without the gateway around it: the calls
/// `pool.rs` makes, plus the device's side of each.
struct Enclave {
    client: GlimmerClient,
    avs: AttestationService,
    material: ServiceKeyMaterial,
    rng: Drbg,
    next_sid: u64,
}

impl Enclave {
    fn new() -> Self {
        let mut rng = Drbg::from_seed([5; 32]);
        let mut avs = AttestationService::new([6; 32]);
        let material = ServiceKeyMaterial::generate(&mut rng).expect("service key");
        let mut client = GlimmerClient::new(
            GlimmerDescriptor::iot_default(Vec::new()),
            PlatformConfig::default(),
            &mut rng,
        )
        .expect("enclave");
        client.provision_platform(&mut avs);
        client
            .install_service_key(&material.secret_bytes())
            .expect("service key install");
        Enclave {
            client,
            avs,
            material,
            rng,
            next_sid: 1,
        }
    }

    /// An established, masked session and its device.
    fn device(&mut self, dim: usize) -> Device {
        let sid = self.next_sid;
        self.next_sid += 1;
        let offer = self.client.open_session(sid).expect("open_session");
        let approved = self.client.measurement();
        let (accept, session) =
            IotDeviceSession::connect(&offer, &self.avs, &approved, &mut self.rng)
                .expect("connect");
        self.client
            .accept_session(sid, &accept)
            .expect("accept_session");
        let mask = MaskShare {
            round: ROUND,
            client_id: sid,
            mask: (0..dim as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        };
        self.client.install_session_mask(sid, &mask).expect("mask");
        // Probes measure the honest path only.
        Device::new(
            sid,
            DeviceStream::new(1, "probe", sid, dim, 0),
            session,
            mask,
        )
    }
}

fn glimmer_and_device(budget: Budget, out: &mut Results) {
    let mut enclave = Enclave::new();
    let mut off = Tracer::new(false, Instant::now());
    out.push((
        "sgx.ecall_roundtrip_us",
        probe(budget, 8, || enclave.client.status().unwrap()) / 1e3,
    ));

    // Handshake, both sides, in one loop: the enclave's SESSION_OPEN, the
    // device's quote verification + DH, the enclave's SESSION_ACCEPT.
    let approved = enclave.client.measurement();
    let mut samples = Samples::<3>::new();
    while samples.wants_more(budget) {
        let sid = enclave.next_sid;
        enclave.next_sid += 1;
        let offer = samples.time(0, 1, || enclave.client.open_session(sid).unwrap());
        let (accept, _) = samples.time(1, 1, || {
            IotDeviceSession::connect(&offer, &enclave.avs, &approved, &mut enclave.rng).unwrap()
        });
        samples.time(2, 1, || {
            enclave.client.accept_session(sid, &accept).unwrap()
        });
        enclave.client.close_session(sid).expect("close_session");
    }
    out.push(("glimmer.session_open_us", samples.quiet_ns(0) / 1e3));
    out.push(("device.handshake_us", samples.quiet_ns(1) / 1e3));
    out.push(("glimmer.session_accept_us", samples.quiet_ns(2) / 1e3));

    for (dim, sessions, per_session, batch_name, encrypt_name, decrypt_name) in [
        (
            SMALL_DIM,
            16,
            16,
            "glimmer.process_batch_small_us_per_item",
            "device.encrypt_small_us",
            "device.decrypt_small_us",
        ),
        (
            BULK_DIM,
            8,
            1,
            "glimmer.process_batch_bulk_us_per_item",
            "device.encrypt_bulk_us",
            "device.decrypt_bulk_us",
        ),
    ] {
        let mut devices: Vec<Device> = (0..sessions).map(|_| enclave.device(dim)).collect();
        let items = sessions * per_session;
        // One PROCESS_BATCH per sample over fresh ciphertexts (the enclave
        // refuses a replayed nonce), encryption and decryption timed as the
        // device's own lanes.
        let mut samples = Samples::<3>::new();
        let mut endorsement = None;
        while samples.wants_more(budget) {
            let mut batch = BatchRequest::default();
            for _ in 0..per_session {
                for device in &mut devices {
                    let planned = device.stream.next_honest();
                    let ciphertext =
                        samples.time(1, 1, || device.seal(planned, &mut off, NO_PARENT, 0));
                    device.pending.clear();
                    batch.items.push(BatchItem {
                        session_id: device.sid,
                        ciphertext,
                    });
                }
            }
            let reply = samples.time(0, items, || enclave.client.process_batch(&batch).unwrap());
            for (item, device) in reply.items.iter().zip(devices.iter().cycle()) {
                let BatchOutcome::Reply { ciphertext, .. } = &item.outcome else {
                    panic!("probe batch item failed: {:?}", item.outcome);
                };
                let response = samples.time(2, 1, || {
                    device.session.decrypt_response(ciphertext).unwrap()
                });
                if let ProcessResponse::Endorsed(e) = response {
                    endorsement = Some(e);
                }
            }
        }
        out.push((batch_name, samples.quiet_ns(0) / 1e3));
        out.push((encrypt_name, samples.quiet_ns(1) / 1e3));
        out.push((decrypt_name, samples.quiet_ns(2) / 1e3));
        if dim == SMALL_DIM {
            // The call `glimmer_services::iot` makes per endorsement.
            let endorsement = endorsement.expect("probe batches endorse");
            let verifier = enclave.material.verifier();
            out.push((
                "services.verify_endorsement_us",
                probe(budget, 1, || {
                    verifier.verify(black_box(&endorsement)).unwrap()
                }) / 1e3,
            ));
        }
    }
}

/// In-process session on a probe gateway.
fn gateway_device(
    deployment: &Deployment,
    rng: &mut Drbg,
    client_id: u64,
    dim: usize,
    samples: Option<&mut Samples<4>>,
) -> Device {
    let gateway = &deployment.gateway;
    let approved = gateway.measurement(APP).expect("measurement");
    let mask = MaskShare {
        round: ROUND,
        client_id,
        mask: (0..dim as u64)
            .map(|i| i.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .collect(),
    };
    let mut untimed = Samples::<4>::new();
    let samples = samples.unwrap_or(&mut untimed);
    let (sid, offer) = samples.time(0, 1, || gateway.open_session(APP).unwrap());
    let (accept, session) =
        IotDeviceSession::connect(&offer, &deployment.avs, &approved, rng).expect("connect");
    samples.time(1, 1, || gateway.complete_session(sid, &accept).unwrap());
    samples.time(2, 1, || gateway.install_mask(sid, &mask).unwrap());
    Device::new(
        sid,
        DeviceStream::new(1, "probe", client_id, dim, 0),
        session,
        mask,
    )
}

fn sealed(devices: &mut [Device], count: usize, off: &mut Tracer) -> Vec<(u64, Vec<u8>)> {
    (0..count)
        .map(|k| {
            let device = &mut devices[k % devices.len()];
            device.pending.clear();
            (device.sid, device.next_request(off, NO_PARENT, 0))
        })
        .collect()
}

fn gateway(budget: Budget, out: &mut Results) {
    const SLOTS: usize = 4;
    let config = gateway_config(SLOTS, 0.0);
    let mut off = Tracer::new(false, Instant::now());
    let mut rng = Drbg::from_seed([11; 32]);

    let mut samples = Samples::<1>::new();
    let mut deployment = None;
    while samples.wants_more(budget) {
        deployment = Some(samples.time(0, SLOTS, || Deployment::build(config.clone()).unwrap()));
    }
    out.push(("gateway.pool_build_ms_per_slot", samples.quiet_ns(0) / 1e6));
    let mut deployment = deployment.expect("at least one build");

    // Session verbs: a fresh session per sample, the device's handshake
    // untimed in between.
    let mut samples = Samples::<4>::new();
    let mut client_id = 1000;
    while samples.wants_more(budget) {
        client_id += 1;
        let device = gateway_device(
            &deployment,
            &mut rng,
            client_id,
            SMALL_DIM,
            Some(&mut samples),
        );
        samples.time(3, 1, || {
            deployment.gateway.close_session(device.sid).unwrap()
        });
    }
    out.push(("gateway.open_session_us", samples.quiet_ns(0) / 1e3));
    out.push(("gateway.complete_session_us", samples.quiet_ns(1) / 1e3));
    out.push(("gateway.install_mask_us", samples.quiet_ns(2) / 1e3));
    out.push(("gateway.close_session_us", samples.quiet_ns(3) / 1e3));

    let mut small: Vec<Device> = (0..32)
        .map(|i| gateway_device(&deployment, &mut rng, i, SMALL_DIM, None))
        .collect();
    let mut bulk: Vec<Device> = (0..8)
        .map(|i| gateway_device(&deployment, &mut rng, 100 + i, BULK_DIM, None))
        .collect();
    let gw = &deployment.gateway;

    // submit / submit_batch / drain: admission timed on the way in, the
    // enclave sweep timed on the way out.
    let mut samples = Samples::<1>::new();
    while samples.wants_more(budget) {
        let (sid, ciphertext) = sealed(&mut small, 1, &mut off).remove(0);
        samples.time(0, 1, || gw.submit(sid, ciphertext).unwrap());
        gw.drain_all().expect("drain");
    }
    out.push(("gateway.submit_us", samples.quiet_ns(0) / 1e3));
    let mut samples = Samples::<2>::new();
    while samples.wants_more(budget) {
        let requests = sealed(&mut small, 256, &mut off);
        samples.time(0, 256, || gw.submit_batch(requests).unwrap());
        let replies = samples.time(1, 256, || gw.drain_all().unwrap());
        assert_eq!(replies.len(), 256, "probe drain lost replies");
    }
    out.push((
        "gateway.submit_batch_us_per_item",
        samples.quiet_ns(0) / 1e3,
    ));
    out.push(("gateway.drain_small_us_per_item", samples.quiet_ns(1) / 1e3));
    let mut samples = Samples::<1>::new();
    while samples.wants_more(budget) {
        gw.submit_batch(sealed(&mut bulk, 8, &mut off))
            .expect("submit_batch");
        let replies = samples.time(0, 8, || gw.drain_all().unwrap());
        assert_eq!(replies.len(), 8, "probe drain lost replies");
    }
    out.push(("gateway.drain_bulk_us_per_item", samples.quiet_ns(0) / 1e3));

    // Housekeeping on this 4-slot, 40-session pool.
    let mut full: Option<GatewaySnapshot> = None;
    out.push((
        "gateway.checkpoint_full_ms",
        probe(budget, 1, || full = Some(gw.checkpoint().unwrap())) / 1e6,
    ));
    out.push((
        "gateway.checkpoint_streamed_ms",
        probe(budget, 1, || gw.checkpoint_streamed().unwrap()) / 1e6,
    ));
    let full = gw.checkpoint().expect("checkpoint");
    let mut samples = Samples::<1>::new();
    let mut delta = None;
    while samples.wants_more(budget) {
        // One served request dirties one slot of four.
        gw.submit_batch(sealed(&mut small, 1, &mut off))
            .expect("submit_batch");
        gw.drain_all().expect("drain");
        delta = Some(samples.time(0, 1, || gw.checkpoint_delta(&full.chain_base()).unwrap()));
    }
    out.push(("gateway.checkpoint_delta_ms", samples.quiet_ns(0) / 1e6));
    let deltas = [delta.expect("at least one delta")];
    let mut samples = Samples::<1>::new();
    while samples.wants_more(budget) {
        let chain = SnapshotChain {
            base: &full,
            deltas: &deltas,
        };
        let restored = samples.time(0, 1, || {
            timed_restore(&config, &deployment.material, &mut deployment.avs, chain).unwrap()
        });
        drop(restored);
    }
    out.push(("gateway.restore_chain_ms", samples.quiet_ns(0) / 1e6));
    out.push((
        "gateway.snapshot_codec_ms",
        probe(budget, 1, || {
            GatewaySnapshot::from_bytes(&black_box(&full).to_bytes()).unwrap()
        }) / 1e6,
    ));
}

/// Runs every probe; `(name, value, unit)` in `spec::PROBES` order.
pub fn run(budget: Budget) -> Vec<(&'static str, f64, &'static str)> {
    let mut measured = Vec::new();
    crypto(budget, &mut measured);
    codecs(budget, &mut measured);
    glimmer_and_device(budget, &mut measured);
    gateway(budget, &mut measured);
    crate::spec::PROBES
        .iter()
        .map(|probe| {
            let value = measured
                .iter()
                .find(|(name, _)| *name == probe.name)
                .unwrap_or_else(|| panic!("probe {} was not measured", probe.name))
                .1;
            (probe.name, value, probe.unit)
        })
        .collect()
}
