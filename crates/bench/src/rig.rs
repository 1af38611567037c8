//! The one fixture the serving experiments (E11–E16, E18–E20) and the
//! gateway benches stand on.
//!
//! A [`Rig`] is one tenant's side of a serving run: its planned traffic,
//! its endorsement key, and the zero-sum masks of every round. From that it
//! builds the gateway configuration, the gateway itself, attested device
//! sessions, encrypted requests, and — for the hosting baseline — a
//! per-device enclave host. Every seed and size is an argument, so two runs
//! that pass the same arguments in the same order are bit-identical: the
//! enclaves' DRBG streams see nothing the caller did not spell out.
//!
//! Two connect orders exist because those streams observe the order:
//! [`Rig::connect`] finishes one device before opening the next,
//! [`Rig::connect_phased`] runs each lifecycle step across every device
//! before the next step, which is the order a task-per-session front end
//! produces (E15, E19).

use glimmer_core::blinding::{BlindingService, MaskShare};
use glimmer_core::host::GlimmerDescriptor;
use glimmer_core::protocol::{
    BatchOutcome, Contribution, ContributionPayload, PrivateData, ProcessResponse,
};
use glimmer_core::remote::{IotDeviceSession, RemoteGlimmerHost};
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_crypto::drbg::Drbg;
use glimmer_gateway::{Gateway, GatewayConfig, GatewayResponse, TenantConfig, TenantQuota};
use glimmer_workloads::gateway::{
    DeviceTraffic, GatewayTrafficWorkload, SessionStream, TenantTraffic, TenantTrafficSpec,
    TrafficEvent,
};
use glimmer_workloads::iot::DeviceBehaviour;
use sgx_sim::{AttestationService, PlatformConfig};
use std::ops::Range;

/// The tenant every single-tenant serving experiment runs.
pub const APP: &str = "iot-telemetry.example";

/// Readings per contribution in the hand-made single-tenant fixtures.
pub const DIM: usize = 8;

/// Established device sessions, indexed by device: `(session id, device
/// side of the channel)`. The gateway hands out session ids in increasing
/// order, so a connect order is also a sort order — [`decrypt`] relies on
/// it to find a reply's session without a scan.
pub type Sessions = Vec<(u64, IotDeviceSession)>;

/// One tenant's serving fixture.
pub struct Rig {
    /// The tenant's traffic: `tenants[0]` holds its devices, `schedule`
    /// their arrival order.
    pub workload: GatewayTrafficWorkload,
    /// The tenant's endorsement key material.
    pub material: ServiceKeyMaterial,
    /// `masks[round][device]`: the zero-sum blinding masks of every round.
    pub masks: Vec<Vec<MaskShare>>,
}

impl Rig {
    /// The E11 traffic generator's fixture: `sessions` devices sending
    /// `rounds` requests each on an interleaved schedule, a
    /// `misbehaving_fraction` of them out of range. The key material is
    /// the next thing drawn from `rng`.
    #[must_use]
    pub fn generate(
        sessions: usize,
        rounds: usize,
        dimension: usize,
        misbehaving_fraction: f64,
        seed: [u8; 32],
        blinding_seed: [u8; 32],
        rng: &mut Drbg,
    ) -> Rig {
        let workload = GatewayTrafficWorkload::generate(
            &[TenantTrafficSpec {
                name: APP.to_string(),
                devices: sessions,
                requests_per_device: rounds,
                dimension,
                misbehaving_fraction,
            }],
            seed,
        );
        Rig::new(workload, rounds, dimension, blinding_seed, rng)
    }

    /// A hand-made fixture: devices `ids` of tenant `app`, each sending
    /// `samples(device, round)` in round `0..rounds`, arriving round-major
    /// in device order. The key material is the next thing drawn from
    /// `rng`.
    #[must_use]
    pub fn synthetic(
        app: &str,
        ids: &[u64],
        rounds: usize,
        dimension: usize,
        samples: impl Fn(usize, usize) -> Vec<f64>,
        blinding_seed: [u8; 32],
        rng: &mut Drbg,
    ) -> Rig {
        let devices = ids
            .iter()
            .enumerate()
            .map(|(device, &device_id)| DeviceTraffic {
                device_id,
                behaviour: DeviceBehaviour::Honest,
                requests: (0..rounds).map(|round| samples(device, round)).collect(),
            })
            .collect();
        let schedule = (0..rounds)
            .flat_map(|request| {
                (0..ids.len()).map(move |device| TrafficEvent {
                    tenant: 0,
                    device,
                    request,
                })
            })
            .collect();
        let workload = GatewayTrafficWorkload {
            tenants: vec![TenantTraffic {
                name: app.to_string(),
                devices,
            }],
            schedule,
        };
        Rig::new(workload, rounds, dimension, blinding_seed, rng)
    }

    /// [`Rig::synthetic`] for an honest fleet of [`APP`]: devices
    /// `0..sessions`, every request `sample` in all [`DIM`] readings.
    #[must_use]
    pub fn uniform(
        sessions: usize,
        rounds: usize,
        sample: f64,
        blinding_seed: [u8; 32],
        rng: &mut Drbg,
    ) -> Rig {
        let ids: Vec<u64> = (0..sessions as u64).collect();
        let samples = |_, _| vec![sample; DIM];
        Rig::synthetic(APP, &ids, rounds, DIM, samples, blinding_seed, rng)
    }

    fn new(
        workload: GatewayTrafficWorkload,
        rounds: usize,
        dimension: usize,
        blinding_seed: [u8; 32],
        rng: &mut Drbg,
    ) -> Rig {
        let material = ServiceKeyMaterial::generate(rng).unwrap();
        let ids: Vec<u64> = workload.tenants[0]
            .devices
            .iter()
            .map(|d| d.device_id)
            .collect();
        let blinding = BlindingService::new(blinding_seed);
        let masks = (0..rounds as u64)
            .map(|round| blinding.zero_sum_masks(round, &ids, dimension))
            .collect();
        Rig {
            workload,
            material,
            masks,
        }
    }

    /// The tenant's name (the application id its contributions carry).
    #[must_use]
    pub fn app(&self) -> &str {
        &self.workload.tenants[0].name
    }

    /// The tenant's devices.
    #[must_use]
    pub fn devices(&self) -> &[DeviceTraffic] {
        &self.workload.tenants[0].devices
    }

    /// The gateway configuration: `slots` pool slots on `shards` workers,
    /// queue depth sized so the whole schedule can be admitted before the
    /// first drain.
    #[must_use]
    pub fn config(&self, slots: usize, shards: usize) -> GatewayConfig {
        GatewayConfig {
            slots_per_tenant: slots,
            shards,
            max_queue_depth: self.workload.total_requests().max(256),
            ..GatewayConfig::default()
        }
    }

    /// The tenant quota with every session live at once and the whole
    /// schedule queued before the first drain — what the concurrency-scale
    /// experiments (E15, E19) need once they outgrow the default (1024
    /// sessions, 4096 queued).
    #[must_use]
    pub fn all_live_quota(&self) -> TenantQuota {
        TenantQuota {
            max_sessions: self.devices().len().max(1024),
            max_queued: self.workload.total_requests().max(4096),
            endorsement_budget: None,
        }
    }

    /// The tenant list a gateway (or a restore) is built from.
    #[must_use]
    pub fn tenants(&self, quota: TenantQuota) -> Vec<TenantConfig> {
        let mut tenant = TenantConfig::new(
            self.app(),
            GlimmerDescriptor::iot_default(Vec::new()),
            self.material.secret_bytes(),
        );
        tenant.quota = quota;
        vec![tenant]
    }

    /// Builds the tenant's gateway. `rng` stands in for the machine
    /// identity: a restore reproduces the platforms from the same seed.
    #[must_use]
    pub fn gateway(
        &self,
        config: GatewayConfig,
        avs: &mut AttestationService,
        rng: &mut Drbg,
    ) -> Gateway {
        Gateway::new(config, self.tenants(TenantQuota::default()), avs, rng).unwrap()
    }

    /// Connects every device, device-major: open, handshake, complete and
    /// install every round's mask for one device before the next opens.
    pub fn connect(&self, gateway: &Gateway, avs: &AttestationService, rng: &mut Drbg) -> Sessions {
        let approved = gateway.measurement(self.app()).unwrap();
        (0..self.devices().len())
            .map(|device| {
                let (sid, offer) = gateway.open_session(self.app()).unwrap();
                let (accept, session) =
                    IotDeviceSession::connect(&offer, avs, &approved, rng).unwrap();
                gateway.complete_session(sid, &accept).unwrap();
                for round in &self.masks {
                    gateway.install_mask(sid, &round[device]).unwrap();
                }
                (sid, session)
            })
            .collect()
    }

    /// Connects every device in phases: all opens, then all handshakes in
    /// device order, then the masks round-major.
    pub fn connect_phased(
        &self,
        gateway: &Gateway,
        avs: &AttestationService,
        rng: &mut Drbg,
    ) -> Sessions {
        let approved = gateway.measurement(self.app()).unwrap();
        let opened: Vec<_> = (0..self.devices().len())
            .map(|_| gateway.open_session(self.app()).unwrap())
            .collect();
        let sessions: Sessions = opened
            .into_iter()
            .map(|(sid, offer)| {
                let (accept, session) =
                    IotDeviceSession::connect(&offer, avs, &approved, rng).unwrap();
                gateway.complete_session(sid, &accept).unwrap();
                (sid, session)
            })
            .collect();
        for round in &self.masks {
            for (mask, (sid, _)) in round.iter().zip(&sessions) {
                gateway.install_mask(*sid, mask).unwrap();
            }
        }
        sessions
    }

    /// The hosting baseline the pool amortizes away: a freshly built,
    /// provisioned enclave host for `device` alone, the device attested and
    /// connected, every round's mask bound to it.
    pub fn host_device(
        &self,
        device: usize,
        avs: &mut AttestationService,
        rng: &mut Drbg,
    ) -> (RemoteGlimmerHost, IotDeviceSession) {
        let mut host = RemoteGlimmerHost::new(
            GlimmerDescriptor::iot_default(Vec::new()),
            PlatformConfig::default(),
            rng,
            avs,
        )
        .unwrap();
        host.client_mut()
            .install_service_key(&self.material.secret_bytes())
            .unwrap();
        let approved = host.measurement();
        let offer = host.attestation_offer().unwrap();
        let (accept, session) = IotDeviceSession::connect(&offer, avs, &approved, rng).unwrap();
        host.accept_device(&accept).unwrap();
        for round in &self.masks {
            host.install_mask(&round[device]).unwrap();
        }
        (host, session)
    }

    /// `device`'s planned contribution for `round`.
    #[must_use]
    pub fn contribution(&self, device: usize, round: usize) -> Contribution {
        let traffic = &self.devices()[device];
        Contribution {
            app_id: self.app().to_string(),
            client_id: traffic.device_id,
            round: round as u64,
            payload: ContributionPayload::IotReadings {
                samples: traffic.requests[round].clone(),
            },
        }
    }

    /// `device`'s planned contribution for `round`, encrypted on its
    /// session.
    pub fn request(&self, session: &mut IotDeviceSession, device: usize, round: usize) -> Vec<u8> {
        session.encrypt_request(self.contribution(device, round), PrivateData::None)
    }

    /// The arrival schedule restricted to `rounds`, as `(device, round)`.
    pub fn schedule(&self, rounds: Range<usize>) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.workload
            .schedule
            .iter()
            .filter(move |event| rounds.contains(&event.request))
            .map(|event| (event.device, event.request))
    }

    /// Encrypts `events` — `(device, round)` pairs — in order, each on its
    /// device's session: the `(session id, ciphertext)` pairs the submit
    /// verbs take.
    pub fn encrypt(
        &self,
        sessions: &mut [(u64, IotDeviceSession)],
        events: impl IntoIterator<Item = (usize, usize)>,
    ) -> Vec<(u64, Vec<u8>)> {
        events
            .into_iter()
            .map(|(device, round)| {
                let (sid, session) = &mut sessions[device];
                (*sid, self.request(session, device, round))
            })
            .collect()
    }

    /// Encrypts and submits `events` one request at a time, then drains
    /// the gateway empty.
    pub fn serve(
        &self,
        gateway: &Gateway,
        sessions: &mut [(u64, IotDeviceSession)],
        events: impl IntoIterator<Item = (usize, usize)>,
    ) -> Vec<GatewayResponse> {
        for (sid, ciphertext) in self.encrypt(sessions, events) {
            gateway.submit(sid, ciphertext).unwrap();
        }
        gateway.drain_all().unwrap()
    }

    /// Submits each session's arrival-ordered stream as one `submit_many`
    /// group, in stream order.
    pub fn submit_streams(
        &self,
        gateway: &Gateway,
        sessions: &mut [(u64, IotDeviceSession)],
        streams: &[SessionStream],
    ) {
        for stream in streams {
            let (sid, session) = &mut sessions[stream.device];
            let requests = stream
                .requests
                .iter()
                .map(|&round| self.request(session, stream.device, round))
                .collect();
            gateway.submit_many(*sid, requests).unwrap();
        }
    }
}

/// A fresh attestation service. Platforms register on it as gateways and
/// hosts are built, so its state is part of the fixture: runs that must be
/// bit-identical each start from their own.
#[must_use]
pub fn attestation(seed: [u8; 32]) -> AttestationService {
    AttestationService::new(seed)
}

/// ECALLs every slot of `gateway` has made since it was (re)built.
#[must_use]
pub fn ecalls(gateway: &Gateway) -> u64 {
    let stats = gateway.stats();
    stats.slots.iter().map(|row| row.stats.ecalls).sum()
}

/// How many of `responses` carry an endorsement.
#[must_use]
pub fn endorsed(responses: &[GatewayResponse]) -> usize {
    responses
        .iter()
        .filter(|r| matches!(r.outcome, BatchOutcome::Reply { endorsed: true, .. }))
        .count()
}

/// Decrypts `response` on the session it belongs to.
///
/// # Panics
/// Panics if the item failed in the enclave or the reply does not decrypt:
/// a fixture serving its own traffic must not silently time an error path.
#[must_use]
pub fn decrypt(
    sessions: &[(u64, IotDeviceSession)],
    response: &GatewayResponse,
) -> ProcessResponse {
    let BatchOutcome::Reply { ciphertext, .. } = &response.outcome else {
        panic!("item failed: {:?}", response.outcome);
    };
    let at = sessions
        .binary_search_by_key(&response.session_id, |(sid, _)| *sid)
        .expect("reply for unknown session");
    sessions[at].1.decrypt_response(ciphertext).unwrap()
}
