//! The fixture the two gateway fault matrices (`restore.rs`, `rebalance.rs`)
//! stand on: the E11-style two-tenant workload served by a gateway on a
//! [`ManualClock`], every device connected and every request pre-encrypted,
//! parameterised on the gateway config and the seed byte the matrix runs on.
//! Plus [`Hold`], the rendezvous every `BarrierConflict` regression uses to
//! park one operation at a [`CrashPoint`] while it races another.

// Each test binary uses its own subset of this module.
#![allow(dead_code)]

use glimmer_core::blinding::{BlindingService, MaskShare};
use glimmer_core::host::GlimmerDescriptor;
use glimmer_core::protocol::{BatchOutcome, Contribution, ContributionPayload, PrivateData};
use glimmer_core::remote::IotDeviceSession;
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_crypto::drbg::Drbg;
use glimmer_gateway::{CrashHooks, CrashPoint, Gateway, GatewayConfig, ManualClock, TenantConfig};
use glimmer_workloads::gateway::{GatewayTrafficWorkload, TenantTrafficSpec};
use sgx_sim::{AttestationService, PlatformConfig};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};

pub const IOT: &str = "iot-telemetry.example";
pub const KEYBOARD: &str = "nextwordpredictive.com";
pub const DIM: usize = 4;
pub const DEVICES_PER_TENANT: usize = 2;
pub const ROUNDS: usize = 4;
pub const PRE_ROUNDS: usize = 2;

// A matrix's randomness streams, as offsets from its seed byte.
pub const GATEWAY: u8 = 0;
pub const DEVICE: u8 = 1;
pub const AVS: u8 = 2;
const WORKLOAD: u8 = 3;
const MATERIAL: u8 = 4;
const BLINDING: u8 = 5;

/// The seed of `stream` for the matrix running on seed byte `base`.
pub const fn seed(base: u8, stream: u8) -> [u8; 32] {
    [base + stream; 32]
}

/// The matrices' gateway shape on a fresh [`ManualClock`] that never moves.
pub fn config(shards: usize) -> GatewayConfig {
    GatewayConfig {
        slots_per_tenant: 2,
        shards,
        max_batch: 64,
        max_queue_depth: 256,
        platform_config: PlatformConfig::default(),
        clock: Arc::new(ManualClock::new()),
        ..GatewayConfig::default()
    }
}

pub fn tenant_configs(base: u8) -> Vec<TenantConfig> {
    let mut rng = Drbg::from_seed(seed(base, MATERIAL));
    let iot_material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let kb_material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    vec![
        TenantConfig::new(
            IOT,
            GlimmerDescriptor::iot_default(Vec::new()),
            iot_material.secret_bytes(),
        ),
        TenantConfig::new(
            KEYBOARD,
            GlimmerDescriptor::keyboard_range_only(),
            kb_material.secret_bytes(),
        ),
    ]
}

pub fn workload(base: u8) -> GatewayTrafficWorkload {
    GatewayTrafficWorkload::generate(
        &[
            TenantTrafficSpec {
                name: IOT.to_string(),
                devices: DEVICES_PER_TENANT,
                requests_per_device: ROUNDS,
                dimension: DIM,
                misbehaving_fraction: 0.25,
            },
            TenantTrafficSpec {
                name: KEYBOARD.to_string(),
                devices: DEVICES_PER_TENANT,
                requests_per_device: ROUNDS,
                dimension: DIM,
                misbehaving_fraction: 0.25,
            },
        ],
        seed(base, WORKLOAD),
    )
}

pub struct Device {
    pub tenant: String,
    pub session_id: u64,
    pub session: IotDeviceSession,
}

/// One scheduled arrival: which device (index into the fixture's device
/// vector), which round, and the encrypted request. Requests are encrypted
/// exactly once, up front — after a crash, devices retransmit the *stored*
/// ciphertext of every unacknowledged request, exactly like real devices.
pub struct Event {
    pub device: usize,
    pub round: usize,
    pub ciphertext: Vec<u8>,
}

pub struct Fixture {
    pub gateway: Gateway,
    pub avs: AttestationService,
    /// The config the gateway was built with, clock and crash plan
    /// included; a restore of this fixture is handed the same one.
    pub config: GatewayConfig,
    pub devices: Vec<Device>,
    pub events: Vec<Event>,
}

pub fn build_fixture(config: GatewayConfig, base: u8) -> Fixture {
    let workload = workload(base);
    let mut avs = AttestationService::new(seed(base, AVS));
    let gateway = Gateway::new(
        config.clone(),
        tenant_configs(base),
        &mut avs,
        &mut Drbg::from_seed(seed(base, GATEWAY)),
    )
    .unwrap();

    let mut dev_rng = Drbg::from_seed(seed(base, DEVICE));
    let mut devices = Vec::new();
    for (t_idx, tenant) in workload.tenants.iter().enumerate() {
        let approved = gateway.measurement(&tenant.name).unwrap();
        let client_ids: Vec<u64> = tenant.devices.iter().map(|d| d.device_id).collect();
        let blinding = BlindingService::new(seed(base, BLINDING + t_idx as u8));
        let mask_rounds: Vec<Vec<MaskShare>> = (0..ROUNDS)
            .map(|round| blinding.zero_sum_masks(round as u64, &client_ids, DIM))
            .collect();
        for (d_idx, _device) in tenant.devices.iter().enumerate() {
            let (session_id, offer) = gateway.open_session(&tenant.name).unwrap();
            let (accept, session) =
                IotDeviceSession::connect(&offer, &avs, &approved, &mut dev_rng).unwrap();
            gateway.complete_session(session_id, &accept).unwrap();
            for round in &mask_rounds {
                gateway.install_mask(session_id, &round[d_idx]).unwrap();
            }
            devices.push(Device {
                tenant: tenant.name.clone(),
                session_id,
                session,
            });
        }
    }

    let mut events = Vec::new();
    for event in &workload.schedule {
        let device_idx = event.tenant * DEVICES_PER_TENANT + event.device;
        let traffic = &workload.tenants[event.tenant].devices[event.device];
        let samples = traffic.requests[event.request].clone();
        let payload = if workload.tenants[event.tenant].name == IOT {
            ContributionPayload::IotReadings { samples }
        } else {
            ContributionPayload::ModelUpdate { weights: samples }
        };
        let contribution = Contribution {
            app_id: workload.tenants[event.tenant].name.clone(),
            client_id: traffic.device_id,
            round: event.request as u64,
            payload,
        };
        let ciphertext = devices[device_idx]
            .session
            .encrypt_request(contribution, PrivateData::None);
        events.push(Event {
            device: device_idx,
            round: event.request,
            ciphertext,
        });
    }

    Fixture {
        gateway,
        avs,
        config,
        devices,
        events,
    }
}

/// A crash plan that parks the gateway the first time it reaches one
/// [`CrashPoint`], holding every claim the operation owns there, until the
/// test thread has raced its other operation and calls [`Hold::release`].
/// Later firings do not park. Released, the operation goes on, or fails
/// there with `CrashInjected` if the hold was built by [`Hold::crash_at`].
#[derive(Debug)]
pub struct Hold {
    point: CrashPoint,
    crash: bool,
    /// `(parked, released)`.
    state: Mutex<(bool, bool)>,
    turn: Condvar,
}

impl Hold {
    /// Parks at `point`, then lets the operation complete.
    pub fn at(point: CrashPoint) -> Arc<Self> {
        Self::new(point, false)
    }

    /// Parks at `point`, then crashes the operation there.
    pub fn crash_at(point: CrashPoint) -> Arc<Self> {
        Self::new(point, true)
    }

    fn new(point: CrashPoint, crash: bool) -> Arc<Self> {
        Arc::new(Hold {
            point,
            crash,
            state: Mutex::new((false, false)),
            turn: Condvar::new(),
        })
    }

    /// Blocks until the gateway is parked at the point.
    pub fn wait_parked(&self) {
        let state = self.state.lock().unwrap();
        drop(self.turn.wait_while(state, |(parked, _)| !*parked).unwrap());
    }

    /// Lets the parked operation go on.
    pub fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.turn.notify_all();
    }
}

impl CrashHooks for Hold {
    fn reached(&self, point: CrashPoint) -> bool {
        if point != self.point {
            return false;
        }
        let mut state = self.state.lock().unwrap();
        if !state.1 {
            state.0 = true;
            self.turn.notify_all();
            drop(
                self.turn
                    .wait_while(state, |(_, released)| !*released)
                    .unwrap(),
            );
        }
        self.crash
    }
}

/// The shard that owns `tenant`'s pool slot `slot_id` right now.
pub fn shard_of(gateway: &Gateway, tenant: &str, slot_id: usize) -> usize {
    gateway
        .slot_loads()
        .into_iter()
        .find(|l| &*l.tenant == tenant && l.slot_id == slot_id)
        .expect("slot exists")
        .shard
}

/// One decrypted reply, in drain order: (session id, tenant label, decrypted
/// device-side view of the response). Agreement on the *multiset* of these
/// records means agreement on endorsement outcomes and exact endorsement
/// contents (signatures are deterministic); agreement on the *sequence*
/// also pins drain order, i.e. the runs are bit-identical.
pub type RespRec = (u64, String, String);

pub fn submit_rounds(
    devices: &[Device],
    events: &[Event],
    gateway: &Gateway,
    rounds: Range<usize>,
) -> Vec<RespRec> {
    submit_filtered(devices, events, gateway, |e| rounds.contains(&e.round))
}

/// [`submit_rounds`] with an arbitrary event filter — used by the delta
/// tests to dirty only one tenant's slots between checkpoints.
pub fn submit_filtered(
    devices: &[Device],
    events: &[Event],
    gateway: &Gateway,
    keep: impl Fn(&Event) -> bool,
) -> Vec<RespRec> {
    for event in events.iter().filter(|e| keep(e)) {
        gateway
            .submit(devices[event.device].session_id, event.ciphertext.clone())
            .unwrap();
    }
    let responses = gateway.drain_all().unwrap();
    responses
        .iter()
        .map(|response| {
            let device = devices
                .iter()
                .find(|d| d.session_id == response.session_id)
                .expect("response for unknown session");
            // No cross-tenant leakage: the reply is labelled with the
            // session's own tenant and decrypts under the device's own
            // channel keys (another tenant's enclave or another session's
            // keys would fail AEAD opening).
            assert_eq!(&*response.tenant, device.tenant.as_str());
            let BatchOutcome::Reply { ciphertext, .. } = &response.outcome else {
                panic!("unexpected outcome {:?}", response.outcome);
            };
            let decrypted = device.session.decrypt_response(ciphertext).unwrap();
            (
                response.session_id,
                device.tenant.clone(),
                format!("{decrypted:?}"),
            )
        })
        .collect()
}
