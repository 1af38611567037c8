//! Section 4.2: glimmer-as-a-service for devices without trusted hardware.
//!
//! Run with `cargo run --example iot_remote_glimmer`.

use glimmers::core::blinding::BlindingService;
use glimmers::core::host::GlimmerDescriptor;
use glimmers::core::protocol::{Contribution, ContributionPayload, PrivateData, ProcessResponse};
use glimmers::core::remote::{IotDeviceSession, RemoteGlimmerHost};
use glimmers::core::signing::ServiceKeyMaterial;
use glimmers::crypto::drbg::Drbg;
use glimmers::services::iot::IotTelemetryService;
use glimmers::sgx_sim::{AttestationService, PlatformConfig};
use glimmers::workloads::iot::IotWorkload;

fn main() {
    let samples = 12usize;
    let mut rng = Drbg::from_seed([41u8; 32]);
    let mut avs = AttestationService::new([42u8; 32]);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();

    // A neutral third party hosts the Glimmer.
    let mut host = RemoteGlimmerHost::new(
        GlimmerDescriptor::iot_default(Vec::new()),
        PlatformConfig::default(),
        &mut rng,
        &mut avs,
    )
    .unwrap();
    host.client_mut()
        .install_service_key(&material.secret_bytes())
        .unwrap();

    let workload = IotWorkload::generate(12, samples, 0.25, [43u8; 32]);
    let device_ids: Vec<u64> = workload.devices.iter().map(|d| d.device_id).collect();
    let blinding = BlindingService::new([44u8; 32]);
    let masks = blinding.zero_sum_masks(0, &device_ids, samples);
    let mut service =
        IotTelemetryService::new("iot-telemetry.example", material.verifier(), samples);

    let mut present: Vec<u64> = Vec::new();
    for (i, device) in workload.devices.iter().enumerate() {
        // The device verifies the host's attestation before sending anything.
        let offer = host.attestation_offer().unwrap();
        let approved = host.measurement();
        let (accept, mut session) =
            IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
        host.accept_device(&accept).unwrap();
        // The device's blinding share is bound to its session on the host.
        host.install_mask(&masks[i]).unwrap();

        let contribution = Contribution {
            app_id: "iot-telemetry.example".to_string(),
            client_id: device.device_id,
            round: 0,
            payload: ContributionPayload::IotReadings {
                samples: device.samples.clone(),
            },
        };
        let request = session.encrypt_request(contribution, PrivateData::None);
        let response = session
            .decrypt_response(&host.relay(&request).unwrap())
            .unwrap();
        match response {
            ProcessResponse::Endorsed(endorsed) => {
                service
                    .submit(&endorsed)
                    .expect("service accepts endorsed readings");
                present.push(device.device_id);
            }
            ProcessResponse::Rejected { reason } => {
                println!(
                    "device {} rejected by remote Glimmer: {reason}",
                    device.device_id
                );
            }
        }
    }
    if present.len() < workload.devices.len() {
        let correction = blinding.dropout_correction(0, &device_ids, samples, &present);
        service.apply_dropout_correction(&correction).unwrap();
    }
    let summary = service.finalize_round().unwrap();
    println!(
        "devices endorsed={} of {}; mean of first 4 readings = {:?}",
        summary.devices,
        workload.devices.len(),
        &summary.mean_readings[..4.min(summary.mean_readings.len())]
    );
    println!(
        "remote host enclave cycles: {}",
        host.cost_report().total_cycles
    );
}
