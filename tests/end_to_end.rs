//! Cross-crate integration tests: the paper's scenarios exercised end to end
//! through the public API of the umbrella crate.

use glimmers::core::blinding::BlindingService;
use glimmers::core::host::{GlimmerClient, GlimmerDescriptor};
use glimmers::core::policy::{check_verifiability, PolicyLimits};
use glimmers::core::protocol::{Contribution, ContributionPayload, PrivateData, ProcessResponse};
use glimmers::core::remote::{IotDeviceSession, RemoteGlimmerHost};
use glimmers::core::signing::ServiceKeyMaterial;
use glimmers::core::validation::BotDetectorSpec;
use glimmers::crypto::dh::DhGroup;
use glimmers::crypto::drbg::Drbg;
use glimmers::crypto::schnorr::SigningKey;
use glimmers::federated::attacks::{apply_poison, PoisonStrategy};
use glimmers::federated::trainer::train_local_model;
use glimmers::services::botdetect::BotDetectionService;
use glimmers::services::iot::IotTelemetryService;
use glimmers::services::keyboard::{KeyboardService, KeyboardServiceConfig};
use glimmers::services::maps::MapsService;
use glimmers::sgx_sim::{AttestationService, PlatformConfig};
use glimmers::workloads::botsignals::{BotSignalWorkload, SessionKind};
use glimmers::workloads::iot::IotWorkload;
use glimmers::workloads::keyboard::{KeyboardWorkload, KeyboardWorkloadConfig};
use glimmers::workloads::photos::{PhotoKind, PhotoWorkload};

const SEED: [u8; 32] = [123u8; 32];

/// Figure 1 + Figures 2/3: the poisoning attack succeeds against the bare
/// secure-aggregation service and is stopped by the Glimmer.
#[test]
fn keyboard_poisoning_blocked_by_glimmer() {
    let users = 12usize;
    let workload = KeyboardWorkload::generate(
        &KeyboardWorkloadConfig {
            users,
            vocab_size: 40,
            sentences_per_user: 15,
            ..KeyboardWorkloadConfig::default()
        },
        SEED,
    );
    let schema = workload.schema.clone();
    let mut rng = Drbg::from_seed(SEED);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let blinding = BlindingService::new([1u8; 32]);
    let masks = blinding.zero_sum_masks(0, &workload.client_ids(), schema.dimension());
    let trending_slot = schema
        .slot_of(workload.trending_bigram.0, workload.trending_bigram.1)
        .unwrap();
    let attack = PoisonStrategy::OutOfRange {
        slot: trending_slot,
        value: 538.0,
    };

    let mut service = KeyboardService::new(
        KeyboardServiceConfig::default(),
        schema.clone(),
        Some(material.verifier()),
    );
    let mut accepted_clients = Vec::new();
    let mut rejected = 0usize;
    for (i, user) in workload.users.iter().enumerate() {
        let (honest, _) = train_local_model(&schema, &user.sentences).unwrap();
        let submitted = if i == 0 {
            apply_poison(&schema, &honest, &attack)
        } else {
            honest
        };
        let mut glimmer = GlimmerClient::new(
            GlimmerDescriptor::keyboard_default(),
            PlatformConfig::default(),
            &mut rng,
        )
        .unwrap();
        glimmer
            .install_service_key(&material.secret_bytes())
            .unwrap();
        glimmer.install_mask(&masks[i]).unwrap();
        let contribution = Contribution {
            app_id: "nextwordpredictive.com".to_string(),
            client_id: user.client_id,
            round: 0,
            payload: ContributionPayload::ModelUpdate {
                weights: submitted.weights,
            },
        };
        match glimmer
            .process(
                contribution,
                PrivateData::KeyboardLog {
                    sentences: user.sentences.clone(),
                },
            )
            .unwrap()
        {
            ProcessResponse::Endorsed(e) => {
                service.submit(&e).unwrap();
                accepted_clients.push(user.client_id);
            }
            ProcessResponse::Rejected { reason } => {
                assert!(reason.contains("538"), "unexpected reason: {reason}");
                rejected += 1;
            }
        }
    }
    assert_eq!(rejected, 1);
    let correction = blinding.dropout_correction(
        0,
        &workload.client_ids(),
        schema.dimension(),
        &accepted_clients,
    );
    service.apply_dropout_correction(&correction).unwrap();
    let outcome = service.finalize_round().unwrap();
    assert_eq!(outcome.accepted, users - 1);
    // Every aggregated parameter is back in the legal range and the trending
    // phrase is still learned.
    assert!(outcome
        .model
        .weights
        .iter()
        .all(|w| (0.0..=1.0).contains(w)));
    let prediction = outcome
        .model
        .predict_next(&schema, workload.trending_bigram.0, 1);
    assert_eq!(prediction[0].0, workload.trending_bigram.1);
}

/// Section 4.1: confidential bot detection end to end over a real attested
/// channel, with the auditor bounding output to one bit per challenge.
#[test]
fn bot_detection_end_to_end() {
    let mut rng = Drbg::from_seed(SEED);
    let mut avs = AttestationService::new([2u8; 32]);
    let service_key = SigningKey::generate(DhGroup::default_group(), &mut rng).unwrap();
    let descriptor =
        GlimmerDescriptor::bot_detection_default(service_key.verifying_key().to_bytes(), 40);
    let approved = descriptor.measurement();
    let mut service = BotDetectionService::new(
        BotDetectorSpec::example(),
        service_key,
        approved,
        rng.fork("svc"),
    );
    let mut client = GlimmerClient::new(descriptor, PlatformConfig::default(), &mut rng).unwrap();
    client.provision_platform(&mut avs);
    let offer = client.start_channel().unwrap();
    let (accept, mut session) = service.accept_channel(&offer, &avs).unwrap();
    client.complete_channel(&accept).unwrap();
    client
        .install_encrypted_predicate(&service.encrypted_detector(&session))
        .unwrap();

    let workload = BotSignalWorkload::generate(30, 0.5, SEED);
    let mut correct = 0usize;
    for s in &workload.sessions {
        let challenge = service.issue_challenge(&mut session);
        let frame = client
            .confidential_check(
                challenge,
                PrivateData::BotSignals {
                    signals: s.signals.clone(),
                },
            )
            .unwrap();
        let verdict = service.accept_verdict(&mut session, &frame).unwrap();
        if verdict == (s.kind == SessionKind::Human) {
            correct += 1;
        }
    }
    assert!(correct as f64 / 30.0 > 0.85, "accuracy {correct}/30");
    // The Glimmer's auditor has released exactly one bit per session.
    assert_eq!(client.status().unwrap().verdict_bits_released, 30);
}

/// Photos-for-maps: honest photos are endorsed, every class of cheater is
/// rejected inside the client.
#[test]
fn photos_for_maps_filters_cheaters() {
    let mut rng = Drbg::from_seed(SEED);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let workload = PhotoWorkload::generate(16, 0.5, SEED);
    let mut service = MapsService::new("crowdmaps.example", material.verifier());

    let mut honest_accepted = 0usize;
    let mut cheaters_rejected = 0usize;
    for photo in &workload.contributions {
        let mut glimmer = GlimmerClient::new(
            GlimmerDescriptor::maps_default(workload.registered_camera),
            PlatformConfig::default(),
            &mut rng,
        )
        .unwrap();
        glimmer
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let contribution = Contribution {
            app_id: "crowdmaps.example".to_string(),
            client_id: photo.client_id,
            round: 0,
            payload: ContributionPayload::Photo {
                photo_hash: photo.photo_hash,
                claimed_lat: photo.claimed_lat,
                claimed_lon: photo.claimed_lon,
            },
        };
        let private = PrivateData::GpsTrack {
            points: photo.gps_track.clone(),
            camera_fingerprint: photo.camera_fingerprint,
        };
        match glimmer.process(contribution, private).unwrap() {
            ProcessResponse::Endorsed(e) => {
                service.submit(&e).unwrap();
                assert_eq!(photo.kind, PhotoKind::Honest);
                honest_accepted += 1;
            }
            ProcessResponse::Rejected { .. } => {
                assert_ne!(photo.kind, PhotoKind::Honest);
                cheaters_rejected += 1;
            }
        }
    }
    assert_eq!(honest_accepted, workload.honest_count());
    assert_eq!(
        cheaters_rejected,
        workload.contributions.len() - workload.honest_count()
    );
    assert_eq!(service.photos().len(), honest_accepted);
}

/// Section 4.2: IoT devices contribute through a remote Glimmer host without
/// the host ever seeing plaintext, and the telemetry service recovers exact
/// means over the endorsed devices.
#[test]
fn iot_remote_glimmer_end_to_end() {
    let samples = 8usize;
    let mut rng = Drbg::from_seed(SEED);
    let mut avs = AttestationService::new([3u8; 32]);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
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

    let workload = IotWorkload::generate(8, samples, 0.25, SEED);
    let device_ids: Vec<u64> = workload.devices.iter().map(|d| d.device_id).collect();
    let blinding = BlindingService::new([4u8; 32]);
    let masks = blinding.zero_sum_masks(0, &device_ids, samples);
    let mut service =
        IotTelemetryService::new("iot-telemetry.example", material.verifier(), samples);

    let mut present = Vec::new();
    for (i, device) in workload.devices.iter().enumerate() {
        let offer = host.attestation_offer().unwrap();
        let (accept, mut session) =
            IotDeviceSession::connect(&offer, &avs, &host.measurement(), &mut rng).unwrap();
        host.accept_device(&accept).unwrap();
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
        if let ProcessResponse::Endorsed(e) = response {
            service.submit(&e).unwrap();
            present.push(device.device_id);
        }
    }
    assert!(!present.is_empty());
    if present.len() < workload.devices.len() {
        let correction = blinding.dropout_correction(0, &device_ids, samples, &present);
        service.apply_dropout_correction(&correction).unwrap();
    }
    let summary = service.finalize_round().unwrap();
    assert_eq!(summary.devices, present.len());
    // Means over endorsed (honest-passing) devices are in the valid range.
    assert!(summary
        .mean_readings
        .iter()
        .all(|v| (0.0..=1.0).contains(v)));
}

/// Section 3: every shipped Glimmer flavour satisfies the structural
/// verifiability policy.
#[test]
fn shipped_glimmers_are_verifiable() {
    for descriptor in [
        GlimmerDescriptor::keyboard_default(),
        GlimmerDescriptor::keyboard_range_only(),
        GlimmerDescriptor::keyboard_retrain(),
        GlimmerDescriptor::maps_default([0u8; 32]),
        GlimmerDescriptor::bot_detection_default(vec![0u8; 129], 64),
        GlimmerDescriptor::iot_default(Vec::new()),
    ] {
        let violations = check_verifiability(&descriptor, PolicyLimits::default());
        assert!(violations.is_empty(), "{}: {violations:?}", descriptor.name);
    }
}
