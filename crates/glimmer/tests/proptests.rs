//! Property-based tests for the Glimmer core: protocol round trips, the
//! blinding zero-sum invariant, auditor output bounds, and the enclave's
//! session table leaving nothing behind.

use glimmer_core::auditor::OutputAuditor;
use glimmer_core::blinding::{BlindingService, MaskShare};
use glimmer_core::channel::{ChannelAccept, ChannelOffer};
use glimmer_core::confidential::BotVerdict;
use glimmer_core::host::{GlimmerClient, GlimmerDescriptor};
use glimmer_core::protocol::{
    frame_type, BatchItem, BatchRequest, Contribution, ContributionPayload, EndorsedContribution,
    PrivateData,
};
use glimmer_core::remote::IotDeviceSession;
use glimmer_core::replay::{ReplayRefusal, ReplayWindow, REPLAY_WINDOW};
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_core::validation::{PredicateSpec, RangeCheck, ValidationPredicate};
use glimmer_crypto::drbg::Drbg;
use glimmer_federated::fixed::{add_vectors, decode_weights, encode_weights};
use glimmer_wire::{Frame, WireCodec};
use proptest::prelude::*;
use sgx_sim::{AttestationService, PlatformConfig};

fn arb_payload() -> impl Strategy<Value = ContributionPayload> {
    prop_oneof![
        proptest::collection::vec(-2.0f64..2.0, 0..32)
            .prop_map(|weights| ContributionPayload::ModelUpdate { weights }),
        (any::<[u8; 32]>(), -90.0f64..90.0, -180.0f64..180.0).prop_map(
            |(photo_hash, claimed_lat, claimed_lon)| ContributionPayload::Photo {
                photo_hash,
                claimed_lat,
                claimed_lon,
            }
        ),
        proptest::collection::vec(0.0f64..1.0, 0..16)
            .prop_map(|samples| ContributionPayload::IotReadings { samples }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn contribution_wire_round_trip(
        app_id in "[a-z.]{1,20}",
        client_id in any::<u64>(),
        round in any::<u64>(),
        payload in arb_payload(),
    ) {
        let contribution = Contribution { app_id, client_id, round, payload };
        let decoded = Contribution::from_wire(&contribution.to_wire()).unwrap();
        prop_assert_eq!(decoded, contribution);
    }

    #[test]
    fn endorsement_wire_round_trip_and_binding(
        client_id in any::<u64>(),
        round in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        blinded in any::<bool>(),
        signature in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let endorsed = EndorsedContribution {
            app_id: "app".to_string(),
            client_id,
            round,
            released_payload: payload,
            blinded,
            signature,
        };
        prop_assert_eq!(
            EndorsedContribution::from_wire(&endorsed.to_wire()).unwrap(),
            endorsed.clone()
        );
        // The signed bytes change whenever the round changes.
        let mut other = endorsed.clone();
        other.round = endorsed.round.wrapping_add(1);
        prop_assert_ne!(endorsed.signed_bytes(), other.signed_bytes());
    }

    #[test]
    fn zero_sum_masks_always_cancel(
        clients in proptest::collection::vec(any::<u64>(), 1..12),
        dimension in 0usize..64,
        round in any::<u64>(),
        seed in any::<[u8; 32]>(),
    ) {
        let mut unique = clients.clone();
        unique.sort_unstable();
        unique.dedup();
        let masks = BlindingService::new(seed).zero_sum_masks(round, &unique, dimension);
        let mut sum = vec![0u64; dimension];
        for m in &masks {
            sum = add_vectors(&sum, &m.mask);
        }
        prop_assert!(sum.iter().all(|&v| v == 0));
    }

    #[test]
    fn blinded_aggregation_is_exact(
        weights in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 8),
            1..8
        ),
        seed in any::<[u8; 32]>(),
    ) {
        let clients: Vec<u64> = (0..weights.len() as u64).collect();
        let masks = BlindingService::new(seed).zero_sum_masks(0, &clients, 8);
        let mut blinded_sum = vec![0u64; 8];
        let mut plain_sum = [0.0f64; 8];
        for (w, m) in weights.iter().zip(&masks) {
            blinded_sum = add_vectors(&blinded_sum, &m.blind(&encode_weights(w)));
            for (p, v) in plain_sum.iter_mut().zip(w) {
                *p += v;
            }
        }
        let decoded = decode_weights(&blinded_sum);
        for (a, b) in decoded.iter().zip(plain_sum.iter()) {
            prop_assert!((a - b).abs() < 1e-5, "{} vs {}", a, b);
        }
    }

    #[test]
    fn range_check_never_passes_out_of_range_model_updates(
        weights in proptest::collection::vec(-10.0f64..10.0, 1..32),
    ) {
        let predicate = RangeCheck::default();
        let contribution = Contribution {
            app_id: "app".to_string(),
            client_id: 0,
            round: 0,
            payload: ContributionPayload::ModelUpdate { weights: weights.clone() },
        };
        let verdict = predicate.validate(&contribution, &PrivateData::None);
        let all_in_range = weights.iter().all(|w| (0.0..=1.0).contains(w));
        prop_assert_eq!(verdict.passed, all_in_range);
    }

    #[test]
    fn predicate_specs_round_trip(min in -1.0f64..1.0, max in 1.0f64..10.0, tol in 0.0f64..1.0) {
        let specs = vec![
            PredicateSpec::RangeCheck { min, max },
            PredicateSpec::KeyboardCorroboration { tolerance: tol, min_support: 0.5 },
            PredicateSpec::AllOf(vec![
                PredicateSpec::Plausibility,
                PredicateSpec::RetrainCheck { tolerance: tol },
            ]),
        ];
        for spec in specs {
            prop_assert_eq!(PredicateSpec::from_wire(&spec.to_wire()).unwrap(), spec);
        }
    }

    #[test]
    fn auditor_never_exceeds_its_bit_budget(
        budget in 0u64..16,
        attempts in 0usize..40,
        mac_key in any::<[u8; 32]>(),
    ) {
        let mut auditor = OutputAuditor::new(budget);
        let mut released = 0u64;
        for i in 0..attempts {
            let verdict = BotVerdict::new([i as u8; 32], i % 2 == 0, &mac_key);
            if auditor.audit(&verdict.to_frame()).is_ok() {
                released += 1;
            }
        }
        prop_assert!(released <= budget);
        prop_assert_eq!(auditor.verdict_bits_released(), released);
        prop_assert_eq!(auditor.channel_capacity_bound_bits(), budget);
    }

    #[test]
    fn auditor_rejects_frames_with_extra_bytes(
        extra in proptest::collection::vec(any::<u8>(), 1..32),
        mac_key in any::<[u8; 32]>(),
    ) {
        let mut auditor = OutputAuditor::new(1000);
        let mut frame = BotVerdict::new([1u8; 32], true, &mac_key).to_frame();
        frame.payload.extend_from_slice(&extra);
        prop_assert!(auditor.audit(&frame).is_err());
        // Unknown frame types are always rejected regardless of payload.
        let unknown = Frame::new(40_000 + (extra[0] as u16), extra.clone());
        prop_assert!(auditor.audit(&unknown).is_err());
        // Well-formed endorsement frames still pass afterwards.
        let endorsed = EndorsedContribution {
            app_id: "a".into(),
            client_id: 0,
            round: 0,
            released_payload: extra,
            blinded: true,
            signature: vec![],
        };
        prop_assert!(auditor
            .audit(&Frame::new(frame_type::ENDORSED_CONTRIBUTION, endorsed.to_wire()))
            .is_ok());
    }
}

// The fixed-size anti-replay window against the obvious model it replaced:
// a set of every counter ever accepted.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever arrives in whatever order, the window never accepts what
    /// the set would refuse (no counter twice), refuses everything that is
    /// a full window behind the newest accepted, and otherwise agrees with
    /// the set exactly.
    #[test]
    fn replay_window_agrees_with_a_set_of_everything_seen(
        start in 0u64..1_000_000,
        steps in proptest::collection::vec((0u64..400, any::<bool>()), 1..300),
    ) {
        let mut window = ReplayWindow::default();
        let mut seen = std::collections::HashSet::new();
        let mut highest: Option<u64> = None;
        for (offset, jump_ahead) in steps {
            // Mostly near the high-water mark (both sides of it, both sides
            // of the window's edge), sometimes far ahead.
            let base = highest.unwrap_or(start);
            let counter = if jump_ahead {
                base + offset
            } else {
                base.saturating_sub(offset)
            };
            let verdict = window.check(counter);
            let too_old = highest.is_some_and(|h| h >= counter && h - counter >= REPLAY_WINDOW);
            match verdict {
                Ok(()) => {
                    prop_assert!(!seen.contains(&counter), "{counter} accepted twice");
                    prop_assert!(!too_old);
                    window.record(counter);
                    seen.insert(counter);
                    highest = Some(highest.map_or(counter, |h| h.max(counter)));
                }
                Err(ReplayRefusal::BelowWindow) => prop_assert!(too_old),
                Err(ReplayRefusal::Replayed) => {
                    prop_assert!(seen.contains(&counter), "{counter} refused unseen");
                    prop_assert!(!too_old);
                }
            }
            prop_assert_eq!(window.accepted(), seen.len() as u64);
        }
    }

    /// Any arrival order of a run of consecutive counters no longer than
    /// the window is accepted in full, each counter exactly once.
    #[test]
    fn any_reordering_within_the_window_is_accepted_exactly_once(
        first in 0u64..1_000_000,
        len in 1usize..=128,
        shuffle_seed in any::<u64>(),
    ) {
        let mut order: Vec<u64> = (first..first + len as u64).collect();
        // Fisher-Yates on a splitmix stream.
        let mut state = shuffle_seed;
        for i in (1..order.len()).rev() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            order.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
        }
        let mut window = ReplayWindow::default();
        for &counter in &order {
            prop_assert_eq!(window.check(counter), Ok(()));
            window.record(counter);
        }
        for &counter in &order {
            prop_assert_eq!(window.check(counter), Err(ReplayRefusal::Replayed));
        }
        prop_assert_eq!(window.accepted(), len as u64);
    }
}

// One record per session is the enclave's only per-session state, so a
// closed session must leave nothing behind — whatever happened to it first.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Four session ids are opened, re-opened while pending, accepted (with
    /// the device's answer or with garbage, which closes the session),
    /// masked (three bindings, so two sessions share a `(round, client)`),
    /// served and closed in a generated interleaving. Once all are closed
    /// the sealed state is exactly as long as before the first opened, and
    /// no session or mask is counted. The shim does not shrink: a failure
    /// prints the step list, `(kind, slot, binding, garbage)`.
    #[test]
    fn closed_sessions_leave_nothing_behind(
        steps in proptest::collection::vec((0u8..5, 0usize..4, 0usize..3, any::<bool>()), 1..64),
    ) {
        const BINDINGS: [(u64, u64); 3] = [(1, 100), (1, 101), (2, 100)];
        let mut rng = Drbg::from_seed([81u8; 32]);
        let mut avs = AttestationService::new([82u8; 32]);
        let mut client = GlimmerClient::new(
            GlimmerDescriptor::iot_default(Vec::new()),
            PlatformConfig::default(),
            &mut rng,
        )
        .unwrap();
        client.provision_platform(&mut avs);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        client.install_service_key(&material.secret_bytes()).unwrap();
        let approved = client.measurement();
        let sealed_len = |client: &mut GlimmerClient| {
            let (_, sealed) = client.export_state_if_newer(b"residue", None).unwrap();
            sealed.unwrap().len()
        };
        let empty_len = sealed_len(&mut client);

        // Per slot: the offer of its pending handshake, and the device
        // whose answer the enclave accepted.
        let mut offers: [Option<ChannelOffer>; 4] = Default::default();
        let mut devices: [Option<IotDeviceSession>; 4] = Default::default();
        for &(kind, slot, binding, garbage) in &steps {
            let sid = slot as u64 + 1;
            let (round, client_id) = BINDINGS[binding];
            match kind {
                // Refused once established; restarts a pending handshake.
                0 => {
                    if let Ok(offer) = client.open_session(sid) {
                        offers[slot] = Some(offer);
                    }
                }
                1 => {
                    if let Some(offer) = offers[slot].take() {
                        let (accept, device) =
                            IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
                        if garbage {
                            let accept = ChannelAccept {
                                service_dh_public: Vec::new(),
                                ..accept
                            };
                            prop_assert!(client.accept_session(sid, &accept).is_err());
                        } else {
                            client.accept_session(sid, &accept).unwrap();
                            devices[slot] = Some(device);
                        }
                    }
                }
                // Refused without a session, pending or established.
                2 => {
                    let mask = MaskShare { round, client_id, mask: vec![0; 2] };
                    let _ = client.install_session_mask(sid, &mask);
                }
                3 => {
                    if let Some(device) = devices[slot].as_mut() {
                        let contribution = Contribution {
                            app_id: "iot-telemetry.example".to_string(),
                            client_id,
                            round,
                            payload: ContributionPayload::IotReadings { samples: vec![0.5, 0.5] },
                        };
                        let ciphertext = device.encrypt_request(contribution, PrivateData::None);
                        let items = vec![BatchItem { session_id: sid, ciphertext }];
                        client.process_batch(&BatchRequest { items }).unwrap();
                    }
                }
                _ => {
                    client.close_session(sid).unwrap();
                    offers[slot] = None;
                    devices[slot] = None;
                }
            }
        }
        for sid in 1..=4 {
            client.close_session(sid).unwrap();
        }
        let status = client.status().unwrap();
        prop_assert_eq!((status.sessions, status.masks), (0, 0), "steps: {:?}", steps);
        prop_assert_eq!(sealed_len(&mut client), empty_len, "steps: {:?}", steps);
    }
}
