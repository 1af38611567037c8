//! Glimmer-as-a-service (Section 4.2).
//!
//! "Given the increasing trend towards Internet of things (IoT) devices,
//! there are likely to be some devices that will make user contributions that
//! must be trustworthy, but do not have a processor with trusted computing
//! capabilities. In this case, we envision that a neutral third party may
//! supply the capability to run a Glimmer."
//!
//! The remote host (a set-top box, a university server, the EFF) is
//! *untrusted* apart from its enclave. The IoT device:
//!
//! 1. obtains an attestation offer from the host and verifies, through the
//!    attestation service, that the peer is a genuine, approved Glimmer;
//! 2. completes a DH exchange whose Glimmer half is bound inside the quote,
//!    yielding keys only the device and the enclave share;
//! 3. sends its contribution and private validation data encrypted under
//!    those keys and receives the endorsed (validated, blinded, signed)
//!    contribution back, which it forwards to the service.
//!
//! The remote host only ever sees ciphertext and the endorsed output.
//!
//! [`RemoteGlimmerHost`] is the smallest such host: one enclave serving one
//! device at a time. It drives the same session table a pooled gateway
//! does — each device is a session, each relayed request a `PROCESS_BATCH`
//! of one — so the enclave's replay window, per-session request cap and
//! client binding hold here exactly as they do there; there is no second,
//! older device channel to keep in step.

use crate::blinding::MaskShare;
use crate::channel::{AttestedChannel, ChannelAccept, ChannelKeys, ChannelOffer};
use crate::host::{GlimmerClient, GlimmerDescriptor};
use crate::protocol::{
    BatchItem, BatchOutcome, BatchRequest, Contribution, PrivateData, ProcessRequest,
    ProcessResponse,
};
use crate::replay::request_nonce;
use crate::{GlimmerError, Result};
use glimmer_crypto::dh::DhGroup;
use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::schnorr::SigningKey;
use glimmer_wire::WireCodec;
use sgx_sim::{AttestationService, Measurement, PlatformConfig};

/// A third-party machine hosting a Glimmer enclave on behalf of TEE-less
/// devices, one device at a time.
pub struct RemoteGlimmerHost {
    client: GlimmerClient,
    /// Session id of the device being served; 0 until the first offer.
    session: u64,
}

// Hosts and device sessions are self-contained state machines, so serving
// stacks may move them freely across threads (the gateway's stress tests
// drive device sessions from multiple submitter threads).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RemoteGlimmerHost>();
    assert_send::<IotDeviceSession>();
};

impl RemoteGlimmerHost {
    /// Creates the host, instantiates the Glimmer, and provisions the
    /// platform for remote attestation.
    pub fn new(
        descriptor: GlimmerDescriptor,
        platform_config: PlatformConfig,
        rng: &mut Drbg,
        avs: &mut AttestationService,
    ) -> Result<Self> {
        let mut client = GlimmerClient::new(descriptor, platform_config, rng)?;
        client.provision_platform(avs);
        Ok(RemoteGlimmerHost { client, session: 0 })
    }

    /// The hosted Glimmer's published measurement.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.client.measurement()
    }

    /// Access to the underlying client runtime (key provisioning, status).
    pub fn client_mut(&mut self) -> &mut GlimmerClient {
        &mut self.client
    }

    /// Accumulated simulated enclave cost on this host.
    #[must_use]
    pub fn cost_report(&self) -> sgx_sim::CostReport {
        self.client.cost_report()
    }

    /// Produces an attestation offer for a connecting device. The device
    /// gets a session of its own; the previous device's is closed, erasing
    /// its keys, its replay window and the masks bound to it.
    pub fn attestation_offer(&mut self) -> Result<ChannelOffer> {
        if self.session != 0 {
            self.client.close_session(self.session)?;
        }
        self.session += 1;
        self.client.open_session(self.session)
    }

    /// Completes the device's side of the handshake inside the enclave.
    pub fn accept_device(&mut self, accept: &ChannelAccept) -> Result<()> {
        self.client.accept_session(self.session, accept)
    }

    /// Installs a blinding mask share for the connected device, which
    /// authorizes it to contribute as the share's client id. Call after
    /// [`Self::attestation_offer`]: the share is bound to that device's
    /// session and evicted with it.
    pub fn install_mask(&mut self, mask: &MaskShare) -> Result<()> {
        self.client.install_session_mask(self.session, mask)
    }

    /// Relays an encrypted request from the device into the enclave and
    /// returns the encrypted response. The host cannot read either. A
    /// request the enclave refuses to open — undecryptable, replayed, from
    /// a device whose session is gone — is a [`GlimmerError::Channel`].
    pub fn relay(&mut self, request_ciphertext: &[u8]) -> Result<Vec<u8>> {
        let batch = BatchRequest {
            items: vec![BatchItem {
                session_id: self.session,
                ciphertext: request_ciphertext.to_vec(),
            }],
        };
        match self.client.process_batch(&batch)?.items.pop() {
            Some(item) => match item.outcome {
                BatchOutcome::Reply { ciphertext, .. } => Ok(ciphertext),
                BatchOutcome::Failed(reason) => Err(GlimmerError::Channel(reason)),
            },
            None => Err(GlimmerError::Protocol("empty reply to a batch of one")),
        }
    }
}

/// The IoT device's view of a remote Glimmer session.
pub struct IotDeviceSession {
    keys: ChannelKeys,
    /// Number of the next request; its AEAD nonce
    /// ([`crate::replay::request_nonce`]).
    next_request: u64,
}

impl IotDeviceSession {
    /// Connects to a remote Glimmer: verifies the attestation offer against
    /// the attestation service and the published measurement, and returns the
    /// handshake response to send back plus the established session.
    ///
    /// The device uses an ephemeral signing key for its half of the
    /// handshake; the Glimmer does not authenticate the device (Section 4.2
    /// only requires the device to authenticate the Glimmer).
    pub fn connect(
        offer: &ChannelOffer,
        avs: &AttestationService,
        approved_measurement: &Measurement,
        rng: &mut Drbg,
    ) -> Result<(ChannelAccept, IotDeviceSession)> {
        let ephemeral_key = SigningKey::generate(DhGroup::default_group(), rng)?;
        let (accept, channel) =
            AttestedChannel::respond(offer, avs, approved_measurement, &ephemeral_key, rng)?;
        Ok((
            accept,
            IotDeviceSession {
                keys: channel.keys,
                next_request: 0,
            },
        ))
    }

    /// Encrypts a contribution (plus private validation data) for the remote
    /// Glimmer.
    pub fn encrypt_request(
        &mut self,
        contribution: Contribution,
        private_data: PrivateData,
    ) -> Vec<u8> {
        let request = ProcessRequest {
            contribution,
            private_data,
        };
        // A counter, not a random value: unique under this session's key by
        // construction, and what lets the enclave refuse replays from a
        // fixed-size window instead of a set of every nonce it has seen.
        let nonce = request_nonce(self.next_request);
        self.next_request += 1;
        let ciphertext = self.keys.service_to_glimmer.seal(
            &nonce,
            b"glimmer-remote-request-v1",
            &request.to_wire(),
        );
        let mut out = nonce.to_vec();
        out.extend_from_slice(&ciphertext);
        out
    }

    /// Decrypts the remote Glimmer's response.
    pub fn decrypt_response(&self, response: &[u8]) -> Result<ProcessResponse> {
        if response.len() < 12 {
            return Err(GlimmerError::Protocol("encrypted response too short"));
        }
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&response[..12]);
        let plain = self
            .keys
            .glimmer_to_service
            .open(&nonce, b"glimmer-remote-response-v1", &response[12..])
            .map_err(|_| GlimmerError::Channel("remote response failed to decrypt".to_string()))?;
        ProcessResponse::from_wire(&plain).map_err(GlimmerError::from)
    }

    /// The channel keys (exposed for tests that check the host learns
    /// nothing).
    #[must_use]
    pub fn keys(&self) -> &ChannelKeys {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blinding::BlindingService;
    use crate::protocol::ContributionPayload;
    use crate::signing::ServiceKeyMaterial;

    fn setup() -> (RemoteGlimmerHost, AttestationService, Drbg) {
        let mut rng = Drbg::from_seed([60u8; 32]);
        let mut avs = AttestationService::new([61u8; 32]);
        let host = RemoteGlimmerHost::new(
            GlimmerDescriptor::iot_default(Vec::new()),
            PlatformConfig::default(),
            &mut rng,
            &mut avs,
        )
        .unwrap();
        (host, avs, rng)
    }

    #[test]
    fn end_to_end_iot_contribution_through_remote_glimmer() {
        let (mut host, avs, mut rng) = setup();

        // Service-side provisioning of the hosted Glimmer.
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        host.client_mut()
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let masks = BlindingService::new([7u8; 32]).zero_sum_masks(1, &[100, 101], 4);

        // Device connects after verifying attestation.
        let offer = host.attestation_offer().unwrap();
        let approved = host.measurement();
        let (accept, mut session) =
            IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
        host.accept_device(&accept).unwrap();
        host.install_mask(&masks[0]).unwrap();

        // Device submits readings encrypted end-to-end.
        let contribution = Contribution {
            app_id: "iot-telemetry.example".to_string(),
            client_id: 100,
            round: 1,
            payload: ContributionPayload::IotReadings {
                samples: vec![0.2, 0.4, 0.6, 0.8],
            },
        };
        let request = session.encrypt_request(contribution, PrivateData::None);
        let response_ct = host.relay(&request).unwrap();
        let response = session.decrypt_response(&response_ct).unwrap();
        let ProcessResponse::Endorsed(endorsed) = response else {
            panic!("expected endorsement, got {response:?}");
        };
        assert!(endorsed.blinded);
        assert!(material.verifier().verify(&endorsed).is_ok());

        // The relayed bytes never contain the raw samples (host cannot read
        // the device's data).
        let raw = 0.6f64.to_le_bytes();
        assert!(!request.windows(8).any(|w| w == raw));
        assert!(host.cost_report().ecalls >= 4);
    }

    #[test]
    fn device_rejects_unattested_or_wrong_glimmer() {
        let (mut host, avs, mut rng) = setup();
        let offer = host.attestation_offer().unwrap();

        // Wrong expected measurement (a rogue enclave pretending to be a
        // Glimmer).
        let wrong = Measurement::of_bytes(b"rogue enclave");
        assert!(IotDeviceSession::connect(&offer, &avs, &wrong, &mut rng).is_err());

        // Unknown attestation service (the platform never provisioned with it).
        let other_avs = AttestationService::new([99u8; 32]);
        assert!(
            IotDeviceSession::connect(&offer, &other_avs, &host.measurement(), &mut rng).is_err()
        );
    }

    #[test]
    fn out_of_range_iot_readings_are_rejected_by_the_remote_glimmer() {
        let (mut host, avs, mut rng) = setup();
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        host.client_mut()
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let offer = host.attestation_offer().unwrap();
        let approved = host.measurement();
        let (accept, mut session) =
            IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
        host.accept_device(&accept).unwrap();
        host.install_mask(&MaskShare {
            round: 1,
            client_id: 100,
            mask: vec![0u64; 3],
        })
        .unwrap();

        let contribution = Contribution {
            app_id: "iot-telemetry.example".to_string(),
            client_id: 100,
            round: 1,
            payload: ContributionPayload::IotReadings {
                samples: vec![0.5, 538.0, 0.5],
            },
        };
        let request = session.encrypt_request(contribution, PrivateData::None);
        let response = session
            .decrypt_response(&host.relay(&request).unwrap())
            .unwrap();
        assert!(
            matches!(response, ProcessResponse::Rejected { ref reason } if reason.contains("538"))
        );
    }

    /// Puts the next device on `host`: attested, accepted, and masked as
    /// `client_id` for round 1.
    fn connect_device(
        host: &mut RemoteGlimmerHost,
        avs: &AttestationService,
        rng: &mut Drbg,
        client_id: u64,
    ) -> IotDeviceSession {
        let offer = host.attestation_offer().unwrap();
        let (accept, session) =
            IotDeviceSession::connect(&offer, avs, &host.measurement(), rng).unwrap();
        host.accept_device(&accept).unwrap();
        host.install_mask(&MaskShare {
            round: 1,
            client_id,
            mask: vec![0u64; 2],
        })
        .unwrap();
        session
    }

    fn readings(client_id: u64) -> Contribution {
        Contribution {
            app_id: "iot-telemetry.example".to_string(),
            client_id,
            round: 1,
            payload: ContributionPayload::IotReadings {
                samples: vec![0.25, 0.75],
            },
        }
    }

    #[test]
    fn a_relayed_ciphertext_is_endorsed_once() {
        let (mut host, avs, mut rng) = setup();
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        host.client_mut()
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let mut session = connect_device(&mut host, &avs, &mut rng, 100);

        // The untrusted host holds the ciphertext and can relay it again.
        let request = session.encrypt_request(readings(100), PrivateData::None);
        let first = host.relay(&request).unwrap();
        let replayed = host.relay(&request);
        assert!(
            matches!(&replayed, Err(GlimmerError::Channel(reason)) if reason.contains("replay")),
            "{replayed:?}"
        );
        let ProcessResponse::Endorsed(endorsed) = session.decrypt_response(&first).unwrap() else {
            panic!("expected endorsement");
        };
        assert!(material.verifier().verify(&endorsed).is_ok());
        // The refusal burned nothing: the device's next request is served.
        let next = session.encrypt_request(readings(100), PrivateData::None);
        assert!(host.relay(&next).is_ok());
    }

    #[test]
    fn the_next_device_replaces_the_previous_one() {
        let (mut host, avs, mut rng) = setup();
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        host.client_mut()
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let mut first = connect_device(&mut host, &avs, &mut rng, 100);
        let request = first.encrypt_request(readings(100), PrivateData::None);
        assert!(host.relay(&request).is_ok());

        // One host, many devices in sequence (E8's loop): the second
        // offer closes the first device's session, masks included.
        let offer = host.attestation_offer().unwrap();
        let status = host.client_mut().status().unwrap();
        assert!(status.sessions <= 1, "{status:?}");
        assert_eq!(status.masks, 0);
        let stale = first.encrypt_request(readings(100), PrivateData::None);
        assert!(host.relay(&stale).is_err());
        let (accept, mut second) =
            IotDeviceSession::connect(&offer, &avs, &host.measurement(), &mut rng).unwrap();
        host.accept_device(&accept).unwrap();
        assert!(host.relay(&stale).is_err());
        assert_eq!(host.client_mut().status().unwrap().sessions, 1);

        // The second device is bound to its own client id, not the first's.
        host.install_mask(&MaskShare {
            round: 1,
            client_id: 101,
            mask: vec![0u64; 2],
        })
        .unwrap();
        let as_first = second.encrypt_request(readings(100), PrivateData::None);
        let response = second
            .decrypt_response(&host.relay(&as_first).unwrap())
            .unwrap();
        assert!(
            matches!(&response, ProcessResponse::Rejected { reason } if reason.contains("not authorized")),
            "{response:?}"
        );
        let as_itself = second.encrypt_request(readings(101), PrivateData::None);
        let response = second
            .decrypt_response(&host.relay(&as_itself).unwrap())
            .unwrap();
        assert!(matches!(response, ProcessResponse::Endorsed(_)));
    }

    #[test]
    fn batched_multi_session_processing_shares_one_enclave() {
        use crate::protocol::{BatchItem, BatchOutcome, BatchRequest};

        let (mut host, avs, mut rng) = setup();
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        host.client_mut()
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let devices: Vec<u64> = vec![300, 301, 302];
        let masks = BlindingService::new([8u8; 32]).zero_sum_masks(2, &devices, 3);
        let approved = host.measurement();

        // Three devices hold *concurrent* sessions against the same enclave;
        // each session gets its own device's mask bound to it.
        let mut sessions = Vec::new();
        for (i, device) in devices.iter().enumerate() {
            let session_id = 1000 + i as u64;
            let offer = host.client_mut().open_session(session_id).unwrap();
            let (accept, session) =
                IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
            host.client_mut()
                .accept_session(session_id, &accept)
                .unwrap();
            host.client_mut()
                .install_session_mask(session_id, &masks[i])
                .unwrap();
            sessions.push((session_id, *device, session));
        }
        assert_eq!(host.client_mut().status().unwrap().sessions, 3);

        // All three contributions cross the boundary in ONE ecall.
        let ecalls_before = host.cost_report().ecalls;
        let items = sessions
            .iter_mut()
            .map(|(session_id, device, session)| BatchItem {
                session_id: *session_id,
                ciphertext: session.encrypt_request(
                    Contribution {
                        app_id: "iot-telemetry.example".to_string(),
                        client_id: *device,
                        round: 2,
                        payload: ContributionPayload::IotReadings {
                            samples: vec![0.1, 0.5, 0.9],
                        },
                    },
                    PrivateData::None,
                ),
            })
            .collect();
        let reply = host
            .client_mut()
            .process_batch(&BatchRequest { items })
            .unwrap();
        assert_eq!(host.cost_report().ecalls, ecalls_before + 1);
        assert_eq!(reply.items.len(), 3);
        for ((_, device, session), item) in sessions.iter().zip(&reply.items) {
            let BatchOutcome::Reply {
                ciphertext,
                endorsed,
            } = &item.outcome
            else {
                panic!("expected reply, got {:?}", item.outcome);
            };
            assert!(*endorsed);
            let response = session.decrypt_response(ciphertext).unwrap();
            let ProcessResponse::Endorsed(endorsed) = response else {
                panic!("expected endorsement");
            };
            assert_eq!(endorsed.client_id, *device);
            assert!(material.verifier().verify(&endorsed).is_ok());
        }

        // A batch item for an unknown session fails without poisoning others,
        // and closed sessions stop decrypting.
        let (first_id, _, session) = &mut sessions[0];
        let good = BatchItem {
            session_id: *first_id,
            ciphertext: session.encrypt_request(
                Contribution {
                    app_id: "iot-telemetry.example".to_string(),
                    client_id: 300,
                    round: 2,
                    payload: ContributionPayload::IotReadings {
                        samples: vec![0.2, 0.2, 0.2],
                    },
                },
                PrivateData::None,
            ),
        };
        let reply = host
            .client_mut()
            .process_batch(&BatchRequest {
                items: vec![
                    BatchItem {
                        session_id: 9999,
                        ciphertext: vec![0u8; 40],
                    },
                    good.clone(),
                ],
            })
            .unwrap();
        assert!(matches!(&reply.items[0].outcome, BatchOutcome::Failed(r) if r.contains("9999")));
        assert!(matches!(
            &reply.items[1].outcome,
            BatchOutcome::Reply { endorsed: true, .. }
        ));

        // Replaying an already-processed ciphertext on the live session is
        // refused (stateless AEAD would otherwise re-endorse it).
        let reply = host
            .client_mut()
            .process_batch(&BatchRequest {
                items: vec![good.clone()],
            })
            .unwrap();
        assert!(
            matches!(&reply.items[0].outcome, BatchOutcome::Failed(r) if r.contains("replayed")),
            "{:?}",
            reply.items[0].outcome
        );

        host.client_mut().close_session(*first_id).unwrap();
        assert_eq!(host.client_mut().status().unwrap().sessions, 2);
        // The closed session's mask was evicted with it.
        assert_eq!(host.client_mut().status().unwrap().masks, 2);
        let reply = host
            .client_mut()
            .process_batch(&BatchRequest { items: vec![good] })
            .unwrap();
        assert!(matches!(&reply.items[0].outcome, BatchOutcome::Failed(_)));
    }

    #[test]
    fn replay_state_stays_constant_size_and_survives_export_import() {
        use crate::protocol::{BatchItem, BatchOutcome, BatchRequest};

        const SESSION: u64 = 77;
        let seed = [63u8; 32];
        let build = || {
            GlimmerClient::new(
                GlimmerDescriptor::iot_default(Vec::new()),
                PlatformConfig::default(),
                &mut Drbg::from_seed(seed),
            )
            .unwrap()
        };
        let mut rng = Drbg::from_seed([64u8; 32]);
        let mut avs = AttestationService::new([65u8; 32]);
        let mut client = build();
        client.provision_platform(&mut avs);
        let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
        client
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let offer = client.open_session(SESSION).unwrap();
        let (accept, mut session) =
            IotDeviceSession::connect(&offer, &avs, &client.measurement(), &mut rng).unwrap();
        client.accept_session(SESSION, &accept).unwrap();
        client
            .install_session_mask(
                SESSION,
                &MaskShare {
                    round: 1,
                    client_id: 100,
                    mask: vec![0; 2],
                },
            )
            .unwrap();

        // Out-of-range readings: validated and refused without a signature,
        // which keeps ten thousand of them fast. A refusal is still a
        // processed request and takes its place in the window.
        let request = |session: &mut IotDeviceSession| BatchItem {
            session_id: SESSION,
            ciphertext: session.encrypt_request(
                Contribution {
                    app_id: "iot-telemetry.example".to_string(),
                    client_id: 100,
                    round: 1,
                    payload: ContributionPayload::IotReadings {
                        samples: vec![0.5, 538.0],
                    },
                },
                PrivateData::None,
            ),
        };
        let process = |client: &mut GlimmerClient, items: Vec<BatchItem>| {
            client
                .process_batch(&BatchRequest { items })
                .unwrap()
                .items
                .into_iter()
                .map(|item| item.outcome)
                .collect::<Vec<_>>()
        };
        let replied = |outcome: &BatchOutcome| matches!(outcome, BatchOutcome::Reply { .. });
        let refused_as_replay = |outcome: &BatchOutcome| matches!(outcome, BatchOutcome::Failed(r) if r.contains("replay"));

        let first = request(&mut session);
        assert!(replied(&process(&mut client, vec![first.clone()])[0]));
        let header = b"snapshot-header";
        let after_one = client.export_state_if_newer(header, None).unwrap().1;

        // A window's worth out of order — newest first — is accepted, each
        // exactly once.
        let mut reordered: Vec<BatchItem> = (0..127).map(|_| request(&mut session)).collect();
        reordered.reverse();
        assert!(process(&mut client, reordered.clone()).iter().all(replied));
        assert!(process(&mut client, reordered)
            .iter()
            .all(refused_as_replay));

        // A corrupted copy fails to open and must not burn the counter of
        // the retransmission.
        let intact = request(&mut session);
        let mut corrupted = intact.clone();
        *corrupted.ciphertext.last_mut().unwrap() ^= 1;
        let outcomes = process(&mut client, vec![corrupted, intact.clone()]);
        assert!(matches!(&outcomes[0], BatchOutcome::Failed(r) if !r.contains("replay")));
        assert!(replied(&outcomes[1]));

        for _ in 0..10 {
            let batch: Vec<BatchItem> = (0..1000).map(|_| request(&mut session)).collect();
            assert!(process(&mut client, batch).iter().all(replied));
        }
        // 10 129 requests later the sealed state is byte-for-byte as long
        // as after the first.
        let after_many = client.export_state_if_newer(header, None).unwrap().1;
        assert_eq!(after_many.as_ref().unwrap().len(), after_one.unwrap().len());

        // The window crosses an export/import: the newest request is still
        // remembered, the first has long left the window and is refused
        // unseen, and the session keeps serving.
        let mut restored = build();
        restored
            .import_state(header, &after_many.unwrap(), &[SESSION])
            .unwrap();
        let last = request(&mut session);
        let outcomes = process(&mut restored, vec![intact, first, last.clone(), last]);
        assert!(refused_as_replay(&outcomes[0]));
        assert!(refused_as_replay(&outcomes[1]));
        assert!(replied(&outcomes[2]));
        assert!(refused_as_replay(&outcomes[3]));
    }

    #[test]
    fn garbage_ciphertext_and_short_responses_error() {
        let (mut host, avs, mut rng) = setup();
        let offer = host.attestation_offer().unwrap();
        let approved = host.measurement();
        let (accept, session) =
            IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
        host.accept_device(&accept).unwrap();

        assert!(host.relay(&[0u8; 5]).is_err());
        assert!(host.relay(&[0u8; 64]).is_err());
        assert!(session.decrypt_response(&[1, 2, 3]).is_err());
        assert!(session.decrypt_response(&[0u8; 40]).is_err());
        let _ = session.keys();
    }
}
