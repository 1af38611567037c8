//! The E1–E20 experiment implementations.
//!
//! Every experiment is a pure function of its configuration and seed, so the
//! binaries, the Criterion benches, and the integration tests can all run the
//! same code at different scales.

use crate::rig::{self, Rig};
use glimmer_core::blinding::BlindingService;
use glimmer_core::host::{GlimmerClient, GlimmerDescriptor};
use glimmer_core::policy::{check_verifiability, PolicyLimits, TcbReport};
use glimmer_core::protocol::{Contribution, ContributionPayload, PrivateData, ProcessResponse};
use glimmer_core::remote::{IotDeviceSession, RemoteGlimmerHost};
use glimmer_core::signing::ServiceKeyMaterial;
use glimmer_core::validation::{BotDetectorSpec, PredicateSpec, ValidationPredicate};
use glimmer_crypto::dh::DhGroup;
use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::schnorr::SigningKey;
use glimmer_federated::aggregation::aggregate_mean;
use glimmer_federated::attacks::{apply_poison, PoisonStrategy};
use glimmer_federated::fixed::{decode_weights, encode_weights};
use glimmer_federated::inversion::invert_membership;
use glimmer_federated::metrics::{evaluate, ModelQuality};
use glimmer_federated::trainer::train_local_model;
use glimmer_federated::{GlobalModel, LocalModel};
use glimmer_gateway::SystemClock;
use glimmer_services::botdetect::BotDetectionService;
use glimmer_services::keyboard::{KeyboardService, KeyboardServiceConfig};
use glimmer_services::ServiceError;
use glimmer_wire::Encoder;
use glimmer_workloads::adversary::{AdversaryMix, ClientRole};
use glimmer_workloads::botsignals::{BotSignalWorkload, SessionKind};
use glimmer_workloads::keyboard::{KeyboardWorkload, KeyboardWorkloadConfig};
use sgx_sim::{AttestationService, CostModel, PlatformConfig};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Poisoning strategies named independently of the schema (the concrete slot
/// is resolved against the workload's trending bigram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// The paper's out-of-range "538" contribution (Figure 1d).
    OutOfRange538,
    /// Maximum-legal-value bias that passes a plain range check.
    InRangeBias,
    /// Fully fabricated constant model.
    Fabricated,
    /// All weights scaled by 10x.
    Scaled10x,
}

impl AttackKind {
    /// All attacks swept by E3/E4/E6.
    #[must_use]
    pub fn all() -> [AttackKind; 4] {
        [
            AttackKind::OutOfRange538,
            AttackKind::InRangeBias,
            AttackKind::Fabricated,
            AttackKind::Scaled10x,
        ]
    }

    /// Short label for table output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::OutOfRange538 => "out-of-range-538",
            AttackKind::InRangeBias => "in-range-bias",
            AttackKind::Fabricated => "fabricated",
            AttackKind::Scaled10x => "scaled-10x",
        }
    }

    fn to_strategy(self, target_slot: usize) -> PoisonStrategy {
        match self {
            AttackKind::OutOfRange538 => PoisonStrategy::OutOfRange {
                slot: target_slot,
                value: 538.0,
            },
            AttackKind::InRangeBias => PoisonStrategy::InRangeBias { slot: target_slot },
            AttackKind::Fabricated => PoisonStrategy::Fabricated { value: 0.9 },
            AttackKind::Scaled10x => PoisonStrategy::Scaled { factor: 10.0 },
        }
    }
}

/// Which validation predicates the Glimmer runs (E6 spectrum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateLevel {
    /// Range check only.
    RangeOnly,
    /// Range + plausibility + keyboard corroboration (the default Glimmer).
    Corroborate,
    /// Range + full retraining check.
    Retrain,
}

impl PredicateLevel {
    /// All levels.
    #[must_use]
    pub fn all() -> [PredicateLevel; 3] {
        [
            PredicateLevel::RangeOnly,
            PredicateLevel::Corroborate,
            PredicateLevel::Retrain,
        ]
    }

    /// Table label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PredicateLevel::RangeOnly => "range-only",
            PredicateLevel::Corroborate => "corroborate",
            PredicateLevel::Retrain => "retrain",
        }
    }

    fn descriptor(self) -> GlimmerDescriptor {
        match self {
            PredicateLevel::RangeOnly => GlimmerDescriptor::keyboard_range_only(),
            PredicateLevel::Corroborate => GlimmerDescriptor::keyboard_default(),
            PredicateLevel::Retrain => GlimmerDescriptor::keyboard_retrain(),
        }
    }
}

/// Configuration of one keyboard aggregation round experiment.
#[derive(Debug, Clone)]
pub struct KeyboardRoundConfig {
    /// Number of clients.
    pub users: usize,
    /// Fraction of malicious clients.
    pub malicious_fraction: f64,
    /// The attack malicious clients mount (None = all honest).
    pub attack: Option<AttackKind>,
    /// Whether the service requires Glimmer endorsements (protected mode).
    pub protected: bool,
    /// Predicate level used by the Glimmers in protected mode.
    pub predicate_level: PredicateLevel,
    /// Experiment seed.
    pub seed: [u8; 32],
    /// Workload shape.
    pub workload: KeyboardWorkloadConfig,
}

impl Default for KeyboardRoundConfig {
    fn default() -> Self {
        KeyboardRoundConfig {
            users: 32,
            malicious_fraction: 0.0,
            attack: None,
            protected: true,
            predicate_level: PredicateLevel::Corroborate,
            seed: [42u8; 32],
            workload: KeyboardWorkloadConfig {
                users: 32,
                vocab_size: 60,
                sentences_per_user: 20,
                ..KeyboardWorkloadConfig::default()
            },
        }
    }
}

/// Outcome of one keyboard aggregation round.
#[derive(Debug, Clone)]
pub struct KeyboardRoundResult {
    /// Clients in the round.
    pub users: usize,
    /// Malicious clients in the round.
    pub malicious: usize,
    /// Contributions accepted into the aggregate.
    pub accepted: usize,
    /// Contributions rejected (by the Glimmer or the service).
    pub rejected: usize,
    /// Model quality versus the all-honest reference.
    pub quality: ModelQuality,
    /// Whether the aggregated model's top-1 prediction after the trending
    /// word is the trending next word.
    pub trending_top1: bool,
    /// Total simulated enclave cycles across all clients (protected mode).
    pub total_enclave_cycles: u64,
    /// Wall-clock seconds for the whole round.
    pub wall_seconds: f64,
}

/// Runs one keyboard aggregation round (the shared harness behind E1/E3/E4/E6).
#[must_use]
pub fn run_keyboard_round(cfg: &KeyboardRoundConfig) -> KeyboardRoundResult {
    let start = Instant::now();
    let mut workload_cfg = cfg.workload.clone();
    workload_cfg.users = cfg.users;
    let workload = KeyboardWorkload::generate(&workload_cfg, cfg.seed);
    let schema = workload.schema.clone();
    let dimension = schema.dimension();
    let client_ids = workload.client_ids();

    // All-honest reference model for quality comparison.
    let honest_locals: Vec<LocalModel> = workload
        .users
        .iter()
        .map(|u| train_local_model(&schema, &u.sentences).unwrap().0)
        .collect();
    let reference = aggregate_mean(&schema, &honest_locals).unwrap();

    // Adversary assignment.
    let trending_slot = schema
        .slot_of(workload.trending_bigram.0, workload.trending_bigram.1)
        .unwrap_or(0);
    let mix = match cfg.attack {
        Some(kind) => AdversaryMix::assign(
            cfg.users,
            cfg.malicious_fraction,
            &kind.to_strategy(trending_slot),
            cfg.seed,
        ),
        None => AdversaryMix::all_honest(cfg.users),
    };

    // Service setup.
    let mut rng = Drbg::from_seed(cfg.seed);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let service_config = KeyboardServiceConfig {
        require_endorsements: cfg.protected,
        require_blinding: true,
        ..KeyboardServiceConfig::default()
    };
    let mut service =
        KeyboardService::new(service_config, schema.clone(), Some(material.verifier()));
    let blinding = BlindingService::new([7u8; 32]);
    let masks = blinding.zero_sum_masks(0, &client_ids, dimension);

    let mut rejected = 0usize;
    let mut total_enclave_cycles = 0u64;
    let descriptor = cfg.predicate_level.descriptor();

    for (i, user) in workload.users.iter().enumerate() {
        let honest = &honest_locals[i];
        let submitted = match mix.role(i) {
            ClientRole::Honest => honest.clone(),
            ClientRole::Malicious(strategy) => apply_poison(&schema, honest, strategy),
        };
        let contribution = Contribution {
            app_id: "nextwordpredictive.com".to_string(),
            client_id: user.client_id,
            round: 0,
            payload: ContributionPayload::ModelUpdate {
                weights: submitted.weights.clone(),
            },
        };

        if cfg.protected {
            // Every client runs its own Glimmer.
            let mut client_rng = rng.fork(&format!("client-{i}"));
            let mut glimmer = GlimmerClient::new(
                descriptor.clone(),
                PlatformConfig::default(),
                &mut client_rng,
            )
            .unwrap();
            glimmer
                .install_service_key(&material.secret_bytes())
                .unwrap();
            glimmer.install_mask(&masks[i]).unwrap();
            let private = PrivateData::KeyboardLog {
                sentences: user.sentences.clone(),
            };
            match glimmer.process(contribution, private) {
                Ok(ProcessResponse::Endorsed(endorsed)) => {
                    if service.submit(&endorsed).is_err() {
                        rejected += 1;
                    }
                }
                Ok(ProcessResponse::Rejected { .. }) | Err(_) => rejected += 1,
            }
            total_enclave_cycles += glimmer.cost_report().total_cycles;
        } else {
            // Unprotected baseline: the client blinds and submits directly;
            // nothing checks the plaintext weights (Figure 1c/1d).
            let blinded = masks[i].blind(&encode_weights(&submitted.weights));
            let mut enc = Encoder::new();
            enc.put_u64_vec(&blinded);
            let endorsed = glimmer_core::protocol::EndorsedContribution {
                app_id: "nextwordpredictive.com".to_string(),
                client_id: user.client_id,
                round: 0,
                released_payload: enc.into_bytes(),
                blinded: true,
                signature: Vec::new(),
            };
            if service.submit(&endorsed).is_err() {
                rejected += 1;
            }
        }
    }

    // NOTE: with zero-sum blinding, rejected contributions leave the mask sum
    // non-zero; the honest deployment re-keys the round. The experiments
    // account for this by re-running the blinding with only accepted clients
    // when any rejection occurred, which models the second pass the paper's
    // design implies (the service tells the blinding service who is in the
    // round). For simplicity we approximate by correcting the aggregate:
    // the service finalizes whatever it accepted.
    let outcome = match service.finalize_round() {
        Ok(o) => o,
        Err(ServiceError::EmptyRound) => glimmer_services::keyboard::RoundOutcome {
            round: 0,
            accepted: 0,
            rejected,
            model: GlobalModel::empty(&schema),
        },
        Err(e) => panic!("unexpected service error: {e}"),
    };

    // If some masks did not cancel (rejections), recompute exactly with the
    // accepted subset for a faithful model: re-run a clean aggregation over
    // accepted clients only.
    let model = if rejected > 0 && outcome.accepted > 0 {
        let accepted_indices: Vec<usize> = (0..cfg.users)
            .filter(|i| {
                // A client is "accepted" if honest or its attack is within
                // range of what the configured predicate level misses; rather
                // than re-deriving, rebuild from the honest submissions that
                // were actually accepted: honest clients always pass, so use
                // them; malicious accepted ones are approximated by their
                // poisoned models passing the same predicate locally.
                let predicate: Vec<Box<dyn ValidationPredicate>> = descriptor
                    .predicate_specs
                    .iter()
                    .map(PredicateSpec::instantiate)
                    .collect();
                let honest = &honest_locals[*i];
                let submitted = match mix.role(*i) {
                    ClientRole::Honest => honest.clone(),
                    ClientRole::Malicious(strategy) => apply_poison(&schema, honest, strategy),
                };
                let contribution = Contribution {
                    app_id: "nextwordpredictive.com".to_string(),
                    client_id: *i as u64,
                    round: 0,
                    payload: ContributionPayload::ModelUpdate {
                        weights: submitted.weights,
                    },
                };
                let private = PrivateData::KeyboardLog {
                    sentences: workload.users[*i].sentences.clone(),
                };
                !cfg.protected
                    || predicate
                        .iter()
                        .all(|p| p.validate(&contribution, &private).passed)
            })
            .collect();
        let accepted_models: Vec<LocalModel> = accepted_indices
            .iter()
            .map(|&i| match mix.role(i) {
                ClientRole::Honest => honest_locals[i].clone(),
                ClientRole::Malicious(strategy) => {
                    apply_poison(&schema, &honest_locals[i], strategy)
                }
            })
            .collect();
        if accepted_models.is_empty() {
            GlobalModel::empty(&schema)
        } else {
            aggregate_mean(&schema, &accepted_models).unwrap()
        }
    } else {
        outcome.model.clone()
    };

    let quality = evaluate(&schema, &model, &workload.test_sentences, Some(&reference));
    let trending_top1 = model
        .predict_next(&schema, workload.trending_bigram.0, 1)
        .first()
        .map(|(id, _)| *id == workload.trending_bigram.1)
        .unwrap_or(false);

    KeyboardRoundResult {
        users: cfg.users,
        malicious: mix.malicious_count(),
        accepted: outcome.accepted,
        rejected,
        quality,
        trending_top1,
        total_enclave_cycles,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

// ---------------------------------------------------------------------------
// E1: federated next-word prediction (Figure 1a/1b)
// ---------------------------------------------------------------------------

/// One row of the E1 table.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Number of users.
    pub users: usize,
    /// Top-1 accuracy of the federated model on trending test sentences.
    pub federated_top1: f64,
    /// Top-3 accuracy of the federated model.
    pub federated_top3: f64,
    /// Top-1 accuracy of a single (non-trending) user's local model.
    pub single_user_top1: f64,
    /// Whether the federated model predicts the trending phrase.
    pub federated_trending: bool,
    /// Whether the single user's model predicts it.
    pub single_user_trending: bool,
}

/// Runs E1 for each user count.
#[must_use]
pub fn e1_federated_prediction(user_counts: &[usize], seed: [u8; 32]) -> Vec<E1Row> {
    user_counts
        .iter()
        .map(|&users| {
            let cfg = KeyboardWorkloadConfig {
                users,
                vocab_size: 60,
                sentences_per_user: 20,
                ..KeyboardWorkloadConfig::default()
            };
            let workload = KeyboardWorkload::generate(&cfg, seed);
            let schema = &workload.schema;
            let locals: Vec<LocalModel> = workload
                .users
                .iter()
                .map(|u| train_local_model(schema, &u.sentences).unwrap().0)
                .collect();
            let federated = aggregate_mean(schema, &locals).unwrap();
            let fed_quality = evaluate(schema, &federated, &workload.test_sentences, None);

            let single_idx = workload
                .users
                .iter()
                .position(|u| !u.typed_trending)
                .unwrap_or(0);
            let single = aggregate_mean(schema, &locals[single_idx..=single_idx]).unwrap();
            let single_quality = evaluate(schema, &single, &workload.test_sentences, None);

            let trending = |m: &GlobalModel| {
                m.predict_next(schema, workload.trending_bigram.0, 1)
                    .first()
                    .map(|(id, _)| *id == workload.trending_bigram.1)
                    .unwrap_or(false)
            };
            E1Row {
                users,
                federated_top1: fed_quality.top1_accuracy,
                federated_top3: fed_quality.top3_accuracy,
                single_user_top1: single_quality.top1_accuracy,
                federated_trending: trending(&federated),
                single_user_trending: trending(&single),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// E2: secure aggregation exactness (Figure 1c)
// ---------------------------------------------------------------------------

/// One row of the E2 table.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Number of clients.
    pub clients: usize,
    /// Model dimension.
    pub dimension: usize,
    /// Maximum absolute error between the blinded-sum mean and the plaintext
    /// mean.
    pub max_abs_error: f64,
    /// Fraction of individual blinded values that differ from the raw values
    /// (indistinguishability proxy; ~1.0 means every coordinate is masked).
    pub masked_fraction: f64,
}

/// Runs E2 over a grid of client counts and dimensions.
#[must_use]
pub fn e2_secure_aggregation(
    clients: &[usize],
    dimensions: &[usize],
    seed: [u8; 32],
) -> Vec<E2Row> {
    let mut rng = Drbg::from_seed(seed);
    let mut rows = Vec::new();
    for &n in clients {
        for &dim in dimensions {
            let ids: Vec<u64> = (0..n as u64).collect();
            let masks = BlindingService::new([9u8; 32]).zero_sum_masks(1, &ids, dim);
            let raw: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.next_f64()).collect())
                .collect();
            let encoded: Vec<Vec<u64>> = raw.iter().map(|w| encode_weights(w)).collect();
            let blinded: Vec<Vec<u64>> = encoded
                .iter()
                .zip(&masks)
                .map(|(e, m)| m.blind(e))
                .collect();

            let mut masked = 0usize;
            for (b, e) in blinded.iter().zip(&encoded) {
                masked += b.iter().zip(e.iter()).filter(|(x, y)| x != y).count();
            }
            let masked_fraction = masked as f64 / (n * dim) as f64;

            let mut sum = vec![0u64; dim];
            for b in &blinded {
                sum = glimmer_federated::fixed::add_vectors(&sum, b);
            }
            let blinded_mean: Vec<f64> = decode_weights(&sum)
                .into_iter()
                .map(|v| v / n as f64)
                .collect();
            let plain_mean: Vec<f64> = (0..dim)
                .map(|j| raw.iter().map(|r| r[j]).sum::<f64>() / n as f64)
                .collect();
            let max_abs_error = blinded_mean
                .iter()
                .zip(&plain_mean)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            rows.push(E2Row {
                clients: n,
                dimension: dim,
                max_abs_error,
                masked_fraction,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E3 / E4: poisoning attack and Glimmer defense (Figure 1d vs Figures 2-3)
// ---------------------------------------------------------------------------

/// One row of the E3/E4 tables.
#[derive(Debug, Clone)]
pub struct PoisoningRow {
    /// Attack mounted by malicious clients.
    pub attack: &'static str,
    /// Fraction of malicious clients.
    pub malicious_fraction: f64,
    /// Whether the service was protected by Glimmers.
    pub protected: bool,
    /// Contributions rejected.
    pub rejected: usize,
    /// Top-1 accuracy of the resulting model on trending test sentences.
    pub top1_accuracy: f64,
    /// L2 distance from the all-honest reference model.
    pub l2_from_honest: f64,
    /// Fraction of aggregated parameters outside `[0, 1]`.
    pub out_of_range_fraction: f64,
    /// Whether the trending phrase is still the top-1 prediction.
    pub trending_top1: bool,
}

/// Runs the poisoning sweep (E3: `protected = false`, E4: `protected = true`).
#[must_use]
pub fn e3_e4_poisoning_sweep(
    users: usize,
    fractions: &[f64],
    attacks: &[AttackKind],
    protected: bool,
    seed: [u8; 32],
) -> Vec<PoisoningRow> {
    let mut rows = Vec::new();
    for &attack in attacks {
        for &fraction in fractions {
            let cfg = KeyboardRoundConfig {
                users,
                malicious_fraction: fraction,
                attack: Some(attack),
                protected,
                predicate_level: PredicateLevel::Corroborate,
                seed,
                workload: KeyboardWorkloadConfig {
                    users,
                    vocab_size: 60,
                    sentences_per_user: 20,
                    ..KeyboardWorkloadConfig::default()
                },
            };
            let result = run_keyboard_round(&cfg);
            rows.push(PoisoningRow {
                attack: attack.label(),
                malicious_fraction: fraction,
                protected,
                rejected: result.rejected,
                top1_accuracy: result.quality.top1_accuracy,
                l2_from_honest: result.quality.l2_to_reference.unwrap_or(0.0),
                out_of_range_fraction: result.quality.out_of_range_fraction,
                trending_top1: result.trending_top1,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E5: Glimmer overhead (Section 3 design)
// ---------------------------------------------------------------------------

/// One row of the E5 table.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Model dimension of the contribution.
    pub dimension: usize,
    /// Wall-clock microseconds for one protected contribution (validate +
    /// blind + sign inside the enclave, verify at the service).
    pub wall_micros_per_contribution: f64,
    /// Simulated enclave cycles charged per contribution.
    pub enclave_cycles_per_contribution: u64,
    /// ECALLs per contribution in the single-enclave design.
    pub ecalls_single: u64,
    /// Estimated cycles per contribution if Validation/Blinding/Signing ran
    /// in three separate enclaves with secured channels (Section 3's
    /// decomposition ablation).
    pub estimated_cycles_split: u64,
}

/// Runs E5 across contribution dimensions.
#[must_use]
pub fn e5_overhead(dimensions: &[usize], repetitions: usize, seed: [u8; 32]) -> Vec<E5Row> {
    let mut rng = Drbg::from_seed(seed);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    let cost_model = CostModel::default();
    let mut rows = Vec::new();
    for &dim in dimensions {
        let mut glimmer = GlimmerClient::new(
            GlimmerDescriptor::keyboard_range_only(),
            PlatformConfig::default(),
            &mut rng,
        )
        .unwrap();
        glimmer
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let masks = BlindingService::new([5u8; 32]).zero_sum_masks(0, &[0, 1], dim);
        glimmer.install_mask(&masks[0]).unwrap();
        let baseline = glimmer.cost_report();

        let weights: Vec<f64> = (0..dim).map(|i| (i % 10) as f64 / 10.0).collect();
        let start = Instant::now();
        let mut accepted = 0usize;
        for _ in 0..repetitions.max(1) {
            let contribution = Contribution {
                app_id: "nextwordpredictive.com".to_string(),
                client_id: 0,
                round: 0,
                payload: ContributionPayload::ModelUpdate {
                    weights: weights.clone(),
                },
            };
            match glimmer.process(contribution, PrivateData::None).unwrap() {
                ProcessResponse::Endorsed(endorsed) => {
                    material.verifier().verify(&endorsed).unwrap();
                    accepted += 1;
                }
                ProcessResponse::Rejected { .. } => {}
            }
        }
        assert_eq!(accepted, repetitions.max(1));
        let elapsed = start.elapsed().as_secs_f64();
        let after = glimmer.cost_report();
        let reps = repetitions.max(1) as u64;
        let cycles = (after.total_cycles - baseline.total_cycles) / reps;
        let ecalls = (after.ecalls - baseline.ecalls) / reps;
        // Split-enclave estimate: three enclaves means three ECALL round
        // trips per contribution plus two inter-component hand-offs crossing
        // the boundary (each a copy of the contribution both ways).
        let extra_transitions = 2 * (cost_model.ecall_cycles + cost_model.eexit_cycles);
        let extra_copies = 2 * (dim as u64 * 8 * 2) * cost_model.boundary_byte_cycles;
        let estimated_cycles_split = cycles + extra_transitions + extra_copies;
        rows.push(E5Row {
            dimension: dim,
            wall_micros_per_contribution: elapsed * 1e6 / reps as f64,
            enclave_cycles_per_contribution: cycles,
            ecalls_single: ecalls,
            estimated_cycles_split,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E6: validation predicate spectrum (Section 2 / Section 3)
// ---------------------------------------------------------------------------

/// One row of the E6 table.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// Predicate level.
    pub level: &'static str,
    /// Attack evaluated.
    pub attack: &'static str,
    /// Fraction of malicious contributions that obtained an endorsement.
    pub attack_success_rate: f64,
    /// Fraction of honest contributions that obtained an endorsement.
    pub honest_acceptance_rate: f64,
    /// Mean predicate cost estimate (simulated cycles).
    pub mean_predicate_cost: f64,
}

/// Runs E6: for each predicate level and attack, what fraction of malicious
/// contributions slip through, and what does validation cost?
#[must_use]
pub fn e6_validation_spectrum(users: usize, seed: [u8; 32]) -> Vec<E6Row> {
    let workload_cfg = KeyboardWorkloadConfig {
        users,
        vocab_size: 60,
        sentences_per_user: 20,
        // Track every vocabulary word so the retraining check sees the same
        // parameter space the client trained against.
        schema_words: 70,
        ..KeyboardWorkloadConfig::default()
    };
    let workload = KeyboardWorkload::generate(&workload_cfg, seed);
    let schema = &workload.schema;
    let trending_slot = schema
        .slot_of(workload.trending_bigram.0, workload.trending_bigram.1)
        .unwrap_or(0);

    let locals: Vec<LocalModel> = workload
        .users
        .iter()
        .map(|u| train_local_model(schema, &u.sentences).unwrap().0)
        .collect();

    let mut rows = Vec::new();
    for level in PredicateLevel::all() {
        let descriptor = level.descriptor();
        let predicates: Vec<Box<dyn ValidationPredicate>> = descriptor
            .predicate_specs
            .iter()
            .map(PredicateSpec::instantiate)
            .collect();
        let validate = |contribution: &Contribution, private: &PrivateData| {
            predicates
                .iter()
                .all(|p| p.validate(contribution, private).passed)
        };
        let cost = |contribution: &Contribution, private: &PrivateData| -> u64 {
            predicates
                .iter()
                .map(|p| p.cost_estimate(contribution, private))
                .sum()
        };

        for attack in AttackKind::all() {
            let strategy = attack.to_strategy(trending_slot);
            let mut malicious_passed = 0usize;
            let mut honest_passed = 0usize;
            let mut total_cost = 0u64;
            for (i, user) in workload.users.iter().enumerate() {
                let private = PrivateData::KeyboardLog {
                    sentences: user.sentences.clone(),
                };
                let honest_contribution = Contribution {
                    app_id: "nextwordpredictive.com".to_string(),
                    client_id: user.client_id,
                    round: 0,
                    payload: ContributionPayload::ModelUpdate {
                        weights: locals[i].weights.clone(),
                    },
                };
                let poisoned = apply_poison(schema, &locals[i], &strategy);
                let malicious_contribution = Contribution {
                    payload: ContributionPayload::ModelUpdate {
                        weights: poisoned.weights,
                    },
                    ..honest_contribution.clone()
                };
                if validate(&honest_contribution, &private) {
                    honest_passed += 1;
                }
                if validate(&malicious_contribution, &private) {
                    malicious_passed += 1;
                }
                total_cost += cost(&malicious_contribution, &private);
            }
            rows.push(E6Row {
                level: level.label(),
                attack: attack.label(),
                attack_success_rate: malicious_passed as f64 / users as f64,
                honest_acceptance_rate: honest_passed as f64 / users as f64,
                mean_predicate_cost: total_cost as f64 / users as f64,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E7: bot detection with validation confidentiality (Section 4.1)
// ---------------------------------------------------------------------------

/// Result of the E7 experiment.
#[derive(Debug, Clone)]
pub struct E7Result {
    /// Sessions evaluated.
    pub sessions: usize,
    /// Ground-truth bots.
    pub bots: usize,
    /// Accuracy of the Glimmer-hosted detector (1 bit per session leaves the
    /// client).
    pub glimmer_accuracy: f64,
    /// Accuracy of the baseline that uploads raw signals to the service.
    pub raw_upload_accuracy: f64,
    /// Bytes per session that leave the client in the Glimmer design (frame
    /// size).
    pub glimmer_bytes_per_session: usize,
    /// Bytes per session that leave the client in the raw-upload baseline.
    pub raw_bytes_per_session: usize,
    /// Frames the auditor rejected when the enclave was pushed past its
    /// verdict-bit budget.
    pub auditor_rejections: u64,
    /// The covert-channel capacity bound (bits) enforced for the session.
    pub capacity_bound_bits: u64,
}

/// Runs E7.
#[must_use]
pub fn e7_bot_detection(sessions: usize, bot_fraction: f64, seed: [u8; 32]) -> E7Result {
    let workload = BotSignalWorkload::generate(sessions, bot_fraction, seed);
    let mut rng = Drbg::from_seed(seed);

    // Service setup: identity key, secret detector, approved Glimmer.
    let service_key = SigningKey::generate(DhGroup::default_group(), &mut rng).unwrap();
    let vk_bytes = service_key.verifying_key().to_bytes();
    let budget = sessions as u64 + 2;
    let descriptor = GlimmerDescriptor::bot_detection_default(vk_bytes, budget);
    let approved = descriptor.measurement();
    let mut service = BotDetectionService::new(
        BotDetectorSpec::example(),
        service_key,
        approved,
        rng.fork("service"),
    );
    let mut avs = AttestationService::new([17u8; 32]);

    // Client setup: one Glimmer handles the whole workload.
    let mut client = GlimmerClient::new(descriptor, PlatformConfig::default(), &mut rng).unwrap();
    client.provision_platform(&mut avs);
    let offer = client.start_channel().unwrap();
    let (accept, mut session) = service.accept_channel(&offer, &avs).unwrap();
    client.complete_channel(&accept).unwrap();
    let encrypted = service.encrypted_detector(&session);
    client.install_encrypted_predicate(&encrypted).unwrap();

    let mut glimmer_correct = 0usize;
    let mut raw_correct = 0usize;
    let mut glimmer_bytes = 0usize;
    let mut raw_bytes = 0usize;
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
        glimmer_bytes += frame.wire_len();
        let verdict = service.accept_verdict(&mut session, &frame).unwrap();
        let truth_human = s.kind == SessionKind::Human;
        if verdict == truth_human {
            glimmer_correct += 1;
        }
        // Raw-upload baseline: all signals plus private context leave the client.
        raw_bytes += s.private_context_bytes + s.signals.len() * 16;
        if service.classify_raw(&s.signals) == truth_human {
            raw_correct += 1;
        }
    }

    // Push past the budget to demonstrate the auditor's hard bound.
    let mut auditor_rejections = 0u64;
    for _ in 0..3 {
        let challenge = service.issue_challenge(&mut session);
        match client.confidential_check(
            challenge,
            PrivateData::BotSignals {
                signals: workload
                    .sessions
                    .first()
                    .map(|s| s.signals.clone())
                    .unwrap_or_default(),
            },
        ) {
            Ok(frame) => {
                let _ = service.accept_verdict(&mut session, &frame);
            }
            Err(_) => auditor_rejections += 1,
        }
    }

    E7Result {
        sessions,
        bots: workload.bot_count(),
        glimmer_accuracy: glimmer_correct as f64 / sessions.max(1) as f64,
        raw_upload_accuracy: raw_correct as f64 / sessions.max(1) as f64,
        glimmer_bytes_per_session: glimmer_bytes.checked_div(sessions).unwrap_or(0),
        raw_bytes_per_session: raw_bytes.checked_div(sessions).unwrap_or(0),
        auditor_rejections,
        capacity_bound_bits: budget,
    }
}

// ---------------------------------------------------------------------------
// E8: glimmer-as-a-service for IoT devices (Section 4.2)
// ---------------------------------------------------------------------------

/// Result of the E8 experiment.
#[derive(Debug, Clone)]
pub struct E8Result {
    /// Devices served.
    pub devices: usize,
    /// Contributions endorsed by the remote Glimmer.
    pub endorsed: usize,
    /// Contributions rejected (out-of-range/fabricated readings).
    pub rejected: usize,
    /// Mean wall-clock milliseconds per device for the remote path
    /// (attestation + encrypted round trip).
    pub remote_ms_per_device: f64,
    /// Mean wall-clock milliseconds per contribution for a local Glimmer
    /// (lower bound for comparison).
    pub local_ms_per_contribution: f64,
    /// Total enclave cycles on the remote host.
    pub host_enclave_cycles: u64,
}

/// Runs E8.
#[must_use]
pub fn e8_glimmer_as_a_service(
    devices: usize,
    samples_per_device: usize,
    seed: [u8; 32],
) -> E8Result {
    let mut rng = Drbg::from_seed(seed);
    let mut avs = AttestationService::new([19u8; 32]);
    let workload =
        glimmer_workloads::iot::IotWorkload::generate(devices, samples_per_device, 0.3, seed);

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
    let device_ids: Vec<u64> = workload.devices.iter().map(|d| d.device_id).collect();
    let masks = BlindingService::new([23u8; 32]).zero_sum_masks(0, &device_ids, samples_per_device);
    let approved = host.measurement();

    let remote_start = Instant::now();
    let mut endorsed = 0usize;
    let mut rejected = 0usize;
    for (i, device) in workload.devices.iter().enumerate() {
        host.client_mut().install_mask(&masks[i]).unwrap();
        let offer = host.attestation_offer().unwrap();
        let (accept, mut session) =
            IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap();
        host.accept_device(&accept).unwrap();
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
            ProcessResponse::Endorsed(e) => {
                material.verifier().verify(&e).unwrap();
                endorsed += 1;
            }
            ProcessResponse::Rejected { .. } => rejected += 1,
        }
    }
    let remote_elapsed = remote_start.elapsed().as_secs_f64();

    // Local-Glimmer comparison point: one contribution through a local enclave.
    let mut local = GlimmerClient::new(
        GlimmerDescriptor::iot_default(Vec::new()),
        PlatformConfig::default(),
        &mut rng,
    )
    .unwrap();
    local.install_service_key(&material.secret_bytes()).unwrap();
    local
        .install_mask(&glimmer_core::blinding::MaskShare {
            round: 0,
            client_id: 0,
            mask: vec![0u64; samples_per_device],
        })
        .unwrap();
    let local_start = Instant::now();
    let local_reps = 10usize;
    for _ in 0..local_reps {
        let contribution = Contribution {
            app_id: "iot-telemetry.example".to_string(),
            client_id: 0,
            round: 0,
            payload: ContributionPayload::IotReadings {
                samples: vec![0.5; samples_per_device],
            },
        };
        let _ = local.process(contribution, PrivateData::None).unwrap();
    }
    let local_elapsed = local_start.elapsed().as_secs_f64();

    E8Result {
        devices,
        endorsed,
        rejected,
        remote_ms_per_device: remote_elapsed * 1e3 / devices.max(1) as f64,
        local_ms_per_contribution: local_elapsed * 1e3 / local_reps as f64,
        host_enclave_cycles: host.cost_report().total_cycles,
    }
}

// ---------------------------------------------------------------------------
// E9: model inversion on raw vs blinded contributions (Section 1)
// ---------------------------------------------------------------------------

/// Result of the E9 experiment.
#[derive(Debug, Clone)]
pub struct E9Result {
    /// Users attacked.
    pub users: usize,
    /// Mean precision of membership inversion on raw per-user contributions.
    pub raw_precision: f64,
    /// Mean recall on raw contributions.
    pub raw_recall: f64,
    /// Mean precision on blinded contributions.
    pub blinded_precision: f64,
    /// Mean recall on blinded contributions.
    pub blinded_recall: f64,
}

/// Runs E9.
#[must_use]
pub fn e9_model_inversion(users: usize, seed: [u8; 32]) -> E9Result {
    let cfg = KeyboardWorkloadConfig {
        users,
        vocab_size: 60,
        sentences_per_user: 20,
        ..KeyboardWorkloadConfig::default()
    };
    let workload = KeyboardWorkload::generate(&cfg, seed);
    let schema = &workload.schema;
    let ids = workload.client_ids();
    let masks = BlindingService::new([29u8; 32]).zero_sum_masks(0, &ids, schema.dimension());

    let mut raw_precision = 0.0;
    let mut raw_recall = 0.0;
    let mut blinded_precision = 0.0;
    let mut blinded_recall = 0.0;
    for (i, user) in workload.users.iter().enumerate() {
        let (model, _) = train_local_model(schema, &user.sentences).unwrap();
        let actual: HashSet<usize> = user
            .sentences
            .iter()
            .flat_map(|s| s.windows(2).map(|w| (w[0], w[1])))
            .filter_map(|(p, n)| schema.slot_of(p, n))
            .collect();

        let raw_outcome = invert_membership(schema, &model.weights, &actual, 0.0);
        raw_precision += raw_outcome.precision();
        raw_recall += raw_outcome.recall();

        let blinded = masks[i].blind(&encode_weights(&model.weights));
        let observed = decode_weights(&blinded);
        let blinded_outcome = invert_membership(schema, &observed, &actual, 0.0);
        blinded_precision += blinded_outcome.precision();
        blinded_recall += blinded_outcome.recall();
    }
    let n = users.max(1) as f64;
    E9Result {
        users,
        raw_precision: raw_precision / n,
        raw_recall: raw_recall / n,
        blinded_precision: blinded_precision / n,
        blinded_recall: blinded_recall / n,
    }
}

// ---------------------------------------------------------------------------
// E10: TCB accounting and verifiability (Section 3)
// ---------------------------------------------------------------------------

/// One row of the E10 table.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Glimmer flavour.
    pub name: String,
    /// Measured descriptor size in bytes.
    pub descriptor_bytes: usize,
    /// Total EPC pages.
    pub total_pages: usize,
    /// EPC footprint in KiB.
    pub epc_kib: usize,
    /// Number of predicates in the TCB.
    pub predicates: usize,
    /// Declared declassifiers.
    pub declassifiers: usize,
    /// Whether the structural verifiability policy passes.
    pub verifiable: bool,
    /// Number of policy violations (0 when verifiable).
    pub violations: usize,
}

/// Runs E10 over every shipped Glimmer flavour.
#[must_use]
pub fn e10_tcb_accounting() -> Vec<E10Row> {
    let flavours = vec![
        GlimmerDescriptor::keyboard_range_only(),
        GlimmerDescriptor::keyboard_default(),
        GlimmerDescriptor::keyboard_retrain(),
        GlimmerDescriptor::maps_default([0u8; 32]),
        GlimmerDescriptor::bot_detection_default(vec![0u8; 129], 64),
        GlimmerDescriptor::iot_default(Vec::new()),
    ];
    flavours
        .into_iter()
        .map(|d| {
            let image = d.build_image();
            let report = TcbReport::from_build(&d, &image);
            let violations = check_verifiability(&d, PolicyLimits::default());
            E10Row {
                name: d.name.clone(),
                descriptor_bytes: report.descriptor_bytes,
                total_pages: report.total_pages,
                epc_kib: report.epc_bytes / 1024,
                predicates: report.predicates,
                declassifiers: report.declassifiers,
                verifiable: report.verifiable,
                violations: violations.len(),
            }
        })
        .collect()
}

/// One row of the E11 gateway-serving comparison.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Concurrent device sessions served.
    pub sessions: usize,
    /// Requests each session submits.
    pub requests_per_session: usize,
    /// Pool slots (shards) the gateway ran with.
    pub slots: usize,
    /// Requests that produced endorsements (identical on both paths).
    pub endorsed: usize,
    /// Requests rejected by validation (identical on both paths).
    pub rejected: usize,
    /// Wall-clock ms for the per-device baseline (one fresh
    /// `RemoteGlimmerHost` per device, sequential encrypted round trips).
    pub per_device_ms: f64,
    /// Wall-clock ms for the pooled gateway to serve the same traffic
    /// (handshakes + submits + batched drains; pool build excluded as a
    /// one-time amortized cost).
    pub pooled_ms: f64,
    /// Wall-clock ms the gateway spent building + provisioning the pool
    /// (paid once, independent of traffic volume).
    pub pool_build_ms: f64,
    /// Endorsements per second on the per-device path.
    pub per_device_endorse_per_s: f64,
    /// Endorsements per second on the pooled path.
    pub pooled_endorse_per_s: f64,
    /// `per_device_ms / pooled_ms`.
    pub speedup: f64,
    /// Simulated enclave cycles per request, per-device path (includes the
    /// per-device enclave build).
    pub per_device_cycles_per_req: f64,
    /// Simulated enclave cycles per request spent in the gateway's batched
    /// drains.
    pub pooled_drain_cycles_per_req: f64,
}

/// Runs E11: pooled-batched gateway serving vs. the per-device
/// `RemoteGlimmerHost` baseline over identical traffic.
#[must_use]
pub fn e11_gateway_serving(
    sessions: usize,
    requests_per_session: usize,
    slots: usize,
    seed: [u8; 32],
) -> E11Row {
    let dimension = 8usize;
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::generate(
        sessions,
        requests_per_session,
        dimension,
        0.2,
        seed,
        [31u8; 32],
        &mut rng,
    );

    // --- Per-device baseline: a fresh enclave host per device. ---
    let mut avs = rig::attestation([17u8; 32]);
    let mut endorsed = 0usize;
    let mut rejected = 0usize;
    let mut per_device_cycles = 0u64;
    let mut endorsements = Vec::new();
    let per_device_start = Instant::now();
    for device in 0..sessions {
        let (mut host, mut session) = rig.host_device(device, &mut avs, &mut rng);
        for round in 0..requests_per_session {
            let request = rig.request(&mut session, device, round);
            let response = session
                .decrypt_response(&host.relay(&request).unwrap())
                .unwrap();
            match response {
                ProcessResponse::Endorsed(e) => {
                    endorsements.push(e);
                    endorsed += 1;
                }
                ProcessResponse::Rejected { .. } => rejected += 1,
            }
        }
        per_device_cycles += host.cost_report().total_cycles;
    }
    let per_device_elapsed = per_device_start.elapsed().as_secs_f64();
    // Endorsement signatures are verified by the tenant service, identically
    // on either architecture, so verification sits outside both timed
    // regions; it still runs, to prove the produced endorsements are valid.
    for e in endorsements.drain(..) {
        rig.material.verifier().verify(&e).unwrap();
    }

    // --- Pooled gateway: pre-provisioned slots, batched drains. ---
    let mut avs = rig::attestation([17u8; 32]);
    let pool_build_start = Instant::now();
    // Deterministic single-shard mode: E11's cycle metric must stay
    // reproducible run-to-run (E12 is the shard-scaling experiment).
    let gateway = rig.gateway(
        rig.config(slots, 1),
        &mut avs,
        &mut rng,
        Arc::new(SystemClock::new()),
    );
    let pool_build_elapsed = pool_build_start.elapsed().as_secs_f64();

    let pooled_start = Instant::now();
    let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);
    // Replay the interleaved arrival schedule, then drain in batches.
    let responses = rig.serve(
        &gateway,
        &mut device_sessions,
        rig.schedule(0..requests_per_session),
    );
    // Devices decrypt their replies inside the timed region, mirroring the
    // per-device baseline's client-side work; signature verification happens
    // after timing on both paths (see above).
    let mut pooled_endorsed = 0usize;
    for response in &responses {
        if let ProcessResponse::Endorsed(e) = rig::decrypt(&device_sessions, response) {
            endorsements.push(e);
            pooled_endorsed += 1;
        }
    }
    let pooled_elapsed = pooled_start.elapsed().as_secs_f64();
    for e in endorsements.drain(..) {
        rig.material.verifier().verify(&e).unwrap();
    }
    assert_eq!(
        pooled_endorsed, endorsed,
        "pooled and per-device paths must agree on endorsements"
    );

    let stats = gateway.stats();
    let drain_cycles: u64 = stats.slots.iter().map(|s| s.stats.drain_cycles).sum();
    let total_requests = (sessions * requests_per_session).max(1) as f64;
    E11Row {
        sessions,
        requests_per_session,
        slots,
        endorsed,
        rejected,
        per_device_ms: per_device_elapsed * 1e3,
        pooled_ms: pooled_elapsed * 1e3,
        pool_build_ms: pool_build_elapsed * 1e3,
        per_device_endorse_per_s: endorsed as f64 / per_device_elapsed.max(1e-9),
        pooled_endorse_per_s: endorsed as f64 / pooled_elapsed.max(1e-9),
        speedup: per_device_elapsed / pooled_elapsed.max(1e-9),
        per_device_cycles_per_req: per_device_cycles as f64 / total_requests,
        pooled_drain_cycles_per_req: drain_cycles as f64 / total_requests,
    }
}

/// One row of the E12 shard-scaling experiment.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// Shard worker threads the gateway ran with.
    pub shards: usize,
    /// Pool slots (all one tenant).
    pub slots: usize,
    /// Concurrent established sessions.
    pub sessions: usize,
    /// Total requests served.
    pub requests: usize,
    /// Requests that produced endorsements (must be identical across rows).
    pub endorsed: usize,
    /// Wall-clock ms spent in submit + drain (device-side encryption is
    /// pre-paid outside the timed region, so this isolates gateway serving).
    pub serve_ms: f64,
    /// Requests per wall-clock second.
    pub wall_requests_per_s: f64,
    /// Simulated enclave cycles across all drains (identical across rows:
    /// sharding moves work, it does not add or remove any).
    pub total_drain_cycles: u64,
    /// The serving makespan in simulated cycles: the busiest shard's total.
    /// Shards run concurrently, so this — not the total — is the
    /// architectural serving time.
    pub critical_path_cycles: u64,
    /// `total_drain_cycles / critical_path_cycles`: how much parallelism the
    /// partition actually achieved (ideal = `shards` when slots balance).
    pub cycle_parallelism: f64,
    /// Critical-path speedup versus the sweep's first (serial baseline) row.
    pub cycle_speedup_vs_serial: f64,
}

/// Runs E12: the same single-tenant workload served at several shard counts.
///
/// Wall-clock columns show real parallel speedup on multicore hosts; the
/// simulated-cycle columns are the deterministic architectural metric (the
/// same convention as E11): shards drain concurrently, so the workload's
/// serving time is the *critical path* — the busiest shard's cycle total —
/// and shard-per-core scaling shows up as critical path shrinking while
/// total cycles stay bit-identical.
#[must_use]
pub fn e12_shard_scaling(
    shard_counts: &[usize],
    slots: usize,
    sessions_per_slot: usize,
    requests_per_session: usize,
    seed: [u8; 32],
) -> Vec<E12Row> {
    let sessions = slots * sessions_per_slot;
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::uniform(sessions, requests_per_session, 0.3, [32u8; 32], &mut rng);
    let mut rows: Vec<E12Row> = Vec::with_capacity(shard_counts.len());

    for &shards in shard_counts {
        // Identical seeds per configuration: the enclaves, handshakes, and
        // ciphertexts are bit-identical across shard counts, so any
        // difference between rows is the runtime's doing.
        let mut rng = rng.clone();
        let mut avs = rig::attestation([18u8; 32]);
        let gateway = rig.gateway(
            rig.config(slots, shards),
            &mut avs,
            &mut rng,
            Arc::new(SystemClock::new()),
        );
        let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);

        // Pre-encrypt every request so the timed region measures gateway
        // serving (queueing + batched enclave drains), not device-side
        // encryption.
        let encrypted = rig.encrypt(&mut device_sessions, rig.schedule(0..requests_per_session));

        let serve_start = Instant::now();
        for (sid, ciphertext) in encrypted {
            gateway.submit(sid, ciphertext).unwrap();
        }
        let responses = gateway.drain_all().unwrap();
        let serve_elapsed = serve_start.elapsed().as_secs_f64();

        let endorsed = rig::endorsed(&responses);
        let stats = gateway.stats();
        let total_drain_cycles = stats.total_drain_cycles();
        let critical_path_cycles = stats.critical_path_drain_cycles();
        let requests = sessions * requests_per_session;
        let baseline_critical = rows
            .first()
            .map_or(critical_path_cycles, |row| row.critical_path_cycles);
        rows.push(E12Row {
            shards,
            slots,
            sessions,
            requests,
            endorsed,
            serve_ms: serve_elapsed * 1e3,
            wall_requests_per_s: requests as f64 / serve_elapsed.max(1e-9),
            total_drain_cycles,
            critical_path_cycles,
            cycle_parallelism: total_drain_cycles as f64 / critical_path_cycles.max(1) as f64,
            cycle_speedup_vs_serial: baseline_critical as f64 / critical_path_cycles.max(1) as f64,
        });
    }
    rows
}

/// Serve-time variance with and without core pinning (the E12 satellite).
#[derive(Debug, Clone)]
pub struct E12PinningVariance {
    /// Timed repeats per mode.
    pub repeats: usize,
    /// Shard workers per gateway.
    pub shards: usize,
    /// Workers that actually landed on their requested core in pinned mode
    /// (0 on hosts where affinity is unsupported — the report says so).
    pub pinned_workers: usize,
    /// Mean serve wall-clock ms, `pin_cores: false`.
    pub unpinned_mean_ms: f64,
    /// Sample standard deviation, `pin_cores: false`.
    pub unpinned_stddev_ms: f64,
    /// Coefficient of variation (stddev/mean), `pin_cores: false`.
    pub unpinned_cv: f64,
    /// Mean serve wall-clock ms, `pin_cores: true`.
    pub pinned_mean_ms: f64,
    /// Sample standard deviation, `pin_cores: true`.
    pub pinned_stddev_ms: f64,
    /// Coefficient of variation, `pin_cores: true`.
    pub pinned_cv: f64,
    /// Simulated critical-path cycles were bit-identical across every
    /// repeat of both modes: pinning changes *where* workers run, never
    /// what they compute.
    pub cycles_identical: bool,
}

/// Runs the E12 pinning satellite: the same shard-per-core workload served
/// `repeats` times with `pin_cores: false` and `repeats` times with
/// `pin_cores: true`, reporting wall-clock mean/stddev/CV per mode.
///
/// Report-only: whether pinning tightens the distribution depends on host
/// load and core count, so no wall-clock ordering is asserted. What *is*
/// deterministic — and checked by the E12 binary — is that the simulated
/// critical path is bit-identical across modes.
#[must_use]
pub fn e12_pinning_variance(
    shards: usize,
    slots: usize,
    sessions_per_slot: usize,
    requests_per_session: usize,
    repeats: usize,
    seed: [u8; 32],
) -> E12PinningVariance {
    let sessions = slots * sessions_per_slot;
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::uniform(sessions, requests_per_session, 0.3, [32u8; 32], &mut rng);

    // One timed serve of the bit-identical workload; returns wall seconds,
    // the deterministic critical path, and how many workers reported a
    // successful pin.
    let run_once = |pin_cores: bool| -> (f64, u64, usize) {
        let mut rng = rng.clone();
        let mut avs = rig::attestation([18u8; 32]);
        let mut config = rig.config(slots, shards);
        config.pin_cores = pin_cores;
        let gateway = rig.gateway(config, &mut avs, &mut rng, Arc::new(SystemClock::new()));
        let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);
        let encrypted = rig.encrypt(&mut device_sessions, rig.schedule(0..requests_per_session));

        let serve_start = Instant::now();
        for (sid, ciphertext) in encrypted {
            gateway.submit(sid, ciphertext).unwrap();
        }
        gateway.drain_all().unwrap();
        let serve_elapsed = serve_start.elapsed().as_secs_f64();
        let critical = gateway.stats().critical_path_drain_cycles();
        (serve_elapsed, critical, gateway.pinned_workers())
    };

    let stats_of = |samples: &[f64]| -> (f64, f64, f64) {
        let n = samples.len().max(1) as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
        let stddev = var.sqrt();
        (mean * 1e3, stddev * 1e3, stddev / mean.max(1e-12))
    };

    let repeats = repeats.max(2);
    let mut unpinned = Vec::with_capacity(repeats);
    let mut pinned = Vec::with_capacity(repeats);
    let mut cycles: Vec<u64> = Vec::with_capacity(repeats * 2);
    let mut pinned_workers = 0usize;
    // Interleave modes so slow drift (thermal, background load) hits both
    // distributions equally instead of biasing whichever ran second.
    for _ in 0..repeats {
        let (s, c, _) = run_once(false);
        unpinned.push(s);
        cycles.push(c);
        let (s, c, p) = run_once(true);
        pinned.push(s);
        cycles.push(c);
        pinned_workers = p;
    }
    let (unpinned_mean_ms, unpinned_stddev_ms, unpinned_cv) = stats_of(&unpinned);
    let (pinned_mean_ms, pinned_stddev_ms, pinned_cv) = stats_of(&pinned);

    E12PinningVariance {
        repeats,
        shards,
        pinned_workers,
        unpinned_mean_ms,
        unpinned_stddev_ms,
        unpinned_cv,
        pinned_mean_ms,
        pinned_stddev_ms,
        pinned_cv,
        cycles_identical: cycles.windows(2).all(|w| w[0] == w[1]),
    }
}

/// One row of the E13 batched-hot-path experiment: identical traffic served
/// through a different admission path.
#[derive(Debug, Clone)]
pub struct E13Row {
    /// Which admission path produced the row: `"submit"` (per-request
    /// baseline), `"submit_many"` (one call per session), or
    /// `"submit_batch"` (bulk-producer chunks of `batch`).
    pub mode: &'static str,
    /// Requests admitted per call (1 for the baseline; `requests_per_session`
    /// for `submit_many`; the chunk size for `submit_batch`).
    pub batch: usize,
    /// Concurrent established sessions.
    pub sessions: usize,
    /// Total requests served.
    pub requests: usize,
    /// Requests that produced endorsements (identical across rows).
    pub endorsed: usize,
    /// Shard-queue submit commands the path issued (`GatewayStats::submit_commands`).
    pub submit_commands: u64,
    /// Baseline commands divided by this row's commands (1.0 for the baseline).
    pub command_reduction: f64,
    /// Simulated enclave cycles across all drains — bit-identical across
    /// rows at `shards: 1`: batching admission moves requests in bigger
    /// groups, it never changes what the enclaves compute.
    pub total_drain_cycles: u64,
    /// Wall-clock ms spent in submit + drain.
    pub serve_ms: f64,
    /// Endorsements per wall-clock second.
    pub endorse_per_s: f64,
    /// Heap allocations per request inside the whole submit+drain region.
    /// Zero unless the harness was built with `count-allocs` (see
    /// [`crate::alloc_track`]).
    pub allocs_per_req: f64,
    /// Heap allocations per request attributable to admission alone (the
    /// submit region): this is where batching shows up directly — the
    /// per-request path pays at least one channel-node allocation per
    /// request, the batched paths a handful per call. Zero unless
    /// `count-allocs`.
    pub submit_allocs_per_req: f64,
    /// Heap allocations per request in the drain region (identical across
    /// rows: the drain path does not depend on how admission was grouped).
    /// Zero unless `count-allocs`.
    pub drain_allocs_per_req: f64,
}

/// Runs E13: the same single-tenant workload admitted per-request
/// (`submit`), per-session (`submit_many`), and in bulk-producer chunks
/// (`submit_batch` over [`glimmer_workloads::gateway::GatewayTrafficWorkload::schedule_chunks`]-style
/// windows), always at `shards: 1` so the drain-cycle determinism bar is
/// checkable bit-for-bit.
///
/// Every row rebuilds the gateway from identical seeds, so enclaves,
/// handshakes, placement, and ciphertexts are bit-identical; the rows can
/// only differ in how admission is grouped. The allocation column needs the
/// `count-allocs` feature; without it the column reads zero and only the
/// command/cycle metrics are meaningful.
#[must_use]
pub fn e13_batched_hot_path(
    sessions: usize,
    requests_per_session: usize,
    chunk_sizes: &[usize],
    slots: usize,
    seed: [u8; 32],
) -> Vec<E13Row> {
    use crate::alloc_track::AllocSnapshot;

    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::generate(
        sessions,
        requests_per_session,
        8,
        0.2,
        seed,
        [33u8; 32],
        &mut rng,
    );
    let workload = &rig.workload;

    let run = |mode: &'static str, batch: usize, baseline_commands: Option<u64>| -> E13Row {
        let mut rng = rng.clone();
        let mut avs = rig::attestation([19u8; 32]);
        // The determinism bar: cycles must be bit-identical, so E13 always
        // runs the single-shard deterministic mode.
        let gateway = rig.gateway(
            rig.config(slots, 1),
            &mut avs,
            &mut rng,
            Arc::new(SystemClock::new()),
        );
        let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);

        // Pre-encrypt the whole schedule, in schedule order for every row
        // (identical device rng consumption, hence identical ciphertexts),
        // so the measured region isolates the gateway's hot path.
        let encrypted = rig.encrypt(&mut device_sessions, rig.schedule(0..requests_per_session));

        let allocs_before = AllocSnapshot::now();
        let serve_start = Instant::now();
        match mode {
            "submit" => {
                for (sid, ciphertext) in encrypted {
                    gateway.submit(sid, ciphertext).unwrap();
                }
            }
            "submit_many" => {
                // One call per session: group each device's stream. The
                // per-slot request multiset is unchanged, so drain cycles
                // stay bit-identical even though arrival interleaving is
                // session-major here.
                let mut per_session: Vec<(u64, Vec<Vec<u8>>)> = device_sessions
                    .iter()
                    .map(|(sid, _)| (*sid, Vec::with_capacity(requests_per_session)))
                    .collect();
                for (sid, ciphertext) in encrypted {
                    let group = per_session
                        .iter_mut()
                        .find(|(candidate, _)| *candidate == sid)
                        .expect("every ciphertext belongs to an opened session");
                    group.1.push(ciphertext);
                }
                for (sid, group) in per_session {
                    gateway.submit_many(sid, group).unwrap();
                }
            }
            "submit_batch" => {
                // The bulk-producer path: the workload's arrival schedule is
                // chopped into submission windows and each window becomes
                // one submit_batch call. `encrypted` is in schedule order,
                // so zipping the two streams pairs every window with its
                // ciphertexts.
                let mut iter = encrypted.into_iter();
                for window in workload.schedule_chunks(batch) {
                    let mut chunk: Vec<(u64, Vec<u8>)> = Vec::with_capacity(window.len());
                    chunk.extend(iter.by_ref().take(window.len()));
                    gateway.submit_batch(chunk).unwrap();
                }
            }
            other => panic!("unknown E13 mode {other}"),
        }
        let allocs_submitted = AllocSnapshot::now();
        let responses = gateway.drain_all().unwrap();
        let serve_elapsed = serve_start.elapsed().as_secs_f64();
        let allocs_after = AllocSnapshot::now();

        let endorsed = rig::endorsed(&responses);
        let stats = gateway.stats();
        let requests = workload.total_requests();
        E13Row {
            mode,
            batch,
            sessions,
            requests,
            endorsed,
            submit_commands: stats.submit_commands,
            command_reduction: baseline_commands.map_or(1.0, |base| {
                base as f64 / stats.submit_commands.max(1) as f64
            }),
            total_drain_cycles: stats.total_drain_cycles(),
            serve_ms: serve_elapsed * 1e3,
            endorse_per_s: endorsed as f64 / serve_elapsed.max(1e-9),
            allocs_per_req: allocs_after.allocations_since(&allocs_before) as f64
                / requests.max(1) as f64,
            submit_allocs_per_req: allocs_submitted.allocations_since(&allocs_before) as f64
                / requests.max(1) as f64,
            drain_allocs_per_req: allocs_after.allocations_since(&allocs_submitted) as f64
                / requests.max(1) as f64,
        }
    };

    let baseline = run("submit", 1, None);
    let baseline_commands = baseline.submit_commands;
    let mut rows = vec![baseline];
    rows.push(run(
        "submit_many",
        requests_per_session,
        Some(baseline_commands),
    ));
    for &batch in chunk_sizes {
        rows.push(run("submit_batch", batch, Some(baseline_commands)));
    }
    rows
}

/// Measures the drain-path *buffer discipline* in isolation: the allocator
/// calls made by `sweeps` encode+decode rounds of a `batch`-item drain, with
/// the PR 2 one-shot buffers (a fresh held-items container, a fresh wire
/// encoder, and a fresh `BatchReply` per sweep) versus the current reusable
/// scratch (`Encoder::reset` via
/// [`glimmer_core::protocol::BatchRequest::encode_items_into`] plus
/// [`glimmer_core::protocol::BatchReply::decode_items_into`]).
///
/// Both disciplines pay the per-item reply-ciphertext allocations (replies
/// are owned by the caller either way), so the difference is exactly the
/// per-sweep container churn the scratch eliminates. Returns `(one_shot,
/// scratch)` allocation counts — both zero unless the harness was built
/// with `count-allocs`. The full-pipeline allocation columns of
/// [`e13_batched_hot_path`] are dominated by enclave crypto; this is the
/// isolated measurement that makes the scratch-reuse drop visible.
#[must_use]
pub fn e13_drain_buffer_churn(batch: usize, sweeps: usize) -> (u64, u64) {
    use crate::alloc_track::AllocSnapshot;
    use glimmer_core::protocol::{
        BatchItem, BatchOutcome, BatchReply, BatchReplyItem, BatchRequest,
    };
    use glimmer_wire::WireCodec;
    use std::hint::black_box;

    let items: Vec<BatchItem> = (0..batch as u64)
        .map(|i| BatchItem {
            session_id: i,
            ciphertext: vec![0xA5; 96],
        })
        .collect();
    let reply_wire = BatchReply {
        items: (0..batch as u64)
            .map(|i| BatchReplyItem {
                session_id: i,
                outcome: BatchOutcome::Reply {
                    ciphertext: vec![0x5A; 112],
                    endorsed: true,
                },
            })
            .collect(),
    }
    .to_wire();

    // PR 2 discipline: every sweep collects the drained items into a fresh
    // container, encodes a fresh wire buffer, and decodes a fresh reply.
    let before = AllocSnapshot::now();
    for _ in 0..sweeps {
        let held: Vec<&BatchItem> = items.iter().collect();
        let mut enc = Encoder::new();
        BatchRequest::encode_items_into(&mut enc, held.iter().copied());
        black_box(enc.as_slice());
        let decoded = BatchReply::from_wire(&reply_wire).unwrap();
        black_box(&decoded);
    }
    let one_shot = AllocSnapshot::now().allocations_since(&before);

    // Scratch discipline: one encoder and one reply vector for every sweep.
    let mut enc = Encoder::new();
    let mut replies: Vec<BatchReplyItem> = Vec::new();
    let before = AllocSnapshot::now();
    for _ in 0..sweeps {
        BatchRequest::encode_items_into(&mut enc, items.iter());
        black_box(enc.as_slice());
        BatchReply::decode_items_into(&reply_wire, &mut replies).unwrap();
        black_box(&replies);
        replies.clear();
    }
    let scratch = AllocSnapshot::now().allocations_since(&before);
    (one_shot, scratch)
}

/// One row of the E14 restart-recovery experiment.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Concurrent established device sessions at crash time.
    pub sessions: usize,
    /// Requests each session submits over the whole workload.
    pub requests_per_session: usize,
    /// Pool slots serving the tenant.
    pub slots: usize,
    /// Endorsements produced before the simulated crash.
    pub pre_endorsed: usize,
    /// Endorsements for the remaining workload after a cold rebuild.
    pub post_endorsed_cold: usize,
    /// Endorsements for the remaining workload after a checkpoint restore
    /// (must equal the cold count — recovery changes cost, not outcomes).
    pub post_endorsed_restore: usize,
    /// ECALLs to make the cold-rebuilt gateway serve-ready again: one
    /// provisioning ECALL per slot, a handshake pair per session, and a mask
    /// install per (session, round).
    pub cold_ready_ecalls: u64,
    /// ECALLs to make the restored gateway serve-ready: exactly one
    /// `IMPORT_STATE` per slot — zero re-provisioning for already
    /// provisioned tenants, zero per-session work.
    pub restore_ready_ecalls: u64,
    /// `cold_ready_ecalls / restore_ready_ecalls`.
    pub ecall_reduction: f64,
    /// Wall-clock ms to cold-rebuild to serve-ready (enclave builds,
    /// provisioning, re-handshakes, mask re-installs).
    pub cold_rebuild_ms: f64,
    /// Wall-clock ms to restore to serve-ready from the snapshot.
    pub restore_ms: f64,
    /// Serialized snapshot size in bytes.
    pub snapshot_bytes: usize,
}

/// Runs E14: recovery after a gateway crash, cold rebuild versus sealed
/// checkpoint restore, over the E11 traffic generator.
///
/// The scenario: a serving gateway (established sessions, installed masks,
/// half the workload already endorsed) checkpoints and then dies. Recovery
/// path A rebuilds from scratch — every slot re-provisioned, every device
/// re-handshaking, every mask re-delivered. Recovery path B calls
/// [`glimmer_gateway::Gateway::restore_chain`] on the snapshot (an empty
/// delta chain): each slot pays one
/// `IMPORT_STATE` ECALL and the original devices keep serving on their
/// existing sessions. Both paths then serve the remaining workload; they
/// must produce the same endorsements.
#[must_use]
pub fn e14_restart_recovery(
    sessions: usize,
    requests_per_session: usize,
    slots: usize,
    seed: [u8; 32],
) -> E14Row {
    use glimmer_gateway::{Gateway, GatewaySnapshot, SnapshotChain, TenantQuota};

    let pre_rounds = requests_per_session / 2;
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::generate(
        sessions,
        requests_per_session,
        8,
        0.2,
        seed,
        [71u8; 32],
        &mut rng,
    );

    // --- Serve, checkpoint, crash. ---
    // The dedicated gateway rng stands in for the machine identity: restore
    // reproduces the platforms from the same seed.
    let machine_seed = [73u8; 32];
    let mut avs = rig::attestation([72u8; 32]);
    let gateway = rig.gateway(
        rig.config(slots, 1),
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
        Arc::new(SystemClock::new()),
    );
    let mut original_sessions = rig.connect(&gateway, &avs, &mut rng);
    let pre_endorsed = rig::endorsed(&rig.serve(
        &gateway,
        &mut original_sessions,
        rig.schedule(0..pre_rounds),
    ));
    let snapshot_bytes_vec = gateway.checkpoint().unwrap().to_bytes();
    drop(gateway); // the crash: every enclave dies with the process

    // --- Recovery path A: cold rebuild (what PR 3 and earlier had). ---
    let cold_start = Instant::now();
    let cold = rig.gateway(
        rig.config(slots, 1),
        &mut avs,
        &mut Drbg::from_seed([74u8; 32]),
        Arc::new(SystemClock::new()),
    );
    let mut cold_sessions = rig.connect(&cold, &avs, &mut rng);
    let cold_rebuild_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    let cold_ready_ecalls = rig::ecalls(&cold);
    let post_endorsed_cold = rig::endorsed(&rig.serve(
        &cold,
        &mut cold_sessions,
        rig.schedule(pre_rounds..requests_per_session),
    ));
    drop(cold);

    // --- Recovery path B: restore from the sealed checkpoint. ---
    let restore_start = Instant::now();
    let snapshot = GatewaySnapshot::from_bytes(&snapshot_bytes_vec).unwrap();
    let restored = Gateway::restore_chain(
        rig.config(slots, 1),
        rig.tenants(TenantQuota::default()),
        SnapshotChain {
            base: &snapshot,
            deltas: &[],
        },
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
    )
    .unwrap();
    let restore_ms = restore_start.elapsed().as_secs_f64() * 1e3;
    let restore_ready_ecalls = rig::ecalls(&restored);
    // The original devices keep their sessions: no re-handshake, no mask
    // re-delivery, straight back to serving.
    let post_endorsed_restore = rig::endorsed(&rig.serve(
        &restored,
        &mut original_sessions,
        rig.schedule(pre_rounds..requests_per_session),
    ));

    E14Row {
        sessions,
        requests_per_session,
        slots,
        pre_endorsed,
        post_endorsed_cold,
        post_endorsed_restore,
        cold_ready_ecalls,
        restore_ready_ecalls,
        ecall_reduction: cold_ready_ecalls as f64 / (restore_ready_ecalls as f64).max(1.0),
        cold_rebuild_ms,
        restore_ms,
        snapshot_bytes: snapshot_bytes_vec.len(),
    }
}

/// One row of the E15 async-front-end experiment.
#[derive(Debug, Clone)]
pub struct E15Row {
    /// Concurrent device sessions multiplexed on one front-end thread.
    pub sessions: usize,
    /// Requests each session submits.
    pub requests_per_session: usize,
    /// Pool slots (one tenant, `shards: 1` for determinism).
    pub slots: usize,
    /// Requests that produced endorsements (identical on both paths).
    pub endorsed: usize,
    /// Requests rejected by validation (identical on both paths).
    pub rejected: usize,
    /// Wall-clock ms for the blocking driver (same phase structure).
    pub blocking_ms: f64,
    /// Wall-clock ms for the async driver: every session task plus the
    /// submitter/drainer runs on ONE executor thread.
    pub async_ms: f64,
    /// OS threads the async front-end added beyond the baseline process
    /// (gateway shard workers included in the baseline) — measured from
    /// `/proc/self/status` mid-serving where available, `None` elsewhere.
    /// The executor spawns none, so this must be `Some(0)` on Linux.
    pub extra_frontend_threads: Option<usize>,
    /// Sessions simultaneously live when submission began (the concurrency
    /// actually achieved, asserted `== sessions`).
    pub peak_live_sessions: usize,
    /// Task polls the executor performed.
    pub executor_polls: u64,
    /// Scheduling events (spawns + wakes, including cross-thread wakes from
    /// the shard worker) the executor's ready queue saw.
    pub executor_wakeups: u64,
    /// Whether the async path's reply sequence `(session_id, outcome)` was
    /// bit-identical to the blocking path's.
    pub identical_outputs: bool,
}

/// OS thread count of this process, where the platform exposes it.
fn os_threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Runs E15: the hand-rolled async front-end serving N concurrent device
/// sessions on one executor thread, compared against a blocking driver with
/// the identical phase structure (open all → handshake all → masks
/// round-major → each session's arrival-ordered stream via `submit_many` →
/// drain). At `shards: 1` both
/// paths present each enclave the same sequence of randomness-consuming
/// operations (session opens, batch processing — executor micro-timing
/// races never reorder those), so their endorsement outputs — down to the
/// reply ciphertext bytes — must be identical; the
/// async path's win is architectural: thousands of in-flight sessions with
/// zero extra front-end threads, instead of a parked OS thread per
/// outstanding reply.
#[must_use]
pub fn e15_async_frontend(
    sessions: usize,
    requests_per_session: usize,
    slots: usize,
    seed: [u8; 32],
) -> E15Row {
    use glimmer_gateway::frontend::{AsyncGateway, SessionExecutor, WaitGroup};
    use glimmer_gateway::{Gateway, GatewayResponse};
    use std::cell::RefCell;
    use std::rc::Rc;

    let rig = Rc::new(Rig::generate(
        sessions,
        requests_per_session,
        8,
        0.2,
        seed,
        [31u8; 32],
        &mut Drbg::from_seed(seed),
    ));
    // Deterministic single-shard mode: the bit-identical-outputs claim
    // depends on a single FIFO command stream per the frontend docs.
    let config = || rig.config(slots, 1);
    // The whole point is concurrency scale: all sessions are live at once
    // and the entire schedule is queued before the first drain.
    let tenants = || rig.tenants(rig.all_live_quota());
    // Both paths must consume identical randomness streams: the machine rng
    // rebuilds identical platforms, the device rng identical handshakes.
    let machine_seed = [101u8; 32];
    let device_seed = [102u8; 32];
    let expected_replies = rig.workload.total_requests();

    // Per-session request streams, extracted once from the interleaved
    // schedule: each driver submits them through `submit_many` — one
    // atomic admission + one shard command per session — in device order.
    // (Single tenant, so streams[i].device == i.)
    let streams = Rc::new(rig.workload.session_streams());

    // --- Blocking driver, phased exactly like the async task lifecycle:
    // all opens, then all handshakes (device order), then masks
    // round-major, then each session's stream via submit_many, then
    // drain-to-empty. ---
    let mut avs = rig::attestation([17u8; 32]);
    let gateway = Gateway::new(
        config(),
        tenants(),
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
    )
    .unwrap();
    let blocking_start = Instant::now();
    let mut device_sessions = rig.connect_phased(&gateway, &avs, &mut Drbg::from_seed(device_seed));
    rig.submit_streams(&gateway, &mut device_sessions, &streams);
    let blocking_responses = gateway.drain_all().unwrap();
    let blocking_ms = blocking_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(blocking_responses.len(), expected_replies);
    drop(gateway);

    // --- Async driver: one self-contained task per session (lifecycle
    // through submitting its own stream), one drainer task, every poll on
    // this thread. ---
    let mut avs = rig::attestation([17u8; 32]);
    let gateway = Gateway::new(
        config(),
        tenants(),
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
    )
    .unwrap();
    // Baseline AFTER the shard workers exist: any growth from here on would
    // be threads the front-end itself added (it must add none).
    let baseline_threads = os_threads();
    let frontend = AsyncGateway::new(gateway);
    let mut executor = SessionExecutor::new();
    let async_start = Instant::now();
    let approved = frontend.gateway().measurement(rig::APP).unwrap();
    let device_rng = Rc::new(RefCell::new(Drbg::from_seed(device_seed)));
    let avs = Rc::new(avs);
    let ready = WaitGroup::new(sessions);
    // Session tasks park their established device sessions here for the
    // submitter task (slot i = device i, so ids line up with the streams).
    type Established = Vec<Option<(u64, IotDeviceSession)>>;
    let established: Rc<RefCell<Established>> =
        Rc::new(RefCell::new((0..sessions).map(|_| None).collect()));
    let async_responses: Rc<RefCell<Vec<GatewayResponse>>> = Rc::new(RefCell::new(Vec::new()));
    let peak_live = Rc::new(std::cell::Cell::new(0usize));
    let threads_mid_serving = Rc::new(std::cell::Cell::new(None::<usize>));

    for i in 0..sessions {
        let frontend = frontend.clone();
        let device_rng = Rc::clone(&device_rng);
        let avs = Rc::clone(&avs);
        let rig = Rc::clone(&rig);
        let established = Rc::clone(&established);
        let ready = ready.clone();
        executor.spawn(async move {
            let (sid, offer) = frontend.open_session(rig::APP).await.unwrap();
            let (accept, session) = {
                let mut rng = device_rng.borrow_mut();
                IotDeviceSession::connect(&offer, &avs, &approved, &mut rng).unwrap()
            };
            frontend.complete_session(sid, &accept).await.unwrap();
            for round in &rig.masks {
                frontend.install_mask(sid, &round[i]).await.unwrap();
            }
            established.borrow_mut()[i] = Some((sid, session));
            ready.done();
        });
    }
    {
        let frontend = frontend.clone();
        let rig = Rc::clone(&rig);
        let streams = Rc::clone(&streams);
        let established = Rc::clone(&established);
        let async_responses = Rc::clone(&async_responses);
        let peak_live = Rc::clone(&peak_live);
        let threads_mid_serving = Rc::clone(&threads_mid_serving);
        executor.spawn(async move {
            // Hold submission back until every session finished its
            // handshake — the same phase boundary the blocking driver has,
            // and the moment all N sessions are provably live at once.
            //
            // Submission runs in ONE task, walking the per-session streams
            // in device order, because a completion delivered before its
            // first poll resolves inline: session tasks that submit from
            // inside their own lifecycle would race each other's
            // submission order (harmless for correctness, fatal for the
            // bit-identical comparison — the per-slot queue order feeds
            // the enclave's reply-nonce stream at drain time).
            ready.wait().await;
            peak_live.set(frontend.gateway().live_sessions());
            threads_mid_serving.set(os_threads());
            // Take ownership of the established sessions (every session
            // task has finished, so the cell is fully populated): holding
            // a RefCell borrow across the awaits below would be fragile.
            let mut established: Established = std::mem::take(&mut established.borrow_mut());
            for stream in streams.iter() {
                let (sid, session) = established[stream.device]
                    .as_mut()
                    .expect("all sessions established");
                let requests: Vec<Vec<u8>> = stream
                    .requests
                    .iter()
                    .map(|&round| rig.request(session, stream.device, round))
                    .collect();
                frontend.submit_many(*sid, requests).await.unwrap();
            }
            loop {
                let batch = frontend.drain_replies().await.unwrap();
                let mut collected = async_responses.borrow_mut();
                collected.extend(batch);
                if collected.len() >= expected_replies {
                    break;
                }
            }
        });
    }
    executor.run();
    let async_ms = async_start.elapsed().as_secs_f64() * 1e3;
    let executor_polls = executor.polls();
    let executor_wakeups = executor.wakeups();

    // The acceptance bar: bit-identical reply sequences, byte-for-byte
    // (every reply ciphertext depends on the per-slot enclave rng stream,
    // so this holds only because both drivers present each enclave the
    // same order of randomness-consuming operations).
    let async_responses = async_responses.borrow();
    let identical_outputs = blocking_responses.len() == async_responses.len()
        && blocking_responses
            .iter()
            .zip(async_responses.iter())
            .all(|(b, a)| b.session_id == a.session_id && b.outcome == a.outcome);
    let endorsed = rig::endorsed(&async_responses);
    let rejected = expected_replies - endorsed;
    let extra_frontend_threads = match (baseline_threads, threads_mid_serving.get()) {
        (Some(before), Some(during)) => Some(during.saturating_sub(before)),
        _ => None,
    };

    E15Row {
        sessions,
        requests_per_session,
        slots,
        endorsed,
        rejected,
        blocking_ms,
        async_ms,
        extra_frontend_threads,
        peak_live_sessions: peak_live.get(),
        executor_polls,
        executor_wakeups,
        identical_outputs,
    }
}

/// The E16 telemetry-overhead report: one full-pipeline serving comparison
/// (telemetry on vs telemetry off over bit-identical traffic) plus the
/// layer-by-layer observability bars — allocation-free recording, a
/// deterministic sampled trace, and round-tripping exposition formats.
#[derive(Debug, Clone)]
pub struct E16Report {
    /// Concurrent established sessions.
    pub sessions: usize,
    /// Requests per session.
    pub requests_per_session: usize,
    /// Enclave slots backing the tenant pool.
    pub slots: usize,
    /// Total requests served per mode (`sessions * requests_per_session`).
    pub requests: usize,
    /// Timed repeats per mode; the serve columns report the best repeat.
    pub repeats: usize,
    /// Requests that produced endorsements — asserted identical across
    /// modes inside the experiment: telemetry changes costs, never
    /// outcomes.
    pub endorsed: usize,
    /// Best-of-`repeats` wall-clock ms for submit + drain, telemetry on
    /// (the default [`glimmer_gateway::TelemetryConfig`]).
    pub serve_ms_on: f64,
    /// Best-of-`repeats` wall-clock ms for submit + drain, telemetry off.
    pub serve_ms_off: f64,
    /// Endorsements per wall-clock second with telemetry on.
    pub endorse_per_s_on: f64,
    /// Endorsements per wall-clock second with telemetry off.
    pub endorse_per_s_off: f64,
    /// The telemetry overhead bar: the median over repeats of the
    /// back-to-back per-pair `on / off` serve-time ratio, minus one.
    /// Pairing cancels CPU-frequency drift out of each ratio and the
    /// median discards outlier pairs, so this is the noise-robust
    /// estimate the E16 binary asserts stays within 5%.
    pub overhead_fraction: f64,
    /// Heap allocations per request in the serve region with telemetry on
    /// (best repeat). Zero unless built with `count-allocs`.
    pub allocs_per_req_on: f64,
    /// Heap allocations per request in the serve region with telemetry off
    /// (best repeat). Zero unless built with `count-allocs`.
    pub allocs_per_req_off: f64,
    /// Total extra allocations attributable to telemetry across the whole
    /// serve region (on minus off, best repeats). The steady-state
    /// recording paths are allocation-free, so this is bounded by the
    /// one-time per-gateway trace-scratch growth — the E16 binary asserts
    /// a small absolute cap, not a per-request one. Zero unless
    /// `count-allocs`.
    pub telemetry_allocs_total: u64,
    /// Allocations made by an isolated 100k-iteration
    /// [`glimmer_gateway::Histogram::record`] loop: the lock-free
    /// histogram hot path must allocate exactly zero. Zero (vacuously)
    /// unless `count-allocs`.
    pub record_allocs: u64,
    /// Median queue-wait (admission to drain start) from the telemetry-on
    /// run, nanoseconds.
    pub queue_wait_p50_nanos: u64,
    /// 99th-percentile queue-wait from the telemetry-on run, nanoseconds.
    pub queue_wait_p99_nanos: u64,
    /// Median per-sweep ECALL latency from the telemetry-on run,
    /// nanoseconds.
    pub ecall_p50_nanos: u64,
    /// 99th-percentile per-sweep ECALL latency from the telemetry-on run,
    /// nanoseconds.
    pub ecall_p99_nanos: u64,
    /// Admission-accepted counter from the telemetry-on snapshot (must
    /// equal `requests`: this workload is all well-formed submits).
    pub accepted: u64,
    /// Number of exposition samples the telemetry-on snapshot renders.
    pub sample_count: usize,
    /// The [`ManualClock`](glimmer_gateway::ManualClock) sub-check: a
    /// sampled trace carried all five pipeline stages with the exact
    /// injected timestamps.
    pub trace_complete: bool,
    /// The same trace's stage timestamps were monotonically non-decreasing.
    pub trace_monotonic: bool,
    /// The Prometheus-style text and JSON renderings parsed back to the
    /// identical sample map (and to `samples()` itself), with the p50/p99
    /// series present for both the ECALL and queue-wait histograms.
    pub round_trip_ok: bool,
}

/// Runs E16: the telemetry overhead and fidelity experiment.
///
/// Serves the identical single-tenant workload twice — once with the
/// default-on telemetry layer, once with telemetry disabled — through the
/// per-request `submit` path (the admission path that pays telemetry on
/// every call), timing `repeats` same-seed rebuilds of each mode and
/// keeping the best. Endorsement counts must match across modes (asserted
/// here; telemetry observes the pipeline, it never steers it). On top of
/// the comparison it runs three fidelity sub-checks: an isolated
/// [`glimmer_gateway::Histogram::record`] loop (the allocation-free bar),
/// a [`ManualClock`](glimmer_gateway::ManualClock)-driven gateway whose
/// sampled trace must carry exact deterministic stage timestamps, and the
/// exposition round-trip (text and JSON renderings parse to the same
/// samples). Allocation columns need `count-allocs`; without it they read
/// zero and only the timing and fidelity fields are meaningful.
#[must_use]
pub fn e16_telemetry(
    sessions: usize,
    requests_per_session: usize,
    slots: usize,
    repeats: usize,
    seed: [u8; 32],
) -> E16Report {
    use crate::alloc_track::AllocSnapshot;
    use glimmer_gateway::telemetry::{parse_exposition, parse_json_samples};
    use glimmer_gateway::{
        AdmitReason, Histogram, ManualClock, TelemetryConfig, TelemetrySnapshot, TraceStage,
    };

    let repeats = repeats.max(1);
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::generate(
        sessions,
        requests_per_session,
        8,
        0.2,
        seed,
        [33u8; 32],
        &mut rng,
    );
    let requests = rig.workload.total_requests();

    struct Once {
        endorsed: usize,
        elapsed_s: f64,
        allocs: u64,
        snapshot: TelemetrySnapshot,
    }
    let run_once = |telemetry: TelemetryConfig| -> Once {
        {
            // Same-seed rebuild per run (and per mode): enclaves,
            // handshakes, placement, and ciphertexts are bit-identical, so
            // the two modes can only differ in the telemetry layer itself.
            let mut rng = rng.clone();
            let mut avs = rig::attestation([19u8; 32]);
            let mut config = rig.config(slots, 1);
            config.telemetry = telemetry;
            let gateway = rig.gateway(config, &mut avs, &mut rng, Arc::new(SystemClock::new()));
            let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);
            let encrypted =
                rig.encrypt(&mut device_sessions, rig.schedule(0..requests_per_session));

            // The measured region: per-request admission plus drain — the
            // paths the telemetry layer instruments.
            let allocs_before = AllocSnapshot::now();
            let serve_start = Instant::now();
            for (sid, ciphertext) in encrypted {
                gateway.submit(sid, ciphertext).unwrap();
            }
            let responses = gateway.drain_all().unwrap();
            let elapsed = serve_start.elapsed().as_secs_f64();
            let allocs = AllocSnapshot::now().allocations_since(&allocs_before);

            Once {
                endorsed: rig::endorsed(&responses),
                elapsed_s: elapsed,
                allocs,
                snapshot: gateway.telemetry(),
            }
        }
    };

    struct Mode {
        endorsed: usize,
        serve_s: f64,
        serve_allocs: u64,
        snapshot: Option<TelemetrySnapshot>,
    }
    impl Mode {
        fn fold(&mut self, run: Once) {
            self.endorsed = run.endorsed;
            self.serve_s = self.serve_s.min(run.elapsed_s);
            // Best (minimum) across repeats: any process-global lazy init
            // the first repeat pays is excluded from the comparison.
            self.serve_allocs = self.serve_allocs.min(run.allocs);
            self.snapshot = Some(run.snapshot);
        }
    }
    let empty = || Mode {
        endorsed: 0,
        serve_s: f64::INFINITY,
        serve_allocs: u64::MAX,
        snapshot: None,
    };
    let off_config = TelemetryConfig {
        enabled: false,
        ..TelemetryConfig::default()
    };
    // One discarded warm-up run absorbs cold caches and lazy process-global
    // init; the timed repeats then interleave off/on so frequency drift and
    // scheduling noise hit both modes symmetrically. The overhead estimate
    // is the MEDIAN of the per-pair on/off ratios: within a pair the two
    // serves run back-to-back, so slow-CPU periods cancel out of the ratio,
    // and the median discards outlier pairs that straddle a frequency
    // transition.
    let _ = run_once(off_config.clone());
    let (mut off, mut on) = (empty(), empty());
    let mut pair_ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let off_run = run_once(off_config.clone());
        let on_run = run_once(TelemetryConfig::default());
        pair_ratios.push(on_run.elapsed_s / off_run.elapsed_s.max(1e-12));
        off.fold(off_run);
        on.fold(on_run);
    }
    pair_ratios.sort_by(f64::total_cmp);
    let overhead_fraction = pair_ratios[pair_ratios.len() / 2] - 1.0;
    assert_eq!(
        on.endorsed, off.endorsed,
        "telemetry must never change endorsement outcomes"
    );

    // The allocation-free recording bar, in isolation: the lock-free
    // histogram hot path (bucket index + relaxed atomics) must not touch
    // the allocator at all.
    let hist = Histogram::new();
    let record_before = AllocSnapshot::now();
    for i in 0..100_000u64 {
        hist.record(std::hint::black_box(
            i.wrapping_mul(2_654_435_761) & 0xF_FFFF,
        ));
    }
    let record_allocs = AllocSnapshot::now().allocations_since(&record_before);
    std::hint::black_box(hist.snapshot().count);

    // The deterministic-trace bar: under the injected ManualClock a sampled
    // trace must stamp all five stages with the exact injected times —
    // admission and enqueue at t=1000, the drain stages at t=2500.
    let (trace_complete, trace_monotonic) = {
        let mut rng = Drbg::from_seed(seed);
        let rig = Rig::uniform(1, 1, 0.25, [33u8; 32], &mut rng);
        let mut avs = rig::attestation([19u8; 32]);
        let clock = Arc::new(ManualClock::new());
        let mut config = rig.config(1, 1);
        config.telemetry.trace_sample_interval = 1;
        let gateway = rig.gateway(config, &mut avs, &mut rng, clock.clone());
        let mut device_sessions = rig.connect(&gateway, &avs, &mut rng);
        let (sid, ciphertext) = rig.encrypt(&mut device_sessions, [(0, 0)]).remove(0);
        clock.advance_nanos(1_000);
        gateway.submit(sid, ciphertext).unwrap();
        // FIFO barrier: the stats round-trip proves the worker stamped
        // `Enqueued` before the clock moves again.
        let _ = gateway.stats();
        clock.advance_nanos(1_500);
        let drained = gateway.drain().unwrap();
        assert_eq!(drained.len(), 1);
        let snap = gateway.telemetry();
        match snap.traces.iter().find(|t| t.trace_id != 0) {
            Some(trace) => (
                trace.is_complete()
                    && trace.stage(TraceStage::Admitted) == Some(1_000)
                    && trace.stage(TraceStage::Enqueued) == Some(1_000)
                    && trace.stage(TraceStage::DrainStart) == Some(2_500)
                    && trace.stage(TraceStage::EcallDone) == Some(2_500)
                    && trace.stage(TraceStage::ReplyDelivered) == Some(2_500),
                trace.is_monotonic(),
            ),
            None => (false, false),
        }
    };

    // The exposition round-trip bar, on the real serving snapshot: both
    // renderings must parse back to the identical sample map, and the
    // quantile series dashboards key on must be present.
    let snapshot = on.snapshot.as_ref().expect("repeats >= 1");
    let round_trip_ok = match (
        parse_exposition(&snapshot.render_prometheus()),
        parse_json_samples(&snapshot.render_json()),
    ) {
        (Ok(from_text), Ok(from_json)) => {
            from_text == from_json
                && from_text == snapshot.samples()
                && [
                    "glimmer_ecall_nanos_p50",
                    "glimmer_ecall_nanos_p99",
                    "glimmer_queue_wait_nanos_p50",
                    "glimmer_queue_wait_nanos_p99",
                ]
                .iter()
                .all(|key| from_text.contains_key(*key))
        }
        _ => false,
    };
    let accepted = snapshot
        .admission
        .iter()
        .find(|(reason, _)| *reason == AdmitReason::Accepted)
        .map_or(0, |(_, n)| *n);

    E16Report {
        sessions,
        requests_per_session,
        slots,
        requests,
        repeats,
        endorsed: on.endorsed,
        serve_ms_on: on.serve_s * 1e3,
        serve_ms_off: off.serve_s * 1e3,
        endorse_per_s_on: on.endorsed as f64 / on.serve_s.max(1e-9),
        endorse_per_s_off: off.endorsed as f64 / off.serve_s.max(1e-9),
        overhead_fraction,
        allocs_per_req_on: on.serve_allocs as f64 / requests.max(1) as f64,
        allocs_per_req_off: off.serve_allocs as f64 / requests.max(1) as f64,
        telemetry_allocs_total: on.serve_allocs.saturating_sub(off.serve_allocs),
        record_allocs,
        queue_wait_p50_nanos: snapshot.queue_wait_nanos.p50(),
        queue_wait_p99_nanos: snapshot.queue_wait_nanos.p99(),
        ecall_p50_nanos: snapshot.ecall_nanos.p50(),
        ecall_p99_nanos: snapshot.ecall_nanos.p99(),
        accepted,
        sample_count: snapshot.sample_lines().len(),
        trace_complete,
        trace_monotonic,
        round_trip_ok,
    }
}

/// One loader-scaling row of E17: the same scenario file loaded with a
/// different reader count.
#[derive(Debug, Clone)]
pub struct E17LoaderRow {
    /// Parallel chunk readers.
    pub readers: usize,
    /// Records loaded (identical across rows).
    pub records: u64,
    /// Best-of-repeats wall-clock load+parse time.
    pub load_ms: f64,
    /// Records parsed per wall-clock second (best repeat).
    pub records_per_s: f64,
    /// Records owned by the busiest chunk — the loader's critical path.
    pub max_chunk_records: u64,
    /// `records / max_chunk_records`: the deterministic parallel speedup
    /// the chunk partition admits (readers run concurrently, so the
    /// busiest chunk bounds the makespan). Unlike wall clock, this holds
    /// on any host, including single-core CI.
    pub det_speedup: f64,
    /// Wall-clock speedup versus the single-reader row (best-of-repeats).
    /// Only meaningful with as many idle cores as readers.
    pub wall_speedup: f64,
    /// Concatenated chunk records were bit-identical to the generator's
    /// ground truth: nothing lost, duplicated, or split.
    pub exactly_once: bool,
    /// Heap allocations per record across the whole `load_chunks` call
    /// (windows, output reservations, thread spawns — the per-record parse
    /// itself is allocation-free). Zero unless built with `count-allocs`.
    pub load_allocs_per_record: f64,
}

/// The E17 result: loader scaling plus the end-to-end replay-vs-in-process
/// serve comparison.
#[derive(Debug, Clone)]
pub struct E17Result {
    /// Records in the loader-scaling scenario file.
    pub parse_records: u64,
    /// Bytes in the loader-scaling scenario file.
    pub parse_bytes: u64,
    /// One row per reader count.
    pub loader_rows: Vec<E17LoaderRow>,
    /// Records in the (smaller) serve scenario.
    pub serve_records: u64,
    /// Sessions the serve harness established.
    pub serve_sessions: usize,
    /// Endorsements the replayed run produced.
    pub replay_endorsed: usize,
    /// Endorsements the in-process baseline produced (must equal).
    pub baseline_endorsed: usize,
    /// Replay wall-clock submit+drain ms (batched-per-shard ingest).
    pub replay_serve_ms: f64,
    /// Replayed records per wall-clock second through the gateway.
    pub ingest_records_per_s: f64,
    /// Endorsements per wall-clock second during replay.
    pub endorse_per_s: f64,
    /// Requests terminally rejected by quota during replay (counted, not
    /// dropped).
    pub quota_rejected: u64,
    /// Drain sweeps the replay pacing performed.
    pub drains: u64,
    /// Replay responses were bit-identical (session, tenant, and full
    /// outcome ciphertext) to the in-process per-record baseline.
    pub bit_identical: bool,
    /// Malformed lines the loader saw in the serve file (0 for a generated
    /// file).
    pub parse_errors: u64,
    /// The telemetry hub's `ingest parsed` counter after the replay —
    /// wired from the loader summaries, so it must equal `serve_records`.
    pub telemetry_ingest_parsed: u64,
    /// The hub's `ingest parse_error` counter after the replay.
    pub telemetry_ingest_parse_errors: u64,
    /// The hub's `ingest quota_rejected` counter after the replay.
    pub telemetry_ingest_quota_rejected: u64,
}

/// Runs E17: million-device replay ingest.
///
/// Phase 1 (loader scaling) generates a `parse_records`-record scenario
/// file and loads it with each reader count in `reader_counts`
/// (best-of-`repeats` wall clock), verifying the chunked readers
/// reproduce the generator's records exactly once. Phase 2 (end-to-end)
/// generates a smaller serve scenario (`serve_sessions` devices per
/// tenant × 2 tenants, abuse-burst mix), replays it through a
/// [`crate::ingest::ReplayHarness`] on the batched-per-shard path with
/// bounded in-flight admission, and replays the *same records* through a
/// fresh same-seed harness on the per-record baseline path with the same
/// drain cadence — at `shards: 1` the two must produce bit-identical
/// responses. Loader accounting is mirrored into the gateway's telemetry
/// ingest counters, observable like live traffic.
///
/// Scenario files live in the OS temp directory and are removed before
/// returning.
#[must_use]
pub fn e17_replay_ingest(
    parse_records: u64,
    reader_counts: &[usize],
    repeats: usize,
    serve_sessions: usize,
    serve_rounds: usize,
    seed: [u8; 32],
) -> E17Result {
    use crate::alloc_track::AllocSnapshot;
    use crate::ingest::{ingest, IngestConfig, IngestMode, Pacing, ReplayHarness};
    use glimmer_workloads::replay::{
        generate_scenario_file, load_chunks, FileSource, ParseSummary, ReplayRecord, ScenarioMix,
        ScenarioSpec, CHUNK_EXCESS,
    };

    let dir = std::env::temp_dir();
    let pid = std::process::id();

    // ---- Phase 1: loader scaling over a large diurnal scenario. ----
    let parse_spec = ScenarioSpec {
        tenants: 4,
        devices_per_tenant: 250_000,
        records: parse_records,
        mix: ScenarioMix::Diurnal {
            period: (parse_records / 8).max(2),
        },
        seed: u64::from_le_bytes(seed[..8].try_into().unwrap()),
    };
    let parse_path = dir.join(format!("glimmer-e17-{pid}-parse.scenario"));
    let parse_info = generate_scenario_file(&parse_path, &parse_spec).expect("generate scenario");
    let truth = parse_spec.records_vec();

    let mut loader_rows: Vec<E17LoaderRow> = Vec::with_capacity(reader_counts.len());
    for &readers in reader_counts {
        let source = FileSource::open(&parse_path).expect("open scenario");
        let mut best_s = f64::INFINITY;
        let mut exactly_once = true;
        let mut max_chunk_records = 0u64;
        let mut load_allocs = 0u64;
        for repeat in 0..repeats.max(1) {
            let allocs_before = AllocSnapshot::now();
            let start = Instant::now();
            let loads = load_chunks(&source, readers, CHUNK_EXCESS).expect("load scenario");
            let elapsed = start.elapsed().as_secs_f64();
            load_allocs = AllocSnapshot::now().allocations_since(&allocs_before);
            best_s = best_s.min(elapsed);
            if repeat == 0 {
                max_chunk_records = loads.iter().map(|l| l.summary.records).max().unwrap_or(0);
                let flat: Vec<ReplayRecord> = loads
                    .iter()
                    .flat_map(|l| l.records.iter().copied())
                    .collect();
                exactly_once = flat == truth && loads.iter().all(|l| l.summary.parse_errors == 0);
            }
        }
        let single_ms = loader_rows.first().map_or(best_s * 1e3, |row| row.load_ms);
        loader_rows.push(E17LoaderRow {
            readers,
            records: parse_info.records,
            load_ms: best_s * 1e3,
            records_per_s: parse_info.records as f64 / best_s.max(1e-9),
            max_chunk_records,
            det_speedup: parse_info.records as f64 / max_chunk_records.max(1) as f64,
            wall_speedup: single_ms / (best_s * 1e3).max(1e-9),
            exactly_once,
            load_allocs_per_record: load_allocs as f64 / parse_info.records.max(1) as f64,
        });
    }
    let _ = std::fs::remove_file(&parse_path);

    // ---- Phase 2: end-to-end replay vs in-process baseline. ----
    let serve_spec = ScenarioSpec {
        tenants: 2,
        devices_per_tenant: serve_sessions as u64,
        records: (serve_sessions * serve_rounds * 2) as u64,
        mix: ScenarioMix::AbuseBurst {
            abusive_fraction: 0.5,
            period: 16,
            burst_len: 4,
        },
        seed: u64::from_le_bytes(seed[8..16].try_into().unwrap()),
    };
    let serve_path = dir.join(format!("glimmer-e17-{pid}-serve.scenario"));
    let serve_info = generate_scenario_file(&serve_path, &serve_spec).expect("generate serve");
    let source = FileSource::open(&serve_path).expect("open serve");
    let loads = load_chunks(&source, 4, CHUNK_EXCESS).expect("load serve");
    let _ = std::fs::remove_file(&serve_path);
    let summary = loads.iter().fold(ParseSummary::default(), |mut a, l| {
        a.merge(&l.summary);
        a
    });
    let replayed: Vec<ReplayRecord> = loads
        .into_iter()
        .flat_map(|l| l.records.into_iter())
        .collect();

    // Both drivers share one pacing so their drain cadence — and therefore
    // their response stream — is comparable bit-for-bit at `shards: 1`.
    let pacing = |mode| IngestConfig {
        mode,
        window: 64,
        max_in_flight: 256,
        pacing: Pacing::Unpaced,
    };
    let build = |records: &[ReplayRecord]| {
        ReplayHarness::build(
            records,
            serve_spec.tenants,
            1, // deterministic single-shard mode: the bit-identity bar
            2,
            8,
            1024,
            seed,
            Arc::new(SystemClock::new()),
        )
    };

    // Replay side: records from the *file*, batched-per-shard admission,
    // loader accounting mirrored into the telemetry ingest counters.
    let mut replay_harness = build(&replayed);
    let telemetry = replay_harness.gateway.telemetry_handle();
    telemetry.record_ingest_parsed(summary.records);
    telemetry.record_ingest_parse_errors(summary.parse_errors);
    let serve_start = Instant::now();
    let replay_report = ingest(
        &mut replay_harness,
        &replayed,
        &pacing(IngestMode::BatchedPerShard),
    )
    .expect("replay ingest");
    let replay_elapsed = serve_start.elapsed().as_secs_f64();
    let snapshot = replay_harness.gateway.telemetry();

    // Baseline side: the *same* records regenerated in process (the
    // exactly-once check above proved file and generator agree), per-record
    // admission, same cadence, fresh same-seed harness.
    let baseline_records = serve_spec.records_vec();
    let mut baseline_harness = build(&baseline_records);
    let baseline_report = ingest(
        &mut baseline_harness,
        &baseline_records,
        &pacing(IngestMode::PerRecord),
    )
    .expect("baseline ingest");

    let bit_identical = replay_report.response_keys() == baseline_report.response_keys();

    E17Result {
        parse_records: parse_info.records,
        parse_bytes: parse_info.bytes,
        loader_rows,
        serve_records: serve_info.records,
        serve_sessions: replay_harness.session_count(),
        replay_endorsed: replay_report.endorsed(),
        baseline_endorsed: baseline_report.endorsed(),
        replay_serve_ms: replay_elapsed * 1e3,
        ingest_records_per_s: serve_info.records as f64 / replay_elapsed.max(1e-9),
        endorse_per_s: replay_report.endorsed() as f64 / replay_elapsed.max(1e-9),
        quota_rejected: replay_report.quota_rejected,
        drains: replay_report.drains,
        bit_identical,
        parse_errors: summary.parse_errors,
        telemetry_ingest_parsed: snapshot.ingest_parsed,
        telemetry_ingest_parse_errors: snapshot.ingest_parse_errors,
        telemetry_ingest_quota_rejected: snapshot.ingest_quota_rejected,
    }
}

/// The E18 result: incremental + streamed checkpoints.
#[derive(Debug, Clone)]
pub struct E18Result {
    /// Pool slots in the ratio gateway (one tenant, one session per slot).
    pub slots: usize,
    /// Slots the delta actually re-exported (the dirty set).
    pub dirty_slots: usize,
    /// Slots the delta skipped wholesale — no barrier, no seal, no ECALL.
    pub skipped_slots: usize,
    /// ECALLs one full checkpoint consumed (one `EXPORT_STATE` per slot).
    pub full_ecalls: u64,
    /// ECALLs one delta checkpoint consumed (dirty slots only).
    pub delta_ecalls: u64,
    /// `full_ecalls / delta_ecalls` — the E18 bar is ≥ 10x at 5% dirty.
    pub ecall_reduction: f64,
    /// Best-of-repeats wall-clock ms for a full checkpoint.
    pub full_ms: f64,
    /// Best-of-repeats wall-clock ms for a delta against the same base.
    pub delta_ms: f64,
    /// `full_ms / delta_ms` — the E18 bar is ≥ 5x at 5% dirty.
    pub wall_speedup: f64,
    /// Serialized full-snapshot size.
    pub full_bytes: usize,
    /// Serialized delta size (scales with the dirty set, not the pool).
    pub delta_bytes: usize,
    /// Wall-clock ms for the slot-at-a-time streamed full capture.
    pub streamed_ms: f64,
    /// Requests endorsed by drains issued *while* the streamed capture was
    /// in flight — proof that serving continued during housekeeping.
    pub served_during_capture: u64,
    /// The telemetry hub's `checkpoint_slots_total{outcome=exported}`
    /// counter after all checkpoint activity.
    pub telemetry_slots_exported: u64,
    /// The hub's `checkpoint_slots_total{outcome=skipped}` counter.
    pub telemetry_slots_skipped: u64,
    /// A fresh checkpoint of the chain-restored gateway was byte-identical
    /// to one from the equivalently full-snapshot-restored gateway.
    pub chain_restore_identical: bool,
    /// Post-restore serving produced identical responses on both paths.
    pub chain_tail_identical: bool,
}

/// Runs E18: incremental, streamed checkpoints.
///
/// Phase 1 (the ratio gateway) serves one round across `slots` single-slot
/// sessions so every slot holds state, takes a full checkpoint as the chain
/// base, then re-serves only `dirty` devices and captures a
/// [`glimmer_gateway::Gateway::checkpoint_delta`] against the base. ECALLs
/// and best-of-`repeats` wall clock are measured for both paths: the delta
/// must touch only the dirty slots, so both scale with the dirty count,
/// not the pool size.
///
/// Phase 2 re-captures the same gateway with a full
/// [`glimmer_gateway::Gateway::checkpoint`], driving
/// `overlap_requests` live requests through the gateway from inside the
/// [`glimmer_gateway::CrashPoint::MidStreamExport`] hook — each one
/// submitted and drained while the capture is mid-flight, proving
/// housekeeping no longer stops the world.
///
/// Phase 3 (bit-identity) runs two identically-seeded fixtures on a
/// [`glimmer_gateway::ManualClock`]: run A checkpoints base + delta, run B
/// takes full snapshots at the same two points, both crash, and run A
/// restores through [`glimmer_gateway::Gateway::restore_chain_with_hooks`]
/// while run B restores from the full snapshot (the empty chain). A fresh checkpoint from
/// either restored gateway must be byte-for-byte identical, and both must
/// serve the remaining workload identically.
#[must_use]
pub fn e18_incremental_checkpoint(
    slots: usize,
    dirty: usize,
    dimension: usize,
    repeats: usize,
    overlap_requests: usize,
    seed: [u8; 32],
) -> E18Result {
    use glimmer_gateway::{
        CrashHooks, CrashPoint, Gateway, ManualClock, NoCrash, SnapshotChain, TenantQuota,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    assert!(dirty >= 1 && dirty <= slots, "dirty must be in 1..=slots");
    let total_rounds = 2 + overlap_requests;
    let mut rng = Drbg::from_seed(seed);
    let rig = Rig::generate(
        slots,
        total_rounds,
        dimension,
        0.0,
        seed,
        [81u8; 32],
        &mut rng,
    );
    let mut avs = rig::attestation([82u8; 32]);
    let gateway = rig.gateway(
        rig.config(slots, 4),
        &mut avs,
        &mut Drbg::from_seed([83u8; 32]),
        Arc::new(SystemClock::new()),
    );
    let mut sessions = rig.connect(&gateway, &avs, &mut rng);
    // Round 0 for every device: every slot ends up dirty and stateful.
    let served = rig::endorsed(&rig.serve(&gateway, &mut sessions, (0..slots).map(|i| (i, 0))));
    assert_eq!(served, slots, "honest round 0 must fully endorse");

    // --- Full-checkpoint cost: every slot pays its EXPORT_STATE. ---
    let mut full_ms = f64::INFINITY;
    let mut full_ecalls = 0u64;
    let mut base = None;
    for _ in 0..repeats.max(1) {
        let before = rig::ecalls(&gateway);
        let start = Instant::now();
        let snapshot = gateway.checkpoint().unwrap();
        full_ms = full_ms.min(start.elapsed().as_secs_f64() * 1e3);
        full_ecalls = rig::ecalls(&gateway) - before;
        base = Some(snapshot);
    }
    let base = base.unwrap();
    let full_bytes = base.to_bytes().len();

    // --- Dirty a 5%-ish subset, then measure the delta. ---
    let served = rig::endorsed(&rig.serve(&gateway, &mut sessions, (0..dirty).map(|i| (i, 1))));
    assert_eq!(served, dirty);
    let mut delta_ms = f64::INFINITY;
    let mut delta_ecalls = 0u64;
    let mut delta = None;
    for _ in 0..repeats.max(1) {
        let before = rig::ecalls(&gateway);
        let start = Instant::now();
        let captured = gateway.checkpoint_delta(&base.chain_base()).unwrap();
        delta_ms = delta_ms.min(start.elapsed().as_secs_f64() * 1e3);
        delta_ecalls = rig::ecalls(&gateway) - before;
        delta = Some(captured);
    }
    let delta = delta.unwrap();
    let delta_bytes = delta.to_bytes().len();
    let dirty_slots = delta.tenants[0]
        .slots
        .iter()
        .filter(|s| s.sealed_state.is_some())
        .count();
    let skipped_slots = slots - dirty_slots;

    // --- Streamed capture with live traffic from inside the hook. ---
    struct ServeDuringCapture<'a> {
        rig: &'a Rig,
        gateway: &'a Gateway,
        // (dense device index, sid, device session, next round) for the
        // device the hook keeps serving; rounds_left bounds the traffic.
        lane: Mutex<(usize, u64, IotDeviceSession, usize, usize)>,
        served: AtomicU64,
    }
    impl CrashHooks for ServeDuringCapture<'_> {
        fn reached(&self, point: CrashPoint) -> bool {
            if point == CrashPoint::MidStreamExport {
                let mut lane = self.lane.lock().unwrap();
                let (device, sid, ref mut session, ref mut round, ref mut left) = *lane;
                if *left > 0 {
                    *left -= 1;
                    let request = self.rig.request(session, device, *round);
                    *round += 1;
                    self.gateway.submit(sid, request).unwrap();
                    let endorsed = rig::endorsed(&self.gateway.drain_all().unwrap());
                    self.served.fetch_add(endorsed as u64, Ordering::Relaxed);
                }
            }
            false // observe, never crash
        }
    }
    // Device 0 already served rounds 0 and 1; its masks run to
    // `total_rounds`, leaving exactly `overlap_requests` rounds for the
    // hook to burn mid-capture.
    let (sid0, session0) = sessions.swap_remove(0);
    let hooks = ServeDuringCapture {
        rig: &rig,
        gateway: &gateway,
        lane: Mutex::new((0, sid0, session0, 2, overlap_requests)),
        served: AtomicU64::new(0),
    };
    let start = Instant::now();
    let streamed = gateway.checkpoint_with_hooks(&hooks).unwrap();
    let streamed_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        streamed.tenants[0].slots.len(),
        slots,
        "streamed capture must cover the whole pool"
    );
    let served_during_capture = hooks.served.load(Ordering::Relaxed);
    let telemetry = gateway.telemetry();
    drop(gateway);

    // --- Bit-identity: chain restore vs full-snapshot restore. ---
    let (chain_restore_identical, chain_tail_identical) = {
        // Deterministic serial drain order at `shards: 1`: the identity bar.
        let fixture = Rig::synthetic(
            rig::APP,
            &[0, 1, 2, 3],
            2,
            8,
            |device, round| vec![0.1 + 0.08 * device as f64 + 0.04 * round as f64; 8],
            [85u8; 32],
            &mut Drbg::from_seed([84u8; 32]),
        );
        // One deterministic pre-crash run: serve round 0 everywhere, hand
        // the gateway to `ops` for its two checkpoint calls (serving the
        // dirtying round between them), and return everything the restore
        // needs. Identical seeds make run A and run B the same machine.
        type CheckpointOps<'o> = dyn FnMut(&Gateway, &mut dyn FnMut(&Gateway)) + 'o;
        let run = |ops: &mut CheckpointOps<'_>| {
            let clock = Arc::new(ManualClock::new());
            let mut avs = rig::attestation([86u8; 32]);
            let gateway = fixture.gateway(
                fixture.config(4, 1),
                &mut avs,
                &mut Drbg::from_seed([88u8; 32]),
                clock.clone(),
            );
            let mut device_sessions =
                fixture.connect(&gateway, &avs, &mut Drbg::from_seed([87u8; 32]));
            fixture.serve(&gateway, &mut device_sessions, (0..4).map(|i| (i, 0)));
            // `ops` checkpoints, then asks us to serve the dirtying round
            // (devices 0..2 at round 1), then checkpoints again.
            ops(&gateway, &mut |gateway| {
                fixture.serve(gateway, &mut device_sessions, (0..2).map(|i| (i, 1)));
            });
            drop(gateway);
            (avs, clock, device_sessions)
        };
        // Post-restore tail: devices 2.. still owe round 1.
        let tail = |gateway: &Gateway,
                    device_sessions: &mut [(u64, IotDeviceSession)]|
         -> Vec<(u64, String)> {
            fixture
                .serve(gateway, device_sessions, (2..4).map(|i| (i, 1)))
                .iter()
                .map(|r| (r.session_id, format!("{:?}", r.outcome)))
                .collect()
        };

        // Run A: base + delta.
        let mut base_a = None;
        let mut delta_a = None;
        let (mut avs_a, clock_a, mut sessions_a) = run(&mut |gateway, dirty_round| {
            let base = gateway.checkpoint().unwrap();
            dirty_round(gateway);
            delta_a = Some(gateway.checkpoint_delta(&base.chain_base()).unwrap());
            base_a = Some(base);
        });
        // Run B: full snapshots at the same two points (same epoch
        // sequence).
        let mut full_b = None;
        let (mut avs_b, clock_b, mut sessions_b) = run(&mut |gateway, dirty_round| {
            let _ = gateway.checkpoint().unwrap();
            dirty_round(gateway);
            full_b = Some(gateway.checkpoint().unwrap());
        });

        let base_a = base_a.unwrap();
        let delta_a = delta_a.unwrap();
        let restored_a = Gateway::restore_chain_with_hooks(
            fixture.config(4, 1),
            fixture.tenants(TenantQuota::default()),
            SnapshotChain {
                base: &base_a,
                deltas: std::slice::from_ref(&delta_a),
            },
            &mut avs_a,
            &mut Drbg::from_seed([88u8; 32]),
            clock_a,
            &NoCrash,
        )
        .unwrap();
        let restored_b = Gateway::restore_chain_with_hooks(
            fixture.config(4, 1),
            fixture.tenants(TenantQuota::default()),
            SnapshotChain {
                base: &full_b.unwrap(),
                deltas: &[],
            },
            &mut avs_b,
            &mut Drbg::from_seed([88u8; 32]),
            clock_b,
            &NoCrash,
        )
        .unwrap();
        let identical = restored_a.checkpoint().unwrap().to_bytes()
            == restored_b.checkpoint().unwrap().to_bytes();
        let tail_a = tail(&restored_a, &mut sessions_a);
        let tail_b = tail(&restored_b, &mut sessions_b);
        let tail_identical = tail_a == tail_b
            && !tail_a.is_empty()
            && tail_a
                .iter()
                .any(|(_, outcome)| outcome.contains("endorsed: true"));
        (identical, tail_identical)
    };

    E18Result {
        slots,
        dirty_slots,
        skipped_slots,
        full_ecalls,
        delta_ecalls,
        ecall_reduction: full_ecalls as f64 / (delta_ecalls as f64).max(1.0),
        full_ms,
        delta_ms,
        wall_speedup: full_ms / delta_ms.max(1e-9),
        full_bytes,
        delta_bytes,
        streamed_ms,
        served_during_capture,
        telemetry_slots_exported: telemetry.checkpoint_slots_exported,
        telemetry_slots_skipped: telemetry.checkpoint_slots_skipped,
        chain_restore_identical,
        chain_tail_identical,
    }
}

/// One row of the E19 socket front-door experiment.
#[derive(Debug, Clone)]
pub struct E19Row {
    /// Concurrent device sessions, each on its own real TCP connection.
    pub sessions: usize,
    /// Requests each session submits.
    pub requests_per_session: usize,
    /// Pool slots (one tenant, `shards: 1` for determinism).
    pub slots: usize,
    /// Requests that produced endorsements (identical on both paths).
    pub endorsed: usize,
    /// Requests rejected by validation (identical on both paths).
    pub rejected: usize,
    /// Wall-clock ms for the in-process blocking driver.
    pub blocking_ms: f64,
    /// Wall-clock ms for the socket path: the same traffic over real
    /// loopback TCP, every connection served by ONE front-door thread.
    pub socket_ms: f64,
    /// OS threads serving the sockets added beyond the in-process baseline
    /// (shard workers included in the baseline) — measured from
    /// `/proc/self/status` mid-serving where available, `None` elsewhere.
    /// The front door spawns exactly one thread (executor + epoll reactor),
    /// so this must be `Some(1)` on Linux.
    pub extra_frontend_threads: Option<usize>,
    /// Sessions simultaneously live once every handshake completed (the
    /// concurrency actually achieved over real sockets).
    pub peak_live_sessions: usize,
    /// Client-issued `Drain` requests needed to collect every reply (the
    /// periodic drainer is off, so the drain order is client-controlled).
    pub drain_calls: u64,
    /// Whether the socket path's drain-sequence-ordered replies
    /// `(session_id, outcome)` were bit-identical — ciphertext bytes
    /// included — to the in-process blocking driver's drain order.
    pub identical_outputs: bool,
}

/// Runs E19: the real socket front door versus the in-process blocking
/// driver, same traffic, same seeds. Phase A is E15's blocking lifecycle
/// (open all → handshake all in device order → masks round-major → each
/// session's stream via `submit_many` → drain-to-empty). Phase B serves an
/// identically-seeded gateway behind [`glimmer_gateway::net::serve`] and
/// drives one `GatewayClient` per session over loopback TCP in lockstep —
/// at most one request outstanding globally, in the exact order Phase A
/// issued its calls — with the server's periodic drainer disabled so reply
/// draining happens only on explicit client `Drain` requests. At
/// `shards: 1` both paths then present each enclave the same sequence of
/// randomness-consuming operations, so sorting the socket replies by the
/// server's global drain sequence must reproduce Phase A's reply stream
/// byte-for-byte.
///
/// One extra connection opens and then goes silent for the whole run: a
/// hung client must cost the front door nothing but its fd.
///
/// # Panics
///
/// Panics if the front door cannot come up (unsupported target) or any
/// lifecycle step fails — E19 is only meaningful on Linux.
#[must_use]
pub fn e19_socket_frontdoor(
    sessions: usize,
    requests_per_session: usize,
    slots: usize,
    seed: [u8; 32],
) -> E19Row {
    use glimmer_core::protocol::BatchOutcome;
    use glimmer_gateway::frontend::AsyncGateway;
    use glimmer_gateway::net::{GatewayClient, ReplyEnvelope};
    use glimmer_gateway::Gateway;
    use std::net::TcpStream;

    let rig = Rig::generate(
        sessions,
        requests_per_session,
        8,
        0.2,
        seed,
        [31u8; 32],
        &mut Drbg::from_seed(seed),
    );
    let config = || {
        // Deterministic single-shard mode, like E15: the bit-identical
        // claim needs one FIFO command stream per enclave.
        let mut config = rig.config(slots, 1);
        // Timer policies off for the comparison run: an idle timeout or a
        // stale sweep firing mid-experiment on a slow host would perturb
        // the op order whose determinism is under test (both have their
        // own ManualClock-driven tests).
        config.evict_stale_period = None;
        config.net.idle_timeout = None;
        config.net.drain_interval = None;
        config
    };
    let tenants = || rig.tenants(rig.all_live_quota());
    let machine_seed = [101u8; 32];
    let device_seed = [102u8; 32];
    let expected_replies = rig.workload.total_requests();
    let streams = rig.workload.session_streams();

    // --- Phase A: the in-process blocking driver (E15's phase structure,
    // bit-for-bit). ---
    let mut avs = rig::attestation([17u8; 32]);
    let gateway = Gateway::new(
        config(),
        tenants(),
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
    )
    .unwrap();
    let blocking_start = Instant::now();
    let mut device_sessions = rig.connect_phased(&gateway, &avs, &mut Drbg::from_seed(device_seed));
    rig.submit_streams(&gateway, &mut device_sessions, &streams);
    let blocking_responses = gateway.drain_all().unwrap();
    let blocking_ms = blocking_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(blocking_responses.len(), expected_replies);
    drop(gateway);

    // --- Phase B: the same traffic over real loopback TCP. ---
    let mut avs = rig::attestation([17u8; 32]);
    let gateway = Gateway::new(
        config(),
        tenants(),
        &mut avs,
        &mut Drbg::from_seed(machine_seed),
    )
    .unwrap();
    let approved = gateway.measurement(rig::APP).unwrap();
    // Baseline AFTER the shard workers exist: growth from here on is what
    // serving sockets costs in threads (exactly the front-door thread).
    let baseline_threads = os_threads();
    let gateway = std::sync::Arc::new(gateway);
    let server = glimmer_gateway::net::serve(
        AsyncGateway::from_arc(std::sync::Arc::clone(&gateway)),
        None,
    )
    .expect("E19 needs the socket front door (Linux)");
    let addr = server.addr();

    let socket_start = Instant::now();
    // A hung connection: accepted, registered, then silent forever. The
    // reactor must carry it for free while 1000 live neighbours are served.
    let hung = TcpStream::connect(addr).unwrap();

    let mut clients: Vec<GatewayClient> = (0..sessions)
        .map(|_| {
            let mut client = GatewayClient::connect(addr).unwrap();
            client
                .set_read_timeout(Some(std::time::Duration::from_secs(120)))
                .unwrap();
            client
        })
        .collect();
    // Lockstep lifecycle in device order — each call is one round trip, so
    // the server observes exactly the op order Phase A issued.
    let mut opened = Vec::with_capacity(sessions);
    for client in &mut clients {
        opened.push(client.open_session(rig::APP).unwrap());
    }
    let mut device_rng = Drbg::from_seed(device_seed);
    let mut socket_sessions = Vec::with_capacity(sessions);
    for (client, (sid, offer)) in clients.iter_mut().zip(&opened) {
        let (accept, session) =
            IotDeviceSession::connect(offer, &avs, &approved, &mut device_rng).unwrap();
        client.complete_session(*sid, &accept).unwrap();
        socket_sessions.push((*sid, session));
    }
    let threads_mid_serving = os_threads();
    // Every session's handshake completed and nothing has drained: this is
    // the moment all N TCP-backed sessions are provably live at once.
    let peak_live_sessions = gateway.live_sessions();
    for round in &rig.masks {
        for (i, client) in clients.iter_mut().enumerate() {
            client
                .install_mask(socket_sessions[i].0, &round[i])
                .unwrap();
        }
    }
    for stream in &streams {
        let (sid, session) = &mut socket_sessions[stream.device];
        let requests: Vec<Vec<u8>> = stream
            .requests
            .iter()
            .map(|&round| rig.request(session, stream.device, round))
            .collect();
        clients[stream.device].submit_many(*sid, requests).unwrap();
    }
    // Client-controlled draining: ask until every reply has been routed.
    let mut drain_calls = 0u64;
    let mut routed_total = 0u64;
    while routed_total < expected_replies as u64 {
        routed_total += clients[0].drain().unwrap();
        drain_calls += 1;
        if routed_total < expected_replies as u64 {
            // The shard worker is still processing; yield rather than spin.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    // Collect each connection's pushed replies and reassemble the global
    // drain order from the server-stamped sequence numbers.
    let mut envelopes: Vec<ReplyEnvelope> = Vec::with_capacity(expected_replies);
    for (i, client) in clients.iter_mut().enumerate() {
        let expected = streams
            .iter()
            .filter(|s| s.device == i)
            .map(|s| s.requests.len())
            .sum::<usize>();
        for _ in 0..expected {
            let envelope = client.next_reply().unwrap();
            assert_eq!(
                envelope.session_id, socket_sessions[i].0,
                "reply routed to the wrong connection"
            );
            envelopes.push(envelope);
        }
    }
    let socket_ms = socket_start.elapsed().as_secs_f64() * 1e3;
    envelopes.sort_by_key(|e| e.drain_seq);
    assert_eq!(envelopes.len(), expected_replies);
    // Every sequence number is accounted for: nothing was dropped or
    // double-routed on the way to the sockets.
    assert!(envelopes
        .iter()
        .enumerate()
        .all(|(i, e)| e.drain_seq == i as u64));

    let identical_outputs = blocking_responses.len() == envelopes.len()
        && blocking_responses
            .iter()
            .zip(envelopes.iter())
            .all(|(b, s)| b.session_id == s.session_id && b.outcome == s.outcome);
    let endorsed = envelopes
        .iter()
        .filter(|e| matches!(e.outcome, BatchOutcome::Reply { endorsed: true, .. }))
        .count();
    let rejected = expected_replies - endorsed;
    let extra_frontend_threads = match (baseline_threads, threads_mid_serving) {
        (Some(before), Some(during)) => Some(during.saturating_sub(before)),
        _ => None,
    };

    drop(hung);
    drop(clients);
    server.stop();

    E19Row {
        sessions,
        requests_per_session,
        slots,
        endorsed,
        rejected,
        blocking_ms,
        socket_ms,
        extra_frontend_threads,
        peak_live_sessions,
        drain_calls,
        identical_outputs,
    }
}

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
        let gateway = rig.gateway(
            rig.config(slots, shards),
            &mut avs,
            &mut rng,
            Arc::new(SystemClock::new()),
        );
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

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: [u8; 32] = [99u8; 32];

    #[test]
    fn e1_federated_beats_single_user() {
        let rows = e1_federated_prediction(&[16], SEED);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].federated_trending);
        assert!(!rows[0].single_user_trending);
        assert!(rows[0].federated_top1 >= rows[0].single_user_top1);
    }

    #[test]
    fn e2_blinded_sums_are_exact_and_masked() {
        let rows = e2_secure_aggregation(&[4, 8], &[16], SEED);
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(row.max_abs_error < 1e-5, "{}", row.max_abs_error);
            assert!(row.masked_fraction > 0.95);
        }
    }

    #[test]
    fn e3_unprotected_round_is_poisoned_and_e4_protected_recovers() {
        let users = 12;
        let unprotected =
            e3_e4_poisoning_sweep(users, &[0.1], &[AttackKind::OutOfRange538], false, SEED);
        let protected =
            e3_e4_poisoning_sweep(users, &[0.1], &[AttackKind::OutOfRange538], true, SEED);
        assert_eq!(unprotected.len(), 1);
        assert_eq!(protected.len(), 1);
        // Unprotected: the 538 contribution skews the model heavily.
        assert!(unprotected[0].l2_from_honest > 1.0);
        assert!(unprotected[0].out_of_range_fraction > 0.0);
        assert_eq!(unprotected[0].rejected, 0);
        // Protected: the poisoned contribution is rejected and quality recovers.
        assert!(protected[0].rejected >= 1);
        assert!(protected[0].l2_from_honest < unprotected[0].l2_from_honest);
        assert_eq!(protected[0].out_of_range_fraction, 0.0);
        assert!(protected[0].trending_top1);
    }

    #[test]
    fn e5_overhead_scales_with_dimension() {
        let rows = e5_overhead(&[16, 256], 2, SEED);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].enclave_cycles_per_contribution > 0);
        assert!(rows[1].enclave_cycles_per_contribution >= rows[0].enclave_cycles_per_contribution);
        assert!(rows[0].ecalls_single >= 1);
        assert!(rows[0].estimated_cycles_split > rows[0].enclave_cycles_per_contribution);
    }

    #[test]
    fn e6_stronger_predicates_catch_more_attacks() {
        let rows = e6_validation_spectrum(16, SEED);
        assert_eq!(rows.len(), 12);
        let find = |level: &str, attack: &str| {
            rows.iter()
                .find(|r| r.level == level && r.attack == attack)
                .unwrap()
        };
        // The 538 attack is caught by every level.
        assert_eq!(
            find("range-only", "out-of-range-538").attack_success_rate,
            0.0
        );
        // The in-range bias slips past the range check but not retraining.
        assert_eq!(find("range-only", "in-range-bias").attack_success_rate, 1.0);
        assert!(find("retrain", "in-range-bias").attack_success_rate < 0.5);
        // Honest contributions pass everywhere.
        for r in &rows {
            assert!(r.honest_acceptance_rate > 0.9, "{} {}", r.level, r.attack);
        }
        // Cost increases with invasiveness.
        assert!(
            find("retrain", "fabricated").mean_predicate_cost
                > find("range-only", "fabricated").mean_predicate_cost
        );
    }

    #[test]
    fn e7_bot_detection_matches_raw_upload_with_one_bit() {
        let result = e7_bot_detection(30, 0.4, SEED);
        assert_eq!(result.sessions, 30);
        assert!(result.bots > 0);
        assert!(result.glimmer_accuracy > 0.8);
        // Same detector, same accuracy as uploading everything.
        assert!((result.glimmer_accuracy - result.raw_upload_accuracy).abs() < 1e-9);
        // But orders of magnitude less data leaves the client.
        assert!(result.glimmer_bytes_per_session < 120);
        assert!(result.raw_bytes_per_session > 200);
        // The auditor's budget bound is enforced.
        assert!(result.auditor_rejections > 0);
        assert_eq!(result.capacity_bound_bits, 32);
    }

    #[test]
    fn e8_remote_glimmer_filters_bad_devices() {
        let result = e8_glimmer_as_a_service(6, 5, SEED);
        assert_eq!(result.devices, 6);
        assert_eq!(result.endorsed + result.rejected, 6);
        assert!(result.endorsed > 0);
        assert!(result.host_enclave_cycles > 0);
        assert!(result.remote_ms_per_device > 0.0);
        assert!(result.local_ms_per_contribution > 0.0);
    }

    #[test]
    fn e11_pooled_gateway_beats_per_device_hosting() {
        let row = e11_gateway_serving(8, 4, 2, SEED);
        assert_eq!(row.sessions, 8);
        assert_eq!(row.endorsed + row.rejected, 8 * 4);
        assert!(row.endorsed > 0);
        // The pool amortizes enclave build + attestation. The simulated
        // enclave-cycle metric is deterministic, so it is asserted always:
        // batching must cut per-request enclave cost by at least an order of
        // magnitude.
        assert!(
            row.pooled_drain_cycles_per_req * 10.0 < row.per_device_cycles_per_req,
            "batched drains did not amortize: {} vs {}",
            row.pooled_drain_cycles_per_req,
            row.per_device_cycles_per_req
        );
        // Wall-clock speedup is reported but not asserted: both timed
        // regions are dominated by identical device-side handshake crypto,
        // and the enclave costs pooling amortizes are *simulated* cycles
        // that consume no wall-clock in this simulator. The steady-state
        // Criterion bench (benches/gateway.rs) is the wall-clock
        // demonstration; this experiment's deterministic cycle metric is
        // the architectural one.
        assert!(row.per_device_ms > 0.0 && row.pooled_ms > 0.0);
    }

    #[test]
    fn e12_sharding_scales_the_cycle_critical_path() {
        let rows = e12_shard_scaling(&[1, 4], 4, 1, 2, SEED);
        assert_eq!(rows.len(), 2);
        // Sharding must not change what is computed: identical endorsement
        // counts and bit-identical total enclave cycles.
        assert_eq!(rows[0].endorsed, rows[1].endorsed);
        assert_eq!(rows[0].endorsed, rows[0].requests, "honest traffic");
        assert_eq!(rows[0].total_drain_cycles, rows[1].total_drain_cycles);
        assert!(rows[0].total_drain_cycles > 0);
        // With one shard the critical path IS the total.
        assert_eq!(rows[0].critical_path_cycles, rows[0].total_drain_cycles);
        assert!((rows[0].cycle_speedup_vs_serial - 1.0).abs() < 1e-12);
        // The acceptance bar: at 4 shards the (deterministic) serving
        // critical path is at least halved — in practice ~quartered, since
        // the 4 slots balance across the 4 shards.
        assert!(
            rows[1].cycle_speedup_vs_serial >= 2.0,
            "4-shard critical path did not reach 2x: {:.2}x (total {} critical {})",
            rows[1].cycle_speedup_vs_serial,
            rows[1].total_drain_cycles,
            rows[1].critical_path_cycles
        );
        assert!(rows[1].cycle_parallelism >= 2.0);
    }

    #[test]
    fn e13_batched_admission_cuts_commands_without_changing_results() {
        let rows = e13_batched_hot_path(8, 4, &[4, 16], 2, SEED);
        assert_eq!(rows.len(), 4);
        let base = &rows[0];
        assert_eq!(base.mode, "submit");
        // The per-request baseline pays exactly one shard-queue command per
        // request.
        assert_eq!(base.submit_commands, base.requests as u64);
        assert!(base.endorsed > 0);
        assert!(base.total_drain_cycles > 0);
        for row in &rows {
            // Batching admission must not change what is computed: identical
            // endorsement counts and — the determinism bar — bit-identical
            // total enclave cycles at `shards: 1`.
            assert_eq!(row.endorsed, base.endorsed, "{}", row.mode);
            assert_eq!(
                row.total_drain_cycles, base.total_drain_cycles,
                "{} drain cycles diverged",
                row.mode
            );
            assert_eq!(row.requests, base.requests);
        }
        // The acceptance bar: every batched path with batch >= 4 issues at
        // least 2x fewer shard-queue commands than per-request submission
        // (at one shard it is ~batch-x: one SubmitMany per call).
        for row in &rows[1..] {
            assert!(row.batch >= 4);
            assert!(
                row.submit_commands * 2 <= base.submit_commands,
                "{}: {} commands vs baseline {}",
                row.mode,
                row.submit_commands,
                base.submit_commands
            );
            assert!(row.command_reduction >= 2.0);
        }
        // The allocation bar is asserted by the dedicated E13 binary (a
        // single-purpose process), not here: under `count-allocs` the
        // global counters would also see every *other* test running in
        // this process, so the per-region deltas are only trustworthy in
        // the binary. Without the feature the column must read zero.
        if !crate::alloc_track::counting_enabled() {
            assert!(rows.iter().all(|r| r.allocs_per_req == 0.0));
        }
    }

    #[test]
    fn e14_restore_cuts_provisioning_ecalls_without_changing_outcomes() {
        let row = e14_restart_recovery(8, 4, 4, SEED);
        assert!(row.pre_endorsed > 0, "pre-crash traffic must endorse");
        // Recovery changes cost, never outcomes.
        assert_eq!(row.post_endorsed_cold, row.post_endorsed_restore);
        // Zero re-provisioning on restore: one IMPORT_STATE ECALL per slot.
        assert_eq!(row.restore_ready_ecalls, row.slots as u64);
        // The acceptance bar: >=10x fewer provisioning ECALLs than a cold
        // rebuild (which pays per-slot provisioning plus per-session
        // handshakes and mask installs).
        assert!(
            row.ecall_reduction >= 10.0,
            "got only {:.1}x",
            row.ecall_reduction
        );
        assert!(row.snapshot_bytes > 0);
    }

    #[test]
    fn e15_async_frontend_reproduces_blocking_outputs_bit_for_bit() {
        // The thread count E15 reads is the whole process's, and sibling
        // tests in this binary start and stop shard workers at any moment.
        // So the test body runs alone in a child process (this same test
        // binary, filtered to this one test), where any thread that appears
        // between the two readings is the front-end's own.
        const ISOLATED: &str = "GLIMMER_E15_ISOLATED";
        if std::env::var_os(ISOLATED).is_none() {
            let child = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    "--exact",
                    "experiments::tests::e15_async_frontend_reproduces_blocking_outputs_bit_for_bit",
                    "--test-threads=1",
                ])
                .env(ISOLATED, "1")
                .output()
                .unwrap();
            assert!(
                child.status.success(),
                "isolated run failed:\n{}{}",
                String::from_utf8_lossy(&child.stdout),
                String::from_utf8_lossy(&child.stderr)
            );
            // The filter matched and the body ran (not "0 passed").
            assert!(String::from_utf8_lossy(&child.stdout).contains("1 passed"));
            return;
        }
        let row = e15_async_frontend(16, 3, 2, SEED);
        assert_eq!(row.sessions, 16);
        assert_eq!(row.endorsed + row.rejected, 16 * 3);
        assert!(row.endorsed > 0, "honest majority must endorse");
        assert!(row.rejected > 0, "misbehaving fraction must reject");
        // The determinism bar: the async front-end changes costs, never
        // outcomes — reply sequences identical down to the ciphertexts.
        assert!(row.identical_outputs);
        // All sessions were live at once on one executor...
        assert_eq!(row.peak_live_sessions, 16);
        // ...which spawned no threads of its own (measurable on Linux).
        if let Some(extra) = row.extra_frontend_threads {
            assert_eq!(extra, 0, "executor must not spawn threads");
        }
        // Scheduling-event counts are timing-dependent — a completion the
        // worker delivers before the task's first poll resolves inline and
        // consumes no wake — so only the guaranteed floor is asserted:
        // every task (16 sessions plus the submitter/drainer) is scheduled
        // once at spawn and polled at least once.
        const TASKS: usize = 16 + 1;
        assert!(row.executor_wakeups as usize >= TASKS);
        assert!(row.executor_polls as usize >= TASKS);
        // A pop never polls without a push: polls cannot exceed wakeups.
        assert!(row.executor_polls <= row.executor_wakeups);
    }

    #[test]
    fn e16_telemetry_observes_without_steering() {
        let report = e16_telemetry(8, 4, 2, 1, SEED);
        assert_eq!(report.requests, 32);
        assert!(report.endorsed > 0, "honest majority must endorse");
        // Every submit in this workload is well-formed, so admission
        // accepted exactly the request count — and the typed counter made
        // it into the exposition snapshot.
        assert_eq!(report.accepted, 32);
        assert!(report.sample_count > 0);
        // The ManualClock sub-check: a sampled trace carried all five
        // stages with the exact injected timestamps, monotonically.
        assert!(report.trace_complete, "trace missing stages or timestamps");
        assert!(report.trace_monotonic);
        // Text and JSON renderings parse back to the identical samples,
        // with the p50/p99 series present for ECALL and queue-wait.
        assert!(report.round_trip_ok);
        assert!(report.ecall_p99_nanos >= report.ecall_p50_nanos);
        assert!(report.queue_wait_p99_nanos >= report.queue_wait_p50_nanos);
        // The timing and allocation bars (overhead within 5%, recording
        // allocation-free) are asserted by the dedicated E16 binary: wall
        // clock is too noisy for a unit test, and under `count-allocs` the
        // global counters would also see every other test in this process.
        // Without the feature the allocation columns must read zero.
        assert!(report.serve_ms_on > 0.0 && report.serve_ms_off > 0.0);
        if !crate::alloc_track::counting_enabled() {
            assert_eq!(report.record_allocs, 0);
            assert_eq!(report.telemetry_allocs_total, 0);
            assert_eq!(report.allocs_per_req_on, 0.0);
            assert_eq!(report.allocs_per_req_off, 0.0);
        }
    }

    #[test]
    fn e17_replay_ingest_is_exact_and_bit_identical() {
        let result = e17_replay_ingest(4_000, &[1, 4], 1, 6, 3, SEED);
        assert_eq!(result.parse_records, 4_000);
        assert!(result.parse_bytes > 0);
        assert_eq!(result.loader_rows.len(), 2);
        for row in &result.loader_rows {
            assert_eq!(row.records, 4_000);
            assert!(
                row.exactly_once,
                "readers={} lost or duplicated",
                row.readers
            );
        }
        // The chunk partition's critical path shrinks with reader count —
        // the deterministic speedup bar holds even on a single-core host.
        let four = &result.loader_rows[1];
        assert_eq!(four.readers, 4);
        assert!(
            four.det_speedup >= 2.0,
            "4-reader critical path speedup {:.2} < 2",
            four.det_speedup
        );
        // End-to-end: the replayed file drives the gateway to the exact
        // same response stream as the in-process per-record baseline.
        assert_eq!(result.serve_records, 36);
        // The harness provisions sessions only for devices the scenario
        // actually names, so the count is bounded by (not necessarily
        // equal to) tenants × devices_per_tenant.
        assert!(result.serve_sessions > 0 && result.serve_sessions <= 12);
        assert!(result.bit_identical, "replay diverged from baseline");
        assert_eq!(result.replay_endorsed, result.baseline_endorsed);
        assert!(result.replay_endorsed > 0, "honest records must endorse");
        assert_eq!(result.parse_errors, 0);
        // Loader accounting surfaced through the telemetry hub.
        assert_eq!(result.telemetry_ingest_parsed, 36);
        assert_eq!(result.telemetry_ingest_parse_errors, 0);
        assert_eq!(
            result.telemetry_ingest_quota_rejected,
            result.quota_rejected
        );
    }

    #[test]
    fn e18_delta_checkpoints_scale_with_dirty_slots() {
        // 16 slots, 1 dirty: the ECALL ratio is exact and deterministic
        // (16 EXPORT_STATEs vs 1), the wall-clock ratio is reported but
        // only loosely gated here (the bin asserts the full 5x bar at the
        // 40-slot scale).
        let r = e18_incremental_checkpoint(16, 1, 16, 2, 4, SEED);
        assert_eq!(r.slots, 16);
        assert_eq!(r.dirty_slots, 1, "exactly the re-served slot is dirty");
        assert_eq!(r.skipped_slots, 15);
        assert_eq!(r.full_ecalls, 16);
        assert_eq!(r.delta_ecalls, 1);
        assert!(r.ecall_reduction >= 10.0);
        assert!(r.full_ms > 0.0 && r.delta_ms > 0.0);
        assert!(r.delta_bytes < r.full_bytes, "deltas must be smaller");
        assert!(
            r.served_during_capture > 0,
            "no request was served during the streamed capture"
        );
        assert!(r.chain_restore_identical, "chain restore diverged");
        assert!(r.chain_tail_identical, "post-restore serving diverged");
        // Telemetry saw both the forced exports and the delta skips.
        assert!(r.telemetry_slots_exported > 0);
        assert_eq!(r.telemetry_slots_skipped, 15 * 2, "15 skips x 2 repeats");
    }

    #[test]
    fn e20_rebalancing_recovers_a_skewed_fleet() {
        // 2 shards, 4 slots, all piled on shard 0: the skewed critical path
        // is the whole workload, the rebalanced one must come back to the
        // even baseline (the planner's end state here is exactly even, so
        // the 1.5x bin bar is met with margin).
        let r = e20_live_rebalance(2, 2, 2, SEED);
        assert_eq!(r.slots, 4);
        assert!(r.skew_ratio > 1.5, "skew too mild: {:.2}", r.skew_ratio);
        assert!(
            r.recovery_ratio <= 1.5,
            "recovery bar missed: {:.2}",
            r.recovery_ratio
        );
        assert!(r.migrations > 0);
        assert!(r.queued_moved > 0, "no queued work travelled");
        assert!(r.replies_identical, "replies diverged across migration");
        assert_eq!(r.endorsed_even, r.endorsed_rebalanced);
    }

    #[test]
    fn e9_blinding_defeats_inversion() {
        let result = e9_model_inversion(10, SEED);
        assert!(result.raw_precision > 0.9);
        assert!(result.raw_recall > 0.9);
        assert!(result.blinded_precision < 0.5);
    }

    #[test]
    fn e10_all_shipped_glimmers_are_verifiable_and_small() {
        let rows = e10_tcb_accounting();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.verifiable, "{}", row.name);
            assert_eq!(row.violations, 0);
            assert!(row.descriptor_bytes < 4096, "{}", row.descriptor_bytes);
            assert!(row.epc_kib < 1024);
        }
        // The retrain Glimmer has a larger TCB than the range-only one.
        let range = rows.iter().find(|r| r.name.contains("range-only")).unwrap();
        let retrain = rows.iter().find(|r| r.name.contains("retrain")).unwrap();
        assert!(retrain.descriptor_bytes > range.descriptor_bytes);
    }
}
