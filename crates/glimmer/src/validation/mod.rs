//! Validation predicates.
//!
//! "We use the term validation loosely here to capture any validity predicate
//! entrusted upon the trusted third party; different validation predicates
//! may trade-off computational complexity for result accuracy" (Section 2).
//! This module provides that spectrum, from the cheap range check of the
//! paper's running example to NAB-style keyboard corroboration and full
//! retraining of the claimed model from the private trace:
//!
//! | Predicate | Private data needed | Cost | Catches |
//! |-----------|--------------------|------|---------|
//! | [`RangeCheck`] | none | trivial | out-of-range values (the "538" attack) |
//! | [`Plausibility`] | none | cheap | degenerate/fabricated distributions |
//! | [`KeyboardCorroboration`] | keyboard log | moderate | weights inconsistent with actual typing |
//! | [`RetrainCheck`] | keyboard log | high | any deviation from honest training |
//! | [`PhotoLocation`] | GPS track + camera id | moderate | photos not taken where claimed |
//! | [`BotDetector`] | interaction signals | moderate | bots (Section 4.1) |

pub mod bot;
pub mod corroborate;
pub mod location;

use crate::protocol::{Contribution, ContributionPayload, PrivateData, ValidationVerdict};
use glimmer_wire::{Decoder, Encoder, WireCodec, WireError};

pub use bot::{BotDetector, BotDetectorSpec};
pub use corroborate::{KeyboardCorroboration, RetrainCheck};
pub use location::PhotoLocation;

/// Identifies a predicate family (used in experiment output and TCB
/// accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredicateKind {
    /// Per-parameter range check.
    RangeCheck,
    /// Distribution plausibility check.
    Plausibility,
    /// NAB-style corroboration against the private keyboard log.
    KeyboardCorroboration,
    /// Full retraining from the private keyboard log.
    RetrainCheck,
    /// Photo location corroboration against the private GPS track.
    PhotoLocation,
    /// Bot-vs-human classification over private interaction signals.
    BotDetector,
    /// Conjunction of other predicates.
    AllOf,
}

impl PredicateKind {
    /// A short stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PredicateKind::RangeCheck => "range-check",
            PredicateKind::Plausibility => "plausibility",
            PredicateKind::KeyboardCorroboration => "keyboard-corroboration",
            PredicateKind::RetrainCheck => "retrain-check",
            PredicateKind::PhotoLocation => "photo-location",
            PredicateKind::BotDetector => "bot-detector",
            PredicateKind::AllOf => "all-of",
        }
    }
}

/// A validity predicate run inside the Glimmer.
pub trait ValidationPredicate: Send {
    /// The predicate family.
    fn kind(&self) -> PredicateKind;

    /// A rough per-invocation cost estimate in simulated cycles, used by the
    /// validation-spectrum experiment (E6).
    fn cost_estimate(&self, contribution: &Contribution, private: &PrivateData) -> u64;

    /// Runs the predicate.
    fn validate(&self, contribution: &Contribution, private: &PrivateData) -> ValidationVerdict;
}

/// The serializable configuration of a predicate, from which the enclave
/// instantiates the runtime object. This is what the service publishes (or
/// ships encrypted, Section 4.1) and what is measured into the Glimmer
/// descriptor.
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateSpec {
    /// Range check with inclusive bounds.
    RangeCheck {
        /// Minimum legal parameter value.
        min: f64,
        /// Maximum legal parameter value.
        max: f64,
    },
    /// Plausibility check.
    Plausibility,
    /// Keyboard corroboration with a tolerance on absolute weight error.
    KeyboardCorroboration {
        /// Maximum tolerated absolute error per parameter.
        tolerance: f64,
        /// Minimum fraction of non-zero submitted weights that must be
        /// supported by the private log.
        min_support: f64,
    },
    /// Exact retraining check with a (tight) tolerance.
    RetrainCheck {
        /// Maximum tolerated absolute error per parameter.
        tolerance: f64,
    },
    /// Photo-location corroboration.
    PhotoLocation {
        /// Maximum distance (kilometres) between the claimed location and the
        /// nearest GPS-track point.
        max_distance_km: f64,
        /// Expected camera fingerprint registered with the service.
        expected_camera: [u8; 32],
    },
    /// Bot detection with a linear scorer.
    BotDetector(BotDetectorSpec),
    /// Conjunction: every inner predicate must pass.
    AllOf(Vec<PredicateSpec>),
}

impl PredicateSpec {
    /// Instantiates the runtime predicate.
    #[must_use]
    pub fn instantiate(&self) -> Box<dyn ValidationPredicate> {
        match self {
            PredicateSpec::RangeCheck { min, max } => Box::new(RangeCheck {
                min: *min,
                max: *max,
            }),
            PredicateSpec::Plausibility => Box::new(Plausibility),
            PredicateSpec::KeyboardCorroboration {
                tolerance,
                min_support,
            } => Box::new(KeyboardCorroboration {
                tolerance: *tolerance,
                min_support: *min_support,
            }),
            PredicateSpec::RetrainCheck { tolerance } => Box::new(RetrainCheck {
                tolerance: *tolerance,
            }),
            PredicateSpec::PhotoLocation {
                max_distance_km,
                expected_camera,
            } => Box::new(PhotoLocation {
                max_distance_km: *max_distance_km,
                expected_camera: *expected_camera,
            }),
            PredicateSpec::BotDetector(spec) => Box::new(BotDetector::new(spec.clone())),
            PredicateSpec::AllOf(specs) => Box::new(AllOf {
                inner: specs.iter().map(PredicateSpec::instantiate).collect(),
            }),
        }
    }

    /// The kind of the predicate this spec instantiates.
    #[must_use]
    pub fn kind(&self) -> PredicateKind {
        match self {
            PredicateSpec::RangeCheck { .. } => PredicateKind::RangeCheck,
            PredicateSpec::Plausibility => PredicateKind::Plausibility,
            PredicateSpec::KeyboardCorroboration { .. } => PredicateKind::KeyboardCorroboration,
            PredicateSpec::RetrainCheck { .. } => PredicateKind::RetrainCheck,
            PredicateSpec::PhotoLocation { .. } => PredicateKind::PhotoLocation,
            PredicateSpec::BotDetector(_) => PredicateKind::BotDetector,
            PredicateSpec::AllOf(_) => PredicateKind::AllOf,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            PredicateSpec::RangeCheck { .. } => 1,
            PredicateSpec::Plausibility => 2,
            PredicateSpec::KeyboardCorroboration { .. } => 3,
            PredicateSpec::RetrainCheck { .. } => 4,
            PredicateSpec::PhotoLocation { .. } => 5,
            PredicateSpec::BotDetector(_) => 6,
            PredicateSpec::AllOf(_) => 7,
        }
    }
}

impl WireCodec for PredicateSpec {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.tag());
        match self {
            PredicateSpec::RangeCheck { min, max } => {
                enc.put_f64(*min);
                enc.put_f64(*max);
            }
            PredicateSpec::Plausibility => {}
            PredicateSpec::KeyboardCorroboration {
                tolerance,
                min_support,
            } => {
                enc.put_f64(*tolerance);
                enc.put_f64(*min_support);
            }
            PredicateSpec::RetrainCheck { tolerance } => enc.put_f64(*tolerance),
            PredicateSpec::PhotoLocation {
                max_distance_km,
                expected_camera,
            } => {
                enc.put_f64(*max_distance_km);
                enc.put_array32(expected_camera);
            }
            PredicateSpec::BotDetector(spec) => spec.encode(enc),
            PredicateSpec::AllOf(specs) => {
                enc.put_varint(specs.len() as u64);
                for s in specs {
                    s.encode(enc);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            1 => Ok(PredicateSpec::RangeCheck {
                min: dec.get_f64()?,
                max: dec.get_f64()?,
            }),
            2 => Ok(PredicateSpec::Plausibility),
            3 => Ok(PredicateSpec::KeyboardCorroboration {
                tolerance: dec.get_f64()?,
                min_support: dec.get_f64()?,
            }),
            4 => Ok(PredicateSpec::RetrainCheck {
                tolerance: dec.get_f64()?,
            }),
            5 => Ok(PredicateSpec::PhotoLocation {
                max_distance_km: dec.get_f64()?,
                expected_camera: dec.get_array32()?,
            }),
            6 => Ok(PredicateSpec::BotDetector(BotDetectorSpec::decode(dec)?)),
            7 => {
                let n = dec.get_varint()? as usize;
                let mut specs = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    specs.push(PredicateSpec::decode(dec)?);
                }
                Ok(PredicateSpec::AllOf(specs))
            }
            other => Err(WireError::UnknownTag(other.into())),
        }
    }
}

/// The paper's running example: every model parameter must lie in a range
/// ("Alice cannot send a user contribution of 538 when a value between 0 and
/// 1 is expected").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeCheck {
    /// Minimum legal value (inclusive).
    pub min: f64,
    /// Maximum legal value (inclusive).
    pub max: f64,
}

impl Default for RangeCheck {
    fn default() -> Self {
        RangeCheck { min: 0.0, max: 1.0 }
    }
}

impl ValidationPredicate for RangeCheck {
    fn kind(&self) -> PredicateKind {
        PredicateKind::RangeCheck
    }

    fn cost_estimate(&self, contribution: &Contribution, _private: &PrivateData) -> u64 {
        match &contribution.payload {
            ContributionPayload::ModelUpdate { weights } => 10 * weights.len() as u64,
            ContributionPayload::IotReadings { samples } => 10 * samples.len() as u64,
            ContributionPayload::Photo { .. } => 10,
        }
    }

    fn validate(&self, contribution: &Contribution, _private: &PrivateData) -> ValidationVerdict {
        let values: &[f64] = match &contribution.payload {
            ContributionPayload::ModelUpdate { weights } => weights,
            ContributionPayload::IotReadings { samples } => samples,
            ContributionPayload::Photo {
                claimed_lat,
                claimed_lon,
                ..
            } => {
                if (-90.0..=90.0).contains(claimed_lat) && (-180.0..=180.0).contains(claimed_lon) {
                    return ValidationVerdict::pass();
                }
                return ValidationVerdict::fail("claimed coordinates outside valid ranges");
            }
        };
        for (i, v) in values.iter().enumerate() {
            if !v.is_finite() || *v < self.min || *v > self.max {
                return ValidationVerdict::fail(format!(
                    "parameter {i} = {v} outside [{}, {}]",
                    self.min, self.max
                ));
            }
        }
        ValidationVerdict::pass()
    }
}

/// A cheap distribution-shape check that catches fabricated contributions a
/// range check would accept: all-identical weights, or per-prev-word mass
/// exceeding 1 (impossible for honest conditional frequencies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plausibility;

impl ValidationPredicate for Plausibility {
    fn kind(&self) -> PredicateKind {
        PredicateKind::Plausibility
    }

    fn cost_estimate(&self, contribution: &Contribution, _private: &PrivateData) -> u64 {
        match &contribution.payload {
            ContributionPayload::ModelUpdate { weights } => 25 * weights.len() as u64,
            _ => 25,
        }
    }

    fn validate(&self, contribution: &Contribution, _private: &PrivateData) -> ValidationVerdict {
        let ContributionPayload::ModelUpdate { weights } = &contribution.payload else {
            return ValidationVerdict::pass();
        };
        if weights.is_empty() {
            return ValidationVerdict::fail("empty model update");
        }
        let nonzero: Vec<f64> = weights.iter().copied().filter(|w| *w != 0.0).collect();
        if nonzero.len() >= 4 {
            let first = nonzero[0];
            // A constant weight of exactly 1.0 is the natural shape of a small
            // honest trace (every observed bigram was deterministic), so only
            // other constants are treated as fabricated.
            if (first - 1.0).abs() > 1e-12 && nonzero.iter().all(|w| (*w - first).abs() < 1e-12) {
                return ValidationVerdict::with_confidence(
                    false,
                    0.9,
                    "all non-zero weights identical: looks fabricated",
                );
            }
        }
        let total: f64 = weights.iter().sum();
        if total > weights.len() as f64 {
            return ValidationVerdict::fail("total probability mass implausibly high");
        }
        ValidationVerdict::pass()
    }
}

/// Conjunction of predicates: all must pass; the first failure is reported.
pub struct AllOf {
    /// The inner predicates, evaluated in order.
    pub inner: Vec<Box<dyn ValidationPredicate>>,
}

impl ValidationPredicate for AllOf {
    fn kind(&self) -> PredicateKind {
        PredicateKind::AllOf
    }

    fn cost_estimate(&self, contribution: &Contribution, private: &PrivateData) -> u64 {
        self.inner
            .iter()
            .map(|p| p.cost_estimate(contribution, private))
            .sum()
    }

    fn validate(&self, contribution: &Contribution, private: &PrivateData) -> ValidationVerdict {
        let mut min_confidence = 1.0f64;
        for p in &self.inner {
            let verdict = p.validate(contribution, private);
            if !verdict.passed {
                return verdict;
            }
            min_confidence = min_confidence.min(verdict.confidence);
        }
        ValidationVerdict::with_confidence(true, min_confidence, "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_contribution(weights: Vec<f64>) -> Contribution {
        Contribution {
            app_id: "keyboard".to_string(),
            client_id: 1,
            round: 0,
            payload: ContributionPayload::ModelUpdate { weights },
        }
    }

    #[test]
    fn range_check_catches_the_538_attack() {
        let predicate = RangeCheck::default();
        let honest = model_contribution(vec![0.0, 0.5, 1.0]);
        assert!(predicate.validate(&honest, &PrivateData::None).passed);

        let poisoned = model_contribution(vec![0.1, 538.0]);
        let verdict = predicate.validate(&poisoned, &PrivateData::None);
        assert!(!verdict.passed);
        assert!(verdict.reason.contains("538"));

        let negative = model_contribution(vec![-0.01]);
        assert!(!predicate.validate(&negative, &PrivateData::None).passed);
        let nan = model_contribution(vec![f64::NAN]);
        assert!(!predicate.validate(&nan, &PrivateData::None).passed);
        assert_eq!(predicate.kind(), PredicateKind::RangeCheck);
        assert!(predicate.cost_estimate(&honest, &PrivateData::None) > 0);
    }

    #[test]
    fn range_check_on_photos_and_iot() {
        let predicate = RangeCheck::default();
        let good_photo = Contribution {
            app_id: "maps".into(),
            client_id: 2,
            round: 0,
            payload: ContributionPayload::Photo {
                photo_hash: [1u8; 32],
                claimed_lat: 43.6,
                claimed_lon: -79.4,
            },
        };
        assert!(predicate.validate(&good_photo, &PrivateData::None).passed);
        let bad_photo = Contribution {
            payload: ContributionPayload::Photo {
                photo_hash: [1u8; 32],
                claimed_lat: 120.0,
                claimed_lon: 0.0,
            },
            ..good_photo.clone()
        };
        assert!(!predicate.validate(&bad_photo, &PrivateData::None).passed);

        let iot = Contribution {
            app_id: "iot".into(),
            client_id: 3,
            round: 0,
            payload: ContributionPayload::IotReadings {
                samples: vec![0.2, 0.8],
            },
        };
        assert!(predicate.validate(&iot, &PrivateData::None).passed);
    }

    #[test]
    fn plausibility_catches_fabricated_contributions() {
        let predicate = Plausibility;
        // All non-zero weights identical across many slots: fabricated.
        let fabricated = model_contribution(vec![0.9; 10]);
        let verdict = predicate.validate(&fabricated, &PrivateData::None);
        assert!(!verdict.passed);
        assert!(verdict.confidence <= 1.0);

        // An honest-looking distribution passes.
        let honest = model_contribution(vec![0.5, 0.25, 0.25, 0.0, 0.7, 0.3]);
        assert!(predicate.validate(&honest, &PrivateData::None).passed);

        // A small trace where every observed bigram is deterministic (all
        // weights exactly 1.0) is honest, not fabricated.
        let deterministic = model_contribution(vec![1.0, 1.0, 0.0, 1.0, 1.0, 1.0]);
        assert!(
            predicate
                .validate(&deterministic, &PrivateData::None)
                .passed
        );

        // Empty update fails.
        assert!(
            !predicate
                .validate(&model_contribution(vec![]), &PrivateData::None)
                .passed
        );

        // Non-model payloads pass trivially.
        let photo = Contribution {
            app_id: "maps".into(),
            client_id: 1,
            round: 0,
            payload: ContributionPayload::Photo {
                photo_hash: [0u8; 32],
                claimed_lat: 0.0,
                claimed_lon: 0.0,
            },
        };
        assert!(predicate.validate(&photo, &PrivateData::None).passed);
        assert_eq!(predicate.kind(), PredicateKind::Plausibility);
    }

    #[test]
    fn all_of_composition() {
        let spec = PredicateSpec::AllOf(vec![
            PredicateSpec::RangeCheck { min: 0.0, max: 1.0 },
            PredicateSpec::Plausibility,
        ]);
        let predicate = spec.instantiate();
        assert_eq!(predicate.kind(), PredicateKind::AllOf);

        let ok = model_contribution(vec![0.5, 0.2, 0.0, 0.1]);
        assert!(predicate.validate(&ok, &PrivateData::None).passed);

        // Fails range check.
        let out_of_range = model_contribution(vec![0.5, 538.0]);
        assert!(!predicate.validate(&out_of_range, &PrivateData::None).passed);

        // Passes range check but fails plausibility.
        let fabricated = model_contribution(vec![0.9; 10]);
        assert!(!predicate.validate(&fabricated, &PrivateData::None).passed);

        let cost = predicate.cost_estimate(&ok, &PrivateData::None);
        assert!(cost > RangeCheck::default().cost_estimate(&ok, &PrivateData::None));
    }

    #[test]
    fn spec_round_trips_and_kinds() {
        let specs = vec![
            PredicateSpec::RangeCheck { min: 0.0, max: 1.0 },
            PredicateSpec::Plausibility,
            PredicateSpec::KeyboardCorroboration {
                tolerance: 0.05,
                min_support: 0.8,
            },
            PredicateSpec::RetrainCheck { tolerance: 1e-9 },
            PredicateSpec::PhotoLocation {
                max_distance_km: 0.5,
                expected_camera: [7u8; 32],
            },
            PredicateSpec::BotDetector(BotDetectorSpec::example()),
            PredicateSpec::AllOf(vec![
                PredicateSpec::Plausibility,
                PredicateSpec::RangeCheck { min: 0.0, max: 1.0 },
            ]),
        ];
        for spec in specs {
            let bytes = spec.to_wire();
            let decoded = PredicateSpec::from_wire(&bytes).unwrap();
            assert_eq!(decoded, spec);
            assert_eq!(decoded.kind(), spec.kind());
            assert!(!spec.kind().label().is_empty());
            let _ = spec.instantiate();
        }
        assert!(PredicateSpec::from_wire(&[0xFE]).is_err());
    }
}
