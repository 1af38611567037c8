//! The Blinding component and blinding service.
//!
//! Section 3: "Assume the existence of a trusted blinding service ... that
//! computes N random blinding values p_i such that Σ p_i = 0. It then seals
//! each p_i value to the Glimmer code, and encrypts one of the sealed values
//! to each of N clients' public keys ... The Blinding component then computes
//! the blinded user contribution y_i = x_i + p_i."
//!
//! The implementation works over fixed-point vectors (`glimmer-federated`'s
//! encoding) so that the zero-sum property holds exactly in wrapping `u64`
//! arithmetic. Two mask constructions are provided:
//!
//! * [`BlindingService::zero_sum_masks`] — the paper's construction: N
//!   independent random vectors with the last chosen so the element-wise sum
//!   is zero.
//! * [`BlindingService::pairwise_masks`] — the Bonawitz-style pairwise
//!   construction, included as an ablation (each pair of clients shares a
//!   seed; masks cancel pairwise), which tolerates an untrusted aggregator
//!   learning nothing extra from subsets that exclude at most one client.

use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::hkdf::derive_key_32;
use glimmer_federated::fixed::{add_vectors, sub_vectors};
use glimmer_wire::{Decoder, Encoder, WireCodec, WireError};

/// One client's blinding mask for one aggregation round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskShare {
    /// The round this mask is valid for.
    pub round: u64,
    /// The client it was issued to.
    pub client_id: u64,
    /// The additive mask (fixed-point, wrapping arithmetic).
    pub mask: Vec<u64>,
}

impl MaskShare {
    /// Applies the mask: `blinded = contribution + mask (mod 2^64)`.
    #[must_use]
    pub fn blind(&self, contribution: &[u64]) -> Vec<u64> {
        add_vectors(contribution, &self.mask)
    }

    /// Removes the mask (used in tests and by the pairwise ablation).
    #[must_use]
    pub fn unblind(&self, blinded: &[u64]) -> Vec<u64> {
        sub_vectors(blinded, &self.mask)
    }
}

impl WireCodec for MaskShare {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.round);
        enc.put_u64(self.client_id);
        enc.put_u64_vec(&self.mask);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(MaskShare {
            round: dec.get_u64()?,
            client_id: dec.get_u64()?,
            mask: dec.get_u64_vec()?,
        })
    }
}

/// The trusted blinding service.
///
/// "which could, itself, be implemented as a separate enclave on one of the
/// clients, or as a distinct trusted service" — in the reproduction it is a
/// deterministic value seeded per round, and the IoT/remote experiments run
/// it inside an enclave via `remote::RemoteGlimmerHost`.
#[derive(Debug, Clone)]
pub struct BlindingService {
    seed: [u8; 32],
}

impl BlindingService {
    /// Creates a service from a master seed.
    #[must_use]
    pub fn new(seed: [u8; 32]) -> Self {
        BlindingService { seed }
    }

    /// Generates zero-sum masks for `clients` participating clients and a
    /// `dimension`-parameter model in `round`.
    ///
    /// The element-wise sum of all returned masks is zero (mod 2^64), so the
    /// service recovers the exact sum of contributions when it adds all
    /// blinded vectors.
    #[must_use]
    pub fn zero_sum_masks(&self, round: u64, clients: &[u64], dimension: usize) -> Vec<MaskShare> {
        if clients.is_empty() {
            return Vec::new();
        }
        let mut rng = self.round_rng(round);
        let mut shares: Vec<MaskShare> = Vec::with_capacity(clients.len());
        let mut running_sum = vec![0u64; dimension];
        for (idx, &client_id) in clients.iter().enumerate() {
            if idx + 1 == clients.len() {
                // Last client gets the negation of the running sum.
                let mask: Vec<u64> = running_sum.iter().map(|v| v.wrapping_neg()).collect();
                shares.push(MaskShare {
                    round,
                    client_id,
                    mask,
                });
            } else {
                let mut mask = vec![0u64; dimension];
                for m in mask.iter_mut() {
                    *m = rng.next_u64();
                }
                running_sum = add_vectors(&running_sum, &mask);
                shares.push(MaskShare {
                    round,
                    client_id,
                    mask,
                });
            }
        }
        shares
    }

    /// Generates pairwise masks (Bonawitz-style): client `i` adds
    /// `PRG(seed_ij)` for every `j > i` and subtracts it for every `j < i`,
    /// so all masks cancel in the full sum.
    #[must_use]
    pub fn pairwise_masks(&self, round: u64, clients: &[u64], dimension: usize) -> Vec<MaskShare> {
        let n = clients.len();
        let mut masks: Vec<Vec<u64>> = vec![vec![0u64; dimension]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let pair_seed = derive_key_32(
                    &self.seed,
                    &format!("pair:{round}:{}:{}", clients[i], clients[j]),
                );
                let mut rng = Drbg::from_seed(pair_seed);
                let shared: Vec<u64> = (0..dimension).map(|_| rng.next_u64()).collect();
                masks[i] = add_vectors(&masks[i], &shared);
                masks[j] = sub_vectors(&masks[j], &shared);
            }
        }
        clients
            .iter()
            .zip(masks)
            .map(|(&client_id, mask)| MaskShare {
                round,
                client_id,
                mask,
            })
            .collect()
    }

    /// The additive correction the aggregator must apply when some of the
    /// round's clients dropped out (e.g., their contribution was rejected by
    /// their Glimmer), so that the surviving masks still cancel.
    ///
    /// The correction equals the element-wise sum of the missing clients'
    /// masks: `Σ_present (x_i + p_i) + correction = Σ_present x_i`.
    #[must_use]
    pub fn dropout_correction(
        &self,
        round: u64,
        clients: &[u64],
        dimension: usize,
        present: &[u64],
    ) -> Vec<u64> {
        let present: std::collections::HashSet<u64> = present.iter().copied().collect();
        let mut correction = vec![0u64; dimension];
        for share in self.zero_sum_masks(round, clients, dimension) {
            if !present.contains(&share.client_id) {
                correction = add_vectors(&correction, &share.mask);
            }
        }
        correction
    }

    /// The mask for a single client under the zero-sum construction, without
    /// materializing every other client's mask (the client list and order
    /// must match the service's).
    #[must_use]
    pub fn mask_for(
        &self,
        round: u64,
        clients: &[u64],
        dimension: usize,
        client_id: u64,
    ) -> Option<MaskShare> {
        self.zero_sum_masks(round, clients, dimension)
            .into_iter()
            .find(|m| m.client_id == client_id)
    }

    fn round_rng(&self, round: u64) -> Drbg {
        let seed = derive_key_32(&self.seed, &format!("round:{round}"));
        Drbg::from_seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimmer_federated::fixed::{decode_weights, encode_weights};

    fn service() -> BlindingService {
        BlindingService::new([5u8; 32])
    }

    #[test]
    fn zero_sum_property() {
        let clients: Vec<u64> = (0..8).collect();
        let masks = service().zero_sum_masks(3, &clients, 16);
        assert_eq!(masks.len(), 8);
        let mut sum = vec![0u64; 16];
        for m in &masks {
            sum = add_vectors(&sum, &m.mask);
        }
        assert!(sum.iter().all(|&v| v == 0));
        // Masks are deterministic per round and differ across rounds.
        let again = service().zero_sum_masks(3, &clients, 16);
        assert_eq!(masks, again);
        let other_round = service().zero_sum_masks(4, &clients, 16);
        assert_ne!(masks, other_round);
    }

    #[test]
    fn pairwise_masks_cancel() {
        let clients: Vec<u64> = vec![10, 20, 30, 40, 50];
        let masks = service().pairwise_masks(1, &clients, 8);
        let mut sum = vec![0u64; 8];
        for m in &masks {
            sum = add_vectors(&sum, &m.mask);
        }
        assert!(sum.iter().all(|&v| v == 0));
        // Individual masks are not zero.
        assert!(masks.iter().all(|m| m.mask.iter().any(|&v| v != 0)));
    }

    #[test]
    fn blinded_aggregate_equals_plain_aggregate() {
        let clients: Vec<u64> = (0..5).collect();
        let dimension = 6;
        let contributions: Vec<Vec<f64>> = (0..5)
            .map(|i| {
                (0..dimension)
                    .map(|j| ((i + j) % 3) as f64 * 0.25)
                    .collect()
            })
            .collect();
        let encoded: Vec<Vec<u64>> = contributions.iter().map(|c| encode_weights(c)).collect();

        for masks in [
            service().zero_sum_masks(9, &clients, dimension),
            service().pairwise_masks(9, &clients, dimension),
        ] {
            let blinded: Vec<Vec<u64>> = encoded
                .iter()
                .zip(&masks)
                .map(|(c, m)| m.blind(c))
                .collect();
            // Individual blinded vectors differ from the raw ones.
            for (b, c) in blinded.iter().zip(&encoded) {
                assert_ne!(b, c);
            }
            // But the sums agree exactly.
            let mut blinded_sum = vec![0u64; dimension];
            let mut plain_sum = vec![0u64; dimension];
            for (b, c) in blinded.iter().zip(&encoded) {
                blinded_sum = add_vectors(&blinded_sum, b);
                plain_sum = add_vectors(&plain_sum, c);
            }
            assert_eq!(blinded_sum, plain_sum);
            let decoded = decode_weights(&blinded_sum);
            let expected: Vec<f64> = (0..dimension)
                .map(|j| contributions.iter().map(|c| c[j]).sum::<f64>())
                .collect();
            for (a, b) in decoded.iter().zip(expected.iter()) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn blind_unblind_round_trip() {
        let clients = vec![1, 2, 3];
        let masks = service().zero_sum_masks(0, &clients, 4);
        let contribution = encode_weights(&[0.1, 0.2, 0.3, 0.4]);
        let blinded = masks[0].blind(&contribution);
        assert_eq!(masks[0].unblind(&blinded), contribution);
    }

    #[test]
    fn mask_for_matches_batch_generation() {
        let clients = vec![7, 8, 9, 10];
        let all = service().zero_sum_masks(2, &clients, 3);
        for &c in &clients {
            let single = service().mask_for(2, &clients, 3, c).unwrap();
            assert_eq!(&single, all.iter().find(|m| m.client_id == c).unwrap());
        }
        assert!(service().mask_for(2, &clients, 3, 999).is_none());
    }

    #[test]
    fn dropout_correction_restores_the_sum() {
        let clients: Vec<u64> = vec![1, 2, 3, 4, 5];
        let dim = 4;
        let masks = service().zero_sum_masks(6, &clients, dim);
        let contributions: Vec<Vec<u64>> = (0..5)
            .map(|i| encode_weights(&vec![0.1 * (i + 1) as f64; dim]))
            .collect();
        // Clients 2 and 4 drop out.
        let present: Vec<u64> = vec![1, 3, 5];
        let mut sum = vec![0u64; dim];
        for (i, &c) in clients.iter().enumerate() {
            if present.contains(&c) {
                sum = add_vectors(&sum, &masks[i].blind(&contributions[i]));
            }
        }
        let correction = service().dropout_correction(6, &clients, dim, &present);
        sum = add_vectors(&sum, &correction);
        let decoded = decode_weights(&sum);
        // Expected plain sum over clients 1, 3, 5 (indices 0, 2, 4).
        let expected = 0.1 + 0.3 + 0.5;
        for v in decoded {
            assert!((v - expected).abs() < 1e-6, "{v}");
        }
        // No dropouts → zero correction.
        let none = service().dropout_correction(6, &clients, dim, &clients);
        assert!(none.iter().all(|&v| v == 0));
    }

    #[test]
    fn degenerate_cases() {
        assert!(service().zero_sum_masks(0, &[], 4).is_empty());
        // A single client gets the all-zero mask (sum of one mask must be zero).
        let single = service().zero_sum_masks(0, &[42], 4);
        assert_eq!(single.len(), 1);
        assert!(single[0].mask.iter().all(|&v| v == 0));
        // Zero-dimension masks are fine.
        let empty_dim = service().zero_sum_masks(0, &[1, 2], 0);
        assert!(empty_dim.iter().all(|m| m.mask.is_empty()));
    }
}
