//! The seeded input generator. `--seed` reaches the benchmark only here:
//! it decides every sample of every contribution, which contributions are
//! deliberately out of range, and the devices' own key material. The
//! gateway under test is built from fixed seeds and receives nothing but
//! the generated inputs.

use glimmer_crypto::drbg::Drbg;

/// The one tenant every workload serves (`GlimmerDescriptor::iot_default`).
pub const APP: &str = "iot-telemetry.example";
/// Every contribution targets this round, so one installed mask per
/// session serves the whole run (the enclave keys masks by round+client).
pub const ROUND: u64 = 1;
/// Samples per contribution: about 100 B sealed.
pub const SMALL_DIM: usize = 8;
/// Samples per contribution: 32 KiB of readings, 32 KiB blinded reply.
pub const BULK_DIM: usize = 4096;
/// Share of contributions made deliberately out of range, in thousandths.
pub const BAD_PER_MILLE: u64 = 50;
/// The paper's example of a value a range check must refuse.
const OUT_OF_RANGE: f64 = 538.0;

/// splitmix64: small, seedable, and good enough to draw sensor readings.
/// Deliberately not the repository's `Drbg`: a change to the crypto crate
/// must not change the inputs the benchmark feeds it.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A stable tag per workload so two workloads never share a stream.
pub fn workload_tag(workload: &str) -> u64 {
    fnv1a(workload.as_bytes(), 0xcbf2_9ce4_8422_2325)
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A 32-byte seed for the device side's `Drbg`, derived from `--seed`.
pub fn drbg(seed: u64, workload: &str, lane: u64) -> Drbg {
    let mut rng =
        Rng::new(seed ^ workload_tag(workload) ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
    let mut bytes = [0u8; 32];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    Drbg::from_seed(bytes)
}

/// The seed of a run's blinding service, which deals the zero-sum masks.
pub fn mask_seed(seed: u64, workload: &str) -> [u8; 32] {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..16].copy_from_slice(&workload_tag(workload).to_le_bytes());
    bytes
}

/// One planned contribution and the outcome the generator expects for it.
pub struct Planned {
    pub samples: Vec<f64>,
    /// False for a deliberately out-of-range contribution, which the
    /// Glimmer must reject.
    pub honest: bool,
}

/// One device's contribution stream.
pub struct DeviceStream {
    rng: Rng,
    dim: usize,
    bad_per_mille: u64,
    pub client_id: u64,
    pub sent: u64,
}

impl DeviceStream {
    pub fn new(seed: u64, workload: &str, client_id: u64, dim: usize, bad_per_mille: u64) -> Self {
        DeviceStream {
            rng: Rng::new(
                seed ^ workload_tag(workload) ^ client_id.wrapping_mul(0xD6E8_FEB8_6659_FD93),
            ),
            dim,
            bad_per_mille,
            client_id,
            sent: 0,
        }
    }

    /// An in-range contribution, for checks that need an endorsement.
    pub fn next_honest(&mut self) -> Planned {
        self.sent += 1;
        Planned {
            samples: (0..self.dim).map(|_| self.rng.next_f64()).collect(),
            honest: true,
        }
    }

    pub fn next(&mut self) -> Planned {
        let Planned { mut samples, .. } = self.next_honest();
        let honest = self.rng.below(1000) >= self.bad_per_mille;
        if !honest {
            let at = self.rng.below(self.dim as u64) as usize;
            samples[at] = OUT_OF_RANGE;
        }
        Planned { samples, honest }
    }
}

/// A digest of the first `per_device` contributions of `devices` devices:
/// what the determinism test compares across seeds.
pub fn stream_hash(seed: u64, workload: &str, dim: usize, devices: u64, per_device: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for client_id in 0..devices {
        let mut stream = DeviceStream::new(seed, workload, client_id, dim, BAD_PER_MILLE);
        for _ in 0..per_device {
            let planned = stream.next();
            for sample in &planned.samples {
                hash = fnv1a(&sample.to_bits().to_le_bytes(), hash);
            }
            hash = fnv1a(&[u8::from(planned.honest)], hash);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = stream_hash(12, "steady_small", SMALL_DIM, 8, 64);
        assert_eq!(a, stream_hash(12, "steady_small", SMALL_DIM, 8, 64));
        assert_ne!(a, stream_hash(13, "steady_small", SMALL_DIM, 8, 64));
        assert_ne!(a, stream_hash(12, "steady_bulk", SMALL_DIM, 8, 64));
        let mut one = drbg(12, "session_churn", 0);
        let mut same = drbg(12, "session_churn", 0);
        let mut other = drbg(12, "session_churn", 1);
        let first = one.next_u64();
        assert_eq!(first, same.next_u64());
        assert_ne!(first, other.next_u64());
    }

    #[test]
    fn about_one_in_twenty_is_out_of_range_and_the_rest_is_in_range() {
        let mut stream = DeviceStream::new(12, "steady_small", 7, SMALL_DIM, BAD_PER_MILLE);
        let mut bad = 0;
        for _ in 0..4000 {
            let planned = stream.next();
            let in_range = planned.samples.iter().all(|s| (0.0..1.0).contains(s));
            assert_eq!(in_range, planned.honest);
            bad += u64::from(!planned.honest);
        }
        assert!((120..=280).contains(&bad), "{bad}");
        assert_eq!(stream.sent, 4000);
    }
}
