//! End-to-end Glimmer pipeline benchmark: validate + blind + sign + verify
//! (the headline E5 numbers), and the endorsement signature on its own at
//! the gateway benchmark's bulk size.
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use glimmer_core::blinding::BlindingService;
use glimmer_core::host::{GlimmerClient, GlimmerDescriptor};
use glimmer_core::protocol::{
    Contribution, ContributionPayload, EndorsedContribution, PrivateData, ProcessResponse,
};
use glimmer_core::signing::{sign_endorsement, signing_key_from_secret, ServiceKeyMaterial};
use glimmer_crypto::drbg::Drbg;
use sgx_sim::PlatformConfig;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200))
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("glimmer_pipeline");
    let mut rng = Drbg::from_seed([8u8; 32]);
    let material = ServiceKeyMaterial::generate(&mut rng).unwrap();
    for dim in [16usize, 256, 2048] {
        let mut client = GlimmerClient::new(
            GlimmerDescriptor::keyboard_range_only(),
            PlatformConfig::default(),
            &mut rng,
        )
        .unwrap();
        client
            .install_service_key(&material.secret_bytes())
            .unwrap();
        let masks = BlindingService::new([3u8; 32]).zero_sum_masks(0, &[0, 1], dim);
        client.install_mask(&masks[0]).unwrap();
        let weights: Vec<f64> = (0..dim).map(|i| (i % 7) as f64 / 10.0).collect();
        group.bench_with_input(BenchmarkId::new("process_and_verify", dim), &dim, |b, _| {
            b.iter(|| {
                let contribution = Contribution {
                    app_id: "nextwordpredictive.com".to_string(),
                    client_id: 0,
                    round: 0,
                    payload: ContributionPayload::ModelUpdate {
                        weights: weights.clone(),
                    },
                };
                match client.process(contribution, PrivateData::None).unwrap() {
                    ProcessResponse::Endorsed(e) => material.verifier().verify(&e).unwrap(),
                    ProcessResponse::Rejected { reason } => panic!("rejected: {reason}"),
                }
            })
        });
    }
    group.finish();
}

/// One 32 KiB endorsement signed (inside the enclave) and verified (at the
/// service), apart from validation, blinding and the ecall.
fn bench_endorse(c: &mut Criterion) {
    const BULK: usize = 32 * 1024;
    let mut group = c.benchmark_group("endorse");
    group.throughput(Throughput::Bytes(BULK as u64));
    let material = ServiceKeyMaterial::generate(&mut Drbg::from_seed([8u8; 32])).unwrap();
    let key = signing_key_from_secret(&material.secret_bytes()).unwrap();
    let verifier = material.verifier();
    let mut endorsed = EndorsedContribution {
        app_id: "nextwordpredictive.com".to_string(),
        client_id: 7,
        round: 3,
        released_payload: vec![0xA5; BULK],
        blinded: true,
        signature: Vec::new(),
    };
    group.bench_function("sign_32KiB", |b| {
        b.iter(|| sign_endorsement(&key, black_box(&endorsed)).unwrap())
    });
    endorsed.signature = sign_endorsement(&key, &endorsed).unwrap();
    group.bench_function("verify_32KiB", |b| {
        b.iter(|| verifier.verify(black_box(&endorsed)).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_pipeline, bench_endorse
}
criterion_main!(benches);
