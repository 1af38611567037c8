//! Micro-benchmarks for the cryptographic substrate (supports E5).
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use glimmer_crypto::aead::AeadKey;
use glimmer_crypto::chacha20::ChaCha20;
use glimmer_crypto::dh::{DhGroup, DhKeyPair, GroupId};
use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::hmac::hmac_sha256;
use glimmer_crypto::poly1305::poly1305;
use glimmer_crypto::schnorr::SigningKey;
use glimmer_crypto::sha256::sha256;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(150))
}

fn bench_hash_and_mac(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_mac");
    for size in [64usize, 4096] {
        let data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| sha256(d))
        });
        group.bench_with_input(BenchmarkId::new("hmac_sha256", size), &data, |b, d| {
            b.iter(|| hmac_sha256(b"key", d))
        });
    }
    group.finish();
}

fn bench_cipher(c: &mut Criterion) {
    let mut group = c.benchmark_group("cipher");
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    for size in [256usize, 16384] {
        let data = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("chacha20", size), &data, |b, d| {
            b.iter(|| {
                let mut buf = d.clone();
                ChaCha20::new(&key, &nonce).apply(&mut buf, 0);
                buf
            })
        });
        group.bench_with_input(BenchmarkId::new("poly1305", size), &data, |b, d| {
            b.iter(|| poly1305(&key, d))
        });
        group.bench_with_input(BenchmarkId::new("aead_seal", size), &data, |b, d| {
            let k = AeadKey::from_master(&[1u8; 32]);
            b.iter(|| k.seal(&nonce, b"aad", d))
        });
        group.bench_with_input(BenchmarkId::new("aead_open", size), &data, |b, d| {
            let k = AeadKey::from_master(&[1u8; 32]);
            let sealed = k.seal(&nonce, b"aad", d);
            b.iter(|| k.open(&nonce, b"aad", &sealed).unwrap())
        });
    }
    group.finish();
}

fn bench_public_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("public_key");
    let mut rng = Drbg::from_seed([3u8; 32]);
    let key = SigningKey::generate(DhGroup::default_group(), &mut rng).unwrap();
    let sig = key.sign(b"endorsement").unwrap();
    group.bench_function("schnorr_sign", |b| {
        b.iter(|| key.sign(b"endorsement").unwrap())
    });
    group.bench_function("schnorr_verify", |b| {
        b.iter(|| key.verifying_key().verify(b"endorsement", &sig).unwrap())
    });
    let alice = DhKeyPair::generate(DhGroup::default_group(), &mut rng).unwrap();
    let bob = DhKeyPair::generate(DhGroup::default_group(), &mut rng).unwrap();
    group.bench_function("dh_derive_shared", |b| {
        b.iter(|| alice.derive_shared_key(bob.public(), b"ctx", 32).unwrap())
    });
    group.finish();
}

/// The two exponentiation ladders side by side, per group: `pow_g` walks
/// the generator's precomputed comb, `pow` a 4-bit window over a table it
/// builds per call. Then the protocol they serve, whole: both sides of a
/// handshake from key generation to derived key, with `black_box` around
/// the entire exchange so nothing of it is hoisted out of the loop.
fn bench_exponentiation(c: &mut Criterion) {
    let mut group = c.benchmark_group("exponentiation");
    let mut rng = Drbg::from_seed([4u8; 32]);
    for (id, bits) in [(GroupId::Modp1024, 1024), (GroupId::Modp2048, 2048)] {
        let dh = DhGroup::new(id);
        let scalar = dh.random_scalar(&mut rng);
        let base = dh.pow_g(&dh.random_scalar(&mut rng)).unwrap();
        group.bench_function(BenchmarkId::new("pow_g_fixed_base", bits), |b| {
            b.iter(|| black_box(dh.pow_g(black_box(&scalar)).unwrap()))
        });
        group.bench_function(BenchmarkId::new("pow_variable_base", bits), |b| {
            b.iter(|| black_box(dh.pow(black_box(&base), black_box(&scalar)).unwrap()))
        });
    }
    group.bench_function("dh_handshake_both_sides", |b| {
        b.iter(|| {
            black_box({
                let alice = DhKeyPair::generate(DhGroup::default_group(), &mut rng).unwrap();
                let bob = DhKeyPair::generate(DhGroup::default_group(), &mut rng).unwrap();
                let k_ab = alice.derive_shared_key(bob.public(), b"ctx", 32).unwrap();
                let k_ba = bob.derive_shared_key(alice.public(), b"ctx", 32).unwrap();
                (k_ab, k_ba)
            })
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_hash_and_mac, bench_cipher, bench_public_key, bench_exponentiation
}
criterion_main!(benches);
