//! Known-answer tests: byte-exact outputs of the tree *before* the
//! exponentiation ladders were rewritten (fixed-base comb, windowed
//! Montgomery, limb-wise division). Signatures are deterministic and keys
//! are a pure function of the DRBG seed, so any change to these bytes means
//! the arithmetic changed, not just its speed — and every sealed key,
//! verifying key and endorsement in the field would stop matching.

use glimmer_crypto::dh::{DhGroup, DhKeyPair, GroupId};
use glimmer_crypto::drbg::Drbg;
use glimmer_crypto::schnorr::{Signature, SigningKey, VerifyingKey};

struct Vector {
    id: GroupId,
    /// `SigningKey::generate(group, Drbg::from_seed([41; 32]))`, serialized.
    verifying_key: &'static str,
    /// That key's signature over `MESSAGE`.
    signature: &'static str,
    /// `DhKeyPair::generate(group, Drbg::from_seed([33; 32]))`'s public value.
    dh_public: &'static str,
    /// 32 bytes derived with the `[34; 32]`-seeded peer under context `ctx`.
    shared_key: &'static str,
}

const MESSAGE: &[u8] = b"validated contribution bytes";

const VECTORS: [Vector; 2] = [
    Vector {
        id: GroupId::Modp1024,
        verifying_key: concat!(
            "010c02b6c23513b16ec98796bafbd7695fcf53e8d902675c9c410e60ee4de33c",
            "486de82c94703151e0be7429bad1969eee30bcbda835edf04a19d7d35334575b",
            "4695a6dbf94a1b7b5d3162c4e7b2071b5de57f83e715fca12449f9795a50c504",
            "228397ce87f1d1b615585cc06eb300c712e1d3de07292f0d1258ae32c6b166b3",
            "f8",
        ),
        signature: concat!(
            "0100000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "00353a497c9ecbd4134e6697deffc252296eab7f8b765a4c6b774738716143d4",
            "fb0a835d2346a6b69a21eee8c432014586b7a3cb563213cf6aa24016b57dd505",
            "75a3f46422aa535b867e99920126dc0d0e874b47bb7be3362b85ad19a21faa0d",
            "8b2c63a2f9685077e16abe1fb26549a4b29c2e8c7aa368b07225a55b7bea7aa6",
            "f231cdb55d5aeb3f8c6304984d03b67d17956255e05eda22776f9ad047028c37",
            "e8",
        ),
        dh_public: concat!(
            "9452a7dbfe685d43aab64f6e6382057cb7907d277273a16a1eb9447adfc526b8",
            "7de20bdd2a3038f4b34337a923358fc7b5367f2f48b5d3a0894b74eb7cd85bb8",
            "64145e6746537956717f03ba361ab7ac436670127c810ab068c294ca01df572e",
            "2e1517b52f4b3a4376a6e183b822599ab268d824dc721020c16fd908ad5c8466",
        ),
        shared_key: "46ffb261f81efcaac94be93ed6b8a2a40395bf078625765b1946c4feb293db00",
    },
    Vector {
        id: GroupId::Modp2048,
        verifying_key: concat!(
            "02d0f0f1df98b3934b1b63681b8edfeb46c419f1f1fbe56eb6c0e439ff3f5001",
            "08f09ad05ecd8f3ceda7093a9d9875a8eec1847876fab2084a94889c41b1f360",
            "b1ea1ba3702bc9a930d0cbe9b739bf8c9fc6fd6f9f15b5d9513281f003040b97",
            "18ef253a7cd41dbf8282f1ec8ac8eedafdaa92bbcccaa189cafb265fa1a8a690",
            "0accf46d05120e9c5a89b43612d23ca1206bb7767d1e025c6ab9ef14806c94cc",
            "bab5e2d7c9605b61ea3a0e2a25ab10ed775ea3fa3df576a032c9c9e782e1ebc6",
            "0dac44e8a43f3b6a692f6771182913679fd8eb0decbe8a6876eaa427c28c1413",
            "128870a081e22ec99d28ed38a0f6fa5e3830a2e619d270891fdd3d4c6d1eee62",
            "c3",
        ),
        signature: concat!(
            "0200000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0077eb66ab344cb4d9b8cc7bc8396be78c9a7bdbf0781e7faa504a5a1ba338f5",
            "5827c68b6d55baa0a8b1a6dff90b431b4ebc1977e8416a4edfec53adb30411a1",
            "a21e3467b2fa1356f2121d7ac38cc4b0b29cec5d8820739c2ad2ab29e881eefa",
            "078a8f43d700bf12a50d962412c2fe5a92847f6eb651242c98f1ce4d651ef8c7",
            "29f3099b40cc17901f1929c07b2c80d2f895972a9ae96d54aae4fcf69b2410e3",
            "e3b9fb7e7ae99dc4713226e9cc276c384dd3904197a8320cc4edaf82b4ff1982",
            "0f5c750aa9ae668e206e776b0a62f3998afd63ff5bd1763eddbc1187c579aa84",
            "bd40e78854ded99210a6a662b72ba0b59504ec20c4a57e149af574118fd64a85",
            "be3176db8800705c40ef87f397bc3c0de8705a337c4eaef3ae2239dbb0080379",
            "e0",
        ),
        dh_public: concat!(
            "4cde5f916e185bc0ecfeb6c4249a468d356a6e68f55ab2793de5afc516ca6564",
            "682e2d83673415b3bc1f3dded2bb5833543760eea8dbf2fe82c1b3e06028d65d",
            "58077bf2437c32e209080ca53bde1440d278308f6db26751167a3f02ba4b2170",
            "f2c56c4d40c9558088a40fe083bd970c89444242d4c77fabe27d77a5698e05ad",
            "1fc703a5bb4ff58ac28495e9d148b43fba7daed151e8809e224ed8c29e25a3f0",
            "ffa2f38303f4e777f75cafafb9a6e3ca96f32bdef9be94fdff6e2c9d50c649c5",
            "692e49f6b81bc0280e31414498d0e84526c891cb90f91917c1917e9ae7f0b4cd",
            "c59864800c1c7b11282ef9041f5855c279b18912f075fa4bdd150a9279892f19",
        ),
        shared_key: "bf8e2258f3d0b7446161777718631629b0f8ff4a22f7c118028be48d87edba92",
    },
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn signatures_and_keys_are_byte_identical_to_the_seed_tree() {
    for vector in &VECTORS {
        let group = DhGroup::new(vector.id);
        let key = SigningKey::generate(group.clone(), &mut Drbg::from_seed([41u8; 32])).unwrap();
        assert_eq!(hex(&key.verifying_key().to_bytes()), vector.verifying_key);
        let signature = key.sign(MESSAGE).unwrap();
        assert_eq!(hex(&signature.to_bytes(&group)), vector.signature);

        // The pinned bytes verify, so sign and verify agree with the seed
        // tree independently of each other.
        let pinned_key = VerifyingKey::from_bytes(&unhex(vector.verifying_key)).unwrap();
        let (id, pinned_signature) = Signature::from_bytes(&unhex(vector.signature)).unwrap();
        assert_eq!(id, vector.id);
        assert!(pinned_key.verify(MESSAGE, &pinned_signature).is_ok());
        assert!(pinned_key
            .verify(b"another message", &pinned_signature)
            .is_err());
    }
}

#[test]
fn dh_public_values_and_shared_keys_are_byte_identical_to_the_seed_tree() {
    for vector in &VECTORS {
        let group = DhGroup::new(vector.id);
        let pair = DhKeyPair::generate(group.clone(), &mut Drbg::from_seed([33u8; 32])).unwrap();
        assert_eq!(hex(&pair.public().to_bytes(&group)), vector.dh_public);
        let peer = DhKeyPair::generate(group.clone(), &mut Drbg::from_seed([34u8; 32])).unwrap();
        let shared = pair.derive_shared_key(peer.public(), b"ctx", 32).unwrap();
        assert_eq!(hex(&shared), vector.shared_key);
        assert_eq!(
            peer.derive_shared_key(pair.public(), b"ctx", 32).unwrap(),
            shared
        );
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}
