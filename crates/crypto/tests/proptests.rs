//! Randomized property tests for the crypto primitives, driven by the
//! workspace's deterministic PRNG (seeded per test, so failures are
//! reproducible by construction).

use ccnvm_crypto::otp::OtpGenerator;
use ccnvm_crypto::{hmac_sha1, hmac_sha1_128, Aes128, CryptoTier, HmacEngine, HmacSha1, Sha1};
use ccnvm_rng::Rng;

const CASES: usize = 128;

/// Incremental hashing over any split equals one-shot hashing.
#[test]
fn sha1_incremental_equals_oneshot() {
    let mut rng = Rng::seed_from_u64(0x5a01);
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..512);
        let data = rng.gen_bytes(len);
        let split = rng.gen_range(0usize..512).min(data.len());
        let mut h = Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), Sha1::digest(&data));
    }
}

/// HMAC truncation is a strict prefix of the full tag.
#[test]
fn hmac_truncation_is_prefix() {
    let mut rng = Rng::seed_from_u64(0x5a02);
    for _ in 0..CASES {
        let key_len = rng.gen_range(0usize..80);
        let key = rng.gen_bytes(key_len);
        let msg_len = rng.gen_range(0usize..256);
        let msg = rng.gen_bytes(msg_len);
        let full = hmac_sha1(&key, &msg);
        let short = hmac_sha1_128(&key, &msg);
        assert_eq!(&full[..16], &short[..]);
    }
}

/// Incremental HMAC equals one-shot for any split.
#[test]
fn hmac_incremental_equals_oneshot() {
    let mut rng = Rng::seed_from_u64(0x5a03);
    for _ in 0..CASES {
        let key_len = rng.gen_range(1usize..64);
        let key = rng.gen_bytes(key_len);
        let msg_len = rng.gen_range(0usize..256);
        let msg = rng.gen_bytes(msg_len);
        let split = rng.gen_range(0usize..256).min(msg.len());
        let mut mac = HmacSha1::new(&key);
        mac.update(&msg[..split]);
        mac.update(&msg[split..]);
        assert_eq!(mac.finalize(), hmac_sha1(&key, &msg));
    }
}

/// Flipping any single message bit changes the MAC (a 128-bit
/// collision within this budget would be astronomical).
#[test]
fn hmac_detects_single_bit_flips() {
    let mut rng = Rng::seed_from_u64(0x5a04);
    for _ in 0..CASES {
        let msg_len = rng.gen_range(1usize..128);
        let msg = rng.gen_bytes(msg_len);
        let bit = rng.gen_range(0usize..1024) % (msg.len() * 8);
        let mut tampered = msg.clone();
        tampered[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(
            hmac_sha1_128(b"key", &msg),
            hmac_sha1_128(b"key", &tampered)
        );
    }
}

/// OTP encryption round-trips for any line/seed combination.
#[test]
fn otp_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x5a05);
    for _ in 0..CASES {
        let key: [u8; 16] = rng.gen_array();
        let line: [u8; 64] = rng.gen_array();
        let addr = rng.next_u64();
        let major = rng.next_u64();
        let minor = rng.gen_range(0u64..128);
        let otp = OtpGenerator::new(Aes128::new(&key));
        let ct = otp.xor64(&line, addr, major, minor);
        assert_eq!(otp.xor64(&ct, addr, major, minor), line);
    }
}

/// Distinct seeds produce distinct pads (the CME security
/// requirement: never reuse a one-time pad).
#[test]
fn otp_seed_uniqueness() {
    let mut rng = Rng::seed_from_u64(0x5a06);
    for _ in 0..CASES {
        let key: [u8; 16] = rng.gen_array();
        let a1 = rng.gen_range(0u64..=u32::MAX as u64);
        let a2 = rng.gen_range(0u64..=u32::MAX as u64);
        let m1 = rng.gen_range(0u64..128);
        let m2 = rng.gen_range(0u64..128);
        if a1 == a2 && m1 == m2 {
            continue;
        }
        let otp = OtpGenerator::new(Aes128::new(&key));
        assert_ne!(otp.pad64(a1, 0, m1), otp.pad64(a2, 0, m2));
    }
}

/// Batch MACs equal the rekeying reference over random batch sizes,
/// message lengths and both crypto tiers.
#[test]
fn hmac_batch_matches_scalar_any_shape() {
    let mut rng = Rng::seed_from_u64(0x5a08);
    for _ in 0..CASES {
        let key_len = rng.gen_range(1usize..64);
        let key = rng.gen_bytes(key_len);
        let engine = HmacEngine::new(&key);
        let count = rng.gen_range(1usize..24);
        // Half the cases use one shared length (a tree level's node
        // MACs); the rest mix lengths.
        let uniform = rng.gen_range(0u64..2) == 0;
        let shared_len = rng.gen_range(0usize..200);
        let msgs: Vec<Vec<u8>> = (0..count)
            .map(|_| {
                let len = if uniform {
                    shared_len
                } else {
                    rng.gen_range(0usize..200)
                };
                rng.gen_bytes(len)
            })
            .collect();
        for tier in [CryptoTier::Portable, CryptoTier::Simd] {
            let mut out = vec![[0u8; 16]; count];
            engine.mac128_batch(tier, &msgs, &mut out);
            for (msg, got) in msgs.iter().zip(&out) {
                assert_eq!(
                    *got,
                    hmac_sha1_128(&key, msg),
                    "tier {tier}, uniform {uniform}"
                );
            }
        }
    }
}

/// Tiered single MACs equal the rekeying reference for any key and
/// message, on both tiers.
#[test]
fn hmac_tiers_match_rekeyed_reference() {
    let mut rng = Rng::seed_from_u64(0x5a09);
    for _ in 0..CASES {
        let key_len = rng.gen_range(0usize..100);
        let key = rng.gen_bytes(key_len);
        let msg_len = rng.gen_range(0usize..300);
        let msg = rng.gen_bytes(msg_len);
        let want = hmac_sha1(&key, &msg);
        let engine = HmacEngine::new(&key);
        assert_eq!(engine.mac_with(CryptoTier::Portable, &msg), want);
        assert_eq!(engine.mac_with(CryptoTier::Simd, &msg), want);
    }
}

/// AES is a permutation: distinct plaintexts give distinct
/// ciphertexts under the same key.
#[test]
fn aes_injective() {
    let mut rng = Rng::seed_from_u64(0x5a07);
    for _ in 0..CASES {
        let key: [u8; 16] = rng.gen_array();
        let p1: [u8; 16] = rng.gen_array();
        let p2: [u8; 16] = rng.gen_array();
        if p1 == p2 {
            continue;
        }
        let aes = Aes128::new(&key);
        assert_ne!(aes.encrypt_block(p1), aes.encrypt_block(p2));
    }
}
