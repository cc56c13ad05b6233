//! HMAC-SHA1 (RFC 2104) implemented over the local [`Sha1`].
//!
//! The Bonsai Merkle Tree in cc-NVM uses keyed HMACs in two places:
//!
//! * **data HMACs** — one 128-bit code per 64-byte data line, computed
//!   over `(encrypted data ‖ address ‖ counter)`, stored alongside the
//!   data in NVM and *never* cached in the meta cache, and
//! * **counter HMACs** — the internal nodes of the tree, each a 128-bit
//!   code over one child node.
//!
//! Both are truncated HMAC-SHA1. The simulator computes them with
//! [`HmacEngine::mac128_with`]; [`HmacSha1`] and [`hmac_sha1_128`],
//! which redo the key schedule per MAC, are the reference it is tested
//! against.

use crate::hw;
use crate::sha1::Sha1;
use crate::tier::CryptoTier;
use crate::Mac128;

const BLOCK_LEN: usize = 64;

/// Serializes a SHA-1 state to its big-endian digest bytes.
fn state_bytes(state: [u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Incremental HMAC-SHA1 computation.
///
/// # Example
///
/// ```
/// use ccnvm_crypto::HmacSha1;
///
/// let mut mac = HmacSha1::new(b"secret");
/// mac.update(b"hello ");
/// mac.update(b"world");
/// let tag = mac.finalize();
/// assert_eq!(tag, HmacSha1::mac(b"secret", b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha1 {
    inner: Sha1,
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha1 {
    /// Creates an HMAC context keyed with `key`.
    ///
    /// Keys longer than the 64-byte SHA-1 block are hashed first, per
    /// RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = Sha1::digest(key);
            block_key[..20].copy_from_slice(&digest);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let mut ipad_key = [0u8; BLOCK_LEN];
        let mut opad_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad_key[i] = block_key[i] ^ 0x36;
            opad_key[i] = block_key[i] ^ 0x5c;
        }
        let mut inner = Sha1::new();
        inner.update(&ipad_key);
        Self { inner, opad_key }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the full 20-byte tag.
    pub fn finalize(self) -> [u8; 20] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha1::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot tag over `data` with `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; 20] {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }
}

/// Keyed HMAC-SHA1 engine with precomputed ipad/opad midstates.
///
/// [`HmacSha1`] redoes the RFC 2104 key schedule on every MAC: the
/// pad XORs, one SHA-1 block compression for the ipad prefix and
/// another for the opad prefix. A hardware HMAC engine is keyed once;
/// this type mirrors that by capturing the post-ipad and post-opad
/// compression states at construction, so each MAC costs only the
/// message compressions plus a single outer compression. Tags are
/// bit-identical to [`HmacSha1`] for every key and message.
///
/// # Example
///
/// ```
/// use ccnvm_crypto::{CryptoTier, HmacEngine, HmacSha1};
///
/// let engine = HmacEngine::new(b"secret");
/// let want = HmacSha1::mac(b"secret", b"hello world");
/// for tier in [CryptoTier::Portable, CryptoTier::detect()] {
///     assert_eq!(engine.mac_with(tier, b"hello world"), want);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct HmacEngine {
    /// SHA-1 state after compressing `key ⊕ ipad`.
    inner_midstate: [u32; 5],
    /// SHA-1 state after compressing `key ⊕ opad`.
    outer_midstate: [u32; 5],
}

impl HmacEngine {
    /// Keys the engine, precomputing both midstates.
    ///
    /// Keys longer than the 64-byte SHA-1 block are hashed first, per
    /// RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = Sha1::digest(key);
            block_key[..20].copy_from_slice(&digest);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let mut ipad_key = [0u8; BLOCK_LEN];
        let mut opad_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad_key[i] = block_key[i] ^ 0x36;
            opad_key[i] = block_key[i] ^ 0x5c;
        }
        let mut inner = Sha1::new();
        inner.update(&ipad_key);
        let mut outer = Sha1::new();
        outer.update(&opad_key);
        Self {
            inner_midstate: inner.midstate(),
            outer_midstate: outer.midstate(),
        }
    }

    /// One-shot tag over `data` under an explicit crypto tier
    /// (bit-identical on both tiers; `Simd` uses SHA-NI when the host
    /// has it).
    pub fn mac_with(&self, tier: CryptoTier, data: &[u8]) -> [u8; 20] {
        let mut state = self.inner_midstate;
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            let block: &[u8; 64] = chunk.try_into().expect("exact chunk");
            state = hw::compress_block(tier, state, block);
        }
        let rem = chunks.remainder();
        let bitlen = (((BLOCK_LEN + data.len()) as u64) * 8).to_be_bytes();
        let mut block = [0u8; 64];
        block[..rem.len()].copy_from_slice(rem);
        block[rem.len()] = 0x80;
        if rem.len() + 9 <= 64 {
            block[56..64].copy_from_slice(&bitlen);
            state = hw::compress_block(tier, state, &block);
        } else {
            state = hw::compress_block(tier, state, &block);
            let mut last = [0u8; 64];
            last[56..64].copy_from_slice(&bitlen);
            state = hw::compress_block(tier, state, &last);
        }
        self.outer_finish(tier, &state_bytes(state))
    }

    /// [`Self::mac_with`] truncated to the 128-bit codeword size the
    /// paper uses.
    pub fn mac128_with(&self, tier: CryptoTier, data: &[u8]) -> Mac128 {
        let full = self.mac_with(tier, data);
        let mut out = [0u8; 16];
        out.copy_from_slice(&full[..16]);
        out
    }

    /// Computes `out[i] = mac128_with(tier, msgs[i])` for a whole
    /// batch, one message at a time.
    ///
    /// # Panics
    ///
    /// When `out` is not exactly as long as `msgs`.
    pub fn mac128_batch<M: AsRef<[u8]>>(&self, tier: CryptoTier, msgs: &[M], out: &mut [Mac128]) {
        assert_eq!(msgs.len(), out.len(), "mac128_batch output length mismatch");
        for (msg, mac) in msgs.iter().zip(out) {
            *mac = self.mac128_with(tier, msg.as_ref());
        }
    }

    /// Runs the single outer compression over an inner digest: the
    /// digest, its padding and the length of the 84 absorbed bytes
    /// (the opad block plus the digest) fill exactly one block past the
    /// opad midstate.
    fn outer_finish(&self, tier: CryptoTier, inner_digest: &[u8; 20]) -> [u8; 20] {
        let mut block = [0u8; 64];
        block[..20].copy_from_slice(inner_digest);
        block[20] = 0x80;
        block[56..64].copy_from_slice(&(84u64 * 8).to_be_bytes());
        state_bytes(hw::compress_block(tier, self.outer_midstate, &block))
    }
}

/// One-shot HMAC-SHA1 returning the full 20-byte tag.
pub fn hmac_sha1(key: &[u8], data: &[u8]) -> [u8; 20] {
    HmacSha1::mac(key, data)
}

/// One-shot HMAC-SHA1 truncated to the 128-bit codeword size the paper
/// uses for both data HMACs and Merkle-tree nodes.
pub fn hmac_sha1_128(key: &[u8], data: &[u8]) -> Mac128 {
    let full = hmac_sha1(key, data);
    let mut out = [0u8; 16];
    out.copy_from_slice(&full[..16]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 test vectors.
    #[test]
    fn rfc2202_case1() {
        let tag = hmac_sha1(&[0x0b; 20], b"Hi There");
        assert_eq!(hex(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_case2() {
        let tag = hmac_sha1(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn rfc2202_case3() {
        let tag = hmac_sha1(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(hex(&tag), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    }

    #[test]
    fn rfc2202_case6_long_key() {
        let tag = hmac_sha1(
            &[0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&tag), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    }

    #[test]
    fn truncation_is_prefix() {
        let full = hmac_sha1(b"k", b"m");
        let short = hmac_sha1_128(b"k", b"m");
        assert_eq!(&full[..16], &short[..]);
    }

    #[test]
    fn key_separation() {
        assert_ne!(hmac_sha1_128(b"k1", b"m"), hmac_sha1_128(b"k2", b"m"));
    }

    #[test]
    fn message_separation() {
        assert_ne!(hmac_sha1_128(b"k", b"m1"), hmac_sha1_128(b"k", b"m2"));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha1::new(b"key");
        mac.update(b"part one, ");
        mac.update(b"part two");
        assert_eq!(mac.finalize(), hmac_sha1(b"key", b"part one, part two"));
    }

    // RFC 2202 vectors through the keyed engine.
    #[test]
    fn engine_rfc2202_vectors() {
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b617318655057264e28bc0b6fb378c8ef146be00",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
            ),
            (
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "aa4ae5e15272d00e95705637ce8a3b55ed402112",
            ),
        ];
        for (key, msg, want) in cases {
            let engine = HmacEngine::new(key);
            for tier in [CryptoTier::Portable, CryptoTier::Simd] {
                assert_eq!(hex(&engine.mac_with(tier, msg)), want, "tier {tier}");
            }
        }
    }

    #[test]
    fn engine_matches_rekeyed_hmac_for_all_key_lengths() {
        // Every interesting key length: empty, short, block-boundary
        // straddling, exactly one block, and the >64-byte hash-first
        // path.
        let msg: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        for key_len in [0usize, 1, 16, 20, 63, 64, 65, 80, 200] {
            let key: Vec<u8> = (0..key_len as u8).collect();
            let engine = HmacEngine::new(&key);
            for tier in [CryptoTier::Portable, CryptoTier::Simd] {
                assert_eq!(
                    engine.mac_with(tier, &msg),
                    HmacSha1::mac(&key, &msg),
                    "key_len {key_len}, tier {tier}"
                );
                assert_eq!(engine.mac128_with(tier, &msg), hmac_sha1_128(&key, &msg));
            }
        }
    }

    #[test]
    fn engine_reuse_is_stateless() {
        let engine = HmacEngine::new(b"k");
        for tier in [CryptoTier::Portable, CryptoTier::Simd] {
            let first = engine.mac_with(tier, b"m1");
            let _ = engine.mac_with(tier, b"m2");
            assert_eq!(engine.mac_with(tier, b"m1"), first, "tier {tier}");
        }
    }

    #[test]
    fn tiered_mac_matches_reference_across_lengths() {
        let engine = HmacEngine::new(b"tier key");
        let msg: Vec<u8> = (0..=255u8).cycle().take(400).collect();
        for len in [
            0usize, 1, 20, 55, 56, 63, 64, 65, 71, 83, 119, 128, 200, 400,
        ] {
            for tier in [CryptoTier::Portable, CryptoTier::Simd] {
                assert_eq!(
                    engine.mac_with(tier, &msg[..len]),
                    HmacSha1::mac(b"tier key", &msg[..len]),
                    "len {len}, tier {tier}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_scalar_including_ragged_tail() {
        let engine = HmacEngine::new(b"batch key");
        // A run of equal lengths, then unequal lengths.
        let msgs: Vec<Vec<u8>> = (0..15usize)
            .map(|i| {
                let len = if i < 12 { 83 } else { 10 + i };
                (0..len).map(|j| (i * 31 + j) as u8).collect()
            })
            .collect();
        for tier in [CryptoTier::Portable, CryptoTier::Simd] {
            let mut out = vec![[0u8; 16]; msgs.len()];
            engine.mac128_batch(tier, &msgs, &mut out);
            for (msg, got) in msgs.iter().zip(&out) {
                assert_eq!(*got, hmac_sha1_128(b"batch key", msg), "tier {tier}");
            }
        }
    }

    #[test]
    fn batch_accepts_fixed_size_arrays_without_refs() {
        let engine = HmacEngine::new(b"arrays");
        let msgs: [[u8; 71]; 9] = core::array::from_fn(|i| core::array::from_fn(|j| (i ^ j) as u8));
        let mut out = [[0u8; 16]; 9];
        engine.mac128_batch(CryptoTier::Simd, &msgs, &mut out);
        for (msg, got) in msgs.iter().zip(&out) {
            assert_eq!(*got, hmac_sha1_128(b"arrays", msg));
        }
    }
}
