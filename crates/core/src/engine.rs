//! The encryption engine: counter-mode encryption and HMAC generation.
//!
//! This is the functional half of the paper's *Encryption Engine*
//! component (Figure 2): given a line, its address and its split
//! counter, it produces real ciphertexts and real 128-bit data HMACs.
//! The timing half (72 ns AES, 80-cycle HMACs, engine occupancy on the
//! write-back path) lives in the simulator.
//!
//! Every MAC goes through a [`HmacEngine`] keyed once at construction,
//! so the hot path pays only the message compressions plus one outer
//! compression per MAC — the key schedule (pad XORs plus two extra
//! SHA-1 block compressions) is hoisted out of the per-operation cost.
//! The tests check it against the per-MAC key-schedule reference,
//! [`HmacSha1`](ccnvm_crypto::HmacSha1).

use crate::counter::CounterLine;
use crate::tcb::Keys;
use ccnvm_crypto::otp::OtpGenerator;
use ccnvm_crypto::{Aes128, CryptoTier, HmacEngine, Mac128};
use ccnvm_mem::{Line, LineAddr};
use std::cell::Cell;

/// Functional encryption/authentication engine.
///
/// # Example
///
/// ```
/// use ccnvm::engine::CryptoEngine;
/// use ccnvm::tcb::Keys;
/// use ccnvm_mem::LineAddr;
///
/// let engine = CryptoEngine::new(&Keys::from_seed(1));
/// let plain = [0x5au8; 64];
/// let ct = engine.encrypt_line(&plain, LineAddr(8), 3, 14);
/// assert_eq!(engine.decrypt_line(&ct, LineAddr(8), 3, 14), plain);
/// ```
#[derive(Debug, Clone)]
pub struct CryptoEngine {
    otp: OtpGenerator,
    hmac: HmacEngine,
    /// Resolved implementation tier (bit-identical across tiers; the
    /// default is whatever this host detects).
    tier: CryptoTier,
    /// Pad generations performed by this instance (functional op
    /// count; the recovery phase timeline sizes itself from deltas).
    aes_ops: Cell<u64>,
    /// MAC computations performed by this instance.
    hmac_ops: Cell<u64>,
}

/// Data-HMAC message length: `"DH" ‖ ciphertext ‖ address ‖ counter`.
pub const DH_MSG_LEN: usize = 2 + 64 + 8 + 8 + 1;

/// Node-MAC message length: `"MT" ‖ level ‖ position ‖ child content`.
pub const MT_MSG_LEN: usize = 2 + 4 + 1 + 64;

impl CryptoEngine {
    /// Builds an engine from the TCB keys on the detected tier.
    pub fn new(keys: &Keys) -> Self {
        Self::with_tier(keys, CryptoTier::detect())
    }

    /// Builds an engine on an explicit crypto tier. The tier never
    /// changes any output — only how fast the host computes it — so
    /// `new` safely defaults to the detected tier.
    pub fn with_tier(keys: &Keys, tier: CryptoTier) -> Self {
        Self {
            otp: OtpGenerator::new(Aes128::new(&keys.aes)),
            hmac: HmacEngine::new(&keys.hmac),
            tier,
            aes_ops: Cell::new(0),
            hmac_ops: Cell::new(0),
        }
    }

    /// The resolved crypto tier this engine dispatches under.
    pub fn tier(&self) -> CryptoTier {
        self.tier
    }

    /// Pad generations (encrypts + decrypts) this instance performed.
    pub fn aes_ops(&self) -> u64 {
        self.aes_ops.get()
    }

    /// MAC computations this instance performed.
    pub fn hmac_ops(&self) -> u64 {
        self.hmac_ops.get()
    }

    /// Encrypts `plain` for `line` under split counter `(major, minor)`.
    pub fn encrypt_line(&self, plain: &Line, line: LineAddr, major: u64, minor: u8) -> Line {
        self.aes_ops.set(self.aes_ops.get() + 1);
        self.otp
            .xor64_with(self.tier, plain, line.0, major, minor as u64)
    }

    /// Decrypts `cipher` (the inverse of [`Self::encrypt_line`]).
    pub fn decrypt_line(&self, cipher: &Line, line: LineAddr, major: u64, minor: u8) -> Line {
        self.aes_ops.set(self.aes_ops.get() + 1);
        self.otp
            .xor64_with(self.tier, cipher, line.0, major, minor as u64)
    }

    fn mac_bytes(&self, msg: &[u8]) -> Mac128 {
        self.hmac_ops.set(self.hmac_ops.get() + 1);
        self.hmac.mac128_with(self.tier, msg)
    }

    /// Builds the data-HMAC message. Pure framing: no op counters move.
    fn data_hmac_msg(cipher: &Line, line: LineAddr, major: u64, minor: u8) -> [u8; DH_MSG_LEN] {
        let mut msg = [0u8; DH_MSG_LEN];
        msg[..2].copy_from_slice(b"DH");
        msg[2..66].copy_from_slice(cipher);
        msg[66..74].copy_from_slice(&line.0.to_le_bytes());
        msg[74..82].copy_from_slice(&major.to_le_bytes());
        msg[82] = minor;
        msg
    }

    /// Data HMAC of a line: 128-bit code over
    /// `(encrypted data ‖ address ‖ counter)` as in Figure 1.
    pub fn data_hmac(&self, cipher: &Line, line: LineAddr, major: u64, minor: u8) -> Mac128 {
        self.mac_bytes(&Self::data_hmac_msg(cipher, line, major, minor))
    }

    /// Data HMAC computed from a decoded counter line.
    pub fn data_hmac_with(&self, cipher: &Line, line: LineAddr, ctr: &CounterLine) -> Mac128 {
        let (major, minor) = ctr.seed(line.page_offset());
        self.data_hmac(cipher, line, major, minor)
    }

    /// Counter HMAC of a Merkle-tree child: 128-bit code over the
    /// child's content, domain-separated by tree level and the child's
    /// position under its parent.
    ///
    /// Including the position (but not the absolute index) keeps
    /// sibling swaps detectable while preserving the uniform per-level
    /// default-node values the sparse tree relies on; swapping two
    /// same-position nodes with *different* content still mismatches
    /// their parents' slots, and swapping identical content is a
    /// semantic no-op.
    pub fn node_mac(&self, level: usize, position: u8, content: &Line) -> Mac128 {
        self.mac_bytes(&Self::node_mac_msg(level, position, content))
    }

    /// Builds the node-MAC message. Pure framing: no op counters move.
    fn node_mac_msg(level: usize, position: u8, content: &Line) -> [u8; MT_MSG_LEN] {
        debug_assert!(position < 4, "4-ary tree positions are 0..4");
        let mut msg = [0u8; MT_MSG_LEN];
        msg[..2].copy_from_slice(b"MT");
        msg[2..6].copy_from_slice(&(level as u32).to_le_bytes());
        msg[6] = position;
        msg[7..71].copy_from_slice(content);
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnvm_crypto::HmacSha1;

    fn engine() -> CryptoEngine {
        CryptoEngine::new(&Keys::from_seed(42))
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let e = engine();
        let plain: Line = core::array::from_fn(|i| i as u8);
        let ct = e.encrypt_line(&plain, LineAddr(100), 2, 7);
        assert_ne!(ct, plain);
        assert_eq!(e.decrypt_line(&ct, LineAddr(100), 2, 7), plain);
    }

    #[test]
    fn wrong_counter_garbles() {
        let e = engine();
        let plain = [1u8; 64];
        let ct = e.encrypt_line(&plain, LineAddr(0), 0, 1);
        assert_ne!(e.decrypt_line(&ct, LineAddr(0), 0, 2), plain);
    }

    #[test]
    fn data_hmac_binds_every_input() {
        let e = engine();
        let ct = [9u8; 64];
        let base = e.data_hmac(&ct, LineAddr(5), 1, 1);
        let mut ct2 = ct;
        ct2[0] ^= 1;
        assert_ne!(e.data_hmac(&ct2, LineAddr(5), 1, 1), base, "ciphertext");
        assert_ne!(e.data_hmac(&ct, LineAddr(6), 1, 1), base, "address");
        assert_ne!(e.data_hmac(&ct, LineAddr(5), 2, 1), base, "major");
        assert_ne!(e.data_hmac(&ct, LineAddr(5), 1, 2), base, "minor");
    }

    #[test]
    fn data_hmac_with_counter_line_uses_page_offset() {
        let e = engine();
        let mut ctr = CounterLine::new();
        ctr.bump(1); // line with page offset 1 has minor 1
        let ct = [3u8; 64];
        assert_eq!(
            e.data_hmac_with(&ct, LineAddr(1), &ctr),
            e.data_hmac(&ct, LineAddr(1), 0, 1)
        );
        assert_eq!(
            e.data_hmac_with(&ct, LineAddr(0), &ctr),
            e.data_hmac(&ct, LineAddr(0), 0, 0)
        );
    }

    #[test]
    fn node_mac_separates_levels_and_positions() {
        let e = engine();
        let content = [7u8; 64];
        let base = e.node_mac(1, 0, &content);
        assert_ne!(e.node_mac(2, 0, &content), base);
        assert_ne!(e.node_mac(1, 1, &content), base);
        let mut content2 = content;
        content2[63] ^= 0x80;
        assert_ne!(e.node_mac(1, 0, &content2), base);
    }

    #[test]
    fn op_counters_track_invocations() {
        let e = engine();
        assert_eq!((e.aes_ops(), e.hmac_ops()), (0, 0));
        let ct = e.encrypt_line(&[1u8; 64], LineAddr(0), 0, 0);
        e.decrypt_line(&ct, LineAddr(0), 0, 0);
        e.data_hmac(&ct, LineAddr(0), 0, 0);
        e.node_mac(1, 0, &ct);
        assert_eq!((e.aes_ops(), e.hmac_ops()), (2, 2));
    }

    #[test]
    fn engines_from_same_keys_agree() {
        let keys = Keys::from_seed(5);
        let a = CryptoEngine::new(&keys);
        let b = CryptoEngine::new(&keys);
        assert_eq!(
            a.data_hmac(&[0u8; 64], LineAddr(1), 0, 0),
            b.data_hmac(&[0u8; 64], LineAddr(1), 0, 0)
        );
    }

    /// Both tiers produce identical ciphertexts and MACs end to end.
    #[test]
    fn tiers_are_bit_identical_for_engine_outputs() {
        let keys = Keys::from_seed(77);
        let portable = CryptoEngine::with_tier(&keys, CryptoTier::Portable);
        let simd = CryptoEngine::with_tier(&keys, CryptoTier::Simd);
        for i in 0..8u64 {
            let plain: Line = core::array::from_fn(|j| ((j as u64).wrapping_mul(i + 3)) as u8);
            let ct_p = portable.encrypt_line(&plain, LineAddr(i * 64), i, (i % 64) as u8);
            let ct_s = simd.encrypt_line(&plain, LineAddr(i * 64), i, (i % 64) as u8);
            assert_eq!(ct_p, ct_s, "ciphertext {i}");
            assert_eq!(
                portable.data_hmac(&ct_p, LineAddr(i * 64), i, (i % 64) as u8),
                simd.data_hmac(&ct_s, LineAddr(i * 64), i, (i % 64) as u8),
                "data_hmac {i}"
            );
            let (level, position) = (i as usize % 12, (i % 4) as u8);
            assert_eq!(
                portable.node_mac(level, position, &plain),
                simd.node_mac(level, position, &plain),
                "node_mac {i}"
            );
        }
        assert_eq!(
            (portable.tier(), simd.tier()),
            (CryptoTier::Portable, CryptoTier::Simd)
        );
    }

    fn truncate(full: [u8; 20]) -> Mac128 {
        full[..16].try_into().expect("16 of 20 bytes")
    }

    /// The message framing must match the original incremental
    /// construction byte for byte (same fields, same order), MACed by
    /// the per-MAC key-schedule reference.
    #[test]
    fn data_hmac_framing_matches_incremental_reference() {
        let keys = Keys::from_seed(9);
        let e = CryptoEngine::new(&keys);
        let ct = [0xabu8; 64];
        let (line, major, minor) = (LineAddr(123), 456u64, 7u8);
        let mut h = HmacSha1::new(&keys.hmac);
        h.update(b"DH");
        h.update(&ct);
        h.update(&line.0.to_le_bytes());
        h.update(&major.to_le_bytes());
        h.update(&[minor]);
        assert_eq!(e.data_hmac(&ct, line, major, minor), truncate(h.finalize()));

        let mut h = HmacSha1::new(&keys.hmac);
        h.update(b"MT");
        h.update(&3u32.to_le_bytes());
        h.update(&[2]);
        h.update(&ct);
        assert_eq!(e.node_mac(3, 2, &ct), truncate(h.finalize()));
    }
}
