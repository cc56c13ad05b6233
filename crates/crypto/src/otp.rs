//! One-time-pad generation for counter-mode encryption (CME).
//!
//! CME encrypts a 64-byte memory line by XORing it with a one-time pad
//! derived from a secret key and a *seed*. Seed uniqueness is the
//! entire security argument (§2.2 of the paper):
//!
//! 1. different lines map to different counters (the seed contains the
//!    line address), and
//! 2. the counter increments on every write-back of the line.
//!
//! A 64-byte pad needs four AES blocks; the block index enters the seed
//! so the four pad blocks differ.

use crate::aes::Aes128;
use crate::tier::CryptoTier;

/// Generates one-time pads for 64-byte lines.
///
/// # Example
///
/// ```
/// use ccnvm_crypto::{Aes128, otp::OtpGenerator};
///
/// let otp = OtpGenerator::new(Aes128::new(b"0123456789abcdef"));
/// let line = [0xabu8; 64];
/// let ct = otp.xor64(&line, 0x40, 1, 9);
/// let pt = otp.xor64(&ct, 0x40, 1, 9);
/// assert_eq!(pt, line);
/// ```
#[derive(Debug, Clone)]
pub struct OtpGenerator {
    aes: Aes128,
}

impl OtpGenerator {
    /// Wraps a keyed AES-128 cipher.
    pub fn new(aes: Aes128) -> Self {
        Self { aes }
    }

    /// Produces the 64-byte pad for the line at `line_addr` under the
    /// split counter `(major, minor)`.
    pub fn pad64(&self, line_addr: u64, major: u64, minor: u64) -> [u8; 64] {
        self.pad64_with(CryptoTier::Portable, line_addr, major, minor)
    }

    /// [`Self::pad64`] under an explicit crypto tier (one four-block
    /// AES-NI pass where the host has it; bit-identical output).
    pub fn pad64_with(&self, tier: CryptoTier, line_addr: u64, major: u64, minor: u64) -> [u8; 64] {
        let mut seed = [0u8; 16];
        seed[0..8].copy_from_slice(&line_addr.to_le_bytes());
        seed[8..15].copy_from_slice(&major.to_le_bytes()[..7]);
        // Pack the 7-bit minor counter and the 2-bit block index into the
        // final seed byte alongside the top major byte folded in above.
        let last = ((minor as u8) & 0x7f) ^ major.to_le_bytes()[7];
        let seeds: [[u8; 16]; 4] = core::array::from_fn(|blk| {
            let mut s = seed;
            s[15] = last ^ ((blk as u8) << 6);
            s
        });
        let mut pad = [0u8; 64];
        for (chunk, block) in pad
            .chunks_exact_mut(16)
            .zip(self.aes.encrypt4_with(tier, seeds))
        {
            chunk.copy_from_slice(&block);
        }
        pad
    }

    /// XORs `line` with the pad for `(line_addr, major, minor)`.
    ///
    /// Applying the same call to the result restores the original line,
    /// which is how CME decrypts.
    pub fn xor64(&self, line: &[u8; 64], line_addr: u64, major: u64, minor: u64) -> [u8; 64] {
        self.xor64_with(CryptoTier::Portable, line, line_addr, major, minor)
    }

    /// [`Self::xor64`] under an explicit crypto tier.
    pub fn xor64_with(
        &self,
        tier: CryptoTier,
        line: &[u8; 64],
        line_addr: u64,
        major: u64,
        minor: u64,
    ) -> [u8; 64] {
        let pad = self.pad64_with(tier, line_addr, major, minor);
        let mut out = [0u8; 64];
        for i in 0..64 {
            out[i] = line[i] ^ pad[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn otp() -> OtpGenerator {
        OtpGenerator::new(Aes128::new(&[0x5au8; 16]))
    }

    #[test]
    fn roundtrip() {
        let line: [u8; 64] = core::array::from_fn(|i| i as u8);
        let g = otp();
        let ct = g.xor64(&line, 123, 4, 5);
        assert_ne!(ct, line);
        assert_eq!(g.xor64(&ct, 123, 4, 5), line);
    }

    #[test]
    fn pad_depends_on_address() {
        let g = otp();
        assert_ne!(g.pad64(0, 1, 1), g.pad64(64, 1, 1));
    }

    #[test]
    fn pad_depends_on_major() {
        let g = otp();
        assert_ne!(g.pad64(0, 1, 1), g.pad64(0, 2, 1));
    }

    #[test]
    fn pad_depends_on_minor() {
        let g = otp();
        assert_ne!(g.pad64(0, 1, 1), g.pad64(0, 1, 2));
    }

    #[test]
    fn pad_blocks_differ() {
        let pad = otp().pad64(99, 7, 3);
        assert_ne!(pad[0..16], pad[16..32]);
        assert_ne!(pad[16..32], pad[32..48]);
        assert_ne!(pad[32..48], pad[48..64]);
    }

    #[test]
    fn wrong_counter_fails_to_decrypt() {
        let line = [0x11u8; 64];
        let g = otp();
        let ct = g.xor64(&line, 8, 1, 1);
        assert_ne!(g.xor64(&ct, 8, 1, 2), line);
    }

    /// 1 000 seeded pads: both tiers agree, and each pad is the four
    /// portable single-block encryptions of its seeds.
    #[test]
    fn seeded_pads_match_four_single_blocks_on_every_tier() {
        use ccnvm_rng::Rng;
        let g = otp();
        let mut rng = Rng::seed_from_u64(0x0_7b);
        for _ in 0..1_000 {
            let (addr, major, minor) = (rng.next_u64(), rng.next_u64(), rng.next_u64() % 128);
            let mut want = [0u8; 64];
            for blk in 0..4u8 {
                let mut seed = [0u8; 16];
                seed[0..8].copy_from_slice(&addr.to_le_bytes());
                seed[8..16].copy_from_slice(&major.to_le_bytes());
                seed[15] ^= (minor as u8) ^ (blk << 6);
                let block = g.aes.encrypt_block(seed);
                want[blk as usize * 16..][..16].copy_from_slice(&block);
            }
            for tier in [CryptoTier::Portable, CryptoTier::Simd] {
                assert_eq!(g.pad64_with(tier, addr, major, minor), want, "{tier}");
            }
        }
    }

    #[test]
    fn tiers_produce_identical_pads() {
        let g = otp();
        for (addr, major, minor) in [(0u64, 0u64, 0u64), (64, 1, 9), (0x7fc0, 1 << 50, 127)] {
            let want = g.pad64(addr, major, minor);
            assert_eq!(g.pad64_with(CryptoTier::Simd, addr, major, minor), want);
            let line: [u8; 64] = core::array::from_fn(|i| (i * 7) as u8);
            assert_eq!(
                g.xor64_with(CryptoTier::Simd, &line, addr, major, minor),
                g.xor64(&line, addr, major, minor)
            );
        }
    }
}
