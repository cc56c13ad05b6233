//! Hardware-accelerated SHA-1 and AES block functions.
//!
//! [`compress_block`] runs one FIPS 180-4 SHA-1 compression with the
//! SHA-NI round instructions, and [`aes128_encrypt4`] four AES-128
//! blocks with AES-NI — the four blocks of one one-time pad, their
//! rounds interleaved so the AES unit's pipeline stays full. Both are
//! bit-identical to the portable code they fall back to: the scalar
//! compression in [`crate::sha1`] and the T-table cipher in
//! [`crate::aes`].
//!
//! Which path runs is decided at runtime from [`crate::tier`]: each
//! entry point takes the resolved [`CryptoTier`] and falls back
//! per capability, so a forced `simd` tier on a host with AES-NI but
//! no SHA-NI still uses the instruction it has. The kernels live behind
//! `cfg(feature = "simd", target_arch = "x86_64")` and are the only
//! unsafe code in the crate.

use crate::tier::CryptoTier;

/// One single-stream SHA-1 compression under `tier`: SHA-NI when
/// available, otherwise the scalar FIPS code. Bit-identical to
/// [`crate::sha1`]'s compression.
pub(crate) fn compress_block(tier: CryptoTier, state: [u32; 5], block: &[u8; 64]) -> [u32; 5] {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if tier == CryptoTier::Simd && crate::tier::caps().sha_ni {
        // SAFETY: CPUID reported SHA-NI, SSSE3 and SSE4.1 (`caps`).
        return unsafe { x86::compress_block_shani(state, block) };
    }
    let _ = tier;
    crate::sha1::Sha1::compress_block(state, block)
}

/// Four AES-128 block encryptions under `tier` from pre-expanded round
/// keys in state-column layout (`rk[round][column]`, little-endian
/// packed — byte-for-byte the FIPS 197 expanded key, which is exactly
/// what AES-NI consumes): one interleaved AES-NI pass, or `ttable` on
/// each block. Bit-identical to the T-table cipher.
pub(crate) fn aes128_encrypt4(
    tier: CryptoTier,
    rk: &[[u32; 4]; 11],
    blocks: [[u8; 16]; 4],
    ttable: impl Fn([u8; 16]) -> [u8; 16],
) -> [[u8; 16]; 4] {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if tier == CryptoTier::Simd && crate::tier::caps().aes_ni {
        // SAFETY: CPUID reported AES-NI (`caps`); SSE2 is baseline on
        // x86-64.
        return unsafe { x86::aes128_encrypt4_aesni(rk, &blocks) };
    }
    let _ = (tier, rk);
    blocks.map(ttable)
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    //! The x86-64 intrinsic kernels, reached only through the
    //! CPUID-checked dispatchers above.

    use core::arch::x86_64::*;

    /// Single-stream SHA-1 compression with the SHA-NI round
    /// instructions (the classic fully unrolled schedule: `SHA1RNDS4`
    /// processes four rounds, `SHA1MSG1`/`SHA1MSG2`/`SHA1NEXTE`
    /// maintain the message expansion).
    ///
    /// # Safety
    ///
    /// The CPU must support SHA-NI, SSSE3 and SSE4.1.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress_block_shani(state: [u32; 5], block: &[u8; 64]) -> [u32; 5] {
        // Big-endian word loads: byte-reverse each 32-bit lane.
        let mask = _mm_set_epi64x(
            0x0001_0203_0405_0607u64 as i64,
            0x0809_0a0b_0c0d_0e0fu64 as i64,
        );
        let mut abcd = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        abcd = _mm_shuffle_epi32::<0x1B>(abcd);
        let mut e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        let abcd_save = abcd;
        let e_save = e0;
        let load = |off: usize| {
            _mm_shuffle_epi8(
                _mm_loadu_si128(block.as_ptr().add(off) as *const __m128i),
                mask,
            )
        };

        // Rounds 0..4
        let mut msg0 = load(0);
        e0 = _mm_add_epi32(e0, msg0);
        let mut e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        // Rounds 4..8
        let mut msg1 = load(16);
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        // Rounds 8..12
        let mut msg2 = load(32);
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        // Rounds 12..16
        let mut msg3 = load(48);
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        // Rounds 16..20
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        // Rounds 20..24
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);
        // Rounds 24..28
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        // Rounds 28..32
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        // Rounds 32..36
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        // Rounds 36..40
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);
        // Rounds 40..44
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        // Rounds 44..48
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        // Rounds 48..52
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        // Rounds 52..56
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);
        // Rounds 56..60
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        // Rounds 60..64
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        // Rounds 64..68
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        // Rounds 68..72
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        msg3 = _mm_xor_si128(msg3, msg1);
        // Rounds 72..76
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);
        // Rounds 76..80
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);

        e0 = _mm_sha1nexte_epu32(e0, e_save);
        abcd = _mm_add_epi32(abcd, abcd_save);

        let mut out = [0u32; 5];
        let abcd_out = _mm_shuffle_epi32::<0x1B>(abcd);
        _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, abcd_out);
        out[4] = _mm_extract_epi32::<3>(e0) as u32;
        out
    }

    /// Four AES-128 block encryptions with AES-NI, round by round
    /// across the blocks: the four `AESENC` chains are independent, so
    /// each round's four instructions overlap in the pipeline where one
    /// block at a time waits out every round's latency. The round keys
    /// the T-table cipher pre-expands (`rk[round][column]`,
    /// little-endian packed) are byte-for-byte the FIPS 197 expanded
    /// key, so they load directly.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI and SSE2.
    #[target_feature(enable = "aes,sse2")]
    pub(super) unsafe fn aes128_encrypt4_aesni(
        rk: &[[u32; 4]; 11],
        blocks: &[[u8; 16]; 4],
    ) -> [[u8; 16]; 4] {
        let key = |r: usize| _mm_loadu_si128(rk[r].as_ptr() as *const __m128i);
        let mut b = [_mm_setzero_si128(); 4];
        let k0 = key(0);
        for (state, block) in b.iter_mut().zip(blocks) {
            *state = _mm_xor_si128(_mm_loadu_si128(block.as_ptr() as *const __m128i), k0);
        }
        for r in 1..10 {
            let k = key(r);
            for state in &mut b {
                *state = _mm_aesenc_si128(*state, k);
            }
        }
        let k10 = key(10);
        let mut out = [[0u8; 16]; 4];
        for (block, state) in out.iter_mut().zip(b) {
            let last = _mm_aesenclast_si128(state, k10);
            _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, last);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;
    use ccnvm_rng::Rng;

    #[test]
    fn single_block_simd_matches_scalar() {
        let mut rng = Rng::seed_from_u64(0x5ab1);
        for _ in 0..128 {
            let state: [u32; 5] = core::array::from_fn(|_| rng.next_u64() as u32);
            let block: [u8; 64] = rng.gen_array();
            let want = Sha1::compress_block(state, &block);
            for tier in [CryptoTier::Simd, CryptoTier::Portable] {
                assert_eq!(compress_block(tier, state, &block), want, "tier {tier}");
            }
        }
    }
}
