//! AES-128 block encryption (FIPS 197) implemented from scratch.
//!
//! Counter-mode encryption (CME) in secure memories never decrypts with
//! the AES inverse cipher: both encryption and decryption XOR the data
//! with a one-time pad produced by *encrypting* a seed. Only the
//! forward cipher is therefore implemented; see [`crate::otp`] for the
//! pad construction.
//!
//! The cipher uses the classic T-table formulation: SubBytes,
//! ShiftRows and MixColumns fold into four 32-bit table lookups per
//! column per round (one shared table plus byte rotations). It makes
//! no attempt at constant-time execution — it feeds a hardware
//! simulator, not live traffic.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// The merged SubBytes+MixColumns round table, little-endian packed as
/// `(2·S[x], S[x], S[x], 3·S[x])`. The tables for the other three input
/// rows are byte rotations of this one, applied with `rotate_left` at
/// lookup time to keep the cache footprint at 1 KB.
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[i] = (s2 as u32) | ((s as u32) << 8) | ((s as u32) << 16) | ((s3 as u32) << 24);
        i += 1;
    }
    t
};

/// AES-128 forward cipher with a pre-expanded key schedule.
///
/// # Example
///
/// ```
/// use ccnvm_crypto::Aes128;
///
/// let aes = Aes128::new(&[0u8; 16]);
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_ne!(ct, [0u8; 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Aes128 {
    /// Round keys as state-layout column words (little-endian packed,
    /// `rk[round][column]`), ready to XOR against the T-table output.
    rk: [[u32; 4]; 11],
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut rk = [[0u32; 4]; 11];
        for (r, round) in rk.iter_mut().enumerate() {
            for c in 0..4 {
                round[c] = u32::from_le_bytes(w[r * 4 + c]);
            }
        }
        Self { rk }
    }

    /// Encrypts four 16-byte blocks under an explicit crypto tier: one
    /// interleaved AES-NI pass where the host has it, otherwise the
    /// T-table cipher on each. Bit-identical to four
    /// [`Self::encrypt_block`] calls.
    pub fn encrypt4_with(
        &self,
        tier: crate::tier::CryptoTier,
        blocks: [[u8; 16]; 4],
    ) -> [[u8; 16]; 4] {
        crate::hw::aes128_encrypt4(tier, &self.rk, blocks, |b| self.encrypt_block(b))
    }

    /// Encrypts one 16-byte block.
    ///
    /// State columns live in little-endian `u32`s, so row `r` of column
    /// `c` is byte `r` of word `c`; ShiftRows becomes picking row `r`
    /// from column `(c + r) % 4`.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let mut c = [0u32; 4];
        for (j, col) in c.iter_mut().enumerate() {
            let bytes: [u8; 4] = block[4 * j..4 * j + 4].try_into().expect("16-byte block");
            *col = u32::from_le_bytes(bytes) ^ self.rk[0][j];
        }
        for round in 1..10 {
            let mut n = [0u32; 4];
            for (j, out) in n.iter_mut().enumerate() {
                let b0 = (c[j] & 0xff) as usize;
                let b1 = ((c[(j + 1) % 4] >> 8) & 0xff) as usize;
                let b2 = ((c[(j + 2) % 4] >> 16) & 0xff) as usize;
                let b3 = (c[(j + 3) % 4] >> 24) as usize;
                *out = TE0[b0]
                    ^ TE0[b1].rotate_left(8)
                    ^ TE0[b2].rotate_left(16)
                    ^ TE0[b3].rotate_left(24)
                    ^ self.rk[round][j];
            }
            c = n;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let mut out = [0u8; 16];
        for j in 0..4 {
            let b0 = SBOX[(c[j] & 0xff) as usize] as u32;
            let b1 = SBOX[((c[(j + 1) % 4] >> 8) & 0xff) as usize] as u32;
            let b2 = SBOX[((c[(j + 2) % 4] >> 16) & 0xff) as usize] as u32;
            let b3 = SBOX[(c[(j + 3) % 4] >> 24) as usize] as u32;
            let word = (b0 | (b1 << 8) | (b2 << 16) | (b3 << 24)) ^ self.rk[10][j];
            out[4 * j..4 * j + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook byte-wise round functions the T-table version
    /// replaced, kept as an independent reference for the equivalence
    /// test below.
    mod reference {
        use super::super::{xtime, Aes128, SBOX};

        fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
            for i in 0..16 {
                state[i] ^= rk[i];
            }
        }

        fn sub_bytes(state: &mut [u8; 16]) {
            for b in state.iter_mut() {
                *b = SBOX[*b as usize];
            }
        }

        // State layout is column-major: state[4*c + r] holds row r of
        // column c.
        fn shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[4 * c + r] = s[4 * ((c + r) % 4) + r];
                }
            }
        }

        fn mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col = &mut state[4 * c..4 * c + 4];
                let a = [col[0], col[1], col[2], col[3]];
                let t = a[0] ^ a[1] ^ a[2] ^ a[3];
                col[0] = a[0] ^ t ^ xtime(a[0] ^ a[1]);
                col[1] = a[1] ^ t ^ xtime(a[1] ^ a[2]);
                col[2] = a[2] ^ t ^ xtime(a[2] ^ a[3]);
                col[3] = a[3] ^ t ^ xtime(a[3] ^ a[0]);
            }
        }

        pub fn encrypt_block(aes: &Aes128, block: [u8; 16]) -> [u8; 16] {
            let round_keys: Vec<[u8; 16]> = aes
                .rk
                .iter()
                .map(|round| {
                    let mut k = [0u8; 16];
                    for (c, word) in round.iter().enumerate() {
                        k[4 * c..4 * c + 4].copy_from_slice(&word.to_le_bytes());
                    }
                    k
                })
                .collect();
            let mut state = block;
            add_round_key(&mut state, &round_keys[0]);
            for rk in &round_keys[1..10] {
                sub_bytes(&mut state);
                shift_rows(&mut state);
                mix_columns(&mut state);
                add_round_key(&mut state, rk);
            }
            sub_bytes(&mut state);
            shift_rows(&mut state);
            add_round_key(&mut state, &round_keys[10]);
            state
        }
    }

    #[test]
    fn ttable_matches_bytewise_reference() {
        // Deterministic pseudo-random keys/blocks via a simple LCG.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for _ in 0..64 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            key[..8].copy_from_slice(&next().to_le_bytes());
            key[8..].copy_from_slice(&next().to_le_bytes());
            block[..8].copy_from_slice(&next().to_le_bytes());
            block[8..].copy_from_slice(&next().to_le_bytes());
            let aes = Aes128::new(&key);
            assert_eq!(
                aes.encrypt_block(block),
                reference::encrypt_block(&aes, block),
                "key {key:02x?}, block {block:02x?}"
            );
        }
    }

    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(Aes128::new(&key).encrypt_block(pt), expect);
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(&key).encrypt_block(pt), expect);
    }

    #[test]
    fn deterministic() {
        let aes = Aes128::new(&[7u8; 16]);
        assert_eq!(aes.encrypt_block([1u8; 16]), aes.encrypt_block([1u8; 16]));
    }

    #[test]
    fn key_sensitivity() {
        let a = Aes128::new(&[0u8; 16]).encrypt_block([0u8; 16]);
        let mut k = [0u8; 16];
        k[15] = 1;
        let b = Aes128::new(&k).encrypt_block([0u8; 16]);
        assert_ne!(a, b);
    }

    #[test]
    fn plaintext_sensitivity() {
        let aes = Aes128::new(&[3u8; 16]);
        let mut p = [0u8; 16];
        let a = aes.encrypt_block(p);
        p[0] = 1;
        assert_ne!(a, aes.encrypt_block(p));
    }

    #[test]
    fn tiers_are_bit_identical() {
        use crate::tier::CryptoTier;
        // FIPS 197 Appendix B through both tiers, then random points.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        let c1_key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let c1_pt: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let c1_expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let c1 = Aes128::new(&c1_key);
        for tier in [CryptoTier::Portable, CryptoTier::Simd] {
            // Each vector in every lane of the four-block kernel.
            for lane in 0..4 {
                let mut blocks = [[0u8; 16]; 4];
                blocks[lane] = pt;
                assert_eq!(aes.encrypt4_with(tier, blocks)[lane], expect, "{tier}");
                blocks[lane] = c1_pt;
                assert_eq!(c1.encrypt4_with(tier, blocks)[lane], c1_expect, "{tier}");
            }
        }
        let mut x = 0xfeed_f00d_dead_beefu64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for _ in 0..64 {
            let key: [u8; 16] = core::array::from_fn(|_| next() as u8);
            let blocks: [[u8; 16]; 4] =
                core::array::from_fn(|_| core::array::from_fn(|_| next() as u8));
            let aes = Aes128::new(&key);
            let want = blocks.map(|b| aes.encrypt_block(b));
            assert_eq!(aes.encrypt4_with(CryptoTier::Portable, blocks), want);
            assert_eq!(aes.encrypt4_with(CryptoTier::Simd, blocks), want);
        }
    }
}
