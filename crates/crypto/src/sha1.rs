//! SHA-1 (FIPS 180-4) implemented from scratch.
//!
//! SHA-1 is cryptographically broken for collision resistance, but the
//! cc-NVM paper — following the Bonsai Merkle Tree line of work — models
//! its HMAC engine on SHA-1 with an 80-cycle latency, so we reproduce
//! it faithfully. The simulator only relies on HMAC-SHA1, for which no
//! practical forgery is known; regardless, this crate is a simulation
//! artifact, not a production TCB.

/// Incremental SHA-1 hasher.
///
/// # Example
///
/// ```
/// use ccnvm_crypto::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[..4], [0xa9, 0x99, 0x3e, 0x36]);
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial SHA-1 state.
    pub fn new() -> Self {
        Self {
            state: [
                0x6745_2301,
                0xefcd_ab89,
                0x98ba_dcfe,
                0x1032_5476,
                0xc3d2_e1f0,
            ],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            let block: &[u8; 64] = block.try_into().expect("split_at(64) prefix");
            self.compress(block);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length — built directly
        // in a block buffer rather than fed through `update` a byte at a
        // time, since every HMAC pays for two finalizes.
        let mut block = [0u8; 64];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] = 0x80;
        if self.buf_len >= 56 {
            // No room for the length suffix; it goes in a second block.
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience: digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Captures the compression state after an exact multiple of
    /// 64-byte blocks — a *midstate* that further compressions can
    /// resume from without re-compressing the absorbed prefix. The
    /// keyed HMAC engine uses this to pay the ipad/opad block
    /// compressions once per key instead of once per MAC.
    ///
    /// # Panics
    ///
    /// Panics if bytes are buffered (the absorbed length is not a
    /// multiple of 64).
    pub fn midstate(&self) -> [u32; 5] {
        assert_eq!(
            self.buf_len, 0,
            "midstate requires a block-aligned absorbed length"
        );
        self.state
    }

    /// One compression round applied to `state`, returning the new
    /// state. This is the raw FIPS 180-4 block function; callers are
    /// responsible for padding. The keyed HMAC engine pads its own
    /// blocks and compresses them through this function on the
    /// portable tier (SHA-NI replaces it on the `simd` tier).
    pub(crate) fn compress_block(mut state: [u32; 5], block: &[u8; 64]) -> [u32; 5] {
        compress(&mut state, block);
        state
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress(&mut self.state, block);
    }
}

/// The SHA-1 block compression function (FIPS 180-4 §6.1.2).
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5a82_7999),
            20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
            _ => (b ^ c ^ d, 0xca62_c1d6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let mut h = Sha1::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha1::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha1::digest(b"counter-0"), Sha1::digest(b"counter-1"));
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn midstate_rejects_partial_blocks() {
        let mut h = Sha1::new();
        h.update(&[0u8; 65]);
        h.midstate();
    }
}
