//! Split-counter encoding.
//!
//! Following the standard split-counter organization the paper builds
//! on (Yan et al., ISCA'06), one 64-byte counter line serves a 4 KB
//! page: a 64-bit **major** counter shared by the page plus 64
//! per-line 7-bit **minor** counters, packed into exactly 64 bytes
//! (8 + 64×7/8 = 64).
//!
//! The encryption seed of a data line combines its address, the major
//! and its minor (see `ccnvm_crypto::otp`). A write-back increments the
//! minor; on overflow the major increments, every minor resets, and the
//! whole page must be re-encrypted — a rare but accounted event.

use ccnvm_mem::addr::LINES_PER_PAGE;
use ccnvm_mem::Line;

/// Highest value a 7-bit minor counter can hold.
pub const MINOR_MAX: u8 = 127;

/// Decoded split-counter line: one major and 64 minors.
///
/// # Example
///
/// ```
/// use ccnvm::counter::CounterLine;
///
/// let mut ctr = CounterLine::default();
/// assert!(!ctr.bump(5));
/// assert_eq!(ctr.minor(5), 1);
/// let encoded = ctr.encode();
/// assert_eq!(CounterLine::decode(&encoded), ctr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterLine {
    major: u64,
    minors: [u8; LINES_PER_PAGE as usize],
}

impl Default for CounterLine {
    fn default() -> Self {
        Self {
            major: 0,
            minors: [0; LINES_PER_PAGE as usize],
        }
    }
}

impl CounterLine {
    /// Creates the all-zero counter line (never-written page).
    pub fn new() -> Self {
        Self::default()
    }

    /// The page's major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// Minor counter of the line at `page_offset` (0..64).
    ///
    /// # Panics
    ///
    /// Panics if `page_offset` is 64 or more.
    pub fn minor(&self, page_offset: usize) -> u8 {
        self.minors[page_offset]
    }

    /// `(major, minor)` pair used as the encryption seed of the line at
    /// `page_offset`.
    ///
    /// # Panics
    ///
    /// Panics if `page_offset` is 64 or more.
    pub fn seed(&self, page_offset: usize) -> (u64, u8) {
        (self.major, self.minors[page_offset])
    }

    /// Whether this line has never counted a write (fresh page).
    pub fn is_zero(&self) -> bool {
        self.major == 0 && self.minors.iter().all(|&m| m == 0)
    }

    /// Increments the minor of `page_offset` for a write-back.
    ///
    /// Returns `true` if the minor overflowed: the major was bumped,
    /// all minors reset, and the caller must re-encrypt the entire page
    /// under the new major.
    ///
    /// # Panics
    ///
    /// Panics if `page_offset` is 64 or more.
    pub fn bump(&mut self, page_offset: usize) -> bool {
        if self.minors[page_offset] == MINOR_MAX {
            self.major += 1;
            self.minors = [0; LINES_PER_PAGE as usize];
            // The written line starts at 1 under the new major so its pad
            // differs from the page's untouched lines.
            self.minors[page_offset] = 1;
            true
        } else {
            self.minors[page_offset] += 1;
            false
        }
    }

    /// Directly sets the minor of `page_offset` (recovery rebuilds
    /// counters this way).
    ///
    /// # Panics
    ///
    /// Panics if `page_offset` is 64 or more, or `value` exceeds
    /// [`MINOR_MAX`].
    pub fn set_minor(&mut self, page_offset: usize, value: u8) {
        assert!(value <= MINOR_MAX, "minor {value} exceeds 7 bits");
        self.minors[page_offset] = value;
    }

    /// Packs into the 64-byte NVM representation: 8-byte little-endian
    /// major followed by 64 seven-bit minors, minor `i` at bit `7·i`
    /// of bytes 8.. (little-endian bit order).
    ///
    /// Eight minors fill 56 bits, so each group of eight is one 7-byte
    /// little-endian word: group `g` occupies bytes `8 + 7·g ..
    /// 15 + 7·g`.
    pub fn encode(&self) -> Line {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        for (g, minors) in self.minors.chunks_exact(MINORS_PER_WORD).enumerate() {
            let word = minors
                .iter()
                .enumerate()
                .fold(0u64, |w, (j, &m)| w | u64::from(m & MINOR_MAX) << (7 * j));
            out[8 + 7 * g..15 + 7 * g].copy_from_slice(&word.to_le_bytes()[..7]);
        }
        out
    }

    /// Unpacks from the 64-byte NVM representation.
    pub fn decode(line: &Line) -> Self {
        let mut minors = [0u8; LINES_PER_PAGE as usize];
        for (g, group) in minors.chunks_exact_mut(MINORS_PER_WORD).enumerate() {
            let word = minor_word(line, g);
            for (j, m) in group.iter_mut().enumerate() {
                *m = (word >> (7 * j)) as u8 & MINOR_MAX;
            }
        }
        Self {
            major: major_of(line),
            minors,
        }
    }

    /// The `(major, minor)` seed of the line at `page_offset`, read
    /// straight from an encoded counter line: the same pair as
    /// `CounterLine::decode(line).seed(page_offset)`, without
    /// unpacking the other 63 minors.
    ///
    /// # Panics
    ///
    /// Panics if `page_offset` is 64 or more.
    pub fn seed_of(line: &Line, page_offset: usize) -> (u64, u8) {
        assert!(
            page_offset < LINES_PER_PAGE as usize,
            "page offset {page_offset} out of range"
        );
        let word = minor_word(line, page_offset / MINORS_PER_WORD);
        let minor = (word >> (7 * (page_offset % MINORS_PER_WORD))) as u8 & MINOR_MAX;
        (major_of(line), minor)
    }
}

/// Minors packed into one 56-bit word of the encoding.
const MINORS_PER_WORD: usize = 8;

fn major_of(line: &Line) -> u64 {
    u64::from_le_bytes(line[..8].try_into().expect("8 bytes"))
}

/// The 56-bit word holding minors `8·g .. 8·g + 8`: bytes `8 + 7·g ..
/// 15 + 7·g`, read as the top seven bytes of the 8-byte load that ends
/// there (which stays inside the line for every `g` up to 7).
fn minor_word(line: &Line, g: usize) -> u64 {
    let at = 7 + 7 * g;
    u64::from_le_bytes(line[at..at + 8].try_into().expect("8 bytes")) >> 8
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-by-bit packing the word-wise codec must reproduce: minor
    /// `i` at bit `7·i` of bytes 8.., split across two bytes when it
    /// straddles one.
    fn encode_bitwise(ctr: &CounterLine) -> Line {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&ctr.major.to_le_bytes());
        for (i, &m) in ctr.minors.iter().enumerate() {
            let bit = i * 7;
            let byte = 8 + bit / 8;
            let shift = bit % 8;
            out[byte] |= (m & 0x7f) << shift;
            if shift > 1 {
                out[byte + 1] |= (m & 0x7f) >> (8 - shift);
            }
        }
        out
    }

    fn decode_bitwise(line: &Line) -> CounterLine {
        let major = u64::from_le_bytes(line[..8].try_into().expect("8 bytes"));
        let mut minors = [0u8; LINES_PER_PAGE as usize];
        for (i, m) in minors.iter_mut().enumerate() {
            let bit = i * 7;
            let byte = 8 + bit / 8;
            let shift = bit % 8;
            let mut v = (line[byte] >> shift) as u16;
            if shift > 1 {
                v |= (line[byte + 1] as u16) << (8 - shift);
            }
            *m = (v & 0x7f) as u8;
        }
        CounterLine { major, minors }
    }

    /// Asserts that the codec and the single-minor read agree with the
    /// bitwise oracle on `ctr`, and on an arbitrary `line` of bytes.
    fn assert_matches_oracle(ctr: &CounterLine, line: &Line) {
        let encoded = ctr.encode();
        assert_eq!(encoded, encode_bitwise(ctr), "encode of {ctr:?}");
        assert_eq!(CounterLine::decode(&encoded), *ctr);
        let oracle = decode_bitwise(line);
        assert_eq!(CounterLine::decode(line), oracle, "decode of {line:?}");
        for off in 0..LINES_PER_PAGE as usize {
            assert_eq!(CounterLine::seed_of(&encoded, off), ctr.seed(off));
            assert_eq!(CounterLine::seed_of(line, off), oracle.seed(off));
        }
    }

    #[test]
    fn word_codec_matches_bitwise_oracle() {
        let mut rng = ccnvm_rng::Rng::seed_from_u64(0xC0DEC);
        for round in 0..256 {
            let mut ctr = CounterLine::new();
            ctr.major = match round % 4 {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64(),
            };
            for off in 0..LINES_PER_PAGE as usize {
                // Draw the extremes often; the loop below pins each alone.
                let m = match rng.gen_range(0u8..4) {
                    0 => 0,
                    1 => MINOR_MAX,
                    _ => rng.gen_range(0u8..=MINOR_MAX),
                };
                ctr.set_minor(off, m);
            }
            let line: Line = rng.gen_array();
            assert_matches_oracle(&ctr, &line);
        }
        // Each offset alone at 127 and everything else 0, under both
        // extreme majors: catches a field that bleeds into a neighbour.
        for major in [0, u64::MAX] {
            for off in 0..LINES_PER_PAGE as usize {
                let mut ctr = CounterLine::new();
                ctr.major = major;
                ctr.set_minor(off, MINOR_MAX);
                assert_matches_oracle(&ctr, &[0xff; 64]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn seed_of_rejects_offsets_past_the_page() {
        CounterLine::seed_of(&[0u8; 64], 64);
    }

    #[test]
    fn fresh_line_is_zero() {
        assert!(CounterLine::new().is_zero());
        assert_eq!(CounterLine::new().encode(), [0u8; 64]);
    }

    #[test]
    fn bump_increments_one_minor() {
        let mut c = CounterLine::new();
        assert!(!c.bump(3));
        assert!(!c.bump(3));
        assert_eq!(c.minor(3), 2);
        assert_eq!(c.minor(2), 0);
        assert_eq!(c.major(), 0);
        assert!(!c.is_zero());
    }

    #[test]
    fn minor_overflow_bumps_major_and_resets() {
        let mut c = CounterLine::new();
        c.set_minor(0, MINOR_MAX);
        c.set_minor(1, 50);
        assert!(c.bump(0));
        assert_eq!(c.major(), 1);
        assert_eq!(c.minor(0), 1);
        assert_eq!(c.minor(1), 0);
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive_offsets() {
        let mut c = CounterLine::new();
        for i in 0..64 {
            c.set_minor(i, ((i * 13 + 7) % 128) as u8);
        }
        for major in [0u64, 1, u64::MAX / 2, u64::MAX] {
            let mut c2 = c;
            c2.major = major;
            assert_eq!(CounterLine::decode(&c2.encode()), c2);
        }
    }

    #[test]
    fn encode_uses_all_64_bytes() {
        let mut c = CounterLine::new();
        c.set_minor(63, MINOR_MAX);
        let enc = c.encode();
        assert_ne!(enc[63], 0, "last minor must land in the last byte");
    }

    #[test]
    fn distinct_minors_distinct_encodings() {
        let mut a = CounterLine::new();
        let mut b = CounterLine::new();
        a.set_minor(10, 1);
        b.set_minor(11, 1);
        assert_ne!(a.encode(), b.encode());
    }

    #[test]
    fn seed_pairs() {
        let mut c = CounterLine::new();
        c.bump(9);
        assert_eq!(c.seed(9), (0, 1));
        assert_eq!(c.seed(8), (0, 0));
    }

    #[test]
    #[should_panic(expected = "7 bits")]
    fn set_minor_rejects_wide_values() {
        CounterLine::new().set_minor(0, 128);
    }
}
