//! Sparse functional backing store.
//!
//! The simulated NVM is 16 GB; materializing it is neither possible nor
//! useful. [`LineStore`] keeps only the lines that were ever written and
//! treats everything else as all-zeros — the conventional
//! "zero-initialized memory" assumption secure-memory papers make, and
//! the one the sparse Merkle tree in `ccnvm` relies on (untouched
//! subtrees hash to a per-level default).
//!
//! It also defines [`LineHasher`], the one hasher for maps keyed by
//! line address ([`LineMap`], [`LineSet`]): the store itself, the
//! memory controller's per-line write-combining and wear map, and the
//! simulator's per-line bookkeeping.

use crate::addr::LineAddr;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for `u64` line addresses: one multiply and one rotate.
///
/// The key is multiplied by the 64-bit golden ratio, and the product
/// is rotated so that its upper bits, which every key bit below them
/// feeds, land in the low bits the table picks buckets from. A bare
/// multiply would keep the key's trailing zeros there: page-strided
/// data lines (`i·64`) would share 1/64 of the buckets. Rotated,
/// 4096 page-strided keys and 4096 consecutive counter-line keys each
/// fill at least 3/4 of the values of the low 12 bits.
///
/// It is deterministic and not HashDoS-resistant: whoever chooses the
/// addresses (say, a hostile `commit.log`) can make them collide and
/// slow a map down, but never make it fail. The simulator's own keys
/// come from its traces and its layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher(u64);

impl LineHasher {
    /// 2^64 / φ, the multiplier of Fibonacci hashing.
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    /// Moves product bits 19.. to the bottom.
    const ROTATE: u32 = 45;
}

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Keys are `u64`s, which take `write_u64`; other key types
        // still hash correctly, eight bytes at a time.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(Self::MUL);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(Self::ROTATE)
    }
}

/// Map keyed by a line address (`LineAddr.0`), hashed by [`LineHasher`].
pub type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// Set of line addresses (`LineAddr.0`), hashed by [`LineHasher`].
pub type LineSet = HashSet<u64, BuildHasherDefault<LineHasher>>;

/// One 64-byte line of real content.
pub type Line = [u8; 64];

/// A zero line, the content of any never-written address.
pub const ZERO_LINE: Line = [0u8; 64];

/// Sparse map from line address to content; absent lines read as zero.
///
/// # Example
///
/// ```
/// use ccnvm_mem::{LineStore, addr::LineAddr};
///
/// let mut store = LineStore::new();
/// assert_eq!(store.read(LineAddr(9)), [0u8; 64]);
/// store.write(LineAddr(9), [7u8; 64]);
/// assert_eq!(store.read(LineAddr(9))[0], 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LineStore {
    lines: LineMap<Line>,
}

impl LineStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the content of `line` (zeros if never written).
    pub fn read(&self, line: LineAddr) -> Line {
        self.lines.get(&line.0).copied().unwrap_or(ZERO_LINE)
    }

    /// Returns the content of `line` if it was ever written.
    pub fn get(&self, line: LineAddr) -> Option<&Line> {
        self.lines.get(&line.0)
    }

    /// Writes `content` to `line`.
    pub fn write(&mut self, line: LineAddr, content: Line) {
        self.lines.insert(line.0, content);
    }

    /// Removes `line`, restoring its content to zeros. Returns the old
    /// content if present.
    pub fn erase(&mut self, line: LineAddr) -> Option<Line> {
        self.lines.remove(&line.0)
    }

    /// Whether `line` was ever written.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines.contains_key(&line.0)
    }

    /// Number of materialized (ever-written) lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no line was ever written.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Iterates over the materialized lines in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &Line)> {
        self.lines.iter().map(|(&a, l)| (LineAddr(a), l))
    }

    /// Materialized line addresses, sorted ascending (for deterministic
    /// recovery walks).
    pub fn sorted_addrs(&self) -> Vec<LineAddr> {
        let mut v = Vec::new();
        self.sorted_addrs_into(&mut v);
        v
    }

    /// [`LineStore::sorted_addrs`] into caller-owned scratch (cleared
    /// first), so repeated walks reuse one allocation.
    pub fn sorted_addrs_into(&self, out: &mut Vec<LineAddr>) {
        out.clear();
        out.extend(self.lines.keys().copied().map(LineAddr));
        out.sort_unstable();
    }
}

// Both delegate to the map, which reserves room for the iterator's
// size hint before inserting.
impl FromIterator<(LineAddr, Line)> for LineStore {
    fn from_iter<T: IntoIterator<Item = (LineAddr, Line)>>(iter: T) -> Self {
        Self {
            lines: iter.into_iter().map(|(a, l)| (a.0, l)).collect(),
        }
    }
}

impl Extend<(LineAddr, Line)> for LineStore {
    fn extend<T: IntoIterator<Item = (LineAddr, Line)>>(&mut self, iter: T) {
        self.lines.extend(iter.into_iter().map(|(a, l)| (a.0, l)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_reads_zero() {
        let s = LineStore::new();
        assert_eq!(s.read(LineAddr(1_000_000)), ZERO_LINE);
        assert!(!s.contains(LineAddr(1_000_000)));
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = LineStore::new();
        let content: Line = core::array::from_fn(|i| i as u8);
        s.write(LineAddr(5), content);
        assert_eq!(s.read(LineAddr(5)), content);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn erase_restores_zero() {
        let mut s = LineStore::new();
        s.write(LineAddr(5), [1u8; 64]);
        assert_eq!(s.erase(LineAddr(5)), Some([1u8; 64]));
        assert_eq!(s.read(LineAddr(5)), ZERO_LINE);
        assert!(s.is_empty());
    }

    #[test]
    fn sorted_addrs_are_sorted() {
        let mut s = LineStore::new();
        for a in [9u64, 3, 7, 1] {
            s.write(LineAddr(a), [a as u8; 64]);
        }
        let addrs = s.sorted_addrs();
        assert_eq!(
            addrs,
            vec![LineAddr(1), LineAddr(3), LineAddr(7), LineAddr(9)]
        );
    }

    /// Distinct values among the low 12 bits of `finish()` over `keys`.
    fn low12_distinct(keys: impl Iterator<Item = u64>) -> usize {
        let mut seen = vec![false; 4096];
        for k in keys {
            let mut h = LineHasher::default();
            h.write_u64(k);
            seen[(h.finish() & 0xfff) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    #[test]
    fn line_hasher_spreads_strided_keys() {
        // Page-strided data lines, and consecutive counter lines at the
        // paper layout's counter base (16 GB / 64 B).
        let data = low12_distinct((0..4096u64).map(|i| i * 64));
        let counters = low12_distinct((0..4096u64).map(|i| (1 << 28) + i));
        assert!(data >= 3072, "page-strided keys fill {data}/4096");
        assert!(counters >= 3072, "consecutive keys fill {counters}/4096");
        // The unrotated product keeps the stride's trailing zeros.
        let bare = (0..4096u64)
            .map(|i| (i * 64).wrapping_mul(LineHasher::MUL) & 0xfff)
            .collect::<HashSet<_>>()
            .len();
        assert_eq!(bare, 64);
    }

    #[test]
    fn line_hasher_is_deterministic_and_byte_keys_agree() {
        let hash = |k: u64| {
            let mut h = LineHasher::default();
            h.write_u64(k);
            h.finish()
        };
        assert_eq!(hash(0x1234), hash(0x1234));
        assert_ne!(hash(0x1234), hash(0x1235));
        let mut bytes = LineHasher::default();
        bytes.write(&0x1234u64.to_le_bytes());
        assert_eq!(bytes.finish(), hash(0x1234));
    }

    #[test]
    fn collect_from_iterator() {
        let s: LineStore = (0..4u64).map(|i| (LineAddr(i), [i as u8; 64])).collect();
        assert_eq!(s.len(), 4);
        assert_eq!(s.read(LineAddr(3)), [3u8; 64]);
    }
}
