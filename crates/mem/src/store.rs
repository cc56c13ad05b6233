//! Sparse functional backing store.
//!
//! The simulated NVM is 16 GB; materializing it is neither possible nor
//! useful. [`LineStore`] keeps only the lines that were ever written and
//! treats everything else as all-zeros — the conventional
//! "zero-initialized memory" assumption secure-memory papers make, and
//! the one the sparse Merkle tree in `ccnvm` relies on (untouched
//! subtrees hash to a per-level default). It keeps their contents in
//! fixed 32 KiB slabs behind an index of slot numbers, so growing it
//! never moves a line and cloning it copies one block per slab.
//!
//! It also defines [`LineHasher`], the one hasher for maps keyed by
//! line address ([`LineMap`], [`LineSet`]): the store itself, the
//! memory controller's per-line write-combining and wear map, and the
//! simulator's per-line bookkeeping.

use crate::addr::LineAddr;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
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

/// Lines per slab: 32 KiB of content per allocation, which a store of a
/// handful of lines (an overlay, say) pays in full. Large enough that
/// cloning a recovery image takes few allocations:
/// `tests/hot_path_allocs.rs` bounds a recovery pass, and 64-line slabs
/// broke that bound.
const SLAB_LINES: usize = 512;

/// One slab of line slots.
type Slab = [Line; SLAB_LINES];

/// Sparse map from line address to content; absent lines read as zero.
///
/// An index maps each stored line's address to a slot, and the slots
/// live in slabs of 512 lines (32 KiB), allocated as the store fills.
/// A write probes the index once and copies 64 bytes into its slot; an
/// erase frees the slot for the next new line. Growth rehashes the
/// 16-byte index entries and never moves a line, and a clone copies
/// the index plus one block per slab.
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
#[derive(Clone, Default)]
pub struct LineStore {
    /// Line address → slot.
    index: LineMap<u32>,
    /// The slots the index points into.
    slots: Slots,
}

/// Line slots in fixed slabs: slot `s` is line `s % SLAB_LINES` of
/// slab `s / SLAB_LINES`.
#[derive(Clone, Default)]
struct Slots {
    slabs: Vec<Box<Slab>>,
    /// Slots handed out so far; those below it not in use are in `free`.
    used: u32,
    /// Erased slots, reused before fresh ones.
    free: Vec<u32>,
}

impl Slots {
    /// A slot for a new line: an erased one, else the next fresh one,
    /// allocating its slab when it starts one.
    fn take(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.used;
        if slot as usize == self.slabs.len() * SLAB_LINES {
            self.slabs.push(Box::new([ZERO_LINE; SLAB_LINES]));
        }
        self.used = slot
            .checked_add(1)
            .expect("a line store holds under 2^32 lines");
        slot
    }

    fn get(&self, slot: u32) -> &Line {
        let slot = slot as usize;
        &self.slabs[slot / SLAB_LINES][slot % SLAB_LINES]
    }

    fn get_mut(&mut self, slot: u32) -> &mut Line {
        let slot = slot as usize;
        &mut self.slabs[slot / SLAB_LINES][slot % SLAB_LINES]
    }
}

impl LineStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the content of `line` (zeros if never written).
    pub fn read(&self, line: LineAddr) -> Line {
        self.get(line).copied().unwrap_or(ZERO_LINE)
    }

    /// Returns the content of `line` if it was ever written.
    pub fn get(&self, line: LineAddr) -> Option<&Line> {
        self.index.get(&line.0).map(|&slot| self.slots.get(slot))
    }

    /// Writes `content` to `line`.
    pub fn write(&mut self, line: LineAddr, content: Line) {
        let slot = match self.index.entry(line.0) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => *e.insert(self.slots.take()),
        };
        *self.slots.get_mut(slot) = content;
    }

    /// Removes `line`, restoring its content to zeros. Returns the old
    /// content if present.
    pub fn erase(&mut self, line: LineAddr) -> Option<Line> {
        let slot = self.index.remove(&line.0)?;
        self.slots.free.push(slot);
        Some(*self.slots.get(slot))
    }

    /// Whether `line` was ever written.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.index.contains_key(&line.0)
    }

    /// Number of materialized (ever-written) lines.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no line was ever written.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterates over the materialized lines in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &Line)> {
        self.index
            .iter()
            .map(|(&a, &slot)| (LineAddr(a), self.slots.get(slot)))
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
        out.extend(self.index.keys().copied().map(LineAddr));
        out.sort_unstable();
    }
}

/// The stored lines in address order, not the slabs.
impl fmt::Debug for LineStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.sorted_addrs().into_iter().map(|a| (a, self.read(a))))
            .finish()
    }
}

impl FromIterator<(LineAddr, Line)> for LineStore {
    fn from_iter<T: IntoIterator<Item = (LineAddr, Line)>>(iter: T) -> Self {
        let mut store = Self::new();
        store.extend(iter);
        store
    }
}

impl Extend<(LineAddr, Line)> for LineStore {
    /// Reserves index room for the iterator's size hint first, all of
    /// it into an empty store and half of it otherwise (some lines may
    /// already be stored), as the standard map does.
    fn extend<T: IntoIterator<Item = (LineAddr, Line)>>(&mut self, iter: T) {
        let iter = iter.into_iter();
        let hint = iter.size_hint().0;
        self.index.reserve(if self.is_empty() {
            hint
        } else {
            hint.div_ceil(2)
        });
        for (line, content) in iter {
            self.write(line, content);
        }
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
