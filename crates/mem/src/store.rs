//! Sparse functional backing store.
//!
//! The simulated NVM is 16 GB; materializing it is neither possible nor
//! useful. [`LineStore`] keeps only the lines that were ever written and
//! treats everything else as all-zeros — the conventional
//! "zero-initialized memory" assumption secure-memory papers make, and
//! the one the sparse Merkle tree in `ccnvm` relies on (untouched
//! subtrees hash to a per-level default).

use crate::addr::LineAddr;
use std::collections::HashMap;

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
    lines: HashMap<u64, Line>,
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

// Both delegate to `HashMap`, which reserves room for the iterator's
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

    #[test]
    fn collect_from_iterator() {
        let s: LineStore = (0..4u64).map(|i| (LineAddr(i), [i as u8; 64])).collect();
        assert_eq!(s.len(), 4);
        assert_eq!(s.read(LineAddr(3)), [3u8; 64]);
    }
}
