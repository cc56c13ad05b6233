//! Physical layout of the secure-NVM address space.
//!
//! The protected region is laid out as four areas (Figure 1 of the
//! paper):
//!
//! ```text
//! ┌────────────┬───────────────┬──────────────┬──────────────────┐
//! │ data       │ counters      │ data HMACs   │ Merkle-tree nodes│
//! │ (capacity) │ 1 line / 4 KB │ 4 MACs/line  │ level 1 .. top   │
//! └────────────┴───────────────┴──────────────┴──────────────────┘
//! ```
//!
//! * One 64-byte **counter line** serves a whole 4 KB data page
//!   (split counters: a major counter plus 64 per-line minors), so
//!   counters occupy `capacity / 64`-th of the data size.
//! * One 128-bit **data HMAC** per data line; four fit a 64-byte line.
//! * The **Bonsai Merkle Tree** is 4-ary because one 64-byte node holds
//!   four 128-bit children HMACs. Its leaves are the counter lines;
//!   level 1 is the first stored node level; the top level has a single
//!   node whose HMAC is the root, held in a TCB register, never in NVM.
//!
//! For the paper's 16 GB NVM there are 4 Mi counter lines and 11 stored
//! node levels; a write-back therefore touches 1 counter line + 11
//! internal nodes + the root register. (The paper's prose says "12
//! levels"; it counts the same path with the leaf and root grouped
//! slightly differently — the tree arity and counter geometry match.)

use ccnvm_mem::addr::{LineAddr, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};

/// Number of 128-bit MACs per 64-byte line (tree arity).
pub const MACS_PER_LINE: u64 = 4;

/// Upper bound on stored tree levels for any capacity. A 4-ary tree
/// over the counter lines of a full 2^64-byte region needs 26 stored
/// levels; 32 leaves slack while keeping [`TreePath`] small enough to
/// live on the stack of every write-back.
pub const MAX_TREE_LEVELS: usize = 32;

/// A counter-to-top walk as `(level, node_idx)` pairs, bottom-up —
/// returned by [`SecureLayout::path_of_counter`].
///
/// Tree depth is fixed at config time and tiny (11 levels for the
/// paper's 16 GB), so the path lives in a bounded inline array instead
/// of a heap `Vec`: the write-back hot loop walks one of these per
/// operation without allocating. Derefs to a slice, so indexing,
/// iteration and `len()` work as they did on the `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreePath {
    nodes: [(usize, u64); MAX_TREE_LEVELS],
    len: usize,
}

impl std::ops::Deref for TreePath {
    type Target = [(usize, u64)];

    fn deref(&self) -> &Self::Target {
        &self.nodes[..self.len]
    }
}

impl<'a> IntoIterator for &'a TreePath {
    type Item = &'a (usize, u64);
    type IntoIter = std::slice::Iter<'a, (usize, u64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Region/level geometry for a given NVM capacity.
///
/// # Example
///
/// ```
/// use ccnvm::layout::SecureLayout;
///
/// let layout = SecureLayout::new(16 << 30); // 16 GB
/// assert_eq!(layout.counter_lines(), 4 << 20); // 4 Mi counter lines
/// assert_eq!(layout.internal_levels(), 11);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureLayout {
    capacity_bytes: u64,
    data_lines: u64,
    counter_lines: u64,
    counter_base: u64,
    dh_base: u64,
    dh_lines: u64,
    /// `level_base[k]` / `level_count[k]` describe stored node level
    /// `k+1` (level 0, the counter lines, lives in the counter region).
    level_base: Vec<u64>,
    level_count: Vec<u64>,
}

impl SecureLayout {
    /// Computes the layout for a protected region of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is a positive multiple of the 4 KB
    /// page size.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        assert_eq!(
            capacity_bytes % PAGE_SIZE,
            0,
            "capacity must be a multiple of {PAGE_SIZE}"
        );
        let data_lines = capacity_bytes / LINE_SIZE;
        let counter_lines = capacity_bytes / PAGE_SIZE;
        let counter_base = data_lines;
        let dh_lines = data_lines.div_ceil(MACS_PER_LINE);
        let dh_base = counter_base + counter_lines;

        let mut level_base = Vec::with_capacity(MAX_TREE_LEVELS);
        let mut level_count = Vec::with_capacity(MAX_TREE_LEVELS);
        let mut next_base = dh_base + dh_lines;
        let mut nodes = counter_lines.div_ceil(MACS_PER_LINE);
        // Build levels until a single top node caps the tree. A
        // one-counter-line layout still gets one stored level so the
        // root register always covers a stored node.
        loop {
            level_base.push(next_base);
            level_count.push(nodes);
            next_base += nodes;
            if nodes == 1 {
                break;
            }
            nodes = nodes.div_ceil(MACS_PER_LINE);
        }
        assert!(
            level_base.len() <= MAX_TREE_LEVELS,
            "tree depth {} exceeds MAX_TREE_LEVELS",
            level_base.len()
        );

        Self {
            capacity_bytes,
            data_lines,
            counter_lines,
            counter_base,
            dh_base,
            dh_lines,
            level_base,
            level_count,
        }
    }

    /// Protected capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of data lines.
    pub fn data_lines(&self) -> u64 {
        self.data_lines
    }

    /// Number of counter lines (= 4 KB pages).
    pub fn counter_lines(&self) -> u64 {
        self.counter_lines
    }

    /// Number of stored Merkle-tree levels above the counters.
    pub fn internal_levels(&self) -> usize {
        self.level_base.len()
    }

    /// Nodes in stored level `level` (1-based: level 1 is the first
    /// level above the counter lines).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or above the top level.
    pub fn level_nodes(&self, level: usize) -> u64 {
        assert!(level >= 1, "level 0 is the counter region");
        self.level_count[level - 1]
    }

    /// Whether `line` lies in the data region.
    pub fn is_data_line(&self, line: LineAddr) -> bool {
        line.0 < self.data_lines
    }

    /// Whether `line` lies in the counter region.
    pub fn is_counter_line(&self, line: LineAddr) -> bool {
        (self.counter_base..self.counter_base + self.counter_lines).contains(&line.0)
    }

    /// Whether `line` lies in the packed data-HMAC region.
    pub fn is_dh_line(&self, line: LineAddr) -> bool {
        (self.dh_base..self.dh_base + self.dh_lines).contains(&line.0)
    }

    /// Whether `line` lies in the Merkle-tree node region.
    pub fn is_tree_line(&self, line: LineAddr) -> bool {
        let tree_base = self.level_base[0];
        let tree_end = *self.level_base.last().expect("at least one level") + 1;
        (tree_base..tree_end).contains(&line.0)
    }

    /// Counter line covering data line `data` (its 4 KB page).
    ///
    /// # Panics
    ///
    /// Panics if `data` is outside the data region.
    pub fn counter_line_of(&self, data: LineAddr) -> LineAddr {
        assert!(self.is_data_line(data), "{data} is not a data line");
        LineAddr(self.counter_base + data.0 / LINES_PER_PAGE)
    }

    /// Index of this counter line among counter lines (leaf index).
    ///
    /// # Panics
    ///
    /// Panics if `ctr` is outside the counter region.
    pub fn counter_index(&self, ctr: LineAddr) -> u64 {
        assert!(self.is_counter_line(ctr), "{ctr} is not a counter line");
        ctr.0 - self.counter_base
    }

    /// Counter line address for leaf index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn counter_line_at(&self, idx: u64) -> LineAddr {
        assert!(idx < self.counter_lines, "counter index {idx} out of range");
        LineAddr(self.counter_base + idx)
    }

    /// Line holding the data HMAC of `data`, and the byte offset of the
    /// 16-byte MAC within it.
    ///
    /// # Panics
    ///
    /// Panics if `data` is outside the data region.
    pub fn dh_slot_of(&self, data: LineAddr) -> (LineAddr, usize) {
        assert!(self.is_data_line(data), "{data} is not a data line");
        let line = LineAddr(self.dh_base + data.0 / MACS_PER_LINE);
        let offset = (data.0 % MACS_PER_LINE) as usize * 16;
        (line, offset)
    }

    /// Address of stored tree node `(level, idx)`; level 1 is directly
    /// above the counter lines.
    ///
    /// # Panics
    ///
    /// Panics if the level or index is out of range.
    pub fn node_line(&self, level: usize, idx: u64) -> LineAddr {
        assert!(
            (1..=self.internal_levels()).contains(&level),
            "level {level} out of range"
        );
        let count = self.level_count[level - 1];
        assert!(
            idx < count,
            "node index {idx} out of range at level {level}"
        );
        LineAddr(self.level_base[level - 1] + idx)
    }

    /// `(level, idx)` of a stored tree node address.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not in the tree region.
    pub fn node_of_line(&self, line: LineAddr) -> (usize, u64) {
        // The levels lie back to back in ascending address order, so
        // the level holding `line` is the last one based at or below it.
        let above = self.level_base.partition_point(|&base| base <= line.0);
        if let Some(k) = above.checked_sub(1) {
            let idx = line.0 - self.level_base[k];
            if idx < self.level_count[k] {
                return (k + 1, idx);
            }
        }
        panic!("{line} is not a Merkle-tree node line");
    }

    /// `(level, idx)` of a counter line (level 0) or a stored tree node.
    ///
    /// # Panics
    ///
    /// Panics if `line` is neither a counter nor a tree line.
    pub(crate) fn level_of(&self, line: LineAddr) -> (usize, u64) {
        if self.is_counter_line(line) {
            (0, self.counter_index(line))
        } else {
            self.node_of_line(line)
        }
    }

    /// The path of stored tree nodes from (above) counter-leaf `idx` to
    /// the top node, as `(level, node_idx)` pairs, bottom-up.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn path_of_counter(&self, idx: u64) -> TreePath {
        assert!(idx < self.counter_lines, "counter index {idx} out of range");
        let mut nodes = [(0usize, 0u64); MAX_TREE_LEVELS];
        let mut child = idx;
        for level in 1..=self.internal_levels() {
            let node = child / MACS_PER_LINE;
            nodes[level - 1] = (level, node);
            child = node;
        }
        TreePath {
            nodes,
            len: self.internal_levels(),
        }
    }

    /// Total lines a write-back dirties on its tree path (counter +
    /// internal nodes) — the dirty-address-queue reservation size.
    pub fn path_lines(&self) -> usize {
        1 + self.internal_levels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_gb_geometry() {
        let l = SecureLayout::new(16 << 30);
        assert_eq!(l.data_lines(), 256 << 20);
        assert_eq!(l.counter_lines(), 4 << 20);
        // 4 Mi leaves -> 1Mi, 256Ki, ..., 4, 1 = 11 stored levels.
        assert_eq!(l.internal_levels(), 11);
        assert_eq!(l.level_nodes(1), 1 << 20);
        assert_eq!(l.level_nodes(11), 1);
        // Counter + 11 internal nodes on every write-back path.
        assert_eq!(l.path_lines(), 12);
    }

    #[test]
    fn small_geometry() {
        // 1 MB: 16 Ki data lines, 256 counter lines, levels 64,16,4,1.
        let l = SecureLayout::new(1 << 20);
        assert_eq!(l.counter_lines(), 256);
        assert_eq!(l.internal_levels(), 4);
        assert_eq!(l.level_nodes(1), 64);
        assert_eq!(l.level_nodes(4), 1);
    }

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let l = SecureLayout::new(1 << 20);
        let data_end = l.data_lines();
        let ctr = l.counter_line_of(LineAddr(0));
        assert!(ctr.0 >= data_end);
        let (dh, _) = l.dh_slot_of(LineAddr(0));
        assert!(dh.0 > ctr.0);
        let node = l.node_line(1, 0);
        assert!(node.0 > dh.0);
        assert!(l.is_counter_line(ctr));
        assert!(!l.is_data_line(ctr));
        assert!(l.is_tree_line(node));
        assert!(!l.is_tree_line(dh));
    }

    #[test]
    fn counter_mapping() {
        let l = SecureLayout::new(1 << 20);
        // Lines 0..63 share page 0's counter line; line 64 starts page 1.
        assert_eq!(
            l.counter_line_of(LineAddr(0)),
            l.counter_line_of(LineAddr(63))
        );
        assert_ne!(
            l.counter_line_of(LineAddr(63)),
            l.counter_line_of(LineAddr(64))
        );
        let ctr = l.counter_line_of(LineAddr(64));
        assert_eq!(l.counter_index(ctr), 1);
        assert_eq!(l.counter_line_at(1), ctr);
    }

    #[test]
    fn dh_slots() {
        let l = SecureLayout::new(1 << 20);
        let (line0, off0) = l.dh_slot_of(LineAddr(0));
        let (line3, off3) = l.dh_slot_of(LineAddr(3));
        let (line4, _) = l.dh_slot_of(LineAddr(4));
        assert_eq!(line0, line3);
        assert_eq!(off0, 0);
        assert_eq!(off3, 48);
        assert_eq!(line4.0, line0.0 + 1);
    }

    #[test]
    fn path_walks_to_single_top_node() {
        let l = SecureLayout::new(1 << 20);
        let path = l.path_of_counter(255);
        assert_eq!(path.len(), 4);
        assert_eq!(path[0], (1, 63));
        assert_eq!(path[3], (4, 0));
        // Neighbouring counters share their level-1 parent.
        assert_eq!(l.path_of_counter(252)[0], (1, 63));
    }

    #[test]
    fn tree_path_is_copy_and_slice_like() {
        let l = SecureLayout::new(1 << 20);
        let path = l.path_of_counter(0);
        assert_eq!(path.len(), l.internal_levels());
        let copy = path; // Copy: stack-only, no heap path storage
        let collected: Vec<(usize, u64)> = copy.iter().copied().collect();
        assert_eq!(&collected[..], &*path);
        assert!(path.iter().all(|&(lvl, idx)| idx < l.level_nodes(lvl)));
    }

    #[test]
    fn node_line_roundtrip() {
        let l = SecureLayout::new(1 << 20);
        for (level, idx) in [(1usize, 0u64), (1, 63), (2, 7), (4, 0)] {
            let line = l.node_line(level, idx);
            assert_eq!(l.node_of_line(line), (level, idx));
        }
    }

    #[test]
    fn node_of_line_finds_every_node() {
        let l = SecureLayout::new(1 << 20);
        for level in 1..=l.internal_levels() {
            for idx in 0..l.level_nodes(level) {
                assert_eq!(l.node_of_line(l.node_line(level, idx)), (level, idx));
            }
        }
        let l = SecureLayout::new(16 << 30);
        for level in 1..=l.internal_levels() {
            let last = l.level_nodes(level) - 1;
            for idx in [0, last / 2, last] {
                assert_eq!(l.node_of_line(l.node_line(level, idx)), (level, idx));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a Merkle-tree node line")]
    fn node_of_line_rejects_the_line_below_the_tree() {
        let l = SecureLayout::new(1 << 20);
        l.node_of_line(LineAddr(l.node_line(1, 0).0 - 1));
    }

    #[test]
    #[should_panic(expected = "not a Merkle-tree node line")]
    fn node_of_line_rejects_the_line_past_the_top() {
        let l = SecureLayout::new(1 << 20);
        l.node_of_line(LineAddr(l.node_line(l.internal_levels(), 0).0 + 1));
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_unaligned_capacity() {
        SecureLayout::new(4096 + 64);
    }

    #[test]
    #[should_panic(expected = "not a data line")]
    fn counter_of_non_data_panics() {
        let l = SecureLayout::new(1 << 20);
        l.counter_line_of(LineAddr(l.data_lines()));
    }
}
