//! The sparse Bonsai Merkle Tree (BMT).
//!
//! The tree authenticates the encryption counters (its leaves are the
//! counter lines); data itself is protected transitively through the
//! data HMACs, which take the tree-protected counter as input — the
//! Bonsai construction of Rogers et al. that the paper adopts.
//!
//! The simulated NVM is 16 GB, so the 4 Mi-leaf tree is kept *sparse*:
//! a node that was never written holds a deterministic per-level
//! default value (the hash chain of the all-zero memory), computed once
//! at construction. This gives exact functional semantics — the root
//! over a fresh memory is well-defined, and recomputing the root from
//! scratch after any update sequence matches the incrementally
//! maintained root — without materializing millions of lines.

use crate::engine::CryptoEngine;
use crate::layout::{SecureLayout, MACS_PER_LINE};
use crate::view::{MetaSource, MetaView};
use ccnvm_crypto::Mac128;
use ccnvm_mem::{Line, LineAddr, LineStore};

/// Reusable working storage for [`Bmt::rebuild_with`], owned by the
/// caller so repeated rebuilds reuse the same two buffers instead of
/// reallocating the level slices every pass.
#[derive(Debug, Default)]
pub struct RebuildScratch {
    /// Sorted `(node idx, content)` slice of the level being consumed.
    current: Vec<(u64, Line)>,
    /// The level being produced (swapped with `current` per level).
    parents: Vec<(u64, Line)>,
}

/// A parent/child HMAC mismatch found while verifying the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeMismatch {
    /// Level of the child whose HMAC does not match its parent's slot
    /// (0 = a counter line).
    pub child_level: usize,
    /// Index of the child within its level.
    pub child_index: u64,
}

/// Sparse Bonsai Merkle Tree operations over a [`SecureLayout`].
///
/// # Example
///
/// ```
/// use ccnvm::{bmt::Bmt, engine::CryptoEngine, layout::SecureLayout, tcb::Keys};
/// use ccnvm_mem::LineStore;
///
/// let layout = SecureLayout::new(1 << 20);
/// let bmt = Bmt::new(layout, CryptoEngine::new(&Keys::from_seed(0)));
/// let store = LineStore::new();
/// // The root of an untouched memory is the deterministic default root.
/// assert_eq!(bmt.root(&store), bmt.default_root());
/// ```
#[derive(Debug, Clone)]
pub struct Bmt {
    layout: SecureLayout,
    engine: CryptoEngine,
    /// `default_nodes[k]` is the content of an untouched line at level
    /// `k`: the all-zero counter line at level 0, then one node per
    /// stored level up to the top.
    default_nodes: Vec<Line>,
    default_root: Mac128,
}

impl Bmt {
    /// Builds the tree helper, precomputing per-level default nodes.
    pub fn new(layout: SecureLayout, engine: CryptoEngine) -> Self {
        let levels = layout.internal_levels();
        let mut default_nodes = Vec::with_capacity(levels + 1);
        let mut child_content = [0u8; 64]; // level 0: all-zero counter line
        default_nodes.push(child_content);
        for level in 1..=levels {
            let mut node = [0u8; 64];
            for pos in 0..MACS_PER_LINE as u8 {
                let mac = engine.node_mac(level - 1, pos, &child_content);
                node[pos as usize * 16..pos as usize * 16 + 16].copy_from_slice(&mac);
            }
            default_nodes.push(node);
            child_content = node;
        }
        let default_root = engine.node_mac(levels, 0, &child_content);
        Self {
            layout,
            engine,
            default_nodes,
            default_root,
        }
    }

    /// The layout this tree spans.
    pub fn layout(&self) -> &SecureLayout {
        &self.layout
    }

    /// The engine used for node HMACs.
    pub fn engine(&self) -> &CryptoEngine {
        &self.engine
    }

    /// Root of the all-zero memory.
    pub fn default_root(&self) -> Mac128 {
        self.default_root
    }

    /// Default content of a node at stored `level` (1-based); level 0
    /// (a counter line) defaults to all zeros.
    pub fn default_node(&self, level: usize) -> Line {
        self.default_nodes[level]
    }

    /// The MAC of an untouched line `(level, idx)`, from the default
    /// tree (see [`Bmt::link_mac`]).
    fn default_mac(&self, level: usize, idx: u64) -> Mac128 {
        match self.default_nodes.get(level + 1) {
            Some(parent) => Self::slot(parent, idx),
            None => self.default_root,
        }
    }

    /// The MAC that authenticates line `(level, idx)` holding
    /// `content` — its parent's slot, or the root for the top node.
    /// When `content` is its level's default, that MAC is a slot of the
    /// parent level's default node (the default root for the top node),
    /// which [`Bmt::new`] already computed from exactly this input, so
    /// it is read from there instead of hashed. For fetch verification,
    /// where never-written metadata is common; the update paths write
    /// non-default content and compute directly.
    pub(crate) fn link_mac(&self, level: usize, idx: u64, content: &Line) -> Mac128 {
        if *content == self.default_nodes[level] {
            self.default_mac(level, idx)
        } else if level == self.layout.internal_levels() {
            self.engine.node_mac(level, 0, content)
        } else {
            self.child_mac(level, idx, content)
        }
    }

    /// Content of node `(level, idx)` in `src` (level 0 reads the
    /// counter line), falling back to the level default.
    pub fn read_node<S: MetaSource>(&self, src: &S, level: usize, idx: u64) -> Line {
        let line = if level == 0 {
            self.layout.counter_line_at(idx)
        } else {
            self.layout.node_line(level, idx)
        };
        src.load_meta(line)
            .unwrap_or_else(|| self.default_node(level))
    }

    /// HMAC of the child `(level, idx)` with `content`, as its parent
    /// stores it.
    pub fn child_mac(&self, level: usize, idx: u64, content: &Line) -> Mac128 {
        self.engine
            .node_mac(level, (idx % MACS_PER_LINE) as u8, content)
    }

    /// The 16-byte slot for child index `child_idx` within its parent's
    /// content.
    pub fn slot(parent_content: &Line, child_idx: u64) -> Mac128 {
        let off = (child_idx % MACS_PER_LINE) as usize * 16;
        let mut mac = [0u8; 16];
        mac.copy_from_slice(&parent_content[off..off + 16]);
        mac
    }

    fn patch_slot(parent_content: &mut Line, child_idx: u64, mac: &Mac128) {
        let off = (child_idx % MACS_PER_LINE) as usize * 16;
        parent_content[off..off + 16].copy_from_slice(mac);
    }

    /// Recomputes every node on the path above counter-leaf `ctr_idx`
    /// in `view`, returning the new root and the number of HMACs
    /// computed. This is the "update till the root" step that SC,
    /// Osiris Plus and cc-NVM w/o DS pay on every write-back.
    pub fn update_path<V: MetaView>(&self, view: &mut V, ctr_idx: u64) -> (Mac128, usize) {
        let mut hmacs = 0;
        let mut child_idx = ctr_idx;
        let mut child_content = self.read_node(view, 0, ctr_idx);
        for level in 1..=self.layout.internal_levels() {
            let mac = self.child_mac(level - 1, child_idx, &child_content);
            hmacs += 1;
            let node_idx = child_idx / MACS_PER_LINE;
            let mut node = self.read_node(view, level, node_idx);
            Self::patch_slot(&mut node, child_idx, &mac);
            view.store_meta(self.layout.node_line(level, node_idx), node);
            child_idx = node_idx;
            child_content = node;
        }
        let root = self
            .engine
            .node_mac(self.layout.internal_levels(), 0, &child_content);
        hmacs += 1;
        (root, hmacs)
    }

    /// Root over the tree as stored in `src`.
    pub fn root<S: MetaSource>(&self, src: &S) -> Mac128 {
        let top = self.layout.internal_levels();
        let content = self.read_node(src, top, 0);
        self.engine.node_mac(top, 0, &content)
    }

    /// Verifies the single link from child `(level, idx)` to its parent
    /// slot in `src`.
    pub fn verify_link<S: MetaSource>(&self, src: &S, level: usize, idx: u64) -> bool {
        let content = self.read_node(src, level, idx);
        let mac = self.child_mac(level, idx, &content);
        let parent = self.read_node(src, level + 1, idx / MACS_PER_LINE);
        Self::slot(&parent, idx) == mac
    }

    /// Verifies the whole path from counter-leaf `ctr_idx` up to (and
    /// including) the root against `expected_root`.
    ///
    /// # Errors
    ///
    /// Returns the lowest mismatching link as a [`TreeMismatch`]; a
    /// root mismatch reports the top node as the child.
    pub fn verify_path<S: MetaSource>(
        &self,
        src: &S,
        ctr_idx: u64,
        expected_root: &Mac128,
    ) -> Result<(), TreeMismatch> {
        let levels = self.layout.internal_levels();
        let mut idx = ctr_idx;
        for level in 0..levels {
            if !self.verify_link(src, level, idx) {
                return Err(TreeMismatch {
                    child_level: level,
                    child_index: idx,
                });
            }
            idx /= MACS_PER_LINE;
        }
        if &self.root(src) != expected_root {
            return Err(TreeMismatch {
                child_level: levels,
                child_index: 0,
            });
        }
        Ok(())
    }

    /// Rebuilds the full (sparse) node set from the given non-default
    /// counter lines, returning the node store and the root. Used by
    /// crash recovery (§4.4 step 4) and by tests as the from-scratch
    /// reference for the incremental root.
    pub fn rebuild<I>(&self, counters: I) -> (LineStore, Mac128)
    where
        I: IntoIterator<Item = (u64, Line)>,
    {
        let mut nodes = LineStore::new();
        let mut scratch = RebuildScratch::default();
        let (root, _) = self.rebuild_with(counters, &mut scratch, &mut nodes);
        (nodes, root)
    }

    /// [`Bmt::rebuild`] with caller-owned scratch and node store:
    /// writes every rebuilt node into `nodes` and returns the root
    /// plus the number of node lines written. Value-identical to
    /// `rebuild`; only the allocation profile differs (repeated calls
    /// reuse both buffers).
    pub fn rebuild_with<I>(
        &self,
        counters: I,
        scratch: &mut RebuildScratch,
        nodes: &mut LineStore,
    ) -> (Mac128, u64)
    where
        I: IntoIterator<Item = (u64, Line)>,
    {
        // Sorted `(node idx, content)` level slices, ping-ponged
        // between two Vec buffers so every tree level reuses the same
        // two allocations (a per-level BTreeMap here dominated the
        // recovery bench's allocation count). Only non-default nodes
        // appear; indices are unique per level, so ascending order
        // reproduces the previous BTreeMap iteration exactly.
        scratch.current.clear();
        scratch.current.extend(counters);
        scratch.current.sort_unstable_by_key(|&(idx, _)| idx);
        let mut child_level = 0usize;
        let mut top_content = self.default_node(self.layout.internal_levels());
        let mut written = 0u64;
        for level in 1..=self.layout.internal_levels() {
            scratch.parents.clear();
            for &(child_idx, ref content) in &scratch.current {
                let mac = self.child_mac(child_level, child_idx, content);
                let parent_idx = child_idx / MACS_PER_LINE;
                // `current` is sorted, so parent indices arrive in
                // non-decreasing order and grouping is a last-entry
                // check — `parents` stays sorted for the next level.
                if scratch.parents.last().map(|&(idx, _)| idx) != Some(parent_idx) {
                    scratch.parents.push((parent_idx, self.default_node(level)));
                }
                let parent = &mut scratch.parents.last_mut().expect("just pushed").1;
                Self::patch_slot(parent, child_idx, &mac);
            }
            for &(idx, ref content) in &scratch.parents {
                nodes.write(self.layout.node_line(level, idx), *content);
                written += 1;
            }
            if level == self.layout.internal_levels() {
                if let Some(&(0, content)) = scratch.parents.first() {
                    top_content = content;
                }
            }
            std::mem::swap(&mut scratch.current, &mut scratch.parents);
            child_level = level;
        }
        let root = self
            .engine
            .node_mac(self.layout.internal_levels(), 0, &top_content);
        (root, written)
    }

    /// Scans every materialized counter/tree line in `src` and returns
    /// all parent/child mismatches — recovery step 1, which *locates*
    /// replay attacks on the stored tree (§4.4).
    pub fn consistency_scan(&self, src: &LineStore) -> Vec<TreeMismatch> {
        self.consistency_scan_over(src, &src.sorted_addrs())
    }

    /// [`Bmt::consistency_scan`] over a precomputed sorted address
    /// list (recovery already holds one), avoiding a second full-store
    /// address collection.
    pub fn consistency_scan_over(&self, src: &LineStore, addrs: &[LineAddr]) -> Vec<TreeMismatch> {
        let mut mismatches = Vec::new();
        for &line in addrs {
            let (level, idx) = if self.layout.is_counter_line(line) {
                (0, self.layout.counter_index(line))
            } else if self.layout.is_tree_line(line) {
                self.layout.node_of_line(line)
            } else {
                continue;
            };
            if level < self.layout.internal_levels() && !self.verify_link(src, level, idx) {
                mismatches.push(TreeMismatch {
                    child_level: level,
                    child_index: idx,
                });
            }
        }
        mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcb::Keys;

    fn bmt() -> Bmt {
        let layout = SecureLayout::new(1 << 20); // 256 counter lines, 4 levels
        Bmt::new(layout, CryptoEngine::new(&Keys::from_seed(3)))
    }

    #[test]
    fn default_root_is_stable() {
        let b = bmt();
        assert_eq!(b.default_root(), b.root(&LineStore::new()));
        assert_eq!(b.default_root(), bmt().default_root());
    }

    #[test]
    fn update_path_changes_root_and_counts_hmacs() {
        let b = bmt();
        let mut store = LineStore::new();
        store.write(b.layout().counter_line_at(5), [1u8; 64]);
        let (root, hmacs) = b.update_path(&mut store, 5);
        assert_ne!(root, b.default_root());
        // 4 stored levels + the root HMAC.
        assert_eq!(hmacs, 5);
        assert_eq!(b.root(&store), root);
    }

    #[test]
    fn incremental_root_matches_rebuild() {
        let b = bmt();
        let mut store = LineStore::new();
        let mut counters = Vec::new();
        for idx in [0u64, 3, 4, 17, 255] {
            let content = [(idx as u8).wrapping_add(1); 64];
            store.write(b.layout().counter_line_at(idx), content);
            counters.push((idx, content));
            b.update_path(&mut store, idx);
        }
        let incremental = b.root(&store);
        let (_, rebuilt) = b.rebuild(counters);
        assert_eq!(incremental, rebuilt);
    }

    #[test]
    fn update_order_does_not_matter() {
        let b = bmt();
        let contents: Vec<(u64, Line)> = vec![(1, [9u8; 64]), (2, [8u8; 64]), (200, [7u8; 64])];
        let mut s1 = LineStore::new();
        for (i, c) in &contents {
            s1.write(b.layout().counter_line_at(*i), *c);
            b.update_path(&mut s1, *i);
        }
        let mut s2 = LineStore::new();
        for (i, c) in contents.iter().rev() {
            s2.write(b.layout().counter_line_at(*i), *c);
            b.update_path(&mut s2, *i);
        }
        assert_eq!(b.root(&s1), b.root(&s2));
    }

    #[test]
    fn verify_path_accepts_consistent_tree() {
        let b = bmt();
        let mut store = LineStore::new();
        store.write(b.layout().counter_line_at(42), [5u8; 64]);
        let (root, _) = b.update_path(&mut store, 42);
        assert!(b.verify_path(&store, 42, &root).is_ok());
        // Untouched leaves also verify.
        assert!(b.verify_path(&store, 7, &root).is_ok());
    }

    #[test]
    fn verify_path_locates_tampered_counter() {
        let b = bmt();
        let mut store = LineStore::new();
        store.write(b.layout().counter_line_at(42), [5u8; 64]);
        let (root, _) = b.update_path(&mut store, 42);
        // Tamper with the counter line behind the tree's back.
        store.write(b.layout().counter_line_at(42), [6u8; 64]);
        let err = b.verify_path(&store, 42, &root).unwrap_err();
        assert_eq!(
            err,
            TreeMismatch {
                child_level: 0,
                child_index: 42
            }
        );
    }

    #[test]
    fn verify_path_locates_tampered_internal_node() {
        let b = bmt();
        let mut store = LineStore::new();
        store.write(b.layout().counter_line_at(0), [5u8; 64]);
        let (root, _) = b.update_path(&mut store, 0);
        let node_line = b.layout().node_line(2, 0);
        let mut node = store.read(node_line);
        node[0] ^= 1;
        store.write(node_line, node);
        let err = b.verify_path(&store, 0, &root).unwrap_err();
        // The level-1 child no longer matches the corrupted level-2 slot.
        assert_eq!(err.child_level, 1);
    }

    #[test]
    fn stale_root_is_detected_at_top() {
        let b = bmt();
        let mut store = LineStore::new();
        store.write(b.layout().counter_line_at(9), [5u8; 64]);
        let (root, _) = b.update_path(&mut store, 9);
        // Another update not reflected in `root`.
        store.write(b.layout().counter_line_at(9), [6u8; 64]);
        b.update_path(&mut store, 9);
        let err = b.verify_path(&store, 9, &root).unwrap_err();
        assert_eq!(err.child_level, b.layout().internal_levels());
    }

    #[test]
    fn consistency_scan_clean_tree_is_empty() {
        let b = bmt();
        let mut store = LineStore::new();
        for idx in [0u64, 100] {
            store.write(b.layout().counter_line_at(idx), [idx as u8 + 1; 64]);
            b.update_path(&mut store, idx);
        }
        assert!(b.consistency_scan(&store).is_empty());
    }

    #[test]
    fn consistency_scan_locates_replayed_counter() {
        let b = bmt();
        let mut store = LineStore::new();
        store.write(b.layout().counter_line_at(8), [1u8; 64]);
        b.update_path(&mut store, 8);
        let old_counter = store.read(b.layout().counter_line_at(8));
        store.write(b.layout().counter_line_at(8), [2u8; 64]);
        b.update_path(&mut store, 8);
        // Replay the counter line to its old value.
        store.write(b.layout().counter_line_at(8), old_counter);
        let found = b.consistency_scan(&store);
        assert!(found.contains(&TreeMismatch {
            child_level: 0,
            child_index: 8
        }));
    }

    #[test]
    fn rebuild_empty_gives_default_root() {
        let b = bmt();
        let (nodes, root) = b.rebuild(Vec::new());
        assert!(nodes.is_empty());
        assert_eq!(root, b.default_root());
    }

    /// The MAC over `content` at `(level, pos)` as the hash computes
    /// it: a child MAC below the top, the root MAC at the top.
    fn computed_mac(b: &Bmt, level: usize, pos: u64, content: &Line) -> Mac128 {
        if level == b.layout().internal_levels() {
            b.engine().node_mac(level, 0, content)
        } else {
            b.child_mac(level, pos, content)
        }
    }

    /// Every default answer equals the MAC computed over the default
    /// content, and a default line with one bit flipped (one per byte)
    /// is hashed, not answered from the table.
    #[test]
    fn default_answers_equal_the_computed_macs() {
        let b = bmt();
        for level in 0..=b.layout().internal_levels() {
            let default = b.default_node(level);
            for pos in 0..MACS_PER_LINE {
                let want = computed_mac(&b, level, pos, &default);
                assert_eq!(b.default_mac(level, pos), want, "level {level}, pos {pos}");
                assert_eq!(b.link_mac(level, pos, &default), want);
                for byte in 0..64 {
                    let mut flipped = default;
                    flipped[byte] ^= 1 << (byte % 8);
                    let got = b.link_mac(level, pos, &flipped);
                    assert_eq!(got, computed_mac(&b, level, pos, &flipped));
                    assert_ne!(got, want, "level {level}, pos {pos}, byte {byte}");
                }
            }
        }
    }

    #[test]
    fn slot_extraction() {
        let mut parent = [0u8; 64];
        parent[16..32].copy_from_slice(&[7u8; 16]);
        assert_eq!(Bmt::slot(&parent, 1), [7u8; 16]);
        assert_eq!(Bmt::slot(&parent, 5), [7u8; 16]); // position 5 % 4 == 1
        assert_eq!(Bmt::slot(&parent, 0), [0u8; 16]);
    }
}
