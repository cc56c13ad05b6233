//! The on-chip security-metadata cache.
//!
//! The paper's configuration (§5) gives the processor a shared 128 KB,
//! 8-way structure at the L2 level holding both encryption counters
//! and Merkle-tree nodes — Figure 2 draws it as a single *Meta Cache*,
//! while the text speaks of a "counter cache and Merkle Tree cache".
//! Both organizations exist in real proposals, so this module provides
//! either:
//!
//! * **shared** — one cache, counters and tree nodes compete for all
//!   ways (the default, matching Figure 2), or
//! * **split** — static partition into a counter cache and a tree
//!   cache (half the capacity each by default), matching the
//!   two-structure reading and enabling the ablation in
//!   `ccnvm-bench`'s `ablation` binary.
//!
//! [`MetaCache`] presents one interface either way; the routing is by
//! address region. Each way holds its line's content
//! ([`MetaPayload::content`]), the only on-chip copy of it.

use crate::layout::SecureLayout;
use crate::secmem::MetaPayload;
use ccnvm_mem::cache::{AccessResult, SetAssocCache};
use ccnvm_mem::{CacheConfig, Line, LineAddr};

/// Organization of the metadata cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetaCacheOrg {
    /// One structure shared by counters and tree nodes (Figure 2).
    #[default]
    Shared,
    /// Statically split: half for counters, half for tree nodes.
    Split,
}

impl MetaCacheOrg {
    /// Geometry of each bank for a total geometry of `total`: all of it
    /// when shared, half the capacity at the same associativity when
    /// split.
    pub(crate) fn bank(self, total: CacheConfig) -> CacheConfig {
        match self {
            MetaCacheOrg::Shared => total,
            MetaCacheOrg::Split => CacheConfig {
                capacity_bytes: total.capacity_bytes / 2,
                ..total
            },
        }
    }
}

/// Counter + Merkle-tree node cache with a region-routing front end.
#[derive(Debug)]
pub struct MetaCache {
    /// Shared organization uses only `primary`; split puts counters in
    /// `primary` and tree nodes in `tree`.
    primary: SetAssocCache<MetaPayload>,
    tree: Option<SetAssocCache<MetaPayload>>,
    /// Counter-region boundary, for routing.
    counter_base: u64,
    counter_end: u64,
    /// Resident dirty lines across both banks, kept from the dirty-bit
    /// transitions each bank reports, so [`Self::dirty_len`] reads no
    /// set.
    dirty: usize,
}

impl MetaCache {
    /// Builds the cache for `layout` with total geometry `config`.
    ///
    /// # Panics
    ///
    /// Panics if a bank's geometry holds no whole set (a split
    /// organization halves the capacity); [`SimConfig::validate`]
    /// rejects such configurations first.
    ///
    /// [`SimConfig::validate`]: crate::config::SimConfig::validate
    pub fn new(config: CacheConfig, org: MetaCacheOrg, layout: &SecureLayout) -> Self {
        let bank = org.bank(config);
        let primary = SetAssocCache::new(bank);
        let tree = match org {
            MetaCacheOrg::Shared => None,
            MetaCacheOrg::Split => Some(SetAssocCache::new(bank)),
        };
        let counter_base = layout.counter_line_at(0).0;
        Self {
            primary,
            tree,
            counter_base,
            counter_end: counter_base + layout.counter_lines(),
            dirty: 0,
        }
    }

    fn bank_for(&self, line: LineAddr) -> &SetAssocCache<MetaPayload> {
        match &self.tree {
            Some(tree) if !(self.counter_base..self.counter_end).contains(&line.0) => tree,
            _ => &self.primary,
        }
    }

    fn bank_for_mut(&mut self, line: LineAddr) -> &mut SetAssocCache<MetaPayload> {
        match &mut self.tree {
            Some(tree) if !(self.counter_base..self.counter_end).contains(&line.0) => tree,
            _ => &mut self.primary,
        }
    }

    /// Reads `line`, allocating it clean on a miss (see
    /// [`SetAssocCache::access`]); only [`Self::mark_dirty`] dirties a
    /// line.
    pub fn access(&mut self, line: LineAddr) -> AccessResult<MetaPayload> {
        let result = self.bank_for_mut(line).access(line, false);
        if result.evicted.as_ref().is_some_and(|e| e.dirty) {
            self.dirty -= 1;
        }
        result
    }

    /// A hit without the miss path (see [`SetAssocCache::touch`]):
    /// refreshes LRU and counts the hit when `line` is resident,
    /// changes nothing when it is not.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.bank_for_mut(line).touch(line)
    }

    /// Whether `line` is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.bank_for(line).contains(line)
    }

    /// Whether `line` is resident and dirty.
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        self.bank_for(line).is_dirty(line)
    }

    /// Victim an install of `line` would evict right now.
    pub fn peek_victim(&self, line: LineAddr) -> Option<(LineAddr, bool)> {
        self.bank_for(line).peek_victim(line)
    }

    /// Marks `line` dirty (resident lines only), returning whether it
    /// is resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let was = self.bank_for_mut(line).mark_dirty(line);
        if was == Some(false) {
            self.dirty += 1;
        }
        was.is_some()
    }

    /// Clears `line`'s dirty bit, returning whether it is resident.
    pub fn mark_clean(&mut self, line: LineAddr) -> bool {
        let was = self.bank_for_mut(line).mark_clean(line);
        if was == Some(true) {
            self.dirty -= 1;
        }
        was.is_some()
    }

    /// Content of a resident line.
    pub fn content(&self, line: LineAddr) -> Option<Line> {
        self.bank_for(line).payload(line).map(|p| p.content)
    }

    /// Mutable payload of a resident line.
    pub fn payload_mut(&mut self, line: LineAddr) -> Option<&mut MetaPayload> {
        self.bank_for_mut(line).payload_mut(line)
    }

    /// Removes `line`, returning its dirty bit and content if it was
    /// resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<(bool, Line)> {
        let evicted = self.bank_for_mut(line).invalidate(line)?;
        if evicted.dirty {
            self.dirty -= 1;
        }
        Some((evicted.dirty, evicted.payload.content))
    }

    /// Every resident line with its content, across both banks.
    pub fn resident(&self) -> impl Iterator<Item = (LineAddr, &Line)> + '_ {
        self.primary
            .resident()
            .chain(self.tree.iter().flat_map(|t| t.resident()))
            .map(|(line, p)| (line, &p.content))
    }

    /// All resident dirty lines across both banks, allocation-free.
    pub fn dirty_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.primary
            .dirty_lines()
            .chain(self.tree.iter().flat_map(|t| t.dirty_lines()))
    }

    /// `(hits, misses)` aggregated across banks.
    pub fn hit_miss(&self) -> (u64, u64) {
        let (mut h, mut m) = self.primary.hit_miss();
        if let Some(tree) = &self.tree {
            let (th, tm) = tree.hit_miss();
            h += th;
            m += tm;
        }
        (h, m)
    }

    /// Total resident lines.
    pub fn len(&self) -> usize {
        self.primary.len() + self.tree.as_ref().map_or(0, |t| t.len())
    }

    /// Resident dirty lines across both banks (the metrics sampler's
    /// dirtiness gauge and the auditor's coverage total), without a
    /// scan.
    pub fn dirty_len(&self) -> usize {
        self.dirty
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> SecureLayout {
        SecureLayout::new(1 << 20)
    }

    fn ctr_line(l: &SecureLayout, idx: u64) -> LineAddr {
        l.counter_line_at(idx)
    }

    fn node_line(l: &SecureLayout) -> LineAddr {
        l.node_line(1, 0)
    }

    #[test]
    fn shared_routes_everything_to_one_bank() {
        let l = layout();
        let mut c = MetaCache::new(CacheConfig::new(4096, 4), MetaCacheOrg::Shared, &l);
        c.access(ctr_line(&l, 0));
        c.mark_dirty(ctr_line(&l, 0));
        c.access(node_line(&l));
        assert_eq!(c.len(), 2);
        assert!(c.is_dirty(ctr_line(&l, 0)));
        assert!(!c.is_dirty(node_line(&l)));
    }

    #[test]
    fn split_partitions_counters_and_nodes() {
        let l = layout();
        let mut c = MetaCache::new(CacheConfig::new(4096, 4), MetaCacheOrg::Split, &l);
        // Fill the counter bank: counter lines never evict tree nodes.
        c.access(node_line(&l));
        c.mark_dirty(node_line(&l));
        for i in 0..64 {
            c.access(ctr_line(&l, i));
        }
        assert!(c.contains(node_line(&l)), "tree bank is isolated");
    }

    #[test]
    fn split_capacity_is_halved_per_bank() {
        let l = layout();
        let mut c = MetaCache::new(CacheConfig::new(4096, 4), MetaCacheOrg::Split, &l);
        // 4096 B shared = 64 lines; split = 32 lines per bank. Insert
        // 40 distinct counters: at most 32 survive.
        for i in 0..40 {
            c.access(ctr_line(&l, i));
        }
        assert!(c.len() <= 32);
    }

    #[test]
    fn hit_miss_aggregates_banks() {
        let l = layout();
        let mut c = MetaCache::new(CacheConfig::new(4096, 4), MetaCacheOrg::Split, &l);
        c.access(ctr_line(&l, 0)); // miss
        c.access(ctr_line(&l, 0)); // hit
        c.access(node_line(&l)); // miss
        assert_eq!(c.hit_miss(), (1, 2));
    }

    #[test]
    fn payload_and_dirty_tracking_work_through_routing() {
        let l = layout();
        let mut c = MetaCache::new(CacheConfig::new(4096, 4), MetaCacheOrg::Split, &l);
        c.access(ctr_line(&l, 3));
        c.mark_dirty(ctr_line(&l, 3));
        c.payload_mut(ctr_line(&l, 3)).unwrap().updates = 7;
        c.payload_mut(ctr_line(&l, 3)).unwrap().content = [3; 64];
        assert_eq!(c.content(ctr_line(&l, 3)), Some([3; 64]));
        assert_eq!(c.content(node_line(&l)), None);
        assert_eq!(c.dirty_lines().collect::<Vec<_>>(), vec![ctr_line(&l, 3)]);
        assert!(c.mark_clean(ctr_line(&l, 3)));
        assert_eq!(c.dirty_lines().count(), 0);
        assert_eq!(c.invalidate(ctr_line(&l, 3)), Some((false, [3; 64])));
        assert_eq!(c.invalidate(ctr_line(&l, 3)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn resident_walks_both_banks_with_contents() {
        let l = layout();
        for org in [MetaCacheOrg::Shared, MetaCacheOrg::Split] {
            let mut c = MetaCache::new(CacheConfig::new(4096, 4), org, &l);
            let mut want = vec![(ctr_line(&l, 2), [2u8; 64]), (node_line(&l), [9u8; 64])];
            for &(line, content) in &want {
                c.access(line);
                c.payload_mut(line).unwrap().content = content;
            }
            let mut got: Vec<(LineAddr, Line)> = c.resident().map(|(l, &c)| (l, c)).collect();
            got.sort_unstable_by_key(|&(line, _)| line);
            want.sort_unstable_by_key(|&(line, _)| line);
            assert_eq!(got, want, "{org:?}");
        }
    }

    /// The running dirty count equals a full scan after every step of
    /// a seeded random mix of the operations that move dirty bits —
    /// installs (with evictions), marks, invalidations and touches —
    /// on both organizations.
    #[test]
    fn dirty_len_tracks_a_full_scan() {
        use ccnvm_rng::Rng;
        let l = layout();
        for org in [MetaCacheOrg::Shared, MetaCacheOrg::Split] {
            // 512 B per bank at most: 8 lines, so evictions are common.
            let mut c = MetaCache::new(CacheConfig::new(1024, 2), org, &l);
            let mut rng = Rng::seed_from_u64(0xd1e7);
            for step in 0..5_000 {
                let idx = rng.next_u64() % 24;
                let line = if rng.next_u64().is_multiple_of(2) {
                    ctr_line(&l, idx)
                } else {
                    l.node_line(1, idx)
                };
                match rng.next_u64() % 5 {
                    0 => {
                        c.access(line);
                    }
                    1 => {
                        c.mark_dirty(line);
                    }
                    2 => {
                        c.mark_clean(line);
                    }
                    3 => {
                        c.invalidate(line);
                    }
                    _ => {
                        c.touch(line);
                    }
                }
                assert_eq!(
                    c.dirty_len(),
                    c.dirty_lines().count(),
                    "{org:?}, step {step}"
                );
            }
            assert!(c.dirty_len() > 0, "{org:?}: the mix must leave dirt");
        }
    }
}
