//! Generic set-associative cache model.
//!
//! One model serves every cache level in the paper's configuration:
//! L1 (32 KB, 2-way), L2 (256 KB, 8-way) and the 128 KB 8-way Meta
//! Cache holding encryption counters and Merkle-tree nodes. All use
//! 64-byte lines, LRU replacement and write-back with write-allocate.
//!
//! The model keeps tags, dirty bits and LRU order, and each resident
//! line carries a caller-defined payload `T`: L1 and L2 carry none,
//! and the Meta Cache's payload holds the line's content plus its
//! update count, which drives the paper's third epoch trigger ("a
//! cacheline has been updated more than N times since it became
//! dirty").

use crate::addr::{LineAddr, LINE_SIZE};

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a config; sets are derived as `capacity / (64 × ways)`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield at least one whole set
    /// ([`Self::has_whole_set`]).
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        let config = Self {
            capacity_bytes,
            ways,
        };
        assert!(
            config.has_whole_set(),
            "capacity {capacity_bytes} too small for {ways} ways"
        );
        config
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero (see [`Self::has_whole_set`]).
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / (LINE_SIZE * self.ways as u64)) as usize
    }

    /// Whether the geometry holds at least one set of at least one way.
    /// [`Self::new`] asserts it; a config built field by field may not
    /// hold it.
    pub fn has_whole_set(&self) -> bool {
        self.ways >= 1
            && (self.ways as u64)
                .checked_mul(LINE_SIZE)
                .is_some_and(|set_bytes| set_bytes <= self.capacity_bytes)
    }

    /// Total number of lines the cache can hold.
    pub fn lines(&self) -> usize {
        self.sets() * self.ways
    }
}

#[derive(Debug, Clone)]
struct WayState<T> {
    addr: LineAddr,
    dirty: bool,
    lru_stamp: u64,
    payload: T,
}

/// A line pushed out of the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine<T> {
    /// Address of the victim line.
    pub addr: LineAddr,
    /// Whether the victim was dirty (needs write-back).
    pub dirty: bool,
    /// The victim's payload.
    pub payload: T,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessResult<T> {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Victim evicted to make room (misses only, and only once the set
    /// is full).
    pub evicted: Option<EvictedLine<T>>,
}

impl<T> AccessResult<T> {
    /// Whether this access hit.
    pub fn is_hit(&self) -> bool {
        self.hit
    }

    /// Whether this access missed.
    pub fn is_miss(&self) -> bool {
        !self.hit
    }
}

/// Set-associative LRU cache with per-line payloads.
///
/// # Example
///
/// ```
/// use ccnvm_mem::{addr::LineAddr, cache::{CacheConfig, SetAssocCache}};
///
/// // Tiny 2-set, 2-way cache: 4 lines total.
/// let mut c = SetAssocCache::<u32>::new(CacheConfig::new(256, 2));
/// c.access(LineAddr(0), true);
/// *c.payload_mut(LineAddr(0)).unwrap() += 1;
/// assert_eq!(c.payload(LineAddr(0)), Some(&1));
/// assert!(c.is_dirty(LineAddr(0)));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<T = ()> {
    config: CacheConfig,
    sets: Vec<Vec<WayState<T>>>,
    /// `sets.len() - 1` when the set count is a power of two (every
    /// geometry the paper uses), so indexing needs no division.
    set_mask: Option<usize>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<T: Default> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry holds no whole set
    /// ([`CacheConfig::has_whole_set`]).
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.has_whole_set(),
            "cache of {} bytes and {} ways holds no whole set",
            config.capacity_bytes,
            config.ways
        );
        let count = config.sets();
        // Sets grow on first use, so building a cache allocates the
        // set vector only, not every way.
        let sets = (0..count).map(|_| Vec::new()).collect();
        Self {
            config,
            sets,
            set_mask: count.is_power_of_two().then(|| count - 1),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `line`, allocating on miss; `write` marks it dirty.
    ///
    /// Returns whether it hit and any victim evicted to make room.
    pub fn access(&mut self, line: LineAddr, write: bool) -> AccessResult<T> {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_index(line);
        let ways = self.config.ways;
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.addr == line) {
            way.lru_stamp = tick;
            way.dirty |= write;
            self.hits += 1;
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }

        self.misses += 1;
        let evicted = if set.len() == ways {
            let victim_idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru_stamp)
                .map(|(i, _)| i)
                .expect("full set is non-empty");
            let victim = set.swap_remove(victim_idx);
            Some(EvictedLine {
                addr: victim.addr,
                dirty: victim.dirty,
                payload: victim.payload,
            })
        } else {
            None
        };
        if set.capacity() == 0 {
            // A set's first line allocates all its ways. Grown by
            // doubling, every set would free a smaller block on the way,
            // and with the Meta Cache's 88-byte ways that churn cost each
            // cold-read point's set-up over a third more time (DESIGN.md §5c).
            set.reserve_exact(ways);
        }
        set.push(WayState {
            addr: line,
            dirty: write,
            lru_stamp: tick,
            payload: T::default(),
        });
        AccessResult {
            hit: false,
            evicted,
        }
    }
}

impl<T> SetAssocCache<T> {
    fn set_index(&self, line: LineAddr) -> usize {
        match self.set_mask {
            Some(mask) => line.0 as usize & mask,
            None => line.0 as usize % self.sets.len(),
        }
    }

    /// A read hit without the miss path: when `line` is resident,
    /// refreshes its LRU position and counts a hit exactly as
    /// `access(line, false)` would, and returns `true`; when it is
    /// absent, changes nothing and returns `false`. One set probe where
    /// `contains` followed by `access` takes two.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        let idx = self.set_index(line);
        let Some(way) = self.sets[idx].iter_mut().find(|w| w.addr == line) else {
            return false;
        };
        self.tick += 1;
        way.lru_stamp = self.tick;
        self.hits += 1;
        true
    }

    /// Whether `line` is resident (does not touch LRU state).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.sets[self.set_index(line)]
            .iter()
            .any(|w| w.addr == line)
    }

    /// Whether `line` is resident and dirty.
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        self.sets[self.set_index(line)]
            .iter()
            .any(|w| w.addr == line && w.dirty)
    }

    /// Payload of `line`, if resident.
    pub fn payload(&self, line: LineAddr) -> Option<&T> {
        self.sets[self.set_index(line)]
            .iter()
            .find(|w| w.addr == line)
            .map(|w| &w.payload)
    }

    /// Mutable payload of `line`, if resident.
    pub fn payload_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let idx = self.set_index(line);
        self.sets[idx]
            .iter_mut()
            .find(|w| w.addr == line)
            .map(|w| &mut w.payload)
    }

    /// Clears `line`'s dirty bit (after a write-back), returning the bit
    /// it replaced, or `None` when the line is not resident.
    pub fn mark_clean(&mut self, line: LineAddr) -> Option<bool> {
        self.set_dirty(line, false)
    }

    /// Marks a resident `line` dirty without touching LRU order,
    /// returning the bit it replaced, or `None` when the line is not
    /// resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> Option<bool> {
        self.set_dirty(line, true)
    }

    fn set_dirty(&mut self, line: LineAddr, dirty: bool) -> Option<bool> {
        let idx = self.set_index(line);
        let w = self.sets[idx].iter_mut().find(|w| w.addr == line)?;
        Some(std::mem::replace(&mut w.dirty, dirty))
    }

    /// The victim an `access(line, …)` miss would evict right now:
    /// `Some((addr, dirty))` when the set is full and `line` is absent,
    /// `None` otherwise. Does not modify any state — callers use this
    /// to act (e.g. drain dirty state) *before* the eviction happens.
    pub fn peek_victim(&self, line: LineAddr) -> Option<(LineAddr, bool)> {
        let set = &self.sets[self.set_index(line)];
        if set.len() < self.config.ways || set.iter().any(|w| w.addr == line) {
            return None;
        }
        set.iter()
            .min_by_key(|w| w.lru_stamp)
            .map(|w| (w.addr, w.dirty))
    }

    /// Removes `line` from the cache, returning it if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine<T>> {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|w| w.addr == line)?;
        let w = set.swap_remove(pos);
        Some(EvictedLine {
            addr: w.addr,
            dirty: w.dirty,
            payload: w.payload,
        })
    }

    /// All resident dirty line addresses, in unspecified order.
    ///
    /// Allocation-free: the drain path walks this on every trigger, so
    /// it borrows the sets instead of materialising a `Vec` per call.
    pub fn dirty_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.sets
            .iter()
            .flatten()
            .filter(|w| w.dirty)
            .map(|w| w.addr)
    }

    /// Every resident line with its payload, in unspecified order.
    pub fn resident(&self) -> impl Iterator<Item = (LineAddr, &T)> + '_ {
        self.sets.iter().flatten().map(|w| (w.addr, &w.payload))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// `(hits, misses)` since construction.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache<()> {
        // 1 set × 2 ways.
        SetAssocCache::new(CacheConfig::new(128, 2))
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(32 * 1024, 2);
        assert_eq!(c.sets(), 256);
        assert_eq!(c.lines(), 512);
        let c = CacheConfig::new(256 * 1024, 8);
        assert_eq!(c.sets(), 512);
        let c = CacheConfig::new(128 * 1024, 8);
        assert_eq!(c.sets(), 256);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(c.access(LineAddr(0), false).is_miss());
        assert!(c.access(LineAddr(0), false).is_hit());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        c.access(LineAddr(0), false);
        c.access(LineAddr(1), false);
        c.access(LineAddr(0), false); // 1 is now LRU
        let r = c.access(LineAddr(2), false);
        assert_eq!(r.evicted.map(|e| e.addr), Some(LineAddr(1)));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(2)));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = tiny();
        c.access(LineAddr(0), true);
        c.access(LineAddr(1), false);
        c.access(LineAddr(1), false);
        let r = c.access(LineAddr(2), false);
        let victim = r.evicted.expect("must evict");
        assert_eq!(victim.addr, LineAddr(0));
        assert!(victim.dirty);
    }

    #[test]
    fn write_marks_dirty_and_clean_clears() {
        let mut c = tiny();
        c.access(LineAddr(0), true);
        assert!(c.is_dirty(LineAddr(0)));
        assert_eq!(c.mark_clean(LineAddr(0)), Some(true));
        assert!(!c.is_dirty(LineAddr(0)));
        assert!(c.contains(LineAddr(0)));
        assert_eq!(c.mark_clean(LineAddr(0)), Some(false), "already clean");
    }

    #[test]
    fn set_mapping_isolates_sets() {
        // 2 sets × 1 way: lines 0 and 1 map to different sets.
        let mut c: SetAssocCache<()> = SetAssocCache::new(CacheConfig::new(128, 1));
        c.access(LineAddr(0), false);
        c.access(LineAddr(1), false);
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(1)));
        // Line 2 maps to set 0, evicting line 0.
        let r = c.access(LineAddr(2), false);
        assert_eq!(r.evicted.map(|e| e.addr), Some(LineAddr(0)));
        assert!(c.contains(LineAddr(1)));
    }

    #[test]
    fn payload_survives_until_eviction() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheConfig::new(128, 2));
        c.access(LineAddr(0), true);
        *c.payload_mut(LineAddr(0)).unwrap() = 41;
        c.access(LineAddr(1), false);
        c.access(LineAddr(1), false);
        let victim = c.access(LineAddr(2), false).evicted.unwrap();
        assert_eq!(victim.addr, LineAddr(0));
        assert_eq!(victim.payload, 41);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.access(LineAddr(0), true);
        let e = c.invalidate(LineAddr(0)).unwrap();
        assert!(e.dirty);
        assert!(!c.contains(LineAddr(0)));
        assert!(c.invalidate(LineAddr(0)).is_none());
    }

    #[test]
    fn dirty_lines_lists_only_dirty() {
        let mut c = tiny();
        c.access(LineAddr(0), true);
        c.access(LineAddr(1), false);
        assert_eq!(c.dirty_lines().collect::<Vec<_>>(), vec![LineAddr(0)]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn resident_lists_every_line_with_its_payload() {
        // 2 sets × 2 ways.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheConfig::new(256, 2));
        assert_eq!(c.resident().count(), 0);
        for line in 0..5 {
            c.access(LineAddr(line), line % 2 == 0);
            *c.payload_mut(LineAddr(line)).unwrap() = line as u32 * 10;
        }
        c.invalidate(LineAddr(3));
        let mut got: Vec<(LineAddr, u32)> = c.resident().map(|(l, &p)| (l, p)).collect();
        got.sort_unstable_by_key(|&(l, _)| l);
        // Line 4 evicted line 0 from set 0; line 3 was invalidated.
        assert_eq!(
            got,
            vec![(LineAddr(1), 10), (LineAddr(2), 20), (LineAddr(4), 40)]
        );
        assert_eq!(got.len(), c.len());
    }

    #[test]
    fn mark_clean_and_dirty_on_absent_lines() {
        let mut c = tiny();
        assert_eq!(
            c.mark_clean(LineAddr(7)),
            None,
            "absent line cannot be cleaned"
        );
        assert_eq!(
            c.mark_dirty(LineAddr(7)),
            None,
            "absent line cannot be dirtied"
        );
        assert!(!c.contains(LineAddr(7)), "marking must not insert");
        c.access(LineAddr(0), false);
        assert_eq!(c.mark_dirty(LineAddr(0)), Some(false));
        assert!(c.is_dirty(LineAddr(0)));
        assert_eq!(c.mark_dirty(LineAddr(0)), Some(true), "already dirty");
        // A line evicted from its set is absent again.
        c.access(LineAddr(1), false);
        c.access(LineAddr(2), false);
        let gone = if c.contains(LineAddr(0)) {
            LineAddr(1)
        } else {
            LineAddr(0)
        };
        assert_eq!(c.mark_dirty(gone), None);
        assert_eq!(c.mark_clean(gone), None);
    }

    /// `touch` is a read `access` restricted to hits: on a resident
    /// line it leaves the cache in exactly the state `access` leaves it
    /// in (LRU stamps, clock, hit count, dirty bits), and on an absent
    /// line it changes nothing at all.
    #[test]
    fn touch_is_access_on_a_hit_and_nothing_on_a_miss() {
        let mut touched = tiny();
        touched.access(LineAddr(0), true);
        touched.access(LineAddr(1), false);
        let mut accessed = touched.clone();
        assert!(touched.touch(LineAddr(0)));
        assert!(accessed.access(LineAddr(0), false).is_hit());
        assert_eq!(format!("{touched:?}"), format!("{accessed:?}"));
        assert_eq!(touched.hit_miss(), (1, 2));
        assert_eq!(touched.peek_victim(LineAddr(2)), Some((LineAddr(1), false)));
        let before = format!("{touched:?}");
        assert!(!touched.touch(LineAddr(2)));
        assert_eq!(format!("{touched:?}"), before);
    }

    #[test]
    fn invalidate_absent_line_is_none() {
        let mut c = tiny();
        assert!(c.invalidate(LineAddr(3)).is_none());
        c.access(LineAddr(0), false);
        assert!(c.invalidate(LineAddr(3)).is_none());
        assert!(
            c.contains(LineAddr(0)),
            "missed invalidate must not disturb residents"
        );
    }

    #[test]
    fn peek_victim_predicts_eviction() {
        let mut c = tiny();
        assert_eq!(c.peek_victim(LineAddr(0)), None, "empty set");
        c.access(LineAddr(0), true);
        c.access(LineAddr(1), false);
        assert_eq!(c.peek_victim(LineAddr(0)), None, "hit evicts nothing");
        assert_eq!(c.peek_victim(LineAddr(2)), Some((LineAddr(0), true)));
        let r = c.access(LineAddr(2), false);
        assert_eq!(r.evicted.map(|e| e.addr), Some(LineAddr(0)));
    }

    #[test]
    fn hit_rate_counters() {
        let mut c = tiny();
        c.access(LineAddr(0), false);
        c.access(LineAddr(0), false);
        c.access(LineAddr(0), false);
        assert_eq!(c.hit_miss(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_impossible_geometry() {
        CacheConfig::new(64, 2);
    }

    #[test]
    fn whole_set_check_covers_hand_built_geometries() {
        assert!(CacheConfig::new(64, 1).has_whole_set());
        let no_sets = CacheConfig {
            capacity_bytes: 64,
            ways: 8,
        };
        assert!(!no_sets.has_whole_set());
        let no_ways = CacheConfig {
            capacity_bytes: 4096,
            ways: 0,
        };
        assert!(!no_ways.has_whole_set());
        let overflowing = CacheConfig {
            capacity_bytes: u64::MAX,
            ways: usize::MAX,
        };
        assert!(!overflowing.has_whole_set());
    }

    #[test]
    #[should_panic(expected = "no whole set")]
    fn cache_refuses_a_geometry_without_sets() {
        SetAssocCache::<()>::new(CacheConfig {
            capacity_bytes: 64,
            ways: 8,
        });
    }
}
