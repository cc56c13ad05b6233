//! Randomized model tests: the cache against a straightforward
//! reference implementation, and queue invariants. Driven by the
//! workspace's deterministic PRNG so every failure is reproducible.

use ccnvm_mem::timing::BoundedQueue;
use ccnvm_mem::{CacheConfig, LineAddr, SetAssocCache};
use ccnvm_rng::Rng;
use std::collections::HashMap;

/// Reference model: per-set vectors with explicit LRU ordering.
struct RefCache {
    sets: usize,
    ways: usize,
    /// set -> Vec<(line, dirty)>, most-recently-used last.
    content: HashMap<usize, Vec<(u64, bool)>>,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets,
            ways,
            content: HashMap::new(),
        }
    }

    fn access(&mut self, line: u64, write: bool) -> (bool, Option<(u64, bool)>) {
        let set = self.content.entry((line as usize) % self.sets).or_default();
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (l, d) = set.remove(pos);
            set.push((l, d || write));
            return (true, None);
        }
        let evicted = if set.len() == self.ways {
            Some(set.remove(0))
        } else {
            None
        };
        set.push((line, write));
        (false, evicted)
    }
}

/// The production cache agrees with the reference model on every
/// hit/miss outcome, every victim choice and every dirty bit, for
/// random access sequences over several geometries: power-of-two set
/// counts (indexed by mask) and others (indexed by remainder).
#[test]
fn cache_matches_reference() {
    const SET_COUNTS: [usize; 8] = [1, 2, 4, 8, 3, 5, 6, 12];
    let mut rng = Rng::seed_from_u64(0x3e01);
    for round in 0..192 {
        let ways = rng.gen_range(1usize..5);
        let sets = SET_COUNTS[round % SET_COUNTS.len()];
        let config = CacheConfig::new((sets * ways * 64) as u64, ways);
        assert_eq!(config.sets(), sets);
        let mut cache = SetAssocCache::<()>::new(config);
        let mut reference = RefCache::new(sets, ways);
        let accesses = rng.gen_range(1usize..400);
        for _ in 0..accesses {
            let line = rng.gen_range(0u64..64);
            let write = rng.gen_bool(0.5);
            let got = cache.access(LineAddr(line), write);
            let (want_hit, want_evicted) = reference.access(line, write);
            assert_eq!(got.is_hit(), want_hit, "hit/miss diverged at {line}");
            let got_evicted = got.evicted.map(|e| (e.addr.0, e.dirty));
            assert_eq!(got_evicted, want_evicted, "victim diverged at {line}");
        }
        // Final dirty sets agree.
        let mut got_dirty: Vec<u64> = cache.dirty_lines().map(|l| l.0).collect();
        got_dirty.sort_unstable();
        let mut want_dirty: Vec<u64> = reference
            .content
            .values()
            .flatten()
            .filter(|&&(_, d)| d)
            .map(|&(l, _)| l)
            .collect();
        want_dirty.sort_unstable();
        assert_eq!(got_dirty, want_dirty);
    }
}

/// peek_victim always predicts exactly what access() will evict.
#[test]
fn peek_victim_is_exact() {
    let mut rng = Rng::seed_from_u64(0x3e02);
    for _ in 0..64 {
        let mut cache = SetAssocCache::<()>::new(CacheConfig::new(4 * 64, 2));
        let accesses = rng.gen_range(1usize..200);
        for _ in 0..accesses {
            let line = rng.gen_range(0u64..32);
            let write = rng.gen_bool(0.5);
            let predicted = cache.peek_victim(LineAddr(line));
            let got = cache.access(LineAddr(line), write);
            let actual = got.evicted.map(|e| (e.addr, e.dirty));
            assert_eq!(predicted, actual);
        }
    }
}

/// Queue occupancy never exceeds capacity and accepts are monotone in
/// time.
#[test]
fn bounded_queue_invariants() {
    let mut rng = Rng::seed_from_u64(0x3e03);
    for _ in 0..64 {
        let capacity = rng.gen_range(1usize..8);
        let mut q = BoundedQueue::new(capacity);
        let mut now = 0u64;
        let ops = rng.gen_range(1usize..200);
        for _ in 0..ops {
            now += rng.gen_range(0u64..1000);
            let latency = rng.gen_range(1u64..500);
            let slot = q.accept(now);
            assert!(slot >= now);
            assert!(q.len() < capacity, "accept must free a slot");
            q.push(slot + latency);
            assert!(q.len() <= capacity);
        }
    }
}
