//! Randomized model tests: the cache and the line store against
//! straightforward reference implementations, and queue invariants.
//! Driven by the workspace's deterministic PRNG so every failure is
//! reproducible.

use ccnvm_mem::timing::BoundedQueue;
use ccnvm_mem::{CacheConfig, Line, LineAddr, LineStore, SetAssocCache};
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

/// Everything `store` reports about itself agrees with `model`: its
/// length, every line's content, its iteration and its sorted walk.
fn assert_store_matches(store: &LineStore, model: &HashMap<u64, Line>) {
    assert_eq!(store.len(), model.len());
    assert_eq!(store.is_empty(), model.is_empty());
    for (&addr, content) in model {
        assert_eq!(store.get(LineAddr(addr)), Some(content), "line {addr}");
        assert_eq!(store.read(LineAddr(addr)), *content, "line {addr}");
        assert!(store.contains(LineAddr(addr)), "line {addr}");
    }
    let iterated: HashMap<u64, Line> = store.iter().map(|(a, l)| (a.0, *l)).collect();
    assert_eq!(store.iter().count(), model.len(), "iter repeats a line");
    assert_eq!(&iterated, model);
    let mut want: Vec<u64> = model.keys().copied().collect();
    want.sort_unstable();
    let sorted: Vec<u64> = store.sorted_addrs().into_iter().map(|a| a.0).collect();
    assert_eq!(sorted, want);
    // A caller's scratch is cleared first.
    let mut scratch = vec![LineAddr(u64::MAX)];
    store.sorted_addrs_into(&mut scratch);
    assert!(scratch.iter().map(|a| a.0).eq(want));
}

/// One random operation on `store` and its map `model`: a write (to a
/// new or existing line), an erase (of a present or absent line, so
/// freed storage is reused), an `extend` whose batch repeats addresses
/// (the last write wins, in a store collected from the batch too), or
/// point reads. Addresses fall in `0..span`.
fn store_step(rng: &mut Rng, store: &mut LineStore, model: &mut HashMap<u64, Line>, span: u64) {
    let addr = rng.gen_range(0..span);
    match rng.gen_range(0u32..10) {
        0..=4 => {
            let content: Line = rng.gen_array();
            store.write(LineAddr(addr), content);
            model.insert(addr, content);
        }
        5..=7 => assert_eq!(store.erase(LineAddr(addr)), model.remove(&addr)),
        8 => {
            let batch: Vec<(LineAddr, Line)> = (0..rng.gen_range(0usize..12))
                .map(|_| (LineAddr(addr + rng.gen_range(0u64..4)), rng.gen_array()))
                .collect();
            let batch_model: HashMap<u64, Line> = batch.iter().map(|&(a, l)| (a.0, l)).collect();
            assert_store_matches(&batch.iter().copied().collect(), &batch_model);
            model.extend(batch_model);
            store.extend(batch);
        }
        _ => {}
    }
    let want = model.get(&addr);
    assert_eq!(store.get(LineAddr(addr)), want, "line {addr}");
    assert_eq!(store.read(LineAddr(addr)), want.copied().unwrap_or([0; 64]));
    assert_eq!(store.contains(LineAddr(addr)), want.is_some());
    assert_eq!(store.len(), model.len());
}

/// The line store agrees with a plain map over random writes, erases
/// and extends, over address spans small enough to overwrite and erase
/// constantly and large enough to fill many slabs; a collected store
/// and a clone that diverges from its source agree with theirs too.
#[test]
fn line_store_matches_map_model() {
    const SPANS: [u64; 4] = [8, 64, 2048, 1 << 40];
    let mut rng = Rng::seed_from_u64(0x3e04);
    for round in 0..24 {
        let span = SPANS[round % SPANS.len()];
        let mut store = LineStore::new();
        let mut model = HashMap::new();
        for op in 0..rng.gen_range(1usize..4000) {
            store_step(&mut rng, &mut store, &mut model, span);
            if op % 512 == 0 {
                assert_store_matches(&store, &model);
            }
        }
        assert_store_matches(&store, &model);

        let collected: LineStore = model.iter().map(|(&a, &l)| (LineAddr(a), l)).collect();
        assert_store_matches(&collected, &model);

        let mut copy = store.clone();
        let mut copy_model = model.clone();
        assert_store_matches(&copy, &copy_model);
        for _ in 0..rng.gen_range(1usize..600) {
            store_step(&mut rng, &mut copy, &mut copy_model, span);
        }
        assert_store_matches(&copy, &copy_model);
        assert_store_matches(&store, &model);
        for _ in 0..rng.gen_range(1usize..600) {
            store_step(&mut rng, &mut store, &mut model, span);
        }
        assert_store_matches(&store, &model);
        assert_store_matches(&copy, &copy_model);
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
