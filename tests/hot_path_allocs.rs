//! Heap-allocation gates for the secure-memory hot paths.
//!
//! Once warmed, the steady-state write-back (cc-NVM and SC), read and
//! epoch-drain paths make no heap allocation at all: counter-to-root
//! path walks use bounded inline arrays, and drains and cache flushes
//! reuse scratch buffers. The SC write-back stays allocation-free with
//! a full flight ring attached, whose boundary brackets are fixed
//! texts. Each of them is checked on the portable tier and on whatever
//! tier `auto` detects on this host: 10 cases.
//!
//! Crash recovery on a reused [`RecoveryScratch`] keeps only the
//! allocations it cannot avoid and stays under
//! [`RECOVERY_ALLOC_CEILING`] per pass, on the portable and the
//! detected tier.
//!
//! A [`LineStore`] filled with 20 000 lines never holds more than
//! [`STORE_PEAK_BYTES_PER_LINE`] heap bytes per line, and rewriting
//! them allocates nothing.
//!
//! The counting allocator keeps its counts per thread, so tests running
//! in parallel never see each other's allocations. No simulator code
//! spawns threads, so the counts see every allocation a gate makes.

use ccnvm::obs::flight::FlightConfig;
use ccnvm::prelude::*;
use ccnvm::recovery::{recover_with, RecoveryScratch};
use ccnvm_crypto::CryptoSelect;
use ccnvm_mem::{LineAddr, LineStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and heap bytes per
/// thread. `realloc` and `alloc_zeroed` go through `alloc` (and
/// `realloc` through `dealloc`), so a reallocation counts as one
/// allocation and briefly holds both blocks, as a moving one does.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread; negative once
    /// it frees more than it allocated (another thread's blocks).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE` since `peak_bytes_in` last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are `const`
// thread-locals of types without `Drop`, so touching them never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread's counts may already be gone while it exits.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size() as i64);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        // SAFETY: the caller's obligations on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` through `alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The most heap bytes this thread holds at once while `f` runs, over
/// what it held before.
fn peak_bytes_in(f: impl FnOnce()) -> u64 {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    f();
    (PEAK.with(Cell::get) - before) as u64
}

/// The crypto tier selections every hot path runs under.
const TIERS: [CryptoSelect; 2] = [CryptoSelect::Portable, CryptoSelect::Auto];

const WRITE_BACKS: u64 = 1024;
const READS: u64 = 2048;
const EPOCHS: u64 = 16;
const RECOVERIES: u64 = 4;

/// Working set of the write-back stream: 64 pages, small enough that
/// counters and BMT nodes stay resident in the metadata cache, so the
/// steady state is the pure hot path plus the amortized epoch drains.
const WB_PAGES: u64 = 64;

/// Recovery's allocation ceiling with a reused scratch. The working
/// line-store clone (which becomes the recovered image: its slot
/// index, its slab table and one slab per 512 lines), the layout's two
/// level tables, the per-level default nodes and the three-span
/// timeline remain; address walks, retry bookkeeping and rebuild
/// levels come from the scratch. A pass over this one-slab image makes
/// about 7; the ceiling leaves headroom for map-growth jitter only.
const RECOVERY_ALLOC_CEILING: f64 = 8.0;

/// Distinct lines the store gate writes.
const STORE_LINES: u64 = 20_000;

/// A line store's heap ceiling per line it holds: 64 bytes of content
/// plus its index entry, its share of a partly filled slab and the
/// index table it outgrew, which is freed only after the move.
const STORE_PEAK_BYTES_PER_LINE: f64 = 100.0;

fn memory(design: DesignKind, crypto: CryptoSelect) -> SecureMemory {
    let mut config = SimConfig::paper(design);
    config.crypto = crypto;
    SecureMemory::new(config).expect("paper config")
}

/// Deterministic data-line stream: addresses cycle through `pages`
/// 4 KB pages with a rotating line offset, so write-backs exercise
/// distinct counter-to-root paths and churn the dirty address queue
/// and the metadata cache.
fn addr(i: u64, pages: u64) -> LineAddr {
    let page = (i * 7) % pages;
    let off = (i * 13) % 64;
    LineAddr(page * 64 + off)
}

/// Runs `hot_path` (which returns the allocations of its measured
/// region) on every tier and requires zero from each.
fn assert_allocation_free(name: &str, hot_path: impl Fn(CryptoSelect) -> u64) {
    for crypto in TIERS {
        let allocs = hot_path(crypto);
        assert_eq!(
            allocs, 0,
            "{name}/{crypto:?}: {allocs} allocations — the hot path must not allocate"
        );
    }
}

fn write_back_allocs(design: DesignKind, crypto: CryptoSelect) -> u64 {
    write_back_allocs_on(memory(design, crypto))
}

fn write_back_allocs_on(mut m: SecureMemory) -> u64 {
    // Warm-up: first-touch growth of the backing maps and caches
    // happens here, outside the measured region.
    for i in 0..WRITE_BACKS {
        m.write_back(addr(i, WB_PAGES), i * 400)
            .expect("attack-free run");
    }
    // An attached flight ring is full by now, so every measured entry
    // also evicts one.
    assert!(
        m.flight().is_none_or(|ring| ring.dropped() > 0),
        "the warm-up must overflow the flight ring"
    );
    allocs_in(|| {
        for i in WRITE_BACKS..2 * WRITE_BACKS {
            m.write_back(addr(i, WB_PAGES), i * 400)
                .expect("attack-free run");
        }
    })
}

#[test]
fn ccnvm_write_back_is_allocation_free() {
    assert_allocation_free("write_back", |crypto| {
        write_back_allocs(DesignKind::CcNvm, crypto)
    });
}

#[test]
fn sc_write_back_is_allocation_free() {
    assert_allocation_free("write_back_sc", |crypto| {
        write_back_allocs(DesignKind::StrictConsistency, crypto)
    });
}

/// Every persisted line writes two boundary brackets into the ring.
#[test]
fn sc_write_back_with_a_full_flight_ring_is_allocation_free() {
    assert_allocation_free("write_back_sc_flight", |crypto| {
        let mut m = memory(DesignKind::StrictConsistency, crypto);
        m.attach_flight(FlightConfig::default());
        write_back_allocs_on(m)
    });
}

#[test]
fn read_is_allocation_free() {
    assert_allocation_free("read", |crypto| {
        let mut m = memory(DesignKind::CcNvm, crypto);
        for i in 0..256u64 {
            m.write_back(addr(i, 64), i * 400).expect("attack-free run");
        }
        m.drain(1_000_000_000, DrainTrigger::External);
        allocs_in(|| {
            let mut now = 2_000_000_000u64;
            for i in 0..READS {
                m.read_data(addr(i, 64), now).expect("verified read");
                now += 400;
            }
        })
    });
}

#[test]
fn drain_is_allocation_free() {
    // One epoch: a handful of write-backs, then the external end-signal
    // drain that stages and commits the dirty metadata.
    let epoch = |m: &mut SecureMemory, e: u64, now: &mut u64| {
        for i in 0..8u64 {
            m.write_back(addr(e * 8 + i, 64), *now)
                .expect("attack-free run");
            *now += 400;
        }
        *now += 100_000;
        m.drain(*now, DrainTrigger::External);
    };
    assert_allocation_free("drain", |crypto| {
        // Warm-up: the same epoch loop once, so the line store, the
        // dirty queue and the drain scratch reach their working-set
        // size. The address stream has period 64, so the measured
        // epochs revisit exactly this working set.
        let mut m = memory(DesignKind::CcNvm, crypto);
        let mut now = 0u64;
        for e in 0..EPOCHS {
            epoch(&mut m, e, &mut now);
        }
        allocs_in(|| {
            for e in EPOCHS..2 * EPOCHS {
                epoch(&mut m, e, &mut now);
            }
        })
    });
}

#[test]
fn recovery_with_a_reused_scratch_stays_under_its_ceiling() {
    for crypto in TIERS {
        let tier = crypto.resolve().expect("portable and auto always resolve");
        let image = {
            let mut m = memory(DesignKind::CcNvm, crypto);
            for i in 0..128u64 {
                m.write_back(addr(i, 64), i * 400).expect("attack-free run");
            }
            m.drain(1_000_000_000, DrainTrigger::External);
            m.crash_image()
        };
        // Warm-up: the scratch buffers reach their high-water capacity.
        let mut scratch = RecoveryScratch::default();
        assert!(recover_with(&image, tier, &mut scratch).is_clean());
        let allocs = allocs_in(|| {
            for _ in 0..RECOVERIES {
                let report = recover_with(&image, tier, &mut scratch);
                assert!(report.is_clean(), "a clean image must recover clean");
            }
        });
        let per_op = allocs as f64 / RECOVERIES as f64;
        assert!(
            per_op <= RECOVERY_ALLOC_CEILING,
            "recovery on {tier:?}: {per_op:.2} allocations per pass exceeds the \
             scratch-reuse ceiling of {RECOVERY_ALLOC_CEILING}"
        );
    }
}

#[test]
fn line_store_peak_heap_stays_under_its_per_line_ceiling() {
    let mut store = LineStore::new();
    let line = |i: u64| (LineAddr(i * 64 + i % 64), [i as u8; 64]);
    let peak = peak_bytes_in(|| {
        for i in 0..STORE_LINES {
            let (addr, content) = line(i);
            store.write(addr, content);
        }
    });
    assert_eq!(store.len() as u64, STORE_LINES);
    let per_line = peak as f64 / STORE_LINES as f64;
    assert!(
        per_line <= STORE_PEAK_BYTES_PER_LINE,
        "{STORE_LINES} lines peak at {per_line:.1} heap bytes per line, over the \
         ceiling of {STORE_PEAK_BYTES_PER_LINE}"
    );
    // Rewriting a stored line copies into its slot.
    let allocs = allocs_in(|| {
        for i in 0..STORE_LINES {
            let (addr, _) = line(i);
            store.write(addr, [!(i as u8); 64]);
        }
    });
    assert_eq!(allocs, 0, "rewriting stored lines must not allocate");
}
