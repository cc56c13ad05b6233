//! Integration tests for the sharded secure-memory service.
//!
//! Three guarantees are pinned here, on top of the unit tests in
//! `ccnvm::shard`:
//!
//! 1. **Routing is a partition.** Every physical address maps to
//!    exactly one shard, the router's choice agrees with the
//!    [`ShardedBackend`] ownership predicate each shard enforces at
//!    its durability seam, and aliased addresses co-locate.
//! 2. **`--shards 1` is the identity.** The single-shard router's
//!    matrix output is byte-identical to the pre-sharding golden
//!    snapshot (`tests/golden/stats.txt`), and per-shard stats sum to
//!    the single-owner totals.
//! 3. **Multi-shard output is pinned.** The 2- and 4-shard matrices
//!    and the 4-shard merged stage profile have their own golden
//!    snapshots, identical across worker-thread counts. Regenerate intentionally changed snapshots
//!    with `CCNVM_UPDATE_GOLDEN=1 cargo test --test sharding`.

use ccnvm::prelude::*;
use ccnvm_bench::parallel::parallel_map;
use ccnvm_mem::addr::LINES_PER_PAGE;
use ccnvm_mem::{Addr, ShardedBackend, LINE_SIZE};
use ccnvm_trace::{OpKind, TraceOp};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Instruction budget per matrix point (matches `golden_stats.rs` so
/// the shards=1 matrix can be compared against its snapshot).
const INSTRUCTIONS: u64 = 100_000;

/// Instruction budget for the 4-shard profile snapshot — the exact
/// run the CI sharded profile-regression job performs through the
/// CLI (`run --shards 4 --design ccnvm --bench lbm --instructions
/// 200000 --profile-out`).
const PROFILE_INSTRUCTIONS: u64 = 200_000;

/// Fixed seed shared with the figure harness and the CLI default.
const SEED: u64 = ccnvm_bench::SEED;

/// Same write-heavy/read-heavy pair as the golden-stats matrix.
const BENCHES: [&str; 2] = ["lbm", "libquantum"];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("CCNVM_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); regenerate with CCNVM_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "sharded output diverged from {}.\n\
         If the change is intentional, regenerate with CCNVM_UPDATE_GOLDEN=1 \
         and commit the new snapshot.\n--- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

/// Runs the benchmark × design matrix through a `shards`-way router
/// on `threads` workers and renders every merged `RunStats` in the
/// same format as the `golden_stats.rs` matrix.
fn render_sharded_matrix(shards: u32, threads: usize) -> String {
    let points: Vec<(String, DesignKind)> = BENCHES
        .iter()
        .flat_map(|b| DesignKind::ALL.iter().map(|&d| (b.to_string(), d)))
        .collect();
    let stats = parallel_map(&points, threads, |_, (bench, design)| {
        let profile = profiles::by_name(bench).expect("known benchmark");
        let mut router =
            ShardRouter::new(SimConfig::paper(*design), shards).expect("valid topology");
        router
            .run(TraceGenerator::new(profile, SEED), INSTRUCTIONS)
            .expect("attack-free run is clean")
    });
    let mut out = String::new();
    for ((bench, design), s) in points.iter().zip(&stats) {
        writeln!(out, "{bench}/{design:?}: {s:#?}\n").unwrap();
    }
    out
}

/// The merged 4-shard stage profile for cc-NVM on lbm — byte-for-byte
/// what the CLI writes for the CI compare job.
fn render_sharded_profile(shards: u32) -> String {
    let profile = profiles::by_name("lbm").expect("known benchmark");
    let mut router =
        ShardRouter::new(SimConfig::paper(DesignKind::CcNvm), shards).expect("valid topology");
    for shard in router.shards_mut() {
        shard.memory_mut().attach_profiler();
    }
    router
        .run(TraceGenerator::new(profile, SEED), PROFILE_INSTRUCTIONS)
        .expect("attack-free run is clean");
    router
        .merged_profile()
        .expect("profilers attached")
        .to_json("ccnvm", "lbm", PROFILE_INSTRUCTIONS)
}

/// Property: over several topologies and a pseudo-random address
/// stream, the router picks exactly the shard whose [`ShardedBackend`]
/// owns the page — no address is orphaned or claimed twice.
#[test]
fn every_address_routes_to_exactly_one_owning_shard() {
    for shard_count in [1u32, 2, 3, 4, 8] {
        let router =
            ShardRouter::new(SimConfig::paper(DesignKind::CcNvm), shard_count).expect("topology");
        let data_lines = router.shard(0).memory().layout().data_lines();
        let backends: Vec<ShardedBackend> = (0..u64::from(shard_count))
            .map(|i| ShardedBackend::new(i, u64::from(shard_count), data_lines))
            .collect();
        // xorshift64* keeps the stream deterministic without pulling
        // in an RNG dependency.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4096 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let addr = Addr(x.wrapping_mul(0x2545_f491_4f6c_dd1d) % (2 * data_lines * LINE_SIZE));
            let op = TraceOp {
                gap_instrs: 0,
                kind: OpKind::Read,
                addr,
            };
            let chosen = router.shard_of(&op);
            let line = ccnvm_mem::LineAddr(op.addr.line().0 % data_lines);
            let owners: Vec<usize> = (0..shard_count as usize)
                .filter(|&i| backends[i].owns(line))
                .collect();
            assert_eq!(
                owners,
                vec![chosen],
                "{addr:?} with {shard_count} shards: router chose {chosen}, owners {owners:?}"
            );
            // Every line of the same page co-locates with it.
            let page_base = (op.addr.line().0 / LINES_PER_PAGE) * LINES_PER_PAGE;
            let sibling = TraceOp {
                addr: Addr((page_base + (x % LINES_PER_PAGE)) * LINE_SIZE),
                ..op
            };
            assert_eq!(
                router.shard_of(&sibling),
                chosen,
                "page must not straddle shards"
            );
        }
    }
}

/// At `--shards 1` the routed service is the single-owner service:
/// per-shard stats sum to exactly the bare simulator's totals.
#[test]
fn single_shard_stats_sum_to_single_owner_totals() {
    for bench in BENCHES {
        let profile = profiles::by_name(bench).expect("known benchmark");
        let mut router =
            ShardRouter::new(SimConfig::paper(DesignKind::CcNvm), 1).expect("topology");
        let routed = router
            .run(TraceGenerator::new(profile.clone(), SEED), INSTRUCTIONS)
            .expect("attack-free run is clean");
        let direct = run_profile(
            SimConfig::paper(DesignKind::CcNvm),
            &profile,
            INSTRUCTIONS,
            SEED,
        )
        .expect("attack-free run is clean");
        assert_eq!(routed, direct, "{bench}: routed totals diverge");
        assert_eq!(router.shard(0).stats(), direct, "{bench}: shard 0 != bare");
    }
}

/// The 1-shard matrix must be byte-identical to the pre-sharding
/// snapshot — sharding may not perturb the degenerate case at all.
#[test]
fn single_shard_matrix_matches_pre_sharding_golden() {
    assert_matches_golden("stats.txt", &render_sharded_matrix(1, 1));
}

#[test]
fn two_shard_matrix_matches_pinned_snapshot() {
    assert_matches_golden("stats_shards2.txt", &render_sharded_matrix(2, 1));
}

#[test]
fn four_shard_matrix_matches_pinned_snapshot() {
    assert_matches_golden("stats_shards4.txt", &render_sharded_matrix(4, 1));
}

/// The merged 4-shard profile is pinned; CI re-derives it through the
/// CLI and compares at zero tolerance.
#[test]
fn four_shard_profile_matches_pinned_snapshot() {
    assert_matches_golden("profile_shards4.json", &render_sharded_profile(4));
}

/// Sharded output is a function of the simulated machine only: for
/// every shard count it must not depend on the harness thread count.
#[test]
fn sharded_output_is_identical_across_threads() {
    for shards in [1u32, 2, 4] {
        let reference = render_sharded_matrix(shards, 1);
        for threads in [2usize, 4] {
            assert_eq!(
                reference,
                render_sharded_matrix(shards, threads),
                "{shards} shards: output changed on {threads} threads"
            );
        }
    }
}

/// Service-wide crash with one shard mid-drain: every shard's image
/// recovers clean through the public recovery entry point.
#[test]
fn service_crash_with_one_shard_mid_drain_recovers_everywhere() {
    let profile = profiles::by_name("lbm").expect("known benchmark");
    let mut router = ShardRouter::new(SimConfig::paper(DesignKind::CcNvm), 4).expect("topology");
    router
        .run(TraceGenerator::new(profile, SEED), INSTRUCTIONS)
        .expect("attack-free run is clean");
    let victim = router
        .shard_gauges()
        .iter()
        .max_by_key(|g| g.dirty_queue_depth)
        .expect("gauges")
        .shard as usize;
    for i in 0..router.shard_count() as usize {
        if i != victim {
            router.shard_mut(i).flush_caches().expect("orderly drain");
        }
    }
    router.inject_mid_drain_crash(victim);
    let reports: Vec<RecoveryReport> = router.crash_images().iter().map(recover).collect();
    for (i, report) in reports.iter().enumerate() {
        assert!(report.is_clean(), "shard {i}: {report:?}");
        assert!(
            report.located.is_empty(),
            "shard {i}: phantom attacks on an attack-free crash"
        );
    }
}
