//! Write-provenance and durability-lag pillar tests.
//!
//! The load-bearing invariant is *conservation*: the wear ledger's
//! per-cause attribution, summed, must equal the memory controller's
//! own write count on every design, workload, seed and crypto tier —
//! no write unexplained, none double-counted. The
//! exported `ccnvm-wear/1` document is additionally pinned
//! byte-for-byte (`tests/golden/wear.json`), regenerable with
//! `CCNVM_UPDATE_GOLDEN=1` like every other snapshot.

use ccnvm::obs::audit::{AuditCheck, AuditMode};
use ccnvm::obs::wear::{parse_wear, WearReport};
use ccnvm::prelude::*;
use ccnvm_bench::parallel::parallel_map;
use ccnvm_crypto::CryptoSelect;
use std::path::PathBuf;

const SEED: u64 = ccnvm_bench::SEED;

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
        "wear export diverged from {}.\n\
         If the change is intentional, regenerate with CCNVM_UPDATE_GOLDEN=1 \
         and commit the new snapshot.\n--- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

/// Runs `bench` on `design` with the full observability stack attached
/// (wear ledger, lag tracer, strict auditor) and returns the report.
/// The strict auditor checks conservation at every write-back, so a
/// mid-run divergence fails here even if it happened to cancel out by
/// the end.
fn instrumented_run(
    config: SimConfig,
    bench: &str,
    seed: u64,
    instructions: u64,
) -> (Simulator, WearReport) {
    let mut sim = Simulator::new(config).expect("valid config");
    sim.memory_mut().attach_wear();
    sim.memory_mut().attach_lag();
    sim.memory_mut().attach_auditor(AuditMode::Strict);
    let profile = profiles::by_name(bench).expect("known bench");
    sim.run(TraceGenerator::new(profile, seed), instructions)
        .expect("clean run");
    assert!(
        !sim.memory().audit_failed(),
        "strict auditor latched: {}",
        sim.memory().auditor().unwrap().report()
    );
    let report = sim
        .memory()
        .wear_report(bench, sim.instructions())
        .expect("ledger attached");
    (sim, report)
}

/// xorshift64* — deterministic point picker for the random matrix.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[test]
fn conservation_holds_across_a_seeded_random_matrix() {
    let benches = ["lbm", "libquantum", "gcc", "mixed"];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let points: Vec<(DesignKind, &str, u64, u64)> = (0..12)
        .map(|_| {
            let design = DesignKind::ALL[(xorshift(&mut state) % 5) as usize];
            let bench = benches[(xorshift(&mut state) % benches.len() as u64) as usize];
            let seed = xorshift(&mut state) % 1_000;
            let instructions = 30_000 + xorshift(&mut state) % 50_000;
            (design, bench, seed, instructions)
        })
        .collect();
    for &(design, bench, seed, instructions) in &points {
        let (_, report) = instrumented_run(SimConfig::small(design), bench, seed, instructions);
        assert!(
            report.conserved(),
            "{design} on {bench} (seed {seed}, {instructions} instrs): ledger \
             attributes {} of {} writes",
            report.attributed_writes,
            report.total_writes
        );
        assert!(report.total_writes > 0, "{design} on {bench}: no writes");
        let sum: u64 = report.causes.iter().map(|(_, w)| w).sum();
        assert_eq!(
            sum, report.attributed_writes,
            "causes must sum to the total"
        );
    }
}

/// The export must not depend on how the harness schedules independent
/// simulations: the same matrix fanned out on 1, 2 and 4 workers
/// renders byte-identically.
#[test]
fn exports_are_byte_identical_at_any_thread_count() {
    let render = |threads: usize| {
        let designs: Vec<DesignKind> = DesignKind::ALL.to_vec();
        parallel_map(&designs, threads, |_, &d| {
            let (_, report) = instrumented_run(SimConfig::small(d), "lbm", SEED, 50_000);
            report.to_json()
        })
        .join("")
    };
    let serial = render(1);
    assert_eq!(serial, render(2));
    assert_eq!(serial, render(4));
}

/// Crypto tiers change wall-clock speed, never simulated behavior —
/// the wear/lag export included.
#[test]
fn exports_are_byte_identical_across_crypto_tiers() {
    let render = |crypto: CryptoSelect| {
        let mut config = SimConfig::small(DesignKind::CcNvm);
        config.crypto = crypto;
        if config.validate().is_err() {
            return None; // tier unavailable on this host/build
        }
        let (_, report) = instrumented_run(config, "lbm", SEED, 50_000);
        Some(report.to_json())
    };
    let baseline = render(CryptoSelect::Portable).expect("portable always exists");
    for crypto in [CryptoSelect::Auto, CryptoSelect::Simd] {
        if let Some(json) = render(crypto) {
            assert_eq!(baseline, json, "{crypto:?} diverged from portable");
        }
    }
}

#[test]
fn wear_export_matches_pinned_snapshot() {
    let (_, report) = instrumented_run(SimConfig::small(DesignKind::CcNvm), "lbm", SEED, 100_000);
    let json = report.to_json();
    assert_matches_golden("wear.json", &json);
    // The pinned document must also round-trip through the parser the
    // `report --wear` path uses.
    let parsed = parse_wear(&json).expect("golden parses");
    assert_eq!(parsed, report);
    assert!(parsed.conserved());
}

/// The negative path: a deliberately skewed ledger must trip the
/// strict auditor's conservation check at the next checkpoint.
#[test]
fn attribution_desync_trips_the_strict_auditor() {
    let mut sim = Simulator::new(SimConfig::small(DesignKind::CcNvm)).expect("valid config");
    sim.memory_mut().attach_wear();
    sim.memory_mut().attach_auditor(AuditMode::Strict);
    sim.memory_mut().inject_wear_attribution_desync();
    let now = sim.cycles();
    sim.memory_mut().audit_now(now);
    assert!(sim.memory().audit_failed(), "skew must latch under strict");
    let auditor = sim.memory().auditor().unwrap();
    assert!(
        auditor
            .violations()
            .iter()
            .any(|v| v.check == AuditCheck::WearConservation),
        "expected a wear-conservation violation, got: {}",
        auditor.report()
    );
}

#[test]
fn lag_distributions_are_sane_on_every_design() {
    for design in DesignKind::ALL {
        let (sim, report) = instrumented_run(SimConfig::small(design), "lbm", SEED, 100_000);
        let lag = report.lag;
        assert!(
            lag.resolved > 0,
            "{design}: no write-back ever became durable"
        );
        assert!(
            lag.p50 <= lag.p99 && lag.p99 <= lag.p999,
            "{design}: {lag:?}"
        );
        assert!(lag.mean <= lag.max, "{design}: {lag:?}");
        if design.has_drainer() {
            // Epoch batching defers durability: commits happen at
            // drains, so some lag must be visible (the window the
            // paper bounds by N_wb).
            assert!(lag.max > 0, "{design}: drainer lag collapsed to zero");
        }
        // Whatever is still pending is bounded by what the dirty queue
        // can still be holding for a future epoch.
        let tracer = sim.memory().lag().unwrap();
        assert_eq!(tracer.summary(), lag, "summary must be stable");
    }
}

/// FNV-1a, 64-bit.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Durability-lag summaries in `DesignKind::ALL` order, lbm rows then
/// mixed rows: `resolved`, `unresolved`, `p50`, `p99`, `p999`, `mean`
/// and `max`.
const LAG_SUMMARIES: [[u64; 7]; 10] = [
    [2322, 0, 511, 2047, 4095, 607, 2514],
    [2322, 0, 2047, 8191, 8191, 1802, 7204],
    [2322, 0, 2047, 8191, 8191, 1767, 7204],
    [2302, 20, 8191, 32767, 65535, 8369, 45374],
    [2307, 15, 32767, 65535, 65535, 18113, 68767],
    [4802, 0, 511, 2047, 4095, 579, 3330],
    [4802, 0, 2047, 8191, 8191, 1438, 6727],
    [4802, 0, 2047, 8191, 8191, 1456, 6727],
    [4777, 25, 8191, 32767, 32767, 5915, 29647],
    [4721, 81, 32767, 65535, 65535, 19881, 54962],
];

/// The same runs' FNV-1a digests of `recent_spans()` and of the
/// metrics JSONL export.
const LAG_DIGESTS: [[u64; 2]; 10] = [
    [0x4497_37f8_e5ae_a701, 0x70f6_e60b_7e56_7d11],
    [0xfae3_69f7_77ca_a0e1, 0xd0c0_7e42_f234_98b2],
    [0xaf87_ee6b_0662_088e, 0x5451_e3d3_fc4e_5ba4],
    [0x6bc0_f9ea_afd5_1464, 0xa61c_7fd9_13a6_c35a],
    [0x26ac_10db_4304_d43d, 0xd8e3_efa4_845b_88a5],
    [0xd618_57f1_7343_998d, 0x5fd5_70da_ca6d_2d1d],
    [0x1fc7_ea52_d260_6337, 0x03f8_1f53_787a_e65f],
    [0x4499_1b68_6b75_7e80, 0x1c9a_5d04_adf7_bb4a],
    [0xe83d_4cd5_02e2_d40a, 0xfb46_79b2_04a8_de57],
    [0xafc5_dd79_469d_6ac8, 0xf591_1716_2353_7893],
];

/// The durability lag of every design, pinned: where each design
/// resolves a write-back's stamp decides every number here, and the
/// metrics export samples the tracer mid-run through its
/// `lag_pending`/`lag_p99` gauges.
#[test]
fn durability_lag_is_pinned_on_every_design() {
    let points: Vec<(&str, DesignKind)> = ["lbm", "mixed"]
        .into_iter()
        .flat_map(|bench| DesignKind::ALL.map(|d| (bench, d)))
        .collect();
    for (k, &(bench, design)) in points.iter().enumerate() {
        let mut sim = Simulator::new(SimConfig::small(design)).expect("valid config");
        let mem = sim.memory_mut();
        mem.attach_wear();
        mem.attach_lag();
        mem.attach_metrics(ccnvm::obs::metrics::MetricsConfig::default());
        let profile = profiles::by_name(bench).expect("known bench");
        sim.run(TraceGenerator::new(profile, SEED), 100_000)
            .expect("clean run");
        let lag = sim.memory().lag().expect("attached");
        let s = lag.summary();
        let spans = fnv(lag.recent_spans().flat_map(|(issue, commit)| {
            issue.to_le_bytes().into_iter().chain(commit.to_le_bytes())
        }));
        let mut metrics = Vec::new();
        sim.memory()
            .metrics()
            .expect("attached")
            .write_jsonl(&mut metrics)
            .unwrap();
        let summary = [
            s.resolved,
            s.unresolved,
            s.p50,
            s.p99,
            s.p999,
            s.mean,
            s.max,
        ];
        assert_eq!(summary, LAG_SUMMARIES[k], "{design} on {bench}");
        assert_eq!([spans, fnv(metrics)], LAG_DIGESTS[k], "{design} on {bench}");
    }
}
