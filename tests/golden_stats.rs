//! Golden-stats regression tests: the simulation output is pinned
//! byte-for-byte, so any perf work on the hot paths (keyed HMAC
//! midstates, allocation-free path walks, scratch buffers) that
//! accidentally changes *what* is simulated — not just how fast —
//! fails here immediately.
//!
//! Snapshots live in `tests/golden/`. After an *intentional* change to
//! simulated behavior, regenerate them with:
//!
//! ```text
//! CCNVM_UPDATE_GOLDEN=1 cargo test --test golden_stats
//! ```
//!
//! and commit the diff alongside the change that explains it.

use ccnvm::prelude::*;
use ccnvm_bench::parallel::parallel_map;
use ccnvm_crypto::CryptoSelect;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Instruction budget per matrix point — small enough to keep the suite
/// fast, large enough to cross several epochs per design.
const INSTRUCTIONS: u64 = 100_000;

/// Fixed seed shared with the figure harness.
const SEED: u64 = ccnvm_bench::SEED;

/// Instruction budget for the attribution-profile snapshots. Larger
/// than [`INSTRUCTIONS`] because the L2 absorbs all stores at 100k —
/// the engine domain only lights up once dirty lines start evicting
/// (~150k instructions on lbm).
const PROFILE_INSTRUCTIONS: u64 = 200_000;

/// The fig5-style matrix: a write-heavy and a read-heavy benchmark
/// across all five designs.
const BENCHES: [&str; 2] = ["lbm", "libquantum"];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the pinned snapshot `name`, or rewrites
/// the snapshot when `CCNVM_UPDATE_GOLDEN=1`.
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
        "simulation output diverged from {}.\n\
         If the change is intentional, regenerate with CCNVM_UPDATE_GOLDEN=1 \
         and commit the new snapshot.\n--- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

fn config(design: DesignKind, crypto: CryptoSelect) -> SimConfig {
    let mut c = SimConfig::paper(design);
    c.crypto = crypto;
    c
}

/// Runs the benchmark × design matrix on `threads` workers under the
/// `crypto` tier selection and renders every `RunStats` through its
/// `Debug` form, one matrix point per paragraph.
fn render_matrix(threads: usize, crypto: CryptoSelect) -> String {
    let points: Vec<(String, DesignKind)> = BENCHES
        .iter()
        .flat_map(|b| DesignKind::ALL.iter().map(|&d| (b.to_string(), d)))
        .collect();
    let stats = parallel_map(&points, threads, |_, (bench, design)| {
        let profile = profiles::by_name(bench).expect("known benchmark");
        run_profile(config(*design, crypto), &profile, INSTRUCTIONS, SEED)
            .expect("attack-free run is clean")
    });
    let mut out = String::new();
    for ((bench, design), s) in points.iter().zip(&stats) {
        writeln!(out, "{bench}/{design:?}: {s:#?}\n").unwrap();
    }
    out
}

/// Records a cc-NVM run under the `crypto` tier selection and exports
/// the event trace as JSONL bytes.
fn render_trace(crypto: CryptoSelect) -> Vec<u8> {
    let profile = profiles::by_name("lbm").expect("known benchmark");
    let mut sim = Simulator::new(config(DesignKind::CcNvm, crypto)).expect("paper config");
    sim.memory_mut().attach_recorder(RecorderConfig::default());
    sim.run(TraceGenerator::new(profile, SEED), INSTRUCTIONS)
        .expect("attack-free run is clean");
    let mut jsonl = Vec::new();
    sim.memory()
        .recorder()
        .expect("recorder attached")
        .write_jsonl(&mut jsonl)
        .expect("in-memory write");
    jsonl
}

/// Runs cc-NVM on lbm with the attribution profiler attached and
/// serializes the stage profile. This is exactly the run the CI
/// profile-smoke job performs, so the golden also anchors
/// `report --compare` at zero tolerance there.
fn render_profile() -> String {
    let profile = profiles::by_name("lbm").expect("known benchmark");
    let mut sim = Simulator::new(SimConfig::paper(DesignKind::CcNvm)).expect("paper config");
    sim.memory_mut().attach_profiler();
    sim.run(TraceGenerator::new(profile, SEED), PROFILE_INSTRUCTIONS)
        .expect("attack-free run is clean");
    sim.memory().profiler().expect("profiler attached").to_json(
        "ccnvm",
        "lbm",
        PROFILE_INSTRUCTIONS,
    )
}

/// Renders stage profiles for the whole matrix on `threads` workers,
/// one JSON document per point.
fn render_profile_matrix(threads: usize) -> String {
    let points: Vec<(String, DesignKind)> = BENCHES
        .iter()
        .flat_map(|b| DesignKind::ALL.iter().map(|&d| (b.to_string(), d)))
        .collect();
    let profiles_json = parallel_map(&points, threads, |_, (bench, design)| {
        let profile = profiles::by_name(bench).expect("known benchmark");
        let mut sim = Simulator::new(SimConfig::paper(*design)).expect("paper config");
        sim.memory_mut().attach_profiler();
        sim.run(TraceGenerator::new(profile, SEED), PROFILE_INSTRUCTIONS)
            .expect("attack-free run is clean");
        sim.memory().profiler().expect("profiler attached").to_json(
            &format!("{design:?}"),
            bench,
            PROFILE_INSTRUCTIONS,
        )
    });
    let mut out = String::new();
    for ((bench, design), json) in points.iter().zip(&profiles_json) {
        writeln!(out, "=== {bench}/{design:?} ===\n{json}").unwrap();
    }
    out
}

#[test]
fn stats_match_pinned_snapshot() {
    assert_matches_golden("stats.txt", &render_matrix(1, CryptoSelect::Auto));
}

#[test]
fn profile_matches_pinned_snapshot() {
    assert_matches_golden("profile.json", &render_profile());
}

/// Attribution is driven entirely by simulated time: the profile must
/// not depend on the host thread count.
#[test]
fn profile_is_identical_at_any_thread_count() {
    let single = render_profile_matrix(1);
    for threads in [2, 4] {
        assert_eq!(
            single,
            render_profile_matrix(threads),
            "stage profiles must be identical on {threads} threads"
        );
    }
}

#[test]
fn trace_matches_pinned_snapshot() {
    let jsonl = render_trace(CryptoSelect::Auto);
    let text = String::from_utf8(jsonl).expect("JSONL is UTF-8");
    assert_matches_golden("trace.jsonl", &text);
}

/// The SIMD crypto tier (SHA-NI, AES-NI) must be a pure speedup:
/// forcing the portable and SIMD tiers over the same matrix has to
/// produce byte-identical stats and traces — including every golden
/// snapshot, which is therefore tier-independent.
#[test]
fn crypto_tiers_are_bit_identical() {
    if CryptoSelect::Simd.resolve().is_err() {
        eprintln!("skipping: this build/host has no SIMD crypto tier");
        return;
    }
    let portable = render_matrix(1, CryptoSelect::Portable);
    assert_eq!(
        portable,
        render_matrix(1, CryptoSelect::Simd),
        "portable and SIMD crypto tiers must simulate identically"
    );
    assert_matches_golden("stats.txt", &portable);
    assert_eq!(
        render_trace(CryptoSelect::Portable),
        render_trace(CryptoSelect::Simd),
        "recorded traces must not depend on the crypto tier"
    );
}

/// The harness fans matrix points out across worker threads; results
/// must not depend on the thread count.
#[test]
fn output_is_identical_at_any_thread_count() {
    let single = render_matrix(1, CryptoSelect::Auto);
    for threads in [2, 4] {
        assert_eq!(
            single,
            render_matrix(threads, CryptoSelect::Auto),
            "matrix output must be identical on {threads} threads"
        );
    }
}
