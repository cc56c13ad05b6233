//! Randomized tests for the core security machinery: split-counter
//! encoding, the sparse Merkle tree, and full crash/recovery round
//! trips under randomized workloads. Driven by the workspace's
//! deterministic PRNG so every failure is reproducible.

use ccnvm::bmt::Bmt;
use ccnvm::config::{DesignKind, SimConfig};
use ccnvm::counter::CounterLine;
use ccnvm::engine::CryptoEngine;
use ccnvm::layout::SecureLayout;
use ccnvm::recovery::recover;
use ccnvm::secmem::{DrainTrigger, SecureMemory};
use ccnvm::tcb::Keys;
use ccnvm_mem::{LineAddr, LineStore};
use ccnvm_rng::Rng;

/// Split-counter lines encode/decode losslessly for any contents.
#[test]
fn counter_line_codec_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xc0e1);
    for _ in 0..128 {
        let major = rng.next_u64();
        let minors: Vec<u8> = (0..64).map(|_| rng.gen_range(0u8..128)).collect();
        let mut ctr = CounterLine::new();
        for (i, &m) in minors.iter().enumerate() {
            ctr.set_minor(i, m);
        }
        // Stamp the major by bumping through an overflow-free route:
        // encode/decode must preserve whatever major we set, so build
        // the line content directly.
        let mut encoded = ctr.encode();
        encoded[..8].copy_from_slice(&major.to_le_bytes());
        let decoded = CounterLine::decode(&encoded);
        assert_eq!(decoded.major(), major);
        for (i, &m) in minors.iter().enumerate() {
            assert_eq!(decoded.minor(i), m, "minor {i}");
        }
        assert_eq!(CounterLine::decode(&decoded.encode()), decoded);
    }
}

/// The incrementally maintained root always equals a from-scratch
/// rebuild, for any update sequence.
#[test]
fn bmt_incremental_equals_rebuild() {
    let mut rng = Rng::seed_from_u64(0xc0e2);
    for _ in 0..64 {
        let layout = SecureLayout::new(1 << 20);
        let bmt = Bmt::new(layout, CryptoEngine::new(&Keys::from_seed(7)));
        let mut store = LineStore::new();
        let mut latest: std::collections::HashMap<u64, [u8; 64]> = Default::default();
        let updates = rng.gen_range(1usize..40);
        for _ in 0..updates {
            let idx = rng.gen_range(0u64..256);
            let content = [rng.gen_range(0u64..256) as u8; 64];
            store.write(bmt.layout().counter_line_at(idx), content);
            latest.insert(idx, content);
            bmt.update_path(&mut store, idx);
        }
        let (_, rebuilt) = bmt.rebuild(latest.into_iter().filter(|(_, c)| c != &[0u8; 64]));
        assert_eq!(bmt.root(&store), rebuilt);
    }
}

/// After any update sequence, every path verifies against the current
/// root — including untouched leaves.
#[test]
fn bmt_paths_verify_after_updates() {
    let mut rng = Rng::seed_from_u64(0xc0e3);
    for _ in 0..64 {
        let layout = SecureLayout::new(1 << 20);
        let bmt = Bmt::new(layout, CryptoEngine::new(&Keys::from_seed(9)));
        let mut store = LineStore::new();
        let mut root = bmt.default_root();
        let count = rng.gen_range(1usize..30);
        let updates: Vec<u64> = (0..count).map(|_| rng.gen_range(0u64..256)).collect();
        let probe = rng.gen_range(0u64..256);
        for (i, idx) in updates.iter().enumerate() {
            store.write(
                bmt.layout().counter_line_at(*idx),
                [(i as u8).wrapping_add(1); 64],
            );
            let (r, _) = bmt.update_path(&mut store, *idx);
            root = r;
        }
        for idx in updates.iter().chain([&probe]) {
            assert!(bmt.verify_path(&store, *idx, &root).is_ok(), "leaf {idx}");
        }
    }
}

/// Tampering with any materialized counter line is located by the
/// consistency scan at exactly that leaf.
#[test]
fn bmt_scan_locates_any_tamper() {
    let mut rng = Rng::seed_from_u64(0xc0e4);
    for _ in 0..64 {
        let layout = SecureLayout::new(1 << 20);
        let bmt = Bmt::new(layout, CryptoEngine::new(&Keys::from_seed(5)));
        let mut store = LineStore::new();
        let count = rng.gen_range(1usize..20);
        let updates: Vec<u64> = (0..count).map(|_| rng.gen_range(0u64..64)).collect();
        for (i, idx) in updates.iter().enumerate() {
            store.write(
                bmt.layout().counter_line_at(*idx),
                [(i as u8).wrapping_add(1); 64],
            );
            bmt.update_path(&mut store, *idx);
        }
        assert!(bmt.consistency_scan(&store).is_empty());
        let victim = updates[rng.gen_range(0usize..20) % updates.len()];
        let flip = rng.gen_range(1u8..=255);
        let line = bmt.layout().counter_line_at(victim);
        let mut content = store.read(line);
        content[0] ^= flip;
        store.write(line, content);
        let found = bmt.consistency_scan(&store);
        assert!(
            found
                .iter()
                .any(|m| m.child_level == 0 && m.child_index == victim),
            "tamper at leaf {victim} not located: {found:?}"
        );
    }
}

/// `Histogram::percentile` agrees with a sorted-reference nearest-rank
/// percentile, at bucket resolution, for random bounds, samples and
/// probe points — plus the empty and single-bucket edges.
#[test]
fn histogram_percentile_matches_sorted_reference() {
    use ccnvm::stats::Histogram;
    let mut rng = Rng::seed_from_u64(0xc0e8);

    // Edge: empty histogram reports 0 everywhere.
    let empty = Histogram::new(&[10]);
    for p in [0.0, 50.0, 100.0] {
        assert_eq!(empty.percentile(p), 0);
    }
    // Edge: everything in one bucket (the overflow bucket here) —
    // every percentile collapses to the recorded maximum.
    let mut single = Histogram::new(&[1]);
    for v in [3u64, 9, 4] {
        single.record(v);
    }
    for p in [0.0, 50.0, 100.0] {
        assert_eq!(single.percentile(p), 9);
    }

    for _ in 0..200 {
        let nbounds = rng.gen_range(1usize..8);
        let mut bounds = Vec::with_capacity(nbounds);
        let mut b = 0u64;
        for _ in 0..nbounds {
            b += rng.gen_range(1u64..100);
            bounds.push(b);
        }
        let mut h = Histogram::new(&bounds);
        let n = rng.gen_range(1usize..200);
        let mut samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..500)).collect();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let bucket_of = |v: u64| bounds.iter().position(|&bb| v < bb).unwrap_or(bounds.len());
        let random_p = rng.gen_range(0u64..=100) as f64;
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0, random_p] {
            let k = ((p / 100.0 * n as f64).ceil() as usize).max(1);
            let reference = samples[k - 1];
            let got = h.percentile(p);
            assert!(
                got >= reference,
                "p{p}: {got} < reference {reference} (bounds {bounds:?})"
            );
            assert_eq!(
                bucket_of(got),
                bucket_of(reference),
                "p{p}: percentile {got} not in the reference's bucket \
                 (reference {reference}, bounds {bounds:?})"
            );
        }
    }
}

/// `Histogram::mean` and `Histogram::max` agree exactly with a
/// sorted-reference computation for random bounds and samples — the
/// metrics `report --metrics` summarizer depends on both (mean must be
/// exact, not bucket-resolution, because the histogram tracks the raw
/// sum alongside the bucket counts).
#[test]
fn histogram_mean_and_max_match_sorted_reference() {
    use ccnvm::stats::Histogram;
    let mut rng = Rng::seed_from_u64(0xc0e9);

    // Edge: an empty histogram reports 0 for both.
    let empty = Histogram::new(&[16]);
    assert_eq!(empty.mean(), 0.0);
    assert_eq!(empty.max(), 0);

    for _ in 0..200 {
        let nbounds = rng.gen_range(1usize..8);
        let mut bounds = Vec::with_capacity(nbounds);
        let mut b = 0u64;
        for _ in 0..nbounds {
            b += rng.gen_range(1u64..100);
            bounds.push(b);
        }
        let mut h = Histogram::new(&bounds);
        let n = rng.gen_range(1usize..200);
        let mut samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..500)).collect();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let reference_max = *samples.last().unwrap();
        assert_eq!(h.max(), reference_max, "bounds {bounds:?}");
        let reference_mean = samples.iter().sum::<u64>() as f64 / n as f64;
        assert!(
            (h.mean() - reference_mean).abs() < 1e-9,
            "mean {} != reference {reference_mean} (bounds {bounds:?})",
            h.mean()
        );
    }
}

/// With a recorder attached, the exported trace is byte-identical
/// across repeated runs — the determinism `--trace-out` relies on at
/// any `--threads` count.
#[test]
fn trace_export_is_deterministic() {
    use ccnvm::obs::RecorderConfig;
    use ccnvm::prelude::{profiles, Simulator, TraceGenerator};

    let export = || {
        let mut sim = Simulator::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        sim.memory_mut().attach_recorder(RecorderConfig::default());
        let trace = TraceGenerator::new(profiles::mixed(), 11);
        sim.run(trace, 30_000).unwrap();
        let rec = sim.memory().recorder().expect("attached");
        let mut jsonl = Vec::new();
        rec.write_jsonl(&mut jsonl).unwrap();
        let mut csv = Vec::new();
        rec.write_csv(&mut csv).unwrap();
        (jsonl, csv, rec.epoch_report())
    };
    let a = export();
    let b = export();
    assert!(!a.0.is_empty(), "the run must trace events");
    assert_eq!(a, b);
}

/// Attribution conservation with every observer attached: for any
/// design, benchmark and seed, the profiler's per-stage cycles sum
/// *exactly* to the run counters — core stages to `cycles`, engine
/// stages to `engine_cycles` — and the NVM writes agree across all
/// four ledgers: `RunStats`, the profiler, the wear ledger and the
/// controller. The WPQ-stall stage is additionally pinned to the
/// controller's own wait-cycle counter. A strict auditor stays clean,
/// and the stats equal those of a detached twin run.
#[test]
fn profiler_conserves_cycles_and_writes() {
    use ccnvm::obs::audit::AuditMode;
    use ccnvm::obs::flight::FlightConfig;
    use ccnvm::obs::metrics::MetricsConfig;
    use ccnvm::obs::profile::{Domain, Stage};
    use ccnvm::obs::RecorderConfig;
    use ccnvm::prelude::{profiles, Simulator, TraceGenerator};

    let mut rng = Rng::seed_from_u64(0xc0e9);
    let benches = ["lbm", "libquantum", "milc", "gcc", "mixed"];
    for case in 0..12 {
        let design = DesignKind::ALL[case % DesignKind::ALL.len()];
        let bench = benches[rng.gen_range(0usize..benches.len())];
        let seed = rng.next_u64();
        let run = |observed: bool| {
            let mut sim = Simulator::new(SimConfig::small(design)).expect("valid config");
            if observed {
                let mem = sim.memory_mut();
                mem.attach_recorder(RecorderConfig::default());
                mem.attach_profiler();
                mem.attach_metrics(MetricsConfig::default());
                mem.attach_auditor(AuditMode::Strict);
                mem.attach_flight(FlightConfig::default());
                mem.attach_wear();
                mem.attach_lag();
            }
            let trace = TraceGenerator::new(profiles::by_name(bench).unwrap(), seed);
            sim.run(trace, 20_000).expect("attack-free run");
            if case % 3 == 0 {
                sim.flush_caches().expect("flush is attack-free");
            }
            sim
        };
        let sim = run(true);
        let stats = sim.stats();
        let mem = sim.memory();
        let label = format!("{design} on {bench} (seed {seed:#x})");
        let auditor = mem.auditor().expect("attached");
        assert!(!auditor.failed(), "{label}:\n{}", auditor.report());
        assert_eq!(
            stats,
            run(false).stats(),
            "{label}: observers changed the run"
        );
        let prof = mem.profiler().expect("attached");
        assert_eq!(
            prof.domain_cycles(Domain::Core),
            stats.cycles,
            "{label}: core stages must sum to total cycles"
        );
        assert_eq!(
            prof.domain_cycles(Domain::Engine),
            stats.engine_cycles,
            "{label}: engine stages must sum to engine cycles"
        );
        assert_eq!(prof.domain_cycles(Domain::Recovery), 0, "{label}");
        let writes = [
            prof.total_writes(),
            mem.wear().expect("attached").attributed_total(),
            mem.mem_stats().total_writes(),
        ];
        assert_eq!(
            writes,
            [stats.total_writes(); 3],
            "{label}: profiler, wear ledger and controller must count every write"
        );
        assert_eq!(
            prof.cycles_of(Stage::WpqStall),
            mem.mem_stats().wpq_wait_cycles,
            "{label}: WPQ stall attribution must match the controller"
        );
    }
}

/// One random workload step.
#[derive(Debug, Clone)]
enum Step {
    WriteBack(u64),
    Read(u64),
    Drain,
}

/// Samples a step with 4:2:1 write/read/drain weights over 48 lines.
fn random_step(rng: &mut Rng) -> Step {
    match rng.gen_range(0u32..7) {
        0..=3 => Step::WriteBack(rng.gen_range(0u64..48) * 64),
        4..=5 => Step::Read(rng.gen_range(0u64..48) * 64),
        _ => Step::Drain,
    }
}

fn random_steps(rng: &mut Rng) -> Vec<Step> {
    let n = rng.gen_range(1usize..60);
    (0..n).map(|_| random_step(rng)).collect()
}

/// For every crash-consistent design and any operation sequence: a
/// crash at the end recovers cleanly and reconstructs the exact
/// logical counter state and root.
#[test]
fn any_workload_crash_recovers_exactly() {
    let mut rng = Rng::seed_from_u64(0xc0e5);
    for case in 0..24 {
        let design = [
            DesignKind::StrictConsistency,
            DesignKind::OsirisPlus,
            DesignKind::CcNvmNoDs,
            DesignKind::CcNvm,
        ][case % 4];
        let steps = random_steps(&mut rng);
        let mut mem = SecureMemory::new(SimConfig::small(design)).expect("valid config");
        let mut now = 0u64;
        for step in &steps {
            now += 40_000;
            match step {
                Step::WriteBack(addr) => {
                    mem.write_back(LineAddr(addr / 64), now).expect("wb");
                }
                Step::Read(addr) => {
                    mem.read_data(LineAddr(addr / 64), now).expect("read");
                }
                Step::Drain => {
                    mem.drain(now, DrainTrigger::External);
                }
            }
        }
        let report = recover(&mem.crash_image());
        assert!(report.is_clean(), "{design}: {report:?}");
        let truth = mem.ground_truth();
        assert_eq!(report.rebuilt_root, truth.current_root, "{design}");
        for (line, content) in &truth.counter_lines {
            assert_eq!(
                &report.recovered_nvm.read(LineAddr(*line)),
                content,
                "{design}: counter {line:#x}"
            );
        }
        assert!(report.max_line_retries <= mem.config().update_limit as u64);
    }
}

/// Runtime functional integrity: after any operation sequence, every
/// previously written line still reads back (decrypts and
/// authenticates against its expected content).
#[test]
fn any_workload_reads_back() {
    let mut rng = Rng::seed_from_u64(0xc0e6);
    for _ in 0..24 {
        let steps = random_steps(&mut rng);
        let mut mem = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).expect("config");
        let mut now = 0u64;
        let mut written = std::collections::BTreeSet::new();
        for step in &steps {
            now += 40_000;
            match step {
                Step::WriteBack(addr) => {
                    mem.write_back(LineAddr(addr / 64), now).expect("wb");
                    written.insert(addr / 64);
                }
                Step::Read(addr) => {
                    mem.read_data(LineAddr(addr / 64), now).expect("read");
                }
                Step::Drain => {
                    mem.drain(now, DrainTrigger::External);
                }
            }
        }
        for line in written {
            now += 40_000;
            mem.read_data(LineAddr(line), now)
                .expect("read-back must verify");
        }
    }
}

/// One random tampering action against a crash image.
#[derive(Debug, Clone)]
enum Tamper {
    SpoofData(u64),
    SpliceData(u64, u64),
    SpoofCounter(u64),
    SpoofNode(u64),
    ReplayData(u64),
}

fn random_tamper(rng: &mut Rng) -> Tamper {
    match rng.gen_range(0u32..5) {
        0 => Tamper::SpoofData(rng.gen_range(0u64..16)),
        1 => Tamper::SpliceData(rng.gen_range(0u64..16), rng.gen_range(0u64..16)),
        2 => Tamper::SpoofCounter(rng.gen_range(0u64..4)),
        3 => Tamper::SpoofNode(rng.gen_range(0u64..4)),
        _ => Tamper::ReplayData(rng.gen_range(0u64..16)),
    }
}

/// Attack fuzzer: no random single tampering of a committed cc-NVM
/// crash image survives recovery undetected. (Tampers that restore a
/// value identical to the stored one are semantic no-ops and are
/// skipped.)
#[test]
fn no_random_tamper_escapes_detection() {
    use ccnvm::attack;
    let mut rng = Rng::seed_from_u64(0xc0e7);
    for case in 0..32 {
        let design = [
            DesignKind::StrictConsistency,
            DesignKind::CcNvmNoDs,
            DesignKind::CcNvm,
        ][case % 3];
        let tamper = random_tamper(&mut rng);
        if let Tamper::SpliceData(a, b) = tamper {
            if a == b {
                continue;
            }
        }
        // Two committed epochs over 16 lines spanning 4 pages.
        let mut mem = SecureMemory::new(SimConfig::small(design)).expect("config");
        let mut now = 0u64;
        for round in 0..2u64 {
            for i in 0..16u64 {
                now += 50_000;
                mem.write_back(LineAddr(i * 16 + round), now).expect("wb");
            }
            now += 100_000;
            mem.drain(now, DrainTrigger::External);
        }
        let old = {
            // An older epoch to replay from.
            let mut m2 = SecureMemory::new(SimConfig::small(design)).expect("config");
            let mut t = 0u64;
            for i in 0..16u64 {
                t += 50_000;
                m2.write_back(LineAddr(i * 16), t).expect("wb");
            }
            m2.drain(t + 100_000, DrainTrigger::External);
            m2.crash_image()
        };
        let clean_img = mem.crash_image();
        let mut img = clean_img.clone();
        let layout = ccnvm::layout::SecureLayout::new(img.capacity_bytes);
        match tamper {
            Tamper::SpoofData(i) => attack::spoof_data(&mut img, LineAddr(i * 16)),
            Tamper::SpliceData(a, b) => {
                attack::splice_data(&mut img, LineAddr(a * 16), LineAddr(b * 16));
            }
            Tamper::SpoofCounter(p) => {
                let line = layout.counter_line_of(LineAddr(p * 64));
                let mut c = img.nvm.read(line);
                c[9] ^= 0x10;
                img.nvm.write(line, c);
            }
            Tamper::SpoofNode(i) => attack::spoof_tree_node(&mut img, 1, i / 4),
            Tamper::ReplayData(i) => attack::replay_data(&mut img, &old, LineAddr(i * 16)),
        }
        // Semantic no-op (tamper wrote back identical bytes)?
        let changed = img
            .nvm
            .sorted_addrs()
            .iter()
            .any(|&l| img.nvm.read(l) != clean_img.nvm.read(l));
        if !changed {
            continue;
        }
        let report = recover(&img);
        assert!(
            !report.is_clean(),
            "{design}: tamper {tamper:?} escaped detection: {report}"
        );
    }
}
