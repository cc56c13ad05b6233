//! Exhaustive crash-point injection on the file-backed store: every
//! persist boundary a workload crosses — WPQ retirements, drain
//! stagings, root alternations, `N_wb` updates, manifest swaps — is
//! killed once, the directory is reopened from disk, and recovery must
//! come back clean (with and without a torn tail record). The flight
//! sidecar closes the forensic loop: for every kill, the recovered
//! log's inferred cause must name exactly the boundary that was armed.
//! The price of that durability — fsyncs and bytes written under each
//! fsync strategy and epoch length — is pinned exactly, and so is what
//! the benchmark's restart (reopen, snapshot, recover) yields.

use ccnvm::prelude::*;
use ccnvm::secmem::SecureMemory;
use ccnvm_mem::{DurableBackend, FileBackend, FileBackendConfig, FsyncStrategy, LineAddr};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ccnvm-it-sweep-{tag}-{}-{n}", std::process::id()))
}

/// A deterministic workload that exercises write-backs, repeated
/// updates to the same line, an explicit epoch drain and post-drain
/// traffic — enough to cross every boundary class a design has.
fn workload(mem: &mut SecureMemory) {
    for i in 0..5u64 {
        mem.write_back(LineAddr(i * 64), i * 100_000).expect("wb");
    }
    mem.write_back(LineAddr(0), 700_000).expect("wb");
    mem.drain(1_000_000, DrainTrigger::External);
    mem.write_back(LineAddr(64), 2_000_000).expect("wb");
    mem.write_back(LineAddr(0), 2_100_000).expect("wb");
}

#[test]
fn every_design_recovers_clean_at_every_file_backed_boundary() {
    for design in DesignKind::ALL {
        let dir = temp_dir(&design.to_string().replace([' ', '/'], "-"));
        let config = SimConfig::small(design);
        let report = sweep_crash_points(&config, &dir, &workload).expect("sweep runs");
        assert!(report.boundaries > 0, "{design}: no boundaries crossed");
        assert!(report.all_clean(), "{design}: {report}");
        // Forensic cause attribution: every kill's recovered flight
        // log must blame the boundary the kill was armed at, for every
        // boundary class the design crosses.
        assert!(report.cause_attribution_ok(), "{design}: {report}");
        for outcome in &report.outcomes {
            assert_eq!(
                outcome.inferred_cause.as_deref(),
                Some(outcome.label.as_str()),
                "{design}: boundary #{} misattributed",
                outcome.boundary
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn boundary_classes_match_each_design_consistency_mechanism() {
    let has =
        |report: &CrashSweepReport, label: &str| report.labels_seen.iter().any(|l| l == label);
    for design in DesignKind::ALL {
        let dir = temp_dir("classes");
        let config = SimConfig::small(design);
        let report = sweep_crash_points(&config, &dir, &workload).expect("sweep runs");
        std::fs::remove_dir_all(&dir).ok();

        assert!(
            has(&report, "wpq-retire"),
            "{design}: {:?}",
            report.labels_seen
        );
        if design.updates_root_every_wb() {
            assert!(
                has(&report, "root-alternate"),
                "{design}: eager-root designs flip the root every write-back: {:?}",
                report.labels_seen
            );
            assert!(
                !has(&report, "nwb-update"),
                "{design}: {:?}",
                report.labels_seen
            );
        } else {
            assert!(
                has(&report, "nwb-update"),
                "{design}: N_wb designs bump the register every write-back: {:?}",
                report.labels_seen
            );
        }
        if design.has_drainer() {
            assert!(
                has(&report, "drain-stage") && has(&report, "root-alternate"),
                "{design}: drainer designs stage and then alternate roots: {:?}",
                report.labels_seen
            );
        } else {
            assert!(
                !has(&report, "drain-stage"),
                "{design}: {:?}",
                report.labels_seen
            );
        }
    }
}

#[test]
fn sweep_crosses_a_manifest_swap_when_compaction_triggers() {
    // The harness opens its backends with a low compaction threshold;
    // a workload with enough persists must cross the three
    // manifest-swap sub-boundaries (tmp synced, renamed, log cut).
    let dir = temp_dir("manifest");
    let config = SimConfig::small(DesignKind::CcNvm);
    let heavy = |mem: &mut SecureMemory| {
        for round in 0..4u64 {
            for i in 0..6u64 {
                mem.write_back(LineAddr(i * 64), round * 1_000_000 + i * 100_000)
                    .expect("wb");
            }
            mem.drain((round + 1) * 1_000_000, DrainTrigger::External);
        }
    };
    let report = sweep_crash_points(&config, &dir, &heavy).expect("sweep runs");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        report.labels_seen.iter().any(|l| l == "manifest-swap"),
        "compaction never triggered: {:?}",
        report.labels_seen
    );
    assert!(report.all_clean(), "{report}");
    // Kills inside a manifest swap must still be attributed exactly,
    // even though compaction rotates the flight sidecar.
    assert!(report.cause_attribution_ok(), "{report}");
}

/// `(fsync strategy, epoch length in write-backs, fsyncs, bytes
/// written)` for 2 000 cc-NVM write-backs on a fresh store. Bytes
/// depend only on the epoch length: longer epochs coalesce more
/// metadata updates into each drain. Fsyncs depend on both axes.
const FSYNC_COSTS: [(FsyncStrategy, u64, u64, u64); 15] = [
    (FsyncStrategy::Always, 4, 2500, 1_114_125),
    (FsyncStrategy::Always, 16, 2125, 748_250),
    (FsyncStrategy::Always, 64, 2062, 648_052),
    (FsyncStrategy::Batch(8), 4, 1500, 1_114_125),
    (FsyncStrategy::Batch(8), 16, 1125, 748_250),
    (FsyncStrategy::Batch(8), 64, 1032, 648_052),
    (FsyncStrategy::Batch(64), 4, 250, 1_114_125),
    (FsyncStrategy::Batch(64), 16, 189, 748_250),
    (FsyncStrategy::Batch(64), 64, 158, 648_052),
    (FsyncStrategy::Interval(10_000), 4, 190, 1_114_125),
    (FsyncStrategy::Interval(10_000), 16, 98, 748_250),
    (FsyncStrategy::Interval(10_000), 64, 100, 648_052),
    (FsyncStrategy::Interval(100_000), 4, 23, 1_114_125),
    (FsyncStrategy::Interval(100_000), 16, 11, 748_250),
    (FsyncStrategy::Interval(100_000), 64, 12, 648_052),
];

#[test]
fn fsync_and_byte_costs_are_pinned_per_strategy_and_epoch_length() {
    for (strategy, epoch_len, fsyncs, bytes_written) in FSYNC_COSTS {
        let dir = temp_dir("fsync-cost");
        let store = FileBackend::open(
            &dir,
            FileBackendConfig {
                fsync: strategy,
                ..FileBackendConfig::default()
            },
        )
        .expect("fresh store");
        let io = store.io_counters();
        let mut mem =
            SecureMemory::with_backend(SimConfig::paper(DesignKind::CcNvm), Box::new(store))
                .expect("paper config");
        let mut now = 0;
        for i in 0..2_000u64 {
            // Cycle through 64 pages with a rotating line offset.
            let line = LineAddr((i * 7) % 64 * 64 + (i * 13) % 64);
            mem.write_back(line, now).expect("attack-free run");
            now += 400;
            if (i + 1) % epoch_len == 0 {
                mem.drain(now, DrainTrigger::External);
                now += 400;
            }
        }
        mem.sync_durable();
        drop(mem);
        std::fs::remove_dir_all(&dir).ok();
        let s = io.stats();
        assert_eq!(
            (s.fsyncs, s.bytes_written),
            (fsyncs, bytes_written),
            "fsync={strategy}, epoch length {epoch_len}"
        );
    }
}

/// What one restart of the benchmark's crash cycle yields.
#[derive(Debug, PartialEq, Eq)]
struct Restart {
    /// Durable lines in the reopened store's snapshot.
    lines: usize,
    total_retries: u64,
    max_line_retries: u64,
    recovered_counter_lines: u64,
    recovery_cycles: u64,
    /// The rebuilt root, read big-endian.
    rebuilt_root: u128,
    /// FNV-1a, 64-bit, over `recovered_nvm` in address order (address
    /// bytes, then content).
    digest: u64,
}

/// Runs `design` on `mixed` at seed 42 over a fresh `batch:64` file
/// store with default compaction for `instructions`, syncs, cuts power
/// (drops the simulator), reopens the store and recovers its
/// snapshot: the benchmark's crash-recover cycle.
fn restart(design: DesignKind, instructions: u64) -> Restart {
    let dir = temp_dir("restart");
    let store_config = FileBackendConfig {
        fsync: FsyncStrategy::Batch(64),
        ..FileBackendConfig::default()
    };
    let config = SimConfig::paper(design);
    let backend = FileBackend::open(&dir, store_config).expect("fresh store");
    let mut sim = Simulator::with_backend(config.clone(), Box::new(backend)).expect("paper config");
    let trace = TraceGenerator::new(profiles::by_name("mixed").expect("mixed"), 42);
    sim.run(trace, instructions).expect("attack-free run");
    sim.memory_mut().sync_durable();
    // The TCB registers are battery-backed: they survive the power cut.
    let tcb = sim.memory().tcb().clone();
    drop(sim);

    let reopened = FileBackend::open(&dir, store_config).expect("reopen");
    let image = CrashImage {
        design,
        capacity_bytes: config.capacity_bytes,
        update_limit: config.update_limit,
        tcb,
        nvm: reopened.snapshot(),
        staged_lines_lost: 0,
    };
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    let report = recover(&image);
    assert!(report.is_clean(), "{design} at {instructions}: not clean");
    let nvm = &report.recovered_nvm;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for addr in nvm.sorted_addrs() {
        for b in addr.0.to_le_bytes().into_iter().chain(nvm.read(addr)) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Restart {
        lines: image.nvm.len(),
        total_retries: report.total_retries,
        max_line_retries: report.max_line_retries,
        recovered_counter_lines: report.recovered_counter_lines,
        recovery_cycles: report.recovery_cycles,
        rebuilt_root: u128::from_be_bytes(report.rebuilt_root),
        digest,
    }
}

/// The restart at two crash points of cc-NVM and Osiris Plus. Both
/// designs reach the same recovered image at the same point, since it
/// follows from the write-back sequence alone.
const RESTARTS: [(DesignKind, u64, Restart); 4] = [
    (
        DesignKind::CcNvm,
        150_000,
        Restart {
            lines: 445,
            total_retries: 16,
            max_line_retries: 1,
            recovered_counter_lines: 14,
            recovery_cycles: 122_400,
            rebuilt_root: 0x4a13_0b30_fdef_4c09_a6f7_dd53_84cc_def9,
            digest: 0xecdc_ac2d_efcf_8bcd,
        },
    ),
    (
        DesignKind::CcNvm,
        300_000,
        Restart {
            lines: 2813,
            total_retries: 3,
            max_line_retries: 1,
            recovered_counter_lines: 3,
            recovery_cycles: 777_040,
            rebuilt_root: 0x313e_b4b0_6d37_ef65_367e_0eb7_b3fb_0b22,
            digest: 0xad6e_d8d8_1bcd_03ea,
        },
    ),
    (
        DesignKind::OsirisPlus,
        150_000,
        Restart {
            lines: 274,
            total_retries: 152,
            max_line_retries: 1,
            recovered_counter_lines: 72,
            recovery_cycles: 88_560,
            rebuilt_root: 0x4a13_0b30_fdef_4c09_a6f7_dd53_84cc_def9,
            digest: 0xecdc_ac2d_efcf_8bcd,
        },
    ),
    (
        DesignKind::OsirisPlus,
        300_000,
        Restart {
            lines: 2132,
            total_retries: 1309,
            max_line_retries: 2,
            recovered_counter_lines: 379,
            recovery_cycles: 704_200,
            rebuilt_root: 0x313e_b4b0_6d37_ef65_367e_0eb7_b3fb_0b22,
            digest: 0xad6e_d8d8_1bcd_03ea,
        },
    ),
];

/// The benchmark's restart (reopen, snapshot, recover) gives the same
/// image and the same recovery work whatever the line store's layout.
#[test]
fn benchmark_restart_is_pinned() {
    for (design, instructions, want) in RESTARTS {
        assert_eq!(
            restart(design, instructions),
            want,
            "{design} at {instructions}"
        );
    }
}
