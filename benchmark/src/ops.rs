//! Untraced ops, run through the program's own entry points:
//! `Simulator::run` for simulation points and live phases,
//! `FileBackend::open` plus `recover` for restarts.

use crate::plan::Op;
use ccnvm::prelude::*;
use ccnvm_mem::{DurableBackend, FileBackend, FileBackendConfig, FileIoStats, FsyncStrategy};
use std::path::Path;
use std::time::Instant;

/// The durable-store settings of `crash-recover`: group-commit fsync
/// every 64 records, default compaction.
pub fn store_config() -> FileBackendConfig {
    FileBackendConfig {
        fsync: FsyncStrategy::Batch(64),
        ..FileBackendConfig::default()
    }
}

/// The crypto tier every simulator of the benchmark runs on (the
/// paper configuration's `Auto` selection, which always resolves).
pub fn crypto_tier() -> ccnvm_crypto::CryptoTier {
    SimConfig::paper(DesignKind::CcNvm)
        .crypto
        .resolve()
        .expect("the automatic crypto tier resolves")
}

/// Checks the outcome of one `Simulator::run`: no integrity error, no
/// latched auditor failure, and the whole instruction budget retired.
pub fn check_run(
    op: &Op,
    result: Result<RunStats, IntegrityError>,
    audit_failed: bool,
) -> Result<RunStats, String> {
    let stats = result.map_err(|e| format!("integrity error: {e}"))?;
    if audit_failed {
        return Err("the auditor latched a failure".into());
    }
    if stats.instructions < op.instructions {
        return Err(format!(
            "retired {} of {} instructions",
            stats.instructions, op.instructions
        ));
    }
    Ok(stats)
}

/// One simulation point on a fresh in-memory simulator.
#[derive(Debug)]
pub struct PointRun {
    /// Final statistics (default on failure).
    pub stats: RunStats,
    /// Host seconds in `Simulator::new` and `TraceGenerator::new`.
    pub setup_s: f64,
    /// Host seconds inside `Simulator::run`.
    pub run_s: f64,
    /// Host seconds from `Simulator::new` to the final statistics.
    pub latency_s: f64,
    /// Why the point failed, if it did.
    pub failure: Option<String>,
}

/// Runs `op` as a simulation point.
pub fn run_point(op: &Op) -> PointRun {
    let t0 = Instant::now();
    let mut sim = Simulator::new(SimConfig::paper(op.design)).expect("paper config is valid");
    let trace = TraceGenerator::new(op.profile.clone(), op.seed);
    let t1 = Instant::now();
    let result = sim.run(trace, op.instructions);
    let run_s = t1.elapsed().as_secs_f64();
    let checked = check_run(op, result, sim.memory().audit_failed());
    let latency_s = t0.elapsed().as_secs_f64();
    let (stats, failure) = match checked {
        Ok(s) => (s, None),
        Err(e) => (RunStats::default(), Some(e)),
    };
    PointRun {
        stats,
        setup_s: (t1 - t0).as_secs_f64(),
        run_s,
        latency_s,
        failure,
    }
}

/// One crash cycle on the file store.
#[derive(Debug, Default)]
pub struct CycleRun {
    /// Live-phase statistics (default on failure).
    pub stats: RunStats,
    /// Host seconds creating the store (`FileBackend::open`) and in
    /// `Simulator::with_backend` and `TraceGenerator::new`.
    pub setup_s: f64,
    /// Host seconds inside `Simulator::run`.
    pub run_s: f64,
    /// Host seconds in the `sync_durable` at the crash point.
    pub sync_s: f64,
    /// Host seconds from reopening the store to a finished `recover`.
    pub restart_s: f64,
    /// The `FileBackend::open` + `snapshot` part of `restart_s`.
    pub open_s: f64,
    /// The `recover` part of `restart_s`.
    pub recover_s: f64,
    /// Durable lines in the reopened image.
    pub lines: u64,
    /// Recovery's counter retries.
    pub retries: u64,
    /// Recovery's simulated duration.
    pub recovery_cycles: u64,
    /// The store's I/O counters over the live phase.
    pub io: FileIoStats,
    /// Why the cycle failed, if it did.
    pub failure: Option<String>,
}

/// Runs crash cycle `op` in `dir`: simulate on a fresh file store to
/// the crash point, `sync_durable`, cut power (drop everything
/// volatile), reopen the store and recover. The cycle fails unless
/// recovery is clean and rebuilds exactly the pre-crash root.
pub fn run_cycle(op: &Op, dir: &Path) -> CycleRun {
    std::fs::remove_dir_all(dir).ok();
    let mut out = CycleRun::default();
    if let Err(e) = live_and_restart(op, dir, &mut out) {
        out.failure = Some(e);
        out.stats = RunStats::default();
    }
    std::fs::remove_dir_all(dir).ok();
    out
}

fn live_and_restart(op: &Op, dir: &Path, out: &mut CycleRun) -> Result<(), String> {
    let config = SimConfig::paper(op.design);
    let ts = Instant::now();
    let backend = FileBackend::open(dir, store_config()).map_err(|e| e.to_string())?;
    let io = backend.io_counters();
    let mut sim =
        Simulator::with_backend(config.clone(), Box::new(backend)).expect("paper config is valid");
    let trace = TraceGenerator::new(op.profile.clone(), op.seed);
    let t0 = Instant::now();
    out.setup_s = (t0 - ts).as_secs_f64();
    let result = sim.run(trace, op.instructions);
    let t1 = Instant::now();
    sim.memory_mut().sync_durable();
    out.sync_s = t1.elapsed().as_secs_f64();
    out.run_s = (t1 - t0).as_secs_f64();
    out.io = io.stats();
    out.stats = check_run(op, result, sim.memory().audit_failed())?;
    let truth = sim.memory().ground_truth();
    // The TCB registers are battery-backed: they survive the power cut.
    let tcb = sim.memory().tcb().clone();
    drop(sim);

    let t2 = Instant::now();
    let reopened = FileBackend::open(dir, store_config()).map_err(|e| e.to_string())?;
    let image = CrashImage {
        design: op.design,
        capacity_bytes: config.capacity_bytes,
        update_limit: config.update_limit,
        tcb,
        nvm: reopened.snapshot(),
        // The crash falls between steps, never inside a drain.
        staged_lines_lost: 0,
    };
    let t3 = Instant::now();
    let report = recover(&image);
    let t4 = Instant::now();
    out.open_s = (t3 - t2).as_secs_f64();
    out.recover_s = (t4 - t3).as_secs_f64();
    out.restart_s = (t4 - t2).as_secs_f64();
    out.lines = image.nvm.len() as u64;
    out.retries = report.total_retries;
    out.recovery_cycles = report.recovery_cycles;
    if !report.is_clean() {
        return Err(format!(
            "recovery is not clean ({} located, replay {})",
            report.located.len(),
            report.potential_replay
        ));
    }
    if report.rebuilt_root != truth.current_root {
        return Err("the rebuilt root differs from the pre-crash root".into());
    }
    Ok(())
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
