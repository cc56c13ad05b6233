//! Crash images: what survives a power failure.
//!
//! A crash wipes every volatile structure — L1/L2, the Meta Cache, the
//! dirty address queue — and, per the ADR protocol of §4.2, drops any
//! drain still in flight that had not yet received its `end` signal.
//! What remains is the durable NVM image plus the persistent TCB
//! registers; that pair is everything recovery (§4.4) may look at.

use crate::config::{DesignKind, SimConfig};
use crate::error::ConfigError;
use crate::layout::SecureLayout;
use crate::obs::flight::analyze;
use crate::recovery::{recover, RecoveryReport, Verdict};
use crate::secmem::SecureMemory;
use crate::tcb::Tcb;
use ccnvm_mem::crashpoint;
use ccnvm_mem::file::LOG_FILE;
use ccnvm_mem::{
    read_flight_log, DurableBackend, FileBackend, FileBackendConfig, FileBackendError, FileIoStats,
    FsyncStrategy, LineAddr, LineStore, Ring,
};
use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// The durable state recovery starts from.
#[derive(Debug, Clone)]
pub struct CrashImage {
    /// Which design produced this image (recovery strategies differ).
    pub design: DesignKind,
    /// Protected capacity in bytes (reconstructs the layout).
    pub capacity_bytes: u64,
    /// The update-times limit N — the recovery retry budget.
    pub update_limit: u32,
    /// Persistent TCB state: keys, `ROOT_old`, `ROOT_new`, `N_wb`.
    pub tcb: Tcb,
    /// Durable NVM contents.
    pub nvm: LineStore,
    /// Lines that were staged in a drain which had not received its
    /// `end` signal when power failed — dropped per the ADR protocol,
    /// so recovery must re-derive them from the retained durable state.
    pub staged_lines_lost: u64,
}

/// Composition of a crash image's durable lines, by address-space
/// region. Drives the recovery phase-timing model (step 1 scans
/// exactly the metadata lines; step 2 probes the data lines) and the
/// CLI's crash summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashSurface {
    /// Durable data lines.
    pub data_lines: u64,
    /// Durable data-HMAC lines.
    pub dh_lines: u64,
    /// Durable counter lines.
    pub counter_lines: u64,
    /// Durable BMT node lines.
    pub tree_lines: u64,
    /// Lines outside every layout region — impossible through the
    /// simulator, but a corrupted file-backed image can carry
    /// arbitrary addresses, and they must not masquerade as data
    /// HMACs in the crash summary.
    pub unknown_lines: u64,
}

impl CrashSurface {
    /// Lines the step-1 consistency scan walks (counters + tree).
    pub fn metadata_lines(&self) -> u64 {
        self.counter_lines + self.tree_lines
    }

    /// All durable lines in the image.
    pub fn total_lines(&self) -> u64 {
        self.data_lines + self.dh_lines + self.counter_lines + self.tree_lines + self.unknown_lines
    }
}

impl CrashImage {
    /// Classifies the image's durable lines by region.
    pub fn surface(&self) -> CrashSurface {
        self.surface_with(
            &SecureLayout::new(self.capacity_bytes),
            &self.nvm.sorted_addrs(),
        )
    }

    /// [`CrashImage::surface`] over a precomputed layout and address
    /// walk (recovery holds both), avoiding their reconstruction.
    pub fn surface_with(&self, layout: &SecureLayout, addrs: &[LineAddr]) -> CrashSurface {
        let mut s = CrashSurface::default();
        for &line in addrs {
            if layout.is_data_line(line) {
                s.data_lines += 1;
            } else if layout.is_counter_line(line) {
                s.counter_lines += 1;
            } else if layout.is_tree_line(line) {
                s.tree_lines += 1;
            } else if layout.is_dh_line(line) {
                s.dh_lines += 1;
            } else {
                s.unknown_lines += 1;
            }
        }
        s
    }
}

/// What a power cut leaves behind, read back one way: the durable image
/// recovery starts from, and the flight log exactly as the cut left
/// it. Build one with [`PowerCut::reopen`] from a file store or with
/// [`PowerCut::in_memory`] from a live machine; judge its recovery
/// with [`PowerCut::verdict`].
#[derive(Debug, Clone)]
pub struct PowerCut {
    /// The durable state recovery starts from.
    pub image: CrashImage,
    /// The fsync strategy the store ran under, which bounds what the
    /// cut may have lost. `Always` in memory: nothing is buffered.
    pub fsync: FsyncStrategy,
    /// The reopen's I/O tallies (records replayed, torn or unsynced
    /// bytes discarded); `None` for an in-memory image.
    pub io: Option<FileIoStats>,
    /// The flight-log entries that survived, oldest first.
    pub flight: Vec<String>,
    /// Torn `flight.log` tail bytes the read-back cut off.
    pub flight_discarded: u64,
    /// Entries the in-process flight ring dropped at its capacity (the
    /// durable sidecar drops none).
    pub flight_dropped: u64,
}

impl PowerCut {
    /// Reads back the file store at `dir` after a power cut and pairs
    /// what the filesystem preserved with the battery-backed TCB
    /// registers `tcb`, in `config`'s geometry. The flight sidecar is
    /// read first, because reopening the store truncates its torn tail
    /// in place. Staged-but-uncommitted lines never reached the durable
    /// log; recovery re-derives them, and the flight log's open
    /// `drain-stage` bracket (not `staged_lines_lost`, here 0)
    /// attributes them.
    ///
    /// # Errors
    ///
    /// Returns [`FileBackendError::NoStore`] when `dir` holds no
    /// store ([`FileBackend::require_existing`]), and another
    /// [`FileBackendError`] when the sidecar cannot be read or the
    /// store cannot be reopened.
    pub fn reopen(
        dir: impl AsRef<Path>,
        backend: FileBackendConfig,
        config: &SimConfig,
        tcb: Tcb,
    ) -> Result<PowerCut, FileBackendError> {
        let dir = dir.as_ref();
        FileBackend::require_existing(dir)?;
        let (flight, flight_discarded) = read_flight_log(dir)?;
        let store = FileBackend::open(dir, backend)?;
        let image = CrashImage {
            design: config.design,
            capacity_bytes: config.capacity_bytes,
            update_limit: config.update_limit,
            tcb,
            nvm: store.snapshot(),
            staged_lines_lost: 0,
        };
        Ok(PowerCut {
            image,
            fsync: backend.fsync,
            io: Some(store.io_counters().stats()),
            flight,
            flight_discarded,
            flight_dropped: 0,
        })
    }

    /// Cuts the power of `mem` in place: its crash image, and whatever
    /// its flight ring holds with the count of what the ring dropped.
    /// The machine is left running, so the ring is still readable.
    pub fn in_memory(mem: &SecureMemory) -> PowerCut {
        let ring = mem.flight();
        PowerCut {
            image: mem.crash_image(),
            fsync: FsyncStrategy::Always,
            io: None,
            flight: ring
                .map(|r| r.iter().map(|e| e.to_string()).collect())
                .unwrap_or_default(),
            flight_discarded: 0,
            flight_dropped: ring.map_or(0, Ring::dropped),
        }
    }

    /// Judges `recovery` of this cut's image: relaxed fsync strategies
    /// may lose buffered writes, so there an unclean image is a
    /// durability loss (see [`RecoveryReport::verdict`]).
    pub fn verdict(&self, recovery: &RecoveryReport) -> Verdict {
        recovery.verdict(self.fsync != FsyncStrategy::Always)
    }
}

/// Simulator-side ground truth, *not* visible to recovery. Tests use
/// it to assert that recovery reconstructed exactly the pre-crash
/// state.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Logical write-back version of each data line (drives the
    /// expected plaintext pattern).
    pub data_versions: HashMap<u64, u64>,
    /// Current (on-chip-truth) content of every materialized counter
    /// line.
    pub counter_lines: HashMap<u64, [u8; 64]>,
    /// The root over the current logical tree state.
    pub current_root: [u8; 16],
}

/// Why a crash-point sweep could not run (distinct from an *unclean*
/// sweep, which is reported through [`CrashSweepReport`]).
#[derive(Debug)]
pub enum CrashSweepError {
    /// The simulation configuration is invalid.
    Config(ConfigError),
    /// The file backend could not be opened.
    Backend(FileBackendError),
}

impl fmt::Display for CrashSweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "crash sweep config error: {e}"),
            Self::Backend(e) => write!(f, "crash sweep backend error: {e}"),
        }
    }
}

impl std::error::Error for CrashSweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Backend(e) => Some(e),
        }
    }
}

impl From<ConfigError> for CrashSweepError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<FileBackendError> for CrashSweepError {
    fn from(e: FileBackendError) -> Self {
        Self::Backend(e)
    }
}

/// What recovery found after a simulated kill at one persist boundary.
#[derive(Debug, Clone)]
pub struct BoundaryOutcome {
    /// 1-based index of the boundary in program order.
    pub boundary: u64,
    /// The boundary's label (`wpq-retire`, `drain-stage`,
    /// `root-alternate`, `nwb-update`, `manifest-swap` — or
    /// `run-completed` if the workload finished before this index,
    /// which the sweep treats as a bug in itself).
    pub label: String,
    /// `recover()` came back clean on the state the filesystem
    /// preserved at the kill.
    pub clean: bool,
    /// Still clean after a torn (partially written) record was
    /// appended to the log tail before reopening — the
    /// power-failed-mid-write case.
    pub clean_after_tear: bool,
    /// The crash cause the recovered flight log inferred (the
    /// innermost unmatched boundary bracket; see
    /// [`crate::obs::flight::analyze`]).
    pub inferred_cause: Option<String>,
    /// The inferred cause names exactly the boundary the kill was
    /// armed at (quiescent for a completed run) — the forensic
    /// cause-attribution check.
    pub cause_matches: bool,
}

/// Result of [`sweep_crash_points`]: one outcome per persist boundary
/// the workload crossed.
#[derive(Debug, Clone)]
pub struct CrashSweepReport {
    /// The design swept.
    pub design: DesignKind,
    /// Total persist boundaries the workload crossed.
    pub boundaries: u64,
    /// Distinct boundary labels, in first-crossing order.
    pub labels_seen: Vec<String>,
    /// Per-boundary kill outcomes.
    pub outcomes: Vec<BoundaryOutcome>,
    /// The uncrashed run's durable image recovered clean *and* its
    /// rebuilt root equals the simulator's ground-truth root.
    pub ground_truth_match: bool,
}

impl CrashSweepReport {
    /// Every boundary recovered clean (both straight and torn-tail),
    /// and the uncrashed run matched ground truth.
    pub fn all_clean(&self) -> bool {
        self.ground_truth_match
            && self
                .outcomes
                .iter()
                .all(|o| o.clean && o.clean_after_tear && o.label != "run-completed")
    }

    /// The boundaries that did not recover clean.
    pub fn unclean(&self) -> Vec<&BoundaryOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !(o.clean && o.clean_after_tear))
            .collect()
    }

    /// Every kill's forensic cause inference named the armed boundary
    /// — the flight recorder explained every crash in the sweep.
    pub fn cause_attribution_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.cause_matches)
    }

    /// The boundaries whose flight log misattributed the crash.
    pub fn misattributed(&self) -> Vec<&BoundaryOutcome> {
        self.outcomes.iter().filter(|o| !o.cause_matches).collect()
    }
}

impl fmt::Display for CrashSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "crash sweep of {}: {} boundaries ({}), ground truth {}",
            self.design,
            self.boundaries,
            self.labels_seen.join(", "),
            if self.ground_truth_match {
                "matched"
            } else {
                "MISMATCHED"
            }
        )?;
        let unclean = self.unclean();
        if unclean.is_empty() {
            writeln!(f, "all boundaries recovered clean (incl. torn tails)")?;
        } else {
            writeln!(f, "{} boundaries did NOT recover clean:", unclean.len())?;
            for o in unclean {
                writeln!(
                    f,
                    "  #{} {} — clean {}, after tear {}",
                    o.boundary, o.label, o.clean, o.clean_after_tear
                )?;
            }
        }
        let misattributed = self.misattributed();
        if misattributed.is_empty() {
            write!(f, "flight log attributed every kill to its boundary")?;
        } else {
            writeln!(
                f,
                "{} kills were MISATTRIBUTED by the flight log:",
                misattributed.len()
            )?;
            for o in &misattributed {
                writeln!(
                    f,
                    "  #{} {} — inferred {}",
                    o.boundary,
                    o.label,
                    o.inferred_cause.as_deref().unwrap_or("(quiescent)")
                )?;
            }
        }
        Ok(())
    }
}

/// A half-written `STORE` frame — what a power failure mid-`write(2)`
/// leaves at the log tail.
const TORN_TAIL: [u8; 11] = [
    1, 0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD,
];

/// Exhaustive crash-point injection over a file-backed run.
///
/// Runs `workload` once on a [`FileBackend`] under `fsync=always` (the
/// ADR-faithful mode) to *record* every persist boundary it crosses —
/// WPQ retirements, drain stagings, `ROOT_old`/`ROOT_new` alternations,
/// `N_wb` updates, manifest swaps. Then, for each boundary `k`, reruns
/// the workload in a fresh directory, kills it at exactly boundary `k`
/// (a panic that unwinds out of the engine, dropping whatever the
/// backend had not fsynced — the file-level power cut), reopens the
/// directory from disk and asserts [`recover`] comes back clean on the
/// preserved image — once as-is, and once after appending a torn
/// record to the log tail.
///
/// The workload must be deterministic: the kill pass replays it and
/// relies on boundary `k` meaning the same event as in the recording.
/// Everything is created under `dir`; per-kill subdirectories are
/// removed as the sweep advances.
///
/// # Errors
///
/// Returns [`CrashSweepError`] when the config is invalid or the
/// backend directory cannot be opened; unclean *recoveries* are not
/// errors — they are what [`CrashSweepReport::unclean`] reports.
///
/// # Panics
///
/// Panics the way the engine panics: on filesystem write failures
/// inside the run, or if the workload itself panics.
pub fn sweep_crash_points(
    config: &SimConfig,
    dir: &Path,
    workload: &dyn Fn(&mut SecureMemory),
) -> Result<CrashSweepReport, CrashSweepError> {
    let backend_cfg = FileBackendConfig {
        fsync: FsyncStrategy::Always,
        // Low threshold so the sweep exercises manifest-swap points.
        compact_threshold: 32,
        // The flight sidecar closes the loop: every kill's forensic
        // cause inference is checked against the armed boundary.
        flight: true,
    };

    // Recording pass: enumerate the boundaries and capture ground
    // truth of the completed run.
    let record_dir = dir.join("record");
    let backend = FileBackend::open(&record_dir, backend_cfg)?;
    let mut mem = SecureMemory::with_backend(config.clone(), Box::new(backend))?;
    let ((), labels) = crashpoint::record(|| {
        workload(&mut mem);
        mem.sync_durable();
    });
    let truth = mem.ground_truth();
    let tcb = mem.tcb().clone();
    drop(mem);
    let cut = PowerCut::reopen(&record_dir, backend_cfg, config, tcb)?;
    let report = recover(&cut.image);
    let ground_truth_match =
        cut.verdict(&report) == Verdict::Clean && report.rebuilt_root == truth.current_root;
    std::fs::remove_dir_all(&record_dir).ok();
    let recovers_clean = |cut: &PowerCut| cut.verdict(&recover(&cut.image)) == Verdict::Clean;

    // Kill pass: one fresh directory per boundary.
    let mut outcomes = Vec::with_capacity(labels.len());
    for k in 1..=labels.len() as u64 {
        let kill_dir = dir.join(format!("kill-{k}"));
        let backend = FileBackend::open(&kill_dir, backend_cfg)?;
        let mut mem = SecureMemory::with_backend(config.clone(), Box::new(backend))?;
        let killed = crashpoint::kill_at(k, || {
            workload(&mut mem);
            mem.sync_durable();
        });
        // `None`: the workload finished before boundary `k` — it was
        // not deterministic. all_clean() flags this.
        let armed = killed.err().map(|sig| sig.label);
        // The TCB registers are battery-backed hardware state: they
        // survive the crash exactly as they were at the kill instant.
        let tcb = mem.tcb().clone();
        // Dropping the memory drops the backend: unsynced bytes are
        // lost, open file handles close — the power cut.
        drop(mem);

        // Under `fsync=always` the attribution is exact, so the sweep
        // demands the inferred cause *equal* the armed boundary — and
        // a completed run must leave a quiescent log.
        let cut = PowerCut::reopen(&kill_dir, backend_cfg, config, tcb.clone())?;
        let flight = analyze(&cut.flight).unwrap_or_default();
        let cause_matches = flight.explains(armed.as_deref());
        let clean = recovers_clean(&cut);
        // Power failures tear records mid-write: append a partial
        // frame to the log and make sure reopen discards it.
        let log = kill_dir.join(LOG_FILE);
        let torn = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log)
            .and_then(|mut f| f.write_all(&TORN_TAIL))
            .map_err(|source| FileBackendError::Io { path: log, source });
        torn?;
        let clean_after_tear =
            recovers_clean(&PowerCut::reopen(&kill_dir, backend_cfg, config, tcb)?);
        std::fs::remove_dir_all(&kill_dir).ok();

        outcomes.push(BoundaryOutcome {
            boundary: k,
            label: armed.unwrap_or_else(|| "run-completed".to_owned()),
            clean,
            clean_after_tear,
            inferred_cause: flight.inferred_cause,
            cause_matches,
        });
    }

    Ok(CrashSweepReport {
        design: config.design,
        boundaries: labels.len() as u64,
        labels_seen: crashpoint::distinct_labels(&labels),
        outcomes,
        ground_truth_match,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secmem::DrainTrigger;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ccnvm-sweep-{tag}-{}-{n}", std::process::id()))
    }

    fn small_workload(mem: &mut SecureMemory) {
        for i in 0..4u64 {
            mem.write_back(LineAddr(i * 64), i * 100_000).expect("wb");
        }
        mem.drain(1_000_000, DrainTrigger::External);
        mem.write_back(LineAddr(0), 2_000_000).expect("wb");
    }

    #[test]
    fn ccnvm_sweep_is_clean_at_every_boundary() {
        let dir = temp_dir("ccnvm");
        let config = SimConfig::small(DesignKind::CcNvm);
        let report = sweep_crash_points(&config, &dir, &small_workload).expect("sweep");
        assert!(report.boundaries > 0);
        assert!(
            report.labels_seen.iter().any(|l| l == "wpq-retire"),
            "{:?}",
            report.labels_seen
        );
        assert!(report.all_clean(), "{report}");
        assert!(report.cause_attribution_ok(), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_lines_do_not_masquerade_as_hmacs() {
        let mut m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).expect("config");
        m.write_back(LineAddr(0), 0).expect("wb");
        let mut image = m.crash_image();
        let before = image.surface();
        assert_eq!(before.unknown_lines, 0);
        // An address far outside every layout region.
        image.nvm.write(LineAddr(u64::MAX / 2), [0xEE; 64]);
        let after = image.surface();
        assert_eq!(after.unknown_lines, 1);
        assert_eq!(after.dh_lines, before.dh_lines, "not classified as dh");
        assert_eq!(after.total_lines(), before.total_lines() + 1);
    }
}
