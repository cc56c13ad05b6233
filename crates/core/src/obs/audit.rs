//! Runtime invariant auditor: opt-in cross-checks of the crash-
//! consistency machinery's internal consistency.
//!
//! The drain protocol's correctness argument (§4.2) rests on a few
//! structural invariants that no single module can check on its own:
//! the dirty address queue must cover every dirty Meta Cache line
//! (else a drain would commit a tree that misses on-chip updates), the
//! ADR-protected WPQ must never exceed its capacity (else "accepted"
//! writes would not actually be power-fail safe), `ROOT_old` may only
//! move at a drain commit on drainer designs — where it must land on
//! `ROOT_new` — and
//! `N_wb` grows monotonically between commits (the recovery retry
//! budget of §4.4 depends on it).
//!
//! An [`Auditor`] attached via
//! [`SecureMemory::attach_auditor`](crate::secmem::SecureMemory::attach_auditor)
//! re-checks all four at every write-back completion, drain commit,
//! and Meta Cache install. Violations are recorded (bounded, with drop
//! accounting), mirrored into the event trace as
//! [`Event::Audit`](crate::obs::Event::Audit) records when a
//! `Recorder` is attached, and — under [`AuditMode::Strict`] — stop
//! the simulation at the next step boundary so the CLI can exit
//! nonzero.

use ccnvm_crypto::Mac128;
use ccnvm_mem::Cycle;
use std::fmt;

/// Which invariant a checkpoint verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditCheck {
    /// Every dirty Meta Cache line holds a dirty-address-queue
    /// reservation (drainer designs).
    DirtyCoverage,
    /// WPQ occupancy never exceeds the configured ADR capacity.
    WpqCapacity,
    /// `ROOT_old` changes only at a drain commit (drainer designs),
    /// where it must equal `ROOT_new`.
    RootAlternation,
    /// `N_wb` is monotonic between commits and zero right after one.
    NwbMonotonic,
    /// With a wear ledger attached, every controller-counted NVM write
    /// is attributed to exactly one [`WriteCause`](crate::obs::wear::WriteCause)
    /// (attributed sum == `MemStats::total_writes()`).
    WearConservation,
}

impl AuditCheck {
    /// Stable lower-case name used in trace exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            AuditCheck::DirtyCoverage => "dirty-coverage",
            AuditCheck::WpqCapacity => "wpq-capacity",
            AuditCheck::RootAlternation => "root-alternation",
            AuditCheck::NwbMonotonic => "nwb-monotonic",
            AuditCheck::WearConservation => "wear-conservation",
        }
    }
}

/// Where in the pipeline a checkpoint ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditPoint {
    /// End of a completed write-back.
    WriteBack,
    /// Right after a drain committed.
    DrainCommit,
    /// After a Meta Cache install made room for a fetched line.
    MetaInstall,
    /// An explicit caller-requested checkpoint
    /// ([`SecureMemory::audit_now`](crate::secmem::SecureMemory::audit_now)).
    External,
}

impl AuditPoint {
    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            AuditPoint::WriteBack => "write-back",
            AuditPoint::DrainCommit => "drain-commit",
            AuditPoint::MetaInstall => "meta-install",
            AuditPoint::External => "external",
        }
    }
}

/// How an attached auditor reacts to violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// Record violations; the run continues.
    #[default]
    Record,
    /// Record violations and stop the simulation at the next step
    /// boundary (the CLI then exits nonzero).
    Strict,
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Simulated cycle of the failing checkpoint.
    pub at: Cycle,
    /// Where the checkpoint ran.
    pub point: AuditPoint,
    /// The violated invariant.
    pub check: AuditCheck,
    /// Human-readable specifics (offending line, observed counts).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: {} violated at {}: {}",
            self.at,
            self.check.name(),
            self.point.name(),
            self.detail
        )
    }
}

/// Retained violations; later ones are dropped (and counted) so a
/// pathologically broken run cannot grow memory without bound.
const MAX_VIOLATIONS: usize = 64;

/// The invariant auditor. See the module docs for the checked
/// invariants; [`SecureMemory`](crate::secmem::SecureMemory) drives it
/// at the pipeline checkpoints and owns the state it inspects.
#[derive(Debug, Clone)]
pub struct Auditor {
    mode: AuditMode,
    checks_run: u64,
    violations: Vec<Violation>,
    dropped: u64,
    last_root_old: Option<Mac128>,
    last_nwb: u64,
}

impl Auditor {
    /// Creates an auditor in `mode` with no observations yet.
    pub fn new(mode: AuditMode) -> Self {
        Self {
            mode,
            checks_run: 0,
            violations: Vec::new(),
            dropped: 0,
            last_root_old: None,
            last_nwb: 0,
        }
    }

    /// The configured reaction mode.
    pub fn mode(&self) -> AuditMode {
        self.mode
    }

    /// Checkpoints executed so far.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Recorded violations, oldest first (bounded; see
    /// [`Auditor::dropped`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations discarded after the retention bound filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether a strict-mode auditor has seen a violation (the
    /// simulator's fail-fast condition).
    #[inline]
    pub fn failed(&self) -> bool {
        self.mode == AuditMode::Strict && !self.violations.is_empty()
    }

    /// Records one violation.
    pub(crate) fn record(&mut self, violation: Violation) {
        if self.violations.len() == MAX_VIOLATIONS {
            self.dropped += 1;
            return;
        }
        self.violations.push(violation);
    }

    /// Verifies the TCB-register invariants (root alternation, `N_wb`
    /// monotonicity) against the previous checkpoint's observation,
    /// appending failures to `found`, and advances the tracked state.
    ///
    /// `drainer` says whether the design runs the drain protocol. Only
    /// there is "`ROOT_old` moves only at a commit" an invariant: w/o
    /// CC defers all tree maintenance to eviction time, so its root
    /// registers legitimately refresh whenever an eviction repair walks
    /// to the top — with `N_wb` still counting write-backs and no
    /// commit ever resetting it.
    pub(crate) fn observe_tcb(
        &mut self,
        point: AuditPoint,
        root_old: Mac128,
        root_new: Mac128,
        nwb: u64,
        drainer: bool,
        found: &mut Vec<(AuditCheck, String)>,
    ) {
        self.checks_run += 1;
        if point == AuditPoint::DrainCommit {
            if root_old != root_new {
                found.push((
                    AuditCheck::RootAlternation,
                    format!(
                        "commit left ROOT_old {:02x?} != ROOT_new {:02x?}",
                        &root_old[..4],
                        &root_new[..4]
                    ),
                ));
            }
            if nwb != 0 {
                found.push((
                    AuditCheck::NwbMonotonic,
                    format!("commit left N_wb at {nwb}, expected 0"),
                ));
            }
        } else {
            if let Some(prev) = self.last_root_old {
                if drainer && prev != root_old && nwb >= self.last_nwb && nwb > 0 {
                    // ROOT_old moved without the N_wb reset a commit
                    // performs: something promoted the root outside the
                    // drain protocol.
                    found.push((
                        AuditCheck::RootAlternation,
                        format!("ROOT_old changed outside a drain commit (N_wb {nwb})"),
                    ));
                }
            }
            if nwb < self.last_nwb && nwb != 0 {
                found.push((
                    AuditCheck::NwbMonotonic,
                    format!("N_wb fell from {} to {nwb} without a commit", self.last_nwb),
                ));
            }
        }
        self.last_root_old = Some(root_old);
        self.last_nwb = nwb;
    }

    /// Renders all retained violations as a human-readable report
    /// (empty string when the run was clean).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.violations.is_empty() {
            return out;
        }
        let _ = writeln!(
            out,
            "audit: {} invariant violation(s) over {} checkpoint(s){}",
            self.violations.len(),
            self.checks_run,
            if self.dropped > 0 {
                format!(" ({} more dropped)", self.dropped)
            } else {
                String::new()
            }
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DesignKind, SimConfig};
    use crate::secmem::SecureMemory;
    use ccnvm_mem::LineAddr;

    fn written_memory(design: DesignKind) -> (SecureMemory, Cycle) {
        let mut m = SecureMemory::new(SimConfig::small(design)).unwrap();
        m.attach_auditor(AuditMode::Record);
        let mut t = 0;
        for i in 0..4 {
            t = m.write_back(LineAddr(i), t).unwrap();
        }
        (m, t)
    }

    #[test]
    fn clean_run_has_no_violations() {
        for design in DesignKind::ALL {
            let (mut m, t) = written_memory(design);
            let t = m.drain(t, crate::secmem::DrainTrigger::External);
            m.audit_now(t);
            let aud = m.auditor().expect("attached");
            assert!(aud.checks_run() > 0, "{design}: no checkpoints ran");
            assert_eq!(aud.violations(), &[], "{design}");
        }
    }

    /// Regression: w/o CC refreshes its root registers whenever an
    /// eviction repair walks to the top, with `N_wb` growing and no
    /// commit in sight. That is the design working as specified, not a
    /// root-alternation violation — which only the drain protocol
    /// defines. Enough write-backs to churn the small Meta Cache
    /// reproduce it.
    #[test]
    fn non_drainer_eviction_repairs_are_not_root_violations() {
        let mut m = SecureMemory::new(SimConfig::small(DesignKind::WithoutCc)).unwrap();
        m.attach_auditor(AuditMode::Strict);
        let mut t = 0;
        for i in 0..2_000u64 {
            // Stride one page per write-back (wrapping inside the
            // small config's 16K-line data region) so counter lines
            // keep missing and dirty metadata keeps getting evicted.
            t = m.write_back(LineAddr((i * 64) % 16_384), t).unwrap();
        }
        assert!(m.tcb.nwb > 0, "w/o CC must have advanced N_wb");
        assert!(
            !m.audit_failed(),
            "eviction repairs latched the strict auditor: {}",
            m.auditor().unwrap().report()
        );
    }

    #[test]
    fn injected_dirty_queue_desync_is_caught() {
        let (mut m, t) = written_memory(DesignKind::CcNvm);
        assert!(
            m.meta_cache.dirty_lines().next().is_some(),
            "write-backs must leave dirty metadata for the injection"
        );
        // The inconsistency the auditor exists to catch: dirty on-chip
        // metadata with no drain reservation — a drain would commit a
        // tree missing these updates.
        m.dirty_queue.clear();
        m.audit_now(t);
        let aud = m.auditor().expect("attached");
        assert!(
            aud.violations()
                .iter()
                .any(|v| v.check == AuditCheck::DirtyCoverage),
            "expected a dirty-coverage violation, got {:?}",
            aud.violations()
        );
    }

    #[test]
    fn inject_helper_reports_desync() {
        let mut m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        m.attach_auditor(AuditMode::Strict);
        let t = m.inject_dirty_queue_desync(0).unwrap();
        m.audit_now(t);
        let aud = m.auditor().expect("attached");
        assert!(aud.failed(), "strict auditor must latch the violation");
    }

    /// The counted coverage check falls back to the full scan to name
    /// what it found: the injected desync leaves exactly page 0's
    /// counter line dirty and unqueued.
    #[test]
    fn desync_names_the_one_uncovered_line() {
        let mut m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        m.attach_auditor(AuditMode::Record);
        let t = m.inject_dirty_queue_desync(0).unwrap();
        m.audit_now(t);
        let aud = m.auditor().expect("attached");
        let coverage: Vec<&str> = aud
            .violations()
            .iter()
            .filter(|v| v.check == AuditCheck::DirtyCoverage)
            .map(|v| v.detail.as_str())
            .collect();
        assert_eq!(
            coverage,
            ["dirty L0x4000 has no dirty-address-queue reservation"]
        );
    }

    #[test]
    fn root_old_movement_outside_commit_is_caught() {
        let (mut m, t) = written_memory(DesignKind::CcNvm);
        m.audit_now(t); // baseline observation of the registers
        m.tcb.root_old = [0xAB; 16]; // tampered promotion, no commit
        m.audit_now(t + 1);
        let aud = m.auditor().expect("attached");
        assert!(
            aud.violations()
                .iter()
                .any(|v| v.check == AuditCheck::RootAlternation),
            "got {:?}",
            aud.violations()
        );
    }

    #[test]
    fn nwb_rollback_is_caught() {
        let (mut m, t) = written_memory(DesignKind::CcNvm);
        m.audit_now(t);
        assert!(m.tcb.nwb > 1, "write-backs must have advanced N_wb");
        m.tcb.nwb -= 1; // lost write-back accounting, no commit
        m.audit_now(t + 1);
        let aud = m.auditor().expect("attached");
        assert!(
            aud.violations()
                .iter()
                .any(|v| v.check == AuditCheck::NwbMonotonic),
            "got {:?}",
            aud.violations()
        );
    }

    #[test]
    fn record_mode_never_fails_fast() {
        let (mut m, t) = written_memory(DesignKind::CcNvm);
        m.dirty_queue.clear();
        m.audit_now(t);
        let aud = m.auditor().expect("attached");
        assert!(!aud.violations().is_empty());
        assert!(!aud.failed(), "Record mode must not stop the run");
    }

    #[test]
    fn violations_are_bounded_with_drop_accounting() {
        let mut aud = Auditor::new(AuditMode::Record);
        for i in 0..(MAX_VIOLATIONS + 5) {
            aud.record(Violation {
                at: i as Cycle,
                point: AuditPoint::External,
                check: AuditCheck::WpqCapacity,
                detail: String::new(),
            });
        }
        assert_eq!(aud.violations().len(), MAX_VIOLATIONS);
        assert_eq!(aud.dropped(), 5);
    }

    #[test]
    fn violation_event_reaches_the_recorder() {
        let (mut m, t) = written_memory(DesignKind::CcNvm);
        m.attach_recorder(crate::obs::RecorderConfig::default());
        m.dirty_queue.clear();
        m.audit_now(t);
        let rec = m.recorder().expect("attached");
        assert!(
            rec.trace()
                .iter()
                .any(|e| matches!(e, crate::obs::Event::Audit { .. })),
            "violation must be mirrored into the event trace"
        );
    }
}
