//! Crash recovery and attack locating (§4.4).
//!
//! Recovery starts from a [`CrashImage`] — durable NVM plus the
//! persistent TCB registers — and proceeds in the paper's four steps:
//!
//! 1. **Locate normal replay attacks.** For the epoch designs the
//!    stored tree is guaranteed internally consistent and to match one
//!    of the TCB roots; any parent/child mismatch therefore *locates* a
//!    replay on the stored metadata.
//! 2. **Recover stalled counters and locate data attacks.** Each
//!    stored data line's HMAC is recomputed with the stored counter; on
//!    a mismatch the minor counter is advanced and the check retried,
//!    up to N times (the update-times trigger guarantees N suffices).
//!    A line whose HMAC never matches has been spoofed or spliced — and
//!    is reported *by exact line address*.
//! 3. **Detect potential replays.** With deferred spreading, a freshly
//!    written (data, HMAC) pair replayed to its previous version is
//!    locally consistent (Figure 4); it is caught because the total
//!    retry count then disagrees with the persistent `N_wb` register.
//! 4. **Rebuild the Merkle Tree** over the recovered counters and
//!    compare its root with the TCB registers.

use crate::bmt::{Bmt, RebuildScratch, TreeMismatch};
use crate::config::DesignKind;
use crate::counter::{CounterLine, MINOR_MAX};
use crate::crash::CrashImage;
use crate::engine::CryptoEngine;
use crate::layout::SecureLayout;
use crate::obs::profile::{SpanProfiler, Stage};
use ccnvm_crypto::latency::HMAC_LATENCY_CYCLES;
use ccnvm_crypto::{CryptoTier, Mac128};
use ccnvm_mem::timing::NvmTimingConfig;
use ccnvm_mem::{Cycle, Line, LineAddr, LineStore};
use std::fmt;

/// Reusable working storage for [`recover_with`]: every buffer the
/// recovery pass needs besides the recovered image itself. Repeated
/// recoveries hold one of these and amortize the whole pass to a
/// handful of allocations per run.
#[derive(Debug, Default)]
pub struct RecoveryScratch {
    /// Sorted materialized-address walk of the image under scan.
    addrs: Vec<LineAddr>,
    /// Counter lines patched during retry, sorted.
    touched_counters: Vec<LineAddr>,
    /// `(counter idx, content)` input to the tree rebuild.
    counters: Vec<(u64, Line)>,
    /// Rebuild ping-pong buffers.
    rebuild: RebuildScratch,
}

/// An attack located at an exact place during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocatedAttack {
    /// A data line whose HMAC never matched within the retry budget —
    /// spoofed or spliced data (or HMAC).
    DataTampered {
        /// The tampered data line.
        line: LineAddr,
    },
    /// A stored counter or tree node inconsistent with its parent —
    /// replayed/tampered metadata.
    MetadataTampered {
        /// Level of the mismatching child (0 = counter line).
        child_level: usize,
        /// Index of the mismatching child.
        child_index: u64,
    },
}

/// Which persistent root the rebuilt tree matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootMatch {
    /// Matched `ROOT_new` (all recovered state reconstructed).
    New,
    /// Matched `ROOT_old` only (the image is the last committed epoch).
    Old,
    /// Matched neither root — a replay the design detects here.
    Neither,
}

impl RootMatch {
    /// Stable lower-case name used in machine-readable reports.
    pub fn name(self) -> &'static str {
        match self {
            RootMatch::New => "new",
            RootMatch::Old => "old",
            RootMatch::Neither => "neither",
        }
    }
}

/// One attributed phase of the recovery timeline.
///
/// Spans are contiguous from cycle 0 and carry the same deterministic
/// timing model the runtime uses: NVM reads cost the configured PCM
/// read latency and every HMAC costs [`HMAC_LATENCY_CYCLES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySpan {
    /// Which recovery stage the span charges.
    pub stage: Stage,
    /// First cycle of the span.
    pub start: Cycle,
    /// One past the last cycle of the span.
    pub end: Cycle,
    /// Logical operations performed (line scans, HMAC probes, nodes).
    pub ops: u64,
    /// NVM line writes issued during the span.
    pub nvm_writes: u64,
}

impl RecoverySpan {
    /// Cycles the span covers.
    pub fn cycles(&self) -> Cycle {
        self.end - self.start
    }
}

/// The judgement on a recovered image — the one rule the crash sweep,
/// `ccnvm-sim recover` and `ccnvm-sim forensics` all apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every check the design supports passed.
    Clean,
    /// Unclean, but the store ran a relaxed fsync strategy: buffered
    /// writes lost to the crash, not an attacker, explain it.
    DurabilityLoss,
    /// Unclean on a design with no crash-consistency story — the
    /// motivating deficiency, not an attack.
    Unrecoverable,
    /// Unclean although nothing durable could have been lost: the
    /// image was modified outside the TCB.
    Attacked,
}

impl fmt::Display for Verdict {
    /// The verdict as reports print it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Clean => "CLEAN",
            Verdict::DurabilityLoss => "DURABILITY LOSS",
            Verdict::Unrecoverable => "UNRECOVERABLE",
            Verdict::Attacked => "ATTACKED",
        })
    }
}

/// Everything recovery produced.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Design the image came from.
    pub design: DesignKind,
    /// Counter lines whose content had to be advanced.
    pub recovered_counter_lines: u64,
    /// Data lines whose counters were advanced.
    pub recovered_data_lines: u64,
    /// Total counter-increment retries (the paper's `N_retry`).
    pub total_retries: u64,
    /// Largest retry count any single line needed (bounded by N for
    /// every crash-consistent design).
    pub max_line_retries: u64,
    /// `N_wb` from the TCB at crash time.
    pub nwb: u64,
    /// Attacks located at exact addresses (steps 1 and 2).
    pub located: Vec<LocatedAttack>,
    /// Step 3: `N_wb ≠ N_retry` — a replay happened somewhere even
    /// though every line looks locally consistent.
    pub potential_replay: bool,
    /// Root over the *stored* (pre-recovery) tree vs the TCB roots.
    pub stored_root_match: RootMatch,
    /// Root over the *rebuilt* tree vs the TCB roots.
    pub rebuilt_root_match: RootMatch,
    /// The rebuilt root itself (becomes the new TCB root on success).
    pub rebuilt_root: Mac128,
    /// The recovered NVM image: stored data, recovered counters and
    /// the rebuilt tree.
    pub recovered_nvm: LineStore,
    /// Per-phase attribution of the recovery pass, contiguous from 0.
    pub timeline: Vec<RecoverySpan>,
    /// Total simulated cycles recovery took (end of the last span).
    pub recovery_cycles: Cycle,
}

impl RecoveryReport {
    /// Whether every check the design supports came back clean.
    pub fn is_clean(&self) -> bool {
        if !self.located.is_empty() || self.potential_replay {
            return false;
        }
        match self.design {
            // Per-write-back root designs: the rebuilt (newest) state
            // must match ROOT_new exactly.
            DesignKind::StrictConsistency | DesignKind::OsirisPlus | DesignKind::CcNvmNoDs => {
                self.rebuilt_root_match == RootMatch::New
            }
            // cc-NVM: the stored tree must match a TCB root; freshness
            // of the tail is vouched for by N_wb == N_retry (already
            // checked above).
            DesignKind::CcNvm => self.stored_root_match != RootMatch::Neither,
            // w/o CC guarantees nothing; "clean" just means the DH
            // retries happened to succeed.
            DesignKind::WithoutCc => true,
        }
    }

    /// Judges the recovered image. `relaxed_fsync` says the image was
    /// read back from a store that ran a relaxed fsync strategy, so a
    /// crash may have lost writes it had buffered; an in-memory image
    /// or an `always` store has no such loss window.
    pub fn verdict(&self, relaxed_fsync: bool) -> Verdict {
        if self.is_clean() {
            Verdict::Clean
        } else if relaxed_fsync {
            Verdict::DurabilityLoss
        } else if !self.design.is_crash_consistent() {
            Verdict::Unrecoverable
        } else {
            Verdict::Attacked
        }
    }
}

impl SpanProfiler {
    /// Folds a recovery timeline into the profiler so its recovery
    /// stages show up alongside the runtime attribution.
    pub fn absorb_recovery(&mut self, report: &RecoveryReport) {
        for span in &report.timeline {
            self.add(span.stage, span.cycles(), span.nvm_writes, span.ops);
        }
    }
}

impl fmt::Display for RecoveryReport {
    /// The recovery walk-through: patched counters, root checks and
    /// the timeline. The verdict depends on the store's fsync strategy
    /// ([`RecoveryReport::verdict`]), so it is not part of it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "recovery: {} counter lines patched ({} data lines), {} retries \
             (max {} per line, N_wb {})",
            self.recovered_counter_lines,
            self.recovered_data_lines,
            self.total_retries,
            self.max_line_retries,
            self.nwb
        )?;
        writeln!(
            f,
            "stored tree vs TCB roots: {:?}; rebuilt tree: {:?}; located attacks: {}",
            self.stored_root_match,
            self.rebuilt_root_match,
            self.located.len()
        )?;
        write!(f, "recovery timeline ({} cycles):", self.recovery_cycles)?;
        for span in &self.timeline {
            write!(
                f,
                "\n  {:<22} {:>10}..{:<10} ops {:>8}  writes {:>6}",
                span.stage.name(),
                span.start,
                span.end,
                span.ops,
                span.nvm_writes
            )?;
        }
        Ok(())
    }
}

/// Runs crash recovery over `image`.
///
/// Works for every design; what the result *means* differs (see
/// [`RecoveryReport::is_clean`]). For `w/o CC` the retry budget is the
/// same N, but nothing bounds counter staleness, so recovery may
/// legitimately fail — the motivating deficiency of the baseline.
pub fn recover(image: &CrashImage) -> RecoveryReport {
    recover_with(image, CryptoTier::detect(), &mut RecoveryScratch::default())
}

/// [`recover`] with an explicit crypto tier and caller-owned scratch.
///
/// Bit-identical to `recover` on every report field; only the
/// allocation profile and the host speed of the tier differ. The
/// engine's MAC count over step 2's retry probes feeds the timeline.
pub fn recover_with(
    image: &CrashImage,
    tier: CryptoTier,
    scratch: &mut RecoveryScratch,
) -> RecoveryReport {
    let engine = CryptoEngine::with_tier(&image.tcb.keys, tier);
    let bmt = Bmt::new(SecureLayout::new(image.capacity_bytes), engine.clone());
    let layout = bmt.layout();
    let budget = image.update_limit as u64;

    let read_cycles = NvmTimingConfig::pcm().read_cycles;
    let mut located = Vec::new();

    // Step 1: stored-tree consistency scan (meaningless for Osiris
    // Plus, whose stored internal nodes are never maintained).
    let stored_root = bmt.root(&image.nvm);
    let stored_root_match = classify_root(&image.tcb, &stored_root);
    image.nvm.sorted_addrs_into(&mut scratch.addrs);
    let locate_ops = if image.design == DesignKind::OsirisPlus {
        0
    } else {
        // Every stored metadata line is read and re-MACed, plus one
        // final HMAC comparison against the TCB root.
        image.surface_with(layout, &scratch.addrs).metadata_lines() + 1
    };
    if image.design != DesignKind::OsirisPlus {
        for TreeMismatch {
            child_level,
            child_index,
        } in bmt.consistency_scan_over(&image.nvm, &scratch.addrs)
        {
            located.push(LocatedAttack::MetadataTampered {
                child_level,
                child_index,
            });
        }
    }

    // Step 2: recover counters through the data HMACs. Data lines sort
    // below every metadata region, and the walk is sorted, so the lines
    // of one page are adjacent and share one counter line: it is
    // decoded once, patched in place and written back once when the
    // walk leaves the page, which keeps `touched_counters` sorted. Runs
    // of up to four lines likewise share one data-HMAC line.
    let mut working = image.nvm.clone();
    let mut total_retries = 0u64;
    let mut max_line_retries = 0u64;
    let mut recovered_data_lines = 0u64;
    scratch.touched_counters.clear();
    let data_end = scratch.addrs.partition_point(|&l| layout.is_data_line(l));
    let data_line_count = data_end as u64;
    let dh_line_of = |l: &LineAddr| layout.dh_slot_of(*l).0;
    let probes_before = engine.hmac_ops();
    for page in scratch.addrs[..data_end].chunk_by(|a, b| a.page() == b.page()) {
        let ctr_line = layout.counter_line_of(page[0]);
        let mut ctr = CounterLine::decode(&image.nvm.read(ctr_line));
        let mut patched = false;
        for run in page.chunk_by(|a, b| dh_line_of(a) == dh_line_of(b)) {
            let dh = image.nvm.read(dh_line_of(&run[0]));
            for &line in run {
                let ct = image.nvm.read(line);
                let off = line.page_offset();
                let (major, minor) = ctr.seed(off);
                let dh_off = layout.dh_slot_of(line).1;
                let dh_stored = &dh[dh_off..dh_off + 16];

                let mut found = None;
                for k in 0..=budget {
                    let candidate = minor as u64 + k;
                    if candidate > MINOR_MAX as u64 {
                        // Overflow persists the counter atomically, so
                        // recovery never crosses a major boundary.
                        break;
                    }
                    let mac = engine.data_hmac(&ct, line, major, candidate as u8);
                    if mac[..] == *dh_stored {
                        found = Some(k);
                        break;
                    }
                }
                match found {
                    Some(0) => {}
                    Some(k) => {
                        total_retries += k;
                        max_line_retries = max_line_retries.max(k);
                        recovered_data_lines += 1;
                        ctr.set_minor(off, (minor as u64 + k) as u8);
                        patched = true;
                    }
                    None => located.push(LocatedAttack::DataTampered { line }),
                }
            }
        }
        if patched {
            working.write(ctr_line, ctr.encode());
            scratch.touched_counters.push(ctr_line);
        }
    }

    let retry_probes = engine.hmac_ops() - probes_before;

    // Step 3: potential replay detection (deferred spreading only).
    let potential_replay = image.design == DesignKind::CcNvm && total_retries != image.tcb.nwb;

    // Step 4: rebuild the tree over the recovered counters: the image's
    // own counter lines from step 1's sorted walk, plus the patched ones
    // the image lacked (`rebuild_with` sorts its input). The rebuilt
    // nodes go straight into the recovered image (this is exactly where
    // they were merged to anyway).
    scratch.counters.clear();
    scratch.counters.extend(
        scratch.addrs[data_end..]
            .iter()
            .copied()
            .filter(|&l| layout.is_counter_line(l))
            .chain(
                scratch
                    .touched_counters
                    .iter()
                    .copied()
                    .filter(|&l| !image.nvm.contains(l)),
            )
            .map(|l| (layout.counter_index(l), working.read(l))),
    );
    let mut recovered_nvm = working;
    let (rebuilt_root, nodes_written) = bmt.rebuild_with(
        scratch.counters.iter().copied(),
        &mut scratch.rebuild,
        &mut recovered_nvm,
    );
    let rebuilt_root_match = classify_root(&image.tcb, &rebuilt_root);

    // Attributed timeline — three contiguous spans with the runtime
    // timing model (reads at PCM latency, HMACs at engine latency).
    let locate_end = locate_ops * (read_cycles + HMAC_LATENCY_CYCLES);
    let retry_end =
        locate_end + data_line_count * 2 * read_cycles + retry_probes * HMAC_LATENCY_CYCLES;
    let rebuild_ops = nodes_written + 1;
    let rebuild_end = retry_end + rebuild_ops * HMAC_LATENCY_CYCLES;
    let timeline = vec![
        RecoverySpan {
            stage: Stage::RecoveryAttackLocate,
            start: 0,
            end: locate_end,
            ops: locate_ops,
            nvm_writes: 0,
        },
        RecoverySpan {
            stage: Stage::RecoveryCounterRetry,
            start: locate_end,
            end: retry_end,
            ops: retry_probes,
            nvm_writes: scratch.touched_counters.len() as u64,
        },
        RecoverySpan {
            stage: Stage::RecoveryTreeRebuild,
            start: retry_end,
            end: rebuild_end,
            ops: rebuild_ops,
            nvm_writes: nodes_written,
        },
    ];

    RecoveryReport {
        design: image.design,
        recovered_counter_lines: scratch.touched_counters.len() as u64,
        recovered_data_lines,
        total_retries,
        max_line_retries,
        nwb: image.tcb.nwb,
        located,
        potential_replay,
        stored_root_match,
        rebuilt_root_match,
        rebuilt_root,
        recovered_nvm,
        timeline,
        recovery_cycles: rebuild_end,
    }
}

fn classify_root(tcb: &crate::tcb::Tcb, root: &Mac128) -> RootMatch {
    if root == &tcb.root_new {
        RootMatch::New
    } else if root == &tcb.root_old {
        RootMatch::Old
    } else {
        RootMatch::Neither
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DesignKind, SimConfig};
    use crate::secmem::{DrainTrigger, SecureMemory};

    fn mem(design: DesignKind) -> SecureMemory {
        SecureMemory::new(SimConfig::small(design)).expect("valid config")
    }

    #[test]
    fn clean_image_after_drain_recovers_clean() {
        let mut m = mem(DesignKind::CcNvm);
        for i in 0..6u64 {
            m.write_back(LineAddr(i * 64), i * 100_000).unwrap();
        }
        m.drain(10_000_000, DrainTrigger::External);
        let report = recover(&m.crash_image());
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.total_retries, 0);
        assert_eq!(report.stored_root_match, RootMatch::New);
    }

    #[test]
    fn mid_epoch_crash_recovers_counters_exactly() {
        let mut m = mem(DesignKind::CcNvm);
        m.write_back(LineAddr(0), 0).unwrap();
        m.drain(100_000, DrainTrigger::External);
        // Three more write-backs, not drained.
        for i in 0..3u64 {
            m.write_back(LineAddr(0), 200_000 + i * 100_000).unwrap();
        }
        m.write_back(LineAddr(64), 900_000).unwrap();
        let truth = m.ground_truth();
        let report = recover(&m.crash_image());
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.total_retries, 4, "three bumps + one fresh line");
        assert_eq!(report.nwb, 4);
        // Recovered counters equal the pre-crash logical values.
        for (line, content) in &truth.counter_lines {
            assert_eq!(
                report.recovered_nvm.read(LineAddr(*line)),
                *content,
                "counter line {line:#x}"
            );
        }
        // The rebuilt tree equals the logical pre-crash tree.
        assert_eq!(report.rebuilt_root, truth.current_root);
    }

    #[test]
    fn retries_stay_within_budget_for_all_consistent_designs() {
        for design in [
            DesignKind::StrictConsistency,
            DesignKind::OsirisPlus,
            DesignKind::CcNvmNoDs,
            DesignKind::CcNvm,
        ] {
            let mut m = mem(design);
            for i in 0..40u64 {
                m.write_back(LineAddr((i % 3) * 64), i * 400_000).unwrap();
            }
            let report = recover(&m.crash_image());
            assert!(
                report.located.is_empty(),
                "{design}: no attacks were injected: {report:?}"
            );
            let truth = m.ground_truth();
            for (line, content) in &truth.counter_lines {
                assert_eq!(
                    report.recovered_nvm.read(LineAddr(*line)),
                    *content,
                    "{design}: counter line {line:#x}"
                );
            }
            assert_eq!(report.rebuilt_root, truth.current_root, "{design}");
        }
    }

    #[test]
    fn report_display_summarizes() {
        let mut m = mem(DesignKind::CcNvm);
        m.write_back(LineAddr(0), 0).unwrap();
        let report = recover(&m.crash_image());
        let text = report.to_string();
        assert!(text.contains("retries"));
        assert_eq!(report.verdict(false), Verdict::Clean);

        let mut img = m.crash_image();
        crate::attack::spoof_data(&mut img, LineAddr(0));
        let report = recover(&img);
        assert_eq!(
            report.located,
            vec![LocatedAttack::DataTampered { line: LineAddr(0) }]
        );
        assert!(report.to_string().contains("located attacks: 1"));
        assert_eq!(report.verdict(false), Verdict::Attacked);
    }

    #[test]
    fn verdict_weighs_the_loss_window_before_the_design() {
        let mut m = mem(DesignKind::CcNvm);
        m.write_back(LineAddr(0), 0).unwrap();
        let clean = recover(&m.crash_image());
        assert_eq!(clean.verdict(true), Verdict::Clean);

        let mut img = m.crash_image();
        crate::attack::spoof_data(&mut img, LineAddr(0));
        let mut unclean = recover(&img);
        assert_eq!(unclean.verdict(true), Verdict::DurabilityLoss);
        unclean.design = DesignKind::WithoutCc;
        assert_eq!(unclean.verdict(false), Verdict::Unrecoverable);
        assert_eq!(unclean.verdict(true), Verdict::DurabilityLoss);
        assert_eq!(
            [
                Verdict::Clean,
                Verdict::DurabilityLoss,
                Verdict::Unrecoverable,
                Verdict::Attacked
            ]
            .map(|v| v.to_string()),
            ["CLEAN", "DURABILITY LOSS", "UNRECOVERABLE", "ATTACKED"]
        );
    }

    #[test]
    fn timeline_is_contiguous_and_folds_into_the_profiler() {
        let mut m = mem(DesignKind::CcNvm);
        for i in 0..8u64 {
            m.write_back(LineAddr((i % 4) * 64), i * 300_000).unwrap();
        }
        let report = recover(&m.crash_image());
        assert_eq!(report.timeline.len(), 3);
        let mut prev_end = 0;
        let mut total = 0;
        for span in &report.timeline {
            assert_eq!(span.start, prev_end, "spans must be contiguous");
            prev_end = span.end;
            total += span.cycles();
        }
        assert_eq!(prev_end, report.recovery_cycles);
        assert_eq!(total, report.recovery_cycles);
        // Retrying touched counters is visible as probe work.
        assert!(report.timeline[1].ops >= report.total_retries);

        let mut prof = SpanProfiler::default();
        prof.absorb_recovery(&report);
        assert_eq!(
            prof.domain_cycles(crate::obs::profile::Domain::Recovery),
            report.recovery_cycles
        );
        assert_eq!(
            prof.total_writes(),
            report.timeline.iter().map(|s| s.nvm_writes).sum::<u64>()
        );

        let text = report.to_string();
        assert!(text.contains("recovery timeline"));
        assert!(text.contains("recovery-counter-retry"));
    }

    #[test]
    fn sc_image_needs_no_retries() {
        let mut m = mem(DesignKind::StrictConsistency);
        for i in 0..10u64 {
            m.write_back(LineAddr(i * 64), i * 400_000).unwrap();
        }
        let report = recover(&m.crash_image());
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.total_retries, 0);
        assert_eq!(report.rebuilt_root_match, RootMatch::New);
    }

    #[test]
    fn osiris_recovers_within_stop_loss_budget() {
        let mut m = mem(DesignKind::OsirisPlus);
        for i in 0..30u64 {
            m.write_back(LineAddr(0), i * 400_000).unwrap();
        }
        let report = recover(&m.crash_image());
        assert!(report.is_clean(), "{report:?}");
        assert!(report.total_retries <= m.config().update_limit as u64);
        assert_eq!(report.rebuilt_root_match, RootMatch::New);
    }

    #[test]
    fn mixed_image_report_is_pinned() {
        // Page 0: lines 0 and 4..=7 drained (0 retries each), then line
        // 1 written once (1 retry) and line 2 three times (3 retries).
        // Page 1: its counter line never reached NVM (2 retries on line
        // 67). Line 5 is spoofed; it shares its data-HMAC line with the
        // clean lines 4, 6 and 7.
        let mut m = mem(DesignKind::CcNvm);
        let mut now = 0u64;
        let mut wb = |m: &mut SecureMemory, line: u64| {
            now += 100_000;
            m.write_back(LineAddr(line), now).unwrap();
        };
        for line in [0, 4, 5, 6, 7] {
            wb(&mut m, line);
        }
        m.drain(10_000_000, DrainTrigger::External);
        for line in [1, 2, 2, 2, 67, 67] {
            wb(&mut m, line);
        }
        let mut image = m.crash_image();
        let layout = SecureLayout::new(image.capacity_bytes);
        assert!(!image.nvm.contains(layout.counter_line_of(LineAddr(67))));
        crate::attack::spoof_data(&mut image, LineAddr(5));

        let report = recover(&image);
        assert_eq!(
            report.located,
            vec![LocatedAttack::DataTampered { line: LineAddr(5) }]
        );
        assert_eq!(
            (report.total_retries, report.max_line_retries, report.nwb),
            (6, 3, 6)
        );
        assert_eq!(
            (report.recovered_counter_lines, report.recovered_data_lines),
            (2, 3)
        );
        assert!(!report.potential_replay);
        assert_eq!(report.stored_root_match, RootMatch::New);
        // cc-NVM moves its roots only at a drain, so the rebuilt tree,
        // which holds the post-drain counters, matches neither.
        assert_eq!(report.rebuilt_root_match, RootMatch::Neither);
        let spans: Vec<_> = report
            .timeline
            .iter()
            .map(|s| (s.start, s.end, s.ops, s.nvm_writes))
            .collect();
        assert_eq!(
            spans,
            vec![(0, 1560, 6, 0), (1560, 6840, 30, 2), (6840, 7240, 5, 4)]
        );
        assert_eq!(report.recovery_cycles, 7240);
        assert_eq!(
            report.rebuilt_root,
            [
                0x6d, 0xd2, 0xf7, 0xde, 0x4b, 0x99, 0x92, 0xea, 0xaf, 0x38, 0xb3, 0xfe, 0xec, 0x0c,
                0x4a, 0xd1
            ]
        );
        // Packed 7-bit minors after the 8-byte major: page 0 holds
        // minors 1, 1, 3, 0, 1, 1, 1, 1; page 1 holds minor 2 at offset 3.
        let ctr = |line: u64| {
            report
                .recovered_nvm
                .read(layout.counter_line_of(LineAddr(line)))
        };
        let packed = |bytes: &[(usize, u8)]| {
            let mut line = [0u8; 64];
            for &(i, b) in bytes {
                line[i] = b;
            }
            line
        };
        assert_eq!(
            ctr(0),
            packed(&[(8, 129), (9, 192), (11, 16), (12, 8), (13, 4), (14, 2)])
        );
        assert_eq!(ctr(67), packed(&[(10, 64)]));
    }

    #[test]
    fn without_cc_can_be_unrecoverable() {
        // Tiny meta cache so dirty counters are *not* evicted (which
        // would persist them); keep everything cached while counters
        // run far past N, then crash.
        let mut m = mem(DesignKind::WithoutCc);
        let n = m.config().update_limit as u64;
        for i in 0..3 * n {
            m.write_back(LineAddr(0), i * 400_000).unwrap();
        }
        let report = recover(&m.crash_image());
        // Counter is 3N ahead of the durable zero state: unrecoverable.
        assert_eq!(
            report.located,
            vec![LocatedAttack::DataTampered { line: LineAddr(0) }],
            "the baseline cannot distinguish staleness from attack"
        );
    }
}
