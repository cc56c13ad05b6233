//! Durable flight recorder and post-crash forensics.
//!
//! Every other observability layer ([`Recorder`](super::Recorder),
//! [`MetricsRegistry`](super::metrics::MetricsRegistry), the auditor)
//! lives in process memory, so the one scenario the §4.4 recovery
//! story cares about — an actual process death — destroys all evidence
//! of what the system was doing. This module is the crash-persistent
//! "black box". One writer on the durable layer of
//! [`SecureMemory`](crate::secmem::SecureMemory) sends every entry both
//! to the file backend's `flight.log` sidecar (see
//! [`ccnvm_mem::read_flight_log`]), framed with the same CRC-32/torn-tail
//! discipline as `commit.log`, and to the bounded in-process
//! [`FlightRecorder`] ring when one is attached. The ring therefore
//! holds the sidecar's entries, minus the rotation and `manifest-swap`
//! brackets the file backend writes itself when it compacts.
//!
//! A flight entry is one line of JSON in the restricted dialect
//! [`super::json`] parses. Four shapes exist:
//!
//! * `{"flight":"boundary","op":"begin"|"end"|"rotate","label":L}` —
//!   intent/completion brackets around every crash-point boundary
//!   (`wpq-retire`, `drain-stage`, `root-alternate`, `nwb-update`,
//!   `manifest-swap`). The *begin* is durable before the boundary's
//!   action runs and the *end* only after its kill point passed, so
//!   the last unmatched begin in a recovered log names the boundary
//!   the process died inside.
//! * `{"flight":"event","data":E}` — a [`super::Event`] in its
//!   `to_json` form (drain stages, audit violations).
//! * `{"flight":"metric","data":S}` — a sampled
//!   [`Sample`](super::metrics::Sample).
//! * `{"flight":"epoch","at":N,"index":K}` — an epoch commit marker;
//!   the highest `index` recovered is the last committed epoch.
//!
//! [`analyze`] folds a recovered entry stream into a
//! [`FlightAnalysis`], and [`forensic_report`] joins that with the
//! [`PowerCut`] and its [`RecoveryReport`] into a [`ForensicReport`]
//! (`ccnvm-forensics/1` JSON plus human-readable text).

use crate::config::DesignKind;
use crate::crash::{CrashSurface, PowerCut};
use crate::obs::json::Json;
use crate::obs::metrics::Sample;
use crate::obs::{json, Event};
use crate::recovery::{RecoveryReport, Verdict};
use ccnvm_mem::{Cycle, FsyncStrategy, Ring};
use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Schema identifier stamped into every forensic report.
pub const FORENSICS_SCHEMA: &str = "ccnvm-forensics/1";

/// Sizing knobs for a [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Ring-buffer capacity (entries retained in process memory; the
    /// durable sidecar is bounded by log compaction, not by this).
    pub capacity: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self { capacity: 4096 }
    }
}

/// Bounded in-process ring of recent flight entries with drop
/// accounting — the volatile half of the black box. Attach with
/// [`SecureMemory::attach_flight`](crate::secmem::SecureMemory::attach_flight);
/// the durable half is the file backend's `flight.log` sidecar, fed
/// by the same writer through the
/// [`DurableBackend`](ccnvm_mem::DurableBackend) seam. Boundary
/// brackets are fixed texts and enter the ring borrowed.
pub type FlightRecorder = Ring<Cow<'static, str>>;

/// Builds the flight entry for a trace event.
pub fn event_line(event: &Event) -> String {
    format!("{{\"flight\":\"event\",\"data\":{}}}", event.to_json())
}

/// Builds the flight entry for a metrics sample.
pub fn metric_line(sample: &Sample) -> String {
    format!("{{\"flight\":\"metric\",\"data\":{}}}", sample.to_json())
}

/// Builds the flight entry marking epoch `index` committed at `at`.
pub fn epoch_line(at: Cycle, index: u64) -> String {
    format!("{{\"flight\":\"epoch\",\"at\":{at},\"index\":{index}}}")
}

/// What a recovered flight log says about the moments before death.
/// Produced by [`analyze`]; every field is derived purely from the
/// entry stream, so it reflects only what was durable at the kill.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightAnalysis {
    /// Entries recovered from the log.
    pub entries: u64,
    /// Boundary `begin` brackets seen.
    pub boundaries_begun: u64,
    /// Boundary `end` brackets seen.
    pub boundaries_completed: u64,
    /// Labels of begins with no matching end, in open order — the
    /// innermost (last) one is the boundary the process died inside.
    pub open_boundaries: Vec<String>,
    /// The innermost unmatched begin: the inferred crash cause.
    /// `None` means the log is quiescent — the process died (or
    /// exited) outside any instrumented boundary.
    pub inferred_cause: Option<String>,
    /// Highest epoch index whose commit marker reached the log.
    pub last_committed_epoch: Option<u64>,
    /// Stage of the last drain event recovered (`stage`, `commit` or
    /// `discard`) — `stage` with no following `commit` means the
    /// process died mid-drain.
    pub last_drain_stage: Option<String>,
    /// Audit-violation events recovered.
    pub audit_violations: u64,
    /// Metric samples recovered.
    pub metric_samples: u64,
    /// Trace events recovered.
    pub event_entries: u64,
    /// Whether the log was rotated by a compaction (history before
    /// the rotation is gone by design).
    pub rotated: bool,
    /// Latest simulated cycle stamped on any recovered entry — under
    /// relaxed fsync strategies, everything after it fell in the loss
    /// window.
    pub last_at: Option<Cycle>,
}

impl FlightAnalysis {
    /// Whether no boundary was open at death.
    pub fn quiescent(&self) -> bool {
        self.open_boundaries.is_empty()
    }

    /// Whether the log explains the kill armed at the boundary labelled
    /// `armed`: the inferred cause names it — or, for a run that
    /// completed (`None`), the log is quiescent.
    pub fn explains(&self, armed: Option<&str>) -> bool {
        self.inferred_cause.as_deref() == armed
    }
}

/// Folds a recovered flight-entry stream (from
/// [`ccnvm_mem::read_flight_log`] or a [`FlightRecorder`] ring) into
/// a [`FlightAnalysis`].
///
/// # Errors
///
/// Returns a description of the first entry that is not one of the
/// four flight shapes. Unmatched `end` brackets are tolerated (a
/// rotation or a lost tail can orphan them), as is an abruptly ending
/// stream — that is the expected shape of a crash.
pub fn analyze(entries: &[String]) -> Result<FlightAnalysis, String> {
    let mut a = FlightAnalysis {
        entries: entries.len() as u64,
        ..FlightAnalysis::default()
    };
    let mut open: Vec<String> = Vec::new();
    for (i, line) in entries.iter().enumerate() {
        let ctx = |e: String| format!("flight entry {}: {e}", i + 1);
        let v = json::parse(line).map_err(ctx)?;
        match v.str_field("flight").map_err(ctx)? {
            "boundary" => {
                let op = v.str_field("op").map_err(ctx)?;
                if op == "rotate" {
                    a.rotated = true;
                    continue;
                }
                let label = v.str_field("label").map_err(ctx)?;
                match op {
                    "begin" => {
                        a.boundaries_begun += 1;
                        open.push(label.to_string());
                    }
                    "end" => {
                        a.boundaries_completed += 1;
                        if let Some(pos) = open.iter().rposition(|l| l == label) {
                            open.remove(pos);
                        }
                    }
                    other => return Err(ctx(format!("unknown boundary op {other:?}"))),
                }
            }
            "event" => {
                a.event_entries += 1;
                let data = v
                    .get("data")
                    .ok_or_else(|| ctx("event entry without data".into()))?;
                if let Some(at) = data.get("at").and_then(Json::as_num) {
                    a.last_at = Some(a.last_at.unwrap_or(0).max(at));
                }
                match data.str_field("event").map_err(ctx)? {
                    "drain" => {
                        a.last_drain_stage = Some(data.str_field("stage").map_err(ctx)?.to_string())
                    }
                    "audit" => a.audit_violations += 1,
                    _ => {}
                }
            }
            "metric" => {
                a.metric_samples += 1;
                if let Some(at) = v
                    .get("data")
                    .and_then(|d| d.get("at"))
                    .and_then(Json::as_num)
                {
                    a.last_at = Some(a.last_at.unwrap_or(0).max(at));
                }
            }
            "epoch" => {
                let at = v.num_field("at").map_err(ctx)?;
                let index = v.num_field("index").map_err(ctx)?;
                a.last_at = Some(a.last_at.unwrap_or(0).max(at));
                a.last_committed_epoch = Some(a.last_committed_epoch.unwrap_or(0).max(index));
            }
            other => return Err(ctx(format!("unknown flight entry kind {other:?}"))),
        }
    }
    a.inferred_cause = open.last().cloned();
    a.open_boundaries = open;
    Ok(a)
}

/// The post-crash forensic report: what the flight log says happened,
/// joined with what recovery found in the durable image. Serialized
/// as `ccnvm-forensics/1` JSON ([`ForensicReport::to_json`]) and as
/// human-readable text (`Display`).
#[derive(Debug, Clone)]
pub struct ForensicReport {
    /// Design the crashed image came from.
    pub design: DesignKind,
    /// Fsync strategy the backend ran under (`always` in memory) —
    /// determines the loss window the report must admit.
    pub fsync: FsyncStrategy,
    /// The headline verdict, the one the `recover` command prints; the
    /// JSON's `clean` and `durability_loss` flags derive from it.
    pub verdict: Verdict,
    /// Which TCB root the stored tree matched (`new`/`old`/`neither`).
    pub stored_root: &'static str,
    /// Which TCB root the rebuilt tree matched.
    pub rebuilt_root: &'static str,
    /// `N_wb` from the TCB at crash time.
    pub nwb: u64,
    /// Total counter-increment retries recovery needed.
    pub total_retries: u64,
    /// Attacks recovery located at exact addresses.
    pub located_attacks: u64,
    /// Step-3 potential-replay flag (`N_wb != N_retry`).
    pub potential_replay: bool,
    /// Lines staged in an uncommitted drain, lost per the ADR
    /// protocol (from the [`CrashImage`](crate::crash::CrashImage)).
    pub staged_lines_lost: u64,
    /// Composition of the durable image's lines by region.
    pub surface: CrashSurface,
    /// Bytes of torn flight-log tail discarded on reopen.
    pub discarded_tail_bytes: u64,
    /// Entries the in-process flight ring dropped at its capacity, so
    /// `flight.entries` misses that many from the front of the stream.
    pub dropped_entries: u64,
    /// Everything the recovered flight log said.
    pub flight: FlightAnalysis,
}

impl ForensicReport {
    /// Cross-checks the flight log's cause attribution against the
    /// image's staged-line accounting: lines lost in an aborted drain
    /// ([`CrashImage::staged_lines_lost`](crate::crash::CrashImage::staged_lines_lost))
    /// exist precisely when the process died between a drain's stage
    /// and its `end` signal, so the log must then show an open
    /// `drain-stage` bracket. Only
    /// decisive under the `always` fsync strategy — a relaxed
    /// strategy can lose the bracket with the rest of the tail.
    pub fn staged_attribution_consistent(&self) -> bool {
        self.staged_lines_lost == 0
            || self
                .flight
                .open_boundaries
                .iter()
                .any(|l| l == "drain-stage")
    }

    /// Serializes the report as one `ccnvm-forensics/1` JSON object.
    /// Optional facts (`inferred_cause`, `last_committed_epoch`,
    /// `last_drain_stage`, `flight.dropped_entries`, `flight.last_at`)
    /// are omitted when the log did not establish them or, for the drop
    /// count, when nothing was dropped; everything else is always
    /// present.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{FORENSICS_SCHEMA}\",\"design\":\"{}\",\"fsync\":\"{}\",\
\"verdict\":\"{}\",\"clean\":{},\"durability_loss\":{},\"quiescent\":{}",
            self.design.slug(),
            self.fsync,
            self.verdict,
            self.verdict == Verdict::Clean,
            self.verdict == Verdict::DurabilityLoss,
            self.flight.quiescent()
        );
        if let Some(cause) = &self.flight.inferred_cause {
            let _ = write!(out, ",\"inferred_cause\":\"{cause}\"");
        }
        if let Some(epoch) = self.flight.last_committed_epoch {
            let _ = write!(out, ",\"last_committed_epoch\":{epoch}");
        }
        if let Some(stage) = &self.flight.last_drain_stage {
            let _ = write!(out, ",\"last_drain_stage\":\"{stage}\"");
        }
        let _ = write!(
            out,
            ",\"root\":{{\"stored\":\"{}\",\"rebuilt\":\"{}\"}}",
            self.stored_root, self.rebuilt_root
        );
        let _ = write!(
            out,
            ",\"recovery\":{{\"nwb\":{},\"total_retries\":{},\"located_attacks\":{},\
\"potential_replay\":{}}}",
            self.nwb, self.total_retries, self.located_attacks, self.potential_replay
        );
        let _ = write!(
            out,
            ",\"staged_lines_lost\":{},\"staged_attribution_ok\":{}",
            self.staged_lines_lost,
            self.staged_attribution_consistent()
        );
        let s = &self.surface;
        let _ = write!(
            out,
            ",\"surface\":{{\"data\":{},\"dh\":{},\"counter\":{},\"tree\":{},\"unknown\":{},\
\"total\":{}}}",
            s.data_lines,
            s.dh_lines,
            s.counter_lines,
            s.tree_lines,
            s.unknown_lines,
            s.total_lines()
        );
        let fa = &self.flight;
        let _ = write!(
            out,
            ",\"flight\":{{\"entries\":{},\"boundaries_begun\":{},\"boundaries_completed\":{},\
\"audit_violations\":{},\"metric_samples\":{},\"event_entries\":{},\"rotated\":{},\
\"discarded_tail_bytes\":{}",
            fa.entries,
            fa.boundaries_begun,
            fa.boundaries_completed,
            fa.audit_violations,
            fa.metric_samples,
            fa.event_entries,
            fa.rotated,
            self.discarded_tail_bytes
        );
        if self.dropped_entries > 0 {
            let _ = write!(out, ",\"dropped_entries\":{}", self.dropped_entries);
        }
        if let Some(at) = fa.last_at {
            let _ = write!(out, ",\"last_at\":{at}");
        }
        out.push_str("}}");
        out
    }
}

impl fmt::Display for ForensicReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "forensic report ({FORENSICS_SCHEMA}) for a {} image, fsync {}",
            self.design, self.fsync
        )?;
        match self.flight.last_committed_epoch {
            Some(e) => writeln!(f, "last committed epoch: {e}")?,
            None => writeln!(f, "last committed epoch: none observed")?,
        }
        match &self.flight.inferred_cause {
            Some(cause) => writeln!(f, "died inside boundary: {cause}")?,
            None => writeln!(f, "died inside boundary: none (quiescent)")?,
        }
        if let Some(stage) = &self.flight.last_drain_stage {
            writeln!(f, "last drain stage: {stage}")?;
        }
        writeln!(
            f,
            "root alternation: stored={} rebuilt={}",
            self.stored_root, self.rebuilt_root
        )?;
        writeln!(
            f,
            "staged lines lost in the aborted drain: {} ({})",
            self.staged_lines_lost,
            if self.staged_attribution_consistent() {
                "consistent with the flight log"
            } else {
                "NOT matched by an open drain-stage bracket"
            }
        )?;
        let s = &self.surface;
        writeln!(
            f,
            "durable surface: {} data, {} dh, {} counter, {} tree, {} unknown ({} lines)",
            s.data_lines,
            s.dh_lines,
            s.counter_lines,
            s.tree_lines,
            s.unknown_lines,
            s.total_lines()
        )?;
        writeln!(
            f,
            "recovery: N_wb {}, {} retries, {} located attacks{}",
            self.nwb,
            self.total_retries,
            self.located_attacks,
            if self.potential_replay {
                ", POTENTIAL REPLAY"
            } else {
                ""
            }
        )?;
        let fa = &self.flight;
        write!(
            f,
            "flight log: {} entries ({} events, {} metrics, {} audit violations), \
{}/{} boundaries completed, {} torn tail bytes discarded",
            fa.entries,
            fa.event_entries,
            fa.metric_samples,
            fa.audit_violations,
            fa.boundaries_completed,
            fa.boundaries_begun,
            self.discarded_tail_bytes,
        )?;
        if self.dropped_entries > 0 {
            write!(f, ", {} dropped at ring capacity", self.dropped_entries)?;
        }
        writeln!(f, "{}", if fa.rotated { ", rotated" } else { "" })?;
        if self.fsync == FsyncStrategy::Always {
            writeln!(f, "fsync-loss window: none (every entry was synced)")?;
        } else {
            match fa.last_at {
                Some(at) => writeln!(
                    f,
                    "fsync-loss window: entries after cycle {at} may be lost (fsync {})",
                    self.fsync
                )?,
                None => writeln!(
                    f,
                    "fsync-loss window: the whole log may be lost (fsync {})",
                    self.fsync
                )?,
            }
        }
        write!(f, "verdict: {}", self.verdict)
    }
}

/// Joins a power cut, the recovery of its image and the analysis of
/// its flight log into a [`ForensicReport`].
///
/// # Errors
///
/// Returns a description of the first flight entry [`analyze`] cannot
/// read.
pub fn forensic_report(
    cut: &PowerCut,
    recovery: &RecoveryReport,
) -> Result<ForensicReport, String> {
    let flight = analyze(&cut.flight).map_err(|e| format!("flight log: {e}"))?;
    let image = &cut.image;
    Ok(ForensicReport {
        design: image.design,
        fsync: cut.fsync,
        verdict: cut.verdict(recovery),
        stored_root: recovery.stored_root_match.name(),
        rebuilt_root: recovery.rebuilt_root_match.name(),
        nwb: recovery.nwb,
        total_retries: recovery.total_retries,
        located_attacks: recovery.located.len() as u64,
        potential_replay: recovery.potential_replay,
        staged_lines_lost: image.staged_lines_lost,
        surface: image.surface(),
        discarded_tail_bytes: cut.flight_discarded,
        dropped_entries: cut.flight_dropped,
        flight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::recovery::recover;
    use crate::secmem::{DrainTrigger, SecureMemory};
    use ccnvm_mem::crashpoint::{Boundary, ROTATE_ENTRY};
    use ccnvm_mem::LineAddr;

    fn lines(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = FlightRecorder::new(2);
        for i in 0..3 {
            r.push(epoch_line(i * 10, i).into());
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        assert_eq!(
            r.iter().next().map(|e| e.as_ref()),
            Some(epoch_line(10, 1).as_str())
        );
    }

    #[test]
    fn analyze_infers_the_innermost_open_boundary() {
        let entries = lines(&[
            Boundary::DrainStage.begin(),
            Boundary::WpqRetire.begin(),
            Boundary::WpqRetire.end(),
            Boundary::WpqRetire.begin(),
        ]);
        let a = analyze(&entries).unwrap();
        assert_eq!(a.inferred_cause.as_deref(), Some("wpq-retire"));
        assert_eq!(a.open_boundaries, vec!["drain-stage", "wpq-retire"]);
        assert_eq!(a.boundaries_begun, 3);
        assert_eq!(a.boundaries_completed, 1);
        assert!(!a.quiescent());
        assert!(a.explains(Some("wpq-retire")));
        assert!(!a.explains(Some("drain-stage")));
        assert!(!a.explains(None));
    }

    #[test]
    fn analyze_balanced_log_is_quiescent() {
        let entries = lines(&[
            Boundary::NwbUpdate.begin(),
            Boundary::NwbUpdate.end(),
            &epoch_line(5000, 0),
            &epoch_line(9000, 1),
        ]);
        let a = analyze(&entries).unwrap();
        assert!(a.quiescent());
        assert_eq!(a.inferred_cause, None);
        assert!(a.explains(None));
        assert!(!a.explains(Some("nwb-update")));
        assert_eq!(a.last_committed_epoch, Some(1));
        assert_eq!(a.last_at, Some(9000));
    }

    #[test]
    fn analyze_tracks_events_metrics_and_rotation() {
        let drain = Event::Drain {
            at: 700,
            stage: crate::obs::DrainStage::Stage,
            trigger: Some(DrainTrigger::External),
            lines: 5,
        };
        let audit = Event::Audit {
            at: 800,
            check: crate::obs::audit::AuditCheck::RootAlternation,
            point: crate::obs::audit::AuditPoint::DrainCommit,
        };
        let sample = Sample {
            at: 1000,
            ..Sample::default()
        };
        let entries = lines(&[
            ROTATE_ENTRY,
            &event_line(&drain),
            &event_line(&audit),
            &metric_line(&sample),
        ]);
        let a = analyze(&entries).unwrap();
        assert!(a.rotated);
        assert_eq!(a.event_entries, 2);
        assert_eq!(a.last_drain_stage.as_deref(), Some("stage"));
        assert_eq!(a.audit_violations, 1);
        assert_eq!(a.metric_samples, 1);
        assert_eq!(a.last_at, Some(1000));
    }

    #[test]
    fn analyze_tolerates_orphan_ends_and_rejects_junk() {
        let orphan = lines(&[Boundary::ManifestSwap.end()]);
        let a = analyze(&orphan).unwrap();
        assert!(a.quiescent());
        assert_eq!(a.boundaries_completed, 1);

        assert!(analyze(&lines(&["not json"])).is_err());
        assert!(analyze(&lines(&["{\"flight\":\"bogus\"}"])).is_err());
        assert!(analyze(&lines(&[
            "{\"flight\":\"boundary\",\"op\":\"bogus\",\"label\":\"x\"}"
        ]))
        .is_err());
    }

    #[test]
    fn forensic_report_round_trips_through_json() {
        let mut m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        for i in 0..4u64 {
            m.write_back(LineAddr(i * 64), i * 100_000).unwrap();
        }
        m.drain(1_000_000, DrainTrigger::External);
        let cut = PowerCut {
            flight: lines(&[&epoch_line(1_000_000, 0)]),
            ..PowerCut::in_memory(&m)
        };
        let recovery = recover(&cut.image);
        let report = forensic_report(&cut, &recovery).unwrap();
        assert_eq!(report.verdict, Verdict::Clean);
        assert!(report.staged_attribution_consistent());

        let v = json::parse(&report.to_json()).unwrap();
        assert_eq!(v.str_field("schema").unwrap(), FORENSICS_SCHEMA);
        assert_eq!(v.str_field("design").unwrap(), "ccnvm");
        assert_eq!(v.str_field("verdict").unwrap(), "CLEAN");
        assert_eq!(v.get("clean"), Some(&Json::Bool(true)));
        assert_eq!(v.get("durability_loss"), Some(&Json::Bool(false)));
        assert_eq!(v.num_field("last_committed_epoch").unwrap(), 0);
        assert_eq!(v.get("root").unwrap().str_field("stored").unwrap(), "new");
        let surface = v.get("surface").unwrap();
        assert_eq!(
            surface.num_field("total").unwrap(),
            cut.image.surface().total_lines()
        );
        assert_eq!(v.get("flight").unwrap().get("dropped_entries"), None);

        let text = report.to_string();
        assert!(text.contains("verdict: CLEAN"), "{text}");
        assert!(text.contains("fsync-loss window: none"), "{text}");
        assert!(!text.contains("dropped"), "{text}");
    }

    #[test]
    fn ring_drops_reach_the_report() {
        let mut m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        m.attach_flight(FlightConfig { capacity: 4 });
        for i in 0..4u64 {
            m.write_back(LineAddr(i * 64), i * 100_000).unwrap();
        }
        m.drain(1_000_000, DrainTrigger::External);
        let cut = PowerCut::in_memory(&m);
        let ring = m.flight().expect("attached");
        assert_eq!(cut.flight.len(), 4);
        assert!(cut.flight.iter().eq(ring.iter()));
        assert_eq!(cut.flight_dropped, ring.dropped());
        assert!(cut.flight_dropped > 0);

        let report = forensic_report(&cut, &recover(&cut.image)).unwrap();
        assert_eq!(report.dropped_entries, cut.flight_dropped);
        let v = json::parse(&report.to_json()).unwrap();
        let flight = v.get("flight").unwrap();
        assert_eq!(flight.num_field("entries").unwrap(), 4);
        assert_eq!(
            flight.num_field("dropped_entries").unwrap(),
            cut.flight_dropped
        );
        let text = report.to_string();
        let dropped = format!("{} dropped at ring capacity", cut.flight_dropped);
        assert!(text.contains(&dropped), "{text}");
    }

    #[test]
    fn durability_loss_needs_a_relaxed_strategy() {
        let mut m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        m.write_back(LineAddr(0), 0).unwrap();
        let mut cut = PowerCut::in_memory(&m);
        crate::attack::spoof_data(&mut cut.image, LineAddr(0));
        let recovery = recover(&cut.image);
        assert!(!recovery.is_clean());

        let strict = forensic_report(&cut, &recovery).unwrap();
        assert_eq!(strict.verdict, Verdict::Attacked);
        let v = json::parse(&strict.to_json()).unwrap();
        assert_eq!(v.get("durability_loss"), Some(&Json::Bool(false)));

        let relaxed = PowerCut {
            fsync: FsyncStrategy::Batch(8),
            flight_discarded: 7,
            ..cut
        };
        let relaxed = forensic_report(&relaxed, &recovery).unwrap();
        assert_eq!(relaxed.verdict, Verdict::DurabilityLoss);
        let v = json::parse(&relaxed.to_json()).unwrap();
        assert_eq!(v.str_field("verdict").unwrap(), "DURABILITY LOSS");
        assert_eq!(v.str_field("fsync").unwrap(), "batch:8");
        assert_eq!(v.get("durability_loss"), Some(&Json::Bool(true)));
        let flight = v.get("flight").unwrap();
        assert_eq!(flight.num_field("discarded_tail_bytes").unwrap(), 7);
        assert!(relaxed.to_string().contains("whole log may be lost"));
    }

    #[test]
    fn staged_attribution_cross_check_catches_mismatches() {
        let mut m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        m.write_back(LineAddr(0), 0).unwrap();
        m.stage_drain(100_000);
        let cut = PowerCut::in_memory(&m);
        assert!(cut.image.staged_lines_lost > 0);
        let recovery = recover(&cut.image);

        // A quiescent log cannot explain lost staged lines.
        let bad = forensic_report(&cut, &recovery).unwrap();
        assert!(!bad.staged_attribution_consistent());

        // An open drain-stage bracket does.
        let open = PowerCut {
            flight: lines(&[Boundary::DrainStage.begin()]),
            ..cut
        };
        let good = forensic_report(&open, &recovery).unwrap();
        assert!(good.staged_attribution_consistent());
    }
}
