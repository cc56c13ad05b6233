//! Durability-lag tracing: how long a write-back stays
//! crash-vulnerable.
//!
//! The paper's consistency argument is about *when* a write becomes
//! durable, not just how much it costs: under cc-NVM a write-back's
//! counter update sits in the Drainer's dirty address queue until the
//! covering epoch drains and the persisted ROOT commit covers it — a
//! crash inside that window replays the write (bounded by `N_wb`), a
//! crash after it does not. The [`LagTracer`] measures that window
//! directly: every accepted write-back is stamped at issue and
//! resolved at the instant its covering commit lands, in simulated
//! cycles.
//!
//! The tracer derives both instants from the pipeline's event stream,
//! which `SecureMemory::emit` feeds it:
//!
//! * a write-back's `Accept` event stamps it, and the stamp is held
//!   until the same write-back's `Encrypt` event. A drain that runs
//!   earlier in the write-back (a dirty eviction while fetching, a
//!   full dirty address queue while reserving) covers only *prior*
//!   write-backs, so it must not resolve the stamp;
//! * drainer designs (cc-NVM, cc-NVM w/o DS) resolve all pending
//!   stamps at a drain's `Commit` event, the `end` signal of §4.2's
//!   atomic `ROOT_old ← ROOT_new` alternation;
//! * strict designs (SC, Osiris Plus, w/o CC) update their root (or
//!   carry no root) on every write-back, so each stamp resolves at the
//!   write-back's own `Persist` event.
//!
//! A *discarded* drain (the crash model's staged-but-uncommitted
//! state) resolves nothing: those writes are exactly the ones a crash
//! would replay, and their stamps stay pending.

use crate::obs::{DrainStage, Event, WbPhase};
use crate::stats::Histogram;
use ccnvm_mem::{Cycle, Ring};

/// Power-of-two bucket bounds shared by the lag histogram (same shape
/// as the metrics summarizer's).
fn lag_bounds() -> Vec<u64> {
    (0..63).map(|i| 1u64 << i).collect()
}

/// Resolved `(issue, commit)` span pairs retained for timeline export
/// (the Chrome exporter's `durability-lag` track).
const RECENT_SPANS: usize = 4096;

/// Point-in-time summary of the durability-lag distribution. All
/// values are simulated cycles (integers, so exports stay inside the
/// repo's JSON subset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LagSummary {
    /// Write-backs whose covering commit has landed.
    pub resolved: u64,
    /// Write-backs still inside their crash-vulnerability window.
    pub unresolved: u64,
    /// Median lag.
    pub p50: u64,
    /// 99th-percentile lag.
    pub p99: u64,
    /// 99.9th-percentile lag.
    pub p999: u64,
    /// Mean lag (integer division).
    pub mean: u64,
    /// Largest lag observed.
    pub max: u64,
}

/// Stamps write-backs at issue and resolves them at their covering
/// commit, accumulating the durability-lag distribution.
#[derive(Debug, Clone)]
pub struct LagTracer {
    /// Whether stamps resolve at a drain's commit (drainer designs)
    /// rather than at each write-back's own persist.
    drainer: bool,
    /// The in-flight write-back's accept cycle, until its `Encrypt`.
    held: Option<Cycle>,
    /// Issue stamps awaiting their covering commit.
    pending: Vec<Cycle>,
    hist: Histogram,
    resolved: u64,
    sum: u64,
    max: u64,
    /// Most recent resolved spans.
    recent: Ring<(Cycle, Cycle)>,
}

impl LagTracer {
    /// Creates an empty tracer for a design that commits epochs
    /// through the drainer (`drainer`) or persists each write-back on
    /// its own.
    pub fn new(drainer: bool) -> Self {
        Self {
            drainer,
            held: None,
            pending: Vec::new(),
            hist: Histogram::new(&lag_bounds()),
            resolved: 0,
            sum: 0,
            max: 0,
            recent: Ring::new(RECENT_SPANS),
        }
    }

    /// Feeds one pipeline event: stamps, holds and resolves as the
    /// module docs describe; every other event is ignored.
    #[inline]
    pub fn observe(&mut self, event: Event) {
        match event {
            Event::WriteBack {
                at,
                phase: WbPhase::Accept,
                ..
            } => self.held = Some(at),
            Event::WriteBack {
                phase: WbPhase::Encrypt,
                ..
            } => self.pending.extend(self.held.take()),
            Event::WriteBack {
                at,
                phase: WbPhase::Persist,
                ..
            } if !self.drainer => self.resolve_all(at),
            Event::Drain {
                at,
                stage: DrainStage::Commit,
                ..
            } if self.drainer => self.resolve_all(at),
            _ => {}
        }
    }

    /// Resolves every pending stamp at commit instant `at`.
    fn resolve_all(&mut self, at: Cycle) {
        for issue in self.pending.drain(..) {
            let lag = at.saturating_sub(issue);
            self.hist.record(lag);
            self.resolved += 1;
            self.sum += lag;
            self.max = self.max.max(lag);
            self.recent.push((issue, at));
        }
    }

    /// Stamps still awaiting a covering commit.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Write-backs resolved so far.
    pub fn resolved(&self) -> u64 {
        self.resolved
    }

    /// 99th-percentile lag so far (0 when nothing resolved).
    pub fn p99(&self) -> u64 {
        self.hist.percentile(99.0)
    }

    /// Recent resolved `(issue, commit)` spans, oldest first.
    pub fn recent_spans(&self) -> impl Iterator<Item = (Cycle, Cycle)> + '_ {
        self.recent.iter().copied()
    }

    /// The distribution summary so far.
    pub fn summary(&self) -> LagSummary {
        LagSummary {
            resolved: self.resolved,
            unresolved: self.pending.len() as u64,
            p50: self.hist.percentile(50.0),
            p99: self.hist.percentile(99.0),
            p999: self.hist.percentile(99.9),
            mean: self.sum.checked_div(self.resolved).unwrap_or(0),
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secmem::DrainTrigger;
    use ccnvm_mem::LineAddr;

    fn wb(t: &mut LagTracer, at: Cycle, phase: WbPhase) {
        t.observe(Event::WriteBack {
            at,
            phase,
            line: LineAddr(0),
        });
    }

    fn drain(t: &mut LagTracer, at: Cycle, stage: DrainStage) {
        t.observe(Event::Drain {
            at,
            stage,
            trigger: Some(DrainTrigger::External),
            lines: 1,
        });
    }

    /// One write-back accepted at `issue` and encrypted right after.
    fn stamp(t: &mut LagTracer, issue: Cycle) {
        wb(t, issue, WbPhase::Accept);
        wb(t, issue + 1, WbPhase::Encrypt);
    }

    #[test]
    fn stamps_resolve_against_the_commit_instant() {
        let mut t = LagTracer::new(true);
        stamp(&mut t, 100);
        stamp(&mut t, 150);
        assert_eq!(t.pending(), 2);
        drain(&mut t, 200, DrainStage::Commit);
        assert_eq!(t.pending(), 0);
        let s = t.summary();
        assert_eq!(s.resolved, 2);
        assert_eq!(s.unresolved, 0);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean, 75);
        assert_eq!(t.recent_spans().count(), 2);
    }

    #[test]
    fn each_design_resolves_at_its_own_event() {
        let mut drainer = LagTracer::new(true);
        let mut strict = LagTracer::new(false);
        for t in [&mut drainer, &mut strict] {
            stamp(t, 10);
            wb(t, 40, WbPhase::Persist);
        }
        assert_eq!((drainer.pending(), strict.pending()), (1, 0));
        assert_eq!(strict.summary().max, 30);
        for t in [&mut drainer, &mut strict] {
            stamp(t, 50);
            drain(t, 90, DrainStage::Discard);
        }
        assert_eq!(
            (drainer.pending(), strict.pending()),
            (2, 1),
            "a discarded stage resolves nothing"
        );
        for t in [&mut drainer, &mut strict] {
            drain(t, 100, DrainStage::Commit);
        }
        assert_eq!((drainer.pending(), strict.pending()), (0, 1));
        assert_eq!(drainer.summary().max, 90);
    }

    #[test]
    fn a_stamp_is_held_until_its_encrypt() {
        let mut t = LagTracer::new(true);
        wb(&mut t, 100, WbPhase::Accept);
        // A drain inside the write-back, before its counter bump,
        // covers only earlier write-backs.
        drain(&mut t, 300, DrainStage::Commit);
        assert_eq!(t.summary().resolved, 0);
        assert_eq!(t.pending(), 0, "held, not yet pending");
        wb(&mut t, 400, WbPhase::Encrypt);
        assert_eq!(t.pending(), 1);
        drain(&mut t, 900, DrainStage::Commit);
        assert_eq!(t.recent_spans().collect::<Vec<_>>(), [(100, 900)]);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        assert_eq!(LagTracer::new(true).summary(), LagSummary::default());
    }

    #[test]
    fn percentiles_are_monotonic() {
        let mut t = LagTracer::new(false);
        for i in 0..1000u64 {
            wb(&mut t, 0, WbPhase::Accept);
            wb(&mut t, 0, WbPhase::Encrypt);
            wb(&mut t, i, WbPhase::Persist);
        }
        let s = t.summary();
        assert!(s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max.next_power_of_two());
        assert!(s.p50 > 0);
    }

    #[test]
    fn commit_earlier_than_issue_saturates_to_zero() {
        // Timing rounding can, in principle, order a commit's `end`
        // before a stamp taken in the same write-back burst; lag
        // saturates rather than wrapping.
        let mut t = LagTracer::new(true);
        stamp(&mut t, 500);
        drain(&mut t, 400, DrainStage::Commit);
        assert_eq!(t.summary().max, 0);
        assert_eq!(t.summary().resolved, 1);
    }

    #[test]
    fn recent_ring_is_bounded() {
        let mut t = LagTracer::new(true);
        for i in 0..(RECENT_SPANS as u64 + 10) {
            stamp(&mut t, i);
            drain(&mut t, i + 1, DrainStage::Commit);
        }
        assert_eq!(t.recent_spans().count(), RECENT_SPANS);
        // Oldest entries were evicted.
        assert_eq!(t.recent_spans().next().unwrap().0, 10);
    }
}
