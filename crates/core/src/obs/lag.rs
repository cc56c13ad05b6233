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
//! Resolution points differ by design and are wired by the owner:
//!
//! * drainer designs (cc-NVM, cc-NVM w/o DS) resolve all pending
//!   stamps at the `end` signal of the committed drain — the atomic
//!   `ROOT_old ← ROOT_new` alternation of §4.2;
//! * strict designs (SC, Osiris Plus, w/o CC) update their root (or
//!   carry no root) on every write-back, so each stamp resolves at its
//!   own persist completion.
//!
//! A *discarded* drain (the crash model's staged-but-uncommitted
//! state) resolves nothing: those writes are exactly the ones a crash
//! would replay, and their stamps stay pending.

use crate::stats::Histogram;
use ccnvm_mem::Cycle;
use std::collections::VecDeque;

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
    /// Issue stamps awaiting their covering commit.
    pending: Vec<Cycle>,
    hist: Histogram,
    resolved: u64,
    sum: u64,
    max: u64,
    /// Most recent resolved spans, bounded to [`RECENT_SPANS`].
    recent: VecDeque<(Cycle, Cycle)>,
}

impl Default for LagTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl LagTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
            hist: Histogram::new(&lag_bounds()),
            resolved: 0,
            sum: 0,
            max: 0,
            recent: VecDeque::new(),
        }
    }

    /// Registers a write-back issued at `at` (the cycle the LLC was
    /// released).
    #[inline]
    pub fn stamp(&mut self, at: Cycle) {
        self.pending.push(at);
    }

    /// Resolves every pending stamp at commit instant `at` (a drain's
    /// `end` signal, or a strict design's persist completion).
    pub fn resolve_all(&mut self, at: Cycle) {
        for issue in self.pending.drain(..) {
            let lag = at.saturating_sub(issue);
            self.hist.record(lag);
            self.resolved += 1;
            self.sum += lag;
            self.max = self.max.max(lag);
            if self.recent.len() == RECENT_SPANS {
                self.recent.pop_front();
            }
            self.recent.push_back((issue, at));
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

    #[test]
    fn stamps_resolve_against_the_commit_instant() {
        let mut t = LagTracer::new();
        t.stamp(100);
        t.stamp(150);
        assert_eq!(t.pending(), 2);
        t.resolve_all(200);
        assert_eq!(t.pending(), 0);
        let s = t.summary();
        assert_eq!(s.resolved, 2);
        assert_eq!(s.unresolved, 0);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean, 75);
        assert_eq!(t.recent_spans().count(), 2);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        assert_eq!(LagTracer::new().summary(), LagSummary::default());
    }

    #[test]
    fn percentiles_are_monotonic() {
        let mut t = LagTracer::new();
        for i in 0..1000u64 {
            t.stamp(0);
            t.resolve_all(i);
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
        let mut t = LagTracer::new();
        t.stamp(500);
        t.resolve_all(400);
        assert_eq!(t.summary().max, 0);
        assert_eq!(t.summary().resolved, 1);
    }

    #[test]
    fn recent_ring_is_bounded() {
        let mut t = LagTracer::new();
        for i in 0..(RECENT_SPANS as u64 + 10) {
            t.stamp(i);
            t.resolve_all(i + 1);
        }
        assert_eq!(t.recent_spans().count(), RECENT_SPANS);
        // Oldest entries were evicted.
        assert_eq!(t.recent_spans().next().unwrap().0, 10);
    }
}
