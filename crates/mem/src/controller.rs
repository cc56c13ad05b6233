//! Memory controller timing model.
//!
//! The paper's controller has a 32-entry read queue, a 64-entry write
//! queue, and — central to cc-NVM — a 64-entry write pending queue
//! (WPQ) protected by Asynchronous DRAM Refresh (ADR): anything the WPQ
//! has accepted is guaranteed to reach NVM even across a power failure.
//!
//! Reads are blocking (the core observes their completion time); writes
//! and WPQ entries are posted — the caller only stalls when the target
//! queue has no free slot. The drain protocol of §4.2 uses
//! [`MemController::flush_wpq`] to time the `end`-signal flush.
//!
//! Durability bookkeeping (which lines survive a crash) is a protocol
//! property and lives in the `ccnvm` crate; this model accounts cycles
//! and traffic only.

use crate::addr::LineAddr;
use crate::ring::Ring;
use crate::store::LineMap;
use crate::timing::{BoundedQueue, Cycle, NvmTiming, NvmTimingConfig};

/// Which controller queue a [`QueueEvent`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// The blocking read queue.
    Read,
    /// The posted regular write queue.
    Write,
    /// The ADR-protected write pending queue.
    Wpq,
}

impl QueueKind {
    /// Stable lower-case name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::Read => "read",
            QueueKind::Write => "write",
            QueueKind::Wpq => "wpq",
        }
    }
}

/// One queue transaction observed by a [`QueueRecorder`]: a request
/// accepted into a controller queue, sampled at its accept time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueEvent {
    /// Cycle the request was accepted (its slot time).
    pub at: Cycle,
    /// The queue it entered.
    pub queue: QueueKind,
    /// Entries in flight immediately after the accept (occupancy
    /// sample).
    pub occupancy: usize,
    /// Whether the accept had to wait for a slot to free up.
    pub stalled: bool,
}

/// Bounded buffer of [`QueueEvent`]s: a full buffer drops its oldest
/// event and counts it, so a long run cannot grow memory without bound.
pub type QueueRecorder = Ring<QueueEvent>;

/// Queue sizes and device parameters for the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemControllerConfig {
    /// NVM device timing.
    pub nvm: NvmTimingConfig,
    /// Read queue entries (paper: 32).
    pub read_queue_entries: usize,
    /// Write queue entries (paper: 64).
    pub write_queue_entries: usize,
    /// Write pending queue entries (paper: 64, i.e. 4 KB).
    pub wpq_entries: usize,
}

impl MemControllerConfig {
    /// The paper's configuration (§5).
    pub fn paper() -> Self {
        Self {
            nvm: NvmTimingConfig::pcm(),
            read_queue_entries: 32,
            write_queue_entries: 64,
            wpq_entries: 64,
        }
    }
}

impl Default for MemControllerConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Traffic and stall counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Lines read from NVM.
    pub reads: u64,
    /// Lines written to NVM through the regular write queue.
    pub writes: u64,
    /// Writes coalesced into an already-pending write-queue entry
    /// (no additional NVM array write).
    pub merged_writes: u64,
    /// Lines written to NVM through the WPQ (drain traffic).
    pub wpq_writes: u64,
    /// Accepts that had to wait for a read-queue slot.
    pub read_queue_stalls: u64,
    /// Accepts that had to wait for a write-queue slot.
    pub write_queue_stalls: u64,
    /// Accepts that had to wait for a WPQ slot.
    pub wpq_stalls: u64,
    /// Cycles read accepts waited for a read-queue slot.
    pub read_wait_cycles: u64,
    /// Cycles write accepts waited for a write-queue slot (merged
    /// writes never wait).
    pub write_wait_cycles: u64,
    /// Cycles WPQ accepts waited for an ADR slot.
    pub wpq_wait_cycles: u64,
}

impl MemStats {
    /// Total lines written to NVM by any path — the paper's
    /// "# of Writes" metric (Fig. 5b).
    pub fn total_writes(&self) -> u64 {
        self.writes + self.wpq_writes
    }
}

/// Per-line write-endurance statistics.
///
/// PCM cells endure a bounded number of writes (~10⁷–10⁹); the paper
/// motivates cc-NVM's write-efficiency by NVM lifetime ("this results
/// in high memory write traffic, which negatively impacts NVM
/// lifetime"). [`MemController`] tracks array writes per line so
/// designs can be compared on *wear*, not just total traffic: a design
/// that hammers the same tree path ages those cells fastest, and it is
/// the hottest line that determines the (un-leveled) device lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearStats {
    /// Array writes to the single most-written line.
    pub max_line_writes: u64,
    /// The hottest line itself.
    pub hottest_line: Option<LineAddr>,
    /// Distinct lines ever written.
    pub lines_written: u64,
    /// Mean writes over the lines ever written.
    pub mean_line_writes: f64,
}

/// The memory controller: queues in front of a banked NVM device.
///
/// # Example
///
/// ```
/// use ccnvm_mem::{addr::LineAddr, MemController, MemControllerConfig};
///
/// let mut mc = MemController::new(MemControllerConfig::paper());
/// let done = mc.read(LineAddr(0), 0);
/// assert_eq!(done, 180); // 60 ns at 3 GHz
/// let accepted = mc.write(LineAddr(1), done);
/// assert_eq!(accepted, done); // posted write, queue has room
/// ```
#[derive(Debug, Clone)]
pub struct MemController {
    config: MemControllerConfig,
    nvm: NvmTiming,
    read_queue: BoundedQueue,
    write_queue: BoundedQueue,
    wpq: BoundedQueue,
    /// Per written line, `(pending until, array writes)`: the completion
    /// cycle of its last write-queue entry (0 when it has none), for
    /// write combining — a store to a line that is still queued merges
    /// into the existing entry instead of issuing another array write —
    /// and its array writes, for endurance accounting.
    lines: LineMap<(Cycle, u64)>,
    /// Running copy of the hottest line's write count (so gauges can
    /// sample it without scanning the line map).
    wear_max: u64,
    stats: MemStats,
    /// Optional queue-event observer; `None` (the default) keeps the
    /// hot path free of any recording work or allocation.
    recorder: Option<QueueRecorder>,
}

impl MemController {
    /// Creates an idle controller.
    pub fn new(config: MemControllerConfig) -> Self {
        Self {
            config,
            nvm: NvmTiming::new(config.nvm),
            read_queue: BoundedQueue::new(config.read_queue_entries),
            write_queue: BoundedQueue::new(config.write_queue_entries),
            wpq: BoundedQueue::new(config.wpq_entries),
            lines: LineMap::default(),
            wear_max: 0,
            stats: MemStats::default(),
            recorder: None,
        }
    }

    /// Attaches a bounded queue-event recorder, replacing any existing
    /// one. From now on every queue accept is sampled until a consumer
    /// takes it with [`MemController::take_queue_events`].
    pub fn attach_queue_recorder(&mut self, capacity: usize) {
        self.recorder = Some(QueueRecorder::new(capacity));
    }

    /// The attached queue recorder, if any.
    pub fn queue_recorder(&self) -> Option<&QueueRecorder> {
        self.recorder.as_ref()
    }

    /// Removes the buffered queue events, yielding them in record
    /// order (none when no recorder is attached).
    pub fn take_queue_events(&mut self) -> impl Iterator<Item = QueueEvent> + '_ {
        self.recorder.iter_mut().flat_map(Ring::drain)
    }

    /// WPQ entries in flight as of the last accept.
    pub fn wpq_len(&self) -> usize {
        self.wpq.len()
    }

    /// WPQ entries whose array writes have not completed by `now` —
    /// the sampled-occupancy gauge. Pure probe: applies the same
    /// retirement rule as `accept` without retiring anything.
    pub fn wpq_occupancy(&self, now: Cycle) -> usize {
        self.wpq.len_at(now).min(self.config.wpq_entries)
    }

    /// Issues a blocking read of `line`; returns its completion cycle.
    pub fn read(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        let before = self.read_queue.stalled_accepts();
        let slot = self.read_queue.accept(now);
        let stalled = self.read_queue.stalled_accepts() > before;
        self.stats.read_queue_stalls += self.read_queue.stalled_accepts() - before;
        self.stats.read_wait_cycles += slot.saturating_sub(now);
        let done = self.nvm.access(line, false, slot);
        self.read_queue.push(done);
        self.stats.reads += 1;
        if let Some(rec) = &mut self.recorder {
            rec.push(QueueEvent {
                at: slot,
                queue: QueueKind::Read,
                occupancy: self.read_queue.len(),
                stalled,
            });
        }
        done
    }

    /// Posts a write of `line` through the regular write queue; returns
    /// the cycle at which the request was *accepted* (the earliest time
    /// the producer may continue).
    ///
    /// Writes to a line that is still pending in the queue are
    /// coalesced (write combining): no additional array write is
    /// issued or counted.
    pub fn write(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        // Staleness is checked on lookup: an entry whose write already
        // drained (`pending_until <= now`) no longer merges, and the
        // write below replaces it. A line enters the map only with an
        // array write, so its entry always counts at least one.
        let (pending_until, wear) = self.lines.entry(line.0).or_default();
        if *pending_until > now {
            self.stats.merged_writes += 1;
            return now;
        }
        let before = self.write_queue.stalled_accepts();
        let slot = self.write_queue.accept(now);
        let stalled = self.write_queue.stalled_accepts() > before;
        self.stats.write_queue_stalls += self.write_queue.stalled_accepts() - before;
        self.stats.write_wait_cycles += slot.saturating_sub(now);
        let done = self.nvm.access(line, true, slot);
        self.write_queue.push(done);
        *pending_until = done;
        *wear += 1;
        self.wear_max = self.wear_max.max(*wear);
        self.stats.writes += 1;
        if let Some(rec) = &mut self.recorder {
            rec.push(QueueEvent {
                at: slot,
                queue: QueueKind::Write,
                occupancy: self.write_queue.len(),
                stalled,
            });
        }
        slot
    }

    /// Posts a write of `line` through the ADR-protected WPQ; returns
    /// the acceptance cycle.
    pub fn wpq_write(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        let before = self.wpq.stalled_accepts();
        let slot = self.wpq.accept(now);
        let stalled = self.wpq.stalled_accepts() > before;
        self.stats.wpq_stalls += self.wpq.stalled_accepts() - before;
        self.stats.wpq_wait_cycles += slot.saturating_sub(now);
        let done = self.nvm.access(line, true, slot);
        self.wpq.push(done);
        let (_, wear) = self.lines.entry(line.0).or_default();
        *wear += 1;
        self.wear_max = self.wear_max.max(*wear);
        self.stats.wpq_writes += 1;
        if let Some(rec) = &mut self.recorder {
            rec.push(QueueEvent {
                at: slot,
                queue: QueueKind::Wpq,
                occupancy: self.wpq.len(),
                stalled,
            });
        }
        slot
    }

    /// Cycle at which everything currently in the WPQ has reached NVM
    /// (the drain `end`-signal flush of §4.2).
    pub fn flush_wpq(&mut self, now: Cycle) -> Cycle {
        self.wpq.last_completion().unwrap_or(now).max(now)
    }

    /// Cycle at which everything currently in the write queue has
    /// reached NVM.
    pub fn flush_writes(&mut self, now: Cycle) -> Cycle {
        self.write_queue.last_completion().unwrap_or(now).max(now)
    }

    /// Traffic and stall counters so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Per-line endurance statistics so far.
    pub fn wear_stats(&self) -> WearStats {
        let mut max = 0u64;
        let mut hottest = None;
        let mut total = 0u64;
        for (&line, &(_, count)) in &self.lines {
            total += count;
            // Ties break to the lowest address so the report is
            // deterministic despite the map's iteration order.
            let wins =
                count > max || (count == max && hottest.is_some_and(|h: LineAddr| line < h.0));
            if wins {
                max = count;
                hottest = Some(LineAddr(line));
            }
        }
        let lines = self.lines.len() as u64;
        WearStats {
            max_line_writes: max,
            hottest_line: hottest,
            lines_written: lines,
            mean_line_writes: if lines == 0 {
                0.0
            } else {
                total as f64 / lines as f64
            },
        }
    }

    /// Array writes endured by `line` so far.
    pub fn line_wear(&self, line: LineAddr) -> u64 {
        self.lines.get(&line.0).map_or(0, |&(_, wear)| wear)
    }

    /// Writes endured by the single hottest line so far — the running
    /// equivalent of [`WearStats::max_line_writes`], cheap enough to
    /// sample every metrics interval.
    pub fn max_line_wear(&self) -> u64 {
        self.wear_max
    }

    /// Every `(line, writes)` wear entry, sorted by address so the
    /// export order is deterministic despite the map.
    pub fn wear_entries(&self) -> Vec<(LineAddr, u64)> {
        let mut entries: Vec<(LineAddr, u64)> = self
            .lines
            .iter()
            .map(|(&line, &(_, count))| (LineAddr(line), count))
            .collect();
        entries.sort_unstable_by_key(|&(line, _)| line.0);
        entries
    }

    /// The configuration in use.
    pub fn config(&self) -> MemControllerConfig {
        self.config
    }

    /// WPQ slots free as of `now` (drainer-visible headroom): capacity
    /// minus the entries whose array writes have not completed by
    /// `now`. Applies the same retirement rule as `accept` — entries
    /// done at or before `now` have left the queue — but is a pure
    /// probe: no entry is retired and no timing state changes.
    pub fn wpq_free_slots(&self, now: Cycle) -> usize {
        self.config.wpq_entries - self.wpq.len_at(now).min(self.config.wpq_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemController {
        MemController::new(MemControllerConfig::paper())
    }

    #[test]
    fn read_returns_completion() {
        let mut m = mc();
        assert_eq!(m.read(LineAddr(0), 0), 180);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn posted_write_returns_accept_time() {
        let mut m = mc();
        assert_eq!(m.write(LineAddr(0), 5), 5);
        assert_eq!(m.stats().writes, 1);
    }

    #[test]
    fn write_queue_backpressure() {
        let mut m = MemController::new(MemControllerConfig {
            nvm: NvmTimingConfig {
                read_cycles: 10,
                write_cycles: 100,
                banks: 1,
            },
            read_queue_entries: 4,
            write_queue_entries: 2,
            wpq_entries: 2,
        });
        assert_eq!(m.write(LineAddr(0), 0), 0); // completes at 100
        assert_eq!(m.write(LineAddr(1), 0), 0); // completes at 200
                                                // Queue full: third write stalls until the first retires.
        assert_eq!(m.write(LineAddr(2), 0), 100);
        assert_eq!(m.stats().write_queue_stalls, 1);
        assert_eq!(m.stats().write_wait_cycles, 100, "waited 0..100 for a slot");
        assert_eq!(m.stats().read_wait_cycles, 0);
    }

    #[test]
    fn wpq_flush_times_last_entry() {
        let mut m = MemController::new(MemControllerConfig {
            nvm: NvmTimingConfig {
                read_cycles: 10,
                write_cycles: 100,
                banks: 1,
            },
            read_queue_entries: 4,
            write_queue_entries: 4,
            wpq_entries: 4,
        });
        m.wpq_write(LineAddr(0), 0); // done at 100
        m.wpq_write(LineAddr(1), 0); // done at 200
        assert_eq!(m.flush_wpq(0), 200);
        assert_eq!(m.stats().wpq_writes, 2);
        assert_eq!(m.stats().total_writes(), 2);
    }

    #[test]
    fn wear_tracks_array_writes_only() {
        let mut m = mc();
        m.write(LineAddr(5), 0);
        m.write(LineAddr(5), 0); // merged: no wear
        m.wpq_write(LineAddr(5), 10_000);
        m.wpq_write(LineAddr(9), 10_000);
        let w = m.wear_stats();
        assert_eq!(m.line_wear(LineAddr(5)), 2);
        assert_eq!(m.line_wear(LineAddr(9)), 1);
        assert_eq!(m.line_wear(LineAddr(7)), 0);
        assert_eq!(w.max_line_writes, 2);
        assert_eq!(w.hottest_line, Some(LineAddr(5)));
        assert_eq!(w.lines_written, 2);
        assert!((w.mean_line_writes - 1.5).abs() < 1e-12);
    }

    #[test]
    fn wear_stats_empty() {
        let m = mc();
        let w = m.wear_stats();
        assert_eq!(w.max_line_writes, 0);
        assert_eq!(w.hottest_line, None);
        assert_eq!(w.mean_line_writes, 0.0);
    }

    #[test]
    fn flush_of_empty_wpq_is_noop() {
        let mut m = mc();
        assert_eq!(m.flush_wpq(42), 42);
    }

    #[test]
    fn reads_bypass_buffered_writes() {
        // Reads are prioritized: a pending write does not delay a read
        // to the same bank (the write drains in the gaps).
        let mut m = MemController::new(MemControllerConfig {
            nvm: NvmTimingConfig {
                read_cycles: 10,
                write_cycles: 100,
                banks: 1,
            },
            read_queue_entries: 4,
            write_queue_entries: 4,
            wpq_entries: 4,
        });
        m.write(LineAddr(0), 0); // write service occupies until 100
        assert_eq!(m.read(LineAddr(0), 0), 10);
        // A second write to the same still-pending line coalesces.
        assert_eq!(m.write(LineAddr(0), 0), 0);
        assert_eq!(m.stats().merged_writes, 1);
        assert_eq!(m.flush_writes(0), 100, "merged write issues no array write");
        // A different line on the same (only) bank serializes.
        assert_eq!(m.write(LineAddr(1), 0), 0);
        assert_eq!(m.flush_writes(0), 200);
        // Once the original write has drained, the same line writes again.
        assert_eq!(m.write(LineAddr(0), 250), 250);
        assert_eq!(m.stats().writes, 3);
    }

    #[test]
    fn wpq_headroom_recovers_after_completions() {
        let mut m = MemController::new(MemControllerConfig {
            nvm: NvmTimingConfig {
                read_cycles: 10,
                write_cycles: 100,
                banks: 1,
            },
            read_queue_entries: 4,
            write_queue_entries: 4,
            wpq_entries: 4,
        });
        assert_eq!(m.wpq_free_slots(0), 4);
        m.wpq_write(LineAddr(0), 0); // completes at 100
        m.wpq_write(LineAddr(1), 0); // completes at 200 (same bank)
        assert_eq!(m.wpq_free_slots(0), 2);
        // At 150 the first entry has drained; the probe must see the
        // freed slot even though `accept` never ran at that cycle.
        assert_eq!(m.wpq_free_slots(150), 3);
        assert_eq!(m.wpq_free_slots(200), 4, "completion at `now` has retired");
        // The probe retired nothing: occupancy state is untouched.
        assert_eq!(m.wpq_len(), 2);
        assert_eq!(m.stats().wpq_stalls, 0);
    }

    #[test]
    fn merged_writes_accounting_unchanged_by_on_lookup_staleness() {
        let mut m = MemController::new(MemControllerConfig {
            nvm: NvmTimingConfig {
                read_cycles: 10,
                write_cycles: 100,
                banks: 1,
            },
            read_queue_entries: 4,
            write_queue_entries: 4,
            wpq_entries: 4,
        });
        m.write(LineAddr(0), 0); // pending until 100
        m.write(LineAddr(0), 50); // still pending: merges
        m.write(LineAddr(0), 99); // boundary: done > now, still merges
        m.write(LineAddr(0), 100); // done == now: stale, new array write
        m.write(LineAddr(0), 150); // pending until 300 now: merges
        assert_eq!(m.stats().writes, 2);
        assert_eq!(m.stats().merged_writes, 3);
        assert_eq!(m.line_wear(LineAddr(0)), 2, "merges issue no array write");
    }

    #[test]
    fn queue_recorder_samples_accepts() {
        let mut m = MemController::new(MemControllerConfig {
            nvm: NvmTimingConfig {
                read_cycles: 10,
                write_cycles: 100,
                banks: 1,
            },
            read_queue_entries: 4,
            write_queue_entries: 4,
            wpq_entries: 2,
        });
        assert_eq!(m.take_queue_events().count(), 0, "no recorder attached");
        m.attach_queue_recorder(16);
        m.read(LineAddr(0), 0);
        m.write(LineAddr(1), 0);
        m.write(LineAddr(1), 0); // merged: no queue transaction, no event
        m.wpq_write(LineAddr(2), 0);
        m.wpq_write(LineAddr(3), 0);
        m.wpq_write(LineAddr(4), 0); // WPQ full: stalls until cycle 100
        let events: Vec<QueueEvent> = m.take_queue_events().collect();
        assert_eq!(events.len(), 5, "merged write produced no event");
        assert_eq!(
            events[0],
            QueueEvent {
                at: 0,
                queue: QueueKind::Read,
                occupancy: 1,
                stalled: false
            }
        );
        assert_eq!(events[1].queue, QueueKind::Write);
        let wpq: Vec<_> = events
            .iter()
            .filter(|e| e.queue == QueueKind::Wpq)
            .collect();
        assert_eq!(wpq.len(), 3);
        assert!(!wpq[0].stalled);
        assert!(!wpq[1].stalled);
        assert!(wpq[2].stalled, "third WPQ write waited for a slot");
        assert!(m.stats().wpq_wait_cycles > 0, "stalled accept waited");
        assert_eq!(m.take_queue_events().count(), 0, "events were drained");
    }

    #[test]
    fn queue_recorder_bounds_memory() {
        let mut m = mc();
        m.attach_queue_recorder(2);
        m.read(LineAddr(0), 0);
        m.read(LineAddr(1), 0);
        m.read(LineAddr(2), 0);
        let rec = m.queue_recorder().expect("attached");
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
        assert_eq!(m.take_queue_events().count(), 2, "oldest event was dropped");
    }
}
