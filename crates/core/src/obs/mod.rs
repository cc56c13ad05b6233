//! Observability: deterministic, zero-cost-when-off event tracing and
//! per-epoch metrics for the secure-memory pipeline.
//!
//! The paper's argument (Figs. 5–6) is about *where cycles and writes
//! go* — write-back stalls, drain bursts, Meta Cache churn — but
//! aggregate [`RunStats`](crate::stats::RunStats) counters cannot show
//! what happens *inside* an epoch. This module adds that visibility:
//!
//! * [`Event`] / [`EventTrace`] — a bounded ring buffer of typed
//!   pipeline events: write-back phases (from `writepath`), drain
//!   stage/commit/discard (from `epoch`), Meta Cache installs and
//!   evictions (from `verify`), and controller queue-occupancy samples
//!   and stalls (from `ccnvm_mem::controller`).
//! * [`EpochRollup`] — one record per committed epoch: trigger,
//!   duration, lines drained, write-backs, WPQ high-water mark.
//! * [`Recorder`] — owns the trace, the rollups and latency
//!   [`Histogram`]s with percentile support, and renders them as
//!   JSON-lines, CSV, or a human-readable epoch-timeline report.
//!
//! The recorder is one of the six sinks — with the [`profile`],
//! [`metrics`], [`audit`], [`wear`] and [`lag`] layers — that
//! [`SecureMemory`](crate::secmem::SecureMemory) carries in one
//! `Observers` hub. The pipeline modules never name a sink: they book
//! each issued NVM write once (a `WriteKind` picks its `RunStats`
//! counter, profiler stage and wear cause together), charge cycles to
//! profiler stages, and send each event once, through `emit`. The
//! recorder derives its epoch rollups and the lag tracer its stamps
//! from that event stream alone. Flight entries go through one writer
//! on the durable layer, which feeds the in-process [`flight`] ring and
//! the backend's `flight.log` alike. Every history buffer is a
//! [`Ring`].
//!
//! **Detached cost.** Every sink is an `Option<Box<_>>` in the hub (the
//! flight ring an `Option` beside the durable backend) and none is
//! attached by default. A detached sink costs one branch per hook and
//! allocates nothing, so simulated results are byte-identical with and
//! without observers. All recording is driven by simulated time, never
//! host state, so every export is deterministic: the same run produces
//! the same bytes at any host thread count.
//!
//! # Example
//!
//! ```
//! use ccnvm::obs::RecorderConfig;
//! use ccnvm::prelude::*;
//!
//! let mut sim = Simulator::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
//! sim.memory_mut().attach_recorder(RecorderConfig::default());
//! let trace = TraceGenerator::new(profiles::by_name("lbm").unwrap(), 1);
//! sim.run(trace, 5_000).unwrap();
//! let rec = sim.memory().recorder().expect("attached");
//! assert!(rec.trace().len() > 0);
//! let mut jsonl = Vec::new();
//! rec.write_jsonl(&mut jsonl).unwrap();
//! assert!(jsonl.starts_with(b"{\"event\":"));
//! ```

pub mod audit;
pub mod chrome;
pub mod flight;
pub mod json;
pub mod lag;
pub mod metrics;
pub mod profile;
pub mod wear;

use crate::secmem::DrainTrigger;
use crate::stats::Histogram;
use ccnvm_mem::{Cycle, LineAddr, QueueKind, Ring};
use profile::Stage;
use std::fmt::Write as _;
use std::io::{self, Write};
use wear::WriteCause;

/// The observer hub: the six optional sinks of one
/// [`SecureMemory`](crate::secmem::SecureMemory), behind its single
/// `obs` field. See the module docs for the detached-cost contract.
#[derive(Debug, Default)]
pub(crate) struct Observers {
    pub(crate) recorder: Option<Box<Recorder>>,
    pub(crate) profiler: Option<Box<profile::SpanProfiler>>,
    pub(crate) metrics: Option<Box<metrics::MetricsRegistry>>,
    pub(crate) auditor: Option<Box<audit::Auditor>>,
    pub(crate) wear: Option<Box<wear::WearLedger>>,
    pub(crate) lag: Option<Box<lag::LagTracer>>,
}

impl Observers {
    /// Feeds one pipeline event to the sinks that derive their state
    /// from events: the lag tracer and the recorder.
    #[inline]
    pub(crate) fn observe(&mut self, event: Event) {
        if let Some(l) = self.lag.as_deref_mut() {
            l.observe(event);
        }
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(event);
        }
    }

    /// Whether a profiler is attached, so callers can skip computing
    /// an attribution nobody reads.
    #[inline]
    pub(crate) fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Records one write-back's end-to-end service latency. No event
    /// carries the cycle its service started, so this is a hook of its
    /// own.
    #[inline]
    pub(crate) fn note_wb_latency(&mut self, cycles: Cycle) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.note_wb_latency(cycles);
        }
    }

    /// Charges `cycles` of simulated time to profiler `stage`.
    #[inline]
    pub(crate) fn charge(&mut self, stage: Stage, cycles: Cycle) {
        if let Some(p) = self.profiler.as_deref_mut() {
            p.charge(stage, cycles);
        }
    }

    /// Books one NVM line-write to the profiler `stage` and the wear
    /// `cause`. Issued writes book both at once; the drain books its
    /// WPQ issue (cause only) apart from its commit (stage only),
    /// since a discarded stage falls between the two.
    #[inline]
    pub(crate) fn book_write(&mut self, stage: Option<Stage>, cause: Option<WriteCause>) {
        if let (Some(p), Some(stage)) = (self.profiler.as_deref_mut(), stage) {
            p.charge_write(stage);
        }
        if let (Some(w), Some(cause)) = (self.wear.as_deref_mut(), cause) {
            w.charge(cause);
        }
    }

    /// Notes one `ROOT_old ← ROOT_new` alternation, a TCB register
    /// write outside the NVM conservation sum.
    #[inline]
    pub(crate) fn note_root_alternation(&mut self) {
        if let Some(w) = self.wear.as_deref_mut() {
            w.note_root_alternation();
        }
    }

    /// Notes one persistent `N_wb` bump, a TCB register write outside
    /// the NVM conservation sum.
    #[inline]
    pub(crate) fn note_nwb_update(&mut self) {
        if let Some(w) = self.wear.as_deref_mut() {
            w.note_nwb_update();
        }
    }
}

/// What an issued NVM line-write was for. `SecureMemory::post_write`
/// takes one at every write site and derives from it, in one `match`,
/// the `RunStats` counter, the profiler [`Stage`] and the
/// [`WriteCause`]. A cause alone cannot pick the stage: eager and
/// evicted counters are both [`WriteCause::Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteKind {
    /// A write-back's encrypted data line.
    Data,
    /// A write-back's data-HMAC line.
    DataHmac,
    /// A line rewritten by a page re-encryption sweep.
    PageReencrypt,
    /// A metadata line the write-back persists itself (SC's path,
    /// Osiris stop-loss).
    EagerMeta,
    /// A dirty metadata line written out on Meta Cache eviction.
    EvictedMeta,
}

impl DrainTrigger {
    /// Stable lower-case name used in trace exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            DrainTrigger::QueueFull => "queue-full",
            DrainTrigger::DirtyEviction => "dirty-evict",
            DrainTrigger::UpdateLimit => "update-limit",
            DrainTrigger::Overflow => "overflow",
            DrainTrigger::External => "external",
        }
    }

    fn index(self) -> usize {
        match self {
            DrainTrigger::QueueFull => 0,
            DrainTrigger::DirtyEviction => 1,
            DrainTrigger::UpdateLimit => 2,
            DrainTrigger::Overflow => 3,
            DrainTrigger::External => 4,
        }
    }

    const ALL: [DrainTrigger; 5] = [
        DrainTrigger::QueueFull,
        DrainTrigger::DirtyEviction,
        DrainTrigger::UpdateLimit,
        DrainTrigger::Overflow,
        DrainTrigger::External,
    ];
}

/// Phase a write-back has just completed in the pipeline (the four
/// stages of `writepath::write_back`, plus acceptance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbPhase {
    /// Accepted by the write-back buffer (the LLC is released).
    Accept,
    /// Metadata fetch and verification complete (phase 1).
    Fetch,
    /// Dirty-address-queue reservation made (phase 2, epoch designs).
    Reserve,
    /// Counter bumped, line encrypted, HMAC computed (phase 3).
    Encrypt,
    /// Design-specific spreading/persistence complete (phase 4).
    Persist,
}

impl WbPhase {
    /// Stable lower-case name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            WbPhase::Accept => "accept",
            WbPhase::Fetch => "fetch",
            WbPhase::Reserve => "reserve",
            WbPhase::Encrypt => "encrypt",
            WbPhase::Persist => "persist",
        }
    }
}

/// Stage of the atomic drain protocol (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainStage {
    /// Queued lines staged into the WPQ behind the `start` signal.
    Stage,
    /// The `end` signal persisted; staged state became durable.
    Commit,
    /// Staged state thrown away (crash modelling).
    Discard,
}

impl DrainStage {
    /// Stable lower-case name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            DrainStage::Stage => "stage",
            DrainStage::Commit => "commit",
            DrainStage::Discard => "discard",
        }
    }
}

/// Meta Cache maintenance action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaAction {
    /// A metadata line was installed.
    Install,
    /// A clean resident line was displaced.
    EvictClean,
    /// A dirty resident line was displaced (persists, and triggers a
    /// drain in epoch designs).
    EvictDirty,
}

impl MetaAction {
    /// Stable lower-case name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            MetaAction::Install => "install",
            MetaAction::EvictClean => "evict-clean",
            MetaAction::EvictDirty => "evict-dirty",
        }
    }
}

/// One trace record. Every variant carries the simulated cycle it
/// happened at; serialized forms always include `event` and `at` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A write-back completed a pipeline phase.
    WriteBack {
        /// Cycle the phase completed.
        at: Cycle,
        /// The completed phase.
        phase: WbPhase,
        /// The data line being written back.
        line: LineAddr,
    },
    /// The drain protocol advanced a stage.
    Drain {
        /// Cycle the stage completed.
        at: Cycle,
        /// Stage reached.
        stage: DrainStage,
        /// What triggered the drain (`None` for a discard, which has
        /// no trigger of its own).
        trigger: Option<DrainTrigger>,
        /// Queued lines involved.
        lines: u64,
    },
    /// The Meta Cache installed or displaced a line.
    Meta {
        /// Cycle of the action.
        at: Cycle,
        /// What happened.
        action: MetaAction,
        /// The metadata line.
        line: LineAddr,
    },
    /// A controller queue accepted a request (occupancy sample).
    Queue {
        /// Accept cycle.
        at: Cycle,
        /// Which queue.
        queue: QueueKind,
        /// Entries in flight after the accept.
        occupancy: u64,
        /// Whether the accept waited for a slot.
        stalled: bool,
    },
    /// An epoch committed (per-epoch rollup, also kept in
    /// [`Recorder::epochs`]).
    Epoch {
        /// Commit cycle.
        at: Cycle,
        /// Zero-based epoch index.
        index: u64,
        /// What triggered the drain that ended the epoch.
        trigger: DrainTrigger,
        /// Cycles from the epoch's first write-back to commit.
        duration: Cycle,
        /// Lines drained through the WPQ.
        lines: u64,
        /// Write-backs the epoch accumulated.
        write_backs: u64,
        /// Highest WPQ occupancy observed during the epoch.
        wpq_high_water: u64,
    },
    /// An invariant auditor checkpoint recorded a violation (see
    /// [`audit::Auditor`]).
    Audit {
        /// Cycle of the failing checkpoint.
        at: Cycle,
        /// The violated invariant.
        check: audit::AuditCheck,
        /// Where the checkpoint ran.
        point: audit::AuditPoint,
    },
}

impl Event {
    /// Column names for [`Event::csv_row`], in order.
    pub const CSV_HEADER: &'static str = "event,at,phase,stage,action,line,queue,occupancy,\
stalled,trigger,lines,write_backs,duration,wpq_high_water,dropped,epochs_dropped,check,point";

    /// The simulated cycle this event happened at.
    pub fn at(&self) -> Cycle {
        match *self {
            Event::WriteBack { at, .. }
            | Event::Drain { at, .. }
            | Event::Meta { at, .. }
            | Event::Queue { at, .. }
            | Event::Epoch { at, .. }
            | Event::Audit { at, .. } => at,
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    /// All values are integers, booleans or fixed lower-case names, so
    /// no escaping is required and the output is byte-stable.
    pub fn to_json(&self) -> String {
        match *self {
            Event::WriteBack { at, phase, line } => format!(
                "{{\"event\":\"writeback\",\"at\":{at},\"phase\":\"{}\",\"line\":{}}}",
                phase.name(),
                line.0
            ),
            Event::Drain {
                at,
                stage,
                trigger,
                lines,
            } => match trigger {
                Some(t) => format!(
                    "{{\"event\":\"drain\",\"at\":{at},\"stage\":\"{}\",\"trigger\":\"{}\",\
\"lines\":{lines}}}",
                    stage.name(),
                    t.name()
                ),
                None => format!(
                    "{{\"event\":\"drain\",\"at\":{at},\"stage\":\"{}\",\"lines\":{lines}}}",
                    stage.name()
                ),
            },
            Event::Meta { at, action, line } => format!(
                "{{\"event\":\"meta\",\"at\":{at},\"action\":\"{}\",\"line\":{}}}",
                action.name(),
                line.0
            ),
            Event::Queue {
                at,
                queue,
                occupancy,
                stalled,
            } => format!(
                "{{\"event\":\"queue\",\"at\":{at},\"queue\":\"{}\",\"occupancy\":{occupancy},\
\"stalled\":{stalled}}}",
                queue.name()
            ),
            Event::Epoch {
                at,
                index,
                trigger,
                duration,
                lines,
                write_backs,
                wpq_high_water,
            } => format!(
                "{{\"event\":\"epoch\",\"at\":{at},\"index\":{index},\"trigger\":\"{}\",\
\"duration\":{duration},\"lines\":{lines},\"write_backs\":{write_backs},\
\"wpq_high_water\":{wpq_high_water}}}",
                trigger.name()
            ),
            Event::Audit { at, check, point } => format!(
                "{{\"event\":\"audit\",\"at\":{at},\"check\":\"{}\",\"point\":\"{}\"}}",
                check.name(),
                point.name()
            ),
        }
    }

    /// Serializes the event as one CSV row matching
    /// [`Event::CSV_HEADER`]; inapplicable columns are left empty.
    pub fn csv_row(&self) -> String {
        // event,at,phase,stage,action,line,queue,occupancy,stalled,
        // trigger,lines,write_backs,duration,wpq_high_water,dropped,
        // epochs_dropped (the last two only apply to the footer row)
        match *self {
            Event::WriteBack { at, phase, line } => {
                format!("writeback,{at},{},,,{},,,,,,,,,,,,", phase.name(), line.0)
            }
            Event::Drain {
                at,
                stage,
                trigger,
                lines,
            } => format!(
                "drain,{at},,{},,,,,,{},{lines},,,,,,,",
                stage.name(),
                trigger.map(|t| t.name()).unwrap_or("")
            ),
            Event::Meta { at, action, line } => {
                format!("meta,{at},,,{},{},,,,,,,,,,,,", action.name(), line.0)
            }
            Event::Queue {
                at,
                queue,
                occupancy,
                stalled,
            } => format!(
                "queue,{at},,,,,{},{occupancy},{stalled},,,,,,,,,",
                queue.name()
            ),
            Event::Epoch {
                at,
                index: _,
                trigger,
                duration,
                lines,
                write_backs,
                wpq_high_water,
            } => format!(
                "epoch,{at},,,,,,,,{},{lines},{write_backs},{duration},{wpq_high_water},,,,",
                trigger.name()
            ),
            Event::Audit { at, check, point } => {
                format!("audit,{at},,,,,,,,,,,,,,,{},{}", check.name(), point.name())
            }
        }
    }
}

/// Bounded ring buffer of [`Event`]s: when full, the oldest event is
/// dropped and counted, so arbitrarily long runs trace in constant
/// memory while keeping the most recent window.
pub type EventTrace = Ring<Event>;

/// Rollup of one committed epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRollup {
    /// Zero-based epoch index (in commit order).
    pub index: u64,
    /// What triggered the drain that ended the epoch.
    pub trigger: DrainTrigger,
    /// Cycle of the epoch's first write-back (commit cycle when the
    /// epoch had none).
    pub start: Cycle,
    /// Commit cycle.
    pub end: Cycle,
    /// Lines drained through the WPQ.
    pub lines_drained: u64,
    /// Write-backs accumulated during the epoch.
    pub write_backs: u64,
    /// Highest WPQ occupancy observed during the epoch.
    pub wpq_high_water: u64,
}

impl EpochRollup {
    /// Cycles from the epoch's first write-back to commit.
    pub fn duration(&self) -> Cycle {
        self.end.saturating_sub(self.start)
    }
}

/// Sizing knobs for a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Ring-buffer capacity of the event trace.
    pub trace_capacity: usize,
    /// Most recent epoch rollups retained (histograms still see every
    /// epoch).
    pub epoch_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            trace_capacity: 1 << 18,
            epoch_capacity: 1 << 14,
        }
    }
}

/// Collects the event trace, per-epoch rollups and latency histograms
/// for one simulation. Attach with
/// [`SecureMemory::attach_recorder`](crate::secmem::SecureMemory::attach_recorder).
///
/// The rollups come from the event stream alone: an epoch opens at the
/// first write-back accepted after a commit, counts every accept, keeps
/// the high water of the WPQ occupancy samples folded in before its
/// commit, and closes on the drain's commit event.
#[derive(Debug, Clone)]
pub struct Recorder {
    trace: EventTrace,
    epochs: Ring<EpochRollup>,
    epoch_count: u64,
    /// The open epoch's first accept, if it had one.
    epoch_start: Option<Cycle>,
    /// Write-backs accepted in the open epoch.
    epoch_write_backs: u64,
    /// Highest WPQ occupancy sampled in the open epoch.
    epoch_wpq_high_water: u64,
    trigger_counts: [u64; 5],
    wb_latency: Histogram,
    epoch_len: Histogram,
    epoch_duration: Histogram,
    epoch_lines: Histogram,
    wpq_occupancy: Histogram,
    wpq_high_water: u64,
    wpq_capacity: usize,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new(config: RecorderConfig) -> Self {
        Self {
            trace: EventTrace::new(config.trace_capacity),
            epochs: Ring::new(config.epoch_capacity.max(1)),
            epoch_count: 0,
            epoch_start: None,
            epoch_write_backs: 0,
            epoch_wpq_high_water: 0,
            trigger_counts: [0; 5],
            wb_latency: Histogram::new(&[64, 256, 1024, 4096, 16384, 65536, 262144]),
            epoch_len: Histogram::new(&[2, 4, 8, 16, 32, 64, 128, 256]),
            epoch_duration: Histogram::new(&[1024, 4096, 16384, 65536, 262144, 1048576, 4194304]),
            epoch_lines: Histogram::new(&[2, 4, 8, 16, 32, 64, 128]),
            wpq_occupancy: Histogram::new(&[2, 4, 8, 16, 32, 48, 64]),
            wpq_high_water: 0,
            wpq_capacity: 0,
        }
    }

    /// Appends one event to the trace and folds it into the epoch
    /// bookkeeping: an accept opens or extends the epoch, a WPQ sample
    /// feeds the occupancy histogram and the high-water marks, and a
    /// drain commit closes the epoch with an [`Event::Epoch`] rollup.
    pub fn record(&mut self, event: Event) {
        match event {
            Event::WriteBack {
                at,
                phase: WbPhase::Accept,
                ..
            } => {
                self.epoch_start.get_or_insert(at);
                self.epoch_write_backs += 1;
            }
            Event::Queue {
                queue: QueueKind::Wpq,
                occupancy,
                ..
            } => {
                self.wpq_occupancy.record(occupancy);
                self.wpq_high_water = self.wpq_high_water.max(occupancy);
                self.epoch_wpq_high_water = self.epoch_wpq_high_water.max(occupancy);
            }
            _ => {}
        }
        self.trace.push(event);
        if let Event::Drain {
            at,
            stage: DrainStage::Commit,
            trigger: Some(trigger),
            lines,
        } = event
        {
            self.close_epoch(trigger, at, lines);
        }
    }

    /// Records one write-back's end-to-end service latency.
    pub(crate) fn note_wb_latency(&mut self, cycles: u64) {
        self.wb_latency.record(cycles);
    }

    /// Tells the recorder the configured WPQ capacity (for reports).
    pub(crate) fn set_wpq_capacity(&mut self, slots: usize) {
        self.wpq_capacity = slots;
    }

    /// Finalizes the open epoch at its commit: traces the rollup,
    /// updates the per-epoch histograms, and re-arms for the next
    /// epoch.
    fn close_epoch(&mut self, trigger: DrainTrigger, end: Cycle, lines_drained: u64) {
        let rollup = EpochRollup {
            index: self.epoch_count,
            trigger,
            start: self.epoch_start.take().unwrap_or(end),
            end,
            lines_drained,
            write_backs: std::mem::take(&mut self.epoch_write_backs),
            wpq_high_water: std::mem::take(&mut self.epoch_wpq_high_water),
        };
        self.epoch_count += 1;
        self.trigger_counts[trigger.index()] += 1;
        self.epoch_len.record(rollup.write_backs);
        self.epoch_duration.record(rollup.duration());
        self.epoch_lines.record(lines_drained);
        self.epochs.push(rollup);
        self.trace.push(Event::Epoch {
            at: end,
            index: rollup.index,
            trigger,
            duration: rollup.duration(),
            lines: lines_drained,
            write_backs: rollup.write_backs,
            wpq_high_water: rollup.wpq_high_water,
        });
    }

    /// The event trace.
    pub fn trace(&self) -> &EventTrace {
        &self.trace
    }

    /// Retained epoch rollups, oldest first.
    pub fn epochs(&self) -> impl Iterator<Item = &EpochRollup> {
        self.epochs.iter()
    }

    /// Epochs committed over the whole run (including rollups no
    /// longer retained).
    pub fn epoch_count(&self) -> u64 {
        self.epoch_count
    }

    /// Epoch rollups dropped because the retention window was full.
    pub fn epochs_dropped(&self) -> u64 {
        self.epochs.dropped()
    }

    /// Epochs ended by `trigger` over the whole run.
    pub fn epochs_by_trigger(&self, trigger: DrainTrigger) -> u64 {
        self.trigger_counts[trigger.index()]
    }

    /// End-to-end write-back service latency (cycles).
    pub fn wb_latency(&self) -> &Histogram {
        &self.wb_latency
    }

    /// Write-backs per epoch.
    pub fn epoch_len(&self) -> &Histogram {
        &self.epoch_len
    }

    /// Epoch duration (cycles, first write-back to commit).
    pub fn epoch_duration(&self) -> &Histogram {
        &self.epoch_duration
    }

    /// Lines drained per epoch.
    pub fn epoch_lines(&self) -> &Histogram {
        &self.epoch_lines
    }

    /// WPQ occupancy sampled at each accept.
    pub fn wpq_occupancy(&self) -> &Histogram {
        &self.wpq_occupancy
    }

    /// Highest WPQ occupancy observed over the whole run.
    pub fn wpq_high_water(&self) -> u64 {
        self.wpq_high_water
    }

    /// Cycle of the newest buffered event (0 when the trace is empty);
    /// used as the footer record's timestamp.
    fn last_at(&self) -> Cycle {
        self.trace.iter().next_back().map_or(0, Event::at)
    }

    /// Writes the trace as JSON-lines: one object per event, oldest
    /// first, each with at least `event` and `at` keys, terminated by a
    /// footer record carrying the drop counters so ring-buffer
    /// truncation is visible in the exported artifact.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for event in self.trace.iter() {
            writeln!(out, "{}", event.to_json())?;
        }
        writeln!(
            out,
            "{{\"event\":\"footer\",\"at\":{},\"events\":{},\"dropped\":{},\
\"epochs\":{},\"epochs_dropped\":{}}}",
            self.last_at(),
            self.trace.len(),
            self.trace.dropped(),
            self.epoch_count,
            self.epochs.dropped()
        )?;
        Ok(())
    }

    /// Writes the trace as CSV with a header row (see
    /// [`Event::CSV_HEADER`]) and the same footer record as the JSONL
    /// export, using the two footer-only columns.
    pub fn write_csv<W: Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(out, "{}", Event::CSV_HEADER)?;
        for event in self.trace.iter() {
            writeln!(out, "{}", event.csv_row())?;
        }
        writeln!(
            out,
            "footer,{},,,,,,,,,,,,,{},{},,",
            self.last_at(),
            self.trace.dropped(),
            self.epochs.dropped()
        )?;
        Ok(())
    }

    /// Renders the epoch timeline as a human-readable report: trigger
    /// mix, percentile summaries of the per-epoch histograms and
    /// write-back latency, WPQ pressure, and the most recent epochs.
    pub fn epoch_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "epochs {} ({} rollups retained)  trace events {} ({} dropped)",
            self.epoch_count,
            self.epochs.len(),
            self.trace.len(),
            self.trace.dropped()
        );
        if self.trace.dropped() > 0 {
            let _ = writeln!(
                out,
                "warning: {} trace events dropped at ring capacity {}; \
                 exports cover the most recent window only",
                self.trace.dropped(),
                self.trace.capacity()
            );
        }
        if self.epochs.dropped() > 0 {
            let _ = writeln!(
                out,
                "warning: {} epoch rollups dropped at retention capacity {}; \
                 `last epochs` covers the most recent window only",
                self.epochs.dropped(),
                self.epochs.capacity()
            );
        }
        let mut triggers = String::new();
        for t in DrainTrigger::ALL {
            let _ = write!(
                triggers,
                "{} {}  ",
                t.name(),
                self.trigger_counts[t.index()]
            );
        }
        let _ = writeln!(out, "epochs by trigger: {}", triggers.trim_end());
        let summary = |h: &Histogram| {
            format!(
                "p50 {:>7}  p90 {:>7}  p99 {:>7}  max {:>7}  mean {:>9.1}",
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.max(),
                h.mean()
            )
        };
        let _ = writeln!(
            out,
            "epoch length (write-backs): {}",
            summary(&self.epoch_len)
        );
        let _ = writeln!(
            out,
            "epoch duration (cycles):    {}",
            summary(&self.epoch_duration)
        );
        let _ = writeln!(
            out,
            "lines drained per epoch:    {}",
            summary(&self.epoch_lines)
        );
        let _ = writeln!(
            out,
            "wb service latency (cycles):{}",
            summary(&self.wb_latency)
        );
        let _ = writeln!(
            out,
            "WPQ occupancy: p50 {}  p99 {}  high water {}{}",
            self.wpq_occupancy.percentile(50.0),
            self.wpq_occupancy.percentile(99.0),
            self.wpq_high_water,
            if self.wpq_capacity > 0 {
                format!(" / {}", self.wpq_capacity)
            } else {
                String::new()
            }
        );
        if !self.epochs.is_empty() {
            let _ = writeln!(
                out,
                "last epochs:\n  {:>6} {:>13} {:>12} {:>12} {:>6} {:>6} {:>7}",
                "idx", "trigger", "start", "end", "wb", "lines", "wpq-hw"
            );
            let shown = self.epochs.len().min(8);
            for r in self.epochs.iter().skip(self.epochs.len() - shown) {
                let _ = writeln!(
                    out,
                    "  {:>6} {:>13} {:>12} {:>12} {:>6} {:>6} {:>7}",
                    r.index,
                    r.trigger.name(),
                    r.start,
                    r.end,
                    r.write_backs,
                    r.lines_drained,
                    r.wpq_high_water
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_bounds_memory_and_counts_drops() {
        let mut trace = EventTrace::new(2);
        for i in 0..5u64 {
            trace.push(Event::Meta {
                at: i,
                action: MetaAction::Install,
                line: LineAddr(i),
            });
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 3);
        let ats: Vec<Cycle> = trace.iter().map(|e| e.at()).collect();
        assert_eq!(ats, vec![3, 4], "oldest events were dropped");
    }

    #[test]
    fn json_records_are_stable_and_keyed() {
        let events = [
            Event::WriteBack {
                at: 7,
                phase: WbPhase::Persist,
                line: LineAddr(3),
            },
            Event::Drain {
                at: 9,
                stage: DrainStage::Stage,
                trigger: Some(DrainTrigger::QueueFull),
                lines: 4,
            },
            Event::Drain {
                at: 9,
                stage: DrainStage::Discard,
                trigger: None,
                lines: 4,
            },
            Event::Meta {
                at: 1,
                action: MetaAction::EvictDirty,
                line: LineAddr(8),
            },
            Event::Queue {
                at: 2,
                queue: QueueKind::Wpq,
                occupancy: 5,
                stalled: true,
            },
            Event::Epoch {
                at: 100,
                index: 0,
                trigger: DrainTrigger::UpdateLimit,
                duration: 90,
                lines: 6,
                write_backs: 12,
                wpq_high_water: 5,
            },
        ];
        assert_eq!(
            events[0].to_json(),
            "{\"event\":\"writeback\",\"at\":7,\"phase\":\"persist\",\"line\":3}"
        );
        assert_eq!(
            events[1].to_json(),
            "{\"event\":\"drain\",\"at\":9,\"stage\":\"stage\",\"trigger\":\"queue-full\",\"lines\":4}"
        );
        for e in &events {
            let json = e.to_json();
            assert!(json.starts_with("{\"event\":\""), "{json}");
            assert!(json.contains("\"at\":"), "{json}");
            assert!(json.ends_with('}'), "{json}");
        }
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let header_cols = Event::CSV_HEADER.split(',').count();
        let events = [
            Event::WriteBack {
                at: 7,
                phase: WbPhase::Fetch,
                line: LineAddr(3),
            },
            Event::Drain {
                at: 9,
                stage: DrainStage::Commit,
                trigger: Some(DrainTrigger::External),
                lines: 4,
            },
            Event::Meta {
                at: 1,
                action: MetaAction::EvictClean,
                line: LineAddr(8),
            },
            Event::Queue {
                at: 2,
                queue: QueueKind::Read,
                occupancy: 5,
                stalled: false,
            },
            Event::Epoch {
                at: 100,
                index: 2,
                trigger: DrainTrigger::Overflow,
                duration: 90,
                lines: 6,
                write_backs: 12,
                wpq_high_water: 5,
            },
            Event::Audit {
                at: 120,
                check: audit::AuditCheck::DirtyCoverage,
                point: audit::AuditPoint::WriteBack,
            },
        ];
        for e in &events {
            assert_eq!(e.csv_row().split(',').count(), header_cols, "{e:?}");
        }
    }

    fn accept(rec: &mut Recorder, at: Cycle) {
        rec.record(Event::WriteBack {
            at,
            phase: WbPhase::Accept,
            line: LineAddr(at),
        });
    }

    fn wpq_sample(rec: &mut Recorder, at: Cycle, occupancy: u64) {
        rec.record(Event::Queue {
            at,
            queue: QueueKind::Wpq,
            occupancy,
            stalled: false,
        });
    }

    fn commit(rec: &mut Recorder, trigger: DrainTrigger, at: Cycle, lines: u64) {
        rec.record(Event::Drain {
            at,
            stage: DrainStage::Commit,
            trigger: Some(trigger),
            lines,
        });
    }

    #[test]
    fn rollups_and_histograms_track_epochs() {
        let mut rec = Recorder::new(RecorderConfig {
            trace_capacity: 64,
            epoch_capacity: 2,
        });
        accept(&mut rec, 100);
        accept(&mut rec, 150); // the epoch opened at the first accept
        wpq_sample(&mut rec, 1000, 30);
        commit(&mut rec, DrainTrigger::QueueFull, 1100, 8);
        commit(&mut rec, DrainTrigger::UpdateLimit, 2000, 4);
        accept(&mut rec, 2500);
        wpq_sample(&mut rec, 2900, 6);
        commit(&mut rec, DrainTrigger::QueueFull, 3000, 2);
        assert_eq!(rec.epoch_count(), 3);
        assert_eq!(rec.epochs_by_trigger(DrainTrigger::QueueFull), 2);
        assert_eq!(rec.epochs_by_trigger(DrainTrigger::External), 0);
        let rollups: Vec<EpochRollup> = rec.epochs().copied().collect();
        assert_eq!(rollups.len(), 2, "rollup retention is bounded");
        assert_eq!(rollups[0].index, 1);
        assert_eq!(
            rollups[0].start, 2000,
            "epoch without write-backs starts at its commit"
        );
        assert_eq!((rollups[0].write_backs, rollups[0].wpq_high_water), (0, 0));
        assert_eq!(rollups[1].start, 2500);
        assert_eq!(rollups[1].duration(), 500);
        assert_eq!(
            (rollups[1].write_backs, rollups[1].wpq_high_water),
            (1, 6),
            "counts and the high-water mark restart with each epoch"
        );
        assert_eq!(rec.wpq_high_water(), 30);
        assert_eq!(rec.epoch_len().total(), 3);
        assert_eq!(rec.epoch_len().max(), 2);
        assert_eq!(rec.epoch_duration().max(), 1000);
        // The trace received one epoch event per commit, right after
        // the commit that closed it.
        let kinds: Vec<&str> = rec
            .trace()
            .iter()
            .filter_map(|e| match e {
                Event::Drain { .. } => Some("commit"),
                Event::Epoch { .. } => Some("epoch"),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, ["commit", "epoch"].repeat(3));
        let report = rec.epoch_report();
        assert!(report.contains("epochs 3"));
        assert!(report.contains("queue-full 2"));
        assert!(report.contains("last epochs:"));
    }

    #[test]
    fn exports_carry_a_footer_with_drop_counters() {
        let mut rec = Recorder::new(RecorderConfig {
            trace_capacity: 2,
            epoch_capacity: 1,
        });
        for i in 0..3u64 {
            rec.record(Event::Meta {
                at: 10 + i,
                action: MetaAction::Install,
                line: LineAddr(i),
            });
        }
        commit(&mut rec, DrainTrigger::QueueFull, 100, 1);
        commit(&mut rec, DrainTrigger::QueueFull, 200, 1);

        let mut jsonl = Vec::new();
        rec.write_jsonl(&mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        let footer = text.lines().last().unwrap();
        assert_eq!(
            footer,
            "{\"event\":\"footer\",\"at\":200,\"events\":2,\"dropped\":5,\
\"epochs\":2,\"epochs_dropped\":1}"
        );

        let mut csv = Vec::new();
        rec.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        let header_cols = Event::CSV_HEADER.split(',').count();
        let footer = text.lines().last().unwrap();
        assert!(footer.starts_with("footer,200,"), "{footer}");
        assert!(footer.ends_with(",5,1,,"), "{footer}");
        assert_eq!(footer.split(',').count(), header_cols, "{footer}");

        let report = rec.epoch_report();
        assert!(
            report.contains("warning: 5 trace events dropped"),
            "{report}"
        );
        assert!(
            report.contains("warning: 1 epoch rollups dropped"),
            "{report}"
        );
    }

    #[test]
    fn empty_trace_still_exports_a_footer() {
        let rec = Recorder::new(RecorderConfig::default());
        let mut jsonl = Vec::new();
        rec.write_jsonl(&mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(
            text,
            "{\"event\":\"footer\",\"at\":0,\"events\":0,\"dropped\":0,\
\"epochs\":0,\"epochs_dropped\":0}\n"
        );
        assert!(!rec.epoch_report().contains("warning:"));
    }

    #[test]
    fn queue_samples_feed_occupancy_histogram() {
        let mut rec = Recorder::new(RecorderConfig::default());
        for occ in [3u64, 5, 7] {
            rec.record(Event::Queue {
                at: occ,
                queue: QueueKind::Wpq,
                occupancy: occ,
                stalled: false,
            });
        }
        rec.record(Event::Queue {
            at: 9,
            queue: QueueKind::Read,
            occupancy: 31,
            stalled: true,
        });
        assert_eq!(rec.wpq_occupancy().total(), 3, "only WPQ samples counted");
        assert_eq!(rec.wpq_high_water(), 7);
    }
}
