//! The secure memory subsystem: meta cache, encryption engine, drainer
//! and memory controller, wired per one of the five evaluated designs.
//!
//! [`SecureMemory`] sits below the LLC in the simulator. Its two entry
//! points mirror the hardware events of Figure 3:
//!
//! * [`SecureMemory::read_data`] — an LLC miss: fetch + decrypt +
//!   authenticate a data line;
//! * [`SecureMemory::write_back`] — an LLC dirty eviction: encrypt,
//!   generate the data HMAC, update the security metadata and persist
//!   whatever the active design requires.
//!
//! Function and timing advance together: every call returns completion
//! cycles computed from the queue/engine/device models *and* performs
//! the real cryptographic state transitions, so a crash at any point
//! yields a byte-accurate durable image for recovery.
//!
//! The implementation is layered across sibling modules, each owning
//! one stage of the pipeline:
//!
//! * [`crate::writepath`] — the phase-structured write-back pipeline
//!   and counter-overflow page re-encryption;
//! * [`crate::epoch`] — the drainer: dirty address queue bookkeeping
//!   and the stage/commit/discard drain protocol;
//! * [`crate::persist`] — the durable NVM image (behind
//!   [`ccnvm_mem::DurableBackend`]), crash images, recovery resume;
//! * [`crate::verify`] — Meta Cache installs and the HMAC/BMT
//!   verification shared by the read and recovery paths.
//!
//! This module keeps the shared state, construction, functional value
//! resolution and the read path.
//!
//! ## The three NVM value layers
//!
//! * `durable` — physically persistent content; the only thing a crash
//!   preserves.
//! * `overlay` — content that is *functionally* current in NVM for
//!   runtime purposes but not recoverable after a crash: Osiris Plus
//!   evicts dirty counters/tree nodes without persisting them (its
//!   online check reconstructs the fresh value on the next fetch, which
//!   this layer models), so runtime reads see the fresh value while the
//!   crash image does not.
//! * the Meta Cache's ways — each resident line's content lives in its
//!   way ([`MetaPayload::content`]) and is lost on crash.
//!
//! Runtime metadata reads resolve `way → overlay → durable → default`;
//! recovery sees `durable` only.

use crate::bmt::Bmt;
use crate::config::{DesignKind, SimConfig};
use crate::counter::CounterLine;
use crate::drainer::DirtyAddressQueue;
use crate::error::{ConfigError, IntegrityError};
use crate::layout::SecureLayout;
use crate::metacache::MetaCache;
use crate::obs::{flight, DrainStage, Event};
use crate::persist::NvmState;
use crate::stats::RunStats;
use crate::tcb::Tcb;
use ccnvm_crypto::latency::AES_LATENCY_CYCLES;
use ccnvm_crypto::Mac128;
use ccnvm_mem::timing::BoundedQueue;
use ccnvm_mem::{Cycle, Line, LineAddr, LineStore, MemController};

/// Why a drain was triggered (§4.2 lists the first three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainTrigger {
    /// The dirty address queue cannot hold the next write-back's
    /// metadata addresses.
    QueueFull,
    /// A dirty meta-cache line is about to be evicted.
    DirtyEviction,
    /// A metadata line exceeded N updates since becoming dirty.
    UpdateLimit,
    /// A minor-counter overflow forced an atomic page re-encryption
    /// plus counter persist.
    Overflow,
    /// Requested by the host (examples, shutdown).
    External,
}

/// Per-resident-line Meta Cache state.
#[derive(Debug, Clone)]
pub struct MetaPayload {
    /// Updates since the line became dirty (drain trigger 3 /
    /// Osiris stop-loss counter).
    pub updates: u32,
    /// The line's current content, lost on a crash.
    pub content: Line,
}

impl Default for MetaPayload {
    fn default() -> Self {
        Self {
            updates: 0,
            content: [0; 64],
        }
    }
}

/// Deterministic plaintext of data line `line` at write-back `version`.
///
/// The trace contains no data values, so the simulator synthesizes
/// them: version 0 is the all-zero never-written state, later versions
/// are derived from `(line, version)`. Reads check decrypted content
/// against this pattern, making every simulation self-verifying.
pub fn pattern(line: LineAddr, version: u64) -> Line {
    if version == 0 {
        return [0u8; 64];
    }
    let mut out = [0u8; 64];
    let mut x = line.0.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ version.wrapping_mul(0xd1b5_4a32_d192_ed03)
        ^ 0x243f_6a88_85a3_08d3;
    for chunk in out.chunks_exact_mut(8) {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 29;
        chunk.copy_from_slice(&x.to_le_bytes());
    }
    out
}

/// The secure memory subsystem for one of the five designs.
///
/// # Example
///
/// ```
/// use ccnvm::{config::{DesignKind, SimConfig}, secmem::SecureMemory};
/// use ccnvm_mem::LineAddr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = SecureMemory::new(SimConfig::small(DesignKind::CcNvm))?;
/// let released = mem.write_back(LineAddr(3), 0)?;
/// let done = mem.read_data(LineAddr(3), released)?;
/// assert!(done > released);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SecureMemory {
    pub(crate) config: SimConfig,
    pub(crate) layout: SecureLayout,
    pub(crate) bmt: Bmt,
    pub(crate) tcb: Tcb,
    pub(crate) nvm: NvmState,
    pub(crate) staged: Vec<(LineAddr, Line)>,
    /// Reusable drain working buffers (see [`crate::epoch`]).
    pub(crate) drain_scratch: crate::epoch::DrainScratch,
    /// Reusable missing-ancestor chain buffer for
    /// [`Self::ensure_meta_cached`]: `(line, level, idx)` per member,
    /// bounded by one tree path.
    pub(crate) meta_chain_scratch: Vec<(LineAddr, usize, u64)>,
    pub(crate) meta_cache: MetaCache,
    pub(crate) dirty_queue: DirtyAddressQueue,
    pub(crate) mc: MemController,
    pub(crate) wb_buffer: BoundedQueue,
    pub(crate) engine_busy_until: Cycle,
    /// Write-backs since the last committed drain (mirrors `tcb.nwb`
    /// but is kept for every design).
    pub(crate) wbs_this_epoch: u64,
    pub(crate) stats: RunStats,
    /// Every attached observer (see [`crate::obs`]).
    pub(crate) obs: crate::obs::Observers,
    /// True while `write_back` is on the stack: engine-domain charges
    /// in the shared verify/drain helpers count toward
    /// `engine_cycles` only in that scope (mirroring how
    /// `engine_cycles` itself accrues).
    pub(crate) in_write_back: bool,
    /// Verify decrypted plaintext against the expected pattern on every
    /// miss (self-checking mode; small extra host cost). Off after
    /// [`Self::resume`], whose write versions are not ground truth.
    pub(crate) check_plaintext: bool,
}

impl SecureMemory {
    /// Builds the subsystem for `config` over an in-memory durable
    /// store (see [`Self::with_backend`] to substitute one).
    ///
    /// # Errors
    ///
    /// Returns the violated constraint when the configuration is
    /// inconsistent (see [`SimConfig::validate`]), or when the dirty
    /// address queue cannot hold one full tree path.
    pub fn new(config: SimConfig) -> Result<Self, ConfigError> {
        Self::with_backend(config, Box::new(LineStore::new()))
    }

    /// The active design.
    pub fn design(&self) -> DesignKind {
        self.config.design
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The address-space layout.
    pub fn layout(&self) -> &SecureLayout {
        &self.layout
    }

    /// The Merkle-tree helper (shares the engine and layout).
    pub fn bmt(&self) -> &Bmt {
        &self.bmt
    }

    /// The TCB registers.
    pub fn tcb(&self) -> &Tcb {
        &self.tcb
    }

    /// Statistics so far (NVM read count synced from the controller).
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats;
        s.nvm_reads = self.mc.stats().reads;
        s
    }

    /// Raw memory-controller statistics (for traffic cross-checks).
    pub fn mem_stats(&self) -> ccnvm_mem::MemStats {
        self.mc.stats()
    }

    /// Per-line NVM endurance statistics — which cells this design is
    /// wearing out, and how fast.
    pub fn wear_stats(&self) -> ccnvm_mem::WearStats {
        self.mc.wear_stats()
    }

    // ----- observers ----------------------------------------------------
    //
    // Every sink lives in the `obs` hub (see [`crate::obs`]). Each
    // `attach_*` replaces any sink of its kind already attached.

    /// Attaches an event recorder and arms queue-event sampling in the
    /// memory controller.
    pub fn attach_recorder(&mut self, config: crate::obs::RecorderConfig) {
        let mut rec = crate::obs::Recorder::new(config);
        rec.set_wpq_capacity(self.config.mem.wpq_entries);
        self.mc.attach_queue_recorder(config.trace_capacity);
        self.obs.recorder = Some(Box::new(rec));
    }

    /// Attaches a [`SpanProfiler`](crate::obs::profile::SpanProfiler):
    /// from now on every simulated cycle and NVM line-write is charged
    /// to a pipeline stage.
    pub fn attach_profiler(&mut self) {
        self.obs.profiler = Some(Box::default());
    }

    /// Attaches a [`MetricsRegistry`](crate::obs::metrics::MetricsRegistry),
    /// sampled as simulated time crosses each interval boundary.
    pub fn attach_metrics(&mut self, config: crate::obs::metrics::MetricsConfig) {
        self.obs.metrics = Some(Box::new(crate::obs::metrics::MetricsRegistry::new(config)));
    }

    /// Attaches an [`Auditor`](crate::obs::audit::Auditor) in `mode`:
    /// from now on the crash-consistency invariants are re-checked at
    /// every write-back completion, drain commit and Meta Cache
    /// install.
    pub fn attach_auditor(&mut self, mode: crate::obs::audit::AuditMode) {
        self.obs.auditor = Some(Box::new(crate::obs::audit::Auditor::new(mode)));
    }

    /// Attaches an in-process
    /// [`FlightRecorder`](crate::obs::flight::FlightRecorder) ring. The
    /// file backend's durable `flight.log` sidecar is enabled on the
    /// backend instead; either half activates the flight writer, which
    /// sends every entry to both.
    pub fn attach_flight(&mut self, config: crate::obs::flight::FlightConfig) {
        self.nvm.flight = Some(crate::obs::flight::FlightRecorder::new(config.capacity));
    }

    /// Attaches a [`WearLedger`](crate::obs::wear::WearLedger) sized for
    /// this layout's tree depth: from now on every NVM line-write is
    /// attributed to a typed cause, and an attached auditor re-checks
    /// conservation (attributed == controller totals) at every audit
    /// point.
    pub fn attach_wear(&mut self) {
        let levels = self.layout.internal_levels();
        self.obs.wear = Some(Box::new(crate::obs::wear::WearLedger::new(levels)));
    }

    /// Attaches a [`LagTracer`](crate::obs::lag::LagTracer): from now on
    /// every accepted write-back is stamped at issue and resolved when
    /// its covering durable commit completes — a drain's commit on the
    /// drainer designs, its own persist on the others.
    pub fn attach_lag(&mut self) {
        let drainer = self.design().has_drainer();
        self.obs.lag = Some(Box::new(crate::obs::lag::LagTracer::new(drainer)));
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&crate::obs::Recorder> {
        self.obs.recorder.as_deref()
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&crate::obs::profile::SpanProfiler> {
        self.obs.profiler.as_deref()
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&crate::obs::metrics::MetricsRegistry> {
        self.obs.metrics.as_deref()
    }

    /// The attached auditor, if any.
    pub fn auditor(&self) -> Option<&crate::obs::audit::Auditor> {
        self.obs.auditor.as_deref()
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&crate::obs::flight::FlightRecorder> {
        self.nvm.flight.as_ref()
    }

    /// The attached wear ledger, if any.
    pub fn wear(&self) -> Option<&crate::obs::wear::WearLedger> {
        self.obs.wear.as_deref()
    }

    /// The attached durability-lag tracer, if any.
    pub fn lag(&self) -> Option<&crate::obs::lag::LagTracer> {
        self.obs.lag.as_deref()
    }

    /// Sends one event to every sink that takes it. The hub's recorder
    /// and lag tracer take all of them; the flight writer takes drain
    /// and audit events, and after a drain's commit the epoch marker.
    #[inline]
    pub(crate) fn emit(&mut self, event: Event) {
        self.obs.observe(event);
        if matches!(event, Event::Drain { .. } | Event::Audit { .. }) && self.nvm.flight_active() {
            self.nvm.flight_note(flight::event_line(&event).into());
            if let Event::Drain {
                at,
                stage: DrainStage::Commit,
                ..
            } = event
            {
                // `stats.drains` counts the commit only after it is
                // emitted, so it is this epoch's zero-based index.
                self.nvm
                    .flight_note(flight::epoch_line(at, self.stats.drains).into());
            }
        }
    }

    /// Folds queue-accept samples buffered in the memory controller
    /// into the event stream. Called at the end of each public entry
    /// point, and before a drain's commit, so the merged ordering is
    /// deterministic.
    pub(crate) fn obs_sync_queues(&mut self) {
        for e in self.mc.take_queue_events() {
            self.obs.observe(Event::Queue {
                at: e.at,
                queue: e.queue,
                occupancy: e.occupancy as u64,
                stalled: e.stalled,
            });
        }
    }

    /// Charges `cycles` to `stage` only inside a write-back — the scope
    /// where helper time accrues to `RunStats::engine_cycles`.
    #[inline]
    pub(crate) fn prof_engine(&mut self, stage: crate::obs::profile::Stage, cycles: Cycle) {
        if self.in_write_back {
            self.obs.charge(stage, cycles);
        }
    }

    /// Takes a [`Sample`](crate::obs::metrics::Sample) if one is due at
    /// simulated time `now`. All gauges derive from simulated state, so
    /// the series is byte-identical across host thread counts and HMAC
    /// modes. Without a registry this is one inline branch.
    #[inline]
    pub(crate) fn maybe_sample_metrics(&mut self, now: Cycle) {
        if self.obs.metrics.is_some() {
            self.sample_metrics(now);
        }
    }

    /// [`SecureMemory::maybe_sample_metrics`] with a registry attached.
    #[cold]
    fn sample_metrics(&mut self, now: Cycle) {
        let Some(m) = self.obs.metrics.as_deref() else {
            return;
        };
        if !m.is_due(now) {
            return;
        }
        let at = m.boundary(now);
        let ppm = |n: u64, d: u64| {
            if d == 0 {
                0
            } else {
                (n as u128 * 1_000_000 / d as u128) as u64
            }
        };
        let meta_lines = (self.config.meta.capacity_bytes / 64).max(1);
        let meta_resident = self.meta_cache.len() as u64;
        let meta_dirty = self.meta_cache.dirty_len() as u64;
        let write_backs = self.stats.write_backs;
        let nvm_writes = self.stats.total_writes();
        let (wear, lag) = (self.obs.wear.as_deref(), self.obs.lag.as_deref());
        let sample = crate::obs::metrics::Sample {
            at,
            meta_resident,
            meta_dirty,
            meta_resident_ppm: ppm(meta_resident, meta_lines),
            meta_dirty_ppm: ppm(meta_dirty, meta_lines),
            dirty_queue_depth: self.dirty_queue.len() as u64,
            wpq_occupancy: self.mc.wpq_occupancy(now) as u64,
            epochs: self.stats.drains,
            epoch_write_backs: self.wbs_this_epoch,
            write_backs,
            nvm_writes,
            write_amp_milli: if write_backs == 0 {
                0
            } else {
                (nvm_writes as u128 * 1000 / write_backs as u128) as u64
            },
            engine_share_ppm: ppm(self.stats.engine_cycles, now),
            attributed_writes: wear.map_or(0, |w| w.attributed_total()),
            max_line_writes: self.mc.max_line_wear(),
            lag_pending: lag.map_or(0, |l| l.pending() as u64),
            lag_p99: lag.map_or(0, |l| l.p99()),
        };
        self.obs
            .metrics
            .as_deref_mut()
            .expect("checked above")
            .record(sample);
        if self.nvm.flight_active() {
            self.nvm.flight_note(flight::metric_line(&sample).into());
        }
    }

    /// Whether a strict-mode auditor has recorded a violation — the
    /// simulator's fail-fast condition.
    #[inline]
    pub fn audit_failed(&self) -> bool {
        self.obs
            .auditor
            .as_deref()
            .is_some_and(crate::obs::audit::Auditor::failed)
    }

    /// Runs an explicit audit checkpoint at simulated time `now`
    /// (no-op without an attached auditor).
    pub fn audit_now(&mut self, now: Cycle) {
        self.audit_check(crate::obs::audit::AuditPoint::External, now);
    }

    /// One audit checkpoint: re-checks the structural invariants (see
    /// [`crate::obs::audit`]) and records any violations, emitting each
    /// as an audit event.
    pub(crate) fn audit_check(&mut self, point: crate::obs::audit::AuditPoint, now: Cycle) {
        use crate::obs::audit::{AuditCheck, Violation};
        if self.obs.auditor.is_none() {
            return;
        }
        let mut found: Vec<(AuditCheck, String)> = Vec::new();
        if self.config.design.has_drainer() {
            // Coverage holds when the queued dirty lines are all the
            // dirty lines. The queue holds at most M distinct entries,
            // so counting them costs M probes, where naming the
            // uncovered lines scans the whole Meta Cache; only a failed
            // count does that.
            let queued_dirty = self
                .dirty_queue
                .entries()
                .iter()
                .filter(|&&line| self.meta_cache.is_dirty(line))
                .count();
            if queued_dirty != self.meta_cache.dirty_len() {
                for line in self.meta_cache.dirty_lines() {
                    if !self.dirty_queue.contains(line) {
                        found.push((
                            AuditCheck::DirtyCoverage,
                            format!("dirty {line} has no dirty-address-queue reservation"),
                        ));
                    }
                }
            }
        }
        let wpq = self.mc.wpq_len();
        if wpq > self.config.mem.wpq_entries {
            found.push((
                AuditCheck::WpqCapacity,
                format!(
                    "WPQ holds {wpq} entries, ADR capacity is {}",
                    self.config.mem.wpq_entries
                ),
            ));
        }
        if let Some(w) = self.obs.wear.as_deref() {
            let attributed = w.attributed_total();
            let counted = self.mc.stats().total_writes();
            if attributed != counted {
                found.push((
                    AuditCheck::WearConservation,
                    format!(
                        "wear ledger attributes {attributed} writes, \
                         controller counted {counted}"
                    ),
                ));
            }
        }
        let (root_old, root_new, nwb) = (self.tcb.root_old, self.tcb.root_new, self.tcb.nwb);
        let drainer = self.config.design.has_drainer();
        self.obs
            .auditor
            .as_deref_mut()
            .expect("checked above")
            .observe_tcb(point, root_old, root_new, nwb, drainer, &mut found);
        for (check, detail) in found {
            self.emit(Event::Audit {
                at: now,
                check,
                point,
            });
            if let Some(aud) = self.obs.auditor.as_deref_mut() {
                aud.record(Violation {
                    at: now,
                    point,
                    check,
                    detail,
                });
            }
        }
    }

    /// Deliberately desynchronizes the dirty address queue from the
    /// Meta Cache (drainer designs): performs write-backs until
    /// on-chip metadata is dirty, then clears the queue behind the
    /// drainer's back. Exists so the auditor's negative path can be
    /// exercised end-to-end (the library's and `ccnvm-sim`'s tests);
    /// returns the cycle after the last write-back.
    ///
    /// # Errors
    ///
    /// Propagates [`IntegrityError`] from the underlying write-backs.
    pub fn inject_dirty_queue_desync(&mut self, now: Cycle) -> Result<Cycle, IntegrityError> {
        let mut t = now;
        for i in 0..4 {
            t = self.write_back(LineAddr(i), t)?;
            if self.meta_cache.dirty_len() > 0 {
                break;
            }
        }
        self.dirty_queue.clear();
        Ok(t)
    }

    /// Deliberately skews the wear ledger's attribution away from the
    /// memory controller's ground truth, so the conservation check's
    /// negative path can be exercised end-to-end (the library's and
    /// `ccnvm-sim`'s tests). No-op without an attached ledger.
    pub fn inject_wear_attribution_desync(&mut self) {
        if let Some(w) = self.obs.wear.as_deref_mut() {
            w.inject_attribution_skew();
        }
    }

    /// Assembles the `ccnvm-wear/1` report for this instance: per-cause
    /// provenance from the ledger, per-line wear ground truth from the
    /// memory controller, the durability-lag distribution from the
    /// tracer (zeros when detached) and host-I/O counters from the
    /// durable backend. `None` without an attached ledger.
    pub fn wear_report(
        &self,
        bench: &str,
        instructions: u64,
    ) -> Option<crate::obs::wear::WearReport> {
        use crate::obs::wear::{HostIo, WearReport, TOP_K, WEAR_HIST_BOUNDS};
        let ledger = self.obs.wear.as_deref()?;
        let entries = self.mc.wear_entries();
        let mut histogram = vec![0u64; WEAR_HIST_BOUNDS.len() + 1];
        let mut total_wear = 0u64;
        for &(_, count) in &entries {
            total_wear += count;
            let bucket = WEAR_HIST_BOUNDS
                .iter()
                .position(|&bound| count < bound)
                .unwrap_or(WEAR_HIST_BOUNDS.len());
            histogram[bucket] += 1;
        }
        let mut hot = entries;
        // Hottest first; the address tie-break keeps the export
        // deterministic.
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        hot.truncate(TOP_K);
        let wear = self.mc.wear_stats();
        let host_io = self
            .nvm
            .durable
            .io_stats()
            .map(|io| HostIo {
                appends: io.appends,
                fsyncs: io.fsyncs,
                compactions: io.compactions,
                bytes_written: io.bytes_written,
            })
            .unwrap_or_default();
        Some(WearReport {
            design: self.config.design.slug().to_string(),
            bench: bench.to_string(),
            instructions,
            total_writes: self.mc.stats().total_writes(),
            attributed_writes: ledger.attributed_total(),
            causes: ledger.causes(),
            lines_written: wear.lines_written,
            max_line_writes: wear.max_line_writes,
            hottest_line: wear.hottest_line.map_or(0, |l| l.0),
            mean_line_writes_milli: (total_wear * 1000)
                .checked_div(wear.lines_written)
                .unwrap_or(0),
            wear_histogram: histogram,
            hot_lines: hot.into_iter().map(|(l, c)| (l.0, c)).collect(),
            lag: self.lag().map(|l| l.summary()).unwrap_or_default(),
            root_alternations: ledger.root_alternations(),
            nwb_updates: ledger.nwb_updates(),
            host_io,
        })
    }

    // ----- functional value resolution --------------------------------

    pub(crate) fn functional_nvm(&self, line: LineAddr) -> Option<Line> {
        self.nvm.functional(line)
    }

    pub(crate) fn meta_default(&self, line: LineAddr) -> Line {
        if self.layout.is_tree_line(line) {
            let (level, _) = self.layout.node_of_line(line);
            self.bmt.default_node(level)
        } else {
            [0u8; 64]
        }
    }

    /// Current (runtime-truth) content of a metadata line.
    pub(crate) fn meta_content(&self, line: LineAddr) -> Line {
        self.meta_cache
            .content(line)
            .or_else(|| self.functional_nvm(line))
            .unwrap_or_else(|| self.meta_default(line))
    }

    /// Current logical split counter of `ctr_line` (ground truth for
    /// tests and examples; hardware-internal view).
    pub fn logical_counter(&self, ctr_line: LineAddr) -> CounterLine {
        CounterLine::decode(&self.meta_content(ctr_line))
    }

    /// Root over the current logical (chip-over-NVM) tree state.
    pub fn current_root(&self) -> Mac128 {
        let top = self.layout.internal_levels();
        let line = self.layout.node_line(top, 0);
        let content = self.meta_content(line);
        self.bmt.engine().node_mac(top, 0, &content)
    }

    // ----- read path ---------------------------------------------------

    /// Services an LLC read miss of data line `line` starting at `now`;
    /// returns the completion cycle.
    ///
    /// The counter fetch/verification and OTP generation proceed in
    /// parallel with the data and data-HMAC array reads; the data HMAC
    /// check is assumed speculative (PoisonIvy-style) and off the
    /// critical path, but is still performed functionally.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] when authentication fails (runtime
    /// attack detected and located).
    ///
    /// # Panics
    ///
    /// Panics if `line` is outside the data region.
    pub fn read_data(&mut self, line: LineAddr, now: Cycle) -> Result<Cycle, IntegrityError> {
        assert!(self.layout.is_data_line(line), "{line} is not a data line");
        let ctr_line = self.layout.counter_line_of(line);
        let t_ctr = self.ensure_meta_cached(ctr_line, now)?;
        let otp_ready = t_ctr + AES_LATENCY_CYCLES;
        self.stats.aes_ops += 1;
        let t_data = self.mc.read(line, now);
        let (dh_line, dh_off) = self.layout.dh_slot_of(line);
        let t_dh = self.mc.read(dh_line, now);

        // Functional decrypt + authenticate.
        let (major, minor) = CounterLine::seed_of(&self.meta_content(ctr_line), line.page_offset());
        let ct = self.nvm.durable.load(line);
        match ct {
            None => {
                // Never written back: all-zero plaintext under a zero
                // counter; nothing to authenticate.
                if major != 0 || minor != 0 {
                    return Err(IntegrityError::DataHmacMismatch { line });
                }
            }
            Some(ct) => {
                self.stats.hmacs += 1;
                let dh_content = self.nvm.durable.read(dh_line);
                let stored = &dh_content[dh_off..dh_off + 16];
                if !crate::verify::data_hmac_matches(
                    self.bmt.engine(),
                    &ct,
                    line,
                    major,
                    minor,
                    stored,
                ) {
                    return Err(IntegrityError::DataHmacMismatch { line });
                }
                if self.check_plaintext {
                    let plain = self.bmt.engine().decrypt_line(&ct, line, major, minor);
                    let version = self.nvm.versions.get(&line.0).copied().unwrap_or(0);
                    if plain != pattern(line, version) {
                        return Err(IntegrityError::PlaintextMismatch { line });
                    }
                }
            }
        }
        self.obs_sync_queues();
        Ok(t_data.max(otp_ready).max(t_dh))
    }

    // ----- attack-injection hooks --------------------------------------

    /// Direct tampering access to the durable NVM image (attack
    /// injection at runtime). Returns the previous content.
    pub fn tamper_durable(&mut self, line: LineAddr, content: Line) -> Line {
        let old = self.nvm.durable.read(line);
        self.nvm.durable.store(line, content);
        old
    }

    /// Invalidates a metadata line from the Meta Cache so the next
    /// access re-fetches (and re-verifies) it from NVM — used by
    /// attack demonstrations.
    pub fn flush_meta_line(&mut self, line: LineAddr) {
        self.meta_cache.invalidate(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(design: DesignKind) -> SecureMemory {
        SecureMemory::new(SimConfig::small(design)).expect("valid config")
    }

    #[test]
    fn pattern_is_deterministic_and_versioned() {
        assert_eq!(pattern(LineAddr(1), 0), [0u8; 64]);
        assert_eq!(pattern(LineAddr(1), 1), pattern(LineAddr(1), 1));
        assert_ne!(pattern(LineAddr(1), 1), pattern(LineAddr(1), 2));
        assert_ne!(pattern(LineAddr(1), 1), pattern(LineAddr(2), 1));
    }

    #[test]
    fn read_of_fresh_line_returns_zero_state() {
        for design in DesignKind::ALL {
            let mut m = mem(design);
            let done = m.read_data(LineAddr(0), 0).expect("clean read");
            assert!(done > 0, "{design}: must take time");
        }
    }

    #[test]
    fn write_back_then_read_roundtrips() {
        for design in DesignKind::ALL {
            let mut m = mem(design);
            let rel = m.write_back(LineAddr(5), 0).expect("wb");
            let done = m.read_data(LineAddr(5), rel + 10_000).expect("read back");
            assert!(done > rel, "{design}");
            let s = m.stats();
            assert_eq!(s.write_backs, 1);
            assert_eq!(s.data_writes, 1);
            assert_eq!(s.dh_writes, 1);
        }
    }

    #[test]
    fn runtime_data_tamper_detected_and_located() {
        let mut m = mem(DesignKind::CcNvm);
        m.write_back(LineAddr(7), 0).unwrap();
        let mut ct = m.crash_image().nvm.read(LineAddr(7));
        ct[0] ^= 0xff;
        m.tamper_durable(LineAddr(7), ct);
        let err = m.read_data(LineAddr(7), 1_000_000).unwrap_err();
        assert_eq!(err, IntegrityError::DataHmacMismatch { line: LineAddr(7) });
    }

    #[test]
    fn runtime_counter_tamper_detected_on_fetch() {
        let mut m = mem(DesignKind::CcNvm);
        m.write_back(LineAddr(7), 0).unwrap();
        m.drain(100_000, DrainTrigger::External);
        let ctr_line = m.layout().counter_line_of(LineAddr(7));
        // Tamper with the persisted counter, then force a re-fetch.
        let mut content = m.crash_image().nvm.read(ctr_line);
        content[8] ^= 1;
        m.tamper_durable(ctr_line, content);
        m.flush_meta_line(ctr_line);
        let err = m.read_data(LineAddr(7), 1_000_000).unwrap_err();
        assert!(matches!(
            err,
            IntegrityError::TreeMismatch { child_level: 0, .. }
        ));
    }

    #[test]
    fn invalid_configs_are_typed() {
        let mut cfg = SimConfig::small(DesignKind::CcNvm);
        cfg.update_limit = 0;
        assert_eq!(
            SecureMemory::new(cfg).unwrap_err(),
            ConfigError::UpdateLimitZero
        );
        let mut cfg = SimConfig::small(DesignKind::CcNvm);
        cfg.dirty_queue_entries = 2; // below one path
        cfg.mem.wpq_entries = 4;
        assert!(matches!(
            SecureMemory::new(cfg).unwrap_err(),
            ConfigError::DirtyQueueTooSmallForPath { entries: 2, .. }
        ));
    }
}
