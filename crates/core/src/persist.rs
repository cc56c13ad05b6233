//! The durability layer of [`SecureMemory`]: the NVM value layers,
//! crash-image construction and post-recovery resume.
//!
//! Durable content lives behind the [`DurableBackend`] trait
//! (implemented by [`LineStore`] for simulation, by instrumented mocks
//! in tests), which is the *only* route to crash-survivable state —
//! [`SecureMemory::crash_image`] and [`SecureMemory::resume`] go
//! through it, so a mock proves no durable bytes bypass the seam.

use crate::bmt::Bmt;
use crate::config::SimConfig;
use crate::crash::{CrashImage, GroundTruth};
use crate::drainer::DirtyAddressQueue;
use crate::engine::CryptoEngine;
use crate::error::{ConfigError, ResumeError};
use crate::layout::SecureLayout;
use crate::metacache::MetaCache;
use crate::obs::flight::FlightRecorder;
use crate::obs::profile::Stage;
use crate::obs::wear::WriteCause;
use crate::obs::WriteKind;
use crate::secmem::SecureMemory;
use crate::stats::RunStats;
use crate::tcb::{Keys, Tcb};
use ccnvm_mem::crashpoint::{self, Boundary};
use ccnvm_mem::timing::BoundedQueue;
use ccnvm_mem::{Cycle, DurableBackend, Line, LineAddr, LineMap, LineStore, MemController};
use std::borrow::Cow;
use std::collections::HashMap;

/// The NVM-side value state of a [`SecureMemory`]: the two off-chip
/// layers plus the simulator's data-version shadow, and the flight
/// writer that records what the durable layer is doing.
#[derive(Debug)]
pub(crate) struct NvmState {
    /// Physically persistent content — what a crash preserves.
    pub(crate) durable: Box<dyn DurableBackend>,
    /// Functionally-current-but-unrecoverable content (Osiris Plus
    /// evictions, deferred tree nodes).
    pub(crate) overlay: LineStore,
    /// Write-back version per data line (drives the self-checking
    /// plaintext pattern; simulator ground truth, not hardware state).
    pub(crate) versions: LineMap<u64>,
    /// The in-process flight ring, when attached: it receives every
    /// entry the durable sidecar does.
    pub(crate) flight: Option<FlightRecorder>,
    /// Whether `durable` keeps a flight sidecar, read once when the
    /// state is built: the answer is fixed for a backend's life.
    durable_flight: bool,
}

impl NvmState {
    pub(crate) fn new(durable: Box<dyn DurableBackend>) -> Self {
        Self {
            durable_flight: durable.flight_enabled(),
            durable,
            overlay: LineStore::new(),
            versions: LineMap::default(),
            flight: None,
        }
    }

    /// Functionally current NVM content: overlay over durable.
    pub(crate) fn functional(&self, line: LineAddr) -> Option<Line> {
        self.overlay
            .get(line)
            .copied()
            .or_else(|| self.durable.load(line))
    }

    /// Persists a metadata line into durable NVM (and removes any
    /// stale overlay copy so runtime reads stay coherent).
    pub(crate) fn persist_meta(&mut self, line: LineAddr, content: Line) {
        self.flight_boundary(Boundary::WpqRetire.begin());
        self.durable.store(line, content);
        self.overlay.erase(line);
        crashpoint::fire(Boundary::WpqRetire.label());
        self.flight_boundary(Boundary::WpqRetire.end());
    }

    /// Persists a data or data-HMAC line (no overlay interaction —
    /// those regions never shadow).
    pub(crate) fn persist_data(&mut self, line: LineAddr, content: Line) {
        self.flight_boundary(Boundary::WpqRetire.begin());
        self.durable.store(line, content);
        crashpoint::fire(Boundary::WpqRetire.label());
        self.flight_boundary(Boundary::WpqRetire.end());
    }

    /// Whether any flight sink is live — the in-process ring or the
    /// backend's durable sidecar. Gates entry construction so the
    /// default path pays one branch and no call.
    #[inline]
    pub(crate) fn flight_active(&self) -> bool {
        self.flight.is_some() || self.durable_flight
    }

    /// The one flight writer: appends `entry` to the durable sidecar
    /// and records it in the in-process ring, so the two hold the same
    /// stream. A fixed entry (a boundary bracket) is borrowed, so it
    /// allocates nothing on either path.
    pub(crate) fn flight_note(&mut self, entry: Cow<'static, str>) {
        self.durable.flight_append(entry.as_bytes());
        if let Some(ring) = self.flight.as_mut() {
            ring.push(entry);
        }
    }

    /// Writes one boundary bracket ([`Boundary::begin`] or
    /// [`Boundary::end`]). The begin must reach the durable sidecar
    /// *before* the bracketed action so a kill inside it leaves the
    /// begin unmatched — that ordering is what makes the forensic cause
    /// inference sound.
    #[inline]
    pub(crate) fn flight_boundary(&mut self, bracket: &'static str) {
        if self.flight_active() {
            self.flight_note(Cow::Borrowed(bracket));
        }
    }

    /// Opens an atomic persist group on the backend (one write-back's
    /// data + HMAC pair, one drain's staged lines).
    pub(crate) fn begin_atomic(&mut self) {
        self.durable.begin_atomic();
    }

    /// Closes the atomic persist group.
    pub(crate) fn commit_atomic(&mut self) {
        self.durable.commit_atomic();
    }
}

impl SecureMemory {
    /// Builds the subsystem for `config` over the supplied durable
    /// backend (dependency injection for crash/persistence tests).
    ///
    /// # Errors
    ///
    /// Returns the violated constraint when the configuration is
    /// inconsistent (see [`SimConfig::validate`]), or when the dirty
    /// address queue cannot hold one full tree path.
    pub fn with_backend(
        config: SimConfig,
        durable: Box<dyn DurableBackend>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let layout = SecureLayout::new(config.capacity_bytes);
        if config.design.has_drainer() && config.dirty_queue_entries < layout.path_lines() {
            return Err(ConfigError::DirtyQueueTooSmallForPath {
                entries: config.dirty_queue_entries,
                path_lines: layout.path_lines(),
            });
        }
        let keys = Keys::from_seed(config.key_seed);
        // validate() already proved the selection resolvable.
        let tier = config.crypto.resolve().expect("validated crypto tier");
        let engine = CryptoEngine::with_tier(&keys, tier);
        let bmt = Bmt::new(layout.clone(), engine);
        let tcb = Tcb::new(keys, bmt.default_root());
        Ok(Self {
            meta_cache: MetaCache::new(config.meta, config.meta_org, &layout),
            dirty_queue: DirtyAddressQueue::new(config.dirty_queue_entries),
            mc: MemController::new(config.mem),
            wb_buffer: BoundedQueue::new(config.wb_buffer_entries),
            engine_busy_until: 0,
            layout,
            bmt,
            tcb,
            nvm: NvmState::new(durable),
            staged: Vec::new(),
            drain_scratch: Default::default(),
            meta_chain_scratch: Vec::new(),
            wbs_this_epoch: 0,
            stats: RunStats::default(),
            obs: Default::default(),
            in_write_back: false,
            check_plaintext: true,
            config,
        })
    }

    /// Posts a write through the regular write queue and returns its
    /// completion cycle. A write the controller actually issues (one
    /// coalesced into a pending entry is free) is booked here, once:
    /// `kind` picks its `RunStats` counter, profiler stage and wear
    /// cause.
    pub(crate) fn post_write(&mut self, line: LineAddr, t: Cycle, kind: WriteKind) -> Cycle {
        let before = self.mc.stats().writes;
        let at = self.mc.write(line, t);
        if self.mc.stats().writes == before {
            return at;
        }
        let s = &mut self.stats;
        let meta = || WriteCause::meta(self.layout.level_of(line).0, false);
        let (count, stage, cause) = match kind {
            WriteKind::Data => (&mut s.data_writes, Stage::WbPersist, WriteCause::Data),
            WriteKind::DataHmac => (&mut s.dh_writes, Stage::WbPersist, WriteCause::DataHmac),
            WriteKind::PageReencrypt => (
                &mut s.reenc_writes,
                Stage::PageReenc,
                WriteCause::PageReencrypt,
            ),
            WriteKind::EagerMeta => (&mut s.meta_writes, Stage::TreeEager, meta()),
            WriteKind::EvictedMeta => (&mut s.meta_writes, Stage::MetaCacheMaint, meta()),
        };
        *count += 1;
        self.obs.book_write(Some(stage), Some(cause));
        at
    }

    /// Rebuilds a running secure memory from a crash image and its
    /// recovery report — the "continue normal secure protection"
    /// half of the paper's conclusion.
    ///
    /// The recovered NVM (stored data, recovered counters, rebuilt
    /// tree) becomes the durable state; the rebuilt root becomes both
    /// TCB roots; caches and the dirty address queue start cold.
    ///
    /// Plaintext self-checking is disabled on the resumed instance:
    /// the synthetic write-versioning that drives it is simulator
    /// ground truth a real system would not have. Decryption
    /// correctness is still enforced through the data HMACs.
    ///
    /// # Errors
    ///
    /// Returns [`ResumeError`] when `config` is invalid or does not
    /// match the image's capacity, or when the report carries located
    /// attacks / a detected replay (a real system must not silently
    /// resume over tampered state).
    pub fn resume(
        config: SimConfig,
        image: &CrashImage,
        report: &crate::recovery::RecoveryReport,
    ) -> Result<Self, ResumeError> {
        if config.capacity_bytes != image.capacity_bytes {
            return Err(ResumeError::CapacityMismatch {
                config: config.capacity_bytes,
                image: image.capacity_bytes,
            });
        }
        if !report.is_clean() {
            return Err(ResumeError::TamperedImage {
                located: report.located.len(),
                potential_replay: report.potential_replay,
            });
        }
        let mut mem = Self::new(config)?;
        mem.check_plaintext = false;
        let tier = mem.bmt.engine().tier();
        mem.bmt = Bmt::new(
            mem.layout.clone(),
            CryptoEngine::with_tier(&image.tcb.keys, tier),
        );
        mem.tcb = Tcb::new(image.tcb.keys.clone(), report.rebuilt_root);
        mem.nvm.durable.restore(&report.recovered_nvm);
        Ok(mem)
    }

    /// Snapshot of the durable state as a crash at this instant would
    /// leave it: the NVM image plus the persistent TCB registers. Any
    /// staged (pre-`end`-signal) drain is *not* included.
    pub fn crash_image(&self) -> CrashImage {
        CrashImage {
            design: self.design(),
            capacity_bytes: self.config.capacity_bytes,
            update_limit: self.config.update_limit,
            tcb: self.tcb.clone(),
            nvm: self.nvm.durable.snapshot(),
            staged_lines_lost: self.staged.len() as u64,
        }
    }

    /// Forces any writes the durable backend buffered down to storage
    /// (a no-op for the in-memory backends; the file backend flushes
    /// and fsyncs its commit log). A clean shutdown calls this before
    /// dropping the subsystem.
    pub fn sync_durable(&mut self) {
        self.nvm.durable.sync();
    }

    /// Simulator-side ground truth (never visible to recovery).
    pub fn ground_truth(&self) -> GroundTruth {
        // Gather every counter line that was ever materialized in any
        // layer, at its current logical value.
        let mut counter_lines = HashMap::new();
        let mut consider = |line: LineAddr, this: &Self| {
            if this.layout.is_counter_line(line) {
                let content = this.meta_content(line);
                if content != [0u8; 64] {
                    counter_lines.insert(line.0, content);
                }
            }
        };
        for (line, _) in self.meta_cache.resident() {
            consider(line, self);
        }
        for (line, _) in self.nvm.overlay.iter() {
            consider(line, self);
        }
        for line in self.nvm.durable.addrs() {
            consider(line, self);
        }
        // The logical root is the one over the *current* counters —
        // with deferred spreading the on-chip tree is intentionally
        // stale mid-epoch, so rebuild rather than read the top node.
        let counters: Vec<(u64, Line)> = counter_lines
            .iter()
            .map(|(&l, &c)| (self.layout.counter_index(LineAddr(l)), c))
            .collect();
        let (_, current_root) = self.bmt.rebuild(counters);
        GroundTruth {
            data_versions: self.nvm.versions.iter().map(|(&l, &v)| (l, v)).collect(),
            counter_lines,
            current_root,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignKind;
    use crate::recovery::recover;
    use crate::secmem::DrainTrigger;
    use ccnvm_mem::store::ZERO_LINE;

    fn mem(design: DesignKind) -> SecureMemory {
        SecureMemory::new(SimConfig::small(design)).expect("valid config")
    }

    /// An instrumented [`DurableBackend`] that counts trait traffic —
    /// if [`SecureMemory`] reached durable state any other way, the
    /// snapshot comparison below would diverge.
    #[derive(Debug, Default)]
    struct CountingBackend {
        inner: LineStore,
        stores: std::cell::Cell<u64>,
        snapshots: std::cell::Cell<u64>,
    }

    impl DurableBackend for CountingBackend {
        fn load(&self, line: LineAddr) -> Option<Line> {
            self.inner.get(line).copied()
        }
        fn store(&mut self, line: LineAddr, content: Line) {
            self.stores.set(self.stores.get() + 1);
            self.inner.write(line, content);
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn addrs(&self) -> Vec<LineAddr> {
            self.inner.iter().map(|(l, _)| l).collect()
        }
        fn snapshot(&self) -> LineStore {
            self.snapshots.set(self.snapshots.get() + 1);
            self.inner.clone()
        }
        fn restore(&mut self, image: &LineStore) {
            self.inner = image.clone();
        }
    }

    #[test]
    fn crash_image_and_resume_roundtrip_through_the_backend() {
        let mut m = SecureMemory::with_backend(
            SimConfig::small(DesignKind::CcNvm),
            Box::<CountingBackend>::default(),
        )
        .expect("valid config");
        for i in 0..6u64 {
            m.write_back(LineAddr(i * 64), i * 100_000).unwrap();
        }
        m.drain(10_000_000, DrainTrigger::External);

        let image = m.crash_image();
        assert!(!image.nvm.is_empty(), "committed state must be durable");
        let report = recover(&image);
        assert!(report.is_clean(), "{report:?}");

        // Resume restores the recovered image through the trait and
        // keeps serving verified reads.
        let mut resumed =
            SecureMemory::resume(SimConfig::small(DesignKind::CcNvm), &image, &report)
                .expect("clean resume");
        for i in 0..6u64 {
            resumed
                .read_data(LineAddr(i * 64), 1_000_000 + i * 50_000)
                .expect("recovered line must verify");
        }
        // A second crash image equals the recovered NVM exactly: the
        // round trip is lossless through the seam.
        let image2 = resumed.crash_image();
        assert_eq!(image2.nvm.len(), report.recovered_nvm.len());
        for l in report.recovered_nvm.sorted_addrs() {
            assert_eq!(image2.nvm.read(l), report.recovered_nvm.read(l), "{l}");
        }
    }

    #[test]
    fn backend_sees_every_durable_write() {
        let backend = Box::<CountingBackend>::default();
        let mut m = SecureMemory::with_backend(SimConfig::small(DesignKind::CcNvm), backend)
            .expect("valid config");
        m.write_back(LineAddr(0), 0).unwrap();
        m.drain(1_000_000, DrainTrigger::External);
        let img = m.crash_image();
        // data + data-HMAC + counter path all flowed through store().
        assert!(img.nvm.len() >= 3);
        assert_ne!(img.nvm.read(LineAddr(0)), ZERO_LINE);
    }

    #[test]
    fn resume_continues_after_clean_recovery() {
        let mut m = mem(DesignKind::CcNvm);
        for i in 0..6u64 {
            m.write_back(LineAddr(i * 64), i * 100_000).unwrap();
        }
        // Crash mid-epoch, recover, resume.
        let image = m.crash_image();
        let report = recover(&image);
        assert!(report.is_clean());
        let mut resumed =
            SecureMemory::resume(SimConfig::small(DesignKind::CcNvm), &image, &report)
                .expect("clean resume");
        // Old data still reads (authenticated against the rebuilt tree).
        for i in 0..6u64 {
            resumed
                .read_data(LineAddr(i * 64), 1_000_000 + i * 50_000)
                .expect("recovered line must verify");
        }
        // And the machine keeps working: write, drain, crash, recover.
        resumed.write_back(LineAddr(0), 2_000_000).unwrap();
        resumed.drain(3_000_000, DrainTrigger::External);
        let report2 = recover(&resumed.crash_image());
        assert!(report2.is_clean(), "{report2:?}");
    }

    #[test]
    fn resume_refuses_tampered_images() {
        let mut m = mem(DesignKind::CcNvm);
        m.write_back(LineAddr(0), 0).unwrap();
        m.drain(100_000, DrainTrigger::External);
        let mut image = m.crash_image();
        crate::attack::spoof_data(&mut image, LineAddr(0));
        let report = recover(&image);
        let err = SecureMemory::resume(SimConfig::small(DesignKind::CcNvm), &image, &report)
            .expect_err("must refuse tampered state");
        assert!(matches!(err, ResumeError::TamperedImage { .. }));
        assert!(err.to_string().contains("tampered"));
    }

    /// FNV-1a, 64-bit, over a ground truth's counter lines and then its
    /// data versions, each in address order (address bytes, then the
    /// content or the version's bytes).
    fn truth_digest(truth: &GroundTruth) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut counters: Vec<_> = truth.counter_lines.iter().collect();
        counters.sort_unstable();
        for (addr, content) in counters {
            eat(&addr.to_le_bytes());
            eat(content);
        }
        let mut versions: Vec<_> = truth.data_versions.iter().collect();
        versions.sort_unstable();
        for (addr, version) in versions {
            eat(&addr.to_le_bytes());
            eat(&version.to_le_bytes());
        }
        h
    }

    /// `(truth_digest, current_root)` of `ground_truth` after `mixed`,
    /// 150 000 instructions at seed 7, over `SimConfig::small`.
    const GROUND_TRUTH_PIN: (u64, u128) = (
        0xac66_64c1_5ee8_03f1,
        0xcb63_fd84_2386_7e3c_c08f_12a4_caaf_0172,
    );

    /// The ground truth the crash sweep and the recovery tests compare
    /// against, pinned on every design with every metadata line
    /// resident (the paper's Meta Cache holds all of a small layout's)
    /// and with an 8-line Meta Cache that evicts all the time. The
    /// counters and data versions follow from the write-back sequence
    /// alone, which L1 and L2 fix, so all ten runs give the one pin.
    #[test]
    fn ground_truth_is_pinned_on_every_design() {
        use ccnvm_mem::CacheConfig;
        use ccnvm_trace::{profiles, TraceGenerator};
        for design in DesignKind::ALL {
            for meta in [SimConfig::paper(design).meta, CacheConfig::new(512, 2)] {
                let mut cfg = SimConfig::small(design);
                cfg.meta = meta;
                let mut sim = crate::sim::Simulator::new(cfg).unwrap();
                sim.run(TraceGenerator::new(profiles::mixed(), 7), 150_000)
                    .expect("attack-free run");
                let truth = sim.memory().ground_truth();
                let got = (
                    truth_digest(&truth),
                    u128::from_be_bytes(truth.current_root),
                );
                assert_eq!(got, GROUND_TRUTH_PIN, "{design}, {meta:?}");
            }
        }
    }

    #[test]
    fn resume_refuses_capacity_mismatch() {
        let mut m = mem(DesignKind::CcNvm);
        m.write_back(LineAddr(0), 0).unwrap();
        m.drain(100_000, DrainTrigger::External);
        let image = m.crash_image();
        let report = recover(&image);
        let mut cfg = SimConfig::small(DesignKind::CcNvm);
        cfg.capacity_bytes *= 2;
        let err = SecureMemory::resume(cfg, &image, &report).expect_err("capacity differs");
        assert!(matches!(err, ResumeError::CapacityMismatch { .. }));
    }
}
