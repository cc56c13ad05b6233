//! The write-back pipeline (Figure 3's dirty-eviction event), phase by
//! phase:
//!
//! 1. **Fetch** — bring every metadata line the write-back touches into
//!    the Meta Cache (may trigger dirty-eviction drains, safe only
//!    while nothing of *this* write-back is dirty yet);
//! 2. **Reserve** — epoch designs record the counter-to-root path in
//!    the dirty address queue (trigger 1 drains on overflow);
//! 3. **Bump + encrypt** — increment the split counter, OTP-encrypt
//!    the line, generate its data HMAC;
//! 4. **Spread + persist** — design-specific tree maintenance and
//!    durability (eager root updates for SC/Osiris/no-DS, deferred for
//!    cc-NVM), ending with the epoch designs' trigger-3/overflow
//!    drains.
//!
//! The counter-to-root path is walked once up front (`PathLines`)
//! and shared by every phase.

use crate::config::DesignKind;
use crate::counter::CounterLine;
use crate::error::IntegrityError;
use crate::layout::MAX_TREE_LEVELS;
use crate::metacache::MetaCache;
use crate::obs::{self, profile::Stage, WriteKind};
use crate::secmem::{pattern, DrainTrigger, SecureMemory};
use crate::view::{MetaSource, MetaView};
use ccnvm_crypto::latency::{AES_LATENCY_CYCLES, DIRTY_QUEUE_LOOKUP_CYCLES, HMAC_LATENCY_CYCLES};
use ccnvm_mem::crashpoint::{self, Boundary};
use ccnvm_mem::{Cycle, DurableBackend, Line, LineAddr, LineStore};

/// Chip-over-NVM metadata view used by full-path tree updates.
struct ChipView<'a> {
    chip: &'a mut MetaCache,
    overlay: &'a mut LineStore,
    durable: &'a dyn DurableBackend,
}

impl MetaSource for ChipView<'_> {
    fn load_meta(&self, line: LineAddr) -> Option<Line> {
        self.chip
            .content(line)
            .or_else(|| self.overlay.get(line).copied())
            .or_else(|| self.durable.load(line))
    }
}

impl MetaView for ChipView<'_> {
    /// Writes and dirties a resident line's way. A path node that is
    /// not (or no longer) resident — say, on a path longer than a tiny
    /// Meta Cache — has its fresh value in NVM pending persistence, so
    /// it goes to the functional overlay, where reads, repairs and
    /// drains see it instead of the stale durable copy.
    fn store_meta(&mut self, line: LineAddr, content: Line) {
        match self.chip.payload_mut(line) {
            Some(p) => {
                p.content = content;
                self.chip.mark_dirty(line);
            }
            None => self.overlay.write(line, content),
        }
    }
}

/// One write-back's counter-to-root walk, computed once and shared by
/// every phase (fetch, reservation, tree maintenance, persistence).
///
/// Tree depth is bounded at config time ([`MAX_TREE_LEVELS`]), so the
/// whole walk lives inline on the write-back's stack frame — no heap
/// allocation per operation.
struct PathLines {
    /// The counter line (path level 0).
    ctr_line: LineAddr,
    /// Counter index within its level.
    ctr_idx: u64,
    /// Internal tree node descriptors, bottom-up (excludes the
    /// counter); only the first `len` entries are meaningful.
    nodes: [(usize, u64, LineAddr); MAX_TREE_LEVELS],
    /// Every line of the path — counter first, then the nodes
    /// bottom-up (`len + 1` entries) — in the shape the dirty address
    /// queue reserves.
    lines: [LineAddr; MAX_TREE_LEVELS + 1],
    /// Number of internal nodes on the path.
    len: usize,
}

impl PathLines {
    fn of(mem: &SecureMemory, line: LineAddr) -> Self {
        let ctr_line = mem.layout.counter_line_of(line);
        let ctr_idx = mem.layout.counter_index(ctr_line);
        let mut nodes = [(0usize, 0u64, LineAddr(0)); MAX_TREE_LEVELS];
        let mut lines = [LineAddr(0); MAX_TREE_LEVELS + 1];
        lines[0] = ctr_line;
        let path = mem.layout.path_of_counter(ctr_idx);
        for (i, &(lvl, idx)) in path.iter().enumerate() {
            let node_line = mem.layout.node_line(lvl, idx);
            nodes[i] = (lvl, idx, node_line);
            lines[i + 1] = node_line;
        }
        Self {
            ctr_line,
            ctr_idx,
            nodes,
            lines,
            len: path.len(),
        }
    }

    /// Internal tree nodes, bottom-up.
    fn nodes(&self) -> &[(usize, u64, LineAddr)] {
        &self.nodes[..self.len]
    }

    /// Every line of the path: counter first, then the nodes bottom-up.
    fn all_lines(&self) -> &[LineAddr] {
        &self.lines[..self.len + 1]
    }
}

impl SecureMemory {
    /// Services an LLC dirty eviction of data line `line` arriving at
    /// `now`; returns the cycle the write-back buffer releases the
    /// entry (the LLC-visible latency — the engine and NVM work
    /// continue in the background and throttle *later* write-backs).
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] when a metadata fetch fails
    /// authentication (runtime attack detected and located).
    ///
    /// # Panics
    ///
    /// Panics if `line` is outside the data region.
    pub fn write_back(&mut self, line: LineAddr, now: Cycle) -> Result<Cycle, IntegrityError> {
        assert!(self.layout.is_data_line(line), "{line} is not a data line");
        // Scope marker for the profiler: helper time (metadata fetch,
        // verification, cache maintenance) accrues to the engine domain
        // exactly while a write-back is in flight, mirroring how
        // `engine_cycles` itself is accounted.
        self.in_write_back = true;
        let result = self.write_back_inner(line, now);
        self.in_write_back = false;
        result
    }

    fn write_back_inner(&mut self, line: LineAddr, now: Cycle) -> Result<Cycle, IntegrityError> {
        self.stats.write_backs += 1;
        self.wbs_this_epoch += 1;
        let release = self.wb_buffer.accept(now);
        let mut t = release.max(self.engine_busy_until);
        let service_start = t;
        self.emit(obs::Event::WriteBack {
            at: release,
            phase: obs::WbPhase::Accept,
            line,
        });

        let path = PathLines::of(self, line);
        let ctr_line = path.ctr_line;

        // Phase 1 — bring every metadata line this write-back touches
        // into the Meta Cache. Installs may trigger dirty-eviction
        // drains, which clear the dirty address queue; that is safe
        // only while nothing of *this* write-back is dirty yet, so all
        // fetches happen before the reservation and the counter bump.
        t = self.ensure_meta_cached(ctr_line, t)?;
        if self.design().updates_root_every_wb() {
            for &(_, _, node_line) in path.nodes() {
                if !self.meta_cache.contains(node_line) {
                    t = self.ensure_meta_cached(node_line, t)?;
                }
            }
            if !self.meta_cache.contains(ctr_line) {
                // A tiny meta cache can displace the counter while the
                // path streams in; bring it back.
                t = self.ensure_meta_cached(ctr_line, t)?;
            }
        }
        self.emit(obs::Event::WriteBack {
            at: t,
            phase: obs::WbPhase::Fetch,
            line,
        });

        // Phase 2 — epoch designs reserve dirty-queue entries
        // (trigger 1). The counter is still clean here, so a
        // queue-full drain commits a complete epoch.
        if self.design().has_drainer() {
            let entries = path.all_lines();
            if !self.dirty_queue.try_insert_all(entries) {
                t = self.drain(t, DrainTrigger::QueueFull);
                let inserted = self.dirty_queue.try_insert_all(entries);
                debug_assert!(inserted, "one path must fit an empty queue");
            }
            // The write-back data may only be forwarded once *every*
            // metadata address has been looked up and recorded (§5.1's
            // explanation of cc-NVM's residual IPC cost). The CAM is
            // pipelined: 32-cycle lookup latency, one entry retired
            // every 8 cycles after that.
            let reserve = DIRTY_QUEUE_LOOKUP_CYCLES + 8 * entries.len() as u64;
            t += reserve;
            self.obs.charge(Stage::DirtyQueueReserve, reserve);
            self.emit(obs::Event::WriteBack {
                at: t,
                phase: obs::WbPhase::Reserve,
                line,
            });
        }
        // Phase 3 — bump the counter. From here to the end of the
        // write-back nothing may install into the Meta Cache (no
        // drains may fire except the ones this function issues
        // explicitly), so dirty state and queue entries stay paired.
        let old_ctr = CounterLine::decode(&self.meta_content(ctr_line));
        let mut ctr = old_ctr;
        let overflowed = ctr.bump(line.page_offset());
        self.meta_cache.mark_dirty(ctr_line);
        let updates = {
            let p = self
                .meta_cache
                .payload_mut(ctr_line)
                .expect("counter just cached");
            p.content = ctr.encode();
            p.updates += 1;
            p.updates
        };

        if overflowed {
            self.stats.counter_overflows += 1;
            let reenc_start = t;
            t = self.reencrypt_page(line, &old_ctr, &ctr, t);
            let reenc = t - reenc_start;
            self.obs.charge(Stage::PageReenc, reenc);
        }

        // Encrypt + data HMAC (parallel with tree work below).
        let version = self.nvm.versions.get(&line.0).copied().unwrap_or(0) + 1;
        let plain = pattern(line, version);
        let (major, minor) = ctr.seed(line.page_offset());
        // Borrow the engine in place — `bmt` is a disjoint field from
        // the stats/NVM state mutated below, so no clone is needed.
        let engine = self.bmt.engine();
        let ct = engine.encrypt_line(&plain, line, major, minor);
        let dh = engine.data_hmac(&ct, line, major, minor);
        self.stats.aes_ops += 1;
        self.stats.hmacs += 1;
        let crypto_done = t + AES_LATENCY_CYCLES + HMAC_LATENCY_CYCLES;
        self.emit(obs::Event::WriteBack {
            at: crypto_done,
            phase: obs::WbPhase::Encrypt,
            line,
        });

        // Phase 4 — design-specific tree maintenance (the path is
        // already cached from phase 1). The root register itself is
        // only assigned after the persist group below commits: the
        // hardware retires the write-back's NVM lines and its TCB
        // update as one ADR-atomic step, so no crash boundary may
        // separate them.
        let mut tree_done = t;
        let mut eager_root = None;
        if self.design().updates_root_every_wb() {
            let mut view = ChipView {
                chip: &mut self.meta_cache,
                overlay: &mut self.nvm.overlay,
                durable: self.nvm.durable.as_ref(),
            };
            let (root, hmacs) = self.bmt.update_path(&mut view, path.ctr_idx);
            self.stats.hmacs += hmacs as u64;
            tree_done += hmacs as u64 * HMAC_LATENCY_CYCLES;
            eager_root = Some(root);
        }
        // (w/o CC and cc-NVM: the dirtied counter *is* the trust
        // frontier; all tree work is deferred — to eviction time or to
        // the drain, respectively — and `N_wb` is bumped with the
        // persist-group commit below.)

        // Design-specific persistence. `tree_persist` tracks how many
        // cycles of this went to the write queue, for the critical-path
        // attribution below. The whole section — eager tree lines plus
        // the data/HMAC pair — retires as one ADR-atomic group.
        let mut tree_persist: Cycle = 0;
        self.nvm.begin_atomic();
        match self.design() {
            DesignKind::StrictConsistency => {
                for &l in path.all_lines() {
                    let content = self.meta_content(l);
                    self.nvm.persist_meta(l, content);
                    let at = self.post_write(l, tree_done, WriteKind::EagerMeta);
                    tree_persist += at.saturating_sub(tree_done);
                    tree_done = at;
                    self.meta_cache.mark_clean(l);
                }
                if let Some(p) = self.meta_cache.payload_mut(ctr_line) {
                    p.updates = 0;
                }
            }
            DesignKind::OsirisPlus => {
                // Stop-loss keyed on the counter *value* (not the cached
                // update count, which dies on eviction): every N-th
                // minor value persists the line, so recovery needs at
                // most N retries no matter how the cache behaved.
                let (_, minor_now) = ctr.seed(line.page_offset());
                if (minor_now as u32).is_multiple_of(self.config.update_limit) {
                    let content = self.meta_content(ctr_line);
                    self.nvm.persist_meta(ctr_line, content);
                    let at = self.post_write(ctr_line, tree_done, WriteKind::EagerMeta);
                    tree_persist += at.saturating_sub(tree_done);
                    tree_done = at;
                    self.meta_cache.mark_clean(ctr_line);
                    if let Some(p) = self.meta_cache.payload_mut(ctr_line) {
                        p.updates = 0;
                    }
                }
            }
            _ => {}
        }

        // Data + data HMAC reach NVM atomically (ADR).
        self.nvm.persist_data(line, ct);
        let (dh_line, dh_off) = self.layout.dh_slot_of(line);
        let mut dh_content = self.nvm.durable.read(dh_line);
        dh_content[dh_off..dh_off + 16].copy_from_slice(&dh);
        self.nvm.persist_data(dh_line, dh_content);
        self.nvm.versions.insert(line.0, version);
        let mut done = crypto_done.max(tree_done);
        if self.obs.profiling() {
            // Attribute the parallel crypto‖tree span `[t, done)`: the
            // AES pad + data HMAC pipeline is on the critical path up
            // to its own latency; whatever the tree side adds beyond
            // that is eager persistence first (it forms the tail of
            // `tree_done`), then unhidden tree-walk HMAC time.
            let pad = AES_LATENCY_CYCLES + HMAC_LATENCY_CYCLES;
            self.obs.charge(Stage::AesPad, AES_LATENCY_CYCLES);
            self.obs.charge(Stage::DataHmac, HMAC_LATENCY_CYCLES);
            let excess = (done - t) - pad;
            let persist = tree_persist.min(excess);
            if persist > 0 {
                self.obs.charge(Stage::TreeEager, persist);
            }
            if excess > persist {
                self.obs.charge(Stage::BmtPathWalk, excess - persist);
            }
        }
        for (l, kind) in [(line, WriteKind::Data), (dh_line, WriteKind::DataHmac)] {
            let at = self.post_write(l, done, kind);
            self.obs.charge(Stage::WbPersist, at.saturating_sub(done));
            done = at;
        }
        self.nvm.commit_atomic();
        // The persistent TCB registers update in the same atomic step
        // as the group commit: a crash either sees the whole
        // write-back with its register update, or neither — otherwise
        // `N_retry` (derived from durable data HMACs at recovery)
        // would disagree with `N_wb` after a legal power failure.
        match eager_root {
            Some(root) => {
                self.nvm.flight_boundary(Boundary::RootAlternate.begin());
                self.tcb.root_new = root;
                if !self.design().has_drainer() {
                    // SC and Osiris Plus persist the root atomically
                    // with the write-back.
                    self.tcb.root_old = root;
                }
                crashpoint::fire(Boundary::RootAlternate.label());
                self.nvm.flight_boundary(Boundary::RootAlternate.end());
                self.obs.note_root_alternation();
            }
            None => {
                self.nvm.flight_boundary(Boundary::NwbUpdate.begin());
                self.tcb.nwb += 1;
                crashpoint::fire(Boundary::NwbUpdate.label());
                self.nvm.flight_boundary(Boundary::NwbUpdate.end());
                self.obs.note_nwb_update();
            }
        }

        // Final drains for the epoch designs: a minor-counter overflow
        // commits the re-encrypted page's counter atomically
        // (trigger: overflow), otherwise trigger 3 fires when the
        // counter line exceeded N updates.
        if self.design().has_drainer() {
            if overflowed {
                done = self.drain(done, DrainTrigger::Overflow);
            } else if updates >= self.config.update_limit {
                // Trigger 3 fires *at* N so no line's durable counter is
                // ever more than N increments stale — the recovery retry
                // budget (§4.4 step 2).
                done = self.drain(done, DrainTrigger::UpdateLimit);
            }
        }

        // Feed the simulated clock to backends with time-based flush
        // policies (no-op for the in-memory stores).
        self.nvm.durable.tick(done);
        self.stats.engine_cycles += done.saturating_sub(service_start);
        self.engine_busy_until = self.engine_busy_until.max(done);
        self.wb_buffer.push(done);
        // Non-drainer designs persist everything a recovery needs within
        // the write-back itself (SC/Osiris root updates are ADR-atomic
        // with the persist group; w/o CC offers no later commit to wait
        // for), so on them this event also closes the durability lag.
        self.emit(obs::Event::WriteBack {
            at: done,
            phase: obs::WbPhase::Persist,
            line,
        });
        self.obs.note_wb_latency(done.saturating_sub(service_start));
        self.obs_sync_queues();
        self.audit_check(obs::audit::AuditPoint::WriteBack, done);
        Ok(release)
    }

    /// Atomic page re-encryption after a minor-counter overflow: every
    /// already-persisted line of the page is re-encrypted under the new
    /// major counter and its data HMAC refreshed; the counter line is
    /// persisted with it (via a forced drain for the epoch designs).
    pub(crate) fn reencrypt_page(
        &mut self,
        written: LineAddr,
        old_ctr: &CounterLine,
        new_ctr: &CounterLine,
        mut t: Cycle,
    ) -> Cycle {
        // The rewritten page (data + HMACs + the eager designs'
        // counter persist) reaches NVM as one atomic unit.
        self.nvm.begin_atomic();
        let page_first = LineAddr(written.0 / 64 * 64);
        for i in 0..64usize {
            let dline = LineAddr(page_first.0 + i as u64);
            if dline == written {
                continue; // rewritten by the in-flight write-back
            }
            let Some(ct_old) = self.nvm.durable.load(dline) else {
                continue;
            };
            let engine = self.bmt.engine();
            let (maj_o, min_o) = old_ctr.seed(i);
            let plain = engine.decrypt_line(&ct_old, dline, maj_o, min_o);
            let (maj_n, min_n) = new_ctr.seed(i);
            let ct_new = engine.encrypt_line(&plain, dline, maj_n, min_n);
            let dh = engine.data_hmac(&ct_new, dline, maj_n, min_n);
            self.stats.aes_ops += 2;
            self.stats.hmacs += 1;
            self.nvm.persist_data(dline, ct_new);
            let (dh_line, dh_off) = self.layout.dh_slot_of(dline);
            let mut dh_content = self.nvm.durable.read(dh_line);
            dh_content[dh_off..dh_off + 16].copy_from_slice(&dh);
            self.nvm.persist_data(dh_line, dh_content);
            t = self.mc.read(dline, t);
            for l in [dline, dh_line] {
                t = self.post_write(l, t, WriteKind::PageReencrypt);
            }
            t += AES_LATENCY_CYCLES + HMAC_LATENCY_CYCLES;
        }
        // Persist the counter atomically with the page.
        match self.design() {
            DesignKind::CcNvm | DesignKind::CcNvmNoDs => {
                // Deferred: `write_back` issues the overflow drain as
                // its final step, once the counter and any tree dirt
                // are paired with their dirty-queue entries.
            }
            DesignKind::StrictConsistency => {
                // The per-write-back persist that follows covers it.
            }
            DesignKind::OsirisPlus | DesignKind::WithoutCc => {
                let ctr_line = self.layout.counter_line_of(written);
                let content = self.meta_content(ctr_line);
                self.nvm.persist_meta(ctr_line, content);
                t = self.post_write(ctr_line, t, WriteKind::PageReencrypt);
                if let Some(p) = self.meta_cache.payload_mut(ctr_line) {
                    p.updates = 0;
                }
            }
        }
        self.nvm.commit_atomic();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn mem(design: DesignKind) -> SecureMemory {
        SecureMemory::new(SimConfig::small(design)).expect("valid config")
    }

    #[test]
    fn repeated_write_backs_bump_counter() {
        let mut m = mem(DesignKind::CcNvm);
        for _ in 0..5 {
            m.write_back(LineAddr(64), 0).unwrap();
        }
        let ctr_line = m.layout().counter_line_of(LineAddr(64));
        let ctr = m.logical_counter(ctr_line);
        assert_eq!(ctr.minor(LineAddr(64).page_offset()), 5);
        m.read_data(LineAddr(64), 1_000_000)
            .expect("still readable");
    }

    #[test]
    fn sc_persists_metadata_every_write_back() {
        let mut m = mem(DesignKind::StrictConsistency);
        m.write_back(LineAddr(0), 0).unwrap();
        let s = m.stats();
        // counter + every internal node.
        assert_eq!(s.meta_writes as usize, m.layout().path_lines());
        // NVM tree is immediately consistent with the root.
        let img = m.crash_image();
        assert_eq!(m.bmt().root(&img.nvm), m.tcb().root_new);
    }

    #[test]
    fn osiris_persists_counter_only_at_stop_loss() {
        let mut m = mem(DesignKind::OsirisPlus);
        let n = m.config().update_limit as u64;
        for i in 0..n - 1 {
            m.write_back(LineAddr(0), i * 10_000).unwrap();
        }
        assert_eq!(m.stats().meta_writes, 0, "below the stop-loss limit");
        m.write_back(LineAddr(0), 10_000_000).unwrap();
        assert_eq!(m.stats().meta_writes, 1, "N-th update persists");
    }

    #[test]
    fn counter_overflow_reencrypts_page() {
        let mut cfg = SimConfig::small(DesignKind::CcNvm);
        cfg.update_limit = 1000; // let the minor overflow first
        let mut m = SecureMemory::new(cfg).unwrap();
        // Write a sibling line so the page has content to re-encrypt.
        m.write_back(LineAddr(1), 0).unwrap();
        for i in 0..128u64 {
            m.write_back(LineAddr(0), (i + 1) * 1_000_000).unwrap();
        }
        assert_eq!(m.stats().counter_overflows, 1);
        assert!(m.stats().reenc_writes > 0);
        let ctr = m.logical_counter(m.layout().counter_line_of(LineAddr(0)));
        assert_eq!(ctr.major(), 1);
        // Both lines still decrypt + authenticate.
        m.read_data(LineAddr(0), 1_000_000_000)
            .expect("written line ok");
        m.read_data(LineAddr(1), 1_000_000_001)
            .expect("sibling re-encrypted ok");
    }

    /// FNV-1a, 64-bit, over every durable line of a crash image in
    /// address order (address bytes, then content).
    fn image_digest(m: &SecureMemory) -> u64 {
        let nvm = m.crash_image().nvm;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for addr in nvm.sorted_addrs() {
            for b in addr.0.to_le_bytes().into_iter().chain(nvm.read(addr)) {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Pins of a full-page re-encryption, in `DesignKind::ALL` order:
    /// the overflowing and the last write-back's cycles, `hmacs`,
    /// `aes_ops`, `reenc_writes`, `counter_overflows`, `engine_cycles`
    /// and NVM writes.
    const PAGE_REENCRYPTION_PINS: [[u64; 8]; 5] = [
        [58_700, 59_684, 262, 320, 124, 1, 94_920, 317],
        [76_900, 78_196, 1_232, 320, 121, 1, 115_096, 506],
        [76_900, 78_196, 1_232, 320, 124, 1, 115_096, 346],
        [89_500, 91_012, 1_232, 320, 123, 1, 129_064, 423],
        [75_300, 76_900, 322, 320, 122, 1, 113_688, 376],
    ];

    /// The crash image's digest after the same runs.
    const PAGE_REENCRYPTION_DIGESTS: [u64; 5] = [
        0x2d4d_31f1_1347_2a3d,
        0x53f8_bbc0_795d_016e,
        0x2d4d_31f1_1347_2a3d,
        0x6bb9_5fc8_d7c5_724b,
        0x6bb9_5fc8_d7c5_724b,
    ];

    /// A full-page re-encryption, pinned on every design and both
    /// crypto tiers: all 63 siblings of page 0 are persisted, then line
    /// 0's minor counter overflows, so every sibling is decrypted,
    /// re-encrypted and re-MACed in one atomic group. All 64 lines must
    /// read back clean afterwards.
    #[test]
    fn full_page_reencryption_is_pinned_on_every_design() {
        use ccnvm_crypto::CryptoSelect;
        for (d, design) in DesignKind::ALL.into_iter().enumerate() {
            for crypto in [CryptoSelect::Portable, CryptoSelect::Auto] {
                let mut cfg = SimConfig::small(design);
                cfg.crypto = crypto;
                let mut m = SecureMemory::new(cfg).expect("valid config");
                let mut t = 0;
                for i in 1..64u64 {
                    t = m.write_back(LineAddr(i), t).unwrap();
                }
                while m.stats().counter_overflows == 0 {
                    t = m.write_back(LineAddr(0), t).unwrap();
                }
                let overflow_at = t;
                // A tail after the overflow: the written line and two
                // re-encrypted siblings.
                for line in [0u64, 1, 63] {
                    t = m.write_back(LineAddr(line), t).unwrap();
                }
                let s = m.stats();
                let got = [
                    overflow_at,
                    t,
                    s.hmacs,
                    s.aes_ops,
                    s.reenc_writes,
                    s.counter_overflows,
                    s.engine_cycles,
                    m.mem_stats().total_writes(),
                ];
                assert_eq!(got, PAGE_REENCRYPTION_PINS[d], "{design}, crypto {crypto}");
                assert_eq!(
                    image_digest(&m),
                    PAGE_REENCRYPTION_DIGESTS[d],
                    "{design}, crypto {crypto}"
                );
                for i in 0..64u64 {
                    t = m
                        .read_data(LineAddr(i), t)
                        .unwrap_or_else(|e| panic!("{design}: line {i} after re-encryption: {e}"));
                }
            }
        }
    }

    #[test]
    fn write_traffic_cross_check() {
        for design in DesignKind::ALL {
            let mut m = mem(design);
            for i in 0..20u64 {
                m.write_back(LineAddr((i % 7) * 64), i * 200_000).unwrap();
            }
            m.drain(100_000_000, DrainTrigger::External);
            let s = m.stats();
            let mc = m.mem_stats();
            assert_eq!(
                s.total_writes(),
                mc.total_writes(),
                "{design}: categorized writes must equal controller writes"
            );
        }
    }

    #[test]
    fn wear_concentrates_on_sc_tree_path() {
        // SC rewrites the same path lines every write-back; its hottest
        // line must out-wear cc-NVM's by a wide margin.
        let mut sc = mem(DesignKind::StrictConsistency);
        let mut cc = mem(DesignKind::CcNvm);
        for i in 0..64u64 {
            sc.write_back(LineAddr((i % 4) * 64), i * 200_000).unwrap();
            cc.write_back(LineAddr((i % 4) * 64), i * 200_000).unwrap();
        }
        cc.drain(100_000_000, DrainTrigger::External);
        let w_sc = sc.wear_stats();
        let w_cc = cc.wear_stats();
        assert!(
            w_sc.max_line_writes > 2 * w_cc.max_line_writes,
            "SC hottest {} vs cc-NVM hottest {}",
            w_sc.max_line_writes,
            w_cc.max_line_writes
        );
    }

    #[test]
    fn engine_occupancy_grows_with_design_cost() {
        let mut sc = mem(DesignKind::StrictConsistency);
        let mut cc = mem(DesignKind::CcNvm);
        let mut t_sc = 0;
        let mut t_cc = 0;
        for i in 0..64u64 {
            t_sc = sc.write_back(LineAddr((i % 4) * 64), t_sc).unwrap();
            t_cc = cc.write_back(LineAddr((i % 4) * 64), t_cc).unwrap();
        }
        // Back-to-back write-backs: SC's serialized root updates make
        // its engine the bottleneck.
        assert!(
            t_sc > t_cc,
            "SC ({t_sc}) must throttle write-backs harder than cc-NVM ({t_cc})"
        );
    }
}
