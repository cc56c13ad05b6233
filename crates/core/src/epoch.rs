//! The epoch drainer (§4.2): atomic draining of dirty metadata through
//! the ADR-protected WPQ, in two phases mirroring the hardware's
//! `end`-signal protocol:
//!
//! * [`SecureMemory::stage_drain`] — recompute queued tree nodes
//!   bottom-up (deferred spreading), refresh `ROOT_new`, push every
//!   queued line into the WPQ. Nothing is durable yet.
//! * [`SecureMemory::commit_staged`] — the `end` signal: staged lines
//!   become durable, caches are cleaned, the dirty address queue
//!   empties and `ROOT_old ← ROOT_new`, `N_wb ← 0`.
//! * [`SecureMemory::discard_staged`] — the crash-before-`end` path:
//!   staged updates are dropped and the durable image keeps the old
//!   epoch's consistent state.
//!
//! [`SecureMemory::drain`] runs both phases back to back, which is the
//! normal (non-crash) behaviour.

use crate::obs::{self, profile::Stage, wear::WriteCause};
use crate::secmem::{DrainTrigger, SecureMemory};
use ccnvm_crypto::latency::HMAC_LATENCY_CYCLES;
use ccnvm_mem::crashpoint::{self, Boundary};
use ccnvm_mem::{Cycle, Line, LineAddr, LineMap};

/// Reusable drain working storage, owned by [`SecureMemory`] so the
/// steady-state drain allocates nothing: each buffer is cleared and
/// refilled per drain, keeping its high-water capacity across epochs.
#[derive(Debug, Default)]
pub(crate) struct DrainScratch {
    /// Snapshot of the dirty address queue (the queue itself is
    /// cleared at commit while these addresses are still in use).
    entries: Vec<LineAddr>,
    /// Current content of every queued line, keyed by address.
    contents: LineMap<Line>,
    /// Queued tree nodes sorted bottom-up for deferred spreading.
    ordered: Vec<(usize, u64, LineAddr)>,
}

impl SecureMemory {
    /// Runs a complete atomic drain (stage + commit) and returns its
    /// end cycle. A no-op for designs without a drainer or when the
    /// dirty address queue is empty.
    pub fn drain(&mut self, now: Cycle, trigger: DrainTrigger) -> Cycle {
        if !self.design().has_drainer() || self.dirty_queue.is_empty() {
            return now;
        }
        let queued = self.dirty_queue.len() as u64;
        self.emit(obs::Event::Drain {
            at: now,
            stage: obs::DrainStage::Stage,
            trigger: Some(trigger),
            lines: queued,
        });
        self.nvm.flight_boundary(Boundary::DrainStage.begin());
        let end = self.stage_drain(now);
        // Staged-but-uncommitted: killing here models a crash before
        // the `end` signal — nothing of this epoch is durable yet.
        crashpoint::fire(Boundary::DrainStage.label());
        self.nvm.flight_boundary(Boundary::DrainStage.end());
        self.commit_staged();
        // Fold the stage's WPQ accepts in first, so the trace stays
        // chronologically ordered and the epoch's WPQ high water counts
        // its own drain. The commit event then closes the recorder's
        // epoch and covers every lag stamp taken so far
        // (`discard_staged` — the crash model — leaves them pending).
        self.obs_sync_queues();
        self.emit(obs::Event::Drain {
            at: end,
            stage: obs::DrainStage::Commit,
            trigger: Some(trigger),
            lines: queued,
        });
        self.stats.drains += 1;
        match trigger {
            DrainTrigger::QueueFull => self.stats.drains_queue_full += 1,
            DrainTrigger::DirtyEviction => self.stats.drains_evict += 1,
            DrainTrigger::UpdateLimit | DrainTrigger::Overflow => {
                self.stats.drains_update_limit += 1
            }
            DrainTrigger::External => {}
        }
        self.stats.drain_cycles += end - now;
        if !self.in_write_back {
            // Drains issued by a write-back are inside its engine
            // service span and already accounted there; top-level
            // drains (read-path dirty evictions, external flushes) are
            // engine work of their own.
            self.stats.engine_cycles += end - now;
        }
        self.nvm.durable.tick(end);
        self.engine_busy_until = self.engine_busy_until.max(end);
        self.audit_check(obs::audit::AuditPoint::DrainCommit, end);
        end
    }

    /// Stage phase of the drain protocol (§4.2 steps 4–5): with
    /// deferred spreading, recompute every queued tree node bottom-up
    /// (each exactly once) and refresh `ROOT_new`; then push every
    /// queued line into the WPQ. The updates are *not* durable until
    /// [`Self::commit_staged`] — a crash in between loses them, which
    /// is exactly the ADR `end`-signal semantics.
    pub fn stage_drain(&mut self, now: Cycle) -> Cycle {
        debug_assert!(self.staged.is_empty(), "staged drain already pending");
        // Move the scratch out of `self` for the duration so its
        // buffers can be filled while `self` is borrowed; no early
        // returns below, so it always goes back.
        let mut scratch = std::mem::take(&mut self.drain_scratch);
        scratch.entries.clear();
        scratch
            .entries
            .extend_from_slice(self.dirty_queue.entries());
        let mut t = now;

        // Gather current contents; queued-but-uncached lines are read
        // from NVM (deferred spreading reserves nodes that were never
        // touched on-chip). The fetches are independent, so they issue
        // together and overlap across banks.
        scratch.contents.clear();
        for &line in &scratch.entries {
            if !self.meta_cache.contains(line) {
                t = t.max(self.mc.read(line, now));
            }
            scratch.contents.insert(line.0, self.meta_content(line));
        }

        if !self.design().updates_root_every_wb() {
            // Deferred spreading left the queued ancestors stale.
            // Recompute bottom-up: each queued line contributes one
            // child HMAC to its parent (also queued, by construction).
            scratch.ordered.clear();
            for &l in &scratch.entries {
                let (level, idx) = self.layout.level_of(l);
                scratch.ordered.push((level, idx, l));
            }
            scratch
                .ordered
                .sort_unstable_by_key(|&(level, idx, _)| (level, idx));
            let top_level = self.layout.internal_levels();
            // Sorted by (level, idx), every node's children come before
            // it, so each MAC reads finished content.
            for &(level, idx, line) in &scratch.ordered {
                if level == top_level {
                    continue;
                }
                let mac = self.bmt.child_mac(level, idx, &scratch.contents[&line.0]);
                self.stats.hmacs += 1;
                t += HMAC_LATENCY_CYCLES;
                let parent = self.layout.node_line(level + 1, idx / 4);
                let off = (idx % 4) as usize * 16;
                let pcontent = scratch
                    .contents
                    .get_mut(&parent.0)
                    .expect("full path is reserved in the dirty queue");
                pcontent[off..off + 16].copy_from_slice(&mac);
            }
            let top_line = self.layout.node_line(top_level, 0);
            if let Some(top_content) = scratch.contents.get(&top_line.0) {
                self.tcb.root_new = self.bmt.engine().node_mac(top_level, 0, top_content);
                self.stats.hmacs += 1;
                t += HMAC_LATENCY_CYCLES;
            }
        }

        // Everything up to here — content gathering and deferred
        // spreading — is the stage's compute; the WPQ loop below only
        // waits on ADR queue slots.
        self.obs.charge(Stage::DrainStage, t - now);
        let wpq_start = t;
        for &line in &scratch.entries {
            self.staged.push((line, scratch.contents[&line.0]));
            t = self.mc.wpq_write(line, t);
            // The ledger books the WPQ issue; the commit books the
            // stats and the profiler.
            let cause = WriteCause::meta(self.layout.level_of(line).0, true);
            self.obs.book_write(None, Some(cause));
        }
        self.obs.charge(Stage::WpqStall, t - wpq_start);
        self.drain_scratch = scratch;
        // The `end` signal is sent once every line is *in* the WPQ; ADR
        // guarantees the WPQ reaches NVM even across a power failure,
        // so the drain does not wait for the array writes themselves
        // (they only backpressure the next drain through WPQ
        // occupancy).
        t
    }

    /// Commit phase of the drain protocol (after the `end` signal):
    /// staged lines become durable, resident cache copies are updated
    /// and cleaned, the dirty address queue empties, and
    /// `ROOT_old ← ROOT_new`, `N_wb ← 0`.
    pub fn commit_staged(&mut self) {
        // Take/clear/put back rather than `mem::take` alone so the
        // staging buffer keeps its capacity across epochs. The staged
        // lines retire as one atomic group — the `end` signal means
        // ADR persists all of them even across a power failure — and
        // the TCB flip belongs to the same indivisible step (a crash
        // between the two would leave `N_wb` counting write-backs
        // whose counters are already durable).
        let mut staged = std::mem::take(&mut self.staged);
        self.nvm.begin_atomic();
        for &(line, content) in &staged {
            self.nvm.persist_meta(line, content);
            self.stats.meta_writes += 1;
            self.obs.book_write(Some(Stage::DrainCommit), None);
            if let Some(p) = self.meta_cache.payload_mut(line) {
                p.content = content;
                p.updates = 0;
                self.meta_cache.mark_clean(line);
            }
        }
        self.nvm.commit_atomic();
        staged.clear();
        self.staged = staged;
        self.dirty_queue.clear();
        self.nvm.flight_boundary(Boundary::RootAlternate.begin());
        self.tcb.commit_drain();
        crashpoint::fire(Boundary::RootAlternate.label());
        self.nvm.flight_boundary(Boundary::RootAlternate.end());
        self.obs.note_root_alternation();
        self.wbs_this_epoch = 0;
    }

    /// Discards a staged-but-uncommitted drain — the crash-before-
    /// `end`-signal path, where the memory controller drops the
    /// residual WPQ cachelines to keep the NVM tree consistent.
    ///
    /// Only the staging buffer is touched: the dirty address queue and
    /// the durable image are left exactly as they were.
    pub fn discard_staged(&mut self) {
        let staged = self.staged.len() as u64;
        if staged > 0 {
            // Discard models a crash before the `end` signal, which has
            // no simulated-time cost; stamp it with the last known
            // event time (0 when nothing was ever traced).
            self.emit(obs::Event::Drain {
                at: 0,
                stage: obs::DrainStage::Discard,
                trigger: None,
                lines: staged,
            });
        }
        self.staged.clear();
    }

    /// Whether a staged drain is awaiting its commit.
    pub fn has_staged_drain(&self) -> bool {
        !self.staged.is_empty()
    }

    /// Current occupancy of the dirty address queue.
    pub fn dirty_queue_len(&self) -> usize {
        self.dirty_queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DesignKind, SimConfig};

    fn mem(design: DesignKind) -> SecureMemory {
        SecureMemory::new(SimConfig::small(design)).expect("valid config")
    }

    #[test]
    fn ccnvm_defers_all_meta_writes_to_drain() {
        let mut m = mem(DesignKind::CcNvm);
        m.write_back(LineAddr(0), 0).unwrap();
        m.write_back(LineAddr(64), 10_000).unwrap();
        assert_eq!(m.stats().meta_writes, 0);
        assert_eq!(m.stats().drains, 0);
        m.drain(1_000_000, DrainTrigger::External);
        let s = m.stats();
        assert!(s.meta_writes > 0);
        // After the drain, NVM matches both roots.
        let img = m.crash_image();
        assert_eq!(m.bmt().root(&img.nvm), m.tcb().root_old);
        assert_eq!(m.tcb().root_old, m.tcb().root_new);
    }

    #[test]
    fn ccnvm_roots_diverge_mid_epoch() {
        let mut m = mem(DesignKind::CcNvm);
        m.drain(0, DrainTrigger::External);
        m.write_back(LineAddr(0), 0).unwrap();
        // ROOT_new is lazy in cc-NVM: it still matches ROOT_old, and
        // the durable tree matches both (old state).
        let img = m.crash_image();
        assert_eq!(m.bmt().root(&img.nvm), m.tcb().root_old);
        assert_eq!(m.tcb().nwb, 1);
        // Draining refreshes ROOT_new and commits it.
        m.drain(100_000, DrainTrigger::External);
        assert_eq!(m.tcb().nwb, 0);
        let img = m.crash_image();
        assert_eq!(m.bmt().root(&img.nvm), m.tcb().root_new);
    }

    #[test]
    fn ccnvm_no_ds_root_new_is_eager() {
        let mut m = mem(DesignKind::CcNvmNoDs);
        let before = m.tcb().root_new;
        m.write_back(LineAddr(0), 0).unwrap();
        assert_ne!(m.tcb().root_new, before, "root updated per write-back");
        assert_eq!(m.tcb().root_old, before, "old root awaits the drain");
        m.drain(100_000, DrainTrigger::External);
        assert_eq!(m.tcb().root_old, m.tcb().root_new);
    }

    #[test]
    fn drain_commits_consistent_tree_for_ds() {
        let mut m = mem(DesignKind::CcNvm);
        for i in 0..8u64 {
            m.write_back(LineAddr(i * 64), i * 50_000).unwrap();
        }
        m.drain(10_000_000, DrainTrigger::External);
        let img = m.crash_image();
        // Every materialized line is internally consistent.
        assert!(m.bmt().consistency_scan(&img.nvm).is_empty());
        assert_eq!(m.bmt().root(&img.nvm), m.tcb().root_new);
    }

    #[test]
    fn staged_drain_discard_keeps_old_state() {
        let mut m = mem(DesignKind::CcNvm);
        m.write_back(LineAddr(0), 0).unwrap();
        m.drain(50_000, DrainTrigger::External);
        let root_after_first = m.tcb().root_old;
        let nvm_before = m.crash_image().nvm;

        m.write_back(LineAddr(64), 100_000).unwrap();
        let queued = m.dirty_queue_len();
        assert!(queued > 0, "the write-back reserved its path");
        m.stage_drain(200_000);
        assert!(m.has_staged_drain());
        m.discard_staged();
        assert!(!m.has_staged_drain());
        // The dirty address queue still holds the epoch's reservations:
        // discarding a stage is a crash model, not an abort that
        // rewinds bookkeeping.
        assert_eq!(m.dirty_queue_len(), queued);
        let img = m.crash_image();
        // Durable metadata unchanged: consistent with the *old* root.
        // (The write-back's data + data-HMAC lines did persist — they
        // flow in legacy mode — hence exactly two more durable lines.)
        assert_eq!(m.bmt().root(&img.nvm), root_after_first);
        assert_eq!(img.nvm.len(), nvm_before.len() + 2);
        for l in nvm_before.sorted_addrs() {
            assert_eq!(
                img.nvm.read(l),
                nvm_before.read(l),
                "discard must not disturb durable line {l}"
            );
        }
    }

    #[test]
    fn queue_full_triggers_drain() {
        let mut cfg = SimConfig::small(DesignKind::CcNvm);
        cfg.dirty_queue_entries = 8; // path is 4 levels + counter = 5 lines
        cfg.mem.wpq_entries = 8;
        let mut m = SecureMemory::new(cfg).unwrap();
        // Two distant pages: second path cannot fit alongside the first.
        m.write_back(LineAddr(0), 0).unwrap();
        assert_eq!(m.stats().drains, 0);
        m.write_back(LineAddr(64 * 128), 100_000).unwrap();
        assert_eq!(m.stats().drains, 1);
        assert_eq!(m.stats().drains_queue_full, 1);
    }

    #[test]
    fn update_limit_triggers_drain() {
        let mut cfg = SimConfig::small(DesignKind::CcNvm);
        cfg.update_limit = 4;
        let mut m = SecureMemory::new(cfg).unwrap();
        for i in 0..5u64 {
            m.write_back(LineAddr(0), i * 100_000).unwrap();
        }
        assert_eq!(m.stats().drains, 1);
        assert_eq!(m.stats().drains_update_limit, 1);
    }

    #[test]
    fn epoch_length_histogram_records_drains() {
        let mut m = mem(DesignKind::CcNvm);
        m.attach_recorder(obs::RecorderConfig::default());
        for i in 0..10u64 {
            m.write_back(LineAddr((i % 2) * 64), i * 100_000).unwrap();
        }
        m.drain(10_000_000, DrainTrigger::External);
        for i in 0..3u64 {
            m.write_back(LineAddr(0), 20_000_000 + i * 100_000).unwrap();
        }
        m.drain(30_000_000, DrainTrigger::External);
        let h = m.recorder().expect("attached").epoch_len();
        assert_eq!(h.total(), 2);
        assert_eq!(h.max(), 10);
        assert!((h.mean() - 6.5).abs() < 1e-12);
    }
}
