//! Metadata verification and Meta Cache maintenance: fetching missing
//! counter/tree chains, authenticating fetched lines against the
//! cached trust frontier, and handling dirty evictions for the
//! non-drainer designs.
//!
//! The HMAC checks here are shared by the runtime read path
//! ([`SecureMemory::read_data`]) and by recovery, which uses the same
//! `data_hmac_matches` primitive while probing counter candidates.

use crate::bmt::Bmt;
use crate::config::DesignKind;
use crate::engine::CryptoEngine;
use crate::error::IntegrityError;
use crate::obs::{self, profile::Stage};
use crate::secmem::{DrainTrigger, SecureMemory};
use ccnvm_crypto::latency::HMAC_LATENCY_CYCLES;
use ccnvm_mem::{Cycle, Line, LineAddr};

/// Whether `stored` is the correct truncated HMAC for ciphertext `ct`
/// of data line `line` under counter `(major, minor)`.
///
/// The single authentication primitive for data lines: the read path
/// checks the stored tag with the current counter, and recovery probes
/// it with candidate counters during ≤N-retry counter recovery.
pub(crate) fn data_hmac_matches(
    engine: &CryptoEngine,
    ct: &Line,
    line: LineAddr,
    major: u64,
    minor: u8,
    stored: &[u8],
) -> bool {
    let mac = engine.data_hmac(ct, line, major, minor);
    mac[..] == *stored
}

impl SecureMemory {
    /// Installs `line` into the Meta Cache with `content`, the value
    /// the fetch resolved, handling a dirty victim per the active
    /// design. Only a dirty victim can change `line`'s NVM copy — its
    /// drain persists every queued line, and its chain repair patches
    /// ancestors that are not on chip — so after one the content is
    /// resolved again, and repairs triggered by the eviction are never
    /// lost; clean evictions leave it as fetched. Returns the advanced
    /// clock.
    pub(crate) fn install_meta(
        &mut self,
        line: LineAddr,
        mut content: Line,
        mut t: Cycle,
    ) -> Cycle {
        let mut rewritten = false;
        while let Some((victim, dirty)) = self.meta_cache.peek_victim(line) {
            rewritten |= dirty;
            if dirty && self.design().has_drainer() {
                // Trigger 2: a dirty line is about to be evicted — drain
                // first so the eviction is clean.
                t = self.drain(t, DrainTrigger::DirtyEviction);
                assert!(
                    !self.meta_cache.is_dirty(victim),
                    "drain must clean every dirty metadata line ({victim} was \
                     dirty outside the dirty address queue)"
                );
                continue; // re-check: the victim is clean now
            }
            let (_, victim_content) = self
                .meta_cache
                .invalidate(victim)
                .expect("the victim is resident");
            self.emit(obs::Event::Meta {
                at: t,
                action: if dirty {
                    obs::MetaAction::EvictDirty
                } else {
                    obs::MetaAction::EvictClean
                },
                line: victim,
            });
            if dirty {
                t = self.evict_dirty_meta(victim, victim_content, t);
            }
        }
        if rewritten {
            content = self
                .functional_nvm(line)
                .unwrap_or_else(|| self.meta_default(line));
        }
        let result = self.meta_cache.access(line);
        debug_assert!(result.evicted.is_none(), "room was made above");
        debug_assert!(result.is_miss(), "install_meta on a resident line");
        self.meta_cache
            .payload_mut(line)
            .expect("just installed")
            .content = content;
        self.emit(obs::Event::Meta {
            at: t,
            action: obs::MetaAction::Install,
            line,
        });
        self.audit_check(obs::audit::AuditPoint::MetaInstall, t);
        t
    }

    /// Handles a dirty metadata eviction for the non-drainer designs:
    /// write the victim out (durably for w/o CC and SC; to the
    /// functional overlay for Osiris Plus, whose online check recovers
    /// the value) and repair the authentication chain above it.
    pub(crate) fn evict_dirty_meta(
        &mut self,
        victim: LineAddr,
        content: Line,
        mut t: Cycle,
    ) -> Cycle {
        match self.design() {
            DesignKind::WithoutCc | DesignKind::StrictConsistency => {
                self.nvm.persist_meta(victim, content);
                let at = self.post_write(victim, t, obs::WriteKind::EvictedMeta);
                self.prof_engine(Stage::MetaCacheMaint, at.saturating_sub(t));
                t = at;
            }
            DesignKind::OsirisPlus => {
                // Not persisted: recoverable online within N updates.
                self.nvm.overlay.write(victim, content);
            }
            DesignKind::CcNvmNoDs | DesignKind::CcNvm => {
                unreachable!("drainer designs drain before evicting dirty lines")
            }
        }
        self.repair_chain(victim, &content, t)
    }

    /// Repairs the authentication chain after a dirty line left the
    /// cache with new content: walks upward, refreshing each ancestor's
    /// slot *where that ancestor lives* — in the Meta Cache (patch,
    /// mark dirty, stop: the frontier is trusted from there) or in the
    /// NVM layer (read-modify-write, continue, since that ancestor's
    /// own parent link is now stale). Reaching past the top node
    /// refreshes the TCB root registers.
    ///
    /// Crucially this never installs anything into the Meta Cache, so
    /// it cannot trigger further evictions — eviction repair is
    /// reentrancy-free.
    pub(crate) fn repair_chain(&mut self, from: LineAddr, content: &Line, mut t: Cycle) -> Cycle {
        let (mut level, mut idx) = self.layout.level_of(from);
        let mut child_content = *content;
        let top = self.layout.internal_levels();
        loop {
            self.stats.hmacs += 1;
            t += HMAC_LATENCY_CYCLES;
            self.prof_engine(Stage::MetaCacheMaint, HMAC_LATENCY_CYCLES);
            if level == top {
                let root = self.bmt.engine().node_mac(top, 0, &child_content);
                self.tcb.root_new = root;
                self.tcb.root_old = root;
                return t;
            }
            let mac = self.bmt.child_mac(level, idx, &child_content);
            let parent = self.layout.node_line(level + 1, idx / 4);
            let off = (idx % 4) as usize * 16;
            if let Some(p) = self.meta_cache.payload_mut(parent) {
                p.content[off..off + 16].copy_from_slice(&mac);
                self.meta_cache.mark_dirty(parent);
                return t;
            }
            // Parent lives in the NVM layer: read-modify-write into the
            // functional overlay and keep walking — its own parent link
            // is now stale. In the classical hardware the parent would
            // instead be fetched into the cache and dirtied (so the net
            // NVM traffic per dirty eviction is one line — the victim);
            // the overlay models exactly that deferred state without
            // the cache-install reentrancy, and charges the fetch.
            let mut pcontent = self
                .functional_nvm(parent)
                .unwrap_or_else(|| self.meta_default(parent));
            pcontent[off..off + 16].copy_from_slice(&mac);
            // The fetch is memory-side work that overlaps with the
            // engine's HMAC chain; charge the traffic, not the engine.
            let _ = self.mc.read(parent, t);
            self.nvm.overlay.write(parent, pcontent);
            child_content = pcontent;
            level += 1;
            idx /= 4;
        }
    }

    /// Brings `line` into the Meta Cache, fetching and verifying the
    /// missing ancestor chain against the cached trust frontier (or the
    /// TCB roots at the top). Returns the cycle the line is available.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] if a fetched line fails
    /// authentication — a located runtime integrity attack.
    pub(crate) fn ensure_meta_cached(
        &mut self,
        line: LineAddr,
        now: Cycle,
    ) -> Result<Cycle, IntegrityError> {
        let mut t = now + self.config.meta_cycles;
        self.prof_engine(Stage::MetaFetch, self.config.meta_cycles);
        if self.meta_cache.touch(line) {
            self.stats.meta_hits += 1;
            return Ok(t);
        }
        // Collect the missing chain bottom-up until a cached ancestor,
        // with each member's tree coordinates, in the reusable scratch
        // buffer (bounded by one tree path, so it reaches steady-state
        // capacity after the first deep miss and the hot path stays
        // allocation-free). Taken out of `self` for the borrow and put
        // back below; the integrity-error exit drops it, which only
        // costs the capacity on a terminal path.
        let mut chain = std::mem::take(&mut self.meta_chain_scratch);
        chain.clear();
        let (mut level, mut idx) = self.layout.level_of(line);
        chain.push((line, level, idx));
        while level < self.layout.internal_levels() {
            level += 1;
            idx /= 4;
            let parent = self.layout.node_line(level, idx);
            if self.meta_cache.contains(parent) {
                break;
            }
            chain.push((parent, level, idx));
        }
        self.stats.meta_misses += chain.len() as u64;
        // Install top-down so each verification sees a trusted parent.
        // Eviction repair is cache-neutral (`repair_chain`), so it may
        // update the NVM copy of a not-yet-installed chain member but
        // never installs one; reading the content fresh per iteration
        // picks any such repair up.
        for &(l, level, idx) in chain.iter().rev() {
            let content = self
                .functional_nvm(l)
                .unwrap_or_else(|| self.bmt.default_node(level));
            let fetch_start = t;
            t = self.mc.read(l, t);
            self.prof_engine(Stage::MetaFetch, t.saturating_sub(fetch_start));
            t = self.verify_fetched(level, idx, &content, t)?;
            t = self.install_meta(l, content, t);
        }
        chain.clear();
        self.meta_chain_scratch = chain;
        Ok(t)
    }

    /// Verifies freshly fetched metadata line `(level, idx)` against its
    /// (cached) parent slot, or against the persistent roots for the
    /// top node. A line that holds its level's default is checked
    /// against the default tree's own MAC ([`Bmt::link_mac`]) instead
    /// of a hash, but is still charged one HMAC: the modelled engine
    /// cannot tell untouched metadata apart, so `RunStats::hmacs` and
    /// the latency count every check.
    fn verify_fetched(
        &mut self,
        level: usize,
        idx: u64,
        content: &Line,
        mut t: Cycle,
    ) -> Result<Cycle, IntegrityError> {
        self.stats.hmacs += 1;
        t += HMAC_LATENCY_CYCLES;
        self.prof_engine(
            if level == 0 {
                Stage::CounterHmac
            } else {
                Stage::BmtPathWalk
            },
            HMAC_LATENCY_CYCLES,
        );
        let mac = self.bmt.link_mac(level, idx, content);
        if level < self.layout.internal_levels() {
            let parent = self.layout.node_line(level + 1, idx / 4);
            if Bmt::slot(&self.meta_content(parent), idx) != mac {
                return Err(IntegrityError::TreeMismatch {
                    child_level: level,
                    child_index: idx,
                });
            }
        } else if !self.tcb.matches_either_root(&mac) {
            return Err(IntegrityError::RootMismatch);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use ccnvm_mem::LineAddr;

    #[test]
    fn data_hmac_matches_is_exact() {
        let m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        let engine = m.bmt().engine();
        let ct = [7u8; 64];
        let mac = engine.data_hmac(&ct, LineAddr(3), 1, 2);
        assert!(data_hmac_matches(engine, &ct, LineAddr(3), 1, 2, &mac[..]));
        assert!(!data_hmac_matches(engine, &ct, LineAddr(3), 1, 3, &mac[..]));
        assert!(!data_hmac_matches(engine, &ct, LineAddr(4), 1, 2, &mac[..]));
        let mut wrong = mac;
        wrong[0] ^= 1;
        assert!(!data_hmac_matches(
            engine,
            &ct,
            LineAddr(3),
            1,
            2,
            &wrong[..]
        ));
    }

    #[test]
    fn without_cc_writes_meta_only_on_eviction() {
        let mut cfg = SimConfig::small(DesignKind::WithoutCc);
        // Tiny meta cache: 4 lines — force evictions.
        cfg.meta = ccnvm_mem::CacheConfig::new(256, 2);
        let mut m = SecureMemory::new(cfg).unwrap();
        // Touch many distinct pages to churn the meta cache.
        for i in 0..32u64 {
            m.write_back(LineAddr(i * 64), i * 300_000).unwrap();
        }
        assert!(m.stats().meta_writes > 0, "dirty evictions must write");
        // Still functional: re-read everything.
        for i in 0..32u64 {
            m.read_data(LineAddr(i * 64), 1_000_000_000 + i * 100_000)
                .expect("frontier invariant keeps verification sound");
        }
    }

    #[test]
    fn osiris_eviction_keeps_runtime_consistent_without_persisting() {
        let mut cfg = SimConfig::small(DesignKind::OsirisPlus);
        cfg.meta = ccnvm_mem::CacheConfig::new(256, 2);
        let mut m = SecureMemory::new(cfg).unwrap();
        for i in 0..32u64 {
            m.write_back(LineAddr(i * 64), i * 300_000).unwrap();
        }
        for i in 0..32u64 {
            m.read_data(LineAddr(i * 64), 2_000_000_000 + i * 100_000)
                .expect("overlay models the online counter recovery");
        }
    }

    /// A cc-NVM memory whose page 0 was written and drained: counter 0
    /// and its whole path are durable, non-default and clean on chip.
    fn drained_page_zero() -> SecureMemory {
        let mut m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        let t = m.write_back(LineAddr(7), 0).unwrap();
        m.drain(t + 100_000, DrainTrigger::External);
        m
    }

    /// Line `(level, idx)` of the small layout (level 0: a counter).
    fn meta_line(m: &SecureMemory, level: usize, idx: u64) -> LineAddr {
        match level {
            0 => m.layout().counter_line_at(idx),
            _ => m.layout().node_line(level, idx),
        }
    }

    /// Replaces durable metadata lines and drops the listed lines from
    /// the Meta Cache, so the next read fetches and verifies them.
    fn tamper(m: &mut SecureMemory, forged: &[(LineAddr, Line)], flush: &[LineAddr]) {
        for &(line, content) in forged {
            m.tamper_durable(line, content);
        }
        for &line in flush {
            m.flush_meta_line(line);
        }
    }

    /// A fetched line whose content is its level's default is answered
    /// from the default tree, but still against its parent's slot: a
    /// line rolled back to default under a parent that holds a written
    /// child's MAC, and a forged line under a default parent, both
    /// mismatch at the child.
    #[test]
    fn rolled_back_and_forged_lines_still_mismatch_their_parent() {
        // Counter 0 rolled back to all-zero; its level-1 parent holds
        // the written counter's MAC.
        let mut m = drained_page_zero();
        let ctr = meta_line(&m, 0, 0);
        tamper(&mut m, &[(ctr, [0u8; 64])], &[ctr]);
        assert_eq!(
            m.read_data(LineAddr(7), 10_000_000).unwrap_err(),
            IntegrityError::TreeMismatch {
                child_level: 0,
                child_index: 0
            }
        );
        // Level-1 node 0 rolled back to the default node under the
        // written level-2 node 0.
        let mut m = drained_page_zero();
        let node = meta_line(&m, 1, 0);
        let (default, ctr) = (m.bmt().default_node(1), meta_line(&m, 0, 0));
        tamper(&mut m, &[(node, default)], &[ctr, node]);
        assert_eq!(
            m.read_data(LineAddr(7), 10_000_000).unwrap_err(),
            IntegrityError::TreeMismatch {
                child_level: 1,
                child_index: 0
            }
        );
        // Forged counter 5 and forged level-1 node 1 (pages 4..8)
        // under default parents on a fresh memory.
        for (level, idx) in [(0usize, 5u64), (1, 1)] {
            let mut m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
            let line = meta_line(&m, level, idx);
            let mut forged = m.bmt().default_node(level);
            forged[63] ^= 1;
            tamper(&mut m, &[(line, forged)], &[]);
            assert_eq!(
                m.read_data(LineAddr(5 * 64), 0).unwrap_err(),
                IntegrityError::TreeMismatch {
                    child_level: level,
                    child_index: idx
                },
                "level {level}"
            );
        }
    }

    /// The top node is verified against the root registers: rolled
    /// back to default under a written root, or forged under the
    /// default root, it is a root mismatch.
    #[test]
    fn the_top_node_is_still_checked_against_the_root() {
        let mut m = drained_page_zero();
        let top = m.layout().internal_levels();
        let path: Vec<LineAddr> = (0..=top).map(|level| meta_line(&m, level, 0)).collect();
        let default = m.bmt().default_node(top);
        tamper(&mut m, &[(path[top], default)], &path);
        assert_eq!(
            m.read_data(LineAddr(7), 10_000_000).unwrap_err(),
            IntegrityError::RootMismatch
        );
        let mut m = SecureMemory::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        let mut forged = m.bmt().default_node(top);
        forged[0] ^= 0x80;
        tamper(&mut m, &[(path[top], forged)], &[]);
        assert_eq!(
            m.read_data(LineAddr(7), 0).unwrap_err(),
            IntegrityError::RootMismatch
        );
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

    /// `RunStats::csv_row` of `mixed`, 150 000 instructions at seed 7,
    /// over `SimConfig::small` with an 8-line Meta Cache, in
    /// `DesignKind::ALL` order.
    const TINY_META_STATS: [&str; 5] = [
        "150001,13032061,0.011510,23784,24259,20661,13996,8454,35198,7273,77560,7273,7256,\
         10534,0,25063,0,0,0,0,0,78359,21076,0,0,12761657,5950834",
        "150001,17201380,0.008720,23784,24259,20661,13996,7445,61384,7273,88990,7273,7271,\
         35840,0,50384,0,0,0,0,0,115618,21076,0,0,16930976,13127343",
        "150001,21325279,0.007034,23784,24259,20661,13996,7445,61384,7273,112167,7273,7273,\
         180,0,14726,0,0,0,0,0,162369,21076,0,0,21054875,15096293",
        "150001,19382081,0.007739,23784,24259,20661,13996,7445,61384,7273,102011,7273,7273,\
         36340,0,50886,7258,0,7258,0,2724457,115618,21076,0,0,19111677,16375513",
        "150001,13415088,0.011182,23784,24259,20661,13996,8454,35198,7273,72836,7273,7254,\
         21477,0,36004,3173,0,3173,0,3017825,74544,21076,0,0,13144684,8818802",
    ];

    /// The crash image's digest after the same runs.
    const TINY_META_DIGESTS: [u64; 5] = [
        0xa43d_f1cb_4f19_b28e,
        0xf033_f91b_6ed5_414c,
        0xf9eb_ecc0_739d_1c86,
        0xa554_fc2b_f3de_e871,
        0x10a4_fac0_037e_9a5f,
    ];

    /// The fetch path under constant pressure: an 8-line Meta Cache
    /// makes nearly every fetch walk a chain, install over a victim
    /// and, on every design but SC (which persists and cleans its path
    /// within each write-back), evict dirty metadata. Every `RunStats`
    /// field and the crash image are pinned per design.
    #[test]
    fn tiny_meta_cache_runs_are_pinned_on_every_design() {
        use ccnvm_trace::{profiles, TraceGenerator};
        for (d, design) in DesignKind::ALL.into_iter().enumerate() {
            let mut cfg = SimConfig::small(design);
            cfg.meta = ccnvm_mem::CacheConfig::new(512, 2);
            let mut sim = crate::sim::Simulator::new(cfg).unwrap();
            let s = sim
                .run(TraceGenerator::new(profiles::mixed(), 7), 150_000)
                .expect("attack-free run");
            if design != DesignKind::StrictConsistency {
                let dirty_evictions = match design {
                    DesignKind::WithoutCc => s.meta_writes,
                    DesignKind::OsirisPlus => sim.memory().nvm.overlay.len() as u64,
                    _ => s.drains_evict,
                };
                assert!(dirty_evictions > 0, "{design}: no dirty eviction");
            }
            assert_eq!(s.csv_row(), TINY_META_STATS[d], "{design}");
            assert_eq!(image_digest(sim.memory()), TINY_META_DIGESTS[d], "{design}");
        }
    }

    /// Dirty lines the run behind `m`'s recorder evicted from each bank
    /// of a split Meta Cache, `[counter bank, tree bank]`: every
    /// `EvictDirty`, and on the drainer designs the eviction that
    /// follows a dirty-eviction drain, whose victim the drain cleaned.
    fn dirty_evictions_per_bank(m: &SecureMemory) -> [u64; 2] {
        use crate::obs::{DrainStage, Event, MetaAction};
        let mut banks = [0u64; 2];
        let mut drained_victim = false;
        for event in m.recorder().expect("recorder attached").trace().iter() {
            match *event {
                Event::Drain {
                    stage: DrainStage::Commit,
                    trigger: Some(DrainTrigger::DirtyEviction),
                    ..
                } => drained_victim = true,
                Event::Meta { action, line, .. } => {
                    if action == MetaAction::EvictDirty
                        || (drained_victim && action == MetaAction::EvictClean)
                    {
                        banks[usize::from(!m.layout().is_counter_line(line))] += 1;
                    }
                    drained_victim = false;
                }
                _ => {}
            }
        }
        banks
    }

    /// `RunStats::csv_row` of the runs of [`TINY_META_STATS`] with the
    /// Meta Cache split into an 8-line counter bank and an 8-line tree
    /// bank, in `DesignKind::ALL` order.
    const SPLIT_META_STATS: [&str; 5] = [
        "150001,7858980,0.019087,23784,24259,20661,13996,14146,17043,7273,51698,7273,7246,\
         6652,0,21171,0,0,0,0,0,48613,21076,0,0,7588576,4084864",
        "150001,11608422,0.012922,23784,24259,20661,13996,14146,35872,7273,63478,7273,7270,\
         34035,0,48578,0,0,0,0,0,90106,21076,0,0,11338018,9883315",
        "150001,14256040,0.010522,23784,24259,20661,13996,14146,35872,7273,76250,7273,7272,\
         180,0,14725,0,0,0,0,0,122173,21076,0,0,13985636,11719254",
        "150001,13915329,0.010780,23784,24259,20661,13996,14146,35872,7273,74196,7273,7273,\
         36113,0,50659,7108,0,7108,0,2310764,90106,21076,0,0,13644925,12717724",
        "150001,8122064,0.018468,23784,24259,20661,13996,14146,17043,7273,49160,7273,7247,\
         14256,0,28776,1486,0,1486,0,1611206,49168,21076,0,0,7851660,5877909",
    ];

    /// The crash image's digest after the same runs.
    const SPLIT_META_DIGESTS: [u64; 5] = [
        0x1ed1_fcf6_f65b_336f,
        0xf033_f91b_6ed5_414c,
        0xf9eb_ecc0_739d_1c86,
        0xa554_fc2b_f3de_e871,
        0x7726_989d_de7f_025e,
    ];

    /// The split organization under the same pressure. Each bank evicts
    /// dirty lines on every design that dirties its lines on chip: SC
    /// cleans its path within each write-back, and cc-NVM dirties only
    /// counters on chip (its drain computes the tree). Every `RunStats`
    /// field and the crash image are pinned per design.
    #[test]
    fn split_meta_cache_runs_are_pinned_on_every_design() {
        use crate::metacache::MetaCacheOrg;
        use ccnvm_trace::{profiles, TraceGenerator};
        for (d, design) in DesignKind::ALL.into_iter().enumerate() {
            let mut cfg = SimConfig::small(design);
            cfg.meta = ccnvm_mem::CacheConfig::new(1024, 2);
            cfg.meta_org = MetaCacheOrg::Split;
            let mut sim = crate::sim::Simulator::new(cfg).unwrap();
            sim.memory_mut().attach_recorder(Default::default());
            let s = sim
                .run(TraceGenerator::new(profiles::mixed(), 7), 150_000)
                .expect("attack-free run");
            let [counters, nodes] = dirty_evictions_per_bank(sim.memory());
            let dirtied = match design {
                DesignKind::StrictConsistency => [false, false],
                DesignKind::CcNvm => [true, false],
                _ => [true, true],
            };
            assert_eq!(
                [counters > 0, nodes > 0],
                dirtied,
                "{design}: {counters} counter and {nodes} tree-node dirty evictions"
            );
            assert_eq!(s.csv_row(), SPLIT_META_STATS[d], "{design}");
            assert_eq!(
                image_digest(sim.memory()),
                SPLIT_META_DIGESTS[d],
                "{design}"
            );
        }
    }

    #[test]
    fn split_meta_cache_is_functionally_equivalent() {
        use crate::metacache::MetaCacheOrg;
        let mut cfg = SimConfig::small(DesignKind::CcNvm);
        cfg.meta_org = MetaCacheOrg::Split;
        let mut m = SecureMemory::new(cfg).unwrap();
        for i in 0..20u64 {
            m.write_back(LineAddr((i % 5) * 64), i * 100_000).unwrap();
        }
        m.drain(10_000_000, DrainTrigger::External);
        for i in 0..5u64 {
            m.read_data(LineAddr(i * 64), 20_000_000 + i * 50_000)
                .unwrap();
        }
        let report = crate::recovery::recover(&m.crash_image());
        assert!(report.is_clean(), "{report:?}");
    }
}
