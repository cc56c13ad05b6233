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
    /// Installs `line` into the Meta Cache, handling a dirty victim per
    /// the active design. The content is resolved from the NVM layer
    /// *after* room is made, so repairs triggered by the eviction are
    /// never lost. Returns the advanced clock.
    pub(crate) fn install_meta(&mut self, line: LineAddr, mut t: Cycle) -> Cycle {
        while let Some((victim, dirty)) = self.meta_cache.peek_victim(line) {
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
            self.meta_cache.invalidate(victim);
            let victim_content = self
                .chip_meta
                .erase(victim)
                .unwrap_or_else(|| self.meta_default(victim));
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
        let content = self
            .functional_nvm(line)
            .unwrap_or_else(|| self.meta_default(line));
        let result = self.meta_cache.access(line, false);
        debug_assert!(result.evicted.is_none(), "room was made above");
        debug_assert!(result.is_miss(), "install_meta on a resident line");
        self.chip_meta.write(line, content);
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
            if self.meta_cache.contains(parent) {
                let mut pcontent = self.meta_content(parent);
                pcontent[off..off + 16].copy_from_slice(&mac);
                self.chip_meta.write(parent, pcontent);
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
        verify: bool,
    ) -> Result<Cycle, IntegrityError> {
        let mut t = now + self.config.meta_cycles;
        self.prof_engine(Stage::MetaFetch, self.config.meta_cycles);
        if self.meta_cache.contains(line) {
            self.meta_cache.access(line, false);
            self.stats.meta_hits += 1;
            return Ok(t);
        }
        // Collect the missing chain bottom-up until a cached ancestor,
        // in the reusable scratch buffer (bounded by one tree path, so
        // it reaches steady-state capacity after the first deep miss
        // and the hot path stays allocation-free). Taken out of `self`
        // for the borrow and put back below; the integrity-error exit
        // drops it, which only costs the capacity on a terminal path.
        let mut chain = std::mem::take(&mut self.meta_chain_scratch);
        chain.clear();
        chain.push(line);
        let mut cur = line;
        while let Some(parent) = self.parent_of(cur) {
            if self.meta_cache.contains(parent) {
                break;
            }
            chain.push(parent);
            cur = parent;
        }
        self.stats.meta_misses += chain.len() as u64;
        // Install top-down so each verification sees a trusted parent.
        // Eviction repair is cache-neutral (`repair_chain`), so it may
        // update the NVM copy of a not-yet-installed chain member but
        // never installs one; reading the content fresh per iteration
        // picks any such repair up.
        for &l in chain.iter().rev() {
            let content = self
                .functional_nvm(l)
                .unwrap_or_else(|| self.meta_default(l));
            let fetch_start = t;
            t = self.mc.read(l, t);
            self.prof_engine(Stage::MetaFetch, t.saturating_sub(fetch_start));
            if verify {
                t = self.verify_fetched(l, &content, t)?;
            }
            t = self.install_meta(l, t);
        }
        chain.clear();
        self.meta_chain_scratch = chain;
        Ok(t)
    }

    /// Verifies a freshly fetched metadata line against its (cached)
    /// parent slot, or against the persistent roots for the top node.
    pub(crate) fn verify_fetched(
        &mut self,
        line: LineAddr,
        content: &Line,
        mut t: Cycle,
    ) -> Result<Cycle, IntegrityError> {
        let (level, idx) = self.layout.level_of(line);
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
        match self.parent_of(line) {
            Some(parent) => {
                let mac = self.bmt.child_mac(level, idx, content);
                let pcontent = self.meta_content(parent);
                if Bmt::slot(&pcontent, idx) != mac {
                    return Err(IntegrityError::TreeMismatch {
                        child_level: level,
                        child_index: idx,
                    });
                }
            }
            None => {
                let root = self.bmt.engine().node_mac(level, 0, content);
                if !self.tcb.matches_either_root(&root) {
                    return Err(IntegrityError::RootMismatch);
                }
            }
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
