//! Simulation configuration: the five evaluated designs and the
//! paper's hardware parameters (§5).

use crate::metacache::MetaCacheOrg;
use ccnvm_crypto::CryptoSelect;
use ccnvm_mem::{CacheConfig, MemControllerConfig};
use std::fmt;
use std::str::FromStr;

/// The five secure-NVM designs compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Secure NVM without crash consistency — the normalization
    /// baseline. Metadata reaches NVM only on dirty meta-cache
    /// evictions; after a crash, counters may be arbitrarily stale and
    /// the memory is unrecoverable.
    WithoutCc,
    /// Strict consistency: every write-back atomically persists the
    /// data block, its counter and every tree node on the path, with
    /// the root updated in the TCB.
    StrictConsistency,
    /// Osiris Plus: counters are persisted only every N-th update
    /// (stop-loss) and recovered by online checking otherwise; tree
    /// nodes are never persisted; the root is updated atomically with
    /// every write-back.
    OsirisPlus,
    /// cc-NVM without deferred spreading: epoch-based atomic draining
    /// of dirty metadata, but the tree is still recomputed to the root
    /// on every write-back.
    CcNvmNoDs,
    /// Full cc-NVM: epoch-based draining plus deferred spreading — per
    /// write-back work stops at the cached tree frontier, the root is
    /// refreshed once per drain, and the persistent `N_wb` register
    /// closes the resulting replay window.
    CcNvm,
}

impl DesignKind {
    /// All five designs, in the paper's presentation order.
    pub const ALL: [DesignKind; 5] = [
        DesignKind::WithoutCc,
        DesignKind::StrictConsistency,
        DesignKind::OsirisPlus,
        DesignKind::CcNvmNoDs,
        DesignKind::CcNvm,
    ];

    /// The paper's label for this design.
    pub fn label(&self) -> &'static str {
        match self {
            DesignKind::WithoutCc => "w/o CC",
            DesignKind::StrictConsistency => "SC",
            DesignKind::OsirisPlus => "Osiris Plus",
            DesignKind::CcNvmNoDs => "cc-NVM w/o DS",
            DesignKind::CcNvm => "cc-NVM",
        }
    }

    /// A stable machine-readable identifier, round-trippable through
    /// [`FromStr`] — what structured exports (`ccnvm-wear/1`) embed.
    pub fn slug(&self) -> &'static str {
        match self {
            DesignKind::WithoutCc => "wo-cc",
            DesignKind::StrictConsistency => "sc",
            DesignKind::OsirisPlus => "osiris-plus",
            DesignKind::CcNvmNoDs => "ccnvm-no-ds",
            DesignKind::CcNvm => "ccnvm",
        }
    }

    /// Whether this design guarantees a recoverable state after a
    /// crash.
    pub fn is_crash_consistent(&self) -> bool {
        !matches!(self, DesignKind::WithoutCc)
    }

    /// Whether this design uses the epoch drainer (dirty address queue
    /// + atomic draining).
    pub fn has_drainer(&self) -> bool {
        matches!(self, DesignKind::CcNvmNoDs | DesignKind::CcNvm)
    }

    /// Whether the TCB root must be recomputed on every write-back. The
    /// designs that do not (cc-NVM, w/o CC) stop per-write-back tree
    /// updates at the cached frontier instead: deferred spreading.
    pub fn updates_root_every_wb(&self) -> bool {
        matches!(
            self,
            DesignKind::StrictConsistency | DesignKind::OsirisPlus | DesignKind::CcNvmNoDs
        )
    }
}

impl fmt::Display for DesignKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error parsing a [`DesignKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDesignError(String);

impl fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown design {:?} (expected one of: wo-cc, sc, osiris-plus, ccnvm-no-ds, ccnvm)",
            self.0
        )
    }
}

impl std::error::Error for ParseDesignError {}

impl FromStr for DesignKind {
    type Err = ParseDesignError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "wo-cc" | "wocc" | "w/o cc" | "baseline" => Ok(DesignKind::WithoutCc),
            "sc" | "strict" => Ok(DesignKind::StrictConsistency),
            "osiris-plus" | "osiris" => Ok(DesignKind::OsirisPlus),
            "ccnvm-no-ds" | "cc-nvm w/o ds" => Ok(DesignKind::CcNvmNoDs),
            "ccnvm" | "cc-nvm" => Ok(DesignKind::CcNvm),
            other => Err(ParseDesignError(other.to_owned())),
        }
    }
}

/// Full simulator configuration. Defaults follow §5 of the paper.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which of the five designs to simulate.
    pub design: DesignKind,
    /// Protected NVM capacity in bytes (paper: 16 GB).
    pub capacity_bytes: u64,
    /// L1 data cache geometry (paper: 32 KB, 2-way).
    pub l1: CacheConfig,
    /// L2 (last-level) cache geometry (paper: 256 KB, 8-way).
    pub l2: CacheConfig,
    /// Meta cache geometry for counters + tree nodes (paper: 128 KB,
    /// 8-way, at the L2 level).
    pub meta: CacheConfig,
    /// Meta cache organization: one shared structure (Figure 2) or a
    /// static counter/tree split (the two-cache reading of §5).
    pub meta_org: MetaCacheOrg,
    /// Cycles charged for an L1 hit.
    pub l1_hit_cycles: u64,
    /// Cycles charged for an L2 hit (paper latency: 20).
    pub l2_hit_cycles: u64,
    /// Meta-cache access latency (paper: 32).
    pub meta_cycles: u64,
    /// Memory controller and NVM device parameters.
    pub mem: MemControllerConfig,
    /// Update-times drain/stop-loss limit N (paper default: 16).
    pub update_limit: u32,
    /// Dirty address queue entries M (paper default: 64; must not
    /// exceed the WPQ size).
    pub dirty_queue_entries: usize,
    /// Write-back buffer entries in front of the encryption engine.
    pub wb_buffer_entries: usize,
    /// Cycles of a miss the out-of-order core can hide.
    pub hide_cycles: u64,
    /// Instructions issued per cycle when nothing stalls.
    pub issue_width: u64,
    /// Seed for the TCB keys.
    pub key_seed: u64,
    /// Verify decrypted plaintext against the expected pattern on every
    /// miss (self-checking mode; small extra host cost).
    pub check_plaintext: bool,
    /// Compute HMACs through the pre-optimization rekey-per-MAC path
    /// instead of the keyed midstate engine. Output is bit-identical;
    /// this exists so the perf bench and the golden-stats tests can
    /// compare against the original hot-path cost.
    pub legacy_hmac: bool,
    /// Crypto implementation tier: `Auto` picks the fastest tier this
    /// host supports; `Portable`/`Simd` force one. Every tier is
    /// bit-identical — stats, traces and profiles never change — so
    /// this knob only exists for benchmarking and reproducibility.
    pub crypto: CryptoSelect,
    /// This instance's shard index when it runs as one epoch domain of
    /// a [`crate::shard::ShardRouter`] (0 for the single-owner case).
    pub shard_index: u32,
    /// Total shards in the router this instance belongs to. `1` is the
    /// degenerate single-owner configuration and must behave exactly
    /// like the pre-sharding code paths.
    pub shard_count: u32,
}

impl SimConfig {
    /// The paper's configuration for `design`.
    pub fn paper(design: DesignKind) -> Self {
        Self {
            design,
            capacity_bytes: 16 << 30,
            l1: CacheConfig::new(32 * 1024, 2),
            l2: CacheConfig::new(256 * 1024, 8),
            meta: CacheConfig::new(128 * 1024, 8),
            meta_org: MetaCacheOrg::Shared,
            l1_hit_cycles: 1,
            l2_hit_cycles: 20,
            meta_cycles: 32,
            mem: MemControllerConfig::paper(),
            update_limit: 16,
            dirty_queue_entries: 64,
            wb_buffer_entries: 16,
            hide_cycles: 60,
            issue_width: 4,
            key_seed: 0xcc_17,
            check_plaintext: true,
            legacy_hmac: false,
            crypto: CryptoSelect::Auto,
            shard_index: 0,
            shard_count: 1,
        }
    }

    /// A reduced configuration for unit tests: small NVM, tiny caches,
    /// everything else per paper.
    pub fn small(design: DesignKind) -> Self {
        Self {
            capacity_bytes: 1 << 20,
            l1: CacheConfig::new(4 * 1024, 2),
            l2: CacheConfig::new(16 * 1024, 4),
            meta: CacheConfig::new(4 * 1024, 4),
            ..Self::paper(design)
        }
    }

    /// Checks cross-parameter invariants.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint when a requirement from the
    /// paper is broken (e.g. the dirty address queue exceeding the
    /// WPQ, §5.3).
    pub fn validate(&self) -> Result<(), crate::error::ConfigError> {
        use crate::error::ConfigError;
        if self.dirty_queue_entries == 0 {
            return Err(ConfigError::DirtyQueueEmpty);
        }
        if self.dirty_queue_entries > self.mem.wpq_entries {
            return Err(ConfigError::DirtyQueueExceedsWpq {
                entries: self.dirty_queue_entries,
                wpq: self.mem.wpq_entries,
            });
        }
        if self.update_limit == 0 {
            return Err(ConfigError::UpdateLimitZero);
        }
        if self.issue_width == 0 {
            return Err(ConfigError::IssueWidthZero);
        }
        if self.shard_count == 0 || self.shard_index >= self.shard_count {
            return Err(ConfigError::ShardTopologyInvalid {
                index: self.shard_index,
                count: self.shard_count,
            });
        }
        if self.crypto.resolve().is_err() {
            return Err(ConfigError::CryptoTierUnavailable);
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper(DesignKind::CcNvm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper(DesignKind::CcNvm);
        assert_eq!(c.capacity_bytes, 16 << 30);
        assert_eq!(c.update_limit, 16);
        assert_eq!(c.dirty_queue_entries, 64);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn design_flags() {
        use DesignKind::*;
        assert!(!WithoutCc.is_crash_consistent());
        assert!(CcNvm.has_drainer() && CcNvmNoDs.has_drainer());
        assert!(!OsirisPlus.has_drainer());
        // Deferred spreading is exactly the complement.
        for d in DesignKind::ALL {
            assert_eq!(d.updates_root_every_wb(), !matches!(d, CcNvm | WithoutCc));
        }
    }

    #[test]
    fn parse_design() {
        assert_eq!("ccnvm".parse::<DesignKind>().unwrap(), DesignKind::CcNvm);
        assert_eq!(
            "SC".parse::<DesignKind>().unwrap(),
            DesignKind::StrictConsistency
        );
        assert!("bogus".parse::<DesignKind>().is_err());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(DesignKind::CcNvm.to_string(), "cc-NVM");
        assert_eq!(DesignKind::WithoutCc.to_string(), "w/o CC");
    }

    #[test]
    fn validate_rejects_oversized_queue() {
        let mut c = SimConfig::paper(DesignKind::CcNvm);
        c.dirty_queue_entries = 128;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_shard_topology() {
        let mut c = SimConfig::paper(DesignKind::CcNvm);
        assert_eq!((c.shard_index, c.shard_count), (0, 1));
        c.shard_count = 0;
        assert!(c.validate().is_err());
        c.shard_count = 4;
        c.shard_index = 4;
        assert!(c.validate().is_err());
        c.shard_index = 3;
        assert!(c.validate().is_ok());
    }
}
