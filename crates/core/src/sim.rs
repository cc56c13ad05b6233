//! The trace-driven core + cache-hierarchy simulator.
//!
//! The paper models an x86-64 out-of-order core at 3 GHz in Gem5 with
//! a 32 KB 2-way L1, a 256 KB 8-way L2 (the LLC), and the secure
//! memory subsystem below it. This module substitutes a simplified
//! timing model that keeps exactly the three paths the evaluation
//! depends on (see DESIGN.md §2):
//!
//! * L1/L2 filter the access stream, producing the LLC miss/write-back
//!   stream that drives the secure engine;
//! * LLC read misses stall the core for the secure read latency minus
//!   a fixed out-of-order hiding window;
//! * LLC dirty evictions stall the core only while the engine's
//!   write-back buffer is full — which is how the serialized
//!   Merkle-tree updates of the consistent designs translate into IPC
//!   loss.
//!
//! Absolute IPC therefore differs from Gem5's; the *normalized* IPC
//! across designs — what Figures 5 and 6 report — follows the same
//! mechanics.

use crate::config::SimConfig;
use crate::error::IntegrityError;
use crate::obs::profile::Stage;
use crate::secmem::SecureMemory;
use crate::stats::RunStats;
use ccnvm_mem::cache::SetAssocCache;
use ccnvm_mem::{Cycle, LineAddr};
use ccnvm_trace::{OpKind, TraceOp};

/// Trace-driven simulator for one core over one secure-NVM design.
///
/// # Example
///
/// ```
/// use ccnvm::{config::{DesignKind, SimConfig}, sim::Simulator};
/// use ccnvm_trace::{profiles, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = Simulator::new(SimConfig::small(DesignKind::CcNvm))?;
/// let trace = TraceGenerator::new(profiles::by_name("hmmer").unwrap(), 1);
/// let stats = sim.run(trace, 100_000)?;
/// assert!(stats.ipc() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    l1: SetAssocCache<()>,
    l2: SetAssocCache<()>,
    mem: SecureMemory,
    cycles: Cycle,
    instructions: u64,
    /// Sub-cycle accumulator for non-memory instructions.
    issue_carry: u64,
    /// Reusable buffer for [`Self::flush_caches`] dirty-line sweeps.
    flush_scratch: Vec<LineAddr>,
}

impl Simulator {
    /// Builds a simulator for `config`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures from
    /// [`SecureMemory::new`].
    pub fn new(config: SimConfig) -> Result<Self, crate::error::ConfigError> {
        let mem = SecureMemory::new(config.clone())?;
        Ok(Self::over(config, mem))
    }

    /// Builds a simulator whose secure memory persists through the
    /// supplied durable backend (e.g. a file-backed store) instead of
    /// the default in-memory one.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures from
    /// [`SecureMemory::with_backend`].
    pub fn with_backend(
        config: SimConfig,
        durable: Box<dyn ccnvm_mem::DurableBackend>,
    ) -> Result<Self, crate::error::ConfigError> {
        let mem = SecureMemory::with_backend(config.clone(), durable)?;
        Ok(Self::over(config, mem))
    }

    /// The core and its caches over `mem`, which validated `config`
    /// (so the cache geometries hold whole sets).
    fn over(config: SimConfig, mem: SecureMemory) -> Self {
        Self {
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            mem,
            cycles: 0,
            instructions: 0,
            issue_carry: 0,
            flush_scratch: Vec::new(),
            config,
        }
    }

    /// The secure memory subsystem (crash images, ground truth, …).
    pub fn memory(&self) -> &SecureMemory {
        &self.mem
    }

    /// Mutable access to the secure memory subsystem (attack
    /// injection, forced drains).
    pub fn memory_mut(&mut self) -> &mut SecureMemory {
        &mut self.mem
    }

    /// Cycles elapsed so far.
    pub fn cycles(&self) -> Cycle {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    fn charge_instructions(&mut self, instrs: u64) {
        self.instructions += instrs;
        let total = instrs + self.issue_carry;
        let issue = total / self.config.issue_width;
        self.cycles += issue;
        self.mem.obs.charge(Stage::CoreIssue, issue);
        self.issue_carry = total % self.config.issue_width;
    }

    /// Executes one trace operation.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] if the secure read or write-back path
    /// detects tampering.
    pub fn step(&mut self, op: &TraceOp) -> Result<(), IntegrityError> {
        self.charge_instructions(op.instrs());
        // Physical aliasing: working sets larger than the protected
        // capacity wrap around the data region (only relevant for
        // deliberately tiny test configurations — the paper's 16 GB
        // dwarfs every profile's working set, so the division is
        // skipped for lines already in range).
        let data_lines = self.mem.layout().data_lines();
        let mut line = op.addr.line();
        if line.0 >= data_lines {
            line = LineAddr(line.0 % data_lines);
        }
        let is_store = op.kind == OpKind::Write;

        let l1 = self.l1.access(line, is_store);
        if l1.is_hit() {
            self.cycles += self.config.l1_hit_cycles;
            self.mem
                .obs
                .charge(Stage::CacheHit, self.config.l1_hit_cycles);
        } else {
            self.l2_fill(line)?;
            if let Some(victim) = l1.evicted {
                if victim.dirty {
                    // L1 victim lands in L2 (write-allocate, no fetch —
                    // a full-line install).
                    let r = self.l2.access(victim.addr, true);
                    if let Some(l2_victim) = r.evicted {
                        if l2_victim.dirty {
                            self.write_back(l2_victim.addr)?;
                        }
                    }
                }
            }
        }
        self.mem.maybe_sample_metrics(self.cycles);
        Ok(())
    }

    /// Handles an L1 miss: L2 access, and on an L2 miss the secure
    /// memory read (plus any displaced dirty write-back).
    fn l2_fill(&mut self, line: LineAddr) -> Result<(), IntegrityError> {
        let l2 = self.l2.access(line, false);
        if l2.is_hit() {
            self.cycles += self.config.l2_hit_cycles;
            self.mem
                .obs
                .charge(Stage::CacheHit, self.config.l2_hit_cycles);
            return Ok(());
        }
        if let Some(victim) = l2.evicted {
            if victim.dirty {
                self.write_back(victim.addr)?;
            }
        }
        let now = self.cycles;
        let done = self.mem.read_data(line, now)?;
        let penalty = done.saturating_sub(now + self.config.hide_cycles);
        self.cycles += penalty;
        self.mem.stats.read_stall_cycles += penalty;
        self.mem.obs.charge(Stage::ReadStall, penalty);
        Ok(())
    }

    /// Processes an LLC dirty eviction through the secure engine; the
    /// core stalls only while the engine's write-back buffer is full.
    fn write_back(&mut self, line: LineAddr) -> Result<(), IntegrityError> {
        let now = self.cycles;
        let release = self.mem.write_back(line, now)?;
        let stall = release.saturating_sub(now);
        self.cycles += stall;
        self.mem.stats.wb_stall_cycles += stall;
        self.mem.obs.charge(Stage::WbStall, stall);
        Ok(())
    }

    /// Runs `trace` until at least `max_instructions` retire (or the
    /// trace ends), returning the accumulated statistics.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] the secure paths raise.
    pub fn run<T>(&mut self, trace: T, max_instructions: u64) -> Result<RunStats, IntegrityError>
    where
        T: IntoIterator<Item = TraceOp>,
    {
        let target = self.instructions + max_instructions;
        for op in trace {
            if self.instructions >= target {
                break;
            }
            self.step(&op)?;
            if self.mem.audit_failed() {
                // A strict-mode auditor latched a violation: stop at
                // the step boundary so the caller can inspect and the
                // CLI can exit nonzero.
                break;
            }
        }
        Ok(self.stats())
    }

    /// Statistics so far, merging core- and memory-side counters.
    pub fn stats(&self) -> RunStats {
        let mut s = self.mem.stats();
        s.instructions = self.instructions;
        s.cycles = self.cycles;
        (s.l1_hits, s.l1_misses) = self.l1.hit_miss();
        (s.l2_hits, s.l2_misses) = self.l2.hit_miss();
        s
    }

    /// Flushes every dirty line out of L1 and L2 through the secure
    /// engine (an orderly shutdown), then drains the metadata epoch.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] raised by a write-back.
    pub fn flush_caches(&mut self) -> Result<(), IntegrityError> {
        // Reuse one owned buffer for both sweeps; it goes back into
        // `self` at the end so repeated flushes allocate nothing. (An
        // integrity error drops it — acceptable, those are terminal.)
        let mut dirty = std::mem::take(&mut self.flush_scratch);
        dirty.clear();
        dirty.extend(self.l1.dirty_lines());
        for &line in &dirty {
            self.l1.mark_clean(line);
            // Installing the L1 victim can displace an L2 line; a dirty
            // displaced line must reach the secure engine right here —
            // it is no longer resident anywhere, so the L2 sweep below
            // would never see it and an "orderly shutdown" would lose
            // its data.
            let r = self.l2.access(line, true);
            if let Some(victim) = r.evicted {
                if victim.dirty {
                    self.write_back(victim.addr)?;
                }
            }
        }
        dirty.clear();
        dirty.extend(self.l2.dirty_lines());
        dirty.sort_unstable();
        for &line in &dirty {
            self.l2.mark_clean(line);
            self.write_back(line)?;
        }
        dirty.clear();
        self.flush_scratch = dirty;
        let now = self.cycles;
        let end = self.mem.drain(now, crate::secmem::DrainTrigger::External);
        self.mem.maybe_sample_metrics(end);
        Ok(())
    }
}

/// Convenience harness: run `profile` on a fresh simulator for
/// `instructions` instructions.
///
/// # Errors
///
/// Returns the configuration error or the first integrity violation as
/// a string (none occur without attack injection).
pub fn run_profile(
    config: SimConfig,
    profile: &ccnvm_trace::WorkloadProfile,
    instructions: u64,
    seed: u64,
) -> Result<RunStats, String> {
    let mut sim = Simulator::new(config).map_err(|e| e.to_string())?;
    let trace = ccnvm_trace::TraceGenerator::new(profile.clone(), seed);
    sim.run(trace, instructions).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignKind;
    use ccnvm_trace::{profiles, TraceGenerator};

    fn run(design: DesignKind, bench: &str, instrs: u64) -> RunStats {
        let mut sim = Simulator::new(SimConfig::small(design)).unwrap();
        let trace = TraceGenerator::new(profiles::by_name(bench).unwrap(), 7);
        sim.run(trace, instrs).expect("attack-free run")
    }

    #[test]
    fn retires_requested_instructions() {
        let s = run(DesignKind::CcNvm, "hmmer", 50_000);
        assert!(s.instructions >= 50_000);
        assert!(s.cycles > 0);
        // The `small` config is deliberately starved (tiny caches, a
        // wrapped working set); only sanity-check that time advances
        // plausibly rather than asserting a realistic IPC.
        assert!(s.ipc() > 0.001, "ipc {}", s.ipc());
    }

    #[test]
    fn all_designs_run_all_profiles_functionally_clean() {
        for design in DesignKind::ALL {
            for bench in ["hmmer", "lbm", "milc"] {
                let s = run(design, bench, 20_000);
                assert!(s.instructions >= 20_000, "{design}/{bench}");
            }
        }
    }

    #[test]
    fn write_heavy_profile_generates_write_backs() {
        let s = run(DesignKind::CcNvm, "lbm", 100_000);
        assert!(s.write_backs > 0);
        assert!(s.data_writes > 0);
        assert!(s.drains > 0, "epochs must cycle under write pressure");
    }

    #[test]
    fn sc_slower_and_writes_more_than_ccnvm() {
        let sc = run(DesignKind::StrictConsistency, "lbm", 200_000);
        let cc = run(DesignKind::CcNvm, "lbm", 200_000);
        assert!(
            sc.ipc() < cc.ipc(),
            "SC {} !< cc-NVM {}",
            sc.ipc(),
            cc.ipc()
        );
        assert!(
            sc.total_writes() > cc.total_writes(),
            "SC {} !> cc-NVM {}",
            sc.total_writes(),
            cc.total_writes()
        );
    }

    #[test]
    fn baseline_fastest_and_leanest() {
        let base = run(DesignKind::WithoutCc, "lbm", 200_000);
        for design in [
            DesignKind::StrictConsistency,
            DesignKind::OsirisPlus,
            DesignKind::CcNvmNoDs,
            DesignKind::CcNvm,
        ] {
            let s = run(design, "lbm", 200_000);
            assert!(
                s.ipc() <= base.ipc() * 1.02,
                "{design} ipc {} vs baseline {}",
                s.ipc(),
                base.ipc()
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(DesignKind::CcNvm, "gcc", 50_000);
        let b = run(DesignKind::CcNvm, "gcc", 50_000);
        assert_eq!(a, b);
    }

    #[test]
    fn flush_caches_empties_dirty_state() {
        let mut sim = Simulator::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        let trace = TraceGenerator::new(profiles::by_name("lbm").unwrap(), 9);
        sim.run(trace, 50_000).unwrap();
        sim.flush_caches().unwrap();
        // After the flush + drain, the durable tree matches both roots.
        let img = sim.memory().crash_image();
        let root = sim.memory().bmt().root(&img.nvm);
        assert_eq!(root, img.tcb.root_new);
        assert_eq!(root, img.tcb.root_old);
    }

    #[test]
    fn flush_caches_writes_back_displaced_l2_victims() {
        use ccnvm_mem::{Addr, CacheConfig};

        // 2-way 1-set L1 over a 1-way 1-set L2: flushing the two dirty
        // L1 lines into L2 forces the second install to displace the
        // first — which is dirty by then and resident nowhere else.
        let mut cfg = SimConfig::small(DesignKind::CcNvm);
        cfg.l1 = CacheConfig::new(128, 2);
        cfg.l2 = CacheConfig::new(64, 1);
        let mut sim = Simulator::new(cfg).unwrap();
        for addr in [0u64, 64] {
            sim.step(&TraceOp {
                gap_instrs: 0,
                kind: OpKind::Write,
                addr: Addr(addr),
            })
            .unwrap();
        }
        assert_eq!(sim.stats().write_backs, 0, "both stores still cached");

        sim.flush_caches().unwrap();
        assert_eq!(
            sim.stats().write_backs,
            2,
            "a dirty line displaced from L2 during the flush must not \
             be dropped"
        );
        let img = sim.memory().crash_image();
        for line in [LineAddr(0), LineAddr(1)] {
            assert!(
                img.nvm.get(line).is_some(),
                "{line} must be durable after an orderly shutdown"
            );
        }
    }

    #[test]
    fn caches_without_sets_are_refused_not_run() {
        use crate::error::ConfigError;
        use ccnvm_mem::CacheConfig;

        let mut cfg = SimConfig::small(DesignKind::CcNvm);
        cfg.l2 = CacheConfig {
            capacity_bytes: 64,
            ways: 8,
        };
        assert!(matches!(
            Simulator::new(cfg),
            Err(ConfigError::CacheWithoutSets { cache: "L2", .. })
        ));
        let mut cfg = SimConfig::small(DesignKind::CcNvm);
        cfg.l1.ways = 0;
        assert!(matches!(
            Simulator::with_backend(cfg, Box::new(ccnvm_mem::LineStore::new())),
            Err(ConfigError::CacheWithoutSets { cache: "L1", .. })
        ));
    }

    #[test]
    fn run_profile_helper() {
        let s = run_profile(
            SimConfig::small(DesignKind::CcNvm),
            &profiles::mixed(),
            30_000,
            3,
        )
        .expect("clean run");
        assert!(s.instructions >= 30_000);
    }
}
