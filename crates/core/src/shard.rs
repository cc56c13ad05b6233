//! Sharded multi-tenant secure-memory service behind a request
//! router.
//!
//! A [`ShardRouter`] partitions the protected physical address space
//! across N independent [`Simulator`] shards and dispatches each
//! trace operation to the shard that owns its page. Every shard is a
//! complete single-owner stack — its own Meta Cache, dirty address
//! queue, WPQ, epoch clock and `ROOT_old`/`ROOT_new` commit pair — so
//! shards never share mutable state and can be drained or recovered
//! concurrently (the bench harness drains them on the PR 1 parallel
//! harness).
//!
//! Routing is page-granular: a data line, its counter line and its
//! whole Bonsai-Merkle-Tree path are functions of the page, so
//! assigning pages round-robin keeps every metadata access
//! shard-local and no cross-shard protocol is needed. Each shard
//! keeps the full [`SecureLayout`](crate::layout::SecureLayout) —
//! the line store is sparse, so an idle region costs nothing, and
//! addresses need no translation on the way in. The shard's
//! [`ShardedBackend`](ccnvm_mem::ShardedBackend) enforces at the
//! durability seam that it never persists a foreign page.
//!
//! The degenerate `shard_count == 1` router routes every operation to
//! shard 0 through exactly the pre-sharding step sequence, so its
//! stats, traces and profiles are byte-identical to a bare
//! [`Simulator`] run.
//!
//! # Example
//!
//! ```
//! use ccnvm::config::{DesignKind, SimConfig};
//! use ccnvm::shard::ShardRouter;
//! use ccnvm_trace::{profiles, TraceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut router = ShardRouter::new(SimConfig::small(DesignKind::CcNvm), 4)?;
//! let trace = TraceGenerator::new(profiles::by_name("lbm").unwrap(), 1);
//! let stats = router.run(trace, 40_000)?;
//! assert!(stats.instructions >= 40_000);
//! assert!(router.shard_gauges().iter().all(|g| g.dispatched > 0));
//! # Ok(())
//! # }
//! ```

use crate::config::SimConfig;
use crate::crash::CrashImage;
use crate::error::{ConfigError, IntegrityError};
use crate::obs::metrics::ShardGauge;
use crate::obs::profile::SpanProfiler;
use crate::sim::Simulator;
use crate::stats::RunStats;
use ccnvm_mem::addr::LINES_PER_PAGE;
use ccnvm_trace::TraceOp;

/// Request router in front of N independent secure-memory shards.
///
/// See the [module docs](self) for the partitioning scheme and the
/// single-shard byte-identity guarantee.
#[derive(Debug)]
pub struct ShardRouter {
    shards: Vec<Simulator>,
    /// Data-region size in lines (identical across shards; the routing
    /// modulus before page interleaving).
    data_lines: u64,
    /// Operations dispatched to each shard.
    dispatched: Vec<u64>,
}

impl ShardRouter {
    /// Builds `shard_count` shards of `config`, each stamped with its
    /// own `shard_index` and backed by a page-ownership-checking
    /// durable store.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures; a zero
    /// `shard_count` is rejected as
    /// [`ConfigError::ShardTopologyInvalid`].
    pub fn new(config: SimConfig, shard_count: u32) -> Result<Self, ConfigError> {
        if shard_count == 0 {
            return Err(ConfigError::ShardTopologyInvalid { index: 0, count: 0 });
        }
        let mut shards = Vec::with_capacity(shard_count as usize);
        for index in 0..shard_count {
            let mut shard_config = config.clone();
            shard_config.shard_index = index;
            shard_config.shard_count = shard_count;
            shards.push(Simulator::new(shard_config)?);
        }
        let data_lines = shards[0].memory().layout().data_lines();
        Ok(Self {
            shards,
            data_lines,
            dispatched: vec![0; shard_count as usize],
        })
    }

    /// Number of shards behind the router.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard that owns `op`'s page. Pages of the (alias-wrapped)
    /// data region are interleaved round-robin, mirroring
    /// [`ShardedBackend::owns`](ccnvm_mem::ShardedBackend::owns).
    pub fn shard_of(&self, op: &TraceOp) -> usize {
        (((op.addr.line().0 % self.data_lines) / LINES_PER_PAGE) % self.shard_count() as u64)
            as usize
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Simulator] {
        &self.shards
    }

    /// Mutable access to all shards (parallel draining, per-shard
    /// observability attachment).
    pub fn shards_mut(&mut self) -> &mut [Simulator] {
        &mut self.shards
    }

    /// Shard `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn shard(&self, index: usize) -> &Simulator {
        &self.shards[index]
    }

    /// Mutable shard `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn shard_mut(&mut self, index: usize) -> &mut Simulator {
        &mut self.shards[index]
    }

    /// Operations dispatched to each shard so far.
    pub fn dispatched(&self) -> &[u64] {
        &self.dispatched
    }

    /// Instructions retired across all shards.
    pub fn total_instructions(&self) -> u64 {
        self.shards.iter().map(Simulator::instructions).sum()
    }

    /// Routes one trace operation to its owning shard.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] if that shard's secure paths detect
    /// tampering.
    pub fn step(&mut self, op: &TraceOp) -> Result<(), IntegrityError> {
        let s = self.shard_of(op);
        self.dispatched[s] += 1;
        self.shards[s].step(op)
    }

    /// Routes `trace` until at least `max_instructions` retire across
    /// all shards (or the trace ends), returning the merged
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] any shard raises.
    pub fn run<T>(&mut self, trace: T, max_instructions: u64) -> Result<RunStats, IntegrityError>
    where
        T: IntoIterator<Item = TraceOp>,
    {
        let target = self.total_instructions() + max_instructions;
        let mut retired = self.total_instructions();
        for op in trace {
            if retired >= target {
                break;
            }
            let s = self.shard_of(&op);
            self.dispatched[s] += 1;
            let before = self.shards[s].instructions();
            self.shards[s].step(&op)?;
            retired += self.shards[s].instructions() - before;
            if self.shards[s].memory().audit_failed() {
                // Mirror `Simulator::run`: a strict auditor latched a
                // violation — stop at the step boundary so callers can
                // inspect and the CLI can exit nonzero.
                break;
            }
        }
        Ok(self.stats())
    }

    /// Merged statistics: event counters summed across shards, wall
    /// time taken from the slowest epoch clock (see
    /// [`RunStats::accumulate`]).
    pub fn stats(&self) -> RunStats {
        let mut total = RunStats::default();
        for shard in &self.shards {
            total.accumulate(&shard.stats());
        }
        total
    }

    /// Whether any shard's strict auditor latched a violation.
    pub fn audit_failed(&self) -> bool {
        self.shards.iter().any(|s| s.memory().audit_failed())
    }

    /// Flushes every shard's caches and drains its epoch (an orderly
    /// shutdown of the whole service).
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] raised by a write-back.
    pub fn flush_all(&mut self) -> Result<(), IntegrityError> {
        for shard in &mut self.shards {
            shard.flush_caches()?;
        }
        Ok(())
    }

    /// Per-shard wear reports, in shard order. Shards are independent
    /// devices with their own line stores, so per-line wear is never
    /// merged across them — a service-wide view that summed two
    /// shards' BMT roots by address would double-count distinct
    /// physical lines. Shards without a ledger are skipped.
    pub fn wear_reports(
        &self,
        bench: &str,
        instructions: u64,
    ) -> Vec<crate::obs::wear::WearReport> {
        self.shards
            .iter()
            .filter_map(|s| s.memory().wear_report(bench, instructions))
            .collect()
    }

    /// The service-wide stage profile: every attached shard profiler
    /// merged (stage-wise sums, see [`SpanProfiler::merge`]), or
    /// `None` if no shard has a profiler attached.
    pub fn merged_profile(&self) -> Option<SpanProfiler> {
        let mut merged: Option<SpanProfiler> = None;
        for shard in &self.shards {
            if let Some(p) = shard.memory().profiler() {
                match &mut merged {
                    Some(m) => m.merge(p),
                    None => merged = Some(p.clone()),
                }
            }
        }
        merged
    }

    /// Point-in-time pressure gauges for every shard — the
    /// load-balance view of the routed service.
    pub fn shard_gauges(&self) -> Vec<ShardGauge> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let mem = shard.memory();
                let s = shard.stats();
                ShardGauge {
                    shard: i as u32,
                    dispatched: self.dispatched[i],
                    instructions: shard.instructions(),
                    cycles: shard.cycles(),
                    write_backs: s.write_backs,
                    epochs: s.drains,
                    dirty_queue_depth: mem.dirty_queue_len() as u64,
                    wpq_occupancy: mem.mc.wpq_occupancy(shard.cycles()) as u64,
                }
            })
            .collect()
    }

    /// Captures every shard's durable state as an independent crash
    /// image, in shard order. Power fails service-wide, so all images
    /// share one instant: whatever each shard's WPQ had accepted is
    /// durable (ADR), anything staged-but-uncommitted is lost.
    pub fn crash_images(&self) -> Vec<CrashImage> {
        self.shards
            .iter()
            .map(|s| s.memory().crash_image())
            .collect()
    }

    /// Forces shard `index` to stage an epoch drain *without*
    /// committing it — the service then "loses power" with that shard
    /// mid-drain while the others are quiescent. The staged lines are
    /// lost from the crash image exactly as a real mid-drain power
    /// failure would lose them; recovery must fall back to that
    /// shard's `ROOT_old`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn inject_mid_drain_crash(&mut self, index: usize) {
        let now = self.shards[index].cycles();
        let mem = self.shards[index].memory_mut();
        // The injected crash dies between the stage and its `end`
        // signal — exactly the state an open `drain-stage` bracket
        // records, so the per-shard forensics can attribute the
        // staged-lines loss to this shard.
        mem.flight_boundary("begin", "drain-stage");
        mem.stage_drain(now);
    }
}

/// A one-shard router over a simulator the caller built — for example
/// one persisting through a file-backed store, which
/// [`ShardRouter::new`] cannot supply. The simulator must be
/// single-owner (shard 0 of 1, the default topology).
impl From<Simulator> for ShardRouter {
    fn from(shard: Simulator) -> Self {
        debug_assert_eq!(shard.memory().config().shard_count, 1);
        let data_lines = shard.memory().layout().data_lines();
        Self {
            shards: vec![shard],
            data_lines,
            dispatched: vec![0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignKind;
    use crate::recovery::recover;
    use ccnvm_trace::{profiles, OpKind, TraceGenerator};

    fn router(shards: u32) -> ShardRouter {
        ShardRouter::new(SimConfig::small(DesignKind::CcNvm), shards).unwrap()
    }

    #[test]
    fn rejects_zero_shards() {
        let err = ShardRouter::new(SimConfig::small(DesignKind::CcNvm), 0).unwrap_err();
        assert!(matches!(err, ConfigError::ShardTopologyInvalid { .. }));
    }

    #[test]
    fn every_address_maps_to_exactly_one_shard() {
        let r = router(4);
        for line in 0..4 * LINES_PER_PAGE * 3 {
            let op = TraceOp {
                gap_instrs: 0,
                kind: OpKind::Read,
                addr: ccnvm_mem::Addr(line * ccnvm_mem::LINE_SIZE),
            };
            let s = r.shard_of(&op);
            assert!(s < 4);
            // Same page → same shard, including through physical
            // aliasing of the data region.
            let aliased = TraceOp {
                addr: ccnvm_mem::Addr(op.addr.0 + r.data_lines * ccnvm_mem::LINE_SIZE),
                ..op
            };
            assert_eq!(r.shard_of(&aliased), s, "aliasing must not re-route");
        }
    }

    #[test]
    fn single_shard_router_matches_bare_simulator() {
        let mut r = router(1);
        let mut sim = Simulator::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        let mk = || TraceGenerator::new(profiles::by_name("lbm").unwrap(), 11);
        let routed = r.run(mk(), 50_000).unwrap();
        let direct = sim.run(mk(), 50_000).unwrap();
        assert_eq!(routed, direct);
        assert_eq!(r.dispatched()[0], r.dispatched().iter().sum::<u64>());
        let mut wrapped =
            ShardRouter::from(Simulator::new(SimConfig::small(DesignKind::CcNvm)).unwrap());
        assert_eq!(wrapped.run(mk(), 50_000).unwrap(), direct);
    }

    #[test]
    fn multi_shard_run_spreads_load_and_sums_instructions() {
        let mut r = router(4);
        let stats = r
            .run(
                TraceGenerator::new(profiles::by_name("lbm").unwrap(), 5),
                60_000,
            )
            .unwrap();
        assert!(stats.instructions >= 60_000);
        assert_eq!(stats.instructions, r.total_instructions());
        let gauges = r.shard_gauges();
        assert_eq!(gauges.len(), 4);
        for g in &gauges {
            assert!(g.dispatched > 0, "shard {} starved", g.shard);
        }
        // Wall time is the slowest shard, not the sum.
        let slowest = r.shards().iter().map(Simulator::cycles).max().unwrap();
        assert_eq!(stats.cycles, slowest);
    }

    #[test]
    fn merged_profile_sums_shard_profiles() {
        let mut r = router(2);
        assert!(r.merged_profile().is_none(), "nothing attached yet");
        for s in r.shards_mut() {
            s.memory_mut().attach_profiler();
        }
        r.run(
            TraceGenerator::new(profiles::by_name("lbm").unwrap(), 3),
            30_000,
        )
        .unwrap();
        let merged = r.merged_profile().expect("profilers attached");
        let by_hand: u64 = r
            .shards()
            .iter()
            .map(|s| {
                let p = s.memory().profiler().unwrap();
                crate::obs::profile::Stage::ALL
                    .iter()
                    .map(|&st| p.cycles_of(st))
                    .sum::<u64>()
            })
            .sum();
        let merged_total: u64 = crate::obs::profile::Stage::ALL
            .iter()
            .map(|&st| merged.cycles_of(st))
            .sum();
        assert_eq!(merged_total, by_hand);
    }

    #[test]
    fn per_shard_wear_reports_each_conserve() {
        let mut r = router(2);
        for s in r.shards_mut() {
            s.memory_mut().attach_wear();
            s.memory_mut().attach_lag();
        }
        r.run(
            TraceGenerator::new(profiles::by_name("lbm").unwrap(), 7),
            40_000,
        )
        .unwrap();
        let reports = r.wear_reports("lbm", r.total_instructions());
        assert_eq!(reports.len(), 2);
        for (i, rep) in reports.iter().enumerate() {
            assert!(rep.conserved(), "shard {i}: {rep:?}");
            assert!(rep.total_writes > 0, "shard {i} saw no writes");
        }
        // Drainer design: commits landed, so lags resolved somewhere.
        let resolved: u64 = reports.iter().map(|r| r.lag.resolved).sum();
        assert!(resolved > 0, "no durability lag resolved across shards");
    }

    #[test]
    fn all_shards_recover_clean_after_orderly_shutdown() {
        let mut r = router(4);
        r.run(
            TraceGenerator::new(profiles::by_name("lbm").unwrap(), 9),
            40_000,
        )
        .unwrap();
        r.flush_all().unwrap();
        for (i, img) in r.crash_images().iter().enumerate() {
            let report = recover(img);
            assert!(report.is_clean(), "shard {i}: {report:?}");
        }
    }

    #[test]
    fn mid_drain_crash_on_one_shard_recovers_while_others_quiesce() {
        let mut r = router(4);
        r.run(
            TraceGenerator::new(profiles::by_name("lbm").unwrap(), 13),
            60_000,
        )
        .unwrap();
        // Quiesce every shard except the one with the deepest dirty
        // queue, then catch that one mid-drain: staged but never
        // committed.
        let victim = r
            .shard_gauges()
            .iter()
            .max_by_key(|g| g.dirty_queue_depth)
            .unwrap()
            .shard as usize;
        for i in 0..r.shard_count() as usize {
            if i != victim {
                r.shard_mut(i).flush_caches().unwrap();
            }
        }
        assert!(
            r.shard(victim).memory().dirty_queue_len() > 0,
            "lbm's write pressure must leave a queued epoch to lose"
        );
        r.inject_mid_drain_crash(victim);
        assert!(r.shard(victim).memory().has_staged_drain());
        for (i, img) in r.crash_images().iter().enumerate() {
            let report = recover(img);
            assert!(
                report.is_clean(),
                "shard {i} must recover regardless of drain phase: {report:?}"
            );
        }
    }
}
