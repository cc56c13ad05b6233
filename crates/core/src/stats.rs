//! Run statistics: everything the paper's figures are computed from.

use std::fmt;

/// A fixed-bucket histogram for small positive quantities (epoch
/// lengths, retries, queue occupancies).
///
/// # Example
///
/// ```
/// use ccnvm::stats::Histogram;
///
/// let mut h = Histogram::new(&[10, 100]); // buckets: <10, <100, >=100
/// h.record(3);
/// h.record(42);
/// h.record(42);
/// assert_eq!(h.counts(), &[1, 2, 0]);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.mean(), 29.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with buckets `< bounds[0]`, `< bounds[1]`,
    /// …, `>= bounds[last]`.
    ///
    /// # Panics
    ///
    /// Panics unless `bounds` is non-empty and strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value < b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Per-bucket observation counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The bucket bounds this histogram was built with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Nearest-rank percentile at bucket resolution: an inclusive
    /// upper bound on the value below or at which at least `p` percent
    /// of observations fall. The k-th smallest observation (k =
    /// ⌈p/100 · total⌉, at least 1) is located in its bucket and the
    /// bucket's largest representable value is returned — the recorded
    /// maximum for the overflow bucket. Returns 0 when empty; `p` is
    /// clamped to [0, 100].
    ///
    /// # Example
    ///
    /// ```
    /// use ccnvm::stats::Histogram;
    ///
    /// let mut h = Histogram::new(&[10, 100]);
    /// for v in [1, 2, 3, 50] {
    ///     h.record(v);
    /// }
    /// assert_eq!(h.percentile(50.0), 9); // 2nd smallest is in [0,10)
    /// assert_eq!(h.percentile(100.0), 99); // 4th smallest is in [10,100)
    /// ```
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let k = ((p / 100.0 * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= k {
                return if i < self.bounds.len() {
                    // Bucket i holds values in [bounds[i-1], bounds[i]);
                    // its largest integer member is bounds[i] - 1.
                    self.bounds[i].saturating_sub(1)
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut lo = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if i < self.bounds.len() {
                write!(f, "[{lo},{}) {count}  ", self.bounds[i])?;
                lo = self.bounds[i];
            } else {
                write!(f, "[{lo},∞) {count}")?;
            }
        }
        Ok(())
    }
}

/// Counters collected over a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Core cycles elapsed.
    pub cycles: u64,
    /// L1 hits / misses.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Meta-cache hits.
    pub meta_hits: u64,
    /// Meta-cache misses.
    pub meta_misses: u64,
    /// Data-line write-backs processed by the encryption engine.
    pub write_backs: u64,
    /// NVM reads (data, data HMACs and metadata fetches).
    pub nvm_reads: u64,
    /// NVM writes of data lines.
    pub data_writes: u64,
    /// NVM writes of data-HMAC lines.
    pub dh_writes: u64,
    /// NVM writes of counter/tree lines (per-write-back persists, drain
    /// traffic and dirty meta-cache evictions).
    pub meta_writes: u64,
    /// NVM writes caused by page re-encryption (minor-counter
    /// overflow).
    pub reenc_writes: u64,
    /// Completed drains (epochs).
    pub drains: u64,
    /// Drains triggered by a full dirty address queue.
    pub drains_queue_full: u64,
    /// Drains triggered by a dirty meta-cache eviction.
    pub drains_evict: u64,
    /// Drains triggered by the update-times limit N.
    pub drains_update_limit: u64,
    /// Cycles the engine spent draining.
    pub drain_cycles: u64,
    /// HMAC engine invocations.
    pub hmacs: u64,
    /// AES (OTP) engine invocations.
    pub aes_ops: u64,
    /// Minor-counter overflows (page re-encryptions).
    pub counter_overflows: u64,
    /// Cycles the core stalled waiting for write-back acceptance.
    pub wb_stall_cycles: u64,
    /// Cycles the core stalled on read misses (after overlap hiding).
    pub read_stall_cycles: u64,
    /// Cycles the encryption engine spent servicing write-backs plus
    /// top-level epoch drains (drains nested inside a write-back are
    /// already covered by that write-back's span).
    pub engine_cycles: u64,
}

impl RunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Total NVM write traffic in lines — the paper's "# of Writes"
    /// (Fig. 5b).
    pub fn total_writes(&self) -> u64 {
        self.data_writes + self.dh_writes + self.meta_writes + self.reenc_writes
    }

    /// Meta-cache hit rate.
    pub fn meta_hit_rate(&self) -> f64 {
        let total = self.meta_hits + self.meta_misses;
        if total == 0 {
            0.0
        } else {
            self.meta_hits as f64 / total as f64
        }
    }

    /// Write-backs per kilo-instruction.
    pub fn wbpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.write_backs as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Folds another run's counters into this one: every event
    /// counter is summed, while `cycles` takes the maximum — the runs
    /// are treated as concurrent, each on its own clock, so wall time
    /// for the total is the slowest run, not the sum.
    pub fn accumulate(&mut self, other: &RunStats) {
        self.instructions += other.instructions;
        self.cycles = self.cycles.max(other.cycles);
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.meta_hits += other.meta_hits;
        self.meta_misses += other.meta_misses;
        self.write_backs += other.write_backs;
        self.nvm_reads += other.nvm_reads;
        self.data_writes += other.data_writes;
        self.dh_writes += other.dh_writes;
        self.meta_writes += other.meta_writes;
        self.reenc_writes += other.reenc_writes;
        self.drains += other.drains;
        self.drains_queue_full += other.drains_queue_full;
        self.drains_evict += other.drains_evict;
        self.drains_update_limit += other.drains_update_limit;
        self.drain_cycles += other.drain_cycles;
        self.hmacs += other.hmacs;
        self.aes_ops += other.aes_ops;
        self.counter_overflows += other.counter_overflows;
        self.wb_stall_cycles += other.wb_stall_cycles;
        self.read_stall_cycles += other.read_stall_cycles;
        self.engine_cycles += other.engine_cycles;
    }

    /// Column names for [`Self::csv_row`], in order.
    pub fn csv_header() -> &'static str {
        "instructions,cycles,ipc,l1_hits,l1_misses,l2_hits,l2_misses,\
meta_hits,meta_misses,write_backs,nvm_reads,data_writes,dh_writes,\
meta_writes,reenc_writes,total_writes,drains,drains_queue_full,\
drains_evict,drains_update_limit,drain_cycles,hmacs,aes_ops,\
counter_overflows,wb_stall_cycles,read_stall_cycles,engine_cycles"
    }

    /// One comma-separated row matching [`Self::csv_header`] —
    /// machine-readable output for the harness binaries and the CLI.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.instructions,
            self.cycles,
            self.ipc(),
            self.l1_hits,
            self.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.meta_hits,
            self.meta_misses,
            self.write_backs,
            self.nvm_reads,
            self.data_writes,
            self.dh_writes,
            self.meta_writes,
            self.reenc_writes,
            self.total_writes(),
            self.drains,
            self.drains_queue_full,
            self.drains_evict,
            self.drains_update_limit,
            self.drain_cycles,
            self.hmacs,
            self.aes_ops,
            self.counter_overflows,
            self.wb_stall_cycles,
            self.read_stall_cycles,
            self.engine_cycles,
        )
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "instructions {}  cycles {}  IPC {:.3}",
            self.instructions,
            self.cycles,
            self.ipc()
        )?;
        writeln!(
            f,
            "L1 {}/{}  L2 {}/{}  meta {}/{} (hit rate {:.1}%)",
            self.l1_hits,
            self.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.meta_hits,
            self.meta_misses,
            self.meta_hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "write-backs {} ({:.2}/ki)  drains {} (queue {} evict {} limit {})",
            self.write_backs,
            self.wbpki(),
            self.drains,
            self.drains_queue_full,
            self.drains_evict,
            self.drains_update_limit
        )?;
        write!(
            f,
            "NVM writes {} (data {} dh {} meta {} reenc {})  reads {}",
            self.total_writes(),
            self.data_writes,
            self.dh_writes,
            self.meta_writes,
            self.reenc_writes,
            self.nvm_reads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(RunStats::default().ipc(), 0.0);
        let s = RunStats {
            instructions: 100,
            cycles: 50,
            ..Default::default()
        };
        assert_eq!(s.ipc(), 2.0);
    }

    #[test]
    fn total_writes_sums_categories() {
        let s = RunStats {
            data_writes: 1,
            dh_writes: 2,
            meta_writes: 3,
            reenc_writes: 4,
            ..Default::default()
        };
        assert_eq!(s.total_writes(), 10);
    }

    #[test]
    fn accumulate_sums_counters_and_maxes_cycles() {
        let mut a = RunStats {
            instructions: 10,
            cycles: 100,
            write_backs: 3,
            data_writes: 2,
            drains: 1,
            ..Default::default()
        };
        let b = RunStats {
            instructions: 5,
            cycles: 250,
            write_backs: 4,
            meta_writes: 6,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.instructions, 15);
        assert_eq!(a.cycles, 250, "merged wall time is the slowest run");
        assert_eq!(a.write_backs, 7);
        assert_eq!(a.total_writes(), 8);
        assert_eq!(a.drains, 1);
        // Accumulating a default is the identity.
        let before = a;
        a.accumulate(&RunStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn display_is_nonempty() {
        let out = RunStats::default().to_string();
        assert!(out.contains("IPC"));
        assert!(out.contains("NVM writes"));
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::new(&[2, 8]);
        for v in [0, 1, 2, 7, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - (118.0 / 6.0)).abs() < 1e-12);
        let text = h.to_string();
        assert!(text.contains("[0,2) 2"));
        assert!(text.contains("[8,∞) 2"));
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[5, 5]);
    }

    #[test]
    fn percentile_empty_is_zero() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn percentile_single_bucket() {
        // One bound → two buckets; everything lands in the overflow
        // bucket here, so every percentile is the recorded max.
        let mut h = Histogram::new(&[1]);
        for v in [5, 7, 9] {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0), 9);
        assert_eq!(h.percentile(50.0), 9);
        assert_eq!(h.percentile(99.0), 9);
    }

    #[test]
    fn percentile_walks_buckets() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for _ in 0..50 {
            h.record(5); // bucket [0,10)
        }
        for _ in 0..40 {
            h.record(50); // bucket [10,100)
        }
        for _ in 0..10 {
            h.record(5000); // overflow bucket
        }
        assert_eq!(h.percentile(0.0), 9, "p0 clamps to the 1st observation");
        assert_eq!(h.percentile(50.0), 9);
        assert_eq!(h.percentile(90.0), 99);
        assert_eq!(h.percentile(91.0), 5000, "overflow reports the max");
        assert_eq!(h.percentile(200.0), 5000, "p clamps to 100");
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let header_cols = RunStats::csv_header().split(',').count();
        let s = RunStats {
            instructions: 10,
            cycles: 5,
            ..Default::default()
        };
        let row_cols = s.csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert!(s.csv_row().starts_with("10,5,2.0"));
    }

    #[test]
    fn rates() {
        let s = RunStats {
            meta_hits: 9,
            meta_misses: 1,
            write_backs: 5,
            instructions: 1000,
            ..Default::default()
        };
        assert!((s.meta_hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.wbpki() - 5.0).abs() < 1e-12);
    }
}
