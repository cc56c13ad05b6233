//! The untraced run of one workload, which yields the end-to-end
//! metrics, and the op loop it shares with the traced run.

use crate::metrics::{geomean, median, percentile, ratio, sorted, Metrics};
use crate::ops::{self, run_cycle, run_point};
use crate::plan::{self, Op, RefRow, Workload, DEFAULT_SEED, PINNED, REFERENCE};
use ccnvm::stats::RunStats;
use std::path::PathBuf;
use std::time::Instant;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Run seed.
    pub seed: u64,
    /// Minimum measured seconds (ignored by smoke runs).
    pub seconds: f64,
    /// Smoke run: pinned ops only, at 1/50 of every budget, no
    /// reference check.
    pub smoke: bool,
    /// Scratch directory for file stores (inside the checkout).
    pub work: PathBuf,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops run.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// Every metric computed (published ones and artifact-only ones).
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one op, reporting its failure (if any) on stderr.
    pub fn count(&mut self, workload: Workload, op: &Op, failure: Option<&str>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            eprintln!(
                "benchmark: {} op {} ({}/{} seed {}): {why}",
                workload.name(),
                op.index,
                op.profile.name,
                op.design.slug(),
                op.seed
            );
        }
    }
}

/// Iterates a run's ops: every pinned op, then whole rounds of combos
/// until `seconds` have passed since `started` (smoke runs stop after
/// the pinned ops).
pub struct OpLoop {
    cfg: RunConfig,
    started: Instant,
    round: usize,
    next: usize,
}

impl OpLoop {
    /// Counts the run's time from `started`.
    pub fn new(cfg: &RunConfig, started: Instant) -> Self {
        Self {
            cfg: cfg.clone(),
            started,
            round: cfg.workload.combos().len(),
            next: 0,
        }
    }
}

impl Iterator for OpLoop {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let i = self.next;
        let more = i < PINNED
            || (!self.cfg.smoke
                && (!i.is_multiple_of(self.round)
                    || self.started.elapsed().as_secs_f64() < self.cfg.seconds));
        if !more {
            return None;
        }
        self.next += 1;
        Some(plan::op(
            self.cfg.workload,
            self.cfg.seed,
            i,
            self.cfg.smoke,
        ))
    }
}

/// Checks pinned ops of seed-42, full-budget runs against the embedded
/// reference.
pub struct ReferenceCheck {
    rows: Option<Vec<RefRow>>,
}

impl ReferenceCheck {
    /// Active only for seed 42 at full budgets.
    pub fn for_run(cfg: &RunConfig) -> Self {
        let active = cfg.seed == DEFAULT_SEED && !cfg.smoke;
        Self {
            rows: active
                .then(|| plan::parse_reference(REFERENCE).expect("embedded reference parses")),
        }
    }

    /// `Err` with the first differing column when a pinned op's stats
    /// differ from the reference.
    pub fn check(&self, workload: Workload, op: &Op, stats: &RunStats) -> Result<(), String> {
        let Some(rows) = &self.rows else {
            return Ok(());
        };
        if op.index >= PINNED {
            return Ok(());
        }
        let row = plan::reference_row(rows, workload, op)
            .ok_or_else(|| format!("no reference row for op {}", op.index))?;
        plan::check_reference(row, op, stats)
    }
}

/// Simulated totals over the pinned ops, which repeat exactly for a
/// seed.
#[derive(Debug, Default)]
pub struct Pinned {
    ipcs: Vec<f64>,
    instructions: u64,
    nvm_lines: u64,
}

impl Pinned {
    /// Adds a pinned op's stats (later ops are ignored).
    pub fn add(&mut self, op: &Op, stats: &RunStats) {
        if op.index < PINNED && stats.instructions > 0 {
            self.ipcs.push(stats.ipc());
            self.instructions += stats.instructions;
            self.nvm_lines += stats.nvm_reads + stats.total_writes();
        }
    }

    /// Publishes `sim_ipc` and `nvm_lines_per_ki`.
    pub fn publish(&self, m: &mut Metrics) {
        let ipc = if self.ipcs.is_empty() {
            0.0
        } else {
            geomean(&self.ipcs)
        };
        m.publish("sim_ipc", ipc);
        m.publish(
            "nvm_lines_per_ki",
            ratio(self.nvm_lines as f64 * 1000.0, self.instructions as f64),
        );
    }
}

/// The untraced run: ops until the time budget ends. Every op times its
/// own set-up, so `setup_s` (their median) samples the host across the
/// whole run rather than at one instant.
pub fn untraced(cfg: &RunConfig) -> Outcome {
    let w = cfg.workload;
    let reference = ReferenceCheck::for_run(cfg);
    let mut out = Outcome::default();
    let mut pinned = Pinned::default();
    let (mut instructions, mut live_s, mut write_backs) = (0u64, 0.0f64, 0u64);
    let (mut setups, mut latencies_ms) = (Vec::new(), Vec::new());
    let round = w.combos().len();
    // Host seconds per simulated Minstr, per op, grouped by combo.
    let mut s_per_minstr = vec![Vec::new(); round];
    for op in OpLoop::new(cfg, Instant::now()) {
        let (stats, live, failure) = if w == Workload::CrashRecover {
            let c = run_cycle(&op, &cfg.work.join("store"));
            setups.push(c.setup_s);
            latencies_ms.push(c.restart_s * 1e3);
            (c.stats, c.run_s + c.sync_s, c.failure)
        } else {
            let p = run_point(&op);
            setups.push(p.setup_s);
            latencies_ms.push(p.latency_s * 1e3);
            (p.stats, p.run_s, p.failure)
        };
        let failure = failure.or_else(|| reference.check(w, &op, &stats).err());
        out.count(w, &op, failure.as_deref());
        if stats.instructions > 0 {
            s_per_minstr[op.index % round].push(live / (stats.instructions as f64 / 1e6));
        }
        instructions += stats.instructions;
        live_s += live;
        write_backs += stats.write_backs;
        pinned.add(&op, &stats);
    }

    let m = &mut out.metrics;
    // A round's throughput with every combo at its median op speed and
    // simulating equal instruction counts: medians keep the busy spells
    // of a shared host out of the number.
    let medians: Vec<f64> = s_per_minstr
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    let mean_s = medians.iter().sum::<f64>() / medians.len().max(1) as f64;
    m.publish("sim_minstr_per_s", ratio(1.0, mean_s));
    let lat = sorted(&latencies_ms);
    m.publish("latency_ms_p50", percentile(&lat, 50.0));
    m.publish("latency_ms_p90", percentile(&lat, 90.0));
    pinned.publish(m);
    m.publish("setup_s", median(&setups));
    m.publish("peak_rss_mib", ops::peak_rss_mib().unwrap_or(f64::NAN));
    m.put("ops", "count", lat.len() as f64);
    m.put(
        "sim_minstr_per_s_overall",
        "Minstr/s",
        ratio(instructions as f64 / 1e6, live_s),
    );
    if w == Workload::CrashRecover {
        m.put("durable_wb_per_s", "1/s", ratio(write_backs as f64, live_s));
    }
    out
}
