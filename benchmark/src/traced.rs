//! The traced run: per-layer host time from a bench-side copy of
//! `Simulator::step` that calls each layer's public function and times
//! every call.
//!
//! Timestamps tile the traced loop. Every interval between two
//! consecutive stamps is charged to exactly one [`Kind`]: a layer call
//! (trace generation, an L1 or L2 access, `read_data`, a `write_back`
//! that fired no drain, or one that did), the core loop's own code, or
//! a gap (the benchmark's bookkeeping, excluded). Each interval also
//! holds the cost of one stamp; that cost is calibrated before the run
//! and subtracted, so the calibrated intervals add up to the loop's
//! untraced time, up to the residual the run reports.
//!
//! Every traced op is run twice: untraced through `Simulator::run`, and
//! traced through [`TracedCore`]. Both must end with identical
//! `RunStats`, or the op fails.

use crate::metrics::{median, pct, percentile, ratio, sorted, Metrics};
use crate::ops::{self, run_cycle, run_point, store_config};
use crate::plan::{self, Op, Workload};
use crate::run::{OpLoop, Outcome, ReferenceCheck, RunConfig};
use ccnvm::engine::{DH_MSG_LEN, MT_MSG_LEN};
use ccnvm::obs::flight::FlightConfig;
use ccnvm::prelude::*;
use ccnvm_crypto::otp::OtpGenerator;
use ccnvm_crypto::{Aes128, CryptoTier, HmacEngine, Mac128};
use ccnvm_mem::cache::SetAssocCache;
use ccnvm_mem::{FileBackend, LineAddr, MemStats};
use ccnvm_trace::{OpKind, TraceOp};
use std::hint::black_box;
use std::time::Instant;

/// Every op whose id is a multiple of this keeps its span tree.
pub const SPAN_SAMPLE_EVERY: u64 = 1000;

/// Upper bound on kept spans (sampled ops plus every drain), which
/// keeps a span file near 2 MB.
pub const SPAN_CAP: usize = 20_000;

/// Repetitions of each observer configuration in the sink probe.
const OBS_REPEATS: usize = 3;

/// The observer sinks `SecureMemory` can attach.
const SINKS: [&str; 7] = [
    "recorder", "profiler", "metrics", "auditor", "flight", "wear", "lag",
];

/// What a traced interval is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `TraceGenerator::next`.
    Trace,
    /// `SetAssocCache::access` on L1.
    L1,
    /// `SetAssocCache::access` on L2.
    L2,
    /// `SecureMemory::read_data`.
    Read,
    /// `SecureMemory::write_back` that fired no drain.
    Wb,
    /// `SecureMemory::write_back` that completed a drain.
    Drain,
    /// The core loop's own code between layer calls.
    Core,
    /// Benchmark bookkeeping; excluded from every sum.
    Gap,
}

impl Kind {
    const COUNT: usize = 8;
    /// The kinds that make up the simulated loop's time.
    const LOOP: [Kind; 7] = [
        Kind::Trace,
        Kind::L1,
        Kind::L2,
        Kind::Read,
        Kind::Wb,
        Kind::Drain,
        Kind::Core,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Trace => "trace",
            Kind::L1 => "l1",
            Kind::L2 => "l2",
            Kind::Read => "read",
            Kind::Wb => "wb",
            Kind::Drain => "drain",
            Kind::Core => "core",
            Kind::Gap => "gap",
        }
    }

    /// Index into the per-call sample vectors, for the kinds whose
    /// latency distribution is kept.
    fn sample_slot(self) -> Option<usize> {
        match self {
            Kind::Read => Some(0),
            Kind::Wb => Some(1),
            Kind::Drain => Some(2),
            _ => None,
        }
    }
}

/// One recorded span: ids, names and nanoseconds since the run began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Op id (position in the traced run).
    pub op: u64,
    /// Span name (a [`Kind`] name, or `op`).
    pub name: &'static str,
    /// Parent span name (`op` for layer calls, `run` for ops).
    pub parent: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

/// Counts a layer's calls caused, from `RunStats` deltas.
#[derive(Debug, Default, Clone, Copy)]
struct CallCounts {
    hmacs: u64,
    aes: u64,
    nvm_reads: u64,
    nvm_writes: u64,
    meta_writes: u64,
    stall_cycles: u64,
}

/// The stamp source: the time-stamp counter on x86-64, which costs
/// about half of an `Instant::now` here, and `Instant` nanoseconds
/// elsewhere.
#[inline(always)]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` only reads the time-stamp counter; it has no
        // memory operands and every x86-64 CPU implements it.
        unsafe { std::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Nanoseconds per tick, measured against `Instant` over 20 ms.
pub fn ns_per_tick() -> f64 {
    let (t0, c0) = (Instant::now(), ticks());
    while t0.elapsed().as_millis() < 20 {}
    let (ns, c1) = (t0.elapsed().as_nanos() as f64, ticks());
    ns / c1.saturating_sub(c0).max(1) as f64
}

/// The in-memory aggregate of every timed interval, in ticks.
#[derive(Debug)]
pub struct Tracer {
    ns_per_tick: f64,
    base: u64,
    last: u64,
    calls: [u64; Kind::COUNT],
    raw: [u64; Kind::COUNT],
    /// Raw per-call ticks of `read`, `wb` and `drain`.
    samples: [Vec<u32>; 3],
    wb: CallCounts,
    drain: CallCounts,
    ops: u64,
    op_start: u64,
    sampled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span times count from now.
    pub fn new(ns_per_tick: f64) -> Self {
        let now = ticks();
        Self {
            ns_per_tick,
            base: now,
            last: now,
            calls: [0; Kind::COUNT],
            raw: [0; Kind::COUNT],
            samples: Default::default(),
            wb: CallCounts::default(),
            drain: CallCounts::default(),
            ops: 0,
            op_start: now,
            sampled: false,
            spans: Vec::new(),
        }
    }

    fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick
    }

    fn push_span(&mut self, name: &'static str, parent: &'static str, from: u64, to: u64) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                op: self.ops,
                name,
                parent,
                start_ns: self.ns(from.saturating_sub(self.base)) as u64,
                end_ns: self.ns(to.saturating_sub(self.base)) as u64,
            });
        }
    }

    /// Takes a stamp; returns the interval it closes.
    #[inline]
    fn stamp(&mut self) -> (u64, u64) {
        let now = ticks();
        (std::mem::replace(&mut self.last, now), now)
    }

    /// Charges the interval `[from, to]` to `kind`; returns its raw
    /// ticks.
    #[inline]
    fn charge(&mut self, kind: Kind, from: u64, to: u64) -> u64 {
        let raw = to.saturating_sub(from);
        self.calls[kind as usize] += 1;
        self.raw[kind as usize] += raw;
        if let Some(slot) = kind.sample_slot() {
            self.samples[slot].push(u32::try_from(raw).unwrap_or(u32::MAX));
        }
        let layer = !matches!(kind, Kind::Core | Kind::Gap);
        if layer && (self.sampled || kind == Kind::Drain) {
            self.push_span(kind.name(), "op", from, to);
        }
        raw
    }

    /// Stamps and charges the interval since the previous stamp.
    #[inline]
    fn mark(&mut self, kind: Kind) -> u64 {
        let (from, to) = self.stamp();
        self.charge(kind, from, to)
    }

    /// Opens an op at the previous stamp (the end of the op before, or
    /// the gap that started the loop).
    fn begin_op(&mut self) {
        self.op_start = self.last;
        self.sampled = self.ops.is_multiple_of(SPAN_SAMPLE_EVERY);
    }

    fn end_op(&mut self) {
        self.mark(Kind::Core);
        if self.sampled {
            self.push_span("op", "run", self.op_start, self.last);
        }
        self.ops += 1;
    }

    /// Attributes one `write_back` call's counter deltas.
    fn count_call(&mut self, kind: Kind, before: &RunStats, after: &RunStats, stall: u64) {
        let c = if kind == Kind::Drain {
            &mut self.drain
        } else {
            &mut self.wb
        };
        c.hmacs += after.hmacs - before.hmacs;
        c.aes += after.aes_ops - before.aes_ops;
        c.nvm_reads += after.nvm_reads - before.nvm_reads;
        c.nvm_writes += after.total_writes() - before.total_writes();
        c.meta_writes += after.meta_writes - before.meta_writes;
        c.stall_cycles += stall;
    }

    /// The spans kept for the sample file.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A bench-side copy of [`Simulator`]'s core + L1/L2 loop, stamping
/// around every layer call. It must produce the `RunStats` that
/// `Simulator::run` produces for the same trace.
#[derive(Debug)]
pub struct TracedCore {
    l1: SetAssocCache<()>,
    l2: SetAssocCache<()>,
    mem: SecureMemory,
    l1_hit_cycles: u64,
    l2_hit_cycles: u64,
    hide_cycles: u64,
    issue_width: u64,
    data_lines: u64,
    cycles: u64,
    instructions: u64,
    issue_carry: u64,
    read_stall: u64,
    wb_stall: u64,
}

impl TracedCore {
    /// Wraps `mem` with cold caches shaped by `config`.
    pub fn new(config: &SimConfig, mem: SecureMemory) -> Self {
        Self {
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            data_lines: mem.layout().data_lines(),
            mem,
            l1_hit_cycles: config.l1_hit_cycles,
            l2_hit_cycles: config.l2_hit_cycles,
            hide_cycles: config.hide_cycles,
            issue_width: config.issue_width,
            cycles: 0,
            instructions: 0,
            issue_carry: 0,
            read_stall: 0,
            wb_stall: 0,
        }
    }

    /// Runs `trace` until `max_instructions` more retire, like
    /// `Simulator::run`.
    ///
    /// # Errors
    ///
    /// The first integrity error a layer raises.
    pub fn run(
        &mut self,
        trace: &mut impl Iterator<Item = TraceOp>,
        max_instructions: u64,
        tr: &mut Tracer,
    ) -> Result<(), IntegrityError> {
        let target = self.instructions + max_instructions;
        tr.mark(Kind::Gap);
        while self.instructions < target {
            tr.begin_op();
            let Some(op) = trace.next() else { break };
            tr.mark(Kind::Trace);
            self.step(&op, tr)?;
            let stop = self.mem.audit_failed();
            tr.end_op();
            if stop {
                break;
            }
        }
        Ok(())
    }

    fn step(&mut self, op: &TraceOp, tr: &mut Tracer) -> Result<(), IntegrityError> {
        let instrs = op.instrs();
        self.instructions += instrs;
        let total = instrs + self.issue_carry;
        self.cycles += total / self.issue_width;
        self.issue_carry = total % self.issue_width;
        let line = LineAddr(op.addr.line().0 % self.data_lines);
        let is_store = op.kind == OpKind::Write;
        tr.mark(Kind::Core);
        let l1 = self.l1.access(line, is_store);
        tr.mark(Kind::L1);
        if l1.is_hit() {
            self.cycles += self.l1_hit_cycles;
            return Ok(());
        }
        self.l2_fill(line, tr)?;
        if let Some(victim) = l1.evicted.filter(|v| v.dirty) {
            tr.mark(Kind::Core);
            let r = self.l2.access(victim.addr, true);
            tr.mark(Kind::L2);
            if let Some(l2_victim) = r.evicted.filter(|v| v.dirty) {
                self.write_back(l2_victim.addr, tr)?;
            }
        }
        Ok(())
    }

    fn l2_fill(&mut self, line: LineAddr, tr: &mut Tracer) -> Result<(), IntegrityError> {
        tr.mark(Kind::Core);
        let l2 = self.l2.access(line, false);
        tr.mark(Kind::L2);
        if l2.is_hit() {
            self.cycles += self.l2_hit_cycles;
            return Ok(());
        }
        if let Some(victim) = l2.evicted.filter(|v| v.dirty) {
            self.write_back(victim.addr, tr)?;
        }
        let now = self.cycles;
        tr.mark(Kind::Core);
        let done = self.mem.read_data(line, now);
        tr.mark(Kind::Read);
        let penalty = done?.saturating_sub(now + self.hide_cycles);
        self.cycles += penalty;
        self.read_stall += penalty;
        Ok(())
    }

    fn write_back(&mut self, line: LineAddr, tr: &mut Tracer) -> Result<(), IntegrityError> {
        let now = self.cycles;
        tr.mark(Kind::Core);
        let before = self.mem.stats();
        tr.mark(Kind::Gap);
        let result = self.mem.write_back(line, now);
        let (from, to) = tr.stamp();
        let after = self.mem.stats();
        let kind = if after.drains > before.drains {
            Kind::Drain
        } else {
            Kind::Wb
        };
        tr.charge(kind, from, to);
        let stall = result?.saturating_sub(now);
        tr.count_call(kind, &before, &after, stall);
        tr.mark(Kind::Gap);
        self.cycles += stall;
        self.wb_stall += stall;
        Ok(())
    }

    /// Statistics merged the way `Simulator::stats` merges them.
    pub fn stats(&self) -> RunStats {
        let mut s = self.mem.stats();
        s.instructions = self.instructions;
        s.cycles = self.cycles;
        (s.l1_hits, s.l1_misses) = self.l1.hit_miss();
        (s.l2_hits, s.l2_misses) = self.l2.hit_miss();
        s.read_stall_cycles = self.read_stall;
        s.wb_stall_cycles = self.wb_stall;
        s
    }
}

/// `Ok` when the traced loop reproduced `Simulator::run` exactly;
/// otherwise names the first differing column.
pub fn check_faithful(untraced: &RunStats, traced: &RunStats) -> Result<(), String> {
    if untraced == traced {
        return Ok(());
    }
    let (col, a, b) = plan::first_difference(&untraced.csv_row(), &traced.csv_row())
        .unwrap_or_else(|| ("(unprinted field)".into(), String::new(), String::new()));
    Err(format!(
        "traced loop diverged from Simulator::run at {col}: {a} vs {b}"
    ))
}

/// The cost of one stamp in ticks: the trimmed mean of empty
/// intervals, median of three calibrations.
pub fn calibrate(ns_per_tick: f64) -> f64 {
    const N: usize = 100_000;
    let mut means: Vec<f64> = (0..3)
        .map(|_| {
            let mut tr = Tracer::new(ns_per_tick);
            let mut raws: Vec<u64> = (0..N).map(|_| tr.mark(Kind::Gap)).collect();
            raws.sort_unstable();
            // Drop the slowest 1%: interrupts and migrations.
            let kept = &raws[..N * 99 / 100];
            kept.iter().sum::<u64>() as f64 / kept.len() as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[1]
}

/// Standalone crypto costs on the run's tier, in ns.
#[derive(Debug, Clone, Copy)]
struct CryptoCosts {
    hmac_ns: f64,
    hmac_batch_ns_per_mac: f64,
    aes_ns: f64,
}

/// Times `HmacEngine::mac128_with` (a data-HMAC message),
/// `mac128_batch` (tree-node messages, as drains batch them) and one
/// OTP generation, each as the median of five timed loops.
fn crypto_probe(tier: CryptoTier) -> CryptoCosts {
    const N: usize = 20_000;
    const BATCH: usize = 64;
    let engine = HmacEngine::new(&[0x5a; 16]);
    let otp = OtpGenerator::new(Aes128::new(&[0xa5; 16]));
    let per_call = |f: &mut dyn FnMut(usize), iterations: usize, calls: usize| {
        let runs: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for i in 0..iterations {
                    f(i);
                }
                t.elapsed().as_nanos() as f64 / (iterations * calls) as f64
            })
            .collect();
        median(&runs)
    };
    let mut dh = [0x11u8; DH_MSG_LEN];
    let hmac_ns = per_call(
        &mut |i| {
            dh[0] = i as u8;
            black_box(engine.mac128_with(tier, black_box(&dh)));
        },
        N,
        1,
    );
    let mut nodes = vec![[0x22u8; MT_MSG_LEN]; BATCH];
    let mut macs: Vec<Mac128> = vec![[0; 16]; BATCH];
    let hmac_batch_ns_per_mac = per_call(
        &mut |i| {
            nodes[i % BATCH][0] = i as u8;
            engine.mac128_batch(tier, black_box(&nodes), &mut macs);
            black_box(&macs);
        },
        N / 8,
        BATCH,
    );
    let aes_ns = per_call(
        &mut |i| {
            black_box(otp.pad64_with(tier, black_box(i as u64), 1, 2));
        },
        N,
        1,
    );
    CryptoCosts {
        hmac_ns,
        hmac_batch_ns_per_mac,
        aes_ns,
    }
}

fn attach(mem: &mut SecureMemory, sink: &str) {
    match sink {
        "recorder" => mem.attach_recorder(RecorderConfig::default()),
        "profiler" => mem.attach_profiler(),
        "metrics" => mem.attach_metrics(MetricsConfig::default()),
        "auditor" => mem.attach_auditor(AuditMode::Record),
        "flight" => mem.attach_flight(FlightConfig::default()),
        "wear" => mem.attach_wear(),
        "lag" => mem.attach_lag(),
        other => unreachable!("unknown sink {other}"),
    }
}

/// Runs the workload's first op with no observer, with each sink
/// alone, and with all of them, `OBS_REPEATS` times interleaved, and
/// publishes each configuration's overhead over the detached run.
/// Attaching observers must not change the simulated stats.
fn obs_probe(cfg: &RunConfig, out: &mut Outcome) {
    let op = plan::op(cfg.workload, cfg.seed, 0, cfg.smoke);
    let mut configs: Vec<(String, Vec<&str>)> = vec![("none".into(), vec![])];
    configs.extend(SINKS.iter().map(|&s| (s.to_string(), vec![s])));
    configs.push(("all".into(), SINKS.to_vec()));
    let mut times = vec![Vec::new(); configs.len()];
    let mut detached: Option<RunStats> = None;
    let mut failure = None;
    for _ in 0..OBS_REPEATS {
        for (k, (name, sinks)) in configs.iter().enumerate() {
            let mut sim =
                Simulator::new(SimConfig::paper(op.design)).expect("paper config is valid");
            for sink in sinks {
                attach(sim.memory_mut(), sink);
            }
            let trace = TraceGenerator::new(op.profile.clone(), op.seed);
            let t = Instant::now();
            let result = sim.run(trace, op.instructions);
            times[k].push(t.elapsed().as_secs_f64());
            match ops::check_run(&op, result, sim.memory().audit_failed()) {
                Ok(s) if *detached.get_or_insert(s) != s => {
                    failure = Some(format!("attaching {name} changed the simulated stats"));
                }
                Ok(_) => {}
                Err(e) => failure = Some(format!("with {name} attached: {e}")),
            }
        }
    }
    let base = median(&times[0]);
    for (k, (name, _)) in configs.iter().enumerate().skip(1) {
        let overhead = (median(&times[k]) / base - 1.0) * 100.0;
        out.metrics
            .publish(&format!("obs.{name}.overhead_pct"), overhead);
    }
    out.count(cfg.workload, &op, failure.as_deref());
}

/// Totals over the traced run's ops.
#[derive(Debug, Default)]
struct Totals {
    stats: RunStats,
    mem: MemStats,
    /// `Simulator::run` seconds of the untraced twin of each traced op.
    untraced_s: f64,
    /// Wall seconds of the traced loops.
    traced_s: f64,
    // crash-recover only
    in_memory_s: f64,
    file_live_s: f64,
    file_wbs: u64,
    fsyncs: u64,
    bytes: u64,
    compactions: u64,
    cycles: u64,
    open_ms: Vec<f64>,
    sync_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    lines: u64,
    retries: u64,
    recovery_cycles: Vec<f64>,
}

impl Totals {
    fn add_traced(&mut self, stats: &RunStats, mem: MemStats, untraced_s: f64, traced_s: f64) {
        self.stats.accumulate(stats);
        self.mem.reads += mem.reads;
        self.mem.read_wait_cycles += mem.read_wait_cycles;
        self.mem.wpq_wait_cycles += mem.wpq_wait_cycles;
        self.untraced_s += untraced_s;
        self.traced_s += traced_s;
    }
}

/// Runs one traced simulation point; returns the untraced stats and
/// the op's failure, if any.
fn traced_point(op: &Op, tr: &mut Tracer, totals: &mut Totals) -> (RunStats, Option<String>) {
    let untraced = run_point(op);
    if untraced.failure.is_some() {
        return (untraced.stats, untraced.failure);
    }
    let config = SimConfig::paper(op.design);
    let mem = SecureMemory::new(config.clone()).expect("paper config is valid");
    let mut core = TracedCore::new(&config, mem);
    let mut trace = TraceGenerator::new(op.profile.clone(), op.seed);
    let t = Instant::now();
    let result = core.run(&mut trace, op.instructions, tr);
    let traced_s = t.elapsed().as_secs_f64();
    let stats = core.stats();
    totals.add_traced(&stats, core.mem.mem_stats(), untraced.run_s, traced_s);
    let failure = match result {
        Err(e) => Some(format!("traced loop: integrity error: {e}")),
        Ok(()) => check_faithful(&untraced.stats, &stats).err(),
    };
    (untraced.stats, failure)
}

/// Runs one traced crash cycle: the in-memory twin of its live phase,
/// the untraced cycle on the file store (whose restart is timed), and
/// the traced live phase on a second file store.
fn traced_cycle(
    op: &Op,
    cfg: &RunConfig,
    tr: &mut Tracer,
    totals: &mut Totals,
) -> (RunStats, Option<String>) {
    let twin = run_point(op);
    let cycle = run_cycle(op, &cfg.work.join("store-b"));
    if let Some(f) = twin.failure.clone().or(cycle.failure.clone()) {
        return (cycle.stats, Some(f));
    }
    let dir = cfg.work.join("store-c");
    std::fs::remove_dir_all(&dir).ok();
    let config = SimConfig::paper(op.design);
    let backend = match FileBackend::open(&dir, store_config()) {
        Ok(b) => b,
        Err(e) => return (cycle.stats, Some(e.to_string())),
    };
    let mem = SecureMemory::with_backend(config.clone(), Box::new(backend))
        .expect("paper config is valid");
    let mut core = TracedCore::new(&config, mem);
    let mut trace = TraceGenerator::new(op.profile.clone(), op.seed);
    let t = Instant::now();
    let result = core.run(&mut trace, op.instructions, tr);
    let traced_s = t.elapsed().as_secs_f64();
    core.mem.sync_durable();
    let stats = core.stats();
    totals.add_traced(&stats, core.mem.mem_stats(), cycle.run_s, traced_s);
    drop(core);
    std::fs::remove_dir_all(&dir).ok();

    totals.in_memory_s += twin.run_s;
    totals.file_live_s += cycle.run_s + cycle.sync_s;
    totals.file_wbs += cycle.stats.write_backs;
    totals.fsyncs += cycle.io.fsyncs;
    totals.bytes += cycle.io.bytes_written;
    totals.compactions += cycle.io.compactions;
    totals.cycles += 1;
    totals.open_ms.push(cycle.open_s * 1e3);
    totals.sync_ms.push(cycle.sync_s * 1e3);
    totals.recover_ms.push(cycle.recover_s * 1e3);
    totals.lines += cycle.lines;
    totals.retries += cycle.retries;
    totals.recovery_cycles.push(cycle.recovery_cycles as f64);

    let failure = match result {
        Err(e) => Some(format!("traced loop: integrity error: {e}")),
        Ok(()) => check_faithful(&cycle.stats, &stats)
            .and_then(|()| {
                check_faithful(&twin.stats, &cycle.stats)
                    .map_err(|e| format!("file store vs in-memory twin: {e}"))
            })
            .err(),
    };
    (cycle.stats, failure)
}

/// The traced run of `cfg.workload`: per-layer metrics plus the span
/// sample.
pub fn traced(cfg: &RunConfig) -> (Outcome, Tracer) {
    let started = Instant::now();
    let ns_per_tick = ns_per_tick();
    let span_cost = calibrate(ns_per_tick);
    let crypto = crypto_probe(ops::crypto_tier());
    let mut out = Outcome::default();
    obs_probe(cfg, &mut out);

    let reference = ReferenceCheck::for_run(cfg);
    let mut tr = Tracer::new(ns_per_tick);
    let mut totals = Totals::default();
    for op in OpLoop::new(cfg, started) {
        let (stats, failure) = if cfg.workload == Workload::CrashRecover {
            traced_cycle(&op, cfg, &mut tr, &mut totals)
        } else {
            traced_point(&op, &mut tr, &mut totals)
        };
        let failure = failure.or_else(|| reference.check(cfg.workload, &op, &stats).err());
        out.count(cfg.workload, &op, failure.as_deref());
    }
    layer_metrics(&mut out.metrics, &tr, &totals, span_cost, crypto);
    (out, tr)
}

fn layer_metrics(m: &mut Metrics, tr: &Tracer, t: &Totals, span_cost: f64, crypto: CryptoCosts) {
    let calls = |k: Kind| tr.calls[k as usize] as f64;
    let cal = |k: Kind| (tr.raw[k as usize] as f64 - calls(k) * span_cost) * tr.ns_per_tick;
    let total: f64 = Kind::LOOP.iter().map(|&k| cal(k)).sum();
    let share = |k: Kind| pct(cal(k), total);
    let per_call_ns = |k: Kind| ratio(cal(k), calls(k));
    let dist: Vec<Vec<f64>> = tr
        .samples
        .iter()
        .map(|v| {
            let ns = v
                .iter()
                .map(|&t| (f64::from(t) - span_cost) * tr.ns_per_tick);
            sorted(&ns.collect::<Vec<_>>())
        })
        .collect();
    let ns_at = |k: Kind, p: f64| {
        let d = &dist[k.sample_slot().expect("sampled kind")];
        if d.is_empty() {
            0.0
        } else {
            percentile(d, p)
        }
    };
    let s = &t.stats;
    let kinstr = s.instructions as f64 / 1000.0;
    let per_ki = |n: u64| ratio(n as f64, kinstr);
    let untraced_ns = t.untraced_s * 1e9;

    m.publish("trace.ns_per_op", per_call_ns(Kind::Trace));
    m.publish("trace.share", share(Kind::Trace));
    m.publish("l1.ns_per_access", per_call_ns(Kind::L1));
    m.publish("l1.share", share(Kind::L1));
    m.publish(
        "l1.hit_rate",
        pct(s.l1_hits as f64, (s.l1_hits + s.l1_misses) as f64),
    );
    m.publish("l2.ns_per_access", per_call_ns(Kind::L2));
    m.publish("l2.share", share(Kind::L2));
    m.publish(
        "l2.hit_rate",
        pct(s.l2_hits as f64, (s.l2_hits + s.l2_misses) as f64),
    );
    m.publish("l2.misses_per_kinstr", per_ki(s.l2_misses));
    m.publish("sim.self_ns_per_op", ratio(cal(Kind::Core), tr.ops as f64));
    m.publish("sim.self_share", share(Kind::Core));

    let (wb, drain) = (&tr.wb, &tr.drain);
    let reads = calls(Kind::Read);
    m.publish("read.per_kinstr", ratio(reads, kinstr));
    m.publish("read.ns_p50", ns_at(Kind::Read, 50.0));
    m.publish("read.ns_p99", ns_at(Kind::Read, 99.0));
    m.publish("read.share", share(Kind::Read));
    // Only read_data and write_back reach the secure memory, so the
    // read path's counts are the totals minus the write paths'.
    let read_only = |total: u64, w: u64, d: u64| total.saturating_sub(w + d) as f64;
    m.publish(
        "read.hmacs_per_call",
        ratio(read_only(s.hmacs, wb.hmacs, drain.hmacs), reads),
    );
    m.publish(
        "read.nvm_reads_per_call",
        ratio(read_only(s.nvm_reads, wb.nvm_reads, drain.nvm_reads), reads),
    );

    let wbs = calls(Kind::Wb);
    m.publish("wb.per_kinstr", per_ki(s.write_backs));
    m.put("wb.ns_p50", "ns", ns_at(Kind::Wb, 50.0));
    m.put("wb.ns_p99", "ns", ns_at(Kind::Wb, 99.0));
    m.publish("wb.share", share(Kind::Wb));
    m.publish("wb.hmacs_per_call", ratio(wb.hmacs as f64, wbs));
    m.publish("wb.aes_per_call", ratio(wb.aes as f64, wbs));
    m.publish("wb.nvm_writes_per_call", ratio(wb.nvm_writes as f64, wbs));
    m.publish(
        "wb.stall_cycles_per_call",
        ratio(wb.stall_cycles as f64, wbs),
    );

    let drains = calls(Kind::Drain);
    m.publish(
        "drain.per_kwb",
        ratio(drains * 1000.0, s.write_backs as f64),
    );
    m.put("drain.ns_p50", "ns", ns_at(Kind::Drain, 50.0));
    m.put("drain.ns_p99", "ns", ns_at(Kind::Drain, 99.0));
    m.publish("drain.share", share(Kind::Drain));
    m.publish(
        "drain.meta_writes_per_drain",
        ratio(drain.meta_writes as f64, drains),
    );

    m.publish(
        "meta.hit_rate",
        pct(s.meta_hits as f64, (s.meta_hits + s.meta_misses) as f64),
    );
    m.publish("meta.misses_per_kinstr", per_ki(s.meta_misses));

    m.publish("crypto.hmacs_per_kinstr", per_ki(s.hmacs));
    m.publish("crypto.aes_per_kinstr", per_ki(s.aes_ops));
    m.publish("crypto.hmac_ns", crypto.hmac_ns);
    m.publish("crypto.hmac_batch_ns_per_mac", crypto.hmac_batch_ns_per_mac);
    m.publish("crypto.aes_ns", crypto.aes_ns);
    m.publish(
        "crypto.est_share",
        pct(
            s.hmacs as f64 * crypto.hmac_ns + s.aes_ops as f64 * crypto.aes_ns,
            untraced_ns,
        ),
    );

    m.publish("nvm.reads_per_kinstr", per_ki(s.nvm_reads));
    m.publish("nvm.writes_per_kinstr", per_ki(s.total_writes()));
    m.publish(
        "nvm.read_wait_cycles_per_read",
        ratio(t.mem.read_wait_cycles as f64, t.mem.reads as f64),
    );
    m.publish(
        "nvm.wpq_wait_cycles_per_kinstr",
        per_ki(t.mem.wpq_wait_cycles),
    );

    let cycles = t.cycles as f64;
    let file_overhead_s = t.file_live_s - t.in_memory_s;
    m.publish(
        "file.fsyncs_per_wb",
        ratio(t.fsyncs as f64, t.file_wbs as f64),
    );
    m.publish(
        "file.bytes_per_wb",
        ratio(t.bytes as f64, t.file_wbs as f64),
    );
    m.publish(
        "file.compactions_per_cycle",
        ratio(t.compactions as f64, cycles),
    );
    m.publish("file.overhead_share", pct(file_overhead_s, t.file_live_s));
    m.put(
        "file.overhead_ns_per_wb",
        "ns",
        ratio(file_overhead_s * 1e9, t.file_wbs as f64),
    );
    let at = |v: &[f64], p: f64| {
        if v.is_empty() {
            0.0
        } else {
            percentile(&sorted(v), p)
        }
    };
    m.put("file.open_ms_p50", "ms", at(&t.open_ms, 50.0));
    m.put("file.sync_ms_p50", "ms", at(&t.sync_ms, 50.0));
    let open: f64 = t.open_ms.iter().sum();
    let rec: f64 = t.recover_ms.iter().sum();
    m.publish("restart.open_share", pct(open, open + rec));
    m.publish("restart.recover_share", pct(rec, open + rec));
    m.put("recover.ms_p50", "ms", at(&t.recover_ms, 50.0));
    m.put("recover.ms_p90", "ms", at(&t.recover_ms, 90.0));
    m.put(
        "recover.ns_per_line",
        "ns",
        ratio(rec * 1e6, t.lines as f64),
    );
    m.publish("recover.lines_per_image", ratio(t.lines as f64, cycles));
    m.publish("recover.retries_per_image", ratio(t.retries as f64, cycles));
    m.publish("recover.sim_cycles_p50", at(&t.recovery_cycles, 50.0));

    m.publish("tracing.span_cost_ns", span_cost * tr.ns_per_tick);
    m.publish(
        "tracing.overhead_pct",
        pct(t.traced_s - t.untraced_s, t.untraced_s),
    );
    m.publish(
        "tracing.residual_pct",
        pct((total - untraced_ns).abs(), untraced_ns),
    );
    m.put(
        "tracing.residual_signed_pct",
        "%",
        pct(total - untraced_ns, untraced_ns),
    );
    m.put("tracing.ops", "count", tr.ops as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Workload;

    /// A short op of each workload, on the paper configuration: long
    /// enough for the caches to fill and write back.
    fn short_op(w: Workload) -> Op {
        let mut op = plan::op(w, 7, 2, false);
        op.instructions = 300_000;
        op
    }

    #[test]
    fn traced_loop_equals_simulator_run_on_every_workload() {
        for w in Workload::ALL {
            let op = short_op(w);
            let config = SimConfig::paper(op.design);
            let mut sim = Simulator::new(config.clone()).unwrap();
            let want = sim
                .run(
                    TraceGenerator::new(op.profile.clone(), op.seed),
                    op.instructions,
                )
                .unwrap();
            let mut core = TracedCore::new(&config, SecureMemory::new(config.clone()).unwrap());
            let mut tr = Tracer::new(ns_per_tick());
            let mut trace = TraceGenerator::new(op.profile.clone(), op.seed);
            core.run(&mut trace, op.instructions, &mut tr).unwrap();
            assert_eq!(check_faithful(&want, &core.stats()), Ok(()), "{}", w.name());
            assert_eq!(tr.calls[Kind::L1 as usize], tr.ops);
            let write_backs = tr.calls[Kind::Wb as usize] + tr.calls[Kind::Drain as usize];
            assert_eq!(write_backs, want.write_backs, "{}", w.name());
            if w == Workload::WriteHeavy {
                assert!(tr.calls[Kind::Drain as usize] > 0, "the drain path ran");
            }
        }
    }

    #[test]
    fn faithfulness_check_fails_on_perturbed_stats() {
        let op = short_op(Workload::WriteHeavy);
        let stats = run_point(&op).stats;
        assert!(stats.write_backs > 0);
        assert_eq!(check_faithful(&stats, &stats), Ok(()));
        let mut off = stats;
        off.wb_stall_cycles += 1;
        let err = check_faithful(&stats, &off).unwrap_err();
        assert!(err.contains("wb_stall_cycles"), "{err}");
        let mut off = stats;
        off.cycles -= 1;
        let err = check_faithful(&stats, &off).unwrap_err();
        assert!(err.contains("cycles"), "{err}");
    }

    #[test]
    fn sampled_ops_keep_a_span_tree() {
        let op = short_op(Workload::CacheResident);
        let config = SimConfig::paper(op.design);
        let mut core = TracedCore::new(&config, SecureMemory::new(config.clone()).unwrap());
        let mut tr = Tracer::new(ns_per_tick());
        let mut trace = TraceGenerator::new(op.profile.clone(), op.seed);
        core.run(&mut trace, op.instructions, &mut tr).unwrap();
        let roots: Vec<&Span> = tr.spans().iter().filter(|s| s.name == "op").collect();
        assert_eq!(roots.len() as u64, tr.ops.div_ceil(SPAN_SAMPLE_EVERY));
        for s in tr.spans() {
            assert!(s.start_ns <= s.end_ns);
            if s.parent == "op" && s.name != "drain" {
                assert_eq!(s.op % SPAN_SAMPLE_EVERY, 0);
            }
        }
    }
}
