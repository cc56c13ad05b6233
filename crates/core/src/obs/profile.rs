//! Deterministic cycle/write attribution profiler.
//!
//! The event layer in [`super`] records *what happened*; this module
//! records *where the cycles and NVM writes went*. A [`SpanProfiler`]
//! charges every simulated cycle and every NVM line-write to a typed
//! pipeline [`Stage`], grouped into three [`Domain`]s that mirror the
//! run counters:
//!
//! - **core** stages sum exactly to `RunStats::cycles`,
//! - **engine** stages sum exactly to `RunStats::engine_cycles`,
//! - **recovery** stages sum exactly to
//!   `RecoveryReport::recovery_cycles`,
//!
//! and per-stage NVM writes sum exactly to `RunStats::total_writes()`.
//! That conservation invariant is enforced by tests (it holds for any
//! attack-free run driven through `Simulator`; an integrity error
//! aborts a write-back mid-flight and voids the engine-domain
//! identity, which is fine because a tampered run has no performance
//! story to tell).
//!
//! Everything is driven by simulated time, so profiles are
//! byte-identical at any host thread count.

use ccnvm_mem::Cycle;
use std::fmt::Write as _;

/// Accounting domain a [`Stage`] belongs to. Each domain's stages sum
/// to one of the run-level cycle counters (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Core pipeline time (`RunStats::cycles`).
    Core,
    /// Encryption-engine service time (`RunStats::engine_cycles`).
    Engine,
    /// Post-crash recovery time (`RecoveryReport::recovery_cycles`).
    Recovery,
}

impl Domain {
    /// Every domain, in export order.
    pub const ALL: [Domain; 3] = [Domain::Core, Domain::Engine, Domain::Recovery];

    /// Stable lower-case name used in JSON exports and tables.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Core => "core",
            Domain::Engine => "engine",
            Domain::Recovery => "recovery",
        }
    }
}

/// A typed pipeline stage. The discriminant doubles as the index into
/// the profiler's counter arrays, so the declaration order here *is*
/// the export order — append new stages at the end of their domain
/// block and keep [`Stage::ALL`] in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    // -- core domain ----------------------------------------------------
    /// Instruction issue (instructions ÷ issue width).
    CoreIssue,
    /// L1/L2 hit latency.
    CacheHit,
    /// Read-miss stall: decrypt + verify + memory on the load path.
    ReadStall,
    /// Core stalled behind a synchronous write-back (SC, or a full
    /// write queue).
    WbStall,
    // -- engine domain --------------------------------------------------
    /// Meta Cache lookup and counter/BMT line fetches on the write path.
    MetaFetch,
    /// Counter-line HMAC verification of fetched metadata.
    CounterHmac,
    /// BMT node HMAC verification and tree-walk time not hidden behind
    /// the AES/HMAC pad pipeline.
    BmtPathWalk,
    /// Meta Cache maintenance: dirty victim eviction + ancestor chain
    /// repair.
    MetaCacheMaint,
    /// Dirty address queue lookup/reserve time.
    DirtyQueueReserve,
    /// Counter-mode AES pad generation (one pad per write-back).
    AesPad,
    /// Data-line HMAC computation (one per write-back).
    DataHmac,
    /// Eager per-write-back tree persistence (SC root spreading,
    /// Osiris stop-loss) not hidden behind the pad pipeline.
    TreeEager,
    /// Persisting the encrypted data line and its HMAC line.
    WbPersist,
    /// Page re-encryption after a counter overflow.
    PageReenc,
    /// Epoch drain: staging counters and spreading deferred HMACs.
    DrainStage,
    /// Epoch drain: waiting on ADR write-pending-queue slots.
    WpqStall,
    /// Epoch drain: committing staged lines to NVM.
    DrainCommit,
    // -- recovery domain ------------------------------------------------
    /// Step 1: scanning durable metadata to locate tampering.
    RecoveryAttackLocate,
    /// Step 2: replaying counters via the bounded HMAC retry probe.
    RecoveryCounterRetry,
    /// Step 4: rebuilding the BMT from recovered counters.
    RecoveryTreeRebuild,
}

impl Stage {
    /// Number of stages (the length of the profiler's counter arrays).
    pub const COUNT: usize = 20;

    /// Every stage in declaration (= index = export) order.
    pub const ALL: [Stage; Self::COUNT] = [
        Stage::CoreIssue,
        Stage::CacheHit,
        Stage::ReadStall,
        Stage::WbStall,
        Stage::MetaFetch,
        Stage::CounterHmac,
        Stage::BmtPathWalk,
        Stage::MetaCacheMaint,
        Stage::DirtyQueueReserve,
        Stage::AesPad,
        Stage::DataHmac,
        Stage::TreeEager,
        Stage::WbPersist,
        Stage::PageReenc,
        Stage::DrainStage,
        Stage::WpqStall,
        Stage::DrainCommit,
        Stage::RecoveryAttackLocate,
        Stage::RecoveryCounterRetry,
        Stage::RecoveryTreeRebuild,
    ];

    /// Stable kebab-case name used in JSON exports and tables.
    pub fn name(self) -> &'static str {
        match self {
            Stage::CoreIssue => "core-issue",
            Stage::CacheHit => "cache-hit",
            Stage::ReadStall => "read-stall",
            Stage::WbStall => "wb-stall",
            Stage::MetaFetch => "meta-fetch",
            Stage::CounterHmac => "counter-hmac",
            Stage::BmtPathWalk => "bmt-path-walk",
            Stage::MetaCacheMaint => "meta-cache-maint",
            Stage::DirtyQueueReserve => "dirty-queue-reserve",
            Stage::AesPad => "aes-pad",
            Stage::DataHmac => "data-hmac",
            Stage::TreeEager => "tree-eager-persist",
            Stage::WbPersist => "wb-persist",
            Stage::PageReenc => "page-reencrypt",
            Stage::DrainStage => "drain-stage",
            Stage::WpqStall => "wpq-stall",
            Stage::DrainCommit => "drain-commit",
            Stage::RecoveryAttackLocate => "recovery-attack-locate",
            Stage::RecoveryCounterRetry => "recovery-counter-retry",
            Stage::RecoveryTreeRebuild => "recovery-tree-rebuild",
        }
    }

    /// The accounting [`Domain`] whose total this stage contributes to.
    pub fn domain(self) -> Domain {
        match self {
            Stage::CoreIssue | Stage::CacheHit | Stage::ReadStall | Stage::WbStall => Domain::Core,
            Stage::RecoveryAttackLocate
            | Stage::RecoveryCounterRetry
            | Stage::RecoveryTreeRebuild => Domain::Recovery,
            _ => Domain::Engine,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-stage cycle / NVM-write / op attribution counters.
///
/// `ops` counts the number of times a stage was charged (write-backs
/// for [`Stage::AesPad`], drains for [`Stage::DrainStage`], HMAC
/// probes for [`Stage::RecoveryCounterRetry`], …) and exists so rates
/// stay interpretable even when a stage's cycle share is tiny.
#[derive(Debug, Clone, Default)]
pub struct SpanProfiler {
    cycles: [u64; Stage::COUNT],
    nvm_writes: [u64; Stage::COUNT],
    ops: [u64; Stage::COUNT],
}

impl SpanProfiler {
    /// An all-zero profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cycles` of simulated time to `stage` and counts one op.
    #[inline]
    pub fn charge(&mut self, stage: Stage, cycles: Cycle) {
        let i = stage.index();
        self.cycles[i] += cycles;
        self.ops[i] += 1;
    }

    /// Attributes one NVM line-write to `stage`.
    #[inline]
    pub fn charge_write(&mut self, stage: Stage) {
        self.nvm_writes[stage.index()] += 1;
    }

    /// Bulk accumulation (used when folding in a recovery timeline).
    pub fn add(&mut self, stage: Stage, cycles: Cycle, nvm_writes: u64, ops: u64) {
        let i = stage.index();
        self.cycles[i] += cycles;
        self.nvm_writes[i] += nvm_writes;
        self.ops[i] += ops;
    }

    /// Cycles attributed to `stage` so far.
    pub fn cycles_of(&self, stage: Stage) -> u64 {
        self.cycles[stage.index()]
    }

    /// NVM line-writes attributed to `stage` so far.
    pub fn writes_of(&self, stage: Stage) -> u64 {
        self.nvm_writes[stage.index()]
    }

    /// Times `stage` was charged so far.
    pub fn ops_of(&self, stage: Stage) -> u64 {
        self.ops[stage.index()]
    }

    /// Sum of attributed cycles across one domain's stages.
    pub fn domain_cycles(&self, domain: Domain) -> u64 {
        Stage::ALL
            .iter()
            .filter(|s| s.domain() == domain)
            .map(|s| self.cycles_of(*s))
            .sum()
    }

    /// Sum of attributed NVM writes across all stages.
    pub fn total_writes(&self) -> u64 {
        self.nvm_writes.iter().sum()
    }

    /// Serializes the profile as pretty-printed JSON
    /// (`ccnvm-profile/1`). All values are integers and the stage
    /// order is fixed, so equal profiles serialize to identical bytes.
    pub fn to_json(&self, design: &str, bench: &str, instructions: u64) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"ccnvm-profile/1\",\n");
        let _ = writeln!(out, "  \"design\": \"{design}\",");
        let _ = writeln!(out, "  \"bench\": \"{bench}\",");
        let _ = writeln!(out, "  \"instructions\": {instructions},");
        let _ = writeln!(
            out,
            "  \"core_cycles\": {},",
            self.domain_cycles(Domain::Core)
        );
        let _ = writeln!(
            out,
            "  \"engine_cycles\": {},",
            self.domain_cycles(Domain::Engine)
        );
        let _ = writeln!(
            out,
            "  \"recovery_cycles\": {},",
            self.domain_cycles(Domain::Recovery)
        );
        let _ = writeln!(out, "  \"nvm_writes\": {},", self.total_writes());
        out.push_str("  \"stages\": [\n");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            let comma = if i + 1 < Stage::COUNT { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"stage\": \"{}\", \"domain\": \"{}\", \"cycles\": {}, \
                 \"nvm_writes\": {}, \"ops\": {}}}{comma}",
                stage.name(),
                stage.domain().name(),
                self.cycles_of(*stage),
                self.writes_of(*stage),
                self.ops_of(*stage),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the profile as a human table grouped by domain, with
    /// each stage's share of its domain total.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>14} {:>7} {:>12} {:>10}",
            "stage", "cycles", "dom%", "nvm writes", "ops"
        );
        for domain in Domain::ALL {
            let total = self.domain_cycles(domain);
            let stages: Vec<Stage> = Stage::ALL
                .iter()
                .copied()
                .filter(|s| s.domain() == domain)
                .collect();
            if domain == Domain::Recovery && stages.iter().all(|s| self.cycles_of(*s) == 0) {
                continue;
            }
            let _ = writeln!(out, "-- {} ({} cycles)", domain.name(), total);
            for stage in stages {
                let pct = if total == 0 {
                    0.0
                } else {
                    self.cycles_of(stage) as f64 * 100.0 / total as f64
                };
                let _ = writeln!(
                    out,
                    "{:<24} {:>14} {:>6.1}% {:>12} {:>10}",
                    stage.name(),
                    self.cycles_of(stage),
                    pct,
                    self.writes_of(stage),
                    self.ops_of(stage),
                );
            }
        }
        let _ = writeln!(out, "total nvm writes: {}", self.total_writes());
        out
    }
}

// ---------------------------------------------------------------------
// Profile parsing and comparison (`ccnvm-sim report --compare`)
// ---------------------------------------------------------------------

/// One stage sample read back from a profile file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSample {
    /// Stage name as exported (see [`Stage::name`]).
    pub stage: String,
    /// Domain name as exported (see [`Domain::name`]).
    pub domain: String,
    /// Cycles attributed to the stage.
    pub cycles: u64,
    /// NVM line-writes attributed to the stage.
    pub nvm_writes: u64,
    /// Times the stage was charged.
    pub ops: u64,
}

/// A parsed `ccnvm-profile/1` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileDoc {
    /// Design the profile was captured on (CLI name).
    pub design: String,
    /// Benchmark the profile was captured on.
    pub bench: String,
    /// Instruction budget of the run.
    pub instructions: u64,
    /// Core-domain cycle total.
    pub core_cycles: u64,
    /// Engine-domain cycle total.
    pub engine_cycles: u64,
    /// Recovery-domain cycle total.
    pub recovery_cycles: u64,
    /// Total attributed NVM line-writes.
    pub nvm_writes: u64,
    /// Per-stage samples in export order.
    pub stages: Vec<StageSample>,
}

/// Parses a `ccnvm-profile/1` document produced by
/// [`SpanProfiler::to_json`].
pub fn parse_profile(text: &str) -> Result<ProfileDoc, String> {
    use crate::obs::json::Json;
    let root = crate::obs::json::parse(text)?;
    let schema = root.str_field("schema")?;
    if schema != "ccnvm-profile/1" {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let stages = match root.get("stages") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| {
                Ok(StageSample {
                    stage: item.str_field("stage")?.to_string(),
                    domain: item.str_field("domain")?.to_string(),
                    cycles: item.num_field("cycles")?,
                    nvm_writes: item.num_field("nvm_writes")?,
                    ops: item.num_field("ops")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("missing \"stages\" array".into()),
    };
    Ok(ProfileDoc {
        design: root.str_field("design")?.to_string(),
        bench: root.str_field("bench")?.to_string(),
        instructions: root.num_field("instructions")?,
        core_cycles: root.num_field("core_cycles")?,
        engine_cycles: root.num_field("engine_cycles")?,
        recovery_cycles: root.num_field("recovery_cycles")?,
        nvm_writes: root.num_field("nvm_writes")?,
        stages,
    })
}

/// Per-stage delta between two profiles.
#[derive(Debug, Clone)]
pub struct StageDelta {
    /// Stage name.
    pub stage: String,
    /// Baseline cycles.
    pub cycles_a: u64,
    /// Candidate cycles.
    pub cycles_b: u64,
    /// Baseline NVM writes.
    pub writes_a: u64,
    /// Candidate NVM writes.
    pub writes_b: u64,
    /// Whether B grew past A by more than the tolerance, in cycles or
    /// NVM writes.
    pub regressed: bool,
}

/// Result of comparing two profiles at a percentage tolerance.
#[derive(Debug, Clone)]
pub struct ProfileDiff {
    /// The growth tolerance the comparison ran with, in percent.
    pub tolerance_pct: f64,
    /// One row per stage name in the union of both documents.
    pub rows: Vec<StageDelta>,
}

/// `b` regressed relative to `a` when it grew by more than
/// `tolerance_pct` percent; growth from zero is always a regression
/// (there is no baseline to scale the tolerance by).
fn regressed(a: u64, b: u64, tolerance_pct: f64) -> bool {
    if b <= a {
        return false;
    }
    if a == 0 {
        return true;
    }
    (b - a) as f64 * 100.0 / a as f64 > tolerance_pct
}

/// Compares baseline `a` against candidate `b`. Stages are matched by
/// name over the union of both documents; a stage missing from one
/// side counts as zero there.
pub fn compare(a: &ProfileDoc, b: &ProfileDoc, tolerance_pct: f64) -> ProfileDiff {
    let mut names: Vec<&str> = a.stages.iter().map(|s| s.stage.as_str()).collect();
    for s in &b.stages {
        if !names.contains(&s.stage.as_str()) {
            names.push(&s.stage);
        }
    }
    let find = |doc: &ProfileDoc, name: &str| -> (u64, u64) {
        doc.stages
            .iter()
            .find(|s| s.stage == name)
            .map_or((0, 0), |s| (s.cycles, s.nvm_writes))
    };
    let rows = names
        .iter()
        .map(|name| {
            let (cycles_a, writes_a) = find(a, name);
            let (cycles_b, writes_b) = find(b, name);
            StageDelta {
                stage: name.to_string(),
                cycles_a,
                cycles_b,
                writes_a,
                writes_b,
                regressed: regressed(cycles_a, cycles_b, tolerance_pct)
                    || regressed(writes_a, writes_b, tolerance_pct),
            }
        })
        .collect();
    ProfileDiff {
        tolerance_pct,
        rows,
    }
}

impl ProfileDiff {
    /// Number of stages flagged as regressed.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// Whether any stage regressed beyond the tolerance.
    pub fn has_regressions(&self) -> bool {
        self.regressions() > 0
    }

    /// Renders the per-stage comparison as a human table.
    pub fn render(&self) -> String {
        fn pct(a: u64, b: u64) -> String {
            if a == b {
                "+0.0%".into()
            } else if a == 0 {
                "new".into()
            } else {
                let p = (b as f64 - a as f64) * 100.0 / a as f64;
                format!("{p:+.1}%")
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>14} {:>14} {:>8} {:>10} {:>10} {:>8}",
            "stage", "cycles A", "cycles B", "change", "writes A", "writes B", "change"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<24} {:>14} {:>14} {:>8} {:>10} {:>10} {:>8}{}",
                row.stage,
                row.cycles_a,
                row.cycles_b,
                pct(row.cycles_a, row.cycles_b),
                row.writes_a,
                row.writes_b,
                pct(row.writes_a, row.writes_b),
                if row.regressed { "  << REGRESSION" } else { "" },
            );
        }
        let (ca, cb): (u64, u64) = self
            .rows
            .iter()
            .fold((0, 0), |(a, b), r| (a + r.cycles_a, b + r.cycles_b));
        let (wa, wb): (u64, u64) = self
            .rows
            .iter()
            .fold((0, 0), |(a, b), r| (a + r.writes_a, b + r.writes_b));
        let _ = writeln!(
            out,
            "{:<24} {:>14} {:>14} {:>8} {:>10} {:>10} {:>8}",
            "total",
            ca,
            cb,
            pct(ca, cb),
            wa,
            wb,
            pct(wa, wb),
        );
        let _ = match self.regressions() {
            0 => writeln!(
                out,
                "no regressions beyond {:.1}% tolerance",
                self.tolerance_pct
            ),
            n => writeln!(
                out,
                "{n} stage(s) regressed beyond {:.1}% tolerance",
                self.tolerance_pct
            ),
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profiler() -> SpanProfiler {
        let mut p = SpanProfiler::new();
        p.charge(Stage::CoreIssue, 1000);
        p.charge(Stage::AesPad, 216);
        p.charge(Stage::DataHmac, 80);
        p.charge(Stage::DrainStage, 400);
        p.charge_write(Stage::WbPersist);
        p.charge_write(Stage::WbPersist);
        p.charge_write(Stage::DrainCommit);
        p
    }

    #[test]
    fn stage_indices_match_declaration_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i, "{stage:?}");
        }
    }

    #[test]
    fn domain_sums_add_up() {
        let p = sample_profiler();
        assert_eq!(p.domain_cycles(Domain::Core), 1000);
        assert_eq!(p.domain_cycles(Domain::Engine), 216 + 80 + 400);
        assert_eq!(p.domain_cycles(Domain::Recovery), 0);
        assert_eq!(p.total_writes(), 3);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let p = sample_profiler();
        let json = p.to_json("ccnvm", "lbm", 100_000);
        let doc = parse_profile(&json).expect("own output parses");
        assert_eq!(doc.design, "ccnvm");
        assert_eq!(doc.bench, "lbm");
        assert_eq!(doc.instructions, 100_000);
        assert_eq!(doc.core_cycles, 1000);
        assert_eq!(doc.engine_cycles, 696);
        assert_eq!(doc.recovery_cycles, 0);
        assert_eq!(doc.nvm_writes, 3);
        assert_eq!(doc.stages.len(), Stage::COUNT);
        let wb = doc.stages.iter().find(|s| s.stage == "wb-persist").unwrap();
        assert_eq!((wb.cycles, wb.nvm_writes, wb.ops), (0, 2, 0));
        let aes = doc.stages.iter().find(|s| s.stage == "aes-pad").unwrap();
        assert_eq!((aes.cycles, aes.domain.as_str()), (216, "engine"));
    }

    #[test]
    fn parser_rejects_foreign_schemas_and_junk() {
        assert!(parse_profile("{\"schema\": \"other/1\"}").is_err());
        assert!(parse_profile("not json").is_err());
        assert!(parse_profile("{\"schema\": \"ccnvm-profile/1\"}").is_err());
    }

    #[test]
    fn identical_profiles_pass_at_zero_tolerance() {
        let json = sample_profiler().to_json("ccnvm", "lbm", 1);
        let doc = parse_profile(&json).unwrap();
        let diff = compare(&doc, &doc, 0.0);
        assert!(!diff.has_regressions(), "{}", diff.render());
    }

    #[test]
    fn injected_regression_is_flagged_within_tolerance_rules() {
        let base = parse_profile(&sample_profiler().to_json("ccnvm", "lbm", 1)).unwrap();
        let mut worse = base.clone();
        // +25% cycles on aes-pad: caught at 5% tolerance, excused at 30%.
        let aes = worse
            .stages
            .iter_mut()
            .find(|s| s.stage == "aes-pad")
            .unwrap();
        aes.cycles = aes.cycles * 5 / 4;
        let diff = compare(&base, &worse, 5.0);
        assert_eq!(diff.regressions(), 1, "{}", diff.render());
        assert!(diff.render().contains("REGRESSION"));
        assert!(!compare(&base, &worse, 30.0).has_regressions());
        // Improvements are never regressions.
        assert!(!compare(&worse, &base, 0.0).has_regressions());
    }

    #[test]
    fn growth_from_zero_is_always_a_regression() {
        let base = parse_profile(&sample_profiler().to_json("ccnvm", "lbm", 1)).unwrap();
        let mut worse = base.clone();
        let reenc = worse
            .stages
            .iter_mut()
            .find(|s| s.stage == "page-reencrypt")
            .unwrap();
        assert_eq!(reenc.cycles, 0);
        reenc.cycles = 7;
        assert!(compare(&base, &worse, 1000.0).has_regressions());
    }

    #[test]
    fn table_groups_by_domain_and_hides_idle_recovery() {
        let table = sample_profiler().render_table();
        assert!(table.contains("-- core"));
        assert!(table.contains("-- engine"));
        assert!(!table.contains("-- recovery"), "{table}");
        let mut p = sample_profiler();
        p.charge(Stage::RecoveryTreeRebuild, 80);
        assert!(p.render_table().contains("-- recovery"));
    }
}
