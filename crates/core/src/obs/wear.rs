//! Write-provenance ledger and per-line wear telemetry.
//!
//! The paper's headline claim is *write-efficiency*: cc-NVM wins by
//! persisting fewer security-metadata lines per epoch than strict
//! schemes (Fig. 5b), and NVM lifetime is decided by the hottest cell,
//! not the average. Aggregate counters cannot show *which cause*
//! produced each NVM line-write — this module can: every line-write
//! that reaches the memory controller is tagged at its source with a
//! typed [`WriteCause`], and the [`WearLedger`] keeps one counter per
//! cause (BMT causes per tree level).
//!
//! The attribution set is closed under a hard conservation invariant:
//!
//! > sum of attributed writes == `MemStats::total_writes()`
//!
//! i.e. every array write the controller counted (regular write queue
//! plus ADR-protected WPQ) was tagged exactly once. With an auditor
//! attached the invariant is re-checked at every audit point
//! ([`AuditCheck::WearConservation`](crate::obs::audit::AuditCheck));
//! a desync means a hook was missed or double-counted.
//!
//! Per-address wear itself (which lines are aging) is ground truth the
//! [`MemController`](ccnvm_mem::MemController) already tracks; the
//! exported [`WearReport`] joins that map (hot-line top-K, per-line
//! write histogram) with the ledger's per-cause attribution, the
//! durability-lag summary from [`obs::lag`](crate::obs::lag), the TCB
//! register-update counters (ROOT alternations and `N_wb` bumps are
//! register writes, *not* NVM line-writes, so they sit outside the
//! conservation sum), and the durable backend's host-I/O counters
//! (commit-log/manifest traffic for the file backend; zeros in
//! memory). The report serializes as `ccnvm-wear/1` — the repo's
//! integer-only JSON subset, byte-stable across host thread counts
//! and crypto tiers.

use crate::layout::MAX_TREE_LEVELS;
use crate::obs::json::{self, Json};
use crate::obs::lag::LagSummary;
use std::fmt::Write as _;

/// Schema tag embedded in (and required of) every wear export.
pub const WEAR_SCHEMA: &str = "ccnvm-wear/1";

/// Hot lines retained in the exported report.
pub const TOP_K: usize = 8;

/// Bucket bounds of the per-line write histogram (writes endured by a
/// line; buckets `<2, <4, …, <256, >=256`).
pub const WEAR_HIST_BOUNDS: [u64; 8] = [2, 4, 8, 16, 32, 64, 128, 256];

/// Why an NVM line-write happened, tagged at the call site that issued
/// it. Together the causes partition every controller-counted write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteCause {
    /// A write-back's encrypted data line.
    Data,
    /// A write-back's data-HMAC line share.
    DataHmac,
    /// A counter line persisted eagerly (strict designs' per-write-back
    /// persists, Osiris stop-loss, dirty Meta Cache evictions).
    Counter,
    /// A counter line retired through the ADR-protected WPQ at drain.
    CounterWpq,
    /// A BMT node at `level` persisted eagerly (1-based; level 1 is the
    /// lowest internal level).
    Bmt(usize),
    /// A BMT node at `level` retired through the WPQ at drain.
    BmtWpq(usize),
    /// Any line rewritten by a page re-encryption sweep (data, HMAC and
    /// counter lines of the overflowing page).
    PageReencrypt,
}

impl WriteCause {
    /// The cause of one metadata line-write at tree `level` (counter
    /// lines are level 0); `wpq` selects the drain-retire variants.
    pub(crate) fn meta(level: usize, wpq: bool) -> Self {
        match (level, wpq) {
            (0, false) => WriteCause::Counter,
            (0, true) => WriteCause::CounterWpq,
            (l, false) => WriteCause::Bmt(l),
            (l, true) => WriteCause::BmtWpq(l),
        }
    }
}

/// Per-cause write attribution for one secure-memory instance.
#[derive(Debug, Clone)]
pub struct WearLedger {
    /// Internal BMT levels of the owning layout (export range
    /// `1..=levels`).
    levels: usize,
    data: u64,
    data_hmac: u64,
    counter: u64,
    counter_wpq: u64,
    page_reencrypt: u64,
    bmt: [u64; MAX_TREE_LEVELS + 1],
    bmt_wpq: [u64; MAX_TREE_LEVELS + 1],
    root_alternations: u64,
    nwb_updates: u64,
}

impl WearLedger {
    /// Creates an empty ledger for a tree of `levels` internal levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels` exceeds [`MAX_TREE_LEVELS`].
    pub fn new(levels: usize) -> Self {
        assert!(levels <= MAX_TREE_LEVELS, "tree deeper than the layout cap");
        Self {
            levels,
            data: 0,
            data_hmac: 0,
            counter: 0,
            counter_wpq: 0,
            page_reencrypt: 0,
            bmt: [0; MAX_TREE_LEVELS + 1],
            bmt_wpq: [0; MAX_TREE_LEVELS + 1],
            root_alternations: 0,
            nwb_updates: 0,
        }
    }

    /// Internal BMT levels this ledger attributes over.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Attributes one NVM line-write to `cause`.
    #[inline]
    pub fn charge(&mut self, cause: WriteCause) {
        match cause {
            WriteCause::Data => self.data += 1,
            WriteCause::DataHmac => self.data_hmac += 1,
            WriteCause::Counter => self.counter += 1,
            WriteCause::CounterWpq => self.counter_wpq += 1,
            WriteCause::Bmt(level) => self.bmt[level.min(MAX_TREE_LEVELS)] += 1,
            WriteCause::BmtWpq(level) => self.bmt_wpq[level.min(MAX_TREE_LEVELS)] += 1,
            WriteCause::PageReencrypt => self.page_reencrypt += 1,
        }
    }

    /// Notes one `ROOT_old ← ROOT_new` alternation (a TCB register
    /// write, outside the NVM conservation sum).
    #[inline]
    pub fn note_root_alternation(&mut self) {
        self.root_alternations += 1;
    }

    /// Notes one persistent `N_wb` register bump (outside the NVM
    /// conservation sum).
    #[inline]
    pub fn note_nwb_update(&mut self) {
        self.nwb_updates += 1;
    }

    /// ROOT alternations noted so far.
    pub fn root_alternations(&self) -> u64 {
        self.root_alternations
    }

    /// `N_wb` register bumps noted so far.
    pub fn nwb_updates(&self) -> u64 {
        self.nwb_updates
    }

    /// Sum of every attributed line-write — must equal
    /// `MemStats::total_writes()` whenever the ledger is attached.
    pub fn attributed_total(&self) -> u64 {
        self.data
            + self.data_hmac
            + self.counter
            + self.counter_wpq
            + self.page_reencrypt
            + self.bmt.iter().sum::<u64>()
            + self.bmt_wpq.iter().sum::<u64>()
    }

    /// Every cause with its attributed count, in the fixed export
    /// order (BMT levels `1..=levels`).
    pub fn causes(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("data".to_string(), self.data),
            ("data-hmac".to_string(), self.data_hmac),
            ("counter".to_string(), self.counter),
            ("counter-wpq".to_string(), self.counter_wpq),
            ("page-reencrypt".to_string(), self.page_reencrypt),
        ];
        for level in 1..=self.levels {
            out.push((format!("bmt-l{level}"), self.bmt[level]));
        }
        for level in 1..=self.levels {
            out.push((format!("bmt-wpq-l{level}"), self.bmt_wpq[level]));
        }
        out
    }

    /// Skews the attribution by one phantom data write — a deliberate
    /// conservation break for the strict-audit negative tests.
    pub fn inject_attribution_skew(&mut self) {
        self.data += 1;
    }
}

/// Host-I/O counters of the durable backend (the commit-log/manifest
/// traffic of [`FileBackend`](ccnvm_mem::FileBackend); all zero for
/// in-memory backends, which have no host-I/O side).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostIo {
    /// Records appended to the commit log.
    pub appends: u64,
    /// fsync calls issued on the log.
    pub fsyncs: u64,
    /// Manifest compactions performed.
    pub compactions: u64,
    /// Bytes written to the log.
    pub bytes_written: u64,
}

/// The joined wear/provenance/lag view of one run, serializable as
/// `ccnvm-wear/1`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WearReport {
    /// Design slug (parseable by `DesignKind::from_str`).
    pub design: String,
    /// Workload name.
    pub bench: String,
    /// Instructions retired.
    pub instructions: u64,
    /// `MemStats::total_writes()` — the controller's ground truth.
    pub total_writes: u64,
    /// The ledger's attributed sum (equals `total_writes` when the
    /// conservation invariant holds).
    pub attributed_writes: u64,
    /// `(cause, writes)` in the fixed ledger order.
    pub causes: Vec<(String, u64)>,
    /// Distinct lines ever written.
    pub lines_written: u64,
    /// Writes endured by the hottest line.
    pub max_line_writes: u64,
    /// The hottest line's address.
    pub hottest_line: u64,
    /// Mean writes per written line, in thousandths.
    pub mean_line_writes_milli: u64,
    /// Lines per [`WEAR_HIST_BOUNDS`] bucket (plus overflow).
    pub wear_histogram: Vec<u64>,
    /// `(line, writes)` for the [`TOP_K`] hottest lines, hottest first
    /// (ties to the lowest address).
    pub hot_lines: Vec<(u64, u64)>,
    /// Durability-lag distribution (zeros when no tracer was attached).
    pub lag: LagSummary,
    /// ROOT alternations (TCB register writes).
    pub root_alternations: u64,
    /// `N_wb` register bumps (TCB register writes).
    pub nwb_updates: u64,
    /// Durable-backend host I/O.
    pub host_io: HostIo,
}

impl WearReport {
    /// Whether every controller-counted write was attributed exactly
    /// once.
    pub fn conserved(&self) -> bool {
        self.total_writes == self.attributed_writes
    }

    /// Attributed share of `cause` in parts per million of all writes.
    pub fn share_ppm(&self, writes: u64) -> u64 {
        (writes * 1_000_000)
            .checked_div(self.total_writes)
            .unwrap_or(0)
    }

    /// Serializes as `ccnvm-wear/1` (stable field order, integers
    /// only, trailing newline) — byte-identical for identical runs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{WEAR_SCHEMA}\",");
        let _ = writeln!(out, "  \"design\": \"{}\",", self.design);
        let _ = writeln!(out, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(out, "  \"instructions\": {},", self.instructions);
        let _ = writeln!(out, "  \"total_writes\": {},", self.total_writes);
        let _ = writeln!(out, "  \"attributed_writes\": {},", self.attributed_writes);
        let _ = writeln!(out, "  \"causes\": [");
        for (i, (cause, writes)) in self.causes.iter().enumerate() {
            let comma = if i + 1 < self.causes.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"cause\": \"{cause}\", \"writes\": {writes}, \"share_ppm\": {}}}{comma}",
                self.share_ppm(*writes)
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"wear\": {{");
        let _ = writeln!(out, "    \"lines_written\": {},", self.lines_written);
        let _ = writeln!(out, "    \"max_line_writes\": {},", self.max_line_writes);
        let _ = writeln!(out, "    \"hottest_line\": {},", self.hottest_line);
        let _ = writeln!(
            out,
            "    \"mean_line_writes_milli\": {},",
            self.mean_line_writes_milli
        );
        let _ = write!(out, "    \"histogram_bounds\": [");
        for (i, b) in WEAR_HIST_BOUNDS.iter().enumerate() {
            let _ = write!(out, "{}{b}", if i > 0 { ", " } else { "" });
        }
        let _ = writeln!(out, "],");
        let _ = write!(out, "    \"histogram_lines\": [");
        for (i, c) in self.wear_histogram.iter().enumerate() {
            let _ = write!(out, "{}{c}", if i > 0 { ", " } else { "" });
        }
        let _ = writeln!(out, "],");
        let _ = writeln!(out, "    \"hot_lines\": [");
        for (i, (line, writes)) in self.hot_lines.iter().enumerate() {
            let comma = if i + 1 < self.hot_lines.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "      {{\"line\": {line}, \"writes\": {writes}}}{comma}"
            );
        }
        let _ = writeln!(out, "    ]");
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"lag\": {{");
        let _ = writeln!(out, "    \"resolved\": {},", self.lag.resolved);
        let _ = writeln!(out, "    \"unresolved\": {},", self.lag.unresolved);
        let _ = writeln!(out, "    \"p50\": {},", self.lag.p50);
        let _ = writeln!(out, "    \"p99\": {},", self.lag.p99);
        let _ = writeln!(out, "    \"p999\": {},", self.lag.p999);
        let _ = writeln!(out, "    \"mean\": {},", self.lag.mean);
        let _ = writeln!(out, "    \"max\": {}", self.lag.max);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"tcb\": {{");
        let _ = writeln!(
            out,
            "    \"root_alternations\": {},",
            self.root_alternations
        );
        let _ = writeln!(out, "    \"nwb_updates\": {}", self.nwb_updates);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"host_io\": {{");
        let _ = writeln!(out, "    \"appends\": {},", self.host_io.appends);
        let _ = writeln!(out, "    \"fsyncs\": {},", self.host_io.fsyncs);
        let _ = writeln!(out, "    \"compactions\": {},", self.host_io.compactions);
        let _ = writeln!(out, "    \"bytes_written\": {}", self.host_io.bytes_written);
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }
}

fn num(doc: &Json, field: &str) -> Result<u64, String> {
    doc.num_field(field).map_err(|e| e.to_string())
}

/// Parses a `ccnvm-wear/1` document.
///
/// # Errors
///
/// Returns a description of the first structural problem: invalid
/// JSON, a foreign schema, or a missing/mistyped field.
pub fn parse_wear(text: &str) -> Result<WearReport, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.str_field("schema") {
        Ok(s) if s == WEAR_SCHEMA => {}
        Ok(other) => return Err(format!("foreign schema {other:?}")),
        Err(e) => return Err(e.to_string()),
    }
    let mut report = WearReport {
        design: doc.str_field("design").map_err(|e| e.to_string())?.into(),
        bench: doc.str_field("bench").map_err(|e| e.to_string())?.into(),
        instructions: num(&doc, "instructions")?,
        total_writes: num(&doc, "total_writes")?,
        attributed_writes: num(&doc, "attributed_writes")?,
        ..WearReport::default()
    };
    let causes = doc
        .get("causes")
        .and_then(Json::as_arr)
        .ok_or("causes must be an array")?;
    for entry in causes {
        report.causes.push((
            entry.str_field("cause").map_err(|e| e.to_string())?.into(),
            num(entry, "writes")?,
        ));
    }
    let wear = doc.get("wear").ok_or("missing wear object")?;
    report.lines_written = num(wear, "lines_written")?;
    report.max_line_writes = num(wear, "max_line_writes")?;
    report.hottest_line = num(wear, "hottest_line")?;
    report.mean_line_writes_milli = num(wear, "mean_line_writes_milli")?;
    report.wear_histogram = wear
        .get("histogram_lines")
        .and_then(Json::as_arr)
        .ok_or("histogram_lines must be an array")?
        .iter()
        .map(|v| v.as_num().ok_or("histogram entries must be integers"))
        .collect::<Result<_, _>>()?;
    for entry in wear
        .get("hot_lines")
        .and_then(Json::as_arr)
        .ok_or("hot_lines must be an array")?
    {
        report
            .hot_lines
            .push((num(entry, "line")?, num(entry, "writes")?));
    }
    let lag = doc.get("lag").ok_or("missing lag object")?;
    report.lag = LagSummary {
        resolved: num(lag, "resolved")?,
        unresolved: num(lag, "unresolved")?,
        p50: num(lag, "p50")?,
        p99: num(lag, "p99")?,
        p999: num(lag, "p999")?,
        mean: num(lag, "mean")?,
        max: num(lag, "max")?,
    };
    let tcb = doc.get("tcb").ok_or("missing tcb object")?;
    report.root_alternations = num(tcb, "root_alternations")?;
    report.nwb_updates = num(tcb, "nwb_updates")?;
    let io = doc.get("host_io").ok_or("missing host_io object")?;
    report.host_io = HostIo {
        appends: num(io, "appends")?,
        fsyncs: num(io, "fsyncs")?,
        compactions: num(io, "compactions")?,
        bytes_written: num(io, "bytes_written")?,
    };
    Ok(report)
}

/// Renders a parsed report as the `report --wear` table.
pub fn render_report(report: &WearReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wear report — {} on {} ({} instructions)",
        report.design, report.bench, report.instructions
    );
    let _ = writeln!(
        out,
        "NVM line-writes {}  attributed {}  conservation {}",
        report.total_writes,
        report.attributed_writes,
        if report.conserved() { "OK" } else { "BROKEN" }
    );
    let _ = writeln!(out, "\n{:<16}{:>12}{:>10}", "cause", "writes", "share");
    for (cause, writes) in &report.causes {
        if *writes == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{cause:<16}{writes:>12}{:>9.2}%",
            report.share_ppm(*writes) as f64 / 10_000.0
        );
    }
    let _ = writeln!(
        out,
        "\nwear: {} lines written, hottest line {} at {} writes (mean {:.3})",
        report.lines_written,
        report.hottest_line,
        report.max_line_writes,
        report.mean_line_writes_milli as f64 / 1_000.0
    );
    for (line, writes) in &report.hot_lines {
        let _ = writeln!(out, "  line {line:<12} {writes} writes");
    }
    let _ = writeln!(
        out,
        "\ndurability lag (cycles): resolved {}  unresolved {}",
        report.lag.resolved, report.lag.unresolved
    );
    let _ = writeln!(
        out,
        "  p50 {}  p99 {}  p999 {}  mean {}  max {}",
        report.lag.p50, report.lag.p99, report.lag.p999, report.lag.mean, report.lag.max
    );
    let _ = writeln!(
        out,
        "tcb: {} root alternations, {} nwb updates",
        report.root_alternations, report.nwb_updates
    );
    let _ = writeln!(
        out,
        "host io: {} appends, {} fsyncs, {} compactions, {} bytes",
        report.host_io.appends,
        report.host_io.fsyncs,
        report.host_io.compactions,
        report.host_io.bytes_written
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> WearReport {
        let mut ledger = WearLedger::new(4);
        ledger.charge(WriteCause::Data);
        ledger.charge(WriteCause::Data);
        ledger.charge(WriteCause::DataHmac);
        ledger.charge(WriteCause::Counter);
        ledger.charge(WriteCause::CounterWpq);
        ledger.charge(WriteCause::Bmt(2));
        ledger.charge(WriteCause::BmtWpq(4));
        ledger.charge(WriteCause::PageReencrypt);
        ledger.note_root_alternation();
        ledger.note_nwb_update();
        WearReport {
            design: "ccnvm".into(),
            bench: "lbm".into(),
            instructions: 1000,
            total_writes: 8,
            attributed_writes: ledger.attributed_total(),
            causes: ledger.causes(),
            lines_written: 5,
            max_line_writes: 3,
            hottest_line: 17,
            mean_line_writes_milli: 1600,
            wear_histogram: vec![3, 2, 0, 0, 0, 0, 0, 0, 0],
            hot_lines: vec![(17, 3), (4, 2)],
            lag: LagSummary {
                resolved: 6,
                unresolved: 1,
                p50: 127,
                p99: 511,
                p999: 511,
                mean: 130,
                max: 498,
            },
            root_alternations: ledger.root_alternations(),
            nwb_updates: ledger.nwb_updates(),
            host_io: HostIo {
                appends: 12,
                fsyncs: 3,
                compactions: 1,
                bytes_written: 4096,
            },
        }
    }

    #[test]
    fn ledger_attributes_every_charge_exactly_once() {
        let mut l = WearLedger::new(3);
        assert_eq!(l.attributed_total(), 0);
        for cause in [
            WriteCause::Data,
            WriteCause::DataHmac,
            WriteCause::Counter,
            WriteCause::CounterWpq,
            WriteCause::Bmt(1),
            WriteCause::Bmt(3),
            WriteCause::BmtWpq(2),
            WriteCause::PageReencrypt,
        ] {
            l.charge(cause);
        }
        assert_eq!(l.attributed_total(), 8);
        let causes = l.causes();
        assert_eq!(causes.iter().map(|(_, n)| n).sum::<u64>(), 8);
        // Fixed order: scalar causes, then bmt by level, then wpq.
        assert_eq!(causes[0].0, "data");
        assert_eq!(causes[4].0, "page-reencrypt");
        assert_eq!(causes[5].0, "bmt-l1");
        assert_eq!(causes[8].0, "bmt-wpq-l1");
        assert_eq!(causes.len(), 5 + 3 + 3);
    }

    #[test]
    fn register_notes_stay_outside_conservation() {
        let mut l = WearLedger::new(2);
        l.note_root_alternation();
        l.note_nwb_update();
        assert_eq!(l.attributed_total(), 0);
        assert_eq!((l.root_alternations(), l.nwb_updates()), (1, 1));
    }

    #[test]
    fn injected_skew_breaks_conservation_visibly() {
        let mut l = WearLedger::new(2);
        l.charge(WriteCause::Data);
        let before = l.attributed_total();
        l.inject_attribution_skew();
        assert_eq!(l.attributed_total(), before + 1);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let report = sample_report();
        let text = report.to_json();
        assert!(text.ends_with("}\n"));
        let parsed = parse_wear(&text).expect("own output must parse");
        assert_eq!(parsed, report);
        // Byte-stable: serializing the parse reproduces the input.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn parser_rejects_foreign_schemas_and_junk() {
        assert!(parse_wear("not json").is_err());
        assert!(parse_wear("{\"schema\": \"ccnvm-profile/1\"}")
            .unwrap_err()
            .contains("foreign"));
        assert!(parse_wear("{\"design\": \"ccnvm\"}").is_err());
    }

    #[test]
    fn report_checks_conservation_and_shares() {
        let mut r = sample_report();
        assert!(r.conserved());
        assert_eq!(r.share_ppm(4), 500_000);
        r.attributed_writes += 1;
        assert!(!r.conserved());
        r.total_writes = 0;
        assert_eq!(r.share_ppm(4), 0);
    }

    #[test]
    fn rendered_report_mentions_every_section() {
        let text = render_report(&sample_report());
        for needle in [
            "conservation OK",
            "data",
            "hottest line 17",
            "durability lag",
            "p999",
            "root alternations",
            "host io",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
