//! Streaming time-series metrics: periodic samples of the secure
//! engine's pressure gauges.
//!
//! [`RunStats`](crate::stats::RunStats) totals and the PR 2 event ring
//! answer *what happened*; this module answers *when*: how Meta Cache
//! dirtiness saturates toward a drain, how WPQ occupancy bursts at a
//! commit, how write amplification converges over an epoch. A
//! [`MetricsRegistry`] holds a bounded ring of [`Sample`]s taken every
//! `interval` *simulated* cycles — never host time — so the exported
//! series is byte-identical at any host thread count, in either HMAC
//! mode, and across runs.
//!
//! Fractions are exported as scaled integers (parts-per-million /
//! milli-units) to keep every serialized value an exact `u64` — no
//! float formatting, no rounding-mode surprises in the byte-identity
//! guarantees.
//!
//! # Example
//!
//! ```
//! use ccnvm::obs::metrics::MetricsConfig;
//! use ccnvm::prelude::*;
//!
//! let mut sim = Simulator::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
//! sim.memory_mut().attach_metrics(MetricsConfig::default());
//! let trace = TraceGenerator::new(profiles::by_name("lbm").unwrap(), 1);
//! sim.run(trace, 20_000).unwrap();
//! let m = sim.memory().metrics().expect("attached");
//! assert!(m.len() > 0);
//! ```

use crate::stats::Histogram;
use ccnvm_mem::{Cycle, Ring};
use std::fmt::Write as _;
use std::io::{self, Write};

/// Default sampling interval (simulated cycles).
pub const DEFAULT_INTERVAL: Cycle = 1000;

/// Sizing knobs for a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Simulated cycles between samples.
    pub interval: Cycle,
    /// Ring-buffer capacity (samples retained).
    pub capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self {
            interval: DEFAULT_INTERVAL,
            capacity: 1 << 16,
        }
    }
}

/// One periodic sample of the engine's pressure gauges. All fields are
/// exact integers; `*_ppm` fields are parts-per-million fractions and
/// `*_milli` fields are thousandths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sample {
    /// The sampling boundary this sample belongs to (a multiple of the
    /// interval; gauges reflect the first state observed at or after
    /// it).
    pub at: Cycle,
    /// Metadata lines resident in the Meta Cache.
    pub meta_resident: u64,
    /// Resident metadata lines currently dirty.
    pub meta_dirty: u64,
    /// Resident fraction of the Meta Cache's line capacity (ppm).
    pub meta_resident_ppm: u64,
    /// Dirty fraction of the Meta Cache's line capacity (ppm).
    pub meta_dirty_ppm: u64,
    /// Dirty address queue reservations outstanding.
    pub dirty_queue_depth: u64,
    /// WPQ entries whose array writes are still in flight.
    pub wpq_occupancy: u64,
    /// Epochs committed so far (drain count).
    pub epochs: u64,
    /// Write-backs accumulated in the current (open) epoch.
    pub epoch_write_backs: u64,
    /// Write-backs completed so far.
    pub write_backs: u64,
    /// NVM line-writes issued so far (data + HMAC + metadata +
    /// re-encryption).
    pub nvm_writes: u64,
    /// Cumulative write amplification: NVM line-writes per write-back,
    /// in thousandths (0 before the first write-back).
    pub write_amp_milli: u64,
    /// Fraction of elapsed cycles spent in the secure engine (ppm).
    pub engine_share_ppm: u64,
    /// NVM line-writes the wear ledger has attributed to a cause so
    /// far (0 when no ledger is attached; equals `nvm_writes` whenever
    /// the conservation invariant holds).
    pub attributed_writes: u64,
    /// Writes endured by the single hottest NVM line so far.
    pub max_line_writes: u64,
    /// Write-backs stamped but not yet covered by a durable commit
    /// (0 when no lag tracer is attached).
    pub lag_pending: u64,
    /// Running 99th-percentile durability lag in simulated cycles, at
    /// power-of-two bucket resolution (0 when no lag tracer is
    /// attached).
    pub lag_p99: u64,
}

/// A named accessor projecting one series out of a [`Sample`].
pub type SeriesAccessor = (&'static str, fn(&Sample) -> u64);

/// Per-series field accessors, shared by the exports and the `report`
/// summarizer. Order matches [`Sample::CSV_HEADER`] after `at`.
pub const SERIES: &[SeriesAccessor] = &[
    ("meta_resident", |s| s.meta_resident),
    ("meta_dirty", |s| s.meta_dirty),
    ("meta_resident_ppm", |s| s.meta_resident_ppm),
    ("meta_dirty_ppm", |s| s.meta_dirty_ppm),
    ("dirty_queue_depth", |s| s.dirty_queue_depth),
    ("wpq_occupancy", |s| s.wpq_occupancy),
    ("epochs", |s| s.epochs),
    ("epoch_write_backs", |s| s.epoch_write_backs),
    ("write_backs", |s| s.write_backs),
    ("nvm_writes", |s| s.nvm_writes),
    ("write_amp_milli", |s| s.write_amp_milli),
    ("engine_share_ppm", |s| s.engine_share_ppm),
    ("attributed_writes", |s| s.attributed_writes),
    ("max_line_writes", |s| s.max_line_writes),
    ("lag_pending", |s| s.lag_pending),
    ("lag_p99", |s| s.lag_p99),
];

impl Sample {
    /// Column names for [`Sample::csv_row`], in order.
    pub const CSV_HEADER: &'static str = "at,meta_resident,meta_dirty,meta_resident_ppm,\
meta_dirty_ppm,dirty_queue_depth,wpq_occupancy,epochs,epoch_write_backs,write_backs,\
nvm_writes,write_amp_milli,engine_share_ppm,attributed_writes,max_line_writes,\
lag_pending,lag_p99";

    /// Serializes the sample as one CSV row matching
    /// [`Sample::CSV_HEADER`].
    pub fn csv_row(&self) -> String {
        let mut row = self.at.to_string();
        for (_, get) in SERIES {
            let _ = write!(row, ",{}", get(self));
        }
        row
    }

    /// Serializes the sample as one JSON object (no trailing newline).
    /// All values are integers, so the output is byte-stable.
    pub fn to_json(&self) -> String {
        let mut obj = format!("{{\"at\":{}", self.at);
        for (name, get) in SERIES {
            let _ = write!(obj, ",\"{name}\":{}", get(self));
        }
        obj.push('}');
        obj
    }
}

/// Bounded ring of periodic [`Sample`]s with drop accounting. Attach
/// with [`SecureMemory::attach_metrics`](crate::secmem::SecureMemory::attach_metrics);
/// the simulator samples it as simulated time crosses each interval
/// boundary.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    interval: Cycle,
    samples: Ring<Sample>,
    next_due: Cycle,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    ///
    /// # Panics
    ///
    /// Panics if the interval or capacity is zero (the CLI rejects
    /// these earlier with a typed error).
    pub fn new(config: MetricsConfig) -> Self {
        assert!(config.interval > 0, "metrics interval must be positive");
        Self {
            interval: config.interval,
            samples: Ring::new(config.capacity),
            next_due: config.interval,
        }
    }

    /// The sampling interval (simulated cycles).
    pub fn interval(&self) -> Cycle {
        self.interval
    }

    /// Whether a sample is due at simulated time `now`.
    #[inline]
    pub fn is_due(&self, now: Cycle) -> bool {
        now >= self.next_due
    }

    /// The interval boundary a sample taken at `now` is stamped with:
    /// the largest multiple of the interval not exceeding `now`. When
    /// a single operation advances time across several boundaries the
    /// intermediate ones are skipped — the engine state never changed
    /// there, so one sample represents the whole stall.
    pub fn boundary(&self, now: Cycle) -> Cycle {
        now - now % self.interval
    }

    /// Records `sample` (stamped by the caller via
    /// [`MetricsRegistry::boundary`]) and re-arms for the boundary
    /// after it, dropping the oldest sample if the ring is full.
    pub fn record(&mut self, sample: Sample) {
        debug_assert!(sample.at >= self.next_due - self.interval);
        self.next_due = sample.at + self.interval;
        self.samples.push(sample);
    }

    /// Buffered samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Samples currently buffered.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.samples.dropped()
    }

    /// Writes the series as CSV: a header row, one row per sample, and
    /// a `footer` row carrying the ring/drop accounting so truncation
    /// is visible in the artifact.
    pub fn write_csv<W: Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(out, "{}", Sample::CSV_HEADER)?;
        for sample in self.samples.iter() {
            writeln!(out, "{}", sample.csv_row())?;
        }
        let pad = ",".repeat(Sample::CSV_HEADER.split(',').count() - 4);
        writeln!(
            out,
            "footer,{},{},{}{pad}",
            self.samples.len(),
            self.samples.dropped(),
            self.interval
        )?;
        Ok(())
    }

    /// Writes the series as JSON-lines: one object per sample plus a
    /// footer record mirroring the CSV export's accounting.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for sample in self.samples.iter() {
            writeln!(out, "{}", sample.to_json())?;
        }
        writeln!(
            out,
            "{{\"metric\":\"footer\",\"samples\":{},\"dropped\":{},\"interval\":{}}}",
            self.samples.len(),
            self.samples.dropped(),
            self.interval
        )?;
        Ok(())
    }
}

/// The ring/drop accounting a metrics export carries in its footer
/// record. `dropped > 0` means the ring overflowed and the series is
/// truncated at the front — summaries over it silently under-report
/// the early run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsFooter {
    /// Samples the export contains.
    pub samples: u64,
    /// Samples dropped because the ring was full.
    pub dropped: u64,
    /// The sampling interval (simulated cycles).
    pub interval: u64,
}

/// Parses a metrics export (either format: the CSV and JSONL exports
/// are auto-detected) back into samples, and the footer's drop
/// accounting (`None` when the export carries no footer record —
/// hand-trimmed files parse but their truncation state is unknown).
///
/// # Errors
///
/// Returns a description of the first malformed row: an unknown CSV
/// header, a non-integer field, a JSONL record missing a series, or a
/// malformed footer record.
pub fn parse_metrics_with_footer(
    text: &str,
) -> Result<(Vec<Sample>, Option<MetricsFooter>), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty()).peekable();
    let first = *lines.peek().ok_or("empty metrics file")?;
    let mut samples = Vec::new();
    let mut footer = None;
    if first.starts_with('{') {
        for (i, line) in lines.enumerate() {
            let at_line = |e: String| format!("line {}: {e}", i + 1);
            let obj = crate::obs::json::parse(line).map_err(at_line)?;
            if obj.get("metric").is_some() {
                let field = |name| obj.num_field(name).map_err(|e| format!("footer: {e}"));
                footer = Some(MetricsFooter {
                    samples: field("samples")?,
                    dropped: field("dropped")?,
                    interval: field("interval")?,
                });
                continue;
            }
            let mut sample = Sample {
                at: obj.num_field("at").map_err(at_line)?,
                ..Sample::default()
            };
            for (name, _) in SERIES {
                set_series(&mut sample, name, obj.num_field(name).map_err(at_line)?);
            }
            samples.push(sample);
        }
    } else {
        if first != Sample::CSV_HEADER {
            return Err(format!("unknown metrics CSV header {first:?}"));
        }
        let columns = Sample::CSV_HEADER.split(',').count();
        for (i, line) in lines.skip(1).enumerate() {
            let fields: Vec<&str> = line.split(',').collect();
            if fields[0] == "footer" {
                if fields.len() < 4 {
                    return Err(format!("footer row too short: {line:?}"));
                }
                let field = |j: usize, name: &str| -> Result<u64, String> {
                    fields[j]
                        .parse()
                        .map_err(|e| format!("footer field {name}: {e}"))
                };
                footer = Some(MetricsFooter {
                    samples: field(1, "samples")?,
                    dropped: field(2, "dropped")?,
                    interval: field(3, "interval")?,
                });
                continue;
            }
            if fields.len() != columns {
                return Err(format!(
                    "row {}: {} fields, expected {columns}",
                    i + 2,
                    fields.len()
                ));
            }
            let mut sample = Sample::default();
            for (field, name) in fields.iter().zip(Sample::CSV_HEADER.split(',')) {
                let v: u64 = field
                    .parse()
                    .map_err(|e| format!("row {}: field {name}: {e}", i + 2))?;
                if name == "at" {
                    sample.at = v;
                } else {
                    set_series(&mut sample, name, v);
                }
            }
            samples.push(sample);
        }
    }
    Ok((samples, footer))
}

/// [`parse_metrics_with_footer`] without the footer.
///
/// # Errors
///
/// Same as [`parse_metrics_with_footer`].
pub fn parse_metrics(text: &str) -> Result<Vec<Sample>, String> {
    parse_metrics_with_footer(text).map(|(samples, _)| samples)
}

fn set_series(sample: &mut Sample, name: &str, v: u64) {
    match name {
        "meta_resident" => sample.meta_resident = v,
        "meta_dirty" => sample.meta_dirty = v,
        "meta_resident_ppm" => sample.meta_resident_ppm = v,
        "meta_dirty_ppm" => sample.meta_dirty_ppm = v,
        "dirty_queue_depth" => sample.dirty_queue_depth = v,
        "wpq_occupancy" => sample.wpq_occupancy = v,
        "epochs" => sample.epochs = v,
        "epoch_write_backs" => sample.epoch_write_backs = v,
        "write_backs" => sample.write_backs = v,
        "nvm_writes" => sample.nvm_writes = v,
        "write_amp_milli" => sample.write_amp_milli = v,
        "engine_share_ppm" => sample.engine_share_ppm = v,
        "attributed_writes" => sample.attributed_writes = v,
        "max_line_writes" => sample.max_line_writes = v,
        "lag_pending" => sample.lag_pending = v,
        "lag_p99" => sample.lag_p99 = v,
        _ => unreachable!("unknown series {name}"),
    }
}

/// Distribution summary of one series over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSummary {
    /// Series (column) name.
    pub name: &'static str,
    /// Smallest sampled value.
    pub min: u64,
    /// Mean over all samples.
    pub mean: f64,
    /// Median (at power-of-two bucket resolution).
    pub p50: u64,
    /// 99th percentile (at power-of-two bucket resolution).
    pub p99: u64,
    /// 99.9th percentile (at power-of-two bucket resolution).
    pub p999: u64,
    /// Largest sampled value.
    pub max: u64,
}

/// Summarizes every series of a sampled run through a power-of-two
/// [`Histogram`] (min tracked exactly alongside).
pub fn summarize(samples: &[Sample]) -> Vec<SeriesSummary> {
    let bounds: Vec<u64> = (0..63).map(|i| 1u64 << i).collect();
    SERIES
        .iter()
        .map(|&(name, get)| {
            let mut h = Histogram::new(&bounds);
            let mut min = u64::MAX;
            for s in samples {
                let v = get(s);
                h.record(v);
                min = min.min(v);
            }
            SeriesSummary {
                name,
                min: if samples.is_empty() { 0 } else { min },
                mean: h.mean(),
                p50: h.percentile(50.0),
                p99: h.percentile(99.0),
                p999: h.percentile(99.9),
                max: h.max(),
            }
        })
        .collect()
}

/// Renders [`summarize`]'s output as an aligned table.
pub fn render_summary(samples: &[Sample]) -> String {
    let mut out = String::new();
    let span = match (samples.first(), samples.last()) {
        (Some(a), Some(b)) => format!("cycles {}..{}", a.at, b.at),
        _ => "no samples".into(),
    };
    let _ = writeln!(out, "metrics samples {} ({span})", samples.len());
    let _ = writeln!(
        out,
        "{:<20} {:>12} {:>14} {:>12} {:>12} {:>12} {:>12}",
        "series", "min", "mean", "p50", "p99", "p999", "max"
    );
    for s in summarize(samples) {
        let _ = writeln!(
            out,
            "{:<20} {:>12} {:>14.1} {:>12} {:>12} {:>12} {:>12}",
            s.name, s.min, s.mean, s.p50, s.p99, s.p999, s.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: Cycle, depth: u64) -> Sample {
        Sample {
            at,
            dirty_queue_depth: depth,
            nvm_writes: depth * 10,
            ..Sample::default()
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut m = MetricsRegistry::new(MetricsConfig {
            interval: 10,
            capacity: 2,
        });
        for i in 1..=3 {
            let at = m.boundary(i * 10);
            assert!(m.is_due(at));
            m.record(sample(at, i));
        }
        assert_eq!(m.len(), 2);
        assert_eq!(m.dropped(), 1);
        assert_eq!(m.samples().next().unwrap().at, 20);
    }

    #[test]
    fn boundary_skips_intermediate_intervals() {
        let m = MetricsRegistry::new(MetricsConfig {
            interval: 100,
            capacity: 8,
        });
        assert!(!m.is_due(99));
        assert!(m.is_due(100));
        assert_eq!(m.boundary(100), 100);
        assert_eq!(m.boundary(7_345), 7_300);
    }

    #[test]
    fn csv_and_jsonl_round_trip_identically() {
        let mut m = MetricsRegistry::new(MetricsConfig {
            interval: 10,
            capacity: 8,
        });
        m.record(sample(10, 3));
        m.record(sample(20, 5));
        let mut csv = Vec::new();
        m.write_csv(&mut csv).unwrap();
        let mut jsonl = Vec::new();
        m.write_jsonl(&mut jsonl).unwrap();
        let a = parse_metrics(std::str::from_utf8(&csv).unwrap()).unwrap();
        let b = parse_metrics(std::str::from_utf8(&jsonl).unwrap()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].dirty_queue_depth, 5);
    }

    #[test]
    fn csv_footer_matches_header_arity() {
        let mut m = MetricsRegistry::new(MetricsConfig {
            interval: 10,
            capacity: 8,
        });
        m.record(sample(10, 1));
        let mut csv = Vec::new();
        m.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        let cols = Sample::CSV_HEADER.split(',').count();
        for line in text.lines() {
            assert_eq!(line.split(',').count(), cols, "row {line:?}");
        }
    }

    #[test]
    fn summary_tracks_min_mean_max() {
        let samples: Vec<Sample> = (1..=4).map(|i| sample(i * 10, i)).collect();
        let summary = summarize(&samples);
        let depth = summary
            .iter()
            .find(|s| s.name == "dirty_queue_depth")
            .unwrap();
        assert_eq!(depth.min, 1);
        assert_eq!(depth.max, 4);
        assert_eq!(depth.mean, 2.5);
        assert!(depth.p50 >= 2, "median of 1..=4 covers at least 2");
        assert!(depth.p50 <= depth.p99);
        assert!(depth.p99 <= depth.p999);
        assert!(depth.p99 >= 4);
    }

    /// Nearest-rank reference for `Histogram::percentile` at the
    /// summarizer's power-of-two bucket resolution: the k-th smallest
    /// observation's bucket upper edge (or the recorded max for the
    /// overflow bucket).
    fn reference_percentile(sorted: &[u64], bounds: &[u64], p: f64) -> u64 {
        let k = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
        let v = sorted[k - 1];
        match bounds.iter().position(|&b| v < b) {
            Some(i) => bounds[i] - 1,
            None => *sorted.last().unwrap(),
        }
    }

    #[test]
    fn summary_percentiles_match_sorted_reference() {
        // Seeded-random series: every percentile column the summarizer
        // reports (p50/p99/p999) must equal the nearest-rank value
        // computed from the fully sorted data at bucket resolution.
        let bounds: Vec<u64> = (0..63).map(|i| 1u64 << i).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..16 {
            let n = 1 + (round * 73) % 1500;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Mix magnitudes: small depths and huge counters alike.
                values.push(match x % 4 {
                    0 => x % 7,
                    1 => x % 1000,
                    2 => x % 1_000_000,
                    _ => x % (1 << 40),
                });
            }
            let samples: Vec<Sample> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| sample((i as u64 + 1) * 10, v))
                .collect();
            let summary = summarize(&samples);
            let depth = summary
                .iter()
                .find(|s| s.name == "dirty_queue_depth")
                .unwrap();
            let mut sorted = values;
            sorted.sort_unstable();
            for (got, p) in [(depth.p50, 50.0), (depth.p99, 99.0), (depth.p999, 99.9)] {
                assert_eq!(
                    got,
                    reference_percentile(&sorted, &bounds, p),
                    "round {round}: p{p} over {} values",
                    sorted.len()
                );
            }
        }
    }

    #[test]
    fn footer_round_trips_in_both_formats() {
        let mut m = MetricsRegistry::new(MetricsConfig {
            interval: 10,
            capacity: 2,
        });
        for i in 1..=3 {
            m.record(sample(i * 10, i));
        }
        assert_eq!(m.dropped(), 1);
        let mut csv = Vec::new();
        m.write_csv(&mut csv).unwrap();
        let mut jsonl = Vec::new();
        m.write_jsonl(&mut jsonl).unwrap();
        let expect = MetricsFooter {
            samples: 2,
            dropped: 1,
            interval: 10,
        };
        let (a, fa) = parse_metrics_with_footer(std::str::from_utf8(&csv).unwrap()).unwrap();
        let (b, fb) = parse_metrics_with_footer(std::str::from_utf8(&jsonl).unwrap()).unwrap();
        assert_eq!(a, b);
        assert_eq!(fa, Some(expect));
        assert_eq!(fb, Some(expect));
        // A footer-less export parses with unknown truncation state.
        let body: String = std::str::from_utf8(&jsonl)
            .unwrap()
            .lines()
            .filter(|l| !l.contains("footer"))
            .map(|l| format!("{l}\n"))
            .collect();
        let (c, fc) = parse_metrics_with_footer(&body).unwrap();
        assert_eq!(c, a);
        assert_eq!(fc, None);
    }

    #[test]
    fn empty_registry_exports_parse_to_no_samples() {
        let m = MetricsRegistry::new(MetricsConfig {
            interval: 10,
            capacity: 2,
        });
        let mut csv = Vec::new();
        m.write_csv(&mut csv).unwrap();
        let mut jsonl = Vec::new();
        m.write_jsonl(&mut jsonl).unwrap();
        for text in [csv, jsonl] {
            let (samples, footer) =
                parse_metrics_with_footer(std::str::from_utf8(&text).unwrap()).unwrap();
            assert!(samples.is_empty());
            assert_eq!(
                footer,
                Some(MetricsFooter {
                    samples: 0,
                    dropped: 0,
                    interval: 10,
                })
            );
        }
    }

    #[test]
    fn malformed_footer_is_rejected_in_both_formats() {
        for short in ["footer", "footer,2,1"] {
            let csv = format!("{}\n{short}\n", Sample::CSV_HEADER);
            let err = parse_metrics_with_footer(&csv).unwrap_err();
            assert!(err.starts_with("footer row too short"), "{err}");
        }
        let jsonl = "{\"metric\":\"footer\",\"samples\":0,\"interval\":10}\n";
        let err = parse_metrics(jsonl).unwrap_err();
        assert!(err.starts_with("footer: "), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_metrics("").is_err());
        assert!(parse_metrics("bogus,header\n1,2\n").is_err());
        let short = format!("{}\n1,2\n", Sample::CSV_HEADER);
        assert!(parse_metrics(&short).is_err());
        assert!(parse_metrics("{\"at\":1}\n").is_err(), "missing series");
    }
}
