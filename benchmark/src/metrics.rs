//! Metric definitions (mirrored by `BENCHMARK.json`) and the order
//! statistics every report uses.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// Whether `a` is strictly better than `b`.
    pub fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }
}

/// One published metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: Option<f64>,
    /// A pure function of the seed (simulated, not host, time): runs of
    /// two commits at one seed must agree exactly. The bound then only
    /// covers the spread across seeds.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        exact: true,
        ..e2e(name, unit, better, bound)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("sim_minstr_per_s", "Minstr/s", Higher, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("latency_ms_p90", "ms", Lower, 0.25),
    exact("sim_ipc", "instr/cycle", Higher, 0.05),
    exact("nvm_lines_per_ki", "lines/kinstr", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

/// Per-layer metrics, printed by traced runs. Traced runs compute more
/// (per-call latencies of the layers a workload may not use at all);
/// those go to the result artifact only.
pub const PER_LAYER: &[MetricDef] = &[
    layer("trace.ns_per_op", "ns", Lower),
    layer("trace.share", "%", Lower),
    layer("l1.ns_per_access", "ns", Lower),
    layer("l1.share", "%", Lower),
    layer("l1.hit_rate", "%", Higher),
    layer("l2.ns_per_access", "ns", Lower),
    layer("l2.share", "%", Lower),
    layer("l2.hit_rate", "%", Higher),
    layer("l2.misses_per_kinstr", "1/kinstr", Lower),
    layer("sim.self_ns_per_op", "ns", Lower),
    layer("sim.self_share", "%", Lower),
    layer("read.per_kinstr", "1/kinstr", Lower),
    layer("read.ns_p50", "ns", Lower),
    layer("read.ns_p99", "ns", Lower),
    layer("read.share", "%", Lower),
    layer("read.hmacs_per_call", "count", Lower),
    layer("read.nvm_reads_per_call", "count", Lower),
    layer("wb.per_kinstr", "1/kinstr", Lower),
    layer("wb.share", "%", Lower),
    layer("wb.hmacs_per_call", "count", Lower),
    layer("wb.aes_per_call", "count", Lower),
    layer("wb.nvm_writes_per_call", "count", Lower),
    layer("wb.stall_cycles_per_call", "cycles", Lower),
    layer("drain.per_kwb", "1/kwb", Lower),
    layer("drain.share", "%", Lower),
    layer("drain.meta_writes_per_drain", "count", Lower),
    layer("meta.hit_rate", "%", Higher),
    layer("meta.misses_per_kinstr", "1/kinstr", Lower),
    layer("crypto.hmacs_per_kinstr", "1/kinstr", Lower),
    layer("crypto.aes_per_kinstr", "1/kinstr", Lower),
    layer("crypto.hmac_ns", "ns", Lower),
    layer("crypto.hmac_batch_ns_per_mac", "ns", Lower),
    layer("crypto.aes_ns", "ns", Lower),
    layer("crypto.est_share", "%", Lower),
    layer("nvm.reads_per_kinstr", "1/kinstr", Lower),
    layer("nvm.writes_per_kinstr", "1/kinstr", Lower),
    layer("nvm.read_wait_cycles_per_read", "cycles", Lower),
    layer("nvm.wpq_wait_cycles_per_kinstr", "cycles/kinstr", Lower),
    layer("file.fsyncs_per_wb", "count", Lower),
    layer("file.bytes_per_wb", "B", Lower),
    layer("file.compactions_per_cycle", "count", Lower),
    layer("file.overhead_share", "%", Lower),
    layer("restart.open_share", "%", Lower),
    layer("restart.recover_share", "%", Lower),
    layer("recover.lines_per_image", "count", Lower),
    layer("recover.retries_per_image", "count", Lower),
    layer("recover.sim_cycles_p50", "cycles", Lower),
    layer("obs.recorder.overhead_pct", "%", Lower),
    layer("obs.profiler.overhead_pct", "%", Lower),
    layer("obs.metrics.overhead_pct", "%", Lower),
    layer("obs.auditor.overhead_pct", "%", Lower),
    layer("obs.flight.overhead_pct", "%", Lower),
    layer("obs.wear.overhead_pct", "%", Lower),
    layer("obs.lag.overhead_pct", "%", Lower),
    layer("obs.all.overhead_pct", "%", Lower),
    layer("tracing.span_cost_ns", "ns", Lower),
    layer("tracing.overhead_pct", "%", Lower),
    layer("tracing.residual_pct", "%", Lower),
];

/// The published definition of `name`, if any.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
}

/// Collects a run's metrics in the order they are computed.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name = value` with `unit`.
    pub fn put(&mut self, name: &str, unit: &str, value: f64) {
        self.0.push(Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
        });
    }

    /// Records a published metric under its defined unit.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a published metric (a benchmark bug).
    pub fn publish(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("{name} is not a published metric"));
        self.put(name, d.unit, value);
    }

    /// The metrics of `defs`, in that order.
    ///
    /// # Errors
    ///
    /// Names the first definition that was never recorded, or whose
    /// value is not a finite number.
    pub fn select(&self, defs: &[MetricDef]) -> Result<Vec<Metric>, String> {
        defs.iter()
            .map(|d| {
                let m = self
                    .0
                    .iter()
                    .find(|m| m.name == d.name)
                    .ok_or_else(|| format!("metric {} was not measured", d.name))?;
                if m.value.is_finite() {
                    Ok(m.clone())
                } else {
                    Err(format!("metric {} is {}", d.name, m.value))
                }
            })
            .collect()
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p * sorted.len() as f64 / 100.0).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which
/// is how the benchmark's spread rule is stated.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let s = sorted(values);
    let ld = s.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Geometric mean of positive `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `part / whole` as a percentage (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// `num / den` (0 when `den` is 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_a_sorted_reference() {
        let data: Vec<f64> = (1..=20).map(f64::from).rev().collect();
        let s = sorted(&data);
        // Nearest rank: the ceil(p/100 * n)-th smallest value.
        for (p, want) in [
            (5.0, 1.0),
            (50.0, 10.0),
            (90.0, 18.0),
            (99.0, 20.0),
            (100.0, 20.0),
        ] {
            assert_eq!(percentile(&s, p), want, "p{p}");
        }
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        let s = sorted(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(percentile(&s, 25.0), 1.0);
        assert_eq!(percentile(&s, 26.0), 2.0);
    }

    #[test]
    fn quartiles_follow_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let better = match d.better {
                Higher => "higher",
                Lower => "lower",
            };
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
                d.name, d.unit
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn published_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
