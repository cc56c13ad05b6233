//! Output formats: the one-line summary (the last line of stdout), the
//! result artifact written under `--out`, and the span sample of traced
//! runs. Artifacts carry metric values as decimal strings, so they stay
//! inside the JSON subset `ccnvm::obs::json` reads back.

use crate::metrics::Metric;
use crate::traced::Span;
use ccnvm::obs::json::{self, Json};
use std::fmt::Write as _;

/// Artifact schema tag.
pub const SCHEMA: &str = "ccnvm-benchmark/1";

/// What produced a result; `compare` refuses to pair results whose
/// provenance differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Traced run.
    pub traced: bool,
    /// Smoke run.
    pub smoke: bool,
    /// Requested measuring time.
    pub seconds: u64,
    /// Resolved crypto tier.
    pub crypto_tier: String,
    /// Budget description (see `Workload::budget_label`).
    pub budget: String,
    /// Hash of the embedded reference.
    pub reference_hash: String,
}

/// A whole result.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Provenance.
    pub provenance: Provenance,
    /// Every op passed every check.
    pub correct: bool,
    /// Ops run.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The published metrics of the run's kind.
    pub metrics: Vec<Metric>,
    /// Everything else the run computed.
    pub extra: Vec<Metric>,
}

/// The summary line: `{"correct", "attempted", "failed", "metrics"}`
/// with every value a JSON number.
pub fn summary_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn metric_object(out: &mut String, key: &str, metrics: &[Metric]) {
    let _ = write!(out, "  \"{key}\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"value\": \"{}\", \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("\n  }");
}

/// Renders an artifact as JSON.
pub fn write_artifact(a: &Artifact) -> String {
    let p = &a.provenance;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"workload\": \"{}\",", p.workload);
    let _ = writeln!(out, "  \"seed\": {},", p.seed);
    let _ = writeln!(out, "  \"traced\": {},", p.traced);
    let _ = writeln!(out, "  \"smoke\": {},", p.smoke);
    let _ = writeln!(out, "  \"seconds\": {},", p.seconds);
    let _ = writeln!(out, "  \"crypto_tier\": \"{}\",", p.crypto_tier);
    let _ = writeln!(out, "  \"budget\": \"{}\",", p.budget);
    let _ = writeln!(out, "  \"reference_hash\": \"{}\",", p.reference_hash);
    let _ = writeln!(out, "  \"correct\": {},", a.correct);
    let _ = writeln!(out, "  \"attempted\": {},", a.attempted);
    let _ = writeln!(out, "  \"failed\": {},", a.failed);
    metric_object(&mut out, "metrics", &a.metrics);
    out.push_str(",\n");
    metric_object(&mut out, "extra", &a.extra);
    out.push_str("\n}\n");
    out
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean field {key:?}")),
    }
}

fn metrics_field(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let Some(Json::Obj(fields)) = doc.get(key) else {
        return Err(format!("missing object field {key:?}"));
    };
    fields
        .iter()
        .map(|(name, m)| {
            let value = m.str_field("value")?;
            Ok(Metric {
                name: name.clone(),
                unit: m.str_field("unit")?.to_owned(),
                value: value
                    .parse()
                    .map_err(|_| format!("metric {name}: bad value {value:?}"))?,
            })
        })
        .collect()
}

/// Parses an artifact written by [`write_artifact`].
///
/// # Errors
///
/// Describes the first missing or malformed field.
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let doc = json::parse(text)?;
    if doc.str_field("schema")? != SCHEMA {
        return Err(format!("not a {SCHEMA} artifact"));
    }
    Ok(Artifact {
        provenance: Provenance {
            workload: doc.str_field("workload")?.to_owned(),
            seed: doc.num_field("seed")?,
            traced: bool_field(&doc, "traced")?,
            smoke: bool_field(&doc, "smoke")?,
            seconds: doc.num_field("seconds")?,
            crypto_tier: doc.str_field("crypto_tier")?.to_owned(),
            budget: doc.str_field("budget")?.to_owned(),
            reference_hash: doc.str_field("reference_hash")?.to_owned(),
        },
        correct: bool_field(&doc, "correct")?,
        attempted: doc.num_field("attempted")?,
        failed: doc.num_field("failed")?,
        metrics: metrics_field(&doc, "metrics")?,
        extra: metrics_field(&doc, "extra")?,
    })
}

/// The span sample as JSON lines, one span per line.
pub fn write_spans(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"op\": {}, \"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.name, s.parent, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        }
    }

    #[test]
    fn artifact_round_trips_through_obs_json() {
        let a = Artifact {
            provenance: Provenance {
                workload: "write-heavy".into(),
                seed: 42,
                traced: false,
                smoke: true,
                seconds: 10,
                crypto_tier: "simd".into(),
                budget: "points of [500000, 1500000] instr, 36 pinned".into(),
                reference_hash: "fnv1a64-0123456789abcdef".into(),
            },
            correct: true,
            attempted: 180,
            failed: 0,
            metrics: vec![
                metric("sim_minstr_per_s", "Minstr/s", 19.123_456_789_012_345),
                metric("latency_ms_p50", "ms", 0.1 + 0.2),
                metric("tracing.residual_pct", "%", -3.5e-7),
            ],
            extra: vec![metric("ops", "count", 180.0)],
        };
        let back = parse_artifact(&write_artifact(&a)).expect("parses");
        assert_eq!(back, a, "every digit survives");
    }

    #[test]
    fn summary_line_is_one_json_object_with_numeric_values() {
        let line = summary_line(true, 3, 0, &[metric("setup_s", "s", 0.000_812_7)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.0008127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn spans_are_obs_json_lines() {
        let spans = [Span {
            op: 1000,
            name: "l1",
            parent: "op",
            start_ns: 5,
            end_ns: 9,
        }];
        let text = write_spans(&spans);
        let doc = json::parse(text.trim_end()).expect("parses");
        assert_eq!(doc.num_field("op"), Ok(1000));
        assert_eq!(doc.str_field("name"), Ok("l1"));
        assert_eq!(doc.num_field("end_ns"), Ok(9));
    }
}
