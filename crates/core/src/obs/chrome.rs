//! Chrome trace-event export: renders a run's observability state as
//! a JSON document `ui.perfetto.dev` (or `chrome://tracing`) opens
//! directly.
//!
//! The exporter is a pure renderer over data other pillars already
//! collected — the [`Recorder`]'s event ring, its epoch rollups, the
//! [`SpanProfiler`]'s stage totals, recovery timelines, and the
//! metrics sampler's time series — so it adds no hot-path hooks of its
//! own. Simulated cycles are written as the trace's microsecond
//! timestamps (1 cycle = 1 µs of display time).
//!
//! Track layout (one process, pid 1, named `ccnvm`):
//!
//! | tid | track          | events                                        |
//! |-----|----------------|-----------------------------------------------|
//! | 0   | (counters)     | `C` series from queue accepts + metrics       |
//! | 1   | write-backs    | `X` slices per pipeline phase                  |
//! | 2   | drain          | `B`/`E` pairs per drain (stage → commit)      |
//! | 3   | meta-cache     | `i` instants for installs/evictions           |
//! | 4   | epochs         | `X` slices per committed epoch                |
//! | 5   | audit          | `i` instants per invariant violation          |
//! | 6   | recovery       | `X` slices per recovery phase                 |
//! | 7   | profile        | `X` stage-total ribbon (cumulative layout)    |
//! | 8   | durability-lag | `X` crash-vulnerability window per write-back |
//!
//! Everything emitted is integers and fixed lower-case names, so the
//! output is byte-stable and needs no string escaping; events are
//! sorted by `(tid, ts)` so each track's timestamps are monotonic.

use crate::obs::metrics::MetricsRegistry;
use crate::obs::profile::{SpanProfiler, Stage};
use crate::obs::{DrainStage, Event, Recorder};
use crate::recovery::RecoverySpan;
use ccnvm_mem::{Cycle, QueueKind};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};

/// Everything the exporter can render; attach whatever the run
/// collected and leave the rest `None`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChromeTraceInput<'a> {
    /// Event ring + epoch rollups.
    pub recorder: Option<&'a Recorder>,
    /// Periodic gauge samples (rendered as counter tracks).
    pub metrics: Option<&'a MetricsRegistry>,
    /// Stage totals (rendered as a cumulative ribbon).
    pub profile: Option<&'a SpanProfiler>,
    /// Recovery phase timeline.
    pub recovery: Option<&'a [RecoverySpan]>,
    /// Durability-lag spans (rendered as crash-vulnerability windows).
    pub lag: Option<&'a crate::obs::lag::LagTracer>,
}

const TID_COUNTERS: u32 = 0;
const TID_WRITEBACK: u32 = 1;
const TID_DRAIN: u32 = 2;
const TID_META: u32 = 3;
const TID_EPOCHS: u32 = 4;
const TID_AUDIT: u32 = 5;
const TID_RECOVERY: u32 = 6;
const TID_PROFILE: u32 = 7;
const TID_LAG: u32 = 8;

const TRACK_NAMES: [(u32, &str); 9] = [
    (TID_COUNTERS, "counters"),
    (TID_WRITEBACK, "write-backs"),
    (TID_DRAIN, "drain"),
    (TID_META, "meta-cache"),
    (TID_EPOCHS, "epochs"),
    (TID_AUDIT, "audit"),
    (TID_RECOVERY, "recovery"),
    (TID_PROFILE, "profile"),
    (TID_LAG, "durability-lag"),
];

/// One rendered trace event, pre-serialized except for its sort key.
struct Slice {
    tid: u32,
    ts: Cycle,
    json: String,
}

fn args_json(args: &[(&str, u64)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
    out.push('}');
    out
}

fn event_json(
    ph: char,
    name: &str,
    tid: u32,
    ts: Cycle,
    dur: Option<Cycle>,
    args: &[(&str, u64)],
) -> String {
    let mut out =
        format!("{{\"ph\":\"{ph}\",\"name\":\"{name}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}");
    if let Some(d) = dur {
        let _ = write!(out, ",\"dur\":{d}");
    }
    if ph == 'i' {
        // Thread-scoped instant (Perfetto requires an explicit scope).
        out.push_str(",\"s\":\"t\"");
    }
    let _ = write!(out, ",\"args\":{}", args_json(args));
    out.push('}');
    out
}

fn push(slices: &mut Vec<Slice>, tid: u32, ts: Cycle, json: String) {
    slices.push(Slice { tid, ts, json });
}

fn render_recorder(rec: &Recorder, slices: &mut Vec<Slice>) {
    // Per-line previous phase time, to turn phase-completion instants
    // into duration slices.
    let mut wb_prev: HashMap<u64, Cycle> = HashMap::new();
    // Open drain (B emitted, E pending). A drain whose `stage` record
    // was dropped by the ring is skipped rather than emitting an
    // unbalanced E.
    let mut drain_open = false;
    for event in rec.trace().iter() {
        match *event {
            Event::WriteBack { at, phase, line } => match phase {
                crate::obs::WbPhase::Accept => {
                    wb_prev.insert(line.0, at);
                }
                _ => {
                    if let Some(prev) = wb_prev.get(&line.0).copied() {
                        push(
                            slices,
                            TID_WRITEBACK,
                            prev,
                            event_json(
                                'X',
                                phase.name(),
                                TID_WRITEBACK,
                                prev,
                                Some(at.saturating_sub(prev)),
                                &[("line", line.0)],
                            ),
                        );
                        if phase == crate::obs::WbPhase::Persist {
                            wb_prev.remove(&line.0);
                        } else {
                            wb_prev.insert(line.0, at);
                        }
                    }
                }
            },
            Event::Drain {
                at,
                stage,
                trigger,
                lines,
            } => {
                let mut args: Vec<(&str, u64)> = vec![("lines", lines)];
                if let Some(t) = trigger {
                    args.push(("trigger_index", t.index() as u64));
                }
                match stage {
                    DrainStage::Stage => {
                        push(
                            slices,
                            TID_DRAIN,
                            at,
                            event_json('B', "drain", TID_DRAIN, at, None, &args),
                        );
                        drain_open = true;
                    }
                    DrainStage::Commit | DrainStage::Discard => {
                        if drain_open {
                            push(
                                slices,
                                TID_DRAIN,
                                at,
                                event_json('E', "drain", TID_DRAIN, at, None, &args),
                            );
                            drain_open = false;
                        }
                    }
                }
            }
            Event::Meta { at, action, line } => {
                push(
                    slices,
                    TID_META,
                    at,
                    event_json('i', action.name(), TID_META, at, None, &[("line", line.0)]),
                );
            }
            Event::Queue {
                at,
                queue,
                occupancy,
                ..
            } => {
                let name = match queue {
                    QueueKind::Read => "read-queue",
                    QueueKind::Write => "write-queue",
                    QueueKind::Wpq => "wpq-queue",
                };
                push(
                    slices,
                    TID_COUNTERS,
                    at,
                    event_json(
                        'C',
                        name,
                        TID_COUNTERS,
                        at,
                        None,
                        &[("occupancy", occupancy)],
                    ),
                );
            }
            // Epochs are rendered from the rollup ring below, which
            // carries the start cycle the trace event lacks.
            Event::Epoch { .. } => {}
            Event::Audit {
                at,
                check,
                point: _,
            } => {
                push(
                    slices,
                    TID_AUDIT,
                    at,
                    event_json('i', check.name(), TID_AUDIT, at, None, &[]),
                );
            }
        }
    }
    for rollup in rec.epochs() {
        push(
            slices,
            TID_EPOCHS,
            rollup.start,
            event_json(
                'X',
                "epoch",
                TID_EPOCHS,
                rollup.start,
                Some(rollup.duration()),
                &[
                    ("index", rollup.index),
                    ("lines", rollup.lines_drained),
                    ("write_backs", rollup.write_backs),
                    ("wpq_high_water", rollup.wpq_high_water),
                    ("trigger_index", rollup.trigger.index() as u64),
                ],
            ),
        );
    }
}

fn render_metrics(metrics: &MetricsRegistry, slices: &mut Vec<Slice>) {
    for s in metrics.samples() {
        let counters: [(&str, &[(&str, u64)]); 10] = [
            (
                "meta-cache",
                &[("resident", s.meta_resident), ("dirty", s.meta_dirty)],
            ),
            ("dirty-queue-depth", &[("depth", s.dirty_queue_depth)]),
            ("wpq-occupancy", &[("occupancy", s.wpq_occupancy)]),
            ("nvm-writes", &[("writes", s.nvm_writes)]),
            ("write-amp-milli", &[("milli", s.write_amp_milli)]),
            ("engine-share-ppm", &[("ppm", s.engine_share_ppm)]),
            ("attributed-writes", &[("writes", s.attributed_writes)]),
            ("max-line-writes", &[("writes", s.max_line_writes)]),
            ("lag-pending", &[("stamps", s.lag_pending)]),
            ("lag-p99", &[("cycles", s.lag_p99)]),
        ];
        for (name, args) in counters {
            push(
                slices,
                TID_COUNTERS,
                s.at,
                event_json('C', name, TID_COUNTERS, s.at, None, args),
            );
        }
    }
}

fn render_recovery(timeline: &[RecoverySpan], slices: &mut Vec<Slice>) {
    for span in timeline {
        push(
            slices,
            TID_RECOVERY,
            span.start,
            event_json(
                'X',
                span.stage.name(),
                TID_RECOVERY,
                span.start,
                Some(span.cycles()),
                &[("ops", span.ops), ("nvm_writes", span.nvm_writes)],
            ),
        );
    }
}

fn render_lag(lag: &crate::obs::lag::LagTracer, slices: &mut Vec<Slice>) {
    for (issue, commit) in lag.recent_spans() {
        push(
            slices,
            TID_LAG,
            issue,
            event_json(
                'X',
                "vulnerable",
                TID_LAG,
                issue,
                Some(commit.saturating_sub(issue)),
                &[("lag", commit.saturating_sub(issue))],
            ),
        );
    }
}

fn render_profile(profile: &SpanProfiler, slices: &mut Vec<Slice>) {
    let mut cursor: Cycle = 0;
    for stage in Stage::ALL {
        let cycles = profile.cycles_of(stage);
        if cycles == 0 {
            continue;
        }
        push(
            slices,
            TID_PROFILE,
            cursor,
            event_json(
                'X',
                stage.name(),
                TID_PROFILE,
                cursor,
                Some(cycles),
                &[
                    ("ops", profile.ops_of(stage)),
                    ("nvm_writes", profile.writes_of(stage)),
                ],
            ),
        );
        cursor += cycles;
    }
}

/// Writes one Chrome trace-event document for a run: process 1,
/// named `ccnvm`, carrying the nine tracks above.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_chrome_trace<W: Write>(out: &mut W, input: &ChromeTraceInput<'_>) -> io::Result<()> {
    let mut slices: Vec<Slice> = Vec::new();
    if let Some(rec) = input.recorder {
        render_recorder(rec, &mut slices);
    }
    if let Some(metrics) = input.metrics {
        render_metrics(metrics, &mut slices);
    }
    if let Some(timeline) = input.recovery {
        render_recovery(timeline, &mut slices);
    }
    if let Some(lag) = input.lag {
        render_lag(lag, &mut slices);
    }
    if let Some(profile) = input.profile {
        render_profile(profile, &mut slices);
    }
    slices.sort_by_key(|a| (a.tid, a.ts));
    write!(
        out,
        "{{\"traceEvents\":[\n{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
\"ts\":0,\"args\":{{\"name\":\"ccnvm\"}}}}"
    )?;
    for (tid, name) in TRACK_NAMES {
        write!(
            out,
            ",\n{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"ts\":0,\
\"args\":{{\"name\":\"{name}\"}}}}"
        )?;
    }
    for slice in &slices {
        write!(out, ",\n{}", slice.json)?;
    }
    writeln!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"ccnvm-chrome/1\",\
\"clock\":\"simulated-cycles-as-us\"}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DesignKind, SimConfig};
    use crate::obs::json;
    use crate::obs::metrics::MetricsConfig;
    use crate::obs::RecorderConfig;
    use crate::sim::Simulator;
    use ccnvm_trace::{profiles, TraceGenerator};

    fn traced_run() -> String {
        let mut sim = Simulator::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
        sim.memory_mut().attach_recorder(RecorderConfig::default());
        sim.memory_mut().attach_metrics(MetricsConfig {
            interval: 500,
            capacity: 1 << 12,
        });
        sim.memory_mut().attach_profiler();
        sim.memory_mut().attach_lag();
        let trace = TraceGenerator::new(profiles::by_name("lbm").unwrap(), 3);
        sim.run(trace, 30_000).unwrap();
        let mut out = Vec::new();
        write_chrome_trace(
            &mut out,
            &ChromeTraceInput {
                recorder: sim.memory().recorder(),
                metrics: sim.memory().metrics(),
                profile: sim.memory().profiler(),
                recovery: None,
                lag: sim.memory().lag(),
            },
        )
        .unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn output_parses_with_required_keys_and_monotonic_tracks() {
        let text = traced_run();
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Json::as_arr)
            .expect("traceEvents array");
        assert!(events.len() > 10, "expected a populated trace");
        let mut last_ts: HashMap<u64, u64> = HashMap::new();
        let mut phases = std::collections::HashSet::new();
        for e in events {
            let ph = e.str_field("ph").expect("ph");
            for key in ["name", "pid", "tid", "ts"] {
                assert!(e.get(key).is_some(), "missing {key}: {e:?}");
            }
            phases.insert(ph.to_string());
            assert_eq!(e.num_field("pid"), Ok(1), "the run is process 1");
            if e.str_field("name") == Ok("process_name") {
                let name = e.get("args").map(|a| a.str_field("name"));
                assert_eq!(name, Some(Ok("ccnvm")));
            }
            let tid = e.num_field("tid").unwrap();
            let ts = e.num_field("ts").unwrap();
            if ph != "M" {
                let prev = last_ts.entry(tid).or_insert(0);
                assert!(ts >= *prev, "track {tid} ts regressed: {ts} < {prev}");
                *prev = ts;
            }
            if ph == "X" {
                assert!(e.get("dur").is_some(), "X without dur: {e:?}");
            }
            if ph == "C" {
                assert!(
                    matches!(e.get("args"), Some(json::Json::Obj(f)) if !f.is_empty()),
                    "counter without args: {e:?}"
                );
            }
        }
        for required in ["M", "X", "B", "E", "C", "i"] {
            assert!(phases.contains(required), "no {required:?} events emitted");
        }
    }

    #[test]
    fn drain_begin_end_pairs_balance() {
        let text = traced_run();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(json::Json::as_arr).unwrap();
        let mut depth = 0i64;
        for e in events {
            match e.str_field("ph").unwrap() {
                "B" => depth += 1,
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0, "E without matching B");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced B/E pairs");
    }

    #[test]
    fn empty_input_is_still_valid_json() {
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &ChromeTraceInput::default()).unwrap();
        let doc = json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(
            doc.get("otherData").unwrap().str_field("schema"),
            Ok("ccnvm-chrome/1")
        );
    }
}
