//! Workspace-level observability invariants: metrics byte-identity
//! across runs, and CSV/JSONL trace-export consistency.

use ccnvm::obs::metrics::MetricsConfig;
use ccnvm::obs::RecorderConfig;
use ccnvm::prelude::*;

fn traced_sim() -> Simulator {
    let mut sim = Simulator::new(SimConfig::small(DesignKind::CcNvm)).unwrap();
    sim.memory_mut().attach_recorder(RecorderConfig::default());
    sim.memory_mut().attach_metrics(MetricsConfig {
        interval: 500,
        ..MetricsConfig::default()
    });
    let trace = TraceGenerator::new(profiles::by_name("lbm").unwrap(), 7);
    sim.run(trace, 40_000).unwrap();
    sim
}

fn metrics_exports(sim: &Simulator) -> (Vec<u8>, Vec<u8>) {
    let m = sim.memory().metrics().expect("attached");
    let mut csv = Vec::new();
    m.write_csv(&mut csv).unwrap();
    let mut jsonl = Vec::new();
    m.write_jsonl(&mut jsonl).unwrap();
    (csv, jsonl)
}

/// The exported metrics series is keyed purely on simulated cycles, so
/// it must be byte-identical across repeated runs.
#[test]
fn metrics_exports_are_byte_identical_across_runs() {
    let baseline = metrics_exports(&traced_sim());
    assert!(!baseline.0.is_empty());
    let repeat = metrics_exports(&traced_sim());
    assert_eq!(baseline, repeat, "repeated runs must match byte-for-byte");
}

/// Both metrics export formats decode to the same samples, and the
/// summarizer sees real signal from them.
#[test]
fn metrics_csv_and_jsonl_decode_identically() {
    let sim = traced_sim();
    let (csv, jsonl) = metrics_exports(&sim);
    let a = ccnvm::obs::metrics::parse_metrics(std::str::from_utf8(&csv).unwrap()).unwrap();
    let b = ccnvm::obs::metrics::parse_metrics(std::str::from_utf8(&jsonl).unwrap()).unwrap();
    assert_eq!(a, b);
    assert!(!a.is_empty());
    let summary = ccnvm::obs::metrics::summarize(&a);
    let writes = summary.iter().find(|s| s.name == "nvm_writes").unwrap();
    assert!(writes.max > 0, "the run must reach NVM");
}

/// Round-trip the event-trace CSV export: every row has the header's
/// arity, needs no quoting, and carries the same event kinds in the
/// same order as the JSONL export of the same run.
#[test]
fn trace_csv_rows_round_trip_against_jsonl() {
    let sim = traced_sim();
    let rec = sim.memory().recorder().expect("attached");
    let mut csv = Vec::new();
    rec.write_csv(&mut csv).unwrap();
    let mut jsonl = Vec::new();
    rec.write_jsonl(&mut jsonl).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();

    let mut rows = csv.lines();
    let header = rows.next().expect("header row");
    let columns = header.split(',').count();
    let mut csv_events: Vec<(String, String)> = Vec::new();
    for row in rows {
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), columns, "row {row:?}");
        for f in &fields {
            assert!(
                !f.contains('"') && !f.contains('\n'),
                "CSV fields must never need quoting: {row:?}"
            );
        }
        if fields[0] == "footer" {
            continue;
        }
        csv_events.push((fields[0].to_owned(), fields[1].to_owned()));
    }

    let mut jsonl_events: Vec<(String, String)> = Vec::new();
    for line in jsonl.lines() {
        let obj = ccnvm::obs::json::parse(line).expect("every JSONL row parses");
        if obj.str_field("event").unwrap() == "footer" {
            continue;
        }
        jsonl_events.push((
            obj.str_field("event").unwrap().to_owned(),
            obj.num_field("at").unwrap().to_string(),
        ));
    }
    assert!(!csv_events.is_empty(), "the run must trace events");
    assert_eq!(
        csv_events, jsonl_events,
        "CSV and JSONL must carry the same (event, at) sequence"
    );
}
