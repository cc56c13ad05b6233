//! Workspace-level observability invariants: metrics byte-identity
//! across runs, CSV/JSONL trace-export consistency, the recorder's
//! epoch rollups, and the flight ring's agreement with `flight.log`.

use ccnvm::obs::flight::FlightConfig;
use ccnvm::obs::metrics::MetricsConfig;
use ccnvm::obs::RecorderConfig;
use ccnvm::prelude::*;
use ccnvm_mem::{read_flight_log, FileBackend, FileBackendConfig, FsyncStrategy};

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

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `SimConfig::small`, lbm, 100k instructions, seed 42, with a recorder
/// attached.
fn recorded_epochs(design: DesignKind) -> Simulator {
    let mut sim = Simulator::new(SimConfig::small(design)).unwrap();
    sim.memory_mut().attach_recorder(RecorderConfig::default());
    let trace = TraceGenerator::new(profiles::by_name("lbm").unwrap(), 42);
    sim.run(trace, 100_000).unwrap();
    sim
}

const CCNVM_EPOCH_REPORT: &str = r"epochs 41 (41 rollups retained)  trace events 27960 (0 dropped)
epochs by trigger: queue-full 0  dirty-evict 18  update-limit 23  overflow 0  external 0
epoch length (write-backs): p50      63  p90     127  p99     127  max      82  mean      56.3
epoch duration (cycles):    p50   65535  p90   65535  p99  262143  max   68767  mean   30733.1
lines drained per epoch:    p50      31  p90      63  p99      63  max      42  mean      28.1
wb service latency (cycles):p50    1023  p90    1023  p99    4095  max    4120  mean     439.0
WPQ occupancy: p50 15  p99 47  high water 42 / 64
last epochs:
     idx       trigger        start          end     wb  lines  wpq-hw
      33  update-limit      1006848      1037030     58     28      28
      34   dirty-evict      1035661      1053747     39     18      18
      35   dirty-evict      1053912      1075380     40     24      24
      36   dirty-evict      1076801      1100820     43     35      35
      37  update-limit      1101530      1124662     45     18      18
      38  update-limit      1121298      1157607     76     26      26
      39  update-limit      1155677      1193021     76     32      32
      40  update-limit      1190245      1224141     69     22      22
";

const CCNVM_NO_DS_EPOCH_REPORT: &str = r"epochs 147 (147 rollups retained)  trace events 29938 (0 dropped)
epochs by trigger: queue-full 0  dirty-evict 144  update-limit 3  overflow 0  external 0
epoch length (write-backs): p50      15  p90      63  p99      63  max      71  mean      15.7
epoch duration (cycles):    p50   16383  p90   65535  p99   65535  max   45374  mean    9500.2
lines drained per epoch:    p50      15  p90      31  p99      31  max      30  mean      14.3
wb service latency (cycles):p50    1023  p90    1023  p99    4095  max    1544  mean     557.3
WPQ occupancy: p50 15  p99 31  high water 30 / 64
last epochs:
     idx       trigger        start          end     wb  lines  wpq-hw
     139   dirty-evict      1305006      1318220     19     13      13
     140   dirty-evict      1318968      1325191     12     12      12
     141   dirty-evict      1322334      1332650     17     23      23
     142   dirty-evict      1332833      1340988     12     16      16
     143   dirty-evict      1341973      1342899      3      7      13
     144   dirty-evict      1343685      1351060     14     16      16
     145   dirty-evict      1351738      1368388     39     15      15
     146   dirty-evict      1368569      1389745     35     19      19
";

/// The recorder's epoch rollups on the two drainer designs, pinned by
/// the trace export's digest and the full epoch report. The goldens
/// stop short of an epoch commit, so these are the pins that reach the
/// rollups.
#[test]
fn epoch_rollups_are_pinned_on_the_drainer_designs() {
    for (design, jsonl_digest, report) in [
        (DesignKind::CcNvm, 0xa079_2661_5ef3_04a0, CCNVM_EPOCH_REPORT),
        (
            DesignKind::CcNvmNoDs,
            0xea06_3f86_03f7_3822,
            CCNVM_NO_DS_EPOCH_REPORT,
        ),
    ] {
        let sim = recorded_epochs(design);
        let rec = sim.memory().recorder().expect("attached");
        let mut jsonl = Vec::new();
        rec.write_jsonl(&mut jsonl).unwrap();
        assert_eq!(fnv(&jsonl), jsonl_digest, "{design}");
        assert_eq!(rec.epoch_report(), report, "{design}");
    }
}

/// One writer feeds the in-process flight ring and the durable
/// `flight.log`. On a store that never compacts, and so never rotates
/// its sidecar, the two hold the same entries, the WPQ-retire brackets
/// included.
#[test]
fn flight_ring_holds_what_flight_log_holds() {
    for design in DesignKind::ALL {
        let dir = std::env::temp_dir().join(format!(
            "ccnvm-it-flight-{}-{}",
            design.slug(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = FileBackend::open(
            &dir,
            FileBackendConfig {
                fsync: FsyncStrategy::Batch(1 << 16),
                compact_threshold: u64::MAX,
                flight: true,
            },
        )
        .unwrap();
        let mut sim = Simulator::with_backend(SimConfig::small(design), Box::new(store)).unwrap();
        sim.memory_mut()
            .attach_flight(FlightConfig { capacity: 1 << 16 });
        let trace = TraceGenerator::new(profiles::by_name("lbm").unwrap(), 42);
        sim.run(trace, 100_000).unwrap();
        sim.memory_mut().sync_durable();
        let ring = sim.memory().flight().expect("attached");
        assert_eq!(ring.dropped(), 0, "{design}: the ring must hold the run");
        let (logged, discarded) = read_flight_log(&dir).unwrap();
        assert_eq!(discarded, 0, "{design}");
        assert!(!logged.is_empty(), "{design}");
        assert!(
            ring.iter().eq(logged.iter()),
            "{design}: ring holds {} entries, flight.log {}",
            ring.len(),
            logged.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
