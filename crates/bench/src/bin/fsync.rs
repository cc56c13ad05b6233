//! File-backend throughput matrix: fsync strategy × epoch length.
//!
//! ```text
//! cargo run -p ccnvm-bench --release --bin fsync [short|full] [out.json]
//! ```
//!
//! Runs the same deterministic write-back workload on a
//! [`FileBackend`] under each [`FsyncStrategy`] and several epoch
//! lengths (write-backs between drains), and reports host wall time
//! per write-back next to the backend's own I/O tallies.
//! The interesting trade-off is the one the module docs of
//! `ccnvm_mem::file` describe: `always` is the ADR-faithful zero-loss
//! mode and pays one fsync per record boundary / group commit;
//! `batch:<n>` and `interval:<cycles>` amortize the fsyncs exactly
//! like a write-ahead log's group commit, at the cost of a crash
//! window. Longer epochs batch more staged metadata into each drain's
//! atomic group (fewer groups, fewer forced syncs under `always`),
//! which is why the two axes interact.
//!
//! Results go to stdout as a table and to `BENCH_fsync.json`.

use ccnvm::prelude::*;
use ccnvm::secmem::SecureMemory;
use ccnvm_mem::{FileBackend, FileBackendConfig, FileIoStats, FsyncStrategy, LineAddr};
use std::path::PathBuf;
use std::time::Instant;

/// Deterministic data-line stream (same shape as the hot-path
/// allocation tests): cycles through `pages` 4 KB pages with a
/// rotating line offset.
fn addr(i: u64, pages: u64) -> LineAddr {
    let page = (i * 7) % pages;
    let off = (i * 13) % 64;
    LineAddr(page * 64 + off)
}

struct Point {
    strategy: FsyncStrategy,
    epoch_len: u64,
    ops: u64,
    ns_per_op: f64,
    io: FileIoStats,
}

impl Point {
    fn ops_per_sec(&self) -> f64 {
        if self.ns_per_op > 0.0 {
            1e9 / self.ns_per_op
        } else {
            f64::INFINITY
        }
    }

    fn fsyncs_per_op(&self) -> f64 {
        self.io.fsyncs as f64 / self.ops as f64
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ccnvm-bench-fsync-{}-{tag}", std::process::id()))
}

/// One matrix point: `ops` write-backs against a fresh file store,
/// draining an epoch every `epoch_len` write-backs.
fn run_point(strategy: FsyncStrategy, epoch_len: u64, ops: u64) -> Point {
    let dir = temp_dir(&format!("{strategy}-e{epoch_len}").replace(':', "_"));
    std::fs::remove_dir_all(&dir).ok();
    let backend = FileBackend::open(
        &dir,
        FileBackendConfig {
            fsync: strategy,
            ..FileBackendConfig::default()
        },
    )
    .expect("open bench store");
    let io = backend.io_counters();

    let config = SimConfig::paper(DesignKind::CcNvm);
    let mut m = SecureMemory::with_backend(config, Box::new(backend)).expect("paper config");

    let t0 = Instant::now();
    let mut now = 0u64;
    for i in 0..ops {
        m.write_back(addr(i, 64), now).expect("attack-free run");
        now += 400;
        if (i + 1) % epoch_len == 0 {
            m.drain(now, DrainTrigger::External);
            now += 400;
        }
    }
    m.sync_durable();
    let ns = t0.elapsed().as_nanos();

    drop(m);
    std::fs::remove_dir_all(&dir).ok();
    Point {
        strategy,
        epoch_len,
        ops,
        ns_per_op: ns as f64 / ops as f64,
        io: io.stats(),
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_owned()
    }
}

fn emit_json(mode: &str, points: &[Point]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ccnvm-bench-fsync/1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"unit\": \"host nanoseconds per simulated write-back\",\n");
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"fsync\": \"{}\", \"epoch_len\": {}, \"ops\": {}, \
             \"ns_per_op\": {}, \"ops_per_sec\": {}, \"fsyncs\": {}, \
             \"fsyncs_per_op\": {}, \"appends\": {}, \"compactions\": {}, \
             \"bytes_written\": {}}}{}\n",
            p.strategy,
            p.epoch_len,
            p.ops,
            json_num(p.ns_per_op),
            json_num(p.ops_per_sec()),
            p.io.fsyncs,
            json_num(p.fsyncs_per_op()),
            p.io.appends,
            p.io.compactions,
            p.io.bytes_written,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let mode = if mode == "short" { "short" } else { "full" };
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_fsync.json".into());
    let ops: u64 = if mode == "short" { 2_000 } else { 20_000 };

    let strategies = [
        FsyncStrategy::Always,
        FsyncStrategy::Batch(8),
        FsyncStrategy::Batch(64),
        FsyncStrategy::Interval(10_000),
        FsyncStrategy::Interval(100_000),
    ];
    let epoch_lens: [u64; 3] = [4, 16, 64];

    println!("fsync bench — mode {mode}, {ops} write-backs per point, cc-NVM paper config");
    println!(
        "{:<16} {:>5} {:>12} {:>12} {:>10} {:>10} {:>8} {:>12}",
        "fsync", "epoch", "ns/wb", "wb/sec", "fsyncs", "fsync/wb", "compact", "bytes"
    );

    let mut points = Vec::new();
    for strategy in strategies {
        for epoch_len in epoch_lens {
            let p = run_point(strategy, epoch_len, ops);
            println!(
                "{:<16} {:>5} {:>12.1} {:>12.0} {:>10} {:>10.4} {:>8} {:>12}",
                p.strategy.to_string(),
                p.epoch_len,
                p.ns_per_op,
                p.ops_per_sec(),
                p.io.fsyncs,
                p.fsyncs_per_op(),
                p.io.compactions,
                p.io.bytes_written
            );
            points.push(p);
        }
    }

    // Sanity: relaxing fsync must not *increase* the fsync count for
    // the same workload; the sweep exists to show the amortization.
    let fsyncs_at = |s: FsyncStrategy, e: u64| {
        points
            .iter()
            .find(|p| p.strategy == s && p.epoch_len == e)
            .map(|p| p.io.fsyncs)
            .expect("matrix point exists")
    };
    for e in epoch_lens {
        assert!(
            fsyncs_at(FsyncStrategy::Batch(64), e) <= fsyncs_at(FsyncStrategy::Always, e),
            "batch:64 must not fsync more than always at epoch {e}"
        );
    }

    let json = emit_json(mode, &points);
    std::fs::write(&out_path, &json).expect("write BENCH_fsync.json");
    println!("\nwrote {out_path}");
}
