//! Write-amplification-by-cause figure: where every NVM line-write of
//! each design comes from, measured by the write-provenance ledger
//! instead of inferred from totals.
//!
//! The paper's Figure 5(b) argument is that cc-NVM's extra write
//! traffic over w/o CC is small *because* the Drainer batches counter
//! and BMT updates once per epoch; this figure decomposes each
//! design's traffic into its causes (data, data HMACs, counters, BMT
//! by level, WPQ retirement, page re-encryption) so that claim is
//! visible per cause rather than as one aggregate number. The
//! durability-lag table below it shows what the batching costs: how
//! long a write-back stays crash-vulnerable before its covering ROOT
//! commit.
//!
//! ```text
//! cargo run -p ccnvm-bench --release --bin wear -- [instructions] [threads]
//! ```
//!
//! Every design runs the same mixed workload and seed; each report is
//! checked against the conservation invariant (attributed writes ==
//! controller-counted writes) before anything is printed.

use ccnvm::obs::wear::WearReport;
use ccnvm::prelude::*;
use ccnvm_bench::{parallel::parallel_map, row, Args, SEED};

fn run(design: DesignKind, instructions: u64) -> WearReport {
    let profile = profiles::mixed();
    let mut sim = Simulator::new(SimConfig::paper(design)).expect("valid config");
    sim.memory_mut().attach_wear();
    sim.memory_mut().attach_lag();
    sim.run(TraceGenerator::new(profile.clone(), SEED), instructions)
        .expect("clean run");
    let report = sim
        .memory()
        .wear_report(&profile.name, sim.instructions())
        .expect("ledger attached");
    assert!(
        report.conserved(),
        "{design}: ledger attributes {} of {} writes",
        report.attributed_writes,
        report.total_writes
    );
    report
}

fn main() {
    let Args {
        instructions,
        threads,
    } = Args::from_command_line();
    println!(
        "Write provenance — mixed workload, {} instructions per design\n",
        instructions
    );
    let designs: Vec<DesignKind> = DesignKind::ALL.to_vec();
    let reports = parallel_map(&designs, threads, |_, &d| run(d, instructions));

    let slugs: Vec<&str> = designs.iter().map(|d| d.slug()).collect();

    // Per-cause contribution to write amplification: line-writes of
    // that cause per data line-write. The "data" row is 1.000 by
    // construction; the column total is the design's amplification.
    println!("write-amplification contribution by cause (line-writes per data line-write)");
    println!("{}", row("cause", &slugs));
    let data_writes: Vec<u64> = reports
        .iter()
        .map(|r| {
            r.causes
                .iter()
                .find(|(c, _)| c == "data")
                .map_or(1, |&(_, w)| w.max(1))
        })
        .collect();
    for (ci, (cause, _)) in reports[0].causes.iter().enumerate() {
        if reports.iter().all(|r| r.causes[ci].1 == 0) {
            continue; // a cause no design triggers, e.g. an idle level
        }
        let cells: Vec<String> = reports
            .iter()
            .zip(&data_writes)
            .map(|(r, &dw)| format!("{:.3}", r.causes[ci].1 as f64 / dw as f64))
            .collect();
        println!("{}", row(cause, &cells));
    }
    let totals: Vec<String> = reports
        .iter()
        .zip(&data_writes)
        .map(|(r, &dw)| format!("{:.3}", r.total_writes as f64 / dw as f64))
        .collect();
    println!("{}", row("total amp", &totals));

    println!("\ndurability lag (cycles from write-back acceptance to covering commit)");
    println!(
        "{}",
        row(
            "design",
            &["resolved", "pending", "p50", "p99", "p999", "max"]
        )
    );
    for (d, r) in designs.iter().zip(&reports) {
        println!(
            "{}",
            row(
                d.slug(),
                &[
                    format!("{}", r.lag.resolved),
                    format!("{}", r.lag.unresolved),
                    format!("{}", r.lag.p50),
                    format!("{}", r.lag.p99),
                    format!("{}", r.lag.p999),
                    format!("{}", r.lag.max),
                ]
            )
        );
    }

    println!("\nTCB register traffic and wear concentration");
    println!(
        "{}",
        row(
            "design",
            &["root alts", "nwb updates", "hottest line", "max writes"]
        )
    );
    for (d, r) in designs.iter().zip(&reports) {
        println!(
            "{}",
            row(
                d.slug(),
                &[
                    format!("{}", r.root_alternations),
                    format!("{}", r.nwb_updates),
                    format!("{}", r.hottest_line),
                    format!("{}", r.max_line_writes),
                ]
            )
        );
    }
    println!("\nDrainer designs trade a bounded crash-vulnerability window (the lag");
    println!("distribution) for the near-1x counter/BMT amplification above; strict");
    println!("designs close the window per write-back and pay for it in every cause row.");
}
