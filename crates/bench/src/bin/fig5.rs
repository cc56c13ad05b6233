//! Figure 5: system IPC (a) and NVM write traffic (b) for the five
//! designs over the eight SPEC-like benchmarks, normalized to the
//! `w/o CC` baseline — plus the paper's headline numbers (cc-NVM vs
//! Osiris Plus IPC and write-traffic deltas) and its §2.3 motivation,
//! the cost of strict consistency (SC vs w/o CC).
//!
//! ```text
//! cargo run -p ccnvm-bench --release --bin fig5 -- [instructions] [threads]
//! ```
//!
//! The benchmark × design matrix points are independent simulations;
//! they run on `threads` workers (default: all cores). Results are
//! identical at any thread count.

use ccnvm::prelude::*;
use ccnvm_bench::{geomean, mean, parallel::parallel_map, row, run_design, Args};

fn main() {
    let Args {
        instructions,
        threads,
    } = Args::from_command_line();
    let suite = profiles::spec2006();
    let designs = DesignKind::ALL;

    println!(
        "Figure 5 — {} instructions per point, paper configuration (16 GB PCM, N=16, M=64)\n",
        instructions
    );

    // Flatten the bench × design matrix and fan the independent
    // simulations out across workers; results come back in input
    // order, so the tables below are identical at any thread count.
    let points: Vec<(WorkloadProfile, DesignKind)> = suite
        .iter()
        .flat_map(|p| designs.iter().map(|&d| (p.clone(), d)))
        .collect();
    eprintln!(
        "running {} matrix points on {threads} thread(s)…",
        points.len()
    );
    let flat = parallel_map(&points, threads, |_, (profile, design)| {
        run_design(*design, profile, instructions)
    });
    // bench -> design -> stats
    let results: Vec<&[RunStats]> = flat.chunks(designs.len()).collect();
    let header: Vec<&str> = designs.iter().map(|d| d.label()).collect();
    let avg_ipc = normalized_table("(a) IPC", &header, &suite, &results, RunStats::ipc, geomean);
    let avg_writes = normalized_table(
        "(b) # of NVM writes",
        &header,
        &suite,
        &results,
        |s| s.total_writes() as f64,
        mean,
    );

    // Headline numbers (abstract / §5): cc-NVM vs Osiris Plus.
    let i_osiris = 2;
    let i_ccnvm = 4;
    let ipc_gain = (avg_ipc[i_ccnvm] / avg_ipc[i_osiris] - 1.0) * 100.0;
    let extra_writes = (avg_writes[i_ccnvm] - 1.0) * 100.0;
    let extra_vs_osiris = (avg_writes[i_ccnvm] / avg_writes[i_osiris] - 1.0) * 100.0;
    println!("\n=== headline (paper: +20.4% IPC over Osiris Plus; +29.6% write traffic) ===");
    println!("cc-NVM IPC vs Osiris Plus:            {ipc_gain:+.1}%  (paper: +20.4%)");
    println!("cc-NVM extra writes vs w/o CC:        {extra_writes:+.1}%  (paper: +39%)");
    println!("cc-NVM extra writes vs Osiris Plus:   {extra_vs_osiris:+.1}%  (paper: +29.6%)");
    let i_sc = 1;
    println!(
        "SC vs w/o CC (§2.3):                  {:+.1}% IPC, {:.2}x writes  (paper: -41.4% IPC, 5.5x writes)",
        (avg_ipc[i_sc] - 1.0) * 100.0,
        avg_writes[i_sc]
    );

    println!("\nper-benchmark diagnostics (w/o CC baseline):");
    println!(
        "{}",
        row(
            "benchmark",
            &["IPC", "L2 MPKI", "WB/ki", "meta hit%", "wb/epoch*"]
        )
    );
    for (profile, per_design) in suite.iter().zip(&results) {
        let base = &per_design[0];
        let cc = &per_design[4];
        let cells = vec![
            format!("{:.3}", base.ipc()),
            format!(
                "{:.1}",
                base.l2_misses as f64 * 1000.0 / base.instructions as f64
            ),
            format!("{:.2}", base.wbpki()),
            format!("{:.1}", base.meta_hit_rate() * 100.0),
            format!("{:.1}", cc.write_backs as f64 / cc.drains.max(1) as f64),
        ];
        println!("{}", row(&profile.name, &cells));
    }
    println!("* wb/epoch measured on the cc-NVM run");
}

/// Prints one panel of the figure: `metric` per benchmark and design,
/// normalized to the w/o CC column, then each design's `average` over
/// the benchmarks. Returns those averages.
fn normalized_table(
    title: &str,
    header: &[&str],
    suite: &[WorkloadProfile],
    results: &[&[RunStats]],
    metric: fn(&RunStats) -> f64,
    average: fn(&[f64]) -> f64,
) -> Vec<f64> {
    println!("\n{title}, normalized to w/o CC");
    println!("{}", row("benchmark", header));
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); header.len()];
    for (profile, per_design) in suite.iter().zip(results) {
        let base = metric(&per_design[0]);
        let cells: Vec<String> = per_design
            .iter()
            .zip(&mut columns)
            .map(|(s, column)| {
                let v = metric(s) / base;
                column.push(v);
                format!("{v:.3}")
            })
            .collect();
        println!("{}", row(&profile.name, &cells));
    }
    let averages: Vec<f64> = columns.iter().map(|c| average(c)).collect();
    let cells: Vec<String> = averages.iter().map(|v| format!("{v:.3}")).collect();
    println!("{}", row("average", &cells));
    averages
}
