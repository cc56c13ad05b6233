//! Figure 5: system IPC (a) and NVM write traffic (b) for the five
//! designs over the eight SPEC-like benchmarks, normalized to the
//! `w/o CC` baseline — plus the paper's headline numbers (cc-NVM vs
//! Osiris Plus IPC and write-traffic deltas) and its §2.3 motivation,
//! the cost of strict consistency (SC vs w/o CC).
//!
//! ```text
//! cargo run -p ccnvm-bench --release --bin fig5 [instructions] [threads]
//! ```
//!
//! The benchmark × design matrix points are independent simulations;
//! they run on `threads` workers (default: all cores, or
//! `CCNVM_BENCH_THREADS`). Results are identical at any thread count.

use ccnvm::prelude::*;
use ccnvm_bench::{
    geomean, instructions_from_args, mean, parallel::parallel_map, row, run_design,
    threads_from_args,
};

fn main() {
    let instructions = instructions_from_args();
    let threads = threads_from_args();
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
    let results: Vec<Vec<RunStats>> = flat
        .chunks(designs.len())
        .map(<[RunStats]>::to_vec)
        .collect();

    let header: Vec<String> = designs.iter().map(|d| d.label().to_string()).collect();

    println!("\n(a) IPC, normalized to w/o CC");
    println!("{}", row("benchmark", &header));
    let mut norm_ipc: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    for (profile, per_design) in suite.iter().zip(&results) {
        let base = per_design[0].ipc();
        let cells: Vec<String> = per_design
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let v = s.ipc() / base;
                norm_ipc[i].push(v);
                format!("{v:.3}")
            })
            .collect();
        println!("{}", row(&profile.name, &cells));
    }
    let avg_ipc: Vec<f64> = norm_ipc.iter().map(|v| geomean(v)).collect();
    println!(
        "{}",
        row(
            "average",
            &avg_ipc
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
        )
    );

    println!("\n(b) # of NVM writes, normalized to w/o CC");
    println!("{}", row("benchmark", &header));
    let mut norm_writes: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    for (profile, per_design) in suite.iter().zip(&results) {
        let base = per_design[0].total_writes() as f64;
        let cells: Vec<String> = per_design
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let v = s.total_writes() as f64 / base;
                norm_writes[i].push(v);
                format!("{v:.3}")
            })
            .collect();
        println!("{}", row(&profile.name, &cells));
    }
    let avg_writes: Vec<f64> = norm_writes.iter().map(|v| mean(v)).collect();
    println!(
        "{}",
        row(
            "average",
            &avg_writes
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
        )
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
            &[
                "IPC".into(),
                "L2 MPKI".into(),
                "WB/ki".into(),
                "meta hit%".into(),
                "wb/epoch*".into(),
            ]
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
