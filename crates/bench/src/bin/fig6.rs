//! Figure 6: sensitivity of the epoch triggers.
//!
//! * (a) vary the update-times limit **N ∈ {4, 8, 16, 32, 64}** with
//!   M = 64;
//! * (b) vary the dirty-address-queue entries **M ∈ {32, 40, 48, 56,
//!   64}** with N = 16.
//!
//! Reported for Osiris Plus, cc-NVM w/o DS and cc-NVM, normalized to
//! `w/o CC`, on the mixed workload (the paper reports suite-level
//! trends).
//!
//! ```text
//! cargo run -p ccnvm-bench --release --bin fig6 [instructions] [threads]
//! ```
//!
//! Every (N, M, design) sweep point is an independent simulation; the
//! whole matrix runs on `threads` workers (default: all cores, or
//! `CCNVM_BENCH_THREADS`) with results identical at any thread count.

use ccnvm::prelude::*;
use ccnvm_bench::{
    instructions_from_args, parallel::parallel_map, row, run_design_with, threads_from_args,
};

const DESIGNS: [DesignKind; 3] = [
    DesignKind::OsirisPlus,
    DesignKind::CcNvmNoDs,
    DesignKind::CcNvm,
];

fn config(design: DesignKind, n: u32, m: usize) -> SimConfig {
    let mut c = SimConfig::paper(design);
    c.update_limit = n;
    c.dirty_queue_entries = m;
    c
}

const NS: [u32; 5] = [4, 8, 16, 32, 64];
const MS: [usize; 5] = [32, 40, 48, 56, 64];

fn main() {
    let instructions = instructions_from_args();
    let threads = threads_from_args();
    let profile = profiles::mixed();
    println!(
        "Figure 6 — {} instructions per point, mixed workload, paper configuration\n",
        instructions
    );

    // One flat matrix: the baseline, then the N-sweep, then the
    // M-sweep — every point an independent simulation, fanned out
    // across workers with results in input order.
    let mut configs = vec![config(DesignKind::WithoutCc, 16, 64)];
    for n in NS {
        for design in DESIGNS {
            configs.push(config(design, n, 64));
        }
    }
    for m in MS {
        for design in DESIGNS {
            // Osiris Plus has no dirty address queue; M only matters
            // for the epoch designs (the paper plots it flat).
            configs.push(config(design, 16, m));
        }
    }
    eprintln!(
        "running {} matrix points on {threads} thread(s)…",
        configs.len()
    );
    let stats = parallel_map(&configs, threads, |_, c| {
        run_design_with(c.clone(), &profile, instructions)
    });

    let baseline = &stats[0];
    let base_ipc = baseline.ipc();
    let base_writes = baseline.total_writes() as f64;

    let header: Vec<String> = DESIGNS.iter().map(|d| d.label().to_string()).collect();

    println!("(a) varying update-times limit N (M = 64), normalized to w/o CC");
    println!("{}", row("N", &header));
    let mut table_a = Vec::new();
    for (i, n) in NS.into_iter().enumerate() {
        let mut ipc_cells = Vec::new();
        let mut write_cells = Vec::new();
        for (j, _) in DESIGNS.iter().enumerate() {
            let s = &stats[1 + i * DESIGNS.len() + j];
            ipc_cells.push(s.ipc() / base_ipc);
            write_cells.push(s.total_writes() as f64 / base_writes);
        }
        table_a.push((n, ipc_cells, write_cells));
    }
    println!("  IPC:");
    for (n, ipc, _) in &table_a {
        let cells: Vec<String> = ipc.iter().map(|v| format!("{v:.3}")).collect();
        println!("{}", row(&format!("  N={n}"), &cells));
    }
    println!("  # of writes:");
    for (n, _, w) in &table_a {
        let cells: Vec<String> = w.iter().map(|v| format!("{v:.3}")).collect();
        println!("{}", row(&format!("  N={n}"), &cells));
    }

    println!("\n(b) varying dirty address queue entries M (N = 16), normalized to w/o CC");
    println!("{}", row("M", &header));
    let mut table_b = Vec::new();
    let b_offset = 1 + NS.len() * DESIGNS.len();
    for (i, m) in MS.into_iter().enumerate() {
        let mut ipc_cells = Vec::new();
        let mut write_cells = Vec::new();
        for (j, _) in DESIGNS.iter().enumerate() {
            let s = &stats[b_offset + i * DESIGNS.len() + j];
            ipc_cells.push(s.ipc() / base_ipc);
            write_cells.push(s.total_writes() as f64 / base_writes);
        }
        table_b.push((m, ipc_cells, write_cells));
    }
    println!("  IPC:");
    for (m, ipc, _) in &table_b {
        let cells: Vec<String> = ipc.iter().map(|v| format!("{v:.3}")).collect();
        println!("{}", row(&format!("  M={m}"), &cells));
    }
    println!("  # of writes:");
    for (m, _, w) in &table_b {
        let cells: Vec<String> = w.iter().map(|v| format!("{v:.3}")).collect();
        println!("{}", row(&format!("  M={m}"), &cells));
    }

    // Trend summary (paper: larger N/M -> longer epochs -> better IPC,
    // fewer writes; effect of N saturates past ~32, of M past ~48).
    let cc = 2; // cc-NVM column
    let n_ipc_gain = table_a.last().unwrap().1[cc] / table_a.first().unwrap().1[cc];
    let n_write_cut = table_a.first().unwrap().2[cc] / table_a.last().unwrap().2[cc];
    let m_ipc_gain = table_b.last().unwrap().1[cc] / table_b.first().unwrap().1[cc];
    let m_write_cut = table_b.first().unwrap().2[cc] / table_b.last().unwrap().2[cc];
    println!(
        "\ncc-NVM trend: N 4→64 gives {:.1}% IPC, {:.1}% fewer writes;",
        (n_ipc_gain - 1.0) * 100.0,
        (1.0 - 1.0 / n_write_cut) * 100.0
    );
    println!(
        "              M 32→64 gives {:.1}% IPC, {:.1}% fewer writes.",
        (m_ipc_gain - 1.0) * 100.0,
        (1.0 - 1.0 / m_write_cut) * 100.0
    );
}
