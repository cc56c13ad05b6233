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
//! cargo run -p ccnvm-bench --release --bin fig6 -- [instructions] [threads]
//! ```
//!
//! Every (N, M, design) sweep point is an independent simulation; the
//! whole matrix runs on `threads` workers (default: all cores) with
//! results identical at any thread count.

use ccnvm::prelude::*;
use ccnvm_bench::{parallel::parallel_map, row, run_design_with, Args};

const DESIGNS: [DesignKind; 3] = [
    DesignKind::OsirisPlus,
    DesignKind::CcNvmNoDs,
    DesignKind::CcNvm,
];
/// cc-NVM's column in [`DESIGNS`].
const CC_NVM: usize = 2;

/// One panel of the figure: a trigger swept over `values`, the other
/// one left at its paper setting (N = 16, M = 64).
struct Panel {
    title: &'static str,
    knob: &'static str,
    values: [u32; 5],
    set: fn(&mut SimConfig, u32),
}

const PANELS: [Panel; 2] = [
    Panel {
        title: "(a) varying update-times limit N (M = 64)",
        knob: "N",
        values: [4, 8, 16, 32, 64],
        set: |c, n| c.update_limit = n,
    },
    // Osiris Plus has no dirty address queue; M only matters for the
    // epoch designs (the paper plots it flat).
    Panel {
        title: "(b) varying dirty address queue entries M (N = 16)",
        knob: "M",
        values: [32, 40, 48, 56, 64],
        set: |c, m| c.dirty_queue_entries = m as usize,
    },
];

/// A per-point quantity the figure plots.
type Metric = fn(&RunStats) -> f64;

/// What each panel plots, normalized to the w/o CC baseline.
const METRICS: [(&str, Metric); 2] = [
    ("IPC", RunStats::ipc),
    ("# of writes", |s| s.total_writes() as f64),
];

fn main() {
    let Args {
        instructions,
        threads,
    } = Args::from_command_line();
    let profile = profiles::mixed();
    println!(
        "Figure 6 — {} instructions per point, mixed workload, paper configuration\n",
        instructions
    );

    // One flat matrix: the baseline, then each panel's points, value
    // by value — every point an independent simulation, fanned out
    // across workers with results in input order.
    let mut configs = vec![SimConfig::paper(DesignKind::WithoutCc)];
    for panel in &PANELS {
        for value in panel.values {
            for design in DESIGNS {
                let mut c = SimConfig::paper(design);
                (panel.set)(&mut c, value);
                configs.push(c);
            }
        }
    }
    eprintln!(
        "running {} matrix points on {threads} thread(s)…",
        configs.len()
    );
    let stats = parallel_map(&configs, threads, |_, c| {
        run_design_with(c.clone(), &profile, instructions)
    });

    let (baseline, points) = stats.split_first().expect("the baseline point");
    let normalized = |metric: Metric, s| metric(s) / metric(baseline);

    let header: Vec<&str> = DESIGNS.iter().map(|d| d.label()).collect();
    // value -> design -> stats, panel after panel
    let mut rows = points.chunks(DESIGNS.len());
    let mut trends = Vec::new();
    for (i, panel) in PANELS.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{}, normalized to w/o CC", panel.title);
        println!("{}", row(panel.knob, &header));
        let rows: Vec<&[RunStats]> = rows.by_ref().take(panel.values.len()).collect();
        for (name, metric) in METRICS {
            println!("  {name}:");
            for (value, per_design) in panel.values.iter().zip(&rows) {
                let cells: Vec<String> = per_design
                    .iter()
                    .map(|s| format!("{:.3}", normalized(metric, s)))
                    .collect();
                println!("{}", row(&format!("  {}={value}", panel.knob), &cells));
            }
        }
        // cc-NVM from the panel's first value to its last.
        let [(_, ipc), (_, writes)] = METRICS;
        let (first, last) = (&rows[0][CC_NVM], &rows[rows.len() - 1][CC_NVM]);
        let ipc_gain = normalized(ipc, last) / normalized(ipc, first);
        let write_cut = normalized(writes, first) / normalized(writes, last);
        trends.push(format!(
            "{} {}→{} gives {:.1}% IPC, {:.1}% fewer writes",
            panel.knob,
            panel.values[0],
            panel.values[panel.values.len() - 1],
            (ipc_gain - 1.0) * 100.0,
            (1.0 - 1.0 / write_cut) * 100.0
        ));
    }

    // Trend summary (paper: larger N/M -> longer epochs -> better IPC,
    // fewer writes; effect of N saturates past ~32, of M past ~48).
    println!("\ncc-NVM trend: {};", trends[0]);
    println!("              {}.", trends[1]);
}
