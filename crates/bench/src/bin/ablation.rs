//! Ablations over the modeling and architecture choices DESIGN.md
//! calls out — not a paper figure, but the evidence that the headline
//! results are not artifacts of one parameter pick:
//!
//! * meta cache capacity (the paper fixes 128 KB; how sensitive is
//!   cc-NVM to it?),
//! * shared vs split counter/tree cache organization,
//! * the engine's write-back buffer depth,
//! * NVM bank parallelism,
//! * and per-design wear concentration (hottest-line writes), the
//!   lifetime argument behind Figure 5(b).
//!
//! ```text
//! cargo run -p ccnvm-bench --release --bin ablation -- [instructions] [threads]
//! ```
//!
//! All ablation points form one flat matrix of independent simulations
//! run on `threads` workers (default: all cores); results are
//! identical at any thread count.

use ccnvm::metacache::MetaCacheOrg;
use ccnvm::prelude::*;
use ccnvm_bench::{parallel::parallel_map, row, Args};
use ccnvm_mem::{CacheConfig, WearStats};

/// One section of the table: its rows, each a label and the
/// configuration it runs, and the columns a row's results fill.
struct Section {
    title: &'static str,
    label: &'static str,
    columns: &'static [&'static str],
    rows: Vec<(String, SimConfig)>,
    cells: fn(&RunStats, &WearStats) -> Vec<String>,
}

/// The paper configuration of `design` with `tweak` applied.
fn tweaked(design: DesignKind, tweak: impl FnOnce(&mut SimConfig)) -> SimConfig {
    let mut c = SimConfig::paper(design);
    tweak(&mut c);
    c
}

fn sections() -> [Section; 5] {
    let meta_cells: fn(&RunStats, &WearStats) -> Vec<String> = |s, _| {
        vec![
            format!("{:.4}", s.ipc()),
            format!("{}", s.total_writes()),
            format!("{:.1}", s.meta_hit_rate() * 100.0),
        ]
    };
    [
        Section {
            title: "(1) meta cache capacity (cc-NVM, shared organization)",
            label: "capacity",
            columns: &["IPC", "writes", "meta hit%"],
            rows: [32u64, 64, 128, 256]
                .map(|kb| {
                    let c = tweaked(DesignKind::CcNvm, |c| {
                        c.meta = CacheConfig::new(kb * 1024, 8)
                    });
                    (format!("{kb} KB"), c)
                })
                .into(),
            cells: meta_cells,
        },
        Section {
            title: "(2) shared vs split counter/tree cache (cc-NVM, 128 KB total)",
            label: "org",
            columns: &["IPC", "writes", "meta hit%"],
            rows: [
                ("shared", MetaCacheOrg::Shared),
                ("split", MetaCacheOrg::Split),
            ]
            .map(|(label, org)| {
                (
                    label.into(),
                    tweaked(DesignKind::CcNvm, |c| c.meta_org = org),
                )
            })
            .into(),
            cells: meta_cells,
        },
        Section {
            title: "(3) write-back buffer depth (SC, the most engine-bound design)",
            label: "entries",
            columns: &["IPC", "wb stall cy"],
            rows: [4, 8, 16, 32, 64]
                .map(|entries| {
                    let c = tweaked(DesignKind::StrictConsistency, |c| {
                        c.wb_buffer_entries = entries;
                    });
                    (format!("{entries}"), c)
                })
                .into(),
            cells: |s, _| vec![format!("{:.4}", s.ipc()), format!("{}", s.wb_stall_cycles)],
        },
        Section {
            title: "(4) NVM bank parallelism (cc-NVM)",
            label: "banks",
            columns: &["IPC", "read stall cy"],
            rows: [4, 8, 16, 32]
                .map(|banks| {
                    let c = tweaked(DesignKind::CcNvm, |c| c.mem.nvm.banks = banks);
                    (format!("{banks}"), c)
                })
                .into(),
            cells: |s, _| {
                vec![
                    format!("{:.4}", s.ipc()),
                    format!("{}", s.read_stall_cycles),
                ]
            },
        },
        Section {
            title: "(5) wear concentration per design (NVM lifetime argument)",
            label: "design",
            columns: &["hottest line", "max writes", "mean writes"],
            rows: DesignKind::ALL
                .map(|d| (d.label().into(), SimConfig::paper(d)))
                .into(),
            cells: |_, w| {
                vec![
                    w.hottest_line
                        .map(|l| l.to_string())
                        .unwrap_or_else(|| "-".into()),
                    format!("{}", w.max_line_writes),
                    format!("{:.2}", w.mean_line_writes),
                ]
            },
        },
    ]
}

fn run(config: SimConfig, instructions: u64) -> (RunStats, WearStats) {
    let mut sim = Simulator::new(config).expect("valid config");
    let trace = TraceGenerator::new(profiles::mixed(), ccnvm_bench::SEED);
    sim.run(trace, instructions).expect("clean run");
    (sim.stats(), sim.memory().wear_stats())
}

fn main() {
    let Args {
        instructions,
        threads,
    } = Args::from_command_line();
    println!(
        "Ablations — mixed workload, {} instructions per point\n",
        instructions
    );

    // Flatten every section's rows into one matrix and fan it out;
    // the sections below consume the results in construction order.
    let sections = sections();
    let configs: Vec<&SimConfig> = sections
        .iter()
        .flat_map(|s| s.rows.iter().map(|(_, c)| c))
        .collect();
    eprintln!(
        "running {} ablation points on {threads} thread(s)…",
        configs.len()
    );
    let results = parallel_map(&configs, threads, |_, c| run((*c).clone(), instructions));
    let mut results = results.iter();

    for (i, section) in sections.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{}", section.title);
        println!("{}", row(section.label, section.columns));
        for ((label, _), (stats, wear)) in section.rows.iter().zip(results.by_ref()) {
            println!("{}", row(label, &(section.cells)(stats, wear)));
        }
    }
    println!("\nSC's hottest lines are the shared upper tree nodes — the cells a real");
    println!("PCM DIMM would lose first; cc-NVM's epochs rewrite them once per drain.");
}
