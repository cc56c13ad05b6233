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
//! cargo run -p ccnvm-bench --release --bin ablation [instructions] [threads]
//! ```
//!
//! All ablation points form one flat matrix of independent simulations
//! run on `threads` workers (default: all cores, or
//! `CCNVM_BENCH_THREADS`); results are identical at any thread count.

use ccnvm::metacache::MetaCacheOrg;
use ccnvm::prelude::*;
use ccnvm_bench::{instructions_from_args, parallel::parallel_map, row, threads_from_args};
use ccnvm_mem::CacheConfig;

const META_KBS: [u64; 4] = [32, 64, 128, 256];
const ORGS: [(&str, MetaCacheOrg); 2] = [
    ("shared", MetaCacheOrg::Shared),
    ("split", MetaCacheOrg::Split),
];
const WB_DEPTHS: [usize; 5] = [4, 8, 16, 32, 64];
const BANKS: [usize; 4] = [4, 8, 16, 32];

fn run(config: SimConfig, instructions: u64) -> (RunStats, ccnvm_mem::WearStats) {
    let mut sim = Simulator::new(config).expect("valid config");
    let trace = TraceGenerator::new(profiles::mixed(), ccnvm_bench::SEED);
    sim.run(trace, instructions).expect("clean run");
    (sim.stats(), sim.memory().wear_stats())
}

fn main() {
    let instructions = instructions_from_args();
    let threads = threads_from_args();
    println!(
        "Ablations — mixed workload, {} instructions per point\n",
        instructions
    );

    // Flatten every ablation point into one matrix and fan it out;
    // the sections below consume the results in construction order.
    let mut configs = Vec::new();
    for kb in META_KBS {
        let mut c = SimConfig::paper(DesignKind::CcNvm);
        c.meta = CacheConfig::new(kb * 1024, 8);
        configs.push(c);
    }
    for (_, org) in ORGS {
        let mut c = SimConfig::paper(DesignKind::CcNvm);
        c.meta_org = org;
        configs.push(c);
    }
    for entries in WB_DEPTHS {
        let mut c = SimConfig::paper(DesignKind::StrictConsistency);
        c.wb_buffer_entries = entries;
        configs.push(c);
    }
    for banks in BANKS {
        let mut c = SimConfig::paper(DesignKind::CcNvm);
        c.mem.nvm.banks = banks;
        configs.push(c);
    }
    for design in DesignKind::ALL {
        configs.push(SimConfig::paper(design));
    }
    eprintln!(
        "running {} ablation points on {threads} thread(s)…",
        configs.len()
    );
    let results = parallel_map(&configs, threads, |_, c| run(c.clone(), instructions));
    let mut results = results.into_iter();

    println!("(1) meta cache capacity (cc-NVM, shared organization)");
    println!(
        "{}",
        row(
            "capacity",
            &["IPC".into(), "writes".into(), "meta hit%".into()]
        )
    );
    for kb in META_KBS {
        let (s, _) = results.next().unwrap();
        println!(
            "{}",
            row(
                &format!("{kb} KB"),
                &[
                    format!("{:.4}", s.ipc()),
                    format!("{}", s.total_writes()),
                    format!("{:.1}", s.meta_hit_rate() * 100.0),
                ]
            )
        );
    }

    println!("\n(2) shared vs split counter/tree cache (cc-NVM, 128 KB total)");
    println!(
        "{}",
        row("org", &["IPC".into(), "writes".into(), "meta hit%".into()])
    );
    for (label, _) in ORGS {
        let (s, _) = results.next().unwrap();
        println!(
            "{}",
            row(
                label,
                &[
                    format!("{:.4}", s.ipc()),
                    format!("{}", s.total_writes()),
                    format!("{:.1}", s.meta_hit_rate() * 100.0),
                ]
            )
        );
    }

    println!("\n(3) write-back buffer depth (SC, the most engine-bound design)");
    println!("{}", row("entries", &["IPC".into(), "wb stall cy".into()]));
    for entries in WB_DEPTHS {
        let (s, _) = results.next().unwrap();
        println!(
            "{}",
            row(
                &format!("{entries}"),
                &[format!("{:.4}", s.ipc()), format!("{}", s.wb_stall_cycles)]
            )
        );
    }

    println!("\n(4) NVM bank parallelism (cc-NVM)");
    println!("{}", row("banks", &["IPC".into(), "read stall cy".into()]));
    for banks in BANKS {
        let (s, _) = results.next().unwrap();
        println!(
            "{}",
            row(
                &format!("{banks}"),
                &[
                    format!("{:.4}", s.ipc()),
                    format!("{}", s.read_stall_cycles)
                ]
            )
        );
    }

    println!("\n(5) wear concentration per design (NVM lifetime argument)");
    println!(
        "{}",
        row(
            "design",
            &[
                "hottest line".into(),
                "max writes".into(),
                "mean writes".into()
            ]
        )
    );
    for design in DesignKind::ALL {
        let (_, w) = results.next().unwrap();
        println!(
            "{}",
            row(
                design.label(),
                &[
                    w.hottest_line
                        .map(|l| l.to_string())
                        .unwrap_or_else(|| "-".into()),
                    format!("{}", w.max_line_writes),
                    format!("{:.2}", w.mean_line_writes),
                ]
            )
        );
    }
    println!("\nSC's hottest lines are the shared upper tree nodes — the cells a real");
    println!("PCM DIMM would lose first; cc-NVM's epochs rewrite them once per drain.");
}
