//! `ccnvm-sim` — command-line driver for the cc-NVM simulator.
//!
//! ```text
//! ccnvm-sim run --design ccnvm --bench lbm --instructions 1000000
//! ccnvm-sim sweep --param n --values 4,8,16,32,64
//! ccnvm-sim recover --bench gcc
//! ccnvm-sim run --trace my_trace.txt --design sc
//! ccnvm-sim run --shards 4 --bench lbm        # sharded service
//! ccnvm-sim forensics --backend file:/tmp/f --kill drain-stage
//! ```
//!
//! Every command runs its workload through one
//! [`ShardRouter`](ccnvm::shard::ShardRouter): `--shards N` in-memory
//! secure-memory shards behind a page-interleaving request router, or
//! one shard over a `--backend file:` store. A one-shard router is
//! byte-identical to a bare simulator. With more than one shard,
//! per-shard artifacts get a `.shardI` suffix before the extension,
//! the Chrome trace carries one process per shard, and the stage
//! profile is the stage-wise sum over shards.

mod args;

use args::{BackendChoice, Command, ReportArgs, RunArgs, SweepArgs, SweepParam, USAGE};
use ccnvm::metacache::MetaCacheOrg;
use ccnvm::obs::metrics::render_shard_gauges;
use ccnvm::obs::profile::{compare, parse_profile};
use ccnvm::prelude::*;
use ccnvm_bench::parallel::{parallel_for_mut, parallel_map, thread_count};
use ccnvm_mem::{crashpoint, DurableBackend, FileBackend, FileBackendConfig, FileIoCounters};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::List => {
            list();
            Ok(())
        }
        Command::Run(run) => cmd_run(&run),
        Command::Sweep(sweep) => cmd_sweep(&sweep),
        Command::Recover(run) => cmd_recover(&run),
        Command::Forensics(run) => cmd_forensics(&run),
        Command::Report(report) => cmd_report(&report),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn list() {
    println!("designs:");
    for d in DesignKind::ALL {
        println!("  {:<14} {}", d.slug(), d.label());
    }
    println!("\nbenchmarks (synthetic SPEC2006 stand-ins):");
    for p in profiles::spec2006() {
        println!(
            "  {:<12} {:>4} refs/ki, {:>4.0}% stores, {:>5} MiB working set",
            p.name,
            p.mem_ops_per_kilo_instrs,
            p.write_fraction * 100.0,
            p.working_set_bytes >> 20
        );
    }
    println!("  {:<12} balanced mix for sensitivity sweeps", "mixed");
}

fn config_of(run: &RunArgs) -> Result<SimConfig, String> {
    let mut config = SimConfig::paper(run.design);
    config.update_limit = run.limit_n;
    config.dirty_queue_entries = run.queue_m;
    if run.split_meta {
        config.meta_org = MetaCacheOrg::Split;
    }
    // A bare `--crypto` flag wins; otherwise the CCNVM_CRYPTO env var
    // can force a tier (validate() rejects an unavailable forced tier).
    config.crypto = run.crypto.from_env_or();
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

fn backend_cfg(run: &RunArgs) -> FileBackendConfig {
    FileBackendConfig {
        fsync: run.fsync,
        flight: run.flight,
        ..FileBackendConfig::default()
    }
}

/// Opens the file store at `dir` for a new run. A fresh simulation
/// starts from an all-zero image and a default TCB root; layering it
/// over a previous run's lines would trip the integrity checks, so a
/// populated store is refused.
fn open_fresh_store(dir: &str, cfg: FileBackendConfig) -> Result<FileBackend, String> {
    let store = FileBackend::open(dir, cfg).map_err(|e| e.to_string())?;
    if !store.is_empty() {
        return Err(format!(
            "file store {dir} already holds {} lines from a previous run; \
             the simulator starts from a fresh image — point --backend \
             file: at a new (or emptied) directory",
            store.len()
        ));
    }
    let replay = store.io_counters().stats();
    if replay.discarded_bytes > 0 {
        eprintln!(
            "file backend {dir}: discarded {} torn bytes from the log tail",
            replay.discarded_bytes
        );
    }
    Ok(store)
}

/// Builds the run's shards — `--shards N` in-memory shards, or one
/// shard over a fresh `--backend file:` store — with every observer the
/// flags ask for attached. The second return is the file store's I/O
/// counter handle (usable after the store is boxed away), `None` in
/// memory.
fn build(run: &RunArgs) -> Result<(ShardRouter, Option<Arc<FileIoCounters>>), String> {
    let config = config_of(run)?;
    let (mut router, io) = match &run.backend {
        BackendChoice::Mem => (
            ShardRouter::new(config, run.shards).map_err(|e| e.to_string())?,
            None,
        ),
        BackendChoice::File(dir) => {
            let store = open_fresh_store(dir, backend_cfg(run))?;
            let io = store.io_counters();
            let sim =
                Simulator::with_backend(config, Box::new(store)).map_err(|e| e.to_string())?;
            (ShardRouter::from(sim), Some(io))
        }
    };
    for shard in router.shards_mut() {
        attach_observers(run, shard.memory_mut())?;
    }
    Ok((router, io))
}

/// Feeds the workload — a replayed trace or a synthetic profile —
/// through the router until the instruction budget is met or a strict
/// auditor latches a violation.
fn drive(router: &mut ShardRouter, run: &RunArgs) -> Result<(), String> {
    if let Some(path) = &run.trace {
        let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let ops = ccnvm_trace::text::read_trace(BufReader::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        if ops.is_empty() {
            return Err(format!("{path}: trace is empty"));
        }
        // Replay the trace cyclically until the instruction budget is
        // met, so short captures still produce steady-state numbers.
        while router.total_instructions() < run.instructions && !router.audit_failed() {
            router
                .run(
                    ops.iter().copied(),
                    run.instructions - router.total_instructions(),
                )
                .map_err(|e| e.to_string())?;
        }
    } else {
        let profile = profiles::by_name(&run.bench)
            .ok_or_else(|| format!("unknown benchmark {:?} (try `list`)", run.bench))?;
        let trace = TraceGenerator::new(profile, run.seed);
        router
            .run(trace, run.instructions)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A clean shutdown: pushes every shard's buffered commit-log records
/// to disk, so a file store reopens to exactly the run's end state.
fn sync_durable(router: &mut ShardRouter) {
    for shard in router.shards_mut() {
        shard.memory_mut().sync_durable();
    }
}

/// Attaches every observer the flags ask for. The selftest injections
/// go to shard 0 only.
fn attach_observers(run: &RunArgs, mem: &mut SecureMemory) -> Result<(), String> {
    let first = mem.config().shard_index == 0;
    let selftest = |var: &str| first && std::env::var_os(var).is_some();
    if run.trace_out.is_some() || run.epoch_report || run.chrome_trace.is_some() {
        mem.attach_recorder(RecorderConfig::default());
    }
    if run.profile_out.is_some() {
        mem.attach_profiler();
    }
    if run.metrics_out.is_some() || run.chrome_trace.is_some() {
        mem.attach_metrics(MetricsConfig {
            interval: run.metrics_interval,
            ..MetricsConfig::default()
        });
    }
    if run.flight {
        mem.attach_flight(ccnvm::obs::flight::FlightConfig::default());
    }
    if run.wear_out.is_some() || run.chrome_trace.is_some() {
        mem.attach_wear();
        mem.attach_lag();
        if selftest("CCNVM_WEAR_SELFTEST") {
            // Deliberately skew the ledger's attribution before the
            // workload so the conservation check's negative path
            // (violation -> report -> nonzero exit under strict) is
            // exercised end-to-end.
            mem.inject_wear_attribution_desync();
        }
    }
    if let Some(mode) = run.audit {
        mem.attach_auditor(mode);
        if selftest("CCNVM_AUDIT_SELFTEST") {
            // Same negative path, driven by a dirty address queue
            // desynchronized before the workload.
            let t = mem
                .inject_dirty_queue_desync(0)
                .map_err(|e| e.to_string())?;
            mem.audit_now(t);
        }
    }
    Ok(())
}

/// Prints the file backend's I/O tallies (status stream, so stdout
/// stays machine-parseable under `--csv`).
fn report_file_io(run: &RunArgs, io: Option<&Arc<FileIoCounters>>) {
    let (BackendChoice::File(dir), Some(io)) = (&run.backend, io) else {
        return;
    };
    let s = io.stats();
    eprintln!(
        "file backend {dir} ({}): {} records appended, {} fsyncs, \
         {} compactions, {} bytes written",
        run.fsync, s.appends, s.fsyncs, s.compactions, s.bytes_written
    );
}

/// Creates the `--chrome-trace` output file up front, before the
/// (potentially long) simulation, so an unwritable path fails fast.
fn create_chrome_file(run: &RunArgs) -> Result<Option<File>, String> {
    run.chrome_trace
        .as_ref()
        .map(|path| File::create(path).map_err(|e| format!("{path}: {e}")))
        .transpose()
}

/// Inserts `.shardN` before the path's extension (or appends it), so
/// per-shard artifacts of one run sit next to each other. A run of one
/// shard keeps the path as given.
fn shard_path(path: &str, shard: usize, shards: usize) -> String {
    if shards == 1 {
        return path.to_owned();
    }
    match path.rfind('.') {
        Some(dot) if dot > 0 && !path[dot..].contains('/') => {
            format!("{}.shard{shard}{}", &path[..dot], &path[dot..])
        }
        _ => format!("{path}.shard{shard}"),
    }
}

/// Writes every artifact the flags ask for from the router's shards.
/// Per-shard files and report headers appear only with more than one
/// shard. Status goes to stderr so stdout stays machine-parseable
/// under `--csv`.
fn emit_artifacts(
    run: &RunArgs,
    router: &ShardRouter,
    recoveries: Option<&[RecoveryReport]>,
    chrome_file: Option<File>,
) -> Result<(), String> {
    let shards = router.shards();
    emit_trace(run, shards)?;
    emit_metrics(run, shards)?;
    emit_chrome(run, shards, recoveries, chrome_file)?;
    emit_profile(run, router, recoveries)?;
    emit_wear(run, shards)
}

/// `--trace-out` (CSV when the path ends in `.csv`, JSON lines
/// otherwise) and `--epoch-report`.
fn emit_trace(run: &RunArgs, shards: &[Simulator]) -> Result<(), String> {
    for (i, sim) in shards.iter().enumerate() {
        let Some(rec) = sim.memory().recorder() else {
            continue;
        };
        if let Some(path) = &run.trace_out {
            let path = shard_path(path, i, shards.len());
            let file = File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            let mut out = BufWriter::new(file);
            if path.ends_with(".csv") {
                rec.write_csv(&mut out)
            } else {
                rec.write_jsonl(&mut out)
            }
            .map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {} events to {path} ({} dropped at capacity {})",
                rec.trace().len(),
                rec.trace().dropped(),
                rec.trace().capacity()
            );
        }
        if run.epoch_report {
            if shards.len() > 1 {
                println!("=== shard {i} epoch report ===");
            }
            println!("{}", rec.epoch_report());
        }
    }
    Ok(())
}

/// `--metrics-out`: CSV when the path ends in `.csv`, JSON lines
/// otherwise.
fn emit_metrics(run: &RunArgs, shards: &[Simulator]) -> Result<(), String> {
    let Some(path) = &run.metrics_out else {
        return Ok(());
    };
    for (i, sim) in shards.iter().enumerate() {
        let m = sim
            .memory()
            .metrics()
            .expect("metrics are attached whenever --metrics-out is set");
        let path = shard_path(path, i, shards.len());
        let file = File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = BufWriter::new(file);
        if path.ends_with(".csv") {
            m.write_csv(&mut out)
        } else {
            m.write_jsonl(&mut out)
        }
        .map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "wrote {} metrics samples to {path} ({} dropped, interval {} cycles)",
            m.len(),
            m.dropped(),
            m.interval()
        );
    }
    Ok(())
}

/// `--chrome-trace`: one document for the run, shard `i` as process
/// `i + 1`, into the handle opened by [`create_chrome_file`].
fn emit_chrome(
    run: &RunArgs,
    shards: &[Simulator],
    recoveries: Option<&[RecoveryReport]>,
    file: Option<File>,
) -> Result<(), String> {
    let (Some(path), Some(file)) = (&run.chrome_trace, file) else {
        return Ok(());
    };
    let inputs: Vec<ChromeTraceInput<'_>> = shards
        .iter()
        .enumerate()
        .map(|(i, sim)| {
            let mem = sim.memory();
            ChromeTraceInput {
                recorder: mem.recorder(),
                metrics: mem.metrics(),
                profile: mem.profiler(),
                recovery: recoveries.map(|r| r[i].timeline.as_slice()),
                lag: mem.lag(),
            }
        })
        .collect();
    let mut out = BufWriter::new(file);
    write_chrome_trace(&mut out, &inputs).map_err(|e| format!("{path}: {e}"))?;
    let processes = match inputs.len() {
        1 => String::new(),
        n => format!(" ({n} shard processes)"),
    };
    eprintln!("wrote Chrome trace{processes} to {path} (load it at https://ui.perfetto.dev)");
    Ok(())
}

/// `--profile-out` (and the stage table unless `--csv`): the stage-wise
/// sum over the shards' profilers, with each recovery folded in so the
/// profile carries the recovery-domain stages too.
fn emit_profile(
    run: &RunArgs,
    router: &ShardRouter,
    recoveries: Option<&[RecoveryReport]>,
) -> Result<(), String> {
    let Some(path) = &run.profile_out else {
        return Ok(());
    };
    let mut prof = router
        .merged_profile()
        .expect("profilers are attached whenever --profile-out is set");
    for report in recoveries.unwrap_or_default() {
        prof.absorb_recovery(report);
    }
    let json = prof.to_json(run.design.slug(), &run.bench, run.instructions);
    std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
    if !run.csv {
        println!("{}", prof.render_table());
    }
    match router.shard_count() {
        1 => eprintln!("wrote stage profile to {path}"),
        n => eprintln!("wrote merged stage profile ({n} shards) to {path}"),
    }
    Ok(())
}

/// `--wear-out` (and the rendered table unless `--csv`): one
/// `ccnvm-wear/1` report per shard. Shards are independent devices,
/// so wear is never merged.
fn emit_wear(run: &RunArgs, shards: &[Simulator]) -> Result<(), String> {
    let Some(path) = &run.wear_out else {
        return Ok(());
    };
    for (i, sim) in shards.iter().enumerate() {
        let report = sim
            .memory()
            .wear_report(&run.bench, sim.instructions())
            .expect("wear ledgers are attached whenever --wear-out is set");
        let path = shard_path(path, i, shards.len());
        std::fs::write(&path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        if !run.csv {
            if shards.len() > 1 {
                println!("=== shard {i} wear report ===");
            }
            print!("{}", ccnvm::obs::wear::render_report(&report));
        }
        eprintln!(
            "wrote wear report ({}) to {path}",
            ccnvm::obs::wear::WEAR_SCHEMA
        );
    }
    Ok(())
}

/// Prints each shard's audit verdict; a strict-mode auditor that
/// latched a violation turns into a nonzero exit.
fn audit_verdict(shards: &[Simulator]) -> Result<(), String> {
    let sharded = shards.len() > 1;
    let mut failing = Vec::new();
    for (i, sim) in shards.iter().enumerate() {
        let Some(aud) = sim.memory().auditor() else {
            continue;
        };
        let who = if sharded {
            format!("audit shard {i}")
        } else {
            "audit".to_owned()
        };
        if aud.violations().is_empty() {
            eprintln!("{who}: clean ({} checkpoints)", aud.checks_run());
            continue;
        }
        if sharded {
            eprintln!("{who}:");
        }
        eprint!("{}", aud.report());
        if aud.failed() {
            failing.push(aud.violations().len());
        }
    }
    match failing[..] {
        [] => Ok(()),
        [n] if !sharded => Err(format!(
            "audit: {n} invariant violation(s) under strict mode"
        )),
        _ => Err(format!(
            "audit: invariant violations on {} shard(s) under strict mode",
            failing.len()
        )),
    }
}

fn cmd_run(run: &RunArgs) -> Result<(), String> {
    let chrome_file = create_chrome_file(run)?;
    let (mut router, io) = build(run)?;
    drive(&mut router, run)?;
    sync_durable(&mut router);
    report_file_io(run, io.as_ref());
    let stats = router.stats();
    let sharded = router.shard_count() > 1;
    if run.csv {
        println!("design,bench,{}", RunStats::csv_header());
        println!("{},{},{}", run.design.slug(), run.bench, stats.csv_row());
    } else {
        let topology = if sharded {
            format!(", {} shards", router.shard_count())
        } else {
            String::new()
        };
        println!(
            "{} on {} ({} instructions, seed {}{topology}):",
            run.design, run.bench, run.instructions, run.seed
        );
        println!("{stats}");
    }
    if sharded {
        // The load-balance view; status-stream under --csv so stdout
        // stays machine-parseable.
        let gauges = render_shard_gauges(&router.shard_gauges());
        if run.csv {
            eprint!("{gauges}");
        } else {
            print!("{gauges}");
        }
    } else if !run.csv {
        let wear = router.shard(0).memory().wear_stats();
        println!(
            "wear: hottest line {} with {} writes; {} lines written (mean {:.2})",
            wear.hottest_line
                .map(|l| l.to_string())
                .unwrap_or_else(|| "-".into()),
            wear.max_line_writes,
            wear.lines_written,
            wear.mean_line_writes
        );
    }
    emit_artifacts(run, &router, None, chrome_file)?;
    audit_verdict(router.shards())
}

fn cmd_sweep(sweep: &SweepArgs) -> Result<(), String> {
    if sweep.run.csv {
        println!("param,value,design,bench,{}", RunStats::csv_header());
    } else {
        println!(
            "{:<10}{:>12}{:>14}{:>12}{:>14}",
            "value", "IPC", "NVM writes", "epochs", "wb/epoch"
        );
    }
    // Sweep points are independent simulations: fan them out and print
    // the results in sweep order, identical at any thread count.
    let points: Vec<(&'static str, u64, RunArgs)> = sweep
        .values
        .iter()
        .map(|&value| {
            let mut run = sweep.run.clone();
            let name = match sweep.param {
                SweepParam::N => {
                    run.limit_n = value as u32;
                    "n"
                }
                SweepParam::M => {
                    run.queue_m = value as usize;
                    "m"
                }
            };
            // Sweep points are independent stores: each gets its own
            // subdirectory so their logs never interleave.
            if let BackendChoice::File(dir) = &run.backend {
                run.backend = BackendChoice::File(format!("{dir}/{name}{value}"));
            }
            (name, value, run)
        })
        .collect();
    let threads = thread_count(sweep.run.threads);
    let results = parallel_map(&points, threads, |_, (_, _, run)| sweep_point(run));
    for ((name, value, run), stats) in points.iter().zip(results) {
        let stats = stats?;
        if run.csv {
            println!(
                "{},{},{},{},{}",
                name,
                value,
                run.design.slug(),
                run.bench,
                stats.csv_row()
            );
        } else {
            println!(
                "{:<10}{:>12.4}{:>14}{:>12}{:>14.1}",
                format!("{name}={value}"),
                stats.ipc(),
                stats.total_writes(),
                stats.drains,
                stats.write_backs as f64 / stats.drains.max(1) as f64
            );
        }
    }
    Ok(())
}

/// One sweep point: build, drive, shut down cleanly.
fn sweep_point(run: &RunArgs) -> Result<RunStats, String> {
    let (mut router, _) = build(run)?;
    drive(&mut router, run)?;
    sync_durable(&mut router);
    Ok(router.stats())
}

/// `recover`: re-simulate the workload, crash it, recover every shard
/// and report. One shard crashes at the end of the run; with
/// `--backend file:` its store is reopened from disk. With N shards,
/// the shard with the deepest dirty queue is caught mid-drain while the
/// others quiesce.
fn cmd_recover(run: &RunArgs) -> Result<(), String> {
    let chrome_file = create_chrome_file(run)?;
    // The re-simulation only reconstructs the pre-crash machine state
    // (TCB registers are battery-backed hardware and survive a crash);
    // it always runs in memory. The durable image under recovery is
    // the file store reopened below, never the re-simulation's writes.
    let mut mem_run = run.clone();
    mem_run.backend = BackendChoice::Mem;
    let (mut router, _) = build(&mem_run)?;
    drive(&mut router, &mem_run)?;
    let shards = router.shard_count() as usize;
    let threads = thread_count(run.threads);
    // The flight sidecar is read before the reopen below so the
    // forensic analysis sees the log exactly as the power cut left it
    // (reopening truncates a torn tail in place).
    let mut flight_raw: Option<(Vec<String>, u64)> = None;
    let images = if shards == 1 {
        let mem = router.shard(0).memory();
        match &run.backend {
            BackendChoice::Mem => vec![mem.crash_image()],
            BackendChoice::File(dir) => {
                if run.forensics_out.is_some() {
                    flight_raw = Some(ccnvm_mem::read_flight_log(dir).map_err(|e| e.to_string())?);
                }
                // A real crash recovery: reopen the directory from disk
                // and recover from what the filesystem actually
                // preserved — records the fsync strategy had not
                // flushed are gone, exactly as after a power cut.
                let (image, s) =
                    CrashImage::reopen(dir, backend_cfg(run), mem.config(), mem.tcb().clone())
                        .map_err(|e| e.to_string())?;
                println!(
                    "reopened file store {dir}: {} log records replayed, {} torn/unsynced \
                     bytes discarded",
                    s.replayed_records, s.discarded_bytes
                );
                vec![image]
            }
        }
    } else {
        // Quiesce every shard except the one with the deepest dirty
        // queue, then power-fail with that one mid-drain — staged to
        // the WPQ but never committed.
        let victim = router
            .shard_gauges()
            .iter()
            .max_by_key(|g| g.dirty_queue_depth)
            .map(|g| g.shard as usize)
            .unwrap_or(0);
        let flushed = parallel_for_mut(router.shards_mut(), threads, |i, sim| {
            if i == victim {
                Ok(())
            } else {
                sim.flush_caches().map_err(|e| e.to_string())
            }
        });
        for r in flushed {
            r?;
        }
        router.inject_mid_drain_crash(victim);
        println!(
            "{} on {}: service crashed after {} instructions across {shards} shards \
             (shard {victim} caught mid-drain)",
            run.design,
            run.bench,
            router.total_instructions(),
        );
        router.crash_images()
    };
    // Shards recover independently — fan the rebuilds out on the same
    // worker pool that quiesced them.
    let reports = parallel_map(&images, threads, |_, image| recover(image));
    if shards == 1 {
        print_recovery(run, router.total_instructions(), &images[0], &reports[0]);
    } else {
        for (i, (image, report)) in images.iter().zip(&reports).enumerate() {
            println!(
                "shard {i}: {} durable lines, {} staged lines lost, {} counter lines \
                 patched ({} retries), roots stored {:?} rebuilt {:?} — {}",
                image.surface().total_lines(),
                image.staged_lines_lost,
                report.recovered_counter_lines,
                report.total_retries,
                report.stored_root_match,
                report.rebuilt_root_match,
                if report.is_clean() {
                    "clean"
                } else {
                    "NOT CLEAN"
                }
            );
        }
    }
    // Artifacts go out in every branch so a failed recovery still
    // leaves a trace and profile to debug with.
    emit_artifacts(run, &router, Some(&reports), chrome_file)?;
    if let Some(path) = &run.forensics_out {
        for (i, (image, report)) in images.iter().zip(&reports).enumerate() {
            // File store: the recovered sidecar. In memory: the shard's
            // in-process ring (empty unless --flight was set — a crash
            // would have destroyed it, but recover's in-memory crash
            // never actually dies, so the ring is still readable).
            let (entries, discarded) = flight_raw.take().unwrap_or_else(|| {
                let ring = router.shard(i).memory().flight();
                let entries = ring.map(|f| f.entries().map(str::to_owned).collect());
                (entries.unwrap_or_default(), 0)
            });
            let analysis =
                ccnvm::obs::flight::analyze(&entries).map_err(|e| format!("flight log: {e}"))?;
            let fsync_name = match &run.backend {
                BackendChoice::File(_) => run.fsync.to_string(),
                // The in-memory image has no fsync-loss window.
                BackendChoice::Mem => "always".to_owned(),
            };
            let forensic = ccnvm::obs::flight::forensic_report(
                image,
                report,
                analysis,
                discarded,
                &fsync_name,
            );
            let path = shard_path(path, i, shards);
            std::fs::write(&path, forensic.to_json()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote forensic report ({}) to {path}",
                ccnvm::obs::flight::FORENSICS_SCHEMA
            );
        }
    }
    audit_verdict(router.shards())?;
    if reports.iter().all(RecoveryReport::is_clean) {
        match shards {
            1 => println!("verdict: CLEAN — memory fully recovered"),
            n => println!("verdict: CLEAN — all {n} shards fully recovered"),
        }
        Ok(())
    } else if matches!(&run.backend, BackendChoice::File(_))
        && run.fsync != ccnvm_mem::FsyncStrategy::Always
    {
        println!(
            "verdict: DURABILITY LOSS — records buffered under fsync={} never \
             reached disk before the crash; recovery detected the loss instead \
             of silently serving stale state (use --fsync always for the \
             ADR-faithful zero-loss mode)",
            run.fsync
        );
        if run.strict {
            return Err(format!(
                "--strict: durability loss under fsync={} is a gated verdict",
                run.fsync
            ));
        }
        Ok(())
    } else if run.design.is_crash_consistent() {
        Err("recovery reported attacks on an attack-free run (bug!)".into())
    } else {
        println!("verdict: UNRECOVERABLE — expected for w/o CC, the motivating deficiency");
        if run.strict {
            return Err("--strict: unrecoverable image is a gated verdict".into());
        }
        Ok(())
    }
}

/// The one-shard recovery walk-through: crash surface, patched
/// counters, root checks and the recovery timeline.
fn print_recovery(run: &RunArgs, instructions: u64, image: &CrashImage, report: &RecoveryReport) {
    println!(
        "{} on {}: crashed after {instructions} instructions",
        run.design, run.bench
    );
    let surface = image.surface();
    println!(
        "crash image: {} durable lines (data {}, hmac {}, counter {}, tree {}, unknown {})",
        surface.total_lines(),
        surface.data_lines,
        surface.dh_lines,
        surface.counter_lines,
        surface.tree_lines,
        surface.unknown_lines
    );
    if image.staged_lines_lost > 0 {
        println!(
            "note: {} staged lines had not reached the end signal and were \
             lost to the crash (replayed via counter retry)",
            image.staged_lines_lost
        );
    }
    println!(
        "recovery: {} counter lines patched ({} data lines), {} retries \
         (max {} per line, N_wb {})",
        report.recovered_counter_lines,
        report.recovered_data_lines,
        report.total_retries,
        report.max_line_retries,
        report.nwb
    );
    println!(
        "stored tree vs TCB roots: {:?}; rebuilt tree: {:?}; located attacks: {}",
        report.stored_root_match,
        report.rebuilt_root_match,
        report.located.len()
    );
    println!("recovery timeline ({} cycles):", report.recovery_cycles);
    for span in &report.timeline {
        println!(
            "  {:<22} {:>10}..{:<10} ops {:>8}  writes {:>6}",
            span.stage.name(),
            span.start,
            span.end,
            span.ops,
            span.nvm_writes
        );
    }
}

/// `run` retargeted at the file store in `dir` with the flight
/// recorder on: the sidecar and the crash image it explains both live
/// there.
fn on_flight_store(run: &RunArgs, dir: &Path) -> RunArgs {
    RunArgs {
        backend: BackendChoice::File(dir.display().to_string()),
        flight: true,
        ..run.clone()
    }
}

/// Turns `--kill` into a 1-based boundary index: a number passes
/// through; a label is resolved by a recording pass that replays the
/// workload under `dir/record` (removed afterwards) and takes the
/// label's first crossing. The recording pass builds exactly like the
/// kill pass — same observers, same selftest injections — so the index
/// names the same boundary there.
fn resolve_kill_boundary(spec: &str, run: &RunArgs, dir: &Path) -> Result<u64, String> {
    if let Ok(k) = spec.replace('_', "").parse::<u64>() {
        if k == 0 {
            return Err("--kill: boundaries are 1-based".into());
        }
        return Ok(k);
    }
    let record_dir = dir.join("record");
    let (mut router, _) = build(&on_flight_store(run, &record_dir))?;
    let (res, labels) =
        crashpoint::record(|| drive(&mut router, run).map(|()| sync_durable(&mut router)));
    drop(router);
    std::fs::remove_dir_all(&record_dir).ok();
    res?;
    match labels.iter().position(|l| l == spec) {
        Some(p) => {
            eprintln!(
                "recording pass: {} boundaries crossed; first {spec:?} crossing is #{}",
                labels.len(),
                p + 1
            );
            Ok(p as u64 + 1)
        }
        None => {
            let mut seen: Vec<&str> = Vec::new();
            for l in &labels {
                if !seen.contains(&l.as_str()) {
                    seen.push(l);
                }
            }
            Err(format!(
                "--kill {spec:?}: the workload never crossed that boundary (crossed: {})",
                if seen.is_empty() {
                    "none".to_owned()
                } else {
                    seen.join(", ")
                }
            ))
        }
    }
}

/// `forensics`: run the workload with the flight recorder writing the
/// durable sidecar, optionally kill the run at a persist boundary,
/// recover the directory from disk and print the forensic report.
fn cmd_forensics(run: &RunArgs) -> Result<(), String> {
    let BackendChoice::File(dir) = &run.backend else {
        return Err(
            "forensics needs --backend file:<dir> — the flight sidecar and the \
             crash image it explains both live on disk"
                .into(),
        );
    };
    let chrome_file = create_chrome_file(run)?;
    let dir = Path::new(dir);
    // A kill replays the workload in a subdirectory so the recording
    // pass and the crashed run never share a log.
    let (run_dir, kill_target) = match &run.kill {
        None => (dir.to_path_buf(), None),
        Some(spec) => (
            dir.join("crashed"),
            Some(resolve_kill_boundary(spec, run, dir)?),
        ),
    };
    let store_run = on_flight_store(run, &run_dir);
    let (mut router, _) = build(&store_run)?;
    let mut complete = || drive(&mut router, run).map(|()| sync_durable(&mut router));
    let armed_label = match kill_target {
        None => {
            complete()?;
            None
        }
        Some(k) => match crashpoint::kill_at(k, complete) {
            Err(sig) => {
                println!(
                    "killed at persist boundary #{} ({})",
                    sig.boundary, sig.label
                );
                Some(sig.label)
            }
            Ok(res) => {
                res?;
                return Err(format!(
                    "the workload completed without reaching boundary #{k} — \
                     nothing to kill (lower --kill or raise --instructions)"
                ));
            }
        },
    };
    // The observers live in the machine the power cut destroys: write
    // their artifacts and take the audit verdict first.
    emit_artifacts(run, &router, None, chrome_file)?;
    let audit = audit_verdict(router.shards());
    // TCB registers are battery-backed hardware state; they survive
    // the power cut exactly as they were at the kill instant.
    let mem = router.shard(0).memory();
    let (config, tcb) = (mem.config().clone(), mem.tcb().clone());
    // Dropping the router drops the store: unsynced bytes are lost,
    // file handles close — the power cut (a no-op for the completed,
    // synced run).
    drop(router);

    // Forensics reads the sidecar before the reopen truncates a torn
    // tail in place.
    let (entries, discarded) = ccnvm_mem::read_flight_log(&run_dir).map_err(|e| e.to_string())?;
    let (image, s) = CrashImage::reopen(&run_dir, backend_cfg(&store_run), &config, tcb)
        .map_err(|e| e.to_string())?;
    println!(
        "reopened file store {}: {} log records replayed, {} torn/unsynced \
         bytes discarded",
        run_dir.display(),
        s.replayed_records,
        s.discarded_bytes
    );
    let recovery = recover(&image);
    let analysis = ccnvm::obs::flight::analyze(&entries).map_err(|e| format!("flight log: {e}"))?;
    let forensic = ccnvm::obs::flight::forensic_report(
        &image,
        &recovery,
        analysis,
        discarded,
        &run.fsync.to_string(),
    );
    println!("{forensic}");
    let cause_ok = match &armed_label {
        Some(label) => forensic.flight.inferred_cause.as_deref() == Some(label.as_str()),
        None => forensic.flight.inferred_cause.is_none(),
    };
    match (&armed_label, &forensic.flight.inferred_cause) {
        (Some(label), _) if cause_ok => {
            println!("cause attribution: inferred cause matches the armed kill ({label})");
        }
        (Some(label), inferred) => println!(
            "cause attribution: MISMATCH — armed {label}, inferred {}",
            inferred.as_deref().unwrap_or("(quiescent)")
        ),
        (None, None) => {
            println!("cause attribution: quiescent log, as a completed run must leave");
        }
        (None, Some(inferred)) => {
            println!("cause attribution: UNEXPECTED open boundary {inferred} after a completed run")
        }
    }
    if let Some(path) = &run.forensics_out {
        std::fs::write(path, forensic.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "wrote forensic report ({}) to {path}",
            ccnvm::obs::flight::FORENSICS_SCHEMA
        );
    }
    audit?;
    if run.strict {
        let mut problems = Vec::new();
        if !cause_ok {
            problems.push("cause attribution mismatched".to_owned());
        }
        if !forensic.staged_attribution_consistent() {
            problems.push("staged-line attribution inconsistent".to_owned());
        }
        if !forensic.clean && run.design.is_crash_consistent() {
            problems.push(format!("gated verdict {}", forensic.verdict()));
        }
        if !problems.is_empty() {
            return Err(format!("--strict: {}", problems.join("; ")));
        }
    }
    Ok(())
}

fn cmd_report(args: &ReportArgs) -> Result<(), String> {
    let mut dropped_samples = 0u64;
    if let Some(path) = &args.metrics {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let (samples, footer) = ccnvm::obs::metrics::parse_metrics_with_footer(&text)
            .map_err(|e| format!("{path}: {e}"))?;
        println!("{path}:");
        print!("{}", ccnvm::obs::metrics::render_summary(&samples));
        if let Some(f) = footer {
            if f.dropped > 0 {
                dropped_samples = f.dropped;
                eprintln!(
                    "warning: {path}: the export's footer records {} dropped sample(s) \
                     at capacity — the summary above understates the run (re-export \
                     with a coarser --metrics-interval or a larger registry capacity)",
                    f.dropped
                );
            }
        }
    }
    if let Some(path) = &args.wear {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report = ccnvm::obs::wear::parse_wear(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}:");
        print!("{}", ccnvm::obs::wear::render_report(&report));
        if !report.conserved() {
            return Err(format!(
                "{path}: wear ledger attributes {} writes but the controller \
                 counted {} — the export violates write conservation",
                report.attributed_writes, report.total_writes
            ));
        }
    }
    let strict_drops_gate = |dropped: u64| -> Result<(), String> {
        if args.strict_drops && dropped > 0 {
            Err(format!(
                "--strict-drops: the metrics export dropped {dropped} sample(s)"
            ))
        } else {
            Ok(())
        }
    };
    let Some((path_a, path_b)) = &args.compare else {
        return strict_drops_gate(dropped_samples);
    };
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_profile(&text).map_err(|e| format!("{path}: {e}"))
    };
    let a = read(path_a)?;
    let b = read(path_b)?;
    let diff = compare(&a, &b, args.tolerance);
    println!(
        "comparing {} (baseline, {} on {}) vs {} (candidate, {} on {}):",
        path_a, a.design, a.bench, path_b, b.design, b.bench
    );
    print!("{}", diff.render());
    if diff.has_regressions() {
        Err(format!(
            "{} stage(s) regressed beyond {}% tolerance",
            diff.regressions(),
            args.tolerance
        ))
    } else {
        strict_drops_gate(dropped_samples)
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;

    /// The parallel sweep must produce the same per-point stats as
    /// serial simulation, whatever the worker count.
    #[test]
    fn parallel_sweep_matches_serial() {
        let base = RunArgs {
            instructions: 20_000,
            ..RunArgs::default()
        };
        let sweep = SweepArgs {
            run: base.clone(),
            param: SweepParam::N,
            values: vec![4, 16, 64],
        };
        let points: Vec<RunArgs> = sweep
            .values
            .iter()
            .map(|&v| {
                let mut r = base.clone();
                r.limit_n = v as u32;
                r
            })
            .collect();
        let serial: Vec<RunStats> = points.iter().map(|r| sweep_point(r).unwrap()).collect();
        let parallel =
            ccnvm_bench::parallel::parallel_map(&points, 3, |_, r| sweep_point(r).unwrap());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.csv_row(), p.csv_row());
        }
    }
}
