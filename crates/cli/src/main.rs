//! `ccnvm-sim` — command-line driver for the cc-NVM simulator.
//!
//! ```text
//! ccnvm-sim run --design ccnvm --bench lbm --instructions 1000000
//! ccnvm-sim sweep --param n --values 4,8,16,32,64
//! ccnvm-sim recover --bench gcc
//! ccnvm-sim run --trace my_trace.txt --design sc
//! ccnvm-sim forensics --backend file:/tmp/f --kill drain-stage
//! ```
//!
//! Every command builds and drives one [`Simulator`] — one memory
//! controller with one epoch domain, as in the paper — over the
//! in-memory line store or a `--backend file:` store.

mod args;

use args::{BackendChoice, Command, ReportArgs, RunArgs, SweepArgs, USAGE};
use ccnvm::metacache::MetaCacheOrg;
use ccnvm::obs::flight::{forensic_report, ForensicReport, FORENSICS_SCHEMA};
use ccnvm::obs::metrics::parse_metrics_with_footer;
use ccnvm::obs::profile::{compare, parse_profile};
use ccnvm::obs::wear::parse_wear;
use ccnvm::prelude::*;
use ccnvm::recovery::{recover_with, RecoveryScratch};
use ccnvm_bench::parallel::{parallel_map, thread_count};
use ccnvm_crypto::CryptoTier;
use ccnvm_mem::{crashpoint, DurableBackend, FileBackend, FileBackendConfig, FileIoCounters};
use std::fmt::Display;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
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
    // validate() rejects a forced tier the host cannot run.
    config.crypto = run.crypto;
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// The tier `--crypto` resolves to. Recovery runs on it as well as the
/// simulation; `config_of` has already rejected an unavailable tier.
fn tier_of(run: &RunArgs) -> CryptoTier {
    run.crypto.resolve().expect("config_of validated the tier")
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

/// Builds the run's simulator — over the in-memory store, or over a
/// fresh `--backend file:` store — with every observer the flags ask
/// for attached. The second return is the file store's I/O counter
/// handle (usable after the store is boxed away), `None` in memory.
fn build(run: &RunArgs) -> Result<(Simulator, Option<Arc<FileIoCounters>>), String> {
    let config = config_of(run)?;
    let (sim, io) = match &run.backend {
        BackendChoice::Mem => (Simulator::new(config), None),
        BackendChoice::File(dir) => {
            let store = open_fresh_store(dir, backend_cfg(run))?;
            let io = store.io_counters();
            (Simulator::with_backend(config, Box::new(store)), Some(io))
        }
    };
    let mut sim = sim.map_err(|e| e.to_string())?;
    attach_observers(run, sim.memory_mut());
    Ok((sim, io))
}

/// Feeds the workload — a replayed trace or a synthetic profile —
/// through the simulator until the instruction budget is met or a
/// strict auditor latches a violation.
fn drive(sim: &mut Simulator, run: &RunArgs) -> Result<(), String> {
    if let Some(path) = &run.trace {
        let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let ops = ccnvm_trace::text::read_trace(BufReader::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        if ops.is_empty() {
            return Err(format!("{path}: trace is empty"));
        }
        // Replay the trace cyclically until the instruction budget is
        // met, so short captures still produce steady-state numbers.
        while sim.instructions() < run.instructions && !sim.memory().audit_failed() {
            sim.run(ops.iter().copied(), run.instructions - sim.instructions())
                .map_err(|e| e.to_string())?;
        }
    } else {
        let profile = profiles::by_name(&run.bench)
            .ok_or_else(|| format!("unknown benchmark {:?} (try `list`)", run.bench))?;
        let trace = TraceGenerator::new(profile, run.seed);
        sim.run(trace, run.instructions)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// [`drive`]s the workload to its end and syncs the durable store, as
/// an orderly shutdown does.
fn complete(sim: &mut Simulator, run: &RunArgs) -> Result<(), String> {
    drive(sim, run)?;
    sim.memory_mut().sync_durable();
    Ok(())
}

/// [`build`]s the run's simulator and [`complete`]s its workload.
fn simulate(run: &RunArgs) -> Result<(Simulator, Option<Arc<FileIoCounters>>), String> {
    let (mut sim, io) = build(run)?;
    complete(&mut sim, run)?;
    Ok((sim, io))
}

/// Attaches every observer the flags ask for.
fn attach_observers(run: &RunArgs, mem: &mut SecureMemory) {
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
    }
    if let Some(mode) = run.audit {
        mem.attach_auditor(mode);
    }
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

/// Writes one artifact file: `write` fills it through a buffer, which
/// is then flushed, and every I/O error comes back naming `path`.
fn write_artifact(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BufWriter::new(file);
    write(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("{path}: {e}"))
}

/// Writes every artifact the flags ask for. Status goes to stderr so
/// stdout stays machine-parseable under `--csv`.
fn emit_artifacts(
    run: &RunArgs,
    sim: &Simulator,
    recovery: Option<&RecoveryReport>,
    chrome_file: Option<File>,
) -> Result<(), String> {
    let mem = sim.memory();
    emit_trace(run, mem)?;
    emit_metrics(run, mem)?;
    emit_chrome(run, mem, recovery, chrome_file)?;
    emit_profile(run, mem, recovery)?;
    emit_wear(run, sim)
}

/// `--trace-out` (CSV when the path ends in `.csv`, JSON lines
/// otherwise) and `--epoch-report`.
fn emit_trace(run: &RunArgs, mem: &SecureMemory) -> Result<(), String> {
    let Some(rec) = mem.recorder() else {
        return Ok(());
    };
    if let Some(path) = &run.trace_out {
        write_artifact(path, |out| {
            if path.ends_with(".csv") {
                rec.write_csv(out)
            } else {
                rec.write_jsonl(out)
            }
        })?;
        eprintln!(
            "wrote {} events to {path} ({} dropped at capacity {})",
            rec.trace().len(),
            rec.trace().dropped(),
            rec.trace().capacity()
        );
    }
    if run.epoch_report {
        println!("{}", rec.epoch_report());
    }
    Ok(())
}

/// `--metrics-out`: CSV when the path ends in `.csv`, JSON lines
/// otherwise.
fn emit_metrics(run: &RunArgs, mem: &SecureMemory) -> Result<(), String> {
    let Some(path) = &run.metrics_out else {
        return Ok(());
    };
    let m = mem
        .metrics()
        .expect("metrics are attached whenever --metrics-out is set");
    write_artifact(path, |out| {
        if path.ends_with(".csv") {
            m.write_csv(out)
        } else {
            m.write_jsonl(out)
        }
    })?;
    eprintln!(
        "wrote {} metrics samples to {path} ({} dropped, interval {} cycles)",
        m.len(),
        m.dropped(),
        m.interval()
    );
    Ok(())
}

/// `--chrome-trace`, into the handle opened by [`create_chrome_file`].
fn emit_chrome(
    run: &RunArgs,
    mem: &SecureMemory,
    recovery: Option<&RecoveryReport>,
    file: Option<File>,
) -> Result<(), String> {
    let (Some(path), Some(file)) = (&run.chrome_trace, file) else {
        return Ok(());
    };
    let input = ChromeTraceInput {
        recorder: mem.recorder(),
        metrics: mem.metrics(),
        profile: mem.profiler(),
        recovery: recovery.map(|r| r.timeline.as_slice()),
        lag: mem.lag(),
    };
    let mut out = BufWriter::new(file);
    write_chrome_trace(&mut out, &input)
        .and_then(|()| out.flush())
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote Chrome trace to {path} (load it at https://ui.perfetto.dev)");
    Ok(())
}

/// `--profile-out` (and the stage table unless `--csv`), with the
/// recovery folded in so the profile carries the recovery-domain
/// stages too.
fn emit_profile(
    run: &RunArgs,
    mem: &SecureMemory,
    recovery: Option<&RecoveryReport>,
) -> Result<(), String> {
    let Some(path) = &run.profile_out else {
        return Ok(());
    };
    let mut prof = mem
        .profiler()
        .expect("the profiler is attached whenever --profile-out is set")
        .clone();
    if let Some(report) = recovery {
        prof.absorb_recovery(report);
    }
    let json = prof.to_json(run.design.slug(), &run.bench, run.instructions);
    write_artifact(path, |out| out.write_all(json.as_bytes()))?;
    if !run.csv {
        println!("{}", prof.render_table());
    }
    eprintln!("wrote stage profile to {path}");
    Ok(())
}

/// `--wear-out` (and the rendered table unless `--csv`): the
/// `ccnvm-wear/1` report.
fn emit_wear(run: &RunArgs, sim: &Simulator) -> Result<(), String> {
    let Some(path) = &run.wear_out else {
        return Ok(());
    };
    let report = sim
        .memory()
        .wear_report(&run.bench, sim.instructions())
        .expect("wear ledgers are attached whenever --wear-out is set");
    write_artifact(path, |out| out.write_all(report.to_json().as_bytes()))?;
    if !run.csv {
        print!("{}", ccnvm::obs::wear::render_report(&report));
    }
    eprintln!(
        "wrote wear report ({}) to {path}",
        ccnvm::obs::wear::WEAR_SCHEMA
    );
    Ok(())
}

/// Prints the audit verdict; a strict-mode auditor that latched a
/// violation turns into a nonzero exit.
fn audit_verdict(mem: &SecureMemory) -> Result<(), String> {
    let Some(aud) = mem.auditor() else {
        return Ok(());
    };
    if aud.violations().is_empty() {
        eprintln!("audit: clean ({} checkpoints)", aud.checks_run());
        return Ok(());
    }
    eprint!("{}", aud.report());
    if aud.failed() {
        return Err(format!(
            "audit: {} invariant violation(s) under strict mode",
            aud.violations().len()
        ));
    }
    Ok(())
}

fn cmd_run(run: &RunArgs) -> Result<(), String> {
    let chrome_file = create_chrome_file(run)?;
    let (sim, io) = simulate(run)?;
    report_file_io(run, io.as_ref());
    let stats = sim.stats();
    if run.csv {
        println!("design,bench,{}", RunStats::csv_header());
        println!("{},{},{}", run.design.slug(), run.bench, stats.csv_row());
    } else {
        println!(
            "{} on {} ({} instructions, seed {}):",
            run.design, run.bench, run.instructions, run.seed
        );
        println!("{stats}");
        let wear = sim.memory().wear_stats();
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
    emit_artifacts(run, &sim, None, chrome_file)?;
    audit_verdict(sim.memory())
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
            let name = sweep.param.name();
            sweep
                .param
                .set(&mut run, value)
                .expect("args::parse checked every sweep value");
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

/// One sweep point's stats.
fn sweep_point(run: &RunArgs) -> Result<RunStats, String> {
    simulate(run).map(|(sim, _)| sim.stats())
}

/// `--forensics-out`: the `ccnvm-forensics/1` report.
fn write_forensics(path: &str, forensic: &ForensicReport) -> Result<(), String> {
    write_artifact(path, |out| out.write_all(forensic.to_json().as_bytes()))?;
    eprintln!("wrote forensic report ({FORENSICS_SCHEMA}) to {path}");
    Ok(())
}

/// Prints what reading a file store back after a power cut found.
fn print_reopened(dir: impl Display, cut: &PowerCut) {
    let Some(s) = cut.io else {
        return;
    };
    println!(
        "reopened file store {dir}: {} log records replayed, {} torn/unsynced \
         bytes discarded",
        s.replayed_records, s.discarded_bytes
    );
}

/// `recover`: re-simulate the workload, crash it at the end of the
/// run, recover and report. With `--backend file:` the store is
/// reopened from disk and recovered from what it preserved.
fn cmd_recover(run: &RunArgs) -> Result<(), String> {
    // A store that is not there is refused before anything runs or is
    // written.
    if let BackendChoice::File(dir) = &run.backend {
        FileBackend::require_existing(dir).map_err(|e| e.to_string())?;
    }
    let chrome_file = create_chrome_file(run)?;
    // The re-simulation only reconstructs the pre-crash machine state
    // (TCB registers are battery-backed hardware and survive a crash);
    // it always runs in memory. The durable image under recovery is
    // the file store reopened below, never the re-simulation's writes.
    let mem_run = RunArgs {
        backend: BackendChoice::Mem,
        ..run.clone()
    };
    let (sim, _) = simulate(&mem_run)?;
    let mem = sim.memory();
    let cut = match &run.backend {
        // recover's in-memory crash never actually dies, so the flight
        // ring (empty unless --flight was set) is still readable.
        BackendChoice::Mem => PowerCut::in_memory(mem),
        BackendChoice::File(dir) => {
            // A real crash recovery: reopen the directory from disk
            // and recover from what the filesystem actually preserved
            // — records the fsync strategy had not flushed are gone,
            // exactly as after a power cut.
            let cut = PowerCut::reopen(dir, backend_cfg(run), mem.config(), mem.tcb().clone())
                .map_err(|e| e.to_string())?;
            print_reopened(dir, &cut);
            cut
        }
    };
    let image = &cut.image;
    let report = recover_with(image, tier_of(run), &mut RecoveryScratch::default());
    println!(
        "{} on {}: crashed after {} instructions",
        run.design,
        run.bench,
        sim.instructions()
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
    println!("{report}");
    // Artifacts go out in every branch so a failed recovery still
    // leaves a trace and profile to debug with.
    emit_artifacts(run, &sim, Some(&report), chrome_file)?;
    if let Some(path) = &run.forensics_out {
        write_forensics(path, &forensic_report(&cut, &report)?)?;
    }
    audit_verdict(sim.memory())?;
    let verdict = cut.verdict(&report);
    match verdict {
        Verdict::Clean => {
            println!("verdict: {verdict} — memory fully recovered");
            Ok(())
        }
        Verdict::DurabilityLoss => {
            println!(
                "verdict: {verdict} — records buffered under fsync={} never \
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
        }
        Verdict::Unrecoverable => {
            println!("verdict: {verdict} — expected for w/o CC, the motivating deficiency");
            if run.strict {
                return Err("--strict: unrecoverable image is a gated verdict".into());
            }
            Ok(())
        }
        // The disk is outside the TCB: a fully synced store that fails
        // verification after the reopen was modified behind the
        // controller's back — the paper's attacker, not a crash.
        Verdict::Attacked if cut.io.is_some() => {
            for attack in &report.located {
                println!("located: {attack:?}");
            }
            println!("verdict: {verdict} — the reopened store was modified outside the TCB");
            Err("the reopened file store fails verification against the TCB roots".into())
        }
        Verdict::Attacked => Err("recovery reported attacks on an attack-free run (bug!)".into()),
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
    let (mut sim, _) = build(&on_flight_store(run, &record_dir))?;
    let (res, labels) = crashpoint::record(|| complete(&mut sim, run));
    drop(sim);
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
            let seen = crashpoint::distinct_labels(&labels);
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
    let (mut sim, _) = build(&store_run)?;
    let armed_label = match kill_target {
        None => {
            complete(&mut sim, run)?;
            None
        }
        Some(k) => match crashpoint::kill_at(k, || complete(&mut sim, run)) {
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
    emit_artifacts(run, &sim, None, chrome_file)?;
    let audit = audit_verdict(sim.memory());
    // TCB registers are battery-backed hardware state; they survive
    // the power cut exactly as they were at the kill instant.
    let mem = sim.memory();
    let (config, tcb) = (mem.config().clone(), mem.tcb().clone());
    // Dropping the simulator drops the store: unsynced bytes are lost,
    // file handles close — the power cut (a no-op for the completed,
    // synced run).
    drop(sim);

    let cut = PowerCut::reopen(&run_dir, backend_cfg(&store_run), &config, tcb)
        .map_err(|e| e.to_string())?;
    print_reopened(run_dir.display(), &cut);
    let recovery = recover_with(&cut.image, tier_of(run), &mut RecoveryScratch::default());
    let forensic = forensic_report(&cut, &recovery)?;
    println!("{forensic}");
    let cause_ok = forensic.flight.explains(armed_label.as_deref());
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
        write_forensics(path, &forensic)?;
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
        // w/o CC guarantees nothing, so no verdict of its is gated.
        if forensic.verdict != Verdict::Clean && run.design.is_crash_consistent() {
            problems.push(format!("gated verdict {}", forensic.verdict));
        }
        if !problems.is_empty() {
            return Err(format!("--strict: {}", problems.join("; ")));
        }
    }
    Ok(())
}

/// Reads the artifact at `path` back through `parse`; every error
/// names `path`.
fn read_artifact<T>(path: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse(&text))
        .map_err(|e| format!("{path}: {e}"))
}

fn cmd_report(args: &ReportArgs) -> Result<(), String> {
    let mut dropped_samples = 0u64;
    if let Some(path) = &args.metrics {
        let (samples, footer) = read_artifact(path, parse_metrics_with_footer)?;
        println!("{path}:");
        print!("{}", ccnvm::obs::metrics::render_summary(&samples));
        if let Some(f) = footer.filter(|f| f.dropped > 0) {
            dropped_samples = f.dropped;
            eprintln!(
                "warning: {path}: the export's footer records {} dropped sample(s) \
                 at capacity — the summary above understates the run (re-export \
                 with a coarser --metrics-interval or a larger registry capacity)",
                f.dropped
            );
        }
    }
    if let Some(path) = &args.wear {
        let report = read_artifact(path, parse_wear)?;
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
    if let Some((path_a, path_b)) = &args.compare {
        let a = read_artifact(path_a, parse_profile)?;
        let b = read_artifact(path_b, parse_profile)?;
        let diff = compare(&a, &b, args.tolerance);
        println!(
            "comparing {} (baseline, {} on {}) vs {} (candidate, {} on {}):",
            path_a, a.design, a.bench, path_b, b.design, b.bench
        );
        print!("{}", diff.render());
        if diff.has_regressions() {
            return Err(format!(
                "{} stage(s) regressed beyond {}% tolerance",
                diff.regressions(),
                args.tolerance
            ));
        }
    }
    if args.strict_drops && dropped_samples > 0 {
        return Err(format!(
            "--strict-drops: the metrics export dropped {dropped_samples} sample(s)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use args::SweepParam;

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
                sweep.param.set(&mut r, v).unwrap();
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

/// The auditor's negative paths, through the same `build`, `drive` and
/// `audit_verdict` that `run` uses, with a desync injected between the
/// build and the workload.
#[cfg(test)]
mod audit_tests {
    use super::*;
    use ccnvm::obs::audit::AuditMode;

    fn strict(run: RunArgs) -> RunArgs {
        RunArgs {
            audit: Some(AuditMode::Strict),
            ..run
        }
    }

    /// Drives `run` with its dirty address queue desynchronized from
    /// the Meta Cache before the workload.
    fn drive_desynced(run: &RunArgs) -> Simulator {
        let (mut sim, _) = build(run).expect("valid run");
        let mem = sim.memory_mut();
        let t = mem.inject_dirty_queue_desync(0).expect("write-backs");
        mem.audit_now(t);
        drive(&mut sim, run).expect("drives");
        sim
    }

    /// The auditor's report, and the verdict `run` exits with.
    fn verdict(sim: &Simulator) -> (String, String) {
        let report = sim.memory().auditor().expect("attached").report();
        let err = audit_verdict(sim.memory()).expect_err("strict mode fails");
        (report, err)
    }

    #[test]
    fn injected_dirty_queue_desync_fails_a_strict_audit() {
        let sim = drive_desynced(&strict(RunArgs {
            instructions: 5_000,
            ..RunArgs::default()
        }));
        let (report, err) = verdict(&sim);
        assert!(report.contains("dirty-coverage violated"), "{report}");
        assert!(err.contains("strict mode"), "{err}");
    }

    /// A strict auditor that latches on the first checkpoint stops a
    /// cyclic trace replay there, well short of the instruction budget.
    #[test]
    fn trace_replay_stops_at_a_latched_strict_audit() {
        let path =
            std::env::temp_dir().join(format!("ccnvm-sim-replay-audit-{}.txt", std::process::id()));
        let ops: String = (0..64u64)
            .map(|i| {
                let op = if i % 3 == 0 { 'W' } else { 'R' };
                format!("{} {op} {:#x}\n", i % 7, i * 4096)
            })
            .collect();
        std::fs::write(&path, ops).expect("trace written");
        let run = strict(RunArgs {
            instructions: 100_000,
            trace: Some(path.display().to_string()),
            ..RunArgs::default()
        });
        let sim = drive_desynced(&run);
        std::fs::remove_file(&path).ok();
        let (report, err) = verdict(&sim);
        assert_eq!(
            report.matches("dirty-coverage violated").count(),
            1,
            "{report}"
        );
        assert!(err.contains("strict mode"), "{err}");
        assert!(
            sim.instructions() < run.instructions,
            "the replay must stop at the latch, not at the budget: {}",
            sim.instructions()
        );
    }

    /// `--wear-out --audit strict` over a ledger skewed before the
    /// workload: the conservation check fails the run.
    #[test]
    fn injected_wear_desync_fails_a_strict_audit() {
        let run = strict(RunArgs {
            bench: "lbm".to_owned(),
            instructions: 50_000,
            wear_out: Some("unwritten.json".to_owned()),
            ..RunArgs::default()
        });
        let (mut sim, _) = build(&run).expect("valid run");
        sim.memory_mut().inject_wear_attribution_desync();
        drive(&mut sim, &run).expect("drives");
        let (report, err) = verdict(&sim);
        assert!(report.contains("wear-conservation violated"), "{report}");
        assert!(err.contains("strict mode"), "{err}");
        let wear = sim.memory().wear_report(&run.bench, sim.instructions());
        assert!(!wear.expect("ledger attached").conserved());
    }
}
