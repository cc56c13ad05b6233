//! The repository benchmark: four workloads that each isolate a layer
//! of the cc-NVM simulator and its durable store. An untraced run
//! measures the end-to-end metrics; a traced run (`--trace 1`) times
//! every layer call and reports the per-layer metrics. See README.md.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed S] [--seconds N]
//!           [--trace 0|1] [--smoke] [--out DIR]
//! benchmark compare PARENT_DIR CHANGE_DIR
//! benchmark --write-reference
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Human-readable progress goes to stderr. The exit code is 0 when
//! every op passed its checks, 1 when some failed, 2 on a usage or
//! set-up error (no result line then).

mod compare;
mod metrics;
mod ops;
mod plan;
mod report;
mod run;
mod traced;

use metrics::{Metric, END_TO_END, PER_LAYER};
use plan::{Workload, DEFAULT_SEED, PINNED, REFERENCE_KEY};
use report::{Artifact, Provenance};
use run::RunConfig;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Scratch space for file stores, removed when the run ends.
const WORK_DIR: &str = ".bench_work";

/// Where traced runs put their results unless `--out` says otherwise.
const DEFAULT_OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

#[derive(Debug)]
enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
    WriteReference,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv {
            [_, parent, change] => Ok(Command::Compare(parent.into(), change.into())),
            _ => Err("usage: benchmark compare PARENT_DIR CHANGE_DIR".into()),
        };
    }
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 30,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: {s:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(name).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!(
                            "unknown workload {name:?} (expected all, {})",
                            names.join(", ")
                        )
                    })?),
                };
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?.into()),
            "--write-reference" if argv.len() == 1 => return Ok(Command::WriteReference),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(args))
}

/// A per-process scratch directory inside the checkout.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> Result<Self, String> {
        let dir = Path::new(WORK_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Only succeeds once no other run is using it.
        std::fs::remove_dir(WORK_DIR).ok();
    }
}

/// Runs one workload in this process; `Ok(correct)`.
fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let work = WorkDir::create(workload)?;
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        smoke: args.smoke,
        work: work.0.clone(),
    };
    let (outcome, tracer) = if args.traced {
        let (o, tr) = traced::traced(&cfg);
        (o, Some(tr))
    } else {
        (run::untraced(&cfg), None)
    };
    drop(work);
    let defs = if args.traced { PER_LAYER } else { END_TO_END };
    let published = outcome.metrics.select(defs)?;
    let extra: Vec<Metric> = outcome
        .metrics
        .0
        .iter()
        .filter(|m| !defs.iter().any(|d| d.name == m.name))
        .cloned()
        .collect();
    let correct = outcome.failed == 0;

    let mut human = format!(
        "{} seed {}{}: {} ops, {} failed\n",
        workload.name(),
        args.seed,
        if args.traced { " (traced)" } else { "" },
        outcome.attempted,
        outcome.failed
    );
    for m in published.iter().chain(&extra) {
        let _ = writeln!(human, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprint!("{human}");

    let out_dir = match (&args.out, args.traced) {
        (Some(dir), _) => Some(dir.clone()),
        (None, true) => Some(PathBuf::from(DEFAULT_OUT_DIR)),
        (None, false) => None,
    };
    if let Some(dir) = out_dir {
        let kind = if args.traced { "traced" } else { "untraced" };
        let stem = format!("{}-seed{}-{kind}", workload.name(), args.seed);
        let artifact = Artifact {
            provenance: Provenance {
                workload: workload.name().into(),
                seed: args.seed,
                traced: args.traced,
                smoke: args.smoke,
                seconds: args.seconds,
                crypto_tier: ops::crypto_tier().to_string(),
                budget: workload.budget_label(args.smoke),
                reference_hash: plan::reference_hash(),
            },
            correct,
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics: published.clone(),
            extra,
        };
        let write = |name: String, text: String| {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        write(format!("{stem}.json"), report::write_artifact(&artifact))?;
        if let Some(tr) = &tracer {
            write(
                format!("{stem}.spans.jsonl"),
                report::write_spans(tr.spans()),
            )?;
        }
    }
    println!(
        "{}",
        report::summary_line(correct, outcome.attempted, outcome.failed, &published)
    );
    Ok(correct)
}

/// Runs every workload, each in its own child process, one after
/// another; `Ok(all correct)`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut all_ok = true;
    for w in Workload::ALL {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        if let Some(out) = &args.out {
            child.arg("--out").arg(out);
        }
        let status = child
            .status()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

/// Regenerates `reference.csv` from `Simulator::run` (never from the
/// benchmark's traced loop): every pinned op of every workload at the
/// default seed, simulated in memory.
fn write_reference() -> Result<(), String> {
    use ccnvm::prelude::*;
    let mut text = format!("{REFERENCE_KEY},{}\n", RunStats::csv_header());
    for w in Workload::ALL {
        for i in 0..PINNED {
            let op = plan::op(w, DEFAULT_SEED, i, false);
            let mut sim = Simulator::new(SimConfig::paper(op.design)).map_err(|e| e.to_string())?;
            let trace = TraceGenerator::new(op.profile.clone(), op.seed);
            let stats = sim
                .run(trace, op.instructions)
                .map_err(|e| format!("{} op {i}: {e}", w.name()))?;
            let _ = writeln!(
                text,
                "{},{i},{},{},{},{}",
                w.name(),
                op.seed,
                op.profile.name,
                op.design.slug(),
                stats.csv_row()
            );
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.csv");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "wrote {} ({} ops)",
        path.display(),
        Workload::ALL.len() * PINNED
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|cmd| match cmd {
        Command::Run(args) => match args.workload {
            Some(w) => run_one(&args, w),
            None => run_all(&args),
        },
        Command::Compare(parent, change) => {
            let (table, regressed) = compare::compare(&parent, &change)?;
            print!("{table}");
            Ok(!regressed)
        }
        Command::WriteReference => write_reference().map(|()| true),
    });
    std::process::exit(match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Command, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn command_line_arguments_parse() {
        let Ok(Command::Run(a)) = args("--workload cold-read --seed 7 --seconds 3 --trace 1")
        else {
            panic!("parses")
        };
        assert_eq!(a.workload, Some(Workload::ColdRead));
        assert_eq!((a.seed, a.seconds, a.traced, a.smoke), (7, 3, true, false));
        let Ok(Command::Run(a)) = args("--smoke") else {
            panic!("parses")
        };
        assert_eq!((a.workload, a.traced, a.smoke), (None, false, true));
        assert!(matches!(args("compare a b"), Ok(Command::Compare(..))));
        assert!(matches!(
            args("--write-reference"),
            Ok(Command::WriteReference)
        ));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds",
            "--bogus",
            "compare onlyone",
            "--write-reference --smoke",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
