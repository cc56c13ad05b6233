//! A small, dependency-free argument parser for `ccnvm-sim`.
//!
//! Grammar:
//!
//! ```text
//! ccnvm-sim run       [OPTIONS] [OBSERVER OPTIONS]
//! ccnvm-sim sweep     --param {n|m} --values a,b,c [OPTIONS]
//! ccnvm-sim recover   [OPTIONS] [OBSERVER OPTIONS] [--forensics-out FILE] [--strict]
//! ccnvm-sim forensics --backend file:DIR [--kill LABEL] [recover options]
//! ccnvm-sim report    --compare A.json B.json [--tolerance PCT]
//! ccnvm-sim list      # available designs and benchmarks
//! ```
//!
//! OPTIONS choose the workload and the store; OBSERVER OPTIONS attach
//! observers and write what they saw. [`USAGE`] lists each option.

use ccnvm::config::DesignKind;
use ccnvm::obs::audit::AuditMode;
use ccnvm_crypto::CryptoSelect;
use ccnvm_mem::FsyncStrategy;
use std::fmt;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one simulation.
    Run(RunArgs),
    /// Sweep one epoch-trigger parameter.
    Sweep(SweepArgs),
    /// Run, crash at the end, recover and report.
    Recover(RunArgs),
    /// Run with the flight recorder on, optionally kill at a persist
    /// boundary, recover from disk and emit a forensic report.
    Forensics(RunArgs),
    /// Compare two saved stage profiles.
    Report(ReportArgs),
    /// List designs and benchmarks.
    List,
    /// Print usage.
    Help,
}

/// Options shared by `run` / `recover` / `sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Design to simulate.
    pub design: DesignKind,
    /// Synthetic benchmark name (ignored when `trace` is given).
    pub bench: String,
    /// Path to a text-format trace to replay instead of a profile.
    pub trace: Option<String>,
    /// Instruction budget.
    pub instructions: u64,
    /// Workload seed.
    pub seed: u64,
    /// Update-times limit N.
    pub limit_n: u32,
    /// Dirty address queue entries M.
    pub queue_m: usize,
    /// Use the split counter/tree meta-cache organization.
    pub split_meta: bool,
    /// Emit CSV instead of human-readable output.
    pub csv: bool,
    /// Write the observability event trace to this path (`.csv`
    /// extension selects CSV, anything else JSON lines).
    pub trace_out: Option<String>,
    /// Print the per-epoch rollup report after the run.
    pub epoch_report: bool,
    /// Write the per-stage attribution profile (JSON) to this path.
    pub profile_out: Option<String>,
    /// Write the time-series metrics export to this path (`.csv`
    /// extension selects CSV, anything else JSON lines).
    pub metrics_out: Option<String>,
    /// Simulated cycles between metrics samples (must be positive;
    /// only given with `metrics_out` or `chrome_trace`, which sample).
    pub metrics_interval: u64,
    /// Write a Chrome trace-event (Perfetto-loadable) JSON rendering
    /// of the run to this path.
    pub chrome_trace: Option<String>,
    /// Write the `ccnvm-wear/1` write-provenance / wear / durability-lag
    /// report to this path.
    pub wear_out: Option<String>,
    /// Attach the invariant auditor in this mode (`record` keeps
    /// going, `strict` fails fast with a nonzero exit).
    pub audit: Option<AuditMode>,
    /// Worker threads for the sweep points (`sweep` only). `None`
    /// means the machine's available parallelism.
    pub threads: Option<usize>,
    /// Where durable lines live (`--backend mem | file:<dir>`).
    pub backend: BackendChoice,
    /// Flush/fsync policy for the file backend (`--fsync always |
    /// batch:<n> | interval:<cycles>`). Ignored for `mem`.
    pub fsync: FsyncStrategy,
    /// Crypto implementation tier (`--crypto auto | portable | simd`),
    /// used by the simulation and by recovery. Bit-identical output
    /// across tiers; only wall-clock speed changes.
    pub crypto: CryptoSelect,
    /// Attach the flight recorder: an in-process ring of recent flight
    /// entries, mirrored into the file backend's durable `flight.log`
    /// sidecar when `--backend file:` is in use. `forensics` forces
    /// this on; `run` and `sweep`, which read no ring, take it only
    /// with a file backend.
    pub flight: bool,
    /// Write the `ccnvm-forensics/1` JSON report to this path
    /// (`recover` / `forensics` only).
    pub forensics_out: Option<String>,
    /// Exit nonzero on any non-clean recovery verdict — including
    /// `DURABILITY LOSS`, which the default exit treats as expected
    /// under a relaxed fsync strategy (`recover` / `forensics` only).
    pub strict: bool,
    /// Persist boundary to kill the run at: a label (first crossing)
    /// or a 1-based boundary index (`forensics` only).
    pub kill: Option<String>,
}

/// The durable store behind the secure memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendChoice {
    /// The in-memory line store (the default; byte-identical goldens).
    Mem,
    /// The file-backed commit log + manifest rooted at this directory.
    File(String),
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            design: DesignKind::CcNvm,
            bench: "mixed".to_owned(),
            trace: None,
            instructions: 1_000_000,
            seed: 42,
            limit_n: 16,
            queue_m: 64,
            split_meta: false,
            csv: false,
            trace_out: None,
            epoch_report: false,
            profile_out: None,
            metrics_out: None,
            metrics_interval: ccnvm::obs::metrics::DEFAULT_INTERVAL,
            chrome_trace: None,
            wear_out: None,
            audit: None,
            threads: None,
            backend: BackendChoice::Mem,
            fsync: FsyncStrategy::Always,
            crypto: CryptoSelect::Auto,
            flight: false,
            forensics_out: None,
            strict: false,
            kill: None,
        }
    }
}

/// `report` subcommand options. At least one of `compare` / `metrics`
/// / `wear` is set (the parser enforces it); combinations are fine.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// Stage-profile diff: `(baseline, candidate)` paths from
    /// `--compare A B`.
    pub compare: Option<(String, String)>,
    /// Metrics time-series export to summarize (`--metrics FILE`).
    pub metrics: Option<String>,
    /// Wear report (`ccnvm-wear/1`) to render (`--wear FILE`).
    pub wear: Option<String>,
    /// Per-stage growth tolerance in percent before a stage is flagged
    /// as a regression.
    pub tolerance: f64,
    /// Exit nonzero when the metrics export's footer records dropped
    /// samples (the summary silently understated the run otherwise).
    pub strict_drops: bool,
}

/// `sweep` subcommand options.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Common run options.
    pub run: RunArgs,
    /// Which parameter to sweep.
    pub param: SweepParam,
    /// The values to sweep over.
    pub values: Vec<u64>,
}

/// The sweepable epoch-trigger parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// Update-times limit N.
    N,
    /// Dirty address queue entries M.
    M,
}

impl SweepParam {
    /// The parameter's name in sweep output.
    pub fn name(self) -> &'static str {
        match self {
            SweepParam::N => "n",
            SweepParam::M => "m",
        }
    }

    /// Sets this parameter of `run` to `value`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseArgsError`] naming `--values` when `value`
    /// does not fit the parameter.
    pub fn set(self, run: &mut RunArgs, value: u64) -> Result<(), ParseArgsError> {
        match self {
            SweepParam::N => run.limit_n = narrow("--values", value)?,
            SweepParam::M => run.queue_m = narrow("--values", value)?,
        }
        Ok(())
    }
}

/// Error from argument parsing, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

/// Usage text.
pub const USAGE: &str = "\
ccnvm-sim — drive the cc-NVM secure-NVM simulator

USAGE:
  ccnvm-sim run     [OPTIONS]          run one simulation
  ccnvm-sim sweep   --param {n|m} --values A,B,C [OPTIONS]
  ccnvm-sim recover [OPTIONS]          run, crash, recover, report
  ccnvm-sim forensics --backend file:DIR [--kill LABEL] [OPTIONS]
                                       run with the flight recorder, kill at
                                       a persist boundary, recover from disk
                                       and print the forensic report
  ccnvm-sim report  --compare A.json B.json [--tolerance PCT]
  ccnvm-sim list                       list designs and benchmarks

OPTIONS:
  --design D          wo-cc | sc | osiris-plus | ccnvm-no-ds | ccnvm   [ccnvm]
  --bench B           synthetic benchmark name                         [mixed]
  --trace FILE        replay a text-format trace instead of a profile
  --instructions N    instruction budget                               [1000000]
  --seed S            workload seed                                    [42]
  --limit-n N         update-times drain/stop-loss limit               [16]
  --queue-m M         dirty address queue entries                      [64]
  --split-meta        split counter/tree meta cache (default shared)
  --csv               machine-readable CSV output
  --threads T         worker threads for sweep points (sweep only) [all cores]
  --backend B         durable store: mem | file:<dir>                 [mem]
                      (file: persists through a commit log + manifest in
                      <dir>; recover reopens it from disk)
  --fsync S           file-backend flush policy:
                      always | batch:<n> | interval:<cycles>          [always]
  --crypto T          crypto tier: auto | portable | simd             [auto]
                      (bit-identical output; simd errors out when the
                      build/host has no hardware path)
  --flight            attach the flight recorder (with --backend file: the
                      entries also persist to the flight.log sidecar;
                      run and sweep take it only with --backend file:,
                      recover with it or --forensics-out)

OBSERVER OPTIONS (run, recover, forensics):
  --trace-out FILE    write the event trace (.csv => CSV, else JSON lines)
  --epoch-report      print the per-epoch rollup report after the run
  --profile-out FILE  write the per-stage attribution profile (JSON)
  --metrics-out FILE  write time-series metrics (.csv => CSV, else JSON lines)
  --metrics-interval C  simulated cycles between metrics samples     [1000]
                      (with --metrics-out or --chrome-trace)
  --chrome-trace FILE write a Chrome trace-event JSON (load in Perfetto)
  --wear-out FILE     write the ccnvm-wear/1 write-provenance, per-line
                      wear and durability-lag report
  --audit MODE        attach the invariant auditor: record | strict

RECOVER / FORENSICS OPTIONS:
  --forensics-out FILE  write the ccnvm-forensics/1 JSON report
  --strict            exit nonzero on any non-clean recovery verdict,
                      including DURABILITY LOSS
  --kill B            (forensics) kill the run at persist boundary B: a
                      label (wpq-retire, drain-stage, root-alternate,
                      nwb-update, manifest-swap; first crossing) or a
                      1-based boundary index

REPORT OPTIONS:
  --compare A B       the two profile JSON files to diff (baseline, candidate)
  --metrics FILE      summarize a metrics time-series export
                      (min/mean/p50/p99/p999/max)
  --wear FILE         render a ccnvm-wear/1 report written by --wear-out
  --tolerance PCT     per-stage growth allowed before flagging      [5]
  --strict-drops      exit nonzero when the metrics footer records
                      dropped samples
";

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<&'a str, ParseArgsError> {
    iter.next()
        .ok_or_else(|| ParseArgsError(format!("{flag} needs a value")))
}

/// Parses one option `sub` shares with the other simulating
/// subcommands into `args`. Returns `false` for an unknown option.
fn parse_common<'a, I: Iterator<Item = &'a str>>(
    sub: &str,
    args: &mut RunArgs,
    flag: &str,
    iter: &mut I,
) -> Result<bool, ParseArgsError> {
    if let Some((_, subs)) = SCOPED.iter().find(|(scoped, _)| *scoped == flag) {
        if !subs.contains(&sub) {
            return Err(ParseArgsError(format!(
                "{flag} does not apply to the {sub} subcommand"
            )));
        }
    }
    match flag {
        "--design" => {
            let v = take_value(flag, iter)?;
            args.design = v
                .parse()
                .map_err(|e| ParseArgsError(format!("--design: {e}")))?;
        }
        "--bench" => args.bench = take_value(flag, iter)?.to_owned(),
        "--trace" => args.trace = Some(take_value(flag, iter)?.to_owned()),
        "--instructions" => {
            args.instructions = parse_number(flag, take_value(flag, iter)?)?;
        }
        "--seed" => args.seed = parse_number(flag, take_value(flag, iter)?)?,
        "--limit-n" => args.limit_n = parse_narrow(flag, take_value(flag, iter)?)?,
        "--queue-m" => args.queue_m = parse_narrow(flag, take_value(flag, iter)?)?,
        "--split-meta" => args.split_meta = true,
        "--csv" => args.csv = true,
        "--trace-out" => args.trace_out = Some(take_value(flag, iter)?.to_owned()),
        "--epoch-report" => args.epoch_report = true,
        "--profile-out" => args.profile_out = Some(take_value(flag, iter)?.to_owned()),
        "--metrics-out" => args.metrics_out = Some(take_value(flag, iter)?.to_owned()),
        "--metrics-interval" => {
            let n = parse_number(flag, take_value(flag, iter)?)?;
            if n == 0 {
                return Err(ParseArgsError(
                    "--metrics-interval must be a positive cycle count".into(),
                ));
            }
            args.metrics_interval = n;
        }
        "--chrome-trace" => args.chrome_trace = Some(take_value(flag, iter)?.to_owned()),
        "--wear-out" => args.wear_out = Some(take_value(flag, iter)?.to_owned()),
        "--audit" => {
            args.audit = Some(match take_value(flag, iter)? {
                "record" => AuditMode::Record,
                "strict" => AuditMode::Strict,
                other => {
                    return Err(ParseArgsError(format!(
                        "--audit must be record or strict, got {other:?}"
                    )))
                }
            });
        }
        "--threads" => {
            let n = parse_narrow(flag, take_value(flag, iter)?)?;
            if n == 0 {
                return Err(ParseArgsError("--threads must be positive".into()));
            }
            args.threads = Some(n);
        }
        "--backend" => {
            let v = take_value(flag, iter)?;
            args.backend = if v == "mem" {
                BackendChoice::Mem
            } else if let Some(dir) = v.strip_prefix("file:") {
                if dir.is_empty() {
                    return Err(ParseArgsError(
                        "--backend file: needs a directory, e.g. file:/tmp/ccnvm".into(),
                    ));
                }
                BackendChoice::File(dir.to_owned())
            } else {
                return Err(ParseArgsError(format!(
                    "--backend must be mem or file:<dir>, got {v:?}"
                )));
            };
        }
        "--fsync" => {
            args.fsync = take_value(flag, iter)?
                .parse()
                .map_err(|e| ParseArgsError(format!("--fsync: {e}")))?;
        }
        "--crypto" => {
            args.crypto = take_value(flag, iter)?
                .parse()
                .map_err(|e| ParseArgsError(format!("--crypto: {e}")))?;
        }
        "--flight" => args.flight = true,
        "--forensics-out" => args.forensics_out = Some(take_value(flag, iter)?.to_owned()),
        "--strict" => args.strict = true,
        "--kill" => args.kill = Some(take_value(flag, iter)?.to_owned()),
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_number(flag: &str, v: &str) -> Result<u64, ParseArgsError> {
    v.replace('_', "")
        .parse()
        .map_err(|_| ParseArgsError(format!("{flag}: {v:?} is not a number")))
}

/// `n` as a `T`, or an error naming `flag` when it does not fit.
fn narrow<T: TryFrom<u64>>(flag: &str, n: u64) -> Result<T, ParseArgsError> {
    T::try_from(n).map_err(|_| ParseArgsError(format!("{flag}: {n} is out of range")))
}

/// [`parse_number`] into a type narrower than `u64`.
fn parse_narrow<T: TryFrom<u64>>(flag: &str, v: &str) -> Result<T, ParseArgsError> {
    narrow(flag, parse_number(flag, v)?)
}

/// The subcommands that simulate one run and can observe it.
const RUNS: &[&str] = &["run", "recover", "forensics"];
/// The subcommands that recover, so have a report and a verdict.
const RECOVERIES: &[&str] = &["recover", "forensics"];

/// The options only some subcommands take, each with the subcommands
/// that accept it. `sweep` prints one stats row per point and writes no
/// artifact, audit verdict or recovery; only `sweep` has points to
/// spread over threads; only `forensics` kills its run.
const SCOPED: [(&str, &[&str]); 12] = [
    ("--trace-out", RUNS),
    ("--epoch-report", RUNS),
    ("--profile-out", RUNS),
    ("--metrics-out", RUNS),
    ("--metrics-interval", RUNS),
    ("--chrome-trace", RUNS),
    ("--wear-out", RUNS),
    ("--audit", RUNS),
    ("--threads", &["sweep"]),
    ("--forensics-out", RECOVERIES),
    ("--strict", RECOVERIES),
    ("--kill", &["forensics"]),
];

/// `--flight` over the in-memory store fills a ring that only a
/// forensic report reads, so `run` and `sweep` take it only with a file
/// store, and `recover` with a file store or `--forensics-out`.
/// (`forensics` always runs on a file store and refuses any other.)
fn check_flight(sub: &str, args: &RunArgs) -> Result<(), ParseArgsError> {
    let reads_ring = sub == "forensics" || (sub == "recover" && args.forensics_out.is_some());
    if args.flight && args.backend == BackendChoice::Mem && !reads_ring {
        let ring = if sub == "recover" {
            ", or --forensics-out, the only reader of the in-memory ring"
        } else {
            "; nothing reads the in-memory ring"
        };
        return Err(ParseArgsError(format!(
            "--flight on `{sub}` needs --backend file:<dir>, whose flight.log \
             keeps the entries{ring}"
        )));
    }
    Ok(())
}

/// Parses the full command line (without the program name).
///
/// # Errors
///
/// Returns a [`ParseArgsError`] describing the first invalid argument.
pub fn parse<S: AsRef<str>>(argv: &[S]) -> Result<Command, ParseArgsError> {
    let mut iter = argv.iter().map(AsRef::as_ref);
    let sub = match iter.next() {
        None => return Ok(Command::Help),
        Some(s) => s,
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "run" | "recover" | "forensics" => {
            let mut args = RunArgs::default();
            let mut interval_given = false;
            while let Some(flag) = iter.next() {
                if !parse_common(sub, &mut args, flag, &mut iter)? {
                    return Err(ParseArgsError(format!("unknown option {flag:?}")));
                }
                interval_given |= flag == "--metrics-interval";
            }
            if interval_given && args.metrics_out.is_none() && args.chrome_trace.is_none() {
                return Err(ParseArgsError(
                    "--metrics-interval needs --metrics-out or --chrome-trace, the only \
                     observers that sample metrics"
                        .into(),
                ));
            }
            check_flight(sub, &args)?;
            Ok(match sub {
                "run" => Command::Run(args),
                "recover" => Command::Recover(args),
                _ => Command::Forensics(args),
            })
        }
        "report" => {
            let mut compare = None;
            let mut metrics = None;
            let mut wear = None;
            let mut tolerance = 5.0f64;
            let mut strict_drops = false;
            while let Some(flag) = iter.next() {
                match flag {
                    "--strict-drops" => strict_drops = true,
                    "--wear" => wear = Some(take_value(flag, &mut iter)?.to_owned()),
                    "--compare" => {
                        let a = take_value(flag, &mut iter)?.to_owned();
                        let b = iter.next().ok_or_else(|| {
                            ParseArgsError("--compare needs two files: A.json B.json".into())
                        })?;
                        compare = Some((a, b.to_owned()));
                    }
                    "--metrics" => metrics = Some(take_value(flag, &mut iter)?.to_owned()),
                    "--tolerance" => {
                        let v = take_value(flag, &mut iter)?;
                        tolerance = v.parse().map_err(|_| {
                            ParseArgsError(format!("--tolerance: {v:?} is not a number"))
                        })?;
                        if tolerance < 0.0 {
                            return Err(ParseArgsError("--tolerance must be >= 0".into()));
                        }
                    }
                    _ => return Err(ParseArgsError(format!("unknown option {flag:?}"))),
                }
            }
            if compare.is_none() && metrics.is_none() && wear.is_none() {
                return Err(ParseArgsError(
                    "report needs --compare A.json B.json, --metrics FILE and/or \
                     --wear FILE"
                        .into(),
                ));
            }
            Ok(Command::Report(ReportArgs {
                compare,
                metrics,
                wear,
                tolerance,
                strict_drops,
            }))
        }
        "sweep" => {
            let mut args = RunArgs::default();
            let mut param = None;
            let mut values = Vec::new();
            while let Some(flag) = iter.next() {
                match flag {
                    "--param" => {
                        param = Some(match take_value(flag, &mut iter)? {
                            "n" | "N" => SweepParam::N,
                            "m" | "M" => SweepParam::M,
                            other => {
                                return Err(ParseArgsError(format!(
                                    "--param must be n or m, got {other:?}"
                                )))
                            }
                        });
                    }
                    "--values" => {
                        for v in take_value(flag, &mut iter)?.split(',') {
                            values.push(parse_number("--values", v)?);
                        }
                    }
                    _ => {
                        if !parse_common(sub, &mut args, flag, &mut iter)? {
                            return Err(ParseArgsError(format!("unknown option {flag:?}")));
                        }
                    }
                }
            }
            check_flight(sub, &args)?;
            let param = param.ok_or_else(|| ParseArgsError("sweep needs --param {n|m}".into()))?;
            if values.is_empty() {
                return Err(ParseArgsError("sweep needs --values a,b,c".into()));
            }
            let mut probe = args.clone();
            for &v in &values {
                param.set(&mut probe, v)?;
            }
            Ok(Command::Sweep(SweepArgs {
                run: args,
                param,
                values,
            }))
        }
        other => Err(ParseArgsError(format!(
            "unknown subcommand {other:?} (try `ccnvm-sim help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_help() {
        assert_eq!(parse::<&str>(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn run_defaults() {
        let Command::Run(args) = parse(&["run"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args, RunArgs::default());
    }

    #[test]
    fn run_with_options() {
        let Command::Run(args) = parse(&[
            "run",
            "--design",
            "sc",
            "--bench",
            "lbm",
            "--instructions",
            "500_000",
            "--seed",
            "7",
            "--limit-n",
            "32",
            "--queue-m",
            "48",
            "--split-meta",
            "--csv",
            "--trace-out",
            "events.jsonl",
            "--epoch-report",
        ])
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.design, DesignKind::StrictConsistency);
        assert_eq!(args.bench, "lbm");
        assert_eq!(args.instructions, 500_000);
        assert_eq!(args.seed, 7);
        assert_eq!(args.limit_n, 32);
        assert_eq!(args.queue_m, 48);
        assert!(args.split_meta);
        assert!(args.csv);
        assert_eq!(args.trace_out.as_deref(), Some("events.jsonl"));
        assert!(args.epoch_report);
    }

    #[test]
    fn crypto_tier_parses_and_rejects_garbage() {
        assert_eq!(RunArgs::default().crypto, CryptoSelect::Auto);
        let Command::Run(args) = parse(&["run", "--crypto", "portable"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.crypto, CryptoSelect::Portable);
        let Command::Recover(args) = parse(&["recover", "--crypto", "simd"]).unwrap() else {
            panic!("expected recover");
        };
        assert_eq!(args.crypto, CryptoSelect::Simd);
        let err = parse(&["run", "--crypto", "avx512"]).unwrap_err();
        assert!(err.to_string().contains("--crypto"));
    }

    #[test]
    fn zero_threads_is_an_error() {
        assert!(parse(&["sweep", "--param", "n", "--values", "1", "--threads", "0"]).is_err());
    }

    #[test]
    fn threads_parses_for_sweep_only() {
        let Command::Sweep(sw) =
            parse(&["sweep", "--param", "n", "--values", "4", "--threads", "3"]).unwrap()
        else {
            panic!("expected sweep");
        };
        assert_eq!(sw.run.threads, Some(3));
        for sub in ["run", "recover", "forensics"] {
            let err = parse(&[sub, "--threads", "2"]).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("--threads does not apply to the {sub} subcommand")
            );
        }
    }

    /// A count wider than its field is an error naming the flag, never
    /// silently truncated (2^32 + 16 used to run as `--limit-n 16`).
    #[test]
    fn limit_n_beyond_32_bits_is_an_error() {
        let err = parse(&["run", "--limit-n", "4294967312"]).unwrap_err();
        assert_eq!(err.to_string(), "--limit-n: 4294967312 is out of range");
        let Command::Run(args) = parse(&["run", "--limit-n", "4294967295"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.limit_n, u32::MAX);
    }

    #[test]
    fn sweep_values_beyond_the_parameter_are_an_error() {
        let err = parse(&["sweep", "--values", "8,4294967312", "--param", "n"]).unwrap_err();
        assert_eq!(err.to_string(), "--values: 4294967312 is out of range");
    }

    #[test]
    fn backend_and_fsync_parse() {
        let Command::Run(args) =
            parse(&["run", "--backend", "file:/tmp/x", "--fsync", "batch:8"]).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(args.backend, BackendChoice::File("/tmp/x".to_owned()));
        assert_eq!(args.fsync, FsyncStrategy::Batch(8));
        assert_eq!(RunArgs::default().backend, BackendChoice::Mem);
        assert_eq!(RunArgs::default().fsync, FsyncStrategy::Always);

        let Command::Run(args) = parse(&["run", "--backend", "mem"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.backend, BackendChoice::Mem);

        let Command::Recover(args) = parse(&[
            "recover",
            "--backend",
            "file:d",
            "--fsync",
            "interval:50000",
        ])
        .unwrap() else {
            panic!("expected recover");
        };
        assert_eq!(args.backend, BackendChoice::File("d".to_owned()));
        assert_eq!(args.fsync, FsyncStrategy::Interval(50_000));
    }

    #[test]
    fn bad_backend_and_fsync_are_rejected() {
        let err = parse(&["run", "--backend", "floppy"]).unwrap_err();
        assert!(err.to_string().contains("--backend"));
        let err = parse(&["run", "--backend", "file:"]).unwrap_err();
        assert!(err.to_string().contains("directory"));
        let err = parse(&["run", "--fsync", "sometimes"]).unwrap_err();
        assert!(err.to_string().contains("--fsync"));
        let err = parse(&["run", "--fsync", "batch:0"]).unwrap_err();
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn sweep_parses_param_and_values() {
        let Command::Sweep(sw) = parse(&[
            "sweep", "--param", "n", "--values", "4,8,16", "--bench", "mixed",
        ])
        .unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(sw.param, SweepParam::N);
        assert_eq!(sw.values, vec![4, 8, 16]);
    }

    #[test]
    fn sweep_rejects_the_run_options_it_ignores() {
        let ignored = SCOPED.iter().filter(|(_, subs)| !subs.contains(&"sweep"));
        for &(flag, _) in ignored {
            // Value or not, the flag itself is the error.
            let argv = ["sweep", "--param", "n", "--values", "4", flag, "x"];
            let err = parse(&argv).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("{flag} does not apply to the sweep subcommand")
            );
        }
    }

    /// Every scoped flag, under every subcommand that simulates: the
    /// subcommands its row of [`SCOPED`] names parse it, and every
    /// other one refuses it with the one message.
    #[test]
    fn every_scoped_flag_parses_only_under_its_subcommands() {
        for &(flag, subs) in &SCOPED {
            // The flag with a value it accepts, and what that value needs.
            let with_value: &[&str] = match flag {
                "--epoch-report" | "--strict" => &[],
                "--metrics-interval" => &["500", "--metrics-out", "m.csv"],
                "--audit" => &["record"],
                "--threads" => &["2"],
                "--kill" => &["drain-stage"],
                _ => &["out.json"],
            };
            for sub in ["run", "recover", "forensics", "sweep"] {
                let mut argv = vec![sub];
                if sub == "sweep" {
                    argv.extend(["--param", "n", "--values", "4"]);
                }
                argv.push(flag);
                argv.extend(with_value);
                let parsed = parse(&argv);
                if subs.contains(&sub) {
                    parsed.unwrap_or_else(|e| panic!("{argv:?}: {e}"));
                } else {
                    assert_eq!(
                        parsed.unwrap_err().to_string(),
                        format!("{flag} does not apply to the {sub} subcommand"),
                        "{argv:?}"
                    );
                }
            }
        }
    }

    /// Like `run`, `sweep` reads no in-memory flight ring.
    #[test]
    fn sweep_flight_needs_a_file_backend() {
        let err = parse(&["sweep", "--param", "n", "--values", "4,8", "--flight"]).unwrap_err();
        assert!(err
            .to_string()
            .starts_with("--flight on `sweep` needs --backend file:"));
        let argv = [
            "sweep",
            "--param",
            "n",
            "--values",
            "4,8",
            "--backend",
            "file:d",
            "--flight",
        ];
        let Command::Sweep(sw) = parse(&argv).unwrap() else {
            panic!("expected sweep");
        };
        assert!(sw.run.flight);
    }

    #[test]
    fn sweep_requires_param_and_values() {
        assert!(parse(&["sweep", "--values", "1"]).is_err());
        assert!(parse(&["sweep", "--param", "n"]).is_err());
        assert!(parse(&["sweep", "--param", "x", "--values", "1"]).is_err());
    }

    #[test]
    fn errors_mention_the_offender() {
        let err = parse(&["run", "--bogus"]).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
        let err = parse(&["run", "--design", "zzz"]).unwrap_err();
        assert!(err.to_string().contains("--design"));
        let err = parse(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["run", "--bench"]).is_err());
        assert!(parse(&["run", "--instructions", "many"]).is_err());
    }

    #[test]
    fn recover_shares_run_grammar() {
        let Command::Recover(args) = parse(&[
            "recover",
            "--bench",
            "gcc",
            "--trace-out",
            "t.jsonl",
            "--profile-out",
            "p.json",
            "--epoch-report",
        ])
        .unwrap() else {
            panic!("expected recover");
        };
        assert_eq!(args.bench, "gcc");
        assert_eq!(args.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(args.profile_out.as_deref(), Some("p.json"));
        assert!(args.epoch_report);
    }

    #[test]
    fn run_accepts_profile_out() {
        let Command::Run(args) = parse(&["run", "--profile-out", "profile.json"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.profile_out.as_deref(), Some("profile.json"));
    }

    #[test]
    fn report_parses_compare_and_tolerance() {
        let Command::Report(args) = parse(&[
            "report",
            "--compare",
            "a.json",
            "b.json",
            "--tolerance",
            "2.5",
        ])
        .unwrap() else {
            panic!("expected report");
        };
        assert_eq!(
            args.compare,
            Some(("a.json".to_owned(), "b.json".to_owned()))
        );
        assert_eq!(args.metrics, None);
        assert!((args.tolerance - 2.5).abs() < 1e-12);

        let Command::Report(args) = parse(&["report", "--compare", "a", "b"]).unwrap() else {
            panic!("expected report");
        };
        assert!((args.tolerance - 5.0).abs() < 1e-12, "default tolerance");
    }

    #[test]
    fn report_accepts_metrics_alone_or_with_compare() {
        let Command::Report(args) = parse(&["report", "--metrics", "m.csv"]).unwrap() else {
            panic!("expected report");
        };
        assert_eq!(args.metrics.as_deref(), Some("m.csv"));
        assert_eq!(args.compare, None);

        let Command::Report(args) =
            parse(&["report", "--compare", "a", "b", "--metrics", "m.jsonl"]).unwrap()
        else {
            panic!("expected report");
        };
        assert!(args.compare.is_some());
        assert_eq!(args.metrics.as_deref(), Some("m.jsonl"));
    }

    #[test]
    fn run_parses_wear_out() {
        let Command::Run(args) = parse(&["run", "--wear-out", "wear.json"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.wear_out.as_deref(), Some("wear.json"));
        assert_eq!(RunArgs::default().wear_out, None, "opt-in");
        let Command::Recover(args) = parse(&["recover", "--wear-out", "w.json"]).unwrap() else {
            panic!("expected recover");
        };
        assert_eq!(args.wear_out.as_deref(), Some("w.json"));
    }

    #[test]
    fn report_accepts_wear_alone() {
        let Command::Report(args) = parse(&["report", "--wear", "wear.json"]).unwrap() else {
            panic!("expected report");
        };
        assert_eq!(args.wear.as_deref(), Some("wear.json"));
        assert_eq!(args.compare, None);
        assert_eq!(args.metrics, None);
    }

    #[test]
    fn report_rejects_bad_grammar() {
        assert!(parse(&["report"]).is_err(), "needs an input");
        assert!(parse(&["report", "--compare", "only-one"]).is_err());
        assert!(parse(&["report", "--compare", "a", "b", "--tolerance", "-1"]).is_err());
        assert!(parse(&["report", "--compare", "a", "b", "--bogus"]).is_err());
    }

    #[test]
    fn run_parses_observability_flags() {
        let Command::Run(args) = parse(&[
            "run",
            "--metrics-out",
            "m.csv",
            "--metrics-interval",
            "250",
            "--chrome-trace",
            "t.json",
            "--audit",
            "strict",
        ])
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.metrics_out.as_deref(), Some("m.csv"));
        assert_eq!(args.metrics_interval, 250);
        assert_eq!(args.chrome_trace.as_deref(), Some("t.json"));
        assert_eq!(args.audit, Some(AuditMode::Strict));
    }

    #[test]
    fn zero_metrics_interval_is_a_typed_error() {
        let err = parse(&["run", "--metrics-interval", "0"]).unwrap_err();
        assert!(err.to_string().contains("--metrics-interval"));
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn forensics_shares_run_grammar_plus_kill() {
        let Command::Forensics(args) = parse(&[
            "forensics",
            "--backend",
            "file:/tmp/f",
            "--kill",
            "drain-stage",
            "--forensics-out",
            "report.json",
            "--strict",
        ])
        .unwrap() else {
            panic!("expected forensics");
        };
        assert_eq!(args.backend, BackendChoice::File("/tmp/f".to_owned()));
        assert_eq!(args.kill.as_deref(), Some("drain-stage"));
        assert_eq!(args.forensics_out.as_deref(), Some("report.json"));
        assert!(args.strict);
        assert_eq!(RunArgs::default().kill, None);
        assert!(!RunArgs::default().flight);
    }

    #[test]
    fn flight_parses_everywhere_but_kill_is_forensics_only() {
        let Command::Run(args) = parse(&["run", "--flight", "--backend", "file:d"]).unwrap() else {
            panic!("expected run");
        };
        assert!(args.flight);
        let Command::Recover(args) =
            parse(&["recover", "--forensics-out", "r.json", "--strict"]).unwrap()
        else {
            panic!("expected recover");
        };
        assert_eq!(args.forensics_out.as_deref(), Some("r.json"));
        assert!(args.strict);

        let err = parse(&["run", "--kill", "drain-stage"]).unwrap_err();
        assert!(err.to_string().contains("--kill"));
        let err = parse(&["recover", "--kill", "3"]).unwrap_err();
        assert!(err.to_string().contains("--kill"));
        let err = parse(&["run", "--forensics-out", "r.json"]).unwrap_err();
        assert!(err.to_string().contains("--forensics-out"));
        let err = parse(&["run", "--strict"]).unwrap_err();
        assert!(err.to_string().contains("--strict"));
    }

    /// `run --flight` over the in-memory store would fill a ring that
    /// nothing reads; `recover --forensics-out` reads it, and a file
    /// store persists it.
    #[test]
    fn run_flight_needs_a_file_backend() {
        let err = parse(&["run", "--flight"]).unwrap_err();
        assert!(err
            .to_string()
            .starts_with("--flight on `run` needs --backend file:"));
        let err = parse(&["run", "--backend", "mem", "--flight"]).unwrap_err();
        assert!(err.to_string().starts_with("--flight"));
        for argv in [
            &["recover", "--flight", "--forensics-out", "f.json"][..],
            &["run", "--flight", "--backend", "file:d"],
            &[
                "run",
                "--backend",
                "file:fstore-batch",
                "--fsync",
                "batch:8",
                "--design",
                "ccnvm",
                "--bench",
                "lbm",
                "--instructions",
                "200000",
                "--flight",
            ],
        ] {
            parse(argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        }
    }

    /// In-memory `recover` reads its flight ring only to write
    /// `--forensics-out`, so `--flight` needs that or a file store.
    #[test]
    fn recover_flight_needs_a_file_backend_or_a_forensic_report() {
        for argv in [
            &["recover", "--flight"][..],
            &["recover", "--backend", "mem", "--flight", "--strict"],
        ] {
            let err = parse(argv).unwrap_err().to_string();
            assert!(
                err.starts_with("--flight on `recover` needs --backend file:<dir>")
                    && err.contains("or --forensics-out"),
                "{argv:?}: {err}"
            );
        }
        for argv in [
            &["recover", "--flight", "--forensics-out", "f.json"][..],
            &["recover", "--forensics-out", "f.json", "--flight"],
            &["recover", "--flight", "--backend", "file:d"],
            &["forensics", "--flight", "--backend", "file:d"],
        ] {
            parse(argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        }
    }

    /// `--metrics-interval` sets how often the metrics registry
    /// samples, and only `--metrics-out` and `--chrome-trace` attach
    /// one.
    #[test]
    fn metrics_interval_needs_a_sampling_observer() {
        for sub in ["run", "recover", "forensics"] {
            let err = parse(&[sub, "--metrics-interval", "500"]).unwrap_err();
            assert!(
                err.to_string()
                    .starts_with("--metrics-interval needs --metrics-out or --chrome-trace"),
                "{sub}: {err}"
            );
            for sampler in ["--metrics-out", "--chrome-trace"] {
                let argv = [sub, "--metrics-interval", "500", sampler, "out"];
                parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
            }
        }
    }

    #[test]
    fn report_parses_strict_drops() {
        let Command::Report(args) =
            parse(&["report", "--metrics", "m.csv", "--strict-drops"]).unwrap()
        else {
            panic!("expected report");
        };
        assert!(args.strict_drops);
        let Command::Report(args) = parse(&["report", "--metrics", "m.csv"]).unwrap() else {
            panic!("expected report");
        };
        assert!(!args.strict_drops, "opt-in");
    }

    #[test]
    fn bogus_audit_mode_is_rejected() {
        let err = parse(&["run", "--audit", "paranoid"]).unwrap_err();
        assert!(err.to_string().contains("--audit"));
        assert!(err.to_string().contains("paranoid"));
        let Command::Run(args) = parse(&["run", "--audit", "record"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.audit, Some(AuditMode::Record));
    }
}
