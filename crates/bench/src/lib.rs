//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one evaluation artifact:
//!
//! | binary       | paper artifact |
//! |--------------|----------------|
//! | `fig5`       | Figure 5(a) IPC and 5(b) NVM write traffic, plus the abstract's headline deltas and §2.3's SC vs w/o CC cost |
//! | `fig6`       | Figure 6(a) N-sweep and 6(b) M-sweep |
//! | `recovery`   | §4.4: crash recovery and attack locating |
//! | `ablation`   | sensitivity to the model's fixed parameters, and wear per design |
//! | `wear`       | Figure 5(b)'s write traffic decomposed by cause, and the durability lag |
//!
//! Every binary takes the same command line, `[instructions]
//! [threads]`, parsed by [`Args`], and runs at the fixed [`SEED`], so
//! its output is reproducible and byte-identical at any thread count.

use ccnvm::prelude::*;
use std::path::Path;

pub mod parallel;

/// Instructions per simulation point used by the harness binaries.
pub const DEFAULT_INSTRUCTIONS: u64 = 1_000_000;

/// Seed used by every harness run.
pub const SEED: u64 = 42;

/// Runs `profile` on `design` with the paper configuration.
///
/// # Panics
///
/// Panics if the configuration is invalid or the (attack-free) run
/// reports an integrity violation — both indicate harness bugs.
pub fn run_design(design: DesignKind, profile: &WorkloadProfile, instructions: u64) -> RunStats {
    run_design_with(SimConfig::paper(design), profile, instructions)
}

/// Runs `profile` under an explicit configuration.
///
/// # Panics
///
/// Panics on configuration or integrity errors (harness bugs).
pub fn run_design_with(
    config: SimConfig,
    profile: &WorkloadProfile,
    instructions: u64,
) -> RunStats {
    ccnvm::sim::run_profile(config, profile, instructions, SEED)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", profile.name, instructions))
}

/// The figure binaries' command line: `[instructions] [threads]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Instructions per simulation point ([`DEFAULT_INSTRUCTIONS`]
    /// when omitted).
    pub instructions: u64,
    /// Workers for the independent simulation points (the host's
    /// available parallelism when omitted).
    pub threads: usize,
}

impl Args {
    /// Parses the arguments after the program name. Both are positive
    /// integers and may contain `_` separators.
    ///
    /// # Errors
    ///
    /// A one-line message naming the first argument that is not a
    /// positive integer, or the first one past the second.
    pub fn parse<S: AsRef<str>>(argv: &[S]) -> Result<Args, String> {
        Args::parse_capped(argv, u64::MAX)
    }

    /// [`Args::parse`] for a binary that runs at most `cap`
    /// instructions per point: an omitted budget is the smaller of
    /// [`DEFAULT_INSTRUCTIONS`] and `cap`.
    ///
    /// # Errors
    ///
    /// As [`Args::parse`], plus a message naming the cap for a larger
    /// budget.
    pub fn parse_capped<S: AsRef<str>>(argv: &[S], cap: u64) -> Result<Args, String> {
        let arg = |i: usize| argv.get(i).map(AsRef::as_ref);
        let instructions = match positive("instructions", arg(0))? {
            Some(n) if n > cap => {
                return Err(format!("instructions must be at most {cap}, got {n}"))
            }
            Some(n) => n,
            None => DEFAULT_INSTRUCTIONS.min(cap),
        };
        let args = Args {
            instructions,
            threads: parallel::thread_count(positive("threads", arg(1))?),
        };
        match arg(2) {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(args),
        }
    }

    /// [`Args::parse`] over this process's arguments. An invalid
    /// command line is reported on one stderr line, with the usage,
    /// and exits with status 2 before anything runs.
    pub fn from_command_line() -> Args {
        Args::from_command_line_capped(u64::MAX)
    }

    /// [`Args::parse_capped`] over this process's arguments, reporting
    /// an invalid command line as [`Args::from_command_line`] does.
    pub fn from_command_line_capped(cap: u64) -> Args {
        let argv: Vec<String> = std::env::args().collect();
        let program = argv
            .first()
            .and_then(|p| Path::new(p).file_name()?.to_str())
            .unwrap_or("figure");
        Args::parse_capped(argv.get(1..).unwrap_or_default(), cap).unwrap_or_else(|e| {
            eprintln!("error: {e} (usage: {program} [instructions] [threads])");
            std::process::exit(2)
        })
    }
}

/// `arg` as a positive integer, `None` when absent.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    name: &str,
    arg: Option<&str>,
) -> Result<Option<T>, String> {
    let Some(s) = arg else {
        return Ok(None);
    };
    match s.replace('_', "").parse() {
        Ok(n) if n != T::default() => Ok(Some(n)),
        _ => Err(format!("{name} must be a positive integer, got {s:?}")),
    }
}

/// Geometric mean of `values` (the conventional aggregate for
/// normalized IPC).
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive entry.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean needs positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Renders one row of a fixed-width table.
pub fn row<S: AsRef<str>>(label: &str, cells: &[S]) -> String {
    let mut out = format!("{label:<14}");
    for c in cells {
        out.push_str(&format!("{:>14}", c.as_ref()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn row_is_aligned() {
        let r = row("x", &["1", "2"]);
        assert!(r.starts_with("x"));
        assert!(r.len() >= 14 + 28);
    }

    #[test]
    fn args_default_and_accept_separators() {
        let none: [&str; 0] = [];
        let args = Args::parse(&none).unwrap();
        assert_eq!(args.instructions, DEFAULT_INSTRUCTIONS);
        assert!(args.threads >= 1);
        let args = Args::parse(&["2_000_000", "3"]).unwrap();
        assert_eq!((args.instructions, args.threads), (2_000_000, 3));
    }

    #[test]
    fn args_reject_garbage_zero_and_a_third_argument() {
        for (argv, message) in [
            (
                &["abc"][..],
                "instructions must be a positive integer, got \"abc\"",
            ),
            (&["0"], "instructions must be a positive integer, got \"0\""),
            (
                &["-5"],
                "instructions must be a positive integer, got \"-5\"",
            ),
            (
                &["100000", "0"],
                "threads must be a positive integer, got \"0\"",
            ),
            (
                &["100000", "two"],
                "threads must be a positive integer, got \"two\"",
            ),
            (&["1", "2", "3"], "unexpected argument \"3\""),
        ] {
            assert_eq!(Args::parse(argv), Err(message.to_owned()), "{argv:?}");
        }
    }

    #[test]
    fn a_capped_budget_defaults_to_the_cap_and_refuses_more() {
        let none: [&str; 0] = [];
        assert_eq!(
            Args::parse_capped(&none, 400_000).unwrap().instructions,
            400_000
        );
        let within = Args::parse_capped(&["400_000"], 400_000).unwrap();
        assert_eq!(within.instructions, 400_000);
        assert_eq!(
            Args::parse_capped(&["400001"], 400_000),
            Err("instructions must be at most 400000, got 400001".to_owned())
        );
        let above_default = Args::parse_capped(&none, 2 * DEFAULT_INSTRUCTIONS).unwrap();
        assert_eq!(above_default.instructions, DEFAULT_INSTRUCTIONS);
    }

    #[test]
    fn tiny_run_works() {
        let p = profiles::by_name("hmmer").unwrap();
        let s = run_design(DesignKind::CcNvm, &p, 20_000);
        assert!(s.instructions >= 20_000);
    }
}
