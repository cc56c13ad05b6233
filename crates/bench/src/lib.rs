//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one evaluation artifact:
//!
//! | binary       | paper artifact |
//! |--------------|----------------|
//! | `fig5`       | Figure 5(a) IPC and 5(b) NVM write traffic, plus the abstract's headline deltas and §2.3's SC vs w/o CC cost |
//! | `fig6`       | Figure 6(a) N-sweep and 6(b) M-sweep |
//! | `recovery`   | §4.4: crash recovery and attack locating |
//!
//! All binaries accept an optional instruction budget argument
//! (default [`DEFAULT_INSTRUCTIONS`]) and honour a fixed seed so runs
//! are reproducible.

use ccnvm::prelude::*;

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

/// Parses the optional instruction-budget CLI argument.
pub fn instructions_from_args() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(DEFAULT_INSTRUCTIONS)
}

/// Parses the optional worker-thread-count CLI argument (second
/// positional), falling back to `CCNVM_BENCH_THREADS` and then to the
/// machine's available parallelism.
pub fn threads_from_args() -> usize {
    parallel::thread_count(std::env::args().nth(2).and_then(|s| s.parse().ok()))
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
pub fn row(label: &str, cells: &[String]) -> String {
    let mut out = format!("{label:<14}");
    for c in cells {
        out.push_str(&format!("{c:>14}"));
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
        let r = row("x", &["1".into(), "2".into()]);
        assert!(r.starts_with("x"));
        assert!(r.len() >= 14 + 28);
    }

    #[test]
    fn tiny_run_works() {
        let p = profiles::by_name("hmmer").unwrap();
        let s = run_design(DesignKind::CcNvm, &p, 20_000);
        assert!(s.instructions >= 20_000);
    }
}
