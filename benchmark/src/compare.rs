//! `compare PARENT_DIR CHANGE_DIR`: judges a change against its parent
//! from two directories of result artifacts (`--out`), pairing runs by
//! seed.
//!
//! * A deterministic metric (`sim_ipc`, `nvm_lines_per_ki`) is
//!   **changed** when it differs at any seed by any amount: the change
//!   altered the simulated model. That fails the comparison like a
//!   regression does.
//! * A metric shows a **gain** when the change wins at least 9 of every
//!   10 pairs (ties count for neither side) and the medians differ, in
//!   the better direction, by more than the parent's interquartile
//!   range.
//! * Otherwise an end-to-end metric is **unresolved** when either
//!   side's spread (IQR over median) is wider than its bound, unless
//!   every change run beats every parent run; a **regression** when the
//!   change's median is worse than the parent's by more than the bound;
//!   and **within bound** otherwise.
//!
//! Inputs whose crypto tier, budgets, reference hash or seeds differ
//! are refused: their numbers do not measure the same thing.

use crate::metrics::{median, quartiles, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::report::{parse_artifact, Artifact};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The judgement on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A deterministic metric differs at some seed: the change altered
    /// the simulated model.
    Changed,
    /// The change improved the metric by the gain rule.
    Gain,
    /// Worse than the parent by more than the bound.
    Regression,
    /// The spread is wider than the bound.
    Unresolved,
    /// No worse than the bound allows.
    WithinBound,
    /// A per-layer metric (no bound) without a gain.
    NoClaim,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Changed => "CHANGED",
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within bound",
            Verdict::NoClaim => "-",
        }
    }
}

fn iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    q3 - q1
}

fn spread(values: &[f64]) -> f64 {
    let m = median(values).abs();
    let r = iqr(values);
    if r == 0.0 {
        0.0
    } else if m == 0.0 {
        f64::INFINITY
    } else {
        r / m
    }
}

/// Judges `change` against `parent`; `parent[i]` and `change[i]` come
/// from the same seed.
///
/// # Panics
///
/// Panics if the slices are empty or of different lengths.
pub fn verdict(def: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    assert!(
        !parent.is_empty() && parent.len() == change.len(),
        "unpaired runs"
    );
    if def.exact && parent != change {
        return Verdict::Changed;
    }
    let better = def.better;
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better.is_better(c, p))
        .count();
    let (mp, mc) = (median(parent), median(change));
    if wins * 10 >= parent.len() * 9 && better.is_better(mc, mp) && (mc - mp).abs() > iqr(parent) {
        return Verdict::Gain;
    }
    let Some(bound) = def.bound else {
        return Verdict::NoClaim;
    };
    let fold = |f: fn(f64, f64) -> f64, v: &[f64]| v.iter().copied().reduce(f).unwrap_or(0.0);
    let every_change_better = match better {
        Better::Lower => fold(f64::max, change) < fold(f64::min, parent),
        Better::Higher => fold(f64::min, change) > fold(f64::max, parent),
    };
    if spread(parent).max(spread(change)) > bound && !every_change_better {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => mc - mp,
        Better::Higher => mp - mc,
    };
    if worse > bound * mp.abs() {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    }
}

fn load(dir: &Path) -> Result<Vec<Artifact>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no result artifacts", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_artifact(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

type Group = BTreeMap<u64, Artifact>;

fn group(side: &str, runs: Vec<Artifact>) -> Result<BTreeMap<(String, bool), Group>, String> {
    let mut groups: BTreeMap<(String, bool), Group> = BTreeMap::new();
    for a in runs {
        let p = &a.provenance;
        let key = (p.workload.clone(), p.traced);
        let seed = p.seed;
        if groups.entry(key).or_default().insert(seed, a).is_some() {
            return Err(format!("{side}: two runs of one workload with seed {seed}"));
        }
    }
    Ok(groups)
}

/// Compares the artifacts in `parent` and `change`; returns the report
/// and whether any end-to-end metric regressed or changed.
///
/// # Errors
///
/// Refuses unreadable directories and runs that do not measure the
/// same thing (see the module docs).
pub fn compare(parent: &Path, change: &Path) -> Result<(String, bool), String> {
    let parents = group("parent", load(parent)?)?;
    let changes = group("change", load(change)?)?;
    let first = parents.values().flat_map(|g| g.values()).next();
    let first = &first.ok_or("no parent runs")?.provenance;
    for a in parents
        .values()
        .chain(changes.values())
        .flat_map(|g| g.values())
    {
        let p = &a.provenance;
        if p.crypto_tier != first.crypto_tier || p.reference_hash != first.reference_hash {
            return Err(format!(
                "refusing: runs differ in crypto tier or reference ({} {} vs {} {})",
                p.crypto_tier, p.reference_hash, first.crypto_tier, first.reference_hash
            ));
        }
    }
    if parents.keys().ne(changes.keys()) {
        return Err("refusing: the two sides ran different workloads".into());
    }
    let mut report = String::new();
    let mut regressed = false;
    let _ = writeln!(
        report,
        "{:<15} {:<32} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for ((workload, traced), p_runs) in &parents {
        let c_runs = &changes[&(workload.clone(), *traced)];
        if p_runs.keys().ne(c_runs.keys()) {
            return Err(format!("refusing: {workload} was run with different seeds"));
        }
        for (p, c) in p_runs.values().zip(c_runs.values()) {
            let (pp, cp) = (&p.provenance, &c.provenance);
            if (&pp.budget, pp.smoke, pp.seconds) != (&cp.budget, cp.smoke, cp.seconds) {
                return Err(format!(
                    "refusing: {workload} seed {} ran with different budgets",
                    pp.seed
                ));
            }
        }
        let defs = if *traced { PER_LAYER } else { END_TO_END };
        for def in defs {
            let values = |runs: &Group| -> Result<Vec<f64>, String> {
                runs.values()
                    .map(|a| {
                        a.metrics
                            .iter()
                            .find(|m| m.name == def.name)
                            .map(|m| m.value)
                            .ok_or_else(|| format!("refusing: a run lacks {}", def.name))
                    })
                    .collect()
            };
            let (pv, cv) = (values(p_runs)?, values(c_runs)?);
            let v = verdict(def, &pv, &cv);
            regressed |= matches!(v, Verdict::Regression | Verdict::Changed);
            let wins = pv
                .iter()
                .zip(&cv)
                .filter(|&(&p, &c)| def.better.is_better(c, p))
                .count();
            let _ = writeln!(
                report,
                "{:<15} {:<32} {:>30} {:>30} {:>6}  {}",
                workload,
                format!("{} ({})", def.name, def.unit),
                describe(&pv),
                describe(&cv),
                format!("{wins}/{}", pv.len()),
                v.label()
            );
        }
    }
    Ok((report, regressed))
}

fn describe(values: &[f64]) -> String {
    let (q1, q3) = if values.len() < 2 {
        (values[0], values[0])
    } else {
        quartiles(values)
    };
    // Four significant digits, so microsecond set-up times stay legible.
    let sig = |v: f64| {
        if v != 0.0 && v.abs() < 0.01 {
            format!("{v:.3e}")
        } else {
            format!("{v:.4}")
        }
    };
    format!("{} [{}, {}]", sig(median(values)), sig(q1), sig(q3))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: MetricDef = MetricDef {
        name: "latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
        exact: false,
    };

    #[test]
    fn any_shift_of_a_deterministic_metric_is_a_change() {
        let ipc = crate::metrics::def("sim_ipc").expect("published");
        let parent = [0.358, 0.357, 0.359, 0.358, 0.356];
        assert_eq!(verdict(ipc, &parent, &parent), Verdict::WithinBound);
        // 1%, well inside the 5% cross-seed bound, better or worse.
        for factor in [1.01, 0.99] {
            let change: Vec<f64> = parent.iter().map(|v| v * factor).collect();
            assert_eq!(verdict(ipc, &parent, &change), Verdict::Changed);
        }
        let mut one_seed = parent;
        one_seed[2] += 1e-9;
        assert_eq!(verdict(ipc, &parent, &one_seed), Verdict::Changed);
    }

    #[test]
    fn clear_win_on_every_pair_is_a_gain() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let change: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&LAT, &parent, &change), Verdict::Gain);
    }

    #[test]
    fn small_consistent_shift_inside_the_parent_spread_is_no_gain() {
        let parent = [10.0, 10.4, 9.6, 10.2, 9.8, 10.0, 10.4, 9.6, 10.2, 9.8];
        let change: Vec<f64> = parent.iter().map(|v| v - 0.1).collect();
        assert_eq!(verdict(&LAT, &parent, &change), Verdict::WithinBound);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95];
        let change: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&LAT, &parent, &change), Verdict::Regression);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0];
        let change = [6.0, 14.0, 9.0, 13.0, 10.0, 7.0];
        assert_eq!(verdict(&LAT, &parent, &change), Verdict::Unresolved);
    }

    #[test]
    fn per_layer_metrics_only_claim_gains() {
        let def = MetricDef { bound: None, ..LAT };
        assert_eq!(verdict(&def, &[1.0, 1.0], &[2.0, 2.0]), Verdict::NoClaim);
    }
}
