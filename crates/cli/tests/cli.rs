//! End-to-end tests of the `ccnvm-sim` binary: typed CLI errors and
//! the observability/audit exit-code contract.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ccnvm-sim"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ccnvm-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn zero_metrics_interval_exits_nonzero_with_typed_message() {
    let out = bin()
        .args(["run", "--metrics-interval", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--metrics-interval") && err.contains("positive"),
        "stderr was: {err}"
    );
}

#[test]
fn unwritable_chrome_trace_path_fails_fast() {
    let out = bin()
        .args([
            "run",
            "--instructions",
            "1000",
            "--chrome-trace",
            "/nonexistent-ccnvm-dir/trace.json",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("/nonexistent-ccnvm-dir/trace.json"),
        "stderr was: {err}"
    );
}

#[test]
fn bogus_audit_mode_is_rejected() {
    let out = bin()
        .args(["run", "--audit", "paranoid"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--audit") && err.contains("paranoid"),
        "stderr was: {err}"
    );
}

#[test]
fn strict_audit_selftest_exits_nonzero() {
    let out = bin()
        .args(["run", "--instructions", "5000", "--audit", "strict"])
        .env("CCNVM_AUDIT_SELFTEST", "1")
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "strict mode must fail on the injected violation"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("dirty-coverage"), "stderr was: {err}");
    assert!(err.contains("strict mode"), "stderr was: {err}");
}

#[test]
fn clean_strict_audit_run_succeeds() {
    let out = bin()
        .args(["run", "--instructions", "5000", "--audit", "strict"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "a clean run must pass strict audit");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("audit: clean"), "stderr was: {err}");
}

#[test]
fn metrics_export_report_round_trip() {
    let path = tmp("metrics.csv");
    let out = bin()
        .args([
            "run",
            "--bench",
            "lbm",
            "--instructions",
            "50000",
            "--metrics-out",
        ])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report = bin()
        .arg("report")
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(report.status.success());
    let text = String::from_utf8_lossy(&report.stdout);
    assert!(text.contains("meta_resident"), "stdout was: {text}");
    assert!(text.contains("write_amp_milli"), "stdout was: {text}");
    std::fs::remove_file(&path).ok();
}

/// Runs `run --wear-out w.json --metrics-out m.jsonl` (plus `extra`) in
/// a fresh directory and returns the names of the files it wrote.
fn artifact_names(name: &str, extra: &[&str]) -> Vec<String> {
    let dir = tmp(name);
    std::fs::create_dir_all(&dir).expect("fresh directory");
    let out = bin()
        .current_dir(&dir)
        .args(["run", "--bench", "lbm", "--instructions", "20000"])
        .args(["--wear-out", "w.json", "--metrics-out", "m.jsonl"])
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("readable directory")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort();
    std::fs::remove_dir_all(&dir).ok();
    names
}

#[test]
fn single_owner_artifacts_keep_the_given_names() {
    assert_eq!(artifact_names("names-1", &[]), ["m.jsonl", "w.json"]);
}

#[test]
fn sharded_artifacts_get_a_shard_suffix() {
    assert_eq!(
        artifact_names("names-2", &["--shards", "2"]),
        [
            "m.shard0.jsonl",
            "m.shard1.jsonl",
            "w.shard0.json",
            "w.shard1.json"
        ]
    );
}
