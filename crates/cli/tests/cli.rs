//! End-to-end tests of the `ccnvm-sim` binary: typed CLI errors and
//! the observability/audit exit-code contract.

use ccnvm::obs::json::Json::{self, Bool};
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

/// A fresh, empty working directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = tmp(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("fresh directory");
    dir
}

/// Parses a written `ccnvm-forensics/1` or `ccnvm-wear/1` document.
fn read_json(path: &std::path::Path) -> ccnvm::obs::json::Json {
    let text = std::fs::read_to_string(path).expect("artifact written");
    ccnvm::obs::json::parse(&text).expect("well-formed JSON")
}

#[test]
fn trace_replay_stops_at_a_latched_strict_audit_at_any_shard_count() {
    let dir = fresh_dir("replay-audit");
    let trace = dir.join("trace.txt");
    let ops: String = (0..64u64)
        .map(|i| {
            format!(
                "{} {} {:#x}\n",
                i % 7,
                if i % 3 == 0 { 'W' } else { 'R' },
                i * 4096
            )
        })
        .collect();
    std::fs::write(&trace, ops).expect("trace written");
    let replay = |shards: &str| {
        let out = bin()
            .args([
                "run",
                "--instructions",
                "100000",
                "--audit",
                "strict",
                "--csv",
            ])
            .args(["--shards", shards, "--trace"])
            .arg(&trace)
            .env("CCNVM_AUDIT_SELFTEST", "1")
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "strict mode must fail");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let row = stdout.lines().nth(1).expect("csv row");
        // design,bench,instructions,...
        let instructions = row
            .split(',')
            .nth(2)
            .expect("instructions column")
            .to_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let violations = stderr.matches("dirty-coverage violated").count();
        (instructions, violations, stderr)
    };
    let (one, one_violations, one_err) = replay("1");
    let (two, two_violations, two_err) = replay("2");
    assert_eq!(one_violations, 1, "stderr was: {one_err}");
    assert_eq!(two_violations, 1, "stderr was: {two_err}");
    assert_eq!(one, two, "the replay must stop at the same op");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_recover_writes_one_forensic_report_per_shard() {
    let dir = fresh_dir("shard-forensics");
    let out = bin()
        .current_dir(&dir)
        .args(["recover", "--shards", "2", "--bench", "lbm"])
        .args(["--instructions", "200000", "--flight"])
        .args(["--forensics-out", "f.json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("f.json").exists(), "two shards, two files");
    let mut victims = 0;
    for i in 0..2 {
        let doc = read_json(&dir.join(format!("f.shard{i}.json")));
        assert_eq!(doc.str_field("verdict"), Ok("CLEAN"), "shard {i}: {doc:?}");
        assert_eq!(doc.get("staged_attribution_ok"), Some(&Bool(true)));
        let lost = doc.num_field("staged_lines_lost").expect("field");
        match doc.get("inferred_cause").and_then(Json::as_str) {
            Some("drain-stage") => {
                victims += 1;
                assert!(lost > 0, "shard {i} was caught mid-drain");
                assert_eq!(doc.get("quiescent"), Some(&Bool(false)));
            }
            cause => {
                assert_eq!(cause, None, "shard {i}");
                assert_eq!(lost, 0, "shard {i} was quiescent");
                assert_eq!(doc.get("quiescent"), Some(&Bool(true)));
            }
        }
    }
    assert_eq!(victims, 1, "exactly one shard dies mid-drain");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_strict_recover_gates_an_unrecoverable_image() {
    let out = bin()
        .args(["recover", "--design", "wo-cc", "--bench", "milc"])
        .args(["--instructions", "500000", "--shards", "2", "--strict"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("verdict: UNRECOVERABLE"),
        "stdout was: {stdout}"
    );
    assert!(!out.status.success(), "--strict must gate UNRECOVERABLE");
}

#[test]
fn forensics_writes_observer_artifacts_before_the_power_cut() {
    let dir = fresh_dir("forensics-artifacts");
    let out = bin()
        .current_dir(&dir)
        .args(["forensics", "--backend", "file:store", "--bench", "lbm"])
        .args(["--instructions", "200000", "--kill", "drain-stage"])
        .args(["--profile-out", "p.json", "--wear-out", "w.json"])
        .args(["--audit", "strict"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr was: {stderr}");
    assert!(stderr.contains("audit: clean"), "stderr was: {stderr}");
    assert_eq!(
        read_json(&dir.join("p.json")).str_field("schema"),
        Ok("ccnvm-profile/1")
    );
    let report = bin()
        .current_dir(&dir)
        .args(["report", "--wear", "w.json"])
        .output()
        .expect("binary runs");
    assert!(
        report.status.success(),
        "the killed run's wear ledger must conserve: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_rejects_over_deep_json_with_one_error_line() {
    let dir = fresh_dir("deep-json");
    std::fs::write(dir.join("deep.json"), "[".repeat(200_000)).expect("write input");
    for args in [
        &["report", "--wear", "deep.json"][..],
        &["report", "--compare", "deep.json", "deep.json"][..],
    ] {
        let out = bin()
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr was: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr was: {stderr}");
        assert!(
            stderr.starts_with("error: deep.json: ") && stderr.contains("nesting deeper"),
            "{args:?}: stderr was: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
