//! End-to-end tests of the `ccnvm-sim` binary: typed CLI errors, the
//! observability/audit exit-code contract and the recovery verdicts.

use ccnvm::obs::json::Json::Bool;
use ccnvm::recovery::LocatedAttack;
use ccnvm_mem::{DurableBackend, FileBackend, FileBackendConfig};
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

/// `run --flight` over the in-memory store is a parse error: nothing
/// runs and nothing reaches stdout.
#[test]
fn run_flight_without_a_file_backend_is_refused() {
    let out = bin()
        .args(["run", "--instructions", "1000", "--flight"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: --flight"), "stderr was: {err}");
}

/// In-memory `recover --flight` without `--forensics-out` is refused
/// the same way: nothing would read the ring it fills.
#[test]
fn recover_flight_without_a_reader_is_refused() {
    let out = bin()
        .args(["recover", "--instructions", "1000", "--flight"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("error: --flight on `recover`")
            && err.contains("--forensics-out")
            && err.contains("USAGE:"),
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

/// A fresh, empty working directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = tmp(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("fresh directory");
    dir
}

/// The sorted names of the files in `dir`.
fn file_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("readable directory")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort();
    names
}

#[test]
fn single_owner_artifacts_keep_the_given_names() {
    let dir = fresh_dir("names");
    let out = bin()
        .current_dir(&dir)
        .args(["run", "--bench", "lbm", "--instructions", "20000"])
        .args(["--wear-out", "w.json", "--metrics-out", "m.jsonl"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(file_names(&dir), ["m.jsonl", "w.json"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Parses a written `ccnvm-forensics/1` or `ccnvm-wear/1` document.
fn read_json(path: &std::path::Path) -> ccnvm::obs::json::Json {
    let text = std::fs::read_to_string(path).expect("artifact written");
    ccnvm::obs::json::parse(&text).expect("well-formed JSON")
}

/// In memory, `recover` crashes a quiescent machine: the forensic
/// report from its flight ring is clean with nothing left open.
#[test]
fn in_memory_recover_writes_a_clean_forensic_report() {
    let dir = fresh_dir("mem-forensics");
    let out = bin()
        .current_dir(&dir)
        .args(["recover", "--bench", "lbm", "--instructions", "200000"])
        .args(["--flight", "--forensics-out", "f.json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(file_names(&dir), ["f.json"]);
    let doc = read_json(&dir.join("f.json"));
    assert_eq!(doc.str_field("verdict"), Ok("CLEAN"), "{doc:?}");
    assert_eq!(doc.get("quiescent"), Some(&Bool(true)));
    assert_eq!(doc.get("staged_attribution_ok"), Some(&Bool(true)));
    assert_eq!(doc.get("inferred_cause"), None);
    std::fs::remove_dir_all(&dir).ok();
}

/// One writer feeds the in-process flight ring and `flight.log`, so
/// in-memory `recover --flight` and `forensics` on a file store report
/// the same `flight` object for the same workload.
#[test]
fn in_memory_and_file_forensics_report_the_same_flight_log() {
    let dir = fresh_dir("flight-agree");
    let workload = ["--bench", "lbm", "--instructions", "200000"];
    for args in [
        &["recover", "--flight", "--forensics-out", "mem.json"][..],
        &[
            "forensics",
            "--backend",
            "file:store",
            "--forensics-out",
            "file.json",
        ],
    ] {
        let out = bin()
            .current_dir(&dir)
            .args(args)
            .args(workload)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let flight = |name: &str| read_json(&dir.join(name)).get("flight").cloned();
    let in_memory = flight("mem.json").expect("a flight object");
    assert!(in_memory.num_field("entries").unwrap() > 0, "{in_memory:?}");
    assert_eq!(Some(in_memory), flight("file.json"));
    std::fs::remove_dir_all(&dir).ok();
}

/// On SC the WPQ-retire brackets overflow the in-memory ring's 4096
/// entries; the report must say how many it dropped, and the count
/// must close the gap to the `flight.log` of the same workload.
#[test]
fn in_memory_forensics_counts_what_the_ring_dropped() {
    let dir = fresh_dir("flight-dropped");
    let workload = "--design sc --bench lbm --instructions 200000";
    for args in [
        &["recover", "--flight", "--forensics-out", "mem.json"][..],
        &[
            "forensics",
            "--backend",
            "file:store",
            "--forensics-out",
            "file.json",
        ],
    ] {
        let out = bin()
            .current_dir(&dir)
            .args(args)
            .args(workload.split(' '))
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let flight = |name: &str| {
        read_json(&dir.join(name))
            .get("flight")
            .cloned()
            .expect("a flight object")
    };
    let (in_memory, file) = (flight("mem.json"), flight("file.json"));
    let dropped = in_memory.num_field("dropped_entries").unwrap_or(0);
    assert!(dropped > 0, "{in_memory:?}");
    assert_eq!(
        in_memory.num_field("entries").unwrap() + dropped,
        file.num_field("entries").unwrap(),
        "{in_memory:?} vs {file:?}"
    );
    assert_eq!(file.get("dropped_entries"), None, "{file:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strict_recover_gates_an_unrecoverable_image() {
    let out = bin()
        .args(["recover", "--design", "wo-cc", "--bench", "milc"])
        .args(["--instructions", "500000", "--strict"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("verdict: UNRECOVERABLE"),
        "stdout was: {stdout}"
    );
    assert!(!out.status.success(), "--strict must gate UNRECOVERABLE");
}

/// The disk is outside the TCB. A bit flipped in a synced file store
/// between `run` and `recover` is the paper's attacker, so recovery
/// must locate the line and call the image ATTACKED, not a bug.
#[test]
fn recover_locates_a_line_spoofed_on_the_reopened_file_store() {
    let dir = fresh_dir("spoofed-store");
    let flags = [
        "--backend",
        "file:store",
        "--bench",
        "lbm",
        "--instructions",
        "200000",
    ];
    let out = bin()
        .current_dir(&dir)
        .arg("run")
        .args(flags)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Spoof the lowest durable line through the store's own framing: a
    // CRC-valid record, exactly what an attacker with the disk can write.
    let victim = {
        let mut store = FileBackend::open(dir.join("store"), FileBackendConfig::default())
            .expect("the run left a readable store");
        let victim = store.addrs().into_iter().min().expect("a populated store");
        let mut line = store.load(victim).expect("durable line");
        line[0] ^= 1;
        store.store(victim, line);
        store.sync();
        victim
    };
    let out = bin()
        .current_dir(&dir)
        .arg("recover")
        .args(flags)
        .args(["--forensics-out", "f.json"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let located: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("located: "))
        .collect();
    let expected = format!(
        "located: {:?}",
        LocatedAttack::DataTampered { line: victim }
    );
    assert_eq!(located, [expected.as_str()], "stdout was: {stdout}");
    assert!(stdout.contains("verdict: ATTACKED"), "stdout was: {stdout}");
    assert_eq!(
        read_json(&dir.join("f.json")).str_field("verdict"),
        Ok("ATTACKED")
    );
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// `recover` reads a store back and never creates one: a directory
/// that does not exist is a one-line error, not an empty image judged
/// ATTACKED. It is refused before the re-simulation and before any
/// artifact file is created.
#[test]
fn recover_refuses_a_missing_store_and_creates_nothing() {
    let dir = fresh_dir("missing-store");
    let out = bin()
        .current_dir(&dir)
        .args([
            "recover",
            "--backend",
            "file:missing",
            "--bench",
            "lbm",
            "--instructions",
            "5000000",
            "--chrome-trace",
            "c.json",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "stderr was: {err}");
    assert!(err.contains("no such store"), "stderr was: {err}");
    assert!(
        file_names(&dir).is_empty(),
        "recover created {:?}",
        file_names(&dir)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `sweep` writes no artifact, so an artifact flag is a parse error
/// with the usage, before any point runs.
#[test]
fn sweep_refuses_an_artifact_flag_and_writes_nothing() {
    let dir = fresh_dir("sweep-artifact");
    let out = bin()
        .current_dir(&dir)
        .args(["sweep", "--param", "n", "--values", "4"])
        .args(["--trace-out", "t.jsonl"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("error: --trace-out does not apply to the sweep subcommand\n")
            && err.contains("USAGE:"),
        "stderr was: {err}"
    );
    assert!(
        file_names(&dir).is_empty(),
        "sweep created {:?}",
        file_names(&dir)
    );
    std::fs::remove_dir_all(&dir).ok();
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
